"""The two workloads: a batch scenario sweep and a service mix.

Each workload runs in its own fresh process (``run.py`` spawns one per
workload) and returns a :class:`Outcome`: the end-to-end samples it measured,
the per-layer figures of its traced passes, its output checks and its
failure count.  Only scenario inputs derived from the seed reach the
program; every knob is fixed here.
"""

from __future__ import annotations

import json
import math
import os
import random
import resource
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import checks
import stats
from hostspeed import HostSpeed
from layers import LayerProbes, Recorder

DEFAULT_SEED = 1234

#: The canonical ``repro run figure2`` knobs (ROADMAP): every workload uses them.
KNOBS = {"shots": 250, "repetitions": 1, "trajectories": 40, "max_workers": 1}

#: The small cold service job: two families on two devices, six units.
SMALL_JOB_FAMILIES = ["ghz", "mermin_bell"]
SMALL_JOB_DEVICES = ["IBM-Casablanca-7Q", "IonQ-11Q"]
SMALL_JOB_UNITS = 6

#: Set-ups measured per run; the median is reported.
SETUPS = 3

#: Seconds of back-to-back ``/metrics`` scrapes at the end of a run (HTTP on
#: serve_mixed, in-process renders on the batch workloads, with a reference
#: call after every few of those).
SCRAPE_SECONDS = 2.0
SCRAPE_RENDERS_PER_REFERENCE = 5

#: Snapshots timed for ``telemetry.snapshot_s`` on a batch run.
SNAPSHOTS = 25

#: Host-speed reference calls (~7 ms each, ``hostspeed.py``) are
#: interleaved finely with the untraced measured work, ~10% of a run: one
#: after every outcome of a batch pass (its time is left out of the pass),
#: one after every serve job and end-of-run scrape, and this many after
#: every set-up.
REFERENCE_CALLS_SETUP = 10

SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
import repro.benchmarks, repro.experiments
from repro.suite import figure2_scenario, mitigated_scenario
for scenario in (figure2_scenario(small=True), mitigated_scenario(small=True)):
    list(scenario.shards())
"""


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    #: Host-speed reference calls timed next to the measured work.
    speed: HostSpeed = field(default_factory=HostSpeed)
    setup_s: List[float] = field(default_factory=list)
    sweep_s: List[float] = field(default_factory=list)
    traced_sweep_s: List[float] = field(default_factory=list)
    warm_ms: List[float] = field(default_factory=list)
    cold_ms: List[float] = field(default_factory=list)
    scrape_ms: List[float] = field(default_factory=list)
    #: serve_mixed only: the in-loop scrapes, which grow with the registry.
    loop_scrape_ms: List[float] = field(default_factory=list)
    work_units: int = 0
    #: Wall seconds the work units took: one entry per batch pass, one for
    #: the whole serve loop.
    work_s: List[float] = field(default_factory=list)
    #: (start, end) perf_counter span of every sample above, by list name,
    #: for the host-speed reference calls around it (untraced runs only).
    spans: Dict[str, List[tuple]] = field(default_factory=dict)
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    layers: Dict[str, float] = field(default_factory=dict)
    table: Dict[str, Any] = field(default_factory=dict)

    def check(self, condition: bool, message: str) -> None:
        if not condition:
            self.problems.append(message)

    def add(self, name: str, values: List[float], start: float = -math.inf,
            end: float = math.inf) -> None:
        """Append samples to the list ``name``, all measured within ``start..end``.

        The span picks the host-speed reference calls that scale the samples
        (``HostSpeed.reference_s``); the default span is the whole run.
        """
        getattr(self, name).extend(values)
        self.spans.setdefault(name, []).extend([(start, end)] * len(values))

    def in_reference_s(self, name: str) -> List[float]:
        """The samples of list ``name`` in reference time (``hostspeed.py``)."""
        return [value * self.speed.scale(start, end)
                for value, (start, end) in zip(getattr(self, name), self.spans[name])]


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------
def _self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _series_count() -> int:
    from repro.telemetry import get_metrics

    return sum(len(entry["series"]) for entry in get_metrics().snapshot().values())


class ChildMemory:
    """Samples the peak summed high-water RSS of this process's live children."""

    def __init__(self, interval: float = 0.1) -> None:
        self.interval = interval
        self.peak_mb = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="perfbench-rss", daemon=True)

    def __enter__(self) -> "ChildMemory":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()

    @staticmethod
    def _children() -> List[str]:
        pids: List[str] = []
        for task in os.listdir("/proc/self/task"):
            try:
                with open(f"/proc/self/task/{task}/children", encoding="ascii") as handle:
                    pids.extend(handle.read().split())
            except OSError:
                continue
        return pids

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            total_kb = 0
            for pid in self._children():
                try:
                    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
                        for line in handle:
                            if line.startswith("VmHWM:"):
                                total_kb += int(line.split()[1])
                                break
                except OSError:
                    continue
            self.peak_mb = max(self.peak_mb, total_kb / 1024.0)


def _subprocess_setups(out: "Outcome", src: str, trace: bool) -> None:
    """Wall time of a fresh interpreter importing the program and expanding the scenarios."""
    for _ in range(SETUPS):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, src], check=True)
        # Scaled by the whole run: the calls after a set-up sample a moment,
        # not the second it took.
        out.add("setup_s", [time.perf_counter() - started])
        if not trace:
            out.speed.block(REFERENCE_CALLS_SETUP)


def _render_exposition() -> str:
    """The exposition ``GET /metrics`` serves, rendered in-process."""
    from repro.telemetry import get_metrics
    from repro.telemetry.export import to_prometheus

    return to_prometheus(get_metrics().snapshot())


def _scrape_window(out: "Outcome", scrape, per_reference: int, trace: bool) -> int:
    """``scrape()`` back to back for SCRAPE_SECONDS at the end of a run; its lines.

    The exposition grows all run (the series leak), so ``scrape_ms`` is
    measured at one registry size, the run's last, rather than along the
    growth.  A host-speed reference call follows every ``per_reference``
    scrapes; each scrape is scaled by the calls next to it.
    """
    window_start = time.perf_counter()
    lines = 0
    while time.perf_counter() - window_start < SCRAPE_SECONDS:
        for _ in range(per_reference):
            started = time.perf_counter()
            lines = scrape().count("\n")
            ended = time.perf_counter()
            out.add("scrape_ms", [(ended - started) * 1000.0], started, ended)
            out.attempted += 1
        if not trace:
            out.speed.block(1)
    return lines


def _snapshot_seconds() -> float:
    """Median wall time of one metrics-registry snapshot."""
    from repro.telemetry import get_metrics

    samples = []
    for _ in range(SNAPSHOTS):
        started = time.perf_counter()
        get_metrics().snapshot()
        samples.append(time.perf_counter() - started)
    return stats.median(samples)


def _engine_totals(engine_stats: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """Counters summed over a ``SuiteResult.engine_stats`` (shards and workers)."""
    totals: Dict[str, float] = {}
    for key, values in engine_stats.items():
        if key == "scheduler":
            continue
        for name in ("hits", "misses", "executions", "calibration_misses"):
            totals[name] = totals.get(name, 0.0) + float(values.get(name, 0))
        if key.startswith("worker-"):
            _sum_into(totals, {"worker_executions": float(values.get("executions", 0)),
                               "worker_busy_s": float(values.get("seconds", 0.0))})
    scheduler = engine_stats.get("scheduler", {})
    totals["leases_issued"] = float(scheduler.get("leases_issued", 0))
    totals["releases"] = float(scheduler.get("retries", 0) + scheduler.get("straggler_releases", 0))
    totals["shards"] = float(sum(
        1 for key in engine_stats if key != "scheduler" and not key.startswith("worker-")
    ))
    return totals


def _sum_into(target: Dict[str, float], values: Dict[str, float]) -> None:
    for key, value in values.items():
        target[key] = target.get(key, 0.0) + value


def layer_metrics(snapshot: Dict[str, Any], passes: int, engine: Dict[str, float],
                  gates: float) -> Dict[str, float]:
    """The ``<module>.<metric>`` figures, per traced pass, from recorder rows and engine stats."""
    rows = snapshot["rows"]
    counters = snapshot["counters"]

    def row(name: str, field_name: str = "total_s") -> float:
        return rows.get(name, {}).get(field_name, 0) / passes

    def rows_of(prefix: str, field_name: str = "total_s") -> float:
        return sum(v[field_name] for k, v in rows.items() if k.startswith(prefix)) / passes

    run_s = row("execution.run")
    gets = row("store.get", "count")
    hits = counters.get("store.hits", 0.0) / passes
    return {
        "benchmarks.build_s": row("benchmarks.build"),
        "benchmarks.build_calls": row("benchmarks.build", "count"),
        "paulis.expectation_calls": row("paulis.expectation", "count"),
        "paulis.expectation_s": row("paulis.expectation"),
        "optimize.evaluations": counters.get("optimize.evaluations", 0.0) / passes,
        "benchmarks.score_s": row("benchmarks.score"),
        "features.calls": row("features.compute", "count"),
        "features.compute_s": row("features.compute"),
        "transpiler.transpile_s": rows_of("transpiler."),
        "transpiler.cache_hits": engine.get("hits", 0.0) / passes,
        "transpiler.cache_misses": engine.get("misses", 0.0) / passes,
        "transpiler.two_qubit_gates": gates / passes,
        "simulation.run_batch_s": row("simulation.run_batch"),
        "simulation.executions": engine.get("executions", 0.0) / passes,
        "mitigation.calibrate_s": row("mitigation.calibrate"),
        "mitigation.calibration_misses": engine.get("calibration_misses", 0.0) / passes,
        "mitigation.transform_s": row("mitigation.transform"),
        "mitigation.variants": counters.get("mitigation.variants", 0.0) / passes,
        "mitigation.mitigate_s": row("mitigation.mitigate"),
        "execution.run_s": run_s,
        "execution.self_s": row("execution.run", "self_s"),
        "execution.self_ratio": stats.ratio(row("execution.run", "self_s"), run_s),
        "suite.shards": engine.get("shards", 0.0) / passes,
        "suite.self_s": row("suite.run_scenario", "self_s"),
        "store.get_calls": gets,
        "store.get_s": row("store.get"),
        "store.hit_ratio": stats.ratio(hits, gets),
        "store.put_calls": row("store.put", "count"),
        "store.put_s": row("store.put"),
    }


def self_time_table(snapshot: Dict[str, Any], passes: int) -> Dict[str, Any]:
    """Per-row count/total/self per pass, and the self-time sum against the roots."""
    rows = {
        name: {key: value / passes for key, value in row.items()}
        for name, row in snapshot["rows"].items()
    }
    return {
        "rows": rows,
        "self_sum_s": sum(row["self_s"] for row in rows.values()),
        "roots": sorted(snapshot["roots"]),
    }


# ---------------------------------------------------------------------------
# batch workloads
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class BatchSpec:
    name: str
    scenario: str  # "figure2" | "mitigated"
    min_passes: int
    #: Also run one pass on the process executor: the cross-path check and
    #: the ``distributed`` layer (a steady workload of its own did not fit).
    process_pass: bool = False
    #: Traced runs only: also run one ``mitigated`` pass (raw/readout/ZNE),
    #: checked against its golden entry, for the ``mitigation`` layer's
    #: figures.  ``mitigated`` was a workload of its own; see NOTES.md.
    mitigated_pass: bool = False


BATCH = {
    "figure2_cold": BatchSpec("figure2_cold", "figure2", min_passes=10, process_pass=True,
                              mitigated_pass=True),
}

#: Worker processes of the process-path pass (the machine has 2 cores).
PROCESSES = 2


def _scenario(kind: str):
    from repro.suite import figure2_scenario, mitigated_scenario

    return figure2_scenario(small=True) if kind == "figure2" else mitigated_scenario(small=True)


def sweep(kind: str, seed: int, processes: int = 0, clear: bool = True,
          speed: Optional[HostSpeed] = None):
    """One scenario pass as ``repro run <kind>`` does it, construction included.

    ``clear=False`` keeps the registry memo (a reference pass that need not
    pay construction again).  With ``speed``, a host-speed reference call
    runs after every outcome, and its time is left out of the returned
    elapsed time.
    """
    from repro.suite import get_registry
    from repro.suite import runner

    arrivals: List[Any] = []
    reference_before = speed.spent_s if speed is not None else 0.0

    def on_outcome(outcome) -> None:
        arrivals.append(outcome)
        if speed is not None:
            speed.block(1)

    if clear:
        get_registry().clear_cache()
    executor = {"executor": "process", "processes": processes} if processes else {}
    started = time.perf_counter()
    result = runner.run_scenario(
        _scenario(kind), seed=seed, on_outcome=on_outcome, **KNOBS, **executor
    )
    elapsed = time.perf_counter() - started
    if speed is not None:
        elapsed -= speed.spent_s - reference_before
    return elapsed, result, [o.as_dict() for o in arrivals]


def _shard_latencies(outcomes: List[Dict[str, Any]], cold_device: str) -> tuple:
    """Per-device shard latencies (ms), split into the construction-cold shard and warm ones.

    A shard is one device's units, the job ``repro run --devices <d>`` runs;
    its latency is the sum of its units' ``ExecutionEngine.run`` wall times.
    The first device's shard builds the benchmarks; the others reuse them.
    """
    shards: Dict[str, float] = {}
    for outcome in outcomes:
        shards[outcome["device"]] = shards.get(outcome["device"], 0.0) + outcome["seconds"]
    cold = [seconds * 1000.0 for device, seconds in shards.items() if device == cold_device]
    warm = [seconds * 1000.0 for device, seconds in shards.items() if device != cold_device]
    return cold, warm


def _check_pass(out: Outcome, label: str, outcomes: List[Dict[str, Any]],
                golden: Dict[str, Any], seed: int) -> str:
    """Golden checks and failure count of one pass; returns its full digest."""
    summary = checks.summarize(outcomes)
    for problem in checks.compare(summary, golden, seed, DEFAULT_SEED):
        out.problems.append(f"{label}: {problem}")
    expected_units = golden["runs"] + len(golden["skip_keys"])
    out.attempted += expected_units
    unexpected = [o for o in outcomes
                  if o["status"] != "ok" and o["key"] not in golden["skip_keys"]]
    out.failed += len(unexpected) + max(0, expected_units - len(outcomes))
    return summary["digest"]


def _self_sum_check(out: Outcome, table: Dict[str, Any], sweep_s: float, label: str) -> None:
    out.check(table["roots"] == ["suite.run_scenario"],
              f"{label}: traced frames outside the sweep: {table['roots']}")
    out.check(abs(table["self_sum_s"] - sweep_s) <= 0.01 * sweep_s,
              f"{label}: layer self times sum to {table['self_sum_s']:.4f}s, "
              f"traced sweep is {sweep_s:.4f}s")


def run_batch(spec: BatchSpec, seed: int, seconds: float, trace: bool, src: str) -> Outcome:
    out = Outcome()
    golden = checks.load_golden()[spec.name]
    _subprocess_setups(out, src, trace)

    import repro.benchmarks  # noqa: F401 - registers the benchmark families

    cold_device = next(iter(_scenario(spec.scenario).shards())).engine.device
    recorder = Recorder()
    probes = LayerProbes(recorder)
    engine: Dict[str, float] = {}
    gates = 0.0
    series_start = _series_count()
    exposition_lines = 0
    first_digest = None
    memory = ChildMemory()
    with memory:
        started = time.perf_counter()
        index = 0
        while index < spec.min_passes or time.perf_counter() - started < seconds:
            traced = trace and index % 2 == 1
            if traced:
                probes.install()
            try:
                pass_started = time.perf_counter()
                elapsed, result, arrivals = sweep(spec.scenario, seed,
                                                  speed=None if (trace or traced) else out.speed)
                pass_ended = time.perf_counter()
            finally:
                probes.remove()
            index += 1
            if traced:
                out.traced_sweep_s.append(elapsed)
            else:
                out.add("sweep_s", [elapsed], pass_started, pass_ended)
            digest = _check_pass(out, f"pass {index}", arrivals, golden, seed)
            first_digest = first_digest or digest
            out.check(digest == first_digest, f"pass {index}: digest differs from pass 1")

            # A shard is scaled by its pass's calls: its units' times do not
            # say when each ran, and one unit can run for seconds.
            cold, warm = _shard_latencies(arrivals, cold_device)
            out.add("cold_ms", cold, pass_started, pass_ended)
            out.add("warm_ms", warm, pass_started, pass_ended)
            out.add("work_s", [elapsed], pass_started, pass_ended)
            out.work_units += len(cold) + len(warm)
            if traced:
                _sum_into(engine, _engine_totals(result.engine_stats))
                gates += sum(o["run"]["compiled_two_qubit_gates"]
                             for o in arrivals if o["status"] == "ok")

        # A batch run has no HTTP surface: render the exposition that
        # ``GET /metrics`` would serve after the passes.
        exposition_lines = _scrape_window(out, _render_exposition, SCRAPE_RENDERS_PER_REFERENCE,
                                          trace)

        if spec.process_pass:
            process_recorder = Recorder()
            process_probes = LayerProbes(process_recorder)
            if trace:
                process_probes.install()
            try:
                process_s, process_result, arrivals = sweep(spec.scenario, seed, PROCESSES)
            finally:
                process_probes.remove()
            digest = _check_pass(out, "process-path pass", arrivals, golden, seed)
            out.check(digest == first_digest, "process-path pass differs from the thread path")

        if spec.mitigated_pass and trace:
            mitigated_recorder = Recorder()
            mitigated_probes = LayerProbes(mitigated_recorder)
            mitigated_probes.install()
            try:
                mitigated_s, mitigated_result, arrivals = sweep("mitigated", seed)
            finally:
                mitigated_probes.remove()
            _check_pass(out, "mitigated pass", arrivals, checks.load_golden()["mitigated"], seed)
    out.peak_rss_mb = _self_rss_mb() + memory.peak_mb

    if trace:
        passes = len(out.traced_sweep_s)
        snapshot = recorder.snapshot()
        out.layers = layer_metrics(snapshot, passes, engine, gates)
        out.layers.update(_telemetry_layers(series_start, exposition_lines,
                                            _snapshot_seconds()))
        out.layers["telemetry.trace_overhead_ratio"] = (
            stats.median(out.traced_sweep_s) / stats.median(out.sweep_s)
        )
        out.table = self_time_table(snapshot, passes)
        out.table["trace_overhead_ratio"] = out.layers["telemetry.trace_overhead_ratio"]
        out.table["traced_sweep_s"] = sum(out.traced_sweep_s) / passes
        _self_sum_check(out, out.table, out.table["traced_sweep_s"], "thread passes")
        if spec.process_pass:
            process = _engine_totals(process_result.engine_stats)
            out.layers.update({
                "distributed.plan_s": process_recorder.snapshot()["rows"]
                .get("distributed.plan", {}).get("total_s", 0.0),
                "distributed.leases": process["leases_issued"],
                "distributed.releases": process["releases"],
                "distributed.worker_executions": process["worker_executions"],
                "distributed.worker_busy_s": process["worker_busy_s"],
                "distributed.busy_ratio": process["worker_busy_s"] / (PROCESSES * process_s),
            })
            table = self_time_table(process_recorder.snapshot(), 1)
            table["traced_sweep_s"] = process_s
            table["workers"] = {
                "busy_s": process["worker_busy_s"],
                "executions": process["worker_executions"],
                "cache_hits": process["hits"],
                "cache_misses": process["misses"],
            }
            _self_sum_check(out, table, process_s, "process-path pass")
            out.table["process_pass"] = table
        if spec.mitigated_pass:
            snapshot = mitigated_recorder.snapshot()
            mitigated = layer_metrics(snapshot, 1, _engine_totals(mitigated_result.engine_stats),
                                      0.0)
            out.layers.update({name: value for name, value in mitigated.items()
                               if name.startswith("mitigation.")})
            table = self_time_table(snapshot, 1)
            table["traced_sweep_s"] = mitigated_s
            _self_sum_check(out, table, mitigated_s, "mitigated pass")
            out.table["mitigated_pass"] = table
    return out


def _telemetry_layers(series_start: int, exposition_lines: int,
                      snapshot_s: float) -> Dict[str, float]:
    return {
        "telemetry.registry_series": float(_series_count() - series_start),
        "telemetry.exposition_lines": float(exposition_lines),
        "telemetry.snapshot_s": snapshot_s,
    }


# ---------------------------------------------------------------------------
# serve_mixed
# ---------------------------------------------------------------------------
SERVE_MIN_ROUNDS = 120
#: The client scrapes ``GET /metrics`` after every SCRAPE_EVERY-th round as
#: part of the traffic; ``scrape_ms`` comes from the window after the loop.
SCRAPE_EVERY = 5


class Client:
    """Closed-loop HTTP client: one request at a time, counting non-2xx answers."""

    def __init__(self, url: str) -> None:
        self.url = url
        self.non2xx = 0

    def _open(self, request):
        try:
            return urllib.request.urlopen(request, timeout=120)
        except urllib.error.HTTPError:
            self.non2xx += 1
            raise

    def job(self, body: Dict[str, Any]) -> tuple:
        """POST a scenario and stream its outcomes to the end line."""
        request = urllib.request.Request(
            self.url + "/scenarios", data=json.dumps(body).encode("utf-8"),
            headers={"Content-Type": "application/json"}, method="POST",
        )
        with self._open(request) as response:
            job_id = json.loads(response.read())["job_id"]
        lines = []
        with self._open(f"{self.url}/jobs/{job_id}/outcomes") as response:
            for raw in response:
                lines.append(json.loads(raw))
        return job_id, lines[:-1], lines[-1]

    def get_json(self, path: str) -> Dict[str, Any]:
        with self._open(self.url + path) as response:
            return json.loads(response.read())

    def scrape(self) -> str:
        with self._open(self.url + "/metrics") as response:
            return response.read().decode("utf-8")


def _figure2_body(seed: int) -> Dict[str, Any]:
    return {"scenario": "figure2", "options": {"small": True}, "knobs": dict(KNOBS, seed=seed)}


def _small_body(seed: int) -> Dict[str, Any]:
    return {
        "scenario": "figure2",
        "options": {"small": True, "families": SMALL_JOB_FAMILIES, "devices": SMALL_JOB_DEVICES},
        "knobs": dict(KNOBS, seed=seed),
    }


class Service:
    """An in-process ``repro serve`` over a fresh file-backed store."""

    def __init__(self, path: str) -> None:
        from repro.service.http import BenchmarkService
        from repro.service.jobs import JobQueue
        from repro.store import ResultStore
        from repro.suite import runner

        self.path = path
        self.store = ResultStore(path)
        # Late binding through the module attribute lets traced rounds see
        # the probed run_scenario (the queue's default is bound at import).
        queue = JobQueue(store=self.store, workers=2,
                         runner=lambda *args, **kwargs: runner.run_scenario(*args, **kwargs))
        self.service = BenchmarkService(store=self.store, queue=queue, port=0).start()
        self.client = Client(self.service.url)

    def close(self) -> None:
        self.service.shutdown()
        self.store.close()


def run_serve(seed: int, seconds: float, trace: bool, src: str, workdir: str) -> Outcome:
    from repro.suite import get_registry

    out = Outcome()
    service: Optional[Service] = None
    try:
        populated = []
        for attempt in range(SETUPS):
            if service is not None:
                service.close()
            get_registry().clear_cache()
            started = time.perf_counter()
            service = Service(os.path.join(workdir, f"store-{attempt}.sqlite"))
            _, outcomes, end = service.client.job(_figure2_body(seed))
            out.add("setup_s", [time.perf_counter() - started])
            if not trace:
                out.speed.block(REFERENCE_CALLS_SETUP)
            out.attempted += 1
            out.failed += end.get("status") != "done"
            populated.append(checks.digest(outcomes))
        assert service is not None
        client = service.client

        # Cross-path check against the thread-path figure2 pass at this seed
        # (pinned at the default seed; otherwise run once, reusing the
        # benchmarks the last set-up built).
        reference = checks.load_golden()["figure2_cold"]["digest"]
        if seed != DEFAULT_SEED:
            _, _, ref_outcomes = sweep("figure2", seed, clear=False)
            reference = checks.digest(ref_outcomes)
        for attempt, digest in enumerate(populated, 1):
            out.check(digest == reference,
                      f"set-up {attempt}: populating job differs from figure2_cold")

        recorder = Recorder()
        probes = LayerProbes(recorder)
        series_start = _series_count()
        rng = random.Random(seed)
        used_seeds = {seed}
        engine: Dict[str, float] = {}
        gates = 0.0
        queue_wait_ms: List[float] = []
        run_ms: List[float] = []
        rounds = 0
        loop_started = time.perf_counter()
        reference_before = out.speed.spent_s
        while rounds < SERVE_MIN_ROUNDS or time.perf_counter() - loop_started < seconds:
            traced = trace and rounds % 2 == 1
            job_seed = seed
            while job_seed in used_seeds:
                job_seed = rng.randrange(1, 2**31)
            used_seeds.add(job_seed)
            if traced:
                probes.install()
            try:
                round_started = time.perf_counter()
                warm_id, warm_outcomes, warm_end = client.job(_figure2_body(seed))
                warm_done = time.perf_counter()
                if not trace:
                    out.speed.block(1)
                cold_started = time.perf_counter()
                cold_id, cold_outcomes, cold_end = client.job(_small_body(job_seed))
                round_done = time.perf_counter()
                if not trace:
                    out.speed.block(1)
                rounds += 1
                if rounds % SCRAPE_EVERY == 0:
                    scrape_started = time.perf_counter()
                    client.scrape()
                    out.loop_scrape_ms.append((time.perf_counter() - scrape_started) * 1000.0)
                    out.attempted += 1
            finally:
                probes.remove()
            round_s = (warm_done - round_started) + (round_done - cold_started)
            if traced:
                out.traced_sweep_s.append(round_s)
            else:
                out.add("sweep_s", [round_s], round_started, round_done)
            out.add("warm_ms", [(warm_done - round_started) * 1000.0], round_started, warm_done)
            out.add("cold_ms", [(round_done - cold_started) * 1000.0], cold_started, round_done)
            out.attempted += 2
            out.failed += (warm_end.get("status") != "done") + (cold_end.get("status") != "done")
            out.check(checks.digest(warm_outcomes) == reference,
                      f"round {rounds}: warm job differs from figure2_cold")
            bad_units = sum(1 for o in cold_outcomes if o["status"] != "ok")
            out.failed += bad_units + max(0, SMALL_JOB_UNITS - len(cold_outcomes))
            if trace:
                for job_id in (warm_id, cold_id):
                    status = client.get_json(f"/jobs/{job_id}")
                    queue_wait_ms.append((status["started_at"] - status["created_at"]) * 1000.0)
                    run_ms.append((status["finished_at"] - status["started_at"]) * 1000.0)
                    if traced:
                        result = service.service.queue.result(job_id, timeout=60)
                        _sum_into(engine, _engine_totals(result.engine_stats))
                if traced:
                    gates += sum(o["run"]["compiled_two_qubit_gates"]
                                 for o in warm_outcomes + cold_outcomes if o["status"] == "ok")
        out.work_units = 2 * rounds
        loop_ended = time.perf_counter()
        out.add("work_s", [loop_ended - loop_started - (out.speed.spent_s - reference_before)],
                loop_started, loop_ended)
        exposition_lines = _scrape_window(out, client.scrape, 1, trace)
        out.failed += client.non2xx
        out.peak_rss_mb = _self_rss_mb()

        if trace:
            passes = len(out.traced_sweep_s)
            snapshot = recorder.snapshot()
            out.layers = layer_metrics(snapshot, passes, engine, gates)
            snapshot_row = snapshot["rows"].get("telemetry.snapshot", {})
            out.layers.update(_telemetry_layers(
                series_start, exposition_lines,
                stats.ratio(snapshot_row.get("total_s", 0.0), snapshot_row.get("count", 0)),
            ))
            out.layers["service.queue_wait_ms_p50"] = stats.median(queue_wait_ms)
            out.layers["service.run_ms_p50"] = stats.median(run_ms)
            out.layers["telemetry.trace_overhead_ratio"] = (
                stats.median(out.traced_sweep_s) / stats.median(out.sweep_s)
            )
            out.layers["service.non2xx"] = float(client.non2xx)
            out.table = self_time_table(snapshot, passes)
            out.table["trace_overhead_ratio"] = out.layers["telemetry.trace_overhead_ratio"]
    finally:
        if service is not None:
            service.close()
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool, src: str,
                 workdir: str) -> Outcome:
    if name == "serve_mixed":
        return run_serve(seed, seconds, trace, src, workdir)
    return run_batch(BATCH[name], seed, seconds, trace, src)

