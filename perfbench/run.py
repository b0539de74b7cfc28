"""End-to-end benchmark of the SupermarQ reproduction, layer by layer.

Usage (from the repository root)::

    python3 perfbench/run.py                                  # every workload
    python3 perfbench/run.py --workload figure2_cold --seed 7 --seconds 10 --trace 0
    python3 perfbench/run.py --workload figure2_cold,serve_mixed --trace 1
    python3 perfbench/run.py --selftest                       # harness arithmetic
    python3 perfbench/run.py --write-spec                     # regenerate BENCHMARK.json
    python3 perfbench/run.py --write-golden                   # re-pin golden.json

With ``--trace 0`` every end-to-end metric is measured with no probes
installed; with ``--trace 1`` the per-layer metrics come from passes with
probes around each layer's public calls, alternating with unprobed passes
whose ratio gives ``telemetry.trace_overhead_ratio``.  End-to-end times are
in reference seconds: each sample is scaled by the host-speed reference
calls made next to it (``hostspeed.py``), and the wall-time figure is
printed beside it.  Each workload prints its metrics with unit and sample
count, writes a report under ``perfbench/out/``, and ends with one JSON
line::

    {"correct": true, "attempted": 420, "failed": 0, "metrics": {...}}

A single ``--workload`` runs in this process; several (or ``all``) each run
in a fresh child process.  The run fails (exit 1) when an output check
fails, and exits 2 without a result when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys
import warnings
from typing import Any, Dict, List

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))

import stats  # noqa: E402
from hostspeed import NOMINAL_S  # noqa: E402

NOMINAL_MS = NOMINAL_S * 1000.0

WORKLOADS = {
    "figure2_cold": "canonical repro run figure2, construction paid each pass; plus a --processes 2 "
                    "pass, and traced a mitigated pass (workloads figure2_processes and mitigated "
                    "dropped: unsteady)",
    "serve_mixed": "repro serve closed loop, warm store job + small cold job: service, jobs, store, /metrics",
}

#: (name, unit, better, bound) — bound is the share of the parent's median a
#: metric may worsen by.  setup_s carries the largest bound.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("sweep_s", "s", "lower", 0.25),
    ("warm_job_ms_p50", "ms", "lower", 0.25),
    ("warm_job_ms_p90", "ms", "lower", 0.25),
    ("cold_job_ms_p50", "ms", "lower", 0.25),
    ("cold_job_ms_p90", "ms", "lower", 0.25),
    ("jobs_per_s", "1/s", "higher", 0.25),
    ("scrape_ms_p50", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

#: (name, unit, better) for every per-layer metric, by module.
PER_LAYER = [
    ("benchmarks.build_s", "s", "lower"),
    ("benchmarks.build_calls", "count", "lower"),
    ("paulis.expectation_calls", "count", "lower"),
    ("paulis.expectation_s", "s", "lower"),
    ("optimize.evaluations", "count", "lower"),
    ("benchmarks.score_s", "s", "lower"),
    ("features.calls", "count", "lower"),
    ("features.compute_s", "s", "lower"),
    ("transpiler.transpile_s", "s", "lower"),
    ("transpiler.cache_hits", "count", "higher"),
    ("transpiler.cache_misses", "count", "lower"),
    ("transpiler.two_qubit_gates", "count", "lower"),
    ("simulation.run_batch_s", "s", "lower"),
    ("simulation.executions", "count", "lower"),
    ("mitigation.calibrate_s", "s", "lower"),
    ("mitigation.calibration_misses", "count", "lower"),
    ("mitigation.transform_s", "s", "lower"),
    ("mitigation.variants", "count", "lower"),
    ("mitigation.mitigate_s", "s", "lower"),
    ("execution.run_s", "s", "lower"),
    ("execution.self_s", "s", "lower"),
    ("execution.self_ratio", "ratio", "lower"),
    ("suite.shards", "count", "lower"),
    ("suite.self_s", "s", "lower"),
    ("store.get_calls", "count", "lower"),
    ("store.get_s", "s", "lower"),
    ("store.hit_ratio", "ratio", "higher"),
    ("store.put_calls", "count", "lower"),
    ("store.put_s", "s", "lower"),
    ("distributed.plan_s", "s", "lower"),
    ("distributed.leases", "count", "lower"),
    ("distributed.releases", "count", "lower"),
    ("distributed.worker_executions", "count", "lower"),
    ("distributed.worker_busy_s", "s", "lower"),
    ("distributed.busy_ratio", "ratio", "higher"),
    ("service.queue_wait_ms_p50", "ms", "lower"),
    ("service.run_ms_p50", "ms", "lower"),
    ("service.non2xx", "count", "lower"),
    ("telemetry.registry_series", "count", "lower"),
    ("telemetry.exposition_lines", "count", "lower"),
    ("telemetry.snapshot_s", "s", "lower"),
    ("telemetry.trace_overhead_ratio", "ratio", "lower"),
]


def spec() -> Dict[str, Any]:
    """The BENCHMARK.json contents, from the definitions above."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 10,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def end_to_end(outcome) -> Dict[str, Dict[str, Any]]:
    """Every end-to-end metric with its value, unit and sample count.

    Times are in reference seconds (``hostspeed.py``): every sample is
    scaled by the host-speed reference calls made around it, then reduced.
    Each entry also gives the same statistic of the wall-time samples as
    ``wall``.
    """
    def median(name: str) -> Dict[str, Any]:
        return {"value": stats.median(outcome.in_reference_s(name)),
                "wall": stats.median(getattr(outcome, name)),
                "samples": len(getattr(outcome, name))}

    def p90(name: str) -> Dict[str, Any]:
        tail = stats.percentile(outcome.in_reference_s(name), 90)
        return {"value": tail["value"], "samples": tail["n"], "beyond": tail["beyond"],
                "trusted": tail["trusted"],
                "wall": stats.percentile(getattr(outcome, name), 90)["value"]}

    work = outcome.work_units
    values = {
        "setup_s": median("setup_s"),
        "sweep_s": dict(median("sweep_s"), quartiles=stats.quartiles(outcome.sweep_s)),
        "warm_job_ms_p50": median("warm_ms"),
        "warm_job_ms_p90": p90("warm_ms"),
        "cold_job_ms_p50": median("cold_ms"),
        "cold_job_ms_p90": p90("cold_ms"),
        "jobs_per_s": {"value": work / sum(outcome.in_reference_s("work_s")),
                       "wall": work / sum(outcome.work_s), "samples": work},
        "scrape_ms_p50": median("scrape_ms"),
        "peak_rss_mb": {"value": outcome.peak_rss_mb, "samples": 1},
    }
    for name, unit, _, _ in END_TO_END:
        values[name]["unit"] = unit
    return values


def per_layer(outcome) -> Dict[str, Dict[str, Any]]:
    """Every per-layer metric; a layer the workload does not reach reads 0."""
    return {
        name: {"value": float(outcome.layers.get(name, 0.0)), "unit": unit}
        for name, unit, _ in PER_LAYER
    }


def render_table(name: str, table: Dict[str, Any]) -> str:
    lines = [f"{name}: per-layer time per traced pass",
             f"  {'layer call':32s} {'count':>9s} {'total_s':>10s} {'self_s':>10s}"]
    lines += _table_rows(table)
    if "process_pass" in table:
        lines.append(f"{name}: process-path pass (2 worker processes), parent side probed")
        lines += _table_rows(table["process_pass"])
    if "mitigated_pass" in table:
        lines.append(f"{name}: mitigated pass (raw/readout/ZNE; the mitigation.* figures)")
        lines += _table_rows(table["mitigated_pass"])
    lines.append(f"  telemetry.trace_overhead_ratio {table['trace_overhead_ratio']:.4f} "
                 "(traced over untraced sweep_s, median)")
    return "\n".join(lines)


def _table_rows(table: Dict[str, Any]) -> List[str]:
    lines = []
    for row, values in sorted(table["rows"].items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(f"  {row:32s} {values['count']:9.1f} {values['total_s']:10.4f} "
                     f"{values['self_s']:10.4f}")
    lines.append(f"  {'sum of self times':32s} {'':9s} {'':10s} {table['self_sum_s']:10.4f}")
    if "traced_sweep_s" in table:
        lines.append(f"  {'traced sweep_s':32s} {'':9s} {'':10s} {table['traced_sweep_s']:10.4f}")
    for key, value in table.get("workers", {}).items():
        lines.append(f"  worker side (engine_stats) {key:20s} {value:12.4f}")
    return lines


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    import workloads

    # The expected skips (Fig. 2 "X" entries, ZNE on mid-circuit measurement)
    # warn on every pass; they are pinned by the output checks instead.
    warnings.filterwarnings("ignore", message="skipping ")

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    try:
        outcome = workloads.run_workload(name, seed, seconds, trace, str(SRC), str(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = per_layer(outcome) if trace else end_to_end(outcome)
    correct = not outcome.problems and outcome.failed == 0
    error_rate = stats.error_rate(outcome.failed, outcome.attempted)
    print(f"== {name} (seed {seed}, trace {int(trace)})")
    for metric, entry in metrics.items():
        extra = f"  n={entry['samples']}" if "samples" in entry else ""
        if "beyond" in entry:
            extra += f" beyond={entry['beyond']}"
            if not entry["trusted"]:
                extra += " (under-sampled tail)"
        if "quartiles" in entry:
            extra += " wall q1/q3={:.4f}/{:.4f}".format(entry["quartiles"][0],
                                                        entry["quartiles"][2])
        if "wall" in entry:
            extra += f" wall={entry['wall']:.6f}"
        print(f"  {metric:34s} {entry['value']:14.6f} {entry['unit']:6s}{extra}")
    print(f"  {'error_rate':34s} {error_rate:14.6f} ratio   "
          f"({outcome.failed} failed of {outcome.attempted})")
    if outcome.speed.samples:
        reference_ms = outcome.speed.reference_s() * 1000.0
        print(f"  {'host speed (reference s per s)':34s} {NOMINAL_MS / reference_ms:14.6f}         "
              f"n={len(outcome.speed.samples)} reference call "
              f"{reference_ms:.3f} ms (nominal {NOMINAL_MS:.0f} ms)")
    if outcome.table:
        print(render_table(name, outcome.table))
    for problem in outcome.problems:
        print(f"  CHECK FAILED: {problem}")

    report = {
        "workload": name, "seed": seed, "trace": trace, "correct": correct,
        "attempted": outcome.attempted, "failed": outcome.failed, "error_rate": error_rate,
        "metrics": metrics, "problems": outcome.problems, "table": outcome.table,
        "samples": {"setup_s": outcome.setup_s, "sweep_s": outcome.sweep_s,
                    "traced_sweep_s": outcome.traced_sweep_s, "warm_ms": outcome.warm_ms,
                    "cold_ms": outcome.cold_ms, "scrape_ms": outcome.scrape_ms,
                    "reference_s": outcome.speed.samples, "reference_end": outcome.speed.ends,
                    "spans": outcome.spans, "work_s": outcome.work_s,
                    "loop_scrape_ms": outcome.loop_scrape_ms},
    }
    stem = OUT / f"{name}-seed{seed}-trace{int(trace)}"
    stem.with_suffix(".json").write_text(json.dumps(report, indent=1), encoding="utf-8")
    if outcome.table:
        stem.with_suffix(".txt").write_text(render_table(name, outcome.table) + "\n",
                                            encoding="utf-8")
    result = {
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


def run_many(names: List[str], seed: int, seconds: float, trace: bool) -> int:
    """Each workload in a fresh child process; their reports relayed in order."""
    status = 0
    summary: List[str] = []
    for name in names:
        child = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True,
        )
        lines = child.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        if child.returncode != 0 or result is None:
            status = 1
        summary.append(f"{name:18s} correct={result and result['correct']} "
                       f"failed={result and result['failed']}")
    print("\n".join(["== summary"] + summary))
    return status


def write_golden() -> int:
    """Re-pin golden.json from one figure2 and one mitigated pass at the default seed."""
    import checks
    import workloads

    import repro.benchmarks  # noqa: F401

    golden = {}
    for name, kind in (("figure2_cold", "figure2"), ("mitigated", "mitigated")):
        _, _, outcomes = workloads.sweep(kind, workloads.DEFAULT_SEED)
        golden[name] = checks.summarize(outcomes)
        golden[name]["seed"] = workloads.DEFAULT_SEED
    checks.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n",
                                  encoding="utf-8")
    print(f"wrote {checks.GOLDEN_PATH}")
    return 0


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help="workload name, comma list, or 'all' (%(default)s)")
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="minimum measured time per run; each workload also has a "
                        "minimum pass count")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--write-spec", action="store_true")
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args(argv)

    if args.selftest:
        import selftest

        return selftest.main()
    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec(), indent=2) + "\n",
                                            encoding="utf-8")
        return 0
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program's sources are missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.write_golden:
        return write_golden()

    names = list(WORKLOADS) if args.workload == "all" else args.workload.split(",")
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; choose from {list(WORKLOADS)}")
    if len(names) == 1:
        return run_one(names[0], args.seed, args.seconds, bool(args.trace))
    return run_many(names, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
