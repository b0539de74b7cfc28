"""Per-layer timing from the benchmark's own files.

:class:`Recorder` keeps a stack of open frames per thread.  A frame's self
time is its duration minus the durations of the frames opened inside it, so
the self times of one tree always sum to its root's duration.  A frame that
opens on a thread with an empty stack (the engine's worker-pool thread, for
example) is parented to the innermost open frame of the thread that holds
the current root, which is the frame waiting for it.

:class:`LayerProbes` wraps the public functions of each ``repro`` layer with
recorder frames, and removes the wrappers again, so traced and untraced
passes can alternate in one process.  Nothing under ``src/`` is changed: the
wrappers replace module and class attributes at run time only.
"""

from __future__ import annotations

import functools
import os
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple


class _Frame:
    __slots__ = ("row", "start", "child", "parent")

    def __init__(self, row: str, start: float, parent: Optional["_Frame"]) -> None:
        self.row = row
        self.start = start
        self.child = 0.0
        self.parent = parent


class Recorder:
    """Count, total and self seconds per row, over nested and cross-thread calls.

    A row is named ``<layer>.<function>``.  A call into a layer from inside a
    frame of the same layer folds into that frame (one ``get_or_transpile_many``
    that calls ``get_or_transpile`` is one transpiler call).
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.rows: Dict[str, List[float]] = {}
        self.root_seconds: Dict[str, float] = {}
        self.counters: Dict[str, float] = {}
        self.active = True
        self._local = threading.local()
        self._lock = threading.Lock()
        self._anchor: Optional[List[_Frame]] = None

    def _stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, row: str) -> Optional[_Frame]:
        """Open a frame; ``None`` when the call folds into an open same-layer frame."""
        if not self.active:
            return None
        stack = self._stack()
        if stack:
            parent: Optional[_Frame] = stack[-1]
            if parent.row.split(".", 1)[0] == row.split(".", 1)[0]:
                return None
        else:
            with self._lock:
                anchor = self._anchor
                if anchor:
                    parent = anchor[-1]
                else:
                    parent = None
                    self._anchor = stack
        frame = _Frame(row, self.clock(), parent)
        stack.append(frame)
        return frame

    def exit(self, frame: _Frame) -> None:
        duration = self.clock() - frame.start
        stack = self._stack()
        stack.pop()
        with self._lock:
            entry = self.rows.setdefault(frame.row, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - frame.child
            if frame.parent is not None:
                frame.parent.child += duration
            else:
                self.root_seconds[frame.row] = self.root_seconds.get(frame.row, 0.0) + duration
            if not stack and self._anchor is stack:
                self._anchor = None

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0.0) + amount

    def snapshot(self) -> Dict[str, Any]:
        """Rows as ``{row: {"count", "total_s", "self_s"}}`` plus roots and counters."""
        with self._lock:
            return {
                "rows": {
                    row: {"count": int(c), "total_s": t, "self_s": s}
                    for row, (c, t, s) in sorted(self.rows.items())
                },
                "roots": dict(self.root_seconds),
                "counters": dict(self.counters),
            }

    def _after_fork_in_child(self) -> None:
        # A forked worker inherits this object mid-call; its numbers would be
        # lost with the process, so it records nothing (worker-side figures
        # come from the engine stats the worker ships back).
        self.active = False
        self._lock = threading.Lock()


def _wrap(recorder: Recorder, row: str, fn: Callable,
          when: Optional[Callable] = None, after: Optional[Callable] = None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if when is not None and not when(args):
            return fn(*args, **kwargs)
        frame = recorder.enter(row)
        if frame is None:
            return fn(*args, **kwargs)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.exit(frame)
        if after is not None:
            after(recorder, result, args)
        return result

    return wrapper


def _not_built(args: Tuple) -> bool:
    # Benchmark.circuits() builds on the first call per instance only.
    return getattr(args[0], "_circuits_cache", None) is None


def _count_evaluations(recorder: Recorder, result: Any, args: Tuple) -> None:
    recorder.count("optimize.evaluations", getattr(result, "evaluations", 0))


def _count_variants(recorder: Recorder, result: Any, args: Tuple) -> None:
    recorder.count("mitigation.variants", len(result))


def _count_store_get(recorder: Recorder, result: Any, args: Tuple) -> None:
    recorder.count("store.hits" if result is not None else "store.misses")


def _subclasses(base: type) -> List[type]:
    found, todo = [], [base]
    while todo:
        cls = todo.pop()
        found.append(cls)
        todo.extend(cls.__subclasses__())
    return found


class LayerProbes:
    """Installs and removes recorder wrappers around every layer's public calls."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._patched: List[Tuple[Any, str, Any]] = []
        os.register_at_fork(after_in_child=recorder._after_fork_in_child)

    def _targets(self) -> List[Tuple[str, Any, str, Dict[str, Any]]]:
        """(row, owner, attribute, wrapper options) for every probed call."""
        from repro.benchmarks import Benchmark
        from repro.execution import ExecutionEngine, backends
        from repro.execution.cache import TranspileCache
        from repro.features import features
        from repro.mitigation.base import Mitigator
        from repro.mitigation.calibration import CalibrationCache
        from repro.optimize import optimizers
        from repro.paulis.pauli import PauliSum
        from repro.store import ResultStore
        from repro.suite import runner
        from repro import distributed
        from repro.telemetry.metrics import MetricsRegistry

        targets = [
            ("benchmarks.build", Benchmark, "circuits", {"when": _not_built}),
            ("paulis.expectation", PauliSum, "expectation_from_statevector", {}),
            ("optimize.nelder_mead", optimizers, "minimize_nelder_mead",
             {"after": _count_evaluations}),
            ("features.compute", features, "compute_features", {}),
            ("features.typical", features, "typical_features", {}),
            ("transpiler.get_or_transpile", TranspileCache, "get_or_transpile", {}),
            ("transpiler.get_or_transpile_many", TranspileCache, "get_or_transpile_many", {}),
            ("mitigation.calibrate", CalibrationCache, "get_or_compute", {}),
            ("execution.run", ExecutionEngine, "run", {}),
            ("suite.run_scenario", runner, "run_scenario", {}),
            ("store.get", ResultStore, "get", {"after": _count_store_get}),
            ("store.put", ResultStore, "put", {}),
            ("distributed.plan", distributed, "plan_scenario", {}),
            ("distributed.run_leases", distributed, "run_leases", {}),
            ("telemetry.snapshot", MetricsRegistry, "snapshot", {}),
        ]
        for cls in (backends.StatevectorBackend, backends.TrajectoryBackend,
                    backends.DensityMatrixBackend):
            targets.append(("simulation.run_batch", cls, "run_batch", {}))
        for cls in _subclasses(Benchmark):
            if "score" in vars(cls) and not getattr(cls.score, "__isabstractmethod__", False):
                targets.append(("benchmarks.score", cls, "score", {}))
        for cls in _subclasses(Mitigator):
            if "transform" in vars(cls):
                targets.append(("mitigation.transform", cls, "transform",
                                {"after": _count_variants}))
            if "mitigate" in vars(cls) and not getattr(cls.mitigate, "__isabstractmethod__", False):
                targets.append(("mitigation.mitigate", cls, "mitigate", {}))
        return targets

    def install(self) -> None:
        if self._patched:
            return
        for row, owner, attribute, options in self._targets():
            original = getattr(owner, attribute)
            if isinstance(owner, type):
                original = vars(owner)[attribute]
                wrapped = _wrap(self.recorder, row, original, **options)
                self._patch(owner, attribute, original, wrapped)
            else:
                # A module-level function is also bound by name in every
                # module that imported it; patch each of those references.
                wrapped = _wrap(self.recorder, row, original, **options)
                for name, module in list(sys.modules.items()):
                    if not (name == "repro" or name.startswith("repro.")) or module is None:
                        continue
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, original, wrapped)

    def _patch(self, owner: Any, attribute: str, original: Any, wrapped: Any) -> None:
        setattr(owner, attribute, wrapped)
        self._patched.append((owner, attribute, original))

    def remove(self) -> None:
        for owner, attribute, original in reversed(self._patched):
            setattr(owner, attribute, original)
        self._patched.clear()
