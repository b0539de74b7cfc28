"""Result containers produced by the execution engine.

:class:`BenchmarkRun` lives here so the engine can build it without
importing the experiment drivers (which themselves import the engine);
:mod:`repro.experiments` re-exports it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

__all__ = ["BenchmarkRun"]


@dataclass
class BenchmarkRun:
    """Scores and metadata of one benchmark executed on one device.

    Attributes:
        benchmark: Human-readable benchmark label (includes parameters).
        family: Benchmark family name (``"ghz"``, ``"vqe"``, ...).
        device: Device name.
        scores: Score of each repetition.
        features: The six SupermarQ features of the logical circuit.
        typical: Qubit count, two-qubit gate count and depth of the logical circuit.
        compiled_two_qubit_gates: Two-qubit gates after transpilation.
        compiled_depth: Depth after transpilation.
        swap_count: SWAPs inserted by the router.
        shots: Shots per circuit per repetition.
        backend: Name of the execution backend that produced the scores.
        placement: Placement strategy the circuits were compiled with.
        pipeline: Fingerprint of the transpiler pipeline that compiled the
            circuits (empty for runs predating pipeline-aware caching).
        mitigation: Name of the error-mitigation technique the scores were
            measured with (empty for raw execution).
        seconds: Wall time of the run (compile + all repetitions + scoring),
            measured by the engine; 0.0 for runs predating suite timing.
    """

    benchmark: str
    family: str
    device: str
    scores: List[float]
    features: Dict[str, float]
    typical: Dict[str, float]
    compiled_two_qubit_gates: int
    compiled_depth: int
    swap_count: int
    shots: int
    backend: str = "trajectory"
    placement: str = "noise_aware"
    pipeline: str = ""
    mitigation: str = ""
    seconds: float = 0.0

    @property
    def mean_score(self) -> float:
        return float(np.mean(self.scores))

    @property
    def std_score(self) -> float:
        return float(np.std(self.scores))

    def record(self) -> Dict[str, float]:
        """Flat record (one row) for the correlation analysis of Fig. 3."""
        row: Dict[str, float] = {
            "device": self.device,
            "benchmark": self.benchmark,
            "family": self.family,
            "score": self.mean_score,
            "score_std": self.std_score,
        }
        if self.mitigation:
            row["mitigation"] = self.mitigation
        row.update(self.features)
        row.update(self.typical)
        return row
