"""Benchmark construction: compiled VQE/QAOA energy evaluation vs the dense oracle.

VQE and QAOA optimise their variational parameters classically before any
circuit runs; every Nelder-Mead step is one noiseless energy evaluation.
This file times one evaluation on two paths:

* **compiled** — what the benchmarks run: the ansatz compiled once per
  instance (``compile_statevector``) and only rebound per evaluation, and the
  matrix-free ``PauliSum.expectation_from_statevector``;
* **oracle** — the dense evaluation it replaced, kept here as the reference:
  rebuild the ansatz circuit, evolve it gate by gate through the strict
  kernels, and take every Pauli term's expectation through its dense
  ``np.kron`` matrix.

Parity is asserted (``==``, no tolerance) on every timed parameter point
before either path is timed, so the speedup can never be bought with a
change in the Nelder-Mead trajectory.  The gate compares speedup ratios
(machine-independent), not absolute seconds; the acceptance floor is 3x.
``REPRO_BENCH_QUICK=1`` reduces timing repeats (CI quick mode).  Regenerate
the committed baseline with::

    PYTHONPATH=src python benchmarks/bench_construction.py --write
"""

from __future__ import annotations

import json
import os
import pathlib
import time
from typing import Dict, List, Sequence

import numpy as np
import pytest

from repro.benchmarks import VanillaQAOABenchmark, VQEBenchmark
from repro.circuits import Circuit
from repro.circuits.columnar import BARRIER_OP, MEASURE_OP
from repro.paulis import PauliSum
from repro.simulation.kernels import apply_kernel, kernel_for_operation, qubit_axis

BASELINE_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_construction.json"
QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")
MODE = "quick" if QUICK else "full"
REGRESSION_TOLERANCE = 0.7

#: Parameter points evaluated per timing repeat.
POINTS = 40
#: Timing repeats per mode (quick mode trades precision for CI latency).
REPEATS = {"full": 9, "quick": 5}

#: Hard acceptance floor: compiled evaluation >= 3x the dense oracle.
SPEEDUP_FLOOR = 3.0

#: The baseline's gate value is the measured speedup capped at this multiple
#: of the floor, absorbing cross-machine ratio variance.  The vqe(4,1) ratio
#: moved between 5x and 10x across runs on one shared 2-vCPU host, so the cap
#: is lower than the other perf gates' 5x.
GATE_CAP_MULTIPLIER = 2.0


def dense_expectation(hamiltonian: PauliSum, state: np.ndarray) -> float:
    """⟨psi|H|psi⟩ through each term's dense ``np.kron`` matrix."""
    num_qubits = int(np.log2(len(state)))
    value = 0.0 + 0.0j
    for term in hamiltonian:
        value += term.coefficient * np.vdot(state, term.pauli.matrix(num_qubits) @ state)
    return float(value.real)


def per_gate_statevector(circuit: Circuit) -> np.ndarray:
    """Strict per-gate evolution, analysing every row's kernel on each call."""
    n = circuit.num_qubits
    psi = np.zeros(2**n, dtype=complex)
    psi[0] = 1.0
    psi = psi.reshape((2,) * n)
    for _row, opcode, qubits, params, _clbit in circuit.packed().iter_rows():
        if opcode in (BARRIER_OP, MEASURE_OP):
            continue
        axes = [qubit_axis(q, n) for q in qubits]
        psi = apply_kernel(psi, kernel_for_operation(opcode, params), axes, strict=True)
    return np.ascontiguousarray(psi).reshape(-1)


def _vqe_paths(benchmark: VQEBenchmark):
    def oracle(parameters: Sequence[float]) -> float:
        state = per_gate_statevector(benchmark.ansatz(parameters))
        return dense_expectation(benchmark.model.hamiltonian(), state)

    return oracle, benchmark._energy_from_statevector, benchmark.num_parameters


def _qaoa_paths(benchmark: VanillaQAOABenchmark):
    def oracle(parameters: Sequence[float]) -> float:
        state = per_gate_statevector(benchmark.ansatz(parameters[0], parameters[1], measure=False))
        return dense_expectation(benchmark._physical_hamiltonian(), state)

    def compiled(parameters: Sequence[float]) -> float:
        return benchmark._ansatz_energy(parameters[0], parameters[1])

    return oracle, compiled, 2


INSTANCES = {
    "vqe(4,1)": lambda: _vqe_paths(VQEBenchmark(4, 1)),
    "vanilla_qaoa(7)": lambda: _qaoa_paths(VanillaQAOABenchmark(7)),
}


def measure_instance(name: str) -> Dict[str, float]:
    """Parity on one set of parameter points, then best-of-N timing of both paths.

    Every timing repeat draws fresh points: a Nelder-Mead step never
    revisits one, and a revisited point would let the oracle skip its
    (cached) per-gate kernel analysis.
    """
    oracle, compiled, num_parameters = INSTANCES[name]()
    rng = np.random.default_rng(2022)

    def draw() -> List[np.ndarray]:
        return [rng.uniform(-np.pi, np.pi, size=num_parameters) for _ in range(POINTS)]

    # Parity first: the compiled path must reproduce the oracle exactly.
    for point in draw():
        expected, observed = oracle(point), compiled(point)
        assert observed == expected, f"{name}: compiled {observed!r} != oracle {expected!r}"

    best = {"oracle": float("inf"), "compiled": float("inf")}
    for _ in range(REPEATS[MODE]):
        points = draw()
        for label, function in (("oracle", oracle), ("compiled", compiled)):
            start = time.perf_counter()
            for point in points:
                function(point)
            best[label] = min(best[label], (time.perf_counter() - start) / len(points))
    return {
        "oracle_ms_per_evaluation": best["oracle"] * 1e3,
        "compiled_ms_per_evaluation": best["compiled"] * 1e3,
        "speedup": best["oracle"] / best["compiled"],
    }


def _baseline() -> Dict[str, Dict[str, float]] | None:
    if not BASELINE_PATH.exists():
        return None
    return json.loads(BASELINE_PATH.read_text()).get("results", {}).get(MODE)


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_compiled_energy_speedup(name):
    result = measure_instance(name)
    print(
        f"\n{name} [{MODE}]: oracle {result['oracle_ms_per_evaluation']:.3f}ms -> compiled "
        f"{result['compiled_ms_per_evaluation']:.3f}ms per evaluation "
        f"({result['speedup']:.1f}x, floor {SPEEDUP_FLOOR}x)"
    )
    assert result["speedup"] >= SPEEDUP_FLOOR, (
        f"{name}: {result['speedup']:.1f}x under floor {SPEEDUP_FLOOR}x"
    )
    committed = (_baseline() or {}).get(name, {}).get("gate_speedup")
    if committed:
        assert result["speedup"] >= REGRESSION_TOLERANCE * committed, (
            f"{name}: {result['speedup']:.1f}x regressed more than "
            f"{(1 - REGRESSION_TOLERANCE):.0%} vs committed gate {committed:.1f}x"
        )


def write_baseline() -> None:
    """Measure both modes and (re)write the committed baseline file."""
    global MODE
    results = {}
    for mode in ("full", "quick"):
        MODE = mode
        results[mode] = {}
        for name in sorted(INSTANCES):
            result = measure_instance(name)
            result["gate_speedup"] = min(result["speedup"], GATE_CAP_MULTIPLIER * SPEEDUP_FLOOR)
            results[mode][name] = result
            print(f"[{mode}] {name} {result['speedup']:.1f}x (gate {result['gate_speedup']:.1f}x)")
    payload = {
        "schema": 1,
        "note": (
            "Committed construction baseline: per-evaluation speedup of the "
            "compiled VQE/QAOA energy over the dense-kron + per-gate rebuild "
            "oracle. Regenerate with `PYTHONPATH=src python "
            "benchmarks/bench_construction.py --write`. The CI gate compares "
            "speedup ratios (machine-independent), not absolute seconds."
        ),
        "results": results,
    }
    BASELINE_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {BASELINE_PATH}")


if __name__ == "__main__":
    import sys

    if "--write" in sys.argv:
        write_baseline()
    else:
        for instance in sorted(INSTANCES):
            print(f"{instance}: {measure_instance(instance)}")
