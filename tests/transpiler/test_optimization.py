"""Tests for the Closed-Division optimization passes.

Every case runs against both the production (packed) pass and its
object-walk oracle in ``reference.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits import Circuit, random_clifford_circuit
from repro.simulation import circuit_unitary
from repro.transpiler import (
    CancelAdjacentInverses,
    DropNegligible,
    FuseSingleQubitRuns,
    MergeRotations,
    PassManager,
)
from repro.utils import equivalent_up_to_global_phase

import reference


def _production(pass_cls):
    return lambda circuit: PassManager([pass_cls()]).run(circuit)


def _production_optimize(circuit: Circuit, level: int = 1) -> Circuit:
    """The passes of ``reference.optimize_circuit``, run by the pass manager."""
    passes = []
    if level >= 1:
        passes += [DropNegligible(), MergeRotations(), CancelAdjacentInverses()]
    if level >= 2:
        passes += [FuseSingleQubitRuns(), DropNegligible(), CancelAdjacentInverses()]
    return PassManager(passes).run(circuit)


def _both(production, oracle):
    return pytest.mark.parametrize(
        "run", [production, oracle], ids=["production", "reference"]
    )


cancellation = _both(_production(CancelAdjacentInverses), reference.cancel_adjacent_inverses)
merging = _both(_production(MergeRotations), reference.merge_rotations)
fusion = _both(_production(FuseSingleQubitRuns), reference.fuse_single_qubit_runs)
dropping = _both(_production(DropNegligible), reference.drop_negligible)
pipeline = _both(_production_optimize, reference.optimize_circuit)


@cancellation
class TestCancellation:
    def test_adjacent_cx_pair_removed(self, run):
        circuit = Circuit(2).cx(0, 1).cx(0, 1)
        assert len(run(circuit)) == 0

    def test_h_pair_removed(self, run):
        circuit = Circuit(1).h(0).h(0).x(0)
        optimized = run(circuit)
        assert [instruction.name for instruction in optimized] == ["x"]

    def test_s_sdg_pair_removed(self, run):
        circuit = Circuit(1).s(0).sdg(0)
        assert len(run(circuit)) == 0

    def test_opposite_rotations_removed(self, run):
        circuit = Circuit(1).rz(0.4, 0).rz(-0.4, 0)
        assert len(run(circuit)) == 0

    def test_intervening_gate_blocks_cancellation(self, run):
        circuit = Circuit(2).cx(0, 1).x(1).cx(0, 1)
        assert len(run(circuit)) == 3

    def test_barrier_blocks_cancellation(self, run):
        circuit = Circuit(1).h(0).barrier().h(0)
        optimized = run(circuit)
        assert optimized.count_ops().get("h", 0) == 2

    def test_cascaded_cancellation(self, run):
        # Removing the inner pair exposes the outer pair.
        circuit = Circuit(2).cx(0, 1).h(1).h(1).cx(0, 1)
        assert len(run(circuit)) == 0

    def test_different_qubits_not_cancelled(self, run):
        circuit = Circuit(3).cx(0, 1).cx(1, 2)
        assert len(run(circuit)) == 2


@merging
class TestRotationMerging:
    def test_adjacent_rz_merged(self, run):
        circuit = Circuit(1).rz(0.25, 0).rz(0.5, 0)
        merged = run(circuit)
        assert len(merged) == 1
        assert merged[0].params[0] == pytest.approx(0.75)

    def test_merge_to_zero_removes_gate(self, run):
        circuit = Circuit(1).rz(0.3, 0).rz(-0.3, 0)
        assert len(run(circuit)) == 0

    def test_two_qubit_rotation_merged(self, run):
        circuit = Circuit(2).rzz(0.2, 0, 1).rzz(0.3, 0, 1)
        merged = run(circuit)
        assert len(merged) == 1
        assert merged[0].params[0] == pytest.approx(0.5)

    def test_different_axes_not_merged(self, run):
        circuit = Circuit(1).rz(0.2, 0).rx(0.3, 0)
        assert len(run(circuit)) == 2


@fusion
class TestFusion:
    def test_single_qubit_run_becomes_one_u(self, run):
        circuit = Circuit(1).h(0).t(0).s(0).rx(0.2, 0)
        fused = run(circuit)
        assert fused.count_ops() == {"u": 1}
        assert equivalent_up_to_global_phase(circuit_unitary(circuit), circuit_unitary(fused))

    def test_identity_run_is_dropped(self, run):
        circuit = Circuit(1).h(0).h(0)
        assert len(run(circuit)) == 0

    def test_two_qubit_gate_breaks_runs(self, run):
        circuit = Circuit(2).h(0).cx(0, 1).h(0)
        fused = run(circuit)
        assert fused.count_ops()["u"] == 2
        assert equivalent_up_to_global_phase(circuit_unitary(circuit), circuit_unitary(fused))


@dropping
class TestDropNegligible:
    def test_identity_and_zero_rotations_removed(self, run):
        circuit = Circuit(1).i(0).rz(0.0, 0).rz(2 * np.pi, 0).x(0)
        cleaned = run(circuit)
        assert [instruction.name for instruction in cleaned] == ["x"]

    def test_zero_u_removed(self, run):
        circuit = Circuit(1).u(0.0, 0.0, 0.0, 0)
        assert len(run(circuit)) == 0


@pipeline
class TestPipeline:
    def test_level_zero_is_identity(self, run):
        circuit = Circuit(1).h(0).h(0)
        assert len(run(circuit, level=0)) == 2

    @pytest.mark.parametrize("level", [1, 2])
    @given(seed=st.integers(0, 100))
    @settings(max_examples=15, deadline=None)
    def test_optimization_preserves_unitary(self, run, level, seed):
        circuit = random_clifford_circuit(3, 25, rng=seed)
        optimized = run(circuit, level=level)
        assert len(optimized) <= len(circuit)
        assert equivalent_up_to_global_phase(
            circuit_unitary(circuit), circuit_unitary(optimized), atol=1e-7
        )

    def test_measurements_survive_optimization(self, run):
        circuit = Circuit(2, 2).h(0).h(0).cx(0, 1).measure_all()
        optimized = run(circuit, level=2)
        assert optimized.num_measurements() == 2
