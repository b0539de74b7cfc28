"""Packed optimization passes vs their object-walk oracles.

Four concerns:

* **Builder byte-parity** — :class:`~repro.circuits.columnar.PackedBuilder`
  outputs (round-trip, filtered, appended) are byte-identical to packing the
  equivalent instruction sequence from scratch, so circuit fingerprints
  hashed over the buffers can never tell the two construction paths apart.
* **Randomized pass parity** — hypothesis-driven instruction streams flow
  through every production optimization pass (and the full five-pass chain)
  and through its ``reference.py`` twin, and must produce identical gate
  sequences.
* **Preset/family parity** — every preset level compiles the Fig. 2
  benchmark families to the same circuit as the same pipeline with each
  packed pass swapped for its reference twin.
* **Wide rows and reporting** — >3-operand barriers are handled in packed
  form (the wide-pool escape hatch), and :meth:`PassManager.report` / the
  ``transpiler.pass`` spans agree on the passes run and the pack
  conversions paid.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.benchmarks import figure2_benchmarks
from repro.circuits import Circuit, PackedCircuit
from repro.circuits.columnar import PackedBuilder
from repro.devices import get_device
from repro.telemetry import configure_tracing, get_tracer
from repro.transpiler import (
    CancelAdjacentInverses,
    CommutingTwoQubitCancellation,
    DropNegligible,
    FuseSingleQubitRuns,
    MergeRotations,
    PassManager,
    preset_pipeline,
    transpile,
)

from reference import reference_pass, reference_pipeline

DEVICE = "IBM-Guadalupe-16Q"


def _optimization_passes():
    return [
        DropNegligible(),
        MergeRotations(),
        CancelAdjacentInverses(),
        CommutingTwoQubitCancellation(),
        FuseSingleQubitRuns(),
    ]


def _stream(circuit: Circuit):
    return [
        (i.gate.name, i.gate.params, i.qubits, i.clbits) for i in circuit.instructions
    ]


def _random_circuit(num_qubits: int, seed: int) -> Circuit:
    """Optimization-relevant stream: rotations, inverses, cx/cz, barriers."""
    rng = np.random.default_rng(seed)
    circuit = Circuit(num_qubits, num_qubits, name=f"rand{seed}")
    one_q = ["h", "x", "y", "z", "s", "sdg", "t", "tdg", "sx", "sxdg", "i"]
    rotations = ["rx", "ry", "rz", "p"]
    for _ in range(int(rng.integers(5, 90))):
        roll = rng.random()
        if roll < 0.30:
            getattr(circuit, one_q[int(rng.integers(len(one_q)))])(
                int(rng.integers(num_qubits))
            )
        elif roll < 0.55:
            angle = [0.0, 1e-14, 0.3, -0.7, float(rng.uniform(-6, 6))][
                int(rng.integers(5))
            ]
            getattr(circuit, rotations[int(rng.integers(len(rotations)))])(
                angle, int(rng.integers(num_qubits))
            )
        elif roll < 0.78:
            a, b = (int(q) for q in rng.choice(num_qubits, size=2, replace=False))
            (circuit.cx if rng.random() < 0.5 else circuit.cz)(a, b)
        elif roll < 0.84:
            circuit.u(
                float(rng.uniform(-3, 3)),
                float(rng.uniform(-3, 3)),
                float(rng.uniform(-3, 3)),
                int(rng.integers(num_qubits)),
            )
        elif roll < 0.90:
            q = int(rng.integers(num_qubits))
            circuit.measure(q, q)
        elif roll < 0.93:
            circuit.reset(int(rng.integers(num_qubits)))
        else:
            count = int(rng.integers(0, num_qubits + 1))
            operands = rng.choice(num_qubits, size=count, replace=False)
            circuit.barrier(*(int(q) for q in operands))
    return circuit


def _assert_buffers_identical(a: PackedCircuit, b: PackedCircuit) -> None:
    for (label_a, buffer_a), (label_b, buffer_b) in zip(a.buffers(), b.buffers()):
        assert label_a == label_b
        assert buffer_a.dtype == buffer_b.dtype
        assert buffer_a.tobytes() == buffer_b.tobytes(), f"{label_a} buffers differ"


class TestPackedBuilder:
    def test_round_trip_is_byte_identical(self):
        packed = _random_circuit(5, 123).packed()
        _assert_buffers_identical(packed, PackedBuilder.from_packed(packed).build())

    def test_append_matches_fresh_pack(self):
        circuit = _random_circuit(6, 77)
        packed = circuit.packed()
        builder = PackedBuilder(packed.num_qubits, packed.num_clbits, packed.name)
        for _row, opcode, qubits, params, clbit in packed.iter_rows():
            builder.append(opcode, qubits, params, clbit)
        _assert_buffers_identical(packed, builder.build())

    def test_keep_compacts_pools_like_a_fresh_pack(self):
        circuit = Circuit(6, 6, name="widekeep")
        circuit.rx(0.5, 0).barrier(0, 1, 2, 3, 4).rz(0.25, 1)
        circuit.barrier(1, 2, 3, 4, 5).u(0.1, 0.2, 0.3, 2).measure(0, 0)
        packed = circuit.packed()
        mask = np.array([True, False, True, True, False, True])
        filtered = PackedBuilder.from_packed(packed).keep(mask).build()
        survivors = [
            instr for keep, instr in zip(mask, circuit.instructions) if keep
        ]
        reference = Circuit(6, 6, name="widekeep")
        for instruction in survivors:
            reference.append(instruction)
        _assert_buffers_identical(reference.packed(), filtered)

    def test_keep_rejects_appended_rows_and_bad_shapes(self):
        packed = _random_circuit(4, 9).packed()
        builder = PackedBuilder.from_packed(packed)
        with pytest.raises(ValueError):
            builder.keep(np.ones(len(packed) + 1, dtype=bool))
        builder.append(0, (0,))
        with pytest.raises(ValueError):
            builder.keep(np.ones(len(packed), dtype=bool))


class TestRandomizedParity:
    @given(num_qubits=st.integers(2, 6), seed=st.integers(0, 5000))
    @settings(max_examples=60, deadline=None)
    def test_each_pass_matches_object_walk(self, num_qubits, seed):
        circuit = _random_circuit(num_qubits, seed)
        for pass_ in _optimization_passes():
            object_manager = PassManager([reference_pass(pass_)])
            packed_manager = PassManager([pass_])
            assert _stream(object_manager.run(circuit)) == _stream(
                packed_manager.run(circuit)
            ), pass_.name

    @given(num_qubits=st.integers(2, 6), seed=st.integers(0, 5000))
    @settings(max_examples=60, deadline=None)
    def test_full_chain_matches_object_walk(self, num_qubits, seed):
        circuit = _random_circuit(num_qubits, seed)
        packed_manager = PassManager(_optimization_passes())
        object_manager = reference_pipeline(packed_manager)
        assert object_manager.fingerprint == packed_manager.fingerprint
        assert _stream(object_manager.run(circuit)) == _stream(
            packed_manager.run(circuit)
        )


class TestPresetFamilyParity:
    @pytest.mark.parametrize("level", [0, 1, 2, 3])
    def test_every_family_compiles_identically_at_level(self, level):
        device = get_device(DEVICE)
        families = figure2_benchmarks(small=True)
        assert len(families) == 8
        compared = 0
        for instances in families.values():
            benchmark = instances[0]
            circuit = benchmark.circuits()[0]
            if circuit.num_qubits > device.num_qubits:
                continue
            packed_pipeline = preset_pipeline(device, optimization_level=level)
            object_pipeline = reference_pipeline(packed_pipeline)
            assert packed_pipeline.fingerprint == object_pipeline.fingerprint
            fast = transpile(circuit, device, pass_manager=packed_pipeline)
            slow = transpile(circuit, device, pass_manager=object_pipeline)
            assert _stream(fast.circuit) == _stream(slow.circuit)
            assert fast.pipeline_fingerprint == slow.pipeline_fingerprint
            compared += 1
        assert compared >= 6  # every family that fits the 16q device


class TestWideRows:
    def test_wide_barrier_matches_object_walk(self):
        circuit = Circuit(6, name="wide")
        circuit.rz(0.4, 0).rz(0.3, 0)  # merges
        circuit.cx(0, 1).cx(0, 1)  # cancels
        circuit.barrier(0, 1, 2, 3, 4)  # wide row (5 operands > 3 slots)
        circuit.s(2).sdg(2)  # cancels after the barrier
        circuit.h(3).t(3).h(3)  # fuses
        circuit.rz(1e-15, 5)  # drops
        packed_manager = PassManager(_optimization_passes())
        object_manager = reference_pipeline(packed_manager)
        expected = object_manager.run(circuit)
        observed = packed_manager.run(circuit)
        assert _stream(expected) == _stream(observed)

    def test_wide_barrier_blocks_merges_across_it(self):
        circuit = Circuit(5, name="wideblock")
        circuit.rz(0.4, 0)
        circuit.barrier(0, 1, 2, 3, 4)
        circuit.rz(0.3, 0)
        merged = PassManager([MergeRotations()]).run(circuit)
        assert _stream(merged) == _stream(circuit)


class TestReporting:
    def test_report_shows_conversion_counts(self):
        circuit = _random_circuit(5, 42)
        manager = PassManager(_optimization_passes())
        manager.run(circuit)
        report = manager.report()
        assert "pack conversions" in report
        assert f"{manager.last_conversions} pack conversions" in report

    def test_records_and_trace_spans_agree(self):
        tracer = configure_tracing(enabled=True)
        tracer.drain()
        circuit = _random_circuit(5, 43)
        manager = PassManager(_optimization_passes())
        try:
            manager.run(circuit)
            spans = [s for s in tracer.drain() if s.name == "transpiler.pass"]
        finally:
            configure_tracing(enabled=False)
        assert len(spans) == len(manager.last_records)
        by_name = {span.attributes["pass_name"]: span for span in spans}
        for record in manager.last_records:
            assert by_name[record.name].attributes["gates_after"] == record.gates_after

    def test_object_only_pipeline_reports_no_conversions(self):
        circuit = _random_circuit(4, 44)
        manager = reference_pipeline(PassManager(_optimization_passes()))
        manager.run(circuit)
        assert manager.last_conversions == 0
        assert all(record.conversions == 0 for record in manager.last_records)
        assert "0 pack conversions" in manager.report()
