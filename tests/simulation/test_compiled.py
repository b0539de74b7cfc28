"""Compiled parametric evolution: ``compile_statevector`` parity and contract.

The compiled plan must reproduce, bit for bit, a per-gate walk of the
historical ``apply_matrix_reference`` contraction with the same parameter
values bound — for every benchmark family's ansatz and for random circuits
over the whole gate set.  Equality is ``==`` with no tolerance.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.benchmarks import (
    BitCodeBenchmark,
    GHZBenchmark,
    HamiltonianSimulationBenchmark,
    MerminBellBenchmark,
    PhaseCodeBenchmark,
    VanillaQAOABenchmark,
    VQEBenchmark,
    ZZSwapQAOABenchmark,
)
from repro.circuits import Circuit
from repro.circuits.columnar import BARRIER_OP, MEASURE_OP, OP_NAMES
from repro.circuits.gates import GATE_DEFINITIONS, NON_UNITARY_NAMES, Gate
from repro.exceptions import SimulationError
from repro.simulation import compile_statevector, final_statevector
from repro.simulation.kernels import (
    ReferenceContraction,
    apply_matrix_reference,
    qubit_axis,
)

ANGLES = st.floats(min_value=-7.0, max_value=7.0, allow_nan=False, allow_infinity=False)

PURE_STATE_FAMILIES = [
    GHZBenchmark(4),
    MerminBellBenchmark(3),
    HamiltonianSimulationBenchmark(4),
    VQEBenchmark(4, 1),
    VQEBenchmark(3, 2),
    VanillaQAOABenchmark(5),
    ZZSwapQAOABenchmark(5),
]

GATES = [name for name in GATE_DEFINITIONS if name not in NON_UNITARY_NAMES]


def reference_statevector(circuit: Circuit, values) -> np.ndarray:
    """Per-gate ``apply_matrix_reference`` walk with ``values`` bound in row order."""
    n = circuit.num_qubits
    psi = np.zeros(2**n, dtype=complex)
    psi[0] = 1.0
    psi = psi.reshape((2,) * n)
    pool = iter(values)
    for _row, opcode, qubits, params, _clbit in circuit.packed().iter_rows():
        if opcode in (BARRIER_OP, MEASURE_OP):
            continue
        bound = tuple(next(pool) for _ in params)
        matrix = np.asarray(Gate(OP_NAMES[opcode], bound).matrix(), dtype=complex)
        axes = [qubit_axis(q, n) for q in qubits]
        psi = np.ascontiguousarray(apply_matrix_reference(psi, matrix, axes))
    return psi.reshape(-1)


class TestFamilyParity:
    @pytest.mark.parametrize("family", PURE_STATE_FAMILIES, ids=str)
    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_rebinding_matches_reference_walk(self, family, data):
        circuit = family.circuit()
        evolve = compile_statevector(circuit)
        values = data.draw(
            st.lists(ANGLES, min_size=evolve.num_values, max_size=evolve.num_values)
        )
        assert np.array_equal(evolve(values), reference_statevector(circuit, values))

    @pytest.mark.parametrize("family", PURE_STATE_FAMILIES, ids=str)
    def test_own_parameters_match_final_statevector(self, family):
        circuit = family.circuit()
        own = list(circuit.packed().params)
        assert np.array_equal(
            compile_statevector(circuit)(own), reference_statevector(circuit, own)
        )
        assert np.array_equal(final_statevector(circuit), reference_statevector(circuit, own))

    @pytest.mark.parametrize(
        "family", [BitCodeBenchmark(3, 2), PhaseCodeBenchmark(3, 2)], ids=str
    )
    def test_mid_circuit_measurement_families_rejected(self, family):
        with pytest.raises(SimulationError):
            compile_statevector(family.circuit())


@st.composite
def random_circuits(draw):
    n = draw(st.integers(min_value=3, max_value=5))
    circuit = Circuit(n)
    for _ in range(draw(st.integers(min_value=1, max_value=25))):
        name = draw(st.sampled_from(GATES))
        definition = GATE_DEFINITIONS[name]
        qubits = draw(st.permutations(range(n)))[: definition.num_qubits]
        params = [draw(ANGLES) for _ in range(definition.num_params)]
        circuit.add_gate(name, qubits, params)
    return circuit


class TestRandomCircuitParity:
    @given(circuit=random_circuits(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_whole_gate_set(self, circuit, data):
        evolve = compile_statevector(circuit)
        values = data.draw(
            st.lists(ANGLES, min_size=evolve.num_values, max_size=evolve.num_values)
        )
        assert np.array_equal(evolve(values), reference_statevector(circuit, values))

    @given(
        n=st.integers(min_value=1, max_value=6),
        k=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_reference_contraction_is_byte_identical(self, n, k, seed):
        rng = np.random.default_rng(seed)
        k = min(k, n)
        axes = [int(a) for a in rng.permutation(n)[:k]]
        tensor = (rng.normal(size=2**n) + 1j * rng.normal(size=2**n)).reshape((2,) * n)
        matrix = rng.normal(size=(2**k, 2**k)) + 1j * rng.normal(size=(2**k, 2**k))
        expected = np.ascontiguousarray(apply_matrix_reference(tensor, matrix, axes))
        observed = ReferenceContraction.for_axes(axes, n)(tensor, matrix)
        assert observed.flags.c_contiguous
        assert observed.tobytes() == expected.tobytes()


class TestCompiledContract:
    def test_wrong_value_count_rejected(self):
        evolve = compile_statevector(Circuit(2).h(0).rzz(0.3, 0, 1))
        with pytest.raises(SimulationError):
            evolve([0.1, 0.2])

    def test_results_do_not_alias_the_cached_prefix(self):
        circuit = Circuit(2).h(0).h(1).rz(0.4, 0)
        evolve = compile_statevector(circuit)
        first = evolve([0.4])
        first[:] = 0.0
        assert np.array_equal(evolve([0.4]), reference_statevector(circuit, [0.4]))

    def test_initial_state_skips_the_prefix(self):
        circuit = Circuit(1).x(0).rz(0.7, 0)
        initial = np.array([0, 1], dtype=complex)
        expected = final_statevector(Circuit(1).rz(0.7, 0), initial_state=initial[::-1])
        evolve = compile_statevector(circuit)
        evolve([0.7])  # caches the |0> prefix state
        assert np.array_equal(evolve([0.7], initial), expected)

    def test_rebinding_does_not_touch_the_circuit(self):
        circuit = VanillaQAOABenchmark(4).ansatz(0.2, 0.1, measure=False)
        before = circuit.packed().params.copy()
        compile_statevector(circuit)(np.linspace(-1.0, 1.0, len(before)))
        assert np.array_equal(circuit.packed().params, before)
