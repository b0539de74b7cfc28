"""Object-walk reference implementations of the optimization passes.

Production compiles every Closed-Division optimization over the packed
(columnar) circuit form (:mod:`repro.transpiler.optimization`).  The
``Instruction``-walking versions below are the original, straightforward
formulation of the same passes; they stay here as oracles that the parity
tests and the transpiler benchmark compare production against, gate for gate.

:func:`reference_pipeline` swaps every packed optimization pass of a
pipeline for its object-walk twin, keeping each pass's name and signature
(so both pipelines share one fingerprint).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.circuits import Circuit, Gate, Instruction
from repro.circuits.gates import ADDITIVE_ROTATIONS, SELF_INVERSE
from repro.transpiler import (
    CancelAdjacentInverses,
    CommutingTwoQubitCancellation,
    DropNegligible,
    FuseSingleQubitRuns,
    MergeRotations,
    PassManager,
    TransformationPass,
)
from repro.transpiler.optimization import _ANGLE_TOLERANCE, _INVERSE_PAIRS
from repro.utils import normalize_angle


def _rebuild(circuit: Circuit, instructions: List[Instruction]) -> Circuit:
    out = Circuit(circuit.num_qubits, circuit.num_clbits, circuit.name)
    for instruction in instructions:
        out.append(instruction)
    return out


def _are_inverse(a: Instruction, b: Instruction) -> bool:
    if a.qubits != b.qubits:
        return False
    if not (a.is_unitary() and b.is_unitary()):
        return False
    if a.name == b.name and a.name in SELF_INVERSE and not a.params:
        return True
    if (a.name, b.name) in _INVERSE_PAIRS:
        return True
    if a.name == b.name and a.name in ADDITIVE_ROTATIONS:
        return abs(normalize_angle(a.params[0] + b.params[0])) < _ANGLE_TOLERANCE
    return False


def cancel_adjacent_inverses(circuit: Circuit) -> Circuit:
    """Remove adjacent mutually-inverse gate pairs until none remain.

    "Adjacent" means no intervening operation touches any of the pair's
    qubits; barriers block cancellation across them.
    """
    instructions = list(circuit)
    changed = True
    while changed:
        changed = False
        result: List[Instruction] = []
        # For every qubit, remember the index (in `result`) of the last op on it.
        last_index: dict[int, int] = {}
        for instruction in instructions:
            if instruction.is_barrier():
                for q in instruction.qubits:
                    last_index[q] = len(result)
                result.append(instruction)
                continue
            candidate: Optional[int] = None
            indices = {last_index.get(q) for q in instruction.qubits}
            if len(indices) == 1 and None not in indices:
                candidate = indices.pop()
            if (
                candidate is not None
                and result[candidate] is not None
                and not result[candidate].is_barrier()
                and _are_inverse(result[candidate], instruction)
            ):
                result[candidate] = None  # type: ignore[call-overload]
                for q in instruction.qubits:
                    del last_index[q]
                changed = True
                continue
            for q in instruction.qubits:
                last_index[q] = len(result)
            result.append(instruction)
        instructions = [instruction for instruction in result if instruction is not None]
    return _rebuild(circuit, instructions)


def merge_rotations(circuit: Circuit) -> Circuit:
    """Combine adjacent rotations of the same type on the same qubits."""
    result: List[Instruction] = []
    last_index: dict[int, int] = {}
    for instruction in circuit:
        if instruction.is_barrier():
            for q in instruction.qubits:
                last_index[q] = len(result)
            result.append(instruction)
            continue
        merged = False
        if instruction.name in ADDITIVE_ROTATIONS:
            indices = {last_index.get(q) for q in instruction.qubits}
            if len(indices) == 1 and None not in indices:
                index = indices.pop()
                previous = result[index]
                if (
                    previous is not None
                    and previous.name == instruction.name
                    and previous.qubits == instruction.qubits
                ):
                    angle = normalize_angle(previous.params[0] + instruction.params[0])
                    if abs(angle) < _ANGLE_TOLERANCE:
                        result[index] = None  # type: ignore[call-overload]
                        for q in instruction.qubits:
                            del last_index[q]
                    else:
                        result[index] = Instruction(
                            Gate(instruction.name, (angle,)), instruction.qubits
                        )
                    merged = True
        if not merged:
            for q in instruction.qubits:
                last_index[q] = len(result)
            result.append(instruction)
    return _rebuild(circuit, [instruction for instruction in result if instruction is not None])


def fuse_single_qubit_runs(circuit: Circuit) -> Circuit:
    """Collapse maximal runs of single-qubit unitaries into one ``u`` gate."""
    from repro.transpiler.decomposition import zyz_angles

    pending: dict[int, np.ndarray] = {}
    result: List[Instruction] = []

    def flush(qubit: int) -> None:
        matrix = pending.pop(qubit, None)
        if matrix is None:
            return
        theta, phi, lam = zyz_angles(matrix)
        if (
            abs(theta) < _ANGLE_TOLERANCE
            and abs(normalize_angle(phi + lam)) < _ANGLE_TOLERANCE
        ):
            return
        result.append(Instruction(Gate("u", (theta, phi, lam)), (qubit,)))

    for instruction in circuit:
        if instruction.is_unitary() and len(instruction.qubits) == 1:
            qubit = instruction.qubits[0]
            matrix = instruction.gate.matrix()
            pending[qubit] = matrix @ pending.get(qubit, np.eye(2, dtype=complex))
            continue
        for qubit in instruction.qubits:
            flush(qubit)
        if instruction.is_barrier() and not instruction.qubits:
            for qubit in list(pending):
                flush(qubit)
        result.append(instruction)
    for qubit in list(pending):
        flush(qubit)
    return _rebuild(circuit, result)


def drop_negligible(circuit: Circuit) -> Circuit:
    """Remove identity gates and rotations with (numerically) zero angle."""
    kept: List[Instruction] = []
    for instruction in circuit:
        if instruction.name == "id":
            continue
        if instruction.name in ADDITIVE_ROTATIONS and abs(
            normalize_angle(instruction.params[0])
        ) < _ANGLE_TOLERANCE:
            continue
        if instruction.name == "u" and all(
            abs(normalize_angle(p)) < _ANGLE_TOLERANCE for p in instruction.params
        ):
            continue
        kept.append(instruction)
    return _rebuild(circuit, kept)


def optimize_circuit(circuit: Circuit, level: int = 1) -> Circuit:
    """Standard optimization pipeline.

    Level 0 returns the circuit untouched.  Level 1 drops negligible gates,
    merges rotations and cancels adjacent inverses.  Level 2 additionally
    fuses single-qubit runs into ``u`` gates (useful before basis
    translation, which re-expands them optimally).
    """
    if level <= 0:
        return circuit.copy()
    out = drop_negligible(circuit)
    out = merge_rotations(out)
    out = cancel_adjacent_inverses(out)
    if level >= 2:
        out = fuse_single_qubit_runs(out)
        out = drop_negligible(out)
        out = cancel_adjacent_inverses(out)
    return out


#: Single-qubit gates diagonal in Z — they commute with a CX control and
#: with both operands of a CZ.
_DIAGONAL_1Q = frozenset({"rz", "z", "s", "sdg", "t", "tdg", "p"})
#: Single-qubit X-axis gates — they commute with a CX target.
_X_AXIS_1Q = frozenset({"rx", "x", "sx", "sxdg"})


def commuting_cancellation(circuit: Circuit) -> Circuit:
    """Cancel ``cx``/``cz`` pairs separated only by commuting gates (fixed point)."""
    instructions = list(circuit)
    changed = True
    while changed:
        instructions, changed = _sweep(instructions)
    return _rebuild(circuit, instructions)


def _pair_key(instruction: Instruction) -> Tuple[str, Tuple[int, ...]]:
    # CZ is symmetric: cz(a, b) cancels cz(b, a).
    if instruction.name == "cz":
        return ("cz", tuple(sorted(instruction.qubits)))
    return (instruction.name, instruction.qubits)


def _sweep(instructions: List[Instruction]) -> Tuple[List[Instruction], bool]:
    result: List[Optional[Instruction]] = []
    # Open cancellation candidates: pair key -> index in `result`.
    open_pairs: Dict[Tuple[str, Tuple[int, ...]], int] = {}
    changed = False

    def invalidate(qubits: Tuple[int, ...]) -> None:
        for key in list(open_pairs):
            if not qubits or any(q in key[1] for q in qubits):
                del open_pairs[key]

    for instruction in instructions:
        if instruction.is_barrier():
            # A qubit-less barrier spans the whole circuit.
            invalidate(instruction.qubits)
            result.append(instruction)
            continue
        if instruction.name in ("cx", "cz") and not instruction.params:
            key = _pair_key(instruction)
            index = open_pairs.get(key)
            if index is not None:
                result[index] = None
                del open_pairs[key]
                changed = True
                continue
            invalidate(instruction.qubits)
            open_pairs[key] = len(result)
            result.append(instruction)
            continue
        if instruction.is_unitary() and len(instruction.qubits) == 1:
            qubit = instruction.qubits[0]
            for key in list(open_pairs):
                gate_name, pair = key
                if qubit not in pair:
                    continue
                if gate_name == "cz":
                    commutes = instruction.name in _DIAGONAL_1Q
                elif qubit == pair[0]:  # cx control
                    commutes = instruction.name in _DIAGONAL_1Q
                else:  # cx target
                    commutes = instruction.name in _X_AXIS_1Q
                if not commutes:
                    del open_pairs[key]
            result.append(instruction)
            continue
        # Measures, resets and other multi-qubit gates block their qubits.
        invalidate(instruction.qubits)
        result.append(instruction)

    return [i for i in result if i is not None], changed


class ReferencePass(TransformationPass):
    """Object-form stand-in for a packed production pass.

    Runs ``function`` over ``Instruction`` objects while reporting the
    production pass's name and signature, so a pipeline keeps its
    fingerprint when its passes are swapped for their twins.
    """

    def __init__(self, production, function) -> None:
        self.production = production
        self.function = function

    @property
    def name(self) -> str:
        return self.production.name

    def signature(self) -> Tuple:
        return self.production.signature()

    def run(self, circuit: Circuit, property_set) -> Circuit:
        return self.function(circuit)


#: Packed production pass -> its object-walk oracle.
REFERENCE_TWINS = {
    DropNegligible: drop_negligible,
    MergeRotations: merge_rotations,
    CancelAdjacentInverses: cancel_adjacent_inverses,
    FuseSingleQubitRuns: fuse_single_qubit_runs,
    CommutingTwoQubitCancellation: commuting_cancellation,
}


def reference_pass(pass_):
    """The object-walk twin of ``pass_`` (``pass_`` itself when it has none)."""
    function = REFERENCE_TWINS.get(type(pass_))
    return pass_ if function is None else ReferencePass(pass_, function)


def reference_pipeline(manager: PassManager) -> PassManager:
    """``manager`` with each packed optimization pass swapped for its twin."""
    return PassManager(reference_pass(pass_) for pass_ in manager)
