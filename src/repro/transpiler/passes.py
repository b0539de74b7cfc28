"""Transpiler passes: the composable units of the compilation pipeline.

A pass is a small object with a :meth:`BasePass.run` method taking the
current circuit and a shared :class:`PropertySet`.  Two kinds exist:

* **Analysis passes** (:class:`AnalysisPass`) inspect the circuit and write
  results into the property set (layouts, metrics) without changing it.
* **Transformation passes** (:class:`TransformationPass`) return a rewritten
  circuit (decomposition, optimization, routing, basis translation).

The six historical pipeline stages are expressed here as individual passes,
alongside two passes the monolithic pipeline never had:
:class:`CommutingTwoQubitCancellation` (cancel ``cx``/``cz`` pairs separated
only by gates that commute through them) and :class:`DepthAnalysis` (depth /
critical-path metrics fed into
:class:`~repro.transpiler.transpile.TranspiledCircuit`).

Pipelines are assembled by :class:`~repro.transpiler.passmanager.PassManager`
(usually via :func:`~repro.transpiler.presets.preset_pipeline`).
"""

from __future__ import annotations

from typing import Tuple

from ..circuits import Circuit
from ..circuits.columnar import PackedCircuit
from ..devices import Device
from ..exceptions import TranspilerError
from ..features.features import packed_profile
from .decomposition import basis_for_gates, decompose_to_canonical, translate_to_basis
from .optimization import (
    cancel_adjacent_inverses_packed,
    commuting_cancellation_packed,
    drop_negligible_packed,
    fuse_single_qubit_runs_packed,
    merge_rotations_packed,
)
from .placement import Placement, noise_aware_placement, trivial_placement
from .routing import route_circuit

__all__ = [
    "PropertySet",
    "BasePass",
    "AnalysisPass",
    "TransformationPass",
    "DecomposeToCanonical",
    "DropNegligible",
    "MergeRotations",
    "CancelAdjacentInverses",
    "FuseSingleQubitRuns",
    "CommutingTwoQubitCancellation",
    "SetLayout",
    "TrivialLayout",
    "NoiseAwareLayout",
    "RoutingPass",
    "BasisTranslation",
    "DepthAnalysis",
]


class PropertySet(dict):
    """Shared state threaded through a pipeline run.

    A plain dict with a stable identity: analysis passes write entries
    (``"layout"``, ``"initial_layout"``, ``"final_layout"``, ``"swap_count"``,
    ``"metrics"``), transformation passes may read them, and the pass manager
    records its per-pass timing under ``"pass_records"``.
    """


class BasePass:
    """Base class every pass derives from.

    Attributes:
        is_analysis: True for analysis passes (must not modify the circuit).
        packed: The circuit form :meth:`run` takes and returns — a
            :class:`~repro.circuits.columnar.PackedCircuit` when True, a
            :class:`~repro.circuits.Circuit` otherwise.  The pass manager
            converts between the forms where consecutive passes differ
            (see ``docs/transpiler.md``, "circuit forms").
    """

    is_analysis = False
    packed = False

    @property
    def name(self) -> str:
        """Stable machine-readable pass name (snake_case class name)."""
        out = []
        for char in type(self).__name__:
            if char.isupper() and out:
                out.append("_")
            out.append(char.lower())
        return "".join(out)

    def signature(self) -> Tuple:
        """Hashable configuration tuple; part of the pipeline fingerprint.

        Two pass instances with equal ``(name, signature())`` must behave
        identically on every circuit — the transpile cache relies on it.
        """
        return ()

    def fingerprint_token(self) -> str:
        """Stable string identifying this pass inside a pipeline fingerprint."""
        return f"{self.name}{self.signature()!r}"

    def run(self, circuit, property_set: PropertySet):
        """Execute the pass; return the (possibly rewritten) circuit.

        ``circuit`` is in the form the class's :attr:`packed` flag names, and
        the result is in the same form.
        """
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}{self.signature()!r}"


class AnalysisPass(BasePass):
    """A pass that inspects the circuit and writes to the property set."""

    is_analysis = True


class TransformationPass(BasePass):
    """A pass that returns a rewritten circuit."""


# ---------------------------------------------------------------------------
# stage 1: canonical decomposition
# ---------------------------------------------------------------------------


class DecomposeToCanonical(TransformationPass):
    """Rewrite every gate into the canonical ``{u, cx}`` set."""

    def run(self, circuit: Circuit, property_set: PropertySet) -> Circuit:
        return decompose_to_canonical(circuit)


# ---------------------------------------------------------------------------
# stage 2 / 6: optimization passes
# ---------------------------------------------------------------------------


class DropNegligible(TransformationPass):
    """Remove identity gates and numerically-zero rotations."""

    packed = True

    def run(self, packed: PackedCircuit, property_set: PropertySet) -> PackedCircuit:
        return drop_negligible_packed(packed)


class MergeRotations(TransformationPass):
    """Combine adjacent same-axis rotations on the same qubits."""

    packed = True

    def run(self, packed: PackedCircuit, property_set: PropertySet) -> PackedCircuit:
        return merge_rotations_packed(packed)


class CancelAdjacentInverses(TransformationPass):
    """Remove back-to-back mutually-inverse gate pairs (to a fixed point)."""

    packed = True

    def run(self, packed: PackedCircuit, property_set: PropertySet) -> PackedCircuit:
        return cancel_adjacent_inverses_packed(packed)


class FuseSingleQubitRuns(TransformationPass):
    """Collapse maximal single-qubit runs into one ``u`` gate."""

    packed = True

    def run(self, packed: PackedCircuit, property_set: PropertySet) -> PackedCircuit:
        return fuse_single_qubit_runs_packed(packed)


class CommutingTwoQubitCancellation(TransformationPass):
    """Cancel ``cx``/``cz`` pairs separated only by commuting gates.

    :class:`CancelAdjacentInverses` only removes *strictly* adjacent pairs.
    This pass additionally cancels two equal two-qubit gates when every
    intervening operation on their qubits commutes through them gate-by-gate:

    * on a CX control / either CZ operand: Z-diagonal gates
      (``rz z s sdg t tdg p``),
    * on a CX target: X-axis gates (``rx x sx sxdg``).

    Any other operation touching either qubit (including barriers, measures
    and other multi-qubit gates) blocks the cancellation.  Iterated to a
    fixed point.  Not part of preset levels 0–2 (which reproduce the
    historical pipeline exactly); level 3 enables it.
    """

    packed = True

    def run(self, packed: PackedCircuit, property_set: PropertySet) -> PackedCircuit:
        return commuting_cancellation_packed(packed)


# ---------------------------------------------------------------------------
# stage 3: placement (layout selection)
# ---------------------------------------------------------------------------


class SetLayout(AnalysisPass):
    """Record a user-supplied logical -> physical layout in the property set."""

    def __init__(self, layout: Placement) -> None:
        self.layout = dict(layout)

    def signature(self) -> Tuple:
        return tuple(sorted(self.layout.items()))

    def run(self, circuit: Circuit, property_set: PropertySet) -> Circuit:
        property_set["layout"] = dict(self.layout)
        return circuit


class TrivialLayout(AnalysisPass):
    """Identity placement: logical qubit ``i`` -> physical qubit ``i``."""

    def __init__(self, device: Device) -> None:
        self.device = device

    def signature(self) -> Tuple:
        return (self.device.name,)

    def run(self, circuit: Circuit, property_set: PropertySet) -> Circuit:
        property_set["layout"] = trivial_placement(circuit, self.device)
        return circuit


class NoiseAwareLayout(AnalysisPass):
    """Connectivity-aware greedy placement (the historical default)."""

    def __init__(self, device: Device) -> None:
        self.device = device

    def signature(self) -> Tuple:
        return (self.device.name,)

    def run(self, circuit: Circuit, property_set: PropertySet) -> Circuit:
        property_set["layout"] = noise_aware_placement(circuit, self.device)
        return circuit


# ---------------------------------------------------------------------------
# stage 4: routing
# ---------------------------------------------------------------------------


class RoutingPass(TransformationPass):
    """Insert SWAPs so every two-qubit gate acts on coupled physical qubits.

    Reads ``property_set["layout"]`` (written by a layout pass) and records
    ``initial_layout``, ``final_layout`` and ``swap_count``.
    """

    def __init__(self, device: Device) -> None:
        self.device = device

    def signature(self) -> Tuple:
        return (self.device.name,)

    def run(self, circuit: Circuit, property_set: PropertySet) -> Circuit:
        layout = property_set.get("layout")
        if layout is None:
            raise TranspilerError(
                "routing requires a layout; add a layout pass "
                "(TrivialLayout / NoiseAwareLayout / SetLayout) before RoutingPass"
            )
        routed = route_circuit(circuit, self.device, layout)
        property_set["initial_layout"] = routed.initial_layout
        property_set["final_layout"] = routed.final_layout
        property_set["swap_count"] = routed.swap_count
        return routed.circuit


# ---------------------------------------------------------------------------
# stage 5: native basis translation
# ---------------------------------------------------------------------------


class BasisTranslation(TransformationPass):
    """Translate the circuit to a device's native basis."""

    def __init__(self, device: Device) -> None:
        self.device = device
        self.basis = basis_for_gates(device.basis_gates)

    def signature(self) -> Tuple:
        return (self.basis,)

    def run(self, circuit: Circuit, property_set: PropertySet) -> Circuit:
        return translate_to_basis(circuit, self.basis)


# ---------------------------------------------------------------------------
# analysis: depth / critical path metrics
# ---------------------------------------------------------------------------


class DepthAnalysis(AnalysisPass):
    """Record size, depth and critical-path metrics of the current circuit.

    Writes ``property_set["metrics"]`` with:

    * ``gate_count`` — operations excluding barriers,
    * ``two_qubit_gates`` — multi-qubit unitaries,
    * ``depth`` — moment (layer) count,
    * ``critical_path_length`` — longest dependent-operation chain in the DAG,
    * ``critical_two_qubit_gates`` — two-qubit gates on that chain (the
      numerator of the paper's Critical-Depth feature).
    """

    packed = True

    def run(self, packed: PackedCircuit, property_set: PropertySet) -> PackedCircuit:
        # One packed-profile pass supplies every metric (bit-identical to the
        # former two_qubit_critical_path / depth / counter queries, asserted
        # by the transpile goldens).
        profile = packed_profile(packed)
        metrics = property_set.setdefault("metrics", {})
        metrics.update(
            {
                "gate_count": profile.total_operations,
                "two_qubit_gates": profile.two_qubit_operations,
                "depth": profile.depth,
                "critical_path_length": profile.critical_length,
                "critical_two_qubit_gates": profile.critical_two_qubit,
            }
        )
        return packed


class InteractionAnalysis(AnalysisPass):
    """Record interaction-graph metrics from the packed circuit form.

    Writes ``property_set["metrics"]`` with:

    * ``interaction_edges`` — distinct interacting qubit pairs,
    * ``interaction_density`` — the edges normalised by the complete graph
      (the paper's Program Communication numerator over ``n(n-1)/2``),
    * ``qubit_touches`` — total qubit-moment activity (the liveness
      numerator).
    """

    packed = True

    def run(self, packed: PackedCircuit, property_set: PropertySet) -> PackedCircuit:
        profile = packed_profile(packed)
        n = profile.num_qubits
        possible = n * (n - 1) // 2
        metrics = property_set.setdefault("metrics", {})
        metrics.update(
            {
                "interaction_edges": profile.interaction_edges,
                "interaction_density": (
                    profile.interaction_edges / possible if possible else 0.0
                ),
                "qubit_touches": profile.qubit_touches,
            }
        )
        return packed
