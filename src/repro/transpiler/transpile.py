"""The transpilation entry point: circuit + device -> executable circuit.

This plays the role the cloud compilers (and the SuperstaQ write-once-
target-all layer) play in the paper: the benchmarks are specified once at the
OpenQASM level and the pipeline lowers them to each device's native gates,
qubits and connectivity, applying only the Closed Division optimizations.

:func:`transpile` is a thin wrapper over the pass-manager architecture: it
builds the device's preset pipeline
(:func:`~repro.transpiler.presets.preset_pipeline`) — or accepts a custom
:class:`~repro.transpiler.passmanager.PassManager` — runs it, and packages
the result (circuit, layouts, SWAP count, depth/critical-path metrics and
per-pass timing records) into a :class:`TranspiledCircuit`.  At the preset
optimization levels 0–2 the output is gate-for-gate identical to the
historical monolithic pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from ..circuits import Circuit
from ..devices import Device
from ..exceptions import TranspilerError
from .passes import PropertySet
from .passmanager import PassManager, PassRecord
from .placement import Placement
from .presets import preset_pipeline

__all__ = ["TranspiledCircuit", "transpile"]


@dataclass
class TranspiledCircuit:
    """Output of :func:`transpile`.

    Attributes:
        circuit: The compiled circuit over the device's physical qubits.
        device: The target device.
        initial_layout: logical -> physical qubit mapping used at circuit start.
        final_layout: logical -> physical mapping after routing.
        swap_count: Number of SWAPs the router inserted.
        logical_circuit: The original (pre-compilation) circuit.
        metrics: Compiled-circuit metrics recorded by the pipeline's
            :class:`~repro.transpiler.passes.DepthAnalysis` pass (depth,
            gate counts, critical path); empty when the pipeline ran none.
        pass_records: Per-pass timing and gate-count records of the pipeline
            run that produced this circuit.
        pipeline_fingerprint: Stable fingerprint of the pipeline that was run.
    """

    circuit: Circuit
    device: Device
    initial_layout: Placement
    final_layout: Placement
    swap_count: int
    logical_circuit: Circuit
    metrics: Dict[str, int] = field(default_factory=dict)
    pass_records: Tuple[PassRecord, ...] = ()
    pipeline_fingerprint: str = ""

    def active_physical_qubits(self) -> Tuple[int, ...]:
        """Physical qubits actually used by the compiled circuit."""
        return self.circuit.active_qubits()

    def compact(self) -> Tuple[Circuit, Tuple[int, ...]]:
        """Relabel the active physical qubits to ``0..k-1`` for simulation.

        Returns the compacted circuit and the tuple of physical qubits it
        corresponds to (``physical_qubits[i]`` is compact qubit ``i``), which
        is what :meth:`repro.devices.Device.noise_model` needs to build a
        matching noise model.
        """
        physical = self.active_physical_qubits()
        if not physical:
            raise TranspilerError("compiled circuit touches no qubits")
        mapping = {p: i for i, p in enumerate(physical)}
        compacted = Circuit(len(physical), self.circuit.num_clbits, self.circuit.name)
        for instruction in self.circuit:
            if instruction.is_barrier():
                compacted.barrier(*(mapping[q] for q in instruction.qubits if q in mapping))
                continue
            compacted.append(instruction.remap(mapping))
        return compacted, physical

    def two_qubit_gate_count(self) -> int:
        # Always computed from the final circuit: `metrics` is the record of
        # where the pipeline's DepthAnalysis ran, which a custom pipeline may
        # place before its last transformation.
        return self.circuit.num_two_qubit_gates()

    def depth(self) -> int:
        return self.circuit.depth()


def transpile(
    circuit: Circuit,
    device: Device,
    optimization_level: int = 1,
    placement: str = "noise_aware",
    initial_layout: Placement | None = None,
    pass_manager: PassManager | None = None,
) -> TranspiledCircuit:
    """Compile a logical circuit for a device.

    Args:
        circuit: The logical circuit (any supported gates).
        device: Target device from :mod:`repro.devices`.
        optimization_level: Preset level 0–3 (see
            :func:`~repro.transpiler.presets.preset_pipeline`).  Negative or
            non-integer values raise :class:`~repro.exceptions.TranspilerError`.
        placement: ``"noise_aware"`` (default) or ``"trivial"``.
        initial_layout: Explicit logical -> physical mapping overriding the
            placement strategy.
        pass_manager: Custom pipeline to run instead of the device preset.
            When given, the preceding three arguments are ignored.

    Returns:
        A :class:`TranspiledCircuit` whose circuit only uses the device's
        native basis gates on coupled qubit pairs (assuming the pipeline
        contains the routing and basis-translation passes, as presets do).
    """
    if circuit.num_qubits > device.num_qubits:
        raise TranspilerError(
            f"{circuit.num_qubits}-qubit circuit does not fit on {device.name} "
            f"({device.num_qubits} qubits)"
        )

    if pass_manager is None:
        pass_manager = preset_pipeline(
            device,
            optimization_level=optimization_level,
            placement=placement,
            initial_layout=initial_layout,
        )

    properties = PropertySet()
    compiled = pass_manager.run(circuit, properties)

    identity = {q: q for q in range(circuit.num_qubits)}
    return TranspiledCircuit(
        circuit=compiled,
        device=device,
        initial_layout=properties.get("initial_layout", identity),
        final_layout=properties.get("final_layout", identity),
        swap_count=properties.get("swap_count", 0),
        logical_circuit=circuit,
        metrics=dict(properties.get("metrics", {})),
        pass_records=properties.get("pass_records", ()),
        pipeline_fingerprint=pass_manager.fingerprint,
    )

