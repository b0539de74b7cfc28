"""The pass manager: run a declared pipeline, record per-pass metrics.

A :class:`PassManager` holds an ordered list of
:class:`~repro.transpiler.passes.BasePass` objects and runs them in sequence
over a circuit, threading one shared
:class:`~repro.transpiler.passes.PropertySet` through the whole pipeline.
Every run records one :class:`PassRecord` per pass (wall-clock time plus
gate-count before/after) into ``property_set["pass_records"]`` and onto
:attr:`PassManager.last_records`; the same timing also feeds the telemetry
layer — a completed ``transpiler.pass`` span and the
``repro_transpiler_pass_seconds`` latency histogram, both labelled with the
pass name.

**Circuit forms.**  Each pass takes one form, named by its
:attr:`~repro.transpiler.passes.BasePass.packed` flag: the columnar
:class:`~repro.circuits.columnar.PackedCircuit` (the vectorized
optimization passes of :mod:`~repro.transpiler.optimization` and the
analysis passes) or the Python object form (decomposition, layout, routing,
basis translation).  The run converts only where the form changes, and
keeps both forms across identity results, so a run of packed passes
round-trips through ``Instruction`` objects at most once; each
:class:`PassRecord` notes how many pack/unpack conversions its boundary
cost.

The :attr:`PassManager.fingerprint` is a stable hash of the pipeline's pass
names and configurations; the execution layer's
:class:`~repro.execution.cache.TranspileCache` keys compiled circuits on it,
so two pipelines that compile differently can never collide in the cache.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..circuits import Circuit
from ..circuits.columnar import BARRIER_OP, PackedCircuit
from ..exceptions import TranspilerError
from ..telemetry import get_metrics, get_tracer
from .passes import BasePass, PropertySet

__all__ = ["PassRecord", "PassManager"]

#: Version salt for pipeline fingerprints; bump when pass semantics change
#: in a way that should invalidate previously cached compilations.
_FINGERPRINT_VERSION = "repro-pipeline-v1"

_PASS_SECONDS = get_metrics().histogram(
    "repro_transpiler_pass_seconds",
    "Wall-clock latency of individual transpiler passes.",
    ("pass_name",),
)


@dataclass(frozen=True)
class PassRecord:
    """Timing and effect of one pass execution.

    Attributes:
        name: Pass name.
        seconds: Wall-clock duration of the pass.
        gates_before: Operation count (barriers excluded) entering the pass.
        gates_after: Operation count leaving the pass.
        analysis: True when the pass was an analysis pass.
        conversions: Pack/unpack conversions performed at this pass's
            boundary to provide the form it consumes (0 when the circuit
            already was in the right form).
    """

    name: str
    seconds: float
    gates_before: int
    gates_after: int
    analysis: bool = False
    conversions: int = 0

    @property
    def gate_delta(self) -> int:
        """Gates removed (negative: added) by the pass."""
        return self.gates_before - self.gates_after

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        kind = "analysis" if self.analysis else "transform"
        text = (
            f"{self.name:<36s} {kind:<9s} "
            f"{self.seconds * 1e3:8.3f} ms  "
            f"{self.gates_before:>5d} -> {self.gates_after:<5d} gates"
        )
        if self.conversions:
            text += f"  [{self.conversions} conv]"
        return text


def _gate_count(form: "Circuit | PackedCircuit") -> int:
    """Operation count excluding barriers, for either circuit form."""
    if isinstance(form, PackedCircuit):
        return int(np.count_nonzero(form.opcodes != BARRIER_OP))
    return form.num_gates()


class PassManager:
    """Runs an ordered pipeline of passes over circuits.

    Args:
        passes: The pipeline, in execution order.  May be empty and extended
            with :meth:`append`.

    A single :class:`PassManager` may be reused across circuits; each
    :meth:`run` gets a fresh property set unless one is passed in.
    :attr:`last_records` holds the records of the most recent run on *this*
    instance (not thread-safe; concurrent callers should read
    ``property_set["pass_records"]`` instead).
    """

    def __init__(self, passes: Iterable[BasePass] = ()) -> None:
        self._passes: List[BasePass] = []
        for pass_ in passes:
            self.append(pass_)
        self.last_records: Tuple[PassRecord, ...] = ()
        #: Total pack/unpack conversions of the most recent run, including
        #: the final unpack when the pipeline ends in packed form.
        self.last_conversions: int = 0

    # ------------------------------------------------------------------
    @property
    def passes(self) -> Tuple[BasePass, ...]:
        return tuple(self._passes)

    def append(self, pass_: BasePass) -> "PassManager":
        """Add a pass to the end of the pipeline (chainable)."""
        if not isinstance(pass_, BasePass):
            raise TranspilerError(
                f"pipeline entries must derive from BasePass, got {type(pass_).__name__}"
            )
        self._passes.append(pass_)
        return self

    def extend(self, passes: Iterable[BasePass]) -> "PassManager":
        for pass_ in passes:
            self.append(pass_)
        return self

    def __len__(self) -> int:
        return len(self._passes)

    def __iter__(self):
        return iter(self._passes)

    # ------------------------------------------------------------------
    @property
    def fingerprint(self) -> str:
        """Stable hash of the pipeline structure and pass configurations.

        Equal fingerprints guarantee identical compilation behaviour (every
        pass contributes its name and
        :meth:`~repro.transpiler.passes.BasePass.signature`), which is what
        lets the transpile cache key on the pipeline instead of on loose
        ``optimization_level`` integers.
        """
        hasher = hashlib.sha1(_FINGERPRINT_VERSION.encode())
        for pass_ in self._passes:
            hasher.update(pass_.fingerprint_token().encode())
            hasher.update(b"|")
        return hasher.hexdigest()

    # ------------------------------------------------------------------
    def run(
        self,
        circuit: Circuit,
        property_set: Optional[PropertySet] = None,
    ) -> Circuit:
        """Run the pipeline over ``circuit`` and return the final circuit.

        Args:
            circuit: Input circuit (never mutated).
            property_set: Shared pipeline state; a fresh
                :class:`~repro.transpiler.passes.PropertySet` is created when
                omitted.  After the run it holds everything analysis passes
                recorded plus ``"pass_records"``.
        """
        properties = property_set if property_set is not None else PropertySet()
        tracer = get_tracer()
        records: List[PassRecord] = []
        # Dual-form state: at least one of (obj, packed) is always live and
        # they describe the same circuit whenever both are set.
        obj: Optional[Circuit] = circuit
        packed: Optional[PackedCircuit] = None
        conversions_total = 0
        for pass_ in self._passes:
            wants_packed = pass_.packed
            conversions = 0
            if wants_packed and packed is None:
                packed = obj.packed()
                conversions += 1
            elif not wants_packed and obj is None:
                obj = packed.unpack()
                conversions += 1
            conversions_total += conversions
            current: "Circuit | PackedCircuit" = packed if wants_packed else obj
            gates_before = _gate_count(current)
            started = time.perf_counter()
            result = pass_.run(current, properties)
            elapsed = time.perf_counter() - started
            if result is None:  # analysis passes may return nothing
                result = current
            if pass_.is_analysis and result is not current:
                raise TranspilerError(
                    f"analysis pass {pass_.name!r} must not replace the circuit"
                )
            if result is not current:
                # A transformation produced a new circuit: the other form is
                # stale.  Identity results (analysis, no-op passes) keep
                # both forms live.
                if wants_packed:
                    packed, obj = result, None
                else:
                    obj, packed = result, None
            gates_after = _gate_count(result)
            records.append(
                PassRecord(
                    name=pass_.name,
                    seconds=elapsed,
                    gates_before=gates_before,
                    gates_after=gates_after,
                    analysis=pass_.is_analysis,
                    conversions=conversions,
                )
            )
            # One timing, three consumers: the PassRecord above, the latency
            # histogram and a completed span, so `repro run --trace` and
            # report() agree.
            _PASS_SECONDS.observe(elapsed, pass_name=pass_.name)
            tracer.emit(
                "transpiler.pass",
                elapsed,
                pass_name=pass_.name,
                gates_before=gates_before,
                gates_after=gates_after,
            )
        if obj is None:
            # Pipeline ended in packed form: one final unpack (the pack is
            # cached on the produced circuit, so fingerprint/feature
            # consumers downstream reuse it for free).
            obj = packed.unpack()
            conversions_total += 1
        record_tuple = tuple(records)
        properties["pass_records"] = record_tuple
        self.last_records = record_tuple
        self.last_conversions = conversions_total
        return obj

    # ------------------------------------------------------------------
    def report(self, records: Optional[Sequence[PassRecord]] = None) -> str:
        """Human-readable per-pass timing table (defaults to the last run).

        Each row names any pack/unpack conversions its boundary performed;
        the trailing summary line totals them.
        """
        rows = records if records is not None else self.last_records
        lines = [str(record) for record in rows]
        total = sum(record.seconds for record in rows)
        lines.append(f"{'total':<36s} {'':<9s} {total * 1e3:8.3f} ms")
        conversions = sum(record.conversions for record in rows)
        if records is None:
            conversions = max(conversions, self.last_conversions)
        lines.append(f"{conversions} pack conversions")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        names = ", ".join(pass_.name for pass_ in self._passes)
        return f"PassManager([{names}])"
