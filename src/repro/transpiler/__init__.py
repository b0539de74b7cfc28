"""Compiler: a pass-manager pipeline over decomposition, placement, routing
and optimization.

The package is organised in three layers:

* primitive rewrites (:mod:`~repro.transpiler.decomposition`,
  :mod:`~repro.transpiler.placement`, :mod:`~repro.transpiler.routing`) —
  plain circuit -> circuit functions — and the Closed-Division optimizations
  (:mod:`~repro.transpiler.optimization`) over the packed circuit form;
* passes (:mod:`~repro.transpiler.passes`) wrapping each rewrite, run by a
  :class:`PassManager` (:mod:`~repro.transpiler.passmanager`) that threads a
  :class:`PropertySet` through the pipeline and records per-pass metrics;
* presets (:mod:`~repro.transpiler.presets`) assembling the standard
  per-device pipelines, with :func:`transpile` as the one-call entry point.

See ``docs/transpiler.md`` for the architecture walkthrough.
"""

from .decomposition import (
    SUPPORTED_BASES,
    basis_for_gates,
    decompose_to_canonical,
    translate_to_basis,
    zyz_angles,
)
from .passes import (
    AnalysisPass,
    BasePass,
    BasisTranslation,
    CancelAdjacentInverses,
    CommutingTwoQubitCancellation,
    DecomposeToCanonical,
    DepthAnalysis,
    DropNegligible,
    InteractionAnalysis,
    FuseSingleQubitRuns,
    MergeRotations,
    NoiseAwareLayout,
    PropertySet,
    RoutingPass,
    SetLayout,
    TransformationPass,
    TrivialLayout,
)
from .passmanager import PassManager, PassRecord
from .placement import noise_aware_placement, trivial_placement
from .presets import (
    MAX_OPTIMIZATION_LEVEL,
    preset_pipeline,
    register_device_preset,
    unregister_device_preset,
)
from .routing import RoutedCircuit, route_circuit
from .transpile import TranspiledCircuit, transpile

__all__ = [
    "SUPPORTED_BASES",
    "basis_for_gates",
    "decompose_to_canonical",
    "translate_to_basis",
    "zyz_angles",
    "noise_aware_placement",
    "trivial_placement",
    "RoutedCircuit",
    "route_circuit",
    "TranspiledCircuit",
    "transpile",
    # pass-manager architecture
    "BasePass",
    "AnalysisPass",
    "TransformationPass",
    "PropertySet",
    "PassManager",
    "PassRecord",
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
    "InteractionAnalysis",
    "MAX_OPTIMIZATION_LEVEL",
    "preset_pipeline",
    "register_device_preset",
    "unregister_device_preset",
]
