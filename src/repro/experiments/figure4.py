"""Figure 4 — example regression: entanglement-ratio vs. score on one device.

The paper illustrates the impact of the error-correction benchmarks on the
feature/performance correlation by plotting IBM-Toronto's scores against the
entanglement-ratio feature with and without the EC benchmarks, reporting R²
for both fits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Tuple, Union

from ..analysis import LinearFit, linear_regression
from ..execution import BenchmarkRun
from ..suite.results import SuiteResult, coerce_runs
from .figure3 import EC_FAMILIES

__all__ = ["Figure4Result", "reproduce_figure4", "render_figure4"]


@dataclass
class Figure4Result:
    """Regression of score against entanglement-ratio for one device.

    Attributes:
        device: Device name.
        points: ``(entanglement_ratio, score, family)`` of every benchmark run.
        fit_with_ec: Linear fit over all points.
        fit_without_ec: Linear fit excluding the error-correction benchmarks.
    """

    device: str
    points: List[Tuple[float, float, str]]
    fit_with_ec: LinearFit
    fit_without_ec: LinearFit


def reproduce_figure4(
    runs: Union[Iterable[BenchmarkRun], SuiteResult],
    device: str = "IBM-Toronto-27Q",
    feature: str = "entanglement_ratio",
) -> Figure4Result:
    """Build the Fig. 4 scatter/regression data for one device."""
    points: List[Tuple[float, float, str]] = []
    for run in coerce_runs(runs):
        if run.device != device:
            continue
        points.append((run.features[feature], run.mean_score, run.family))
    if len(points) < 3:
        raise ValueError(
            f"not enough runs for device {device!r}; run reproduce_figure2 with it included"
        )
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    non_ec = [(x, y) for x, y, family in points if family not in EC_FAMILIES]
    fit_all = linear_regression(xs, ys)
    fit_non_ec = linear_regression([p[0] for p in non_ec], [p[1] for p in non_ec])
    return Figure4Result(
        device=device, points=points, fit_with_ec=fit_all, fit_without_ec=fit_non_ec
    )


def render_figure4(result: Figure4Result) -> str:
    """Human-readable summary of the Fig. 4 regressions."""
    lines = [
        f"{result.device} performance correlation (entanglement-ratio vs score)",
        f"  with EC benchmarks:    R^2 = {result.fit_with_ec.r_squared:.3f}",
        f"  without EC benchmarks: R^2 = {result.fit_without_ec.r_squared:.3f}",
        "  points (feature, score, family):",
    ]
    for x, y, family in sorted(result.points):
        lines.append(f"    {x:.3f}  {y:.3f}  {family}")
    return "\n".join(lines)
