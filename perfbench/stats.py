"""Harness arithmetic: medians, quartiles, tail percentiles, rates.

Everything the benchmark reports goes through these few functions, and
``selftest.py`` pins their behaviour on hand-computed inputs.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Optional, Sequence

#: A tail percentile is only trusted with at least this many samples beyond it.
MIN_BEYOND = 10


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def quartiles(values: Sequence[float]) -> tuple:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if not values:
        raise ValueError("quartiles of no samples")
    if len(values) == 1:
        return (float(values[0]),) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def percentile(values: Sequence[float], pct: float) -> Dict[str, float]:
    """Nearest-rank percentile plus how many samples lie beyond it.

    Returns ``{"value", "n", "beyond", "trusted"}``; ``trusted`` is the
    rule that at least :data:`MIN_BEYOND` samples rank above the reported
    one (so p90 needs 100 samples).
    """
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    beyond = len(ordered) - rank
    return {
        "value": float(ordered[rank - 1]),
        "n": len(ordered),
        "beyond": beyond,
        "trusted": beyond >= MIN_BEYOND,
    }


def trimmed_mean(values: Sequence[float], share: float = 0.1,
                 weights: Optional[Sequence[float]] = None) -> float:
    """(Weighted) mean after dropping the ``floor(share * n)`` lowest and highest values."""
    if not values:
        raise ValueError("trimmed mean of no samples")
    pairs = sorted(zip(values, weights if weights is not None else [1.0] * len(values)))
    cut = int(share * len(pairs))
    kept = pairs[cut:len(pairs) - cut]
    return float(sum(v * w for v, w in kept) / sum(w for _, w in kept))


def error_rate(failed: int, attempted: int) -> float:
    if attempted < 1:
        raise ValueError("error rate needs at least one attempted operation")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside [0, attempted={attempted}]")
    return failed / attempted


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, 0 for an empty base (nothing attempted)."""
    return numerator / denominator if denominator else 0.0
