"""Output checks: digests of a scenario pass, pinned at the default seed.

A pass is reduced to one entry per unit: its key and status, the skip
reason, and for a run its scores, feature vector and compiled two-qubit
gate count.  The *structure* digest leaves the scores out; it does not
depend on the seed, so it is checked at every seed.  The *full* digest is
pinned at the default seed and compared across paths (threads, processes,
the service, the store) at any seed.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from typing import Any, Dict, Iterable, List, Mapping

GOLDEN_PATH = pathlib.Path(__file__).with_name("golden.json")


def _entry(outcome: Mapping[str, Any], with_scores: bool) -> Dict[str, Any]:
    run = outcome.get("run") or {}
    entry = {
        "key": outcome["key"],
        "status": outcome["status"],
        "reason": outcome.get("reason", ""),
        "features": run.get("features"),
        "two_qubit_gates": run.get("compiled_two_qubit_gates"),
    }
    if with_scores:
        entry["scores"] = run.get("scores")
    return entry


def digest(outcomes: Iterable[Mapping[str, Any]], with_scores: bool = True) -> str:
    """sha256 over the canonical entries of outcome dicts (``SpecOutcome.as_dict``)."""
    entries = sorted((_entry(o, with_scores) for o in outcomes), key=lambda e: e["key"])
    text = json.dumps(entries, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def summarize(outcomes: List[Mapping[str, Any]]) -> Dict[str, Any]:
    """Everything a pass is checked on, from its outcome dicts."""
    skips = sorted(o["key"] for o in outcomes if o["status"] != "ok")
    return {
        "digest": digest(outcomes),
        "structure": digest(outcomes, with_scores=False),
        "runs": len(outcomes) - len(skips),
        "skip_keys": skips,
    }


def load_golden() -> Dict[str, Any]:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def compare(summary: Mapping[str, Any], expected: Mapping[str, Any], seed: int,
            default_seed: int) -> List[str]:
    """Differences between a pass summary and its golden entry (empty = pass)."""
    problems = []
    for field in ("structure", "runs", "skip_keys"):
        if summary[field] != expected[field]:
            problems.append(f"{field} differs from golden")
    if seed == default_seed and summary["digest"] != expected["digest"]:
        problems.append("score digest differs from golden at the default seed")
    return problems
