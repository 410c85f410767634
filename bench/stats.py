"""Pure statistics used by the benchmark: percentiles, quartiles, verdicts."""
from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence, Tuple

# Candidate percentiles for a tail figure, highest last.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("no values")
    if not 0.0 <= p <= 100.0:
        raise ValueError("percentile must be in [0, 100]")
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def beyond_count(n: int, p: float) -> int:
    """Samples ranked above the p-th percentile position among n sorted ones."""
    return n - 1 - math.floor((n - 1) * p / 100.0)


def tail_percentile(n: int) -> Optional[float]:
    """Highest ladder percentile with at least MIN_BEYOND samples beyond it.

    None when even the median has fewer than MIN_BEYOND samples above it.
    """
    best = None
    for p in TAIL_LADDER:
        if beyond_count(n, p) >= MIN_BEYOND:
            best = p
    return best


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    xs = list(values)
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def verdict(base: Sequence[float], new: Sequence[float], better: str,
            bound: Optional[float]) -> str:
    """Classify new against base for one metric on one workload.

    improved: new wins at least nine tenths of the paired runs (ties count
    for neither side) and the medians differ by more than base's own
    inter-quartile distance.  no-worse: new's median is within the bound of
    base's median, and base's spread is within the bound (otherwise the
    comparison cannot resolve a change of that size, unless every new run
    beats every base run).  worse: new's median is past the bound and
    base's spread is within it.  unresolved: anything else.
    """
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be lower or higher, got {better!r}")
    if not base or not new:
        raise ValueError("both sides need runs")
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(base, new))
    wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
    q1, base_med, q3 = quartiles(base)
    new_med = quartiles(new)[1]
    gain = sign * (new_med - base_med)
    if pairs and wins >= 0.9 * len(pairs) and gain > (q3 - q1):
        return "improved"
    if bound is None:
        return "unresolved"
    all_better = min(sign * c for c in new) > max(sign * b for b in base)
    spread = (q3 - q1) / abs(base_med) if base_med else math.inf
    if all_better:
        return "no-worse"
    if spread > bound:
        return "unresolved"
    limit = abs(base_med) * bound
    return "no-worse" if -gain <= limit else "worse"


def ratio(base: float, new: float) -> float:
    return new / base if base else math.inf
