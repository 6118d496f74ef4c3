"""Order statistics and the two-result-set comparison rule of the benchmark."""

from __future__ import annotations

import statistics

# percentiles tried for a latency tail, highest first, in tenths of a percent
TAIL_LADDER = (999, 990, 900)


def tail_percentile(n: int) -> float | None:
    """The highest percentile of TAIL_LADDER with at least ten of n samples beyond it."""
    for tenths in TAIL_LADDER:
        if n * (1000 - tenths) >= 10 * 1000:
            return tenths / 10
    return None


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as `statistics.quantiles(values, n=4)` gives them."""
    if len(values) == 1:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Distance between the first and third quartile as a share of the median."""
    q1, med, q3 = quartiles(values)
    if not med:
        return 0.0 if q3 == q1 else float("inf")
    return (q3 - q1) / abs(med)


def compare(parent, change, better: str, bound: float) -> dict:
    """Compare one metric's runs of a parent and a change.

    Runs are paired by position; pairs beyond the shorter side are dropped.
    A gain needs the change to win at least nine tenths of the pairs, ties
    counting for neither, and the medians to differ by more than the parent's
    own quartile distance. A regression is a median worse than the parent's by
    more than `bound` (a share of the parent's median). When either side's
    spread exceeds the bound the result is unresolved, unless every run of the
    change reads better than every run of the parent.
    """
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    pairs = list(zip(parent, change))
    won = sum(1 for p, c in pairs if sign * (c - p) > 0)
    lost = sum(1 for p, c in pairs if sign * (c - p) < 0)
    worse_share = sign * (pm - cm) / abs(pm) if pm else 0.0
    all_better = all(sign * (c - p) > 0 for p in parent for c in change)
    if pairs and won >= 0.9 * len(pairs) and abs(cm - pm) > (p3 - p1):
        status = "gain"
    elif worse_share > bound:
        status = "regressed"
    elif max(spread(parent), spread(change)) > bound and not all_better:
        status = "unresolved"
    else:
        status = "within bound"
    return {
        "parent": (p1, pm, p3),
        "change": (c1, cm, c3),
        "pairs": len(pairs),
        "won": won,
        "lost": lost,
        "worse_share": worse_share,
        "status": status,
    }
