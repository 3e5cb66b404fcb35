"""Percentiles, spreads and conservation ledgers for the benchmark."""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Optional, Sequence, Tuple

#: percentiles a latency tail may be reported at, highest first
TAIL_CANDIDATES = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)
#: samples that must lie beyond a reported tail percentile
MIN_BEYOND = 10


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``p`` percent of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * p / 100.0))
    return ordered[rank - 1]


def samples_beyond(n: int, p: float) -> int:
    """Samples ranked strictly above the nearest-rank ``p``-th
    percentile of ``n`` samples."""
    return n - max(1, math.ceil(n * p / 100.0))


def tail_percentile(n: int) -> Optional[float]:
    """The highest candidate percentile with at least ``MIN_BEYOND``
    samples beyond it, or None when ``n`` is too small for any."""
    for p in TAIL_CANDIDATES:
        if samples_beyond(n, p) >= MIN_BEYOND:
            return p
    return None


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of
    the median (``statistics.quantiles(values, n=4)``)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else math.inf


class Ledger:
    """Conservation checks over counters the program exposes.

    Each rule states that one counter equals the sum of others, e.g.
    ``capture.offered == capture.captured + capture.dropped.capacity``.
    """

    def __init__(self):
        self.counters: Dict[str, int] = {}
        self.rules: List[Tuple[str, str, Tuple[str, ...]]] = []

    def set(self, name: str, value) -> None:
        self.counters[name] = value

    def require(self, rule: str, total: str, *parts: str) -> None:
        self.rules.append((rule, total, parts))

    def violations(self) -> List[str]:
        out = []
        for rule, total, parts in self.rules:
            missing = [n for n in (total, *parts) if n not in self.counters]
            if missing:
                out.append(f"{rule}: no counter {', '.join(missing)}")
                continue
            lhs = self.counters[total]
            rhs = sum(self.counters[n] for n in parts)
            if lhs != rhs:
                out.append(f"{rule}: {total}={lhs} != "
                           f"{' + '.join(parts)}={rhs}")
        return out
