"""Small statistics helpers shared by the benchmark's parts.

Every timing the benchmark reports is a median over repeated
measurements, and every tail latency follows one rule: report the
highest percentile (up to the one asked for) that has at least
``TAIL_BEYOND`` samples beyond it, together with the sample count.
"""

from __future__ import annotations

import math
import re
import statistics
from typing import Dict, List, Optional, Sequence, Tuple

#: Samples that must lie beyond a reported tail percentile.
TAIL_BEYOND = 10

#: A metric or workload name: starts with a letter or digit, at most
#: 64 characters from ``[A-Za-z0-9_.-]``.
NAME_PATTERN = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: A unit: at most 16 characters from ``[A-Za-z0-9_/%.-]``.
UNIT_PATTERN = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def valid_name(name: str) -> bool:
    return NAME_PATTERN.fullmatch(name) is not None


def valid_unit(unit: str) -> bool:
    return UNIT_PATTERN.fullmatch(unit) is not None


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between first and third quartile, as a share of the median."""
    if len(values) < 2:
        return 0.0
    first, __, third = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (third - first) / middle if middle else 0.0


def tail_percentile(
    samples: Sequence[float], wanted: float = 0.99, beyond: int = TAIL_BEYOND
) -> Optional[Tuple[float, float, int]]:
    """``(percentile, value, count)`` of the highest supported tail.

    Uses the nearest-rank definition: the p-th percentile of ``n``
    sorted samples is the one at index ``ceil(p * n) - 1``.  The
    percentile is lowered from ``wanted`` until at least ``beyond``
    samples lie above it; ``None`` when even that cannot be met.
    Infinite samples (failed requests) sort last, so they count as
    beyond any finite limit.
    """
    ordered = sorted(samples)
    count = len(ordered)
    if count < beyond + 1:
        return None
    supported = (count - beyond) / count
    percentile = min(wanted, supported)
    index = max(0, math.ceil(percentile * count) - 1)
    return percentile, ordered[index], count


def percentile_label(percentile: float) -> str:
    """``0.99`` -> ``"p99"``, ``0.975`` -> ``"p97.5"``."""
    text = f"{percentile * 100:.1f}".rstrip("0").rstrip(".")
    return f"p{text}"


def union_length(intervals: List[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    covered = 0.0
    current_start: Optional[float] = None
    current_end = 0.0
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if current_start is None or start > current_end:
            if current_start is not None:
                covered += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_start is not None:
        covered += current_end - current_start
    return covered


def median_of_dicts(rows: Sequence[Dict[str, float]]) -> Dict[str, float]:
    """Per-key median across several metric dicts with the same keys."""
    keys = sorted({key for row in rows for key in row})
    return {key: median([row.get(key, 0.0) for row in rows]) for key in keys}
