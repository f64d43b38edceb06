"""Small statistics helpers for the experiment tables.

Means, sample standard deviations and ranges — enough for the
per-seed summary rows the experiment harness prints, without dragging
in a stats dependency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

__all__ = ["Summary", "summarize"]


@dataclass(frozen=True)
class Summary:
    """Five-number-ish summary of a sample."""

    count: int
    mean: float
    stdev: float
    minimum: float
    maximum: float


def summarize(values: Sequence[float]) -> Summary:
    """Summary statistics of a non-empty sample."""
    vals = [float(v) for v in values]
    if not vals:
        raise ValueError("cannot summarize an empty sample")
    n = len(vals)
    mean = sum(vals) / n
    if n >= 2:
        var = sum((v - mean) ** 2 for v in vals) / (n - 1)
        stdev = math.sqrt(var)
    else:
        stdev = 0.0
    return Summary(
        count=n, mean=mean, stdev=stdev, minimum=min(vals), maximum=max(vals)
    )
