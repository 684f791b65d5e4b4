"""Descriptive statistics for campaign reports."""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence


def kd_ratio(kills: int, deaths_by_others: int, suicides: int) -> float | None:
    """Kills per death, counting suicides as deaths.  None when never killed."""
    total_deaths = deaths_by_others + suicides
    if total_deaths <= 0:
        return None
    return kills / total_deaths


def hit_percentage(hits: float, misses: float) -> float | None:
    """Share of fired shots that caused damage, in percent.  None without shots."""
    shots = hits + misses
    if shots <= 0:
        return None
    return 100.0 * hits / shots


def centred_moving_average(series: Sequence[float], window: int = 11) -> list[float]:
    """Mean over an odd window centred on each index with a full window.

    The result covers indices (window-1)//2 .. len(series)-1-(window-1)//2 of
    the input; shorter inputs yield an empty list.  Each mean adds
    x * (1 / window) left to right, as a convolution with a flat kernel does;
    `sum` is not used because it compensates rounding from Python 3.12 on.
    """
    if window < 1 or window % 2 == 0:
        raise ValueError("window must be odd and >= 1")
    weight = 1.0 / window
    averages = []
    for start in range(len(series) - window + 1):
        total = 0.0
        for x in series[start : start + window]:
            total += x * weight
        averages.append(total)
    return averages


class FieldSummary(NamedTuple):
    mean: float
    std: float
    minimum: float
    maximum: float
    median: float


def summarize_field(values: Sequence[float]) -> FieldSummary:
    """Population statistics; median is the lower middle for even counts.

    `math` rather than `statistics`, whose import (with `fractions` and
    `decimal`) would lengthen every cold start.
    """
    if len(values) == 0:
        raise ValueError("cannot summarize an empty series")
    ordered = sorted(map(float, values))
    n = len(ordered)
    mean = math.fsum(ordered) / n
    return FieldSummary(
        mean=mean,
        std=math.sqrt(math.fsum((x - mean) ** 2 for x in ordered) / n),
        minimum=ordered[0],
        maximum=ordered[-1],
        median=ordered[(n - 1) // 2],
    )
