"""Descriptive statistics for campaign reports."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

# numpy is imported only by the two functions that compute with it: importing
# the package, reading config and snapshots, and running campaigns and
# evaluations load no third-party module.
if TYPE_CHECKING:
    import numpy as np


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


def centred_moving_average(series: Sequence[float], window: int = 11) -> np.ndarray:
    """Mean over an odd window centred on each index with a full window.

    The result covers indices (window-1)//2 .. len(series)-1-(window-1)//2 of
    the input; shorter inputs yield an empty array.
    """
    import numpy as np

    if window < 1 or window % 2 == 0:
        raise ValueError("window must be odd and >= 1")
    values = np.asarray(series, dtype=float)
    if values.ndim != 1:
        raise ValueError("series must be one-dimensional")
    if values.size < window:
        return np.empty(0)
    kernel = np.full(window, 1.0 / window)
    return np.convolve(values, kernel, mode="valid")


@dataclass(frozen=True)
class FieldSummary:
    mean: float
    std: float
    minimum: float
    maximum: float
    median: float


def summarize_field(values: Sequence[float]) -> FieldSummary:
    """Population statistics; median is the lower middle for even counts."""
    import numpy as np

    if len(values) == 0:
        raise ValueError("cannot summarize an empty series")
    arr = np.asarray(values, dtype=float)
    ordered = np.sort(arr)
    median = float(ordered[(len(ordered) - 1) // 2])
    return FieldSummary(
        mean=float(arr.mean()),
        std=float(arr.std()),
        minimum=float(arr.min()),
        maximum=float(arr.max()),
        median=median,
    )
