"""Statistics helpers used across experiments."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "percentile",
    "percentile_or",
    "Summary",
    "summarize",
    "windowed_percentile",
    "size_histogram",
    "throughput_per_minute",
    "SIZE_BUCKET_LABELS",
]


def percentile(values: Sequence[float], p: float) -> float:
    """The p-quantile (p in [0, 1]) of ``values``; NaN when empty.

    The NaN return is a documented sentinel for *rendering* paths
    (charts and tables print it as a gap).  Decision paths — anything
    that compares the result — must use :func:`percentile_or` instead:
    every comparison against NaN is False, so a leaked NaN silently
    takes whichever branch the author happened to write as the
    ``else`` (the hedge-deadline bug class).
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        return float("nan")
    return float(np.quantile(arr, p))


def percentile_or(values: Sequence[float], p: float,
                  default: float | None = None) -> float | None:
    """Like :func:`percentile` but with an explicit empty-sample
    sentinel instead of NaN.

    Returns ``default`` (None unless overridden) when ``values`` is
    empty or the quantile is non-finite, so callers can test
    ``is None`` — a branch NaN cannot silently fall through.
    """
    result = percentile(values, p)
    if not math.isfinite(result):
        return default
    return result


@dataclass(frozen=True)
class Summary:
    """Five-number-ish summary of a sample."""

    count: int
    mean: float
    std: float
    p50: float
    p90: float
    p99: float
    minimum: float
    maximum: float


def summarize(values: Sequence[float]) -> Summary:
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        nan = float("nan")
        return Summary(0, nan, nan, nan, nan, nan, nan, nan)
    return Summary(
        count=int(arr.size),
        mean=float(arr.mean()),
        std=float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
        p50=float(np.quantile(arr, 0.5)),
        p90=float(np.quantile(arr, 0.9)),
        p99=float(np.quantile(arr, 0.99)),
        minimum=float(arr.min()),
        maximum=float(arr.max()),
    )


def windowed_percentile(
    times: Sequence[float],
    values: Sequence[float],
    p: float,
    window_s: float = 60.0,
    start: float | None = None,
    end: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-window p-quantile series (Fig 23's per-minute p99.99 curve).

    Returns (window start times, quantile per window); windows with no
    samples get NaN.
    """
    t = np.asarray(list(times), dtype=float)
    v = np.asarray(list(values), dtype=float)
    if t.size == 0:
        return np.array([]), np.array([])
    lo = t.min() if start is None else start
    hi = t.max() if end is None else end
    edges = np.arange(lo, hi + window_s, window_s)
    starts = edges[:-1]
    out = np.full(starts.size, np.nan)
    idx = np.digitize(t, edges) - 1
    for i in range(starts.size):
        bucket = v[idx == i]
        if bucket.size:
            out[i] = np.quantile(bucket, p)
    return starts, out


#: Decade buckets matching Fig 2's x axis.
SIZE_BUCKET_LABELS = [
    "1B", "10B", "100B", "1KB", "10KB", "100KB",
    "1MB", "10MB", "100MB", "1GB", "10GB", "100GB", "1TB",
]


def size_histogram(sizes: Iterable[int]) -> dict[str, dict[str, float]]:
    """Fig 2: per-decade share of request *count* and of *capacity*.

    Bucket ``10^k`` holds sizes in ``[10^k, 10^(k+1))``; the 1B bucket
    also absorbs anything smaller.
    """
    arr = np.asarray(list(sizes), dtype=float)
    if arr.size == 0:
        return {label: {"count": 0.0, "capacity": 0.0} for label in SIZE_BUCKET_LABELS}
    decades = np.clip(np.floor(np.log10(np.maximum(arr, 1.0))).astype(int),
                      0, len(SIZE_BUCKET_LABELS) - 1)
    total_count = arr.size
    total_bytes = arr.sum()
    out = {}
    for i, label in enumerate(SIZE_BUCKET_LABELS):
        mask = decades == i
        out[label] = {
            "count": float(mask.sum()) / total_count,
            "capacity": float(arr[mask].sum()) / total_bytes,
        }
    return out


def throughput_per_minute(times: Sequence[float],
                          sizes: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Fig 3: bytes written per minute over the trace."""
    t = np.asarray(list(times), dtype=float)
    s = np.asarray(list(sizes), dtype=float)
    if t.size == 0:
        return np.array([]), np.array([])
    minutes = np.floor(t / 60.0).astype(int)
    n = minutes.max() + 1
    out = np.zeros(n)
    np.add.at(out, minutes, s)
    return np.arange(n) * 60.0, out


def fraction_at_or_below(sizes: Iterable[int], threshold: int) -> float:
    """Share of samples ≤ threshold (the paper's \"~80 % ≤ 1 MB\")."""
    arr = np.asarray(list(sizes))
    if arr.size == 0:
        return math.nan
    return float((arr <= threshold).mean())
