"""Independent check of a band document against exact integer pair counts.

Nothing here calls the package: thresholds, events and numerators are
recomputed from the ingested series with plain numpy on sorted event
positions, so a defect in the package's kernels or its BLAS-based counting
cannot hide in its own output.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from workloads import CROSS, RETURN_TIMES, TRI_SOURCE, TRI_TARGET, UNIVARIATE, Kind

BAND_HEADER = "lag,estimate,lower,upper,replicate_mean,reference"


class CheckFailed(Exception):
    pass


def event_positions(x: np.ndarray, q: float, tail: str) -> np.ndarray:
    """Sorted positions t with x[t]/a in the tail region.

    a is the ceil(n*q)-th order statistic (its absolute value for the lower
    tail), with n*q taken in exact decimal arithmetic; the region is the
    open interval (1, inf) on the scaled axis, or (-inf, -1).
    """
    k = min(max(math.ceil(Fraction(repr(q)) * x.size), 1), x.size)
    order_stat = float(np.sort(x)[k - 1])
    if tail == "upper":
        return np.flatnonzero(x / order_stat > 1.0)
    return np.flatnonzero(x / -order_stat < -1.0)


def _lagged_pairs(cond: np.ndarray, resp: np.ndarray, lag: int) -> int:
    """#{t : t in cond and t + lag in resp}; t + lag < n holds by construction."""
    return int(np.intersect1d(cond, resp - lag, assume_unique=True).size)


def expected_rows(kind: Kind) -> tuple[list[int], list[int], int, list[float]]:
    """(lags, numerators, denominator, reference) the document must carry."""
    series = kind.series()
    events = [event_positions(x, kind.q, kind.tail) for x in series]
    rate = kind.q if kind.tail == "lower" else 1.0 - kind.q
    if kind.family == UNIVARIATE:
        cond = resp = events[0]
    elif kind.family == CROSS:
        cond, resp = events
    elif kind.family == TRI_TARGET:
        cond, resp = events[0], np.union1d(events[1], events[2])
        rate = 1.0 - (1.0 - rate) ** 2
    elif kind.family == TRI_SOURCE:
        cond, resp = np.union1d(events[0], events[1]), events[2]
    elif kind.family == RETURN_TIMES:
        lags = list(range(1, kind.max_lag + 1))
        gaps = np.diff(events[0])
        nums = [int(np.count_nonzero(gaps == h)) for h in lags]
        ref = [rate * (1.0 - rate) ** (h - 1) for h in lags]
        return lags, nums, int(events[0].size), ref
    else:
        raise ValueError(f"unknown family {kind.family!r}")
    lags = list(range(kind.max_lag + 1))
    nums = [_lagged_pairs(cond, resp, h) for h in lags]
    return lags, nums, int(cond.size), [rate] * len(lags)


def _float(cell: str, what: str) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise CheckFailed(f"{what} {cell!r} is not a number") from None
    if not math.isfinite(value):
        raise CheckFailed(f"{what} {cell!r} is not finite")
    return value


def check_document(text: str, expected: tuple[list[int], list[int], int, list[float]]) -> None:
    """Raise CheckFailed unless ``text`` is the band document ``expected`` describes."""
    lags, nums, denom, ref = expected
    lines = text.splitlines()
    if not lines or lines[0] != BAND_HEADER:
        raise CheckFailed(f"header is {lines[:1]}, expected {BAND_HEADER!r}")
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != len(lags):
        raise CheckFailed(f"{len(rows)} rows, expected {len(lags)}")
    for row, lag, num, reference in zip(rows, lags, nums, ref):
        if len(row) != 6:
            raise CheckFailed(f"row {row} does not have 6 cells")
        if row[0] != str(lag):
            raise CheckFailed(f"lag {row[0]!r}, expected {lag}")
        estimate = _float(row[1], "estimate")
        if estimate != num / denom:
            raise CheckFailed(f"lag {lag}: estimate {estimate!r} != {num}/{denom}")
        lower, upper = _float(row[2], "lower"), _float(row[3], "upper")
        if not lower <= upper:
            raise CheckFailed(f"lag {lag}: band [{lower}, {upper}] is inverted")
        if row[4]:
            _float(row[4], "replicate_mean")
        if not math.isclose(_float(row[5], "reference"), reference, rel_tol=1e-12):
            raise CheckFailed(f"lag {lag}: reference {row[5]}, expected {reference!r}")
