"""Core data types: time series, extremal regions, thresholds, indicator bits.

All operations here are pure and deterministic, and none modifies its
arguments: every type is a frozen dataclass (a resolved threshold is a new
``ThresholdSpec``) and arrays are frozen after construction, so instances
can be shared across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .errors import DegenerateThreshold, InvalidInput, InvalidState

UPPER = "upper"
LOWER = "lower"
TWO_SIDED = "two_sided"
TAILS = (UPPER, LOWER, TWO_SIDED)


@dataclass(frozen=True)
class TimeSeries:
    """Ordered, finite, real-valued observations with optional timestamp labels.

    Labels are opaque strings carried through computations; they are never
    interpreted. Values are stored in temporal order and never reordered.
    """

    values: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.size == 0:
            raise InvalidInput("a series needs at least one observation")
        if not np.all(np.isfinite(values)):
            raise InvalidInput("series values must be finite (no NaN or infinity)")
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        if self.labels is not None:
            labels = tuple(map(str, self.labels))
            if len(labels) != values.size:
                raise InvalidInput("labels must align one-to-one with values")
            object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class ExtremalRegion:
    """Finite union of disjoint open intervals bounded away from zero.

    Each interval must lie entirely on one side of zero (upper bound < 0 or
    lower bound > 0), which is exactly the condition for the union to be
    contained in {y : |y| > r} for some r > 0. Membership tests are exact
    interval arithmetic with open endpoints.
    """

    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self):
        ivs = tuple((float(lo), float(hi)) for lo, hi in self.intervals)
        if not ivs:
            raise InvalidInput("a region needs at least one interval")
        for lo, hi in ivs:
            if not lo < hi:
                raise InvalidInput(f"degenerate interval ({lo}, {hi})")
            if not (hi < 0.0 or lo > 0.0):
                raise InvalidInput(
                    f"interval ({lo}, {hi}) is not bounded away from zero"
                )
        ordered = sorted(ivs)
        for (_, prev_hi), (lo, _) in zip(ordered, ordered[1:]):
            if lo < prev_hi:
                raise InvalidInput("intervals must be pairwise disjoint")
        object.__setattr__(self, "intervals", ivs)

    def indicator(self, scaled: np.ndarray) -> np.ndarray:
        """Vectorized membership test on already-scaled values (0/1 ints)."""
        hit = np.zeros(scaled.shape, dtype=bool)
        for lo, hi in self.intervals:
            hit |= (scaled > lo) & (scaled < hi)
        return hit.astype(np.int64)


def upper_tail_region() -> ExtremalRegion:
    return ExtremalRegion(((1.0, math.inf),))


def lower_tail_region() -> ExtremalRegion:
    return ExtremalRegion(((-math.inf, -1.0),))


def two_sided_region() -> ExtremalRegion:
    return ExtremalRegion(((-math.inf, -1.0), (1.0, math.inf)))


def quantile_rank(n: int, q: float | Fraction) -> int:
    """1-based rank ceil(n*q) of the lower empirical q-quantile, clamped to 1..n.

    n*q is taken in exact rational arithmetic: a float q is read as its
    shortest decimal form (0.07 as 7/100), a Fraction as itself. Float
    rounding in the product can then never pick the next order statistic
    up, however large n is.
    """
    level = q if isinstance(q, Fraction) else Fraction(repr(float(q)))
    k = math.ceil(level * int(n))
    return min(max(k, 1), int(n))


def empirical_quantile(series, q: float | Fraction) -> float:
    """Lower empirical quantile: the ceil(n*q)-th order statistic.

    No interpolation, so the result is always one of the observations and
    the convention is reproducible bit-for-bit. Permutation-invariant in
    the values.
    """
    values = series.values if isinstance(series, TimeSeries) else np.asarray(series, dtype=float)
    if values.size == 0:
        raise InvalidInput("cannot take a quantile of an empty series")
    if not 0.0 < float(q) < 1.0:
        raise InvalidInput(f"quantile level must be in (0, 1), got {q}")
    k = quantile_rank(values.size, q)
    return float(np.partition(values, k - 1)[k - 1])


def log_returns(prices: TimeSeries) -> TimeSeries:
    """Log-returns ln(p[t+1]/p[t]); labels shift to the later timestamp."""
    if len(prices) < 2:
        raise InvalidInput("need at least two prices to form returns")
    if np.any(prices.values <= 0.0):
        raise InvalidInput("prices must be strictly positive")
    returns = np.diff(np.log(prices.values))
    labels = prices.labels[1:] if prices.labels is not None else None
    return TimeSeries(returns, labels)


@dataclass(frozen=True)
class ThresholdSpec:
    """Quantile-level threshold; ``resolve`` returns a copy with the scale
    computed from data and ``exceedance_count``, the number of observations
    in the reference region at that scale. Specs are immutable.

    tail="upper": the threshold is the q-quantile of the series (must be
    positive) and exceedances are values above it, i.e. X/a > 1.
    tail="lower": q is the low level (e.g. 0.04); the threshold scale is the
    absolute value of the (negative) q-quantile, so X/a in (-inf, -1) picks
    out values below the signed quantile.
    tail="two_sided": q is the per-tail level (q > 0.5); the scale is the
    (2q-1)-quantile of |X|, so |X|/a > 1 has nominal probability 2(1-q).
    """

    quantile_level: float
    tail: str = UPPER
    resolved_threshold: float | None = None
    exceedance_count: int | None = None

    def __post_init__(self):
        q = float(self.quantile_level)
        if not 0.0 < q < 1.0:
            raise InvalidInput(f"quantile level must be in (0, 1), got {q}")
        object.__setattr__(self, "quantile_level", q)
        if self.tail not in TAILS:
            raise InvalidInput(f"unknown tail {self.tail!r}; expected one of {TAILS}")
        if self.tail == TWO_SIDED and q <= 0.5:
            raise InvalidInput("two-sided thresholds need a per-tail level q > 0.5")
        # a negative scale would flip the tail; zero is left to make_indicators
        scale = self.resolved_threshold
        if scale is not None and not (math.isfinite(scale) and scale >= 0.0):
            raise InvalidInput(f"resolved threshold must be a finite scale >= 0, got {scale}")

    @property
    def scale(self) -> float:
        if self.resolved_threshold is None:
            raise InvalidState("threshold has not been resolved on a series")
        return self.resolved_threshold

    def nominal_rate(self) -> float:
        """Exceedance probability of the reference region at the nominal level."""
        if self.tail == UPPER:
            return 1.0 - self.quantile_level
        if self.tail == LOWER:
            return self.quantile_level
        return 2.0 * (1.0 - self.quantile_level)

    def reference_region(self) -> ExtremalRegion:
        """Canonical region on the scaled axis for the spec's tail."""
        if self.tail == UPPER:
            return upper_tail_region()
        if self.tail == LOWER:
            return lower_tail_region()
        return two_sided_region()

    def resolve(self, series: TimeSeries) -> "ThresholdSpec":
        """Return a copy with the threshold scale computed from ``series``."""
        q = self.quantile_level
        if self.tail == UPPER:
            threshold = empirical_quantile(series, q)
            if threshold <= 0.0:
                raise DegenerateThreshold(
                    f"upper-tail {q}-quantile is {threshold}; need a positive threshold"
                )
        elif self.tail == LOWER:
            signed = empirical_quantile(series, q)
            if signed >= 0.0:
                raise DegenerateThreshold(
                    f"lower-tail {q}-quantile is {signed}; need a negative quantile"
                )
            threshold = -signed
        else:
            # the level 2q - 1 in exact arithmetic: 2 * 0.92 - 1 is 0.8400000000000001
            # in floats, which would move the rank up at n = 25, 50, ...
            level = 2 * Fraction(repr(q)) - 1
            threshold = empirical_quantile(np.abs(series.values), level)
            if threshold <= 0.0:
                raise DegenerateThreshold("two-sided threshold on |X| is not positive")
        count = self.reference_region().indicator(series.values / threshold).sum()
        return replace(self, resolved_threshold=float(threshold), exceedance_count=int(count))


def make_indicators(series: TimeSeries, region: ExtremalRegion, spec: ThresholdSpec) -> np.ndarray:
    """0/1 int64 array marking the t with values[t] / scale inside ``region``."""
    scale = spec.scale  # raises InvalidState on an unresolved spec
    if scale == 0.0:
        raise DegenerateThreshold("threshold scale is zero; cannot scale the series")
    return region.indicator(series.values / scale)
