"""Extremogram estimator families.

Every family is a ratio estimator: the per-lag estimate is the number of
times a conditioning event at t is followed by a response event at t+h,
divided by the number of conditioning events. ``RatioKernel`` holds the two
indicator sequences for one family. Each family's one public entry point is
its ``*_kernel`` function, which builds one through the same constructor
(each side is the union of one or more series' indicator bits);
``kernel.point_estimates()`` is the estimator. The resample module reuses
kernels to generate bootstrap replicates from the same indicator sequences.

Families:
  univariate        num[h] = #{t <= n-h : X_t/a in A and X_{t+h}/a in B}
  cross             num[h] = #{t <= n-h : X_t/a_x in A and Y_{t+h}/a_y in B}
  tri_union_target  num[h] = #{t : X_t exceeds and (Y_{t+h} or Z_{t+h} exceeds)}
  tri_union_source  num[h] = #{t : (X_t or Y_t exceeds) and Z_{t+h} exceeds}
  return_times      num[h] = #{t : events at t and t+h with none in between}

Numerator sums run to n-h with the denominator over all n observations; no
edge correction is applied. A kernel holds its indicator sequences as
one-byte booleans, and every count it takes is an exact integer: numerators
over the sorted event positions (``RatioKernel.event_counts``), the
denominator and the permutation band's lag-1 pairs with ``count_nonzero``.
No estimator path takes a float dot product, so none depends on BLAS.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

from .core import ExtremalRegion, ThresholdSpec, TimeSeries, indicator_bits
from .errors import InvalidInput, NoExceedances

FAMILY_UNIVARIATE = "univariate"
FAMILY_CROSS = "cross"
FAMILY_TRI_TARGET = "tri_union_target"
FAMILY_TRI_SOURCE = "tri_union_source"
FAMILY_RETURN_TIMES = "return_times"

FAMILIES = (
    FAMILY_UNIVARIATE,
    FAMILY_CROSS,
    FAMILY_TRI_TARGET,
    FAMILY_TRI_SOURCE,
    FAMILY_RETURN_TIMES,
)


@dataclass(frozen=True)
class RatioKernel:
    """One extremogram family recast as a ratio of indicator sums.

    ``cond`` marks conditioning events, ``resp`` response events (the same
    array object for return times and for a univariate kernel with A = B).
    The kernel functions build them, and ``lags``, as read-only arrays, so
    the cached ``denominator`` always counts the ``cond`` the numerators
    see. Boolean or 0/1 integer indicator arrays give the same counts.
    ``numerator_counts_of`` evaluates the family's per-lag numerators on any
    pair of indicator sequences, so the resampling code can recompute the
    estimator on bootstrap replicates of the same sequences.
    """

    family: str
    cond: np.ndarray
    resp: np.ndarray
    lags: np.ndarray
    thresholds: tuple[ThresholdSpec, ...]

    @property
    def n(self) -> int:
        return int(self.cond.size)

    @functools.cached_property
    def denominator(self) -> int:
        """Number of conditioning events, counted once per kernel."""
        count = int(np.count_nonzero(self.cond))
        if count < 1:
            raise InvalidInput("the kernel has no conditioning events")
        return count

    def numerator_counts_of(self, cond: np.ndarray, resp: np.ndarray) -> np.ndarray:
        """Per-lag integer numerator counts of this family's estimator,
        evaluated on the given indicator sequences (the originals or a
        bootstrap replicate of them)."""
        cond_pos = np.flatnonzero(cond)
        resp_pos = cond_pos if resp is cond else np.flatnonzero(resp)
        return self.event_counts(cond_pos, resp_pos, stride=cond.shape[0])[0]

    def event_counts(
        self, cond_pos: np.ndarray, resp_pos: np.ndarray, stride: int, replicates: int = 1
    ) -> np.ndarray:
        """Per-lag integer numerator counts, one row per replicate, from
        sorted event positions.

        Replicate k holds the positions in [k*stride, k*stride + n). With
        stride >= n + max_lag + 1 no lagged pair and no counted gap spans two
        replicates, so several replicates are counted in one pass. Lagged
        pairs come from one searchsorted window [c, c + max_lag] per
        conditioning event; when both sides are the same positions (A = B,
        passed as one array), which are unique, each window starts at the
        event itself. Return times come from the gaps between consecutive
        conditioning events.
        """
        max_lag = int(self.lags[-1])
        if self.family == FAMILY_RETURN_TIMES:
            lag = np.diff(cond_pos)
            near = lag <= max_lag
            first, lag = cond_pos[:-1][near], lag[near]
        else:
            same = resp_pos is cond_pos
            lo = np.arange(cond_pos.size) if same else np.searchsorted(resp_pos, cond_pos)
            size = np.searchsorted(resp_pos, cond_pos + max_lag, side="right") - lo
            first = np.repeat(cond_pos, size)
            lag = resp_pos[concatenated_ranges(lo, size)] - first
        width = max_lag + 1
        key = first // stride * width + lag
        counts = np.bincount(key, minlength=replicates * width).reshape(replicates, width)
        return counts[:, self.lags]

    def numerator_counts(self) -> np.ndarray:
        return self.numerator_counts_of(self.cond, self.resp)

    def point_estimates(self) -> np.ndarray:
        """The family's estimate at each of ``lags``: numerator counts over
        the denominator, so each lies in [0, 1] and return times sum to at
        most 1."""
        return self.numerator_counts() / self.denominator

    def lag_one_value(self, order: np.ndarray) -> float:
        """Lag-1 estimate after jointly reordering both indicator sequences:
        the exact count of conditioning events at t followed by a response
        event at t+1 in the reordered sample, over the denominator. Gathers
        one byte per position, once when both sides are the same array."""
        c = self.cond[order]
        r = c if self.resp is self.cond else self.resp[order]
        return int(np.count_nonzero(c[:-1] & r[1:])) / self.denominator


def concatenated_ranges(start: np.ndarray, size: np.ndarray) -> np.ndarray:
    """start[0], ..., start[0] + size[0] - 1, start[1], ...: the indices of
    the slices [start[i], start[i] + size[i]) laid end to end."""
    skip = np.repeat(start - (np.cumsum(size) - size), size)
    return np.arange(skip.size, dtype=np.int64) + skip


def _build_kernel(
    family: str,
    inputs: list[tuple[TimeSeries, ThresholdSpec]],
    cond: list[tuple[int, ExtremalRegion | None]],
    resp: list[tuple[int, ExtremalRegion | None]] | None,
    max_lag: int,
) -> RatioKernel:
    """The one constructor behind every ``*_kernel`` function.

    ``inputs`` are (series, resolved spec) pairs, one per input series, in
    the order the kernel's ``thresholds`` report them. ``cond`` and ``resp``
    list (input index, region) pairs whose indicator bits are OR-ed into
    that side; a region of None means the spec's own reference region.
    ``resp=None`` makes the conditioning sequence its own response (return
    times, whose lags start at 1). A ``resp`` equal to ``cond`` reuses the
    conditioning bits too. The arrays the kernel holds are read-only.
    """
    n = len(inputs[0][0])
    if any(len(series) != n for series, _ in inputs):
        raise InvalidInput("the input series must have equal length")

    def union(side):
        bits = []
        for i, region in side:
            series, spec = inputs[i]
            region = spec.reference_region() if region is None else region
            bits.append(indicator_bits(series, region, spec))  # rejects unresolved specs
        # in place into the first array (a fresh one), sparing an n-length allocation
        return functools.reduce(operator.ior, bits)

    cond_bits = union(cond)
    resp_bits = cond_bits if resp is None or resp == cond else union(resp)
    min_lag = 1 if resp is None else 0
    max_lag = int(max_lag)
    if max_lag < min_lag:
        raise InvalidInput(f"max_lag must be at least {min_lag}")
    if max_lag >= n:
        raise InvalidInput(f"max_lag must be smaller than the series length {n}")
    if not cond_bits.any():
        q = inputs[cond[0][0]][1].quantile_level
        raise NoExceedances(
            f"no conditioning events at quantile level {q} (n={n}); lower q", q=q, n=n
        )
    lags = np.arange(min_lag, max_lag + 1)
    for array in (cond_bits, resp_bits, lags):
        array.flags.writeable = False
    return RatioKernel(family, cond_bits, resp_bits, lags, tuple(spec for _, spec in inputs))


def univariate_kernel(
    x: TimeSeries,
    region_a: ExtremalRegion,
    region_b: ExtremalRegion,
    spec: ThresholdSpec,
    max_lag: int,
) -> RatioKernel:
    """Conditional probability that X_{t+h} is extreme (in B) given X_t is (in A).

    Lag 0 with A = B is trivially 1.
    """
    return _build_kernel(
        FAMILY_UNIVARIATE, [(x, spec)], [(0, region_a)], [(0, region_b)], max_lag
    )


def cross_kernel(
    x: TimeSeries,
    y: TimeSeries,
    region_a: ExtremalRegion,
    region_b: ExtremalRegion,
    spec_x: ThresholdSpec,
    spec_y: ThresholdSpec,
    max_lag: int,
) -> RatioKernel:
    """Directional extremal dependence: conditioning is always on ``x``.

    Each series is thresholded at its own marginal quantile, so the two
    components may have different scales or tail weights.
    """
    return _build_kernel(
        FAMILY_CROSS, [(x, spec_x), (y, spec_y)], [(0, region_a)], [(1, region_b)], max_lag
    )


def tri_target_kernel(
    x: TimeSeries,
    y: TimeSeries,
    z: TimeSeries,
    spec_x: ThresholdSpec,
    spec_y: ThresholdSpec,
    spec_z: ThresholdSpec,
    max_lag: int,
) -> RatioKernel:
    """P(Y or Z extreme at t+h | X extreme at t), each at its own threshold."""
    return _build_kernel(
        FAMILY_TRI_TARGET, [(x, spec_x), (y, spec_y), (z, spec_z)],
        [(0, None)], [(1, None), (2, None)], max_lag,
    )


def tri_source_kernel(
    x: TimeSeries,
    y: TimeSeries,
    z: TimeSeries,
    spec_x: ThresholdSpec,
    spec_y: ThresholdSpec,
    spec_z: ThresholdSpec,
    max_lag: int,
) -> RatioKernel:
    """P(Z extreme at t+h | X or Y extreme at t), each at its own threshold."""
    return _build_kernel(
        FAMILY_TRI_SOURCE, [(x, spec_x), (y, spec_y), (z, spec_z)],
        [(0, None), (1, None)], [(2, None)], max_lag,
    )


def return_times_kernel(
    x: TimeSeries,
    region_a: ExtremalRegion,
    spec: ThresholdSpec,
    max_lag: int,
) -> RatioKernel:
    """Waiting-time estimates: P(next event exactly h steps after an event).

    Lag 1 counts immediate repeats (no gap to keep clear). Under
    independence the estimates follow ``geometric_pmf`` at the event rate
    (``spec.nominal_rate()`` for the spec's reference region).
    """
    return _build_kernel(FAMILY_RETURN_TIMES, [(x, spec)], [(0, region_a)], None, max_lag)


def geometric_pmf(p: float, lags) -> list[float]:
    """Waiting-time pmf p(1-p)^(h-1) of independent events at rate p, as
    Python floats: the independence reference for return times."""
    if not 0.0 < p < 1.0:
        raise InvalidInput("geometric reference probability must be in (0, 1)")
    return [p * (1.0 - p) ** (int(h) - 1) for h in lags]
