"""Stationary bootstrap, closed-form replicate variance, permutation bands.

Replicates are built from blocks with uniform random start positions and
independent geometric lengths, concatenated with circular wrap-around and
truncated to the original length. Band construction never resamples raw
values: a ``RatioKernel``'s indicator sequences are resampled jointly (one
shared block plan per replicate) and the family's estimator is recomputed
on each replicate. Thresholds are never re-resolved; the indicator
sequences already encode them.

A replicate is never built as an n-length sequence. Each block copies a
source interval of the circular sample, so the events it carries are the
kernel's sorted event positions inside that interval, shifted to the
block's place in the replicate; prefix counts of the events on a doubled
axis find them without wrap-around logic. ``materialize`` builds the
literal replicate and is kept as the reference the engine is tested
against.

Replicate i's plan is the one ``draw_block_plan(n, p, spawn_seed(seed, i))``
draws: lengths from substream (child, 0), starts from (child, 1) (see
_rng), so results do not depend on evaluation order. ``bootstrap_bands``
hashes those streams for all replicates in one vectorized pass and checks
the plan invariants once per pass of replicates; it builds no
``SeedSequence`` or ``BlockPlan`` per replicate. ``draw_block_plan`` stays
the literal reference. Once count * n reaches SPLIT_POSITIONS, both band
functions cut their replicates or permutations into contiguous ranges, one
per CPU in ``os.sched_getaffinity(0)`` but none shorter than half of
SPLIT_POSITIONS positions; the caller computes the first range, a forked
child each other one, and the parts join in range order into the
one-process result. Linux only, with no option (``taskset -c 0`` gives one
process); Python >= 3.12 may warn (DeprecationWarning) on a fork while BLAS
threads exist.
"""

from __future__ import annotations

import math
import operator
import os
import pickle
import signal
from dataclasses import dataclass

import numpy as np

from ._rng import child_states, generator, spawn_seeds, substream
from .core import TimeSeries
from .errors import ExtremogramError, InvalidInput, UnstableResample
from .estimators import RatioKernel, concatenated_ranges

METHOD_CENTERED = "centered"
METHOD_QUANTILE = "quantile_of_replicates"
BAND_METHODS = (METHOD_CENTERED, METHOD_QUANTILE)

# replicates may lose every conditioning event; more than this fraction of
# skipped replicates invalidates the band construction
MAX_SKIP_RATE = 0.05

# event positions one bootstrap pass may span: replicates are counted in
# passes of max(1, PASS_POSITIONS // n). Larger passes at n = 1e5 were no
# faster and raised peak memory
PASS_POSITIONS = 2**16

# the most replicates or permutations: more cannot be indexed by numpy
_MAX_COUNT = int(np.iinfo(np.intp).max)

# count * n from which the band functions fork. Each process then gets at
# least half of it: in the sweep the split lost below 2**21 positions a process
SPLIT_POSITIONS = 2**22


def _count(value, low: int, what: str) -> int:
    count = operator.index(value) if isinstance(value, (int, np.integer)) else low - 1
    if not low <= count <= _MAX_COUNT:
        raise InvalidInput(f"need {low} to {_MAX_COUNT} {what}, got {value!r}")
    return count


def _split(count: int, n: int, compute) -> list:
    """``compute(a, b)`` for each range of the split, in range order."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = max(1, min(cpus, count, 2 * count * n // SPLIT_POSITIONS))
    edges = [count * k // workers for k in range(workers + 1)]
    caller, pids, pipes = os.getpid(), [], []
    try:
        for a, b in zip(edges[1:-1], edges[2:]):
            pipes += [open(fd, mode) for fd, mode in zip(os.pipe(), ("rb", "wb"))]
            pid = os.fork()
            if pid == 0:  # the child leaves by os._exit: no atexit handler, no stdio flush
                try:
                    part = compute(a, b)
                except BaseException as exc:  # re-raised in the caller
                    part = exc
                pickle.dump(part, pipes[-1], pickle.HIGHEST_PROTOCOL)
                pipes[-1].close()
                os._exit(0)
            pids.append(pid)
            pipes.pop().close()
        parts = [compute(edges[0], edges[1])]
        for pid, pipe in zip(pids, pipes):
            try:
                parts.append(pickle.load(pipe))
            except Exception as exc:  # the child died, or sent a part that does not load
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                pids.remove(pid)
                how = f"signal {-code}" if code < 0 else f"exit status {code}"
                raise ExtremogramError(f"a worker process sent no readable result "
                                       f"({how}; {type(exc).__name__}: {exc})") from exc
        for part in parts:
            if isinstance(part, BaseException):
                raise part
        return parts
    finally:
        if os.getpid() != caller:  # a child unwinding from anywhere leaves here
            os._exit(1)
        for pipe in pipes:
            pipe.close()
        for pid in pids:  # a child whose part was read, or whose caller is unwinding, is done
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


@dataclass(frozen=True)
class BlockPlan:
    """Realized resampling structure: start positions and block lengths.

    ``starts`` are 1-based positions in 1..n; ``lengths`` are positive, and
    drawn ones are geometric capped at n. The plan covers at least n output
    positions; materializing truncates the final block so the replicate has
    length exactly n.
    """

    starts: np.ndarray
    lengths: np.ndarray
    n: int

    def __post_init__(self):
        starts = np.asarray(self.starts, dtype=np.int64)
        lengths = np.asarray(self.lengths, dtype=np.int64)
        if starts.size != lengths.size or starts.size == 0:
            raise InvalidInput("starts and lengths must be non-empty and aligned")
        _check_plans(starts, lengths, np.array([starts.size]), self.n)
        object.__setattr__(self, "starts", starts)
        object.__setattr__(self, "lengths", lengths)

    def index_array(self) -> np.ndarray:
        """0-based source index for each of the n output positions."""
        lengths = self.lengths
        total = int(lengths.sum())
        first = np.repeat(np.cumsum(lengths) - lengths, lengths)
        start0 = np.repeat(self.starts - 1, lengths)
        offsets = np.arange(total, dtype=np.int64) - first
        return ((start0 + offsets) % self.n)[: self.n]


def _check_plans(starts, lengths, blocks, n: int) -> np.ndarray:
    """Check the ``BlockPlan`` invariants of consecutive plans laid end to
    end, plan k holding the next ``blocks[k]`` (>= 1) entries, and return
    each plan's total length."""
    if starts.min() < 1 or starts.max() > n:
        raise InvalidInput("start positions must lie in 1..n")
    if lengths.min() < 1:
        raise InvalidInput("block lengths must be positive")
    ends = np.cumsum(blocks)
    totals = np.add.reduceat(lengths, ends - blocks)
    if np.any(totals < n) or np.any(totals - lengths[ends - 1] >= n):
        raise InvalidInput("block count must be minimal with total length >= n")
    return totals


def _draw_plan(n: int, p: float, length_rng, start_rng) -> tuple[np.ndarray, np.ndarray]:
    """Starts and lengths of one plan: geometric lengths from ``length_rng``,
    each capped at n, up to the first total >= n, then as many uniform
    starts in 1..n from ``start_rng``. The cap changes no replicate (a block
    is cut to n anyway) and keeps the total from overflowing when a tiny p
    makes ``geometric`` return the int64 maximum."""
    chunk = max(int(math.ceil(1.5 * n * p)) + 16, 16)
    lengths = np.minimum(length_rng.geometric(p, size=chunk), n)  # int64
    ends = lengths.cumsum()
    while ends[-1] < n:
        lengths = np.concatenate((lengths, np.minimum(length_rng.geometric(p, size=chunk), n)))
        ends = lengths.cumsum()
    count = int(ends.searchsorted(n)) + 1
    return start_rng.integers(1, n + 1, size=count, dtype=np.int64), lengths[:count]


def _check_plan_parameters(n, p) -> int:
    n = int(n)
    if n < 1:
        raise InvalidInput("need n >= 1")
    if not 0.0 < p <= 1.0:
        raise InvalidInput(f"block parameter must be in (0, 1], got {p}")
    return n


def draw_block_plan(n: int, p: float, seed: int) -> BlockPlan:
    """Draw a stationary-bootstrap plan: uniform starts, geometric lengths.

    Deterministic given the seed. Lengths and starts come from two
    independent substreams (keys 0 and 1), so the start stream can be
    reproduced without replaying the geometric draws. ``bootstrap_bands``
    draws the same plans from the same streams, seeded in one batch; this
    function is the reference it is tested against.
    """
    n = _check_plan_parameters(n, p)
    starts, lengths = _draw_plan(n, p, substream(seed, 0), substream(seed, 1))
    return BlockPlan(starts=starts, lengths=lengths, n=n)


def _as_array(data) -> np.ndarray:
    if isinstance(data, TimeSeries):
        return data.values
    return np.asarray(data)


def materialize(plan: BlockPlan, data):
    """Resample one series, or several aligned ones, under the same plan.

    Accepts an array (such as the boolean bits from ``make_indicators``) or a
    TimeSeries, or a list/tuple of them; every input must have length
    plan.n. With several inputs the same block structure is applied to all,
    so position j of every output comes from the same source index.
    """
    idx = plan.index_array()
    if isinstance(data, (list, tuple)):
        arrays = [_as_array(d) for d in data]
        for arr in arrays:
            if arr.shape[0] != plan.n:
                raise InvalidInput("every input must match the plan length")
        return [arr[idx] for arr in arrays]
    arr = _as_array(data)
    if arr.shape[0] != plan.n:
        raise InvalidInput(f"plan drawn for n={plan.n}, input has length {arr.shape[0]}")
    return arr[idx]


def _autocovariances(centered: np.ndarray) -> np.ndarray:
    """Sample autocovariances with divisor n, all lags 0..n-1, via FFT."""
    n = centered.size
    nfft = 1 << int(2 * n - 1).bit_length()
    spectrum = np.fft.rfft(centered, nfft)
    acov = np.fft.irfft(spectrum * np.conj(spectrum), nfft)[:n]
    return acov / n


def bootstrap_variance_s2(indicators, p: float) -> float:
    """Closed-form variance of sqrt(n) times a replicate mean.

    Uses the circular autocovariances c[h] = g[h] + g[n-h] (g the ordinary
    sample autocovariance with divisor n) weighted by (1-h/n)(1-p)^h. This
    equals the exact conditional variance of sqrt(n) * mean(replicate) under
    the stationary bootstrap, for any 0 < p <= 1.
    """
    bits = _as_array(indicators).astype(float)
    n = bits.size
    if n < 2:
        raise InvalidInput("need at least two observations")
    if not 0.0 < p <= 1.0:
        raise InvalidInput(f"block parameter must be in (0, 1], got {p}")
    gamma = _autocovariances(bits - bits.mean())
    circ = gamma.copy()
    circ[1:] += gamma[:0:-1]  # g[n-h] for h = 1..n-1; g[n] = 0
    h = np.arange(1, n, dtype=float)
    weights = (1.0 - h / n) * (1.0 - p) ** h
    return float(circ[0] + 2.0 * np.dot(weights, circ[1:]))


def _doubled_events(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Event positions on the doubled axis 0..2n-1 (the sample twice over)
    and their prefix counts: cum[x] is the number of events before x."""
    twice = np.concatenate((bits, bits))
    cum = np.zeros(twice.size + 1, dtype=np.int64)
    np.cumsum(twice, out=cum[1:])
    return np.flatnonzero(twice), cum


def _map_events(doubled, source, length, target) -> np.ndarray:
    """Sorted replicate positions of the events the blocks copy.

    Block b copies [source[b], source[b] + length[b]) of the doubled axis to
    [target[b], target[b] + length[b]) of the replicate; source < n and
    length <= n, so no block needs a second wrap.
    """
    events, cum = doubled
    lo = cum[source]
    count = cum[source + length] - lo
    return events[concatenated_ranges(lo, count)] + np.repeat(target - source, count)


@dataclass(frozen=True)
class BootstrapBands:
    """Per-lag bootstrap bands and the replicate estimates behind them, one
    column per lag of the kernel."""

    replicates: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    replicate_count: int
    skipped: int

    @property
    def replicate_mean(self) -> np.ndarray:
        """Mean of the replicate estimates; its gap to the kernel's
        ``point_estimates()`` surfaces the resampling bias discussed in the
        band-method docs."""
        return self.replicates.mean(axis=0)

    @property
    def skip_rate(self) -> float:
        return self.skipped / self.replicate_count


def bootstrap_bands(
    kernel: RatioKernel,
    *,
    p: float = 0.01,
    replicates: int = 10_000,
    method: str = METHOD_CENTERED,
    seed: int = 0,
) -> BootstrapBands:
    """Per-lag confidence bands from stationary-bootstrap replicates.

    Replicate i uses the plan ``draw_block_plan(n, p, spawn_seed(seed, i))``
    returns, drawn from streams hashed for all replicates before the first
    pass (see _rng). It maps the kernel's sorted conditioning and response
    event positions through that shared plan (see the module docstring) and
    recomputes the family's estimator from exact integer pair counts on the
    mapped positions; the counts equal those on the ``materialize``d
    replicate. Because the pairs are re-formed inside the replicate,
    dependence at lags well beyond the mean block size is broken by the
    resampling, so small block sizes cannot capture long-range extremal
    dependence (raise the block size to probe it). Replicates with no
    conditioning events are skipped; more than MAX_SKIP_RATE of them raises
    UnstableResample.

    The levels are 2.5% and 97.5%. method "quantile_of_replicates" returns
    those quantiles of the replicate estimates. method "centered" returns
    point - upper/lower quantiles of (replicate - point): bands for the
    finite-threshold extremogram itself. The point estimate need not sit in
    the center of the centered bands; compare ``replicate_mean`` with
    ``kernel.point_estimates()`` to see the resampling bias. Its source
    (Politis & Romano 1994): a replicate's expected lag-h pair count is
    (n - h) [(1 - p)^h C_h / n + (1 - (1 - p)^h) N_A N_B / n^2], with C_h
    the sample's circular lag-h count and N_A, N_B its event counts, so it
    mixes the sample's dependence with independence.
    """
    replicates = _count(replicates, 100, "replicates for quantile bands")
    if method not in BAND_METHODS:
        raise InvalidInput(f"unknown band method {method!r}; expected one of {BAND_METHODS}")

    point = kernel.point_estimates()  # validates the denominator up front
    n = kernel.n
    stride = n + int(kernel.lags[-1]) + 1
    cond = _doubled_events(kernel.cond)
    resp = cond if kernel.resp is kernel.cond else _doubled_events(kernel.resp)

    _check_plan_parameters(n, p)
    # replicate i's plan streams are substream(spawn_seed(seed, i), 0 and 1),
    # hashed for every replicate at once (64 bytes each)
    states = child_states(spawn_seeds(seed, np.arange(replicates, dtype=np.uint64)))

    batch = max(1, PASS_POSITIONS // n)

    def compute(a: int, b: int) -> tuple[np.ndarray, int]:
        kept, skipped = [], 0
        for first in range(a, b, batch):
            starts, lengths = zip(*(_draw_plan(n, p, generator(pair[0]), generator(pair[1]))
                                    for pair in states[first:min(first + batch, b)]))
            blocks = np.array([block_starts.size for block_starts in starts])
            source = np.concatenate(starts)
            length = np.concatenate(lengths)
            totals = _check_plans(source, length, blocks, n)
            source -= 1
            # truncate each replicate's final block so its blocks cover exactly n
            # positions; no block is then longer than n
            length[np.cumsum(blocks) - 1] -= totals - n
            # replicate k's blocks tile [k*stride, k*stride + n): the running
            # total puts them at k*n + offset, so add k*(stride - n)
            spacing = np.repeat(np.arange(blocks.size) * (stride - n), blocks)
            target = np.cumsum(length) - length + spacing
            cond_pos = _map_events(cond, source, length, target)
            resp_pos = cond_pos if resp is cond else _map_events(resp, source, length, target)
            denom = np.bincount(cond_pos // stride, minlength=blocks.size)
            counts = kernel.event_counts(cond_pos, resp_pos, stride, blocks.size)
            has_events = denom > 0
            skipped += blocks.size - int(has_events.sum())
            kept.append(counts[has_events] / denom[has_events, None])
        return np.concatenate(kept), skipped

    kept, skips = zip(*_split(replicates, n, compute))
    skipped = sum(skips)
    if skipped > MAX_SKIP_RATE * replicates:
        raise UnstableResample(
            f"{skipped} of {replicates} replicates had no conditioning events",
            skip_rate=skipped / replicates,
        )
    reps = np.concatenate(kept)

    if method == METHOD_QUANTILE:
        lower = np.quantile(reps, 0.025, axis=0)
        upper = np.quantile(reps, 0.975, axis=0)
    else:
        delta = reps - point[None, :]
        lower = point - np.quantile(delta, 0.975, axis=0)
        upper = point - np.quantile(delta, 0.025, axis=0)
    return BootstrapBands(
        replicates=reps,
        lower=lower,
        upper=upper,
        replicate_count=replicates,
        skipped=skipped,
    )


def permutation_bands(kernel: RatioKernel, *, n_perm: int = 99, seed: int = 0) -> tuple[float, float]:
    """No-dependence reference band: min and max of the lag-1 estimate over
    random joint permutations of the underlying observations.

    The same permutation is applied to the conditioning and response
    sequences, preserving contemporaneous pairing, and thresholds need no
    re-resolution because empirical quantiles are permutation-invariant.
    The permutation distribution is essentially lag-free, so the single
    (lower, upper) pair serves as a constant band across all lags.

    Each value is an exact integer count of lagged pairs in the permuted
    one-byte indicator sequences (``RatioKernel.lag_one_value``) over the
    kernel's denominator, which is counted once and shared by every
    permutation. Permutation i's order is
    ``substream(seed, i).permutation(n)``.
    """
    n_perm = _count(n_perm, 1, "permutations")

    def compute(a: int, b: int) -> np.ndarray:
        return np.array([kernel.lag_one_value(substream(seed, i).permutation(kernel.n))
                         for i in range(a, b)])

    values = np.concatenate(_split(n_perm, kernel.n, compute))
    return float(values.min()), float(values.max())
