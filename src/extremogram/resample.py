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
axis find them without wrap-around logic. The literal replicate of an
array is ``array[plan.index_array()]``, kept as the reference the engine
is tested against. Replicates are counted in passes sized by their work,
not by n: a pass holds max(1, PASS_WORK // w) replicates, where w is the
largest of the kernel's event count, a plan's expected block count
n*p + 1 and the max_lag + 1 counts of a replicate's row.

Replicate i's plan has child seed c = spawn_seed(seed, i): geometric
lengths, each capped at n, from substream (c, 0) up to the first total >= n,
then as many uniform starts in 1..n from substream (c, 1) (see _rng), so
results do not depend on evaluation order. ``bootstrap_bands`` hashes those
streams for all replicates in one vectorized pass. Each pass of replicates
then draws its plans at once (``_draw_plans``, which ``draw_block_plan``
calls for one plan): one ``geometric`` and one ``random_raw`` call per
stream, and the cap, the block counts and numpy's own map of raw words to
uniform starts on the whole pass; it checks the plan invariants once per
pass and builds no ``SeedSequence`` or ``BlockPlan`` per replicate. Once
count * n reaches SPLIT_POSITIONS, both band functions cut their
replicates or permutations into contiguous ranges, one per CPU in
``os.sched_getaffinity(0)`` but none shorter than half of SPLIT_POSITIONS
positions; the caller computes the first range, a forked child each other
one, and the parts join in range order into the one-process result. Linux
only, with no option (``taskset -c 0`` gives one process); Python >= 3.12
may warn (DeprecationWarning) on a fork while BLAS threads exist.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
from dataclasses import dataclass

import numpy as np

from ._rng import _Words, check_seed, child_states, generator, spawn_seeds, substream
from .core import _INDEX_MAX, _whole
from .errors import AnalysisFailed, ExtremogramError, InvalidInput
from .estimators import RatioKernel, concatenated_ranges

METHOD_CENTERED = "centered"
METHOD_QUANTILE = "quantile_of_replicates"
BAND_METHODS = (METHOD_CENTERED, METHOD_QUANTILE)

# replicates may lose every conditioning event; more than this fraction of
# skipped replicates invalidates the band construction
MAX_SKIP_RATE = 0.05

# events, blocks or counts one bootstrap pass may hold (see the module
# docstring). Counting blocks and counts, not events alone, keeps a pass of a
# few-event kernel from holding millions of them. In the sweep in README
# ("Stationary bootstrap semantics") 2**14 and 2**15 were fastest; 2**16 was
# slower at n = 1e5, and the peak memory grows with the value
PASS_WORK = 2**14

# count * n from which the band functions fork. Each process then gets at
# least half of it: in the sweep the split lost below 2**21 positions a process
SPLIT_POSITIONS = 2**22


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


@dataclass(frozen=True, eq=False)
class BlockPlan:
    """Realized resampling structure: start positions and block lengths.

    ``starts`` are 1-based positions in 1..n; ``lengths`` are positive, and
    drawn ones are geometric capped at n. The plan covers at least n output
    positions; ``index_array`` truncates the final block so the replicate
    has length exactly n. Both arrays are read-only int64 copies.
    """

    starts: np.ndarray
    lengths: np.ndarray
    n: int

    def __post_init__(self):
        n = _whole(self.n, 1, _INDEX_MAX, "need n >= 1")
        starts, lengths = _whole_array(self.starts), _whole_array(self.lengths)
        if starts.size != lengths.size or starts.size == 0:
            raise InvalidInput("starts and lengths must be non-empty and aligned")
        _check_plans(starts, lengths, np.array([starts.size]), n)
        object.__setattr__(self, "starts", starts)
        object.__setattr__(self, "lengths", lengths)
        object.__setattr__(self, "n", n)

    def index_array(self) -> np.ndarray:
        """0-based source index for each of the n output positions."""
        return (concatenated_ranges(self.starts - 1, self.lengths) % self.n)[: self.n]


def _whole_array(values) -> np.ndarray:
    """A read-only int64 copy of a 1-D array of whole numbers, never truncated."""
    array = np.asarray(values)
    with np.errstate(invalid="ignore"):
        whole = array.astype(np.int64)
    if array.ndim != 1 or array.dtype.kind not in "iuf" or not np.array_equal(whole, array):
        raise InvalidInput("starts and lengths must be 1-D arrays of whole numbers")
    whole.flags.writeable = False
    return whole


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


def _draw_starts(n: int, words, counts: np.ndarray) -> np.ndarray:
    """``generator(words[k]).integers(1, n + 1, size=counts[k], dtype=np.int64)``
    for every k, laid end to end (counts >= 1).

    For 1 < n < 2**32 numpy maps each 32-bit half of a raw PCG64 word, low
    half first, to (half * n >> 32) + 1 and redraws a half whose product has
    a low word below (2**32 - n) % n; the map runs here on the raw words of
    all the streams at once. A stream with a redraw, which happens with
    probability below n / 2**32 per start, and every stream for any other n
    take the literal call.
    """
    def literal(k: int) -> np.ndarray:
        return generator(words[k]).integers(1, n + 1, size=counts[k], dtype=np.int64)

    if not 1 < n < 2**32:
        return np.concatenate([literal(k) for k in range(len(counts))])
    raw = np.concatenate([np.random.PCG64(_Words(w)).random_raw((k + 1) // 2)
                          for w, k in zip(words, counts.tolist())])
    halves = raw.astype("<u8", copy=False).view("<u4")  # low half first
    # an odd count leaves the high half of its stream's last word unread
    halves = np.delete(halves, np.cumsum(counts + counts % 2)[counts % 2 == 1] - 1)
    redrawn = halves * np.uint32(n) < (2**32 - n) % n  # the product's low word
    starts = (halves.astype(np.uint64) * np.uint64(n) >> 32).view(np.int64)
    starts += 1
    ends = np.cumsum(counts)
    for k in np.unique(ends.searchsorted(np.flatnonzero(redrawn), side="right")).tolist():
        starts[ends[k] - counts[k]:ends[k]] = literal(k)
    return starts


def _draw_plans(n: int, p: float, rows) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Starts, lengths and block counts of the plans drawn from each row of
    ``child_states`` in ``rows`` (see the module docstring), the plans laid
    end to end.

    One ``geometric`` call per stream fills a row of a (plans, chunk) array,
    chunk = int(n p + 4.5 sqrt(n p (1 - p))) + 16 (the mean block count plus
    4.5 standard deviations); the cap, the running totals, the block counts
    and the plan lengths (one mask) are then taken on the whole array. A plan
    whose lengths fall short of n gets the next chunk of its own stream, and
    every other plan a chunk of ones past its end. The cap changes no
    replicate (a block is cut to n anyway) and keeps the totals from
    overflowing when a tiny p makes ``geometric`` return the int64 maximum.
    """
    chunk = int(n * p + 4.5 * math.sqrt(n * p * (1 - p))) + 16
    streams = [generator(words) for words in rows[:, 0]]
    drawn = np.minimum(np.stack([rng.geometric(p, size=chunk) for rng in streams]), n)
    ends = drawn.cumsum(axis=1)
    while np.any(ends[:, -1] < n):
        more = np.ones((len(streams), chunk), np.int64)
        for k in np.flatnonzero(ends[:, -1] < n).tolist():
            more[k] = np.minimum(streams[k].geometric(p, size=chunk), n)
        drawn = np.hstack((drawn, more))
        ends = drawn.cumsum(axis=1)
    blocks = np.argmax(ends >= n, axis=1) + 1
    lengths = drawn[np.arange(drawn.shape[1]) < blocks[:, None]]
    return _draw_starts(n, rows[:, 1], blocks), lengths, blocks


def _check_block_parameter(p: float):
    if not 0.0 < p <= 1.0:
        raise InvalidInput(f"block parameter must be in (0, 1], got {p}")


def draw_block_plan(n: int, p: float, seed: int) -> BlockPlan:
    """Draw a stationary-bootstrap plan: uniform starts, geometric lengths.

    Deterministic given the seed. Lengths and starts come from two
    independent substreams (keys 0 and 1), so the start stream can be
    reproduced without replaying the geometric draws. Replicate i of
    ``bootstrap_bands`` uses the plan of seed ``spawn_seed(seed, i)``.
    """
    n = _whole(n, 1, _INDEX_MAX, "need n >= 1")
    _check_block_parameter(p)
    starts, lengths, _ = _draw_plans(n, p, child_states([check_seed(seed)]))
    return BlockPlan(starts=starts, lengths=lengths, n=n)


def bootstrap_variance_s2(indicators, p: float) -> float:
    """Closed-form variance of sqrt(n) times a replicate mean.

    Uses the circular autocovariances c[h] = (1/n) sum_t x[t] x[(t+h) mod n]
    of the centered bits x, all lags from one FFT, weighted by
    (1-h/n)(1-p)^h. This equals the exact conditional variance of
    sqrt(n) * mean(replicate) under the stationary bootstrap, for any
    0 < p <= 1.
    """
    bits = np.asarray(indicators, dtype=float)
    if bits.ndim != 1:
        raise InvalidInput(f"need a 1-D array of indicator bits, got shape {bits.shape}")
    n = bits.size
    if n < 2:
        raise InvalidInput("need at least two observations")
    _check_block_parameter(p)
    spectrum = np.fft.rfft(bits - bits.mean())
    circ = np.fft.irfft(spectrum.real**2 + spectrum.imag**2, n) / n
    h = np.arange(1, n, dtype=float)
    weights = (1.0 - h / n) * (1.0 - p) ** h
    return float(circ[0] + 2.0 * np.sum(weights * circ[1:]))


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
    # one repeat carries each block's first-event offset and its shift
    skip, shift = np.repeat(np.stack((lo - (np.cumsum(count) - count), target - source), axis=1),
                            count, axis=0).T
    return events[np.arange(skip.size) + skip] + shift


@dataclass(frozen=True, eq=False)
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
    pass (see _rng); each pass draws the plans of its replicates at once.
    It maps the kernel's sorted conditioning and response event positions
    through that shared plan (see the module docstring) and recomputes the
    family's estimator from exact integer pair counts on the mapped
    positions; the counts equal those on the literal replicate
    ``array[plan.index_array()]``. Because the pairs are re-formed inside
    the replicate, dependence at lags well beyond the mean block size is
    broken by the resampling, so small block sizes cannot capture
    long-range extremal dependence (raise the block size to probe it).
    Replicates with no conditioning events are skipped; more than
    MAX_SKIP_RATE of them raises AnalysisFailed.

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
    replicates = _whole(replicates, 100, _INDEX_MAX,
                        f"need 100 to {_INDEX_MAX} replicates for quantile bands")
    if method not in BAND_METHODS:
        raise InvalidInput(f"unknown band method {method!r}; expected one of {BAND_METHODS}")

    point = kernel.point_estimates()  # validates the denominator up front
    n = kernel.n
    stride = n + int(kernel.lags[-1]) + 1
    cond = _doubled_events(kernel.cond)
    resp = cond if kernel.resp is kernel.cond else _doubled_events(kernel.resp)

    _check_block_parameter(p)
    # replicate i's plan streams are substream(spawn_seed(seed, i), 0 and 1),
    # hashed for every replicate at once (64 bytes each)
    states = child_states(spawn_seeds(seed, np.arange(replicates, dtype=np.uint64)))

    # a replicate's work: its events (as many as the sample's, on average; both
    # position arrays hold the sample twice), its blocks and its row of counts
    events = (cond[0].size + (0 if resp is cond else resp[0].size)) // 2
    batch = max(1, PASS_WORK // max(events, int(n * p) + 1, stride - n))

    def compute(a: int, b: int) -> tuple[np.ndarray, int]:
        kept, skipped = [], 0
        for first in range(a, b, batch):
            source, length, blocks = _draw_plans(n, p, states[first:min(first + batch, b)])
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
        raise AnalysisFailed(f"{skipped} of {replicates} replicates had no conditioning events")
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
    n_perm = _whole(n_perm, 1, _INDEX_MAX, f"need 1 to {_INDEX_MAX} permutations")
    seed = check_seed(seed)  # here, not in a forked worker

    def compute(a: int, b: int) -> np.ndarray:
        return np.array([kernel.lag_one_value(substream(seed, i).permutation(kernel.n))
                         for i in range(a, b)])

    values = np.concatenate(_split(n_perm, kernel.n, compute))
    return float(values.min()), float(values.max())
