import dataclasses
import os
import re
import signal
import subprocess
import sys

import numpy as np
import pytest

import extremogram as xg
import oracles
from conftest import assert_no_children, literal_block_plan
from extremogram import errors, resample
from extremogram._rng import child_states, generator, spawn_seed, spawn_seeds, substream
from extremogram.errors import AnalysisFailed, ExtremogramError, InvalidInput
from extremogram.estimators import (
    FAMILY_CROSS,
    FAMILY_RETURN_TIMES,
    FAMILY_TRI_SOURCE,
    FAMILY_TRI_TARGET,
    FAMILY_UNIVARIATE,
)


def _indicator_bits(seed=42, n=1000, q=0.9):
    sim = xg.simulate_garch(xg.GarchParams(), n, burn_in=500, seed=seed)
    spec = xg.ThresholdSpec(q, xg.UPPER).resolve(sim)
    return xg.make_indicators(sim, xg.upper_tail_region(), spec)


def _uni_kernel(seed=0, n=2000, q=0.95, max_lag=10):
    x = xg.TimeSeries(substream(seed).standard_normal(n))
    spec = xg.ThresholdSpec(q, xg.UPPER).resolve(x)
    reg = xg.upper_tail_region()
    return xg.univariate_kernel(x, reg, reg, spec, max_lag)


class TestBlockPlan:
    def test_p_one_gives_unit_blocks(self):
        plan = xg.draw_block_plan(50, 1.0, seed=3)
        assert plan.starts.size == 50
        assert np.all(plan.lengths == 1)

    def test_deterministic(self):
        a = xg.draw_block_plan(400, 0.02, seed=9)
        b = xg.draw_block_plan(400, 0.02, seed=9)
        assert np.array_equal(a.starts, b.starts)
        assert np.array_equal(a.lengths, b.lengths)

    def test_minimal_covering_count(self):
        for seed in range(30):
            plan = xg.draw_block_plan(123, 0.05, seed=seed)
            total = plan.lengths.sum()
            assert total >= 123
            assert total - plan.lengths[-1] < 123
            assert plan.starts.min() >= 1 and plan.starts.max() <= 123

    def test_geometric_mean_length(self):
        # mean of all lengths across many plans near 1/p
        p, n = 1.0 / 100.0, 10_000
        lengths = np.concatenate(
            [xg.draw_block_plan(n, p, seed=s).lengths for s in range(200)]
        )
        se = np.sqrt((1 - p) / p**2 / lengths.size)
        assert abs(lengths.mean() - 100.0) < 3 * se + 1

    def test_tiny_p_gives_one_block_of_length_n(self):
        # geometric(p) returns the int64 maximum for p below about 1e-18
        for p in (1e-19, 5e-324):
            plan = xg.draw_block_plan(2000, p, seed=3)
            assert plan.lengths.tolist() == [2000]

    def test_rejects_bad_parameters(self):
        with pytest.raises(InvalidInput):
            xg.draw_block_plan(0, 0.5, seed=1)
        for p in (0.0, -0.1, 1.5):
            with pytest.raises(InvalidInput):
                xg.draw_block_plan(10, p, seed=1)
        for seed in (-1, 2**64):
            message = f"seed must be an unsigned 64-bit integer, got {seed}"
            with pytest.raises(InvalidInput, match=f"^{re.escape(message)}$"):
                xg.draw_block_plan(10, 0.5, seed=seed)
        # n is checked first, then p, then the seed
        with pytest.raises(InvalidInput, match=r"^need n >= 1, got 0$"):
            xg.draw_block_plan(0, 0.0, seed=-1)
        with pytest.raises(InvalidInput, match=r"^block parameter must be in \(0, 1\], got 0\.0$"):
            xg.draw_block_plan(10, 0.0, seed=-1)

    # n past 2**32 makes the engine draw its starts with numpy's integers
    # call; 2**31 + 1 redraws about half of all 32-bit draws. The mean block
    # counts 2000 and 30 keep the plans short at every n, and p = 1e-19
    # makes geometric return the int64 maximum, which the cap cuts to n
    @pytest.mark.parametrize("n", [1, 2, 3, 4000, 100_000, 2**31 + 1, 2**32, 2**40 + 7])
    def test_is_the_literal_plan(self, n):
        for p in (min(1.0, 2000 / n), min(1.0, 30 / n), 1e-19):
            for seed in (0, 1, 2**32 - 1, 2**32, 2**64 - 1, 12345):
                plan, literal = xg.draw_block_plan(n, p, seed), literal_block_plan(n, p, seed)
                assert plan.starts.tolist() == literal.starts.tolist()
                assert plan.lengths.tolist() == literal.lengths.tolist()

    @pytest.mark.parametrize("starts, lengths, n, message", [
        ([1, 2], [5], 5, "^starts and lengths must be non-empty and aligned$"),
        ([], [], 5, "^starts and lengths must be non-empty and aligned$"),
        ([0], [5], 5, r"^start positions must lie in 1\.\.n$"),
        ([1, 6], [3, 2], 5, r"^start positions must lie in 1\.\.n$"),
        ([1, 2], [5, 0], 5, "^block lengths must be positive$"),
        ([1, 2], [2, 2], 5, "^block count must be minimal with total length >= n$"),
        ([1, 2], [5, 1], 5, "^block count must be minimal with total length >= n$"),
        # never truncated: a fraction, a NaN, a bool or a 2-D array is no plan
        ([1.5], [5], 5, "^starts and lengths must be 1-D arrays of whole numbers$"),
        ([1], [5.7], 5, "^starts and lengths must be 1-D arrays of whole numbers$"),
        ([1], [np.nan], 5, "^starts and lengths must be 1-D arrays of whole numbers$"),
        ([True], [5], 5, "^starts and lengths must be 1-D arrays of whole numbers$"),
        ([[1]], [5], 5, "^starts and lengths must be 1-D arrays of whole numbers$"),
        ([1], [5], 5.0, r"^need n >= 1, got 5\.0$"),
        ([1], [5], 0, "^need n >= 1, got 0$"),
    ], ids=["misaligned", "empty", "start_zero", "start_past_n", "zero_length", "short",
            "not_minimal", "fractional_start", "fractional_length", "nan_length",
            "boolean_start", "two_dimensional", "float_n", "zero_n"])
    def test_rejects_an_invalid_plan(self, starts, lengths, n, message):
        with pytest.raises(InvalidInput, match=message):
            xg.BlockPlan(starts=np.array(starts), lengths=np.array(lengths), n=n)

    def test_copies_and_freezes_its_arrays(self):
        starts, lengths = np.array([1]), np.array([5])
        plan = xg.BlockPlan(starts, lengths, 5)
        assert plan.starts is not starts and plan.lengths is not lengths
        assert not plan.starts.flags.writeable and not plan.lengths.flags.writeable
        starts[0], lengths[0] = 99, 1
        assert plan.starts.tolist() == [1] and plan.lengths.tolist() == [5]
        assert plan.index_array().tolist() == [0, 1, 2, 3, 4]

    def test_reads_whole_floats_and_numpy_integers_exactly(self):
        plan = xg.BlockPlan([2.0, 1], np.ones(2), np.int64(2))
        assert plan.starts.dtype == plan.lengths.dtype == np.int64
        assert type(plan.n) is int and plan.index_array().tolist() == [1, 0]

    def test_a_first_chunk_short_of_n_is_refilled(self, monkeypatch):
        # the first chunk of ceil(1.5 n p) + 16 = 31 lengths falls short of n
        # about once in a million plans at worst: stub two chunks of ones
        n, p = 100, 0.1

        class ShortFirstChunks:
            def __init__(self):
                self.rng, self.draws = substream(5, 0), []

            def geometric(self, p, size):
                ones = len(self.draws) < 2
                self.draws.append(np.ones(size, np.int64) if ones else self.rng.geometric(p, size))
                return self.draws[-1]

        lengths_rng = ShortFirstChunks()
        starts, lengths = oracles.literal_plan(n, p, lengths_rng, substream(5, 1))
        assert len(lengths_rng.draws) == 3
        literal, total = [], 0
        for draw in np.concatenate(lengths_rng.draws).tolist():  # draw until n is covered
            literal.append(min(draw, n))
            total += literal[-1]
            if total >= n:
                break
        assert lengths.tolist() == literal
        assert starts.tolist() == substream(5, 1).integers(1, n + 1, size=len(literal)).tolist()
        assert resample._check_plans(starts, lengths, np.array([len(literal)]), n).tolist() == [total]

        # the same stub as the length stream of child 5 in a pass of ordinary
        # plans: the pass refills that plan alone, from its own stream
        children = [3, 5, 7, 11]
        rows = child_states(children)
        literal = [oracles.literal_plan(n, p, ShortFirstChunks() if child == 5 else generator(row[0]),
                                        generator(row[1])) for child, row in zip(children, rows)]
        stubs = []

        def stub_child_5(words):
            if np.array_equal(words, rows[1, 0]):
                stubs.append(ShortFirstChunks())
                return stubs[-1]
            return generator(words)

        monkeypatch.setattr(resample, "generator", stub_child_5)
        starts, lengths, blocks = resample._draw_plans(n, p, rows)
        assert [len(stub.draws) for stub in stubs] == [3]
        assert blocks.tolist() == [plan_starts.size for plan_starts, _ in literal]
        assert blocks[1] > 2 * 31
        assert starts.tolist() == np.concatenate([plan_starts for plan_starts, _ in literal]).tolist()
        assert lengths.tolist() == np.concatenate([plan_lengths for _, plan_lengths in literal]).tolist()

    # n = 2**31 + 1 redraws about half of all 32-bit draws, so most of its
    # streams take the per-stream call; 1 and 2**32 and up take it for all
    @pytest.mark.parametrize("n", [1, 2, 3, 4000, 100_000, 2**31 + 1, 2**32 - 1, 2**32, 2**40 + 7])
    def test_batched_starts_are_numpys_integers(self, n):
        words = child_states(spawn_seeds(8, np.arange(50, dtype=np.uint64)))[:, 1]
        for counts in (np.arange(1, 51), np.arange(50, 0, -1), np.full(50, 7), np.full(50, 8)):
            literal = [generator(row).integers(1, n + 1, size=count, dtype=np.int64)
                       for row, count in zip(words, counts.tolist())]
            starts = resample._draw_starts(n, words, counts)
            assert starts.dtype == np.int64
            assert starts.tolist() == np.concatenate(literal).tolist()


class TestLiteralReplicate:
    """The literal replicate of an array: ``array[plan.index_array()]``."""

    def test_circular_wrap(self):
        plan = xg.BlockPlan(starts=np.array([3]), lengths=np.array([4]), n=4)
        out = np.array([10.0, 20.0, 30.0, 40.0])[plan.index_array()]
        assert out.tolist() == [30.0, 40.0, 10.0, 20.0]

    def test_p_one_multiset_matches_regenerated_uniform_stream(self):
        # with unit blocks the output is n uniform draws from the sample;
        # the start stream is documented as substream(seed, 1)
        n, seed = 200, 321
        values = np.arange(float(n))
        plan = xg.draw_block_plan(n, 1.0, seed=seed)
        out = values[plan.index_array()]
        expected_idx = substream(seed, 1).integers(1, n + 1, size=n) - 1
        assert sorted(out.tolist()) == sorted(values[expected_idx].tolist())

    @pytest.mark.parametrize("n", [1, 2, 5, 100, 4000])
    def test_index_array_lays_the_blocks_end_to_end(self, n):
        # each block's circular source positions in turn, cut to n
        for p in (1.0, 0.5, 0.1, 0.01, 1e-9):
            for seed in range(5):
                plan = xg.draw_block_plan(n, p, seed=seed)
                literal = [(int(start) - 1 + k) % n
                           for start, length in zip(plan.starts, plan.lengths)
                           for k in range(int(length))][:n]
                index = plan.index_array()
                assert index.dtype == np.int64
                assert index.tolist() == literal


class TestBootstrapVariance:
    def test_constant_bits_give_zero(self):
        assert xg.bootstrap_variance_s2(np.ones(50), 0.2) == 0.0
        assert xg.bootstrap_variance_s2(np.zeros(50), 0.2) == 0.0

    @pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2,
                        reason="needs two CPUs for two BLAS threads")
    def test_does_not_depend_on_the_blas_thread_count(self):
        # a BLAS dot product of the weights gave 0x1.23d87e1b5dc18p-5 at one
        # thread and ...dc1bp-5 at two for p = 1e-4
        script = ("import numpy as np; import extremogram as xg; "
                  "bits = np.random.default_rng(5).random(50_000) < 0.04; "
                  "print(*(xg.bootstrap_variance_s2(bits, p).hex() for p in (1e-4, 1e-5)))")
        src = os.path.dirname(os.path.dirname(os.path.abspath(xg.__file__)))
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
            proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                                  text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]

    def test_hand_computed_value(self):
        # n=6 bits, p=1/2: the closed form evaluates to 61/384 on paper
        bits = np.array([1, 0, 1, 0, 0, 1])
        assert xg.bootstrap_variance_s2(bits, 0.5) == pytest.approx(61.0 / 384.0, abs=1e-12)

    def test_p_one_reduces_to_lag_zero_autocovariance(self):
        bits = _indicator_bits(n=400).astype(float)
        c0 = np.mean((bits - bits.mean()) ** 2)
        assert xg.bootstrap_variance_s2(bits, 1.0) == pytest.approx(c0, rel=1e-12)

    def test_needs_two_observations(self):
        with pytest.raises(InvalidInput, match="^need at least two observations$"):
            xg.bootstrap_variance_s2(np.ones(1), 0.5)

    @pytest.mark.parametrize("shape", [(2, 10), (10, 1), ()])
    def test_needs_a_one_dimensional_array(self, shape):
        message = f"need a 1-D array of indicator bits, got shape {shape}"
        with pytest.raises(InvalidInput, match=f"^{re.escape(message)}$"):
            xg.bootstrap_variance_s2(np.ones(shape), 0.5)

    @pytest.mark.parametrize("n", [2, 3, 7, 64, 301])
    @pytest.mark.parametrize("p", [0.01, 0.3, 1.0])
    def test_matches_the_literal_circular_definition(self, n, p):
        # c[h] = mean(x * x shifted circularly by h), the x centered bits
        rng = np.random.default_rng(n)
        for bits in (rng.uniform(size=n) < 0.3, rng.uniform(size=n) < 0.7, np.ones(n)):
            x = bits - bits.mean()
            c = [np.mean(x * np.roll(x, -h)) for h in range(n)]
            literal = c[0] + 2.0 * sum((1.0 - h / n) * (1.0 - p) ** h * c[h] for h in range(1, n))
            value = xg.bootstrap_variance_s2(bits, p)
            if np.all(bits == bits[0]):
                assert value == 0.0
            else:
                assert value == pytest.approx(literal, rel=1e-12)

    def test_nonnegative_on_random_inputs(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            bits = (rng.uniform(size=rng.integers(2, 80)) < 0.3).astype(float)
            p = float(rng.uniform(0.01, 1.0))
            assert xg.bootstrap_variance_s2(bits, p) >= -1e-12

    def test_matches_monte_carlo_replicate_variance(self):
        ind = _indicator_bits(seed=42, n=1000, q=0.9)
        bits = ind.astype(float)
        p = 1.0 / 50.0
        s2 = xg.bootstrap_variance_s2(ind, p)
        means = np.empty(4000)
        for i in range(means.size):
            plan = literal_block_plan(1000, p, spawn_seed(7, i))
            means[i] = bits[plan.index_array()].mean()
        mc = 1000 * means.var()
        assert abs(mc - s2) / s2 < 0.05

    def test_bootstrap_mean_identity(self):
        # E*(mean of replicate) equals the sample mean; check the MC average
        # against a 4-sigma band of the averaging error
        ind = _indicator_bits(seed=4, n=500, q=0.9)
        bits = ind.astype(float)
        p = 1.0 / 50.0
        replicates = 10_000
        total = 0.0
        for i in range(replicates):
            plan = literal_block_plan(500, p, spawn_seed(77, i))
            total += bits[plan.index_array()].mean()
        avg = total / replicates
        s_n = np.sqrt(xg.bootstrap_variance_s2(ind, p))
        assert abs(avg - bits.mean()) < 4 * s_n / np.sqrt(500 * replicates)


class TestBootstrapBands:
    def test_deterministic_given_seed(self):
        kern = _uni_kernel()
        a = xg.bootstrap_bands(kern, p=0.02, replicates=300, seed=123)
        b = xg.bootstrap_bands(kern, p=0.02, replicates=300, seed=123)
        assert np.array_equal(a.replicates, b.replicates)
        assert np.array_equal(a.lower, b.lower)
        assert np.array_equal(a.upper, b.upper)

    def test_band_ordering_and_shapes(self):
        kern = _uni_kernel(max_lag=6)
        for method in xg.BAND_METHODS:
            bands = xg.bootstrap_bands(kern, p=0.02, replicates=250, method=method, seed=1)
            assert kern.lags.tolist() == list(range(7))
            assert bands.lower.shape == bands.upper.shape == kern.lags.shape
            assert np.all(bands.lower <= bands.upper)
            assert bands.replicates.shape[1] == 7

    def test_centered_bands_match_definition(self):
        kern = _uni_kernel(max_lag=4)
        bands = xg.bootstrap_bands(kern, p=0.02, replicates=400, method="centered", seed=3)
        point = kern.point_estimates()
        delta = bands.replicates - point[None, :]
        lower = point - np.quantile(delta, 0.975, axis=0)
        upper = point - np.quantile(delta, 0.025, axis=0)
        assert np.allclose(bands.lower, lower)
        assert np.allclose(bands.upper, upper)

    def test_quantile_bands_match_definition(self):
        kern = _uni_kernel(max_lag=4)
        bands = xg.bootstrap_bands(
            kern, p=0.02, replicates=400, method="quantile_of_replicates", seed=3
        )
        assert np.allclose(bands.lower, np.quantile(bands.replicates, 0.025, axis=0))
        assert np.allclose(bands.upper, np.quantile(bands.replicates, 0.975, axis=0))

    def test_replicates_match_literal_reconstruction(self):
        # one replicate, rebuilt by hand from the same plan
        kern = _uni_kernel(max_lag=5, n=500)
        seed = 44
        bands = xg.bootstrap_bands(kern, p=0.05, replicates=100, seed=seed)
        index = literal_block_plan(kern.n, 0.05, spawn_seed(seed, 0)).index_array()
        c, r = kern.cond[index], kern.resp[index]
        expected = kern.numerator_counts_of(c.astype(float), r.astype(float)) / c.sum()
        assert np.allclose(bands.replicates[0], expected)

    @pytest.mark.parametrize("p", [1e-19, 5e-324])
    def test_tiny_block_parameter_matches_one_circular_shift(self, p):
        # every plan is one circular shift, as at p = 1e-12
        kern = _uni_kernel(n=2000)
        ref = xg.bootstrap_bands(kern, p=1e-12, replicates=200, seed=3)
        bands = xg.bootstrap_bands(kern, p=p, replicates=200, seed=3)
        assert np.array_equal(bands.replicates, ref.replicates)

    def test_single_event_is_unstable(self):
        x = xg.TimeSeries(np.concatenate(([50.0], np.zeros(99))))
        spec = xg.ThresholdSpec(0.5, xg.UPPER, resolved_threshold=10.0)
        kern = xg.univariate_kernel(x, xg.upper_tail_region(), xg.upper_tail_region(), spec, 3)
        with pytest.raises(AnalysisFailed,
                           match=r"^\d+ of 200 replicates had no conditioning events$") as err:
            xg.bootstrap_bands(kern, p=0.1, replicates=200, seed=0)
        assert int(str(err.value).split()[0]) > 10  # more than 5% of 200

    def test_replicate_floor(self):
        kern = _uni_kernel()
        with pytest.raises(InvalidInput):
            xg.bootstrap_bands(kern, p=0.02, replicates=50, seed=0)

    def test_unknown_band_method(self):
        with pytest.raises(InvalidInput, match="^unknown band method 'basic'; expected one of "):
            xg.bootstrap_bands(_uni_kernel(), p=0.02, replicates=100, method="basic")

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_out_of_range_seed_rejected(self, seed):
        with pytest.raises(InvalidInput):
            xg.bootstrap_bands(_uni_kernel(), p=0.02, replicates=100, seed=seed)

    def test_garch_lower_tail_band_excludes_independence_line(self):
        sim = xg.simulate_garch(xg.GarchParams(), 30_000, burn_in=2000, seed=3)
        spec = xg.ThresholdSpec(0.04, xg.LOWER).resolve(sim)
        reg = xg.lower_tail_region()
        kern = xg.univariate_kernel(sim, reg, reg, spec, 10)
        bands = xg.bootstrap_bands(kern, p=0.01, replicates=1000, seed=9)
        assert np.all(bands.lower[1:6] > 0.04)

    def test_return_times_replicates(self):
        rng = np.random.default_rng(50)
        x = xg.TimeSeries(rng.standard_normal(800))
        spec = xg.ThresholdSpec(0.9, xg.UPPER).resolve(x)
        kern = xg.return_times_kernel(x, xg.upper_tail_region(), spec, 15)
        bands = xg.bootstrap_bands(kern, p=0.02, replicates=200, seed=6)
        assert kern.lags.tolist() == list(range(1, 16))
        assert bands.replicates.shape[1] == 15
        assert np.all(bands.replicates >= 0)
        assert np.all(bands.replicates.sum(axis=1) <= 1 + 1e-12)


def _family_rebuild(family, n, q, max_lag, seed=0, ties=False):
    """A family's kernel on three t(3) series with events at positions 0 and
    n-1, and a literal rebuild of one replicate: gather the values by the
    plan's ``index_array``, then count with the brute-force oracle. The
    univariate response region (upper) differs from its conditioning region
    (two-sided). With ``ties`` the draws are doubled and rounded to
    integers, so that several values equal each resolved threshold."""
    rng = substream(seed)
    values = []
    for _ in range(3):
        v = rng.standard_t(3, size=n)
        if ties:
            v = np.round(2.0 * v)
        v[0] = v[-1] = 50.0
        values.append(v)
    x, y, z = (xg.TimeSeries(v) for v in values)
    sx, sy, sz = (xg.ThresholdSpec(q, xg.UPPER).resolve(s) for s in (x, y, z))
    if ties:
        assert all(np.count_nonzero(v == s.resolved_threshold) > 1
                   for v, s in zip(values, (sx, sy, sz)))
    up, two = xg.upper_tail_region(), xg.two_sided_region()

    def bits(rep, spec):
        return [oracles.in_region(v / spec.resolved_threshold, up.intervals) for v in rep]

    if family == FAMILY_UNIVARIATE:
        kernel = xg.univariate_kernel(x, two, up, sx, max_lag)

        def rebuild(plan):
            rx = values[0][plan.index_array()]
            return oracles.brute_univariate(rx, sx.resolved_threshold, two.intervals, up.intervals,
                                            max_lag)
    elif family == FAMILY_CROSS:
        kernel = xg.cross_kernel(x, y, up, up, sx, sy, max_lag)

        def rebuild(plan):
            index = plan.index_array()
            rx, ry = values[0][index], values[1][index]
            return oracles.brute_cross(rx, sx.resolved_threshold, ry, sy.resolved_threshold,
                                       up.intervals, up.intervals, max_lag)
    elif family in (FAMILY_TRI_TARGET, FAMILY_TRI_SOURCE):
        target = family == FAMILY_TRI_TARGET
        kernel = (xg.tri_target_kernel if target else xg.tri_source_kernel)(
            x, y, z, sx, sy, sz, max_lag)
        brute = oracles.brute_tri_target if target else oracles.brute_tri_source

        def rebuild(plan):
            index = plan.index_array()
            reps = [v[index] for v in values]
            return brute(*(bits(r, s) for r, s in zip(reps, (sx, sy, sz))), max_lag)
    else:
        kernel = xg.return_times_kernel(x, up, sx, max_lag)

        def rebuild(plan):
            rx = values[0][plan.index_array()]
            return oracles.brute_return_times(rx, sx.resolved_threshold, up.intervals, max_lag)
    assert kernel.cond[0] == kernel.cond[-1] == 1
    return kernel, rebuild


def _literal_replicates(rebuild, n, p, seed, replicates):
    """Kept replicate rows and skip count, one literal rebuild per plan."""
    rows, skipped, plans = [], 0, []
    for i in range(replicates):
        plan = literal_block_plan(n, p, spawn_seed(seed, i))
        plans.append(plan)
        nums, denom = rebuild(plan)
        if denom == 0:
            skipped += 1
        else:
            rows.append(np.asarray(nums) / denom)
    return np.array(rows), skipped, plans


def _replicate_work(kernel, p):
    """The work ``bootstrap_bands`` sizes its passes by: the largest of the
    kernel's events, the expected blocks of a plan and the lags counted."""
    events = np.count_nonzero(kernel.cond)
    if kernel.resp is not kernel.cond:
        events += np.count_nonzero(kernel.resp)
    return max(int(events), int(kernel.n * p) + 1, int(kernel.lags[-1]) + 1)


def _pass_sizes(monkeypatch):
    """A list that gets (replicates, blocks) of each bootstrap pass from now
    on: each pass checks its plans once."""
    sizes = []
    check = resample._check_plans

    def spy(starts, lengths, blocks, n):
        sizes.append((blocks.size, lengths.size))
        return check(starts, lengths, blocks, n)

    monkeypatch.setattr(resample, "_check_plans", spy)
    return sizes


# (n, p, q, max_lag, seed), each bootstrapped with 100 replicates
ENGINE_CASES = {
    "unit_blocks": (120, 1.0, 0.9, 6, 31),
    "wrapping_blocks": (150, 0.04, 0.9, 8, 31),
    "max_lag_n_minus_1": (40, 0.2, 0.8, 39, 31),
    # a plan has about 1500 * 0.25 + 1 = 376 blocks, more than any family's
    # events, so the passes hold 2**14 // 376 = 43, 43 and 14 replicates
    "several_passes": (1500, 0.25, 0.95, 3, 31),
    # the largest seed takes two entropy words in the batched stream hash
    "max_seed": (150, 0.04, 0.9, 8, 2**64 - 1),
}


class TestEventEngine:
    @pytest.mark.parametrize("family", xg.FAMILIES)
    @pytest.mark.parametrize("case", sorted(ENGINE_CASES))
    def test_replicates_match_literal_rebuild(self, family, case, monkeypatch):
        n, p, q, max_lag, seed = ENGINE_CASES[case]
        kernel, rebuild = _family_rebuild(family, n, q, max_lag)
        rows, skipped, plans = _literal_replicates(rebuild, n, p, seed, 100)
        sizes = _pass_sizes(monkeypatch)
        for method in xg.BAND_METHODS:
            bands = xg.bootstrap_bands(kernel, p=p, replicates=100, seed=seed, method=method)
            assert np.array_equal(bands.replicates, rows)
            assert bands.skipped == skipped
        if case == "several_passes":
            assert [size for size, _ in sizes] == [43, 43, 14] * 2
        if case == "unit_blocks":
            assert all(np.all(plan.lengths == 1) for plan in plans)
        if case == "wrapping_blocks":
            assert any(np.any(plan.starts - 1 + plan.lengths > n) for plan in plans)
            assert any(plan.lengths.sum() > n for plan in plans)

    @pytest.mark.parametrize("family", [FAMILY_UNIVARIATE, FAMILY_RETURN_TIMES])
    def test_replicates_without_events_are_skipped(self, family):
        # 4 events in 100 unit blocks: a replicate misses them all with
        # probability 0.96**100 = 0.017
        n, p, replicates = 100, 1.0, 300
        kernel, rebuild = _family_rebuild(family, n, 0.96, 5)
        bands = xg.bootstrap_bands(kernel, p=p, replicates=replicates, seed=2)
        rows, skipped, _ = _literal_replicates(rebuild, n, p, 2, replicates)
        assert skipped > 0
        assert bands.skipped == skipped
        assert np.array_equal(bands.replicates, rows)

    @pytest.mark.parametrize("family", xg.FAMILIES)
    @pytest.mark.parametrize("n, p, q, replicates", [(300, 0.05, 0.9, 101),
                                                     (100, 1.0, 0.96, 300)])
    def test_results_do_not_depend_on_the_pass_size(self, family, n, p, q, replicates,
                                                    monkeypatch):
        # the second case has replicates without events
        kernel, _ = _family_rebuild(family, n, q, 5)
        work = _replicate_work(kernel, p)
        batch = 7  # neither 101 nor 300 is a multiple
        shapes = {1: [1] * replicates,
                  batch * work: [batch] * (replicates // batch) + [replicates % batch],
                  2**62: [replicates]}
        results, sizes = [], _pass_sizes(monkeypatch)
        for pass_work, shape in shapes.items():
            monkeypatch.setattr(resample, "PASS_WORK", pass_work)
            for method in xg.BAND_METHODS:
                sizes.clear()
                bands = xg.bootstrap_bands(kernel, p=p, replicates=replicates, seed=4,
                                           method=method)
                assert [size for size, _ in sizes] == shape
                results.append((method, bands))
        for method, bands in results[2:]:
            first = results[xg.BAND_METHODS.index(method)][1]
            for field in ("replicates", "lower", "upper"):
                assert np.array_equal(getattr(bands, field), getattr(first, field))
            assert bands.skipped == first.skipped
        if p == 1.0 and family in (FAMILY_UNIVARIATE, FAMILY_RETURN_TIMES):
            assert results[0][1].skipped > 0

    @pytest.mark.parametrize("p, max_lag", [(1 / 16, 3), (2**-40, 2**13 - 1)],
                             ids=["blocks", "counts"])
    def test_a_few_event_kernel_keeps_its_passes_within_pass_work(self, p, max_lag,
                                                                  monkeypatch):
        # 8 events, and about 1025 blocks or a row of 8192 counts a replicate.
        # Sized by its events alone, one pass would hold all 200 replicates:
        # about 205,000 blocks, or 1.6 million counts
        n = 2**14
        values = np.zeros(n)
        values[::n // 8] = 1.0
        spec = xg.ThresholdSpec(0.5, xg.UPPER, resolved_threshold=0.5)
        up = xg.upper_tail_region()
        kernel = xg.univariate_kernel(xg.TimeSeries(values), up, up, spec, max_lag)
        assert kernel.denominator == 8
        monkeypatch.setattr(resample, "SPLIT_POSITIONS", 2**62)  # every pass in this process
        sizes = _pass_sizes(monkeypatch)
        xg.bootstrap_bands(kernel, p=p, replicates=200, seed=3)
        batch = max(1, resample.PASS_WORK // _replicate_work(kernel, p))
        last = [200 % batch] if 200 % batch else []
        assert [size for size, _ in sizes] == [batch] * (200 // batch) + last
        for size, blocks in sizes:
            assert blocks <= resample.PASS_WORK
            assert size * (max_lag + 1) <= max(resample.PASS_WORK, max_lag + 1)

    def test_point_numerators_are_integer_counts(self):
        for family in xg.FAMILIES:
            kernel, rebuild = _family_rebuild(family, 300, 0.9, 7)
            counts = kernel.numerator_counts_of(kernel.cond, kernel.resp)
            assert counts.dtype.kind == "i"
            nums, denom = rebuild(xg.BlockPlan(starts=np.array([1]), lengths=np.array([300]), n=300))
            assert np.array_equal(counts, nums)
            assert kernel.denominator == denom


class TestTiesAtTheThreshold:
    """Integer-valued series, where the open regions must leave out the many
    values equal to a resolved threshold."""

    def test_exceedance_count_matches_the_oracle(self):
        values = np.round(2.0 * substream(8).standard_t(3, size=300))
        for q, tail in ((0.9, xg.UPPER), (0.1, xg.LOWER), (0.9, xg.TWO_SIDED)):
            spec = xg.ThresholdSpec(q, tail).resolve(xg.TimeSeries(values))
            scale = spec.resolved_threshold
            assert np.count_nonzero(np.abs(values) == scale) > 1
            region = spec.reference_region().intervals
            assert spec.exceedance_count == oracles.brute_univariate(values, scale, region,
                                                                     region, 0)[1]

    @pytest.mark.parametrize("family", xg.FAMILIES)
    def test_estimates_replicates_and_permutations_match_the_oracles(self, family):
        n, p, max_lag = 200, 0.1, 6
        kernel, rebuild = _family_rebuild(family, n, 0.9, max_lag, ties=True)
        nums, denom = rebuild(xg.BlockPlan(starts=np.array([1]), lengths=np.array([n]), n=n))
        assert kernel.denominator == denom
        assert np.array_equal(kernel.point_estimates(), nums / denom)
        for seed in (0, 1, 2):
            rows, skipped, _ = _literal_replicates(rebuild, n, p, seed, 100)
            bands = xg.bootstrap_bands(kernel, p=p, replicates=100, seed=seed)
            assert np.array_equal(bands.replicates, rows)
            assert bands.skipped == skipped
        # a permutation is the plan of n unit blocks that start at its order
        lag, values = list(kernel.lags).index(1), []
        for i in range(19):
            order = substream(5, i).permutation(n)
            nums, denom = rebuild(xg.BlockPlan(starts=order + 1, lengths=np.ones(n), n=n))
            values.append(nums[lag] / denom)
            assert kernel.lag_one_value(order) == values[-1]
        assert xg.permutation_bands(kernel, n_perm=19, seed=5) == (min(values), max(values))


def _permutation_case(case, n=600, q=0.9, max_lag=5):
    """A kernel on three t(3) series, with its conditioning and response bits
    from the oracle's own membership test."""
    rng = substream(17)
    x, y, z = (xg.TimeSeries(rng.standard_t(3, size=n)) for _ in range(3))
    sx, sy, sz = (xg.ThresholdSpec(q, xg.UPPER).resolve(s) for s in (x, y, z))
    up, two = xg.upper_tail_region(), xg.two_sided_region()

    def bits(series, spec, region=up):
        scale = spec.resolved_threshold
        return [oracles.in_region(v / scale, region.intervals) for v in series.values]

    def either(a, b):
        return [u or v for u, v in zip(a, b)]

    ex, ey, ez = bits(x, sx), bits(y, sy), bits(z, sz)
    if case == "univariate_a_eq_b":
        return xg.univariate_kernel(x, up, up, sx, max_lag), ex, ex
    if case == "univariate_a_ne_b":
        return xg.univariate_kernel(x, two, up, sx, max_lag), bits(x, sx, two), ex
    if case == FAMILY_CROSS:
        return xg.cross_kernel(x, y, up, up, sx, sy, max_lag), ex, ey
    if case == FAMILY_TRI_TARGET:
        return xg.tri_target_kernel(x, y, z, sx, sy, sz, max_lag), ex, either(ey, ez)
    return xg.tri_source_kernel(x, y, z, sx, sy, sz, max_lag), either(ex, ey), ez


class TestPermutationBands:
    def test_deterministic(self):
        kern = _uni_kernel()
        assert xg.permutation_bands(kern, seed=5) == xg.permutation_bands(kern, seed=5)

    def test_identity_permutation_gives_lag_one_point_estimate(self):
        kern = _uni_kernel(seed=2)
        lag_one = kern.point_estimates()[list(kern.lags).index(1)]
        assert kern.lag_one_value(np.arange(kern.n)) == lag_one

    @pytest.mark.parametrize("case", ["univariate_a_eq_b", "univariate_a_ne_b", FAMILY_CROSS,
                                      FAMILY_TRI_TARGET, FAMILY_TRI_SOURCE])
    def test_edges_match_literal_lag_one_over_the_same_orders(self, case):
        kern, cond, resp = _permutation_case(case)
        assert (kern.resp is kern.cond) == (case == "univariate_a_eq_b")
        n_perm, seed = 25, 6
        lower, upper = xg.permutation_bands(kern, n_perm=n_perm, seed=seed)
        values = [oracles.brute_lag_one(cond, resp, substream(seed, i).permutation(kern.n))
                  for i in range(n_perm)]
        assert (lower, upper) == (min(values), max(values))
        lag_one = kern.point_estimates()[list(kern.lags).index(1)]
        assert oracles.brute_lag_one(cond, resp, range(kern.n)) == lag_one

    def test_denominator_preserved_under_permutation(self):
        kern = _uni_kernel(seed=3)
        denom = kern.denominator
        for i in range(10):
            order = substream(123, i).permutation(kern.n)
            assert int(kern.cond[order].sum()) == denom

    def test_band_bounds_are_attained_values(self):
        kern = _uni_kernel(seed=4, n=500)
        lower, upper = xg.permutation_bands(kern, n_perm=25, seed=8)
        values = [
            kern.lag_one_value(substream(8, i).permutation(kern.n)) for i in range(25)
        ]
        assert lower == min(values)
        assert upper == max(values)

    def test_needs_at_least_one_permutation(self):
        with pytest.raises(InvalidInput):
            xg.permutation_bands(_uni_kernel(), n_perm=0, seed=0)


@pytest.mark.parametrize("count", [1000.0, 1000.5, "99"])
def test_count_that_is_not_an_integer_is_invalid_input(count):
    kern = _uni_kernel()
    with pytest.raises(InvalidInput, match=f"replicates .*got {count!r}$"):
        xg.bootstrap_bands(kern, p=0.05, replicates=count, seed=0)
    with pytest.raises(InvalidInput, match=f"permutations, got {count!r}$"):
        xg.permutation_bands(kern, n_perm=count, seed=0)


def test_numpy_integer_counts_are_accepted():
    kern = _uni_kernel()
    assert np.array_equal(xg.bootstrap_bands(kern, p=0.05, replicates=np.int64(100)).replicates,
                          xg.bootstrap_bands(kern, p=0.05, replicates=100).replicates)
    assert (xg.permutation_bands(kern, n_perm=np.uint8(9))
            == xg.permutation_bands(kern, n_perm=9))


def _split_kernel(case):
    """The five families, plus a univariate kernel with A != B."""
    if case == FAMILY_RETURN_TIMES:
        x = xg.TimeSeries(substream(17).standard_t(3, size=600))
        spec = xg.ThresholdSpec(0.9, xg.UPPER).resolve(x)
        return xg.return_times_kernel(x, xg.upper_tail_region(), spec, 5)
    return _permutation_case(case)[0]


def _raise_unpicklable():
    # the child cannot pickle this exception, so it leaves by os._exit(1)
    raise ValueError(lambda: None)


SPLIT_CASES = ["univariate_a_eq_b", "univariate_a_ne_b", FAMILY_CROSS, FAMILY_TRI_TARGET,
               FAMILY_TRI_SOURCE, FAMILY_RETURN_TIMES]


class TestSplit:
    """Replicates and permutations cut into ranges, one per worker, give the
    one-process results exactly; the split is forced at these small sizes."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("case", SPLIT_CASES)
    def test_results_do_not_depend_on_the_worker_count(self, case, workers, force_split):
        kern = _split_kernel(case)
        # 101 replicates and 100 permutations: neither divides evenly over 2 or 3
        boots = [xg.bootstrap_bands(kern, p=0.05, replicates=101, seed=9, method=method)
                 for method in xg.BAND_METHODS]
        perm = xg.permutation_bands(kern, n_perm=100, seed=9)
        forked = force_split(workers)
        for method, boot in zip(xg.BAND_METHODS, boots):
            split = xg.bootstrap_bands(kern, p=0.05, replicates=101, seed=9, method=method)
            for field in ("replicates", "lower", "upper"):
                assert np.array_equal(getattr(split, field), getattr(boot, field))
            assert split.skipped == boot.skipped
        assert xg.permutation_bands(kern, n_perm=100, seed=9) == perm
        assert len(forked) == 3 * (workers - 1)  # none with one CPU
        assert_no_children()

    def test_skipped_replicates_are_summed_over_the_ranges(self, force_split):
        kernel, _ = _family_rebuild(FAMILY_UNIVARIATE, 100, 0.96, 5)
        one = xg.bootstrap_bands(kernel, p=1.0, replicates=301, seed=2)
        force_split(3)
        split = xg.bootstrap_bands(kernel, p=1.0, replicates=301, seed=2)
        assert one.skipped > 0
        assert split.skipped == one.skipped
        assert np.array_equal(split.replicates, one.replicates)

    def test_unstable_resample_is_the_same_error(self, force_split):
        x = xg.TimeSeries(np.concatenate(([50.0], np.zeros(99))))
        spec = xg.ThresholdSpec(0.5, xg.UPPER, resolved_threshold=10.0)
        kern = xg.univariate_kernel(x, xg.upper_tail_region(), xg.upper_tail_region(), spec, 3)
        messages = []
        for workers in (1, 3):
            force_split(workers)
            with pytest.raises(AnalysisFailed) as err:
                xg.bootstrap_bands(kern, p=0.1, replicates=200, seed=0)
            messages.append(str(err.value))
            assert_no_children()
        assert messages[0] == messages[1]

    @pytest.mark.parametrize("rule, processes", [(6001, 1), (6000, 2), (4001, 2), (4000, 3)])
    def test_each_process_gets_at_least_half_the_rule(self, rule, processes, force_split,
                                                      monkeypatch):
        # 3 permutations at n = 2000 are 6000 positions; the CPUs do not bound the split
        kern = _uni_kernel()
        one = xg.permutation_bands(kern, n_perm=3, seed=1)
        forked = force_split(3)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
        monkeypatch.setattr(resample, "SPLIT_POSITIONS", rule)
        assert xg.permutation_bands(kern, n_perm=3, seed=1) == one
        assert len(forked) == processes - 1
        assert_no_children()

    def test_no_split_without_cpu_affinity(self, force_split, monkeypatch):
        kern = _uni_kernel()
        forked = force_split(3)
        monkeypatch.delattr(os, "sched_getaffinity")
        xg.permutation_bands(kern, n_perm=100, seed=1)
        assert forked == []

    @pytest.mark.parametrize("side", ["child", "caller"])
    @pytest.mark.parametrize("call", ["bootstrap", "permutation"])
    def test_an_error_in_one_range_reaches_the_caller(self, call, side, force_split,
                                                      monkeypatch):
        # the caller computes the range that starts at 0, the children the others
        caller = os.getpid()
        name = "event_counts" if call == "bootstrap" else "lag_one_value"
        counted = getattr(xg.RatioKernel, name)

        def failing(self, *args, **kwargs):
            # point estimates pass the stride by keyword, bootstrap passes do not
            in_range = not kwargs
            if in_range and (os.getpid() == caller) == (side == "caller"):
                raise ValueError(f"{name} failed in the {side}")
            return counted(self, *args, **kwargs)

        kern = _uni_kernel()
        forked = force_split(3)
        monkeypatch.setattr(xg.RatioKernel, name, failing)
        with pytest.raises(ValueError, match=f"^{name} failed in the {side}$"):
            if call == "bootstrap":
                xg.bootstrap_bands(kern, p=0.05, replicates=150, seed=1)
            else:
                xg.permutation_bands(kern, n_perm=30, seed=1)
        assert len(forked) == 2
        assert_no_children()


    @pytest.mark.parametrize("death, how", [
        (lambda: os._exit(3), "exit status 3"),
        (lambda: os.kill(os.getpid(), signal.SIGKILL), "signal 9"),
        (_raise_unpicklable, "exit status 1"),
    ])
    def test_a_child_that_sends_no_result_is_an_extremogram_error(self, death, how,
                                                                   force_split, monkeypatch):
        caller, lag_one_value = os.getpid(), xg.RatioKernel.lag_one_value

        def dying(self, order):
            if os.getpid() != caller:
                death()
            return lag_one_value(self, order)

        forked = force_split(3)
        monkeypatch.setattr(xg.RatioKernel, "lag_one_value", dying)
        with pytest.raises(ExtremogramError, match=rf"^a worker process sent no readable "
                                                   rf"result \({how}; EOFError: "):
            xg.permutation_bands(_uni_kernel(), n_perm=30, seed=1)
        assert len(forked) == 2
        assert_no_children()


    def test_a_child_interrupted_before_its_range_leaves_at_once(self, force_split,
                                                                 monkeypatch):
        # Ctrl-C just after the fork: the child must not unwind through the caller's cleanup
        fork = os.fork

        def interrupted_fork():
            pid = fork()
            if pid == 0:
                raise KeyboardInterrupt
            return pid

        force_split(2)
        monkeypatch.setattr(os, "fork", interrupted_fork)
        with pytest.raises(ExtremogramError, match=r"\(exit status 1; EOFError: "):
            xg.permutation_bands(_uni_kernel(), n_perm=30, seed=1)
        assert_no_children()


PACKAGE_ERRORS = [pytest.param(cls, "boom", id=cls.__name__) for cls in vars(errors).values()
                  if isinstance(cls, type) and issubclass(cls, ExtremogramError)] + [
    # the three ways an analysis fails, each with the text its raising site uses
    pytest.param(AnalysisFailed, "no conditioning events at quantile level 0.9 (n=100); lower q",
                 id="NoExceedances"),
    pytest.param(AnalysisFailed, "11 of 200 replicates had no conditioning events",
                 id="UnstableResample"),
    pytest.param(AnalysisFailed, "quasi-likelihood scoring did not converge in 200 iterations",
                 id="FitDiverged"),
]


@pytest.mark.parametrize("cls, message", PACKAGE_ERRORS)
def test_a_package_error_in_a_child_reaches_the_caller_as_itself(cls, message, force_split,
                                                                monkeypatch):
    # raised by a stub in the forked children only, and pickled back to the caller
    caller, lag_one_value = os.getpid(), xg.RatioKernel.lag_one_value

    def failing(self, order):
        if os.getpid() != caller:
            raise cls(message)
        return lag_one_value(self, order)

    kern = _uni_kernel()
    forked = force_split(3)
    monkeypatch.setattr(xg.RatioKernel, "lag_one_value", failing)
    with pytest.raises(cls, match=f"^{re.escape(message)}$") as err:
        xg.permutation_bands(kern, n_perm=30, seed=1)
    assert type(err.value) is cls
    assert len(forked) == 2
    assert_no_children()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call", [
    lambda kern: kern.point_estimates(),
    lambda kern: xg.permutation_bands(kern, n_perm=9, seed=0),
    lambda kern: xg.bootstrap_bands(kern, p=0.1, replicates=100, seed=0),
], ids=["point_estimates", "permutation_bands", "bootstrap_bands"])
def test_kernel_without_conditioning_events_is_invalid_input(call):
    kern = dataclasses.replace(_uni_kernel(), cond=np.zeros(2000, dtype=np.int64))
    with pytest.raises(InvalidInput, match="no conditioning events"):
        call(kern)


@pytest.mark.parametrize("case", ["univariate_a_eq_b", "univariate_a_ne_b", FAMILY_CROSS])
def test_integer_indicator_arrays_give_the_same_results(case):
    kern, _, _ = _permutation_case(case)
    ints = dataclasses.replace(kern, cond=kern.cond.astype(np.int64),
                               resp=kern.resp.astype(np.int64))
    assert kern.cond.dtype == kern.resp.dtype == bool
    assert np.array_equal(ints.point_estimates(), kern.point_estimates())
    assert xg.permutation_bands(ints, n_perm=9, seed=1) == xg.permutation_bands(kern, n_perm=9,
                                                                                 seed=1)
    boots = [xg.bootstrap_bands(k, p=0.05, replicates=100, seed=2).replicates
             for k in (ints, kern)]
    assert np.array_equal(*boots)


def test_block_size_sensitivity_with_planted_dependence():
    # planted co-exceedances at lag 79: larger mean block sizes let the
    # replicates carry more of that dependence
    rng = substream(1234, 0)
    n = 10_000
    x = rng.standard_normal(n)
    anchors = np.arange(200, n - 200, 160)
    x[anchors] = 6.0 + rng.uniform(0, 1, anchors.size)
    x[anchors + 79] = 6.0 + rng.uniform(0, 1, anchors.size)
    series = xg.TimeSeries(x)
    spec = xg.ThresholdSpec(0.98, xg.UPPER).resolve(series)
    reg = xg.upper_tail_region()
    kern = xg.univariate_kernel(series, reg, reg, spec, 79)
    quantiles = []
    for mean_block in (50, 100, 200):
        bands = xg.bootstrap_bands(kern, p=1.0 / mean_block, replicates=400, seed=0)
        quantiles.append(np.quantile(bands.replicates[:, 79], 0.975))
    assert quantiles[0] <= quantiles[1] <= quantiles[2]
