import dataclasses
import os
import pickle
import signal

import numpy as np
import pytest

import extremogram as xg
import oracles
from conftest import assert_no_children
from extremogram import resample
from extremogram._rng import spawn_seed, substream
from extremogram.errors import ExtremogramError, InvalidInput, UnstableResample
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


class TestMaterialize:
    def test_circular_wrap(self):
        plan = xg.BlockPlan(starts=np.array([3]), lengths=np.array([4]), n=4)
        out = xg.materialize(plan, np.array([10.0, 20.0, 30.0, 40.0]))
        assert out.tolist() == [30.0, 40.0, 10.0, 20.0]

    def test_p_one_multiset_matches_regenerated_uniform_stream(self):
        # with unit blocks the output is n uniform draws from the sample;
        # the start stream is documented as substream(seed, 1)
        n, seed = 200, 321
        values = np.arange(float(n))
        plan = xg.draw_block_plan(n, 1.0, seed=seed)
        out = xg.materialize(plan, values)
        expected_idx = substream(seed, 1).integers(1, n + 1, size=n) - 1
        assert sorted(out.tolist()) == sorted(values[expected_idx].tolist())

    def test_shared_plan_keeps_alignment(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal(300)
        b = a * 2.0  # alignment detectable through the pairing
        plan = xg.draw_block_plan(300, 0.05, seed=8)
        out_a, out_b = xg.materialize(plan, [a, b])
        assert np.array_equal(out_b, out_a * 2.0)

    def test_length_mismatch(self):
        plan = xg.draw_block_plan(10, 0.5, seed=1)
        with pytest.raises(InvalidInput):
            xg.materialize(plan, np.arange(11.0))

    def test_accepts_series_and_indicators(self):
        bits = _indicator_bits(n=100)
        plan = xg.draw_block_plan(100, 0.1, seed=2)
        out = xg.materialize(plan, bits)
        assert out.shape == (100,)
        assert set(np.unique(out)) <= {0, 1}
        series = xg.TimeSeries(np.arange(100.0))
        assert xg.materialize(plan, series).tolist() == plan.index_array().tolist()


class TestBootstrapVariance:
    def test_constant_bits_give_zero(self):
        assert xg.bootstrap_variance_s2(np.ones(50), 0.2) == 0.0
        assert xg.bootstrap_variance_s2(np.zeros(50), 0.2) == 0.0

    def test_hand_computed_value(self):
        # n=6 bits, p=1/2: the closed form evaluates to 61/384 on paper
        bits = np.array([1, 0, 1, 0, 0, 1])
        assert xg.bootstrap_variance_s2(bits, 0.5) == pytest.approx(61.0 / 384.0, abs=1e-12)

    def test_p_one_reduces_to_lag_zero_autocovariance(self):
        bits = _indicator_bits(n=400).astype(float)
        c0 = np.mean((bits - bits.mean()) ** 2)
        assert xg.bootstrap_variance_s2(bits, 1.0) == pytest.approx(c0, rel=1e-12)

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
            plan = xg.draw_block_plan(1000, p, spawn_seed(7, i))
            means[i] = xg.materialize(plan, bits).mean()
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
            plan = xg.draw_block_plan(500, p, spawn_seed(77, i))
            total += xg.materialize(plan, bits).mean()
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
        plan = xg.draw_block_plan(kern.n, 0.05, spawn_seed(seed, 0))
        c, r = xg.materialize(plan, [kern.cond, kern.resp])
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
        with pytest.raises(UnstableResample) as err:
            xg.bootstrap_bands(kern, p=0.1, replicates=200, seed=0)
        assert err.value.skip_rate > 0.05

    def test_replicate_floor(self):
        kern = _uni_kernel()
        with pytest.raises(InvalidInput):
            xg.bootstrap_bands(kern, p=0.02, replicates=50, seed=0)

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


def _family_rebuild(family, n, q, max_lag, seed=0):
    """A family's kernel on three t(3) series with events at positions 0 and
    n-1, and a literal rebuild of one replicate: materialize the values under
    the plan, then count with the brute-force oracle. The univariate response
    region (upper) differs from its conditioning region (two-sided)."""
    rng = substream(seed)
    values = []
    for _ in range(3):
        v = rng.standard_t(3, size=n)
        v[0] = v[-1] = 50.0
        values.append(v)
    x, y, z = (xg.TimeSeries(v) for v in values)
    sx, sy, sz = (xg.ThresholdSpec(q, xg.UPPER).resolve(s) for s in (x, y, z))
    up, two = xg.upper_tail_region(), xg.two_sided_region()

    def bits(rep, spec):
        return [oracles.in_region(v / spec.scale, up.intervals) for v in rep]

    if family == FAMILY_UNIVARIATE:
        kernel = xg.univariate_kernel(x, two, up, sx, max_lag)

        def rebuild(plan):
            rx = xg.materialize(plan, values[0])
            return oracles.brute_univariate(rx, sx.scale, two.intervals, up.intervals, max_lag)
    elif family == FAMILY_CROSS:
        kernel = xg.cross_kernel(x, y, up, up, sx, sy, max_lag)

        def rebuild(plan):
            rx, ry = xg.materialize(plan, values[:2])
            return oracles.brute_cross(rx, sx.scale, ry, sy.scale, up.intervals, up.intervals,
                                       max_lag)
    elif family in (FAMILY_TRI_TARGET, FAMILY_TRI_SOURCE):
        target = family == FAMILY_TRI_TARGET
        kernel = (xg.tri_target_kernel if target else xg.tri_source_kernel)(
            x, y, z, sx, sy, sz, max_lag)
        brute = oracles.brute_tri_target if target else oracles.brute_tri_source

        def rebuild(plan):
            reps = xg.materialize(plan, values)
            return brute(*(bits(r, s) for r, s in zip(reps, (sx, sy, sz))), max_lag)
    else:
        kernel = xg.return_times_kernel(x, up, sx, max_lag)

        def rebuild(plan):
            rx = xg.materialize(plan, values[0])
            return oracles.brute_return_times(rx, sx.scale, up.intervals, max_lag)
    assert kernel.cond[0] == kernel.cond[-1] == 1
    return kernel, rebuild


def _literal_replicates(rebuild, n, p, seed, replicates):
    """Kept replicate rows and skip count, one literal rebuild per plan."""
    rows, skipped, plans = [], 0, []
    for i in range(replicates):
        plan = xg.draw_block_plan(n, p, spawn_seed(seed, i))
        plans.append(plan)
        nums, denom = rebuild(plan)
        if denom == 0:
            skipped += 1
        else:
            rows.append(np.asarray(nums) / denom)
    return np.array(rows), skipped, plans


# (n, p, q, max_lag, seed), each bootstrapped with 100 replicates
ENGINE_CASES = {
    "unit_blocks": (120, 1.0, 0.9, 6, 31),
    "wrapping_blocks": (150, 0.04, 0.9, 8, 31),
    "max_lag_n_minus_1": (40, 0.2, 0.8, 39, 31),
    # replicates are counted in passes of 2**16 // 1500 = 43; 100 is not a multiple
    "several_passes": (1500, 0.02, 0.95, 3, 31),
    # the largest seed takes two entropy words in the batched stream hash
    "max_seed": (150, 0.04, 0.9, 8, 2**64 - 1),
}


class TestEventEngine:
    @pytest.mark.parametrize("family", xg.FAMILIES)
    @pytest.mark.parametrize("case", sorted(ENGINE_CASES))
    def test_replicates_match_literal_rebuild(self, family, case):
        n, p, q, max_lag, seed = ENGINE_CASES[case]
        kernel, rebuild = _family_rebuild(family, n, q, max_lag)
        rows, skipped, plans = _literal_replicates(rebuild, n, p, seed, 100)
        for method in xg.BAND_METHODS:
            bands = xg.bootstrap_bands(kernel, p=p, replicates=100, seed=seed, method=method)
            assert np.array_equal(bands.replicates, rows)
            assert bands.skipped == skipped
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

    def test_point_numerators_are_integer_counts(self):
        for family in xg.FAMILIES:
            kernel, rebuild = _family_rebuild(family, 300, 0.9, 7)
            counts = kernel.numerator_counts()
            assert counts.dtype.kind == "i"
            nums, denom = rebuild(xg.BlockPlan(starts=np.array([1]), lengths=np.array([300]), n=300))
            assert np.array_equal(counts, nums)
            assert kernel.denominator == denom


def _permutation_case(case, n=600, q=0.9, max_lag=5):
    """A kernel on three t(3) series, with its conditioning and response bits
    from the oracle's own membership test."""
    rng = substream(17)
    x, y, z = (xg.TimeSeries(rng.standard_t(3, size=n)) for _ in range(3))
    sx, sy, sz = (xg.ThresholdSpec(q, xg.UPPER).resolve(s) for s in (x, y, z))
    up, two = xg.upper_tail_region(), xg.two_sided_region()

    def bits(series, spec, region=up):
        return [oracles.in_region(v / spec.scale, region.intervals) for v in series.values]

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
        errors = []
        for workers in (1, 3):
            force_split(workers)
            with pytest.raises(UnstableResample) as err:
                xg.bootstrap_bands(kern, p=0.1, replicates=200, seed=0)
            errors.append((str(err.value), err.value.skip_rate))
            assert_no_children()
        assert errors[0] == errors[1]

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


def test_unstable_resample_survives_pickling():
    err = pickle.loads(pickle.dumps(UnstableResample("3 of 100 replicates", skip_rate=0.03)))
    assert (type(err), str(err), err.skip_rate) == (UnstableResample, "3 of 100 replicates", 0.03)


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
