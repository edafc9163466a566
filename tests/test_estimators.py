import dataclasses
import math

import numpy as np
import pytest

import extremogram as xg
from extremogram.errors import AnalysisFailed, InvalidInput

import oracles


def _upper_spec(scale):
    return xg.ThresholdSpec(0.5, xg.UPPER, resolved_threshold=scale)


class TestSampleExtremogram:
    def test_hand_counts(self):
        x = xg.TimeSeries([10.0, 0.0, 0.0, 10.0])
        reg = xg.upper_tail_region()
        kern = xg.univariate_kernel(x, reg, reg, _upper_spec(5.0), 3)
        # rho(3) = 1/2: only t=1 is eligible at lag 3
        assert kern.point_estimates().tolist() == [1.0, 0.0, 0.0, 0.5]
        assert kern.denominator == 2

    def test_equal_regions_share_one_indicator_array(self):
        x = xg.TimeSeries(np.random.default_rng(1).standard_normal(300))
        spec = xg.ThresholdSpec(0.9, xg.UPPER).resolve(x)
        up = xg.upper_tail_region()
        kern = xg.univariate_kernel(x, up, up, spec, 5)
        assert kern.resp is kern.cond
        kern = xg.univariate_kernel(x, up, xg.ExtremalRegion(((2.0, math.inf),)), spec, 5)
        assert kern.resp is not kern.cond

    def test_lag_zero_is_one_when_regions_match(self):
        rng = np.random.default_rng(1)
        x = xg.TimeSeries(rng.standard_normal(300))
        spec = xg.ThresholdSpec(0.9, xg.UPPER).resolve(x)
        reg = xg.upper_tail_region()
        est = xg.univariate_kernel(x, reg, reg, spec, 5).point_estimates()
        assert est[0] == 1.0

    def test_matches_brute_force_recount(self):
        rng = np.random.default_rng(42)
        values = rng.uniform(size=200)
        x = xg.TimeSeries(values)
        spec = xg.ThresholdSpec(0.9, xg.UPPER).resolve(x)
        reg = xg.upper_tail_region()
        kern = xg.univariate_kernel(x, reg, reg, spec, 10)
        nums, denom = oracles.brute_univariate(
            values, spec.resolved_threshold, reg.intervals, reg.intervals, 10
        )
        assert kern.denominator == denom
        assert np.array_equal(kern.point_estimates(), nums / denom)

    def test_no_exceedances(self):
        x = xg.TimeSeries([1.0, 1.0, 1.0, 1.0])
        with pytest.raises(AnalysisFailed) as err:
            xg.univariate_kernel(
                x, xg.upper_tail_region(), xg.upper_tail_region(), _upper_spec(5.0), 2
            ).point_estimates()
        assert "(n=4)" in str(err.value)

    def test_max_lag_bounds(self):
        x = xg.TimeSeries([10.0, 0.0, 0.0, 10.0])
        reg = xg.upper_tail_region()
        with pytest.raises(InvalidInput):
            xg.univariate_kernel(x, reg, reg, _upper_spec(5.0), 4).point_estimates()
        with pytest.raises(InvalidInput):
            xg.univariate_kernel(x, reg, reg, _upper_spec(5.0), -1).point_estimates()


class TestCrossExtremogram:
    def test_collapses_to_univariate_when_series_equal(self):
        rng = np.random.default_rng(9)
        values = rng.standard_t(4, size=400)
        x = xg.TimeSeries(values)
        spec = xg.ThresholdSpec(0.92, xg.UPPER).resolve(x)
        reg = xg.upper_tail_region()
        uni = xg.univariate_kernel(x, reg, reg, spec, 8).point_estimates()
        cross = xg.cross_kernel(x, x, reg, reg, spec, spec, 8).point_estimates()
        assert np.array_equal(uni, cross)

    def test_directionality(self):
        # y is x delayed by one step, so x-conditioned lag 1 fires and the
        # reverse direction does not
        rng = np.random.default_rng(11)
        base = rng.standard_normal(500)
        x = xg.TimeSeries(base)
        y = xg.TimeSeries(np.concatenate(([0.0], base[:-1])))
        spec_x = xg.ThresholdSpec(0.95, xg.UPPER).resolve(x)
        spec_y = xg.ThresholdSpec(0.95, xg.UPPER).resolve(y)
        reg = xg.upper_tail_region()
        fwd = xg.cross_kernel(x, y, reg, reg, spec_x, spec_y, 3).point_estimates()
        rev = xg.cross_kernel(y, x, reg, reg, spec_y, spec_x, 3).point_estimates()
        assert fwd[1] > 0.9
        assert rev[1] < 0.2

    def test_matches_brute_force(self):
        rng = np.random.default_rng(13)
        xv = rng.standard_t(3, size=150)
        yv = rng.standard_t(3, size=150)
        x, y = xg.TimeSeries(xv), xg.TimeSeries(yv)
        spec_x = xg.ThresholdSpec(0.9, xg.UPPER).resolve(x)
        spec_y = xg.ThresholdSpec(0.85, xg.UPPER).resolve(y)
        reg = xg.upper_tail_region()
        kern = xg.cross_kernel(x, y, reg, reg, spec_x, spec_y, 7)
        nums, denom = oracles.brute_cross(
            xv, spec_x.resolved_threshold, yv, spec_y.resolved_threshold,
            reg.intervals, reg.intervals, 7,
        )
        assert kern.denominator == denom
        assert np.array_equal(kern.point_estimates(), nums / denom)

    def test_length_mismatch(self):
        x = xg.TimeSeries([1.0, 2.0, 3.0])
        y = xg.TimeSeries([1.0, 2.0])
        spec = _upper_spec(1.0)
        reg = xg.upper_tail_region()
        with pytest.raises(InvalidInput):
            xg.cross_kernel(x, y, reg, reg, spec, spec, 1).point_estimates()

    def test_lag_one_shock_carry_over_after_devolatilization(self):
        # one series reacts to the other's previous-day shock: after fitting
        # away the volatilities, the cross-extremogram spikes at lag 1 and
        # only there
        n = 20_000
        x = xg.simulate_garch(xg.GarchParams(), n + 1, burn_in=2000, seed=60)
        noise = xg.simulate_garch(xg.GarchParams(), n, burn_in=2000, seed=61)
        lead = xg.TimeSeries(x.values[1:])
        lagged_mix = xg.TimeSeries(0.8 * x.values[:-1] + 0.6 * noise.values)
        rx = xg.TimeSeries(xg.fit_garch_qmle(lead).residuals)
        ry = xg.TimeSeries(xg.fit_garch_qmle(lagged_mix).residuals)
        spec_x = xg.ThresholdSpec(0.04, xg.LOWER).resolve(rx)
        spec_y = xg.ThresholdSpec(0.04, xg.LOWER).resolve(ry)
        reg = xg.lower_tail_region()
        kern = xg.cross_kernel(rx, ry, reg, reg, spec_x, spec_y, 5)
        est = kern.point_estimates()
        _, upper = xg.permutation_bands(kern, n_perm=99, seed=0)
        assert est[1] > upper
        assert np.all(est[2:] < 2 * upper)

    def test_iid_series_stay_within_permutation_band(self):
        # under independence the lag-1 cross value is exchangeable with the
        # permutation values, so containment holds in about 98% of trials
        hits = 0
        trials = 100
        for trial in range(trials):
            rng = np.random.default_rng(3000 + trial)
            x = xg.TimeSeries(rng.standard_normal(2000))
            y = xg.TimeSeries(rng.standard_normal(2000))
            spec_x = xg.ThresholdSpec(0.96, xg.UPPER).resolve(x)
            spec_y = xg.ThresholdSpec(0.96, xg.UPPER).resolve(y)
            reg = xg.upper_tail_region()
            kern = xg.cross_kernel(x, y, reg, reg, spec_x, spec_y, 1)
            est = kern.point_estimates()
            lower, upper = xg.permutation_bands(kern, n_perm=99, seed=trial)
            hits += lower <= est[1] <= upper
        assert hits >= 95


class TestTrivariate:
    @staticmethod
    def _series(seed, n=200):
        rng = np.random.default_rng(seed)
        return [xg.TimeSeries(rng.standard_t(4, size=n)) for _ in range(3)]

    def test_target_with_duplicate_response_collapses_to_cross(self):
        x, y, _ = self._series(21)
        specs = [xg.ThresholdSpec(0.9, xg.UPPER).resolve(s) for s in (x, y, y)]
        tri = xg.tri_target_kernel(x, y, y, specs[0], specs[1], specs[2], 6).point_estimates()
        reg = xg.upper_tail_region()
        cross = xg.cross_kernel(x, y, reg, reg, specs[0], specs[1], 6).point_estimates()
        assert np.array_equal(tri, cross)

    def test_source_with_duplicate_condition_collapses_to_cross(self):
        x, _, z = self._series(22)
        specs = [xg.ThresholdSpec(0.9, xg.UPPER).resolve(s) for s in (x, x, z)]
        tri = xg.tri_source_kernel(x, x, z, specs[0], specs[1], specs[2], 6).point_estimates()
        reg = xg.upper_tail_region()
        cross = xg.cross_kernel(x, z, reg, reg, specs[0], specs[2], 6).point_estimates()
        assert np.array_equal(tri, cross)

    def test_both_variants_match_brute_force(self):
        x, y, z = self._series(23, n=20)
        specs = [xg.ThresholdSpec(0.7, xg.UPPER).resolve(s) for s in (x, y, z)]
        bits = [
            xg.make_indicators(s, xg.upper_tail_region(), sp).tolist()
            for s, sp in zip((x, y, z), specs)
        ]
        tri1 = xg.tri_target_kernel(x, y, z, *specs, 5)
        nums1, den1 = oracles.brute_tri_target(*bits, 5)
        assert tri1.denominator == den1
        assert np.array_equal(tri1.point_estimates(), nums1 / den1)
        tri2 = xg.tri_source_kernel(x, y, z, *specs, 5)
        nums2, den2 = oracles.brute_tri_source(*bits, 5)
        assert tri2.denominator == den2
        assert np.array_equal(tri2.point_estimates(), nums2 / den2)

    def test_independent_series_estimate_near_marginal_rate(self):
        rng = np.random.default_rng(77)
        n = 20_000
        series = [xg.TimeSeries(rng.standard_normal(n)) for _ in range(3)]
        specs = [xg.ThresholdSpec(0.96, xg.UPPER).resolve(s) for s in series]
        kern = xg.tri_source_kernel(*series, *specs, 10)
        se = np.sqrt(0.04 * 0.96 / kern.denominator)
        assert np.all(np.abs(kern.point_estimates()[1:] - 0.04) <= 3 * se)

    def test_lower_tail_specs_use_scaled_region_convention(self):
        rng = np.random.default_rng(88)
        series = [xg.TimeSeries(rng.standard_normal(500)) for _ in range(3)]
        specs = [xg.ThresholdSpec(0.1, xg.LOWER).resolve(s) for s in series]
        bits = [
            [1 if v / sp.resolved_threshold < -1.0 else 0 for v in s.values]
            for s, sp in zip(series, specs)
        ]
        kern = xg.tri_target_kernel(*series, *specs, 4)
        nums, den = oracles.brute_tri_target(*bits, 4)
        assert kern.denominator == den
        assert np.array_equal(kern.point_estimates(), nums / den)


class TestReturnTimes:
    def test_hand_pattern(self):
        # bits 1 0 0 1 0 1: gaps 3 and 2, three events
        x = xg.TimeSeries([2.0, 0.0, 0.0, 2.0, 0.0, 2.0])
        kern = xg.return_times_kernel(x, xg.upper_tail_region(), _upper_spec(1.0), 5)
        assert kern.denominator == 3
        assert kern.numerator_counts_of(kern.cond, kern.resp).tolist() == [0, 1, 1, 0, 0]
        assert kern.lags.tolist() == [1, 2, 3, 4, 5]
        assert kern.point_estimates().sum() == pytest.approx(2.0 / 3.0)

    def test_lag_one_counts_immediate_repeats(self):
        x = xg.TimeSeries([2.0, 2.0, 0.0, 2.0])
        kern = xg.return_times_kernel(x, xg.upper_tail_region(), _upper_spec(1.0), 3)
        counts = kern.numerator_counts_of(kern.cond, kern.resp)
        assert counts[0] == 1
        assert counts[1] == 1

    def test_matches_both_oracles(self):
        rng = np.random.default_rng(31)
        values = rng.standard_normal(500)
        x = xg.TimeSeries(values)
        spec = xg.ThresholdSpec(0.9, xg.UPPER).resolve(x)
        reg = xg.upper_tail_region()
        kern = xg.return_times_kernel(x, reg, spec, 20)
        counts = kern.numerator_counts_of(kern.cond, kern.resp)
        scale = spec.resolved_threshold
        nums, denom = oracles.brute_return_times(values, scale, reg.intervals, 20)
        gaps, total = oracles.event_gap_histogram(values, scale, reg.intervals, 20)
        assert kern.denominator == denom == total
        assert counts.tolist() == nums.tolist()
        assert dict(zip(kern.lags.tolist(), counts.tolist())) == gaps
        # the estimator is the kernel's point estimate, like every other family
        assert kern.family == "return_times"
        assert np.array_equal(kern.point_estimates(), nums / denom)

    def test_partition_identity(self):
        # with the window covering every gap, the numerators account for all
        # events except those with no successor
        rng = np.random.default_rng(32)
        values = rng.standard_normal(300)
        x = xg.TimeSeries(values)
        spec = xg.ThresholdSpec(0.85, xg.UPPER).resolve(x)
        kern = xg.return_times_kernel(x, xg.upper_tail_region(), spec, 299)
        assert kern.numerator_counts_of(kern.cond, kern.resp).sum() == kern.denominator - 1

    def test_geometric_overlay_values(self):
        pmf = xg.geometric_pmf(0.1, np.array([1, 2, 3]))
        assert pmf == [0.1, 0.1 * 0.9, 0.1 * 0.81]
        assert all(type(v) is float for v in pmf)
        for p in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(InvalidInput, match="must be in \\(0, 1\\)"):
                xg.geometric_pmf(p, [1, 2])

    @pytest.mark.parametrize("lags, bad", [
        ([1, 1.5, 2.9], "1.5"), ([0, -1], "0"), ([1, 2.0], "2.0"), (["2"], "'2'"), ([True], "True"),
    ], ids=["fraction", "below_one", "whole_float", "string", "bool"])
    def test_geometric_lags_are_whole_and_at_least_one(self, lags, bad):
        # never truncated, and no value where the pmf is undefined
        with pytest.raises(InvalidInput, match=f"^lags must be at least 1, got {bad}$"):
            xg.geometric_pmf(0.1, lags)
        assert xg.geometric_pmf(0.1, [np.int64(2), 1]) == [0.1 * 0.9, 0.1]


class TestInvariants:
    def test_estimates_within_unit_interval_and_numerator_bound(self):
        rng = np.random.default_rng(60)
        for trial in range(25):
            values = rng.standard_t(3, size=80)
            x = xg.TimeSeries(values)
            spec = xg.ThresholdSpec(rng.uniform(0.6, 0.95), xg.UPPER).resolve(x)
            reg = xg.upper_tail_region()
            kern = xg.univariate_kernel(x, reg, reg, spec, 10)
            nums = kern.numerator_counts_of(kern.cond, kern.resp)
            assert np.all(nums <= kern.denominator)
            est = kern.point_estimates()
            assert np.all((est >= 0) & (est <= 1))

    def test_positive_scale_invariance_all_families(self):
        rng = np.random.default_rng(61)
        xv, yv, zv = (rng.standard_t(4, size=250) for _ in range(3))
        c = 37.5

        def upper_specs(arrs):
            return [xg.ThresholdSpec(0.9, xg.UPPER).resolve(xg.TimeSeries(a)) for a in arrs]

        reg = xg.upper_tail_region()
        for scale in (1.0, c):
            arrs = [xv * scale, yv * scale, zv * scale]
            s = upper_specs(arrs)
            ts = [xg.TimeSeries(a) for a in arrs]
            uni = xg.univariate_kernel(ts[0], reg, reg, s[0], 6).point_estimates()
            cross = xg.cross_kernel(ts[0], ts[1], reg, reg, s[0], s[1], 6).point_estimates()
            tri = xg.tri_target_kernel(*ts, *s, 6).point_estimates()
            rt = xg.return_times_kernel(ts[0], reg, s[0], 6).point_estimates()
            if scale == 1.0:
                base = (uni, cross, tri, rt)
        assert np.array_equal(base[0], uni)
        assert np.array_equal(base[1], cross)
        assert np.array_equal(base[2], tri)
        assert np.array_equal(base[3], rt)

    def test_estimate_validation(self):
        # estimates align with the lags, lie in [0, 1] and, for return times,
        # sum to at most 1: these hold by construction from integer counts,
        # so no library code checks them
        for name, build in sorted(BUILDERS.items()):
            kern = build(*_three_series())
            est = kern.point_estimates()
            assert est.shape == kern.lags.shape, name
            assert np.all((est >= 0.0) & (est <= 1.0)), name
            if kern.family == "return_times":
                assert est.sum() <= 1.0


# each kernel builder on three series and their resolved specs, with regions
# other than the reference region where the family takes regions
_REGION_A = xg.ExtremalRegion(((2.0, np.inf),))
_REGION_B = xg.two_sided_region()
BUILDERS = {
    "univariate_kernel": lambda s, t: xg.univariate_kernel(s[0], _REGION_A, _REGION_B, t[0], 5),
    "univariate_kernel_a_eq_b": lambda s, t: xg.univariate_kernel(
        s[0], _REGION_B, _REGION_B, t[0], 5),
    "cross_kernel": lambda s, t: xg.cross_kernel(s[0], s[1], _REGION_A, _REGION_B, *t[:2], 5),
    "tri_target_kernel": lambda s, t: xg.tri_target_kernel(*s, *t, 5),
    "tri_source_kernel": lambda s, t: xg.tri_source_kernel(*s, *t, 5),
    "return_times_kernel": lambda s, t: xg.return_times_kernel(s[0], _REGION_A, t[0], 5),
}


def _three_series():
    rng = np.random.default_rng(70)
    series = [xg.TimeSeries(rng.standard_t(3, size=2000)) for _ in range(3)]
    return series, [xg.ThresholdSpec(0.9, xg.UPPER).resolve(s) for s in series]


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_builders_leave_caller_specs_unchanged(name):
    series, specs = _three_series()
    before = [dataclasses.replace(spec) for spec in specs]
    BUILDERS[name](series, specs).point_estimates()
    assert specs == before
    assert [spec.exceedance_count for spec in specs] == [200, 200, 200]


@pytest.mark.parametrize("field", ["cond", "resp", "lags"])
@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_kernel_arrays_are_read_only(name, field):
    # the denominator is counted once per kernel, so the arrays it is
    # counted from must not change under it
    kern = BUILDERS[name](*_three_series())
    est = kern.point_estimates()
    with pytest.raises(ValueError, match="read-only"):
        getattr(kern, field)[:] = 1
    assert np.array_equal(kern.point_estimates(), est)
