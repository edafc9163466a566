import dataclasses
import math

import numpy as np
import pytest

import extremogram as xg
from extremogram.core import quantile_rank
from extremogram.errors import DegenerateThreshold, InvalidInput, InvalidState


# the decided public surface (46 names): a new public name is a deliberate change here
PUBLIC_NAMES = [
    "BAND_METHODS", "BlockPlan", "BootstrapBands", "DegenerateThreshold", "ExtremalRegion",
    "ExtremogramError", "FAMILIES", "FitDiverged", "GarchParams", "InvalidInput",
    "InvalidState", "LOWER", "METHOD_CENTERED", "METHOD_QUANTILE", "NoExceedances",
    "RatioKernel", "SvParams", "TAILS", "TWO_SIDED", "ThresholdSpec",
    "TimeSeries", "UPPER", "UnstableResample", "VolatilityDecomposition", "__version__",
    "bootstrap_bands", "bootstrap_variance_s2", "cross_kernel", "devolatilize",
    "draw_block_plan", "empirical_quantile", "fit_garch_qmle", "geometric_pmf", "log_returns",
    "lower_tail_region", "make_indicators", "materialize", "permutation_bands",
    "return_times_kernel", "simulate_garch", "simulate_sv", "tri_source_kernel",
    "tri_target_kernel", "two_sided_region", "univariate_kernel", "upper_tail_region",
]


def test_public_names_are_the_decided_surface():
    assert sorted(xg.__all__) == PUBLIC_NAMES
    assert all(hasattr(xg, name) for name in xg.__all__)


def test_time_series_rejects_bad_values():
    with pytest.raises(InvalidInput):
        xg.TimeSeries([])
    with pytest.raises(InvalidInput):
        xg.TimeSeries([1.0, float("nan")])
    with pytest.raises(InvalidInput):
        xg.TimeSeries([1.0, float("inf")])
    with pytest.raises(InvalidInput):
        xg.TimeSeries([1.0, 2.0], labels=("a",))


def test_time_series_values_immutable():
    ts = xg.TimeSeries([1.0, 2.0])
    with pytest.raises(ValueError):
        ts.values[0] = 5.0


class TestExtremalRegion:
    def test_membership_open_endpoints(self):
        region = xg.ExtremalRegion(((1.0, 2.0), (3.0, math.inf)))
        assert region.indicator(np.array([1.0, 1.5, 2.0, 100.0])).tolist() == [0, 1, 0, 1]

    def test_rejects_regions_touching_zero(self):
        for intervals in [((-1.0, 1.0),), ((0.0, 1.0),), ((-1.0, 0.0),)]:
            with pytest.raises(InvalidInput):
                xg.ExtremalRegion(intervals)

    def test_rejects_overlapping_intervals(self):
        with pytest.raises(InvalidInput):
            xg.ExtremalRegion(((1.0, 3.0), (2.0, 4.0)))


class TestEmpiricalQuantile:
    def test_order_statistic_convention(self):
        values = np.arange(1.0, 101.0)
        assert xg.empirical_quantile(xg.TimeSeries(values), 0.98) == 98.0

    def test_single_element(self):
        for q in (0.01, 0.5, 0.99):
            assert xg.empirical_quantile(xg.TimeSeries([5.0]), q) == 5.0

    def test_against_full_sort(self):
        rng = np.random.default_rng(2024)
        draws = rng.standard_normal(2000)
        q = 0.98
        expected = np.sort(draws)[math.ceil(2000 * q) - 1]
        got = xg.empirical_quantile(xg.TimeSeries(draws), q)
        assert got == expected
        assert abs(got - 2.054) < 0.15  # sanity band vs the theoretical quantile

    def test_permutation_invariance(self):
        rng = np.random.default_rng(7)
        values = rng.standard_t(3, size=501)
        shuffled = rng.permutation(values)
        for q in (0.1, 0.5, 0.9, 0.96):
            assert xg.empirical_quantile(xg.TimeSeries(values), q) == xg.empirical_quantile(
                xg.TimeSeries(shuffled), q
            )

    def test_rank_is_exact_at_large_n(self):
        # n*q in floats overshoots the integer by more than any fixed slack:
        # 3e8 * 0.07 = 21000000.000000004; the exact rank needs no array
        for q, percent in ((0.07, 7), (0.04, 4)):
            for n in (300_000_000, 700_000_000, 3_000_000_000):
                assert quantile_rank(n, q) == -(-n * percent // 100)
        assert quantile_rank(300_000_000, 0.07) == 21_000_000

    def test_rank_rounds_up_and_clamps(self):
        assert quantile_rank(100, 0.98) == 98
        assert quantile_rank(101, 0.98) == 99
        assert quantile_rank(10, 0.01) == 1
        assert quantile_rank(7, 0.999) == 7

    def test_rejects_bad_level(self):
        ts = xg.TimeSeries([1.0, 2.0])
        for q in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(InvalidInput):
                xg.empirical_quantile(ts, q)


class TestLogReturns:
    def test_hand_example(self):
        prices = xg.TimeSeries([1.0, math.e, math.e])
        out = xg.log_returns(prices)
        assert np.allclose(out.values, [1.0, 0.0], atol=1e-15)

    def test_flat_price(self):
        assert xg.log_returns(xg.TimeSeries([100.0, 100.0])).values.tolist() == [0.0]

    def test_against_two_pass_recomputation(self):
        rng = np.random.default_rng(55)
        prices = np.exp(np.cumsum(rng.normal(0, 0.01, size=300))) * 50.0
        out = xg.log_returns(xg.TimeSeries(prices))
        expected = np.diff(np.log(prices))
        assert np.array_equal(out.values, expected)

    def test_labels_shift_to_later_timestamp(self):
        prices = xg.TimeSeries([1.0, 2.0, 3.0], labels=("d1", "d2", "d3"))
        assert xg.log_returns(prices).labels == ("d2", "d3")

    def test_round_trip_with_cumulated_exponentials(self):
        rng = np.random.default_rng(90)
        r = rng.uniform(-1.0, 1.0, size=200)
        prices = np.exp(np.concatenate(([0.0], np.cumsum(r))))
        back = xg.log_returns(xg.TimeSeries(prices))
        assert np.max(np.abs(back.values - r)) < 1e-12

    def test_rejects_nonpositive_prices(self):
        with pytest.raises(InvalidInput):
            xg.log_returns(xg.TimeSeries([1.0, -2.0, 3.0]))
        with pytest.raises(InvalidInput):
            xg.log_returns(xg.TimeSeries([1.0]))


class TestThresholdResolution:
    def test_upper_tail(self):
        series = xg.TimeSeries(np.arange(1.0, 101.0))
        spec = xg.ThresholdSpec(0.9, xg.UPPER).resolve(series)
        assert spec.resolved_threshold == 90.0
        assert spec.exceedance_count == 10

    def test_lower_tail_uses_absolute_quantile(self):
        series = xg.TimeSeries(np.arange(-50.0, 50.0))
        spec = xg.ThresholdSpec(0.04, xg.LOWER).resolve(series)
        # 4th order statistic of -50..-47
        assert spec.resolved_threshold == 47.0
        bits = xg.make_indicators(series, xg.lower_tail_region(), spec)
        assert bits.sum() == 3  # strictly below -47
        assert spec.exceedance_count == 3

    def test_two_sided_uses_abs_values_at_per_tail_level(self):
        rng = np.random.default_rng(4)
        values = rng.standard_normal(1000)
        spec = xg.ThresholdSpec(0.95, xg.TWO_SIDED).resolve(xg.TimeSeries(values))
        expected = xg.empirical_quantile(np.abs(values), 0.90)
        assert spec.resolved_threshold == expected
        assert spec.nominal_rate() == pytest.approx(0.1)

    def test_two_sided_level_is_exact(self):
        # 2 * 0.92 - 1 is 0.8400000000000001 in floats; the exact level 0.84
        # puts the threshold on the 21st of 1..25, not the 22nd
        values = np.arange(1.0, 26.0)
        spec = xg.ThresholdSpec(0.92, xg.TWO_SIDED).resolve(xg.TimeSeries(values))
        assert spec.resolved_threshold == 21.0

    def test_degenerate_thresholds(self):
        negative = xg.TimeSeries(-np.arange(1.0, 101.0))
        with pytest.raises(DegenerateThreshold):
            xg.ThresholdSpec(0.9, xg.UPPER).resolve(negative)
        positive = xg.TimeSeries(np.arange(1.0, 101.0))
        with pytest.raises(DegenerateThreshold):
            xg.ThresholdSpec(0.04, xg.LOWER).resolve(positive)

    def test_two_sided_needs_per_tail_level(self):
        with pytest.raises(InvalidInput):
            xg.ThresholdSpec(0.4, xg.TWO_SIDED)

    def test_spec_is_frozen(self):
        spec = xg.ThresholdSpec(0.9, xg.UPPER).resolve(xg.TimeSeries(np.arange(1.0, 101.0)))
        for field in ("quantile_level", "tail", "resolved_threshold", "exceedance_count"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(spec, field, 0)
        assert spec == xg.ThresholdSpec(0.9, xg.UPPER, resolved_threshold=90.0, exceedance_count=10)

    @pytest.mark.parametrize("scale", [-5.0, -1e-300, math.nan, math.inf, -math.inf])
    def test_negative_or_non_finite_scale_rejected(self, scale):
        # -5.0 with the upper region on [10, -10, 0] would mark [0, 1, 0]: the
        # lower tail; NaN would mark nothing
        with pytest.raises(InvalidInput):
            xg.ThresholdSpec(0.9, xg.UPPER, resolved_threshold=scale)

    def test_unresolved_spec_rejected(self):
        spec = xg.ThresholdSpec(0.9, xg.UPPER)
        with pytest.raises(InvalidState):
            xg.make_indicators(xg.TimeSeries([1.0, 2.0]), xg.upper_tail_region(), spec)


class TestMakeIndicators:
    def test_direct_membership(self):
        series = xg.TimeSeries([10.0, 0.0, 0.0, 10.0])
        spec = xg.ThresholdSpec(0.5, xg.UPPER, resolved_threshold=5.0)
        out = xg.make_indicators(series, xg.upper_tail_region(), spec)
        assert out.tolist() == [1, 0, 0, 1]
        assert spec.exceedance_count is None  # set only by resolve

    def test_open_endpoint_at_threshold(self):
        series = xg.TimeSeries([-3.0, 1.0, -8.0])
        spec = xg.ThresholdSpec(0.5, xg.LOWER, resolved_threshold=3.0)
        out = xg.make_indicators(series, xg.lower_tail_region(), spec)
        # -3/3 = -1 is excluded by the open interval
        assert out.tolist() == [0, 0, 1]

    def test_count_against_order_statistic(self):
        rng = np.random.default_rng(500)
        values = rng.uniform(size=500)
        series = xg.TimeSeries(values)
        spec = xg.ThresholdSpec(0.9, xg.UPPER).resolve(series)
        out = xg.make_indicators(series, xg.upper_tail_region(), spec)
        threshold = np.sort(values)[math.ceil(500 * 0.9) - 1]
        assert out.sum() == np.sum(values > threshold) == spec.exceedance_count
        assert out.sum() in (49, 50)

    def test_count_bound(self):
        rng = np.random.default_rng(8)
        for q in (0.8, 0.9, 0.96, 0.99):
            values = rng.standard_t(4, size=777)
            series = xg.TimeSeries(values)
            spec = xg.ThresholdSpec(q, xg.UPPER).resolve(series)
            out = xg.make_indicators(series, xg.upper_tail_region(), spec)
            assert out.sum() <= 777 * (1 - q) + 1

    def test_positive_scale_invariance(self):
        rng = np.random.default_rng(31)
        values = rng.standard_t(3, size=400)
        for c in (0.001, 3.7, 1e6):
            for q, tail, region in (
                (0.9, xg.UPPER, xg.upper_tail_region()),
                (0.1, xg.LOWER, xg.lower_tail_region()),
                (0.9, xg.TWO_SIDED, xg.two_sided_region()),
            ):
                base = xg.TimeSeries(values)
                scaled = xg.TimeSeries(c * values)
                spec_base = xg.ThresholdSpec(q, tail).resolve(base)
                spec_scaled = xg.ThresholdSpec(q, tail).resolve(scaled)
                a = xg.make_indicators(base, region, spec_base)
                b = xg.make_indicators(scaled, region, spec_scaled)
                assert np.array_equal(a, b)

    def test_zero_scale_rejected(self):
        spec = xg.ThresholdSpec(0.5, xg.UPPER, resolved_threshold=0.0)
        with pytest.raises(DegenerateThreshold):
            xg.make_indicators(xg.TimeSeries([1.0]), xg.upper_tail_region(), spec)


def test_monotone_threshold_event_counts():
    rng = np.random.default_rng(12)
    values = rng.standard_t(4, size=1500)
    series = xg.TimeSeries(values)
    counts = []
    for q in (0.80, 0.85, 0.90, 0.95, 0.99):
        spec = xg.ThresholdSpec(q, xg.UPPER).resolve(series)
        counts.append(xg.make_indicators(series, xg.upper_tail_region(), spec).sum())
    assert all(a >= b for a, b in zip(counts, counts[1:]))
