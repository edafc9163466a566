import dataclasses
import math
import re

import numpy as np
import pytest

import extremogram as xg
from extremogram import _rng
from extremogram.core import quantile_rank
from extremogram.errors import InvalidInput


# the decided public surface (40 names): a new public name is a deliberate change here
PUBLIC_NAMES = [
    "AnalysisFailed", "BAND_METHODS", "BlockPlan", "BootstrapBands", "ExtremalRegion",
    "ExtremogramError", "FAMILIES", "GarchParams", "InvalidInput", "LOWER",
    "METHOD_CENTERED", "METHOD_QUANTILE", "RatioKernel", "SvParams", "TAILS", "TWO_SIDED",
    "ThresholdSpec", "TimeSeries", "UPPER", "VolatilityDecomposition", "__version__",
    "bootstrap_bands", "bootstrap_variance_s2", "cross_kernel", "draw_block_plan",
    "empirical_quantile", "fit_garch_qmle", "geometric_pmf", "log_returns",
    "lower_tail_region", "make_indicators", "permutation_bands", "return_times_kernel",
    "simulate_garch", "simulate_sv", "tri_source_kernel", "tri_target_kernel",
    "two_sided_region", "univariate_kernel", "upper_tail_region",
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


@pytest.mark.parametrize("values, message", [
    (np.ones((3, 4)), "a series must be 1-D, got shape (3, 4)"),
    (5.0, "a series must be 1-D, got shape ()"),
    ([[1.0, 2.0], [3.0]], "series values must be a flat list of numbers: setting an array "
                          "element with a sequence"),
    (["a"], "series values must be a flat list of numbers: could not convert string to "
            "float: 'a'"),
], ids=["two_dimensional", "scalar", "ragged", "not_a_number"])
def test_time_series_names_what_is_wrong_with_its_input(values, message):
    with pytest.raises(InvalidInput, match=f"^{re.escape(message)}"):
        xg.TimeSeries(values)


def test_time_series_values_immutable():
    ts = xg.TimeSeries([1.0, 2.0])
    with pytest.raises(ValueError):
        ts.values[0] = 5.0
    # one field, a copy: the caller's array stays writable and unshared
    given = np.array([1.0, 2.0])
    ts = xg.TimeSeries(given)
    assert [f.name for f in dataclasses.fields(ts)] == ["values"]
    assert given.flags.writeable and not np.shares_memory(given, ts.values)


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

    @pytest.mark.parametrize("intervals, message", [
        ((), r"^a region needs at least one interval$"),
        (((2.0, 2.0),), r"^degenerate interval \(2\.0, 2\.0\)$"),
        (((1.0, 3.0), (-1.0, -4.0)), r"^degenerate interval \(-1\.0, -4\.0\)$"),
    ], ids=["empty", "point", "reversed"])
    def test_rejects_empty_or_degenerate_intervals(self, intervals, message):
        with pytest.raises(InvalidInput, match=message):
            xg.ExtremalRegion(intervals)


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

    def test_rejects_an_empty_array(self):
        with pytest.raises(InvalidInput, match="^cannot take a quantile of an empty series$"):
            xg.empirical_quantile(np.array([]), 0.5)

    @pytest.mark.parametrize("values", [[math.nan, 1.0, 2.0], [1.0, math.inf], [-math.inf]],
                             ids=["nan", "inf", "minus_inf"])
    def test_a_plain_array_must_be_finite(self, values):
        # NaN would rank above every number and be returned as the median
        with pytest.raises(InvalidInput, match="must be finite"):
            xg.empirical_quantile(values, 0.5)

    @pytest.mark.parametrize("shape", [(3, 4), (2, 2), (1, 1)])
    def test_a_plain_array_must_be_one_dimensional(self, shape):
        with pytest.raises(InvalidInput):
            xg.empirical_quantile(np.ones(shape), 0.5)


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
        with pytest.raises(InvalidInput, match=r"^upper-tail 0\.9-quantile is -11\.0; "
                                               r"need a positive threshold$"):
            xg.ThresholdSpec(0.9, xg.UPPER).resolve(negative)
        positive = xg.TimeSeries(np.arange(1.0, 101.0))
        with pytest.raises(InvalidInput,
                           match=r"^lower-tail 0\.04-quantile is 4\.0; need a negative quantile$"):
            xg.ThresholdSpec(0.04, xg.LOWER).resolve(positive)
        mostly_zero = xg.TimeSeries(np.concatenate((np.zeros(95), np.ones(5))))
        with pytest.raises(InvalidInput, match=r"^two-sided threshold on \|X\| is not positive$"):
            xg.ThresholdSpec(0.9, xg.TWO_SIDED).resolve(mostly_zero)

    def test_two_sided_needs_per_tail_level(self):
        with pytest.raises(InvalidInput):
            xg.ThresholdSpec(0.4, xg.TWO_SIDED)

    @pytest.mark.parametrize("q, tail, message", [
        (0.0, xg.UPPER, r"^quantile level must be in \(0, 1\), got 0\.0$"),
        (1.5, xg.LOWER, r"^quantile level must be in \(0, 1\), got 1\.5$"),
        (math.nan, xg.UPPER, r"^quantile level must be in \(0, 1\), got nan$"),
        (0.9, "both", r"^unknown tail 'both'; expected one of \('upper', 'lower', 'two_sided'\)$"),
    ], ids=["zero", "above_one", "nan", "unknown_tail"])
    def test_rejects_a_bad_level_or_tail(self, q, tail, message):
        with pytest.raises(InvalidInput, match=message):
            xg.ThresholdSpec(q, tail)

    def test_spec_is_frozen(self):
        spec = xg.ThresholdSpec(0.9, xg.UPPER).resolve(xg.TimeSeries(np.arange(1.0, 101.0)))
        for field in ("quantile_level", "tail", "resolved_threshold", "exceedance_count"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(spec, field, 0)
        assert spec == xg.ThresholdSpec(0.9, xg.UPPER, resolved_threshold=90.0, exceedance_count=10)

    @pytest.mark.parametrize("scale", [-5.0, -1e-300, math.nan, math.inf, -math.inf, 0.0, -0.0])
    def test_negative_or_non_finite_scale_rejected(self, scale):
        # -5.0 with the upper region on [10, -10, 0] would mark [0, 1, 0]: the
        # lower tail; NaN would mark nothing; zero cannot divide the series
        with pytest.raises(InvalidInput, match=r"^resolved threshold must be a finite scale > 0, "):
            xg.ThresholdSpec(0.9, xg.UPPER, resolved_threshold=scale)

    def test_unresolved_spec_rejected(self):
        spec = xg.ThresholdSpec(0.9, xg.UPPER)
        with pytest.raises(InvalidInput, match="^threshold has not been resolved on a series$"):
            xg.make_indicators(xg.TimeSeries([1.0, 2.0]), xg.upper_tail_region(), spec)


class TestMakeIndicators:
    def test_direct_membership(self):
        series = xg.TimeSeries([10.0, 0.0, 0.0, 10.0])
        spec = xg.ThresholdSpec(0.5, xg.UPPER, resolved_threshold=5.0)
        out = xg.make_indicators(series, xg.upper_tail_region(), spec)
        assert out.dtype == bool
        assert out.tolist() == [True, False, False, True]
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


def test_monotone_threshold_event_counts():
    rng = np.random.default_rng(12)
    values = rng.standard_t(4, size=1500)
    series = xg.TimeSeries(values)
    counts = []
    for q in (0.80, 0.85, 0.90, 0.95, 0.99):
        spec = xg.ThresholdSpec(q, xg.UPPER).resolve(series)
        counts.append(xg.make_indicators(series, xg.upper_tail_region(), spec).sum())
    assert all(a >= b for a, b in zip(counts, counts[1:]))


def _integer_entry_points():
    """Every routine that reads an integer a caller passes: name -> (call of
    that one integer, a valid plain int, the same value as a numpy integer)."""
    x = xg.TimeSeries(np.random.default_rng(5).standard_t(3, size=400))
    spec = xg.ThresholdSpec(0.9).resolve(x)
    region = xg.upper_tail_region()
    kernel = xg.univariate_kernel(x, region, region, spec, 5)
    garch, sv = xg.GarchParams(), xg.SvParams()
    largest = 2**64 - 1
    seed, big_seed = largest, np.uint64(largest)

    def plan(plan):
        return np.concatenate((plan.starts, plan.lengths))

    return {
        "check_seed": (_rng.check_seed, seed, big_seed),
        "substream seed": (lambda v: _rng.substream(v).integers(0, 2**62, 8), seed, big_seed),
        "substream key": (lambda v: _rng.substream(3, v).integers(0, 2**62, 8), seed, big_seed),
        "spawn_seed seed": (_rng.spawn_seed, seed, big_seed),
        "spawn_seed key": (lambda v: _rng.spawn_seed(3, v), seed, big_seed),
        "bootstrap_bands seed": (
            lambda v: xg.bootstrap_bands(kernel, p=0.1, replicates=100, seed=v).replicates,
            seed, big_seed),
        "bootstrap_bands replicates": (
            lambda v: xg.bootstrap_bands(kernel, p=0.1, replicates=v).replicates,
            101, np.int64(101)),
        "permutation_bands seed": (
            lambda v: xg.permutation_bands(kernel, n_perm=9, seed=v), seed, big_seed),
        "permutation_bands n_perm": (
            lambda v: xg.permutation_bands(kernel, n_perm=v), 9, np.int64(9)),
        "draw_block_plan seed": (lambda v: plan(xg.draw_block_plan(60, 0.1, v)), seed, big_seed),
        "draw_block_plan n": (lambda v: plan(xg.draw_block_plan(v, 0.1, 2)), 60, np.int64(60)),
        "simulate_garch seed": (
            lambda v: xg.simulate_garch(garch, 50, 10, seed=v).values, seed, big_seed),
        "simulate_garch n": (lambda v: xg.simulate_garch(garch, v, 10).values, 50, np.int64(50)),
        "simulate_garch burn_in": (
            lambda v: xg.simulate_garch(garch, 50, v).values, 10, np.int64(10)),
        "simulate_sv seed": (lambda v: xg.simulate_sv(sv, 50, 10, seed=v).values, seed, big_seed),
        "simulate_sv n": (lambda v: xg.simulate_sv(sv, v, 10).values, 50, np.int64(50)),
        "simulate_sv burn_in": (lambda v: xg.simulate_sv(sv, 50, v).values, 10, np.int64(10)),
        "univariate_kernel max_lag": (
            lambda v: xg.univariate_kernel(x, region, region, spec, v).point_estimates(),
            7, np.int64(7)),
        "return_times_kernel max_lag": (
            lambda v: xg.return_times_kernel(x, region, spec, v).point_estimates(),
            7, np.int64(7)),
    }


INTEGER_ENTRY_POINTS = _integer_entry_points()


@pytest.mark.parametrize("value", [2.5, 3.0, "3", 2**64, True],
                         ids=["2.5", "3.0", "str", "2**64", "True"])
@pytest.mark.parametrize("entry", INTEGER_ENTRY_POINTS)
def test_integer_arguments_are_read_exactly(entry, value):
    """A non-integer is rejected, never truncated or read as 0 or 1 (a bool),
    and so is a value past the argument's range."""
    call, _, _ = INTEGER_ENTRY_POINTS[entry]
    with pytest.raises(InvalidInput):
        call(value)


@pytest.mark.parametrize("entry", INTEGER_ENTRY_POINTS)
def test_numpy_integer_arguments_give_the_plain_int_result(entry):
    call, plain, numpy_value = INTEGER_ENTRY_POINTS[entry]
    assert isinstance(numpy_value, np.integer)
    assert np.array_equal(call(numpy_value), call(plain))


def test_a_rejected_integer_is_named_in_the_error():
    with pytest.raises(InvalidInput, match=r"^seed must be an unsigned 64-bit integer, got 2\.5$"):
        _rng.check_seed(2.5)
    with pytest.raises(InvalidInput, match=r"^seed must be an unsigned 64-bit integer, got True$"):
        _rng.check_seed(True)
    with pytest.raises(InvalidInput, match=r"^need n >= 1, got True$"):
        xg.draw_block_plan(True, 0.5, 0)
    with pytest.raises(InvalidInput, match=r"got False$"):
        xg.simulate_garch(xg.GarchParams(), True, burn_in=False, seed=True)
    with pytest.raises(InvalidInput, match=r"^max_lag must be at least 1, got '3'$"):
        xg.return_times_kernel(xg.TimeSeries([1.0, 5.0, 1.0, 5.0]), xg.upper_tail_region(),
                               xg.ThresholdSpec(0.5).resolve(xg.TimeSeries([1.0, 5.0])), "3")


def _equal_valued(kind):
    """An object of a type that holds arrays, from a call that gives equal values each time."""
    x = xg.TimeSeries(np.random.default_rng(5).standard_t(3, size=400))
    spec = xg.ThresholdSpec(0.9).resolve(x)
    region = xg.upper_tail_region()
    kernel = xg.univariate_kernel(x, region, region, spec, 5)
    calls = {
        "TimeSeries": lambda: xg.TimeSeries([1.0, 2.0]),
        "RatioKernel": lambda: xg.univariate_kernel(x, region, region, spec, 5),
        "BlockPlan": lambda: xg.draw_block_plan(100, 0.1, 1),
        "BootstrapBands": lambda: xg.bootstrap_bands(kernel, p=0.1, replicates=100, seed=1),
        "VolatilityDecomposition": lambda: xg.fit_garch_qmle(
            xg.simulate_garch(xg.GarchParams(), 500, seed=1)),
    }
    return calls[kind]()


@pytest.mark.parametrize("kind", ["TimeSeries", "RatioKernel", "BlockPlan", "BootstrapBands",
                                  "VolatilityDecomposition"])
def test_types_holding_arrays_compare_by_identity(kind):
    """Equality is identity, so comparing never asks an array for one truth
    value, and the objects hash."""
    a, b = _equal_valued(kind), _equal_valued(kind)
    assert type(a) is getattr(xg, kind)
    assert a == a and a in [a] and hash(a) == hash(a)
    assert a != b and b not in [a]
    assert len({a, b}) == 2
