import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.stats import kstest

import extremogram as xg
import oracles
from extremogram import models
from extremogram._rng import substream
from extremogram.errors import InvalidInput


class TestGarchParams:
    def test_paper_defaults_are_stationary(self):
        p = xg.GarchParams()
        assert p.persistence == pytest.approx(0.98)
        assert p.unconditional_variance() == pytest.approx(5.0)

    def test_rejects_nonstationary(self):
        with pytest.raises(InvalidInput):
            xg.GarchParams(omega=0.1, alpha=0.5, beta=0.5)
        with pytest.raises(InvalidInput):
            xg.GarchParams(omega=0.0)
        with pytest.raises(InvalidInput):
            xg.GarchParams(innovation_dof=2.0)


# every parameter check, each matched by its message; a non-finite value is
# rejected when the parameters are made, before any draw
_BAD_PARAMETERS = {
    "omega_zero": (xg.GarchParams, {"omega": 0.0},
                   r"^omega must be positive and finite, got 0\.0$"),
    "omega_inf": (xg.GarchParams, {"omega": math.inf},
                  r"^omega must be positive and finite, got inf$"),
    "alpha_negative": (xg.GarchParams, {"alpha": -0.1}, r"^alpha and beta must be nonnegative$"),
    "beta_negative": (xg.GarchParams, {"beta": -0.1}, r"^alpha and beta must be nonnegative$"),
    "variance_overflows": (xg.GarchParams, {"omega": 1e307},
                           r"^unconditional variance omega / \(1 - alpha - beta\) must be "
                           r"finite, got inf$"),
    "garch_dof_zero": (xg.GarchParams, {"innovation_dof": 0.0},
                       r"^unit-variance innovations need 2 < innovation dof < inf, got 0\.0$"),
    "garch_dof_inf": (xg.GarchParams, {"innovation_dof": math.inf},
                      r"^unit-variance innovations need 2 < innovation dof < inf, got inf$"),
    "garch_dof_nan": (xg.GarchParams, {"innovation_dof": math.nan},
                      r"^unit-variance innovations need 2 < innovation dof < inf, got nan$"),
    "sv_dof_zero": (xg.SvParams, {"innovation_dof": 0.0},
                    r"^innovation dof must be positive and finite, got 0\.0$"),
    "sv_dof_inf": (xg.SvParams, {"innovation_dof": math.inf},
                   r"^innovation dof must be positive and finite, got inf$"),
    "sv_noise_sd_zero": (xg.SvParams, {"log_vol_noise_sd": 0.0},
                         r"^log-volatility noise sd must be positive and finite, got 0\.0$"),
    "sv_noise_sd_inf": (xg.SvParams, {"log_vol_noise_sd": math.inf},
                        r"^log-volatility noise sd must be positive and finite, got inf$"),
}


@pytest.mark.parametrize("case", sorted(_BAD_PARAMETERS))
def test_a_bad_model_parameter_is_named(case):
    cls, kwargs, message = _BAD_PARAMETERS[case]
    with pytest.raises(InvalidInput, match=message):
        cls(**kwargs)


def test_innovations_are_always_standardized():
    # a field only so that the simulate metadata records it
    with pytest.raises(TypeError):
        xg.GarchParams(standardize_innovations=False)
    assert xg.GarchParams().standardize_innovations is True


def _garch_draws(params, seed, total):
    """The innovations simulate_garch documents: substream(seed), rescaled to unit variance."""
    dof = params.innovation_dof
    return substream(seed).standard_t(dof, size=total) * math.sqrt((dof - 2.0) / dof)


def _sv_draws(params, seed, total):
    """The log-volatility noise, return innovations and initial log-volatility
    simulate_sv documents: substreams (seed, 0), (seed, 1) and (seed, 2)."""
    phi, sd = params.ar_coefficient, params.log_vol_noise_sd
    eps = substream(seed, 0).normal(0.0, sd, size=total)
    z = substream(seed, 1).standard_t(params.innovation_dof, size=total)
    lv0 = substream(seed, 2).normal(0.0, sd / math.sqrt(1.0 - phi * phi))
    return eps, z, lv0


_GARCH_CASES = [
    (xg.GarchParams(), 1, 0),
    (xg.GarchParams(), 5, 300),
    (xg.GarchParams(omega=0.2, alpha=0.1, beta=0.7, innovation_dof=6.0), 1, 300),
    (xg.GarchParams(omega=0.2, alpha=0.1, beta=0.7, innovation_dof=6.0), 5, 0),
]
_SV_CASES = [
    (xg.SvParams(), 4, 0),
    (xg.SvParams(), 8, 300),
    (xg.SvParams(ar_coefficient=0.5, innovation_dof=3.0, log_vol_noise_sd=0.5), 4, 300),
    (xg.SvParams(ar_coefficient=0.5, innovation_dof=3.0, log_vol_noise_sd=0.5), 8, 0),
]


class TestSimulateGarch:
    def test_zero_innovations_fixed_point(self):
        # with Z identically 0 the recursion contracts to omega/(1-beta)
        values, sigma = oracles.garch_path(xg.GarchParams(), np.zeros(200))
        assert np.all(values == 0.0)
        assert sigma[-1] ** 2 == pytest.approx(0.1 / 0.16, rel=1e-9)

    def test_matches_literal_recursion(self):
        n = 1000
        for params, seed, burn_in in _GARCH_CASES:
            values, _ = oracles.garch_path(params, _garch_draws(params, seed, n + burn_in))
            sim = xg.simulate_garch(params, n, burn_in=burn_in, seed=seed)
            assert np.array_equal(sim.values, values[burn_in:]), (params, seed, burn_in)

    def test_second_moment_identity(self):
        # E[X^2] = omega/(1-alpha-beta) = 5 for unit-variance innovations;
        # X^2 is very heavy tailed, so this holds loosely per seed
        sim = xg.simulate_garch(xg.GarchParams(), 1_000_000, burn_in=2000, seed=3)
        assert abs(np.mean(sim.values**2) - 5.0) / 5.0 < 0.05

    def test_deterministic_and_seed_sensitive(self):
        a = xg.simulate_garch(xg.GarchParams(), 500, burn_in=100, seed=9)
        b = xg.simulate_garch(xg.GarchParams(), 500, burn_in=100, seed=9)
        c = xg.simulate_garch(xg.GarchParams(), 500, burn_in=100, seed=10)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_sigma_floor(self):
        params = xg.GarchParams()
        values, sigma = oracles.garch_path(params, _garch_draws(params, 1, 2000))
        assert np.array_equal(xg.simulate_garch(params, 2000, burn_in=0, seed=1).values, values)
        assert np.all(sigma**2 >= 0.1 - 1e-12)


class TestAr1:
    # the filter the SV simulator and the GARCH fit run; any replacement of
    # scipy's lfilter must give these bits
    @pytest.mark.parametrize("n", [1, 2, 20_000])
    @pytest.mark.parametrize("c", [0.84, 1.0 - 1e-6, -0.5])
    def test_is_the_literal_recursion_bit_for_bit(self, c, n):
        shocks = substream(11, n).standard_t(4.0, size=n)
        lv0 = substream(11, n, 1).normal()
        for u in (shocks, 0.1 + 0.14 * shocks * shocks):
            for z0 in (0.0, c, c * lv0):
                got = models._ar1(c, u, z0)
                assert got.tobytes() == oracles.ar1_path(c, u, z0).tobytes(), (c, z0)


class TestSimulateSv:
    def test_zero_log_vol_noise_gives_pure_noise(self):
        z = substream(4, 1).standard_t(2.6, size=300)
        values, sigma = oracles.sv_path(xg.SvParams(), np.zeros(300), z, 0.0)
        assert np.all(sigma == 1.0)
        assert np.array_equal(values, z)

    def test_volatility_follows_ar_recursion(self):
        n = 1000
        for params, seed, burn_in in _SV_CASES:
            values, _ = oracles.sv_path(params, *_sv_draws(params, seed, n + burn_in))
            sim = xg.simulate_sv(params, n, burn_in=burn_in, seed=seed)
            assert np.array_equal(sim.values, values[burn_in:]), (params, seed, burn_in)

    def test_degenerates_to_iid_t(self):
        # phi=0 and tiny noise: the output is Student-t up to a KS distance
        params = xg.SvParams(ar_coefficient=0.0, innovation_dof=2.6, log_vol_noise_sd=1e-6)
        series = xg.simulate_sv(params, 10_000, burn_in=100, seed=6)
        stat = kstest(series.values, "t", args=(2.6,)).statistic
        assert stat < 0.02

    def test_rejects_explosive_ar(self):
        with pytest.raises(InvalidInput):
            xg.SvParams(ar_coefficient=1.0)

    def test_sv_extremogram_tails_off_into_band(self):
        # volatility persistence fades with lag: at the 0.98 threshold the
        # model's exact extremogram falls from 0.21 at lag 1 to 0.021-0.024 at
        # lags 30-40, still above the independence value 0.02, so the
        # estimates there are checked against it, not against the
        # no-dependence band
        sim = xg.simulate_sv(xg.SvParams(), 100_000, burn_in=2000, seed=0)
        spec = xg.ThresholdSpec(0.98, xg.UPPER).resolve(sim)
        reg = xg.upper_tail_region()
        kern = xg.univariate_kernel(sim, reg, reg, spec, 40)
        est = kern.point_estimates()
        lower, upper = xg.permutation_bands(kern, n_perm=99, seed=0)
        rho = oracles.sv_extremogram(xg.SvParams(), 0.98, 40)[30:41]
        # 4 binomial standard errors; clustered conditioning events make the
        # estimator's sd 2-20% larger (over 400 seeds), so this is 3.3-3.9 sd
        # per lag, and 2 of those 400 seeds fail it
        se = np.sqrt(rho * (1.0 - rho) / kern.denominator)
        assert np.all(np.abs(est[30:41] - rho) <= 4.0 * se)
        assert est[1] > upper  # small lags do show dependence

    def test_phi_zero_stays_inside_permutation_band(self):
        # independent log-volatilities: the lag-1 extremogram is exchangeable
        # with its permutation values, so containment holds in ~98% of trials
        hits = 0
        trials = 100
        params = xg.SvParams(ar_coefficient=0.0)
        reg = xg.upper_tail_region()
        for trial in range(trials):
            series = xg.simulate_sv(params, 2000, burn_in=50, seed=5000 + trial)
            spec = xg.ThresholdSpec(0.95, xg.UPPER).resolve(series)
            kern = xg.univariate_kernel(series, reg, reg, spec, 1)
            est = kern.point_estimates()
            lower, upper = xg.permutation_bands(kern, n_perm=99, seed=trial)
            hits += lower <= est[1] <= upper
        assert hits >= 95


def _garch(n, seed):
    return lambda: xg.simulate_garch(xg.GarchParams(), n, seed=seed)


# negative log-likelihoods (2*pi constant included) that the three-start SLSQP
# fit, which this fit replaced, reached with OPENBLAS_NUM_THREADS=1
_RECORDED_OPTIMA = [
    ("garch_500_5", _garch(500, 5), 868.7080617982305),
    ("garch_500_28", _garch(500, 28), 842.9254838337804),
    ("garch_2000_0", _garch(2000, 0), 3648.857623185073),
    ("garch_2000_1", _garch(2000, 1), 3814.322775848976),
    ("garch_2000_2", _garch(2000, 2), 3712.856870102503),
    ("garch_2000_3", _garch(2000, 3), 3869.329325445249),
    ("garch_50000_44", _garch(50_000, 44), 92390.41969235864),
    ("garch_50000_3773", _garch(50_000, 3773), 101468.27135778766),
    # the series of test_iid_normal_degenerates_to_constant_volatility
    ("iid_normal", lambda: xg.TimeSeries(substream(0).normal(0.0, 2.0, size=5000)),
     10537.331477697535),
    ("iid_t3", lambda: xg.TimeSeries(substream(4).standard_t(3, size=2000)), 3974.266768231992),
    ("sv_12", lambda: xg.simulate_sv(xg.SvParams(), 3000, seed=12), 13908.895347803456),
    ("trend", lambda: xg.TimeSeries(np.arange(100.0) + substream(3).normal(size=100)),
     505.02737249687306),
]


class TestFitGarch:
    def test_recovers_simulation_parameters(self):
        sim = xg.simulate_garch(xg.GarchParams(), 50_000, burn_in=2000, seed=105)
        fit = xg.fit_garch_qmle(sim)
        assert abs(fit.params.omega - 0.1) <= 0.03
        assert abs(fit.params.alpha - 0.14) <= 0.03
        assert abs(fit.params.beta - 0.84) <= 0.04

    def test_reconstruction_identity(self):
        sim = xg.simulate_garch(xg.GarchParams(), 5000, burn_in=500, seed=6)
        fit = xg.fit_garch_qmle(sim)
        rel = np.abs(fit.residuals * fit.sigma - sim.values) / np.maximum(np.abs(sim.values), 1e-300)
        assert rel.max() < 1e-12
        assert np.all(fit.sigma > 0.0)

    def test_iid_normal_degenerates_to_constant_volatility(self):
        x = xg.TimeSeries(substream(0).normal(0.0, 2.0, size=5000))
        fit = xg.fit_garch_qmle(x)
        assert fit.params.alpha < 0.03
        ratio = fit.residuals / (x.values / x.values.std())
        assert np.abs(ratio - 1.0).max() < 0.05

    def test_objective_not_worse_than_any_start(self):
        # the fit runs on x / sqrt(v0), so omega is in units of v0 there
        sim = xg.simulate_garch(xg.GarchParams(), 3000, burn_in=500, seed=7)
        fit = xg.fit_garch_qmle(sim)
        v0 = float(np.var(sim.values))
        y2 = sim.values**2 / v0
        p = fit.params
        fitted_nll = models._qml(y2, p.omega / v0, p.alpha, p.beta)[1]
        for a, b in [(0.05, 0.90), (0.10, 0.80), (0.02, 0.50)]:
            assert fitted_nll <= models._qml(y2, 1 - a - b, a, b)[1] + 1e-9

    @pytest.mark.parametrize("theta", [(0.1, 0.14, 0.84), (0.5, 0.05, 0.6), (2.0, 0.3, 0.3)])
    def test_gradient_matches_central_differences(self, theta):
        sim = xg.simulate_garch(xg.GarchParams(), 3000, burn_in=500, seed=9)
        y2 = sim.values**2 / float(np.var(sim.values))
        theta = np.array(theta)
        grad = models._score(y2, models._qml(y2, *theta)[0], theta[2])[0]
        for i in range(3):
            step = np.zeros(3)
            step[i] = 1e-6 * theta[i]
            up = models._qml(y2, *(theta + step))[1]
            down = models._qml(y2, *(theta - step))[1]
            assert grad[i] == pytest.approx((up - down) / (2.0 * step[i]), rel=1e-6)

    @pytest.mark.parametrize("series, recorded", [
        pytest.param(make, nll, id=name) for name, make, nll in _RECORDED_OPTIMA])
    def test_reaches_the_recorded_optimum(self, series, recorded):
        fit = xg.fit_garch_qmle(series())
        assert -fit.log_likelihood <= recorded + 1e-9 * abs(recorded)

    @pytest.mark.parametrize("power", [300, -300])
    def test_does_not_depend_on_the_scale_of_the_series(self, power):
        # scaling by a power of two is exact, so the fit on the scaled series
        # is the same bit for bit, with omega scaled by its square
        x = substream(1).standard_normal(1000)
        base = xg.fit_garch_qmle(xg.TimeSeries(x))
        fit = xg.fit_garch_qmle(xg.TimeSeries(x * 2.0**power))
        assert (fit.params.alpha, fit.params.beta) == (base.params.alpha, base.params.beta)
        assert fit.params.omega == base.params.omega * 4.0**power
        assert np.array_equal(fit.residuals, base.residuals)
        assert 0.01 < base.params.alpha < 0.02 and 0.8 < base.params.beta < 0.9

    def test_constraints_satisfied_with_margin(self):
        sim = xg.simulate_garch(xg.GarchParams(), 8000, burn_in=500, seed=8)
        fit = xg.fit_garch_qmle(sim)
        assert fit.constraint_margin >= 0.0
        assert fit.params.alpha + fit.params.beta <= 1.0 - 1e-6 + 1e-12

    @pytest.fixture(scope="class")
    def seed_3773_theta(self):
        fit = xg.fit_garch_qmle(xg.simulate_garch(xg.GarchParams(), 50_000, seed=3773))
        return repr((fit.params.omega, fit.params.alpha, fit.params.beta))

    @pytest.mark.parametrize("threads", [
        "1",
        pytest.param("2", marks=pytest.mark.skipif(
            len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2,
            reason="needs two CPUs for two BLAS threads")),
    ])
    def test_fits_a_path_of_its_own_simulator_seed_3773(self, threads, seed_3773_theta):
        # the likelihood still rises past alpha + beta = 1 - 1e-6, so the
        # optimum is on that face; each BLAS thread count gets its own
        # interpreter, and both land on the same point as this process
        src = os.path.dirname(os.path.dirname(os.path.abspath(xg.__file__)))
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        script = ("import extremogram as xg\n"
                  "fit = xg.fit_garch_qmle(xg.simulate_garch(xg.GarchParams(), 50_000, seed=3773))\n"
                  "print(repr((fit.params.omega, fit.params.alpha, fit.params.beta)))\n")
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        theta = proc.stdout.strip()
        assert theta == seed_3773_theta
        omega, alpha, beta = (float(v) for v in theta.strip("()").split(", "))
        assert alpha + beta == 1.0 - 1e-6

    def test_raises_when_the_iteration_cap_is_reached(self, monkeypatch):
        sim = xg.simulate_garch(xg.GarchParams(), 500, seed=5)  # 214 iterations
        monkeypatch.setattr(models, "_MAX_ITERATIONS", 100)
        with pytest.raises(xg.AnalysisFailed, match="did not converge in 100 iterations"):
            xg.fit_garch_qmle(sim)

    def test_guardrails(self):
        with pytest.raises(InvalidInput):
            xg.fit_garch_qmle(xg.TimeSeries(np.arange(50.0) + 1))
        with pytest.raises(InvalidInput):
            xg.fit_garch_qmle(xg.TimeSeries(np.full(200, 3.0)))
        with pytest.raises(InvalidInput):  # np.var overflows
            xg.fit_garch_qmle(xg.TimeSeries(substream(1).standard_normal(1000) * 1e160))


class TestDevolatilize:
    def test_removes_extremal_clustering(self):
        sim = xg.simulate_garch(xg.GarchParams(), 50_000, burn_in=2000, seed=42)
        resid = xg.TimeSeries(xg.fit_garch_qmle(sim).residuals)
        assert len(resid) == len(sim)
        spec = xg.ThresholdSpec(0.04, xg.LOWER).resolve(resid)
        reg = xg.lower_tail_region()
        kern = xg.univariate_kernel(resid, reg, reg, spec, 40)
        est = kern.point_estimates()
        lower, upper = xg.permutation_bands(kern, n_perm=99, seed=0)
        inside = (est[1:] >= lower) & (est[1:] <= upper)
        # independence restored at nearly every lag (98% band per lag)
        assert inside.sum() >= 38

    def test_short_series_rejected(self):
        with pytest.raises(InvalidInput):
            xg.fit_garch_qmle(xg.TimeSeries(np.random.default_rng(1).normal(size=99)))
