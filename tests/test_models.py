import numpy as np
import pytest
from scipy.stats import kstest

import extremogram as xg
import oracles
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
            xg.GarchParams(innovation_dof=2.0, standardize_innovations=True)


class TestSimulateGarch:
    def test_zero_innovations_fixed_point(self):
        # with Z identically 0 the recursion contracts to omega/(1-beta)
        params = xg.GarchParams()
        n, burn = 200, 0
        series, sigma = xg.simulate_garch(
            params, n, burn_in=burn, seed=0, innovations=np.zeros(n), return_sigma=True
        )
        assert np.all(series.values == 0.0)
        assert sigma[-1] ** 2 == pytest.approx(0.1 / 0.16, rel=1e-9)

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
        _, sigma = xg.simulate_garch(xg.GarchParams(), 2000, burn_in=0, seed=1, return_sigma=True)
        assert np.all(sigma**2 >= 0.1 - 1e-12)

    def test_innovation_length_check(self):
        with pytest.raises(InvalidInput):
            xg.simulate_garch(xg.GarchParams(), 10, burn_in=5, innovations=np.zeros(10))


class TestSimulateSv:
    def test_forced_hooks_give_pure_noise(self):
        params = xg.SvParams()
        n = 300
        series = xg.simulate_sv(
            params, n, burn_in=0, seed=4, log_vol_innovations=np.zeros(n), initial_log_vol=0.0
        )
        z = substream(4, 1).standard_t(2.6, size=n)
        assert np.array_equal(series.values, z)

    def test_volatility_follows_ar_recursion(self):
        params = xg.SvParams(ar_coefficient=0.9)
        n = 50
        eps = substream(8, 0).normal(0.0, 1.0, size=n)
        _, sigma = xg.simulate_sv(
            params, n, burn_in=0, seed=8, log_vol_innovations=eps, initial_log_vol=0.3,
            return_sigma=True,
        )
        lv = 0.3
        expected = []
        for t in range(n):
            lv = 0.9 * lv + eps[t]
            expected.append(lv)
        assert np.allclose(np.log(sigma), expected, atol=1e-12)

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


class TestFitGarch:
    def test_recovers_simulation_parameters(self):
        sim = xg.simulate_garch(xg.GarchParams(), 50_000, burn_in=2000, seed=105)
        fit = xg.fit_garch_qmle(sim)
        assert abs(fit.params.omega - 0.1) <= 0.03
        assert abs(fit.params.alpha - 0.14) <= 0.03
        assert abs(fit.params.beta - 0.84) <= 0.04
        assert fit.converged

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
        from extremogram.models import _qml_negloglik

        sim = xg.simulate_garch(xg.GarchParams(), 3000, burn_in=500, seed=7)
        fit = xg.fit_garch_qmle(sim)
        x2 = sim.values**2
        v0 = float(np.var(sim.values))
        fitted_nll, _ = _qml_negloglik(
            np.array([fit.params.omega, fit.params.alpha, fit.params.beta]), x2, v0
        )
        for a, b in [(0.05, 0.90), (0.10, 0.80), (0.02, 0.50)]:
            start_nll, _ = _qml_negloglik(np.array([v0 * (1 - a - b), a, b]), x2, v0)
            assert fitted_nll <= start_nll + 1e-9

    def test_constraints_satisfied_with_margin(self):
        sim = xg.simulate_garch(xg.GarchParams(), 8000, burn_in=500, seed=8)
        fit = xg.fit_garch_qmle(sim)
        assert fit.constraint_margin >= 0.0
        assert fit.params.alpha + fit.params.beta <= 1.0 - 1e-6 + 1e-12

    def test_guardrails(self):
        with pytest.raises(InvalidInput):
            xg.fit_garch_qmle(xg.TimeSeries(np.arange(50.0) + 1))
        with pytest.raises(InvalidInput):
            xg.fit_garch_qmle(xg.TimeSeries(np.full(200, 3.0)))


class TestDevolatilize:
    def test_removes_extremal_clustering(self):
        sim = xg.simulate_garch(xg.GarchParams(), 50_000, burn_in=2000, seed=42)
        resid, fit = xg.devolatilize(sim)
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
            xg.devolatilize(xg.TimeSeries(np.random.default_rng(1).normal(size=99)))
