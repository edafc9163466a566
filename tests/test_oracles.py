import itertools
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm, t

import extremogram as xg

import oracles


class TestSvExtremogramOracle:
    @pytest.mark.parametrize("q", [0.9, 0.98])
    def test_marginal_tail_is_one_minus_q(self, q):
        params = xg.SvParams()
        u = oracles.sv_threshold(params, q)
        assert oracles.sv_tail(params, u) == pytest.approx(1.0 - q, abs=1e-12)
        # adaptive quadrature over the stationary log-volatility law
        sd = params.log_vol_noise_sd / np.sqrt(1.0 - params.ar_coefficient**2)
        tail, _ = quad(
            lambda lv: norm.pdf(lv, scale=sd) * t.sf(u * np.exp(-lv), params.innovation_dof),
            -12 * sd, 12 * sd, limit=200,
        )
        assert tail == pytest.approx(1.0 - q, abs=1e-7)

    def test_tends_to_independence_as_phi_power_vanishes(self):
        # 0.3**40 ~ 1e-21: the log-volatilities decorrelate and so do the exceedances
        rho = oracles.sv_extremogram(xg.SvParams(ar_coefficient=0.3), 0.98, 40)
        excess = rho[1:] - 0.02
        assert rho[0] == 1.0
        assert excess[0] > 1e-3
        assert np.all(excess >= -1e-15)
        assert np.all(np.diff(excess[excess > 1e-12]) < 0)
        assert excess[-1] == pytest.approx(0.0, abs=1e-12)

    def test_independent_log_volatility_gives_independence(self):
        rho = oracles.sv_extremogram(xg.SvParams(ar_coefficient=0.0), 0.95, 5)
        assert np.allclose(rho[1:], 0.05, rtol=0, atol=1e-12)

    def test_node_count_converged(self):
        params = xg.SvParams()
        coarse = oracles.sv_extremogram(params, 0.98, 40, nodes=100)
        fine = oracles.sv_extremogram(params, 0.98, 40, nodes=200)
        assert np.max(np.abs(coarse - fine)) < 1e-5


class TestLagOnePmf:
    @pytest.mark.parametrize("n,events", [(1, 1), (5, 5), (8, 1), (8, 3), (9, 5), (10, 7)])
    def test_matches_every_placement(self, n, events):
        # each of the C(n, N) placements of the events is equally likely
        counts = {}
        for placed in itertools.combinations(range(n), events):
            k = sum(b - a == 1 for a, b in zip(placed, placed[1:]))
            counts[k] = counts.get(k, 0) + 1
        total = sum(counts.values())
        assert oracles.lag_one_pmf(n, events) == {
            k: Fraction(c, total) for k, c in sorted(counts.items())}

    @pytest.mark.parametrize("n,events", [(200, 20), (4000, 160)])
    def test_sums_to_one_with_mean_n_events_pairs(self, n, events):
        pmf = oracles.lag_one_pmf(n, events)
        assert sum(pmf.values()) == 1
        assert sum(k * p for k, p in pmf.items()) == Fraction(events * (events - 1), n)
