"""Volatility-model simulators and a GARCH(1,1) quasi-likelihood fitter.

The two simulators generate the heavy-tailed validation processes used to
exercise the estimators: a GARCH(1,1) with Student-t innovations (extremal
clustering) and a log-AR(1) stochastic-volatility model (no clustering).
The fitter recovers GARCH parameters by Gaussian quasi-maximum likelihood;
its residuals, the series divided by its fitted conditional volatility,
are the devolatilized series.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize
from scipy.signal import lfilter

from ._rng import substream
from .core import _INDEX_MAX, TimeSeries, _whole
from .errors import FitDiverged, InvalidInput

_STATIONARITY_MARGIN = 1e-6
_LENGTHS = f"need n >= 1, burn_in >= 0 and n + burn_in <= {_INDEX_MAX}"


@dataclass(frozen=True)
class GarchParams:
    """GARCH(1,1) parameters: var[t] = omega + alpha*x[t-1]^2 + beta*var[t-1].

    Innovations are Student-t with ``innovation_dof`` degrees of freedom,
    rescaled to unit variance when ``standardize_innovations`` is set (which
    requires dof > 2).
    """

    omega: float = 0.1
    alpha: float = 0.14
    beta: float = 0.84
    innovation_dof: float = 4.0
    standardize_innovations: bool = True

    def __post_init__(self):
        if not self.omega > 0.0:
            raise InvalidInput("omega must be positive")
        if self.alpha < 0.0 or self.beta < 0.0:
            raise InvalidInput("alpha and beta must be nonnegative")
        if not self.alpha + self.beta < 1.0:
            raise InvalidInput("need alpha + beta < 1 for covariance stationarity")
        if not self.innovation_dof > 0.0:
            raise InvalidInput("innovation dof must be positive")
        if self.standardize_innovations and not self.innovation_dof > 2.0:
            raise InvalidInput("standardizing innovations needs dof > 2")

    @property
    def persistence(self) -> float:
        return self.alpha + self.beta

    def unconditional_variance(self) -> float:
        return self.omega / (1.0 - self.persistence)


@dataclass(frozen=True)
class SvParams:
    """Stochastic volatility: log sigma[t] = phi*log sigma[t-1] + eps[t].

    eps is iid normal with sd ``log_vol_noise_sd``; the return innovations
    are raw Student-t (not rescaled).
    """

    ar_coefficient: float = 0.9
    innovation_dof: float = 2.6
    log_vol_noise_sd: float = 1.0

    def __post_init__(self):
        if not abs(self.ar_coefficient) < 1.0:
            raise InvalidInput("need |ar coefficient| < 1 for a stationary log-volatility")
        if not self.innovation_dof > 0.0:
            raise InvalidInput("innovation dof must be positive")
        if not self.log_vol_noise_sd > 0.0:
            raise InvalidInput("log-volatility noise sd must be positive")


def _student_t(rng: np.random.Generator, dof: float, size: int, standardize: bool) -> np.ndarray:
    z = rng.standard_t(dof, size=size)
    if standardize:
        z = z * math.sqrt((dof - 2.0) / dof)
    return z


def simulate_garch(params: GarchParams, n: int, burn_in: int = 2000, seed: int = 0) -> TimeSeries:
    """Simulate a GARCH(1,1) path of length n (after discarding burn_in).

    The variance recursion starts at the unconditional variance. The n +
    burn_in Student-t innovations are drawn from ``substream(seed)``, so the
    same seed and parameters give the identical path.
    """
    burn_in = _whole(burn_in, 0, _INDEX_MAX, _LENGTHS)
    total = _whole(n, 1, _INDEX_MAX - burn_in, _LENGTHS) + burn_in
    z = _student_t(substream(seed), params.innovation_dof, total, params.standardize_innovations)

    x = z.tolist()  # Python floats: the same IEEE steps as numpy scalars, faster
    var = params.unconditional_variance()
    omega, alpha, beta = params.omega, params.alpha, params.beta
    for t, zt in enumerate(x):
        x[t] = xt = math.sqrt(var) * zt
        var = omega + alpha * xt * xt + beta * var
    return TimeSeries(x[burn_in:])


def simulate_sv(params: SvParams, n: int, burn_in: int = 2000, seed: int = 0) -> TimeSeries:
    """Simulate the stochastic-volatility model for n observations.

    The log-volatility noise comes from ``substream(seed, 0)``, the return
    innovations from ``substream(seed, 1)``, and the initial log-volatility
    from the stationary normal law on ``substream(seed, 2)``.
    """
    burn_in = _whole(burn_in, 0, _INDEX_MAX, _LENGTHS)
    total = _whole(n, 1, _INDEX_MAX - burn_in, _LENGTHS) + burn_in
    phi = params.ar_coefficient
    sd = params.log_vol_noise_sd
    eps = substream(seed, 0).normal(0.0, sd, size=total)
    z = _student_t(substream(seed, 1), params.innovation_dof, total, standardize=False)
    lv0 = substream(seed, 2).normal(0.0, sd / math.sqrt(1.0 - phi * phi))

    log_vol = lfilter([1.0], [1.0, -phi], eps, zi=[phi * lv0])[0]
    return TimeSeries((np.exp(log_vol) * z)[burn_in:])


@dataclass(frozen=True)
class VolatilityDecomposition:
    """Fitted conditional volatility, residuals, and the fit diagnostics."""

    params: GarchParams
    sigma: np.ndarray
    residuals: np.ndarray
    log_likelihood: float
    iterations: int
    grad_norm: float
    converged: bool

    @property
    def constraint_margin(self) -> float:
        """Distance of the fitted parameters to the nearest constraint."""
        return min(
            self.params.omega,
            self.params.alpha,
            self.params.beta,
            1.0 - _STATIONARITY_MARGIN - self.params.alpha - self.params.beta,
        )


def _garch_filter(x2: np.ndarray, v0: float, omega: float, alpha: float, beta: float) -> np.ndarray:
    """Conditional variances with var[0] fixed at v0."""
    sigma2 = np.empty(x2.size)
    sigma2[0] = v0
    sigma2[1:] = lfilter([1.0], [1.0, -beta], omega + alpha * x2[:-1], zi=[beta * v0])[0]
    return sigma2


def _qml_value(theta: np.ndarray, x2: np.ndarray, v0: float, memo: dict) -> float:
    """Negative Gaussian quasi-log-likelihood (without the 2*pi constant), 1e12
    where not finite, a steep wall outside omega > 0, alpha >= 0, 0 <= beta < 1.
    ``memo`` keeps the last point's variances (None off the wall) and value."""
    key = theta.tobytes()
    if key not in memo:
        omega, alpha, beta = theta
        memo.clear()
        memo[key] = None, None
        if omega > 0.0 and alpha >= 0.0 and 0.0 <= beta < 1.0:
            sigma2 = _garch_filter(x2, v0, omega, alpha, beta)
            memo[key] = sigma2, 0.5 * float(np.sum(np.log(sigma2) + x2 / sigma2))
    sigma2, nll = memo[key]
    if sigma2 is None:
        return 1e12 + theta[2] * 1e8
    return nll if np.isfinite(nll) else 1e12


def _qml_gradient(theta: np.ndarray, x2: np.ndarray, v0: float, memo: dict) -> np.ndarray:
    """The gradient of ``_qml_value``, via the recursive variance derivatives."""
    _qml_value(theta, x2, v0, memo)
    sigma2, nll = memo[theta.tobytes()]
    if sigma2 is None:
        return np.array([0.0, 0.0, 1e8])
    if not np.isfinite(nll):
        return np.zeros(3)
    # d var[t]/d theta follow the same AR(1) recursion driven by 1, x2, var
    beta, m, zi = theta[2], x2.size - 1, [0.0]
    d_omega = lfilter([1.0], [1.0, -beta], np.ones(m), zi=zi)[0]
    d_alpha = lfilter([1.0], [1.0, -beta], x2[:-1], zi=zi)[0]
    d_beta = lfilter([1.0], [1.0, -beta], sigma2[:-1], zi=zi)[0]
    w = 0.5 * (sigma2[1:] - x2[1:]) / sigma2[1:] ** 2
    return np.array([np.dot(w, d_omega), np.dot(w, d_alpha), np.dot(w, d_beta)])


def _projected_grad_norm(grad: np.ndarray, theta: np.ndarray) -> float:
    """Gradient norm ignoring components blocked by an active constraint."""
    g = grad.copy()
    if theta[1] <= 1e-10 and g[1] > 0.0:
        g[1] = 0.0
    if theta[2] <= 1e-10 and g[2] > 0.0:
        g[2] = 0.0
    if theta[1] + theta[2] >= 1.0 - _STATIONARITY_MARGIN - 1e-10:
        pulls_out = g[1] < 0.0 and g[2] < 0.0
        if pulls_out:
            g[1] = g[2] = 0.0
    return float(np.linalg.norm(g))


def fit_garch_qmle(x: TimeSeries) -> VolatilityDecomposition:
    """Fit GARCH(1,1) by Gaussian quasi-maximum likelihood.

    Maximizes -0.5 * sum(log var[t] + x[t]^2/var[t]) over (omega, alpha,
    beta) subject to omega > 0, alpha, beta >= 0, alpha + beta <= 1 - 1e-6,
    with var[0] fixed at the sample variance. SLSQP local searches with the
    analytic gradient run from three starting points and the best optimum
    wins.
    """
    values = x.values
    n = values.size
    if n < 100:
        raise InvalidInput("need at least 100 observations to fit a volatility model")
    v0 = float(np.var(values))
    if v0 <= 0.0:
        raise InvalidInput("cannot fit a constant series")
    x2 = values**2

    start_shapes = [(0.05, 0.90), (0.10, 0.80), (0.02, 0.50)]
    starts = [np.array([v0 * (1.0 - a - b), a, b]) for a, b in start_shapes]

    bounds = [(1e-12, None), (0.0, None), (0.0, None)]
    constraints = [
        {
            "type": "ineq",
            "fun": lambda t: 1.0 - _STATIONARITY_MARGIN - t[1] - t[2],
            "jac": lambda t: np.array([0.0, -1.0, -1.0]),
        }
    ]
    best = best_memo = None
    for theta0 in starts:
        memo = {}  # per start, so the best start's last point stays at hand
        with warnings.catch_warnings():
            # SLSQP probes slightly outside the box and clips; not an error
            warnings.simplefilter("ignore", RuntimeWarning)
            res = minimize(
                _qml_value,
                theta0,
                args=(x2, v0, memo),
                jac=_qml_gradient,
                method="SLSQP",
                bounds=bounds,
                constraints=constraints,
                options={"maxiter": 500, "ftol": 1e-12},
            )
        if res.success and np.all(np.isfinite(res.x)) and (best is None or res.fun < best.fun):
            best, best_memo = res, memo

    if best is None:
        raise FitDiverged("quasi-likelihood optimization did not converge from any start")

    # clip away any tiny constraint violations from the optimizer, then
    # recompute everything at the returned point
    omega = max(float(best.x[0]), 1e-12)
    alpha = max(float(best.x[1]), 0.0)
    beta = max(float(best.x[2]), 0.0)
    excess = alpha + beta - (1.0 - _STATIONARITY_MARGIN)
    if excess > 0.0:
        shrink = (1.0 - _STATIONARITY_MARGIN) / (alpha + beta)
        alpha *= shrink
        beta *= shrink
    theta = np.array([omega, alpha, beta])
    grad = _qml_gradient(theta, x2, v0, best_memo)
    nll, sigma2 = _qml_value(theta, x2, v0, best_memo), best_memo[theta.tobytes()][0]
    sigma = np.sqrt(sigma2)
    loglik = -nll - 0.5 * n * math.log(2.0 * math.pi)
    params = GarchParams(omega=omega, alpha=alpha, beta=beta)
    return VolatilityDecomposition(
        params=params,
        sigma=sigma,
        residuals=values / sigma,
        log_likelihood=float(loglik),
        iterations=int(best.nit),
        grad_norm=_projected_grad_norm(grad, theta),
        converged=True,
    )
