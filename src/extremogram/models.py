"""Volatility-model simulators and a GARCH(1,1) quasi-likelihood fitter.

The two simulators generate the heavy-tailed validation processes used to
exercise the estimators: a GARCH(1,1) with Student-t innovations (extremal
clustering) and a log-AR(1) stochastic-volatility model (no clustering).
The fitter recovers GARCH parameters by Gaussian quasi-maximum likelihood
and is the basis for devolatilization: dividing a return series by its
fitted conditional volatility.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize
from scipy.signal import lfilter

from ._rng import substream
from .core import TimeSeries
from .errors import FitDiverged, InvalidInput

_STATIONARITY_MARGIN = 1e-6


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


def simulate_garch(
    params: GarchParams,
    n: int,
    burn_in: int = 2000,
    seed: int = 0,
    innovations: np.ndarray | None = None,
    return_sigma: bool = False,
):
    """Simulate a GARCH(1,1) path of length n (after discarding burn_in).

    The variance recursion starts at the unconditional variance. Same seed
    and parameters give the identical path. ``innovations`` overrides the
    Student-t draws (test hook).

    Returns the TimeSeries, or (TimeSeries, sigma array) with return_sigma.
    """
    n = int(n)
    burn_in = int(burn_in)
    if n < 1 or burn_in < 0:
        raise InvalidInput("need n >= 1 and burn_in >= 0")
    total = n + burn_in
    if innovations is not None:
        z = np.asarray(innovations, dtype=float)
        if z.size != total:
            raise InvalidInput(f"need {total} innovations (n + burn_in)")
    else:
        z = _student_t(substream(seed), params.innovation_dof, total, params.standardize_innovations)

    x = np.empty(total)
    sigma2 = np.empty(total)
    var = params.unconditional_variance()
    omega, alpha, beta = params.omega, params.alpha, params.beta
    for t in range(total):
        sigma2[t] = var
        x[t] = math.sqrt(var) * z[t]
        var = omega + alpha * x[t] * x[t] + beta * var
    series = TimeSeries(x[burn_in:])
    if return_sigma:
        return series, np.sqrt(sigma2[burn_in:])
    return series


def simulate_sv(
    params: SvParams,
    n: int,
    burn_in: int = 2000,
    seed: int = 0,
    log_vol_innovations: np.ndarray | None = None,
    initial_log_vol: float | None = None,
    return_sigma: bool = False,
):
    """Simulate the stochastic-volatility model for n observations.

    The log-volatility noise and the return innovations come from two
    independent substreams of the seed; the initial log-volatility is drawn
    from the stationary normal law unless given. Both overrides are test
    hooks.
    """
    n = int(n)
    burn_in = int(burn_in)
    if n < 1 or burn_in < 0:
        raise InvalidInput("need n >= 1 and burn_in >= 0")
    total = n + burn_in
    phi = params.ar_coefficient
    sd = params.log_vol_noise_sd
    if log_vol_innovations is not None:
        eps = np.asarray(log_vol_innovations, dtype=float)
        if eps.size != total:
            raise InvalidInput(f"need {total} log-volatility innovations (n + burn_in)")
    else:
        eps = substream(seed, 0).normal(0.0, sd, size=total)
    z = _student_t(substream(seed, 1), params.innovation_dof, total, standardize=False)
    if initial_log_vol is None:
        lv0 = substream(seed, 2).normal(0.0, sd / math.sqrt(1.0 - phi * phi))
    else:
        lv0 = float(initial_log_vol)

    log_vol = lfilter([1.0], [1.0, -phi], eps, zi=[phi * lv0])[0]
    x = np.exp(log_vol) * z
    series = TimeSeries(x[burn_in:])
    if return_sigma:
        return series, np.exp(log_vol[burn_in:])
    return series


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
    if x2.size > 1:
        u = omega + alpha * x2[:-1]
        sigma2[1:] = lfilter([1.0], [1.0, -beta], u, zi=[beta * v0])[0]
    return sigma2


def _qml_negloglik(theta: np.ndarray, x2: np.ndarray, v0: float):
    """Negative Gaussian quasi-log-likelihood (without the 2*pi constant)
    and its gradient, via the recursive variance derivatives."""
    omega, alpha, beta = theta
    if not (omega > 0.0 and alpha >= 0.0 and 0.0 <= beta < 1.0):
        return 1e12 + beta * 1e8, np.array([0.0, 0.0, 1e8])
    sigma2 = _garch_filter(x2, v0, omega, alpha, beta)
    nll = 0.5 * float(np.sum(np.log(sigma2) + x2 / sigma2))
    if not np.isfinite(nll):
        return 1e12, np.zeros(3)
    # d var[t]/d theta follow the same AR(1) recursion driven by 1, x2, var
    m = x2.size - 1
    zi = [0.0]
    d_omega = lfilter([1.0], [1.0, -beta], np.ones(m), zi=zi)[0]
    d_alpha = lfilter([1.0], [1.0, -beta], x2[:-1], zi=zi)[0]
    d_beta = lfilter([1.0], [1.0, -beta], sigma2[:-1], zi=zi)[0]
    w = 0.5 * (sigma2[1:] - x2[1:]) / sigma2[1:] ** 2
    grad = np.array([np.dot(w, d_omega), np.dot(w, d_alpha), np.dot(w, d_beta)])
    return nll, grad


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
    best = None
    last = None
    for theta0 in starts:
        with warnings.catch_warnings():
            # SLSQP probes slightly outside the box and clips; not an error
            warnings.simplefilter("ignore", RuntimeWarning)
            res = minimize(
                _qml_negloglik,
                theta0,
                args=(x2, v0),
                jac=True,
                method="SLSQP",
                bounds=bounds,
                constraints=constraints,
                options={"maxiter": 500, "ftol": 1e-12},
            )
        last = res
        if not np.all(np.isfinite(res.x)):
            continue
        if res.success and (best is None or res.fun < best.fun):
            best = res

    if best is None:
        theta = np.asarray(last.x, dtype=float)
        _, grad = _qml_negloglik(theta, x2, v0)
        raise FitDiverged(
            "quasi-likelihood optimization did not converge from any start",
            params=tuple(theta),
            grad_norm=float(np.linalg.norm(grad)),
        )

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
    nll, grad = _qml_negloglik(theta, x2, v0)
    sigma2 = _garch_filter(x2, v0, omega, alpha, beta)
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


def devolatilize(x: TimeSeries) -> tuple[TimeSeries, VolatilityDecomposition]:
    """Divide a series by its fitted GARCH(1,1) conditional volatility.

    Returns the residual series together with the full decomposition so the
    caller can record the fitted parameters.
    """
    fit = fit_garch_qmle(x)
    residuals = TimeSeries(fit.residuals, x.labels)
    return residuals, fit
