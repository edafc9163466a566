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
from dataclasses import dataclass, field

import numpy as np

from ._rng import substream
from .core import _INDEX_MAX, TimeSeries, _whole
from .errors import AnalysisFailed, InvalidInput

_STATIONARITY_MARGIN = 1e-6
_LENGTHS = f"need n >= 1, burn_in >= 0 and n + burn_in <= {_INDEX_MAX}"


@dataclass(frozen=True)
class GarchParams:
    """GARCH(1,1) parameters: var[t] = omega + alpha*x[t-1]^2 + beta*var[t-1].

    Innovations are Student-t with ``innovation_dof`` degrees of freedom,
    always rescaled to unit variance (so 2 < dof < inf);
    ``standardize_innovations`` records that in the simulate metadata.
    """

    omega: float = 0.1
    alpha: float = 0.14
    beta: float = 0.84
    innovation_dof: float = 4.0
    standardize_innovations: bool = field(default=True, init=False)

    def __post_init__(self):
        if not 0.0 < self.omega < math.inf:
            raise InvalidInput(f"omega must be positive and finite, got {self.omega}")
        if self.alpha < 0.0 or self.beta < 0.0:
            raise InvalidInput("alpha and beta must be nonnegative")
        if not self.alpha + self.beta < 1.0:
            raise InvalidInput("need alpha + beta < 1 for covariance stationarity")
        if not self.unconditional_variance() < math.inf:
            raise InvalidInput(f"unconditional variance omega / (1 - alpha - beta) must be "
                               f"finite, got {self.unconditional_variance()}")
        if not 2.0 < self.innovation_dof < math.inf:
            raise InvalidInput(f"unit-variance innovations need 2 < innovation dof < inf, "
                               f"got {self.innovation_dof}")

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
        if not 0.0 < self.innovation_dof < math.inf:
            raise InvalidInput(f"innovation dof must be positive and finite, "
                               f"got {self.innovation_dof}")
        if not 0.0 < self.log_vol_noise_sd < math.inf:
            raise InvalidInput(f"log-volatility noise sd must be positive and finite, "
                               f"got {self.log_vol_noise_sd}")


def simulate_garch(params: GarchParams, n: int, burn_in: int = 2000, seed: int = 0) -> TimeSeries:
    """Simulate a GARCH(1,1) path of length n (after discarding burn_in).

    The variance recursion starts at the unconditional variance. The n +
    burn_in Student-t innovations are drawn from ``substream(seed)``, so the
    same seed and parameters give the identical path.
    """
    burn_in = _whole(burn_in, 0, _INDEX_MAX, _LENGTHS)
    total = _whole(n, 1, _INDEX_MAX - burn_in, _LENGTHS) + burn_in
    dof = params.innovation_dof
    z = substream(seed).standard_t(dof, size=total) * math.sqrt((dof - 2.0) / dof)

    x = z.tolist()  # Python floats: the same IEEE steps as numpy scalars, faster
    var = params.unconditional_variance()
    omega, alpha, beta = params.omega, params.alpha, params.beta
    for t, zt in enumerate(x):
        x[t] = xt = math.sqrt(var) * zt
        var = omega + alpha * xt * xt + beta * var
    # an overflow is never undone: every later value is inf or NaN
    if not math.isfinite(x[-1]):
        raise InvalidInput(f"the GARCH path overflowed (omega={omega}, alpha={alpha}, "
                           f"beta={beta}): its squared shocks exceed the float range")
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
    z = substream(seed, 1).standard_t(params.innovation_dof, size=total)
    lv0 = substream(seed, 2).normal(0.0, sd / math.sqrt(1.0 - phi * phi))

    log_vol = _ar1(phi, eps, phi * lv0)
    return TimeSeries((np.exp(log_vol) * z)[burn_in:])


@dataclass(frozen=True, eq=False)
class VolatilityDecomposition:
    """Fitted conditional volatility, residuals, and the fit diagnostics."""

    params: GarchParams
    sigma: np.ndarray
    residuals: np.ndarray
    log_likelihood: float
    iterations: int
    grad_norm: float

    @property
    def constraint_margin(self) -> float:
        """Distance of the fitted parameters to the nearest constraint."""
        return min(
            self.params.omega,
            self.params.alpha,
            self.params.beta,
            1.0 - _STATIONARITY_MARGIN - self.params.alpha - self.params.beta,
        )


def _ar1(c: float, u: np.ndarray, z0: float) -> np.ndarray:
    """y[t] = u[t] + c * y[t-1], with c * y[-1] = z0: the same float steps as
    that loop written out."""
    from scipy.signal import lfilter  # deferred: importing scipy.signal takes about 1 s

    return lfilter([1.0], [1.0, -c], u, zi=[z0])[0]


def _qml(y2: np.ndarray, omega: float, alpha: float, beta: float) -> tuple[np.ndarray, float]:
    """Conditional variances, with var[0] fixed at 1, and the negative Gaussian
    quasi-log-likelihood (without the 2*pi constant) of a series with squares y2."""
    sigma2 = np.empty(y2.size)
    sigma2[0] = 1.0
    sigma2[1:] = _ar1(beta, omega + alpha * y2[:-1], beta)
    return sigma2, 0.5 * float(np.sum(np.log(sigma2) + y2 / sigma2))


def _score(y2: np.ndarray, sigma2: np.ndarray, beta: float) -> tuple[list, list]:
    """Gradient g of ``_qml`` and Fisher information I = sum(dvar dvar' / var^2) / 2,
    by the recursive variance derivatives; every sum is ``np.sum`` of a product,
    whose order does not depend on the BLAS threads."""
    # d var[t]/d theta follow the same AR(1) recursion driven by 1, y2, var
    ds = [_ar1(beta, u, 0.0) for u in (np.ones(y2.size - 1), y2[:-1], sigma2[:-1])]
    inv = 1.0 / sigma2[1:]
    w = 0.5 * (sigma2[1:] - y2[1:]) * inv * inv
    h = [0.5 * inv * inv * d for d in ds]
    g = [float(np.sum(w * d)) for d in ds]
    fisher = [[float(np.sum(h[min(i, j)] * ds[max(i, j)])) for j in range(3)] for i in range(3)]
    return g, fisher


def _solve(a: list, b: list) -> list:
    """Solve a x = b by pivoted Gauss-Jordan elimination on Python floats, not BLAS."""
    m = [row + [v] for row, v in zip(a, b)]
    k = len(b)
    for c in range(k):
        p = max(range(c, k), key=lambda r: abs(m[r][c]))
        m[c], m[p] = m[p], m[c]
        for r in range(k):
            if r != c:
                f = m[r][c] / m[c][c]
                m[r] = [u - f * v for u, v in zip(m[r], m[c])]
    return [m[c][k] / m[c][c] for c in range(k)]


# the faces of alpha >= 0, beta >= 0 and alpha + beta <= 1 - margin, as rows a
# of a . theta >= b over theta = (omega, alpha, beta)
_FACES = ((0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (0.0, -1.0, -1.0))
_MAX_ITERATIONS = 500


def _kkt_step(g: list, fisher: list, faces: list) -> tuple[list, list]:
    """The step d minimizing g.d + d.I.d / 2 with a.d = 0 on the active faces,
    and their multipliers: I d + g = sum(lam * a)."""
    rows = [_FACES[f] for f in faces]
    pad = [0.0] * len(rows)
    kkt = [fisher[i] + [-a[i] for a in rows] for i in range(3)] + [list(a) + pad for a in rows]
    x = _solve(kkt, [-v for v in g] + pad)
    return x[:3], x[3:]


def _on_faces(alpha: float, beta: float, faces: list) -> tuple[float, float]:
    """(alpha, beta) put exactly on the active faces. On alpha + beta = c the
    larger becomes c minus the smaller, then the smaller c minus that, which
    is exact, so the two sum to c."""
    c = 1.0 - _STATIONARITY_MARGIN
    alpha, beta = 0.0 if 0 in faces else alpha, 0.0 if 1 in faces else beta
    if 2 in faces:
        return (c - (c - alpha), c - alpha) if alpha < beta else (c - beta, c - (c - beta))
    return alpha, beta


def fit_garch_qmle(x: TimeSeries) -> VolatilityDecomposition:
    """Fit GARCH(1,1) by Gaussian quasi-maximum likelihood.

    Maximizes -0.5 * sum(log var[t] + x[t]^2/var[t]) over (omega, alpha,
    beta) subject to omega > 0, alpha, beta >= 0, alpha + beta <= 1 - 1e-6,
    with var[0] fixed at the sample variance v0. The fit runs on x / sqrt(v0),
    so it does not depend on the scale of x. From (0.05, 0.05, 0.90), each
    iteration takes the Fisher-scoring step on the active set of the
    constraints, stops it on the first face it reaches, lets omega at most
    halve, and halves it until the likelihood does not fall. The fit stops
    when the predicted gain is at most 1e-15 of the objective, with the KKT
    residual of the scaled problem as ``grad_norm``, or raises
    ``AnalysisFailed`` after 500 iterations. Every sum has a fixed order, so the
    fit does not depend on the BLAS thread count.
    """
    values = x.values
    if values.size < 100:
        raise InvalidInput("need at least 100 observations to fit a volatility model")
    with np.errstate(over="ignore"):
        v0 = float(np.var(values))
    if not 0.0 < v0 < math.inf:
        raise InvalidInput("need a series whose variance is positive and finite (not constant, "
                           "not overflowing) to fit a volatility model")
    y2 = (values / math.sqrt(v0)) ** 2

    theta, faces = [0.05, 0.05, 0.90], []
    sigma2, nll = _qml(y2, *theta)
    for iterations in range(_MAX_ITERATIONS + 1):
        g, fisher = _score(y2, sigma2, theta[2])
        for i in range(3):
            fisher[i][i] *= 1.0 + 1e-6
        while True:
            d, lam = _kkt_step(g, fisher, faces)
            if min(lam, default=0.0) >= 0.0:
                break
            del faces[lam.index(min(lam))]
        if -0.5 * sum(a * b for a, b in zip(g, d)) <= 1e-15 * abs(nll):
            break
        if iterations == _MAX_ITERATIONS:
            raise AnalysisFailed(f"quasi-likelihood scoring did not converge in {iterations} iterations")
        # the longest step up to 1 that lets omega at most halve and crosses no face
        t, hit = 1.0, None
        if d[0] < 0.0:
            t = min(1.0, -0.5 * theta[0] / d[0])
        slacks = (theta[1], theta[2], 1.0 - _STATIONARITY_MARGIN - theta[1] - theta[2])
        for f, (a, slack) in enumerate(zip(_FACES, slacks)):
            rate = sum(u * v for u, v in zip(a, d))
            if f not in faces and rate < 0.0 and slack <= -t * rate:
                t, hit = slack / -rate, f
        while True:
            on = faces + [hit] if hit is not None else faces
            trial = [theta[0] + t * d[0], *_on_faces(theta[1] + t * d[1], theta[2] + t * d[2], on)]
            trial_sigma2, trial_nll = _qml(y2, *trial)
            if trial_nll <= nll:
                break
            t, hit = 0.5 * t, None
        theta, faces, sigma2, nll = trial, on, trial_sigma2, trial_nll

    kkt_residual = [gi - sum(l * _FACES[f][i] for l, f in zip(lam, faces)) for i, gi in enumerate(g)]
    sigma = math.sqrt(v0) * np.sqrt(sigma2)
    return VolatilityDecomposition(
        params=GarchParams(omega=theta[0] * v0, alpha=theta[1], beta=theta[2]),
        sigma=sigma,
        residuals=values / sigma,
        log_likelihood=-nll - 0.5 * values.size * math.log(2.0 * math.pi * v0),
        iterations=iterations,
        grad_norm=math.hypot(*kkt_residual),
    )
