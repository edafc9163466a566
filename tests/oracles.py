"""Literal-definition reference implementations used as test oracles.

Everything here is written directly from the estimator definitions with
plain Python loops and its own membership test, independent of the library
code paths it checks. The stochastic-volatility extremogram is computed by
quadrature from the model definition, never from simulated paths.
``literal_ingest`` is the CSV row loop the CLI used before it converted each
column in one pass: every row kept in a list, each cell tested with ``float``
and then parsed again.
"""

import csv
import functools
import io
import math

import numpy as np
from numpy.polynomial.hermite_e import hermegauss
from scipy.optimize import brentq
from scipy.stats import t as student_t


class IngestError(Exception):
    """Raised by ``literal_ingest`` with the message the CLI reports."""


def _is_number(cell):
    try:
        float(cell)
        return True
    except ValueError:
        return False


def _column_index(selector, header, path):
    if selector.isdecimal():
        return int(selector)
    if header is None:
        raise IngestError(f"{path}: column {selector!r} needs a header row")
    if selector not in header:
        raise IngestError(f"{path}: no column named {selector!r} in header {header}")
    return header.index(selector)


def literal_ingest(text, path, column="0", date_column=None):
    """Values (float64 array) and labels (tuple or None) of one CSV text.

    Blank rows are dropped; line numbers are the file's physical lines, the
    line on which each record ends.
    """
    reader = csv.reader(io.StringIO(text))
    rows = []
    for row in reader:
        if any(cell.strip() for cell in row):
            rows.append((reader.line_num, row))
    if not rows:
        raise IngestError(f"{path}: no data rows")
    first = rows[0][1]
    probe = first[int(column):int(column) + 1] if column.isdecimal() else first
    has_header = not (probe and all(_is_number(cell) for cell in probe))
    header = first if has_header else None
    col = _column_index(column, header, path)
    date_col = _column_index(date_column, header, path) if date_column is not None else None

    values = []
    labels = []
    origins = []
    for lineno, row in rows[1:] if has_header else rows:
        if col >= len(row) or (date_col is not None and date_col >= len(row)):
            raise IngestError(f"{path}: line {lineno}: too few columns")
        cell = row[col].strip()
        if not _is_number(cell):
            raise IngestError(f"{path}: line {lineno}: cannot parse {cell!r} as a number")
        values.append(float(cell))
        origins.append((lineno, cell))
        if date_col is not None:
            labels.append(row[date_col].strip())
    if not values:
        raise IngestError("a series needs at least one observation")
    for value, (lineno, cell) in zip(values, origins):
        if not math.isfinite(value):
            raise IngestError(f"{path}: line {lineno}: {cell!r} is not a finite number")
    return np.array(values, dtype=np.float64), tuple(labels) if date_col is not None else None


def in_region(y, intervals):
    return any(lo < y < hi for lo, hi in intervals)


def brute_univariate(values, scale, intervals_a, intervals_b, max_lag):
    n = len(values)
    scaled = [v / scale for v in values]
    denom = sum(1 for t in range(n) if in_region(scaled[t], intervals_a))
    nums = []
    for h in range(max_lag + 1):
        num = 0
        for t in range(n - h):
            if in_region(scaled[t], intervals_a) and in_region(scaled[t + h], intervals_b):
                num += 1
        nums.append(num)
    return np.array(nums), denom


def brute_cross(x, scale_x, y, scale_y, intervals_a, intervals_b, max_lag):
    n = len(x)
    sx = [v / scale_x for v in x]
    sy = [v / scale_y for v in y]
    denom = sum(1 for t in range(n) if in_region(sx[t], intervals_a))
    nums = []
    for h in range(max_lag + 1):
        num = 0
        for t in range(n - h):
            if in_region(sx[t], intervals_a) and in_region(sy[t + h], intervals_b):
                num += 1
        nums.append(num)
    return np.array(nums), denom


def brute_tri_target(ex_x, ex_y, ex_z, max_lag):
    """Indicator triples already computed: X exceeds and (Y or Z exceeds)."""
    n = len(ex_x)
    denom = sum(ex_x)
    nums = []
    for h in range(max_lag + 1):
        num = 0
        for t in range(n - h):
            if ex_x[t] and (ex_y[t + h] or ex_z[t + h]):
                num += 1
        nums.append(num)
    return np.array(nums), denom


def brute_tri_source(ex_x, ex_y, ex_z, max_lag):
    n = len(ex_x)
    denom = sum(1 for t in range(n) if ex_x[t] or ex_y[t])
    nums = []
    for h in range(max_lag + 1):
        num = 0
        for t in range(n - h):
            if (ex_x[t] or ex_y[t]) and ex_z[t + h]:
                num += 1
        nums.append(num)
    return np.array(nums), denom


def brute_lag_one(cond, resp, order):
    """Lag-1 estimate of the sample reordered by ``order``: the number of t
    with a conditioning event at t and a response event at t+1, over the
    number of conditioning events."""
    c = [bool(cond[i]) for i in order]
    r = [bool(resp[i]) for i in order]
    pairs = 0
    for t in range(len(c) - 1):
        if c[t] and r[t + 1]:
            pairs += 1
    return pairs / sum(c)


def brute_return_times(values, scale, intervals, max_lag):
    """Sliding-window recount: event at t, event at t+h, none in between."""
    n = len(values)
    hit = [in_region(v / scale, intervals) for v in values]
    denom = sum(hit)
    nums = []
    for h in range(1, max_lag + 1):
        num = 0
        for t in range(n - h):
            if hit[t] and hit[t + h] and not any(hit[t + 1 : t + h]):
                num += 1
        nums.append(num)
    return np.array(nums), denom


def event_gap_histogram(values, scale, intervals, max_lag):
    """Second independent route: walk consecutive event indices, tally gaps."""
    events = [t for t, v in enumerate(values) if in_region(v / scale, intervals)]
    counts = {h: 0 for h in range(1, max_lag + 1)}
    for a, b in zip(events, events[1:]):
        gap = b - a
        if gap <= max_lag:
            counts[gap] += 1
    return counts, len(events)


def _sv_log_vol_law(params):
    """AR coefficient, t dof and stationary sd of the SV log-volatility L."""
    phi = params.ar_coefficient
    sd = params.log_vol_noise_sd / np.sqrt(1.0 - phi * phi)
    return phi, params.innovation_dof, sd


@functools.lru_cache(maxsize=None)
def _gauss_normal(nodes):
    """Nodes and weights of E[f(N(0,1))] by Gauss-Hermite (probabilists').

    ``hermegauss`` overflows somewhere below 400 nodes; 100-200 suffice.
    """
    x, w = hermegauss(nodes)
    w = w / np.sqrt(2.0 * np.pi)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def sv_tail(params, u, nodes=150):
    """P(X > u) for X = exp(L) Z: E[S(u exp(-L))], S the t survival function."""
    _, dof, sd = _sv_log_vol_law(params)
    x, w = _gauss_normal(nodes)
    return float(w @ student_t.sf(u * np.exp(-sd * x), dof))


def sv_threshold(params, q, nodes=150):
    """Population q-quantile u of the SV marginal: sv_tail(u) = 1 - q."""
    return brentq(lambda u: sv_tail(params, u, nodes) - (1.0 - q), 1e-12, 1e12,
                  xtol=1e-14, rtol=1e-14)


def sv_extremogram(params, q, max_lag, nodes=150):
    """Exact finite-threshold upper-tail extremogram of the SV model, lags 0..max_lag.

    Model: log sigma_t = phi log sigma_{t-1} + N(0, s^2), X_t = sigma_t Z_t with
    raw Student-t Z_t, so L = log sigma is a stationary Gaussian AR(1) with sd
    s / sqrt(1 - phi^2). Given the log-volatilities the returns are
    independent, hence for h >= 1

        rho_h = P(X_h > u | X_0 > u) = E[S(u e^{-L_0}) S(u e^{-L_h})] / (1 - q)

    with (L_0, L_h) bivariate normal of correlation phi^h, evaluated by a
    tensor Gauss-Hermite rule; u solves E[S(u e^{-L})] = 1 - q. rho_0 = 1.
    """
    phi, dof, sd = _sv_log_vol_law(params)
    u = sv_threshold(params, q, nodes)
    x, w = _gauss_normal(nodes)
    surv_0 = student_t.sf(u * np.exp(-sd * x), dof)
    rho = np.empty(max_lag + 1)
    rho[0] = 1.0
    for h in range(1, max_lag + 1):
        r = phi**h
        # L_h = sd * (r a + sqrt(1 - r^2) b) with a, b iid N(0, 1); a indexes rows
        lag_h = sd * (r * x[:, None] + np.sqrt(1.0 - r * r) * x[None, :])
        surv_h = student_t.sf(u * np.exp(-lag_h), dof)
        rho[h] = (w * surv_0) @ surv_h @ w / (1.0 - q)
    return rho
