"""Literal-definition reference implementations used as test oracles.

Everything here is written directly from the estimator definitions with
plain Python loops and its own membership test, independent of the library
code paths it checks. The stochastic-volatility extremogram is computed by
quadrature from the model definition, never from simulated paths.
``garch_path`` and ``sv_path`` run the two volatility models one step at a
time on given draws, and ``ar1_path`` the first-order recursion that the
SV simulator and the GARCH fit filter with. ``bootstrap_expected_counts``
is the exact mean lagged pair or return-time count of a
stationary-bootstrap replicate, and ``literal_plan`` draws one replicate's
block plan from its two substreams with numpy's own ``geometric`` and
``integers`` calls.
``literal_ingest`` is the CSV row loop the CLI used before it converted each
column in one pass: every row kept in a list, each cell tested with ``float``
and then parsed again. ``literal_join`` is the date join of several such
files, written with one dict per file and a loop over the first file's dates.
``literal_csv`` and ``literal_json`` are the row-wise document writers the
CLI used before documents held one list per column.
"""

import csv
import functools
import io
import json
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
    # a position past the end of the first row probes every cell, as a header name does
    probe = (first[int(column):int(column) + 1] or first) if column.isdecimal() else first
    has_header = not all(_is_number(cell) for cell in probe)
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
        raise IngestError(f"{path}: no data rows")
    for value, (lineno, cell) in zip(values, origins):
        if not math.isfinite(value):
            raise IngestError(f"{path}: line {lineno}: {cell!r} is not a finite number")
    return np.array(values, dtype=np.float64), tuple(labels) if date_col is not None else None


def literal_join(texts, paths, column, date_column):
    """The value arrays of several dated CSV texts, inner-joined on their dates
    in the first file's row order.

    Every file is read first; then each file, in order, is checked for a
    repeated date; then the files must share at least one date.
    """
    parsed = [literal_ingest(text, path, column, date_column) for text, path in zip(texts, paths)]
    rows = []
    for path, (_, dates) in zip(paths, parsed):
        row_of = {}
        for row, date in enumerate(dates):
            if date in row_of:
                raise IngestError(f"{path}: duplicate dates prevent joining")
            row_of[date] = row
        rows.append(row_of)
    joined = [[] for _ in parsed]
    for date in parsed[0][1]:
        if all(date in row_of for row_of in rows):
            for out, (values, _), row_of in zip(joined, parsed, rows):
                out.append(values[row_of[date]])
    if not joined[0]:
        raise IngestError("the input files share no dates")
    return [np.array(out, dtype=np.float64) for out in joined]


def literal_csv(columns, rows):
    """A CSV document, one row tuple at a time: an empty cell for None,
    ``str`` of every other cell."""
    lines = [",".join(columns)]
    lines.extend(",".join("" if v is None else str(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def literal_json(metadata, columns, rows):
    """A JSON document: the metadata, then one object per row tuple."""
    payload = {"metadata": metadata, "rows": [dict(zip(columns, row)) for row in rows]}
    return json.dumps(payload, indent=2, sort_keys=False) + "\n"


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


def garch_path(params, z):
    """GARCH(1,1) values and sigma for the innovations ``z``, one step at a
    time: sigma_t^2 = omega + alpha x_{t-1}^2 + beta sigma_{t-1}^2, with
    sigma_0^2 = omega / (1 - alpha - beta), and x_t = sigma_t z_t."""
    omega, alpha, beta = params.omega, params.alpha, params.beta
    var = omega / (1.0 - (alpha + beta))  # the order GarchParams rounds in
    values, sigma = [], []
    for z_t in z:
        s = math.sqrt(var)
        x_t = s * z_t
        values.append(x_t)
        sigma.append(s)
        var = omega + alpha * x_t * x_t + beta * var
    return np.array(values), np.array(sigma)


def ar1_path(c, u, z0):
    """y_t = u_t + c y_{t-1}, one float step at a time, with c y_{-1} = z0."""
    y, carry = [], z0
    for u_t in u:
        y_t = u_t + carry
        y.append(y_t)
        carry = c * y_t
    return np.array(y)


def sv_path(params, eps, z, lv0):
    """SV values and sigma: log sigma_t = phi log sigma_{t-1} + eps_t, one
    step at a time from log sigma_{-1} = lv0, and x_t = sigma_t z_t. The
    exponential is numpy's, which can differ from ``math.exp`` in the last
    bit."""
    phi = params.ar_coefficient
    sigma = np.exp(ar1_path(phi, eps, phi * lv0))
    return sigma * np.asarray(z), sigma


def bootstrap_expected_counts(cond, resp, p, lags, return_times=False):
    """Exact expected count of a stationary-bootstrap replicate (Politis &
    Romano 1994), per lag h, from the chain of its source positions.

    Each replicate position copies a uniform source position, and the next
    one copies the source after it (mod n) with probability 1 - p, else a
    fresh uniform one: (P u)_i = (1 - p) u_{i+1 mod n} + p mean(u). So

        E*[N*_h] = (n - h) / n * c' K_h r

    with c = cond. Lagged pairs take r = resp and K_h = P^h. Return times
    take r = c and K_h = (P D)^(h-1) P with D = diag(1 - c), which also
    keeps the h - 1 positions in between clear of events. Each lag is one
    O(n) step of v_h = K_h r.
    """
    n = len(cond)
    c = [float(bool(v)) for v in cond]
    r = c if return_times else [float(bool(v)) for v in resp]

    def jump(u):
        mean = sum(u) / n
        return [(1.0 - p) * u[(i + 1) % n] + p * mean for i in range(n)]

    lags = [int(h) for h in lags]
    v, h, dot = r, 0, {}
    if return_times:  # from lag 1
        v, h = jump(r), 1
    while h <= max(lags):
        dot[h] = sum(a * b for a, b in zip(c, v))
        v = jump([(1.0 - a) * b for a, b in zip(c, v)] if return_times else v)
        h += 1
    return np.array([(n - h) / n * dot[h] for h in lags])


def literal_plan(n, p, length_rng, start_rng):
    """Starts and lengths of one stationary-bootstrap plan: geometric
    lengths from ``length_rng``, each capped at n, up to the first total
    >= n, then as many uniform starts in 1..n from ``start_rng``. Replicate
    i of a bootstrap with seed s takes ``substream(c, 0)`` and
    ``substream(c, 1)``, c = ``spawn_seed(s, i)``.

    Lengths are drawn in chunks of max(ceil(1.5 n p) + 16, 16), the chunk
    the library draws first, so a stub length stream can make the first
    chunk fall short of n.
    """
    chunk = max(int(math.ceil(1.5 * n * p)) + 16, 16)
    lengths = np.minimum(length_rng.geometric(p, size=chunk), n)  # int64
    ends = lengths.cumsum()
    while ends[-1] < n:
        lengths = np.concatenate((lengths, np.minimum(length_rng.geometric(p, size=chunk), n)))
        ends = lengths.cumsum()
    count = int(ends.searchsorted(n)) + 1
    return start_rng.integers(1, n + 1, size=count, dtype=np.int64), lengths[:count]
