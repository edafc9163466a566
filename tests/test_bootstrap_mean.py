"""The stationary bootstrap's mean lagged pair and return-time counts
against their exact values.

Replicates are the literal ones, each array gathered by the ``index_array``
of the plan ``oracles.literal_plan`` draws for child seed
``spawn_seed(seed, i)``; the engine tests pin those plans to
``bootstrap_bands`` bit for bit. For each kernel family, the mean
replicate count at every lag must lie within Z standard errors of
``oracles.bootstrap_expected_counts``, the standard error taken from the
replicate counts' own sd. A return time at lag h also needs no event
strictly between t and t + h; the oracle's chain of source positions keeps
those h - 1 positions clear. For lagged pairs the chain form must also
equal the closed form (``_closed_form`` below).
"""

import functools
import itertools

import numpy as np
import pytest

import extremogram as xg
import oracles
from conftest import literal_block_plan
from extremogram._rng import spawn_seed

N = 500
MAX_LAG = 6
REPLICATES = 4000
# a two-sided bound per lag and case; about 120 bounds are checked, and
# |z| > 4 has probability 6e-5 each
Z = 4.0
UPPER = xg.upper_tail_region()
LOWER = xg.lower_tail_region()


def _garch(seed):
    return xg.simulate_garch(xg.GarchParams(), N, burn_in=500, seed=seed)


def _spec(x):
    return xg.ThresholdSpec(0.9, xg.UPPER).resolve(x)


@functools.cache
def _kernels():
    x, y, z = _garch(31), _garch(32), _garch(33)
    sx, sy, sz = _spec(x), _spec(y), _spec(z)
    return {
        "univariate_same": xg.univariate_kernel(x, UPPER, UPPER, sx, MAX_LAG),
        "univariate_upper_lower": xg.univariate_kernel(x, UPPER, LOWER, sx, MAX_LAG),
        "cross": xg.cross_kernel(x, y, UPPER, UPPER, sx, sy, MAX_LAG),
        "tri_target": xg.tri_target_kernel(x, y, z, sx, sy, sz, MAX_LAG),
        "tri_source": xg.tri_source_kernel(x, y, z, sx, sy, sz, MAX_LAG),
        "return_times": xg.return_times_kernel(x, UPPER, sx, MAX_LAG),
    }


@functools.cache
def _plans(p, seed):
    return [literal_block_plan(N, p, spawn_seed(seed, i)) for i in range(REPLICATES)]


def _return_times(kernel):
    return kernel.family == "return_times"


def _expected(kernel, p, lags):
    return oracles.bootstrap_expected_counts(kernel.cond, kernel.resp, p, lags,
                                             return_times=_return_times(kernel))


def _replicate_counts(kernel, p, seed):
    """Per-replicate counts (lagged pairs, or for return times the gaps of
    exactly h between consecutive events) and conditioning-event counts."""
    counts = np.empty((REPLICATES, kernel.lags.size), dtype=np.int64)
    events = np.empty(REPLICATES, dtype=np.int64)
    for i, plan in enumerate(_plans(p, seed)):
        index = plan.index_array()
        c, r = kernel.cond[index], kernel.resp[index]
        if _return_times(kernel):
            gaps = np.diff(np.flatnonzero(c))
            counts[i] = [np.count_nonzero(gaps == h) for h in kernel.lags]
        else:
            counts[i] = [np.count_nonzero(c[:N - h] & r[h:]) for h in kernel.lags]
        events[i] = np.count_nonzero(c)
    return counts, events


def _closed_form(cond, resp, p, lags):
    """Lagged pairs only, per lag h:

        E*[N*_h] = (n - h) [(1 - p)^h C_h / n + (1 - (1 - p)^h) N_A N_B / n^2]

    Replicate positions t and t + h lie in one block with probability
    (1 - p)^h, and then copy the circular source pair (s, s + h mod n) for a
    uniform s; otherwise they copy two independent uniform positions. C_h is
    the circular lagged count of the sample, N_A and N_B its event counts.
    """
    n = len(cond)
    c = [bool(v) for v in cond]
    r = [bool(v) for v in resp]
    n_a, n_b = sum(c), sum(r)
    expected = []
    for h in lags:
        h = int(h)
        circular = sum(1 for t in range(n) if c[t] and r[(t + h) % n])
        stay = (1.0 - p) ** h
        expected.append((n - h) * (stay * circular / n + (1.0 - stay) * n_a * n_b / n**2))
    return np.array(expected)


def _assert_within(mean, sd, expected):
    """Each mean within Z standard errors of its expectation; a count with
    no spread across replicates must equal it exactly."""
    se = sd / np.sqrt(REPLICATES)
    exact = sd == 0.0
    assert np.array_equal(mean[exact], expected[exact])
    z = (mean[~exact] - expected[~exact]) / se[~exact]
    assert np.all(np.abs(z) <= Z), z


@pytest.mark.parametrize("family", sorted(_kernels()))
@pytest.mark.parametrize("p", [0.05, 0.005, 1.0])
def test_mean_replicate_count_matches_closed_form(family, p):
    # p = 0.005: blocks of mean length 200 on n = 500 wrap round the sample
    # end in most replicates; p = 1: every block has length 1
    kernel = _kernels()[family]
    counts, events = _replicate_counts(kernel, p, seed=7)
    expected = _expected(kernel, p, kernel.lags)
    _assert_within(counts.mean(axis=0), counts.std(axis=0, ddof=1), expected)
    # every replicate position is uniform on the sample, so E*[N*_A] = N_A
    _assert_within(events.mean(keepdims=True), events.std(ddof=1, keepdims=True),
                   np.array([float(kernel.denominator)]))


@pytest.mark.parametrize("family", sorted(set(_kernels()) - {"return_times"}))
@pytest.mark.parametrize("p", [0.05, 0.005, 1.0])
def test_chain_form_equals_the_closed_form_for_lagged_pairs(family, p):
    kernel = _kernels()[family]
    lags = range(MAX_LAG + 1)
    assert np.allclose(_expected(kernel, p, lags), _closed_form(kernel.cond, kernel.resp, p, lags),
                       rtol=1e-12, atol=0)


@pytest.mark.parametrize("return_times", [False, True])
@pytest.mark.parametrize("p", [0.3, 1.0])
def test_chain_form_on_every_source_path(return_times, p):
    # n = 4: weigh each of the 4^4 source sequences by its probability (a
    # uniform first source; each next one the source after it with
    # probability 1 - p, plus p / n for every source) and count it
    n, cond, resp = 4, [1, 0, 1, 1], [0, 1, 1, 0]
    if return_times:
        resp = cond
    lags = [1, 2, 3] if return_times else [0, 1, 2, 3]
    want = np.zeros(len(lags))
    for path in itertools.product(range(n), repeat=n):
        weight = 1.0 / n
        for s, t in zip(path, path[1:]):
            weight *= (1.0 - p) * (t == (s + 1) % n) + p / n
        c = [cond[s] for s in path]
        r = [resp[s] for s in path]
        events = [t for t in range(n) if c[t]]
        gaps = [b - a for a, b in zip(events, events[1:])]
        for k, h in enumerate(lags):
            count = (gaps.count(h) if return_times
                     else sum(c[t] and r[t + h] for t in range(n - h)))
            want[k] += weight * count
    got = oracles.bootstrap_expected_counts(cond, resp, p, lags, return_times=return_times)
    assert np.allclose(got, want, rtol=1e-12, atol=1e-15)


def test_lag_zero_with_a_equal_b_is_the_event_count():
    # the lag-0 pairs of A = B are the events themselves: the closed form
    # gives N_A exactly, and each replicate's count is its own event count
    kernel = _kernels()["univariate_same"]
    expected = _expected(kernel, 0.05, [0])
    assert expected.tolist() == [kernel.denominator]
    counts, events = _replicate_counts(kernel, 0.05, seed=7)
    assert np.array_equal(counts[:, 0], events)


def test_closed_form_on_a_hand_count():
    # n = 4, A = {0, 3}, B = {1}: circular C_0 = 0, C_1 = 1 (0 -> 1),
    # C_2 = 1 (3 -> 1, wrapping), C_3 = 0; N_A N_B / n^2 = 1/8
    cond = [1, 0, 0, 1]
    resp = [0, 1, 0, 0]
    got = oracles.bootstrap_expected_counts(cond, resp, 0.5, [0, 1, 2, 3])
    want = [0.0, 3 * (0.5 * 1 / 4 + 0.5 / 8), 2 * (0.25 * 1 / 4 + 0.75 / 8),
            1 * (0.125 * 0 + 0.875 / 8)]
    assert np.allclose(got, want, rtol=0, atol=1e-15)
