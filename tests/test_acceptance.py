"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The containment criterion (8) is counted per lag: a lag passes when the
estimate lies inside the bands in the required number of seeds. Joint
containment of a whole lag window per seed is structurally capped well
below the required seed counts by the 98% per-lag level of a 99-permutation
band (the expected joint rate over L nearly independent lags is about
(98*99)/((98+L)*(99+L)), i.e. ~0.74 for L=16 and ~0.51 for L=40), so it
cannot distinguish a correct implementation from a broken one.

Criterion 2 is not a containment criterion. At the 0.98 quantile the SV
model's finite-threshold extremogram is still above the independence level
at lags 25-40 (0.0261 at lag 25, 0.0212 at lag 40, against 0.02), and its
estimator sd there (0.0035-0.004) exceeds the permutation null's (about
0.003), so per-lag containment of the no-dependence band stays below about
0.95 even at lags 35-40. The criterion instead compares the mean estimate
over its seeds with the exact value from ``oracles.sv_extremogram``.
"""

import time

import numpy as np
import pytest

import extremogram as xg
from extremogram import cli
from extremogram._rng import spawn_seed, substream

import oracles

UPPER_REGION = xg.upper_tail_region()
LOWER_REGION = xg.lower_tail_region()
TWO_SIDED_REGION = xg.two_sided_region()

ACCEPTANCE_LINES = []


def report(number, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    line = f"[ACCEPTANCE {number}] {status} {name}: {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    return passed


def test_criterion_1_garch_clustering():
    t0 = time.time()
    seeds_ok = 0
    for seed in range(20):
        sim = xg.simulate_garch(xg.GarchParams(), 100_000, burn_in=2000, seed=seed)
        spec = xg.ThresholdSpec(0.98, xg.UPPER).resolve(sim)
        kern = xg.univariate_kernel(sim, UPPER_REGION, UPPER_REGION, spec, 40)
        est = kern.point_estimates()
        _, upper = xg.permutation_bands(kern, n_perm=99, seed=seed)
        seeds_ok += bool(np.all(est[1:21] > upper))
    per_seed = (time.time() - t0) / 20
    ok = seeds_ok >= 18 and per_seed < 60
    assert report(
        1, "GARCH clustering above permutation band (lags 1-20)",
        ok, f"{seeds_ok}/20 seeds (need >= 18), {per_seed:.1f}s per seed (target < 60)",
    )


def test_criterion_2_sv_non_clustering():
    t0 = time.time()
    seeds, max_lag = 20, 40
    rho = oracles.sv_extremogram(xg.SvParams(), 0.98, max_lag)
    lag_window = np.arange(25, 41)
    estimates = np.empty((seeds, max_lag + 1))
    inside = np.zeros((seeds, lag_window.size), dtype=bool)
    for seed in range(seeds):
        sim = xg.simulate_sv(xg.SvParams(), 100_000, burn_in=2000, seed=seed)
        spec = xg.ThresholdSpec(0.98, xg.UPPER).resolve(sim)
        kern = xg.univariate_kernel(sim, UPPER_REGION, UPPER_REGION, spec, max_lag)
        est = kern.point_estimates()
        lower, upper = xg.permutation_bands(kern, n_perm=99, seed=seed)
        estimates[seed] = est
        values = est[lag_window]
        inside[seed] = (values >= lower) & (values <= upper)
    mean = estimates[:, 1:].mean(axis=0)
    se = estimates[:, 1:].std(axis=0, ddof=1) / np.sqrt(seeds)
    z = (mean - rho[1:]) / se
    worst = int(np.argmax(np.abs(z)))
    ok = bool(np.all(np.abs(z) <= 4.0))
    counts = {int(h): int(c) for h, c in zip(lag_window, inside.sum(axis=0))}
    assert report(
        2, "SV mean estimate at the exact finite-threshold extremogram (each lag 1-40, |z| <= 4)",
        ok, f"max |z|={abs(z[worst]):.2f} at lag {worst + 1}; lag 1 {mean[0]:.4f} vs {rho[1]:.4f}, "
            f"lag 25 {mean[24]:.5f} vs {rho[25]:.5f} (independence {1 - 0.98:.2f}); "
            f"lags 25-40 inside the permutation band in {counts} of {seeds} seeds "
            f"[{time.time()-t0:.0f}s]",
    )


def _random_region(rng, side):
    if side == "upper":
        lo = float(rng.uniform(0.3, 1.2))
        hi = np.inf if rng.uniform() < 0.5 else lo + float(rng.uniform(0.3, 3.0))
        return xg.ExtremalRegion(((lo, hi),))
    if side == "lower":
        hi = -float(rng.uniform(0.3, 1.2))
        lo = -np.inf if rng.uniform() < 0.5 else hi - float(rng.uniform(0.3, 3.0))
        return xg.ExtremalRegion(((lo, hi),))
    neg = _random_region(rng, "lower").intervals
    pos = _random_region(rng, "upper").intervals
    return xg.ExtremalRegion(neg + pos)


def _random_threshold(rng, values):
    tail = ("upper", "lower", "two_sided")[int(rng.integers(3))]
    if tail == "upper":
        q = float(rng.uniform(0.55, 0.9))
    elif tail == "lower":
        q = float(rng.uniform(0.1, 0.45))
    else:
        q = float(rng.uniform(0.6, 0.9))
    spec = xg.ThresholdSpec(q, tail).resolve(xg.TimeSeries(values))
    return spec


def test_criterion_3_brute_force_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(20240)
    done = 0
    attempts = 0
    while done < 1000:
        attempts += 1
        assert attempts < 20_000, "instance generator stuck"
        family = done % 5
        n = int(rng.integers(10, 51))
        max_lag = int(rng.integers(1, min(11, n)))
        values = rng.standard_t(2.5, size=n)
        try:
            if family == 0:
                spec = _random_threshold(rng, values)
                side = "upper" if spec.tail == "upper" else ("lower" if spec.tail == "lower" else "two_sided")
                reg_a = spec.reference_region() if rng.uniform() < 0.5 else _random_region(rng, side)
                reg_b = spec.reference_region() if rng.uniform() < 0.5 else _random_region(rng, side)
                kern = xg.univariate_kernel(xg.TimeSeries(values), reg_a, reg_b, spec, max_lag)
                nums, denom = oracles.brute_univariate(
                    values, spec.scale, reg_a.intervals, reg_b.intervals, max_lag
                )
            elif family == 1:
                other = rng.standard_t(2.5, size=n)
                spec_x = _random_threshold(rng, values)
                spec_y = _random_threshold(rng, other)
                reg_a = spec_x.reference_region()
                reg_b = spec_y.reference_region()
                kern = xg.cross_kernel(
                    xg.TimeSeries(values), xg.TimeSeries(other), reg_a, reg_b,
                    spec_x, spec_y, max_lag,
                )
                nums, denom = oracles.brute_cross(
                    values, spec_x.scale, other, spec_y.scale,
                    reg_a.intervals, reg_b.intervals, max_lag,
                )
            elif family in (2, 3):
                yv = rng.standard_t(2.5, size=n)
                zv = rng.standard_t(2.5, size=n)
                specs = [_random_threshold(rng, v) for v in (values, yv, zv)]
                bits = []
                for v, sp in zip((values, yv, zv), specs):
                    scaled = v / sp.scale
                    if sp.tail == "upper":
                        bits.append([1 if s > 1.0 else 0 for s in scaled])
                    elif sp.tail == "lower":
                        bits.append([1 if s < -1.0 else 0 for s in scaled])
                    else:
                        bits.append([1 if abs(s) > 1.0 else 0 for s in scaled])
                series = [xg.TimeSeries(v) for v in (values, yv, zv)]
                if family == 2:
                    kern = xg.tri_target_kernel(*series, *specs, max_lag)
                    nums, denom = oracles.brute_tri_target(*bits, max_lag)
                else:
                    kern = xg.tri_source_kernel(*series, *specs, max_lag)
                    nums, denom = oracles.brute_tri_source(*bits, max_lag)
            else:
                spec = _random_threshold(rng, values)
                side = "upper" if spec.tail == "upper" else ("lower" if spec.tail == "lower" else "two_sided")
                reg = spec.reference_region() if rng.uniform() < 0.5 else _random_region(rng, side)
                kern = xg.return_times_kernel(xg.TimeSeries(values), reg, spec, max_lag)
                nums, denom = oracles.brute_return_times(values, spec.scale, reg.intervals, max_lag)
                gaps, total = oracles.event_gap_histogram(values, spec.scale, reg.intervals, max_lag)
                assert denom == total
                assert dict(zip(range(1, max_lag + 1), nums.tolist())) == gaps
        except (xg.NoExceedances, xg.DegenerateThreshold):
            continue
        est = kern.point_estimates()
        assert kern.denominator == denom
        assert np.array_equal(est, nums / denom), (family, n, max_lag)
        # what the integer counts guarantee: aligned with the lags, in [0, 1],
        # and return times summing to at most 1
        assert est.shape == kern.lags.shape
        assert np.all((est >= 0.0) & (est <= 1.0))
        assert family != 4 or est.sum() <= 1.0
        done += 1
    elapsed = time.time() - t0
    assert report(
        3, "brute-force oracle equivalence (1000 random instances, bit exact)",
        elapsed < 5.0, f"1000 instances in {elapsed:.1f}s (target < 5s), {attempts-1000} retries",
    )


def test_criterion_4_bootstrap_variance_consistency():
    t0 = time.time()
    sim = xg.simulate_garch(xg.GarchParams(), 1000, burn_in=500, seed=42)
    spec = xg.ThresholdSpec(0.9, xg.UPPER).resolve(sim)
    ind = xg.make_indicators(sim, UPPER_REGION, spec)
    bits = ind.astype(float)
    results = []
    for p in (1.0 / 50.0, 1.0 / 100.0):
        s2 = xg.bootstrap_variance_s2(ind, p)
        means = np.empty(20_000)
        for i in range(means.size):
            plan = xg.draw_block_plan(1000, p, spawn_seed(7, i))
            means[i] = xg.materialize(plan, bits).mean()
        mc = 1000.0 * means.var()
        results.append((p, s2, mc, abs(mc - s2) / s2))
    elapsed = time.time() - t0
    ok = all(rel < 0.05 for _, _, _, rel in results) and elapsed < 60
    detail = "; ".join(
        f"p=1/{round(1/p)}: s2={s2:.5f} mc={mc:.5f} rel={rel:.3%}" for p, s2, mc, rel in results
    )
    assert report(4, "closed-form vs Monte Carlo replicate variance (5%)", ok,
                  f"{detail} [{elapsed:.0f}s < 60s]")


def test_criterion_5_bootstrap_coverage():
    t0 = time.time()
    n, reps, replicates = 4000, 200, 2000
    cover = np.zeros(11)
    # replicates are >= 0, so the centered upper edge point - quantile(reps - point)
    # is at most 2 * point; with 160 events, N_h <= 3 puts it below 0.04 for sure
    sure_miss = np.zeros(11)
    for rep in range(reps):
        x = xg.TimeSeries(substream(900, rep).standard_normal(n))
        spec = xg.ThresholdSpec(0.96, xg.UPPER).resolve(x)
        kern = xg.univariate_kernel(x, UPPER_REGION, UPPER_REGION, spec, 10)
        bands = xg.bootstrap_bands(
            kern, p=0.01, replicates=replicates, method="centered", seed=rep
        )
        cover += (bands.lower <= 0.04) & (0.04 <= bands.upper)
        sure_miss += 2.0 * kern.point_estimates() < 0.04
    coverage = cover[1:] / reps
    cap = 1.0 - sure_miss[1:] / reps
    elapsed = time.time() - t0
    ok = bool(np.all((coverage >= 0.90) & (coverage <= 0.99))) and elapsed < 900
    assert report(
        5, "centered 95% band coverage of 0.04 in [0.90, 0.99] (lags 1-10)",
        ok, f"per-lag coverage {np.round(coverage, 3).tolist()}; N_h <= 3 (upper edge "
            f"<= 2*point < 0.04) in {1.0 - cap.mean():.1%} of (dataset, lag) cases, "
            f"capping coverage at {cap.mean():.3f} (per lag {cap.min():.3f}-{cap.max():.3f}) "
            f"[{elapsed:.0f}s < 900s]",
    )


def test_criterion_6_block_size_monotonicity():
    t0 = time.time()
    seeds_ok = 0
    for seed in range(20):
        rng = substream(1234, seed)
        n = 10_000
        x = rng.standard_normal(n)
        anchors = np.arange(200, n - 200, 160)
        x[anchors] = 6.0 + rng.uniform(0, 1, anchors.size)
        x[anchors + 79] = 6.0 + rng.uniform(0, 1, anchors.size)
        series = xg.TimeSeries(x)
        spec = xg.ThresholdSpec(0.98, xg.UPPER).resolve(series)
        kern = xg.univariate_kernel(series, UPPER_REGION, UPPER_REGION, spec, 79)
        quantiles = []
        for mean_block in (50, 100, 200):
            bands = xg.bootstrap_bands(kern, p=1.0 / mean_block, replicates=1000, seed=seed)
            quantiles.append(float(np.quantile(bands.replicates[:, 79], 0.975)))
        seeds_ok += quantiles[0] <= quantiles[1] <= quantiles[2]
    assert report(
        6, "97.5% replicate quantile at lag 79 nondecreasing in block size",
        seeds_ok >= 18, f"{seeds_ok}/20 seeds (need >= 18) [{time.time()-t0:.0f}s]",
    )


def test_criterion_7_return_times_geometric_law():
    t0 = time.time()
    lags = np.arange(1, 31)
    pmf = 0.1 * 0.9 ** (lags - 1.0)

    x = xg.TimeSeries(substream(700).standard_normal(10_000))
    spec = xg.ThresholdSpec(0.95, xg.TWO_SIDED).resolve(x)
    kern = xg.return_times_kernel(x, TWO_SIDED_REGION, spec, 30)
    bands = xg.bootstrap_bands(kern, p=0.01, replicates=2000, seed=0)
    inside = int(((bands.lower <= pmf) & (pmf <= bands.upper)).sum())

    garch = xg.simulate_garch(xg.GarchParams(), 10_000, burn_in=2000, seed=500)
    spec_g = xg.ThresholdSpec(0.95, xg.TWO_SIDED).resolve(garch)
    kern_g = xg.return_times_kernel(garch, TWO_SIDED_REGION, spec_g, 30)
    bands_g = xg.bootstrap_bands(kern_g, p=0.01, replicates=2000, seed=0)
    outside = int(((pmf < bands_g.lower) | (pmf > bands_g.upper)).sum())

    ok = inside >= 27 and outside >= 9
    assert report(
        7, "geometric(0.1) pmf inside iid bands / outside GARCH bands",
        ok, f"iid inside {inside}/30 (need >= 27); garch outside {outside}/30 (need >= 9) "
            f"[{time.time()-t0:.0f}s]",
    )


def test_criterion_8_devolatilization():
    t0 = time.time()
    recovered = 0
    for seed in range(50):
        sim = xg.simulate_garch(xg.GarchParams(), 50_000, burn_in=2000, seed=100 + seed)
        fit = xg.fit_garch_qmle(sim)
        p = fit.params
        recovered += (
            abs(p.omega - 0.1) <= 0.03
            and abs(p.alpha - 0.14) <= 0.03
            and abs(p.beta - 0.84) <= 0.04
        )

    inside = np.zeros((20, 40), dtype=bool)
    for seed in range(20):
        sim = xg.simulate_garch(xg.GarchParams(), 50_000, burn_in=2000, seed=100 + seed)
        resid, _ = xg.devolatilize(sim)
        spec = xg.ThresholdSpec(0.04, xg.LOWER).resolve(resid)
        kern = xg.univariate_kernel(resid, LOWER_REGION, LOWER_REGION, spec, 40)
        est = kern.point_estimates()
        lower, upper = xg.permutation_bands(kern, n_perm=99, seed=seed)
        values = est[1:]
        inside[seed] = (values >= lower) & (values <= upper)
    counts = inside.sum(axis=0)
    containment_ok = bool(np.all(counts >= 18))
    failing = {int(h + 1): int(c) for h, c in enumerate(counts) if c < 18}
    ok = recovered >= 45 and containment_ok
    assert report(
        8, "QMLE recovery and residual band containment (each lag 1-40 in >= 18/20)",
        ok, f"recovery {recovered}/50 (need >= 45); residual per-lag min {counts.min()}/20, "
            f"below 18: {failing or 'none'} [{time.time()-t0:.0f}s]",
    )


def test_criterion_9_cli_determinism(tmp_path):
    t0 = time.time()
    sim_file = str(tmp_path / "sim.csv")
    assert cli.main(["simulate", "--model", "garch", "--n", "3000", "--seed", "11",
                     "-o", sim_file]) == 0
    b1 = str(tmp_path / "b1.csv")
    b2 = str(tmp_path / "b2.csv")

    invocations = [
        ["simulate", "--model", "sv", "--n", "2000", "--seed", "5", "--format", "json"],
        ["extremogram", sim_file, "--column", "value", "--q", "0.95", "--lags", "8",
         "--replicates", "200", "--permutations", "19", "--seed", "3", "--format", "json"],
        ["cross", sim_file, sim_file, "--column", "value", "--q", "0.95", "--lags", "5",
         "--permutations", "19", "--seed", "3"],
        ["tri", sim_file, sim_file, sim_file, "--column", "value", "--q", "0.95",
         "--lags", "5", "--variant", "source", "--permutations", "19", "--seed", "3"],
        ["returntimes", sim_file, "--column", "value", "--q", "0.9", "--lags", "15",
         "--replicates", "300", "--seed", "3"],
        ["fit-garch", sim_file, "--column", "value"],
        ["devol", sim_file, "--column", "value", "--format", "json"],
    ]
    all_ok = True
    for args in invocations:
        assert cli.main(args + ["-o", b1]) == 0, args[0]
        assert cli.main(args + ["-o", b2]) == 0, args[0]
        same = open(b1, "rb").read() == open(b2, "rb").read()
        all_ok &= same
        if not same:
            print(f"  non-identical output for subcommand {args[0]}")
    assert report(
        9, "byte-identical CLI reruns across the subcommand matrix",
        all_ok, f"{len(invocations)} subcommands checked [{time.time()-t0:.0f}s]",
    )
