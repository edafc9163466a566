"""Benchmark workloads: seeded input generators and the analyses each runs.

The inputs are made here with the benchmark's own numpy code, never with
the package's simulators, so a change to ``extremogram.models`` cannot change
the inputs of any workload but ``volatility`` (whose input is the program's
own ``simulate`` output by design).

An analysis *kind* is one fixed sequence of ``extremogram.cli.main`` calls
on fixed inputs; a workload rotates over its kinds, one analysis at a time.
"""

from __future__ import annotations

import datetime
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

UNIVARIATE = "univariate"
CROSS = "cross"
TRI_TARGET = "tri_target"
TRI_SOURCE = "tri_source"
RETURN_TIMES = "return_times"


@dataclass(frozen=True)
class Kind:
    """One analysis: its CLI calls and what its result document must say.

    ``series`` returns the ingested series in input order, for the
    independent estimate check; ``prechecks`` validates intermediate
    documents (the volatility chain's simulate and devol outputs).
    """

    name: str
    calls: tuple[tuple[str, ...], ...]
    output: str
    family: str
    q: float
    tail: str
    max_lag: int
    series: Callable[[], list[np.ndarray]]
    prechecks: tuple[Callable[[], None], ...] = ()


@dataclass(frozen=True)
class Size:
    """Input sizes and replicate counts; ``SMOKE`` keeps tests fast."""

    large_n: int = 100_000
    small_n: int = 4_000
    price_rows: int = 100_001
    vol_n: int = 50_000
    large_replicates: int = 1_000
    small_replicates: int = 2_000


FULL = Size()
SMOKE = Size(large_n=5_000, small_n=2_000, price_rows=5_001, vol_n=2_000,
             large_replicates=100, small_replicates=100)


# ---------------------------------------------------------------------------
# input generators


def garch_series(rng: np.random.Generator, n: int, burn_in: int = 2_000) -> np.ndarray:
    """GARCH(1,1), omega=0.1, alpha=0.14, beta=0.84, unit-variance t(4) noise."""
    omega, alpha, beta, dof = 0.1, 0.14, 0.84, 4.0
    z = (rng.standard_t(dof, size=n + burn_in) * math.sqrt((dof - 2.0) / dof)).tolist()
    x = [0.0] * len(z)
    var = omega / (1.0 - alpha - beta)
    for t, zt in enumerate(z):
        xt = math.sqrt(var) * zt
        x[t] = xt
        var = omega + alpha * xt * xt + beta * var
    return np.array(x[burn_in:])


def sv_series(rng: np.random.Generator, n: int, burn_in: int = 2_000) -> np.ndarray:
    """Log-AR(1) stochastic volatility, phi=0.9, unit noise sd, t(2.6) returns."""
    phi = 0.9
    eps = rng.normal(0.0, 1.0, size=n + burn_in).tolist()
    z = rng.standard_t(2.6, size=n + burn_in)
    log_vol = [0.0] * len(eps)
    lv = rng.normal(0.0, 1.0 / math.sqrt(1.0 - phi * phi))
    for t, e in enumerate(eps):
        lv = phi * lv + e
        log_vol[t] = lv
    return (np.exp(np.array(log_vol)) * z)[burn_in:]


def price_path(returns: np.ndarray) -> np.ndarray:
    """Prices whose log-returns are the given shape at a 1% daily scale."""
    steps = 0.01 * returns / returns.std()
    return 100.0 * np.exp(np.concatenate(([0.0], np.cumsum(steps))))


def date_labels(count: int) -> list[str]:
    base = datetime.date(1700, 1, 1).toordinal()
    return [datetime.date.fromordinal(base + i).isoformat() for i in range(count)]


def write_values(path: str, header: str, values: np.ndarray) -> None:
    # repr round-trips every float, so the program parses exactly ``values``
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n" + "\n".join(map(repr, values.tolist())) + "\n")


def write_prices(path: str, labels: list[str], prices: np.ndarray) -> None:
    rows = (f"{d},{p!r}" for d, p in zip(labels, prices.tolist()))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("date,price\n" + "\n".join(rows) + "\n")


def read_column(path: str, column: str) -> np.ndarray:
    """One named column of a benchmark CSV, parsed with the stdlib float."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        col = header.index(column)
        return np.array([float(line.split(",")[col]) for line in fh if line.strip()])


def _rng(seed: int, key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, key]))


def _log_returns(prices: np.ndarray) -> np.ndarray:
    return np.diff(np.log(prices))


# ---------------------------------------------------------------------------
# workloads: each maker writes its inputs into ``work`` and returns its kinds


def bands_large(seed: int, work: str, size: Size) -> list[Kind]:
    x = garch_series(_rng(seed, 1), size.large_n)
    path = os.path.join(work, "garch.csv")
    write_values(path, "value", x)
    out = os.path.join(work, "out.csv")
    argv = ("extremogram", path, "--column", "value", "--q", "0.98", "--tail", "upper",
            "--lags", "40", "--replicates", str(size.large_replicates), "--block-size", "100",
            "--permutations", "99", "--seed", str(seed), "--output", out)
    return [Kind("extremogram:garch", (argv,), out, UNIVARIATE, 0.98, "upper", 40, lambda: [x])]


def bands_small(seed: int, work: str, size: Size) -> list[Kind]:
    inputs = {
        "normal0": _rng(seed, 2).standard_normal(size.small_n),
        "garch0": garch_series(_rng(seed, 3), size.small_n),
        "normal1": _rng(seed, 4).standard_normal(size.small_n),
        "garch1": garch_series(_rng(seed, 5), size.small_n),
    }
    reps = ("--replicates", str(size.small_replicates), "--block-size", "100")
    kinds = []
    for label, x in inputs.items():
        path = os.path.join(work, f"{label}.csv")
        write_values(path, "value", x)
        for command, lags in (("extremogram", 10), ("returntimes", 30)):
            out = os.path.join(work, f"{command}-{label}.csv")
            argv = (command, path, "--column", "value", "--q", "0.96", "--lags", str(lags),
                    *reps, "--seed", str(seed), "--output", out)
            family = UNIVARIATE if command == "extremogram" else RETURN_TIMES
            kinds.append(Kind(f"{command}:{label}", (argv,), out, family, 0.96, "upper", lags,
                              lambda x=x: [x]))
    return kinds


def families_perm(seed: int, work: str, size: Size) -> list[Kind]:
    steps = size.price_rows - 1
    prices = [
        price_path(garch_series(_rng(seed, 6), steps)),
        price_path(sv_series(_rng(seed, 7), steps)),
        price_path(_rng(seed, 8).standard_normal(steps)),
    ]
    labels = date_labels(size.price_rows)
    paths = [os.path.join(work, f"prices{i}.csv") for i in range(3)]
    for path, p in zip(paths, prices):
        write_prices(path, labels, p)
    returns = [_log_returns(p) for p in prices]
    common = ("--column", "price", "--date-column", "date", "--returns", "log_returns",
              "--q", "0.04", "--tail", "lower", "--lags", "40", "--permutations", "99",
              "--seed", str(seed))
    specs = (
        ("cross", ("cross", *paths[:2]), 2, CROSS),
        ("tri-target", ("tri", *paths, "--variant", "target"), 3, TRI_TARGET),
        ("tri-source", ("tri", *paths, "--variant", "source"), 3, TRI_SOURCE),
    )
    kinds = []
    for name, head, count, family in specs:
        out = os.path.join(work, f"{name}.csv")
        kinds.append(Kind(name, ((*head, *common, "--output", out),), out, family, 0.04, "lower",
                          40, lambda k=count: returns[:k]))
    return kinds


# the QMLE fit's cost depends on the simulated path, so each run rotates over
# several paths to keep one seed's fit from setting the workload's time
VOLATILITY_PATHS = 4


def volatility(seed: int, work: str, size: Size) -> list[Kind]:
    return [_volatility_chain(VOLATILITY_PATHS * seed + i, work, size)
            for i in range(VOLATILITY_PATHS)]


def _volatility_chain(path_seed: int, work: str, size: Size) -> Kind:
    sim = os.path.join(work, f"sim{path_seed}.csv")
    devol = os.path.join(work, f"devol{path_seed}.csv")
    out = os.path.join(work, f"out{path_seed}.csv")
    calls = (
        ("simulate", "--model", "garch", "--n", str(size.vol_n), "--seed", str(path_seed),
         "--output", sim),
        ("devol", sim, "--column", "value", "--output", devol),
        ("extremogram", devol, "--column", "residual", "--q", "0.98", "--lags", "40",
         "--permutations", "99", "--seed", str(path_seed), "--output", out),
    )

    def check_chain() -> None:
        values = read_column(sim, "value")
        residuals = read_column(devol, "residual")
        if values.size != size.vol_n or residuals.size != size.vol_n:
            raise ValueError("simulate or devol wrote the wrong number of rows")
        if not (np.all(np.isfinite(values)) and np.all(np.isfinite(residuals))):
            raise ValueError("simulate or devol wrote a non-finite value")
        # QMLE residuals are standardized: a variance far from 1 means a bad fit
        if not 0.5 < float(residuals.var()) < 2.0:
            raise ValueError(f"devol residual variance {residuals.var():.3g} is not near 1")

    return Kind(f"simulate-devol-extremogram:{path_seed}", calls, out, UNIVARIATE, 0.98, "upper",
                40, lambda: [read_column(devol, "residual")], (check_chain,))


# the volatility warm-up fits this one path whatever the seed, so that the
# fit's path-dependent cost does not set the workload's set-up time
WARMUP_PATH_SEED = 1_000_003


def warmup(workload: str, kinds: list[Kind], work: str, size: Size) -> Kind:
    """The untimed warm-up analysis of a set-up: the rotation's first kind,
    except for ``volatility``, which warms up on a fixed path."""
    if workload == "volatility":
        return _volatility_chain(WARMUP_PATH_SEED, work, size)
    return kinds[0]


# the reference mix (see reference.py) of each workload: bands_large spends
# its time in the replicate loop; the others in a mix of Python-level work
# and numpy calls
REFERENCE_MIX = {
    "bands_large": "bootstrap",
    "bands_small": "mixed",
    "families_perm": "mixed",
    "volatility": "mixed",
}

WORKLOADS = {
    "bands_large": bands_large,
    "bands_small": bands_small,
    "families_perm": families_perm,
    "volatility": volatility,
}
