"""Fixed reference computations that gauge the host's speed during a run.

The host's CPU speed drifts, within a second and over minutes, and two runs
of the same code a few minutes apart differ in wall time by as much as a
large optimisation would. The benchmark therefore runs a reference between
analyses and reports each analysis's time in units of the reference runs
right after it (``ref``). A drift that slows the whole process slows both
alike and cancels in the ratio; a change to the program does not touch the
reference and shows in full.

Different kinds of work slow by different amounts on this host: stdlib
float parsing slowed 2x while a bootstrap analysis slowed 1.4x. So each
workload's reference does the kind of work its analyses spend their time
on (its ``mix``):

- ``mixed``: stdlib float parsing (as in CSV ingest and the Python-level
  loops), a large gather with lagged products, and many small numpy calls
  (as in the per-lag and per-replicate loops);
- ``bootstrap``: stationary-bootstrap-like replicates of a 0/1 series of
  100,000 values: an index array built from fixed blocks, a gather, and one
  ``np.dot`` per lag, like the replicate loop of a large analysis.

The inputs are fixed, whatever the workload's seed, and the code is the
benchmark's own, so no change to the package can change a reference.
"""

from __future__ import annotations

import time

import numpy as np

SEED = 20111
N = 100_000
PARSED = 20_000
LAGS = 20
WINDOWS = 1_000
WINDOW = 200
REPLICATES = 6
REPLICATE_LAGS = 40
BLOCK = 100


class Reference:
    def __init__(self, mix: str = "mixed"):
        rng = np.random.default_rng(SEED)
        x = rng.standard_normal(N)
        self.bits = (x > 1.5).astype(np.float64)
        self.index = rng.integers(0, N, size=N)
        self.text = [repr(v) for v in x[:PARSED].tolist()]
        self.small = x[:WINDOWS + WINDOW]
        # fixed block plans: starts, and lengths summing to N
        self.plans = []
        for _ in range(REPLICATES):
            lengths = rng.geometric(1.0 / BLOCK, size=2 * N // BLOCK)
            lengths = lengths[: np.searchsorted(np.cumsum(lengths), N) + 1]
            lengths[-1] -= lengths.sum() - N
            self.plans.append((rng.integers(0, N, size=lengths.size), lengths))
        self._compute = {"mixed": self._mixed, "bootstrap": self._bootstrap}[mix]
        self.expected = None

    def _mixed(self) -> float:
        total = sum(float(s) for s in self.text)
        g = self.bits[self.index]
        for lag in range(1, LAGS + 1):
            total += float(np.multiply(g[:-lag], g[lag:]).sum())
        for i in range(WINDOWS):
            total += float(np.sort(self.small[i:i + WINDOW])[WINDOW // 2])
        return total

    def _bootstrap(self) -> float:
        total = 0.0
        for starts, lengths in self.plans:
            ends = np.cumsum(lengths)
            offsets = np.repeat(starts - (ends - lengths), lengths)
            idx = (offsets + np.arange(N)) % N
            g = self.bits[idx]
            for lag in range(1, REPLICATE_LAGS + 1):
                total += float(np.dot(g[:-lag], g[lag:]))
        return total

    def run(self) -> float:
        """Run the reference once; return its wall time in seconds."""
        start = time.perf_counter()
        total = self._compute()
        seconds = time.perf_counter() - start
        if self.expected is None:
            self.expected = total
        elif total != self.expected:
            raise RuntimeError("the reference computation gave a different result")
        return seconds

