"""Spans around the calls into each layer of the package, from outside it.

``Tracer.install`` wraps the public callables in ``TARGETS`` wherever the
package binds them (a module that did ``from .resample import
bootstrap_bands`` looks the name up in its own namespace, so that binding is
patched too), and ``uninstall`` puts every original back. Each call records
a span (name, start, end, parent span, analysis id) in memory; self time is
a span's duration minus the time its child spans cover.

A target that no longer exists is skipped and listed, once, in ``absent``: its
metrics read zero, because no time can be spent in a callable that is gone.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

PACKAGE = "extremogram"
ROOT = "cli.main"


def _calls(metric):
    def count(totals, args, kwargs, result):
        totals[metric] += 1
    return count


def _bootstrap(totals, args, kwargs, result):
    totals["resample.bootstrap.replicates"] += result.replicate_count
    totals["resample.bootstrap.skipped"] += result.skipped


def _plan(totals, args, kwargs, result):
    totals["resample.plan.calls"] += 1
    totals["resample.plan.blocks"] += len(result.starts)


def _permutation(totals, args, kwargs, result):
    totals["resample.permutation.count"] += kwargs.get("n_perm", 99)


def _ingest(totals, args, kwargs, result):
    totals["cli.ingest.rows"] += sum(len(s) for s in result)


def _render(totals, args, kwargs, result):
    totals["cli.output_bytes"] += len(result.encode("utf-8"))


def _indicators(totals, args, kwargs, result):
    totals["core.events"] += int(getattr(result, "bits", result).sum())


def _fit(totals, args, kwargs, result):
    totals["models.fit.iterations"] += result.iterations


# (span name, module, attribute path, counter or None); the span name is the
# prefix of the layer's per-layer metrics
TARGETS = (
    (ROOT, "extremogram.cli", "main", None),
    ("cli.ingest", "extremogram.cli", "ingest_aligned", _ingest),
    ("cli.render", "extremogram.cli", "ResultDocument.render", _render),
    ("cli.write", "extremogram.cli", "write_document", None),
    ("core.resolve", "extremogram.core", "ThresholdSpec.resolve", _calls("core.resolve.calls")),
    ("core.indicators", "extremogram.core", "make_indicators", _indicators),
    ("estimators.kernel", "extremogram.estimators", "univariate_kernel", None),
    ("estimators.kernel", "extremogram.estimators", "cross_kernel", None),
    ("estimators.kernel", "extremogram.estimators", "tri_target_kernel", None),
    ("estimators.kernel", "extremogram.estimators", "tri_source_kernel", None),
    ("estimators.kernel", "extremogram.estimators", "return_times_kernel", None),
    ("estimators.point", "extremogram.estimators", "RatioKernel.point_estimates", None),
    ("estimators.numerators", "extremogram.estimators", "RatioKernel.numerator_counts_of",
     _calls("estimators.numerators.calls")),
    ("estimators.lag_one", "extremogram.estimators", "RatioKernel.lag_one_value", None),
    ("resample.bootstrap", "extremogram.resample", "bootstrap_bands", _bootstrap),
    ("resample.plan", "extremogram.resample", "draw_block_plan", _plan),
    ("resample.index", "extremogram.resample", "BlockPlan.index_array", None),
    ("resample.permutation", "extremogram.resample", "permutation_bands", _permutation),
    ("rng.substream", "extremogram._rng", "substream", _calls("rng.substream.calls")),
    ("rng.spawn_seed", "extremogram._rng", "spawn_seed", None),
    ("models.simulate", "extremogram.models", "simulate_garch", None),
    ("models.simulate", "extremogram.models", "simulate_sv", None),
    ("models.fit", "extremogram.models", "fit_garch_qmle", _fit),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, *_ in TARGETS))
COUNTERS = (
    "core.resolve.calls", "core.events", "cli.ingest.rows", "cli.output_bytes",
    "estimators.numerators.calls", "resample.bootstrap.replicates",
    "resample.bootstrap.skipped", "resample.plan.calls", "resample.permutation.count",
    "rng.substream.calls", "models.fit.iterations",
)


def layer_unit(metric: str) -> str:
    if metric.endswith("self_s"):
        return "s"
    if metric.endswith("_frac"):
        return "ratio"
    return {"cli.ingest.rows": "rows", "cli.output_bytes": "bytes"}.get(metric, "count")


class Tracer:
    def __init__(self):
        self.spans: list[tuple | None] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.analysis = -1
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        self.absent = []
        for name, module_name, path, counter in TARGETS:
            module = sys.modules.get(module_name)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = vars(owner).get(attr) if owner is not None else None
            if not inspect.isfunction(original):
                self.absent.append(f"{module_name}.{path}")
                continue
            wrapper = self._wrap(name, original, counter)
            if owner_name:
                self._patch(owner, attr, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == PACKAGE or mod_name.startswith(PACKAGE + "."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper)

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, name, fn, counter):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.analysis)
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result

        return traced

    # -- results ----------------------------------------------------------

    def self_times(self) -> dict[tuple[str, int], float]:
        """Total self time per (span name, analysis id)."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: dict[tuple[str, int], float] = defaultdict(float)
        for (name, start, end, _, analysis), child in zip(self.spans, covered):
            totals[name, analysis] += (end - start) - child
        return totals

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start,end,parent,analysis\n")
            for name, start, end, parent, analysis in self.spans:
                fh.write(f"{name},{start!r},{end!r},{parent},{analysis}\n")

    def metrics(self, analyses: int) -> dict[str, float]:
        """Per-analysis self times and counts for every per-layer metric."""
        per = 1.0 / max(analyses, 1)
        selfs: dict[str, float] = defaultdict(float)
        for (name, _), seconds in self.self_times().items():
            selfs[name] += seconds
        out = {f"{name}.self_s": selfs[name] * per for name in SPAN_NAMES}
        out.update({name: self.counts[name] * per for name in COUNTERS})
        plans = self.counts["resample.plan.calls"]
        out["resample.plan.blocks_mean"] = self.counts["resample.plan.blocks"] / plans if plans else 0.0
        return out
