"""End-to-end benchmark of the extremogram command line.

Run from the root of a source checkout:

    python3 bench/run.py --workload bands_small --seed 3 --seconds 15 --trace 0

One process runs one workload (see ``workloads.WORKLOADS``) as a closed loop
with one client: analyses run back to back, each an in-process call chain of
``extremogram.cli.main``. Set-up (imports, writing the seeded inputs, one
untimed warm-up analysis) comes first; then whole rotations over the
workload's analysis kinds run until ``--seconds`` have passed, with runs of a
fixed reference computation (``reference``) between the analyses. Every result
document is checked against exact integer pair counts (``oracle``); at the
default seed it must also match the sha256 recorded in ``digests.json``.

With ``--trace 1`` the rotations alternate between untraced and traced
(``tracing``), and the per-layer metrics are printed instead of the
end-to-end ones. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS = os.path.join(HERE, "digests.json")
DEFAULT_SEED = 0
SETUP_ROUNDS = 3
SETUP_TIMEOUT_S = 60
MIN_ROTATIONS = 3
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# after each analysis the reference runs until its time is this share of the
# analysis's, so its samples spread over the run as the analyses do
REFERENCE_SHARE = 0.1

# end-to-end metrics in the result line. Analysis times there are in units of
# the reference's median time in the same run (see reference.py); the wall
# times, analysis_tail_s and failed_frac are printed in the report only (wall
# times drift with the host, the tail is absent on short runs, and the
# failure share is already the result's "failed" / "attempted")
END_TO_END = {"setup_s": "s", "analysis_p50_ref": "ref", "analyses_per_ref": "1/ref",
              "peak_rss_mb": "MB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own tests")
    parser.add_argument("--setup-only", action="store_true",
                        help="time one cold set-up, print it and exit (run.py starts these itself)")
    return parser.parse_args(argv)


def import_package(root: str):
    """Import ``extremogram.cli`` from ``root/src``, and from nowhere else."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "extremogram", "cli.py")):
        raise SystemExit(f"error: no extremogram sources under {src}; run from a source checkout")
    sys.path.insert(0, src)
    import numpy  # noqa: F401
    import scipy  # noqa: F401
    from extremogram import cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"error: imported extremogram from {cli.__file__}, not from {src}")
    return cli


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # show_config's layout is not a stable interface
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "threads": {name: os.environ.get(name, "unset") for name in THREAD_VARIABLES},
        "nproc": len(os.sched_getaffinity(0)),
    }


def _outputs(kind) -> list[str]:
    return [argv[argv.index("--output") + 1] for argv in kind.calls]


class Runner:
    """Runs and checks the analyses of one workload."""

    def __init__(self, cli, workload: str, seed: int, full_size: bool):
        self.cli = cli
        self.recorded = {}
        if seed == DEFAULT_SEED and full_size and os.path.exists(DIGESTS):
            with open(DIGESTS, encoding="utf-8") as fh:
                self.recorded = json.load(fh).get(workload, {})
        self.digests: dict[str, str] = {}
        self.errors: list[str] = []

    def analyse(self, kind) -> tuple[float, bool]:
        """Run one analysis; return its wall time and whether it passed its check."""
        for path in _outputs(kind):
            if os.path.exists(path):
                os.remove(path)
        stderr = io.StringIO()
        code = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stderr(stderr):
                for argv in kind.calls:
                    code = self.cli.main(list(argv))
                    if code != 0:
                        break
        except Exception:  # a crash is a failed analysis; keep measuring the rest
            stderr.write(traceback.format_exc())
        seconds = time.perf_counter() - start
        if code != 0:
            self.errors.append(f"{kind.name}: exit {code}: {stderr.getvalue().strip()[-500:]}")
            return seconds, False
        try:
            self.check(kind)
        except Exception as exc:
            self.errors.append(f"{kind.name}: {type(exc).__name__}: {exc}")
            return seconds, False
        return seconds, True

    def check(self, kind) -> None:
        from oracle import CheckFailed, check_document, expected_rows

        with open(kind.output, "rb") as fh:
            data = fh.read()
        digest = hashlib.sha256(data).hexdigest()
        first = self.digests.get(kind.name)
        if first is not None:
            # documents are deterministic per seed, so a repeat must be identical
            if digest != first:
                raise CheckFailed("document differs from this kind's first document")
            return
        for precheck in kind.prechecks:
            precheck()
        check_document(data.decode("utf-8"), expected_rows(kind))
        recorded = self.recorded.get(kind.name)
        if recorded is not None and digest != recorded:
            raise CheckFailed(f"sha256 {digest} differs from the recorded {recorded}")
        self.digests[kind.name] = digest


def tail_percentile(samples: list[float]):
    """(percentile, value) of the highest listed percentile with >= 10 samples above it."""
    ordered = sorted(samples)
    for pct in TAIL_PERCENTILES:
        rank = math.ceil(pct / 100.0 * len(ordered))
        if rank >= 1 and len(ordered) - rank >= 10:
            return pct, ordered[rank - 1]
    return None


def p50(times_by_kind: dict[str, list[float]]) -> float:
    """Median analysis time of each kind, averaged over the kinds.

    A rotation mixes kinds of different cost; averaging per-kind medians
    keeps the figure from jumping between the kinds' clusters.
    """
    return statistics.fmean(statistics.median(t) for t in times_by_kind.values())


@dataclass
class Measurement:
    """The timed analyses of a run, keyed by traced (bool), then by kind name."""

    times: dict = field(default_factory=lambda: {False: defaultdict(list), True: defaultdict(list)})
    # each analysis's wall time divided by the mean time of the reference
    # runs right after it
    scaled: dict = field(default_factory=lambda: {False: defaultdict(list), True: defaultdict(list)})
    reference_times: list = field(default_factory=list)
    passed: int = 0
    failed: int = 0
    traced_analyses: int = 0


def measure(runner, kinds, seconds, reference, tracer=None) -> Measurement:
    """Whole rotations until ``seconds`` pass; with a tracer, alternate traced ones.

    After each analysis the reference runs at least once, and until its runs
    add up to ``REFERENCE_SHARE`` of the analysis's time.
    """
    m = Measurement()
    begin = time.perf_counter()
    rotations = 0
    while rotations < (2 if tracer else MIN_ROTATIONS) or time.perf_counter() - begin < seconds:
        traced = tracer is not None and rotations % 2 == 1
        if traced:
            tracer.install()
        try:
            for kind in kinds:
                if traced:
                    tracer.analysis = m.traced_analyses
                    m.traced_analyses += 1
                elapsed, ok = runner.analyse(kind)
                m.passed += ok
                m.failed += not ok
                refs = []
                while not refs or sum(refs) < REFERENCE_SHARE * elapsed:
                    refs.append(reference.run())
                m.reference_times += refs
                m.times[traced][kind.name].append(elapsed)
                m.scaled[traced][kind.name].append(elapsed / statistics.fmean(refs))
        finally:
            if traced:
                tracer.uninstall()
        rotations += 1
    return m


def report(name: str, value, unit: str, note: str = "") -> None:
    print(f"{name:34s} {value!r:>24} {unit} {note}".rstrip())


def set_up(args, runner, work):
    """Write the seeded inputs and run one untimed warm-up analysis.

    Returns the workload's kinds and whether the warm-up passed its check.
    """
    import workloads

    size = workloads.SMOKE if args.smoke else workloads.FULL
    kinds = workloads.WORKLOADS[args.workload](args.seed, work, size)
    warm_ok = runner.analyse(workloads.warmup(args.workload, kinds, work, size))[1]
    return kinds, warm_ok


def cold_setups(args, root: str, count: int, runner) -> tuple[list[float], bool]:
    """Time ``count`` set-ups, each in a fresh process started for it alone."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-only"] + (["--smoke"] if args.smoke else [])
    seconds, ok = [], True
    for _ in range(count):
        proc = subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        try:
            result = json.loads(proc.stdout.splitlines()[-1])
        except (IndexError, ValueError):
            result = None
        if proc.returncode != 0 or result is None:
            runner.errors.append(f"set-up process: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
            ok = False
            continue
        runner.errors.extend(result["errors"])
        ok &= result["ok"]
        seconds.append(result["setup_s"])
    return seconds, ok


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    load_before = os.getloadavg()
    cli = import_package(root)

    import workloads
    from reference import Reference
    from tracing import Tracer, layer_unit

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"expected one of {sorted(workloads.WORKLOADS)}")
    runner = Runner(cli, args.workload, args.seed, not args.smoke)
    work = os.path.join(root, ".bench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    try:
        kinds, warm_ok = set_up(args, runner, work)
        setups = [time.perf_counter() - PROCESS_START]
        if args.setup_only:
            print(json.dumps({"setup_s": setups[0], "ok": warm_ok, "errors": runner.errors}))
            return 0
        tracer = Tracer() if args.trace else None
        reference = Reference(workloads.REFERENCE_MIX[args.workload])
        reference.run()  # warm-up
        m = measure(runner, kinds, args.seconds, reference, tracer)
        if tracer is not None:
            tracer.write_spans(os.path.join(root, ".bench_work", f"spans-{args.workload}.csv"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not args.trace:
        more, more_ok = cold_setups(args, root, SETUP_ROUNDS - 1, runner)
        setups += more
        warm_ok &= more_ok

    attempted = m.passed + m.failed
    untraced = m.times[False]
    all_times = [t for ts in untraced.values() for t in ts]
    env = environment()
    env["loadavg_before"] = list(load_before)
    env["loadavg_after"] = list(os.getloadavg())
    # the load after a run includes the run's own BLAS threads, so only the
    # load found at the start marks a run as taken on a loaded machine
    env["loaded"] = load_before[0] > env["nproc"]

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"size {'smoke' if args.smoke else 'full'}  kinds {len(kinds)}  analyses {attempted}"
          + ("  LOADED: not comparable" if env["loaded"] else ""))
    print("env " + json.dumps(env, sort_keys=True))
    for error in runner.errors[:20]:
        print("failed " + error)
    if len(runner.errors) > 20:
        print(f"failed ... {len(runner.errors) - 20} more")

    metrics = {}
    if args.trace:
        layer = tracer.metrics(m.traced_analyses)
        layer["trace.overhead_frac"] = p50(m.times[True]) / p50(untraced) - 1.0
        if tracer.absent:
            print("absent " + " ".join(tracer.absent))
        for name, value in layer.items():
            report(name, value, layer_unit(name))
            metrics[name] = {"value": value, "unit": layer_unit(name)}
    else:
        scaled = m.scaled[False]
        e2e = {
            "setup_s": statistics.median(setups),
            "analysis_p50_ref": p50(scaled),
            "analyses_per_ref": m.passed / sum(u for us in scaled.values() for u in us),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        tail = tail_percentile(all_times)
        setup_note = f"(median of {len(setups)} cold set-ups: {', '.join(f'{s:.3f}' for s in setups)})"
        for name, value in e2e.items():
            report(name, value, END_TO_END[name], setup_note if name == "setup_s" else "")
            metrics[name] = {"value": value, "unit": END_TO_END[name]}
        report("reference_s", statistics.median(m.reference_times), "s",
               f"(median of {len(m.reference_times)} reference runs)")
        report("analysis_p50_s", p50(untraced), "s")
        report("analyses_per_s", m.passed / sum(all_times), "1/s")
        if tail is None:
            print(f"{'analysis_tail_s':34s} {'absent':>24} s (no percentile has 10 samples above it)")
        else:
            report("analysis_tail_s", tail[1], "s", f"(p{tail[0]:g} of {len(all_times)} samples)")
        report("failed_frac", m.failed / attempted, "ratio")
    correct = warm_ok and m.failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": m.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
