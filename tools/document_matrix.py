"""Compare the documents two source trees write for one fixed set of analyses.

Usage:
    python3 tools/document_matrix.py OLD_SRC NEW_SRC
    python3 tools/document_matrix.py SRC > tools/document_digests.json

OLD_SRC, NEW_SRC and SRC are ``src/`` directories, each holding an
``extremogram`` package (for example a checkout of the parent commit and
the working tree). The script writes its own input files with numpy, then
runs 31 analyses covering all seven subcommands, each once with
``--format csv`` and once with ``--format json``, with each tree on
``PYTHONPATH``. Five of them are the benchmark's volatility chain at its
size: a 50,000-value ``simulate`` whose CSV document each tree then fits
with ``fit-garch`` and ``devol``, and the seed-3773 path, whose optimum lies
on the face alpha + beta = 1 - 1e-6, simulated and fitted by ``devol``. Bootstrap replicates are counted in passes
(``resample.PASS_WORK``): ``cross_split_replicates`` spans 25 passes in each
of its two ranges and ``returntimes_default_replicates`` 125, so a change to
the grouping of replicates shows here. It prints one sha256 pair per
document. It also runs 10 invocations that must fail and prints, per pair,
whether their exit code and standard error are the same; two of them fail
in the analysis (exit 3), with no conditioning events and with too many
bootstrap replicates that lose the one event. It exits 1 if any pair
differs or any analysis fails, 0 if all 62 documents and all 10 error
outputs are identical.

With one tree it prints, as JSON, the Python, numpy and scipy versions it
ran with, each document's sha256 and each failing invocation's exit code
and stderr, and exits 1 if any analysis fails. Those are the pins in
``tools/document_digests.json``, which ``tests/test_document_pins.py``
compares with the working tree; a change that means to alter documents
regenerates them with the second usage line and names each changed
document.

Each tree runs in its own interpreter, started in the input directory, and
the analyses name their inputs by relative path, so the JSON metadata
(which records the input paths) does not depend on where the script runs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import io
import json
import os
import platform
import subprocess
import sys
import tempfile

import numpy as np

_VALUE = ["--column", "value"]
_DATED = ["--column", "close", "--date-column", "date", "--returns", "log_returns"]
_BOOT = ["--replicates", "150", "--block-size", "20"]

# name -> (argv without --format/--output, file fed to standard input or None);
# the file is an input, or a document this side wrote earlier in the run
ANALYSES = {
    "simulate_garch": (["simulate", "--model", "garch", "--n", "3000", "--seed", "11"], None),
    "simulate_sv": (["simulate", "--model", "sv", "--n", "3000", "--seed", "12"], None),
    "simulate_garch_no_burn_in": (["simulate", "--model", "garch", "--n", "3000", "--burn-in", "0",
                                   "--omega", "0.2", "--alpha", "0.1", "--beta", "0.7",
                                   "--garch-dof", "6", "--seed", "15"], None),
    "simulate_sv_no_burn_in": (["simulate", "--model", "sv", "--n", "3000", "--burn-in", "0",
                                "--phi", "0.5", "--sv-dof", "3", "--log-vol-sd", "0.5",
                                "--seed", "16"], None),
    "extremogram_permutation": (["extremogram", "a.csv", *_VALUE, "--q", "0.95", "--lags", "10",
                                 "--permutations", "49", "--seed", "3"], None),
    "extremogram_bootstrap": (["extremogram", "a.csv", *_VALUE, "--q", "0.95", "--lags", "8",
                               *_BOOT, "--permutations", "19", "--seed", "4"], None),
    "extremogram_lower_quantile": (["extremogram", "a.csv", *_VALUE, "--q", "0.05", "--tail",
                                    "lower", "--lags", "12", *_BOOT, "--permutations", "19",
                                    "--band-method", "quantile_of_replicates", "--seed", "5"],
                                   None),
    "extremogram_two_sided_stdin": (["extremogram", "-", *_VALUE, "--q", "0.95", "--tail",
                                     "two_sided", "--lags", "6", *_BOOT, "--seed", "6"], "a.csv"),
    "extremogram_block_1e9": (["extremogram", "a.csv", *_VALUE, "--q", "0.95", "--lags", "5",
                               "--replicates", "100", "--block-size", "1e9", "--seed", "7"], None),
    # no replicates and no permutations: every band cell is empty
    "extremogram_no_bands": (["extremogram", "a.csv", *_VALUE, "--q", "0.95", "--lags", "4",
                              "--permutations", "0", "--seed", "17"], None),
    # 1999 permutations of 4000 rows: above the size from which the band
    # functions split their work across processes
    "extremogram_split_permutations": (["extremogram", "a.csv", *_VALUE, "--q", "0.95",
                                        "--lags", "10", "--permutations", "1999", "--seed", "20"],
                                       None),
    "cross_plain": (["cross", "a.csv", "b.csv", *_VALUE, "--q", "0.95", "--lags", "6", *_BOOT,
                     "--permutations", "19", "--seed", "8"], None),
    "cross_dated": (["cross", "p1.csv", "p2.csv", *_DATED, "--q", "0.95", "--lags", "6", *_BOOT,
                     "--permutations", "19", "--seed", "9"], None),
    # p4 holds p2's rows in reverse date order: the join keeps p1's ordering
    "cross_dated_reordered": (["cross", "p1.csv", "p4.csv", *_DATED, "--q", "0.95", "--lags", "6",
                               *_BOOT, "--permutations", "19", "--seed", "9"], None),
    "cross_lower": (["cross", "a.csv", "b.csv", *_VALUE, "--q", "0.05", "--tail", "lower",
                     "--lags", "6", *_BOOT, "--permutations", "19", "--seed", "18"], None),
    # 2000 replicates of 4000 rows, split as above
    "cross_split_replicates": (["cross", "a.csv", "b.csv", *_VALUE, "--q", "0.95", "--lags", "6",
                                "--replicates", "2000", "--block-size", "20", "--permutations",
                                "19", "--seed", "21"], None),
    "tri_target_plain": (["tri", "a.csv", "b.csv", "c.csv", *_VALUE, "--variant", "target",
                          "--q", "0.9", "--lags", "5", *_BOOT, "--permutations", "19",
                          "--seed", "10"], None),
    "tri_target_dated": (["tri", "p1.csv", "p2.csv", "p3.csv", *_DATED, "--variant", "target",
                          "--q", "0.95", "--lags", "5", "--permutations", "19", "--seed", "11"],
                         None),
    "tri_source_dated": (["tri", "p1.csv", "p2.csv", "p3.csv", *_DATED, "--variant", "source",
                          "--q", "0.95", "--tail", "two_sided", "--lags", "5", *_BOOT,
                          "--permutations", "19", "--seed", "12"], None),
    "returntimes": (["returntimes", "a.csv", *_VALUE, "--q", "0.9", "--lags", "15",
                     "--replicates", "200", "--block-size", "20", "--seed", "13"], None),
    "returntimes_reference_p": (["returntimes", "a.csv", *_VALUE, "--q", "0.9", "--lags", "15",
                                 "--replicates", "200", "--reference-p", "0.05", "--seed", "14"],
                                None),
    # the default of 10,000 bootstrap replicates
    "returntimes_default_replicates": (["returntimes", "a.csv", *_VALUE, "--q", "0.9",
                                        "--lags", "10", "--seed", "19"], None),
    # a BOM, CRLF line ends, a quoted header, blank and whitespace-only rows,
    # padded cells and one "1_000"
    "extremogram_messy_input": (["extremogram", "messy.csv", *_VALUE, "--q", "0.95", "--lags",
                                 "6", *_BOOT, "--permutations", "19", "--seed", "22"], None),
    # three files with one and the same date column, as in the benchmark's
    # families_perm workload
    "tri_equal_dates": (["tri", "e1.csv", "e2.csv", "e3.csv", *_DATED, "--variant", "target",
                         "--q", "0.04", "--tail", "lower", "--lags", "8", "--permutations", "19",
                         "--seed", "23"], None),
    "fit_garch": (["fit-garch", "b.csv", *_VALUE], None),
    "devol": (["devol", "c.csv", *_VALUE], None),
    # the benchmark's volatility chain at its size: a 50,000-value path, fitted
    # from this side's own CSV document of it, fed on standard input
    "simulate_garch_50000": (["simulate", "--model", "garch", "--n", "50000", "--seed", "24"],
                             None),
    "fit_garch_50000": (["fit-garch", "-", *_VALUE], "simulate_garch_50000.csv"),
    "devol_50000": (["devol", "-", *_VALUE], "simulate_garch_50000.csv"),
    # a path of the same size whose fitted alpha + beta is 1 - 1e-6
    "simulate_garch_50000_3773": (["simulate", "--model", "garch", "--n", "50000",
                                   "--seed", "3773"], None),
    "devol_50000_3773": (["devol", "-", *_VALUE], "simulate_garch_50000_3773.csv"),
}

# name -> argv of an invocation that must fail; its exit code and stderr are compared
INVALID = {
    "n_too_large": ["simulate", "--n", str(10**20)],
    "burn_in_too_large": ["simulate", "--burn-in", str(10**20)],
    "replicates_too_large": ["extremogram", "a.csv", *_VALUE, "--replicates", str(10**20)],
    "negative_seed": ["simulate", "--n", "100", "--seed", "-1"],
    "lags_past_the_series": ["extremogram", "a.csv", *_VALUE, "--lags", "5000"],
    "q_out_of_range": ["extremogram", "a.csv", *_VALUE, "--q", "1.5"],
    # a column position past the end of the first row of a headerless file
    "column_past_a_short_row": ["extremogram", "short.csv", "--column", "5"],
    "header_only": ["extremogram", "header_only.csv", *_VALUE],
    # a constant positive column: its upper quantile has no value above it
    "no_exceedances": ["extremogram", "const.csv", *_VALUE],
    # one spike among equal values: most replicates lose the only event
    "unstable_resample": ["extremogram", "spike.csv", *_VALUE, "--q", "0.5",
                          "--replicates", "100", "--block-size", "10"],
}


def _garch_like(rng, n: int) -> np.ndarray:
    """A GARCH(1,1) path with Student-t(4) shocks, from a plain loop."""
    shocks = rng.standard_t(4, n + 500) / np.sqrt(2.0)
    x = np.empty(n + 500)
    var = 1.0
    for t in range(n + 500):
        x[t] = np.sqrt(var) * shocks[t]
        var = 0.1 + 0.14 * x[t] ** 2 + 0.84 * var
    return x[500:]


def write_inputs(directory: str) -> None:
    """a.csv, b.csv, c.csv: 4000 values under a "value" header. p1-p3.csv:
    dated prices under "date,close"; p2 and p3 each miss some of p1's dates.
    p4.csv: p2's rows in reverse date order. e1-e3.csv: the three paths as
    dated prices, all under p1's dates. messy.csv: a.csv's values, untidy.
    short.csv: two headerless rows of two numbers. header_only.csv: "value".
    const.csv: 100 values of 2.0. spike.csv: 50.0, then 99 values of 1.0."""
    rng = np.random.default_rng(20111)
    paths = [_garch_like(rng, 4000) for _ in range(3)]
    for name, values in zip(("a", "b", "c"), paths):
        with open(os.path.join(directory, f"{name}.csv"), "w") as fh:
            fh.write("value\n" + "".join(f"{v!r}\n" for v in values.tolist()))
    for k, values in enumerate(paths):
        prices = 100.0 * np.exp(np.cumsum(0.01 * values))
        rows = [f"d{i:05d},{p!r}\n" for i, p in enumerate(prices.tolist())
                if k == 0 or i % (5 + 2 * k)]
        with open(os.path.join(directory, f"p{k + 1}.csv"), "w") as fh:
            fh.write("date,close\n")
            fh.writelines(rows)
        if k == 1:
            with open(os.path.join(directory, "p4.csv"), "w") as fh:
                fh.write("date,close\n")
                fh.writelines(reversed(rows))
        with open(os.path.join(directory, f"e{k + 1}.csv"), "w") as fh:
            fh.write("date,close\n")
            fh.writelines(f"d{i:05d},{p!r}\n" for i, p in enumerate(prices.tolist()))
    cells = [f" {v!r}\t" if i % 3 else repr(v) for i, v in enumerate(paths[0].tolist())]
    cells[7] = "1_000"
    for i in range(100, 4000, 500):
        cells[i] += "\r\n" + ("" if i % 1000 == 100 else "   ")  # a blank or whitespace-only row
    with open(os.path.join(directory, "messy.csv"), "w", encoding="utf-8", newline="") as fh:
        fh.write('\ufeff"value"\r\n' + "\r\n".join(cells) + "\r\n")
    for name, text in (("short", "1,2\n3,4\n"), ("header_only", "value\n"),
                       ("const", "value\n" + "2.0\n" * 100),
                       ("spike", "value\n50.0\n" + "1.0\n" * 99)):
        with open(os.path.join(directory, f"{name}.csv"), "w") as fh:
            fh.write(text)


def run_analyses(out_dir: str) -> tuple[dict[str, str], dict[str, str]]:
    """Run every analysis and invalid invocation in this process, from the
    current directory, with whichever ``extremogram`` is importable. Returns
    document name -> sha256, where a run that exits non-zero is recorded as
    "exit <code>", and invocation name -> "exit <code>" and its stderr."""
    from extremogram.cli import main as cli_main

    digests, errors = {}, {}
    for name, (argv, stdin_name) in ANALYSES.items():
        for fmt in ("csv", "json"):
            doc = f"{name}.{fmt}"
            out = os.path.join(out_dir, doc)
            if digests.get(stdin_name, "").startswith("exit"):  # the document it reads failed
                digests[doc] = digests[stdin_name]
                continue
            feed = os.path.join(out_dir, stdin_name) if stdin_name in digests else stdin_name
            with open(feed or os.devnull, encoding="utf-8") as stdin:
                sys.stdin = stdin
                try:
                    code = cli_main([*argv, "--format", fmt, "--output", out])
                finally:
                    sys.stdin = sys.__stdin__
            if code != 0:
                digests[doc] = f"exit {code}"
                continue
            with open(out, "rb") as fh:
                digests[doc] = hashlib.sha256(fh.read()).hexdigest()
    for name, argv in INVALID.items():
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = cli_main([*argv, "--output", os.path.join(out_dir, f"{name}.out")])
        errors[name] = f"exit {code}: {stderr.getvalue()}"
    return digests, errors


def run_side(src: str, inputs: str, out_dir: str) -> tuple[dict[str, str], dict[str, str]]:
    """``run_analyses`` in a fresh interpreter with ``src`` on PYTHONPATH."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    env.pop("EXTREMOGRAM_SEED", None)
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--run", out_dir],
        cwd=inputs, env=env, stdout=subprocess.PIPE, check=True, text=True,
    )
    return json.loads(proc.stdout)


def run_trees(*srcs: str) -> list[tuple[dict[str, str], dict[str, str]]]:
    """``run_side`` for each tree in turn, on one set of inputs."""
    with tempfile.TemporaryDirectory() as work:
        inputs = os.path.join(work, "inputs")
        os.mkdir(inputs)
        write_inputs(inputs)
        sides = []
        for k, src in enumerate(srcs):
            out_dir = os.path.join(work, f"tree{k}")
            os.mkdir(out_dir)
            sides.append(run_side(src, inputs, out_dir))
    return sides


def versions() -> dict[str, str]:
    """The versions the documents may depend on, of this interpreter."""
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": importlib.metadata.version("scipy")}


def pins(src: str) -> dict:
    """The one-tree output: versions, document digests, error outputs."""
    ((documents, errors),) = run_trees(src)
    return {"versions": versions(), "documents": documents, "errors": errors}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src", nargs="?",
                        help="src/ directory of the reference tree, or of the one tree to pin")
    parser.add_argument("new_src", nargs="?", help="src/ directory of the tree under test")
    parser.add_argument("--run", metavar="OUT_DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.run is not None:  # one side, started by run_side
        print(json.dumps(run_analyses(args.run)))
        return 0
    if args.old_src is None:
        parser.error("need SRC, or OLD_SRC and NEW_SRC")
    if args.new_src is None:
        one = pins(args.old_src)
        print(json.dumps(one, indent=1))
        return 1 if any(d.startswith("exit") for d in one["documents"].values()) else 0
    (old, old_errors), (new, new_errors) = run_trees(args.old_src, args.new_src)
    same = 0
    for doc in old:
        ok = old[doc] == new[doc] and not old[doc].startswith("exit")
        same += ok
        print(f"{'same' if ok else 'DIFF'}  {doc:40s} {old[doc]}  {new[doc]}")
    print(f"{same}/{len(old)} documents identical")
    same_errors = 0
    for name in old_errors:
        ok = old_errors[name] == new_errors[name]
        same_errors += ok
        print(f"{'same' if ok else 'DIFF'}  {name:40s} {old_errors[name]!r}")
        if not ok:
            print(f"{'':46s}{new_errors[name]!r}")
    print(f"{same_errors}/{len(old_errors)} error outputs identical")
    return 0 if same == len(old) and same_errors == len(old_errors) else 1


if __name__ == "__main__":
    sys.exit(main())
