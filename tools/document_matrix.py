"""Compare the documents two source trees write for one fixed set of analyses.

Usage:
    python3 tools/document_matrix.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are ``src/`` directories, each holding an
``extremogram`` package (for example a checkout of the parent commit and
the working tree). The script writes its own input files with numpy, then
runs 24 analyses covering all seven subcommands, each once with
``--format csv`` and once with ``--format json``, with each tree on
``PYTHONPATH``. It prints one sha256 pair per document and exits 1 if any
pair differs or any run fails, 0 if all 48 documents are byte-identical.

Each tree runs in its own interpreter, started in the input directory, and
the analyses name their inputs by relative path, so the JSON metadata
(which records the input paths) does not depend on where the script runs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile

import numpy as np

_VALUE = ["--column", "value"]
_DATED = ["--column", "close", "--date-column", "date", "--returns", "log_returns"]
_BOOT = ["--replicates", "150", "--block-size", "20"]

# name -> (argv without --format/--output, file fed to standard input or None)
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
    "fit_garch": (["fit-garch", "b.csv", *_VALUE], None),
    "devol": (["devol", "c.csv", *_VALUE], None),
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
    p4.csv: p2's rows in reverse date order."""
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


def run_analyses(out_dir: str) -> dict[str, str]:
    """Run every analysis in this process, from the current directory, with
    whichever ``extremogram`` is importable; document name -> sha256. A run
    that exits non-zero is recorded as "exit <code>"."""
    from extremogram.cli import main as cli_main

    digests = {}
    for name, (argv, stdin_name) in ANALYSES.items():
        for fmt in ("csv", "json"):
            doc = f"{name}.{fmt}"
            out = os.path.join(out_dir, doc)
            with open(stdin_name or os.devnull, encoding="utf-8") as stdin:
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
    return digests


def run_side(src: str, inputs: str, out_dir: str) -> dict[str, str]:
    """``run_analyses`` in a fresh interpreter with ``src`` on PYTHONPATH."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    env.pop("EXTREMOGRAM_SEED", None)
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--run", out_dir],
        cwd=inputs, env=env, stdout=subprocess.PIPE, check=True, text=True,
    )
    return json.loads(proc.stdout)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src", nargs="?", help="src/ directory of the reference tree")
    parser.add_argument("new_src", nargs="?", help="src/ directory of the tree under test")
    parser.add_argument("--run", metavar="OUT_DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.run is not None:  # one side, started by run_side
        print(json.dumps(run_analyses(args.run)))
        return 0
    if args.new_src is None:
        parser.error("need OLD_SRC and NEW_SRC")
    with tempfile.TemporaryDirectory() as work:
        inputs = os.path.join(work, "inputs")
        os.mkdir(inputs)
        write_inputs(inputs)
        sides = []
        for label, src in (("old", args.old_src), ("new", args.new_src)):
            out_dir = os.path.join(work, label)
            os.mkdir(out_dir)
            sides.append(run_side(src, inputs, out_dir))
    old, new = sides
    same = 0
    for doc in old:
        ok = old[doc] == new[doc] and not old[doc].startswith("exit")
        same += ok
        print(f"{'same' if ok else 'DIFF'}  {doc:40s} {old[doc]}  {new[doc]}")
    print(f"{same}/{len(old)} documents identical")
    return 0 if same == len(old) else 1


if __name__ == "__main__":
    sys.exit(main())
