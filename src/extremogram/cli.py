"""Command-line interface: ingestion, orchestration, plot-ready output.

Every subcommand writes a machine-readable document (CSV rows, or JSON with
a metadata block) to the output path; human-readable diagnostics go to
stderr only. Rows carry everything a plot needs: the estimate, band edges,
replicate mean and an independence reference value per lag. Runs are
deterministic: identical flags and seed give byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import tempfile
from dataclasses import dataclass, field, replace

from . import __version__
from .core import TAILS, UPPER, ThresholdSpec, TimeSeries, log_returns
from .errors import ExtremogramError, FitDiverged, InvalidInput, NoExceedances, UnstableResample
from .estimators import (
    cross_kernel,
    return_times_kernel,
    tri_source_kernel,
    tri_target_kernel,
    univariate_kernel,
)
from .models import GarchParams, SvParams, fit_garch_qmle, simulate_garch, simulate_sv
from .resample import BAND_METHODS, METHOD_CENTERED, bootstrap_bands, permutation_bands

SEED_ENV_VAR = "EXTREMOGRAM_SEED"

EXIT_OK = 0
EXIT_INVALID_INPUT = 2
EXIT_ANALYSIS_FAILED = 3

BAND_COLUMNS = ("lag", "estimate", "lower", "upper", "replicate_mean", "reference")


@dataclass
class AnalysisConfig:
    subcommand: str
    inputs: list[str] = field(default_factory=list)
    column: str = "0"
    date_column: str | None = None
    returns_mode: str = "raw"
    tail: str = UPPER
    q: float = 0.96
    max_lag: int = 40
    mean_block_size: float = 100.0
    replicates: int | None = None
    n_perm: int = 99
    seed: int = 0
    band_method: str = METHOD_CENTERED
    output: str = "-"
    output_format: str = "csv"
    variant: str = "target"
    model: str = "garch"
    n: int = 10_000
    burn_in: int = 2000
    omega: float = 0.1
    alpha: float = 0.14
    beta: float = 0.84
    garch_dof: float = 4.0
    phi: float = 0.9
    sv_dof: float = 2.6
    log_vol_sd: float = 1.0
    reference_p: float | None = None

    def validate(self):
        if not 0.0 < self.q < 1.0:
            raise InvalidInput("q must be in (0, 1)")
        if self.max_lag < 1:
            raise InvalidInput("max lag must be at least 1")
        if self.mean_block_size < 1.0:
            raise InvalidInput("mean block size must be at least 1")
        if self.replicates is not None and self.replicates < 100:
            raise InvalidInput("bootstrap bands need at least 100 replicates")
        if self.n_perm < 0:
            raise InvalidInput("permutation count must be nonnegative")
        if self.tail not in TAILS:
            raise InvalidInput(f"unknown tail {self.tail!r}")
        if self.band_method not in BAND_METHODS:
            raise InvalidInput(f"unknown band method {self.band_method!r}")
        if self.output_format not in ("csv", "json"):
            raise InvalidInput(f"unknown output format {self.output_format!r}")


@dataclass
class ResultDocument:
    metadata: dict
    columns: tuple[str, ...]
    rows: list[tuple]

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.columns)
        for row in self.rows:
            writer.writerow(["" if v is None else _cell(v) for v in row])
        return buf.getvalue()

    def to_json(self) -> str:
        payload = {
            "metadata": self.metadata,
            "rows": [dict(zip(self.columns, row)) for row in self.rows],
        }
        return json.dumps(payload, indent=2, sort_keys=False) + "\n"

    def render(self, output_format: str) -> str:
        return self.to_json() if output_format == "json" else self.to_csv()


def _cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


# ---------------------------------------------------------------------------
# ingestion


def _read_raw_rows(path: str) -> list[list[str]]:
    if path == "-":
        text = sys.stdin.read()
    else:
        if not os.path.exists(path):
            raise InvalidInput(f"no such file: {path}")
        with open(path, "r", encoding="utf-8", newline="") as fh:
            text = fh.read()
    rows = [row for row in csv.reader(io.StringIO(text))]
    return [row for row in rows if any(cell.strip() for cell in row)]


def _is_number(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def _column_index(selector: str, header: list[str] | None, path: str) -> int:
    if selector.lstrip("-").isdigit():
        return int(selector)
    if header is None:
        raise InvalidInput(f"{path}: column {selector!r} needs a header row")
    try:
        return header.index(selector)
    except ValueError:
        raise InvalidInput(f"{path}: no column named {selector!r} in header {header}") from None


def ingest_csv(
    path: str,
    column: str = "0",
    date_column: str | None = None,
    returns_mode: str = "raw",
) -> TimeSeries:
    """Parse one CSV file (header optional) into a TimeSeries.

    The column and date column may be positions or header names. With
    returns_mode="log_returns" the parsed prices are converted to
    log-returns after ingestion.
    """
    rows = _read_raw_rows(path)
    if not rows:
        raise InvalidInput(f"{path}: no data rows")
    probe = _column_index(column, rows[0], path) if not column.lstrip("-").isdigit() else int(column)
    has_header = not (0 <= probe < len(rows[0]) and _is_number(rows[0][probe]))
    header = rows[0] if has_header else None
    col = _column_index(column, header, path)
    date_col = _column_index(date_column, header, path) if date_column is not None else None

    values: list[float] = []
    labels: list[str] = []
    start = 2 if has_header else 1
    for lineno, row in enumerate(rows[1:] if has_header else rows, start=start):
        if col >= len(row) or (date_col is not None and date_col >= len(row)):
            raise InvalidInput(f"{path}: line {lineno}: too few columns")
        cell = row[col].strip()
        if not _is_number(cell):
            raise InvalidInput(f"{path}: line {lineno}: cannot parse {cell!r} as a number")
        values.append(float(cell))
        if date_col is not None:
            labels.append(row[date_col].strip())

    series = TimeSeries(values, tuple(labels) if date_col is not None else None)
    if returns_mode == "log_returns":
        series = log_returns(series)
    elif returns_mode != "raw":
        raise InvalidInput(f"unknown returns mode {returns_mode!r}")
    return series


def ingest_aligned(
    paths: list[str],
    column: str = "0",
    date_column: str | None = None,
    returns_mode: str = "raw",
) -> list[TimeSeries]:
    """Ingest several files and align them before any return computation.

    With a date column, rows are inner-joined on the date labels (only days
    present in every file survive), keeping the first file's ordering.
    Without one, the files must already be aligned and of equal length.
    """
    raw = [ingest_csv(p, column, date_column, "raw") for p in paths]
    if len(raw) > 1 and date_column is not None:
        maps = []
        for p, series in zip(paths, raw):
            pairs = dict(zip(series.labels, series.values))
            if len(pairs) != len(series):
                raise InvalidInput(f"{p}: duplicate dates prevent joining")
            maps.append(pairs)
        common = set(maps[0])
        for m in maps[1:]:
            common &= set(m)
        if not common:
            raise InvalidInput("the input files share no dates")
        ordered = [lab for lab in raw[0].labels if lab in common]
        raw = [TimeSeries([m[lab] for lab in ordered], tuple(ordered)) for m in maps]
    elif len(raw) > 1:
        if len({len(s) for s in raw}) != 1:
            raise InvalidInput("without a date column, input files must have equal length")
    if returns_mode == "log_returns":
        raw = [log_returns(s) for s in raw]
    return raw


# ---------------------------------------------------------------------------
# analysis subcommands


def _threshold_metadata(spec: ThresholdSpec, name: str) -> dict:
    return {
        "series": name,
        "quantile_level": spec.quantile_level,
        "tail": spec.tail,
        "threshold": spec.resolved_threshold,
        "exceedance_count": spec.exceedance_count,
    }


def _base_metadata(config: AnalysisConfig) -> dict:
    return {
        "library": "extremogram",
        "version": __version__,
        "subcommand": config.subcommand,
        "inputs": list(config.inputs),
        "column": config.column,
        "date_column": config.date_column,
        "returns_mode": config.returns_mode,
        "seed": config.seed,
        "output_format": config.output_format,
    }


def _warn_growth_condition(n: int, p: float, m: int):
    # the bootstrap needs n*p^2/m to grow; daily-returns-scale runs sit
    # near 2.5e-3, so flag only clearly degenerate block/threshold combos
    ratio = n * p * p / max(m, 1)
    if ratio < 1e-3:
        print(
            f"warning: n*p^2/m = {ratio:.3g} is very small; bootstrap bands may be "
            f"unreliable (consider a smaller mean block size or a lower threshold)",
            file=sys.stderr,
        )


def _band_document(config: AnalysisConfig, kernel, reference) -> ResultDocument:
    """Shared band workflow for every estimator subcommand."""
    estimate = kernel.point_estimates()
    p = 1.0 / config.mean_block_size

    boot = None
    if config.replicates is not None:
        _warn_growth_condition(kernel.n, p, kernel.denominator)
        boot = bootstrap_bands(
            kernel,
            p=p,
            replicates=config.replicates,
            method=config.band_method,
            seed=config.seed,
        )
    perm = None
    if config.n_perm > 0:
        perm = permutation_bands(kernel, n_perm=config.n_perm, seed=config.seed)

    metadata = _base_metadata(config)
    metadata.update(
        {
            "tail": config.tail,
            "q": config.q,
            "max_lag": config.max_lag,
            "family": estimate.family,
            "denominator_count": estimate.denominator_count,
            "thresholds": [
                _threshold_metadata(spec, name)
                for spec, name in zip(estimate.thresholds, config.inputs)
            ],
            "n_perm": config.n_perm,
            "permutation_band": {"lower": perm[0], "upper": perm[1]} if perm else None,
            "replicates": config.replicates,
            "mean_block_size": config.mean_block_size if boot else None,
            "band_method": config.band_method if boot else None,
            "skip_rate": boot.skip_rate if boot else None,
        }
    )

    reference = list(reference)
    rows = []
    for i, lag in enumerate(estimate.lags):
        if boot is not None:
            lower, upper = float(boot.lower[i]), float(boot.upper[i])
            rep_mean = float(boot.replicate_mean[i])
        elif perm is not None:
            lower, upper = perm
            rep_mean = None
        else:
            lower = upper = rep_mean = None
        rows.append(
            (int(lag), float(estimate.estimates[i]), lower, upper, rep_mean, reference[i])
        )
    return ResultDocument(metadata=metadata, columns=BAND_COLUMNS, rows=rows)


def _run_extremogram(config: AnalysisConfig) -> ResultDocument:
    [series] = ingest_aligned(config.inputs, config.column, config.date_column, config.returns_mode)
    spec = ThresholdSpec(config.q, config.tail).resolve(series)
    region = spec.reference_region()
    kernel = univariate_kernel(series, region, region, spec, config.max_lag)
    rate = spec.nominal_rate()
    return _band_document(config, kernel, [rate] * (config.max_lag + 1))


def _run_cross(config: AnalysisConfig) -> ResultDocument:
    x, y = ingest_aligned(config.inputs, config.column, config.date_column, config.returns_mode)
    spec_x = ThresholdSpec(config.q, config.tail).resolve(x)
    spec_y = ThresholdSpec(config.q, config.tail).resolve(y)
    region = spec_x.reference_region()
    kernel = cross_kernel(x, y, region, region, spec_x, spec_y, config.max_lag)
    rate = spec_y.nominal_rate()
    return _band_document(config, kernel, [rate] * (config.max_lag + 1))


def _run_tri(config: AnalysisConfig) -> ResultDocument:
    x, y, z = ingest_aligned(config.inputs, config.column, config.date_column, config.returns_mode)
    specs = [ThresholdSpec(config.q, config.tail).resolve(s) for s in (x, y, z)]
    build = tri_target_kernel if config.variant == "target" else tri_source_kernel
    kernel = build(x, y, z, *specs, config.max_lag)
    rates = [s.nominal_rate() for s in specs]
    if config.variant == "target":
        # response is a union of the two other series' events
        rate = 1.0 - (1.0 - rates[1]) * (1.0 - rates[2])
    else:
        rate = rates[2]
    doc = _band_document(config, kernel, [rate] * (config.max_lag + 1))
    doc.metadata["variant"] = config.variant
    return doc


def _run_returntimes(config: AnalysisConfig) -> ResultDocument:
    [series] = ingest_aligned(config.inputs, config.column, config.date_column, config.returns_mode)
    spec = ThresholdSpec(config.q, config.tail).resolve(series)
    kernel = return_times_kernel(series, spec.reference_region(), spec, config.max_lag)
    p_ref = config.reference_p if config.reference_p is not None else spec.nominal_rate()
    if not 0.0 < p_ref < 1.0:
        raise InvalidInput("geometric reference probability must be in (0, 1)")

    replicates = config.replicates if config.replicates is not None else 10_000
    config = replace(config, n_perm=0, replicates=replicates)
    reference = [p_ref * (1.0 - p_ref) ** (int(lag) - 1) for lag in kernel.lags]
    doc = _band_document(config, kernel, reference)
    doc.metadata["reference_p"] = p_ref
    return doc


def _run_simulate(config: AnalysisConfig) -> ResultDocument:
    if config.model == "garch":
        params = GarchParams(
            omega=config.omega,
            alpha=config.alpha,
            beta=config.beta,
            innovation_dof=config.garch_dof,
        )
        series = simulate_garch(params, config.n, burn_in=config.burn_in, seed=config.seed)
        model_meta = {
            "model": "garch",
            "omega": params.omega,
            "alpha": params.alpha,
            "beta": params.beta,
            "innovation_dof": params.innovation_dof,
            "standardize_innovations": params.standardize_innovations,
        }
    elif config.model == "sv":
        params = SvParams(
            ar_coefficient=config.phi,
            innovation_dof=config.sv_dof,
            log_vol_noise_sd=config.log_vol_sd,
        )
        series = simulate_sv(params, config.n, burn_in=config.burn_in, seed=config.seed)
        model_meta = {
            "model": "sv",
            "ar_coefficient": params.ar_coefficient,
            "innovation_dof": params.innovation_dof,
            "log_vol_noise_sd": params.log_vol_noise_sd,
        }
    else:
        raise InvalidInput(f"unknown model {config.model!r}; expected garch or sv")

    metadata = _base_metadata(config)
    metadata.update({"n": config.n, "burn_in": config.burn_in, **model_meta})
    rows = [(float(v),) for v in series.values]
    return ResultDocument(metadata=metadata, columns=("value",), rows=rows)


def _fit_metadata(fit) -> dict:
    return {
        "omega": fit.params.omega,
        "alpha": fit.params.alpha,
        "beta": fit.params.beta,
        "log_likelihood": fit.log_likelihood,
        "iterations": fit.iterations,
        "grad_norm": fit.grad_norm,
        "converged": fit.converged,
        "constraint_margin": fit.constraint_margin,
    }


def _run_fit_garch(config: AnalysisConfig) -> ResultDocument:
    [series] = ingest_aligned(config.inputs, config.column, config.date_column, config.returns_mode)
    fit = fit_garch_qmle(series)
    print(
        f"fitted GARCH(1,1): omega={fit.params.omega:.6g} alpha={fit.params.alpha:.6g} "
        f"beta={fit.params.beta:.6g} loglik={fit.log_likelihood:.6g}",
        file=sys.stderr,
    )
    metadata = _base_metadata(config)
    metadata["fit"] = _fit_metadata(fit)
    rows = [(float(s), float(r)) for s, r in zip(fit.sigma, fit.residuals)]
    return ResultDocument(metadata=metadata, columns=("sigma", "residual"), rows=rows)


def _run_devol(config: AnalysisConfig) -> ResultDocument:
    [series] = ingest_aligned(config.inputs, config.column, config.date_column, config.returns_mode)
    fit = fit_garch_qmle(series)
    metadata = _base_metadata(config)
    metadata["fit"] = _fit_metadata(fit)
    rows = [(float(r),) for r in fit.residuals]
    return ResultDocument(metadata=metadata, columns=("residual",), rows=rows)


_RUNNERS = {
    "extremogram": _run_extremogram,
    "cross": _run_cross,
    "tri": _run_tri,
    "returntimes": _run_returntimes,
    "simulate": _run_simulate,
    "fit-garch": _run_fit_garch,
    "devol": _run_devol,
}


def run(config: AnalysisConfig) -> ResultDocument:
    """Execute one analysis; raises package errors on failure."""
    config.validate()
    try:
        runner = _RUNNERS[config.subcommand]
    except KeyError:
        raise InvalidInput(f"unknown subcommand {config.subcommand!r}") from None
    return runner(config)


def config_from_metadata(metadata: dict) -> AnalysisConfig:
    """Rebuild the analysis configuration recorded in a document's metadata.

    Re-running the returned config (with the original input files present)
    reproduces the document byte-for-byte.
    """
    config = AnalysisConfig(subcommand=metadata["subcommand"], inputs=list(metadata["inputs"]))
    direct = (
        "column", "date_column", "returns_mode", "seed", "output_format",
        "tail", "q", "max_lag", "n_perm", "replicates", "variant",
        "n", "burn_in", "model", "omega", "alpha", "beta", "reference_p",
    )
    for key in direct:
        if metadata.get(key) is not None:
            setattr(config, key, metadata[key])
    if metadata.get("mean_block_size") is not None:
        config.mean_block_size = metadata["mean_block_size"]
    if metadata.get("band_method") is not None:
        config.band_method = metadata["band_method"]
    if metadata.get("model") == "garch" and "innovation_dof" in metadata:
        config.garch_dof = metadata["innovation_dof"]
    elif metadata.get("model") == "sv":
        config.phi = metadata.get("ar_coefficient", config.phi)
        config.sv_dof = metadata.get("innovation_dof", config.sv_dof)
        config.log_vol_sd = metadata.get("log_vol_noise_sd", config.log_vol_sd)
    return config


def write_document(doc: ResultDocument, output: str, output_format: str):
    """Write atomically: a temp file in the target directory, then rename."""
    text = doc.render(output_format)
    if output == "-":
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(output))
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp_path, output)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


# ---------------------------------------------------------------------------
# argument parsing


def _default_seed() -> int:
    return int(os.environ.get(SEED_ENV_VAR, "0"))


def _add_io_options(parser: argparse.ArgumentParser, n_inputs: int):
    if n_inputs == 1:
        parser.add_argument("input", help="CSV file ('-' for stdin)")
    else:
        parser.add_argument("inputs", nargs=n_inputs, help="CSV files")
    parser.add_argument("--column", default="0", help="value column: position or header name")
    parser.add_argument("--date-column", default=None, help="date column for labels/joining")
    parser.add_argument(
        "--returns",
        dest="returns_mode",
        choices=("raw", "log_returns"),
        default="raw",
        help="treat the column as raw values or convert prices to log-returns",
    )
    parser.add_argument("--output", "-o", default="-", help="output path ('-' for stdout)")
    parser.add_argument("--format", dest="output_format", choices=("csv", "json"), default="csv")
    parser.add_argument("--seed", type=int, default=None, help=f"RNG seed (default ${SEED_ENV_VAR} or 0)")


def _add_threshold_options(parser: argparse.ArgumentParser):
    parser.add_argument("--q", type=float, default=0.96, help="quantile level (default 0.96)")
    parser.add_argument("--tail", choices=TAILS, default=UPPER)
    parser.add_argument("--lags", dest="max_lag", type=int, default=40, help="maximum lag (default 40)")


def _add_band_options(parser: argparse.ArgumentParser, default_replicates):
    parser.add_argument(
        "--replicates",
        type=int,
        nargs="?",
        const=10_000,
        default=default_replicates,
        help="bootstrap replicate count (bare flag means 10000)",
    )
    parser.add_argument(
        "--block-size",
        dest="mean_block_size",
        type=float,
        default=100.0,
        help="mean bootstrap block size 1/p (default 100)",
    )
    parser.add_argument(
        "--band-method", choices=BAND_METHODS, default=METHOD_CENTERED, dest="band_method"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="extremogram",
        description="Serial extremal dependence estimation with bootstrap and permutation bands",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("extremogram", help="univariate extremogram with bands")
    _add_io_options(p, 1)
    _add_threshold_options(p)
    _add_band_options(p, default_replicates=None)
    p.add_argument("--permutations", dest="n_perm", type=int, default=99)

    p = sub.add_parser("cross", help="directional cross-extremogram (conditions on the first file)")
    _add_io_options(p, 2)
    _add_threshold_options(p)
    _add_band_options(p, default_replicates=None)
    p.add_argument("--permutations", dest="n_perm", type=int, default=99)

    p = sub.add_parser("tri", help="trivariate union extremogram")
    _add_io_options(p, 3)
    _add_threshold_options(p)
    _add_band_options(p, default_replicates=None)
    p.add_argument("--permutations", dest="n_perm", type=int, default=99)
    p.add_argument(
        "--variant",
        choices=("target", "source"),
        default="target",
        help="target: union in the response; source: union in the conditioning event",
    )

    p = sub.add_parser("returntimes", help="waiting-time extremogram with bootstrap bands")
    _add_io_options(p, 1)
    _add_threshold_options(p)
    _add_band_options(p, default_replicates=10_000)
    p.add_argument(
        "--reference-p",
        dest="reference_p",
        type=float,
        default=None,
        help="success probability for the geometric overlay (default: nominal rate)",
    )

    p = sub.add_parser("simulate", help="simulate a GARCH(1,1) or SV path to CSV")
    p.add_argument("--model", choices=("garch", "sv"), default="garch")
    p.add_argument("--n", type=int, default=10_000)
    p.add_argument("--burn-in", dest="burn_in", type=int, default=2000)
    p.add_argument("--omega", type=float, default=0.1)
    p.add_argument("--alpha", type=float, default=0.14)
    p.add_argument("--beta", type=float, default=0.84)
    p.add_argument("--garch-dof", dest="garch_dof", type=float, default=4.0)
    p.add_argument("--phi", type=float, default=0.9)
    p.add_argument("--sv-dof", dest="sv_dof", type=float, default=2.6)
    p.add_argument("--log-vol-sd", dest="log_vol_sd", type=float, default=1.0)
    p.add_argument("--output", "-o", default="-")
    p.add_argument("--format", dest="output_format", choices=("csv", "json"), default="csv")
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("fit-garch", help="fit GARCH(1,1) by QMLE; sigma and residual columns")
    _add_io_options(p, 1)

    p = sub.add_parser("devol", help="divide by fitted GARCH volatility; residual column")
    _add_io_options(p, 1)

    return parser


def config_from_args(args: argparse.Namespace) -> AnalysisConfig:
    config = AnalysisConfig(subcommand=args.subcommand)
    if hasattr(args, "input"):
        config.inputs = [args.input]
    elif hasattr(args, "inputs"):
        config.inputs = list(args.inputs)
    for name in vars(config):
        if name in ("subcommand", "inputs"):
            continue
        if hasattr(args, name) and getattr(args, name) is not None:
            setattr(config, name, getattr(args, name))
    if getattr(args, "seed", None) is None:
        config.seed = _default_seed()
    return config


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    config = config_from_args(args)
    try:
        doc = run(config)
        write_document(doc, config.output, config.output_format)
    except (NoExceedances, UnstableResample, FitDiverged) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ANALYSIS_FAILED
    except ExtremogramError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
