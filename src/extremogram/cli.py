"""Command-line interface: ingestion, orchestration, plot-ready output.

Every subcommand writes a machine-readable document (CSV rows, or JSON with
a metadata block) to the output path; human-readable diagnostics go to
stderr only. Rows carry everything a plot needs: the estimate, band edges,
replicate mean and an independence reference value per lag. Runs are
deterministic: identical flags and seed give byte-identical output.

Each analysis field is declared once, as an ``AnalysisConfig`` field whose
metadata names its flags, the subcommands that take it, its choices and its
metadata key. The parser, ``config_from_args``, the choice checks in
``validate`` and ``config_from_metadata`` are all derived from that table.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import os
import sys
import tempfile
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import __version__
from .core import TAILS, UPPER, ThresholdSpec, TimeSeries, log_returns
from .errors import ExtremogramError, FitDiverged, InvalidInput, NoExceedances, UnstableResample
from .estimators import (
    cross_kernel,
    geometric_pmf,
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


_BAND_COMMANDS = ("extremogram", "cross", "tri", "returntimes")
_FILE_COMMANDS = (*_BAND_COMMANDS, "fit-garch", "devol")
_ALL_COMMANDS = (*_FILE_COMMANDS, "simulate")
_SIMULATE = ("simulate",)


def _option(default, *flags, commands, key=None, model=None, **argparse_kwargs):
    """A config field declared with its option strings (``flags``), the
    subcommands that take it, and its metadata key where that differs from
    the field name (``model`` scopes the key to one simulate model). The
    rest go to ``add_argument``; a numeric default sets the type.
    """
    if isinstance(default, (int, float)):
        argparse_kwargs.setdefault("type", type(default))
    metadata = {"flags": flags, "commands": commands, "key": key, "model": model,
                "choices": argparse_kwargs.get("choices"), "argparse": argparse_kwargs}
    return field(default=default, metadata=metadata)


@dataclass
class AnalysisConfig:
    subcommand: str = field(metadata={"choices": _ALL_COMMANDS})
    inputs: list[str] = field(default_factory=list)
    column: str = _option(
        "0", "--column", commands=_FILE_COMMANDS, help="value column: position or header name"
    )
    date_column: str | None = _option(
        None, "--date-column", commands=_FILE_COMMANDS, help="date column for labels/joining"
    )
    returns_mode: str = _option(
        "raw", "--returns", commands=_FILE_COMMANDS, choices=("raw", "log_returns"),
        help="treat the column as raw values or convert prices to log-returns",
    )
    tail: str = _option(UPPER, "--tail", commands=_BAND_COMMANDS, choices=TAILS)
    q: float = _option(0.96, "--q", commands=_BAND_COMMANDS, help="quantile level (default 0.96)")
    max_lag: int = _option(40, "--lags", commands=_BAND_COMMANDS, help="maximum lag (default 40)")
    mean_block_size: float = _option(
        100.0, "--block-size", commands=_BAND_COMMANDS,
        help="mean bootstrap block size 1/p (default 100)",
    )
    replicates: int | None = _option(
        None, "--replicates", commands=_BAND_COMMANDS, type=int, nargs="?", const=10_000,
        help="bootstrap replicate count (bare flag means 10000)",
    )
    n_perm: int = _option(99, "--permutations", commands=("extremogram", "cross", "tri"))
    seed: int = _option(
        0, "--seed", commands=_ALL_COMMANDS, help=f"RNG seed (default ${SEED_ENV_VAR} or 0)"
    )
    band_method: str = _option(
        METHOD_CENTERED, "--band-method", commands=_BAND_COMMANDS, choices=BAND_METHODS
    )
    output: str = _option(
        "-", "--output", "-o", commands=_ALL_COMMANDS, help="output path ('-' for stdout)"
    )
    output_format: str = _option("csv", "--format", commands=_ALL_COMMANDS, choices=("csv", "json"))
    variant: str = _option(
        "target", "--variant", commands=("tri",), choices=("target", "source"),
        help="target: union in the response; source: union in the conditioning event",
    )
    model: str = _option("garch", "--model", commands=_SIMULATE, choices=("garch", "sv"))
    n: int = _option(10_000, "--n", commands=_SIMULATE)
    burn_in: int = _option(2000, "--burn-in", commands=_SIMULATE)
    omega: float = _option(0.1, "--omega", commands=_SIMULATE, model="garch")
    alpha: float = _option(0.14, "--alpha", commands=_SIMULATE, model="garch")
    beta: float = _option(0.84, "--beta", commands=_SIMULATE, model="garch")
    garch_dof: float = _option(
        4.0, "--garch-dof", commands=_SIMULATE, key="innovation_dof", model="garch"
    )
    phi: float = _option(0.9, "--phi", commands=_SIMULATE, key="ar_coefficient", model="sv")
    sv_dof: float = _option(2.6, "--sv-dof", commands=_SIMULATE, key="innovation_dof", model="sv")
    log_vol_sd: float = _option(
        1.0, "--log-vol-sd", commands=_SIMULATE, key="log_vol_noise_sd", model="sv"
    )
    reference_p: float | None = _option(
        None, "--reference-p", commands=("returntimes",), type=float,
        help="success probability for the geometric overlay (default: nominal rate)",
    )

    def validate(self):
        if not 0.0 < self.q < 1.0:
            raise InvalidInput("q must be in (0, 1)")
        if self.max_lag < 1:
            raise InvalidInput("max lag must be at least 1")
        if not 1.0 <= self.mean_block_size < math.inf:  # rejects nan too
            raise InvalidInput("mean block size must be finite and at least 1")
        if self.replicates is not None and self.replicates < 100:
            raise InvalidInput("bootstrap bands need at least 100 replicates")
        if self.n_perm < 0:
            raise InvalidInput("permutation count must be nonnegative")
        for f in fields(self):
            choices, value = f.metadata.get("choices"), getattr(self, f.name)
            if choices is not None and value not in choices:
                raise InvalidInput(f"unknown {f.name.replace('_', ' ')} {value!r}")


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


def _read_text(path: str) -> str:
    try:
        if path == "-":
            text = sys.stdin.read()
            # stdin may decode with surrogateescape, which passes bad bytes on as
            # lone surrogates; those do not encode back to UTF-8
            text.encode("utf-8")
        else:
            with open(path, "r", encoding="utf-8", newline="") as fh:
                text = fh.read()
    except (OSError, UnicodeError) as exc:  # a missing file, a directory, not UTF-8
        reason = getattr(exc, "strerror", None) or exc
        raise InvalidInput(f"{path}: cannot read: {reason}") from None
    return text


def _is_number(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def _position(selector: str) -> int | None:
    """The column position a selector names, or None for a header name.

    ``isdecimal``, not ``isdigit``: ``int`` reads every decimal digit ("٣" is
    3) but no superscript, so "²" is a header name, like "-1".
    """
    return int(selector) if selector.isdecimal() else None


def _column_index(selector: str, header: list[str] | None, path: str) -> int:
    position = _position(selector)
    if position is not None:
        return position
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
) -> TimeSeries:
    """Parse one CSV file (header optional) into a TimeSeries.

    The column and date column may be positions or header names. Blank rows
    are skipped; error line numbers count every line of the file.
    """
    buffer = io.StringIO(_read_text(path))
    reader = csv.reader(buffer)
    values: list[float] = []
    labels: list[str] = []
    try:
        for first in reader:
            if "".join(first).strip():
                break
        else:
            raise InvalidInput(f"{path}: no data rows")
        # the first row is data if the cells that could name the column are numbers:
        # the selected cell for a position, every cell for a header name
        position = _position(column)
        probe = first if position is None else first[position:position + 1]
        has_header = not (probe and all(_is_number(cell) for cell in probe))
        header = first if has_header else None
        col = _column_index(column, header, path)
        # without a date column the value cell stands in for the label, which is dropped
        date_col = _column_index(date_column, header, path) if date_column is not None else col
        widest = max(col, date_col)

        for row in reader if has_header else itertools.chain([first], reader):
            if not "".join(row).strip():
                continue
            if widest >= len(row):
                raise InvalidInput(f"{path}: line {reader.line_num}: too few columns")
            cell = row[col].strip()
            try:
                values.append(float(cell))
            except ValueError:
                raise InvalidInput(
                    f"{path}: line {reader.line_num}: cannot parse {cell!r} as a number"
                ) from None
            labels.append(row[date_col])
    except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
        raise InvalidInput(f"{path}: line {reader.line_num}: {exc}") from None
    values = np.array(values)
    finite = np.isfinite(values)
    if not finite.all():  # "nan", "inf" and "1e999" parse; find the first one's line
        buffer.seek(0)
        reader = csv.reader(buffer)
        rows = (row for row in reader if "".join(row).strip())
        row = next(itertools.islice(rows, int(np.argmin(finite)) + has_header, None))
        raise InvalidInput(
            f"{path}: line {reader.line_num}: {row[col].strip()!r} is not a finite number"
        )
    return TimeSeries(values, tuple(map(str.strip, labels)) if date_column is not None else None)


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
    raw = [ingest_csv(p, column, date_column) for p in paths]
    if len(raw) > 1 and date_column is not None:
        positions = []  # per file, each label's row index
        for p, series in zip(paths, raw):
            positions.append(dict(zip(series.labels, range(len(series)))))
            if len(positions[-1]) != len(series):
                raise InvalidInput(f"{p}: duplicate dates prevent joining")
        ordered = raw[0].labels
        for index in positions[1:]:
            ordered = tuple(filter(index.__contains__, ordered))
        if not ordered:
            raise InvalidInput("the input files share no dates")
        joined = []
        for series, index in zip(raw, positions):
            take = np.fromiter(map(index.__getitem__, ordered), np.intp, len(ordered))
            joined.append(TimeSeries(series.values[take], ordered))
        raw = joined
    elif len(raw) > 1:
        if len({len(s) for s in raw}) != 1:
            raise InvalidInput("without a date column, input files must have equal length")
    if returns_mode == "log_returns":
        return [log_returns(s) for s in raw]
    if returns_mode != "raw":
        raise InvalidInput(f"unknown returns mode {returns_mode!r}")
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
    """Shared band workflow for every estimator subcommand.

    The rows carry the bootstrap bands when there are replicates, else the
    permutation band. The permutation band is computed only where the
    document prints it: in the rows, or in JSON metadata. A CSV document
    with replicates skips it, and its metadata records it as None.
    """
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
    if config.n_perm > 0 and (boot is None or config.output_format == "json"):
        perm = permutation_bands(kernel, n_perm=config.n_perm, seed=config.seed)

    metadata = _base_metadata(config)
    metadata.update(
        {
            "tail": config.tail,
            "q": config.q,
            "max_lag": config.max_lag,
            "family": kernel.family,
            "denominator_count": kernel.denominator,
            "thresholds": [
                _threshold_metadata(spec, name)
                for spec, name in zip(kernel.thresholds, config.inputs)
            ],
            "n_perm": config.n_perm,
            "permutation_band": {"lower": perm[0], "upper": perm[1]} if perm else None,
            "replicates": config.replicates,
            "mean_block_size": config.mean_block_size if boot else None,
            "band_method": config.band_method if boot else None,
            "skip_rate": boot.skip_rate if boot else None,
        }
    )

    if boot is not None:  # replicate_mean averages the replicates: take it once
        bands = boot.lower.tolist(), boot.upper.tolist(), boot.replicate_mean.tolist()
    else:
        lower, upper = perm or (None, None)
        bands = itertools.repeat(lower), itertools.repeat(upper), itertools.repeat(None)
    rows = list(zip(kernel.lags.tolist(), kernel.point_estimates().tolist(), *bands, reference))
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
    reference = geometric_pmf(p_ref, kernel.lags)

    replicates = config.replicates if config.replicates is not None else 10_000
    config = replace(config, n_perm=0, replicates=replicates)
    doc = _band_document(config, kernel, reference)
    doc.metadata["reference_p"] = p_ref
    return doc


def _run_simulate(config: AnalysisConfig) -> ResultDocument:
    given = {
        f.metadata.get("key") or f.name: getattr(config, f.name)
        for f in fields(config)
        if f.metadata.get("model") == config.model
    }
    if config.model == "garch":
        params, simulate = GarchParams(**given), simulate_garch
    else:
        params, simulate = SvParams(**given), simulate_sv
    series = simulate(params, config.n, burn_in=config.burn_in, seed=config.seed)

    metadata = _base_metadata(config)
    metadata.update(
        {"n": config.n, "burn_in": config.burn_in, "model": config.model, **asdict(params)}
    )
    rows = [(float(v),) for v in series.values]
    return ResultDocument(metadata=metadata, columns=("value",), rows=rows)


def _fit_and_metadata(config: AnalysisConfig):
    """Fit GARCH(1,1) to the one input; the fit and the document metadata."""
    [series] = ingest_aligned(config.inputs, config.column, config.date_column, config.returns_mode)
    fit = fit_garch_qmle(series)
    metadata = _base_metadata(config)
    metadata["fit"] = {
        "omega": fit.params.omega,
        "alpha": fit.params.alpha,
        "beta": fit.params.beta,
        "log_likelihood": fit.log_likelihood,
        "iterations": fit.iterations,
        "grad_norm": fit.grad_norm,
        "converged": fit.converged,
        "constraint_margin": fit.constraint_margin,
    }
    return fit, metadata


def _run_fit_garch(config: AnalysisConfig) -> ResultDocument:
    fit, metadata = _fit_and_metadata(config)
    print(
        f"fitted GARCH(1,1): omega={fit.params.omega:.6g} alpha={fit.params.alpha:.6g} "
        f"beta={fit.params.beta:.6g} loglik={fit.log_likelihood:.6g}",
        file=sys.stderr,
    )
    rows = [(float(s), float(r)) for s, r in zip(fit.sigma, fit.residuals)]
    return ResultDocument(metadata=metadata, columns=("sigma", "residual"), rows=rows)


def _run_devol(config: AnalysisConfig) -> ResultDocument:
    fit, metadata = _fit_and_metadata(config)
    rows = [(float(r),) for r in fit.residuals]
    return ResultDocument(metadata=metadata, columns=("residual",), rows=rows)


# subcommand -> (runner, input file count, help); a subcommand's options are
# the AnalysisConfig fields whose metadata lists it
_SUBCOMMANDS = {
    "extremogram": (_run_extremogram, 1, "univariate extremogram with bands"),
    "cross": (_run_cross, 2, "directional cross-extremogram (conditions on the first file)"),
    "tri": (_run_tri, 3, "trivariate union extremogram"),
    "returntimes": (_run_returntimes, 1, "waiting-time extremogram with bootstrap bands"),
    "simulate": (_run_simulate, 0, "simulate a GARCH(1,1) or SV path to CSV"),
    "fit-garch": (_run_fit_garch, 1, "fit GARCH(1,1) by QMLE; sigma and residual columns"),
    "devol": (_run_devol, 1, "divide by fitted GARCH volatility; residual column"),
}


def run(config: AnalysisConfig) -> ResultDocument:
    """Execute one analysis; raises package errors on failure."""
    config.validate()
    runner, _, _ = _SUBCOMMANDS[config.subcommand]
    return runner(config)


def config_from_metadata(metadata: dict) -> AnalysisConfig:
    """Rebuild the analysis configuration recorded in a document's metadata.

    Re-running the returned config (with the original input files present)
    reproduces the document byte-for-byte. A key recorded as null keeps the
    field's default; a model-scoped key is read only for that model.
    """
    values = {}
    for f in fields(AnalysisConfig):
        value = metadata.get(f.metadata.get("key") or f.name)
        if value is not None and f.metadata.get("model") in (None, metadata.get("model")):
            values[f.name] = value
    return AnalysisConfig(**values)


def write_document(doc: ResultDocument, output: str, output_format: str):
    """Write atomically: a temp file in the target directory, then rename."""
    text = doc.render(output_format)
    if output == "-":
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(output))
    tmp_path = None
    try:
        fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp_path, output)
    except BaseException as exc:
        if tmp_path is not None and os.path.exists(tmp_path):
            os.unlink(tmp_path)
        if isinstance(exc, OSError):  # a missing or read-only directory, or a directory as output
            raise InvalidInput(f"{output}: cannot write: {exc.strerror or exc}") from None
        raise


# ---------------------------------------------------------------------------
# argument parsing


def _default_seed() -> int:
    value = os.environ.get(SEED_ENV_VAR, "0")
    try:
        return int(value)
    except ValueError:
        raise InvalidInput(f"${SEED_ENV_VAR} must be an integer, not {value!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="extremogram",
        description="Serial extremal dependence estimation with bootstrap and permutation bands",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, n_inputs, help_text) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if n_inputs == 1:
            p.add_argument("input", help="CSV file ('-' for stdin)")
        elif n_inputs:
            p.add_argument("inputs", nargs=n_inputs, help="CSV files")
        for f in fields(AnalysisConfig):
            if name in f.metadata.get("commands", ()):
                p.add_argument(*f.metadata["flags"], dest=f.name, **f.metadata["argparse"])
    return parser


def config_from_args(args: argparse.Namespace) -> AnalysisConfig:
    values = {
        f.name: getattr(args, f.name)
        for f in fields(AnalysisConfig)
        if getattr(args, f.name, None) is not None
    }
    if hasattr(args, "input"):
        values["inputs"] = [args.input]
    if "seed" not in values:
        values["seed"] = _default_seed()
    return AnalysisConfig(**values)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = config_from_args(args)
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
