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

There is one runner per document kind: ``_run_bands`` for the four band
subcommands, which differ only in their kernel and independence reference;
``_run_fit`` for fit-garch and devol; ``_run_simulate`` for simulate.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import math
import os
import stat
import sys
import tempfile
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import __version__
from ._rng import check_seed
from .core import TAILS, UPPER, ThresholdSpec, TimeSeries, log_returns
from .errors import AnalysisFailed, ExtremogramError, InvalidInput
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
        None, "--date-column", commands=_FILE_COMMANDS, help="date column for joining"
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
        check_seed(self.seed)
        for f in fields(self):
            choices, value = f.metadata.get("choices"), getattr(self, f.name)
            if choices is not None and value not in choices:
                raise InvalidInput(f"unknown {f.name.replace('_', ' ')} {value!r}")


@dataclass
class ResultDocument:
    metadata: dict
    columns: tuple[str, ...]
    values: list[list]  # one list per column, of equal length
    rows = property(lambda self: list(zip(*self.values)))

    def to_csv(self) -> str:
        # cells are ints, floats and None (an empty cell), so none needs quoting
        cells = [["" if v is None else str(v) for v in col] for col in self.values]
        return "\n".join([",".join(self.columns), *map(",".join, zip(*cells))]) + "\n"

    def to_json(self) -> str:
        payload = {
            "metadata": self.metadata,
            "rows": [dict(zip(self.columns, row)) for row in self.rows],
        }
        return json.dumps(payload, indent=2, sort_keys=False) + "\n"

    def render(self, output_format: str) -> str:
        return self.to_json() if output_format == "json" else self.to_csv()


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
    # a UTF-8 byte-order mark would glue itself to the first cell
    return text.removeprefix("\ufeff")


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


def _layout(first: list[str], column: str, date_column: str | None, path: str):
    """Whether the first non-blank row is a header, and the value and date
    column positions (the value column's when there is no date column).

    The first row is data if the cells that could name the column are
    numbers: the selected cell for a position inside the row, else every cell.
    """
    position = _position(column)
    probe = first if position is None else first[position:position + 1] or first
    header = None if all(map(_is_number, probe)) else first
    col = _column_index(column, header, path)
    date_col = col if date_column is None else _column_index(date_column, header, path)
    return header is not None, col, date_col


def _plain_columns(
    text: str, path: str, column: str, date_column: str | None
) -> tuple[np.ndarray, tuple[str, ...] | None] | None:
    """``ingest_csv``'s result for a plain text, split with whole-text string
    calls; None for any other text, and for any text the row loop would
    skip a row of or report.

    Plain means no '"' and no NUL (which ``csv.reader`` rejects before
    Python 3.11), every '\\r' in a '\\r\\n', every row as wide as the first
    and no field over ``csv.field_size_limit()``: there ``csv.reader``'s rows
    are the text cut at every ',' and '\\n'. Value cells go to ``float``
    unstripped, which reads them as the row loop's stripped cells or raises.
    """
    if '"' in text or "\x00" in text:
        return None
    if "\r" in text:
        if text.count("\r") != text.count("\r\n"):
            return None
        text = text.replace("\r\n", "\n")
    text = text.rstrip("\n")  # final blank lines: the row loop skips them
    raw = np.frombuffer(text.encode("utf-8"), np.uint8)
    seps = np.flatnonzero((raw == ord(",")) | (raw == ord("\n")))
    # the first row's end fixes the width; every width-th separator ends a row
    # and no other does, and the last row is full. A field's byte count bounds
    # its length in characters. An empty field in a one-column text is a blank
    # line, which would otherwise be found only after the floats.
    ends = np.flatnonzero(raw[seps] == ord("\n"))
    width = int(ends[0]) + 1 if ends.size else seps.size + 1
    lengths = np.diff(seps, prepend=-1, append=raw.size) - 1
    if ((seps.size + 1) % width
            or not np.array_equal(ends, np.arange(width - 1, seps.size, width))
            or lengths.max() > csv.field_size_limit()
            or width == 1 and not lengths.min()):
        return None
    flat = text.replace(",", "\n").split("\n")
    first = flat[:width]
    if not "".join(first).strip():  # a leading blank row
        return None
    try:
        has_header, col, date_col = _layout(first, column, date_column, path)
    except InvalidInput:
        return None
    if max(col, date_col) >= width:
        return None
    skip = width * has_header
    cells = flat[skip + col::width]
    try:
        values = np.fromiter(map(float, cells), float, len(cells))
    except ValueError:  # an empty, blank or non-numeric cell
        return None
    if not cells or not np.isfinite(values).all():
        return None
    if date_column is None:
        return values, None
    return values, tuple(map(str.strip, flat[skip + date_col::width]))


def ingest_csv(
    path: str,
    column: str = "0",
    date_column: str | None = None,
) -> tuple[np.ndarray, tuple[str, ...] | None]:
    """Parse one CSV file (header optional): its values, and its dates when
    there is a date column, else None.

    The column and date column may be positions or header names, and every
    row must reach both. Blank rows are skipped. Of several bad lines the
    first is reported, whatever is wrong with it; error line numbers count
    every line of the file.

    There are two paths, with the same values and dates. A plain file (no
    quotes or NULs, no lone '\\r', every row as wide as the first, no blank
    row but at the end, no cell the row loop would reject) is split with a
    few whole-text string calls. Every other file goes through
    ``csv.reader`` and the row loop, which raises every ingest error.
    """
    text = _read_text(path)
    plain = _plain_columns(text, path, column, date_column)
    if plain is not None:
        return plain
    reader = csv.reader(io.StringIO(text))
    rows = (row for row in reader if "".join(row).strip())
    values, dates = [], []
    try:
        if (first := next(rows, None)) is None:
            raise InvalidInput(f"{path}: no data rows")
        has_header, col, date_col = _layout(first, column, date_column, path)
        widest = max(col, date_col)
        for row in rows if has_header else itertools.chain([first], rows):
            if widest >= len(row):
                raise InvalidInput(f"{path}: line {reader.line_num}: too few columns")
            cell = row[col].strip()
            try:
                values.append(value := float(cell))
            except ValueError:
                raise InvalidInput(
                    f"{path}: line {reader.line_num}: cannot parse {cell!r} as a number") from None
            if not math.isfinite(value):  # "nan", "inf" and "1e999" parse
                raise InvalidInput(f"{path}: line {reader.line_num}: {cell!r} is not a finite number")
            dates.append(row[date_col])
    except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
        raise InvalidInput(f"{path}: line {reader.line_num}: {exc}") from None
    if not values:  # a header row and nothing under it
        raise InvalidInput(f"{path}: no data rows")
    return np.array(values), None if date_column is None else tuple(map(str.strip, dates))


def ingest_aligned(
    paths: list[str],
    column: str = "0",
    date_column: str | None = None,
    returns_mode: str = "raw",
) -> list[TimeSeries]:
    """Ingest several files and align them before any return computation.

    With a date column, rows are inner-joined on the dates (only days
    present in every file survive), keeping the first file's ordering.
    Without one, the files must already be aligned and of equal length.
    """
    if paths.count("-") > 1:
        raise InvalidInput("'-' is named more than once, but standard input can be read only once")
    parsed = [ingest_csv(p, column, date_column) for p in paths]
    columns = [values for values, _ in parsed]
    if len(paths) > 1 and date_column is not None:  # one input has nothing to join
        # ids in order of first sight, so the first file's dates get its row numbers;
        # rows[i][r] is the row of file i that holds the date of the first file's row r
        n, index, fresh, rows = columns[0].size, {}, itertools.count(), []
        for p, (_, dates) in zip(paths, parsed):
            ids = np.fromiter(map(index.setdefault, dates, fresh), np.intp, len(dates))
            if np.bincount(ids).max() > 1:
                raise InvalidInput(f"{p}: duplicate dates prevent joining")
            rows.append(np.full(n, -1))
            rows[-1][ids[ids < n]] = np.flatnonzero(ids < n)
        shared = np.flatnonzero(np.logical_and.reduce([row >= 0 for row in rows]))
        if not shared.size:
            raise InvalidInput("the input files share no dates")
        columns = [values[row[shared]] for values, row in zip(columns, rows)]
    elif len({values.size for values in columns}) > 1:
        raise InvalidInput("without a date column, input files must have equal length")
    series = [TimeSeries(values) for values in columns]
    if returns_mode == "log_returns":
        return [log_returns(s) for s in series]
    if returns_mode != "raw":
        raise InvalidInput(f"unknown returns mode {returns_mode!r}")
    return series


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


def _run_bands(config: AnalysisConfig) -> ResultDocument:
    """Every band subcommand: ingest, resolve each input's threshold, build
    the family's kernel and its independence reference, then the bands.

    The rows carry the bootstrap bands when there are replicates, else the
    permutation band. The permutation band is computed only where the
    document prints it: in the rows, or in JSON metadata. A CSV document
    with replicates skips it, and its metadata records it as None.
    Return times always take bootstrap bands and no permutation band.
    """
    series = ingest_aligned(config.inputs, config.column, config.date_column, config.returns_mode)
    specs = [ThresholdSpec(config.q, config.tail).resolve(s) for s in series]
    region = specs[0].reference_region()
    rate = specs[0].nominal_rate()  # every input has the same q and tail
    reference, replicates, n_perm, extra = None, config.replicates, config.n_perm, {}
    if config.subcommand in ("extremogram", "cross"):
        build = univariate_kernel if config.subcommand == "extremogram" else cross_kernel
        kernel = build(*series, region, region, *specs, config.max_lag)
    elif config.subcommand == "tri":
        build = tri_target_kernel if config.variant == "target" else tri_source_kernel
        kernel = build(*series, *specs, config.max_lag)
        if config.variant == "target":  # the response is a union of two series' events
            rate = 1.0 - (1.0 - rate) * (1.0 - rate)
        extra = {"variant": config.variant}
    else:
        kernel = return_times_kernel(*series, region, *specs, config.max_lag)
        p_ref = config.reference_p if config.reference_p is not None else rate
        reference = geometric_pmf(p_ref, kernel.lags)
        replicates, n_perm, extra = replicates or 10_000, 0, {"reference_p": p_ref}

    p = 1.0 / config.mean_block_size
    boot = None
    if replicates is not None:
        _warn_growth_condition(kernel.n, p, kernel.denominator)
        boot = bootstrap_bands(
            kernel, p=p, replicates=replicates, method=config.band_method, seed=config.seed
        )
    perm = None
    if n_perm > 0 and (boot is None or config.output_format == "json"):
        perm = permutation_bands(kernel, n_perm=n_perm, seed=config.seed)

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
                for spec, name in zip(specs, config.inputs)
            ],
            "n_perm": n_perm,
            "permutation_band": {"lower": perm[0], "upper": perm[1]} if perm else None,
            "replicates": replicates,
            "mean_block_size": config.mean_block_size if boot else None,
            "band_method": config.band_method if boot else None,
            "skip_rate": boot.skip_rate if boot else None,
            **extra,
        }
    )

    k = kernel.lags.size
    if boot is not None:  # replicate_mean averages the replicates: take it once
        bands = boot.lower.tolist(), boot.upper.tolist(), boot.replicate_mean.tolist()
    else:
        lower, upper = perm or (None, None)
        bands = [lower] * k, [upper] * k, [None] * k
    values = [kernel.lags.tolist(), kernel.point_estimates().tolist(), *bands,
              reference or [rate] * k]  # return times set a reference per lag
    return ResultDocument(metadata, BAND_COLUMNS, values)


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
    return ResultDocument(metadata, ("value",), [series.values.tolist()])


def _run_fit(config: AnalysisConfig) -> ResultDocument:
    """Fit GARCH(1,1) by QMLE to the one input: sigma and residual columns
    for fit-garch, which also prints the fit to stderr; residuals for devol."""
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
        "converged": True,  # fit_garch_qmle raises AnalysisFailed otherwise
        "constraint_margin": fit.constraint_margin,
    }
    if config.subcommand == "devol":
        return ResultDocument(metadata, ("residual",), [fit.residuals.tolist()])
    print(
        f"fitted GARCH(1,1): omega={fit.params.omega:.6g} alpha={fit.params.alpha:.6g} "
        f"beta={fit.params.beta:.6g} loglik={fit.log_likelihood:.6g}",
        file=sys.stderr,
    )
    return ResultDocument(metadata, ("sigma", "residual"), [fit.sigma.tolist(), fit.residuals.tolist()])


# subcommand -> (runner, input file count, help); a subcommand's options are
# the AnalysisConfig fields whose metadata lists it
_SUBCOMMANDS = {
    "extremogram": (_run_bands, 1, "univariate extremogram with bands"),
    "cross": (_run_bands, 2, "directional cross-extremogram (conditions on the first file)"),
    "tri": (_run_bands, 3, "trivariate union extremogram"),
    "returntimes": (_run_bands, 1, "waiting-time extremogram with bootstrap bands"),
    "simulate": (_run_simulate, 0, "simulate a GARCH(1,1) or SV path to CSV"),
    "fit-garch": (_run_fit, 1, "fit GARCH(1,1) by QMLE; sigma and residual columns"),
    "devol": (_run_fit, 1, "divide by fitted GARCH volatility; residual column"),
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


def _open_mode(path: str) -> int:
    """The permission bits ``open(path, "w")`` leaves: those of the file it
    replaces, or 0o666 less the umask for a new one."""
    try:
        return stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        umask = os.umask(0o022)  # reading the umask means setting it
        os.umask(umask)
        return 0o666 & ~umask


def write_document(doc: ResultDocument, output: str, output_format: str):
    """Write atomically: a temp file in the target directory, then rename.

    A symbolic link is written through, as ``open`` would: the file it
    names gets the document, and the link stays a link.
    """
    text = doc.render(output_format)
    if output == "-":
        sys.stdout.write(text)
        return
    target = os.path.realpath(output) if os.path.islink(output) else output
    tmp_path = None
    try:
        fd, tmp_path = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(target)), suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.chmod(tmp_path, _open_mode(target))  # mkstemp creates the file with mode 0600
        os.replace(tmp_path, target)
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


_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        config = config_from_args(args)
        doc = run(config)
        write_document(doc, config.output, config.output_format)
    except AnalysisFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ANALYSIS_FAILED
    except (ExtremogramError, MemoryError) as exc:  # MemoryError: a count too big to allocate
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
