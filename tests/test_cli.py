import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import extremogram as xg
from conftest import assert_no_children
from extremogram import cli
from extremogram.errors import InvalidInput


def write_csv(path, rows, header=None):
    lines = []
    if header:
        lines.append(",".join(header))
    lines.extend(",".join(str(c) for c in row) for row in rows)
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture
def garch_file(tmp_path):
    sim = xg.simulate_garch(xg.GarchParams(), 4000, burn_in=500, seed=17)
    return write_csv(tmp_path / "garch.csv", [(v,) for v in sim.values], header=("value",))


class TestIngest:
    def test_headerless_single_column(self, tmp_path):
        values = [0.5, -1.25, 3.0, 2.5, -0.125, 9.0, 1.0, 2.0, 3.5, 4.25]
        path = write_csv(tmp_path / "plain.csv", [(v,) for v in values])
        read, _ = cli.ingest_csv(path)
        assert read.tolist() == values

    def test_header_and_named_column(self, tmp_path):
        path = write_csv(
            tmp_path / "named.csv",
            [("2020-01-01", 1.5, 7.0), ("2020-01-02", 2.5, 8.0)],
            header=("date", "open", "close"),
        )
        values, dates = cli.ingest_csv(path, column="close", date_column="date")
        assert values.tolist() == [7.0, 8.0]
        assert dates == ("2020-01-01", "2020-01-02")

    def test_price_count_arithmetic(self, tmp_path):
        # 6,444 closing prices become 6,443 log-returns
        rng = np.random.default_rng(3)
        prices = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.01, size=6444)))
        path = write_csv(tmp_path / "prices.csv", [(p,) for p in prices])
        series = cli.ingest_aligned([path], returns_mode="log_returns")[0]
        assert len(series) == 6443
        assert np.allclose(series.values, np.diff(np.log(prices)))

    def test_unparseable_row_reports_line_number(self, tmp_path):
        path = write_csv(tmp_path / "bad.csv", [(1.0,), ("oops",), (3.0,)])
        with pytest.raises(InvalidInput) as err:
            cli.ingest_csv(path)
        assert "line 2" in str(err.value)

    def test_parse_error_line_counts_blank_lines(self, tmp_path):
        path = tmp_path / "gaps.csv"
        path.write_text("1.0\n\n\n2.0\noops\n")
        with pytest.raises(InvalidInput, match="line 5: cannot parse 'oops' as a number"):
            cli.ingest_csv(str(path))

    def test_short_row_line_counts_blank_lines(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("date,v\n\nd1,1.0\n  \n\nd2\nd3,3.0\n")
        with pytest.raises(InvalidInput, match="line 6: too few columns"):
            cli.ingest_csv(str(path), column="v", date_column="date")

    @pytest.mark.parametrize("header", ["v\n", ""], ids=["header", "headerless"])
    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_cell_reports_its_line(self, cell, header, tmp_path):
        path = tmp_path / "odd.csv"
        path.write_text(f"{header}1.0\n\n2.0\n  \n {cell}\n3.0\n")
        line = 5 + bool(header)
        with pytest.raises(InvalidInput) as err:
            cli.ingest_csv(str(path))
        assert str(err.value) == f"{path}: line {line}: {cell!r} is not a finite number"

    def test_named_column_on_headerless_file_needs_a_header(self, tmp_path):
        path = write_csv(tmp_path / "two.csv", [(float(v), float(-v)) for v in range(1, 11)])
        with pytest.raises(InvalidInput, match="column 'close' needs a header row"):
            cli.ingest_csv(path, column="close")

    def test_header_without_the_named_column(self, tmp_path):
        path = write_csv(tmp_path / "named.csv", [(1.5, 7.0)], header=("open", "high"))
        with pytest.raises(InvalidInput, match=r"no column named 'close' in header \['open'"):
            cli.ingest_csv(path, column="close")

    def test_missing_file(self):
        with pytest.raises(InvalidInput):
            cli.ingest_csv("/nonexistent/file.csv")

    def test_inner_join_on_dates(self, tmp_path):
        a = write_csv(
            tmp_path / "a.csv",
            [("d1", 1.0), ("d2", 2.0), ("d3", 3.0)],
            header=("date", "value"),
        )
        b = write_csv(
            tmp_path / "b.csv",
            [("d2", 20.0), ("d3", 30.0), ("d4", 40.0)],
            header=("date", "value"),
        )
        sa, sb = cli.ingest_aligned([a, b], column="value", date_column="date")
        assert sa.values.tolist() == [2.0, 3.0]
        assert sb.values.tolist() == [20.0, 30.0]

    def test_join_symmetry(self, tmp_path):
        a = write_csv(
            tmp_path / "a.csv", [("d1", 1.0), ("d2", 2.0), ("d3", 3.0)], header=("date", "v")
        )
        b = write_csv(
            tmp_path / "b.csv", [("d2", 20.0), ("d3", 30.0), ("d4", 40.0)], header=("date", "v")
        )
        ab = cli.ingest_aligned([a, b], column="v", date_column="date")
        ba = cli.ingest_aligned([b, a], column="v", date_column="date")
        assert ab[0].values.tolist() == ba[1].values.tolist()
        assert ab[1].values.tolist() == ba[0].values.tolist()

    def test_empty_intersection(self, tmp_path):
        a = write_csv(tmp_path / "a.csv", [("d1", 1.0)], header=("date", "v"))
        b = write_csv(tmp_path / "b.csv", [("d9", 2.0)], header=("date", "v"))
        with pytest.raises(InvalidInput):
            cli.ingest_aligned([a, b], column="v", date_column="date")

    def test_join_applies_before_returns(self, tmp_path):
        a = write_csv(
            tmp_path / "a.csv",
            [("d1", 100.0), ("d2", 110.0), ("d3", 121.0)],
            header=("date", "p"),
        )
        b = write_csv(
            tmp_path / "b.csv",
            [("d2", 50.0), ("d3", 55.0), ("d4", 60.5)],
            header=("date", "p"),
        )
        sa, sb = cli.ingest_aligned([a, b], column="p", date_column="date", returns_mode="log_returns")
        # joined prices are (110, 121) and (50, 55): one return each
        assert len(sa) == len(sb) == 1
        assert sa.values[0] == pytest.approx(math.log(121.0 / 110.0))


class TestRun:
    def test_reference_column_values(self, garch_file):
        config = cli.AnalysisConfig(
            subcommand="extremogram", inputs=[garch_file], column="value",
            q=0.98, tail="upper", max_lag=5, n_perm=9, seed=1,
        )
        doc = cli.run(config)
        assert doc.columns == cli.BAND_COLUMNS
        assert len(doc.rows) == 6
        assert all(row[5] == pytest.approx(0.02) for row in doc.rows)

    def test_lower_tail_reference_is_q(self, garch_file):
        config = cli.AnalysisConfig(
            subcommand="extremogram", inputs=[garch_file], column="value",
            q=0.04, tail="lower", max_lag=3, n_perm=9, seed=1,
        )
        doc = cli.run(config)
        assert all(row[5] == pytest.approx(0.04) for row in doc.rows)

    def test_returntimes_reference_is_geometric(self, garch_file):
        config = cli.AnalysisConfig(
            subcommand="returntimes", inputs=[garch_file], column="value",
            q=0.9, tail="upper", max_lag=4, replicates=150, seed=1,
        )
        doc = cli.run(config)
        assert [row[0] for row in doc.rows] == [1, 2, 3, 4]
        for row in doc.rows:
            assert row[5] == pytest.approx(0.1 * 0.9 ** (row[0] - 1))

    def test_returntimes_lower_tail_reference_is_geometric_at_q(self, garch_file):
        config = cli.AnalysisConfig(
            subcommand="returntimes", inputs=[garch_file], column="value",
            q=0.1, tail="lower", max_lag=4, replicates=150, seed=1,
        )
        doc = cli.run(config)
        for row in doc.rows:
            assert row[5] == pytest.approx(0.1 * 0.9 ** (row[0] - 1))

    def test_cross_direction_metadata(self, tmp_path):
        rng = np.random.default_rng(11)
        base = rng.standard_normal(800)
        a = write_csv(tmp_path / "a.csv", [(v,) for v in base])
        b = write_csv(tmp_path / "b.csv", [(v,) for v in np.roll(base, 1)])
        config = cli.AnalysisConfig(
            subcommand="cross", inputs=[a, b], q=0.95, max_lag=3, n_perm=9, seed=0
        )
        doc = cli.run(config)
        assert doc.metadata["family"] == "cross"
        assert doc.rows[1][1] > 0.9  # lag-1 carry-over
        assert all(row[5] == pytest.approx(0.05) for row in doc.rows)  # 1 - q

    def test_tri_variants(self, tmp_path):
        rng = np.random.default_rng(12)
        paths = [
            write_csv(tmp_path / f"s{i}.csv", [(v,) for v in rng.standard_normal(600)])
            for i in range(3)
        ]
        # reference: the rate 1 - q of the response series, or for the target
        # variant that of a union of two independent events, 1 - q**2
        for variant, family, reference in (("target", "tri_union_target", 1.0 - 0.9 ** 2),
                                           ("source", "tri_union_source", 0.1)):
            config = cli.AnalysisConfig(
                subcommand="tri", inputs=paths, q=0.9, max_lag=3, n_perm=9,
                seed=0, variant=variant,
            )
            doc = cli.run(config)
            assert doc.metadata["family"] == family
            assert doc.metadata["variant"] == variant
            assert all(row[5] == pytest.approx(reference) for row in doc.rows)

    def test_simulate_then_fit_recovers(self, tmp_path):
        sim_path = str(tmp_path / "sim.csv")
        code = cli.main(
            ["simulate", "--model", "garch", "--n", "20000", "--seed", "3", "-o", sim_path]
        )
        assert code == 0
        config = cli.AnalysisConfig(subcommand="fit-garch", inputs=[sim_path], column="value")
        doc = cli.run(config)
        fit = doc.metadata["fit"]
        assert abs(fit["alpha"] - 0.14) < 0.05
        assert doc.columns == ("sigma", "residual")

    def test_devol_document(self, garch_file):
        config = cli.AnalysisConfig(subcommand="devol", inputs=[garch_file], column="value")
        doc = cli.run(config)
        assert doc.columns == ("residual",)
        assert len(doc.rows) == 4000


# argv of runs that must exit 2; "@..." names a path made by the test: @values
# holds 200 positive numbers, @text a non-numeric column, @latin1 bytes that
# are not UTF-8, @dir a directory, @out a writable output, @missing_dir an
# output in a missing directory
_INVALID_INPUT_ARGV = {
    "unparseable_value": ["extremogram", "@text", "-o", "@out"],
    # DegenerateThreshold: no negative quantile for a lower tail
    "degenerate_threshold": ["extremogram", "@values", "--tail", "lower", "--q", "0.05",
                             "-o", "@out"],
    "input_is_a_directory": ["extremogram", "@dir", "-o", "@out"],
    "input_not_utf8": ["extremogram", "@latin1", "-o", "@out"],
    "seed_env_not_an_integer": ["extremogram", "@values", "-o", "@out"],
    "output_directory_missing": ["extremogram", "@values", "-o", "@missing_dir"],
    "output_is_a_directory": ["extremogram", "@values", "-o", "@dir"],
    "reference_p_out_of_range": ["returntimes", "@values", "--reference-p", "1.5", "-o", "@out"],
}


class TestExitCodes:
    def test_no_exceedances_is_exit_3(self, tmp_path):
        path = write_csv(tmp_path / "const.csv", [(5.0,)] * 200)
        code = cli.main(
            ["extremogram", path, "--q", "0.9", "--lags", "5", "-o", str(tmp_path / "o.csv")]
        )
        assert code == 3

    @pytest.mark.parametrize("case", sorted(_INVALID_INPUT_ARGV))
    def test_invalid_input_is_exit_2(self, case, tmp_path, monkeypatch, capsys):
        latin1 = tmp_path / "latin1.csv"
        latin1.write_bytes(b"caf\xe9\n1.0\n2.0\n")
        paths = {
            "@values": write_csv(tmp_path / "p.csv", [(float(i),) for i in range(1, 201)]),
            "@text": write_csv(tmp_path / "b.csv", [("x",)] * 3),
            "@latin1": str(latin1),
            "@dir": str(tmp_path),
            "@out": str(tmp_path / "o.csv"),
            "@missing_dir": str(tmp_path / "missing" / "o.csv"),
        }
        monkeypatch.setenv(cli.SEED_ENV_VAR, "abc" if case == "seed_env_not_an_integer" else "0")
        code = cli.main([paths.get(a, a) for a in _INVALID_INPUT_ARGV[case]])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("line", [1, 3])
    def test_field_over_the_csv_size_limit_is_exit_2(self, line, tmp_path, capsys):
        # 200,000 characters, over csv.field_size_limit() (131,072 by default);
        # line 1 is read by the header probe, line 3 by the row loop
        rows = ["v", "1.0", "2.0", "3.0"]
        rows[line - 1] = '"' + "9" * 200_000 + '"'
        path = tmp_path / "wide.csv"
        path.write_text("\n".join(rows) + "\n")
        assert cli.main(["extremogram", str(path), "-o", str(tmp_path / "o.csv")]) == 2
        assert f"error: {path}: line {line}: field larger than field limit" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("bad", [0, 1])
    def test_non_finite_cell_in_cross_names_its_file(self, bad, tmp_path, capsys):
        # the error names the file and its line, not only the joined series
        paths = []
        for i in range(2):
            lines = ["date,v", *(f"d{t},{t % 7}.5" for t in range(300)), ""]
            if i == bad:
                lines[100] = "d99,-inf"
                lines.insert(50, "")  # the bad row moves to line 102
            paths.append(tmp_path / f"f{i}.csv")
            paths[-1].write_text("\n".join(lines))
        code = cli.main(["cross", *map(str, paths), "--column", "v", "--date-column", "date",
                         "-o", str(tmp_path / "o.csv")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {paths[bad]}: line 102: '-inf' is not a finite number\n")

    def test_header_without_data_rows_names_its_file(self, tmp_path, capsys):
        full = write_csv(tmp_path / "a.csv", [(float(i),) for i in range(1, 201)], header=("v",))
        empty = write_csv(tmp_path / "header_only.csv", [], header=("v",))
        code = cli.main(["cross", full, empty, "--column", "v", "-o", str(tmp_path / "o.csv")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {empty}: no data rows\n"

    def test_fit_short_series_exit_2(self, tmp_path):
        path = write_csv(tmp_path / "short.csv", [(float(i),) for i in range(50)])
        assert cli.main(["fit-garch", path, "-o", str(tmp_path / "o.csv")]) == 2

    def test_success_is_exit_0(self, garch_file, tmp_path):
        code = cli.main(
            ["extremogram", garch_file, "--column", "value", "--q", "0.95",
             "--lags", "3", "--permutations", "9", "-o", str(tmp_path / "o.csv")]
        )
        assert code == 0

    @pytest.mark.parametrize("replicates", [[], ["--replicates", "100"]],
                             ids=["no_replicates", "replicates"])
    @pytest.mark.parametrize("size", ["nan", "inf"])
    def test_non_finite_block_size_is_exit_2(self, size, replicates, garch_file, tmp_path, capsys):
        code = cli.main(["extremogram", garch_file, "--column", "value", "--block-size", size,
                         *replicates, "-o", str(tmp_path / "o.csv")])
        assert code == 2
        assert "error: mean block size must be finite and at least 1" in capsys.readouterr().err

    def test_huge_block_size_is_exit_0(self, garch_file, tmp_path):
        # p = 1e-19 makes numpy's geometric draw return the int64 maximum
        code = cli.main(
            ["extremogram", garch_file, "--column", "value", "--replicates", "100",
             "--block-size", "1e19", "-o", str(tmp_path / "o.csv")]
        )
        assert code == 0


# analyses covering every subcommand and its metadata keys; "@k" is the k-th input
# file: @0-@2 hold simulated GARCH values, @3-@4 dated prices sharing most dates
_JSON = ["--format", "json", "--seed", "7"]
_FILE_OPTIONS = ["--column", "value", *_JSON]
_LAGS = ["--lags", "4", "--permutations", "19", "--replicates", "120"]
_BANDS = [*_LAGS, *_FILE_OPTIONS]
ROUND_TRIPS = {
    "extremogram": ["extremogram", "@0", "--q", "0.95", *_BANDS],
    "extremogram_two_sided": ["extremogram", "@0", "--q", "0.95", "--tail", "two_sided",
                              "--block-size", "20", *_BANDS],
    "extremogram_no_bands": ["extremogram", "@0", "--q", "0.95", "--lags", "4",
                             "--permutations", "0", *_FILE_OPTIONS],
    "cross": ["cross", "@0", "@1", "--q", "0.95", *_BANDS],
    "cross_dated_prices": ["cross", "@3", "@4", "--date-column", "date", "--column", "close",
                           "--returns", "log_returns", "--q", "0.95", *_LAGS, *_JSON],
    "tri_target": ["tri", "@0", "@1", "@2", "--q", "0.9", "--variant", "target", *_BANDS],
    "tri_source": ["tri", "@0", "@1", "@2", "--q", "0.9", "--variant", "source", *_BANDS],
    "returntimes": ["returntimes", "@0", "--q", "0.9", "--lags", "6", "--replicates", "150",
                    *_FILE_OPTIONS],
    "returntimes_reference_p": ["returntimes", "@0", "--q", "0.9", "--lags", "6",
                                "--replicates", "150", "--reference-p", "0.07", *_FILE_OPTIONS],
    "returntimes_lower": ["returntimes", "@0", "--q", "0.1", "--tail", "lower", "--lags", "6",
                          "--replicates", "150", "--band-method", "quantile_of_replicates",
                          *_FILE_OPTIONS],
    "fit-garch": ["fit-garch", "@1", *_FILE_OPTIONS],
    "devol": ["devol", "@2", *_FILE_OPTIONS],
    "simulate_garch": ["simulate", "--model", "garch", "--n", "500", "--burn-in", "100",
                       "--omega", "0.2", "--garch-dof", "5", "--format", "json", "--seed", "13"],
    "simulate_sv": ["simulate", "--model", "sv", "--n", "500", "--burn-in", "100", "--phi", "0.85",
                    "--sv-dof", "3", "--log-vol-sd", "0.7", "--format", "json", "--seed", "13"],
}


def _case_files(garch_file, tmp_path):
    files = [garch_file]
    sims = [xg.simulate_garch(xg.GarchParams(), 4000, burn_in=500, seed=s) for s in (18, 19)]
    for seed, sim in zip((18, 19), sims):
        files.append(write_csv(tmp_path / f"garch_{seed}.csv", [(v,) for v in sim.values],
                               header=("value",)))
    for k, sim in enumerate(sims):
        prices = 100.0 * np.exp(np.cumsum(0.01 * sim.values))
        rows = [(f"d{i:04d}", p) for i, p in enumerate(prices) if k == 0 or i % 7]
        files.append(write_csv(tmp_path / f"prices_{k}.csv", rows, header=("date", "close")))
    return files


def _run_case(case, garch_file, tmp_path):
    files = _case_files(garch_file, tmp_path)
    args = [files[int(a[1:])] if a.startswith("@") else a for a in ROUND_TRIPS[case]]
    return cli.run(cli.config_from_args(cli.build_parser().parse_args(args)))


def _key_paths(value, prefix=""):
    """Metadata keys in document order.

    Nested dicts, and the first dict of a list, contribute dotted paths.
    """
    if isinstance(value, list):
        return _key_paths(value[0], prefix) if value and isinstance(value[0], dict) else []
    if not isinstance(value, dict):
        return []
    paths = []
    for key, item in value.items():
        paths.append(prefix + key)
        paths.extend(_key_paths(item, f"{prefix}{key}."))
    return paths


# metadata key order of each subcommand's JSON document, recorded before the
# CLI fields were declared in one table
_BASE_KEYS = ["library", "version", "subcommand", "inputs", "column", "date_column",
              "returns_mode", "seed", "output_format"]
_BAND_KEYS = [*_BASE_KEYS, "tail", "q", "max_lag", "family", "denominator_count", "thresholds",
              "thresholds.series", "thresholds.quantile_level", "thresholds.tail",
              "thresholds.threshold", "thresholds.exceedance_count", "n_perm",
              "permutation_band", "permutation_band.lower", "permutation_band.upper",
              "replicates", "mean_block_size", "band_method", "skip_rate"]
_RETURNTIMES_KEYS = [k for k in _BAND_KEYS if not k.startswith("permutation_band.")]
_FIT_KEYS = [*_BASE_KEYS, "fit", "fit.omega", "fit.alpha", "fit.beta", "fit.log_likelihood",
             "fit.iterations", "fit.grad_norm", "fit.converged", "fit.constraint_margin"]
METADATA_KEYS = {
    "extremogram": _BAND_KEYS,
    "cross": _BAND_KEYS,
    "tri_target": [*_BAND_KEYS, "variant"],
    "tri_source": [*_BAND_KEYS, "variant"],
    "returntimes": [*_RETURNTIMES_KEYS, "reference_p"],
    "returntimes_reference_p": [*_RETURNTIMES_KEYS, "reference_p"],
    "simulate_garch": [*_BASE_KEYS, "n", "burn_in", "model", "omega", "alpha", "beta",
                       "innovation_dof", "standardize_innovations"],
    "simulate_sv": [*_BASE_KEYS, "n", "burn_in", "model", "ar_coefficient", "innovation_dof",
                    "log_vol_noise_sd"],
    "fit-garch": _FIT_KEYS,
    "devol": _FIT_KEYS,
}


class TestSerialization:
    def _document(self, garch_file, fmt):
        config = cli.AnalysisConfig(
            subcommand="extremogram", inputs=[garch_file], column="value",
            q=0.95, max_lag=4, n_perm=19, replicates=120, seed=7, output_format=fmt,
        )
        return cli.run(config)

    def test_csv_json_numbers_agree(self, garch_file):
        doc_csv = self._document(garch_file, "csv")
        doc_json = self._document(garch_file, "json")
        parsed = json.loads(doc_json.to_json())
        csv_lines = doc_csv.to_csv().strip().splitlines()[1:]
        for line, row in zip(csv_lines, parsed["rows"]):
            cells = line.split(",")
            for name, cell in zip(cli.BAND_COLUMNS, cells):
                if cell == "":
                    assert row[name] is None
                else:
                    assert float(cell) == row[name]

    def test_byte_identical_reruns(self, garch_file, tmp_path):
        out1, out2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
        args = ["extremogram", garch_file, "--column", "value", "--q", "0.97",
                "--lags", "6", "--replicates", "150", "--permutations", "19",
                "--seed", "21", "--format", "json"]
        assert cli.main(args + ["-o", out1]) == 0
        assert cli.main(args + ["-o", out2]) == 0
        assert open(out1, "rb").read() == open(out2, "rb").read()

    @pytest.mark.parametrize("case", sorted(ROUND_TRIPS))
    def test_round_trip_from_metadata(self, case, garch_file, tmp_path):
        doc = _run_case(case, garch_file, tmp_path)
        again = cli.run(cli.config_from_metadata(doc.metadata))
        assert again.to_json() == doc.to_json()

    @pytest.mark.parametrize("case", sorted(METADATA_KEYS))
    def test_metadata_key_order(self, case, garch_file, tmp_path):
        metadata = json.loads(_run_case(case, garch_file, tmp_path).to_json())["metadata"]
        assert _key_paths(metadata) == METADATA_KEYS[case]

    def test_atomic_write_replaces_existing(self, garch_file, tmp_path):
        target = tmp_path / "out.csv"
        target.write_text("old")
        doc = self._document(garch_file, "csv")
        cli.write_document(doc, str(target), "csv")
        assert target.read_text().startswith("lag,")
        assert not list(tmp_path.glob("*.tmp"))


def test_stdin_ingestion(monkeypatch, capsys):
    import io

    sim = xg.simulate_garch(xg.GarchParams(), 2000, burn_in=200, seed=23)
    text = "value\n" + "\n".join(repr(float(v)) for v in sim.values) + "\n"
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code = cli.main(["extremogram", "-", "--q", "0.95", "--lags", "4",
                     "--permutations", "9", "--seed", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("lag,estimate,")
    assert len(out.strip().splitlines()) == 6


def test_stdin_that_is_not_utf8_exits_2(monkeypatch, capsys):
    import io

    # a stdin decoded with surrogateescape delivers the byte 0xff as "\udcff"
    monkeypatch.setattr("sys.stdin", io.StringIO("\udcff1.0\n"))
    assert cli.main(["extremogram", "-"]) == 2
    assert "-: cannot read:" in capsys.readouterr().err


@pytest.mark.parametrize("header", [None, ("value",)])
def test_byte_order_mark_is_not_data(header, tmp_path, monkeypatch):
    import io

    values = [0.28, -1.5, 3.0, 2.25]
    plain = write_csv(tmp_path / "plain.csv", [(v,) for v in values], header=header)
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + (tmp_path / "plain.csv").read_bytes())
    column = "value" if header else "0"
    assert cli.ingest_csv(plain, column)[0].tolist() == values
    assert cli.ingest_csv(str(bom), column)[0].tolist() == values
    # a UTF-8 stdin delivers the mark as U+FEFF
    monkeypatch.setattr("sys.stdin", io.StringIO(bom.read_bytes().decode("utf-8")))
    assert cli.ingest_csv("-", column)[0].tolist() == values


def test_byte_order_mark_keeps_line_numbers(tmp_path):
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbf1.0\n2.0\noops\n")
    with pytest.raises(InvalidInput, match="line 3: cannot parse 'oops'"):
        cli.ingest_csv(str(path))


# every subcommand, with each input a valid file: only the seed is wrong
_SEED_ARGV = {
    "extremogram": ["extremogram", "@", "--permutations", "0"],
    "cross": ["cross", "@", "@"],
    "tri": ["tri", "@", "@", "@"],
    "returntimes": ["returntimes", "@", "--replicates", "100"],
    "fit-garch": ["fit-garch", "@"],
    "devol": ["devol", "@"],
    "simulate": ["simulate", "--n", "100"],
}


@pytest.mark.parametrize("seed", [-1, 2**64])
@pytest.mark.parametrize("via", ["flag", "env"])
@pytest.mark.parametrize("command", sorted(_SEED_ARGV))
def test_out_of_range_seed_is_exit_2(command, via, seed, garch_file, tmp_path, monkeypatch,
                                     capsys):
    out = tmp_path / "o.csv"
    argv = [garch_file if a == "@" else a for a in _SEED_ARGV[command]] + ["-o", str(out)]
    if via == "flag":
        monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
        argv += ["--seed", str(seed)]
    else:
        monkeypatch.setenv(cli.SEED_ENV_VAR, str(seed))
    assert cli.main(argv) == 2
    assert f"seed must be an unsigned 64-bit integer, got {seed}" in capsys.readouterr().err
    assert not out.exists()


def test_largest_seed_is_accepted(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.SEED_ENV_VAR, str(2**64 - 1))
    assert cli.main(["simulate", "--n", "100", "-o", str(tmp_path / "o.csv")]) == 0


# counts that no numpy array can index: each is rejected before anything is allocated
_COUNT_ARGV = {
    "--n": ["simulate", "--n", "#"],
    "--burn-in": ["simulate", "--burn-in", "#"],
    "--replicates": ["extremogram", "@", "--replicates", "#"],
    "--permutations": ["extremogram", "@", "--permutations", "#"],
}


@pytest.mark.parametrize("count", [10**20, 2**63])
@pytest.mark.parametrize("flag", sorted(_COUNT_ARGV))
def test_oversized_count_is_exit_2(flag, count, garch_file, tmp_path, capsys):
    out = tmp_path / "o.csv"
    argv = [{"@": garch_file, "#": str(count)}.get(a, a) for a in _COUNT_ARGV[flag]]
    assert cli.main([*argv, "-o", str(out)]) == 2
    assert str(np.iinfo(np.intp).max) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("exc, message", [
    (MemoryError("Unable to allocate 7.28 TiB"), "Unable to allocate 7.28 TiB"),
    (MemoryError(), "out of memory"),
])
def test_memory_error_is_exit_2(exc, message, tmp_path, monkeypatch, capsys):
    # a count that an array can index but memory cannot hold; raised by a stub,
    # since a real allocation of that size may succeed under memory overcommit
    def simulate_garch(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "simulate_garch", simulate_garch)
    out = tmp_path / "o.csv"
    assert cli.main(["simulate", "--n", "1000000000000", "-o", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_memory_error_in_a_child_is_exit_2(garch_file, tmp_path, monkeypatch, force_split,
                                           capsys):
    # raised by a stub in the forked children only; nothing large is allocated
    caller, lag_one_value = os.getpid(), xg.RatioKernel.lag_one_value

    def failing(self, order):
        if os.getpid() != caller:
            raise MemoryError("Unable to allocate 7.28 TiB")
        return lag_one_value(self, order)

    monkeypatch.setattr(xg.RatioKernel, "lag_one_value", failing)
    forked = force_split(3)
    out = tmp_path / "o.csv"
    assert cli.main(["extremogram", garch_file, "--column", "value", "--lags", "3",
                     "--permutations", "30", "-o", str(out)]) == 2
    assert capsys.readouterr().err == "error: Unable to allocate 7.28 TiB\n"
    assert len(forked) == 2
    assert not out.exists()
    assert_no_children()


def test_seed_env_var(tmp_path, monkeypatch, garch_file):
    monkeypatch.setenv(cli.SEED_ENV_VAR, "99")
    parser = cli.build_parser()
    args = parser.parse_args(["extremogram", garch_file, "--lags", "3"])
    config = cli.config_from_args(args)
    assert config.seed == 99


# the command-line surface recorded before the CLI fields were declared in one
# table: option string -> (dest, choices, nargs, const, type name)
_OPTION_SPECS = {
    "-h": ("help", None, 0, None, None),
    "--help": ("help", None, 0, None, None),
    "input": ("input", None, None, None, None),
    "--column": ("column", None, None, None, None),
    "--date-column": ("date_column", None, None, None, None),
    "--returns": ("returns_mode", ["raw", "log_returns"], None, None, None),
    "--output": ("output", None, None, None, None),
    "-o": ("output", None, None, None, None),
    "--format": ("output_format", ["csv", "json"], None, None, None),
    "--seed": ("seed", None, None, None, "int"),
    "--q": ("q", None, None, None, "float"),
    "--tail": ("tail", ["upper", "lower", "two_sided"], None, None, None),
    "--lags": ("max_lag", None, None, None, "int"),
    "--replicates": ("replicates", None, "?", 10000, "int"),
    "--block-size": ("mean_block_size", None, None, None, "float"),
    "--band-method": ("band_method", ["centered", "quantile_of_replicates"], None, None, None),
    "--permutations": ("n_perm", None, None, None, "int"),
    "--variant": ("variant", ["target", "source"], None, None, None),
    "--reference-p": ("reference_p", None, None, None, "float"),
    "--model": ("model", ["garch", "sv"], None, None, None),
    "--n": ("n", None, None, None, "int"),
    "--burn-in": ("burn_in", None, None, None, "int"),
    "--omega": ("omega", None, None, None, "float"),
    "--alpha": ("alpha", None, None, None, "float"),
    "--beta": ("beta", None, None, None, "float"),
    "--garch-dof": ("garch_dof", None, None, None, "float"),
    "--phi": ("phi", None, None, None, "float"),
    "--sv-dof": ("sv_dof", None, None, None, "float"),
    "--log-vol-sd": ("log_vol_sd", None, None, None, "float"),
}
_IO = "-h --help --column --date-column --returns --output -o --format --seed".split()
_THRESHOLD_BANDS = "--q --tail --lags --replicates --block-size --band-method".split()
_SIMULATE = ("--model --n --burn-in --omega --alpha --beta --garch-dof --phi --sv-dof "
             "--log-vol-sd -h --help --output -o --format --seed").split()
# subcommand -> (input count, option strings)
CLI_SURFACE = {
    "extremogram": (1, [*_IO, *_THRESHOLD_BANDS, "--permutations"]),
    "cross": (2, [*_IO, *_THRESHOLD_BANDS, "--permutations"]),
    "tri": (3, [*_IO, *_THRESHOLD_BANDS, "--permutations", "--variant"]),
    "returntimes": (1, [*_IO, *_THRESHOLD_BANDS, "--reference-p"]),
    "simulate": (0, _SIMULATE),
    "fit-garch": (1, _IO),
    "devol": (1, _IO),
}


def test_cli_surface():
    subparsers = cli.build_parser()._subparsers._group_actions[0].choices
    actual = {
        name: {opt: (a.dest, a.choices and list(a.choices), a.nargs, a.const,
                     a.type and a.type.__name__)
               for a in sub._actions for opt in a.option_strings or [a.dest]}
        for name, sub in subparsers.items()
    }
    expected = {}
    for name, (n_inputs, options) in CLI_SURFACE.items():
        expected[name] = {opt: _OPTION_SPECS[opt] for opt in options}
        if n_inputs == 1:
            expected[name]["input"] = _OPTION_SPECS["input"]
        elif n_inputs:
            expected[name]["inputs"] = ("inputs", None, n_inputs, None, None)
    assert actual == expected


def test_minimal_argv_gives_the_config_defaults(monkeypatch):
    monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
    parser = cli.build_parser()
    for name, (n_inputs, _) in CLI_SURFACE.items():
        inputs = [f"in{k}.csv" for k in range(n_inputs)]
        config = cli.config_from_args(parser.parse_args([name, *inputs]))
        assert config == cli.AnalysisConfig(subcommand=name, inputs=inputs), name


def test_returntimes_defaults_to_10000_replicates(tmp_path):
    path = write_csv(tmp_path / "iid.csv",
                     [(v,) for v in np.random.default_rng(5).standard_normal(300)])
    doc = cli.run(cli.config_from_args(cli.build_parser().parse_args(["returntimes", path])))
    assert doc.metadata["replicates"] == 10_000


@pytest.mark.parametrize("field,argv", [
    ("returns_mode", ["extremogram", "@", "--returns", "bogus"]),
    ("variant", ["tri", "@", "@", "@", "--variant", "bogus"]),
    ("model", ["simulate", "--model", "bogus"]),
])
def test_unknown_enumerated_value_is_invalid_input(field, argv, tmp_path, capsys):
    path = write_csv(tmp_path / "v.csv", [(float(v),) for v in range(1, 301)])
    argv = [path if a == "@" else a for a in argv]
    config = cli.AnalysisConfig(subcommand=argv[0], inputs=[a for a in argv if a == path],
                                n_perm=9, **{field: "bogus"})
    with pytest.raises(InvalidInput, match=f"unknown {field.replace('_', ' ')} 'bogus'"):
        cli.run(config)
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err


def test_ingest_aligned_rejects_unknown_returns_mode(tmp_path):
    path = write_csv(tmp_path / "v.csv", [(float(v),) for v in range(1, 11)])
    with pytest.raises(InvalidInput, match="unknown returns mode"):
        cli.ingest_aligned([path, path], returns_mode="bogus")


class TestColumnPositions:
    def test_negative_position_on_headerless_file_is_not_a_header(self, tmp_path):
        values = [float(v) for v in range(1, 11)]
        path = write_csv(tmp_path / "plain.csv", [(v,) for v in values])
        assert len(cli.ingest_csv(path, column="0")[0]) == 10
        # "-1" is not a position, so it cannot silently turn row 1 into a header
        with pytest.raises(InvalidInput, match="-1"):
            cli.ingest_csv(path, column="-1")
        assert cli.main(["extremogram", path, "--column", "-1", "-o",
                         str(tmp_path / "o.csv")]) == 2

    @pytest.mark.parametrize("flag", ["--column", "--date-column"])
    def test_superscript_digit_is_a_header_name(self, flag, tmp_path, capsys):
        # "²".isdigit() is true but int("²") raises; like "-1" it names a header column
        path = write_csv(tmp_path / "two.csv", [(float(v), float(-v)) for v in range(1, 11)])
        assert cli.main(["extremogram", path, flag, "²", "-o", str(tmp_path / "o.csv")]) == 2
        assert "column '²' needs a header row" in capsys.readouterr().err
        named = write_csv(tmp_path / "named.csv", [(float(v), float(-v)) for v in range(1, 11)],
                          header=("²", "v"))
        dates = tuple(str(float(v)) for v in range(1, 11))
        options, expected = {"--column": ({"column": "²"}, None),
                             "--date-column": ({"date_column": "²"}, dates)}[flag]
        values, read_dates = cli.ingest_csv(named, **options)
        assert values.tolist() == [float(v) for v in range(1, 11)]
        assert read_dates == expected

    def test_decimal_digits_of_any_script_are_positions(self, tmp_path):
        path = write_csv(tmp_path / "four.csv", [(1.0, 2.0, 3.0, float(v)) for v in range(1, 11)])
        assert cli.ingest_csv(path, column="٣")[0].tolist() == [float(v) for v in range(1, 11)]

    def test_negative_position_beyond_the_columns_is_exit_2(self, tmp_path, capsys):
        path = write_csv(tmp_path / "two.csv", [(float(v), float(-v)) for v in range(1, 11)])
        with pytest.raises(InvalidInput):
            cli.ingest_csv(path, column="-5")
        assert cli.main(["extremogram", path, "--column", "-5", "-o",
                         str(tmp_path / "o.csv")]) == 2
        assert "error:" in capsys.readouterr().err


# sha256 of band documents written by the dense replicate engine (one
# materialized n-length replicate and one dot product per lag per replicate),
# before the event-position engine replaced it; any engine must reproduce
# them byte for byte. Criterion 9 only compares reruns of one build.
PINNED_DOCUMENTS = {
    "sim.csv": "eef8c9b60f33f7e6357f21d563c0815c86c5f8585cf46ff57020dc00f2199c35",
    "extremogram.csv": "fca06949585a082eca9868f4b9923db311350f7eefdbe4bcf6e61fa69ec9ce20",
    "extremogram_lower.csv": "21cf7d9f933738ab8dcb04caf4a9b5e7a1c6fcb7c09d12e357e2fa572ccbe83c",
    "returntimes.csv": "545bdc222d14a3b4826293b0e1f3a8801abf5be54bfe98a23fc21f64c092670d",
    # recorded before the five kernel constructors became one builder
    "sim_b.csv": "d4559927a2dfeb773d618f3e88d4ad41bded510285bd24af8b0332624360816e",
    "sim_c.csv": "7468a8e0e50e46e86b6693ac8073d628f6f62ecbfa7bf2cf5a66738dfeb67090",
    "cross.csv": "efb11cf5db620c4a04bc5f68aa5c4584632adaeaf640cdc52e0ac8a9ac20a81c",
    "tri_target.csv": "cccbef71c4c4bf5a5966b6d820592d908ee5f4383bc3113c4d3020fefb43155c",
    "tri_source.csv": "07d3f327bb28a517428b3662df261da441c6a94fd810550e8156abd7b806b3c5",
    # JSON band documents with replicates and a permutation band, recorded
    # before CSV runs with replicates stopped computing the permutation band
    # they never print; JSON still carries it in the metadata
    "extremogram.json": "44e582418f42f2edda9c601cc3ac827fb25622205c9143c4163ae02b2151c327",
    "cross.json": "42d426d802698d7d14488fa8a3bc64f9b5a1a079f0af65cd8bca53bf0afd23c3",
    "tri_target.json": "ecf091e7e5517d1f4c310cae18269ab06dfaf2ea1c0648e28d6b843a0c642dc7",
}


def test_band_documents_match_pinned_digests(tmp_path, monkeypatch):
    import hashlib

    # JSON metadata records the input paths, so name them relative to tmp_path
    monkeypatch.chdir(tmp_path)
    sims = []
    for name, seed in (("sim.csv", "11"), ("sim_b.csv", "12"), ("sim_c.csv", "13")):
        sims.append(name)
        assert cli.main(["simulate", "--model", "garch", "--n", "3000", "--seed", seed,
                         "-o", sims[-1]]) == 0
    source = [sims[0], "--column", "value"]
    runs = {
        "extremogram.csv": ["extremogram", *source, "--q", "0.95", "--lags", "8",
                            "--replicates", "200", "--block-size", "20", "--permutations", "19",
                            "--seed", "3"],
        "extremogram_lower.csv": ["extremogram", *source, "--q", "0.05", "--tail", "lower",
                                  "--lags", "12", "--replicates", "150", "--block-size", "50",
                                  "--permutations", "19", "--seed", "8",
                                  "--band-method", "quantile_of_replicates"],
        "returntimes.csv": ["returntimes", *source, "--q", "0.9", "--lags", "15",
                            "--replicates", "300", "--block-size", "20", "--seed", "3"],
        "cross.csv": ["cross", *sims[:2], "--column", "value", "--q", "0.95", "--lags", "6",
                      "--replicates", "200", "--block-size", "25", "--permutations", "19",
                      "--seed", "5"],
        "tri_target.csv": ["tri", *sims, "--column", "value", "--q", "0.9", "--lags", "7",
                           "--replicates", "150", "--block-size", "20", "--permutations", "19",
                           "--seed", "4", "--variant", "target"],
        "tri_source.csv": ["tri", *sims, "--column", "value", "--q", "0.95", "--tail", "two_sided",
                           "--lags", "5", "--replicates", "150", "--block-size", "40",
                           "--permutations", "19", "--seed", "6", "--variant", "source",
                           "--band-method", "quantile_of_replicates"],
    }
    for name in ("extremogram", "cross", "tri_target"):
        runs[f"{name}.json"] = runs[f"{name}.csv"] + ["--format", "json"]
    for name, args in runs.items():
        assert cli.main(args + ["-o", name]) == 0, name
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in PINNED_DOCUMENTS}
    assert digests == PINNED_DOCUMENTS


@pytest.mark.parametrize("extra, computed", [
    (["--replicates", "100"], False),
    (["--replicates", "100", "--format", "json"], True),
    ([], True),
], ids=["csv_replicates", "json_replicates", "csv_no_replicates"])
def test_permutation_band_is_computed_only_where_the_document_prints_it(
        extra, computed, garch_file, tmp_path, monkeypatch):
    def permutation_bands(kernel, **kwargs):
        raise RuntimeError("permutation band computed")

    monkeypatch.setattr(cli, "permutation_bands", permutation_bands)
    argv = ["extremogram", garch_file, "--column", "value", "--q", "0.95", "--lags", "3",
            "--permutations", "9", *extra, "-o", str(tmp_path / "o.txt")]
    if computed:
        with pytest.raises(RuntimeError, match="permutation band computed"):
            cli.main(argv)
    else:
        assert cli.main(argv) == 0
        config = cli.config_from_args(cli.build_parser().parse_args(argv))
        assert cli.run(config).metadata["permutation_band"] is None


_BAND_CASES = [case for case, argv in ROUND_TRIPS.items()
               if argv[0] in ("extremogram", "cross", "tri", "returntimes")]


@pytest.mark.parametrize("output_format", ["csv", "json"])
@pytest.mark.parametrize("case", _BAND_CASES)
def test_band_documents_do_not_depend_on_the_split(case, output_format, garch_file, tmp_path,
                                                   force_split):
    files = _case_files(garch_file, tmp_path)
    argv = [files[int(a[1:])] if a.startswith("@") else a for a in ROUND_TRIPS[case]]
    argv += ["--format", output_format]
    documents = []
    for workers in (1, 3):
        forked = force_split(workers)
        out = tmp_path / f"{workers}.{output_format}"
        assert cli.main([*argv, "-o", str(out)]) == 0
        documents.append(out.read_bytes())
        assert (len(forked) > 0) == (workers > 1 and "no_bands" not in case)
    assert documents[0] == documents[1]
    assert_no_children()


def test_document_on_stdout_is_written_once_under_a_split(garch_file, tmp_path):
    # a fresh interpreter writes a line that stays in its stdout buffer (a
    # pipe, so block-buffered) while the split forks: a child that flushed
    # inherited buffers on exit would repeat it
    argv = ["extremogram", garch_file, "--column", "value", "--lags", "3", "--replicates", "101",
            "--permutations", "30", "--format", "json", "--output", "-"]
    script = ("import os, sys\n"
              "from extremogram import cli, resample\n"
              "resample.SPLIT_POSITIONS = 1\n"
              "os.sched_getaffinity = lambda pid: {0, 1, 2}\n"
              "print('buffered before the split')\n"
              "sys.exit(cli.main(sys.argv[1:]))\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.run([sys.executable, "-c", script, *argv], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    expected = tmp_path / "one_process.json"  # 101 * 4000 positions: below the split
    assert cli.main([*argv[:-1], str(expected)]) == 0
    assert proc.stdout == "buffered before the split\n" + expected.read_text()
