import json
import math

import numpy as np
import pytest

import extremogram as xg
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
        series = cli.ingest_csv(path)
        assert series.values.tolist() == values

    def test_header_and_named_column(self, tmp_path):
        path = write_csv(
            tmp_path / "named.csv",
            [("2020-01-01", 1.5, 7.0), ("2020-01-02", 2.5, 8.0)],
            header=("date", "open", "close"),
        )
        series = cli.ingest_csv(path, column="close", date_column="date")
        assert series.values.tolist() == [7.0, 8.0]
        assert series.labels == ("2020-01-01", "2020-01-02")

    def test_price_count_arithmetic(self, tmp_path):
        # 6,444 closing prices become 6,443 log-returns
        rng = np.random.default_rng(3)
        prices = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.01, size=6444)))
        path = write_csv(tmp_path / "prices.csv", [(p,) for p in prices])
        series = cli.ingest_csv(path, returns_mode="log_returns")
        assert len(series) == 6443
        assert np.allclose(series.values, np.diff(np.log(prices)))

    def test_unparseable_row_reports_line_number(self, tmp_path):
        path = write_csv(tmp_path / "bad.csv", [(1.0,), ("oops",), (3.0,)])
        with pytest.raises(InvalidInput) as err:
            cli.ingest_csv(path)
        assert "line 2" in str(err.value)

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
        assert sa.labels == sb.labels == ("d2", "d3")

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

    def test_tri_variants(self, tmp_path):
        rng = np.random.default_rng(12)
        paths = [
            write_csv(tmp_path / f"s{i}.csv", [(v,) for v in rng.standard_normal(600)])
            for i in range(3)
        ]
        for variant, family in (("target", "tri_union_target"), ("source", "tri_union_source")):
            config = cli.AnalysisConfig(
                subcommand="tri", inputs=paths, q=0.9, max_lag=3, n_perm=9,
                seed=0, variant=variant,
            )
            doc = cli.run(config)
            assert doc.metadata["family"] == family
            assert doc.metadata["variant"] == variant

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


class TestExitCodes:
    def test_no_exceedances_is_exit_3(self, tmp_path):
        path = write_csv(tmp_path / "const.csv", [(5.0,)] * 200)
        code = cli.main(
            ["extremogram", path, "--q", "0.9", "--lags", "5", "-o", str(tmp_path / "o.csv")]
        )
        assert code == 3

    def test_invalid_input_is_exit_2(self, tmp_path):
        bad = write_csv(tmp_path / "b.csv", [("x",)] * 3)
        code = cli.main(["extremogram", bad, "-o", str(tmp_path / "o.csv")])
        assert code == 2
        # DegenerateThreshold: no negative quantile for a lower tail
        positive = write_csv(tmp_path / "p.csv", [(float(i),) for i in range(1, 201)])
        code = cli.main(["extremogram", positive, "--tail", "lower", "--q", "0.05",
                         "-o", str(tmp_path / "o.csv")])
        assert code == 2

    def test_fit_short_series_exit_2(self, tmp_path):
        path = write_csv(tmp_path / "short.csv", [(float(i),) for i in range(50)])
        assert cli.main(["fit-garch", path, "-o", str(tmp_path / "o.csv")]) == 2

    def test_success_is_exit_0(self, garch_file, tmp_path):
        code = cli.main(
            ["extremogram", garch_file, "--column", "value", "--q", "0.95",
             "--lags", "3", "--permutations", "9", "-o", str(tmp_path / "o.csv")]
        )
        assert code == 0


# one analysis per subcommand and returntimes reference; "@k" is the k-th input file
_FILE_OPTIONS = ["--column", "value", "--format", "json", "--seed", "7"]
_BANDS = ["--lags", "4", "--permutations", "19", "--replicates", "120", *_FILE_OPTIONS]
ROUND_TRIPS = {
    "extremogram": ["extremogram", "@0", "--q", "0.95", *_BANDS],
    "cross": ["cross", "@0", "@1", "--q", "0.95", *_BANDS],
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
        files = [garch_file]
        for seed in (18, 19):
            sim = xg.simulate_garch(xg.GarchParams(), 4000, burn_in=500, seed=seed)
            files.append(write_csv(tmp_path / f"garch_{seed}.csv", [(v,) for v in sim.values],
                                   header=("value",)))
        args = [files[int(a[1:])] if a.startswith("@") else a for a in ROUND_TRIPS[case]]
        doc = cli.run(cli.config_from_args(cli.build_parser().parse_args(args)))
        again = cli.run(cli.config_from_metadata(doc.metadata))
        assert again.to_json() == doc.to_json()

    def test_round_trip_simulate(self, tmp_path):
        config = cli.AnalysisConfig(
            subcommand="simulate", model="sv", n=500, burn_in=100, seed=13,
            phi=0.85, sv_dof=3.0, output_format="json",
        )
        doc = cli.run(config)
        again = cli.run(cli.config_from_metadata(doc.metadata))
        assert again.to_json() == doc.to_json()

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


def test_seed_env_var(tmp_path, monkeypatch, garch_file):
    monkeypatch.setenv(cli.SEED_ENV_VAR, "99")
    parser = cli.build_parser()
    args = parser.parse_args(["extremogram", garch_file, "--lags", "3"])
    config = cli.config_from_args(args)
    assert config.seed == 99


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
}


def test_band_documents_match_pinned_digests(tmp_path):
    import hashlib

    sims = []
    for name, seed in (("sim.csv", "11"), ("sim_b.csv", "12"), ("sim_c.csv", "13")):
        sims.append(str(tmp_path / name))
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
    for name, args in runs.items():
        assert cli.main(args + ["-o", str(tmp_path / name)]) == 0, name
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in PINNED_DOCUMENTS}
    assert digests == PINNED_DOCUMENTS
