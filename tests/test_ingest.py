"""CSV ingest against the literal row loop, and the date join of several files.

``oracles.literal_ingest`` keeps every row in a list and tests each cell with
``float`` before parsing it; ``cli.ingest_csv`` collects the value cells and
converts them in one pass after the loop. ``oracles.literal_join`` joins with
one dict per file; ``cli.ingest_aligned`` with arrays of date ids. Each pair
must give the same bytes, dates and errors.
"""

import collections
import random

import numpy as np
import pytest

import oracles
from extremogram import cli
from extremogram.errors import InvalidInput

NUMBERS = (
    "1.5", "-2.25", "0", "1_000", "1e-300", "-0.0", "  3.75 ", "\t-4e2", "5\x1c",
    " 6 ", "١٢", "123456789.123456789", "2.5e+10",
)
ODD_NUMBERS = ("nan", "inf", "1e999")
# "1.0\x00" is not a number to float, though numpy's string parsing reads it as 1.0
BAD_CELLS = ("oops", "", "1.0.0", "1,5", "--1", "1.0\x00")
LABELS = ("2020-01-01", " d2 ", '"a,b"', '"x, ""y"""', "2020-01-03\t", '"two\nlines"')
BLANK_ROWS = ("", "   ", ",", " , ", "\t", '""')
ERRORS = ("cannot parse", "too few columns")


def _random_file(rng: random.Random):
    """CSV text and the (column, date_column) selectors to read it with."""
    ncols = rng.randint(1, 4)
    dated = ncols > 1 and rng.random() < 0.6  # column 0 holds labels
    names = [f"c{j}" for j in range(ncols)]
    if rng.random() < 0.3:
        names[-1] = '"n,1"'
    lines = [",".join(names)] if rng.random() < 0.5 else []
    header = list(lines)
    for _ in range(rng.randint(0, 25)):
        if rng.random() < 0.12:
            lines.append(rng.choice(BLANK_ROWS))
            continue
        cells = [rng.choice(LABELS) if dated and j == 0 else rng.choice(NUMBERS)
                 for j in range(ncols)]
        roll = rng.random()
        if roll < 0.05:
            cells[rng.randrange(ncols)] = rng.choice(BAD_CELLS)
        elif roll < 0.07:
            cells[rng.randrange(ncols)] = rng.choice(ODD_NUMBERS)
        elif roll < 0.11:
            cells = cells[:rng.randrange(ncols)]
        lines.append(",".join(cells))
    newline = rng.choice(("\n", "\r\n"))
    text = newline.join(lines) + (newline if rng.random() < 0.8 else "")

    def selector(position):
        # a name selects by header; on a headerless file it is an error
        if rng.random() > (0.6 if header else 0.1):
            return str(position)
        return {'"n,1"': "n,1"}.get(names[position], names[position])

    column = selector(rng.randrange(1 if dated else 0, ncols))
    if rng.random() < 0.05:
        column = rng.choice(("9", "missing"))
    date_column = selector(0) if dated and rng.random() < 0.7 else None
    return text, column, date_column


def _outcome(read):
    try:
        values, labels = read()
    except (InvalidInput, oracles.IngestError) as exc:
        return "error", str(exc)
    return "ok", values.tobytes(), labels


def test_ingest_csv_matches_the_literal_row_loop(tmp_path):
    rng = random.Random(20090415)
    seen = collections.Counter()
    for case in range(300):
        text, column, date_column = _random_file(rng)
        path = tmp_path / f"case{case}.csv"
        path.write_bytes(text.encode("utf-8"))
        path = str(path)

        expected = _outcome(lambda: oracles.literal_ingest(text, path, column, date_column))
        assert _outcome(lambda: cli.ingest_csv(path, column, date_column)) == expected, (
            text, column, date_column)
        if expected[0] == "ok":
            seen["labelled" if expected[2] else "unlabelled"] += 1
        else:
            seen[next((m for m in ERRORS if m in expected[1]), "other error")] += 1
    # the generator reaches good series with and without labels and both row errors
    assert min(seen[kind] for kind in ("labelled", "unlabelled", *ERRORS)) >= 20, seen


# the value cells are parsed after the row loop: the first bad line must still
# be the one reported, whether a later row is short, empty or not finite
DEFERRED_PARSE = {
    "bad number, then a short row": (
        "a,b\n1,2\n3,oops\n4\n", "b", None, "line 3: cannot parse 'oops' as a number"),
    "bad number, then an empty value cell": (
        "1\n\n2x\n \n", "0", None, "line 3: cannot parse '2x' as a number"),
    "not finite on line 3, then a bad number on line 5": (
        "v\n1\nnan\n2\noops\n", "v", None, "line 5: cannot parse 'oops' as a number"),
    "not finite, then a short row": (
        "d,v\nx,1\ny,inf\nz\n", "v", "d", "line 4: too few columns"),
    "a whitespace-only row wide enough for both columns": (
        "d,v\nx,1\n , \n\t,\ny,2\n", "v", "d", ([1.0, 2.0], ("x", "y"))),
    "a blank value cell next to a date": (
        "d,v\nx,1\ny, \n", "v", "d", "line 3: cannot parse '' as a number"),
    "a blank value cell after a bad number": (
        "d,v\nx,1e\ny,\n", "v", "d", "line 2: cannot parse '1e' as a number"),
    # float("5\x1c") raises; the stripped cell is 5.0
    "a value cell ending in a separator character": ("v\n5\x1c\n", "v", None, ([5.0], None)),
    "the first non-finite value": (
        "v\n1\n\n-inf\nnan\n", "v", None, "line 4: '-inf' is not a finite number"),
}


@pytest.mark.parametrize("case", DEFERRED_PARSE)
def test_deferred_parse_keeps_the_first_error(case, tmp_path):
    text, column, date_column, expected = DEFERRED_PARSE[case]
    path = tmp_path / "f.csv"
    path.write_bytes(text.encode("utf-8"))
    path = str(path)
    got = _outcome(lambda: cli.ingest_csv(path, column, date_column))
    assert got == _outcome(lambda: oracles.literal_ingest(text, path, column, date_column))
    if isinstance(expected, str):
        assert got == ("error", f"{path}: {expected}")
    else:
        values, dates = expected
        assert got == ("ok", np.array(values).tobytes(), dates)


# a column position past the end of the first row probes every cell of it: a
# numeric row is data, and its own line is the first that is too short
HEADER_PROBE = {
    "headerless, two rows": ("1,2\n3,4\n", "5", "line 1: too few columns"),
    "headerless, one row": ("1,2\n", "5", "line 1: too few columns"),
    "a header shorter than its data rows": ("a,b\n1,2,3\n4,5,6\n", "2", ([3.0, 6.0], None)),
    "a header without the position": ("a,b\n1,2\n", "5", "line 2: too few columns"),
    "a header row and nothing under it": ("a,b\n", "5", "no data rows"),
}


@pytest.mark.parametrize("case", HEADER_PROBE)
def test_position_past_the_first_row_probes_every_cell(case, tmp_path):
    text, column, expected = HEADER_PROBE[case]
    path = tmp_path / "f.csv"
    path.write_bytes(text.encode("utf-8"))
    path = str(path)
    got = _outcome(lambda: cli.ingest_csv(path, column))
    assert got == _outcome(lambda: oracles.literal_ingest(text, path, column))
    if isinstance(expected, str):
        assert got == ("error", f"{path}: {expected}")
    else:
        values, dates = expected
        assert got == ("ok", np.array(values).tobytes(), dates)


def _dated(tmp_path, name, rows):
    text = "date,v\n" + "".join(f"{d},{v!r}\n" for d, v in rows)
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestJoin:
    def test_three_files_keep_the_first_order_and_their_own_rows(self, tmp_path):
        a = _dated(tmp_path, "a.csv", [("d5", 5.0), ("d1", 1.0), ("d3", 3.0), ("d2", 2.0)])
        b = _dated(tmp_path, "b.csv", [("d2", 20.0), ("d9", 90.0), ("d3", 30.0), ("d5", 50.0)])
        c = _dated(tmp_path, "c.csv", [("d3", 300.0), ("d5", 500.0), ("d1", 100.0),
                                       ("d2", 200.0)])
        sa, sb, sc = cli.ingest_aligned([a, b, c], column="v", date_column="date")
        assert sa.values.tolist() == [5.0, 3.0, 2.0]
        assert sb.values.tolist() == [50.0, 30.0, 20.0]
        assert sc.values.tolist() == [500.0, 300.0, 200.0]

    @pytest.mark.parametrize("position", [1, 2])
    def test_duplicate_dates_name_their_own_file(self, tmp_path, position):
        rows = [("d1", 1.0), ("d2", 2.0), ("d3", 3.0)]
        paths = [_dated(tmp_path, f"f{i}.csv", rows) for i in range(3)]
        paths[position] = _dated(tmp_path, "dup.csv", rows + [("d2", 4.0)])
        with pytest.raises(InvalidInput) as err:
            cli.ingest_aligned(paths, column="v", date_column="date")
        assert str(err.value) == f"{paths[position]}: duplicate dates prevent joining"

    def test_without_a_date_column_lengths_must_match(self, tmp_path):
        a = _dated(tmp_path, "a.csv", [("d1", 1.0), ("d2", 2.0)])
        b = _dated(tmp_path, "b.csv", [("d1", 1.0), ("d2", 2.0), ("d3", 3.0)])
        with pytest.raises(InvalidInput, match="must have equal length"):
            cli.ingest_aligned([a, b], column="v")
        sa, sb = cli.ingest_aligned([a, a], column="v")
        assert sa.values.tolist() == sb.values.tolist() == [1.0, 2.0]


def _random_join(rng: random.Random):
    """Two or three dated CSV texts, each in its own shuffled row order, and
    the kind of case: dates drawn at random, no date shared by every file,
    exactly one shared date; a file may repeat a date, possibly one the first
    file lacks."""
    universe = [f"2020-{m:02d}-{d:02d}" for m in (1, 2) for d in range(1, 13)]
    rng.shuffle(universe)
    kind = rng.choice(("random", "random", "disjoint", "one shared"))
    count = rng.choice((2, 3))
    cut = rng.randint(1, len(universe) - 1)
    files = []
    for j in range(count):
        if kind == "random":
            pool = universe
        elif j == 0:  # the other files draw from the rest of the universe only
            pool = universe[:cut]
        else:
            pool = universe[cut:]
        dates = [d for d in pool if rng.random() < 0.7] or [rng.choice(pool)]
        if kind == "one shared":  # universe[0] is in the first file's pool
            dates = [universe[0], *(d for d in dates if d != universe[0])]
        files.append(dates)
    duplicate = None
    if rng.random() < 0.3:
        j = rng.randrange(count)
        absent = [d for d in universe if d not in files[0]]
        if j and absent and rng.random() < 0.5:
            files[j] += 2 * [rng.choice(absent)]
            duplicate = "duplicate absent from the first file"
        else:
            files[j].append(rng.choice(files[j]))
            duplicate = "duplicate"
    texts = []
    for dates in files:
        rows = [f"{d},{rng.gauss(0.0, 1.0)!r}\n" for d in dates]
        rng.shuffle(rows)
        texts.append("date,v\n" + "".join(rows))
    return texts, duplicate or kind


def _join_outcome(join):
    try:
        columns = join()
    except (InvalidInput, oracles.IngestError) as exc:
        return "error", str(exc)
    return "ok", [np.asarray(getattr(c, "values", c)).tobytes() for c in columns]


def test_ingest_aligned_matches_the_literal_join(tmp_path):
    rng = random.Random(20090416)
    seen = collections.Counter()
    for case in range(300):
        texts, kind = _random_join(rng)
        paths = []
        for j, text in enumerate(texts):
            path = tmp_path / f"case{case}_{j}.csv"
            path.write_text(text)
            paths.append(str(path))
        expected = _join_outcome(lambda: oracles.literal_join(texts, paths, "v", "date"))
        got = _join_outcome(lambda: cli.ingest_aligned(paths, "v", "date"))
        assert got == expected, (texts, kind)
        if expected[0] == "error":
            seen[expected[1].split(": ")[-1]] += 1
        else:
            seen[f"{len(texts)} files"] += 1
            seen["one shared date"] += len(expected[1][0]) == 8
        seen[kind] += 1
    # every kind of case is drawn, and each outcome is reached
    for outcome in ("2 files", "3 files", "one shared date", "duplicate dates prevent joining",
                    "the input files share no dates", "duplicate absent from the first file"):
        assert seen[outcome] >= 10, seen
