"""CSV ingest against the literal row loop, and the date join of several files.

``oracles.literal_ingest`` keeps every row in a list and tests each cell with
``float`` before parsing it. ``cli.ingest_csv`` splits a plain file with
whole-text string calls, and runs every other file through a row loop that
checks each row and parses its value cell as it reads it.
``oracles.literal_join`` joins with one dict per file; ``cli.ingest_aligned``
with arrays of date ids. Each pair must give the same bytes, dates and errors.
"""

import collections
import csv
import io
import random
import sys

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
PLAIN_LABELS = tuple(label for label in LABELS if '"' not in label)
PLAIN_NUMBERS = tuple(cell for cell in NUMBERS if cell != "5\x1c")  # float needs it stripped


def _random_file(rng: random.Random, plain: bool = False):
    """CSV text and the (column, date_column) selectors to read it with.

    A plain file has no quotes and no blank rows but at the end, only cells
    that ``float`` reads unstripped, and a fault in a third as many rows;
    it may take ``cli.ingest_csv``'s whole-text path. The other files draw
    the same as without the whole-text path, and mostly take the row loop.
    """
    ncols = rng.randint(1, 4)
    dated = ncols > 1 and rng.random() < 0.6  # column 0 holds labels
    names = [f"c{j}" for j in range(ncols)]
    if rng.random() < 0.3 and not plain:
        names[-1] = '"n,1"'
    lines = [",".join(names)] if rng.random() < 0.5 else []
    header = list(lines)
    labels = PLAIN_LABELS if plain else LABELS
    numbers = PLAIN_NUMBERS if plain else NUMBERS
    for _ in range(rng.randint(0, 25)):
        if rng.random() < 0.12 and not plain:
            lines.append(rng.choice(BLANK_ROWS))
            continue
        cells = [rng.choice(labels) if dated and j == 0 else rng.choice(numbers)
                 for j in range(ncols)]
        roll = rng.random() * (3 if plain else 1)
        if roll < 0.05:
            cells[rng.randrange(ncols)] = rng.choice(BAD_CELLS)
        elif roll < 0.07:
            cells[rng.randrange(ncols)] = rng.choice(ODD_NUMBERS)
        elif roll < 0.11:
            cells = cells[:rng.randrange(ncols)]
        lines.append(",".join(cells))
    newline = rng.choice(("\n", "\r\n"))
    ends = newline * rng.randint(1, 3) if plain else newline  # a plain file may end in blank lines
    text = newline.join(lines) + (ends if rng.random() < 0.8 else "")

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


def _count_paths(monkeypatch, seen):
    """Count in ``seen`` the reads the whole-text path takes ("plain") and
    those it leaves to the row loop ("row loop")."""
    split = cli._plain_columns

    def counted(*args):
        parsed = split(*args)
        seen["row loop" if parsed is None else "plain"] += 1
        return parsed

    monkeypatch.setattr(cli, "_plain_columns", counted)


def test_ingest_csv_matches_the_literal_row_loop(tmp_path, monkeypatch):
    # 300 files drawn as without the whole-text path, then 150 drawn plain
    general, plain = random.Random(20090415), random.Random(20090416)
    files = [_random_file(general) for _ in range(300)]
    files += [_random_file(plain, plain=True) for _ in range(150)]
    kinds, paths = collections.Counter(), collections.Counter()
    _count_paths(monkeypatch, paths)
    for case, (text, column, date_column) in enumerate(files):
        path = tmp_path / f"case{case}.csv"
        path.write_bytes(text.encode("utf-8"))
        path = str(path)

        expected = _outcome(lambda: oracles.literal_ingest(text, path, column, date_column))
        assert _outcome(lambda: cli.ingest_csv(path, column, date_column)) == expected, (
            text, column, date_column)
        if case >= 300:
            continue
        if expected[0] == "ok":
            kinds["labelled" if expected[2] else "unlabelled"] += 1
        else:
            kinds[next((m for m in ERRORS if m in expected[1]), "other error")] += 1
    # the general draws reach good series with and without labels and both
    # row errors; all the draws reach each of the two paths
    assert min(kinds[kind] for kind in ("labelled", "unlabelled", *ERRORS)) >= 20, kinds
    assert min(paths["plain"], paths["row loop"]) >= 50, paths


# the first bad line is the one reported, whether a later row is short, empty
# or not finite; a non-finite value is reported only when no row or parse
# error follows it
FIRST_ERROR = {
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


@pytest.mark.parametrize("case", FIRST_ERROR)
def test_the_first_error_is_reported(case, tmp_path):
    text, column, date_column, expected = FIRST_ERROR[case]
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


# the whole-text path must read a file exactly as the row loop does, or leave
# it to the row loop: (text, column, date_column, the path that reads it)
PATHS = {
    "CRLF rows": ("d,v\r\nx,1.5\r\ny,-2\r\n", "v", "d", "plain"),
    "CRLF rows, no final newline": ("v\r\n1\r\n2", "v", None, "plain"),
    "a lone CR before a CRLF": ("v\n1\r\r\n2\n", "v", None, "row loop"),
    "a quote in the header only": ('"v",w\n1,2\n3,4\n', "v", None, "row loop"),
    "quoted dates": ('d,v\n"x",1\n"y",2\n', "v", "d", "row loop"),
    "a row wider than the first": ("a,b\n1,2\n3,4,5\n", "b", None, "row loop"),
    "a row narrower than the first": ("a,b\n1,2\n3\n", "b", None, "row loop"),
    "a narrower row that reaches the column": ("a,b\n1,2\n3\n", "a", None, "row loop"),
    "a blank row in the middle": ("v\n1\n\n2\n", "v", None, "row loop"),
    "a whitespace-only row in the middle": ("v\n1\n \t \n2\n", "v", None, "row loop"),
    "a ',' row in the middle": ("a,b\n1,2\n,\n3,4\n", "b", None, "row loop"),
    "a whitespace-only row at the end": ("v\n1\n2\n  \n", "v", None, "row loop"),
    "a ',' row at the end": ("a,b\n1,2\n,\n", "b", None, "row loop"),
    "several final newlines": ("v\n1\n2\n\n\n", "v", None, "plain"),
    "one blank line at the end": ("d,v\nx,1\ny,2\n\n", "v", "d", "plain"),
    "several final CRLFs": ("v\r\n1\r\n2\r\n\r\n", "v", None, "plain"),
    # csv.reader rejects a NUL anywhere before Python 3.11
    "a NUL in a date cell": ("d,v\nx\x00,1\ny,2\n", "v", "d", "row loop"),
    "a NUL in a column not read": ("a,b,v\n1,2\x00,3\n4,5,6\n", "v", None, "row loop"),
    "a NUL in the header": ("d\x00,v\nx,1\n", "v", None, "row loop"),
    "no final newline": ("d,v\nx,1\ny,2", "v", "d", "plain"),
    "a leading blank line": ("\nv\n1\n", "v", None, "row loop"),
    # read as a header, the blank row would give the empty name a column
    "a leading blank row, then data": (",\n1,2\n", "", None, "row loop"),
    "a byte-order mark": ("\ufeffd,v\nx,1\ny,2\n", "v", "d", "plain"),
    "non-ASCII labels and digits": ("日付,値\n二〇二〇,١٢\nß,3\n", "値", "日付", "plain"),
    "padded cells": ("d,v\n x ,  3.75 \ny\t,\t-4e2\n", "v", "d", "plain"),
    "a cell float reads only stripped": ("v\n5\x1c\n1\n", "v", None, "row loop"),
    "an underscore in a number": ("v\n1_000\n2\n", "v", None, "plain"),
    "a header-only file": ("a,b\n", "b", None, "row loop"),
    "a non-finite value": ("v\n1\ninf\n", "v", None, "row loop"),
    "a column past the first row": ("a,b\n1,2\n", "2", None, "row loop"),
    "a name not in the header": ("a,b\n1,2\n", "c", None, "row loop"),
}


def _read_both(path, text, column, date_column, monkeypatch):
    """The outcome of ``cli.ingest_csv`` and of the literal row loop, and the
    path ``cli.ingest_csv`` took."""
    seen = collections.Counter()
    _count_paths(monkeypatch, seen)
    got = _outcome(lambda: cli.ingest_csv(path, column, date_column))
    [taken] = seen
    # a byte-order mark is dropped before either path parses the text
    expected = _outcome(lambda: oracles.literal_ingest(
        text.removeprefix("\ufeff"), path, column, date_column))
    return got, expected, taken


@pytest.mark.parametrize("case", PATHS)
def test_each_path_reads_as_the_literal_row_loop(case, tmp_path, monkeypatch):
    text, column, date_column, path_taken = PATHS[case]
    path = tmp_path / "f.csv"
    path.write_bytes(text.encode("utf-8"))
    got, expected, taken = _read_both(str(path), text, column, date_column, monkeypatch)
    assert got == expected
    assert taken == path_taken


def test_a_lone_carriage_return_inside_a_row_is_a_row_error(tmp_path, monkeypatch):
    # csv.reader rejects it, so the literal loop cannot read the file either
    path = tmp_path / "f.csv"
    path.write_bytes(b"v\n1\r2\n")
    seen = collections.Counter()
    _count_paths(monkeypatch, seen)
    with pytest.raises(InvalidInput) as err:
        cli.ingest_csv(str(path), "v")
    assert str(err.value).startswith(f"{path}: line 2: new-line character seen in unquoted field")
    assert seen == {"row loop": 1}


def test_a_field_over_the_csv_limit_takes_the_row_loop(tmp_path, monkeypatch):
    previous = csv.field_size_limit()
    cases = {  # text -> (values, or the error after the path), the path taken
        "v\n1\n12345678\n": ([1.0, 12345678.0], "plain"),  # eight characters: at the limit
        "v\n1\n123456789\n": ("line 3: field larger than field limit (8)", "row loop"),
        "v\n1\n١٢٣٤٥\n": ([1.0, 12345.0], "row loop"),  # five characters, ten bytes
    }
    csv.field_size_limit(8)
    try:
        for text, (expected, path_taken) in cases.items():
            path = tmp_path / "f.csv"
            path.write_bytes(text.encode("utf-8"))
            seen = collections.Counter()
            _count_paths(monkeypatch, seen)
            got = _outcome(lambda: cli.ingest_csv(str(path), "v"))
            assert seen == {path_taken: 1}, text
            if isinstance(expected, str):
                assert got == ("error", f"{path}: {expected}")
            else:
                assert got == ("ok", np.array(expected).tobytes(), None)
                assert got == _outcome(lambda: oracles.literal_ingest(text, str(path), "v"))
    finally:
        csv.field_size_limit(previous)
    assert csv.field_size_limit() == previous


def test_standard_input_takes_the_plain_path(monkeypatch):
    text = "d,v\nx,1.5\ny,-2\n"
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    got, expected, taken = _read_both("-", text, "v", "d", monkeypatch)
    assert got == expected == ("ok", np.array([1.5, -2.0]).tobytes(), ("x", "y"))
    assert taken == "plain"


def test_float_reads_a_whitespace_padded_cell_as_its_stripped_cell():
    # the whole-text path hands value cells to float unstripped; the row loop
    # strips them first. Where float accepts the padding it must agree, and
    # where it does not, the file falls to the row loop.
    rejected = []
    for c in map(chr, range(sys.maxunicode + 1)):
        if not c.isspace():
            continue
        cell = c + "1.5" + c
        try:
            value = float(cell)
        except ValueError:
            rejected.append(c)
            continue
        assert value == float(cell.strip()) == 1.5, repr(c)
    assert rejected == ["\x1c", "\x1d", "\x1e", "\x1f"]


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


# files whose date columns are the same tuple, or nearly so
DATES = ["2020-01-02", "2020-01-03", "2020-01-06", "2020-01-07", "2020-01-08"]
SAME_DATES = {
    "three files, identical dates": [DATES, DATES, DATES],
    "identical dates, one repeated in the first file": [DATES + DATES[1:2]] * 3,
    "identical dates except one": [DATES, DATES, DATES[:2] + ["2020-01-09"] + DATES[3:]],
    "the same dates in another order": [DATES, DATES[::-1], DATES],
}


@pytest.mark.parametrize("case", SAME_DATES)
def test_files_with_the_same_dates_match_the_literal_join(case, tmp_path):
    rng = random.Random(case)
    texts = ["date,v\n" + "".join(f"{d},{rng.gauss(0.0, 1.0)!r}\n" for d in dates)
             for dates in SAME_DATES[case]]
    paths = []
    for j, text in enumerate(texts):
        path = tmp_path / f"f{j}.csv"
        path.write_text(text)
        paths.append(str(path))
    expected = _join_outcome(lambda: oracles.literal_join(texts, paths, "v", "date"))
    assert _join_outcome(lambda: cli.ingest_aligned(paths, "v", "date")) == expected
    if "repeated" in case:
        assert expected == ("error", f"{paths[0]}: duplicate dates prevent joining")
    else:
        assert expected[0] == "ok" and len(expected[1][0]) == 8 * (5 - ("except" in case))
