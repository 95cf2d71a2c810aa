
import hashlib
import io
import json
import pickle
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import MINCUT_DEMO_8X3, MINCUT_DEMO_TEXT
from factorid.errors import DimensionError, EmptyInputError, InvalidArgumentError, ParseError
from factorid.pattern import (
    SparsityPattern,
    parse_jsonl_record,
    parse_pattern,
    trim,
)


@st.composite
def patterns(draw, max_m=7, max_r=5):
    m = draw(st.integers(1, max_m))
    r = draw(st.integers(1, max_r))
    rows = draw(
        st.lists(
            st.lists(st.integers(0, 1), min_size=r, max_size=r),
            min_size=m,
            max_size=m,
        )
    )
    return SparsityPattern.from_rows(rows)


# dense-text pieces: cells, every blank and line end, and bytes that are
# none of them (a comment mark, a digit other than 0/1, a non-ASCII byte, a
# byte str.split() takes for whitespace and bytes.split() does not, a
# two-digit token)
DENSE_PIECES = [b"0", b"1", b" ", b"\t", b"\r", b"\n", b"\x0b", b"\x0c", b"#", b"2", b"\xff",
                b"\x1c", b"00"]


@st.composite
def dense_grids(draw):
    """Dense texts that mostly parse: rows of a common width, random blanks
    and line ends, comment lines, and now and then a stray piece."""
    width = draw(st.integers(1, 4))

    def blanks(min_size):
        return draw(st.text(" \t\x0b\x0c", min_size=min_size, max_size=2)).encode()

    lines = []
    for _ in range(draw(st.integers(0, 5))):
        if draw(st.booleans()) and draw(st.booleans()):
            line = blanks(0) + b"#" + b"".join(draw(st.lists(st.sampled_from(DENSE_PIECES))))
        else:
            cells = draw(st.lists(st.sampled_from(DENSE_PIECES[:2]), min_size=width,
                                  max_size=width + draw(st.sampled_from([0, 0, 0, 1]))))
            line = b"".join(blanks(int(k > 0)) + cell for k, cell in enumerate(cells)) + blanks(0)
            if draw(st.integers(0, 9)) == 0:
                line += draw(st.sampled_from(DENSE_PIECES))
        lines.append(line + draw(st.sampled_from([b"\n", b"\r", b"\r\n"])))
    return b"".join(lines)


def outcome(parse, data):
    """What a parse returns, (m, col_masks), or raises: the exception's
    class, message, line and column."""
    try:
        return parse(data)
    except (ParseError, DimensionError, EmptyInputError) as e:
        return type(e), str(e), getattr(e, "line", None), getattr(e, "column", None)


class TestParseDense:
    def test_basic(self):
        p = parse_pattern(b"1 0\n0 1\n1 1\n")
        assert p.entries == ((1, 0), (0, 1), (1, 1))

    def test_demo_text_with_comments(self, mincut_demo_8x3):
        assert parse_pattern(MINCUT_DEMO_TEXT) == mincut_demo_8x3

    def test_tabs_and_blank_lines(self):
        p = parse_pattern("1\t0\n\n  \n0 1\n")
        assert p.entries == ((1, 0), (0, 1))

    def test_ragged_row(self):
        with pytest.raises(DimensionError) as exc:
            parse_pattern(b"1 0\n0 1 1\n")
        assert exc.value.line == 2

    def test_bad_token(self):
        with pytest.raises(ParseError) as exc:
            parse_pattern(b"1 0\n0 2\n")
        assert exc.value.line == 2
        assert exc.value.column == 3

    def test_bad_token_message_names_line_and_column(self):
        with pytest.raises(ParseError, match=r"'2' at line 2, column 3$"):
            parse_pattern(b"1 0\n0 2\n")

    def test_empty(self):
        with pytest.raises(EmptyInputError):
            parse_pattern(b"")
        with pytest.raises(EmptyInputError):
            parse_pattern(b"# only a comment\n\n")

    @given(st.one_of(st.lists(st.sampled_from(DENSE_PIECES)).map(b"".join), dense_grids()))
    @example(b"1 0\r\n0 1\r\n")  # CRLF
    @example(b"1 0\r0 1\n1 1")  # a lone CR ends a line
    @example(b"1\x0b0\x0c1\n\x0c0 1\x0b1\n")  # vertical tab and form feed separate cells
    @example(b"  # 11 2 \xff\n1 0\n\t#11\n0 1\n")  # comments may hold anything
    @example(b"1 0\n0 1 # 11\n")  # a '#' after a cell is a bad token
    @example(b"1 0\n1 1 1\n0 2\n")  # the ragged row comes first
    @example(b"1 \x1c 0\n")
    @settings(max_examples=600)
    def test_matches_per_line_reference(self, data):
        p = outcome(parse_pattern, data)
        if isinstance(p, SparsityPattern):
            p = p.m, p.col_masks
        assert p == outcome(oracles.parse_dense_per_line, data)

    def test_large_pattern_against_numpy(self):
        rng = np.random.default_rng(15)
        mat = rng.random((1000, 50)) < 0.3
        text = "\n".join(" ".join(map(str, row)) for row in mat.astype(int)) + "\n"
        p = parse_pattern(text)
        assert (p.m, p.r) == mat.shape
        assert np.array_equal(np.array(p.entries, dtype=bool), mat)
        assert (p.m, p.col_masks) == oracles.parse_dense_per_line(text.encode())


def parse_masks(data):
    """(m, col_masks) of the pattern that `parse_pattern` reads from data."""
    p = parse_pattern(data)
    return p.m, p.col_masks


class DenseRowsCalled(Exception):
    """Raised by a _dense_rows that a test forbids; no parser handler catches it."""


def refuse_dense_rows(data):
    raise DenseRowsCalled


# texts in and near the form numpy.savetxt(fmt="%d") writes, and whether the
# strided path reads them; every other text goes through _dense_rows
SAVETXT_NEAR_MISSES = {
    "savetxt_form": (b"1 0 1\n0 1 1\n", True),
    "width_1": (b"1\n0\n", True),
    "one_row": (b"0 1 1 0\n", True),
    "no_final_newline": (b"1 0\n0 1", False),
    "one_cell_no_newline": (b"1", False),
    "cell_after_last_newline": (b"1 0\n1", False),  # a half row: len % 2w catches it
    "trailing_space": (b"1 0 \n0 1 \n", False),
    "two_spaces": (b"1  0\n0  1\n", False),
    "tab": (b"1\t0\n0 1\n", False),
    "crlf": (b"1 0\r\n0 1\r\n", False),
    "leading_blank_line": (b"\n1 0\n0 1\n", False),
    "comment_line": (b"# 1\n1 0\n", False),  # separators in place, '#' in a cell slot
    "cell_2": (b"1 0\n2 1\n", False),
    "hash_in_cell_slot": (b"1 0\n0 #\n", False),
    "ragged_row_length_multiple_of_2w": (b"1 0\n1 0 1 1\n", False),
    "only_newline": (b"\n", False),
    "empty": (b"", False),
}


@pytest.mark.parametrize("data, fast", SAVETXT_NEAR_MISSES.values(), ids=SAVETXT_NEAR_MISSES.keys())
def test_strided_path_agrees_with_per_line_reference(monkeypatch, data, fast):
    expected = outcome(oracles.parse_dense_per_line, data)
    assert outcome(parse_masks, data) == expected
    monkeypatch.setattr("factorid.pattern._dense_rows", refuse_dense_rows)
    if fast:
        assert parse_masks(data) == expected
    else:
        with pytest.raises(DenseRowsCalled):
            parse_pattern(data)


def test_savetxt_text_skips_dense_rows(monkeypatch):
    """The strided path stays live: the 1000x50 pattern of
    test_large_pattern_against_numpy, as numpy.savetxt writes it, parses
    with _dense_rows made to raise."""
    mat = np.random.default_rng(15).random((1000, 50)) < 0.3
    buf = io.BytesIO()
    np.savetxt(buf, mat.astype(int), fmt="%d")
    data = buf.getvalue()
    monkeypatch.setattr("factorid.pattern._dense_rows", refuse_dense_rows)
    assert parse_masks(data) == oracles.parse_dense_per_line(data)


# bytes that a one-byte edit puts into a savetxt-form text
EDIT_BYTES = [b"0", b"1", b" ", b"\t", b"\r", b"\n", b"#", b"2"]


@st.composite
def edited_savetxt_texts(draw):
    """numpy.savetxt(fmt="%d") texts of grids up to 5x4, most with one byte
    inserted, deleted or replaced."""
    m, width = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    cells = draw(st.lists(st.sampled_from([b"0", b"1"]), min_size=m * width,
                          max_size=m * width))
    data = b"".join(b" ".join(cells[i:i + width]) + b"\n" for i in range(0, m * width, width))
    at = draw(st.integers(0, len(data)))
    edit = draw(st.sampled_from(["none", "insert", "delete", "replace"]))
    if edit == "insert":
        data = data[:at] + draw(st.sampled_from(EDIT_BYTES)) + data[at:]
    elif edit == "delete":
        data = data[:at] + data[at + 1:]
    elif edit == "replace":
        data = data[:at] + draw(st.sampled_from(EDIT_BYTES)) + data[at + 1:]
    return data


@given(edited_savetxt_texts())
@example(b"1 0\n0 1\n1")  # a half row: strides agree, the length does not
@settings(max_examples=400, derandomize=True)
def test_strided_path_agrees_with_per_line_reference_on_edited_texts(data):
    assert outcome(parse_masks, data) == outcome(oracles.parse_dense_per_line, data)


class TestParseJsonl:
    def test_single_record(self):
        p = parse_pattern(b'{"id": "a", "delta": [[1,0],[0,1]]}\n', "jsonl_record")
        assert p.entries == ((1, 0), (0, 1))

    def test_record_with_dims(self):
        rec_id, p = parse_jsonl_record('{"id": 3, "delta": [[1],[0]], "m": 2, "r": 1}')
        assert rec_id == 3
        assert (p.m, p.r) == (2, 1)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionError):
            parse_jsonl_record('{"id": 1, "delta": [[1],[0]], "m": 3}')

    @pytest.mark.parametrize("key", ["m", "r"])
    @pytest.mark.parametrize("value", ["true", "1.0", "2.0"])
    def test_non_integer_dims_rejected(self, key, value):
        # m=2.0, r=1.0 and r=true equal the real dimensions of this record
        with pytest.raises(ParseError):
            parse_jsonl_record(f'{{"id": 1, "delta": [[1],[0]], "{key}": {value}}}')

    def test_bad_json(self):
        with pytest.raises(ParseError):
            parse_jsonl_record("{nope")

    @pytest.mark.parametrize("line, column", [
        (b"{broken", 2),
        (b"{broken\n", 2),
        (b'{"id": 1, "delta": [[1],[0]\n', 29),  # one past the last character
    ])
    def test_bad_json_reports_column(self, line, column):
        with pytest.raises(ParseError) as exc:
            parse_jsonl_record(line)
        assert (exc.value.line, exc.value.column) == (None, column)
        assert str(exc.value).endswith(f" at column {column}")

    def test_missing_id(self):
        with pytest.raises(ParseError):
            parse_jsonl_record('{"delta": [[1]]}')

    def test_non_binary_entries(self):
        with pytest.raises(ParseError):
            parse_jsonl_record('{"id": 1, "delta": [[true]]}')
        with pytest.raises(ParseError):
            parse_jsonl_record('{"id": 1, "delta": [[2]]}')

    @pytest.mark.parametrize("cell, shown", [
        ("true", "True"), ("2", "2"), ("1.0", "1.0"), ('"1"', "'1'"),
        ("null", "None"), ("300", "300"),
    ])
    def test_bad_cell_message(self, cell, shown):
        message = f"'delta' entries must be 0 or 1, got {shown}"
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            parse_jsonl_record(f'{{"id": 1, "delta": [[1, 0], [0, {cell}]]}}')
        # a bad cell is named before a later row's ragged length
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            parse_jsonl_record(f'{{"id": 1, "delta": [[{cell}, 0], [0]]}}')

    def test_ragged_delta(self):
        with pytest.raises(DimensionError):
            parse_jsonl_record('{"id": 1, "delta": [[1,0],[1]]}')
        with pytest.raises(ParseError, match="^'delta' row 1 is not an array$"):
            parse_jsonl_record('{"id": 1, "delta": [[1,0],1,[2]]}')

    def test_empty_delta(self):
        with pytest.raises(EmptyInputError):
            parse_jsonl_record('{"id": 1, "delta": []}')
        with pytest.raises(EmptyInputError):
            parse_jsonl_record('{"id": 1, "delta": [[],[]]}')

    def test_multiple_lines_rejected(self):
        text = b'{"id":1,"delta":[[1]]}\n{"id":2,"delta":[[1]]}\n'
        with pytest.raises(ParseError):
            parse_pattern(text, "jsonl_record")


class JsonLoadsCalled(Exception):
    """Raised by a json.loads that a test forbids; no parser handler catches it."""


def refuse_json_loads(*args, **kwargs):
    raise JsonLoadsCalled


# lines in and near the json.dumps form of a draw record, and whether the
# regex path reads them; every other line goes through json.loads
NEAR_MISSES = {
    "dumps_form": (b'{"id": 7, "delta": [[1, 0, 1], [0, 1, 1]]}', True),
    "zero_id": (b'{"id": 0, "delta": [[1]]}', True),
    "minus_zero_id": (b'{"id": -0, "delta": [[0, 1]]}', True),
    "leading_zeros_id": (b'{"id": 007, "delta": [[1]]}', False),
    "id_18_digits": (b'{"id": 123456789012345678, "delta": [[1]]}', True),
    "negative_id_18_digits": (b'{"id": -999999999999999999, "delta": [[1]]}', True),
    "id_19_digits": (b'{"id": 1234567890123456789, "delta": [[1]]}', False),
    "string_id": (b'{"id": "a", "delta": [[1]]}', False),
    "escaped_string_id": (b'{"id": "\\u0061", "delta": [[1]]}', False),
    "true_cell": (b'{"id": 1, "delta": [[1, true]]}', False),
    "cell_2": (b'{"id": 1, "delta": [[1, 0], [2, 0]]}', False),
    "empty_row": (b'{"id": 1, "delta": [[]]}', False),
    "no_rows": (b'{"id": 1, "delta": []}', False),
    "ragged_rows": (b'{"id": 1, "delta": [[1, 0], [1]]}', False),
    "duplicate_id": (b'{"id": 1, "id": 2, "delta": [[1]]}', False),
    "duplicate_delta": (b'{"id": 1, "delta": [[1]], "delta": [[0]]}', False),
    "m_key": (b'{"id": 1, "delta": [[1], [0]], "m": 2}', False),
    "keys_swapped": (b'{"delta": [[1]], "id": 1}', False),
    "compact_spacing": (b'{"id": 1, "delta": [[1,0],[0,1]]}', False),
    "trailing_bytes": (b'{"id": 1, "delta": [[1]]} 1', False),
    "form_feed_after": (b'{"id": 1, "delta": [[1]]}\x0c', False),
    "crlf_ending": (b'{"id": 1, "delta": [[1, 0], [0, 1]]}\r\n', True),
    "json_whitespace_around": (b' \t\r{"id": 1, "delta": [[1]]} \n', True),
}


@pytest.mark.parametrize("line, fast", NEAR_MISSES.values(), ids=NEAR_MISSES.keys())
def test_regex_path_agrees_with_json_loads(monkeypatch, line, fast):
    expected = outcome(parse_jsonl_record, line.decode())  # a str line takes json.loads
    assert outcome(parse_jsonl_record, line) == expected
    assert outcome(parse_jsonl_record, bytearray(line)) == expected
    monkeypatch.setattr(json, "loads", refuse_json_loads)
    if fast:
        assert parse_jsonl_record(line) == expected
    else:
        with pytest.raises(JsonLoadsCalled):
            parse_jsonl_record(line)


def test_dumps_form_lines_skip_json_loads(monkeypatch):
    """The regex path stays live: a json.dumps record of int id parses, as
    bytes and bytearray, with json.loads made to raise."""
    delta = [[1, 0, 0, 1, 1, 0, 1, 0], [0, 1, 1, 0, 0, 1, 0, 0], [1, 1, 1, 1, 0, 0, 0, 1]]
    line = json.dumps({"id": 12, "delta": delta}).encode() + b"\n"
    monkeypatch.setattr(json, "loads", refuse_json_loads)
    for data in (line, bytearray(line)):
        assert parse_jsonl_record(data) == (12, SparsityPattern.from_rows(delta))


# pieces inserted into a json.dumps record to make a near miss
RECORD_PIECES = [b" ", b"\t", b"\r\n", b"\x0c", b"0", b"1", b"2", b"-", b",", b", ", b"[", b"]",
                 b"[]", b"true", b'"', b"\\", b"}", b"{"]


@st.composite
def dumps_lines(draw):
    """json.dumps lines of draw records with int ids of any size and rows
    of 0/1, mostly of one width; some get JSON whitespace around them, and
    some one piece inserted or one byte deleted."""
    width = draw(st.integers(0, 4))
    rows = draw(st.lists(
        st.lists(st.integers(0, 1), min_size=width, max_size=width + draw(st.sampled_from([0, 1]))),
        max_size=5,
    ))
    rec_id = draw(st.integers(-99, 99) | st.integers(-10**20, 10**20))
    space = st.text(" \t\r\n", max_size=2).map(str.encode)
    line = draw(space) + json.dumps({"id": rec_id, "delta": rows}).encode() + draw(space)
    at = draw(st.integers(0, len(line)))
    edit = draw(st.sampled_from(["none", "none", "insert", "delete"]))
    if edit == "insert":
        line = line[:at] + draw(st.sampled_from(RECORD_PIECES)) + line[at:]
    elif edit == "delete":
        line = line[:at] + line[at + 1:]
    return line


@given(dumps_lines())
@settings(max_examples=400, derandomize=True)
def test_regex_path_agrees_with_json_loads_on_random_records(line):
    expected = outcome(parse_jsonl_record, line.decode())
    assert outcome(parse_jsonl_record, line) == expected
    assert outcome(parse_jsonl_record, bytearray(line)) == expected


class TestPattern:
    def test_validation(self):
        with pytest.raises(ValueError):
            SparsityPattern(((0, 2),))
        with pytest.raises(DimensionError):
            SparsityPattern(((0, 1), (1,)))

    def test_from_rows_validates_cells(self):
        """from_rows rejects what SparsityPattern(entries) rejects, instead of
        truncating a loading like 0.73 to 0, and keeps bools, numpy integers
        and 1.0."""
        for cell in (0.5, 1.9, 0.73, "1", 2, None):
            with pytest.raises(InvalidArgumentError, match=re.escape(f"got {cell!r}")):
                SparsityPattern.from_rows([[1, cell]])
        rows = [[True, np.int64(0)], [np.uint8(1), 1.0]]
        assert SparsityPattern.from_rows(rows) == SparsityPattern(((1, 0), (1, 1)))
        assert SparsityPattern.from_rows(np.eye(2, dtype=int)) == SparsityPattern(((1, 0), (0, 1)))

    def test_numpy_array_entries(self):
        """A 2-D array is taken row by row, as by from_rows; the constructor's
        own errors pass through unchanged."""
        mat = np.random.default_rng(3).random((7, 4)) < 0.5
        assert SparsityPattern(mat) == SparsityPattern.from_rows(mat)
        assert SparsityPattern(np.eye(2, dtype=int)) == SparsityPattern(((1, 0), (0, 1)))
        assert SparsityPattern(np.zeros((0, 3), dtype=int)) == SparsityPattern(())
        with pytest.raises(DimensionError):
            SparsityPattern((np.array([1, 0]), np.array([1])))
        with pytest.raises(InvalidArgumentError, match="must be 0 or 1, got"):
            SparsityPattern(np.array([[1, 2]]))

    def test_masks(self, mincut_demo_8x3):
        assert mincut_demo_8x3.col_masks[2] == sum(
            1 << i for i, row in enumerate(MINCUT_DEMO_8X3) if row[2]
        )

    @given(patterns())
    @settings(max_examples=150)
    def test_mask_views_agree_with_entries(self, p):
        entries = p.entries
        assert SparsityPattern(entries) == p and SparsityPattern(entries).entries == entries
        # trim against the same operations on row tuples
        keep_rows = [i for i, row in enumerate(entries) if any(row)]
        keep_cols = [j for j in range(p.r) if any(row[j] for row in entries)]
        assert trim(p)[0] == SparsityPattern(
            tuple(tuple(entries[i][j] for j in keep_cols) for i in keep_rows)
        )
        assert pickle.loads(pickle.dumps(p)) == p


def zero_row_layouts(rng, m):
    """Zero-row sets of an m-row pattern, ascending: scattered, half the
    rows, one block, both ends, and every row but one."""
    yield np.sort(rng.choice(m, max(1, m // 50), replace=False))
    yield np.sort(rng.choice(m, m // 2, replace=False))
    yield np.arange(m // 3, m // 3 + m // 4 + 1)
    yield np.array([*range(m // 10 + 1), *range(m - m // 7 - 1, m)])
    yield np.delete(np.arange(m), int(rng.integers(0, m)))


def padded_mats(seed):
    """Seeded 0/1 matrices with planted zero rows and, in some, zero columns:
    1000x50 ones with 20 scattered zero rows, a 2,000-row one with half its
    rows zero, and each layout of `zero_row_layouts` on 300 and 1,100 rows.
    Exactly the planted rows and columns are zero."""
    rng = np.random.default_rng(seed)

    def planted(m, r, zero_rows, zero_cols=()):
        mat = rng.random((m, r)) < 0.3
        mat[:, list(zero_cols)] = False
        mat[~mat.any(axis=1), r - 1] = True  # the last column is never planted zero
        mat[zero_rows, :] = False
        return mat

    for k in range(4):
        yield planted(1000, 50, rng.choice(1000, 20, replace=False), range(k))
    yield planted(2000, 8, rng.choice(2000, 1000, replace=False))
    for m in (300, 1100):
        for zero_rows in zero_row_layouts(rng, m):
            yield planted(m, 5, zero_rows, (2,) if m == 300 else ())


TRIM_DIGEST = "545641dd53507e16bd8a0b1b7ee6e3330286ae90e0af1dbe96320c0bb3d88eb3"


def test_trim_output_is_pinned():
    """SHA-256 of trim's pattern (m and masks) and report on the padded
    patterns, two degenerate ones and two with no zero row."""
    digest = hashlib.sha256()

    def update(p):
        trimmed, report = trim(p)
        digest.update(repr((trimmed.m, trimmed.col_masks, report)).encode())
        return trimmed

    for mat in padded_mats(223):
        update(SparsityPattern.from_rows(mat))
    for p in (SparsityPattern(((0, 0, 0),) * 5), SparsityPattern(((),) * 3)):
        trimmed = update(p)
        assert (trimmed.m, trimmed.col_masks) == (0, ())
    full = SparsityPattern.from_rows(np.eye(6, dtype=int) | np.eye(6, k=1, dtype=int))
    assert update(full) is full
    zero_column = SparsityPattern(((1, 0), (1, 0), (1, 0)))
    assert update(zero_column) == SparsityPattern(((1,), (1,), (1,)))
    assert digest.hexdigest() == TRIM_DIGEST


def test_trim_on_wide_masks():
    """trim against numpy slicing on up to 2,000 rows, where masks are far
    wider than 64 bits: every layout of `zero_row_layouts`, a random subset
    of the rows and no zero row, some with zero columns, and a 1000x50
    pattern with planted zero rows and columns."""
    rng = np.random.default_rng(107)
    for m in (*rng.integers(1, 2001, size=14).tolist(), 1, 2, 2000):
        r = int(rng.integers(1, 6))
        full = rng.random((m, r)) < rng.random()
        for zero_rows in (*zero_row_layouts(rng, m), rng.random(m) < rng.random(), []):
            mat = full.copy()
            mat[zero_rows, :] = False
            keep_rows, keep_cols = np.flatnonzero(mat.any(axis=1)), np.flatnonzero(mat.any(axis=0))
            trimmed, report = trim(SparsityPattern.from_rows(mat))
            assert report.removed_zero_rows == tuple(np.flatnonzero(~mat.any(axis=1)))
            assert report.removed_zero_columns == tuple(np.flatnonzero(~mat.any(axis=0)))
            assert trimmed == SparsityPattern.from_rows(mat[keep_rows][:, keep_cols])

    mat = rng.random((1000, 50)) < 0.2
    mat[rng.choice(1000, 20, replace=False), :] = False
    mat[:, rng.choice(50, 2, replace=False)] = False
    keep_rows, keep_cols = np.flatnonzero(mat.any(axis=1)), np.flatnonzero(mat.any(axis=0))
    trimmed, report = trim(SparsityPattern.from_rows(mat))
    assert (report.effective_m, report.effective_r) == (len(keep_rows), len(keep_cols)) == (980, 48)
    assert trimmed == SparsityPattern.from_rows(mat[keep_rows][:, keep_cols])


class TestTrim:
    def test_zero_row(self):
        p = SparsityPattern.from_rows([[1, 0], [0, 0], [0, 1]])
        trimmed, report = trim(p)
        assert trimmed.entries == ((1, 0), (0, 1))
        assert report.removed_zero_rows == (1,)
        assert report.removed_zero_columns == ()

    def test_zero_column(self):
        p = SparsityPattern.from_rows([[1, 0], [1, 0]])
        trimmed, report = trim(p)
        assert trimmed.entries == ((1,), (1,))
        assert report.removed_zero_columns == (1,)

    def test_all_zero(self):
        p = SparsityPattern.from_rows([[0, 0], [0, 0], [0, 0]])
        trimmed, report = trim(p)
        assert (trimmed.m, trimmed.r) == (0, 0)
        assert report.removed_zero_columns == (0, 1)
        assert report.removed_zero_rows == (0, 1, 2)
        assert (report.effective_m, report.effective_r) == (0, 0)

    def test_report_arithmetic(self, deletion_demo_8x3):
        _, report = trim(deletion_demo_8x3)
        assert report.effective_m == report.original_m - len(report.removed_zero_rows)
        assert report.effective_r == report.original_r - len(report.removed_zero_columns)

    @given(patterns())
    @settings(max_examples=150)
    def test_idempotent_and_reconstructs(self, p):
        trimmed, report = trim(p)
        again, report2 = trim(trimmed)
        assert again == trimmed
        assert report2.removed_zero_rows == () and report2.removed_zero_columns == ()
        # the report maps every 1 of the trimmed pattern back to its place
        kept_rows = [i for i in range(p.m) if i not in report.removed_zero_rows]
        kept_cols = [j for j in range(p.r) if j not in report.removed_zero_columns]
        entries = [[0] * p.r for _ in range(p.m)]
        for i, row in enumerate(trimmed.entries):
            for j, v in enumerate(row):
                if v:
                    entries[kept_rows[i]][kept_cols[j]] = 1
        assert SparsityPattern.from_rows(entries) == p
