
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import MINCUT_DEMO_8X3, MINCUT_DEMO_TEXT
from factorid.errors import DimensionError, EmptyInputError, InvalidArgumentError, ParseError
from factorid.pattern import (
    SparsityPattern,
    nonzero_row_count,
    parse_jsonl_record,
    parse_pattern,
    restrict_rows,
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

    def test_masks(self, mincut_demo_8x3):
        assert mincut_demo_8x3.col_masks[2] == sum(
            1 << i for i, row in enumerate(MINCUT_DEMO_8X3) if row[2]
        )

    @given(patterns(), st.data())
    @settings(max_examples=150)
    def test_mask_views_agree_with_entries(self, p, data):
        entries = p.entries
        assert SparsityPattern(entries) == p and SparsityPattern(entries).entries == entries
        assert p.col_rows == tuple(
            tuple(i for i, row in enumerate(entries) if row[j]) for j in range(p.r)
        )
        # trim and restrict_rows against the same operations on row tuples
        keep_rows = [i for i, row in enumerate(entries) if any(row)]
        keep_cols = [j for j in range(p.r) if any(row[j] for row in entries)]
        assert trim(p)[0] == SparsityPattern(
            tuple(tuple(entries[i][j] for j in keep_cols) for i in keep_rows)
        )
        rows = data.draw(st.lists(st.integers(0, p.m - 1), min_size=1, max_size=p.m + 2))
        assert restrict_rows(p, rows) == SparsityPattern(tuple(entries[i] for i in rows))
        assert pickle.loads(pickle.dumps(p)) == p


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
        entries = [[0] * p.r for _ in range(p.m)]
        for j, rows in enumerate(trimmed.col_rows):
            for i in rows:
                entries[report.original_row(i)][report.original_column(j)] = 1
        assert SparsityPattern.from_rows(entries) == p

    def test_original_coordinates(self):
        p = SparsityPattern.from_rows([[0, 1, 0], [0, 0, 0], [0, 1, 1]])
        trimmed, report = trim(p)
        assert report.kept_rows == (0, 2)
        assert report.kept_columns == (1, 2)
        assert report.original_row(1) == 2
        assert report.original_column(0) == 1


class TestNonzeroRowCount:
    def test_demo_single_column(self, mincut_demo_8x3):
        assert nonzero_row_count(mincut_demo_8x3, {2}) == 4

    def test_demo_all_columns(self, mincut_demo_8x3):
        assert nonzero_row_count(mincut_demo_8x3, {0, 1, 2}) == 8

    def test_empty_cols_disallowed(self, mincut_demo_8x3):
        with pytest.raises(ValueError):
            nonzero_row_count(mincut_demo_8x3, set())

    def test_out_of_range(self, mincut_demo_8x3):
        with pytest.raises(IndexError):
            nonzero_row_count(mincut_demo_8x3, {3})

    @given(patterns(), st.data())
    @settings(max_examples=150)
    def test_monotone(self, p, data):
        cols_b = data.draw(
            st.sets(st.integers(0, p.r - 1), min_size=1, max_size=p.r)
        )
        cols_a = data.draw(st.sets(st.sampled_from(sorted(cols_b)), min_size=1))
        assert nonzero_row_count(p, cols_a) <= nonzero_row_count(p, cols_b)

    @given(patterns())
    @settings(max_examples=150)
    def test_all_columns_counts_nonzero_rows(self, p):
        zero_rows = sum(1 for row in p.entries if not any(row))
        assert nonzero_row_count(p, set(range(p.r))) == p.m - zero_rows
