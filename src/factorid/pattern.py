"""Binary sparsity patterns: parsing, validation, and zero-row/column removal.

A pattern records which entries of an m x r loading matrix are structurally
nonzero. Rows index observed variables, columns index factors. A pattern
is stored as one bitmask per column, which the parsers build directly and
trimming and the matchings read; the row tuples are derived from the masks
on first use. `trim` drops the zero rows by cutting the runs of kept rows
out of each column's binary digits, in O(r * (m + g)) for g gaps between
zero rows.
"""

import json
import re
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import chain, compress
from operator import itemgetter, or_
from typing import Iterable, Literal

from factorid.errors import (
    DimensionError,
    EmptyInputError,
    EmptyPatternError,
    FactorIdError,
    InvalidArgumentError,
    ParseError,
    UntrimmedPatternError,
)

PatternFormat = Literal["dense_text", "jsonl_record"]

_TOKEN = re.compile(rb"\S+")
# the bytes that separate cells within a dense-text line; \r and \n end lines
_BLANKS = b" \t\x0b\x0c"
# on text of digits and whitespace only: every digit to 1, whitespace to 0,
# so that two adjacent digits, a token longer than one cell, read b"11"
_RUNS = bytes.maketrans(b"0" + _BLANKS + b"\r\n", b"1" + b"0" * 6)
# cell bytes 0/1 to ASCII digits, so that int(..., 2) reads a column at once,
# and back, so that compress() picks the positions of the ones
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_CELLS = bytes.maketrans(b"01", b"\x00\x01")
# a draw record exactly as json.dumps writes {"id": <int>, "delta": <0/1 rows>},
# with JSON whitespace around it; the id has at most 18 digits
_DUMPS_RECORD = re.compile(
    rb'[ \t\n\r]*\{"id": (-?(?:0|[1-9][0-9]{0,17})), '
    rb'"delta": \[\[((?:[01], )*[01](?:\], \[(?:[01], )*[01])*)\]\]\}[ \t\n\r]*'
)


def _column_masks(digits: bytes, width: int) -> tuple[int, ...]:
    """Column masks of a row-major string of ASCII '0'/'1' cells."""
    # column j read backwards, from its cell in the last row to row 0, puts
    # row 0 in the low bit
    last = len(digits) - width
    return tuple(int(digits[last + j::-width], 2) for j in range(width))


def _set_bits(mask: int, n: int) -> tuple[int, ...]:
    """Ascending positions of the set bits of a mask below 2**n."""
    return tuple(compress(range(n), bin(mask)[:1:-1].encode().translate(_CELLS)))


@dataclass(frozen=True, init=False)
class SparsityPattern:
    """Immutable m x r matrix of 0/1 indicators: bit i of col_masks[j] is
    set iff entry (i, j) is 1, and r = len(col_masks).

    `SparsityPattern(entries)` takes a tuple of row tuples. The view
    `entries` is derived from the masks. m = 0 and r = 0 are
    representable so that trimming an all-zero pattern has a well-defined
    degenerate result; parsed user input always has m >= 1 and r >= 1.
    """

    m: int
    col_masks: tuple[int, ...]

    def __init__(self, entries: tuple[tuple[int, ...], ...]):
        cells = bytearray()
        try:
            m = len(entries)  # not truth: a 2-D numpy array has none
            width = len(entries[0]) if m else 0
            for row in entries:
                if len(row) != width:
                    raise DimensionError("rows have differing lengths")
                for v in row:
                    if not (v == 0 or v == 1):
                        raise InvalidArgumentError(f"pattern entries must be 0 or 1, got {v!r}")
                cells += bytes(map(bool, row))
        except FactorIdError:
            raise
        except TypeError:  # entries or a row that is not a sequence
            raise InvalidArgumentError("entries must be a tuple of row tuples") from None
        except ValueError:  # a cell with no truth value, such as a numpy array
            raise InvalidArgumentError("pattern entries must be 0 or 1") from None
        masks = _column_masks(cells.translate(_DIGITS), width)
        self.__dict__.update(m=m, col_masks=masks)  # past the frozen __setattr__

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> "SparsityPattern":
        """Pattern from any iterable of row iterables (lists, numpy arrays),
        validated like `SparsityPattern(entries)`."""
        try:
            entries = tuple(map(tuple, rows))
        except TypeError:  # rows or a row that is not iterable
            raise InvalidArgumentError("rows must be an iterable of row iterables") from None
        return cls(entries)

    @property
    def r(self) -> int:
        return len(self.col_masks)

    @cached_property
    def entries(self) -> tuple[tuple[int, ...], ...]:
        """Row tuples: entries[i][j] is 1 iff bit i of col_masks[j] is set."""
        return tuple(tuple(mask >> i & 1 for mask in self.col_masks) for i in range(self.m))

    def require_trimmed(self) -> None:
        """Raise unless the pattern has a column and no all-zero row or column."""
        if not self.col_masks:
            raise EmptyPatternError("pattern has no columns")
        if not all(self.col_masks) or reduce(or_, self.col_masks) != (1 << self.m) - 1:
            raise UntrimmedPatternError("pattern has an all-zero row or column")


def _require_pattern(p: object) -> None:
    """Raise InvalidArgumentError unless p is a SparsityPattern; every public
    function that takes a pattern calls this before reading it."""
    if not isinstance(p, SparsityPattern):
        raise InvalidArgumentError(f"pattern must be a SparsityPattern, got {type(p).__name__}")


def _from_masks(m: int, col_masks: tuple[int, ...]) -> SparsityPattern:
    """Pattern over masks that are already valid for m rows; no checks."""
    p = object.__new__(SparsityPattern)
    p.__dict__.update(m=m, col_masks=col_masks)
    return p


def _shown(i) -> str:
    """str(i), or the size of an int with more digits than int-to-str allows."""
    try:
        return str(i)
    except ValueError:
        return f"<an int of {i.bit_length()} bits>"


@dataclass(frozen=True)
class TrimReport:
    """Record of the zero rows/columns removed by :func:`trim`; its index
    lists are strictly increasing original-coordinate indices."""

    removed_zero_columns: tuple[int, ...]
    removed_zero_rows: tuple[int, ...]
    original_m: int
    original_r: int
    effective_m: int
    effective_r: int


def _trim_report(p: SparsityPattern) -> TrimReport:
    """What `trim` removes from p, without building the trimmed pattern."""
    zero_cols = tuple(j for j, mask in enumerate(p.col_masks) if not mask)
    zero_rows = _set_bits(((1 << p.m) - 1) & ~reduce(or_, p.col_masks, 0), p.m)
    return TrimReport(
        removed_zero_columns=zero_cols,
        removed_zero_rows=zero_rows,
        original_m=p.m,
        original_r=p.r,
        effective_m=p.m - len(zero_rows),
        effective_r=p.r - len(zero_cols),
    )


def _drop_rows(masks: tuple[int, ...], m: int, zero_rows: tuple[int, ...]) -> tuple[int, ...]:
    """The masks of m rows with the ascending zero_rows taken out, which
    leaves at least one row. Row i is digit m-1-i of a mask's m binary
    digits, so the kept rows are the runs of digits between those of
    consecutive zero rows; one itemgetter cuts them out of each column."""
    cuts = [-1, *(m - 1 - i for i in reversed(zero_rows)), m]
    # with one run, pick returns a str, which join() copies unchanged
    pick = itemgetter(*[slice(a + 1, b) for a, b in zip(cuts, cuts[1:]) if b > a + 1])
    width = f"0{m}b"
    return tuple(int("".join(pick(format(mask, width))), 2) for mask in masks)


def trim(p: SparsityPattern) -> tuple[SparsityPattern, TrimReport]:
    """Remove all-zero rows and all-zero columns.

    Removing a zero column never creates a new zero row (and vice versa), so
    one pass suffices. An all-zero input degenerates to a 0 x 0 pattern, and
    p itself comes back when nothing is removed. `_drop_rows` copies the
    kept rows in O(r * (m + g)) for g gaps between zero rows.
    """
    _require_pattern(p)
    report = _trim_report(p)
    zero_rows = report.removed_zero_rows
    if not zero_rows and not report.removed_zero_columns:
        return p, report
    masks = tuple(filter(None, p.col_masks))
    # no mask is left when every row is zero, nor any run to cut
    if masks and zero_rows:
        masks = _drop_rows(masks, p.m, zero_rows)
    return _from_masks(report.effective_m, masks), report


def parse_pattern(text: str | bytes, format: PatternFormat = "dense_text") -> SparsityPattern:
    """Parse a pattern from dense text or from a single JSONL record.

    Dense text (a str is encoded as UTF-8 first): one row per line, each
    cell a single '0' or '1'. Cells are separated by one or more space, tab,
    vertical tab (\\v) or form feed (\\f) bytes, which may also lead or
    trail a line. A line ends at '\\n', '\\r' or '\\r\\n'. A line holding only
    those separators is blank, and a line whose first byte after them is
    '#' is a comment, whatever follows; both are ignored. All other rows
    must have the same number of cells. The form numpy.savetxt(path, mat,
    fmt="%d") writes, every cell one digit and then one space, or '\\n' at
    the end of its row, is read by three strided checks at C speed; every
    other valid form parses to the same pattern, only more slowly, and every
    error is raised by that slower path.
    JSONL record: one object with fields `id` and `delta` (and optionally
    `m`, `r`, which are validated when present).
    InvalidArgumentError unless text is a str or bytes-like.
    """
    if isinstance(text, str):
        try:
            data = text.encode("utf-8")
        except UnicodeEncodeError as e:  # a lone surrogate
            raise ParseError(f"text is not valid Unicode: {e}") from e
    elif isinstance(text, (bytes, bytearray, memoryview)):
        data = bytes(text)
    else:  # bytes(n) would read n NUL bytes
        raise InvalidArgumentError(f"text must be str or bytes, got {type(text).__name__}")
    if format == "dense_text":
        return _parse_dense(data)
    if format == "jsonl_record":
        lines = [ln for ln in data.split(b"\n") if ln.strip()]
        if not lines:
            raise EmptyInputError("no JSONL record found")
        if len(lines) > 1:
            raise ParseError("expected a single JSONL record, got multiple lines")
        _, pattern = parse_jsonl_record(lines[0])
        return pattern
    raise InvalidArgumentError(f"unknown format {format!r}")


def _dense_rows(data: bytes) -> list[bytes] | None:
    """The rows of dense text, blanks deleted, as ASCII '0'/'1' digits; None
    if some non-comment line holds a byte other than '0', '1' or a blank, a
    token of more than one digit, or a number of cells other than that of
    the first row. The checks run over the whole text at C speed; only the
    comment lines, when there are any, are dropped line by line."""
    if b"#" in data:
        data = b"\n".join(ln for ln in data.splitlines() if not ln.lstrip().startswith(b"#"))
    if data.translate(None, b"01\r\n" + _BLANKS) or b"11" in data.translate(_RUNS):
        return None
    rows = list(filter(None, data.translate(None, _BLANKS).splitlines()))
    return rows if len(set(map(len, rows))) <= 1 else None


def _check_dense(data: bytes) -> None:
    """Raise for the first line of dense text that `_dense_rows` rejects,
    naming its first bad token or its number of cells."""
    width = None
    for lineno, raw in enumerate(data.splitlines(), start=1):
        tokens = raw.split()
        if not tokens or tokens[0].startswith(b"#"):
            continue
        for tok in _TOKEN.finditer(raw):
            if tok.group() not in (b"0", b"1"):
                raise ParseError(
                    f"unexpected token {tok.group().decode('utf-8', 'replace')!r}",
                    line=lineno,
                    column=tok.start() + 1,
                )
        if width is None:
            width = len(tokens)
        elif len(tokens) != width:
            raise DimensionError(
                f"row has {len(tokens)} entries, expected {width}", line=lineno
            )


def _parse_dense(data: bytes) -> SparsityPattern:
    # the form numpy.savetxt(fmt="%d") writes: every cell one digit and one
    # byte after it, a space within a row and \n at its end; the three
    # strided checks accept nothing else, so the width guessed from the first
    # line needs no check of its own
    width = (data.find(b"\n") + 1) // 2
    if width and not len(data) % (2 * width):
        m = len(data) // (2 * width)
        digits = data[::2]
        if data[1::2] == (b" " * (width - 1) + b"\n") * m and not digits.translate(None, b"01"):
            return _from_masks(m, _column_masks(digits, width))
    rows = _dense_rows(data)
    if rows is None:
        _check_dense(data)  # raises, naming the first bad token or ragged row
    if not rows:
        raise EmptyInputError("input contains no pattern rows")
    return _from_masks(len(rows), _column_masks(b"".join(rows), len(rows[0])))


def _delta_cells(delta: list) -> bytes | None:
    """The cells of 'delta', row-major, as bytes 0/1; None if it has no row,
    a row that is not an array, rows of different lengths or a cell other
    than the integer 0 or 1. The checks run at C speed; bool, a subclass of
    int, fails the type test."""
    if set(map(type, delta)) != {list} or len(set(map(len, delta))) != 1:
        return None
    cells = list(chain.from_iterable(delta))
    if not set(map(type, cells)) <= {int}:
        return None
    try:
        data = bytes(cells)
    except ValueError:  # an integer outside 0..255
        return None
    return None if data.translate(None, b"\x00\x01") else data


def _check_delta(delta: list) -> None:
    """Raise for the first row or cell of 'delta' that `_delta_cells` rejects,
    in row order."""
    width = None
    for i, row in enumerate(delta):
        if not isinstance(row, list):
            raise ParseError(f"'delta' row {i} is not an array")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise DimensionError(f"'delta' row {i} has {len(row)} entries, expected {width}")
        for v in row:
            if isinstance(v, bool) or not isinstance(v, int) or v not in (0, 1):
                raise ParseError(f"'delta' entries must be 0 or 1, got {v!r}")


def parse_jsonl_record(line: str | bytes) -> tuple[object, SparsityPattern]:
    """Parse one JSONL draw record (strict UTF-8 if bytes or bytearray);
    returns (id, pattern). InvalidArgumentError unless line is a str, bytes
    or bytearray.

    A bytes or bytearray line in the form json.dumps writes for an integer
    id of at most 18 digits and rows of equal length, `{"id": 7, "delta":
    [[1, 0], [0, 1]]}` with optional JSON whitespace around it, is read by one
    regex match at C speed. Every other line, str lines included, goes
    through json.loads. Both paths give the same result; a line that fails
    raises from the json.loads path, so errors are those of that path.
    """
    if isinstance(line, (bytes, bytearray)):
        fast = _DUMPS_RECORD.fullmatch(line)
        if fast:
            rows = fast[2].split(b"], [")
            if len(set(map(len, rows))) == 1:  # a row of w cells is 3w-2 bytes
                digits = b"".join(rows).translate(None, b", ")
                return int(fast[1]), _from_masks(
                    len(rows), _column_masks(digits, (len(rows[0]) + 2) // 3)
                )
    try:
        obj = json.loads(line.decode("utf-8") if isinstance(line, (bytes, bytearray)) else line)
    except json.JSONDecodeError as e:
        # a record is one line; colno would restart after its trailing newline
        raise ParseError(f"invalid JSON: {e.msg}", column=e.pos + 1) from e
    except TypeError:  # json.loads takes only str, bytes and bytearray
        raise InvalidArgumentError(
            f"line must be str or bytes, got {type(line).__name__}"
        ) from None
    except (ValueError, RecursionError) as e:
        # bytes that are not UTF-8, nesting beyond the recursion limit, or an
        # integer beyond the int-to-str digit limit
        raise ParseError(f"invalid JSONL line: {e}") from e
    if not isinstance(obj, dict):
        raise ParseError("JSONL record must be an object")
    if "id" not in obj:
        raise ParseError("JSONL record is missing the 'id' field")
    rec_id = obj["id"]
    if not isinstance(rec_id, (str, int)) or isinstance(rec_id, bool):
        raise ParseError("'id' must be a string or an integer")
    delta = obj.get("delta")
    if not isinstance(delta, list):
        raise ParseError("'delta' must be an array of arrays of 0/1")
    cells = _delta_cells(delta)
    if cells is None:
        _check_delta(delta)  # raises, naming the first bad row or cell
    if not cells:
        raise EmptyInputError("'delta' contains no cells")
    pattern = _from_masks(len(delta), _column_masks(cells.translate(_DIGITS), len(delta[0])))
    for key, size, unit in (("m", pattern.m, "rows"), ("r", pattern.r, "columns")):
        if key not in obj:
            continue
        declared = obj[key]
        # bool is an int subclass and 3.0 == 3, so compare types before values
        if isinstance(declared, bool) or not isinstance(declared, int):
            raise ParseError(f"declared {key} must be an integer, got {declared!r}")
        if declared != size:
            raise DimensionError(f"declared {key}={declared} does not match {size} {unit}")
    return rec_id, pattern
