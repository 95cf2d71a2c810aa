"""Binary sparsity patterns: parsing, validation, and zero-row/column removal.

A pattern records which entries of an m x r loading matrix are structurally
nonzero. Rows index observed variables, columns index factors. A pattern
is stored as one bitmask per column, which the parsers build directly and
trimming, the flow network and the matchings read; every other view of it is
derived from the masks on first use.
"""

import json
import re
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import chain, compress, count
from operator import or_
from typing import Iterable, Literal, Sequence

from factorid.errors import (
    DimensionError,
    EmptyInputError,
    EmptyPatternError,
    InvalidArgumentError,
    OutOfRangeError,
    ParseError,
    UntrimmedPatternError,
)

PatternFormat = Literal["dense_text", "jsonl_record"]

_TOKEN = re.compile(rb"\S+")
# cell bytes 0/1 to ASCII digits, so that int(..., 2) reads a column at once,
# and back, so that compress() picks the positions of the ones
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_CELLS = bytes.maketrans(b"01", b"\x00\x01")


def _column_masks(digits: bytes, width: int) -> tuple[int, ...]:
    """Column masks of a row-major string of ASCII '0'/'1' cells."""
    # column j is every width-th cell from j; reversed, row 0 is the low bit
    return tuple(int(digits[j::width][::-1], 2) for j in range(width))


def _set_bits(mask: int) -> tuple[int, ...]:
    """Ascending positions of the set bits of a mask."""
    return tuple(compress(count(), bin(mask)[:1:-1].encode().translate(_CELLS)))


@dataclass(frozen=True, init=False)
class SparsityPattern:
    """Immutable m x r matrix of 0/1 indicators: bit i of col_masks[j] is
    set iff entry (i, j) is 1, and r = len(col_masks).

    `SparsityPattern(entries)` takes a tuple of row tuples. The views
    `entries` and `col_rows` are derived from the masks. m = 0 and r = 0 are
    representable so that trimming an all-zero pattern has a well-defined
    degenerate result; parsed user input always has m >= 1 and r >= 1.
    """

    m: int
    col_masks: tuple[int, ...]

    def __init__(self, entries: tuple[tuple[int, ...], ...]):
        width = len(entries[0]) if entries else 0
        cells = bytearray()
        for row in entries:
            if len(row) != width:
                raise DimensionError("rows have differing lengths")
            for v in row:
                if not (v == 0 or v == 1):
                    raise InvalidArgumentError(f"pattern entries must be 0 or 1, got {v!r}")
            cells += bytes(map(bool, row))
        masks = _column_masks(cells.translate(_DIGITS), width)
        self.__dict__.update(m=len(entries), col_masks=masks)  # past the frozen __setattr__

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> "SparsityPattern":
        """Pattern from any iterable of row iterables (lists, numpy arrays),
        validated like `SparsityPattern(entries)`."""
        return cls(tuple(map(tuple, rows)))

    @property
    def r(self) -> int:
        return len(self.col_masks)

    @cached_property
    def col_rows(self) -> tuple[tuple[int, ...], ...]:
        """Per column, its nonzero rows in ascending order."""
        return tuple(map(_set_bits, self.col_masks))

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


def _from_masks(m: int, col_masks: tuple[int, ...]) -> SparsityPattern:
    """Pattern over masks that are already valid for m rows; no checks."""
    p = object.__new__(SparsityPattern)
    p.__dict__.update(m=m, col_masks=col_masks)
    return p


def restrict_rows(p: SparsityPattern, rows: Sequence[int]) -> SparsityPattern:
    """The pattern made of the given rows of p, in the given order: row k of
    the result is row rows[k] of p. All r columns are kept."""
    return _from_masks(len(rows), tuple(
        sum((mask >> i & 1) << k for k, i in enumerate(rows)) for mask in p.col_masks
    ))


@dataclass(frozen=True)
class TrimReport:
    """Record of the zero rows/columns removed by :func:`trim`.

    Index lists are strictly increasing original-coordinate indices, so
    witnesses computed on the trimmed pattern can be mapped back.
    """

    removed_zero_columns: tuple[int, ...]
    removed_zero_rows: tuple[int, ...]
    original_m: int
    original_r: int
    effective_m: int
    effective_r: int

    @cached_property
    def kept_rows(self) -> tuple[int, ...]:
        gone = set(self.removed_zero_rows)
        return tuple(i for i in range(self.original_m) if i not in gone)

    @cached_property
    def kept_columns(self) -> tuple[int, ...]:
        gone = set(self.removed_zero_columns)
        return tuple(j for j in range(self.original_r) if j not in gone)

    def original_row(self, i: int) -> int:
        return self.kept_rows[i]

    def original_column(self, j: int) -> int:
        return self.kept_columns[j]


def trim(p: SparsityPattern) -> tuple[SparsityPattern, TrimReport]:
    """Remove all-zero rows and all-zero columns.

    Removing a zero column never creates a new zero row (and vice versa), so
    one pass suffices. An all-zero input degenerates to a 0 x 0 pattern.
    """
    zero_cols = tuple(j for j, mask in enumerate(p.col_masks) if not mask)
    zero_rows = _set_bits(((1 << p.m) - 1) & ~reduce(or_, p.col_masks, 0))
    report = TrimReport(
        removed_zero_columns=zero_cols,
        removed_zero_rows=zero_rows,
        original_m=p.m,
        original_r=p.r,
        effective_m=p.m - len(zero_rows),
        effective_r=p.r - len(zero_cols),
    )
    if not zero_cols and not zero_rows:
        return p, report
    trimmed = _from_masks(p.m, tuple(mask for mask in p.col_masks if mask))
    if zero_rows:
        trimmed = restrict_rows(trimmed, report.kept_rows)
    return trimmed, report


def nonzero_row_count(p: SparsityPattern, cols: Iterable[int]) -> int:
    """Number of rows with at least one 1 within the selected columns."""
    cols = tuple(cols)
    if not cols:
        raise InvalidArgumentError("cols must be a nonempty set of column indices")
    masks = p.col_masks
    union = 0
    for c in cols:
        if c < 0 or c >= p.r:
            raise OutOfRangeError(f"column index {c} out of range for r={p.r}")
        union |= masks[c]
    return union.bit_count()


def parse_pattern(text: str | bytes, format: PatternFormat = "dense_text") -> SparsityPattern:
    """Parse a pattern from dense text or from a single JSONL record.

    Dense text: one row per line, entries '0'/'1' separated by spaces or
    tabs; blank lines and lines starting with '#' are ignored.
    JSONL record: one object with fields `id` and `delta` (and optionally
    `m`, `r`, which are validated when present).
    """
    if isinstance(text, str):
        data = text.encode("utf-8")
    else:
        data = bytes(text)
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


def _parse_dense(data: bytes) -> SparsityPattern:
    rows: list[bytes] = []
    width = None
    for lineno, raw in enumerate(data.splitlines(), start=1):
        tokens = raw.split()
        if not tokens or tokens[0].startswith(b"#"):
            continue
        row = b"".join(tokens)
        if len(row) != len(tokens) or row.translate(None, b"01"):
            # some token is not a lone 0 or 1: report the first one
            tok = next(t for t in _TOKEN.finditer(raw) if t.group() not in (b"0", b"1"))
            raise ParseError(
                f"unexpected token {tok.group().decode('utf-8', 'replace')!r}",
                line=lineno,
                column=tok.start() + 1,
            )
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise DimensionError(
                f"row has {len(row)} entries, expected {width}", line=lineno
            )
        rows.append(row)
    if not rows:
        raise EmptyInputError("input contains no pattern rows")
    return _from_masks(len(rows), _column_masks(b"".join(rows), width))


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
    """Parse one JSONL draw record (UTF-8 if bytes); returns (id, pattern)."""
    try:
        obj = json.loads(line.decode("utf-8") if isinstance(line, bytes) else line)
    except json.JSONDecodeError as e:
        # a record is one line; colno would restart after its trailing newline
        raise ParseError(f"invalid JSON: {e.msg}", column=e.pos + 1) from e
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
