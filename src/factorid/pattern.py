"""Binary sparsity patterns: parsing, validation, and zero-row/column removal.

A pattern records which entries of an m x r loading matrix are structurally
nonzero. Rows index observed variables, columns index factors.
"""

import json
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Literal

from factorid.errors import DimensionError, EmptyInputError, ParseError

PatternFormat = Literal["dense_text", "jsonl_record"]

_TOKEN = re.compile(rb"\S+")


@dataclass(frozen=True)
class SparsityPattern:
    """Immutable m x r matrix of 0/1 indicators.

    `entries` is a tuple of row tuples. m = 0 and r = 0 are representable so
    that trimming an all-zero pattern has a well-defined degenerate result;
    parsed user input always has m >= 1 and r >= 1.
    """

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        width = None
        for row in self.entries:
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise DimensionError("rows have differing lengths")
            for v in row:
                if not (v == 0 or v == 1):
                    raise ValueError(f"pattern entries must be 0 or 1, got {v!r}")

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> "SparsityPattern":
        return cls(tuple(tuple(int(v) for v in row) for row in rows))

    @property
    def m(self) -> int:
        return len(self.entries)

    @property
    def r(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    @cached_property
    def col_masks(self) -> tuple[int, ...]:
        """Per column, an integer with bit i set iff entries[i][j] == 1."""
        masks = [0] * self.r
        for i, row in enumerate(self.entries):
            bit = 1 << i
            for j, v in enumerate(row):
                if v:
                    masks[j] |= bit
        return tuple(masks)

    @cached_property
    def row_masks(self) -> tuple[int, ...]:
        """Per row, an integer with bit j set iff entries[i][j] == 1."""
        out = []
        for row in self.entries:
            mask = 0
            for j, v in enumerate(row):
                if v:
                    mask |= 1 << j
            out.append(mask)
        return tuple(out)

    def ones(self) -> int:
        return sum(sum(row) for row in self.entries)


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
    zero_cols = tuple(j for j, mask in enumerate(p.col_masks) if mask == 0)
    zero_rows = tuple(i for i, mask in enumerate(p.row_masks) if mask == 0)
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
    keep_cols = report.kept_columns
    rows = tuple(
        tuple(p.entries[i][j] for j in keep_cols) for i in report.kept_rows
    )
    return SparsityPattern(rows), report


def untrim(trimmed: SparsityPattern, report: TrimReport) -> SparsityPattern:
    """Reinsert the removed zero rows/columns, reconstructing the original."""
    zero_cols = set(report.removed_zero_columns)
    zero_rows = set(report.removed_zero_rows)
    rows = []
    ti = 0
    for i in range(report.original_m):
        if i in zero_rows:
            rows.append((0,) * report.original_r)
            continue
        src = trimmed.entries[ti]
        ti += 1
        row = []
        tj = 0
        for j in range(report.original_r):
            if j in zero_cols:
                row.append(0)
            else:
                row.append(src[tj])
                tj += 1
        rows.append(tuple(row))
    return SparsityPattern(tuple(rows))


def nonzero_row_count(p: SparsityPattern, cols: Iterable[int]) -> int:
    """Number of rows with at least one 1 within the selected columns."""
    cols = tuple(cols)
    if not cols:
        raise ValueError("cols must be a nonempty set of column indices")
    masks = p.col_masks
    union = 0
    for c in cols:
        if c < 0 or c >= p.r:
            raise IndexError(f"column index {c} out of range for r={p.r}")
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
    raise ValueError(f"unknown format {format!r}")


def _parse_dense(data: bytes) -> SparsityPattern:
    rows: list[tuple[int, ...]] = []
    width = None
    for lineno, raw in enumerate(data.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith(b"#"):
            continue
        row = []
        for tok in _TOKEN.finditer(raw):
            t = tok.group()
            if t == b"0":
                row.append(0)
            elif t == b"1":
                row.append(1)
            else:
                raise ParseError(
                    f"unexpected token {t.decode('utf-8', 'replace')!r}",
                    line=lineno,
                    column=tok.start() + 1,
                )
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise DimensionError(
                f"row has {len(row)} entries, expected {width}", line=lineno
            )
        rows.append(tuple(row))
    if not rows:
        raise EmptyInputError("input contains no pattern rows")
    return SparsityPattern(tuple(rows))


def parse_jsonl_record(line: str | bytes) -> tuple[object, SparsityPattern]:
    """Parse one JSONL draw record (UTF-8 if bytes); returns (id, pattern)."""
    try:
        obj = json.loads(line.decode("utf-8") if isinstance(line, bytes) else line)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e.msg}", column=e.colno) from e
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
    rows = []
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
        rows.append(tuple(row))
    if not rows or width == 0:
        raise EmptyInputError("'delta' contains no cells")
    pattern = SparsityPattern(tuple(rows))
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
