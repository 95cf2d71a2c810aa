"""Command-line front end.

Exit codes everywhere: 0 = rule holds / run complete, 1 = rule fails or no
witness exists, 2 = input or system error. Human-readable output goes to
stdout, diagnostics to stderr; --json switches stdout to machine form.
"""

import json
import os
import sys
from collections import Counter, deque
from itertools import islice

import click

from factorid.errors import FactorIdError, InvalidArgumentError, OutOfRangeError
from factorid.identify import rcm_decomposition, variance_identified
from factorid.pattern import SparsityPattern, parse_jsonl_record, parse_pattern


def _col_label(j: int, r: int | None = None) -> str:
    if r is not None and j >= r:
        return f"u{j - r + 1}*"
    return f"u{j + 1}"


def _row_label(i: int) -> str:
    return f"v{i + 1}"


@click.group()
def main():
    """Decide variance identifiability of sparse factor loading patterns."""


def _load_pattern(input_path: str, fmt: str) -> SparsityPattern:
    with open(input_path, "rb") as f:
        data = f.read()
    format_name = "dense_text" if fmt == "dense" else "jsonl_record"
    return parse_pattern(data, format_name)


def _verdict_json(p: SparsityPattern, v, s: int) -> dict:
    witness = None
    note = None
    detail = v.detail
    if detail is not None:
        if detail.witness_fail is not None:
            wf = detail.witness_fail
            witness = {
                "columns": list(wf.columns),
                "column_labels": [_col_label(j) for j in wf.columns],
                "nonzero_rows": wf.nonzero_rows,
                "deleted_rows": list(wf.deleted_rows) if wf.deleted_rows else None,
            }
        if detail.witness_pass is not None and detail.witness_pass.note:
            note = detail.witness_pass.note
    return {
        "holds": v.identified,
        "s": s,
        "m": p.m,
        "r": p.r,
        "effective_m": v.trim.effective_m,
        "effective_r": v.effective_r,
        "degenerate": v.degenerate,
        "mwvc_weight": detail.mincut_value if detail is not None else None,
        "sufficient_only": v.sufficient_only,
        "witness": witness,
        "witness_note": note,
    }


@main.command("check")
@click.option("--input", "input_path", required=True, help="Pattern file to check.")
@click.option("--s", "s", type=int, default=1, show_default=True,
              help="Rule strength: any q columns must touch at least 2q+s rows.")
@click.option("--format", "fmt", type=click.Choice(["dense", "jsonl"]), default="dense",
              show_default=True, help="Input format.")
@click.option("--json", "as_json", is_flag=True, help="Emit one JSON object.")
def cmd_check(input_path, s, fmt, as_json):
    """Check the counting rule for a single pattern."""
    try:
        pattern = _load_pattern(input_path, fmt)
        verdict = variance_identified(pattern, s)
    except (FactorIdError, OSError) as e:
        click.echo(f"error: {e}", err=True)
        sys.exit(2)
    if as_json:
        click.echo(json.dumps(_verdict_json(pattern, verdict, s)))
    else:
        eff = verdict.trim
        click.echo(
            f"pattern {pattern.m}x{pattern.r}"
            f" (effective {eff.effective_m}x{eff.effective_r} after trimming)"
        )
        if verdict.degenerate:
            click.echo("HOLDS: no factors remain after trimming; variance is trivially identified")
        elif verdict.identified:
            detail = verdict.detail
            if detail.mincut_value is not None:
                threshold = verdict.effective_r * (2 * verdict.effective_r + 1)
                click.echo(
                    f"HOLDS (s={s}): minimum weighted cover = {detail.mincut_value}"
                    f" >= {threshold}"
                )
            else:
                click.echo(f"HOLDS (s={s}): {detail.witness_pass.note}")
        else:
            wf = verdict.detail.witness_fail
            cols = ",".join(_col_label(j) for j in wf.columns)
            need = 2 * len(wf.columns) + s
            msg = f"FAILS (s={s}): columns {cols} touch {wf.nonzero_rows} rows, need {need}"
            if wf.deleted_rows:
                msg += f" after deleting {','.join(_row_label(i) for i in wf.deleted_rows)}"
            click.echo(msg)
            click.echo(
                "note: this is a sufficient condition; failing it does not prove"
                " non-identifiability",
                err=True,
            )
    sys.exit(0 if verdict.identified else 1)


@main.command("witness")
@click.option("--input", "input_path", required=True, help="Pattern file.")
@click.option("--delete", "delete_spec", default="", show_default=False,
              help="Rows to delete first, e.g. 'v1,v6' or '1,6' (1-based).")
@click.option("--format", "fmt", type=click.Choice(["dense", "jsonl"]), default="dense",
              show_default=True, help="Input format.")
def cmd_witness(input_path, delete_spec, fmt):
    """Print two disjoint row groups with reordered nonzero diagonals."""
    try:
        pattern = _load_pattern(input_path, fmt)
        deleted = _parse_row_spec(delete_spec, pattern.m)
        decomposition = rcm_decomposition(pattern, deleted)
    except (FactorIdError, OSError) as e:
        click.echo(f"error: {e}", err=True)
        sys.exit(2)
    if decomposition is None:
        click.echo("no decomposition: the remaining rows admit no two disjoint"
                   " column-saturating row groups")
        sys.exit(1)
    if decomposition.deleted_rows:
        click.echo("deleted rows: " + ", ".join(_row_label(i) for i in decomposition.deleted_rows))
    click.echo("group A rows: " + ", ".join(_row_label(i) for i in decomposition.rows_a))
    click.echo("group B rows: " + ", ".join(_row_label(i) for i in decomposition.rows_b))
    pairs = sorted(decomposition.matching.pairs)
    click.echo(
        "matching: "
        + " ".join(f"{_col_label(c, pattern.r)}-{_row_label(i)}" for c, i in pairs)
    )
    sys.exit(0)


def _parse_row_spec(spec: str, m: int) -> frozenset[int]:
    rows = set()
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        if token.startswith(("v", "V")):
            token = token[1:]
        if not (token.isascii() and token.isdigit()):
            raise InvalidArgumentError(f"bad row label {token!r}")
        digits = token.lstrip("0")
        # a label with more digits than m is out of range; int() refuses huge ones
        i = int(digits) - 1 if 0 < len(digits) <= len(str(m)) else -1
        if not (0 <= i < m):
            raise OutOfRangeError(f"row label v{token} out of range for m={m}")
        rows.add(i)
    return frozenset(rows)


# json.dumps builds a new encoder on every call that passes separators
_COMPACT = json.JSONEncoder(separators=(",", ":"))


# the fields of a filter record, in output order
_FIELDS = ("id", "effective_r", "identified", "mwvc_weight", "error")


def _filter_record(line: bytes) -> tuple:
    """One draw's verdict as the values of _FIELDS; a malformed line gets its
    error and, if it was parsed that far, its id."""
    rec_id = None
    try:
        rec_id, pattern = parse_jsonl_record(line)
        verdict = variance_identified(pattern)
    except FactorIdError as e:
        return rec_id, None, None, None, str(e)
    detail = verdict.detail
    mwvc_weight = detail.mincut_value if detail is not None else None
    return rec_id, verdict.effective_r, verdict.identified, mwvc_weight, None


def _summary_json(seen: Counter, accepted: Counter, errors: int) -> str:
    """Stream totals from the effective_r histograms of all parsed draws and
    of the accepted ones, and the number of error records."""
    total, n_accepted = seen.total(), accepted.total()
    return json.dumps({
        "total": total,
        "accepted": n_accepted,
        "acceptance_fraction": (n_accepted / total) if total else 0.0,
        "histogram_effective_r": {str(k): v for k, v in sorted(seen.items())},
        "histogram_effective_r_accepted": {str(k): v for k, v in sorted(accepted.items())},
        "errors": errors,
    })


_CHUNK = 64  # lines per task sent to a filter worker


def _filter_chunk(lines: list[bytes]) -> list[tuple]:
    return [_filter_record(line) for line in lines]


def _filter_records(lines, workers: int):
    """Records for the lines, in input order. With several workers, lines go
    out in chunks of _CHUNK, and at most two chunks per worker are read ahead
    of the record being yielded, so memory stays bounded on any stream."""
    if workers == 1:
        yield from map(_filter_record, lines)
        return
    # the pool's import pulls in multiprocessing, which a serial run never uses
    from concurrent.futures import ProcessPoolExecutor

    lines = iter(lines)
    pending = deque()
    with ProcessPoolExecutor(max_workers=workers) as executor:
        while batch := list(islice(lines, _CHUNK)):
            pending.append(executor.submit(_filter_chunk, batch))
            if len(pending) == 2 * workers:
                yield from pending.popleft().result()
        while pending:
            yield from pending.popleft().result()


def _worker_count(parallel: int) -> int:
    """--parallel clamped to [1, number of CPUs]."""
    return max(1, min(parallel, os.cpu_count() or 1))


@main.command("filter")
@click.option("--input", "input_path", required=True, help="JSONL draw stream.")
@click.option("--output", "output_path", required=True, help="JSONL verdict stream.")
@click.option("--summary", "summary_path", default=None,
              help="Write a JSON summary to this path ('-' for stdout).")
@click.option("--parallel", type=int, default=1, show_default=True,
              help="Worker processes for the per-draw checks (at most one per CPU).")
def cmd_filter(input_path, output_path, summary_path, parallel):
    """Filter a posterior-draw stream, keeping order; one verdict per line.

    Lines end at each newline byte and must be UTF-8 JSON, as JSONL defines.
    Malformed lines produce error records and processing continues; the exit
    code is 2 if any line was malformed, else 0.
    """
    workers = _worker_count(parallel)
    try:
        fin = open(input_path, "rb")
    except OSError as e:
        click.echo(f"error: {e}", err=True)
        sys.exit(2)
    seen, accepted, errors = Counter(), Counter(), 0
    try:
        with fin, open(output_path, "w", encoding="utf-8") as fout:
            lines = (line for line in fin if line.strip())
            for record in _filter_records(lines, workers):
                fout.write(_COMPACT.encode(dict(zip(_FIELDS, record))) + "\n")
                _, effective_r, identified, _, error = record
                if error is not None:
                    errors += 1
                    continue
                seen[effective_r] += 1
                if identified:
                    accepted[effective_r] += 1
    except OSError as e:
        click.echo(f"error: {e}", err=True)
        sys.exit(2)
    if summary_path is not None:
        summary = _summary_json(seen, accepted, errors)
        if summary_path == "-":
            click.echo(summary)
        else:
            try:
                with open(summary_path, "w", encoding="utf-8") as f:
                    f.write(summary + "\n")
            except OSError as e:
                click.echo(f"error: {e}", err=True)
                sys.exit(2)
    sys.exit(2 if errors else 0)


if __name__ == "__main__":
    main()
