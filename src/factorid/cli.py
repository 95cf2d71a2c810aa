"""Command-line front end.

Exit codes everywhere: 0 = rule holds / run complete, 1 = rule fails or no
witness exists, 2 = input or system error. Human-readable output goes to
stdout, diagnostics to stderr; --json switches stdout to machine form.
"""

import csv
import json
import os
import statistics
import sys
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import islice

import click

from factorid.errors import (
    FactorIdError,
    InfeasibleDimensionsError,
)
from factorid.identify import (
    METHOD_DELETION_WRAPPER,
    CountingRuleVerdict,
    FailWitness,
    IdentificationVerdict,
    counting_rule_bruteforce,
    rcm_decomposition,
    variance_identified,
)
from factorid.pattern import (
    SparsityPattern,
    parse_jsonl_record,
    parse_pattern,
    trim,
)


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


def _verdict_json(p: SparsityPattern, v: IdentificationVerdict, s: int) -> dict:
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
        if s < 0:
            raise FactorIdError("s must be non-negative")
        try:
            verdict = variance_identified(pattern, s)
        except InfeasibleDimensionsError as e:
            # m < 2r+s: the full column set is itself a violating subset
            _, report = trim(pattern)
            detail = CountingRuleVerdict(
                r=report.effective_r, s=s, holds=False, method=METHOD_DELETION_WRAPPER,
                witness_fail=FailWitness(
                    columns=report.kept_columns, nonzero_rows=report.effective_m
                ),
            )
            verdict = IdentificationVerdict(
                identified=False, effective_r=report.effective_r, trim=report,
                detail=detail, degenerate=False,
            )
            click.echo(f"note: {e}", err=True)
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
    except (FactorIdError, OSError, ValueError, IndexError) as e:
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
        if not token.isdigit():
            raise ValueError(f"bad row label {token!r}")
        i = int(token) - 1
        if not (0 <= i < m):
            raise IndexError(f"row label v{token} out of range for m={m}")
        rows.add(i)
    return frozenset(rows)


@dataclass
class DrawRecord:
    """Verdict for one posterior draw; `error` is set for malformed lines."""

    id: object = None
    effective_r: int | None = None
    identified: bool | None = None
    mwvc_weight: int | None = None
    error: str | None = None

    def to_json_line(self) -> str:
        payload = {
            "id": self.id,
            "effective_r": self.effective_r,
            "identified": self.identified,
            "mwvc_weight": self.mwvc_weight,
            "error": self.error,
        }
        return json.dumps(payload, separators=(",", ":"))


@dataclass
class FilterSummary:
    """Stream totals; histograms key effective_r, counts sum to the totals."""

    total: int = 0
    accepted: int = 0
    errors: int = 0
    histogram_effective_r: dict[int, int] = field(default_factory=dict)
    histogram_effective_r_accepted: dict[int, int] = field(default_factory=dict)

    @property
    def acceptance_fraction(self) -> float:
        return (self.accepted / self.total) if self.total else 0.0

    def add(self, record: DrawRecord) -> None:
        if record.error is not None:
            self.errors += 1
            return
        self.total += 1
        eff = record.effective_r
        self.histogram_effective_r[eff] = self.histogram_effective_r.get(eff, 0) + 1
        if record.identified:
            self.accepted += 1
            self.histogram_effective_r_accepted[eff] = (
                self.histogram_effective_r_accepted.get(eff, 0) + 1
            )

    def to_json(self) -> str:
        return json.dumps({
            "total": self.total,
            "accepted": self.accepted,
            "acceptance_fraction": self.acceptance_fraction,
            "histogram_effective_r": {
                str(k): v for k, v in sorted(self.histogram_effective_r.items())
            },
            "histogram_effective_r_accepted": {
                str(k): v
                for k, v in sorted(self.histogram_effective_r_accepted.items())
            },
            "errors": self.errors,
        })


def _filter_record(line: bytes) -> DrawRecord:
    record = DrawRecord()
    try:
        rec_id, pattern = parse_jsonl_record(line)
        record.id = rec_id
        verdict = variance_identified(pattern)
        record.effective_r = verdict.effective_r
        record.identified = verdict.identified
        record.mwvc_weight = (
            verdict.detail.mincut_value if verdict.detail is not None else None
        )
    except FactorIdError as e:
        record.error = str(e)
    return record


_CHUNK = 64  # lines per task sent to a filter worker


def _filter_chunk(lines: list[bytes]) -> list[DrawRecord]:
    return [_filter_record(line) for line in lines]


def _filter_records(lines, workers: int):
    """Records for the lines, in input order. With several workers, lines go
    out in chunks of _CHUNK, and at most two chunks per worker are read ahead
    of the record being yielded, so memory stays bounded on any stream."""
    if workers == 1:
        yield from map(_filter_record, lines)
        return
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
    summary = FilterSummary()
    try:
        with fin, open(output_path, "w", encoding="utf-8") as fout:
            lines = (line for line in fin if line.strip())
            for record in _filter_records(lines, workers):
                fout.write(record.to_json_line() + "\n")
                summary.add(record)
    except OSError as e:
        click.echo(f"error: {e}", err=True)
        sys.exit(2)
    if summary_path is not None:
        if summary_path == "-":
            click.echo(summary.to_json())
        else:
            try:
                with open(summary_path, "w", encoding="utf-8") as f:
                    f.write(summary.to_json() + "\n")
            except OSError as e:
                click.echo(f"error: {e}", err=True)
                sys.exit(2)
    sys.exit(2 if summary.errors else 0)


@main.command("bench")
@click.option("--m", "m_spec", default="50,100", show_default=True,
              help="Comma-separated row counts.")
@click.option("--r", "r_spec", default="5,10", show_default=True,
              help="Comma-separated column counts.")
@click.option("--density", type=float, default=0.3, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--patterns", "n_patterns", type=int, default=5, show_default=True,
              help="Random patterns per grid cell.")
@click.option("--brute-cap", type=int, default=24, show_default=True,
              help="Skip brute force above this column count.")
@click.option("--output", "output_path", default="-", show_default=True,
              help="CSV destination ('-' for stdout).")
def cmd_bench(m_spec, r_spec, density, seed, n_patterns, brute_cap, output_path):
    """Time the polynomial s=1 check against the brute-force oracle on random grids."""
    try:
        m_list = [int(x) for x in m_spec.split(",") if x.strip()]
        r_list = [int(x) for x in r_spec.split(",") if x.strip()]
        if min(m_list + r_list + [seed]) < 0:
            raise ValueError("--m, --r and --seed must be non-negative")
        if n_patterns < 1:
            raise ValueError("--patterns must be at least 1")
    except ValueError as e:
        click.echo(f"error: {e}", err=True)
        sys.exit(2)
    import numpy as np  # only bench needs numpy; check and filter start faster without it

    rows = []
    for m in m_list:
        for r in r_list:
            rng = np.random.default_rng([seed, m, r])
            patterns = []
            for _ in range(n_patterns):
                mat = (rng.random((m, r)) < density).astype(int)
                trimmed, _ = trim(SparsityPattern.from_rows(mat.tolist()))
                patterns.append(trimmed)
            verdicts = {}
            timings = {}
            checks = [("mincut", lambda p: variance_identified(p).identified)]
            if r <= brute_cap:
                checks.append((
                    "bruteforce",
                    lambda p: counting_rule_bruteforce(p, 1, max_columns=brute_cap).holds,
                ))
            for method, check in checks:
                outcome = []
                elapsed = []
                for p in patterns:
                    t0 = time.perf_counter_ns()
                    outcome.append(check(p))
                    elapsed.append(time.perf_counter_ns() - t0)
                verdicts[method] = outcome
                timings[method] = int(statistics.median(elapsed))
            agree = all(v == verdicts["mincut"] for v in verdicts.values())
            for method in ("mincut", "bruteforce"):
                if method not in timings:
                    rows.append([m, r, density, method, "", "skipped"])
                else:
                    rows.append([m, r, density, method, timings[method], str(agree).lower()])
    try:
        out = sys.stdout if output_path == "-" else open(output_path, "w", newline="")
        try:
            writer = csv.writer(out)
            writer.writerow(["m", "r", "density", "method", "median_ns", "verdict_agreement"])
            writer.writerows(rows)
        finally:
            if out is not sys.stdout:
                out.close()
    except OSError as e:
        click.echo(f"error: {e}", err=True)
        sys.exit(2)
    sys.exit(0)


if __name__ == "__main__":
    main()
