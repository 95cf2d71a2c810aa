"""Command-line front end.

Exit codes everywhere: 0 = rule holds / run complete, 1 = rule fails or no
witness exists, 2 = input or system error, a usage error, a closed stdout or
an interrupt; a closed stderr changes none of them. Human-readable output
goes to stdout, diagnostics to stderr; --json switches stdout to machine form.
"""

import argparse
import json
import os
import sys
from collections import Counter
from itertools import islice

from factorid.errors import FactorIdError, InvalidArgumentError, OutOfRangeError, WorkerError
from factorid.identify import rcm_decomposition, variance_identified
from factorid.pattern import SparsityPattern, parse_jsonl_record, parse_pattern


def _col_label(j: int, r: int | None = None) -> str:
    if r is not None and j >= r:
        return f"u{j - r + 1}*"
    return f"u{j + 1}"


def _row_label(i: int) -> str:
    return f"v{i + 1}"


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


def _to_devnull(stream) -> None:
    """Point stream's file descriptor at devnull. Python flushes the stream
    again at exit; what is left then goes nowhere instead of failing, as the
    SIGPIPE note in the signal module's documentation does for stdout."""
    os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())


def _stderr(*lines: str) -> None:
    """Write lines to stderr and flush it. A closed stderr loses them and
    is sent to devnull, so that the exit code stays the command's; where
    file descriptor 2 was closed at start-up, sys.stderr is None."""
    if sys.stderr is None:
        return
    try:
        for line in lines:
            print(line, file=sys.stderr)
        sys.stderr.flush()
    except OSError:
        _to_devnull(sys.stderr)


def _error(message) -> int:
    _stderr(f"error: {message}")
    return 2


def cmd_check(args) -> int:
    """Check the counting rule for a single pattern."""
    s = args.s
    try:
        pattern = _load_pattern(args.input, args.format)
        verdict = variance_identified(pattern, s)
    except (FactorIdError, OSError) as e:
        return _error(e)
    if args.json:
        print(json.dumps(_verdict_json(pattern, verdict, s)))
    else:
        eff = verdict.trim
        print(
            f"pattern {pattern.m}x{pattern.r}"
            f" (effective {eff.effective_m}x{eff.effective_r} after trimming)"
        )
        if verdict.degenerate:
            print("HOLDS: no factors remain after trimming; variance is trivially identified")
        elif verdict.identified:
            detail = verdict.detail
            if detail.mincut_value is not None:
                threshold = verdict.effective_r * (2 * verdict.effective_r + 1)
                print(
                    f"HOLDS (s={s}): minimum weighted cover = {detail.mincut_value}"
                    f" >= {threshold}"
                )
            else:
                print(f"HOLDS (s={s}): {detail.witness_pass.note}")
        else:
            wf = verdict.detail.witness_fail
            cols = ",".join(_col_label(j) for j in wf.columns)
            need = 2 * len(wf.columns) + s
            msg = f"FAILS (s={s}): columns {cols} touch {wf.nonzero_rows} rows, need {need}"
            if wf.deleted_rows:
                msg += f" after deleting {','.join(_row_label(i) for i in wf.deleted_rows)}"
            # flushed, so that the note follows it where both streams go to one file
            print(msg, flush=True)
            _stderr(
                "note: this is a sufficient condition; failing it does not prove"
                " non-identifiability"
            )
    return 0 if verdict.identified else 1


def cmd_witness(args) -> int:
    """Print two disjoint row groups with reordered nonzero diagonals."""
    try:
        pattern = _load_pattern(args.input, args.format)
        deleted = _parse_row_spec(args.delete, pattern.m)
        decomposition = rcm_decomposition(pattern, deleted)
    except (FactorIdError, OSError) as e:
        return _error(e)
    if decomposition is None:
        print("no decomposition: the remaining rows admit no two disjoint"
              " column-saturating row groups")
        return 1
    if decomposition.deleted_rows:
        print("deleted rows: " + ", ".join(_row_label(i) for i in decomposition.deleted_rows))
    print("group A rows: " + ", ".join(_row_label(i) for i in decomposition.rows_a))
    print("group B rows: " + ", ".join(_row_label(i) for i in decomposition.rows_b))
    pairs = sorted(decomposition.matching.pairs)
    print(
        "matching: "
        + " ".join(f"{_col_label(c, pattern.r)}-{_row_label(i)}" for c, i in pairs)
    )
    return 0


def _parse_row_spec(spec: str, m: int) -> frozenset[int]:
    rows = set()
    for label in spec.split(","):
        label = label.strip()
        if not label:
            continue
        token = label[1:] if label.startswith(("v", "V")) else label
        if not (token.isascii() and token.isdigit()):
            raise InvalidArgumentError(f"bad row label {label!r}")
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


_CHUNK = 64  # lines per chunk sent to a filter worker


def _filter_chunk(lines: list[bytes]) -> list[tuple]:
    return [_filter_record(line) for line in lines]


def _fork_worker() -> tuple:
    """Fork a filter worker and return its pid and the parent's ends of its
    two pipes: chunks of lines go down one, their records come back up the
    other, each pickled. The worker exits once the parent has closed both
    ends. Workers forked later hold copies of them, so it takes closing the
    ends of every worker to end them all."""
    import pickle

    lines_r, lines_w = os.pipe()
    records_r, records_w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        for fd in (lines_r, lines_w, records_r, records_w):
            os.close(fd)
        raise
    if pid == 0:
        # leave only through os._exit: never flush the parent's inherited
        # output buffers or run its atexit hooks
        code = 1
        try:
            os.close(lines_w)
            os.close(records_r)
            with open(lines_r, "rb") as chunks, open(records_w, "wb") as records:
                while True:
                    try:
                        lines = pickle.load(chunks)
                    except EOFError:  # the parent is done
                        break
                    pickle.dump(_filter_chunk(lines), records)
                    records.flush()
            code = 0
        finally:
            os._exit(code)
    os.close(lines_r)
    os.close(records_w)
    return pid, open(lines_w, "wb"), open(records_r, "rb")


def _filter_records(lines, workers: int):
    """Records for the lines, in input order.

    With several workers, workers - 1 children are forked and the work runs
    in rounds of one _CHUNK per process: the parent sends each child the next
    chunk, decides the round's first chunk itself and then reads each child's
    records in order. A child holds at most one chunk, so at most `workers`
    chunks are in memory on any stream, and the parent writes to a child only
    while that child waits to read, so the pipes cannot deadlock. A child that
    dies ends the run with WorkerError, and every child is reaped before
    this generator finishes, however it finishes.
    """
    if workers == 1:
        yield from map(_filter_record, lines)
        return
    import pickle  # a serial run never needs it

    lines = iter(lines)
    children = []
    try:
        for _ in range(workers - 1):
            children.append(_fork_worker())
        while own := list(islice(lines, _CHUNK)):
            busy = []
            for pid, chunks, records in children:
                if not (chunk := list(islice(lines, _CHUNK))):
                    break
                try:
                    pickle.dump(chunk, chunks)
                    chunks.flush()
                except BrokenPipeError:
                    raise WorkerError(f"filter worker {pid} exited early") from None
                busy.append((pid, records))
            yield from map(_filter_record, own)
            for pid, records in busy:
                try:
                    chunk_records = pickle.load(records)
                except (EOFError, pickle.UnpicklingError):
                    raise WorkerError(f"filter worker {pid} exited early") from None
                yield from chunk_records
    finally:
        for _, chunks, records in children:
            records.close()
            try:
                chunks.close()
            except BrokenPipeError:  # the bytes of a cut-short chunk are unsendable
                pass
        for pid, _, _ in children:
            os.waitpid(pid, 0)


def _worker_count(parallel: int) -> int:
    """--parallel clamped to [1, number of CPUs]; 1 where os.fork is missing."""
    if not hasattr(os, "fork"):
        return 1
    return max(1, min(parallel, os.cpu_count() or 1))


def _same_file(a: str, b: str) -> bool:
    try:
        return os.path.samefile(a, b)
    except OSError:  # one of them does not exist yet: compare the paths
        return os.path.realpath(a) == os.path.realpath(b)


def cmd_filter(args) -> int:
    """Filter a posterior-draw stream, keeping order; one verdict per line.

    Lines end at each newline byte and must be UTF-8 JSON, as JSONL defines.
    Malformed lines produce error records and processing continues; the exit
    code is 2 if any line was malformed, else 0.
    """
    workers = _worker_count(args.parallel)
    # opening the output truncates it: refuse before the input is lost
    if _same_file(args.input, args.output):
        return _error(f"--output {args.output} is the input file")
    # the summary is written last, over whatever its path holds
    if args.summary not in (None, "-"):
        for role, path in (("input", args.input), ("output", args.output)):
            if _same_file(args.summary, path):
                return _error(f"--summary {args.summary} is the {role} file")
    try:
        fin = open(args.input, "rb")
    except OSError as e:
        return _error(e)
    seen, accepted, errors = Counter(), Counter(), 0
    try:
        with fin, open(args.output, "w", encoding="utf-8") as fout:
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
    except (OSError, WorkerError) as e:
        return _error(e)
    if args.summary is not None:
        summary = _summary_json(seen, accepted, errors)
        if args.summary == "-":
            print(summary)
        else:
            try:
                with open(args.summary, "w", encoding="utf-8") as f:
                    f.write(summary + "\n")
            except OSError as e:
                return _error(e)
    return 2 if errors else 0


class _Store(argparse.Action):
    """argparse's default action, except that `--opt=--` stores "--", as on
    Python 3.13: earlier versions drop that value and hand over []."""

    def __call__(self, parser, namespace, values, option_string=None):
        if values == []:
            values = parser._get_value(self, "--")
            parser._check_value(self, values)
        setattr(namespace, self.dest, values)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="factorid", allow_abbrev=False,
        description="Decide variance identifiability of sparse factor loading patterns.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def command(name, run):
        sub = commands.add_parser(name, allow_abbrev=False, description=run.__doc__,
                                  help=run.__doc__.split("\n")[0])
        sub.register("action", None, _Store)
        sub.set_defaults(run=run)
        return sub

    formats = dict(choices=["dense", "jsonl"], default="dense",
                   help="Input format. (default: %(default)s)")
    check = command("check", cmd_check)
    check.add_argument("--input", required=True, help="Pattern file to check.")
    check.add_argument("--s", type=int, default=1, help=(
        "Rule strength: any q columns must touch at least 2q+s rows. (default: %(default)s)"))
    check.add_argument("--format", **formats)
    check.add_argument("--json", action="store_true", help="Emit one JSON object.")
    witness = command("witness", cmd_witness)
    witness.add_argument("--input", required=True, help="Pattern file.")
    witness.add_argument("--delete", default="",
                         help="Rows to delete first, e.g. 'v1,v6' or '1,6' (1-based).")
    witness.add_argument("--format", **formats)
    filter_ = command("filter", cmd_filter)
    filter_.add_argument("--input", required=True, help="JSONL draw stream.")
    filter_.add_argument("--output", required=True, help="JSONL verdict stream.")
    filter_.add_argument("--summary", help="Write a JSON summary to this path ('-' for stdout).")
    filter_.add_argument("--parallel", type=int, default=1, help=(
        "Processes deciding draws, this one included (at most one per CPU). (default: %(default)s)"))
    return parser


# the options that take a value; each takes the word after it, also one that
# argparse would read as an option, such as '-x' or '--'
_VALUE_OPTIONS = frozenset(
    ("--input", "--s", "--format", "--delete", "--output", "--summary", "--parallel"))


def _joined(argv) -> list[str]:
    """argv with each value option and the word after it joined as `--opt=word`."""
    joined, words = [], iter(argv)
    for word in words:
        value = next(words, None) if word in _VALUE_OPTIONS else None
        joined.append(word if value is None else f"{word}={value}")
    return joined


def main(argv=None, *, standalone_mode=True):
    """Run one command on argv (default: sys.argv[1:]) and exit with its code.

    A closed stdout and an interrupt each exit 2 with one error line; with
    standalone_mode=False, BrokenPipeError and KeyboardInterrupt reach the
    caller instead.
    """
    try:
        try:
            args = _parser().parse_args(_joined(sys.argv[1:] if argv is None else argv))
            # where file descriptor 1 was closed at start-up, sys.stdout is
            # None and print() drops its lines; a filter that writes only
            # files runs, and its --output may take file descriptor 1
            if sys.stdout is None and (args.run is not cmd_filter or args.summary == "-"):
                code = _error("cannot write to stdout: it was closed at start-up")
            else:
                code = args.run(args)
        finally:
            # a block-buffered stdout fails here, not at interpreter exit
            if sys.stdout is not None:
                sys.stdout.flush()
    except BrokenPipeError as e:
        if not standalone_mode:
            raise
        _to_devnull(sys.stdout)
        code = _error(f"cannot write to stdout: {e}")
    except KeyboardInterrupt:
        if not standalone_mode:
            raise
        code = _error("interrupted")
    finally:
        # argparse drops a failed write of its usage error, which stays in
        # stderr's buffer: flush it here, not at interpreter exit
        _stderr()
    sys.exit(code)


if __name__ == "__main__":
    main()
