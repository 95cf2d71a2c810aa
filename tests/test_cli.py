import errno
import hashlib
import json
import os
import random
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import MINCUT_DEMO_TEXT, COUNTEREXAMPLE_6X3, Runner
from factorid import FactorIdError, cli
from factorid.cli import main
from factorid.errors import WorkerError
from factorid.pattern import parse_jsonl_record

COUNTEREXAMPLE_TEXT = "\n".join(" ".join(str(v) for v in row) for row in COUNTEREXAMPLE_6X3) + "\n"

DELETION_DEMO_TEXT = """\
1 1 1
1 1 0
1 0 1
0 0 1
1 0 0
0 1 0
1 1 0
1 0 0
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestCheck:
    def test_holding_pattern(self, runner, tmp_path):
        path = write(tmp_path, "demo.txt", MINCUT_DEMO_TEXT)
        result = runner.invoke(main, ["check", "--input", path, "--s", "1"])
        assert result.exit_code == 0
        assert "21" in result.output

    def test_json_output(self, runner, tmp_path):
        path = write(tmp_path, "demo.txt", MINCUT_DEMO_TEXT)
        result = runner.invoke(main, ["check", "--input", path, "--json"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["holds"] is True
        assert payload["mwvc_weight"] == 21
        assert payload["effective_r"] == 3
        assert payload["sufficient_only"] is True
        assert payload["witness"] is None

    def test_failing_pattern(self, runner, tmp_path):
        path = write(tmp_path, "counterexample.txt", COUNTEREXAMPLE_TEXT)
        result = runner.invoke(main, ["check", "--input", path, "--s", "1"])
        assert result.exit_code == 1
        assert "u1,u2,u3" in result.output

    def test_failing_pattern_json_witness(self, runner, tmp_path):
        path = write(tmp_path, "counterexample.txt", COUNTEREXAMPLE_TEXT)
        result = runner.invoke(main, ["check", "--input", path, "--json"])
        assert result.exit_code == 1
        payload = json.loads(result.output)
        assert payload["holds"] is False
        assert payload["witness"]["columns"] == [0, 1, 2]
        assert payload["witness"]["nonzero_rows"] == 6
        assert payload["mwvc_weight"] == 18

    def test_parse_error_exits_2(self, runner, tmp_path):
        path = write(tmp_path, "ragged.txt", "1 0\n0 1 1\n")
        result = runner.invoke(main, ["check", "--input", path])
        assert result.exit_code == 2

    def test_long_bad_token_gives_one_short_error_line(self, runner, tmp_path):
        path = tmp_path / "long_token.txt"
        path.write_bytes(b"1 0\n0 " + b"2" * 1_000_000 + b"\n")
        result = runner.invoke(main, ["check", "--input", str(path)])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == (
            f"error: unexpected token {'2' * 20!r}... at line 2, column 3\n"
        )
        assert len(result.stderr_bytes) < 200

    def test_missing_file_exits_2(self, runner, tmp_path):
        result = runner.invoke(main, ["check", "--input", str(tmp_path / "nope.txt")])
        assert result.exit_code == 2

    def test_jsonl_format(self, runner, tmp_path):
        path = write(tmp_path, "draw.jsonl", '{"id": 1, "delta": [[1],[1],[1]]}\n')
        result = runner.invoke(main, ["check", "--input", path, "--format", "jsonl", "--json"])
        assert result.exit_code == 0
        assert json.loads(result.output)["holds"] is True

    def test_jsonl_lines_end_only_at_newline(self, runner, tmp_path):
        # a carriage return is JSON whitespace, not a line end, as in filter
        path = tmp_path / "draw.jsonl"
        path.write_bytes(b'{"id": 1,\r"delta": [[1],[1],[1]]}\r\n')
        result = runner.invoke(main, ["check", "--input", str(path), "--format", "jsonl"])
        assert result.exit_code == 0

    def test_s2_deletion_demo(self, runner, tmp_path):
        path = write(tmp_path, "deletion.txt", DELETION_DEMO_TEXT)
        result = runner.invoke(main, ["check", "--input", path, "--s", "2"])
        assert result.exit_code == 1
        assert "u3" in result.output

    def test_s2_infeasible_dimensions(self, runner, tmp_path):
        path = write(tmp_path, "demo.txt", MINCUT_DEMO_TEXT)
        result = runner.invoke(main, ["check", "--input", path, "--s", "3"])
        assert result.exit_code == 1
        assert "FAILS" in result.output

    def test_infeasible_dimensions_output(self, runner, tmp_path):
        # m=5 < 2r+s=7 after trimming the zero column: the full column set,
        # in original coordinates, is the witness
        path = write(tmp_path, "short.txt", "1 0 1\n0 0 1\n1 0 1\n1 0 0\n0 0 1\n")
        result = runner.invoke(main, ["check", "--input", path, "--s", "3", "--json"])
        assert result.exit_code == 1
        assert result.stderr == ""
        payload = json.loads(result.stdout)
        assert payload["holds"] is False
        assert payload["mwvc_weight"] is None
        assert payload["witness"] == {
            "columns": [0, 2], "column_labels": ["u1", "u3"],
            "nonzero_rows": 5, "deleted_rows": None,
        }

    def test_negative_s(self, runner, tmp_path):
        # refused before trimming, also where no column survives it
        for text in (MINCUT_DEMO_TEXT, "0 0\n0 0\n"):
            path = write(tmp_path, "pattern.txt", text)
            for extra in ([], ["--json"]):
                result = runner.invoke(main, ["check", "--input", path, "--s", "-1", *extra])
                assert result.exit_code == 2
                assert result.stdout == ""
                assert result.stderr == "error: s must be non-negative\n"

    @pytest.mark.parametrize("value", ["abc", "9" * 5000, "-x", "--"])
    def test_option_click_rejects(self, runner, tmp_path, value):
        # not an integer, or past int()'s digit limit: argparse's own usage
        # error, not one `error:` line
        path = write(tmp_path, "pattern.txt", MINCUT_DEMO_TEXT)
        result = runner.invoke(main, ["check", "--input", path, "--s", value])
        assert result.exit_code == 2
        assert no_traceback(result) and "Traceback" not in result.output
        assert result.stdout == ""
        assert result.stderr.startswith("usage: factorid check ")
        assert "factorid check: error: argument --s: invalid int value: " in result.stderr

    def test_option_prefix_is_a_usage_error(self, runner, tmp_path):
        path = write(tmp_path, "pattern.txt", MINCUT_DEMO_TEXT)
        result = runner.invoke(main, ["check", "--inp", path])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.startswith("usage: factorid check ")
        assert "error: the following arguments are required: --input" in result.stderr

    def test_s0(self, runner, tmp_path):
        path = write(tmp_path, "deletion.txt", DELETION_DEMO_TEXT)
        result = runner.invoke(main, ["check", "--input", path, "--s", "0", "--json"])
        assert result.exit_code == 0

    def test_degenerate(self, runner, tmp_path):
        path = write(tmp_path, "zero.txt", "0 0\n0 0\n")
        result = runner.invoke(main, ["check", "--input", path, "--json"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["degenerate"] is True and payload["holds"] is True
        result = runner.invoke(main, ["check", "--input", path])
        assert result.exit_code == 0
        assert result.stdout == (
            "pattern 2x2 (effective 0x0 after trimming)\n"
            "HOLDS: no factors remain after trimming; variance is trivially identified\n"
        )

    def test_note_past_the_int_to_str_limit(self, tmp_path):
        # C(2200, 1100) has 661 digits, more than the limit set here
        path = write(tmp_path, "tall.txt", "1\n" * 2200)
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONINTMAXSTRDIGITS="640",
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run(
            [sys.executable, "-m", "factorid.cli", "check", "--input", path, "--s", "1101"],
            env=env, capture_output=True, text=True,
        )
        assert out.returncode == 0
        assert "Traceback" not in out.stderr
        assert out.stdout == (
            "pattern 2200x1 (effective 2200x1 after trimming)\n"
            "HOLDS (s=1101): all C(2200, 1100) deletions of 1100 rows pass the s=1 rule\n"
        )

    def test_s2_holds_output(self, runner, tmp_path):
        path = write(tmp_path, "ones.txt", "1 1 1\n" * 8)
        result = runner.invoke(main, ["check", "--input", path, "--s", "2"])
        assert result.exit_code == 0
        assert result.stdout == (
            "pattern 8x3 (effective 8x3 after trimming)\n"
            "HOLDS (s=2): all 8 deletions of 1 rows pass the s=1 rule\n"
        )


def test_check_reads_savetxt_and_other_dense_forms_alike(runner, tmp_path):
    """check gives the same bytes and exit code on a 1000x50 pattern as
    numpy.savetxt writes it and with tabs, CRLF and a comment line; its 20
    zero rows are planted and three columns confined to seven rows, so the
    rule holds at s=0 and s=1 and fails at s=2."""
    rng = np.random.default_rng(24)
    mat = (rng.random((1000, 50)) < 0.3).astype(int)
    mat[rng.choice(1000, 20, replace=False)] = 0
    block = rng.choice(50, 3, replace=False)
    mat[:, block] = 0
    mat[np.ix_(np.flatnonzero(mat.any(axis=1))[:7], block)] = 1
    savetxt = tmp_path / "savetxt.txt"
    np.savetxt(savetxt, mat, fmt="%d")
    other = tmp_path / "other.txt"
    other.write_bytes(b"# tabs, CRLF and a comment\r\n" + b"".join(
        "\t".join(map(str, row)).encode() + b"\r\n" for row in mat
    ))
    codes = []
    for s in ("0", "1", "2"):
        for flags in ([], ["--json"]):
            a, b = (runner.invoke(main, ["check", "--input", str(path), "--s", s, *flags])
                    for path in (savetxt, other))
            assert (a.stdout_bytes, a.stderr_bytes, a.exit_code) == (
                b.stdout_bytes, b.stderr_bytes, b.exit_code)
            codes.append(a.exit_code)
    assert codes == [0, 0, 0, 0, 1, 1]


class TestWitness:
    def test_deletion_demo(self, runner, tmp_path):
        path = write(tmp_path, "deletion.txt", DELETION_DEMO_TEXT)
        result = runner.invoke(main, ["witness", "--input", path, "--delete", "v1,v6"])
        assert result.exit_code == 0
        assert "group A rows:" in result.output
        assert "group B rows:" in result.output
        assert "u1*" in result.output

    def test_numeric_labels(self, runner, tmp_path):
        path = write(tmp_path, "deletion.txt", DELETION_DEMO_TEXT)
        result = runner.invoke(main, ["witness", "--input", path, "--delete", "1,6"])
        assert result.exit_code == 0

    def test_no_decomposition(self, runner, tmp_path):
        path = write(tmp_path, "identity.txt", "1 0 0\n0 1 0\n0 0 1\n")
        result = runner.invoke(main, ["witness", "--input", path])
        assert result.exit_code == 1
        assert "no decomposition" in result.output

    def test_bad_row_label(self, runner, tmp_path):
        path = write(tmp_path, "deletion.txt", DELETION_DEMO_TEXT)
        result = runner.invoke(main, ["witness", "--input", path, "--delete", "v99"])
        assert result.exit_code == 2
        result = runner.invoke(main, ["witness", "--input", path, "--delete", "vx"])
        assert result.exit_code == 2
        long_label = "9" * 5000  # past int()'s digit limit
        for spec, message in [
            ("²", "bad row label '²'"),  # str.isdigit accepts it, int() does not
            ("v١", "bad row label 'v١'"),  # int() reads it as 1; not an ASCII label
            # the label is quoted as typed, prefix included, and stripped
            ("v", "bad row label 'v'"),
            ("vx", "bad row label 'vx'"),
            ("v-1", "bad row label 'v-1'"),
            ("1, V2x ", "bad row label 'V2x'"),
            (long_label, f"row label v{long_label} out of range for m=8"),
            ("v0", "row label v0 out of range for m=8"),
            # an option's value is the word after it, whatever it starts with
            ("-x", "bad row label '-x'"),
            ("--", "bad row label '--'"),
            ("--input", "bad row label '--input'"),
        ]:
            result = runner.invoke(main, ["witness", "--input", path, "--delete", spec])
            assert no_traceback(result)
            assert result.exit_code == 2
            assert result.stdout == ""
            assert result.stderr == f"error: {message}\n"
        # leading zeros are not digits of the row number
        result = runner.invoke(
            main, ["witness", "--input", path, "--delete", "0" * 5000 + "1,v06"]
        )
        assert result.exit_code == 0
        assert result.stdout.startswith("deleted rows: v1, v6\n")


STREAM = (
    json.dumps({"id": "dense_demo", "delta": [list(r) for r in
        [[1,0,0],[0,1,0],[1,1,0],[1,0,1],[1,1,1],[0,0,1],[0,1,1],[0,1,0]]]}) + "\n"
    + json.dumps({"id": "staircase", "delta": COUNTEREXAMPLE_6X3}) + "\n"
    + json.dumps({"id": "empty", "delta": [[0, 0], [0, 0]]}) + "\n"
)


class TestFilter:
    def test_three_draw_stream(self, runner, tmp_path):
        inp = write(tmp_path, "in.jsonl", STREAM)
        out = str(tmp_path / "out.jsonl")
        summary = str(tmp_path / "summary.json")
        result = runner.invoke(
            main, ["filter", "--input", inp, "--output", out, "--summary", summary]
        )
        assert result.exit_code == 0
        records = [json.loads(l) for l in Path(out).read_text().splitlines()]
        assert [r["id"] for r in records] == ["dense_demo", "staircase", "empty"]
        assert [r["identified"] for r in records] == [True, False, True]
        assert [r["effective_r"] for r in records] == [3, 3, 0]
        assert records[0]["mwvc_weight"] == 21
        assert records[2]["mwvc_weight"] is None
        s = json.loads(Path(summary).read_text())
        assert s["total"] == 3 and s["accepted"] == 2
        assert abs(s["acceptance_fraction"] - 2 / 3) < 1e-12
        assert s["histogram_effective_r"] == {"0": 1, "3": 2}
        assert s["histogram_effective_r_accepted"] == {"0": 1, "3": 1}
        assert s["errors"] == 0

    def test_empty_input(self, runner, tmp_path):
        inp = write(tmp_path, "in.jsonl", "")
        out = str(tmp_path / "out.jsonl")
        result = runner.invoke(
            main, ["filter", "--input", inp, "--output", out, "--summary", "-"]
        )
        assert result.exit_code == 0
        summary = json.loads(result.output)
        assert summary["total"] == 0
        assert summary["acceptance_fraction"] == 0.0

    def test_malformed_line_continues(self, runner, tmp_path):
        lines = STREAM.splitlines()
        lines.insert(1, "{broken")
        inp = write(tmp_path, "in.jsonl", "\n".join(lines) + "\n")
        out = str(tmp_path / "out.jsonl")
        summary = str(tmp_path / "summary.json")
        result = runner.invoke(
            main, ["filter", "--input", inp, "--output", out, "--summary", summary]
        )
        assert result.exit_code == 2
        records = [json.loads(l) for l in Path(out).read_text().splitlines()]
        assert len(records) == 4
        assert records[1]["error"] is not None
        assert records[1]["identified"] is None
        s = json.loads(Path(summary).read_text())
        assert s["total"] == 3 and s["errors"] == 1

    def test_bad_json_error_record_names_column(self, runner, tmp_path):
        lines = STREAM.splitlines()
        lines.insert(1, "{broken")
        inp = write(tmp_path, "in.jsonl", "\n".join(lines) + "\n")
        out = str(tmp_path / "out.jsonl")
        result = runner.invoke(main, ["filter", "--input", inp, "--output", out])
        assert result.exit_code == 2
        error = [json.loads(l) for l in Path(out).read_text().splitlines()][1]["error"]
        assert error == "invalid JSON: Expecting property name enclosed in double quotes at column 2"

    def test_long_bad_cell_gives_one_short_error_record(self, runner, tmp_path):
        lines = STREAM.splitlines()
        lines.insert(1, '{"id": "long", "delta": [[1, 0], [0, "' + "x" * 1_000_000 + '"]]}')
        inp = write(tmp_path, "in.jsonl", "\n".join(lines) + "\n")
        out = tmp_path / "out.jsonl"
        result = runner.invoke(main, ["filter", "--input", inp, "--output", str(out)])
        assert result.exit_code == 2
        record = out.read_bytes().splitlines()[1]
        assert json.loads(record)["error"] == (
            "'delta' entries must be 0 or 1, got '" + "x" * 19 + "..."
        )
        assert len(record) < 200

    def test_float_and_bool_dims_are_error_records(self, runner, tmp_path):
        lines = STREAM.splitlines()
        lines.insert(1, '{"id": "float_m", "delta": [[1],[1],[1]], "m": 3.0}')
        lines.insert(2, '{"id": "bool_r", "delta": [[1],[1],[1]], "r": true}')
        inp = write(tmp_path, "in.jsonl", "\n".join(lines) + "\n")
        out = str(tmp_path / "out.jsonl")
        result = runner.invoke(
            main, ["filter", "--input", inp, "--output", out, "--summary", "-"]
        )
        assert result.exit_code == 2
        records = [json.loads(l) for l in Path(out).read_text().splitlines()]
        assert len(records) == 5
        for record in records[1:3]:
            assert "must be an integer" in record["error"]
            assert record["identified"] is None
        assert json.loads(result.output)["errors"] == 2

    def test_unreadable_input(self, runner, tmp_path):
        result = runner.invoke(
            main, ["filter", "--input", str(tmp_path / "absent.jsonl"),
                   "--output", str(tmp_path / "out.jsonl")]
        )
        assert result.exit_code == 2

    def test_output_that_is_the_input_is_refused(self, runner, tmp_path):
        inp = tmp_path / "in.jsonl"
        inp.write_text(STREAM * 20)
        (tmp_path / "link.jsonl").symlink_to(inp)
        for out in (inp, tmp_path / "." / "in.jsonl", tmp_path / "link.jsonl"):
            result = runner.invoke(main, ["filter", "--input", str(inp), "--output", str(out)])
            assert result.exit_code == 2
            assert result.stdout == ""
            assert result.stderr == f"error: --output {out} is the input file\n"
            assert inp.read_text() == STREAM * 20

    def test_summary_that_is_the_input_or_output_is_refused(self, runner, tmp_path):
        """The summary, written after the run, would replace the input or
        the output; refused before either is opened."""
        inp = tmp_path / "in.jsonl"
        inp.write_bytes(STREAM.encode() * 20)
        (tmp_path / "link.jsonl").symlink_to(inp)
        out = tmp_path / "out.jsonl"
        cases = [(inp, "input"), (tmp_path / "." / "in.jsonl", "input"),
                 (tmp_path / "link.jsonl", "input"), (out, "output"),
                 (tmp_path / "." / "out.jsonl", "output")]
        for summary, role in cases:
            result = runner.invoke(main, ["filter", "--input", str(inp), "--output", str(out),
                                          "--summary", str(summary)])
            assert result.exit_code == 2
            assert result.stdout == ""
            assert result.stderr == f"error: --summary {summary} is the {role} file\n"
            assert inp.read_bytes() == STREAM.encode() * 20
            assert not out.exists()
        # an output that already exists is left as it is too
        out.write_bytes(b"kept\n")
        result = runner.invoke(main, ["filter", "--input", str(inp), "--output", str(out),
                                      "--summary", str(out)])
        assert result.exit_code == 2
        assert out.read_bytes() == b"kept\n"

    def test_parallel_matches_serial(self, runner, tmp_path):
        inp = write(tmp_path, "in.jsonl", STREAM * 20)
        out_serial = str(tmp_path / "serial.jsonl")
        out_parallel = str(tmp_path / "parallel.jsonl")
        assert runner.invoke(
            main, ["filter", "--input", inp, "--output", out_serial]
        ).exit_code == 0
        assert runner.invoke(
            main, ["filter", "--input", inp, "--output", out_parallel, "--parallel", "3"]
        ).exit_code == 0
        assert Path(out_serial).read_bytes() == Path(out_parallel).read_bytes()

    def test_parallel_reads_a_bounded_window(self):
        lines = [line.encode() for line in STREAM.splitlines()] * 400
        read = 0

        def stream():
            nonlocal read
            for line in lines:
                read += 1
                yield line

        records = cli._filter_records(stream(), 2)
        first = next(records)
        assert read <= 2 * 2 * cli._CHUNK  # two chunks per worker
        assert [first, *records] == [cli._filter_record(line) for line in lines]
        assert read == len(lines)


# one line of every malformed kind; each becomes an error record
MALFORMED_LINES = [
    b'{"id": "two", "delta": [[1, 2], [0, 1]]}',
    b'{"id": "ragged", "delta": [[1, 0], [1]]}',
    b'{"delta": [[1, 0], [0, 1]]}',
    b'{"id": "wrong_m", "delta": [[1], [1]], "m": 3}',
    b"{broken",
    b'\xff\xfe{"id": 1}',
    b"[" * 100_000,
]


def seeded_stream(seed, n):
    """n draws from random() alone, 1 to 20 rows by 1 to 8 columns at any
    density, so that zero rows and columns are common, with every tenth line
    malformed and a blank line after every 50th."""
    rng = random.Random(seed)
    lines = []
    for k in range(n):
        if k % 10 == 9:
            lines.append(MALFORMED_LINES[k // 10 % len(MALFORMED_LINES)])
        else:
            m, r, density = 1 + int(rng.random() * 20), 1 + int(rng.random() * 8), rng.random()
            delta = [[int(rng.random() < density) for _ in range(r)] for _ in range(m)]
            draw = {"id": k if k % 2 else f"draw{k}", "delta": delta}
            lines.append(json.dumps(draw).encode())
        if k % 50 == 49:
            lines.append(b" ")
    return b"\n".join(lines) + b"\n"


# SHA-256 of the output file, stdout, stderr and exit code of
# `filter --summary -` on seeded_stream(181, 700)
FILTER_DIGEST = "e4ef4044afb247e41e47c06c7dec4bad78cd785f67b0cbe2af0fe77bd66f286e"


@pytest.mark.parametrize("parallel", ["1", "2"])
def test_filter_output_is_pinned(runner, tmp_path, parallel):
    inp = tmp_path / "in.jsonl"
    inp.write_bytes(seeded_stream(181, 700))
    out = tmp_path / "out.jsonl"
    result = runner.invoke(main, [
        "filter", "--input", str(inp), "--output", str(out), "--summary", "-",
        "--parallel", parallel,
    ])
    assert result.exit_code == 2
    digest = hashlib.sha256()
    for part in (out.read_bytes(), result.stdout_bytes, result.stderr_bytes, result.exit_code):
        digest.update(repr(part).encode())
    assert digest.hexdigest() == FILTER_DIGEST


def test_serial_filter_copies_no_row(runner, tmp_path, no_row_copies):
    """filter decides on the caller's rows: with row copies refused, the
    pinned output comes back unchanged on a stream with zero-row draws."""
    stream = seeded_stream(181, 700)
    zero_rows = 0
    for line in stream.splitlines():
        try:
            p = parse_jsonl_record(line)[1]
        except FactorIdError:  # a malformed or blank line
            continue
        zero_rows += oracles.touched_rows(p, range(p.r)) < p.m
    assert zero_rows >= 100
    inp = tmp_path / "in.jsonl"
    inp.write_bytes(stream)
    out = tmp_path / "out.jsonl"
    result = runner.invoke(main, [
        "filter", "--input", str(inp), "--output", str(out), "--summary", "-",
    ])
    digest = hashlib.sha256()
    for part in (out.read_bytes(), result.stdout_bytes, result.stderr_bytes, result.exit_code):
        digest.update(repr(part).encode())
    assert digest.hexdigest() == FILTER_DIGEST


def test_import_leaves_numpy_unloaded():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, factorid, factorid.cli; print('numpy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False"


POOL_PROBE = """
import os, sys
import factorid.cli
from factorid.cli import main

def run(out, *extra):
    try:
        main(["filter", "--input", sys.argv[1], "--output", out, *extra])
    except SystemExit as e:
        assert e.code == 0, e.code
    with open(out, "rb") as f:
        return f.read()

pool = ("concurrent.futures.process", "multiprocessing")
serial = run(sys.argv[2])
print(*(name in sys.modules for name in (*pool, "pickle")))
os.cpu_count = lambda: 2  # so that --parallel 2 forks a worker anywhere
same = run(sys.argv[3], "--parallel", "2") == serial
print(*(name in sys.modules for name in pool), same)
"""


def test_serial_filter_leaves_the_process_pool_unloaded(tmp_path):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    stream = tmp_path / "in.jsonl"
    stream.write_text(STREAM * 50)
    out = subprocess.run(
        [sys.executable, "-c", POOL_PROBE, str(stream), str(tmp_path / "a"), str(tmp_path / "b")],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    assert out.stdout.splitlines() == ["False False False", "False False True"]


def cli_env(unbuffered: bool) -> dict:
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("command", ["check", "witness", "filter"])
def test_closed_stdout_exits_2(tmp_path, command, unbuffered):
    """Output that no reader takes is a system error, whether it fails at
    the first write or at the flush before exit; the rule holds on the
    pattern, so check would exit 0."""
    pattern = write(tmp_path, "pattern.txt", MINCUT_DEMO_TEXT)
    args = {
        "check": ["--input", pattern],
        "witness": ["--input", write(tmp_path, "deletion.txt", DELETION_DEMO_TEXT),
                    "--delete", "v1,v6"],
        "filter": ["--input", write(tmp_path, "in.jsonl", STREAM),
                   "--output", str(tmp_path / "out.jsonl"), "--summary", "-"],
    }[command]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        out = subprocess.run(
            [sys.executable, "-m", "factorid.cli", command, *args], stdout=write_end,
            stderr=subprocess.PIPE, env=cli_env(unbuffered), text=True, timeout=60,
        )
    finally:
        os.close(write_end)
    assert out.returncode == 2
    assert out.stderr.startswith("error: cannot write to stdout: ")
    assert out.stderr.count("\n") == 1


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("stderr", ["reader_gone", "fd_closed"])
@pytest.mark.parametrize(
    "case", ["missing_input", "usage_error", "passing_check", "failing_check", "both_closed"])
def test_closed_stderr_keeps_exit_codes(tmp_path, case, stderr, unbuffered):
    """A stderr that no reader takes, or that was closed before Python
    started (so that sys.stderr is None), loses its lines but changes no
    exit code: neither at the write, nor at the flush before exit."""
    missing = str(tmp_path / "missing.txt")
    args, code = {
        "missing_input": (["check", "--input", missing], 2),
        "usage_error": (["check", "--input", missing, "--s", "abc"], 2),
        "passing_check": (["check", "--input", write(tmp_path, "pass.txt", MINCUT_DEMO_TEXT)], 0),
        "failing_check": (["check", "--input", write(tmp_path, "fail.txt", COUNTEREXAMPLE_TEXT)], 1),
        "both_closed": (["check", "--input", write(tmp_path, "pass.txt", MINCUT_DEMO_TEXT)], 2),
    }[case]
    command = [sys.executable, "-m", "factorid.cli", *args]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        if stderr == "fd_closed":
            # the shell closes file descriptor 2 before it starts Python
            command = ["sh", "-c", 'exec "$0" "$@" 2>&-', *command]
        out = subprocess.run(
            command, stderr=write_end if stderr == "reader_gone" else None,
            stdout=write_end if case == "both_closed" else subprocess.PIPE,
            env=cli_env(unbuffered), timeout=60,
        )
    finally:
        os.close(write_end)
    assert out.returncode == code
    if case == "passing_check":
        assert b"HOLDS (s=1)" in out.stdout
    if case == "failing_check":
        assert out.stdout.startswith(b"pattern 6x3 ")
        assert b"FAILS (s=1): columns u1,u2,u3" in out.stdout
        assert b"note:" not in out.stdout  # the note is stderr's alone


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "case", ["check", "witness", "filter_summary", "filter_files", "filter_malformed"])
def test_closed_stdout_at_start_up(tmp_path, case, unbuffered):
    """With file descriptor 1 closed before Python started, sys.stdout is
    None: a command that writes to stdout exits 2 with one error line, and a
    filter that writes only files keeps its own exit code and writes what a
    run with stdout open writes, although its --output may take fd 1."""
    stream = write(tmp_path, "in.jsonl", STREAM + MALFORMED_LINES[0].decode() + "\n"
                   if case == "filter_malformed" else STREAM)

    def filter_args(name):
        return ["filter", "--input", stream, "--output", str(tmp_path / f"{name}.jsonl"),
                "--summary", str(tmp_path / f"{name}.json")]

    args, code = {
        "check": (["check", "--input", write(tmp_path, "pass.txt", MINCUT_DEMO_TEXT)], 2),
        "witness": (["witness", "--input", write(tmp_path, "deletion.txt", DELETION_DEMO_TEXT),
                     "--delete", "v1,v6"], 2),
        "filter_summary": ([*filter_args("closed")[:-1], "-"], 2),
        "filter_files": (filter_args("closed"), 0),
        "filter_malformed": (filter_args("closed"), 2),
    }[case]
    command = [sys.executable, "-m", "factorid.cli", *args]
    # the shell closes file descriptor 1 before it starts Python
    out = subprocess.run(["sh", "-c", 'exec "$0" "$@" >&-', *command], stderr=subprocess.PIPE,
                         env=cli_env(unbuffered), text=True, timeout=60)
    assert out.returncode == code
    assert "Traceback" not in out.stderr
    if not case.startswith("filter_") or case == "filter_summary":
        assert out.stderr == "error: cannot write to stdout: it was closed at start-up\n"
        return
    assert out.stderr == ""
    subprocess.run([sys.executable, "-m", "factorid.cli", *filter_args("open")],
                   env=cli_env(unbuffered), capture_output=True, timeout=60)
    for suffix in (".jsonl", ".json"):
        written = (tmp_path / f"closed{suffix}").read_bytes()
        assert written and written == (tmp_path / f"open{suffix}").read_bytes()


# `python -m factorid.cli`, with Python's SIGINT handler also where the
# process starts with SIGINT ignored, and two CPUs so that --parallel 2
# forks a worker anywhere
INTERRUPTIBLE_CLI = """
import os, runpy, signal
signal.signal(signal.SIGINT, signal.default_int_handler)
os.cpu_count = lambda: 2
runpy.run_module("factorid.cli", run_name="__main__", alter_sys=True)
"""


def processes_naming(marker: str) -> int:
    """How many processes have `marker` in their command line."""
    count = 0
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                count += marker.encode() in f.read()
        except OSError:  # the process has ended
            pass
    return count


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="counts processes in /proc")
@pytest.mark.parametrize("parallel", ["1", "2"])
def test_interrupted_filter_exits_2(tmp_path, parallel):
    """SIGINT to the process group, as Ctrl-C sends it, mid-stream: one
    error line, exit 2, and no worker left running."""
    inp = write(tmp_path, "in.jsonl", STREAM * 20_000)
    out = tmp_path / "out.jsonl"
    proc = subprocess.Popen(
        [sys.executable, "-c", INTERRUPTIBLE_CLI, "filter", "--input", inp,
         "--output", str(out), "--parallel", parallel],
        env=cli_env(False), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        deadline = time.monotonic() + 60
        while not (out.exists() and out.stat().st_size) and proc.poll() is None:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        assert processes_naming(str(out)) == int(parallel)
        os.killpg(proc.pid, signal.SIGINT)
        _, stderr = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    assert proc.returncode == 2
    assert stderr == "error: interrupted\n"
    assert processes_naming(str(out)) == 0


def test_worker_count_clamped(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert [cli._worker_count(n) for n in (-5, 0, 1, 3, 4, 10**9)] == [1, 1, 1, 3, 4, 4]
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert cli._worker_count(8) == 1
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.delattr(os, "fork")
    assert [cli._worker_count(n) for n in (-5, 0, 1, 3, 4, 10**9)] == [1] * 6


class ExitWhenPickled:
    def __reduce__(self):
        os._exit(3)


def open_fds():
    return set(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="--parallel runs serially without fork")
@pytest.mark.parametrize(
    "case", ["complete", "output_error", "dead_worker", "short_pickle", "second_fork_fails"]
)
def test_parallel_filter_reaps_every_worker(runner, tmp_path, monkeypatch, case):
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    inp = write(tmp_path, "in.jsonl", STREAM * 50)
    out = str(tmp_path / "out.jsonl")
    if case == "output_error":
        if not os.path.exists("/dev/full"):
            pytest.skip("needs /dev/full")
        out = "/dev/full"  # the first flush, mid-stream, fails
    if case in ("dead_worker", "short_pickle"):
        parent, filter_chunk = os.getpid(), cli._filter_chunk

        def fail_in_worker(lines):
            if os.getpid() == parent:
                return filter_chunk(lines)
            if case == "dead_worker":
                os._exit(3)
            # a str longer than a pickle frame reaches the pipe before the
            # worker dies pickling the item after it
            return [*filter_chunk(lines), "x" * 100_000, ExitWhenPickled()]

        monkeypatch.setattr(cli, "_filter_chunk", fail_in_worker)
    if case == "second_fork_fails":
        fork, forks = os.fork, []

        def fork_once():
            if forks:
                raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
            forks.append(fork())
            return forks[-1]

        monkeypatch.setattr(os, "fork", fork_once)
    fds = open_fds()
    result = runner.invoke(main, ["filter", "--input", inp, "--output", out, "--parallel", "3"])
    assert open_fds() == fds
    assert no_traceback(result)
    assert "Traceback" not in result.stderr
    if case == "complete":
        assert result.exit_code == 0
    else:
        assert result.exit_code == 2
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
    assert_no_child_left()


@pytest.mark.skipif(not hasattr(os, "waitid"), reason="needs os.waitid")
def test_chunk_for_a_dead_worker_is_an_error(monkeypatch):
    fork, pids = os.fork, []

    def recording_fork():
        pid = fork()
        pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    lines = [line.encode() for line in STREAM.splitlines()] * 100
    records = cli._filter_records(iter(lines), 2)
    for _ in range(2 * cli._CHUNK):  # the first round; the worker waits for the next
        next(records)
    os.kill(pids[0], signal.SIGKILL)
    os.waitid(os.P_PID, pids[0], os.WEXITED | os.WNOWAIT)  # dead, not yet reaped
    with pytest.raises(WorkerError, match="exited early"):
        next(records)
    assert_no_child_left()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="--parallel runs serially without fork")
def test_parallel_input_error_reaps_every_worker():
    def stream():
        yield from [line.encode() for line in STREAM.splitlines()] * 100
        raise OSError("input gone")

    fds = open_fds()
    with pytest.raises(OSError, match="input gone"):
        for _ in cli._filter_records(stream(), 3):
            pass
    assert open_fds() == fds
    assert_no_child_left()


# Each of these used to escape the CLI as a traceback.
HOSTILE_LINES = [
    b"\xff\xfe{\"id\": 1}",  # invalid UTF-8
    b"[" * 5000,  # nesting beyond the recursion limit
    b'{"id": 1, "delta": [[1]], "m": ' + b"1" * 5000 + b"}",  # int digit limit
]
HOSTILE_IDS = ["invalid_utf8", "deep_nesting", "huge_int"]


def no_traceback(result):
    return result.exception is None or isinstance(result.exception, SystemExit)


class TestHostileInput:
    @pytest.mark.parametrize("line", HOSTILE_LINES, ids=HOSTILE_IDS)
    def test_filter_turns_line_into_error_record(self, runner, tmp_path, line):
        inp = tmp_path / "in.jsonl"
        inp.write_bytes(STREAM.encode() + line + b"\n" + STREAM.encode())
        out = tmp_path / "out.jsonl"
        result = runner.invoke(main, ["filter", "--input", str(inp), "--output", str(out)])
        assert no_traceback(result)
        assert result.exit_code == 2
        records = [json.loads(l) for l in out.read_text().splitlines()]
        assert len(records) == 7
        assert records[3]["error"].startswith("invalid")
        assert [r["identified"] for r in records[4:]] == [True, False, True]

    @pytest.mark.parametrize("line", HOSTILE_LINES, ids=HOSTILE_IDS)
    def test_check_jsonl_exits_2(self, runner, tmp_path, line):
        path = tmp_path / "draw.jsonl"
        path.write_bytes(line + b"\n")
        result = runner.invoke(main, ["check", "--input", str(path), "--format", "jsonl"])
        assert no_traceback(result)
        assert result.exit_code == 2
        assert "error: invalid" in result.output


byte_lines = st.lists(
    st.one_of(
        st.binary(max_size=40),
        st.sampled_from(HOSTILE_LINES + [l.encode() for l in STREAM.splitlines()]),
    ).map(lambda b: b.replace(b"\n", b"")),
    max_size=6,
)


@given(byte_lines)
@example([b"\x80", b"", b" \r", b"\xef\xbb\xbf{}"])
@example([b"1 0\r0 1", b"\x0b1\x0c1", b"# 11 \xff", b"0 1 "])
@settings(max_examples=80, deadline=None)
def test_arbitrary_bytes_never_crash(lines):
    data = b"\n".join(lines) + b"\n"
    runner = Runner()
    with tempfile.TemporaryDirectory() as tmp:
        inp = os.path.join(tmp, "in.jsonl")
        out = os.path.join(tmp, "out.jsonl")
        with open(inp, "wb") as f:
            f.write(data)
        result = runner.invoke(main, ["filter", "--input", inp, "--output", out])
        assert no_traceback(result)
        assert result.exit_code in (0, 1, 2)
        with open(out, "rb") as f:
            records = f.read().splitlines()
        assert len(records) == sum(1 for line in lines if line.strip())
        result = runner.invoke(main, ["check", "--input", inp, "--format", "jsonl"])
        assert no_traceback(result)
        assert result.exit_code in (0, 1, 2)
        result = runner.invoke(main, ["check", "--input", inp])
        assert no_traceback(result)
        assert result.exit_code in (0, 1, 2)


@given(st.integers(), st.text())
@example(-1, "²")
@example(10**40, "9" * 5000)
@settings(max_examples=80, deadline=None)
def test_arbitrary_arguments_never_crash(s, delete_spec):
    runner = Runner()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "demo.txt")
        with open(path, "w") as f:
            f.write(MINCUT_DEMO_TEXT)
        for args in (
            ["check", "--input", path, "--s", str(s)],
            ["witness", "--input", path, "--delete", delete_spec],
        ):
            result = runner.invoke(main, args)
            assert no_traceback(result)
            assert result.exit_code in (0, 1, 2)
            if result.exit_code == 2:
                assert result.stderr.startswith("error: ")
