import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import MINCUT_DEMO_TEXT, COUNTEREXAMPLE_6X3
from factorid import cli
from factorid.cli import main

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


@pytest.fixture
def runner():
    return CliRunner()


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

    @pytest.mark.parametrize("value", ["abc", "9" * 5000])
    def test_option_click_rejects(self, runner, tmp_path, value):
        # not an integer, or past int()'s digit limit: click's own usage
        # error, not one `error:` line
        path = write(tmp_path, "pattern.txt", MINCUT_DEMO_TEXT)
        result = runner.invoke(main, ["check", "--input", path, "--s", value])
        assert result.exit_code == 2
        assert no_traceback(result) and "Traceback" not in result.output
        assert result.stdout == ""
        assert result.stderr.startswith("Usage: ")
        assert "Error: Invalid value for '--s': " in result.stderr

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
            ("v١", "bad row label '١'"),  # int() reads it as 1; not an ASCII label
            (long_label, f"row label v{long_label} out of range for m=8"),
            ("v0", "row label v0 out of range for m=8"),
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


def test_import_leaves_numpy_unloaded():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, factorid, factorid.cli; print('numpy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False"


def test_worker_count_clamped(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert [cli._worker_count(n) for n in (-5, 0, 1, 3, 4, 10**9)] == [1, 1, 1, 3, 4, 4]
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert cli._worker_count(8) == 1


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
@settings(max_examples=80, deadline=None)
def test_arbitrary_bytes_never_crash(lines):
    data = b"\n".join(lines) + b"\n"
    runner = CliRunner()
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


@given(st.integers(), st.text())
@example(-1, "²")
@example(10**40, "9" * 5000)
@settings(max_examples=80, deadline=None)
def test_arbitrary_arguments_never_crash(s, delete_spec):
    runner = CliRunner()
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
