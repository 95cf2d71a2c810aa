"""The package decides alike under every CPython >= 3.10 that pyenv holds.

The CI matrix lists Python 3.10, which a machine with one interpreter never
runs. This test runs a stdlib-only script, which needs neither click nor
numpy, under each pyenv interpreter from 3.10 on and compares its output
with the current interpreter's. pyenv's root is $PYENV_ROOT, or ~/.pyenv.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

# parse, trim, the rule at s = 0 and 2 and the full decision at s = 0..2 on
# fixed patterns: savetxt form, blanks and a comment, zero rows and a zero
# column, a failing one and a JSONL record; one repr per line
SCRIPT = r"""
import sys
sys.path.insert(0, sys.argv[1])
from factorid import counting_rule, parse_pattern, trim, variance_identified

TEXTS = [
    ("1 0 0\n0 1 0\n1 1 0\n1 0 1\n1 1 1\n0 0 1\n0 1 1\n0 1 0\n", "dense_text"),
    ("# padded\n0 0 0 0\n1\t1 0 0\n\n1 0 1 0\r\n0 0 0 0\n0 1 1 0\n1 1 1 0\n0 0 0 0\n0 0 1 0\n"
     "1 0 0 0\n0 1 0 0\n0 0 0 0\n", "dense_text"),
    ("1 0 0\n1 1 0\n0 1 1\n1 0 1\n0 1 0\n0 0 1\n", "dense_text"),
    ("0 0\n0 0\n", "dense_text"),
    ('{"id": 7, "delta": [[1, 1], [1, 0], [0, 1], [1, 1], [0, 0], [1, 0], [0, 1]]}',
     "jsonl_record"),
]
for text, fmt in TEXTS:
    p = parse_pattern(text, fmt)
    trimmed, report = trim(p)
    print(repr((p, trimmed, report)))
    if trimmed.r:
        print(repr([counting_rule(trimmed, s) for s in (0, 2)]))
    print(repr([variance_identified(p, s) for s in (0, 1, 2)]))
"""


def pyenv_interpreters() -> list[Path]:
    """python3 of every pyenv version named X.Y.Z with X.Y >= 3.10."""
    versions = Path(os.environ.get("PYENV_ROOT") or Path.home() / ".pyenv") / "versions"
    found = []
    for exe in sorted(versions.glob("*/bin/python3")):
        version = re.fullmatch(r"(\d+)\.(\d+)\.\d+", exe.parents[1].name)
        if version and (int(version[1]), int(version[2])) >= (3, 10):
            found.append(exe)
    return found


def run_script(exe) -> str:
    out = subprocess.run([str(exe), "-c", SCRIPT, SRC], capture_output=True, timeout=60)
    assert out.returncode == 0, out.stderr.decode(errors="replace")
    return out.stdout.decode()


def test_pyenv_interpreters_decide_alike():
    interpreters = pyenv_interpreters()
    if not interpreters:
        pytest.skip("no pyenv interpreter of Python 3.10 or later")
    expected = run_script(sys.executable)
    assert expected.count("\n") >= 14
    for exe in interpreters:
        assert run_script(exe) == expected, exe
