import importlib.util
import inspect
import re
from pathlib import Path

import factorid
from factorid.cli import _parser, main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
API_SECTION = README.split("## Python API", 1)[1].split("\n## ", 1)[0]
API_PROSE = re.sub(r"```.*?```", "", API_SECTION, flags=re.S)  # code blocks out
# the command names, as the usage line lists them: `factorid [-h] {check,...} ...`
COMMANDS = re.search(r"\{(.*?)\}", _parser().format_usage()).group(1).split(",")


def test_every_exported_function_is_named_in_readme():
    functions = [
        name for name in factorid.__all__ if inspect.isfunction(getattr(factorid, name))
    ]
    assert functions
    assert [name for name in functions if not re.search(rf"\b{name}\b", README)] == []


def test_every_name_in_the_api_section_exists():
    # `p.attr` names a SparsityPattern attribute, `factorid.x` a module, and
    # any other `name` or `name(...)` an export, an error class or a command
    names = re.findall(r"`([A-Za-z_][\w.]*)", API_PROSE)
    assert names
    p = factorid.SparsityPattern.from_rows([[1]])
    missing = []
    for name in names:
        if name.startswith("p."):
            found = hasattr(p, name[2:])
        elif name.startswith("factorid."):
            found = importlib.util.find_spec(name) is not None
        else:
            found = (
                name in factorid.__all__ or hasattr(factorid.errors, name)
                or name in COMMANDS
            )
        if not found:
            missing.append(name)
    assert missing == []


def test_public_surface_is_pinned():
    assert sorted(factorid.__all__) == [
        "CountingRuleVerdict",
        "FactorIdError",
        "FailWitness",
        "IdentificationVerdict",
        "Matching",
        "PassWitness",
        "RcmDecomposition",
        "SparsityPattern",
        "TrimReport",
        "active_backend",
        "counting_rule",
        "counting_rule_bruteforce",
        "counting_rule_s0",
        "counting_rule_s1",
        "parse_pattern",
        "rcm_decomposition",
        "trim",
        "variance_identified",
    ]


def test_filter_example_is_what_filter_writes(tmp_path, runner):
    section = README.split("### filter", 1)[1].split("\n## ", 1)[0]
    line = re.search(r"Input lines look like\s+`([^`]*)`", section).group(1)
    documented = re.search(r"```json\n(.*?)\n```", section, flags=re.S).group(1)
    inp, out = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
    inp.write_text(line + "\n", encoding="utf-8")
    result = runner.invoke(main, ["filter", "--input", str(inp), "--output", str(out)])
    assert result.exit_code == 0
    assert out.read_bytes() == documented.encode() + b"\n"
