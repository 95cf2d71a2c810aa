"""The error contract: every exception the package raises is a FactorIdError.

Argument errors are also the built-in exception they used to be, so callers
that catch ValueError or IndexError keep working.
"""

import ast
import builtins
import sys
from pathlib import Path

import numpy as np
import pytest

import factorid
from factorid import cli
from factorid.errors import FactorIdError, InvalidArgumentError, ParseError
from factorid.identify import (
    Matching,
    counting_rule,
    counting_rule_bruteforce,
    counting_rule_s1,
    rcm_decomposition,
    variance_identified,
)
from factorid.pattern import (
    SparsityPattern,
    TrimReport,
    parse_jsonl_record,
    parse_pattern,
    trim,
)

P = SparsityPattern.from_rows([[1, 0], [0, 1], [1, 1]])

# one row per raise site that used to throw a plain built-in, or nothing, or
# returned a verdict; ParseError rows name no built-in, since it is none
BAD_CALLS = {
    "counting_rule_negative_s": (ValueError, lambda: counting_rule(P, -1)),
    "bruteforce_negative_s": (ValueError, lambda: counting_rule_bruteforce(P, -1)),
    "variance_identified_negative_s": (ValueError, lambda: variance_identified(P, -1)),
    "counting_rule_fractional_s": (ValueError, lambda: counting_rule(P, 1.5)),
    "bruteforce_fractional_s": (ValueError, lambda: counting_rule_bruteforce(P, 1.5)),
    "variance_identified_fractional_s": (ValueError, lambda: variance_identified(P, 1.5)),
    "variance_identified_str_s": (ValueError, lambda: variance_identified(P, "1")),
    "rcm_decomposition_row_out_of_range": (IndexError, lambda: rcm_decomposition(P, {3})),
    "rcm_decomposition_float_row": (ValueError, lambda: rcm_decomposition(P, {1.0})),
    "rcm_decomposition_str_row": (ValueError, lambda: rcm_decomposition(P, {"a"})),
    "rcm_decomposition_none_row": (ValueError, lambda: rcm_decomposition(P, [None])),
    "pattern_entry_not_0_1": (ValueError, lambda: SparsityPattern(((1, 2),))),
    "parse_pattern_unknown_format": (ValueError, lambda: parse_pattern("1", "csv")),
    "parse_pattern_lone_surrogate": (ParseError, lambda: parse_pattern("1 \ud800\n")),
    "parse_jsonl_lone_surrogate": (
        ParseError, lambda: parse_pattern('{"id": "\ud800", "delta": [[1]]}', "jsonl_record"),
    ),
    "matching_reuses_endpoint": (ValueError, lambda: Matching(frozenset({(0, 0), (1, 0)}))),
    "row_spec_bad_label": (ValueError, lambda: cli._parse_row_spec("vx", 3)),
    "row_spec_out_of_range": (IndexError, lambda: cli._parse_row_spec("v4", 3)),
    "trim_report_negative_row": (IndexError, lambda: TrimReport((), (-1,), 3, 2, 2, 2).kept_rows),
    "trim_report_row_m": (IndexError, lambda: TrimReport((), (5,), 3, 2, 2, 2).kept_rows),
    "trim_report_repeated_row": (ValueError, lambda: TrimReport((), (1, 1), 3, 2, 1, 2).kept_rows),
    "trim_report_decreasing_rows": (
        ValueError, lambda: TrimReport((), (2, 0), 3, 2, 1, 2).kept_rows,
    ),
    "trim_report_fractional_row": (
        ValueError, lambda: TrimReport((), (1.5,), 3, 2, 2, 2).kept_rows,
    ),
    "parse_pattern_int": (ValueError, lambda: parse_pattern(5)),
    "parse_pattern_none": (ValueError, lambda: parse_pattern(None)),
    "parse_pattern_float": (ValueError, lambda: parse_pattern(3.0)),
    "parse_jsonl_record_int": (ValueError, lambda: parse_jsonl_record(5)),
    "parse_jsonl_record_none": (ValueError, lambda: parse_jsonl_record(None)),
    "parse_jsonl_record_float": (ValueError, lambda: parse_jsonl_record(3.0)),
    "parse_jsonl_record_utf16_bytearray": (
        ParseError,
        lambda: parse_jsonl_record(bytearray('{"id": 1, "delta": [[1]]}'.encode("utf-16"))),
    ),
    "bruteforce_str_max_columns": (
        ValueError, lambda: counting_rule_bruteforce(P, 1, max_columns="a"),
    ),
    "trim_report_column_r": (IndexError, lambda: TrimReport((2,), (), 3, 2, 3, 1).kept_columns),
    "trim_report_repeated_column": (
        ValueError, lambda: TrimReport((0, 0), (), 3, 2, 3, 1).kept_columns,
    ),
    "matching_pair_of_one": (ValueError, lambda: Matching(frozenset({(0,)}))),
    "matching_str_pair": (ValueError, lambda: Matching(frozenset({"ab"}))),
    "matching_fractional_column": (ValueError, lambda: Matching(frozenset({(0.5, 1)}))),
    "matching_none": (ValueError, lambda: Matching(None)),
    "pattern_none": (ValueError, lambda: SparsityPattern(None)),
    "pattern_int": (ValueError, lambda: SparsityPattern(5)),
    "pattern_none_row": (ValueError, lambda: SparsityPattern(((1,), None))),
    "pattern_array_cell": (ValueError, lambda: SparsityPattern(((np.array([1, 0]),),))),
    "from_rows_int_row": (ValueError, lambda: SparsityPattern.from_rows([[1], 5])),
    "variance_identified_list_pattern": (ValueError, lambda: variance_identified([[1]])),
    "counting_rule_list_pattern": (ValueError, lambda: counting_rule([[1]], 1)),
    "counting_rule_s1_none_pattern": (ValueError, lambda: counting_rule_s1(None)),
    "bruteforce_list_pattern": (ValueError, lambda: counting_rule_bruteforce([[1]], 1)),
    "trim_none_pattern": (ValueError, lambda: trim(None)),
    "rcm_decomposition_list_pattern": (ValueError, lambda: rcm_decomposition([[1]])),
    # range errors on indices with more digits than int-to-str allows
    "rcm_decomposition_huge_row": (IndexError, lambda: rcm_decomposition(P, [10**5000])),
    "trim_report_huge_column": (
        IndexError, lambda: TrimReport((10**5000,), (), 3, 2, 3, 1).kept_columns,
    ),
    # a row count with more digits than int-to-str allows or a mask can hold
    "trim_report_negative_row_huge_m": (
        IndexError, lambda: TrimReport((), (-1,), 10**5000, 2, 3, 1).kept_rows,
    ),
    "trim_report_huge_m": (ValueError, lambda: TrimReport((), (), 10**5000, 2, 3, 1).kept_rows),
}


@pytest.mark.parametrize("builtin, call", BAD_CALLS.values(), ids=BAD_CALLS.keys())
def test_bad_argument_raises_factorid_error_and_its_builtin(builtin, call):
    with pytest.raises(builtin) as info:
        call()
    assert isinstance(info.value, FactorIdError)


def test_non_pattern_error_names_its_type():
    with pytest.raises(InvalidArgumentError, match="^pattern must be a SparsityPattern, got list$"):
        variance_identified([[1]])
    with pytest.raises(InvalidArgumentError, match="^pattern must be a SparsityPattern, got NoneType$"):
        trim(None)


BUILTIN_EXCEPTIONS = {
    name for name, obj in vars(builtins).items()
    if isinstance(obj, type) and issubclass(obj, BaseException)
}


def test_package_raises_no_builtin_exception():
    raised = []
    for path in sorted(Path(factorid.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue  # a bare `raise` re-raises what it caught
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id in BUILTIN_EXCEPTIONS:
                raised.append(f"{path.name}:{node.lineno} raises {exc.id}")
    assert raised == []


REFERENCES = ("oracles", "reference_cover")


def _imported_modules(path):
    """Dotted names of the modules a source file imports, one per imported
    name for `from x import y`, which may import module x.y."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""  # None for `from . import x`
            names += [base] + [f"{base}.{alias.name}" for alias in node.names]
    return names


def test_package_imports_no_test_reference():
    found = [
        f"{path.name} imports {name}"
        for path in sorted(Path(factorid.__file__).parent.glob("*.py"))
        for name in _imported_modules(path)
        if name.split(".")[0] in REFERENCES
    ]
    assert found == []


def test_s1_reference_shares_no_code_with_the_s1_route():
    shared = [
        name for name in _imported_modules(Path(__file__).with_name("reference_cover.py"))
        if name.startswith(("factorid.identify", "factorid._kernels"))
    ]
    assert shared == []


def test_package_imports_only_stdlib():
    found = [
        f"{path.name} imports {name}"
        for path in sorted(Path(factorid.__file__).parent.glob("*.py"))
        for name in _imported_modules(path)
        if name.split(".")[0] not in (*sys.stdlib_module_names, "factorid")
    ]
    assert found == []


RESULT_TYPES = {"Matching", "CountingRuleVerdict", "FailWitness", "PassWitness"}


def test_oracles_take_only_result_types_from_the_routes():
    """The references check the routes, so they import no kernel and, from
    the route modules, only the dataclasses the routes return."""
    shared = [
        name for name in _imported_modules(Path(__file__).with_name("oracles.py"))
        if name.startswith("factorid._kernels")
        or name.startswith("factorid.identify.")
        and name.rsplit(".", 1)[1] not in RESULT_TYPES
    ]
    assert shared == []
