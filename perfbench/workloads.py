"""The four workloads: seeded inputs, the operations run on them, and the
independent check of every operation's output.

An operation is one call a user makes: a `factorid filter` process over a
draw stream, or one public-API call on one pattern. A workload's round is a
fixed list of operations; the benchmark repeats whole rounds, so every run of
a seed measures the same mix. Each operation belongs to variant "a" or "b"
(serial or `--parallel 2`, s=1 or s=0, ...), which the metrics report apart.
Inputs are built before timing starts. Reference answers come from
reference.py; those that need scipy are computed after the timed loop.
"""

import json
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import factorid
import factorid.cli
from reference import (
    draw_verdict,
    first_violation,
    s0_holds,
    s1_cut_value,
    touched_rows,
)

# Runs `factorid filter` as `python -m factorid.cli` would, and reports the
# process's own peak RSS (VmHWM) on exit. ru_maxrss cannot serve: it carries
# over the high-water mark of the process that spawned it.
_CLI_LAUNCHER = """
import atexit, runpy, sys

def report():
    with open("/proc/self/status") as f:
        kb = next(line.split()[1] for line in f if line.startswith("VmHWM:"))
    sys.stderr.write("vmhwm_kb " + kb + "\\n")

atexit.register(report)
runpy.run_module("factorid.cli", run_name="__main__", alter_sys=True)
"""
DRAWS = 1200
DRAW_SHAPE = (17, 8)
MALFORMED_SHARE = 0.01
LARGE_SHAPE = (1000, 50)
LARGE_DENSITY = 0.3
LARGE_PATTERNS = 8
# Slots come in groups of like cost, so that each latency quantile lands
# inside a group instead of on the edge between two: the median on the four
# middle slots, p90 on the two costliest, about a fifth of the operations.
DELETION_SLOTS = ((40, 0.3), (45, 0.4), (50, 0.4), (50, 0.4), (50, 0.4), (55, 0.4),
                  (50, 0.4), (60, 0.5), (60, 0.5))  # (m, density), r=6
DELETION_FAILING = (1, 5)
DELETION_S2_REPEATS = 4  # s=2 checks are short: repeat them for enough samples
ORACLE_COLUMNS = (14, 15, 17, 17, 18, 17, 17, 20, 20)  # m = 3r
ORACLE_FAILING = (1, 4)


@dataclass
class Op:
    """One timed call. `prep` builds its argument outside the timed region;
    `check` returns how many of its `units` of work came out wrong."""

    variant: str
    units: int
    run: Callable
    check: Callable
    prep: Callable | None = None


class Workload:
    # what each generic end-to-end metric means here, named for the report
    aliases: dict = {}
    total_alias = None
    # malformed input lines the CLI must report as error records, if any
    malformed = None

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def trace_ops(self, tracer) -> list[Op]:
        return self.ops()

    def peak_rss_kb(self, results) -> int | None:
        """Peak RSS of the process that did the work; None means this one."""
        return None


def _trimmed_random(rng, m, r, density):
    mat = rng.random((m, r)) < density
    for i in np.flatnonzero(~mat.any(axis=1)):
        mat[i, rng.integers(r)] = True
    for j in np.flatnonzero(~mat.any(axis=0)):
        mat[rng.integers(m), j] = True
    return mat.astype(np.uint8)


def _plant_block(mat, cols, rows):
    """Confine the given columns to the given rows, all ones there: together
    and in every subset they touch exactly len(rows) rows."""
    mat[:, cols] = 0
    mat[np.ix_(rows, cols)] = 1


def _refill_zero_rows(rng, mat, block_cols):
    free = np.setdiff1d(np.arange(mat.shape[1]), block_cols)
    for i in np.flatnonzero(~mat.any(axis=1)):
        mat[i, rng.choice(free)] = 1


def _pattern(mat) -> factorid.SparsityPattern:
    return factorid.SparsityPattern(tuple(map(tuple, mat.tolist())))


def _witness_ok(mat, witness, s) -> bool:
    cols = tuple(witness.columns)
    if not cols:
        return False
    count = touched_rows(mat, cols)
    return count == witness.nonzero_rows and count < 2 * len(cols) + s


class FilterStream(Workload):
    """`factorid filter` as a subprocess on a stream of 17x8 draws, serial
    (variant a) and with --parallel 2 (variant b)."""

    aliases = {
        "ops_per_s": "filter.draws_per_s",
        "alt_ops_per_s": "filter.parallel_draws_per_s",
        "peak_rss_mb": "filter.peak_rss_mb",
        "p50_ms": "filter.serial_stream_p50_ms",
        "p90_ms": "filter.serial_stream_p90_ms",
        "alt_p50_ms": "filter.parallel_stream_p50_ms",
        "alt_p90_ms": "filter.parallel_stream_p90_ms",
    }

    def __init__(self, rng, workdir: Path, env: dict):
        self.workdir = workdir
        self.env = env
        lines, self.expected = self._draw_stream(rng)
        self.malformed = sum(1 for e in self.expected if e is None)
        self.stream = workdir / "draws.jsonl"
        self.stream.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        self.outputs = 0
        self.canonical = None
        self.canonical_failed = 0

    @staticmethod
    def _draw_stream(rng):
        """Criterion-13 draws: per-column density U(0,1), each column zeroed
        with probability 0.25. About 1% of lines are malformed in one of four
        ways, each of which the CLI must turn into an error record."""
        m, r = DRAW_SHAPE
        bad = set(rng.choice(DRAWS, max(1, round(MALFORMED_SHARE * DRAWS)), replace=False).tolist())
        lines, expected = [], []
        for i in range(DRAWS):
            probs = rng.uniform(0, 1, size=r) * (rng.random(r) < 0.75)
            delta = (rng.random((m, r)) < probs).astype(int).tolist()
            record = {"id": i, "delta": delta}
            if i in bad:
                kind = len([b for b in bad if b < i]) % 4
                if kind == 0:
                    delta[rng.integers(m)][rng.integers(r)] = 2
                elif kind == 1:
                    delta[rng.integers(1, m)].pop()
                elif kind == 2:
                    del record["id"]
                else:
                    record["m"] = m - 1
                expected.append(None)
            else:
                expected.append(draw_verdict(delta))
            lines.append(json.dumps(record))
        return lines, expected

    def _line_ok(self, i, line) -> bool:
        try:
            rec = json.loads(line)
        except ValueError:
            return False
        if not isinstance(rec, dict) or set(rec) != {
            "id", "effective_r", "identified", "mwvc_weight", "error"
        }:
            return False
        exp = self.expected[i]
        if exp is None:
            return (
                rec["id"] is None and rec["effective_r"] is None
                and rec["identified"] is None and rec["mwvc_weight"] is None
                and isinstance(rec["error"], str) and rec["error"] != ""
            )
        eff, identified, weight = exp
        return (
            rec["id"] == i and rec["error"] is None and rec["effective_r"] == eff
            and rec["identified"] is identified and rec["mwvc_weight"] == weight
        )

    def check(self, out) -> int:
        """Wrong draws in one filter output: every draw when the exit code is
        not 2 (some lines are malformed) or the line count is off."""
        code, path, _ = out
        data = path.read_bytes()
        path.unlink()
        lines = data.decode("utf-8", "replace").splitlines()
        if code != 2 or len(lines) != DRAWS:
            return DRAWS
        if data == self.canonical:
            return self.canonical_failed
        failed = sum(1 for i, line in enumerate(lines) if not self._line_ok(i, line))
        if self.canonical is None:
            self.canonical, self.canonical_failed = data, failed
        else:  # serial and --parallel output must be byte-identical
            failed = max(failed, sum(
                1 for a, b in zip(lines, self.canonical.decode().splitlines()) if a != b
            ))
        return failed

    def _out_path(self) -> Path:
        self.outputs += 1
        return self.workdir / f"out-{self.outputs}.jsonl"

    def _subprocess(self, extra):
        def run(_):
            out = self._out_path()
            proc = subprocess.run(
                [sys.executable, "-c", _CLI_LAUNCHER, "filter",
                 "--input", str(self.stream), "--output", str(out), *extra],
                env=self.env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True,
            )
            last = proc.stderr.splitlines()[-1:] or [""]
            rss = int(last[0].split()[1]) if last[0].startswith("vmhwm_kb ") else None
            return proc.returncode, out, rss
        return run

    def ops(self):
        return [
            Op("a", DRAWS, self._subprocess([]), self.check),
            Op("b", DRAWS, self._subprocess(["--parallel", "2"]), self.check),
        ]

    def trace_ops(self, tracer):
        """The serial filter in this process, through `factorid.cli.main`,
        so that its spans can be recorded."""
        def run(_):
            out = self._out_path()
            try:
                factorid.cli.main(
                    ["filter", "--input", str(self.stream), "--output", str(out)],
                    standalone_mode=False,
                )
                code = 0
            except SystemExit as e:
                code = e.code
            return code, out, None

        if tracer is not None:
            run = tracer.wrap("cli.filter", run)
        return [Op("a", DRAWS, run, self.check)]

    def peak_rss_kb(self, results):
        """Largest peak RSS of the --parallel 2 filter processes."""
        return max(
            (out[2] for op, _, out, _ in results
             if op.variant == "b" and isinstance(out, tuple) and out[2] is not None),
            default=None,
        )


class CheckLarge(Workload):
    """Dense-text 1000x50 patterns: parse -> variance_identified (variant a,
    s=1) and parse -> trim -> counting_rule(., 0) (variant b, s=0)."""

    aliases = {
        "ops_per_s": "check.s1_per_s",
        "alt_ops_per_s": "check.s0_per_s",
        "p50_ms": "check.s1_p50_ms",
        "p90_ms": "check.s1_p90_ms",
        "alt_p50_ms": "check.s0_p50_ms",
        "alt_p90_ms": "check.s0_p90_ms",
        "peak_rss_mb": "check.peak_rss_mb",
    }

    def __init__(self, rng):
        self.cases = [self._case(rng, k % 4) for k in range(LARGE_PATTERNS)]

    @staticmethod
    def _case(rng, kind):
        """kind 0: plain; 1: planted zero rows and columns, so trim copies;
        2: a planted violating column block; 3: both."""
        m, r = LARGE_SHAPE
        mat = (rng.random((m, r)) < LARGE_DENSITY).astype(np.uint8)
        zero_cols = zero_rows = np.array([], dtype=int)
        if kind in (1, 3):
            zero_cols = rng.choice(r, 2, replace=False)
            zero_rows = rng.choice(m, 20, replace=False)
            mat[:, zero_cols] = 0
            mat[zero_rows, :] = 0
        if kind in (2, 3):
            cols = rng.choice(np.setdiff1d(np.arange(r), zero_cols), 3, replace=False)
            rows = rng.choice(np.setdiff1d(np.arange(m), zero_rows), 5, replace=False)
            _plant_block(mat, cols, rows)
        rows = mat.any(axis=1)
        cols = mat.any(axis=0)
        trimmed = mat[rows][:, cols]
        text = np.empty((m, 2 * r), dtype=np.uint8)
        text[:, 0::2] = mat + ord("0")
        text[:, 1::2] = ord(" ")
        text[:, -1] = ord("\n")
        return {
            "text": text.tobytes(),
            "mat": mat,
            "trimmed": trimmed,
            "kept_cols": np.flatnonzero(cols),
        }

    @staticmethod
    def _reference(case, key):
        """scipy's answers, computed on first use, after the timed loop."""
        if key not in case:
            case["cut"] = s1_cut_value(case["trimmed"])
            case["s0"] = s0_holds(case["trimmed"])
        return case[key]

    @staticmethod
    def _check_s1(case, v) -> int:
        r_eff = case["trimmed"].shape[1]
        cut = CheckLarge._reference(case, "cut")
        holds = cut >= r_eff * (2 * r_eff + 1)
        ok = (
            v.effective_r == r_eff and v.detail is not None
            and v.detail.mincut_value == cut and v.identified is holds
        )
        if ok and not holds:
            wf = v.detail.witness_fail
            ok = (
                wf is not None and set(wf.columns) <= set(case["kept_cols"].tolist())
                and _witness_ok(case["mat"], wf, 1)
            )
        return int(not ok)

    @staticmethod
    def _check_s0(case, out) -> int:
        report, verdict = out
        m_eff, r_eff = case["trimmed"].shape
        ok = (
            report.effective_m == m_eff and report.effective_r == r_eff
            and verdict.r == r_eff and verdict.holds is CheckLarge._reference(case, "s0")
        )
        if ok and not verdict.holds:
            ok = verdict.witness_fail is not None and _witness_ok(
                case["trimmed"], verdict.witness_fail, 0
            )
        return int(not ok)

    def ops(self):
        def s1(text):
            return factorid.variance_identified(factorid.parse_pattern(text))

        def s0(text):
            trimmed, report = factorid.trim(factorid.parse_pattern(text))
            return report, factorid.counting_rule(trimmed, 0)

        out = []
        for case in self.cases:
            text = case["text"]
            out.append(Op("a", 1, s1, lambda v, c=case: self._check_s1(c, v), lambda t=text: t))
            out.append(Op("b", 1, s0, lambda v, c=case: self._check_s0(c, v), lambda t=text: t))
        return out


class _RuleWorkload(Workload):
    """Trimmed patterns, each checked at two strengths s_a and s_b by one
    public function. Passing slots are redrawn until the naive scan passes
    them at the larger s, failing slots carry a planted violating block, so
    the mix of full sweeps and early exits is fixed by the slot layout."""

    function = ""
    strengths = (0, 0)
    failing = ()
    a_repeats = 1  # how often a round runs each variant-a operation

    def __init__(self, rng):
        self.cases = []
        for k, (m, r, density) in enumerate(self.slots()):
            failing = k in self.failing
            while True:
                mat = _trimmed_random(rng, m, r, density)
                if failing:
                    cols, rows = self.block(rng, m, r)
                    _plant_block(mat, cols, rows)
                    _refill_zero_rows(rng, mat, cols)
                expect = {s: first_violation(mat, s) for s in self.strengths}
                if failing or expect[max(self.strengths)] is None:
                    break
            self.cases.append((mat, expect))

    def _check(self, mat, s, expect, v) -> int:
        ok = v.r == mat.shape[1] and v.s == s and v.holds is (expect is None)
        if ok and not v.holds:
            ok = v.witness_fail is not None and _witness_ok(mat, v.witness_fail, s)
        return int(not ok)

    def ops(self):
        out = []
        for mat, expect in self.cases:
            entries = tuple(map(tuple, mat.tolist()))
            for variant, s in zip("ab", self.strengths):
                out.append(Op(
                    variant, 1,
                    lambda p, s=s: getattr(factorid, self.function)(p, s),
                    lambda v, mat=mat, s=s, e=expect[s]: self._check(mat, s, e, v),
                    lambda entries=entries: factorid.SparsityPattern(entries),
                ))
        return out + [op for op in out if op.variant == "a"] * (self.a_repeats - 1)


class RuleDeletion(_RuleWorkload):
    """counting_rule at s=2 (variant a) and s=3 (variant b), r=6, m=40..60:
    only the s>=2 row-deletion route of `identify` runs."""

    function = "counting_rule"
    strengths = (2, 3)
    failing = DELETION_FAILING
    a_repeats = DELETION_S2_REPEATS
    aliases = {
        "ops_per_s": "deletion.s2_checks_per_s",
        "alt_ops_per_s": "deletion.s3_checks_per_s",
        "p50_ms": "deletion.s2_p50_ms",
        "p90_ms": "deletion.s2_p90_ms",
        "alt_p50_ms": "deletion.s3_p50_ms",
        "alt_p90_ms": "deletion.s3_p90_ms",
        "peak_rss_mb": "deletion.peak_rss_mb",
    }
    total_alias = "deletion.checks_per_s"

    def slots(self):
        return [(m, 6, density) for m, density in DELETION_SLOTS]

    @staticmethod
    def block(rng, m, r):
        """2 random columns in 5 rows from the middle on: fails s=2 and s=3,
        and the sweep, which deletes rows in ascending order, always finds
        that halfway through."""
        return rng.choice(r, 2, replace=False), np.arange(m // 2, m // 2 + 5)


class OracleSweep(_RuleWorkload):
    """counting_rule_bruteforce at s=0 (variant a) and s=1 (variant b) on
    r=14..20, m=3r: the exhaustive `counting_sweep` kernel does the work.
    The returned witness must be the first violating subset in the sweep's
    documented order, and the verdicts must agree with counting_rule_s0/s1."""

    function = "counting_rule_bruteforce"
    strengths = (0, 1)
    failing = ORACLE_FAILING
    aliases = {
        "ops_per_s": "oracle.s0_checks_per_s",
        "alt_ops_per_s": "oracle.s1_checks_per_s",
        "p50_ms": "oracle.s0_p50_ms",
        "p90_ms": "oracle.s0_p90_ms",
        "alt_p50_ms": "oracle.s1_p50_ms",
        "alt_p90_ms": "oracle.s1_p90_ms",
        "peak_rss_mb": "oracle.peak_rss_mb",
    }
    total_alias = "oracle.checks_per_s"

    def __init__(self, rng):
        super().__init__(rng)
        polynomial = (factorid.counting_rule_s0, factorid.counting_rule_s1)
        self.routes_agree = all(
            polynomial[s](_pattern(mat)).holds is (expect[s] is None)
            for mat, expect in self.cases for s in self.strengths
        )

    def slots(self):
        return [(3 * r, r, 0.3) for r in ORACLE_COLUMNS]

    @staticmethod
    def block(rng, m, r):
        """The last 4 columns in 7 random rows: every smaller subset of them
        passes, the 4 fail s=0 and s=1, so the sweep stops at a fixed rank."""
        return np.arange(r - 4, r), rng.choice(m, 7, replace=False)

    def _check(self, mat, s, expect, v) -> int:
        if not self.routes_agree:
            return 1
        if expect is not None and v.witness_fail is not None:
            if tuple(v.witness_fail.columns) != expect[0]:
                return 1
        return super()._check(mat, s, expect, v)


WORKLOADS = {
    "filter_stream": FilterStream,
    "check_large": CheckLarge,
    "rule_deletion": RuleDeletion,
    "oracle_sweep": OracleSweep,
}
