import dataclasses
import functools
import hashlib
import itertools
import operator
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import group_ranks, random_pattern
from factorid.errors import (
    EmptyPatternError,
    TooManyColumnsError,
    UntrimmedPatternError,
)
from factorid import _kernels
from factorid.identify import (
    CountingRuleVerdict,
    FailWitness,
    PassWitness,
    _passed,
    counting_rule,
    counting_rule_bruteforce,
    counting_rule_s0,
    counting_rule_s1,
    rcm_decomposition,
    variance_identified,
)
from factorid.pattern import SparsityPattern, trim
from reference_cover import minimum_vertex_cover


def _base_matching(p):
    """The replica matching of p's columns, as the counting-rule routes run it."""
    return _kernels.hopcroft_karp(2 * p.r, p.m, p.col_masks * 2, range(2 * p.r))


STACKED_IDENTITIES = [
    [1, 0, 0], [0, 1, 0], [0, 0, 1],
    [1, 0, 0], [0, 1, 0], [0, 0, 1],
]


def trimmed_random(rng, max_m, max_r, density=None):
    d = density if density is not None else float(rng.uniform(0.15, 0.9))
    p, _ = trim(random_pattern(rng, int(rng.integers(1, max_m + 1)),
                               int(rng.integers(1, max_r + 1)), d))
    return p


def pad_with_zeros(rng, p):
    """p with up to three zero rows and two zero columns inserted at random."""
    m, r = p.m + int(rng.integers(0, 4)), p.r + int(rng.integers(0, 3))
    rows = sorted(rng.choice(m, p.m, replace=False).tolist())
    cols = sorted(rng.choice(r, p.r, replace=False).tolist())
    padded = [[0] * r for _ in range(m)]
    for i, row in zip(rows, p.entries):
        for j, v in zip(cols, row):
            padded[i][j] = v
    return SparsityPattern.from_rows(padded)


class TestBruteforce:
    def test_single_nonzero_loading(self):
        # (0, a, 0)^T: the lone factor can be folded into the noise term
        p, _ = trim(SparsityPattern.from_rows([[0], [1], [0]]))
        verdict = counting_rule_bruteforce(p, 1)
        assert not verdict.holds
        assert verdict.witness_fail.columns == (0,)
        assert verdict.witness_fail.nonzero_rows == 1

    def test_counterexample_pattern(self, counterexample_6x3):
        verdict = counting_rule_bruteforce(counterexample_6x3, 1)
        assert not verdict.holds
        assert verdict.witness_fail.columns == (0, 1, 2)
        assert verdict.witness_fail.nonzero_rows == 6

    def test_all_ones_s2(self):
        p = SparsityPattern.from_rows([[1, 1, 1]] * 8)
        assert counting_rule_bruteforce(p, 2).holds

    def test_column_cap(self):
        p = SparsityPattern.from_rows([[1] * 25] * 60)
        with pytest.raises(TooManyColumnsError):
            counting_rule_bruteforce(p, 1)
        assert counting_rule_bruteforce(p, 1, max_columns=25).holds

    def test_matches_direct_recount(self):
        rng = np.random.default_rng(83)
        for _ in range(200):
            p = trimmed_random(rng, 8, 4)
            if p.r == 0:
                continue
            for s in (0, 1, 2):
                assert counting_rule_bruteforce(p, s).holds == oracles.counting_rule_direct(p, s)


class TestS1:
    def test_demo_holds_with_value(self, mincut_demo_8x3):
        verdict = counting_rule_s1(mincut_demo_8x3)
        assert verdict.holds
        assert verdict.mincut_value == 21
        oracles.assert_s1_matches_mincut(mincut_demo_8x3, verdict)

    def test_counterexample_fails_with_full_witness(self, counterexample_6x3):
        verdict = counting_rule_s1(counterexample_6x3)
        assert not verdict.holds
        assert verdict.mincut_value == 18
        assert verdict.witness_fail.columns == (0, 1, 2)
        assert verdict.witness_fail.nonzero_rows == 6
        oracles.assert_s1_matches_mincut(counterexample_6x3, verdict)

    def test_single_column(self):
        p = SparsityPattern.from_rows([[1], [1], [1]])
        verdict = counting_rule_s1(p)
        assert verdict.holds and verdict.mincut_value == 3
        oracles.assert_s1_matches_mincut(p, verdict)

    def test_untrimmed_propagates(self):
        with pytest.raises(UntrimmedPatternError):
            counting_rule_s1(SparsityPattern.from_rows([[1], [0]]))

    def test_failing_witness_is_genuine(self):
        rng = np.random.default_rng(89)
        seen = 0
        while seen < 60:
            p = trimmed_random(rng, 10, 5, density=0.3)
            if p.r == 0:
                continue
            verdict = counting_rule_s1(p)
            assert verdict.holds == counting_rule_bruteforce(p, 1).holds
            oracles.assert_s1_matches_mincut(p, verdict)
            if verdict.holds:
                continue
            seen += 1
            wf = verdict.witness_fail
            q = len(wf.columns)
            assert oracles.touched_rows(p, wf.columns) == wf.nonzero_rows
            assert wf.nonzero_rows <= 2 * q  # violates the 2q+1 requirement


class TestS1FreeCopies:
    def test_deficient_patterns_match_mincut(self):
        """Patterns whose base matching leaves copies free (d > 0) fail, and
        the cover weight r(2r+1) - rd - |S*| and S* equal the min-cut's."""
        rng = np.random.default_rng(137)
        seen = 0
        while seen < 150:
            p = trimmed_random(rng, 14, 8, density=float(rng.uniform(0.1, 0.5)))
            if p.r == 0 or oracles.maximum_matching(oracles.duplicate_columns(p)).size == 2 * p.r:
                continue
            seen += 1
            verdict = counting_rule_s1(p)
            assert not verdict.holds
            oracles.assert_s1_matches_mincut(p, verdict)
            assert not counting_rule_bruteforce(p, 1).holds


class TestS0:
    def test_deletion_demo_remainder(self, deletion_demo_8x3):
        remainder = SparsityPattern(
            tuple(row for i, row in enumerate(deletion_demo_8x3.entries) if i not in (0, 5))
        )
        verdict = counting_rule_s0(remainder)
        assert verdict.holds
        assert verdict.witness_pass.matching.size == 6

    def test_identity_fails(self):
        p = SparsityPattern.from_rows(np.eye(3, dtype=int).tolist())
        verdict = counting_rule_s0(p)
        assert not verdict.holds
        wf = verdict.witness_fail
        assert oracles.touched_rows(p, wf.columns) == wf.nonzero_rows
        assert wf.nonzero_rows <= 2 * len(wf.columns) - 1

    def test_stacked_identities_hold(self):
        assert counting_rule_s0(SparsityPattern.from_rows(STACKED_IDENTITIES)).holds

    def test_untrimmed_propagates(self):
        with pytest.raises(UntrimmedPatternError):
            counting_rule_s0(SparsityPattern.from_rows([[1, 0], [1, 0]]))


class TestDispatcher:
    def test_routes(self, mincut_demo_8x3):
        assert counting_rule(mincut_demo_8x3, 0) == counting_rule_s0(mincut_demo_8x3)
        assert counting_rule(mincut_demo_8x3, 1) == counting_rule_s1(mincut_demo_8x3)

    def test_negative_s(self, mincut_demo_8x3):
        with pytest.raises(ValueError):
            counting_rule(mincut_demo_8x3, -1)
        with pytest.raises(ValueError):  # also where trimming leaves no column
            variance_identified(SparsityPattern.from_rows([[0, 0]]), -1)

    def test_numpy_integer_s(self, deletion_demo_8x3):
        for s in (0, 1, 2, 3):
            for verdict in (
                counting_rule(deletion_demo_8x3, np.int64(s)),
                counting_rule_bruteforce(deletion_demo_8x3, np.uint8(s)),
                variance_identified(deletion_demo_8x3, np.int32(s)).detail,
            ):
                assert type(verdict.s) is int and verdict.s == s
                assert verdict.holds == counting_rule(deletion_demo_8x3, s).holds

    def test_infeasible_dimensions_fail_for_s2(self, mincut_demo_8x3):
        # 8 = m < 2r+s = 9: the full column set is the witness
        verdict = counting_rule(mincut_demo_8x3, 3)
        assert not verdict.holds
        assert verdict.witness_fail == FailWitness(columns=(0, 1, 2), nonzero_rows=8)
        assert verdict.witness_pass is None and verdict.mincut_value is None

    def test_stacked_identities_s1_fails_without_raising(self):
        p = SparsityPattern.from_rows(STACKED_IDENTITIES)
        assert not counting_rule(p, 1).holds

    def test_all_ones_s2_holds(self):
        p = SparsityPattern.from_rows([[1, 1, 1]] * 8)
        verdict = counting_rule(p, 2)
        assert verdict.holds
        assert "8 deletions" in verdict.witness_pass.note

    def test_deletion_demo_fails_s2_with_column_witness(self, deletion_demo_8x3):
        verdict = counting_rule(deletion_demo_8x3, 2)
        assert not verdict.holds
        assert verdict.witness_fail.columns == (2,)
        assert verdict.witness_fail.deleted_rows == (0,)
        assert verdict.witness_fail.nonzero_rows == 3

    def test_more_than_a_million_deletions(self):
        # C(1415, 2) = 1,000,405 deletions of two rows; still one matching
        verdict = counting_rule(SparsityPattern.from_rows([[1, 1]] * 1415), 3)
        assert verdict.holds
        assert verdict.witness_pass.note == "all 1000405 deletions of 2 rows pass the s=1 rule"

    def test_note_past_the_int_to_str_limit(self):
        # C(2200, 1100) has 661 digits: the note names it instead of raising
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            p = SparsityPattern.from_rows([[1]] * 2200)
            verdict = counting_rule(p, 1101)
            assert verdict == oracles.counting_rule_per_column(p, 1101)
            assert verdict.witness_pass.note == (
                "all C(2200, 1100) deletions of 1100 rows pass the s=1 rule"
            )
            verdict = counting_rule(SparsityPattern.from_rows([[1, 1]] * 1415), 3)
            assert verdict.witness_pass.note == "all 1000405 deletions of 2 rows pass the s=1 rule"
        finally:
            sys.set_int_max_str_digits(limit)

    def test_emptied_column_detected(self):
        # deleting the two rows of column 2 empties it
        rows = [[1, 1, 0]] * 8 + [[1, 0, 1], [0, 1, 1]]
        p = SparsityPattern.from_rows(rows)
        verdict = counting_rule(p, 3)
        assert not verdict.holds
        assert verdict.witness_fail.columns == (2,)

    def test_matches_bruteforce_small(self):
        rng = np.random.default_rng(97)
        checked = 0
        while checked < 150:
            p = trimmed_random(rng, 9, 3, density=float(rng.uniform(0.3, 0.95)))
            if p.r == 0:
                continue
            for s in (2, 3):
                assert counting_rule(p, s).holds == counting_rule_bruteforce(p, s).holds
            checked += 1


def random_s2_case(rng):
    """A trimmed pattern and an s in 2..4 with m >= 2r+s, often m = 2r+s."""
    while True:
        s = int(rng.integers(2, 5))
        r = int(rng.integers(1, 4))
        m = 2 * r + s + int(rng.integers(0, 3))
        p, _ = trim(random_pattern(rng, m, r, float(rng.uniform(0.15, 0.7))))
        if p.r and p.m >= 2 * p.r + s:
            return p, s


class TestReplicaMatching:
    """The s >= 2 route: one matching per column on column replicas."""

    def test_matches_both_oracles(self):
        rng = np.random.default_rng(103)
        at_bound = 0
        for _ in range(300):
            p, s = random_s2_case(rng)
            at_bound += p.m == 2 * p.r + s
            expected = counting_rule_bruteforce(p, s).holds
            assert oracles.counting_rule_by_deletion(p, s) == expected
            assert counting_rule(p, s).holds == expected
        assert at_bound >= 50

    def test_failing_witness_is_checkable(self):
        rng = np.random.default_rng(107)
        failing = 0
        while failing < 200:
            p, s = random_s2_case(rng)
            verdict = counting_rule(p, s)
            if verdict.holds:
                continue
            failing += 1
            wf = verdict.witness_fail
            q = len(wf.columns)
            dense = np.array(p.entries, dtype=bool)
            assert len(wf.deleted_rows) == s - 1
            assert wf.nonzero_rows == int(dense[:, list(wf.columns)].any(axis=1).sum())
            assert wf.nonzero_rows < 2 * q + s
            kept = np.delete(dense, list(wf.deleted_rows), axis=0)
            assert kept[:, list(wf.columns)].any(axis=1).sum() <= 2 * q
            if kept.any(axis=0).all():
                remainder = SparsityPattern.from_rows(kept.astype(int).tolist())
                assert not counting_rule_s1(remainder).holds

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_equivalence_property(self, data):
        s = data.draw(st.integers(2, 4))
        r = data.draw(st.integers(1, 3))
        m = data.draw(st.integers(2 * r + s, 2 * r + s + 2))
        rows = data.draw(st.lists(
            st.lists(st.integers(0, 1), min_size=r, max_size=r), min_size=m, max_size=m
        ))
        p, _ = trim(SparsityPattern.from_rows(rows))
        if p.r == 0 or p.m < 2 * p.r + s:
            return
        expected = counting_rule_bruteforce(p, s).holds
        assert oracles.counting_rule_by_deletion(p, s) == expected
        assert counting_rule(p, s).holds == expected


class TestCanonicalWitness:
    """A failing s=0 or s >= 2 verdict names the intersection of all column
    sets S that maximize sum(w_j for j in S) - |N(S)|, with w_j = 2 plus s
    on the first column j whose maximum is positive (none for s=0): the
    witness depends neither on the order of the copies nor on the matching."""

    def test_fail_witness_is_least_maximizer(self):
        rng = np.random.default_rng(3)
        failing = {0: 0, 2: 0, 3: 0}
        for _ in range(4000):
            p = trimmed_random(rng, 18, 6)
            if p.r == 0:
                continue
            for s in failing:
                if s and p.m < 2 * p.r + s:
                    continue
                expected = None
                for j in range(p.r if s else 1):
                    weights = [2 + s * (k == j) for k in range(p.r)]
                    best, meet = oracles.least_maximizer(p.col_masks, weights)
                    if best > 0:
                        expected = meet
                        break
                verdict = counting_rule(p, s)
                assert verdict.holds == (expected is None)
                if expected is not None:
                    failing[s] += 1
                    assert verdict.witness_fail.columns == expected
        assert min(failing.values()) >= 200, failing


def columns_on(m, cols):
    """The m-row pattern whose column k loads on the rows in cols[k]."""
    return SparsityPattern.from_rows([[int(i in c) for c in cols] for i in range(m)])


class TestColumnsWithFreeRows:
    """Given a perfect base matching, a column with at least s free rows
    passes without an augmenting search: each search would match its copy
    to one of those rows at its first step."""

    def test_no_search_when_every_column_has_s_free_rows(self, monkeypatch):
        # the base matching takes rows 0, 1 for column 0 and rows 5, 6 for
        # column 1, which leaves each column at least three free rows
        p = columns_on(12, [range(0, 7), range(5, 12)])

        def no_search(*args, **kwargs):
            raise AssertionError("augmenting search run")

        monkeypatch.setattr("factorid._kernels.alternating_reach", no_search)
        for s, deletions in ((2, "all 12 deletions of 1 rows"), (3, "all 66 deletions of 2 rows")):
            assert counting_rule(p, s) == CountingRuleVerdict(
                r=2, s=s, holds=True,
                witness_pass=PassWitness(note=f"{deletions} pass the s=1 rule"),
            )
            assert counting_rule_bruteforce(p, s).holds

    def test_short_base_matching_keeps_the_first_column(self):
        """Columns 2 and 3 share three rows, so the base matching is short,
        and column 0 still has four free rows. Column 0 fails first and
        names {2, 3}; grown by copies of column 1 instead, whose three rows
        are its own, the witness would be {1, 2, 3}."""
        p = columns_on(12, [range(0, 6), range(9, 12), range(6, 9), range(6, 9)])
        assert _base_matching(p)[0] == 7
        for s, deleted in ((2, (6,)), (3, (6, 7))):
            assert counting_rule(p, s).witness_fail == FailWitness(
                columns=(2, 3), nonzero_rows=3, deleted_rows=deleted,
            )

    def test_free_rows_settle_what_the_degrees_leave_open(self, monkeypatch):
        # degrees 5 and 5 miss d_2 >= 6, but each column keeps three free rows
        p = columns_on(10, [range(0, 5), range(5, 10)])
        assert not degree_bound(p, 2)

        def no_search(*args, **kwargs):
            raise AssertionError("augmenting search run")

        monkeypatch.setattr("factorid._kernels.alternating_reach", no_search)
        assert counting_rule(p, 2) == CountingRuleVerdict(
            r=2, s=2, holds=True,
            witness_pass=PassWitness(note="all 10 deletions of 1 rows pass the s=1 rule"),
        )


class TestSettledWork:
    """Work a check has done is not done again: with a perfect base matching
    the failed search's reach is König's (S, N(S)), and each shape's passing
    verdict is built once."""

    @staticmethod
    def counted_reach(monkeypatch):
        calls = []
        reach = _kernels.alternating_reach

        def counted(*args, **kwargs):
            calls.append(kwargs.get("starts"))
            return reach(*args, **kwargs)

        monkeypatch.setattr("factorid._kernels.alternating_reach", counted)
        return calls

    def test_failed_search_is_the_konig_walk(self, monkeypatch):
        """Columns 0 and 1 share rows 0-4, column 2 has rows 5-9. The base
        matching is perfect and leaves column 0 one free row: the first
        added copy takes it, the second finds no path, and its search
        reached S = {0, 1} on 5 rows, with no third walk."""
        p = columns_on(10, [range(0, 5), range(0, 5), range(5, 10)])
        assert _base_matching(p)[0] == 6
        calls = self.counted_reach(monkeypatch)
        for s, deleted in ((2, (0,)), (3, (0, 1))):
            calls.clear()
            verdict = counting_rule(p, s)
            assert calls == [(6,), (7,)]
            assert verdict.witness_fail == FailWitness(
                columns=(0, 1), nonzero_rows=5, deleted_rows=deleted,
            )
            assert verdict == oracles.counting_rule_per_column(p, s)

    def test_short_base_matching_takes_the_full_walk(self, monkeypatch):
        """Column 0 has one row, so a copy of it is free in the base
        matching and starts paths that no added copy's search starts: the
        walk from every free copy runs after the searches."""
        p = columns_on(10, [range(0, 1), range(1, 10)])
        assert _base_matching(p)[0] == 3 and p.m >= 2 * p.r + 3
        calls = self.counted_reach(monkeypatch)
        for s in (2, 3):
            calls.clear()
            verdict = counting_rule(p, s)
            assert calls == [(4,), None]
            assert verdict == oracles.counting_rule_per_column(p, s)
            assert verdict.witness_fail.columns == (0,)

    def test_pass_verdict_is_built_once_per_shape(self):
        # degrees 6 and 6 settle the first; the second needs its free rows
        by_degrees = columns_on(10, [range(0, 6), range(4, 10)])
        by_free_rows = columns_on(10, [range(0, 5), range(5, 10)])
        assert degree_bound(by_degrees, 2) and not degree_bound(by_free_rows, 2)
        verdict = counting_rule(by_degrees, 2)
        assert counting_rule(by_free_rows, 2) is verdict
        assert verdict == CountingRuleVerdict(
            r=2, s=2, holds=True,
            witness_pass=PassWitness(note="all 10 deletions of 1 rows pass the s=1 rule"),
        )
        assert _passed.cache_info().maxsize is not None
        with pytest.raises(dataclasses.FrozenInstanceError):
            verdict.holds = False
        with pytest.raises(dataclasses.FrozenInstanceError):
            verdict.witness_pass.note = "changed"

    def test_planted_blocks_at_large_r(self):
        rng = np.random.default_rng(331)
        reused = passing = 0
        for case in range(24):
            r, s = int(rng.integers(30, 61)), 2 + case % 3
            m = int(rng.integers(2 * r + s, 3 * r + 1))
            dense = rng.random((m, r)) < rng.uniform(0.08, 0.2)
            if case % 4:
                # q columns on 2q+s-1 rows
                cols = rng.choice(r, int(rng.integers(1, 4)), replace=False)
                dense[:, cols] = False
                rows = rng.choice(m, 2 * len(cols) + s - 1, replace=False)
                dense[np.ix_(rows, cols)] = rng.random((len(rows), len(cols))) < 0.8
            p, _ = trim(SparsityPattern.from_rows(dense.astype(int).tolist()))
            verdict = counting_rule(p, s)
            expected = oracles.counting_rule_per_column(p, s)
            assert verdict.holds == expected.holds
            if verdict.holds:
                passing += 1
            else:
                wf = verdict.witness_fail
                assert wf == expected.witness_fail
                assert oracles.touched_rows(p, wf.columns) == wf.nonzero_rows
                assert wf.nonzero_rows < 2 * len(wf.columns) + s
                reused += _base_matching(p)[0] == 2 * p.r
        assert reused >= 12 and passing >= 4, (reused, passing)


def degree_bound(p, s):
    """Whether the sorted column degrees d_1 <= ... <= d_r of p have d_q >=
    2q+s for every q: any q columns then include one on 2q+s rows."""
    degrees = sorted(mask.bit_count() for mask in p.col_masks)
    return all(d >= 2 * q + s for q, d in enumerate(degrees, 1))


def boundary_pattern(rng, q, s, dense):
    """q columns that together load on exactly 2q+s-1 rows, all of them,
    beside `dense` all-ones columns on 2(q+dense)+s+2 rows, shuffled: the
    rule fails at s, and d_k >= 2k+s-1 holds for every k."""
    r = q + dense
    m = 2 * r + s + 2
    block = set(rng.sample(range(m), 2 * q + s - 1))
    cols = [block] * q + [range(m)] * dense
    rng.shuffle(cols)
    return columns_on(m, cols)


def nested_pattern(rng, r, s):
    """r columns whose k-th smallest loads on 2k+s of 2r+s rows, the sets
    nested: the degree bound holds with equality at every q."""
    m = 2 * r + s
    order = rng.sample(range(m), m)
    cols = [order[: 2 * k + s] for k in range(1, r + 1)]
    rng.shuffle(cols)
    return columns_on(m, cols)


class TestDegreeBound:
    """At s >= 1, sorted column degrees with d_q >= 2q+s settle a pass
    before any matching; wherever they do, the verdict is the one brute
    force and the matching route give."""

    def matching_route(self, p, s):
        if s == 1:  # the pass that the min-cut reference implies
            return CountingRuleVerdict(r=p.r, s=1, holds=True, mincut_value=oracles.mincut_s1(p)[0])
        return oracles.counting_rule_per_column(p, s)

    def test_agrees_wherever_it_fires(self):
        rng = random.Random(331)
        fired = {1: 0, 2: 0, 3: 0}
        patterns = []
        for _ in range(300):
            r = 1 + rng.randrange(8)
            m = 2 * r + 3 + rng.randrange(2 * r + 4)
            density = 0.3 + 0.7 * rng.random()
            cells = [[int(rng.random() < density) for _ in range(r)] for _ in range(m)]
            p, _ = trim(SparsityPattern.from_rows(cells))
            if p.r:
                patterns.append(p)
        for s in (1, 2, 3):
            for _ in range(30):
                q = 1 + rng.randrange(3)
                patterns.append(boundary_pattern(rng, q, s, 1 + rng.randrange(4)))
                patterns.append(nested_pattern(rng, 1 + rng.randrange(6), s))
        for p in patterns:
            for s in (1, 2, 3):
                verdict = counting_rule(p, s)
                assert verdict.holds == counting_rule_bruteforce(p, s).holds
                if degree_bound(p, s):
                    fired[s] += 1
                    assert verdict.holds
                    assert verdict == self.matching_route(p, s)
                    if s == 1:
                        oracles.assert_s1_matches_mincut(p, verdict)
        assert min(fired.values()) >= 100, fired

    def test_boundary_blocks_fail(self):
        """q columns on 2q+s-1 rows meet d_k >= 2k+s-1 at every k but miss
        d_q >= 2q+s: the rule fails and names the block."""
        rng = random.Random(337)
        for s in (1, 2, 3):
            for q in (1, 2, 3):
                for dense in (1, 3):
                    p = boundary_pattern(rng, q, s, dense)
                    assert not degree_bound(p, s)
                    verdict = counting_rule(p, s)
                    assert not verdict.holds
                    assert not counting_rule_bruteforce(p, s).holds
                    assert verdict.witness_fail.nonzero_rows == 2 * q + s - 1
                    assert verdict.witness_fail.columns == tuple(
                        j for j, mask in enumerate(p.col_masks) if mask != (1 << p.m) - 1
                    )

    def test_dense_patterns_pass_without_the_kernel(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("Hopcroft-Karp run")

        monkeypatch.setattr(_kernels, "hopcroft_karp", refuse)
        # degrees 5, 7, 10 meet d_q >= 2q+3, and 2q+1, 2q+2 below it
        p = columns_on(10, [range(0, 5), range(3, 10), range(10)])
        padded = SparsityPattern.from_rows([[0, 0, 0, 0], *([0, *row] for row in p.entries)])
        ones = SparsityPattern.from_rows([[1, 1, 1]] * 9)
        for pattern, m, trimmed in ((p, 10, p), (padded, 10, p), (ones, 9, ones)):
            assert counting_rule_s1(trimmed) == CountingRuleVerdict(
                r=3, s=1, holds=True, mincut_value=21,
            )
            for s, deletions in ((1, None), (2, f"all {m} deletions of 1 rows"),
                                 (3, f"all {m * (m - 1) // 2} deletions of 2 rows")):
                expected = CountingRuleVerdict(
                    r=3, s=s, holds=True,
                    witness_pass=deletions and PassWitness(note=f"{deletions} pass the s=1 rule"),
                    mincut_value=21 if s == 1 else None,
                )
                assert counting_rule(trimmed, s) == expected
                assert variance_identified(pattern, s).detail == expected


class TestPerColumnReference:
    """Beyond brute force's reach: the base matching grown by augmenting
    searches gives the verdict of r fresh replica matchings, witness columns,
    row count, deleted rows and pass note included."""

    def test_equals_per_column_route(self):
        rng = np.random.default_rng(113)
        failing = passing = at_bound = 0
        for case in range(600):
            s = int(rng.integers(2, 5))
            r = int(rng.integers(1, 21))
            m = 2 * r + s if case % 4 == 0 else int(rng.integers(2 * r + s, 121))
            dense = rng.random((m, r)) < rng.uniform(0.05, 0.6)
            if case % 2:
                # q columns on 2q+s-1 rows: a violator that usually passes s=1,
                # so only the grown matchings expose it
                cols = rng.choice(r, int(rng.integers(1, min(r, 3) + 1)), replace=False)
                dense[:, cols] = False
                rows = rng.choice(m, 2 * len(cols) + s - 1, replace=False)
                dense[np.ix_(rows, cols)] = rng.random((len(rows), len(cols))) < 0.8
            p, _ = trim(SparsityPattern.from_rows(dense.astype(int).tolist()))
            if p.r == 0:
                continue
            verdict = counting_rule(p, s)
            assert verdict == oracles.counting_rule_per_column(p, s)
            if p.m >= 2 * p.r + s:
                failing += not verdict.holds
                passing += verdict.holds
                at_bound += p.m == 2 * p.r + s
        assert failing >= 200 and passing >= 100 and at_bound >= 40, (failing, passing, at_bound)

    def test_equals_per_column_route_at_m_1000(self):
        """1000x50 patterns, dense and sparse, with and without q=3 columns
        confined to 2q+s-1 rows (they pass s=1 and fail at s)."""
        rng = np.random.default_rng(127)
        verdicts = []
        for density in (0.3, 0.05):
            for s in (2, 3):
                for planted in (False, True):
                    dense = rng.random((1000, 50)) < density
                    if planted:
                        cols = rng.choice(50, 3, replace=False)
                        dense[:, cols] = False
                        dense[np.ix_(rng.choice(1000, 5 + s, replace=False), cols)] = True
                    p, _ = trim(SparsityPattern.from_rows(dense.astype(int).tolist()))
                    verdict = counting_rule(p, s)
                    assert verdict == oracles.counting_rule_per_column(p, s)
                    verdicts.append((planted, verdict.holds))
        assert verdicts == [(planted, not planted) for planted in (False, True)] * 4


def base_matching_cases(seed, n):
    """n patterns drawn from random() alone, whose stream Python keeps fixed
    across versions, four families in turn: r up to 12 on up to 3r+3 rows at
    any density; r up to 50 on 2r to 400 rows at densities around 2r/m;
    the same with q <= 3 columns confined to 2q-1 rows, so that copies stay
    free; and 1000x50 at density 0.3 (every other one with 3 columns
    confined to 5 rows) or 0.05."""
    rng = random.Random(seed)

    def below(k):
        return int(rng.random() * k)

    for case in range(n):
        family = case % 4
        if family == 0:
            r = 1 + below(12)
            m = 1 + below(3 * r + 3)
            density = rng.random()
        elif family < 3:
            r = 1 + below(50)
            m = 2 * r + below(401 - 2 * r)
            density = min(1.0, (0.5 + 2 * rng.random()) * 2 * r / m)
        else:
            r, m = 50, 1000
            density = 0.3 if case % 8 == 3 else 0.05
        cells = [[int(rng.random() < density) for _ in range(r)] for _ in range(m)]
        if family == 2 or case % 8 == 3:
            q = 3 if family == 3 else 1 + below(min(r, 3))
            cols = sorted({below(r) for _ in range(q)})
            rows = {below(m) for _ in range(2 * len(cols) - 1)}
            for i, row in enumerate(cells):
                for j in cols:
                    row[j] = int(i in rows)
        yield SparsityPattern(tuple(map(tuple, cells)))


# SHA-256 of repr((size, match_l, match_r)) of the replica matching over
# base_matching_cases(173, 240), computed with the Hopcroft-Karp that walked
# each column's row list edge by edge
BASE_MATCHING_DIGEST = "ec8eae1bb04fd786fdb1dcf5e27f3c0fdc9b62f14d0c5f80a68b2316b120d61c"


class TestBaseMatching:
    """The one replica matching that every route reads."""

    def test_output_is_pinned(self):
        digest = hashlib.sha256()
        short = 0
        for p in base_matching_cases(173, 240):
            size, match_l, match_r, free = _base_matching(p)
            assert free == sum(1 << i for i, u in enumerate(match_r) if u == -1)
            short += size < 2 * p.r
            digest.update(repr((size, match_l, match_r)).encode())
        assert short >= 100
        assert digest.hexdigest() == BASE_MATCHING_DIGEST

    def test_one_kernel_run_per_decision(self, monkeypatch, deletion_demo_8x3, mincut_demo_8x3):
        """counting_rule and variance_identified run Hopcroft-Karp once at
        every s, passing or failing, except at s >= 1 where the sorted
        column degrees d_q >= 2q+s settle a pass and it runs not at all.
        rcm_decomposition runs it once where enough rows are kept."""
        calls = []
        kernel = _kernels.hopcroft_karp

        def counted(*args):
            calls.append(args[0])
            return kernel(*args)

        monkeypatch.setattr(_kernels, "hopcroft_karp", counted)
        rng = np.random.default_rng(139)
        patterns = [deletion_demo_8x3, mincut_demo_8x3]
        patterns += [trimmed_random(rng, 16, 5, density=0.3) for _ in range(30)]
        outcomes = set()
        runs = set()
        for p in filter(lambda p: p.r, patterns):
            calls.clear()
            rcm_decomposition(p, {0})
            assert calls == ([2 * p.r] if p.m - 1 >= 2 * p.r else [])
            degrees = sorted(mask.bit_count() for mask in p.col_masks)
            for s in range(4):
                if p.m < 2 * p.r + s:
                    continue
                bound = s >= 1 and all(d >= 2 * q + s for q, d in enumerate(degrees, 1))
                for decide in (counting_rule, variance_identified):
                    calls.clear()
                    verdict = decide(p, s)
                    assert calls == ([] if bound else [2 * p.r]), (decide, s)
                    holds = verdict.holds if decide is counting_rule else verdict.identified
                    outcomes.add((s, holds))
                    runs.add(bound)
        assert outcomes == {(s, holds) for s in range(4) for holds in (False, True)}
        assert runs == {False, True}


def counting_rule_cases(seed, n):
    """n + 2 patterns drawn from random() alone, trimmed, those with a column
    kept: in turn r up to 8 on up to 3r+3 rows at any density, so that m <
    2r+s is common; r up to 20 on 2r to 5r+3 rows at densities around 2r/m;
    the same with q <= 3 columns confined to 2q to 2q+2 rows. The last two
    are 1000x50 at density 0.05, the second with such a confined block."""
    rng = random.Random(seed)

    def below(k):
        return int(rng.random() * k)

    for case in range(n + 2):
        if case >= n:
            r, m, density = 50, 1000, 0.05
        elif case % 3 == 0:
            r = 1 + below(8)
            m = 1 + below(3 * r + 4)
            density = rng.random()
        else:
            r = 1 + below(20)
            m = 2 * r + below(3 * r + 4)
            density = min(1.0, (0.5 + 2 * rng.random()) * 2 * r / m)
        cells = [[int(rng.random() < density) for _ in range(r)] for _ in range(m)]
        if case % 3 == 2 or case == n + 1:
            cols = sorted({below(r) for _ in range(1 + below(min(r, 3)))})
            rows = {below(m) for _ in range(2 * len(cols) + below(3))}
            for i, row in enumerate(cells):
                for j in cols:
                    row[j] = int(i in rows)
        p, _ = trim(SparsityPattern(tuple(map(tuple, cells))))
        if p.r:
            yield p


# SHA-256 of repr(counting_rule(p, s)) for s = 0..3 over
# counting_rule_cases(191, 600), computed with separate s=0 and s >= 2 bodies
COUNTING_RULE_DIGEST = "b668a8c13a306a7e097fccff0d72fec1cb7a6d7a086b755ec62fdcd5f79b07b5"


def test_counting_rule_output_is_pinned():
    """Verdicts, witnesses and notes at every s, failing ones and those of
    the m < 2r+s shortcut included, stay what they were."""
    digest = hashlib.sha256()
    failing, short, large = [0] * 4, [0] * 4, 0
    for p in counting_rule_cases(191, 600):
        large += p.m >= 900 and p.r == 50
        for s in range(4):
            verdict = counting_rule(p, s)
            failing[s] += not verdict.holds
            short[s] += p.m < 2 * p.r + s
            digest.update(repr(verdict).encode())
    assert min(failing) >= 100 and min(short[2:]) >= 100 and large == 2
    assert digest.hexdigest() == COUNTING_RULE_DIGEST


def test_every_9x3_pattern_up_to_order():
    """Every 9x3 pattern up to row and column order, trimmed, at s = 0..3,
    against brute force. `holds` depends on neither order, and every pattern
    has a column order whose row multiset, read in ascending row type, has
    non-increasing column masks: those 6,280 multisets meet every orbit.
    Brute force's verdict, first violator and its row count are the naive
    scan's. Each failing witness is recounted; at s=1 the cover weight and
    S* are the paper's min-cut's; at s >= 2, deleting its rows leaves its
    columns on at most 2|S| rows, and the verdict is the one a fresh
    matching per column gives, which names the first failing column's S."""
    checks = 0
    for rows in itertools.combinations_with_replacement(itertools.product((0, 1), repeat=3), 9):
        p = SparsityPattern(rows)
        if any(map(operator.lt, p.col_masks, p.col_masks[1:])):
            continue
        p, _ = trim(p)
        if not p.r:
            continue
        touched = functools.reduce(operator.or_, p.col_masks)
        for s in range(4):
            checks += 1
            verdict = counting_rule(p, s)
            brute = counting_rule_bruteforce(p, s)
            holds, first, count = oracles.first_violating_subset(p.col_masks, s)
            assert verdict.holds == brute.holds == holds, (rows, s)
            if not holds:
                bf = brute.witness_fail
                assert (bf.columns, bf.nonzero_rows) == (first, count), (rows, s)
            if s == 1:
                oracles.assert_s1_matches_mincut(p, verdict)
            if s >= 2:
                assert verdict == oracles.counting_rule_per_column(p, s), (rows, s)
            if verdict.holds:
                continue
            wf = verdict.witness_fail
            assert oracles.touched_rows(p, wf.columns) == wf.nonzero_rows < 2 * len(wf.columns) + s
            if s < 2 or p.m < 2 * p.r + s:
                # the m < 2r+s witness is the q = r case itself, with no deletion
                assert wf.deleted_rows is None
                continue
            deleted = sum(1 << i for i in wf.deleted_rows)
            assert deleted.bit_count() == len(wf.deleted_rows) == s - 1
            assert deleted & touched == deleted
            rest = functools.reduce(operator.or_, (p.col_masks[j] for j in wf.columns)) & ~deleted
            assert rest.bit_count() <= 2 * len(wf.columns)
    assert checks == 25_116


class TestGraphReference:
    """s=0 and rcm_decomposition share the replica matching; the public graph
    functions on the column-duplicated graph are the reference."""

    def test_replica_matching_equals_duplicated_graph(self):
        rng = np.random.default_rng(109)
        seen = {"pass": 0, "fail": 0, "split": 0, "none": 0}
        for _ in range(400):
            p = trimmed_random(rng, 12, 5)
            if p.r == 0:
                continue
            r = p.r
            doubled = oracles.duplicate_columns(p)
            mm = oracles.maximum_matching(doubled)
            verdict = counting_rule_s0(p)
            if verdict.holds:
                seen["pass"] += 1
                assert verdict.witness_pass.matching == mm
            else:
                seen["fail"] += 1
                cover = minimum_vertex_cover(doubled, mm)
                assert verdict.witness_fail.columns == tuple(
                    j for j in range(r) if j not in cover.cols or j + r not in cover.cols
                )
            n_deleted = int(rng.integers(0, min(3, p.m) + 1))
            deleted = frozenset(rng.choice(p.m, size=n_deleted, replace=False).tolist())
            kept = [i for i in range(p.m) if i not in deleted]
            remainder = SparsityPattern(tuple(p.entries[i] for i in kept))
            ref = oracles.maximum_matching(oracles.duplicate_columns(remainder))
            dec = rcm_decomposition(p, deleted)
            if len(kept) < 2 * r or ref.size < 2 * r:
                seen["none"] += 1
                assert dec is None
                continue
            seen["split"] += 1
            col_to_row = dict(ref.pairs)
            assert dec.rows_a == tuple(kept[col_to_row[j]] for j in range(r))
            assert dec.rows_b == tuple(kept[col_to_row[j + r]] for j in range(r))
            assert dec.matching.pairs == {(c, kept[i]) for c, i in ref.pairs}
        assert min(seen.values()) >= 40, seen


class TestDeletionProperty:
    def test_passing_rule_implies_remainders_pass_s0(self):
        rng = np.random.default_rng(101)
        found = 0
        while found < 40:
            s = int(rng.integers(1, 3))
            p = trimmed_random(rng, 9, 3, density=float(rng.uniform(0.5, 0.95)))
            if p.r == 0 or p.m < 2 * p.r + s:
                continue
            if not counting_rule_bruteforce(p, s).holds:
                continue
            found += 1
            from itertools import combinations
            for deleted in combinations(range(p.m), s):
                remainder = SparsityPattern(
                    tuple(row for i, row in enumerate(p.entries) if i not in deleted)
                )
                assert counting_rule_s0(remainder).holds

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_monotone_under_fills(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 10**6)))
        p = trimmed_random(rng, 8, 3, density=float(rng.uniform(0.5, 1.0)))
        if p.r == 0:
            return
        s = data.draw(st.integers(0, 2))
        if not counting_rule_bruteforce(p, s).holds:
            return
        zeros = [(i, j) for i, row in enumerate(p.entries) for j, v in enumerate(row) if not v]
        if not zeros:
            return
        i, j = zeros[data.draw(st.integers(0, len(zeros) - 1))]
        rows = [list(row) for row in p.entries]
        rows[i][j] = 1
        assert counting_rule_bruteforce(SparsityPattern.from_rows(rows), s).holds

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_holds_is_monotone_in_s(self, data):
        # q columns on 2q+s rows also pass at s-1; at s = m-2r+1 the full
        # column set fails, so the sequence flips exactly once
        r = data.draw(st.integers(1, 5))
        m = data.draw(st.integers(1, 2 * r + 5))
        rows = data.draw(st.lists(
            st.lists(st.integers(0, 1), min_size=r, max_size=r), min_size=m, max_size=m
        ))
        p, _ = trim(SparsityPattern.from_rows(rows))
        if p.r == 0:
            return
        holds = [counting_rule(p, s).holds for s in range(max(0, p.m - 2 * p.r + 1) + 1)]
        first_fail = holds.index(False)
        assert not any(holds[first_fail:])
        assert not counting_rule_bruteforce(p, first_fail).holds
        assert first_fail == 0 or counting_rule_bruteforce(p, first_fail - 1).holds


def rcm_cases(seed, n):
    """n (pattern, deleted rows) pairs drawn from random() alone, whose stream
    Python keeps fixed across versions: r from 1 to 6, m from 2r to 2r+400,
    and up to 5 deleted rows, scattered or one block."""
    rng = random.Random(seed)
    for _ in range(n):
        r = 1 + int(rng.random() * 6)
        m = 2 * r + int(rng.random() * 401)
        density = 0.02 + 0.5 * rng.random()
        p = SparsityPattern(tuple(
            tuple(int(rng.random() < density) for _ in range(r)) for _ in range(m)
        ))
        k = int(rng.random() * 6)
        if rng.random() < 0.5:
            start = int(rng.random() * (m - k + 1))
            deleted = set(range(start, start + k))
        else:
            deleted = {int(rng.random() * m) for _ in range(k)}
        yield p, deleted


# SHA-256 of the decompositions of rcm_cases(151, 300), first computed when
# the kept rows were copied into a new pattern one digit at a time; the
# deleted rows' bits are now cleared in place instead
RCM_DIGEST = "5a85fbe35949f421f51365cb6c6105855381f1fcc6aa58ca006ed3cfeb094b4f"


class TestRcmDecomposition:
    def test_output_is_pinned(self):
        digest = hashlib.sha256()
        found = 0
        for p, deleted in rcm_cases(151, 300):
            dec = rcm_decomposition(p, deleted)
            found += dec is not None
            if dec is not None:
                # row k of each group is a 1 of column k: the diagonal holds
                assert all(
                    mask >> a & mask >> b & 1
                    for mask, a, b in zip(p.col_masks, dec.rows_a, dec.rows_b)
                )
                dec = dec.deleted_rows, dec.rows_a, dec.rows_b, sorted(dec.matching.pairs)
            digest.update(repr(dec).encode())
        assert found >= 100
        assert digest.hexdigest() == RCM_DIGEST

    def test_one_kernel_run(self, monkeypatch, deletion_demo_8x3):
        """The groups are read off one Hopcroft-Karp run, with no second
        matching to check them; too few kept rows need none."""
        calls = []
        kernel = _kernels.hopcroft_karp

        def counted(*args):
            calls.append(args[0])
            return kernel(*args)

        monkeypatch.setattr(_kernels, "hopcroft_karp", counted)
        found = 0
        for p, deleted in [(deletion_demo_8x3, {0, 5}), *rcm_cases(151, 60)]:
            calls.clear()
            found += rcm_decomposition(p, deleted) is not None
            assert calls == ([2 * p.r] if p.m - len(deleted) >= 2 * p.r else [])
        assert found >= 10

    def test_deletion_demo(self, deletion_demo_8x3):
        dec = rcm_decomposition(deletion_demo_8x3, {0, 5})
        assert dec is not None
        assert set(dec.rows_a).isdisjoint(dec.rows_b)
        assert not (set(dec.rows_a) | set(dec.rows_b)) & {0, 5}
        for rows in (dec.rows_a, dec.rows_b):
            block = SparsityPattern(tuple(deletion_demo_8x3.entries[i] for i in rows))
            assert oracles.has_saturating_matching(block, "columns")
        # every matched cell is a 1 of the original pattern
        for c, i in dec.matching.pairs:
            assert deletion_demo_8x3.entries[i][c % deletion_demo_8x3.r] == 1

    def test_stacked_identities(self):
        dec = rcm_decomposition(SparsityPattern.from_rows(STACKED_IDENTITIES))
        assert dec.rows_a == (0, 1, 2)
        assert dec.rows_b == (3, 4, 5)

    def test_identity_absent(self):
        assert rcm_decomposition(SparsityPattern.from_rows(np.eye(3, dtype=int).tolist())) is None

    def test_bad_rows(self, deletion_demo_8x3):
        with pytest.raises(IndexError):
            rcm_decomposition(deletion_demo_8x3, {8})

    def test_deleted_rows_come_back_as_ints(self, deletion_demo_8x3):
        dec = rcm_decomposition(deletion_demo_8x3, {np.int64(5), 0})
        assert dec == rcm_decomposition(deletion_demo_8x3, {0, 5})
        assert [type(i) for i in dec.deleted_rows] == [int, int]

    def test_group_order_follows_columns(self, deletion_demo_8x3):
        dec = rcm_decomposition(deletion_demo_8x3, {0, 5})
        col_to_row = dict(dec.matching.pairs)
        assert dec.rows_a == tuple(col_to_row[j] for j in range(3))
        assert dec.rows_b == tuple(col_to_row[j + 3] for j in range(3))


class TestGenericRankCheck:
    def test_demo_pattern_clean(self, mincut_demo_8x3):
        assert group_ranks(mincut_demo_8x3, seed=7) == [3] * (20 * 2 * 8)

    def test_single_column_tower(self):
        p = SparsityPattern.from_rows([[1], [1], [1]])
        assert group_ranks(p, seed=3) == [1] * (20 * 2 * 3)

    def test_identity_raises(self):
        # no deletion of one row leaves 2r = 6 rows: the probe refuses
        # rather than skip a deletion
        with pytest.raises(AssertionError):
            group_ranks(SparsityPattern.from_rows(np.eye(3, dtype=int).tolist()), seed=1)

    def test_no_factors(self):
        # r = 0: each row group is empty, of full rank 0
        assert group_ranks(SparsityPattern.from_rows([[], []]), seed=1) == [0] * (20 * 2 * 2)
        assert group_ranks(trim(SparsityPattern.from_rows([[0, 0], [0, 0]]))[0], seed=1) == []

    def test_deterministic(self, mincut_demo_8x3):
        assert group_ranks(mincut_demo_8x3, seed=42) == group_ranks(mincut_demo_8x3, seed=42)

    def test_structural_rank_dichotomy(self):
        # square patterns: a reordered ones diagonal makes random fills
        # full-rank almost surely; without one, every fill is singular
        rng = np.random.default_rng(103)
        for _ in range(60):
            n = int(rng.integers(1, 6))
            p = random_pattern(rng, n, n, float(rng.uniform(0.2, 0.8)))
            fill = rng.standard_normal((n, n)) * np.array(p.entries)
            structurally_regular = oracles.has_reordered_ones_diagonal(p)
            assert oracles.has_saturating_matching(p, "columns") == structurally_regular
            if structurally_regular:
                assert abs(np.linalg.det(fill)) > 1e-12
            else:
                sv = np.linalg.svd(fill, compute_uv=False)
                assert sv[0] == 0 or sv[-1] <= 1e-12 * sv[0]


class TestVarianceIdentified:
    def test_intro_pattern(self):
        verdict = variance_identified(SparsityPattern.from_rows([[0], [1], [0]]))
        assert not verdict.identified
        assert verdict.sufficient_only
        assert verdict.effective_r == 1

    def test_counterexample_pattern(self, counterexample_6x3):
        # identifiable by a bespoke algebraic argument, yet the sufficient
        # condition fails: the verdict must say "not guaranteed", no more
        verdict = variance_identified(counterexample_6x3)
        assert not verdict.identified
        assert verdict.sufficient_only
        assert verdict.detail.mincut_value == 18

    def test_all_zero_degenerate(self):
        verdict = variance_identified(SparsityPattern.from_rows([[0, 0], [0, 0]]))
        assert verdict.identified and verdict.degenerate
        assert verdict.effective_r == 0
        assert verdict.detail is None

    def test_witnesses_in_original_coordinates(self, counterexample_6x3):
        # embed the 6x3 pattern in zero padding: witness columns must come
        # back in the padded coordinate system
        rows = [[0] + list(row) + [0] for row in counterexample_6x3.entries]
        rows.insert(2, [0, 0, 0, 0, 0])
        verdict = variance_identified(SparsityPattern.from_rows(rows))
        assert not verdict.identified
        assert verdict.detail.witness_fail.columns == (1, 2, 3)

    def test_s0_matching_in_original_coordinates(self, deletion_demo_8x3):
        # pad with a zero column and a zero row: copy c of the matching is
        # column c mod r of the padded input, and every kept column is
        # matched twice
        rows = [[row[0], 0, *row[1:]] for row in deletion_demo_8x3.entries]
        rows.insert(3, [0, 0, 0, 0])
        p = SparsityPattern.from_rows(rows)
        verdict = variance_identified(p, 0)
        assert verdict.identified
        pairs = verdict.detail.witness_pass.matching.pairs
        assert all(p.entries[i][c % 4] == 1 for c, i in pairs)
        assert sorted(c for c, _ in pairs) == [0, 2, 3, 4, 6, 7]

    def test_witnesses_recount_in_original_coordinates(self):
        # trimmed patterns padded with zero rows and columns, m < 2r+s at
        # s >= 2 included: every witness recounts on the padded input
        rng = np.random.default_rng(113)
        short = deleting = 0
        for _ in range(300):
            r = int(rng.integers(1, 4))
            m = int(rng.integers(r, 2 * r + 9))
            p, _ = trim(random_pattern(rng, m, r, float(rng.uniform(0.2, 0.7))))
            if p.r == 0:
                continue
            padded = pad_with_zeros(rng, p)
            for s in range(4):
                verdict = variance_identified(padded, s)
                assert verdict.identified == counting_rule_bruteforce(p, s).holds
                if verdict.identified:
                    continue
                wf = verdict.detail.witness_fail
                q = len(wf.columns)
                assert q and all(padded.col_masks[j] for j in wf.columns)
                assert oracles.touched_rows(padded, wf.columns) == wf.nonzero_rows < 2 * q + s
                if wf.deleted_rows is None:
                    short += s >= 2 and p.m < 2 * p.r + s
                    continue
                deleting += 1
                assert s >= 2 and len(set(wf.deleted_rows)) == s - 1
                assert all(any(padded.entries[i]) for i in wf.deleted_rows)
                union = 0
                for j in wf.columns:
                    union |= padded.col_masks[j]
                for i in wf.deleted_rows:
                    union &= ~(1 << i)
                assert union.bit_count() <= 2 * q
        assert short >= 100 and deleting >= 40

    def test_demo_pattern_identified(self, mincut_demo_8x3):
        verdict = variance_identified(mincut_demo_8x3)
        assert verdict.identified
        assert verdict.detail.mincut_value == 21


class TestOriginalCoordinates:
    """The verdict in the caller's coordinates against the reference in
    oracles, which maps every witness of the verdict on the trimmed pattern
    through `dataclasses.replace`."""

    def test_equals_reference(self):
        # s=0 passes carry a matching, failures a subset, s >= 2 failures
        # deleted rows too; each kind is mapped many times
        rng = np.random.default_rng(127)
        mapped_kinds = {"matching": 0, "columns": 0, "deleted_rows": 0}
        for _ in range(400):
            r = int(rng.integers(1, 5))
            m = int(rng.integers(r, 2 * r + 9))
            p, _ = trim(random_pattern(rng, m, r, float(rng.uniform(0.2, 0.8))))
            if p.r == 0:
                continue
            padded = pad_with_zeros(rng, p)
            trimmed, report = trim(padded)
            assert trimmed == p
            for s in range(4):
                verdict = counting_rule(trimmed, s)
                expected = oracles.verdict_in_original_coords(verdict, report)
                assert variance_identified(padded, s).detail == expected
                if not (report.removed_zero_rows or report.removed_zero_columns):
                    continue
                wp, wf = verdict.witness_pass, verdict.witness_fail
                mapped_kinds["matching"] += wp is not None and wp.matching is not None
                mapped_kinds["columns"] += wf is not None
                mapped_kinds["deleted_rows"] += wf is not None and wf.deleted_rows is not None
        assert min(mapped_kinds.values()) >= 40, mapped_kinds

    def test_passing_s1_verdict_carries_no_index(self, deletion_demo_8x3):
        """Whatever the caller's zero rows and columns, a passing s=1 verdict
        names no row or column, only its cover weight."""
        padded = pad_with_zeros(np.random.default_rng(5), deletion_demo_8x3)
        verdict = variance_identified(padded)
        assert verdict.trim.removed_zero_rows and verdict.trim.removed_zero_columns
        assert verdict.detail == counting_rule(deletion_demo_8x3, 1)
        detail = verdict.detail
        assert detail.holds and detail.witness_fail is None and detail.witness_pass is None


def variance_identified_cases(seed, n):
    """n small patterns drawn from random() alone, r up to 6 on r to 2r+9
    rows, every third with one column on a single row (so that s=3 pads its
    deleted rows from outside N(S)), with up to three zero rows and two zero
    columns inserted at random (a draw may bring its own); then two 1000x50
    patterns at density 0.3 with 20 zero rows: one plain, one with 2 zero
    columns and 3 columns confined to 5 rows."""
    rng = random.Random(seed)

    def below(k):
        return int(rng.random() * k)

    def padded(m, r, density, zero_rows, zero_cols, block=(0, 0)):
        rows = sorted(rng.sample(range(m + zero_rows), m))
        cols = sorted(rng.sample(range(r + zero_cols), r))
        block_rows = rng.sample(range(m), block[1])
        block = rng.sample(range(r), block[0])
        cells = [[0] * (r + zero_cols) for _ in range(m + zero_rows)]
        for i, row in zip(range(m), rows):
            for j, col in enumerate(cols):
                inside = i in block_rows if j in block else rng.random() < density
                cells[row][col] = int(inside)
        return SparsityPattern(tuple(map(tuple, cells)))

    for case in range(n):
        r = 1 + below(6)
        block = (1, 1) if case % 3 == 2 else (0, 0)
        yield padded(r + below(r + 10), r, 0.15 + 0.7 * rng.random(), below(4), below(3), block)
    yield padded(980, 50, 0.3, 20, 0)
    yield padded(980, 48, 0.3, 20, 2, block=(3, 5))


def canonical(obj):
    """A dataclass result as nested tuples, a frozenset as its sorted items:
    the order in which a frozenset iterates is not part of the result."""
    if dataclasses.is_dataclass(obj):
        fields = dataclasses.fields(obj)
        return (type(obj).__name__, *(canonical(getattr(obj, f.name)) for f in fields))
    if isinstance(obj, frozenset):
        return ("frozenset", *sorted(obj))
    return obj


# SHA-256 of repr(canonical(variance_identified(p, s))) for s = 0..3 over
# variance_identified_cases(223, 560), computed when the rule ran on a copy
# of the pattern without its zero rows and mapped the rows back
VARIANCE_IDENTIFIED_DIGEST = "ec0d78214761aaa29d64dbebd09ad5017a973f448143b4667c7cb1659f1ad887"


def test_variance_identified_output_is_pinned():
    """Verdicts, trim reports and witnesses in the caller's coordinates at
    every s, on patterns with zero rows and columns, stay what they were."""
    digest = hashlib.sha256()
    kinds = dict.fromkeys(("degenerate", "matching", "short", "deleted_rows", "padded"), 0)
    for p in variance_identified_cases(223, 560):
        for s in range(4):
            verdict = variance_identified(p, s)
            digest.update(repr(canonical(verdict)).encode())
            kinds["degenerate"] += verdict.degenerate
            if verdict.degenerate or not verdict.trim.removed_zero_rows:
                continue
            wp, wf = verdict.detail.witness_pass, verdict.detail.witness_fail
            kinds["matching"] += wp is not None and wp.matching is not None
            if wf is None or s < 2:
                continue
            if wf.deleted_rows is None:
                kinds["short"] += 1
                continue
            kinds["deleted_rows"] += 1
            touched = oracles.touched_rows(p, wf.columns)
            kinds["padded"] += len(set(wf.deleted_rows)) > touched
    # on patterns with zero rows, every kind of witness that names rows
    assert min(kinds.values()) >= 20, kinds
    assert digest.hexdigest() == VARIANCE_IDENTIFIED_DIGEST


def test_variance_identified_copies_no_row(no_row_copies, monkeypatch):
    """The rule runs on the caller's pattern: with row copies and patterns
    built from masks refused, the pinned results come back unchanged, while
    `trim` itself would copy."""

    def refuse(*args):
        raise AssertionError("a pattern was built")

    monkeypatch.setattr("factorid.pattern._from_masks", refuse)
    digest = hashlib.sha256()
    for p in variance_identified_cases(223, 560):
        for s in range(4):
            digest.update(repr(canonical(variance_identified(p, s))).encode())
    assert digest.hexdigest() == VARIANCE_IDENTIFIED_DIGEST
    with pytest.raises(AssertionError, match="rows were copied"):
        trim(SparsityPattern(((1,), (0,))))


class TestDegenerateEdges:
    def test_empty_pattern_rejected_by_rules(self):
        degenerate = SparsityPattern(())
        with pytest.raises(EmptyPatternError):
            counting_rule_s1(degenerate)
        with pytest.raises(EmptyPatternError):
            counting_rule_s0(degenerate)

    def test_bruteforce_vacuous_on_zero_columns(self):
        assert counting_rule_bruteforce(SparsityPattern(()), 1).holds
