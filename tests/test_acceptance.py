"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. Expected values were frozen
from independent oracles (exhaustive cover/matching enumeration, direct
recounts, permutation scans) implemented in tests/oracles.py.
"""

import json
import time
from itertools import combinations

import numpy as np
import pytest

import oracles
from conftest import group_ranks, random_pattern
from factorid.cli import main as cli_main
from factorid.identify import (
    Matching,
    counting_rule,
    counting_rule_bruteforce,
    counting_rule_s0,
    counting_rule_s1,
    rcm_decomposition,
    variance_identified,
)
from factorid.pattern import SparsityPattern, trim
from reference_cover import (
    build_identification_network,
    max_flow_min_cut,
    minimum_vertex_cover,
)


def _report(n, message):
    print(f"ACCEPTANCE {n:02d} PASS - {message}")


def test_criterion_01_matching_and_cover_regression(unique_matching_4x4):
    g = unique_matching_4x4
    g_minus = oracles.pattern_from_edges(4, 4, set(oracles.pattern_edges(g)) - {(1, 1)})

    def run():
        mm = oracles.maximum_matching(g)
        cover = minimum_vertex_cover(g, mm)
        mm2 = oracles.maximum_matching(g_minus)
        cover2 = minimum_vertex_cover(g_minus, mm2)
        return mm, cover, mm2, cover2

    mm, cover, mm2, cover2 = run()
    assert mm.size == 4 and mm.pairs == {(0, 0), (1, 1), (2, 2), (3, 3)}
    assert cover.size == 4 and cover.covers(g)
    assert mm2.size == 3
    assert cover2.size == 3 and cover2.covers(g_minus)
    best = min(_time_once(run) for _ in range(5))
    assert best < 1e-3
    _report(1, f"matching/cover sizes 4->3 exact, {best * 1e6:.0f}us")


def _time_once(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_criterion_02_rcm_witness(reordered_diagonal_4x4):
    witness = oracles.maximum_matching(reordered_diagonal_4x4)
    assert witness.size == 4
    for c, r in witness.pairs:
        assert reordered_diagonal_4x4.entries[r][c] == 1
    documented = frozenset({(2, 0), (1, 1), (3, 2), (0, 3)})
    Matching(documented)  # pairwise-disjoint endpoints
    assert documented <= set(oracles.pattern_edges(reordered_diagonal_4x4))
    _report(2, "square pattern has a column-saturating matching; documented witness valid")


def test_criterion_03_deletion_walkthrough(deletion_demo_8x3):
    remainder = SparsityPattern(
        tuple(row for i, row in enumerate(deletion_demo_8x3.entries) if i not in (0, 5))
    )
    verdict = counting_rule_s0(remainder)
    assert verdict.holds
    assert verdict.witness_pass.matching.size == 6

    dec = rcm_decomposition(deletion_demo_8x3, {0, 5})
    assert dec is not None
    assert len(dec.rows_a) == 3 and len(dec.rows_b) == 3
    assert set(dec.rows_a).isdisjoint(dec.rows_b)
    assert not (set(dec.rows_a) | set(dec.rows_b)) & {0, 5}
    for rows in (dec.rows_a, dec.rows_b):
        block = SparsityPattern(tuple(deletion_demo_8x3.entries[i] for i in rows))
        assert oracles.has_saturating_matching(block, "columns")

    full = counting_rule(deletion_demo_8x3, 2)
    assert not full.holds
    assert full.witness_fail.columns == (2,)
    _report(3, "deletion {v1,v6} yields a size-6 matching and two diagonal row groups; "
               "full pattern fails s=2 with witness u3")


def test_criterion_04_network_mincut(mincut_demo_8x3):
    network = build_identification_network(mincut_demo_8x3)
    source_caps = sorted(a.capacity for a in network.arcs if a.tail == network.source)
    sink_caps = sorted(a.capacity for a in network.arcs if a.head == network.sink)
    middle_caps = {
        a.capacity for a in network.arcs
        if a.tail != network.source and a.head != network.sink
    }
    assert source_caps == [7, 7, 7]
    assert sink_caps == [3] * 8
    assert middle_caps == {network.sentinel}

    cut = max_flow_min_cut(network)
    assert cut.value == 21 == 3 * (2 * 3 + 1)
    assert oracles.min_weighted_cover(mincut_demo_8x3.col_masks, 7, 3) == 21
    assert counting_rule_s1(mincut_demo_8x3).holds

    best = min(
        _time_once(lambda: max_flow_min_cut(build_identification_network(mincut_demo_8x3)))
        for _ in range(5)
    )
    assert best < 1e-3
    _report(4, f"capacities (7, inf, 3), min cut exactly 21, {best * 1e6:.0f}us")


def test_criterion_05_rule_is_not_necessary(counterexample_6x3):
    # This pattern is identifiable by a bespoke algebraic argument, yet it
    # fails the rule (forced: 6 rows < 2*3+1). The verdict must therefore
    # carry only "not guaranteed" semantics.
    verdict = counting_rule_s1(counterexample_6x3)
    assert not verdict.holds
    assert counterexample_6x3.m == 6 < 7
    decision = variance_identified(counterexample_6x3)
    assert decision.identified is False
    assert decision.sufficient_only is True
    _report(5, "6x3 counterexample fails the sufficient rule; verdict flagged sufficient-only")


def test_criterion_06_oracle_equivalence_exhaustive():
    rows3 = [tuple((mask >> b) & 1 for b in range(3)) for mask in range(8)]
    t0 = time.perf_counter()
    checked = 0
    for code in range(1 << 18):
        rows = (
            rows3[code & 7],
            rows3[(code >> 3) & 7],
            rows3[(code >> 6) & 7],
            rows3[(code >> 9) & 7],
            rows3[(code >> 12) & 7],
            rows3[(code >> 15) & 7],
        )
        trimmed, _ = trim(SparsityPattern(rows))
        if trimmed.r == 0:
            continue
        checked += 1
        verdict = counting_rule_s1(trimmed)
        assert verdict.holds == counting_rule_bruteforce(trimmed, 1).holds
        oracles.assert_s1_matches_mincut(trimmed, verdict)
        assert counting_rule_s0(trimmed).holds == counting_rule_bruteforce(trimmed, 0).holds
    elapsed = time.perf_counter() - t0
    assert checked == (1 << 18) - 1
    assert elapsed < 300
    _report(6, f"all 2^18 six-by-three patterns agree with brute force (s=0,1) in {elapsed:.0f}s")


def test_criterion_07_oracle_equivalence_randomized():
    t0 = time.perf_counter()
    rng = np.random.default_rng(74207281)
    densities = (0.1, 0.3, 0.5, 0.8)
    compared = 0
    for _ in range(10_000):
        m = int(rng.integers(1, 31))
        r = int(rng.integers(1, 9))
        d = densities[int(rng.integers(0, 4))]
        trimmed, _ = trim(random_pattern(rng, m, r, d))
        if trimmed.r == 0:
            continue
        compared += 1
        verdict = counting_rule_s1(trimmed)
        assert verdict.holds == counting_rule_bruteforce(trimmed, 1).holds
        oracles.assert_s1_matches_mincut(trimmed, verdict)
        assert counting_rule_s0(trimmed).holds == counting_rule_bruteforce(trimmed, 0).holds
    assert compared > 5000

    for _ in range(1_000):
        m = int(rng.integers(1, 11))
        r = int(rng.integers(1, 4))
        d = densities[int(rng.integers(0, 4))]
        trimmed, _ = trim(random_pattern(rng, m, r, d))
        if trimmed.r == 0:
            continue
        for s in (2, 3):
            assert counting_rule(trimmed, s).holds == counting_rule_bruteforce(trimmed, s).holds
    elapsed = time.perf_counter() - t0
    assert elapsed < 120
    _report(7, f"10k random patterns (s=0,1) and 1k (s=2,3) all agree in {elapsed:.0f}s")


def test_criterion_08_koenig_duality():
    rng = np.random.default_rng(43112609)
    for _ in range(1_000):
        n_col = int(rng.integers(0, 7))
        n_row = int(rng.integers(1, 13 - max(n_col, 1)))
        edges = set()
        for _ in range(int(rng.integers(0, 2 * (n_col + n_row) + 1))):
            if n_col:
                edges.add((int(rng.integers(0, n_col)), int(rng.integers(0, n_row))))
        g = oracles.pattern_from_edges(n_col, n_row, edges)
        expected = oracles.min_weighted_cover(g.col_masks, 1, 1)
        mm = oracles.maximum_matching(g)
        cover = minimum_vertex_cover(g, mm)
        assert mm.size == expected == cover.size
        assert cover.covers(g)

    for _ in range(500):
        while True:
            trimmed, _ = trim(
                random_pattern(
                    rng,
                    int(rng.integers(1, 9)),
                    int(rng.integers(1, 9)),
                    float(rng.uniform(0.15, 0.9)),
                )
            )
            if trimmed.r:
                break
        value = max_flow_min_cut(build_identification_network(trimmed)).value
        expected = oracles.min_weighted_cover(
            trimmed.col_masks, 2 * trimmed.r + 1, trimmed.r
        )
        assert value == expected
    _report(8, "matching equals exhaustive cover on 1000 graphs; "
               "min-cut equals exhaustive weighted cover on 500 patterns")


def test_criterion_09_deletion_remainders_keep_s0():
    rng = np.random.default_rng(77232917)
    found = 0
    attempts = 0
    while found < 500:
        attempts += 1
        assert attempts < 100_000
        s = 1 + (found % 2)
        r = int(rng.integers(1, 4))
        m = int(rng.integers(2 * r + s, 11))
        trimmed, _ = trim(random_pattern(rng, m, r, float(rng.uniform(0.55, 0.98))))
        if trimmed.r != r or trimmed.m < 2 * r + s:
            continue
        if not counting_rule_bruteforce(trimmed, s).holds:
            continue
        found += 1
        for deleted in combinations(range(trimmed.m), s):
            remainder = SparsityPattern(
                tuple(row for i, row in enumerate(trimmed.entries) if i not in deleted)
            )
            assert counting_rule_s0(remainder).holds
    _report(9, "500 rule-passing patterns: every s-row deletion still passes s=0")


def test_criterion_10_generic_rank_check():
    rng = np.random.default_rng(30402457)
    found = 0
    attempts = 0
    while found < 100:
        attempts += 1
        assert attempts < 100_000
        r = int(rng.integers(2, 6))
        m = int(rng.integers(2 * r + 1, 21))
        trimmed, _ = trim(random_pattern(rng, m, r, float(rng.uniform(0.45, 0.9))))
        if trimmed.r != r:
            continue
        if not counting_rule_s1(trimmed).holds:
            continue
        found += 1
        # 20 fills x both groups of each of the m one-row deletions, all rank r
        assert group_ranks(trimmed, seed=found) == [r] * (20 * 2 * trimmed.m)
    _report(10, "100 passing patterns x 20 Gaussian fills: all row groups have full rank")


def test_criterion_11_structural_singularity():
    rng = np.random.default_rng(25964951)
    found = 0
    attempts = 0
    while found < 200:
        attempts += 1
        assert attempts < 100_000
        n = int(rng.integers(1, 7))
        p = random_pattern(rng, n, n, float(rng.uniform(0.1, 0.6)))
        if oracles.has_saturating_matching(p, "columns"):
            continue
        found += 1
        # without a reordered ones diagonal every determinant expansion term
        # carries a structural zero, so any filling is exactly singular
        assert not oracles.has_reordered_ones_diagonal(p)
    _report(11, "200 non-saturating square patterns: every generalized diagonal is blocked")


def test_criterion_12_performance_scaling():
    def check_time(m, seed):
        rng = np.random.default_rng([seed, m])
        trimmed, _ = trim(
            SparsityPattern.from_rows(
                (rng.random((m, 50)) < 0.3).astype(int).tolist()
            )
        )
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            counting_rule_s1(trimmed)
            times.append(time.perf_counter() - t0)
        return min(times)

    headline = check_time(1000, seed=12)
    assert headline < 1.0

    base = check_time(100, seed=12)
    for m in (200, 400, 800):
        t = check_time(m, seed=12)
        assert t <= 4.0 * base * (m / 100) ** 3, (m, t, base)
    _report(12, f"m=1000, r=50 check in {headline * 1e3:.0f}ms; growth within a cubic envelope")


@pytest.fixture(scope="module")
def draw_stream(tmp_path_factory):
    path = tmp_path_factory.mktemp("stream") / "draws.jsonl"
    rng = np.random.default_rng(20260808)
    with open(path, "w") as f:
        for i in range(10_000):
            probs = rng.uniform(0, 1, size=8) * (rng.random(8) < 0.75)
            delta = (rng.random((17, 8)) < probs).astype(int)
            f.write(json.dumps({"id": i, "delta": delta.tolist()}) + "\n")
    return path


def test_criterion_13_filter_determinism_and_throughput(draw_stream, tmp_path, runner):
    outputs = []
    elapsed = []
    for tag, extra in (("a", []), ("b", []), ("p", ["--parallel", "4"])):
        out = tmp_path / f"out_{tag}.jsonl"
        t0 = time.perf_counter()
        result = runner.invoke(
            cli_main,
            ["filter", "--input", str(draw_stream), "--output", str(out)] + extra,
        )
        elapsed.append(time.perf_counter() - t0)
        assert result.exit_code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]
    assert elapsed[0] < 5.0
    lines = outputs[0].decode().splitlines()
    assert len(lines) == 10_000
    assert [json.loads(l)["id"] for l in lines[:3]] == [0, 1, 2]
    _report(13, f"10k draws filtered in {elapsed[0]:.1f}s, byte-identical across runs and --parallel")
