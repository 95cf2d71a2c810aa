"""Bipartite matching and König's cover: `_kernels.alternating_reach` from
a maximum matching, the `Matching` dataclass's validation, and the test
references that other tests hold the package to, each against a scan or
backtracking search of its own: the column-duplicated graph, maximum
matching, saturation and reordered-diagonal references in oracles.py, and
König's cover in reference_cover.py. The file keeps the name of the
package module that once held the matching functions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import random_pattern
from factorid import _kernels
from factorid.errors import MatchingNotMaximumError
from factorid.identify import Matching
from factorid.pattern import SparsityPattern
from reference_cover import minimum_vertex_cover


def random_graph(rng, max_side=8, max_edges=20):
    n_col = int(rng.integers(0, max_side + 1))
    n_row = int(rng.integers(1, max_side + 1))
    edges = set()
    if n_col:
        for _ in range(int(rng.integers(0, max_edges + 1))):
            edges.add((int(rng.integers(0, n_col)), int(rng.integers(0, n_row))))
    return oracles.pattern_from_edges(n_col, n_row, edges)


def edge_set(p):
    return set(oracles.pattern_edges(p))


def without_edge(p, edge):
    return oracles.pattern_from_edges(p.r, p.m, edge_set(p) - {edge})


class TestDuplicateColumns:
    def test_deletion_demo_remainder(self, deletion_demo_8x3):
        remainder = SparsityPattern(
            tuple(row for i, row in enumerate(deletion_demo_8x3.entries) if i not in (0, 5))
        )
        doubled = oracles.duplicate_columns(remainder)
        assert doubled.r == 6
        for c in range(3):
            mirror = {(cc, r) for cc, r in edge_set(doubled) if cc == c + 3}
            assert mirror == {(c + 3, r) for cc, r in edge_set(remainder) if cc == c}

    def test_empty_edges(self):
        g = SparsityPattern(((0, 0), (0, 0)))
        assert edge_set(oracles.duplicate_columns(g)) == set()
        assert oracles.duplicate_columns(g).r == 4

    def test_single_edge(self):
        g = SparsityPattern(((1,),))
        assert edge_set(oracles.duplicate_columns(g)) == {(0, 0), (1, 0)}

    def test_degrees_mirrored(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            g = random_graph(rng)
            doubled = oracles.duplicate_columns(g)
            degree = [0] * doubled.r
            for c, _ in edge_set(doubled):
                degree[c] += 1
            assert degree[: g.r] == degree[g.r :]


class TestMaximumMatching:
    def test_unique_maximum(self, unique_matching_4x4):
        mm = oracles.maximum_matching(unique_matching_4x4)
        assert mm.pairs == {(0, 0), (1, 1), (2, 2), (3, 3)}

    def test_minus_edge(self, unique_matching_4x4):
        smaller = without_edge(unique_matching_4x4, (1, 1))
        assert oracles.maximum_matching(smaller).size == 3

    def test_empty(self):
        g = oracles.pattern_from_edges(3, 2, set())
        assert oracles.maximum_matching(g).size == 0

    def test_deterministic(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            g = random_graph(rng)
            assert oracles.maximum_matching(g) == oracles.maximum_matching(g)

    def test_against_backtracking_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            g = random_graph(rng, max_side=6, max_edges=14)
            expected = oracles.max_matching_size(g.r, g.m, sorted(edge_set(g)))
            mm = oracles.maximum_matching(g)
            assert mm.size == expected
            assert mm.pairs <= edge_set(g)

    def test_matching_validation(self):
        with pytest.raises(ValueError):
            Matching(frozenset({(0, 0), (0, 1)}))
        with pytest.raises(ValueError):
            Matching(frozenset({(0, 0), (1, 0)}))


class TestMinimumVertexCover:
    def test_unique_matching_pattern(self, unique_matching_4x4):
        g = unique_matching_4x4
        cover = minimum_vertex_cover(g, oracles.maximum_matching(g))
        assert cover.size == 4
        assert cover.covers(g)

    def test_minus_edge(self, unique_matching_4x4):
        g = without_edge(unique_matching_4x4, (1, 1))
        cover = minimum_vertex_cover(g, oracles.maximum_matching(g))
        assert cover.size == 3
        assert cover.covers(g)

    def test_empty(self):
        g = SparsityPattern(((0, 0), (0, 0)))
        cover = minimum_vertex_cover(g, Matching(frozenset()))
        assert cover.size == 0

    def test_rejects_non_maximum(self, unique_matching_4x4):
        with pytest.raises(MatchingNotMaximumError):
            minimum_vertex_cover(unique_matching_4x4, Matching(frozenset()))

    def test_rejects_foreign_edges(self, unique_matching_4x4):
        # (3, 0) is a zero entry; (-1, 3) would read column 3's edge to row 3
        # through a negative index
        for pair in [(3, 0), (-1, 0), (-1, 3), (0, -1), (4, 0), (0, 4)]:
            with pytest.raises(ValueError):
                minimum_vertex_cover(unique_matching_4x4, Matching(frozenset({pair})))

    def test_equality_with_matching_size(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            g = random_graph(rng, max_side=6, max_edges=14)
            mm = oracles.maximum_matching(g)
            cover = minimum_vertex_cover(g, mm)
            assert cover.size == mm.size
            assert cover.covers(g)

    def test_oracle_full_subset_scan_small(self):
        rng = np.random.default_rng(37)
        for _ in range(60):
            g = random_graph(rng, max_side=4, max_edges=10)
            mm = oracles.maximum_matching(g)
            assert mm.size == oracles.min_vertex_cover_size_full(g.r, g.m, sorted(edge_set(g)))

    def test_weighted_oracle_agrees_with_full_scan(self):
        # validates the column-scan cover oracle itself on small graphs
        rng = np.random.default_rng(41)
        for _ in range(60):
            p = random_pattern(rng, int(rng.integers(1, 5)), int(rng.integers(1, 4)), 0.5)
            unweighted = oracles.min_weighted_cover(p.col_masks, 1, 1)
            full = oracles.min_vertex_cover_size_full(
                p.r, p.m, oracles.pattern_edges(p)
            )
            assert unweighted == full


class TestAlternatingReach:
    def test_konig_cover_or_one_augmentation(self):
        """From a maximum matching the walk gives König's cover: the unreached
        left and the reached right vertices cover every edge and number |M|.
        With one pair taken out it finds an augmenting path instead, flips it,
        restores the size and reports the one free row it matched."""
        rng = np.random.default_rng(131)
        augmented = 0
        for _ in range(400):
            n_left, n_right = (int(x) for x in rng.integers(0, 12, size=2))
            density = rng.random()
            adjacency = [
                [int(v) for v in rng.permutation(n_right) if rng.random() < density]
                for _ in range(n_left)
            ]
            masks = [sum(1 << v for v in vs) for vs in adjacency]
            size, match_l, match_r, free = _kernels.hopcroft_karp(
                n_left, n_right, masks, range(n_left)
            )
            ascending = [sorted(vs) for vs in adjacency]
            assert (size, match_l, match_r) == oracles.match_adjacency(ascending, n_right)
            assert free == sum(1 << v for v, u in enumerate(match_r) if u == -1)
            reached_l, reached_r = _kernels.alternating_reach(masks, match_l, match_r, free)
            reached_r = {v for v in range(n_right) if reached_r >> v & 1}
            cover_l = set(range(n_left)) - reached_l
            assert len(cover_l) + len(reached_r) == size
            assert all(u in cover_l or v in reached_r for u, vs in enumerate(adjacency) for v in vs)
            if not size:
                continue
            u = int(rng.choice([u for u, v in enumerate(match_l) if v != -1]))
            free |= 1 << match_l[u]
            match_r[match_l[u]] = match_l[u] = -1
            reached_l, row = _kernels.alternating_reach(masks, match_l, match_r, free)
            assert reached_l is None
            assert row & free and row.bit_count() == 1 and match_r[row.bit_length() - 1] != -1
            augmented += 1
            pairs = [(u, v) for u, v in enumerate(match_l) if v != -1]
            assert len(pairs) == size
            assert all(v in adjacency[u] and match_r[v] == u for u, v in pairs)
            assert sum(u != -1 for u in match_r) == size
        assert augmented >= 200


class TestSaturation:
    def test_saturates_columns(self, unique_matching_4x4):
        assert oracles.has_saturating_matching(unique_matching_4x4, "columns")

    def test_minus_edge_columns(self, unique_matching_4x4):
        g = without_edge(unique_matching_4x4, (1, 1))
        assert not oracles.has_saturating_matching(g, "columns")

    def test_identity_rows(self):
        g = SparsityPattern.from_rows(np.eye(3, dtype=int).tolist())
        assert oracles.has_saturating_matching(g, "rows")

    def test_bad_side(self, unique_matching_4x4):
        with pytest.raises(ValueError):
            oracles.has_saturating_matching(unique_matching_4x4, "left")

    def test_hall_consistency(self):
        rng = np.random.default_rng(43)
        for _ in range(120):
            g = random_graph(rng, max_side=6, max_edges=16)
            saturable = oracles.has_saturating_matching(g, "columns")
            assert saturable == oracles.hall_condition_columns(g.r, g.m, sorted(edge_set(g)))


class TestReorderedDiagonal:
    """A square pattern's rows can be reordered onto a ones diagonal iff a
    matching saturates its columns; the references agree on that."""

    def test_reordered_diagonal(self, reordered_diagonal_4x4):
        witness = oracles.maximum_matching(reordered_diagonal_4x4)
        assert witness.size == 4
        for c, r in witness.pairs:
            assert reordered_diagonal_4x4.entries[r][c] == 1
        # the documented witness is itself a valid perfect matching
        documented = {(2, 0), (1, 1), (3, 2), (0, 3)}
        assert documented <= edge_set(reordered_diagonal_4x4)
        Matching(frozenset(documented))

    def test_identity(self):
        witness = oracles.maximum_matching(SparsityPattern.from_rows(np.eye(4, dtype=int).tolist()))
        assert witness.pairs == {(j, j) for j in range(4)}

    def test_zero_row(self):
        assert not oracles.has_saturating_matching(
            SparsityPattern.from_rows([[1, 1], [0, 0]]), "columns"
        )

    def test_against_permutation_oracle(self):
        rng = np.random.default_rng(47)
        for _ in range(100):
            n = int(rng.integers(1, 6))
            p = random_pattern(rng, n, n, float(rng.uniform(0.1, 0.9)))
            assert oracles.has_saturating_matching(p, "columns") == (
                oracles.has_reordered_ones_diagonal(p)
            )


@given(st.integers(0, 5), st.integers(1, 5), st.data())
@settings(max_examples=120)
def test_matching_pairs_are_edges_and_disjoint(n_col, n_row, data):
    universe = [(c, r) for c in range(n_col) for r in range(n_row)]
    chosen = data.draw(st.sets(st.sampled_from(universe))) if universe else set()
    g = oracles.pattern_from_edges(n_col, n_row, chosen)
    mm = oracles.maximum_matching(g)
    assert mm.pairs <= edge_set(g)
    cols = [c for c, _ in mm.pairs]
    rows = [r for _, r in mm.pairs]
    assert len(set(cols)) == len(cols) and len(set(rows)) == len(rows)
