import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import random_pattern
from factorid.bipartite import (
    BipartiteGraph,
    Matching,
    generate_bipartite,
    is_rcm,
    maximum_matching,
    minimum_vertex_cover,
)
from factorid.errors import MatchingNotMaximumError, NotSquareError
from factorid.pattern import SparsityPattern

UNIQUE_MATCHING_EDGES = {(0, 0), (0, 1), (0, 3), (1, 1), (1, 2), (2, 2), (3, 3)}


def random_graph(rng, max_side=8, max_edges=20):
    n_col = int(rng.integers(0, max_side + 1))
    n_row = int(rng.integers(1, max_side + 1))
    edges = set()
    if n_col:
        for _ in range(int(rng.integers(0, max_edges + 1))):
            edges.add((int(rng.integers(0, n_col)), int(rng.integers(0, n_row))))
    return BipartiteGraph(n_col=n_col, n_row=n_row, edges=frozenset(edges))


class TestGenerate:
    def test_unique_matching_pattern(self, unique_matching_4x4):
        g = generate_bipartite(unique_matching_4x4)
        assert (g.n_col, g.n_row) == (4, 4)
        assert set(g.edges) == UNIQUE_MATCHING_EDGES

    def test_identity(self):
        g = generate_bipartite(SparsityPattern.from_rows(np.eye(3, dtype=int).tolist()))
        assert set(g.edges) == {(j, j) for j in range(3)}

    def test_all_zero(self):
        g = generate_bipartite(SparsityPattern.from_rows([[0, 0], [0, 0]]))
        assert g.edges == frozenset()

    def test_edge_count_matches_ones(self, deletion_demo_8x3):
        assert len(generate_bipartite(deletion_demo_8x3).edges) == deletion_demo_8x3.ones()


class TestDuplicateColumns:
    def test_deletion_demo_remainder(self, deletion_demo_8x3):
        remainder = SparsityPattern(
            tuple(row for i, row in enumerate(deletion_demo_8x3.entries) if i not in (0, 5))
        )
        g = generate_bipartite(remainder)
        doubled = oracles.duplicate_columns(g)
        assert doubled.n_col == 6
        for c in range(3):
            mirror = {(cc, r) for cc, r in doubled.edges if cc == c + 3}
            assert mirror == {(c + 3, r) for cc, r in g.edges if cc == c}

    def test_empty_edges(self):
        g = BipartiteGraph(n_col=2, n_row=2, edges=frozenset())
        assert oracles.duplicate_columns(g).edges == frozenset()
        assert oracles.duplicate_columns(g).n_col == 4

    def test_single_edge(self):
        g = BipartiteGraph(n_col=1, n_row=1, edges=frozenset({(0, 0)}))
        assert oracles.duplicate_columns(g).edges == {(0, 0), (1, 0)}

    def test_degrees_mirrored(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            g = random_graph(rng)
            doubled = oracles.duplicate_columns(g)
            degree = [0] * doubled.n_col
            for c, _ in doubled.edges:
                degree[c] += 1
            assert degree[: g.n_col] == degree[g.n_col :]


class TestMaximumMatching:
    def test_unique_maximum(self, unique_matching_4x4):
        mm = maximum_matching(generate_bipartite(unique_matching_4x4))
        assert mm.pairs == {(0, 0), (1, 1), (2, 2), (3, 3)}

    def test_minus_edge(self, unique_matching_4x4):
        g = generate_bipartite(unique_matching_4x4)
        smaller = BipartiteGraph(g.n_col, g.n_row, g.edges - {(1, 1)})
        assert maximum_matching(smaller).size == 3

    def test_empty(self):
        g = BipartiteGraph(n_col=3, n_row=2, edges=frozenset())
        assert maximum_matching(g).size == 0

    def test_deterministic(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            g = random_graph(rng)
            assert maximum_matching(g) == maximum_matching(g)

    def test_against_backtracking_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            g = random_graph(rng, max_side=6, max_edges=14)
            expected = oracles.max_matching_size(g.n_col, g.n_row, sorted(g.edges))
            mm = maximum_matching(g)
            assert mm.size == expected
            assert mm.pairs <= g.edges

    def test_matching_validation(self):
        with pytest.raises(ValueError):
            Matching(frozenset({(0, 0), (0, 1)}))
        with pytest.raises(ValueError):
            Matching(frozenset({(0, 0), (1, 0)}))


class TestMinimumVertexCover:
    def test_unique_matching_pattern(self, unique_matching_4x4):
        g = generate_bipartite(unique_matching_4x4)
        cover = minimum_vertex_cover(g, maximum_matching(g))
        assert cover.size == 4
        assert cover.covers(g)

    def test_minus_edge(self, unique_matching_4x4):
        g = generate_bipartite(unique_matching_4x4)
        g = BipartiteGraph(g.n_col, g.n_row, g.edges - {(1, 1)})
        cover = minimum_vertex_cover(g, maximum_matching(g))
        assert cover.size == 3
        assert cover.covers(g)

    def test_empty(self):
        g = BipartiteGraph(n_col=2, n_row=2, edges=frozenset())
        cover = minimum_vertex_cover(g, Matching(frozenset()))
        assert cover.size == 0

    def test_rejects_non_maximum(self, unique_matching_4x4):
        g = generate_bipartite(unique_matching_4x4)
        with pytest.raises(MatchingNotMaximumError):
            minimum_vertex_cover(g, Matching(frozenset()))

    def test_rejects_foreign_edges(self, unique_matching_4x4):
        g = generate_bipartite(unique_matching_4x4)
        with pytest.raises(ValueError):
            minimum_vertex_cover(g, Matching(frozenset({(3, 0)})))

    def test_equality_with_matching_size(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            g = random_graph(rng, max_side=6, max_edges=14)
            mm = maximum_matching(g)
            cover = minimum_vertex_cover(g, mm)
            assert cover.size == mm.size
            assert cover.covers(g)

    def test_oracle_full_subset_scan_small(self):
        rng = np.random.default_rng(37)
        for _ in range(60):
            g = random_graph(rng, max_side=4, max_edges=10)
            mm = maximum_matching(g)
            assert mm.size == oracles.min_vertex_cover_size_full(
                g.n_col, g.n_row, sorted(g.edges)
            )

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


class TestSaturation:
    def test_saturates_columns(self, unique_matching_4x4):
        assert oracles.has_saturating_matching(generate_bipartite(unique_matching_4x4), "columns")

    def test_minus_edge_columns(self, unique_matching_4x4):
        g = generate_bipartite(unique_matching_4x4)
        g = BipartiteGraph(g.n_col, g.n_row, g.edges - {(1, 1)})
        assert not oracles.has_saturating_matching(g, "columns")

    def test_identity_rows(self):
        g = generate_bipartite(SparsityPattern.from_rows(np.eye(3, dtype=int).tolist()))
        assert oracles.has_saturating_matching(g, "rows")

    def test_bad_side(self, unique_matching_4x4):
        with pytest.raises(ValueError):
            oracles.has_saturating_matching(generate_bipartite(unique_matching_4x4), "left")

    def test_hall_consistency(self):
        rng = np.random.default_rng(43)
        for _ in range(120):
            g = random_graph(rng, max_side=6, max_edges=16)
            saturable = oracles.has_saturating_matching(g, "columns")
            assert saturable == oracles.hall_condition_columns(
                g.n_col, g.n_row, sorted(g.edges)
            )


class TestIsRcm:
    def test_reordered_diagonal(self, reordered_diagonal_4x4):
        ok, witness = is_rcm(reordered_diagonal_4x4)
        assert ok
        assert witness.size == 4
        for c, r in witness.pairs:
            assert reordered_diagonal_4x4.entries[r][c] == 1
        # the documented witness is itself a valid perfect matching
        documented = {(2, 0), (1, 1), (3, 2), (0, 3)}
        assert documented <= set(generate_bipartite(reordered_diagonal_4x4).edges)
        Matching(frozenset(documented))

    def test_identity(self):
        ok, witness = is_rcm(SparsityPattern.from_rows(np.eye(4, dtype=int).tolist()))
        assert ok
        assert witness.pairs == {(j, j) for j in range(4)}

    def test_zero_row(self):
        ok, witness = is_rcm(SparsityPattern.from_rows([[1, 1], [0, 0]]))
        assert not ok and witness is None

    def test_not_square(self, mincut_demo_8x3):
        with pytest.raises(NotSquareError):
            is_rcm(mincut_demo_8x3)

    def test_against_permutation_oracle(self):
        rng = np.random.default_rng(47)
        for _ in range(100):
            n = int(rng.integers(1, 6))
            p = random_pattern(rng, n, n, float(rng.uniform(0.1, 0.9)))
            assert is_rcm(p)[0] == oracles.has_reordered_ones_diagonal(p)


@given(st.integers(0, 5), st.integers(1, 5), st.data())
@settings(max_examples=120)
def test_matching_pairs_are_edges_and_disjoint(n_col, n_row, data):
    universe = [(c, r) for c in range(n_col) for r in range(n_row)]
    chosen = data.draw(st.sets(st.sampled_from(universe))) if universe else set()
    g = BipartiteGraph(n_col=n_col, n_row=n_row, edges=frozenset(chosen))
    mm = maximum_matching(g)
    assert mm.pairs <= g.edges
    cols = [c for c, _ in mm.pairs]
    rows = [r for _, r in mm.pairs]
    assert len(set(cols)) == len(cols) and len(set(rows)) == len(rows)
