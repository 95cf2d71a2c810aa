import numpy as np
import pytest

import oracles
from conftest import random_pattern
from factorid import _kernels
from factorid.errors import EmptyPatternError, SentinelCutError, UntrimmedPatternError
from factorid.flow import (
    CutResult,
    build_identification_network,
    max_flow_min_cut,
    mwvc_from_cut,
)
from factorid.pattern import SparsityPattern, trim


def trimmed_random_pattern(rng, max_m, max_r, density=None):
    while True:
        m = int(rng.integers(1, max_m + 1))
        r = int(rng.integers(1, max_r + 1))
        d = density if density is not None else float(rng.uniform(0.15, 0.9))
        p, _ = trim(random_pattern(rng, m, r, d))
        if p.r >= 1:
            return p


class TestBuildNetwork:
    def test_demo_capacities(self, mincut_demo_8x3):
        n = build_identification_network(mincut_demo_8x3)
        assert n.n_nodes == 13
        assert n.sentinel == 22
        source_arcs = [a for a in n.arcs if a.tail == n.source]
        middle_arcs = [a for a in n.arcs if a.tail != n.source and a.head != n.sink]
        sink_arcs = [a for a in n.arcs if a.head == n.sink]
        assert len(source_arcs) == 3 and all(a.capacity == 7 for a in source_arcs)
        assert len(middle_arcs) == 13 and all(a.capacity == 22 for a in middle_arcs)
        assert len(sink_arcs) == 8 and all(a.capacity == 3 for a in sink_arcs)
        assert len(n.arcs) < 8 + 3 + 8 * 3

    def test_single_column(self):
        n = build_identification_network(SparsityPattern.from_rows([[1], [1], [1]]))
        assert [a.capacity for a in n.arcs if a.tail == n.source] == [3]
        assert [a.capacity for a in n.arcs if a.head == n.sink] == [1, 1, 1]

    def test_untrimmed_rejected(self):
        with pytest.raises(UntrimmedPatternError):
            build_identification_network(SparsityPattern.from_rows([[1], [0]]))
        with pytest.raises(UntrimmedPatternError):
            build_identification_network(SparsityPattern.from_rows([[1, 0], [1, 0]]))

    def test_empty_rejected(self):
        with pytest.raises(EmptyPatternError):
            build_identification_network(SparsityPattern(((), ())))

    def test_middle_arcs_match_ones(self, deletion_demo_8x3):
        n = build_identification_network(deletion_demo_8x3)
        middles = {
            (a.tail - 1, a.head - 1 - n.n_col)
            for a in n.arcs
            if a.tail != n.source and a.head != n.sink
        }
        assert middles == {(j, i) for j, i in oracles.pattern_edges(deletion_demo_8x3)}


class TestMaxFlowMinCut:
    def test_demo_value(self, mincut_demo_8x3):
        cut = max_flow_min_cut(build_identification_network(mincut_demo_8x3))
        assert cut.value == 21

    def test_single_column_all_ones(self):
        n = build_identification_network(SparsityPattern.from_rows([[1], [1], [1]]))
        assert max_flow_min_cut(n).value == 3

    def test_two_rows_one_column(self):
        n = build_identification_network(SparsityPattern.from_rows([[1], [1]]))
        cut = max_flow_min_cut(n)
        assert cut.value == 2
        assert all(a.head == n.sink for a in cut.cut_arcs)

    def test_cut_arcs_sum_to_value_and_avoid_sentinel(self):
        rng = np.random.default_rng(53)
        for _ in range(150):
            p = trimmed_random_pattern(rng, 8, 5)
            n = build_identification_network(p)
            cut = max_flow_min_cut(n)
            assert cut.cut_arcs == tuple(
                a for a in n.arcs if a.tail in cut.source_side and a.head not in cut.source_side
            )
            assert cut.value == sum(a.capacity for a in cut.cut_arcs)
            assert all(a.capacity < n.sentinel for a in cut.cut_arcs)
            assert cut.value <= p.r * (2 * p.r + 1)

    def test_matches_exhaustive_weighted_cover(self):
        rng = np.random.default_rng(59)
        for _ in range(150):
            p = trimmed_random_pattern(rng, 6, 4)
            value = max_flow_min_cut(build_identification_network(p)).value
            expected = oracles.min_weighted_cover(p.col_masks, 2 * p.r + 1, p.r)
            assert value == expected


class TestMwvcFromCut:
    def test_demo_cover_is_all_columns(self, mincut_demo_8x3):
        n = build_identification_network(mincut_demo_8x3)
        cover = mwvc_from_cut(n, max_flow_min_cut(n))
        assert cover.weight == 21
        assert cover.cols == {0, 1, 2} and cover.rows == frozenset()

    def test_two_rows_cover(self):
        n = build_identification_network(SparsityPattern.from_rows([[1], [1]]))
        cover = mwvc_from_cut(n, max_flow_min_cut(n))
        assert cover.rows == {0, 1} and cover.cols == frozenset()
        assert cover.weight == 2

    def test_three_rows_weight(self):
        n = build_identification_network(SparsityPattern.from_rows([[1], [1], [1]]))
        assert mwvc_from_cut(n, max_flow_min_cut(n)).weight == 3

    def test_cover_weight_decomposes_and_covers(self):
        rng = np.random.default_rng(61)
        for _ in range(150):
            p = trimmed_random_pattern(rng, 8, 5)
            n = build_identification_network(p)
            cut = max_flow_min_cut(n)
            cover = mwvc_from_cut(n, cut)
            assert cover.weight == cut.value
            assert (2 * p.r + 1) * len(cover.cols) + p.r * len(cover.rows) == cut.value
            for j, i in oracles.pattern_edges(p):
                assert j in cover.cols or i in cover.rows

    def test_sentinel_cut_rejected(self, mincut_demo_8x3):
        n = build_identification_network(mincut_demo_8x3)
        fake = CutResult(value=n.sentinel, source_side=frozenset({0}), cut_arcs=())
        with pytest.raises(SentinelCutError):
            mwvc_from_cut(n, fake)

    def test_middle_arc_cut_rejected(self, mincut_demo_8x3):
        n = build_identification_network(mincut_demo_8x3)
        middle = next(a for a in n.arcs if a.tail != n.source and a.head != n.sink)
        fake = CutResult(value=1, source_side=frozenset({0}), cut_arcs=(middle,))
        with pytest.raises(SentinelCutError):
            mwvc_from_cut(n, fake)


class TestFlowFeasibility:
    def test_conservation_and_capacity(self):
        rng = np.random.default_rng(67)
        for _ in range(100):
            p = trimmed_random_pattern(rng, 8, 5)
            n = build_identification_network(p)
            tails = [a.tail for a in n.arcs]
            heads = [a.head for a in n.arcs]
            caps = [a.capacity for a in n.arcs]
            value, side, flows = _kernels.dinic_min_cut(
                n.n_nodes, n.source, n.sink, tails, heads, caps
            )
            assert all(0 <= f <= c for f, c in zip(flows, caps))
            net = [0] * n.n_nodes
            for (t, h, _), f in zip(n.arcs, flows):
                net[t] -= f
                net[h] += f
            assert net[n.source] == -value and net[n.sink] == value
            assert all(
                net[v] == 0 for v in range(n.n_nodes) if v not in (n.source, n.sink)
            )
            assert side[n.source] and not side[n.sink]
