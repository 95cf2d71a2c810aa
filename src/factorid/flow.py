"""Identification network construction and exact min-cut via Dinic's algorithm.

The network encodes the minimum weighted vertex cover of the pattern's
bipartite graph with column weight 2r+1 and row weight r: cutting a
source->column arc puts that column in the cover, cutting a row->sink arc
puts that row in the cover, and the middle arcs are uncuttable. The network
is held as flat tails/heads/caps tuples, built from the pattern's column rows
and handed to the kernel as they are; `Arc` tuples are built only for cut
arcs or on request.

This is the paper's s=1 construction. `identify.counting_rule_s1` reads the
same cover weight and witness off a replica matching instead, and the tests
hold it to the min-cut computed here.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from factorid import _kernels
from factorid.bipartite import VertexCover
from factorid.errors import SentinelCutError
from factorid.pattern import SparsityPattern


class Arc(NamedTuple):
    tail: int
    head: int
    capacity: int


@dataclass(frozen=True)
class FlowNetwork:
    """Directed network with source 0, column nodes, row nodes, sink last.

    Node layout: source = 0, column j -> node 1+j, row i -> node 1+n_col+i,
    sink = n_col + n_row + 1. Arc k runs from tails[k] to heads[k] with
    capacity caps[k]. Arcs are ordered deterministically: source arcs by
    ascending column, middle arcs by (column, row), sink arcs by ascending
    row. `sentinel` is the finite stand-in for infinite capacity; it exceeds
    the weight of the all-columns cut, so no minimum cut can use it.
    """

    n_col: int
    n_row: int
    tails: tuple[int, ...]
    heads: tuple[int, ...]
    caps: tuple[int, ...]
    sentinel: int

    @cached_property
    def arcs(self) -> tuple[Arc, ...]:
        """The arcs as `Arc` tuples, in network order."""
        return tuple(map(Arc, self.tails, self.heads, self.caps))

    @property
    def n_nodes(self) -> int:
        return self.n_col + self.n_row + 2

    @property
    def source(self) -> int:
        return 0

    @property
    def sink(self) -> int:
        return self.n_col + self.n_row + 1


@dataclass(frozen=True)
class CutResult:
    """Minimum s-t cut: its value, the source-side nodes, and crossing arcs."""

    value: int
    source_side: frozenset[int]
    cut_arcs: tuple[Arc, ...]


def build_identification_network(p: SparsityPattern) -> FlowNetwork:
    """Build the weighted network for a trimmed pattern.

    Capacities: 2r+1 on source->column arcs, r on row->sink arcs, and the
    sentinel r(2r+1)+1 on one column->row arc per 1-entry.
    """
    p.require_trimmed()
    r, m = p.r, p.m
    col_w = 2 * r + 1
    sentinel = r * col_w + 1
    sink = r + m + 1
    tails = [0] * r
    heads = list(range(1, r + 1))
    for j, rows in enumerate(p.col_rows):
        tails += [1 + j] * len(rows)
        heads += [1 + r + i for i in rows]
    caps = [col_w] * r + [sentinel] * (len(tails) - r) + [r] * m
    tails += range(1 + r, sink)
    heads += [sink] * m
    return FlowNetwork(r, m, tuple(tails), tuple(heads), tuple(caps), sentinel)


def max_flow_min_cut(n: FlowNetwork) -> CutResult:
    """Exact minimum cut of the network (equals the maximum s-t flow).

    The reported source side is the set reachable from the source in the
    final residual network, which is the same for every maximum flow, so the
    witness does not depend on the flow Dinic finds. Only the source and sink
    arcs are scanned for cut arcs: a middle arc carries the sentinel, which
    exceeds every finite minimum cut, and the sum check below proves that no
    middle arc was cut.
    """
    value, side, _ = _kernels.dinic_min_cut(
        n.n_nodes, n.source, n.sink, n.tails, n.heads, n.caps
    )
    ends = (slice(n.n_col), slice(len(n.tails) - n.n_row, None))
    cut_arcs = tuple(
        Arc(t, h, c)
        for part in ends
        for t, h, c in zip(n.tails[part], n.heads[part], n.caps[part])
        if side[t] and not side[h]
    )
    assert value == sum(a.capacity for a in cut_arcs)
    return CutResult(
        value=value,
        source_side=frozenset(i for i, on in enumerate(side) if on),
        cut_arcs=cut_arcs,
    )


def mwvc_from_cut(n: FlowNetwork, c: CutResult) -> VertexCover:
    """Read the minimum weighted vertex cover off a finite minimum cut.

    Column j is covered iff the source->column-j arc is cut; row i is covered
    iff the row-i->sink arc is cut. The cover weight equals the cut value.
    """
    if c.value >= n.sentinel:
        raise SentinelCutError(f"cut value {c.value} reaches the sentinel {n.sentinel}")
    cols = set()
    rows = set()
    for a in c.cut_arcs:
        if a.tail == n.source:
            cols.add(a.head - 1)
        elif a.head == n.sink:
            rows.add(a.tail - 1 - n.n_col)
        else:
            raise SentinelCutError("minimum cut crosses a middle arc")
    return VertexCover(cols=frozenset(cols), rows=frozenset(rows), weight=c.value)
