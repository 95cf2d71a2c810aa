"""The paper's s=1 construction and König's cover, kept as test references.

The identification network encodes the minimum weighted vertex cover of a
pattern's bipartite graph with column weight 2r+1 and row weight r: cutting
a source->column arc puts that column in the cover, cutting a row->sink arc
puts that row in the cover, and the middle arcs are uncuttable. The network
is held as flat tails/heads/caps tuples, built from the pattern's column
masks and handed to Dinic's algorithm as they are; `Arc` tuples are built
only for cut arcs or on request.

The package decides s=1 from a replica matching instead (see
`factorid.identify`); `oracles.assert_s1_matches_mincut` holds it to the
min-cut computed here. This module imports nothing from `factorid.identify`
or `factorid._kernels`, so the reference shares no code with the route it
checks. `minimum_vertex_cover` is König's cover read off a maximum matching
by its own edge-by-edge breadth-first walk, the reference for the
matching/cover duality tests.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from factorid import Matching
from factorid.errors import InvalidArgumentError, MatchingNotMaximumError
from factorid.pattern import SparsityPattern


class SentinelCutError(AssertionError):
    """A reported cut contains an arc with the infinite-capacity sentinel."""


@dataclass(frozen=True)
class VertexCover:
    """Vertex set touching every edge; `weight` is its total vertex weight."""

    cols: frozenset[int]
    rows: frozenset[int]
    weight: int

    @property
    def size(self) -> int:
        return len(self.cols) + len(self.rows)

    def covers(self, p: SparsityPattern) -> bool:
        """Whether every 1-entry (i, j) of p has column j or row i in the cover."""
        rows = sum(1 << i for i in self.rows)
        return all(j in self.cols or not mask & ~rows for j, mask in enumerate(p.col_masks))


def minimum_vertex_cover(p: SparsityPattern, mm: Matching) -> VertexCover:
    """Minimum vertex cover of the pattern's graph, built from a maximum
    matching of it.

    Follows alternating paths breadth-first, one edge at a time, from the
    unmatched column vertices: reached rows enter the cover, reached columns
    leave it. Cover size then equals the matching size. Raises
    InvalidArgumentError if a pair of `mm` is not a 1-entry of p, and
    MatchingNotMaximumError if the walk reaches an unmatched row, the end of
    an augmenting path (i.e. `mm` was not maximum).
    """
    match_l = [-1] * p.r
    match_r = [-1] * p.m
    for c, r in mm.pairs:
        if not (0 <= c < p.r and 0 <= r < p.m and p.col_masks[c] >> r & 1):
            raise InvalidArgumentError(f"matching pair ({c}, {r}) is not an edge of the pattern")
        match_l[c] = r
        match_r[r] = c
    queue = [c for c in range(p.r) if match_l[c] == -1]
    reached_c = set(queue)
    reached_r = set()
    for c in queue:  # the loop reaches the columns appended during it
        for r in (i for i in range(p.m) if p.col_masks[c] >> i & 1):
            if r in reached_r:
                continue
            if match_r[r] == -1:
                raise MatchingNotMaximumError("matching is not maximum: an augmenting path exists")
            reached_r.add(r)
            reached_c.add(match_r[r])
            queue.append(match_r[r])
    cols = frozenset(c for c in range(p.r) if c not in reached_c)
    rows = frozenset(reached_r)
    return VertexCover(cols=cols, rows=rows, weight=len(cols) + len(rows))


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
    for j, mask in enumerate(p.col_masks):
        for i in range(m):
            if mask >> i & 1:
                tails.append(1 + j)
                heads.append(1 + r + i)
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
    value, side, _ = dinic_min_cut(n.n_nodes, n.source, n.sink, n.tails, n.heads, n.caps)
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


def dinic_min_cut(n_nodes, source, sink, tails, heads, caps):
    """Exact maximum flow / minimum cut via level graphs and blocking flows.

    Arcs are directed (tails[i] -> heads[i]) with integer capacities. Returns
    (flow_value, source_side, flows) where source_side[v] is True iff v is
    reachable from the source in the final residual network (the minimal
    min-cut source side, which is the same for every maximum flow) and
    flows[i] is the flow carried by input arc i. Nodes are processed in
    ascending index order and arcs in insertion order.
    """
    n_arcs = len(tails)
    to = [0] * (2 * n_arcs)
    cap = [0] * (2 * n_arcs)
    adj = [[] for _ in range(n_nodes)]
    for i in range(n_arcs):
        a = 2 * i
        to[a] = heads[i]
        cap[a] = caps[i]
        to[a + 1] = tails[i]
        adj[tails[i]].append(a)
        adj[heads[i]].append(a + 1)
    total = 0
    level = [-1] * n_nodes
    while True:
        for i in range(n_nodes):
            level[i] = -1
        level[source] = 0
        queue = [source]
        qi = 0
        while qi < len(queue):
            u = queue[qi]
            qi += 1
            lv = level[u] + 1
            for a in adj[u]:
                if cap[a] > 0:
                    v = to[a]
                    if level[v] == -1:
                        level[v] = lv
                        queue.append(v)
        if level[sink] == -1:
            break
        # Blocking flow: walk the level graph with per-node arc cursors.
        ptr = [0] * n_nodes
        path = []
        u = source
        while True:
            if u == sink:
                pushed = min(cap[a] for a in path)
                for a in path:
                    cap[a] -= pushed
                    cap[a ^ 1] += pushed
                total += pushed
                k = 0
                while cap[path[k]] > 0:
                    k += 1
                del path[k:]
                u = source if k == 0 else to[path[k - 1]]
                continue
            au = adj[u]
            pu = ptr[u]
            lv = level[u] + 1
            a = -1
            while pu < len(au):
                a = au[pu]
                if cap[a] > 0 and level[to[a]] == lv:
                    break
                pu += 1
            ptr[u] = pu
            if pu < len(au):
                path.append(a)
                u = to[a]
            elif u == source:
                break
            else:
                a = path.pop()
                u = to[a ^ 1]
                ptr[u] += 1
    source_side = [lv != -1 for lv in level]
    flows = [caps[i] - cap[2 * i] for i in range(n_arcs)]
    return total, source_side, flows
