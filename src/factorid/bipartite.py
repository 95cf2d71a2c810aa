"""Bipartite graphs generated from sparsity patterns, matchings, and covers.

`match_adjacency` is the one way into the Hopcroft-Karp kernel: the graph
functions here, `is_rcm`, and identify.py's replica check and s=1 route all
pass it an adjacency list, one list of right neighbours per left vertex.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from factorid import _kernels
from factorid.errors import MatchingNotMaximumError, NotSquareError
from factorid.pattern import SparsityPattern


@dataclass(frozen=True)
class BipartiteGraph:
    """Undirected bipartite graph with column vertices and row vertices.

    Edges are (column index, row index) pairs. When generated from a pattern,
    column j and row i are adjacent iff entry (i, j) is 1.
    """

    n_col: int
    n_row: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        for c, r in self.edges:
            if not (0 <= c < self.n_col and 0 <= r < self.n_row):
                raise ValueError(f"edge ({c}, {r}) out of range")

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Sorted row neighbors per column vertex."""
        adj: list[list[int]] = [[] for _ in range(self.n_col)]
        for c, r in self.edges:
            adj[c].append(r)
        return tuple(tuple(sorted(rows)) for rows in adj)


@dataclass(frozen=True)
class Matching:
    """Set of edges with pairwise distinct endpoints."""

    pairs: frozenset[tuple[int, int]]

    def __post_init__(self):
        cols = {c for c, _ in self.pairs}
        rows = {r for _, r in self.pairs}
        if len(cols) != len(self.pairs) or len(rows) != len(self.pairs):
            raise ValueError("matching reuses an endpoint")

    @property
    def size(self) -> int:
        return len(self.pairs)

    def column_to_row(self) -> dict[int, int]:
        return {c: r for c, r in self.pairs}


@dataclass(frozen=True)
class VertexCover:
    """Vertex set touching every edge; `weight` is its total vertex weight."""

    cols: frozenset[int]
    rows: frozenset[int]
    weight: int

    @property
    def size(self) -> int:
        return len(self.cols) + len(self.rows)

    def covers(self, g: BipartiteGraph) -> bool:
        return all(c in self.cols or r in self.rows for c, r in g.edges)


def generate_bipartite(p: SparsityPattern) -> BipartiteGraph:
    """Bipartite graph of a pattern: edge (j, i) iff entry (i, j) is 1."""
    edges = frozenset((j, i) for j, rows in enumerate(p.col_rows) for i in rows)
    return BipartiteGraph(n_col=p.r, n_row=p.m, edges=edges)


def match_adjacency(
    adjacency: Sequence[Sequence[int]], n_right: int
) -> tuple[int, list[int], list[int]]:
    """Maximum matching (Hopcroft-Karp) of the left vertices u into the right
    vertices adjacency[u]: (size, match_left, match_right), -1 for free.

    Deterministic: vertices are scanned in ascending order and neighbours in
    the given order, so equal inputs give the same matching even when
    several maximum matchings exist.
    """
    indptr, indices = [0], []
    for rows in adjacency:
        indices += rows
        indptr.append(len(indices))
    return _kernels.hopcroft_karp(len(adjacency), n_right, indptr, indices)


def maximum_matching(g: BipartiteGraph) -> Matching:
    """Maximum-cardinality matching of the graph's columns into its rows."""
    _, match_l, _ = match_adjacency(g.adjacency, g.n_row)
    return Matching(frozenset((c, r) for c, r in enumerate(match_l) if r != -1))


def alternating_reach(
    adjacency: Sequence[Sequence[int]], match_l: list[int], match_r: list[int]
) -> tuple[set[int], set[int]]:
    """Left and right vertices that alternating paths from the free left
    vertices reach (König's construction).

    `adjacency[u]` lists the right neighbours of left vertex u; `match_l` and
    `match_r` give each vertex's partner, -1 when free. Either side may play
    the left one: pass the other side's adjacency and swap the two matching
    arrays to walk from its free vertices. Raises MatchingNotMaximumError on
    an augmenting path (matching not maximum).
    """
    stack = [u for u, v in enumerate(match_l) if v == -1]
    reached_l = set(stack)
    reached_r: set[int] = set()
    while stack:
        u = stack.pop()
        for v in adjacency[u]:
            if match_l[u] == v or v in reached_r:
                continue
            reached_r.add(v)
            back = match_r[v]
            if back == -1:
                raise MatchingNotMaximumError(
                    f"augmenting path exists through right vertex {v}"
                )
            if back not in reached_l:
                reached_l.add(back)
                stack.append(back)
    return reached_l, reached_r


def minimum_vertex_cover(g: BipartiteGraph, mm: Matching) -> VertexCover:
    """Minimum vertex cover built from a maximum matching.

    Follows alternating paths from the unmatched column vertices: reached
    rows enter the cover, reached columns leave it. Cover size then equals
    the matching size. Raises MatchingNotMaximumError if the walk finds an
    augmenting path (i.e. `mm` was not maximum).
    """
    if not mm.pairs <= g.edges:
        raise ValueError("matching contains edges not present in the graph")
    match_l = [-1] * g.n_col
    match_r = [-1] * g.n_row
    for c, r in mm.pairs:
        match_l[c] = r
        match_r[r] = c
    reached_c, reached_r = alternating_reach(g.adjacency, match_l, match_r)
    cols = frozenset(c for c in range(g.n_col) if c not in reached_c)
    rows = frozenset(reached_r)
    return VertexCover(cols=cols, rows=rows, weight=len(cols) + len(rows))


def is_rcm(p: SparsityPattern) -> tuple[bool, Matching | None]:
    """Whether a square pattern has a column-saturating matching.

    Equivalently: some reordering of the rows puts a 1 on every diagonal
    cell, so a generic filling of the pattern is non-singular.
    """
    if p.m != p.r:
        raise NotSquareError(f"pattern is {p.m}x{p.r}, need square")
    size, match_l, _ = match_adjacency(p.col_rows, p.m)
    if size == p.r:
        return True, Matching(frozenset(enumerate(match_l)))
    return False, None

