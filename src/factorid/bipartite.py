"""Matchings and vertex covers of a sparsity pattern's bipartite graph.

A pattern is the biadjacency matrix of its graph: column vertex j and row
vertex i are adjacent iff bit i of `col_masks[j]` is set, so the graph
functions here take the `SparsityPattern` itself. `match_adjacency` is the
one way into the Hopcroft-Karp kernel: the graph functions, `is_rcm`, and
identify.py's base matching all pass it an adjacency list, one list of right
neighbours per left vertex.
"""

from dataclasses import dataclass
from typing import Sequence

from factorid import _kernels
from factorid.errors import InvalidArgumentError, MatchingNotMaximumError, NotSquareError
from factorid.pattern import SparsityPattern


@dataclass(frozen=True)
class Matching:
    """Set of edges with pairwise distinct endpoints."""

    pairs: frozenset[tuple[int, int]]

    def __post_init__(self):
        cols = {c for c, _ in self.pairs}
        rows = {r for _, r in self.pairs}
        if len(cols) != len(self.pairs) or len(rows) != len(self.pairs):
            raise InvalidArgumentError("matching reuses an endpoint")

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

    def covers(self, p: SparsityPattern) -> bool:
        """Whether every 1-entry (i, j) of p has column j or row i in the cover."""
        return all(
            j in self.cols or i in self.rows for j, rows in enumerate(p.col_rows) for i in rows
        )


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


def maximum_matching(p: SparsityPattern) -> Matching:
    """Maximum-cardinality matching of the pattern's columns into its rows."""
    _, match_l, _ = match_adjacency(p.col_rows, p.m)
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


def minimum_vertex_cover(p: SparsityPattern, mm: Matching) -> VertexCover:
    """Minimum vertex cover of the pattern's graph, built from a maximum
    matching of it.

    Follows alternating paths from the unmatched column vertices: reached
    rows enter the cover, reached columns leave it. Cover size then equals
    the matching size. Raises InvalidArgumentError if a pair of `mm` is not
    a 1-entry of p, and MatchingNotMaximumError if the walk finds an
    augmenting path (i.e. `mm` was not maximum).
    """
    match_l = [-1] * p.r
    match_r = [-1] * p.m
    for c, r in mm.pairs:
        if not (0 <= c < p.r and 0 <= r < p.m and p.col_masks[c] >> r & 1):
            raise InvalidArgumentError(f"matching pair ({c}, {r}) is not an edge of the pattern")
        match_l[c] = r
        match_r[r] = c
    reached_c, reached_r = alternating_reach(p.col_rows, match_l, match_r)
    cols = frozenset(c for c in range(p.r) if c not in reached_c)
    rows = frozenset(reached_r)
    return VertexCover(cols=cols, rows=rows, weight=len(cols) + len(rows))


def is_rcm(p: SparsityPattern) -> tuple[bool, Matching | None]:
    """Whether a square pattern has a column-saturating matching.

    Equivalently: some reordering of the rows puts a 1 on every diagonal
    cell, so a generic filling of the pattern is non-singular.
    """
    if p.m != p.r:
        raise NotSquareError(f"pattern is {p.m}x{p.r}, need square")
    mm = maximum_matching(p)
    if mm.size == p.r:
        return True, mm
    return False, None

