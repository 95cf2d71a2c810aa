"""Matchings of a sparsity pattern's bipartite graph.

A pattern is the biadjacency matrix of its graph: column vertex j and row
vertex i are adjacent iff bit i of `col_masks[j]` is set. `Matching` holds
a matching's (column, row) pairs, and `alternating_reach`, which reads one
row mask per left vertex, is the one alternating-path walk: from a maximum
matching it gives König's vertex cover, and from a free vertex it grows a
matching by one augmenting path.
"""

from dataclasses import dataclass
from operator import index
from typing import Sequence

from factorid.errors import InvalidArgumentError


@dataclass(frozen=True)
class Matching:
    """Set of edges with pairwise distinct endpoints."""

    pairs: frozenset[tuple[int, int]]

    def __post_init__(self):
        try:
            # dict() unpacks each pair at C speed and index() refuses an
            # endpoint that is not an integer, such as the "a" of "ab"
            row_of = dict(self.pairs)
            cols = set(map(index, row_of))
            rows = set(map(index, row_of.values()))
        except (TypeError, ValueError):  # not iterable, or a pair of other length
            raise InvalidArgumentError(
                f"matching must hold (column, row) pairs of integers, got {self.pairs!r}"
            ) from None
        if len(cols) != len(self.pairs) or len(rows) != len(self.pairs):
            raise InvalidArgumentError("matching reuses an endpoint")

    @property
    def size(self) -> int:
        return len(self.pairs)


def alternating_reach(
    masks: Sequence[int],
    match_l: list[int],
    match_r: list[int],
    free: int,
    starts: Sequence[int] | None = None,
) -> tuple[set[int] | None, int]:
    """Walk alternating paths from the free left vertices `starts` (default:
    all of them): augment on the first free right vertex met, else return the
    reached left vertices and the mask of reached right vertices (König's
    construction).

    Bit v of `masks[u]` is set iff left vertex u and right vertex v are
    adjacent; `match_l` and `match_r` give each vertex's partner, -1 when
    free, and bit v of `free` is set iff right vertex v is free. Each step
    takes the right vertices of the popped left vertex not yet reached as
    one mask, so a walk costs O(|left| + |right|) mask operations of
    O(|right| / 64) words each. If they include a free one, it flips the
    augmenting path to the lowest such vertex in place (the matching grows
    by one) and returns (None, the mask of that right vertex), which the
    caller clears from its `free`; callers that need a maximum matching
    check for None.
    """
    stack = [u for u, v in enumerate(match_l) if v == -1] if starts is None else [*starts]
    reached = set(stack)
    before: dict[int, int] = {}  # reached matched left vertex -> left vertex before it
    seen = 0
    while stack:
        u = stack.pop()
        new = masks[u] & ~seen  # a matched u was reached by its own row, already seen
        hit = new & free
        if hit:
            hit &= -hit
            v = hit.bit_length() - 1
            while u != -1:  # flip the path back to its start
                match_r[v] = u
                match_l[u], v = v, match_l[u]
                u = before.get(u, -1)
            return None, hit
        seen |= new
        while new:
            low = new & -new
            w = match_r[low.bit_length() - 1]
            before[w] = u
            reached.add(w)
            stack.append(w)
            new ^= low
    return reached, seen
