"""The hot kernels, in pure Python: bipartite matching and subset sweep.

Outputs are deterministic, so iteration order and tie-breaking are part of
the contract: vertices are processed in ascending index order. Hopcroft-Karp
finds the base matching that every counting-rule route reads, and
`alternating_reach` grows it by one augmenting path at a time where s >= 2.
Both read one row bitmask per left vertex, so a step at a left vertex is a
few operations on row masks at C speed. `identify._rule` hands both the
same list of per-copy masks, and `identify.rcm_decomposition` hands
Hopcroft-Karp its own; Hopcroft-Karp reads either through the identity
`owner`.
Hopcroft-Karp's first phase is a greedy pass, each left vertex taking its
lowest free right vertex, and it returns right after that pass where the
pass matches every left vertex. Each later phase's breadth-first layering
stops at the first free right vertex it meets; its output is the
edge-by-edge kernel's on ascending rows (see its docstring). The sweep, a
plain recursive walk over column subsets that skips the extensions of any
prefix already touching enough rows, serves the brute-force oracle.
"""


def active_backend() -> str:
    """Name of the kernel implementation in use; only 'pure' exists."""
    return "pure"


def hopcroft_karp(n_left, n_right, col_masks, owner):
    """Maximum bipartite matching of left vertices into right vertices given
    as row bitmasks: left vertex u is a copy of column owner[u], and its right
    neighbours are the set bits of col_masks[owner[u]].

    Phases of breadth-first layering followed by depth-first augmentation
    along shortest alternating paths, O(E * sqrt(V)) worst case. The first
    phase, whose shortest augmenting paths are single edges, is the greedy
    pass `_greedy_matching`; the phase loop starts from the matching it
    leaves. Where that pass matches every left vertex, the layering would
    start from no free vertex, so the kernel returns the same tuple at once.
    The routes pass the list of per-copy masks and the identity owner
    `range(n_left)`. Sets of right vertices are ints, so each step at a
    vertex is a few mask operations at C speed instead of one Python step
    per edge.

    The layering runs one layer of left vertices at a time. A vertex whose
    mask meets `free` (the free right vertices) fixes `found`, the shortest
    augmenting-path length, and stops it: every layer below `found` is then
    complete, and vertices at distance `found` lead the depth-first step to
    no free vertex. Otherwise `mask & unseen` are its new right vertices,
    whose partners form the next layer. `rows_at[d]` is the mask of right
    vertices whose partner lies at distance d; a vertex at depth d of the
    depth-first step steps to the lowest right vertex above its cursor that
    is in `rows_at[d + 1]`, or in `free` at depth `found - 1`. A dead end
    takes its right vertex out of its layer, and so does every vertex of a
    flipped augmenting path (whose free end leaves `free`): a path of the
    same length through it would share an edge with the flipped one, and so
    be longer (Hopcroft and Karp 1973). The edge-by-edge kernel, which may
    step into such a vertex again through its new right vertex, meets a dead
    end there. So on ascending neighbours both try the vertices that lead on
    in the same order, and return the same matching.

    Returns (size, match_left, match_right, free): -1 in match_left and
    match_right for unmatched vertices, and bit v of free set iff right
    vertex v is unmatched.
    """
    masks = [*map(col_masks.__getitem__, owner)]
    size, match_l, match_r, free = _greedy_matching(masks, n_right)
    if size == n_left:  # no free left vertex for a layering to start from
        return size, match_l, match_r, free
    while True:
        # BFS: rows_at[d + 1] collects the rows met from layer d, that is the
        # rows whose partners form layer d + 1.
        layer = [u for u in range(n_left) if match_l[u] == -1]
        unseen = ((1 << n_right) - 1) ^ free
        rows_at = [0]
        found = 0
        while layer and not found:
            nxt = []
            met = 0
            for u in layer:
                mask = masks[u]
                if mask & free:
                    found = len(rows_at)
                    break
                new = mask & unseen
                if new:
                    unseen ^= new
                    met |= new
                    while new:
                        low = new & -new
                        nxt.append(match_r[low.bit_length() - 1])
                        new ^= low
            rows_at.append(met)
            layer = nxt
        if not found:
            return size, match_l, match_r, free
        # DFS: augment along layered paths of length exactly `found`; the
        # vertex at depth d of the stack lies in layer d.
        last = found - 1
        for u0 in range(n_left):
            if match_l[u0] != -1:
                continue
            su = [u0]
            sc = [0]
            while su:
                d = len(su) - 1
                u = su[d]
                cand = masks[u] & (free if d == last else rows_at[d + 1]) >> sc[d] << sc[d]
                if not cand:
                    if d:
                        rows_at[d] ^= 1 << match_l[u]
                    su.pop()
                    sc.pop()
                    continue
                v = (cand & -cand).bit_length() - 1
                if d < last:
                    sc[d] = v + 1
                    su.append(match_r[v])
                    sc.append(0)
                    continue
                free ^= 1 << v
                for k in range(d, -1, -1):
                    u = su[k]
                    if k:
                        rows_at[k] ^= 1 << match_l[u]
                    match_l[u], v = v, match_l[u]
                    match_r[match_l[u]] = u
                size += 1
                break


def _greedy_matching(masks, n_right):
    """Hopcroft-Karp's first phase: each left vertex u in ascending order
    takes the lowest free right vertex of masks[u], if there is one. That
    phase's layering stops at distance 1 and its depth-first step, at depth
    0 only, makes exactly these choices. Returns (size, match_l, match_r,
    free), free as the mask of the right vertices left free."""
    match_l = [-1] * len(masks)
    match_r = [-1] * n_right
    free = (1 << n_right) - 1
    size = 0
    for u, mask in enumerate(masks):
        cand = mask & free
        if cand:
            low = cand & -cand
            free ^= low
            v = low.bit_length() - 1
            match_l[u] = v
            match_r[v] = u
            size += 1
    return size, match_l, match_r, free


def alternating_reach(masks, match_l, match_r, free, starts=None):
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
    before = {}  # reached matched left vertex -> left vertex before it
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


def counting_sweep(r, s, col_masks):
    """Check that every q-column subset covers at least 2q+s nonzero rows.

    col_masks[j] has bit i set iff row i is nonzero in column j. Subsets are
    scanned by ascending size, lexicographically within a size, and the first
    violating subset is returned: (holds, subset or None, its row count).

    Each size q is a depth-first walk over the q-combinations that carries the
    prefix union down the recursion. Unions only grow as columns are added, so
    a prefix that already touches 2q+s rows has no violating extension: it is
    skipped with its whole subtree, which leaves the first violator unchanged.
    2^r - 1 subsets is the worst case, reached when nothing prunes.
    """

    def walk(base, start, left, need):
        # The first violator among base's extensions by `left` columns from
        # start on, as (columns, row count), or None.
        for j in range(start, r - left + 1):
            u = base | col_masks[j]
            c = u.bit_count()
            if c < need:
                if left == 1:
                    return (j,), c
                found = walk(u, j + 1, left - 1, need)
                if found:
                    return (j, *found[0]), found[1]
        return None

    for q in range(1, r + 1):
        found = walk(0, 0, q, 2 * q + s)
        if found:
            return False, *found
    return True, None, -1
