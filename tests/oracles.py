"""Slow, obviously-correct reference implementations used as test oracles.

Independent of the package's algorithms on purpose: matchings come from
backtracking, covers and rule checks from direct subset scans. Keep these
naive; their only job is to be trivially auditable. The exceptions keep the
paper's constructions as references for the routes that replaced them:
`mincut_s1` is the identification network's min-cut (built and cut by
Dinic's algorithm in `reference_cover`) for the s=1 route,
`counting_rule_by_deletion` reduces s >= 2 to that min-cut, and
`counting_rule_per_column` decides s >= 2 with one fresh replica matching per
column, the route that one base matching plus augmenting searches replaced,
on patterns beyond brute force's reach. It matches with
`hopcroft_karp_csr`, the edge-by-edge kernel that the mask kernel replaced
and must equal, and reads S and N(S) off its own `konig_reach`, so it shares
no matching code with the package's routes that it checks. The matching
references run on that kernel too: `maximum_matching` matches a pattern's
columns into its rows, and `has_saturating_matching` asks whether one side
is covered (for a square pattern: whether a row reordering puts a 1 on every
diagonal cell). With `duplicate_columns` they are the textbook form of the
replica matching. This module imports only result dataclasses from
`factorid.identify`. A graph is given as the pattern
that is its biadjacency matrix: `pattern_from_edges` builds it from
(column, row) edges and `pattern_edges` lists them back. `parse_dense_per_line`
is the dense-text parser that splits every line into one token per cell, the
reference for the whole-buffer checks that replaced it.
`verdict_in_original_coords` maps a verdict back through `dataclasses.replace`
and its own lists of kept rows and columns, the complements of the report's
removed ones, index by index: the reference for the witnesses that
`variance_identified` gives in the caller's coordinates. `touched_rows`
recounts a witness's rows cell by cell.
"""

import re
from dataclasses import replace
from itertools import combinations, permutations
from math import comb

from factorid.errors import DimensionError, EmptyInputError, ParseError
from factorid.identify import CountingRuleVerdict, FailWitness, Matching, PassWitness
from factorid.pattern import SparsityPattern
from reference_cover import build_identification_network, max_flow_min_cut, mwvc_from_cut

_INF = 1 << 60


def pattern_from_edges(n_col, n_row, edges):
    """The n_row x n_col pattern with a 1 at (i, j) for each edge (j, i)."""
    return SparsityPattern(
        tuple(tuple(int((j, i) in edges) for j in range(n_col)) for i in range(n_row))
    )


def duplicate_columns(p):
    """Double the columns; column j + r mirrors column j."""
    return SparsityPattern(tuple(row + row for row in p.entries))


def touched_rows(p, cols):
    """Number of rows with a 1 in at least one of the columns cols."""
    cols = tuple(cols)
    return sum(any(row[j] for j in cols) for row in p.entries)


def has_saturating_matching(p, side):
    """Whether some matching covers every vertex of the chosen side."""
    if side not in ("columns", "rows"):
        raise ValueError(f"side must be 'columns' or 'rows', got {side!r}")
    target = p.r if side == "columns" else p.m
    return maximum_matching(p).size == target


def mincut_s1(p):
    """The paper's s=1 construction on a trimmed pattern: the minimum cut of
    the identification network, and the columns its cover leaves out."""
    network = build_identification_network(p)
    cut = max_flow_min_cut(network)
    cover = mwvc_from_cut(network, cut)
    return cut.value, tuple(j for j in range(p.r) if j not in cover.cols)


def assert_s1_matches_mincut(p, verdict):
    """An s=1 verdict carries the min-cut value, and fails with exactly the
    columns the min-cut leaves out of the cover."""
    value, excluded = mincut_s1(p)
    assert verdict.mincut_value == value
    assert verdict.holds == (value >= p.r * (2 * p.r + 1))
    assert (verdict.witness_fail.columns if verdict.witness_fail else ()) == excluded


def pattern_edges(p):
    return [(j, i) for i, row in enumerate(p.entries) for j, v in enumerate(row) if v]


def max_matching_size(n_col, n_row, edges):
    """Maximum matching size by backtracking over column vertices."""
    adj = [[] for _ in range(n_col)]
    for c, r in edges:
        adj[c].append(r)
    best = 0

    def rec(c, used, size):
        nonlocal best
        if size + (n_col - c) <= best:
            return
        if c == n_col:
            best = size
            return
        for r in adj[c]:
            if r not in used:
                used.add(r)
                rec(c + 1, used, size + 1)
                used.remove(r)
        rec(c + 1, used, size)

    rec(0, set(), 0)
    return best


def min_vertex_cover_size_full(n_col, n_row, edges):
    """Minimum vertex cover size by scanning every vertex subset."""
    n = n_col + n_row
    best = n
    for mask in range(1 << n):
        size = mask.bit_count()
        if size >= best:
            continue
        if all((mask >> c) & 1 or (mask >> (n_col + r)) & 1 for c, r in edges):
            best = size
    return best


def min_weighted_cover(col_masks, col_weight, row_weight):
    """Exact minimum weighted vertex cover of a pattern's bipartite graph.

    Scans every column subset; the rows that still touch an uncovered column
    are forced into the cover (and the subset plus its forced rows is itself
    a cover), so the scan visits a superset of all minimal covers.
    """
    r = len(col_masks)
    best = None
    for mask in range(1 << r):
        forced = 0
        k = 0
        for j in range(r):
            if (mask >> j) & 1:
                k += 1
            else:
                forced |= col_masks[j]
        w = col_weight * k + row_weight * forced.bit_count()
        if best is None or w < best:
            best = w
    return best


def counting_rule_direct(p, s):
    """The rule by direct recount: every q columns touch >= 2q+s rows."""
    for q in range(1, p.r + 1):
        for cols in combinations(range(p.r), q):
            rows = sum(1 for row in p.entries if any(row[j] for j in cols))
            if rows < 2 * q + s:
                return False
    return True


def first_violating_subset(col_masks, s):
    """The counting sweep's contract by plain scan: subsets by ascending size,
    lexicographic within a size; returns (holds, first violator, its row count)."""
    r = len(col_masks)
    for q in range(1, r + 1):
        for cols in combinations(range(r), q):
            union = 0
            for j in cols:
                union |= col_masks[j]
            count = union.bit_count()
            if count < 2 * q + s:
                return False, cols, count
    return True, None, -1


def least_maximizer(col_masks, weights):
    """The largest value of sum(weights[j] for j in S) - |N(S)| over nonempty
    column sets S, and the intersection of the sets reaching it, by a scan
    of every subset."""
    best, meet = None, None
    for q in range(1, len(col_masks) + 1):
        for cols in combinations(range(len(col_masks)), q):
            union = 0
            for j in cols:
                union |= col_masks[j]
            value = sum(weights[j] for j in cols) - union.bit_count()
            if best is None or value > best:
                best, meet = value, set(cols)
            elif value == best:
                meet &= set(cols)
    return best, tuple(sorted(meet))


def counting_rule_by_deletion(p, s):
    """The paper's reduction of the rule at s >= 1 to s=1: it holds iff every
    deletion of s-1 rows leaves a pattern whose min-cut reaches r(2r+1).

    A column emptied by a deletion touches no row, so the remainder fails.
    """
    if p.m < 2 * p.r + s:
        return False
    for deleted in combinations(range(p.m), s - 1):
        rows = tuple(row for i, row in enumerate(p.entries) if i not in deleted)
        if not all(any(row[j] for row in rows) for j in range(p.r)):
            return False
        if mincut_s1(SparsityPattern(rows))[0] < p.r * (2 * p.r + 1):
            return False
    return True


def has_reordered_ones_diagonal(p):
    """Whether some row permutation puts a 1 on every diagonal cell."""
    assert p.m == p.r
    return any(
        all(p.entries[perm[j]][j] for j in range(p.r))
        for perm in permutations(range(p.m))
    )


def hall_condition_columns(n_col, n_row, edges):
    """Hall's condition on the column side: |N(W)| >= |W| for every W."""
    adj = [set() for _ in range(n_col)]
    for c, r in edges:
        adj[c].add(r)
    for q in range(1, n_col + 1):
        for cols in combinations(range(n_col), q):
            if len(set().union(*(adj[c] for c in cols))) < q:
                return False
    return True


def hopcroft_karp_csr(n_left, n_right, indptr, indices):
    """Maximum bipartite matching on a CSR adjacency (left -> right), one
    Python step per edge: the package kernel before it read column masks,
    kept as the reference that the mask kernel must equal on ascending
    neighbour lists.

    Phases of breadth-first layering followed by depth-first augmentation
    along shortest alternating paths, O(E * sqrt(V)) worst case.

    The layering stops as soon as an edge reaches a free right vertex: that
    fixes `found`, the shortest augmenting-path length. The queue is FIFO, so
    by then every left vertex within distance `found - 1` of a free one has
    its distance. The depth-first step descends one layer at a time and
    augments only from distance `found - 1`; left vertices at distance
    `found`, labelled or not, lead it to no free vertex. So it makes the same
    augmentations, in the same order, as after a full layering.

    Returns (size, match_left, match_right) with -1 for unmatched vertices.
    """
    match_l = [-1] * n_left
    match_r = [-1] * n_right
    dist = [0] * n_left
    queue = [0] * n_left
    size = 0
    while True:
        # BFS: layer left vertices by alternating-path distance from the
        # free ones until an edge reaches a free right vertex; `found` is
        # the length of the shortest augmenting path.
        qn = 0
        for u in range(n_left):
            if match_l[u] == -1:
                dist[u] = 0
                queue[qn] = u
                qn += 1
            else:
                dist[u] = _INF
        found = _INF
        qi = 0
        while qi < qn and found == _INF:
            u = queue[qi]
            qi += 1
            du = dist[u] + 1
            for k in range(indptr[u], indptr[u + 1]):
                w = match_r[indices[k]]
                if w == -1:
                    found = du
                    break
                if dist[w] == _INF:
                    dist[w] = du
                    queue[qn] = w
                    qn += 1
        if found == _INF:
            return size, match_l, match_r
        # DFS: augment along layered paths of length exactly `found`.
        for u0 in range(n_left):
            if match_l[u0] != -1:
                continue
            su = [u0]
            sk = [indptr[u0]]
            sv = [-1]
            while su:
                u = su[-1]
                k = sk[-1]
                if k == indptr[u + 1]:
                    dist[u] = _INF
                    su.pop()
                    sk.pop()
                    sv.pop()
                    continue
                sk[-1] = k + 1
                v = indices[k]
                w = match_r[v]
                if w == -1:
                    if dist[u] + 1 == found:
                        sv[-1] = v
                        for i in range(len(su)):
                            match_l[su[i]] = sv[i]
                            match_r[sv[i]] = su[i]
                        size += 1
                        break
                elif dist[w] == dist[u] + 1:
                    sv[-1] = v
                    su.append(w)
                    sk.append(indptr[w])
                    sv.append(-1)


def match_adjacency(adjacency, n_right):
    """`hopcroft_karp_csr` on adjacency lists: (size, match_left,
    match_right) of left vertex u into the right vertices adjacency[u]."""
    indptr, indices = [0], []
    for rows in adjacency:
        indices += rows
        indptr.append(len(indices))
    return hopcroft_karp_csr(len(adjacency), n_right, indptr, indices)


def column_rows(p):
    """Ascending row list of every column."""
    return [[i for i in range(p.m) if mask >> i & 1] for mask in p.col_masks]


def maximum_matching(p):
    """Maximum matching of the pattern's columns into its rows, by
    `hopcroft_karp_csr` on ascending row lists."""
    _, match_l, _ = match_adjacency(column_rows(p), p.m)
    return Matching(frozenset((c, i) for c, i in enumerate(match_l) if i != -1))


def konig_reach(adjacency, match_l, match_r):
    """Left and right vertices that alternating paths from the free left
    vertices of a maximum matching reach (König's construction); asserts
    that no augmenting path exists."""
    stack = [u for u, v in enumerate(match_l) if v == -1]
    reached_l = set(stack)
    reached_r = set()
    while stack:
        u = stack.pop()
        for v in adjacency[u]:
            if match_l[u] == v or v in reached_r:
                continue
            reached_r.add(v)
            back = match_r[v]
            assert back != -1, f"augmenting path exists through right vertex {v}"
            if back not in reached_l:
                reached_l.add(back)
                stack.append(back)
    return reached_l, reached_r


def counting_rule_per_column(p, s):
    """`counting_rule` at s >= 2 on a trimmed pattern, one column at a time:
    a fresh Hopcroft-Karp matching of the replicas in which column j has 2+s
    copies and every other column 2, and on the first j whose matching
    leaves a copy free, König's walk from the free copies for S and N(S)."""
    m, r = p.m, p.r
    if m < 2 * r + s:
        return CountingRuleVerdict(
            r=r, s=s, holds=False,
            witness_fail=FailWitness(columns=tuple(range(r)), nonzero_rows=m),
        )
    col_rows = column_rows(p)
    for j in range(r):
        owner = [*range(r)] * 2 + [j] * s
        adjacency = [col_rows[c] for c in owner]
        size, match_l, match_r = match_adjacency(adjacency, m)
        if size == len(owner):
            continue
        copies, rows = konig_reach(adjacency, match_l, match_r)
        outside = [i for i in range(m) if i not in rows]
        return CountingRuleVerdict(
            r=r, s=s, holds=False,
            witness_fail=FailWitness(
                columns=tuple(sorted({owner[u] for u in copies})),
                nonzero_rows=len(rows),
                deleted_rows=tuple(sorted((sorted(rows) + outside)[: s - 1])),
            ),
        )
    try:
        count = str(comb(m, s - 1))
    except ValueError:  # more digits than int-to-str allows
        count = f"C({m}, {s - 1})"
    return CountingRuleVerdict(
        r=r, s=s, holds=True,
        witness_pass=PassWitness(note=f"all {count} deletions of {s - 1} rows pass the s=1 rule"),
    )


def parse_dense_per_line(data):
    """(m, col_masks) of dense text, read line by line and token by token,
    raising the error `parse_pattern` raises for the first bad line."""
    rows = []
    for lineno, raw in enumerate(data.splitlines(), start=1):
        tokens = raw.split()
        if not tokens or tokens[0].startswith(b"#"):
            continue
        row = b"".join(tokens)
        if len(row) != len(tokens) or row.translate(None, b"01"):
            tok = next(t for t in re.finditer(rb"\S+", raw) if t.group() not in (b"0", b"1"))
            raise ParseError(
                f"unexpected token {tok.group().decode('utf-8', 'replace')!r}",
                line=lineno,
                column=tok.start() + 1,
            )
        if rows and len(row) != len(rows[0]):
            raise DimensionError(f"row has {len(row)} entries, expected {len(rows[0])}", line=lineno)
        rows.append(row)
    if not rows:
        raise EmptyInputError("input contains no pattern rows")
    masks = tuple(
        sum(1 << i for i, row in enumerate(rows) if row[j] == ord("1")) for j in range(len(rows[0]))
    )
    return len(rows), masks


def verdict_in_original_coords(verdict, report):
    """Map a verdict computed on a trimmed pattern back to original indices."""
    if not report.removed_zero_columns and not report.removed_zero_rows:
        return verdict
    kept_rows = [i for i in range(report.original_m) if i not in report.removed_zero_rows]
    kept_columns = [j for j in range(report.original_r) if j not in report.removed_zero_columns]
    wf = verdict.witness_fail
    if wf is not None:
        wf = replace(
            wf,
            columns=tuple(kept_columns[j] for j in wf.columns),
            deleted_rows=(
                tuple(kept_rows[i] for i in wf.deleted_rows)
                if wf.deleted_rows is not None
                else None
            ),
        )
    wp = verdict.witness_pass
    if wp is not None and wp.matching is not None:
        r_eff = report.effective_r
        r_orig = report.original_r
        pairs = frozenset(
            (
                kept_columns[c]
                if c < r_eff
                else r_orig + kept_columns[c - r_eff],
                kept_rows[i],
            )
            for c, i in wp.matching.pairs
        )
        wp = replace(wp, matching=Matching(pairs))
    return replace(verdict, witness_fail=wf, witness_pass=wp)
