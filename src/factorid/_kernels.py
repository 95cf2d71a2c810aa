"""The hot kernels, in pure Python: bipartite matching, min-cut, subset sweep.

Outputs are deterministic, so iteration order and tie-breaking are part of
the contract: vertices are processed in ascending index order and arcs in
insertion order. Hopcroft-Karp finds the base matching that every
counting-rule route reads (bipartite.py's alternating walk grows it by one
augmenting path at a time where s >= 2); Dinic's min-cut serves the paper's
identification network, which the s=1 route is tested against; the sweep, a
plain recursive walk over column subsets that skips the extensions of any
prefix already touching enough rows, serves the brute-force oracle.
"""

_INF = 1 << 60


def active_backend() -> str:
    """Name of the kernel implementation in use; only 'pure' exists."""
    return "pure"


def hopcroft_karp(n_left, n_right, indptr, indices):
    """Maximum bipartite matching on a CSR adjacency (left -> right).

    Phases of breadth-first layering followed by depth-first augmentation
    along shortest alternating paths, O(E * sqrt(V)) worst case.

    Returns (size, match_left, match_right) with -1 for unmatched vertices.
    """
    match_l = [-1] * n_left
    match_r = [-1] * n_right
    dist = [0] * n_left
    queue = [0] * n_left
    size = 0
    while True:
        # BFS: layer left vertices by alternating-path distance from the
        # free ones; `found` is the length of the shortest augmenting path.
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
        while qi < qn:
            u = queue[qi]
            qi += 1
            du = dist[u]
            if du >= found:
                continue
            for k in range(indptr[u], indptr[u + 1]):
                w = match_r[indices[k]]
                if w == -1:
                    if found == _INF:
                        found = du + 1
                elif dist[w] == _INF:
                    dist[w] = du + 1
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


def dinic_min_cut(n_nodes, source, sink, tails, heads, caps):
    """Exact maximum flow / minimum cut via level graphs and blocking flows.

    Arcs are directed (tails[i] -> heads[i]) with integer capacities. Returns
    (flow_value, source_side, flows) where source_side[v] is True iff v is
    reachable from the source in the final residual network (the minimal
    min-cut source side, which is the same for every maximum flow) and
    flows[i] is the flow carried by input arc i.
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
