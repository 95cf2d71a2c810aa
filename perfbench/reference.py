"""Independent answers the benchmark checks factorid's outputs against.

Nothing here imports factorid: the counting rule and the minimum weighted
vertex cover are computed by exhaustive subset scans over numpy bitmasks,
and the large networks go to scipy's max-flow and bipartite matching. scipy
is imported only when first used, after the timed loop, so that it stays
out of the measured peak RSS.
"""

import numpy as np


def touched_rows(mat: np.ndarray, cols) -> int:
    """Rows with a nonzero entry in any of the given columns."""
    return int(np.count_nonzero(mat[:, list(cols)].any(axis=1)))


def _table(masks):
    """Row-bitmask union and size of every subset of the given columns,
    indexed by the subset's bitmask."""
    union = np.zeros(1 << len(masks), dtype=np.uint64)
    size = np.zeros(1 << len(masks), dtype=np.int64)
    for j, mask in enumerate(masks):
        half = 1 << j
        union[half:2 * half] = union[:half] | mask
        size[half:2 * half] = size[:half] + 1
    return union, size


def _subsets(mat: np.ndarray, low_bits=16):
    """Yield (subset bitmasks, sizes, rows touched) over every column subset,
    the empty one included, in chunks of 2^low_bits. Needs m <= 64."""
    m, r = mat.shape
    assert m <= 64
    weights = np.left_shift(np.uint64(1), np.arange(m, dtype=np.uint64))
    masks = (mat.astype(np.uint64) * weights[:, None]).sum(axis=0, dtype=np.uint64)
    low = min(r, low_bits)
    low_union, low_size = _table(masks[:low])
    high_union, high_size = _table(masks[low:])
    ids = np.arange(1 << low, dtype=np.int64)
    for h in range(len(high_union)):
        counts = np.bitwise_count(low_union | high_union[h]).astype(np.int64)
        yield (h << low) | ids, low_size + high_size[h], counts


def first_violation(mat: np.ndarray, s: int):
    """First column subset, by size then lexicographically, that touches
    fewer than 2q+s rows, with its row count; None when the rule holds."""
    r = mat.shape[1]
    best = None
    for ids, size, counts in _subsets(mat):
        bad = (counts < 2 * size + s) & (ids > 0)
        if not bad.any():
            continue
        q = int(size[bad].min())
        if best is not None and q > len(best):
            continue
        for b in ids[bad & (size == q)].tolist():
            subset = tuple(j for j in range(r) if b >> j & 1)
            if best is None or len(subset) < len(best) or subset < best:
                best = subset
    return None if best is None else (best, touched_rows(mat, best))


def draw_verdict(delta) -> tuple[int, bool, int | None]:
    """(effective_r, identified, minimum cover weight) of one 0/1 draw.

    The cover weighs 2r+1 per column and r per row on the trimmed pattern; a
    cover that leaves the column set U uncovered must hold every row touched
    by U, so the minimum is a scan over U. The rule holds iff it reaches
    r(2r+1). No columns left after trimming means trivially identified.
    """
    mat = np.asarray(delta, dtype=np.uint8)
    mat = mat[:, mat.any(axis=0)]
    r = mat.shape[1]
    if r == 0:
        return 0, True, None
    weight = min(
        int(((2 * r + 1) * (r - size) + r * counts).min())
        for _, size, counts in _subsets(mat)
    )
    return r, weight >= r * (2 * r + 1), weight


def s1_cut_value(mat: np.ndarray) -> int:
    """Max flow of the s=1 identification network of a trimmed pattern."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_flow

    m, r = mat.shape
    sink = r + m + 1
    rows_i, cols_j = np.nonzero(mat)
    tails = np.concatenate([np.zeros(r, int), 1 + cols_j, 1 + r + np.arange(m)])
    heads = np.concatenate([1 + np.arange(r), 1 + r + rows_i, np.full(m, sink)])
    caps = np.concatenate([
        np.full(r, 2 * r + 1), np.full(len(rows_i), r * (2 * r + 1) + 1), np.full(m, r),
    ]).astype(np.int32)
    graph = csr_matrix((caps, (tails, heads)), shape=(sink + 1, sink + 1))
    return int(maximum_flow(graph, 0, sink).flow_value)


def s0_holds(mat: np.ndarray) -> bool:
    """Whether the column-duplicated graph of a trimmed pattern has a
    matching saturating all 2r column copies."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_bipartite_matching

    r = mat.shape[1]
    doubled = csr_matrix(np.vstack([mat.T, mat.T]).astype(np.int8))
    matched = maximum_bipartite_matching(doubled, perm_type="column")
    return int(np.count_nonzero(matched >= 0)) == 2 * r
