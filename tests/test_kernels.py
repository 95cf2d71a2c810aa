"""The counting sweep against the naive scan that defines its contract,
Hopcroft-Karp on column masks against the edge-by-edge reference kernel in
oracles.py (whose exact output a digest pins) and its size against scipy,
its greedy first phase against the definition of that phase, and the
alternating walk's augmenting search, which grows a Hopcroft-Karp matching,
against the reference on the grown graph."""

import hashlib
import random

import numpy as np
import pytest

import oracles
from factorid import _kernels
from factorid.bipartite import alternating_reach


def sweep_cases(rng, n, max_rows=None):
    """(r, s, col_masks) for the counting sweep with r <= 12, three families
    in turn: random masks on m <= max_rows rows (default 3r+3); tight
    patterns, half of them every column on its own two rows plus the same s
    extra rows, where nothing prunes (sometimes the last column takes one row
    from each of the two before it and one of its own, so the last 3-subset is
    the first to fail), and half of them m = 2r+s with columns of 2+s or 3+s
    random rows, where violators sit deep and narrow; and all-ones columns,
    where pruning fires at depth 1."""
    for case in range(n):
        r = int(rng.integers(0, 13))
        s = int(rng.integers(0, 5))
        m = int(rng.integers(1, (max_rows or 3 * r + 3) + 1))
        family = case % 3
        if family == 0:
            density = rng.random()
            masks = [
                sum(1 << i for i, on in enumerate(rng.random(m) < density) if on)
                for _ in range(r)
            ]
        elif family == 1 and rng.random() < 0.5:
            masks = [0b11 << 2 * j for j in range(r)]
            if r >= 3 and rng.random() < 0.5:
                masks[-1] = 0b10101 << 2 * (r - 3)
            extra = ((1 << s) - 1) << (2 * r)
            masks = [mask | extra for mask in masks]
        elif family == 1:
            m = 2 * r + s
            masks = []
            for _ in range(r):
                rows = rng.choice(m, min(m, 2 + s + int(rng.integers(0, 2))), replace=False)
                masks.append(sum(1 << int(i) for i in rows))
        else:
            masks = [(1 << m) - 1] * r
        yield r, s, masks


def test_counting_sweep_first_violator():
    """The pruned sweep returns exactly the naive scan's first violator, also
    on up to 129 rows, where masks are wider than 64 bits."""
    cases = [
        *sweep_cases(np.random.default_rng(83), 600),
        *sweep_cases(np.random.default_rng(79), 600, max_rows=129),
    ]
    for r, s, masks in cases:
        assert _kernels.counting_sweep(r, s, masks) == oracles.first_violating_subset(masks, s)


def test_augment_grows_a_maximum_matching():
    """Hopcroft-Karp on a random graph, then k appended left vertices, each
    searched once by the alternating walk: the matching stays a maximum one
    of the grown graph, every pair is an edge, and the rows each search
    reports matched keep the caller's free-row mask exact."""
    rng = np.random.default_rng(89)
    grew = 0
    for _ in range(400):
        n_left, n_right, k = (int(x) for x in rng.integers(0, 12, size=3))
        n_right += 1
        density = rng.random()
        rows = [
            [int(v) for v in rng.permutation(n_right) if rng.random() < density]
            for _ in range(n_left + k)
        ]
        masks = [sum(1 << v for v in adj) for adj in rows]
        size, match_l, match_r = _kernels.hopcroft_karp(n_left, n_right, masks, range(n_left))
        match_l += [-1] * k
        free = sum(1 << v for v, u in enumerate(match_r) if u == -1)
        for u in range(n_left, n_left + k):
            reached, row = alternating_reach(masks, match_l, match_r, free, starts=(u,))
            found = reached is None
            assert found == (match_l[u] != -1)
            if found:
                assert row & free and row.bit_count() == 1
                free ^= row
            size += found
            grew += found
        assert free == sum(1 << v for v, u in enumerate(match_r) if u == -1)
        assert size == oracles.match_adjacency(rows, n_right)[0]
        pairs = [(u, v) for u, v in enumerate(match_l) if v != -1]
        assert len(pairs) == size
        assert len({v for _, v in pairs}) == size
        assert all(v in rows[u] for u, v in pairs)
        assert all(match_r[v] == u for u, v in pairs)
        assert sum(u != -1 for u in match_r) == size
    assert grew >= 200


def matching_graphs(seed, n):
    """n CSR graphs (n_left, n_right, indptr, indices) for Hopcroft-Karp,
    three families in turn: random graphs with neighbours in random order;
    duplicated-column replicas, every column's ascending rows listed twice as
    the s=0 route lists them, at densities around the 2r rows they need; and
    either kind on 65 to 200 right vertices. Drawn from random() alone,
    whose stream Python keeps fixed across versions."""
    rng = random.Random(seed)

    def below(k):
        return int(rng.random() * k)

    for case in range(n):
        family = case % 3
        replica = family == 1 or (family == 2 and case % 2 == 0)
        if replica:
            r = 1 + below(12 if family == 1 else 40)
            n_right = 65 + below(136) if family == 2 else 1 + below(3 * r + 3)
            density = min(1.0, (1 + below(4)) * r / n_right * rng.random())
            cols = [[i for i in range(n_right) if rng.random() < density] for _ in range(r)]
            rows = cols * 2
        else:
            n_left = below(13 if family == 0 else 60)
            n_right = 65 + below(136) if family == 2 else 1 + below(12)
            density = rng.random() * (1.0 if family == 0 else 0.1)
            rows = []
            for _ in range(n_left):
                adj = [v for v in range(n_right) if rng.random() < density]
                for k in range(len(adj) - 1, 0, -1):
                    t = below(k + 1)
                    adj[k], adj[t] = adj[t], adj[k]
                rows.append(adj)
        indptr = [0]
        for adj in rows:
            indptr.append(indptr[-1] + len(adj))
        yield len(rows), n_right, indptr, [v for adj in rows for v in adj]


def sorted_and_masks(graph):
    """A CSR graph with each neighbour list in ascending order, and its left
    vertices' neighbour sets as masks."""
    n_left, n_right, indptr, indices = graph
    rows = [sorted(indices[indptr[u]:indptr[u + 1]]) for u in range(n_left)]
    return (
        (n_left, n_right, indptr, [v for adj in rows for v in adj]),
        [sum(1 << v for v in adj) for adj in rows],
    )


# SHA-256 of repr((size, match_l, match_r)) over matching_graphs(97, 2400),
# computed with the Hopcroft-Karp whose breadth-first layering ran through its
# whole queue; the layering that stops at the first free vertex must give the
# same matchings
HOPCROFT_KARP_DIGEST = "9a4aa94d0568a2edb736cd99ecf1894cc32b4895ef81cbf3326b3512699b6c7a"


def test_hopcroft_karp_output_is_pinned():
    """The reference kernel returns exactly the pinned matchings, so every
    witness built on them stays byte for byte the same."""
    digest = hashlib.sha256()
    for graph in matching_graphs(97, 2400):
        digest.update(repr(oracles.hopcroft_karp_csr(*graph)).encode())
    assert digest.hexdigest() == HOPCROFT_KARP_DIGEST


def test_mask_kernel_equals_reference():
    """On ascending neighbour lists the mask kernel returns exactly the
    reference kernel's matching; each left vertex is the one copy of its own
    mask (owner = range(n_left))."""
    for graph in matching_graphs(97, 2400):
        ascending, masks = sorted_and_masks(graph)
        n_left, n_right = graph[:2]
        expected = oracles.hopcroft_karp_csr(*ascending)
        assert _kernels.hopcroft_karp(n_left, n_right, masks, range(n_left)) == expected


def test_hopcroft_karp_size_matches_scipy():
    """The matching is a valid one of maximum size by scipy's count."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_bipartite_matching

    for graph in matching_graphs(101, 600):
        n_left, n_right, indptr, indices = graph
        masks = sorted_and_masks(graph)[1]
        size, match_l, match_r = _kernels.hopcroft_karp(n_left, n_right, masks, range(n_left))
        pairs = [(u, v) for u, v in enumerate(match_l) if v != -1]
        assert len(pairs) == size and all(match_r[v] == u for u, v in pairs)
        assert all(v in indices[indptr[u]:indptr[u + 1]] for u, v in pairs)
        if not indices:
            assert size == 0
            continue
        graph = csr_matrix(([1] * len(indices), indices, indptr), shape=(n_left, n_right))
        graph.sum_duplicates()
        assert size == int((maximum_bipartite_matching(graph, perm_type="column") != -1).sum())


def csr_of_masks(masks):
    """The CSR graph (indptr, indices) whose left vertex u has the ascending
    set bits of masks[u] as its neighbours."""
    indptr, indices = [0], []
    for mask in masks:
        indices += [v for v in range(mask.bit_length()) if mask >> v & 1]
        indptr.append(len(indices))
    return indptr, indices


# (n_right, col_masks, owner) on which the greedy first phase leaves the
# matching short, so a later phase must augment
GREEDY_SHORT = {
    "second vertex needs the first one's row": (2, [0b11, 0b01], range(2)),
    "augmenting path of length five": (3, [0b011, 0b110, 0b001], range(3)),
    "phases of length three and five": (5, [0b11, 0b01, 0b01100, 0b11000, 0b00100], range(5)),
    "replica copies sharing two rows": (4, [0b1111, 0b0011], (0, 1, 0, 1)),
}


@pytest.mark.parametrize("n_right, col_masks, owner", GREEDY_SHORT.values(), ids=GREEDY_SHORT)
def test_later_phases_augment_the_greedy_matching(n_right, col_masks, owner):
    masks = [col_masks[j] for j in owner]
    greedy = _kernels._greedy_matching(masks, n_right)[0]
    result = _kernels.hopcroft_karp(len(masks), n_right, col_masks, owner)
    assert result[0] > greedy
    assert result == oracles.hopcroft_karp_csr(len(masks), n_right, *csr_of_masks(masks))


def test_greedy_matching_is_maximal():
    """Each left vertex in ascending order takes the lowest right vertex of
    its mask that no earlier one took, so no free left vertex keeps a free
    right vertex in its mask, and `free` masks exactly the free ones."""
    for graph in matching_graphs(97, 2400):
        masks = sorted_and_masks(graph)[1]
        n_right = graph[1]
        size, match_l, match_r, free = _kernels._greedy_matching(masks, n_right)
        taken = 0
        for u, mask in enumerate(masks):
            cand = mask & ~taken
            assert match_l[u] == (cand & -cand).bit_length() - 1
            if cand:
                assert match_r[match_l[u]] == u
                taken |= cand & -cand
            else:
                assert not mask & free
        assert free == (1 << n_right) - 1 - taken
        assert size == taken.bit_count() == sum(u != -1 for u in match_r)
