"""The counting sweep against the naive scan that defines its contract, and
the augmenting search against Hopcroft-Karp on the grown graph."""

import numpy as np

import oracles
from factorid import _kernels


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
    """Hopcroft-Karp on a random CSR graph, then k appended left vertices,
    each searched once: the matching stays a maximum one of the grown graph
    and every pair is an edge."""
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
        indptr = [0]
        for adj in rows[:n_left]:
            indptr.append(indptr[-1] + len(adj))
        indices = [v for adj in rows[:n_left] for v in adj]
        size, match_l, match_r = _kernels.hopcroft_karp(n_left, n_right, indptr, indices)
        match_l += [-1] * k
        for u in range(n_left, n_left + k):
            found = _kernels.augment(rows, u, match_l, match_r)
            assert found == (match_l[u] != -1)
            size += found
            grew += found
        indptr = [0]
        for adj in rows:
            indptr.append(indptr[-1] + len(adj))
        indices = [v for adj in rows for v in adj]
        assert size == _kernels.hopcroft_karp(n_left + k, n_right, indptr, indices)[0]
        pairs = [(u, v) for u, v in enumerate(match_l) if v != -1]
        assert len(pairs) == size
        assert len({v for _, v in pairs}) == size
        assert all(v in rows[u] for u, v in pairs)
        assert all(match_r[v] == u for u, v in pairs)
        assert sum(u != -1 for u in match_r) == size
    assert grew >= 200
