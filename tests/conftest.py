import numpy as np
import pytest

from factorid import pattern
from factorid.identify import rcm_decomposition
from factorid.pattern import SparsityPattern

# 4x4 pattern whose graph has the unique perfect matching (u_i, v_i).
UNIQUE_MATCHING_4X4 = [
    [1, 0, 0, 0],
    [1, 1, 0, 0],
    [0, 1, 1, 0],
    [1, 0, 0, 1],
]

# 4x4 pattern with a reordered all-ones diagonal (rows v4, v2, v1, v3).
REORDERED_DIAGONAL_4X4 = [
    [0, 0, 1, 1],
    [1, 1, 0, 0],
    [1, 0, 1, 1],
    [1, 0, 1, 0],
]

# 8x3 pattern used for the row-deletion walkthrough (delete v1 and v6).
DELETION_DEMO_8X3 = [
    [1, 1, 1],
    [1, 1, 0],
    [1, 0, 1],
    [0, 0, 1],
    [1, 0, 0],
    [0, 1, 0],
    [1, 1, 0],
    [1, 0, 0],
]

# 8x3 pattern whose identification network has minimum cut 21 = 3*(2*3+1).
MINCUT_DEMO_8X3 = [
    [1, 0, 0],
    [0, 1, 0],
    [1, 1, 0],
    [1, 0, 1],
    [1, 1, 1],
    [0, 0, 1],
    [0, 1, 1],
    [0, 1, 0],
]

# 6x3 lower-triangular-ish pattern: fails the rule (m=6 < 7) although the
# model it represents is identifiable by a bespoke algebraic argument.
COUNTEREXAMPLE_6X3 = [
    [1, 0, 0],
    [1, 1, 0],
    [0, 1, 1],
    [1, 0, 1],
    [0, 1, 0],
    [0, 0, 1],
]

MINCUT_DEMO_TEXT = """\
# 8x3 example pattern
1 0 0
0 1 0
1 1 0
1 0 1
1 1 1
0 0 1
0 1 1
0 1 0
"""


@pytest.fixture
def unique_matching_4x4():
    return SparsityPattern.from_rows(UNIQUE_MATCHING_4X4)


@pytest.fixture
def reordered_diagonal_4x4():
    return SparsityPattern.from_rows(REORDERED_DIAGONAL_4X4)


@pytest.fixture
def deletion_demo_8x3():
    return SparsityPattern.from_rows(DELETION_DEMO_8X3)


@pytest.fixture
def mincut_demo_8x3():
    return SparsityPattern.from_rows(MINCUT_DEMO_8X3)


@pytest.fixture
def counterexample_6x3():
    return SparsityPattern.from_rows(COUNTEREXAMPLE_6X3)


@pytest.fixture
def no_row_copies(monkeypatch):
    """`_drop_rows`, the one function that copies rows, raises."""
    def refuse(*args):
        raise AssertionError("rows were copied")
    monkeypatch.setattr(pattern, "_drop_rows", refuse)


def random_pattern(rng: np.random.Generator, m: int, r: int, density: float) -> SparsityPattern:
    return SparsityPattern.from_rows((rng.random((m, r)) < density).astype(int).tolist())


def group_ranks(p: SparsityPattern, seed: int) -> list[int]:
    """Numerical ranks of both row groups of `rcm_decomposition` after each
    deletion of one row, in 20 fills of p's ones with standard normal draws:
    the paper's generic-rank claim at s=1, probed numerically. A rank counts
    the singular values above 1e-8 times the largest; the empty group of
    r = 0 has none, and rank 0."""
    decompositions = [rcm_decomposition(p, {i}) for i in range(p.m)]
    assert None not in decompositions
    rng = np.random.default_rng(seed)
    ones = np.nonzero(np.array(p.entries, dtype=bool).reshape(p.m, p.r))
    ranks = []
    for _ in range(20):
        fill = np.zeros((p.m, p.r))
        fill[ones] = rng.standard_normal(len(ones[0]))
        for dec in decompositions:
            for rows in (dec.rows_a, dec.rows_b):
                sv = np.linalg.svd(fill[list(rows)], compute_uv=False)
                ranks.append(int(np.count_nonzero(sv > 1e-8 * sv.max(initial=0.0))))
    return ranks
