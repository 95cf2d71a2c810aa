"""Counting-rule verdicts and the variance-identification decision.

The rule checked throughout: every set of q columns of the pattern must touch
at least 2q+s distinct nonzero rows (1 <= q <= r). Every polynomial route
matches column copies into rows with Hopcroft-Karp (the replica matching);
brute force over all column subsets is the oracle (exponential in r):

* s=0: two copies of every column must all be matched. The matching doubles
  as a constructive witness: it splits 2r rows into two groups whose square
  submatrices both carry a reordered nonzero diagonal. This is the s >= 2
  loop below with no copy added, which needs one pass.
* s=1: the same matching decides the paper's minimum weighted vertex cover
  (column weight 2r+1, row weight r). With d = 2r - |matching| (the largest
  2|S| - |N(S)| over column sets S, by Ore's deficiency form of Hall's
  theorem) and S* the columns with no copy that an alternating path from a
  free row reaches (the largest set of that deficiency, by Dulmage and
  Mendelsohn), the cover weighs r(2r+1) - rd - |S*|. The rule holds iff S*
  is empty, and S* is then the violating subset. The tests compare it
  against the paper's min-cut of the same cover (tests/reference_cover.py).
* s >= 2: for each column j, the same matching grown by s more copies of j,
  one augmenting-path search per copy. By Hall's theorem every grown
  matching saturates its 2r+s copies iff every q columns touch at least 2q+s
  rows. This replaces the paper's equivalent reduction to s=1 on every
  deletion of s-1 rows.

`_rule` decides every check, at every s, with at most one Hopcroft-Karp
run. It reads the columns' masks once (p's own tuple when it covers every
column) and builds from them the one list of per-copy masks that the kernel
and the searches read. For s >= 1 the sorted column degrees d_1 <= ... <=
d_r settle a pass first when d_q >= 2q+s for every q (any q columns include
one of degree at least d_q), at the cost of r popcounts and a sort, and at
s >= 2 the dimension bound m < 2r+s fails a check without a matching.
Otherwise the kernel runs once; its greedy first pass is the whole run when
it matches every copy. Then s=1 runs the closure, at most r+1 sweeps over
the columns not yet reached (O(r^2) mask operations on a chain ordered
against them; see `_cover`), and s >= 2 runs searches only for the columns
with fewer than s free rows when the base matching is perfect (at most
r*s), each O(r + m) operations on m-bit row masks. Where a copy stays free,
a check reports König's (S, N(S)), the columns and rows that alternating
paths from the free copies reach; `_kernels.alternating_reach` is both this
walk and the searches. With a perfect base matching the free copies are the
one whose search failed and its twins, which share its rows, so that
search's reach is the walk; the walk runs on its own only at s=0 and on a
short base matching. A failing check costs, beyond that, s-1 lowest-bit
steps for its deleted rows and the build of its verdict; a passing verdict
at s >= 1 depends on (r, s, m) alone and is built once per shape.
`rcm_decomposition` clears the deleted rows from the column masks and runs
the kernel once on what is left.
S is the smallest column set that maximizes its number of copies minus
|N(S)| (Dulmage and Mendelsohn), so the witness depends neither on the order
of the copies nor on which maximum matching the kernel or the searches end
with. `variance_identified` runs the rule at any s on the caller's pattern,
over its r nonzero columns: copies k and k + r carry the mask of the k-th
of them, and a zero row lies in no column mask, so no matching, walk or
count ever meets a zero row or column, and every index of the verdict is
the caller's. Every CLI command that decides the rule goes through it.

A passing s=1 verdict guarantees generic variance identification; a failing
one only means the sufficient condition does not apply (the rule is not
necessary), which is what the `sufficient_only` flag on verdict records says.
"""

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import compress
from math import comb
from operator import index, le, or_
from typing import Sequence

from factorid import _kernels
from factorid.errors import (
    InvalidArgumentError,
    MatchingNotMaximumError,
    OutOfRangeError,
    TooManyColumnsError,
)
from factorid.pattern import (
    SparsityPattern,
    TrimReport,
    _require_pattern,
    _shown,
    _trim_report,
)


@dataclass(frozen=True)
class Matching:
    """Set of (column, row) edges with pairwise distinct endpoints."""

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


@dataclass(frozen=True)
class FailWitness:
    """A violating column subset: it touches fewer than 2q+s nonzero rows."""

    columns: tuple[int, ...]
    nonzero_rows: int
    deleted_rows: tuple[int, ...] | None = None


@dataclass(frozen=True)
class PassWitness:
    matching: Matching | None = None
    note: str | None = None


@dataclass(frozen=True)
class CountingRuleVerdict:
    r: int
    s: int
    holds: bool
    witness_fail: FailWitness | None = None
    witness_pass: PassWitness | None = None
    mincut_value: int | None = None


@dataclass(frozen=True)
class RcmDecomposition:
    """Two disjoint row groups, each a square submatrix with a reordered
    nonzero diagonal; read off a size-2r matching in the duplicated graph."""

    deleted_rows: tuple[int, ...]
    rows_a: tuple[int, ...]
    rows_b: tuple[int, ...]
    matching: Matching


@dataclass(frozen=True)
class IdentificationVerdict:
    """Top-level decision. `identified=False` means "not guaranteed by the
    sufficient condition", never "proven unidentifiable"."""

    identified: bool
    effective_r: int
    trim: TrimReport
    detail: CountingRuleVerdict | None
    degenerate: bool
    sufficient_only: bool = True


def _lowest_bits(mask: int, k: int) -> tuple[int, ...]:
    """The k lowest set bits of mask, ascending; all of them if it has fewer."""
    bits = []
    while mask and len(bits) < k:
        bits.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return tuple(bits)


def _integer(name: str, value) -> int:
    """value as an int, from any integer type (numpy's too);
    InvalidArgumentError unless it is a non-negative integer."""
    try:
        value = index(value)
    except TypeError:
        raise InvalidArgumentError(f"{name} must be an integer, got {value!r}") from None
    if value < 0:
        raise InvalidArgumentError(f"{name} must be non-negative")
    return value


def counting_rule_bruteforce(
    p: SparsityPattern, s: int, max_columns: int = 24
) -> CountingRuleVerdict:
    """Check the rule by enumerating all nonempty column subsets.

    The first violating subset (smallest size, lexicographic within a size)
    is reported. Refuses r > max_columns: 2^r - 1 subsets, plus C(r,2) pair
    unions, is the worst case. The sweep skips a size q whose q-th smallest
    column degree or C(q,2)-th smallest pair union already reaches 2q+s, and
    every subset that extends columns already touching 2q+s rows, so it
    usually visits far fewer. InvalidArgumentError unless s and max_columns
    are non-negative integers.
    """
    s = _integer("s", s)
    max_columns = _integer("max_columns", max_columns)
    _require_pattern(p)
    if p.r > max_columns:
        raise TooManyColumnsError(f"r={p.r} exceeds the brute-force cap {max_columns}")
    holds, subset, count = _kernels.counting_sweep(p.r, s, list(p.col_masks))
    if holds:
        return CountingRuleVerdict(
            r=p.r, s=s, holds=True,
            witness_pass=PassWitness(note=f"all {2 ** p.r - 1} column subsets pass"),
        )
    return CountingRuleVerdict(
        r=p.r, s=s, holds=False,
        witness_fail=FailWitness(columns=tuple(subset), nonzero_rows=count),
    )


def counting_rule_s1(p: SparsityPattern) -> CountingRuleVerdict:
    """Polynomial s=1 check, read off the s=0 replica matching.

    `mincut_value` is the weight of the minimum weighted vertex cover, the
    paper's min-cut: r(2r+1) - rd - |S*|, with d the 2r copies left free and
    S* the columns with no copy reachable by an alternating path from a free
    row. The rule holds iff S* is empty (a column set of deficiency d > 0
    lies in S*), that is iff the cover weighs r(2r+1). Otherwise S* is the
    violating subset, q columns touching at most 2q rows, and the columns the
    min-cut leaves out of the cover. A passing verdict has no `witness_pass`:
    its certificate is `mincut_value`.

    S* is read off `_rule`'s base matching, the one Hopcroft-Karp run of the
    check, by a closure over the column masks: paths that reach a row of
    column j reach both its copies (they share their rows, and a row matched
    to one copy enters the other by a non-matching edge), and then the rows
    those copies are matched to. A reached copy that is free would end an
    augmenting path.
    Sorted column degrees with d_q >= 2q+1 for every q settle a pass, of
    weight r(2r+1), before any matching, as in `counting_rule`.
    """
    return counting_rule(p, 1)


def _cover(
    cols: Sequence[int], masks: Sequence[int], size: int, match_l: list[int], reached: int
) -> CountingRuleVerdict | None:
    """The s=1 closure on the ascending nonzero columns cols, whose row masks
    are masks, over the base matching (size, match_l) with free rows
    `reached`: None when S* is empty, else the failing verdict. A zero row
    is a free row in no column mask, so the closure never reaches it. When
    column k is on rows 2k..2k+2, each sweep reaches one column: r+1 sweeps,
    1.8, 7.1 and 31 ms at r = 250, 500 and 1000, against 0.2, 0.4 and 0.9 ms
    with the columns reversed (2-core machine; see ROADMAP item 10)."""
    r = len(cols)
    excluded = range(r)
    grew = True
    while grew:
        rest = []
        for k in excluded:
            if not masks[k] & reached:
                rest.append(k)
            elif -1 in (match_l[k], match_l[k + r]):
                raise MatchingNotMaximumError(
                    f"augmenting path ends at a copy of column {cols[k]}"
                )
            else:
                reached |= 1 << match_l[k] | 1 << match_l[k + r]
        grew = len(rest) < len(excluded)
        excluded = rest
    if not excluded:
        return None
    count = reduce(or_, map(masks.__getitem__, excluded)).bit_count()
    excluded = tuple(map(cols.__getitem__, excluded))
    assert count <= 2 * len(excluded)
    return CountingRuleVerdict(
        r=r, s=1, holds=False,
        witness_fail=FailWitness(columns=excluded, nonzero_rows=count),
        mincut_value=r * (2 * r + 1) - r * (2 * r - size) - len(excluded),
    )


def counting_rule_s0(p: SparsityPattern) -> CountingRuleVerdict:
    """s=0 check: the replica matching must saturate all 2r copies; the
    matching is the pass witness. Same as `counting_rule(p, 0)`."""
    return counting_rule(p, 0)


def counting_rule(p: SparsityPattern, s: int) -> CountingRuleVerdict:
    """Check the rule at strength s on a trimmed pattern: the replica
    matching grown once per column, or read off for s=1 (see
    `counting_rule_s1`).

    For s != 1, column j gets 2+s copies and every other column 2. Hall's
    theorem on these replicas: the rule holds iff, for every j, a matching
    saturates all 2r+s copies. The base matching of the 2r copies is found
    once; for each j, a copy of it grows by one augmenting-path search per
    added copy of j. Before a copy is added the matching is maximum, and the
    new copy, being free, can only end an augmenting path; a matching is
    maximum iff no augmenting path is left (Berge), so one search from it
    keeps the matching maximum. When the base matching is perfect and at
    least s of column j's rows are free in it, every search would match its
    copy to one of them at its first step, so j passes without a search.
    For s >= 1 the rule holds when the sorted column degrees have d_q >=
    2q+s for every q: any q columns include one on 2q+s rows. At s=0
    nothing grows, so one pass decides and the base matching is the pass
    witness; for s >= 2 the pass note states the equivalent deletion form
    of the paper, C(m, s-1) deletions of s-1 rows, and writes the count as
    `C(m, s-1)` where it has more digits than int-to-str allows. On the
    first pass that fails, König's S from the free copies has |N(S)| <
    2|S|+s. For s >= 2, `deleted_rows` are the s-1 lowest rows of N(S),
    padded with the lowest rows outside N(S) when it is smaller; deleting
    them leaves S violating the s=1 rule.

    For s >= 2 and m < 2r+s the full column set is the witness, r columns on
    all m rows, without deleted rows: the rule's q = r case is the dimension
    bound m >= 2r+s. Testing it first also bounds the copies for huge s.
    """
    s = _integer("s", s)
    _require_pattern(p)
    p.require_trimmed()
    return _rule(p, s, range(p.r), p.m)


def _rule(p: SparsityPattern, s: int, cols: Sequence[int], m: int) -> CountingRuleVerdict:
    """`counting_rule` at s >= 0 on the ascending nonzero columns cols of p,
    in p's coordinates; m is the number of rows they touch. A zero row lies
    in no column mask, so no matching, walk or count meets it, and
    `deleted_rows` are padded from the rows the columns touch. On a trimmed
    pattern (all its columns, m = p.m) this is `counting_rule` itself. This
    is the one place that runs the base matching of a check, for every s."""
    r = len(cols)
    masks = p.col_masks if r == p.r else [*map(p.col_masks.__getitem__, cols)]
    if s and all(map(le, range(2 + s, 2 * r + s + 1, 2), sorted(map(int.bit_count, masks)))):
        return _passed(r, s, m)
    if s > 1 and m < 2 * r + s:
        return CountingRuleVerdict(
            r=r, s=s, holds=False,
            witness_fail=FailWitness(columns=tuple(cols), nonzero_rows=m),
        )
    # the copies' masks, read by the kernel and the searches alike: copies
    # k and k + r of column cols[k], then s slots for the added copies
    grown = [*masks, *masks, *(0,) * s]
    size, base_l, base_r, base_free = _kernels.hopcroft_karp(2 * r, p.m, grown, range(2 * r))
    if s == 1:
        return _cover(cols, masks, size, base_l, base_free) or _passed(r, 1, m)
    perfect = size == 2 * r
    for j, mask in zip(cols if s else cols[:1], masks):
        if s and perfect and (mask & base_free).bit_count() >= s:
            # Each search would match its copy to a free row of column j at
            # its first step, and the grown matching would saturate.
            continue
        # Grow the base matching by s copies of column j, one augmenting
        # search each. Once a copy finds no path, neither do its twins.
        grown[2 * r:] = [mask] * s
        match_l, match_r, free = base_l + [-1] * s, base_r.copy(), base_free
        reached = None
        for u in range(2 * r, 2 * r + s):
            reached, rows = _kernels.alternating_reach(grown, match_l, match_r, free, starts=(u,))
            if reached is not None:
                break
            free ^= rows
        if perfect:
            if reached is None:  # the grown matching saturates
                continue
            # The free copies are the failed one and its twins, which share
            # its rows, so its search's reach is the walk from all of them.
        else:
            # free base copies start paths too: walk from every free copy
            reached, rows = _kernels.alternating_reach(grown, match_l, match_r, free)
            if reached is None:
                raise MatchingNotMaximumError(f"the matching grown by column {j} is not maximum")
        failing = {cols[u % r] if u < 2 * r else j for u in reached}
        count = rows.bit_count()
        assert count < 2 * len(failing) + s
        deleted = None
        if s:
            # Deleting s-1 rows of N(S) leaves S on at most 2|S| rows, so the
            # remainder fails the s=1 rule; if N(S) is short, pad it with the
            # lowest other rows the columns touch.
            deleted = _lowest_bits(rows, s - 1)
            if count < s - 1:
                outside = reduce(or_, masks) ^ rows
                deleted = tuple(sorted(deleted + _lowest_bits(outside, s - 1 - count)))
        return CountingRuleVerdict(
            r=r, s=s, holds=False,
            witness_fail=FailWitness(
                columns=tuple(sorted(failing)), nonzero_rows=count, deleted_rows=deleted,
            ),
        )
    if s:
        return _passed(r, s, m)
    witness = PassWitness(
        matching=Matching(frozenset(zip((*cols, *(p.r + c for c in cols)), base_l))),
        note="matching saturates all columns and duplicates",
    )
    return CountingRuleVerdict(r=r, s=0, holds=True, witness_pass=witness)


@lru_cache(maxsize=256)
def _passed(r: int, s: int, m: int) -> CountingRuleVerdict:
    """The passing verdict at s >= 1 on r columns touching m rows. At s=1 a
    pass means a saturated replica matching and an empty S*, so the cover
    weighs r(2r+1) and there is no witness; for s >= 2 the note counts the
    C(m, s-1) deletions of the paper's form. It depends on (r, s, m) alone
    and is frozen, so each shape's verdict is built once and shared. That
    pays where shapes repeat in one process, as over the draws of one model
    in `factorid filter`; a one-shot check builds it as before."""
    if s == 1:
        return CountingRuleVerdict(r=r, s=1, holds=True, mincut_value=r * (2 * r + 1))
    try:
        count = str(comb(m, s - 1))
    except ValueError:  # more digits than int-to-str allows
        count = f"C({m}, {s - 1})"
    witness = PassWitness(note=f"all {count} deletions of {s - 1} rows pass the s=1 rule")
    return CountingRuleVerdict(r=r, s=s, holds=True, witness_pass=witness)


def rcm_decomposition(
    p: SparsityPattern, deleted_rows: frozenset[int] | set[int] | tuple[int, ...] = ()
) -> RcmDecomposition | None:
    """Split the remaining rows into two groups of r whose square submatrices
    each have a reordered nonzero diagonal, or None when impossible.

    The groups come from the s=0 replica matching on the kept rows (the
    deleted rows' bits cleared from every column mask): group A collects the
    rows matched to the first copies of the columns (ordered by column),
    group B those matched to the second copies. Row k of a group is matched
    to a copy of column k, so its cell in column k is a 1: the diagonal holds
    by construction and needs no second matching. All indices refer
    to the input pattern's coordinates. `deleted_rows` may hold any integer
    type (numpy's too); the result lists them as sorted ints.
    """
    _require_pattern(p)
    try:
        deleted = frozenset(map(index, deleted_rows))
    except TypeError:
        raise InvalidArgumentError(
            f"deleted rows must be integers, got {deleted_rows!r}"
        ) from None
    for i in deleted:
        if not (0 <= i < p.m):
            raise OutOfRangeError(f"row index {_shown(i)} out of range for m={p.m}")
    r = p.r
    if p.m - len(deleted) < 2 * r:
        return None
    # a row in no column mask is never matched, so clearing the deleted rows'
    # bits matches the kept rows as if the pattern were restricted to them
    gone = sum(map((1).__lshift__, deleted))
    size, match_l, _, _ = _kernels.hopcroft_karp(
        2 * r, p.m, [mask & ~gone for mask in p.col_masks] * 2, range(2 * r)
    )
    if size < 2 * r:
        return None
    return RcmDecomposition(
        deleted_rows=tuple(sorted(deleted)),
        rows_a=tuple(match_l[:r]),
        rows_b=tuple(match_l[r:]),
        matching=Matching(frozenset(enumerate(match_l))),
    )


def variance_identified(p_raw: SparsityPattern, s: int = 1) -> IdentificationVerdict:
    """Decide whether the pattern guarantees generic variance identification.

    A pattern whose columns are all zero is trivially identified (the
    covariance is purely idiosyncratic). Otherwise the rule decides at
    strength s as `counting_rule` does (s=1, the default, is the paper's
    sufficient condition), on the caller's pattern over its nonzero columns;
    nothing is copied. A zero column is left out of the rule, and a zero row
    lies in no column mask, so the rule never meets it. `trim` reports what
    trimming would remove, and witnesses are in the caller's coordinates,
    for every s >= 0 (InvalidArgumentError otherwise, raised first).
    """
    s = _integer("s", s)
    _require_pattern(p_raw)
    report = _trim_report(p_raw)
    if report.effective_r == 0:
        return IdentificationVerdict(
            identified=True,
            effective_r=0,
            trim=report,
            detail=None,
            degenerate=True,
        )
    cols = tuple(compress(range(p_raw.r), p_raw.col_masks))
    verdict = _rule(p_raw, s, cols, report.effective_m)
    return IdentificationVerdict(
        identified=verdict.holds,
        effective_r=report.effective_r,
        trim=report,
        detail=verdict,
        degenerate=False,
    )
