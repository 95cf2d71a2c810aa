"""Counting-rule verdicts and the variance-identification decision.

The rule checked throughout: every set of q columns of the pattern must touch
at least 2q+s distinct nonzero rows (1 <= q <= r). Every polynomial route
matches column copies into rows with Hopcroft-Karp (the replica matching);
brute force over all column subsets is the oracle (exponential in r):

* s=0: two copies of every column must all be matched. The matching doubles
  as a constructive witness: it splits 2r rows into two groups whose square
  submatrices both carry a reordered nonzero diagonal.
* s=1: the same matching decides the paper's minimum weighted vertex cover
  (column weight 2r+1, row weight r). With d = 2r - |matching| (the largest
  2|S| - |N(S)| over column sets S, by Ore's deficiency form of Hall's
  theorem) and S* the columns with no copy that an alternating path from a
  free row reaches (the largest set of that deficiency, by Dulmage and
  Mendelsohn), the cover weighs r(2r+1) - rd - |S*|. The rule holds iff S*
  is empty, and S* is then the violating subset. flow.py keeps the paper's
  min-cut of the same cover as the reference the tests compare against.
* s >= 2: for each column j, the same matching grown by s more copies of j,
  one augmenting-path search per copy. By Hall's theorem every grown
  matching saturates its 2r+s copies iff every q columns touch at least 2q+s
  rows. This replaces the paper's equivalent reduction to s=1 on every
  deletion of s-1 rows.

Every route and `rcm_decomposition` read this one base matching, so a
pattern costs one Hopcroft-Karp run plus, for s >= 2, at most r*s searches
of O(nnz) each. Where a copy stays free, s=0 and s >= 2 report König's
(S, N(S)), the columns and rows that alternating paths from the free copies
reach; `bipartite.alternating_reach` is both these walks and the searches.
S is the smallest column set that maximizes its number of copies minus
|N(S)| (Dulmage and Mendelsohn), so the witness depends neither on the order
of the copies nor on which maximum matching the kernel or the searches end
with. `variance_identified` trims, runs the rule at any s and maps the
verdict back to the caller's coordinates; every CLI command that decides the
rule goes through it.

A passing s=1 verdict guarantees generic variance identification; a failing
one only means the sufficient condition does not apply (the rule is not
necessary), which is what the `sufficient_only` flag on verdict records says.
"""

from dataclasses import dataclass, replace
from itertools import combinations
from math import comb

from factorid import _kernels
from factorid.bipartite import Matching, alternating_reach, is_rcm, match_adjacency
from factorid.errors import (
    InvalidArgumentError,
    MatchingNotMaximumError,
    NoDecompositionError,
    OutOfRangeError,
    TooManyColumnsError,
)
from factorid.pattern import SparsityPattern, TrimReport, nonzero_row_count, restrict_rows, trim


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
class RankFailure:
    trial: int | None
    deleted_rows: tuple[int, ...]
    group: str
    numerical_rank: int | None


@dataclass(frozen=True)
class GenericCheckReport:
    trials: int
    seed: int
    tolerance: float
    deletions_tested: int
    failures: tuple[RankFailure, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


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


def _base_matching(p: SparsityPattern) -> tuple[tuple, int, list[int], list[int]]:
    """The replica matching: Hopcroft-Karp on two copies of every column,
    copy j + r mirroring column j, into the rows of p.

    Returns (adjacency, size, match_l, match_r): adjacency[u] lists the rows
    of copy u, and match_l/match_r pair copies and rows, -1 for free.
    """
    adjacency = p.col_rows * 2
    return (adjacency, *match_adjacency(adjacency, p.m))


def counting_rule_bruteforce(
    p: SparsityPattern, s: int, max_columns: int = 24
) -> CountingRuleVerdict:
    """Check the rule by enumerating all nonempty column subsets.

    The first violating subset (smallest size, lexicographic within a size)
    is reported. Refuses r > max_columns: 2^r - 1 subsets is the worst case.
    The sweep skips every subset that extends columns already touching 2q+s
    rows, and usually visits far fewer.
    """
    if s < 0:
        raise InvalidArgumentError("s must be non-negative")
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

    S* is read off the column masks: paths that reach a row of column j reach
    both its copies (they share their rows, and a row matched to one copy
    enters the other by a non-matching edge), and then the rows those copies
    are matched to. A reached copy that is free would end an augmenting path.
    """
    p.require_trimmed()
    r = p.r
    _, size, match_l, _ = _base_matching(p)
    reached = (1 << p.m) - 1 - sum(1 << i for i in match_l if i != -1)  # the free rows
    excluded = range(r)
    grew = True
    while grew:
        rest = []
        for j in excluded:
            if not p.col_masks[j] & reached:
                rest.append(j)
            elif -1 in (match_l[j], match_l[j + r]):
                raise MatchingNotMaximumError(f"augmenting path ends at a copy of column {j}")
            else:
                reached |= 1 << match_l[j] | 1 << match_l[j + r]
        grew = len(rest) < len(excluded)
        excluded = rest
    excluded = tuple(excluded)
    value = r * (2 * r + 1) - r * (2 * r - size) - len(excluded)
    if not excluded:
        return CountingRuleVerdict(r=r, s=1, holds=True, mincut_value=value)
    count = nonzero_row_count(p, excluded)
    assert count <= 2 * len(excluded)
    return CountingRuleVerdict(
        r=r, s=1, holds=False,
        witness_fail=FailWitness(columns=excluded, nonzero_rows=count),
        mincut_value=value,
    )


def counting_rule_s0(p: SparsityPattern) -> CountingRuleVerdict:
    """s=0 check: the replica matching with two copies of every column
    (copy j + r mirrors column j) must saturate all 2r copies.

    The matching is the pass witness. On failure, the columns S reached by
    König's walk from a free copy form a violating subset: q columns
    touching at most 2q-1 rows.
    """
    p.require_trimmed()
    r = p.r
    adjacency, size, match_l, match_r = _base_matching(p)
    if size == 2 * r:
        return CountingRuleVerdict(
            r=r, s=0, holds=True,
            witness_pass=PassWitness(
                matching=Matching(frozenset(enumerate(match_l))),
                note="matching saturates all columns and duplicates",
            ),
        )
    reach = alternating_reach(adjacency, match_l, match_r)
    if reach is None:
        raise MatchingNotMaximumError("the base matching is not maximum")
    copies, rows = reach
    cols = {u % r for u in copies}
    assert len(rows) <= 2 * len(cols) - 1
    return CountingRuleVerdict(
        r=r, s=0, holds=False,
        witness_fail=FailWitness(columns=tuple(sorted(cols)), nonzero_rows=len(rows)),
    )


def counting_rule(p: SparsityPattern, s: int) -> CountingRuleVerdict:
    """Dispatch on s: the replica matching for s=0 and s=1, or that matching
    grown once per column (s >= 2).

    For s >= 2, column j gets 2+s copies and every other column 2. Hall's
    theorem on these replicas: the rule holds iff, for every j, a matching
    saturates all 2r+s copies. The base matching of the 2r copies is found
    once; for each j, a copy of it grows by one augmenting-path search per
    added copy of j. Before a copy is added the matching is maximum, and the
    new copy, being free, can only end an augmenting path; a matching is
    maximum iff no augmenting path is left (Berge), so one search from it
    keeps the matching maximum. That is one Hopcroft-Karp run and at most
    r*s searches whatever m. The pass note states the equivalent deletion
    form of the paper, C(m, s-1) deletions of s-1 rows, and writes the count
    as `C(m, s-1)` where it has more digits than int-to-str allows. On the
    first j that fails, König's S from the free copies has |N(S)| < 2|S|+s.
    `deleted_rows` are the s-1 lowest rows of N(S), padded with the lowest
    rows outside N(S) when it is smaller; deleting them leaves S violating
    the s=1 rule.

    For s >= 2 and m < 2r+s the full column set is the witness, r columns on
    all m rows, without deleted rows: the rule's q = r case is the dimension
    bound m >= 2r+s. Testing it first also bounds the copies for huge s.
    """
    if s < 0:
        raise InvalidArgumentError("s must be non-negative")
    if s == 0:
        return counting_rule_s0(p)
    if s == 1:
        return counting_rule_s1(p)
    p.require_trimmed()
    m, r = p.m, p.r
    if m < 2 * r + s:
        return CountingRuleVerdict(
            r=r, s=s, holds=False,
            witness_fail=FailWitness(columns=tuple(range(r)), nonzero_rows=m),
        )
    adjacency, size, base_l, base_r = _base_matching(p)
    for j in range(r):
        # Grow the base matching by s copies of column j, one augmenting
        # search each. Once a copy finds no path, neither do its twins.
        grown = adjacency + (p.col_rows[j],) * s
        match_l, match_r = base_l + [-1] * s, base_r.copy()
        matched = size
        for u in range(2 * r, 2 * r + s):
            if alternating_reach(grown, match_l, match_r, starts=(u,)) is not None:
                break
            matched += 1
        if matched == 2 * r + s:
            continue
        reach = alternating_reach(grown, match_l, match_r)
        if reach is None:
            raise MatchingNotMaximumError(f"the matching grown by column {j} is not maximum")
        copies, rows = reach
        cols = {u % r if u < 2 * r else j for u in copies}
        assert len(rows) < 2 * len(cols) + s
        # Deleting s-1 rows of N(S) leaves S on at most 2|S| rows, so the
        # remainder fails the s=1 rule; pad from outside N(S) if it is short.
        outside = [i for i in range(m) if i not in rows]
        deleted = sorted((sorted(rows) + outside)[: s - 1])
        return CountingRuleVerdict(
            r=r, s=s, holds=False,
            witness_fail=FailWitness(
                columns=tuple(sorted(cols)), nonzero_rows=len(rows),
                deleted_rows=tuple(deleted),
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


def rcm_decomposition(
    p: SparsityPattern, deleted_rows: frozenset[int] | set[int] | tuple[int, ...] = ()
) -> RcmDecomposition | None:
    """Split the remaining rows into two groups of r whose square submatrices
    each have a reordered nonzero diagonal, or None when impossible.

    The groups come from the s=0 replica matching on the kept rows: group A
    collects the rows matched to the first copies of the columns (ordered by
    column), group B those matched to the second copies. All indices refer
    to the input pattern's coordinates.
    """
    deleted = frozenset(deleted_rows)
    for i in deleted:
        if not (0 <= i < p.m):
            raise OutOfRangeError(f"row index {i} out of range for m={p.m}")
    kept = [i for i in range(p.m) if i not in deleted]
    r = p.r
    if len(kept) < 2 * r:
        return None
    _, size, match_l, _ = _base_matching(restrict_rows(p, kept))
    if size < 2 * r:
        return None
    matched = [kept[i] for i in match_l]
    rows_a = tuple(matched[:r])
    rows_b = tuple(matched[r:])
    for rows in (rows_a, rows_b):
        ok, _ = is_rcm(restrict_rows(p, rows))
        assert ok, "matched row group lost its diagonal"
    return RcmDecomposition(
        deleted_rows=tuple(sorted(deleted)),
        rows_a=rows_a,
        rows_b=rows_b,
        matching=Matching(frozenset(enumerate(matched))),
    )


def _sample_deletions(rng, m: int, s: int, cap: int) -> list[tuple[int, ...]]:
    total = comb(m, s)
    if total <= 4 * cap:
        everything = list(combinations(range(m), s))
        picked = rng.choice(total, size=cap, replace=False)
        return [everything[i] for i in sorted(picked.tolist())]
    seen: set[tuple[int, ...]] = set()
    while len(seen) < cap:
        seen.add(tuple(sorted(rng.choice(m, size=s, replace=False).tolist())))
    return sorted(seen)


def generic_rank_check(
    p: SparsityPattern,
    s: int,
    trials: int = 100,
    tolerance: float = 1e-8,
    seed: int = 0,
    deletion_cap: int = 200,
    diagnose: bool = False,
) -> GenericCheckReport:
    """Numerically probe the row-deletion property with random fillings.

    Each trial fills the 1-cells with independent standard normal draws and
    checks, for every tested deletion of s rows, that both row groups of the
    decomposition have numerical rank r (smallest singular value above
    tolerance times the largest). Deletions are enumerated exhaustively up
    to `deletion_cap`, else sampled per trial from the trial's own stream.

    A missing decomposition signals that the counting rule fails for that
    deletion; it raises NoDecompositionError unless diagnose=True, in which
    case it is recorded and the deletion skipped.
    """
    import numpy as np  # only this check needs numpy; `import factorid` stays light

    m, r = p.m, p.r
    if s < 0 or s > m:
        raise InvalidArgumentError(f"cannot delete {s} of {m} rows")
    rng_streams = np.random.SeedSequence(seed).spawn(trials)
    nz = np.nonzero(np.array(p.entries, dtype=np.int64).reshape(m, r))
    enumerable = comb(m, s) <= deletion_cap
    fixed_deletions = list(combinations(range(m), s)) if enumerable else None
    decompositions: dict[tuple[int, ...], RcmDecomposition | None] = {}
    failures: list[RankFailure] = []
    for trial in range(trials):
        rng = np.random.default_rng(rng_streams[trial])
        deletions = (
            fixed_deletions
            if enumerable
            else _sample_deletions(rng, m, s, deletion_cap)
        )
        beta = np.zeros((m, r))
        beta[nz] = rng.standard_normal(len(nz[0]))
        for deletion in deletions:
            if deletion not in decompositions:
                decompositions[deletion] = rcm_decomposition(p, deletion)
                if decompositions[deletion] is None:
                    if not diagnose:
                        raise NoDecompositionError(
                            f"no row-group decomposition after deleting rows {deletion}"
                        )
                    failures.append(
                        RankFailure(
                            trial=None, deleted_rows=deletion,
                            group="decomposition", numerical_rank=None,
                        )
                    )
            dec = decompositions[deletion]
            if dec is None:
                continue
            for group, rows in (("A", dec.rows_a), ("B", dec.rows_b)):
                sv = np.linalg.svd(beta[list(rows), :], compute_uv=False)
                # the empty 0x0 group of r = 0 has no singular values and rank 0 = r
                rank = int(np.count_nonzero(sv > tolerance * sv.max(initial=0.0)))
                if rank < r:
                    failures.append(
                        RankFailure(
                            trial=trial, deleted_rows=deletion,
                            group=group, numerical_rank=rank,
                        )
                    )
    return GenericCheckReport(
        trials=trials,
        seed=seed,
        tolerance=tolerance,
        deletions_tested=len(decompositions),
        failures=tuple(failures),
    )


def verdict_in_original_coords(
    verdict: CountingRuleVerdict, report: TrimReport
) -> CountingRuleVerdict:
    """Map a verdict computed on a trimmed pattern back to original indices."""
    if not report.removed_zero_columns and not report.removed_zero_rows:
        return verdict
    wf = verdict.witness_fail
    if wf is not None:
        wf = replace(
            wf,
            columns=tuple(report.original_column(j) for j in wf.columns),
            deleted_rows=(
                tuple(report.original_row(i) for i in wf.deleted_rows)
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
                report.original_column(c)
                if c < r_eff
                else r_orig + report.original_column(c - r_eff),
                report.original_row(i),
            )
            for c, i in wp.matching.pairs
        )
        wp = replace(wp, matching=Matching(pairs))
    return replace(verdict, witness_fail=wf, witness_pass=wp)


def variance_identified(p_raw: SparsityPattern, s: int = 1) -> IdentificationVerdict:
    """Decide whether the pattern guarantees generic variance identification.

    Trims zero rows/columns first. A factor-free pattern after trimming is
    trivially identified (the covariance is purely idiosyncratic). Otherwise
    `counting_rule` at strength s on the trimmed pattern decides (s=1, the
    default, is the paper's sufficient condition); witnesses are reported in
    the caller's original coordinates, for every s >= 0 (InvalidArgumentError
    otherwise, raised before trimming).
    """
    if s < 0:
        raise InvalidArgumentError("s must be non-negative")
    trimmed, report = trim(p_raw)
    if trimmed.r == 0:
        return IdentificationVerdict(
            identified=True,
            effective_r=0,
            trim=report,
            detail=None,
            degenerate=True,
        )
    verdict = verdict_in_original_coords(counting_rule(trimmed, s), report)
    return IdentificationVerdict(
        identified=verdict.holds,
        effective_r=report.effective_r,
        trim=report,
        detail=verdict,
        degenerate=False,
    )
