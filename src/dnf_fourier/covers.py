"""Cover structure of variable subsets and the counting inequalities.

For a full-depth pair (S, x_Sbar) the encoder selects a set of terms, the
*cover*, whose variable union has some size u.  Grouping subsets S by the
most frequent union size of their covers partitions the interesting
subsets into families keyed by (d, u) = (|S|, typical union size).  This
module classifies subsets into those families and machine-checks, with
exact arithmetic, every inequality that relates

* Fourier 1-norms and 2-norms of a family,
* the probability of a full-depth restriction with a given union size,
* and the number of ways S can be covered by terms at all.

A cover of S with union size u is a set of term indices such that every
selected term shares a variable with S, the union of their variable sets
contains S and has size exactly u, and at most |S| terms are used; their
number is num_covers(S, u).  Terms are counted by index, so duplicate
terms give distinct covers.  Covers produced by the encoder satisfy all
of these (each selected term contains a free variable), so num_covers
dominates the number of distinct observed covers, which is what the
probability bounds need.  The empty set has the single empty cover, with
union size 0.

``cover_counts_by_union`` returns num_covers(S, u) for every u, by a
dynamic program over (term count, union mask) rather than by enumerating
term subsets, so its cost is bounded by the number of distinct unions,
not by the number of covers, and it has no cap.
``FamilyAnalysis.cover_counts`` keeps one count per subset for every
check that needs it.

``FamilyAnalysis`` is also the record of the full-depth pairs: it encodes
each pair with S nonempty once and keeps, per subset, the cover statistics
and the encodings as an ``EncodingRecord`` (arrays in ``valid_pairs``
order), which the ``roundtrip`` check of ``verify`` decodes.  The record
of S = {} is written without encoding: x_sat is every assignment, with
empty sigma and a.  An encoder fault while it classifies is re-raised
with the pair that caused it.

The caller builds an instance's truth table, spectrum, restriction
tables and family analysis once and passes them in; nothing here builds
them again.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import comb

import numpy as np

from .bitops import pdep_array, subsets_up_to
from .boolfn import (
    BooleanFunction,
    CapExceededError,
    FourierSpectrum,
    fourier_transform,  # no caller here, but bench/spans.py wraps this name
    one_norm_at_degree,
)
from .dnf import Dnf
from .dyadic import DyadicRational
from .enclosures import RealEnclosure, decide_le, exp_enclosure, ln_enclosure
from .encoder import (
    EncodePreconditionError,
    EncodingInvariantError,
    EncodingRecord,
    extract_cover,
)
from .restrictions import DT_CAP, RestrictionTables


@dataclass(frozen=True, slots=True)
class FamilyKey:
    d: int
    u: int


@dataclass(slots=True)
class FamilyStats:
    """Aggregates over every subset assigned to one (d, u) family."""

    key: FamilyKey
    members: list[int] = field(default_factory=list)
    one_norm: DyadicRational = DyadicRational(0)
    two_norm_sq: DyadicRational = DyadicRational(0)
    max_abs_coeff: DyadicRational = DyadicRational(0)
    max_num_covers: int = 0


@dataclass(slots=True)
class SubsetProfile:
    """Witness statistics for one subset S with at least one full-depth pair."""

    mask: int
    d: int
    coeff: DyadicRational
    witnesses: int  # number of full-depth fixed-side assignments
    count_by_u: dict[int, int]
    covers_by_u: dict[int, set[tuple[int, ...]]]
    assigned_u: int  # the family key: most frequent u, ties to smallest
    record: EncodingRecord  # the pairs' encodings, in valid_pairs order


class FamilyAnalysis:
    """The family partition of all subsets up to size d_max, plus raw counts.

    ``tables`` and ``spec`` are the restriction tables and the spectrum of
    ``dnf``'s truth table."""

    def __init__(
        self, dnf: Dnf, d_max: int, tables: RestrictionTables, spec: FourierSpectrum
    ):
        if d_max > DT_CAP:
            raise CapExceededError(f"d_max={d_max} exceeds decision-tree cap {DT_CAP}")
        self.dnf = dnf
        self.d_max = min(d_max, dnf.n)
        self.tables = tables
        self.spec = spec
        self.families: dict[FamilyKey, FamilyStats] = {}
        self.profiles: dict[int, SubsetProfile] = {}
        self.unassigned: list[int] = []  # no full-depth witness; coefficient is 0
        self._cover_counts: dict[int, dict[int, int]] = {}
        self._classify()

    def cover_counts(self, s_mask: int) -> dict[int, int]:
        """Covers of S per union size, counted once per subset and kept."""
        counts = self._cover_counts.get(s_mask)
        if counts is None:
            counts = cover_counts_by_union(self.dnf, s_mask)
            self._cover_counts[s_mask] = counts
        return counts

    def _classify(self) -> None:
        n = self.dnf.n
        full = (1 << n) - 1
        for s_mask in subsets_up_to(n, self.d_max):
            d = s_mask.bit_count()
            idxs = self.tables.full_depth_sbar_indices(s_mask)
            coeff = self.spec.coeff(s_mask)
            if idxs.size == 0:
                if coeff.numerator != 0:
                    raise AssertionError(
                        f"nonzero coefficient without a full-depth witness: {s_mask:#x}"
                    )
                self.unassigned.append(s_mask)
                continue
            count_by_u: dict[int, int] = {}
            covers_by_u: dict[int, set[tuple[int, ...]]] = {}
            if s_mask == 0:
                # E_{} holds everywhere and the encoder selects no term, so
                # every assignment is a witness with the empty cover, and
                # its encoding is x_sat = x with empty sigma and a
                count_by_u[0] = int(idxs.size)
                covers_by_u[0] = {()}
                record = EncodingRecord(
                    n, idxs.astype(np.uint32), np.zeros((idxs.size, 0), np.uint8),
                    np.zeros(idxs.size, np.uint16),
                )
            else:
                encodings = []
                for xsbar in pdep_array(idxs, full ^ s_mask).tolist():
                    try:
                        enc, cover = extract_cover(self.dnf, s_mask, xsbar, self.tables)
                    except (EncodePreconditionError, EncodingInvariantError) as exc:
                        raise type(exc)(f"at S={s_mask}, x={xsbar}: {exc}") from exc
                    encodings.append(enc)
                    u = cover.union_size
                    count_by_u[u] = count_by_u.get(u, 0) + 1
                    covers_by_u.setdefault(u, set()).add(cover.term_indices)
                record = EncodingRecord.pack(n, d, encodings)
            top = max(count_by_u.values())
            assigned_u = min(u for u, cnt in count_by_u.items() if cnt == top)
            profile = SubsetProfile(
                s_mask, d, coeff, int(idxs.size), count_by_u, covers_by_u, assigned_u,
                record,
            )
            self.profiles[s_mask] = profile
            key = FamilyKey(d, assigned_u)
            stats = self.families.get(key)
            if stats is None:
                stats = FamilyStats(key)
                self.families[key] = stats
            stats.members.append(s_mask)
            stats.one_norm = stats.one_norm + abs(coeff)
            stats.two_norm_sq = stats.two_norm_sq + coeff.square()
            if abs(coeff) > stats.max_abs_coeff:
                stats.max_abs_coeff = abs(coeff)
            nc = self.cover_counts(s_mask).get(assigned_u, 0)
            if nc > stats.max_num_covers:
                stats.max_num_covers = nc

    # -- raw counts ----------------------------------------------------------

    def pair_count(self, d: int, u: int) -> int:
        """Number of full-depth pairs with |S| = d and union size u."""
        self._check_degree(d)
        return sum(
            p.count_by_u.get(u, 0) for p in self.profiles.values() if p.d == d
        )

    def pair_count_at_degree(self, d: int) -> int:
        """Number of full-depth pairs with |S| = d."""
        self._check_degree(d)
        return sum(p.witnesses for p in self.profiles.values() if p.d == d)

    def _check_degree(self, d: int) -> None:
        if d > self.d_max:
            raise CapExceededError(f"degree {d} beyond analyzed d_max={self.d_max}")

    def tail_weight(self, u_cutoff: int) -> DyadicRational:
        """Exact Fourier weight outside the union of families with u <= cutoff
        (and d <= d_max)."""
        inside = DyadicRational(0)
        for key, stats in self.families.items():
            if key.u <= u_cutoff:
                inside = inside + stats.two_norm_sq
        return self.spec.total_weight() - inside


# -- cover counting ----------------------------------------------------------


def cover_counts_by_union(dnf: Dnf, s_mask: int) -> dict[int, int]:
    """Number of covers of S per union size (see the module docstring).

    layers[k] maps a union mask to the number of k-term choices, among the
    terms seen so far that meet S, with that union.  Each term extends the
    layers from the top down, so no choice uses a term twice.
    """
    d = s_mask.bit_count()
    layers: list[dict[int, int]] = [{0: 1}] + [{} for _ in range(d)]
    for term in dnf.terms:
        t_mask = term.vars_mask
        if not t_mask & s_mask:
            continue
        for k in range(d - 1, -1, -1):
            upper = layers[k + 1]
            for union, ways in layers[k].items():
                key = union | t_mask
                upper[key] = upper.get(key, 0) + ways
    counts: dict[int, int] = {}
    for layer in layers:
        for union, ways in layer.items():
            if not s_mask & ~union:
                u = union.bit_count()
                counts[u] = counts.get(u, 0) + ways
    return counts


# -- check results -----------------------------------------------------------


@dataclass(slots=True)
class CheckResult:
    """One verified inequality: lhs <= bound, with optional extra detail.

    Unpacks as the (lhs, bound, holds) triple.
    """

    lhs: object
    bound: object
    holds: bool
    extras: dict = field(default_factory=dict)

    def __iter__(self):
        return iter((self.lhs, self.bound, self.holds))


# -- degree-level counting checks --------------------------------------------


def onenorm_count_check(analysis: FamilyAnalysis, d: int) -> CheckResult:
    """1-norm at degree d against the density of full-depth pairs:
    sum of |fhat(S)| over |S|=d  <=  2^-(n-d) * #pairs."""
    lhs = one_norm_at_degree(analysis.spec, d)
    pairs = analysis.pair_count_at_degree(d)
    bound = DyadicRational(pairs, analysis.dnf.n - d)
    return CheckResult(lhs, bound, lhs <= bound, {"pairs": pairs})


def onenorm_width_binom_check(analysis: FamilyAnalysis, d: int) -> CheckResult:
    """1-norm at degree d against the binomial bound C(w*d, d) * 2^(2d)."""
    w = analysis.dnf.width()
    lhs = one_norm_at_degree(analysis.spec, d)
    bound = comb(w * d, d) << (2 * d)
    return CheckResult(lhs, DyadicRational(bound), lhs <= DyadicRational(bound))


def pair_count_binom_check(analysis: FamilyAnalysis, d: int) -> CheckResult:
    """Injectivity consequence: the number of full-depth pairs at degree d
    is at most 2^n * C(w*d, d) * 2^d (x_sat choices * sigma choices * a)."""
    w = analysis.dnf.width()
    count = analysis.pair_count_at_degree(d)
    bound = comb(w * d, d) << (analysis.dnf.n + d)
    return CheckResult(count, bound, count <= bound)


# -- family-level checks -----------------------------------------------------


def family_onenorm_count_check(analysis: FamilyAnalysis, d: int, u: int) -> CheckResult:
    """Family 1-norm against the pair count at (d, u):
    sum over the family of |fhat| <= (wd+1) * 2^-(n-d) * #pairs(d, u)."""
    n, w = analysis.dnf.n, analysis.dnf.width()
    stats = analysis.families.get(FamilyKey(d, u))
    lhs = stats.one_norm if stats else DyadicRational(0)
    pairs = analysis.pair_count(d, u)
    bound = DyadicRational((w * d + 1) * pairs, n - d)
    return CheckResult(lhs, bound, lhs <= bound, {"pairs": pairs})


def check_onenorm_u(analysis: FamilyAnalysis, d: int, u: int) -> CheckResult:
    """Family 1-norm bound: sum of |fhat(S)| over the (d, u) family is at
    most (wd+1) * C(u, d) * 2^(2d)."""
    w = analysis.dnf.width()
    stats = analysis.families.get(FamilyKey(d, u))
    lhs = stats.one_norm if stats else DyadicRational(0)
    bound = DyadicRational((w * d + 1) * comb(u, d) << (2 * d))
    return CheckResult(lhs, bound, lhs <= bound)


def check_abs_fourier_u(analysis: FamilyAnalysis, s_mask: int) -> CheckResult:
    """Per-subset chain at S's own family key (d, u):

      |fhat(S)|  <=  (wd+1) * Pr[full depth and union size u],
      Pr[...]    <=  2^-(u-d) * #distinct covers  <=  2^-(u-d) * num_covers(S, u).

    holds is the conjunction; the pieces are in extras.
    """
    d = s_mask.bit_count()
    n, w = analysis.dnf.n, analysis.dnf.width()
    profile = analysis.profiles.get(s_mask)
    if profile is None:
        zero = DyadicRational(0)
        return CheckResult(zero, zero, True, {"witnesses": 0})
    u = profile.assigned_u
    prob = DyadicRational(profile.count_by_u.get(u, 0), n - d)
    lhs = abs(profile.coeff)
    first_bound = (w * d + 1) * prob
    first = lhs <= first_bound
    distinct = len(profile.covers_by_u.get(u, ()))
    ncov = analysis.cover_counts(s_mask).get(u, 0)
    scale = DyadicRational(1, u - d)
    second_bound_distinct = distinct * scale
    second_bound_ncov = ncov * scale
    second = prob <= second_bound_distinct
    third = second_bound_distinct <= second_bound_ncov and prob <= second_bound_ncov
    return CheckResult(
        lhs,
        first_bound,
        first and second and third,
        {
            "u": u,
            "prob": prob,
            "distinct_covers": distinct,
            "num_covers": ncov,
            "prob_le_distinct": second,
            "prob_le_num_covers": third,
        },
    )


def check_twonorm_u(analysis: FamilyAnalysis, d: int, u: int) -> CheckResult:
    """Family weight bound: sum of fhat(S)^2 over the (d, u) family is at
    most (wd+1)^2 * C(u, d) * 2^(3d) * 2^-u * max num_covers."""
    w = analysis.dnf.width()
    stats = analysis.families.get(FamilyKey(d, u))
    if stats is None:
        zero = DyadicRational(0)
        return CheckResult(zero, zero, True, {"empty": True})
    lhs = stats.two_norm_sq
    bound = DyadicRational(
        (w * d + 1) ** 2 * comb(u, d) * stats.max_num_covers << (3 * d), u
    )
    return CheckResult(lhs, bound, lhs <= bound, {"max_num_covers": stats.max_num_covers})


def family_cauchy_check(stats: FamilyStats) -> CheckResult:
    """Within a family, the weight never exceeds 1-norm times peak magnitude."""
    lhs = stats.two_norm_sq
    bound = stats.one_norm * stats.max_abs_coeff
    return CheckResult(lhs, bound, lhs <= bound)


# -- cover-count bounds from the read number ----------------------------------


@lru_cache(maxsize=4096)
def _le_exp(target: Fraction, m: int) -> tuple[bool, RealEnclosure]:
    """Rigorously decide target <= e^m.  The chain links below depend on
    the DNF's read, width and the subset's size only, so each is decided
    once however many subsets ask for it."""
    return decide_le(target, lambda p: exp_enclosure(Fraction(m), p))


def read_cover_count_bound(dnf: Dnf, s_mask: int, counts: dict[int, int]) -> CheckResult:
    """Total covers of S against the read-based budget:

      sum_u num_covers(S, u)  <=  sum_{i<=d} C(kd, i)  <=  C(kd+d, d)
                              <=  (e(k+1))^d.

    The first inequality is the asserted bound; the rest of the chain is
    verified too (the last link rigorously, via an enclosure of e^d).
    ``counts`` is S's ``cover_counts_by_union``.
    """
    d = s_mask.bit_count()
    k = dnf.read()
    count = sum(counts.values())
    bound = sum(comb(k * d, i) for i in range(d + 1))
    mid = comb(k * d + d, d)
    chain1 = bound <= mid
    chain2, enc = _le_exp(Fraction(mid, (k + 1) ** d), d)
    return CheckResult(
        count,
        bound,
        count <= bound,
        {
            "chain_mid": mid,
            "chain_mid_holds": chain1,
            "chain_top_holds": chain2,
            "e_pow_d": enc,
            "read": k,
        },
    )


def exact_width_cover_bound(
    dnf: Dnf, s_mask: int, u: int, counts: dict[int, int]
) -> CheckResult:
    """Cover count at union size u for exact-width DNFs.

    Requires every term to have exactly w variables.  A union of l such
    terms has total literal size lw and, with read k, at most ku of it, so
    l <= floor(ku/w) and

      num_covers(S, u)  <=  sum_{i <= floor(ku/w)} C(kd, i).

    When ku/w is an integer m, the classical chain
    C(kd, m) <= C(ku, m) <= (ew)^m is verified as well.  ``counts`` is
    S's ``cover_counts_by_union``.
    """
    widths = dnf.term_widths
    if len(widths) > 1:
        raise ValueError(f"term widths are not uniform: {sorted(widths)}")
    d = s_mask.bit_count()
    k = dnf.read()
    count = counts.get(u, 0)
    if not widths or widths == {0}:
        bound = 1 if u == 0 else 0
        return CheckResult(count, bound, count <= bound, {"degenerate": True})
    (w,) = widths
    l_cap = (k * u) // w
    bound = sum(comb(k * d, i) for i in range(l_cap + 1))
    extras: dict = {"l_cap": l_cap, "read": k, "width": w}
    if (k * u) % w == 0:
        # the classical chain at the integer point m = ku/w:
        # C(kd, m) <= C(ku, m) <= (ew)^m, decided via mid / w^m <= e^m
        m = k * u // w
        left, mid = comb(k * d, m), comb(k * u, m)
        extras["chain_mid"] = mid
        extras["chain_mid_holds"] = left <= mid
        holds_top, enc = _le_exp(Fraction(mid, w**m), m)
        extras["chain_top_holds"] = holds_top
        extras["e_pow_m"] = enc
    return CheckResult(count, bound, count <= bound, extras)


# -- satisfied-mass inequality and the set-size budget bound ------------------


def st_inequality_check(dnf: Dnf, f: BooleanFunction) -> CheckResult:
    """Sum of 2^-|T_j| over all terms against read * ln(1 / (1 - Pr[f])),
    where f is ``dnf``'s truth table.

    Exact on the left; the right side is enclosed rigorously.  When f is
    constant true the right side is infinite and the check is vacuous.
    """
    k = dnf.read()
    lhs = DyadicRational(0)
    for t in dnf.terms:
        lhs = lhs + DyadicRational(1, t.width)
    p = Fraction(f.ones, 1 << f.n)
    if p == 1:
        return CheckResult(lhs, None, True, {"vacuous": True, "pr": p})
    q = 1 / (1 - p)

    def make(prec: int) -> RealEnclosure:
        return ln_enclosure(q, prec).scale(k)

    holds, enc = decide_le(lhs.as_fraction(), make)
    return CheckResult(lhs, enc, holds, {"vacuous": False, "pr": p, "read": k})


class BudgetPreconditionError(ValueError):
    """budget_lemma_bound called with its hypotheses violated."""


def budget_lemma_bound(sizes, v, F) -> CheckResult:
    """Family-size budget: given sets of sizes |A_r| with sum of sizes <= v
    and sum of 2^-|A_r| <= F and v > F, the family has at most
    4v / log2(v/F) members.  The verdict is exact rational arithmetic:
    l * log2(v/F) <= 4v  iff  (v/F)^(l*b) <= 2^a with 4v = a/b.
    """
    sizes = list(sizes)
    v = Fraction(v)
    F = Fraction(F)
    if any(s < 0 for s in sizes):
        raise BudgetPreconditionError("negative set size")
    if sum(sizes) > v:
        raise BudgetPreconditionError(f"total size {sum(sizes)} exceeds budget v={v}")
    mass = sum(Fraction(1, 2**s) for s in sizes)
    if mass > F:
        raise BudgetPreconditionError(f"total mass {mass} exceeds budget F={F}")
    if not v > F:
        raise BudgetPreconditionError(f"need v > F, got v={v}, F={F}")
    l = len(sizes)
    four_v = 4 * v
    a, b = four_v.numerator, four_v.denominator
    holds = (v / F) ** (l * b) <= Fraction(2) ** a
    approx_bound = float(four_v) / math.log2(float(v / F))
    return CheckResult(l, approx_bound, holds, {"v": v, "F": F})
