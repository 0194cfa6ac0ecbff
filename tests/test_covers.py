"""Cover counting, families, and every cover-based inequality.

The independent cover oracle enumerates all 2^s term subsets with no
pruning at all, then filters on the full definition; the production
counter is a dynamic program over union masks that never lists a cover.
"""
from fractions import Fraction
from itertools import chain, combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dnf_fourier import (
    Dnf,
    DyadicRational,
    FamilyKey,
    budget_lemma_bound,
    check_abs_fourier_u,
    check_onenorm_u,
    check_twonorm_u,
    classify_families,
    exact_width_cover_bound,
    num_covers,
    read_cover_count_bound,
    st_inequality_check,
    tribes,
)
from dnf_fourier.bitops import subsets_up_to
from dnf_fourier.covers import (
    BudgetPreconditionError,
    cover_counts_by_union,
    family_cauchy_check,
    family_onenorm_count_check,
    onenorm_count_check,
    onenorm_width_binom_check,
    pair_count_binom_check,
)
from dnf_fourier.dnf import Term
from dnf_fourier.generators import SplitMix64, dense_pool, random_read_k


def oracle_cover_counts(dnf: Dnf, s_mask: int) -> dict[int, int]:
    """All term subsets, unpruned, filtered on the cover definition."""
    d = s_mask.bit_count()
    counts: dict[int, int] = {}
    indices = range(len(dnf.terms))
    for subset in chain.from_iterable(
        combinations(indices, r) for r in range(len(dnf.terms) + 1)
    ):
        if len(subset) > d:
            continue
        if any(not dnf.terms[j].vars_mask & s_mask for j in subset):
            continue
        union = 0
        for j in subset:
            union |= dnf.terms[j].vars_mask
        if s_mask & ~union:
            continue
        u = union.bit_count()
        counts[u] = counts.get(u, 0) + 1
    return counts


# -- num_covers ---------------------------------------------------------------


def test_num_covers_examples():
    pairs = Dnf.from_term_literals(4, [[1, 2], [3, 4]])
    assert num_covers(pairs, 0b0101, 4) == 1
    assert num_covers(pairs, 0b0101, 3) == 0
    chain2 = Dnf.from_term_literals(2, [[1], [1, 2]])
    assert num_covers(chain2, 0b01, 1) == 1
    assert num_covers(chain2, 0b01, 2) == 1
    assert num_covers(chain2, 0, 0) == 1  # the empty cover


def test_num_covers_matches_oracle_on_corpus(bundles):
    for b in bundles:
        for s_mask in subsets_up_to(b.dnf.n, 4):
            assert cover_counts_by_union(b.dnf, s_mask) == oracle_cover_counts(
                b.dnf, s_mask
            ), (b.label, s_mask)


@st.composite
def _small_dnfs(draw):
    """DNFs on n <= 7 variables with at most 8 terms, drawn from a pool of
    at most 4 distinct terms so that duplicates are common; a term with no
    variables is the empty term, and the second mask negates literals."""
    n = draw(st.integers(1, 7))
    masks = st.integers(0, (1 << n) - 1)
    pool = [
        Term(vars_mask & ~neg, vars_mask & neg)
        for vars_mask, neg in draw(st.lists(st.tuples(masks, masks), min_size=1, max_size=4))
    ]
    return Dnf(n, tuple(draw(st.lists(st.sampled_from(pool), max_size=8))))


@given(_small_dnfs())
@settings(max_examples=80, deadline=None)
def test_num_covers_matches_oracle_on_random_dnfs(dnf):
    for s_mask in subsets_up_to(dnf.n, 4):
        assert cover_counts_by_union(dnf, s_mask) == oracle_cover_counts(dnf, s_mask), s_mask


def _total_covers_by_inclusion_exclusion(dnf: Dnf, s_mask: int) -> int:
    """Sets of at most |S| terms meeting S whose union contains S, counted by
    inclusion-exclusion over the set of variables of S the union misses."""
    d = s_mask.bit_count()
    cands = [t.vars_mask for t in dnf.terms if t.vars_mask & s_mask]
    total = 0
    missed = s_mask
    while True:
        avoiding = sum(1 for t in cands if not t & missed)
        sign = -1 if missed.bit_count() % 2 else 1
        total += sign * sum(comb(avoiding, i) for i in range(d + 1))
        if missed == 0:
            return total
        missed = (missed - 1) & s_mask


@pytest.mark.parametrize("s_mask, total", [(0x3F, 9_212_275), (0xAAA, 14_764_949)])
def test_total_covers_of_a_dense_pool(s_mask, total):
    # 60 terms on 12 variables: a cover enumeration would list tens of
    # millions of term sets here
    dnf = dense_pool(60, 3, 12, seed=5)
    d = s_mask.bit_count()
    meeting = sum(1 for t in dnf.terms if t.vars_mask & s_mask)
    assert sum(comb(meeting, i) for i in range(d + 1)) > 20_000_000
    assert _total_covers_by_inclusion_exclusion(dnf, s_mask) == total
    assert sum(cover_counts_by_union(dnf, s_mask).values()) == total


# -- family classification ----------------------------------------------------


def test_classify_single_term():
    fams = classify_families(Dnf.from_term_literals(2, [[1, 2]]), 2)
    assert 0b11 in fams[FamilyKey(2, 2)].members


def test_classify_disjoint_pairs():
    fams = classify_families(Dnf.from_term_literals(4, [[1, 2], [3, 4]]), 2)
    assert 0b0101 in fams[FamilyKey(2, 4)].members
    assert 0b0011 in fams[FamilyKey(2, 2)].members


def test_classify_constant_false():
    fams = classify_families(Dnf(2, ()), 2)
    # only the empty set has a (trivially) full-depth witness
    assert set(fams) == {FamilyKey(0, 0)}
    assert all(key.d == 0 for key in fams)


def test_family_key_ranges(bundles):
    for b in bundles:
        w = b.dnf.width()
        for key, stats in b.analysis.families.items():
            assert stats.members
            if key.d > 0:
                assert key.d <= key.u <= w * key.d, (b.label, key)


def test_every_nonzero_coefficient_is_assigned(bundles):
    for b in bundles:
        for s_mask in subsets_up_to(b.dnf.n, 4):
            if b.spec.coeff(s_mask) != 0:
                assert s_mask in b.analysis.profiles, (b.label, s_mask)


def test_unassigned_subsets_have_zero_coefficient(bundles):
    for b in bundles:
        for s_mask in b.analysis.unassigned:
            assert b.spec.coeff(s_mask) == 0


# -- family inequalities --------------------------------------------------------


def test_check_onenorm_u_examples():
    and2 = Dnf.from_term_literals(2, [[1, 2]])
    lhs, bound, holds = check_onenorm_u(and2, 2, 2)
    assert lhs == DyadicRational(1, 2) and bound == DyadicRational(80) and holds
    lhs, bound, holds = check_onenorm_u(and2, 1, 2)
    assert holds  # family (1, 2) holds both coefficients of degree 1
    t22 = tribes(2, 2)
    lhs, bound, holds = check_onenorm_u(t22, 2, 4)
    assert lhs == DyadicRational(1, 2) and holds


def test_check_abs_fourier_u_examples():
    and2 = Dnf.from_term_literals(2, [[1, 2]])
    r = check_abs_fourier_u(and2, 0b11)
    assert r.lhs == DyadicRational(1, 2)
    assert r.extras["prob"] == DyadicRational(1)
    assert r.extras["num_covers"] == 1 and r.holds

    pairs = Dnf.from_term_literals(4, [[1, 2], [3, 4]])
    r = check_abs_fourier_u(pairs, 0b0101)
    assert r.lhs == DyadicRational(1, 4)
    assert r.extras["u"] == 4
    assert r.extras["prob"] <= DyadicRational(1, 2)  # 2^-(u-d) * numCovers
    assert r.holds

    const = Dnf.from_term_literals(2, [[]])
    r = check_abs_fourier_u(const, 0b01)
    assert r.holds and r.lhs == DyadicRational(0)


def test_family_inequalities_on_corpus(bundles):
    for b in bundles:
        analysis = b.analysis
        for key in analysis.families:
            if key.d > 3:
                continue
            ctx = (b.label, key)
            assert family_onenorm_count_check(b.dnf, key.d, key.u, analysis).holds, ctx
            assert check_onenorm_u(b.dnf, key.d, key.u, analysis).holds, ctx
            assert check_twonorm_u(b.dnf, key.d, key.u, analysis).holds, ctx
            assert family_cauchy_check(analysis.families[key]).holds, ctx
        for s_mask, profile in analysis.profiles.items():
            if profile.d > 3:
                continue
            assert check_abs_fourier_u(b.dnf, s_mask, analysis).holds, (b.label, s_mask)


def test_degree_counting_inequalities_on_corpus(bundles):
    for b in bundles:
        for d in range(4):
            assert onenorm_count_check(b.dnf, d, b.analysis).holds, (b.label, d)
            assert onenorm_width_binom_check(b.dnf, d, b.analysis).holds, (b.label, d)
            assert pair_count_binom_check(b.dnf, d, b.analysis).holds, (b.label, d)


# -- read-based cover bounds -----------------------------------------------------


def test_read_cover_count_examples():
    pairs = Dnf.from_term_literals(4, [[1, 2], [3, 4]])
    count, bound, holds = read_cover_count_bound(pairs, 0b0101)
    assert (count, bound, holds) == (1, 4, True)
    chain2 = Dnf.from_term_literals(2, [[1], [1, 2]])
    count, bound, holds = read_cover_count_bound(chain2, 0b01)
    assert (count, bound, holds) == (2, 3, True)
    count, bound, holds = read_cover_count_bound(chain2, 0)
    assert (count, bound, holds) == (1, 1, True)


def test_read_cover_chain_on_corpus(bundles):
    for b in bundles:
        for s_mask in subsets_up_to(b.dnf.n, 4):
            r = read_cover_count_bound(b.dnf, s_mask)
            assert r.holds, (b.label, s_mask)
            assert r.extras["chain_mid_holds"], (b.label, s_mask)
            assert r.extras["chain_top_holds"], (b.label, s_mask)


def test_exact_width_examples():
    pairs = Dnf.from_term_literals(4, [[1, 2], [3, 4]])
    count, bound, holds = exact_width_cover_bound(pairs, 0b0101, 4)
    assert (count, bound, holds) == (1, 4, True)
    count, bound, holds = exact_width_cover_bound(pairs, 0b0101, 5)
    assert count == 0 and holds
    with pytest.raises(ValueError):
        exact_width_cover_bound(Dnf.from_term_literals(2, [[1], [1, 2]]), 0b01, 1)


def test_exact_width_chain_on_random_instances():
    shapes = [(2, 1), (2, 2), (3, 2)]  # (width, read) with s*w <= n*k slack
    for i in range(30):
        w, k = shapes[i % 3]
        dnf = random_read_k(8, 4, w, k, exact_width=True, seed=6000 + i)
        u_hi = min(dnf.n, w * 3)
        for s_mask in subsets_up_to(8, 3):
            for u in range(s_mask.bit_count(), u_hi + 1):
                r = exact_width_cover_bound(dnf, s_mask, u)
                assert r.holds, (i, s_mask, u)
                if "chain_mid_holds" in r.extras:
                    assert r.extras["chain_mid_holds"] and r.extras["chain_top_holds"]


def test_exact_width_on_tribes():
    for w, t in ((2, 2), (2, 3), (3, 2)):
        dnf = tribes(w, t)
        for s_mask in subsets_up_to(dnf.n, 3):
            for u in range(s_mask.bit_count(), min(dnf.n, 3 * w) + 1):
                assert exact_width_cover_bound(dnf, s_mask, u).holds


# -- the satisfied-mass inequality -------------------------------------------------


def test_st_examples():
    for w in (1, 2, 5):
        single = Dnf.from_term_literals(w, [list(range(1, w + 1))])
        r = st_inequality_check(single)
        assert r.lhs == DyadicRational(1, w) and r.holds and not r.extras["vacuous"]

    const1 = Dnf.from_term_literals(2, [[]])
    r = st_inequality_check(const1)
    assert r.holds and r.extras["vacuous"]

    t22 = tribes(2, 2)
    r = st_inequality_check(t22)
    assert r.lhs == DyadicRational(1, 1)
    assert r.extras["pr"] == Fraction(7, 16)
    # ln(16/9) ~ 0.575: the enclosure must be tight around it
    assert Fraction(1, 2) < r.bound.low <= r.bound.high < Fraction(3, 5)
    assert r.holds


def test_st_on_corpus_and_read_k_instances(bundles):
    for b in bundles:
        assert st_inequality_check(b.dnf, b.f).holds, b.label
    for i in range(200):
        k = 1 + i % 3
        dnf = random_read_k(4 + i % 5, 1 + i % 6, 1 + i % 4, k, seed=7000 + i)
        assert st_inequality_check(dnf).holds, i


# -- the set-size budget bound --------------------------------------------------


def test_budget_examples():
    r = budget_lemma_bound([1], 1, Fraction(1, 2))
    assert r.lhs == 1 and r.holds and r.bound == pytest.approx(4.0)
    r = budget_lemma_bound([2, 2, 2], 6, Fraction(3, 4))
    assert r.lhs == 3 and r.holds and r.bound == pytest.approx(8.0)


def test_budget_preconditions_reported_distinctly():
    with pytest.raises(BudgetPreconditionError, match="total size"):
        budget_lemma_bound([3, 3], 5, 1)
    with pytest.raises(BudgetPreconditionError, match="total mass"):
        budget_lemma_bound([1, 1], 10, Fraction(1, 2))
    with pytest.raises(BudgetPreconditionError, match="v > F"):
        budget_lemma_bound([4], 4, 5)


def test_budget_random_sweep():
    rng = SplitMix64(2024)
    checked = 0
    while checked < 1000:
        count = 1 + rng.below(40)
        sizes = [rng.below(12) for _ in range(count)]
        v = sum(sizes) + rng.below(5)
        mass = sum(Fraction(1, 2**s) for s in sizes)
        if not v > mass:
            continue
        assert budget_lemma_bound(sizes, v, mass).holds
        checked += 1


def test_budget_on_realized_covers(bundles):
    for b in bundles[:60]:
        for profile in b.analysis.profiles.values():
            for covers in profile.covers_by_u.values():
                for cover in covers:
                    sizes = [b.dnf.terms[j - 1].width for j in cover]
                    v = sum(sizes)
                    mass = sum(Fraction(1, 2**s) for s in sizes)
                    if v > mass:
                        assert budget_lemma_bound(sizes, v, mass).holds
