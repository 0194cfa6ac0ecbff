"""Cover counting, families, and every cover-based inequality.

The independent cover oracle enumerates all 2^s term subsets with no
pruning at all, then filters on the full definition; the production
counter is a dynamic program over union masks that never lists a cover.
"""
from collections import Counter
from fractions import Fraction
from itertools import chain, combinations
from math import comb
from typing import Iterator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dnf_fourier import (
    DT_CAP,
    CapExceededError,
    Dnf,
    DyadicRational,
    FamilyAnalysis,
    FamilyKey,
    RestrictionTables,
    budget_lemma_bound,
    check_abs_fourier_u,
    check_onenorm_u,
    check_twonorm_u,
    encode,
    exact_width_cover_bound,
    fourier_transform,
    read_cover_count_bound,
    st_inequality_check,
    tribes,
    valid_pairs,
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

from conftest import make_bundle, small_dnfs


def oracle_covers(dnf: Dnf, s_mask: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """Every cover of S, with its union size: all term subsets (0-based
    indices), unpruned, filtered on the cover definition."""
    d = s_mask.bit_count()
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
        yield subset, union.bit_count()


def oracle_cover_counts(dnf: Dnf, s_mask: int) -> dict[int, int]:
    """num_covers(S, u) for every u, from the exhaustive enumeration."""
    return dict(Counter(u for _, u in oracle_covers(dnf, s_mask)))


# -- num_covers ---------------------------------------------------------------


def test_num_covers_examples():
    pairs = Dnf.from_term_literals(4, [[1, 2], [3, 4]])
    assert cover_counts_by_union(pairs, 0b0101) == {4: 1}
    chain2 = Dnf.from_term_literals(2, [[1], [1, 2]])
    assert cover_counts_by_union(chain2, 0b01) == {1: 1, 2: 1}
    assert cover_counts_by_union(chain2, 0) == {0: 1}  # the empty cover


def test_num_covers_matches_oracle_on_corpus(bundles):
    for b in bundles:
        for s_mask in subsets_up_to(b.dnf.n, 4):
            assert cover_counts_by_union(b.dnf, s_mask) == oracle_cover_counts(
                b.dnf, s_mask
            ), (b.label, s_mask)


@given(small_dnfs())
@settings(max_examples=80, deadline=None)
def test_num_covers_matches_oracle_on_random_dnfs(dnf):
    for s_mask in subsets_up_to(dnf.n, 4):
        assert cover_counts_by_union(dnf, s_mask) == oracle_cover_counts(dnf, s_mask), s_mask


@given(small_dnfs(), st.data())
@settings(max_examples=60, deadline=None)
def test_reordering_terms_keeps_table_spectrum_and_covers(dnf, data):
    image = Dnf(dnf.n, tuple(data.draw(st.permutations(dnf.terms))))
    f, g = dnf.evaluate(), image.evaluate()
    assert g == f
    assert np.array_equal(fourier_transform(g).scaled, fourier_transform(f).scaled)
    for s_mask in subsets_up_to(dnf.n, 4):
        assert cover_counts_by_union(image, s_mask) == cover_counts_by_union(dnf, s_mask), s_mask


def _relabel(mask: int, perm: list[int]) -> int:
    """The mask with variable i + 1 moved to variable perm[i] + 1."""
    return sum(1 << perm[i] for i in range(len(perm)) if mask >> i & 1)


@given(small_dnfs(), st.data())
@settings(max_examples=60, deadline=None)
def test_relabelling_variables_permutes_spectrum_tables_and_covers(dnf, data):
    perm = data.draw(st.permutations(range(dnf.n)))
    image = Dnf(dnf.n, tuple(
        Term(_relabel(t.pos_mask, perm), _relabel(t.neg_mask, perm)) for t in dnf.terms
    ))
    a, b = make_bundle("dnf", dnf), make_bundle("relabelled", image)
    for s_mask in range(1 << dnf.n):
        pi_s = _relabel(s_mask, perm)
        assert b.spec.coeff(pi_s) == a.spec.coeff(s_mask), s_mask
        assert b.tables.full_depth_count(pi_s) == a.tables.full_depth_count(s_mask), s_mask
    for s_mask in subsets_up_to(dnf.n, 4):
        pi_s = _relabel(s_mask, perm)
        assert b.analysis.cover_counts(pi_s) == a.analysis.cover_counts(s_mask), s_mask


@given(small_dnfs(), st.data())
@settings(max_examples=60, deadline=None)
def test_negating_a_variable_flips_the_coefficients_that_contain_it(dnf, data):
    bit = 1 << data.draw(st.integers(0, dnf.n - 1))
    image = Dnf(dnf.n, tuple(
        Term(t.pos_mask ^ (bit & t.vars_mask), t.neg_mask ^ (bit & t.vars_mask))
        for t in dnf.terms
    ))
    a, b = make_bundle("dnf", dnf), make_bundle("negated", image)
    for s_mask in range(1 << dnf.n):
        sign = -1 if s_mask & bit else 1
        assert b.spec.coeff(s_mask) == sign * a.spec.coeff(s_mask), s_mask
    for s_mask in subsets_up_to(dnf.n, 4):
        assert b.analysis.cover_counts(s_mask) == a.analysis.cover_counts(s_mask), s_mask


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


def _families(dnf, d_max):
    return make_bundle("", dnf, d_max).analysis.families


def test_classify_single_term():
    fams = _families(Dnf.from_term_literals(2, [[1, 2]]), 2)
    assert 0b11 in fams[FamilyKey(2, 2)].members


def test_classify_disjoint_pairs():
    fams = _families(Dnf.from_term_literals(4, [[1, 2], [3, 4]]), 2)
    assert 0b0101 in fams[FamilyKey(2, 4)].members
    assert 0b0011 in fams[FamilyKey(2, 2)].members


def test_classify_constant_false():
    fams = _families(Dnf(2, ()), 2)
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


def test_the_kept_sums_equal_their_definitions(bundles):
    # the pair counts, weights and tails the analysis keeps, against the
    # sums they replace: over the scalar encoder's covers of valid_pairs,
    # the tables and the families
    for b in bundles:
        a, n = b.analysis, b.dnf.n
        assert a.u_hi == min(b.dnf.width() * a.d_max, n)
        assert list(a.families) and sorted(a.families) == sorted(
            a.families, key=lambda key: (key.d, key.u))
        total = b.spec.total_weight()
        for c in range(a.u_hi + 2):
            inside = DyadicRational(0)
            for key, stats in a.families.items():
                if key.u <= c:
                    inside = inside + stats.two_norm_sq
            assert a.tail_weight(c) == total - inside, (b.label, c)
        assert a.tails == [a.tail_weight(c) for c in range(a.u_hi + 1)]
        for u, weight in enumerate(a.weight_at_u):
            assert weight == sum((stats.two_norm_sq for key, stats in a.families.items()
                                  if key.u == u), DyadicRational(0)), (b.label, u)
        encoded = Counter(
            (s_mask.bit_count(), encode(b.dnf, s_mask, xsbar, b.tables)[1].union_size)
            for s_mask, xsbar in valid_pairs(b.tables, a.d_max))
        for d in range(a.d_max + 1):
            for u in range(a.u_hi + 2):
                assert a.pair_count(d, u) == encoded[d, u], (b.label, d, u)
            expected = sum(b.tables.full_depth_count(m)
                           for m in subsets_up_to(n, d) if m.bit_count() == d)
            assert a.pair_count_at_degree(d) == expected, (b.label, d)
    with pytest.raises(ValueError):
        a.tail_weight(-1)


@pytest.mark.parametrize("d_max", [-1, -7, DT_CAP + 1])
def test_the_analysis_rejects_a_d_max_outside_0_to_the_cap(d_max):
    # a negative d_max would build an empty analysis with u_hi = -2, whose
    # tail_weight(0) raises IndexError
    dnf = tribes(2, 2)
    f = dnf.evaluate()
    with pytest.raises(CapExceededError, match=rf"d_max={d_max} outside \[0, {DT_CAP}\]"):
        FamilyAnalysis(dnf, d_max, RestrictionTables(f), fourier_transform(f))


def test_every_nonzero_coefficient_is_assigned(bundles):
    for b in bundles:
        for s_mask in subsets_up_to(b.dnf.n, 4):
            if b.spec.coeff(s_mask) != 0:
                assert s_mask in b.analysis.profiles, (b.label, s_mask)


# -- family inequalities --------------------------------------------------------


def test_check_onenorm_u_examples():
    and2 = make_bundle("and2", Dnf.from_term_literals(2, [[1, 2]])).analysis
    lhs, bound, holds = check_onenorm_u(and2, 2, 2)
    assert lhs == DyadicRational(1, 2) and bound == DyadicRational(80) and holds
    lhs, bound, holds = check_onenorm_u(and2, 1, 2)
    assert holds  # family (1, 2) holds both coefficients of degree 1
    t22 = make_bundle("tribes(2,2)", tribes(2, 2)).analysis
    lhs, bound, holds = check_onenorm_u(t22, 2, 4)
    assert lhs == DyadicRational(1, 2) and holds


def test_check_abs_fourier_u_examples():
    and2 = make_bundle("and2", Dnf.from_term_literals(2, [[1, 2]])).analysis
    r = check_abs_fourier_u(and2, 0b11)
    assert r.lhs == DyadicRational(1, 2)
    assert r.extras["prob"] == DyadicRational(1)
    assert r.extras["num_covers"] == 1 and r.holds

    pairs = make_bundle("pairs", Dnf.from_term_literals(4, [[1, 2], [3, 4]])).analysis
    r = check_abs_fourier_u(pairs, 0b0101)
    assert r.lhs == DyadicRational(1, 4)
    assert r.extras["u"] == 4
    assert r.extras["prob"] <= DyadicRational(1, 2)  # 2^-(u-d) * numCovers
    assert r.holds

    const = make_bundle("const", Dnf.from_term_literals(2, [[]])).analysis
    r = check_abs_fourier_u(const, 0b01)
    assert r.holds and r.lhs == DyadicRational(0)


def test_family_inequalities_on_corpus(bundles):
    for b in bundles:
        analysis = b.analysis
        for key in analysis.families:
            if key.d > 3:
                continue
            ctx = (b.label, key)
            assert family_onenorm_count_check(analysis, key.d, key.u).holds, ctx
            assert check_onenorm_u(analysis, key.d, key.u).holds, ctx
            assert check_twonorm_u(analysis, key.d, key.u).holds, ctx
            assert family_cauchy_check(analysis.families[key]).holds, ctx
        for s_mask in analysis.profiles:
            if s_mask.bit_count() > 3:
                continue
            assert check_abs_fourier_u(analysis, s_mask).holds, (b.label, s_mask)


def test_degree_counting_inequalities_on_corpus(bundles):
    for b in bundles:
        for d in range(4):
            assert onenorm_count_check(b.analysis, d).holds, (b.label, d)
            assert onenorm_width_binom_check(b.analysis, d).holds, (b.label, d)
            assert pair_count_binom_check(b.analysis, d).holds, (b.label, d)


# -- read-based cover bounds -----------------------------------------------------


def _read_bound(dnf, s_mask):
    return read_cover_count_bound(dnf, s_mask, cover_counts_by_union(dnf, s_mask))


def _exact_width_bound(dnf, s_mask, u):
    return exact_width_cover_bound(dnf, s_mask, u, cover_counts_by_union(dnf, s_mask))


def test_read_cover_count_examples():
    pairs = Dnf.from_term_literals(4, [[1, 2], [3, 4]])
    count, bound, holds = _read_bound(pairs, 0b0101)
    assert (count, bound, holds) == (1, 4, True)
    chain2 = Dnf.from_term_literals(2, [[1], [1, 2]])
    count, bound, holds = _read_bound(chain2, 0b01)
    assert (count, bound, holds) == (2, 3, True)
    count, bound, holds = _read_bound(chain2, 0)
    assert (count, bound, holds) == (1, 1, True)


def test_read_cover_chain_on_corpus(bundles):
    for b in bundles:
        for s_mask in subsets_up_to(b.dnf.n, 4):
            r = read_cover_count_bound(b.dnf, s_mask, b.analysis.cover_counts(s_mask))
            assert r.holds, (b.label, s_mask)
            assert r.extras["chain_mid_holds"], (b.label, s_mask)
            assert r.extras["chain_top_holds"], (b.label, s_mask)


@pytest.mark.parametrize("link", ["chain_mid_holds", "chain_top_holds"])
def test_a_failed_chain_link_fails_the_verdict(monkeypatch, link):
    # holds is the conjunction of every link: a bound that holds with a
    # broken link in its chain is a failed row
    from dnf_fourier import covers

    pairs = Dnf.from_term_literals(4, [[1, 2], [3, 4]])
    assert _read_bound(pairs, 0b0101).holds and _exact_width_bound(pairs, 0b0101, 4).holds
    if link == "chain_top_holds":
        monkeypatch.setattr(covers, "_le_exp", lambda target, m: (False, None))
    else:   # C(kd, i) = 1 for the bound, but the middle term C(4, 2) = 0
        monkeypatch.setattr(covers, "comb", lambda a, b: 1 if a < 4 else 0)
    for r in (_read_bound(pairs, 0b0101), _exact_width_bound(pairs, 0b0101, 4)):
        assert r.extras[link] is False and r.holds is False


def test_exact_width_examples():
    pairs = Dnf.from_term_literals(4, [[1, 2], [3, 4]])
    count, bound, holds = _exact_width_bound(pairs, 0b0101, 4)
    assert (count, bound, holds) == (1, 4, True)
    count, bound, holds = _exact_width_bound(pairs, 0b0101, 5)
    assert count == 0 and holds
    with pytest.raises(ValueError):
        _exact_width_bound(Dnf.from_term_literals(2, [[1], [1, 2]]), 0b01, 1)


def test_exact_width_chain_on_random_instances():
    shapes = [(2, 1), (2, 2), (3, 2)]  # (width, read) with s*w <= n*k slack
    for i in range(30):
        w, k = shapes[i % 3]
        dnf = random_read_k(8, 4, w, k, exact_width=True, seed=6000 + i)
        u_hi = min(dnf.n, w * 3)
        for s_mask in subsets_up_to(8, 3):
            for u in range(s_mask.bit_count(), u_hi + 1):
                r = _exact_width_bound(dnf, s_mask, u)
                assert r.holds, (i, s_mask, u)
                if "chain_mid_holds" in r.extras:
                    assert r.extras["chain_mid_holds"] and r.extras["chain_top_holds"]


def test_exact_width_on_tribes():
    for w, t in ((2, 2), (2, 3), (3, 2)):
        dnf = tribes(w, t)
        for s_mask in subsets_up_to(dnf.n, 3):
            for u in range(s_mask.bit_count(), min(dnf.n, 3 * w) + 1):
                assert _exact_width_bound(dnf, s_mask, u).holds


# -- the satisfied-mass inequality -------------------------------------------------


def test_st_examples():
    for w in (1, 2, 5):
        single = Dnf.from_term_literals(w, [list(range(1, w + 1))])
        r = st_inequality_check(single, single.evaluate())
        assert r.lhs == DyadicRational(1, w) and r.holds and not r.extras["vacuous"]

    const1 = Dnf.from_term_literals(2, [[]])
    r = st_inequality_check(const1, const1.evaluate())
    assert r.holds and r.extras["vacuous"]

    t22 = tribes(2, 2)
    r = st_inequality_check(t22, t22.evaluate())
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
        assert st_inequality_check(dnf, dnf.evaluate()).holds, i


# -- the set-size budget bound --------------------------------------------------


def test_budget_examples():
    # the bound is the upper end of a rational enclosure of 4v / log2(v/F),
    # here 4 and 8 exactly: at or above it, and within 2^-50 of it
    r = budget_lemma_bound([1], 1, Fraction(1, 2))
    assert r.lhs == 1 and r.holds and 4 <= r.bound < 4 + Fraction(1, 1 << 50)
    r = budget_lemma_bound([2, 2, 2], 6, Fraction(3, 4))
    assert r.lhs == 3 and r.holds and 8 <= r.bound < 8 + Fraction(1, 1 << 50)
    assert isinstance(r.bound, Fraction)


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
    # every cover of every S up to d_max, which includes each cover the
    # encoder selects
    for b in bundles[:60]:
        every_cover = {cover for s_mask in subsets_up_to(b.dnf.n, b.analysis.d_max)
                       for cover, _ in oracle_covers(b.dnf, s_mask)}
        for cover in every_cover:
            sizes = [b.dnf.terms[j].width for j in cover]
            v = sum(sizes)
            mass = sum(Fraction(1, 2**s) for s in sizes)
            if v > mass:
                assert budget_lemma_bound(sizes, v, mass).holds
