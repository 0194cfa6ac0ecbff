"""Restrictions, decision-tree depth, and the evasiveness inequality."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dnf_fourier import (
    BooleanFunction,
    CapExceededError,
    DimensionMismatchError,
    Dnf,
    DyadicRational,
    Restriction,
    RestrictionTables,
    cover_probability_check,
    dt_depth,
    evasive_bound_check,
    fourier_transform,
    restrict,
    tribes,
)
from dnf_fourier.bitops import pdep, subsets_up_to
from dnf_fourier.boolfn import popcount_table
from dnf_fourier.restrictions import satisfied_union_table
from dnf_fourier.generators import random_read_k


def test_restrict_examples():
    f = Dnf.from_term_literals(2, [[1, 2]]).evaluate()
    g = restrict(f, Restriction(2, 0b01, 0b10))  # x2 = true
    assert g.n == 1 and g.bits == 0b10
    g0 = restrict(f, Restriction(2, 0b01, 0b00))  # x2 = false
    assert g0 == BooleanFunction.constant(1, False)

    pairs = Dnf.from_term_literals(4, [[1, 2], [3, 4]]).evaluate()
    g2 = restrict(pairs, Restriction(4, 0b0101, 0b0010))  # x2 true, x4 false
    assert g2.n == 2 and g2.bits == 0b1010  # indicator of the first free var


def test_restrict_validation():
    f = Dnf.from_term_literals(2, [[1, 2]]).evaluate()
    with pytest.raises(DimensionMismatchError):
        restrict(f, Restriction(3, 0b001, 0b010))
    with pytest.raises(DimensionMismatchError):
        Restriction(2, 0b01, 0b01)  # overlapping assignment
    with pytest.raises(ValueError):
        restrict(f, Restriction(2, 0, 0b10))


def test_dt_depth_examples():
    assert dt_depth(BooleanFunction.constant(4, True)) == 0
    for d in range(1, 6):
        conj = Dnf.from_term_literals(d, [list(range(1, d + 1))]).evaluate()
        assert dt_depth(conj) == d
    for m in range(1, 6):
        parity_bits = sum(
            (bin(x).count("1") & 1) << x for x in range(1 << m)
        )
        assert dt_depth(BooleanFunction(m, parity_bits)) == m


def test_dt_depth_cap():
    with pytest.raises(CapExceededError):
        dt_depth(BooleanFunction(13, 0), cap=12)


def test_read_once_dnfs_are_evasive():
    # disjoint-term DNFs need full depth: no query order can dodge a tribe
    for w, t in ((2, 2), (2, 3), (3, 2), (2, 4)):
        dnf = tribes(w, t)
        assert dt_depth(dnf.evaluate()) == dnf.n


def test_majority_of_three_is_evasive():
    maj = sum((bin(x).count("1") >= 2) << x for x in range(8))
    assert dt_depth(BooleanFunction(3, maj)) == 3


def test_dt_depth_at_least_degree():
    for bits in range(1 << 16):
        if bits % 37:  # subsample for speed, deterministic
            continue
        f = BooleanFunction(4, bits)
        spec = fourier_transform(f)
        assert dt_depth(f) >= spec.degree()
    for i in range(50):
        d = random_read_k(6, 1 + i % 5, 1 + i % 3, k=6, seed=50 + i)
        f = d.evaluate()
        assert dt_depth(f) >= fourier_transform(f).degree()


def _check_tables_against_oracle(f, d_max):
    """E_S from the tables against DT(f_{S|x}) == |S| from the recursion, for
    every S with |S| <= d_max and every fixed assignment, in both layouts."""
    n = f.n
    full = (1 << n) - 1
    tables = RestrictionTables(f)
    for s_mask in subsets_up_to(n, d_max):
        d = s_mask.bit_count()
        fixed_mask = full ^ s_mask
        by_sbar = tables.dt_by_sbar(s_mask)
        by_full = tables.dt_by_full(s_mask)
        assert by_sbar.dtype == bool and by_sbar.shape == (1 << (n - d),)
        assert by_full.dtype == bool and by_full.shape == (1 << n,)
        assert not by_sbar.flags.writeable and not by_full.flags.writeable
        for idx in range(1 << (n - d)):
            fixed = pdep(idx, fixed_mask)
            if d == 0:
                expected = True  # a single value has depth 0 = |S|
            else:
                expected = dt_depth(restrict(f, Restriction(n, s_mask, fixed))) == d
            assert bool(by_sbar[idx]) == expected, (s_mask, idx)
            for y in range(1 << d):
                x = fixed | pdep(y, s_mask)
                assert by_full[x] == by_sbar[idx], (s_mask, idx, y)
                # a Python bool, whatever the bits of x on S
                got = tables.full_depth_at(s_mask, x)
                assert type(got) is bool, (s_mask, x, type(got))
                assert got == by_sbar[idx] == expected, (s_mask, x)
        assert tables.full_depth_count(s_mask) == int(by_sbar.sum())


def test_restriction_tables_match_single_restrictions():
    instances = [
        random_read_k(6, 4, 3, k=4, seed=21),
        tribes(2, 3),
        Dnf.from_term_literals(5, [[1, -2, 3], [-1, 4], [-3, -4, -5], [2, 5]]),
    ]
    for dnf in instances:
        _check_tables_against_oracle(dnf.evaluate(), 4)
    for value in (False, True):
        _check_tables_against_oracle(BooleanFunction.constant(5, value), 4)


@given(st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, (1 << (1 << n)) - 1))))
@settings(max_examples=60, deadline=None)
def test_full_depth_predicate_matches_oracle_on_random_tables(case):
    n, bits = case
    _check_tables_against_oracle(BooleanFunction(n, bits), n)


def test_averaging_identity():
    # the coefficient of S equals the average over fixed assignments of the
    # top coefficient of the restriction
    for i in range(20):
        dnf = random_read_k(6, 1 + i % 6, 1 + i % 4, k=6, seed=300 + i)
        f = dnf.evaluate()
        spec = fourier_transform(f)
        for s_mask in (0b000011, 0b001101, 0b111000):
            d = s_mask.bit_count()
            fixed_mask = ((1 << 6) - 1) ^ s_mask
            total = DyadicRational(0)
            for idx in range(1 << (6 - d)):
                g = restrict(f, Restriction(6, s_mask, pdep(idx, fixed_mask)))
                gs = fourier_transform(g)
                total = total + gs.coeff((1 << d) - 1)
            assert total * DyadicRational(1, 6 - d) == spec.coeff(s_mask)


def test_evasive_examples():
    f = Dnf.from_term_literals(2, [[1, 2]]).evaluate()
    spec = fourier_transform(f)
    tables = RestrictionTables(f)
    lhs, rhs, holds = evasive_bound_check(tables, 0b11, spec)
    assert (lhs, rhs, holds) == (DyadicRational(1, 2), DyadicRational(1), True)
    lhs, rhs, holds = evasive_bound_check(tables, 0b01, spec)
    assert (lhs, rhs, holds) == (DyadicRational(1, 2), DyadicRational(1, 1), True)
    const = BooleanFunction.constant(3, True)
    lhs, rhs, holds = evasive_bound_check(
        RestrictionTables(const), 0b101, fourier_transform(const)
    )
    assert (lhs, rhs, holds) == (DyadicRational(0), DyadicRational(0), True)


def _cover_probability(dnf, s_mask):
    spec = fourier_transform(dnf.evaluate())
    return cover_probability_check(dnf, s_mask, spec, satisfied_union_table(dnf))


def test_cover_probability_examples():
    d1 = Dnf.from_term_literals(1, [[1]])
    lhs, rhs, holds = _cover_probability(d1, 0b1)
    assert (lhs, rhs, holds) == (DyadicRational(1, 1), DyadicRational(1), True)

    zero = Dnf(3, ())
    lhs, rhs, holds = _cover_probability(zero, 0b011)
    assert (lhs, rhs, holds) == (DyadicRational(0), DyadicRational(0), True)

    pairs = Dnf.from_term_literals(4, [[1, 2], [3, 4]])
    lhs, rhs, holds = _cover_probability(pairs, 0b0101)
    assert (lhs, rhs, holds) == (DyadicRational(1, 4), DyadicRational(1, 2), True)


def test_evasive_and_cover_probability_on_corpus(bundles):
    for b in bundles:
        sat_union = satisfied_union_table(b.dnf)
        for s_mask in subsets_up_to(b.dnf.n, 4):
            _, _, holds = evasive_bound_check(b.tables, s_mask, b.spec)
            assert holds, (b.label, s_mask)
            _, _, holds = cover_probability_check(b.dnf, s_mask, b.spec, sat_union)
            assert holds, (b.label, s_mask)


def test_onenorm_count_identity_small():
    # 1-norm at degree d against the full-depth pair count, full enumeration
    import numpy as np

    for i in range(20):
        dnf = random_read_k(5 + i % 4, 1 + i % 6, 1 + i % 4, k=6, seed=700 + i)
        f = dnf.evaluate()
        spec = fourier_transform(f)
        tables = RestrictionTables(f)
        for d in range(4):
            sel = popcount_table(f.n) == d
            lhs = DyadicRational(int(np.sum(np.abs(spec.scaled[sel]))), f.n)
            pairs = sum(
                tables.full_depth_count(m)
                for m in range(1 << f.n)
                if m.bit_count() == d
            )
            assert lhs <= DyadicRational(pairs, f.n - d)


def test_tribes_evasive_sweep():
    for w, t in ((2, 2), (2, 3)):
        dnf = tribes(w, t)
        f = dnf.evaluate()
        spec = fourier_transform(f)
        tables = RestrictionTables(f)
        for s_mask in subsets_up_to(f.n, 4):
            _, _, holds = evasive_bound_check(tables, s_mask, spec)
            assert holds
