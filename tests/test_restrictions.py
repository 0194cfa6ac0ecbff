"""Restrictions, decision-tree depth, and the evasiveness inequality.

The textbook decision-tree recursion (``dt_depth`` over ``restrict``) and
the unpacked bool builder of the full-depth tables live here, as the
oracles of ``RestrictionTables``; so does the whole-table build of the
satisfied-union table U, the oracle of its chunks.
"""
import io
from dataclasses import dataclass
from math import comb
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dnf_fourier import (
    BooleanFunction,
    CapExceededError,
    DimensionMismatchError,
    Dnf,
    DyadicRational,
    FourierSpectrum,
    RestrictionTables,
    cover_probability_check,
    evasive_bound_check,
    fourier_transform,
    tribes,
)
from dnf_fourier import restrictions
from dnf_fourier.bitops import bit_indices, pdep, subsets_up_to
from dnf_fourier.covers import (
    FamilyKey,
    FamilyStats,
    SubsetProfile,
    check_abs_fourier_u,
    check_onenorm_u,
    check_twonorm_u,
    family_cauchy_check,
    family_onenorm_count_check,
    onenorm_count_check,
    onenorm_width_binom_check,
    pair_count_binom_check,
)
from dnf_fourier.boolfn import popcount_table
from dnf_fourier.restrictions import satisfied_union_table, union_superset_counts
from dnf_fourier.generators import random_read_k

from conftest import bits_of, corpus_bundles, small_dnfs, table_of

#: The recursion runs on at most this many variables.
DT_ORACLE_CAP = 12


@dataclass(frozen=True, slots=True)
class Restriction:
    """Free-variable mask plus values for every fixed variable.

    ``fixed_bits`` holds the assignment of the complement of ``free_mask``
    (a set bit means true); bits at free positions must be zero.
    """

    n: int
    free_mask: int
    fixed_bits: int

    def __post_init__(self):
        full = (1 << self.n) - 1
        if self.free_mask & ~full:
            raise DimensionMismatchError("free variables beyond n")
        if self.fixed_bits & ~full or self.fixed_bits & self.free_mask:
            raise DimensionMismatchError("fixed assignment overlaps free variables")


def _split(table: int, n: int, i: int) -> tuple[int, int]:
    """Tables of the two subfunctions fixing variable i+1 to false / true."""
    block = 1 << i
    ones = (1 << block) - 1
    t0 = t1 = 0
    for j in range(1 << (n - 1 - i)):
        t0 |= ((table >> (2 * j * block)) & ones) << (j * block)
        t1 |= ((table >> ((2 * j + 1) * block)) & ones) << (j * block)
    return t0, t1


def _dt(n: int, table: int, memo: dict[tuple[int, int], int]) -> int:
    if table == 0 or table == (1 << (1 << n)) - 1:
        return 0
    key = (n, table)
    cached = memo.get(key)
    if cached is not None:
        return cached
    best = n
    for i in range(n):
        t0, t1 = _split(table, n, i)
        depth = 1 + max(_dt(n - 1, t0, memo), _dt(n - 1, t1, memo))
        if depth < best:
            best = depth
            if best == 1:
                break
    memo[key] = best
    return best


def dt_depth(g: BooleanFunction, cap: int = DT_ORACLE_CAP, memo=None) -> int:
    """Exact decision-tree depth of g (g.n must not exceed the cap).

    The textbook recursion: 0 for constants, else 1 + min over the query
    variable of the max over its two answers.  ``memo`` may be shared
    between calls."""
    if g.n > cap:
        raise CapExceededError(f"decision-tree recursion capped at n={cap}")
    return _dt(g.n, bits_of(g), {} if memo is None else memo)


def restrict(f: BooleanFunction, r: Restriction) -> BooleanFunction:
    """The function of |S| variables obtained by fixing the complement of S,
    the free variables renumbered ascending.

    The free set must be nonempty: the result type represents functions of
    at least one variable.  (For an empty free set the full-depth predicate
    is identically true.)
    """
    if r.n != f.n:
        raise DimensionMismatchError(f"restriction over n={r.n}, function n={f.n}")
    if r.free_mask == 0:
        raise ValueError("free set is empty; the restriction is a single value")
    if r.free_mask == (1 << f.n) - 1:
        return f
    free = bit_indices(r.free_mask)
    bits = 0
    for xs in range(1 << len(free)):
        x = r.fixed_bits
        for t, b in enumerate(free):
            if (xs >> t) & 1:
                x |= 1 << b
        bits |= f.value(x) << xs
    return table_of(len(free), bits)


def oracle_visit(self: RestrictionTables, d_max: int):
    """``RestrictionTables.visit`` with no zero-parent rule: the pass
    yields and releases as the package's does, and every reader builds
    the table of every subset it asks about."""
    for s_mask in subsets_up_to(self.n, d_max):
        yield s_mask
        if s_mask.bit_count() == d_max:
            self.release(s_mask)
    self._by_sbar.clear()


def oracle_tables(f: BooleanFunction, masks) -> dict[int, np.ndarray]:
    """E_S for each mask as an unpacked bool array of length 2^(n-|S|): the
    builder the packed one replaced, on the (2,)*n tensor of the truth
    table, with the parents' halves ORed elementwise."""
    n = f.n
    arr = f.to_array().view(np.bool_).reshape((2,) * n)
    built: dict[int, np.ndarray] = {}

    def build(free_mask):
        if free_mask in built:
            return built[free_mask]
        free = bit_indices(free_mask)
        if not free:
            table = np.ones(1 << n, dtype=np.bool_)
        elif len(free) == 1:
            lo, hi = np.split(arr, 2, axis=n - 1 - free[0])
            table = (lo != hi).reshape(-1)
        else:
            table = np.empty(1 << (n - len(free)), dtype=np.bool_)
            scratch = np.empty_like(table)
            for t, i in enumerate(free):
                p = i - t
                halves = build(free_mask ^ (1 << i)).reshape(-1, 2, 1 << p)
                dest = table if t == 0 else scratch
                np.logical_or(halves[:, 0], halves[:, 1], out=dest.reshape(-1, 1 << p))
                if t:
                    table &= scratch
        built[free_mask] = table
        return table

    return {m: build(m) for m in masks}


def test_restrict_examples():
    f = Dnf.from_term_literals(2, [[1, 2]]).evaluate()
    g = restrict(f, Restriction(2, 0b01, 0b10))  # x2 = true
    assert g.n == 1 and bits_of(g) == 0b10
    g0 = restrict(f, Restriction(2, 0b01, 0b00))  # x2 = false
    assert g0 == BooleanFunction.constant(1, False)

    pairs = Dnf.from_term_literals(4, [[1, 2], [3, 4]]).evaluate()
    g2 = restrict(pairs, Restriction(4, 0b0101, 0b0010))  # x2 true, x4 false
    assert g2.n == 2 and bits_of(g2) == 0b1010  # indicator of the first free var


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
        assert dt_depth(table_of(m, parity_bits)) == m


def test_dt_depth_cap():
    with pytest.raises(CapExceededError):
        dt_depth(table_of(13, 0), cap=12)


def test_read_once_dnfs_are_evasive():
    # disjoint-term DNFs need full depth: no query order can dodge a tribe
    for w, t in ((2, 2), (2, 3), (3, 2), (2, 4)):
        dnf = tribes(w, t)
        assert dt_depth(dnf.evaluate()) == dnf.n


def test_majority_of_three_is_evasive():
    maj = sum((bin(x).count("1") >= 2) << x for x in range(8))
    assert dt_depth(table_of(3, maj)) == 3


def test_dt_depth_at_least_degree():
    for bits in range(1 << 16):
        if bits % 37:  # subsample for speed, deterministic
            continue
        f = table_of(4, bits)
        spec = fourier_transform(f)
        assert dt_depth(f) >= spec.degree()
    for i in range(50):
        d = random_read_k(6, 1 + i % 5, 1 + i % 3, k=6, seed=50 + i)
        f = d.evaluate()
        assert dt_depth(f) >= fourier_transform(f).degree()


def _check_tables_against_oracle(f, d_max, every_x=True):
    """E_S from the tables against DT(f_{S|x}) == |S| from the recursion and
    against the bool builder, for every S with |S| <= d_max and every fixed
    assignment: the packed table and its unused bits, the full-assignment
    layout, the x_Sbar masks (against the scalar ``pdep`` of the oracle's
    indices), the count and the lookups (at every x, or with ``every_x``
    false at the two x that are all false and all true on S)."""
    n = f.n
    full = (1 << n) - 1
    tables = RestrictionTables(f)
    masks = list(subsets_up_to(n, d_max))
    oracle = oracle_tables(f, masks)
    memo = {}
    for s_mask in masks:
        d = s_mask.bit_count()
        size = 1 << (n - d)
        fixed_mask = full ^ s_mask
        packed = tables.dt_by_sbar(s_mask)
        by_full = tables.dt_by_full(s_mask)
        assert packed.dtype == np.uint8 and packed.shape == (max(1, size >> 3),)
        assert by_full.dtype == bool and by_full.shape == (1 << n,)
        assert not packed.flags.writeable and not by_full.flags.writeable
        bits = np.unpackbits(packed, bitorder="little")
        assert not bits[size:].any(), s_mask     # the unused bits of a short table
        assert np.array_equal(bits[:size].view(bool), oracle[s_mask]), s_mask
        by_sbar, by_full = bits[:size].tolist(), by_full.tolist()
        expected = []
        for idx in range(size):
            fixed = pdep(idx, fixed_mask)
            if d == 0:
                expected.append(True)  # a single value has depth 0 = |S|
            else:
                g = restrict(f, Restriction(n, s_mask, fixed))
                expected.append(dt_depth(g, memo=memo) == d)
            assert by_sbar[idx] == expected[idx], (s_mask, idx)
            for y in range(1 << d) if every_x else (0, (1 << d) - 1):
                x = fixed | pdep(y, s_mask)
                assert by_full[x] == by_sbar[idx], (s_mask, idx, y)
                # a Python int, whatever the bits of x on S
                got = tables.full_depth_at(s_mask, x)
                assert type(got) is int, (s_mask, x, type(got))
                assert got == by_sbar[idx] == expected[idx], (s_mask, x)
        xsbars = tables.full_depth_xsbars(s_mask)
        assert xsbars.dtype == np.uint32 and not xsbars.flags.writeable
        assert xsbars.tolist() == [pdep(int(i), fixed_mask) for i in np.flatnonzero(expected)]
        assert tables.full_depth_count(s_mask) == sum(expected), s_mask


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
    _check_tables_against_oracle(table_of(n, bits), n)


def test_packed_tables_match_the_oracles_on_corpus():
    # n between 4 and 8 at d_max 4: tables of 1 to 256 entries, so fewer
    # than 8 (n - |S| < 3) and every bit position p < 3 of a parent
    for b in corpus_bundles():
        _check_tables_against_oracle(b.f, 4, every_x=False)


@given(small_dnfs())
@settings(max_examples=60, deadline=None)
def test_packed_tables_match_the_oracles_on_random_dnfs(dnf):
    _check_tables_against_oracle(dnf.evaluate(), dnf.n)


@given(small_dnfs(), st.sampled_from([8, 16, 64]))
@settings(max_examples=40, deadline=None)
def test_full_depth_indices_match_the_oracles_in_small_chunks(dnf, chunk):
    # the x_Sbar masks are gathered chunk by chunk; with chunks this small
    # a table of up to 128 entries spans several
    with mock.patch.object(restrictions, "INDEX_CHUNK", chunk):
        _check_tables_against_oracle(dnf.evaluate(), dnf.n, every_x=False)


def test_the_empty_set_has_full_depth_at_every_index():
    # E_{} holds everywhere, whatever f: a function of no free variable has
    # depth 0 = |S|.  The encoder's last round, whose block is the whole
    # remaining free set, rests on this and asks no question.  n = 0 has no
    # BooleanFunction; a stand-in with its one-entry table covers the
    # formula of the sub-byte tables there.
    functions = [SimpleNamespace(n=0, packed=np.array([value], dtype=np.uint8).view)
                 for value in (0, 1)]
    for n in range(1, 6):
        functions += [BooleanFunction.constant(n, False), BooleanFunction.constant(n, True),
                      random_read_k(n, 2, min(n, 3), k=2, seed=n).evaluate()]
    for f in functions:
        tables = RestrictionTables(f)
        size = 1 << f.n
        bits = np.unpackbits(tables.dt_by_sbar(0), bitorder="little")
        assert bits[:size].all() and not bits[size:].any(), f
        assert all(tables.full_depth_at(0, x) == 1 for x in range(size)), f
        assert tables.full_depth_xsbars(0).tolist() == list(range(size)), f
        assert tables.full_depth_count(0) == size, f


def test_the_empty_sets_masks_are_its_indices_with_no_plan_pass(monkeypatch):
    # for S = {} the indices where E_S holds are the x_Sbar masks: they are
    # returned as unpacked, and the compress plan is not run backwards
    planned = []
    plan = restrictions.compress_plan

    def spy(n, free_mask):
        planned.append(free_mask)
        return plan(n, free_mask)

    monkeypatch.setattr(restrictions, "compress_plan", spy)
    tables = RestrictionTables(random_read_k(10, 5, 3, k=2, seed=4).evaluate())
    xsbars = tables.full_depth_xsbars(0)
    assert xsbars.tolist() == list(range(1 << 10)) and planned == []
    tables.full_depth_xsbars(0b101)
    assert planned == [0b101]


def test_compress_plan_deletes_the_bits_of_the_free_set():
    # at most |S| + 1 (shift, mask) pairs, and their OR is x with the bits
    # of S deleted, the higher bits moved down, at every x
    for n in range(1, 8):
        tables = RestrictionTables(BooleanFunction.constant(n, True))
        for s_mask in range(1 << n):
            table, plan = tables.full_depth_entry(s_mask)
            assert isinstance(table, memoryview) and plan == restrictions.compress_plan(n, s_mask)
            assert len(plan) <= s_mask.bit_count() + 1
            fixed = [b for b in range(n) if not s_mask >> b & 1]
            for x in range(1 << n):
                index = 0
                for shift, mask in plan:
                    index |= x >> shift & mask
                assert index == sum((x >> b & 1) << t for t, b in enumerate(fixed)), (
                    n, s_mask, x)


def test_a_cache_entry_is_its_table_and_an_entry_lookup_keeps_nothing():
    # every value of the cache is the read-only packed array E_S itself,
    # which dt_by_sbar returns; full_depth_entry makes a fresh view of it
    # and its plan on each call, and adds nothing to the cache
    f = random_read_k(6, 4, 3, k=4, seed=21).evaluate()
    tables = RestrictionTables(f)
    for s_mask in tables.visit(3):
        table = tables.dt_by_sbar(s_mask)
        before = {m: id(entry) for m, entry in tables._by_sbar.items()}
        view, plan = tables.full_depth_entry(s_mask)
        assert {m: id(entry) for m, entry in tables._by_sbar.items()} == before
        assert tables._by_sbar[s_mask] is table
        assert view.obj is table and tables.full_depth_entry(s_mask)[0] is not view
        for entry in tables._by_sbar.values():
            assert type(entry) is np.ndarray and entry.dtype == np.uint8, s_mask
            assert not entry.flags.writeable, s_mask


def test_a_released_table_is_dropped_and_built_again_on_request():
    f = random_read_k(6, 4, 3, k=4, seed=21).evaluate()
    tables = RestrictionTables(f)
    s_mask = 0b1011
    before = tables.dt_by_sbar(s_mask)
    assert tables.full_depth_at(s_mask, 0) == before[0] & 1
    tables.release(s_mask)
    assert s_mask not in tables._by_sbar
    assert 0b0011 in tables._by_sbar        # a parent stays
    assert np.array_equal(tables.dt_by_sbar(s_mask), before)


@pytest.mark.parametrize("d_max", [0, 2, 3, 6])
def test_the_pass_drops_each_top_level_table_as_it_moves_on_and_every_table_at_its_end(
        d_max):
    # while S is the current subset its table, and its lookup entry, are
    # held; once the pass moves on, no table with |S| = d_max is held. After
    # the pass no table is, the counts are those of fresh tables, and a
    # dropped table is built again equal to the first
    f = random_read_k(6, 4, 3, k=4, seed=21).evaluate()
    tables, fresh = RestrictionTables(f), RestrictionTables(f)
    visited, first = [], {}
    for s_mask in tables.visit(d_max):
        assert not any(m.bit_count() == d_max for m in tables._by_sbar), s_mask
        first[s_mask] = tables.dt_by_sbar(s_mask)
        tables.full_depth_entry(s_mask)
        tables.full_depth_count(s_mask)
        assert s_mask in tables._by_sbar
        visited.append(s_mask)
    assert visited == list(subsets_up_to(6, d_max))
    assert tables._by_sbar == {}
    for s_mask in visited:
        assert tables.full_depth_count(s_mask) == fresh.full_depth_count(s_mask), s_mask
    assert tables._by_sbar == {}
    for s_mask in visited:
        assert np.array_equal(tables.dt_by_sbar(s_mask), first[s_mask]), s_mask
        assert tables.full_depth_at(s_mask, 0b111111) == fresh.full_depth_at(s_mask, 0b111111)


@example(Dnf.from_term_literals(3, [[2, 3]]), 2)   # {x1, x2}: only its parent {x1} is zero
@given(small_dnfs(), st.integers(0, 5))
@settings(max_examples=40, deadline=None)
def test_the_pass_gives_a_subset_with_a_zero_parent_count_0_and_no_table(dnf, d_max):
    # a subset with a parent S - i, any i in S, whose oracle table is all
    # zero is counted 0 and its table is never built; every count is the
    # oracle's
    f = dnf.evaluate()
    tables = RestrictionTables(f)
    subsets = list(subsets_up_to(dnf.n, d_max))
    oracle = oracle_tables(f, subsets)
    built, by_sbar = [], RestrictionTables.dt_by_sbar

    def spy(self, free_mask):
        if free_mask not in self._by_sbar:
            built.append(free_mask)
        return by_sbar(self, free_mask)

    with mock.patch.object(RestrictionTables, "dt_by_sbar", spy):
        counts = {m: tables.full_depth_count(m) for m in tables.visit(d_max)}
    assert counts == {m: int(oracle[m].sum()) for m in subsets}
    assert built == [m for m in subsets if all(oracle[m ^ 1 << i].any() for i in bit_indices(m))]


def test_a_released_tables_count_answers_without_the_table(monkeypatch):
    # the count of a released table is kept, so the evasive check reads it
    # after the family analysis without building the table again
    tables = RestrictionTables(random_read_k(6, 4, 3, k=4, seed=21).evaluate())
    counts = {m: tables.full_depth_count(m) for m in (0b1011, 0b0011)}
    tables.release(0b1011)
    tables.release(0b0011)
    asked = []
    monkeypatch.setattr(RestrictionTables, "dt_by_sbar",
                        lambda self, free_mask: asked.append(free_mask))
    assert {m: tables.full_depth_count(m) for m in counts} == counts
    assert asked == []


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
    lhs, rhs, holds = evasive_bound_check(tables.full_depth_count(0b11), 0b11, spec)
    assert (lhs, rhs, holds) == (DyadicRational(1, 2), DyadicRational(1), True)
    lhs, rhs, holds = evasive_bound_check(tables.full_depth_count(0b01), 0b01, spec)
    assert (lhs, rhs, holds) == (DyadicRational(1, 2), DyadicRational(1, 1), True)
    const = BooleanFunction.constant(3, True)
    lhs, rhs, holds = evasive_bound_check(
        RestrictionTables(const).full_depth_count(0b101), 0b101, fourier_transform(const)
    )
    assert (lhs, rhs, holds) == (DyadicRational(0), DyadicRational(0), True)


def _covered(dnf):
    """Entry S is the number of x with S inside U(x), for every mask S."""
    return union_superset_counts([satisfied_union_table(dnf, 0, 1 << dnf.n)],
                                 range(1 << dnf.n)).tolist()


def _cover_probability(dnf, s_mask):
    spec = fourier_transform(dnf.evaluate())
    return cover_probability_check(dnf, s_mask, spec, _covered(dnf)[s_mask])


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


#: Each restriction-table check of a row kind, called with (n, S, the count
#: its bound reads, the spectrum): E_S's witnesses for ``evasive``, the
#: inputs whose satisfied union holds S for ``cover_probability``.
_BOUNDED_CHECKS = {
    "evasive": lambda n, s_mask, count, spec: evasive_bound_check(count, s_mask, spec),
    "cover_probability": lambda n, s_mask, count, spec: cover_probability_check(
        Dnf(n, ()), s_mask, spec, count),
}


@pytest.mark.parametrize("kind", sorted(_BOUNDED_CHECKS))
@pytest.mark.parametrize("n, s_mask, count", [(4, 0b0101, 3), (6, 0, 17), (5, 0b00111, 3),
                                              (3, 0b010, 0), (5, 0b11111, 1)])
@pytest.mark.parametrize("sign", [1, -1])
def test_restriction_check_holds_at_its_bound_and_fails_one_unit_past(kind, n, s_mask, count,
                                                                      sign):
    # both bounds are count * 2^|S| / 2^n: |fhat(S)| equal to it holds, and
    # one unit (2^-n) more fails, on a synthetic int32 spectrum
    bound = count << s_mask.bit_count()
    for past, holds in ((0, True), (1, False)):
        scaled = np.zeros(1 << n, np.int32)
        scaled[s_mask] = sign * (bound + past)
        lhs, rhs, ok = _BOUNDED_CHECKS[kind](n, s_mask, count, FourierSpectrum(n, scaled))
        assert (lhs, rhs, ok) == (DyadicRational(bound + past, n), DyadicRational(bound, n), holds)


def _degree_analysis(n, w, d, pairs, one_norm, sign):
    """A stub of what the degree-level checks read: width w, ``pairs``
    full-depth pairs at degree d, and a synthetic int32 spectrum whose
    one-norm at degree d is ``one_norm`` units of 2^-n, split with opposite
    signs over the first and the last mask of size d.  Every mask of
    another size carries weight that no check may count."""
    scaled = np.where(popcount_table(n) == d, 0, 3).astype(np.int32)
    first, last = (1 << d) - 1, ((1 << d) - 1) << (n - d)
    half = 0 if first == last else one_norm // 2
    scaled[last] = -sign * half
    scaled[first] = sign * (one_norm - half)
    return SimpleNamespace(spec=FourierSpectrum(n, scaled),
                           dnf=SimpleNamespace(n=n, width=lambda: w),
                           pair_count_at_degree={d: pairs}.__getitem__)


#: (n, w, d, pairs at degree d) of each degree-level boundary case.
_DEGREE_CASES = [(4, 1, 0, 3), (5, 2, 2, 7), (3, 3, 3, 1), (4, 1, 1, 0), (6, 2, 3, 5)]


@pytest.mark.parametrize("n, w, d, pairs", _DEGREE_CASES)
@pytest.mark.parametrize("sign", [1, -1])
def test_onenorm_count_check_holds_at_its_bound_and_fails_one_unit_past(n, w, d, pairs, sign):
    # the bound 2^-(n-d) * pairs is pairs * 2^d units of 2^-n
    bound = pairs << d
    for past, holds in ((0, True), (1, False)):
        analysis = _degree_analysis(n, w, d, pairs, bound + past, sign)
        assert tuple(onenorm_count_check(analysis, d)) == (
            DyadicRational(bound + past, n), DyadicRational(bound, n), holds)


@pytest.mark.parametrize("n, w, d, pairs", _DEGREE_CASES)
@pytest.mark.parametrize("sign", [1, -1])
def test_onenorm_width_binom_check_holds_at_its_bound_and_fails_one_unit_past(n, w, d, pairs,
                                                                             sign):
    # the bound C(wd, d) * 2^(2d) is C(wd, d) * 2^(2d + n) units of 2^-n
    bound = comb(w * d, d) << (2 * d + n)
    for past, holds in ((0, True), (1, False)):
        analysis = _degree_analysis(n, w, d, pairs, bound + past, sign)
        assert tuple(onenorm_width_binom_check(analysis, d)) == (
            DyadicRational(bound + past, n), DyadicRational(bound, n), holds)


@pytest.mark.parametrize("n, w, d, pairs", _DEGREE_CASES)
def test_pair_count_binom_check_holds_at_its_bound_and_fails_one_unit_past(n, w, d, pairs):
    # the bound 2^n * C(wd, d) * 2^d on the pair count, in units of 1
    bound = comb(w * d, d) << (n + d)
    for past, holds in ((0, True), (1, False)):
        analysis = _degree_analysis(n, w, d, bound + past, 0, 1)
        assert tuple(pair_count_binom_check(analysis, d)) == (bound + past, bound, holds)


def _family_analysis(n, w, d, u, stats, count):
    """A stub of what the family-level checks read: width w, and one (d, u)
    family with ``stats``, ``count`` full-depth pairs and ``count`` as its
    largest num_covers."""
    key = FamilyKey(d, u)
    return SimpleNamespace(dnf=SimpleNamespace(n=n, width=lambda: w), families={key: stats},
                           pair_count=lambda *d_u: {key: count}[d_u],
                           max_num_covers={key: count}.__getitem__)


#: (n, w, d, u, count) of each family-level boundary case.
_FAMILY_CASES = [(4, 1, 0, 0, 3), (5, 2, 2, 3, 7), (3, 3, 3, 3, 1), (4, 1, 1, 1, 0),
                 (6, 2, 3, 6, 5)]


@pytest.mark.parametrize("n, w, d, u, count", _FAMILY_CASES)
def test_family_onenorm_count_check_holds_at_its_bound_and_fails_one_unit_past(n, w, d, u,
                                                                              count):
    # the bound (wd+1) * 2^-(n-d) * pairs is (wd+1) * pairs * 2^d units of 2^-n
    bound = (w * d + 1) * count << d
    for past, holds in ((0, True), (1, False)):
        stats = FamilyStats(one_norm=DyadicRational(bound + past, n))
        analysis = _family_analysis(n, w, d, u, stats, count)
        assert tuple(family_onenorm_count_check(analysis, d, u)) == (
            DyadicRational(bound + past, n), DyadicRational(bound, n), holds)


@pytest.mark.parametrize("n, w, d, u, count", _FAMILY_CASES)
def test_check_onenorm_u_holds_at_its_bound_and_fails_one_unit_past(n, w, d, u, count):
    # the bound (wd+1) * C(u, d) * 2^(2d) is that many times 2^n units of 2^-n
    bound = (w * d + 1) * comb(u, d) << (2 * d + n)
    for past, holds in ((0, True), (1, False)):
        stats = FamilyStats(one_norm=DyadicRational(bound + past, n))
        analysis = _family_analysis(n, w, d, u, stats, count)
        assert tuple(check_onenorm_u(analysis, d, u)) == (
            DyadicRational(bound + past, n), DyadicRational(bound, n), holds)


@pytest.mark.parametrize("n, w, d, u, count", _FAMILY_CASES)
def test_check_twonorm_u_holds_at_its_bound_and_fails_one_unit_past(n, w, d, u, count):
    # the bound (wd+1)^2 * C(u, d) * 2^(3d) * 2^-u * max num_covers, in
    # units of 2^-2n
    bound = (w * d + 1) ** 2 * comb(u, d) * count << (3 * d + 2 * n - u)
    for past, holds in ((0, True), (1, False)):
        stats = FamilyStats(two_norm_sq=DyadicRational(bound + past, 2 * n))
        analysis = _family_analysis(n, w, d, u, stats, count)
        assert tuple(check_twonorm_u(analysis, d, u)) == (
            DyadicRational(bound + past, 2 * n), DyadicRational(bound, 2 * n), holds)


@pytest.mark.parametrize("n, w, d, u, count", _FAMILY_CASES)
def test_family_cauchy_check_holds_at_its_bound_and_fails_one_unit_past(n, w, d, u, count):
    # a one-norm of count + d + 1 and a peak of u + 1 units of 2^-n bound
    # the weight by their product in units of 2^-2n
    bound = (count + d + 1) * (u + 1)
    for past, holds in ((0, True), (1, False)):
        stats = FamilyStats(one_norm=DyadicRational(count + d + 1, n),
                            two_norm_sq=DyadicRational(bound + past, 2 * n),
                            max_abs_coeff=DyadicRational(u + 1, n))
        assert tuple(family_cauchy_check(stats)) == (
            DyadicRational(bound + past, 2 * n), DyadicRational(bound, 2 * n), holds)


def _subset_analysis(n, w, s_mask, u, coeff, witnesses, distinct, num_covers):
    """A stub of what ``check_abs_fourier_u`` reads: width w, the profile of
    S (its family's u, and S's witnesses and distinct covers at u),
    num_covers(S, u), and a synthetic int32 spectrum with ``coeff`` units
    of 2^-n at S."""
    scaled = np.zeros(1 << n, np.int32)
    scaled[s_mask] = coeff
    return SimpleNamespace(spec=FourierSpectrum(n, scaled),
                           dnf=SimpleNamespace(n=n, width=lambda: w),
                           profiles={s_mask: SubsetProfile(u, witnesses, distinct)},
                           cover_counts={s_mask: {u: num_covers}}.__getitem__)


@pytest.mark.parametrize("link", ["coefficient", "distinct_covers", "num_covers"])
@pytest.mark.parametrize("n, w, s_mask, u, count", [
    (4, 2, 0b0101, 3, 1), (5, 1, 0b00111, 5, 2), (6, 3, 0b000010, 1, 3), (3, 2, 0, 0, 1),
    (5, 2, 0b11000, 4, 4)])
def test_check_abs_fourier_u_holds_at_each_link_and_fails_one_unit_past(link, n, w, s_mask,
                                                                        u, count):
    # the chain |fhat(S)| <= (wd+1) * prob, prob <= 2^-(u-d) * distinct
    # covers <= 2^-(u-d) * num_covers, with prob = witnesses * 2^-(n-d).
    # Each case puts one link at its bound, the others at theirs or inside,
    # and then moves that link one unit past: 2^-n on the coefficient, one
    # witness more than the distinct covers allow, one distinct cover more
    # than num_covers
    d = s_mask.bit_count()
    for past in (0, 1):
        if link == "coefficient":
            bound = (w * d + 1) * count << d
            cases = [(sign * (bound + past), count, count, count) for sign in (1, -1)]
        elif link == "distinct_covers":
            cases = [(0, (count << (n - u)) + past, count, 2 * count)]
        else:
            cases = [(0, count << (n - u), count + past, count)]
        for coeff, witnesses, distinct, num_covers in cases:
            r = check_abs_fourier_u(_subset_analysis(n, w, s_mask, u, coeff, witnesses,
                                                     distinct, num_covers), s_mask)
            prob = DyadicRational(witnesses, n - d)
            assert (r.lhs, r.bound, r.extras["prob"]) == (
                DyadicRational(abs(coeff), n), (w * d + 1) * prob, prob)
            assert (r.extras["distinct_covers"], r.extras["num_covers"]) == (distinct, num_covers)
            assert (r.extras["prob_le_distinct"], r.extras["prob_le_num_covers"]) == (
                link != "distinct_covers" or past == 0, link != "num_covers" or past == 0)
            assert r.holds == (past == 0)


def test_evasive_and_cover_probability_on_corpus(bundles):
    for b in bundles:
        covered = _covered(b.dnf)
        for s_mask in subsets_up_to(b.dnf.n, 4):
            _, _, holds = evasive_bound_check(
                b.tables.full_depth_count(s_mask), s_mask, b.spec)
            assert holds, (b.label, s_mask)
            _, _, holds = cover_probability_check(b.dnf, s_mask, b.spec, covered[s_mask])
            assert holds, (b.label, s_mask)


def oracle_union_superset_count(sat_union, s_mask):
    """The number of x with S inside U(x), by one pass over the table: the
    per-subset count that ``union_superset_counts`` replaced."""
    return int(np.count_nonzero((sat_union & s_mask) == s_mask))


def oracle_satisfied_union(dnf, x):
    """U(x), term by term."""
    union = 0
    for vars_mask, pos_mask in dnf.term_masks:
        if x & vars_mask == pos_mask:
            union |= vars_mask
    return union


def oracle_satisfied_union_table(dnf):
    """U(x) for every x at once, as uint32: each term ORs its mask into its
    subcube of the whole (2,)*n table, the build that the chunked one
    replaced."""
    union = np.zeros(1 << dnf.n, dtype=np.uint32)
    cube = union.reshape((2,) * dnf.n)
    for t in dnf.terms:
        cube[t.subcube(dnf.n)] |= np.uint32(t.vars_mask)
    return union


def _assert_superset_counts_match_oracle(dnf, chunk=restrictions.UNION_CHUNK):
    size = min(chunk, 1 << dnf.n)
    sat_union = oracle_satisfied_union_table(dnf)
    assert sat_union.tolist() == [oracle_satisfied_union(dnf, x) for x in range(1 << dnf.n)]
    chunks = [satisfied_union_table(dnf, lo, size) for lo in range(0, 1 << dnf.n, size)]
    assert all(c.dtype == np.uint32 and not c.flags.writeable for c in chunks)
    assert np.concatenate(chunks).tolist() == sat_union.tolist()
    # every mask, in an order that is not ascending: entry i is masks[i]'s
    masks = [m ^ ((1 << dnf.n) - 1) for m in range(1 << dnf.n)]
    counts = union_superset_counts(chunks, masks)
    assert counts.dtype == np.int64 and not counts.flags.writeable
    assert counts.tolist() == [oracle_union_superset_count(sat_union, s) for s in masks]


def test_union_superset_counts_match_the_per_subset_count_on_corpus(bundles):
    # every mask, not only |S| <= d_max
    for b in bundles:
        _assert_superset_counts_match_oracle(b.dnf)


@given(small_dnfs(), st.sampled_from([1, 2, 8]))
@settings(max_examples=50, deadline=None)
def test_union_superset_counts_match_the_per_subset_count_one_mask_per_block(dnf, chunk):
    # a block of one entry is one mask, against every value of U: the
    # counts do not depend on how the masks are split into blocks
    with mock.patch.object(restrictions, "SUPERSET_BLOCK", 1):
        _assert_superset_counts_match_oracle(dnf, chunk)


@given(small_dnfs())
@settings(max_examples=100, deadline=None)
def test_union_superset_counts_match_the_per_subset_count_on_random_dnfs(dnf):
    _assert_superset_counts_match_oracle(dnf)


@given(small_dnfs(), st.sampled_from([1, 2, 4, 8, 64]))
@settings(max_examples=50, deadline=None)
def test_union_superset_counts_match_the_per_subset_count_in_small_chunks(dnf, chunk):
    # U is made and its histogram counted chunk by chunk; with chunks this
    # small a term spans several of them, or fixes every bit of one, and a
    # value of U recurs in several
    _assert_superset_counts_match_oracle(dnf, chunk)


@given(small_dnfs(), st.sampled_from([1, 2, 8]))
@settings(max_examples=50, deadline=None)
def test_cover_probability_counts_u_one_chunk_at_a_time(dnf, chunk):
    # the verify's cover_probability group asks for U one UNION_CHUNK of x
    # at a time, ascending, and its superset counts are the oracle's
    from dnf_fourier import ExperimentConfig, experiments

    made, seen = [], []
    table, counts = experiments.satisfied_union_table, experiments.union_superset_counts

    def spy_table(dnf, lo, size):
        made.append((lo, size))
        return table(dnf, lo, size)

    def spy_counts(chunks, masks):
        seen.append((list(masks), counts(chunks, masks)))
        return seen[-1][1]

    d_max = min(dnf.n, 3)
    config = ExperimentConfig(instances=(), d_max=d_max, checks=("cover_probability",))
    with mock.patch.object(experiments, "UNION_CHUNK", chunk), \
            mock.patch.object(experiments, "satisfied_union_table", spy_table), \
            mock.patch.object(experiments, "union_superset_counts", spy_counts):
        experiments.verify_instance(dnf, "dnf", config, experiments.EntryWriter(
            io.StringIO(), "dnf", True))
    size = min(chunk, 1 << dnf.n)
    assert made == [(lo, size) for lo in range(0, 1 << dnf.n, size)]
    sat_union = oracle_satisfied_union_table(dnf)
    # the counts of the masks the checks read, |S| <= d_max, and no other
    masks = list(subsets_up_to(dnf.n, d_max))
    assert [(m, c.tolist()) for m, c in seen] == [
        (masks, [oracle_union_superset_count(sat_union, s) for s in masks])]


def test_onenorm_count_identity_small():
    # 1-norm at degree d against the full-depth pair count, full enumeration
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
            _, _, holds = evasive_bound_check(tables.full_depth_count(s_mask), s_mask, spec)
            assert holds
