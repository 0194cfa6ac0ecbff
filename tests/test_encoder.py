"""Encoder/decoder: golden traces, round trips, and the counting bound.

``oracle_encode`` is the encoder as it was before its lean core: each
round scans the terms from the first one, and each pair builds its
``Encoding`` and ``CoverRecord``.  ``oracle_round_loop`` is the lean core
as it was before an encoding was composed from its sub-pair's: every
round of the run in one loop, each scanning the terms from the previous
round's term; ``encode_row`` gives ``encode``'s result as the row that
``oracle_round_loop`` returns.  ``encode`` and the family analysis (both
encode through ``extract_cover``) are checked against both oracles, and
the composition itself against ``oracle_encode``.  ``oracle_decode`` is the
decoder as a scalar round loop on
one ``Encoding``: ``decode_records``, and ``decode`` (a one-row
``decode_records``), are checked against it, and the round trips of the
encoder use it, at a small fraction of ``decode``'s cost per call.
"""
import copy
import re
from array import array
from collections import Counter
from itertools import product
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dnf_fourier import (
    CoverRecord,
    FamilyAnalysis,
    DecodeError,
    Dnf,
    EncodePreconditionError,
    Encoding,
    EncodingInvariantError,
    EncodingRecord,
    RestrictionTables,
    decode,
    decode_records,
    encode,
    extract_cover,
    fourier_transform,
    random_read_k,
    tribes,
    valid_pairs,
)
from dnf_fourier.bitops import bit_indices
from dnf_fourier.covers import SubsetProfile
from dnf_fourier.encoder import (
    BITS_BEYOND_N, DECODE_ERRORS, NO_NEW_VARIABLE, NO_SATISFIED_TERM, SIGMA_NOT_1_BASED,
    SIGMA_NOT_DISTINCT, TRUTH_VALUES_BEYOND_D, CoverTable, SubsetRound, _ascending_bits,
    _lex_choices,
)
from dnf_fourier.experiments import RoundTrip

from conftest import encodings as record_encodings
from conftest import (
    CORPUS_D_MAX, analyze, analyze_with_table, corpus_instances, make_bundle, small_dnfs,
)


def _tables(dnf):
    return RestrictionTables(dnf.evaluate())


def _oracle_first_open_term(dnf, assigned, x):
    """Index (0-based), vars mask and pos mask of the first term alive under
    the partial assignment x on ``assigned``, scanning from the first term."""
    for idx, (vars_mask, pos_mask) in enumerate(dnf.term_masks):
        seen = vars_mask & assigned
        if x & seen != pos_mask & seen:
            continue  # falsified
        if seen == vars_mask:
            raise EncodingInvariantError(
                f"term {idx + 1} already satisfied while free variables remain"
            )
        return idx, vars_mask, pos_mask
    raise EncodingInvariantError("no alive term although the restriction has full depth")


def oracle_encode(dnf, s_mask, xsbar_bits, tables):
    """The encoder with an object per pair and a scan from the first term in
    every round: the oracle of ``encode`` and of a batched encoder."""
    n = dnf.n
    full = (1 << n) - 1
    if s_mask & ~full or xsbar_bits & ~full:
        raise ValueError(f"mask beyond n={n} variables")
    if xsbar_bits & s_mask:
        raise ValueError("fixed assignment overlaps the free set")
    d = s_mask.bit_count()
    if not tables.full_depth_at(s_mask, xsbar_bits):
        raise EncodePreconditionError(
            f"restriction lacks full decision-tree depth |S| = {d}"
        )

    w = dnf.width()
    s_prime = s_mask
    x_sat = xsbar_bits
    x_dt = xsbar_bits
    assigned = full ^ s_mask
    a: list[bool] = []
    c: list[int] = []  # 1-based variables, in discovery order
    in_c = 0  # mask of variables already in c
    cover: list[int] = []
    union_of_sj = 0

    while s_prime:
        # the remaining free set S' still needs full depth at x_dt: the
        # precondition's answer in round 1, the accepted lookup after it
        if x_dt & s_prime:
            raise EncodingInvariantError("depth invariant lost between rounds")
        idx, term_vars, term_pos = _oracle_first_open_term(dnf, assigned, x_dt)
        s_j = term_vars & s_prime
        if s_j == 0:
            raise EncodingInvariantError("alive term has no free variable")
        sat_bits = term_pos & s_j
        rest = s_prime ^ s_j
        dt_bits = next(
            (bits for bits, _ in _lex_choices(s_j)
             if tables.full_depth_at(rest, x_dt | bits)), None)
        if dt_bits is None:
            raise EncodingInvariantError("no depth-preserving assignment exists")

        x_sat = (x_sat & ~s_j) | sat_bits
        x_dt = (x_dt & ~s_j) | dt_bits
        assigned |= s_j
        s_prime = rest
        union_of_sj |= s_j
        for b in bit_indices(s_j):
            a.append(bool((dt_bits >> b) & 1))
        for b in bit_indices(term_vars):
            if not (in_c >> b) & 1:
                c.append(b + 1)
                in_c |= 1 << b
        if cover and idx + 1 <= cover[-1]:
            raise EncodingInvariantError("cover term indices not increasing")
        cover.append(idx + 1)

    # final correctness assertions on the run as a whole
    if union_of_sj != s_mask:
        raise EncodingInvariantError("selected free blocks do not reassemble S")
    if s_mask & ~in_c:
        raise EncodingInvariantError("variable string c misses part of S")
    if d > 0 and len(c) > w * d:
        raise EncodingInvariantError("variable string c longer than width * d")
    sigma = tuple(k + 1 for k, v in enumerate(c) if (s_mask >> (v - 1)) & 1)
    if len(sigma) != d or len(a) != d:
        raise EncodingInvariantError("sigma or a has wrong length")

    return (
        Encoding(n, x_sat, sigma, sum(v << t for t, v in enumerate(a))),
        CoverRecord(tuple(cover), len(c), in_c),
    )


#: One encoded pair as a row: (x_sat, sigma, a, cover term indices, union
#: size), where sigma lists the 1-based positions in c in ascending order,
#: a packs the truth values (bit t is the t-th), and the cover's 1-based
#: term indices strictly increase.
EncodedRow = tuple[int, list[int], int, tuple[int, ...], int]


def encode_row(dnf, s_mask, xsbar_bits, tables) -> EncodedRow:
    """``encode``'s encoding and cover as one ``EncodedRow``."""
    e, cov = encode(dnf, s_mask, xsbar_bits, tables)
    return e.x_sat, list(e.sigma), e.a, cov.term_indices, cov.union_size


def oracle_round_loop(dnf, s_mask, xsbar_bits, tables) -> EncodedRow:
    """``encode``'s result as an ``EncodedRow``, with its arguments and
    errors, from every round of the run in one loop: the oracle of the
    composed encoder."""
    n = dnf.n
    full = (1 << n) - 1
    if s_mask & ~full or xsbar_bits & ~full:
        raise ValueError(f"mask beyond n={n} variables")
    if xsbar_bits & s_mask:
        raise ValueError("fixed assignment overlaps the free set")
    d = s_mask.bit_count()
    if not tables.full_depth_at(s_mask, xsbar_bits):
        raise EncodePreconditionError(
            f"restriction lacks full decision-tree depth |S| = {d}"
        )

    term_masks = dnf.term_masks
    full_depth_entry = tables.full_depth_entry
    s_prime = s_mask
    x_sat = xsbar_bits
    x_dt = xsbar_bits
    a = 0  # truth values, bit t the t-th
    t = 0  # number of truth values so far
    sigma: list[int] = []  # positions in c of the variables of S
    len_c = 0  # c, the variables in discovery order, is kept as its length
    in_c = 0  # and the mask of its variables
    cover: list[int] = []
    union_of_sj = 0
    idx = 0

    while s_prime:
        # loop invariant: the remaining free set S' still needs full depth,
        # E_{S'}(x_dt).  Each question is asked once, so this is carried,
        # not looked up: in round 1 it is the precondition's answer (same S,
        # same x), and in a later round it is the lookup that accepted the
        # previous round's choice, E_{S'}(x_dt | bits) with x_dt as it was
        # before the round.  Both ask the same question as long as x_dt has
        # no bits on S' before a round assigns them (a lookup ignores the
        # bits on the free set), which is checked here.
        if x_dt & s_prime:
            raise EncodingInvariantError("depth invariant lost between rounds")
        assigned = full ^ s_prime
        # the first alive term, from the previous round's term on, that term
        # included: the terms before it are falsified (an assigned bit never
        # changes), and had the round's choice satisfied it, a scan starting
        # after it would not notice.  A satisfied term means the restriction
        # is decided, contradicting the full-depth invariant.
        for idx in range(idx, len(term_masks)):
            term_vars, term_pos = term_masks[idx]
            seen = term_vars & assigned
            if x_dt & seen != term_pos & seen:
                continue  # falsified
            if seen == term_vars:
                raise EncodingInvariantError(
                    f"term {idx + 1} already satisfied while free variables remain")
            break
        else:
            raise EncodingInvariantError("no alive term although the restriction has full depth")
        s_j = term_vars & s_prime
        if s_j == 0:
            raise EncodingInvariantError("alive term has no free variable")
        rest = s_prime ^ s_j
        if rest:
            # the lexicographically first assignment of the block that keeps
            # E_rest (its existence is part of the correctness claim)
            table, plan = full_depth_entry(rest)
            for dt_bits, values in _lex_choices(s_j):
                x = x_dt | dt_bits
                i = 0
                for shift, mask in plan:
                    i |= x >> shift & mask
                if table[i >> 3] >> (i & 7) & 1:
                    break
            else:
                raise EncodingInvariantError("no depth-preserving assignment exists")
        else:
            # E_{} is identically true, so the first candidate, every
            # variable false, keeps it: nothing is asked
            dt_bits = values = 0

        x_sat = (x_sat & ~s_j) | (term_pos & s_j)
        x_dt |= dt_bits
        s_prime = rest
        union_of_sj |= s_j
        a |= values << t
        t += s_j.bit_count()
        # the term's variables not yet in c enter it in ascending order;
        # those of S add their positions to sigma
        new = term_vars & ~in_c
        if new & s_mask:
            for b in _ascending_bits(new):
                len_c += 1
                if s_mask >> b & 1:
                    sigma.append(len_c)
        else:
            len_c += new.bit_count()
        in_c |= new
        if cover and idx + 1 <= cover[-1]:
            raise EncodingInvariantError("cover term indices not increasing")
        cover.append(idx + 1)

    # final correctness assertions on the run as a whole
    if union_of_sj != s_mask:
        raise EncodingInvariantError("selected free blocks do not reassemble S")
    if s_mask & ~in_c:
        raise EncodingInvariantError("variable string c misses part of S")
    if d > 0 and len_c > dnf.width() * d:
        raise EncodingInvariantError("variable string c longer than width * d")
    if len(sigma) != d or t != d:
        raise EncodingInvariantError("sigma or a has wrong length")
    if in_c.bit_count() != len_c:
        raise EncodingInvariantError("union mask and union size disagree")
    return x_sat, sigma, a, tuple(cover), len_c


#: The oracle's two checks that ``decode_records`` does not make: once the
#: sigma positions are distinct, which ``Encoding`` requires, neither fires.
NO_PROGRESS = "no progress after d rounds; not a valid encoding"
MORE_THAN_D = "recovered more than d variables"


def oracle_decode(dnf, e):
    """The decoder as a scalar round loop: recover (S mask, x_Sbar bits)
    from the ``Encoding`` e, or raise the DecodeError of the first check
    it fails.  The oracle of ``decode`` and ``decode_records``."""
    if e.n != dnf.n:
        raise DecodeError(f"encoding over n={e.n}, DNF over n={dnf.n}")
    if e.x_sat >> dnf.n:
        raise DecodeError(BITS_BEYOND_N)
    d = e.d
    x = e.x_sat
    s_mask = 0
    c: list[int] = []
    in_c = 0
    sigma = sorted(e.sigma)
    found = 0
    rounds = 0
    while found < d:
        rounds += 1
        if rounds > d:
            raise DecodeError(NO_PROGRESS)
        term_vars = next((v for v, p in dnf.term_masks if x & v == p), None)
        if term_vars is None:
            raise DecodeError(NO_SATISFIED_TERM)
        for b in bit_indices(term_vars):
            if not (in_c >> b) & 1:
                c.append(b + 1)
                in_c |= 1 << b
        s_j_vars = [
            c[k - 1]
            for k in sigma
            if k <= len(c) and not (s_mask >> (c[k - 1] - 1)) & 1
        ]
        if not s_j_vars:
            raise DecodeError(NO_NEW_VARIABLE)
        if found + len(s_j_vars) > d:
            raise DecodeError(MORE_THAN_D)
        for t, v in enumerate(s_j_vars):
            bit = 1 << (v - 1)
            x = (x | bit) if e.a >> (found + t) & 1 else (x & ~bit)
            s_mask |= bit
        found += len(s_j_vars)
    return s_mask, x & ~s_mask


def test_two_singletons_golden_trace():
    dnf = Dnf.from_term_literals(2, [[1], [2]])
    e, cov = encode(dnf, 0b11, 0, _tables(dnf))
    assert e.x_sat == 0b11
    assert e.sigma == (1, 2)
    assert e.a == 0
    assert cov == CoverRecord((1, 2), 2, 0b11)
    assert decode(dnf, e) == (0b11, 0)


def test_single_wide_term_golden_trace():
    w = 5
    dnf = Dnf.from_term_literals(w, [list(range(1, w + 1))])
    xsbar = 0b11110  # everything but x1 true
    e, cov = encode(dnf, 0b00001, xsbar, _tables(dnf))
    assert cov.term_indices == (1,) and cov.union_size == w
    assert e.sigma == (1,)  # x1 is the first variable listed in the term
    assert e.a == 0  # x1 false keeps the term undecided
    assert decode(dnf, e) == (0b00001, xsbar)


def test_disjoint_pairs_golden_trace():
    dnf = Dnf.from_term_literals(4, [[1, 2], [3, 4]])
    e, cov = encode(dnf, 0b0101, 0b1010, _tables(dnf))
    assert cov.term_indices == (1, 2) and cov.union_size == 4
    assert e.sigma == (1, 3)
    assert decode(dnf, e) == (0b0101, 0b1010)


def test_empty_set_encodes_trivially():
    dnf = Dnf.from_term_literals(2, [[1], [2]])
    e, cov = encode(dnf, 0, 0b10, _tables(dnf))
    assert e.sigma == () and e.a == 0
    assert cov.term_indices == () and cov.union_size == 0
    assert decode(dnf, e) == (0, 0b10)


def test_precondition_checked():
    dnf = Dnf.from_term_literals(2, [[1, 2]])
    with pytest.raises(EncodePreconditionError):
        encode(dnf, 0b01, 0b00, _tables(dnf))  # x2 false kills the restriction


def test_negated_literals_roundtrip():
    dnf = Dnf.from_term_literals(3, [[-1, 2], [3, -2]])
    tables = RestrictionTables(dnf.evaluate())
    seen = 0
    for s_mask, xsbar in valid_pairs(tables, 3):
        e, cov = encode(dnf, s_mask, xsbar, tables)
        assert decode(dnf, e) == oracle_decode(dnf, e) == (s_mask, xsbar)
        seen += 1
    assert seen > 0


def test_extract_cover_matches_encode():
    # the pass's per-pair call, with one round per subset: the cover's id
    # in the table that interned it, and the truth values; x_sat and sigma
    # are spelled from the cover
    dnf = Dnf.from_term_literals(4, [[1, 2], [3, 4]])
    tables = RestrictionTables(dnf.evaluate())
    covers, rounds = CoverTable(dnf), {}
    for s_mask, xsbar in valid_pairs(tables, 3):
        if not s_mask:
            continue
        r = rounds.setdefault(s_mask, SubsetRound(dnf, s_mask, tables, covers))
        cid, a = extract_cover(dnf, s_mask, xsbar, r)
        e, cov = encode(dnf, s_mask, xsbar, tables)
        assert (covers.terms(cid), covers.union[cid], a) == (cov.term_indices, cov.union_mask, e.a)
        sat, sigma = covers.spell(s_mask, cid)
        assert (xsbar | sat, tuple(sigma)) == (e.x_sat, e.sigma)


def _alive(term, assigned_mask, x):
    """Neither falsified nor satisfied by the partial assignment x on
    assigned_mask (values of x outside assigned_mask are ignored)."""
    seen = term.vars_mask & assigned_mask
    return x & seen == term.pos_mask & seen and seen != term.vars_mask


def test_cover_record_invariants_on_corpus(bundles):
    for b in bundles[:40]:
        w = b.dnf.width()
        for s_mask, xsbar in valid_pairs(b.tables, 3):
            e, cov = encode(b.dnf, s_mask, xsbar, b.tables)
            d = s_mask.bit_count()
            # the union contains S, uses at most d alive terms meeting S
            assert s_mask & ~cov.union_mask == 0
            assert len(cov.term_indices) <= d
            for j in cov.term_indices:
                term = b.dnf.terms[j - 1]
                assert term.vars_mask & s_mask
                assert _alive(term, ((1 << b.dnf.n) - 1) ^ s_mask, xsbar)
            # sigma stays within the union and the width bound
            assert cov.union_size <= w * d
            assert all(p <= cov.union_size for p in e.sigma)


class _YesTables:
    """Stub tables that answer every full-depth question yes, so each round
    accepts its first candidate: every variable of the block false.  A
    lookup entry is a one-byte table of ones with an empty compress plan,
    which maps every x to index 0."""

    def full_depth_at(self, free_mask, x):
        return True

    def full_depth_entry(self, free_mask):
        return memoryview(b"\xff"), ()


def test_a_choice_that_satisfies_the_selected_term_is_caught():
    # round 1 selects term 1 (not x1) and the stub accepts x1 false, which
    # satisfies it.  The sub-pair's round 1 (round 2 of the loop) meets
    # term 1 again, fully assigned and satisfied while x2 is free: a scan
    # that skipped it would go on to term 2 and encode without error.
    # (The cover-index check cannot fire here: a round assigns every free
    # variable of its term, so the term it selects is falsified or
    # satisfied afterwards, never alive.)
    dnf = Dnf.from_term_literals(2, [[-1], [2]])
    for encoder in (encode_row, oracle_round_loop, oracle_encode):
        with pytest.raises(EncodingInvariantError, match="^term 1 already satisfied"):
            encoder(dnf, 0b11, 0, _YesTables())


def _hold_one_pair(covers, free_masks, sub):
    """Hold in ``covers``, for each of ``free_masks``, one pair, at table
    index 0 (a one-byte table with bit 0 set), whose cover is ``sub``, as a
    pass holds the results of a subset below d_max."""
    for free_mask in free_masks:
        covers.hold(free_mask, np.ones(1, np.uint8), array("I", [sub]), None)


def test_a_held_sub_pair_whose_cover_starts_too_early_is_caught():
    # x1 false falsifies term 1, so round 1 of S = {x2, x3} selects term 2
    # (x2), and the sub-pair of {x3} is held with the cover (1,): its first
    # term does not come after term 2
    dnf = Dnf.from_term_literals(3, [[1], [2], [3]])
    covers = CoverTable(dnf)
    _hold_one_pair(covers, [0b100], covers.intern(0, 0))
    with pytest.raises(EncodingInvariantError, match="^cover term indices not increasing$"):
        extract_cover(dnf, 0b110, 0b000, SubsetRound(dnf, 0b110, _YesTables(), covers))


def test_the_union_is_checked_against_each_pair_not_each_cover():
    # both pairs select term 1 (x1) and a held sub-pair with the cover (2,)
    # (x2): one cover id, whose union {x1, x2} holds S = {x1, x2} but not
    # S = {x1, x3}
    dnf = Dnf.from_term_literals(3, [[1], [2], [3]])
    covers = CoverTable(dnf)
    _hold_one_pair(covers, [0b010, 0b100], covers.intern(1, 0))
    cid, _ = extract_cover(dnf, 0b011, 0, SubsetRound(dnf, 0b011, _YesTables(), covers))
    assert covers.terms(cid) == (1, 2)
    with pytest.raises(EncodingInvariantError, match="^variable string c misses part of S$"):
        extract_cover(dnf, 0b101, 0, SubsetRound(dnf, 0b101, _YesTables(), covers))
    assert len(covers.first) == 3   # the same cover id


class _RecordingTerms(tuple):
    """A DNF's term masks that record the index of every term read."""

    def __new__(cls, masks, reads):
        obj = super().__new__(cls, masks)
        obj.reads = reads
        return obj

    def __getitem__(self, idx):
        self.reads.append(idx)
        return super().__getitem__(idx)


def test_each_round_scans_from_the_previous_rounds_term(bundles):
    # round 1 reads the terms from the first one up to the one it selects,
    # every later round (round 1 of a sub-pair) from the term the round
    # before it selected, that term included, up to its own.  Then the
    # cover table reads each cover term once as it interns the cover,
    # innermost first, and once as it spells it.
    for b in bundles[::10]:
        reads = []
        dnf = copy.copy(b.dnf)
        object.__setattr__(dnf, "term_masks", _RecordingTerms(b.dnf.term_masks, reads))
        for s_mask, xsbar in valid_pairs(b.tables, 4):
            reads.clear()
            cover = encode_row(dnf, s_mask, xsbar, b.tables)[3]
            selected = [j - 1 for j in cover]
            starts = [0, *selected][:len(cover)]
            scans = [idx for start, end in zip(starts, selected) for idx in range(start, end + 1)]
            assert reads == scans + selected[::-1] + selected, (b.label, s_mask, xsbar)


def _record(n, d, rows):
    """The ``EncodingRecord`` of rows (x_sat, sigma, a), in its dtypes."""
    m = len(rows)
    return EncodingRecord(
        n, np.array([r[0] for r in rows], np.uint32),
        np.array([r[1] for r in rows], np.uint8).reshape(m, d),
        np.array([r[2] for r in rows], np.uint16))


@pytest.mark.parametrize("sigma, message", [([0, 2], SIGMA_NOT_1_BASED),
                                            ([1, 1], SIGMA_NOT_DISTINCT)])
def test_the_round_trip_names_the_pair_of_a_mis_spelled_row(monkeypatch, sigma, message):
    from dnf_fourier import fourier_transform

    # S = {x1, x3} has the pairs x = 0, with cover (2,), and x = 0b010, with
    # cover (1, 2), whose sigma is spelled wrong: the second pair is named
    dnf = Dnf.from_term_literals(3, [[1, 2], [-1, 3]])
    f = dnf.evaluate()
    tables = RestrictionTables(f)
    s_mask, xsbar = 0b101, 0b010
    assert [encode(dnf, s_mask, x, tables)[1].term_indices for x in (0, xsbar)] == [(2,), (1, 2)]
    spell = CoverTable.spell

    def corrupt_one_cover(self, s, cid):
        sat, spelled = spell(self, s, cid)
        return (sat, sigma) if (s, self.terms(cid)) == (s_mask, (1, 2)) else (sat, spelled)

    monkeypatch.setattr(CoverTable, "spell", corrupt_one_cover)
    # the record is made as spelled, and the analysis completes; the round
    # trip's decoder rejects the row and names its pair
    round_trip = RoundTrip(dnf)
    FamilyAnalysis(dnf, 2, tables, fourier_transform(f), round_trip)
    position = list(valid_pairs(RestrictionTables(f), 2)).index((s_mask, xsbar))
    assert round_trip.result() == (
        position, (s_mask, xsbar, f"DecodeError at S={s_mask}, x={xsbar}: {message}"))
    # with no consumer no record is made, so sigma is never spelled
    FamilyAnalysis(dnf, 2, RestrictionTables(f), fourier_transform(f))


def test_corrupted_sigma_raises_not_misdecodes():
    dnf = Dnf.from_term_literals(4, [[1, 2], [3, 4]])
    e, _ = encode(dnf, 0b0101, 0b1010, _tables(dnf))
    # point a sigma entry past any c the decoder can build
    bad = Encoding(e.n, e.x_sat, (1, 40), e.a)
    with pytest.raises(DecodeError):
        decode(dnf, bad)


def test_corrupted_x_without_satisfied_term_raises():
    dnf = Dnf.from_term_literals(2, [[1, 2]])
    e, _ = encode(dnf, 0b01, 0b10, _tables(dnf))
    bad = Encoding(e.n, 0b00, e.sigma, e.a)  # nothing satisfied
    with pytest.raises(DecodeError):
        decode(dnf, bad)


def test_truth_values_beyond_sigma_rejected():
    Encoding(2, 0, (1, 2), 0b11)
    with pytest.raises(ValueError, match=f"^{TRUTH_VALUES_BEYOND_D}$"):
        Encoding(2, 0, (1, 2), 0b100)
    with pytest.raises(ValueError, match=f"^{TRUTH_VALUES_BEYOND_D}$"):
        Encoding(2, 0, (1, 2), -1)


def test_from_dict_reads_what_to_dict_writes():
    e = Encoding(4, 0b1010, (3, 1), 0b10)
    assert e.to_dict() == {"x_sat": 0b1010, "sigma": [3, 1], "a": [0, 1]}
    assert Encoding.from_dict(4, e.to_dict()) == e
    with pytest.raises(ValueError, match="^1 truth values for 2 sigma positions$"):
        Encoding.from_dict(4, {"x_sat": 0, "sigma": [1, 2], "a": [1]})


#: The DNF whose ``decode_records`` the constructor is compared with.
_SHAPE_DNF = Dnf.from_term_literals(3, [[1], [-2, 3]])


@example((2, [-1, 2], 0))     # a negative position, not 0
@example((2, [1, 1], 0b100))  # truth values beyond d and repeated positions
@example((2, [0, 0], 0))      # a repeated position below 1
@given(st.integers(0, 5).flatmap(lambda d: st.tuples(
    st.just(d), st.lists(st.integers(-2, 6), min_size=d, max_size=d),
    st.integers(-1, (1 << (d + 1)) - 1))))
@settings(max_examples=100, deadline=None)
def test_the_constructor_rejects_what_a_record_rejects(row):
    # the same message, the first check failed, for every row: the code
    # that decode_records gives the row, if it is one of its checks before
    # the first round, in int64 (as decode reads a row) and in its record's
    # dtypes, which hold no negative value
    d, sigma, a = row
    try:
        Encoding(3, 0, tuple(sigma), a)
        expected = None
    except ValueError as exc:
        expected = str(exc)
    shape_checks = {TRUTH_VALUES_BEYOND_D, SIGMA_NOT_DISTINCT, SIGMA_NOT_1_BASED}

    def rejected(x_sat, sigma, a):
        code = decode_records(_SHAPE_DNF, d, x_sat, sigma, a)[2]
        return DECODE_ERRORS[code[0]] if DECODE_ERRORS[code[0]] in shape_checks else None

    assert expected == rejected(np.zeros(1, np.int64), np.array(sigma, np.int64).reshape(1, d),
                                np.array([a], np.int64))
    if min(sigma, default=0) >= 0 and a >= 0:
        record = _record(3, d, [(0, sigma, a)])
        assert rejected(record.x_sat, record.sigma, record.a) == expected


def test_roundtrip_identity_exhaustive_on_corpus(bundles):
    for b in bundles:
        for s_mask, xsbar in valid_pairs(b.tables, 4):
            e, _ = encode(b.dnf, s_mask, xsbar, b.tables)
            assert oracle_decode(b.dnf, e) == (s_mask, xsbar), (b.label, s_mask, xsbar)


@given(small_dnfs())
@settings(max_examples=60, deadline=None)
def test_roundtrip_on_random_dnfs(dnf):
    # duplicate terms, the empty term and negated literals all occur here
    tables = _tables(dnf)
    for s_mask, xsbar in valid_pairs(tables, 4):
        enc, _ = encode(dnf, s_mask, xsbar, tables)
        assert oracle_decode(dnf, enc) == (s_mask, xsbar), (s_mask, xsbar)


def test_counting_bound_on_corpus(bundles):
    # injectivity consequence: at degree d there are at most
    # 2^n * C(wd, d) * 2^d full-depth pairs
    for b in bundles:
        n, w = b.dnf.n, b.dnf.width()
        for d in range(4):
            pairs = sum(
                b.tables.full_depth_count(m)
                for m in range(1 << n)
                if m.bit_count() == d
            )
            assert pairs <= (comb(w * d, d) << (n + d)), (b.label, d)


def test_roundtrip_on_diverse_shapes():
    # wider and messier than the corpus: up to 8 terms of width up to 6,
    # occasional duplicate terms, subsets up to size 5
    from dnf_fourier.dnf import Dnf, Term
    from dnf_fourier.generators import SplitMix64

    rng = SplitMix64(424242)
    for _ in range(60):
        n = 4 + rng.below(5)  # 4..8
        terms = []
        for _ in range(rng.below(9)):
            width = 1 + rng.below(min(6, n))
            pool = list(range(1, n + 1))
            chosen = [pool.pop(rng.below(len(pool))) for _ in range(width)]
            pos = neg = 0
            for v in chosen:
                if rng.coin():
                    neg |= 1 << (v - 1)
                else:
                    pos |= 1 << (v - 1)
            terms.append(Term(pos, neg))
            if rng.below(8) == 0:
                terms.append(Term(pos, neg))
        dnf = Dnf(n, tuple(terms))
        tables = RestrictionTables(dnf.evaluate())
        for s_mask, xsbar in valid_pairs(tables, 5):
            enc, _ = encode(dnf, s_mask, xsbar, tables)
            assert oracle_decode(dnf, enc) == (s_mask, xsbar)


def test_encodings_distinct_within_degree(bundles):
    # the encoding triple is injective over pairs of the same degree
    for b in bundles[:30]:
        seen: dict[tuple, tuple] = {}
        for s_mask, xsbar in valid_pairs(b.tables, 3):
            e, _ = encode(b.dnf, s_mask, xsbar, b.tables)
            key = (e.x_sat, e.sigma, e.a)
            assert key not in seen, (b.label, seen[key], (s_mask, xsbar))
            seen[key] = (s_mask, xsbar)


def test_lex_candidates_match_the_product_order():
    # ascending variables, false before true: the first variable is the
    # slowest-changing digit, as in itertools.product; the truth values are
    # packed with bit t the value of the t-th variable
    for mask in range(1 << 8):
        bits = bit_indices(mask)
        if len(bits) > 5:
            continue
        expected = tuple(
            (sum(1 << b for b, value in zip(bits, values) if value),
             sum(value << t for t, value in enumerate(values)))
            for values in product((False, True), repeat=len(bits))
        )
        assert _lex_choices(mask) == expected, mask


def _expected_lookups(dnf, s_mask, e, cov, rounds=None):
    """1 for the precondition, then, in each round that leaves part of S
    free, the candidates tried up to the accepted one: its rank in the
    lexicographic order plus 1.  The round's free block is its cover term's
    variables still in S, and its truth values in a are the accepted
    candidate, first variable first.  The last round asks nothing and takes
    the first candidate, every variable false.  Only the first ``rounds``
    rounds count, if given."""
    total, rest, t = 1, s_mask, 0
    for j in cov.term_indices[:rounds]:
        s_j = dnf.terms[j - 1].vars_mask & rest
        rank = 0
        for value in range(t, t + s_j.bit_count()):
            rank = 2 * rank + (e.a >> value & 1)
        t += s_j.bit_count()
        rest ^= s_j
        if rest:
            total += rank + 1
        else:
            assert rank == 0, (s_mask, e)
    return total


class _RecordingByte(int):
    """A table byte that records the bit of it that is read."""

    def __new__(cls, value, record):
        obj = super().__new__(cls, value)
        obj.record = record
        return obj

    def __rshift__(self, bit):
        self.record(bit)
        return int(self) >> bit


class _RecordingTable:
    """A lookup entry's table that records each question read from it as
    (free set, table index)."""

    def __init__(self, table, free_mask, questions):
        self.table, self.free_mask, self.questions = table, free_mask, questions

    def __getitem__(self, byte):
        def record(bit):
            self.questions.append((self.free_mask, byte << 3 | bit))
        return _RecordingByte(self.table[byte], record)


def _record_questions(monkeypatch, questions):
    """Append to ``questions`` each question (free set, table index) put to
    any RestrictionTables, through the lookup entries that the encoder and
    ``full_depth_at`` read."""
    full_depth_entry = RestrictionTables.full_depth_entry

    def spy(self, free_mask):
        table, plan = full_depth_entry(self, free_mask)
        return _RecordingTable(table, free_mask, questions), plan

    monkeypatch.setattr(RestrictionTables, "full_depth_entry", spy)
    return questions


@pytest.fixture
def asked(monkeypatch):
    """The questions put to any RestrictionTables (see _record_questions)."""
    return _record_questions(monkeypatch, [])


def _record_batches(monkeypatch, batches):
    """Append to ``batches`` (free set, number of rows) for each batch of
    preconditions put to any RestrictionTables through
    ``full_depth_rows``."""
    full_depth_rows = RestrictionTables.full_depth_rows

    def spy(self, free_mask, xs):
        batches.append((free_mask, len(xs)))
        return full_depth_rows(self, free_mask, xs)

    monkeypatch.setattr(RestrictionTables, "full_depth_rows", spy)
    return batches


class _QuestionCount:
    """Counts the questions a ``_RecordingTable`` records, keeping none."""

    def __init__(self):
        self.total = 0

    def append(self, question):
        self.total += 1


def _record_groups(monkeypatch, groups):
    """Append to ``groups`` each per-term group that a ``SubsetRound``
    makes."""
    group = SubsetRound.group

    def spy(self, idx, term_vars):
        out = group(self, idx, term_vars)
        groups.append(out)
        return out

    monkeypatch.setattr(SubsetRound, "group", spy)
    return groups


@pytest.fixture(scope="module")
def readk16_pass():
    """The analysis of random_read_k(n=16, s=10, w=3, k=2, seed=3)
    (bench/instances/readk16.dnf) at d_max 4 with a consumer, as verify
    runs it: its DNF and tables, the lookups its pairs made, its batches
    of preconditions, each encoded pair as (S, x_Sbar, cover, union size,
    a), the records it handed over and the per-term groups its subsets'
    rounds made."""
    from dnf_fourier import covers, fourier_transform

    dnf = random_read_k(n=16, s=10, w=3, k=2, seed=3)
    f = dnf.evaluate()
    tables = RestrictionTables(f)
    count, batches, pairs, records, groups = _QuestionCount(), [], [], {}, []
    extract = covers.extract_cover

    def keep(dnf, s_mask, xsbar, r):
        cid, a = extract(dnf, s_mask, xsbar, r)
        pairs.append((s_mask, xsbar, r.covers.terms(cid), r.covers.union[cid].bit_count(), a))
        return cid, a

    with pytest.MonkeyPatch.context() as mp:
        _record_questions(mp, count)
        _record_batches(mp, batches)
        mp.setattr(covers, "extract_cover", keep)
        _record_groups(mp, groups)
        FamilyAnalysis(dnf, 4, tables, fourier_transform(f),
                       lambda s_mask, xsbars, record: records.__setitem__(s_mask, record))
    return dnf, tables, (count.total, batches), pairs, records, groups


def test_the_analysis_of_readk16_asks_231464_lookups_and_one_batch_per_subset(readk16_pass):
    # its 158,288 encodes try round 1's candidates, as _expected_lookups
    # restricted to round 1 counts them less the precondition (the test
    # below checks that count on the corpus): 231,464 lookups.  The
    # preconditions are asked in one batch per nonempty subset with a
    # pair, 793 of them, of all its pairs.  One question per pair for the
    # precondition and every round of the run, as the round loop asked
    # them, came to 578,404
    _, _, (lookups, batches), pairs, _, _ = readk16_pass
    assert (len(pairs), lookups) == (158_288, 231_464)
    subsets = Counter(s_mask for s_mask, *_ in pairs)
    assert sorted(batches) == sorted(subsets.items())
    assert len(batches) == 793


@pytest.mark.parametrize("d_max", [1, 3, 4])
def test_the_pass_holds_the_levels_below_d_max_until_it_ends(bundles, d_max):
    # the pass's cover table holds each nonempty S with a pair and
    # |S| < d_max, in pass order, and nothing else: a cover id per pair
    # (and no truth values, with no consumer) and E_S's rank index.  The
    # analysis keeps neither the cover table nor a table, so all of it
    # goes when the pass ends
    import gc
    import weakref

    from dnf_fourier.bitops import subsets_up_to

    for b in bundles[::20]:
        tables = RestrictionTables(b.f)
        analysis, covers = analyze_with_table(b.dnf, d_max, tables, b.spec)
        expected = [m for m in subsets_up_to(b.dnf.n, d_max - 1)
                    if m and tables.full_depth_count(m)]
        assert list(covers.held) == expected, b.label
        for s_mask, (words, prefix, ids, truth_values) in covers.held.items():
            assert (len(ids), truth_values) == (tables.full_depth_count(s_mask), None), b.label
            assert prefix[-1] + int(words[-1]).bit_count() == len(ids), b.label
        assert tables._by_sbar == {}, b.label
        ref = weakref.ref(covers)
        del covers
        gc.collect()
        assert ref() is None and analysis.d_max == min(d_max, b.dnf.n), b.label


def test_an_abandoned_pass_keeps_no_table(monkeypatch, bundles):
    # an encoder fault at the first pair of the top level with a pair ends
    # the analysis while tables are cached and the pass's cover table holds
    # results: the pass drops every table, no held array is reachable once
    # the fault is handled, and a new pass over the same tables gives the
    # same counts
    import gc
    import weakref

    from dnf_fourier import covers

    extract, held = covers.extract_cover, []

    def fault_at(top):
        def extract_or_fail(dnf, s_mask, xsbar, r):
            if s_mask.bit_count() == top:
                held.extend(weakref.ref(a) for entry in r.covers.held.values()
                            for a in entry if a is not None)
                raise EncodingInvariantError("injected")
            return extract(dnf, s_mask, xsbar, r)
        return extract_or_fail

    faults = 0
    for b in bundles[::10]:
        top = max(m.bit_count() for m in b.analysis.profiles)
        if top < 2:
            continue
        faults += 1
        held.clear()
        tables = RestrictionTables(b.f)
        with monkeypatch.context() as mp:
            mp.setattr(covers, "extract_cover", fault_at(top))
            with pytest.raises(EncodingInvariantError, match="injected$"):
                FamilyAnalysis(b.dnf, CORPUS_D_MAX, tables, b.spec)
        assert held, b.label   # the fault met held results
        assert tables._by_sbar == {}, b.label
        gc.collect()
        assert all(ref() is None for ref in held), b.label
        again, every_cover = analyze(b.dnf, CORPUS_D_MAX, tables, b.spec)
        assert (again.profiles, again._pairs, every_cover) == (
            b.analysis.profiles, b.analysis._pairs, b.covers), b.label
    assert faults > 5


@pytest.mark.parametrize("on_s, error, message", [
    (False, EncodePreconditionError, "restriction lacks full decision-tree depth |S| = 2"),
    (True, EncodingInvariantError, "depth invariant lost between rounds"),
], ids=["no-full-depth", "bits-on-S"])
def test_the_batch_checks_the_precondition_of_every_pair(monkeypatch, on_s, error, message):
    # S = {x1, x2} of tribes(2, 2) has several pairs; its last pair's
    # x_Sbar is replaced by one where E_S does not hold, or by itself with
    # the bits of S set: the analysis names that pair, not the first
    dnf = tribes(2, 2)
    f = dnf.evaluate()
    s_mask = 0b0011
    xsbars = RestrictionTables(f).full_depth_xsbars(s_mask).tolist()
    assert len(xsbars) > 1
    if on_s:
        wrong = xsbars[-1] | s_mask
    else:
        wrong = next(x for x in range(0, 16, 4) if x not in xsbars)
    full_depth_xsbars = RestrictionTables.full_depth_xsbars

    def last_one_wrong(self, free_mask):
        out = full_depth_xsbars(self, free_mask)
        return np.append(out[:-1], np.uint32(wrong)) if free_mask == s_mask else out

    monkeypatch.setattr(RestrictionTables, "full_depth_xsbars", last_one_wrong)
    with pytest.raises(error, match=f"^at S={s_mask}, x={wrong}: {re.escape(message)}$"):
        FamilyAnalysis(dnf, 2, RestrictionTables(f), fourier_transform(f))


def test_no_table_outlives_the_pass(monkeypatch, bundles):
    # once the analysis's pass ends, nothing it keeps, no subset's round
    # among it, holds a table: each one the pass built is gone
    import gc
    import weakref

    refs, by_sbar = [], RestrictionTables.dt_by_sbar

    def dt_by_sbar(self, free_mask):
        table = by_sbar(self, free_mask)
        refs.append(weakref.ref(table))
        return table

    monkeypatch.setattr(RestrictionTables, "dt_by_sbar", dt_by_sbar)
    for b in bundles[::10]:
        refs.clear()
        analysis = FamilyAnalysis(b.dnf, b.analysis.d_max, RestrictionTables(b.f), b.spec)
        gc.collect()
        assert refs and all(ref() is None for ref in refs), b.label
        assert analysis.profiles == b.analysis.profiles


def test_encode_during_a_pass_reads_nothing_the_pass_holds():
    # a consumer of a running analysis encodes up to 50 pairs of each
    # subset it receives on the pass's own tables, while the pass's cover
    # table holds the levels below d_max: encode's cover table is its own
    # and holds nothing, so each result is the one fresh tables give
    dnf = random_read_k(n=12, s=8, w=3, k=2, seed=3)
    f = dnf.evaluate()
    tables = RestrictionTables(f)
    during = []

    def consumer(s_mask, xsbars, record):
        for xsbar in xsbars[:50].tolist():
            during.append((s_mask, xsbar, encode(dnf, s_mask, xsbar, tables)))

    FamilyAnalysis(dnf, 4, tables, fourier_transform(f), consumer)
    assert (len({s for s, _, _ in during}), len(during)) == (775, 12_310)
    fresh = RestrictionTables(f)
    for s_mask, xsbar, result in during:
        assert result == encode(dnf, s_mask, xsbar, fresh), (s_mask, xsbar)


def test_the_analysis_asks_one_round_per_pair_on_corpus(monkeypatch, bundles):
    # round 1's lookups per pair, and each pair's precondition once, in
    # its subset's batch
    count = _record_questions(monkeypatch, _QuestionCount())
    batches = _record_batches(monkeypatch, [])
    for b in bundles[::4]:
        pairs = [(s, x) for s, x in valid_pairs(b.tables, b.analysis.d_max) if s]
        expected = sum(_expected_lookups(b.dnf, s, *oracle_encode(b.dnf, s, x, b.tables), 1) - 1
                       for s, x in pairs)
        count.total = 0
        batches.clear()
        FamilyAnalysis(b.dnf, b.analysis.d_max, RestrictionTables(b.f), b.spec)
        assert count.total == expected, b.label
        assert sorted(batches) == sorted(Counter(s for s, _ in pairs).items()), b.label


def test_every_group_of_a_pass_reads_held_results(readk16_pass, monkeypatch, bundles):
    # in a pass every sub-pair's result is held when its pair is encoded,
    # so no group makes a round for the sub-pair: the encoder's recursion
    # is off the pass's path
    def assert_held(groups, label):
        for s_1, rest, *_, words, prefix, ids, truth_values, sub_round in groups:
            assert sub_round is None, (label, s_1, rest)
            assert rest == 0 or words is not None, (label, s_1, rest)

    assert len(readk16_pass[5]) > 1000
    assert_held(readk16_pass[5], "readk16")
    groups, made = _record_groups(monkeypatch, []), 0
    for b in bundles[::4]:
        groups.clear()
        FamilyAnalysis(b.dnf, b.analysis.d_max, RestrictionTables(b.f), b.spec)
        assert_held(groups, b.label)
        made += len(groups)
    assert made > 100


def test_the_analysis_of_readk16_matches_the_round_loop(readk16_pass):
    # every pair's cover, union size and truth values, and its record row,
    # are the round loop's, bit for bit
    dnf, tables, _, pairs, records, _ = readk16_pass
    rows = {s_mask: zip(record.x_sat.tolist(), record.sigma.tolist())
            for s_mask, record in records.items()}
    for s_mask, xsbar, cover, union_size, a in pairs:
        x_sat, sigma = next(rows[s_mask])
        assert (x_sat, sigma, a, cover, union_size) == oracle_round_loop(
            dnf, s_mask, xsbar, tables), (s_mask, xsbar)
    assert all(next(left, None) is None for s_mask, left in rows.items() if s_mask)


@given(small_dnfs(), st.data())
@settings(max_examples=60, deadline=None)
def test_a_run_is_its_first_round_and_the_sub_pairs_run(dnf, data):
    # round 1 of (S, x) takes the first alive term T from term 0 and the
    # lexicographically first b on S_1 = T & S that keeps E_rest, rest =
    # S - S_1; the oracle's run on (S, x) is that round followed by its
    # run on (rest, x | b), field by field
    tables = _tables(dnf)
    pairs = [pair for pair in valid_pairs(tables, 4) if pair[0]]
    if not pairs:
        return
    for s_mask, xsbar in data.draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=8)):
        e, cov = oracle_encode(dnf, s_mask, xsbar, tables)
        term = next(j for j, t in enumerate(dnf.terms, 1)
                    if _alive(t, ((1 << dnf.n) - 1) ^ s_mask, xsbar))
        term_vars, term_pos = dnf.term_masks[term - 1]
        s_1 = term_vars & s_mask
        rest = s_mask ^ s_1
        bits, values = next((bits, values) for bits, values in _lex_choices(s_1)
                            if tables.full_depth_at(rest, xsbar | bits))
        sub_e, sub_cov = oracle_encode(dnf, rest, xsbar | bits, tables)
        assert cov.term_indices == (term, *sub_cov.term_indices)
        assert cov.union_mask == term_vars | sub_cov.union_mask
        assert e.x_sat == sub_e.x_sat & ~s_1 | term_pos & s_1
        assert e.a == values | sub_e.a << s_1.bit_count()
        # and sigma is a function of S and the cover alone
        table, cid = CoverTable(dnf), 0
        for j in reversed(cov.term_indices):
            cid = table.intern(j - 1, cid)
        assert e.sigma == tuple(table.spell(s_mask, cid)[1])


def _assert_each_question_asked_once(asked, dnf, tables, d_max):
    """Every encode of valid_pairs makes exactly the expected lookups, and
    no two of them ask the same question."""
    for s_mask, xsbar in valid_pairs(tables, d_max):
        asked.clear()
        e, cov = encode(dnf, s_mask, xsbar, tables)
        assert len(asked) == _expected_lookups(dnf, s_mask, e, cov), (s_mask, xsbar)
        assert len(set(asked)) == len(asked), (s_mask, xsbar, asked)


def test_encode_asks_each_question_once_on_tribes(asked):
    dnf = tribes(2, 3)
    _assert_each_question_asked_once(asked, dnf, _tables(dnf), dnf.n)


def test_encode_asks_each_question_once_on_corpus(asked, bundles):
    for b in bundles:
        _assert_each_question_asked_once(asked, b.dnf, b.tables, b.analysis.d_max)


def _assert_record_matches_scalar_encoder(b):
    """The records bundle ``b``'s analysis handed its consumer, each
    subset's profile (its most frequent union size u, ties to the smallest,
    and its witnesses and distinct covers at u) and the set of every
    distinct cover of its pass's ``CoverTable`` equal the oracle encoder's
    on every pair of valid_pairs, entry by entry, and the record decodes
    back to that sequence.  That includes S = {}, whose record the
    analysis writes without encoding: x_sat is every assignment, with
    empty sigma and a.  Per pair, ``encode``'s objects, and the rows of ``encode_row``
    and of the round loop, equal the oracle's too."""
    dnf, tables, analysis, records = b.dnf, b.tables, b.analysis, b.records
    by_subset: dict[int, list[tuple[int, int]]] = {}
    for s_mask, xsbar in valid_pairs(tables, analysis.d_max):
        by_subset.setdefault(s_mask, []).append((s_mask, xsbar))
    assert set(analysis.profiles) == set(by_subset) == set(records)
    every_cover = set()
    for s_mask, pairs in by_subset.items():
        profile = analysis.profiles[s_mask]
        xsbars, record = records[s_mask]
        assert (record.x_sat.dtype, record.sigma.dtype, record.a.dtype) == (
            np.uint32, np.uint8, np.uint16)
        assert record.sigma.shape == (len(pairs), s_mask.bit_count())
        # the pairs' fixed-side assignments, computed once, as n-bit masks
        assert xsbars.dtype == np.uint32 and not xsbars.flags.writeable
        assert xsbars.tolist() == [x for _, x in pairs]
        if s_mask == 0:   # the masks are the indices, and the record shares them
            assert record.x_sat is xsbars
            # all zero, as one read-only zero broadcast: no buffer of 2^n entries
            assert record.a.strides == (0,) and not record.a.flags.writeable
            assert not record.a.flags.owndata
        oracle = [oracle_encode(dnf, s, x, tables) for s, x in pairs]
        encodings = [e for e, _ in oracle]
        assert record.x_sat.tolist() == [e.x_sat for e in encodings]
        assert record.sigma.tolist() == [list(e.sigma) for e in encodings]
        assert record.a.tolist() == [e.a for e in encodings]
        assert list(record_encodings(record)) == encodings
        assert [oracle_decode(dnf, e) for e in encodings] == pairs
        count_by_u: dict[int, int] = {}
        covers_by_u: dict[int, set] = {}
        for _, cov in oracle:
            count_by_u[cov.union_size] = count_by_u.get(cov.union_size, 0) + 1
            covers_by_u.setdefault(cov.union_size, set()).add(cov.term_indices)
        u = min(u for u, cnt in count_by_u.items() if cnt == max(count_by_u.values()))
        assert profile == SubsetProfile(u, count_by_u[u], len(covers_by_u[u])), s_mask
        every_cover.update(*covers_by_u.values())
        for (s, x), (e, cov) in zip(pairs, oracle):
            assert encode(dnf, s, x, tables) == (e, cov)
            assert encode_row(dnf, s, x, tables) == oracle_round_loop(dnf, s, x, tables) == (
                e.x_sat, list(e.sigma), e.a, cov.term_indices, cov.union_size)
    assert b.covers == every_cover


def test_analysis_record_matches_scalar_encoder_on_corpus(bundles):
    for b in bundles:
        _assert_record_matches_scalar_encoder(b)


@given(small_dnfs(), st.integers(0, 4))
@settings(max_examples=60, deadline=None)
def test_analysis_record_matches_scalar_encoder_on_random_dnfs(dnf, d_max):
    _assert_record_matches_scalar_encoder(make_bundle("random", dnf, d_max))


def _degree_records(b):
    """The encodings of every full-depth pair, as one record per degree:
    the analysis's records, and for S = {} the scalar encoder's."""
    n = b.dnf.n
    out = {0: _record(n, 0, [encode_row(b.dnf, 0, x, b.tables) for x in range(1 << n)])}
    for d in range(1, b.analysis.d_max + 1):
        records = [r for s_mask, (_, r) in sorted(b.records.items()) if s_mask.bit_count() == d]
        if records:
            out[d] = EncodingRecord(n, *(np.concatenate(col) for col in zip(
                *((r.x_sat, r.sigma, r.a) for r in records))))
    return out


def _assert_batched_decode_matches_scalar(b):
    for d, record in _degree_records(b).items():
        s_mask, xsbar, code = decode_records(b.dnf, d, record.x_sat, record.sigma, record.a)
        assert not code.any(), (b.label, d)
        assert (s_mask.dtype, xsbar.dtype) == (np.uint32, np.uint32)
        assert list(zip(s_mask.tolist(), xsbar.tolist())) == [
            oracle_decode(b.dnf, e) for e in record_encodings(record)], (b.label, d)


def test_decode_records_matches_scalar_decode_on_corpus(bundles):
    for b in bundles:
        _assert_batched_decode_matches_scalar(b)


@given(small_dnfs(), st.integers(0, 4))
@settings(max_examples=60, deadline=None)
def test_decode_records_matches_scalar_decode_on_random_dnfs(dnf, d_max):
    _assert_batched_decode_matches_scalar(make_bundle("random", dnf, d_max))


def _scalar_path(dnf, x_sat, sigma, a):
    """One row through the scalar path: build the ``Encoding``, then
    ``oracle_decode``; the decoded pair or the error's message."""
    try:
        return oracle_decode(dnf, Encoding(dnf.n, x_sat, tuple(sigma), a))
    except ValueError as exc:  # DecodeError, or a row the constructor rejects
        return str(exc)


def test_decode_records_matches_scalar_path_on_corrupted_rows(bundles):
    # every row is corrupted in one or two fields, or left alone; each row's
    # outcome, a pair or the first error met, must be the scalar path's
    rng = np.random.default_rng(8)
    outcomes = set()
    for b in bundles[::3]:
        n = b.dnf.n
        for d, record in _degree_records(b).items():
            m = len(record)
            x_sat, sigma, a = record.x_sat.copy(), record.sigma.copy(), record.a.copy()
            kind = rng.integers(0, 5, m)
            x_rows, s_rows = np.isin(kind, (0, 3)), np.isin(kind, (1, 3))
            x_sat[x_rows] = rng.integers(0, 1 << (n + 1), x_rows.sum())
            sigma[s_rows] = rng.integers(0, n + 2, (s_rows.sum(), d))
            a[kind == 2] = rng.integers(0, 1 << (d + 1), (kind == 2).sum())
            s_mask, xsbar, code = decode_records(b.dnf, d, x_sat, sigma, a)
            for i in range(m):
                got = DECODE_ERRORS[code[i]] if code[i] else (int(s_mask[i]), int(xsbar[i]))
                assert got == _scalar_path(b.dnf, int(x_sat[i]), sigma[i].tolist(),
                                           int(a[i])), (b.label, d, i)
                outcomes.add(got if code[i] else "pair")
    # the corpus reaches every error
    assert outcomes == set(DECODE_ERRORS[1:]) | {"pair"}


def test_decode_records_rejects_a_record_of_mismatched_shape():
    dnf = Dnf.from_term_literals(2, [[1], [2]])
    x_sat, a = np.zeros(2, np.uint32), np.zeros(2, np.uint16)
    with pytest.raises(DecodeError):
        decode_records(dnf, 2, x_sat, np.ones((2, 1), np.uint8), a)
    with pytest.raises(DecodeError):
        decode_records(dnf, 1, x_sat, np.ones((2, 1), np.uint8), a[:1])


_CORPUS_DNFS = [dnf for _, dnf in corpus_instances()]


@st.composite
def _dnf_and_encoding(draw):
    """A small DNF (random, or of the corpus) and an ``Encoding`` that the
    constructor accepts: the encoding of one of its full-depth pairs with
    |S| <= 3, each field kept or redrawn, or every field drawn.  Drawn fields reach
    d beyond n, positions beyond n (up to 2^62), x_sat negative or at
    least 2^32, and now and then an n that is not the DNF's."""
    dnf = draw(st.one_of(small_dnfs(), st.sampled_from(_CORPUS_DNFS)))
    n = dnf.n
    tables = _tables(dnf)
    pairs = list(valid_pairs(tables, 3))
    e = encode(dnf, *draw(st.sampled_from(pairs)), tables)[0] if pairs else None
    keep = draw(st.sets(st.sampled_from(["x_sat", "sigma", "a"]))) if e else set()
    x_sat = e.x_sat if "x_sat" in keep else draw(st.one_of(
        st.integers(-2, (1 << (n + 1)) - 1), st.integers(1 << 32, 1 << 70)))
    if "sigma" in keep:
        sigma = e.sigma
    else:
        d = draw(st.integers(0, n + 3))
        positions = st.one_of(st.integers(1, n + 2), st.integers(1, 1 << 62))
        sigma = tuple(draw(st.lists(positions, min_size=d, max_size=d, unique=True)))
    a = e.a if "a" in keep and "sigma" in keep else draw(st.integers(0, (1 << len(sigma)) - 1))
    return dnf, Encoding(n + draw(st.sampled_from([0] * 9 + [1])), x_sat, sigma, a)


def _outcome(decoder, dnf, e):
    try:
        return decoder(dnf, e)
    except DecodeError as exc:
        return str(exc)


@example((Dnf.from_term_literals(2, [[1], [2]]), Encoding(2, 1 << 70, (1,), 0)))
@example((Dnf.from_term_literals(2, [[1], [2]]), Encoding(2, 0b01, (1 << 62,), 0)))
@given(_dnf_and_encoding())
@settings(max_examples=150, deadline=None)
def test_decode_matches_the_oracle_on_every_encoding(case):
    dnf, e = case
    assert _outcome(decode, dnf, e) == _outcome(oracle_decode, dnf, e)
