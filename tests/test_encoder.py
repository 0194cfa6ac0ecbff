"""Encoder/decoder: golden traces, round trips, and the counting bound."""
from itertools import product
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dnf_fourier import (
    CoverRecord,
    DecodeError,
    Dnf,
    EncodePreconditionError,
    Encoding,
    EncodingRecord,
    RestrictionTables,
    decode,
    decode_records,
    encode,
    extract_cover,
    tribes,
    valid_pairs,
)
from dnf_fourier.bitops import bit_indices
from dnf_fourier.encoder import (
    DECODE_ERRORS, MORE_THAN_D, NO_PROGRESS, TRUTH_VALUES_BEYOND_D, _lex_candidates,
)

from conftest import make_bundle, small_dnfs


def _tables(dnf):
    return RestrictionTables(dnf.evaluate())


def test_two_singletons_golden_trace():
    dnf = Dnf.from_term_literals(2, [[1], [2]])
    e, cov = encode(dnf, 0b11, 0, _tables(dnf))
    assert e.x_sat == 0b11
    assert e.sigma == (1, 2)
    assert e.a == (False, False)
    assert cov == CoverRecord((1, 2), 2, 0b11)
    assert decode(dnf, e) == (0b11, 0)


def test_single_wide_term_golden_trace():
    w = 5
    dnf = Dnf.from_term_literals(w, [list(range(1, w + 1))])
    xsbar = 0b11110  # everything but x1 true
    e, cov = encode(dnf, 0b00001, xsbar, _tables(dnf))
    assert cov.term_indices == (1,) and cov.union_size == w
    assert e.sigma == (1,)  # x1 is the first variable listed in the term
    assert len(e.a) == 1
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
    assert e.sigma == () and e.a == ()
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
        assert decode(dnf, e) == (s_mask, xsbar)
        seen += 1
    assert seen > 0


def test_extract_cover_matches_encode():
    dnf = Dnf.from_term_literals(4, [[1, 2], [3, 4]])
    tables = RestrictionTables(dnf.evaluate())
    for s_mask, xsbar in valid_pairs(tables, 3):
        assert extract_cover(dnf, s_mask, xsbar, tables) == encode(
            dnf, s_mask, xsbar, tables
        )


def test_cover_record_invariants_on_corpus(bundles):
    for b in bundles[:40]:
        w = b.dnf.width()
        for s_mask, xsbar in valid_pairs(b.tables, 3):
            e, cov = encode(b.dnf, s_mask, xsbar, b.tables)
            d = s_mask.bit_count()
            # the union contains S, uses at most d alive terms meeting S
            assert s_mask & ~cov.union_mask == 0
            assert len(cov.term_indices) <= d
            from dnf_fourier.dnf import ALIVE

            for j in cov.term_indices:
                term = b.dnf.terms[j - 1]
                assert term.vars_mask & s_mask
                assert term.status(((1 << b.dnf.n) - 1) ^ s_mask, xsbar) == ALIVE
            # sigma stays within the union and the width bound
            assert cov.union_size <= w * d
            assert all(p <= cov.union_size for p in e.sigma)


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


def test_sigma_a_length_mismatch_rejected():
    with pytest.raises(ValueError):
        Encoding(2, 0, (1, 2), (True,))


def test_roundtrip_identity_exhaustive_on_corpus(bundles):
    for b in bundles:
        for s_mask, xsbar in valid_pairs(b.tables, 4):
            e, _ = encode(b.dnf, s_mask, xsbar, b.tables)
            assert decode(b.dnf, e) == (s_mask, xsbar), (b.label, s_mask, xsbar)


@given(small_dnfs())
@settings(max_examples=60, deadline=None)
def test_roundtrip_on_random_dnfs(dnf):
    # duplicate terms, the empty term and negated literals all occur here
    tables = _tables(dnf)
    for s_mask, xsbar in valid_pairs(tables, 4):
        enc, _ = encode(dnf, s_mask, xsbar, tables)
        assert decode(dnf, enc) == (s_mask, xsbar), (s_mask, xsbar)


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
            assert decode(dnf, enc) == (s_mask, xsbar)


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
    # slowest-changing digit, as in itertools.product
    for mask in range(1 << 8):
        bits = bit_indices(mask)
        if len(bits) > 5:
            continue
        expected = tuple(
            sum(1 << b for b, value in zip(bits, values) if value)
            for values in product((False, True), repeat=len(bits))
        )
        assert _lex_candidates(mask) == expected, mask


def _expected_lookups(dnf, s_mask, e, cov):
    """1 for the precondition, then, in each round, the candidates tried up
    to the accepted one: its rank in the lexicographic order plus 1.  The
    round's free block is its cover term's variables still in S, and its
    truth values in a are the accepted candidate, first variable first."""
    total, rest, t = 1, s_mask, 0
    for j in cov.term_indices:
        s_j = dnf.terms[j - 1].vars_mask & rest
        rank = 0
        for value in e.a[t:t + s_j.bit_count()]:
            rank = 2 * rank + value
        total += rank + 1
        t += s_j.bit_count()
        rest ^= s_j
    return total


@pytest.fixture
def asked(monkeypatch):
    """The questions (free set, bits off it) put to any RestrictionTables."""
    questions: list[tuple[int, int]] = []
    full_depth_at = RestrictionTables.full_depth_at

    def spy(self, free_mask, x):
        questions.append((free_mask, x & ~free_mask))
        return full_depth_at(self, free_mask, x)

    monkeypatch.setattr(RestrictionTables, "full_depth_at", spy)
    return questions


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


def _assert_record_matches_scalar_encoder(dnf, tables, analysis):
    """The analysis's record equals the scalar encoder on every pair of
    valid_pairs, entry by entry, and decodes back to that sequence.  That
    includes S = {}, whose record the analysis writes without encoding:
    x_sat is every assignment, with empty sigma and a."""
    by_subset: dict[int, list[tuple[int, int]]] = {}
    for s_mask, xsbar in valid_pairs(tables, analysis.d_max):
        by_subset.setdefault(s_mask, []).append((s_mask, xsbar))
    assert set(analysis.profiles) == set(by_subset)
    for s_mask, pairs in by_subset.items():
        record = analysis.profiles[s_mask].record
        assert (record.x_sat.dtype, record.sigma.dtype, record.a.dtype) == (
            np.uint32, np.uint8, np.uint16)
        assert record.sigma.shape == (len(pairs), s_mask.bit_count())
        encodings = [encode(dnf, s, x, tables)[0] for s, x in pairs]
        assert record.x_sat.tolist() == [e.x_sat for e in encodings]
        assert record.sigma.tolist() == [list(e.sigma) for e in encodings]
        assert record.a.tolist() == [
            sum(v << t for t, v in enumerate(e.a)) for e in encodings
        ]
        assert list(record.encodings()) == encodings
        assert [decode(dnf, e) for e in record.encodings()] == pairs


def test_analysis_record_matches_scalar_encoder_on_corpus(bundles):
    for b in bundles:
        _assert_record_matches_scalar_encoder(b.dnf, b.tables, b.analysis)


@given(small_dnfs(), st.integers(0, 4))
@settings(max_examples=60, deadline=None)
def test_analysis_record_matches_scalar_encoder_on_random_dnfs(dnf, d_max):
    b = make_bundle("random", dnf, d_max)
    _assert_record_matches_scalar_encoder(b.dnf, b.tables, b.analysis)


def _degree_records(b):
    """The encodings of every full-depth pair, as one record per degree:
    the analysis's records, and for S = {} the scalar encoder's."""
    n = b.dnf.n
    out = {0: EncodingRecord.pack(n, 0, [
        encode(b.dnf, 0, x, b.tables)[0] for x in range(1 << n)])}
    for d in range(1, b.analysis.d_max + 1):
        records = [p.record for _, p in sorted(b.analysis.profiles.items()) if p.d == d]
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
            decode(b.dnf, e) for e in record.encodings()], (b.label, d)


def test_decode_records_matches_scalar_decode_on_corpus(bundles):
    for b in bundles:
        _assert_batched_decode_matches_scalar(b)


@given(small_dnfs(), st.integers(0, 4))
@settings(max_examples=60, deadline=None)
def test_decode_records_matches_scalar_decode_on_random_dnfs(dnf, d_max):
    _assert_batched_decode_matches_scalar(make_bundle("random", dnf, d_max))


def _scalar_path(dnf, d, x_sat, sigma, a):
    """One row through the scalar path: unpack the truth values, build the
    ``Encoding``, ``decode``; the decoded pair or the error's message."""
    if a >> d:
        return TRUTH_VALUES_BEYOND_D  # the record's unpacking has no entry
    try:
        return decode(dnf, Encoding(dnf.n, x_sat, tuple(sigma),
                                    tuple(bool(a >> t & 1) for t in range(d))))
    except ValueError as exc:  # DecodeError, or a rejected sigma
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
                assert got == _scalar_path(b.dnf, d, int(x_sat[i]), sigma[i].tolist(),
                                           int(a[i])), (b.label, d, i)
                outcomes.add(got if code[i] else "pair")
    # the corpus reaches every error except the two that distinct sigma
    # positions rule out
    assert outcomes == set(DECODE_ERRORS[1:]) - {NO_PROGRESS, MORE_THAN_D} | {"pair"}


def test_decode_records_rejects_a_record_of_mismatched_shape():
    dnf = Dnf.from_term_literals(2, [[1], [2]])
    x_sat, a = np.zeros(2, np.uint32), np.zeros(2, np.uint16)
    with pytest.raises(DecodeError):
        decode_records(dnf, 2, x_sat, np.ones((2, 1), np.uint8), a)
    with pytest.raises(DecodeError):
        decode_records(dnf, 1, x_sat, np.ones((2, 1), np.uint8), a[:1])
