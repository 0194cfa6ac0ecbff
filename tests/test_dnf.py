"""DNF model: evaluation, metrics, truncation, serialization.

Two oracles check ``Dnf.evaluate``, which ORs each term's 8-bit pattern
into its subcube of the packed table.  The compare oracle tests every
assignment against each term's masks, over a flat index array; the
bool-tensor oracle sets each term's subcube of the unpacked (2,)*n table,
one byte per entry, and packs it.  Both must agree with it bit for bit."""
import json
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dnf_fourier import (
    BooleanFunction,
    ContradictoryTermError,
    Dnf,
    DyadicRational,
    ParseError,
    Term,
    hamming_distance_fraction,
    random_read_k,
)
from dnf_fourier.generators import SplitMix64

from conftest import bits_of, small_dnfs, table_of


def oracle_evaluate(dnf: Dnf) -> BooleanFunction:
    """Entry x is 1 iff (x & vars) == pos for some term, by whole-array
    compares."""
    x = np.arange(1 << dnf.n, dtype=np.uint32)
    table = np.zeros(1 << dnf.n, dtype=bool)
    for t in dnf.terms:
        keys = x & np.uint32(t.vars_mask)
        table |= keys == np.uint32(t.pos_mask)
    return BooleanFunction.from_array(dnf.n, table)


def bool_tensor_evaluate(dnf: Dnf) -> BooleanFunction:
    """Entry x is 1 iff some term's ``subcube`` of the (2,)*n bool table,
    which holds 2^n bytes, covers it."""
    table = np.zeros((2,) * dnf.n, dtype=bool)
    for t in dnf.terms:
        table[t.subcube(dnf.n)] = True
    return BooleanFunction.from_array(dnf.n, table.reshape(-1))


@given(small_dnfs())
@settings(max_examples=200, deadline=None)
def test_evaluate_matches_the_compare_oracle(dnf):
    assert dnf.evaluate() == oracle_evaluate(dnf)


@given(small_dnfs())
@settings(max_examples=200, deadline=None)
def test_evaluate_matches_the_bool_tensor_oracle(dnf):
    assert dnf.evaluate() == bool_tensor_evaluate(dnf)


@given(small_dnfs(), st.booleans())
@settings(max_examples=200, deadline=None)
def test_every_constructor_agrees_with_the_int_form(dnf, value):
    # the int form of the truth table, bit x f(x), made term by term: the
    # table that evaluate writes, the tables from_array packs from it, the
    # table that from_json reads from its hex, and a constant's table are
    # each the int's bytes, and the readers read the int's bits
    n, size = dnf.n, 1 << dnf.n
    bits = sum(1 << x for x in range(size)
               if any(x & t.vars_mask == t.pos_mask for t in dnf.terms))
    f = dnf.evaluate()
    assert bits_of(f) == bits and f == table_of(n, bits)
    assert hash(f) == hash(table_of(n, bits))
    entries = [bits >> x & 1 for x in range(size)]
    for table in (entries, np.array(entries, dtype=bool)):
        assert bits_of(BooleanFunction.from_array(n, table)) == bits
    hexed = format(bits, f"0{max(1, size // 4)}x")
    assert f.to_json() == json.dumps({"n": n, "table_hex": hexed})
    assert bits_of(BooleanFunction.from_json(json.dumps({"n": n, "table_hex": hexed}))) == bits
    constant = BooleanFunction.constant(n, value)
    assert bits_of(constant) == ((1 << size) - 1 if value else 0)
    assert (f.ones, [f.value(x) for x in range(size)]) == (bits.bit_count(), entries)
    assert hamming_distance_fraction(f, constant) == DyadicRational(
        (bits ^ bits_of(constant)).bit_count(), n)


@pytest.mark.parametrize("dnf", [
    Dnf(1, ()),
    Dnf.from_term_literals(1, [[]]),
    Dnf.from_term_literals(1, [[1]]),
    Dnf.from_term_literals(1, [[-1]]),
    Dnf.from_term_literals(2, [[1, -2]]),
    Dnf.from_term_literals(2, [[-1], [2]]),
    Dnf.from_term_literals(3, [[1, 2, 3]]),
    Dnf.from_term_literals(3, [[-2], [1, -3]]),
    Dnf(4, ()),
    Dnf.from_term_literals(4, [[]]),
    Dnf.from_term_literals(4, [[1, -3], [2]]),
    Dnf.from_term_literals(4, [[4]]),
    Dnf.from_term_literals(4, [[-4], [-4]]),
    Dnf.from_term_literals(4, [[2, -3], [], [1]]),
    Dnf(5, ()),
    Dnf.from_term_literals(6, [[4, -6], [5]]),
    Dnf.from_term_literals(6, [[-1, 2, -3, 4, -5, 6]]),
    random_read_k(20, 12, 5, 3, seed=11),
], ids=["empty-n1", "empty-term-n1", "x1", "not-x1", "n2", "n2-two-terms", "n3-and",
        "n3-two-terms", "empty-n4", "empty-term-n4", "low-only-n4", "high-only-n4",
        "high-only-duplicate-n4", "mixed-n4", "empty-n5", "high-only-n6", "full-width-n6",
        "n20"])
def test_evaluate_matches_both_oracles_at_the_edges(dnf):
    # n = 1 to 4 straddle the 8-entry byte of the packed table; terms only
    # on variables 1-3 write a pattern into every byte, terms only above 3
    # write the full byte into their subcube of the byte view
    f = dnf.evaluate()
    assert f == oracle_evaluate(dnf)
    assert f == bool_tensor_evaluate(dnf)


@given(small_dnfs())
@settings(max_examples=100, deadline=None)
def test_term_subcube_indexes_exactly_its_satisfying_assignments(dnf):
    every = np.arange(1 << dnf.n).reshape((2,) * dnf.n)
    for t in dnf.terms:
        got = np.sort(np.ravel(every[t.subcube(dnf.n)]))
        want = [x for x in range(1 << dnf.n) if x & t.vars_mask == t.pos_mask]
        assert got.tolist() == want, (t, dnf.n)


def test_evaluate_peak_memory_is_the_packed_table():
    # the table is written packed, an eighth of a byte per entry, and
    # handed to the BooleanFunction as it is, with nothing copied from it:
    # the peak is that one table and a few small objects, at most 0.16
    # bytes per entry (about 1.2 times the table), where a (2,)*n bool
    # table alone would take a whole byte per entry
    import tracemalloc

    from dnf_fourier import random_read_k

    dnf = random_read_k(n=20, s=18, w=5, k=5, exact_width=True, seed=7)
    tracemalloc.start()
    try:
        f = dnf.evaluate()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert f.ones
    assert peak / f.size <= 0.16, f"{peak / f.size:.2f} bytes per entry"


def test_evaluate_examples():
    and2 = Dnf.from_term_literals(2, [[1, 2]])
    f = and2.evaluate()
    assert f.ones == 1 and f.value(0b11) == 1

    empty = Dnf(2, ())
    assert bits_of(empty.evaluate()) == 0

    mix = Dnf.from_term_literals(2, [[1], [-1, 2]])
    g = mix.evaluate()
    # true iff x1 or x2: three satisfying inputs
    assert g.ones == 3
    assert g.value(0b00) == 0


def test_empty_term_is_constant_true():
    d = Dnf.from_term_literals(3, [[]])
    assert d.evaluate() == BooleanFunction.constant(3, True)


def test_metrics_examples():
    assert Dnf.from_term_literals(4, [[1, 2], [3, 4]]).metrics() == (2, 2, 1)
    assert Dnf.from_term_literals(2, [[1], [1, 2]]).metrics() == (2, 2, 2)
    assert Dnf(2, ()).metrics() == (0, 0, 0)


def test_duplicate_terms_count_honestly():
    d = Dnf.from_term_literals(2, [[1], [1]])
    assert d.metrics() == (2, 1, 2)


def test_contradictory_term_rejected():
    with pytest.raises(ContradictoryTermError):
        Term.from_literals([1, -1])
    with pytest.raises(ParseError):
        Dnf.from_text("n=2\n1 -1\n")


def test_truncate_width_examples():
    d = Dnf.from_term_literals(4, [[1, 2, 3], [4]])
    t = d.truncate_width(1)
    assert [term.literals() for term in t.terms] == [[4]]
    d2 = Dnf.from_term_literals(3, [[1, 2], [3]])
    assert d2.truncate_width(d2.width()) == d2


def test_truncate_to_zero_distance_is_exact():
    # terms all of width exactly w+1 truncated at w: distance <= s * 2^-(w+1)
    w = 2
    d = Dnf.from_term_literals(6, [[1, 2, 3], [4, 5, 6]])
    t = d.truncate_width(w)
    assert t.size() == 0
    dist = hamming_distance_fraction(d.evaluate(), t.evaluate())
    assert dist <= DyadicRational(2, w + 1)


def test_truncation_bound_on_random_dnfs():
    rng = SplitMix64(123)
    for i in range(500):
        n = 4 + i % 5
        s = 1 + i % 6
        w = 1 + i % 4
        d = random_read_k(n, s, w, k=s, seed=9000 + i)
        f = d.evaluate()
        for w_cut in range(d.width()):
            g = d.truncate_width(w_cut)
            dist = hamming_distance_fraction(f, g.evaluate())
            assert dist <= d.truncation_distance_bound(w_cut)


def test_term_order_irrelevant_for_semantics():
    d = Dnf.from_term_literals(4, [[1, -2], [3], [2, 4]])
    base = d.evaluate()
    for perm in permutations(d.terms):
        assert Dnf(4, perm).evaluate() == base


def test_read_matches_incidence_matrix():
    for i in range(500):
        n = 4 + i % 5
        s = 1 + i % 6
        d = random_read_k(n, s, 1 + i % 4, k=s, seed=4000 + i)
        incidence = [[0] * (n + 1) for _ in range(s)]
        for j, t in enumerate(d.terms):
            for v in t.variables():
                incidence[j][v] = 1
        by_columns = max(
            (sum(row[v] for row in incidence) for v in range(1, n + 1)), default=0
        )
        assert d.read() == by_columns


@given(small_dnfs())
@settings(max_examples=200, deadline=None)
def test_cached_read_and_widths_match_a_recount(dnf):
    """``read()`` and ``term_widths``, computed once per Dnf, against a count
    from the term masks, on the DNF and on each of its width truncations."""
    for g in [dnf] + [dnf.truncate_width(w) for w in range(dnf.width() + 1)]:
        per_variable = [sum(t.vars_mask >> i & 1 for t in g.terms) for i in range(g.n)]
        assert g.read() == max(per_variable, default=0)
        assert g.term_widths == {t.vars_mask.bit_count() for t in g.terms}


def test_text_roundtrip_with_comments_and_empty_term():
    text = "# a comment\nn=3\n1 -2\n0\n3\n"
    d = Dnf.from_text(text)
    assert d.n == 3 and d.size() == 3
    assert d.terms[1] == Term(0, 0)
    assert Dnf.from_text(d.to_text()) == d


def test_json_roundtrip():
    d = Dnf.from_term_literals(5, [[1, -3], [], [5, 2, -4]])
    assert Dnf.from_json(d.to_json()) == d


def test_parse_errors():
    with pytest.raises(ParseError):
        Dnf.from_text("1 2\n")  # missing header
    with pytest.raises(ParseError):
        Dnf.from_text("n=2\n0 1\n")  # 0 mixed with literals
    with pytest.raises(ParseError):
        Dnf.from_text("n=2\n1 1\n")  # duplicate variable
    with pytest.raises(ParseError):
        Dnf.from_json('{"n": 2}')
    with pytest.raises(ValueError):
        Dnf.from_term_literals(2, [[3]])  # variable beyond n


@pytest.mark.parametrize("obj", [
    {"n": 3, "terms": [[1.5]]},
    {"n": 3, "terms": "12"},
    {"n": 3, "terms": ["12"]},
    {"n": 3, "terms": [[True, -3]]},
    {"n": 3.5, "terms": [[1]]},
    {"n": True, "terms": [[1]]},
    {"n": 3, "terms": [[1 << 40]]},
], ids=["literal-fractional", "terms-a-string", "term-a-string", "literal-a-boolean",
        "n-fractional", "n-a-boolean", "literal-beyond-the-cap"])
def test_malformed_json_is_a_parse_error(obj):
    # n and every literal are read as config integers are (as_int), inside
    # the parser's guard: never a TypeError, nor a value silently truncated
    with pytest.raises(ParseError):
        Dnf.from_json(json.dumps(obj))


def test_json_integers_are_read_in_any_form():
    d = Dnf.from_json('{"n": "3.0", "terms": [[1.0, "-2"], []]}')
    assert d == Dnf.from_term_literals(3, [[1, -2], []])


def test_term_literal_order_is_ascending():
    t = Term.from_literals([4, -1, 3])
    assert t.literals() == [-1, 3, 4]
    assert t.variables() == [1, 3, 4]
