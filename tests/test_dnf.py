"""DNF model: evaluation, metrics, truncation, serialization.

The evaluation oracle compares every assignment with each term's masks,
over a flat index array; ``Dnf.evaluate`` writes each term's subcube
through a strided slice instead, and must agree with it bit for bit."""
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings

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

from conftest import small_dnfs


def oracle_evaluate(dnf: Dnf) -> BooleanFunction:
    """Entry x is 1 iff (x & vars) == pos for some term, by whole-array
    compares."""
    x = np.arange(1 << dnf.n, dtype=np.uint32)
    table = np.zeros(1 << dnf.n, dtype=bool)
    for t in dnf.terms:
        keys = x & np.uint32(t.vars_mask)
        table |= keys == np.uint32(t.pos_mask)
    return BooleanFunction.from_array(dnf.n, table)


@given(small_dnfs())
@settings(max_examples=200, deadline=None)
def test_evaluate_matches_the_compare_oracle(dnf):
    assert dnf.evaluate() == oracle_evaluate(dnf)


@pytest.mark.parametrize("dnf", [
    Dnf(1, ()),
    Dnf(5, ()),
    Dnf.from_term_literals(1, [[1]]),
    Dnf.from_term_literals(1, [[-1]]),
    Dnf.from_term_literals(1, [[]]),
    Dnf.from_term_literals(4, [[2, -3], [], [1]]),
    random_read_k(20, 12, 5, 3, seed=11),
], ids=["empty-n1", "empty-n5", "x1", "not-x1", "empty-term-n1", "empty-term-n4", "n20"])
def test_evaluate_matches_the_compare_oracle_at_the_edges(dnf):
    assert dnf.evaluate() == oracle_evaluate(dnf)


def test_evaluate_examples():
    and2 = Dnf.from_term_literals(2, [[1, 2]])
    f = and2.evaluate()
    assert f.ones == 1 and f.value(0b11) == 1

    empty = Dnf(2, ())
    assert empty.evaluate().bits == 0

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


def test_term_literal_order_is_ascending():
    t = Term.from_literals([4, -1, 3])
    assert t.literals() == [-1, 3, 4]
    assert t.variables() == [1, 3, 4]
