"""The rational-series enclosures of ln and e^x against mpmath, the oracle.

mpmath is a test dependency only: each enclosure must contain mpmath's
256-bit value and be at most 2^(2-prec) wide, relative to the value's
magnitude (at least 1), on random arguments and on every argument that the
corpus, the benchmark's workloads and the n = 20 to 24 rungs decide.
"""
from __future__ import annotations

import io
import math
import time
from fractions import Fraction
from itertools import combinations_with_replacement
from pathlib import Path
from unittest import mock

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dnf_fourier import ExperimentConfig, covers, random_read_k
from dnf_fourier.dnf import load_dnf
from dnf_fourier.enclosures import (
    _MAX_PREC,
    EnclosureUndecidedError,
    RealEnclosure,
    decide_le,
    exp_enclosure,
    floor_scaled_log2,
    ln_enclosure,
)
from dnf_fourier.experiments import ALL_CHECKS, EntryWriter, verify_instance

_ENCLOSURES = {"ln": (ln_enclosure, mpmath.log), "exp": (exp_enclosure, mpmath.exp)}
_ORACLE_PREC = 256
_INSTANCES = Path(__file__).resolve().parents[1] / "bench" / "instances"


def _assert_encloses(kind: str, arg: Fraction, prec: int) -> None:
    enclosure, oracle = _ENCLOSURES[kind]
    enc = enclosure(arg, prec)
    with mpmath.workprec(_ORACLE_PREC):
        value = oracle(mpmath.mpf(arg.numerator) / arg.denominator)
    value = (-1 if value < 0 else 1) * value.man * Fraction(2) ** value.exp   # exact
    assert enc.low <= value <= enc.high, (kind, arg, prec)
    assert enc.high - enc.low <= Fraction(4, 1 << prec) * max(abs(value), 1), (kind, arg, prec)
    assert enc.low * (1 << prec) % 1 == 0 and enc.high * (1 << prec) % 1 == 0


_precs = st.sampled_from([64, 96, 128, 192])


@given(st.fractions(min_value=Fraction(1, 1 << 80), max_value=1 << 80), _precs)
@example(Fraction(1), 64)               # ln 1 = 0 exactly
@example(Fraction(2), 64)
@example(Fraction(1, 3), 128)           # q < 1
@example(Fraction(1 << 24, 1), 64)      # a power of two: r = 1
@example(Fraction((1 << 60) + 1, 1 << 60), 64)   # q just above 1
@settings(max_examples=300, deadline=None)
def test_ln_enclosure_contains_the_oracle(q, prec):
    _assert_encloses("ln", q, prec)


@given(st.fractions(min_value=-120, max_value=120, max_denominator=1000), _precs)
@example(Fraction(0), 64)               # e^0 = 1 exactly
@example(Fraction(28), 64)
@example(Fraction(-28), 64)
@example(Fraction(-1, 7), 192)
@settings(max_examples=300, deadline=None)
def test_exp_enclosure_contains_the_oracle(x, prec):
    _assert_encloses("exp", x, prec)


def test_exact_points_are_exact():
    assert ln_enclosure(Fraction(1)) == RealEnclosure(Fraction(0), Fraction(0))
    assert exp_enclosure(Fraction(0)) == RealEnclosure(Fraction(1), Fraction(1))
    assert decide_le(0, lambda prec: ln_enclosure(Fraction(1), prec))[0]


def decided_arguments(dnf, ones: int, d_max: int = 4) -> set[tuple[str, Fraction]]:
    """A superset of the (function, argument) pairs that an all-checks
    verify at ``d_max`` decides for ``dnf``, whose truth table has ``ones``
    ones: satisfied_mass's ln(1/(1 - Pr[f])), the read chain's e^|S| and
    the exact-width chain's e^(ku/w).  It also holds what
    ``budget_lemma_bound``, which no verify calls, decides on the covers of
    ``dnf``: ln 2 and ln(v/F) over every multiset of at most d_max term
    widths (a cover takes one term per encoder round, so at most |S|
    terms)."""
    n = dnf.n
    args = {("ln", Fraction(2))} | {("exp", Fraction(d)) for d in range(min(d_max, n) + 1)}
    if ones < 1 << n:
        args.add(("ln", Fraction(1 << n, (1 << n) - ones)))
    widths, k = dnf.term_widths, dnf.read()
    if len(widths) == 1 and widths != {0}:
        (w,) = widths
        args |= {("exp", Fraction(k * u // w)) for u in range(n + 1) if k * u % w == 0}
    for size in range(1, d_max + 1):
        for sizes in combinations_with_replacement(sorted(widths), size):
            v, mass = sum(sizes), sum(Fraction(1, 1 << s) for s in sizes)
            if v > mass:
                args.add(("ln", v / mass))
    return args


def test_decided_arguments_hold_every_argument_a_verify_decides(bundles):
    # the superset holds what the checks ask for, on a tenth of the corpus
    # and the tribes instances, with the caches of earlier decisions cleared
    asked = []

    def spy(kind):
        def enclosure(arg, prec):
            asked.append((kind, Fraction(arg)))
            return _ENCLOSURES[kind][0](arg, prec)
        return enclosure

    config = ExperimentConfig(instances=(), d_max=4, checks=ALL_CHECKS)
    for b in bundles[::10] + bundles[-2:]:
        asked.clear()
        covers._le_exp.cache_clear()
        with mock.patch.object(covers, "ln_enclosure", spy("ln")), \
                mock.patch.object(covers, "exp_enclosure", spy("exp")):
            verify_instance(b.dnf, b.label, config, EntryWriter(io.StringIO(), b.label, True))
        assert asked and set(asked) <= decided_arguments(b.dnf, b.f.ones), b.label
    covers._le_exp.cache_clear()


def _workloads_and_rungs():
    yield from (load_dnf(path) for path in sorted(_INSTANCES.glob("*.dnf")))
    for n, s in ((20, 16), (22, 18), (24, 20)):
        yield random_read_k(n=n, s=s, w=4, k=3, seed=1)
    # the n = 24 DNF of the spectral and cover_probability gates of CI
    yield random_read_k(n=24, s=20, w=5, k=5, seed=7, exact_width=True)


def test_enclosures_contain_the_oracle_on_every_decided_argument(bundles):
    args = set()
    for b in bundles:
        args |= decided_arguments(b.dnf, b.f.ones)
    for dnf in _workloads_and_rungs():
        args |= decided_arguments(dnf, dnf.evaluate().ones)
    assert ("exp", Fraction(28)) in args   # dense12's exact-width chain
    for kind, arg in sorted(args, key=str):
        for prec in (64, 128):
            _assert_encloses(kind, arg, prec)


def test_decide_le_raises_when_the_enclosure_never_separates():
    asked = []

    def never(prec):
        asked.append(prec)
        return RealEnclosure(Fraction(-1), Fraction(1))

    with pytest.raises(EnclosureUndecidedError):
        decide_le(0, never)
    assert asked == [64 << i for i in range((_MAX_PREC // 64).bit_length())]
    assert asked[-1] == _MAX_PREC


def test_a_maximum_precision_below_64_is_undecided_naming_the_lhs(monkeypatch):
    # no round runs, so no enclosure is made: both raise the undecided
    # error, decide_le's naming its lhs
    from dnf_fourier import enclosures

    monkeypatch.setattr(enclosures, "_MAX_PREC", 32)
    with pytest.raises(EnclosureUndecidedError, match=r"^comparison of 3/7 undecided$"):
        decide_le(Fraction(3, 7), lambda prec: ln_enclosure(Fraction(5), prec))
    with pytest.raises(EnclosureUndecidedError, match=r"^floor of "):
        floor_scaled_log2(Fraction(3), Fraction(1), math.inf)


def test_enclosures_at_the_maximum_precision_take_seconds_at_most():
    q = Fraction(1 << 24, (1 << 24) - 16715804)   # the n = 24 rung's satisfied mass
    start = time.perf_counter()
    for enc in (ln_enclosure(q, _MAX_PREC), ln_enclosure(Fraction(1, 3), _MAX_PREC),
                exp_enclosure(Fraction(28), _MAX_PREC), exp_enclosure(Fraction(-28), _MAX_PREC)):
        assert enc.high - enc.low <= Fraction(4, 1 << _MAX_PREC) * max(abs(enc.low), 1)
    assert time.perf_counter() - start < 5


def oracle_floor_scaled_log2(q: Fraction, scale: Fraction) -> int:
    """The largest m with q^p >= 2^(m r) for scale = p/r, by doubling and
    bisection over exact comparisons: the search that the closed form
    replaced."""
    qp = q**scale.numerator

    def at_least(m: int) -> bool:
        return qp >= Fraction(2) ** (m * scale.denominator)

    m, step = 0, 1
    while at_least(m + step):
        m += step
        step *= 2
    while step > 1:
        step //= 2
        if at_least(m + step):
            m += step
    return m


@given(st.fractions(min_value=1, max_value=1 << 40, max_denominator=1 << 20),
       st.fractions(min_value=Fraction(1, 64), max_value=64, max_denominator=64),
       st.integers(min_value=0, max_value=64))
@example(Fraction(1), Fraction(1), 12)
@example(Fraction(24), Fraction(3), 12)         # 3/eps at eps = 1/8, w = 3
@example(Fraction(1 << 12), Fraction(1, 3), 12)   # an exact power: floor lands on it
@example(Fraction(1 << 12), Fraction(1, 3), 4)    # ... and on the cap
@example(Fraction(9), Fraction(4, 3), 4)        # scale * floor(log2 q) = 4: the cap, no power
@example(Fraction(9), Fraction(4, 3), 5)        # short of the cap: floor(4/3 log2 9) = 4
@settings(max_examples=300, deadline=None)
def test_floor_scaled_log2_matches_the_search(q, scale, cap):
    assert floor_scaled_log2(q, scale, cap) == min(cap, oracle_floor_scaled_log2(q, scale))


def _oracle_log2(q: Fraction):
    """log2 q in mpmath at the working precision, exact for a power of two."""
    j = q.numerator.bit_length() - q.denominator.bit_length()
    if q == Fraction(2) ** j:
        return j
    return mpmath.log(mpmath.mpf(q.numerator) / q.denominator, 2)


@given(st.fractions(min_value=Fraction(1, 1000), max_value=1000, max_denominator=1000),
       st.integers(min_value=1, max_value=24), st.integers(min_value=1, max_value=24),
       st.fractions(min_value=Fraction(1, 1 << 30), max_value=1, max_denominator=1 << 30),
       st.integers(min_value=0, max_value=24))
@example(Fraction(1, 3), 3, 2, Fraction(3, 8), 12)   # both logs rational: exactly 600
@example(Fraction(1), 2, 1, Fraction(1, 8), 4)       # tribes(2,2) at the defaults: 1453
@example(Fraction(10**300), 2, 1, Fraction(1, 8), 4)   # a label near 10^303
@settings(max_examples=200, deadline=None)
def test_the_u_star_floor_and_the_degree_cut_match_mpmath(c, w, k, eps, cap):
    # the sweep's u* is floor(100 C w log2(k+2) log2(3/eps)), with no cap,
    # and its degree cut min(cap, floor(C w log2(3/eps))): a product of
    # two rational logs is exact in Fraction arithmetic, and any other is
    # irrational, so mpmath at 4,000 bits floors it right
    three_over_eps = 3 / eps
    scale = 100 * c * w
    with mpmath.workprec(4000):
        logs = _oracle_log2(Fraction(k + 2)), _oracle_log2(three_over_eps)
        if all(isinstance(log, int) for log in logs):
            u_star = math.floor(scale * logs[0] * logs[1])
        else:
            u_star = int(mpmath.floor(mpmath.mpf(scale.numerator) / scale.denominator
                                      * logs[0] * logs[1]))
        cut = min(cap, int(mpmath.floor(mpmath.mpf(c.numerator * w) / c.denominator
                                        * logs[1])))
    assert floor_scaled_log2(three_over_eps, scale, math.inf, k + 2) == u_star
    assert floor_scaled_log2(three_over_eps, c * w, cap) == cut
