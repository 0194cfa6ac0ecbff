"""Rigorous real-number enclosures for the few non-rational bounds.

Every asserted inequality in this package is exact rational arithmetic,
except where a bound genuinely involves ln or powers of e.  Those are
decided through interval arithmetic (mpmath's ``iv`` context) with outward
rounding: a comparison verdict is only issued once the whole interval lies
on one side, retrying at doubled precision otherwise.  Since the compared
quantities are never equal unless both sides are zero (k*ln of a rational
other than 1 is irrational, as are powers of e), the refinement loop
terminates.

mpmath is imported on first use, by ``ln_enclosure`` and ``exp_enclosure``:
``floor_scaled_log2`` is exact big-integer arithmetic, and a run that
decides nothing else (a sweep) never loads it.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

_MAX_PREC = 1 << 14


class EnclosureUndecidedError(RuntimeError):
    """A comparison stayed undecided at the maximum working precision."""


def _mpf_tuple_to_fraction(t) -> Fraction:
    sign, man, exp, _bc = t
    if man == 0:
        if exp == 0:
            return Fraction(0)
        raise ValueError("non-finite interval endpoint")
    v = Fraction(int(man)) * Fraction(2) ** int(exp)
    return -v if sign else v


@dataclass(frozen=True, slots=True)
class RealEnclosure:
    """A closed interval [low, high] with exact rational endpoints."""

    low: Fraction
    high: Fraction

    def __post_init__(self):
        if self.low > self.high:
            raise ValueError("empty enclosure")

    def __float__(self) -> float:
        return float((self.low + self.high) / 2)

    def scale(self, c) -> "RealEnclosure":
        c = Fraction(c)
        if c >= 0:
            return RealEnclosure(self.low * c, self.high * c)
        return RealEnclosure(self.high * c, self.low * c)


def _interval_to_enclosure(x) -> RealEnclosure:
    lo, hi = x._mpi_
    return RealEnclosure(_mpf_tuple_to_fraction(lo), _mpf_tuple_to_fraction(hi))


def _iv_enclosure(function: str, q: Fraction, prec: int) -> RealEnclosure:
    """Enclosure of mpmath's interval ``iv.<function>`` at the rational q,
    evaluated at ``prec`` bits."""
    from mpmath import iv

    old = iv.prec
    try:
        iv.prec = prec
        x = iv.mpf(q.numerator) / iv.mpf(q.denominator)
        return _interval_to_enclosure(getattr(iv, function)(x))
    finally:
        iv.prec = old


def ln_enclosure(q: Fraction, prec: int = 64) -> RealEnclosure:
    """Enclosure of the natural log of a positive rational."""
    if q <= 0:
        raise ValueError("ln of a nonpositive value")
    return _iv_enclosure("log", q, prec)


def exp_enclosure(x: Fraction, prec: int = 64) -> RealEnclosure:
    """Enclosure of e**x for rational x."""
    return _iv_enclosure("exp", x, prec)


def decide_le(lhs, make_enclosure) -> tuple[bool, RealEnclosure]:
    """Rigorously decide lhs <= (the real enclosed by make_enclosure(prec)).

    ``make_enclosure`` is called with increasing precision until the exact
    rational lhs falls strictly on one side of the interval, or until the
    endpoints coincide with lhs (an exact hit, e.g. 0 <= ln(1) = 0).
    """
    lhs = Fraction(lhs)
    prec = 64
    while prec <= _MAX_PREC:
        enc = make_enclosure(prec)
        if lhs <= enc.low:
            return True, enc
        if lhs > enc.high:
            return False, enc
        if enc.low == enc.high == lhs:
            return True, enc
        prec *= 2
    raise EnclosureUndecidedError(
        f"comparison of {lhs} against [{float(enc.low)}, {float(enc.high)}] undecided"
    )


def floor_scaled_log2(q: Fraction, scale: Fraction) -> int:
    """floor(scale * log2(q)) for rationals q >= 1, scale > 0, exactly.

    scale*log2(q) >= m  iff  q**scale.numerator >= 2**(m*scale.denominator),
    which is an exact big-integer comparison, so the floor is found by
    search with no rounding anywhere.
    """
    if q < 1 or scale <= 0:
        raise ValueError("need q >= 1 and scale > 0")
    p, r = scale.numerator, scale.denominator
    qp = q**p

    def at_least(m: int) -> bool:
        return qp >= Fraction(2) ** (m * r)

    m = 0
    step = 1
    while at_least(m + step):
        m += step
        step *= 2
    while step > 1:
        step //= 2
        if at_least(m + step):
            m += step
    return m
