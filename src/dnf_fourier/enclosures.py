"""Rigorous enclosures of the bounds in ln and e^x, the only inexact ones.

Each is a series with an explicit remainder, summed in integers scaled by
2^(prec+guard), each power rounded down and up.  ln(2^j r) = j ln 2 + ln r
with 1 <= r < 2, each log 2 artanh(z), z <= 1/3, whose tail past z^i/i is
at most that over 1 - z^2; e^x's tail past x^N/N! is at most that over
1 - x/(N+1).  Endpoints are multiples of 2^-prec, rounded outward.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

_MAX_PREC = 1 << 14


class EnclosureUndecidedError(RuntimeError):
    """A comparison stayed undecided at the maximum working precision."""


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
        return RealEnclosure(*sorted((self.low * Fraction(c), self.high * Fraction(c))))


def _artanh(a: int, b: int, one: int):
    """Integers around one * artanh(a/b), for 0 <= a/b <= 1/3."""
    lo = hi = 0
    p_lo, p_hi = one * a // b, -(-one * a // b)
    a, b = a * a, b * b
    i = 1
    while p_hi > 1:
        lo += p_lo // i
        hi -= -p_hi // i
        p_lo, p_hi = p_lo * a // b, -(-p_hi * a // b)
        i += 2
    return lo, hi - -p_hi * b // (i * (b - a))


def _exp(a: int, b: int, one: int):
    """Integers around one * e^(a/b), for a/b >= 0."""
    lo = hi = 0
    t_lo = t_hi = one
    i = 0
    while t_hi > 1 or i * b <= 2 * a:
        lo, hi = lo + t_lo, hi + t_hi
        i += 1
        t_lo, t_hi = t_lo * a // (b * i), -(-t_hi * a // (b * i))
    return lo, hi - -t_hi * (i + 1) * b // ((i + 1) * b - a)


def _floor_log2(n: int, d: int) -> int:
    """floor(log2(n/d)) for n >= d > 0."""
    j = n.bit_length() - d.bit_length()
    return j - (n < d << j)


def _enclosure(lo: int, hi: int, shift: int, prec: int) -> RealEnclosure:
    u = 1 << prec
    return RealEnclosure(Fraction(lo >> shift, u), Fraction(-(-hi >> shift), u))


def ln_enclosure(q: Fraction, prec: int = 64) -> RealEnclosure:
    """Enclosure of the natural log of a positive rational."""
    q = Fraction(q)
    if q <= 0:
        raise ValueError("ln of a nonpositive value")
    if q < 1:
        return ln_enclosure(1 / q, prec).scale(-1)
    n, d = q.numerator, q.denominator
    j = _floor_log2(n, d)
    guard = prec.bit_length() + j.bit_length() + 4
    one = 1 << (prec + guard)
    l2_lo, l2_hi = _artanh(1, 3, one)
    r_lo, r_hi = _artanh(n - (d << j), n + (d << j), one)
    return _enclosure(j * l2_lo + r_lo, j * l2_hi + r_hi, guard - 1, prec)   # 2 artanh


def exp_enclosure(x: Fraction, prec: int = 64) -> RealEnclosure:
    """Enclosure of e**x for rational x."""
    x = Fraction(x)
    a, b = abs(x.numerator), x.denominator
    guard = prec.bit_length() + (a // b).bit_length() + 4
    lo, hi = _exp(a, b, 1 << (prec + guard))
    if x < 0:   # e^x = 1 / e^-x
        one = 1 << (2 * prec + guard)
        lo, hi, guard = one // hi, -(-one // lo), 0
    return _enclosure(lo, hi, guard, prec)


def decide_le(lhs, make_enclosure) -> tuple[bool, RealEnclosure]:
    """Rigorously decide lhs <= (the real enclosed by make_enclosure(prec)),
    doubling prec until lhs is off the interval or at its low end (0 <= ln 1).
    k ln q (q != 1) and e^m (m != 0) are irrational, so this ends."""
    lhs = Fraction(lhs)
    prec = 64
    while prec <= _MAX_PREC:
        enc = make_enclosure(prec)
        if lhs <= enc.low:
            return True, enc
        if lhs > enc.high:
            return False, enc
        prec *= 2
    raise EnclosureUndecidedError(
        f"comparison of {lhs} against [{float(enc.low)}, {float(enc.high)}] undecided"
    )


def floor_scaled_log2(q: Fraction, scale: Fraction, cap: int) -> int:
    """min(cap, floor(scale * log2(q))) for rationals q >= 1, scale > 0,
    exactly, and with no power of q.  When scale * floor(log2 q), read from
    bit lengths, is at least the cap, so is the floor.  log2 q is rational
    only for q = 2^j, whose floor is floor(scale * j); otherwise scale *
    log2 q is irrational, and scale times the enclosure of ln q / ln 2 is
    refined, as ``decide_le`` does, until it holds no integer or lies at
    or above the cap."""
    q, scale = Fraction(q), Fraction(scale)
    if q < 1 or scale <= 0:
        raise ValueError("need q >= 1 and scale > 0")
    j = _floor_log2(q.numerator, q.denominator)
    if scale * j >= cap:
        return cap
    if q == 1 << j:
        return min(cap, math.floor(scale * j))
    prec = 64
    while prec <= _MAX_PREC:
        ln_q, ln_2 = ln_enclosure(q, prec), ln_enclosure(Fraction(2), prec)
        low = math.floor(scale * ln_q.low / ln_2.high)
        if low >= cap or low == math.floor(scale * ln_q.high / ln_2.low):
            return min(cap, low)
        prec *= 2
    raise EnclosureUndecidedError(f"floor of {scale} log2 {q} undecided")
