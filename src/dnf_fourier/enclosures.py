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
    prec, against = 64, ""   # no enclosure is made when _MAX_PREC < 64
    while prec <= _MAX_PREC:
        enc = make_enclosure(prec)
        if lhs <= enc.low:
            return True, enc
        if lhs > enc.high:
            return False, enc
        against = f" against [{float(enc.low)}, {float(enc.high)}]"
        prec *= 2
    raise EnclosureUndecidedError(f"comparison of {lhs}{against} undecided")


def floor_scaled_log2(q: Fraction, scale: Fraction, cap: int | float, r: Fraction = 2) -> int:
    """min(cap, floor(scale * log2(q) * log2(r))) for rationals q, r >= 1
    and scale > 0, exactly, and with no power of q or r; ``cap`` may be
    ``math.inf``.  When scale * floor(log2 q) * floor(log2 r), read from
    bit lengths, is at least the cap, so is the floor.  A log2 is rational
    only for a power of two 2^j, where it is j; the floor of the rest is
    found by refining scale times the enclosures of ln q / ln 2 (and of
    ln r / ln 2), as ``decide_le`` does, until they hold no integer or lie
    at or above the cap.  With one log irrational that ends; with two it
    is not known to, and past the maximum precision it raises."""
    q, r, scale = Fraction(q), Fraction(r), Fraction(scale)
    if min(q, r) < 1 or scale <= 0:
        raise ValueError("need q, r >= 1 and scale > 0")
    rational, logs = scale, []   # the rational factor, and each irrational log
    for x in (q, r):
        j = _floor_log2(x.numerator, x.denominator)
        if x == 1 << j:
            rational *= j
        else:
            logs.append((x, j))
    if rational * math.prod(j for _, j in logs) >= cap:
        return cap
    if not logs:
        return min(cap, math.floor(rational))
    prec = 64
    while prec <= _MAX_PREC:
        low = high = rational
        ln_2 = ln_enclosure(Fraction(2), prec)
        for x, _ in logs:
            ln_x = ln_enclosure(x, prec)
            low, high = low * ln_x.low / ln_2.high, high * ln_x.high / ln_2.low
        if math.floor(low) >= cap or math.floor(low) == math.floor(high):
            return min(cap, math.floor(low))
        prec *= 2
    raise EnclosureUndecidedError(f"floor of {scale} log2 {q} log2 {r} undecided")
