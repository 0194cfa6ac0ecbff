"""Small integer and integer-mask utilities shared across modules.

Masks follow the package convention: bit i-1 of a mask stands for
variable i, and in assignment masks a set bit means the variable is true.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterator


def bit_indices(mask: int) -> list[int]:
    """0-based positions of the set bits, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def vars_to_mask(variables) -> int:
    mask = 0
    for v in variables:
        if v < 1:
            raise ValueError(f"variable index {v} must be >= 1")
        mask |= 1 << (v - 1)
    return mask


def pdep(x: int, mask: int) -> int:
    """Scatter the low bits of x into the positions selected by mask."""
    out = 0
    t = 0
    while mask:
        low = mask & -mask
        if (x >> t) & 1:
            out |= low
        t += 1
        mask ^= low
    return out


def subsets_up_to(n: int, d_max: int) -> Iterator[int]:
    """All subset masks of [n] with popcount <= d_max, ascending mask order.

    A mask with too many bits steps by its lowest set bit: every mask
    between keeps its higher bits, and so has as many set bits or more."""
    if d_max < 0:
        return
    m, end = 0, 1 << n
    while m < end:
        yield m
        m += 1
        while m < end and m.bit_count() > d_max:
            m += m & -m


def as_int(value) -> int:
    """``value``, a number or a string that ``Fraction`` reads, as an int:
    ``4``, ``4.0``, ``"4"`` and ``"4.0"`` alike.  A boolean or a fractional
    value is a ``ValueError``; a value ``Fraction`` cannot read raises."""
    if isinstance(value, bool):
        raise ValueError("a boolean is not a number")
    try:
        number = Fraction(value)
    except (TypeError, ValueError, ArithmeticError):
        int(value)   # raise int()'s own error, which names the value
        raise
    if number.denominator != 1:
        raise ValueError("not an integer")
    return int(number)
