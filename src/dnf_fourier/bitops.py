"""Small integer-mask utilities shared across modules.

Masks follow the package convention: bit i-1 of a mask stands for
variable i, and in assignment masks a set bit means the variable is true.
"""
from __future__ import annotations

from itertools import combinations


def bit_indices(mask: int) -> list[int]:
    """0-based positions of the set bits, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def mask_to_vars(mask: int) -> list[int]:
    """1-based variable indices of a subset mask, ascending."""
    return [b + 1 for b in bit_indices(mask)]


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


def subsets_up_to(n: int, d_max: int) -> list[int]:
    """All subset masks of [n] with popcount <= d_max, ascending mask order."""
    masks = [
        sum(1 << b for b in combo)
        for d in range(min(d_max, n) + 1)
        for combo in combinations(range(n), d)
    ]
    masks.sort()
    return masks
