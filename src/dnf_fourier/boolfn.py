"""Truth-table Boolean functions and their exact Fourier spectra.

Conventions used throughout the package:

* Variables are numbered 1..n.
* An assignment of all n variables is an n-bit integer mask: bit i-1 is 1
  exactly when variable i takes the input value -1, i.e. is "true".
  (Inputs live in {-1,1} with -1 meaning true; outputs are 0/1 with 1
  meaning true.)
* A subset S of variables is likewise an n-bit mask, bit i-1 for variable i.
* A truth table is a 2^n-bit integer: bit x is f(x) for assignment mask x.

With these conventions the character x^S evaluated at assignment x equals
(-1)**popcount(x & S), so coefficient S of the spectrum is

    fhat(S) = 2^-n * sum_x f(x) * (-1)**popcount(x & S),

an integer over 2^n.  All spectra are therefore stored as exact integer
vectors scaled by 2^n, and exposed as DyadicRational values.
"""
from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

from .dyadic import DyadicRational

#: Hard cap on n: the table and the full spectrum are both materialized.
N_CAP = 24


class CapExceededError(ValueError):
    """An enumeration cap (variable count, decision-tree size) was exceeded."""


class DimensionMismatchError(ValueError):
    """Two functions or a function and a restriction disagree on n."""


def _check_n(n: int, n_cap: int = N_CAP) -> None:
    if not 1 <= n <= n_cap:
        raise CapExceededError(f"n={n} outside [1, {n_cap}]")


@dataclass(frozen=True, slots=True)
class BooleanFunction:
    """An explicit truth table over n variables (bit x of ``bits`` is f(x))."""

    n: int
    bits: int

    def __post_init__(self):
        _check_n(self.n)
        if not 0 <= self.bits < (1 << (1 << self.n)):
            raise ValueError("truth table has bits beyond 2^n entries")

    @property
    def size(self) -> int:
        return 1 << self.n

    @property
    def ones(self) -> int:
        """Number of satisfying assignments."""
        return self.bits.bit_count()

    def value(self, x: int) -> int:
        return (self.bits >> x) & 1

    def to_array(self) -> np.ndarray:
        """Truth table as a uint8 array of 0/1, index = assignment mask."""
        nbytes = max(1, self.size // 8)
        raw = np.frombuffer(self.bits.to_bytes(nbytes, "little"), dtype=np.uint8)
        return np.unpackbits(raw, bitorder="little")[: self.size]

    @classmethod
    def from_array(cls, n: int, table: np.ndarray) -> "BooleanFunction":
        packed = np.packbits(np.asarray(table, dtype=np.uint8), bitorder="little")
        return cls(n, int.from_bytes(packed.tobytes(), "little"))

    @classmethod
    def constant(cls, n: int, value: bool) -> "BooleanFunction":
        return cls(n, ((1 << (1 << n)) - 1) if value else 0)

    # -- serialization: {"n": ..., "table_hex": ...}, LSB = index 0 ---------

    def to_json(self) -> str:
        digits = max(1, self.size // 4)
        return json.dumps({"n": self.n, "table_hex": format(self.bits, f"0{digits}x")})

    @classmethod
    def from_json(cls, text: str) -> "BooleanFunction":
        obj = json.loads(text)
        return cls(int(obj["n"]), int(obj["table_hex"], 16))


@functools.lru_cache(maxsize=32)
def popcount_table(n: int) -> np.ndarray:
    """popcount of every mask in [0, 2^n), as a read-only int64 array."""
    v = np.arange(1 << n, dtype=np.uint32)
    v = v - ((v >> 1) & 0x55555555)
    v = (v & 0x33333333) + ((v >> 2) & 0x33333333)
    v = (v + (v >> 4)) & 0x0F0F0F0F
    out = ((v * np.uint32(0x01010101)) >> 24).astype(np.int64)
    out.setflags(write=False)
    return out


class FourierSpectrum:
    """All 2^n Fourier coefficients of one function, exactly.

    ``scaled[mask]`` is ``2^n * fhat(S)`` for the subset with that mask; it
    is always an integer of magnitude at most 2^n, so int64 holds every
    intermediate quantity for n <= 24 (sums of squares stay below 2^{2n}
    by Parseval).
    """

    __slots__ = ("n", "scaled")

    def __init__(self, n: int, scaled: np.ndarray):
        _check_n(n)
        if scaled.shape != (1 << n,):
            raise ValueError("coefficient vector must have length 2^n")
        self.n = n
        self.scaled = scaled
        self.scaled.setflags(write=False)

    def coeff(self, mask: int) -> DyadicRational:
        return DyadicRational(int(self.scaled[mask]), self.n)

    def nonzero_items(self) -> Iterator[tuple[int, DyadicRational]]:
        for m in np.nonzero(self.scaled)[0]:
            yield int(m), self.coeff(int(m))

    def total_weight(self) -> DyadicRational:
        return DyadicRational(int(np.dot(self.scaled, self.scaled)), 2 * self.n)

    def one_norm_total(self) -> DyadicRational:
        return DyadicRational(int(np.sum(np.abs(self.scaled))), self.n)

    def degree(self) -> int:
        """Largest |S| with a nonzero coefficient (0 for the zero function)."""
        nz = np.nonzero(self.scaled)[0]
        if len(nz) == 0:
            return 0
        return int(popcount_table(self.n)[nz].max())

    def to_json(self) -> str:
        """Nonzero coefficients, ascending mask, exact."""
        items = [
            {"mask": m, "numerator": c.numerator, "log_denominator": c.log_denominator}
            for m, c in self.nonzero_items()
        ]
        return json.dumps({"n": self.n, "coefficients": items})

    @classmethod
    def from_json(cls, text: str) -> "FourierSpectrum":
        obj = json.loads(text)
        n = int(obj["n"])
        scaled = np.zeros(1 << n, dtype=np.int64)
        for item in obj["coefficients"]:
            c = DyadicRational(int(item["numerator"]), int(item["log_denominator"]))
            if c.log_denominator > n:
                raise ValueError("coefficient finer than 2^-n")
            scaled[int(item["mask"])] = c.numerator << (n - c.log_denominator)
        return cls(n, scaled)


def walsh_butterfly(a: np.ndarray) -> np.ndarray:
    """The in-place divide-and-conquer transform (n * 2^n work).

    Self-inverse up to the 2^n factor: applying it twice multiplies by 2^n,
    so it both produces spectra and evaluates them back at every point."""
    h = 1
    while h < a.size:
        a = a.reshape(-1, 2 * h)
        left = a[:, :h].copy()
        right = a[:, h:].copy()
        a[:, :h] = left + right
        a[:, h:] = left - right
        a = a.reshape(-1)
        h *= 2
    return a


def fourier_transform(f: BooleanFunction) -> FourierSpectrum:
    """Exact spectrum of f, scaled coefficients 2^n * fhat(S) as integers."""
    return FourierSpectrum(f.n, walsh_butterfly(f.to_array().astype(np.int64)))


def one_norm_at_degree(spec: FourierSpectrum, d: int) -> DyadicRational:
    """Sum of |fhat(S)| over subsets of size exactly d."""
    if not 0 <= d <= spec.n:
        raise ValueError(f"degree {d} outside [0, {spec.n}]")
    sel = popcount_table(spec.n) == d
    return DyadicRational(int(np.sum(np.abs(spec.scaled[sel]))), spec.n)


def weight_above_degree(spec: FourierSpectrum, d: int) -> DyadicRational:
    """Sum of fhat(S)^2 over subsets of size strictly greater than d."""
    if not 0 <= d <= spec.n:
        raise ValueError(f"degree {d} outside [0, {spec.n}]")
    sel = popcount_table(spec.n) > d
    vals = spec.scaled[sel]
    return DyadicRational(int(np.dot(vals, vals)), 2 * spec.n)


def weight_outside_masks(spec: FourierSpectrum, masks) -> DyadicRational:
    """Sum of fhat(S)^2 over all subsets NOT in the given mask collection."""
    keep = np.zeros(1 << spec.n, dtype=bool)
    for m in masks:
        keep[m] = True
    vals = spec.scaled[~keep]
    return DyadicRational(int(np.dot(vals, vals)), 2 * spec.n)


def ranked_masks(spec: FourierSpectrum) -> np.ndarray:
    """All subset masks ordered by decreasing |coefficient|, ties broken by
    ascending mask.  This ordering defines which coefficients are "kept"
    everywhere in the package."""
    absvals = np.abs(spec.scaled)
    return np.lexsort((np.arange(absvals.size), -absvals))


def min_coeffs_for_eps(spec: FourierSpectrum, eps) -> int:
    """Smallest M such that keeping the M largest-magnitude coefficients
    (ties broken by ascending subset mask) discards squared weight <= eps.
    """
    eps = Fraction(eps)
    if not 0 < eps <= 1:
        raise ValueError(f"eps={eps} outside (0, 1]")
    order = ranked_masks(spec)
    squares = np.abs(spec.scaled)[order] ** 2
    total = int(squares.sum())
    bound = eps.numerator * (1 << (2 * spec.n))
    if total * eps.denominator <= bound:
        return 0
    prefix = np.cumsum(squares)
    # smallest m >= 1 with (total - prefix[m-1]) * eps.den <= eps.num * 4^n;
    # exact big-int comparisons (eps.denominator may exceed int64)
    kept_needed = total * eps.denominator - bound
    lo, hi = 0, prefix.size - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if int(prefix[mid]) * eps.denominator >= kept_needed:
            hi = mid
        else:
            lo = mid + 1
    return lo + 1


def hamming_distance_fraction(f: BooleanFunction, g: BooleanFunction) -> DyadicRational:
    """Pr_x[f(x) != g(x)], exactly."""
    if f.n != g.n:
        raise DimensionMismatchError(f"n mismatch: {f.n} vs {g.n}")
    return DyadicRational((f.bits ^ g.bits).bit_count(), f.n)
