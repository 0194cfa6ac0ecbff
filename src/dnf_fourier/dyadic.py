"""Exact dyadic rational arithmetic.

Every Fourier coefficient of an n-variable 0/1-valued function is an integer
multiple of 2^-n, so every spectral quantity in this package is a dyadic
rational: numerator / 2**log_denominator.  All arithmetic here is exact
integer arithmetic; there is no floating point anywhere on a verified path.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True, slots=True)
class DyadicRational:
    """A rational of the form numerator / 2**log_denominator.

    Canonical form: ``log_denominator >= 0`` and the numerator is odd
    unless it is zero (zero is stored as 0 / 2**0).  The constructor
    normalizes, so equality and hashing are value-based.
    """

    numerator: int
    log_denominator: int = 0

    def __post_init__(self):
        num = self.numerator
        e = self.log_denominator
        if e < 0:
            num <<= -e
            e = 0
        if num == 0:
            e = 0
        else:
            while e > 0 and (num & 1) == 0:
                num >>= 1
                e -= 1
        object.__setattr__(self, "numerator", num)
        object.__setattr__(self, "log_denominator", e)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "DyadicRational") -> "DyadicRational":
        e = max(self.log_denominator, other.log_denominator)
        a = self.numerator << (e - self.log_denominator)
        b = other.numerator << (e - other.log_denominator)
        return DyadicRational(a + b, e)

    def __sub__(self, other: "DyadicRational") -> "DyadicRational":
        e = max(self.log_denominator, other.log_denominator)
        a = self.numerator << (e - self.log_denominator)
        b = other.numerator << (e - other.log_denominator)
        return DyadicRational(a - b, e)

    def __mul__(self, other):
        if isinstance(other, int):
            return DyadicRational(self.numerator * other, self.log_denominator)
        return DyadicRational(
            self.numerator * other.numerator,
            self.log_denominator + other.log_denominator,
        )

    __rmul__ = __mul__

    def __neg__(self) -> "DyadicRational":
        return DyadicRational(-self.numerator, self.log_denominator)

    def __abs__(self) -> "DyadicRational":
        return DyadicRational(abs(self.numerator), self.log_denominator)

    def square(self) -> "DyadicRational":
        return DyadicRational(self.numerator * self.numerator, 2 * self.log_denominator)

    # -- comparisons --------------------------------------------------------

    def _cmp(self, other) -> int:
        if isinstance(other, int):
            other = DyadicRational(other)
        if isinstance(other, DyadicRational):
            e = max(self.log_denominator, other.log_denominator)
            a = self.numerator << (e - self.log_denominator)
            b = other.numerator << (e - other.log_denominator)
        elif isinstance(other, Fraction):
            # num/2^e vs p/q  <=>  num*q vs p*2^e  (q > 0)
            a = self.numerator * other.denominator
            b = other.numerator << self.log_denominator
        else:
            return NotImplemented
        return (a > b) - (a < b)

    def __lt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c < 0

    def __le__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c <= 0

    def __gt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c > 0

    def __ge__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c >= 0

    def __eq__(self, other):
        if isinstance(other, DyadicRational):
            return (self.numerator == other.numerator
                    and self.log_denominator == other.log_denominator)
        if isinstance(other, (int, Fraction)):
            return self._cmp(other) == 0
        return NotImplemented

    def __hash__(self):
        return hash(self.as_fraction())

    def __bool__(self):
        return self.numerator != 0

    # -- conversions --------------------------------------------------------

    @classmethod
    def from_fraction(cls, frac: Fraction) -> "DyadicRational":
        den = frac.denominator
        e = den.bit_length() - 1
        if den != (1 << e):
            raise ValueError(f"{frac} is not dyadic (denominator {den})")
        return cls(frac.numerator, e)

    def as_fraction(self) -> Fraction:
        return Fraction(self.numerator, 1 << self.log_denominator)

    def __float__(self) -> float:
        return self.numerator / (1 << self.log_denominator)

    def __str__(self) -> str:
        if self.log_denominator == 0:
            return str(self.numerator)
        return f"{self.numerator}/2^{self.log_denominator}"

    def __repr__(self) -> str:
        return f"DyadicRational({self.numerator}, {self.log_denominator})"
