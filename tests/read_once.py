"""Closed forms for read-once DNFs, an oracle at any n up to the cap.

A DNF is read-once when no two of its terms share a variable.  Let V be
the union of the terms' variables, and g_j = 1 - T_j for term T_j of
width w_j.  Then f = 1 - prod_j g_j, and for every S:

* fhat(S) = [S = {}] - prod_j ghat_j(S & vars_j), which is 0 when S is not
  inside V.  Here ghat_j({}) = 1 - 2^-w_j, and ghat_j(A) = -2^-w_j *
  (-1)^|A & positive literals of T_j| for any other A inside vars_j.
* E_S holds at 2^(n - |V|) * prod over the terms missing S of
  (2^w_j - 1) fixed-side assignments x_Sbar, for S nonempty inside V: a
  term missing S must be unsatisfied, or the restriction is constant, and
  a term meeting S must have its literals outside S satisfied, or it
  drops out and leaves a variable of S unread.  The count is 0 when S is
  not inside V, and 2^n at S = {}.
* Every pair of S selects the same cover: the terms that meet S.  So its
  union size u(S) is the sum of their widths, and num_covers(S, u(S)) = 1:
  a cover of S with that union holds every term that meets S.
* The pairs with |S| = d and u(S) = u are 2^(n - |V|) times the
  coefficient of y^d z^u in the product over the terms of
  (2^w_j - 1) + z^w_j ((1 + y)^w_j - 1), for d >= 1: a term either misses
  S, which multiplies the count, or meets it in some nonempty set of its
  variables and adds its width to u.  At d = 0 they are the 2^n pairs of
  S = {}, at u = 0.

Only ``Dnf`` is read from the package, so no refactor of the package can
share a fault with this oracle.  Arithmetic is exact (``Fraction``).
"""
from __future__ import annotations

from fractions import Fraction
from math import comb

from dnf_fourier import Dnf


def _union(dnf: Dnf) -> int:
    """V, the mask of every variable of a term; the terms must be disjoint."""
    union = 0
    for term in dnf.terms:
        if union & term.vars_mask:
            raise ValueError("the DNF is not read-once")
        union |= term.vars_mask
    return union


def coefficient(dnf: Dnf, s_mask: int) -> Fraction:
    """fhat(S) of the 0/1-valued f, with chi_S(x) = (-1)^(sum of x_i, i in S)."""
    if s_mask & ~_union(dnf):
        return Fraction(0)
    product = Fraction(1)
    for term in dnf.terms:
        weight = Fraction(1, 1 << term.width)
        part = s_mask & term.vars_mask
        if part:
            product *= -weight * (-1) ** (part & term.pos_mask).bit_count()
        else:
            product *= 1 - weight
    return (s_mask == 0) - product


def full_depth_count(dnf: Dnf, s_mask: int) -> int:
    """The number of fixed-side assignments x_Sbar at which E_S holds."""
    union = _union(dnf)
    if s_mask == 0:
        return 1 << dnf.n
    if s_mask & ~union:
        return 0
    count = 1 << (dnf.n - union.bit_count())
    for term in dnf.terms:
        if not term.vars_mask & s_mask:
            count *= (1 << term.width) - 1
    return count


def cover(dnf: Dnf, s_mask: int) -> tuple[int, ...]:
    """The cover every pair of S selects: the 1-based indices of the terms
    that meet S, ascending."""
    _union(dnf)
    return tuple(j for j, term in enumerate(dnf.terms, 1) if term.vars_mask & s_mask)


def union_size(dnf: Dnf, s_mask: int) -> int:
    """u(S), the sum of the widths of the terms that meet S."""
    return sum(dnf.terms[j - 1].width for j in cover(dnf, s_mask))


def pair_count(dnf: Dnf, d: int, u: int) -> int:
    """The sum of ``full_depth_count`` over the S with |S| = d and
    u(S) = u, from the product over the terms (see the module docstring)."""
    if d == 0:
        return 1 << dnf.n if u == 0 else 0
    poly = {(0, 0): 1 << (dnf.n - _union(dnf).bit_count())}   # (d, u) -> coefficient
    for term in dnf.terms:
        w = term.width
        factor = {(0, 0): (1 << w) - 1}
        factor.update({(i, w): comb(w, i) for i in range(1, w + 1)})
        product: dict[tuple[int, int], int] = {}
        for (d1, u1), c1 in poly.items():
            for (d2, u2), c2 in factor.items():
                key = (d1 + d2, u1 + u2)
                product[key] = product.get(key, 0) + c1 * c2
        poly = product
    return poly.get((d, u), 0)
