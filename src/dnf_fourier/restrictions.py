"""Restrictions, the full-depth predicate, and the evasiveness bound.

A restriction keeps a set S of variables free and fixes the rest to a
partial assignment; the restricted function lives on |S| variables with
the free variables renumbered ascending.  Fixed-side assignments are
always enumerated in ascending compressed-mask order (bit t of the
compressed index is the value of the t-th smallest fixed variable), so
per-assignment results are reproducible.

Every consumer of restriction depth asks one question: does f_{S|x} have
decision-tree depth exactly |S|?  ``RestrictionTables`` answers it for all
x at once with the full-depth predicate E_S, built bottom-up over S by
whole-array operations on the truth table viewed as a 2 x ... x 2 tensor:

* E_{} is identically true;
* E_{i}(x) holds when f(x) != f(x xor e_i);
* for |S| >= 2, E_S(x) = AND over i in S of (E_{S-i}(x) or E_{S-i}(x xor e_i)).

The last rule holds because a non-constant g has DT(g) = 1 + min over the
query variable of the larger depth of its two answers, so DT(g) = |S|
exactly when every query variable leaves one answer at full depth.

The textbook depth recursion (``dt_depth``) stays as the test oracle.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bitops import bit_indices
from .boolfn import (
    BooleanFunction,
    CapExceededError,
    DimensionMismatchError,
    FourierSpectrum,
)
from .dnf import Dnf
from .dyadic import DyadicRational

#: The DT oracle runs on at most this many variables; it also caps d_max.
DT_CAP = 12


@dataclass(frozen=True, slots=True)
class Restriction:
    """Free-variable mask plus values for every fixed variable.

    ``fixed_bits`` holds the assignment of the complement of ``free_mask``
    (a set bit means true); bits at free positions must be zero.
    """

    n: int
    free_mask: int
    fixed_bits: int

    def __post_init__(self):
        full = (1 << self.n) - 1
        if self.free_mask & ~full:
            raise DimensionMismatchError("free variables beyond n")
        if self.fixed_bits & ~full or self.fixed_bits & self.free_mask:
            raise DimensionMismatchError("fixed assignment overlaps free variables")


def _split(table: int, n: int, i: int) -> tuple[int, int]:
    """Tables of the two subfunctions fixing variable i+1 to false / true."""
    block = 1 << i
    ones = (1 << block) - 1
    t0 = t1 = 0
    for j in range(1 << (n - 1 - i)):
        t0 |= ((table >> (2 * j * block)) & ones) << (j * block)
        t1 |= ((table >> ((2 * j + 1) * block)) & ones) << (j * block)
    return t0, t1


def _dt(n: int, table: int, memo: dict[tuple[int, int], int]) -> int:
    if table == 0 or table == (1 << (1 << n)) - 1:
        return 0
    key = (n, table)
    cached = memo.get(key)
    if cached is not None:
        return cached
    best = n
    for i in range(n):
        t0, t1 = _split(table, n, i)
        depth = 1 + max(_dt(n - 1, t0, memo), _dt(n - 1, t1, memo))
        if depth < best:
            best = depth
            if best == 1:
                break
    memo[key] = best
    return best


def dt_depth(g: BooleanFunction, cap: int = DT_CAP) -> int:
    """Exact decision-tree depth of g (g.n must not exceed the cap).

    The textbook recursion: 0 for constants, else 1 + min over the query
    variable of the max over its two answers.  It is the oracle that the
    full-depth predicate of ``RestrictionTables`` is tested against.
    """
    if g.n > cap:
        raise CapExceededError(f"decision-tree recursion capped at n={cap}")
    return _dt(g.n, g.bits, {})


def restrict(f: BooleanFunction, r: Restriction) -> BooleanFunction:
    """The function of |S| variables obtained by fixing the complement of S.

    The free set must be nonempty: the result type represents functions of
    at least one variable.  (For an empty free set the full-depth predicate
    of RestrictionTables is identically true.)
    """
    if r.n != f.n:
        raise DimensionMismatchError(f"restriction over n={r.n}, function n={f.n}")
    if r.free_mask == 0:
        raise ValueError("free set is empty; the restriction is a single value")
    if r.free_mask == (1 << f.n) - 1:
        return f
    free = bit_indices(r.free_mask)
    bits = 0
    for xs in range(1 << len(free)):
        x = r.fixed_bits
        for t, b in enumerate(free):
            if (xs >> t) & 1:
                x |= 1 << b
        bits |= f.value(x) << xs
    return BooleanFunction(len(free), bits)


class RestrictionTables:
    """Full-depth lookups for all restrictions of one function.

    For a free-variable mask S the table E_S says, for every fixed-side
    assignment x, whether f_{S|x} has decision-tree depth exactly |S| (see
    the module docstring).  Tables are built from the tables of the
    subsets S - i and cached per mask; each holds 2^(n-|S|) booleans.  It
    is the shared workhorse behind the evasiveness checks, the encoder,
    and the family classification.

    The encoder asks for one entry at a time (``full_depth_at``).  For
    that, each mask it asks about also keeps a ``memoryview`` of its
    cached table (a view, not a copy) and the bit positions of S, highest
    first, with which a full assignment is compressed to the table index.
    """

    def __init__(self, f: BooleanFunction):
        self.f = f
        self.n = f.n
        self._arr = f.to_array().view(np.bool_).reshape((2,) * f.n)
        self._by_sbar: dict[int, np.ndarray] = {}
        self._by_full: dict[int, np.ndarray] = {}
        self._lookup: dict[int, tuple[memoryview, tuple[int, ...]]] = {}

    def _tensor(self, free_mask: int) -> np.ndarray:
        """E_S as a tensor with singleton axes on S (axis n-1-i is variable i+1)."""
        n = self.n
        shape = tuple(1 if (free_mask >> (n - 1 - ax)) & 1 else 2 for ax in range(n))
        return self.dt_by_sbar(free_mask).reshape(shape)

    def dt_by_sbar(self, free_mask: int) -> np.ndarray:
        """Full-depth predicate E_S for every compressed fixed assignment x:
        a read-only bool array of length 2^(n-|S|), true where f_{S|x} has
        decision-tree depth exactly |S|."""
        cached = self._by_sbar.get(free_mask)
        if cached is not None:
            return cached
        n = self.n
        free = bit_indices(free_mask)
        if not free:
            table = np.ones(self._arr.shape, dtype=np.bool_)
        elif len(free) == 1:
            lo, hi = np.split(self._arr, 2, axis=n - 1 - free[0])
            table = lo != hi
        else:
            # E_{S-i}(x) or E_{S-i}(x xor e_i) is the OR of the two halves of
            # E_{S-i} along variable i, which is bit p of its compressed index
            # (p fixed variables lie below i): an elementwise OR, far faster
            # than .any over an axis of length 2, written in the order of
            # E_S's compressed index
            table = np.empty(1 << (n - len(free)), dtype=np.bool_)
            scratch = np.empty_like(table)
            for t, i in enumerate(free):
                p = i - t
                halves = self.dt_by_sbar(free_mask ^ (1 << i)).reshape(-1, 2, 1 << p)
                dest = table if t == 0 else scratch
                np.logical_or(halves[:, 0], halves[:, 1], out=dest.reshape(-1, 1 << p))
                if t:
                    table &= scratch
        out = table.reshape(-1)
        out.setflags(write=False)
        self._by_sbar[free_mask] = out
        return out

    def dt_by_full(self, free_mask: int) -> np.ndarray:
        """Full-depth predicate E_S indexed by a full n-bit assignment x (the
        values of x on S are ignored): a read-only bool array of length 2^n.

        Each cached table holds 2^n bytes, so production code reads the
        compressed tables instead; this stays for the tests, and because
        bench/spans.py wraps the name."""
        cached = self._by_full.get(free_mask)
        if cached is not None:
            return cached
        out = np.broadcast_to(self._tensor(free_mask), self._arr.shape).reshape(-1)
        out.setflags(write=False)
        self._by_full[free_mask] = out
        return out

    def full_depth_at(self, free_mask: int, x: int) -> bool:
        """Whether the restriction to free_mask at (the fixed bits of) x has
        decision-tree depth exactly |S|."""
        # the encoder's per-pair hot path (one call per question it asks):
        # no numpy scalar, the memoryview yields a Python bool
        entry = self._lookup.get(free_mask)
        if entry is None:
            entry = (memoryview(self.dt_by_sbar(free_mask)),
                     tuple(reversed(bit_indices(free_mask))))
            self._lookup[free_mask] = entry
        table, free_desc = entry
        for b in free_desc:     # delete bit b of x, the higher bits move down
            x = (x & ((1 << b) - 1)) | ((x >> (b + 1)) << b)
        return table[x]

    def full_depth_sbar_indices(self, free_mask: int) -> np.ndarray:
        """Compressed fixed assignments where the restriction needs full depth."""
        return np.flatnonzero(self.dt_by_sbar(free_mask))

    def full_depth_count(self, free_mask: int) -> int:
        return int(np.count_nonzero(self.dt_by_sbar(free_mask)))


def satisfied_union_table(dnf: Dnf) -> np.ndarray:
    """For every full assignment x, the mask U(x) of variables appearing in
    at least one term satisfied by x, as uint32 (n <= 24)."""
    x = np.arange(1 << dnf.n, dtype=np.uint32)
    union = np.zeros(1 << dnf.n, dtype=np.uint32)
    for t in dnf.terms:
        sat = (x & t.vars_mask) == t.pos_mask
        union[sat] |= t.vars_mask
    union.setflags(write=False)
    return union


def union_superset_counts(sat_union: np.ndarray, n: int) -> np.ndarray:
    """Entry S is the number of assignments x with S inside U(x), for every
    mask S at once (``sat_union`` is ``satisfied_union_table``'s U).

    The histogram of U, summed over supersets: n in-place additions of one
    half of the (2,)*n tensor into the other (Yates 1937; Bjorklund,
    Husfeldt, Kaski and Koivisto, STOC 2007), the stage structure of
    ``boolfn.walsh_butterfly``.  Every count is at most 2^n, so int32 holds
    it."""
    counts = np.bincount(sat_union, minlength=1 << n).astype(np.int32)
    for i in range(n):
        halves = counts.reshape(-1, 2, 1 << i)
        halves[:, 0, :] += halves[:, 1, :]   # S without i gains S with i
    counts.setflags(write=False)
    return counts


def evasive_bound_check(
    tables: RestrictionTables, s_mask: int, spec: FourierSpectrum
) -> tuple[DyadicRational, DyadicRational, bool]:
    """Compare |fhat(S)| against the fraction of fixed-side assignments where
    the full-depth predicate E_S holds (the restriction needs depth |S|).

    Returns (lhs, rhs, lhs <= rhs), all exact.
    """
    d = s_mask.bit_count()
    lhs = abs(spec.coeff(s_mask))
    rhs = DyadicRational(tables.full_depth_count(s_mask), tables.n - d)
    return lhs, rhs, lhs <= rhs


def cover_probability_check(
    f_dnf: Dnf, s_mask: int, spec: FourierSpectrum, superset_counts: np.ndarray
) -> tuple[DyadicRational, DyadicRational, bool]:
    """Compare |fhat(S)| against 2^|S| times the probability that every
    variable of S lies in some term satisfied by a uniform input
    (``superset_counts`` is ``union_superset_counts`` of
    ``satisfied_union_table(f_dnf)``).

    Returns (lhs, rhs, lhs <= rhs), all exact.
    """
    d = s_mask.bit_count()
    lhs = abs(spec.coeff(s_mask))
    covered = int(superset_counts[s_mask])
    rhs = DyadicRational(covered << d, f_dnf.n)
    return lhs, rhs, lhs <= rhs
