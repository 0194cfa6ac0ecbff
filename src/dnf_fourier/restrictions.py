"""Full-depth restriction tables, and the evasiveness and cover bounds.

A restriction keeps a set S of variables free and fixes the rest to a
partial assignment.  Fixed-side assignments are always enumerated in
ascending compressed-mask order (bit t of the compressed index is the
value of the t-th smallest fixed variable), so per-assignment results are
reproducible.

Every consumer of restriction depth asks one question: does f_{S|x} have
decision-tree depth exactly |S|?  ``RestrictionTables`` answers it for all
x at once with the full-depth predicate E_S, built bottom-up over S by
whole-array operations:

* E_{} is identically true;
* E_{i}(x) holds when f(x) != f(x xor e_i);
* for |S| >= 2, E_S(x) = AND over i in S of (E_{S-i}(x) or E_{S-i}(x xor e_i)).

The last rule holds because a non-constant g has DT(g) = 1 + min over the
query variable of the larger depth of its two answers, so DT(g) = |S|
exactly when every query variable leaves one answer at full depth.

Every table, the truth table included, is bit-packed
(``np.packbits(..., bitorder="little")``): entry x is bit x & 7 of byte
x >> 3, and a table of fewer than 8 entries is one byte whose unused bits
are zero.  A table is built from its packed parents directly: the two
halves along bit p of a parent's index are a byte reshape for p >= 3 and,
for p < 3, a 256-entry lookup table that combines the bit pairs inside
each byte.  Every reader walks the subsets in one pass,
``RestrictionTables.visit``: each S with |S| <= d_max, ascending, so its
parents come first.  E_S with |S| = d_max is dropped once the caller
moves past S, since an encoder round asks only about proper subsets of
its own S (at d_max 4 that level holds over half of the table bytes),
and every table when the pass ends, or is abandoned: a caller that
raises mid-pass closes the pass, which keeps no table.  Counts stay,
for ``evasive``.

The pass prunes by the zero-parent rule: if some parent E_{S-i} is all
zero, the factor of i in the last rule above is zero everywhere, so E_S
is all zero too.  Such an S is given count 0 before it is yielded, and
no table, and so no x_Sbar, is built for it; it is still yielded in its
place, so ``evasive`` writes its row.  Its parents come first, so their
counts are known.  A function that ignores variable i has E_{i} all
zero, so every larger S that holds i has count 0 and no table.

The tables own every full-depth fact the package reads.  The index of a
full assignment x in E_S is x with the bits of S deleted: the OR of
(x >> shift) & mask over S's compress plan (``compress_plan``), one
(shift, mask) pair per run of fixed variables (at most |S| + 1)
(``compress``).  The encoder reads single entries through
``full_depth_entry``, which makes a view of E_S and its plan on each
call and keeps neither; ``full_depth_rows`` reads a whole batch of x
with numpy.  Run backwards, the plan turns the indices where E_S holds
into the x_Sbar masks of the full-depth pairs (``full_depth_xsbars``),
which the family analysis and ``valid_pairs`` read.  The cache holds
tables only: what the family analysis keeps per pair, it keeps in its
own pass's cover table (see the encoder's module docstring).

The textbook depth recursion, the oracle of the predicate, is in the tests.
"""
from __future__ import annotations

import functools
from collections import Counter
from typing import Iterable, Iterator

import numpy as np

from .bitops import bit_indices, subsets_up_to
from .boolfn import BooleanFunction, FourierSpectrum, count_set_bits
from .dnf import Dnf
from .dyadic import DyadicRational

#: Entries of a table per unpacking in ``full_depth_xsbars`` (a multiple
#: of 8, whole bytes of the packed table).
INDEX_CHUNK = 1 << 16

#: Largest d_max: the subsets with |S| <= d_max, and with them the tables,
#: the encodings and the cover counts of a run, grow as C(n, d_max).
DT_CAP = 12


@functools.cache
def _pair_tables(op) -> tuple[np.ndarray, np.ndarray]:
    """For p < 3: byte v to the op of its bit pairs (k, k + 2^p), k with bit
    p clear, ascending, as the low nibble (row p of the first table) and
    as the high nibble (row p of the second).  Built on first use, so a run
    that builds no table does not pay for them."""
    v = np.arange(256)
    low = np.zeros((3, 256), dtype=np.uint8)
    for p in range(3):
        for j, k in enumerate(k for k in range(8) if not k >> p & 1):
            low[p] |= (op(v >> k, v >> (k + (1 << p))) & 1).astype(np.uint8) << j
    return low, low << 4


def _halves(packed: np.ndarray, p: int, op, out: np.ndarray) -> None:
    """Write op(T(x), T(x xor 2^p)) for the packed table T, in the order of
    its index with bit p deleted, packed into ``out`` (half of T's bytes,
    or one)."""
    if p >= 3:
        halves = packed.reshape(-1, 2, 1 << (p - 3))
        op(halves[:, 0], halves[:, 1], out=out.reshape(-1, 1 << (p - 3)))
        return
    low, high = _pair_tables(op)
    if packed.size == 1:
        np.take(low[p], packed, out=out)
    else:
        np.take(low[p], packed[0::2], out=out)
        out |= high[p][packed[1::2]]


def compress(x, plan: tuple):
    """The index of the n-bit mask x, an int or each entry of a uint32
    array, in the table whose compress plan is ``plan``: the OR of
    (x >> shift) & mask over the plan, 0 for an empty plan.  It is linear
    in OR: compress(x | b) = compress(x) | compress(b)."""
    i = 0
    for shift, mask in plan:
        i |= x >> shift & mask
    return i


def compress_plan(n: int, free_mask: int) -> tuple:
    """S's compress plan over n variables: one (shift, mask) pair per run of
    fixed bits low..b-1, the run moved down by the number of bits of S
    below it."""
    plan, low = [], 0
    for shift, b in enumerate(bit_indices(free_mask) + [n]):
        if b > low:
            plan.append((shift, ((1 << (b - low)) - 1) << (low - shift)))
        low = b + 1
    return tuple(plan)


class RestrictionTables:
    """Full-depth lookups for all restrictions of one function.

    For a free-variable mask S the table E_S says, for every fixed-side
    assignment x, whether f_{S|x} has decision-tree depth exactly |S| (see
    the module docstring).  Tables are built from the tables of the
    subsets S - i and cached per mask, each 2^(n-|S|) bits packed.  It is
    the shared workhorse behind the evasiveness checks, the encoder, and
    the family classification.

    One cache holds a table per mask: ``_by_sbar[S]`` is E_S, a read-only
    packed array, and nothing else.  ``release`` drops it, and keeps S's
    count.
    """

    def __init__(self, f: BooleanFunction):
        self.n = f.n
        self._f_packed = f.packed()
        self._by_sbar: dict[int, np.ndarray] = {}   # S -> E_S
        self._counts: dict[int, int] = {}

    def visit(self, d_max: int) -> Iterator[int]:
        """The subset pass (see the module docstring).  An S with a parent
        S - i of count 0 is given count 0 before it is yielded, and no
        table."""
        count = self.full_depth_count
        try:
            for s_mask in subsets_up_to(self.n, d_max):
                if any(count(s_mask ^ 1 << i) == 0 for i in bit_indices(s_mask)):
                    self._counts[s_mask] = 0
                yield s_mask
                if s_mask.bit_count() == d_max:
                    self.release(s_mask)
        finally:
            self._by_sbar.clear()

    def dt_by_sbar(self, free_mask: int) -> np.ndarray:
        """Full-depth predicate E_S for every compressed fixed assignment x,
        packed: a read-only uint8 array whose bit x is true where f_{S|x}
        has decision-tree depth exactly |S|.  A released table is built
        again."""
        cached = self._by_sbar.get(free_mask)
        if cached is not None:
            return cached
        n = self.n
        free = bit_indices(free_mask)
        table = np.empty(max(1, (1 << (n - len(free))) >> 3), dtype=np.uint8)
        if not free:
            table.fill(0xFF if n >= 3 else (1 << (1 << n)) - 1)
        elif len(free) == 1:
            _halves(self._f_packed, free[0], np.bitwise_xor, table)
        else:
            # E_{S-i}(x) or E_{S-i}(x xor e_i) is the OR of the two halves of
            # E_{S-i} along variable i, which is bit p of its compressed index
            # (p fixed variables lie below i), written in the order of E_S's
            # compressed index
            scratch = np.empty_like(table)
            for t, i in enumerate(free):
                dest = table if t == 0 else scratch
                _halves(self.dt_by_sbar(free_mask ^ (1 << i)), i - t, np.bitwise_or, dest)
                if t:
                    table &= scratch
        table.setflags(write=False)
        self._by_sbar[free_mask] = table
        return table

    def release(self, free_mask: int) -> None:
        """Drop E_S, not its count."""
        self._by_sbar.pop(free_mask, None)

    def dt_by_full(self, free_mask: int) -> np.ndarray:
        """Full-depth predicate E_S indexed by a full n-bit assignment x (the
        values of x on S are ignored): a read-only bool array of length 2^n,
        built on each call and kept nowhere.

        Production code reads the compressed tables instead; this stays for
        the tests, and because bench/spans.py wraps the name."""
        n = self.n
        table = np.unpackbits(self.dt_by_sbar(free_mask), count=1 << (n - free_mask.bit_count()),
                              bitorder="little").view(np.bool_)
        # axis n-1-i of the (2,)*n tensor is variable i+1: singleton on S
        shape = tuple(1 if (free_mask >> (n - 1 - ax)) & 1 else 2 for ax in range(n))
        out = np.broadcast_to(table.reshape(shape), (2,) * n)
        out = out.reshape(-1)
        out.setflags(write=False)
        return out

    def full_depth_entry(self, free_mask: int) -> tuple[memoryview, tuple]:
        """E_S as a ``memoryview`` of its packed table and S's compress plan:
        entry x of the table is bit i & 7 of byte i >> 3, with i the OR of
        (x >> shift) & mask over the plan.  Both are made on each call and
        kept by the caller only.  Reading the view yields a Python int, not
        a numpy scalar."""
        return memoryview(self.dt_by_sbar(free_mask)), compress_plan(self.n, free_mask)

    def full_depth_at(self, free_mask: int, x: int) -> int:
        """1 if the restriction to free_mask at (the fixed bits of) x has
        decision-tree depth exactly |S|, else 0."""
        table, plan = self.full_depth_entry(free_mask)
        i = compress(x, plan)
        return table[i >> 3] >> (i & 7) & 1

    def full_depth_rows(self, free_mask: int, xs: np.ndarray) -> np.ndarray:
        """``full_depth_at`` for each n-bit mask of the uint32 array ``xs``
        at once, as a bool array."""
        table = self.dt_by_sbar(free_mask)
        # from a zero array, so that an empty plan (S holds every variable)
        # still gives an array
        index = np.zeros_like(xs) | compress(xs, compress_plan(self.n, free_mask))
        return (table[index >> 3] >> (index & 7) & 1).astype(bool)

    def full_depth_xsbars(self, free_mask: int) -> np.ndarray:
        """The fixed-side assignments x_Sbar where E_S holds, as n-bit masks,
        ascending, in a read-only uint32 array (n <= 24): each index i
        where the table holds, run back through S's compress plan (the OR
        of (i & mask) << shift), ``INDEX_CHUNK`` entries at a time, so no
        temporary is as large as the result.  For S = {} the indices are
        the masks.  A subset of count 0 reads no table, so a pass builds
        none for it."""
        count = self.full_depth_count(free_mask)
        out = np.empty(count, dtype=np.uint32)
        packed = self.dt_by_sbar(free_mask) if count else np.empty(0, np.uint8)
        plan = compress_plan(self.n, free_mask) if free_mask and count else ()
        filled, step = 0, INDEX_CHUNK >> 3
        for lo in range(0, packed.size, step):   # unused bits are zero
            index = np.flatnonzero(np.unpackbits(packed[lo:lo + step], bitorder="little"))
            index += lo << 3
            if plan:   # the runs are disjoint, so their sum is their OR
                index = sum((index & mask) << shift for shift, mask in plan)
            out[filled:filled + index.size] = index
            filled += index.size
        out.setflags(write=False)
        return out

    def full_depth_count(self, free_mask: int) -> int:
        """The number of x_Sbar where E_S holds, kept: it outlives the table."""
        count = self._counts.get(free_mask)
        if count is None:
            count = count_set_bits(self.dt_by_sbar(free_mask))
            self._counts[free_mask] = count
        return count


#: Assignments x per chunk of U, a power of two: the ``cover_probability``
#: check makes U, and counts it, one chunk at a time.
UNION_CHUNK = 1 << 16

#: Entries of the (masks x values) temporary of ``union_superset_counts``.
SUPERSET_BLOCK = 1 << 14


def satisfied_union_table(dnf: Dnf, lo: int, size: int) -> np.ndarray:
    """For the ``size`` assignments x from ``lo`` (size a power of two, lo
    a multiple of it), the mask U(x) of variables appearing in at least one term
    satisfied by x, as uint32 (n <= 24).  The chunk's x share their bits
    above the low b = log2(size): each term whose literals there agree
    with lo ORs its mask into its ``subcube`` of the chunk's (2,)*b view."""
    union = np.zeros(size, dtype=np.uint32)
    b = size.bit_length() - 1
    cube = union.reshape((2,) * b)
    high = -size   # the bits above the low b
    for t in dnf.terms:
        if (lo ^ t.pos_mask) & t.vars_mask & high == 0:
            cube[t.subcube(b)] |= np.uint32(t.vars_mask)
    union.setflags(write=False)
    return union


def union_superset_counts(chunks: Iterable[np.ndarray], masks) -> np.ndarray:
    """Entry i is the number of assignments x with masks[i] inside U(x),
    from U's ``chunks`` (``satisfied_union_table``'s, which together cover
    every x once).

    U takes few distinct values (hundreds at n = 24), so its histogram is
    counted one chunk at a time, and U never exists whole.  A mask's count
    sums the histogram over the values that hold it, for a block of masks
    at a time whose (masks x values) temporary has at most SUPERSET_BLOCK
    entries."""
    hist = Counter()
    for chunk in chunks:
        values, times = np.unique(chunk, return_counts=True)
        hist.update(dict(zip(values.tolist(), times.tolist())))
    values = np.fromiter(hist, np.uint32, len(hist))
    times = np.fromiter(hist.values(), np.int64, len(hist))
    masks = np.asarray(masks, dtype=np.uint32)
    step = max(1, SUPERSET_BLOCK // max(1, len(hist)))
    counts = np.empty(len(masks), dtype=np.int64)
    for lo in range(0, len(masks), step):
        counts[lo:lo + step] = ((masks[lo:lo + step, None] & ~values) == 0) @ times
    counts.setflags(write=False)
    return counts


def evasive_bound_check(
    witnesses: int, s_mask: int, spec: FourierSpectrum
) -> tuple[DyadicRational, DyadicRational, bool]:
    """Compare |fhat(S)| against the fraction of fixed-side assignments where
    the full-depth predicate E_S holds (the restriction needs depth |S|);
    ``witnesses`` is their number, ``RestrictionTables.full_depth_count``.

    Returns (lhs, rhs, lhs <= rhs), all exact.
    """
    lhs = abs(spec.coeff(s_mask))
    rhs = DyadicRational(witnesses, spec.n - s_mask.bit_count())
    return lhs, rhs, lhs <= rhs


def cover_probability_check(
    f_dnf: Dnf, s_mask: int, spec: FourierSpectrum, covered: int
) -> tuple[DyadicRational, DyadicRational, bool]:
    """Compare |fhat(S)| against 2^|S| times the probability that every
    variable of S lies in some term satisfied by a uniform input; that
    happens on ``covered`` inputs (S's entry of ``union_superset_counts``
    of the chunks of ``satisfied_union_table`` on f_dnf).

    Returns (lhs, rhs, lhs <= rhs), all exact.
    """
    d = s_mask.bit_count()
    lhs = abs(spec.coeff(s_mask))
    rhs = DyadicRational(covered << d, f_dnf.n)
    return lhs, rhs, lhs <= rhs
