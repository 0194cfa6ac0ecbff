"""Truth-table Boolean functions and their exact Fourier spectra.

Conventions used throughout the package:

* Variables are numbered 1..n.
* An assignment of all n variables is an n-bit integer mask: bit i-1 is 1
  exactly when variable i takes the input value -1, i.e. is "true".
  (Inputs live in {-1,1} with -1 meaning true; outputs are 0/1 with 1
  meaning true.)
* A subset S of variables is likewise an n-bit mask, bit i-1 for variable i.
* A truth table is packed: bit x & 7 of byte x >> 3 is f(x) for assignment
  mask x.

With these conventions the character x^S evaluated at assignment x equals
(-1)**popcount(x & S), so coefficient S of the spectrum is

    fhat(S) = 2^-n * sum_x f(x) * (-1)**popcount(x & S),

an integer over 2^n.  All spectra are therefore stored as exact integer
vectors scaled by 2^n, and exposed as DyadicRational values.
"""
from __future__ import annotations

import functools
import json
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


def _check_n(n: int) -> None:
    if not 1 <= n <= N_CAP:
        raise CapExceededError(f"n={n} outside [1, {N_CAP}]")


class BooleanFunction:
    """An explicit truth table over n variables, packed as by
    ``np.packbits(..., bitorder="little")``: max(1, 2^n / 8) bytes, bit
    x & 7 of byte x >> 3 is f(x), and the unused bits (n < 3) are zero.  It
    holds a read-only view of the array it is given, not a copy; equality
    and hashing are on (n, the bytes)."""

    __slots__ = ("n", "_packed")

    def __init__(self, n: int, packed: np.ndarray):
        _check_n(n)
        table = np.asarray(packed).view()
        size = max(1, (1 << n) >> 3)
        if table.dtype != np.uint8 or table.shape != (size,) or n < 3 and table[0] >> (1 << n):
            raise ValueError(f"a truth table on n={n} is {size} uint8 bytes, with no bits "
                             "beyond 2^n entries")
        table.setflags(write=False)
        self.n, self._packed = n, table

    def __eq__(self, other) -> bool:
        if not isinstance(other, BooleanFunction):
            return NotImplemented
        return self.n == other.n and np.array_equal(self._packed, other._packed)

    def __hash__(self) -> int:
        return hash((self.n, self._packed.tobytes()))

    def __repr__(self) -> str:
        return f"BooleanFunction({self.n}, {self._packed!r})"

    @property
    def size(self) -> int:
        return 1 << self.n

    @property
    def ones(self) -> int:
        """Number of satisfying assignments."""
        return count_set_bits(self._packed)

    def value(self, x: int) -> int:
        if not 0 <= x < self.size:
            raise IndexError(f"assignment {x} outside [0, 2^{self.n})")
        return int(self._packed[x >> 3]) >> (x & 7) & 1

    def packed(self) -> np.ndarray:
        """The truth table itself, packed: a read-only uint8 array of
        max(1, 2^n / 8) bytes."""
        return self._packed

    def to_array(self) -> np.ndarray:
        """Truth table as a uint8 array of 0/1, index = assignment mask."""
        return np.unpackbits(self._packed, bitorder="little")[: self.size]

    @classmethod
    def from_array(cls, n: int, table: np.ndarray) -> "BooleanFunction":
        """The function with entry x ``table[x]``, from a 0/1 integer or a
        bool vector, packed as it is: a bool table gets no uint8 copy."""
        return cls(n, np.packbits(np.asarray(table), bitorder="little"))

    @classmethod
    def constant(cls, n: int, value: bool) -> "BooleanFunction":
        byte = (1 << min(8, 1 << n)) - 1 if value else 0
        return cls(n, np.full(max(1, (1 << n) >> 3), byte, dtype=np.uint8))

    # -- serialization: {"n": ..., "table_hex": ...}, LSB = index 0 ---------

    def to_json(self) -> str:
        # the bytes' hex, last byte first, in max(1, 2^n / 4) digits
        hexed = self._packed[::-1].tobytes().hex()[-max(1, self.size // 4):]
        return json.dumps({"n": self.n, "table_hex": hexed})

    @classmethod
    def from_json(cls, text: str) -> "BooleanFunction":
        obj = json.loads(text)
        n, value = int(obj["n"]), int(obj["table_hex"], 16)
        _check_n(n)
        if value < 0 or value.bit_length() > 1 << n:
            raise ValueError("truth table has bits beyond 2^n entries")
        return cls(n, np.frombuffer(value.to_bytes(max(1, (1 << n) >> 3), "little"),
                                    dtype=np.uint8))


@functools.lru_cache(maxsize=32)
def popcount_table(n: int) -> np.ndarray:
    """popcount of every mask in [0, 2^n), as a read-only uint8 array.

    Built by doubling: the masks in [2^i, 2^(i+1)) have one more bit set
    than the masks in [0, 2^i)."""
    out = np.zeros(1 << n, dtype=np.uint8)
    for i in range(n):
        h = 1 << i
        np.add(out[:h], 1, out=out[h : 2 * h])
    out.setflags(write=False)
    return out


#: Entries per block in every pass over a whole 2^n vector (the fill of
#: ``fourier_transform``, ``_profile``, ``_sum_squares`` and the gather of
#: ``ranked_masks``), so that none makes a 2^n temporary, and bytes per
#: block of ``count_set_bits`` over a packed table; also the cap of
#: ``_profile``'s magnitude histogram, which has min(HIST_CHUNK, 2^n) + 1
#: bins.
HIST_CHUNK = 1 << 16


def count_set_bits(a: np.ndarray, b: np.ndarray | None = None) -> int:
    """The number of set bits of the packed table ``a``, or of ``a ^ b``,
    unpacked and counted one block of ``HIST_CHUNK`` bytes at a time, so
    that no temporary is the table's size.  (Unpacking counts twice as
    fast as a gather from ``popcount_table(8)``, with a temporary of the
    same 512 KiB as the gather's index array.)"""
    total = 0
    for lo in range(0, a.size, HIST_CHUNK):
        block = a[lo:lo + HIST_CHUNK]
        if b is not None:
            block = block ^ b[lo:lo + HIST_CHUNK]
        total += int(np.count_nonzero(np.unpackbits(block)))
    return total


class FourierSpectrum:
    """All 2^n Fourier coefficients of one function, exactly.

    ``scaled[mask]`` is ``2^n * fhat(S)`` for the subset with that mask, an
    integer of magnitude at most 2^n <= 2^24, stored as int32.  The
    constructor profiles the vector once (``_profile``): its exact sums of
    squares and of magnitudes at each subset size, and its magnitude groups.
    The totals, ``degree``, the per-degree sums, ``min_coeffs_for_eps`` and
    the cut of ``ranked_masks`` read that profile, not the vector.
    """

    __slots__ = ("n", "scaled", "_square_sums", "_magnitude_sums", "_groups")

    def __init__(self, n: int, scaled: np.ndarray):
        _check_n(n)
        if scaled.shape != (1 << n,):
            raise ValueError("coefficient vector must have length 2^n")
        if scaled.dtype != np.int32:
            raise ValueError(f"coefficient vector must be int32, not {scaled.dtype}")
        self.n = n
        self.scaled = scaled
        self.scaled.setflags(write=False)
        self._square_sums, self._magnitude_sums, self._groups = _profile(scaled)

    def coeff(self, mask: int) -> DyadicRational:
        return DyadicRational(int(self.scaled[mask]), self.n)

    def nonzero_items(self) -> Iterator[tuple[int, DyadicRational]]:
        for m in np.nonzero(self.scaled)[0]:
            yield int(m), self.coeff(int(m))

    def total_weight(self) -> DyadicRational:
        return DyadicRational(sum(self._square_sums), 2 * self.n)

    def one_norm_total(self) -> DyadicRational:
        return DyadicRational(sum(self._magnitude_sums), self.n)

    def degree(self) -> int:
        """Largest |S| with a nonzero coefficient (0 for the zero function)."""
        return max((d for d, w in enumerate(self._square_sums) if w), default=0)

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
        scaled = np.zeros(1 << n, dtype=np.int32)
        seen = set()
        for item in obj["coefficients"]:
            mask = int(item["mask"])
            if not 0 <= mask < 1 << n:
                raise ValueError(f"coefficient mask {mask} outside [0, 2^{n})")
            if mask in seen:
                raise ValueError(f"coefficient mask {mask} listed twice")
            seen.add(mask)
            c = DyadicRational(int(item["numerator"]), int(item["log_denominator"]))
            if c.log_denominator > n:
                raise ValueError("coefficient finer than 2^-n")
            value = c.numerator << (n - c.log_denominator)
            if abs(value) > 1 << n:
                raise ValueError(f"coefficient {c} has magnitude above 1")
            scaled[mask] = value
        spec = cls(n, scaled)
        if sum(spec._square_sums) != int(scaled[0]) << n:   # Parseval: sum fhat^2 = fhat({})
            raise ValueError("not the spectrum of a 0/1 function: it fails Parseval")
        return spec


def _profile(scaled: np.ndarray):
    """One pass over a coefficient vector of length 2^n, indexed by mask: the
    sums of squares and of magnitudes of its entries at each subset size
    0..n, as tuples of ints, and its magnitude groups (the distinct
    magnitudes, largest first and zero included, and how many entries have
    each).  It reads blocks of 2^b <= ``HIST_CHUNK`` entries.  Entry i of the
    block at lo has size popcount(lo) + popcount(i), so in the stable order
    of popcount(i) a block's sums per size are ``reduceat`` segments, none
    empty.  A block's sums are exact in int64 for a spectrum with n <= 24:
    by Parseval the sum of squares is 2^n * #{x : f(x) = 1} <= 2^{2n} <=
    2^48, and the sum of magnitudes is at most 2^{1.5n}; the sums over blocks
    are Python ints.  A block that is all zero adds nothing to the sums:
    its entries go to the histogram's zero bin, and nothing else is done
    with it.

    Magnitudes below cap = min(HIST_CHUNK, 2^n) are counted in a histogram
    of cap + 1 bins, the last of which takes every larger one, so a small
    spectrum gets a small histogram.  The entries at or above the cap are
    kept and grouped once, after the pass; the spectrum of a 0/1 function
    has no magnitude above 2^n, and Parseval leaves at most
    2^{2n} / HIST_CHUNK^2 of them (2^16 at n = 24)."""
    n = scaled.size.bit_length() - 1
    b = min(n, HIST_CHUNK.bit_length() - 1)
    cap = min(HIST_CHUNK, scaled.size)
    sizes = popcount_table(b)
    order = np.argsort(sizes, kind="stable")
    starts = np.searchsorted(sizes[order], np.arange(b + 1))
    square_sums, magnitude_sums = [0] * (n + 1), [0] * (n + 1)
    hist = np.zeros(cap + 1, dtype=np.intp)
    large = []
    part = np.empty(1 << b, dtype=np.int64)
    for lo in range(0, scaled.size, 1 << b):
        block = scaled[lo:lo + (1 << b)]
        if not block.any():
            hist[0] += block.size
            continue
        part[...] = block[order]
        np.abs(part, out=part)
        for sums, values in ((square_sums, part * part), (magnitude_sums, part)):
            for d, total in enumerate(np.add.reduceat(values, starts).tolist(), lo.bit_count()):
                sums[d] += total
        large.append(part[part >= cap])
        hist += np.bincount(np.minimum(part, cap, out=part), minlength=cap + 1)
    large = np.concatenate([part[:0], *large])
    large_mags, large_counts = (np.unique(large, return_counts=True) if large.size
                                else (large, large))
    mags = np.flatnonzero(hist[:cap])[::-1]
    groups = (np.concatenate((large_mags[::-1], mags)),
              np.concatenate((large_counts[::-1], hist[mags])))
    return tuple(square_sums), tuple(magnitude_sums), groups


#: Bytes per cache block of ``walsh_butterfly``, whatever the dtype (2^18
#: int32 entries, 2^17 int64): the low stages run block by block, the high
#: stages on column slices of this size, and the one scratch buffer holds
#: half a block.
WHT_BLOCK_BYTES = 1 << 20

#: Shortest vector whose h = 4 radix-4 stage runs one strided column at a
#: time: below it the column loop's four calls cost more than numpy's slow
#: inner runs of 4 (the two cross near 2^11 entries on x86-64).
COLUMN_LOOP_MIN = 1 << 12


def walsh_butterfly(a: np.ndarray) -> np.ndarray:
    """The divide-and-conquer Walsh-Hadamard transform along axis 0, in place.

    ``a`` must be contiguous, with 2^n entries in 2^m rows; it is
    overwritten and returned.  A vector (m = n) is transformed whole
    (n * 2^n work).  A matrix gets the transform of each of its columns,
    which is the part of the whole vector's transform that pairs entries
    a row or more apart: its stages from stride h = 2^(n-m) up (m * 2^n
    work), for a caller that has done the stages below h itself.  The
    arithmetic is done in ``a``'s own dtype, so the caller picks one that
    holds every partial sum: after stage i an entry is a signed sum of 2^i
    inputs.  Stages run two at a time (radix 4), and every intermediate
    is a value of the stage it completes.

    A block is B = ``WHT_BLOCK_BYTES`` / itemsize entries.  The stages that
    pair entries less than B apart run on one contiguous block at a time;
    the others pair whole rows of the (2^n / B, B) matrix and run on a
    slice of its columns at a time, so each pass stays in cache.  The only
    temporary is a scratch buffer of B / 2 entries (for 2^n <= B^2, so
    n <= 34 in int64).

    Self-inverse up to the 2^n factor: applying it twice to a vector
    multiplies it by 2^n, so it both produces spectra and evaluates them
    back at every point."""
    if not a.flags.c_contiguous:
        raise ValueError("walsh_butterfly needs a contiguous array")
    size = a.size
    if size & (size - 1) or size == 0:
        raise ValueError(f"walsh_butterfly needs a length 2^n, not {size}")
    flat = a.reshape(-1)
    h = size // a.shape[0] if a.ndim else 1
    entries = WHT_BLOCK_BYTES // a.itemsize
    block = min(size, entries)
    scratch = np.empty(block // 2, dtype=a.dtype)
    for lo in range(0, size, block):
        _butterfly_stages(flat[lo : lo + block], scratch, h)
    rows = size // block
    if rows > 1:
        matrix = flat.reshape(rows, block)
        width = max(1, entries // rows)
        for lo in range(0, block, width):
            _butterfly_stages(matrix[:, lo : lo + width], scratch, max(1, h // block))
    return a


def _butterfly_stages(v: np.ndarray, scratch: np.ndarray, h: int = 1) -> None:
    """The butterfly stages from stride ``h`` up along axis 0 of the view
    ``v`` (length 2^k), in place: radix 4 while two stages remain, then
    radix 2 if one does."""
    while 4 * h <= v.shape[0]:
        quads = v.reshape(-1, 4, h, *v.shape[1:])
        if v.ndim == 1 and h == 4 and v.shape[0] >= COLUMN_LOOP_MIN:
            # numpy loops slowly over inner runs of 4: on a long vector take
            # one strided column of the quads at a time instead
            for j in range(h):
                _radix4(*(quads[:, i, j] for i in range(4)), scratch)
        else:
            _radix4(*(quads[:, i] for i in range(4)), scratch)
        h *= 4
    if 2 * h <= v.shape[0]:
        pairs = v.reshape(-1, 2, h, *v.shape[1:])
        x0, x1 = pairs[:, 0], pairs[:, 1]
        t = scratch[: x0.size].reshape(x0.shape)
        np.subtract(x0, x1, out=t)
        x0 += x1
        x1[...] = t


def _radix4(x0, x1, x2, x3, scratch: np.ndarray) -> None:
    """Two butterfly stages on four same-shape quarters, in place: the first
    pairs (x0, x1) and (x2, x3), the second the results two apart."""
    t = scratch[: x0.size].reshape(x0.shape)
    np.subtract(x0, x1, out=t)          # t  = y1 = x0 - x1
    x0 += x1                            # x0 = y0 = x0 + x1
    np.subtract(x2, x3, out=x1)         # x1 = y3 = x2 - x3
    x2 += x3                            # x2 = y2 = x2 + x3
    np.subtract(t, x1, out=x3)          # x3 = y1 - y3
    np.add(t, x1, out=x1)               # x1 = y1 + y3
    np.subtract(x0, x2, out=t)          # t  = y0 - y2
    x0 += x2                            # x0 = y0 + y2
    x2[...] = t


def _byte_spectra() -> np.ndarray:
    """The 8-point transform of every byte of a packed table, as a
    read-only 256 x 8 int8 array: row b is the spectrum, scaled by 8, of
    the eight entries whose values are the bits of b (entry i is bit i).
    Its values lie in [-4, 8]."""
    bits = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1,
                         bitorder="little").astype(np.int8)
    out = walsh_butterfly(np.ascontiguousarray(bits.T)).T.copy()
    out.setflags(write=False)
    return out


#: ``_byte_spectra()``, made once at import: 2 KiB.
_BYTE_SPECTRA = _byte_spectra()


def fourier_transform(f: BooleanFunction) -> FourierSpectrum:
    """Exact spectrum of f, scaled coefficients 2^n * fhat(S) as integers.

    A constant function's spectrum is written directly: every coefficient
    is zero but scaled[0] = #{x : f(x) = 1}, which is 0 or 2^n.  Otherwise
    the butterfly runs in int32: on a 0/1 table every partial sum has
    magnitude at most 2^n <= 2^N_CAP.

    For n >= 4 the int32 buffer starts from the 16-point transforms of the
    table's 16-bit words, filled ``HIST_CHUNK`` entries at a time: with
    lo and hi the ``_BYTE_SPECTRA`` rows of a word's two bytes, its 16
    values are lo + hi, then lo - hi (the stage at stride 8).  The gathers
    are dropped, and the butterfly runs its stages from stride 16 up.
    For n < 4 the table is unpacked into the buffer and transformed whole.
    Beside its result the transform and the profile hold only buffers of
    a block or so."""
    assert f.n <= N_CAP and 1 << N_CAP <= np.iinfo(np.int32).max
    ones = f.ones
    if ones in (0, f.size):
        scaled = np.zeros(f.size, dtype=np.int32)
        scaled[0] = ones
        return FourierSpectrum(f.n, scaled)
    scaled = np.empty(f.size, dtype=np.int32)
    if f.n < 4:
        scaled[...] = f.to_array()
        return FourierSpectrum(f.n, walsh_butterfly(scaled))
    # each row of the table taken as one int64: numpy gathers from a
    # vector much faster than it gathers 8-byte rows
    rows = _BYTE_SPECTRA.view(np.int64).reshape(-1)
    words = f.packed().reshape(-1, 2)
    sixteens = scaled.reshape(-1, 2, 8)
    step = max(1, HIST_CHUNK >> 4)
    for lo in range(0, len(words), step):
        low = rows[words[lo:lo + step, 0]].view(np.int8).reshape(-1, 8)
        high = rows[words[lo:lo + step, 1]].view(np.int8).reshape(-1, 8)
        np.add(low, high, out=sixteens[lo:lo + step, 0])
        np.subtract(low, high, out=sixteens[lo:lo + step, 1])
    del low, high
    walsh_butterfly(sixteens.reshape(-1, 16))
    return FourierSpectrum(f.n, scaled)


def _sum_squares(values: np.ndarray) -> int:
    """The sum of squares of an integer vector, exact: each ``HIST_CHUNK``
    slice's dot is taken in int64."""
    parts = (values[lo:lo + HIST_CHUNK].astype(np.int64)
             for lo in range(0, values.size, HIST_CHUNK))
    return sum(int(np.dot(part, part)) for part in parts)


def one_norm_at_degree(spec: FourierSpectrum, d: int) -> DyadicRational:
    """Sum of |fhat(S)| over subsets of size exactly d."""
    if not 0 <= d <= spec.n:
        raise ValueError(f"degree {d} outside [0, {spec.n}]")
    return DyadicRational(spec._magnitude_sums[d], spec.n)


def weight_at_degree(spec: FourierSpectrum, d: int) -> DyadicRational:
    """Sum of fhat(S)^2 over subsets of size exactly d."""
    if not 0 <= d <= spec.n:
        raise ValueError(f"degree {d} outside [0, {spec.n}]")
    return DyadicRational(spec._square_sums[d], 2 * spec.n)


def weight_above_degree(spec: FourierSpectrum, d: int) -> DyadicRational:
    """Sum of fhat(S)^2 over subsets of size strictly greater than d."""
    if not 0 <= d <= spec.n:
        raise ValueError(f"degree {d} outside [0, {spec.n}]")
    return DyadicRational(sum(spec._square_sums[d + 1:]), 2 * spec.n)


def weight_outside_masks(spec: FourierSpectrum, masks) -> DyadicRational:
    """Sum of fhat(S)^2 over all subsets NOT in the given mask collection
    (a mask listed twice counts once)."""
    # sort and drop repeats by hand: np.unique would import numpy.ma,
    # which adds 1.7 MB to the peak RSS of every run
    kept = np.sort(np.asarray(masks, dtype=np.int64))
    kept = spec.scaled[kept[np.diff(kept, prepend=-1) != 0]]
    outside = sum(spec._square_sums) - _sum_squares(kept)
    return DyadicRational(outside, 2 * spec.n)


def ranked_masks(spec: FourierSpectrum, m: int) -> np.ndarray:
    """The first m subset masks in order of decreasing |coefficient|, ties
    broken by ascending mask.  This ordering defines which coefficients
    are "kept" everywhere in the package.

    Only the m kept masks are sorted: the m-th largest magnitude is read
    off the spectrum's magnitude groups, every mask above it is kept, and
    the masks at it fill the remaining places in ascending order, gathered
    chunk by chunk."""
    if not 0 <= m <= spec.scaled.size:
        raise ValueError(f"m={m} outside [0, 2^{spec.n}]")
    if m == 0:
        return np.zeros(0, dtype=np.intp)
    mags, counts = spec._groups
    at_least = np.cumsum(counts)                  # entry g: #{|coefficient| >= mags[g]}
    g = int(np.searchsorted(at_least, m))         # the first group reaching m
    cut = int(mags[g])
    ties = m - (int(at_least[g - 1]) if g else 0)
    above, at_cut = [], []
    for lo in range(0, spec.scaled.size, HIST_CHUNK):
        part = np.abs(spec.scaled[lo:lo + HIST_CHUNK])
        above.append(np.flatnonzero(part > cut) + lo)
        if ties:
            at_cut.append(np.flatnonzero(part == cut)[:ties] + lo)
            ties -= at_cut[-1].size
    kept = np.concatenate(above + at_cut)
    return kept[np.lexsort((kept, -np.abs(spec.scaled[kept])))]


def min_coeffs_for_eps(spec: FourierSpectrum, eps) -> int:
    """Smallest M such that keeping the M largest-magnitude coefficients
    (ties broken by ascending subset mask) discards squared weight <= eps.

    Coefficients of equal magnitude have equal squares, so M depends only
    on the spectrum's magnitude groups, not on the order within a tie.
    """
    eps = Fraction(eps)
    if not 0 < eps <= 1:
        raise ValueError(f"eps={eps} outside (0, 1]")
    mags, counts = spec._groups
    weighty = mags != 0                           # zeros carry no weight
    mags, counts = mags[weighty], counts[weighty]
    # squared weight kept by taking whole tie groups from the top; every
    # partial sum is at most the total, 2^n * ones <= 2^{2n}, so int64 holds it
    kept = np.cumsum(mags * mags * counts)
    total = int(kept[-1]) if kept.size else 0
    bound = eps.numerator * (1 << (2 * spec.n))
    if total * eps.denominator <= bound:
        return 0
    # keeping squared weight K suffices iff (total - K) * eps.den <= bound,
    # i.e. K >= need (K is an integer); exact big-int arithmetic, since
    # eps.denominator may exceed int64
    need = -((bound - total * eps.denominator) // eps.denominator)
    g = int(np.searchsorted(kept, need))          # first group reaching need
    kept_before = int(kept[g - 1]) if g else 0
    taken_before = int(counts[:g].sum())
    square = int(mags[g]) ** 2
    return taken_before + -((kept_before - need) // square)


def hamming_distance_fraction(f: BooleanFunction, g: BooleanFunction) -> DyadicRational:
    """Pr_x[f(x) != g(x)], exactly."""
    if f.n != g.n:
        raise DimensionMismatchError(f"n mismatch: {f.n} vs {g.n}")
    return DyadicRational(count_set_bits(f.packed(), g.packed()), f.n)
