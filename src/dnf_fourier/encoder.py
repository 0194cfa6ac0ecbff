"""The cover-extracting encoder and its inverse decoder.

Given a DNF f and a pair (S, x_Sbar) whose restriction requires full
decision-tree depth |S|, the encoder produces a triple

    (x_sat, sigma, a)

where x_sat is a full assignment, sigma a set of d = |S| positions, and a
a string of d truth values.  The decoder recovers (S, x_Sbar) from the
triple and f alone, so the map is injective; counting triples then bounds
the number of full-depth pairs, which in turn bounds Fourier mass.

The encoder walks the DNF front to back.  Each round it takes the first
term that the depth-preserving partial assignment x_dt leaves alive, makes
x_sat satisfy that term, extends x_dt over the term's free variables so
that the remaining restriction still has full depth, and appends the
term's new variables to a growing variable string c.  sigma records where
the variables of S sit inside c; a records the x_dt values that the decoder
must write back.  The terms selected this way are the *cover* of (S,
x_Sbar) and the size u of their variable union is the cover's union size.

Determinism choices (part of the data contract, relied on by golden tests):

* within a term, variables enter c in ascending index order;
* the depth-preserving assignment is the lexicographically smallest
  qualifying one, taking variables in ascending order with false before
  true;
* sigma positions are 1-based.

``encode_row`` is the per-pair encoder's core.  It builds no object per
pair: it returns a plain row (x_sat, sigma as a list, a packed as bits
with bit t the t-th truth value, the cover's term indices, the union
size), and each check of the encoder runs in it, the union-size check as
one integer compare at the end.  ``encode`` is a thin wrapper that builds
the ``Encoding``, which is the row's (x_sat, sigma, a) as one row of an
``EncodingRecord``, and the ``CoverRecord``.  In
``verify`` each full-depth pair with S nonempty is encoded once:
``FamilyAnalysis`` encodes it (through ``extract_cover``, which returns
the row).  When the analysis has a consumer of the encodings (the
``roundtrip`` check, ``encdec-test``), it packs the rows of each subset
into an ``EncodingRecord`` of arrays, which checks the sigma positions of
every row at once, and hands it over at the end of the subset's pass;
``sweep`` has none and packs nothing.  The pairs with S empty are not
encoded at all: their encoding is x_sat = x with empty sigma and a, and
the analysis writes that record directly.

Each round scans the terms from the previous round's selected term on,
that term included: every term before it was falsified in an earlier
round, and an assigned bit never changes.  The scan from the first term,
with an object built per pair, stays in the tests as ``oracle_encode``,
the oracle of the core and of a future batched encoder.

Each full-depth question is asked of the tables at most once per pair:
one lookup for the precondition, then one per depth-preserving candidate
tried.  The question at the top of a round is the one that the previous
lookup (or, in round 1, the precondition) answered.  The last round,
whose block is all of the remaining free set, asks nothing: E_{} is
identically true, so its first candidate, every variable false, is
taken.  On ``bench/instances/readk16.dnf`` at d_max 4 the 158,288 encodes
ask 578,404 questions.  A round fetches its table's entry
(``RestrictionTables.full_depth_entry``) once and indexes it inline for
each candidate.  ``valid_pairs`` and the family analysis read each
subset's x_Sbar masks from ``RestrictionTables.full_depth_xsbars``, in
the tables' pass (``RestrictionTables.visit``).

``decode_records`` is the one decoder.  It inverts a whole batch of
same-degree encodings with numpy, and the ``roundtrip`` check decodes
every pair through it, in chunks, as the analysis hands over each
subset's record: a row that fails a check is reported by the index of
its ``DecodeError`` message in ``DECODE_ERRORS``.  ``decode`` is one
``Encoding`` through it, as a one-row batch.  The scalar round loop stays
in the tests as ``oracle_decode``, the oracle of both.
``dnf-fourier encdec-test`` runs ``verify``'s family analysis and batched
round trip too, and writes its corpus from the record arrays as each
subset's record arrives, each line's ``encoding`` object by
``encoding_json``, the codec that ``Encoding`` uses too: it calls neither
``encode`` nor ``decode`` and builds no ``Encoding``.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import Iterator, Sequence

import numpy as np

from .bitops import bit_indices, pdep
from .dnf import Dnf
from .restrictions import RestrictionTables


class EncodePreconditionError(ValueError):
    """encode() called on a pair whose restriction lacks full depth."""


class EncodingInvariantError(RuntimeError):
    """An internal encoder invariant failed: a fatal correctness bug.

    ``row`` is the index of the failing pair when a check over a whole
    record failed (``EncodingRecord.pack``), and None otherwise."""

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


class DecodeError(ValueError):
    """The triple is not an encoding of any valid pair for this DNF."""


#: The messages of the DecodeErrors a triple can fail with.  Entry 0
#: stands for no error: ``decode_records`` returns an index into this tuple.
TRUTH_VALUES_BEYOND_D = "truth values beyond the d positions"
SIGMA_NOT_DISTINCT = "sigma positions must be distinct"
SIGMA_NOT_1_BASED = "sigma positions are 1-based"
BITS_BEYOND_N = "assignment has bits beyond n variables"
NO_PROGRESS = "no progress after d rounds; not a valid encoding"
NO_SATISFIED_TERM = "no satisfied term while variables remain"
NO_NEW_VARIABLE = "a round recovered no new variables"
MORE_THAN_D = "recovered more than d variables"
DECODE_ERRORS = (
    None, TRUTH_VALUES_BEYOND_D, SIGMA_NOT_DISTINCT, SIGMA_NOT_1_BASED, BITS_BEYOND_N,
    NO_PROGRESS, NO_SATISFIED_TERM, NO_NEW_VARIABLE, MORE_THAN_D,
)


#: One encoded pair as ``encode_row`` returns it: (x_sat, sigma, a, cover
#: term indices, union size), where sigma lists the 1-based positions in c
#: in ascending order, a packs the truth values (bit t is the t-th), and
#: the cover's 1-based term indices strictly increase.
EncodedRow = tuple[int, list[int], int, tuple[int, ...], int]


@dataclass(frozen=True, slots=True)
class Encoding:
    """The (x_sat, sigma, a) triple for one full-depth pair: one row of an
    ``EncodingRecord``.

    ``x_sat`` is a full n-bit assignment mask; ``sigma`` is a tuple of
    1-based positions into the encoder's variable string c (ascending, as
    the encoder writes it); ``a`` packs the len(sigma) = |S| truth values,
    bit t the t-th (set: the variable is true).  The constructor rejects
    what ``EncodingRecord.pack`` rejects of a row, with the same message.
    """

    n: int
    x_sat: int
    sigma: tuple[int, ...]
    a: int

    def __post_init__(self):
        # _row_checks on one row, in its order
        if self.a >> len(self.sigma):
            raise ValueError(TRUTH_VALUES_BEYOND_D)
        if len(set(self.sigma)) != len(self.sigma):
            raise ValueError(SIGMA_NOT_DISTINCT)
        if any(p < 1 for p in self.sigma):
            raise ValueError(SIGMA_NOT_1_BASED)

    @property
    def d(self) -> int:
        return len(self.sigma)

    def to_dict(self) -> dict:
        return encoding_json(self.x_sat, self.sigma, self.a)

    @classmethod
    def from_dict(cls, n: int, obj: dict) -> "Encoding":
        """The encoding that ``encoding_json`` wrote as ``obj``."""
        sigma, values = tuple(int(p) for p in obj["sigma"]), obj["a"]
        if len(values) != len(sigma):
            raise ValueError(f"{len(values)} truth values for {len(sigma)} sigma positions")
        return cls(n, int(obj["x_sat"]), sigma, sum(bool(v) << t for t, v in enumerate(values)))


def encoding_json(x_sat: int, sigma: Sequence[int], a: int) -> dict:
    """The JSON object of one encoding, as a corpus line holds it: the
    truth values unpacked into a list of len(sigma) 0/1 values."""
    return {"x_sat": x_sat, "sigma": list(sigma), "a": [a >> t & 1 for t in range(len(sigma))]}


@dataclass(frozen=True, slots=True)
class CoverRecord:
    """The terms the encoder selected and the size of their variable union."""

    term_indices: tuple[int, ...]  # 1-based, strictly increasing
    union_size: int
    union_mask: int

    def __post_init__(self):
        if any(b <= a for a, b in zip(self.term_indices, self.term_indices[1:])):
            raise ValueError("term indices must be strictly increasing")
        if self.union_mask.bit_count() != self.union_size:
            raise ValueError("union mask and union size disagree")


@dataclass(frozen=True, slots=True, eq=False)  # arrays have no single truth value
class EncodingRecord:
    """The encodings of one subset's full-depth pairs, in ``valid_pairs``
    order, as arrays: no Python object per pair.

    ``x_sat`` is (m,) uint32 (n <= 24); ``sigma`` is (m, d) uint8, since a
    position indexes c, which holds at most n distinct variables; ``a`` is
    (m,) uint16 with bit t the t-th truth value (d <= 12).
    """

    n: int
    x_sat: np.ndarray
    sigma: np.ndarray
    a: np.ndarray

    @classmethod
    def pack(cls, n: int, d: int, rows: Sequence[Sequence]) -> "EncodingRecord":
        """The record of pairs of degree d from rows that start with an
        ``EncodedRow``'s (x_sat, sigma, a).

        Each row's sigma positions must be distinct and 1-based and its
        truth values must fit in d bits, as ``Encoding`` requires of one
        pair; the first row that fails raises EncodingInvariantError with
        its index as ``row``."""
        m = len(rows)
        x_sat = np.fromiter((r[0] for r in rows), dtype=np.uint32, count=m)
        sigma = np.fromiter(chain.from_iterable(r[1] for r in rows), dtype=np.uint8)
        sigma = sigma.reshape(m, d)
        a = np.fromiter((r[2] for r in rows), dtype=np.uint16, count=m)
        checks = _row_checks(d, np.sort(sigma, axis=1), a)
        failing = np.flatnonzero(np.logical_or.reduce([bad for _, bad in checks]))
        if failing.size:
            row = int(failing[0])
            raise EncodingInvariantError(next(msg for msg, bad in checks if bad[row]), row)
        return cls(n, x_sat, sigma, a)

    def __len__(self) -> int:
        return len(self.x_sat)


def _row_checks(d: int, pos: np.ndarray, a: np.ndarray) -> tuple[tuple[str, np.ndarray], ...]:
    """``Encoding``'s checks of one pair, in its order, on every row at once as
    (message, failing rows): ``a`` fits in d bits, and the sigma positions
    ``pos`` (sorted along each row) are distinct and 1-based."""
    return (
        (TRUTH_VALUES_BEYOND_D, a.astype(np.int64) >> d != 0),
        (SIGMA_NOT_DISTINCT, (np.diff(pos, axis=1) == 0).any(axis=1)),
        (SIGMA_NOT_1_BASED, (pos < 1).any(axis=1)),
    )


@lru_cache(maxsize=None)
def _ascending_bits(mask: int) -> tuple[int, ...]:
    """``bit_indices(mask)`` as a tuple, computed once per mask."""
    return tuple(bit_indices(mask))


@lru_cache(maxsize=None)
def _lex_choices(mask: int) -> tuple[tuple[int, int], ...]:
    """Every assignment on mask in lexicographic order (ascending variables,
    false before true: the first variable is the most significant digit of
    the rank), as its bits on mask's positions and its truth values packed,
    bit t the value of the t-th variable."""
    m = mask.bit_count()
    packed = (sum((rank >> (m - 1 - t) & 1) << t for t in range(m)) for rank in range(1 << m))
    return tuple((pdep(v, mask), v) for v in packed)


def encode_row(
    dnf: Dnf, s_mask: int, xsbar_bits: int, tables: RestrictionTables
) -> EncodedRow:
    """Encode the full-depth pair (S, x_Sbar) into an ``EncodedRow``.

    ``xsbar_bits`` is the fixed-side assignment as an n-bit mask (bits at
    free positions must be zero); ``tables`` are the restriction tables of
    ``dnf``'s truth table.  Raises EncodePreconditionError when the
    restriction does not have decision-tree depth |S|, and
    EncodingInvariantError if any internal correctness invariant fails
    (which would falsify the counting argument).
    """
    n = dnf.n
    full = (1 << n) - 1
    if s_mask & ~full or xsbar_bits & ~full:
        raise ValueError(f"mask beyond n={n} variables")
    if xsbar_bits & s_mask:
        raise ValueError("fixed assignment overlaps the free set")
    d = s_mask.bit_count()
    if not tables.full_depth_at(s_mask, xsbar_bits):
        raise EncodePreconditionError(
            f"restriction lacks full decision-tree depth |S| = {d}"
        )

    term_masks = dnf.term_masks
    full_depth_entry = tables.full_depth_entry
    s_prime = s_mask
    x_sat = xsbar_bits
    x_dt = xsbar_bits
    a = 0  # truth values, bit t the t-th
    t = 0  # number of truth values so far
    sigma: list[int] = []  # positions in c of the variables of S
    len_c = 0  # c, the variables in discovery order, is kept as its length
    in_c = 0  # and the mask of its variables
    cover: list[int] = []
    union_of_sj = 0
    idx = 0

    while s_prime:
        # loop invariant: the remaining free set S' still needs full depth,
        # E_{S'}(x_dt).  Each question is asked once, so this is carried,
        # not looked up: in round 1 it is the precondition's answer (same S,
        # same x), and in a later round it is the lookup that accepted the
        # previous round's choice, E_{S'}(x_dt | bits) with x_dt as it was
        # before the round.  Both ask the same question as long as x_dt has
        # no bits on S' before a round assigns them (a lookup ignores the
        # bits on the free set), which is checked here.
        if x_dt & s_prime:
            raise EncodingInvariantError("depth invariant lost between rounds")
        assigned = full ^ s_prime
        # the first alive term, from the previous round's term on, that term
        # included: the terms before it are falsified (an assigned bit never
        # changes), and had the round's choice satisfied it, a scan starting
        # after it would not notice.  A satisfied term means the restriction
        # is decided, contradicting the full-depth invariant.
        for idx in range(idx, len(term_masks)):
            term_vars, term_pos = term_masks[idx]
            seen = term_vars & assigned
            if x_dt & seen != term_pos & seen:
                continue  # falsified
            if seen == term_vars:
                raise EncodingInvariantError(
                    f"term {idx + 1} already satisfied while free variables remain")
            break
        else:
            raise EncodingInvariantError("no alive term although the restriction has full depth")
        s_j = term_vars & s_prime
        if s_j == 0:
            raise EncodingInvariantError("alive term has no free variable")
        rest = s_prime ^ s_j
        if rest:
            # the lexicographically first assignment of the block that keeps
            # E_rest (its existence is part of the correctness claim)
            table, plan = full_depth_entry(rest)
            for dt_bits, values in _lex_choices(s_j):
                x = x_dt | dt_bits
                i = 0
                for shift, mask in plan:
                    i |= x >> shift & mask
                if table[i >> 3] >> (i & 7) & 1:
                    break
            else:
                raise EncodingInvariantError("no depth-preserving assignment exists")
        else:
            # E_{} is identically true, so the first candidate, every
            # variable false, keeps it: nothing is asked
            dt_bits = values = 0

        x_sat = (x_sat & ~s_j) | (term_pos & s_j)
        x_dt |= dt_bits
        s_prime = rest
        union_of_sj |= s_j
        a |= values << t
        t += s_j.bit_count()
        # the term's variables not yet in c enter it in ascending order;
        # those of S add their positions to sigma
        new = term_vars & ~in_c
        if new & s_mask:
            for b in _ascending_bits(new):
                len_c += 1
                if s_mask >> b & 1:
                    sigma.append(len_c)
        else:
            len_c += new.bit_count()
        in_c |= new
        if cover and idx + 1 <= cover[-1]:
            raise EncodingInvariantError("cover term indices not increasing")
        cover.append(idx + 1)

    # final correctness assertions on the run as a whole
    if union_of_sj != s_mask:
        raise EncodingInvariantError("selected free blocks do not reassemble S")
    if s_mask & ~in_c:
        raise EncodingInvariantError("variable string c misses part of S")
    if d > 0 and len_c > dnf.width() * d:
        raise EncodingInvariantError("variable string c longer than width * d")
    if len(sigma) != d or t != d:
        raise EncodingInvariantError("sigma or a has wrong length")
    if in_c.bit_count() != len_c:
        raise EncodingInvariantError("union mask and union size disagree")
    return x_sat, sigma, a, tuple(cover), len_c


def encode(
    dnf: Dnf, s_mask: int, xsbar_bits: int, tables: RestrictionTables
) -> tuple[Encoding, CoverRecord]:
    """Encode the full-depth pair (S, x_Sbar) into (x_sat, sigma, a).

    ``encode_row``'s row as the ``Encoding`` and the ``CoverRecord``
    (whose union mask is the union of the cover terms' variables); the
    arguments and the errors are ``encode_row``'s.
    """
    x_sat, sigma, a, cover, union_size = encode_row(dnf, s_mask, xsbar_bits, tables)
    union_mask = 0
    for j in cover:
        union_mask |= dnf.term_masks[j - 1][0]
    return (
        Encoding(dnf.n, x_sat, tuple(sigma), a),
        CoverRecord(cover, union_size, union_mask),
    )


#: ``encode_row`` under the name the family analysis calls it by: it encodes
#: each pair with S nonempty once, through this name, and keeps both the
#: encoding and the cover of the row.  The name stays because
#: bench/spans.py counts the analysis's encodes by wrapping it.
extract_cover = encode_row


def decode(dnf: Dnf, e: Encoding) -> tuple[int, int]:
    """Invert encode: recover (S mask, x_Sbar bits) from the triple.

    Only triples produced by encode on the same DNF are valid inputs.
    Structural corruption is detected and raises DecodeError (no satisfied
    term while variables remain, a round that makes no progress, index
    bookkeeping running off the end); a foreign but well-formed triple may
    instead decode to some pair, which is why validity is the caller's
    contract.  The triple is decoded as a one-row ``decode_records``, in
    int64 arrays, so that any d, any position and any ``a`` that fit in
    int64 pass unchanged (one that does not raises OverflowError); one
    call costs about 0.3 ms.
    """
    if e.n != dnf.n:
        raise DecodeError(f"encoding over n={e.n}, DNF over n={dnf.n}")
    if e.x_sat >> dnf.n:   # before the cast, which a huge x_sat would not survive
        raise DecodeError(BITS_BEYOND_N)
    s_mask, xsbar, code = decode_records(
        dnf, e.d, np.array([e.x_sat], np.int64), np.array([e.sigma], np.int64),
        np.array([e.a], np.int64))
    if code[0]:
        raise DecodeError(DECODE_ERRORS[code[0]])
    return int(s_mask[0]), int(xsbar[0])


def decode_records(
    dnf: Dnf, d: int, x_sat: np.ndarray, sigma: np.ndarray, a: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Invert ``encode`` on a batch of m encodings of degree d at once.

    The arrays have an ``EncodingRecord``'s layout (``x_sat`` (m,),
    ``sigma`` (m, d), ``a`` (m,) with bit t the t-th truth value); the rows
    may come from several subsets of the same degree.  Returns (S masks,
    x_Sbar bits, code), three (m,) arrays: ``code[i]`` is 0 if row i
    decoded, and otherwise indexes ``DECODE_ERRORS``, the message of the
    first check that the row fails.  Each row meets the checks in this
    order: its truth values fit in d bits and its sigma positions are
    distinct and 1-based (``Encoding``'s checks), x_sat has no bit beyond
    n, then the checks of each round.
    Arrays whose shapes disagree raise DecodeError for the whole batch.
    """
    m = len(x_sat)
    if sigma.shape != (m, d) or a.shape != (m,):
        raise DecodeError(f"a record of {m} rows with sigma {sigma.shape} and a {a.shape}")
    code = np.zeros(m, dtype=np.uint8)

    def fail(rows: np.ndarray, message: str) -> None:
        code[rows & (code == 0)] = DECODE_ERRORS.index(message)   # the first one stays

    pos = np.sort(sigma, axis=1)           # sigma is read in sorted order
    for message, bad in _row_checks(d, pos, a):
        fail(bad, message)
    x = x_sat.astype(np.uint32)
    fail(x >> dnf.n != 0, BITS_BEYOND_N)

    # after the real terms, a sentinel empty term that every x satisfies:
    # the argmax of a row lands on it exactly when no real term is satisfied
    term_vars = np.array([v for v, _ in dnf.term_masks] + [0], dtype=np.uint32)
    term_pos = np.array([p for _, p in dnf.term_masks] + [0], dtype=np.uint32)
    rows = np.arange(m)
    c = np.zeros((m, dnf.n), dtype=np.uint8)   # c as 0-based variables
    len_c = np.zeros(m, dtype=np.uint8)
    in_c = np.zeros(m, dtype=np.uint32)
    s_mask = np.zeros(m, dtype=np.uint32)
    found = np.zeros(m, dtype=np.uint8)
    for _ in range(d):
        active = (found < d) & (code == 0)
        if not active.any():
            break
        term = ((x[:, None] & term_vars) == term_pos).argmax(axis=1)
        no_term = term == len(term_vars) - 1
        fail(active & no_term, NO_SATISFIED_TERM)
        active &= ~no_term
        # the term's variables not yet in c enter c in ascending order
        new = np.where(active, term_vars[term] & ~in_c, np.uint32(0))
        for b in bit_indices(int(np.bitwise_or.reduce(new, initial=0))):
            has = (new >> b & 1).astype(bool)
            c[has, len_c[has]] = b
            len_c += has
        in_c |= new
        # positions are distinct and sorted, so those inside c are a
        # prefix, and the first ``found`` of them were recovered before
        inside = (pos <= len_c[:, None]).sum(axis=1, dtype=np.uint8)
        fail(active & (inside == found), NO_NEW_VARIABLE)
        active &= inside > found
        # this check, and the one after the loop, cannot fire once the
        # positions are distinct; they stay as the checks of the oracle's
        # round loop (``oracle_decode`` in the tests)
        fail(active & (inside > d), MORE_THAN_D)
        active &= inside <= d
        for j in range(d):     # the j-th sorted position takes the j-th value
            take = active & (found <= j) & (j < inside)
            var = c[rows, np.clip(pos[:, j], 1, dnf.n) - 1]
            bit = np.where(take, np.uint32(1) << var, np.uint32(0))
            x = np.where(a >> j & 1 != 0, x | bit, x & ~bit)
            s_mask |= bit
        found = np.where(active, inside, found)
    fail(found < d, NO_PROGRESS)
    return s_mask, x & ~s_mask, code


def valid_pairs(tables: RestrictionTables, d_max: int) -> Iterator[tuple[int, int]]:
    """All (S mask, x_Sbar bits) with |S| <= d_max and a full-depth
    restriction, in (ascending S mask, ascending x_Sbar) order."""
    for s_mask in tables.visit(d_max):
        for xsbar in tables.full_depth_xsbars(s_mask).tolist():
            yield s_mask, xsbar

