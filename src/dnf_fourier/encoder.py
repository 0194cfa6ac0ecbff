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

``encode`` is the scalar, per-pair encoder.  In ``verify`` each full-depth
pair with S nonempty is encoded once: ``FamilyAnalysis`` encodes it
(through ``extract_cover``) and keeps the encodings of each subset as an
``EncodingRecord`` of arrays.  The pairs with S empty are not encoded at
all: their encoding is x_sat = x with empty sigma and a, and the analysis
writes that record directly.

Each full-depth question is asked of the tables once per pair: one lookup
for the precondition, then one per depth-preserving candidate tried.  The
question at the top of a round is not asked again, since it is the one
that the previous lookup (or, in round 1, the precondition) answered.

``decode_records`` inverts a whole batch of same-degree encodings with
numpy, and the ``roundtrip`` check decodes every pair through it: each row
meets every check of the scalar path, and a row that fails one is reported
by the index of its ``DecodeError`` message in ``DECODE_ERRORS``.  The
scalar ``decode`` and ``EncodingRecord.encodings`` are its test oracles,
as ``encode`` will be for a batched encoder.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

from .bitops import bit_indices, mask_to_vars, pdep, subsets_up_to
from .dnf import Dnf
from .restrictions import RestrictionTables


class EncodePreconditionError(ValueError):
    """encode() called on a pair whose restriction lacks full depth."""


class EncodingInvariantError(RuntimeError):
    """An internal encoder invariant failed: a fatal correctness bug."""


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


@dataclass(frozen=True, slots=True)
class Encoding:
    """The (x_sat, sigma, a) triple for one full-depth pair.

    ``x_sat`` is a full n-bit assignment mask; ``sigma`` is a sorted tuple
    of 1-based positions into the encoder's variable string c; ``a`` is a
    tuple of booleans (True = the variable is set true) with
    len(sigma) == len(a) == |S|.
    """

    n: int
    x_sat: int
    sigma: tuple[int, ...]
    a: tuple[bool, ...]

    def __post_init__(self):
        if len(self.sigma) != len(self.a):
            raise ValueError("sigma and a must have equal length")
        if len(set(self.sigma)) != len(self.sigma):
            raise ValueError(SIGMA_NOT_DISTINCT)
        if any(p < 1 for p in self.sigma):
            raise ValueError(SIGMA_NOT_1_BASED)

    @property
    def d(self) -> int:
        return len(self.sigma)

    def to_dict(self) -> dict:
        return {
            "x_sat": self.x_sat,
            "sigma": list(self.sigma),
            "a": [1 if v else 0 for v in self.a],
        }

    @classmethod
    def from_dict(cls, n: int, obj: dict) -> "Encoding":
        return cls(
            n,
            int(obj["x_sat"]),
            tuple(int(p) for p in obj["sigma"]),
            tuple(bool(v) for v in obj["a"]),
        )


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
    def pack(cls, n: int, d: int, encodings: list[Encoding]) -> "EncodingRecord":
        m = len(encodings)
        x_sat = np.fromiter((e.x_sat for e in encodings), dtype=np.uint32, count=m)
        sigma = np.array([e.sigma for e in encodings], dtype=np.uint8).reshape(m, d)
        bits = np.array([e.a for e in encodings], dtype=np.uint16).reshape(m, d)
        a = (bits << np.arange(d, dtype=np.uint16)).sum(axis=1, dtype=np.uint16)
        return cls(n, x_sat, sigma, a)

    def __len__(self) -> int:
        return len(self.x_sat)

    def encodings(self) -> Iterator[Encoding]:
        """The ``Encoding`` of each pair, rebuilt in record order (for the
        scalar ``decode``, the oracle of ``decode_records``)."""
        a_of = _unpacked_truth_values(self.sigma.shape[1])
        for x_sat, sigma, a in zip(
            self.x_sat.tolist(), self.sigma.tolist(), self.a.tolist()
        ):
            yield Encoding(self.n, x_sat, tuple(sigma), a_of[a])


@lru_cache(maxsize=None)
def _unpacked_truth_values(d: int) -> tuple[tuple[bool, ...], ...]:
    """Entry v is the d truth values packed into v (bit t is value t)."""
    return tuple(tuple(bool(v >> t & 1) for t in range(d)) for v in range(1 << d))


def _first_open_term(dnf: Dnf, assigned: int, x: int) -> tuple[int, int, int]:
    """Index (0-based), vars mask and pos mask of the first term alive under
    the partial assignment x on ``assigned``.

    A satisfied term here would mean the restricted function is already
    decided, contradicting the full-depth invariant, so it is fatal.
    """
    for idx, (vars_mask, pos_mask) in enumerate(dnf.term_masks):
        seen = vars_mask & assigned
        if x & seen != pos_mask & seen:
            continue  # falsified
        if seen == vars_mask:
            raise EncodingInvariantError(
                f"term {idx + 1} already satisfied while free variables remain"
            )
        return idx, vars_mask, pos_mask
    raise EncodingInvariantError("no alive term although the restriction has full depth")


@lru_cache(maxsize=None)
def _ascending_bits(mask: int) -> tuple[int, ...]:
    """``bit_indices(mask)`` as a tuple, computed once per mask."""
    return tuple(bit_indices(mask))


@lru_cache(maxsize=None)
def _lex_candidates(mask: int) -> tuple[int, ...]:
    """Every assignment on mask, as bits on its positions, in lexicographic
    order: ascending variables, false before true (the first variable is
    the most significant digit of the candidate's rank)."""
    bits = _ascending_bits(mask)
    m = len(bits)
    return tuple(
        sum(1 << b for t, b in enumerate(bits) if (rank >> (m - 1 - t)) & 1)
        for rank in range(1 << m)
    )


def _lex_depth_preserving(
    tables: RestrictionTables, rest_mask: int, x_dt: int, s_j_mask: int
) -> int:
    """Assignment bits on s_j_mask keeping the rest of S at full depth.

    Candidates are scanned in lexicographic order: ascending variables,
    false before true; existence is part of the encoder correctness claim.
    Each candidate is one lookup in the compressed table E_rest."""
    full_depth_at = tables.full_depth_at
    for bits in _lex_candidates(s_j_mask):
        if full_depth_at(rest_mask, x_dt | bits):
            return bits
    raise EncodingInvariantError("no depth-preserving assignment exists")


def encode(
    dnf: Dnf, s_mask: int, xsbar_bits: int, tables: RestrictionTables
) -> tuple[Encoding, CoverRecord]:
    """Encode the full-depth pair (S, x_Sbar) into (x_sat, sigma, a).

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

    w = dnf.width()
    s_prime = s_mask
    x_sat = xsbar_bits
    x_dt = xsbar_bits
    assigned = full ^ s_mask
    a: list[bool] = []
    c: list[int] = []  # 1-based variables, in discovery order
    in_c = 0  # mask of variables already in c
    cover: list[int] = []
    union_of_sj = 0

    while s_prime:
        # loop invariant: the remaining free set S' still needs full depth,
        # E_{S'}(x_dt).  Each question is asked once, so this is carried,
        # not looked up: in round 1 it is the precondition's answer (same S,
        # same x), and in a later round it is the lookup that accepted the
        # previous round's choice, E_{S'}(x_dt | bits) with x_dt as it was
        # before the round.  Both ask the same question as long as x_dt has
        # no bits on S' before a round assigns them (full_depth_at ignores
        # the bits on the free set), which is checked here.
        if x_dt & s_prime:
            raise EncodingInvariantError("depth invariant lost between rounds")
        idx, term_vars, term_pos = _first_open_term(dnf, assigned, x_dt)
        s_j = term_vars & s_prime
        if s_j == 0:
            raise EncodingInvariantError("alive term has no free variable")
        sat_bits = term_pos & s_j
        rest = s_prime ^ s_j
        dt_bits = _lex_depth_preserving(tables, rest, x_dt, s_j)

        x_sat = (x_sat & ~s_j) | sat_bits
        x_dt = (x_dt & ~s_j) | dt_bits
        assigned |= s_j
        s_prime = rest
        union_of_sj |= s_j
        for b in _ascending_bits(s_j):
            a.append(bool((dt_bits >> b) & 1))
        for b in _ascending_bits(term_vars):
            if not (in_c >> b) & 1:
                c.append(b + 1)
                in_c |= 1 << b
        if cover and idx + 1 <= cover[-1]:
            raise EncodingInvariantError("cover term indices not increasing")
        cover.append(idx + 1)

    # final correctness assertions on the run as a whole
    if union_of_sj != s_mask:
        raise EncodingInvariantError("selected free blocks do not reassemble S")
    if s_mask & ~in_c:
        raise EncodingInvariantError("variable string c misses part of S")
    if d > 0 and len(c) > w * d:
        raise EncodingInvariantError("variable string c longer than width * d")
    sigma = tuple(k + 1 for k, v in enumerate(c) if (s_mask >> (v - 1)) & 1)
    if len(sigma) != d or len(a) != d:
        raise EncodingInvariantError("sigma or a has wrong length")

    return (
        Encoding(n, x_sat, sigma, tuple(a)),
        CoverRecord(tuple(cover), len(c), in_c),
    )


def extract_cover(
    dnf: Dnf, s_mask: int, xsbar_bits: int, tables: RestrictionTables
) -> tuple[Encoding, CoverRecord]:
    """``encode``, under the name the family analysis calls it by.

    ``FamilyAnalysis`` encodes each pair with S nonempty once, through this
    name, and keeps both the encoding and the cover.  The name stays
    because bench/spans.py counts the analysis's encodes by wrapping it."""
    return encode(dnf, s_mask, xsbar_bits, tables)


def decode(dnf: Dnf, e: Encoding) -> tuple[int, int]:
    """Invert encode: recover (S mask, x_Sbar bits) from the triple.

    Only triples produced by encode on the same DNF are valid inputs.
    Structural corruption is detected and raises DecodeError (no satisfied
    term while variables remain, a round that makes no progress, index
    bookkeeping running off the end); a foreign but well-formed triple may
    instead decode to some pair, which is why validity is the caller's
    contract.  This scalar decoder is the test oracle of ``decode_records``.
    """
    if e.n != dnf.n:
        raise DecodeError(f"encoding over n={e.n}, DNF over n={dnf.n}")
    if e.x_sat >> dnf.n:
        raise DecodeError(BITS_BEYOND_N)
    d = e.d
    x = e.x_sat
    s_mask = 0
    c: list[int] = []
    in_c = 0
    sigma = set(e.sigma)
    found = 0
    rounds = 0
    while found < d:
        rounds += 1
        if rounds > d:
            raise DecodeError(NO_PROGRESS)
        term_vars = next((v for v, p in dnf.term_masks if x & v == p), None)
        if term_vars is None:
            raise DecodeError(NO_SATISFIED_TERM)
        for v in mask_to_vars(term_vars):
            if not (in_c >> (v - 1)) & 1:
                c.append(v)
                in_c |= 1 << (v - 1)
        s_j_vars = [
            c[k - 1]
            for k in sorted(sigma)
            if k <= len(c) and not (s_mask >> (c[k - 1] - 1)) & 1
        ]
        if not s_j_vars:
            raise DecodeError(NO_NEW_VARIABLE)
        if found + len(s_j_vars) > d:
            raise DecodeError(MORE_THAN_D)
        for t, v in enumerate(s_j_vars):
            bit = 1 << (v - 1)
            x = (x | bit) if e.a[found + t] else (x & ~bit)
            s_mask |= bit
        found += len(s_j_vars)
    return s_mask, x & ~s_mask


def decode_records(
    dnf: Dnf, d: int, x_sat: np.ndarray, sigma: np.ndarray, a: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Invert ``encode`` on a batch of m encodings of degree d at once.

    The arrays have an ``EncodingRecord``'s layout (``x_sat`` (m,),
    ``sigma`` (m, d), ``a`` (m,) with bit t the t-th truth value); the rows
    may come from several subsets of the same degree.  Returns (S masks,
    x_Sbar bits, code), three (m,) arrays: ``code[i]`` is 0 if row i
    decoded, and otherwise indexes ``DECODE_ERRORS``, the message of the
    DecodeError that the scalar path raises for that row.  Each row meets
    the checks in the order the scalar path does: its truth values fit in
    d bits (``EncodingRecord.encodings``), its sigma positions are distinct
    and 1-based (``Encoding``), then ``decode``'s checks, round by round.
    Arrays whose shapes disagree raise DecodeError for the whole batch.
    """
    m = len(x_sat)
    if sigma.shape != (m, d) or a.shape != (m,):
        raise DecodeError(f"a record of {m} rows with sigma {sigma.shape} and a {a.shape}")
    code = np.zeros(m, dtype=np.uint8)

    def fail(rows: np.ndarray, message: str) -> None:
        code[rows & (code == 0)] = DECODE_ERRORS.index(message)   # the first one stays

    pos = np.sort(sigma, axis=1)           # decode reads sigma in sorted order
    fail(a.astype(np.uint32) >> d != 0, TRUTH_VALUES_BEYOND_D)
    fail((np.diff(pos, axis=1) == 0).any(axis=1), SIGMA_NOT_DISTINCT)
    fail((pos == 0).any(axis=1), SIGMA_NOT_1_BASED)
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
        # positions are distinct; they stay so that a row meets all of decode's
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
    restriction, in (ascending S mask, ascending fixed index) order."""
    full = (1 << tables.n) - 1
    for s_mask in subsets_up_to(tables.n, d_max):
        fixed_mask = full ^ s_mask
        for idx in tables.full_depth_sbar_indices(s_mask):
            yield s_mask, pdep(int(idx), fixed_mask)


def roundtrip_case_record(dnf_ref: str, s_mask: int, xsbar_bits: int, e: Encoding) -> str:
    """One JSON line for a round-trip regression corpus."""
    return json.dumps(
        {
            "dnf_ref": dnf_ref,
            "S_mask": s_mask,
            "xsbar_mask": xsbar_bits,
            "encoding": e.to_dict(),
        },
        sort_keys=True,
    )
