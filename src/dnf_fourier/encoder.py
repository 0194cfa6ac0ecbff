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
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterator

from .bitops import bit_indices, mask_to_vars, pdep, subsets_up_to
from .dnf import ALIVE, SATISFIED, Dnf
from .restrictions import RestrictionTables


class EncodePreconditionError(ValueError):
    """encode() called on a pair whose restriction lacks full depth."""


class EncodingInvariantError(RuntimeError):
    """An internal encoder invariant failed: a fatal correctness bug."""


class DecodeError(ValueError):
    """The triple is not an encoding of any valid pair for this DNF."""


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
            raise ValueError("sigma positions must be distinct")
        if any(p < 1 for p in self.sigma):
            raise ValueError("sigma positions are 1-based")

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


def _first_open_term(dnf: Dnf, assigned: int, x: int) -> tuple[int, int]:
    """Index (0-based) of the first term alive under the partial assignment.

    A satisfied term here would mean the restricted function is already
    decided, contradicting the full-depth invariant, so it is fatal.
    """
    for idx, term in enumerate(dnf.terms):
        st = term.status(assigned, x)
        if st == SATISFIED:
            raise EncodingInvariantError(
                f"term {idx + 1} already satisfied while free variables remain"
            )
        if st == ALIVE:
            return idx, term.vars_mask
    raise EncodingInvariantError("no alive term although the restriction has full depth")


def _lex_depth_preserving(
    tables: RestrictionTables, rest_mask: int, x_dt: int, s_j_mask: int
) -> int:
    """Assignment bits on s_j_mask keeping the rest of S at full depth.

    Candidates are scanned in lexicographic order: ascending variables,
    false before true; existence is part of the encoder correctness claim."""
    s_j_bits = bit_indices(s_j_mask)
    m = len(s_j_bits)
    full_depth = tables.dt_by_full(rest_mask)
    for cand in range(1 << m):
        bits = 0
        for t, b in enumerate(s_j_bits):
            if (cand >> (m - 1 - t)) & 1:
                bits |= 1 << b
        if full_depth[x_dt | bits]:
            return bits
    raise EncodingInvariantError("no depth-preserving assignment exists")


def encode(
    dnf: Dnf,
    s_mask: int,
    xsbar_bits: int,
    tables: RestrictionTables | None = None,
) -> tuple[Encoding, CoverRecord]:
    """Encode the full-depth pair (S, x_Sbar) into (x_sat, sigma, a).

    ``xsbar_bits`` is the fixed-side assignment as an n-bit mask (bits at
    free positions must be zero).  Raises EncodePreconditionError when the
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
    if tables is None:
        tables = RestrictionTables(dnf.evaluate())
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
        # loop invariant: the remaining free set still needs full depth
        if not tables.full_depth_at(s_prime, x_dt):
            raise EncodingInvariantError("depth invariant lost between rounds")
        idx, term_vars = _first_open_term(dnf, assigned, x_dt)
        term = dnf.terms[idx]
        s_j = term_vars & s_prime
        if s_j == 0:
            raise EncodingInvariantError("alive term has no free variable")
        sat_bits = term.pos_mask & s_j
        rest = s_prime ^ s_j
        dt_bits = _lex_depth_preserving(tables, rest, x_dt, s_j)

        x_sat = (x_sat & ~s_j) | sat_bits
        x_dt = (x_dt & ~s_j) | dt_bits
        assigned |= s_j
        s_prime = rest
        union_of_sj |= s_j
        for b in bit_indices(s_j):
            a.append(bool((dt_bits >> b) & 1))
        for v in mask_to_vars(term_vars):
            if not (in_c >> (v - 1)) & 1:
                c.append(v)
                in_c |= 1 << (v - 1)
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
    dnf: Dnf,
    s_mask: int,
    xsbar_bits: int,
    tables: RestrictionTables | None = None,
) -> CoverRecord:
    """The cover of (S, x_Sbar): the terms an encode run selects."""
    return encode(dnf, s_mask, xsbar_bits, tables)[1]


def decode(dnf: Dnf, e: Encoding) -> tuple[int, int]:
    """Invert encode: recover (S mask, x_Sbar bits) from the triple.

    Only triples produced by encode on the same DNF are valid inputs.
    Structural corruption is detected and raises DecodeError (no satisfied
    term while variables remain, a round that makes no progress, index
    bookkeeping running off the end); a foreign but well-formed triple may
    instead decode to some pair, which is why validity is the caller's
    contract.
    """
    if e.n != dnf.n:
        raise DecodeError(f"encoding over n={e.n}, DNF over n={dnf.n}")
    if e.x_sat >> dnf.n:
        raise DecodeError("assignment has bits beyond n variables")
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
            raise DecodeError("no progress after d rounds; not a valid encoding")
        sat_idx = next(
            (i for i, t in enumerate(dnf.terms) if t.satisfied_by(x)), None
        )
        if sat_idx is None:
            raise DecodeError("no satisfied term while variables remain")
        term = dnf.terms[sat_idx]
        for v in term.variables():
            if not (in_c >> (v - 1)) & 1:
                c.append(v)
                in_c |= 1 << (v - 1)
        s_j_vars = [
            c[k - 1]
            for k in sorted(sigma)
            if k <= len(c) and not (s_mask >> (c[k - 1] - 1)) & 1
        ]
        if not s_j_vars:
            raise DecodeError("a round recovered no new variables")
        if found + len(s_j_vars) > d:
            raise DecodeError("recovered more than d variables")
        for t, v in enumerate(s_j_vars):
            bit = 1 << (v - 1)
            x = (x | bit) if e.a[found + t] else (x & ~bit)
            s_mask |= bit
        found += len(s_j_vars)
    return s_mask, x & ~s_mask


def valid_pairs(
    dnf: Dnf,
    d_max: int,
    tables: RestrictionTables | None = None,
) -> Iterator[tuple[int, int]]:
    """All (S mask, x_Sbar bits) with |S| <= d_max and a full-depth
    restriction, in (ascending S mask, ascending fixed index) order."""
    if tables is None:
        tables = RestrictionTables(dnf.evaluate())
    full = (1 << dnf.n) - 1
    for s_mask in subsets_up_to(dnf.n, d_max):
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
