"""DNF formulas: terms, metrics, evaluation, truncation, serialization.

A DNF is an OR of terms; each term is an AND of literals over variables
1..n.  Term order is part of the data model: the cover-extraction encoder
repeatedly selects the *first* alive term, so permuting terms changes the
encoding (never the truth table).

Term and term-index conventions:

* a positive literal on variable i is satisfied when variable i is true
  (input value -1, mask bit i-1 set); a negative literal when it is false;
* term indices in all public results are 1-based, matching variables;
* duplicate terms are legal and counted honestly in size and read;
* a term with complementary literals is rejected at construction (it is
  identically false and would break "alive term" bookkeeping);
* the empty term is the constant-true term; the zero-term DNF is
  constant false.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .boolfn import N_CAP, BooleanFunction, _check_n
from .dyadic import DyadicRational


class ParseError(ValueError):
    """Malformed DNF text or JSON."""


class ContradictoryTermError(ParseError):
    """A term contains both x_i and its negation."""


# Term aliveness under a partial assignment (assigned-variable mask + values).
FALSIFIED = 0
SATISFIED = 1
ALIVE = 2


@dataclass(frozen=True, slots=True)
class Term:
    """A conjunction of literals, stored as positive/negative variable masks."""

    pos_mask: int
    neg_mask: int

    def __post_init__(self):
        if self.pos_mask & self.neg_mask:
            raise ContradictoryTermError(
                f"complementary literals on mask {self.pos_mask & self.neg_mask:#x}"
            )
        if self.pos_mask < 0 or self.neg_mask < 0:
            raise ValueError("negative literal mask")

    @classmethod
    def from_literals(cls, literals: Iterable[int]) -> "Term":
        """Build from signed 1-based variable indices (3 = x3, -3 = not x3).

        Literals form a set: repeating one is a no-op here (the text and
        JSON parsers are stricter and reject duplicates); a variable with
        both polarities raises.
        """
        pos = neg = 0
        for lit in literals:
            if lit == 0:
                raise ParseError("literal 0 is not a variable")
            bit = 1 << (abs(lit) - 1)
            if lit > 0:
                pos |= bit
            else:
                neg |= bit
        return cls(pos, neg)

    @property
    def vars_mask(self) -> int:
        return self.pos_mask | self.neg_mask

    @property
    def width(self) -> int:
        return self.vars_mask.bit_count()

    def literals(self) -> list[int]:
        """Signed 1-based literals, ascending by variable."""
        out = []
        m = self.vars_mask
        while m:
            bit = m & -m
            v = bit.bit_length()
            out.append(v if self.pos_mask & bit else -v)
            m ^= bit
        return out

    def variables(self) -> list[int]:
        """1-based variable indices, ascending."""
        return [abs(lit) for lit in self.literals()]

    def satisfied_by(self, x: int) -> bool:
        return (x & self.pos_mask) == self.pos_mask and (x & self.neg_mask) == 0

    def status(self, assigned_mask: int, x: int) -> int:
        """FALSIFIED/SATISFIED/ALIVE under the partial assignment x on
        assigned_mask (values of x outside assigned_mask are ignored)."""
        seen = self.vars_mask & assigned_mask
        want = self.pos_mask & seen
        if (x & seen) != want:
            return FALSIFIED
        return SATISFIED if seen == self.vars_mask else ALIVE


@dataclass(frozen=True, slots=True)
class Dnf:
    """An ordered disjunction of terms over variables 1..n.

    ``term_masks`` holds each term's (vars_mask, pos_mask), derived once at
    construction for the encoder's per-pair term scans, and
    ``term_widths`` the set of term widths, which the exact-width checks
    read per subset; like the cached width and read they are not part of
    the value (no eq, hash or repr)."""

    n: int
    terms: tuple[Term, ...]
    term_masks: tuple[tuple[int, int], ...] = field(init=False, repr=False, compare=False)
    term_widths: frozenset[int] = field(init=False, repr=False, compare=False)
    _width: int = field(init=False, repr=False, compare=False)
    _read: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_n(self.n)
        full = (1 << self.n) - 1
        for i, t in enumerate(self.terms):
            if t.vars_mask & ~full:
                raise ValueError(f"term {i + 1} uses variables beyond n={self.n}")
        object.__setattr__(
            self, "term_masks", tuple((t.vars_mask, t.pos_mask) for t in self.terms)
        )
        widths = frozenset(t.width for t in self.terms)
        object.__setattr__(self, "term_widths", widths)
        object.__setattr__(self, "_width", max(widths, default=0))
        counts = [0] * self.n
        for t in self.terms:
            for v in t.variables():
                counts[v - 1] += 1
        object.__setattr__(self, "_read", max(counts, default=0))

    @classmethod
    def from_term_literals(cls, n: int, terms: Sequence[Iterable[int]]) -> "Dnf":
        return cls(n, tuple(Term.from_literals(t) for t in terms))

    # -- metrics -------------------------------------------------------------

    def size(self) -> int:
        return len(self.terms)

    def width(self) -> int:
        return self._width

    def read(self) -> int:
        return self._read

    def metrics(self) -> tuple[int, int, int]:
        """(size, width, read)."""
        return self.size(), self.width(), self.read()

    # -- semantics -----------------------------------------------------------

    def evaluate(self, n_cap: int = N_CAP) -> BooleanFunction:
        """Truth table: entry x is 1 iff some term is satisfied by x.

        The table is a (2,)*n tensor (axis n-1-i is variable i+1), and each
        term sets its subcube through one strided slice: 2^(n-|T|) writes
        and no temporary."""
        if self.n > n_cap:
            from .boolfn import CapExceededError

            raise CapExceededError(f"n={self.n} exceeds evaluation cap {n_cap}")
        n = self.n
        table = np.zeros((2,) * n, dtype=bool)
        for t in self.terms:
            table[tuple(
                slice(None) if not (t.vars_mask >> (n - 1 - ax)) & 1
                else (t.pos_mask >> (n - 1 - ax)) & 1
                for ax in range(n)
            )] = True
        return BooleanFunction.from_array(n, table.reshape(-1))

    def truncate_width(self, w: int) -> "Dnf":
        """Drop every term with more than w literals, preserving order.

        The result differs from this DNF on at most
        (#dropped terms) * 2^-(w+1) of the inputs: an input can change only
        by satisfying a dropped term, which fixes at least w+1 variables.
        """
        if w < 0:
            raise ValueError("width bound must be nonnegative")
        return Dnf(self.n, tuple(t for t in self.terms if t.width <= w))

    def truncation_distance_bound(self, w: int) -> DyadicRational:
        dropped = sum(1 for t in self.terms if t.width > w)
        return DyadicRational(dropped, w + 1)

    # -- serialization: text and JSON mirror ---------------------------------

    def to_text(self) -> str:
        """One term per line of signed literals; `0` denotes the empty term."""
        lines = [f"n={self.n}"]
        for t in self.terms:
            lits = t.literals()
            lines.append(" ".join(str(v) for v in lits) if lits else "0")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Dnf":
        n = None
        terms: list[Term] = []
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if n is None:
                if not line.startswith("n="):
                    raise ParseError(f"expected 'n=<int>' header, got {line!r}")
                try:
                    n = int(line[2:])
                except ValueError as exc:
                    raise ParseError(f"bad header {line!r}") from exc
                continue
            tokens = line.split()
            if tokens == ["0"]:
                terms.append(Term(0, 0))
                continue
            try:
                lits = [int(tok) for tok in tokens]
            except ValueError as exc:
                raise ParseError(f"bad literal in {line!r}") from exc
            if 0 in lits:
                raise ParseError("literal 0 only valid alone (empty term)")
            term = Term.from_literals(lits)
            if term.width != len(lits):
                raise ParseError(f"duplicate variable in term {line!r}")
            terms.append(term)
        if n is None:
            raise ParseError("missing 'n=<int>' header")
        return cls(n, tuple(terms))

    def to_json(self) -> str:
        return json.dumps({"n": self.n, "terms": [t.literals() for t in self.terms]})

    @classmethod
    def from_json(cls, text: str) -> "Dnf":
        try:
            obj = json.loads(text)
            n = int(obj["n"])
            raw_terms = obj["terms"]
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad DNF JSON: {exc}") from exc
        terms = []
        for lits in raw_terms:
            term = Term.from_literals(lits)
            if term.width != len(lits):
                raise ParseError(f"duplicate variable in term {lits!r}")
            terms.append(term)
        return cls(n, tuple(terms))


def load_dnf(path) -> Dnf:
    """Load a DNF from a .json or text file by extension sniffing."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return Dnf.from_json(text)
    return Dnf.from_text(text)
