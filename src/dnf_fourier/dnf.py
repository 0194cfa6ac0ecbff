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

from .bitops import as_int
from .boolfn import N_CAP, BooleanFunction, _check_n
from .dyadic import DyadicRational


class ParseError(ValueError):
    """Malformed DNF text or JSON."""


class ContradictoryTermError(ParseError):
    """A term contains both x_i and its negation."""


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
        both polarities raises, and so does one beyond ``N_CAP``, which no
        DNF has, before its mask bit is made.
        """
        pos = neg = 0
        for lit in literals:
            if lit == 0:
                raise ParseError("literal 0 is not a variable")
            if abs(lit) > N_CAP:
                raise ParseError(f"literal {lit} is beyond the cap n <= {N_CAP}")
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

    def subcube(self, n: int) -> tuple[int | slice, ...]:
        """The index of the term's satisfying assignments in a (2,)*n
        tensor over all assignments (axis n-1-i is variable i+1): a strided
        view of 2^(n-|T|) entries, and no temporary."""
        return tuple(
            (self.pos_mask >> i) & 1 if (self.vars_mask >> i) & 1 else slice(None)
            for i in range(n - 1, -1, -1)
        )


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

    def evaluate(self) -> BooleanFunction:
        """Truth table: entry x is 1 iff some term is satisfied by x.

        The table is written packed, as ``BooleanFunction`` holds it, and
        handed over with no copy: max(1, 2^n / 8) zeroed bytes, byte x >> 3
        holding entries x to x + 7, viewed as the (2,)*(n-3) tensor over
        variables 4..n.  Each term ORs one 8-bit pattern, the assignments of
        variables 1..3 that satisfy its literals on them, into its
        ``subcube`` of that view: 2^(n-3-|T above 3|) byte writes and no 2^n
        temporary.  For n <= 3 the table is one byte and the pattern has
        only 2^n bits."""
        n, high = self.n, max(0, self.n - 3)
        table = np.zeros(1 << high, dtype=np.uint8)
        cube = table.reshape((2,) * high)
        for t in self.terms:
            low_vars, low_pos = t.vars_mask & 7, t.pos_mask & 7
            pattern = sum(1 << y for y in range(1 << min(n, 3)) if y & low_vars == low_pos)
            cube[(*t.subcube(n)[:high], ...)] |= pattern
        return BooleanFunction(n, table)

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
        """``{"n": ..., "terms": [[literal, ...], ...]}``: ``n`` and every
        literal are read by ``as_int``'s rule, and anything else is a
        ``ParseError``."""
        try:
            obj = json.loads(text)
            n = as_int(obj["n"])
            raw_terms = obj["terms"]
            if not isinstance(raw_terms, list) or not all(isinstance(t, list) for t in raw_terms):
                raise TypeError("'terms' must be a list of lists of literals")
            literal_lists = [[as_int(lit) for lit in lits] for lits in raw_terms]
        except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
            raise ParseError(f"bad DNF JSON: {exc}") from exc
        terms = []
        for lits in literal_lists:
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
