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

A run is its first round followed by the run of a smaller pair.  Round 1
of (S, x) takes the first alive term T, scanning from the first term,
and the lexicographically first choice b on S_1 = T & S that keeps
E_rest, rest = S - S_1.  Then the terms before T stay falsified and T
has no free variable left, so the rest of the run is the run of the
sub-pair (rest, x | b), whose subset is smaller.  Field by field: the
cover is T followed by the sub-pair's cover; the union mask is T's
variables OR the sub-pair's; x_sat is the sub-pair's with S_1 set to T's
literals; a is b's values, then the sub-pair's a shifted up by |S_1|;
and sigma, like S's bits of x_sat, is a function of S and the cover
alone (``CoverTable.spell``).

``extract_cover`` is the one encoder.  It runs round 1 of a pair,
makes every check of the run and takes the rest of the run from the
sub-pair.  What round 1 of the pairs of one subset S shares is prepared
once, in S's ``SubsetRound``: the assigned mask, the bound width * |S|
on the cover's union and, per first alive term T, S_1, E_rest's lookup
entry, the candidates on S_1 compressed into E_rest's index
(compressing is linear in OR, so a pair compresses x once and tries
each candidate with one OR), and what is held for rest.  Covers are
interned in a ``CoverTable``, one id per distinct cover, so a pair's
result is a cover id and a (no object per pair).  In
``FamilyAnalysis``'s pass over ``RestrictionTables.visit``, each subset
S with a pair gets its round when its pass starts, which checks S's
precondition on the whole batch of its pairs with numpy
(``SubsetRound.check``: E_S holds at x, and x has no bit on S, the first
failing pair named), and drops it when the pass ends.  Each S with
0 < |S| < d_max leaves, in the pass's cover table (``CoverTable.hold``),
a uint32 cover id per pair in ``valid_pairs`` order, a uint16 a per pair
when the analysis has a consumer of the encodings, and a rank index of
E_S, so a pair of a larger subset reads its sub-pair's result at the
rank of the table index that its accepted lookup just read.  Nothing is
held for |S| = d_max, and everything goes with the cover table when the
pass ends; a held id is read only through the table that interned it.
Where nothing is held for the sub-pair's subset, as outside a pass,
``extract_cover`` calls itself on the sub-pair with the sub-pair's own
round, whose scan starts at T.  ``encode`` is its one-pair call: it
checks its arguments and the pair's precondition, makes one
``extract_cover`` with a cover table of its own, which holds nothing,
spells the cover, and returns the ``Encoding`` (one row of an
``EncodingRecord``) and the ``CoverRecord``.  Each check of the run is
made on every pair: the precondition holds, the first alive term is
not already satisfied, a depth-preserving choice exists, T comes before
the sub-pair's first term, and the cover's union holds S and has at
most width * |S| variables; that S_1 is not empty is checked once per T and S, of which
it is a function.  The union check is also the check that sigma has |S|
positions, since each variable of the union enters c once and sigma
lists where S's sit; ``spell`` counts them again when a cover is
spelled.  a is checked to fit in |S| bits wherever it is formed; a pass
with no consumer (``sweep``) forms no a.

In ``verify`` each full-depth pair with S nonempty is encoded once, by
``FamilyAnalysis``.  When the analysis has a consumer of the encodings
(the ``roundtrip`` check, ``encdec-test``), it spells x_sat and sigma
once per distinct cover of each subset, gathers the subset's rows into
an ``EncodingRecord`` of arrays and hands it over at the end of the
subset's pass; ``sweep`` has none and spells and gathers nothing.  The
pairs with S empty are not encoded at all: their encoding is x_sat = x
with empty sigma and a, and the analysis writes that record directly.

Each full-depth question is asked of the tables at most once per pair.
In a pass a pair asks round 1's candidates, the accepted one being the
sub-pair's precondition, and its own precondition is asked in its
subset's batch.  A standalone ``encode`` asks its precondition and the
candidates of every round of its recursion; the last round, whose block
is all of the remaining free set, asks nothing: E_{} is identically
true, so its first candidate, every variable false, is taken.  On
``bench/instances/readk16.dnf`` at d_max 4 the pass's 158,288 encodes
make 231,464 lookups and 793 batch checks.  The tests keep two oracles
of the encoder: ``oracle_round_loop``, every round of a run in one loop,
and ``oracle_encode``, which scans every round from the first term and
builds an object per pair.  ``valid_pairs`` and the family analysis read
each subset's x_Sbar masks from ``RestrictionTables.full_depth_xsbars``,
in the tables' pass.

``decode_records`` is the one decoder.  It inverts a whole batch of
same-degree encodings with numpy, and the ``roundtrip`` check decodes
every pair through it, in chunks, as the analysis hands over each
subset's record: a row that fails a check is reported by the index of
its ``DecodeError`` message in ``DECODE_ERRORS``.  Its checks of a row
before the first round (a fits in d bits, sigma's positions are
distinct and 1-based) are the only array check of an encoding's shape,
and the ``Encoding`` constructor makes the same ones on one pair; a
consumer of the records runs beside the round trip, so a mis-spelled
row is a failed round trip that names its pair.  ``decode`` is one
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
from typing import Iterator, Sequence

import numpy as np

from .bitops import bit_indices, pdep
from .dnf import Dnf
from .restrictions import RestrictionTables, compress


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
NO_SATISFIED_TERM = "no satisfied term while variables remain"
NO_NEW_VARIABLE = "a round recovered no new variables"
DECODE_ERRORS = (
    None, TRUTH_VALUES_BEYOND_D, SIGMA_NOT_DISTINCT, SIGMA_NOT_1_BASED, BITS_BEYOND_N,
    NO_SATISFIED_TERM, NO_NEW_VARIABLE,
)


@dataclass(frozen=True, slots=True)
class Encoding:
    """The (x_sat, sigma, a) triple for one full-depth pair: one row of an
    ``EncodingRecord``.

    ``x_sat`` is a full n-bit assignment mask; ``sigma`` is a tuple of
    1-based positions into the encoder's variable string c (ascending, as
    the encoder writes it); ``a`` packs the len(sigma) = |S| truth values,
    bit t the t-th (set: the variable is true).  The constructor rejects
    what ``decode_records`` rejects of a row before its first round, with
    the same message.
    """

    n: int
    x_sat: int
    sigma: tuple[int, ...]
    a: int

    def __post_init__(self):
        # decode_records' checks of a row before its first round, in its order
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
    (m,) uint16 with bit t the t-th truth value (d <= 12).  The record
    checks nothing of its rows: ``decode_records``, which the round trip
    reads every row through, rejects a row that ``Encoding`` would.
    """

    n: int
    x_sat: np.ndarray
    sigma: np.ndarray
    a: np.ndarray

    def __len__(self) -> int:
        return len(self.x_sat)


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


class CoverTable:
    """The covers of one encoder pass, interned, so that each is stored once
    however many pairs select it.

    Cover id c > 0 is the term ``first[c]`` (0-based) followed by the
    cover ``sub[c]``, and ``union[c]`` is the mask of the variables of its
    terms; id 0 is the empty cover, whose ``first`` lies past every term.
    ``held`` maps a subset to its pairs' results (``hold``)."""

    def __init__(self, dnf: Dnf):
        self.term_masks = dnf.term_masks
        self.first = [len(dnf.term_masks)]
        self.sub = [0]
        self.union = [0]
        self._ids: dict[int, int] = {}   # term + sub * (number of terms) -> id
        self._terms: dict[int, tuple[int, ...]] = {0: ()}
        self.held: dict[int, tuple] = {}   # S -> (words, prefix, ids, truth values)

    def hold(self, s_mask: int, table: np.ndarray, ids: Sequence[int],
             truth_values: Sequence[int] | None) -> None:
        """Keep the cover id in this table and the truth values (or None)
        of each full-depth pair of S, in ``full_depth_xsbars`` order, with
        the rank index of S's packed table E_S: ``words`` is E_S as 64-bit
        words and ``prefix[k]`` counts the set bits of the words before
        word k, so the pair at table index i (which must hold) is row
        prefix[i >> 6] + popcount(words[i >> 6] & (2^(i & 63) - 1)): the
        rank of i among the set bits."""
        if table.size % 8:   # a table of fewer than 64 entries, in one word
            table = np.concatenate([table, np.zeros(8 - table.size % 8, np.uint8)])
        counts = np.unpackbits(table).reshape(-1, 64).sum(axis=1, dtype=np.uint32)
        prefix = np.zeros(counts.size, np.uint32)
        np.cumsum(counts[:-1], out=prefix[1:])
        words = table.view("<u8").astype(np.uint64, copy=False)   # native, as memoryview reads
        self.held[s_mask] = (words, prefix, ids, truth_values)

    def intern(self, term: int, sub: int) -> int:
        """The id of the term followed by the cover ``sub``."""
        key = sub * len(self.term_masks) + term
        cid = self._ids.get(key)
        if cid is None:
            cid = self._ids[key] = len(self.first)
            self.first.append(term)
            self.sub.append(sub)
            self.union.append(self.term_masks[term][0] | self.union[sub])
        return cid

    def terms(self, cid: int) -> tuple[int, ...]:
        """The cover's 1-based term indices, built once per id."""
        cover = self._terms.get(cid)
        if cover is None:
            cover = self._terms[cid] = (self.first[cid] + 1, *self.terms(self.sub[cid]))
        return cover

    def spell(self, s_mask: int, cid: int) -> tuple[int, list[int]]:
        """S's bits of x_sat, and sigma, of a pair of S with this cover: the
        cover's terms take S's variables in turn (each those of S it has
        that no term before it took) and set them to its literals, and its
        variables enter c in order, each term's new ones ascending."""
        rest, sat, in_c, len_c, sigma = s_mask, 0, 0, 0, []
        while cid:
            term_vars, term_pos = self.term_masks[self.first[cid]]
            s_j = term_vars & rest
            sat |= term_pos & s_j
            rest ^= s_j
            new = term_vars & ~in_c
            if new & s_mask:
                for b in _ascending_bits(new):
                    len_c += 1
                    if s_mask >> b & 1:
                        sigma.append(len_c)
            else:
                len_c += new.bit_count()
            in_c |= new
            cid = self.sub[cid]
        if len(sigma) != s_mask.bit_count():
            raise EncodingInvariantError("sigma or a has wrong length")
        return sat, sigma


class SubsetRound:
    """What round 1 of every pair of one subset S shares (see the module
    docstring), with what depends on the first alive term T built the
    first time a pair selects T (``group``).  Round 1 scans the terms from
    index ``start``, those before it being falsified."""

    __slots__ = ("dnf", "s_mask", "tables", "covers", "assigned", "bound", "start", "groups")

    def __init__(self, dnf: Dnf, s_mask: int, tables: RestrictionTables, covers: CoverTable,
                 start: int = 0):
        self.dnf, self.s_mask, self.tables, self.covers = dnf, s_mask, tables, covers
        self.assigned = ((1 << dnf.n) - 1) ^ s_mask
        self.bound = dnf.width() * s_mask.bit_count()
        self.start = start
        self.groups: dict[int, tuple] = {}

    def check(self, xsbars: np.ndarray) -> None:
        """S's precondition on each pair (S, x) of the uint32 array
        ``xsbars``: E_S holds at x, and x has no bit on S.  The first pair
        that fails raises its error, naming the pair."""
        s_mask = self.s_mask
        holds = self.tables.full_depth_rows(s_mask, xsbars)
        failing = np.flatnonzero(~holds | (xsbars & s_mask != 0))
        if failing.size:
            row = int(failing[0])
            at = f"at S={s_mask}, x={int(xsbars[row])}: "
            if not holds[row]:
                raise EncodePreconditionError(
                    f"{at}restriction lacks full decision-tree depth |S| = {s_mask.bit_count()}")
            raise EncodingInvariantError(f"{at}depth invariant lost between rounds")

    def group(self, idx: int, term_vars: int) -> tuple:
        """(S_1, rest, E_rest's packed view, rest's compress plan, the
        candidates as (index in E_rest, truth values), the held results as
        views of words and prefix, cover ids and truth values, and the
        round of rest) for the first alive term ``idx``, whose variable
        mask is ``term_vars``.  What the cover table holds for rest is
        read; when it holds nothing, the held results are None and the
        round of rest, which encodes the sub-pair, is made.

        Compressing keeps the order of the variables outside rest, so the
        candidates on S_1, compressed, are the lexicographic assignments on
        S_1's compressed bits, in the same order and with the same truth
        values."""
        s_1 = term_vars & self.s_mask
        if s_1 == 0:
            raise EncodingInvariantError("alive term has no free variable")
        rest = self.s_mask ^ s_1
        table = plan = candidates = words = prefix = ids = truth_values = sub_round = None
        if rest:
            tables = self.tables
            table, plan = tables.full_depth_entry(rest)
            candidates = _lex_choices(compress(s_1, plan))
            held = self.covers.held.get(rest)
            if held is None:
                sub_round = SubsetRound(self.dnf, rest, tables, self.covers, idx)
            else:
                words, prefix, ids, truth_values = held
                words, prefix = memoryview(words), memoryview(prefix)
        group = self.groups[idx] = (
            s_1, rest, table, plan, candidates, words, prefix, ids, truth_values, sub_round)
        return group


def extract_cover(
    dnf: Dnf, s_mask: int, xsbar_bits: int, r: SubsetRound
) -> tuple[int, int | None]:
    """Encode the pair (S, x_Sbar), S nonempty, into its cover's id in
    ``r.covers`` and its truth values ``a``.  ``r`` is S's round, and the
    pair's precondition has been answered: by ``r.check`` in a pass, by
    ``encode`` outside one.

    It runs round 1, takes the rest of the run from the sub-pair (S - S_1,
    x | b), and checks the whole run (see the module docstring): in a
    pass the sub-pair's result is read from what the pass holds for
    S - S_1, and ``a`` is None when the pass holds no truth values;
    outside a pass it encodes the sub-pair by calling itself on the
    sub-pair's round.  The family analysis encodes each pair with S
    nonempty once, through this name, which bench/spans.py counts by
    wrapping it.  A failed check raises EncodingInvariantError.
    """
    # the first alive term: a satisfied term means the restriction is
    # decided, contradicting full depth
    assigned = r.assigned
    term_masks = dnf.term_masks
    for idx in range(r.start, len(term_masks)):
        term_vars, term_pos = term_masks[idx]
        seen = term_vars & assigned
        if xsbar_bits & seen != term_pos & seen:
            continue  # falsified
        if seen == term_vars:
            raise EncodingInvariantError(
                f"term {idx + 1} already satisfied while free variables remain")
        break
    else:
        raise EncodingInvariantError("no alive term although the restriction has full depth")
    group = r.groups.get(idx) or r.group(idx, term_vars)
    s_1, rest, table, plan, candidates, words, prefix, ids, truth_values, sub_round = group
    if rest:
        # the lexicographically first assignment b of S_1 that keeps E_rest
        # (its existence is part of the correctness claim): x's index in
        # E_rest OR each candidate's, since compressing is linear in OR.
        # The accepted lookup asks the sub-pair's precondition.  x is
        # compressed inline, not by ``compress``: this runs once per pair
        x_index = 0
        for shift, mask in plan:
            x_index |= xsbar_bits >> shift & mask
        for index, values in candidates:
            i = x_index | index
            if table[i >> 3] >> (i & 7) & 1:
                break
        else:
            raise EncodingInvariantError("no depth-preserving assignment exists")
        if sub_round is None:
            row = prefix[i >> 6] + (words[i >> 6] & ((1 << (i & 63)) - 1)).bit_count()
            sub, sub_a = ids[row], None if truth_values is None else truth_values[row]
        else:
            sub, sub_a = extract_cover(dnf, rest, xsbar_bits | pdep(values, s_1), sub_round)
    else:
        # E_{} is identically true, so the first candidate, every variable
        # false, keeps it: nothing is asked
        values = sub = sub_a = 0
    covers = r.covers
    # the sub-pair's terms are alive after round 1, so they come after T
    if covers.first[sub] <= idx:
        raise EncodingInvariantError("cover term indices not increasing")
    cid = covers.intern(idx, sub)
    union = covers.union[cid]
    if s_mask & ~union:
        raise EncodingInvariantError("variable string c misses part of S")
    if union.bit_count() > r.bound:
        raise EncodingInvariantError("variable string c longer than width * d")
    a = None if sub_a is None else values | sub_a << s_1.bit_count()
    if a is not None and a >> s_mask.bit_count():
        raise EncodingInvariantError("sigma or a has wrong length")
    return cid, a


def encode(
    dnf: Dnf, s_mask: int, xsbar_bits: int, tables: RestrictionTables
) -> tuple[Encoding, CoverRecord]:
    """Encode the full-depth pair (S, x_Sbar) into (x_sat, sigma, a), and
    its cover as a ``CoverRecord`` (whose union mask is the union of the
    cover terms' variables).

    ``xsbar_bits`` is the fixed-side assignment as an n-bit mask (bits at
    free positions must be zero); ``tables`` are the restriction tables of
    ``dnf``'s truth table.  Raises EncodePreconditionError when the
    restriction does not have decision-tree depth |S|, and
    EncodingInvariantError if any internal correctness invariant fails
    (which would falsify the counting argument).  It is one
    ``extract_cover`` with a round and a cover table of its own.
    """
    full = (1 << dnf.n) - 1
    if s_mask & ~full or xsbar_bits & ~full:
        raise ValueError(f"mask beyond n={dnf.n} variables")
    if xsbar_bits & s_mask:
        raise ValueError("fixed assignment overlaps the free set")
    if not tables.full_depth_at(s_mask, xsbar_bits):
        raise EncodePreconditionError(
            f"restriction lacks full decision-tree depth |S| = {s_mask.bit_count()}")
    if not s_mask:
        return Encoding(dnf.n, xsbar_bits, (), 0), CoverRecord((), 0, 0)
    covers = CoverTable(dnf)
    cid, a = extract_cover(dnf, s_mask, xsbar_bits, SubsetRound(dnf, s_mask, tables, covers))
    sat, sigma = covers.spell(s_mask, cid)
    union = covers.union[cid]
    return (
        Encoding(dnf.n, xsbar_bits | sat, tuple(sigma), a),
        CoverRecord(covers.terms(cid), union.bit_count(), union),
    )


def decode(dnf: Dnf, e: Encoding) -> tuple[int, int]:
    """Invert encode: recover (S mask, x_Sbar bits) from the triple.

    Only triples produced by encode on the same DNF are valid inputs.
    Structural corruption is detected and raises DecodeError (no satisfied
    term while variables remain, a round that recovers no new variable);
    a foreign but well-formed triple may instead decode to some pair,
    which is why validity is the caller's contract.  The triple is decoded as a one-row ``decode_records``, in
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
    fail(a.astype(np.int64) >> d != 0, TRUTH_VALUES_BEYOND_D)
    fail((np.diff(pos, axis=1) == 0).any(axis=1), SIGMA_NOT_DISTINCT)
    fail((pos < 1).any(axis=1), SIGMA_NOT_1_BASED)
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
        # prefix of at most d, and the first ``found`` of them were
        # recovered before; a round that does not fail raises ``found``,
        # so every row that fails no check has found all d after d rounds
        inside = (pos <= len_c[:, None]).sum(axis=1, dtype=np.uint8)
        fail(active & (inside == found), NO_NEW_VARIABLE)
        active &= inside > found
        for j in range(d):     # the j-th sorted position takes the j-th value
            take = active & (found <= j) & (j < inside)
            var = c[rows, np.clip(pos[:, j], 1, dnf.n) - 1]
            bit = np.where(take, np.uint32(1) << var, np.uint32(0))
            x = np.where(a >> j & 1 != 0, x | bit, x & ~bit)
            s_mask |= bit
        found = np.where(active, inside, found)
    return s_mask, x & ~s_mask, code


def valid_pairs(tables: RestrictionTables, d_max: int) -> Iterator[tuple[int, int]]:
    """All (S mask, x_Sbar bits) with |S| <= d_max and a full-depth
    restriction, in (ascending S mask, ascending x_Sbar) order."""
    for s_mask in tables.visit(d_max):
        for xsbar in tables.full_depth_xsbars(s_mask).tolist():
            yield s_mask, xsbar

