"""Shared fixtures: the deterministic instance corpus and per-instance bundles.

The corpus is 200 seeded random DNFs (n between 4 and 8, up to 6 terms,
width at most 4, read unconstrained) plus the two smallest tribes
instances.  Bundles carry the per-instance objects the heavier suites
share: truth table, spectrum, restriction tables, the family analysis at
d_max = 4, the records the analysis handed its consumer (``records``:
S mask to (x_Sbar masks, record)), and every distinct cover its pass
interned (``covers``, read by ``analyze`` from the pass's ``CoverTable``,
which the analysis does not keep; ``analyze_with_table`` returns that
table itself).  ``small_dnfs`` is the hypothesis
strategy for random DNFs with duplicate terms, the empty term and negated
literals.  ``table_of``
and ``bits_of`` turn a truth table into and out of the int form (bit x is
f(x)), which the tests keep as an oracle and a shorthand.  ``encodings``
rebuilds a record's rows as ``Encoding`` objects for ``oracle_decode``
(in test_encoder.py), the oracle of ``decode_records``.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterator

import numpy as np
import pytest
from hypothesis import strategies as st

from dnf_fourier import (
    BooleanFunction,
    Dnf,
    FamilyAnalysis,
    FourierSpectrum,
    RestrictionTables,
    fourier_transform,
    random_read_k,
    tribes,
)
from dnf_fourier import covers as covers_module
from dnf_fourier.dnf import Term
from dnf_fourier.encoder import CoverTable, DecodeError, Encoding, EncodingRecord

CORPUS_D_MAX = 4


def corpus_instances() -> list[tuple[str, Dnf]]:
    out: list[tuple[str, Dnf]] = []
    for i in range(200):
        n = 4 + (i % 5)
        s = 1 + (i % 6)
        w = 1 + (i % 4)
        dnf = random_read_k(n=n, s=s, w=w, k=s, seed=1000 + i)
        out.append((f"random[{i}]", dnf))
    out.append(("tribes(2,2)", tribes(2, 2)))
    out.append(("tribes(2,3)", tribes(2, 3)))
    return out


def table_of(n: int, bits: int) -> BooleanFunction:
    """The function on n variables whose entry x is bit x of ``bits``: the
    int form of a truth table, which the package does not use.  An int of
    more than 2^n bits gives a table with bits beyond 2^n entries, which
    the constructor rejects."""
    size = max(1, (1 << n) >> 3, -(-bits.bit_length() // 8))
    return BooleanFunction(n, np.frombuffer(bits.to_bytes(size, "little"), dtype=np.uint8))


def bits_of(f: BooleanFunction) -> int:
    """f's truth table in the int form, bit x f(x): the oracle of the packed
    array that the package holds."""
    return int.from_bytes(f.packed().tobytes(), "little")


def encodings(record: EncodingRecord) -> Iterator[Encoding]:
    """The ``Encoding`` of each pair of the record, in record order; a row
    that the constructor rejects raises DecodeError with the constructor's
    message when it is reached, as ``decode_records`` reports it."""
    for x_sat, sigma, a in zip(record.x_sat.tolist(), record.sigma.tolist(), record.a.tolist()):
        try:
            e = Encoding(record.n, x_sat, tuple(sigma), a)
        except ValueError as exc:
            raise DecodeError(str(exc)) from exc
        yield e


@st.composite
def small_dnfs(draw):
    """DNFs on n <= 7 variables with at most 8 terms, drawn from a pool of
    at most 4 distinct terms so that duplicates are common; a term with no
    variables is the empty term, and the second mask negates literals."""
    n = draw(st.integers(1, 7))
    masks = st.integers(0, (1 << n) - 1)
    pool = [
        Term(vars_mask & ~neg, vars_mask & neg)
        for vars_mask, neg in draw(st.lists(st.tuples(masks, masks), min_size=1, max_size=4))
    ]
    return Dnf(n, tuple(draw(st.lists(st.sampled_from(pool), max_size=8))))


@dataclass
class Bundle:
    label: str
    dnf: Dnf
    f: BooleanFunction
    spec: FourierSpectrum
    tables: RestrictionTables
    analysis: FamilyAnalysis
    records: dict[int, tuple[np.ndarray, EncodingRecord]]
    covers: set[tuple[int, ...]]


def analyze_with_table(*args) -> tuple[FamilyAnalysis, CoverTable]:
    """``FamilyAnalysis(*args)``, and its pass's ``CoverTable``, which the
    analysis does not keep, captured by a recording subclass."""
    made = []

    class Recording(CoverTable):
        def __init__(self, dnf):
            super().__init__(dnf)
            made.append(self)

    original, covers_module.CoverTable = covers_module.CoverTable, Recording
    try:
        analysis = FamilyAnalysis(*args)
    finally:
        covers_module.CoverTable = original
    (table,) = made
    return analysis, table


def analyze(*args) -> tuple[FamilyAnalysis, set[tuple[int, ...]]]:
    """``FamilyAnalysis(*args)``, and every distinct cover (1-based term
    indices) of its pass: each id of the pass's ``CoverTable`` was
    interned by a pair, and id 0 is the empty cover of S = {}."""
    analysis, table = analyze_with_table(*args)
    return analysis, {table.terms(cid) for cid in range(len(table.first))}


def make_bundle(label: str, dnf: Dnf, d_max: int = CORPUS_D_MAX) -> Bundle:
    """One instance's context, built once as verify builds it, with a
    consumer that keeps every subset's records."""
    f = dnf.evaluate()
    spec = fourier_transform(f)
    tables = RestrictionTables(f)
    records: dict[int, tuple[np.ndarray, EncodingRecord]] = {}

    def keep(s_mask, xsbars, record):
        records[s_mask] = (xsbars, record)

    analysis, covers = analyze(dnf, d_max, tables, spec, keep)
    return Bundle(label, dnf, f, spec, tables, analysis, records, covers)


@functools.lru_cache(maxsize=1)
def corpus_bundles() -> tuple[Bundle, ...]:
    return tuple(make_bundle(label, dnf) for label, dnf in corpus_instances())


@pytest.fixture(scope="session")
def corpus():
    return corpus_instances()


@pytest.fixture(scope="session")
def bundles():
    return corpus_bundles()
