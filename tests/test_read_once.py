"""The package against the closed forms of read-once DNFs (read_once.py),
at sizes the other oracles do not reach."""
from fractions import Fraction

from dnf_fourier import (
    GeneratorSpec, RestrictionTables, fourier_transform, random_read_k, tribes,
)
from dnf_fourier.bitops import subsets_up_to
from dnf_fourier.covers import SubsetProfile
from dnf_fourier.experiments import ExperimentConfig, InstanceSource, RoundTrip, run_verify

import read_once
from conftest import analyze


def test_tribes_at_n24_matches_the_closed_forms_up_to_two_variables():
    # every S with |S| <= 2, of the spectrum and of the tables' pass
    dnf = tribes(4, 6)
    f = dnf.evaluate()
    spec = fourier_transform(f)
    tables = RestrictionTables(f)
    visited = 0
    for s_mask in tables.visit(2):
        assert spec.coeff(s_mask).as_fraction() == read_once.coefficient(dnf, s_mask), s_mask
        assert tables.full_depth_count(s_mask) == read_once.full_depth_count(dnf, s_mask), s_mask
        visited += 1
    assert visited == 1 + 24 + 276


def test_a_read_once_random_dnf_has_one_cover_per_subset():
    # at d_max 4, with negated literals and two unused variables: the
    # spectrum, and each subset with a full-depth pair has one distinct
    # cover, the terms that meet S, at u(S), where it has its every pair,
    # and num_covers(S, u(S)) = 1; the pass interns those covers and no
    # other, its pair count per (d, u) is the closed form's, and each of
    # its 384,472 pairs, encoded from the truth values its cover table
    # holds, decodes back
    dnf = random_read_k(n=16, s=6, w=3, k=1, seed=5)
    assert dnf.read() == 1
    f = dnf.evaluate()
    spec = fourier_transform(f)
    roundtrip = RoundTrip(dnf)
    analysis, every_cover = analyze(dnf, 4, RestrictionTables(f), spec, roundtrip)
    assert roundtrip.result() == (384_472, None)
    for d in range(5):
        for u in range(dnf.n + 1):
            assert analysis.pair_count(d, u) == read_once.pair_count(dnf, d, u), (d, u)
    subsets = list(subsets_up_to(dnf.n, 4))
    for s_mask in subsets:
        assert spec.coeff(s_mask).as_fraction() == read_once.coefficient(dnf, s_mask), s_mask
    covered = [m for m in subsets if read_once.full_depth_count(dnf, m)]
    assert set(analysis.profiles) == set(covered)
    for s_mask in covered:
        u = read_once.union_size(dnf, s_mask)
        witnesses = read_once.full_depth_count(dnf, s_mask)
        assert analysis.profiles[s_mask] == SubsetProfile(u, witnesses, 1), s_mask
        assert analysis.cover_counts(s_mask)[u] == 1, s_mask
    assert {tuple(sorted(c)) for c in every_cover} == {
        read_once.cover(dnf, m) for m in covered}


def _dyadic(q: Fraction) -> str:
    """q, whose denominator is a power of two, as a report writes it."""
    e = q.denominator.bit_length() - 1
    assert q.denominator == 1 << e, q
    return str(q.numerator) if e == 0 else f"{q.numerator}/2^{e}"


def test_the_evasive_and_family_rows_of_a_read_once_verify_match_the_closed_forms():
    # every evasive row (|S| <= 4) and every family_abs_coeff row (each S
    # with a full-depth pair) of an exact verify: the lhs is |fhat(S)|, the
    # bound the share of E_S's witnesses, times w|S| + 1 for a family row,
    # whose u is u(S)
    params = {"n": 16, "s": 6, "w": 3, "k": 1}
    spec = GeneratorSpec("random_read_k", params, seed=5)
    dnf = spec.build()
    assert dnf == random_read_k(**params, seed=5) and dnf.read() == 1
    w, n = dnf.width(), dnf.n
    report = run_verify(ExperimentConfig(instances=(InstanceSource("generator", spec=spec),),
                                         d_max=4, checks=("evasive", "families")))
    rows = report["instances"][0]["checks"]
    assert report["summary"]["ok"]

    def closed_forms(s_mask):
        d = s_mask.bit_count()
        share = Fraction(read_once.full_depth_count(dnf, s_mask), 1 << (n - d))
        return _dyadic(abs(read_once.coefficient(dnf, s_mask))), share, d

    evasive = [r for r in rows if r["check"] == "evasive"]
    assert [r["context"]["S_mask"] for r in evasive] == list(subsets_up_to(n, 4))
    for r in evasive:
        lhs, share, _ = closed_forms(r["context"]["S_mask"])
        assert (r["lhs"], r["bound"]) == (lhs, _dyadic(share)), r
    family = [r for r in rows if r["check"] == "family_abs_coeff"]
    assert [r["context"]["S_mask"] for r in family] == [
        m for m in subsets_up_to(n, 4) if read_once.full_depth_count(dnf, m)]
    for r in family:
        s_mask = r["context"]["S_mask"]
        lhs, share, d = closed_forms(s_mask)
        assert r["context"]["u"] == read_once.union_size(dnf, s_mask), r
        assert (r["lhs"], r["bound"]) == (lhs, _dyadic((w * d + 1) * share)), r
    assert (len(evasive), len(family)) == (2517, 1471)
