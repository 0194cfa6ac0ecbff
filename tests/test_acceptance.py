"""Acceptance suite: every shipped guarantee, one test per criterion.

Each criterion runs at its stated tolerance (exact arithmetic: zero
tolerance everywhere) and prints one PASS/FAIL line with its runtime,
which is also asserted against the stated budget.
"""
from __future__ import annotations

import io
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from dnf_fourier import (
    DyadicRational,
    ExperimentConfig,
    FamilyAnalysis,
    GeneratorSpec,
    InstanceSource,
    RestrictionTables,
    SplitMix64,
    budget_lemma_bound,
    check_abs_fourier_u,
    check_onenorm_u,
    check_twonorm_u,
    encode,
    evasive_bound_check,
    exact_width_cover_bound,
    fourier_transform,
    min_coeffs_for_eps,
    random_read_k,
    read_cover_count_bound,
    run_verify,
    st_inequality_check,
    tribes,
    valid_pairs,
)
from dnf_fourier.bitops import subsets_up_to
from dnf_fourier.covers import (
    cover_counts_by_union,
    family_cauchy_check,
    family_onenorm_count_check,
    onenorm_count_check,
    onenorm_width_binom_check,
    pair_count_binom_check,
)
from dnf_fourier.enclosures import floor_scaled_log2
from dnf_fourier.experiments import render_json

from conftest import corpus_bundles, table_of
from test_boolfn import character_matrix, random_function
from test_covers import oracle_cover_counts
from test_encoder import oracle_decode


@contextmanager
def criterion(number: int, title: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"criterion {number} ({title}): FAIL after {elapsed:.1f}s")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {number} ({title}): PASS in {elapsed:.1f}s")
    assert elapsed < budget_seconds, f"criterion {number} overran {budget_seconds}s"


def test_criterion_1_fourier_correctness():
    with criterion(1, "Fourier transform vs direct definition", 60):
        for n in (1, 2, 3):
            h = character_matrix(n)
            tables = np.arange(1 << (1 << n), dtype=np.int64)
            for bits in tables:
                f = table_of(n, int(bits))
                spec = fourier_transform(f)
                arr = f.to_array().astype(np.int64)
                assert np.array_equal(spec.scaled, h @ arr)
                assert spec.total_weight() == DyadicRational(f.ones, n)
                assert np.array_equal(h @ spec.scaled, arr << n)
        rng = SplitMix64(2718)
        for i in range(1000):
            n = 4 + i % 7  # 4..10
            f = random_function(rng, n)
            spec = fourier_transform(f)
            h = character_matrix(n)
            arr = f.to_array().astype(np.int64)
            assert np.array_equal(spec.scaled, h @ arr)
            assert spec.total_weight() == DyadicRational(f.ones, n)
            assert np.array_equal(h @ spec.scaled, arr << n)


def test_criterion_2_evasiveness_suite():
    with criterion(2, "evasiveness bound over the corpus", 300):
        for b in corpus_bundles():
            for s_mask in subsets_up_to(b.dnf.n, 4):
                _, _, holds = evasive_bound_check(
                    b.tables.full_depth_count(s_mask), s_mask, b.spec)
                assert holds, (b.label, s_mask)


def test_criterion_3_encode_decode_injectivity():
    with criterion(3, "encode/decode round trip, exhaustive", 600):
        total = 0
        for b in corpus_bundles():
            for s_mask, xsbar in valid_pairs(b.tables, 4):
                # any internal invariant violation raises and fails the run
                enc, _ = encode(b.dnf, s_mask, xsbar, b.tables)
                assert oracle_decode(b.dnf, enc) == (s_mask, xsbar), (b.label, s_mask, xsbar)
                total += 1
        assert total > 10_000  # the corpus genuinely exercises the encoder
        print(f"  round-tripped {total} full-depth pairs")


def test_criterion_4_counting_bounds():
    with criterion(4, "counting and family bounds", 600):
        for b in corpus_bundles():
            for d in range(4):
                assert onenorm_count_check(b.analysis, d).holds, (b.label, d)
                assert onenorm_width_binom_check(b.analysis, d).holds, (b.label, d)
                assert pair_count_binom_check(b.analysis, d).holds, (b.label, d)
            for key in b.analysis.families:
                if key.d > 3:
                    continue
                ctx = (b.label, key)
                assert family_onenorm_count_check(b.analysis, key.d, key.u).holds, ctx
                assert check_onenorm_u(b.analysis, key.d, key.u).holds, ctx
                assert check_twonorm_u(b.analysis, key.d, key.u).holds, ctx
                assert family_cauchy_check(b.analysis.families[key]).holds, ctx
            for s_mask in b.analysis.profiles:
                if s_mask.bit_count() > 3:
                    continue
                r = check_abs_fourier_u(b.analysis, s_mask)
                assert r.holds, (b.label, s_mask)
                assert r.extras["prob_le_distinct"], (b.label, s_mask)
                assert r.extras["prob_le_num_covers"], (b.label, s_mask)


def test_criterion_5_cover_counting():
    with criterion(5, "cover counts vs oracle and read chains", 600):
        for b in corpus_bundles():
            for s_mask in subsets_up_to(b.dnf.n, 4):
                counts = cover_counts_by_union(b.dnf, s_mask)
                assert counts == oracle_cover_counts(b.dnf, s_mask), (b.label, s_mask)
                r = read_cover_count_bound(b.dnf, s_mask, counts)
                assert r.holds and r.extras["chain_mid_holds"] and r.extras[
                    "chain_top_holds"
                ], (b.label, s_mask)
        # the exact-width chain, where its hypothesis (uniform widths) holds
        exact_instances = [tribes(2, 2), tribes(2, 3), tribes(3, 2)] + [
            random_read_k(8, 4, [2, 2, 3][i % 3], [1, 2, 2][i % 3],
                          exact_width=True, seed=8800 + i)
            for i in range(24)
        ]
        for dnf in exact_instances:
            w = dnf.width()
            for s_mask in subsets_up_to(dnf.n, 3):
                counts = cover_counts_by_union(dnf, s_mask)
                for u in range(s_mask.bit_count(), min(dnf.n, 3 * w) + 1):
                    r = exact_width_cover_bound(dnf, s_mask, u, counts)
                    assert r.holds, (dnf.to_json(), s_mask, u)
                    if "chain_mid_holds" in r.extras:
                        assert r.extras["chain_mid_holds"] and r.extras["chain_top_holds"]


def test_criterion_6_satisfied_mass_inequality():
    with criterion(6, "satisfied-mass bound with rigorous ln", 300):
        for b in corpus_bundles():
            assert st_inequality_check(b.dnf, b.f).holds, b.label
        for i in range(200):
            k = 1 + i % 3
            dnf = random_read_k(4 + i % 5, 1 + i % 6, 1 + i % 4, k, seed=7000 + i)
            assert st_inequality_check(dnf, dnf.evaluate()).holds, i


def test_criterion_7_budget_lemma():
    with criterion(7, "set-family budget bound, 1000 families", 300):
        rng = SplitMix64(31337)
        checked = 0
        while checked < 1000:
            count = 1 + rng.below(50)
            sizes = [rng.below(14) for _ in range(count)]
            v = sum(sizes) + rng.below(8)
            mass = sum(Fraction(1, 2**s) for s in sizes)
            if not v > mass:
                continue
            assert budget_lemma_bound(sizes, v, mass).holds
            checked += 1


def test_criterion_8_concentration_measurement():
    with criterion(8, "tribes concentration and tail monotonicity", 600):
        eps = Fraction(1, 8)
        for t in (2, 3, 4):
            dnf = tribes(2, t)
            n, w = dnf.n, dnf.width()
            f = dnf.evaluate()
            spec = fourier_transform(f)
            reported = min_coeffs_for_eps(spec, eps)
            degree_cut = floor_scaled_log2(Fraction(3) / eps, Fraction(w), n)
            analysis = FamilyAnalysis(dnf, degree_cut, RestrictionTables(f), spec)
            u_hi = min(w * degree_cut, n)
            tails = [analysis.tail_weight(u) for u in range(u_hi + 1)]
            for a, b in zip(tails, tails[1:]):
                assert b <= a  # monotone in the cutoff
            captured = [u for u, tail in enumerate(tails) if tail <= eps]
            assert captured, f"no cutoff within {u_hi} captures 7/8 of the weight"
            print(
                f"  tribes(2,{t}): min_coeffs={reported}, "
                f"first capturing cutoff u*={captured[0]} (<= {w}*{degree_cut})"
            )


def test_criterion_9_determinism():
    with criterion(9, "byte-identical reports, workers 1 vs 8", 300):
        sources = (
            InstanceSource("generator", spec=GeneratorSpec("tribes", {"w": 2, "t": 2})),
            InstanceSource(
                "generator",
                spec=GeneratorSpec("random_read_k",
                                   {"n": 7, "s": 4, "w": 3, "k": 2}, seed=11),
            ),
        )
        one, eight = io.StringIO(), io.StringIO()
        render_json(run_verify(ExperimentConfig(instances=sources, workers=1)), one)
        render_json(run_verify(ExperimentConfig(instances=sources, workers=8)), eight)
        assert one.getvalue() == eight.getvalue()
