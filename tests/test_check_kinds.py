"""The check table: ``CHECK_KINDS`` says what each verify group writes and
reads, and every row kind it names can fail."""
import dataclasses
import functools
import json
import math
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dnf_fourier import (
    DyadicRational,
    ExperimentConfig,
    FourierSpectrum,
    experiments,
    run_verify,
)
from dnf_fourier.cli import main
from dnf_fourier.covers import CheckResult, budget_lemma_bound
from dnf_fourier.dnf import Dnf
from dnf_fourier.enclosures import ln_enclosure
from dnf_fourier.encoder import DecodeError, EncodingInvariantError
from dnf_fourier.experiments import CHECK_KINDS

from conftest import table_of

#: The instances the table is checked on, at d_max 4: the read-2 one
#: writes every row kind.
_SOURCES = {
    "rk10": {"generator": {"family": "random_read_k", "seed": 1, "params": {
        "n": 10, "s": 6, "w": 3, "k": 2, "exact_width": True}}},
    "tribes23": {"generator": {"family": "tribes", "params": {"w": 2, "t": 3}}},
}
_GROUP_OF = {kind: group for group, check in CHECK_KINDS.items() for kind in check.rows}


def _config(name: str, checks) -> dict:
    return {"instances": [_SOURCES[name]], "d_max": 4, "checks": checks}


def _rows(name: str, checks) -> list[dict]:
    report = run_verify(ExperimentConfig.from_json(json.dumps(_config(name, checks))))
    return report["instances"][0]["checks"]


@functools.cache
def _all_rows(name: str) -> tuple[dict, ...]:
    """The rows of the all-checks verify of ``name``; not to be changed."""
    return tuple(_rows(name, "all"))


def _verify(tmp_path, config: dict) -> tuple[int, dict]:
    """The exit code and the report of the CLI verify of ``config``."""
    cfg_path, out = tmp_path / "cfg.json", tmp_path / "report.json"
    cfg_path.write_text(json.dumps(config))
    code = main(["verify", str(cfg_path), "--out", str(out)])
    return code, json.loads(out.read_text())


@pytest.mark.parametrize("name", _SOURCES)
def test_the_all_checks_report_writes_the_declared_kinds_in_table_order(name):
    rows = _all_rows(name)
    groups = [_GROUP_OF[row["check"]] for row in rows]
    assert groups == sorted(groups, key=list(CHECK_KINDS).index)
    assert {row["check"] for row in rows} == set(_GROUP_OF)
    if name == "rk10":
        assert len(rows) == 4575


def _spy(monkeypatch, name: str) -> list:
    """Record every ``experiments.<name>`` the verify builds."""
    built, cls = [], getattr(experiments, name)

    class Spy(cls):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(experiments, name, Spy)
    return built


@pytest.mark.parametrize("name", _SOURCES)
@pytest.mark.parametrize("group", CHECK_KINDS)
def test_a_group_alone_writes_its_rows_and_builds_what_it_reads(monkeypatch, group, name):
    kinds, reads = CHECK_KINDS[group].rows, CHECK_KINDS[group].reads
    expected = [row for row in _all_rows(name) if row["check"] in kinds]
    tables = _spy(monkeypatch, "RestrictionTables")
    analyses = _spy(monkeypatch, "FamilyAnalysis")
    assert expected and _rows(name, [group]) == expected
    assert len(tables) == (reads in ("tables", "analysis"))
    assert len(analyses) == (reads == "analysis")


@pytest.mark.parametrize("name", _SOURCES)
def test_an_analysis_fault_leaves_the_groups_that_do_not_read_it(tmp_path, monkeypatch, name):
    # with roundtrip not configured, the fault is still its one failed row
    def broken(*args):
        raise EncodingInvariantError("injected fault")

    kept = [row for row in _all_rows(name)
            if CHECK_KINDS[_GROUP_OF[row["check"]]].reads != "analysis"]
    monkeypatch.setattr(experiments, "FamilyAnalysis", broken)
    code, report = _verify(tmp_path, _config(name, [g for g in CHECK_KINDS if g != "roundtrip"]))
    *rows, last = report["instances"][0]["checks"]
    assert code == 1 and rows == kept
    assert (last["check"], last["holds"]) == ("roundtrip", False)
    assert last["context"] == {"pairs": 0, "error": "EncodingInvariantError injected fault"}
    assert report["summary"]["failures"] == 1


# -- every row kind can fail ----------------------------------------------------


def _failing(name: str):
    """Stub ``experiments.<name>``, a check function, to return its verdict
    with ``holds`` false."""
    def install(monkeypatch):
        check = getattr(experiments, name)

        def failing(*args):
            verdict = check(*args)
            if isinstance(verdict, CheckResult):
                return dataclasses.replace(verdict, holds=False)
            return verdict[0], verdict[1], False

        monkeypatch.setattr(experiments, name, failing)
    return install


def _patch(target, name: str, make):
    """Replace ``target.<name>`` by ``make(the original)``."""
    return lambda monkeypatch: monkeypatch.setattr(target, name, make(getattr(target, name)))


def _outside_the_kept_masks(weight_outside_masks):
    # the first call is the truncation's eps2, made before f's spectrum
    # exists; the second is f's lhs, which 5 puts above 2 (eps1 + eps2) <= 4
    calls = []

    def weight(spec, masks):
        calls.append(spec.n)
        extra = DyadicRational(5 if len(calls) > 1 else 0, 0)
        return weight_outside_masks(spec, masks) + extra
    return weight


def _decode_error(decode_records):
    def decode(*args):
        raise DecodeError("injected fault")
    return decode


#: For each row kind, how to make each of its rows fail and no other row
#: change.  A kind whose verdict the battery reaches itself has its input
#: changed: the spectrum's weight or one-norm, or the truncation bound.
_FAILS = {
    "parseval": _patch(FourierSpectrum, "total_weight",
                       lambda total: lambda spec: total(spec) + DyadicRational(1, spec.n)),
    "reconstruction": _patch(experiments, "_reconstructs", lambda check: lambda spec, f: False),
    "sparsity_onenorm": _patch(FourierSpectrum, "one_norm_total",
                               lambda one_norm: lambda spec: DyadicRational(0, 0)),
    "truncation_distance": _patch(Dnf, "truncation_distance_bound",
                                  lambda bound: lambda dnf, w: DyadicRational(-1, 0)),
    "approx_transfer": _patch(experiments, "weight_outside_masks", _outside_the_kept_masks),
    "evasive": _failing("evasive_bound_check"),
    "cover_probability": _failing("cover_probability_check"),
    "onenorm_pair_count": _failing("onenorm_count_check"),
    "onenorm_width_binom": _failing("onenorm_width_binom_check"),
    "pair_count_binom": _failing("pair_count_binom_check"),
    "family_onenorm_count": _failing("family_onenorm_count_check"),
    "family_onenorm_binom": _failing("check_onenorm_u"),
    "family_twonorm": _failing("check_twonorm_u"),
    "family_cauchy": _failing("family_cauchy_check"),
    "family_abs_coeff": _failing("check_abs_fourier_u"),
    "read_cover_chain": _failing("read_cover_count_bound"),
    "exact_width_chain": _failing("exact_width_cover_bound"),
    "satisfied_mass": _failing("st_inequality_check"),
    "roundtrip": _patch(experiments, "decode_records", _decode_error),
}


@pytest.mark.parametrize("kind", _GROUP_OF)
def test_every_row_kind_can_fail(tmp_path, monkeypatch, kind):
    clean = _all_rows("rk10")
    _FAILS[kind](monkeypatch)   # a kind with no case fails here
    code, report = _verify(tmp_path, _config("rk10", "all"))
    rows = report["instances"][0]["checks"]
    failed = [row for row in rows if row["check"] == kind]
    assert code == 1 and failed
    assert all(row["holds"] is False for row in failed)
    assert report["summary"]["failures"] == len(failed)
    assert ([row for row in rows if row["check"] != kind]
            == [row for row in clean if row["check"] != kind])


def test_the_readme_table_names_every_group_and_row_kind():
    # one line per group, in table order: | `group` | `kind`, ... | reads |
    # bound |, where the bound is exact but in the group whose bound is
    # irrational
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    lines = readme.split("| group | row kinds | reads | `bound` |\n", 1)[1].split("\n\n", 1)[0]
    table = [line.strip("| ").split(" | ") for line in lines.splitlines()[1:]]
    enclosed = {"satisfied_mass"}
    assert table == [[f"`{group}`", ", ".join(f"`{kind}`" for kind in check.rows),
                      check.reads or "—",
                      "upper end of an enclosure" if group in enclosed else "exact"]
                     for group, check in CHECK_KINDS.items()]


@pytest.mark.parametrize("command", ["verify", "sweep"])
def test_a_config_that_names_cover_budget_is_a_usage_error(tmp_path, capsys, command):
    # cover_budget, whose rows could not fail, is not a group of the table:
    # a config that names it exits 2, naming it, and writes no report
    cfg_path, out = tmp_path / "cfg.json", tmp_path / "report.json"
    cfg_path.write_text(json.dumps(_config("tribes23", ["evasive", "cover_budget"])))
    assert main([command, str(cfg_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: unknown checks: ['cover_budget']\n"
    assert not out.exists()


# -- the spectral row kinds at their bounds --------------------------------------
#
# Each case builds what its group's ``_Battery`` method reads, with the lhs
# ``past`` units above the bound (a unit is 2^-n, or 1 for a count), and
# returns (what it reads, lhs, bound).


def _parseval(n, past):
    # total weight = Pr[f = 1]: an equality, so one unit more fails
    ones = 3
    battery = {"dnf": SimpleNamespace(n=n), "f": table_of(n, (1 << ones) - 1),
               "total_weight": DyadicRational(ones + past, n)}
    return battery, DyadicRational(ones + past, n), DyadicRational(ones, n)


def _sparsity_onenorm(n, past):
    # min_coeffs <= ceil(one_norm^2 / eps): (3/2)^2 * 3 = 27/4, so 7
    battery = {"one_norm": DyadicRational(3 << (n - 1), n), "eps": Fraction(1, 3),
               "min_coeffs": 7 + past}
    return battery, 7 + past, 7


def _truncation_distance(n, past):
    # Pr[f != f_0] <= the bound for width 0, here 3 / 2^n
    bound = DyadicRational(3, n)
    battery = {"w": 1, "f": table_of(n, 0),
               "truncated_table": {0: table_of(n, (1 << (3 + past)) - 1)}.__getitem__,
               "dnf": SimpleNamespace(truncation_distance_bound={0: bound}.__getitem__)}
    return battery, DyadicRational(3 + past, n), bound


def _approx_transfer(n, past):
    # the weight outside the kept masks 0 and 1 <= 2 (eps1 + eps2), with
    # eps1 = 1 / 2^n (one point) and eps2 = 5 / 2^2n: 2^(n+1) + 10 units of
    # 2^-2n, and one unit of 2^-n is 2^n of them.  The other masks carry it
    # as a greedy sum of squares; the kept masks carry 7 each, not counted
    bound = (2 << n) + 10
    scaled = np.zeros(1 << n, np.int32)
    scaled[:2] = 7
    rest = bound + (past << n)
    for mask in range(2, 1 << n):
        scaled[mask] = math.isqrt(rest)
        rest -= int(scaled[mask]) ** 2
    assert rest == 0
    battery = {"w": 1, "f": table_of(n, 0),
               "truncated_table": {0: table_of(n, 1)}.__getitem__,
               "spec": FourierSpectrum(n, scaled), "masks": np.arange(2), "m_keep": 2,
               "eps2": DyadicRational(5, 2 * n)}
    return battery, DyadicRational(bound + (past << n), 2 * n), DyadicRational(bound, 2 * n)


def _read_two_pairs(n):
    """The n terms x_i x_(i+1) around a cycle: width 2, read 2."""
    return Dnf.from_term_literals(n, [[i, i % n + 1] for i in range(1, n + 1)])


def _cover_chain(n, past):
    # S = {1, 2} and u = 2 on a width-2, read-2 DNF: both chains bound the
    # covers by the sum over i <= 2 of C(kd, i) = 1 + 4 + 6 = 11, and the
    # exact-width links hold (C(4, 2) <= C(4, 2) <= (2e)^2), so 11 covers
    # hold and 12 fail
    analysis = SimpleNamespace(u_hi=2, cover_counts={0b011: {2: 11 + past}}.__getitem__)
    battery = {"dnf": _read_two_pairs(n), "subsets": [0b011], "analysis": analysis}
    return battery, 11 + past, 11


def _satisfied_mass(n, past):
    # Pr[f] = 1/2 at read 1: the bound is ln 2, decided on the 2^-64 grid of
    # its first enclosure. Terms of the widths of the bits of the lhs make
    # it the enclosure's low end, which holds, or its high end plus 2^-64,
    # which fails
    enc = ln_enclosure(Fraction(2), 64)
    units = (enc.high * 2**64 + 1 if past else enc.low * 2**64).numerator
    terms = [SimpleNamespace(width=64 - b) for b in range(64) if units >> b & 1]
    battery = {"dnf": SimpleNamespace(n=n, terms=terms, read=lambda: 1), "k": 1,
               "f": table_of(n, (1 << (1 << (n - 1))) - 1)}
    return battery, DyadicRational(units, 64), enc.high


_AT_THE_BOUND = {"parseval": _parseval, "sparsity_onenorm": _sparsity_onenorm,
                 "truncation_distance": _truncation_distance,
                 "approx_transfer": _approx_transfer,
                 "read_cover_chain": _cover_chain, "exact_width_chain": _cover_chain,
                 "satisfied_mass": _satisfied_mass}

#: The row kinds whose boundary tests are elsewhere, or that have no bound.
_BOUNDED_ELSEWHERE = {
    "reconstruction": "a predicate, with tests of its own",
    "roundtrip": "a predicate: test_experiments.py corrupts records",
    "evasive": "test_restrictions.py", "cover_probability": "test_restrictions.py",
    "onenorm_pair_count": "test_restrictions.py", "onenorm_width_binom": "test_restrictions.py",
    "pair_count_binom": "test_restrictions.py", "family_onenorm_count": "test_restrictions.py",
    "family_onenorm_binom": "test_restrictions.py", "family_twonorm": "test_restrictions.py",
    "family_cauchy": "test_restrictions.py", "family_abs_coeff": "test_restrictions.py",
}


@pytest.mark.parametrize("kind", [kind for kind in _GROUP_OF if kind not in _BOUNDED_ELSEWHERE])
@pytest.mark.parametrize("n", [3, 6, 9])
def test_check_holds_at_its_bound_and_fails_one_unit_past(kind, n):
    group = getattr(experiments._Battery, _GROUP_OF[kind])
    for past, holds in ((0, True), (1, False)):
        battery, lhs, bound = _AT_THE_BOUND[kind](n, past)   # a kind with no case fails here
        row = next(row for row in group(SimpleNamespace(**battery)) if row["check"] == kind)
        assert (row["lhs"], row["bound"], row["holds"]) == (str(lhs), str(bound), holds)


@given(st.lists(st.integers(0, 16), min_size=1, max_size=12),
       st.fractions(0, 8, max_denominator=8), st.fractions(0, 8, max_denominator=8))
@settings(max_examples=200, deadline=None)
def test_cover_budget_holds_strictly_in_its_hypotheses(sizes, more_v, more_f):
    # with sum |A_r| <= v and sum 2^-|A_r| <= F, convexity gives
    # F >= l 2^-(v/l), so l log2(v/F) <= l log2(v/l) + v, below 4v since
    # log2 m < 3m for m > 0: the verdict holds with room, and no input puts
    # l at the bound 4v / log2(v/F)
    v = sum(sizes) + more_v
    F = sum(Fraction(1, 2**size) for size in sizes) + more_f
    assume(v > F)
    r = budget_lemma_bound(sizes, v, F)
    a, b = (4 * v).numerator, (4 * v).denominator
    assert r.holds and (v / F) ** (len(sizes) * b) < Fraction(2) ** a
