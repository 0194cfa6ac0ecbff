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

from dnf_fourier import (
    DyadicRational,
    ExperimentConfig,
    FourierSpectrum,
    experiments,
    run_verify,
)
from dnf_fourier.cli import main
from dnf_fourier.covers import CheckResult
from dnf_fourier.dnf import Dnf
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
        assert len(rows) == 4625


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


def _no_precondition(budget_lemma_bound):
    # a cover that fails the lemma's precondition is a report-only row: fail
    # every cover, so that every row of the kind is a failure
    return lambda sizes, v, mass: CheckResult(len(sizes), 0, False)


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
    "cover_budget": _patch(experiments, "budget_lemma_bound", _no_precondition),
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
    assert all(row["holds"] is False and "report_only" not in row for row in failed)
    assert report["summary"]["failures"] == len(failed)
    assert ([row for row in rows if row["check"] != kind]
            == [row for row in clean if row["check"] != kind])


def test_the_readme_table_names_every_group_and_row_kind():
    # one line per group, in table order: | `group` | `kind`, ... | reads |
    # bound |, where the bound is exact but in the two groups whose bound
    # is irrational
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    table = [line.strip("| ").split(" | ") for line in readme.splitlines()
             if line.startswith("| `")]
    enclosed = {"satisfied_mass", "cover_budget"}
    assert table == [[f"`{group}`", ", ".join(f"`{kind}`" for kind in check.rows),
                      check.reads or "—",
                      "upper end of an enclosure" if group in enclosed else "exact"]
                     for group, check in CHECK_KINDS.items()]


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


_AT_THE_BOUND = {"parseval": _parseval, "sparsity_onenorm": _sparsity_onenorm,
                 "truncation_distance": _truncation_distance,
                 "approx_transfer": _approx_transfer}

#: The row kinds of the groups that read neither the tables nor the
#: analysis, but ``reconstruction`` (a predicate with tests of its own),
#: ``satisfied_mass`` (the upper end of an enclosure) and
#: ``cover_probability`` (bounded with ``evasive`` in test_restrictions.py).
_SPECTRAL_KINDS = [kind for check in CHECK_KINDS.values() if check.reads is None
                   for kind in check.rows
                   if kind not in ("reconstruction", "satisfied_mass", "cover_probability")]


@pytest.mark.parametrize("kind", _SPECTRAL_KINDS)
@pytest.mark.parametrize("n", [3, 6, 9])
def test_spectral_check_holds_at_its_bound_and_fails_one_unit_past(kind, n):
    group = getattr(experiments._Battery, _GROUP_OF[kind])
    for past, holds in ((0, True), (1, False)):
        battery, lhs, bound = _AT_THE_BOUND[kind](n, past)   # a kind with no case fails here
        row = next(row for row in group(SimpleNamespace(**battery)) if row["check"] == kind)
        assert (row["lhs"], row["bound"], row["holds"]) == (str(lhs), str(bound), holds)
