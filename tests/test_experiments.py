"""Experiment runner: report content, determinism, CLI exit codes."""
import dataclasses
import io
import json
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dnf_fourier import (
    Dnf,
    DyadicRational,
    ExperimentConfig,
    FamilyAnalysis,
    FourierSpectrum,
    GeneratorSpec,
    InstanceSource,
    RestrictionTables,
    fourier_transform,
    run_concentration_sweep,
    run_verify,
    tribes,
)
from dnf_fourier.bitops import subsets_up_to
from dnf_fourier.cli import main
from dnf_fourier.encoder import DecodeError, EncodePreconditionError, EncodingInvariantError
from dnf_fourier.experiments import (
    ALL_CHECKS,
    ConfigError,
    EntryWriter,
    family_csv,
    render_json,
    verify_instance,
    write_report,
)
from dnf_fourier.restrictions import DT_CAP

from conftest import bits_of, small_dnfs, table_of


def _tribes_source(w, t):
    return InstanceSource("generator", spec=GeneratorSpec("tribes", {"w": w, "t": t}))


def _rendered(report: dict) -> str:
    out = io.StringIO()
    render_json(report, out)
    return out.getvalue()


def _verify_entry(dnf, label: str, config: ExperimentConfig) -> dict:
    """``verify_instance``'s entry for ``dnf``, written and read back."""
    out = io.StringIO()
    verify_instance(dnf, label, config, EntryWriter(out, label, True))
    return json.loads(out.getvalue())


def test_verify_tribes22_report_values():
    cfg = ExperimentConfig(instances=(_tribes_source(2, 2),), eps=Fraction(1, 8))
    report = run_verify(cfg)
    assert report["summary"]["ok"]
    inst = report["instances"][0]
    assert inst["pr_true"] == "7/16"
    spec = fourier_transform(tribes(2, 2).evaluate())
    assert spec.coeff(0b0001) == DyadicRational(-3, 4)
    # tail weights shrink as the union-size cutoff grows and end at zero
    tail = [t["weight_outside_approx"] for t in inst["tail_table"]]
    assert tail == sorted(tail, reverse=True)
    assert inst["tail_table"][-1]["weight_outside"] == "0"


def test_verify_constant_false_all_vacuous():
    src = InstanceSource(
        "generator", spec=GeneratorSpec("random_read_k", {"n": 4, "s": 0, "w": 1, "k": 1})
    )
    report = run_verify(ExperimentConfig(instances=(src,)))
    assert report["summary"]["ok"]


def test_verify_random_read_k_holds():
    src = InstanceSource(
        "generator",
        spec=GeneratorSpec("random_read_k", {"n": 8, "s": 4, "w": 3, "k": 2}, seed=7),
    )
    report = run_verify(ExperimentConfig(instances=(src,)))
    assert report["summary"]["ok"]


def test_reports_byte_identical_across_worker_counts():
    cfg1 = ExperimentConfig(
        instances=(_tribes_source(2, 2), _tribes_source(2, 3)), workers=1
    )
    cfg8 = ExperimentConfig(
        instances=(_tribes_source(2, 2), _tribes_source(2, 3)), workers=8
    )
    r1 = _rendered(run_verify(cfg1))
    r8 = _rendered(run_verify(cfg8))
    assert r1 == r8
    s1 = _rendered(run_concentration_sweep(cfg1))
    s8 = _rendered(run_concentration_sweep(cfg8))
    assert s1 == s8


def test_sweep_tribes_monotone_and_captures():
    cfg = ExperimentConfig(
        instances=(_tribes_source(1, 2), _tribes_source(2, 2), _tribes_source(2, 3)),
        eps=Fraction(1, 4),
    )
    report = run_concentration_sweep(cfg)
    insts = report["instances"]
    # full spectrum retained: nothing above degree n
    assert insts[0]["degree_weight_sweep"][0]["weight_above"] == "0"
    # sparsity grows with the number of terms at fixed width and eps
    assert insts[1]["min_coeffs"] <= insts[2]["min_coeffs"]
    for inst in insts:
        tail = [row["weight_outside_approx"] for row in inst["tail_table"]]
        assert tail == sorted(tail, reverse=True)


def test_sweep_dense_pool_report_only():
    src = InstanceSource(
        "generator",
        spec=GeneratorSpec(
            "dense_pool", {"n_terms": 4, "term_width": 2, "pool_size": 4}, seed=3
        ),
    )
    report = run_concentration_sweep(ExperimentConfig(instances=(src,)))
    inst = report["instances"][0]
    assert inst["min_coeffs"] >= 0 and inst["tail_table"]


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(instances=(), eps=Fraction(3, 2))
    with pytest.raises(ConfigError):
        ExperimentConfig(instances=(), d_max=99)
    with pytest.raises(ConfigError):
        ExperimentConfig(instances=(), d_max=-1)
    with pytest.raises(ConfigError):
        ExperimentConfig(instances=(), u_star=-1)
    with pytest.raises(ConfigError):
        ExperimentConfig(instances=(), checks=("nonsense",))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json("{}")


_TRIBES23 = {"generator": {"family": "tribes", "params": {"w": 2, "t": 3}}}


@pytest.mark.parametrize("config, key", [
    ({"instances": [_TRIBES23], "dmax": 1}, "dmax"),
    ({"instances": [_TRIBES23], "check": ["evasive"]}, "check"),
    ({"instances": [_TRIBES23], "d_max": 1, "C-sweep": ["1"]}, "C-sweep"),
    ({"instances": [{"file": "t.dnf", "label": "t"}]}, "label"),
    ({"instances": [_TRIBES23, {**_TRIBES23, "seed": 3}]}, "seed"),
    ({"instances": [{"File": "t.dnf"}]}, "File"),
], ids=["dmax", "check", "C-sweep", "instance-label", "instance-seed", "instance-File"])
def test_an_unknown_config_key_is_a_config_error_naming_it(config, key):
    with pytest.raises(ConfigError, match=f"unknown (config|instance) keys: \\['{key}'\\]"):
        ExperimentConfig.from_json(json.dumps(config))


def test_an_instance_with_both_file_and_generator_is_a_config_error():
    both = {"file": "t.dnf", **_TRIBES23}
    with pytest.raises(ConfigError, match="not both"):
        ExperimentConfig.from_json(json.dumps({"instances": [_TRIBES23, both]}))


@pytest.mark.parametrize("command", ["verify", "sweep"])
def test_cli_an_unknown_config_key_exits_2_before_any_work(tmp_path, capsys, command):
    # {"dmax": 1, "check": ["evasive"]} once ran every group at d_max 4
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"instances": [_TRIBES23], "dmax": 1,
                                    "check": ["evasive"]}))
    out = tmp_path / "report.json"
    assert main([command, str(cfg_path), "--out", str(out)]) == 2
    assert "unknown config keys: ['check', 'dmax']" in capsys.readouterr().err
    assert not out.exists()


def _readme_table(readme: str, header: str) -> list[list[str]]:
    """The rows of the README's table under ``header``, each a list of
    cells with their backticks stripped."""
    lines = readme.split(header + "\n|---", 1)[1].split("\n\n", 1)[0].splitlines()[1:]
    return [[cell.strip().strip("`") for cell in line.strip("|").split("|")] for line in lines]


def test_the_readme_config_names_every_config_key():
    # the example config, the config table and the family table state the
    # two declarations: CONFIG_FIELDS and generators.FAMILIES
    from pathlib import Path

    from dnf_fourier.experiments import CONFIG_FIELDS
    from dnf_fourier.generators import FAMILIES

    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("A verify/sweep config is JSON:\n\n```json\n", 1)[1].split("```", 1)[0]
    example = json.loads(block)
    assert list(example) == list(CONFIG_FIELDS)
    assert ExperimentConfig.from_json(block).core_dict()["d_max"] == 4
    fields = _readme_table(readme, "| key | field | value |")
    assert [row[:2] for row in fields] == [[k, attr] for k, (attr, _) in CONFIG_FIELDS.items()]

    def names(cell):
        return () if cell == "—" else tuple(cell.replace("`", "").split(", "))

    families = _readme_table(readme, "| family | integer params | boolean params | seed |")
    assert {row[0]: (names(row[1]), names(row[2]), row[3] == "read") for row in families} == {
        name: (family.ints, family.bools, family.seeded) for name, family in FAMILIES.items()}


def test_worker_count_is_clamped(monkeypatch):
    from dnf_fourier import experiments

    def config(workers, instances):
        return ExperimentConfig(instances=(_tribes_source(2, 2),) * instances, workers=workers)

    monkeypatch.setattr(experiments.os, "cpu_count", lambda: 3)
    assert config(8, 2).workers == 2          # no more than the instances
    assert config(8, 5).workers == 3          # no more than the CPUs
    assert config(2, 5).workers == 2          # the request when it is smaller
    assert config(4, 0).workers == 1          # never below one
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: None)
    assert config(4, 5).workers == 1          # CPU count unknown: one worker
    with pytest.raises(ConfigError):
        config(0, 5)


def test_cli_workers_override_is_validated(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(
        {"instances": [{"generator": {"family": "tribes", "params": {"w": 2, "t": 2}}}]}))
    assert main(["verify", str(cfg_path), "--out", str(tmp_path / "r.json"),
                 "--workers", "0"]) == 2
    assert not (tmp_path / "r.json").exists()


def test_config_json_roundtrip():
    cfg = ExperimentConfig(
        instances=(_tribes_source(2, 2),), eps=Fraction(1, 16), d_max=3
    )
    back = ExperimentConfig.from_json(json.dumps(cfg.core_dict()))
    assert back.eps == Fraction(1, 16) and back.d_max == 3
    assert back.core_dict() == cfg.core_dict()


def test_check_subsets_run_only_requested():
    cfg = ExperimentConfig(instances=(_tribes_source(2, 2),), checks=("evasive",))
    report = run_verify(cfg)
    names = {r["check"] for r in report["instances"][0]["checks"]}
    assert names == {"evasive"}


# -- CLI ------------------------------------------------------------------------


def test_cli_gen_missing_params_is_usage_error(tmp_path):
    assert main(["gen", "tribes", "--out", str(tmp_path / "x.dnf")]) == 2


def test_cli_gen_spectrum_covers(tmp_path, capsys):
    dnf_path = tmp_path / "t.dnf"
    assert main(["gen", "tribes", "--w", "2", "--t", "2", "--out", str(dnf_path)]) == 0
    text = dnf_path.read_text()
    assert "n=4" in text

    assert main(["spectrum", str(dnf_path)]) == 0
    out = capsys.readouterr().out
    spec = json.loads(out)
    assert spec["n"] == 4
    # the output is a 0/1 function's spectrum, so it reads back as written
    back = FourierSpectrum.from_json(out)
    assert np.array_equal(back.scaled, fourier_transform(tribes(2, 2).evaluate()).scaled)

    assert main(["covers", str(dnf_path), "--set", "1,3"]) == 0
    out = capsys.readouterr().out
    assert "union size 4: 1" in out


def test_cli_verify_exit_codes(tmp_path):
    dnf_path = tmp_path / "t.dnf"
    main(["gen", "tribes", "--w", "2", "--t", "2", "--out", str(dnf_path)])
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps({"instances": [{"file": str(dnf_path)}], "eps": "1/8"})
    )
    out_path = tmp_path / "report.json"
    assert main(["verify", str(cfg_path), "--out", str(out_path)]) == 0
    report = json.loads(out_path.read_text())
    assert report["summary"]["ok"]

    assert main(["verify", str(tmp_path / "missing.json")]) == 2
    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text('{"instances": [], "eps": "7"}')
    assert main(["verify", str(bad_cfg)]) == 2


def test_cli_rejects_negative_ranges(tmp_path):
    for key in ("d_max", "u_star"):
        cfg_path = tmp_path / f"{key}.json"
        cfg_path.write_text(json.dumps(
            {"instances": [{"generator": {"family": "tribes", "params": {"w": 2, "t": 3}}}],
             key: -1}
        ))
        for command in ("verify", "sweep"):
            out_path = tmp_path / f"{key}-{command}.json"
            assert main([command, str(cfg_path), "--out", str(out_path)]) == 2
            assert not out_path.exists()


_TRIBES22 = {"generator": {"family": "tribes", "params": {"w": 2, "t": 2}}}


@pytest.mark.parametrize("config, names", [
    ([_TRIBES22], "JSON object"),
    ({"instances": {"file": "x.dnf"}}, "'instances'"),
    ({"instances": [1]}, "'instances'"),
    ({"instances": [_TRIBES22], "C_sweep": 3}, "'C_sweep'"),
    ({"instances": [_TRIBES22], "C_sweep": ["1", "0"]}, "C_sweep"),
    ({"instances": [_TRIBES22], "checks": "evasive"}, "'evasive'"),
    ({"instances": [], "eps": "1/0"}, "'eps'"),
    ({"instances": [_TRIBES22], "d_max": [4]}, "'d_max'"),
    ({"instances": [_TRIBES22], "C_sweep": [[1]]}, "'C_sweep'"),
    ({"instances": [{"generator": 3}]}, "'generator'"),
    ({"instances": [{"generator": {"family": "tribes", "seed": "x"}}]}, "'generator'"),
    ({"instances": [{"generator": {"family": "tribes", "seed": True}}]}, "'generator'"),
    ({"instances": [{"generator": {"family": "tribes", "seed": 2.5}}]}, "'generator'"),
    ({"instances": [{"generator": {"family": "tribes", "seed": float("inf")}}]}, "Infinity"),
    ({"instances": [{"generator": {"family": "tribes", "params": {"w": float("inf"), "t": 3}}}]},
     "Infinity"),
    ({"instances": [{"generator": {"family": "tribes", "params": {"w": float("nan"), "t": 3}}}]},
     "NaN"),
    ({"instances": [_TRIBES22], "eps": float("-inf")}, "-Infinity"),
    ({"instances": [_TRIBES22], "d_max": 2.5}, "'d_max'"),
    ({"instances": [_TRIBES22], "d_max": "2.5"}, "'d_max'"),
    ({"instances": [_TRIBES22], "d_max": True}, "'d_max'"),
    ({"instances": [_TRIBES22], "u_star": 2.9}, "'u_star'"),
    ({"instances": [_TRIBES22], "u_star": False}, "'u_star'"),
    ({"instances": [_TRIBES22], "workers": 1.5}, "'workers'"),
    ({"instances": [_TRIBES22], "workers": True}, "'workers'"),
    ({"instances": [_TRIBES22], "eps": True}, "'eps'"),
    ({"instances": [_TRIBES22], "C": True}, "'C'"),
    ({"instances": [_TRIBES22], "C_sweep": [1, True]}, "'C_sweep'"),
    ({"instances": [_TRIBES22], "checks": [["evasive"]]}, "'checks'"),
    ({"instances": [_TRIBES22], "checks": [1, "x"]}, "'checks'"),
], ids=["not-an-object", "instances-not-a-list", "instance-not-an-object",
        "C_sweep-not-a-list", "C_sweep-entry-zero", "checks-a-string",
        "eps-a-zero-denominator", "d_max-a-list", "C_sweep-entry-a-list",
        "generator-not-an-object", "generator-seed-not-an-int", "generator-seed-a-boolean",
        "generator-seed-not-integral", "generator-seed-infinite", "generator-w-infinite",
        "generator-w-nan", "eps-minus-infinity", "d_max-not-integral",
        "d_max-a-non-integral-string", "d_max-a-boolean", "u_star-not-integral",
        "u_star-a-boolean", "workers-not-integral", "workers-a-boolean", "eps-a-boolean",
        "C-a-boolean", "C_sweep-entry-a-boolean", "checks-entry-a-list",
        "checks-entry-not-a-string"])
@pytest.mark.parametrize("command", ["verify", "sweep"])
def test_cli_malformed_config_is_a_usage_error_before_any_work(
        tmp_path, monkeypatch, capsys, command, config, names):
    # exit 2 with an error line that names what is wrong, and no work done
    from dnf_fourier import covers

    built = []
    init = covers.FamilyAnalysis.__init__

    def spy(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(covers.FamilyAnalysis, "__init__", spy)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    out_path = tmp_path / "report.json"
    assert main([command, str(cfg_path), "--out", str(out_path)]) == 2
    errors = [e for e in capsys.readouterr().err.splitlines() if e.startswith("error: ")]
    assert errors and names in errors[0]
    assert built == [] and not out_path.exists()


@pytest.mark.parametrize("value", [4, 4.0, "4", "4.0"])
def test_an_integral_config_value_is_taken_in_any_form(value):
    cfg = ExperimentConfig.from_json(json.dumps(
        {"instances": [_TRIBES22], "d_max": value, "u_star": value, "workers": value}))
    assert (cfg.d_max, cfg.u_star) == (4, 4) and type(cfg.d_max) is type(cfg.u_star) is int
    assert cfg.workers == 1   # clamped to the one instance


def test_a_float_eps_is_the_decimal_it_spells():
    # 0.1 is 1/10, not the double nearest it, 3602879701896397/2^55: the
    # config, the report's echo, each entry and the sparsity bound read 1/10
    text = '{"instances": [{"generator": {"family": "tribes", "params": {"w": 2, "t": 2}}}], ' \
           '"eps": 0.1, "checks": ["sparsity"]}'
    cfg = ExperimentConfig.from_json(text)
    assert cfg.eps == Fraction(1, 10)
    report = run_verify(cfg)
    entry = report["instances"][0]
    assert report["config"]["eps"] == entry["eps"] == entry["checks"][0]["context"]["eps"] == "1/10"


def test_a_float_C_is_the_decimal_it_spells():
    # C and every C_sweep entry likewise: 0.3 is 3/10 and 2.5 is 5/2, and
    # the sweep's echo says so
    text = '{"instances": [{"generator": {"family": "tribes", "params": {"w": 2, "t": 2}}}], ' \
           '"C": 0.3, "C_sweep": [0.1, 2.5, 4]}'
    cfg = ExperimentConfig.from_json(text)
    assert (cfg.c_param, cfg.c_sweep) == (Fraction(3, 10), (Fraction(1, 10), Fraction(5, 2), 4))
    config = run_concentration_sweep(cfg)["config"]
    assert (config["C"], config["C_sweep"]) == ("3/10", ["1/10", "5/2", "4"])


def test_a_float_generator_parameter_is_echoed_and_labelled_as_given():
    # an integral float parameter still builds (4.0 is 4), and the label
    # and the echo print it as the config wrote it
    text = '{"instances": [{"generator": {"family": "tribes", "params": {"w": 2.0, "t": 2}}}], ' \
           '"checks": ["spectral_basics"]}'
    report = run_verify(ExperimentConfig.from_json(text))
    assert report["config"]["instances"][0]["generator"]["params"] == {"w": 2.0, "t": 2}
    assert '"w": 2.0' in _rendered(report)
    assert report["instances"][0]["label"] == "tribes(t=2,w=2.0,seed=0)"
    assert report["summary"]["ok"]


def _strict(name: str):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("command", ["verify", "sweep"])
@pytest.mark.parametrize("w, shown", [("1e400", "1E+400"),
                                      ("2.00000000000000000001", "2.00000000000000000001")])
def test_a_generator_parameter_a_double_cannot_hold_is_echoed_as_its_label_text(
        tmp_path, command, w, shown):
    # 1e400 was echoed as Infinity, which is not JSON, and
    # 2.00000000000000000001 as 2.0; each is now echoed as the text its
    # label prints, in a string. Neither builds, so the entry is an error
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"instances": [{"generator": {"family": "tribes", '
                   '"params": {"w": %s, "t": 1}}}], "checks": ["spectral_basics"]}' % w)
    out = tmp_path / "r.json"
    assert main([command, str(cfg), "--out", str(out)]) == 2
    report = json.loads(out.read_text(), parse_constant=_strict)
    assert report["config"]["instances"][0]["generator"]["params"] == {"w": shown, "t": 1}
    (entry,) = report["instances"]
    assert entry["label"] == f"tribes(t=1,w={shown},seed=0)" and "error" in entry


def test_a_non_json_constant_anywhere_in_a_config_is_a_usage_error(tmp_path, capsys):
    # NaN, Infinity and -Infinity are not JSON: exit 2 before any work,
    # and no report
    for constant in ("NaN", "Infinity", "-Infinity"):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"instances": [{"generator": {"family": "tribes", '
                       '"params": {"w": %s, "t": 1}}}]}' % constant)
        out = tmp_path / "r.json"
        assert main(["verify", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: bad config JSON: {constant} is not a JSON value\n")
        assert not out.exists()


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python writes an int of any length")
@pytest.mark.parametrize("key, value", [
    ("u_star", "1e5000"), ("d_max", "1e5000"), ("eps", '"1e-5000"'), ("C", '"1e5000"'),
    ("C_sweep", '["1", "1e-5000"]'), ("workers", "1e5000"), ("seed", "1e5000"),
])
@pytest.mark.parametrize("command", ["verify", "sweep"])
def test_a_config_number_no_report_can_write_is_a_usage_error_naming_it(
        tmp_path, capsys, command, key, value):
    # an int of more digits than str() writes (4300 by default): exit 2
    # before any work, with an error that names the key, and no report
    gen = '{"family": "tribes", "params": {"w": 2, "t": 2}%s}' % (
        f', "seed": {value}' if key == "seed" else "")
    field = "" if key == "seed" else f', "{key}": {value}'
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"instances": [{"generator": %s}]%s}' % (gen, field))
    out = tmp_path / "r.json"
    assert main([command, str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad ") and (f"'{key}'" in err or f"{key} outside" in err), err
    assert not out.exists()


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python writes an int of any length")
def test_a_generator_param_no_report_can_write_is_an_error_entry_naming_it(tmp_path, capsys):
    # the JSON number 1e5000, read as a Decimal: the instance's error names
    # its param, and the instance before it keeps its rows
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"instances": [{"generator": {"family": "tribes", "params": {"w": 2, "t": 2}}},'
                   ' {"generator": {"family": "tribes", "params": {"w": 1e5000, "t": 1}}}],'
                   ' "checks": ["evasive"]}')
    out = tmp_path / "r.json"
    assert main(["verify", str(cfg), "--out", str(out)]) == 2
    good, bad = json.loads(out.read_text())["instances"]
    assert good["checks"] and "error" not in good
    assert bad["error"] == ("GenerationError: tribes is missing or has a bad parameter: "
                            "w=1E+5000 has more digits than a report can write")
    assert bad["label"] in capsys.readouterr().err


def test_an_undecided_verify_comparison_is_an_error_entry(tmp_path, monkeypatch, capsys):
    # the satisfied-mass bound of tribes(2,3), Pr[f] = 37/64, read from an
    # enclosure of ln(64/27) that never separates: past the (lowered)
    # maximum precision its instance ends as an error entry after the rows
    # it wrote, exit 2, and the instance after it keeps its rows
    from dnf_fourier import covers, enclosures
    from dnf_fourier.enclosures import RealEnclosure

    ln_enclosure = covers.ln_enclosure

    def never_separates(q, prec):
        if q == Fraction(64, 27):
            return RealEnclosure(Fraction(-1), Fraction(10**6))
        return ln_enclosure(q, prec)

    monkeypatch.setattr(enclosures, "_MAX_PREC", 256)
    monkeypatch.setattr(covers, "ln_enclosure", never_separates)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"instances": [_tribes_source(2, 3).to_dict(),
                                             _tribes_source(2, 2).to_dict()],
                               "checks": ["spectral_basics", "satisfied_mass"]}))
    out = tmp_path / "r.json"
    assert main(["verify", str(cfg), "--out", str(out), "--rows-jsonl",
                 str(tmp_path / "rows.jsonl")]) == 2
    report = json.loads(out.read_text())
    undecided, good = report["instances"]
    assert [r["check"] for r in undecided["checks"]] == ["parseval", "reconstruction"]
    assert undecided["error"].startswith("EnclosureUndecidedError: comparison of ")
    assert undecided["failures"] == 1 and "n" not in undecided
    assert [r["check"] for r in good["checks"]] == ["parseval", "reconstruction",
                                                    "satisfied_mass"]
    assert "error" not in good and report["summary"]["failures"] == 1
    assert f"error: {undecided['label']}: EnclosureUndecidedError" in capsys.readouterr().err


def test_an_undecided_sweep_cut_is_an_error_entry(tmp_path, monkeypatch, capsys):
    # with eps = 1 the degree cut is floor(C w log2 3); a C that puts it
    # within 2^-280 of the integer 3 at w = 2 leaves it undecided at 64 bits,
    # the (lowered) maximum precision, while 4.5 at w = 3 is decided
    from dnf_fourier import enclosures
    from dnf_fourier.enclosures import ln_enclosure

    log2_3 = ln_enclosure(Fraction(3), 300).low / ln_enclosure(Fraction(2), 300).high
    c = Fraction(3) / (2 * log2_3)
    monkeypatch.setattr(enclosures, "_MAX_PREC", 64)
    config = {"instances": [_tribes_source(2, 2).to_dict(), _tribes_source(3, 2).to_dict()],
              "eps": "1", "C": str(c)}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "r.json"
    assert main(["sweep", str(cfg), "--out", str(out)]) == 2
    undecided, good = json.loads(out.read_text())["instances"]
    assert undecided == {"label": "tribes(t=2,w=2,seed=0)", "failures": 1,
                         "error": undecided["error"]}
    assert undecided["error"].startswith("EnclosureUndecidedError: floor of ")
    assert good["label"] == "tribes(t=2,w=3,seed=0)" and good["degree_cutoff"] == 4
    assert "error: tribes(t=2,w=2,seed=0): EnclosureUndecidedError" in capsys.readouterr().err


@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 3])
def test_a_seed_outside_64_bits_is_a_usage_error(tmp_path, capsys, seed):
    # SplitMix64 reads a seed mod 2^64, so such a seed would build the DNF
    # of its residue under its own label
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"instances": [{"generator": {
        "family": "random_read_k", "params": {"n": 5, "s": 2, "w": 2, "k": 2}, "seed": seed}}]}))
    assert main(["verify", str(cfg), "--out", str(tmp_path / "r.json")]) == 2
    assert capsys.readouterr().err.endswith(": seed outside [0, 2^64)\n")


def test_cli_covers_rejects_a_variable_beyond_n(tmp_path, capsys):
    dnf_path = tmp_path / "t.dnf"
    assert main(["gen", "tribes", "--w", "2", "--t", "3", "--out", str(dnf_path)]) == 0
    # a variable of 10^15 is rejected before its bit is built
    for subset in ("1,7", "1,40", str(1 << 6), f"1,{10**15}", f"{10**15},1"):
        assert main(["covers", str(dnf_path), "--set", subset]) == 2, subset
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.out == "", subset
    assert main(["covers", str(dnf_path), "--set", "1,6"]) == 0


@pytest.mark.parametrize("command, digest", [
    ("verify", "060d89cc32c95a8bd21bea87d892123694945bba0af2c85871cefd5be494b729"),
    ("sweep", "2d25ed789ab8b06a432b022632980a6b52b9d71da02d770a3c5ad0c1b08d98bc"),
], ids=["verify", "sweep"])
def test_report_bytes_are_pinned(tmp_path, command, digest):
    # The SHA-256 of a whole report on two generator sources at d_max 4, so
    # any change to a row, a family table or the rendering shows.
    import hashlib

    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "instances": [
            {"generator": {"family": "random_read_k", "seed": 3,
                           "params": {"n": 12, "s": 8, "w": 3, "k": 2}}},
            {"generator": {"family": "tribes", "params": {"w": 2, "t": 3}}},
        ],
        "d_max": 4,
        "checks": ["spectral_basics", "sparsity", "truncation", "approx_transfer",
                   "evasive", "cover_probability", "degree_counts", "families",
                   "read_chain", "exact_width_chain", "roundtrip", "satisfied_mass"],
    }))
    out_path = tmp_path / "report.json"
    assert main([command, str(cfg_path), "--out", str(out_path)]) == 0
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == digest


def test_cli_encdec_and_artifacts(tmp_path, capsys):
    dnf_path = tmp_path / "t.dnf"
    main(["gen", "tribes", "--w", "2", "--t", "2", "--out", str(dnf_path)])
    corpus = tmp_path / "corpus.jsonl"
    assert main(["encdec-test", str(dnf_path), "--corpus-out", str(corpus)]) == 0
    lines = corpus.read_text().splitlines()
    assert lines and all(json.loads(line)["dnf_ref"] == str(dnf_path) for line in lines)
    # decoding every recorded case reproduces the recorded pair
    from dnf_fourier import Encoding, decode
    from dnf_fourier.dnf import load_dnf

    dnf = load_dnf(dnf_path)
    for line in lines:
        case = json.loads(line)
        enc = Encoding.from_dict(dnf.n, case["encoding"])
        assert decode(dnf, enc) == (case["S_mask"], case["xsbar_mask"])


def _scalar_encdec(dnf, dnf_ref, d_max) -> tuple[str, str]:
    """``encdec-test`` pair by pair, in ``valid_pairs`` order, through the
    scalar ``encode`` and ``oracle_decode``: its stdout and its corpus, the
    oracle of the command's run of the family analysis and the batched
    round trip."""
    from dnf_fourier import RestrictionTables
    from dnf_fourier.encoder import encode, valid_pairs

    from test_encoder import oracle_decode

    tables = RestrictionTables(dnf.evaluate())
    lines = []
    for s_mask, xsbar in valid_pairs(tables, d_max):
        enc, _ = encode(dnf, s_mask, xsbar, tables)
        assert oracle_decode(dnf, enc) == (s_mask, xsbar)
        lines.append(json.dumps({"dnf_ref": dnf_ref, "S_mask": s_mask, "xsbar_mask": xsbar,
                                 "encoding": enc.to_dict()}, sort_keys=True) + "\n")
    return f"roundtrip ok on {len(lines)} full-depth pairs (|S| <= {d_max})\n", "".join(lines)


def _encdec_cases():
    from conftest import corpus_instances

    return [("tribes(2,3)", tribes(2, 3), 4), ("tribes(2,3)", tribes(2, 3), 1)] + [
        (label, dnf, d_max)
        for (label, dnf), d_max in zip(corpus_instances()[::40], (4, 0, 2, 4, 3, 4))]


@pytest.mark.parametrize("label, dnf, d_max", _encdec_cases())
def test_encdec_corpus_matches_the_scalar_path(tmp_path, capsys, label, dnf, d_max):
    dnf_path = tmp_path / "f.dnf"
    dnf_path.write_text(dnf.to_text())
    corpus = tmp_path / "cases.jsonl"
    assert main(["encdec-test", str(dnf_path), "--d-max", str(d_max),
                 "--corpus-out", str(corpus)]) == 0
    out, lines = _scalar_encdec(dnf, str(dnf_path), d_max)
    assert capsys.readouterr().out == out
    assert corpus.read_text() == lines


def test_encdec_calls_no_scalar_codec_and_encodes_each_pair_once(tmp_path, monkeypatch):
    import sys

    from dnf_fourier import RestrictionTables, covers, encoder
    from dnf_fourier.encoder import valid_pairs

    scalar, encoded = [], []

    def spy(calls, fn):
        def wrapper(*args):
            calls.append(args[1:3])
            return fn(*args)
        return wrapper

    # every module of the package that holds the per-pair encode or decode by name
    for module in [m for name, m in sys.modules.items() if name.startswith("dnf_fourier")]:
        for name in ("encode", "decode"):
            fn = getattr(encoder, name)
            if getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, spy(scalar, fn))
    monkeypatch.setattr(covers, "extract_cover", spy(encoded, covers.extract_cover))
    # nothing in the round trip reads a cover count, and the corpus is
    # written from the record arrays: no Encoding object is built
    counted, built = [], []
    monkeypatch.setattr(covers, "cover_counts_by_union", spy(counted, covers.cover_counts_by_union))
    post_init = encoder.Encoding.__post_init__

    def build_spy(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(encoder.Encoding, "__post_init__", build_spy)
    dnf = _RK8.build()
    dnf_path = tmp_path / "rk8.dnf"
    dnf_path.write_text(dnf.to_text())
    assert main(["encdec-test", str(dnf_path), "--corpus-out",
                 str(tmp_path / "cases.jsonl")]) == 0
    assert scalar == [] and counted == [] and built == []
    pairs = [p for p in valid_pairs(RestrictionTables(dnf.evaluate()), 4) if p[0]]
    assert encoded == pairs


@pytest.mark.parametrize("fault, line", [
    (EncodePreconditionError, "at S=1, x=2: injected fault (EncodePreconditionError)"),
    (EncodingInvariantError, "at S=1, x=2: injected fault (EncodingInvariantError)"),
    ((3, 0), "at S=3, x=0: DecodeError at S=3, x=0: sigma positions are 1-based"),
    ((12, 2), "at S=12, x=2: DecodeError at S=12, x=2: sigma positions are 1-based"),
    ((3, None), "at S=3, x=0: the record of S=3 holds 2 encodings for 3 full-depth pairs"),
])
def test_encdec_reports_a_fault_as_a_failed_roundtrip(tmp_path, monkeypatch, capsys,
                                                      fault, line):
    # an encoder fault in the analysis, or the record of S corrupted on its
    # way to the round trip (a bad sigma in one row, or the last row
    # dropped), is a failed round trip naming the first failing pair: exit
    # 1, no traceback, and the corpus path left as it was.  A corrupted
    # record fails where the batched oracle fails, with the same pair count
    import dnf_fourier.cli as cli
    from dnf_fourier import covers, experiments

    from conftest import make_bundle

    def broken(*args):
        raise fault("injected fault")

    def corrupt(record):
        s_mask, row = fault
        if row is None:
            return dataclasses.replace(record, x_sat=record.x_sat[:-1],
                                       sigma=record.sigma[:-1], a=record.a[:-1])
        record.sigma[row] = (0, 1)
        return record

    results = []

    class CorruptingRoundTrip(experiments.RoundTrip):
        def __call__(self, s_mask, xsbars, record):
            if s_mask == fault[0]:
                record = corrupt(record)
            super().__call__(s_mask, xsbars, record)

        def result(self):
            results.append(super().result())
            return results[-1]

    if isinstance(fault, type):
        monkeypatch.setattr(covers, "extract_cover", broken)
    else:
        monkeypatch.setattr(cli, "RoundTrip", CorruptingRoundTrip)
    dnf_path = tmp_path / "t22.dnf"
    dnf_path.write_text(tribes(2, 2).to_text())
    corpus = tmp_path / "cases.jsonl"
    corpus.write_text("an earlier corpus\n")
    assert main(["encdec-test", str(dnf_path), "--corpus-out", str(corpus)]) == 1
    captured = capsys.readouterr()
    assert captured.out == f"ROUNDTRIP FAILED {line}\n"
    assert captured.err == "" and corpus.read_text() == "an earlier corpus\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cases.jsonl", "t22.dnf"]
    if not isinstance(fault, type):
        b = make_bundle("t22", tribes(2, 2))
        records = dict(b.records)
        records[fault[0]] = (records[fault[0]][0], corrupt(records[fault[0]][1]))
        pairs, failure = _batched_roundtrip(b.dnf, records, b.analysis.d_max)
        assert results == [(pairs, failure)]
        assert line == "at S={}, x={}: {}".format(*failure)


@pytest.mark.parametrize("d_max", [-1, DT_CAP + 1])
def test_encdec_rejects_a_d_max_out_of_range_before_any_work(tmp_path, monkeypatch, capsys,
                                                             d_max):
    import dnf_fourier.cli as cli

    loaded = []
    monkeypatch.setattr(cli, "load_dnf", loaded.append)
    dnf_path = tmp_path / "t22.dnf"
    dnf_path.write_text(tribes(2, 2).to_text())
    corpus = tmp_path / "cases.jsonl"
    assert main(["encdec-test", str(dnf_path), "--d-max", str(d_max),
                 "--corpus-out", str(corpus)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"--d-max={d_max} outside [0, {DT_CAP}]" in captured.err
    assert loaded == [] and not corpus.exists()


def test_cli_csv_and_jsonl_outputs(tmp_path):
    dnf_path = tmp_path / "t.dnf"
    main(["gen", "tribes", "--w", "2", "--t", "2", "--out", str(dnf_path)])
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"instances": [{"file": str(dnf_path)}]}))
    csv_dir = tmp_path / "csv"
    jsonl = tmp_path / "rows.jsonl"
    out = tmp_path / "r.json"
    assert main(
        ["verify", str(cfg_path), "--out", str(out), "--csv-dir", str(csv_dir),
         "--rows-jsonl", str(jsonl)]
    ) == 0
    csv_text = (csv_dir / "instance_000.families.csv").read_text()
    assert csv_text.startswith("d,u,count,one_norm")
    first = json.loads(jsonl.read_text().splitlines()[0])
    assert {"label", "check", "lhs", "rhs", "holds"} <= set(first)


def test_cli_verify_exit_one_on_failed_check(tmp_path, monkeypatch, capsys):
    # the inequalities are theorems, so a genuine instance cannot fail them;
    # exercise the exit wiring with an evasive check stubbed to fail on S = {1}
    from dnf_fourier import experiments

    evasive = experiments.evasive_bound_check

    def failing_on_one(witnesses, s_mask, spec):
        lhs, rhs, ok = evasive(witnesses, s_mask, spec)
        return lhs, rhs, ok and s_mask != 1

    monkeypatch.setattr(experiments, "evasive_bound_check", failing_on_one)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"instances": [_TRIBES22], "checks": ["evasive"]}))
    out = tmp_path / "r.json"
    assert main(["verify", str(cfg_path), "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert report["summary"] == {"instances": 1, "checks": 16, "failures": 1, "ok": False}
    assert [r["context"]["S_mask"] for r in report["instances"][0]["checks"]
            if not r["holds"]] == [1]
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("target, error", [
    ("decode_records", DecodeError),
    ("extract_cover", EncodePreconditionError),
    ("extract_cover", EncodingInvariantError),
])
def test_cli_verify_reports_codec_fault_as_failed_roundtrip(tmp_path, monkeypatch,
                                                            target, error):
    # roundtrip decodes through experiments.decode_records; every encode,
    # S = {} aside, is the family analysis's, through covers.extract_cover
    from dnf_fourier import covers, experiments

    def broken(*args, **kwargs):
        raise error("injected fault")

    monkeypatch.setattr(experiments if target == "decode_records" else covers, target, broken)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "instances": [{"generator": {"family": "tribes", "params": {"w": 2, "t": 2}}}],
        "checks": ["spectral_basics", "roundtrip"],
    }))
    out = tmp_path / "r.json"
    assert main(["verify", str(cfg_path), "--out", str(out)]) == 1
    rows = json.loads(out.read_text())["instances"][0]["checks"]
    row = next(r for r in rows if r["check"] == "roundtrip")
    assert row["holds"] is False
    assert row["context"]["error"].startswith(error.__name__)
    assert all(r["holds"] for r in rows if r["check"] != "roundtrip")


@pytest.mark.parametrize("error", [EncodePreconditionError, EncodingInvariantError])
def test_cli_verify_reports_analysis_encoder_fault_as_failed_roundtrip(tmp_path, monkeypatch,
                                                                       error):
    # the family analysis makes the encodings that roundtrip decodes, so an
    # encoder fault there is a failed roundtrip row too, not a lost report
    from dnf_fourier import covers

    extract_cover = covers.extract_cover

    def broken_on_n6(dnf, *args):
        if dnf.n == 6:
            raise error("injected fault")
        return extract_cover(dnf, *args)

    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "instances": [{"generator": {"family": "tribes", "params": {"w": 2, "t": t}}}
                      for t in (2, 3)],
        "checks": "all",
    }))
    clean = tmp_path / "clean.json"
    assert main(["verify", str(cfg_path), "--out", str(clean)]) == 0
    monkeypatch.setattr(covers, "extract_cover", broken_on_n6)
    out = tmp_path / "r.json"
    assert main(["verify", str(cfg_path), "--out", str(out)]) == 1
    intact, faulty = json.loads(out.read_text())["instances"]
    assert intact == json.loads(clean.read_text())["instances"][0]
    row = next(r for r in faulty["checks"] if r["check"] == "roundtrip")
    assert row["holds"] is False
    assert row["context"]["error"].startswith(error.__name__)
    assert faulty["failures"] == 1
    assert all(r["holds"] for r in faulty["checks"] if r["check"] != "roundtrip")


def test_roundtrip_fails_on_a_record_of_the_wrong_length(monkeypatch):
    from dnf_fourier import covers

    record = covers._record

    def short_at_degree_two(n, s_mask, *args):
        r = record(n, s_mask, *args)
        if s_mask.bit_count() != 2:
            return r
        return covers.EncodingRecord(n, r.x_sat[:-1], r.sigma[:-1], r.a[:-1])

    monkeypatch.setattr(covers, "_record", short_at_degree_two)
    report = run_verify(ExperimentConfig(instances=(_tribes_source(2, 2),),
                                         checks=("roundtrip",)))
    (row,) = report["instances"][0]["checks"]
    assert row["holds"] is False and not report["summary"]["ok"]
    assert "encodings for" in row["context"]["error"]


def _scalar_roundtrip(dnf, tables, records, d_max):
    """The round trip pair by pair, in ``valid_pairs`` order, through the
    records (S mask to (x_Sbar masks, record)) rebuilt as ``Encoding``
    objects and ``oracle_decode``: the oracle of ``RoundTrip``.  (That
    the records, S = {} included, equal the scalar ``encode`` is checked
    in test_encoder.py.)  Its x_Sbar masks are the scalar ``pdep`` of the
    indices where each unpacked table holds."""
    from dnf_fourier.bitops import pdep

    from conftest import encodings
    from test_encoder import oracle_decode

    full = (1 << dnf.n) - 1
    pairs = 0
    for s_mask in subsets_up_to(dnf.n, d_max):
        bits = np.unpackbits(tables.dt_by_sbar(s_mask), bitorder="little",
                             count=1 << (dnf.n - s_mask.bit_count()))
        xsbars = [pdep(int(i), full ^ s_mask) for i in np.flatnonzero(bits)]
        record = records[s_mask][1] if s_mask in records else None
        held = 0 if record is None else len(record)
        if held != len(xsbars):
            return pairs, (s_mask, xsbars[0], f"the record of S={s_mask} holds {held} "
                                              f"encodings for {len(xsbars)} full-depth pairs")
        rebuilt = iter(()) if record is None else encodings(record)
        for xsbar in xsbars:
            try:
                decoded = oracle_decode(dnf, next(rebuilt))
            except DecodeError as exc:
                return pairs, (s_mask, xsbar,
                               f"{type(exc).__name__} at S={s_mask}, x={xsbar}: {exc}")
            if decoded != (s_mask, xsbar):
                return pairs, (s_mask, xsbar, f"decoded {decoded} at S={s_mask}, x={xsbar}")
            pairs += 1
    return pairs, None


def _batched_roundtrip(dnf, records, d_max):
    """The round trip over every record at once, degree by degree, in
    chunks of ``ROUNDTRIP_CHUNK`` rows: the oracle of the streamed
    ``RoundTrip``, which decodes the same chunks as the records arrive.
    ``records`` maps an S mask to (x_Sbar masks, record)."""
    from dnf_fourier.encoder import DECODE_ERRORS, decode_records
    from dnf_fourier.experiments import ROUNDTRIP_CHUNK

    first = None   # (S mask, row in S, x_Sbar, error)

    def keep(s_mask, row, xsbar, error):
        nonlocal first
        if first is None or (s_mask, row) < first[:2]:
            first = (s_mask, row, xsbar, error)

    def check(d, chunk):
        s_exp, x_exp, row, x_sat, sigma, a = (np.concatenate(col) for col in zip(*chunk))
        try:
            s_dec, x_dec, code = decode_records(dnf, d, x_sat, sigma, a)
        except DecodeError as exc:
            bad, error = 0, f"DecodeError at S={s_exp[0]}, x={x_exp[0]}: {exc}"
        else:
            wrong = np.flatnonzero((code != 0) | (s_dec != s_exp) | (x_dec != x_exp))
            if wrong.size == 0:
                return
            bad = wrong[0]
            at = f"at S={s_exp[bad]}, x={x_exp[bad]}"
            error = (f"DecodeError {at}: {DECODE_ERRORS[code[bad]]}" if code[bad] else
                     f"decoded {(int(s_dec[bad]), int(x_dec[bad]))} {at}")
        keep(int(s_exp[bad]), int(row[bad]), int(x_exp[bad]), error)

    ordered = sorted(records.items())
    for d in range(d_max + 1):
        chunk, rows = [], 0
        for s_mask, (xsbars, record) in ordered:
            if s_mask.bit_count() != d:
                continue
            held = len(record)
            if held != xsbars.size:
                keep(s_mask, 0, int(xsbars[0]), f"the record of S={s_mask} holds {held} "
                                                f"encodings for {xsbars.size} full-depth pairs")
                continue
            for lo in range(0, held, ROUNDTRIP_CHUNK):
                hi = min(held, lo + ROUNDTRIP_CHUNK)
                chunk.append((np.full(hi - lo, s_mask, np.uint32), xsbars[lo:hi],
                              np.arange(lo, hi), record.x_sat[lo:hi],
                              record.sigma[lo:hi], record.a[lo:hi]))
                rows += hi - lo
                if rows >= ROUNDTRIP_CHUNK:
                    check(d, chunk)
                    chunk, rows = [], 0
        if chunk:
            check(d, chunk)
    if first is None:
        return sum(xsbars.size for xsbars, _ in records.values()), None
    s_fail, row, xsbar, error = first
    return (sum(xsbars.size for m, (xsbars, _) in ordered if m < s_fail) + row,
            (s_fail, xsbar, error))


def _streamed_roundtrip(dnf, d_max, corrupted=None):
    """The production round trip: a ``RoundTrip`` fed by a fresh family
    analysis, through a consumer that hands it ``corrupted[S]`` in place of
    the record of each S in ``corrupted``."""
    from dnf_fourier import FamilyAnalysis, RestrictionTables
    from dnf_fourier.experiments import RoundTrip

    roundtrip, corrupted = RoundTrip(dnf), corrupted or {}

    def consumer(s_mask, xsbars, record):
        roundtrip(s_mask, xsbars, corrupted.get(s_mask, record))

    f = dnf.evaluate()
    FamilyAnalysis(dnf, d_max, RestrictionTables(f), fourier_transform(f), consumer)
    return roundtrip.result()


def test_roundtrip_matches_the_scalar_path_on_corpus(bundles):
    for b in bundles:
        expected = _scalar_roundtrip(b.dnf, b.tables, b.records, b.analysis.d_max)
        assert expected[1] is None
        assert _batched_roundtrip(b.dnf, b.records, b.analysis.d_max) == expected
        assert _streamed_roundtrip(b.dnf, b.analysis.d_max) == expected


def _corrupt(kind, dnf, f, record) -> bool:
    """Corrupt one row of the record in place (two for a swap) so that the
    scalar path's outcome on it changes; False, with the record as it was,
    if this kind of corruption cannot change it on this record."""
    from test_encoder import oracle_decode

    if kind == "x_beyond_n":
        record.x_sat[1] |= 1 << dnf.n
    elif kind == "x_satisfies_no_term":
        record.x_sat[1] = np.flatnonzero(~f.to_array().view(bool))[0]
    elif kind == "sigma_past_c":
        record.sigma[1, -1] = 40
    elif kind == "swapped_rows":
        for column in (record.x_sat, record.sigma, record.a):
            column[[0, 1]] = column[[1, 0]]
    else:  # flipped_a: a truth value matters only if a later round reads it
        from conftest import encodings

        def outcome(i):
            try:
                return oracle_decode(dnf, list(encodings(record))[i])
            except DecodeError as exc:
                return str(exc)

        for i, t in np.ndindex(len(record), record.sigma.shape[1]):
            before = outcome(i)
            record.a[i] ^= 1 << t
            if outcome(i) != before:
                return True
            record.a[i] ^= 1 << t
        return False
    return True


CORRUPTIONS = ("x_beyond_n", "x_satisfies_no_term", "sigma_past_c", "flipped_a",
               "swapped_rows")


@pytest.mark.parametrize("kind", CORRUPTIONS)
@pytest.mark.parametrize("degrees", [(2,), (2, 3)])
def test_roundtrip_of_a_corrupted_record_matches_the_scalar_path(kind, degrees):
    # with degrees (2, 3) a degree-2 record of a large S and a degree-3
    # record of a smaller S are both corrupted: the first failure in
    # valid_pairs order is the degree-3 one, though degree 2 decodes first
    _check_corrupted_roundtrip(kind, degrees)


@pytest.mark.parametrize("kind", ("x_beyond_n", "x_satisfies_no_term", "swapped_rows"))
@pytest.mark.parametrize("degrees", [(0,), (2, 0)])
def test_roundtrip_of_a_corrupted_empty_set_record_matches_the_scalar_path(kind, degrees):
    # the record of S = {} is decoded like any other; it has no sigma or a
    # to corrupt
    _check_corrupted_roundtrip(kind, degrees)


def _check_corrupted_roundtrip(kind, degrees):
    """Corrupt a record of each degree, the largest S first, then the
    smallest, and compare the streamed round trip, which gets the
    corrupted records through its consumer, with the batched oracle and
    the scalar path."""
    from dnf_fourier.encoder import valid_pairs

    from conftest import make_bundle

    dnf = GeneratorSpec("random_read_k", {"n": 8, "s": 4, "w": 3, "k": 2}, seed=7).build()
    b = make_bundle("rk8", dnf)
    masks = sorted(b.records)
    records, targets = dict(b.records), []
    for rank, d in enumerate(degrees):   # the largest S first, then the smallest
        for s_mask in (masks[::-1] if rank == 0 else masks):
            # the S = {} record shares the read-only full-depth indices, which
            # the round trip compares against, and its a is a read-only
            # broadcast zero: corrupt copies of its x_sat and a
            xsbars, record = records[s_mask]
            record = dataclasses.replace(record, x_sat=record.x_sat.copy(), a=record.a.copy())
            if (s_mask.bit_count() == d and len(record) >= 2
                    and _corrupt(kind, dnf, b.f, record)):
                records[s_mask] = (xsbars, record)
                targets.append(s_mask)
                break
    assert len(targets) == len(degrees) and targets == sorted(targets, reverse=True)
    expected = _scalar_roundtrip(dnf, b.tables, records, 4)
    assert f"at S={targets[-1]}, " in expected[1][2]
    assert _batched_roundtrip(dnf, records, 4) == expected
    pairs, failure = _streamed_roundtrip(dnf, 4, {m: records[m][1] for m in targets})
    assert (pairs, failure) == expected
    # the failure names the pair that the count of passed pairs points at
    assert failure[:2] == list(valid_pairs(b.tables, 4))[pairs]


@pytest.mark.parametrize("sigma, message", [((0, 1), "sigma positions are 1-based"),
                                            ((2, 2), "sigma positions must be distinct")])
def test_cli_verify_reports_a_bad_sigma_as_failed_roundtrip(tmp_path, monkeypatch,
                                                            sigma, message):
    from dnf_fourier import covers

    record = covers._record

    def corrupt_at_degree_two(n, s_mask, *args):
        r = record(n, s_mask, *args)
        if s_mask.bit_count() == 2:
            r.sigma[0] = sigma
        return r

    monkeypatch.setattr(covers, "_record", corrupt_at_degree_two)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "instances": [{"generator": {"family": "tribes", "params": {"w": 2, "t": 2}}}],
        "checks": ["roundtrip"],
    }))
    out = tmp_path / "r.json"
    assert main(["verify", str(cfg_path), "--out", str(out)]) == 1
    (row,) = json.loads(out.read_text())["instances"][0]["checks"]
    assert row["holds"] is False
    assert row["context"]["error"].startswith("DecodeError at S=3, x=0: ")
    assert row["context"]["error"].endswith(message)


def test_sweep_encoder_fault_is_a_fault_entry(tmp_path, monkeypatch, capsys):
    from dnf_fourier import covers

    extract_cover = covers.extract_cover

    def broken_on_n6(dnf, *args):
        if dnf.n == 6:
            raise EncodingInvariantError("injected fault")
        return extract_cover(dnf, *args)

    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "instances": [{"generator": {"family": "tribes", "params": {"w": 2, "t": t}}}
                      for t in (2, 3)],
    }))
    clean = tmp_path / "clean.json"
    assert main(["sweep", str(cfg_path), "--out", str(clean)]) == 0
    monkeypatch.setattr(covers, "extract_cover", broken_on_n6)
    texts = []
    for workers in ("1", "2"):
        out = tmp_path / f"r{workers}.json"
        assert main(["sweep", str(cfg_path), "--out", str(out), "--workers", workers]) == 1
        assert "injected fault" in capsys.readouterr().err
        texts.append(out.read_text())
    assert texts[0] == texts[1]
    intact, faulty = json.loads(texts[0])["instances"]
    assert intact == json.loads(clean.read_text())["instances"][0]
    assert faulty == {"label": "tribes(t=3,w=2,seed=0)", "failures": 1,
                      "fault": "EncodingInvariantError at S=1, x=2: injected fault"}


@pytest.mark.parametrize("command", ["verify", "sweep"])
def test_report_on_stdout_equals_the_out_file(tmp_path, capsys, command):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "instances": [{"generator": {"family": "tribes", "params": {"w": 2, "t": 2}}}],
    }))
    out = tmp_path / "r.json"
    assert main([command, str(cfg_path), "--out", str(out)]) == 0
    capsys.readouterr()
    assert main([command, str(cfg_path)]) == 0
    assert capsys.readouterr().out == out.read_text()


def _spy_tables(monkeypatch) -> list:
    """Record every RestrictionTables that verify builds."""
    import dnf_fourier.experiments as experiments

    built = []

    class SpyTables(experiments.RestrictionTables):
        def __init__(self, f):
            super().__init__(f)
            built.append(self)

    monkeypatch.setattr(experiments, "RestrictionTables", SpyTables)
    return built


def test_verify_encodes_each_full_depth_pair_once(monkeypatch):
    from dnf_fourier import RestrictionTables, covers, experiments
    from dnf_fourier.encoder import valid_pairs

    calls = []

    def spy(fn):
        def wrapper(dnf, s_mask, xsbar, *args):
            calls.append((s_mask, xsbar))
            return fn(dnf, s_mask, xsbar, *args)
        return wrapper

    monkeypatch.setattr(covers, "extract_cover", spy(covers.extract_cover))
    monkeypatch.setattr(experiments, "encode", spy(experiments.encode))
    broadcast = []
    by_full = RestrictionTables.dt_by_full

    def dt_by_full(self, free_mask):
        broadcast.append(free_mask)
        return by_full(self, free_mask)

    monkeypatch.setattr(RestrictionTables, "dt_by_full", dt_by_full)
    built = _spy_tables(monkeypatch)
    report = run_verify(ExperimentConfig(instances=(_tribes_source(2, 3),), d_max=4))
    assert report["summary"]["ok"]
    assert len(built) == 1 and broadcast == []  # no 2^n broadcast table
    # the pairs with S = {} have x_sat = x and empty sigma and a: no encode
    pairs = [p for p in valid_pairs(RestrictionTables(tribes(2, 3).evaluate()), 4) if p[0]]
    assert sorted(calls) == sorted(pairs)


def test_spectral_only_verify_builds_no_restriction_tables(monkeypatch):
    built = _spy_tables(monkeypatch)
    spectral = ("spectral_basics", "sparsity", "truncation", "approx_transfer",
                "cover_probability", "satisfied_mass")
    report = run_verify(ExperimentConfig(instances=(_tribes_source(2, 3),), d_max=0,
                                         checks=spectral))
    assert report["summary"]["ok"] and report["summary"]["checks"] > 0
    assert built == []
    run_verify(ExperimentConfig(instances=(_tribes_source(2, 3),), checks=("evasive",)))
    assert len(built) == 1


_RK8 = GeneratorSpec("random_read_k", {"n": 8, "s": 6, "w": 3, "k": 2}, seed=5)


@pytest.mark.parametrize("mode", ["verify", "evasive", "sweep"])
def test_each_table_is_built_once_and_one_top_level_table_is_held(monkeypatch, mode):
    # an all-checks verify, an evasive-only verify (no analysis) and a sweep
    # at d_max 4: the table of each S with |S| <= 4 and no parent S - i
    # whose oracle table is all zero is built exactly once, no other table
    # is built, and each table with |S| = 4 is released before the next one
    # is built; after the analysis, neither the evasive loop nor the round
    # trip builds one
    from dnf_fourier import experiments, restrictions
    from dnf_fourier.bitops import bit_indices

    from test_restrictions import oracle_tables

    d_max = 4
    built, held, phases = [], [], []
    by_sbar = restrictions.RestrictionTables.dt_by_sbar

    def dt_by_sbar(self, free_mask):
        if free_mask not in self._by_sbar:
            built.append(free_mask)
        out = by_sbar(self, free_mask)
        held.append(sum(1 for m in self._by_sbar if m.bit_count() == d_max))
        return out

    def at_builds(owner, name):
        fn = getattr(owner, name)

        def wrapper(*args):
            phases.append(len(built))
            out = fn(*args)
            phases.append(len(built))
            return out
        monkeypatch.setattr(owner, name, wrapper)

    monkeypatch.setattr(restrictions.RestrictionTables, "dt_by_sbar", dt_by_sbar)
    at_builds(experiments, "evasive_bound_check")
    at_builds(experiments.RoundTrip, "result")
    dnf = _RK8.build()
    checks = ("evasive",) if mode == "evasive" else experiments.ALL_CHECKS
    config = ExperimentConfig(instances=(), d_max=d_max, checks=checks)
    if mode == "sweep":
        report = experiments.sweep_instance(dnf, "rk8", config)
        assert report["degree_cutoff"] == d_max and not phases
    else:
        report = _verify_entry(dnf, "rk8", config)
        assert report["failures"] == 0
        assert len(phases) == 2 * len(list(subsets_up_to(8, d_max))) + 2 * (mode == "verify")
    subsets = list(subsets_up_to(8, d_max))
    oracle = oracle_tables(dnf.evaluate(), subsets)
    no_zero_parent = [m for m in subsets if all(oracle[m ^ 1 << i].any() for i in bit_indices(m))]
    assert sorted(built) == no_zero_parent
    assert len(no_zero_parent) < len(subsets)
    assert max(held) == 1
    assert phases[0::2] == phases[1::2]     # no call builds a table
    if mode == "verify":                    # nor does the loop around it
        assert set(phases) == {len(no_zero_parent)}


@st.composite
def _dnfs_with_irrelevant_variables(draw):
    """``small_dnfs`` on up to 3 more variables, which no term reads."""
    dnf = draw(small_dnfs())
    return Dnf(dnf.n + draw(st.integers(0, 3)), dnf.terms)


def _pass_results(dnf, d_max: int) -> tuple:
    """The counts, families and tails of the analysis at d_max, and the
    all-checks verify entry and the sweep entry at d_max, as text."""
    from dnf_fourier import experiments

    f = dnf.evaluate()
    tables = RestrictionTables(f)
    analysis = FamilyAnalysis(dnf, d_max, tables, fourier_transform(f))
    counts = [tables.full_depth_count(m) for m in subsets_up_to(dnf.n, d_max)]
    config = ExperimentConfig(instances=(), d_max=d_max, checks=ALL_CHECKS)
    out = io.StringIO()
    verify_instance(dnf, "dnf", config, EntryWriter(out, "dnf", True))
    sweep = json.dumps(experiments.sweep_instance(dnf, "dnf", config))
    return counts, analysis.families, analysis.tails, out.getvalue(), sweep


@example(Dnf.from_term_literals(2, [[1, 2]]), 2)   # E_{x1} has one pair, as E_{x1, x2} does
@example(Dnf.from_term_literals(4, [[1, -2], [2, 3]]), 3)
@given(_dnfs_with_irrelevant_variables(), st.integers(0, 4))
@settings(max_examples=25, deadline=None)
def test_the_pruned_pass_gives_the_unpruned_passs_counts_families_tails_and_reports(dnf, d_max):
    # the zero-parent rule changes no count, family, tail or report byte:
    # the unpruned pass is the tests' oracle_visit
    from test_restrictions import oracle_visit

    pruned = _pass_results(dnf, d_max)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(RestrictionTables, "visit", oracle_visit)
        assert pruned == _pass_results(dnf, d_max)


@pytest.mark.parametrize("s_mask", [0b100, 0b101], ids=["zero-table", "zero-parent"])
def test_a_nonzero_coefficient_of_a_subset_with_no_pair_fails_its_degrees_weight(s_mask):
    # x3 is irrelevant: E_{x3} is all zero, and {x1, x3} has that zero
    # parent, so the pass skips both.  A spectrum that gives either a
    # nonzero coefficient fails the check of its degree's weight
    dnf = Dnf.from_term_literals(3, [[1, 2]])
    f = dnf.evaluate()
    scaled = fourier_transform(f).scaled.copy()
    assert scaled[s_mask] == 0
    scaled[s_mask] = 2
    stub = FourierSpectrum(3, scaled)
    with pytest.raises(AssertionError, match=f"^nonzero coefficient without a full-depth "
                                             f"witness at degree {s_mask.bit_count()}:"):
        FamilyAnalysis(dnf, 3, RestrictionTables(f), stub)


@pytest.mark.parametrize("command", ["verify", "encdec-test"])
def test_no_record_outlives_its_subsets_pass(tmp_path, monkeypatch, command):
    # a weak reference to each record the analysis packs, to its arrays and
    # to its subset's x_Sbar masks: all are gone once the next subset's
    # pass starts, with the round trip (and encdec-test's corpus writer)
    # as the consumers.  The analysis reads the x_Sbar masks of each
    # subset with a full-depth pair
    import weakref

    from dnf_fourier import RestrictionTables, covers
    from dnf_fourier.encoder import EncodingRecord

    refs, passes = [], []

    class WeakRecord(EncodingRecord):   # every record of the analysis, S = {} included
        __slots__ = ("__weakref__",)

        def __init__(self, *args):
            super().__init__(*args)
            refs.extend(weakref.ref(obj) for obj in (self, self.sigma, self.a))

    full_depth_xsbars = RestrictionTables.full_depth_xsbars

    def next_pass(self, free_mask):
        assert all(ref() is None for ref in refs), free_mask
        passes.append(free_mask)
        xsbars = full_depth_xsbars(self, free_mask)
        refs.append(weakref.ref(xsbars))
        return xsbars

    monkeypatch.setattr(RestrictionTables, "full_depth_xsbars", next_pass)
    monkeypatch.setattr(covers, "EncodingRecord", WeakRecord)
    dnf = _RK8.build()
    if command == "verify":
        config = ExperimentConfig(instances=(), d_max=4, checks=("roundtrip",))
        (row,) = _verify_entry(dnf, "rk8", config)["checks"]
        assert row["holds"] and row["context"]["pairs"] > 0
    else:
        dnf_path = tmp_path / "rk8.dnf"
        dnf_path.write_text(dnf.to_text())
        assert main(["encdec-test", str(dnf_path), "--corpus-out",
                     str(tmp_path / "cases.jsonl")]) == 0
    counts = RestrictionTables(dnf.evaluate()).full_depth_count
    assert passes == [m for m in subsets_up_to(8, 4) if counts(m)]
    # the masks of every pass, and a record and two of its arrays per pass
    # with a pair: most passes have one
    assert len(refs) > 2 * len(passes)
    assert all(ref() is None for ref in refs)


@pytest.mark.parametrize("command", ["verify", "verify-roundtrip", "sweep", "encdec-test"])
def test_only_a_consumer_gets_packed_records(tmp_path, monkeypatch, command):
    # sweep hands the encodings to no consumer, so it makes no record;
    # verify makes the record of every nonempty subset with a pair, once,
    # only when roundtrip is configured; so does encdec-test
    from dnf_fourier import covers, experiments

    from conftest import make_bundle

    dnf = _RK8.build()
    nonempty = [m for m in make_bundle("rk8", dnf).analysis.profiles if m]
    packed = []
    record = covers._record

    def spy(n, s_mask, *args):
        packed.append(s_mask.bit_count())
        return record(n, s_mask, *args)

    monkeypatch.setattr(covers, "_record", spy)
    config = ExperimentConfig(instances=(), d_max=4)
    if command == "sweep":
        assert experiments.sweep_instance(dnf, "rk8", config)["degree_cutoff"] == 4
    elif command == "verify":
        checks = tuple(c for c in experiments.ALL_CHECKS if c != "roundtrip")
        config = dataclasses.replace(config, checks=checks)
        assert _verify_entry(dnf, "rk8", config)["failures"] == 0
    elif command == "verify-roundtrip":
        assert _verify_entry(dnf, "rk8", config)["failures"] == 0
    else:
        dnf_path = tmp_path / "rk8.dnf"
        dnf_path.write_text(dnf.to_text())
        assert main(["encdec-test", str(dnf_path)]) == 0
    expected = ([m.bit_count() for m in nonempty]
                if command in ("verify-roundtrip", "encdec-test") else [])
    assert nonempty and packed == expected


@pytest.mark.parametrize("with_roundtrip", [False, True])
def test_the_analysis_releases_every_table(with_roundtrip):
    # after the pass no table is held, and the counts the evasive rows read
    # are kept: reading them builds nothing, and they equal fresh counts
    from dnf_fourier import FamilyAnalysis, RestrictionTables
    from dnf_fourier.experiments import RoundTrip

    dnf = _RK8.build()
    f = dnf.evaluate()
    tables = RestrictionTables(f)
    FamilyAnalysis(dnf, 4, tables, fourier_transform(f),
                   RoundTrip(dnf) if with_roundtrip else None)
    assert tables._by_sbar == {}
    fresh = RestrictionTables(f)
    for m in subsets_up_to(8, 4):
        assert tables.full_depth_count(m) == fresh.full_depth_count(m), m
    assert tables._by_sbar == {}


@pytest.mark.parametrize("run", [run_verify, run_concentration_sweep],
                         ids=["verify", "sweep"])
def test_a_report_sums_the_spectrum_weight_at_most_twice(monkeypatch, run):
    # once for the report and once for the analysis's tails, not once per
    # union-size cutoff
    from dnf_fourier import FourierSpectrum, experiments

    calls = []
    total_weight = FourierSpectrum.total_weight

    def spy(self):
        calls.append(self.n)
        return total_weight(self)

    monkeypatch.setattr(FourierSpectrum, "total_weight", spy)
    report = run(ExperimentConfig(instances=(InstanceSource("generator", spec=_RK8),),
                                  d_max=4, checks=experiments.ALL_CHECKS))
    (entry,) = report["instances"]
    assert entry["tail_table"] and "error" not in entry and "fault" not in entry
    assert 1 <= len(calls) <= 2


#: The benchmark's instances: readk16.dnf and n23.dnf under bench/instances.
_READK16 = GeneratorSpec("random_read_k", {"n": 16, "s": 10, "w": 3, "k": 2}, seed=3)
_N23 = GeneratorSpec("random_read_k", {"n": 23, "s": 20, "w": 5, "k": 5, "exact_width": True},
                     seed=7)


@pytest.mark.parametrize("run, spec, config, spectra", [
    (run_verify, _READK16, {"d_max": 4, "checks": ALL_CHECKS}, 2),
    (run_concentration_sweep, _READK16, {"d_max": 4}, 1),
    (run_verify, _N23, {"d_max": 0, "eps": Fraction(1, 64), "checks": (
        "spectral_basics", "sparsity", "truncation", "approx_transfer", "satisfied_mass")}, 2),
], ids=["verify-readk16", "sweep-readk16", "spectral-n23"])
def test_each_spectrum_is_profiled_once(monkeypatch, run, spec, config, spectra):
    # one pass per spectrum gives every whole-spectrum reader its sums and
    # groups: no reader rescans a coefficient vector or asks for a popcount
    # table longer than a block (n=23 spans 128 blocks). The restriction
    # tables count their bits through boolfn's count_set_bits
    from dnf_fourier import FourierSpectrum, boolfn

    made, profiled, summed, tables = [], [], [], []
    init, profile, popcounts = FourierSpectrum.__init__, boolfn._profile, boolfn.popcount_table
    sum_squares = boolfn._sum_squares
    monkeypatch.setattr(FourierSpectrum, "__init__",
                        lambda self, n, scaled: made.append(scaled) or init(self, n, scaled))
    monkeypatch.setattr(boolfn, "_profile", lambda v: profiled.append(v) or profile(v))
    monkeypatch.setattr(boolfn, "_sum_squares", lambda v: summed.append(v) or sum_squares(v))
    monkeypatch.setattr(boolfn, "popcount_table", lambda b: tables.append(b) or popcounts(b))
    report = run(ExperimentConfig(instances=(InstanceSource("generator", spec=spec),), **config))
    (entry,) = report["instances"]
    assert "error" not in entry and "fault" not in entry
    assert len(made) == spectra and all(p is v for p, v in zip(profiled, made, strict=True))
    assert not any(s is v for s in summed for v in made)
    assert set(tables) <= {8} | set(range(boolfn.HIST_CHUNK.bit_length()))


def test_sweep_u_star_sets_the_cutoff():
    # the config's u_star replaces the floor of the formula (1453 here)
    cfg = ExperimentConfig(instances=(_tribes_source(2, 3),), d_max=4, u_star=2)
    (entry,) = run_concentration_sweep(cfg)["instances"]
    beyond = entry["report_only"]["tail_beyond_u_star"]
    assert entry["u_star_override"] == 2 and math.floor(entry["u_star_formula"]) == 1453
    assert (beyond["u_star_floor"], beyond["family_weight_beyond"], beyond["would_hold"]) == (
        2, "263/2^12", False)


def test_the_u_star_floor_is_the_exact_floor_of_the_formula(tmp_path):
    # width 3 and read 2 at C = 1/3 and eps = 3/8: 100 (1/3) 3 log2 4 log2 8
    # is exactly 600, while the float product is 599.9999999999999, whose
    # floor was the cutoff
    dnf = tmp_path / "w3k2.dnf"
    dnf.write_text("n=4\n1 2 3\n1 -2 4\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"instances": [{"file": str(dnf)}], "C": "1/3", "eps": "3/8"}))
    out = tmp_path / "r.json"
    assert main(["sweep", str(cfg), "--out", str(out)]) == 0
    (entry,) = json.loads(out.read_text())["instances"]
    assert entry["metrics"] == {"size": 2, "width": 3, "read": 2}
    assert entry["u_star_formula"] == 600.0
    assert entry["report_only"]["tail_beyond_u_star"]["u_star_floor"] == 600


def test_would_hold_per_u_is_decided_exactly():
    # weight <= 2^(-u/2) * max_num_covers at u = 1 and max_num_covers = 1,
    # with the weight the multiple of 2^-60 just above 1/sqrt(2): as floats
    # the two sides are equal, exactly the weight is larger
    from types import SimpleNamespace

    from dnf_fourier.experiments import _theorem_tails

    weight = DyadicRational(math.isqrt(1 << 119) + 1, 60)
    assert float(weight) <= 2.0 ** -0.5
    analysis = SimpleNamespace(families=["one family"], max_num_covers=lambda key: 1,
                               weight_at_u=[DyadicRational(1), weight])
    tails = _theorem_tails(analysis, ExperimentConfig(instances=()), None)
    assert [r["would_hold"] for r in tails["family_weight_vs_simplified_bound"]] == [
        True, False]


def test_evasive_only_verify_matches_the_all_checks_rows(monkeypatch):
    # without an analysis the evasive loop counts each table itself and
    # releases the top level; with one it reads the counts the tables kept
    # after the analysis released every table
    from dnf_fourier.experiments import ALL_CHECKS

    def evasive_rows(checks):
        report = run_verify(ExperimentConfig(
            instances=(InstanceSource("generator", spec=_RK8),), d_max=4, checks=checks))
        return [r for r in report["instances"][0]["checks"] if r["check"] == "evasive"]

    rows = evasive_rows(("evasive",))
    assert len(rows) == len(list(subsets_up_to(8, 4)))
    built = _spy_tables(monkeypatch)
    assert rows == evasive_rows(ALL_CHECKS)
    (tables,) = built
    assert tables._by_sbar == {}


def test_verify_counts_the_covers_of_each_subset_once(monkeypatch):
    from dnf_fourier import covers

    counted = []
    count = covers.cover_counts_by_union

    def spy(dnf, s_mask):
        counted.append(s_mask)
        return count(dnf, s_mask)

    monkeypatch.setattr(covers, "cover_counts_by_union", spy)
    report = run_verify(ExperimentConfig(instances=(_tribes_source(2, 3),), d_max=4))
    assert report["summary"]["ok"]
    assert sorted(counted) == list(subsets_up_to(6, 4))


def test_sweep_counts_the_covers_of_each_subset_once(monkeypatch):
    # the sweep reads the largest count of each family, so it counts every
    # subset with a full-depth pair, and each exactly once
    from dnf_fourier import covers

    from conftest import make_bundle

    counted = []
    count = covers.cover_counts_by_union

    def spy(dnf, s_mask):
        counted.append(s_mask)
        return count(dnf, s_mask)

    monkeypatch.setattr(covers, "cover_counts_by_union", spy)
    report = run_concentration_sweep(ExperimentConfig(instances=(_tribes_source(2, 3),)))
    d_max = report["instances"][0]["degree_cutoff"]
    assert d_max >= 2
    assert sorted(counted) == sorted(make_bundle("t23", tribes(2, 3), d_max).analysis.profiles)


@pytest.mark.parametrize("terms", [[], [[]]], ids=["no-term", "empty-term"])
def test_the_sweep_of_a_constant_analyses_degree_0(monkeypatch, terms):
    # a width-0 DNF is constant, so no pair with S nonempty has full depth:
    # the sweep analyses S = {} alone, not every subset up to the cap
    # (127,858 at n = 17).  An analysis at every degree finds no other
    # subset either, so degree 0 loses nothing
    from dnf_fourier import experiments
    from dnf_fourier.dnf import Dnf
    from dnf_fourier.restrictions import RestrictionTables

    from conftest import make_bundle

    analysed = []
    xsbars = RestrictionTables.full_depth_xsbars

    def spy(self, s_mask):
        analysed.append(s_mask)
        return xsbars(self, s_mask)

    monkeypatch.setattr(RestrictionTables, "full_depth_xsbars", spy)
    report = experiments.sweep_instance(Dnf.from_term_literals(17, terms), "const",
                                        ExperimentConfig(instances=()))
    assert (report["degree_cutoff"], analysed) == (0, [0])
    assert list(make_bundle("const", Dnf.from_term_literals(6, terms), 6).analysis.profiles) == [0]


def test_sweep_evaluates_and_transforms_each_instance_once(monkeypatch):
    from dnf_fourier import boolfn
    from dnf_fourier.dnf import Dnf

    calls = {"evaluate": 0, "transform": 0}
    evaluate, butterfly = Dnf.evaluate, boolfn.walsh_butterfly

    def evaluate_spy(self, *args, **kwargs):
        calls["evaluate"] += 1
        return evaluate(self, *args, **kwargs)

    def butterfly_spy(a):  # every fourier_transform runs one butterfly
        calls["transform"] += 1
        return butterfly(a)

    monkeypatch.setattr(Dnf, "evaluate", evaluate_spy)
    monkeypatch.setattr(boolfn, "walsh_butterfly", butterfly_spy)
    run_concentration_sweep(ExperimentConfig(instances=(_tribes_source(2, 3),)))
    assert calls == {"evaluate": 1, "transform": 1}


def test_cli_covers_counts_once(tmp_path, monkeypatch, capsys):
    import dnf_fourier.cli as cli
    from dnf_fourier import covers

    dnf_path = tmp_path / "t.dnf"
    assert main(["gen", "tribes", "--w", "2", "--t", "3", "--out", str(dnf_path)]) == 0
    counted = []
    count = covers.cover_counts_by_union

    def spy(dnf, s_mask):
        counted.append(s_mask)
        return count(dnf, s_mask)

    monkeypatch.setattr(covers, "cover_counts_by_union", spy)
    monkeypatch.setattr(cli, "cover_counts_by_union", spy)
    assert main(["covers", str(dnf_path), "--set", "1,3"]) == 0
    assert counted == [0b101]
    assert "total covers: 1" in capsys.readouterr().out


#: Generator sources that cannot be built: (family, params, the error's tail).
_UNBUILDABLE = {
    "generator-bad-w": ("random_read_k", {"n": 6, "s": 2, "w": "x", "k": 1},
                        "invalid literal for int() with base 10: 'x'"),
    "generator-w-a-boolean": ("tribes", {"w": True, "t": 3}, "a boolean is not a number"),
    "generator-w-not-integral": ("tribes", {"w": 2.5, "t": 3}, "not an integer"),
    "generator-exact-width-a-string": ("random_read_k",
                                       {"n": 6, "s": 2, "w": 2, "k": 1, "exact_width": "no"},
                                       "exact_width 'no' is not a boolean"),
    "generator-unknown-parameter": ("tribes", {"w": 2, "t": 3, "width": 3},
                                    "unknown parameters ['width']"),
    # rejected before the generator allocates anything per variable
    "generator-n-10^15": ("random_read_k", {"n": 10**15, "s": 3, "w": 2, "k": 2},
                          "n=1000000000000000 outside [1, 24]"),
    # more digits than str() writes (4300 by default), named by its param
    "generator-w-1e5000": ("tribes", {"w": "1e5000", "t": 1},
                           "w=1e5000 has more digits than a report can write"),
}
_UNLOADABLE = ["n-beyond-the-cap", "variable-beyond-n", "not-utf8", *_UNBUILDABLE, "directory"]


def _unloadable(tmp_path, case: str) -> tuple[dict, str, str]:
    """A source that cannot be loaded, its label and its report error."""
    if case in _UNBUILDABLE:
        family, params, error = _UNBUILDABLE[case]
        gen = {"family": family, "params": params}
        return ({"generator": gen}, GeneratorSpec.from_dict(gen).label(),
                f"GenerationError: {family} is missing or has a bad parameter: {error}")
    path = tmp_path / case
    if case == "directory":
        path.mkdir()
        return {"file": str(path)}, str(path), f"IsADirectoryError: [Errno 21] Is a directory: '{path}'"
    text, error = {
        "n-beyond-the-cap": (b"n=25\n1 2\n", "CapExceededError: n=25 outside [1, 24]"),
        "variable-beyond-n": (b"n=3\n1 5\n", "ValueError: term 1 uses variables beyond n=3"),
        "not-utf8": (b"n=3\n1 \xff\n", "UnicodeDecodeError: 'utf-8' codec can't decode "
                                        "byte 0xff in position 6: invalid start byte"),
    }[case]
    path.write_bytes(text)
    return {"file": str(path)}, str(path), error


def _run_with_unloadable(tmp_path, capsys, command, case, checks) -> tuple[dict, dict]:
    """Run tribes(2,2) and then an unloadable source with one worker and
    with two: the same report, an ``error:`` line naming the source and
    exit 2.  Returns the two instance entries, the second checked."""
    source, label, error = _unloadable(tmp_path, case)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "instances": [{"generator": {"family": "tribes", "params": {"w": 2, "t": 2}}}, source],
        **checks,
    }))
    texts = []
    for workers in ("1", "2"):
        out = tmp_path / f"r{workers}.json"
        assert main([command, str(cfg_path), "--out", str(out), "--workers", workers]) == 2
        assert f"error: {label}: {error}" in capsys.readouterr().err.splitlines()
        texts.append(out.read_text())
    assert texts[0] == texts[1]
    good, bad = json.loads(texts[0])["instances"]
    assert bad == {"label": label, "error": error, "checks": [], "failures": 1}
    return good, bad


@pytest.mark.parametrize("case", _UNLOADABLE)
def test_unloadable_instance_is_an_error_entry(tmp_path, capsys, case):
    tribes_entry, _ = _run_with_unloadable(tmp_path, capsys, "verify", case,
                                           {"checks": ["read_chain"]})
    assert tribes_entry["checks"] and all(
        r["check"] == "read_cover_chain" and r["holds"] for r in tribes_entry["checks"]
    )


@pytest.mark.parametrize("case", _UNLOADABLE)
def test_unloadable_sweep_instance_is_an_error_entry(tmp_path, capsys, case):
    tribes_entry, _ = _run_with_unloadable(tmp_path, capsys, "sweep", case, {})
    assert tribes_entry["tail_table"] and tribes_entry["label"] == "tribes(t=2,w=2,seed=0)"


def test_a_malformed_json_instance_is_an_error_entry_and_the_next_one_runs(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 3, "terms": [[1.5]]}))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "instances": [{"file": str(bad)}, {"generator": {"family": "tribes",
                                                         "params": {"w": 2, "t": 2}}}],
        "checks": ["spectral_basics"]}))
    out = tmp_path / "report.json"
    assert main(["verify", str(cfg_path), "--out", str(out)]) == 2
    error = "ParseError: bad DNF JSON: not an integer"
    assert f"error: {bad}: {error}" in capsys.readouterr().err.splitlines()
    first, second = json.loads(out.read_text())["instances"]
    assert first == {"label": str(bad), "error": error, "checks": [], "failures": 1}
    assert second["label"] == "tribes(t=2,w=2,seed=0)" and "error" not in second
    assert [r["check"] for r in second["checks"]] == ["parseval", "reconstruction"]


@pytest.mark.parametrize("args", [["spectrum"], ["encdec-test"], ["covers", "--set", "1"],
                                  ["verify"], ["sweep"]],
                         ids=["spectrum", "encdec-test", "covers", "verify", "sweep"])
def test_cli_a_directory_for_a_file_is_a_usage_error(tmp_path, capsys, args):
    assert main([args[0], str(tmp_path), *args[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: [Errno 21] Is a directory: '{tmp_path}'\n"
    assert captured.out == ""


def test_verify_evaluates_each_distinct_truncation_once(monkeypatch):
    from dnf_fourier.dnf import Dnf

    evaluated = []
    evaluate = Dnf.evaluate

    def spy(self, *args, **kwargs):
        evaluated.append(len(self.terms))
        return evaluate(self, *args, **kwargs)

    monkeypatch.setattr(Dnf, "evaluate", spy)
    # every term of tribes(2,3) has width 2, so both truncations are empty
    cfg = ExperimentConfig(instances=(_tribes_source(2, 3),),
                           checks=("truncation", "approx_transfer"))
    report = run_verify(cfg)
    assert report["summary"]["ok"]
    assert evaluated == [3, 0]


@pytest.mark.parametrize("terms", [[], [[]]], ids=["no-term", "empty-term"])
def test_the_verify_of_a_constant_still_reconstructs(monkeypatch, terms):
    # the transform writes a constant's spectrum with no butterfly, but the
    # reconstruction check still evaluates it at every point: one int32
    # butterfly per 32nd, of 2^(6-5) entries, and its row holds
    from dnf_fourier import experiments
    from dnf_fourier.dnf import Dnf

    ran, butterfly = [], experiments.walsh_butterfly

    def spy(a):
        ran.append((a.size, a.dtype))
        return butterfly(a)

    monkeypatch.setattr(experiments, "walsh_butterfly", spy)
    report = _verify_entry(Dnf.from_term_literals(6, terms), "const",
                           ExperimentConfig(instances=(), checks=ALL_CHECKS))
    assert report["failures"] == 0
    assert ran == [(2, np.dtype(np.int32))] * 32
    assert [r["holds"] for r in report["checks"] if r["check"] == "reconstruction"] == [True]


def test_reconstruction_row_catches_a_wrong_coefficient(monkeypatch):
    # one wrong coefficient in each of four parts of the spectrum (n = 4:
    # the check splits on every variable, so each mask is a part of its own)
    from dnf_fourier import FourierSpectrum, experiments

    transform = experiments.fourier_transform
    cfg = ExperimentConfig(instances=(_tribes_source(2, 2),), checks=("spectral_basics",))
    holds = {r["check"]: r["holds"] for r in run_verify(cfg)["instances"][0]["checks"]}
    assert holds == {"parseval": True, "reconstruction": True}
    for mask in (3, 5, 10, 12):
        def off_by_one(f, mask=mask):
            scaled = transform(f).scaled.copy()
            scaled[mask] += 1
            return FourierSpectrum(f.n, scaled)

        monkeypatch.setattr(experiments, "fourier_transform", off_by_one)
        holds = {r["check"]: r["holds"] for r in run_verify(cfg)["instances"][0]["checks"]}
        assert holds["reconstruction"] is False, mask


def test_reconstruction_row_catches_a_wrong_coefficient_in_each_32nd(monkeypatch):
    # n = 8: the check splits on variables 4..8, so part p holds the masks
    # 8p..8p+7; one coefficient off by one in any of the 32 fails the row
    from dnf_fourier import Dnf, FourierSpectrum, experiments

    dnf = Dnf.from_term_literals(8, [[1, -4, 7], [2, 5], [-3, 6, -8], [-1, 8]])
    cfg = ExperimentConfig(instances=(), checks=("spectral_basics",))
    assert _verify_entry(dnf, "n8", cfg)["failures"] == 0
    transform = experiments.fourier_transform
    for part in range(32):
        mask = 8 * part + part % 8

        def off_by_one(f, mask=mask):
            scaled = transform(f).scaled.copy()
            scaled[mask] += 1
            return FourierSpectrum(f.n, scaled)

        monkeypatch.setattr(experiments, "fourier_transform", off_by_one)
        holds = {r["check"]: r["holds"] for r in _verify_entry(dnf, "n8", cfg)["checks"]}
        assert holds["reconstruction"] is False, part


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_reconstruction_splits_on_five_variables_or_all_of_them(monkeypatch, n):
    # min(n, 5) variables: 2^min(n, 5) butterflies of 2^(n - min(n, 5))
    # entries, so one entry each when n <= 5
    from dnf_fourier import experiments, random_read_k
    from dnf_fourier.experiments import _reconstructs

    ran, butterfly = [], experiments.walsh_butterfly

    def spy(a):
        ran.append(a.size)
        return butterfly(a)

    monkeypatch.setattr(experiments, "walsh_butterfly", spy)
    f = random_read_k(n=n, s=3, w=min(n, 2), k=3, seed=n).evaluate()
    assert _reconstructs(fourier_transform(f), f)
    top = min(n, 5)
    assert ran == [1 << (n - top)] * (1 << top)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_reconstructs_every_small_function_and_no_wrong_spectrum(n):
    # every function on n <= 3 variables: its own spectrum reconstructs it,
    # and the spectrum with any one coefficient off by one does not (the
    # check splits on min(n, 5) variables, here all of them)
    from dnf_fourier import FourierSpectrum
    from dnf_fourier.experiments import _reconstructs

    for bits in range(1 << (1 << n)):
        f = table_of(n, bits)
        scaled = fourier_transform(f).scaled
        assert _reconstructs(FourierSpectrum(n, scaled.copy()), f)
        for mask in range(1 << n):
            wrong = scaled.copy()
            wrong[mask] += 1
            assert not _reconstructs(FourierSpectrum(n, wrong), f), (bits, mask)


@pytest.mark.parametrize("n", [5, 6])
def test_reconstruction_fails_on_any_one_coefficient_or_point_changed(n):
    # part 0 is checked whole and each other part, in Gray-code order,
    # through its difference with the part before it: a coefficient one
    # more or one less, anywhere, and one table point flipped, in any of
    # the 32 parts, each fail the check
    from dnf_fourier import FourierSpectrum, random_read_k
    from dnf_fourier.experiments import _reconstructs

    f = random_read_k(n=n, s=4, w=3, k=2, seed=n).evaluate()
    spec = fourier_transform(f)
    assert _reconstructs(spec, f)
    for mask in range(1 << n):
        for delta in (1, -1):
            wrong = spec.scaled.copy()
            wrong[mask] += delta
            assert not _reconstructs(FourierSpectrum(n, wrong), f), (mask, delta)
    size = 1 << (n - 5)
    for part in range(32):
        x = part * size + part % size
        assert not _reconstructs(spec, table_of(n, bits_of(f) ^ (1 << x))), part


def test_reconstruction_catches_one_wrong_point_in_either_block_of_a_part():
    # n = 22: a part has 2^17 entries, compared in two HIST_CHUNK blocks;
    # the table with one entry flipped, in the first or the second block of
    # part 3 or of the last part, is not what the spectrum evaluates to
    from dnf_fourier import random_read_k
    from dnf_fourier.experiments import _reconstructs

    f = random_read_k(n=22, s=18, w=5, k=5, seed=7).evaluate()
    spec = fourier_transform(f)
    for x in (3 << 17, (3 << 17) + (1 << 16) + 5, (1 << 22) - 1):
        assert not _reconstructs(spec, table_of(22, bits_of(f) ^ (1 << x))), x


def test_reconstruction_is_int64_where_a_residue_mod_2_32_could_hide_an_error():
    # 2^30 added to every coefficient of an n = 2 spectrum changes the point
    # values by (2^32, 0, 0, 0), which is 0 mod 2^32: only the bound on the
    # sum of magnitudes (here 2^32 or more) keeps the check out of int32
    from dnf_fourier.experiments import _reconstructs

    for bits in range(16):
        f = table_of(2, bits)
        shifted = fourier_transform(f).scaled + np.int32(1 << 30)
        assert not _reconstructs(FourierSpectrum(2, shifted), f), bits


@pytest.mark.parametrize("x", [0, 5, 8, 15])
def test_reconstruction_row_catches_one_wrong_point_in_either_half(monkeypatch, x):
    # the spectrum of f with one table entry flipped: poly(x) is wrong at x
    # alone, in the half with x_n = 0 (x < 8) or in the one with x_n = 1
    from dnf_fourier import experiments

    transform = experiments.fourier_transform
    monkeypatch.setattr(experiments, "fourier_transform",
                        lambda f: transform(table_of(f.n, bits_of(f) ^ (1 << x))))
    cfg = ExperimentConfig(instances=(_tribes_source(2, 2),), checks=("spectral_basics",))
    holds = {r["check"]: r["holds"] for r in run_verify(cfg)["instances"][0]["checks"]}
    assert holds["reconstruction"] is False


_SPECTRAL_CHECKS = ("spectral_basics", "sparsity", "truncation", "approx_transfer",
                    "satisfied_mass")


def _spectral_verify_bytes_per_entry(exact_width: bool) -> float:
    """The traced peak of the five-check spectral verify of an n = 20 DNF,
    per truth-table entry."""
    import tracemalloc

    from dnf_fourier import random_read_k

    dnf = random_read_k(n=20, s=18, w=5, k=5, exact_width=exact_width, seed=7)
    cfg = ExperimentConfig(instances=(), eps=Fraction(1, 64), d_max=0, checks=_SPECTRAL_CHECKS)
    tracemalloc.start()
    try:
        report = _verify_entry(dnf, "rk20", cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report["failures"] == 0
    return peak / (1 << 20)


def test_spectral_verify_peak_memory_per_table_entry():
    # Every phase of the spectral checks holds one int32 spectrum (4 bytes
    # per entry) and buffers of at most a quarter of the entries: never two
    # spectra, nor a 2^n unpacked table beside one.
    per_entry = _spectral_verify_bytes_per_entry(exact_width=True)
    assert per_entry <= 9, f"{per_entry:.1f} bytes per entry"


def test_spectral_verify_peak_memory_per_table_entry_mixed_width():
    # With terms of several widths the truncation is not empty: its
    # spectrum is ranked and dropped before f's is made, and the kept masks
    # (8 bytes each) are all that outlives it.
    per_entry = _spectral_verify_bytes_per_entry(exact_width=False)
    assert per_entry <= 12, f"{per_entry:.1f} bytes per entry"


def test_reconstruction_peak_memory_beside_the_spectrum():
    # one 2^(n-5) int32 buffer (a 32nd of the spectrum's bytes), the packed
    # table (a 32nd), the butterfly's scratch (a 64th here) and one
    # HIST_CHUNK block of expected values in int32 (a 64th), with the two
    # unpacked blocks they are made from, at a time: 0.100x the spectrum
    import tracemalloc

    from dnf_fourier import random_read_k
    from dnf_fourier.experiments import _reconstructs

    f = random_read_k(n=22, s=18, w=5, k=5, seed=7).evaluate()
    spec = fourier_transform(f)
    tracemalloc.start()
    try:
        ok = _reconstructs(spec, f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ok
    assert peak <= 0.12 * spec.scaled.nbytes, f"{peak / spec.scaled.nbytes:.3f}x the spectrum"


def test_spectral_verify_holds_one_spectrum_at_a_time(monkeypatch):
    # a weakref to each spectrum's vector: when a transform starts, every
    # vector made before it is gone (the DNF has terms of widths 2 to 5, so
    # approx_transfer transforms a truncation that is not empty)
    import weakref

    from dnf_fourier import experiments, random_read_k

    made, alive_at_start = [], []
    init, transform = FourierSpectrum.__init__, experiments.fourier_transform

    def spy_init(self, n, scaled):
        made.append(weakref.ref(scaled))
        init(self, n, scaled)

    def spy_transform(f):
        alive_at_start.append(sum(ref() is not None for ref in made))
        return transform(f)

    monkeypatch.setattr(FourierSpectrum, "__init__", spy_init)
    monkeypatch.setattr(experiments, "fourier_transform", spy_transform)
    dnf = random_read_k(n=12, s=10, w=5, k=3, seed=2)
    assert len({t.width for t in dnf.terms}) > 1
    cfg = ExperimentConfig(instances=(), eps=Fraction(1, 64), d_max=0, checks=_SPECTRAL_CHECKS)
    report = _verify_entry(dnf, "rk12", cfg)
    assert report["failures"] == 0 and "approx_transfer" in {r["check"] for r in report["checks"]}
    assert len(made) == 2 and alive_at_start == [0, 0]


def test_sweep_imports_neither_mpmath_nor_the_process_pool():
    # a sweep decides its cuts with exact Fractions, an all-checks verify
    # decides ln and e^x by rational series, and one worker needs no pool:
    # neither module is loaded
    code = (
        "import sys\n"
        "import dnf_fourier.cli\n"
        "from dnf_fourier import ExperimentConfig, GeneratorSpec, InstanceSource\n"
        "from dnf_fourier import run_concentration_sweep, run_verify\n"
        "from dnf_fourier.experiments import ALL_CHECKS\n"
        "spec = GeneratorSpec('tribes', {'w': 2, 't': 3})\n"
        "cfg = ExperimentConfig(instances=(InstanceSource('generator', spec=spec),), d_max=4)\n"
        "assert run_concentration_sweep(cfg)['instances'][0]['tail_table']\n"
        "cfg = ExperimentConfig(instances=cfg.instances, d_max=4, checks=ALL_CHECKS)\n"
        "report = run_verify(cfg)\n"
        "assert report['summary']['ok'] and {'satisfied_mass', 'read_cover_chain'} <= {\n"
        "    r['check'] for r in report['instances'][0]['checks']}\n"
        "print(sorted(m for m in ('mpmath', 'concurrent.futures.process') if m in sys.modules))\n"
    )
    assert _run_python(code) == "[]\n"


def _run_python(code: str, *args: str, timeout: float | None = None) -> str:
    """The stdout of ``code`` run by a fresh interpreter that imports this
    package, with ``args`` as its argv; it must exit 0 within ``timeout``."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import dnf_fourier

    src = str(Path(dnf_fourier.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          check=True, env=env, timeout=timeout).stdout


def test_readme_library_sketch_runs():
    from pathlib import Path

    readme = (Path(__file__).parents[1] / "README.md").read_text()
    head, rest = readme.split("```python\n", 1)
    # pad with the lines before the block so tracebacks give README line numbers
    block = "\n" * (head.count("\n") + 1) + rest.split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})


def test_sweep_csv_and_report_only_block(tmp_path):
    dnf_path = tmp_path / "t.dnf"
    main(["gen", "tribes", "--w", "2", "--t", "2", "--out", str(dnf_path)])
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"instances": [{"file": str(dnf_path)}]}))
    out = tmp_path / "sweep.json"
    csv_dir = tmp_path / "csv"
    assert main(["sweep", str(cfg_path), "--out", str(out), "--csv-dir", str(csv_dir)]) == 0
    report = json.loads(out.read_text())
    inst = report["instances"][0]
    block = inst["report_only"]
    assert "family_weight_vs_simplified_bound" in block
    assert block["tail_beyond_u_star"]["would_hold"] is True  # nothing beyond u*
    csv_text = (csv_dir / "instance_000.tail.csv").read_text()
    assert csv_text.startswith("u_cutoff,weight_outside")


def test_render_json_streams_the_indented_report():
    report = run_verify(ExperimentConfig(instances=(_tribes_source(2, 2),)))
    assert _rendered(report) == json.dumps(report, sort_keys=True, indent=2) + "\n"


def test_render_helpers_deterministic(tmp_path):
    cfg = ExperimentConfig(instances=(_tribes_source(2, 2),))
    report = run_verify(cfg)
    assert _rendered(report) == _rendered(run_verify(cfg))
    inst = report["instances"][0]
    assert family_csv(inst) == family_csv(run_verify(cfg)["instances"][0])
    outputs = []
    for run in ("a", "b"):
        csv_dir, jsonl = tmp_path / run, io.StringIO()
        csv_dir.mkdir()
        write_report("verify", cfg, io.StringIO(), jsonl, str(csv_dir))
        outputs.append((jsonl.getvalue(), (csv_dir / "instance_000.families.csv").read_text()))
    assert outputs[0] == outputs[1] and outputs[0][1] == family_csv(inst)


def _written(mode: str, config: ExperimentConfig) -> dict:
    """The report ``write_report`` writes, read back, after checking that
    its text is ``json.dump`` of itself: sorted keys, indent 2, a final
    newline."""
    out = io.StringIO()
    write_report(mode, config, out)
    text = out.getvalue()
    report = json.loads(text)
    dumped = json.dumps(report, sort_keys=True, indent=2) + "\n"
    # compared here, not by pytest, whose diff of two long texts takes minutes
    same = text == dumped
    first = next((i for i, (a, b) in enumerate(zip(text, dumped)) if a != b), len(dumped))
    assert same, f"the texts part at offset {first}: {text[first - 40:first + 40]!r}"
    return report


@pytest.mark.parametrize("mode", ["verify", "sweep"])
def test_the_written_report_is_json_dump_of_itself_on_the_corpus(tmp_path, mode):
    # every eighth corpus instance and the two tribes, then a source that
    # cannot be loaded: its entry is {"label", "error", "checks": [], ...}
    from conftest import corpus_bundles

    bundles = corpus_bundles()
    sources = []
    for i, b in enumerate(bundles[::8] + bundles[-2:]):
        path = tmp_path / f"{i}.dnf"
        path.write_text(b.dnf.to_text())
        sources.append(InstanceSource("file", path=str(path)))
    sources.append(InstanceSource("file", path=str(tmp_path / "missing.dnf")))
    report = _written(mode, ExperimentConfig(instances=tuple(sources), d_max=4,
                                             checks=ALL_CHECKS))
    *good, bad = report["instances"]
    assert bad["checks"] == [] and bad["error"].startswith("FileNotFoundError")
    assert all("error" not in inst for inst in good)
    if mode == "verify":
        rows = [row for inst in good for row in inst["checks"]]
        assert report["summary"] == {"instances": len(sources), "checks": len(rows),
                                     "failures": 1, "ok": False}
        assert not any("report_only" in row for row in rows)


_GENERATORS = st.one_of(
    st.builds(lambda w, t: ("tribes", {"w": w, "t": t}), st.integers(1, 3), st.integers(1, 3)),
    st.builds(lambda n, s, w, k: ("random_read_k", {"n": n, "s": s, "w": w, "k": k}),
              st.integers(1, 8), st.integers(0, 5), st.integers(1, 4), st.integers(1, 3)),
    st.builds(lambda m, w, p: ("dense_pool", {"n_terms": m, "term_width": w, "pool_size": p}),
              st.integers(0, 5), st.integers(1, 3), st.integers(3, 7)),
)


@given(gens=st.lists(st.tuples(_GENERATORS, st.integers(0, 3)), min_size=0, max_size=3),
       mode=st.sampled_from(["verify", "sweep"]),
       checks=st.lists(st.sampled_from(ALL_CHECKS), unique=True, max_size=4),
       d_max=st.integers(0, 4), eps=st.sampled_from([Fraction(1, 8), Fraction(1, 2), Fraction(1)]))
@settings(max_examples=25, deadline=None)
def test_the_written_report_is_json_dump_of_itself_on_generated_configs(gens, mode, checks,
                                                                        d_max, eps):
    sources = tuple(InstanceSource("generator", spec=GeneratorSpec(family, params, seed))
                    for (family, params), seed in gens)
    report = _written(mode, ExperimentConfig(instances=sources, checks=tuple(checks),
                                             d_max=d_max, eps=eps))
    assert report["summary"]["instances"] == len(sources)


@pytest.mark.parametrize("checks", [(), ("exact_width_chain",)], ids=["none", "exact-width"])
def test_a_verify_that_writes_no_row(checks):
    # random_read_k(n=6, s=3, w=3) has terms of two widths and the constant
    # none, so exact_width_chain has no row to write on either
    sources = (InstanceSource("generator", spec=GeneratorSpec(
                   "random_read_k", {"n": 6, "s": 3, "w": 3, "k": 2}, seed=1)),
               InstanceSource("generator", spec=GeneratorSpec(
                   "random_read_k", {"n": 4, "s": 0, "w": 1, "k": 1})))
    report = _written("verify", ExperimentConfig(instances=sources, checks=checks))
    assert [inst["checks"] for inst in report["instances"]] == [[], []]
    assert report["summary"] == {"instances": 2, "checks": 0, "failures": 0, "ok": True}


def test_a_roundtrip_fault_row_is_written_as_json_dump_writes_it(monkeypatch):
    from dnf_fourier import experiments

    def broken(*args, **kwargs):
        raise DecodeError("injected fault")

    monkeypatch.setattr(experiments, "decode_records", broken)
    report = _written("verify", ExperimentConfig(instances=(_tribes_source(2, 2),),
                                                 checks=("roundtrip", "read_chain")))
    rows = report["instances"][0]["checks"]
    assert [r["check"] for r in rows if not r["holds"]] == ["roundtrip"]
    assert rows[-1]["context"]["error"].startswith("DecodeError")


def test_rows_are_written_while_the_battery_runs(monkeypatch):
    # the length of the written text at each evasive check: each row is
    # out before the next subset is checked
    from dnf_fourier import experiments

    out, lengths = io.StringIO(), []
    evasive = experiments.evasive_bound_check

    def spy(*args):
        lengths.append(len(out.getvalue()))
        return evasive(*args)

    monkeypatch.setattr(experiments, "evasive_bound_check", spy)
    config = ExperimentConfig(instances=(_tribes_source(2, 3),), d_max=4,
                              checks=("spectral_basics", "evasive"))
    write_report("verify", config, out)
    assert len(lengths) == len(list(subsets_up_to(6, 4)))
    assert all(a < b for a, b in zip(lengths, lengths[1:]))
    assert 0 < lengths[0] and lengths[-1] < len(out.getvalue())


@pytest.mark.parametrize("existing", [False, True], ids=["absent", "existing"])
def test_a_verify_that_raises_leaves_out_and_rows_as_they_were(tmp_path, monkeypatch, existing):
    from dnf_fourier import experiments

    evasive, calls = experiments.evasive_bound_check, []

    def raises_on_the_fifth(*args):
        calls.append(args)
        if len(calls) == 5:
            raise RuntimeError("injected")
        return evasive(*args)

    monkeypatch.setattr(experiments, "evasive_bound_check", raises_on_the_fifth)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"instances": [_TRIBES22], "checks": ["evasive"]}))
    out, rows = tmp_path / "r.json", tmp_path / "rows.jsonl"
    if existing:
        out.write_text("an earlier report\n")
        rows.write_text("earlier rows\n")
    with pytest.raises(RuntimeError, match="injected"):
        main(["verify", str(cfg_path), "--out", str(out), "--rows-jsonl", str(rows)])
    assert len(calls) == 5
    assert sorted(p.name for p in tmp_path.iterdir()) == (
        ["cfg.json", "r.json", "rows.jsonl"] if existing else ["cfg.json"])
    if existing:
        assert (out.read_text(), rows.read_text()) == ("an earlier report\n", "earlier rows\n")


def test_verify_plans_per_batch_and_per_group(monkeypatch):
    # a compress plan is made where it is read and kept by no table: once
    # for S's x_Sbar masks and once for the batch of S's preconditions, per
    # nonempty subset with a full-depth pair (98 on rk8), and once per
    # per-term group of a round whose rest is nonempty (123), 319 plans.
    # None is made for a subset with no pair, whose x_Sbar masks are read
    # from no table
    from dnf_fourier import restrictions

    planned, plan = [], restrictions.compress_plan
    monkeypatch.setattr(restrictions, "compress_plan",
                        lambda n, m: planned.append(m) or plan(n, m))
    dnf = _RK8.build()
    report = _verify_entry(dnf, "rk8", ExperimentConfig(instances=(), d_max=4))
    assert report["failures"] == 0
    counts = restrictions.RestrictionTables(dnf.evaluate()).full_depth_count
    subsets = [m for m in subsets_up_to(8, 4) if m and counts(m)]
    assert sorted(set(planned)) == subsets and len(subsets) == 98
    assert len(planned) == 319


def test_a_zero_degree_cut_sweeps_degree_0():
    # f = x1 at C = 1/10: floor(C * w * log2(3/eps)) = floor(0.458...) = 0,
    # so S = {} alone is analysed: one tail row, which keeps 1/4 of the
    # weight 1/2 outside, more than eps = 1/8, so no cutoff captures
    from dnf_fourier import experiments
    from dnf_fourier.dnf import Dnf

    config = ExperimentConfig.from_json(json.dumps({"instances": [], "C": "1/10"}))
    entry = experiments.sweep_instance(Dnf.from_term_literals(14, [[1]]), "x1", config)
    assert (entry["degree_cutoff"], entry["capture_u"]) == (0, None)
    assert entry["tail_table"] == [{"u_cutoff": 0, "weight_outside": "1/2^2",
                                    "weight_outside_approx": 0.25}]


_TRIBES22 = {"generator": {"family": "tribes", "params": {"w": 2, "t": 2}}}


@pytest.mark.parametrize("command", ["verify", "sweep"])
@pytest.mark.parametrize("eps", ["1e-400", "1/1" + "0" * 300], ids=["1e-400", "1/10^300"])
def test_a_tiny_eps_runs_and_writes_null_beyond_a_double(tmp_path, command, eps):
    # at eps = 10^-400 a bound of the sparsity group, one_norm^2 / eps, is
    # beyond a double's range: its *_approx field is null beside the exact
    # value, and the command exits 0. The sweep's label log2(3/eps) is
    # taken from the ints of 3/eps. At eps = 1/10^300 every value fits
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"instances": [_TRIBES22], "eps": eps}))
    out = tmp_path / "r.json"
    assert main([command, str(cfg), "--out", str(out)]) == 0
    (entry,) = json.loads(out.read_text())["instances"]
    if command == "verify":
        (row,) = [r for r in entry["checks"] if r["check"] == "sparsity_onenorm"]
        bound = Fraction(17, 8) ** 2 / Fraction(eps)
        assert (row["bound"], row["holds"]) == (str(bound), True)
        assert row["bound_approx"] == (None if eps == "1e-400" else float(bound))
    else:
        decimals = 400 if eps == "1e-400" else 300
        # 100 C w log2(k + 2) log2(3/eps), with w = 2 and k = 1
        expected = 100 * 2 * math.log2(3) * (math.log2(3) + decimals * math.log2(10))
        assert entry["u_star_formula"] == pytest.approx(expected)
        assert entry["report_only"]["tail_beyond_u_star"]["eps_over_3_approx"] == 0.0


#: A fresh interpreter's sweep of the config in argv[1]: its seconds, its
#: degree cut and its C_sweep cuts, as JSON.
_TIMED_CUTS = (
    "import json, sys, time\n"
    "from dnf_fourier import ExperimentConfig, run_concentration_sweep\n"
    "cfg = ExperimentConfig.from_json(sys.argv[1])\n"
    "start = time.perf_counter()\n"
    "(entry,) = run_concentration_sweep(cfg)['instances']\n"
    "cuts = [c['degree_cutoff'] for c in entry['degree_weight_sweep']]\n"
    "print(json.dumps([time.perf_counter() - start, entry['degree_cutoff'], cuts]))\n"
)


@pytest.mark.parametrize("key, value, cuts", [
    ("C", "1e300", (2, [4, 4, 4])),
    ("C_sweep", ["1e300"], (2, [4])),
], ids=["C", "C_sweep"])
def test_a_huge_C_sweeps_within_a_second(key, value, cuts):
    # C * w * log2(3/eps) at C = 10^300 is far above the cap (d_max 2 for
    # the degree cut, n = 4 for a C_sweep cut), which bit lengths show with
    # no power of 3/eps taken. In a fresh interpreter with a timeout, so
    # that a sweep that raises 3/eps to C's numerator fails, not hangs
    cfg = json.dumps({"instances": [_TRIBES22], "d_max": 2, key: value})
    seconds, *got = json.loads(_run_python(_TIMED_CUTS, cfg, timeout=60))
    assert tuple(got) == cuts
    assert seconds < 1


@pytest.mark.parametrize("c", ["1e400", "1e306"])
@pytest.mark.parametrize("u_star", [None, 3])
def test_a_C_whose_label_is_beyond_a_double_writes_null(tmp_path, c, u_star):
    # float(C) overflows at 10^400, and 100 C w log2(k + 2) log2(3/eps) at
    # 10^306: the label u_star_formula is null, as an *_approx field would
    # be, and with no u_star set there is no u* block, as for a width-0 DNF
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"instances": [_TRIBES22], "C": c, "u_star": u_star}))
    out = tmp_path / "r.json"
    assert main(["sweep", str(cfg), "--out", str(out)]) == 0
    (entry,) = json.loads(out.read_text())["instances"]
    assert (entry["C"], entry["u_star_formula"]) == (str(Fraction(c)), None)
    tail = entry["report_only"]["tail_beyond_u_star"]
    assert (tail and tail["u_star_floor"]) == u_star


_NEAR_ONE = f"{10**300 + 1}/{10**300}"


@pytest.mark.parametrize("key, value", [("C", _NEAR_ONE), ("C_sweep", [_NEAR_ONE])],
                         ids=["C", "C_sweep"])
def test_a_C_with_a_huge_numerator_and_denominator_sweeps_within_seconds(key, value):
    # C = (10^300 + 1)/10^300 on tribes(1,8): C * w * log2(3/eps) is just
    # above log2 24, below the cap n = 8, so bit lengths do not settle it,
    # and q^p for p = 10^300 + 1 never ends. Each cut is floor(C log2 24),
    # decided from enclosures of ln 24 / ln 2; the search of
    # test_enclosures.py would raise 24 to the same power, so the oracle
    # is mpmath at 4,000 bits
    import mpmath

    tribes18 = {"generator": {"family": "tribes", "params": {"w": 1, "t": 8}}}
    cfg = json.dumps({"instances": [tribes18], key: value})
    seconds, cut, cuts = json.loads(_run_python(_TIMED_CUTS, cfg, timeout=60))
    config = ExperimentConfig.from_json(cfg)
    with mpmath.workprec(4000):
        def oracle(c):
            return min(8, int(mpmath.floor(mpmath.mpf(c.numerator) / c.denominator
                                           * mpmath.log(24, 2))))
        assert (cut, cuts) == (oracle(config.c_param), [oracle(c) for c in config.c_sweep])
    assert (cut, cuts) == ((4, [4, 8, 8]) if key == "C" else (4, [4]))
    assert seconds < 10


def test_capture_u_is_the_first_u_whose_tail_is_at_most_eps():
    # tribes(2,2) at d_max 4 has the tails 63/2^8, 63/2^8, 9/2^8, 9/2^8, 0
    # at u = 0..4: at eps = 9/2^8, equal to the tail at u = 2, u = 2
    # captures; one unit (2^-9) lower, only u = 4 does
    for eps, capture_u in ((Fraction(9, 256), 2), (Fraction(17, 512), 4)):
        cfg = ExperimentConfig(instances=(_tribes_source(2, 2),), eps=eps, d_max=4)
        (entry,) = run_concentration_sweep(cfg)["instances"]
        assert [row["weight_outside"] for row in entry["tail_table"]] == [
            "63/2^8", "63/2^8", "9/2^8", "9/2^8", "0"]
        assert entry["capture_u"] == capture_u, eps


def test_the_tail_beyond_u_star_holds_at_eps_over_3():
    # beyond the config's u* = 3 lies the family weight 9/2^8 at u = 4 of
    # tribes(2,2): it holds at eps = 27/2^8, where it equals eps/3, and
    # fails one unit (2^-9) lower
    for eps, holds in ((Fraction(27, 256), True), (Fraction(53, 512), False)):
        cfg = ExperimentConfig(instances=(_tribes_source(2, 2),), eps=eps, d_max=4, u_star=3)
        (entry,) = run_concentration_sweep(cfg)["instances"]
        beyond = entry["report_only"]["tail_beyond_u_star"]
        assert (beyond["u_star_floor"], beyond["family_weight_beyond"],
                beyond["would_hold"]) == (3, "9/2^8", holds), eps
