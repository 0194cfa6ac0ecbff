"""Experiment runner: report content, determinism, CLI exit codes."""
import json
from fractions import Fraction

import pytest

from dnf_fourier import (
    DyadicRational,
    ExperimentConfig,
    GeneratorSpec,
    InstanceSource,
    fourier_transform,
    run_concentration_sweep,
    run_verify,
    tribes,
)
from dnf_fourier.bitops import subsets_up_to
from dnf_fourier.cli import main
from dnf_fourier.encoder import DecodeError, EncodePreconditionError, EncodingInvariantError
from dnf_fourier.experiments import ConfigError, family_csv, render_json, rows_jsonl


def _tribes_source(w, t):
    return InstanceSource("generator", spec=GeneratorSpec("tribes", {"w": w, "t": t}))


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
    r1 = render_json(run_verify(cfg1))
    r8 = render_json(run_verify(cfg8))
    assert r1 == r8
    s1 = render_json(run_concentration_sweep(cfg1))
    s8 = render_json(run_concentration_sweep(cfg8))
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


def test_cli_verify_exit_one_on_failed_check(tmp_path, monkeypatch):
    # the inequalities are theorems, so a genuine instance cannot fail them;
    # exercise the exit wiring with a stubbed failing report
    import dnf_fourier.cli as cli

    failing = {
        "mode": "verify",
        "config": {},
        "instances": [],
        "summary": {"instances": 0, "checks": 1, "failures": 1, "ok": False},
    }
    monkeypatch.setattr(cli, "run_verify", lambda config: failing)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"instances": []}))
    assert cli.main(["verify", str(cfg_path), "--out", str(tmp_path / "r.json")]) == 1


@pytest.mark.parametrize("target, error", [
    ("decode", DecodeError),
    ("encode", EncodePreconditionError),
    ("encode", EncodingInvariantError),
])
def test_cli_verify_reports_codec_fault_as_failed_roundtrip(tmp_path, monkeypatch,
                                                            target, error):
    import dnf_fourier.experiments as experiments

    def broken(*args, **kwargs):
        raise error("injected fault")

    monkeypatch.setattr(experiments, target, broken)
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
    assert sorted(counted) == subsets_up_to(6, 4)


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


def test_render_helpers_deterministic():
    cfg = ExperimentConfig(instances=(_tribes_source(2, 2),))
    report = run_verify(cfg)
    assert render_json(report) == render_json(run_verify(cfg))
    inst = report["instances"][0]
    assert family_csv(inst) == family_csv(run_verify(cfg)["instances"][0])
    assert rows_jsonl(report) == rows_jsonl(run_verify(cfg))
