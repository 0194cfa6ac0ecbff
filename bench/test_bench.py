"""The benchmark's own checks, on a tiny instance so that they take seconds."""
import json
from fractions import Fraction

import check
import run
import spans

TINY = "n=7\n1 2 -3\n-2 4\n3 5 6\n-1 7\n4 -6\n"


def _workload(tmp_path, mode, config):
    path = tmp_path / "tiny.dnf"
    path.write_text(TINY)
    return run.Workload("tiny", mode, path, config)


def test_verify_run_is_correct(tmp_path):
    workload = _workload(tmp_path, "verify", {"d_max": 3, "checks": "all"})
    result = run.run(workload, seed=0, seconds=0, trace=False, work=tmp_path)
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 1, 0)
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_sweep_on_another_seed(tmp_path):
    workload = _workload(tmp_path, "sweep", {"d_max": 3})
    result = run.run(workload, seed=7, seconds=0, trace=True, work=tmp_path)
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 2, 0)
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert set(values) == set(spans.METRICS)
    assert values["encoder.encodes_per_pair"] == 1.0
    self_times = sum(values[f"{layer}_s"] for layer in spans.LAYERS) + values["cli.self_s"]
    assert abs(self_times - values["trace.wall_s"]) < 1e-6


def test_checker_catches_one_altered_coefficient(tmp_path):
    workload = _workload(tmp_path, "verify", {"d_max": 3, "checks": "all"})
    n, terms = run.prepare(workload, 0, tmp_path)
    run.run_op(workload, n, terms, tmp_path, seed=0, traced=False)
    report = json.loads((tmp_path / "plain.report.json").read_text())
    args = ("verify", n, terms, 3, Fraction(1, 8), 0)
    assert check.recompute_errors(report, *args) == []
    row = next(r for r in report["instances"][0]["checks"]
               if r["check"] == "evasive" and r["lhs"] != "0")
    row["lhs"] = str(check.parse_exact(row["lhs"]) + Fraction(1, 1 << n))
    assert any("evasive" in e for e in check.recompute_errors(report, *args))


def test_seeds_change_the_input_but_not_its_truth_table_weight():
    base = run.seeded_instance(TINY, 0)
    assert run.write_dnf(*base) == TINY
    other = run.seeded_instance(TINY, 5)
    assert other == run.seeded_instance(TINY, 5) != base
    ones = [int(check.truth_table(*inst).sum()) for inst in (base, other)]
    assert ones[0] == ones[1]
