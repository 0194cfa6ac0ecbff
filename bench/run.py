"""Benchmark of `dnf-fourier verify` and `sweep`, run from the repository root:

    python3 bench/run.py --workload verify-readk16 --seed 0 --seconds 10 --trace 0

An operation verifies or sweeps one instance in a fresh process with one
worker, making the calls of `dnf-fourier verify|sweep CONFIG --out REPORT`
(see child.py). Operations repeat until --seconds have passed, at least
once. Every report is checked against the program's own verdict and
against recomputations made apart from the program (see check.py).

--trace 0 reports the end-to-end metrics: medians over the operations of
wall_s (launch until the report is written), cpu_s (user plus system time
of the process), peak_rss_mb, and setup_s (launch until the first
`Dnf.evaluate`), the last from set-up-only processes started before the
operations. --trace 1 runs each operation untraced and then traced, and
reports the per-layer metrics of spans.py plus trace.overhead_s, the
traced wall time minus the untraced one.

The instance is the workload's file in bench/instances/. Seed 0 uses it
as it is; any other seed relabels the variables, flips the sign of some
of them and reorders the terms. That changes the input but not the work,
so runs with different seeds are comparable. The last line of output is
one JSON object: correct, attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import check
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

#: Set-up-only processes per untraced run; setup_s is their median.
SETUP_SAMPLES = 5
#: An operation still running after this long is killed and counted failed.
OP_TIMEOUT_S = 150

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str                      # "verify" or "sweep"
    instance: Path
    config: dict = field(default_factory=dict)

    @property
    def d_max(self) -> int:
        return self.config["d_max"]

    @property
    def eps(self) -> Fraction:
        return Fraction(self.config.get("eps", "1/8"))


_N23_CHECKS = ["spectral_basics", "sparsity", "truncation", "approx_transfer",
               "satisfied_mass"]
WORKLOADS = {w.name: w for w in (
    Workload("verify-readk16", "verify", BENCH / "instances/readk16.dnf",
             {"d_max": 4, "checks": "all"}),
    Workload("sweep-readk16", "sweep", BENCH / "instances/readk16.dnf", {"d_max": 4}),
    Workload("verify-dense12", "verify", BENCH / "instances/dense12.dnf",
             {"d_max": 4, "checks": "all"}),
    Workload("spectral-n23", "verify", BENCH / "instances/n23.dnf",
             {"d_max": 0, "eps": "1/64", "checks": _N23_CHECKS}),
)}


def read_dnf(text: str) -> tuple[int, list[list[int]]]:
    """(n, terms as signed-literal lists) from the DNF text format."""
    n = None
    terms = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if n is None:
            n = int(line.removeprefix("n="))
        else:
            lits = [int(tok) for tok in line.split()]
            terms.append([] if lits == [0] else lits)
    return n, terms


def write_dnf(n: int, terms: list[list[int]]) -> str:
    lines = [f"n={n}"]
    lines += [" ".join(str(v) for v in sorted(t, key=abs)) if t else "0" for t in terms]
    return "\n".join(lines) + "\n"


def seeded_instance(text: str, seed: int) -> tuple[int, list[list[int]]]:
    """The instance for a seed: the file itself for seed 0, otherwise a
    relabelling of the variables, sign flips and a new term order."""
    n, terms = read_dnf(text)
    if seed == 0:
        return n, terms
    rng = random.Random(seed)
    label = list(range(1, n + 1))
    rng.shuffle(label)
    sign = [rng.choice((1, -1)) for _ in range(n)]
    terms = [[label[abs(v) - 1] * sign[abs(v) - 1] * (1 if v > 0 else -1) for v in t]
             for t in terms]
    rng.shuffle(terms)
    return n, terms


def _launch(cmd: list[str], log_path: Path) -> tuple[float, int, object]:
    """Start cmd with src/ on the import path and wait for it, returning
    (launch time, exit code, resource usage of that process)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    with open(log_path, "ab") as log:
        t0 = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(BENCH / "child.py"), repr(t0), *cmd],
                                env=env, stdout=log, stderr=subprocess.STDOUT)
        deadline = t0 + OP_TIMEOUT_S
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > deadline:
                    proc.kill()
                    pid, status, usage = os.wait4(proc.pid, 0)
                    break
                time.sleep(0.01)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return t0, proc.returncode, usage


def _read_json(path: Path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def measure_setup(workload: Workload, work: Path) -> float:
    """Launch until the first Dnf.evaluate, in a process that stops there."""
    timing = work / "setup.timing.json"
    t0, rc, _ = _launch([str(timing), workload.mode, str(work / "config.json"),
                         str(work / "setup.report.json"), "--setup-only"],
                        work / "child.log")
    result = _read_json(timing)
    if rc != 0 or result is None or "t_setup" not in result:
        raise RuntimeError(f"set-up process failed (exit {rc}); see {work / 'child.log'}")
    return result["t_setup"] - t0


def run_op(workload: Workload, n: int, terms: list[list[int]], work: Path,
           seed: int, traced: bool) -> dict:
    """One operation and its checks."""
    tag = "traced" if traced else "plain"
    timing, report, spans_path = (work / f"{tag}.timing.json", work / f"{tag}.report.json",
                                  work / f"{tag}.spans.npz")
    for path in (timing, report, spans_path):
        path.unlink(missing_ok=True)
    args = [str(timing), workload.mode, str(work / "config.json"), str(report)]
    if traced:
        args += ["--trace", str(spans_path)]
    t0, rc, usage = _launch(args, work / "child.log")
    times = _read_json(timing) or {}
    body = _read_json(report)
    verdict = check.verdict_errors(body, rc, workload.mode)
    wrong = [] if body is None else check.recompute_errors(
        body, workload.mode, n, terms, workload.d_max, workload.eps, seed)
    op = {
        "traced": traced,
        "ok": not verdict and not wrong,
        "wrong": wrong,
        "errors": verdict + wrong,
        "wall_s": times.get("t_done", time.monotonic()) - t0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024,
    }
    if traced and spans_path.exists():
        op["layers"] = spans.layer_metrics(str(spans_path))
    return op


def prepare(workload: Workload, seed: int, work: Path) -> tuple[int, list[list[int]]]:
    """Write the seed's instance and the config into work; return the instance."""
    n, terms = seeded_instance(workload.instance.read_text(encoding="utf-8"), seed)
    instance = work / "instance.dnf"
    instance.write_text(write_dnf(n, terms), encoding="utf-8")
    config = {"instances": [{"file": str(instance)}], "workers": 1, **workload.config}
    (work / "config.json").write_text(json.dumps(config), encoding="utf-8")
    return n, terms


def run(workload: Workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    n, terms = prepare(workload, seed, work)
    setups = [] if trace else [measure_setup(workload, work) for _ in range(SETUP_SAMPLES)]
    plain, traced = [], []
    start = time.monotonic()
    while not plain or time.monotonic() - start < seconds:
        plain.append(run_op(workload, n, terms, work, seed, traced=False))
        if trace:
            traced.append(run_op(workload, n, terms, work, seed, traced=True))
    ops = plain + traced
    for i, op in enumerate(ops):
        state = "ok" if op["ok"] else "FAILED: " + "; ".join(op["errors"])
        tag = " (traced)" if op["traced"] else ""
        print(f"{workload.name} seed {seed} op {i}{tag}: wall {op['wall_s']:.3f} s, "
              f"cpu {op['cpu_s']:.3f} s, peak {op['peak_rss_mb']:.1f} MB, {state}")

    def median(key, rows):
        return statistics.median(r[key] for r in rows)

    if trace:
        layered = [op["layers"] for op in traced if "layers" in op]
        values = {name: median(name, layered) if layered else 0.0
                  for name in spans.METRICS if name != "trace.overhead_s"}
        values["trace.overhead_s"] = values["trace.wall_s"] - median("wall_s", plain)
        units = spans.METRICS
    else:
        values = {name: median(name, plain) for name in ("wall_s", "cpu_s", "peak_rss_mb")}
        values["setup_s"] = statistics.median(setups)
        units = END_TO_END
    return {
        "correct": not any(op["wrong"] for op in ops),
        "attempted": len(ops),
        "failed": sum(1 for op in ops if not op["ok"]),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "dnf_fourier" / "cli.py").is_file():
        print(f"error: the program's sources are missing under {SRC}", file=sys.stderr)
        return 2
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out))
    try:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
                     work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
