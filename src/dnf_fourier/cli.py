"""Command-line interface.

Subcommands:

  gen          emit a generated DNF in the text format
  spectrum     print the exact Fourier spectrum of a DNF file as JSON
  verify       run the exact check battery from a JSON config
  sweep        run the concentration measurements from a JSON config
  encdec-test  verify's family analysis and batched round trip on one DNF file
  covers       cover counts and read-based bounds for one subset

Exit codes: 0 success, 1 a verified inequality failed, 2 usage or cap errors.
A verify or sweep report is written as it is made; with ``--out PATH`` it
goes to ``PATH.partial``, which takes the path when the run ends, so a run
that raises leaves the path as it was.  So does ``--rows-jsonl``.
A verify or sweep instance that cannot be loaded is an error entry in the
report, which is still written, and the exit code is 2.  An encoder fault
is a failure (exit 1): a failed roundtrip row in verify, a fault entry in
sweep; the report is still written.  In encdec-test it is a
``ROUNDTRIP FAILED at S=..., x=...`` line naming the first failing pair,
and a ``--corpus-out`` path is left as it was: the corpus is written to
``PATH.partial`` as the pass goes and renamed over the path only if the
round trip holds.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys

from .bitops import vars_to_mask
from .boolfn import fourier_transform
from .covers import FamilyAnalysis, cover_counts_by_union, read_cover_count_bound
from .dnf import load_dnf
from .encoder import EncodePreconditionError, EncodingInvariantError, encoding_json
from .experiments import (
    ExperimentConfig,
    RoundTrip,
    render_json,  # no caller here, but bench/spans.py wraps this name
    run_concentration_sweep,  # no caller here either, and bench/spans.py wraps it too
    run_verify,  # the same
    write_report,
)
from .generators import FAMILIES, GeneratorSpec
from .restrictions import DT_CAP, RestrictionTables

USAGE_ERROR = 2
CHECK_FAILURE = 1


def _write(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


@contextlib.contextmanager
def _in_place(path: str):
    """A file at ``PATH.partial`` that is renamed over ``path`` when the
    block ends; if the block raises, it is removed and ``path`` is left as
    it was."""
    partial = f"{path}.partial"
    try:
        with open(partial, "w", encoding="utf-8") as fh:
            yield fh
    except BaseException:
        if os.path.exists(partial):
            os.remove(partial)
        raise
    os.replace(partial, path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="dnf-fourier", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a DNF instance")
    p.add_argument("family", choices=list(FAMILIES))
    p.add_argument("--seed", type=int, default=0)
    takers = {}   # each param of a family, with the families that take it
    for name, family in FAMILIES.items():
        for param in (*family.ints, *family.bools):
            takers.setdefault(param, []).append(name)
    for param, names in takers.items():
        kind = {"action": "store_true"} if param in FAMILIES[names[0]].bools else {"type": int}
        p.add_argument(f"--{param.replace('_', '-')}", default=None,
                       help=f"param of {', '.join(names)}", **kind)
    p.set_defaults(params=tuple(takers))
    p.add_argument("--out", help="output path (default: stdout)")

    p = sub.add_parser("spectrum", help="exact Fourier spectrum of a DNF file")
    p.add_argument("dnf_file")
    p.add_argument("--out")

    p = sub.add_parser("verify", help="run the exact check battery")
    p.add_argument("config", help="JSON config file")
    p.add_argument("--out", help="report JSON path (default: stdout)")
    p.add_argument("--csv-dir", help="write per-instance family CSVs here")
    p.add_argument("--rows-jsonl", help="stream per-check rows to this path")
    p.add_argument("--workers", type=int, help="override worker count")

    p = sub.add_parser("sweep", help="concentration measurements")
    p.add_argument("config")
    p.add_argument("--out")
    p.add_argument("--csv-dir", help="write per-instance tail-weight CSVs here")
    p.add_argument("--workers", type=int)

    p = sub.add_parser("encdec-test", help="exhaustive round-trip test")
    p.add_argument("dnf_file")
    p.add_argument("--d-max", type=int, default=4)
    p.add_argument("--corpus-out", help="write round-trip cases as JSON lines")

    p = sub.add_parser("covers", help="cover counts for one subset")
    p.add_argument("dnf_file")
    p.add_argument("--set", required=True,
                   help="subset: mask integer or comma-separated variables")

    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except (ValueError, OSError) as exc:   # every input error of the package is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def _dispatch(args) -> int:
    if args.command == "gen":
        family = FAMILIES[args.family]
        given = {k: getattr(args, k) for k in args.params if getattr(args, k) is not None}
        takes = family.ints + family.bools
        foreign = [f"--{k.replace('_', '-')}" for k in given if k not in takes]
        if foreign:   # a config rejects such a param too
            raise ValueError(f"gen {args.family} takes no {', '.join(foreign)}")
        spec = GeneratorSpec(args.family, {**dict.fromkeys(family.bools, False), **given},
                             args.seed)
        _write(f"# {spec.label()}\n" + spec.build().to_text(), args.out)
        return 0

    if args.command == "spectrum":
        dnf = load_dnf(args.dnf_file)
        spec = fourier_transform(dnf.evaluate())
        _write(spec.to_json() + "\n", args.out)
        return 0

    if args.command in ("verify", "sweep"):
        config = _load_config(args)
        if args.csv_dir:
            os.makedirs(args.csv_dir, exist_ok=True)
        rows = getattr(args, "rows_jsonl", None)
        with (_in_place(args.out) if args.out else contextlib.nullcontext(sys.stdout)) as out, \
                (_in_place(rows) if rows else contextlib.nullcontext()) as jsonl:
            facts = write_report(args.command, config, out, jsonl, args.csv_dir)
        # a failure is a failed check (verify) or a fault (sweep)
        for fact in facts:
            if fact.fault is not None:
                print(f"fault: {fact.label}: {fact.fault}", file=sys.stderr)
        errors = [fact for fact in facts if fact.error is not None]
        for fact in errors:
            print(f"error: {fact.label}: {fact.error}", file=sys.stderr)
        if errors:
            return USAGE_ERROR
        return CHECK_FAILURE if any(fact.failures for fact in facts) else 0

    if args.command == "encdec-test":
        if not 0 <= args.d_max <= DT_CAP:
            raise ValueError(f"--d-max={args.d_max} outside [0, {DT_CAP}]")
        dnf = load_dnf(args.dnf_file)
        if not args.corpus_out:
            return _encdec(dnf, args.d_max)
        # the corpus is written as the pass goes, next to its path, and
        # takes the path only if the round trip holds
        partial, status = f"{args.corpus_out}.partial", CHECK_FAILURE
        try:
            with open(partial, "w", encoding="utf-8") as fh:
                status = _encdec(dnf, args.d_max, _corpus_writer(fh, args.dnf_file))
        finally:
            if status == 0:
                os.replace(partial, args.corpus_out)
            elif os.path.exists(partial):
                os.remove(partial)
        return status

    if args.command == "covers":
        dnf = load_dnf(args.dnf_file)
        s_mask = _parse_set(args.set, dnf.n)
        counts = cover_counts_by_union(dnf, s_mask)
        r = read_cover_count_bound(dnf, s_mask, counts)
        print(f"S mask {s_mask:#x}, |S| = {s_mask.bit_count()}")
        for u in sorted(counts):
            print(f"  union size {u}: {counts[u]} covers")
        print(f"total covers: {r.lhs}")
        print(f"read-based bound: {r.bound} (holds: {r.holds})")
        return 0

    raise AssertionError(f"unhandled command {args.command}")


def _encdec(dnf, d_max: int, write=None) -> int:
    """Run the family analysis with the round trip, and ``write`` after it,
    as the consumers of each subset's encodings; print the verdict and
    return the exit code."""
    roundtrip = RoundTrip(dnf)

    def consume(s_mask, xsbars, record):
        roundtrip(s_mask, xsbars, record)
        if write is not None:
            write(s_mask, xsbars, record)

    f = dnf.evaluate()
    try:
        FamilyAnalysis(dnf, d_max, RestrictionTables(f), fourier_transform(f), consume)
    except (EncodePreconditionError, EncodingInvariantError) as exc:
        # the analysis names the pair: "at S=..., x=...: ..."
        print(f"ROUNDTRIP FAILED {exc} ({type(exc).__name__})")
        return CHECK_FAILURE
    pairs, failure = roundtrip.result()
    if failure is not None:
        print("ROUNDTRIP FAILED at S={}, x={}: {}".format(*failure))
        return CHECK_FAILURE
    print(f"roundtrip ok on {pairs} full-depth pairs (|S| <= {d_max})")
    return 0


def _corpus_writer(fh, dnf_ref: str):
    """A consumer that writes a line per pair of each subset, in
    ``valid_pairs`` order, from the record arrays."""
    def write(s_mask, xsbars, record):
        for xsbar, x_sat, sigma, a in zip(xsbars.tolist(), record.x_sat.tolist(),
                                          record.sigma.tolist(), record.a.tolist()):
            case = {"dnf_ref": dnf_ref, "S_mask": s_mask, "xsbar_mask": xsbar,
                    "encoding": encoding_json(x_sat, sigma, a)}
            fh.write(json.dumps(case, sort_keys=True) + "\n")
    return write


def _load_config(args) -> ExperimentConfig:
    with open(args.config, "r", encoding="utf-8") as fh:
        config = ExperimentConfig.from_json(fh.read())
    if args.workers is not None:
        # through the constructor, so the override is validated and clamped
        config = dataclasses.replace(config, workers=args.workers)
    return config


def _parse_set(text: str, n: int) -> int:
    """The subset mask that ``--set`` names; a variable beyond n is
    rejected before any bit is built for it."""
    if "," in text:
        variables = [int(v) for v in text.split(",")]
        if max(variables) <= n:
            return vars_to_mask(variables)
    else:
        mask = int(text, 0)
        if mask < 0:
            raise ValueError("subset mask must be nonnegative")
        if not mask >> n:
            return mask
    raise ValueError(f"--set {text} names a variable beyond n={n}")


if __name__ == "__main__":
    raise SystemExit(main())
