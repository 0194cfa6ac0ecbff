"""Correctness checks on a `verify` or `sweep` report, made apart from the program.

Nothing here imports `dnf_fourier`. The truth table is built by fixing
tensor axes, the spectrum comes
from a plain Walsh-Hadamard transform, and cover counts use
inclusion-exclusion instead of the program's enumeration. Both checks
return a list of problems; an empty list means the report is right.
"""
from __future__ import annotations

import random
from fractions import Fraction
from math import ceil, comb, floor, log2

import numpy as np

#: read_cover_chain rows re-counted per report (all rows when fewer).
COVER_SAMPLES = 64


def parse_exact(text: str) -> Fraction:
    """The report's exact numbers: "a", "a/b" or "a/2^e"."""
    if "/2^" in text:
        num, e = text.split("/2^")
        return Fraction(int(num), 1 << int(e))
    return Fraction(text)


def truth_table(n: int, terms: list[list[int]]) -> np.ndarray:
    """f(x) for x in [0, 2^n) as bools. Bit v-1 of x is variable v, which is
    tensor axis n-v; a term marks the sub-cube that fixes its variables."""
    cube = np.zeros((2,) * n, dtype=bool)
    for term in terms:
        index = [slice(None)] * n
        for lit in term:
            index[n - abs(lit)] = 1 if lit > 0 else 0
        cube[tuple(index)] = True
    return cube.reshape(-1)


def walsh_hadamard(table: np.ndarray, n: int) -> np.ndarray:
    """2^n * fhat(S) for every mask S: sum over x of f(x) * (-1)^|S & x|."""
    a = table.astype(np.int64)
    for b in range(n):
        pair = a.reshape(-1, 2, 1 << b)  # [:, 0] has bit b clear, [:, 1] set
        low = pair[:, 0, :].copy()
        pair[:, 0, :] += pair[:, 1, :]
        pair[:, 1, :] = low - pair[:, 1, :]
    return a


def popcounts(n: int) -> np.ndarray:
    """|S| for every mask S: the masks with bit b set follow those without."""
    out = np.zeros(1, dtype=np.int8)
    for _ in range(n):
        out = np.concatenate((out, out + 1))
    return out


def min_coeffs(scaled: np.ndarray, n: int, eps: Fraction) -> int:
    """Fewest coefficients whose squares leave at most eps of the weight out."""
    squares = np.sort(scaled * scaled)[::-1]
    prefix = np.cumsum(squares)
    must_keep = Fraction(int(prefix[-1])) - eps * (1 << (2 * n))
    if must_keep <= 0:
        return 0
    return int(np.searchsorted(prefix, ceil(must_keep), side="left")) + 1


def term_masks(terms: list[list[int]]) -> list[int]:
    return [sum(1 << (abs(v) - 1) for v in t) for t in terms]


def cover_count(masks: list[int], s_mask: int) -> int:
    """Sets of at most |S| terms, each meeting S, whose union contains S,
    by inclusion-exclusion over the part U of S left uncovered."""
    d = s_mask.bit_count()
    meeting = [m for m in masks if m & s_mask]
    total = 0
    u = s_mask
    while True:
        avoid = sum(1 for m in meeting if not m & u)
        sign = -1 if u.bit_count() % 2 else 1
        total += sign * sum(comb(avoid, i) for i in range(d + 1))
        if u == 0:
            return total
        u = (u - 1) & s_mask


def expected_d_max(mode: str, n: int, width: int, config_d_max: int,
                   eps: Fraction) -> int:
    """The depth the program must analyse: the config's d_max capped by n
    and the decision-tree cap 12; `sweep` also caps it by
    floor(width * log2(3 / eps)) (the degree cut-off at C = 1)."""
    d = min(config_d_max, n, 12)
    if mode == "sweep" and width:
        d = min(d, floor(width * log2(3 / eps)))
    return d


def verdict_errors(report: dict | None, exit_code: int, mode: str) -> list[str]:
    """The program's own verdict: exit 0, `summary.ok`, no failed row."""
    errors = [f"exit code {exit_code}"] if exit_code != 0 else []
    if report is None:
        return errors + ["no report written"]
    if mode == "verify" and not report["summary"]["ok"]:
        errors.append("summary.ok is false")
    failed = {r["check"] for inst in report["instances"] for r in inst.get("checks", [])
              if not r["holds"] and not r.get("report_only")}
    if failed:
        errors.append(f"failed rows: {sorted(failed)}")
    return errors


def recompute_errors(report: dict, mode: str, n: int, terms: list[list[int]],
                     config_d_max: int, eps: Fraction, seed: int) -> list[str]:
    """Disagreements between a one-instance report and independent
    recomputations from the instance; `seed` picks the sampled subsets."""
    errors: list[str] = []

    def expect(what: str, got, want) -> None:
        if got != want:
            errors.append(f"{what}: report {got}, expected {want}")

    inst = report["instances"][0]
    table = truth_table(n, terms)
    scaled = walsh_hadamard(table, n)
    sizes = popcounts(n)
    pr_true = Fraction(int(table.sum()), 1 << n)
    weight = Fraction(int(np.dot(scaled, scaled)), 1 << (2 * n))
    masks = term_masks(terms)
    reads = [sum(1 for m in masks if m >> b & 1) for b in range(n)]
    width = max((len(t) for t in terms), default=0)
    expect("metrics", inst["metrics"],
           {"size": len(terms), "width": width, "read": max(reads, default=0)})
    d_max = expected_d_max(mode, n, width, config_d_max, eps)
    expect("d_max", inst["d_max" if mode == "verify" else "degree_cutoff"], d_max)
    fourier = inst["fourier"] if mode == "verify" else inst
    if mode == "verify":
        expect("pr_true", parse_exact(inst["pr_true"]), pr_true)
        nonzero = np.nonzero(scaled)[0]
        expect("fourier.degree", fourier["degree"],
               int(sizes[nonzero].max()) if nonzero.size else 0)
    expect("total_weight", parse_exact(fourier["total_weight"]), weight)
    expect("Parseval (total_weight = Pr[f])", weight, pr_true)
    expect("one_norm", parse_exact(fourier["one_norm"]),
           Fraction(int(np.abs(scaled).sum()), 1 << n))
    expect("min_coeffs", inst["min_coeffs"], min_coeffs(scaled, n, eps))

    rows = inst.get("checks", [])
    cube = table.reshape((2,) * n)
    # full-depth pairs per S with |S| <= 1: every assignment for S = {},
    # and for S = {i} the assignment pairs {x, x ^ e_i} on which f differs
    pairs = {0: 1 << n}
    for b in range(n):
        pairs[1 << b] = int(np.count_nonzero(
            np.take(cube, 0, axis=n - 1 - b) != np.take(cube, 1, axis=n - 1 - b)))
    for r in rows:
        if r["check"] == "evasive":
            s = r["context"]["S_mask"]
            expect(f"evasive |fhat({s:#x})|", parse_exact(r["lhs"]),
                   Fraction(abs(int(scaled[s])), 1 << n))
            if s in pairs:
                expect(f"evasive full-depth share at S={s:#x}", parse_exact(r["bound"]),
                       Fraction(pairs[s], 1 << (n - s.bit_count())))
        elif r["check"] == "pair_count_binom" and r["context"]["d"] <= 1:
            d = r["context"]["d"]
            want = sum(c for s, c in pairs.items() if s.bit_count() == d)
            expect(f"full-depth pairs at |S|={d}", int(r["lhs"]), want)

    chain = [r for r in rows if r["check"] == "read_cover_chain"]
    for r in random.Random(seed).sample(chain, min(COVER_SAMPLES, len(chain))):
        s = r["context"]["S_mask"]
        expect(f"covers of S={s:#x}", int(r["lhs"]), cover_count(masks, s))

    tail = [parse_exact(t["weight_outside"]) for t in inst.get("tail_table", [])]
    if tail:
        if any(b > a for a, b in zip(tail, tail[1:])):
            errors.append("tail_table increases with u_cutoff")
        low = scaled[sizes <= d_max]
        expect("tail at the top cutoff", tail[-1],
               weight - Fraction(int(np.dot(low, low)), 1 << (2 * n)))
    return errors
