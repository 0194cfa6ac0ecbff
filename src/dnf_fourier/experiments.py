"""Batch verification and concentration measurements over DNF instances.

``run_verify`` executes the full battery of exact inequality checks on each
configured instance and collects one report; any failed asserted check makes
the report (and the CLI) signal failure.  An instance that cannot be
loaded or built is an ``error`` entry with no rows, in a verify or a sweep,
and the other instances still run.  An encoder fault is a failed
``roundtrip`` row in a verify and a ``fault`` entry in a sweep, and the
other instances still run too.  ``run_concentration_sweep`` measures
spectral sparsity and how much weight small-union-size families capture, without
asserting theorem-level claims whose hypotheses do not hold at desk scale
(those are emitted as report-only rows).

Reports are pure functions of the configuration and instance content:
worker counts and output paths never appear in a report body, results are
reduced in instance order, and exact rationals are printed as num/2^e
strings, so reruns are byte-identical regardless of parallelism.
"""
from __future__ import annotations

import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import TextIO

import numpy as np

from .bitops import pdep_array, subsets_up_to
from .boolfn import (
    BooleanFunction,
    CapExceededError,
    fourier_transform,
    hamming_distance_fraction,
    min_coeffs_for_eps,
    ranked_masks,
    walsh_butterfly,
    weight_above_degree,
    weight_outside_masks,
)
from .covers import (
    BudgetPreconditionError,
    FamilyAnalysis,
    budget_lemma_bound,
    check_abs_fourier_u,
    check_onenorm_u,
    check_twonorm_u,
    exact_width_cover_bound,
    family_cauchy_check,
    family_onenorm_count_check,
    onenorm_count_check,
    onenorm_width_binom_check,
    pair_count_binom_check,
    read_cover_count_bound,
    st_inequality_check,
)
from .dnf import Dnf, ParseError, load_dnf
from .dyadic import DyadicRational
from .enclosures import floor_scaled_log2
from .encoder import (
    DECODE_ERRORS,
    DecodeError,
    EncodePreconditionError,
    EncodingInvariantError,
    decode,  # no caller here, but bench/spans.py wraps this name
    decode_records,
    encode,  # no caller here either, and bench/spans.py wraps it too
)
from .generators import GenerationError, GeneratorSpec
from .restrictions import (
    DT_CAP,
    RestrictionTables,
    cover_probability_check,
    evasive_bound_check,
    satisfied_union_table,
)


class ConfigError(ValueError):
    """Malformed experiment configuration."""


ALL_CHECKS = (
    "spectral_basics",
    "sparsity",
    "truncation",
    "approx_transfer",
    "evasive",
    "cover_probability",
    "degree_counts",
    "families",
    "read_chain",
    "exact_width_chain",
    "satisfied_mass",
    "cover_budget",
    "roundtrip",
)


@dataclass(frozen=True, slots=True)
class InstanceSource:
    """Where an instance comes from: a DNF file or a generator spec."""

    kind: str  # "file" | "generator"
    path: str | None = None
    spec: GeneratorSpec | None = None

    @property
    def label(self) -> str:
        return self.path if self.kind == "file" else self.spec.label()

    def load(self) -> Dnf:
        return load_dnf(self.path) if self.kind == "file" else self.spec.build()

    def to_dict(self) -> dict:
        if self.kind == "file":
            return {"file": self.path}
        return {
            "generator": {
                "family": self.spec.family,
                "params": self.spec.params,
                "seed": self.spec.seed,
            }
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "InstanceSource":
        if "file" in obj:
            return cls("file", path=str(obj["file"]))
        if "generator" in obj:
            return cls("generator", spec=GeneratorSpec.from_dict(obj["generator"]))
        raise ConfigError(f"instance source needs 'file' or 'generator': {obj}")


@dataclass(slots=True)
class ExperimentConfig:
    instances: tuple[InstanceSource, ...]
    eps: Fraction = Fraction(1, 8)
    c_param: Fraction = Fraction(1)
    c_sweep: tuple[Fraction, ...] = (Fraction(1), Fraction(2), Fraction(4))
    d_max: int | None = None
    u_star: int | None = None
    checks: tuple[str, ...] = ALL_CHECKS
    workers: int = 1

    def __post_init__(self):
        if not 0 < self.eps <= 1:
            raise ConfigError(f"eps={self.eps} outside (0, 1]")
        if self.c_param <= 0:
            raise ConfigError("C must be positive")
        if self.d_max is not None and self.d_max > DT_CAP:
            raise ConfigError(f"d_max={self.d_max} exceeds decision-tree cap {DT_CAP}")
        if self.d_max is not None and self.d_max < 0:
            raise ConfigError(f"d_max={self.d_max} must be >= 0")
        if self.u_star is not None and self.u_star < 0:
            raise ConfigError(f"u_star={self.u_star} must be >= 0")
        unknown = set(self.checks) - set(ALL_CHECKS)
        if unknown:
            raise ConfigError(f"unknown checks: {sorted(unknown)}")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        # more workers than instances or CPUs would only sit idle
        self.workers = max(1, min(self.workers, len(self.instances), os.cpu_count() or 1))

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"bad config JSON: {exc}") from exc
        try:
            instances = tuple(
                InstanceSource.from_dict(s) for s in obj["instances"]
            )
        except KeyError as exc:
            raise ConfigError("config needs an 'instances' list") from exc
        kwargs = {}
        if "eps" in obj:
            kwargs["eps"] = Fraction(obj["eps"])
        if "C" in obj:
            kwargs["c_param"] = Fraction(obj["C"])
        if "C_sweep" in obj:
            kwargs["c_sweep"] = tuple(Fraction(c) for c in obj["C_sweep"])
        if obj.get("d_max") is not None:
            kwargs["d_max"] = int(obj["d_max"])
        if obj.get("u_star") is not None:
            kwargs["u_star"] = int(obj["u_star"])
        if "checks" in obj:
            checks = obj["checks"]
            kwargs["checks"] = ALL_CHECKS if checks == "all" else tuple(checks)
        if "workers" in obj:
            kwargs["workers"] = int(obj["workers"])
        return cls(instances=instances, **kwargs)

    def core_dict(self) -> dict:
        """The part of the configuration a report depends on (no worker
        count, no output paths: reruns must be byte-identical)."""
        return {
            "instances": [s.to_dict() for s in self.instances],
            "eps": str(self.eps),
            "C": str(self.c_param),
            "C_sweep": [str(c) for c in self.c_sweep],
            "d_max": self.d_max,
            "u_star": self.u_star,
            "checks": list(self.checks),
        }


# -- formatting ---------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, DyadicRational):
        return str(value)
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}" if value.denominator != 1 else str(value.numerator)
    return str(value)


def _approx(value) -> float | None:
    if value is None or isinstance(value, str):
        return None
    return round(float(value), 12)


def _row(check: str, context: dict, lhs, bound, holds: bool, report_only=False) -> dict:
    row = {
        "check": check,
        "context": context,
        "lhs": _fmt(lhs),
        "lhs_approx": _approx(lhs),
        "bound": _fmt(bound) if bound is not None else None,
        "bound_approx": _approx(bound),
        "holds": bool(holds),
    }
    if report_only:
        row["report_only"] = True
    return row


#: Checks that read the family analysis.  The roundtrip decodes the
#: analysis's record of encodings.
ANALYSIS_CHECKS = frozenset(
    {"degree_counts", "families", "read_chain", "exact_width_chain", "cover_budget",
     "roundtrip"}
)
#: Checks that read the restriction tables, directly or through the analysis.
TABLE_CHECKS = ANALYSIS_CHECKS | {"evasive"}


def effective_d_max(config_d_max: int | None, n: int) -> int:
    d = 4 if config_d_max is None else config_d_max
    return min(d, n, DT_CAP)


# -- the per-instance verify battery -------------------------------------------


def verify_instance(dnf: Dnf, label: str, config: ExperimentConfig) -> dict:
    """Run the configured checks on one instance and return its report dict.

    The instance's truth table, spectrum, restriction tables and family
    analysis are built here, once, and passed to every check; the tables
    and the analysis only when a configured check reads them.  An encoder
    fault while the analysis is built is a failed ``roundtrip`` row, and
    the checks that need the analysis are left out."""
    n = dnf.n
    s, w, k = dnf.metrics()
    f = dnf.evaluate()
    spec = fourier_transform(f)
    total_weight = spec.total_weight()
    one_norm = spec.one_norm_total()
    min_coeffs = min_coeffs_for_eps(spec, config.eps)
    d_max = effective_d_max(config.d_max, n)
    checks = set(config.checks)
    rows: list[dict] = []
    tables = RestrictionTables(f) if checks & TABLE_CHECKS else None
    analysis: FamilyAnalysis | None = None
    analysis_fault: str | None = None
    if checks & ANALYSIS_CHECKS:
        try:
            analysis = FamilyAnalysis(dnf, d_max, tables, spec)
        except (EncodePreconditionError, EncodingInvariantError) as exc:
            analysis_fault = f"{type(exc).__name__} {exc}"
            checks = (checks - ANALYSIS_CHECKS) | {"roundtrip"}

    subsets = subsets_up_to(n, d_max)

    if "spectral_basics" in checks:
        mean = DyadicRational(f.ones, n)
        rows.append(_row("parseval", {}, total_weight, mean, total_weight == mean))
        # evaluating the polynomial at every point (the inverse transform)
        # must reproduce the truth table exactly; in int64, since every
        # partial sum is bounded by sum |scaled| = one_norm * 2^n
        assert one_norm < DyadicRational(1 << 62, n)
        recon = walsh_butterfly(spec.scaled.copy())
        np.subtract(recon, 1 << n, out=recon, where=f.to_array().view(bool))
        ok = not recon.any()        # poly(x) == 2^n * f(x) at every x
        del recon                   # 2^n int64s: free them before the next transform
        rows.append(_row("reconstruction", {}, "poly(x)", "f(x)", ok))

    if "sparsity" in checks:
        bound = math.ceil(one_norm.as_fraction() ** 2 / config.eps)
        rows.append(
            _row(
                "sparsity_onenorm",
                {"eps": str(config.eps), "one_norm": _fmt(one_norm)},
                min_coeffs,
                bound,
                min_coeffs <= bound,
            )
        )

    # Width truncations are nested, so two with the same number of terms
    # are the same DNF: evaluate each distinct one once.
    truncated: dict[int, BooleanFunction] = {}

    def truncated_table(w_cut: int) -> BooleanFunction:
        g = dnf.truncate_width(w_cut)
        if len(g.terms) not in truncated:
            truncated[len(g.terms)] = g.evaluate()
        return truncated[len(g.terms)]

    if "truncation" in checks:
        for w_cut in range(w):
            dist = hamming_distance_fraction(f, truncated_table(w_cut))
            bound = dnf.truncation_distance_bound(w_cut)
            rows.append(
                _row("truncation_distance", {"width": w_cut}, dist, bound, dist <= bound)
            )

    if "approx_transfer" in checks and w >= 1:
        g_f = truncated_table(w - 1)
        g_spec = fourier_transform(g_f)
        eps1 = hamming_distance_fraction(f, g_f)
        m_keep = min_coeffs_for_eps(g_spec, config.eps)
        masks = ranked_masks(g_spec, m_keep)
        eps2 = weight_outside_masks(g_spec, masks)
        lhs = weight_outside_masks(spec, masks)
        bound = 2 * (eps1 + eps2)
        rows.append(
            _row(
                "approx_transfer",
                {"kept": m_keep, "eps1": _fmt(eps1), "eps2": _fmt(eps2)},
                lhs,
                bound,
                lhs <= bound,
            )
        )

    if "evasive" in checks:
        for m in subsets:
            lhs, rhs, ok = evasive_bound_check(tables, m, spec)
            rows.append(_row("evasive", {"S_mask": m}, lhs, rhs, ok))

    if "cover_probability" in checks:
        sat_union = satisfied_union_table(dnf)
        for m in subsets:
            lhs, rhs, ok = cover_probability_check(dnf, m, spec, sat_union)
            rows.append(_row("cover_probability", {"S_mask": m}, lhs, rhs, ok))

    if "degree_counts" in checks:
        for d in range(d_max + 1):
            r = onenorm_count_check(analysis, d)
            rows.append(_row("onenorm_pair_count", {"d": d}, r.lhs, r.bound, r.holds))
            r = onenorm_width_binom_check(analysis, d)
            rows.append(_row("onenorm_width_binom", {"d": d}, r.lhs, r.bound, r.holds))
            r = pair_count_binom_check(analysis, d)
            rows.append(_row("pair_count_binom", {"d": d}, r.lhs, r.bound, r.holds))

    if "families" in checks:
        for key in sorted(analysis.families, key=lambda fk: (fk.d, fk.u)):
            ctx = {"d": key.d, "u": key.u}
            r = family_onenorm_count_check(analysis, key.d, key.u)
            rows.append(_row("family_onenorm_count", ctx, r.lhs, r.bound, r.holds))
            r = check_onenorm_u(analysis, key.d, key.u)
            rows.append(_row("family_onenorm_binom", ctx, r.lhs, r.bound, r.holds))
            r = check_twonorm_u(analysis, key.d, key.u)
            rows.append(_row("family_twonorm", ctx, r.lhs, r.bound, r.holds))
            r = family_cauchy_check(analysis.families[key])
            rows.append(_row("family_cauchy", ctx, r.lhs, r.bound, r.holds))
        for m in sorted(analysis.profiles):
            r = check_abs_fourier_u(analysis, m)
            rows.append(
                _row(
                    "family_abs_coeff",
                    {"S_mask": m, "u": r.extras.get("u")},
                    r.lhs,
                    r.bound,
                    r.holds,
                )
            )

    if "read_chain" in checks:
        for m in subsets:
            r = read_cover_count_bound(dnf, m, analysis.cover_counts(m))
            ok = r.holds and r.extras["chain_mid_holds"] and r.extras["chain_top_holds"]
            rows.append(_row("read_cover_chain", {"S_mask": m}, r.lhs, r.bound, ok))

    if "exact_width_chain" in checks:
        widths = dnf.term_widths
        if len(widths) == 1 and widths != {0}:
            u_hi = min(w * d_max, n)
            for m in subsets:
                counts = analysis.cover_counts(m)
                for u in range(m.bit_count(), u_hi + 1):
                    r = exact_width_cover_bound(dnf, m, u, counts)
                    ok = r.holds
                    if "chain_mid_holds" in r.extras:
                        ok = ok and r.extras["chain_mid_holds"] and r.extras["chain_top_holds"]
                    rows.append(
                        _row("exact_width_chain", {"S_mask": m, "u": u}, r.lhs, r.bound, ok)
                    )

    if "satisfied_mass" in checks:
        r = st_inequality_check(dnf, f)
        bound = None if r.bound is None else r.bound.high
        rows.append(
            _row(
                "satisfied_mass",
                {"read": k, "pr_true": _fmt(Fraction(f.ones, 1 << n)),
                 "vacuous": r.extras["vacuous"]},
                r.lhs,
                bound,
                r.holds,
            )
        )

    if "cover_budget" in checks:
        seen: set[tuple[int, ...]] = set()
        for profile in analysis.profiles.values():
            for covers in profile.covers_by_u.values():
                seen.update(covers)
        for cover in sorted(seen):
            sizes = [dnf.terms[j - 1].width for j in cover]
            v = sum(sizes)
            mass = sum(Fraction(1, 2**sz) for sz in sizes)
            ctx = {"cover": list(cover), "v": v, "F": _fmt(mass)}
            try:
                r = budget_lemma_bound(sizes, v, mass)
            except BudgetPreconditionError as exc:
                rows.append(_row("cover_budget", ctx | {"skipped": str(exc)},
                                 len(sizes), None, True, report_only=True))
                continue
            rows.append(_row("cover_budget", ctx, r.lhs, r.bound, r.holds))

    if "roundtrip" in checks:
        if analysis_fault is None:
            pairs, context = _roundtrip(dnf, tables, analysis, d_max)
        else:
            pairs, context = 0, {"error": analysis_fault}
        rows.append(_row("roundtrip", {"pairs": pairs} | context, pairs, None,
                         "error" not in context))

    payload = {
        "label": label,
        "n": n,
        "metrics": {"size": s, "width": w, "read": k},
        "pr_true": _fmt(Fraction(f.ones, 1 << n)),
        "d_max": d_max,
        "eps": str(config.eps),
        "min_coeffs": min_coeffs,
        "fourier": {
            "total_weight": _fmt(total_weight),
            "one_norm": _fmt(one_norm),
            "degree": spec.degree(),
        },
        "checks": rows,
        "failures": sum(
            1 for r in rows if not r["holds"] and not r.get("report_only")
        ),
    }
    if analysis is not None:
        payload["families"] = _family_summary(analysis)
        payload["tail_table"] = _tail_table(analysis)
    return payload


#: Rows per batched decode: one numpy call per subset costs more in call
#: overhead than it saves, and one call per degree would hold every pair.
ROUNDTRIP_CHUNK = 4096


def _roundtrip(
    dnf: Dnf, tables: RestrictionTables, analysis: FamilyAnalysis, d_max: int
) -> tuple[int, dict]:
    """Decode every full-depth pair's encoding and compare it with the pair.

    Every pair, S = {} included, is decoded from the analysis's record; the
    records of each degree are decoded in chunks by ``decode_records``.
    Returns the number of pairs before the first failure in ``valid_pairs``
    order, and a context with an ``error`` entry if there was one; an
    encoder or decoder fault is a failure, not a usage error.
    """
    n = dnf.n
    full = (1 << n) - 1
    first: tuple[int, int, str] | None = None   # (S mask, row in S, error)

    def keep(s_mask: int, row: int, error: str) -> None:
        """Keep the failure that comes first in ``valid_pairs`` order."""
        nonlocal first
        if first is None or (s_mask, row) < first[:2]:
            first = (s_mask, row, error)

    def check(d, chunk) -> None:
        """Decode one chunk of degree-d rows and keep its first failure."""
        s_exp, x_exp, row, x_sat, sigma, a = (np.concatenate(col) for col in zip(*chunk))
        try:
            s_dec, x_dec, code = decode_records(dnf, d, x_sat, sigma, a)
        except DecodeError as exc:   # the batch as a whole: blame its first pair
            bad, error = 0, f"DecodeError at S={s_exp[0]}, x={x_exp[0]}: {exc}"
        else:
            wrong = np.flatnonzero((code != 0) | (s_dec != s_exp) | (x_dec != x_exp))
            if wrong.size == 0:
                return
            bad = wrong[0]
            at = f"at S={s_exp[bad]}, x={x_exp[bad]}"
            error = (f"DecodeError {at}: {DECODE_ERRORS[code[bad]]}" if code[bad] else
                     f"decoded {(int(s_dec[bad]), int(x_dec[bad]))} {at}")
        keep(int(s_exp[bad]), int(row[bad]), error)

    subsets = subsets_up_to(n, d_max)
    for d in range(d_max + 1):
        chunk, rows = [], 0
        for s_mask in (m for m in subsets if m.bit_count() == d):
            idxs = tables.full_depth_sbar_indices(s_mask)
            profile = analysis.profiles.get(s_mask)
            held = 0 if profile is None else len(profile.record)
            if held != idxs.size:
                keep(s_mask, 0, f"the record of S={s_mask} holds {held} "
                                f"encodings for {idxs.size} full-depth pairs")
                continue
            if profile is None:
                continue
            record = profile.record
            xsbars = pdep_array(idxs.astype(np.uint32), full ^ s_mask)
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
        return sum(tables.full_depth_count(m) for m in subsets), {}
    s_fail, row, error = first
    before = sum(tables.full_depth_count(m) for m in subsets if m < s_fail)
    return before + row, {"error": error}


def _family_summary(analysis: FamilyAnalysis) -> list[dict]:
    out = []
    for key in sorted(analysis.families, key=lambda fk: (fk.d, fk.u)):
        stats = analysis.families[key]
        out.append(
            {
                "d": key.d,
                "u": key.u,
                "count": len(stats.members),
                "one_norm": _fmt(stats.one_norm),
                "two_norm_sq": _fmt(stats.two_norm_sq),
                "max_abs_coeff": _fmt(stats.max_abs_coeff),
                "max_num_covers": stats.max_num_covers,
            }
        )
    return out


def _tail_table(analysis: FamilyAnalysis) -> list[dict]:
    w = analysis.dnf.width()
    u_hi = min(w * analysis.d_max, analysis.dnf.n)
    out = []
    for u_cut in range(u_hi + 1):
        tail = analysis.tail_weight(u_cut)
        out.append({"u_cutoff": u_cut, "weight_outside": _fmt(tail),
                    "weight_outside_approx": _approx(tail)})
    return out


# -- report assembly ------------------------------------------------------------


def _run_instance(args: tuple[dict, dict], instance_fn) -> dict:
    config_dict, source_dict = args
    config = ExperimentConfig.from_json(json.dumps(config_dict))
    source = InstanceSource.from_dict(source_dict)
    try:
        dnf = source.load()
    except (ParseError, GenerationError, CapExceededError, FileNotFoundError) as exc:
        # one unusable instance is an entry in the report; the others still run
        return {"label": source.label, "error": f"{type(exc).__name__}: {exc}",
                "checks": [], "failures": 1}
    return instance_fn(dnf, source.label, config)


def _verify_task(args: tuple[dict, dict]) -> dict:
    return _run_instance(args, verify_instance)


def _run_tasks(config: ExperimentConfig, task) -> list[dict]:
    core = config.core_dict()
    args = [(core, s.to_dict()) for s in config.instances]
    if config.workers == 1:
        return [task(a) for a in args]
    with ProcessPoolExecutor(max_workers=config.workers) as pool:
        return list(pool.map(task, args, chunksize=1))


def run_verify(config: ExperimentConfig) -> dict:
    instances = _run_tasks(config, _verify_task)
    failures = sum(inst["failures"] for inst in instances)
    return {
        "mode": "verify",
        "config": config.core_dict(),
        "instances": instances,
        "summary": {
            "instances": len(instances),
            "checks": sum(len(i["checks"]) for i in instances),
            "failures": failures,
            "ok": failures == 0,
        },
    }


# -- concentration sweep ---------------------------------------------------------


def sweep_instance(dnf: Dnf, label: str, config: ExperimentConfig) -> dict:
    n = dnf.n
    s, w, k = dnf.metrics()
    f = dnf.evaluate()
    spec = fourier_transform(f)
    eps = config.eps
    three_over_eps = Fraction(3) / eps
    degree_cut = floor_scaled_log2(three_over_eps, config.c_param * w) if w else 0
    d_max = min(n, degree_cut if degree_cut > 0 else n, DT_CAP,
                config.d_max if config.d_max is not None else n)
    try:
        analysis = FamilyAnalysis(dnf, d_max, RestrictionTables(f), spec)
    except (EncodePreconditionError, EncodingInvariantError) as exc:
        # a failed correctness check, not an input error: the others still run
        return {"label": label, "fault": f"{type(exc).__name__} {exc}", "failures": 1}

    u_hi = min(w * d_max, n) if w else 0
    tail_rows = []
    capture_u = None
    for u_cut in range(u_hi + 1):
        tail = analysis.tail_weight(u_cut)
        tail_rows.append(
            {"u_cutoff": u_cut, "weight_outside": _fmt(tail),
             "weight_outside_approx": _approx(tail)}
        )
        if capture_u is None and tail <= eps:
            capture_u = u_cut

    weight_cuts = []
    for c in config.c_sweep:
        if w:
            cut = floor_scaled_log2(three_over_eps, c * w)
            cut = min(cut, n)
        else:
            cut = 0
        above = weight_above_degree(spec, cut)
        weight_cuts.append(
            {"C": str(c), "degree_cutoff": cut, "weight_above": _fmt(above),
             "weight_above_approx": _approx(above)}
        )

    u_star_formula = None
    if w and k >= 1:
        u_star_formula = (
            100 * float(config.c_param) * w * math.log2(k + 2) * math.log2(float(three_over_eps))
        )

    return {
        "label": label,
        "n": n,
        "metrics": {"size": s, "width": w, "read": k},
        "eps": str(eps),
        "C": str(config.c_param),
        "degree_cutoff": d_max,
        "min_coeffs": min_coeffs_for_eps(spec, eps),
        "one_norm": _fmt(spec.one_norm_total()),
        "total_weight": _fmt(spec.total_weight()),
        "tail_table": tail_rows,
        "capture_u": capture_u,
        "u_star_formula": None if u_star_formula is None else round(u_star_formula, 6),
        "u_star_override": config.u_star,
        "degree_weight_sweep": weight_cuts,
        "hypotheses": _theorem_hypotheses(w, k),
        "report_only": _theorem_tails(analysis, config, u_star_formula, u_hi),
    }


def _theorem_tails(analysis: FamilyAnalysis, config: ExperimentConfig,
                   u_star_formula: float | None, u_hi: int) -> dict:
    """Theorem-level quantities, evaluated but never asserted: their "large
    enough width" hypotheses fail at desk scale.  Values are decimal
    approximations of exact family weights against the simplified bounds."""
    max_ncov = 0
    for profile in analysis.profiles.values():
        counts = analysis.cover_counts(profile.mask)
        max_ncov = max(max_ncov, counts.get(profile.assigned_u, 0))
    per_u = []
    for u in range(u_hi + 1):
        weight_at_u = DyadicRational(0)
        for key, stats in analysis.families.items():
            if key.u == u:
                weight_at_u = weight_at_u + stats.two_norm_sq
        simplified = 2.0 ** (-u / 2) * max_ncov
        per_u.append(
            {
                "u": u,
                "family_weight": _fmt(weight_at_u),
                "family_weight_approx": _approx(weight_at_u),
                "simplified_bound_approx": round(simplified, 12),
                "would_hold": bool(float(weight_at_u) <= simplified),
            }
        )
    tail_beyond_u_star = None
    if u_star_formula is not None:
        cutoff = math.floor(u_star_formula)
        tail = DyadicRational(0)
        for key, stats in analysis.families.items():
            if key.u > cutoff:
                tail = tail + stats.two_norm_sq
        tail_beyond_u_star = {
            "u_star_floor": cutoff,
            "family_weight_beyond": _fmt(tail),
            "family_weight_beyond_approx": _approx(tail),
            "eps_over_3_approx": round(float(config.eps) / 3, 12),
            "would_hold": bool(tail.as_fraction() <= config.eps / 3),
        }
    return {
        "max_num_covers": max_ncov,
        "family_weight_vs_simplified_bound": per_u,
        "tail_beyond_u_star": tail_beyond_u_star,
    }


def _theorem_hypotheses(w: int, k: int) -> dict:
    """Report-only: whether the small-read hypotheses hold at this scale."""
    out = {"exact_width_regime": None, "small_read_regime": None}
    if w >= 1:
        out["exact_width_regime"] = bool(k <= w / (4 * math.log2(math.e * w)))
    if w >= 3:
        lw = math.log2(w)
        out["small_read_regime"] = bool(k <= lw / (16 * math.log2(lw))) if lw > 1 else False
    return out


def _sweep_task(args: tuple[dict, dict]) -> dict:
    return _run_instance(args, sweep_instance)


def run_concentration_sweep(config: ExperimentConfig) -> dict:
    instances = _run_tasks(config, _sweep_task)
    return {
        "mode": "sweep",
        "config": config.core_dict(),
        "instances": instances,
        "summary": {"instances": len(instances)},
    }


# -- rendering -------------------------------------------------------------------


def render_json(report: dict, out: TextIO) -> None:
    """Write the report as indented JSON to the text stream ``out``, piece
    by piece, so that the whole text is never held in memory."""
    json.dump(report, out, sort_keys=True, indent=2)
    out.write("\n")


def family_csv(payload: dict) -> str:
    """CSV of one verify instance's family table, exact values as strings."""
    header = (
        "d,u,count,one_norm,two_norm_sq,max_abs_coeff,max_num_covers,"
        "one_norm_bound,two_norm_bound,one_norm_holds,two_norm_holds"
    )
    by_key = {}
    for row in payload.get("checks", []):
        if row["check"] in ("family_onenorm_binom", "family_twonorm"):
            key = (row["context"]["d"], row["context"]["u"])
            by_key.setdefault(key, {})[row["check"]] = row
    lines = [header]
    for fam in payload.get("families", []):
        key = (fam["d"], fam["u"])
        one = by_key.get(key, {}).get("family_onenorm_binom", {})
        two = by_key.get(key, {}).get("family_twonorm", {})
        lines.append(
            ",".join(
                str(x)
                for x in (
                    fam["d"],
                    fam["u"],
                    fam["count"],
                    fam["one_norm"],
                    fam["two_norm_sq"],
                    fam["max_abs_coeff"],
                    fam["max_num_covers"],
                    one.get("bound", ""),
                    two.get("bound", ""),
                    one.get("holds", ""),
                    two.get("holds", ""),
                )
            )
        )
    return "\n".join(lines) + "\n"


def tail_csv(payload: dict) -> str:
    """CSV of one sweep instance's tail-weight table, exact plus decimal."""
    lines = ["u_cutoff,weight_outside,weight_outside_approx"]
    for row in payload.get("tail_table", []):
        lines.append(
            f"{row['u_cutoff']},{row['weight_outside']},{row['weight_outside_approx']}"
        )
    return "\n".join(lines) + "\n"


def rows_jsonl(report: dict) -> str:
    """Per-check rows as JSON lines {label, check, S_mask?, lhs, rhs, holds}."""
    lines = []
    for inst in report["instances"]:
        for row in inst.get("checks", []):
            obj = {
                "label": inst["label"],
                "check": row["check"],
                "lhs": row["lhs"],
                "rhs": row["bound"],
                "holds": row["holds"],
            }
            if "S_mask" in row["context"]:
                obj["S_mask"] = row["context"]["S_mask"]
            lines.append(json.dumps(obj, sort_keys=True))
    return "\n".join(lines) + ("\n" if lines else "")
