"""Batch verification and concentration measurements over DNF instances.

``write_report`` runs the full battery of exact inequality checks on each
configured instance (or the concentration measurements) and writes one
report as it goes: each verify row is written when it is checked, and no
report is held.  Any failed asserted check makes the report (and the CLI)
signal failure; ``run_verify`` and ``run_concentration_sweep`` return the
written report read back as a dict.  An instance that cannot be
loaded or built is an ``error`` entry with no rows, in a verify or a sweep,
and the other instances still run.  So is an instance with a comparison
that stays undecided at the enclosures' maximum precision, after the
rows it wrote.  An encoder fault is a failed ``roundtrip`` row in a
verify and a ``fault`` entry in a sweep, and the other instances still
run too.  The ``roundtrip`` check (``RoundTrip``)
is the family analysis's consumer: it decodes each subset's encodings
during that subset's pass, so no record outlives it, and a decode fault
fails only its row.  A sweep measures
spectral sparsity and how much weight small-union-size families capture, without
asserting theorem-level claims whose hypotheses do not hold at desk scale
(those go to each entry's ``report_only`` block).

Reports are pure functions of the configuration and instance content:
worker counts and output paths never appear in a report body, results are
reduced in instance order, and exact rationals are printed as num/2^e
strings, so reruns are byte-identical regardless of parallelism.
"""
from __future__ import annotations

import functools
import io
import json
import math
import os
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import TextIO

import numpy as np

from .bitops import as_int, subsets_up_to
from .boolfn import (
    HIST_CHUNK,
    BooleanFunction,
    FourierSpectrum,
    fourier_transform,
    hamming_distance_fraction,
    min_coeffs_for_eps,
    ranked_masks,
    walsh_butterfly,
    weight_above_degree,
    weight_outside_masks,
)
from .covers import (
    FamilyAnalysis,
    budget_lemma_bound,  # no caller here, but bench/spans.py wraps this name
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
from .dnf import Dnf, load_dnf
from .dyadic import DyadicRational
from .enclosures import EnclosureUndecidedError, floor_scaled_log2
from .encoder import (
    DECODE_ERRORS,
    DecodeError,
    EncodePreconditionError,
    EncodingInvariantError,
    EncodingRecord,
    decode,  # no caller here, but bench/spans.py wraps this name
    decode_records,
    encode,  # no caller here either, and bench/spans.py wraps it too
)
from .generators import GeneratorSpec
from .restrictions import (
    DT_CAP,
    UNION_CHUNK,
    RestrictionTables,
    cover_probability_check,
    evasive_bound_check,
    satisfied_union_table,
    union_superset_counts,
)


class ConfigError(ValueError):
    """Malformed experiment configuration."""


@dataclass(frozen=True, slots=True)
class CheckKind:
    """A group of the verify battery: the row kinds it writes, and what it
    reads beyond the truth table and the spectrum: ``"tables"`` (the
    restriction tables), ``"analysis"`` (the family analysis, which reads
    the tables) or None."""

    rows: tuple[str, ...]
    reads: str | None = None


#: Every check group, in the order the battery writes its rows.
#: ``_Battery`` has one method per group, named after it.
CHECK_KINDS = {
    "spectral_basics": CheckKind(("parseval", "reconstruction")),
    "sparsity": CheckKind(("sparsity_onenorm",)),
    "truncation": CheckKind(("truncation_distance",)),
    "approx_transfer": CheckKind(("approx_transfer",)),
    "evasive": CheckKind(("evasive",), "tables"),
    "cover_probability": CheckKind(("cover_probability",)),
    "degree_counts": CheckKind(
        ("onenorm_pair_count", "onenorm_width_binom", "pair_count_binom"), "analysis"),
    "families": CheckKind(("family_onenorm_count", "family_onenorm_binom", "family_twonorm",
                           "family_cauchy", "family_abs_coeff"), "analysis"),
    "read_chain": CheckKind(("read_cover_chain",), "analysis"),
    "exact_width_chain": CheckKind(("exact_width_chain",), "analysis"),
    "satisfied_mass": CheckKind(("satisfied_mass",)),
    # the round trip decodes the encodings the analysis hands it, one
    # subset at a time
    "roundtrip": CheckKind(("roundtrip",), "analysis"),
}
ALL_CHECKS = tuple(CHECK_KINDS)


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
        return {"file": self.path} if self.kind == "file" else {"generator": self.spec.to_dict()}

    @classmethod
    def from_dict(cls, obj: dict) -> "InstanceSource":
        """The source an instance object names: exactly one of ``file``
        and ``generator``, and no other key."""
        unknown = set(obj) - {"file", "generator"}
        if unknown:
            raise ConfigError(f"unknown instance keys: {sorted(unknown)}")
        if "file" in obj and "generator" in obj:
            raise ConfigError(f"an instance names a 'file' or a 'generator', not both: {obj}")
        if "file" in obj:
            return cls("file", path=str(obj["file"]))
        if "generator" in obj:
            gen = obj["generator"]
            if not isinstance(gen, dict) or "family" not in gen:
                raise ConfigError(f"'generator' must be an object with a 'family': {gen!r}")
            try:
                return cls("generator", spec=GeneratorSpec.from_dict(gen))
            except (TypeError, ValueError, ArithmeticError) as exc:
                raise ConfigError(f"bad 'generator' {gen!r}: {exc}") from exc
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
        if self.c_param <= 0 or min(self.c_sweep, default=1) <= 0:
            raise ConfigError("C and every C_sweep entry must be positive")
        if self.d_max is not None and self.d_max > DT_CAP:
            raise ConfigError(f"d_max={self.d_max} exceeds decision-tree cap {DT_CAP}")
        if self.d_max is not None and self.d_max < 0:
            raise ConfigError(f"d_max={self.d_max} must be >= 0")
        if self.u_star is not None and self.u_star < 0:
            raise ConfigError(f"u_star={self.u_star} must be >= 0")
        if not all(isinstance(c, str) for c in self.checks):
            raise ConfigError(f"'checks' entries must be strings: {list(self.checks)!r}")
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
            # a float is read by its decimal text: 0.1 is 1/10
            obj = json.loads(text, parse_float=Decimal, parse_constant=_no_constant)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"bad config JSON: {exc}") from exc
        sources = obj.get("instances") if isinstance(obj, dict) else None
        if not isinstance(sources, list) or not all(isinstance(s, dict) for s in sources):
            raise ConfigError("a config is a JSON object with an 'instances' list of objects")
        unknown = set(obj) - set(CONFIG_FIELDS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**{attr: read(key, obj[key])
                      for key, (attr, read) in CONFIG_FIELDS.items() if key in obj})

    def core_dict(self) -> dict:
        """The part of the configuration a report depends on (no worker
        count, no output paths: reruns must be byte-identical)."""
        return {key: _echo(getattr(self, attr))
                for key, (attr, _) in CONFIG_FIELDS.items() if key != "workers"}


def _no_constant(name: str):
    raise ConfigError(f"bad config JSON: {name} is not a JSON value")


def _echo(value):
    """A config field as the report's ``config`` echoes it."""
    if isinstance(value, tuple):
        return [_echo(v) for v in value]
    if isinstance(value, InstanceSource):
        return value.to_dict()
    return str(value) if isinstance(value, Fraction) else value


def _scalar(key: str, value, integral: bool = False):
    """``value`` as a ``Fraction``, or as an ``int`` by ``as_int``'s rule if
    ``integral``.  A number (a JSON float is a ``Decimal``, exactly the
    decimal it spells), or a string that ``Fraction`` reads, is taken; a
    boolean, a list, ``"1/0"`` or ``"x"`` is a ``ConfigError`` that names
    the config field ``key``."""
    try:   # a boolean goes to as_int, which rejects it
        number = as_int(value) if integral or isinstance(value, bool) else Fraction(value)
        str(number)   # a report must be able to write it (sys.get_int_max_str_digits)
        return number
    except (TypeError, ValueError, ArithmeticError) as exc:
        shown = value if isinstance(value, Decimal) else repr(value)
        raise ConfigError(f"bad {key!r} value {shown}: {exc}") from exc


def _list(key: str, value) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{key!r} must be a list, not {value!r}")
    return value


def _optional_int(key: str, value) -> int | None:
    return None if value is None else _scalar(key, value, integral=True)


#: Each key a config may have, with the ``ExperimentConfig`` field it sets
#: and the reader of its JSON value, called with the key; ``from_json``
#: rejects any other key, and ``core_dict`` echoes each field but ``workers``.
CONFIG_FIELDS = {
    "instances": ("instances", lambda key, v: tuple(map(InstanceSource.from_dict, v))),
    "eps": ("eps", _scalar),
    "C": ("c_param", _scalar),
    "C_sweep": ("c_sweep", lambda key, v: tuple(_scalar(key, c) for c in _list(key, v))),
    "d_max": ("d_max", _optional_int),
    "u_star": ("u_star", _optional_int),
    "checks": ("checks", lambda key, v: ALL_CHECKS if v == "all" else tuple(_list(key, v))),
    "workers": ("workers", functools.partial(_scalar, integral=True)),
}


# -- formatting ---------------------------------------------------------------


def _float(value) -> float | None:
    """``value`` as a float, or None beyond a double's range."""
    try:
        value = float(value)
    except OverflowError:
        return None
    return value if math.isfinite(value) else None


def _approx(value) -> float | None:
    """A report's ``*_approx`` field: ``value`` as a float rounded to 12
    decimals, the one place a report value becomes a float.  None, a
    string, and a value beyond a double's range (``_float``) are null."""
    if value is None or isinstance(value, str) or (value := _float(value)) is None:
        return None
    return round(value, 12)


def _row(check: str, context: dict, lhs, bound, holds: bool) -> dict:
    return {
        "check": check,
        "context": context,
        "lhs": str(lhs),
        "lhs_approx": _approx(lhs),
        "bound": str(bound) if bound is not None else None,
        "bound_approx": _approx(bound),
        "holds": bool(holds),
    }


# -- report writing ----------------------------------------------------------------
#
# A report is the text of json.dump(report, sort_keys=True, indent=2) plus a
# newline, written a piece at a time: "config" first, then each instance
# entry as it is made, then "mode" and the "summary", which sort last.  An
# entry's "checks" sorts before its other fields, so each of its rows is
# written when it is checked, and none is held.


#: What ``json.dumps(obj, sort_keys=True, indent=2)`` calls, made once:
#: ``json.dumps`` builds a new encoder on every call.
_ENCODE = json.JSONEncoder(sort_keys=True, indent=2).encode


def _dumps(obj, depth: int) -> str:
    """``obj`` as ``json.dump(..., sort_keys=True, indent=2)`` writes it at
    nesting depth ``depth``: JSON strings escape their newlines, so each
    newline of the text starts a line to pad."""
    return _ENCODE(obj).replace("\n", "\n" + "  " * depth)


#: The rows that ``family_csv`` reads.
FAMILY_CSV_ROWS = frozenset({"family_onenorm_binom", "family_twonorm"})


@dataclass(frozen=True, slots=True)
class EntryFacts:
    """What the command line reads of a written entry."""

    label: str
    error: str | None
    fault: str | None
    failures: int
    rows: int


class EntryWriter:
    """One instance entry of a report, written to ``out`` at the depth of
    the report's "instances" list, as it is made.

    With ``checks`` the entry opens with its "checks" list, and ``write``
    renders each row and writes it at once, to ``jsonl`` too if given, as
    the line {label, check, S_mask?, lhs, rhs, holds}; ``close`` then
    writes the entry's other fields, which all sort after "checks".
    Without ``checks`` ``close`` writes the whole entry.  ``csv`` is the
    (path, renderer) of the entry's CSV, written at ``close``: of the rows
    it keeps only the ``FAMILY_CSV_ROWS``."""

    def __init__(self, out: TextIO, label: str, checks: bool, jsonl: TextIO | None = None,
                 csv: tuple | None = None):
        self.out, self.label, self.jsonl, self.csv = out, label, jsonl, csv
        self.has_checks = checks
        self.rows = self.failures = 0
        self.kept: list[dict] = []
        if checks:
            out.write('    {\n      "checks": [')

    def write(self, row: dict) -> None:
        self.out.write((",\n" if self.rows else "\n") + "        " + _dumps(row, 4))
        self.rows += 1
        if not row["holds"]:
            self.failures += 1
        if self.jsonl is not None:
            line = {"label": self.label, "check": row["check"], "lhs": row["lhs"],
                    "rhs": row["bound"], "holds": row["holds"]}
            if "S_mask" in row["context"]:
                line["S_mask"] = row["context"]["S_mask"]
            self.jsonl.write(json.dumps(line, sort_keys=True) + "\n")
        if self.csv is not None and row["check"] in FAMILY_CSV_ROWS:
            self.kept.append(row)

    def close(self, fields: dict) -> EntryFacts:
        if self.has_checks:
            assert min(fields) > "checks", "the rows must come first"
            self.out.write(("\n      ]," if self.rows else "],") + _dumps(fields, 2)[1:])
        else:
            self.out.write("    " + _dumps(fields, 2))
        if self.csv is not None:
            path, render = self.csv
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(render({**fields, "checks": self.kept}))
        return EntryFacts(fields["label"], fields.get("error"), fields.get("fault"),
                          fields.get("failures", 0), self.rows)


class ReportWriter:
    """A report written to ``out`` as it is made: ``entry`` before each
    instance entry, whose text follows on ``out``, and ``close`` with the
    summary."""

    def __init__(self, out: TextIO, mode: str, config: dict):
        self.out, self.mode, self.entries = out, mode, 0
        out.write('{\n  "config": ' + _dumps(config, 1) + ',\n  "instances": [')

    def entry(self) -> None:
        self.out.write(",\n" if self.entries else "\n")
        self.entries += 1

    def close(self, summary: dict) -> None:
        self.out.write(("\n  ]" if self.entries else "]") + ',\n  "mode": '
                       + json.dumps(self.mode) + ',\n  "summary": ' + _dumps(summary, 1)
                       + "\n}\n")


def render_json(report: dict, out: TextIO) -> None:
    """Write a report dict (``run_verify``'s or ``run_concentration_sweep``'s)
    to the text stream ``out`` through the writers that made its text."""
    writer = ReportWriter(out, report["mode"], report["config"])
    for inst in report["instances"]:
        writer.entry()
        entry = EntryWriter(out, inst["label"], "checks" in inst)
        for row in inst.get("checks", ()):
            entry.write(row)
        entry.close({key: value for key, value in inst.items() if key != "checks"})
    writer.close(report["summary"])


def _reconstructs(spec: FourierSpectrum, f: BooleanFunction) -> bool:
    """Whether the polynomial evaluated at every point (the inverse
    transform) is 2^n * f(x), exactly.

    Split on the top five variables (all of them when n < 5),
    H_n = H_5 (x) H_{n-5}: with q_0..q_31 the 32nds of the spectrum,
    32nd i of the points is H_{n-5}(c_i), c_i = sum_j (-1)^|i & j| q_j,
    and it should be 2^n * f_i, with f_i the 32nd i of the table.  Part 0
    is checked so.  The other parts are visited in Gray-code order: the
    next part i' = i xor e_k differs from i in one bit, and
    c_i - c_i' = 2D with D = sum_{j : j_k = 1} (-1)^|i & j| q_j.  So once
    part i has passed, part i' passes exactly when
    H_{n-5}(D) = 2^(n-1) * (f_i - f_i'), and each step reads half the
    parts, not all of them.  One buffer of 2^(n-5) entries serves every
    part in turn.  Each is compared with its own slices of the packed
    table, one ``HIST_CHUNK`` block at a time: the block's expected values
    are unpacked and scaled into a buffer of their own, and subtracted,
    with no data-dependent branch.  Nothing of either outlives the call.

    Every point value V(x) has |V(x)| <= sum |scaled| = one_norm * 2^n,
    and so has every H(D)(x), a signed sum of fewer coefficients.
    ``scaled`` is read-only and profiled when it is made, so the profile's
    sum of magnitudes bounds the very vector transformed here.  When that
    sum plus 2^n is below 2^32 the buffer is int32, whose array arithmetic
    wraps: it holds each value mod 2^32, and V(x) - 2^n * f(x) and
    H(D)(x) - 2^(n-1) * (f_i - f_i')(x), of magnitude below 2^32, are
    0 mod 2^32 only when they are 0.  Otherwise the buffer is int64, where
    the sum must be below 2^62 and nothing wraps."""
    n = spec.n
    one_norm = spec.one_norm_total()
    if one_norm < DyadicRational((1 << 32) - (1 << n), n):
        dtype = np.int32
    else:
        assert one_norm < DyadicRational(1 << 62, n)
        dtype = np.int64
    top = min(n, 5)
    parts = spec.scaled.reshape(1 << top, -1)
    size = parts.shape[1]
    poly = np.empty(size, dtype=dtype)
    step = min(size, HIST_CHUNK)
    packed = f.packed()
    expected = np.empty(step, dtype=dtype)

    def table(i: int, lo: int) -> np.ndarray:
        """Entries lo..lo+step of the table's part i, as 0/1 uint8."""
        x = i * size + lo
        return np.unpackbits(packed[x >> 3:(x + step + 7) >> 3],
                             bitorder="little")[x & 7:(x & 7) + step]

    def evaluates_to(i: int, js, other: int | None = None) -> bool:
        """Whether H(sum_{j in js} (-1)^|i & j| q_j), made in ``poly``, is
        2^n * f_i, or with ``other`` 2^(n-1) * (f_i - f_other)."""
        first, *rest = js
        if (i & first).bit_count() & 1:
            np.negative(parts[first], out=poly)
        else:
            poly[...] = parts[first]
        for j in rest:
            combine = np.subtract if (i & j).bit_count() & 1 else np.add
            combine(poly, parts[j], out=poly)
        walsh_butterfly(poly)
        for lo in range(0, size, step):
            if other is None:
                np.multiply(table(i, lo), 1 << n, out=expected, dtype=dtype)
            else:
                np.subtract(table(i, lo), table(other, lo), out=expected, dtype=dtype)
                np.multiply(expected, 1 << (n - 1), out=expected)
            np.subtract(poly[lo:lo + step], expected, out=poly[lo:lo + step])
        return not poly.any()

    if not evaluates_to(0, range(1 << top)):
        return False
    i = 0
    for t in range(1, 1 << top):
        bit = t & -t                      # step t of the Gray code flips this bit
        if not evaluates_to(i, [j for j in range(1 << top) if j & bit], i ^ bit):
            return False
        i ^= bit
    return True


def effective_d_max(config_d_max: int | None, n: int) -> int:
    d = 4 if config_d_max is None else config_d_max
    return min(d, n, DT_CAP)


# -- the per-instance verify battery -------------------------------------------


def verify_instance(dnf: Dnf, label: str, config: ExperimentConfig,
                    entry: EntryWriter) -> EntryFacts:
    """Run the configured checks on one instance and write its report entry
    to ``entry``, each row as soon as it is checked; return the entry's
    facts.

    The checks run in ``CHECK_KINDS`` order, on what ``_Battery`` builds
    once for the groups configured."""
    battery = _Battery(dnf, config)
    for group in CHECK_KINDS:
        if group in battery.checks:
            for row in getattr(battery, group)():
                entry.write(row)
    payload = {
        "label": label,
        "n": dnf.n,
        "metrics": {"size": battery.s, "width": battery.w, "read": battery.k},
        "pr_true": str(Fraction(battery.f.ones, 1 << dnf.n)),
        "d_max": battery.d_max,
        "eps": str(config.eps),
        "min_coeffs": battery.min_coeffs,
        "fourier": {
            "total_weight": str(battery.total_weight),
            "one_norm": str(battery.one_norm),
            "degree": battery.spec.degree(),
        },
        "failures": entry.failures,
    }
    if battery.analysis is not None:
        payload["families"] = _family_summary(battery.analysis)
        payload["tail_table"] = _tail_table(battery.analysis)
    return entry.close(payload)


class _Battery:
    """The verify battery on one instance.

    ``__init__`` builds the truth table, the spectrum, the restriction
    tables and the family analysis once, the tables and the analysis only
    when a configured group reads them (``CheckKind.reads``), and the
    round trip, when configured, as the analysis's consumer.  An encoder
    fault while the analysis is built is a failed ``roundtrip`` row, and
    the groups that read the analysis are left out.  Each method named
    after a group yields that group's rows as each is checked; it looks its
    check functions up in this module when it calls them."""

    def __init__(self, dnf: Dnf, config: ExperimentConfig):
        self.dnf, self.eps = dnf, config.eps
        n = dnf.n
        self.s, self.w, self.k = dnf.metrics()
        self.f = f = dnf.evaluate()
        self.checks = set(config.checks)
        reads = {CHECK_KINDS[group].reads for group in self.checks}
        # Width truncations are nested, so two with the same number of terms
        # are the same DNF: evaluate each distinct one once.
        self._truncated: dict[int, BooleanFunction] = {}

        # approx_transfer's truncation side runs first: its spectrum is read
        # and dropped before f's is made, so one spectrum is alive at a time
        if "approx_transfer" in self.checks and self.w >= 1:
            g_spec = fourier_transform(self.truncated_table(self.w - 1))
            self.m_keep = min_coeffs_for_eps(g_spec, self.eps)
            self.masks = ranked_masks(g_spec, self.m_keep)
            self.eps2 = weight_outside_masks(g_spec, self.masks)
            del g_spec
        self.spec = spec = fourier_transform(f)
        self.total_weight = spec.total_weight()
        self.one_norm = spec.one_norm_total()
        self.min_coeffs = min_coeffs_for_eps(spec, self.eps)
        self.d_max = effective_d_max(config.d_max, n)
        self.tables = RestrictionTables(f) if reads & {"tables", "analysis"} else None
        self.analysis: FamilyAnalysis | None = None
        self.fault: str | None = None
        self.round_trip = RoundTrip(dnf) if "roundtrip" in self.checks else None
        if "analysis" in reads:
            try:
                self.analysis = FamilyAnalysis(dnf, self.d_max, self.tables, spec,
                                               self.round_trip)
            except (EncodePreconditionError, EncodingInvariantError) as exc:
                self.fault = f"{type(exc).__name__} {exc}"
                self.checks = {group for group in self.checks
                               if CHECK_KINDS[group].reads != "analysis"} | {"roundtrip"}
        self.subsets = list(subsets_up_to(n, self.d_max))

    def truncated_table(self, w_cut: int) -> BooleanFunction:
        g = self.dnf.truncate_width(w_cut)
        if len(g.terms) not in self._truncated:
            self._truncated[len(g.terms)] = g.evaluate()
        return self._truncated[len(g.terms)]

    def spectral_basics(self):
        mean = DyadicRational(self.f.ones, self.dnf.n)
        yield _row("parseval", {}, self.total_weight, mean, self.total_weight == mean)
        # the inverse transform must reproduce the truth table exactly
        yield _row("reconstruction", {}, "poly(x)", "f(x)", _reconstructs(self.spec, self.f))

    def sparsity(self):
        bound = math.ceil(self.one_norm.as_fraction() ** 2 / self.eps)
        context = {"eps": str(self.eps), "one_norm": str(self.one_norm)}
        yield _row("sparsity_onenorm", context, self.min_coeffs, bound,
                   self.min_coeffs <= bound)

    def truncation(self):
        for w_cut in range(self.w):
            dist = hamming_distance_fraction(self.f, self.truncated_table(w_cut))
            bound = self.dnf.truncation_distance_bound(w_cut)
            yield _row("truncation_distance", {"width": w_cut}, dist, bound, dist <= bound)

    def approx_transfer(self):
        if self.w < 1:
            return
        eps1 = hamming_distance_fraction(self.f, self.truncated_table(self.w - 1))
        lhs = weight_outside_masks(self.spec, self.masks)
        bound = 2 * (eps1 + self.eps2)
        context = {"kept": self.m_keep, "eps1": str(eps1), "eps2": str(self.eps2)}
        yield _row("approx_transfer", context, lhs, bound, lhs <= bound)

    def evasive(self):
        for m in self.tables.visit(self.d_max):
            verdict = evasive_bound_check(self.tables.full_depth_count(m), m, self.spec)
            yield _row("evasive", {"S_mask": m}, *verdict)

    def cover_probability(self):
        n = self.dnf.n
        size = min(UNION_CHUNK, 1 << n)
        covered = union_superset_counts(
            (satisfied_union_table(self.dnf, lo, size) for lo in range(0, 1 << n, size)),
            self.subsets)
        for m, count in zip(self.subsets, covered.tolist()):
            verdict = cover_probability_check(self.dnf, m, self.spec, count)
            yield _row("cover_probability", {"S_mask": m}, *verdict)

    def degree_counts(self):
        for d in range(self.d_max + 1):
            yield _row("onenorm_pair_count", {"d": d}, *onenorm_count_check(self.analysis, d))
            yield _row("onenorm_width_binom", {"d": d},
                       *onenorm_width_binom_check(self.analysis, d))
            yield _row("pair_count_binom", {"d": d}, *pair_count_binom_check(self.analysis, d))

    def families(self):
        analysis = self.analysis
        for key in sorted(analysis.families):
            ctx = {"d": key.d, "u": key.u}
            yield _row("family_onenorm_count", ctx,
                       *family_onenorm_count_check(analysis, key.d, key.u))
            yield _row("family_onenorm_binom", ctx, *check_onenorm_u(analysis, key.d, key.u))
            yield _row("family_twonorm", ctx, *check_twonorm_u(analysis, key.d, key.u))
            yield _row("family_cauchy", ctx, *family_cauchy_check(analysis.families[key]))
        for m in sorted(analysis.profiles):
            r = check_abs_fourier_u(analysis, m)
            yield _row("family_abs_coeff", {"S_mask": m, "u": r.extras.get("u")}, *r)

    def read_chain(self):
        for m in self.subsets:
            r = read_cover_count_bound(self.dnf, m, self.analysis.cover_counts(m))
            yield _row("read_cover_chain", {"S_mask": m}, *r)

    def exact_width_chain(self):
        widths = self.dnf.term_widths
        if len(widths) == 1 and widths != {0}:
            for m in self.subsets:
                counts = self.analysis.cover_counts(m)
                for u in range(m.bit_count(), self.analysis.u_hi + 1):
                    r = exact_width_cover_bound(self.dnf, m, u, counts)
                    yield _row("exact_width_chain", {"S_mask": m, "u": u}, *r)

    def satisfied_mass(self):
        r = st_inequality_check(self.dnf, self.f)
        bound = None if r.bound is None else r.bound.high
        context = {"read": self.k, "pr_true": str(Fraction(self.f.ones, 1 << self.dnf.n)),
                   "vacuous": r.extras["vacuous"]}
        yield _row("satisfied_mass", context, r.lhs, bound, r.holds)

    def roundtrip(self):
        if self.fault is None:
            pairs, failure = self.round_trip.result()
            error = None if failure is None else failure[2]
        else:
            pairs, error = 0, self.fault
        context = {"pairs": pairs} if error is None else {"pairs": pairs, "error": error}
        yield _row("roundtrip", context, pairs, None, error is None)


#: Rows per batched decode: one numpy call per subset costs more in call
#: overhead than it saves, and one call per degree would hold every pair.
ROUNDTRIP_CHUNK = 4096


class RoundTrip:
    """The ``roundtrip`` check, fed by the family analysis one subset at a
    time: decode every full-depth pair's encoding and compare it with the
    pair.

    Called as the analysis's consumer with (S mask, S's x_Sbar masks, S's
    record), S = {} included, so no table is read.  Rows are buffered per
    degree and a buffer is decoded by ``decode_records`` once it holds
    ``ROUNDTRIP_CHUNK`` rows, so at most d_max + 1 chunks are held; the
    rows a buffer keeps after a call are copied, so that no record
    outlives its subset's pass.  ``result`` decodes what is left."""

    def __init__(self, dnf: Dnf):
        self.dnf = dnf
        self._chunks: dict[int, list[tuple[np.ndarray, ...]]] = {}   # per degree
        self.pairs = 0   # pairs handed over so far
        self._first: tuple[int, int, int, str] | None = None   # (position, S, x_Sbar, error)

    def _keep(self, position: int, s_mask: int, xsbar: int, error: str) -> None:
        """Keep the failure that comes first in ``valid_pairs`` order."""
        if self._first is None or position < self._first[0]:
            self._first = (position, s_mask, xsbar, error)

    def __call__(self, s_mask: int, xsbars: np.ndarray, record: EncodingRecord) -> None:
        start, held = self.pairs, len(record)
        self.pairs += xsbars.size
        if held != xsbars.size:
            self._keep(start, s_mask, int(xsbars[0]), f"the record of S={s_mask} holds "
                       f"{held} encodings for {xsbars.size} full-depth pairs")
            return
        d = s_mask.bit_count()
        chunk = self._chunks.setdefault(d, [])
        rows = sum(col[0].size for col in chunk)
        for lo in range(0, held, ROUNDTRIP_CHUNK):
            hi = min(held, lo + ROUNDTRIP_CHUNK)
            chunk.append((np.full(hi - lo, s_mask, np.uint32), xsbars[lo:hi],
                          np.arange(start + lo, start + hi), record.x_sat[lo:hi],
                          record.sigma[lo:hi], record.a[lo:hi]))
            rows += hi - lo
            if rows >= ROUNDTRIP_CHUNK:
                self._check(d, chunk)
                chunk.clear()
                rows = 0
        if rows:   # only the last slice can stay: own it, so that the record can go
            chunk[-1] = tuple(col.copy() for col in chunk[-1])

    def _check(self, d: int, chunk: list[tuple[np.ndarray, ...]]) -> None:
        """Decode one chunk of degree-d rows and keep its first failure."""
        s_exp, x_exp, position, x_sat, sigma, a = (np.concatenate(col) for col in zip(*chunk))
        try:
            s_dec, x_dec, code = decode_records(self.dnf, d, x_sat, sigma, a)
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
        self._keep(int(position[bad]), int(s_exp[bad]), int(x_exp[bad]), error)

    def result(self) -> tuple[int, tuple[int, int, str] | None]:
        """Decode the rows still buffered and return the first failure's
        position in ``valid_pairs`` order and the failure as (S mask, x_Sbar
        mask, error), or the number of pairs and None; an encoder or decoder
        fault is a failure, not a usage error."""
        for d, chunk in sorted(self._chunks.items()):
            if chunk:
                self._check(d, chunk)
        self._chunks.clear()
        if self._first is None:
            return self.pairs, None
        position, *failure = self._first
        return position, tuple(failure)


def _family_summary(analysis: FamilyAnalysis) -> list[dict]:
    out = []
    for key in sorted(analysis.families):
        stats = analysis.families[key]
        out.append(
            {
                "d": key.d,
                "u": key.u,
                "count": len(stats.members),
                "one_norm": str(stats.one_norm),
                "two_norm_sq": str(stats.two_norm_sq),
                "max_abs_coeff": str(stats.max_abs_coeff),
                "max_num_covers": analysis.max_num_covers(key),
            }
        )
    return out


def _tail_table(analysis: FamilyAnalysis) -> list[dict]:
    return [{"u_cutoff": u_cut, "weight_outside": str(tail),
             "weight_outside_approx": _approx(tail)}
            for u_cut, tail in enumerate(analysis.tails)]


# -- running a battery over the instances -------------------------------------------


def write_report(mode: str, config: ExperimentConfig, out: TextIO,
                 jsonl: TextIO | None = None, csv_dir: str | None = None) -> list[EntryFacts]:
    """Run ``mode`` ("verify" or "sweep") on every instance of ``config`` and
    write the report to ``out`` as it goes: each entry when its instance is
    run, each verify row as soon as it is checked, and the summary last,
    tallied from the entries.  ``jsonl`` gets a line per verify row and
    ``csv_dir``, which must exist, a CSV per instance.  Returns the facts of
    each entry, in instance order.

    With more than one worker, each worker writes its instance's entry and
    lines into text that it returns, and the texts are written in instance
    order as they come back."""
    writer = ReportWriter(out, mode, config.core_dict())
    write = functools.partial(_write_entry, mode, config, csv_dir)
    facts = []
    if config.workers == 1:
        for index, source in enumerate(config.instances):
            writer.entry()
            facts.append(write(index, source, out, jsonl))
    else:
        # imported here: the pool and multiprocessing would add about 1.3 MB
        # to the RSS of every one-worker run
        from concurrent.futures import ProcessPoolExecutor
        render = functools.partial(_render_entry, write, jsonl is not None)
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            for text, lines, fact in pool.map(render, range(len(config.instances)),
                                              config.instances, chunksize=1):
                writer.entry()
                out.write(text)
                if jsonl is not None:
                    jsonl.write(lines)
                facts.append(fact)
    summary = {"instances": len(facts)}
    if mode == "verify":
        failures = sum(fact.failures for fact in facts)
        summary.update(checks=sum(fact.rows for fact in facts), failures=failures,
                       ok=failures == 0)
    writer.close(summary)
    return facts


def _write_entry(mode: str, config: ExperimentConfig, csv_dir: str | None, index: int,
                 source: InstanceSource, out: TextIO, jsonl: TextIO | None) -> EntryFacts:
    """Load the instance at ``index`` and write its entry."""
    verify = mode == "verify"
    csv = None
    if csv_dir is not None:
        kind, render = ("families", family_csv) if verify else ("tail", tail_csv)
        csv = (os.path.join(csv_dir, f"instance_{index:03d}.{kind}.csv"), render)
    try:
        dnf = source.load()
    except (ValueError, OSError) as exc:
        # one unusable instance is an entry in the report; the others still
        # run.  Every input error of the package is a ValueError.
        entry = EntryWriter(out, source.label, True, jsonl, csv)
        return entry.close({"label": source.label, "error": f"{type(exc).__name__}: {exc}",
                            "failures": 1})
    entry = EntryWriter(out, source.label, verify, jsonl, csv)
    try:
        if verify:
            return verify_instance(dnf, source.label, config, entry)
        return entry.close(sweep_instance(dnf, source.label, config))
    except EnclosureUndecidedError as exc:
        # a comparison that stays open at the maximum precision ends this
        # instance's entry after the rows it wrote; the others still run
        return entry.close({"label": source.label, "error": f"{type(exc).__name__}: {exc}",
                            "failures": entry.failures + 1})


def _render_entry(write, lines: bool, index: int,
                  source: InstanceSource) -> tuple[str, str, EntryFacts]:
    """One worker's task: ``write``'s entry for one instance, and its lines
    if ``lines``, as text."""
    out, jsonl = io.StringIO(), io.StringIO() if lines else None
    fact = write(index, source, out, jsonl)
    return out.getvalue(), jsonl.getvalue() if lines else "", fact


def _read_back(mode: str, config: ExperimentConfig) -> dict:
    out = io.StringIO()
    write_report(mode, config, out)
    return json.loads(out.getvalue())


def run_verify(config: ExperimentConfig) -> dict:
    """The verify report of ``config`` as a dict: the text ``write_report``
    writes, read back."""
    return _read_back("verify", config)


# -- concentration sweep ---------------------------------------------------------


def sweep_instance(dnf: Dnf, label: str, config: ExperimentConfig) -> dict:
    n = dnf.n
    s, w, k = dnf.metrics()
    f = dnf.evaluate()
    spec = fourier_transform(f)
    eps = config.eps
    three_over_eps = Fraction(3) / eps
    # the cut of C*w*log2(3/eps) may be 0; a constant (width 0) has no
    # full-depth pair with S nonempty, so degree 0 is all there is
    cap = min(n, DT_CAP, n if config.d_max is None else config.d_max)
    d_max = floor_scaled_log2(three_over_eps, config.c_param * w, cap) if w else 0
    try:
        analysis = FamilyAnalysis(dnf, d_max, RestrictionTables(f), spec)
    except (EncodePreconditionError, EncodingInvariantError) as exc:
        # a failed correctness check, not an input error: the others still run
        return {"label": label, "fault": f"{type(exc).__name__} {exc}", "failures": 1}

    capture_u = next((u for u, tail in enumerate(analysis.tails) if tail <= eps), None)

    weight_cuts = []
    for c in config.c_sweep:
        cut = floor_scaled_log2(three_over_eps, c * w, n) if w else 0
        above = weight_above_degree(spec, cut)
        weight_cuts.append(
            {"C": str(c), "degree_cutoff": cut, "weight_above": str(above),
             "weight_above_approx": _approx(above)}
        )

    u_star_formula, c, u_star = None, _float(config.c_param), config.u_star
    if w and k >= 1 and c is not None:
        # log2 of each int apart: 3/eps may be beyond a double's range, and
        # a label beyond it is null, as in _approx
        log2_three_over_eps = (math.log2(three_over_eps.numerator)
                               - math.log2(three_over_eps.denominator))
        u_star_formula = _float(100 * c * w * math.log2(k + 2) * log2_three_over_eps)
    if u_star is None and u_star_formula is not None:
        # the label's floor, decided exactly
        u_star = floor_scaled_log2(three_over_eps, 100 * config.c_param * w, math.inf, k + 2)

    return {
        "label": label,
        "n": n,
        "metrics": {"size": s, "width": w, "read": k},
        "eps": str(eps),
        "C": str(config.c_param),
        "degree_cutoff": d_max,
        "min_coeffs": min_coeffs_for_eps(spec, eps),
        "one_norm": str(spec.one_norm_total()),
        "total_weight": str(spec.total_weight()),
        "tail_table": _tail_table(analysis),
        "capture_u": capture_u,
        "u_star_formula": None if u_star_formula is None else round(u_star_formula, 6),
        "u_star_override": config.u_star,
        "degree_weight_sweep": weight_cuts,
        "report_only": _theorem_tails(analysis, config, u_star),
    }


def _theorem_tails(analysis: FamilyAnalysis, config: ExperimentConfig,
                   u_star: int | None) -> dict:
    """Theorem-level quantities, evaluated but never asserted: their "large
    enough width" hypotheses fail at desk scale.  Values are decimal
    approximations of exact family weights against the simplified bounds;
    each ``would_hold`` is exact.
    The cutoff ``u_star`` is the config's ``u_star`` when it is set, and
    otherwise the exact floor of 100 C w log2(k+2) log2(3/eps) when its
    label ``u_star_formula`` has a value; with neither there is no u* block."""
    max_ncov = max(map(analysis.max_num_covers, analysis.families), default=0)
    per_u = []
    for u, weight_at_u in enumerate(analysis.weight_at_u):
        simplified = 2.0 ** (-u / 2) * max_ncov
        per_u.append(
            {
                "u": u,
                "family_weight": str(weight_at_u),
                "family_weight_approx": _approx(weight_at_u),
                "simplified_bound_approx": _approx(simplified),
                # weight <= 2^(-u/2) M, squared
                "would_hold": weight_at_u.as_fraction() ** 2 * 2**u <= max_ncov**2,
            }
        )
    tail_beyond_u_star = None
    if u_star is not None:
        tail = sum(analysis.weight_at_u[u_star + 1:], DyadicRational(0))
        tail_beyond_u_star = {
            "u_star_floor": u_star,
            "family_weight_beyond": str(tail),
            "family_weight_beyond_approx": _approx(tail),
            "eps_over_3_approx": _approx(config.eps / 3),
            "would_hold": bool(tail.as_fraction() <= config.eps / 3),
        }
    return {
        "max_num_covers": max_ncov,
        "family_weight_vs_simplified_bound": per_u,
        "tail_beyond_u_star": tail_beyond_u_star,
    }


def run_concentration_sweep(config: ExperimentConfig) -> dict:
    """The sweep report of ``config`` as a dict: the text ``write_report``
    writes, read back."""
    return _read_back("sweep", config)


def family_csv(payload: dict) -> str:
    """CSV of one verify instance's family table, exact values as strings."""
    header = (
        "d,u,count,one_norm,two_norm_sq,max_abs_coeff,max_num_covers,"
        "one_norm_bound,two_norm_bound,one_norm_holds,two_norm_holds"
    )
    by_key = {}
    for row in payload.get("checks", []):
        if row["check"] in FAMILY_CSV_ROWS:
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
