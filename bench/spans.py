"""Spans and counts around the calls into each layer of `dnf_fourier`.

`install` replaces each layer's public functions at the names their
callers look up (for example `experiments.encode` and
`covers.cover_counts_by_union`) with wrappers. A timed wrapper records a
span: layer name, start, end and the span that was open when it began.
Hot tiny calls (`RestrictionTables.dt_by_full` on a cached mask) are
counted, not timed. Spans stay in memory and `save` writes them out when
the process ends; `layer_metrics` turns them into per-layer self times.
"""
from __future__ import annotations

import importlib
import json
import time
from array import array

import numpy as np

#: Per-layer metrics in the order they are reported, with their units.
METRICS = {
    "restrictions.tables_s": "s",
    "restrictions.tables_built": "count",
    "restrictions.lookups": "count",
    "restrictions.checks_s": "s",
    "encoder.encode_s": "s",
    "encoder.encodes": "count",
    "encoder.decode_s": "s",
    "encoder.decodes": "count",
    "encoder.encodes_per_pair": "ratio",
    "covers.classify_s": "s",
    "covers.count_s": "s",
    "covers.counts": "count",
    "covers.counts_per_subset": "ratio",
    "covers.checks_s": "s",
    "enclosures.decide_s": "s",
    "enclosures.decides": "count",
    "boolfn.wht_s": "s",
    "boolfn.rank_s": "s",
    "boolfn.weights_s": "s",
    "dnf.evaluate_s": "s",
    "dnf.evaluations": "count",
    "experiments.run_s": "s",
    "experiments.battery_s": "s",
    "experiments.render_s": "s",
    "experiments.report_mb": "MB",
    "cli.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}

#: Layer of each wrapped function, keyed by (module, attribute) where the
#: caller looks the name up.  "Class.method" names patch the class.
LAYERS = {
    "restrictions.tables": [("restrictions", "RestrictionTables.dt_by_sbar")],
    "restrictions.checks": [("experiments", "evasive_bound_check"),
                            ("experiments", "cover_probability_check"),
                            ("experiments", "satisfied_union_table")],
    "encoder.encode": [("experiments", "encode"), ("covers", "extract_cover")],
    "encoder.decode": [("experiments", "decode")],
    "covers.classify": [("covers", "FamilyAnalysis.__init__")],
    "covers.count": [("covers", "cover_counts_by_union")],
    "covers.checks": [("experiments", name) for name in (
        "onenorm_count_check", "onenorm_width_binom_check", "pair_count_binom_check",
        "family_onenorm_count_check", "check_onenorm_u", "check_twonorm_u",
        "family_cauchy_check", "check_abs_fourier_u", "read_cover_count_bound",
        "exact_width_cover_bound", "st_inequality_check", "budget_lemma_bound")],
    "enclosures.decide": [("covers", "decide_le"), ("experiments", "floor_scaled_log2")],
    "boolfn.wht": [("experiments", "fourier_transform"), ("covers", "fourier_transform"),
                   ("experiments", "walsh_butterfly")],
    "boolfn.rank": [("experiments", "min_coeffs_for_eps"), ("experiments", "ranked_masks")],
    "boolfn.weights": [("experiments", "hamming_distance_fraction"),
                       ("experiments", "weight_outside_masks"),
                       ("experiments", "weight_above_degree")],
    "dnf.evaluate": [("dnf", "Dnf.evaluate")],
    "experiments.run": [("cli", "run_verify"), ("cli", "run_concentration_sweep")],
    "experiments.battery": [("experiments", "verify_instance"),
                            ("experiments", "sweep_instance")],
    "experiments.render": [("cli", "render_json")],
}
ROOT = "cli"


class Tracer:
    def __init__(self, t0: float):
        self.layers = [ROOT]
        self.layer = array("i", [0])
        self.start = array("d", [t0])
        self.end = array("d", [0.0])
        self.parent = array("i", [-1])
        self.stack = [0]
        self.counts = {"restrictions.tables_built": 0, "restrictions.lookups": 0}
        self.pairs: set[int] = set()
        self.subsets: set[int] = set()

    def timed(self, layer: str, fn):
        if layer not in self.layers:
            self.layers.append(layer)
        layer_id = self.layers.index(layer)
        clock = time.monotonic

        def wrapper(*args, **kwargs):
            span = len(self.start)
            self.layer.append(layer_id)
            self.parent.append(self.stack[-1])
            self.end.append(0.0)
            self.stack.append(span)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[span] = clock()
                self.stack.pop()

        return wrapper

    def finish(self, t_end: float) -> None:
        self.end[0] = t_end

    def save(self, path: str, report_bytes: int) -> None:
        np.savez(path, layer=np.frombuffer(self.layer, dtype=np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 meta=np.array(json.dumps({
                     "layers": self.layers,
                     "counts": self.counts,
                     "pairs": len(self.pairs),
                     "subsets": len(self.subsets),
                     "report_bytes": report_bytes,
                 })))


def install(t0: float) -> Tracer:
    """Wrap every function named in LAYERS and return the tracer."""
    tracer = Tracer(t0)
    for layer, sites in LAYERS.items():
        for module_name, attr in sites:
            module = importlib.import_module(f"dnf_fourier.{module_name}")
            owner, _, name = attr.rpartition(".")
            target = getattr(module, owner) if owner else module
            setattr(target, name, tracer.timed(layer, getattr(target, name)))
    _install_counters(tracer)
    return tracer


def _install_counters(tracer: Tracer) -> None:
    from dnf_fourier import covers, experiments, restrictions

    tables = restrictions.RestrictionTables
    by_sbar = tables.dt_by_sbar          # already the timed wrapper
    by_full = tables.dt_by_full
    by_full_timed = tracer.timed("restrictions.tables", by_full)
    counts = tracer.counts

    def dt_by_sbar(self, free_mask):
        if free_mask not in getattr(self, "_by_sbar", ()):
            counts["restrictions.tables_built"] += 1
        return by_sbar(self, free_mask)

    def dt_by_full(self, free_mask):
        counts["restrictions.lookups"] += 1
        if free_mask in getattr(self, "_by_full", ()):
            return by_full(self, free_mask)
        return by_full_timed(self, free_mask)

    tables.dt_by_sbar = dt_by_sbar
    tables.dt_by_full = dt_by_full

    def pair_counter(fn):
        def wrapper(dnf, s_mask, xsbar_bits, *args, **kwargs):
            tracer.pairs.add(s_mask << dnf.n | xsbar_bits)
            return fn(dnf, s_mask, xsbar_bits, *args, **kwargs)
        return wrapper

    experiments.encode = pair_counter(experiments.encode)
    covers.extract_cover = pair_counter(covers.extract_cover)

    count = covers.cover_counts_by_union

    def cover_counts_by_union(dnf, s_mask):
        tracer.subsets.add(s_mask)
        return count(dnf, s_mask)

    covers.cover_counts_by_union = cover_counts_by_union


def layer_metrics(path: str) -> dict[str, float]:
    """Per-layer self times and counts from a saved trace.

    A span's self time is its length minus the time its child spans
    cover, so the self times of all layers add up to the root span, which
    runs from process launch until the report is written."""
    data = np.load(path)
    meta = json.loads(str(data["meta"]))
    layer, parent = data["layer"], data["parent"]
    length = data["end"] - data["start"]
    if (length < 0).any():
        raise ValueError("a span ended before it started")
    inner = np.bincount(parent[1:], weights=length[1:], minlength=length.size)
    self_time = np.bincount(layer, weights=length - inner, minlength=len(meta["layers"]))
    calls = np.bincount(layer, minlength=len(meta["layers"]))
    by_layer = {name: (float(self_time[i]), int(calls[i]))
                for i, name in enumerate(meta["layers"])}

    def secs(name):
        return by_layer.get(name, (0.0, 0))[0]

    def calls_of(name):
        return by_layer.get(name, (0.0, 0))[1]

    counts = meta["counts"]
    encodes = calls_of("encoder.encode")
    cover_counts = calls_of("covers.count")
    out = {f"{name}_s": secs(name) for name in LAYERS}
    out.update({
        "restrictions.tables_built": counts["restrictions.tables_built"],
        "restrictions.lookups": counts["restrictions.lookups"],
        "encoder.encodes": encodes,
        "encoder.decodes": calls_of("encoder.decode"),
        "encoder.encodes_per_pair": encodes / meta["pairs"] if meta["pairs"] else 0.0,
        "covers.counts": cover_counts,
        "covers.counts_per_subset":
            cover_counts / meta["subsets"] if meta["subsets"] else 0.0,
        "enclosures.decides": calls_of("enclosures.decide"),
        "dnf.evaluations": calls_of("dnf.evaluate"),
        "experiments.report_mb": meta["report_bytes"] / 1e6,
        "cli.self_s": secs(ROOT),
        "trace.wall_s": float(length[0]),
    })
    return out
