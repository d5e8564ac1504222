"""Metric names, units and what each per-module metric should move.

Names, units, directions and bounds live in ``BENCHMARK.json`` alone.
END_TO_END metrics are what a user of ``ncph`` sees for one cold run of a
workload; PER_LAYER metrics come from a separate traced run.  The map
below names, for each per-layer metric, the end-to-end metric it should
move and the workloads where it should move it, written down before any
optimisation.  On those workloads the traced run must see the layer
called: a metric that reads 0 there fails the run.
"""

from __future__ import annotations

import json
from pathlib import Path

from workloads import SUITE_NAMES

SPEC = json.loads((Path(__file__).resolve().parent.parent
                   / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

LADDER, VERIFY, SLICE = "ncp-ladder", "verify-all", "slice-embed"

# name: (the end-to-end metric it should move, the workloads it is exercised on)
PER_LAYER = {
    "coxeter.system_s": ("setup_s", (LADDER,)),
    "coxeter.product_calls": ("solve_s, max_group_s", (LADDER,)),
    "coxeter.product_distinct": ("solve_s, max_group_s", (LADDER,)),
    "coxeter.product_reuse": ("solve_s, max_group_s", (LADDER,)),
    "coxeter.precedes_calls": ("solve_s, max_group_s", (LADDER,)),
    "pipeline.cache_load_s": ("setup_s", (LADDER,)),
    "pipeline.cache_bytes": ("setup_s", (LADDER,)),
    "rootorder.ordered_s": ("solve_s", (LADDER,)),
    "complexes.build_ncp_s": ("max_group_s", (LADDER,)),
    "complexes.root_complex_s": ("solve_s", (SLICE,)),
    "complexes.order_complex_s": ("solve_s", (VERIFY,)),
    "complexes.betti_s": ("solve_s", (VERIFY,)),
    "complexes.simplices": ("solve_s", (VERIFY,)),
    "complexes.cycles_s": ("solve_s", (VERIFY,)),
    "arrangement.rays_s": ("solve_s", (SLICE,)),
    "arrangement.separation_s": ("solve_s", (SLICE,)),
    "arrangement.chambers_s": ("solve_s", (SLICE,)),
    "arrangement.bounded_s": ("solve_s", (SLICE,)),
    "embed.vertex_complex_s": ("solve_s", (SLICE,)),
    "embed.embedding_s": ("solve_s", (SLICE,)),
    "embed.intersection_lattice_s": ("solve_s", (VERIFY,)),
    "embed.lattice_betti_s": ("solve_s", (VERIFY,)),
    "embed.flat_leq_calls": ("solve_s", (VERIFY,)),
    **{f"verify.{suite}_s": ("total_s", where)
       for suite, where in (
           ("rootorder", (LADDER, VERIFY)), ("lemma48", (LADDER, VERIFY)),
           ("poset-map", (LADDER, VERIFY)), ("fibers", (LADDER, VERIFY)),
           ("betti", (VERIFY,)), ("mobius", (LADDER, VERIFY)),
           ("prop41", (SLICE, VERIFY)), ("prop42", (SLICE, VERIFY)),
           ("mu-dots", (SLICE, VERIFY)), ("embed", (VERIFY,)))},
    "exports.ncp_s": ("solve_s", (LADDER,)),
    "exports.xc_s": ("solve_s", (SLICE,)),
    "exports.lattice_s": ("solve_s", (SLICE,)),
    "exports.embed_s": ("solve_s", (SLICE,)),
    "exports.bytes": ("solve_s", (SLICE,)),
    "render.svg_s": ("solve_s", (SLICE,)),
    "linalg.matmul_calls": ("setup_s, solve_s", (LADDER,)),
    "linalg.rank_calls": ("solve_s", (VERIFY,)),
    "linalg.rank_cells": ("solve_s", (VERIFY,)),
    "linalg.inverse_calls": ("solve_s", (SLICE,)),
    "linalg.apply_calls": ("solve_s", (SLICE,)),
    "fields.scalar_mul_calls": ("setup_s", (LADDER,)),
    "fields.sign_calls": ("solve_s", (SLICE,)),
    "fields.refine_calls": ("solve_s", (SLICE,)),
    "fields.refine_per_sign": ("solve_s", (SLICE,)),
    # traced minus untraced total_s; noise-dominated, may be 0 or negative
    "trace.overhead_s": ("none", ()),
}


def per_layer_values(child: dict, untraced_total_s: float) -> dict[str, float]:
    """The PER_LAYER values of one traced child result."""
    counts, timers = child["counts"], child["timers"]
    span_s: dict[str, float] = {}
    for s in child["spans"]:
        span_s[s["name"]] = span_s.get(s["name"], 0.0) + s["end"] - s["start"]
    out = {}
    for name, unit in PER_LAYER_UNITS.items():
        out[name] = timers.get(name, 0.0) if unit == "s" else counts.get(name, 0)
    for suite in SUITE_NAMES:
        out[f"verify.{suite}_s"] = span_s.get(f"verify:{suite}", 0.0)
    for target in ("ncp", "xc", "lattice", "embed"):
        out[f"exports.{target}_s"] = span_s.get(f"export:{target}", 0.0)
    out["render.svg_s"] = span_s.get("render:svg", 0.0)
    calls = counts.get("coxeter.product_calls", 0)
    out["coxeter.product_reuse"] = (
        1 - counts.get("coxeter.product_distinct", 0) / calls if calls else 0.0)
    signs = counts.get("fields.sign_calls", 0)
    out["fields.refine_per_sign"] = (
        counts.get("fields.refine_calls", 0) / signs if signs else 0.0)
    out["trace.overhead_s"] = child["total_s"] - untraced_total_s
    return out


def unexercised(values: dict[str, float], workload: str) -> list[str]:
    """The per-layer metrics that read 0 on a workload said to exercise them."""
    return [name for name, (_moves, where) in PER_LAYER.items()
            if workload in where and not values[name]]
