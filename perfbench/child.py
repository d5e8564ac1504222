"""One benchmark child: runs a seeded plan through the public ncph API.

Usage: python3 perfbench/child.py JOB.json

The parent starts one fresh single-threaded child per run, with a fresh
output directory, so field singletons, product caches and the on-disk
system cache all start cold.  The child writes its result (operations,
spans, times in wall and reference seconds, peak memory and, when traced,
per-module counters) as JSON to the path named in the job.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import oracles
import speed
import tracing
from workloads import SUITE_NAMES


class Run:
    def __init__(self, job: dict, rec: tracing.Recorder, api: SimpleNamespace):
        self.job = job
        self.rec = rec
        self.api = api
        self.out_dir = Path(job["out_dir"])
        self.ops: list[dict] = []
        self.groups: list[dict] = []
        self.export_bytes = 0

    def run(self) -> None:
        with self.rec.span("run"):
            for group in self.job["plan"]:
                self.run_group(group)

    def run_group(self, g: dict) -> None:
        label = g["group"]
        oracle = oracles.oracle(label)
        config = self.api.RunConfig(type_label=g["type"], rank=g["rank"],
                                       swap_classes=g["swap"],
                                       out_dir=str(self.out_dir))
        state = {"bundle": self.api.Bundle(config), "config": config}
        with self.rec.span(f"group:{label}") as span:
            for kind, name in g["ops"]:
                t0 = perf_counter()
                results = self.run_op(kind, name, state, oracle)
                seconds = perf_counter() - t0 if len(results) == 1 else None
                for op, ok, error in results:
                    self.ops.append({"group": label, "op": op, "ok": ok,
                                     "error": error, "seconds": seconds})
                    self.rec.op_done(label, op, ok, seconds)
        self.groups.append({"group": label, "swap": g["swap"],
                            "interval": (span["start"], span["end"])})

    def run_op(self, kind: str, name: str, state: dict, oracle):
        """(operation, ok, error) for each operation of one plan entry."""
        op = f"{kind}:{name}"
        with self.rec.span(op):
            try:
                if kind == "suites":
                    return list(self.all_suites(state["bundle"], oracle))
                misses = getattr(self, "op_" + kind)(name, state, oracle)
            except Exception as err:  # an op that raises is a failed op
                return [(op, False, _describe(err))]
        return [(op, not misses, "; ".join(misses) or None)]

    # -- operations ------------------------------------------------------------

    def op_stage(self, name, state, oracle):
        value = getattr(state["bundle"], name)
        return _misses(STAGE_CHECKS.get(name, _none)(value, oracle))

    def op_suite(self, name, state, oracle, bundle=None):
        bundle = bundle or state["bundle"]
        report = self.api.run_suites(bundle, [name])
        (check,) = report["checks"]
        return _suite_misses(check, bundle, oracle)

    def all_suites(self, bundle, oracle):
        report = self.api.run_suites(bundle)
        by_suite = {c["suite"]: c for c in report["checks"]}
        for name in SUITE_NAMES:
            check = by_suite.get(name)
            misses = (["suite missing from run_suites"] if check is None
                      else _suite_misses(check, bundle, oracle))
            yield f"suite:{name}", not misses, "; ".join(misses) or None

    def op_export(self, name, state, oracle):
        bundle = state["bundle"]
        payload = self.api.EXPORTERS[name](bundle)
        text = self.api.to_json(payload)
        path = self.out_dir / f"{bundle.system.diagram.label}-{name}.json"
        path.write_text(text)
        self.export_bytes += path.stat().st_size
        return _misses(EXPORT_CHECKS[name](payload, oracle))

    def op_render(self, name, state, oracle):
        bundle = state["bundle"]
        svg = self.api.render_svg(bundle)
        path = self.out_dir / f"{bundle.system.diagram.label}-projection.svg"
        path.write_text(svg)
        return _misses([
            ("svg element", svg.lstrip().startswith("<svg"), True),
            ("facet cones drawn", svg.count('class="facet"'), oracle.facets),
        ])

    def op_reload(self, name, state, oracle):
        """A second Bundle on the same output directory: the system comes
        from the cache written by the first, and must agree with it."""
        if name == "system":
            cold = state["bundle"].system
            state["warm"] = self.api.Bundle(state["config"])
            warm = state["warm"].system
            return _misses([
                ("warm |W|", warm.order, cold.order),
                ("warm h", warm.h, cold.h),
                ("warm c", warm.c_index, cold.c_index),
                ("warm lengths", list(warm.lengths), list(cold.lengths)),
                ("warm |T|", len(warm.reflections), len(cold.reflections)),
            ] + _system_checks(warm, oracle))
        return self.op_suite(name, state, oracle, bundle=state["warm"])


# -- oracle checks: (what, actual, expected) -----------------------------------

def _none(value, oracle):
    return []


def _system_checks(system, oracle):
    return [("rank", system.rank, oracle.rank), ("|W|", system.order, oracle.order),
            ("h", system.h, oracle.h),
            ("|T|", len(system.reflections), oracle.reflections)]


STAGE_CHECKS = {
    "system": _system_checks,
    "ordered": lambda o, k: [("roots", o.count, k.reflections)],
    "ncp": lambda ncp, k: [("|NC|", ncp.size, k.ncp_size)],
    "root_complex": lambda xc, k: [("facets", len(xc.facets), k.facets)],
    "chamber_list": lambda cl, k: [("chambers", len(cl), k.order)],
    "bounded_flags": lambda fl, k: [("bounded chambers", sum(fl), k.bounded)],
    "vertex_complex": lambda vc, k: [("vertices", len(vc.vertices), k.reflections)],
    "embedding": lambda e, k: [
        ("incidence rank", e.rank, k.facets),
        ("facet columns", len(e.facets), k.facets),
        ("bounded rows", e.bounded_count, k.bounded),
        ("injective", e.injective, True)],
}


def _suite_misses(check: dict, bundle, oracle) -> list[str]:
    misses = [] if check["passed"] else [f"suite {check['status']}"]
    d = check["details"]
    top = str(oracle.rank - 2)
    expected = {
        "rootorder": lambda: [("roots", d["count"], oracle.reflections)]
        + _system_checks(bundle.system, oracle),
        "lemma48": lambda: [("facets", d["facets"], oracle.facets)],
        "fibers": lambda: [("proper |NC|", d["properElements"],
                            oracle.ncp_size - 2)],
        "betti": lambda: [("top ncp_betti", d["betti"].get(top), oracle.facets)],
        "mobius": lambda: [("Moebius", d["mobius"], oracle.mobius)],
        "prop42": lambda: [("vertices", d["vertices"], oracle.reflections)],
        "embed": lambda: [
            ("bounded chambers", d["boundedChambers"], oracle.bounded),
            ("intersection top Betti", d["intersectionBetti"].get(top),
             oracle.bounded),
            ("incidence rank", d["incidenceRank"], oracle.facets),
            ("facets", d["facets"], oracle.facets)],
    }.get(check["suite"], list)
    if check["passed"]:
        misses += _misses(expected())
    return misses


def _export_ncp(p, k):
    return [("elements", len(p["elements"]), k.ncp_size),
            ("top length", max(e["length"] for e in p["elements"]), k.rank)]


def _export_xc(p, k):
    return [("vertices", len(p["vertices"]), k.reflections),
            ("facets", len(p["facets"]), k.facets)]


def _export_embed(p, k):
    return [("chambers", len(p["chambers"]), k.order),
            ("bounded rows", len(p["incidence"]), k.bounded),
            ("facet columns", {len(r) for r in p["incidence"]}, {k.facets}),
            ("rank", p["rank"], k.facets), ("injective", p["injective"], True)]


def _export_lattice(p, k):
    codims = [f["codim"] for f in p["flats"]]
    return [("whole space", codims.count(0), 1), ("origin", codims.count(k.rank), 1),
            ("hyperplanes", codims.count(1), k.reflections)]


EXPORT_CHECKS = {"ncp": _export_ncp, "xc": _export_xc, "embed": _export_embed,
                 "lattice": _export_lattice}


def _misses(checks) -> list[str]:
    return [f"{what}: got {actual}, expected {expected}"
            for what, actual, expected in checks if actual != expected]


def _describe(err: BaseException) -> str:
    frame = traceback.extract_tb(err.__traceback__)[-1]
    return f"{type(err).__name__}: {err} ({Path(frame.filename).name}:{frame.lineno})"


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    parent = os.getppid()
    # a child whose parent was killed stops at the next probe
    probe = speed.SpeedProbe(watch=lambda: os.getppid() == parent or os._exit(3))
    probe.start()
    t0 = perf_counter()
    sys.path.insert(0, job["src"])
    from ncph import pipeline, verify
    from ncph.exports import EXPORTERS, to_json
    from ncph.render import render_svg
    rec = tracing.Recorder(job["run_id"], job["progress"])
    rec.setup_intervals.append((t0, perf_counter()))

    api = SimpleNamespace(Bundle=pipeline.Bundle, RunConfig=pipeline.RunConfig,
                          run_suites=verify.run_suites, EXPORTERS=EXPORTERS,
                          to_json=to_json, render_svg=render_svg)
    try:
        tracing.install_setup_clock(rec, pipeline)
        tracing.install_suite_spans(rec, verify)
        if job["trace"]:
            tracing.install_counters(rec)
        run = Run(job, rec, api)
        run.run()
    finally:
        t1 = perf_counter()
        probe.stop()
        rec.close()
    counts = dict(rec.counts)
    counts["exports.bytes"] = run.export_bytes
    ref = probe.reference_seconds
    groups = [dict(g, ref_s=ref(*g.pop("interval"))) for g in run.groups]
    result = {
        "wall_s": t1 - t0,
        "total_s": ref(t0, t1),
        "setup_wall_s": sum(b - a for a, b in rec.setup_intervals),
        "setup_s": sum(ref(a, b) for a, b in rec.setup_intervals),
        "probes": len(probe.probes),
        "ops": run.ops,
        "groups": groups,
        "spans": rec.spans,
        "timers": dict(rec.timers),
        "counts": counts,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    Path(job["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
