"""Spans and per-module counters, recorded from outside the program.

Nothing here edits a source file of ``ncph``: each counter or timer wraps a
public callable where it is looked up (a class attribute, or the module
global a caller reads at call time, e.g. ``pipeline.build_ncp``), and every
patch is undone by ``Recorder.restore``.
"""

from __future__ import annotations

import os
import weakref
from collections import defaultdict
from contextlib import contextmanager
from functools import cached_property, wraps
from time import perf_counter


class Recorder:
    """The spans, counters and timers of one child run, kept in memory.

    Span starts and finished operations are also appended to a progress
    file, line-buffered, so a parent that has to kill the child can still
    tell what it had finished and what it was doing.
    """

    def __init__(self, run_id: str, progress_path: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.timers: dict[str, float] = defaultdict(float)
        self.setup_intervals: list[tuple[float, float]] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._progress = open(progress_path, "a", buffering=1)
        self._progress.write(f"pid {os.getpid()}\n")

    def close(self) -> None:
        self.restore()
        self._progress.close()

    # -- spans ---------------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        record = {"id": len(self.spans), "name": name, "run": self.run_id,
                  "parent": self._stack[-1] if self._stack else None,
                  "start": perf_counter(), "end": None}
        self.spans.append(record)
        self._stack.append(record["id"])
        self._progress.write(f"start {name}\n")
        try:
            yield record
        finally:
            record["end"] = perf_counter()
            self._stack.pop()

    def op_done(self, group: str, op: str, ok: bool, seconds) -> None:
        self._progress.write(f"op {group} {op} {'ok' if ok else 'fail'} "
                             f"{seconds}\n")

    # -- patching --------------------------------------------------------------

    def patch(self, owner, attr: str, make) -> None:
        """Replace ``owner.attr`` (or ``owner[attr]`` for a dict) by
        ``make(original)``.  A missing target is an error: a renamed
        function would otherwise leave its metric silently at 0."""
        if isinstance(owner, dict):
            original = owner.get(attr)
        elif isinstance(owner, type):
            original = owner.__dict__.get(attr)
        else:
            original = getattr(owner, attr, None)
        if original is None:
            raise LookupError(f"nothing to wrap at {getattr(owner, '__name__', 'dict')}"
                              f".{attr}; the benchmark needs updating")
        self._set(owner, attr, make(original))
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            self._set(*self._patches.pop())

    @staticmethod
    def _set(owner, attr, value) -> None:
        if isinstance(owner, dict):
            owner[attr] = value
        else:
            setattr(owner, attr, value)

    def timed(self, metric: str):
        timers = self.timers

        def make(fn):
            @wraps(fn)
            def wrapper(*args, **kwargs):
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    timers[metric] += perf_counter() - t0
            return wrapper
        return make

    def counted(self, metric: str, weight=None):
        """Count calls, or add ``weight(*args)`` per call when given."""
        counts = self.counts

        def make(fn):
            if weight is None:
                @wraps(fn)
                def wrapper(*args, **kwargs):
                    counts[metric] += 1
                    return fn(*args, **kwargs)
            else:
                @wraps(fn)
                def wrapper(*args, **kwargs):
                    counts[metric] += weight(*args)
                    return fn(*args, **kwargs)
            return wrapper
        return make


def _behind_property(make):
    """Apply ``make`` to the function behind a ``functools.cached_property``."""
    def make_property(prop):
        new = cached_property(make(prop.func))
        new.__set_name__(None, prop.attrname)
        return new
    return make_property


def install_setup_clock(rec: Recorder, pipeline) -> None:
    """Record the interval of every computing ``Bundle.system`` access (cold
    build with its cache write, or warm cache load) in ``setup_intervals``."""
    def clock(fn):
        @wraps(fn)
        def system(bundle):
            t0 = perf_counter()
            try:
                return fn(bundle)
            finally:
                rec.setup_intervals.append((t0, perf_counter()))
        return system
    rec.patch(pipeline.Bundle, "system", _behind_property(clock))


def install_suite_spans(rec: Recorder, verify) -> None:
    """One span per suite call, also inside a single ``run_suites`` call."""
    def make(name):
        def wrap(fn):
            @wraps(fn)
            def suite(bundle):
                with rec.span(f"verify:{name}"):
                    return fn(bundle)
            return suite
        return wrap

    for name in list(verify.SUITES):
        rec.patch(verify.SUITES, name, make(name))


def install_counters(rec: Recorder) -> None:
    """The per-module timers and counters of a traced run."""
    from ncph import (complexes, coxeter, embed, fields, linalg, pipeline,
                      verify)

    T, C = rec.timed, rec.counted
    rec.patch(coxeter.CoxeterSystem, "__init__", T("coxeter.system_s"))
    rec.patch(coxeter.CoxeterSystem, "precedes", C("coxeter.precedes_calls"))
    rec.patch(coxeter.CoxeterSystem, "product", _product_counter(rec))

    rec.patch(pipeline, "_load_system_cache", T("pipeline.cache_load_s"))
    rec.patch(pipeline, "_write_system_cache", _cache_bytes(rec))
    rec.patch(pipeline, "ordered_roots", T("rootorder.ordered_s"))

    rec.patch(pipeline, "build_ncp", T("complexes.build_ncp_s"))
    rec.patch(pipeline, "build_root_complex", T("complexes.root_complex_s"))
    rec.patch(pipeline, "order_complex", T("complexes.order_complex_s"))
    rec.patch(pipeline, "betti_numbers", T("complexes.betti_s"))
    rec.patch(pipeline, "facet_boundary_cycles", T("complexes.cycles_s"))
    rec.patch(verify, "cycle_space_rank", T("complexes.cycles_s"))
    rec.patch(complexes.SimplicialComplex, "simplices_by_dim",
              _simplex_counter(rec))

    rec.patch(pipeline, "enumerate_rays", T("arrangement.rays_s"))
    rec.patch(pipeline, "ray_separation_bound", T("arrangement.separation_s"))
    rec.patch(pipeline, "chambers", T("arrangement.chambers_s"))
    rec.patch(pipeline, "bounded_slice", T("arrangement.bounded_s"))

    rec.patch(pipeline, "vertex_complex", T("embed.vertex_complex_s"))
    rec.patch(pipeline, "embedding_report", T("embed.embedding_s"))
    rec.patch(embed, "intersection_lattice", T("embed.intersection_lattice_s"))
    rec.patch(verify, "intersection_lattice_proper_betti",
              T("embed.lattice_betti_s"))
    rec.patch(embed, "flat_leq", C("embed.flat_leq_calls"))

    rec.patch(linalg.Matrix, "__mul__", C("linalg.matmul_calls"))
    rec.patch(linalg.Matrix, "rank", C("linalg.rank_calls"))
    rec.patch(linalg.Matrix, "rank",
              C("linalg.rank_cells", lambda m: m.nrows * m.ncols))
    rec.patch(linalg.Matrix, "inverse", C("linalg.inverse_calls"))
    rec.patch(linalg.Matrix, "apply", C("linalg.apply_calls"))

    mul = C("fields.scalar_mul_calls")(fields.Scalar.__dict__["__mul__"])
    for attr in ("__mul__", "__rmul__"):
        rec.patch(fields.Scalar, attr, lambda _orig: mul)
    rec.patch(fields.Scalar, "sign", C("fields.sign_calls"))
    rec.patch(fields.NumberField, "refine_interval", C("fields.refine_calls"))


def _product_counter(rec: Recorder):
    """Calls of ``CoxeterSystem.product`` and how many distinct (i, j) each
    system was asked for; the rest were answered from earlier products."""
    counts = rec.counts
    asked = weakref.WeakKeyDictionary()

    def make(fn):
        @wraps(fn)
        def product(system, i, j):
            counts["coxeter.product_calls"] += 1
            seen = asked.get(system)
            if seen is None:
                seen = asked[system] = set()
            if (i, j) not in seen:
                seen.add((i, j))
                counts["coxeter.product_distinct"] += 1
            return fn(system, i, j)
        return product
    return make


def _cache_bytes(rec: Recorder):
    counts = rec.counts

    def make(fn):
        @wraps(fn)
        def write(config, system):
            fn(config, system)
            counts["pipeline.cache_bytes"] += config.cache_path().stat().st_size
        return write
    return make


def _simplex_counter(rec: Recorder):
    counts = rec.counts

    def make(fn):
        @wraps(fn)
        def simplices_by_dim(complex_, *args, **kwargs):
            by_dim = fn(complex_, *args, **kwargs)
            counts["complexes.simplices"] += sum(len(v) for v in by_dim.values())
            return by_dim
        return simplices_by_dim
    return make


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the part its child spans cover."""
    out = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out
