"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines.
Every equality below is exact (no tolerances): the arithmetic is exact
rational / real-algebraic throughout.
"""

import time

from ncph.complexes import (boundary, cycle_space_rank, fiber_report,
                            poset_map_report)
from ncph.embed import intersection_lattice_proper_betti
from conftest import bfs_reflection_lengths, bundle_for

GROUPS = [("A", 2), ("A", 3), ("B", 2), ("B", 3), ("H", 3),
          ("I", 3), ("I", 4), ("I", 5), ("I", 6), ("I", 7), ("I", 8)]

RANK3 = [(t, r) for t, r in GROUPS]   # the whole list is rank <= 3


def _verdict(number, ok, text):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, text


def test_criterion_1_b3_end_to_end():
    start = time.time()
    bundle = bundle_for("B", 3)
    bounded = sum(bundle.bounded_flags)
    facets = len(bundle.vertex_complex.complex.facets)
    elapsed = time.time() - start
    ok = bounded == 15 and facets == 10 and elapsed < 30
    _verdict(1, ok, f"B3 bounded-slice chambers = {bounded} (want 15), "
                    f"facets = {facets} (want 10), {elapsed:.1f}s < 30s")


def test_criterion_2_homology_rank_identity():
    start = time.time()
    lines = []
    ok = True
    for label, rank in GROUPS:
        bundle = bundle_for(label, rank)
        betti = bundle.ncp_betti
        facets = len(bundle.root_complex.facets)
        top = bundle.system.rank - 2
        good = betti.get(top) == facets and all(
            v == 0 for k, v in betti.items() if k != top)
        ok = ok and good
        lines.append(f"{bundle.system.diagram.label}:{facets}")
    elapsed = time.time() - start
    _verdict(2, ok and elapsed < 120,
             f"reduced Betti in degree n-2 equals facet count, others vanish "
             f"[{', '.join(lines)}] in {elapsed:.1f}s < 120s")


def test_criterion_3_mobius_identity():
    ok = True
    for label, rank in GROUPS:
        bundle = bundle_for(label, rank)
        mu = bundle.ncp.mobius_number()
        expected = (-1) ** bundle.system.rank * len(bundle.root_complex.facets)
        ok = ok and mu == expected
    _verdict(3, ok, "Moebius number = (-1)^n * facet count for all groups")


def test_criterion_4_separation_certificate():
    ok = True
    for label, rank in GROUPS:
        bundle = bundle_for(label, rank)
        lam2 = bundle.separation * bundle.separation
        v = bundle.generic.vector
        form = bundle.system.form
        for ray in bundle.rays:
            p = form(ray, v)
            if p.sign() == 0 or (p * p - form(ray, ray) * lam2).sign() < 0:
                ok = False
    _verdict(4, ok, "(r.v)^2 >= lam^2 (r.r) and r.v != 0 for every ray")


def test_criterion_5_vertex_dot_properties():
    ok = True
    for label, rank in GROUPS:
        bundle = bundle_for(label, rank)
        vertices = bundle.vertex_complex.vertices
        roots = bundle.ordered.roots
        v = bundle.generic.vector
        n = bundle.system.rank
        form = bundle.system.form
        for i in range(len(roots)):
            if form(vertices[i], v).sign() <= 0:
                ok = False
            for j in range(i, len(roots)):
                if form(vertices[i], roots[j]).sign() < 0:
                    ok = False
            for t in range(1, n):
                if i + t < len(roots) and \
                        form(vertices[i + t], roots[i]).sign() != 0:
                    ok = False
    _verdict(5, ok, "vertex.v > 0; vertex_i.root_j >= 0 for i <= j; "
                    "band products vanish - exhaustive")


def test_criterion_6_poset_map_and_fibers():
    ok = True
    for label, rank in RANK3:
        bundle = bundle_for(label, rank)
        pm = poset_map_report(bundle.system, bundle.simplex_images)
        fb = fiber_report(bundle.ordered, bundle.root_complex,
                          bundle.ncp, bundle.simplex_images)
        ok = ok and pm.ok and fb.ok
    _verdict(6, ok, "order preservation and the fiber identity hold for "
                    "every proper element, all rank <= 3 groups")


def test_criterion_7_bounded_count_equals_intersection_betti():
    expected = {("A", 2): 2, ("A", 3): 6, ("B", 3): 15}
    ok = True
    details = []
    for (label, rank), want in expected.items():
        bundle = bundle_for(label, rank)
        bounded = sum(bundle.bounded_flags)
        betti = intersection_lattice_proper_betti(bundle.system)
        top = bundle.system.rank - 2
        good = bounded == want and betti.get(top) == want and all(
            v == 0 for k, v in betti.items() if k != top)
        ok = ok and good
        details.append(f"{label}{rank}:{bounded}")
    _verdict(7, ok, f"bounded-slice count = intersection-lattice Betti "
                    f"[{', '.join(details)}] (want A2:2 A3:6 B3:15)")


def test_criterion_8_embedding_incidence():
    ok = True
    for label, rank in RANK3:
        bundle = bundle_for(label, rank)
        report = bundle.embedding
        ok = ok and report.ok and report.rank == len(report.facets)
    b3 = bundle_for("B", 3)
    marked = (1, 3, 7)   # vertices mu(rho_2), mu(rho_4), mu(rho_8), 0-based
    col = list(b3.embedding.facets).index(marked)
    weight = b3.embedding.column_weights[col]
    ok = ok and weight == 2
    _verdict(8, ok, f"columns disjoint+nonempty, rank = facet count for all "
                    f"groups; B3 facet (2,4,8) has column weight {weight} "
                    f"(want 2)")


def test_criterion_9_explicit_basis_cycles():
    ok = True
    for label, rank in RANK3:
        bundle = bundle_for(label, rank)
        cycles = bundle.basis_cycles
        closed = not any(boundary(c) for c in cycles)
        rank_h = cycle_space_rank(cycles, bundle.ncp_order_complex,
                                  bundle.system.rank - 2)
        ok = ok and closed and rank_h == len(bundle.root_complex.facets)
    _verdict(9, ok, "every facet cycle closes and the collection has full "
                    "rank = facet count in top reduced homology")


def test_criterion_10_length_oracle_equivalence():
    ok = True
    for label, rank in RANK3:
        bundle = bundle_for(label, rank)
        ok = ok and (bfs_reflection_lengths(bundle.system)
                     == bundle.system.lengths)
    _verdict(10, ok, "fixed-space codimension length = breadth-first minimal "
                     "word length for every element of every group")
