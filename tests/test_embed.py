"""The vertex operator, its dot identities, flats, and the incidence matrix."""

import math

import pytest

from ncph.complexes import order_complex
from ncph.embed import (EmbedError, dot_property_report, facet_chambers,
                        flat_leq, intersection_lattice,
                        intersection_lattice_proper_betti, project_to_slice,
                        rays_as_flats_check, vertex_operator)
from ncph.linalg import Matrix, dot, vec_scale
from conftest import bundle_for


def test_rank_one_operator_is_identity():
    bundle = bundle_for("A", 1)
    op = vertex_operator(bundle.system)
    assert op == bundle.system.identity


def test_a2_operator_exists(a2):
    delta = a2.system.identity - a2.system.coxeter_element
    assert delta.det() == a2.system.field.from_rational(3)
    vertex_operator(a2.system)


@pytest.mark.parametrize("label,rank", [("A", 2), ("B", 3)])
def test_dot_identities_exhaustive(label, rank):
    bundle = bundle_for(label, rank)
    report = dot_property_report(bundle.system, bundle.ordered,
                                 bundle.vertex_complex, bundle.generic.vector)
    assert report.ok


def test_projection_properties(a2):
    v = a2.generic.vector
    field = a2.system.field
    assert project_to_slice(v, v) == v
    x = a2.vertex_complex.vertices[0]
    assert project_to_slice(vec_scale(x, field.from_rational(2)), v) \
        == project_to_slice(x, v)
    for vertex in a2.vertex_complex.vertices:
        project_to_slice(vertex, v)  # defined for every vertex
    with pytest.raises(EmbedError):
        project_to_slice(vec_scale(v, field.from_rational(-1)), v)


def test_intersection_lattice_a2(a2):
    flats = intersection_lattice(a2.system)
    assert [f.codim for f in flats] == [0, 1, 1, 1, 2]
    betti = intersection_lattice_proper_betti(a2.system)
    assert betti == {-1: 0, 0: 2}


def test_intersection_lattice_rank_one():
    bundle = bundle_for("A", 1)
    flats = intersection_lattice(bundle.system)
    assert [f.codim for f in flats] == [0, 1]  # proper part empty


def test_intersection_lattice_b3(b3):
    flats = intersection_lattice(b3.system)
    by_codim = {}
    for f in flats:
        by_codim[f.codim] = by_codim.get(f.codim, 0) + 1
    assert by_codim == {0: 1, 1: 9, 2: 13, 3: 1}
    assert intersection_lattice_proper_betti(b3.system) == {-1: 0, 0: 0, 1: 15}
    assert rays_as_flats_check(b3.system, b3.rays)


def test_flat_order_is_reverse_inclusion(a2):
    flats = intersection_lattice(a2.system)
    whole, line = flats[0], flats[1]
    assert flat_leq(a2.system.field, whole, line)
    assert not flat_leq(a2.system.field, line, whole)


@pytest.mark.parametrize("label,rank", [("B", 3), ("H", 3)])
def test_flat_order_agrees_with_the_rank_criterion(label, rank):
    system = bundle_for(label, rank).system
    flats = intersection_lattice(system)
    for a in flats:
        for b in flats:
            # a <= b iff the normals of a lie in the span of the normals of b
            stacked = Matrix(system.field, list(b.normals) + list(a.normals))
            assert flat_leq(system.field, a, b) == (stacked.rank() == b.codim)


@pytest.mark.parametrize("label,rank,exponents", [
    ("A", 3, (1, 2, 3)), ("B", 3, (1, 3, 5)), ("H", 3, (1, 5, 9)),
    ("A", 4, (1, 2, 3, 4)), ("D", 4, (1, 3, 3, 5))])
def test_intersection_lattice_mobius_number_is_the_product_of_exponents(
        label, rank, exponents):
    system = bundle_for(label, rank).system
    flats = intersection_lattice(system)   # sorted by codim: a linear extension
    mu = []
    for x in flats:
        below = [m for y, m in zip(flats, mu) if y.reflections < x.reflections]
        mu.append(-sum(below) if x.reflections else 1)
    mobius = mu[-1]
    # P. Hall: the Moebius number is the reduced Euler characteristic of the
    # order complex of the proper part, counted here from its faces alone
    proper = [f for f in flats if 0 < f.codim < rank]
    cx = order_complex(len(proper),
                       lambda i, j: proper[i].reflections <= proper[j].reflections)
    euler = -1 + sum((-1) ** k * len(faces)
                     for k, faces in cx.simplices_by_dim().items())
    assert mobius == euler
    # Zaslavsky, Orlik-Solomon: mu(L) = (-1)^n e_1 ... e_n, the top Betti number
    betti = intersection_lattice_proper_betti(system)
    assert mobius == (-1) ** rank * math.prod(exponents)
    assert betti == {k: (math.prod(exponents) if k == rank - 2 else 0)
                     for k in range(-1, rank - 1)}


def test_facet_chambers_properties(b3):
    bounded = set(b3.embedding.bounded_positions)
    total = 0
    for facet in b3.vertex_complex.complex.facets:
        members = facet_chambers(b3.system, b3.vertex_complex, facet,
                                 b3.chamber_list)
        assert len(members) >= 1
        assert set(members) <= bounded   # contained chambers are bounded-slice
        total += len(members)
    assert total == b3.embedding.covered_chambers


def test_b3_marked_facet_contains_two_chambers(b3):
    # 1-based vertex labels {2, 4, 8}: internal 0-based {1, 3, 7}
    marked = (1, 3, 7)
    assert marked in b3.vertex_complex.complex.facets
    members = facet_chambers(b3.system, b3.vertex_complex, marked,
                             b3.chamber_list)
    assert len(members) == 2


def test_embedding_report_a2(a2):
    report = a2.embedding
    assert report.bounded_count == 2
    assert report.rank == 2
    assert report.ok


def test_embedding_report_b3(b3):
    report = b3.embedding
    assert report.bounded_count == 15
    assert len(report.facets) == 10
    assert len(report.incidence) == 15
    assert report.rank == 10
    assert report.injective
    assert report.columns_disjoint
    assert report.columns_nonempty
    assert report.incident_all_bounded
    assert sorted(report.column_weights) == [1] * 9 + [2]


@pytest.mark.parametrize("label,rank", [("B", 3), ("H", 3), ("A", 4)])
def test_facet_chambers_agree_with_the_per_chamber_ray_criterion(label, rank):
    bundle = bundle_for(label, rank)
    system, vc = bundle.system, bundle.vertex_complex
    # every ray of every chamber, mapped by the element's matrix
    chamber_rays = [[system.matrix(c.element).apply(d) for d in system.dual_rays]
                    for c in bundle.chamber_list]
    for facet in vc.complex.facets:
        inv = Matrix(system.field,
                     list(zip(*[vc.vertices[i] for i in facet]))).inverse()
        expected = [pos for pos, rays in enumerate(chamber_rays)
                    if all(c.sign() >= 0 for ray in rays for c in inv.apply(ray))]
        assert facet_chambers(system, vc, facet, bundle.chamber_list) == expected
