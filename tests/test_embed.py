"""The vertex operator, its dot identities, flats, and the incidence columns."""

import math
from fractions import Fraction
from functools import reduce
from itertools import combinations
from types import SimpleNamespace

import pytest

from ncph import serialize
from ncph.complexes import order_complex
from ncph.embed import (EmbedError, VertexComplex, embedding_report,
                        flat_covers, flat_leq, flat_normals,
                        intersection_lattice,
                        intersection_lattice_proper_betti, nonpositive_slice,
                        pairing_report, rays_as_flats_check, vertex_operator)
from ncph.exports import export_embed, export_lattice
from ncph.fields import Scalar
from ncph.linalg import Matrix, vec_key, vec_scale, vec_sub
from conftest import bundle_for, vec_add


def test_rank_one_operator_is_identity():
    bundle = bundle_for("A", 1)
    op = vertex_operator(bundle.system)
    assert op == bundle.system.identity


def test_a2_operator_exists(a2):
    delta = a2.system.identity - a2.system.coxeter_element
    assert delta.rank() == 2
    assert vertex_operator(a2.system) * delta == a2.system.identity.scale(2)


def test_operator_of_a_singular_rotation_is_rejected(a2):
    """With c = I, I - c is singular and has no inverse."""
    stub = SimpleNamespace(identity=a2.system.identity,
                           coxeter_element=a2.system.identity)
    with pytest.raises(EmbedError, match="singular"):
        vertex_operator(stub)


@pytest.mark.parametrize("label,rank", [("A", 2), ("B", 3)])
def test_dot_identities_exhaustive(label, rank):
    bundle = bundle_for(label, rank)
    system, vc = bundle.system, bundle.vertex_complex
    assert pairing_report(system, vc).ok
    assert nonpositive_slice(system, vc, bundle.generic) == []


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
    assert rays_as_flats_check(b3.system, b3.rays, b3.lattice)


def test_flat_order_is_reverse_inclusion(a2):
    flats = intersection_lattice(a2.system)
    whole, line = flats[0], flats[1]
    assert flat_leq(whole, line)
    assert not flat_leq(line, whole)


@pytest.mark.parametrize("label,rank", [("B", 3), ("H", 3)])
def test_flat_order_agrees_with_the_rank_criterion(label, rank):
    system = bundle_for(label, rank).system
    flats = intersection_lattice(system)
    normals = [flat_normals(system, f) for f in flats]
    for a, na in zip(flats, normals):
        for b, nb in zip(flats, normals):
            # a <= b iff the normals of a lie in the span of the normals of b
            stacked = Matrix(system.field, list(nb) + list(na))
            assert flat_leq(a, b) == (stacked.rank() == b.codim)


@pytest.mark.parametrize("label,rank", [("B", 3), ("H", 3), ("F", 4)])
def test_intersection_lattice_makes_no_field_call(label, rank, monkeypatch):
    system = bundle_for(label, rank).system

    def refuse(*args, **kwargs):
        raise AssertionError("field arithmetic while building L(W)")

    monkeypatch.setattr(Matrix, "__init__", refuse)
    monkeypatch.setattr(Scalar, "__mul__", refuse)
    flats = intersection_lattice(system)
    monkeypatch.undo()
    codims = [f.codim for f in flats]
    assert codims == sorted(codims)
    assert codims[0] == 0 and codims[-1] == rank
    assert all(len(flat_normals(system, f)) == f.codim for f in flats)


@pytest.mark.parametrize("label,rank,exponents", [
    ("A", 3, (1, 2, 3)), ("B", 3, (1, 3, 5)), ("H", 3, (1, 5, 9)),
    ("A", 4, (1, 2, 3, 4)), ("D", 4, (1, 3, 3, 5)), ("B", 4, (1, 3, 5, 7))])
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
    cx = order_complex(flat_covers(proper))
    euler = -1 + sum((-1) ** k * len(faces)
                     for k, faces in cx.simplices_by_dim().items())
    assert mobius == euler
    # Zaslavsky, Orlik-Solomon: mu(L) = (-1)^n e_1 ... e_n, the top Betti number
    betti = intersection_lattice_proper_betti(system)
    assert mobius == (-1) ** rank * math.prod(exponents)
    assert betti == {k: (math.prod(exponents) if k == rank - 2 else 0)
                     for k in range(-1, rank - 1)}
    # Orlik-Solomon: the characteristic polynomial, the sum over flats X of
    # mu(V, X) t^(n - codim X), is prod (t - e_i), so the codim-k terms sum
    # to (-1)^k e_k(exponents)
    for k in range(rank + 1):
        assert sum(m for x, m in zip(flats, mu) if x.codim == k) == (
            (-1) ** k * sum(map(math.prod, combinations(exponents, k))))


def test_facet_chambers_properties(b3):
    report = b3.embedding
    assert report.facets == list(b3.vertex_complex.complex.facets)
    bounded = set(report.bounded_positions)
    total = 0
    for members in report.columns:
        assert len(members) >= 1
        assert set(members) <= bounded   # contained chambers are bounded-slice
        total += len(members)
    assert total == report.covered_chambers


def test_b3_marked_facet_contains_two_chambers(b3):
    # 1-based vertex labels {2, 4, 8}: internal 0-based {1, 3, 7}
    marked = (1, 3, 7)
    report = b3.embedding
    assert marked in report.facets
    assert len(report.columns[report.facets.index(marked)]) == 2


def test_embedding_report_a2(a2):
    report = a2.embedding
    assert report.bounded_count == 2
    assert report.rank == 2
    assert report.ok


def test_embedding_report_b3(b3):
    report = b3.embedding
    assert report.bounded_count == 15
    assert len(report.facets) == 10
    assert len(report.columns) == 10
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
    report = bundle.embedding
    # every ray of every chamber, mapped by the element's matrix
    chamber_rays = [[system.matrix(c.element).apply(d) for d in system.dual_rays]
                    for c in bundle.chamber_list]
    for facet, column in zip(report.facets, report.columns):
        inv = Matrix(system.field,
                     list(zip(*[vc.vertices[i] for i in facet]))).inverse()
        expected = [pos for pos, rays in enumerate(chamber_rays)
                    if all(c.sign() >= 0 for ray in rays for c in inv.apply(ray))]
        assert column == expected


def _per_ray_facet_chambers(system, vc, facet, chamber_list):
    """The chambers whose rays all have nonnegative coordinates in the
    facet's vertex basis, each distinct ray id decided once; the vectors
    come from the system's table of orbit rays."""
    table = system.orbit_rays[0]
    inv = Matrix(system.field,
                 list(zip(*[vc.vertices[i] for i in facet]))).inverse()
    inside = {}
    contained = []
    for pos, chamber in enumerate(chamber_list):
        for k in chamber.ray_ids:
            if k not in inside:
                inside[k] = all(c.sign() >= 0 for c in inv.apply(table[k]))
            if not inside[k]:
                break
        else:
            # the sum of the rays is interior to the chamber
            interior = reduce(vec_add, (table[k] for k in chamber.ray_ids))
            assert all(c.sign() > 0 for c in inv.apply(interior))
            contained.append(pos)
    return contained


@pytest.mark.parametrize("label,rank", [("A", 3), ("B", 3), ("H", 3),
                                        ("A", 4), ("D", 4), ("B", 4),
                                        ("F", 4)])
def test_facet_walk_matches_the_per_ray_criterion(label, rank):
    bundle = bundle_for(label, rank)
    system, vc, chamber_list = (bundle.system, bundle.vertex_complex,
                                bundle.chamber_list)
    report = bundle.embedding
    assert len(report.columns) == len(report.facets)
    # the report's walks start where the previous facet's descent ended
    for col, facet in enumerate(report.facets):
        expected = _per_ray_facet_chambers(system, vc, facet, chamber_list)
        assert report.columns[col] == expected
        assert report.column_weights[col] == len(expected)


@pytest.mark.parametrize("label,rank,swap", [
    ("A", 3, False), ("B", 3, False), ("B", 3, True), ("H", 3, False),
    ("B", 4, False)])
def test_exported_incidence_rows_are_the_column_memberships(label, rank, swap):
    bundle = bundle_for(label, rank, swap)
    report = bundle.embedding
    payload = export_embed(bundle)
    members = [set(c) for c in report.columns]
    assert payload["boundedChamberIds"] == report.bounded_positions
    assert payload["incidence"] == [[int(pos in m) for m in members]
                                    for pos in report.bounded_positions]
    assert payload["columnWeights"] == [len(m) for m in members]
    assert payload["rank"] == report.rank == len(report.facets)


def _doctored(vc, position, vertex):
    vertices = list(vc.vertices)
    vertices[position] = vertex
    return VertexComplex(vc.operator, vertices, vc.complex, vc.roots,
                         vc.covectors)


def test_facet_walk_rejects_dependent_vertices(b3):
    vc = b3.vertex_complex
    f = vc.complex.facets[0]
    doctored = _doctored(vc, f[0], vec_scale(vc.vertices[f[1]], 2))
    with pytest.raises(EmbedError, match="linearly dependent"):
        embedding_report(b3.system, doctored, b3.chamber_list, b3.bounded_flags)


def test_facet_walk_rejects_a_wall_off_the_reflection_hyperplanes(b3):
    vc = b3.vertex_complex
    f = vc.complex.facets[0]
    third = b3.system.field.from_rational(Fraction(1, 3))
    moved = vec_add(vc.vertices[f[0]], vec_scale(vc.vertices[f[1]], third))
    doctored = _doctored(vc, f[0], moved)
    # the face opposite f[1] now spans a plane normal to no root
    form = b3.system.form
    assert not any(form(moved, rho).is_zero()
                   and form(vc.vertices[f[2]], rho).is_zero()
                   for rho in vc.roots)
    with pytest.raises(EmbedError, match="no reflection hyperplane"):
        embedding_report(b3.system, doctored, b3.chamber_list, b3.bounded_flags)


def _in_row_space(rref, v):
    """Whether v reduces to zero against the rows of a reduced echelon form."""
    for row in rref:
        pivot = next(i for i, e in enumerate(row) if not e.is_zero())
        if not v[pivot].is_zero():
            v = vec_sub(v, vec_scale(row, v[pivot]))
    return all(e.is_zero() for e in v)


def _rref_closure(system):
    """L(W) by iterated closure from the whole space: each flat meets every
    hyperplane not containing it in a cover (a hyperplane containing a
    cover found so far gives that cover again).  (normals, reflections) per
    flat, in (codim, key) order."""
    normals = [root for _, root in system.reflections]
    seen = {}

    def flat_of(rows):
        rref = tuple(r for r in Matrix(system.field, rows).rref().rows
                     if not all(e.is_zero() for e in r)) if rows else ()
        key = tuple(vec_key(r) for r in rref)
        if key not in seen:
            seen[key] = (rref, frozenset(i for i, h in enumerate(normals)
                                         if _in_row_space(rref, h)))
        return seen[key]

    frontier = [flat_of([])]
    while frontier:
        covers = {}
        for rref, refs in frontier:
            done = set(refs)
            for i, h in enumerate(normals):
                if i not in done:
                    cover = flat_of(list(rref) + [h])
                    assert len(cover[0]) == len(rref) + 1
                    done |= cover[1]
                    covers[cover[1]] = cover
        frontier = list(covers.values())
    return [seen[k] for k in sorted(seen, key=lambda k: (len(k), k))]


def _flat_key(system, flat):
    """(codim, rational coordinates of the canonical normals)."""
    return flat.codim, tuple(map(vec_key, flat_normals(system, flat)))


@pytest.mark.parametrize("label,rank", [("A", 3), ("B", 3), ("H", 3),
                                        ("A", 4), ("D", 4), ("F", 4)])
def test_intersection_lattice_matches_the_rref_closure(label, rank):
    bundle = bundle_for(label, rank)
    system = bundle.system
    flats = sorted(intersection_lattice(system),
                   key=lambda f: _flat_key(system, f))
    expected = _rref_closure(system)
    assert [flat_normals(system, f) for f in flats] == [
        normals for normals, _ in expected]
    assert [f["normals"] for f in export_lattice(bundle)["flats"]] == [
        [serialize.vector(r) for r in normals] for normals, _ in expected]
    assert [f.reflections for f in flats] == [refs for _, refs in expected]


@pytest.mark.parametrize("label,rank", [("A", 3), ("B", 3), ("H", 3),
                                        ("A", 4), ("D", 4), ("B", 4), ("F", 4)])
def test_intersection_lattice_integer_order_is_the_fraction_key_order(label, rank):
    bundle = bundle_for(label, rank)
    keys = [_flat_key(bundle.system, f) for f in bundle.lattice]
    assert len(set(keys)) == len(keys)   # a total order
    # the exported flats, read back as Fractions, come in key order
    exported = [(f["codim"], tuple(tuple(tuple(map(Fraction, x)) for x in r)
                                   for r in f["normals"]))
                for f in export_lattice(bundle)["flats"]]
    assert exported == sorted(keys)
