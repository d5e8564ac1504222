"""Lattice, flag complex, order complexes, homology, cycles, Moebius."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ncph.complexes import (ComplexError, SimplicialComplex, _sparse_rank,
                            betti_numbers, boundary, build_ncp,
                            build_root_complex, cycle_space_rank,
                            facet_boundary_cycles, fiber_report,
                            order_complex, poset_map_report,
                            simplex_length_rule_failures)
from ncph.coxeter import BudgetExceededError
from ncph.embed import flat_covers, flat_leq, intersection_lattice
from ncph.fields import rationals
from ncph.linalg import Matrix
from conftest import (bundle_for, full_subcomplex, reference_fiber_report,
                      reference_mobius_number, restricted_complex, walk_ncp)

# every group whose NC(W) side the verify suites check, both class orders
NC_GROUPS = [(label, rank, swap) for label, rank in [
    ("A", 1), ("A", 2), ("A", 3), ("B", 3), ("H", 3), ("A", 4), ("D", 4),
    ("B", 4), ("F", 4), ("H", 4), ("E", 6)] for swap in (False, True)]


def test_ncp_rank_one():
    ncp = bundle_for("A", 1).ncp
    assert ncp.size == 2
    assert ncp.length(ncp.top) == 1


def test_ncp_a2_five_elements(a2):
    ncp = a2.ncp
    assert ncp.size == 5
    assert sorted(ncp.length(p) for p in range(ncp.size)) == [0, 1, 1, 1, 2]


def _reference_ncp(system):
    """NC(W) by its definition: every w with w <= c, one ``precedes`` call
    per element of W, sorted like the lattice, with a covered by a t for
    each reflection t that keeps a t inside and raises the length by
    one."""
    members = sorted((w for w in range(system.order)
                      if system.precedes(w, system.c_index)),
                     key=system.element_sort_key)
    position = {w: p for p, w in enumerate(members)}
    covers = [sorted(position[b] for b in (system.product(a, t)
                                           for t, _ in system.reflections)
                     if b in position
                     and system.lengths[b] == system.lengths[a] + 1)
              for a in members]
    return members, covers


@pytest.mark.parametrize("swap", [False, True])
@pytest.mark.parametrize("label,rank", [
    ("A", 1), ("I", 5), ("A", 3), ("B", 3), ("H", 3), ("A", 4), ("D", 4),
    ("F", 4)])
def test_build_ncp_matches_its_definition(label, rank, swap):
    system = bundle_for(label, rank, swap).system
    ncp = build_ncp(system)
    assert (ncp.elements, ncp.covers) == _reference_ncp(system)
    assert ncp.position == {w: p for p, w in enumerate(ncp.elements)}


@pytest.mark.parametrize("label,rank,swap", NC_GROUPS)
def test_build_ncp_matches_the_walk_over_every_reflection(label, rank, swap):
    system = bundle_for(label, rank, swap).system
    ncp, walked = build_ncp(system), walk_ncp(system)
    assert (ncp.elements, ncp.covers) == (walked.elements, walked.covers)


@pytest.mark.parametrize("label,rank,swap", NC_GROUPS)
def test_up_sets_mirror_the_down_sets(label, rank, swap):
    ncp = bundle_for(label, rank, swap).ncp
    assert all((ncp.above[a] >> b & 1) == (a == b or ncp.below[b] >> a & 1)
               for a in range(ncp.size) for b in range(ncp.size))


@pytest.mark.parametrize("label,rank", [("A", 2), ("B", 3)])
def test_ncp_downward_closed(label, rank):
    bundle = bundle_for(label, rank)
    system, ncp = bundle.system, bundle.ncp
    members = set(ncp.elements)
    for w in ncp.elements:
        for x in range(system.order):
            if system.precedes(x, w):
                assert x in members


def test_root_complex_a2(a2):
    xc = a2.root_complex
    assert xc.vertices == (0, 1, 2)
    assert xc.facets == ((0, 1), (1, 2))


def test_root_complex_b3_has_ten_facets(b3):
    xc = b3.root_complex
    assert len(xc.vertices) == 9
    assert len(xc.facets) == 10
    assert all(len(f) == 3 for f in xc.facets)


def _flag_root_complex(system, ordered):
    """X by its definition, the reference for the factorization walk: i < j
    are joined when r(rho_j) r(rho_i) has reflection length 2 and precedes
    c, and the facets are the maximal cliques (Bron-Kerbosch with
    pivoting)."""
    refl = ordered.reflection_index
    neighbors = {i: set() for i in range(ordered.count)}
    for i, j in itertools.combinations(range(ordered.count), 2):
        prod = system.product(refl[j], refl[i])
        if system.lengths[prod] == 2 and system.precedes(prod, system.c_index):
            neighbors[i].add(j)
            neighbors[j].add(i)
    cliques = []

    def expand(r, p, x):
        if not p and not x:
            cliques.append(tuple(sorted(r)))
            return
        pivot = max(p | x, key=lambda v: len(neighbors[v] & p))
        for v in sorted(p - neighbors[pivot]):
            expand(r | {v}, p & neighbors[v], x & neighbors[v])
            p = p - {v}
            x = x | {v}

    expand(set(), set(neighbors), set())
    return tuple(sorted(cliques))


@pytest.mark.parametrize("swap", [False, True])
@pytest.mark.parametrize("label,rank", [
    ("A", 1), ("A", 2), ("G", 2), ("I", 5), ("I", 12), ("A", 3), ("B", 3),
    ("H", 3), ("A", 4), ("B", 4), ("D", 4), ("F", 4), ("H", 4), ("A", 5),
    ("D", 5), ("B", 5), ("E", 6)])
def test_root_complex_is_the_flag_complex(label, rank, swap):
    bundle = bundle_for(label, rank, swap)
    xc = build_root_complex(bundle.system, bundle.ordered)
    assert xc.vertices == tuple(range(bundle.ordered.count))
    assert xc.facets == _flag_root_complex(bundle.system, bundle.ordered)


@pytest.mark.parametrize("label,rank", [("A", 3), ("B", 3), ("H", 3),
                                        ("D", 4), ("F", 4)])
def test_root_complex_peels_no_reflection(label, rank, monkeypatch):
    """A reflection's one peeling label is its own position, so the peel
    multiplies only elements of reflection length at least 2."""
    bundle = bundle_for(label, rank)
    system = bundle.system
    seen, product = [], type(system).product

    def counted(self, a, b):
        seen.append(self.lengths[b])
        return product(self, a, b)

    monkeypatch.setattr(type(system), "product", counted)
    xc = build_root_complex(system, bundle.ordered)
    assert seen and min(seen) >= 2
    assert xc.facets == _flag_root_complex(system, bundle.ordered)


def _product_chain(system, ordered, simplex):
    """Reference for the simplex map: r(tau_k) ... r(tau_1) as a chain of
    products, one per vertex."""
    result = system.e_index
    for v in sorted(simplex, reverse=True):
        result = system.product(result, ordered.reflection_index[v])
    return result


def test_simplex_length_rule(b3):
    assert simplex_length_rule_failures(b3.system, b3.simplex_images) == []


def test_restricted_complex_cases(a2):
    system, ordered, xc = a2.system, a2.ordered, a2.root_complex
    full = restricted_complex(system, ordered, xc, system.c_index)
    assert full.facets == xc.facets
    empty = restricted_complex(system, ordered, xc, system.e_index)
    assert empty.facets == ()
    t = ordered.reflection_index[0]
    single = restricted_complex(system, ordered, xc, t)
    assert single.facets == ((0,),)
    not_below = next(w for w in range(system.order)
                     if not system.precedes(w, system.c_index))
    with pytest.raises(ComplexError):
        restricted_complex(system, ordered, xc, not_below)


def test_simplex_element_map(a2):
    system, ordered, images = a2.system, a2.ordered, a2.simplex_images
    for i in range(ordered.count):
        assert images[i,] == ordered.reflection_index[i]
    for facet in a2.root_complex.facets:
        assert images[facet] == system.c_index
    report = poset_map_report(system, images)
    assert report.ok


@pytest.mark.parametrize("label,rank", [
    ("A", 3), ("B", 3), ("H", 3), ("A", 4), ("D", 4), ("B", 4), ("F", 4)])
def test_simplex_images_match_the_product_chain(label, rank):
    bundle = bundle_for(label, rank)
    system, ordered, xc = bundle.system, bundle.ordered, bundle.root_complex
    expected = {s: _product_chain(system, ordered, s)
                for s in xc.all_simplices()}
    assert bundle.simplex_images == expected
    assert list(bundle.simplex_images) == xc.all_simplices()


def test_map_checks_report_a_doctored_table(b3):
    """Every facet maps to c, so a facet's image is swapped with that of
    the ridge without its last vertex; two edges swapped keep every
    length right and break the order."""
    system, images = b3.system, b3.simplex_images
    facet = b3.root_complex.facets[0]
    ridge = facet[:-1]
    doctored = dict(images)
    doctored[facet], doctored[ridge] = images[ridge], images[facet]
    assert simplex_length_rule_failures(system, doctored) == [
        (ridge, 0), (facet, 1)]
    report = poset_map_report(system, doctored)
    assert report.length_failures == [ridge, facet]
    assert report.facet_failures == [facet]
    # the facet now maps to the ridge's old image, of length n - 1, which
    # neither c nor the other ridges' images precede
    assert report.monotone_failures == [
        (facet[:k] + facet[k + 1:], facet) for k in range(len(facet))]
    assert not report.ok

    first, second = [s for s in images if len(s) == 2][:2]
    assert images[first] != images[second]
    doctored = dict(images)
    doctored[first], doctored[second] = images[second], images[first]
    report = poset_map_report(system, doctored)
    assert not report.length_failures and not report.facet_failures
    assert report.monotone_failures
    assert simplex_length_rule_failures(system, doctored) == []


@pytest.mark.parametrize("label,rank", [("A", 2), ("B", 3)])
def test_fiber_identity(label, rank):
    bundle = bundle_for(label, rank)
    report = fiber_report(bundle.ordered, bundle.root_complex, bundle.ncp,
                          bundle.simplex_images)
    assert report.ok
    assert report.checked == bundle.ncp.size - 2


def _reference_fibers(bundle, images):
    """The fiber mismatches with one ``precedes`` call per (simplex, w)
    pair on the left and ``restricted_complex`` on the right."""
    system, ordered, xc, ncp = (bundle.system, bundle.ordered,
                                bundle.root_complex, bundle.ncp)
    skeleton = [s for s in xc.all_simplices() if len(s) <= system.rank - 1]
    mismatches = []
    for pos in ncp.proper_positions():
        w = ncp.elements[pos]
        lhs = {s for s in skeleton if system.precedes(images[s], w)}
        rhs = set(restricted_complex(system, ordered, xc, w).all_simplices())
        if lhs != rhs:
            mismatches.append((w, sorted(lhs ^ rhs)))
    return mismatches


@pytest.mark.parametrize("label,rank", [("B", 3), ("H", 3), ("A", 4)])
def test_fiber_report_matches_the_precedes_only_left_side(label, rank):
    """Both sides read from the NC(W) down-sets, against one ``precedes``
    call per (simplex, w) pair and the restricted complex."""
    bundle = bundle_for(label, rank)
    system, ordered, xc, ncp = (bundle.system, bundle.ordered,
                                bundle.root_complex, bundle.ncp)
    chain = {s: _product_chain(system, ordered, s) for s in xc.all_simplices()}
    report = fiber_report(ordered, xc, ncp, bundle.simplex_images)
    assert report.mismatches == _reference_fibers(bundle, chain) == []
    assert report.checked == ncp.size - 2


def test_fiber_report_reports_a_doctored_table(b3):
    """Two edges with swapped images each fall into the other's fibers."""
    images = b3.simplex_images
    first, second = [s for s in images if len(s) == 2][:2]
    doctored = dict(images)
    doctored[first], doctored[second] = images[second], images[first]
    report = fiber_report(b3.ordered, b3.root_complex, b3.ncp, doctored)
    assert report.mismatches == _reference_fibers(b3, doctored)
    assert report.mismatches


def test_fiber_report_reports_an_image_outside_ncp(b3):
    """An edge whose image is moved outside NC(W) precedes no proper w,
    so it leaves every fiber that held it, as ``precedes`` finds."""
    system, images, ncp = b3.system, b3.simplex_images, b3.ncp
    outside = next(w for w in range(system.order)
                   if system.lengths[w] == 2 and w not in ncp.position)
    assert not system.precedes(outside, system.c_index)
    edge = next(s for s in images if len(s) == 2)
    doctored = dict(images)
    doctored[edge] = outside
    report = fiber_report(b3.ordered, b3.root_complex, ncp, doctored)
    assert report.mismatches == _reference_fibers(b3, doctored)
    assert report.mismatches
    assert all(diff == [edge] for _, diff in report.mismatches)


def test_fiber_report_reports_a_table_missing_a_simplex(b3):
    """The right side comes from the complex, so a simplex the table lacks
    shows up in every fiber that holds it."""
    images = dict(b3.simplex_images)
    edge = next(s for s in images if len(s) == 2)
    del images[edge]
    report = fiber_report(b3.ordered, b3.root_complex, b3.ncp, images)
    assert report.mismatches
    assert all(diff == [edge] for _, diff in report.mismatches)


def _fiber_tables(bundle):
    """The true table of simplex images, the table without one simplex of
    size max(1, n - 1), the table sending that simplex to the next NC(W)
    element in position order, and the table sending a facet to an atom.
    A facet lies outside the (n-2)-skeleton, so the last table breaks no
    fiber."""
    images, ncp = bundle.simplex_images, bundle.ncp
    simplex = next(s for s in images if len(s) == max(1, bundle.system.rank - 1))
    dropped = {s: u for s, u in images.items() if s != simplex}
    wrong = dict(images)
    wrong[simplex] = ncp.elements[(ncp.position[images[simplex]] + 1)
                                  % ncp.size]
    facet = dict(images)
    facet[bundle.root_complex.facets[0]] = ncp.elements[1]
    return {"true": images, "dropped": dropped, "wrong": wrong,
            "facet": facet}


@pytest.mark.parametrize("label,rank,swap", NC_GROUPS)
def test_fiber_report_matches_the_per_element_scan(label, rank, swap):
    """The per-simplex up-set check against one scan of every simplex per
    proper element, on the true table and on three altered ones."""
    bundle = bundle_for(label, rank, swap)
    args = bundle.ordered, bundle.root_complex, bundle.ncp
    for name, images in _fiber_tables(bundle).items():
        report = fiber_report(*args, images)
        reference = reference_fiber_report(*args, images)
        assert (report.checked, report.mismatches) == (
            reference.checked, reference.mismatches), name
        assert report.checked == bundle.ncp.size - 2
        assert report.ok == (name in ("true", "facet") or rank == 1), name


def test_order_complex_antichain_and_chain():
    antichain = order_complex([[], [], []])
    assert antichain.facets == ((0,), (1,), (2,))
    assert betti_numbers(antichain) == {-1: 0, 0: 2}
    chain = order_complex([[1], [2], []])
    assert chain.facets == ((0, 1, 2),)
    assert betti_numbers(chain) == {-1: 0, 0: 0, 1: 0, 2: 0}


def test_order_complex_stops_at_the_simplex_budget():
    """The maximal chains are facets, so listing more of them than the
    budget allows raises before any face is counted."""
    ncp = bundle_for("B", 4).ncp
    covers = [[b - 1 for b in ups if b != ncp.top]
              for ups in ncp.covers[1:ncp.top]]
    facets = len(order_complex(covers).facets)
    assert facets == 4 ** 4
    assert len(order_complex(covers, facets).facets) == facets
    with pytest.raises(BudgetExceededError,
                       match=f"^simplex budget {facets - 1} exceeded$"):
        order_complex(covers, facets - 1)


def _cubic_covers_and_chains(size, leq):
    """Covers and minimal elements by testing every (a, m, b) triple, and
    the maximal chains grown along the covers."""
    less = [[a != b and leq(a, b) for b in range(size)] for a in range(size)]
    covers = [[b for b in range(size) if less[a][b] and not any(
        less[a][m] and less[m][b] for m in range(size))] for a in range(size)]
    minimal = [a for a in range(size)
               if not any(less[b][a] for b in range(size))]
    chains = []

    def extend(chain):
        if not covers[chain[-1]]:
            chains.append(tuple(chain))
        for nxt in covers[chain[-1]]:
            extend(chain + [nxt])

    for a in minimal:
        extend([a])
    return covers, minimal, chains


@pytest.mark.parametrize("label,rank", [("A", 3), ("B", 3), ("H", 3),
                                        ("A", 4), ("D", 4), ("B", 4),
                                        ("F", 4)])
def test_order_complex_covers_match_the_cubic_loop(label, rank):
    bundle = bundle_for(label, rank)
    system, ncp = bundle.system, bundle.ncp
    elements = ncp.elements
    covers, _, _ = _cubic_covers_and_chains(
        ncp.size, lambda i, j: system.precedes(elements[i], elements[j]))
    assert ncp.covers == covers
    assert ncp.hasse_edges() == [(a, b) for a in range(ncp.size)
                                 for b in covers[a]]
    nc_proper = ncp.proper_positions()
    _, _, nc_chains = _cubic_covers_and_chains(
        len(nc_proper), lambda i, j: system.precedes(elements[nc_proper[i]],
                                                     elements[nc_proper[j]]))
    flats = [f for f in bundle.lattice if 0 < f.codim < rank]
    flat_cover_lists, _, flat_chains = _cubic_covers_and_chains(
        len(flats), lambda i, j: flat_leq(flats[i], flats[j]))
    assert flat_covers(flats) == flat_cover_lists
    for cx, chains in ((bundle.ncp_order_complex, nc_chains),
                       (order_complex(flat_cover_lists), flat_chains)):
        assert cx.facets == tuple(sorted(chains))
        assert not any(set(a) < set(b) for a in chains for b in chains)


@st.composite
def _face_families(draw):
    return [tuple(sorted(draw(st.sets(st.integers(0, 5), max_size=4))))
            for _ in range(draw(st.integers(0, 8)))]


@settings(max_examples=300, deadline=None)
@given(_face_families())
def test_declared_faces_inside_another_are_dropped(faces):
    # each face gets a vertex of its own beyond 0..5, so the complex's
    # facets are never nested, and their traces on 0..5 are the faces
    declared = set(faces) - {()}
    expected = tuple(sorted(t for t in declared
                            if not any(set(t) < set(o) for o in declared)))
    padded = [face + (6 + i,) for i, face in enumerate(faces)]
    cx = SimplicialComplex(range(6 + len(faces)), padded)
    assert full_subcomplex(cx, range(6)).facets == expected


def test_ncp_proper_part_dimension(b3):
    assert b3.ncp_order_complex.dim == b3.system.rank - 2


def test_homology_of_triangle_boundary_and_cone():
    hollow = SimplicialComplex([0, 1, 2], [(0, 1), (1, 2), (0, 2)])
    assert betti_numbers(hollow) == {-1: 0, 0: 0, 1: 1}
    cone = SimplicialComplex([0, 1, 2, 3], [(0, 1, 3), (1, 2, 3), (0, 2, 3)])
    assert betti_numbers(cone) == {-1: 0, 0: 0, 1: 0, 2: 0}


def test_homology_of_empty_complex():
    empty = SimplicialComplex([], [])
    assert betti_numbers(empty) == {-1: 1}


def test_ncp_a2_proper_part_betti(a2):
    assert a2.ncp_betti == {-1: 0, 0: 2}


def test_chain_boundary_squares_to_zero():
    chain = {(0, 1, 2): 1, (1, 2, 3): -2}
    # d(012) = 12 - 02 + 01 and d(123) = 23 - 13 + 12
    assert boundary(chain) == {(1, 2): -1, (0, 2): -1, (0, 1): 1,
                               (2, 3): -2, (1, 3): 2}
    assert boundary(boundary(chain)) == {}
    # the reduced complex: a vertex bounds the empty simplex, which has no
    # boundary, and cancelling terms leave no zero coefficient behind
    assert boundary({(0,): 2, (1,): -2}) == {}
    assert boundary({(0,): 1}) == {(): 1}
    assert boundary({(): 1}) == {}


def test_basis_cycles_a2(a2):
    cycles = a2.basis_cycles
    assert len(cycles) == 2
    for cy in cycles:
        assert not boundary(cy)
        assert sorted(cy.values()) == [-1, 1]
        assert all(type(c) is int for c in cy.values())
    assert cycle_space_rank(cycles, a2.ncp_order_complex, 0) == 2


def test_basis_cycles_b3_full_rank(b3):
    cycles = b3.basis_cycles
    assert len(cycles) == 10
    assert not any(boundary(cy) for cy in cycles)
    assert cycle_space_rank(cycles, b3.ncp_order_complex, 1) == 10


def _reference_cycles(bundle):
    """The facet cycles with one sorted prefix per permutation and place,
    each label looked up through its element."""
    ncp, images, n = bundle.ncp, bundle.simplex_images, bundle.system.rank
    label_of = {ncp.elements[pos]: lab
                for lab, pos in enumerate(ncp.proper_positions())}
    cycles = []
    for facet in bundle.root_complex.facets:
        chain = {}
        for perm in itertools.permutations(range(n)):
            inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
            simplex = tuple(
                label_of[images[tuple(sorted(facet[p] for p in perm[:k]))]]
                for k in range(1, n))
            chain[simplex] = chain.get(simplex, 0) + (-1) ** inversions
        cycles.append({s: c for s, c in chain.items() if c})
    return cycles


@pytest.mark.parametrize("label,rank", [
    ("A", 1), ("A", 2), ("B", 3), ("H", 3), ("A", 4), ("D", 4)])
def test_basis_cycles_match_the_per_permutation_reference(label, rank):
    bundle = bundle_for(label, rank)
    assert bundle.basis_cycles == _reference_cycles(bundle)


def test_basis_cycle_rank_one_group():
    bundle = bundle_for("A", 1)
    cycles = bundle.basis_cycles
    assert cycles == [{(): 1}]
    assert not boundary(cycles[0])
    assert cycle_space_rank(cycles, bundle.ncp_order_complex, -1) == 1


def test_mobius_numbers(a2, b3):
    assert bundle_for("A", 1).ncp.mobius_number() == -1
    assert a2.ncp.mobius_number() == 2
    assert b3.ncp.mobius_number() == -10


@pytest.mark.parametrize("label,rank,swap", NC_GROUPS)
def test_mobius_number_matches_the_full_recursion_and_the_facets(
        label, rank, swap):
    bundle = bundle_for(label, rank, swap)
    mu = bundle.ncp.mobius_number()
    assert mu == reference_mobius_number(bundle.ncp)
    assert mu == (-1) ** rank * len(bundle.root_complex.facets)


def test_simplex_budget():
    hollow = SimplicialComplex([0, 1, 2], [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(BudgetExceededError):
        hollow.simplices_by_dim(budget=3)


def test_full_subcomplex():
    cx = SimplicialComplex([0, 1, 2, 3], [(0, 1, 2), (2, 3)])
    sub = full_subcomplex(cx, {0, 1, 3})
    assert sub.facets == ((0, 1), (3,))


# -- the sparse rank against dense elimination --------------------------------

def _dense_rank(entries: list[list[int]]) -> int:
    qq = rationals()
    return Matrix(qq, [[qq.from_rational(e) for e in row]
                       for row in entries]).rank()


def _columns(entries: list[list[int]]) -> list[dict[int, int]]:
    ncols = len(entries[0]) if entries else 0
    return [{i: row[j] for i, row in enumerate(entries) if row[j]}
            for j in range(ncols)]


def _lattice_order_complex(system):
    flats = intersection_lattice(system)
    proper = [f for f in flats if 0 < f.codim < system.rank]
    return order_complex(flat_covers(proper))


@pytest.mark.parametrize("label,rank", [("A", 3), ("B", 3), ("H", 3)])
def test_sparse_rank_matches_dense_on_every_boundary_matrix(label, rank):
    bundle = bundle_for(label, rank)
    for cx in (bundle.ncp_order_complex, _lattice_order_complex(bundle.system)):
        by_dim = cx.simplices_by_dim()
        by_dim[-1] = [()]
        for k in range(0, max(by_dim) + 1):
            row_of = {s: i for i, s in enumerate(by_dim[k - 1])}
            entries = [[0] * len(by_dim[k]) for _ in by_dim[k - 1]]
            for j, simplex in enumerate(by_dim[k]):
                for i in range(len(simplex)):
                    face = simplex[:i] + simplex[i + 1:]
                    entries[row_of[face]][j] = -1 if i % 2 else 1
            assert _sparse_rank(_columns(entries)) == _dense_rank(entries)


@pytest.mark.parametrize("label,rank", [("B", 3), ("H", 3), ("A", 4)])
def test_sparse_rank_matches_dense_on_the_incidence_matrix(label, rank):
    report = bundle_for(label, rank).embedding
    members = [set(c) for c in report.columns]
    incidence = [[int(pos in m) for m in members]
                 for pos in report.bounded_positions]
    assert _sparse_rank(_columns(incidence)) == _dense_rank(incidence)
    assert report.rank == _dense_rank(incidence)


def _fraction_rank(columns) -> int:
    """Column reduction by lowest row over Fractions, pivot entry 1."""
    pivots, rank = {}, 0
    for column in columns:
        col = {row: Fraction(value) for row, value in column.items()}
        while col:
            low = max(col)
            other = pivots.get(low)
            if other is None:
                pivots[low] = {row: value / col[low] for row, value in col.items()}
                rank += 1
                break
            factor = col[low]
            for row, value in other.items():
                new = col.get(row, 0) - factor * value
                if new:
                    col[row] = new
                else:
                    del col[row]
    return rank


def test_sparse_rank_is_the_rank_over_q_not_mod_two():
    entries = [[1, 1], [1, -1]]
    assert _sparse_rank(_columns(entries)) == _fraction_rank(_columns(entries)) == 2
    assert _sparse_rank(_columns([[1, 1, 0], [1, -1, 2], [0, 0, 0]])) == 2


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 9), st.integers(1, 9), st.integers(0, 10**6))
def test_sparse_rank_matches_the_fraction_reduction(nrows, ncols, seed):
    rng = random.Random(seed)
    entries = [[rng.choice((-1, 0, 0, 1)) for _ in range(ncols)]
               for _ in range(nrows)]
    columns = _columns(entries)
    assert _sparse_rank(columns) == _fraction_rank(columns)
    # integer columns with larger entries and a common factor
    scaled = [{row: value * rng.choice((2, -3, 6)) for row, value in col.items()}
              for col in columns]
    assert _sparse_rank(scaled) == _fraction_rank(scaled)


def test_cycle_space_rank_of_scaled_and_repeated_cycles(b3):
    cycles = b3.basis_cycles
    scaled = [{s: c * (2 + k % 3) for s, c in cy.items()}
              for k, cy in enumerate(cycles)]
    assert cycle_space_rank(scaled, b3.ncp_order_complex, 1) == 10
    repeated = scaled[:3] + [{s: -3 * c for s, c in scaled[0].items()}]
    assert cycle_space_rank(repeated, b3.ncp_order_complex, 1) == 3
    summed = scaled[:2] + [{s: scaled[0].get(s, 0) + scaled[1].get(s, 0)
                            for s in scaled[0].keys() | scaled[1].keys()}]
    assert cycle_space_rank(summed, b3.ncp_order_complex, 1) == 2


def test_cycle_space_rank_reads_the_top_faces_only(b3):
    """The rank is taken over the facets of the top dimension: a term
    below the top, or a rank asked for below the top, is an error."""
    cx = b3.ncp_order_complex
    cycles = b3.basis_cycles
    vertex = (cx.vertices[0],)
    with pytest.raises(ComplexError):
        cycle_space_rank([{**cycles[0], vertex: 1}], cx, 1)
    with pytest.raises(ComplexError):
        cycle_space_rank([boundary({cx.facets[0]: 1})], cx, 0)
    with pytest.raises(ComplexError):
        cycle_space_rank([{(0, 99): 1}], cx, 1)
    # a facet below the top is no top face: its cycles may bound
    impure = SimplicialComplex(range(4), [(0, 1, 2), (3,)])
    with pytest.raises(ComplexError):
        cycle_space_rank([{(3,): 1}], impure, 0)
    empty = bundle_for("A", 1).ncp_order_complex
    with pytest.raises(ComplexError):
        cycle_space_rank([{(0,): 1}], empty, -1)


@st.composite
def _signed_matrices(draw):
    nrows, ncols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    return [[draw(st.sampled_from((-1, 0, 1))) for _ in range(ncols)]
            for _ in range(nrows)]


@settings(max_examples=300, deadline=None)
@given(_signed_matrices())
def test_sparse_rank_matches_dense_on_random_signed_matrices(entries):
    assert _sparse_rank(_columns(entries)) == _dense_rank(entries)
