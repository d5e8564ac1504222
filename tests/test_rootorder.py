"""The root sequence rho_1..rho_(nh/2) and its tail."""

import pytest

from ncph.coxeter import CoxeterDiagram, CoxeterSystem
from ncph.linalg import Matrix, vec_key
from ncph.rootorder import ordered_roots
from conftest import bundle_for, from_coords, interior_point


def _coords(field, *pairs):
    return tuple(from_coords(field, p) for p in pairs)


def test_a2_sequence_frozen():
    system = CoxeterSystem(CoxeterDiagram.from_type("A", 2))
    ordered = ordered_roots(system)
    field = system.field
    assert field.name == "Q"
    expected = [
        _coords(field, (1,), (0,)),     # rho_1 = alpha_1
        _coords(field, (1,), (1,)),     # rho_2 = r_1 alpha_2 = alpha_1 + alpha_2
        _coords(field, (0,), (1,)),     # rho_3 = alpha_2
    ]
    assert ordered.roots == expected
    assert ordered.roots[0] == system.simple_roots[0]
    assert ordered.roots[2] == system.simple_roots[1]


@pytest.mark.parametrize("label,rank", [("A", 1), ("A", 2), ("A", 3), ("B", 2),
                                        ("B", 3), ("H", 3), ("I", 5), ("I", 7)])
def test_count_is_nh_over_2(label, rank):
    system = CoxeterSystem(CoxeterDiagram.from_type(label, rank))
    ordered = ordered_roots(system)
    assert ordered.count == system.rank * system.h // 2


def test_rank_one_tail():
    system = CoxeterSystem(CoxeterDiagram.from_type("A", 1))
    ordered = ordered_roots(system)
    assert ordered.tau == [system.simple_roots[0]]


def _simple_product(system):
    """c as the product of the simple reflections' exact matrices."""
    c = system.identity
    for a in system.simple_roots:
        c = c * system.reflection_matrix(a)
    return c


def test_a2_tail_product():
    system = CoxeterSystem(CoxeterDiagram.from_type("A", 2))
    ordered = ordered_roots(system)
    t1, t2 = ordered.tau
    assert ordered.roots[1] == t1 and ordered.roots[2] == t2
    product = system.reflection_matrix(t2) * system.reflection_matrix(t1)
    assert product == _simple_product(system)


def test_b3_tail_product_and_independence():
    system = CoxeterSystem(CoxeterDiagram.from_type("B", 3))
    ordered = ordered_roots(system)
    tau = ordered.tau
    assert Matrix(system.field, tau).rank() == 3
    product = system.identity
    for t in tau:
        product = system.reflection_matrix(t) * product
    assert product == _simple_product(system)


def test_roots_positive_and_exhaustive():
    system = CoxeterSystem(CoxeterDiagram.from_type("B", 3))
    ordered = ordered_roots(system)
    for rho in ordered.roots:
        assert system.form(rho, interior_point(system)).sign() > 0
    assert ({vec_key(r) for r in ordered.roots}
            == {vec_key(root) for _, root in system.reflections})


@pytest.mark.parametrize("label,rank", [("A", 3), ("B", 3), ("H", 3), ("A", 4),
                                        ("D", 4), ("F", 4), ("H", 4)])
def test_root_sequence_matches_the_matrix_prefix_walk(label, rank):
    system = bundle_for(label, rank).system
    n = system.rank
    simple = [system.reflection_matrix(a) for a in system.simple_roots]
    prefix = system.identity   # r_1 ... r_(i-1) as an exact matrix
    expected = []
    for i in range(n * system.h // 2):
        expected.append(prefix.apply(system.simple_roots[i % n]))
        prefix = prefix * simple[i % n]
    assert ordered_roots(system).roots == expected
