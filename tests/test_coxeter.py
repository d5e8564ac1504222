"""Coxeter systems: bipartite order, realization, group, lengths, order."""

import random
from fractions import Fraction

import pytest

from ncph.coxeter import (BudgetExceededError, CoxeterDiagram, CoxeterSystem,
                          NotFiniteTypeError, bipartite_order)
from ncph.linalg import Matrix
from conftest import (bfs_reflection_lengths, bundle_for, interior_point,
                      rank_reflection_lengths)


def test_bipartite_order_examples():
    assert bipartite_order(CoxeterDiagram.from_type("A", 2)) == ((0, 1), 1)
    assert bipartite_order(CoxeterDiagram.from_type("A", 3)) == ((0, 2, 1), 2)
    for m in (3, 5, 8):
        assert bipartite_order(CoxeterDiagram.from_type("I", m)) == ((0, 1), 1)


def test_bipartite_swap():
    perm, s = bipartite_order(CoxeterDiagram.from_type("A", 3), swap=True)
    assert perm == (1, 0, 2) and s == 1


def test_bipartite_classes_are_orthonormal():
    # the Gram matrix B is the identity on each bipartite class
    for label, rank in (("A", 3), ("B", 3), ("H", 3), ("D", 4)):
        system = CoxeterSystem(CoxeterDiagram.from_type(label, rank))
        s = system.s
        roots = system.simple_roots
        for i in range(len(roots)):
            assert system.form(roots[i], roots[i]) == system.field.one
            assert system.gram.rows[i][i] == system.field.one
        for block in (range(s), range(s, len(roots))):
            for i in block:
                for j in block:
                    if i != j:
                        assert system.form(roots[i], roots[j]).is_zero()
                        assert system.gram.rows[i][j].is_zero()


def test_a2_gram_entry():
    system = CoxeterSystem(CoxeterDiagram.from_type("A", 2))
    a1, a2 = system.simple_roots
    assert system.form(a1, a2) == system.field.from_rational(Fraction(-1, 2))


def test_orthogonal_labels_give_zero_inner_product():
    system = CoxeterSystem(CoxeterDiagram.from_type("A", 3))
    # permuted order (0, 2, 1): the first two simple roots commute
    assert system.form(system.simple_roots[0], system.simple_roots[1]).is_zero()


@pytest.mark.parametrize("label,rank,name", [
    ("A", 3, "Q"), ("A", 4, "Q"), ("D", 4, "Q"),
    ("B", 3, "Q(sqrt2)"), ("B", 4, "Q(sqrt2)"), ("F", 4, "Q(sqrt2)"),
    ("H", 3, "Q(sqrt5)"), ("H", 4, "Q(sqrt5)"), ("G", 2, "Q(sqrt3)"),
    ("I", 5, "Q(sqrt5)"), ("I", 7, "Q(2cos(pi/7))")])
def test_gram_field_is_the_same_in_both_class_orders(label, rank, name):
    diagram = CoxeterDiagram.from_type(label, rank)
    assert bipartite_order(diagram, False) != bipartite_order(diagram, True)
    for swap in (False, True):
        assert bundle_for(label, rank, swap).system.field.name == name


def test_group_sizes():
    assert CoxeterSystem(CoxeterDiagram.from_type("A", 1)).order == 2
    assert CoxeterSystem(CoxeterDiagram.from_type("A", 2)).order == 6
    assert CoxeterSystem(CoxeterDiagram.from_type("B", 3)).order == 48  # 2^3 3!


def test_reflection_counts_match_nh2():
    for label, rank, expected in (("A", 2, 3), ("B", 3, 9), ("A", 1, 1)):
        system = CoxeterSystem(CoxeterDiagram.from_type(label, rank))
        assert len(system.reflections) == expected
        assert expected == system.rank * system.h // 2


def test_group_elements_are_orthogonal():
    # every element preserves the form: W^T B W == B
    system = CoxeterSystem(CoxeterDiagram.from_type("B", 2))
    for i in range(system.order):
        w = system.matrix(i)
        assert w.transpose() * system.gram * w == system.gram


def test_reflection_lengths():
    for label, rank, c_len in (("A", 2, 2), ("B", 3, 3)):
        system = CoxeterSystem(CoxeterDiagram.from_type(label, rank))
        assert system.lengths[system.e_index] == 0
        for t, _ in system.reflections:
            assert system.lengths[t] == 1
        assert system.lengths[system.c_index] == c_len


@pytest.mark.parametrize("label,rank", [
    ("A", 1), ("I", 5), ("I", 7), ("I", 8), ("I", 12), ("I", 30), ("A", 2),
    ("A", 3), ("B", 2), ("B", 3), ("H", 3), ("A", 4), ("D", 4), ("B", 4),
    ("F", 4)])
def test_length_equals_bfs_word_length(label, rank):
    system = CoxeterSystem(CoxeterDiagram.from_type(label, rank))
    assert bfs_reflection_lengths(system) == system.lengths


@pytest.mark.parametrize("label,rank", [
    ("A", 3), ("B", 3), ("H", 3), ("A", 4), ("D", 4), ("B", 4), ("F", 4)])
def test_swapped_lengths_equal_bfs_word_length(label, rank):
    system = bundle_for(label, rank, True).system
    assert bfs_reflection_lengths(system) == system.lengths


@pytest.mark.parametrize("label,rank", [("H", 4), ("E", 6)])
def test_lengths_equal_the_exact_rank_of_w_minus_one(label, rank):
    system = bundle_for(label, rank).system
    assert rank_reflection_lengths(system) == system.lengths


@pytest.mark.parametrize("label,rank,swap", [
    ("I", 7, False), ("A", 3, False), ("B", 3, False), ("B", 3, True),
    ("H", 3, False), ("D", 4, False), ("F", 4, False)])
def test_system_build_takes_no_exact_rank(monkeypatch, label, rank, swap):
    def no_rank(*_):
        raise AssertionError("the system build took an exact rank")

    monkeypatch.setattr(Matrix, "rank", no_rank)
    system = CoxeterSystem(CoxeterDiagram.from_type(label, rank), swap)
    assert system.lengths == bfs_reflection_lengths(system)


@pytest.mark.parametrize("label,rank", [("A", 3), ("H", 3)])
def test_a_trace_sum_off_a_multiple_of_m_d_raises(label, rank):
    # a_1 + 1 (A3) puts e's length at -1 and the average over s_1 at a
    # half; a_1 + theta (H3) leaves an irrational part in e's trace
    system = CoxeterSystem(CoxeterDiagram.from_type(label, rank))
    field = system.field
    bump = field.theta if field.degree > 1 else field.one
    system.roots[0] = (field.one + bump,) + system.roots[0][1:]
    with pytest.raises(ArithmeticError, match="not a multiple"):
        system._class_lengths()


def _pairs(system, sample):
    everything = [(i, j) for i in range(system.order) for j in range(system.order)]
    return everything if sample is None else random.Random(4).sample(everything, sample)


@pytest.mark.parametrize("label,rank,sample", [
    ("A", 1, None), ("I", 5, None), ("B", 3, None), ("H", 3, None),
    ("F", 4, 400)])
def test_permutation_product_indexes_the_matrix_product(label, rank, sample):
    # second route: the integer product on root permutations against exact
    # matrix multiplication of the elements' matrices
    system = CoxeterSystem(CoxeterDiagram.from_type(label, rank))
    n = system.rank
    assert all(type(key) is tuple and len(key) == n
               for key in system.index_of)
    assert [system.index_of[w[:n]] for w in system.perms] \
        == list(range(system.order))
    simple = [system.reflection_matrix(a) for a in system.simple_roots]
    # breadth-first from e, the simple reflections are elements 1..n
    for k, g in enumerate(system.simple_perms):
        assert system.index_of[g[:n]] == k + 1
        assert system.perms[k + 1] == g
        assert system.matrix(k + 1) == simple[k]
    c = system.identity
    for r in simple:
        c = c * r
    assert system.matrix(system.c_index) == c
    assert system.matrix(system.e_index) == system.identity
    for i, j in _pairs(system, sample):
        assert system.matrix(system.product(i, j)) \
            == system.matrix(i) * system.matrix(j)
    # the inverse is the adjoint under the form: B^-1 W^T B
    gram_inverse = system.gram.inverse()
    for i in range(system.order):
        assert system.matrix(system.inverses[i]) \
            == gram_inverse * system.matrix(i).transpose() * system.gram


def test_precedes_basics():
    system = CoxeterSystem(CoxeterDiagram.from_type("A", 2))
    for w in range(system.order):
        assert system.precedes(system.e_index, w)
        assert system.precedes(w, w)
    for t, _ in system.reflections:
        assert system.precedes(t, system.c_index)


@pytest.mark.parametrize("label,rank", [("A", 2), ("B", 2), ("B", 3)])
def test_absolute_order_is_partial_order(label, rank):
    system = CoxeterSystem(CoxeterDiagram.from_type(label, rank))
    n = system.order
    leq = [[system.precedes(u, w) for w in range(n)] for u in range(n)]
    for u in range(n):
        assert leq[u][u]
        for w in range(n):
            if u != w and leq[u][w]:
                assert not leq[w][u]
    for u in range(n):
        for v in range(n):
            if leq[u][v]:
                for w in range(n):
                    if leq[v][w]:
                        assert leq[u][w]


@pytest.mark.parametrize("label,rank", [("A", 2), ("B", 2), ("B", 3), ("H", 3)])
def test_reflection_conjugation_identity(label, rank):
    # r(rho) r(tau) = r(tau) r(rho') with rho' = r(tau) applied to rho
    system = CoxeterSystem(CoxeterDiagram.from_type(label, rank))
    roots = [root for _, root in system.reflections]
    for rho in roots:
        r_rho = system.reflection_matrix(rho)
        for tau in roots:
            r_tau = system.reflection_matrix(tau)
            conj = system.reflection_matrix(r_tau.apply(rho))
            assert r_rho * r_tau == r_tau * conj


def test_odd_cycle_diagram_rejected():
    triangle = CoxeterDiagram.from_matrix([[1, 3, 3], [3, 1, 3], [3, 3, 1]])
    with pytest.raises(NotFiniteTypeError):
        CoxeterSystem(triangle)   # not 2-colorable


def test_affine_and_hyperbolic_paths_rejected():
    # bipartite paths whose Gram matrix is not positive definite
    affine = CoxeterDiagram.from_matrix([[1, 4, 2], [4, 1, 4], [2, 4, 1]])
    with pytest.raises(NotFiniteTypeError):
        CoxeterSystem(affine)
    hyperbolic = CoxeterDiagram.from_matrix([[1, 5, 2], [5, 1, 5], [2, 5, 1]])
    with pytest.raises(NotFiniteTypeError):
        CoxeterSystem(hyperbolic)


def test_group_cap():
    with pytest.raises(BudgetExceededError):
        CoxeterSystem(CoxeterDiagram.from_type("B", 3), group_cap=10)


def test_invalid_diagrams():
    with pytest.raises(ValueError):
        CoxeterDiagram.from_matrix([[1, 2], [3, 1]])    # asymmetric
    with pytest.raises(ValueError):
        CoxeterDiagram.from_matrix([[2, 3], [3, 1]])    # diagonal
    with pytest.raises(ValueError):
        CoxeterDiagram.from_matrix([[1, 1], [1, 1]])    # off-diagonal < 2
    with pytest.raises(ValueError):
        CoxeterDiagram.from_type("E", 7)


def test_reducible_diagram_rejected():
    # the nodes joined by labels >= 3, listed from 0
    with pytest.raises(ValueError, match=r"reducible diagram: components "
                                         r"\[0\], \[1\]$"):
        CoxeterDiagram.from_type("I", 2)                 # A1 x A1
    with pytest.raises(ValueError, match=r"components \[0, 2\], \[1\]$"):
        CoxeterDiagram.from_matrix([[1, 2, 3], [2, 1, 2], [3, 2, 1]])


def test_c_is_alias_of_b():
    b = CoxeterSystem(CoxeterDiagram.from_type("B", 3))
    c = CoxeterSystem(CoxeterDiagram.from_type("C", 3))
    assert ([b.matrix(i).rows for i in range(b.order)]
            == [c.matrix(i).rows for i in range(c.order)])


@pytest.mark.parametrize("swap", [False, True])
@pytest.mark.parametrize("label,rank", [
    ("A", 3), ("B", 3), ("H", 3), ("A", 4), ("D", 4), ("B", 4), ("F", 4),
    ("H", 4), ("G", 2), ("I", 7)])
def test_positive_roots_pair_with_reflections(label, rank, swap):
    # second route for the reflections read off the root orbit: the sign of
    # each root against the chamber interior, and its exact matrix
    system = bundle_for(label, rank, swap).system
    assert len(system.reflections) == system.rank * system.h // 2
    assert [t for t, _ in system.reflections] == sorted(
        {t for t, _ in system.reflections})
    for t, root in system.reflections:
        assert system.lengths[t] == 1
        assert system.form(root, root) == system.field.one
        assert system.form(root, interior_point(system)).sign() > 0
        assert all(x.sign() >= 0 for x in root)
        assert system.reflection_matrix(root) == system.matrix(t)
        k = system.root_id[root]
        assert system.reflection_of[k] == system.reflection_of[
            system.negative[k]] == t
