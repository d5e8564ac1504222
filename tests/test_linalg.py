"""Exact linear algebra: rank, kernel, inverse."""

import random
from fractions import Fraction

import pytest

from ncph.coxeter import CoxeterDiagram, CoxeterSystem
from ncph.fields import quadratic_field, rationals
from ncph.linalg import Matrix
from conftest import from_coords


def test_identity_rank():
    qq = rationals()
    assert Matrix.identity(qq, 3).rank() == 3


def test_kernel_of_two_independent_normals():
    system = CoxeterSystem(CoxeterDiagram.from_type("A", 3))
    normals = [root for _, root in system.reflections][:2]
    m = Matrix(system.field, [system.lower(root) for root in normals])
    assert m.rank() == 2
    kernel = m.kernel()
    assert len(kernel) == 1
    for row in normals:
        assert system.form(row, kernel[0]).is_zero()


def test_a2_rotation_determinant():
    # alpha1 = (1,0), alpha2 = (0,1) over Q, with alpha1 . alpha2 = -1/2
    system = CoxeterSystem(CoxeterDiagram.from_type("A", 2))
    field = system.field
    a1 = (field.one, field.zero)
    a2 = (field.zero, field.one)
    assert system.gram == Matrix(field, [[1, Fraction(-1, 2)],
                                         [Fraction(-1, 2), 1]])
    c = system.reflection_matrix(a1) * system.reflection_matrix(a2)
    assert c == Matrix(field, [[0, -1], [1, -1]])
    delta = Matrix.identity(field, 2) - c
    (a, b), (d, e) = delta.rows
    assert a * e - b * d == field.from_rational(3)
    assert delta.rank() == 2


def test_inverse_times_matrix_is_identity_up_to_dim8():
    random.seed(11)
    qq = rationals()
    for n in range(1, 9):
        while True:
            m = Matrix(qq, [[Fraction(random.randint(-6, 6),
                                      random.randint(1, 4))
                             for _ in range(n)] for _ in range(n)])
            if m.rank() == n:
                break
        assert m.inverse() * m == Matrix.identity(qq, n)


def test_inverse_over_quadratic_field():
    field = quadratic_field(5)
    random.seed(3)
    m = Matrix(field, [[from_coords(field, (random.randint(-3, 3),
                                            random.randint(-2, 2)))
                        for _ in range(4)] for _ in range(4)])
    assert m.rank() == 4
    assert m.inverse() * m == Matrix.identity(field, 4)


def test_singular_matrix_rejected():
    qq = rationals()
    m = Matrix(qq, [[1, 2], [2, 4]])
    assert m.rank() == 1
    with pytest.raises(ValueError):
        m.inverse()

