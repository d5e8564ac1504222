"""Rays, the separation bound, the generic direction, bounded slices."""

import math
import random
from fractions import Fraction
from functools import reduce
from itertools import combinations

import pytest

from ncph.arrangement import (GenericityError, _floor_sqrt_of_scaled,
                              canonical_ray, generic_vector,
                              ray_separation_bound, separation_minimum)
from ncph.fields import quadratic_field, rationals
from ncph.linalg import Matrix, vec_key, vec_neg
from conftest import bundle_for, interior_point, vec_add

SECOND_ROUTE_GROUPS = [("A", 3), ("B", 3), ("H", 3), ("A", 4), ("D", 4),
                       ("F", 4)]


def _rays(system, chamber):
    """The chamber's extreme rays, read from the table of orbit rays."""
    table = system.orbit_rays[0]
    return [table[k] for k in chamber.ray_ids]


def test_rank_one_has_no_rays():
    bundle = bundle_for("A", 1)
    assert bundle.rays == []
    assert bundle.separation == Fraction(1)
    assert bundle.generic.vector == tuple(bundle.ordered.tau[0])


def test_a2_rays(a2):
    assert len(a2.rays) == 3
    for ray in a2.rays:
        first = next(x for x in ray if not x.is_zero())
        assert first == a2.system.field.one
    # the dual rays (2/3)(2, 1) and (2/3)(1, 2), and the third ray
    # d_1 - d_2, canonically scaled, in simple-root coordinates
    qq = a2.system.field
    assert a2.rays == [tuple(map(qq.from_rational, r))
                       for r in ((1, -1), (1, Fraction(1, 2)), (1, 2))]


def test_b3_rays(b3):
    assert len(b3.rays) == 13
    assert len({vec_key(r) for r in b3.rays}) == 13


def test_chamber_rays_lie_in_ray_set(b3):
    ray_keys = {vec_key(r) for r in b3.rays}
    for chamber in b3.chamber_list:
        for ray in _rays(b3.system, chamber):
            assert vec_key(canonical_ray(ray)) in ray_keys


def test_a2_separation_bound(a2):
    lam = a2.separation
    # exact minimum of (r.rho)^2/(r.r) over nonzero pairings is 3/4: the
    # dual ray d_1 = (2/3)(2, 1) has d_1 . d_1 = 4/3 and pairs 1 with a_1
    assert separation_minimum(a2.system) == a2.system.field.from_rational(
        Fraction(3, 4))
    assert lam * lam <= Fraction(3, 4)
    assert lam >= Fraction(6, 7)  # 6/7 is a valid bound, the max is at least it
    assert lam > 0


@pytest.mark.parametrize("label,rank", [("A", 2), ("B", 3), ("H", 3)])
def test_separation_inequality_certificate(label, rank):
    bundle = bundle_for(label, rank)
    lam2 = bundle.separation * bundle.separation
    v = bundle.generic.vector
    form = bundle.system.form
    for ray in bundle.rays:
        p = form(ray, v)
        assert p.sign() != 0
        assert (p * p - form(ray, ray) * lam2).sign() >= 0


def test_generic_vector_geometric_weights(a2):
    gv = a2.generic
    assert gv.base == 1 + 1 / gv.lam
    t1, t2 = a2.ordered.tau
    expected = tuple(x + y * gv.base for x, y in zip(t1, t2))
    assert gv.vector == expected


def test_generic_vector_rejects_bad_bound(a2):
    with pytest.raises(GenericityError):
        generic_vector(a2.system, a2.ordered.tau, Fraction(0),
                       zip(a2.rays, a2.ray_norms))
    with pytest.raises(GenericityError):
        # a wildly large bound fails the exact re-verification
        generic_vector(a2.system, a2.ordered.tau, Fraction(10),
                       zip(a2.rays, a2.ray_norms))


def test_bounded_slice_counts(a2, b3):
    assert sum(a2.bounded_flags) == 2
    assert sum(b3.bounded_flags) == 15


def test_chamber_count_is_group_order(b3):
    assert len(b3.chamber_list) == b3.system.order
    seen = {vec_key(reduce(vec_add, _rays(b3.system, c)))
            for c in b3.chamber_list}
    assert len(seen) == b3.system.order


def _direction_key(ray):
    # canonical per directed ray: positive rescaling only
    from ncph.linalg import vec_scale
    first = next(x for x in ray if not x.is_zero())
    scale = first.inverse() if first.sign() > 0 else (-first).inverse()
    return vec_key(vec_scale(ray, scale))


@pytest.mark.parametrize("label,rank", [("A", 2), ("B", 3)])
def test_antipodal_chamber_not_bounded(label, rank):
    bundle = bundle_for(label, rank)
    by_rayset = {frozenset(_direction_key(r) for r in _rays(bundle.system, c)): i
                 for i, c in enumerate(bundle.chamber_list)}
    assert len(by_rayset) == len(bundle.chamber_list)
    for chamber, bounded in zip(bundle.chamber_list, bundle.bounded_flags):
        if not bounded:
            continue
        # the antipodal cone is a chamber of the (centrally symmetric)
        # arrangement; v cannot be positive on all its rays too
        antipode = frozenset(_direction_key(vec_neg(r))
                             for r in _rays(bundle.system, chamber))
        assert not bundle.bounded_flags[by_rayset[antipode]]


@pytest.mark.parametrize("label,rank,swap", [
    ("B", 3, False), ("B", 3, True), ("H", 3, False), ("A", 4, False),
    ("D", 4, False), ("B", 4, False), ("F", 4, False),
    ("A", 3, True), ("D", 4, True)])
def test_chamber_rays_are_matrix_images_of_the_dual_rays(label, rank, swap):
    bundle = bundle_for(label, rank, swap)
    system = bundle.system
    chamber_list = bundle.chamber_list
    assert [c.element for c in chamber_list] == sorted(
        range(system.order), key=system.element_sort_key)
    point = interior_point(system)
    for chamber in chamber_list:
        mat = system.matrix(chamber.element)
        rays = _rays(system, chamber)
        assert rays == [mat.apply(d) for d in system.dual_rays]
        assert reduce(vec_add, rays) == mat.apply(point)
    # one id per distinct ray
    table = system.orbit_rays[0]
    assert len({vec_key(r) for r in table}) == len(table)


@pytest.mark.parametrize("label,rank", SECOND_ROUTE_GROUPS)
def test_rays_are_the_one_dimensional_kernels_of_the_hyperplanes(label, rank):
    bundle = bundle_for(label, rank)
    system = bundle.system
    # one exact kernel per (n-1)-subset of reflection hyperplanes; the
    # hyperplane of a root rho is the kernel of its covector B rho
    normals = [system.lower(root) for _, root in system.reflections]
    seen = {}
    for subset in combinations(normals, rank - 1):
        kernel = Matrix(system.field, list(subset)).kernel()
        if len(kernel) == 1:
            ray = canonical_ray(kernel[0])
            seen.setdefault(vec_key(ray), ray)
    assert bundle.rays == [seen[k] for k in sorted(seen)]


@pytest.mark.parametrize("label,rank", SECOND_ROUTE_GROUPS)
def test_separation_minimum_is_taken_over_every_ray_and_root(label, rank):
    bundle = bundle_for(label, rank)
    form = bundle.system.form
    values = [form(ray, root) * form(ray, root) / form(ray, ray)
              for ray in bundle.rays for _, root in bundle.system.reflections
              if form(ray, root).sign() != 0]
    assert separation_minimum(bundle.system) == min(values)


@pytest.mark.parametrize("label,rank", SECOND_ROUTE_GROUPS)
def test_bounded_flags_match_the_per_chamber_sign_test(label, rank):
    bundle = bundle_for(label, rank)
    v = bundle.generic.vector
    expected = []
    for chamber in bundle.chamber_list:
        signs = [bundle.system.form(ray, v).sign()
                 for ray in _rays(bundle.system, chamber)]
        assert 0 not in signs
        expected.append(all(s > 0 for s in signs))
    assert bundle.bounded_flags == expected


def _floor_sqrt_by_signs(minimum, q):
    """The exact search for the largest p with p^2 <= q^2 * minimum, by
    Scalar signs from a float guess."""
    p = math.isqrt(max(0, int(q * q * float(minimum))))
    bound = minimum * (q * q)
    while (bound - (p + 1) ** 2).sign() >= 0:
        p += 1
    while p > 0 and (bound - p * p).sign() < 0:
        p -= 1
    return p


def _separation_bound_by_signs(minimum, qmax=64):
    return max(Fraction(p, q) for q in range(1, qmax + 1)
               if (p := _floor_sqrt_by_signs(minimum, q)))


@pytest.mark.parametrize("label,rank,rational", [
    ("A", 3, True), ("B", 3, True), ("H", 3, False), ("A", 4, True),
    ("D", 4, True), ("B", 4, True), ("F", 4, True)])
def test_separation_floor_matches_the_exact_sign_search(label, rank, rational):
    system = bundle_for(label, rank).system
    minimum = separation_minimum(system)
    assert minimum.is_rational() == rational
    for q in range(1, 65):
        assert _floor_sqrt_of_scaled(minimum, q) == _floor_sqrt_by_signs(minimum, q)
    assert ray_separation_bound(system) == _separation_bound_by_signs(minimum)


@pytest.mark.parametrize("bound", [0, -5])
def test_separation_bound_refuses_a_denominator_bound_below_one(a2, bound):
    with pytest.raises(ValueError, match="at least 1"):
        ray_separation_bound(a2.system, bound)
    assert ray_separation_bound(a2.system, 1) > 0


def test_rational_separation_floor_matches_the_exact_sign_search():
    rng = random.Random(5)
    for field in (rationals(), quadratic_field(2)):
        for _ in range(150):
            den = rng.choice((1, 2, 3, 7, 12, 10**9 + 7))
            value = Fraction(rng.randint(1, 10**rng.randint(1, 12)), den)
            if rng.random() < 0.3:
                value *= value   # a square: p^2 = q^2 m is reached exactly
            m = field.from_rational(value)
            for q in range(1, 65):
                assert _floor_sqrt_of_scaled(m, q) == _floor_sqrt_by_signs(m, q)
