"""Rays and chambers of the reflection arrangement, and the generic slice.

The arrangement is W-stable, so it is read off one table: the W-orbits of
the dual rays d_k of the fundamental chamber, which the system builds once
by closing the d_k under the exact simple reflections.  Every line of the
arrangement is W-conjugate to the line of some d_k (a standard parabolic
flat of corank one), so the rays are the canonical forms of the table
(first nonzero coordinate scaled to 1); the extreme rays of the chamber
w C are the images w d_k, so a chamber is its element and the ids of its
rays in the table, whose vectors stay in the table alone.  Chambers are
ordered by (length, the images of the simple roots), read by root id.
Vectors are in simple-root coordinates and ``.`` is the system's form.

The separation bound is a certified rational lower bound for the minimal
nonzero |r . rho| over unit rays r and roots rho; (r . rho)^2 / (r . r) is
W-invariant and the roots are W-stable, so the minimum is taken over the
dual rays alone.  It feeds the geometric series defining the generic
direction v, and the defining inequality is re-verified exactly for every
ray, since v is not W-invariant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .coxeter import CoxeterSystem
from .fields import Scalar
from .linalg import Vector, dot, vec_key, vec_scale

DEFAULT_DENOMINATOR_BOUND = 64


class GenericityError(ValueError):
    """The slice direction failed an exact genericity requirement."""


def canonical_ray(v: Vector) -> Vector:
    """Scale so the first nonzero coordinate is 1 (canonical per line)."""
    for entry in v:
        if not entry.is_zero():
            return vec_scale(v, entry.inverse())
    raise ValueError("zero vector spans no ray")


def enumerate_rays(system: CoxeterSystem) -> list[Vector]:
    """All 1-dimensional intersections of reflection hyperplanes, once each:
    the canonical forms of the orbit rays, sorted by key."""
    if system.rank == 1:
        return []
    rays = {vec_key(r): r for r in map(canonical_ray, system.orbit_rays[0])}
    return [rays[k] for k in sorted(rays)]


def separation_minimum(system: CoxeterSystem):
    """min (r.rho)^2 / (r.r) over the rays r and the roots rho with r.rho
    nonzero, taken over the dual rays and the positive roots."""
    values = []
    for d in system.dual_rays:
        co, norm = system.lower(d), system.form(d, d)
        values += [p * p / norm for p in (dot(co, root)
                                          for _, root in system.reflections)
                   if p.sign() != 0]
    if not values:
        raise GenericityError("no nonzero ray-root pairing found")
    return min(values)


def ray_separation_bound(system: CoxeterSystem,
                         max_denominator: int = DEFAULT_DENOMINATOR_BOUND
                         ) -> Fraction:
    """A rational 0 < lam with lam^2 <= ``separation_minimum``; the largest
    p/q with q <= max_denominator (escalating the bound if the minimum is
    smaller than 1/max_denominator).  The bound must be at least 1.
    """
    if max_denominator < 1:
        raise ValueError(f"denominator bound must be at least 1, "
                         f"not {max_denominator}")
    minimum = separation_minimum(system)
    qmax = max_denominator
    while True:
        best: Optional[Fraction] = None
        for q in range(1, qmax + 1):
            p = _floor_sqrt_of_scaled(minimum, q)
            if p == 0:
                continue
            cand = Fraction(p, q)
            if best is None or cand > best:
                best = cand
        if best is not None:
            return best
        qmax *= 2


def _floor_sqrt_of_scaled(minimum, q: int) -> int:
    """Largest integer p with p^2 <= q^2 * minimum (exact comparisons).
    For a rational minimum a/b that is floor(sqrt(q^2 a b) / b), an
    integer square root."""
    if minimum.is_rational():
        m = minimum.as_fraction()
        return math.isqrt(q * q * m.numerator * m.denominator) // m.denominator
    p = math.isqrt(max(0, int(q * q * float(minimum))))
    bound = minimum * (q * q)
    while (bound - (p + 1) ** 2).sign() >= 0:
        p += 1
    while p > 0 and (bound - p * p).sign() < 0:
        p -= 1
    return p


@dataclass
class GenericVector:
    """v = tau_1 + a tau_2 + ... + a^(n-1) tau_n with a = 1 + 1/lam."""

    vector: Vector
    lam: Fraction
    base: Fraction


def generic_vector(system: CoxeterSystem, tau: list[Vector], lam: Fraction,
                   rays: Iterable[tuple[Vector, Scalar]]) -> GenericVector:
    """The slice direction; the separation inequality is checked on each
    of the ``rays``, given as (ray, r . r) pairs."""
    if lam <= 0:
        raise GenericityError("separation bound must be positive")
    a = 1 + 1 / lam
    field = system.field
    v = tuple(field.zero for _ in range(system.rank))
    weight = Fraction(1)
    for t in tau:
        v = tuple(x + y * weight for x, y in zip(v, t))
        weight *= a
    co = system.lower(v)
    if dot(v, co).sign() <= 0:
        raise GenericityError("slice direction has nonpositive norm")
    lam2 = lam * lam
    for ray, norm in rays:
        p = dot(ray, co)
        if p.sign() == 0:
            raise GenericityError("a ray lies on the slice hyperplane")
        slack = p * p - norm * lam2
        if slack.sign() < 0:
            raise GenericityError("separation inequality failed for a ray")
    return GenericVector(v, lam, a)


@dataclass
class Chamber:
    """The chamber w C: its element w and the ids of its extreme rays
    w d_k in the table of orbit rays (``system.orbit_rays[0]``)."""

    element: int
    ray_ids: tuple[int, ...]


def chambers(system: CoxeterSystem) -> list[Chamber]:
    """One chamber per group element, in ``system.element_sort_key`` order.

    The extreme rays of w C are the images w d_k of the dual rays d_k of the
    fundamental chamber C, so all |W| n of them are drawn from the system's
    table of orbit rays.  The ray ids of each element come from a
    breadth-first search over left multiplication by the simple
    reflections, ids(s w) = s(ids(w)).
    """
    act = system.orbit_rays[1]
    simple = [system.index_of[g[:system.rank]] for g in system.simple_perms]
    ids = {system.e_index: tuple(range(system.rank))}
    queue = [system.e_index]
    for w in queue:
        for s, row in zip(simple, act):
            sw = system.product(s, w)
            if sw not in ids:
                ids[sw] = tuple(row[k] for k in ids[w])
                queue.append(sw)
    return [Chamber(w, ids[w])
            for w in sorted(range(system.order), key=system.element_sort_key)]


def bounded_slice(system: CoxeterSystem, chamber_list: list[Chamber],
                  v: Vector) -> list[bool]:
    """For each chamber, whether its slice by the affine hyperplane through
    v normal to v is nonempty and bounded: v must be positive on every
    extreme ray of the closed chamber.  Each distinct ray is decided once.
    """
    table, co = system.orbit_rays[0], system.lower(v)
    positive: dict[int, bool] = {}
    for chamber in chamber_list:
        for k in chamber.ray_ids:
            if k not in positive:
                s = dot(table[k], co).sign()
                if s == 0:
                    raise GenericityError(
                        "chamber ray orthogonal to the slice direction")
                positive[k] = s > 0
    return [all(positive[k] for k in c.ray_ids) for c in chamber_list]
