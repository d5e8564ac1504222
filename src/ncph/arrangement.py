"""Rays and chambers of the reflection arrangement, and the generic slice.

A ray is a canonical spanning vector of a 1-dimensional intersection of
reflection hyperplanes (first nonzero coordinate scaled to 1).  The
separation bound is a certified rational lower bound for the minimal
nonzero |r . rho| over unit rays r and roots rho; it feeds the geometric
series defining the generic direction v, and the defining inequality is
re-verified exactly for every ray.

The extreme rays of the chamber w C are the images w d_k of the dual rays
d_k of the fundamental chamber, so the chambers share one table of
distinct rays, the W-orbits of the d_k, and refer to them by id.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import combinations
from typing import Optional

from .coxeter import CoxeterSystem, simple_orbit
from .linalg import Matrix, Vector, dot, vec_add, vec_key, vec_scale

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
    """All 1-dimensional intersections of reflection hyperplanes, once each."""
    n = system.rank
    if n == 1:
        return []
    normals = [root for _, root in system.reflections]
    seen: dict[tuple, Vector] = {}
    for subset in combinations(range(len(normals)), n - 1):
        m = Matrix(system.field, [normals[i] for i in subset])
        kernel = m.kernel()
        if len(kernel) != 1:
            continue
        ray = canonical_ray(kernel[0])
        seen.setdefault(vec_key(ray), ray)
    return [seen[k] for k in sorted(seen)]


def ray_separation_bound(system: CoxeterSystem, rays: list[Vector],
                         max_denominator: int = DEFAULT_DENOMINATOR_BOUND
                         ) -> Fraction:
    """A rational 0 < lam with lam^2 <= min (r.rho)^2 / (r.r) over nonzero
    pairs; the largest p/q with q <= max_denominator (escalating the bound
    if the minimum is smaller than 1/max_denominator).
    """
    if not rays:
        return Fraction(1)
    minimum = None
    for ray in rays:
        rr = dot(ray, ray)
        rr_inv = rr.inverse()
        for _, root in system.reflections:
            p = dot(ray, root)
            if p.sign() == 0:
                continue
            value = p * p * rr_inv
            if minimum is None or value < minimum:
                minimum = value
    if minimum is None or minimum.sign() <= 0:
        raise GenericityError("no nonzero ray-root pairing found")
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
    """Largest integer p with p^2 <= q^2 * minimum (exact comparisons)."""
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
                   rays: Optional[list[Vector]] = None) -> GenericVector:
    if lam <= 0:
        raise GenericityError("separation bound must be positive")
    a = 1 + 1 / lam
    field = system.field
    v = tuple(field.zero for _ in range(system.rank))
    weight = Fraction(1)
    for t in tau:
        v = tuple(x + y * weight for x, y in zip(v, t))
        weight *= a
    if dot(v, v).sign() <= 0:
        raise GenericityError("slice direction has nonpositive norm")
    if rays is not None:
        lam2 = lam * lam
        for ray in rays:
            p = dot(ray, v)
            if p.sign() == 0:
                raise GenericityError("a ray lies on the slice hyperplane")
            slack = p * p - dot(ray, ray) * lam2
            if slack.sign() < 0:
                raise GenericityError("separation inequality failed for a ray")
    return GenericVector(v, lam, a)


@dataclass
class Chamber:
    """The chamber w C: its extreme rays w d_k, both as ids into the shared
    table of orbit rays and as the table's vectors, and an interior point."""

    element: int
    ray_ids: tuple[int, ...]
    rays: list[Vector]
    interior: Vector


def chambers(system: CoxeterSystem) -> list[Chamber]:
    """One chamber per group element, in deterministic (length, matrix) order.

    The extreme rays of w C are the images w d_k of the dual rays d_k of the
    fundamental chamber C, so all |W| n of them are drawn from the W-orbits
    of the d_k, built once.  The ray ids of each element come from a
    breadth-first search over left multiplication by the simple
    reflections, ids(s w) = s(ids(w)); the interior point w (d_1 + ... + d_n)
    is the sum of the chamber's rays.
    """
    table, _, act = simple_orbit(system.dual_rays, system.simple_roots)
    simple = [system.index_of[g] for g in system.simple_perms]
    ids = {system.e_index: tuple(range(system.rank))}
    queue = [system.e_index]
    for w in queue:
        for s, row in zip(simple, act):
            sw = system.product(s, w)
            if sw not in ids:
                ids[sw] = tuple(row[k] for k in ids[w])
                queue.append(sw)
    out = []
    for w in sorted(range(system.order), key=system.element_sort_key):
        rays = [table[k] for k in ids[w]]
        out.append(Chamber(w, ids[w], rays, reduce(vec_add, rays)))
    return out


def bounded_slice(chamber: Chamber, v: Vector) -> bool:
    """Whether the slice of the chamber by the affine hyperplane through v
    normal to v is nonempty and bounded: v must be positive on every
    extreme ray of the closed chamber.
    """
    verdict = True
    for ray in chamber.rays:
        s = dot(ray, v).sign()
        if s == 0:
            raise GenericityError(
                "chamber ray orthogonal to the slice direction")
        if s < 0:
            verdict = False
    return verdict
