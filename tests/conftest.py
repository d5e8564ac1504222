import functools
import math
from fractions import Fraction
from operator import and_

import pytest

from ncph.complexes import (ComplexError, FiberReport, NcpLattice,
                            SimplicialComplex)
from ncph.coxeter import closure
from ncph.fields import FieldError
from ncph.linalg import Matrix, vec_sub
from ncph.pipeline import Bundle, RunConfig


def vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def from_coords(field, coords):
    """The scalar with the given rational coordinates over 1, theta, ...,
    theta^(d-1)."""
    coords = [Fraction(c) for c in coords]
    if len(coords) != field.degree:
        raise FieldError("coordinate vector has wrong length")
    den = math.lcm(*(c.denominator for c in coords))
    return field.from_ints(
        [c.numerator * (den // c.denominator) for c in coords], den)


def field_interval(field):
    """The field's current isolating interval, as Fractions."""
    lo, hi, q = field._scaled_interval
    return Fraction(lo, q), Fraction(hi, q)


@functools.lru_cache(maxsize=None)
def bundle_for(type_label: str, rank: int, swap: bool = False) -> Bundle:
    """Shared, disk-cache-free bundle per group (heavy parts built lazily)."""
    return Bundle(RunConfig(type_label=type_label, rank=rank,
                            swap_classes=swap, cache=False))


def interior_point(system):
    """d_1 + ... + d_n: the dual rays' sum, inside the fundamental chamber,
    so a root is positive exactly when it pairs positively with it."""
    return functools.reduce(vec_add, system.dual_rays)


def bfs_reflection_lengths(system) -> list[int]:
    """Independent oracle for ``system.lengths``: the minimal word length
    over all reflections, by breadth-first search from e."""
    dist = [-1] * system.order
    dist[system.e_index] = 0
    frontier = [system.e_index]
    refl = [i for i, _ in system.reflections]
    while frontier:
        nxt = []
        for i in frontier:
            for t in refl:
                j = system.product(i, t)
                if dist[j] < 0:
                    dist[j] = dist[i] + 1
                    nxt.append(j)
        frontier = nxt
    return dist


def rank_reflection_lengths(system) -> list[int]:
    """Second route to ``system.lengths``: l(w) = rank(w - I), the exact
    rank in the number field of the columns w(a_j) - a_j, one rank per
    conjugacy class, spread over the class by products s w s with the
    simple reflections (elements 1..n)."""
    lengths = [-1] * system.order
    for start, key in enumerate(system.keys):
        if lengths[start] >= 0:
            continue
        value = Matrix(system.field, [
            vec_sub(system.roots[k], system.roots[j])
            for j, k in enumerate(key)]).rank()
        for y in closure([start], lambda x: [
                system.product(system.product(s, x), s)
                for s in range(1, system.rank + 1)]):
            lengths[y] = value
    return lengths


def full_subcomplex(complex_: SimplicialComplex, keep) -> SimplicialComplex:
    """The subcomplex induced on a vertex subset.  Its facets are the traces
    of the facets that lie in no other trace: the traces holding every
    vertex of one, as a bitset over positions, must be that one alone."""
    keep = set(keep)
    traces = sorted({tuple(v for v in f if v in keep)
                     for f in complex_.facets} - {()})
    holding = dict.fromkeys(keep, 0)
    for pos, t in enumerate(traces):
        for v in t:
            holding[v] |= 1 << pos
    everything = (1 << len(traces)) - 1
    return SimplicialComplex(keep & set(complex_.vertices), [
        t for pos, t in enumerate(traces)
        if functools.reduce(and_, (holding[v] for v in t), everything)
        == 1 << pos])


def restricted_complex(system, ordered, xc: SimplicialComplex,
                       w: int) -> SimplicialComplex:
    """Second route to the fibers: the full subcomplex on the roots whose
    reflections precede w, each test a product in the group."""
    if not system.precedes(w, system.c_index):
        raise ComplexError("element is not below c in absolute order")
    keep = [i for i in range(ordered.count)
            if system.precedes(ordered.reflection_index[i], w)]
    return full_subcomplex(xc, keep)


def walk_ncp(system) -> NcpLattice:
    """Second route to ``build_ncp``: NC(W) grown down from c, trying every
    reflection from every member."""
    lengths = system.lengths
    reflections = [t for t, _ in system.reflections]
    steps = {}

    def down(w):
        steps[w] = [u for u in (system.product(w, t) for t in reflections)
                    if lengths[u] == lengths[w] - 1]
        return steps[w]

    members = closure([system.c_index], down)
    members.sort(key=system.element_sort_key)
    position = {g: p for p, g in enumerate(members)}
    covers = [[] for _ in members]
    for p, w in enumerate(members):
        for u in steps[w]:
            covers[position[u]].append(p)
    return NcpLattice(system, members, position, covers)


def reference_mobius_number(ncp: NcpLattice) -> int:
    """Second route to ``mobius_number``: the recursion over every earlier
    position, O(|NC|^2) bit tests."""
    mu = []
    for pos, down in enumerate(ncp.below):
        mu.append(-sum(m for q, m in enumerate(mu) if down >> q & 1)
                  if pos != ncp.bottom else 1)
    return mu[ncp.top]


def reference_fiber_report(ordered, xc: SimplicialComplex, ncp: NcpLattice,
                           images: dict) -> FiberReport:
    """Second route to ``fiber_report``: one proper element at a time, both
    sides read from its strict down-set, every simplex scanned per
    element."""
    report = FiberReport()
    placed = {s: ncp.position[u] for s, u in images.items()
              if len(s) < ncp.system.rank and u in ncp.position}
    vertex_position = [ncp.position[t] for t in ordered.reflection_index]
    masks = {s: sum(1 << v for v in s) for s in xc.all_simplices()}
    for pos in ncp.proper_positions():
        down = ncp.below[pos] | 1 << pos
        lhs = {s for s, p in placed.items() if down >> p & 1}
        keep = sum(1 << v for v, p in enumerate(vertex_position)
                   if down >> p & 1)
        rhs = {s for s, mask in masks.items() if mask & keep == mask}
        if lhs != rhs:
            report.mismatches.append((ncp.elements[pos], sorted(lhs ^ rhs)))
        report.checked += 1
    return report


@pytest.fixture(scope="session")
def a2():
    return bundle_for("A", 2)


@pytest.fixture(scope="session")
def b3():
    return bundle_for("B", 3)


@pytest.fixture(scope="session")
def h3():
    return bundle_for("H", 3)
