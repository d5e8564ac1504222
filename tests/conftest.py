import functools
from operator import and_

import pytest

from ncph.complexes import ComplexError, SimplicialComplex
from ncph.linalg import vec_add
from ncph.pipeline import Bundle, RunConfig


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


@pytest.fixture(scope="session")
def a2():
    return bundle_for("A", 2)


@pytest.fixture(scope="session")
def b3():
    return bundle_for("B", 3)


@pytest.fixture(scope="session")
def h3():
    return bundle_for("H", 3)
