"""Noncrossing partition lattices and their geometric companions.

Builds the interval below the rotation c in absolute order, the flag
complex on the ordered positive roots (read off the factorizations of c),
the order complexes of posets with their reduced rational homology, the
facet-boundary cycles that give an explicit homology basis, and the
Moebius number.

A simplex tau_1 < ... < tau_k of the flag complex maps to r(tau_k) ...
r(tau_1) in NC(W); the map is tabulated once, one product per simplex,
and its checks and the basis cycles read the table.

NC(W) is grown down from c: [e, c] is closed downward and graded by
reflection length (Bessis; Brady-Watt), so the steps w -> w t that lower
the length by one reach all of it, and reversed they are its covers.  No
element of W outside [e, c] is ever visited, and from a member only the
reflections below the member that first reached it are tried.  Posets are
given by their covers, and order questions inside NC(W) read bitsets over
positions grown from them: the Moebius recursion sums over the strict
down-sets, and the fiber check compares, per simplex of the flag complex,
the up-set of its image with the meet of its vertices' up-sets.  An order
complex has the maximal chains grown along the covers as its facets;
these, like the factorizations of c, are never nested, so a complex takes
its facets as given.

Homology is computed over the rationals from exact ranks of the sparse
integer boundary matrices, found by fraction-free column reduction.  The
reduced chain complex carries the empty simplex in degree -1, so the
degenerate rank-1 cases fall out of the same formulas.  Chains are
``{simplex: int}`` dicts; the basis cycles live in the top dimension,
where no boundaries lie, so their rank in homology is the rank of their
columns over the top faces.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from functools import cached_property
from itertools import combinations, compress, count, permutations
from math import gcd
from typing import Iterable, Optional, Sequence

from .coxeter import BudgetExceededError, CoxeterSystem
from .rootorder import OrderedRoots

DEFAULT_SIMPLEX_BUDGET = 5_000_000


class ComplexError(ValueError):
    """A structural expectation of the construction failed."""


# ---------------------------------------------------------------------------
# simplicial complexes presented by facets
# ---------------------------------------------------------------------------

class SimplicialComplex:
    """Vertex labels are integers; simplices are sorted label tuples.  The
    facets must be maximal: no declared face may lie inside another."""

    def __init__(self, vertices: Iterable[int], facets: Iterable[Sequence[int]]):
        self.vertices = tuple(sorted(set(vertices)))
        vertex_set = set(self.vertices)
        declared = {tuple(sorted(f)) for f in facets}
        if not all(set(t) <= vertex_set for t in declared):
            raise ComplexError("facet uses unknown vertices")
        self.facets = tuple(sorted(declared))

    @property
    def dim(self) -> int:
        return max((len(f) - 1 for f in self.facets), default=-1)

    def simplices_by_dim(self, budget: Optional[int] = None) -> dict[int, list[tuple]]:
        """All nonempty faces, keyed by dimension; deterministic order."""
        by_dim: dict[int, set] = {}
        count = 0
        for f in self.facets:
            for k in range(1, len(f) + 1):
                level = by_dim.setdefault(k - 1, set())
                for sub in combinations(f, k):
                    if sub not in level:
                        level.add(sub)
                        count += 1
                        if budget is not None and count > budget:
                            raise BudgetExceededError(
                                f"simplex budget {budget} exceeded")
        return {k: sorted(v) for k, v in sorted(by_dim.items())}

    def all_simplices(self, budget: Optional[int] = None) -> list[tuple]:
        out = []
        for _, level in sorted(self.simplices_by_dim(budget).items()):
            out.extend(level)
        return out

    def __repr__(self):
        return (f"SimplicialComplex({len(self.vertices)} vertices, "
                f"{len(self.facets)} facets, dim {self.dim})")


# ---------------------------------------------------------------------------
# the noncrossing partition lattice
# ---------------------------------------------------------------------------

@dataclass
class NcpLattice:
    """The interval [e, c] of the absolute order, graded by reflection length."""

    system: CoxeterSystem
    elements: list[int]            # group indices, sorted by (length, matrix)
    position: dict[int, int]       # group index -> position in `elements`
    covers: list[list[int]]        # position -> ascending positions covering it

    @property
    def size(self) -> int:
        return len(self.elements)

    def length(self, pos: int) -> int:
        return self.system.lengths[self.elements[pos]]

    @property
    def bottom(self) -> int:
        return 0

    @property
    def top(self) -> int:
        return self.size - 1

    def proper_positions(self) -> list[int]:
        return [p for p in range(self.size)
                if p not in (self.bottom, self.top)]

    def hasse_edges(self) -> list[tuple[int, int]]:
        return [(a, b) for a in range(self.size) for b in self.covers[a]]

    @cached_property
    def below(self) -> list[int]:
        """Strict down-sets, as bitsets over positions; positions are sorted
        by length, so every element comes after the elements it covers."""
        down = [0] * self.size
        for a, ups in enumerate(self.covers):
            for b in ups:
                down[b] |= down[a] | 1 << a
        return down

    @cached_property
    def above(self) -> list[int]:
        """Inclusive up-sets, as bitsets over positions, grown from the top
        along the covers: the mirror of ``below``."""
        up = [1 << a for a in range(self.size)]
        for a in reversed(range(self.size)):
            for b in self.covers[a]:
                up[a] |= up[b]
        return up

    def mobius_number(self) -> int:
        """mu(e, c) by the recursion mu(e, w) = -sum of mu(e, u) over u < w,
        summed over the set bits of each strict down-set."""
        mu = [1]
        for down in self.below[1:]:
            mu.append(-sum(compress(mu, _bit_flags(down))))
        return mu[self.top]


_DIGITS = bytes.maketrans(b"01", b"\0\1")


def _bit_flags(bits: int) -> bytes:
    """Byte q is 1 when bit q of ``bits`` is set and 0 otherwise."""
    return bin(bits)[:1:-1].encode().translate(_DIGITS)


def build_ncp(system: CoxeterSystem) -> NcpLattice:
    """The interval [e, c], grown down from c.  It is closed downward and
    graded by reflection length, so the steps w -> w t that lower the
    length by one reach all of it from c, and reversed they are its
    covers: u is covered by u t exactly when l(u t) = l(u) + 1 and u t
    lies in the interval.

    l(w t) = l(w) - 1 exactly when t <= w, so the down-steps of w are its
    reflections.  A member u first reached from w has u <= w, so its own
    reflections are among w's: they alone are tried from u, and from c,
    above which nothing lies, every reflection is."""
    lengths = system.lengths
    tried = {system.c_index: [t for t, _ in system.reflections]}
    members = [system.c_index]
    steps: dict[int, list[int]] = {}
    for w in members:
        drop = lengths[w] - 1
        below, own = [], []
        for t in tried[w]:
            u = system.product(w, t)
            if lengths[u] == drop:
                below.append(u)
                own.append(t)
        steps[w] = below
        for u in below:
            if u not in tried:
                tried[u] = own
                members.append(u)
    members.sort(key=system.element_sort_key)
    position = {g: p for p, g in enumerate(members)}
    covers: list[list[int]] = [[] for _ in members]
    for p, w in enumerate(members):
        for u in steps[w]:
            covers[position[u]].append(p)
    lattice = NcpLattice(system, members, position, covers)
    if lattice.length(lattice.bottom) != 0 or lattice.length(lattice.top) != system.rank:
        raise ComplexError("interval is not graded from e to c")
    return lattice


# ---------------------------------------------------------------------------
# the flag complex on the ordered positive roots
# ---------------------------------------------------------------------------

def build_root_complex(system: CoxeterSystem, ordered: OrderedRoots) -> SimplicialComplex:
    """Vertices are root positions 0..nh/2-1, and the facets are the
    increasing factorizations tau_1 < ... < tau_n of c into reflections,
    r(tau_n) ... r(tau_1) = c (Brady-Watt).  They are peeled off c largest
    label first: from x, each label j below the last one peeled steps to
    r(rho_j) x when that lowers the reflection length by one, and a walk
    that reaches e has peeled a facet.  Since l(c) = n, every facet has n
    vertices.  At length 1, x is a reflection and its own position is the
    one label that reaches e, so the last label is looked up, not peeled.
    """
    refl = ordered.reflection_index
    position = {r: j for j, r in enumerate(refl)}
    lengths = system.lengths
    facets: list[tuple[int, ...]] = []

    def peel(x: int, below: int, labels: tuple[int, ...]) -> None:
        if lengths[x] == 1:
            if position[x] < below:
                facets.append((position[x],) + labels)
            return
        for j in range(below):
            y = system.product(refl[j], x)
            if lengths[y] == lengths[x] - 1:
                peel(y, j, (j,) + labels)

    peel(system.c_index, ordered.count, ())
    return SimplicialComplex(range(ordered.count), facets)


def simplex_images(system: CoxeterSystem, ordered: OrderedRoots,
                   xc: SimplicialComplex) -> dict[tuple, int]:
    """Group index of r(tau_k) ... r(tau_1) for every simplex
    tau_1 < ... < tau_k of the complex: one product per simplex, the image
    of a simplex being r(tau_k) times the image of the simplex without
    tau_k, which comes before it in ``all_simplices``."""
    refl = ordered.reflection_index
    images: dict[tuple, int] = {}
    for simplex in xc.all_simplices():
        last = refl[simplex[-1]]
        images[simplex] = (system.product(last, images[simplex[:-1]])
                           if len(simplex) > 1 else last)
    return images


def simplex_length_rule_failures(system: CoxeterSystem,
                                 images: dict[tuple, int]) -> list[tuple]:
    """Simplices violating l(r(tau_1)...r(tau_k) c) = n - k, given the
    simplex images; reflections are involutions, so r(tau_1)...r(tau_k) is
    the inverse of the image."""
    bad = []
    for simplex, image in images.items():
        u = system.product(system.inverses[image], system.c_index)
        if system.lengths[u] != system.rank - len(simplex):
            bad.append((simplex, system.lengths[u]))
    return bad


@dataclass
class PosetMapReport:
    monotone_failures: list = dataclass_field(default_factory=list)
    length_failures: list = dataclass_field(default_factory=list)
    facet_failures: list = dataclass_field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not (self.monotone_failures or self.length_failures
                    or self.facet_failures)


def poset_map_report(system: CoxeterSystem,
                     images: dict[tuple, int]) -> PosetMapReport:
    """Order preservation and grading of the simplex-to-element map, given
    by its table of simplex images."""
    report = PosetMapReport()
    for simplex, image in images.items():
        if system.lengths[image] != len(simplex):
            report.length_failures.append(simplex)
        if len(simplex) == system.rank and image != system.c_index:
            report.facet_failures.append(simplex)
        for drop in range(len(simplex)):
            face = simplex[:drop] + simplex[drop + 1:]
            if face and not system.precedes(images[face], image):
                report.monotone_failures.append((face, simplex))
    return report


@dataclass
class FiberReport:
    checked: int = 0
    mismatches: list = dataclass_field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches


def fiber_report(ordered: OrderedRoots, xc: SimplicialComplex,
                 ncp: NcpLattice, images: dict[tuple, int]) -> FiberReport:
    """For every proper w: the simplices of the (n-2)-skeleton whose image
    (read from the table of simplex images) precedes w are exactly the
    simplices of the restricted complex, the full subcomplex on the roots
    whose reflections precede w.

    Both sides are read per simplex s from the lattice's up-sets, as
    bitsets over the proper positions.  An image below w lies below c, so
    s lies in the fibers of the proper positions above its image; an image
    outside NC(W), or a simplex the table lacks, lies in none.  Every
    reflection lies in NC(W), so s lies in the restricted complexes of the
    proper positions above all of its vertices' reflections.  The bits in
    which the two sides differ are the fibers that s breaks.
    """
    rank, position, above = ncp.system.rank, ncp.position, ncp.above
    proper = ((1 << ncp.top) - 1) & ~(1 << ncp.bottom)
    vertex_above = [above[position[t]] for t in ordered.reflection_index]
    restricted: dict[tuple, int] = {}
    for s in xc.all_simplices():
        face = restricted[s[:-1]] if len(s) > 1 else proper
        restricted[s] = face & vertex_above[s[-1]]
    broken: dict[int, list[tuple]] = {}
    for s in restricted.keys() | images.keys():
        u = images.get(s)
        fiber = (above[position[u]] & proper
                 if len(s) < rank and u in position else 0)
        diff = fiber ^ restricted.get(s, 0)
        if diff:
            for pos in compress(count(), _bit_flags(diff)):
                broken.setdefault(pos, []).append(s)
    return FiberReport(len(ncp.proper_positions()), [
        (ncp.elements[pos], sorted(broken[pos])) for pos in sorted(broken)])


# ---------------------------------------------------------------------------
# order complexes and rational homology
# ---------------------------------------------------------------------------

def order_complex(covers: list[list[int]],
                  budget: Optional[int] = None) -> SimplicialComplex:
    """Chains of a poset on labels 0..len(covers)-1, given by the labels
    covering each label; facets are the maximal chains, grown along the
    covers from every label that nothing covers.  The facets are simplices,
    so more than ``budget`` of them exceed the simplex budget.
    """
    covered = {b for ups in covers for b in ups}
    chains: list[tuple[int, ...]] = []

    def extend(chain):
        ups = covers[chain[-1]]
        if not ups:
            chains.append(chain)
            if budget is not None and len(chains) > budget:
                raise BudgetExceededError(f"simplex budget {budget} exceeded")
        for nxt in ups:
            extend(chain + (nxt,))

    for a in range(len(covers)):
        if a not in covered:
            extend((a,))
    return SimplicialComplex(range(len(covers)), chains)


def boundary(chain: dict[tuple, int]) -> dict[tuple, int]:
    """The boundary of an integer chain of oriented simplices (sorted
    tuples), without zero terms; the empty simplex has none."""
    out: dict[tuple, int] = {}
    for simplex, coeff in chain.items():
        for i in range(len(simplex)):
            face = simplex[:i] + simplex[i + 1:]
            out[face] = out.get(face, 0) + (-coeff if i % 2 else coeff)
    return {face: coeff for face, coeff in out.items() if coeff}


def _sparse_rank(columns: Iterable[dict[int, int]]) -> int:
    """Exact rank over the rationals of the matrix with the given sparse
    integer columns (row index -> nonzero entry).

    Fraction-free column reduction by lowest nonzero row: a column whose
    lowest row holds c is replaced by p * col - c * pivot, where the earlier
    pivot column with the same lowest row holds p there, and then divided
    by the gcd of its entries, until its lowest row is new (it becomes a
    pivot, its entries coprime and its pivot entry positive) or it
    vanishes.  Each step scales by a nonzero constant and adds a multiple
    of another column, so the rank over Q is unchanged.
    """
    pivots: dict[int, dict[int, int]] = {}
    for column in columns:
        col = dict(column)
        while col:
            low = max(col)
            other = pivots.get(low)
            if other is None:
                g = gcd(*col.values())
                if col[low] < 0:
                    g = -g
                pivots[low] = {row: value // g for row, value in col.items()}
                break
            p, c = other[low], col[low]
            g = gcd(p, c)
            p, c = p // g, c // g
            if p != 1:
                col = {row: value * p for row, value in col.items()}
            for row, value in other.items():
                new = col.get(row, 0) - c * value
                if new:
                    col[row] = new
                else:
                    del col[row]
            g = gcd(*col.values())
            if g > 1:
                col = {row: value // g for row, value in col.items()}
    return len(pivots)


def _boundary_column(simplex: tuple, pos: dict) -> dict[int, int]:
    """The boundary of an oriented simplex, keyed by the faces' positions."""
    return {pos[simplex[:i] + simplex[i + 1:]]: -1 if i % 2 else 1
            for i in range(len(simplex))}


def betti_numbers(complex_: SimplicialComplex,
                  budget: int = DEFAULT_SIMPLEX_BUDGET) -> dict[int, int]:
    """Reduced rational Betti numbers; includes degree -1 (empty complex)."""
    by_dim = complex_.simplices_by_dim(budget)
    by_dim[-1] = [()]
    top = max(by_dim)
    ranks = {}
    for k in range(0, top + 1):
        pos = {s: i for i, s in enumerate(by_dim[k - 1])}
        ranks[k] = _sparse_rank(_boundary_column(s, pos) for s in by_dim[k])
    ranks[top + 1] = 0
    betti = {}
    for k in range(-1, top + 1):
        betti[k] = len(by_dim.get(k, ())) - ranks.get(k, 0) - ranks[k + 1]
    return betti


# ---------------------------------------------------------------------------
# the explicit homology basis
# ---------------------------------------------------------------------------

def facet_boundary_cycles(system: CoxeterSystem, xc: SimplicialComplex,
                          ncp: NcpLattice, images: dict[tuple, int]
                          ) -> list[dict[tuple, int]]:
    """One cycle per facet: the fundamental cycle of the barycentric sphere
    of the facet boundary, pushed into the order complex of the proper part
    by the table of simplex images.

    Chains are integer combinations of simplices on the proper part's
    labels (positions after removing bottom and top); each returned chain
    has zero boundary, and together they have full rank in top reduced
    homology.
    """
    proper = ncp.proper_positions()
    label_of = {ncp.elements[pos]: lab for lab, pos in enumerate(proper)}
    n = system.rank
    # a permutation of a facet's places is a flag of its faces: the sign,
    # and the proper faces passed through as bitmasks over the places
    flags = [(_parity(perm), [sum(1 << p for p in perm[:k])
                              for k in range(1, n)])
             for perm in permutations(range(n))]
    cycles = []
    for facet in xc.facets:
        label = {mask: label_of[images[tuple(
                     v for p, v in enumerate(facet) if mask >> p & 1)]]
                 for mask in range(1, (1 << n) - 1)}
        chain: dict[tuple, int] = {}
        for sign, masks in flags:
            simplex = tuple(label[m] for m in masks)
            if len(set(simplex)) < n - 1:
                raise ComplexError(
                    "face chain degenerated: map not strictly monotone")
            chain[simplex] = chain.get(simplex, 0) + sign
        cycles.append({s: c for s, c in chain.items() if c})
    return cycles


def _parity(perm: Sequence[int]) -> int:
    inversions = sum(1 for i in range(len(perm))
                     for j in range(i + 1, len(perm)) if perm[i] > perm[j])
    return -1 if inversions % 2 else 1


def cycle_space_rank(cycles: list[dict[tuple, int]],
                     complex_: SimplicialComplex, dim: int) -> int:
    """Rank of the cycles in reduced homology of the top dimension ``dim``.
    No face lies above the top, so no boundary lies in it, and the rank is
    that of the cycles' integer columns over the top faces: the facets of
    that dimension, or the empty simplex when the complex is empty."""
    if dim != complex_.dim:
        raise ComplexError(f"homology rank taken in dimension {dim}, "
                           f"not in the top dimension {complex_.dim}")
    top = ([f for f in complex_.facets if len(f) == dim + 1]
           if dim >= 0 else [()])
    pos = {s: i for i, s in enumerate(top)}
    columns = []
    for cycle in cycles:
        if not pos.keys() >= cycle.keys():
            raise ComplexError(f"a cycle has a term that is not a top face "
                               f"of dimension {dim}")
        columns.append({pos[s]: c for s, c in cycle.items() if c})
    return _sparse_rank(columns)
