"""The intersection lattice, and the embedding of the lattice homology
basis into it.

The flats of the intersection lattice L(W) are the W-translates of the
standard parabolic flats, so their reflection sets are integer orbit
closures on root ids.  A flat is its reflection set, with the ids of the
|J| roots w(a_j) that span its normals; order and covers are subset tests
on reflection sets.  Exact reduced echelon normals are taken only for the
export (``flat_normals``).

The operator 2(I - c)^(-1) carries the ordered roots to the vertex
configuration of a simplicial cone complex whose facet walls lie in
reflection hyperplanes.  The exact vertex-root pairing names the root of
each wall, so a facet cone is a union of chambers reached from one of
them by walking across the chamber panels that are not walls; the walk
runs on group elements (``arrangement.chambers`` lists one chamber per
element).  The resulting 0/1 facet-chamber incidence realizes the
homology embedding, and its rank certifies injectivity; it is kept only
as its sparse columns, the chamber positions in each facet cone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterator, Optional

from .arrangement import Chamber, canonical_ray
from .complexes import (DEFAULT_SIMPLEX_BUDGET, SimplicialComplex,
                        _sparse_rank, betti_numbers, order_complex)
from .coxeter import CoxeterSystem, closure
from .fields import Scalar
from .linalg import Matrix, Vector, dot
from .rootorder import OrderedRoots


class EmbedError(ValueError):
    """A geometric expectation of the embedding construction failed."""


def vertex_operator(system: CoxeterSystem) -> Matrix:
    """The exact matrix 2 (I - c)^(-1); c has no eigenvalue 1, so I - c is
    invertible whenever the action is essential.
    """
    delta = system.identity - system.coxeter_element
    try:
        inverse = delta.inverse()
    except ValueError:
        raise EmbedError("I - c is singular: the action is not essential"
                         ) from None
    return inverse.scale(2)


@dataclass
class VertexComplex:
    """Vertices 2(I-c)^(-1) rho_i with the facet combinatorics of the root
    complex (positions are shared 0-based root indices), the ordered
    positive roots rho_j they pair with, and those roots lowered by the
    form (``system.lower``)."""

    operator: Matrix
    vertices: list[Vector]
    complex: SimplicialComplex
    roots: list[Vector]
    covectors: list[Vector]

    @cached_property
    def pairing(self) -> list[list[Scalar]]:
        """P[i][j] = v_i . rho_j, built on first use."""
        return [[dot(v, co) for co in self.covectors] for v in self.vertices]


def vertex_complex(system: CoxeterSystem, ordered: OrderedRoots,
                   xc: SimplicialComplex) -> VertexComplex:
    op = vertex_operator(system)
    roots = ordered.roots
    return VertexComplex(op, [op.apply(rho) for rho in roots], xc, roots,
                         [system.lower(rho) for rho in roots])


@dataclass
class PairingReport:
    negative_pairs: list
    nonzero_band: list

    @property
    def ok(self) -> bool:
        return not (self.negative_pairs or self.nonzero_band)


def pairing_report(system: CoxeterSystem, vc: VertexComplex) -> PairingReport:
    """Exhaustive exact checks of the vertex-root pairing:
    mu(rho_i) . rho_j >= 0 for i <= j, and mu(rho_(i+t)) . rho_i = 0 for
    1 <= t <= n-1."""
    pairing, count = vc.pairing, len(vc.roots)
    negative = [(i, j) for i in range(count) for j in range(i, count)
                if pairing[i][j].sign() < 0]
    band = [(i + t, i) for i in range(count) for t in range(1, system.rank)
            if i + t < count and not pairing[i + t][i].is_zero()]
    return PairingReport(negative, band)


def nonpositive_slice(system: CoxeterSystem, vc: VertexComplex,
                      v: Vector) -> list[int]:
    """The positions i with mu(rho_i) . v <= 0: the vertices that the
    slice direction v does not see on its positive side."""
    co = system.lower(v)
    return [i for i, x in enumerate(vc.vertices) if dot(x, co).sign() <= 0]


# ---------------------------------------------------------------------------
# the intersection lattice
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Flat:
    """An intersection of reflection hyperplanes, given by the positions in
    ``system.reflections`` of every hyperplane containing it (a flat is the
    intersection of those hyperplanes), and by the ids in ``system.roots``
    of codim roots that span its normal space."""

    reflections: frozenset[int]
    basis: tuple[int, ...]

    @property
    def codim(self) -> int:
        return len(self.basis)


def intersection_lattice(system: CoxeterSystem) -> list[Flat]:
    """All intersections of subfamilies of the arrangement, from the whole
    space (codim 0) down to the origin (codim n), ordered by codim.

    Every flat is a W-translate w X_J of a standard parabolic flat X_J, the
    intersection of the walls of the simple roots in J (Barcelo-Ihrig), and
    the hyperplanes containing w X_J are those of the roots w(Phi_J).  So
    the reflection sets come from closing the simple roots in J under their
    own reflections and then under all simple reflections, on root ids.
    Each image g w(Phi_J) carries the ids g w(a_j), j in J, of its parent:
    these |J| independent roots span the normal space of the flat.  No
    field arithmetic is done.
    """
    position = {i: p for p, (i, _) in enumerate(system.reflections)}
    of_root = [position[i] for i in system.reflection_of]
    perms = system.simple_perms
    basis: dict[frozenset[int], tuple[int, ...]] = {}   # w(Phi_J) -> w(J)
    for size in range(system.rank + 1):
        for J in combinations(range(system.rank), size):
            # Phi_J from the simple roots in J, whose ids are J
            phi = frozenset(closure(J, lambda k: [perms[j][k] for j in J]))
            if phi in basis:
                continue
            basis[phi] = J
            queue = [phi]
            for image in queue:
                for g in perms:
                    new = frozenset(g[k] for k in image)
                    if new not in basis:
                        basis[new] = tuple(g[k] for k in basis[image])
                        queue.append(new)
    # the flats of codim |J| are all found in the pass over |J|
    return [Flat(frozenset(of_root[k] for k in phi), ids)
            for phi, ids in basis.items()]


def flat_normals(system: CoxeterSystem, flat: Flat) -> tuple:
    """The reduced echelon basis of the flat's normal space (roots, in
    simple-root coordinates; the flat is their orthogonal complement under
    the form): unique per flat, so it is the flat's canonical basis, and
    (codim, rational coordinates of these rows) orders the flats totally."""
    rows = Matrix(system.field, [system.roots[k] for k in flat.basis]).rref()
    normals = tuple(r for r in rows.rows if not all(e.is_zero() for e in r))
    if len(normals) != flat.codim:
        raise EmbedError("a reflection set spans the wrong codimension")
    return normals


def flat_leq(a: Flat, b: Flat) -> bool:
    """Reverse inclusion order: a <= b when a contains b as a subspace.

    Every flat is the intersection of the hyperplanes containing it, so
    this holds exactly when every hyperplane containing a contains b.
    """
    return a.reflections <= b.reflections


def flat_covers(flats: list[Flat]) -> list[list[int]]:
    """The cover lists of flats sorted by codimension, as ascending
    positions in the list: the flats covering a flat are the flats of the
    next codimension that contain it (the lattice is graded by codim)."""
    by_codim: dict[int, list[int]] = {}
    for pos, f in enumerate(flats):
        by_codim.setdefault(f.codim, []).append(pos)
    return [[b for b in by_codim.get(a.codim + 1, ())
             if flat_leq(a, flats[b])] for a in flats]


def intersection_lattice_proper_betti(system: CoxeterSystem,
                                      budget: int = DEFAULT_SIMPLEX_BUDGET,
                                      flats: Optional[list[Flat]] = None
                                      ) -> dict[int, int]:
    """Reduced Betti numbers of the order complex of the proper part;
    ``flats`` is the intersection lattice when the caller has built it."""
    if flats is None:
        flats = intersection_lattice(system)
    proper = [f for f in flats if 0 < f.codim < system.rank]
    return betti_numbers(order_complex(flat_covers(proper), budget), budget)


def rays_as_flats_check(system: CoxeterSystem, rays: list[Vector],
                        flats: list[Flat]) -> bool:
    """The canonical rays are exactly the codim n-1 flats of the
    intersection lattice ``flats``.  The line of normals N is
    {x : N B x = 0}, the image under B^-1 (whose rows are the dual rays) of
    the kernel of N."""
    lines = [f for f in flats if f.codim == system.rank - 1]
    gram_inverse = Matrix(system.field, system.dual_rays)
    ray_keys = set(rays)
    line_keys = set()
    for f in lines:
        kernel = Matrix(system.field,
                        [system.roots[k] for k in f.basis]).kernel()
        if len(kernel) != 1:
            return False
        line_keys.add(canonical_ray(gram_inverse.apply(kernel[0])))
    return ray_keys == line_keys


# ---------------------------------------------------------------------------
# facet-chamber incidence
# ---------------------------------------------------------------------------

def _facet_walls(vc: VertexComplex, zeros: list[int],
                 facet: tuple[int, ...]) -> set[int]:
    """The ordered positions of the roots whose hyperplanes carry the facet
    cone's walls; ``zeros[i]`` is the bitset of the positive roots
    orthogonal to v_i.  The wall opposite vertex j is the one positive root
    orthogonal to the other vertices (every root, for rank 1); it must not
    be orthogonal to v_j, which certifies that the vertices are
    independent."""
    walls = set()
    for j in facet:
        common = (1 << len(vc.roots)) - 1
        for i in facet:
            if i != j:
                common &= zeros[i]
        if not common:
            raise EmbedError(f"facet {facet}: the wall opposite vertex {j} "
                             "lies in no reflection hyperplane")
        rho = common.bit_length() - 1
        if common != 1 << rho:
            raise EmbedError(f"facet {facet}: the vertices other than {j} "
                             "span less than a hyperplane")
        if vc.pairing[j][rho].is_zero():
            raise EmbedError(f"facet {facet} has linearly dependent vertices")
        walls.add(rho)
    return walls


def _walk_facets(system: CoxeterSystem, vc: VertexComplex,
                 chamber_list: list[Chamber], facets
                 ) -> Iterator[list[int]]:
    """For each facet in turn, the sorted positions of the chambers whose
    closed cone lies inside the simplicial cone spanned by the facet's
    vertices.

    The walls of the cone lie in reflection hyperplanes, so the cone is a
    union of chambers (W acts simply transitively on them, and the panels
    of w C lie in the hyperplanes of the roots w(a_k)): a walk over
    w -> w s_k that does not cross a wall visits exactly these chambers.
    It starts from a chamber whose closure holds the sum x of the facet's
    vertices, reached by descent: at w, step to w s_k while
    x . w(a_k) < 0, each step crossing one hyperplane that separates w C
    from x, so there are at most as many steps as positive roots.  The
    descent starts where the previous facet's descent ended (at e for the
    first), as any start will do.
    """
    perms, pairing = system.perms, vc.pairing
    simple = [system.index_of[g[:system.rank]] for g in system.simple_perms]
    position = {c.element: pos for pos, c in enumerate(chamber_list)}
    root_position = [None] * len(system.roots)   # id -> (ordered pos, +-1)
    for j, rho in enumerate(vc.roots):
        k = system.root_id[rho]
        root_position[k] = (j, 1)
        root_position[system.negative[k]] = (j, -1)
    zeros = [sum(1 << j for j, p in enumerate(row) if p.is_zero())
             for row in pairing]
    w = system.e_index
    for facet in facets:
        walls = _facet_walls(vc, zeros, facet)
        signs: dict[int, int] = {}   # ordered position j -> sign of x . rho_j

        def side(root: int) -> int:
            j, sign = root_position[root]
            if j not in signs:
                signs[j] = sum((pairing[i][j] for i in facet[1:]),
                               pairing[facet[0]][j]).sign()
            return sign * signs[j]

        k = steps = 0
        while k < system.rank:
            if side(perms[w][k]) < 0:
                w = system.product(w, simple[k])
                k = 0
                steps += 1
                if steps > len(vc.roots):
                    raise EmbedError(f"facet {facet}: the descent took more "
                                     "steps than there are hyperplanes")
            else:
                k += 1
        # x lies in the open cone and in the closure of w C, so w C lies in
        # the cone, which is a union of chambers bounded by the walls
        seen = {w}
        queue = [w]
        for u in queue:
            for k, s in enumerate(simple):
                if root_position[perms[u][k]][0] not in walls:
                    us = system.product(u, s)
                    if us not in seen:
                        seen.add(us)
                        queue.append(us)
        yield sorted(position[u] for u in queue)


@dataclass
class EmbeddingReport:
    """The facet-chamber incidence and the verdicts that make the induced
    homology map injective.  The incidence is kept as one sparse column
    per facet, the sorted positions in the chamber list of the chambers
    inside the facet cone; its rows are the bounded-slice chambers, and
    ``rank`` is its exact rank over them."""

    facets: list[tuple[int, ...]]
    bounded_positions: list[int]          # positions into the chamber list
    columns: list[list[int]]              # per facet, chamber positions
    rank: int

    @property
    def column_weights(self) -> list[int]:
        return [len(c) for c in self.columns]

    @property
    def covered_chambers(self) -> int:
        return sum(map(len, self.columns))

    @property
    def bounded_count(self) -> int:
        return len(self.bounded_positions)

    @property
    def injective(self) -> bool:
        return self.rank == len(self.facets)

    @property
    def columns_nonempty(self) -> bool:
        return all(self.columns)

    @property
    def columns_disjoint(self) -> bool:
        """No chamber lies in two facet cones (a column lists a chamber
        at most once)."""
        return len({p for c in self.columns for p in c}) == self.covered_chambers

    @property
    def incident_all_bounded(self) -> bool:
        return {p for c in self.columns for p in c} <= set(self.bounded_positions)

    @property
    def ok(self) -> bool:
        return (self.injective and self.columns_nonempty
                and self.columns_disjoint and self.incident_all_bounded)


def embedding_report(system: CoxeterSystem, vc: VertexComplex,
                     chamber_list: list[Chamber], bounded_flags: list[bool]
                     ) -> EmbeddingReport:
    """The facet-chamber incidence, given the bounded-slice flag of each
    chamber (see ``arrangement.bounded_slice``)."""
    facets = list(vc.complex.facets)
    columns = list(_walk_facets(system, vc, chamber_list, facets))
    rank = _sparse_rank({p: 1 for p in c if bounded_flags[p]} for c in columns)
    return EmbeddingReport(
        facets=facets,
        bounded_positions=[p for p, b in enumerate(bounded_flags) if b],
        columns=columns,
        rank=rank,
    )
