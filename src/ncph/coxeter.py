"""Finite Coxeter systems realized exactly.

A diagram is a Coxeter matrix.  The system realizes it by Tits' geometric
representation (Humphreys, Reflection Groups and Coxeter Groups, 5.3): the
simple roots, permuted into a bipartite order (two classes of pairwise
orthogonal roots), are the standard basis, and geometry is the unit
W-invariant form B_ij = -cos(pi/m_ij), exact over the field its entries
generate: Q for types A, D and E, Q(sqrt2) for B and F, Q(sqrt5) for H,
Q(sqrt3) for G2 and Q(2cos(pi/m)) for I2(m).  Nothing needs a square root,
and W is finite exactly when B is positive definite.  The group acts on
the nh roots, and each element is stored as a permutation of root ids
(the permutation model of CHEVIE/GAP).  A linear map is fixed by the
images of a basis, so an element is keyed by the ids of its n columns
w(a_1), ..., w(a_n): the group is generated breadth-first on those keys,
composing a full permutation once per new element, and a product, an
inverse or a conjugate is n id lookups and one table lookup.  None of it
touches the number field.  The rotation c is the product of the
simple root permutations in bipartite order, and the reflection of every
root, with its sign, is read off the breadth-first root orbit by
conjugating along it.  Reflection length is the fixed-space
codimension, a class function: its fixed dimension is one integer trace
average over the powers of an element per conjugacy class (none in rank
2, where it is 0, 1 or 2 by kind), checked elsewhere by words and ranks.
The exact matrix of an element, c's included, has the images of the
simple roots as its columns and is built only on demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce
from operator import itemgetter
from typing import Optional

from .fields import (NumberField, Scalar, cos_pi_over, cosine_field,
                     quadratic_field, rationals)
from .linalg import Matrix, Vector, dot, vec_key, vec_neg

DEFAULT_GROUP_CAP = 2_000_000


class NotFiniteTypeError(ValueError):
    """The Coxeter matrix does not define a finite reflection group."""


class BudgetExceededError(RuntimeError):
    """A configured enumeration budget was hit."""


# ---------------------------------------------------------------------------
# diagrams
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoxeterDiagram:
    matrix: tuple[tuple[int, ...], ...]
    label: str = "custom"

    def __post_init__(self):
        m = self.matrix
        n = len(m)
        if n == 0:
            raise ValueError("empty diagram")
        for i in range(n):
            if len(m[i]) != n:
                raise ValueError("Coxeter matrix must be square")
            if m[i][i] != 1:
                raise ValueError("diagonal entries must be 1")
            for j in range(n):
                if m[i][j] != m[j][i]:
                    raise ValueError("Coxeter matrix must be symmetric")
                if i != j and m[i][j] < 2:
                    raise ValueError("off-diagonal entries must be >= 2")
        # the group is a product when the graph of labels >= 3 falls apart
        parts = sorted({tuple(sorted(closure([i], lambda k: [
            j for j in range(n) if m[k][j] >= 3]))) for i in range(n)})
        if len(parts) > 1:
            raise ValueError("reducible diagram: components " + ", ".join(
                str(list(p)) for p in parts))

    @property
    def rank(self) -> int:
        return len(self.matrix)

    @staticmethod
    def from_matrix(rows, label="custom") -> "CoxeterDiagram":
        return CoxeterDiagram(tuple(tuple(int(e) for e in row) for row in rows), label)

    @staticmethod
    def from_type(letter: str, rank: int) -> "CoxeterDiagram":
        letter = letter.upper()
        if letter == "I":
            # the second CLI argument is the dihedral order parameter m
            m = rank
            if m < 2:
                raise ValueError("I2(m) needs m >= 2")
            return CoxeterDiagram(((1, m), (m, 1)), f"I2({m})")
        if letter == "G":
            if rank != 2:
                raise ValueError("type G has rank 2")
            return CoxeterDiagram(((1, 6), (6, 1)), "G2")
        if letter == "A":
            if rank < 1:
                raise ValueError("type A needs rank >= 1")
            return CoxeterDiagram(_path_matrix(rank, {}), f"A{rank}")
        if letter in ("B", "C"):
            if rank < 2:
                raise ValueError("type B needs rank >= 2")
            return CoxeterDiagram(_path_matrix(rank, {0: 4}), f"{letter}{rank}")
        if letter == "D":
            if rank < 4:
                raise ValueError("type D needs rank >= 4")
            rows = [list(r) for r in _path_matrix(rank - 1, {})]
            for row in rows:
                row.append(2)
            rows.append([2] * rank)
            rows[-1][-1] = 1
            rows[rank - 3][rank - 1] = rows[rank - 1][rank - 3] = 3
            return CoxeterDiagram.from_matrix(rows, f"D{rank}")
        if letter == "E":
            # E7 and E8 outgrow the default group cap
            if rank != 6:
                raise ValueError("type E is supported in rank 6")
            # Bourbaki numbering: the path 1-3-4-5-6 with node 2 joined to 4
            rows = [list(r) for r in _path_matrix(rank, {})]
            rows[0][1] = rows[1][0] = rows[1][2] = rows[2][1] = 2
            rows[0][2] = rows[2][0] = rows[1][3] = rows[3][1] = 3
            return CoxeterDiagram.from_matrix(rows, f"E{rank}")
        if letter == "F":
            if rank != 4:
                raise ValueError("type F has rank 4")
            return CoxeterDiagram(_path_matrix(4, {1: 4}), "F4")
        if letter == "H":
            if rank not in (3, 4):
                raise ValueError("type H has rank 3 or 4")
            return CoxeterDiagram(_path_matrix(rank, {0: 5}), f"H{rank}")
        raise ValueError(f"unsupported type {letter!r}")


def _path_matrix(n: int, special: dict[int, int]) -> tuple[tuple[int, ...], ...]:
    rows = [[1 if i == j else 2 for j in range(n)] for i in range(n)]
    for i in range(n - 1):
        m = special.get(i, 3)
        rows[i][i + 1] = rows[i + 1][i] = m
    return tuple(tuple(r) for r in rows)


def bipartite_order(diagram: CoxeterDiagram, swap: bool = False) -> tuple[tuple[int, ...], int]:
    """Permutation of the nodes so the first s roots are pairwise orthogonal
    and the last n-s are too; original order is kept inside each class.
    """
    n = diagram.rank
    color = [0] + [None] * (n - 1)   # the diagram is connected
    stack = [0]
    while stack:
        i = stack.pop()
        for j in range(n):
            if j != i and diagram.matrix[i][j] >= 3:
                if color[j] is None:
                    color[j] = 1 - color[i]
                    stack.append(j)
                elif color[j] == color[i]:
                    raise NotFiniteTypeError("diagram graph is not 2-colorable")
    first = [i for i in range(n) if color[i] == 0]
    second = [i for i in range(n) if color[i] == 1]
    if swap:
        first, second = second, first
    if not first:
        first, second = second, first
    return tuple(first + second), len(first)


# ---------------------------------------------------------------------------
# the Gram field and the form
# ---------------------------------------------------------------------------

#: labels m whose cos(pi/m) generates Q(sqrt d), with that d
_QUADRATIC = {4: 2, 5: 5, 6: 3}


def gram_field(labels) -> NumberField:
    """The field generated by the Gram entries -cos(pi/m) for the labels m
    of a diagram: Q when every label is 2 or 3, Q(sqrt d) for one label 4,
    5 or 6 beside them, and otherwise Q(2 cos(pi/L)) for the lcm L of the
    labels above 3, which holds cos(pi/m) for every m dividing L (an
    irreducible finite diagram has at most one label above 3)."""
    needed = {m for m in labels if m > 3}
    if not needed:
        return rationals()
    if len(needed) == 1 and needed <= _QUADRATIC.keys():
        return quadratic_field(_QUADRATIC[needed.pop()])
    return cosine_field(math.lcm(*needed))


def gram_matrix(field: NumberField, diagram: CoxeterDiagram,
                perm: tuple[int, ...]) -> Matrix:
    """The unit W-invariant form B_ij = -cos(pi/m_ij) on the simple roots,
    in the permuted order (Tits' geometric representation)."""
    return Matrix(field, [[-cos_pi_over(field, diagram.matrix[i][j])
                           for j in perm] for i in perm])


def _check_positive_definite(gram: Matrix):
    """W is finite exactly when B is positive definite, that is when every
    pivot of the exact LDL^T factorization of B (symmetric elimination
    without row exchanges) is positive."""
    rows = [list(r) for r in gram.rows]
    for k, pivot_row in enumerate(rows):
        pivot = pivot_row[k]
        if pivot.sign() <= 0:
            raise NotFiniteTypeError("Gram matrix is not positive definite")
        inverse = pivot.inverse()
        for row in rows[k + 1:]:
            f = row[k] * inverse
            if not f.is_zero():
                for j in range(k + 1, len(row)):
                    row[j] = row[j] - f * pivot_row[j]


# ---------------------------------------------------------------------------
# the system
# ---------------------------------------------------------------------------

def closure(seeds, images) -> list:
    """The seeds and everything reachable from them under ``images``, which
    lists the images of one item, each once in breadth-first order."""
    found = list(dict.fromkeys(seeds))
    seen = set(found)
    for x in found:
        for y in images(x):
            if y not in seen:
                seen.add(y)
                found.append(y)
    return found


def simple_orbit(seeds: list[Vector], reflection_rows: list[Vector]
                 ) -> tuple[list[Vector], dict[tuple, int], list[tuple[int, ...]]]:
    """The union of the W-orbits of distinct seed vectors, closed
    breadth-first under the simple reflections (ids ``0..len(seeds)-1`` are
    the seeds), the id of each vector (keyed by the vector itself), and
    each simple reflection as a permutation of the ids.  In simple-root
    coordinates s_i changes coordinate i alone, to ``dot(reflection_rows[i],
    v)``."""
    vectors = list(seeds)
    ids = {v: k for k, v in enumerate(vectors)}
    images: list[list[int]] = [[] for _ in reflection_rows]
    head = 0
    while head < len(vectors):
        v = vectors[head]
        head += 1
        for i, (r, row) in enumerate(zip(reflection_rows, images)):
            image = v[:i] + (dot(r, v),) + v[i + 1:]
            k = ids.get(image)
            if k is None:
                k = ids[image] = len(vectors)
                vectors.append(image)
            row.append(k)
    return vectors, ids, [tuple(row) for row in images]


def _compose(w: tuple[int, ...], r: tuple[int, ...]) -> tuple[int, ...]:
    """The root permutation of the product w r: k -> w(r(k)).  There are
    always at least two roots, so ``itemgetter`` returns a tuple."""
    return itemgetter(*r)(w)


def _conjugate(g: tuple[int, ...], w: tuple[int, ...]) -> tuple[int, ...]:
    """g w g for an involution g."""
    return _compose(g, _compose(w, g))


def _getter(rank: int):
    """``itemgetter`` for the keys of a system of this rank:
    ``_getter(rank)(*ids)(w)`` is the tuple of the w(k), k in ids.  With a
    single id ``itemgetter`` returns a bare item, so rank 1 gets its own
    getter and its keys stay tuples."""
    return itemgetter if rank > 1 else lambda k: lambda w: (w[k],)


class CoxeterSystem:
    """A realized finite Coxeter system with its generated group.

    Vectors are in simple-root coordinates (simple root i is e_i) over the
    Gram field, and geometry is the form u^T B v (:meth:`form`).  The group
    acts faithfully on the root system: element ``i`` is the permutation
    ``perms[i]`` of root ids, ``perms[i][k]`` being the id of
    w_i(``roots[k]``); ids ``0..n-1`` are the simple roots and
    ``negative[k]`` is the id of -``roots[k]``.  An element is fixed by
    its columns, so its key ``keys[i] = perms[i][:n]`` lists the ids of
    w_i(a_1), ..., w_i(a_n), and ``index_of`` maps a key to its index.
    Element 0 is e, and elements 1..n are the simple reflections.
    ``reflection_of[k]`` is the group index of the reflection in
    ``roots[k]``, and ``reflections`` lists (group index, positive root) by
    index.  Products, inverses, conjugation and the absolute order are
    integer work on keys; exact matrices are built on demand by
    :meth:`matrix`.  ``lengths``, when given (as read back from a cache),
    replaces the per-class trace averages and must have one entry per
    element.
    """

    def __init__(self, diagram: CoxeterDiagram, swap_classes: bool = False,
                 group_cap: int = DEFAULT_GROUP_CAP,
                 lengths: Optional[list[int]] = None):
        self.diagram = diagram
        self.rank = n = diagram.rank
        self.perm, self.s = bipartite_order(diagram, swap=swap_classes)
        self.field = field = gram_field(
            {m for row in diagram.matrix for m in row})
        self.gram = gram_matrix(field, diagram, self.perm)
        _check_positive_definite(self.gram)
        self.identity = Matrix.identity(field, n)
        self.simple_roots = list(self.identity.rows)
        # s_i(x) = x - 2 (B x)_i e_i changes coordinate i alone, to the
        # dot product of x with e_i - 2 B_i
        one, zero = field.one, field.zero
        self._reflection_rows = [
            tuple((one if i == j else zero) - 2 * b for j, b in enumerate(row))
            for i, row in enumerate(self.gram.rows)]
        # d_k . a_l = delta_kl makes the dual rays the columns of B^-1,
        # which is symmetric
        self.dual_rays = list(self.gram.inverse().rows)
        self._getter = _getter(n)

        self._close_roots()
        self._generate_group(group_cap)
        self.coxeter_element = self.matrix(self.c_index)
        self._find_reflections()
        if lengths is None:
            self.lengths = self._class_lengths()
        elif len(lengths) == self.order:
            self.lengths = list(lengths)
        else:
            raise ValueError(f"{len(lengths)} lengths for {self.order} elements")

    # -- the form --------------------------------------------------------------

    def lower(self, v: Vector) -> Vector:
        """B v, so that u . v is ``dot(u, lower(v))``: a loop that pairs
        many vectors with one v lowers it once."""
        return tuple(dot(row, v) for row in self.gram.rows)

    def form(self, u: Vector, v: Vector) -> Scalar:
        """The W-invariant inner product u^T B v."""
        return dot(u, self.lower(v))

    def reflection_matrix(self, root: Vector) -> Matrix:
        """The reflection x -> x - 2 (rho . x) rho in a root rho (every
        root has rho . rho = 1): I - 2 rho (B rho)^T."""
        one, zero = self.field.one, self.field.zero
        co = self.lower(root)
        return Matrix(self.field, [
            [(one if i == j else zero) - 2 * r * c for j, c in enumerate(co)]
            for i, r in enumerate(root)])

    # -- construction helpers -------------------------------------------------

    def _close_roots(self):
        """All roots, as the orbit of the simple roots under the simple
        reflections, and each simple reflection as a permutation of them."""
        roots, root_id, self.simple_perms = simple_orbit(
            self.simple_roots, self._reflection_rows)
        self.roots = roots
        self.root_id = root_id
        self.negative = [root_id[vec_neg(v)] for v in roots]

    @cached_property
    def orbit_rays(self) -> tuple[list[Vector], list[tuple[int, ...]]]:
        """The W-orbits of the dual rays d_k (ids 0..n-1), built on first
        use, and each simple reflection as a permutation of their ids."""
        rays, _, perms = simple_orbit(self.dual_rays, self._reflection_rows)
        return rays, perms

    def _generate_group(self, cap: int):
        """Breadth-first from e over right multiplication by the simple
        reflections.  The key of w r is w(r(a_1)), ..., w(r(a_n)), n
        lookups in w; the full permutation w r is composed only when that
        key is new."""
        n, getter = self.rank, self._getter
        identity = tuple(range(len(self.roots)))
        perms, keys = [identity], [identity[:n]]
        index = {keys[0]: 0}
        steps = [(r, getter(*r[:n])) for r in self.simple_perms]
        head = 0
        while head < len(perms):
            w = perms[head]
            head += 1
            for r, step in steps:
                key = step(w)
                if key not in index:
                    if len(perms) >= cap:
                        raise BudgetExceededError(
                            f"group generation exceeded cap {cap}")
                    index[key] = len(perms)
                    keys.append(key)
                    perms.append(_compose(w, r))
        self.perms, self.keys, self.index_of = perms, keys, index
        self.e_index = 0
        c = reduce(_compose, self.simple_perms)
        self.c_index = index[c[:n]]
        self.h = len(closure([keys[0]], lambda key: [getter(*key)(c)]))
        # w^-1(a_j) is the root whose id w sends to j
        self.inverses = [index[tuple(map(w.index, range(n)))] for w in perms]

    def _find_reflections(self):
        """The reflection of every root id, read off the root orbit.  The
        roots are listed breadth-first from the simple roots, so each later
        root is g_i(k) for an earlier root k, and its reflection is
        g_i r_k g_i.  s_i negates a_i and permutes the other positive roots,
        so g_i(k) is positive as k is, unless k is a_i or -a_i."""
        refl = self.simple_perms + [None] * (len(self.roots) - self.rank)
        positive = [True] * len(self.roots)
        for k, r in enumerate(refl):
            for i, g in enumerate(self.simple_perms):
                j = g[k]
                if refl[j] is None:
                    refl[j] = _conjugate(g, r)
                    positive[j] = positive[k] != (i in (k, j))
        self.reflection_of = [self.index_of[r[:self.rank]] for r in refl]
        self.reflections = sorted(
            ((self.reflection_of[k], root)
             for k, root in enumerate(self.roots) if positive[k]),
            key=itemgetter(0))

    def _class_lengths(self) -> list[int]:
        """Reflection length l(w) = codim Fix(w), a class function: dim
        Fix(w) = (1/m) sum_{k<m} tr(w^k) for the order m of w, and tr(w)
        sums coordinate j of w(a_j), as integer numerators over the common
        denominator D of the root coordinates.  One element per class walks
        its powers on keys, and the sum must be a rational multiple of
        m D.  The value is spread over the class by conjugating with the
        simple reflections, whose key s w s (a_j) = s(w(s(a_j))) is read
        off the permutations.  In rank at most 2 no trace is taken: e has
        length 0, a reflection 1 and every other element, a rotation, 2."""
        n, getter = self.rank, self._getter
        if n <= 2:
            lengths = [2] * self.order
            lengths[self.e_index] = 0
            for t, _ in self.reflections:
                lengths[t] = 1
            return lengths
        perms, index, e = self.perms, self.index_of, self.keys[self.e_index]
        inner = [(getter(*g[:n]), g) for g in self.simple_perms]
        den = math.lcm(*(x.den for root in self.roots for x in root))
        lengths = [-1] * self.order
        for start, w in enumerate(perms):
            if lengths[start] >= 0:
                continue
            powers = closure([e], lambda key: [getter(*key)(w)])
            trace = [0] * self.field.degree
            for coord in (self.roots[k][j] for key in powers
                          for j, k in enumerate(key)):
                trace = [a + c * (den // coord.den)
                         for a, c in zip(trace, coord.num)]
            fixed, rest = divmod(trace[0], len(powers) * den)
            if rest or any(trace[1:]):
                raise ArithmeticError(f"element {start}: trace sum {trace} is "
                                      f"not a multiple of {len(powers) * den}")
            for y in closure([start], lambda x: [
                    index[getter(*step(perms[x]))(g)] for step, g in inner]):
                lengths[y] = n - fixed
        return lengths

    # -- group queries ---------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.perms)

    def product(self, i: int, j: int) -> int:
        """w_i w_j, whose key is w_i applied to the key of w_j."""
        return self.index_of[self._getter(*self.keys[j])(self.perms[i])]

    def precedes(self, u: int, w: int) -> bool:
        """Absolute order: l(w) == l(u) + l(u^-1 w)."""
        rest = self.product(self.inverses[u], w)
        return self.lengths[w] == self.lengths[u] + self.lengths[rest]

    def matrix(self, i: int) -> Matrix:
        """The matrix of element i: its columns are the images w_i(a_j) of
        the simple roots."""
        return Matrix(self.field,
                      [self.roots[k] for k in self.keys[i]]).transpose()

    @cached_property
    def _root_rank(self) -> list[int]:
        """The place of each root id in the ``vec_key`` order of the roots."""
        ranks = [0] * len(self.roots)
        for r, k in enumerate(sorted(range(len(self.roots)),
                                     key=lambda k: vec_key(self.roots[k]))):
            ranks[k] = r
        return ranks

    def element_sort_key(self, i: int):
        """(length, the keys of the columns w_i(a_1), ..., w_i(a_n) of its
        matrix), read off root ids: the columns determine the element."""
        rank = self._root_rank
        return (self.lengths[i], tuple(rank[k] for k in self.keys[i]))

    def __repr__(self):
        return (f"CoxeterSystem({self.diagram.label}, |W|={self.order}, "
                f"h={self.h}, field={self.field.name})")
