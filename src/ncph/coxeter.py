"""Finite Coxeter systems realized exactly.

A diagram is a Coxeter matrix; the system realizes its simple roots as unit
inward normals in R^n over a number field chosen from a small catalog, with
the simple roots permuted into a bipartite order (an orthonormal block
followed by another orthonormal block).  The rotation c is the product of
the simple reflections in that order.  The group acts on the nh roots, and
each element is stored as a permutation of root ids (the permutation model
of CHEVIE/GAP): the group is generated breadth-first on integer tuples, and
products, inverses and the absolute order never touch the number field.
Reflection length is the fixed-space codimension, a class function, so it
costs one exact rank per conjugacy class; it is cross-checked elsewhere
against a breadth-first word oracle.  The exact orthogonal matrix of an
element is built only on demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Iterator, Optional

from .fields import (FieldError, NumberField, Scalar, biquadratic_field,
                     cosine_field, quadratic_field, rationals)
from .linalg import Matrix, Vector, dot, vec_neg, vec_sub

DEFAULT_GROUP_CAP = 2_000_000


class NotFiniteTypeError(ValueError):
    """The Coxeter matrix does not define a finite reflection group."""


class RealizationError(ValueError):
    """No catalog field realizes the simple roots of this diagram."""


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

    @property
    def rank(self) -> int:
        return len(self.matrix)

    def edges(self) -> list[tuple[int, int, int]]:
        n = self.rank
        return [(i, j, self.matrix[i][j])
                for i in range(n) for j in range(i + 1, n)
                if self.matrix[i][j] >= 3]

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
    color = [None] * n
    for start in range(n):
        if color[start] is not None:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(n):
                if j != i and diagram.matrix[i][j] >= 3:
                    if color[j] is None:
                        color[j] = 1 - color[i]
                        stack.append(j)
                    elif color[j] == color[i]:
                        raise NotFiniteTypeError(
                            "diagram graph is not 2-colorable")
    first = [i for i in range(n) if color[i] == 0]
    second = [i for i in range(n) if color[i] == 1]
    if swap:
        first, second = second, first
    if not first:
        first, second = second, first
    return tuple(first + second), len(first)


# ---------------------------------------------------------------------------
# field ladder and root realization
# ---------------------------------------------------------------------------

def _candidate_fields(labels: set[int]) -> Iterator[NumberField]:
    needed = {m for m in labels if m not in (1, 2, 3)}
    if not needed:
        yield rationals()
    for d, cover in ((2, {4}), (3, {6}), (5, {5})):
        if needed <= cover:
            yield quadratic_field(d)
    for (a, b), cover in (((2, 3), {4, 6}), ((2, 5), {4, 5}), ((3, 5), {5, 6})):
        if needed <= cover:
            yield biquadratic_field(a, b)
    base = math.lcm(*needed) if needed else 1
    seen = set()
    for mult in (1, 2, 4):
        k = base * mult
        if k % 2:
            k *= 2
        if k < 4 or k in seen:
            continue
        seen.add(k)
        field = cosine_field(k)
        if field.degree <= 16:
            yield field


class _SqrtMissing(Exception):
    pass


def _cholesky(field: NumberField, b_rows: list[list[Scalar]]) -> list[list[Scalar]]:
    """Lower-triangular L with L L^T = B; pivots must be positive."""
    k = len(b_rows)
    lower = [[field.zero] * k for _ in range(k)]
    for i in range(k):
        for j in range(i):
            acc = b_rows[i][j]
            for t in range(j):
                acc = acc - lower[i][t] * lower[j][t]
            lower[i][j] = acc / lower[j][j]
        pivot = b_rows[i][i]
        for t in range(i):
            pivot = pivot - lower[i][t] * lower[i][t]
        s = pivot.sign()
        if s <= 0:
            raise NotFiniteTypeError("Gram matrix is not positive definite")
        root = field.sqrt(pivot)
        if root is None:
            raise _SqrtMissing
        lower[i][i] = root
    return lower


def realize_roots(diagram: CoxeterDiagram, perm: tuple[int, ...], s: int
                  ) -> tuple[NumberField, list[Vector]]:
    """Unit simple roots (in the permuted order) over the smallest catalog
    field that supports the construction.
    """
    n = diagram.rank
    labels = {diagram.matrix[i][j] for i in range(n) for j in range(i + 1, n)}
    last_err: Optional[Exception] = None
    for field in _candidate_fields(labels):
        try:
            gram = _gram(field, diagram, perm)
        except FieldError as err:
            last_err = err
            continue
        try:
            b_rows = [[gram[s + i][s + j] -
                       _sum_products(gram, s, s + i, s + j, field)
                       for j in range(n - s)] for i in range(n - s)]
            lower = _cholesky(field, b_rows)
        except _SqrtMissing:
            last_err = RealizationError(
                f"{field.name} lacks a needed square root")
            continue
        roots = []
        for i in range(s):
            roots.append(tuple(field.one if j == i else field.zero
                               for j in range(n)))
        for i in range(n - s):
            coords = [gram[t][s + i] for t in range(s)]
            coords += [lower[i][t] for t in range(n - s)]
            roots.append(tuple(coords))
        _check_gram(roots, gram)
        return field, roots
    raise (last_err or RealizationError("field catalog exhausted"))


def _gram(field: NumberField, diagram: CoxeterDiagram,
          perm: tuple[int, ...]) -> list[list[Scalar]]:
    """The Gram matrix -cos(pi/m_ij) of the unit simple roots, permuted."""
    n = diagram.rank
    return [[_gram_entry(field, diagram.matrix[perm[i]][perm[j]])
             for j in range(n)] for i in range(n)]


def _gram_entry(field: NumberField, m: int) -> Scalar:
    if m == 1:
        return field.one
    from .fields import cos_pi_over
    return -cos_pi_over(field, m)


def _sum_products(gram, s, a, b, field) -> Scalar:
    acc = field.zero
    for t in range(s):
        acc = acc + gram[t][a] * gram[t][b]
    return acc


def _check_gram(roots, gram):
    for i, u in enumerate(roots):
        for j, v in enumerate(roots):
            if dot(u, v) != gram[i][j]:
                raise RealizationError("realized roots fail the Gram identities")


# ---------------------------------------------------------------------------
# the system
# ---------------------------------------------------------------------------

def reflection_matrix(field: NumberField, root: Vector) -> Matrix:
    """Orthogonal reflection in the hyperplane normal to a unit root."""
    n = len(root)
    rows = [[(field.one if i == j else field.zero) - 2 * root[i] * root[j]
             for j in range(n)] for i in range(n)]
    return Matrix(field, rows)


def _reflect(v: Vector, root: Vector) -> Vector:
    """v reflected in the hyperplane normal to a unit root."""
    f = 2 * dot(v, root)
    return tuple(x - f * y for x, y in zip(v, root))


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


def simple_orbit(seeds: list[Vector], simple_roots: list[Vector]
                 ) -> tuple[list[Vector], dict[tuple, int], list[tuple[int, ...]]]:
    """The union of the W-orbits of distinct seed vectors, closed
    breadth-first under the reflections in the unit simple roots (ids
    ``0..len(seeds)-1`` are the seeds), the id of each vector (keyed by
    the vector itself), and each simple reflection as a permutation of the
    ids."""
    vectors = list(seeds)
    ids = {v: k for k, v in enumerate(vectors)}
    images: list[list[int]] = [[] for _ in simple_roots]
    head = 0
    while head < len(vectors):
        v = vectors[head]
        head += 1
        for a, row in zip(simple_roots, images):
            image = _reflect(v, a)
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


def _inverse(w: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(w)
    for k, image in enumerate(w):
        inv[image] = k
    return tuple(inv)


def _order(w: tuple[int, ...]) -> int:
    """The order of a permutation: the lcm of its cycle lengths."""
    seen = [False] * len(w)
    order = 1
    for start in range(len(w)):
        length = 0
        k = start
        while not seen[k]:
            seen[k] = True
            k = w[k]
            length += 1
        if length:
            order = math.lcm(order, length)
    return order


class CoxeterSystem:
    """A realized finite Coxeter system with its generated group.

    The group acts faithfully on the root system: element ``i`` is the
    permutation ``perms[i]`` of root ids, ``perms[i][k]`` being the id of
    w_i(``roots[k]``); ids ``0..n-1`` are the simple roots and
    ``negative[k]`` is the id of -``roots[k]``.  Products, inverses,
    conjugation and the absolute order are integer work; exact matrices are
    built on demand by :meth:`matrix`.
    """

    def __init__(self, diagram: CoxeterDiagram, swap_classes: bool = False,
                 group_cap: int = DEFAULT_GROUP_CAP):
        perm, s = bipartite_order(diagram, swap=swap_classes)
        field, simple_roots = realize_roots(diagram, perm, s)
        self._build(diagram, perm, s, field, simple_roots, group_cap, None)

    @classmethod
    def from_realization(cls, diagram: CoxeterDiagram, swap_classes: bool,
                         field: NumberField, simple_roots: list[Vector],
                         group_cap: int = DEFAULT_GROUP_CAP,
                         lengths: Optional[list[int]] = None) -> "CoxeterSystem":
        """The system on given unit simple roots (in bipartite order), such
        as ones read back from a cache.  The roots must satisfy the Gram
        identities of the diagram; ``lengths``, when given, replaces the
        per-class rank computation and must have one entry per element.
        """
        perm, s = bipartite_order(diagram, swap=swap_classes)
        if len(simple_roots) != diagram.rank:
            raise RealizationError("wrong number of simple roots")
        _check_gram(simple_roots, _gram(field, diagram, perm))
        system = cls.__new__(cls)
        system._build(diagram, perm, s, field, list(simple_roots), group_cap,
                      lengths)
        return system

    # -- construction helpers -------------------------------------------------

    def _build(self, diagram, perm, s, field, simple_roots, group_cap, lengths):
        self.diagram = diagram
        self.rank = diagram.rank
        self.perm, self.s = perm, s
        self.field, self.simple_roots = field, simple_roots
        self.simple_reflections = [reflection_matrix(field, a)
                                   for a in simple_roots]
        c = self.simple_reflections[0]
        for r in self.simple_reflections[1:]:
            c = c * r
        self.coxeter_element = c
        self.identity = Matrix.identity(field, self.rank)

        inv = Matrix(field, simple_roots).inverse()
        # A^-1, where A has the simple roots as columns; its rows are the
        # extreme rays of the fundamental chamber
        self._simple_inverse = inv.transpose()
        self.dual_rays = list(self._simple_inverse.rows)
        ones = tuple(field.one for _ in range(self.rank))
        self.interior_point = inv.apply(ones)
        self._matrices: dict[int, Matrix] = {}

        self._close_roots()
        self._generate_group(group_cap)
        self._find_reflections()
        if lengths is None:
            self.lengths = self._class_lengths()
        elif len(lengths) == self.order:
            self.lengths = list(lengths)
        else:
            raise ValueError(f"{len(lengths)} lengths for {self.order} elements")

    def _close_roots(self):
        """All roots, as the orbit of the simple roots under the simple
        reflections, and each simple reflection as a permutation of them."""
        roots, root_id, self.simple_perms = simple_orbit(self.simple_roots,
                                                         self.simple_roots)
        self.roots = roots
        self.root_id = root_id
        self.negative = [root_id[vec_neg(v)] for v in roots]

    @cached_property
    def orbit_rays(self) -> tuple[list[Vector], list[tuple[int, ...]]]:
        """The W-orbits of the dual rays d_k (ids 0..n-1), built on first
        use, and each simple reflection as a permutation of their ids."""
        rays, _, perms = simple_orbit(self.dual_rays, self.simple_roots)
        return rays, perms

    def _generate_group(self, cap: int):
        identity = tuple(range(len(self.roots)))
        perms = [identity]
        index = {identity: 0}
        head = 0
        while head < len(perms):
            w = perms[head]
            head += 1
            for r in self.simple_perms:
                p = _compose(w, r)
                if p not in index:
                    if len(perms) >= cap:
                        raise BudgetExceededError(
                            f"group generation exceeded cap {cap}")
                    index[p] = len(perms)
                    perms.append(p)
        self.perms = perms
        self.index_of = index
        self.e_index = 0
        c = self.simple_perms[0]
        for r in self.simple_perms[1:]:
            c = _compose(c, r)
        self.c_index = index[c]
        self.h = _order(c)
        self.inverses = [index[_inverse(w)] for w in perms]

    def _find_reflections(self):
        seen = {}   # group index of a reflection -> id of one of its roots
        queue = []
        for a, g in enumerate(self.simple_perms):
            i = self.index_of[g]
            if i not in seen:
                seen[i] = a
                queue.append(i)
        head = 0
        while head < len(queue):
            i = queue[head]
            head += 1
            for g in self.simple_perms:
                j = self.index_of[_conjugate(g, self.perms[i])]
                if j not in seen:
                    seen[j] = g[seen[i]]
                    queue.append(j)
        expected = self.rank * self.h // 2
        if len(seen) != expected:
            raise RealizationError(
                f"found {len(seen)} reflections, expected nh/2 = {expected}")
        self._reflection_of_root_id = [0] * len(self.roots)
        self.reflections = []
        for i, k in sorted(seen.items()):
            if not self._is_positive(self.roots[k]):
                k = self.negative[k]
            self._reflection_of_root_id[k] = i
            self._reflection_of_root_id[self.negative[k]] = i
            self.reflections.append((i, self.roots[k]))

    def _is_positive(self, root: Vector) -> bool:
        side = dot(root, self.interior_point).sign()
        if side == 0:
            raise RealizationError("root orthogonal to the chamber interior")
        return side > 0

    def _class_lengths(self) -> list[int]:
        """Reflection length l(w) = codim Fix(w) = rank(w - I), a class
        function: one exact rank per conjugacy class, spread over the class
        by conjugating with the simple reflections.  The vectors w(a_j) - a_j
        are the columns of (w - I) A, where A has the simple roots as
        columns and is invertible."""
        lengths = [-1] * self.order
        for start, w in enumerate(self.perms):
            if lengths[start] >= 0:
                continue
            value = Matrix(self.field, [
                vec_sub(self.roots[w[j]], self.roots[j])
                for j in range(self.rank)]).rank()
            for y in closure([start], lambda x: [
                    self.index_of[_conjugate(g, self.perms[x])]
                    for g in self.simple_perms]):
                lengths[y] = value
        return lengths

    # -- group queries ---------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.perms)

    def length(self, i: int) -> int:
        return self.lengths[i]

    def product(self, i: int, j: int) -> int:
        return self.index_of[_compose(self.perms[i], self.perms[j])]

    def precedes(self, u: int, w: int) -> bool:
        """Absolute order: l(w) == l(u) + l(u^-1 w)."""
        rest = self.product(self.inverses[u], w)
        return self.lengths[w] == self.lengths[u] + self.lengths[rest]

    def reflection_of_root(self, root: Vector) -> int:
        return self._reflection_of_root_id[self.root_id[root]]

    def matrix(self, i: int) -> Matrix:
        """The orthogonal matrix of element i: R A^-1, where the columns of
        A are the simple roots and those of R their images under w_i."""
        m = self._matrices.get(i)
        if m is None:
            w = self.perms[i]
            images = Matrix(self.field, [self.roots[w[j]]
                                         for j in range(self.rank)])
            m = self._matrices[i] = images.transpose() * self._simple_inverse
        return m

    def element_sort_key(self, i: int):
        return (self.lengths[i], self.matrix(i).key())

    def bfs_reflection_lengths(self) -> list[int]:
        """Independent oracle: minimal word length over all reflections."""
        dist = [-1] * self.order
        dist[self.e_index] = 0
        frontier = [self.e_index]
        refl = [i for i, _ in self.reflections]
        while frontier:
            nxt = []
            for i in frontier:
                for t in refl:
                    j = self.product(i, t)
                    if dist[j] < 0:
                        dist[j] = dist[i] + 1
                        nxt.append(j)
            frontier = nxt
        return dist

    def __repr__(self):
        return (f"CoxeterSystem({self.diagram.label}, |W|={self.order}, "
                f"h={self.h}, field={self.field.name})")
