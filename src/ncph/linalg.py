"""Exact dense linear algebra over a NumberField.

Vectors are tuples of Scalars, matrices are tuples of row tuples.  A dot
product sums the unreduced integer convolutions of its terms over one
common denominator, then reduces modulo the minimal polynomial and takes
one gcd, instead of one reduction per term; matrix products, matrix-vector
products and reflections all go through it.  Gaussian elimination with
exact zero tests gives exact rank, kernel, reduced echelon form and
inverse; nothing here ever touches floating point.
"""

from __future__ import annotations

from math import gcd

from .fields import FieldError, NumberField, Scalar

Vector = tuple  # tuple[Scalar, ...]


def vec_sub(u: Vector, v: Vector) -> Vector:
    return tuple(a - b for a, b in zip(u, v))


def vec_neg(u: Vector) -> Vector:
    return tuple(-a for a in u)


def vec_scale(u: Vector, c) -> Vector:
    return tuple(a * c for a in u)


def dot(u: Vector, v: Vector) -> Scalar:
    """u . v with one polynomial reduction and one gcd: the integer
    convolutions of the terms are summed over the least common multiple of
    their denominators."""
    field = u[0].field
    acc = [0] * (2 * field.degree - 1)
    den = 1
    for a, b in zip(u, v):
        if a.field is not field or b.field is not field:
            raise FieldError("mixed-field arithmetic")
        term = a.den * b.den
        m = 1
        if term != den:
            grow = term // gcd(den, term)
            if grow != 1:
                acc = [c * grow for c in acc]
                den *= grow
            m = den // term
        for i, x in enumerate(a.num):
            if x:
                x *= m
                for j, y in enumerate(b.num):
                    acc[i + j] += x * y
    return field.from_convolution(acc, den)


def vec_key(u: Vector) -> tuple:
    """Exact key that sorts vectors by their rational power-basis
    coordinates.  Tables that only hash key vectors by the vectors
    themselves, since equal scalars have equal integer numerators and
    denominators."""
    return tuple(a.coords for a in u)


class Matrix:
    """Immutable exact matrix over one NumberField."""

    __slots__ = ("field", "rows", "nrows", "ncols")

    def __init__(self, field: NumberField, rows):
        self.field = field
        self.rows = tuple(tuple(field.coerce(e) for e in row) for row in rows)
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        for row in self.rows:
            if len(row) != self.ncols:
                raise ValueError("ragged matrix")

    @staticmethod
    def identity(field: NumberField, n: int) -> "Matrix":
        one, zero = field.one, field.zero
        return Matrix(field, [[one if i == j else zero for j in range(n)]
                              for i in range(n)])

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch")
        cols = list(zip(*other.rows))
        return Matrix(self.field,
                      [[dot(row, col) for col in cols] for row in self.rows])

    def apply(self, v: Vector) -> Vector:
        return tuple(dot(row, v) for row in self.rows)

    def transpose(self) -> "Matrix":
        return Matrix(self.field, list(zip(*self.rows)))

    def __sub__(self, other: "Matrix") -> "Matrix":
        return Matrix(self.field, [vec_sub(r, s) for r, s in zip(self.rows, other.rows)])

    def scale(self, c) -> "Matrix":
        c = self.field.coerce(c)
        return Matrix(self.field, [vec_scale(r, c) for r in self.rows])

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.field is other.field
                and self.rows == other.rows)

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols} over {self.field.name})"

    # -- elimination-based queries -----------------------------------------

    def _echelon(self):
        """Row echelon form; returns (rows as lists, pivot column list)."""
        rows = [list(r) for r in self.rows]
        pivots = []
        one = self.field.one
        r = 0
        for col in range(self.ncols):
            pivot = next((i for i in range(r, len(rows))
                          if not rows[i][col].is_zero()), None)
            if pivot is None:
                continue
            rows[r], rows[pivot] = rows[pivot], rows[r]
            if rows[r][col] != one:
                inv = rows[r][col].inverse()
                rows[r] = [e * inv for e in rows[r]]
            for i in range(len(rows)):
                if i != r and not rows[i][col].is_zero():
                    f = rows[i][col]
                    rows[i] = [a if b.is_zero() else a - f * b
                               for a, b in zip(rows[i], rows[r])]
            pivots.append(col)
            r += 1
            if r == len(rows):
                break
        return rows, pivots

    def rank(self) -> int:
        return len(self._echelon()[1])

    def rref(self) -> "Matrix":
        rows, _ = self._echelon()
        return Matrix(self.field, rows)

    def kernel(self) -> list[Vector]:
        """Basis of the right null space."""
        rows, pivots = self._echelon()
        free = [c for c in range(self.ncols) if c not in pivots]
        basis = []
        for fc in free:
            v = [self.field.zero] * self.ncols
            v[fc] = self.field.one
            for r, pc in enumerate(pivots):
                v[pc] = -rows[r][fc]
            basis.append(tuple(v))
        return basis

    def inverse(self) -> "Matrix":
        if self.nrows != self.ncols:
            raise ValueError("inverse of a non-square matrix")
        n = self.nrows
        aug = [list(r) + list(Matrix.identity(self.field, n).rows[i])
               for i, r in enumerate(self.rows)]
        work = Matrix(self.field, aug)
        rows, pivots = work._echelon()
        if pivots != list(range(n)):
            raise ValueError("matrix is singular")
        return Matrix(self.field, [row[n:] for row in rows])
