"""Exact arithmetic in the real algebraic number fields of the catalog.

The Gram entries -cos(pi/m) of a finite Coxeter diagram generate Q, a
quadratic field Q(sqrt d) for d = 2, 3, 5, or Q(2cos(pi/k)) for I2(m).
Each is built here from its monic, irreducible integer minimal polynomial
(x, x^2 - d, or the minimal polynomial of 2cos(pi/k)) together with a
rational isolating interval that singles out one real root theta.  All
polynomial work runs on Python ints: a Sturm count on pseudo-remainders
certifies the interval, which is kept and bisected as integers over one
denominator.  A scalar is d integer numerators over one
positive denominator in the power basis 1, theta, ..., theta^(d-1), kept
in lowest terms, so equality and hashing compare integer tuples.
Addition works on shared denominators; multiplication is an integer
convolution reduced by the integer table of theta^d, ..., theta^(2d-2),
built once per field from the polynomial's tail.  Inverses use the norm in
degree 2 and extended Euclid on integer polynomials above.  A nonzero
numerator tuple is a nonzero number, since the polynomial is irreducible,
so the sign of a scalar is decided by bisecting the isolating interval
until integer interval Horner sums exclude zero.  ``Scalar.coords`` gives
the rational coordinates for serialization.  ``float()`` of a scalar, for
display only, evaluates the coordinates at theta correctly rounded to a
float, found once per field, so it does not depend on the sign tests run
before it.

All values are immutable after construction; the only mutable state is the
cached refinement of the isolating interval, which only ever shrinks, and
the cached float of theta, which never changes once set.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import add, sub
from typing import Optional


class FieldError(ValueError):
    """Invalid field description or an operation that left the field."""


# ---------------------------------------------------------------------------
# dense univariate polynomials over Z, little-endian coefficient tuples
# ---------------------------------------------------------------------------

def _strip(coeffs):
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _poly_add(p, q):
    n = max(len(p), len(q))
    return _strip(
        (p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)
    )


def _poly_scale(p, c):
    if c == 0:
        return ()
    return tuple(a * c for a in p)


def _poly_mul(p, q) -> list:
    """The len(p) + len(q) - 1 product coefficients; without trailing zeros
    when neither factor has any."""
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return out


def _poly_derivative(p):
    return _strip(i * p[i] for i in range(1, len(p)))


def _int_pseudo_divmod(a, b):
    """(m, q, r) with m * a == q * b + r over Z[x], deg r < deg b and m a
    power of the leading coefficient of b (pseudo-division)."""
    lead, db = b[-1], len(b) - 1
    rem, quo, m = list(a), [0] * max(0, len(a) - db), 1
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i]
        if c:
            if lead != 1:
                rem = [x * lead for x in rem]
                quo = [x * lead for x in quo]
                m *= lead
            quo[i - db] += c
            for j, y in enumerate(b):
                rem[i - db + j] -= c * y
    return m, _strip(quo), _strip(rem)


def _sign_at(p, a: int, q: int) -> int:
    """The sign of p(a/q) for q > 0: integer Horner on q^deg p(a/q)."""
    acc, scale = 0, 1
    for c in reversed(p):
        acc = acc * a + c * scale
        scale *= q
    return (acc > 0) - (acc < 0)


def _sturm_chain(p):
    """p, p' and the negated remainders, over Z: m a = q b + r with m a
    power of b's leading coefficient, so -sign(m) r, divided by its
    content, is a positive multiple of the negated rational remainder."""
    chain = [_strip(p), _poly_derivative(p)]
    while chain[-1]:
        m, _, rem = _int_pseudo_divmod(chain[-2], chain[-1])
        g = math.gcd(*rem)
        chain.append(tuple(x // (-g if m > 0 else g) for x in rem))
    chain.pop()
    return chain


def _count_roots(p, lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots of p in the open interval (lo, hi).

    Requires p(lo) != 0 and p(hi) != 0.
    """
    chain = _sturm_chain(p)
    changes = []
    for end in (lo, hi):
        signs = [s for s in (_sign_at(f, end.numerator, end.denominator)
                             for f in chain) if s]
        changes.append(sum(s != t for s, t in zip(signs, signs[1:])))
    return changes[0] - changes[1]


# ---------------------------------------------------------------------------
# extended Euclid on integer polynomials
# ---------------------------------------------------------------------------

def _int_inverse(f, p) -> tuple[tuple[int, ...], int]:
    """(s, c) with s * f == c modulo p for a nonzero integer c: extended
    Euclid on integer polynomials by pseudo-division, each remainder and
    its cofactor divided by their common content."""
    r0, s0 = _strip(f), (1,)
    r1, s1 = _strip(p), ()
    while r1:
        m, q, r = _int_pseudo_divmod(r0, r1)
        # r = m r0 - q r1, so its cofactor is m s0 - q s1
        s = _poly_add(_poly_scale(s0, m), _poly_scale(_poly_mul(q, s1), -1))
        g = math.gcd(*r, *s)
        if g > 1:
            r, s = tuple(x // g for x in r), tuple(x // g for x in s)
        r0, s0, r1, s1 = r1, s1, r, s
    if len(r0) != 1:
        raise FieldError(
            "zero divisor encountered: the minimal polynomial is reducible")
    return s0, r0[0]


# ---------------------------------------------------------------------------
# number fields
# ---------------------------------------------------------------------------

class NumberField:
    """Q(theta) for the unique root theta of the monic, irreducible integer
    polynomial ``minimal_polynomial`` in the isolating interval; the catalog
    (``rationals``, ``quadratic_field``, ``cosine_field``) builds every one.
    The rationals are the field of x over (-1, 1) and carry no ``theta``
    scalar.  The interval is kept as integers (lo, hi, q) over one positive
    denominator, in lowest terms, and bisected on them.
    """

    #: theta correctly rounded, once ``theta_float`` has found it
    _theta_float: Optional[float] = None

    def __init__(self, minimal_polynomial, isolating_interval, name):
        self.minimal_polynomial = coeffs = tuple(minimal_polynomial)
        if coeffs[-1] != 1:
            raise FieldError("minimal polynomial must be monic")
        self.degree = len(coeffs) - 1
        lo, hi = self._initial_interval = tuple(
            Fraction(b) for b in isolating_interval)
        q = math.lcm(lo.denominator, hi.denominator)
        self._scaled_interval = (lo.numerator * (q // lo.denominator),
                                 hi.numerator * (q // hi.denominator), q)
        self._sign_at_lo = _sign_at(coeffs, lo.numerator, lo.denominator)
        if not self._sign_at_lo or not _sign_at(coeffs, hi.numerator,
                                                hi.denominator):
            raise FieldError("isolating interval endpoints must not be roots")
        n = _count_roots(coeffs, lo, hi)
        if n != 1:
            raise FieldError(f"isolating interval contains {n} roots, expected 1")
        self.name = name
        # reduction table: theta^(d+k) = sum(table[k][i] theta^i), integer
        # rows from the tail theta^d = -c_0 - c_1 theta - ... of the polynomial
        tail = tuple(-c for c in coeffs[:-1])
        powers = [tail]
        for _ in range(self.degree - 2):
            prev = powers[-1]
            top = prev[-1]
            powers.append(tuple(a + top * b for a, b in zip((0,) + prev[:-1], tail)))
        self._table = tuple(powers)
        self._zero_tail = (0,) * (self.degree - 1)
        self.zero = Scalar(self, (0,) * self.degree, 1)
        self.one = self.from_rational(1)
        if self.degree > 1:
            self.theta = Scalar(self, (0, 1) + (0,) * (self.degree - 2), 1)
        #: exact values of cos(pi/m) for the m this field can express
        self.cos_table: dict[int, Scalar] = {
            1: self.from_rational(-1),
            2: self.zero,
            3: self.from_rational(Fraction(1, 2)),
        }

    # -- scalar constructors -------------------------------------------------

    def from_ints(self, num, den=1) -> "Scalar":
        """The scalar sum(num[i] theta^i) / den (den nonzero, d integer
        numerators), brought to lowest terms with a positive denominator."""
        g = math.gcd(den, *num)
        if den < 0:
            g = -g
        if g != 1:
            return Scalar(self, tuple([x // g for x in num]), den // g)
        return Scalar(self, tuple(num), den)

    def from_rational(self, q) -> "Scalar":
        """The scalar q for an int or a Fraction; anything else, a float
        among them, is a TypeError."""
        if type(q) is int:
            return Scalar(self, (q,) + self._zero_tail, 1)
        if not isinstance(q, Fraction):
            raise TypeError(f"cannot coerce {q!r} into {self.name}")
        return Scalar(self, (q.numerator,) + self._zero_tail, q.denominator)

    def coerce(self, value) -> "Scalar":
        if isinstance(value, Scalar):
            if value.field is not self:
                raise FieldError("scalar belongs to a different field")
            return value
        if isinstance(value, (int, Fraction)):
            return self.from_rational(value)
        raise TypeError(f"cannot coerce {value!r} into {self.name}")

    # -- isolating interval ---------------------------------------------------

    def _bisect(self, lo: int, hi: int, q: int) -> tuple[int, int, int]:
        """The half of (lo/q, hi/q) that holds theta, in lowest terms when
        (lo, hi, q) is."""
        mid = lo + hi                   # the midpoint is mid / 2q
        if mid % 2:
            lo, hi, q = 2 * lo, 2 * hi, 2 * q
        else:
            mid //= 2
        s = _sign_at(self.minimal_polynomial, mid, q)
        if not s:
            # an irreducible polynomial of degree >= 2 has no rational root;
            # hitting one means the description was reducible after all
            raise FieldError(
                "rational root hit while refining the isolating interval")
        if s != self._sign_at_lo:
            return lo, mid, q
        return mid, hi, q

    def refine_interval(self):
        """One bisection step; keeps theta inside (lo/q, hi/q)."""
        self._scaled_interval = self._bisect(*self._scaled_interval)

    def theta_float(self) -> float:
        """theta correctly rounded to a float.  Bisects a copy of the
        interval until both ends round to the same float (int / int is
        correctly rounded); rounding is monotone, so that float is theta's.
        Cached, and the field's own interval is left as the sign tests made
        it."""
        if self._theta_float is None:
            lo, hi, q = self._scaled_interval
            while lo / q != hi / q:
                lo, hi, q = self._bisect(lo, hi, q)
            self._theta_float = lo / q
        return self._theta_float

    # -- exact reduction / zero test ------------------------------------------

    def from_convolution(self, conv: list, den: int) -> "Scalar":
        """The scalar sum(conv[k] theta^k) / den for integer coefficients
        (d to 2d-1 of them, as in a product of two scalars' numerators),
        reduced modulo the minimal polynomial by the integer table."""
        return self.from_ints(self._reduce(conv), den)

    def _reduce(self, conv: list) -> list:
        """The d integer numerators of ``conv`` reduced modulo the minimal
        polynomial."""
        d = self.degree
        out = conv[:d]
        for k in range(d, len(conv)):
            c = conv[k]
            if c:
                for i, t in enumerate(self._table[k - d]):
                    out[i] += c * t
        return out

    def describe(self) -> dict:
        """The field's definition, with the isolating interval it was
        created with: the refined one depends on the sign tests run so far."""
        lo, hi = self._initial_interval
        return {
            "name": self.name,
            "degree": self.degree,
            "minimalPolynomial": list(self.minimal_polynomial),
            "isolatingInterval": [f"{lo.numerator}/{lo.denominator}",
                                  f"{hi.numerator}/{hi.denominator}"],
        }

    def __repr__(self):
        return f"NumberField({self.name})"


@lru_cache(maxsize=None)
def rationals() -> NumberField:
    """Q, the field of theta = 0 (the root of x in (-1, 1))."""
    return NumberField((0, 1), (-1, 1), "Q")


# ---------------------------------------------------------------------------
# scalars
# ---------------------------------------------------------------------------

class Scalar:
    """An element sum(num[i] theta^i) / den of a NumberField: integer
    numerators over one positive denominator, in lowest terms
    (gcd(den, *num) == 1), so equal scalars have equal (num, den)."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field: NumberField, num: tuple[int, ...], den: int):
        self.field = field
        self.num = num
        self.den = den

    @property
    def coords(self) -> tuple[Fraction, ...]:
        """The rational power-basis coordinates (built on each access)."""
        return tuple(Fraction(x, self.den) for x in self.num)

    # -- ring operations ----------------------------------------------------

    def _pair(self, other):
        if isinstance(other, Scalar):
            if other.field is not self.field:
                raise FieldError("mixed-field arithmetic")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return None

    def _combine(self, o: "Scalar", op) -> "Scalar":
        """self op o for op in (add, sub), on a shared denominator."""
        a, b, da, db = self.num, o.num, self.den, o.den
        if da != db:
            a, b = [x * db for x in a], [y * da for y in b]
        return self.field.from_ints(list(map(op, a, b)),
                                    da if da == db else da * db)

    def __add__(self, other):
        o = self._pair(other)
        if o is None:
            return NotImplemented
        return self._combine(o, add)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._pair(other)
        if o is None:
            return NotImplemented
        return self._combine(o, sub)

    def __neg__(self):
        return Scalar(self.field, tuple([-x for x in self.num]), self.den)

    def __mul__(self, other):
        o = self._pair(other)
        if o is None:
            return NotImplemented
        return self.field.from_convolution(_poly_mul(self.num, o.num),
                                           self.den * o.den)

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        field, num, den = self.field, self.num, self.den
        if not any(num):
            raise ZeroDivisionError("scalar inverse of zero")
        if field.degree == 1:
            return field.from_ints((den,), num[0])
        if field.degree == 2:
            # theta^2 = e + f theta:
            # (a + b theta)^-1 = (a + b f - b theta) / (a^2 + a b f - b^2 e)
            a, b = num
            e, f = field._table[0]
            norm = a * a + a * b * f - b * b * e
            if norm == 0:
                raise FieldError(
                    "zero divisor encountered: the minimal polynomial is reducible")
            return field.from_ints((den * (a + b * f), -den * b), norm)
        s, c = _int_inverse(num, field.minimal_polynomial)
        return field.from_ints([den * x for x in s]
                               + [0] * (field.degree - len(s)), c)

    def __truediv__(self, other):
        o = self._pair(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    # -- comparisons ----------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.from_rational(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return (self.field is other.field and self.den == other.den
                and self.num == other.num)

    def __hash__(self):
        return hash((self.num, self.den))

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise FieldError("scalar is irrational")
        return Fraction(self.num[0], self.den)

    def sign(self) -> int:
        """Exact sign of the real number this scalar designates."""
        num = self.num
        if not any(num[1:]):
            return (num[0] > 0) - (num[0] < 0)
        field = self.field
        steps = 0
        while True:
            s = self._interval_sign(*field._scaled_interval)
            if s is not None:
                return s
            field.refine_interval()
            steps += 1
            if steps > 10000:
                raise FieldError("sign refinement failed to converge")

    def _interval_sign(self, lo: int, hi: int, q: int) -> Optional[int]:
        """The sign of the numerator polynomial on the interval
        (lo/q, hi/q), if interval Horner excludes zero.  The sums are kept
        scaled by q^k after k steps, which leaves the bounds' signs as they
        are over the rationals."""
        vlo = vhi = 0
        scale = 1
        for c in reversed(self.num):
            cands = (vlo * lo, vlo * hi, vhi * lo, vhi * hi)
            c *= scale
            vlo, vhi = min(cands) + c, max(cands) + c
            scale *= q
        if vlo > 0:
            return 1
        if vhi < 0:
            return -1
        return None

    def __lt__(self, other):
        o = self._pair(other)
        return (self - o).sign() < 0

    def __float__(self):
        # the same float as summing float(coords[i]) by Horner's rule
        # (int / int is correctly rounded, reduced or not) at the correctly
        # rounded theta, which is fixed per field
        den = self.den
        if self.field.degree == 1:
            return self.num[0] / den
        t = self.field.theta_float()
        acc = 0.0
        for x in reversed(self.num):
            acc = acc * t + x / den
        return acc

    def __repr__(self):
        if self.is_rational():
            return f"Scalar({self.as_fraction()})"
        return f"Scalar({list(self.coords)} @ {self.field.name})"


# ---------------------------------------------------------------------------
# catalog fields: quadratic and real-cyclotomic
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def quadratic_field(d: int) -> NumberField:
    """Q(sqrt(d)) for squarefree d > 1, theta = sqrt(d)."""
    lo = Fraction(math.isqrt(d))
    if lo * lo == d:
        raise FieldError(f"{d} is a perfect square")
    field = NumberField((-d, 0, 1), (lo, lo + 1), name=f"Q(sqrt{d})")
    theta = field.theta
    half = Fraction(1, 2)
    if d == 2:
        field.cos_table[4] = theta * half
    if d == 3:
        field.cos_table[6] = theta * half
    if d == 5:
        field.cos_table[5] = (theta + 1) * Fraction(1, 4)
    return field


@lru_cache(maxsize=None)
def cyclotomic_polynomial(k: int) -> tuple[int, ...]:
    """The k-th cyclotomic polynomial: x^k - 1 divided by every smaller
    cyclotomic polynomial of a divisor of k.  Each is monic with integer
    coefficients, so pseudo-division has multiplier 1 and stays in Z."""
    poly = (-1,) + (0,) * (k - 1) + (1,)
    for d in range(1, k):
        if k % d == 0:
            _, poly, rem = _int_pseudo_divmod(poly, cyclotomic_polynomial(d))
            assert not rem
    return poly


@lru_cache(maxsize=None)
def cos2pi_minimal_polynomial(k: int) -> tuple[int, ...]:
    """Minimal polynomial of 2*cos(2*pi/k), integer coefficients."""
    if k == 1:
        return (-2, 1)
    if k == 2:
        return (2, 1)
    phi = cyclotomic_polynomial(k)
    half = (len(phi) - 1) // 2
    # phi is palindromic for k >= 3: fold z^j + z^-j into dilated Chebyshev V_j
    out = (phi[half],)
    v_prev, v_cur = (2,), (0, 1)
    for j in range(1, half + 1):
        out = _poly_add(out, _poly_scale(v_cur, phi[half + j]))
        v_prev, v_cur = v_cur, _poly_add((0,) + v_cur,
                                         tuple(-c for c in v_prev))
    return out


def chebyshev_double_cos(field: NumberField, theta: Scalar, j: int) -> Scalar:
    """2*cos(j*x) evaluated at theta = 2*cos(x), by the three-term recurrence."""
    if j == 0:
        return field.from_rational(2)
    prev, cur = field.from_rational(2), theta
    for _ in range(j - 1):
        prev, cur = cur, theta * cur - prev
    return cur


@lru_cache(maxsize=None)
def cosine_field(k: int) -> NumberField:
    """Q(2*cos(pi/k)); can express cos(j*pi/k) and, for even k, sin(j*pi/k)."""
    if k <= 3:
        return rationals()
    minpoly = cos2pi_minimal_polynomial(2 * k)
    target = 2.0 * math.cos(math.pi / k)
    runner = max(
        2.0 * math.cos(j * math.pi / k)
        for j in range(2, k)
        if math.gcd(j, 2 * k) == 1
    )
    lo = Fraction(round((target + runner) / 2 * 10**6), 10**6)
    field = NumberField(minpoly, (lo, 2), name=f"Q(2cos(pi/{k}))")
    theta = field.theta
    half = Fraction(1, 2)
    for m in range(2, k + 1):
        if k % m == 0:
            field.cos_table[m] = chebyshev_double_cos(field, theta, k // m) * half
    return field


def cos_pi_over(field: NumberField, m: int) -> Scalar:
    """Exact cos(pi/m) in the field, or raise if the field cannot express it."""
    try:
        return field.cos_table[m]
    except KeyError:
        raise FieldError(f"{field.name} cannot express cos(pi/{m})") from None
