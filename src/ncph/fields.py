"""Exact arithmetic in real algebraic number fields Q(theta).

A field is described by an integer minimal polynomial together with a
rational isolating interval that singles out one real root theta.  Scalars
are stored as rational coordinate vectors in the power basis
1, theta, ..., theta^(d-1), so addition and multiplication are exact.  The
sign of a scalar is decided exactly: zero by coordinate comparison (with a
gcd/Sturm fallback that stays sound even for an undetected reducible
modulus), nonzero sign by bisecting the isolating interval until rational
interval arithmetic excludes zero.

All values are immutable after construction; the only mutable state is the
cached refinement of the isolating interval, which only ever shrinks.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache
from typing import Optional


class FieldError(ValueError):
    """Invalid field description or an operation that left the field."""


# ---------------------------------------------------------------------------
# dense univariate polynomials over Q, little-endian coefficient tuples
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


def _poly_mul(p, q):
    if not p or not q:
        return ()
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return _strip(out)


def _poly_divmod(p, q):
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p)
    quo = [Fraction(0)] * max(0, len(p) - len(q) + 1)
    dq = len(q) - 1
    lead = q[-1]
    for i in range(len(rem) - 1, dq - 1, -1):
        c = rem[i]
        if c == 0:
            continue
        c = Fraction(c, 1) / lead
        quo[i - dq] = c
        for j in range(len(q)):
            rem[i - dq + j] -= c * q[j]
    return _strip(quo), _strip(rem)


def _poly_gcd(p, q):
    a, b = _strip(p), _strip(q)
    while b:
        a, b = b, _poly_divmod(a, b)[1]
    if a:
        a = tuple(c / a[-1] for c in a)  # monic
    return a


def _poly_derivative(p):
    return _strip(i * p[i] for i in range(1, len(p)))


def _poly_eval(p, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _sign_changes(values) -> int:
    signs = [v for v in values if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if (a > 0) != (b > 0))


def _sturm_chain(p):
    chain = [_strip(p), _poly_derivative(p)]
    while chain[-1]:
        rem = _poly_divmod(chain[-2], chain[-1])[1]
        chain.append(tuple(-c for c in rem))
    chain.pop()
    return chain


def _count_roots(p, lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots of p in the open interval (lo, hi).

    Requires p(lo) != 0 and p(hi) != 0.
    """
    chain = _sturm_chain(p)
    at_lo = _sign_changes(_poly_eval(f, lo) for f in chain)
    at_hi = _sign_changes(_poly_eval(f, hi) for f in chain)
    return at_lo - at_hi


def _rational_root_exists(int_coeffs) -> bool:
    """Whether an integer polynomial has a rational root (root theorem)."""
    coeffs = list(int_coeffs)
    if not coeffs:
        return True
    while coeffs and coeffs[0] == 0:
        return True  # x divides
    a0, an = abs(coeffs[0]), abs(coeffs[-1])

    def divisors(n):
        out = []
        for d in range(1, math.isqrt(n) + 1):
            if n % d == 0:
                out.extend((d, n // d))
        return sorted(set(out))

    for p in divisors(a0):
        for q in divisors(an):
            if math.gcd(p, q) != 1:
                continue
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if _poly_eval(coeffs, cand) == 0:
                    return True
    return False


def _monic_quartic_splits(int_coeffs) -> bool:
    """Whether a monic integer quartic factors into two monic quadratics."""
    e, d, c, b, a = int_coeffs  # a == 1
    found = []
    n = abs(e) if e else 0
    if e == 0:
        return True
    for p in range(1, math.isqrt(n) + 1):
        if n % p == 0:
            found.extend((p, n // p, -p, -(n // p)))
    for q0 in sorted(set(found)):
        if q0 == 0 or e % q0:
            continue
        r0 = e // q0
        # (x^2 + s x + q0)(x^2 + t x + r0): s + t = b, q0 + r0 + s t = c, s r0 + t q0 = d
        for s in range(-abs(b) - abs(c) - 4, abs(b) + abs(c) + 5):
            t = b - s
            if q0 + r0 + s * t == c and s * r0 + t * q0 == d:
                return True
    return False


def rational_sqrt(x: Fraction) -> Optional[Fraction]:
    """Exact nonnegative square root of a rational, or None."""
    if x < 0:
        return None
    if x == 0:
        return Fraction(0)
    n, d = x.numerator, x.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


# ---------------------------------------------------------------------------
# number fields
# ---------------------------------------------------------------------------

class NumberField:
    """Q(theta) for the unique root theta of ``minimal_polynomial`` in the
    isolating interval.  Degree-1 fields are the rationals and carry no theta.
    """

    #: bisection steps before the exact zero test kicks in
    zero_test_depth = 64

    def __init__(self, minimal_polynomial, isolating_interval, name=None, _validate=True):
        coeffs = tuple(int(c) for c in minimal_polynomial)
        coeffs = _strip(coeffs)
        if len(coeffs) < 2:
            raise FieldError("minimal polynomial must have positive degree")
        g = 0
        for c in coeffs:
            g = math.gcd(g, abs(c))
        coeffs = tuple(c // g for c in coeffs)
        if coeffs[-1] < 0:
            coeffs = tuple(-c for c in coeffs)
        self.minimal_polynomial = coeffs
        self.degree = len(coeffs) - 1
        lo, hi = (Fraction(b) for b in isolating_interval)
        if not lo < hi:
            raise FieldError("isolating interval must be nonempty")
        self._lo, self._hi = lo, hi
        self._initial_interval = (lo, hi)
        self.name = name or f"Q[x]/({coeffs})"
        if self.degree == 1:
            raise FieldError(
                "degenerate minimal polynomial: degree-1 fields are the "
                "rationals, use rationals()"
            )
        if _validate:
            self._validate()
        # monic reduction data: theta^d = sum(red[i] * theta^i)
        lead = Fraction(coeffs[-1])
        monic_tail = tuple(Fraction(-c, 1) / lead for c in coeffs[:-1])
        powers = [monic_tail]
        for _ in range(self.degree - 2):
            prev = powers[-1]
            nxt = [Fraction(0)] + list(prev[:-1])
            top = prev[-1]
            if top:
                nxt = [a + top * b for a, b in zip(nxt, monic_tail)]
            powers.append(tuple(nxt))
        self._power_table = tuple(powers)
        self._sign_at_lo = 1 if _poly_eval(coeffs, lo) > 0 else -1
        self.zero = Scalar(self, (Fraction(0),) * self.degree)
        self.one = self.from_rational(1)
        self.theta = Scalar(
            self, tuple(Fraction(1 if i == 1 else 0) for i in range(self.degree))
        )
        #: known (u, sqrt(u)) pairs used by the in-field square-root search
        self.sqrt_units: list[tuple[Scalar, Scalar]] = []
        #: exact values of cos(pi/m) for the m this field can express
        self.cos_table: dict[int, Scalar] = {}
        self._install_rational_cosines()

    # -- construction ------------------------------------------------------

    def _validate(self):
        p = self.minimal_polynomial
        lo, hi = self._lo, self._hi
        if _poly_eval(p, lo) == 0 or _poly_eval(p, hi) == 0:
            raise FieldError("isolating interval endpoints must not be roots")
        if len(_poly_gcd(p, _poly_derivative(p))) > 1:
            raise FieldError("reducible minimal polynomial (repeated factor)")
        if _rational_root_exists(p):
            raise FieldError("reducible minimal polynomial (rational root)")
        if self.degree == 4 and p[-1] == 1 and _monic_quartic_splits(p):
            raise FieldError("reducible minimal polynomial (quadratic factors)")
        n = _count_roots(p, lo, hi)
        if n != 1:
            raise FieldError(f"isolating interval contains {n} roots, expected 1")

    def _install_rational_cosines(self):
        self.cos_table[1] = self.from_rational(-1)
        self.cos_table[2] = self.from_rational(0)
        self.cos_table[3] = self.from_rational(Fraction(1, 2))

    # -- scalar constructors -------------------------------------------------

    def from_rational(self, q) -> "Scalar":
        coords = [Fraction(0)] * self.degree
        coords[0] = Fraction(q)
        return Scalar(self, tuple(coords))

    def from_coords(self, coords) -> "Scalar":
        coords = tuple(Fraction(c) for c in coords)
        if len(coords) != self.degree:
            raise FieldError("coordinate vector has wrong length")
        return Scalar(self, coords)

    def coerce(self, value) -> "Scalar":
        if isinstance(value, Scalar):
            if value.field is not self:
                raise FieldError("scalar belongs to a different field")
            return value
        if isinstance(value, (int, Fraction)):
            return self.from_rational(value)
        raise TypeError(f"cannot coerce {value!r} into {self.name}")

    # -- isolating interval ---------------------------------------------------

    def interval(self) -> tuple[Fraction, Fraction]:
        return self._lo, self._hi

    def refine_interval(self):
        """One bisection step; keeps theta inside (lo, hi)."""
        mid = (self._lo + self._hi) / 2
        value = _poly_eval(self.minimal_polynomial, mid)
        if value == 0:
            # validated fields have no rational roots; hitting one means the
            # description was reducible or degenerate after all
            raise FieldError(
                "rational root hit while refining the isolating interval")
        if (1 if value > 0 else -1) != self._sign_at_lo:
            self._hi = mid
        else:
            self._lo = mid

    def theta_float(self) -> float:
        while float(self._hi) - float(self._lo) > 1e-14:
            self.refine_interval()
        return float((self._lo + self._hi) / 2)

    # -- exact reduction / zero test ------------------------------------------

    def _reduce(self, conv):
        """Reduce a convolution (length <= 2d-1) modulo the minimal polynomial."""
        d = self.degree
        coords = list(conv[:d]) + [Fraction(0)] * max(0, d - len(conv))
        for k in range(len(conv) - 1, d - 1, -1):
            c = conv[k]
            if c:
                row = self._power_table[k - d]
                for i in range(d):
                    coords[i] += c * row[i]
        return tuple(coords[:d])

    def _is_zero_at_theta(self, coords) -> bool:
        """Exact test f(theta) == 0 (sound even if the modulus is reducible)."""
        f = _strip(coords)
        if not f:
            return True
        g = _poly_gcd(f, tuple(Fraction(c) for c in self.minimal_polynomial))
        if len(g) <= 1:
            return False
        lo, hi = self._initial_interval
        return _count_roots(g, lo, hi) > 0

    # -- square roots -----------------------------------------------------------

    def sqrt(self, x: "Scalar") -> Optional["Scalar"]:
        """A y in the field with y*y == x and y >= 0, or None if the search
        fails.  Complete for rational x and for degree-2 fields; elsewhere it
        falls back to the field's table of known square pairs.
        """
        x = self.coerce(x)
        s = x.sign()
        if s == 0:
            return self.zero
        if s < 0:
            return None
        if x.is_rational():
            r = rational_sqrt(x.coords[0])
            if r is not None:
                return self.from_rational(r)
        if self.degree == 2:
            y = self._sqrt_quadratic(x)
            if y is not None:
                return y
        for u, su in self.sqrt_units:
            t = x / u
            if t.is_rational():
                r = rational_sqrt(t.coords[0])
                if r is not None:
                    y = su * r
                    if y.sign() < 0:
                        y = -y
                    return y
        return None

    def _sqrt_quadratic(self, x: "Scalar") -> Optional["Scalar"]:
        # theta^2 = e + f*theta; solve (a + b*theta)^2 = x0 + x1*theta
        e, f = self._power_table[0]
        x0, x1 = x.coords

        def check(a, b):
            y = self.from_coords((a, b))
            if (y * y).coords == x.coords:
                return y if y.sign() > 0 else -y
            return None

        if x1 == 0:
            r = rational_sqrt(x0)
            if r is not None:
                return self.from_rational(r)
            denom = e + Fraction(f, 2) ** 2
            if denom != 0:
                b2 = x0 / denom
                b = rational_sqrt(b2) if b2 > 0 else None
                if b is not None:
                    y = check(-f * b / 2, b)
                    if y is not None:
                        return y
            return None
        # (f^2 + 4e) b^4 - (4 x0 + 2 f x1) b^2 + x1^2 = 0
        aa = f * f + 4 * e
        bb = -(4 * x0 + 2 * f * x1)
        cc = x1 * x1
        disc = bb * bb - 4 * aa * cc
        rd = rational_sqrt(disc) if disc >= 0 else None
        if rd is None or aa == 0:
            return None
        for branch in (Fraction(-bb + rd, 1) / (2 * aa), Fraction(-bb - rd, 1) / (2 * aa)):
            if branch <= 0:
                continue
            b = rational_sqrt(branch)
            if b is None:
                continue
            a = (x1 / b - f * b) / 2
            y = check(a, b)
            if y is not None:
                return y
        return None

    def describe(self) -> dict:
        lo, hi = self._lo, self._hi
        return {
            "name": self.name,
            "degree": self.degree,
            "minimalPolynomial": list(self.minimal_polynomial),
            "isolatingInterval": [f"{lo.numerator}/{lo.denominator}",
                                  f"{hi.numerator}/{hi.denominator}"],
        }

    def __repr__(self):
        return f"NumberField({self.name})"


class _RationalField(NumberField):
    """The degree-1 field Q; skips polynomial machinery entirely."""

    def __init__(self):
        self.minimal_polynomial = (0, 1)
        self.degree = 1
        self.name = "Q"
        self._lo = Fraction(-1)
        self._hi = Fraction(1)
        self.zero = Scalar(self, (Fraction(0),))
        self.one = Scalar(self, (Fraction(1),))
        self.sqrt_units = []
        self.cos_table = {}
        self._install_rational_cosines()

    def refine_interval(self):
        pass

    def theta_float(self):
        return 0.0

    def _reduce(self, conv):
        return (conv[0] if conv else Fraction(0),)

    def _is_zero_at_theta(self, coords):
        return not _strip(coords)

    def sqrt(self, x):
        x = self.coerce(x)
        r = rational_sqrt(x.coords[0])
        return None if r is None else self.from_rational(r)


@lru_cache(maxsize=None)
def rationals() -> NumberField:
    return _RationalField()


def field_create(minimal_polynomial, isolating_interval, name=None) -> NumberField:
    """Public constructor with full validation of the field description."""
    return NumberField(minimal_polynomial, isolating_interval, name=name)


# ---------------------------------------------------------------------------
# scalars
# ---------------------------------------------------------------------------

class Scalar:
    """An element of a NumberField, exact in the power basis of theta."""

    __slots__ = ("field", "coords")

    def __init__(self, field: NumberField, coords: tuple[Fraction, ...]):
        self.field = field
        self.coords = coords

    # -- ring operations ----------------------------------------------------

    def _pair(self, other):
        if isinstance(other, Scalar):
            if other.field is not self.field:
                raise FieldError("mixed-field arithmetic")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return None

    def __add__(self, other):
        o = self._pair(other)
        if o is None:
            return NotImplemented
        return Scalar(self.field, tuple(a + b for a, b in zip(self.coords, o.coords)))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._pair(other)
        if o is None:
            return NotImplemented
        return Scalar(self.field, tuple(a - b for a, b in zip(self.coords, o.coords)))

    def __rsub__(self, other):
        o = self._pair(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return Scalar(self.field, tuple(-a for a in self.coords))

    def __mul__(self, other):
        o = self._pair(other)
        if o is None:
            return NotImplemented
        a, b = self.coords, o.coords
        if self.field.degree == 1:
            return Scalar(self.field, (a[0] * b[0],))
        conv = [Fraction(0)] * (2 * len(a) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        conv[i + j] += x * y
        return Scalar(self.field, self.field._reduce(conv))

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        if self.field.degree == 1:
            if self.coords[0] == 0:
                raise ZeroDivisionError("scalar inverse of zero")
            return Scalar(self.field, (1 / self.coords[0],))
        f = _strip(self.coords)
        if not f:
            raise ZeroDivisionError("scalar inverse of zero")
        p = tuple(Fraction(c) for c in self.field.minimal_polynomial)
        # extended Euclid: s*f + t*p = g
        r0, r1 = f, p
        s0, s1 = (Fraction(1),), ()
        while r1:
            q, r = _poly_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _poly_add(s0, tuple(-c for c in _poly_mul(q, s1)))
        if len(r0) != 1:
            raise FieldError(
                "zero divisor encountered: the minimal polynomial is reducible"
            )
        inv = _poly_scale(s0, 1 / r0[0])
        coords = list(inv) + [Fraction(0)] * (self.field.degree - len(inv))
        return Scalar(self.field, tuple(coords[: self.field.degree]))

    def __truediv__(self, other):
        o = self._pair(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._pair(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    # -- comparisons ----------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.from_rational(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.field is other.field and self.coords == other.coords

    def __hash__(self):
        return hash((id(self.field), self.coords))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coords[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise FieldError("scalar is irrational")
        return self.coords[0]

    def sign(self) -> int:
        """Exact sign of the real number this scalar designates."""
        if self.is_zero():
            return 0
        if self.is_rational():
            return 1 if self.coords[0] > 0 else -1
        field = self.field
        steps = 0
        while True:
            lo, hi = field.interval()
            s = self._interval_sign(lo, hi)
            if s is not None:
                return s
            field.refine_interval()
            steps += 1
            if steps == field.zero_test_depth:
                if field._is_zero_at_theta(self.coords):
                    return 0
            if steps > 10000:
                raise FieldError("sign refinement failed to converge")

    def _interval_sign(self, lo, hi) -> Optional[int]:
        vlo = vhi = Fraction(0)
        for c in reversed(self.coords):
            cands = (vlo * lo, vlo * hi, vhi * lo, vhi * hi)
            vlo, vhi = min(cands) + c, max(cands) + c
        if vlo > 0:
            return 1
        if vhi < 0:
            return -1
        return None

    def __lt__(self, other):
        o = self._pair(other)
        return (self - o).sign() < 0

    def __le__(self, other):
        o = self._pair(other)
        return (self - o).sign() <= 0

    def __gt__(self, other):
        o = self._pair(other)
        return (self - o).sign() > 0

    def __ge__(self, other):
        o = self._pair(other)
        return (self - o).sign() >= 0

    def sqrt(self) -> Optional["Scalar"]:
        return self.field.sqrt(self)

    def __float__(self):
        if self.field.degree == 1:
            return float(self.coords[0])
        t = self.field.theta_float()
        acc = 0.0
        for c in reversed(self.coords):
            acc = acc * t + float(c)
        return acc

    def __repr__(self):
        if self.is_rational():
            return f"Scalar({self.coords[0]})"
        return f"Scalar({list(self.coords)} @ {self.field.name})"


# ---------------------------------------------------------------------------
# catalog fields: quadratic, biquadratic and real-cyclotomic
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def quadratic_field(d: int) -> NumberField:
    """Q(sqrt(d)) for squarefree d > 1, theta = sqrt(d)."""
    lo = Fraction(math.isqrt(d))
    if lo * lo == d:
        raise FieldError(f"{d} is a perfect square")
    field = NumberField((-d, 0, 1), (lo, lo + 1), name=f"Q(sqrt{d})")
    theta = field.theta
    field.sqrt_units.append((field.from_rational(d), theta))
    half = Fraction(1, 2)
    if d == 2:
        field.cos_table[4] = theta * half
    if d == 3:
        field.cos_table[6] = theta * half
    if d == 5:
        field.cos_table[5] = (theta + 1) * Fraction(1, 4)
    return field


_BIQUADRATIC_INTERVALS = {(2, 3): (3, 4), (2, 5): (Fraction(7, 2), 4), (3, 5): (Fraction(7, 2), Fraction(9, 2))}


@lru_cache(maxsize=None)
def biquadratic_field(a: int, b: int) -> NumberField:
    """Q(sqrt(a), sqrt(b)) with power basis of gamma = sqrt(a) + sqrt(b)."""
    if not (0 < a < b):
        raise FieldError("need 0 < a < b")
    minpoly = ((a - b) ** 2, 0, -2 * (a + b), 0, 1)
    field = NumberField(minpoly, _BIQUADRATIC_INTERVALS[(a, b)],
                        name=f"Q(sqrt{a}+sqrt{b})")
    g = field.theta
    g3 = g * g * g
    denom = Fraction(1, 2 * (b - a))
    sqrt_a = (g3 - (3 * a + b) * g) * denom
    sqrt_b = ((a + 3 * b) * g - g3) * denom
    sqrt_ab = sqrt_a * sqrt_b
    for d, s in ((a, sqrt_a), (b, sqrt_b), (a * b, sqrt_ab)):
        field.sqrt_units.append((field.from_rational(d), s))
    half = Fraction(1, 2)
    for d, s in ((a, sqrt_a), (b, sqrt_b)):
        if d == 2:
            field.cos_table[4] = s * half
        if d == 3:
            field.cos_table[6] = s * half
        if d == 5:
            field.cos_table[5] = (s + 1) * Fraction(1, 4)
    return field


@lru_cache(maxsize=None)
def cyclotomic_polynomial(k: int) -> tuple:
    if k == 1:
        return (Fraction(-1), Fraction(1))
    num = tuple(Fraction(-1 if i == 0 else (1 if i == k else 0)) for i in range(k + 1))
    poly = num
    for d in range(1, k):
        if k % d == 0:
            poly, rem = _poly_divmod(poly, cyclotomic_polynomial(d))
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
    v_prev, v_cur = (Fraction(2),), (Fraction(0), Fraction(1))
    for j in range(1, half + 1):
        out = _poly_add(out, _poly_scale(v_cur, phi[half + j]))
        v_prev, v_cur = v_cur, _poly_add(_poly_mul((Fraction(0), Fraction(1)), v_cur),
                                         tuple(-c for c in v_prev))
    return tuple(int(c) for c in out)


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
    pairs = []
    for j in range(1, k):
        c = chebyshev_double_cos(field, theta, j) * half  # cos(j*pi/k)
        pairs.append(c)
    if k % 2 == 0:
        for j in range(1, k // 2):
            s = chebyshev_double_cos(field, theta, k // 2 - j) * half  # sin(j*pi/k)
            pairs.append(s)
    seen = set()
    for val in pairs:
        if val.is_rational() or val.sign() == 0:
            continue
        if val.sign() < 0:
            val = -val
        key = val.coords
        if key in seen:
            continue
        seen.add(key)
        field.sqrt_units.append((val * val, val))
    return field


def cos_pi_over(field: NumberField, m: int) -> Scalar:
    """Exact cos(pi/m) in the field, or raise if the field cannot express it."""
    try:
        return field.cos_table[m]
    except KeyError:
        raise FieldError(f"{field.name} cannot express cos(pi/{m})") from None


_CATALOG_NAME = re.compile(
    r"Q|Q\(sqrt(\d+)\)|Q\(sqrt(\d+)\+sqrt(\d+)\)|Q\(2cos\(pi/(\d+)\)\)")


def catalog_field_by_name(name: str, minimal_polynomial) -> Optional[NumberField]:
    """The catalog singleton whose name and minimal polynomial match, if any.

    Lets deserialized data share the exact field object (and its caches)
    with freshly built values.
    """
    match = _CATALOG_NAME.fullmatch(name)
    if not match:
        return None
    quad, bi_a, bi_b, cosk = match.groups()
    try:
        if name == "Q":
            field = rationals()
        elif quad:
            field = quadratic_field(int(quad))
        elif bi_a:
            field = biquadratic_field(int(bi_a), int(bi_b))
        else:
            field = cosine_field(int(cosk))
    except FieldError:
        return None
    if field.minimal_polynomial != _strip(tuple(int(c) for c in minimal_polynomial)):
        return None
    return field
