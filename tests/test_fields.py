"""Exact field arithmetic: construction, signs, inverses, catalog fields."""

import math
import random
from fractions import Fraction

import pytest

from ncph.fields import (FieldError, NumberField, _count_roots,
                         _int_pseudo_divmod, _poly_derivative,
                         cos2pi_minimal_polynomial, cosine_field,
                         quadratic_field, rationals)
from conftest import field_interval, from_coords


def test_interval_must_isolate_one_root():
    with pytest.raises(FieldError):
        NumberField((-2, 0, 1), (-2, 2), "Q(sqrt2)")   # both roots of x^2 - 2
    with pytest.raises(FieldError):
        NumberField((-2, 0, 1), (2, 3), "Q(sqrt2)")    # no root
    with pytest.raises(FieldError):
        NumberField((-4, 0, 1), (2, 3), "Q[x]/(x^2-4)")  # root at an endpoint


def test_non_monic_polynomial_rejected():
    with pytest.raises(FieldError):
        NumberField((-3, 0, 2), (1, 2), "Q(sqrt(3/2))")


# ---------------------------------------------------------------------------
# the catalog polynomials are the minimal polynomials of their theta
# ---------------------------------------------------------------------------

def _cyclotomic_oracle(n):
    """Phi_n(z) = prod over d | n of (z^d - 1)^mu(n/d), dividing out the
    factors with mu = -1 one monic z^d - 1 at a time."""
    def mobius(m):
        result, p = 1, 2
        while p * p <= m:
            if m % p == 0:
                m //= p
                if m % p == 0:
                    return 0
                result = -result
            p += 1
        return -result if m > 1 else result

    top, bottom = [1], []
    for d in range(1, n + 1):
        if n % d == 0 and mobius(n // d):
            factor = [-1] + [0] * (d - 1) + [1]
            if mobius(n // d) == 1:
                top = _mul_oracle(top, factor)
            else:
                bottom.append(d)
    for d in bottom:
        # exact division by z^d - 1: q_i = q_(i-d) - t_i from the bottom up
        quo = [0] * (len(top) - d)
        for i in range(len(quo)):
            quo[i] = (quo[i - d] if i >= d else 0) - top[i]
        top = quo
    return list(top)


def _palindromic_lift(p):
    """z^d p(z + 1/z) for p of degree d: sum c_j z^(d-j) (z^2 + 1)^j."""
    d = len(p) - 1
    out = [0] * (2 * d + 1)
    power = [1]                       # (z^2 + 1)^j
    for j, c in enumerate(p):
        for i, b in enumerate(power):
            out[d - j + i] += c * b
        power = _mul_oracle(power, [1, 0, 1])
    return out


@pytest.mark.parametrize("k", range(4, 61))
def test_cosine_field_polynomial_is_the_minimal_polynomial(k):
    """A monic integer polynomial of degree [Q(2cos(pi/k)):Q] = phi(2k)/2
    that vanishes at 2cos(pi/k) is its minimal polynomial, so irreducible:
    z^d p(z + 1/z) = Phi_2k(z) puts every primitive 2k-th root z = e^(i pi
    j/k) behind a root 2cos(pi j/k) of p, and the interval holds one root
    of p and 2cos(pi/k), so theta is 2cos(pi/k)."""
    field = cosine_field(k)
    p = field.minimal_polynomial
    assert p[-1] == 1
    totient = sum(1 for j in range(1, 2 * k + 1) if math.gcd(j, 2 * k) == 1)
    assert len(p) - 1 == field.degree == totient // 2
    assert _palindromic_lift(p) == _cyclotomic_oracle(2 * k)
    lo, hi = field._initial_interval
    assert _count_roots(p, lo, hi) == 1
    assert float(lo) < 2 * math.cos(math.pi / k) - 1e-9 and hi == 2


@pytest.mark.parametrize("d", [2, 3, 5])
def test_quadratic_field_polynomial_is_the_minimal_polynomial(d):
    field = quadratic_field(d)
    assert field.minimal_polynomial == (-d, 0, 1) and field.degree == 2
    assert math.isqrt(d) ** 2 != d          # no rational root
    lo, hi = field._initial_interval
    assert _count_roots(field.minimal_polynomial, lo, hi) == 1
    assert 0 <= lo and lo * lo < d < hi * hi


def test_sturm_count_matches_the_roots_it_was_built_from():
    """p = k * prod (b x - a) over distinct rationals a/b, times factors
    x^2 + c with c > 0 (no real root), for k of either sign: non-monic,
    and with a negative leading coefficient the pseudo-division multiplier
    is negative whenever a division step is skipped (as with roots in
    pairs +-r).  On a rational interval whose ends are not roots, the
    Sturm count is the number of chosen roots inside."""
    rng = random.Random(19)
    negative_multipliers = 0
    for _ in range(150):
        roots = {Fraction(rng.randint(-20, 20), rng.randint(1, 6))
                 for _ in range(rng.randint(0, 5))}
        if rng.random() < 0.4:
            roots |= {-r for r in roots}
        poly = (rng.choice((-6, -3, -2, -1, 1, 2, 5)),)
        for r in roots:
            poly = tuple(_mul_oracle(poly, (-r.numerator, r.denominator)))
        for _ in range(rng.randint(0, 2)):
            poly = tuple(_mul_oracle(poly, (rng.randint(1, 9), 0, 1)))
        poly = tuple(int(c) for c in poly)
        if len(poly) > 2:
            negative_multipliers += _int_pseudo_divmod(
                poly, _poly_derivative(poly))[0] < 0
        for _ in range(10):
            lo, hi = sorted(Fraction(rng.randint(-150, 150), rng.choice((7, 11, 13)))
                            for _ in range(2))
            if lo == hi or lo in roots or hi in roots:
                continue
            assert _count_roots(poly, lo, hi) == sum(lo < r < hi for r in roots)
    assert negative_multipliers >= 10


def test_integer_bisection_matches_rational_bisection():
    for make in (lambda: quadratic_field(5), lambda: cosine_field(7),
                 lambda: cosine_field(20)):
        catalog = make()
        field = NumberField(catalog.minimal_polynomial,
                            catalog._initial_interval, catalog.name)
        poly = field.minimal_polynomial
        lo, hi = field_interval(field)
        assert (lo, hi) == catalog._initial_interval
        at_lo = _Oracle._eval(poly, lo) > 0
        for _ in range(80):
            mid = (lo + hi) / 2
            if (_Oracle._eval(poly, mid) > 0) != at_lo:
                hi = mid
            else:
                lo = mid
            field.refine_interval()
            a, b, q = field._scaled_interval
            assert q > 0 and math.gcd(a, b, q) == 1     # lowest terms
            assert field_interval(field) == (lo, hi)


def test_rationals_are_built_by_the_number_field_constructor():
    qq = rationals()
    assert type(qq) is NumberField and rationals() is qq
    assert qq.describe() == {"name": "Q", "degree": 1,
                             "minimalPolynomial": [0, 1],
                             "isolatingInterval": ["-1/1", "1/1"]}
    assert not hasattr(qq, "theta")
    assert qq.cos_table[3] == Fraction(1, 2) and float(qq.cos_table[1]) == -1.0


@pytest.mark.parametrize("value", [0.1, 1.0, "1/3", None])
def test_from_rational_refuses_non_exact_input(value):
    for field in (rationals(), quadratic_field(2)):
        with pytest.raises(TypeError):
            field.from_rational(value)
    assert rationals().from_rational(Fraction(1, 3)).as_fraction() == Fraction(1, 3)


def test_sqrt5_field_by_bisection():
    # bisection oracle: refine (2,3) against x^2-5 until it excludes 2
    lo, hi = Fraction(2), Fraction(3)
    for _ in range(20):
        mid = (lo + hi) / 2
        if mid * mid - 5 > 0:
            hi = mid
        else:
            lo = mid
    assert lo > 2  # sqrt(5) = 2.236...
    field = quadratic_field(5)
    assert field.degree == 2 and field._initial_interval == (2, 3)
    theta = field.theta
    assert (theta - 2).sign() == 1
    assert (theta * theta - 5).sign() == 0
    assert (theta * theta - 5).is_zero()


def test_rational_field_arithmetic():
    qq = rationals()
    assert (qq.from_rational(Fraction(3, 2)) * qq.from_rational(Fraction(2, 3))
            == qq.one)
    assert qq.from_rational(5).inverse() == qq.from_rational(Fraction(1, 5))


def test_sign_zero_by_coordinates():
    field = quadratic_field(5)
    assert field.zero.sign() == 0
    assert (field.theta - field.theta).sign() == 0


def test_field_axioms_random():
    random.seed(20240211)
    for field in (quadratic_field(5), cosine_field(10)):
        scalars = [from_coords(field, [Fraction(random.randint(-9, 9),
                                                random.randint(1, 9))
                                       for _ in range(field.degree)])
                   for _ in range(60)]
        for i in range(0, 60, 3):
            x, y, z = scalars[i], scalars[i + 1], scalars[i + 2]
            assert (x + y) * z == x * z + y * z
            if not x.is_zero():
                assert x * x.inverse() == field.one


def test_sign_matches_float_interval_on_1000_scalars():
    random.seed(7)
    field = quadratic_field(2)
    t = field.theta_float()
    checked = 0
    for _ in range(1000):
        coords = [Fraction(random.randint(-50, 50), random.randint(1, 20))
                  for _ in range(2)]
        x = from_coords(field, coords)
        approx = float(coords[0]) + float(coords[1]) * t
        if abs(approx) > 1e-9:  # the crude interval excludes zero
            assert x.sign() == (1 if approx > 0 else -1)
            checked += 1
    assert checked > 900


def test_comparisons():
    field = quadratic_field(2)
    theta = field.theta
    assert theta < Fraction(3, 2)


def test_cosine_field_tables():
    field = cosine_field(10)
    for m in (2, 5, 10):
        assert abs(float(field.cos_table[m]) - math.cos(math.pi / m)) < 1e-12


@pytest.mark.parametrize("k,degree", [(5, 2), (10, 2), (20, 4), (28, 6), (32, 8)])
def test_cos2pi_minimal_polynomials(k, degree):
    poly = cos2pi_minimal_polynomial(k)
    assert len(poly) - 1 == degree
    x = 2.0 * math.cos(2.0 * math.pi / k)
    acc = 0.0
    for c in reversed(poly):
        acc = acc * x + c
    assert abs(acc) < 1e-9


def test_zero_divisor_detected_lazily():
    # a reducible modulus that the Sturm count accepts; arithmetic must stay
    # sound
    field = NumberField((-4, 0, 1), (1, 3), "Q[x]/(x^2-4)")
    bad = from_coords(field, (2, -1))  # 2 - theta, vanishes at theta = 2
    with pytest.raises(FieldError):
        bad.inverse()
    # bisection hits the rational root 2
    with pytest.raises(FieldError):
        bad.sign()


# ---------------------------------------------------------------------------
# the integer kernel against rational power-basis arithmetic
# ---------------------------------------------------------------------------

def _strip_oracle(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return tuple(p)


def _divmod_oracle(p, q):
    rem = [Fraction(c) for c in p]
    quo = [Fraction(0)] * max(0, len(p) - len(q) + 1)
    for i in range(len(rem) - 1, len(q) - 2, -1):
        c = rem[i] / q[-1]
        quo[i - len(q) + 1] = c
        for j, y in enumerate(q):
            rem[i - len(q) + 1 + j] -= c * y
    return _strip_oracle(quo), _strip_oracle(rem)


def _mul_oracle(p, q):
    out = [Fraction(0)] * max(0, len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return _strip_oracle(out)


class _Oracle:
    """Arithmetic on tuples of Fraction coordinates, one reduction per
    product, extended Euclid over Q and interval signs on Fractions."""

    def __init__(self, field):
        self.poly = tuple(Fraction(c) for c in field.minimal_polynomial)
        self.d = field.degree
        tail = tuple(-c / self.poly[-1] for c in self.poly[:-1])
        powers = [tail]
        for _ in range(self.d - 2):
            prev = powers[-1]
            powers.append(tuple((prev[i - 1] if i else 0) + prev[-1] * tail[i]
                                for i in range(self.d)))
        self.powers = powers
        lo, hi = field_interval(field)
        self.lo, self.hi = lo, hi
        self.sign_at_lo = self._eval(self.poly, lo) > 0

    @staticmethod
    def _eval(p, x):
        acc = Fraction(0)
        for c in reversed(p):
            acc = acc * x + c
        return acc

    def mul(self, a, b):
        conv = [Fraction(0)] * (2 * self.d - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                conv[i + j] += x * y
        out = list(conv[:self.d])
        for k in range(self.d, len(conv)):
            for i in range(self.d):
                out[i] += conv[k] * self.powers[k - self.d][i]
        return tuple(out)

    def inverse(self, a):
        r0, r1 = _strip_oracle(a), self.poly
        s0, s1 = (Fraction(1),), ()
        while r1:
            q, r = _divmod_oracle(r0, r1)
            r0, r1 = r1, r
            qs = _mul_oracle(q, s1)
            n = max(len(s0), len(qs))
            s0, s1 = s1, _strip_oracle(
                (s0[i] if i < len(s0) else 0) - (qs[i] if i < len(qs) else 0)
                for i in range(n))
        assert len(r0) == 1
        s = [c / r0[0] for c in s0] + [Fraction(0)] * self.d
        return tuple(s[:self.d])

    @staticmethod
    def interval_sign(coords, lo, hi):
        vlo = vhi = Fraction(0)
        for c in reversed(coords):
            cands = (vlo * lo, vlo * hi, vhi * lo, vhi * hi)
            vlo, vhi = min(cands) + c, max(cands) + c
        if vlo > 0:
            return 1
        if vhi < 0:
            return -1
        return None

    def sign(self, coords):
        if not any(coords):
            return 0
        if not any(coords[1:]):
            return 1 if coords[0] > 0 else -1
        lo, hi = self.lo, self.hi
        while True:
            s = self.interval_sign(coords, lo, hi)
            if s is not None:
                return s
            mid = (lo + hi) / 2
            if (self._eval(self.poly, mid) > 0) != self.sign_at_lo:
                hi = mid
            else:
                lo = mid


_KERNEL_FIELDS = {
    "Q": rationals,
    "Q(sqrt2)": lambda: quadratic_field(2),
    "Q(sqrt5)": lambda: quadratic_field(5),
    "Q(2cos(pi/7))": lambda: cosine_field(7),      # degree 3
    "Q(2cos(pi/8))": lambda: cosine_field(8),      # degree 4
    "Q(2cos(pi/10))": lambda: cosine_field(10),
}


def _random_coords(rng, d):
    big = rng.random() < 0.2
    return tuple(Fraction(rng.randint(-10**12, 10**12) if big else rng.randint(-9, 9),
                          rng.choice((1, 1, 2, 3, 4, 6, 9, 10, 35)))
                 if rng.random() < 0.8 else Fraction(0) for _ in range(d))


@pytest.mark.parametrize("name", list(_KERNEL_FIELDS))
def test_kernel_matches_rational_coordinate_arithmetic(name):
    field = _KERNEL_FIELDS[name]()
    oracle = _Oracle(field)
    rng = random.Random(f"kernel:{name}")
    values = [_random_coords(rng, field.degree) for _ in range(80)]
    values += [(Fraction(0),) * field.degree, (Fraction(1),) + (Fraction(0),) * (field.degree - 1)]
    scalars = [from_coords(field, c) for c in values]
    for x, cx in zip(scalars, values):
        assert x.coords == cx
        assert all(type(c) is Fraction for c in x.coords)
        assert x.den > 0 and math.gcd(x.den, *x.num) == 1
        assert (-x).coords == tuple(-c for c in cx)
        assert x.sign() == oracle.sign(cx)
        if any(cx):
            assert x.inverse().coords == oracle.inverse(cx)
        else:
            with pytest.raises(ZeroDivisionError):
                x.inverse()
    for _ in range(400):
        i, j = rng.randrange(len(values)), rng.randrange(len(values))
        x, y, cx, cy = scalars[i], scalars[j], values[i], values[j]
        assert (x + y).coords == tuple(a + b for a, b in zip(cx, cy))
        assert (x - y).coords == tuple(a - b for a, b in zip(cx, cy))
        product = x * y
        assert product.coords == oracle.mul(cx, cy)
        assert product.den > 0 and math.gcd(product.den, *product.num) == 1
        if any(cy):
            assert (x / y).coords == oracle.mul(cx, oracle.inverse(cy))
        # equal values built along different routes: equal keys and hashes
        same = from_coords(field, product.coords)
        assert same == product and hash(same) == hash(product)
        assert (x == y) == (cx == cy)
        assert (product - same).sign() == 0


@pytest.mark.parametrize("name", [n for n in _KERNEL_FIELDS if n != "Q"])
def test_integer_interval_sign_matches_rational_interval_sign(name):
    field = _KERNEL_FIELDS[name]()
    rng = random.Random(f"interval:{name}")
    lo, hi = field._initial_interval
    decided = undecided = 0
    for _ in range(300):
        coords = _random_coords(rng, field.degree)
        x = from_coords(field, coords)
        # any interval will do, also one that misses theta
        a = lo - 2 + (hi - lo + 2) * Fraction(rng.randint(0, 100), 97)
        b = a + Fraction(rng.randint(1, 300), rng.choice((100, 7, 1000)))
        q = math.lcm(a.denominator, b.denominator)
        expected = _Oracle.interval_sign(coords, a, b)
        assert x._interval_sign(a.numerator * (q // a.denominator),
                                b.numerator * (q // b.denominator), q) == expected
        decided += expected is not None
        undecided += expected is None
    assert decided and undecided


@pytest.mark.parametrize("name", list(_KERNEL_FIELDS))
def test_dot_reduces_once_to_the_sum_of_products(name):
    from ncph.linalg import dot
    field = _KERNEL_FIELDS[name]()
    rng = random.Random(f"dot:{name}")
    for n in range(1, 6):
        for _ in range(20):
            u = tuple(from_coords(field, _random_coords(rng, field.degree)) for _ in range(n))
            v = tuple(from_coords(field, _random_coords(rng, field.degree)) for _ in range(n))
            expected = field.zero
            for a, b in zip(u, v):
                expected = expected + a * b
            got = dot(u, v)
            assert got == expected and got.coords == expected.coords
            assert got.den > 0 and math.gcd(got.den, *got.num) == 1


def test_dot_rejects_mixed_fields():
    from ncph.linalg import dot
    f2, f5 = quadratic_field(2), quadratic_field(5)
    with pytest.raises(FieldError):
        dot((f2.one, f2.theta), (f2.one, f5.theta))


def test_vec_key_sorts_like_rational_coordinates():
    from ncph.linalg import vec_key
    rng = random.Random(11)
    for name in ("Q", "Q(sqrt5)", "Q(2cos(pi/7))", "Q(2cos(pi/8))"):
        field = _KERNEL_FIELDS[name]()
        rows = []
        for _ in range(200):
            coords = tuple(tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                                 for _ in range(field.degree)) for _ in range(3))
            rows.append((coords, tuple(from_coords(field, c) for c in coords)))
        by_key = [coords for coords, _ in sorted(rows, key=lambda r: vec_key(r[1]))]
        assert by_key == sorted(coords for coords, _ in rows)


@pytest.mark.parametrize("d", [2, 3, 5, 6, 7])
def test_quadratic_inverse_by_the_norm(d, monkeypatch):
    import ncph.fields

    def no_euclid(*_):
        raise AssertionError("degree-2 inverse took extended Euclid")

    # degree 2 takes the closed norm form, not extended Euclid
    monkeypatch.setattr(ncph.fields, "_int_inverse", no_euclid)
    field = quadratic_field(d)
    for a, b in ((1, 1), (3, -2), (0, 5), (7, 0), (-4, 9)):
        x = from_coords(field, (Fraction(a, 3), Fraction(b, 2)))
        assert x * x.inverse() == field.one
        assert x.inverse().coords == _Oracle(field).inverse(x.coords)


def test_inverse_of_zero_raises_in_every_degree():
    for name, make in _KERNEL_FIELDS.items():
        with pytest.raises(ZeroDivisionError):
            make().zero.inverse()


def test_zero_divisor_detected_in_degree_four():
    # (x^2 - 2)(x^2 - 3), one root in the interval; x^2 - 2 vanishes at sqrt2
    field = NumberField((6, 0, -5, 0, 1), (1, Fraction(3, 2)),
                        "Q[x]/((x^2-2)(x^2-3))")
    with pytest.raises(FieldError):
        from_coords(field, (-2, 0, 1, 0)).inverse()
    x = from_coords(field, (1, 1, 0, 0))
    assert x * x.inverse() == field.one


@pytest.mark.parametrize("d", [2, 3, 5])
def test_theta_float_is_the_correctly_rounded_square_root(d):
    root = math.isqrt(d)
    fresh = NumberField((-d, 0, 1), (root, root + 1), f"Q(sqrt{d})")
    assert fresh.theta_float() == math.sqrt(d)
    assert quadratic_field(d).theta_float() == math.sqrt(d)


@pytest.mark.parametrize("name,make", [
    ("Q(sqrt2)", lambda: quadratic_field(2)),
    ("Q(sqrt5)", lambda: quadratic_field(5)),
    ("Q(2cos(pi/7))", lambda: cosine_field(7)),
    ("Q(2cos(pi/8))", lambda: cosine_field(8)),
    ("Q(2cos(pi/20))", lambda: cosine_field(20)),
])
def test_theta_float_does_not_depend_on_the_refinement(name, make):
    catalog = make()
    assert catalog.name == name

    def fresh():
        return NumberField(catalog.minimal_polynomial,
                           catalog._initial_interval, catalog.name)

    first = fresh()
    before = field_interval(first)
    theta = first.theta_float()
    assert field_interval(first) == before     # bisects a copy
    x = from_coords(first, range(1, first.degree + 1))
    value = float(x)
    for _ in range(40):
        first.refine_interval()
    assert first.theta_float() == theta
    assert float(x) == value
    refined_first = fresh()
    for _ in range(40):
        refined_first.refine_interval()
    assert refined_first.theta_float() == theta
    # an interval of width below 2^-90 rounds to theta's float at both ends
    narrow = fresh()
    for _ in range(100):
        narrow.refine_interval()
    lo, hi = field_interval(narrow)
    assert float(lo) == float(hi) == theta
