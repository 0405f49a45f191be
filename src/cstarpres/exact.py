"""Exact scalars for the term kernel.

Two kinds of numbers live here:

* ``Coeff`` -- Gaussian rationals, stored as an integer triple
  ``(a + b*i) / d`` in lowest terms.  These are the only coefficients
  normal forms are allowed to carry.

* ``XS`` -- quadratic surds ``a + b*sqrt(r)`` with rational a, b and an
  integer radicand r, stored as an integer quadruple
  ``(na + nb*sqrt(r)) / den`` in lowest terms.  Norm values and
  spectral-interval endpoints are XS values.  XS is closed under
  negation and inversion; sums and products are exact when the
  radicands agree or one operand is rational, and the interval layer
  rounds outward when they are not.

Both keep integers over one common denominator, so their arithmetic is
integer arithmetic; ``Fraction`` appears only where exact parts and
rational bounds are handed out.  No floats enter any decision made by
the checker.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt
from typing import Union

Rat = Union[int, Fraction]

_FZERO = Fraction(0)

_TRIAL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97]

BITS = 64  # precision, in bits, of the directed rational bounds


def _square_split(n: int) -> tuple[int, int]:
    """Write n >= 1 as m*m*d, pulling out the squares of the primes up to
    97 and a perfect-square rest.

    d is not always squarefree: 101*101*103 comes back as (1, 1050703).
    So two radicands that differ need not give independent surds.
    """
    if n <= 0:
        raise ValueError("radicand must be positive")
    m, d = 1, 1
    for p in _TRIAL_PRIMES:
        if p * p > n:
            break
        while n % (p * p) == 0:
            n //= p * p
            m *= p
        if n % p == 0:
            n //= p
            d *= p
    # leftover n: either 1, prime-ish, or a perfect square
    s = isqrt(n)
    if s * s == n:
        m *= s
    else:
        d *= n
    return m, d


def sqrt_bounds(q: Fraction) -> tuple[Fraction, Fraction]:
    """Directed rational bounds lo <= sqrt(q) <= hi for q >= 0."""
    if q < 0:
        raise ValueError("sqrt of negative rational")
    if q == 0:
        return Fraction(0), Fraction(0)
    p, d = q.numerator, q.denominator
    n = p * d  # sqrt(p/d) = sqrt(p*d)/d
    scaled = n << (2 * BITS)
    root = isqrt(scaled)
    den = d << BITS
    lo = Fraction(root, den)
    if root * root == scaled:
        return lo, lo
    return lo, Fraction(root + 1, den)


class XS:
    """Exact real scalar (na + nb*sqrt(r)) / den on integers.

    Normalised so that den > 0, gcd(na, nb, den) = 1, and r = 0 when
    nb = 0; otherwise r >= 2 is the radicand as `_square_split` leaves it.
    So ``==`` on the quadruple is ``==`` on (a, b, r), where ``a`` and
    ``b`` are the exact parts as Fractions.  r may keep a square factor
    (see `_square_split`), so ``==`` is structural and ``cmp`` decides
    value.  Only the public constructor and the square roots (`sqrt_of`,
    and the product of two pure surds) split a radicand; every other
    result keeps the radicand of an operand.
    """

    __slots__ = ("na", "nb", "den", "r")

    def __init__(self, a: Rat, b: Rat = 0, r: int = 0):
        if not isinstance(a, (int, Fraction)):
            a = Fraction(a)
        if not isinstance(b, (int, Fraction)):
            b = Fraction(b)
        if b != 0 and r > 0:
            m, r = _square_split(r)
            b *= m
            if r == 1:
                a, b, r = a + b, 0, 0
        else:
            b, r = 0, 0
        # both parts are in lowest terms (an int is n/1), so over
        # den = lcm(q, t) the triple is already coprime
        q, t = a.denominator, b.denominator
        den = q * t // gcd(q, t)
        self.na, self.nb, self.den, self.r = \
            a.numerator * (den // q), b.numerator * (den // t), den, r

    # -- constructors -------------------------------------------------

    @staticmethod
    def sqrt_of(q: Rat) -> "XS":
        """Exact sqrt of a nonnegative rational, as an XS value."""
        q = Fraction(q)
        if q < 0:
            raise ValueError("sqrt of negative rational")
        return _sqrt_ratio(q.numerator, q.denominator)

    # -- parts and predicates -----------------------------------------

    @property
    def a(self) -> Fraction:
        return Fraction(self.na, self.den)

    @property
    def b(self) -> Fraction:
        return Fraction(self.nb, self.den)

    @property
    def is_rational(self) -> bool:
        return self.nb == 0

    def as_fraction(self) -> Fraction:
        if self.nb != 0:
            raise ValueError("not a rational value: %s" % self)
        return Fraction(self.na, self.den)

    def is_norm_value(self) -> bool:
        """Norm values are q or sqrt(q): rational, or pure-surd with no
        rational part."""
        return self.nb == 0 or self.na == 0

    # -- arithmetic ---------------------------------------------------

    def __neg__(self) -> "XS":
        return _xs(-self.na, -self.nb, self.den, self.r)

    def try_add(self, other: "XS") -> "XS | None":
        """Exact sum, or None when the radicands are incompatible."""
        a, b, d, r = self.na, self.nb, self.den, self.r
        c, e, f, s = other.na, other.nb, other.den, other.r
        if b != 0 and e != 0 and r != s:
            return None
        if d != f:
            a, b, c, e, d = a * f, b * f, c * d, e * d, d * f
        return _xs(a + c, b + e, d, r or s)

    def __add__(self, other) -> "XS":
        other = _coerce(other)
        s = self.try_add(other)
        if s is None:
            raise ValueError("inexact surd addition; round outward instead")
        return s

    def __sub__(self, other) -> "XS":
        return self + (-_coerce(other))

    def try_mul(self, other: "XS") -> "XS | None":
        """Exact product, or None when it is not an XS value."""
        a, b, d, r = self.na, self.nb, self.den, self.r
        c, e, f, s = other.na, other.nb, other.den, other.r
        if b == 0:
            return _xs(a * c, a * e, d * f, s)
        if e == 0:
            return _xs(c * a, c * b, d * f, r)
        if r == s:
            return _xs(a * c + b * e * r, a * e + b * c, d * f, r)
        # sqrt(r)*sqrt(s) = sqrt(rs): exact only when both rational parts vanish
        if a == 0 and c == 0:
            return _surd(b * e, d * f, r * s)
        return None

    def __mul__(self, other) -> "XS":
        p = self.try_mul(_coerce(other))
        if p is None:
            raise ValueError("inexact surd product; round outward instead")
        return p

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other) -> "XS":
        return _coerce(other) - self

    def inverse(self) -> "XS":
        # 1 / ((a + b sqrt(r)) / d) = d (a - b sqrt(r)) / (a^2 - b^2 r)
        a, b, d, r = self.na, self.nb, self.den, self.r
        n = a * a - b * b * r
        if n == 0:
            raise ZeroDivisionError
        if n < 0:
            return _xs(-d * a, d * b, -n, r)
        return _xs(d * a, -d * b, n, r)

    def __truediv__(self, other) -> "XS":
        return self * _coerce(other).inverse()

    # -- order --------------------------------------------------------

    def sign(self) -> int:
        return _sign(self.na, self.nb, self.r)

    def cmp(self, other) -> int:
        other = _coerce(other)
        a, b, d, r = self.na, self.nb, self.den, self.r
        c, e, f, s = other.na, other.nb, other.den, other.r
        if d != f:
            a, b, c, e = a * f, b * f, c * d, e * d
        # (self - other) * d * f = p + b sqrt(r) - e sqrt(s)
        p = a - c
        if e == 0:
            return _sign(p, b, r)
        if b == 0:
            return _sign(p, -e, s)
        if r == s:
            return _sign(p, b - e, r)
        # distinct radicands, both surd parts nonzero: u = p + b sqrt(r)
        # is exact; when u and -e sqrt(s) have opposite signs, the larger
        # square wins
        su, sw = _sign(p, b, r), (e < 0) - (e > 0)
        if su == sw or su == 0:
            return sw
        return su * _sign(p * p + b * b * r - e * e * s, 2 * p * b, r)

    def __lt__(self, other):
        return self.cmp(other) < 0

    def __le__(self, other):
        return self.cmp(other) <= 0

    def __gt__(self, other):
        return self.cmp(other) > 0

    def __ge__(self, other):
        return self.cmp(other) >= 0

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = _coerce(other)
        if not isinstance(other, XS):
            return NotImplemented
        return (self.na == other.na and self.nb == other.nb
                and self.den == other.den and self.r == other.r)

    def __hash__(self):
        return hash((self.na, self.nb, self.den, self.r))

    def __abs__(self) -> "XS":
        return -self if self.sign() < 0 else self

    # -- rounding -----------------------------------------------------

    def bounds(self) -> tuple[Fraction, Fraction]:
        """Directed rational bounds lo <= self <= hi."""
        a, b, d, r = self.na, self.nb, self.den, self.r
        if b == 0:
            q = Fraction(a, d)
            return q, q
        # r is not a square, so sqrt(r) lies strictly between lo / 2^BITS
        # and hi / 2^BITS
        lo = isqrt(r << (2 * BITS))
        hi = lo + 1
        if b < 0:
            lo, hi = hi, lo
        a, d = a << BITS, d << BITS
        return Fraction(a + b * lo, d), Fraction(a + b * hi, d)

    def lower(self) -> Fraction:
        return self.bounds()[0]

    def upper(self) -> Fraction:
        return self.bounds()[1]

    def sqrt_outward(self, up: bool) -> "XS":
        """Sound bound for sqrt(self) (self >= 0), exact when possible."""
        if self.sign() < 0:
            raise ValueError("sqrt of negative value")
        if self.nb == 0:
            return _sqrt_ratio(self.na, self.den)
        q = self.upper() if up else max(self.lower(), _FZERO)
        lo, hi = sqrt_bounds(q)
        return _rational(hi if up else lo)

    def __float__(self) -> float:
        # int / int rounds correctly, as float(Fraction) does
        return self.na / self.den + self.nb / self.den * float(self.r) ** 0.5

    def __repr__(self):
        return "XS(%s)" % self

    def __str__(self):
        if self.nb == 0:
            return str(self.a)
        parts = []
        if self.na != 0:
            parts.append(str(self.a))
        surd = "sqrt(%d)" % self.r
        b = self.b
        if b == 1:
            parts.append(surd)
        elif b == -1:
            parts.append("-" + surd)
        else:
            parts.append("%s*%s" % (b, surd))
        out = parts[0]
        for p in parts[1:]:
            out += p if p.startswith("-") else "+" + p
        return out


def _xs(na: int, nb: int, den: int, r: int) -> XS:
    """The XS (na + nb*sqrt(r)) / den for integers with den > 0 and r a
    radicand as `_square_split` leaves it."""
    x = object.__new__(XS)
    if nb == 0:
        r = 0
    g = gcd(na, nb, den)
    if g == 1:
        x.na, x.nb, x.den, x.r = na, nb, den, r
    else:
        x.na, x.nb, x.den, x.r = na // g, nb // g, den // g, r
    return x


def _surd(n: int, d: int, r: int) -> XS:
    """The XS n*sqrt(r) / d for integers n, d > 0 and r >= 1."""
    m, r = _square_split(r)
    if r == 1:
        return _xs(n * m, 0, d, 0)
    return _xs(0, n * m, d, r)


def _sqrt_ratio(p: int, d: int) -> XS:
    """sqrt(p / d) for integers p >= 0 and d > 0: sqrt(p*d) / d."""
    if p == 0:
        return _xs(0, 0, 1, 0)
    return _surd(1, d, p * d)


def _rational(q: Rat) -> XS:
    return _xs(q.numerator, 0, q.denominator, 0)


def _sign(p: int, q: int, r: int) -> int:
    """Sign of p + q*sqrt(r) for integers p, q and r >= 0."""
    if q == 0:
        return (p > 0) - (p < 0)
    if p == 0:
        return (q > 0) - (q < 0)
    sp = 1 if p > 0 else -1
    if (q > 0) == (p > 0):
        return sp
    # opposite signs: compare p^2 with q^2 r
    return sp if p * p > q * q * r else -sp


def _coerce(v) -> XS:
    if type(v) is XS:
        return v
    if isinstance(v, (int, Fraction)):
        return _rational(v)
    raise TypeError("cannot coerce %r to XS" % (v,))


def xs_add_outward(x: XS, y: XS, up: bool) -> XS:
    """x + y, exact when representable, otherwise rounded in direction `up`."""
    s = x.try_add(y)
    if s is not None:
        return s
    xb = x.upper() if up else x.lower()
    yb = y.upper() if up else y.lower()
    return _rational(xb + yb)


def xs_mul_outward(x: XS, y: XS, up: bool) -> XS:
    """x * y, exact when representable, otherwise rounded in direction `up`."""
    p = x.try_mul(y)
    if p is not None:
        return p
    xl, xh = x.bounds()
    yl, yh = y.bounds()
    prods = [xl * yl, xl * yh, xh * yl, xh * yh]
    return _rational(max(prods) if up else min(prods))


class Coeff:
    """Gaussian rational (a + b*i) / d on integers.

    Normalised so that gcd(a, b, d) = 1 and d > 0; structural equality of
    the triple is value equality.  Each sum, difference and product costs
    one three-way gcd.  ``re`` and ``im`` are the exact parts as
    Fractions.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, re: Rat = 0, im: Rat = 0):
        if type(re) is int and type(im) is int:
            self.a, self.b, self.d = re, im, 1
            return
        # an int or a Fraction is already in lowest terms
        if type(re) is not int and type(re) is not Fraction:
            re = Fraction(re)
        if type(im) is not int and type(im) is not Fraction:
            im = Fraction(im)
        p, q = re.numerator, re.denominator
        r, s = im.numerator, im.denominator
        # both parts are in lowest terms, so over d = lcm(q, s) the
        # triple is already coprime
        d = q * s // gcd(q, s)
        self.a, self.b, self.d = p * (d // q), r * (d // s), d

    ZERO: "Coeff"
    ONE: "Coeff"

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    def __add__(self, other) -> "Coeff":
        other = _ccoerce(other)
        d1, d2 = self.d, other.d
        if d1 == d2:
            return _reduced(self.a + other.a, self.b + other.b, d1)
        return _reduced(self.a * d2 + other.a * d1,
                        self.b * d2 + other.b * d1, d1 * d2)

    __radd__ = __add__

    def __neg__(self) -> "Coeff":
        return _reduced(-self.a, -self.b, self.d)

    def __sub__(self, other) -> "Coeff":
        other = _ccoerce(other)
        d1, d2 = self.d, other.d
        if d1 == d2:
            return _reduced(self.a - other.a, self.b - other.b, d1)
        return _reduced(self.a * d2 - other.a * d1,
                        self.b * d2 - other.b * d1, d1 * d2)

    def __rsub__(self, other) -> "Coeff":
        return _ccoerce(other) - self

    def __mul__(self, other) -> "Coeff":
        other = _ccoerce(other)
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        return _reduced(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2,
                        self.d * other.d)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Coeff":
        # x / y = x * conj(y) * d_y / (d_x * |a_y + b_y i|^2)
        other = _ccoerce(other)
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        n = a2 * a2 + b2 * b2
        if n == 0:
            raise ZeroDivisionError
        d2 = other.d
        return _reduced((a1 * a2 + b1 * b2) * d2, (b1 * a2 - a1 * b2) * d2,
                        self.d * n)

    def conj(self) -> "Coeff":
        return _reduced(self.a, -self.b, self.d)

    @property
    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    @property
    def is_real(self) -> bool:
        return self.b == 0

    def abs_squared(self) -> Fraction:
        return Fraction(self.a * self.a + self.b * self.b, self.d * self.d)

    def abs_xs(self) -> XS:
        """|a + bi| as an exact surd."""
        return XS.sqrt_of(self.abs_squared())

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Coeff(other)
        if not isinstance(other, Coeff):
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self):
        return hash((self.a, self.b, self.d))

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return "Coeff(%s, %s)" % (self.re, self.im)

    def __str__(self):
        re, im = self.re, self.im
        if im == 0:
            return str(re)
        if re == 0:
            return "%si" % im
        sign = "+" if im > 0 else "-"
        return "%s %s %si" % (re, sign, abs(im))


def _reduced(a: int, b: int, d: int) -> Coeff:
    """The Coeff (a + b*i) / d for integers a, b and d > 0."""
    g = gcd(a, b, d)
    c = object.__new__(Coeff)
    if g == 1:
        c.a, c.b, c.d = a, b, d
    else:
        c.a, c.b, c.d = a // g, b // g, d // g
    return c


def _ccoerce(v) -> Coeff:
    if isinstance(v, Coeff):
        return v
    if isinstance(v, (int, Fraction)):
        return Coeff(v)
    raise TypeError("cannot coerce %r to Coeff" % (v,))


Coeff.ZERO = Coeff(0)
Coeff.ONE = Coeff(1)
