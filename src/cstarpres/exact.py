"""Exact scalars for the term kernel.

Two kinds of numbers live here:

* ``Coeff`` -- Gaussian rationals, stored as an integer triple
  ``(a + b*i) / d`` in lowest terms.  These are the only coefficients
  normal forms are allowed to carry.

* ``XS`` -- quadratic surds ``a + b*sqrt(r)`` with rational a, b and an
  integer radicand r.  Norm values and spectral-interval endpoints are
  XS values.  XS is closed under negation, multiplication and division;
  addition is exact only when the radicands agree, and the interval
  layer rounds outward when it does not.

``Coeff`` arithmetic is integer arithmetic; ``XS`` is built on
``fractions.Fraction``.  No floats enter any decision made by the checker.
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
    """Exact real scalar of the form a + b*sqrt(r).

    r is an integer >= 2 whenever b != 0, and 0 otherwise.  r may keep a
    square factor (see `_square_split`), so ``==`` is structural and
    ``cmp`` decides value.
    """

    __slots__ = ("a", "b", "r")

    def __init__(self, a: Rat, b: Rat = 0, r: int = 0):
        # Fraction(a) copies a Fraction; the bound engine builds many XS
        if type(a) is not Fraction:
            a = Fraction(a)
        if b != 0 and r > 0:
            m, d = _square_split(r)
            if d == 1:
                a += b * m
                b = _FZERO
                r = 0
            else:
                b = Fraction(b) * m
                r = d
        else:
            b = _FZERO
            r = 0
        self.a, self.b, self.r = a, b, r

    # -- constructors -------------------------------------------------

    @staticmethod
    def sqrt_of(q: Rat) -> "XS":
        """Exact sqrt of a nonnegative rational, as an XS value."""
        q = Fraction(q)
        if q < 0:
            raise ValueError("sqrt of negative rational")
        if q == 0:
            return XS(0)
        # sqrt(p/d) = sqrt(p*d)/d
        return XS(0, Fraction(1, q.denominator), q.numerator * q.denominator)

    # -- predicates ---------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError("not a rational value: %s" % self)
        return self.a

    def is_norm_value(self) -> bool:
        """Norm values are q or sqrt(q): rational, or pure-surd with no
        rational part."""
        return self.b == 0 or self.a == 0

    # -- arithmetic ---------------------------------------------------

    def __neg__(self) -> "XS":
        return XS(-self.a, -self.b, self.r)

    def try_add(self, other: "XS") -> "XS | None":
        """Exact sum, or None when the radicands are incompatible."""
        if self.b == 0:
            return XS(self.a + other.a, other.b, other.r)
        if other.b == 0:
            return XS(self.a + other.a, self.b, self.r)
        if self.r == other.r:
            return XS(self.a + other.a, self.b + other.b, self.r)
        return None

    def __add__(self, other) -> "XS":
        other = _coerce(other)
        s = self.try_add(other)
        if s is None:
            raise ValueError("inexact surd addition; round outward instead")
        return s

    def __sub__(self, other) -> "XS":
        return self + (-_coerce(other))

    def __mul__(self, other) -> "XS":
        other = _coerce(other)
        if self.b == 0 and other.b == 0:
            return XS(self.a * other.a)
        if self.b == 0:
            return XS(self.a * other.a, self.a * other.b, other.r)
        if other.b == 0:
            return XS(other.a * self.a, other.a * self.b, self.r)
        if self.r == other.r:
            return XS(self.a * other.a + self.b * other.b * self.r,
                      self.a * other.b + self.b * other.a, self.r)
        # sqrt(r)*sqrt(s) = sqrt(rs): exact only when one rational part vanishes
        if self.a == 0 and other.a == 0:
            return XS(0, self.b * other.b, self.r * other.r)
        raise ValueError("inexact surd product; round outward instead")

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other) -> "XS":
        return _coerce(other) - self

    def inverse(self) -> "XS":
        if self.b == 0:
            if self.a == 0:
                raise ZeroDivisionError
            return XS(1 / self.a)
        den = self.a * self.a - self.b * self.b * self.r
        if den == 0:
            raise ZeroDivisionError
        return XS(self.a / den, -self.b / den, self.r)

    def __truediv__(self, other) -> "XS":
        return self * _coerce(other).inverse()

    # -- order --------------------------------------------------------

    def sign(self) -> int:
        a, b, r = self.a, self.b, self.r
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return (b > 0) - (b < 0)
        # sign of a + b*sqrt(r), both parts nonzero: compare a^2 vs b^2 r
        sa = 1 if a > 0 else -1
        sb = 1 if b > 0 else -1
        if sa == sb:
            return sa
        return sa if a * a > b * b * r else sb

    def cmp(self, other) -> int:
        other = _coerce(other)
        d = self.try_add(-other)
        if d is not None:
            return d.sign()
        # distinct radicands, both surd parts nonzero: the difference is
        # u + w sqrt(r2) with u = a1 - a2 + b1 sqrt(r1) exact; when u and
        # w sqrt(r2) have opposite signs, the larger square wins
        u = XS(self.a - other.a, self.b, self.r)
        w = -other.b
        su, sw = u.sign(), (w > 0) - (w < 0)
        if su == sw or su == 0:
            return sw
        return su * (u * u).cmp(w * w * other.r)

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
            other = XS(other)
        if not isinstance(other, XS):
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.r == other.r

    def __hash__(self):
        return hash((self.a, self.b, self.r))

    def __abs__(self) -> "XS":
        return -self if self.sign() < 0 else self

    # -- rounding -----------------------------------------------------

    def bounds(self) -> tuple[Fraction, Fraction]:
        """Directed rational bounds lo <= self <= hi."""
        if self.b == 0:
            return self.a, self.a
        slo, shi = sqrt_bounds(Fraction(self.r))
        if self.b > 0:
            return self.a + self.b * slo, self.a + self.b * shi
        return self.a + self.b * shi, self.a + self.b * slo

    def lower(self) -> Fraction:
        return self.bounds()[0]

    def upper(self) -> Fraction:
        return self.bounds()[1]

    def sqrt_outward(self, up: bool) -> "XS":
        """Sound bound for sqrt(self) (self >= 0), exact when possible."""
        if self.sign() < 0:
            raise ValueError("sqrt of negative value")
        if self.b == 0:
            return XS.sqrt_of(self.a)
        q = self.upper() if up else max(self.lower(), Fraction(0))
        lo, hi = sqrt_bounds(q)
        return XS(hi if up else lo)

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * float(self.r) ** 0.5

    def __repr__(self):
        return "XS(%s)" % self

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        parts = []
        if self.a != 0:
            parts.append(str(self.a))
        surd = "sqrt(%d)" % self.r
        if self.b == 1:
            parts.append(surd)
        elif self.b == -1:
            parts.append("-" + surd)
        else:
            parts.append("%s*%s" % (self.b, surd))
        out = parts[0]
        for p in parts[1:]:
            out += p if p.startswith("-") else "+" + p
        return out


def _coerce(v) -> XS:
    if isinstance(v, XS):
        return v
    if isinstance(v, (int, Fraction)):
        return XS(v)
    raise TypeError("cannot coerce %r to XS" % (v,))


def xs_add_outward(x: XS, y: XS, up: bool) -> XS:
    """x + y, exact when representable, otherwise rounded in direction `up`."""
    s = x.try_add(y)
    if s is not None:
        return s
    xb = x.upper() if up else x.lower()
    yb = y.upper() if up else y.lower()
    return XS(xb + yb)


def xs_mul_outward(x: XS, y: XS, up: bool) -> XS:
    try:
        return x * y
    except ValueError:
        xl, xh = x.bounds()
        yl, yh = y.bounds()
        prods = [xl * yl, xl * yh, xh * yl, xh * yh]
        return XS(max(prods) if up else min(prods))


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
        re, im = Fraction(re), Fraction(im)
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
