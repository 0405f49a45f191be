import decimal
import random
from fractions import Fraction
from math import gcd

import pytest

from cstarpres.exact import XS, Coeff, sqrt_bounds, xs_add_outward, xs_mul_outward


def test_sqrt_of_perfect_square_factor():
    assert XS.sqrt_of(Fraction(3, 4)) == XS(0, Fraction(1, 2), 3)
    assert XS.sqrt_of(Fraction(4)) == XS(2)
    assert XS.sqrt_of(Fraction(0)) == XS(0)
    assert XS.sqrt_of(Fraction(18)) == XS(0, 3, 2)


def test_sqrt_of_rejects_negative():
    with pytest.raises(ValueError):
        XS.sqrt_of(Fraction(-1))


def test_exact_sign_and_cmp():
    # 1 - sqrt(3)/2 > 1/8 because (7/8)^2 = 49/64 > 3/4 = 48/64
    a = XS(1, Fraction(-1, 2), 3)
    assert a.sign() > 0
    assert a.cmp(XS(Fraction(1, 8))) > 0
    assert a.cmp(XS(Fraction(1, 7))) < 0
    assert XS(0).sign() == 0
    # sqrt(2) + sqrt(2) = 2 sqrt(2) > 2
    s2 = XS.sqrt_of(Fraction(2))
    assert (s2 + s2).cmp(XS(2)) > 0


def test_cmp_decides_radicands_with_a_large_square_factor():
    # 101^2 * 103 keeps its square factor (101 > 97 is not trial-divided),
    # so sqrt(103/10201) is stored as 1/10201*sqrt(1050703), equal in value
    # to sqrt(103)/101 with a different radicand
    y = XS.sqrt_of(Fraction(103, 10201))
    assert y.r == 1050703
    assert (y * 101).cmp(XS.sqrt_of(103)) == 0
    assert (y * 101 + 1).cmp(XS.sqrt_of(103) + 1) == 0
    assert (y * 101).cmp(XS.sqrt_of(103) + Fraction(1, 10 ** 30)) < 0
    assert (XS(1) - y * 101).cmp(XS(1) - XS.sqrt_of(103)) == 0


def test_cmp_agrees_with_float_order_on_mixed_radicands():
    rng = random.Random(5)
    radicands = [2, 3, 5, 6, 7, 103, 1050703, 20402, 12]

    def draw():
        return XS(Fraction(rng.randint(-50, 50), rng.randint(1, 9)),
                  Fraction(rng.randint(-20, 20), rng.randint(1, 9)),
                  rng.choice(radicands))
    for _ in range(3000):
        a, b = draw(), draw()
        fa, fb = float(a), float(b)
        if abs(fa - fb) > 1e-9:
            assert a.cmp(b) == (fa > fb) - (fa < fb), (a, b)
            assert b.cmp(a) == -a.cmp(b)


def test_field_ops_same_radicand():
    s3 = XS.sqrt_of(Fraction(3))
    v = (XS(1) + s3) * (XS(1) - s3)
    assert v == XS(-2)
    assert (s3 * s3) == XS(3)
    assert (XS(1) / (XS(2) - s3)) == XS(2) + s3


def test_outward_rounding_mixed_radicands():
    s2 = XS.sqrt_of(Fraction(2))
    s3 = XS.sqrt_of(Fraction(3))
    up = xs_add_outward(s2, s3, up=True)
    lo = xs_add_outward(s2, s3, up=False)
    true = 2 ** 0.5 + 3 ** 0.5
    assert float(lo) <= true <= float(up)
    up = xs_mul_outward(s2, s3, up=True)
    lo = xs_mul_outward(s2, s3, up=False)
    assert float(lo) <= 6 ** 0.5 <= float(up)
    # same radicand stays exact
    assert xs_mul_outward(s2, s2, up=True) == XS(2)


def test_sqrt_outward_exact_when_possible():
    v = XS(Fraction(3, 4)).sqrt_outward(up=True)
    assert v == XS(0, Fraction(1, 2), 3)
    # surd input falls back to rational bounds around it
    w = (XS(1) + XS.sqrt_of(Fraction(2))).sqrt_outward(up=True)
    assert w.is_rational
    assert float(w) >= (1 + 2 ** 0.5) ** 0.5


def test_sqrt_bounds_sandwich():
    for q in (Fraction(2), Fraction(5, 7), Fraction(101, 3)):
        lo, hi = sqrt_bounds(q)
        assert lo * lo <= q <= hi * hi
        assert hi - lo < Fraction(1, 10 ** 9)


def test_norm_value_predicate():
    assert XS(Fraction(5, 2)).is_norm_value()
    assert XS.sqrt_of(Fraction(3, 4)).is_norm_value()
    assert not (XS(1) + XS.sqrt_of(Fraction(2))).is_norm_value()


def test_coeff_gaussian_rational():
    i = Coeff(Fraction(0), Fraction(1))
    assert i * i == Coeff(Fraction(-1))
    assert i.conj() == Coeff(Fraction(0), Fraction(-1))
    z = Coeff(Fraction(3, 2), Fraction(-1, 3))
    assert z * z.conj() == Coeff(z.re * z.re + z.im * z.im)
    assert (z / z) == Coeff.ONE
    assert Coeff.ONE + Coeff(-1) == Coeff.ZERO
    assert Coeff.ZERO.is_zero


def test_xs_str_forms():
    assert str(XS(Fraction(1, 2)) + XS(0, Fraction(1, 2), 3)) == "1/2+1/2*sqrt(3)"
    assert str(XS(2)) == "2"
    assert str(XS(0, 1, 2)) == "sqrt(2)"


# -- Coeff against a reference on Fraction pairs ------------------------------

def _ref_str(re, im):
    if im == 0:
        return str(re)
    if re == 0:
        return "%si" % im
    return "%s %s %si" % (re, "+" if im > 0 else "-", abs(im))


def _ref_ops(x, y):
    """Every Coeff operation on (re, im) Fraction pairs, done by hand."""
    (a, b), (c, d) = x, y
    out = {"add": (a + c, b + d), "sub": (a - c, b - d),
           "mul": (a * c - b * d, a * d + b * c),
           "neg": (-a, -b), "conj": (a, -b)}
    n = c * c + d * d
    out["div"] = None if n == 0 else ((a * c + b * d) / n, (b * c - a * d) / n)
    return out


def _random_part(rng):
    kind = rng.random()
    if kind < 0.2:
        return Fraction(0)
    if kind < 0.3:
        num = rng.randrange(-2 ** 80, 2 ** 80)
    else:
        num = rng.randrange(-12, 13)
    return Fraction(num, rng.choice((1, 1, 2, 3, 4, 6, 9, 2 ** 70 + 1)))


def _check_coeff(z, re, im):
    assert type(z.re) is Fraction and type(z.im) is Fraction
    assert (z.re, z.im) == (re, im)
    assert z.d > 0 and gcd(z.a, z.b, z.d) == 1
    assert all(type(v) is int for v in (z.a, z.b, z.d))
    assert str(z) == _ref_str(re, im)
    assert repr(z) == "Coeff(%s, %s)" % (re, im)
    assert complex(z) == complex(float(re), float(im))
    assert z.is_zero == (re == 0 and im == 0)
    assert z.is_real == (im == 0)


def test_coeff_matches_fraction_pair_reference():
    rng = random.Random(7)
    for _ in range(2000):
        x, y = (_random_part(rng), _random_part(rng)), \
               (_random_part(rng), _random_part(rng))
        if rng.random() < 0.1:
            y = x
        cx, cy = Coeff(*x), Coeff(*y)
        _check_coeff(cx, *x)
        ref = _ref_ops(x, y)
        _check_coeff(cx + cy, *ref["add"])
        _check_coeff(cx - cy, *ref["sub"])
        _check_coeff(cx * cy, *ref["mul"])
        _check_coeff(-cx, *ref["neg"])
        _check_coeff(cx.conj(), *ref["conj"])
        if ref["div"] is None:
            with pytest.raises(ZeroDivisionError):
                cx / cy
        else:
            _check_coeff(cx / cy, *ref["div"])
        assert cx.abs_squared() == x[0] * x[0] + x[1] * x[1]
        assert type(cx.abs_squared()) is Fraction
        assert (cx == cy) == (x == y)
        if x == y:
            assert hash(cx) == hash(cy)
        # the same value reached another way is the same triple
        again = (cx * cy + cx) - cx * cy
        assert again == cx and hash(again) == hash(cx)
        if x[1] == 0:
            assert cx == x[0]
            if x[0].denominator == 1:
                assert cx == int(x[0])
        else:
            assert cx != x[0]
        # mixed operands coerce ints and Fractions
        _check_coeff(cx + 3, x[0] + 3, x[1])
        _check_coeff(x[0] - cx, 0, -x[1])
        _check_coeff(2 * cx, 2 * x[0], 2 * x[1])


# -- XS against a reference on (Fraction a, Fraction b, r) ---------------------

# radicand -> (m, d) with r = m*m*d as XS stores it: squares of primes up to
# 97 come out, 101^2 * 103 keeps its square factor
_SPLIT = {2: (1, 2), 3: (1, 3), 6: (1, 6), 8: (2, 2), 12: (2, 3),
          18: (3, 2), 50: (5, 2), 103: (1, 103), 1050703: (1, 1050703)}
# the product of two distinct stored radicands, split the same way
_PRODUCT_SPLIT = {
    (2, 3): (1, 6), (2, 6): (2, 3), (3, 6): (3, 2), (2, 103): (1, 206),
    (3, 103): (1, 309), (6, 103): (1, 618), (2, 1050703): (1, 2101406),
    (3, 1050703): (1, 3152109), (6, 1050703): (1, 6304218),
    (103, 1050703): (10403, 1)}  # 103 * 101^2 * 103 is a square


def _ref_norm(a, b, r):
    return (a, Fraction(0), 0) if b == 0 else (a, b, r)


def _ref_xs(a, b, r):
    """The (a, b, r) that XS(a, b, r) stores."""
    if b == 0 or r == 0:
        return _ref_norm(Fraction(a), 0, 0)
    m, d = _SPLIT[r]
    return _ref_norm(Fraction(a), Fraction(b) * m, d)


def _ref_add(x, y):
    (a, b, r), (c, e, s) = x, y
    if b != 0 and e != 0 and r != s:
        return None
    return _ref_norm(a + c, b + e, r or s)


def _ref_mul(x, y):
    (a, b, r), (c, e, s) = x, y
    if b == 0 or e == 0 or r == s:
        return _ref_norm(a * c + b * e * (r or s), a * e + b * c, r or s)
    if a == 0 and c == 0:
        m, d = _PRODUCT_SPLIT[min(r, s), max(r, s)]
        if d == 1:
            return _ref_norm(b * e * m, 0, 0)
        return _ref_norm(Fraction(0), b * e * m, d)
    return None


def _ref_inverse(x):
    a, b, r = x
    n = a * a - b * b * r
    return None if n == 0 else _ref_norm(a / n, -b / n, r)


def _ref_value(x):
    a, b, r = x
    dec = decimal.Decimal
    return (dec(a.numerator) / dec(a.denominator)
            + dec(b.numerator) / dec(b.denominator) * dec(r).sqrt())


def _ref_sign(v):
    # a nonzero value here is far above 1e-60 in size
    return 0 if abs(v) < decimal.Decimal(10) ** -60 else (1 if v > 0 else -1)


def _ref_bounds(x):
    a, b, r = x
    if b == 0:
        return a, a
    slo, shi = sqrt_bounds(Fraction(r))
    lo, hi = a + b * slo, a + b * shi
    return (lo, hi) if b > 0 else (hi, lo)


def _ref_xs_str(x):
    a, b, r = x
    if b == 0:
        return str(a)
    surd = {1: "sqrt(%d)" % r, -1: "-sqrt(%d)" % r}.get(b, "%s*sqrt(%d)" % (b, r))
    if a == 0:
        return surd
    return str(a) + ("" if surd.startswith("-") else "+") + surd


def _check_xs(x, ref):
    a, b, r = ref
    assert all(type(v) is int for v in (x.na, x.nb, x.den, x.r))
    assert x.den > 0 and gcd(x.na, x.nb, x.den) == 1
    assert (x.a, x.b, x.r) == (a, b, r)
    assert type(x.a) is Fraction and type(x.b) is Fraction
    assert str(x) == _ref_xs_str(ref) and repr(x) == "XS(%s)" % _ref_xs_str(ref)
    assert float(x) == float(a) + float(b) * float(r) ** 0.5
    assert x.is_rational == (b == 0)


def _random_xs_args(rng):
    def part():
        if rng.random() < 0.25:
            return Fraction(0)
        return Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 6, 7)))
    return part(), part(), rng.choice(sorted(_SPLIT) + [0])


def test_xs_matches_fraction_reference():
    with decimal.localcontext() as ctx:
        ctx.prec = 100
        _xs_reference_cases(random.Random(11), 3000)


def _xs_reference_cases(rng, n):
    for _ in range(n):
        p, q = _random_xs_args(rng), _random_xs_args(rng)
        if rng.random() < 0.1:
            q = p
        x, y = XS(*p), XS(*q)
        rx, ry = _ref_xs(*p), _ref_xs(*q)
        _check_xs(x, rx)
        _check_xs(-x, _ref_norm(-rx[0], -rx[1], rx[2]))
        s = _ref_add(rx, ry)
        if s is None:
            assert x.try_add(y) is None
            with pytest.raises(ValueError, match="inexact surd addition"):
                x + y
        else:
            _check_xs(x.try_add(y), s)
            _check_xs(x + y, s)
        m = _ref_mul(rx, ry)
        if m is None:
            with pytest.raises(ValueError, match="inexact surd product"):
                x * y
        else:
            _check_xs(x * y, m)
        inv = _ref_inverse(rx)
        if inv is None:
            with pytest.raises(ZeroDivisionError):
                x.inverse()
        else:
            _check_xs(x.inverse(), inv)
        vx, vy = _ref_value(rx), _ref_value(ry)
        assert x.sign() == _ref_sign(vx)
        c = _ref_sign(vx - vy)
        assert x.cmp(y) == c == -y.cmp(x)
        assert (x < y, x <= y, x > y, x >= y) == (c < 0, c <= 0, c > 0, c >= 0)
        lo, hi = x.bounds()
        assert (lo, hi) == _ref_bounds(rx)
        assert type(lo) is Fraction and type(hi) is Fraction
        assert (x.lower(), x.upper()) == (lo, hi)
        for up in (True, False):
            got = xs_add_outward(x, y, up)
            if s is not None:
                _check_xs(got, s)
            else:
                (xl, xh), (yl, yh) = _ref_bounds(rx), _ref_bounds(ry)
                _check_xs(got, _ref_norm(xh + yh if up else xl + yl, 0, 0))
            got = xs_mul_outward(x, y, up)
            if m is not None:
                _check_xs(got, m)
            else:
                (xl, xh), (yl, yh) = _ref_bounds(rx), _ref_bounds(ry)
                prods = [xl * yl, xl * yh, xh * yl, xh * yh]
                _check_xs(got, _ref_norm(max(prods) if up else min(prods), 0, 0))
        # the same value reached two ways is the same quadruple
        assert (x == y) == (rx == ry)
        if x == y:
            assert hash(x) == hash(y)
        if s is not None:
            again = x.try_add(y) - y
            assert again == x and hash(again) == hash(x)
        # (sqrt(103) * sqrt(1050703)) / sqrt(1050703) is 10403 / sqrt(1050703),
        # equal in value to sqrt(103) but stored over the other radicand
        if m is not None and y.sign() != 0 and y.r in (0, x.r):
            again = (x * y) / y
            assert again == x and hash(again) == hash(x)
        if rx[2] == 2:
            twice = XS(p[0], Fraction(p[1]) * _SPLIT[p[2]][0] / 2, 8)
            assert twice == x and hash(twice) == hash(x)
