from fractions import Fraction

import pytest

from cstarpres.exact import Coeff, XS
from cstarpres.terms import (NF, NormedSet, UNIT, adj_nf, augmentation,
                             call_nf, gen_nf, is_selfadjoint, monomial_key,
                             nf_coerce, solve_for, sorted_monomials, star,
                             substitute)


def gens2():
    g = NormedSet()
    g.add("x", XS(1))
    g.add("y", XS(1))
    return g


def test_difference_of_squares():
    x = gen_nf("x")
    one = nf_coerce(1)
    assert (x + one) * (x - one) == x * x - one


def test_cancellation_to_zero():
    x, y = gen_nf("x"), gen_nf("y")
    t = x * Coeff.ZERO + y - y
    assert t.is_zero
    assert len(t) == 0


def test_star_antimultiplicative():
    x, y = gen_nf("x"), gen_nf("y")
    assert star(x * y) == adj_nf("y") * adj_nf("x")
    i1 = nf_coerce(Coeff(Fraction(0), Fraction(1)))
    assert star(i1) == nf_coerce(Coeff(Fraction(0), Fraction(-1)))
    t = x * y - star(y) * Coeff(Fraction(2, 3))
    assert star(star(t)) == t


def test_star_fixes_real_call_on_sa_argument():
    x = gen_nf("x")
    arg = (x + star(x)) * Coeff(Fraction(1, 2))
    t = call_nf("p", arg)
    assert star(t) == t
    assert is_selfadjoint(t)


def test_star_entire_call_passes_through_argument():
    x = gen_nf("x")
    t = call_nf("exp", x)
    assert star(t) == call_nf("exp", adj_nf("x"))


def test_star_is_cached_on_both_sides():
    t = gen_nf("x") * call_nf("exp", gen_nf("y") * gen_nf("x"))
    s = star(t)
    assert star(t) is s and star(s) is t
    assert s == call_nf("exp", adj_nf("x") * adj_nf("y")) * adj_nf("x")
    sa = t + s
    assert star(sa) is sa and is_selfadjoint(sa)
    assert not is_selfadjoint(t)


def test_substitute_kills_affine_relation():
    x, y = gen_nf("x"), gen_nf("y")
    body = x - y * Coeff(2) + nf_coerce(1)
    img = x * Coeff(Fraction(1, 2)) + nf_coerce(Fraction(1, 2))
    assert substitute(body, {"y": img}).is_zero
    assert substitute(x, {}) == x


def test_substitute_through_adjoint_and_calls():
    u, q, x = gen_nf("u"), gen_nf("q"), gen_nf("x")
    assert substitute(x, {"x": u * q}) == u * q
    # x* picks up the star of the image
    assert substitute(adj_nf("x"), {"x": u * q}) == star(u * q)
    t = call_nf("p", x + adj_nf("x"))
    got = substitute(t, {"x": q})
    assert got == call_nf("p", q + adj_nf("q"))


def test_solve_for_linear_monomial():
    x, y = gen_nf("x"), gen_nf("y")
    t = y * y - adj_nf("y") + nf_coerce(Fraction(1, 3))
    # a scaled definition, also by a complex scale
    for c in (Coeff(Fraction(-3, 2)), Coeff(1, 2)):
        assert solve_for((x - t) * c, "x") == t
    # no linear x monomial: x x and x* do not count
    assert solve_for(x * x - adj_nf("x"), "x") is None
    assert solve_for(x - t, "z") is None
    # the solved term may still mention the symbol
    assert solve_for((x - x * y) * Coeff(2), "x") == x * y
    assert solve_for(x - adj_nf("x"), "x") == adj_nf("x")


def test_normalize_idempotent_and_order_insensitive():
    x, y = gen_nf("x"), gen_nf("y")
    a = x * y + y * x - x * y
    b = y * x + x * y - x * y
    assert a == b == y * x


def test_monomial_order_length_lex():
    g = gens2()
    x, y = gen_nf("x"), gen_nf("y")
    t = x * y + y + x * x * y + nf_coerce(5) + adj_nf("x")
    monos = sorted_monomials(t, g)
    assert monos[0] == UNIT
    lens = [len(m) for m in monos]
    assert lens == sorted(lens)
    # gen before adjoint at equal position
    xk = monomial_key(next(iter(x)), {"x": 0, "y": 1})
    xak = monomial_key(next(iter(adj_nf("x"))), {"x": 0, "y": 1})
    assert xk < xak


def test_augmentation_examples():
    x = gen_nf("x")
    assert augmentation(x - x * x, None) == Coeff.ZERO
    mu2 = Coeff(Fraction(4))
    t = nf_coerce(1) - star(x) * x * mu2
    assert augmentation(t, None) == Coeff.ONE
    assert augmentation(NF(), None) == Coeff.ZERO


def test_augmentation_through_calls(reg):
    x = gen_nf("x")
    sa = (x + star(x)) * Coeff(Fraction(1, 2))
    assert augmentation(call_nf("p", sa), reg) == Coeff.ZERO
    assert augmentation(call_nf("exp", x), reg) == Coeff.ONE
    # inv_lb(1 + q, 1) at q = 0 evaluates to 1
    t = call_nf("inv_lb", nf_coerce(1) + star(x) * x, (XS(1),))
    assert augmentation(t, reg) == Coeff.ONE
    # sqrt at 2 has no exact rational value: undetermined, not zero
    t2 = call_nf("sqrt", star(x) * x + nf_coerce(2))
    assert augmentation(t2, reg) is None


def test_normed_set_guards():
    g = gens2()
    with pytest.raises(ValueError):
        g.add("x", XS(1))
    with pytest.raises(ValueError):
        g.add("bad name", XS(1))
    with pytest.raises(ValueError):
        g.add("z", XS(-1))
    assert g.names() == ["x", "y"]
