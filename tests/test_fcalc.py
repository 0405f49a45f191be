import decimal
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from cstarpres import bounds, fcalc, repsearch
from cstarpres.bounds import Ival
from cstarpres.exact import Coeff, XS
from cstarpres.fcalc import (MacroError, builtin_registry, exp_bounds,
                             expand_macro, leq_body, load_registry_file,
                             norm_le_body)
from cstarpres.parser import format_term, parse_term
from cstarpres.presentation import Presentation, Relation, load_presentation
from cstarpres.terms import (NormedSet, adj_nf, gen_nf, geq_operands,
                             geq_zero_body, match_geq_body, star)
from cstarpres.tietze import (AddRelations, MoveError, apply_move,
                              lemma_citation)


def test_exp_bounds_sandwich():
    for q in [Fraction(0), Fraction(1), Fraction(-3), Fraction(7, 2),
              Fraction(-1, 4)]:
        lo, hi = exp_bounds(q)
        assert lo <= hi
        assert float(lo) <= math.exp(float(q)) <= float(hi)
        assert float(hi) - float(lo) < 1e-6


def test_exp_bounds_of_large_arguments_halve(reg):
    # above 32 the bounds come from squaring the halves' bounds; checked
    # against 90-digit decimal exponentials, correctly rounded
    slack = Fraction(1, 10 ** 80)
    for q in [Fraction(33), Fraction(81, 2), Fraction(100), Fraction(-77),
              Fraction(22026), Fraction(10 ** 6, 3)]:
        lo, hi = exp_bounds(q)
        with decimal.localcontext() as ctx:
            ctx.prec = 90
            want = Fraction((decimal.Decimal(q.numerator)
                             / decimal.Decimal(q.denominator)).exp())
        assert lo <= want * (1 + slack) and want * (1 - slack) <= hi
        assert (hi - lo) / lo < Fraction(1, 10 ** 14)
    with pytest.raises(OverflowError):
        exp_bounds(Fraction(2 ** 20 + 1))
    lo, hi = exp_bounds(Fraction(-2 ** 21))
    assert lo == 0 and hi == exp_bounds(Fraction(-2 ** 20))[1]
    # exp(exp(x)) with cap 6 ran 4 * e^6 Taylor terms before
    g = NormedSet()
    g.add("x", XS(6))
    t = parse_term("exp(exp(x))", g, reg)
    assert float(bounds.norm_bound(t, bounds.Context(g, reg))) > 1.6e175


def test_nested_exp_bounds_stay_small_and_sound(reg):
    # bounds of entire calls are rounded outward to 64-bit dyadics, so
    # nesting exp no longer multiplies the bit size of the bound
    import dataclasses
    import time
    g = NormedSet()
    g.add("x", XS(Fraction(1, 10)))
    fns = fcalc.builtin_functions()
    fns["exp"] = dataclasses.replace(
        fns["exp"],
        range_on=lambda iv, pr: Ival(XS(exp_bounds(iv.lo.lower())[0]),
                                     XS(exp_bounds(iv.hi.upper())[1])),
        norm_majorant=lambda nb, pr: XS(exp_bounds(nb.upper())[1]))
    exact_reg = fcalc.Registry(fns)
    rng = np.random.default_rng(8)
    elapsed = 0.0
    for n in range(1, 5):
        t = parse_term("exp(" * n + "x" + ")" * n, g, reg)
        t0 = time.perf_counter()
        b = bounds.norm_bound(t, bounds.Context(g, reg))
        elapsed += time.perf_counter() - t0
        assert b.b == 0
        den = b.a.denominator
        assert den & (den - 1) == 0, (n, den.bit_length())
        if n <= 2:
            exact = bounds.norm_bound(t, bounds.Context(g, exact_reg))
            assert b.cmp(exact) >= 0
        for _ in range(20):
            d = int(rng.integers(1, 4))
            m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            m *= rng.uniform(0, 0.1) / repsearch.op_norm(m)
            if rng.random() < 0.25:
                m = 0.1 * np.eye(d, dtype=complex)
            val = repsearch.op_norm(
                repsearch.eval_term(repsearch.MatrixRep(d, {"x": m}), t, reg))
            assert val <= float(b) * (1 + 1e-9), (n, val, float(b))
    assert elapsed < 0.5


def test_function_range_maps(reg):
    p = reg.function("p")
    assert p.range_on(Ival(XS(-2), XS(3)), ()) == Ival(XS(0), XS(3))
    sq = reg.function("sqrt")
    assert sq.range_on(Ival(XS(1), XS(4)), ()) == Ival(XS(1), XS(2))
    iv = sq.range_on(Ival(XS(0), XS(2)), ())
    assert iv.lo == XS(0) and iv.hi.cmp(XS(0, 1, 2)) >= 0
    inv = reg.function("inv_lb")
    assert inv.range_on(Ival(XS(1), XS(4)), (XS(1),)) == \
        Ival(XS(Fraction(1, 4)), XS(1))
    ex = reg.function("exp")
    got = ex.range_on(Ival(XS(0), XS(1)), ())
    assert float(got.lo) <= 1.0 and math.e <= float(got.hi) <= math.e + 1e-6


def test_exact_values_at_rationals(reg):
    assert reg.exact_value("p", Coeff(Fraction(-2)), ()) == Coeff(0)
    assert reg.exact_value("p", Coeff(Fraction(5, 2)), ()) == Coeff(Fraction(5, 2))
    assert reg.exact_value("sqrt", Coeff(Fraction(9, 4)), ()) == Coeff(Fraction(3, 2))
    assert reg.exact_value("sqrt", Coeff(Fraction(2)), ()) is None
    assert reg.exact_value("inv_lb", Coeff(Fraction(2)), (XS(1),)) == \
        Coeff(Fraction(1, 2))
    assert reg.exact_value("exp", Coeff(Fraction(0)), ()) == Coeff(1)
    assert reg.exact_value("exp", Coeff(Fraction(1)), ()) is None


def test_exp_range_on_a_rational_point_sums_one_series(reg, monkeypatch):
    # the range is the one both ends' series give, bit for bit, and a
    # rational point (whose value e^q is irrational unless q = 0) sums
    # its series once
    ex = reg.function("exp")
    for iv in [Ival.point(XS(Fraction(1, 3))), Ival.point(XS(0)),
               Ival.point(XS(-5)), Ival.point(XS(40)),
               Ival.point(XS(0, 1, 2)), Ival(XS(-1), XS(Fraction(7, 2)))]:
        want = (fcalc._dyadic(exp_bounds(iv.lo.lower())[0], up=False),
                fcalc._dyadic(exp_bounds(iv.hi.upper())[1], up=True))
        got = ex.range_on(iv, ())
        assert (got.lo, got.hi) == (XS(want[0]), XS(want[1])), iv
    calls = []

    def counted(x):
        calls.append(x)
        return exp_bounds(x)
    monkeypatch.setattr(fcalc, "exp_bounds", counted)
    assert reg.exact_value("exp", Coeff(Fraction(1, 3)), ()) is None
    assert calls == [Fraction(1, 3)]


def _rand_q(rng, a: Fraction, b: Fraction) -> Fraction:
    """A rational on a small grid of [a, b], its ends included."""
    n = int(rng.choice([1, 2, 3, 4, 5, 8, 9, 16]))
    return a + (b - a) * Fraction(int(rng.integers(0, n + 1)), n)


def _rand_interval(rng, kind: str, lo: Fraction, hi: Fraction):
    """An interval inside [lo, hi], straddling one or both of its ends,
    or wholly below or above it."""
    w = hi - lo
    below, above = (lo - 2 * w, lo), (hi, hi + 2 * w)
    if kind == "inside":
        ends = [_rand_q(rng, lo, hi), _rand_q(rng, lo, hi)]
    elif kind == "straddling":
        a, b = [(below, (lo, hi)), (below, above), ((lo, hi), above)][
            int(rng.integers(0, 3))]
        ends = [_rand_q(rng, *a), _rand_q(rng, *b)]
    else:
        side = [below, above][int(rng.integers(0, 2))]
        ends = [_rand_q(rng, *side), _rand_q(rng, *side)]
    return min(ends), max(ends)


def test_every_function_symbol_range_encloses_its_scalar_fn(reg, tmp_path):
    """range_on encloses scalar_fn on intervals inside, straddling and
    outside each symbol's window, and every exact value equals scalar_fn."""
    path = tmp_path / "file.reg"
    path.write_text("function bump:\n  piece 0 1 : 50 -100\n"
                    "function hat:\n  piece -1 0 : 1 0 -1\n"
                    "  piece 0 1 : 1 -2\n")
    ext = load_registry_file(str(path), reg)
    third = Fraction(1, 3)
    # (symbol, params, window the intervals are drawn around)
    cases = [("p", (), (0, 2)), ("sqrt", (), (0, 4)),
             ("inv_lb", (XS(third),), (third, 3)),
             ("f_param", (XS(2),), (0, 1)),
             ("f_param", (XS(Fraction(5, 4)),), (0, 1)),
             ("exp", (), (-3, 3)), ("sin", (), (-3, 3)),
             ("cos", (), (-3, 3)), ("bump", (), (0, 1)),
             ("hat", (), (-1, 1))]
    rng = np.random.default_rng(2022)
    for name, params, (wlo, whi) in cases:
        fn = ext.function(name)
        fparams = tuple(float(p) for p in params)
        for k in range(150):
            kind = ("inside", "straddling", "outside")[k % 3]
            lo, hi = _rand_interval(rng, kind, Fraction(wlo), Fraction(whi))
            iv = fn.range_on(Ival(XS(lo), XS(hi)), params)
            for j in range(9):
                t = lo + (hi - lo) * Fraction(j, 8)
                v = fn.scalar_fn(float(t), fparams)
                # the slack covers the float evaluation only
                tol = Fraction(1e-9) * max(1, abs(Fraction(v)))
                where = (name, params, kind, lo, hi, t, v, iv)
                assert iv.lo.cmp(XS(Fraction(v) + tol)) <= 0, where
                assert iv.hi.cmp(XS(Fraction(v) - tol)) >= 0, where
                ev = fn.exact_value(Coeff(t), params)
                if ev is not None:
                    assert ev.im == 0 and abs(ev.re - Fraction(v)) <= tol, \
                        (where, ev)


def test_exact_values_outside_windows_are_clamped(reg, tmp_path):
    # a point outside a symbol's window takes the value at the nearest
    # end, as scalar_fn does
    assert reg.exact_value("inv_lb", Coeff(0), (XS(1),)) == Coeff(1)
    assert reg.exact_value("sqrt", Coeff(-1), ()) == Coeff(0)
    for lam in (XS(2), XS(Fraction(5, 4))):
        assert reg.exact_value("f_param", Coeff(2), (lam,)) == Coeff(0)
        assert reg.exact_value("f_param", Coeff(-1), (lam,)) == Coeff(0)
    assert reg.exact_value("sin", Coeff(0), ()) == Coeff(0)
    assert reg.exact_value("cos", Coeff(0), ()) == Coeff(1)
    assert reg.exact_value("sin", Coeff(1), ()) is None
    assert reg.exact_value("exp", Coeff(0, 1), ()) is None
    # exp above 2^20 has no exact bound, so no exact value either
    assert reg.exact_value("exp", Coeff(2 ** 21), ()) is None
    path = tmp_path / "bump.reg"
    path.write_text("function bump:\n  piece 0 1 : 50 -100\n")
    bump = load_registry_file(str(path), reg).function("bump")
    assert bump.exact_value(Coeff(Fraction(5, 2)), ()) == Coeff(-50)
    assert bump.exact_value(Coeff(-1), ()) == Coeff(50)
    assert bump.range_on(Ival(XS(2), XS(3)), ()) == Ival.point(XS(-50))


def test_macro_expansions_frozen(reg):
    g = NormedSet()
    g.add("x", XS(1))
    x = gen_nf("x")
    assert format_term(geq_zero_body(x * x), g) == \
        "-p(1/2 x x + 1/2 x* x*) + x x"
    assert format_term(norm_le_body(x, XS(0, Fraction(1, 2), 3)), g) == \
        "-p(3/4 x* x - x* x x* x) + 3/4 x* x - x* x x* x"
    got = expand_macro("left_inv", x, XS(1))
    assert [(s, format_term(b, g)) for s, b in got] == \
        [("", "-1 - p(-1 + x* x) + x* x")]
    got = expand_macro("inv", x, XS(2))
    assert [(s, format_term(b, g)) for s, b in got] == \
        [("_l", "-1 - p(-1 + 4 x* x) + 4 x* x"),
         ("_r", "-1 - p(-1 + 4 x x*) + 4 x x*")]
    with pytest.raises(MacroError):
        expand_macro("norm_ge", x, XS(1))
    with pytest.raises(MacroError):
        leq_body(x, x * x)  # x is not self-adjoint


def test_match_geq_body_round_trip(reg):
    g = NormedSet()
    g.add("x", XS(2))
    for text in ["x* x - 1", "1 - x* x", "x + x*"]:
        a = parse_term(text, g, reg)
        body = geq_zero_body(a)
        assert match_geq_body(body) == a
        # a scaled body keeps its scale, and only c == 1 is a plain match
        for c in (Coeff(2), Coeff(Fraction(-1, 3)), Coeff(0, 1)):
            assert geq_operands(body * c) == [(c, a)]
            assert match_geq_body(body * c) is None
    assert match_geq_body(gen_nf("x") * adj_nf("x")) is None
    assert geq_operands(gen_nf("x") * adj_nf("x")) == []


def test_fparam_breakpoint_and_branches(reg):
    s = fcalc._fparam_breakpoint(XS(2))
    assert s == XS(0, Fraction(1, 2), 3)
    fn = reg.function("f_param")
    # first branch is the identity
    assert fn.exact_value(Coeff(Fraction(1, 2)), (XS(2),)) == Coeff(Fraction(1, 2))
    # above the break the decreasing branch hits 0 at 1
    assert fn.exact_value(Coeff(Fraction(1)), (XS(2),)) == Coeff(0)
    lam = 2.0
    sf = (1 - 1 / (lam * lam)) ** 0.5
    f = fn.scalar_fn
    assert abs(f(sf - 1e-9, (lam,)) - f(sf + 1e-9, (lam,))) < 1e-7
    assert f(0.0, (lam,)) == 0.0
    assert f(1.0, (lam,)) == pytest.approx(0.0, abs=1e-12)
    # range over the whole domain is [0, s]
    iv = fn.range_on(Ival(XS(0), XS(1)), (XS(2),))
    assert iv.lo == XS(0)
    assert iv.hi == s
    with pytest.raises(ValueError):
        fn.validate_params((XS(Fraction(1, 2)),))


def _reject(why):
    _reject.counts[why] = _reject.counts.get(why, 0) + 1
    return False


_reject.counts = {}


def _instance_ok(rep, data, registry):
    for req in data.requires:
        if repsearch.op_norm(repsearch.eval_term(rep, req, registry)) > 1e-9:
            return _reject("requires")
    for a in data.positive:
        m = repsearch.eval_term(rep, a, registry)
        if repsearch.op_norm(m - m.conj().T) > 1e-9:
            return _reject("sa")
        if np.linalg.eigvalsh((m + m.conj().T) / 2).min() < -1e-9:
            return _reject("positive")
    for a, cap in data.norm_les:
        if repsearch.op_norm(repsearch.eval_term(rep, a, registry)) > \
                float(cap) + 1e-9:
            return _reject("norm")
    return True


def test_every_schema_validates_on_200_samples(reg):
    """Random matrix models satisfying the hypotheses satisfy the conclusions."""
    rng = np.random.default_rng(20260814)
    worst = 0.0
    for name, schema in sorted(reg.schemata.items()):
        assert schema.sampler is not None, name
        accepted = 0
        attempts = 0
        while accepted < 200:
            attempts += 1
            assert attempts < 1200, "sampler for %s rejects too often" % name
            d = int(rng.integers(2, 7))
            scalars, mats = schema.sampler(rng, d)
            dim = next(iter(mats.values())).shape[0]
            bindings = dict(scalars)
            for v in schema.term_vars:
                bindings[v] = gen_nf(v)
            data = schema.build(bindings, reg)
            rep = repsearch.MatrixRep(dim, mats)
            if not _instance_ok(rep, data, reg):
                continue
            accepted += 1
            for body in data.gives:
                r = repsearch.op_norm(repsearch.eval_term(rep, body, reg))
                worst = max(worst, r)
                assert r < 1e-6, (name, r)
    assert worst < 1e-6


def _cite(p, name, body, schema, mode="strict", registry=None, **bindings):
    """Apply `addrel name := body by fclemma(schema; bindings)` to p."""
    move = AddRelations(Relation(name, body, "derived"),
                        lemma_citation(schema, **bindings))
    return apply_move(p, move, mode, registry or builtin_registry())


def test_lemma_citation_success_and_errors(reg):
    g = NormedSet()
    g.add("x", XS(1))
    x = gen_nf("x")
    p = Presentation("unital", g, (Relation("sa_x", x - star(x)),))
    a = parse_term("1 + x* x", g, reg)
    sq = parse_term("sqrt(1 + x* x) sqrt(1 + x* x) - 1 - x* x", g, reg)
    # 1 + x*x is provably positive: the citation gives its identity
    _, rep = _cite(p, "sq", sq, "sqrt_square", A=a)
    assert rep.notes == ["addrel sq: lemma sqrt_square ok (positive: "
                         "enclosure [1, 2]; self-adjoint (structural))"]
    with pytest.raises(MoveError, match="addrel sq: lemma schema "
                       "'no_such_schema' is not available in this registry"):
        _cite(p, "sq", sq, "no_such_schema")
    _, rep = _cite(p, "sq", sq, "no_such_schema", mode="permissive")
    assert rep.gaps == [("schema-unavailable",
                         "addrel sq: schema 'no_such_schema' not checked")]
    with pytest.raises(MoveError, match=re.escape(
            "addrel sq: schema sqrt_square: missing bindings ['A']")):
        _cite(p, "sq", sq, "sqrt_square")
    # x + x* has an enclosure straddling 0: positivity not dischargeable
    with pytest.raises(MoveError, match="addrel sq: schema sqrt_square: "
                       "positivity side condition not discharged"):
        _cite(p, "sq", sq, "sqrt_square", A=x + star(x))


def test_lemma_citation_requires_matching(reg, corpus):
    p = load_presentation(str(corpus / "idempotent.pres"), reg)
    g = NormedSet(p.gens.items())
    g.add("r", XS(1))
    x, r = gen_nf("x"), gen_nf("r")
    def_r = Relation("def_r", r - fcalc.range_projection_formula(x))
    full = Presentation("unital", g, p.relations + (def_r,))
    # both identities the instance gives: r^2 = r and r* = r
    for body in (r * r - r, star(r) - r):
        _, rep = _cite(full, "proj", body,
                       "projection_from_idempotent_range", P=r, Y=x)
        assert rep.notes == ["addrel proj: lemma "
                             "projection_from_idempotent_range ok (no side "
                             "conditions)"]
    with pytest.raises(MoveError, match="addrel proj: schema "
                       "projection_from_idempotent_range: required relation "
                       "not present in ambient set"):
        _cite(Presentation("unital", g, p.relations), "proj", r * r - r,
              "projection_from_idempotent_range", P=r, Y=x)
    with pytest.raises(MoveError, match="addrel proj: schema "
                       "projection_from_idempotent_range instantiates to a "
                       "different identity"):
        _cite(full, "proj", r - star(r),
              "projection_from_idempotent_range", P=r, Y=x)


def test_user_registry_file(reg, tmp_path):
    path = tmp_path / "user.reg"
    path.write_text(
        "# a clamp function and a trivial schema\n"
        "function clamp01:\n"
        "  domain selfadjoint\n"
        "  piece 0 1 : 0 1\n"
        "\n"
        "schema shift_cancel:\n"
        "  vars A\n"
        "  requires ?A - ?A\n"
        "  gives (?A + 1) - (?A + 1)\n")
    ext = load_registry_file(str(path), reg)
    fn = ext.function("clamp01")
    assert fn is not None
    assert fn.exact_value(Coeff(Fraction(1, 2)), ()) == Coeff(Fraction(1, 2))
    assert ext.schema("shift_cancel") is not None
    assert reg.function("clamp01") is None  # base registry untouched
    bare = ext.without_schemata()
    assert bare.schema("shift_cancel") is None
    assert bare.function("clamp01") is not None
    g = NormedSet()
    g.add("x", XS(1))
    x = gen_nf("x")
    p = Presentation("unital", g, (Relation("z", x - x),))
    _, rep = _cite(p, "t", x - x, "shift_cancel", registry=ext, A=x)
    assert rep.notes == ["addrel t: lemma shift_cancel ok (no side "
                         "conditions)"]
    with pytest.raises(MoveError, match="not available in this registry"):
        _cite(p, "t", x - x, "shift_cancel", registry=reg, A=x)


def test_file_schema_templates_are_parsed_at_load(reg, tmp_path):
    # a call on a placeholder parses, as it does for the self-adjoint
    # terms it takes, and a template may call a function of a later block
    path = tmp_path / "calls.reg"
    path.write_text("schema sq:\n"
                    "  vars A\n"
                    "  positive ?A\n"
                    "  gives sqrt(?A)^2 - ?A\n"
                    "  gives later(?A* ?A) - later(?A ?A*)\n"
                    "function later:\n"
                    "  piece 0 1 : 0 1\n")
    ext = load_registry_file(str(path), reg)
    assert ext.schema("sq").term_vars == ("A",)
    path.write_text("schema bad:\n  vars A\n  gives ?A - sqrt(?A\n")
    with pytest.raises(ValueError, match=r"^registry file: line 3: schema "
                       r"bad: template '\?A - sqrt\(\?A' does not parse"):
        load_registry_file(str(path), reg)


def test_positive_operand_with_imaginary_scalar_is_not_self_adjoint(
        reg, tmp_path):
    # x + i >= 0 holds for x = 1 - i with |x| <= 2, where x* != x; the
    # fact must not make x itself read as positive
    path = tmp_path / "sa.reg"
    path.write_text("schema sa_from_positive:\n"
                    "  vars A\n"
                    "  positive ?A\n"
                    "  gives ?A - ?A*\n")
    ext = load_registry_file(str(path), reg)
    g = NormedSet()
    g.add("x", XS(2))
    x = gen_nf("x")
    p = Presentation("unital", g, (
        Relation("r", geq_zero_body(x + Coeff(0, 1))),))
    ctx = bounds.context_from_relations(g, ext, p.bodies())
    assert bounds.interval(x, ctx) == Ival(XS(-2), XS(2))
    with pytest.raises(MoveError, match="positivity side condition not "
                       "discharged"):
        _cite(p, "sa", x - star(x), "sa_from_positive", registry=ext, A=x)


def test_file_schema_positive_operand_must_be_self_adjoint(reg, tmp_path):
    # x y >= 0 gives x y a nonnegative enclosure; a positive operand must
    # also be self-adjoint modulo the relations, here by a certificate
    path = tmp_path / "swap.reg"
    path.write_text("schema pos_swap:\n"
                    "  vars A\n"
                    "  positive ?A\n"
                    "  gives ?A - ?A*\n")
    ext = load_registry_file(str(path), reg)
    g = NormedSet()
    g.add("x", XS(1))
    g.add("y", XS(1))
    xy = gen_nf("x") * gen_nf("y")
    p = Presentation("unital", g, (Relation("h", geq_zero_body(xy)),))
    _, rep = _cite(p, "s", xy - star(xy), "pos_swap", registry=ext, A=xy)
    assert rep.notes == ["addrel s: lemma pos_swap ok (positive: enclosure "
                         "[0, 1]; self-adjoint (certified))"]


def test_inv_lb_range_clamps_both_ends(reg):
    # inv_lb(a, m) = 1/max(a, m): an argument interval that reaches below m
    # at its top end maps to a point, not to an empty or unbounded range
    g = NormedSet()
    g.add("x", XS(1))
    ctx = bounds.Context(g, reg)
    for text, want in [("inv_lb(x* x, 2)", Fraction(1, 2)),
                       ("inv_lb(x* x - 1, 1)", Fraction(1))]:
        t = parse_term(text, g, reg, check_domains=False)
        assert bounds.interval(t, ctx) == Ival(XS(want), XS(want))


_FUZZ_NAMES = ["f", "g", "h2", "p", "sqrt", "exp", "inv", "norm_le",
               "sqrt_square", "9f", "", "a b", "i"]
_FUZZ_NUMBERS = ["0", "1", "-1", "1/2", "2", "-3/4", "1/0", "a", ":", "0.5"]
_FUZZ_LINES = ["domain positive", "domain selfadjoint", "domain entire",
               "domain", "vars A B", "vars", "requires ?A - ?B",
               "positive ?A", "gives ?A* - ?A", "gives ?C", "bogus 1",
               "piece", "", "# a comment"]


def _fuzz_line(rng) -> str:
    kind = rng.integers(0, 4)
    if kind == 0:
        return "%s %s:" % (("function", "schema")[rng.integers(0, 2)],
                           _FUZZ_NAMES[rng.integers(0, len(_FUZZ_NAMES))])
    if kind == 1:
        return _FUZZ_LINES[rng.integers(0, len(_FUZZ_LINES))]
    # a piece: mostly two ends and a colon, sometimes neither
    nums = [_FUZZ_NUMBERS[k] for k in rng.integers(0, len(_FUZZ_NUMBERS), 5)]
    ends = int(rng.choice([1, 2, 2, 2, 2, 3]))
    colon = " :" if rng.random() < 0.9 else ""
    return "  piece %s%s %s" % (" ".join(nums[:ends]), colon,
                                " ".join(nums[ends:]))


def test_registry_file_fuzz_fails_only_on_a_line(reg, tmp_path):
    """Seeded random registry files either load or raise a ValueError
    that names the offending line; none raises anything else."""
    rng = np.random.default_rng(30)
    path = tmp_path / "fuzz.reg"
    loaded = 0
    for _ in range(2000):
        n = int(rng.integers(1, 7))
        lines = [_fuzz_line(rng) for _ in range(n)]
        if rng.random() < 0.8:
            lines[0] = "function f:" if rng.random() < 0.5 else "schema s:"
        path.write_text("\n".join(lines) + "\n")
        try:
            load_registry_file(str(path), reg)
        except ValueError as e:
            assert str(e).startswith("registry file: line "), (lines, e)
        else:
            loaded += 1
    assert 50 < loaded < 1950
