import random
from fractions import Fraction

import pytest

from cstarpres import bounds
from cstarpres.exact import XS
from cstarpres.parser import parse_term
from cstarpres.presentation import load_presentation
from cstarpres.terms import NormedSet, adj_nf, gen_nf, star


def one_gen(f):
    g = NormedSet()
    g.add("x", XS(f))
    return g


def test_square_positivity(reg):
    g = one_gen(3)
    iv = bounds.interval(star(gen_nf("x")) * gen_nf("x"),
                         bounds.Context(g, reg))
    assert iv.lo == XS(0)
    assert iv.hi == XS(9)


def test_sum_triangle(reg):
    g = one_gen(1)
    iv = bounds.interval(gen_nf("x") + adj_nf("x"), bounds.Context(g, reg))
    assert iv.lo == XS(-2)
    assert iv.hi == XS(2)


def test_unit_plus_positive_call(reg):
    g = one_gen(2)
    t = parse_term("1 + p((x - x*)*(x - x*))", g, reg)
    iv = bounds.interval(t, bounds.Context(g, reg))
    assert iv.lo is not None and iv.lo.cmp(XS(1)) >= 0


def test_unit_plus_square_is_invertible(reg):
    g = one_gen(2)
    t = parse_term("1 + (x - x*)*(x - x*)", g, reg)
    iv = bounds.interval(t, bounds.Context(g, reg))
    assert iv.lo == XS(1)
    # wide enough cap above: 1 + (2 + 2)^2
    assert iv.hi is not None and iv.hi.cmp(XS(17)) <= 0


def test_norm_upper_general_term(reg):
    ctx = bounds.Context(one_gen(1), reg)
    x = gen_nf("x")
    assert bounds.norm_bound(x * x - x, ctx).cmp(XS(2)) <= 0
    assert bounds.norm_bound(x * Fraction(0), ctx) == XS(0)
    # scalar norm is exact
    v = bounds.norm_bound(x * 0 + star(x) * 0 + gen_nf("x") * 0, ctx)
    assert v == XS(0)


def test_isometry_fact_tightens_cap(reg, corpus):
    p = load_presentation(str(corpus / "left_inv_end.pres"), reg)
    ctx = bounds.context_from_relations(p.gens, reg, p.bodies())
    # u*u = 1 forces ||u|| = 1 even though the declared cap is 2
    assert ctx.cap("u") == XS(1)


def test_idempotent_sa_gives_unit_interval(reg):
    g = one_gen(2)
    x = gen_nf("x")
    bodies = [x - x * x, x - star(x)]
    ctx = bounds.context_from_relations(g, reg, bodies)
    iv = bounds.interval(x, ctx)
    assert iv.lo == XS(0)
    assert iv.hi == XS(1)


def test_definition_shape_transfers_interval(reg):
    # y := 1/2 x + 1/2 with x self-adjoint of norm <= 1: y lands in [0, 1]
    g = NormedSet()
    g.add("x", XS(1))
    g.add("y", XS(1))
    x, y = gen_nf("x"), gen_nf("y")
    bodies = [x - star(x),
              y - x * Fraction(1, 2) - parse_term("1/2", g, reg)]
    ctx = bounds.context_from_relations(g, reg, bodies)
    iv = bounds.interval(y, ctx)
    assert iv.lo == XS(0)
    assert iv.hi == XS(1)


def test_left_invertible_elem_fact(reg, corpus):
    p = load_presentation(str(corpus / "left_invertible.pres"), reg)
    ctx = bounds.context_from_relations(p.gens, reg, p.bodies())
    x = gen_nf("x")
    # mu = 1: the relation pins the spectrum of x*x above 1; the cap gives 4
    iv = bounds.interval(star(x) * x, ctx)
    assert iv.lo == XS(1)
    assert iv.hi == XS(4)
    # and sqrt(x*x) then sits in [1, 2]
    t = parse_term("sqrt(x* x)", p.gens, reg)
    iv2 = bounds.interval(t, ctx)
    assert iv2.lo == XS(1)
    assert iv2.hi == XS(2)


def test_intervals_never_empty_and_scalars_exact(reg):
    g = one_gen(1)
    t = parse_term("3/4 - 1i x + 1i x*", g, reg)
    # self-adjoint: scalar shift plus i(x* - x)
    iv = bounds.interval(t, bounds.Context(g, reg))
    assert iv.lo == XS(Fraction(-5, 4))
    assert iv.hi == XS(Fraction(11, 4))


def test_sa_mod_facts(reg):
    g = one_gen(2)
    x = gen_nf("x")
    ctx = bounds.context_from_relations(g, reg, [x - star(x)])
    assert bounds.is_sa_mod(x * x + x, ctx)
    assert not bounds.is_sa_mod(x * x - star(x) * Fraction(2), bounds.Context(g, reg))


# -- memo invalidation and the absorption fixpoint ----------------------------

def _queries(ctx):
    x = gen_nf("x")
    return (bounds.interval(x, ctx), bounds.interval(star(x) * x, ctx),
            bounds.norm_bound(x - star(x), ctx), bounds.norm_bound(x * x, ctx))


def _sa(ctx):
    ctx.declare_sa("x")


# (facts before the warm query, the tightening under test)
TIGHTENINGS = {
    "cap": (lambda ctx: None, lambda ctx: ctx.tighten_cap("x", XS(1))),
    "sa": (lambda ctx: None, _sa),
    "sym": (_sa, lambda ctx: ctx.add_fact(gen_nf("x"), bounds.Ival(XS(0), XS(1)))),
    "new elem fact": (lambda ctx: None, lambda ctx: ctx.add_fact(
        star(gen_nf("x")) * gen_nf("x"), bounds.Ival(XS(1), XS(4)))),
    "narrowed elem fact": (
        lambda ctx: ctx.add_fact(star(gen_nf("x")) * gen_nf("x"),
                                      bounds.Ival(XS(0), XS(4))),
        lambda ctx: ctx.add_fact(star(gen_nf("x")) * gen_nf("x"),
                                      bounds.Ival(XS(1), XS(9)))),
}


@pytest.mark.parametrize("kind", sorted(TIGHTENINGS))
def test_memo_is_cleared_by_every_tightening(reg, kind):
    setup, tighten = TIGHTENINGS[kind]
    g = one_gen(2)
    ctx = bounds.Context(g, reg)
    setup(ctx)
    warm = _queries(ctx)
    assert _queries(ctx) == warm and ctx.stats["memo_hits"] >= 4
    version = ctx.version
    tighten(ctx)
    assert ctx.version > version
    cold = bounds.Context(g, reg)
    setup(cold)
    tighten(cold)
    assert _queries(ctx) == _queries(cold) != warm


def test_unchanged_facts_keep_the_memo(reg):
    ctx = bounds.Context(one_gen(2), reg)
    ctx.declare_sa("x")
    ctx.add_fact(gen_nf("x"), bounds.Ival(XS(0), XS(1)))
    ctx.add_fact(gen_nf("x") * gen_nf("x"), bounds.Ival(XS(0), XS(1)))
    version = ctx.version
    ctx.declare_sa("x")
    ctx.tighten_cap("x", XS(3))
    ctx.add_fact(gen_nf("x"), bounds.Ival(XS(-1), XS(2)))
    ctx.add_fact(gen_nf("x") * gen_nf("x"), bounds.Ival(XS(0), XS(2)))
    assert ctx.version == version


def _within(iv, lo, hi):
    return iv.lo.cmp(XS(lo)) >= 0 and iv.hi.cmp(XS(hi)) <= 0


def test_declare_sa_rekeys_element_facts(reg):
    # x* x reads as x x once x is self-adjoint, where the palindromic split
    # alone gives [0, 4]; the fact is found only under its new key
    x = gen_nf("x")
    ctx = bounds.Context(one_gen(2), reg)
    ctx.add_fact(star(x) * x, bounds.Ival(XS(1), XS(4)))
    ctx.declare_sa("x")
    assert _within(bounds.interval(star(x) * x, ctx), 1, 4)
    assert _within(bounds.interval(x * x - 1, ctx), 0, 3)


def test_declare_sa_rekeys_generator_facts(reg):
    # a fact on x* becomes x's own once x is self-adjoint, and the
    # monomial decomposition of 2x + y* y reads it for the x term
    g = one_gen(2)
    g.add("y", XS(1))
    x, y = gen_nf("x"), gen_nf("y")
    ctx = bounds.Context(g, reg)
    ctx.add_fact(star(x), bounds.Ival(XS(1), XS(2)))
    ctx.declare_sa("x")
    assert _within(bounds.interval(x * 2 + star(y) * y, ctx), 2, 5)


def _halving(pairs, names):
    g = NormedSet()
    for s in names:
        g.add(s, XS(1))
    return g, [gen_nf(a) - gen_nf(b) * Fraction(1, 2) for a, b in pairs]


def test_reverse_definition_chain_reaches_fixpoint(reg):
    # x1 = x2/2, ..., x4 = x5/2 listed head first: each pass moves the
    # halving one link down the chain, so three fixed passes stop at 1/8
    names = ["x1", "x2", "x3", "x4", "x5"]
    g, bodies = _halving(list(zip(names, names[1:])), names)
    ctx = bounds.context_from_relations(g, reg, bodies)
    assert ctx.cap("x1") == XS(Fraction(1, 16))
    assert ctx.rounds == 5 and ctx.converged


def test_halving_cycle_stops_at_the_pass_cap(reg):
    # x = y/2, y = x/2 forces x = y = 0, so caps that halve every pass stay
    # sound; the loop must stop at MAX_PASSES and say so
    g, bodies = _halving([("x", "y"), ("y", "x")], ["x", "y"])
    ctx = bounds.context_from_relations(g, reg, bodies)
    assert ctx.converged is False
    assert ctx.rounds == bounds.MAX_PASSES
    assert all(ctx.cap(s).sign() >= 0 for s in ("x", "y"))
    assert ctx.cap("x").cmp(XS(Fraction(1, 2 ** bounds.MAX_PASSES))) <= 0


def test_corpus_contexts_converge_within_three_passes(reg, corpus):
    for path in sorted(corpus.iterdir()):
        if path.name.endswith(".pres"):
            p = load_presentation(str(path), reg)
            ctx = bounds.context_from_relations(p.gens, reg, p.bodies())
            assert ctx.converged and ctx.rounds <= 3, path.name


def test_deep_nests_keep_their_bounds(reg):
    # each p( ) adds one interval level and the recursion has no depth
    # cut-off, so a deep nest is bounded as tightly as a shallow one
    g = one_gen(1)
    for n in (1, 16, 17, 40):
        ctx = bounds.Context(g, reg)
        t = parse_term("p(" * n + "x* x - 1/2" + ")" * n, g, reg)
        assert bounds.interval(t, ctx) == bounds.Ival(XS(0), XS(Fraction(1, 2))), n
        assert bounds.norm_bound(t, ctx) == XS(Fraction(1, 2)), n
    # exp of the non-self-adjoint x goes through norm_bound of its argument
    got = {}
    for n in (1, 17):
        t = parse_term("p(" * n + "exp(x) + exp(x*)" + ")" * n, g, reg)
        got[n] = bounds.interval(t, bounds.Context(g, reg))
    assert got[17] == got[1]


def _context_summary(ctx, keys):
    return (ctx.sa, ctx.caps, ctx.facts, ctx.rounds,
            [bounds.interval(k, ctx) for k in keys])


def test_contexts_do_not_depend_on_relation_order(reg, corpus):
    for path in sorted(corpus.iterdir()):
        if not path.name.endswith(".pres"):
            continue
        p = load_presentation(str(path), reg)
        bodies = p.bodies()
        ctxs = [bounds.context_from_relations(p.gens, reg, bodies)]
        for seed in range(10):
            shuffled = list(bodies)
            random.Random(seed).shuffle(shuffled)
            ctxs.append(bounds.context_from_relations(p.gens, reg, shuffled))
        keys = [k for ctx in ctxs for k in ctx.facts]
        first = _context_summary(ctxs[0], keys)
        for seed, ctx in enumerate(ctxs[1:]):
            assert _context_summary(ctx, keys) == first, (path.name, seed)
