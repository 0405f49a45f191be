"""Acceptance gate: the eight agreed pass criteria, one test per criterion.

Each test prints a single "[criterion N] PASS" line after all of its
assertions hold, so `pytest -v -s tests/test_acceptance.py` doubles as
the acceptance report.  Stated runtime limits are asserted with
time.perf_counter around the measured work.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from cstarpres import bounds, repsearch, tietze
from cstarpres.exact import XS, Coeff
from cstarpres.fcalc import norm_le_body, two_projection_x_formula
from cstarpres.parser import parse_term, format_term
from cstarpres.presentation import (NormedSet, Presentation, Relation,
                                    canonical_print, load_presentation,
                                    parse_presentation, split,
                                    structural_equal, unitize)
from cstarpres.repsearch import (MatrixRep, SearchConfig, eval_term, op_norm,
                                 search_feasible)
from cstarpres.scripts import check_script
from cstarpres.terms import (NF, ONE, ZERO, adj_nf, augmentation, call_nf,
                             gen_nf, nf_coerce, star)


def _report(n, t0=None, extra=""):
    stamp = "" if t0 is None else " (%.2fs)" % (time.perf_counter() - t0)
    print("[criterion %d] PASS%s%s" % (n, stamp, extra), flush=True)


def test_criterion_1_self_adjoint_chain(corpus, reg):
    t0 = time.perf_counter()
    rep, labels, script = check_script(
        str(corpus / "self_adjoint_to_positive.drv"), "strict", reg)
    elapsed = time.perf_counter() - t0
    assert rep.overall == "PASS"
    assert rep.gap_count == 0
    assert len(rep.steps) == 6
    assert elapsed < 1.0
    _report(1, t0)


def test_criterion_2_norm_pitfall(corpus, reg):
    t0 = time.perf_counter()

    # (a) adjoining (y, 1/4) := x* x under cap f(x) = 1 must be rejected in
    # strict mode: the sound free bound of x* x is 1 > 1/4.
    p = load_presentation(str(corpus / "idempotent_lam1.pres"), reg)
    x = gen_nf("x")
    move = tietze.AddGenerators("y", XS(Fraction(1, 4)), star(x) * x)
    with pytest.raises(tietze.MoveError) as ei:
        tietze.apply_move(p, move, "strict", reg)
    assert "1/4" in str(ei.value)

    # (b) refuting redundancy of x at d = 2: rank-one projection witness
    w = repsearch.refute_redundancy(p, x, 2, SearchConfig(seed=7), reg)
    assert w is not None
    assert w.residual < 1e-8
    assert w.value > 0.5

    # (c) oracle first: scalar representations are x in [-1, 1] with
    # y = x^2; sweeping at step 1e-3 leaves only x ~ 0 feasible.
    grid = [i / 1000.0 for i in range(-1000, 1001)]
    feas_grid = [v for v in grid
                 if abs(v - v * v) < 1e-8 and v * v <= 0.25 + 1e-6]
    assert feas_grid
    assert all(abs(v) < 1e-3 for v in feas_grid)

    pit = load_presentation(str(corpus / "norm_pitfall.pres"), reg)
    seen = 0
    for d in (1, 2):
        res = search_feasible(pit, d, SearchConfig(seed=0, restarts=50), reg)
        for cand in res.feasible:
            seen += 1
            assert op_norm(cand.rep.assign["x"]) < 1e-3
    assert seen >= 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(2, t0, " (%d feasible reps, all ||x|| < 1e-3)" % seen)


def test_criterion_3_left_invertibility_chain(corpus, reg):
    t0 = time.perf_counter()
    drv = str(corpus / "left_inv_chain.drv")

    rep_strict, _, script = check_script(drv, "strict", reg)
    assert rep_strict.overall == "PASS"
    assert rep_strict.gap_count == 0

    # without the schema registry the FCLemma steps are exactly the gaps
    rep_perm, _, _ = check_script(drv, "permissive", reg.without_schemata(),
                                  build_registry=reg)
    assert rep_perm.overall == "PASS"
    gap_steps = {s.index for s in rep_perm.steps if s.gaps}
    fc_steps = {i + 1 for i, st in enumerate(script.steps)
                if st.just_kind == "fclemma"}
    assert gap_steps == fc_steps
    kinds = {k for s in rep_perm.steps for k, _ in s.gaps}
    assert kinds == {"schema-unavailable"}

    end = load_presentation(str(corpus / "left_inv_end.pres"), reg)
    factors = split(end)
    assert len(factors) == 2
    by_gen = {f.gens.names()[0]: f for f in factors}
    f_q = parse_presentation(
        "flavor: unital\ngenerators:\n  q : 2\nrelations:\n"
        "  geq_muq : q - 1 >= 0\n", reg)
    f_u = parse_presentation(
        "flavor: unital\ngenerators:\n  u : 2\nrelations:\n"
        "  isom_u : u* u = 1\n", reg)
    assert structural_equal(by_gen["q"], f_q)
    assert structural_equal(by_gen["u"], f_u)

    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(3, t0)


def test_criterion_4_idempotent_chain(corpus, reg):
    t0 = time.perf_counter()
    drv = str(corpus / "idempotent_to_projections.drv")
    rep, _, _ = check_script(drv, "permissive", reg)
    assert rep.overall == "PASS"
    gaps = {s.index: [k for k, _ in s.gaps] for s in rep.steps if s.gaps}
    assert gaps == {1: ["unverified-norm-gap"],
                    2: ["unverified-norm-gap"],
                    12: ["unverified-norm-gap"]}

    # the norm_le sugar expands to the positivity body of c^2 a*a - (a*a)^2
    two = load_presentation(str(corpus / "two_projections.pres"), reg)
    r, k = gen_nf("r"), gen_nf("k")
    assert two.relation("nrm_rk").body == \
        norm_le_body(r * k, XS(0, Fraction(1, 2), 3))

    res = search_feasible(two, 2, SearchConfig(seed=0), reg)
    assert res.feasible
    assert res.best.residual < 1e-8

    # reconstruct the original idempotent from the projection pair
    formula = two_projection_x_formula(r, k, XS(2), XS(Fraction(1, 8)))
    X = eval_term(res.best.rep, formula, reg)
    assert op_norm(X @ X - X) < 1e-6

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(4, t0, " (||x^2 - x|| = %.2e)" % op_norm(X @ X - X))


def test_criterion_5_unitization(corpus, reg):
    c = load_presentation(str(corpus / "self_adjoint_c.pres"), reg)
    u = unitize(c, reg)
    target = load_presentation(str(corpus / "self_adjoint.pres"), reg)
    assert canonical_print(u) == canonical_print(target)
    _report(5)


def test_criterion_6_bridge(corpus, reg):
    t0 = time.perf_counter()
    p1 = load_presentation(str(corpus / "self_adjoint.pres"), reg)
    p2 = load_presentation(str(corpus / "positive.pres"), reg)
    d1 = {"x": parse_term("2 y - 1", p2.gens, reg)}
    d2 = {"y": parse_term("1/2 x + 1/2", p1.gens, reg)}
    joint, s1, s2 = tietze.bridge(p1, p2, d1, d2, reg, degree=1)
    # one move per generator and per relation: each side adds the other
    # side's generator, then its relation and the dictionary relation of
    # its own generator, so six elementary Tietze moves connect p1 and p2
    assert len(s1.steps) + len(s2.steps) == 6
    for drv in (s1, s2):
        rep = tietze.check_derivation(drv, "strict", reg)
        assert rep.overall == "PASS"
        assert rep.gap_count == 0
    _report(6, t0)


# -- criterion 7: randomized kernel property suites ---------------------------

def _gens_xy():
    g = NormedSet()
    g.add("x", XS(1))
    g.add("y", XS(1))
    return g


def _random_nf(rng, max_deg=3, allow_calls=False, allow_imag=True):
    atoms = [gen_nf("x"), adj_nf("x"), gen_nf("y"), adj_nf("y"), ONE]
    acc = nf_coerce(0)
    for _ in range(rng.integers(1, 5)):
        im = Fraction(int(rng.integers(-9, 10)), 4) if allow_imag \
            else Fraction(0)
        c = Coeff(Fraction(int(rng.integers(-9, 10)), 4), im)
        term = nf_coerce(c)
        for _ in range(rng.integers(0, max_deg + 1)):
            term = term * atoms[rng.integers(0, len(atoms))]
        acc = acc + term
    if allow_calls and rng.random() < 0.2:
        acc = acc + call_nf("exp", acc)
    return acc


def _suite_ring_axioms(rng, reg, n):
    for _ in range(n):
        a = _random_nf(rng)
        b = _random_nf(rng)
        c = _random_nf(rng)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c
        assert a + ZERO == a
        assert a * ONE == a == ONE * a
        assert a - a == ZERO
    return n


def _suite_star_involution(rng, reg, n):
    for _ in range(n):
        a = _random_nf(rng)
        b = _random_nf(rng)
        lam = Coeff(Fraction(int(rng.integers(-9, 10)), 3),
                    Fraction(int(rng.integers(-9, 10)), 3))
        assert star(star(a)) == a
        assert star(a * b) == star(b) * star(a)
        assert star(a + b) == star(a) + star(b)
        assert star(a * lam) == star(a) * lam.conj()
        assert star(call_nf("exp", a)) == call_nf("exp", star(a))
    return n


def _suite_normalize_idempotent(rng, reg, n):
    for _ in range(n):
        parts = [_random_nf(rng, max_deg=2) for _ in range(4)]
        forward = nf_coerce(0)
        for t in parts:
            forward = forward + t
        backward = nf_coerce(0)
        for i in rng.permutation(len(parts)):
            backward = backward + parts[int(i)]
        assert forward == backward
        # rebuilding from the monomial table is the identity
        assert NF(dict(forward)) == forward
    return n


def _suite_print_parse(rng, reg, n):
    gens = _gens_xy()
    for _ in range(n):
        t = _random_nf(rng, allow_calls=True)
        s = format_term(t, gens)
        assert parse_term(s, gens, reg) == t, s
    return n


def _suite_augmentation(rng, reg, n):
    for _ in range(n):
        a = _random_nf(rng)
        b = _random_nf(rng)
        ea, eb = augmentation(a, reg), augmentation(b, reg)
        assert augmentation(a * b, reg) == ea * eb
        assert augmentation(a + b, reg) == ea + eb
    return n


def _suite_certificate_exactness(rng, reg, n):
    gens = _gens_xy()
    names = ("r1", "r2")
    for _ in range(n):
        bodies = {nm: _random_nf(rng, max_deg=2) for nm in names}
        p = Presentation("unital", gens,
                         tuple(Relation(nm, bodies[nm], "assumed")
                               for nm in names))
        summands = []
        target = nf_coerce(0)
        for _ in range(int(rng.integers(1, 4))):
            a = _random_nf(rng, max_deg=1)
            b = _random_nf(rng, max_deg=1)
            nm = names[rng.integers(0, 2)]
            starred = bool(rng.integers(0, 2))
            summands.append((a, nm, starred, b))
            body = star(bodies[nm]) if starred else bodies[nm]
            target = target + a * body * b
        cert = tietze.Certificate(tuple(summands))
        assert tietze.expand_certificate(p, cert) == target
        off = target + nf_coerce(Fraction(1, 10 ** int(rng.integers(1, 9))))
        assert tietze.expand_certificate(p, cert) != off
    return n


def _suite_inverse_pairs(rng, reg, n):
    gens = _gens_xy()
    half = n // 2
    for _ in range(half):
        base = _random_nf(rng, max_deg=2)
        p = Presentation("unital", gens,
                         (Relation("r1", base, "assumed"),))
        a = _random_nf(rng, max_deg=1)
        b = _random_nf(rng, max_deg=1)
        cert = tietze.Certificate(((a, "r1", False, b),))
        add = tietze.AddRelations(
            Relation("extra", a * base * b, "derived"), cert)
        q, _ = tietze.apply_move(p, add, "strict", reg)
        back, _ = tietze.apply_move(
            q, tietze.RemoveRelations("extra", cert), "strict", reg)
        assert structural_equal(back, p)
    for _ in range(n - half):
        p = Presentation("unital", gens, ())
        defining = _random_nf(rng, max_deg=2)
        ctx = bounds.context_from_relations(p.gens, reg, p.bodies())
        # caps must be rational or sqrt(rational); round the bound up
        cap = XS(math.floor(float(bounds.norm_bound(defining, ctx))) + 1)
        add = tietze.AddGenerators("z", cap, defining)
        q, _ = tietze.apply_move(p, add, "strict", reg)
        back, _ = tietze.apply_move(
            q, tietze.RemoveGenerators("z", "def_z"), "strict", reg)
        assert structural_equal(back, p)
    return n


def _random_rep(rng, d, gens):
    assign = {}
    for s in gens.names():
        m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        scale = float(gens.norm(s)) * float(rng.uniform(0.2, 1.0))
        assign[s] = m * (scale / max(op_norm(m), 1e-12))
    return MatrixRep(d, assign)


def _suite_spectral_soundness(rng, reg, n):
    gens = _gens_xy()
    ctx = bounds.Context(gens, reg)
    for _ in range(n):
        d = int(rng.integers(1, 5))
        rep = _random_rep(rng, d, gens)
        t = _random_nf(rng)
        val = eval_term(rep, t, reg)
        assert op_norm(val) <= float(bounds.norm_bound(t, ctx)) + 1e-6
        s = t + star(t)
        ival = bounds.interval(s, ctx)
        eigs = np.linalg.eigvalsh(eval_term(rep, s, reg))
        assert float(ival.lo) - 1e-6 <= eigs.min()
        assert eigs.max() <= float(ival.hi) + 1e-6
    return n


def _suite_eval_homomorphism(rng, reg, n):
    gens = _gens_xy()
    for _ in range(n):
        rep = _random_rep(rng, 3, gens)
        a = _random_nf(rng)
        b = _random_nf(rng)
        ea, eb = eval_term(rep, a, reg), eval_term(rep, b, reg)
        assert op_norm(eval_term(rep, a * b, reg) - ea @ eb) < 1e-8
        assert op_norm(eval_term(rep, a + b, reg) - (ea + eb)) < 1e-8
        assert op_norm(eval_term(rep, star(a), reg)
                       - ea.conj().T) < 1e-8
    return n


def test_criterion_7_kernel_property_suites(reg):
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260814)
    total = 0
    total += _suite_ring_axioms(rng, reg, 1500)
    total += _suite_star_involution(rng, reg, 750)
    total += _suite_normalize_idempotent(rng, reg, 750)
    total += _suite_print_parse(rng, reg, 1500)
    total += _suite_augmentation(rng, reg, 1500)
    total += _suite_certificate_exactness(rng, reg, 1000)
    total += _suite_inverse_pairs(rng, reg, 1000)
    total += _suite_spectral_soundness(rng, reg, 1000)
    total += _suite_eval_homomorphism(rng, reg, 1000)
    assert total == 10000
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _report(7, t0, " (%d cases)" % total)


def test_criterion_8_sandwich_on_corpus(corpus, reg):
    t0 = time.perf_counter()
    cfg = SearchConfig(seed=0, restarts=3)
    checked = 0
    for path in sorted(corpus.glob("*.pres")):
        p = load_presentation(str(path), reg)
        ctx = bounds.context_from_relations(p.gens, reg, p.bodies())
        terms = [gen_nf(s) for s in p.gens.names()]
        terms += [r.body for r in p.relations]
        for t in terms:
            ub = float(bounds.norm_bound(t, ctx))
            lb, _ = repsearch.norm_lower_bound(p, t, 2, cfg, reg)
            assert lb <= ub + 1e-6, (path.name, format_term(t, p.gens))
            checked += 1
    assert checked >= 20
    _report(8, t0, " (%d pairs)" % checked)
