from fractions import Fraction

import pytest

from cstarpres import tietze
from cstarpres.exact import XS, Coeff
from cstarpres.fcalc import geq_zero_body
from cstarpres.parser import parse_term
from cstarpres.presentation import (Presentation, Relation,
                                    load_presentation, parse_presentation,
                                    structural_equal)
from cstarpres.terms import NormedSet, adj_nf, gen_nf, nf_coerce, star
from cstarpres.tietze import (AddGenerators, AddRelations, Certificate,
                              Derivation, MoveError, OraclePending,
                              RemoveGenerators, RemoveRelations, apply_move,
                              check_certificate, check_derivation,
                              expand_certificate, lemma_citation,
                              search_certificate)

ONE = nf_coerce(1)


def sa_pres():
    g = NormedSet()
    g.add("x", XS(1))
    x = gen_nf("x")
    return Presentation("unital", g, (Relation("r1", x - star(x), "axiom"),))


def test_check_certificate_scalar_multiple(reg):
    p = sa_pres()
    x = gen_nf("x")
    cert = Certificate(((nf_coerce(-1), "r1", False, ONE),))
    assert check_certificate(p, cert, star(x) - x, reg)


def test_check_certificate_affine(reg):
    g = NormedSet()
    g.add("x", XS(1))
    g.add("y", XS(1))
    x, y = gen_nf("x"), gen_nf("y")
    body = y - x * Fraction(1, 2) - nf_coerce(Fraction(1, 2))
    p = Presentation("unital", g, (Relation("r2", body, "axiom"),))
    target = x - y * 2 + ONE
    cert = Certificate(((nf_coerce(-2), "r2", False, ONE),))
    assert check_certificate(p, cert, target, reg)
    # the kernel is exact: a nearby coefficient is just wrong
    off = Certificate(((nf_coerce(Fraction(-199, 100)), "r2", False, ONE),))
    assert not check_certificate(p, off, target, reg)


def test_no_certificate_for_foreign_target(reg):
    p = sa_pres()
    g = NormedSet()
    g.add("x", XS(1))
    g.add("y", XS(1))
    y = gen_nf("y")
    bogus = Certificate(((ONE, "r1", False, ONE),))
    assert not check_certificate(p, bogus, y, reg)
    rels = [(r.name, r.body) for r in p.relations]
    assert search_certificate(rels, y, g, reg, max_degree=2) is None


def test_expand_certificate_unknown_relation(reg):
    p = sa_pres()
    cert = Certificate(((ONE, "ghost", False, ONE),))
    with pytest.raises(MoveError):
        expand_certificate(p, cert, reg)


def test_starred_summands(reg):
    g = NormedSet()
    g.add("x", XS(1))
    x = gen_nf("x")
    body = x - x * x  # not star-fixed
    p = Presentation("unital", g, (Relation("idem", body, "axiom"),))
    target = star(body)
    cert = Certificate(((ONE, "idem", True, ONE),))
    assert check_certificate(p, cert, target, reg)
    found = search_certificate([("idem", body)], target, g, reg, max_degree=1)
    assert found is not None
    assert check_certificate(p, found, target, reg)


def test_search_certificate_degree_budget(reg):
    p = sa_pres()
    x = gen_nf("x")
    rels = [(r.name, r.body) for r in p.relations]
    target = x * (x - star(x))
    assert search_certificate(rels, target, p.gens, reg, max_degree=0) is None
    cert = search_certificate(rels, target, p.gens, reg, max_degree=1)
    assert cert is not None
    assert check_certificate(p, cert, target, reg)


def test_search_is_deterministic(reg):
    p = sa_pres()
    x = gen_nf("x")
    rels = [(r.name, r.body) for r in p.relations]
    target = (x - star(x)) * Fraction(3) + x * (x - star(x)) * star(x)
    a = search_certificate(rels, target, p.gens, reg, max_degree=2)
    b = search_certificate(rels, target, p.gens, reg, max_degree=2)
    assert a == b and a is not None
    assert check_certificate(p, a, target, reg)


PLANTED = """flavor: unital
generators:
  x : 1
  y : 1
relations:
  r1 : (-1/2) (y* y) + (-1/4) (x y) + (5/2) (x* x*) = 0
  r2 : (2/2) (y* y) + (3/4) (y x) + (-2/2) (y* x) = 0
  r3 : (-3/2) (y* y*) + (5/3) (x y) + (-1/2) (x* x*) = 0
  planted : (1/1) ((-1/2) (y* y) + (-1/4) (x y) + (5/2) (x* x*)) (y) + (2/3) (y) ((-1/2) (y* y) + (-1/4) (x y) + (5/2) (x* x*))* = 0
"""


def test_pinned_first_found_certificates(reg):
    # summands as found by the Fraction-pair kernel; they pin the candidate
    # order and the elimination, not only the certificate's validity
    p = parse_presentation(PLANTED, reg)
    rels = [(r.name, r.body) for r in p.relations if r.name != "planted"]
    body = {r.name: r.body for r in p.relations}

    def term(text):
        return parse_term(text, p.gens, reg)

    cert = search_certificate(rels, body["planted"], p.gens, reg, max_degree=1)
    assert cert.summands == (
        (term("1"), "r1", False, term("y")),
        (term("2/3 y"), "r1", True, term("1")),
    )
    target = (term("(1 + 2i) x") * body["r2"]
              + body["r3"] * term("3/2 i y* - x") + star(body["r1"]) * term("y"))
    cert = search_certificate(rels, target, p.gens, reg, max_degree=1)
    assert cert.summands == (
        (term("-1"), "r3", False, term("x")),
        (term("1"), "r1", True, term("y")),
        (term("3/2 i"), "r3", False, term("y*")),
        (term("(1 + 2i) x"), "r2", False, term("1")),
    )
    assert check_certificate(p, cert, target, reg)


# -- the positivity/self-adjointness chain, move by move ---------------------

def chain_derivation(reg):
    start = sa_pres()
    x, y = gen_nf("x"), gen_nf("y")
    half = Fraction(1, 2)
    pos_body = geq_zero_body(y, reg)
    steps = (
        AddGenerators((("y", XS(1), x * half + nf_coerce(half)),)),
        AddRelations(((Relation("pos_y", pos_body, "derived"),
                       lemma_citation("positive_from_interval", A=y)),)),
        AddRelations(((Relation("def_x", x - y * 2 + ONE, "derived"),
                       Certificate(((nf_coerce(-2), "def_y", False, ONE),))),)),
        RemoveRelations((("def_y",
                          Certificate(((nf_coerce(Fraction(-1, 2)), "def_x",
                                        False, ONE),))),)),
        RemoveRelations((("r1",
                          Certificate(((ONE, "def_x", False, ONE),
                                       (nf_coerce(-1), "def_x", True, ONE),
                                       (nf_coerce(2), "pos_y", False, ONE),
                                       (nf_coerce(-2), "pos_y", True, ONE)))),)),
        RemoveGenerators((("x", "def_x"),)),
    )
    gy = NormedSet()
    gy.add("y", XS(1))
    end = Presentation("unital", gy, (Relation("pos", pos_body, "axiom"),))
    return Derivation(start, steps, end)


def test_six_step_chain_passes_strict(reg):
    d = chain_derivation(reg)
    rep = check_derivation(d, "strict", reg)
    assert rep.overall == "PASS"
    assert rep.gap_count == 0
    assert len(rep.steps) == 6
    # the recorded image of x lets evaluations translate back
    assert rep.images["x"] == gen_nf("y") * 2 - ONE


def test_chain_breaks_without_def_x(reg):
    d = chain_derivation(reg)
    broken = Derivation(d.start, d.steps[:2] + d.steps[3:], d.claimed_end)
    rep = check_derivation(broken, "strict", reg)
    assert rep.overall == "FAIL"
    # the delrel step cites def_x, which was never added
    assert rep.steps[-1].status == "fail"
    assert "def_x" in rep.steps[-1].notes[0]
    assert "stopped at step 3" in rep.end_note


def test_chain_breaks_without_cleanup_step(reg):
    d = chain_derivation(reg)
    broken = Derivation(d.start, d.steps[:3] + d.steps[4:], d.claimed_end)
    rep = check_derivation(broken, "strict", reg)
    assert rep.overall == "FAIL"
    assert all(s.status == "ok" for s in rep.steps)
    assert "does not match" in rep.end_note


def test_wrong_claimed_end_fails(reg):
    d = chain_derivation(reg)
    rep = check_derivation(Derivation(d.start, d.steps, d.start), "strict", reg)
    assert rep.overall == "FAIL"


def test_end_matching_ignores_relation_names(reg):
    d = chain_derivation(reg)
    renamed = Presentation(
        d.claimed_end.flavor, d.claimed_end.gens,
        tuple(Relation("zz_%d" % i, r.body, r.origin)
              for i, r in enumerate(d.claimed_end.relations)))
    rep = check_derivation(Derivation(d.start, d.steps, renamed), "strict", reg)
    assert rep.overall == "PASS"


# -- move-level errors and gaps ----------------------------------------------

def test_addrel_duplicate_and_unknown_gen(reg):
    p = sa_pres()
    x = gen_nf("x")
    with pytest.raises(MoveError):
        apply_move(p, AddRelations(((Relation("r1", x, "axiom"),
                                     OraclePending()),)), "permissive", reg)
    with pytest.raises(MoveError):
        apply_move(p, AddRelations(((Relation("r9", gen_nf("w"), "axiom"),
                                     OraclePending()),)), "permissive", reg)


def test_failed_certificate_is_an_error(reg):
    p = sa_pres()
    x = gen_nf("x")
    bad = Certificate(((ONE, "r1", False, ONE),))
    move = AddRelations(((Relation("r2", x * x, "axiom"), bad),))
    with pytest.raises(MoveError):
        apply_move(p, move, "permissive", reg)


def test_oracle_pending_strict_vs_permissive(reg):
    p = sa_pres()
    x = gen_nf("x")
    move = AddRelations(((Relation("r2", x + star(x) - x * 2, "axiom"),
                          OraclePending("to be proved")),))
    with pytest.raises(MoveError):
        apply_move(p, move, "strict", reg)
    q, rep = apply_move(p, move, "permissive", reg)
    assert [k for k, _ in rep.gaps] == ["oracle-pending"]
    assert "r2" in q.relation_names()


def test_addgen_norm_gap(reg, corpus):
    p = load_presentation(str(corpus / "idempotent_lam1.pres"), reg)
    x = gen_nf("x")
    move = AddGenerators((("y", XS(Fraction(1, 4)), star(x) * x),))
    with pytest.raises(MoveError):
        apply_move(p, move, "strict", reg)
    q, rep = apply_move(p, move, "permissive", reg)
    assert [k for k, _ in rep.gaps] == ["unverified-norm-gap"]
    assert q.gens.norm("y") == XS(Fraction(1, 4))


def test_addgen_fresh_symbol_checks(reg):
    p = sa_pres()
    with pytest.raises(MoveError):
        apply_move(p, AddGenerators((("x", XS(1), ONE),)), "strict", reg)
    with pytest.raises(MoveError):
        apply_move(p, AddGenerators((("y", XS(1), gen_nf("z")),)), "strict", reg)


def test_delgen_shape_errors(reg):
    g = NormedSet()
    g.add("x", XS(1))
    x = gen_nf("x")
    p = Presentation("unital", g, (Relation("idem", x - x * x, "axiom"),))
    with pytest.raises(MoveError) as ei:
        apply_move(p, RemoveGenerators((("x", "idem"),)), "permissive", reg)
    assert "eliminable" in str(ei.value)
    with pytest.raises(MoveError):
        apply_move(p, RemoveGenerators((("x", "nope"),)), "permissive", reg)


def test_delgen_order_within_move(reg):
    g = NormedSet()
    for s in ("x", "y", "z"):
        g.add(s, XS(1))
    x, y, z = gen_nf("x"), gen_nf("y"), gen_nf("z")
    rels = (Relation("def_y", y - z, "axiom"),
            Relation("def_x", x - y * y, "axiom"))
    p = Presentation("unital", g, rels)
    # x's defining term references y, removed later in the same move
    with pytest.raises(MoveError):
        apply_move(p, RemoveGenerators((("x", "def_x"), ("y", "def_y"))),
                   "strict", reg)
    q, rep = apply_move(p, RemoveGenerators((("y", "def_y"), ("x", "def_x"))),
                        "strict", reg)
    assert q.gens.names() == ["z"]
    assert rep.substitutions["x"] == z * z
    assert rep.substitutions["y"] == z


def test_inverse_pair_relations(reg):
    p = sa_pres()
    x = gen_nf("x")
    body = (x - star(x)) * 2
    cert = Certificate(((nf_coerce(2), "r1", False, ONE),))
    q, _ = apply_move(p, AddRelations(((Relation("r2", body, "derived"),
                                        cert),)), "strict", reg)
    back, _ = apply_move(q, RemoveRelations((("r2", cert),)), "strict", reg)
    assert structural_equal(back, p)


def test_inverse_pair_generators(reg):
    p = sa_pres()
    x = gen_nf("x")
    half = Fraction(1, 2)
    move = AddGenerators((("y", XS(1), x * half + nf_coerce(half)),))
    q, _ = apply_move(p, move, "strict", reg)
    assert q.gens.names() == ["x", "y"]
    back, _ = apply_move(q, RemoveGenerators((("y", "def_y"),)), "strict", reg)
    assert structural_equal(back, p)


# -- auto_simplify -----------------------------------------------------------

def test_auto_simplify_duplicate_relation(reg):
    p = parse_presentation(
        "flavor: unital\ngenerators:\n  x : 1\n  y : 1\nrelations:\n"
        "  a : y - x\n  b : y - x\n", reg)
    q, drv = tietze.auto_simplify(p, reg)
    # one copy goes by certificate, then y - x eliminates a generator
    assert q.relations == ()
    assert len(q.gens.names()) == 1
    rep = check_derivation(drv, "strict", reg)
    assert rep.overall == "PASS" and rep.gap_count == 0


def test_auto_simplify_chain_intermediate(reg):
    p = parse_presentation(
        "flavor: unital\ngenerators:\n  x : 1\n  y : 1\nrelations:\n"
        "  sa_x : x = x*\n  def_y : y = 1/2 x + 1/2\n  def_x : x = 2 y - 1\n",
        reg)
    q, drv = tietze.auto_simplify(p, reg)
    assert len(q.gens.names()) == 1
    rep = check_derivation(drv, "strict", reg)
    assert rep.overall == "PASS" and rep.gap_count == 0


def test_auto_simplify_respects_norm_caps(reg, corpus):
    p = load_presentation(str(corpus / "norm_pitfall.pres"), reg)
    q, drv = tietze.auto_simplify(p, reg)
    # y = x*x cannot be eliminated: its free bound 1 exceeds the cap 1/4
    assert structural_equal(q, p)
    assert drv.steps == ()


def test_auto_simplify_no_redundancy(reg, corpus):
    p = load_presentation(str(corpus / "left_invertible.pres"), reg)
    q, drv = tietze.auto_simplify(p, reg)
    assert structural_equal(q, p)
    assert drv.steps == ()


# -- bridge -------------------------------------------------------------------

def test_bridge_chain_example(reg, corpus):
    p1 = load_presentation(str(corpus / "self_adjoint.pres"), reg)
    p2 = load_presentation(str(corpus / "positive.pres"), reg)
    d1 = {"x": parse_term("2 y - 1", p2.gens, reg)}
    d2 = {"y": parse_term("1/2 x + 1/2", p1.gens, reg)}
    joint, s1, s2 = tietze.bridge(p1, p2, d1, d2, reg)
    assert sorted(joint.gens.names()) == ["x", "y"]
    assert len(joint.relations) == 4
    bodies = [r.body for r in joint.relations]
    assert gen_nf("x") - gen_nf("y") * 2 + ONE in bodies
    assert gen_nf("y") - gen_nf("x") * Fraction(1, 2) - \
        nf_coerce(Fraction(1, 2)) in bodies
    for s in (s1, s2):
        rep = check_derivation(s, "strict", reg)
        assert rep.overall == "PASS"
        assert rep.gap_count == 0


def test_bridge_identity_renames(reg, corpus):
    p = load_presentation(str(corpus / "self_adjoint.pres"), reg)
    joint, s1, s2 = tietze.bridge(p, p, {"x": gen_nf("x")},
                                  {"x": gen_nf("x")}, reg)
    assert joint.gens.names() == ["x", "x_2"]
    x, x2 = gen_nf("x"), gen_nf("x_2")
    bodies = [r.body for r in joint.relations]
    assert x - x2 in bodies and x2 - x in bodies
    for s in (s1, s2):
        rep = check_derivation(s, "strict", reg)
        assert rep.overall == "PASS" and rep.gap_count == 0


def test_bridge_norm_cap_violation(reg, corpus):
    p1 = load_presentation(str(corpus / "self_adjoint.pres"), reg)
    p2 = load_presentation(str(corpus / "positive.pres"), reg)
    d1 = {"x": gen_nf("y") * 3}
    d2 = {"y": parse_term("1/2 x + 1/2", p1.gens, reg)}
    with pytest.raises(tietze.BridgeError):
        tietze.bridge(p1, p2, d1, d2, reg, mode="strict")
    joint, s1, s2 = tietze.bridge(p1, p2, d1, d2, reg, mode="permissive")
    rep = check_derivation(s2, "permissive", reg)
    assert rep.overall == "PASS"
    kinds = sorted(set(k for st in rep.steps for k, _ in st.gaps))
    assert "unverified-norm-gap" in kinds


def test_bridge_requires_total_dictionaries(reg, corpus):
    p1 = load_presentation(str(corpus / "self_adjoint.pres"), reg)
    p2 = load_presentation(str(corpus / "positive.pres"), reg)
    with pytest.raises(tietze.BridgeError):
        tietze.bridge(p1, p2, {}, {"y": gen_nf("x")}, reg)


def test_consistency_of_images_with_evaluation(reg):
    import numpy as np
    from cstarpres import repsearch
    d = chain_derivation(reg)
    rep = check_derivation(d, "strict", reg)
    assert rep.overall == "PASS"
    res = repsearch.search_feasible(d.claimed_end, 2,
                                    repsearch.SearchConfig(restarts=2), reg)
    assert res.feasible
    assign = {g: repsearch.eval_term(res.best.rep, img, reg)
              for g, img in rep.images.items()}
    start_rep = repsearch.MatrixRep(2, assign)
    for r in d.start.relations:
        val = repsearch.eval_term(start_rep, r.body, reg)
        assert repsearch.op_norm(val) < 1e-6


def test_unconverged_bound_context_is_noted(reg):
    # x = y/2, y = x/2 halves both caps on every absorption pass
    g = NormedSet()
    g.add("x", XS(1))
    g.add("y", XS(1))
    x, y = gen_nf("x"), gen_nf("y")
    p = Presentation("unital", g, (
        Relation("rx", x - y * Fraction(1, 2), "axiom"),
        Relation("ry", y - x * Fraction(1, 2), "axiom")))
    move = AddGenerators((("z", XS(1), x),))
    _, rep = apply_move(p, move, "strict", reg)
    assert rep.status == "ok"
    assert any("addgen z: bound context not converged" in n
               for n in rep.notes)
    _, rep = apply_move(sa_pres(), move, "strict", reg)
    assert not any("not converged" in n for n in rep.notes)
