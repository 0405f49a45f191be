import collections
import random
from fractions import Fraction

import pytest

from cstarpres import fcalc, tietze
from cstarpres.exact import XS, Coeff
from cstarpres.parser import parse_term
from cstarpres.presentation import (Presentation, Relation,
                                    load_presentation, parse_presentation,
                                    structural_equal)
from cstarpres.terms import (NF, UNIT, NormedSet, adj, adj_nf, call_nf, gen,
                             gen_nf, geq_zero_body, monomial_key, nf_coerce,
                             star)
from cstarpres.tietze import (AddGenerators, AddRelations, Certificate,
                              Derivation, MoveError, OraclePending,
                              RemoveGenerators, RemoveRelations, apply_move,
                              check_derivation, expand_certificate,
                              lemma_citation, search_certificate)

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
    assert expand_certificate(p, cert) == star(x) - x


def test_check_certificate_affine(reg):
    g = NormedSet()
    g.add("x", XS(1))
    g.add("y", XS(1))
    x, y = gen_nf("x"), gen_nf("y")
    body = y - x * Fraction(1, 2) - nf_coerce(Fraction(1, 2))
    p = Presentation("unital", g, (Relation("r2", body, "axiom"),))
    target = x - y * 2 + ONE
    cert = Certificate(((nf_coerce(-2), "r2", False, ONE),))
    assert expand_certificate(p, cert) == target
    # the kernel is exact: a nearby coefficient is just wrong
    off = Certificate(((nf_coerce(Fraction(-199, 100)), "r2", False, ONE),))
    assert expand_certificate(p, off) != target


def test_no_certificate_for_foreign_target(reg):
    p = sa_pres()
    g = NormedSet()
    g.add("x", XS(1))
    g.add("y", XS(1))
    y = gen_nf("y")
    bogus = Certificate(((ONE, "r1", False, ONE),))
    assert expand_certificate(p, bogus) != y
    rels = [(r.name, r.body) for r in p.relations]
    assert search_certificate(rels, y, g, max_degree=2) is None


def test_expand_certificate_unknown_relation(reg):
    p = sa_pres()
    cert = Certificate(((ONE, "ghost", False, ONE),))
    with pytest.raises(MoveError):
        expand_certificate(p, cert)


def test_starred_summands(reg):
    g = NormedSet()
    g.add("x", XS(1))
    x = gen_nf("x")
    body = x - x * x  # not star-fixed
    p = Presentation("unital", g, (Relation("idem", body, "axiom"),))
    target = star(body)
    cert = Certificate(((ONE, "idem", True, ONE),))
    assert expand_certificate(p, cert) == target
    found = search_certificate([("idem", body)], target, g, max_degree=1)
    assert found is not None
    assert expand_certificate(p, found) == target


def test_search_certificate_degree_budget(reg):
    p = sa_pres()
    x = gen_nf("x")
    rels = [(r.name, r.body) for r in p.relations]
    target = x * (x - star(x))
    assert search_certificate(rels, target, p.gens, max_degree=0) is None
    cert = search_certificate(rels, target, p.gens, max_degree=1)
    assert cert is not None
    assert expand_certificate(p, cert) == target


def test_search_is_deterministic(reg):
    p = sa_pres()
    x = gen_nf("x")
    rels = [(r.name, r.body) for r in p.relations]
    target = (x - star(x)) * Fraction(3) + x * (x - star(x)) * star(x)
    a = search_certificate(rels, target, p.gens, max_degree=2)
    b = search_certificate(rels, target, p.gens, max_degree=2)
    assert a == b and a is not None
    assert expand_certificate(p, a) == target


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

    cert = search_certificate(rels, body["planted"], p.gens, max_degree=1)
    assert cert.summands == (
        (term("1"), "r1", False, term("y")),
        (term("2/3 y"), "r1", True, term("1")),
    )
    target = (term("(1 + 2i) x") * body["r2"]
              + body["r3"] * term("3/2 i y* - x") + star(body["r1"]) * term("y"))
    cert = search_certificate(rels, target, p.gens, max_degree=1)
    assert cert.summands == (
        (term("-1"), "r3", False, term("x")),
        (term("1"), "r1", True, term("y")),
        (term("3/2 i"), "r3", False, term("y*")),
        (term("(1 + 2i) x"), "r2", False, term("1")),
    )
    assert expand_certificate(p, cert) == target


# -- the search against a reference elimination -------------------------------

def _words_upto(gens, degree):
    """Every word of length <= degree in the generator letters, sorted by
    `monomial_key`."""
    atoms = [a for s in gens.names() for a in (gen(s), adj(s))]
    sym_index = {s: i for i, s in enumerate(gens.names())}
    words = [UNIT]
    layer = [UNIT]
    for _ in range(degree):
        layer = [w + (a,) for w in layer for a in atoms]
        words.extend(layer)
    words.sort(key=lambda m: monomial_key(m, sym_index))
    return words


def _reference_search_certificate(relations, target, gens,
                                  max_degree=1, max_candidates=6000):
    """The search as it was before monomials were integer-coded: it orders
    monomials by `monomial_key` and carries every combination along.  Its
    one change is the budget marker, where it used to return None."""
    if target.is_zero:
        return Certificate(())
    sym_index = {s: i for i, s in enumerate(gens.names())}
    pivots = {}
    mono_order = {}

    def key_of(m):
        k = mono_order.get(m)
        if k is None:
            k = monomial_key(m, sym_index)
            mono_order[m] = k
        return k

    def reduce_vec(vec, combo):
        changed = True
        while changed and vec:
            changed = False
            lead = max(vec, key=key_of)
            hit = pivots.get(lead)
            if hit is not None:
                pvec, pcombo = hit
                ratio = vec[lead] / pvec[lead]
                for m, c in pvec.items():
                    nc = vec.get(m, Coeff.ZERO) - ratio * c
                    if nc.is_zero:
                        vec.pop(m, None)
                    else:
                        vec[m] = nc
                for i, c in pcombo.items():
                    nc = combo.get(i, Coeff.ZERO) - ratio * c
                    if nc.is_zero:
                        combo.pop(i, None)
                    else:
                        combo[i] = nc
                changed = True
        return vec, combo

    candidates = []
    rel_list = list(relations)
    star_bodies = [star(body) for _, body in rel_list]
    for degree in range(max_degree + 1):
        words = _words_upto(gens, degree)
        new = []
        for wa in words:
            for wb in words:
                if len(wa) + len(wb) > degree:
                    continue
                for ri in range(len(rel_list)):
                    new.append((wa, ri, False, wb))
                    if star_bodies[ri] != rel_list[ri][1]:
                        new.append((wa, ri, True, wb))
        new = [c for c in new if len(c[0]) + len(c[3]) == degree]
        if len(candidates) + len(new) > max_candidates:
            return ("budget", degree - 1)
        for cand in new:
            idx = len(candidates)
            candidates.append(cand)
            wa, ri, starred, wb = cand
            body = star_bodies[ri] if starred else rel_list[ri][1]
            vec, combo = reduce_vec({wa + m + wb: c for m, c in body.items()},
                                    {idx: Coeff.ONE})
            if vec:
                lead = max(vec, key=key_of)
                pivots[lead] = (vec, combo)
        bvec, bcombo = reduce_vec(dict(target.items()), {})
        if not bvec:
            summands = []
            for idx, c in sorted(bcombo.items()):
                wa, ri, starred, wb = candidates[idx]
                summands.append((NF({wa: -c}), rel_list[ri][0], starred,
                                 NF({wb: Coeff.ONE})))
            return Certificate(tuple(summands))
    return None


CALLS = ("p(x* x)", "exp(y)", "p(x + x*)")


def _random_search_case(rng, reg):
    """(relations, target, gens, max_degree, max_candidates) with 2 or 3
    generators, Gaussian and negative coefficients, constant terms and a
    call atom in the first relation."""
    names = ("x", "y", "z")[:rng.choice((2, 3))]
    g = NormedSet()
    for s in names:
        g.add(s, XS(1))
    letters = list(names) + [s + "*" for s in names]

    def coeff():
        re = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        im = Fraction(rng.randint(-2, 2), rng.randint(1, 2))
        return Coeff(re, im if rng.random() < 0.4 else 0)

    def word(length):
        return " ".join(rng.choice(letters) for _ in range(length)) or "1"

    def body(with_call):
        t = nf_coerce(coeff()) if rng.random() < 0.4 else nf_coerce(0)
        monos = [word(rng.randint(1, 2)) for _ in range(rng.randint(1, 3))]
        if with_call:
            monos[0] = rng.choice(CALLS) + " " + word(rng.randint(0, 1))
        for m in monos:
            t = t + parse_term(m, g, reg) * coeff()
        return t

    rels = [("r%d" % i, body(i == 0)) for i in range(rng.randint(2, 3))]
    rels = [(n, b) for n, b in rels if not b.is_zero]
    max_degree = rng.choice((0, 1, 1, 2))
    if rng.random() < 0.6:
        # planted: a r b + c s* d, the words of total degree <= max_degree
        target = nf_coerce(0)
        for starred in (False, True):
            left = rng.randint(0, max_degree)
            right = rng.randint(0, max_degree - left)
            _, r = rng.choice(rels)
            target = target + (parse_term(word(left), g, reg) * coeff()
                               * (star(r) if starred else r)
                               * parse_term(word(right), g, reg))
    else:
        target = body(rng.random() < 0.3)
    max_candidates = rng.choice((6000, 6000, 6000, 5, 30, 120))
    return rels, target, g, max_degree, max_candidates


def _decided_by_support(rels, target, g, degree):
    bodies = [b for _, b in rels]
    return not tietze._supported(target, bodies + [star(b) for b in bodies],
                                 g, degree)


def _check_against_reference(rels, target, g, degree, budget=6000):
    """The search's outcome, checked equal to the reference's: "certificate",
    "none" or "budget"."""
    want = _reference_search_certificate(rels, target, g, degree, budget)
    got = search_certificate(rels, target, g, degree, budget)
    if isinstance(want, Certificate):
        assert isinstance(got, Certificate)
        assert got.summands == want.summands
        return "certificate"
    if want is None:
        assert got is None
        return "none"
    assert got == tietze.BudgetExhausted(budget, want[1])
    return "budget"


def test_search_matches_reference_elimination(reg):
    rng = random.Random(20101012)
    outcomes = collections.Counter()
    decided = collections.Counter()  # outcomes the support test settles
    for _ in range(300):
        rels, target, g, degree, budget = _random_search_case(rng, reg)
        outcome = _check_against_reference(rels, target, g, degree, budget)
        outcomes[outcome] += 1
        if _decided_by_support(rels, target, g, degree):
            decided[outcome] += 1
    assert min(outcomes.values()) >= 20 and len(outcomes) == 3, outcomes
    # an unreachable target has no certificate
    assert "certificate" not in decided, decided
    assert decided.total() >= 20 and decided["budget"] >= 5, decided


def test_support_test_keeps_call_atoms_out_of_the_words(reg):
    g = NormedSet()
    g.add("x", XS(1))
    x = gen_nf("x")
    body = x - star(x)
    call = parse_term("p(x* x)", g, reg)
    # p(x* x) x is wa body wb only with the call atom as wa
    target = call * body
    assert _decided_by_support([("sa", body)], target, g, 2)
    assert _check_against_reference([("sa", body)], target, g, 2) == "none"
    # with the call atom inside a relation the same target is reached
    rels = [("sa", body), ("c", call)]
    assert not _decided_by_support(rels, target, g, 1)
    assert _check_against_reference(rels, target, g, 1) == "certificate"


def test_support_test_on_a_unit_monomial(reg):
    g = NormedSet()
    g.add("x", XS(1))
    x = gen_nf("x")
    iso = star(x) * x - ONE  # has a constant term
    # the unit is in iso's support, so only elimination rules it out
    assert not _decided_by_support([("iso", iso)], ONE, g, 1)
    assert _check_against_reference([("iso", iso)], ONE, g, 1) == "none"
    target = iso * 2 - x * iso * star(x)
    assert not _decided_by_support([("iso", iso)], target, g, 2)
    assert (_check_against_reference([("iso", iso)], target, g, 2)
            == "certificate")
    # a body without a constant term never reaches the unit
    sa = x - star(x)
    assert _decided_by_support([("sa", sa)], ONE + x, g, 3)
    assert _check_against_reference([("sa", sa)], ONE + x, g, 3) == "none"


def test_support_test_counts_starred_bodies(reg):
    g = NormedSet()
    g.add("x", XS(1))
    g.add("y", XS(1))
    x, y = gen_nf("x"), gen_nf("y")
    idem = x - x * x  # its star x* - x* x* has all of the target's support
    target = y * star(idem) * Fraction(2, 3)
    assert not tietze._supported(target, [idem], g, 1)
    assert not _decided_by_support([("idem", idem)], target, g, 1)
    assert (_check_against_reference([("idem", idem)], target, g, 1)
            == "certificate")


def test_support_test_at_the_degree_and_budget_edges(reg):
    g = NormedSet()
    g.add("x", XS(1))
    x = gen_nf("x")
    idem = x - x * x
    rels = [("idem", idem)]
    # x idem x needs words of total degree 2
    target = x * idem * x
    assert _decided_by_support(rels, target, g, 1)
    assert _check_against_reference(rels, target, g, 1) == "none"
    assert not _decided_by_support(rels, target, g, 2)
    assert _check_against_reference(rels, target, g, 2) == "certificate"
    # idem and its star: 2 candidates at degree 0 and 8 at degree 1
    unreached = call_nf("exp", x, ())
    assert _decided_by_support(rels, unreached, g, 1)
    assert search_certificate(rels, unreached, g, 1, 10) is None
    assert (search_certificate(rels, unreached, g, 1, 9)
            == tietze.BudgetExhausted(9, 0))
    assert (search_certificate(rels, unreached, g, 1, 1)
            == tietze.BudgetExhausted(1, -1))
    for budget in (1, 9, 10):
        _check_against_reference(rels, unreached, g, 1, budget)

def test_monomial_codes_sort_as_monomial_key(reg, corpus):
    with_calls = 0
    for path in sorted(corpus.iterdir()):
        if not path.name.endswith(".pres"):
            continue
        p = load_presentation(str(path), reg)
        sym_index = {s: i for i, s in enumerate(p.gens.names())}
        bodies = [r.body for r in p.relations]
        bodies += [star(b) for b in bodies]
        code = tietze._monomial_coder(
            [a for b in bodies for m in b for a in m], p.gens)
        words = _words_upto(p.gens, 1)
        monos = list({wa + m + wb for b in bodies for m in b
                      for wa in words for wb in words})
        with_calls += any(a.kind == "call" for m in monos for a in m)
        assert len({code(m) for m in monos}) == len(monos)
        assert (sorted(monos, key=code)
                == sorted(monos, key=lambda m: monomial_key(m, sym_index)))
    assert with_calls >= 2


def test_budget_exhausted_is_its_own_outcome(reg, corpus):
    p = load_presentation(str(corpus / "two_projections.pres"), reg)
    target = p.relation("proj_r").body
    rest = p.with_relations(tuple(r for r in p.relations
                                  if r.name != "proj_r"))
    rels = [(r.name, r.body) for r in rest.relations]
    # 7 + 56 + 336 + 1792 candidates through degree 3, 8960 more at degree 4
    assert search_certificate(rels, target, rest.gens,
                              max_degree=3) is None
    assert (search_certificate(rels, target, rest.gens, max_degree=4)
            == tietze.BudgetExhausted(6000, 3))
    assert tietze.auto_justify(rest, target, reg, degree=4) == OraclePending(
        "candidate budget of 6000 exhausted; searched through degree 3")
    assert tietze.auto_justify(rest, target, reg, degree=3) == OraclePending(
        "no certificate found at degree <= 3")


# -- the positivity/self-adjointness chain, move by move ---------------------

def chain_derivation(reg):
    start = sa_pres()
    x, y = gen_nf("x"), gen_nf("y")
    half = Fraction(1, 2)
    pos_body = geq_zero_body(y)
    steps = (
        AddGenerators("y", XS(1), x * half + nf_coerce(half)),
        AddRelations(Relation("pos_y", pos_body, "derived"),
                     lemma_citation("positive_from_interval", A=y)),
        AddRelations(Relation("def_x", x - y * 2 + ONE, "derived"),
                     Certificate(((nf_coerce(-2), "def_y", False, ONE),))),
        RemoveRelations("def_y",
                        Certificate(((nf_coerce(Fraction(-1, 2)), "def_x",
                                      False, ONE),))),
        RemoveRelations("r1",
                        Certificate(((ONE, "def_x", False, ONE),
                                     (nf_coerce(-1), "def_x", True, ONE),
                                     (nf_coerce(2), "pos_y", False, ONE),
                                     (nf_coerce(-2), "pos_y", True, ONE)))),
        RemoveGenerators("x", "def_x"),
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
        apply_move(p, AddRelations(Relation("r1", x, "axiom"),
                                   OraclePending()), "permissive", reg)
    with pytest.raises(MoveError) as ei:
        apply_move(p, AddRelations(Relation("r9", gen_nf("w"), "axiom"),
                                   OraclePending()), "permissive", reg)
    # the message `validate` gives for the same relation
    assert str(ei.value) == ("addrel r9: relation r9 mentions undeclared "
                             "generator 'w'")


def test_failed_certificate_is_an_error(reg):
    p = sa_pres()
    x = gen_nf("x")
    bad = Certificate(((ONE, "r1", False, ONE),))
    move = AddRelations(Relation("r2", x * x, "axiom"), bad)
    with pytest.raises(MoveError):
        apply_move(p, move, "permissive", reg)


def test_oracle_pending_strict_vs_permissive(reg):
    p = sa_pres()
    x = gen_nf("x")
    move = AddRelations(Relation("r2", x + star(x) - x * 2, "axiom"),
                        OraclePending("to be proved"))
    with pytest.raises(MoveError):
        apply_move(p, move, "strict", reg)
    q, rep = apply_move(p, move, "permissive", reg)
    assert [k for k, _ in rep.gaps] == ["oracle-pending"]
    assert "r2" in q.relation_names()


def test_addgen_norm_gap(reg, corpus):
    p = load_presentation(str(corpus / "idempotent_lam1.pres"), reg)
    x = gen_nf("x")
    move = AddGenerators("y", XS(Fraction(1, 4)), star(x) * x)
    with pytest.raises(MoveError):
        apply_move(p, move, "strict", reg)
    q, rep = apply_move(p, move, "permissive", reg)
    assert [k for k, _ in rep.gaps] == ["unverified-norm-gap"]
    assert q.gens.norm("y") == XS(Fraction(1, 4))


def test_addgen_fresh_symbol_checks(reg):
    p = sa_pres()
    with pytest.raises(MoveError):
        apply_move(p, AddGenerators("x", XS(1), ONE), "strict", reg)
    with pytest.raises(MoveError):
        apply_move(p, AddGenerators("y", XS(1), gen_nf("z")), "strict", reg)


NONUNITAL = ("flavor: non-unital\ngenerators:\n  x : 1\nrelations:\n"
             "  sa_x : x = x*\n")


@pytest.mark.parametrize("move,mode,error", [
    (AddGenerators("y", XS(2), gen_nf("x") + ONE), "strict",
     "addgen y: unital relation in non-unital presentation: def_y has a "
     "unit monomial"),
    (AddGenerators("y", XS(3), call_nf("exp", gen_nf("x"))), "strict",
     "addgen y: unital relation in non-unital presentation: def_y has "
     "augmentation -1"),
    (AddRelations(Relation("z", call_nf("exp", gen_nf("x"))),
                  OraclePending()), "permissive",
     "addrel z: unital relation in non-unital presentation: z has "
     "augmentation 1"),
])
def test_added_relation_passes_the_validate_check(reg, move, mode, error):
    # each move would reach a presentation that `validate` rejects
    p = parse_presentation(NONUNITAL, reg)
    with pytest.raises(MoveError) as ei:
        apply_move(p, move, mode, reg)
    assert str(ei.value) == error


def test_describe_delgen_names_its_relation():
    assert tietze.describe_move(RemoveGenerators("x", "def_x")) \
        == "delgen x via def_x"


def test_delgen_shape_errors(reg):
    g = NormedSet()
    g.add("x", XS(1))
    x = gen_nf("x")
    p = Presentation("unital", g, (Relation("idem", x - x * x, "axiom"),))
    with pytest.raises(MoveError) as ei:
        apply_move(p, RemoveGenerators("x", "idem"), "permissive", reg)
    assert "eliminable" in str(ei.value)
    with pytest.raises(MoveError):
        apply_move(p, RemoveGenerators("x", "nope"), "permissive", reg)


def test_delgen_chain_composes_images(reg):
    g = NormedSet()
    for s in ("x", "y", "z"):
        g.add(s, XS(1))
    x, y, z = gen_nf("x"), gen_nf("y"), gen_nf("z")
    rels = (Relation("def_y", y - z, "axiom"),
            Relation("def_x", x - y * y, "axiom"))
    gz = NormedSet()
    gz.add("z", XS(1))
    d = Derivation(Presentation("unital", g, rels),
                   (RemoveGenerators("x", "def_x"),
                    RemoveGenerators("y", "def_y")),
                   Presentation("unital", gz, ()))
    rep = check_derivation(d, "strict", reg)
    assert rep.overall == "PASS"
    # x := y y, then y := z: the replay composes the substitutions
    assert rep.images == {"x": z * z, "y": z, "z": z}


def test_inverse_pair_relations(reg):
    p = sa_pres()
    x = gen_nf("x")
    body = (x - star(x)) * 2
    cert = Certificate(((nf_coerce(2), "r1", False, ONE),))
    q, _ = apply_move(p, AddRelations(Relation("r2", body, "derived"),
                                      cert), "strict", reg)
    back, _ = apply_move(q, RemoveRelations("r2", cert), "strict", reg)
    assert structural_equal(back, p)


def test_inverse_pair_generators(reg):
    p = sa_pres()
    x = gen_nf("x")
    half = Fraction(1, 2)
    move = AddGenerators("y", XS(1), x * half + nf_coerce(half))
    q, _ = apply_move(p, move, "strict", reg)
    assert q.gens.names() == ["x", "y"]
    back, _ = apply_move(q, RemoveGenerators("y", "def_y"), "strict", reg)
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


def test_auto_simplify_searches_a_settled_relation_once(reg, monkeypatch):
    # a has no certificate, b is half of c, c then has none and defines x:
    # a is searched again only after x is removed, which substitutes y
    # for x in its body
    p = parse_presentation(
        "flavor: unital\ngenerators:\n  x : 1\n  y : 1\nrelations:\n"
        "  a : x x* - x* x\n  b : y - x\n  c : 2 y - 2 x\n", reg)
    searched = []
    inner = tietze.search_certificate

    def counted(relations, target, gens, **kwargs):
        searched.append(target)
        return inner(relations, target, gens, **kwargs)
    monkeypatch.setattr(tietze, "search_certificate", counted)
    q, drv = tietze.auto_simplify(p, reg)
    a, b, c = (r.body for r in p.relations)
    y = gen_nf("y")
    delrel, delgen = drv.steps
    assert isinstance(delrel, RemoveRelations) and delrel.name == "b"
    assert delgen == RemoveGenerators("x", "c")
    assert searched == [a, b, c, y * star(y) - star(y) * y]
    assert q.relations[0].body == searched[-1]


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



def test_bridge_image_over_unknown_symbol(reg, corpus):
    p1 = load_presentation(str(corpus / "self_adjoint.pres"), reg)
    p2 = load_presentation(str(corpus / "positive.pres"), reg)
    d1 = {"x": parse_term("2 y - 1", p2.gens, reg)}
    with pytest.raises(tietze.BridgeError, match="mentions 'z'"):
        tietze.bridge(p1, p2, d1, {"y": gen_nf("z")}, reg)


def test_bridge_source_relation_named_like_a_definition(reg, corpus):
    p1 = parse_presentation(
        "flavor: unital\ngenerators:\n  x : 1\nrelations:\n"
        "  def_y : x = x*\n", reg)
    p2 = load_presentation(str(corpus / "positive.pres"), reg)
    d1 = {"x": parse_term("2 y - 1", p2.gens, reg)}
    d2 = {"y": parse_term("1/2 x + 1/2", p1.gens, reg)}
    with pytest.raises(tietze.BridgeError, match="def_y already taken"):
        tietze.bridge(p1, p2, d1, d2, reg)

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
    move = AddGenerators("z", XS(1), x)
    _, rep = apply_move(p, move, "strict", reg)
    assert rep.status == "ok"
    assert any("addgen z: bound context not converged" in n
               for n in rep.notes)
    _, rep = apply_move(sa_pres(), move, "strict", reg)
    assert not any("not converged" in n for n in rep.notes)


def test_self_adjointness_certified_by_the_ambient_relations(reg):
    # x y is not self-adjoint by structure, but pos - pos* = x y - y* x*
    # is a certificate for it
    g = NormedSet()
    g.add("x", XS(1))
    g.add("y", XS(1))
    xy = gen_nf("x") * gen_nf("y")
    p = Presentation("unital", g, (Relation("pos", geq_zero_body(xy)),))
    move = AddRelations(Relation("t", geq_zero_body(xy), "derived"),
                        lemma_citation("positive_from_interval", A=xy))
    _, rep = apply_move(p, move, "strict", reg)
    assert rep.status == "ok"
    assert len(rep.notes) == 1
    assert rep.notes[0].startswith("addrel t: lemma positive_from_interval "
                                   "ok (positive: enclosure ")
    assert rep.notes[0].endswith("; self-adjoint (certified))")


def test_lemma_builds_a_bound_context_only_for_side_conditions(
        reg, corpus, monkeypatch):
    built = []
    context_for = tietze._context_for

    def counting(p, *args):
        built.append(p)
        return context_for(p, *args)
    monkeypatch.setattr(tietze, "_context_for", counting)
    p = load_presentation(str(corpus / "idempotent.pres"), reg)
    g = NormedSet(p.gens.items())
    g.add("r", XS(1))
    x, r = gen_nf("x"), gen_nf("r")
    p = Presentation("unital", g, p.relations + (
        Relation("def_r", r - fcalc.range_projection_formula(x)),))
    move = AddRelations(Relation("proj", r * r - r, "derived"),
                        lemma_citation("projection_from_idempotent_range",
                                       P=r, Y=x))
    apply_move(p, move, "strict", reg)
    assert built == []
    move = AddRelations(Relation("pos_r", geq_zero_body(r * star(r)),
                                 "derived"),
                        lemma_citation("positive_from_interval",
                                       A=r * star(r)))
    apply_move(p, move, "strict", reg)
    assert built == [p]
