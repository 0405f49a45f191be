"""Elementary presentation moves with machine-checkable justifications.

Every move is elementary and carries one item: `AddRelations` adds one
relation and `RemoveRelations` drops one; `AddGenerators` adds one
generator with its defining relation def_<sym>, and `RemoveGenerators`
drops one generator through the relation that defines it.  An added
relation must pass `presentation.relation_problems`, the check that
`validate` runs, so a non-unital presentation only gains relations of
augmentation zero.

The kernel accepts two kinds of positive evidence that a relation is
redundant: an exact ideal-membership certificate (a finite sum
sum_i a_i r_i b_i, optionally with starred relations, that normalizes to
the target) and an instance of a registered functional-calculus lemma
schema.  Lemma instances are checked here: the registry (`fcalc`) only
builds a schema's required relations, side conditions and identities
from the citation's bindings, and this module matches the requirements
against the relations in force and discharges the side conditions with
the bound engine.  Oracle-pending markers are admitted in permissive
mode only and always surface in the report.

Norm side conditions on generator moves are discharged with the sound
interval estimator, fed by the relations in force; when the bound is too
wide the move carries an `unverified-norm-gap` marker (an error in
strict mode).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .exact import XS, Coeff
from .terms import (ADJ, NF, Atom, GEN, Monomial, NormedSet, UNIT, atom_key,
                    gen_nf, match_geq_body, nf_coerce, solve_for, star,
                    substitute, valid_ident)
from .presentation import (Presentation, Relation, _fresh, join,
                           relation_problems, structural_equal)
from . import bounds


class MoveError(ValueError):
    pass


# -- justifications ---------------------------------------------------------

@dataclass(frozen=True)
class Certificate:
    """target = sum of a * rel^(optional star) * b."""
    summands: tuple[tuple[NF, str, bool, NF], ...]


@dataclass(frozen=True)
class LemmaCitation:
    schema: str
    bindings: tuple[tuple[str, object], ...]  # var -> NF or XS, sorted by var

    def binding_dict(self) -> dict:
        return dict(self.bindings)


@dataclass(frozen=True)
class OraclePending:
    note: str = ""


def lemma_citation(schema: str, **bindings) -> LemmaCitation:
    return LemmaCitation(schema, tuple(sorted(bindings.items())))


# -- moves -------------------------------------------------------------------

@dataclass(frozen=True)
class AddRelations:
    rel: Relation
    just: object
    kind = "addrel"


@dataclass(frozen=True)
class RemoveRelations:
    name: str
    just: object
    kind = "delrel"


@dataclass(frozen=True)
class AddGenerators:
    sym: str
    cap: XS
    defining: NF  # over the generators already declared
    kind = "addgen"


@dataclass(frozen=True)
class RemoveGenerators:
    sym: str
    via: str  # name of the relation that defines sym
    kind = "delgen"


@dataclass(frozen=True)
class Derivation:
    start: Presentation
    steps: tuple
    claimed_end: Presentation


@dataclass
class StepReport:
    index: int
    kind: str
    detail: str
    status: str = "ok"  # ok | fail
    gaps: list = field(default_factory=list)  # (gap kind, description)
    notes: list = field(default_factory=list)
    substitutions: dict | None = None


@dataclass
class DerivationReport:
    mode: str
    steps: list
    overall: str = "PASS"  # PASS | FAIL
    end_note: str = ""
    images: dict = field(default_factory=dict)  # start generator -> NF

    @property
    def gap_count(self) -> int:
        return sum(len(s.gaps) for s in self.steps)


# -- certificate checking -----------------------------------------------------

def expand_certificate(p: Presentation, cert: Certificate) -> NF:
    acc = nf_coerce(0)
    for a, rel_name, starred, b in cert.summands:
        rel = p.relation(rel_name)
        if rel is None:
            raise MoveError("certificate cites unknown relation %r" % rel_name)
        body = star(rel.body) if starred else rel.body
        acc = acc + a * body * b
    return acc


# -- certificate auto-search ---------------------------------------------------

@dataclass(frozen=True)
class BudgetExhausted:
    """`search_certificate` stopped at its candidate budget: degrees up to
    `searched_degree` were eliminated in full without a certificate, and
    the next degree would have taken the candidate count above `budget`."""
    budget: int
    searched_degree: int  # -1 when degree 0 alone exceeds the budget

    @property
    def note(self) -> str:
        if self.searched_degree < 0:
            return ("candidate budget of %d exhausted before degree 0"
                    % self.budget)
        return ("candidate budget of %d exhausted; searched through degree %d"
                % (self.budget, self.searched_degree))


def _letters(gens: NormedSet) -> list[Atom]:
    """The generator letters s and s* of every generator, in gens order."""
    return [a for s in gens.names() for a in (Atom(GEN, s), Atom(ADJ, s))]


def _monomial_coder(atoms, gens: NormedSet):
    """The integer coding of monomials over `atoms` (plus the generator
    letters) that certificate search eliminates on.

    Atoms are ranked by `terms.atom_key`, and a monomial m is coded as
    (len(m), tuple of its atoms' ranks).  The ranking preserves order and
    is injective, so codes compare exactly as `monomial_key` does, while
    hashing and comparing them runs in C.
    """
    sym_index = {s: i for i, s in enumerate(gens.names())}
    ranked = sorted(set(_letters(gens)).union(atoms),
                    key=lambda a: atom_key(a, sym_index))
    rank = {a: i for i, a in enumerate(ranked)}

    def code(m: Monomial) -> tuple[int, tuple[int, ...]]:
        return len(m), tuple([rank[a] for a in m])
    return code


def _supported(target: NF, bodies, gens: NormedSet, max_degree: int) -> bool:
    """Whether every monomial of `target` is in the support of some
    candidate wa * u * wb: wa and wb are words in the generator letters
    with |wa| + |wb| <= max_degree, and u is a monomial of one of `bodies`."""
    letters = set(_letters(gens))
    support = {m for t in bodies for m in t}
    for m in target:
        n = len(m)
        # the longest prefix and suffix of generator letters a split may use
        pre = 0
        while pre < min(n, max_degree) and m[pre] in letters:
            pre += 1
        suf = 0
        while suf < min(n, max_degree) and m[n - 1 - suf] in letters:
            suf += 1
        if not any(m[i:n - j] in support for i in range(pre + 1)
                   for j in range(min(suf, max_degree - i, n - i) + 1)):
            return False
    return True


def search_certificate(relations, target: NF, gens: NormedSet,
                       max_degree: int = 1, max_candidates: int = 6000
                       ) -> Certificate | BudgetExhausted | None:
    """Bounded-degree ideal-membership search, exact over Gaussian rationals.

    `relations` is (name, body) pairs.  Candidates are wa * body * wb for
    each body and, when it differs, its star, with generator words wa, wb
    of total degree at most max_degree.  They are enumerated lowest degree
    first, then in word order, and reduced one by one by sparse Gaussian
    elimination on the `_monomial_coder` codes, largest monomial first; the
    target is reduced after each degree, and the first-found combination
    is returned as a Certificate.  Eliminations record only their steps;
    the combination is rebuilt from them once the target reduces to zero.
    None means no certificate up to max_degree.  BudgetExhausted means the
    next degree would have taken the candidate count above
    max_candidates; the search stops before eliminating it.

    A support test runs first.  A candidate's monomials are wa + u + wb,
    u a monomial of a body or its star, so a target monomial with no such
    split (a call atom never falls inside wa or wb) is in no candidate's
    support and no combination reaches it.  Such a target has no
    certificate at any degree, so its degrees are only counted against
    the budget, never eliminated.
    """
    if target.is_zero:
        return Certificate(())
    rel_list = list(relations)
    bodies = [body for _, body in rel_list]
    star_bodies = [star(body) for body in bodies]
    n_rels = len(rel_list)
    # (relation index, starred) of each body and each star that differs
    forms = [(ri, starred) for ri in range(n_rels) for starred in (False, True)
             if not starred or star_bodies[ri] is not bodies[ri]]
    supported = _supported(target, bodies + star_bodies, gens, max_degree)
    if supported:
        code = _monomial_coder([a for t in [target] + bodies + star_bodies
                               for m in t for a in m], gens)
        coded = [[(code(m), c) for m, c in
                  (star_bodies if starred else bodies)[ri].items()]
                 for ri, starred in forms]
        tvec = {code(m): c for m, c in target.items()}
    letters = _letters(gens)
    # words[k]: the words of length k with their codes, in word order
    words: list[list] = []

    # pivots: leading code -> (vector, pivot number); origins[number] is
    # (candidate index, elimination steps) with steps (ratio, number) pairs
    pivots: dict[tuple, tuple[dict, int]] = {}
    origins: list[tuple[int, list]] = []

    def reduce_vec(vec: dict):
        """Reduce vec in place; returns its lead (None once zero) and the
        steps taken."""
        steps = []
        while vec:
            lead = max(vec)
            hit = pivots.get(lead)
            if hit is None:
                return lead, steps
            pvec, num = hit
            ratio = vec[lead] / pvec[lead]
            for m, c in pvec.items():
                nc = vec.get(m, Coeff.ZERO) - ratio * c
                if nc.is_zero:
                    vec.pop(m, None)
                else:
                    vec[m] = nc
            steps.append((ratio, num))
        return None, steps

    candidates: list[tuple[Monomial, int, bool, Monomial]] = []
    total = 0
    for degree in range(max_degree + 1):
        # (degree + 1) (2g)^degree word pairs for each form
        total += (degree + 1) * len(letters) ** degree * len(forms)
        if total > max_candidates:
            return BudgetExhausted(max_candidates, degree - 1)
        if not supported:
            continue
        layer = [UNIT] if degree == 0 else [w + (a,) for w, _ in words[-1]
                                            for a in letters]
        words.append([(w, code(w)[1]) for w in layer])
        pairs = [(wa, ca, wb, cb) for la in range(degree + 1)
                 for wa, ca in words[la] for wb, cb in words[degree - la]]
        for wa, ca, wb, cb in pairs:
            for (ri, starred), body in zip(forms, coded):
                idx = len(candidates)
                candidates.append((wa, ri, starred, wb))
                # wa * body * wb: concatenation with fixed words is injective
                vec = {(degree + l, ca + k + cb): c for (l, k), c in body}
                lead, steps = reduce_vec(vec)
                if lead is not None:
                    pivots[lead] = (vec, len(origins))
                    origins.append((idx, steps))
        lead, steps = reduce_vec(dict(tvec))
        if lead is None:
            return Certificate(_summands(steps, origins, candidates,
                                         rel_list))
    return None


def _summands(steps, origins, candidates, rel_list):
    """The certificate of a target reduced to zero by `steps`: each pivot's
    combination over candidates is rebuilt, in pivot order, for the pivots
    the steps reach."""
    need = set()
    stack = [num for _, num in steps]
    while stack:
        num = stack.pop()
        if num not in need:
            need.add(num)
            stack.extend(n for _, n in origins[num][1])
    combos: list = [None] * len(origins)
    for num in sorted(need):
        idx, psteps = origins[num]
        combo = {idx: Coeff.ONE}
        _subtract(combo, psteps, combos)
        combos[num] = combo
    bcombo: dict = {}
    _subtract(bcombo, steps, combos)
    summands = []
    for idx, c in sorted(bcombo.items()):
        wa, ri, starred, wb = candidates[idx]
        summands.append((NF({wa: -c}), rel_list[ri][0], starred,
                         NF({wb: Coeff.ONE})))
    return tuple(summands)


def _subtract(combo: dict, steps: list, combos: list):
    """combo -= sum of ratio * combos[num] over the (ratio, num) steps."""
    for ratio, num in steps:
        for i, c in combos[num].items():
            nc = combo.get(i, Coeff.ZERO) - ratio * c
            if nc.is_zero:
                combo.pop(i, None)
            else:
                combo[i] = nc


# -- justification checking ----------------------------------------------------

def _context_for(p: Presentation, registry, report: StepReport,
                 label: str) -> bounds.Context:
    """The bound context of p's relations; the step report is told when
    absorption stopped at `bounds.MAX_PASSES` short of a fixpoint."""
    ctx = bounds.context_from_relations(p.gens, registry, p.bodies())
    if not ctx.converged:
        report.notes.append(
            "%s: bound context not converged after %d passes (its facts "
            "are sound, possibly not the tightest)" % (label, ctx.rounds))
    return ctx


def _check_justification(ambient: Presentation, target: NF, just, registry,
                         mode: str, label: str, report: StepReport):
    if isinstance(just, Certificate):
        got = expand_certificate(ambient, just)
        if got != target:
            raise MoveError(
                "%s: certificate expands to a different element" % label)
        report.notes.append("%s: certificate ok (%d summands)"
                            % (label, len(just.summands)))
        return
    if isinstance(just, LemmaCitation):
        name = just.schema
        schema = registry.schema(name)
        if schema is None:
            if mode == "strict":
                raise MoveError(
                    "%s: lemma schema %r is not available in this registry"
                    % (label, name))
            report.gaps.append(("schema-unavailable",
                                "%s: schema %r not checked" % (label, name)))
            return
        bindings = just.binding_dict()
        missing = [v for v in schema.term_vars + schema.scalar_vars
                   if v not in bindings]
        if missing:
            raise MoveError("%s: schema %s: missing bindings %s"
                            % (label, name, missing))
        try:
            data = schema.build(bindings, registry)
        except (ValueError, ZeroDivisionError) as e:
            raise MoveError("%s: schema %s: bindings do not build an instance "
                            "(%s)" % (label, name, str(e) or type(e).__name__))
        bodies = set(ambient.bodies())
        if any(req not in bodies for req in data.requires):
            raise MoveError(
                "%s: schema %s: required relation not present in ambient set "
                "(needs a relation with body matching one of the schema "
                "hypotheses)" % (label, name))
        checks = []
        if data.positive or data.norm_les:
            ctx = _context_for(ambient, registry, report, label)
        for a in data.positive:
            iv = bounds.interval(a, ctx)
            if iv.lo.sign() < 0:
                raise MoveError(
                    "%s: schema %s: positivity side condition not discharged; "
                    "enclosure %s" % (label, name, iv))
            checks.append("positive: enclosure %s" % iv)
            if bounds.is_sa_mod(a, ctx):
                checks.append("self-adjoint (structural)")
            elif isinstance(search_certificate(
                    [(r.name, r.body) for r in ambient.relations], a - star(a),
                    ambient.gens, max_degree=1), Certificate):
                checks.append("self-adjoint (certified)")
            else:
                raise MoveError("%s: schema %s: operand not self-adjoint "
                                "modulo ambient relations" % (label, name))
        for a, cap in data.norm_les:
            nb = bounds.norm_bound(a, ctx)
            if nb.cmp(cap) > 0:
                raise MoveError(
                    "%s: schema %s: norm side condition needs <= %s, bound "
                    "gives %s" % (label, name, cap, nb))
            checks.append("norm bound %s <= %s" % (nb, cap))
        if target not in data.gives:
            raise MoveError("%s: schema %s instantiates to a different "
                            "identity" % (label, name))
        report.notes.append("%s: lemma %s ok (%s)"
                            % (label, name,
                               "; ".join(checks) or "no side conditions"))
        return
    if isinstance(just, OraclePending):
        if mode == "strict":
            raise MoveError("%s: oracle-pending is not admissible in strict "
                            "mode" % label)
        report.gaps.append(("oracle-pending", "%s: %s" % (label,
                                                          just.note or "unproven")))
        return
    raise MoveError("%s: unknown justification type %r" % (label, type(just)))


def _norm_condition(sym: str, cap: XS, defining: NF, ctx, mode: str,
                    label: str, report: StepReport):
    ub = bounds.norm_bound(defining, ctx)
    if ub.cmp(cap) <= 0:
        report.notes.append("%s: norm bound %s <= cap %s" % (label, ub, cap))
        return
    if mode == "strict":
        raise MoveError(
            "%s: norm cap %s for %s not discharged (sound upper bound %s)"
            % (label, cap, sym, ub))
    report.gaps.append(("unverified-norm-gap",
                        "%s: cap %s vs sound upper bound %s"
                        % (label, cap, ub)))


# -- applying moves -------------------------------------------------------------

def apply_move(p: Presentation, move, mode: str, registry,
               index: int = 0) -> tuple[Presentation, StepReport]:
    if mode not in ("strict", "permissive"):
        raise ValueError("mode must be strict or permissive")
    label = describe_move(move)
    report = StepReport(index, move.kind, label)
    if isinstance(move, AddRelations):
        rel = move.rel
        if p.relation(rel.name) is not None:
            raise MoveError("%s: name already present" % label)
        for problem in relation_problems(p, rel, registry):
            raise MoveError("%s: %s" % (label, problem))
        _check_justification(p, rel.body, move.just, registry, mode, label,
                             report)
        return p.with_relations(p.relations + (rel,)), report

    if isinstance(move, RemoveRelations):
        rel = p.relation(move.name)
        if rel is None:
            raise MoveError("delrel %s: no such relation" % move.name)
        remaining = p.with_relations(tuple(
            r for r in p.relations if r.name != move.name))
        _check_justification(remaining, rel.body, move.just, registry, mode,
                             label, report)
        return remaining, report

    if isinstance(move, AddGenerators):
        sym = move.sym
        if sym in p.gens:
            raise MoveError("%s: symbol already declared" % label)
        if not valid_ident(sym):
            raise MoveError("addgen: bad symbol %r" % sym)
        for s in move.defining.symbols():
            if s not in p.gens:
                raise MoveError(
                    "%s: defining term must be over the existing generators "
                    "(mentions %r)" % (label, s))
        rel = Relation("def_" + sym, gen_nf(sym) - move.defining, "derived")
        if p.relation(rel.name) is not None:
            raise MoveError("%s: relation name %s already taken"
                            % (label, rel.name))
        gens = p.gens.copy()
        gens.add(sym, move.cap)
        q = Presentation(p.flavor, gens, p.relations + (rel,), p.notes)
        for problem in relation_problems(q, rel, registry):
            raise MoveError("%s: %s" % (label, problem))
        _norm_condition(sym, move.cap, move.defining,
                        _context_for(p, registry, report, label), mode, label,
                        report)
        return q, report

    if isinstance(move, RemoveGenerators):
        sym, via = move.sym, move.via
        rel = p.relation(via)
        if rel is None:
            raise MoveError("delgen %s: no relation named %r" % (sym, via))
        if sym not in p.gens:
            raise MoveError("delgen %s: no such generator" % sym)
        t = solve_for(rel.body, sym)
        if t is None:
            raise MoveError("delgen %s: relation %s has no linear %s monomial"
                            % (sym, via, sym))
        if sym in t.symbols():
            raise MoveError(
                "delgen %s: relation %s is not of eliminable shape "
                "(defining term still mentions %s)" % (sym, via, sym))
        rest = tuple(r for r in p.relations if r.name != via)
        ctx = _context_for(p.with_relations(rest), registry, report, label)
        _norm_condition(sym, p.gens.norm(sym), t, ctx, mode, label, report)
        sub = {sym: t}
        new_rels = tuple(Relation(r.name, substitute(r.body, sub), r.origin)
                         for r in rest)
        for r in new_rels:
            assert sym not in r.body.symbols()
        report.notes.append("substitutions: " + sym)
        report.substitutions = sub
        return (Presentation(p.flavor, p.gens.without(sym), new_rels, p.notes),
                report)

    raise MoveError("unknown move %r" % type(move))


def describe_move(move) -> str:
    if isinstance(move, AddRelations):
        return "addrel " + move.rel.name
    if isinstance(move, RemoveRelations):
        return "delrel " + move.name
    if isinstance(move, AddGenerators):
        return "addgen " + move.sym
    if isinstance(move, RemoveGenerators):
        return "delgen %s via %s" % (move.sym, move.via)
    return str(move)


# -- derivation replay -----------------------------------------------------------

def check_derivation(d: Derivation, mode: str, registry) -> DerivationReport:
    report = DerivationReport(mode, [])
    cur = d.start
    images = {g: gen_nf(g) for g in d.start.gens.names()}
    for i, move in enumerate(d.steps, 1):
        try:
            cur, step = apply_move(cur, move, mode, registry, index=i)
        except MoveError as e:
            step = StepReport(i, move.kind, describe_move(move), "fail")
            step.notes.append(str(e))
            report.steps.append(step)
            report.overall = "FAIL"
            report.end_note = "stopped at step %d: %s" % (i, e)
            return report
        report.steps.append(step)
        if step.substitutions:
            images = {g: substitute(t, step.substitutions)
                      for g, t in images.items()}
    report.images = images
    if structural_equal(cur, d.claimed_end):
        report.end_note = "end presentation matches"
    else:
        report.overall = "FAIL"
        report.end_note = ("end presentation does not match the claimed "
                           "result")
    return report


# -- auto-justification and bridge ------------------------------------------------

def auto_justify(ambient: Presentation, target: NF, registry,
                 degree: int = 1):
    """Certificate search, then the positivity schema (kept only if it
    passes `_check_justification` in strict mode), then oracle-pending."""
    rels = [(r.name, r.body) for r in ambient.relations]
    found = search_certificate(rels, target, ambient.gens, max_degree=degree)
    if isinstance(found, Certificate):
        return found
    a = match_geq_body(target)
    if a is not None:
        cit = lemma_citation("positive_from_interval", A=a)
        try:
            _check_justification(ambient, target, cit, registry, "strict",
                                 "auto", StepReport(0, "addrel", ""))
            return cit
        except MoveError:
            pass
    if isinstance(found, BudgetExhausted):
        return OraclePending(found.note)
    return OraclePending("no certificate found at degree <= %d" % degree)


class BridgeError(ValueError):
    pass


def bridge(p1: Presentation, p2: Presentation, dict1: dict, dict2: dict,
           registry, mode: str = "strict", degree: int = 1):
    """Joint presentation plus derivation skeletons p1 -> joint <- p2.

    dict1 maps p1 generators to terms over p2's generators and dict2 the
    reverse.  p2's generators and relations are renamed apart from p1's
    as `presentation.join` renames them (x -> x_2), and the dictionaries
    with them.  Each skeleton adds the other side's generators one
    `addgen` at a time, with their dictionary definitions; each is
    applied with `apply_move`, which discharges its norm cap.  Then it
    adds the other side's relations and the remaining dictionary
    relations, one `addrel` each, auto-justified where possible against
    the presentation reached by the `addgen` moves.  An `addgen` that
    `apply_move` rejects raises BridgeError.
    """
    if p1.flavor != "unital" or p2.flavor != "unital":
        raise BridgeError("bridge is defined for unital presentations")
    for s in p1.gens.names():
        if s not in dict1:
            raise BridgeError("dict1 missing image of %r" % s)
    for s in p2.gens.names():
        if s not in dict2:
            raise BridgeError("dict2 missing image of %r" % s)
    union = join([p1, p2])
    new_names = union.gens.names()[len(p1.gens):]
    ren = {s: gen_nf(n) for s, n in zip(p2.gens.names(), new_names)
           if s != n}
    dict1 = {s: substitute(t, ren) for s, t in dict1.items()}
    dict2 = {n: dict2[s] for s, n in zip(p2.gens.names(), new_names)}
    p2 = Presentation("unital",
                      NormedSet((n, union.gens.norm(n)) for n in new_names),
                      union.relations[len(p1.relations):], p2.notes)

    taken = set(union.relation_names())
    def_name: dict[str, str] = {}
    for s in union.gens.names():
        def_name[s] = _fresh("def_" + s, taken)
        taken.add(def_name[s])
    m1 = [Relation(def_name[s], gen_nf(s) - dict2[s], "derived")
          for s in p2.gens.names()]
    m2 = [Relation(def_name[s], gen_nf(s) - dict1[s], "derived")
          for s in p1.gens.names()]
    joint = Presentation("unital", union.gens,
                         tuple(list(p1.relations) + m1 + list(p2.relations)
                               + m2))

    def skeleton(src: Presentation, other: Presentation, d: dict,
                 m_other: list) -> Derivation:
        moves = [AddGenerators(s, other.gens.norm(s), d[s])
                 for s in other.gens.names()]
        mid = src
        try:
            for move in moves:
                mid, _ = apply_move(mid, move, mode, registry)
        except MoveError as e:
            raise BridgeError(str(e)) from None
        taken = set(mid.relation_names())
        for rel in list(other.relations) + m_other:
            nm = _fresh(rel.name, taken)
            taken.add(nm)
            moves.append(AddRelations(
                Relation(nm, rel.body, rel.origin),
                auto_justify(mid, rel.body, registry, degree)))
        return Derivation(src, tuple(moves), joint)

    drv1 = skeleton(p1, p2, dict2, m2)
    drv2 = skeleton(p2, p1, dict1, m1)
    return joint, drv1, drv2


# -- bounded simplification ---------------------------------------------------------

def auto_simplify(p: Presentation, registry, max_degree: int = 1
                  ) -> tuple[Presentation, Derivation]:
    """Greedy removal of certificate-redundant relations and of generators
    with an eliminable defining relation, run to its fixpoint: each step
    removes a relation or a generator, so the loop ends.  Each candidate
    move is checked once, by a strict `apply_move`, so the emitted
    derivation is gap-free and re-checks in strict mode.

    A relation whose search found no certificate is not searched again
    until a generator is removed: removing relations only shrinks the
    set it was searched against, and a certificate against a subset
    would be one against the set.  A generator removal substitutes into
    the bodies, so it clears that record."""
    cur = p
    steps = []
    settled = set()
    while (found := _next_removal(cur, registry, max_degree,
                                  settled)) is not None:
        move, cur = found
        steps.append(move)
        if isinstance(move, RemoveGenerators):
            settled.clear()
    return cur, Derivation(p, tuple(steps), cur)


def _next_removal(cur: Presentation, registry, max_degree: int,
                  settled: set):
    """The first redundant relation, else the first eliminable generator,
    as (move, presentation after it); None when there is neither.  The
    relations named in `settled` are known to have no certificate, and
    each relation found to have none is added to it."""
    for rel in cur.relations:
        if rel.name in settled:
            continue
        others = [(r.name, r.body) for r in cur.relations
                  if r.name != rel.name]
        cert = search_certificate(others, rel.body, cur.gens,
                                  max_degree=max_degree)
        if isinstance(cert, Certificate):
            move = RemoveRelations(rel.name, cert)
            return move, apply_move(cur, move, "strict", registry)[0]
        if cert is None:
            settled.add(rel.name)
    for rel in cur.relations:
        for sym in cur.gens.names():
            move = RemoveGenerators(sym, rel.name)
            try:
                return move, apply_move(cur, move, "strict", registry)[0]
            except MoveError:
                continue
    return None
