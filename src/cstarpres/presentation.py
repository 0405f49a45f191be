"""Presentations by normed generators and relations.

A presentation is a flavor (unital or non-unital), an ordered normed
generator set, and an ordered list of named relations r = 0.  The file
format has three sections::

    flavor: unital
    generators:
      x : 1
    relations:
      sa_x : x = x*
      pos_x : x >= 0

Relation lines accept `lhs = rhs`, the order sugar `a >= 0` / `a <= b`,
and the macros norm_le / left_inv / right_inv / inv, all expanded at
parse time with an origin tag.  Canonical printing always emits plain
bodies, so print -> parse is stable.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace

from .terms import (NF, NormedSet, UNIT, augmentation, geq_zero_body,
                    valid_ident)
from .parser import (ParseError, parse_term, parse_scalar, parse_normvalue,
                     format_term, format_scalar_xs, split_top)
from . import fcalc


@dataclass(frozen=True)
class Relation:
    name: str
    body: NF
    origin: str = "axiom"  # axiom | macro:<name> | derived


@dataclass(frozen=True)
class Presentation:
    flavor: str  # "unital" | "nonunital"
    gens: NormedSet
    relations: tuple[Relation, ...]
    notes: tuple[str, ...] = ()

    def relation(self, name: str) -> Relation | None:
        for r in self.relations:
            if r.name == name:
                return r
        return None

    def relation_names(self) -> list[str]:
        return [r.name for r in self.relations]

    def bodies(self) -> list[NF]:
        return [r.body for r in self.relations]

    def with_relations(self, rels: tuple[Relation, ...]) -> "Presentation":
        return replace(self, relations=rels)


def structural_equal(p: Presentation, q: Presentation) -> bool:
    """Equality up to relation naming/order and generator order."""
    if p.flavor != q.flavor:
        return False
    if dict(p.gens.items()) != dict(q.gens.items()):
        return False
    return Counter(p.bodies()) == Counter(q.bodies())


# -- relation-line parsing ------------------------------------------------

_MACRO_HEADS = tuple(m + "(" for m in fcalc.MACRO_NAMES)


def parse_relation_text(name: str, text: str, gens: NormedSet,
                        registry) -> list[Relation]:
    """One relation line; macros may expand to several relations."""
    text = text.strip()
    for op in (">=", "<="):
        parts = split_top(text, op)
        if len(parts) > 2:
            raise ParseError("relation %s: more than one %r" % (name, op))
        if len(parts) == 2:
            lhs = parse_term(parts[0], gens, registry)
            rhs = parse_term(parts[1], gens, registry)
            try:
                if op == ">=":
                    body = geq_zero_body(lhs) if rhs.is_zero \
                        else fcalc.leq_body(rhs, lhs)
                else:
                    body = geq_zero_body(rhs) if lhs.is_zero \
                        else fcalc.leq_body(lhs, rhs)
            except fcalc.MacroError as e:
                raise ParseError("relation %s: %s" % (name, e))
            return [Relation(name, body, "macro:order")]
    head = text.replace(" ", "")
    if head.startswith(_MACRO_HEADS) and text.endswith(")"):
        macro = head[:head.index("(")]
        inner = text[text.index("(") + 1:-1]
        args = split_top(inner, ",")
        args = [a for a in args if a.strip()]
        if len(args) < 2:
            raise ParseError("relation %s: macro %s takes (term, scalar)"
                             % (name, macro))
        a = parse_term(",".join(args[:-1]), gens, registry)
        c = parse_scalar(args[-1])
        try:
            pieces = fcalc.expand_macro(macro, a, c)
        except fcalc.MacroError as e:
            raise ParseError("relation %s: %s" % (name, e))
        return [Relation(name + suffix, body, "macro:" + macro)
                for suffix, body in pieces]
    parts = split_top(text, "=")
    if len(parts) > 2:
        raise ParseError("relation %s: more than one '='" % name)
    if len(parts) == 2:
        lhs = parse_term(parts[0], gens, registry)
        rhs = parse_term(parts[1], gens, registry)
        return [Relation(name, lhs - rhs)]
    return [Relation(name, parse_term(text, gens, registry))]


# -- presentation files ----------------------------------------------------

_FLAVORS = {"unital": "unital", "non-unital": "nonunital",
            "nonunital": "nonunital"}


def parse_presentation(text: str, registry) -> Presentation:
    flavor = None
    gens = NormedSet()
    relations: list[Relation] = []
    section = None
    seen_names: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            if line.startswith("flavor:"):
                val = line[len("flavor:"):].strip()
                if val not in _FLAVORS:
                    raise ParseError("unknown flavor %r" % val)
                flavor = _FLAVORS[val]
                section = None
            elif line == "generators:":
                section = "generators"
            elif line == "relations:":
                section = "relations"
            elif section == "generators":
                name, _, cap = line.partition(":")
                gens.add(name.strip(), parse_normvalue(cap.strip()))
            elif section == "relations":
                name, _, body = line.partition(":")
                name = name.strip()
                if not valid_ident(name):
                    raise ParseError("bad relation name %r" % name)
                for rel in parse_relation_text(name, body.strip(), gens,
                                               registry):
                    if rel.name in seen_names:
                        raise ParseError("duplicate relation name %r"
                                         % rel.name)
                    seen_names.add(rel.name)
                    relations.append(rel)
            else:
                raise ParseError("line outside a section")
        except (ParseError, ValueError) as e:
            raise ParseError("line %d: %s" % (lineno, e)) from None
    if flavor is None:
        raise ParseError("missing flavor: line")
    return Presentation(flavor, gens, tuple(relations))


def load_presentation(path: str, registry) -> Presentation:
    with open(path, encoding="utf-8") as fh:
        return parse_presentation(fh.read(), registry)


def canonical_print(p: Presentation) -> str:
    out = ["flavor: %s" % ("unital" if p.flavor == "unital" else "non-unital")]
    out.append("generators:")
    for name, cap in p.gens.items():
        out.append("  %s : %s" % (name, format_scalar_xs(cap)))
    out.append("relations:")
    for r in p.relations:
        out.append("  %s : %s" % (r.name, format_term(r.body, p.gens)))
    return "\n".join(out) + "\n"


def to_json_dict(p: Presentation) -> dict:
    return {
        "flavor": "unital" if p.flavor == "unital" else "non-unital",
        "generators": [{"name": n, "norm": format_scalar_xs(c)}
                       for n, c in p.gens.items()],
        "relations": [{"name": r.name,
                       "body": format_term(r.body, p.gens),
                       "origin": r.origin}
                      for r in p.relations],
        "notes": list(p.notes),
    }


# -- validation -------------------------------------------------------------

def validate(p: Presentation, registry) -> list[str]:
    """Diagnostics; empty iff the presentation is well formed."""
    diags = []
    if p.flavor not in ("unital", "nonunital"):
        diags.append("unknown flavor %r" % p.flavor)
    seen = set()
    for r in p.relations:
        if r.name in seen:
            diags.append("duplicate relation name %r" % r.name)
        seen.add(r.name)
        for s in sorted(r.body.symbols()):
            if s not in p.gens:
                diags.append("relation %s mentions undeclared generator %r"
                             % (r.name, s))
        if p.flavor == "nonunital":
            unit_c = r.body.get(UNIT)
            if unit_c is not None and not unit_c.is_zero:
                diags.append("unital relation in non-unital presentation: "
                             "%s has a unit monomial" % r.name)
            else:
                aug = augmentation(r.body, registry)
                if aug is None:
                    diags.append("relation %s: augmentation undetermined in "
                                 "non-unital presentation" % r.name)
                elif not aug.is_zero:
                    diags.append("unital relation in non-unital presentation: "
                                 "%s has augmentation %s" % (r.name, aug))
    return diags


# -- unitization -------------------------------------------------------------

def unitize(p: Presentation, registry) -> Presentation:
    if p.flavor != "nonunital":
        raise ValueError("unitize expects a non-unital presentation")
    diags = validate(p, registry)
    if diags:
        raise ValueError("invalid presentation: " + "; ".join(diags))
    return Presentation(
        "unital", p.gens.copy(), p.relations,
        p.notes + ("unitized: the original algebra is the ideal generated "
                   "by the generators",))


# -- join / split -----------------------------------------------------------

def _fresh(name: str, taken: set) -> str:
    if name not in taken:
        return name
    i = 2
    while "%s_%d" % (name, i) in taken:
        i += 1
    return "%s_%d" % (name, i)


def join(parts: list[Presentation]) -> Presentation:
    """Free product: disjoint union of generators and relations.  A name
    already taken by an earlier part gets the first free suffix _2, _3, ...,
    and each rename is recorded in the notes."""
    from .terms import substitute, gen_nf
    if not parts:
        raise ValueError("join of no presentations")
    for p in parts:
        if p.flavor != "unital":
            raise ValueError("join is defined for unital presentations")
    gens = NormedSet()
    relations: list[Relation] = []
    rel_names: set[str] = set()
    notes: list[str] = []
    for idx, p in enumerate(parts, 1):
        ren: dict[str, NF] = {}
        for name, cap in p.gens.items():
            new = _fresh(name, set(gens.names()))
            if new != name:
                notes.append("renamed generator %s -> %s in part %d"
                             % (name, new, idx))
                ren[name] = gen_nf(new)
            gens.add(new, cap)
        for r in p.relations:
            body = substitute(r.body, ren) if ren else r.body
            new = _fresh(r.name, rel_names)
            if new != r.name:
                notes.append("renamed relation %s -> %s in part %d"
                             % (r.name, new, idx))
            rel_names.add(new)
            relations.append(Relation(new, body, r.origin))
    return Presentation("unital", gens, tuple(relations), tuple(notes))


def split(p: Presentation) -> list[Presentation]:
    """Factor over the co-occurrence graph of generators in relations.

    Relations with no generator support (pure unital constraints) attach
    to every factor, flagged in the notes.
    """
    if p.flavor != "unital":
        raise ValueError("split is defined for unital presentations")
    names = p.gens.names()
    parent = {s: s for s in names}

    def find(s):
        while parent[s] != s:
            parent[s] = parent[parent[s]]
            s = parent[s]
        return s

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    support = {}
    for r in p.relations:
        syms = sorted(s for s in r.body.symbols() if s in p.gens)
        support[r.name] = syms
        for s in syms[1:]:
            union(syms[0], s)
    roots = []
    for s in names:
        r = find(s)
        if r not in roots:
            roots.append(r)
    if not roots:
        return [p]
    out = []
    order = {n: i for i, n in enumerate(p.relation_names())}
    global_rels = [r for r in p.relations if not support[r.name]]
    for root in roots:
        comp = set(s for s in names if find(s) == root)
        gens = NormedSet((s, p.gens.norm(s)) for s in names if s in comp)
        rels = [r for r in p.relations
                if support[r.name] and support[r.name][0] in comp]
        notes = []
        if global_rels:
            rels = rels + global_rels
            notes.append("generator-free relations attached to every factor: "
                         + ", ".join(r.name for r in global_rels))
        rels.sort(key=lambda r: order[r.name])
        out.append(Presentation("unital", gens, tuple(rels), tuple(notes)))
    return out
