import random

import pytest

from cstarpres.exact import XS
from cstarpres.presentation import (Presentation, Relation, canonical_print,
                                    join, load_presentation,
                                    parse_presentation, parse_relation_text,
                                    split, structural_equal, to_json_dict,
                                    unitize, validate)
from cstarpres.parser import ParseError, parse_term
from cstarpres.terms import NormedSet, gen_nf, geq_zero_body, star

ALL_PRES = ["idempotent.pres", "idempotent_lam1.pres", "left_inv_end.pres",
            "left_invertible.pres", "norm_pitfall.pres", "positive.pres",
            "self_adjoint.pres", "self_adjoint_c.pres", "two_projections.pres"]


def test_corpus_round_trips(reg, corpus):
    for name in ALL_PRES:
        p = load_presentation(str(corpus / name), reg)
        assert validate(p, reg) == [], name
        text = canonical_print(p)
        q = parse_presentation(text, reg)
        assert structural_equal(p, q), name
        assert canonical_print(q) == text, name


@pytest.mark.parametrize("text", ["x >= 0 >= 1", "x = y = x", "x == y"])
def test_relation_with_two_relation_signs_is_a_parse_error(reg, text):
    g = NormedSet([("x", XS(1)), ("y", XS(1))])
    with pytest.raises(ParseError, match="more than one"):
        parse_relation_text("r", text, g, reg)


def test_order_relations_and_right_inv_parse_to_their_bodies(reg):
    # the three spellings of 1 - x* x >= 0 give one body, and the
    # canonical print of each parses back to it
    p = parse_presentation(
        "flavor: unital\ngenerators:\n  x : 1\nrelations:\n"
        "  le : x* x <= 1\n  ge : 1 >= x* x\n  zero : 1 - x* x >= 0\n"
        "  ri : right_inv(x, 2)\n", reg)
    want = geq_zero_body(parse_term("1 - x* x", p.gens, reg))
    assert [r.body for r in p.relations[:3]] == [want] * 3
    assert [r.origin for r in p.relations] == ["macro:order"] * 3 + \
        ["macro:right_inv"]
    assert p.relations[3].body == \
        geq_zero_body(parse_term("4 x x* - 1", p.gens, reg))
    q = parse_presentation(canonical_print(p), reg)
    assert q.bodies() == p.bodies()


def test_validate_clean_unital(reg):
    p = parse_presentation(
        "flavor: unital\ngenerators:\n  x : 1\nrelations:\n  sa_x : x = x*\n",
        reg)
    assert validate(p, reg) == []


def test_validate_unital_relation_in_nonunital(reg):
    p = parse_presentation(
        "flavor: non-unital\ngenerators:\n  x : 1\nrelations:\n"
        "  bad : 1 - 4 x* x\n", reg)
    diags = validate(p, reg)
    assert len(diags) == 1
    assert "unital relation in non-unital presentation" in diags[0]


def test_validate_undeclared_and_duplicate(reg):
    g = NormedSet()
    g.add("x", XS(1))
    rel = Relation("r", gen_nf("x") - gen_nf("y"), "axiom")
    p = Presentation("unital", g, (rel, Relation("r", gen_nf("x"), "axiom")))
    diags = validate(p, reg)
    assert any("undeclared generator 'y'" in d for d in diags)
    assert any("duplicate relation name" in d for d in diags)


def test_validate_is_total_on_odd_flavor(reg):
    g = NormedSet()
    p = Presentation("bogus", g, ())
    assert any("unknown flavor" in d for d in validate(p, reg))


def test_unitize_flips_flavor_only(reg, corpus):
    c = load_presentation(str(corpus / "self_adjoint_c.pres"), reg)
    u = unitize(c, reg)
    assert u.flavor == "unital"
    assert u.gens.items() == c.gens.items()
    assert [r.body for r in u.relations] == [r.body for r in c.relations]
    assert any("ideal generated" in n for n in u.notes)
    twin = load_presentation(str(corpus / "self_adjoint.pres"), reg)
    assert structural_equal(u, twin)


def test_unitize_rejects_unital_and_invalid(reg, corpus):
    p = load_presentation(str(corpus / "self_adjoint.pres"), reg)
    with pytest.raises(ValueError):
        unitize(p, reg)
    bad = parse_presentation(
        "flavor: non-unital\ngenerators:\n  x : 1\nrelations:\n"
        "  bad : 1 - x\n", reg)
    with pytest.raises(ValueError):
        unitize(bad, reg)


def test_unitize_empty_relations(reg):
    p = parse_presentation(
        "flavor: non-unital\ngenerators:\n  x : 1\nrelations:\n", reg)
    u = unitize(p, reg)
    assert u.flavor == "unital"
    assert u.relations == ()


def test_join_left_invertibility_parts(reg, corpus):
    q_part = parse_presentation(
        "flavor: unital\ngenerators:\n  q : 2\nrelations:\n"
        "  geq_muq : q - 1 >= 0\n", reg)
    u_part = parse_presentation(
        "flavor: unital\ngenerators:\n  u : 2\nrelations:\n"
        "  isom_u : u* u = 1\n", reg)
    joined = join([q_part, u_part])
    target = load_presentation(str(corpus / "left_inv_end.pres"), reg)
    assert structural_equal(joined, target)


def test_join_single_and_rename(reg):
    p = parse_presentation(
        "flavor: unital\ngenerators:\n  x : 1\nrelations:\n  sa_x : x = x*\n",
        reg)
    assert structural_equal(join([p]), p)
    j = join([p, p])
    assert j.gens.names() == ["x", "x_2"]
    x2 = gen_nf("x_2")
    assert j.relations[1].body == x2 - star(x2)
    assert any("renamed generator x -> x_2" in n for n in j.notes)


def test_split_two_factors(reg, corpus):
    p = load_presentation(str(corpus / "left_inv_end.pres"), reg)
    parts = split(p)
    assert len(parts) == 2
    by_gen = {tuple(q.gens.names()): q for q in parts}
    assert set(by_gen) == {("q",), ("u",)}
    assert by_gen[("q",)].relation_names() == ["geq_muq"]
    assert by_gen[("u",)].relation_names() == ["isom_u"]


def test_split_coupled_stays_merged(reg):
    p = parse_presentation(
        "flavor: unital\ngenerators:\n  x : 1\n  y : 1\nrelations:\n"
        "  comm : x y - y x\n", reg)
    assert len(split(p)) == 1


def test_split_no_relations(reg):
    p = parse_presentation(
        "flavor: unital\ngenerators:\n  x : 1\n  y : 1\nrelations:\n", reg)
    parts = split(p)
    assert [q.gens.names() for q in parts] == [["x"], ["y"]]
    assert all(q.relations == () for q in parts)


def test_split_unit_only_relation_attaches_everywhere(reg):
    p = parse_presentation(
        "flavor: unital\ngenerators:\n  x : 1\n  y : 1\nrelations:\n"
        "  weird : 0\n", reg)
    parts = split(p)
    assert len(parts) == 2
    for q in parts:
        assert q.relation_names() == ["weird"]
        assert any("generator-free relations" in n for n in q.notes)


def _random_connected_part(rnd, idx, reg):
    base = "g%d" % idx
    if rnd.random() < 0.5:
        text = ("flavor: unital\ngenerators:\n  %s : %d\nrelations:\n"
                % (base, rnd.randint(1, 3)))
        if rnd.random() < 0.7:
            text += "  sa_%s : %s = %s*\n" % (base, base, base)
    else:
        other = base + "b"
        text = ("flavor: unital\ngenerators:\n  %s : 1\n  %s : 2\n"
                "relations:\n  c_%s : %s %s = %s %s\n"
                % (base, other, base, base, other, other, base))
    return parse_presentation(text, reg)


def test_split_join_round_trip_random(reg):
    rnd = random.Random(7)
    for _ in range(60):
        parts = [_random_connected_part(rnd, i, reg)
                 for i in range(rnd.randint(1, 4))]
        got = split(join(parts))
        relful = [q for q in parts if q.relations or len(q.gens.names()) > 1]
        relless = [q for q in parts if not (q.relations or len(q.gens.names()) > 1)]
        # connected parts come back; bare generators come back as singletons
        assert len(got) == len(relful) + len(relless)
        for part in parts:
            hit = [q for q in got
                   if sorted(q.gens.names()) == sorted(part.gens.names())]
            assert len(hit) == 1
            assert structural_equal(hit[0], part)


def test_json_export_shape(reg, corpus):
    p = load_presentation(str(corpus / "left_invertible.pres"), reg)
    d = to_json_dict(p)
    assert list(d) == ["flavor", "generators", "relations", "notes"]
    assert d["flavor"] == "unital"
    assert d["generators"][0]["name"] == "x"
    assert d["relations"][0]["name"] == "lower"
    assert isinstance(d["relations"][0]["body"], str)
