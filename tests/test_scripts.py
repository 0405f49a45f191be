import json
from importlib import resources
from pathlib import Path

import pytest

from cstarpres import bounds, scripts, tietze
from cstarpres.exact import XS
from cstarpres.parser import parse_term
from cstarpres.presentation import (load_presentation, structural_equal,
                                    to_json_dict, validate)
from cstarpres.scripts import (ScriptError, build_derivation, check_script,
                               load_script, render_report, report_json_text,
                               report_to_json)
from cstarpres.tietze import Certificate, LemmaCitation, OraclePending


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


HEADER = "start: a.pres\nend: b.pres\n"


def fixture_pres(tmp_path):
    write(tmp_path, "a.pres",
          "flavor: unital\ngenerators:\n  x : 1\nrelations:\n  sa_x : x = x*\n")
    write(tmp_path, "b.pres",
          "flavor: unital\ngenerators:\n  x : 1\nrelations:\n"
          "  sa_x : x = x*\n  dbl : 2 x = 2 x*\n")


def test_load_script_forms(tmp_path):
    path = write(tmp_path, "t.drv", (
        "# leading comment\n"
        "start: a.pres\n"
        "end: b.pres\n"
        "\n"
        "1. addrel r := x - x* by cert[(1) sa_x (1)]  # trailing comment\n"
        "2. delrel r by oracle\n"
        "addgen y : sqrt(3/4) := 1/2 x\n"
        "4. delgen y via def_y\n"
        "5. addrel s := x by fclemma(mystery; A = x, mu = 1/2)\n"))
    sc = load_script(path)
    assert sc.start_path.endswith("a.pres")
    assert sc.end_path.endswith("b.pres")
    kinds = [st.kind for st in sc.steps]
    assert kinds == ["addrel", "delrel", "addgen", "delgen", "addrel"]
    s1 = sc.steps[0]
    assert s1.name == "r" and s1.just_kind == "cert"
    assert s1.cert_items == [("1", "sa_x", False, "1")]
    assert sc.steps[1].just_kind == "oracle"
    s3 = sc.steps[2]
    assert s3.name == "y" and s3.cap == "sqrt(3/4)" and s3.text == "1/2 x"
    assert sc.steps[3].via == "def_y"
    s5 = sc.steps[4]
    assert s5.just_kind == "fclemma" and s5.schema == "mystery"
    assert s5.bindings == [("A", "x"), ("mu", "1/2")]


def test_cert_text_with_nested_parens_and_star(tmp_path):
    path = write(tmp_path, "t.drv", HEADER + (
        "1. delrel r by cert[(-(x - x*)) a* ((1/2 x + 1/2)); (2) b (1)]\n"))
    sc = load_script(path)
    items = sc.steps[0].cert_items
    assert items[0] == ("-(x - x*)", "a", True, "(1/2 x + 1/2)")
    assert items[1] == ("2", "b", False, "1")


def test_script_error_cases(tmp_path):
    with pytest.raises(ScriptError):
        load_script(write(tmp_path, "x1.drv", "end: b.pres\n1. delrel r by oracle\n"))
    with pytest.raises(ScriptError):
        load_script(write(tmp_path, "x2.drv", HEADER + "1. frobnicate r\n"))
    with pytest.raises(ScriptError):
        load_script(write(tmp_path, "x3.drv", HEADER + "1. delrel r by cert[has no parens]\n"))
    with pytest.raises(ScriptError):
        load_script(write(tmp_path, "x4.drv", HEADER + "1. delrel r by fclemma(unclosed; A = x\n"))
    with pytest.raises(ScriptError):
        load_script(write(tmp_path, "x5.drv", HEADER + "1. delrel r by hunch\n"))
    with pytest.raises(ScriptError):
        load_script(write(tmp_path, "x6.drv", HEADER + "1. addgen y 1 := x\n"))
    # schema citation without bindings parses; the checker rejects it later
    sc = load_script(write(tmp_path, "ok.drv", HEADER + "1. delrel r by fclemma(sqrt_square)\n"))
    assert sc.steps[0].bindings == []


def test_build_derivation_small(reg, tmp_path):
    fixture_pres(tmp_path)
    path = write(tmp_path, "t.drv", HEADER +
                 "1. addrel dbl := 2 x = 2 x* by cert[(2) sa_x (1)]\n")
    drv, labels = build_derivation(load_script(path), reg)
    assert labels == ["addrel dbl"]
    rel, just = drv.steps[0].rel, drv.steps[0].just
    assert rel.name == "dbl"
    assert isinstance(just, Certificate)
    report = scripts.tietze.check_derivation(drv, "strict", reg)
    assert report.overall == "PASS"


def test_build_derivation_typed_bindings(reg, tmp_path):
    fixture_pres(tmp_path)
    write(tmp_path, "c.pres",
          "flavor: unital\ngenerators:\n  x : 1\nrelations:\n"
          "  sa_x : x = x*\n  pos : 1 + x* x >= 0\n")
    path = write(tmp_path, "t.drv",
                 "start: a.pres\nend: c.pres\n"
                 "1. addrel pos := (1 + x* x) - p(1/2 (1 + x* x) + "
                 "1/2 (1 + x* x)*) by fclemma(positive_from_interval; "
                 "A = 1 + x* x)\n")
    drv, _ = build_derivation(load_script(path), reg)
    just = drv.steps[0].just
    assert isinstance(just, LemmaCitation)
    assert just.schema == "positive_from_interval"
    (name, val), = just.bindings
    assert name == "A"
    report = scripts.tietze.check_derivation(drv, "strict", reg)
    assert report.overall == "PASS", report.end_note


def test_oracle_step_counts_as_gap(reg, tmp_path):
    fixture_pres(tmp_path)
    path = write(tmp_path, "t.drv", HEADER +
                 "1. addrel dbl := 2 x = 2 x* by oracle\n")
    drv, _ = build_derivation(load_script(path), reg)
    just = drv.steps[0].just
    assert isinstance(just, OraclePending)
    rep = scripts.tietze.check_derivation(drv, "permissive", reg)
    assert rep.overall == "PASS"
    assert [k for k, _ in rep.steps[0].gaps] == ["oracle-pending"]


def test_inv_line_is_two_moves(reg, tmp_path):
    fixture_pres(tmp_path)
    write(tmp_path, "c.pres",
          "flavor: unital\ngenerators:\n  x : 1\nrelations:\n"
          "  sa_x : x = x*\n  n : inv(x, 1)\n")
    path = write(tmp_path, "t.drv", "start: a.pres\nend: c.pres\n"
                 "1. addrel n := inv(x, 1) by oracle\n")
    drv, labels = build_derivation(load_script(path), reg)
    assert labels == ["addrel n_l", "addrel n_r"]
    assert [m.rel.name for m in drv.steps] == ["n_l", "n_r"]
    rep, labels, _ = check_script(path, "permissive", reg)
    assert rep.overall == "PASS"
    assert [(s.index, k) for s in rep.steps for k, _ in s.gaps] == [
        (1, "oracle-pending"), (2, "oracle-pending")]
    assert render_report(rep, labels).splitlines()[1:5] == [
        "step 1: addrel n_l ... ok",
        "  gap [oracle-pending] addrel n_l: declared oracle step",
        "step 2: addrel n_r ... ok",
        "  gap [oracle-pending] addrel n_r: declared oracle step"]


def test_corpus_sa_to_positive_strict(reg, corpus):
    rep, labels, _ = check_script(
        str(corpus / "self_adjoint_to_positive.drv"), "strict", reg)
    assert rep.overall == "PASS"
    assert rep.gap_count == 0
    assert len(rep.steps) == 6


def test_corpus_left_inv_chain_strict_and_stripped(reg, corpus):
    rep, labels, _ = check_script(
        str(corpus / "left_inv_chain.drv"), "strict", reg)
    assert rep.overall == "PASS"
    assert rep.gap_count == 0
    assert len(rep.steps) == 9
    bare = reg.without_schemata()
    rep2, _, _ = check_script(str(corpus / "left_inv_chain.drv"),
                              "permissive", bare, build_registry=reg)
    assert rep2.overall == "PASS"
    gaps = {s.index: [k for k, _ in s.gaps] for s in rep2.steps if s.gaps}
    assert gaps == {i: ["schema-unavailable"] for i in range(3, 9)}


@pytest.fixture(scope="module")
def idem_report(reg, corpus):
    rep, labels, _ = check_script(
        str(corpus / "idempotent_to_projections.drv"), "permissive", reg)
    return rep, labels


def test_corpus_idempotent_permissive_gaps(reg, corpus, idem_report):
    rep, labels = idem_report
    assert rep.overall == "PASS"
    assert len(rep.steps) == 12
    gaps = [(s.index, k, d) for s in rep.steps for k, d in s.gaps]
    assert [(i, k) for i, k, _ in gaps] == [
        (1, "unverified-norm-gap"),
        (2, "unverified-norm-gap"),
        (12, "unverified-norm-gap"),
    ]
    assert "cap 1 vs sound upper bound 4" in gaps[0][2]
    assert "cap 1 vs sound upper bound 9" in gaps[1][2]
    assert "cap 2 vs sound upper bound 8+4*sqrt(3)" in gaps[2][2]
    # strict mode refuses the same script at the first gap
    rep3, _, _ = check_script(
        str(corpus / "idempotent_to_projections.drv"), "strict", reg)
    assert rep3.overall == "FAIL"
    assert rep3.steps[-1].status == "fail"
    assert len(rep3.steps) == 1


def test_render_and_json_report(schemas_dir, idem_report):
    rep, labels = idem_report
    text = render_report(rep, labels)
    lines = text.splitlines()
    assert lines[0] == "mode: permissive"
    assert lines[1] == "step 1: addgen r ... ok"
    assert any(line.startswith("  gap [unverified-norm-gap]") for line in lines)
    assert "gaps: 3" in lines
    assert lines[-1].startswith("overall: PASS")
    doc = report_to_json(rep, labels)
    assert doc["overall"] == "PASS"
    assert doc["gap_count"] == 3
    assert len(doc["steps"]) == 12
    parsed = json.loads(report_json_text(rep, labels))
    assert parsed == doc
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads((schemas_dir / "check_report.schema.json").read_text())
    jsonschema.validate(doc, schema)


def test_relative_paths_resolve_from_script_dir(reg, tmp_path):
    sub = tmp_path / "deep"
    sub.mkdir()
    (sub / "a.pres").write_text(
        "flavor: unital\ngenerators:\n  x : 1\nrelations:\n  sa_x : x = x*\n")
    (sub / "b.pres").write_text(
        "flavor: unital\ngenerators:\n  x : 1\nrelations:\n  sa_x : x = x*\n")
    path = sub / "t.drv"
    path.write_text("start: a.pres\nend: b.pres\n")
    rep, labels, _ = check_script(str(path), "strict", reg)
    assert rep.overall == "PASS"
    assert labels == []


def test_each_move_is_checked_once(reg, corpus, monkeypatch):
    calls = []
    inner = tietze.apply_move

    def counting(*args, **kwargs):
        calls.append(args[1])
        return inner(*args, **kwargs)

    monkeypatch.setattr(tietze, "apply_move", counting)
    for name, mode in (("left_inv_chain", "strict"),
                       ("idempotent_to_projections", "permissive")):
        calls.clear()
        rep, _, _ = check_script(str(corpus / (name + ".drv")), mode, reg)
        assert rep.overall == "PASS"
        assert len(calls) == len(rep.steps)


def test_bound_engine_never_repeats_an_evaluation(reg, corpus, monkeypatch):
    # every (context, fact state, term, flags) is evaluated at most once;
    # contexts are kept alive so that no id is reused
    seen = set()
    contexts = []
    repeats = []

    def counting(name, inner):
        def wrapper(t, ctx, *flags):
            contexts.append(ctx)
            key = (name, id(ctx), ctx.version, t, flags)
            if key in seen:
                repeats.append(key)
            seen.add(key)
            return inner(t, ctx, *flags)
        return wrapper

    for name in ("_interval", "_norm_bound"):
        monkeypatch.setattr(bounds, name,
                            counting(name, getattr(bounds, name)))
    rep, _, _ = check_script(str(corpus / "idempotent_to_projections.drv"),
                             "permissive", reg)
    assert rep.overall == "PASS"
    assert seen and not repeats


@pytest.mark.parametrize("name", ["idempotent_to_projections",
                                  "left_inv_chain",
                                  "self_adjoint_to_positive"])
def test_corpus_replay_keeps_every_presentation_valid(reg, corpus, name):
    drv, _ = build_derivation(load_script(str(corpus / (name + ".drv"))),
                              reg)
    cur = drv.start
    assert validate(cur, reg) == []
    for i, move in enumerate(drv.steps, 1):
        cur, _ = tietze.apply_move(cur, move, "permissive", reg, index=i)
        assert validate(cur, reg) == [], (i, tietze.describe_move(move))
    assert structural_equal(cur, drv.claimed_end)


GOLDEN = Path(__file__).parent / "golden"

# (script, mode, with schemata): every corpus .drv in both modes, plus
# left_inv_chain against a schema-stripped registry
CORPUS_REPLAYS = [
    ("idempotent_to_projections", "strict", True),
    ("idempotent_to_projections", "permissive", True),
    ("left_inv_chain", "strict", True),
    ("left_inv_chain", "permissive", True),
    ("left_inv_chain", "permissive", False),
    ("self_adjoint_to_positive", "strict", True),
    ("self_adjoint_to_positive", "permissive", True),
]


@pytest.mark.parametrize("script,mode,schemata", CORPUS_REPLAYS)
def test_corpus_report_matches_golden(reg, corpus, script, mode, schemata):
    check_reg = reg if schemata else reg.without_schemata()
    rep, labels, _ = check_script(str(corpus / (script + ".drv")), mode,
                                  check_reg, build_registry=reg)
    golden = GOLDEN / ("%s.%s%s.json"
                       % (script, mode, "" if schemata else ".no-schemata"))
    assert report_json_text(rep, labels).encode("utf-8") == \
        golden.read_bytes()


CORPUS_PRES = sorted(p.name[:-len(".pres")]
                     for p in (resources.files("cstarpres") / "corpus").iterdir()
                     if p.name.endswith(".pres"))


def _cli_json(argv: str, payload) -> str:
    return "$ cstarpres %s --json\n%s\n" % (argv, json.dumps(payload, indent=2))


@pytest.mark.parametrize("name", CORPUS_PRES)
def test_corpus_cli_json_matches_golden(reg, corpus, name):
    """`parse`, `simplify` and `normbound` of g and g* g for each generator
    g, as their --json payloads, built the way cli.py builds them but from
    one load of the presentation and one bound context."""
    p = load_presentation(str(corpus / (name + ".pres")), reg)
    result, drv = tietze.auto_simplify(p, reg, max_degree=1)
    out = _cli_json("parse", to_json_dict(p))
    out += _cli_json("simplify", {
        "presentation": to_json_dict(result),
        "moves": [tietze.describe_move(m) for m in drv.steps]})
    ctx = bounds.context_from_relations(p.gens, reg, p.bodies())
    for g in p.gens.names():
        for text in (g, "%s* %s" % (g, g)):
            ub = bounds.norm_bound(parse_term(text, p.gens, reg), ctx)
            out += _cli_json("normbound " + text, {
                "term": text, "upper_bound": str(ub),
                "upper_bound_float": float(ub)})
    assert out.encode("utf-8") == (GOLDEN / (name + ".pres.txt")).read_bytes()
