"""End-to-end tests for the command-line interface.

Everything is driven through main(argv) so that exit codes, stdout/stderr
routing, and manifest side effects are exercised the way a shell user
sees them.  Tests run chdir'ed into a temp dir because the default
manifest path is relative to the working directory.
"""

import hashlib
import json
import re

import jsonschema
import pytest

from cstarpres import __version__
from cstarpres.cli import main, REGISTRY_ENV
from cstarpres.presentation import (load_presentation, parse_presentation,
                                    structural_equal)


@pytest.fixture(autouse=True)
def in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(REGISTRY_ENV, raising=False)
    return tmp_path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def load_schema(schemas_dir, name):
    return json.loads((schemas_dir / name).read_text())


def test_version_line(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0
    assert out.strip() == "cstarpres %s" % __version__


def test_no_command_is_usage_error(capsys):
    code, _, err = run(capsys)
    assert code == 2
    assert "usage" in err


def test_parse_roundtrips_whole_corpus(capsys, corpus, reg):
    # canonical print -> reparse must be structurally identical
    for path in sorted(corpus.glob("*.pres")):
        code, out, _ = run(capsys, "parse", "-p", str(path), "--manifest", "")
        assert code == 0, path.name
        again = parse_presentation(out, reg)
        assert structural_equal(again, load_presentation(str(path), reg)), \
            path.name


def test_parse_json_payload(capsys, corpus):
    code, out, _ = run(capsys, "parse", "-p",
                       str(corpus / "self_adjoint.pres"),
                       "--json", "--manifest", "")
    assert code == 0
    doc = json.loads(out)
    assert list(doc) == ["flavor", "generators", "relations", "notes"]
    assert doc["generators"] == [{"name": "x", "norm": "1"}]


def test_validate_ok_and_failing(capsys, corpus, tmp_path):
    code, out, _ = run(capsys, "validate", "-p",
                       str(corpus / "positive.pres"), "--manifest", "")
    assert code == 0
    assert out.strip() == "ok"

    bad = tmp_path / "bad.pres"
    bad.write_text("flavor: non-unital\n"
                   "generators:\n  x : 1\n"
                   "relations:\n  bad : 1 - x\n")
    code, out, _ = run(capsys, "validate", "-p", str(bad), "--manifest", "")
    assert code == 1
    assert "unital relation in non-unital presentation" in out


def test_check_strict_pass(capsys, corpus):
    drv = str(corpus / "self_adjoint_to_positive.drv")
    code, out, _ = run(capsys, "check", drv, "--strict", "--manifest", "")
    assert code == 0
    assert "overall: PASS" in out
    assert "gaps: 0" in out


def test_check_missing_file_is_exit_2(capsys):
    code, _, err = run(capsys, "check", "missing.drv")
    assert code == 2
    assert err.startswith("error:")


def test_check_end_mismatch_is_exit_1(capsys, corpus, tmp_path):
    (tmp_path / "sa.pres").write_text(
        (corpus / "self_adjoint.pres").read_text())
    script = tmp_path / "bad_end.drv"
    script.write_text("start: sa.pres\n"
                      "end: sa.pres\n"
                      "\n"
                      "1. addrel dup := x - x* by cert[(1) sa_x (1)]\n")
    code, out, _ = run(capsys, "check", str(script), "--manifest", "")
    assert code == 1
    assert "overall: FAIL" in out
    assert "does not match" in out


@pytest.mark.parametrize("step,label,error", [
    ("delrel nosuch by oracle", "delrel nosuch",
     "delrel nosuch: no such relation"),
    ("addgen x : 1 := x", "addgen x", "addgen x: symbol already declared"),
    # bindings the schema cannot build an instance from
    ("addrel t := x = x by fclemma(projection_pair_norm_bound; X = x, "
     "R = x, K = x, lambda = 1/2)", "addrel t",
     "addrel t: schema projection_pair_norm_bound: bindings do not build "
     "an instance (sqrt of negative value)"),
    ("addrel t := x = x by fclemma(projection_pair_norm_bound; X = x, "
     "R = x, K = x, lambda = 0)", "addrel t",
     "addrel t: schema projection_pair_norm_bound: bindings do not build "
     "an instance (ZeroDivisionError)"),
    ("addrel t := x = x by fclemma(polar_isometry; X = x, U = x, "
     "mu = sqrt(2), m = 1)", "addrel t",
     "addrel t: schema polar_isometry: bindings do not build an instance "
     "(not a rational value: sqrt(2))"),
])
def test_check_move_error_is_failed_step(capsys, corpus, tmp_path, step,
                                         label, error):
    (tmp_path / "sa.pres").write_text(
        (corpus / "self_adjoint.pres").read_text())
    script = tmp_path / "bad_move.drv"
    script.write_text("start: sa.pres\n"
                      "end: sa.pres\n"
                      "\n"
                      "1. %s\n" % step)
    code, out, _ = run(capsys, "check", str(script), "--permissive",
                       "--manifest", "")
    assert code == 1
    lines = out.splitlines()
    assert "step 1: %s ... FAIL" % label in lines
    assert "  " + error in lines
    assert lines[-1] == "overall: FAIL (stopped at step 1: %s)" % error


def test_check_nonunital_addgen_with_augmentation_fails(capsys, tmp_path):
    # def_y = y - exp(x) has augmentation -1, so the end presentation would
    # not validate; the norm cap 3 >= e alone would let the step pass
    (tmp_path / "nu.pres").write_text(
        "flavor: non-unital\ngenerators:\n  x : 1\nrelations:\n"
        "  sa_x : x = x*\n")
    (tmp_path / "nu_y.pres").write_text(
        "flavor: non-unital\ngenerators:\n  x : 1\n  y : 3\nrelations:\n"
        "  sa_x : x = x*\n  def_y : y = exp(x)\n")
    script = tmp_path / "nu.drv"
    script.write_text("start: nu.pres\nend: nu_y.pres\n"
                      "1. addgen y : 3 := exp(x)\n")
    code, out, _ = run(capsys, "check", str(script), "--strict",
                       "--manifest", "")
    assert code == 1
    error = ("addgen y: unital relation in non-unital presentation: def_y "
             "has augmentation -1")
    assert out.splitlines() == [
        "mode: strict", "step 1: addgen y ... FAIL", "  " + error,
        "gaps: 0", "overall: FAIL (stopped at step 1: %s)" % error]
    code, out, _ = run(capsys, "validate", "-p", str(tmp_path / "nu_y.pres"),
                       "--manifest", "")
    assert code == 1
    assert out.strip() == ("unital relation in non-unital presentation: "
                           "def_y has augmentation -1")


def test_check_cap_equal_in_value_to_the_bound_passes(capsys, tmp_path):
    # 101 y has norm bound 101*sqrt(103/10201) = sqrt(103), stored with
    # the radicand 101^2*103, which is the cap in a different form
    gens = "flavor: unital\ngenerators:\n  x : sqrt(103)\n" \
        "  y : sqrt(103/10201)\n"
    (tmp_path / "s.pres").write_text(gens + "relations:\n")
    (tmp_path / "s_z.pres").write_text(
        gens + "  z : sqrt(103)\nrelations:\n  def_z : z = 101 y\n")
    script = tmp_path / "s.drv"
    script.write_text("start: s.pres\nend: s_z.pres\n"
                      "1. addgen z : sqrt(103) := 101 y\n")
    code, out, _ = run(capsys, "check", str(script), "--strict",
                       "--manifest", "")
    assert code == 0
    assert out.splitlines()[-2:] == [
        "gaps: 0", "overall: PASS (end presentation matches)"]


def test_check_unparsable_step_is_exit_2(capsys, corpus, tmp_path):
    (tmp_path / "sa.pres").write_text(
        (corpus / "self_adjoint.pres").read_text())
    script = tmp_path / "bad_text.drv"
    script.write_text("start: sa.pres\n"
                      "end: sa.pres\n"
                      "\n"
                      "1. addrel r := x + by oracle\n")
    code, out, err = run(capsys, "check", str(script), "--permissive",
                         "--manifest", "")
    assert code == 2
    assert out == ""
    assert err.startswith("error: line 4:")


def test_check_json_validates_schema(capsys, corpus, schemas_dir):
    drv = str(corpus / "self_adjoint_to_positive.drv")
    code, out, _ = run(capsys, "check", drv, "--json", "--manifest", "")
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, load_schema(schemas_dir, "check_report.schema.json"))
    assert doc["overall"] == "PASS"
    assert doc["gap_count"] == 0
    assert len(doc["steps"]) == 6


def test_check_no_schemas_flag(capsys, corpus):
    drv = str(corpus / "left_inv_chain.drv")
    code, out, _ = run(capsys, "check", drv, "--permissive", "--no-schemas",
                       "--json", "--manifest", "")
    assert code == 0
    doc = json.loads(out)
    assert doc["overall"] == "PASS"
    assert doc["gap_count"] > 0
    kinds = {g["kind"] for st in doc["steps"] for g in st["gaps"]}
    assert kinds == {"schema-unavailable"}

    code, _, _ = run(capsys, "check", drv, "--strict", "--no-schemas",
                     "--manifest", "")
    assert code == 1


def test_repsearch_json_and_manifest(capsys, corpus, schemas_dir, tmp_path):
    pres = str(corpus / "idempotent_lam1.pres")
    code, out, _ = run(capsys, "repsearch", "-p", pres, "--dim", "2",
                       "--json")
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc,
                        load_schema(schemas_dir, "repsearch_report.schema.json"))
    assert doc["best"]["feasible"] is True

    manifest = json.loads((tmp_path / "run-manifest.json").read_text())
    jsonschema.validate(manifest,
                        load_schema(schemas_dir, "manifest.schema.json"))
    assert manifest["command"] == "repsearch"
    assert manifest["tool_version"] == __version__
    assert re.fullmatch(r"[0-9a-f]{64}", manifest["inputs"][pres])
    assert manifest["config"] == {"dim": 2, "seed": 0, "restarts": 8}
    assert manifest["outcome"]["feasible"] is True


def test_refute_finds_idempotent_witness(capsys, corpus):
    # the rank-one projection in d=2 shows x is not redundant
    code, out, _ = run(capsys, "refute", "x", "-p",
                       str(corpus / "idempotent_lam1.pres"),
                       "--dim", "2", "--seed", "7", "--json",
                       "--manifest", "")
    assert code == 0
    doc = json.loads(out)
    assert doc["witness"] is not None
    assert doc["residual"] < 1e-8
    assert doc["value"] > 0.5


def test_refute_without_witness_is_exit_1(capsys, corpus):
    # x - x* vanishes in every representation of <x | x = x*>
    code, out, _ = run(capsys, "refute", "x - x*", "-p",
                       str(corpus / "self_adjoint.pres"),
                       "--dim", "2", "--manifest", "")
    assert code == 1
    assert "no witness" in out


def test_lowerbound_sandwich(capsys, corpus):
    code, out, _ = run(capsys, "lowerbound", "x", "-p",
                       str(corpus / "self_adjoint.pres"),
                       "--dim", "2", "--json", "--manifest", "")
    assert code == 0
    doc = json.loads(out)
    assert doc["lower_bound"] <= doc["upper_bound_float"] + 1e-6
    assert doc["lower_bound"] > 0.9


@pytest.mark.parametrize("flag,value", [
    ("--dim", "0"), ("--dim", "-1"), ("--restarts", "0")])
@pytest.mark.parametrize("command", [
    ("repsearch",), ("refute", "x"), ("lowerbound", "x")],
    ids=["repsearch", "refute", "lowerbound"])
def test_search_size_below_one_is_exit_2(capsys, corpus, tmp_path, command,
                                         flag, value):
    code, out, err = run(capsys, *command, "-p",
                         str(corpus / "self_adjoint.pres"), flag, value)
    assert code == 2
    assert err.strip() == "error: %s must be at least 1, got %s" % (flag,
                                                                    value)
    assert out == ""
    assert not (tmp_path / "run-manifest.json").exists()


@pytest.mark.parametrize("command", [
    ("repsearch",), ("refute", "x"), ("lowerbound", "x")],
    ids=["repsearch", "refute", "lowerbound"])
def test_negative_seed_is_exit_2(capsys, corpus, tmp_path, command):
    code, out, err = run(capsys, *command, "-p",
                         str(corpus / "self_adjoint.pres"), "--seed", "-1")
    assert code == 2
    assert err.strip() == "error: --seed must be at least 0, got -1"
    assert out == ""
    assert not (tmp_path / "run-manifest.json").exists()


def test_normbound_payload(capsys, corpus):
    code, out, _ = run(capsys, "normbound", "x* x", "-p",
                       str(corpus / "left_invertible.pres"),
                       "--json", "--manifest", "")
    assert code == 0
    doc = json.loads(out)
    assert doc["upper_bound_float"] == 4.0


def test_unitize_cli(capsys, corpus):
    code, out, _ = run(capsys, "unitize", "-p",
                       str(corpus / "self_adjoint_c.pres"),
                       "--json", "--manifest", "")
    assert code == 0
    doc = json.loads(out)
    assert doc["flavor"] == "unital"
    assert any("unitized" in n for n in doc["notes"])


def test_split_cli(capsys, corpus):
    code, out, _ = run(capsys, "split", "-p",
                       str(corpus / "left_inv_end.pres"),
                       "--json", "--manifest", "")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["factors"]) == 2
    gens = sorted(g["name"] for f in doc["factors"]
                  for g in f["generators"])
    assert gens == ["q", "u"]


def test_simplify_cli(capsys, corpus):
    code, out, _ = run(capsys, "simplify", "-p",
                       str(corpus / "norm_pitfall.pres"),
                       "--json", "--manifest", "")
    assert code == 0
    doc = json.loads(out)
    assert doc["moves"] == []   # nothing eliminable without a gap


def test_simplify_negative_degree_is_exit_2(capsys, corpus, tmp_path):
    code, out, err = run(capsys, "simplify", "-p",
                         str(corpus / "two_projections.pres"),
                         "--degree", "-1")
    assert code == 2
    assert err.strip() == "error: --degree must be at least 0, got -1"
    assert out == ""
    assert not (tmp_path / "run-manifest.json").exists()


def test_manifest_written_by_default(capsys, corpus, tmp_path):
    code, _, _ = run(capsys, "parse", "-p",
                     str(corpus / "self_adjoint.pres"))
    assert code == 0
    manifest = json.loads((tmp_path / "run-manifest.json").read_text())
    assert manifest["command"] == "parse"
    assert manifest["outcome"] == {"generators": 1, "relations": 1}


def test_manifest_empty_path_skips_write(capsys, corpus, tmp_path):
    code, _, _ = run(capsys, "parse", "-p",
                     str(corpus / "self_adjoint.pres"), "--manifest", "")
    assert code == 0
    assert not (tmp_path / "run-manifest.json").exists()


def test_registry_file_is_a_manifest_input(capsys, corpus, tmp_path,
                                           monkeypatch, schemas_dir):
    # two files whose bump differs in one coefficient: the manifest tells
    # them apart by the file's own hash
    pres = str(corpus / "self_adjoint.pres")
    hashes = []
    for coeff in ("1", "2"):
        extra = tmp_path / ("bump%s.reg" % coeff)
        extra.write_text("function bump:\n  piece 0 1 : 0 %s\n" % coeff)
        want = hashlib.sha256(extra.read_bytes()).hexdigest()
        for via_env in (False, True):
            if via_env:
                monkeypatch.setenv(REGISTRY_ENV, str(extra))
                argv = ("parse", "-p", pres)
            else:
                monkeypatch.delenv(REGISTRY_ENV, raising=False)
                argv = ("parse", "-p", pres, "--registry", str(extra))
            code, _, _ = run(capsys, *argv)
            assert code == 0
            manifest = json.loads((tmp_path / "run-manifest.json").read_text())
            jsonschema.validate(
                manifest, load_schema(schemas_dir, "manifest.schema.json"))
            assert manifest["inputs"][str(extra)] == want
        hashes.append(want)
    assert hashes[0] != hashes[1]


def test_parse_prints_a_surd_cap_back(capsys, tmp_path):
    (tmp_path / "q.pres").write_text(
        "flavor: unital\ngenerators:\n  x : sqrt(2)\nrelations:\n"
        "  r : x = x*\n")
    code, out, _ = run(capsys, "parse", "-p", str(tmp_path / "q.pres"),
                       "--manifest", "")
    assert code == 0
    assert "  x : sqrt(2)" in out.splitlines()


def test_sqrt_coefficient_must_be_rational(capsys, tmp_path):
    head = "flavor: unital\ngenerators:\n  x : 1\nrelations:\n"
    (tmp_path / "c.pres").write_text(head + "  r : sqrt(9/4) x = x*\n")
    code, out, _ = run(capsys, "parse", "-p", str(tmp_path / "c.pres"),
                       "--manifest", "")
    assert code == 0
    assert out.splitlines()[-1] == "  r : 3/2 x - x*"
    (tmp_path / "c2.pres").write_text(head + "  r : sqrt(2) x = x*\n")
    code, out, err = run(capsys, "parse", "-p", str(tmp_path / "c2.pres"),
                         "--manifest", "")
    assert (code, out) == (2, "")
    assert err == ("error: line 5: sqrt(2) is irrational and cannot be a "
                   "coefficient\n")


@pytest.mark.parametrize("body", ["exp(exp(x))", "exp(2097152 exp(x))"])
def test_nonunital_augmentation_without_exact_value_is_exit_1(capsys,
                                                              tmp_path, body):
    # e^1 is irrational, and e^(2^21) is past exp's exact bounds: either
    # way the augmentation is undetermined, not an input error
    (tmp_path / "nu.pres").write_text(
        "flavor: non-unital\ngenerators:\n  x : 1\nrelations:\n"
        "  r : %s = 0\n" % body)
    code, out, err = run(capsys, "validate", "-p", str(tmp_path / "nu.pres"),
                         "--manifest", "")
    assert (code, err) == (1, "")
    assert out.strip() == ("relation r: augmentation undetermined in "
                           "non-unital presentation")


def test_registry_env_var(capsys, tmp_path, monkeypatch):
    extra = tmp_path / "extra.reg"
    extra.write_text("function clamp01:\n"
                     "  domain selfadjoint\n"
                     "  piece 0 1 : 0 1\n")
    (tmp_path / "c.pres").write_text(
        "flavor: unital\ngenerators:\n  x : 1\nrelations:\n"
        "  r : x = x*\n  s : clamp01(x* x) = x\n")
    monkeypatch.setenv(REGISTRY_ENV, str(extra))
    code, _, _ = run(capsys, "parse", "-p", str(tmp_path / "c.pres"))
    assert code == 0
    manifest = json.loads((tmp_path / "run-manifest.json").read_text())
    assert (manifest["inputs"][str(extra)]
            == hashlib.sha256(extra.read_bytes()).hexdigest())


# each bad registry file, with the line its error names
BAD_REGISTRY_FILES = {
    "function nopiece:\n  domain selfadjoint\n": 1,
    "function bad:\n  domain entire\n  piece 0 1 : 0 1\n": 2,
    "function back:\n  piece 1 0 : 0 1\n": 2,
    "function gap:\n  piece 0 1 : -5\n  piece 2 3 : -5\n": 3,
    "function overlap:\n  piece 0 2 : 1\n  piece 1 3 : 1\n": 3,
    "function jump:\n  piece 1 2 : 0 1\n  piece 0 1 : 0\n": 2,
    "schema undeclared:\n  vars A\n  gives ?A - ?B\n": 3,
    "function f:\n  piece 0 1 : 1/0\n": 2,
    "function f:\n  piece 0 1/0 : 1\n": 2,
    "function f:\n  piece 0 1 2 : 1\n": 2,
    "function f:\n  piece 0 1\n": 2,
    "function f:\n  piece a 1 : 1\n": 2,
    "function f:\n  piece\n": 2,
    "function f:\n  knot 0 1 : 1\n": 2,
    "# no block yet\n  piece 0 1 : 1\n": 2,
    "function p:\n  piece -100 100 : 0 1\n": 1,
    "function sqrt:\n  domain positive\n  piece 0 10 : 0 1\n": 1,
    "schema sqrt_square:\n  vars A\n  gives ?A - ?A\n": 1,
    "function 9f:\n  piece 0 1 : 1\n": 1,
    "function :\n  piece 0 1 : 1\n": 1,
    "function inv:\n  piece 0 1 : 1\n": 1,
    "function f:\n  piece 0 1 : 1\n\nfunction f:\n  piece 0 1 : 2\n": 4,
    "schema s:\n  vars A\n  assumes ?A\n": 3,
    "function f:\n  piece 0 1 : 1e3000000\n": 2,
    "function f:\n  piece 0 0.5 : 1\n": 2,
    "function f:\n  piece 0 1 : 1e400\n": 2,
    "schema s:\n  vars A 9b\n  gives ?A +\n": 2,
    "schema s:\n  vars A\n  gives ?A +\n": 3,
    "schema s:\n  vars A B A\n  gives ?A - ?B\n": 2,
    "schema s:\n  vars A\n  requires ?A\n  gives no_such_fn(?A)\n": 4,
}


@pytest.mark.parametrize("block", BAD_REGISTRY_FILES)
def test_bad_registry_file_is_exit_2(capsys, corpus, tmp_path, block):
    extra = tmp_path / "bad.reg"
    extra.write_text(block)
    code, _, err = run(capsys, "normbound", "x", "-p",
                       str(corpus / "self_adjoint.pres"),
                       "--registry", str(extra), "--manifest", "")
    assert code == 2
    assert err.startswith("error: registry file: line %d: "
                          % BAD_REGISTRY_FILES[block]), err


# a file that could rebind a builtin name would make the kernel certify
# false statements: with p the identity, pos_x : x >= 0 says nothing, yet
# the bound engine still reads it as x >= 0 and proves ||x - 1/2|| <= 1/2;
# with sqrt the identity, sqrt(x* x)^2 = x* x fails unless x* x is a
# projection, yet it passes as an instance of sqrt_square
@pytest.mark.parametrize("registry, argv", [
    ("function p:\n  piece -100 100 : 0 1\n",
     ("normbound", "x - 1/2", "-p", "sa.pres")),
    ("function sqrt:\n  domain positive\n  piece 0 10 : 0 1\n",
     ("check", "sq.drv", "--strict")),
])
def test_registry_file_cannot_rebind_a_builtin(capsys, tmp_path, registry,
                                               argv):
    head = "flavor: unital\ngenerators:\n  x : 1\nrelations:\n"
    (tmp_path / "sa.pres").write_text(head + "  sa_x : x = x*\n"
                                      "  pos_x : x >= 0\n")
    (tmp_path / "free.pres").write_text(head)
    (tmp_path / "sq.pres").write_text(head + "  s : sqrt(x* x)^2 = x* x\n")
    (tmp_path / "sq.drv").write_text(
        "start: free.pres\nend: sq.pres\n\n1. addrel s := sqrt(x* x)^2 = "
        "x* x by fclemma(sqrt_square; A = x* x)\n")
    (tmp_path / "bad.reg").write_text(registry)
    # under the builtin registry both statements hold
    assert run(capsys, *argv, "--manifest", "")[0] == 0
    code, out, err = run(capsys, *argv, "--registry", str(tmp_path / "bad.reg"),
                         "--manifest", "")
    assert (code, out) == (2, "")
    assert err.startswith("error: registry file: line 1: ")



def test_schema_placeholders_match_whole_identifiers(capsys, tmp_path):
    # with vars A AB, ?AB must not read as ?A followed by B
    (tmp_path / "swap.reg").write_text(
        "schema swap:\n  vars A AB\n  requires ?A - ?AB\n"
        "  gives ?AB - ?A\n")
    head = "flavor: unital\ngenerators:\n  x : 1\n  y : 1\nrelations:\n"
    (tmp_path / "xy.pres").write_text(head + "  r : x = y\n")
    (tmp_path / "yx.pres").write_text(head + "  r : x = y\n  s : y = x\n")
    (tmp_path / "swap.drv").write_text(
        "start: xy.pres\nend: yx.pres\n\n"
        "1. addrel s := y = x by fclemma(swap; A = x, AB = y)\n")
    code, out, err = run(capsys, "check", str(tmp_path / "swap.drv"),
                         "--registry", str(tmp_path / "swap.reg"),
                         "--manifest", "")
    assert (code, err) == (0, "")
    assert "overall: PASS" in out

def test_check_strict_with_permissive_is_exit_2(capsys, corpus):
    drv = str(corpus / "idempotent_to_projections.drv")
    with pytest.raises(SystemExit) as exc:
        main(["check", drv, "--strict", "--permissive", "--manifest", ""])
    assert exc.value.code == 2
    assert "not allowed with" in capsys.readouterr().err


def test_missing_presentation_flag_is_usage_error(capsys):
    code, _, err = run(capsys, "repsearch")
    assert code == 2
    assert "needs -p" in err


def test_parse_error_exit_2(capsys, corpus):
    code, _, err = run(capsys, "normbound", "x +", "-p",
                       str(corpus / "self_adjoint.pres"), "--manifest", "")
    assert code == 2
    assert "error:" in err


def test_bound_past_exp_range_is_exit_2(capsys, tmp_path):
    # e^(e^30) is past what exp_bounds represents exactly
    pres = tmp_path / "big.pres"
    pres.write_text("flavor: unital\ngenerators:\n  x : 30\nrelations:\n"
                    "  a : x - x*\n")
    code, out, err = run(capsys, "normbound", "exp(exp(x))", "-p", str(pres),
                         "--manifest", "")
    assert code == 2
    assert out == ""
    assert err.startswith("error: e^x out of range")


def test_deep_nesting_is_exit_2(capsys, corpus, tmp_path):
    # a term argument and a relation line, each nested past Python's
    # recursion limit
    sa = str(corpus / "self_adjoint.pres")
    deep = tmp_path / "deep.pres"
    deep.write_text("flavor: unital\ngenerators:\n  x : 1\nrelations:\n"
                    "  deep : %sx + x*%s = 0\n" % ("p(" * 400, ")" * 400))
    for argv in (("normbound", "(" * 3000 + "x" + ")" * 3000, "-p", sa),
                 ("normbound", "p(" * 400 + "x + x*" + ")" * 400, "-p", sa),
                 ("parse", "-p", str(deep))):
        code, out, err = run(capsys, *argv, "--manifest", "")
        assert code == 2
        assert out == ""
        assert err == "error: input is nested too deeply\n"


def test_bad_symbol_in_drv_step_reports_its_line(capsys, corpus, tmp_path):
    (tmp_path / "sa.pres").write_text(
        (corpus / "self_adjoint.pres").read_text())
    for step in ("addgen y : 1 := 1/2 z + 1/2",
                 "delrel r by cert[(z) r (1)]"):
        script = tmp_path / "bad_symbol.drv"
        script.write_text("start: sa.pres\nend: sa.pres\n\n1. %s\n" % step)
        code, out, err = run(capsys, "check", str(script), "--manifest", "")
        assert code == 2
        assert out == ""
        assert err == "error: line 4: unknown symbol 'z'\n"
