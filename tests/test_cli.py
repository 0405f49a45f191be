"""End-to-end tests for the command-line interface.

Everything is driven through main(argv) so that exit codes, stdout/stderr
routing, and manifest side effects are exercised the way a shell user
sees them.  Tests run chdir'ed into a temp dir because the default
manifest path is relative to the working directory.
"""

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


def test_version_line(capsys, reg):
    code, out, _ = run(capsys, "--version")
    assert code == 0
    assert out.strip() == "cstarpres %s (registry %s)" % (__version__,
                                                          reg.digest())
    assert re.search(r"registry [0-9a-f]{16}\)$", out.strip())


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


def test_repsearch_json_and_manifest(capsys, corpus, schemas_dir, tmp_path,
                                     reg):
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
    assert manifest["registry_digest"] == reg.digest()
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


def test_registry_env_var(capsys, corpus, tmp_path, monkeypatch, reg):
    extra = tmp_path / "extra.reg"
    extra.write_text("function clamp01:\n"
                     "  domain selfadjoint\n"
                     "  piece 0 1 : 0 1\n")
    monkeypatch.setenv(REGISTRY_ENV, str(extra))
    code, _, _ = run(capsys, "parse", "-p",
                     str(corpus / "self_adjoint.pres"))
    assert code == 0
    manifest = json.loads((tmp_path / "run-manifest.json").read_text())
    assert manifest["registry_digest"] != reg.digest()


@pytest.mark.parametrize("block", [
    "function nopiece:\n  domain selfadjoint\n",
    "function bad:\n  domain entire\n  piece 0 1 : 0 1\n",
    "function back:\n  piece 1 0 : 0 1\n",
    "function gap:\n  piece 0 1 : -5\n  piece 2 3 : -5\n",
    "function overlap:\n  piece 0 2 : 1\n  piece 1 3 : 1\n",
    "function jump:\n  piece 1 2 : 0 1\n  piece 0 1 : 0\n",
    "schema undeclared:\n  vars A\n  gives ?A - ?B\n",
])
def test_bad_registry_file_is_exit_2(capsys, corpus, tmp_path, block):
    extra = tmp_path / "bad.reg"
    extra.write_text(block)
    code, _, err = run(capsys, "normbound", "x", "-p",
                       str(corpus / "self_adjoint.pres"),
                       "--registry", str(extra), "--manifest", "")
    assert code == 2
    assert err.startswith("error: registry file:")



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
