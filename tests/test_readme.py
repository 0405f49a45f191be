"""README.md's examples, run as written.

The `$ cstarpres ...` commands of the session block are run through
`cli.main` from the repository root, and their stdout must equal the
lines printed below each.  The `.drv` example is written beside copies
of the corpus presentations it names and must pass strict.
"""

import re
import shlex
from pathlib import Path

import pytest

from cstarpres.cli import REGISTRY_ENV, main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
CORPUS = ROOT / "src" / "cstarpres" / "corpus"


def _code_blocks() -> list[str]:
    return re.findall(r"^```[a-z]*\n(.*?)^```$", README, re.M | re.S)


def _session() -> list[tuple[str, list[str]]]:
    """(command, expected stdout lines) for each `$ cstarpres` line."""
    block, = [b for b in _code_blocks() if b.startswith("$ cstarpres ")]
    runs = []
    for chunk in block.strip("\n").split("\n\n"):
        command, *out = chunk.split("\n")
        runs.append((command[len("$ cstarpres "):], out))
    return runs


SESSION = _session()


@pytest.fixture(autouse=True)
def no_registry_env(monkeypatch):
    monkeypatch.delenv(REGISTRY_ENV, raising=False)


def test_readme_session_has_three_commands():
    assert [c.split()[0] for c, _ in SESSION] == ["check", "refute",
                                                  "normbound"]


@pytest.mark.parametrize("command,expected", SESSION,
                         ids=[c.split()[0] for c, _ in SESSION])
def test_readme_session_output(capsys, monkeypatch, command, expected):
    monkeypatch.chdir(ROOT)
    code = main(shlex.split(command) + ["--manifest", ""])
    assert code == 0
    assert capsys.readouterr().out.splitlines() == expected


def test_readme_drv_example_passes_strict(capsys, tmp_path, monkeypatch):
    block, = [b for b in _code_blocks() if b.startswith("start: ")]
    header = dict(line.split(": ") for line in block.splitlines()[:2])
    for name in header.values():
        (tmp_path / name).write_text((CORPUS / name).read_text())
    (tmp_path / "example.drv").write_text(block)
    monkeypatch.chdir(tmp_path)
    code = main(["check", "example.drv", "--strict", "--manifest", ""])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[-2:] == ["gaps: 0", "overall: PASS (end presentation matches)"]


def test_readme_simplify_example_prints_its_moves(capsys, tmp_path,
                                                  monkeypatch):
    para = README[README.index("`simplify` prints"):]
    para = para[:para.index("\n\n")]
    relations = re.findall(r"`(\w+ : [^`]+)`", para)
    moves, = re.findall(r"prints `(# moves: [^`]+)`", para)
    assert len(relations) == 3
    (tmp_path / "s.pres").write_text(
        "flavor: unital\ngenerators:\n  x : 1\n  y : 1\nrelations:\n"
        + "".join("  %s\n" % r for r in relations))
    monkeypatch.chdir(tmp_path)
    code = main(["simplify", "-p", "s.pres", "--manifest", ""])
    assert code == 0
    assert capsys.readouterr().out.splitlines()[-1] == moves
