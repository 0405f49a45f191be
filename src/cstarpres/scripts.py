"""Derivation script files: parse, rebuild, replay, report.

A script is a small text file:

    start: self_adjoint.pres
    end: positive.pres

    1. addgen y : 1 := 1/2 x + 1/2
    2. addrel pos_y := y >= 0 by fclemma(positive_from_interval; A = y)
    3. delrel def_y by cert[(-1/2) def_x (1)]
    4. delgen x via def_x

Presentation paths are resolved relative to the script.  Justifications
are `by cert[(a) rel (b); ...]` (a starred relation is written `rel*`),
`by fclemma(schema; Var = value, ...)`, or `by oracle`.  The step number
prefix is optional and ignored.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field

from .parser import (ParseError, parse_scalar, parse_normvalue, parse_term,
                     split_top)
from .presentation import load_presentation, parse_relation_text
from .terms import NormedSet, valid_ident
from . import tietze


class ScriptError(ValueError):
    pass


@dataclass
class ScriptStep:
    lineno: int
    kind: str  # addrel | delrel | addgen | delgen
    name: str
    text: str = ""  # relation/defining-term source
    cap: str = ""
    via: str = ""
    just_kind: str = ""  # cert | fclemma | oracle
    cert_items: list = field(default_factory=list)  # (a, rel, starred, b)
    schema: str = ""
    bindings: list = field(default_factory=list)  # (var, source text)


@dataclass
class Script:
    path: str
    start_path: str
    end_path: str
    steps: list


_STEP_NO = re.compile(r"^\d+\.\s*")


def _parse_cert(src: str, lineno: int) -> list:
    body = src.strip()
    if not (body.startswith("cert[") and body.endswith("]")):
        raise ScriptError("line %d: malformed cert[...] justification" % lineno)
    items = []
    for raw in split_top(body[len("cert["):-1], ";"):
        s = raw.strip()
        if not s:
            continue
        groups, depth = [], 0  # [open, close] of each top-level (...) group
        for i, ch in enumerate(s):
            if ch == "(" and depth == 0:
                groups.append([i, None])
            depth += (ch == "(") - (ch == ")")
            if depth < 0:
                break
            if ch == ")" and depth == 0:
                groups[-1][1] = i
        if (depth or len(groups) != 2 or groups[0][0] != 0
                or groups[1][1] != len(s) - 1):
            raise ScriptError("line %d: cert summand %r is not "
                              "'(a) relation (b)'" % (lineno, s))
        (_, i), (j, _) = groups
        rel = s[i + 1:j].strip()
        starred = rel.endswith("*")
        if starred:
            rel = rel[:-1].strip()
        if not rel:
            raise ScriptError("line %d: cert summand cites no relation"
                              % lineno)
        items.append((s[1:i], rel, starred, s[j + 1:-1]))
    return items


def _parse_fclemma(src: str, lineno: int) -> tuple[str, list]:
    body = src.strip()
    if not (body.startswith("fclemma(") and body.endswith(")")):
        raise ScriptError("line %d: malformed fclemma(...) justification"
                          % lineno)
    inner = body[len("fclemma("):-1]
    head, _, rest = inner.partition(";")
    schema = head.strip()
    if not schema:
        raise ScriptError("line %d: fclemma needs a schema name" % lineno)
    bindings = []
    for raw in split_top(rest, ","):
        s = raw.strip()
        if not s:
            continue
        var, eq, val = s.partition("=")
        if not eq:
            raise ScriptError("line %d: fclemma binding %r is not "
                              "'var = value'" % (lineno, s))
        bindings.append((var.strip(), val.strip()))
    return schema, bindings


def _attach_justification(step: ScriptStep, src: str, lineno: int):
    s = src.strip()
    if s == "oracle":
        step.just_kind = "oracle"
    elif s.startswith("cert["):
        step.just_kind = "cert"
        step.cert_items = _parse_cert(s, lineno)
    elif s.startswith("fclemma("):
        step.just_kind = "fclemma"
        step.schema, step.bindings = _parse_fclemma(s, lineno)
    else:
        raise ScriptError("line %d: unknown justification %r" % (lineno, s))


def load_script(path: str) -> Script:
    start_path = end_path = None
    steps: list[ScriptStep] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("start:"):
                start_path = line[len("start:"):].strip()
                continue
            if line.startswith("end:"):
                end_path = line[len("end:"):].strip()
                continue
            line = _STEP_NO.sub("", line)
            kind, _, rest = line.partition(" ")
            rest = rest.strip()
            if kind == "addrel":
                head, eq, tail = rest.partition(":=")
                if not eq:
                    raise ScriptError("line %d: addrel needs 'name := text'"
                                      % lineno)
                text, by, just = tail.partition(" by ")
                if not by:
                    raise ScriptError("line %d: addrel needs a justification"
                                      % lineno)
                step = ScriptStep(lineno, "addrel", head.strip(),
                                  text=text.strip())
                _attach_justification(step, just, lineno)
            elif kind == "delrel":
                name, by, just = rest.partition(" by ")
                if not by:
                    raise ScriptError("line %d: delrel needs a justification"
                                      % lineno)
                step = ScriptStep(lineno, "delrel", name.strip())
                _attach_justification(step, just, lineno)
            elif kind == "addgen":
                head, eq, text = rest.partition(":=")
                if not eq:
                    raise ScriptError("line %d: addgen needs "
                                      "'sym : cap := term'" % lineno)
                sym, colon, cap = head.partition(":")
                if not colon:
                    raise ScriptError("line %d: addgen needs a norm cap"
                                      % lineno)
                step = ScriptStep(lineno, "addgen", sym.strip(),
                                  text=text.strip(), cap=cap.strip())
            elif kind == "delgen":
                sym, via_kw, via = rest.partition(" via ")
                if not via_kw:
                    raise ScriptError("line %d: delgen needs 'sym via "
                                      "relation'" % lineno)
                step = ScriptStep(lineno, "delgen", sym.strip(),
                                  via=via.strip())
            else:
                raise ScriptError("line %d: unknown step kind %r"
                                  % (lineno, kind))
            steps.append(step)
    if start_path is None or end_path is None:
        raise ScriptError("%s: script needs start: and end: headers" % path)
    base = os.path.dirname(os.path.abspath(path))
    return Script(path, os.path.join(base, start_path),
                  os.path.join(base, end_path), steps)


def _build_justification(step: ScriptStep, gens: NormedSet, registry):
    if step.just_kind == "oracle":
        return tietze.OraclePending("declared oracle step")
    if step.just_kind == "cert":
        return tietze.Certificate(tuple(
            (parse_term(a, gens, registry), rel, starred,
             parse_term(b, gens, registry))
            for a, rel, starred, b in step.cert_items))
    if step.just_kind == "fclemma":
        schema = registry.schema(step.schema)
        bindings = {}
        for var, text in step.bindings:
            try:
                if schema is not None and var in schema.scalar_vars:
                    bindings[var] = parse_scalar(text)
                elif schema is not None and var in schema.term_vars:
                    bindings[var] = parse_term(text, gens, registry)
                else:
                    # schema not on hand; scalars are the rarer shape
                    try:
                        bindings[var] = parse_scalar(text)
                    except ParseError:
                        bindings[var] = parse_term(text, gens, registry)
            except ValueError as e:
                raise ScriptError("binding %s: %s" % (var, e))
        return tietze.LemmaCitation(step.schema,
                                    tuple(sorted(bindings.items())))
    raise ScriptError("step has no justification")


def build_derivation(script: Script, registry) -> tuple:
    """Parse each step against the generator set in force before it;
    returns the derivation plus one label per move for reporting.

    Each line is one elementary move, except an `addrel` line whose text
    expands to several relations (the `inv` macro gives n_l and n_r):
    it becomes one move per relation, each with the line's justification.

    A pure front end: no move is applied here, so each move is checked
    once, by `tietze.check_derivation`.  Only addgen and delgen change the
    generator set, and they are tracked syntactically.  ScriptError means
    step text that does not parse; a move that cannot be applied is left
    to the replay, which reports it as a failed step."""
    start = load_presentation(script.start_path, registry)
    end = load_presentation(script.end_path, registry)
    gens = start.gens.copy()
    moves = []
    for step in script.steps:
        try:
            if step.kind == "addrel":
                rels = parse_relation_text(step.name, step.text, gens,
                                           registry)
                just = _build_justification(step, gens, registry)
                moves.extend(tietze.AddRelations(r, just) for r in rels)
            elif step.kind == "delrel":
                just = _build_justification(step, gens, registry)
                moves.append(tietze.RemoveRelations(step.name, just))
            elif step.kind == "addgen":
                cap = parse_normvalue(step.cap)
                defining = parse_term(step.text, gens, registry)
                moves.append(tietze.AddGenerators(step.name, cap, defining))
                if step.name not in gens and valid_ident(step.name):
                    gens.add(step.name, cap)
            elif step.kind == "delgen":
                moves.append(tietze.RemoveGenerators(step.name, step.via))
                gens = gens.without(step.name)
            else:  # pragma: no cover - load_script rejects other kinds
                raise ScriptError("unknown step")
        except ValueError as e:
            raise ScriptError("line %d: %s" % (step.lineno, e))
    return (tietze.Derivation(start, tuple(moves), end),
            [tietze.describe_move(m) for m in moves])


def check_script(path: str, mode: str, registry,
                 build_registry=None) -> tuple:
    """Parse a script file, then replay it once with `check_derivation`
    under `registry`.  `build_registry` (default: `registry`) is used for
    parsing only; pass the full registry here when checking with a
    schema-stripped one."""
    script = load_script(path)
    drv, labels = build_derivation(script, build_registry or registry)
    report = tietze.check_derivation(drv, mode, registry)
    return report, labels, script


def render_report(report, labels=None) -> str:
    lines = ["mode: %s" % report.mode]
    for step in report.steps:
        label = step.detail
        if labels and 1 <= step.index <= len(labels):
            label = labels[step.index - 1]
        mark = "ok" if step.status == "ok" else "FAIL"
        lines.append("step %d: %s ... %s" % (step.index, label, mark))
        for kind, desc in step.gaps:
            lines.append("  gap [%s] %s" % (kind, desc))
        if step.status != "ok":
            for note in step.notes:
                lines.append("  %s" % note)
    lines.append("gaps: %d" % report.gap_count)
    lines.append("overall: %s (%s)" % (report.overall, report.end_note))
    return "\n".join(lines)


def report_to_json(report, labels=None) -> dict:
    steps = []
    for step in report.steps:
        label = step.detail
        if labels and 1 <= step.index <= len(labels):
            label = labels[step.index - 1]
        steps.append({
            "index": step.index,
            "kind": step.kind,
            "label": label,
            "status": step.status,
            "gaps": [{"kind": k, "detail": d} for k, d in step.gaps],
            "notes": list(step.notes),
        })
    return {
        "mode": report.mode,
        "overall": report.overall,
        "gap_count": report.gap_count,
        "end_note": report.end_note,
        "steps": steps,
    }


def report_json_text(report, labels=None) -> str:
    return json.dumps(report_to_json(report, labels), indent=2) + "\n"
