"""Command-line front end.

Batch interface: presentations and derivation scripts in, reports out.
Exit codes: 0 success / PASS, 1 checked failure (derivation FAIL,
validation findings, no witness), 2 usage or input errors.  Every run
writes a small JSON manifest with input hashes so results can be
reproduced.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

from . import __version__
from .parser import parse_term
from .presentation import (canonical_print, load_presentation, split,
                           to_json_dict, unitize, validate)
from .fcalc import builtin_registry, load_registry_file
from . import bounds, repsearch, scripts, tietze

REGISTRY_ENV = "CSTARPRES_REGISTRY"


class UsageError(ValueError):
    pass


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _registry_path(args) -> str | None:
    return getattr(args, "registry", None) or os.environ.get(REGISTRY_ENV)


def _load_registry(args):
    reg = builtin_registry()
    path = _registry_path(args)
    if path:
        reg = load_registry_file(path, reg)
    return reg


def _check_registry(reg, args):
    if getattr(args, "no_schemas", False):
        return reg.without_schemata()
    return reg


def _need_presentation(args, reg):
    if not args.presentation:
        raise UsageError("this command needs -p/--presentation")
    return load_presentation(args.presentation, reg)


def _mode(args) -> str:
    return "permissive" if args.permissive else "strict"


def _search_config(args) -> repsearch.SearchConfig:
    for flag, value in (("--dim", args.dim), ("--restarts", args.restarts)):
        if value < 1:
            raise UsageError("%s must be at least 1, got %d" % (flag, value))
    if args.seed < 0:
        raise UsageError("--seed must be at least 0, got %d" % args.seed)
    return repsearch.SearchConfig(seed=args.seed, restarts=args.restarts)


def _write_manifest(args, command: str, inputs: list, config: dict,
                    outcome: dict):
    # a registry file defines functions and schemata, so its bytes are an
    # input like any other
    inputs = list(inputs) + [_registry_path(args)]
    manifest = {
        "command": command,
        "argv": sys.argv[1:],
        "inputs": {p: _sha256(p) for p in inputs if p and os.path.exists(p)},
        "config": config,
        "tool_version": __version__,
        "outcome": outcome,
    }
    path = args.manifest
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return manifest


def _emit(args, text: str, payload: dict):
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(text)


# -- subcommands ----------------------------------------------------------------


def _cmd_parse(args, reg) -> int:
    p = _need_presentation(args, reg)
    text = canonical_print(p)
    _emit(args, text.rstrip("\n"), to_json_dict(p))
    _write_manifest(args, "parse", [args.presentation], {},
                    {"generators": len(p.gens.names()),
                     "relations": len(p.relations)})
    return 0


def _cmd_validate(args, reg) -> int:
    p = _need_presentation(args, reg)
    diags = validate(p, reg)
    payload = {"diagnostics": diags, "ok": not diags}
    _emit(args, "\n".join(diags) if diags else "ok", payload)
    _write_manifest(args, "validate", [args.presentation], {}, payload)
    return 1 if diags else 0


def _cmd_check(args, reg) -> int:
    mode = _mode(args)
    report, labels, script = scripts.check_script(
        args.derivation, mode, _check_registry(reg, args), build_registry=reg)
    payload = scripts.report_to_json(report, labels)
    _emit(args, scripts.render_report(report, labels), payload)
    _write_manifest(args, "check", [args.derivation, script.start_path,
                                    script.end_path],
                    {"mode": mode, "no_schemas": bool(args.no_schemas)},
                    {"overall": report.overall,
                     "gap_count": report.gap_count})
    return 0 if report.overall == "PASS" else 1


def _cmd_simplify(args, reg) -> int:
    if args.degree < 0:
        raise UsageError("--degree must be at least 0, got %d" % args.degree)
    p = _need_presentation(args, reg)
    result, drv = tietze.auto_simplify(p, reg, max_degree=args.degree)
    moves = [tietze.describe_move(m) for m in drv.steps]
    text = canonical_print(result).rstrip("\n")
    if moves:
        text += "\n# moves: " + "; ".join(moves)
    payload = {"presentation": to_json_dict(result), "moves": moves}
    _emit(args, text, payload)
    _write_manifest(args, "simplify", [args.presentation],
                    {"degree": args.degree}, {"moves": len(moves)})
    return 0


def _cmd_split(args, reg) -> int:
    p = _need_presentation(args, reg)
    factors = split(p)
    blocks = [canonical_print(f).rstrip("\n") for f in factors]
    payload = {"factors": [to_json_dict(f) for f in factors]}
    _emit(args, ("\n" + "-" * 8 + "\n").join(blocks), payload)
    _write_manifest(args, "split", [args.presentation], {},
                    {"factors": len(factors)})
    return 0


def _cmd_unitize(args, reg) -> int:
    p = _need_presentation(args, reg)
    u = unitize(p, reg)
    _emit(args, canonical_print(u).rstrip("\n"), to_json_dict(u))
    _write_manifest(args, "unitize", [args.presentation], {},
                    {"flavor": u.flavor})
    return 0


def _cmd_normbound(args, reg) -> int:
    p = _need_presentation(args, reg)
    t = parse_term(args.term, p.gens, reg)
    ctx = bounds.context_from_relations(p.gens, reg, p.bodies())
    ub = bounds.norm_bound(t, ctx)
    payload = {"term": args.term, "upper_bound": str(ub),
               "upper_bound_float": float(ub)}
    _emit(args, "norm upper bound: %s (~ %.6g)" % (ub, float(ub)), payload)
    _write_manifest(args, "normbound", [args.presentation], {}, payload)
    return 0


def _cmd_repsearch(args, reg) -> int:
    p = _need_presentation(args, reg)
    cfg = _search_config(args)
    result = repsearch.search_feasible(p, args.dim, cfg, reg)
    payload = repsearch.result_to_json(p, result)
    best = result.best
    text = ("best residual %.3e, cap excess %.3e, feasible: %s "
            "(%d/%d restarts feasible)"
            % (best.residual, best.cap_excess, best.feasible,
               len(result.feasible), cfg.restarts))
    _emit(args, text, payload)
    _write_manifest(args, "repsearch", [args.presentation],
                    {"dim": args.dim, "seed": cfg.seed,
                     "restarts": cfg.restarts},
                    {"best_residual": best.residual,
                     "feasible": best.feasible})
    return 0 if result.feasible else 1


def _cmd_refute(args, reg) -> int:
    p = _need_presentation(args, reg)
    q = parse_term(args.term, p.gens, reg)
    cfg = _search_config(args)
    witness = repsearch.refute_redundancy(p, q, args.dim, cfg, reg)
    if witness is None:
        payload = {"witness": None,
                   "note": "no witness found; inconclusive"}
        _emit(args, "no witness found (inconclusive)", payload)
        outcome = {"witness": False}
        code = 1
    else:
        payload = {"witness": repsearch.rep_to_json(witness.rep),
                   "residual": witness.residual,
                   "value": witness.value}
        _emit(args, "witness: relation residual %.3e, ||term|| = %.6g"
              % (witness.residual, witness.value), payload)
        outcome = {"witness": True, "value": witness.value}
        code = 0
    _write_manifest(args, "refute", [args.presentation],
                    {"dim": args.dim, "seed": cfg.seed,
                     "restarts": cfg.restarts}, outcome)
    return code


def _cmd_lowerbound(args, reg) -> int:
    p = _need_presentation(args, reg)
    t = parse_term(args.term, p.gens, reg)
    cfg = _search_config(args)
    value, rep = repsearch.norm_lower_bound(p, t, args.dim, cfg, reg)
    ctx = bounds.context_from_relations(p.gens, reg, p.bodies())
    ub = bounds.norm_bound(t, ctx)
    payload = {"term": args.term, "lower_bound": value,
               "upper_bound": str(ub), "upper_bound_float": float(ub),
               "rep": None if rep is None else repsearch.rep_to_json(rep)}
    _emit(args, "norm in [%.6g, %s]" % (value, ub), payload)
    _write_manifest(args, "lowerbound", [args.presentation],
                    {"dim": args.dim, "seed": cfg.seed,
                     "restarts": cfg.restarts},
                    {"lower_bound": value})
    return 0


def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cstarpres",
        description="workbench for C*-algebra presentations: exact terms, "
                    "checkable moves, representation search")
    ap.add_argument("--version", action="store_true",
                    help="print tool version")
    sub = ap.add_subparsers(dest="command")

    def common(sp, presentation=True, search=False):
        if presentation:
            sp.add_argument("-p", "--presentation", help=".pres input file")
        sp.add_argument("--json", action="store_true",
                        help="machine-readable output")
        sp.add_argument("--manifest", default="run-manifest.json",
                        help="manifest output path ('' to skip)")
        sp.add_argument("--registry",
                        help="extra function/schema registry file "
                             "(default: $%s)" % REGISTRY_ENV)
        if search:
            sp.add_argument("--dim", type=int, default=2)
            sp.add_argument("--seed", type=int, default=0)
            sp.add_argument("--restarts", type=int, default=8)

    common(sub.add_parser("parse", help="canonical-print a presentation"))
    common(sub.add_parser("validate", help="report presentation diagnostics"))

    sp = sub.add_parser("check", help="replay a derivation script")
    sp.add_argument("derivation", help=".drv script file")
    mode = sp.add_mutually_exclusive_group()
    mode.add_argument("--strict", action="store_true", default=False,
                      help="strict mode (default)")
    mode.add_argument("--permissive", action="store_true",
                      help="allow gaps, report them")
    sp.add_argument("--no-schemas", action="store_true",
                    help="check without the lemma-schema registry")
    common(sp, presentation=False)

    sp = sub.add_parser("simplify",
                        help="greedy certified simplification")
    sp.add_argument("--degree", type=int, default=1,
                    help="certificate search degree")
    common(sp)

    common(sub.add_parser("split", help="factor into a free product"))
    common(sub.add_parser("unitize",
                          help="unital presentation of a non-unital one"))

    sp = sub.add_parser("normbound", help="sound norm upper bound of a term")
    sp.add_argument("term")
    common(sp)

    sp = sub.add_parser("repsearch",
                        help="search for a feasible matrix representation")
    common(sp, search=True)

    sp = sub.add_parser("refute",
                        help="search for a representation refuting "
                             "redundancy of a term")
    sp.add_argument("term")
    common(sp, search=True)

    sp = sub.add_parser("lowerbound",
                        help="numerical norm lower bound of a term")
    sp.add_argument("term")
    common(sp, search=True)
    return ap


_HANDLERS = {
    "parse": _cmd_parse,
    "validate": _cmd_validate,
    "check": _cmd_check,
    "simplify": _cmd_simplify,
    "split": _cmd_split,
    "unitize": _cmd_unitize,
    "normbound": _cmd_normbound,
    "repsearch": _cmd_repsearch,
    "refute": _cmd_refute,
    "lowerbound": _cmd_lowerbound,
}


def main(argv=None) -> int:
    ap = build_arg_parser()
    args = ap.parse_args(argv)
    if args.version:
        print("cstarpres %s" % __version__)
        return 0
    if not args.command:
        ap.print_usage(sys.stderr)
        return 2
    try:
        reg = _load_registry(args)
        return _HANDLERS[args.command](args, reg)
    except (ValueError, OSError, OverflowError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input is nested too deeply", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
