"""The four benchmark workloads.

Each workload's `setup` returns its items.  An item is one unit of user
work: one derivation replay, one sandwich pair (upper bound against
searched lower bound), one refutation, or one generated presentation.
`run` is the timed call into cstarpres; `check` verifies its output
independently and is not timed.

Why these four:
- check_corpus: what checker users run.  Dominated by the bound engine
  (`context_from_relations`) and by the double replay in `check_script`.
- search_calls: presentations whose relations contain function calls, so
  the search takes the finite-difference gradient path (eigh per call
  atom per objective evaluation).
- search_poly: call-free presentations on the analytic gradient and
  least_squares polish; the bypass case for any call-atom optimisation.
- simplify_random: seeded random presentations with a planted redundant
  relation; the only workload where certificate search and NF products
  dominate.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from checks import TOL, replay_problems, rep_satisfies

DIM = 2
# (restarts, max_iters) per search workload.  search_calls uses the
# iteration count of acceptance criterion 8; search_poly the default.
SEARCH_SIZES = {"search_calls": (1, 250), "search_poly": (12, 350)}
SEARCH_PRESENTATIONS = {
    "search_calls": ("positive", "left_invertible", "left_inv_end",
                     "two_projections"),
    "search_poly": ("idempotent", "idempotent_lam1", "norm_pitfall",
                    "self_adjoint", "self_adjoint_c"),
}
REFUTE = ("idempotent_lam1", "x")  # refute_redundancy target in search_poly

# (script, mode, with schemata).  The two heavy replays come first, so the
# time left after the first pass buys second samples of the items that
# dominate wall_s.
REPLAYS = (
    ("idempotent_to_projections", "strict", True),
    ("idempotent_to_projections", "permissive", True),
    ("left_inv_chain", "strict", True),
    ("left_inv_chain", "permissive", True),
    ("left_inv_chain", "permissive", False),
    ("self_adjoint_to_positive", "strict", True),
    ("self_adjoint_to_positive", "permissive", True),
)

SIMPLIFY_COUNT = 80       # generated presentations per pass
SIMPLIFY_RELATIONS = 3    # random relations besides the planted one
SIMPLIFY_TERMS = 3        # terms per random relation, each of degree 2

WORKLOADS = ("check_corpus", "search_calls", "search_poly", "simplify_random")


@dataclass
class Outcome:
    digest: str
    problems: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)


@dataclass
class Item:
    label: str
    run: Callable[[], object]
    check: Callable[[object], Outcome]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def corpus_dir(root: str) -> str:
    return os.path.join(root, "src", "cstarpres", "corpus")


def setup(name: str, root: str, seed: int, reg) -> list[Item]:
    if name == "check_corpus":
        return _check_corpus(root, reg)
    if name in SEARCH_SIZES:
        return _search(name, root, seed, reg)
    if name == "simplify_random":
        return _simplify_random(seed, reg)
    raise ValueError("unknown workload %r" % name)


# -- check_corpus ---------------------------------------------------------

def _check_corpus(root: str, reg) -> list[Item]:
    from cstarpres import scripts

    bare = reg.without_schemata()
    items = []
    for key in REPLAYS:
        script, mode, schemata = key
        path = os.path.join(corpus_dir(root), script + ".drv")

        def run(path=path, mode=mode, schemata=schemata):
            report, labels, parsed = scripts.check_script(
                path, mode, reg if schemata else bare, build_registry=reg)
            return report, parsed, scripts.report_json_text(report, labels)

        def check(out, key=key):
            report, parsed, text = out
            return Outcome(sha256(text), replay_problems(key, report, parsed),
                           {"moves": len(parsed.steps) + len(report.steps)})

        label = "%s:%s%s" % (script, mode, "" if schemata else ":no-schemata")
        items.append(Item(label, run, check))
    return items


# -- search_calls / search_poly ------------------------------------------------

class SearchTap:
    """Keeps every SearchResult that repsearch.search_feasible returns, so
    the reps behind a lower bound or a witness can be re-verified."""

    def __init__(self, repsearch):
        self.results = []
        inner = repsearch.search_feasible

        def search_feasible(*args, **kwargs):
            result = inner(*args, **kwargs)
            self.results.append(result)
            return result

        repsearch.search_feasible = search_feasible

    def take(self) -> list:
        out, self.results = self.results, []
        return out


def _search_problems(pres: str, results: list) -> tuple[list, dict]:
    problems = []
    if len(results) != 1:
        problems.append("expected one search, saw %d" % len(results))
    restarts = sum(len(r.outcomes) for r in results)
    feasible = [o for r in results for o in r.feasible]
    for o in feasible:
        if not rep_satisfies(pres, o.rep.assign):
            problems.append("restart %d called feasible but fails the "
                            "numpy predicates" % o.index)
    return problems, {"pres": pres, "restarts": restarts,
                      "feasible": len(feasible),
                      "flags": [o.feasible for r in results
                                for o in r.outcomes]}


def _search(name: str, root: str, seed: int, reg) -> list[Item]:
    import scipy.linalg  # noqa: F401  (imported lazily by repsearch)
    import scipy.optimize  # noqa: F401
    from cstarpres import bounds, repsearch
    from cstarpres.presentation import load_presentation
    from cstarpres.terms import gen_nf

    restarts, iters = SEARCH_SIZES[name]
    cfg = repsearch.SearchConfig(seed=seed, restarts=restarts,
                                 max_iters=iters)
    tap = SearchTap(repsearch)
    items = []
    for pres in SEARCH_PRESENTATIONS[name]:
        p = load_presentation(os.path.join(corpus_dir(root), pres + ".pres"),
                              reg)
        for g in p.gens.names():
            t = gen_nf(g)

            def run(p=p, t=t):
                lb, _ = repsearch.norm_lower_bound(p, t, DIM, cfg, reg)
                ctx = bounds.context_from_relations(p.gens, reg, p.bodies())
                return lb, float(bounds.norm_bound(t, ctx)), tap.take()

            def check(out, pres=pres, g=g):
                lb, ub, results = out
                problems, stats = _search_problems(pres, results)
                best = max((np.linalg.norm(o.rep.assign[g], 2)
                            for r in results for o in r.feasible),
                           default=0.0)
                if abs(best - lb) > 1e-9:
                    problems.append("lower bound %r is not the best "
                                    "feasible norm %r" % (lb, best))
                if lb > ub + 1e-6:
                    problems.append("lower bound %r exceeds upper bound %r"
                                    % (lb, ub))
                stats["tightness"] = lb / ub
                return Outcome(sha256(json.dumps(stats["flags"])),
                               problems, stats)

            items.append(Item("%s:%s" % (pres, g), run, check))
        if name == "search_poly" and pres == REFUTE[0]:
            items.append(_refute_item(p, cfg, reg, tap))
    return items


def _refute_item(p, cfg, reg, tap: SearchTap) -> Item:
    from cstarpres import repsearch
    from cstarpres.terms import gen_nf

    pres, g = REFUTE
    q = gen_nf(g)

    def run():
        return repsearch.refute_redundancy(p, q, DIM, cfg, reg), tap.take()

    def check(out):
        witness, results = out
        problems, stats = _search_problems(pres, results)
        if witness is not None:
            value = np.linalg.norm(witness.rep.assign[g], 2)
            if not rep_satisfies(pres, witness.rep.assign):
                problems.append("witness fails the numpy predicates")
            if value <= 10 * cfg.tol_feas or abs(value - witness.value) > TOL:
                problems.append("witness value %r, numpy norm %r"
                                % (witness.value, value))
        return Outcome(sha256(json.dumps(stats["flags"])), problems, stats)

    return Item("refute:%s:%s" % REFUTE, run, check)


# -- simplify_random ----------------------------------------------------------

_LETTERS = ("x", "x*", "y", "y*")


def _coeff(rng: random.Random) -> str:
    sign = "-" if rng.random() < 0.5 else ""
    return "%s%d/%d" % (sign, rng.choice((1, 2, 3, 5)), rng.choice((1, 2, 3, 4)))


def _word(rng: random.Random, length: int) -> str:
    return " ".join(rng.choice(_LETTERS) for _ in range(length))


def random_presentation(rng: random.Random) -> str:
    """Presentation text on x, y with random degree-2 relations and one
    planted relation a r_i^(*) b + c r_j^(*) d, where the words a, b and
    c, d have total degree 1; the plant is in the ideal of the others by
    a degree-1 certificate."""
    rels = [" + ".join("(%s) (%s)" % (_coeff(rng), _word(rng, 2))
                       for _ in range(SIMPLIFY_TERMS))
            for _ in range(SIMPLIFY_RELATIONS)]
    summands = []
    for _ in range(2):
        left = rng.random() < 0.5
        word = "(%s)" % _word(rng, 1)
        body = "(%s)%s" % (rng.choice(rels), "*" if rng.random() < 0.5 else "")
        summands.append("(%s) %s" % (
            _coeff(rng), "%s %s" % ((word, body) if left else (body, word))))
    lines = ["flavor: unital", "generators:", "  x : 1", "  y : 1",
             "relations:"]
    lines += ["  r%d : %s = 0" % (i, r) for i, r in enumerate(rels, 1)]
    lines.append("  planted : %s = 0" % " + ".join(summands))
    return "\n".join(lines) + "\n"


def _simplify_random(seed: int, reg) -> list[Item]:
    from cstarpres import scripts, tietze
    from cstarpres.presentation import canonical_print, parse_presentation

    rng = random.Random(seed)
    items = []
    for i in range(SIMPLIFY_COUNT):
        p = parse_presentation(random_presentation(rng), reg)

        def run(p=p):
            return tietze.auto_simplify(p, reg)

        def check(out, p=p):
            end, drv = out
            report = tietze.check_derivation(drv, "strict", reg)
            problems = []
            if report.overall != "PASS":
                problems.append("emitted derivation re-checks %s: %s"
                                % (report.overall, report.end_note))
            removed = len(p.relations) - len(end.relations)
            if removed < 1:
                problems.append("no relation removed")
            text = canonical_print(end) + scripts.report_json_text(report)
            return Outcome(sha256(text), problems, {"removed": removed})

        items.append(Item("random:%d" % i, run, check))
    return items
