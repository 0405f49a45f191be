import json
import time
from fractions import Fraction

import numpy as np
import pytest

from cstarpres import repsearch
from cstarpres.cli import REGISTRY_ENV, main
from cstarpres.exact import XS
from cstarpres.fcalc import load_registry_file
from cstarpres.parser import parse_term
from cstarpres.presentation import (Presentation, Relation,
                                    load_presentation, parse_presentation)
from cstarpres.repsearch import (EvalDiag, EvalError, MatrixRep, SearchConfig,
                                 eval_term, norm_lower_bound, op_norm,
                                 refute_redundancy, result_to_json,
                                 search_feasible)
from cstarpres.terms import (CALL, NF, NormedSet, adj_nf, gen_nf, nf_coerce,
                             star)

NILP = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


def test_eval_examples(reg):
    rep = MatrixRep(2, {"x": NILP})
    got = eval_term(rep, adj_nf("x") * gen_nf("x"), reg)
    assert np.allclose(got, np.diag([0.0, 1.0]))
    rep2 = MatrixRep(2, {"x": np.diag([1.0, 0.0]).astype(complex)})
    x = gen_nf("x")
    assert op_norm(eval_term(rep2, x - x * x, reg)) < 1e-14
    g = NormedSet()
    g.add("y", XS(1))
    rep3 = MatrixRep(2, {"y": np.diag([0.5, 0.25]).astype(complex)})
    t = parse_term("y - p(1/2 y + 1/2 y*)", g, reg)
    assert op_norm(eval_term(rep3, t, reg)) < 1e-14


def test_eval_unit_and_flavor(reg):
    rep = MatrixRep(2, {"x": NILP})
    one = eval_term(rep, nf_coerce(1), reg)
    assert np.allclose(one, np.eye(2))
    rep_nu = MatrixRep(2, {"x": NILP}, flavor="nonunital")
    with pytest.raises(EvalError):
        eval_term(rep_nu, nf_coerce(1) + gen_nf("x"), reg)
    # but unit-free terms evaluate fine
    assert op_norm(eval_term(rep_nu, gen_nf("x"), reg)) == 1.0


def test_eval_entire_functions(reg):
    h = np.array([[0.0, 0.3], [0.3, 0.1]], dtype=complex)
    rep = MatrixRep(2, {"x": h})
    import scipy.linalg
    got = eval_term(rep, parse_term(
        "exp(x)", _gens1(), reg), reg)
    assert np.allclose(got, scipy.linalg.expm(h), atol=1e-12)
    # entire symbols accept non-Hermitian arguments
    rep2 = MatrixRep(2, {"x": NILP})
    got2 = eval_term(rep2, parse_term("exp(x)", _gens1(), reg), reg)
    assert np.allclose(got2, np.eye(2) + NILP, atol=1e-12)


def _gens1():
    g = NormedSet()
    g.add("x", XS(1))
    return g


def test_eval_herm_tolerance_and_diag(reg):
    from cstarpres.terms import call_nf
    t = call_nf("p", gen_nf("x"))  # the parser would reject this shape
    bad = MatrixRep(2, {"x": NILP})
    with pytest.raises(EvalError):
        eval_term(bad, t, reg)
    diag = EvalDiag()
    eval_term(bad, t, reg, diag=diag, strict_herm=False)
    assert diag.herm_err > 0.1


def test_eval_clamp_diagnostics(reg):
    # sqrt clamps a slightly negative eigenvalue, recording the drift
    g = _gens1()
    t = parse_term("sqrt(1/2 x + 1/2 x*)", g, reg, check_domains=False)
    rep = MatrixRep(2, {"x": np.diag([-0.01, 0.25]).astype(complex)})
    diag = EvalDiag()
    got = eval_term(rep, t, reg, diag=diag)
    assert diag.clamp == pytest.approx(0.01)
    assert np.allclose(got, np.diag([0.0, 0.5]), atol=1e-12)


def test_eval_homomorphism_random(reg):
    # the terms carry exp(w) and p(w + w*) atoms, so star(a) must map
    # f(w) to f(w*) with no registry at hand
    rng = np.random.default_rng(5)
    g = NormedSet()
    g.add("x", XS(1))
    g.add("y", XS(2))
    for _ in range(40):
        rep = MatrixRep(3, {
            "x": rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)),
            "y": rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)),
        })
        a = _random_term(rng, 3)
        b = _random_term(rng, 3)
        ea, eb = eval_term(rep, a, reg), eval_term(rep, b, reg)
        # exp atoms reach norms near 1e9, so the tolerances are relative
        na, nb = op_norm(ea), op_norm(eb)
        assert (op_norm(eval_term(rep, a * b, reg) - ea @ eb)
                < 1e-12 * (1 + na * nb))
        assert (op_norm(eval_term(rep, star(a), reg) - ea.conj().T)
                < 1e-12 * (1 + na))
        assert (op_norm(eval_term(rep, a + b, reg) - (ea + eb))
                < 1e-12 * (1 + na + nb))


def _random_term(rng, max_deg):
    """A random polynomial in x, x*, y, y*, exp(w) and p(w + w*), each w a
    random word of one or two letters."""
    from cstarpres.exact import Coeff
    from cstarpres.terms import call_nf
    letters = [gen_nf("x"), adj_nf("x"), gen_nf("y"), adj_nf("y")]

    def word():
        w = nf_coerce(1)
        for _ in range(rng.integers(1, 3)):
            w = w * letters[rng.integers(0, len(letters))]
        return w

    acc = nf_coerce(0)
    for _ in range(rng.integers(1, 5)):
        c = Coeff(Fraction(int(rng.integers(-9, 10)), 4),
                  Fraction(int(rng.integers(-9, 10)), 4))
        term = nf_coerce(c)
        for _ in range(rng.integers(0, max_deg + 1)):
            k = rng.integers(0, len(letters) + 2)
            if k < len(letters):
                term = term * letters[k]
            elif k == len(letters):
                term = term * call_nf("exp", word())
            else:
                w = word()
                term = term * call_nf("p", w + star(w))
        acc = acc + term
    return acc


# relation bodies through every kind of call, each beside "b : x - x* x"
CALL_BODIES = [
    "x y - y x - 1",
    "exp(x) - y",
    "sin(x y) - y*",
    "cos(x + y*) x - x",
    "sqrt(x* x) - y",
    "inv_lb(x* x + 1, 1/2) - y",
    "f_param(1/2 x* x, 2) - y",
    "p(x* x - p(x + x*)) - y",
]


def _fd_grad(fun, theta, h=1e-6):
    """Central differences of a scalar function of a real vector."""
    g = np.zeros_like(theta)
    for i in range(len(theta)):
        tp = theta.copy()
        tp[i] += h
        tm = theta.copy()
        tm[i] -= h
        g[i] = (fun(tp) - fun(tm)) / (2 * h)
    return g


def _kink_free(rep, t, reg, gap=1e-3):
    """No spectral call in t has an eigenvalue within gap of a kink of
    its scalar function: the one-sided slopes there nearly agree."""
    for mono in t:
        for atom in mono:
            if atom.kind != CALL:
                continue
            if not _kink_free(rep, atom.arg, reg, gap):
                return False
            fn = reg.function(atom.sym)
            if fn.domain == "entire":
                continue
            params = tuple(float(p) for p in atom.params)

            def g(v):
                return fn.scalar_fn(float(v), params)
            a = eval_term(rep, atom.arg, reg, strict_herm=False)
            for v in np.linalg.eigvalsh((a + a.conj().T) / 2):
                left = (g(v) - g(v - gap)) / gap
                right = (g(v + gap) - g(v)) / gap
                if abs(left - right) > 0.05:
                    return False
    return True


def _assert_gradient_matches_fd(p, q, d, reg, seed, points=3):
    """2 J^T f, the gradient of the reward stage's cost ||f||^2 that a
    Levenberg-Marquardt step descends along, matches central differences
    of that cost evaluated without any gradient code."""
    rng = np.random.default_rng(seed)
    syms = p.gens.names()
    bodies = [r.body for r in p.relations] + [q]
    objective = repsearch._Objective(p, d, reg, q)
    checked = 0
    for _ in range(50 * points):
        theta = rng.standard_normal(2 * len(syms) * d * d) * 0.6
        rep = repsearch._unpack(theta, syms, d, p.flavor)
        if not all(_kink_free(rep, b, reg) for b in bodies):
            continue

        def f(t):
            r = _residuals(p, t, d, reg, q, objective.reward_bound)
            return r @ r

        res, jac = objective.lsq(theta[None], True)
        grad = 2 * jac[0].T @ res[0]
        fd = _fd_grad(f, theta)
        denom = max(np.linalg.norm(fd), 1e-12)
        assert np.linalg.norm(grad - fd) / denom < 1e-5
        checked += 1
        if checked == points:
            return
    pytest.fail("no generic point found")


def test_gradient_matches_finite_differences(reg, corpus):
    # every corpus presentation, with a reward term on its generators
    paths = sorted(corpus.glob("*.pres"))
    assert len(paths) >= 9
    for i, path in enumerate(paths):
        p = load_presentation(str(path), reg)
        names = p.gens.names()
        q = gen_nf(names[0]) * adj_nf(names[-1])
        _assert_gradient_matches_fd(p, q, 2, reg, seed=i)


@pytest.mark.parametrize("body", CALL_BODIES)
def test_gradient_through_calls_matches_finite_differences(reg, body):
    p = parse_presentation(
        "flavor: unital\ngenerators:\n  x : 1\n  y : 2\nrelations:\n"
        "  a : %s\n  b : x - x* x\n" % body, reg)
    q = parse_term("y* exp(x) + p(x + x*)", p.gens, reg)
    _assert_gradient_matches_fd(p, q, 3, reg, seed=11)


def test_gradient_through_non_hermitian_call_argument(reg):
    # the parser only admits self-adjoint spectral arguments; built
    # directly, p(x y) evaluates p at the symmetrized argument, and the
    # gradient must follow that symmetrization
    from cstarpres.terms import call_nf
    g = NormedSet()
    g.add("x", XS(1))
    g.add("y", XS(2))
    x, y = gen_nf("x"), gen_nf("y")
    p = Presentation("unital", g, (
        Relation("a", call_nf("p", x * y) - y),
        Relation("b", call_nf("sqrt", x + y * y) * x - x)))
    _assert_gradient_matches_fd(p, call_nf("inv_lb", x * y, (XS(1),)), 3,
                                reg, seed=5)


def _residuals(p, theta, d, reg, q=None, bound=None):
    """The polish residual of one parameter row, evaluated without any
    gradient code: each relation's real then imaginary entries, then,
    per generator, the excess of each of its singular values over its
    cap weighted by the square root of the penalty, then, given a reward
    term q, the reward row sqrt(reward) (bound - ||q||_F)."""
    rep = repsearch._unpack(theta, p.gens.names(), d, p.flavor)
    parts = []
    for r in p.relations:
        m = eval_term(rep, r.body, reg, strict_herm=False)
        parts += [m.real.ravel(), m.imag.ravel()]
    w = SearchConfig.penalty ** 0.5
    for s in p.gens.names():
        sv = np.linalg.svd(rep.assign[s], compute_uv=False)
        parts.append(w * np.maximum(0.0, sv - float(p.gens.norm(s))))
    if q is not None:
        parts.append([SearchConfig.reward ** 0.5 * (bound - np.linalg.norm(
            eval_term(rep, q, reg, strict_herm=False)))])
    return np.concatenate(parts)


def _fd_jacobian(fun, theta, h=1e-6):
    """Central differences of a vector function of a real vector."""
    cols = []
    for i in range(len(theta)):
        step = np.zeros_like(theta)
        step[i] = h
        cols.append((fun(theta + step) - fun(theta - step)) / (2 * h))
    return np.stack(cols, axis=1)


def _assert_jacobian_matches_fd(p, d, reg, seed, points=2, q=None):
    """lsq's residuals equal `_residuals`, and its Jacobian matches
    central differences, at points where some cap is exceeded and at
    points inside every cap, each away from kinks; given a reward term
    q, with the reward row."""
    rng = np.random.default_rng(seed)
    syms = p.gens.names()
    caps = [float(p.gens.norm(s)) for s in syms]
    objective = repsearch._Objective(p, d, reg, q)
    bound = objective.reward_bound
    terms = [r.body for r in p.relations] + ([] if q is None else [q])
    for exceeded in (True, False):
        checked = 0
        for _ in range(50 * points):
            theta = rng.standard_normal(2 * len(syms) * d * d) * 0.6
            rep = repsearch._unpack(theta, syms, d, p.flavor)
            if not exceeded:  # shrink into the caps, the largest to 0.8
                theta *= 0.8 / max(op_norm(rep.assign[s]) / c
                                   for s, c in zip(syms, caps))
                rep = repsearch._unpack(theta, syms, d, p.flavor)
            gaps = [op_norm(rep.assign[s]) - c for s, c in zip(syms, caps)]
            if (max(gaps) > 0) != exceeded or min(map(abs, gaps)) < 1e-3:
                continue
            if not all(_kink_free(rep, t, reg) for t in terms):
                continue
            f, jac = objective.lsq(theta[None], q is not None)
            want = _residuals(p, theta, d, reg, q, bound)
            assert np.allclose(f[0], want, rtol=1e-12, atol=1e-12)
            fd = _fd_jacobian(lambda t: _residuals(p, t, d, reg, q, bound),
                              theta)
            denom = max(np.linalg.norm(fd), 1e-12)
            assert np.linalg.norm(jac[0] - fd) / denom < 1e-5
            checked += 1
            if checked == points:
                break
        else:
            pytest.fail("no generic point found (caps exceeded: %s)"
                        % exceeded)


def test_jacobian_matches_finite_differences(reg, corpus):
    paths = sorted(corpus.glob("*.pres"))
    assert len(paths) >= 9
    for i, path in enumerate(paths):
        _assert_jacobian_matches_fd(load_presentation(str(path), reg), 2,
                                    reg, seed=i)


def test_reward_jacobian_matches_finite_differences(reg, corpus):
    # the reward row, with a generator and with a term that shares atoms
    # with a relation body
    paths = sorted(corpus.glob("*.pres"))
    assert len(paths) >= 9
    for i, path in enumerate(paths):
        p = load_presentation(str(path), reg)
        names = p.gens.names()
        for q in (gen_nf(names[0]),
                  gen_nf(names[0]) * adj_nf(names[-1]) + p.relations[0].body):
            _assert_jacobian_matches_fd(p, 2, reg, seed=i, q=q)


@pytest.mark.parametrize("body", CALL_BODIES)
def test_jacobian_through_calls_matches_finite_differences(reg, body):
    # the Jacobian stacks its upstream adjoints on a leading axis, which
    # every call's pullback, entire ones included, must broadcast over;
    # the reward term shares the call atom p(x + x*) with the last body
    p = parse_presentation(
        "flavor: unital\ngenerators:\n  x : 1\n  y : 2\nrelations:\n"
        "  a : %s\n  b : x - x* x\n" % body, reg)
    _assert_jacobian_matches_fd(p, 3, reg, seed=11)
    q = parse_term("y* exp(x) + p(x + x*)", p.gens, reg)
    _assert_jacobian_matches_fd(p, 3, reg, seed=11, q=q)


@pytest.mark.parametrize("d", [2, 3])
def test_cap_rows_measure_the_distance_to_the_cap_ball(reg, corpus, d):
    # the squares of a generator's cap rows sum to p ||X - clip_c(X)||_F^2,
    # clip_c clipping the singular values of X at its cap c
    rng = np.random.default_rng(d)
    for path in sorted(corpus.glob("*.pres")):
        p = load_presentation(str(path), reg)
        objective = repsearch._Objective(p, d, reg)
        syms, caps = objective.syms, objective.caps
        theta = rng.standard_normal((6, 2 * len(syms) * d * d))
        theta *= rng.uniform(0.1, 2.0, (6, 1))
        f, _ = objective.lsq(theta)
        first = 2 * d * d * len(p.relations)
        rows = f[:, first:].reshape(len(theta), len(syms), d)
        for i, th in enumerate(theta):
            rep = repsearch._unpack(th, syms, d, p.flavor)
            for k, (s, c) in enumerate(zip(syms, caps)):
                u, sv, vh = np.linalg.svd(rep.assign[s])
                clipped = (u * np.minimum(sv, c)) @ vh
                want = SearchConfig.penalty * np.linalg.norm(
                    rep.assign[s] - clipped) ** 2
                # inside the ball, X - clipped is rounding of order 1e-16 ||X||
                noise = 1e-24 * (1 + np.linalg.norm(rep.assign[s]) ** 2)
                got = rows[i, k] @ rows[i, k]
                assert got == pytest.approx(want, rel=1e-12, abs=noise)


@pytest.mark.parametrize("x", [np.diag([1.0, -1.0]),
                               np.array([[0.0, 1.0], [1.0, 0.0]])],
                         ids=["diagonal", "swap"])
def test_cap_gradient_at_a_repeated_top_singular_value(reg, x):
    # at 3/2 times a self-adjoint unitary both singular values are 3/2,
    # above the cap 1: sigma_1 is not differentiable there, but the
    # squared distance to the cap ball is, and 2 J^T f is its gradient.
    # With one cap row, u1 v1^H, the relative error was 0.71
    p = parse_presentation(
        "flavor: unital\ngenerators:\n  x : 1\nrelations:\n", reg)
    theta = np.concatenate([1.5 * x.ravel(), np.zeros(4)])
    res, jac = repsearch._Objective(p, 2, reg).lsq(theta[None])
    grad = 2 * jac[0].T @ res[0]

    def cost(t):
        r = _residuals(p, t, 2, reg)
        return r @ r
    fd = _fd_grad(cost, theta)
    assert np.linalg.norm(grad - fd) / np.linalg.norm(fd) < 1e-7


BUMP_REGISTRY = "function bump:\n  domain selfadjoint\n  piece 0 1 : 50 -100\n"


def _call_reward_setup(reg, tmp_path):
    """x self-adjoint, y free, each within its cap, and a registry with
    the piecewise function bump(t) = 50 - 100 t on [0, 1]."""
    path = tmp_path / "bump.reg"
    path.write_text(BUMP_REGISTRY)
    ext = load_registry_file(str(path), reg)
    p = parse_presentation(
        "flavor: unital\ngenerators:\n  x : 1\n  y : 2\nrelations:\n"
        "  a : x - x*\n", ext)
    return p, ext


REWARD_TERMS = ["x y* + exp(x) + 1/2", "inv_lb(x* x, 1/100)",
                "bump(x* x)", "3 y* inv_lb(x* x, 1/1000) - bump(x* x)"]


@pytest.mark.parametrize("text", REWARD_TERMS)
def test_reward_bound_is_above_the_reward_norm(reg, tmp_path, text):
    # the reward row's target exceeds ||Q||_F at every point of the cap
    # box: sampled points, and the origin, where inv_lb is largest
    p, ext = _call_reward_setup(reg, tmp_path)
    q = parse_term(text, p.gens, ext, check_domains=False)
    syms, d = p.gens.names(), 3
    caps = [float(p.gens.norm(s)) for s in syms]
    objective = repsearch._Objective(p, d, ext, q)
    rng = np.random.default_rng(4)
    points = [np.zeros(2 * len(syms) * d * d)]
    for _ in range(40):
        theta = rng.standard_normal(2 * len(syms) * d * d)
        rep = repsearch._unpack(theta, syms, d, p.flavor)
        # shrink into the caps, the largest at a random fraction of its cap
        points.append(theta * rng.uniform(0.05, 1.0) / max(
            op_norm(rep.assign[s]) / c for s, c in zip(syms, caps)))
    for theta in points:
        rep = repsearch._unpack(theta, syms, d, p.flavor)
        norm = np.linalg.norm(eval_term(rep, q, ext, strict_herm=False))
        assert norm <= objective.reward_bound
    assert repsearch._Objective(p, d, ext).reward_bound is None


@pytest.mark.parametrize("cap", [6, 30])
def test_reward_bound_beyond_a_float_is_capped(reg, cap):
    # the kernel's bound of exp(exp(x)) is e^(e^6) ~ 1.6e175 at cap 6,
    # and past exp_bounds' range at cap 30
    p = parse_presentation(
        "flavor: unital\ngenerators:\n  x : %d\nrelations:\n"
        "  a : x - x*\n" % cap, reg)
    q = parse_term("exp(exp(x))", p.gens, reg)
    assert repsearch._Objective(p, 2, reg, q).reward_bound == 1e150


@pytest.mark.parametrize("text, want", [("inv_lb(x* x, 1/100)", 100.0),
                                        ("bump(x* x)", 50.0)])
def test_call_reward_reaches_its_maximum(reg, tmp_path, text, want):
    # the reward stage climbs to the norm the kernel cannot exceed: 1/m
    # for inv_lb at x = 0, bump's 50 there too
    p, ext = _call_reward_setup(reg, tmp_path)
    q = parse_term(text, p.gens, ext, check_domains=False)
    for seed in (1, 9001):
        lb, rep = norm_lower_bound(p, q, 2, SearchConfig(seed=seed), ext)
        assert rep is not None
        assert lb == pytest.approx(want, rel=1e-6)


def test_overflowing_trial_steps_are_rejected_quietly(reg, tmp_path):
    # trial steps of the reward stage overflow expm here: each is rejected
    # for its non-finite cost without a RuntimeWarning (an error under
    # this suite's filterwarnings), and the bound reaches the maximum of
    # 50 - 100 t^2 + e^t on [-1, 1], at t = 0.0050252
    p, ext = _call_reward_setup(reg, tmp_path)
    q = parse_term("bump(x* x) + exp(x)", p.gens, ext, check_domains=False)
    lb, rep = norm_lower_bound(p, q, 3, SearchConfig(seed=1), ext)
    assert rep is not None
    assert abs(lb - 51.00251258399005) <= 1e-12


def test_polished_rows_equal_lone_rows(reg, corpus):
    # restart 0 of a stack of 4 is polished bit for bit as it is alone,
    # though the other rows accept, reject and stop at other iterations;
    # with the reward row too
    for path in sorted(corpus.glob("*.pres")):
        p = load_presentation(str(path), reg)
        objective = repsearch._Objective(p, 2, reg, gen_nf(p.gens.names()[0]))
        theta = np.stack([repsearch._start(objective.caps, 2, 0, idx)
                          for idx in range(4)])
        for reward in (False, True):
            stacked = repsearch._polish(objective, theta, reward)
            alone = repsearch._polish(objective, theta[:1], reward)
            assert np.array_equal(stacked[0], alone[0]), (path.name, reward)


def test_two_projections_needs_no_rescue(reg, corpus):
    # the reward row alone finds ||k|| = 1, where a gradient descent on
    # the penalized objective from the same start ended near 0
    p = load_presentation(str(corpus / "two_projections.pres"), reg)
    cfg = SearchConfig(seed=1, restarts=1)
    res = search_feasible(p, 2, cfg, reg, reward_term=gen_nf("k"))
    assert [o.stage for o in res.outcomes] == ["lm"]
    assert res.outcomes[0].feasible
    assert res.outcomes[0].value == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("g", ["x", "y"])
def test_rescue_runs_only_the_infeasible_rows(reg, corpus, monkeypatch, g):
    # norm_pitfall leaves every restart of x and some of y infeasible
    # after the Levenberg-Marquardt stages at seed 1.  The rescue
    # polishes exactly those rows from their start points times
    # RESCUE_SCALE, bit for bit as the polish of the whole contracted
    # stack gives them, and every restart ends feasible
    p = load_presentation(str(corpus / "norm_pitfall.pres"), reg)
    q = gen_nf(g)
    for seed in (1, 9001):
        cfg = SearchConfig(seed=seed, restarts=12)
        objective = repsearch._Objective(p, 2, reg, q)
        start = np.stack([repsearch._start(objective.caps, 2, seed, idx)
                          for idx in range(cfg.restarts)])
        lm = repsearch._polish(objective,
                               repsearch._polish(objective, start, True))
        left = [i for i, (res, excess, _) in enumerate(
            objective.score(lm, EvalDiag()))
            if not (max(res) < cfg.tol_feas and excess < cfg.tol_cap)]
        assert left
        if seed == 1:
            assert (g == "x") == (len(left) == cfg.restarts)
        seen = []
        polish = repsearch._polish

        def spy(objective, theta, reward=False):
            seen.append(theta)
            return polish(objective, theta, reward)
        monkeypatch.setattr(repsearch, "_polish", spy)
        res = search_feasible(p, 2, cfg, reg, reward_term=q)
        monkeypatch.undo()
        assert len(seen) == 3
        assert np.array_equal(seen[2], start[left] * repsearch.RESCUE_SCALE)
        assert [o.index for o in res.outcomes if o.stage == "rescue"] == left
        assert len(res.feasible) == cfg.restarts, (seed, g)
        every = polish(objective, start * repsearch.RESCUE_SCALE)
        for i in left:
            want = repsearch._unpack(every[i], objective.syms, 2, p.flavor)
            for s in objective.syms:
                assert np.array_equal(res.outcomes[i].rep.assign[s],
                                      want.assign[s])


# (presentation, reward generator, d, seed, feasible restarts of 8, lower
# bound) as recorded with the Adam rescue: ten searches of the 210-search
# grid in BENCH_21.json in which Adam rescued a restart
RESCUE_GRID = [
    ("norm_pitfall", "x", 2, 1, 5, 9.166249607295986e-39),
    ("norm_pitfall", "x", 2, 9001, 7, 1.8300606986425738e-37),
    ("norm_pitfall", "x", 3, 1, 7, 6.773160680717352e-39),
    ("norm_pitfall", "x", 3, 9001, 3, 1.5297624413551368e-39),
    ("norm_pitfall", "y", 2, 1, 8, 1.53209690143486e-39),
    ("norm_pitfall", "y", 2, 9001, 8, 2.3114532136387662e-39),
    ("norm_pitfall", "y", 3, 1, 8, 1.7989214506984033e-39),
    ("norm_pitfall", "y", 3, 9001, 8, 6.87610188069359e-39),
    ("left_invertible", "x", 2, 3, 8, 2.0000000000000067),
    ("left_invertible", "x", 3, 2, 8, 2.000000000000001),
]


def test_rescue_loses_no_grid_search(reg, corpus):
    # no search ends with fewer feasible restarts or a lower bound more
    # than 1e-9 below the Adam rescue's; from a start scaled to 0 instead
    # of by RESCUE_SCALE, both left_invertible searches lose a restart
    pres = {name: load_presentation(str(corpus / (name + ".pres")), reg)
            for name in ("norm_pitfall", "left_invertible")}
    for name, g, d, seed, feasible, lb in RESCUE_GRID:
        res = search_feasible(pres[name], d, SearchConfig(seed=seed), reg,
                              reward_term=gen_nf(g))
        got = max((o.value for o in res.feasible), default=0.0)
        assert len(res.feasible) >= feasible, (name, g, d, seed)
        assert got >= lb - 1e-9, (name, g, d, seed)


def test_rows_stopped_under_the_margin_score_feasible(reg, corpus,
                                                      monkeypatch):
    # the polish and the rescue's polish stop a row once its cost is at
    # most (FEAS_MARGIN tol_feas)^2.  Every such row scores feasible, with
    # its relation residuals and weighted cap excesses under that margin,
    # and the rule changes no row's feasibility flag from what the polish
    # gives without it
    margin = repsearch.FEAS_MARGIN * SearchConfig.tol_feas
    w = SearchConfig.penalty ** 0.5
    stopped = 0
    for path in sorted(corpus.glob("*.pres")):
        p = load_presentation(str(path), reg)
        objective = repsearch._Objective(p, 2, reg, gen_nf(p.gens.names()[0]))
        for seed in (1, 9001):
            start = np.stack([repsearch._start(objective.caps, 2, seed, idx)
                              for idx in range(12)])
            lm = repsearch._polish(objective, start, True)
            starts = (lm, start * repsearch.RESCUE_SCALE)
            for theta in starts:
                ends = []
                for scale in (repsearch.FEAS_MARGIN, 0.0):
                    monkeypatch.setattr(repsearch, "FEAS_MARGIN", scale)
                    ends.append(repsearch._polish(objective, theta))
                monkeypatch.undo()
                flags = [[max(res, default=0.0) < SearchConfig.tol_feas
                          and excess < SearchConfig.tol_cap
                          for res, excess, _ in objective.score(end,
                                                                EvalDiag())]
                         for end in ends]
                assert flags[0] == flags[1], (path.name, seed)
                f, _ = objective.lsq(ends[0])
                under = np.flatnonzero(np.sum(f * f, axis=1) <= margin ** 2)
                if not len(under):
                    continue
                for res, excess, _ in objective.score(ends[0][under],
                                                      EvalDiag()):
                    assert max(res, default=0.0) <= margin * (1 + 1e-9)
                    assert w * excess <= margin * (1 + 1e-9)
                stopped += len(under)
    assert stopped >= 400  # of 432 rows


def _lsq_calls(monkeypatch, p, q, reg):
    """Search p with reward q at d = 2, seed 1 and 12 restarts, counting
    `lsq` calls with and without the reward row."""
    counts = {True: 0, False: 0}
    lsq = repsearch._Objective.lsq

    def counted(self, theta, reward=False):
        counts[reward] += 1
        return lsq(self, theta, reward)
    monkeypatch.setattr(repsearch._Objective, "lsq", counted)
    res = search_feasible(p, 2, SearchConfig(seed=1, restarts=12), reg,
                          reward_term=q)
    monkeypatch.undo()
    assert len(res.feasible) == 12
    assert all(o.stage == "lm" for o in res.outcomes)
    return counts


def test_reward_stage_crosses_a_repeated_singular_value(reg, corpus,
                                                       monkeypatch):
    # the reward drives x towards a self-adjoint unitary, where sigma_1
    # repeats; with one cap row on sigma_1 the stage took 178 calls
    p = load_presentation(str(corpus / "self_adjoint.pres"), reg)
    assert _lsq_calls(monkeypatch, p, gen_nf("x"), reg)[True] <= 60


def test_polish_stops_once_feasible_with_margin(reg, corpus, monkeypatch):
    # without the margin the polish took 97 calls, going on long after
    # every row was feasible
    p = load_presentation(str(corpus / "idempotent_lam1.pres"), reg)
    assert _lsq_calls(monkeypatch, p, gen_nf("x"), reg)[False] <= 40


def test_polish_stops_on_a_flat_jacobian(reg):
    # the relation 1 = 0 has a residual but no gradient inside the cap
    p = parse_presentation(
        "flavor: unital\ngenerators:\n  x : 1\nrelations:\n  one : 1\n",
        reg)
    res = search_feasible(p, 2, SearchConfig(restarts=2), reg)
    assert [o.residual for o in res.outcomes] == [2 ** 0.5] * 2


def test_search_makes_no_scipy_polish(reg, corpus, monkeypatch):
    import scipy.optimize

    def no_least_squares(*args, **kwargs):
        raise AssertionError("least_squares called during a search")
    monkeypatch.setattr(scipy.optimize, "least_squares", no_least_squares)
    p = load_presentation(str(corpus / "idempotent_lam1.pres"), reg)
    res = search_feasible(p, 2, SearchConfig(restarts=2), reg,
                          reward_term=gen_nf("x"))
    assert res.feasible


def test_polish_does_not_stall_at_dim3(reg, corpus):
    # the per-restart least_squares polish took 15 s here, ending 5 of 8
    # restarts at its evaluation budget
    p = load_presentation(str(corpus / "idempotent_lam1.pres"), reg)
    start = time.perf_counter()
    res = search_feasible(p, 3, SearchConfig(seed=2), reg,
                          reward_term=gen_nf("x"))
    assert time.perf_counter() - start < 5.0
    assert len(res.feasible) >= 3


def test_refute_without_sa_r_does_not_stall(reg, corpus, tmp_path,
                                             monkeypatch, capsys):
    # two_projections without sa_r: the per-restart polish took 25 s.
    # r* = r follows from r^2 = r and ||r|| <= 1, but an idempotent of norm
    # 1 + tol_cap can have ||r* - r|| near sqrt(2 tol_cap), which the
    # witness floor used to accept (||term|| = 1.7e-07, exit 0)
    text = (corpus / "two_projections.pres").read_text()
    lines = [ln for ln in text.splitlines() if "sa_r" not in ln]
    (tmp_path / "tp_no_sa_r.pres").write_text("\n".join(lines) + "\n")
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(REGISTRY_ENV, raising=False)
    start = time.perf_counter()
    rc = main(["refute", "-p", "tp_no_sa_r.pres", "r* - r", "--manifest", ""])
    assert time.perf_counter() - start < 5.0
    assert rc == 1
    assert capsys.readouterr().out == "no witness found (inconclusive)\n"


def test_search_idempotent_dim2(reg, corpus):
    p = load_presentation(str(corpus / "idempotent_lam1.pres"), reg)
    res = search_feasible(p, 2, SearchConfig(), reg)
    assert res.feasible
    assert res.best.residual < 1e-8
    # some restart reaches a rank-one idempotent (trace 1)
    traces = [abs(np.trace(np.asarray(o.rep.assign["x"])))
              for o in res.outcomes if o.residual < 1e-8]
    assert any(abs(t - 1.0) < 1e-3 for t in traces)


def test_search_sa_dim1(reg, corpus):
    p = load_presentation(str(corpus / "self_adjoint.pres"), reg)
    res = search_feasible(p, 1, SearchConfig(restarts=3), reg)
    assert res.feasible
    x = res.best.rep.assign["x"][0, 0]
    assert abs(x.imag) < 1e-8 and abs(x) <= 1 + 1e-6


def test_search_determinism(reg, corpus):
    p = load_presentation(str(corpus / "idempotent_lam1.pres"), reg)
    cfg = SearchConfig(restarts=3)
    r1 = search_feasible(p, 2, cfg, reg)
    r2 = search_feasible(p, 2, cfg, reg)
    assert [o.residual for o in r1.outcomes] == [o.residual for o in r2.outcomes]
    for a, b in zip(r1.outcomes, r2.outcomes):
        assert np.array_equal(a.rep.assign["x"], b.rep.assign["x"])


def test_search_determinism_with_calls(reg, corpus):
    p = load_presentation(str(corpus / "left_inv_end.pres"), reg)
    cfg = SearchConfig(restarts=2)
    r1 = search_feasible(p, 2, cfg, reg)
    r2 = search_feasible(p, 2, cfg, reg)
    assert [o.residual for o in r1.outcomes] == [o.residual for o in r2.outcomes]
    for a, b in zip(r1.outcomes, r2.outcomes):
        for s in ("q", "u"):
            assert np.array_equal(a.rep.assign[s], b.rep.assign[s])


def test_frobenius_is_bitwise_norm_per_slice():
    rng = np.random.default_rng(7)
    for d in (1, 2, 3, 4, 8):
        for rows in (1, 3, 12, 50):
            m = (rng.standard_normal((rows, d, d))
                 + 1j * rng.standard_normal((rows, d, d)))
            # _frobenius reads .real / .imag as strided views of m
            got = repsearch._frobenius(m)
            want = [np.linalg.norm(m[i]) for i in range(rows)]
            assert got.tolist() == want


def _polish_residuals(p, reg, restarts=2):
    """Largest relation residual of each restart after the plain polish
    of a seed-0 search at d = 2, without the reward row."""
    objective = repsearch._Objective(p, 2, reg)
    theta = np.stack([repsearch._start(objective.caps, 2, 0, idx)
                      for idx in range(restarts)])
    theta = repsearch._polish(objective, theta)
    return [max(res) for res, _, _ in objective.score(theta, EvalDiag())]


def test_call_free_search_trajectory_is_pinned(reg, corpus):
    # residuals of the call-free polish from seed-0 starts; the
    # evaluator, the Jacobian and the step rule must reproduce them bit
    # for bit
    p = load_presentation(str(corpus / "idempotent_lam1.pres"), reg)
    assert _polish_residuals(p, reg) == [
        6.789689334677435e-17, 1.6257432927352014e-13]


def test_call_search_trajectory_is_pinned(reg, corpus):
    # residuals of a polish through spectral calls from seed-0 starts,
    # reproduced bit for bit
    p = load_presentation(str(corpus / "left_inv_end.pres"), reg)
    assert _polish_residuals(p, reg) == [
        2.0722666188698097e-16, 1.2421719907130696e-15]


def test_search_scores_match_single_evaluations(reg, corpus):
    # the one scoring pass over all restarts gives, bit for bit, what
    # eval_term and op_norm give on each restart's rep alone
    cfg = SearchConfig(restarts=3)
    for path in sorted(corpus.glob("*.pres")):
        p = load_presentation(str(path), reg)
        names = p.gens.names()
        q = gen_nf(names[0]) * adj_nf(names[-1]) + p.relations[0].body
        for o in search_feasible(p, 2, cfg, reg, reward_term=q).outcomes:
            single = [float(np.linalg.norm(
                eval_term(o.rep, r.body, reg, strict_herm=False)))
                for r in p.relations]
            assert o.residuals == single, path.name
            assert o.residual == max(single)
            assert o.cap_excess == max(
                max(0.0, op_norm(o.rep.assign[s]) - float(p.gens.norm(s)))
                for s in names)
            assert o.value == op_norm(
                eval_term(o.rep, q, reg, strict_herm=False)), path.name


def test_search_makes_no_second_evaluation(reg, corpus, monkeypatch):
    def no_eval(*args, **kwargs):
        raise AssertionError("eval_term called during a search")
    monkeypatch.setattr(repsearch, "eval_term", no_eval)
    p = load_presentation(str(corpus / "left_inv_end.pres"), reg)
    cfg = SearchConfig(restarts=2)
    doc = result_to_json(p, search_feasible(p, 2, cfg, reg))
    assert list(doc["best"]["relation_residuals"]) == p.relation_names()
    q = gen_nf("u")
    norm_lower_bound(p, q, 2, cfg, reg)
    refute_redundancy(p, q, 2, cfg, reg)


def test_search_config_has_three_fields():
    for knob in ("polish", "penalty", "tol_feas", "lr", "reward", "tol_cap"):
        with pytest.raises(TypeError):
            SearchConfig(**{knob: 1})
    cfg = SearchConfig(seed=3, restarts=2, max_iters=5)
    assert (cfg.tol_feas, cfg.tol_cap) == (1e-8, 1e-6)


def _calls_presentation(reg):
    return parse_presentation(
        "flavor: unital\ngenerators:\n  x : 1\n  y : 2\nrelations:\n"
        "  a : sqrt(x* x) - y\n  b : exp(x) y - y* cos(x + y*)\n"
        "  c : p(x* x - p(x + x*)) x - x\n", reg)


def test_batched_rows_equal_single_evaluations(reg):
    p = _calls_presentation(reg)
    q = parse_term("y* sin(x) + p(x + x*)", p.gens, reg)
    objective = repsearch._Objective(p, 2, reg, q)
    theta = np.random.default_rng(3).standard_normal((3, 16))
    theta[1] *= 0.3  # inside both caps; rows 0 and 2 pay the cap penalty
    res, jac = objective.lsq(theta, True)
    assert res.shape == (3, 29) and jac.shape == (3, 29, 16)
    for i in range(3):
        one_res, one_jac = objective.lsq(theta[i:i + 1], True)
        assert np.array_equal(res[i], one_res[0])
        assert np.array_equal(jac[i], one_jac[0])


def test_each_call_atom_evaluated_once_per_step(reg, monkeypatch):
    # spectral call atoms: sqrt(x* x), p(x* x - p(x + x*)) and the nested
    # p(x + x*), which the reward term shares
    p = _calls_presentation(reg)
    q = parse_term("y* p(x + x*)", p.gens, reg)
    objective = repsearch._Objective(p, 2, reg, q)
    theta = np.random.default_rng(4).standard_normal((2, 16))
    calls = []
    eigh = np.linalg.eigh

    def counted(a):
        calls.append(a.shape)
        return eigh(a)
    monkeypatch.setattr(np.linalg, "eigh", counted)
    objective.lsq(theta, True)
    assert calls == [(2, 2, 2)] * 3


def test_refute_finds_witness(reg, corpus):
    p = load_presentation(str(corpus / "idempotent_lam1.pres"), reg)
    w = refute_redundancy(p, gen_nf("x"), 2, SearchConfig(), reg)
    assert w is not None
    assert w.residual < 1e-8
    assert w.value > 0.99


def test_refute_inconclusive_on_relation_itself(reg, corpus):
    p = load_presentation(str(corpus / "self_adjoint.pres"), reg)
    x = gen_nf("x")
    assert refute_redundancy(p, x - star(x), 2, SearchConfig(restarts=4),
                             reg) is None
    # x^2 - x*x normalizes to a consequence of x = x*; no witness at any d <= 4
    q = x * x - star(x) * x
    for d in (1, 2, 3, 4):
        assert refute_redundancy(p, q, d, SearchConfig(restarts=4), reg) is None


def test_norm_lower_bound_examples(reg, corpus):
    p = load_presentation(str(corpus / "self_adjoint.pres"), reg)
    val, rep = norm_lower_bound(p, gen_nf("x"), 1, SearchConfig(), reg)
    assert val == pytest.approx(1.0, abs=1e-4)
    p2 = load_presentation(str(corpus / "idempotent_lam1.pres"), reg)
    val2, _ = norm_lower_bound(p2, adj_nf("x") * gen_nf("x"), 2,
                               SearchConfig(), reg)
    assert val2 == pytest.approx(1.0, abs=1e-4)
    p3 = parse_presentation(
        "flavor: unital\ngenerators:\n  x : 1\nrelations:\n  zero : x\n", reg)
    val3, _ = norm_lower_bound(p3, gen_nf("x"), 2, SearchConfig(restarts=4),
                               reg)
    assert val3 < 1e-6


@pytest.mark.parametrize("d,restarts", [(0, 1), (-1, 1), (1, 0), (2, -1)])
def test_search_size_below_one_is_value_error(reg, corpus, d, restarts):
    p = load_presentation(str(corpus / "self_adjoint.pres"), reg)
    cfg = SearchConfig(restarts=restarts)
    x = gen_nf("x")
    for search in (lambda: search_feasible(p, d, cfg, reg),
                   lambda: norm_lower_bound(p, x, d, cfg, reg),
                   lambda: refute_redundancy(p, x - star(x), d, cfg, reg)):
        with pytest.raises(ValueError, match="must be at least 1"):
            search()


def test_result_json_schema(reg, corpus, schemas_dir):
    p = load_presentation(str(corpus / "self_adjoint.pres"), reg)
    res = search_feasible(p, 2, SearchConfig(restarts=2), reg)
    doc = result_to_json(p, res)
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads(
        (schemas_dir / "repsearch_report.schema.json").read_text())
    jsonschema.validate(doc, schema)
    assert doc["dim"] == 2
    assert [r["stage"] for r in doc["restart_results"]] == [
        o.stage for o in res.outcomes]
    mat = doc["best"]["rep"]["assign"]["x"]
    assert len(mat) == 2
    assert len(mat[0][0]) == 2  # re/im pair
    m = np.asarray(res.best.rep.assign["x"])
    assert mat[0][1] == [m[0, 1].real, m[0, 1].imag]
