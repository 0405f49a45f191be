"""Finite-dimensional matrix representations, numerically.

Evaluation sends each generator to a complex d x d matrix and extends
homomorphically; function-call atoms go through the eigendecomposition of
the symmetrized argument (entire functions through the matrix
exponential).  On top of evaluation sit a seeded penalized feasibility
search, a redundancy refuter, and a norm lower-bound witness search.
The search's gradient is reverse mode through every atom: divided
differences of the scalar function for spectral calls (Daleckii-Krein)
and the Frechet derivative of the matrix exponential for entire ones.
None of this is trusted by the symbolic kernel: a witness refutes, a
failed search proves nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .terms import ADJ, GEN, NF, UNIT
from .presentation import Presentation


class EvalError(ValueError):
    pass


@dataclass
class MatrixRep:
    dim: int
    assign: dict  # symbol -> complex (dim, dim) ndarray
    flavor: str = "unital"


@dataclass
class EvalDiag:
    herm_err: float = 0.0  # worst relative symmetrization error seen
    clamp: float = 0.0     # worst eigenvalue clamp magnitude


@dataclass
class SearchConfig:
    seed: int = 0
    restarts: int = 8
    max_iters: int = 350
    tol_feas: float = 1e-8
    tol_cap: float = 1e-6
    penalty: float = 10.0
    lr: float = 0.08
    reward: float = 0.05
    polish: bool = True


HERM_TOL = 1e-8
WITNESS_FACTOR = 10.0


def _entire_eval(sym: str, a: np.ndarray) -> np.ndarray:
    from scipy.linalg import expm
    if sym == "exp":
        return expm(a)
    if sym == "sin":
        return (expm(1j * a) - expm(-1j * a)) / 2j
    if sym == "cos":
        return (expm(1j * a) + expm(-1j * a)) / 2
    raise EvalError("no matrix evaluation for entire function %r" % sym)


def _clamp(vals, window: tuple[float | None, float | None]):
    lo, hi = window
    if lo is not None:
        vals = np.maximum(vals, lo)
    if hi is not None:
        vals = np.minimum(vals, hi)
    return vals


def _call_eval(atom, rep: MatrixRep, registry, diag: EvalDiag,
               strict_herm: bool) -> np.ndarray:
    fn = registry.function(atom.sym)
    if fn is None:
        raise EvalError("unknown function symbol %r" % atom.sym)
    a = eval_term(rep, atom.arg, registry, diag, strict_herm)
    if fn.domain == "entire":
        return _entire_eval(atom.sym, a)
    scale = max(1.0, float(np.linalg.norm(a)))
    err = float(np.linalg.norm(a - a.conj().T)) / scale
    if err > diag.herm_err:
        diag.herm_err = err
    if strict_herm and err > HERM_TOL:
        raise EvalError("argument of %s is not Hermitian (relative "
                        "asymmetry %.3g)" % (atom.sym, err))
    h = (a + a.conj().T) / 2
    vals, vecs = np.linalg.eigh(h)
    clamped = _clamp(vals, fn.clamp_window(atom.params))
    drift = float(np.max(np.abs(clamped - vals))) if len(vals) else 0.0
    if drift > diag.clamp:
        diag.clamp = drift
    params = tuple(float(p) for p in atom.params)
    fv = np.array([fn.scalar_fn(float(v), params) for v in clamped])
    return (vecs * fv) @ vecs.conj().T


def eval_term(rep: MatrixRep, t: NF, registry, diag: EvalDiag | None = None,
              strict_herm: bool = True) -> np.ndarray:
    """Homomorphic evaluation of a normal form under the assignment."""
    if diag is None:
        diag = EvalDiag()
    d = rep.dim
    out = np.zeros((d, d), dtype=complex)
    eye = np.eye(d, dtype=complex)
    for mono, c in t.items():
        if mono == UNIT and rep.flavor == "nonunital":
            raise EvalError("unit monomial under a non-unital assignment")
        acc = eye
        for atom in mono:
            if atom.kind == GEN:
                m = rep.assign[atom.sym]
            elif atom.kind == ADJ:
                m = rep.assign[atom.sym].conj().T
            else:
                m = _call_eval(atom, rep, registry, diag, strict_herm)
            acc = acc @ m
        out = out + complex(c) * acc
    return out


def op_norm(m: np.ndarray) -> float:
    return float(np.linalg.norm(m, 2))


# -- parameter packing ---------------------------------------------------------

def _pack(rep: MatrixRep, syms: list[str]) -> np.ndarray:
    parts = []
    for s in syms:
        m = rep.assign[s]
        parts.append(m.real.ravel())
        parts.append(m.imag.ravel())
    return np.concatenate(parts) if parts else np.zeros(0)


def _unpack(theta: np.ndarray, syms: list[str], d: int,
            flavor: str) -> MatrixRep:
    assign = {}
    n = d * d
    for i, s in enumerate(syms):
        re = theta[2 * i * n:(2 * i + 1) * n].reshape(d, d)
        im = theta[(2 * i + 1) * n:(2 * i + 2) * n].reshape(d, d)
        assign[s] = re + 1j * im
    return MatrixRep(d, assign, flavor)


# -- residuals and objective ----------------------------------------------------

def relation_residuals(p: Presentation, rep: MatrixRep, registry,
                       diag: EvalDiag | None = None) -> list[float]:
    return [float(np.linalg.norm(
        eval_term(rep, r.body, registry, diag, strict_herm=False)))
        for r in p.relations]


def cap_excesses(p: Presentation, rep: MatrixRep) -> list[float]:
    out = []
    for s in p.gens.names():
        out.append(max(0.0, op_norm(rep.assign[s]) - float(p.gens.norm(s))))
    return out


# -- reverse-mode gradient ------------------------------------------------------

DD_STEP = 1e-6  # eigenvalue gap below which a divided difference is a derivative


def _divided_differences(g, vals: np.ndarray, fv: np.ndarray) -> np.ndarray:
    """First divided differences of g on the eigenvalues (Daleckii-Krein).

    Pairs closer than DD_STEP (scaled) take a central difference of g at
    their midpoint, so g needs no separate derivative.
    """
    n = len(vals)
    step = DD_STEP * max(1.0, float(np.max(np.abs(vals))))
    delta = np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            gap = vals[i] - vals[j]
            if abs(gap) > step:
                q = (fv[i] - fv[j]) / gap
            else:
                mid = (vals[i] + vals[j]) / 2
                q = (g(mid + step) - g(mid - step)) / (2 * step)
            delta[i, j] = delta[j, i] = q
    return delta


def _entire_pullback(sym: str, a: np.ndarray, bar: np.ndarray) -> np.ndarray:
    """Adjoint of the Frechet derivative of sym at a, applied to bar.

    The adjoint of L_exp(A, .) is L_exp(A^H, .); sin and cos combine the
    exponentials of +-iA as in _entire_eval.
    """
    from scipy.linalg import expm_frechet

    ah = a.conj().T

    def frechet(m):
        return expm_frechet(m, bar, compute_expm=False)
    if sym == "exp":
        return frechet(ah)
    if sym == "sin":
        return (frechet(-1j * ah) + frechet(1j * ah)) / 2
    # cos: _entire_eval has rejected every other symbol
    return (1j * frechet(1j * ah) - 1j * frechet(-1j * ah)) / 2


def _call_vjp(atom, rep: MatrixRep, registry):
    """Value of a call atom and the map from its adjoint to its argument's."""
    fn = registry.function(atom.sym)
    if fn is None:
        raise EvalError("unknown function symbol %r" % atom.sym)
    a = eval_term(rep, atom.arg, registry, strict_herm=False)
    if fn.domain == "entire":
        return (_entire_eval(atom.sym, a),
                lambda bar: _entire_pullback(atom.sym, a, bar))
    window = fn.clamp_window(atom.params)
    params = tuple(float(p) for p in atom.params)

    def g(t):
        return fn.scalar_fn(float(_clamp(t, window)), params)
    vals, vecs = np.linalg.eigh((a + a.conj().T) / 2)
    fv = np.array([g(v) for v in vals])
    delta = _divided_differences(g, vals, fv)
    vh = vecs.conj().T

    def pullback(bar):
        hbar = vecs @ (delta * (vh @ bar @ vecs)) @ vh
        return (hbar + hbar.conj().T) / 2
    return (vecs * fv) @ vh, pullback


def _backward(body: NF, upstream: np.ndarray, rep: MatrixRep, registry,
              grads: dict):
    """Add the adjoint of d eval(body) applied to upstream into grads.

    With upstream = d f / d conj(eval(body)), this adds d f / d conj(X)
    (Wirtinger) to grads[X] for each generator X.  A call atom passes its
    adjoint through _call_vjp and recurses into its argument.
    """
    d = rep.dim
    eye = np.eye(d, dtype=complex)
    for mono, c in body.items():
        mats, pulls = [], {}
        for k, atom in enumerate(mono):
            if atom.kind == GEN:
                mats.append(rep.assign[atom.sym])
            elif atom.kind == ADJ:
                mats.append(rep.assign[atom.sym].conj().T)
            else:
                value, pulls[k] = _call_vjp(atom, rep, registry)
                mats.append(value)
        # prefixes and suffixes around each position
        n = len(mono)
        pre = [eye]
        for k in range(n):
            pre.append(pre[-1] @ mats[k])
        suf = [eye]
        for k in range(n - 1, -1, -1):
            suf.append(mats[k] @ suf[-1])
        suf.reverse()
        cc = complex(c)
        for k, atom in enumerate(mono):
            left, right = pre[k], suf[k + 1]
            if atom.kind == GEN:
                grads[atom.sym] += np.conj(cc) * (
                    left.conj().T @ upstream @ right.conj().T)
            elif atom.kind == ADJ:
                grads[atom.sym] += cc * (right @ upstream.conj().T @ left)
            else:
                bar = np.conj(cc) * (left.conj().T @ upstream @ right.conj().T)
                _backward(atom.arg, pulls[k](bar), rep, registry, grads)


def _objective_and_grad(p: Presentation, theta: np.ndarray, syms: list[str],
                        d: int, registry, cfg: SearchConfig,
                        reward_term: NF | None, reward_w: float):
    """Penalized objective and its gradient with respect to theta."""
    rep = _unpack(theta, syms, d, p.flavor)
    pairs = [(r.body, eval_term(rep, r.body, registry, strict_herm=False))
             for r in p.relations]
    val = sum(float(np.linalg.norm(m)) ** 2 for _, m in pairs)
    svds = {}
    for s in syms:
        u, sv, vh = np.linalg.svd(rep.assign[s])
        svds[s] = (u, sv, vh)
        exc = max(0.0, sv[0] - float(p.gens.norm(s)))
        val += cfg.penalty * exc * exc
    qmat = None
    if reward_term is not None:
        qmat = eval_term(rep, reward_term, registry, strict_herm=False)
        val -= reward_w * float(np.linalg.norm(qmat)) ** 2
    grads = {s: np.zeros((d, d), dtype=complex) for s in syms}
    for body, m in pairs:
        _backward(body, m, rep, registry, grads)
    for s in syms:
        u, sv, vh = svds[s]
        exc = max(0.0, sv[0] - float(p.gens.norm(s)))
        if exc > 0.0:
            grads[s] += cfg.penalty * exc * np.outer(u[:, 0], vh[0])
    if reward_term is not None:
        rgr = {s: np.zeros((d, d), dtype=complex) for s in syms}
        _backward(reward_term, qmat, rep, registry, rgr)
        for s in syms:
            grads[s] -= reward_w * rgr[s]
    flat = []
    for s in syms:
        g = grads[s]
        flat.append(2 * g.real.ravel())
        flat.append(2 * g.imag.ravel())
    return val, np.concatenate(flat)


def _adam(fun_grad, theta: np.ndarray, iters: int, lr: float) -> np.ndarray:
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    b1, b2, eps = 0.9, 0.999, 1e-9
    best, best_val = theta.copy(), float("inf")
    for k in range(1, iters + 1):
        val, g = fun_grad(theta)
        if val < best_val:
            best, best_val = theta.copy(), val
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mh = m / (1 - b1 ** k)
        vh = v / (1 - b2 ** k)
        theta = theta - lr * mh / (np.sqrt(vh) + eps)
    return best


def _residual_vector(p: Presentation, theta: np.ndarray, syms: list[str],
                     d: int, registry, cfg: SearchConfig) -> np.ndarray:
    rep = _unpack(theta, syms, d, p.flavor)
    parts = []
    for r in p.relations:
        m = eval_term(rep, r.body, registry, strict_herm=False)
        parts.append(m.real.ravel())
        parts.append(m.imag.ravel())
    w = cfg.penalty ** 0.5
    for s in syms:
        exc = max(0.0, op_norm(rep.assign[s]) - float(p.gens.norm(s)))
        parts.append(np.array([w * exc]))
    return np.concatenate(parts) if parts else np.zeros(1)


def _run_restart(p: Presentation, d: int, cfg: SearchConfig, registry,
                 idx: int, reward_term: NF | None) -> MatrixRep:
    syms = p.gens.names()
    rng = np.random.default_rng((cfg.seed, idx))
    assign = {}
    for s in syms:
        cap = float(p.gens.norm(s))
        scale = (cap if cap > 0 else 1.0) * 0.5 / max(1.0, d ** 0.5)
        assign[s] = scale * (rng.standard_normal((d, d))
                             + 1j * rng.standard_normal((d, d)))
    rep = MatrixRep(d, assign, p.flavor)
    if not syms:
        return rep
    theta = _pack(rep, syms)

    def fun_grad(th):
        return _objective_and_grad(p, th, syms, d, registry, cfg,
                                   reward_term, cfg.reward)

    theta = _adam(fun_grad, theta, cfg.max_iters, cfg.lr)

    if cfg.polish:
        from scipy.optimize import least_squares
        res = least_squares(
            lambda th: _residual_vector(p, th, syms, d, registry, cfg),
            theta, method="trf", xtol=1e-15, ftol=1e-15, gtol=1e-15,
            max_nfev=300 * max(1, len(theta)))
        theta = res.x
    return _unpack(theta, syms, d, p.flavor)


@dataclass
class RestartOutcome:
    index: int
    residual: float
    cap_excess: float
    feasible: bool
    rep: MatrixRep


@dataclass
class SearchResult:
    dim: int
    config: SearchConfig
    outcomes: list
    diag: EvalDiag = field(default_factory=EvalDiag)

    @property
    def best(self) -> RestartOutcome:
        return min(self.outcomes,
                   key=lambda o: (o.residual + o.cap_excess, o.index))

    @property
    def feasible(self) -> list:
        return [o for o in self.outcomes if o.feasible]


def search_feasible(p: Presentation, d: int, cfg: SearchConfig,
                    registry, reward_term: NF | None = None) -> SearchResult:
    """Penalized random-restart search; deterministic given cfg.seed.

    Raises ValueError unless d >= 1 and cfg.restarts >= 1, so that
    `refute_redundancy` and `norm_lower_bound` never report a search that
    did not run."""
    if d < 1:
        raise ValueError("dimension must be at least 1, got %d" % d)
    if cfg.restarts < 1:
        raise ValueError("restarts must be at least 1, got %d" % cfg.restarts)
    outcomes = []
    diag = EvalDiag()
    for idx in range(cfg.restarts):
        rep = _run_restart(p, d, cfg, registry, idx, reward_term)
        res = relation_residuals(p, rep, registry, diag)
        exc = cap_excesses(p, rep)
        residual = max(res, default=0.0)
        excess = max(exc, default=0.0)
        outcomes.append(RestartOutcome(
            idx, residual, excess,
            residual < cfg.tol_feas and excess < cfg.tol_cap, rep))
    return SearchResult(d, cfg, outcomes, diag)


@dataclass
class Witness:
    rep: MatrixRep
    residual: float
    value: float  # operator norm of the refuted element


def refute_redundancy(p: Presentation, q: NF, d: int, cfg: SearchConfig,
                      registry) -> Witness | None:
    """Search for a near-representation where q evaluates far from zero.

    A witness has every relation residual below tol_feas, caps respected,
    and ||eval(q)|| above 10 * tol_feas: then q is not in the closed ideal
    generated by the relations, so citing it as redundant is refuted.
    Returning None proves nothing.
    """
    result = search_feasible(p, d, cfg, registry, reward_term=q)
    best = None
    for o in result.feasible:
        val = op_norm(eval_term(o.rep, q, registry, strict_herm=False))
        if val > WITNESS_FACTOR * cfg.tol_feas:
            if best is None or val > best.value:
                best = Witness(o.rep, o.residual, val)
    return best


def norm_lower_bound(p: Presentation, t: NF, d: int, cfg: SearchConfig,
                     registry) -> tuple[float, MatrixRep | None]:
    """Best operator norm of t over found feasible representations.

    Always a valid lower bound for the quotient norm up to the search
    tolerances; 0.0 when no feasible representation was found.
    """
    result = search_feasible(p, d, cfg, registry, reward_term=t)
    best_val, best_rep = 0.0, None
    for o in result.feasible:
        val = op_norm(eval_term(o.rep, t, registry, strict_herm=False))
        if val > best_val:
            best_val, best_rep = val, o.rep
    return best_val, best_rep


# -- JSON rendering -------------------------------------------------------------

def matrix_to_json(m: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def rep_to_json(rep: MatrixRep) -> dict:
    return {
        "dim": rep.dim,
        "flavor": rep.flavor,
        "assign": {s: matrix_to_json(m) for s, m in rep.assign.items()},
    }


def result_to_json(p: Presentation, result: SearchResult,
                   registry) -> dict:
    best = result.best
    return {
        "dim": result.dim,
        "seed": result.config.seed,
        "restarts": result.config.restarts,
        "tol_feas": result.config.tol_feas,
        "tol_cap": result.config.tol_cap,
        "restart_results": [
            {"index": o.index, "residual": o.residual,
             "cap_excess": o.cap_excess, "feasible": o.feasible}
            for o in result.outcomes],
        "best": {
            "index": best.index,
            "residual": best.residual,
            "cap_excess": best.cap_excess,
            "feasible": best.feasible,
            "rep": rep_to_json(best.rep),
            "relation_residuals": dict(zip(
                p.relation_names(),
                relation_residuals(p, best.rep, registry))),
        },
        "herm_err": result.diag.herm_err,
        "clamp": result.diag.clamp,
    }
