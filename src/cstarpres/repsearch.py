"""Finite-dimensional matrix representations, numerically.

Evaluation sends each generator to a complex d x d matrix and extends
homomorphically; function-call atoms go through the eigendecomposition of
the symmetrized argument (entire functions through the matrix
exponential).  On top of evaluation sit a seeded penalized feasibility
search, a redundancy refuter, and a norm lower-bound witness search.
Terms are compiled once into plans of complex coefficients and atoms,
and evaluated on stacks of assignments.  A search runs all its restarts
through one Levenberg-Marquardt with a damping per row, its only
optimiser: first with a reward row that pushes the reward term's norm
up, if there is one, then on the relations and caps alone.  Only the
restarts left infeasible run it once more, without the reward row, from
their own start points contracted towards 0.  A cap enters LM as the
distance of its generator to the cap ball, one row per singular value,
and LM without the reward row stops a restart once it is feasible with
a margin.  The Jacobians are reverse mode through every atom, reusing
the products of the forward pass:
divided differences of the scalar function for spectral calls
(Daleckii-Krein) and the Frechet derivative of the matrix exponential
for entire ones.
None of this is trusted by the symbolic kernel: a witness refutes, a
failed search proves nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from . import bounds
from .terms import ADJ, CALL, GEN, NF, UNIT
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
    # unused; kept only because bench/workloads.py passes it, until the
    # bench's next change (ROADMAP item 9)
    max_iters: int = 350
    tol_feas: ClassVar[float] = 1e-8  # feasible: every relation residual below
    tol_cap: ClassVar[float] = 1e-6   # feasible: every cap excess below
    penalty: ClassVar[float] = 10.0   # weight of a squared cap excess
    reward: ClassVar[float] = 0.05    # weight of the reward term's square


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


def _ct(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of every matrix in a stack."""
    return m.conj().swapaxes(-1, -2)


# -- compiled evaluation ---------------------------------------------------------
#
# A term compiles to a plan: one (complex coefficient, atoms) pair per
# monomial, where an atom is (GEN, sym), (ADJ, sym) or (CALL, _Call).
# Equal call atoms share one _Call, so a forward pass evaluates each once.
# Matrices are stacks of shape (R, d, d), one slice per assignment.

class _Call:
    """A function-call atom: its function, float parameters and compiled
    argument."""

    __slots__ = ("sym", "entire", "scalar", "window", "arg")

    def __init__(self, atom, registry, flavor: str, calls: dict):
        fn = registry.function(atom.sym)
        if fn is None:
            raise EvalError("unknown function symbol %r" % atom.sym)
        self.sym = atom.sym
        self.entire = fn.domain == "entire"
        # read only by EvalDiag.clamp: scalar_fn clamps into it itself
        self.window = fn.clamp_window(atom.params)
        params = tuple(float(p) for p in atom.params)
        self.scalar = lambda t: fn.scalar_fn(float(t), params)
        self.arg = _compile(atom.arg, registry, flavor, calls)


def _compile(t: NF, registry, flavor: str, calls: dict) -> list:
    plan = []
    for mono, c in t.items():
        if mono == UNIT and flavor == "nonunital":
            raise EvalError("unit monomial under a non-unital assignment")
        atoms = []
        for atom in mono:
            if atom.kind == CALL:
                call = calls.get(atom)
                if call is None:
                    call = calls[atom] = _Call(atom, registry, flavor, calls)
                atoms.append((CALL, call))
            else:
                atoms.append((atom.kind, atom.sym))
        plan.append((complex(c), tuple(atoms)))
    return plan


def _reward_bound(term: NF, p: Presentation, d: int, registry) -> float:
    """2 sqrt(d) times the kernel's norm bound of `term` under the caps,
    which is above its Frobenius norm at every point of the cap box;
    capped at 1e150, which also stands for a bound beyond a float."""
    try:
        b = float(bounds.norm_bound(term, bounds.Context(p.gens, registry)))
    except OverflowError:
        return 1e150
    return min(2 * d ** 0.5 * b, 1e150)


class _Taped:
    """A call atom's value on the stack, with what its pullback needs."""

    __slots__ = ("value", "arg", "arg_tape", "vecs", "vh", "delta")


class _Pass:
    """One forward evaluation of compiled terms on a stack of assignments.

    `eval` returns a term's value and its tape: the factors and prefix
    products of every monomial.  Call atoms are evaluated once per pass
    and kept, so `backward` reuses every product the forward pass made.
    """

    def __init__(self, assign: dict, d: int, rows: int,
                 diag: EvalDiag | None = None, strict_herm: bool = False):
        self.assign = assign  # symbol -> (R, d, d)
        self.rows = rows
        self.d = d
        self.diag = diag
        self.strict_herm = strict_herm
        self.adjoints = {}
        self.calls = {}

    def _matrix(self, kind: str, x):
        if kind == GEN:
            return self.assign[x]
        if kind == ADJ:
            m = self.adjoints.get(x)
            if m is None:
                m = self.adjoints[x] = _ct(self.assign[x])
            return m
        return self._call(x).value

    def eval(self, plan: list):
        out = np.zeros((self.rows, self.d, self.d), dtype=complex)
        tape = []
        for c, atoms in plan:
            mats = [self._matrix(kind, x) for kind, x in atoms]
            pre = [None]
            for m in mats:
                pre.append(m if pre[-1] is None else pre[-1] @ m)
            acc = np.eye(self.d, dtype=complex) if not mats else pre[-1]
            out = out + c * acc
            tape.append((c, atoms, mats, pre))
        return out, tape

    def _call(self, call: _Call) -> _Taped:
        rec = self.calls.get(call)
        if rec is not None:
            return rec
        rec = self.calls[call] = _Taped()
        a, rec.arg_tape = self.eval(call.arg)
        if call.entire:
            rec.arg = a
            rec.value = _entire_eval(call.sym, a)
            return rec
        if self.diag is not None or self.strict_herm:
            self._check_herm(call, a)
        vals, vecs = np.linalg.eigh((a + _ct(a)) / 2)
        fv = np.array([[call.scalar(v) for v in row] for row in vals])
        rec.vecs, rec.vh = vecs, _ct(vecs)
        rec.delta = np.stack([_divided_differences(call.scalar, v, f)
                              for v, f in zip(vals, fv)])
        rec.value = (vecs * fv[:, None, :]) @ rec.vh
        if self.diag is not None and self.d:
            drift = float(np.max(np.abs(_clamp(vals, call.window) - vals)))
            self.diag.clamp = max(self.diag.clamp, drift)
        return rec

    def _check_herm(self, call: _Call, a: np.ndarray):
        for m in a:
            scale = max(1.0, float(np.linalg.norm(m)))
            err = float(np.linalg.norm(m - m.conj().T)) / scale
            if self.diag is not None and err > self.diag.herm_err:
                self.diag.herm_err = err
            if self.strict_herm and err > HERM_TOL:
                raise EvalError("argument of %s is not Hermitian (relative "
                                "asymmetry %.3g)" % (call.sym, err))

    def backward(self, tape: list, upstream: np.ndarray, grads: dict):
        """Add the adjoint of d eval(term) applied to upstream into grads.

        With upstream = d f / d conj(eval(term)), this adds d f / d conj(X)
        (Wirtinger) to grads[X] for each generator X.  Upstream may stack
        several adjoints on leading axes that broadcast against the rows;
        grads then carries those axes too.  A call atom pulls its adjoint
        back through its taped value and recurses into its argument's
        tape.
        """
        up_h = None
        for c, atoms, mats, pre in tape:
            n = len(atoms)
            suf = [None] * (n + 1)  # suf[k] = mats[k] @ ... @ mats[n-1]
            for k in range(n - 1, 0, -1):
                suf[k] = mats[k] if suf[k + 1] is None else mats[k] @ suf[k + 1]
            for k, (kind, x) in enumerate(atoms):
                left, right = pre[k], suf[k + 1]
                if kind == ADJ:
                    if up_h is None:
                        up_h = _ct(upstream)
                    t = up_h if right is None else right @ up_h
                    if left is not None:
                        t = t @ left
                    grads[x] += c * t
                    continue
                t = upstream if left is None else _ct(left) @ upstream
                if right is not None:
                    t = t @ _ct(right)
                t = c.conjugate() * t
                if kind == GEN:
                    grads[x] += t
                else:
                    rec = self._call(x)
                    self.backward(rec.arg_tape, self._pullback(x, rec, t),
                                  grads)

    @staticmethod
    def _pullback(call: _Call, rec: _Taped, bar: np.ndarray) -> np.ndarray:
        """Map the adjoint of a call's value to the adjoint of its argument."""
        if call.entire:
            return _entire_pullback(call.sym, rec.arg, bar)
        vecs, vh = rec.vecs, rec.vh
        hbar = vecs @ (rec.delta * (vh @ bar @ vecs)) @ vh
        return (hbar + _ct(hbar)) / 2


def eval_term(rep: MatrixRep, t: NF, registry, diag: EvalDiag | None = None,
              strict_herm: bool = True) -> np.ndarray:
    """Homomorphic evaluation of a normal form under the assignment."""
    plan = _compile(t, registry, rep.flavor, {})
    stack = {s: np.asarray(m)[None] for s, m in rep.assign.items()}
    value, _ = _Pass(stack, rep.dim, 1, diag or EvalDiag(),
                     strict_herm).eval(plan)
    return value[0]


def op_norm(m: np.ndarray) -> float:
    return float(np.linalg.svd(m, compute_uv=False)[0])


def _frobenius(m: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix in a stack, bitwise equal to
    np.linalg.norm of each slice: `vecdot` takes the same BLAS dot per
    row that norm's `dot` does (a sum of squares or `einsum` does not)."""
    x = m.reshape(len(m), -1)
    return np.sqrt(np.vecdot(x.real, x.real) + np.vecdot(x.imag, x.imag))


# -- parameter packing ---------------------------------------------------------

def _assign(theta: np.ndarray, syms: list[str], d: int) -> dict:
    """Matrices of a stack of parameter rows, (R, n) -> symbol -> (R, d, d)."""
    rows, n = len(theta), d * d
    out = {}
    for i, s in enumerate(syms):
        re = theta[:, 2 * i * n:(2 * i + 1) * n].reshape(rows, d, d)
        im = theta[:, (2 * i + 1) * n:(2 * i + 2) * n].reshape(rows, d, d)
        out[s] = re + 1j * im
    return out


def _unpack(theta: np.ndarray, syms: list[str], d: int,
            flavor: str) -> MatrixRep:
    return MatrixRep(d, {s: m[0] for s, m in
                         _assign(theta[None], syms, d).items()}, flavor)


def _start(caps: list[float], d: int, seed: int, idx: int) -> np.ndarray:
    """Start point of restart idx, drawn from its own (seed, idx) stream."""
    rng = np.random.default_rng((seed, idx))
    parts = []
    for cap in caps:
        scale = (cap if cap > 0 else 1.0) * 0.5 / max(1.0, d ** 0.5)
        m = scale * (rng.standard_normal((d, d))
                     + 1j * rng.standard_normal((d, d)))
        parts.append(m.real.ravel())
        parts.append(m.imag.ravel())
    return np.concatenate(parts) if parts else np.zeros(0)


# -- reverse-mode gradient ------------------------------------------------------

DD_STEP = 1e-6  # eigenvalue gap below which a divided difference is a derivative
POLISH_ITERS = 300  # stacked Levenberg-Marquardt iterations of the polish
LM_DAMPING = 1e-3  # starting Levenberg-Marquardt damping of every row
RESCUE_SCALE = 0.1  # the rescue's start: a restart's own start times this
# without the reward row, LM stops a row at a cost of (FEAS_MARGIN tol_feas)^2
FEAS_MARGIN = 1e-3


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


def _frechet_exp(m: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Frechet derivative L_exp(m, e) on stacks that broadcast against each
    other: the upper-right block of expm([[m, e], [0, m]])."""
    from scipy.linalg import expm
    d = m.shape[-1]
    lead = np.broadcast_shapes(m.shape[:-2], e.shape[:-2])
    block = np.zeros(lead + (2 * d, 2 * d), dtype=complex)
    block[..., :d, :d] = m
    block[..., d:, d:] = m
    block[..., :d, d:] = e
    return expm(block)[..., :d, d:]


def _entire_pullback(sym: str, a: np.ndarray, bar: np.ndarray) -> np.ndarray:
    """Adjoint of the Frechet derivative of sym at a, applied to bar.

    The adjoint of L_exp(A, .) is L_exp(A^H, .); sin and cos combine the
    exponentials of +-iA as in _entire_eval.
    """
    ah = _ct(a)
    if sym == "exp":
        return _frechet_exp(ah, bar)
    if sym == "sin":
        return (_frechet_exp(-1j * ah, bar) + _frechet_exp(1j * ah, bar)) / 2
    # cos: _entire_eval has rejected every other symbol
    return (1j * _frechet_exp(1j * ah, bar)
            - 1j * _frechet_exp(-1j * ah, bar)) / 2


class _Objective:
    """The search objective of one presentation, compiled once.

    `lsq` maps a stack of parameter rows to the residuals and Jacobians
    that Levenberg-Marquardt minimizes; `score` runs the same compiled
    plans for the final scores.  `reward_bound` is the target of `lsq`'s
    reward row.
    """

    def __init__(self, p: Presentation, d: int, registry,
                 reward_term: NF | None = None):
        self.syms = p.gens.names()
        self.caps = [float(p.gens.norm(s)) for s in self.syms]
        self.d = d
        calls = {}
        self.bodies = [_compile(r.body, registry, p.flavor, calls)
                       for r in p.relations]
        self.reward = (None if reward_term is None else
                       _compile(reward_term, registry, p.flavor, calls))
        self.reward_bound = (None if reward_term is None else
                             _reward_bound(reward_term, p, d, registry))

    def lsq(self, theta: np.ndarray, reward: bool = False):
        """Residuals (R, m) and their Jacobians (R, m, n) of a stack of rows
        (R, n), from one pass: every relation's entries (real parts, then
        imaginary parts), then each generator's d cap rows, then, with
        `reward`, the reward row sqrt(w) (C - ||Q||_F), where Q is the
        reward term's value, C is `reward_bound` and w the reward weight.

        Cap row k of generator X is sqrt(p) max(0, sigma_k - c), from
        the k-th singular value of X, its cap c and the penalty p.  The
        squares of X's cap rows sum to p ||X - clip_c(X)||_F^2, the
        squared distance to the ball of radius c, which is C^1 where the
        top singular value repeats and is not differentiable.

        A relation's rows take one backward pass whose upstream stacks
        the unit adjoints of its entries on a leading axis: E/2 for a
        real part, iE/2 for an imaginary part.  Cap row k's derivative
        is sqrt(p)/2 u_k v_k^H where sigma_k exceeds the cap and zero
        elsewhere.  The reward row's derivative is
        -sqrt(w) / (2 ||Q||_F) times the gradient of ||Q||_F^2, the
        backward pass of Q itself; zero where Q vanishes."""
        rows, d = len(theta), self.d
        fwd = _Pass(_assign(theta, self.syms, d), d, rows)
        units = np.eye(d * d).reshape(d * d, 1, d, d) / 2
        upstream = np.concatenate([units, 1j * units])
        res, jac = [], []
        for plan in self.bodies:
            m, tape = fwd.eval(plan)
            res += [m.real.reshape(rows, -1), m.imag.reshape(rows, -1)]
            grads = {s: np.zeros((2 * d * d, rows, d, d), dtype=complex)
                     for s in self.syms}
            fwd.backward(tape, upstream, grads)
            jac.append(_flatten(grads, self.syms).swapaxes(0, 1))
        w = SearchConfig.penalty ** 0.5
        zero = np.zeros((rows, d, d, d), dtype=complex)
        for s, cap in zip(self.syms, self.caps):
            u, sv, vh = np.linalg.svd(fwd.assign[s])
            exc = np.maximum(0.0, sv - cap)
            res.append(w * exc)
            # outer[:, k] = u_k v_k^H, the derivative of sigma_k
            outer = u.swapaxes(1, 2)[:, :, :, None] * vh[:, :, None, :]
            grads = dict.fromkeys(self.syms, zero)
            grads[s] = np.where((exc > 0.0)[:, :, None, None],
                                w / 2 * outer, 0.0)
            jac.append(_flatten(grads, self.syms))
        if reward:
            w = SearchConfig.reward ** 0.5
            q, tape = fwd.eval(self.reward)
            norm = _frobenius(q)
            res.append(w * (self.reward_bound - norm)[:, None])
            grads = {s: np.zeros((rows, d, d), dtype=complex)
                     for s in self.syms}
            fwd.backward(tape, q, grads)
            scale = np.divide(-w / 2, norm, out=np.zeros(rows),
                              where=norm > 0.0)
            jac.append((scale[:, None] * _flatten(grads, self.syms))[:, None])
        return np.concatenate(res, axis=1), np.concatenate(jac, axis=1)

    def score(self, theta: np.ndarray, diag: EvalDiag) -> list[tuple]:
        """Score a stack of rows in one pass: per row, each relation's
        residual (Frobenius norm), the largest cap excess, and the reward
        term's operator norm, None without a reward term.

        The top singular value comes from an SVD without singular
        vectors, as `op_norm` computes it."""
        fwd = _Pass(_assign(theta, self.syms, self.d), self.d, len(theta),
                    diag)
        norms = [_frobenius(fwd.eval(plan)[0]).tolist()
                 for plan in self.bodies]
        excess = [[max(0.0, top - cap) for top in np.linalg.svd(
            fwd.assign[s], compute_uv=False)[:, 0].tolist()]
            for s, cap in zip(self.syms, self.caps)]
        values = [None] * len(theta)
        if self.reward is not None:
            values = np.linalg.svd(fwd.eval(self.reward)[0],
                                   compute_uv=False)[:, 0].tolist()
        return [([n[i] for n in norms],
                 max((e[i] for e in excess), default=0.0), values[i])
                for i in range(len(theta))]


def _flatten(grads: dict, syms: list[str]) -> np.ndarray:
    """Real gradient of Wirtinger adjoints (..., d, d) per symbol, in the
    parameter layout of `_assign`: (..., n)."""
    parts = []
    for s in syms:
        g = grads[s].reshape(grads[s].shape[:-2] + (-1,))
        parts += [2 * g.real, 2 * g.imag]
    return np.concatenate(parts, axis=-1)


def _polish(objective: _Objective, theta: np.ndarray,
            reward: bool = False) -> np.ndarray:
    """Levenberg-Marquardt on `objective.lsq` (with its reward row when
    `reward`), every row of the stack at once, each with its own damping.

    A step solves (J^T J + lam tr(J^T J)/n I) delta = -J^T f.  A row
    takes its trial point when the cost is finite and falls (then
    lam / 3) and keeps its point otherwise (then lam * 4), so a trial
    that overflows is rejected quietly.  A row stops on a step below
    1e-15 of its norm, a relative cost drop below 1e-15, a zero cost, or
    a damping above 1e16.

    Without the reward row, a row also stops once its cost is at most
    (FEAS_MARGIN tol_feas)^2: then every relation residual is at most
    1e-11 and every cap excess at most 1e-11 / sqrt(penalty), so the row
    scores feasible, and it would have scored feasible had it gone on,
    since no step raises the cost."""
    theta = theta.copy()
    n = theta.shape[1]
    f, jac = objective.lsq(theta, reward)
    cost = np.sum(f * f, axis=1)
    lam = np.full(len(theta), LM_DAMPING)
    floor = 0.0 if reward else (FEAS_MARGIN * SearchConfig.tol_feas) ** 2
    active = cost > floor
    for _ in range(POLISH_ITERS):
        idx = np.flatnonzero(active)
        if not len(idx):
            break
        j = jac[idx]
        jt = j.swapaxes(1, 2)
        a = jt @ j
        # a flat Jacobian takes the scale 1, so its zero step stops the row
        scale = np.trace(a, axis1=1, axis2=2) / n
        mu = lam[idx] * np.where(scale > 0.0, scale, 1.0)
        step = np.linalg.solve(a + mu[:, None, None] * np.eye(n),
                               -(jt @ f[idx][:, :, None]))[:, :, 0]
        x_norm = np.linalg.norm(theta[idx], axis=1)
        trial = theta[idx] + step
        with np.errstate(over="ignore", invalid="ignore"):
            ft, jac_t = objective.lsq(trial, reward)
            ct = np.sum(ft * ft, axis=1)
        ok = np.isfinite(ct) & (ct < cost[idx])
        stalled = ok & (cost[idx] - ct <= 1e-15 * cost[idx])
        took = idx[ok]
        theta[took], f[took], jac[took], cost[took] = (
            trial[ok], ft[ok], jac_t[ok], ct[ok])
        lam[idx] = np.where(ok, np.maximum(lam[idx] / 3, 1e-12),
                            lam[idx] * 4)
        active[idx[stalled | (cost[idx] <= floor)
                   | (lam[idx] > 1e16)
                   | (np.linalg.norm(step, axis=1)
                      <= 1e-15 * (1e-15 + x_norm))]] = False
    return theta


@dataclass
class RestartOutcome:
    index: int
    residual: float    # largest relation residual
    cap_excess: float  # largest cap excess
    feasible: bool
    rep: MatrixRep
    residuals: list    # each relation's residual, in relation order
    value: float | None  # operator norm of the reward term, if any
    stage: str         # "lm", or "rescue" for a restart the rescue redid


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

    Each restart draws its start point from its own (seed, index) stream.
    One Levenberg-Marquardt runs over the stack of all start points, with
    the reward row when there is a reward term, then the polish on the
    relations and caps alone, and one pass scores the stack.  The
    restarts still infeasible are rescued: the polish runs again, without
    the reward row, from their own start points times RESCUE_SCALE, and
    one pass scores the stack again.  They replace their rows; their
    `stage` is "rescue".

    Raises ValueError unless d >= 1 and cfg.restarts >= 1, so that
    `refute_redundancy` and `norm_lower_bound` never report a search that
    did not run."""
    if d < 1:
        raise ValueError("dimension must be at least 1, got %d" % d)
    if cfg.restarts < 1:
        raise ValueError("restarts must be at least 1, got %d" % cfg.restarts)
    objective = _Objective(p, d, registry, reward_term)
    start = np.stack([_start(objective.caps, d, cfg.seed, idx)
                      for idx in range(cfg.restarts)])
    stages = ["lm"] * cfg.restarts
    if not objective.syms:
        return _scored(p, objective, start, stages, cfg)
    theta = start
    if objective.reward is not None:
        theta = _polish(objective, theta, reward=True)
    theta = _polish(objective, theta)
    result = _scored(p, objective, theta, stages, cfg)
    bad = [o.index for o in result.outcomes if not o.feasible]
    if not bad:
        return result
    theta[bad] = _polish(objective, start[bad] * RESCUE_SCALE)
    for idx in bad:
        stages[idx] = "rescue"
    return _scored(p, objective, theta, stages, cfg)


def _scored(p: Presentation, objective: _Objective, theta: np.ndarray,
            stages: list, cfg: SearchConfig) -> SearchResult:
    """Score every row of the stack in one pass."""
    d, diag = objective.d, EvalDiag()
    outcomes = []
    for idx, (th, (res, excess, value)) in enumerate(
            zip(theta, objective.score(theta, diag))):
        residual = max(res, default=0.0)
        outcomes.append(RestartOutcome(
            idx, residual, excess,
            residual < cfg.tol_feas and excess < cfg.tol_cap,
            _unpack(th, objective.syms, d, p.flavor), res, value,
            stages[idx]))
    return SearchResult(d, cfg, outcomes, diag)


def _best_above(result: SearchResult, floor: float) -> RestartOutcome | None:
    """The first feasible restart of largest reward value, if that value
    exceeds floor."""
    best = max(result.feasible, key=lambda o: o.value, default=None)
    return best if best is not None and best.value > floor else None


def refute_redundancy(p: Presentation, q: NF, d: int, cfg: SearchConfig,
                      registry) -> RestartOutcome | None:
    """Search for a near-representation where q evaluates far from zero.

    A witness has every relation residual below tol_feas, caps respected
    up to tol_cap, and ||eval(q)|| (its `value`) above the floor
    10 * max(tol_feas, sqrt(tol_cap)): then q is not in the closed ideal
    generated by the relations, so citing it as redundant is refuted.
    The floor takes sqrt(tol_cap) because a cap excess of eps alone can
    move a consequence that far from zero: an idempotent of norm at most
    1 + eps is within about sqrt(2 eps) of self-adjoint.  Returning None
    proves nothing.
    """
    result = search_feasible(p, d, cfg, registry, reward_term=q)
    return _best_above(result, WITNESS_FACTOR * max(cfg.tol_feas,
                                                    cfg.tol_cap ** 0.5))


def norm_lower_bound(p: Presentation, t: NF, d: int, cfg: SearchConfig,
                     registry) -> tuple[float, MatrixRep | None]:
    """Best operator norm of t over found feasible representations.

    Always a valid lower bound for the quotient norm up to the search
    tolerances; 0.0 when no feasible representation was found.
    """
    best = _best_above(search_feasible(p, d, cfg, registry, reward_term=t),
                       0.0)
    return (0.0, None) if best is None else (best.value, best.rep)


# -- JSON rendering -------------------------------------------------------------

def matrix_to_json(m: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def rep_to_json(rep: MatrixRep) -> dict:
    return {
        "dim": rep.dim,
        "flavor": rep.flavor,
        "assign": {s: matrix_to_json(m) for s, m in rep.assign.items()},
    }


def result_to_json(p: Presentation, result: SearchResult) -> dict:
    best = result.best
    return {
        "dim": result.dim,
        "seed": result.config.seed,
        "restarts": result.config.restarts,
        "tol_feas": result.config.tol_feas,
        "tol_cap": result.config.tol_cap,
        "restart_results": [
            {"index": o.index, "residual": o.residual,
             "cap_excess": o.cap_excess, "feasible": o.feasible,
             "stage": o.stage}
            for o in result.outcomes],
        "best": {
            "index": best.index,
            "residual": best.residual,
            "cap_excess": best.cap_excess,
            "feasible": best.feasible,
            "rep": rep_to_json(best.rep),
            "relation_residuals": dict(zip(p.relation_names(),
                                           best.residuals)),
        },
        "herm_err": result.diag.herm_err,
        "clamp": result.diag.clamp,
    }
