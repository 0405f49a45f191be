"""Sound spectral enclosures and norm upper bounds.

Everything here is one-sided by design: intervals enclose the spectrum
of a self-adjoint element in *every* representation compatible with the
generator norm caps (and, when a context carries them, with ambient
relation facts), and norm bounds dominate the universal norm.  Widening
always rounds outward; no float enters any comparison.

The estimator understands:
  * generator caps  ||x|| <= f(x),
  * declared self-adjointness (relation x - x*),
  * definitional relations s - t (spectrum and norm transfer from t),
  * isometry relations s*s - 1 (cap improves to 1),
  * positivity facts A - p((A+A*)/2) coming from order-macro bodies,
  * syntactic squares: palindromic monomials w* v w and homogeneous
    Gram decompositions (exact rational PSD test),
  * range maps of functional-calculus symbols.
"""

from __future__ import annotations

from .exact import XS, Coeff, xs_add_outward, xs_mul_outward
from .terms import (NF, Atom, GEN, ADJ, CALL, UNIT, Monomial, NormedSet,
                    adj_nf, gen_nf, geq_operands, solve_for, star,
                    star_monomial)

_ZERO = XS(0)

# passes of `context_from_relations` before it gives up on a fixpoint
MAX_PASSES = 8


class Ival:
    """Closed real interval with exact endpoints."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: XS, hi: XS):
        if lo.cmp(hi) > 0:
            raise ValueError("empty interval [%s, %s]" % (lo, hi))
        self.lo = lo
        self.hi = hi

    @staticmethod
    def point(v: XS) -> "Ival":
        return Ival(v, v)

    @staticmethod
    def sym(r: XS) -> "Ival":
        return Ival(-r, r)

    def __add__(self, other: "Ival") -> "Ival":
        return Ival(xs_add_outward(self.lo, other.lo, up=False),
                    xs_add_outward(self.hi, other.hi, up=True))

    def shift(self, c: XS) -> "Ival":
        return self + Ival.point(c)

    def __neg__(self) -> "Ival":
        return Ival(-self.hi, -self.lo)

    def scale(self, c: XS) -> "Ival":
        if c.sign() == 0:
            return Ival.point(_ZERO)
        if c.sign() < 0:
            return (-self).scale(-c)
        return Ival(xs_mul_outward(c, self.lo, up=False),
                    xs_mul_outward(c, self.hi, up=True))

    def intersect(self, other: "Ival") -> "Ival | None":
        lo = self.lo if self.lo.cmp(other.lo) >= 0 else other.lo
        hi = self.hi if self.hi.cmp(other.hi) <= 0 else other.hi
        if lo.cmp(hi) > 0:
            return None
        return Ival(lo, hi)

    def hull(self, other: "Ival") -> "Ival":
        return Ival(self.lo if self.lo.cmp(other.lo) <= 0 else other.lo,
                    self.hi if self.hi.cmp(other.hi) >= 0 else other.hi)

    def max_abs(self) -> XS:
        a, b = abs(self.lo), abs(self.hi)
        return a if a.cmp(b) >= 0 else b

    def __eq__(self, other):
        if not isinstance(other, Ival):
            return NotImplemented
        return self.lo == other.lo and self.hi == other.hi

    def __hash__(self):
        return hash((self.lo, self.hi))

    def __repr__(self):
        return "[%s, %s]" % (self.lo, self.hi)


class Context:
    """Bounding context: caps plus facts harvested from ambient relations.

    `interval` and `norm_bound` answers are memoised per context, keyed on
    the term, and the memo is cleared whenever a fact changes value, so
    every cached answer was computed under the facts in force.  `version`
    counts those changes; `rounds` and `converged` describe the absorption
    fixpoint of `context_from_relations`; `stats` counts memo hits and
    uncached evaluations.
    """

    def __init__(self, gens: NormedSet, registry):
        self.gens = gens
        self.registry = registry
        self.sa: set[str] = set()
        self.caps: dict[str, XS] = {s: gens.norm(s) for s in gens}
        self.sym_ival: dict[str, Ival] = {}
        self.elem_facts: dict[NF, Ival] = {}
        self.version = 0
        self.rounds = 0
        self.converged = True
        self.stats = {"memo_hits": 0, "evaluations": 0}
        self._memo: dict[tuple, object] = {}

    def _changed(self):
        self.version += 1
        self._memo.clear()

    def cap(self, s: str) -> XS:
        return self.caps[s]

    def tighten_cap(self, s: str, v: XS):
        if v.cmp(self.caps[s]) < 0:
            self.caps[s] = v
            self._changed()

    def declare_sa(self, s: str):
        if s not in self.sa:
            self.sa.add(s)
            self._changed()

    def tighten_sym(self, s: str, iv: Ival):
        old = self.sym_ival.get(s)
        cur = Ival.sym(self.caps[s]) if old is None else old
        got = cur.intersect(iv)
        if got is not None:
            self.sym_ival[s] = got
            if got != old:
                self._changed()

    def add_elem_fact(self, key: NF, iv: Ival):
        old = self.elem_facts.get(key)
        if old is not None:
            iv = old.intersect(iv)
            if iv is None or iv == old:
                return
        self.elem_facts[key] = iv
        self._changed()


# -- self-adjointness modulo declared facts ------------------------------

def sa_normalize(t: NF, ctx: Context) -> NF:
    """Rewrite s* -> s for every symbol declared self-adjoint; t itself
    when nothing changes."""
    if not ctx.sa:
        return t
    out: dict[Monomial, Coeff] = {}
    changed = False
    for m, c in t.items():
        nm = tuple(_sa_atom(a, ctx) for a in m)
        changed = changed or nm != m
        s = out.get(nm)
        out[nm] = c if s is None else s + c
    return NF(out) if changed else t


def _sa_atom(a: Atom, ctx: Context) -> Atom:
    if a.kind == ADJ and a.sym in ctx.sa:
        return Atom(GEN, a.sym)
    if a.kind == CALL:
        arg = sa_normalize(a.arg, ctx)
        if arg is not a.arg:
            return Atom(CALL, a.sym, arg, a.params)
    return a


def _star_mod(m: Monomial, ctx: Context) -> Monomial:
    sm = star_monomial(m)
    return tuple(_sa_atom(a, ctx) for a in sm)


def is_sa_mod(t: NF, ctx: Context) -> bool:
    tn = sa_normalize(t, ctx)
    return sa_normalize(star(t), ctx) == tn


# -- exact PSD test for homogeneous Gram matrices -------------------------

def _psd_check(g: list[list[Coeff]]) -> bool:
    """Exact PSD test for a Hermitian Gaussian-rational matrix (LDL*)."""
    n = len(g)
    a = [row[:] for row in g]
    for k in range(n):
        d = a[k][k]
        if not d.is_real or d.re < 0:
            return False
        if d.re == 0:
            if any(not a[k][j].is_zero for j in range(k + 1, n)):
                return False
            continue
        for i2 in range(k + 1, n):
            for j2 in range(k + 1, n):
                a[i2][j2] = a[i2][j2] - a[i2][k] * a[k][j2] / d
    return True


def _homogeneous_square(t: NF, ctx: Context) -> bool:
    """True when t is exactly sum_{jk} G_{jk} u_j* u_k with G PSD, for
    words u of one common length (so every monomial splits uniquely)."""
    if t.is_zero:
        return True
    lens = {len(m) for m in t}
    if len(lens) != 1:
        return False
    ln = lens.pop()
    if ln == 0 or ln % 2 != 0:
        return False
    half = ln // 2
    basis: list[Monomial] = []
    index: dict[Monomial, int] = {}
    entries: dict[tuple[int, int], Coeff] = {}
    for m, c in t.items():
        left = _star_mod(m[:half], ctx)  # u_j with u_j* = m[:half]
        right = m[half:]
        for w in (left, right):
            if w not in index:
                index[w] = len(basis)
                basis.append(w)
        entries[(index[left], index[right])] = c
    n = len(basis)
    g = [[Coeff.ZERO] * n for _ in range(n)]
    for (i2, j2), c in entries.items():
        g[i2][j2] = c
    # Hermitian check (should follow from self-adjointness of t)
    for i2 in range(n):
        for j2 in range(n):
            if g[j2][i2] != g[i2][j2].conj():
                return False
    return _psd_check(g)


# -- norm bounds and intervals ---------------------------------------------
#
# The recursion is structural: `norm_bound(t)` asks only for `interval(t)`
# and `interval(t* t)`, and every other call back into `norm_bound` or
# `interval` takes the argument of a call atom, a strict subterm.

def _memoised(fn, t: NF, ctx: Context):
    key = (fn, t)
    got = ctx._memo.get(key)
    if got is not None:
        ctx.stats["memo_hits"] += 1
        return got
    ctx.stats["evaluations"] += 1
    got = ctx._memo[key] = fn(t, ctx)
    return got


def _nb_atom(a: Atom, ctx: Context) -> XS:
    if a.kind in (GEN, ADJ):
        return ctx.cap(a.sym)
    fn = ctx.registry.function(a.sym)
    if fn.domain == "entire" and not is_sa_mod(a.arg, ctx):
        return fn.norm_majorant(norm_bound(a.arg, ctx), a.params)
    return fn.range_on(interval(a.arg, ctx), a.params).max_abs()


def _nb_mono(m: Monomial, ctx: Context) -> XS:
    out = XS(1)
    for a in m:
        out = xs_mul_outward(out, _nb_atom(a, ctx), up=True)
    return out


def _triangle(t: NF, ctx: Context) -> XS:
    out = XS(0)
    for m, c in t.items():
        out = xs_add_outward(out, xs_mul_outward(c.abs_xs(), _nb_mono(m, ctx), up=True), up=True)
    return out


def norm_bound(t: NF, ctx: Context) -> XS:
    """Sound upper bound on the universal norm of t under ctx."""
    return _memoised(_norm_bound, t, ctx)


def _norm_bound(t: NF, ctx: Context) -> XS:
    t = sa_normalize(t, ctx)
    best = _triangle(t, ctx)
    if is_sa_mod(t, ctx):
        r = interval(t, ctx).max_abs()
        if r.cmp(best) < 0:
            best = r
    if len(t) <= 8:
        sq = star(t) * t
        if len(sq) <= 64:
            r = interval(sq, ctx).hi.sqrt_outward(up=True)
            if r.cmp(best) < 0:
                best = r
    return best


def _mono_interval(m: Monomial, ctx: Context) -> Ival:
    """Enclosure for a monomial fixed by the (sa-modified) involution."""
    if len(m) == 0:
        return Ival.point(XS(1))
    if len(m) == 1:
        a = m[0]
        if a.kind == GEN:
            cap = ctx.cap(a.sym)
            iv = ctx.sym_ival.get(a.sym, Ival.sym(cap))
            got = iv.intersect(Ival.sym(cap))
            return got if got is not None else iv
        if a.kind == CALL:
            fn = ctx.registry.function(a.sym)
            return fn.range_on(interval(a.arg, ctx), a.params)
        return Ival.sym(_nb_atom(a, ctx))
    # palindromic splits: m = w* v w with v self-adjoint (possibly empty)
    for k in range(len(m) // 2, 0, -1):
        if m[:k] == _star_mod(m[-k:], ctx):
            b = _nb_mono(m[-k:], ctx)
            b2 = xs_mul_outward(b, b, up=True)
            mid = m[k:len(m) - k]
            if len(mid) == 0:
                return Ival(XS(0), b2)
            if _star_mod(mid, ctx) == mid:
                iv = _mono_interval(mid, ctx)
                lo = _ZERO if iv.lo.sign() >= 0 else xs_mul_outward(iv.lo, b2, up=False)
                hi = _ZERO if iv.hi.sign() <= 0 else xs_mul_outward(iv.hi, b2, up=True)
                return Ival(lo, hi)
            break
    r = _nb_mono(m, ctx)
    return Ival.sym(r)


def interval(t: NF, ctx: Context) -> Ival:
    """Sound enclosure of the universal spectrum of a self-adjoint t.

    For terms that are not structurally self-adjoint (modulo declared
    facts) this degrades to the symmetric norm ball, which is still a
    sound enclosure of the real part of any spectral value.
    """
    return _memoised(_interval, t, ctx)


def _interval(t: NF, ctx: Context) -> Ival:
    t = sa_normalize(t, ctx)
    if t.is_zero:
        return Ival.point(_ZERO)
    out = Ival.sym(_triangle(t, ctx))

    c0 = t.scalar_part()
    if not c0.is_real:
        return out
    c0x = XS(c0.re)
    body = t - c0

    # element facts, up to a scalar shift; a key was normalised when its
    # fact was absorbed, and symbols declared self-adjoint since then
    # must be normalised here too
    for key, iv in ctx.elem_facts.items():
        diff = (t - sa_normalize(key, ctx)).as_scalar()
        if diff is not None and diff.is_real:
            got = out.intersect(iv.shift(XS(diff.re)))
            if got is not None:
                out = got

    if body.is_zero:
        got = out.intersect(Ival.point(c0x))
        return got if got is not None else Ival.point(c0x)

    # homogeneous sum-of-squares: body (or -body) PSD as a Gram form
    if is_sa_mod(body, ctx):
        nb_body = _triangle(body, ctx)
        if _homogeneous_square(body, ctx):
            got = out.intersect(Ival(c0x, xs_add_outward(c0x, nb_body, up=True)))
            if got is not None:
                out = got
        elif _homogeneous_square(-body, ctx):
            got = out.intersect(Ival(xs_add_outward(c0x, -nb_body, up=False), c0x))
            if got is not None:
                out = got

    # monomial-by-monomial decomposition
    acc = Ival.point(c0x)
    seen: set[Monomial] = set()
    ok = True
    for m, c in body.items():
        if m in seen:
            continue
        sm = _star_mod(m, ctx)
        if sm == m:
            if not c.is_real:
                ok = False
                break
            seen.add(m)
            acc = acc + _mono_interval(m, ctx).scale(XS(c.re))
        else:
            if sm not in body or body[sm] != c.conj():
                ok = False
                break
            seen.add(m)
            seen.add(sm)
            r = xs_mul_outward(XS(2) * c.abs_xs(), _nb_mono(m, ctx), up=True)
            acc = acc + Ival.sym(r)
    if ok:
        got = out.intersect(acc)
        if got is not None:
            out = got
    return out


# -- fact harvesting --------------------------------------------------------

def _absorb_relation(body: NF, ctx: Context):
    # body = c (s - t): t = s* declares s self-adjoint, t = s s with s
    # self-adjoint makes s a projection, and t free of s defines s
    for s in ctx.gens:
        t = solve_for(body, s)
        if t is None:
            continue
        if s not in t.symbols():
            ctx.tighten_cap(s, norm_bound(t, ctx))
            if is_sa_mod(t, ctx):
                ctx.declare_sa(s)
                ctx.tighten_sym(s, interval(t, ctx))
        elif t == adj_nf(s):
            ctx.declare_sa(s)
        elif s in ctx.sa and t == gen_nf(s) * gen_nf(s):
            ctx.tighten_cap(s, XS(1))
            ctx.tighten_sym(s, Ival(XS(0), XS(1)))

    # s*s - 1 or s s* - 1 : cap(s) <= 1
    pair = list(body.items())
    if len(pair) == 2:
        for (ma, ca), (mb, cb) in (pair, pair[::-1]):
            if (mb == UNIT and len(ma) == 2 and ca == -cb
                    and ma[0].kind in (GEN, ADJ) and ma[1].kind in (GEN, ADJ)
                    and ma[0].sym == ma[1].sym and ma[0].kind != ma[1].kind):
                ctx.tighten_cap(ma[0].sym, XS(1))

    # order-macro shape: body = c*(a - p((a + a*)/2)), giving a >= 0
    for _, a in geq_operands(body):
        nb = norm_bound(a, ctx)
        ctx.add_elem_fact(sa_normalize(a, ctx), Ival(XS(0), nb))
        # affine in one generator: alpha*s + beta*1 >= 0 pins the symbol
        mono = [(m, cc) for m, cc in a.items() if m != UNIT]
        if len(mono) == 1:
            (mm, alpha) = mono[0]
            beta = a.scalar_part()
            if (len(mm) == 1 and mm[0].kind == GEN and alpha.is_real
                    and not alpha.is_zero and beta.is_real):
                s = mm[0].sym
                ctx.declare_sa(s)
                iv = Ival(XS(0), nb).shift(XS(-beta.re)).scale(XS(1 / alpha.re))
                ctx.tighten_sym(s, iv)


def context_from_relations(gens: NormedSet, registry,
                           bodies: list[NF]) -> Context:
    """Absorb every body, pass after pass, until a pass changes no fact.

    Facts only tighten, so every pass leaves a sound context.  A chain of
    definitions needs one pass per link, and a cycle such as x = y/2,
    y = x/2 halves its caps forever; after MAX_PASSES the context is kept
    as it stands with `converged` set to False.
    """
    ctx = Context(gens, registry)
    while ctx.rounds < MAX_PASSES:
        before = ctx.version
        for b in bodies:
            _absorb_relation(b, ctx)
        ctx.rounds += 1
        if ctx.version == before:
            return ctx
    ctx.converged = False
    return ctx
