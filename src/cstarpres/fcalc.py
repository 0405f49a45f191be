"""Functional-calculus registry: function symbols, order macros, lemma schemata.

Function symbols are spectral functions applied through the continuous
functional calculus (p, sqrt, inv_lb, f_param, user piecewise
polynomials) plus the entire functions exp/sin/cos.  Each symbol knows

  * a sound range map on spectral intervals, which clamps its argument
    into the symbol's window as the scalar evaluator does,
  * a scalar evaluator and clamping window for numeric representations.

The range map is the one exact definition of a symbol: its exact value
at a real scalar (used by the augmentation character) is read off the
range map on that point, and exists when that range is a rational point.

Macros expand order sugar into plain relation bodies; lemma schemata are
the trusted functional-calculus identities a derivation may cite.  A
schema only builds its requirements, side conditions and identities
from bindings; `tietze` checks a citation.  Every shipped schema carries
a sampler so the test suite can validate it numerically on random
matrix instantiations.
"""

from __future__ import annotations

import hashlib
import math as _math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from .exact import BITS, XS, Coeff
from .terms import (NF, NormedSet, call_nf, geq_zero_body, is_selfadjoint,
                    nf_coerce, star)
from .bounds import Ival


class MacroError(ValueError):
    pass


# -- directed rational bounds for exp ------------------------------------

def exp_bounds(x: Fraction) -> tuple[Fraction, Fraction]:
    """Rational lo <= e^x <= hi.

    Raises OverflowError for x > 2^20, where the bounds would take more
    than a million bits; below -2^20 the bounds are 0 and e^(-2^20)'s."""
    if x > 2 ** 20:
        raise OverflowError("e^x out of range for an exact bound: x > 2^20")
    if x < -2 ** 20:
        return Fraction(0), exp_bounds(Fraction(-2 ** 20))[1]
    if x < 0:
        lo, hi = exp_bounds(-x)
        return 1 / hi, 1 / lo
    if x > 32:
        # the series below takes 4x terms; e^x = (e^(x/2))^2 instead,
        # with the halves rounded outward so the bit size stays bounded
        lo, hi = exp_bounds(x / 2)
        return _dyadic(lo, up=False) ** 2, _dyadic(hi, up=True) ** 2
    n = max(24, 4 * (int(x) + 1))
    s = Fraction(0)
    term = Fraction(1)
    for k in range(n + 1):
        s += term
        term = term * x / (k + 1)
    # remainder: term is x^(n+1)/(n+1)!; the tail is geometric with
    # ratio x/(n+2) < 1/4, since n > 4x
    return s, s + term / (1 - x / (n + 2))


def _dyadic(x: Fraction, up: bool) -> Fraction:
    """x rounded up (or down) to m * 2^k with |m| <= 2^BITS.

    exp_bounds is exact, so its bit size multiplies by the number of
    Taylor terms; the bounds of nested entire calls stay small only if
    each one is rounded outward."""
    num, den = x.numerator, x.denominator
    shift = BITS - 1 - (abs(num).bit_length() - den.bit_length())
    if shift >= 0:
        num <<= shift
    else:
        den <<= -shift
    m = -(-num // den) if up else num // den
    return Fraction(m, 1 << shift) if shift >= 0 else Fraction(m << -shift)


# -- function symbols -----------------------------------------------------

@dataclass
class FunctionSymbol:
    name: str
    n_params: int
    domain: str  # 'selfadjoint' | 'positive' | 'entire'
    range_on: Callable[[Ival, tuple[XS, ...]], Ival]
    scalar_fn: Callable[[float, tuple[float, ...]], float]
    domain_window: Callable[[tuple[XS, ...]], tuple[XS | None, XS | None]] = \
        lambda params: (None, None)
    # bound on ||f(a)|| from a bound on ||a||; entire symbols only
    norm_majorant: Callable[[XS, tuple[XS, ...]], XS] | None = None
    validate_params: Callable[[tuple[XS, ...]], None] = lambda params: None

    def clamp_window(self, params: tuple[XS, ...]) -> tuple[float | None, float | None]:
        lo, hi = self.domain_window(params)
        return (None if lo is None else float(lo),
                None if hi is None else float(hi))

    def exact_value(self, v: Coeff, params: tuple[XS, ...]) -> Coeff | None:
        """f(v) when the range map on the point v is a rational point;
        None for a non-real v, an irrational value, or a range map that
        gives no point there (exp beyond 2^20 included)."""
        if not v.is_real:
            return None
        try:
            iv = self.range_on(Ival.point(XS(v.re)), params)
        except OverflowError:
            return None
        if iv.lo.is_rational and iv.lo == iv.hi:
            return Coeff(iv.lo.as_fraction())
        return None


def _p_range(iv: Ival, params) -> Ival:
    lo = iv.lo if iv.lo.sign() > 0 else XS(0)
    hi = XS(0) if iv.hi.sign() < 0 else iv.hi
    return Ival(lo, hi)


def _sqrt_range(iv: Ival, params) -> Ival:
    lo = iv.lo.sqrt_outward(up=False) if iv.lo.sign() > 0 else XS(0)
    hi = XS(0) if iv.hi.sign() < 0 else iv.hi.sqrt_outward(up=True)
    return Ival(lo, hi)


def _inv_check(params: tuple[XS, ...]):
    (m,) = params
    if not m.is_rational or m.as_fraction() <= 0:
        raise ValueError("inv_lb needs a positive rational lower bound")


def _inv_range(iv: Ival, params) -> Ival:
    (m,) = params
    lo = iv.lo if iv.lo.cmp(m) > 0 else m
    hi = iv.hi if iv.hi.cmp(m) > 0 else m
    return Ival(hi.inverse(), lo.inverse())


def _fparam_breakpoint(lam: XS) -> XS:
    lam_q = lam.as_fraction()
    return XS.sqrt_of(1 - 1 / (lam_q * lam_q))


def _fparam_check(params: tuple[XS, ...]):
    (lam,) = params
    if not lam.is_rational or lam.as_fraction() < 1:
        raise ValueError("f_param needs a rational parameter >= 1")


def _fparam_g(nu: XS, s: XS) -> XS:
    """Second branch: s*(1-nu)/(1-s), the decreasing line from (s,s) to (1,0)."""
    one = XS(1)
    if s.sign() == 0:
        return XS(0)
    return s * (one - nu) * (one - s).inverse()


def _clamp_xs(x: XS, lo: XS, hi: XS) -> XS:
    return lo if x.cmp(lo) < 0 else hi if x.cmp(hi) > 0 else x


def _fparam_range(iv: Ival, params) -> Ival:
    (lam,) = params
    s = _fparam_breakpoint(lam)
    zero, one = XS(0), XS(1)
    lo, hi = _clamp_xs(iv.lo, zero, one), _clamp_xs(iv.hi, zero, one)
    if hi.cmp(s) <= 0:
        return Ival(lo, hi)
    branch = Ival(_fparam_g(hi, s), _fparam_g(lo if lo.cmp(s) > 0 else s, s))
    return branch if lo.cmp(s) > 0 else Ival(lo, s).hull(branch)


def _fparam_scalar(t: float, params: tuple[float, ...]) -> float:
    (lam,) = params
    s = (1 - 1 / (lam * lam)) ** 0.5
    t = min(max(t, 0.0), 1.0)
    if t <= s:
        return t
    if s >= 1.0:
        return s
    return s * (1 - t) / (1 - s)


def _exp_range(iv: Ival, params) -> Ival:
    a, b = iv.lo.lower(), iv.hi.upper()
    lo, hi = exp_bounds(a)
    if b != a:  # a rational point needs one series
        hi = exp_bounds(b)[1]
    return Ival(XS(_dyadic(lo, up=False)), XS(_dyadic(hi, up=True)))


def _trig_range(at_zero: int):
    """[-1, 1], or the exact value on the point 0."""
    def range_on(iv: Ival, params) -> Ival:
        if iv.lo.sign() == 0 and iv.hi.sign() == 0:
            return Ival.point(XS(at_zero))
        return Ival(XS(-1), XS(1))
    return range_on


def _exp_majorant(nb: XS, params) -> XS:
    return XS(_dyadic(exp_bounds(nb.upper())[1], up=True))


def builtin_functions() -> dict[str, FunctionSymbol]:
    fns = {}
    fns["p"] = FunctionSymbol(
        "p", 0, "selfadjoint", _p_range,
        lambda t, pr: max(t, 0.0))
    sqrt_sym = FunctionSymbol(
        "sqrt", 0, "positive", _sqrt_range,
        lambda t, pr: _math.sqrt(max(t, 0.0)),
        domain_window=lambda pr: (XS(0), None))
    fns["sqrt"] = sqrt_sym
    fns["inv_lb"] = FunctionSymbol(
        "inv_lb", 1, "positive", _inv_range,
        lambda t, pr: 1.0 / max(t, pr[0]),
        domain_window=lambda pr: (pr[0], None),
        validate_params=_inv_check)
    fns["f_param"] = FunctionSymbol(
        "f_param", 1, "positive", _fparam_range, _fparam_scalar,
        domain_window=lambda pr: (XS(0), XS(1)),
        validate_params=_fparam_check)
    fns["exp"] = FunctionSymbol(
        "exp", 0, "entire", _exp_range,
        lambda t, pr: _math.exp(t), norm_majorant=_exp_majorant)
    fns["sin"] = FunctionSymbol(
        "sin", 0, "entire", _trig_range(0),
        lambda t, pr: _math.sin(t), norm_majorant=_exp_majorant)
    fns["cos"] = FunctionSymbol(
        "cos", 0, "entire", _trig_range(1),
        lambda t, pr: _math.cos(t), norm_majorant=_exp_majorant)
    return fns


# -- piecewise polynomial user functions ----------------------------------

@dataclass
class Piece:
    lo: Fraction
    hi: Fraction
    coeffs: list[Fraction]  # c0 + c1 t + c2 t^2 + ...

    def eval_exact(self, t: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def range_on(self, lo: Fraction, hi: Fraction) -> Ival:
        """Sound Horner interval evaluation on [lo, hi]."""
        acc = Ival.point(XS(0))
        box = Ival(XS(lo), XS(hi))
        for c in reversed(self.coeffs):
            cands = [u * v for u in (acc.lo, acc.hi) for v in (box.lo, box.hi)]
            acc = Ival(min(cands) + XS(c), max(cands) + XS(c))
        return acc


def piecewise_symbol(name: str, pieces: list[Piece], domain: str) -> FunctionSymbol:
    pieces = sorted(pieces, key=lambda p: p.lo)
    dom_lo, dom_hi = pieces[0].lo, pieces[-1].hi

    def range_fn(iv: Ival, params) -> Ival:
        lo = min(max(dom_lo, iv.lo.lower()), dom_hi)
        hi = max(min(dom_hi, iv.hi.upper()), dom_lo)
        out = None
        for pc in pieces:
            a, b = max(pc.lo, lo), min(pc.hi, hi)
            if a <= b:
                r = pc.range_on(a, b)
                out = r if out is None else out.hull(r)
        return out

    def scalar_fn(t: float, params) -> float:
        t = min(max(t, float(dom_lo)), float(dom_hi))
        for pc in pieces:
            if float(pc.lo) <= t <= float(pc.hi):
                return float(sum(float(c) * t ** k for k, c in enumerate(pc.coeffs)))
        return 0.0

    return FunctionSymbol(name, 0, domain, range_fn, scalar_fn,
                          domain_window=lambda pr: (XS(dom_lo), XS(dom_hi)))


# -- order macros -----------------------------------------------------------

MACRO_NAMES = ("norm_le", "left_inv", "right_inv", "inv")


def leq_body(a: NF, b: NF) -> NF:
    if not (is_selfadjoint(a) and is_selfadjoint(b)):
        raise MacroError("both sides of an order relation must be self-adjoint")
    return geq_zero_body(b - a)


def _require_normvalue(c: XS, who: str) -> Fraction:
    if not c.is_norm_value() or c.sign() < 0:
        raise MacroError("%s needs a nonnegative rational-or-sqrt scalar" % who)
    sq = c * c
    return sq.as_fraction()


def norm_le_body(a: NF, c: XS) -> NF:
    """||a|| <= c encoded as c^2 a*a - (a*a)^2 >= 0."""
    c2 = _require_normvalue(c, "norm_le")
    aa = star(a) * a
    return geq_zero_body(aa * Coeff(c2) - aa * aa)


def left_inv_body(a: NF, c: XS) -> NF:
    """left-invertible with a left inverse of norm <= c: c^2 a*a - 1 >= 0."""
    c2 = _require_normvalue(c, "left_inv")
    aa = star(a) * a
    return geq_zero_body(aa * Coeff(c2) - nf_coerce(1))


def right_inv_body(a: NF, c: XS) -> NF:
    c2 = _require_normvalue(c, "right_inv")
    aa = a * star(a)
    return geq_zero_body(aa * Coeff(c2) - nf_coerce(1))


def expand_macro(name: str, a: NF, c: XS) -> list[tuple[str, NF]]:
    """Expand a macro into (suffix, body) pairs; most give a single body."""
    if name == "norm_le":
        return [("", norm_le_body(a, c))]
    if name == "left_inv":
        return [("", left_inv_body(a, c))]
    if name == "right_inv":
        return [("", right_inv_body(a, c))]
    if name == "inv":
        return [("_l", left_inv_body(a, c)),
                ("_r", right_inv_body(a, c))]
    raise MacroError("unknown macro %r" % name)


# -- lemma schemata ----------------------------------------------------------

@dataclass
class SchemaData:
    requires: list[NF]
    gives: list[NF]
    positive: list[NF] = field(default_factory=list)
    sa: list[NF] = field(default_factory=list)
    norm_les: list[tuple[NF, XS]] = field(default_factory=list)


@dataclass
class LemmaSchema:
    name: str
    term_vars: tuple[str, ...]
    scalar_vars: tuple[str, ...]
    build: Callable[[dict, "Registry"], SchemaData]
    sampler: Callable | None = None  # (rng, dim) -> (scalar bindings, matrices)
    doc: str = ""


def range_projection_formula(y: NF) -> NF:
    """y y* (1 + (y - y*)*(y - y*))^(-1), the range support of an idempotent."""
    d = y - star(y)
    inner = nf_coerce(1) + star(d) * d
    return y * star(y) * call_nf("inv_lb", inner, (XS(1),))


def polar_isometry_formula(x: NF, mu: XS, m: XS) -> NF:
    """mu x (p(mu sqrt(x*x) - 1) + 1)^(-1)."""
    q = call_nf("sqrt", star(x) * x)
    inner = call_nf("p", q * Coeff(mu.as_fraction()) - nf_coerce(1)) + nf_coerce(1)
    return x * Coeff(mu.as_fraction()) * call_nf("inv_lb", inner, (m,))


def two_projection_x_formula(r: NF, k: NF, lam: XS, m: XS) -> NF:
    """(1 - f_lam(r k* k r*))^(-1) (r - r k)."""
    core = r * star(k) * k * star(r)
    inner = nf_coerce(1) - call_nf("f_param", core, (lam,))
    return call_nf("inv_lb", inner, (m,)) * (r - r * k)


def _b_sqrt_square(b: dict, reg: "Registry") -> SchemaData:
    a = b["A"]
    s = call_nf("sqrt", a)
    return SchemaData(requires=[], gives=[s * s - a], positive=[a])


def _b_positive_from_interval(b: dict, reg: "Registry") -> SchemaData:
    a = b["A"]
    return SchemaData(requires=[], gives=[geq_zero_body(a)],
                      positive=[a], sa=[a])


def _b_projection_range(b: dict, reg: "Registry") -> SchemaData:
    p_, y = b["P"], b["Y"]
    return SchemaData(
        requires=[y - y * y, p_ - range_projection_formula(y)],
        gives=[p_ * p_ - p_, star(p_) - p_])


def _b_polar_isometry(b: dict, reg: "Registry") -> SchemaData:
    x, u = b["X"], b["U"]
    mu, m = b["mu"], b["m"]
    mu2 = Coeff(mu.as_fraction() ** 2)
    geq = geq_zero_body(star(x) * x * mu2 - nf_coerce(1))
    return SchemaData(
        requires=[geq, u - polar_isometry_formula(x, mu, m)],
        gives=[star(u) * u - nf_coerce(1)])


def _b_recover_x_polar(b: dict, reg: "Registry") -> SchemaData:
    x, u, q = b["X"], b["U"], b["Q"]
    mu, m = b["mu"], b["m"]
    mu2 = Coeff(mu.as_fraction() ** 2)
    geq = geq_zero_body(star(x) * x * mu2 - nf_coerce(1))
    return SchemaData(
        requires=[geq,
                  q - call_nf("sqrt", star(x) * x),
                  u - polar_isometry_formula(x, mu, m)],
        gives=[x - u * q])


def _b_polar_recovery(b: dict, reg: "Registry") -> SchemaData:
    x, u, q = b["X"], b["U"], b["Q"]
    mu, m = b["mu"], b["m"]
    mu2 = Coeff(mu.as_fraction() ** 2)
    muq = q * Coeff(mu.as_fraction())
    return SchemaData(
        requires=[x - u * q,
                  star(u) * u - nf_coerce(1),
                  geq_zero_body(muq - nf_coerce(1))],
        gives=[geq_zero_body(star(x) * x * mu2 - nf_coerce(1)),
               q - call_nf("sqrt", star(x) * x),
               u - polar_isometry_formula(x, mu, m)])


def _b_projection_pair_norm(b: dict, reg: "Registry") -> SchemaData:
    x, r, k = b["X"], b["R"], b["K"]
    lam = b["lambda"]
    c = (XS(1) - XS(1) / (lam * lam)).sqrt_outward(up=True)  # exact: rational lam
    return SchemaData(
        requires=[x - x * x,
                  r - range_projection_formula(x),
                  k - range_projection_formula(nf_coerce(1) - x)],
        gives=[norm_le_body(r * k, c)],
        norm_les=[(x, lam)])


def _b_recover_x_two_projections(b: dict, reg: "Registry") -> SchemaData:
    x, r, k = b["X"], b["R"], b["K"]
    lam, m = b["lambda"], b["m"]
    return SchemaData(
        requires=[x - x * x,
                  r - range_projection_formula(x),
                  k - range_projection_formula(nf_coerce(1) - x)],
        gives=[x - two_projection_x_formula(r, k, lam, m)],
        norm_les=[(x, lam)])


def _b_two_projection_model(b: dict, reg: "Registry") -> SchemaData:
    x, r, k = b["X"], b["R"], b["K"]
    lam, m = b["lambda"], b["m"]
    c = (XS(1) - XS(1) / (lam * lam)).sqrt_outward(up=True)
    return SchemaData(
        requires=[r * r - r, star(r) - r,
                  k * k - k, star(k) - k,
                  norm_le_body(r * k, c),
                  x - two_projection_x_formula(r, k, lam, m)],
        gives=[r - range_projection_formula(x),
               k - range_projection_formula(nf_coerce(1) - x),
               x - x * x])


# numeric samplers live next to the schemata so tests can validate them

def _rng_complex(rng, d):
    import numpy as np
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def _rng_unitary(rng, d):
    import numpy as np
    q, _ = np.linalg.qr(_rng_complex(rng, d))
    return q


def _rng_psd(rng, d, scale=1.0):
    w = _rng_complex(rng, d) * scale
    return w @ w.conj().T


def _s_psd(rng, d):
    return {}, {"A": _rng_psd(rng, d)}


def _np_range_projection(y):
    import numpy as np
    d = y - y.conj().T
    inner = np.eye(y.shape[0]) + d.conj().T @ d
    return y @ y.conj().T @ np.linalg.inv(inner)


def _rng_idempotent(rng, d, lam: float):
    """Random idempotent with norm <= lam (block construction, d even)."""
    import numpy as np
    m = d // 2
    t_free = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    tmax = (lam * lam - 1.0) ** 0.5
    nrm = np.linalg.norm(t_free, 2)
    if nrm > 0:
        t_free = t_free * (tmax * rng.uniform(0.1, 0.98) / nrm)
    x = np.zeros((d, d), dtype=complex)
    x[:m, :m] = np.eye(m)
    x[:m, m:] = t_free
    u = _rng_unitary(rng, d)
    return u @ x @ u.conj().T


def _s_projection_range(rng, d):
    d = d if d % 2 == 0 else d + 1
    y = _rng_idempotent(rng, d, 2.0)
    return {}, {"Y": y, "P": _np_range_projection(y)}


def _s_polar(rng, d):
    import numpy as np
    import scipy.linalg
    mu = [XS(1), XS(2), XS(Fraction(1, 2))][rng.integers(0, 3)]
    muf = float(mu)
    v = _rng_unitary(rng, d)
    q = np.eye(d) / muf + _rng_psd(rng, d, 0.5)
    x = v @ q
    qm = scipy.linalg.sqrtm(x.conj().T @ x)
    h = (qm + qm.conj().T) / 2
    # the polar factor mu x (p(mu |x| - 1) + 1)^(-1)
    w, vh = np.linalg.eigh(h)
    p_part = vh @ np.diag(np.maximum(muf * w - 1, 0.0)) @ vh.conj().T
    u = muf * x @ np.linalg.inv(p_part + np.eye(d))
    return {"mu": mu, "m": XS(1)}, {"X": x, "U": u, "Q": h}


def _s_polar_recovery(rng, d):
    import numpy as np
    mu = [XS(1), XS(2), XS(Fraction(1, 2))][rng.integers(0, 3)]
    muf = float(mu)
    u = _rng_unitary(rng, d)
    q = np.eye(d) / muf + _rng_psd(rng, d, 0.5)
    return {"mu": mu, "m": XS(1)}, {"U": u, "Q": q, "X": u @ q}


_LAM_M = {2: Fraction(1, 8), 3: Fraction(1, 32)}


def _s_two_proj_from_x(rng, d):
    lam = [2, 3][rng.integers(0, 2)]
    d = d if d % 2 == 0 else d + 1
    x = _rng_idempotent(rng, d, float(lam))
    r = _np_range_projection(x)
    import numpy as np
    k = _np_range_projection(np.eye(d) - x)
    return ({"lambda": XS(lam), "m": XS(_LAM_M[lam])},
            {"X": x, "R": r, "K": k})


def _s_two_proj_model(rng, d):
    import numpy as np
    lam = [2, 3][rng.integers(0, 2)]
    c = (1 - 1 / lam ** 2) ** 0.5
    d = d if d % 2 == 0 else d + 1
    m = d // 2
    r = np.zeros((d, d), dtype=complex)
    k = np.zeros((d, d), dtype=complex)
    for i in range(m):
        ci = c * rng.uniform(0.05, 0.98)
        si = (1 - ci * ci) ** 0.5
        r[2 * i, 2 * i] = 1.0
        blk = np.array([[ci * ci, ci * si], [ci * si, si * si]])
        k[2 * i:2 * i + 2, 2 * i:2 * i + 2] = blk
    u = _rng_unitary(rng, d)
    r = u @ r @ u.conj().T
    k = u @ k @ u.conj().T
    s = (1 - 1 / lam ** 2) ** 0.5
    core = r @ k.conj().T @ k @ r.conj().T
    w, v = np.linalg.eigh((core + core.conj().T) / 2)
    fw = np.array([_fparam_scalar(t, (float(lam),)) for t in w])
    f_mat = v @ np.diag(fw) @ v.conj().T
    x = np.linalg.inv(np.eye(d) - f_mat) @ (r - r @ k)
    return ({"lambda": XS(lam), "m": XS(_LAM_M[lam])},
            {"X": x, "R": r, "K": k})


def builtin_schemata() -> dict[str, LemmaSchema]:
    out = {}

    def reg(name, tvars, svars, build, sampler, doc):
        out[name] = LemmaSchema(name, tvars, svars, build, sampler, doc)

    reg("sqrt_square", ("A",), (), _b_sqrt_square, _s_psd,
        "sqrt(A)^2 = A for positive A")
    reg("positive_from_interval", ("A",), (), _b_positive_from_interval,
        _s_psd,
        "A >= 0 when a sound spectral enclosure of A stays nonnegative")
    reg("projection_from_idempotent_range", ("P", "Y"), (),
        _b_projection_range, _s_projection_range,
        "the range support of an idempotent is a projection")
    reg("polar_isometry", ("X", "U"), ("mu", "m"), _b_polar_isometry,
        _s_polar, "the polar factor of a bounded-below x is an isometry")
    reg("recover_x_polar", ("X", "U", "Q"), ("mu", "m"), _b_recover_x_polar,
        _s_polar, "x = u q for the polar data of a bounded-below x")
    reg("polar_recovery", ("X", "U", "Q"), ("mu", "m"), _b_polar_recovery,
        _s_polar_recovery,
        "x = u q with u an isometry and mu q >= 1 recovers the polar data")
    reg("projection_pair_norm_bound", ("X", "R", "K"), ("lambda",),
        _b_projection_pair_norm, _s_two_proj_from_x,
        "range/kernel projections of a norm-lam idempotent satisfy "
        "||r k|| <= sqrt(1 - lam^-2)")
    reg("recover_x_two_projections", ("X", "R", "K"), ("lambda", "m"),
        _b_recover_x_two_projections, _s_two_proj_from_x,
        "x = (1 - f_lam(r k* k r*))^-1 (r - r k)")
    reg("two_projection_model", ("X", "R", "K"), ("lambda", "m"),
        _b_two_projection_model, _s_two_proj_model,
        "a projection pair with the norm bound rebuilds the idempotent")
    return out


# -- registry ---------------------------------------------------------------

class Registry:
    def __init__(self, functions: dict[str, FunctionSymbol] | None = None,
                 schemata: dict[str, LemmaSchema] | None = None):
        self.functions = functions if functions is not None else builtin_functions()
        self.schemata = schemata if schemata is not None else builtin_schemata()

    def function(self, name: str) -> FunctionSymbol | None:
        return self.functions.get(name)

    def schema(self, name: str) -> LemmaSchema | None:
        return self.schemata.get(name)

    def exact_value(self, name: str, v: Coeff, params: tuple[XS, ...]) -> Coeff | None:
        fn = self.functions.get(name)
        return None if fn is None else fn.exact_value(v, params)

    def without_schemata(self) -> "Registry":
        return Registry(self.functions, {})

    def digest(self) -> str:
        h = hashlib.sha256()
        for name in sorted(self.functions):
            f = self.functions[name]
            h.update(("fn:%s/%d/%s;" % (name, f.n_params, f.domain)).encode())
        for name in sorted(self.schemata):
            s = self.schemata[name]
            h.update(("schema:%s/%s/%s;" % (name, ",".join(s.term_vars),
                                            ",".join(s.scalar_vars))).encode())
        return h.hexdigest()[:16]


_BUILTIN: Registry | None = None


def builtin_registry() -> Registry:
    global _BUILTIN
    if _BUILTIN is None:
        _BUILTIN = Registry()
    return _BUILTIN


# -- user registry extension files -------------------------------------------

def load_registry_file(path: str, base: Registry | None = None) -> Registry:
    """Extend a registry from a small text format.

    function NAME:
      domain positive|selfadjoint    (default selfadjoint)
      piece LO HI : C0 C1 C2 ...     (polynomial coefficients, rationals)

    A function block needs at least one piece, and its domain is
    `positive` or `selfadjoint`: a file cannot declare an entire function.
    Its pieces, sorted by lower end, must each have LO <= HI, start where
    the previous one ends, and take the same value there.  A block that
    breaks any of these rules raises ValueError.

    schema NAME:
      vars A B ...
      requires TEMPLATE              (term DSL with ?A placeholders)
      positive TEMPLATE
      gives TEMPLATE

    A placeholder ?NAME is the longest identifier after the `?`, so with
    `vars A AB` the template `?AB` names AB, not A followed by `B`.  A
    template that names a placeholder missing from `vars` raises
    ValueError.
    """
    base = base if base is not None else builtin_registry()
    fns = dict(base.functions)
    schemata = dict(base.schemata)
    cur = None  # ("function", name, domain, pieces) | ("schema", name, dict)
    with open(path) as fh:
        lines = fh.readlines()

    def flush():
        nonlocal cur
        if cur is None:
            return
        if cur[0] == "function":
            _, name, info = cur
            _check_pieces(name, info["pieces"])
            fns[name] = piecewise_symbol(name, info["pieces"], info["domain"])
        else:
            _, name, info = cur
            schemata[name] = _text_schema(name, info)
        cur = None

    for raw in lines:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("function ") and line.endswith(":"):
            flush()
            cur = ("function", line[len("function "):-1].strip(),
                   {"domain": "selfadjoint", "pieces": []})
            continue
        if line.startswith("schema ") and line.endswith(":"):
            flush()
            cur = ("schema", line[len("schema "):-1].strip(),
                   {"vars": [], "requires": [], "positive": [], "gives": []})
            continue
        if cur is None:
            raise ValueError("registry file: directive outside a block: %r" % line)
        if cur[0] == "function":
            info = cur[2]
            if line.startswith("domain "):
                info["domain"] = line.split(None, 1)[1].strip()
                if info["domain"] not in ("positive", "selfadjoint"):
                    raise ValueError("registry file: domain must be positive "
                                     "or selfadjoint, got %r" % info["domain"])
            elif line.startswith("piece "):
                head, coeffs = line[len("piece "):].split(":", 1)
                lo_s, hi_s = head.split()
                info["pieces"].append(Piece(
                    Fraction(lo_s), Fraction(hi_s),
                    [Fraction(c) for c in coeffs.split()]))
            else:
                raise ValueError("registry file: bad function line %r" % line)
        else:
            info = cur[2]
            if line.startswith("vars "):
                info["vars"] = line.split()[1:]
            elif line.startswith("requires "):
                info["requires"].append(line[len("requires "):])
            elif line.startswith("positive "):
                info["positive"].append(line[len("positive "):])
            elif line.startswith("gives "):
                info["gives"].append(line[len("gives "):])
            else:
                raise ValueError("registry file: bad schema line %r" % line)
    flush()
    return Registry(fns, schemata)


def _check_pieces(name: str, pieces: list[Piece]):
    """The pieces of a file function must tile one interval, and agree
    where they meet: the functional calculus needs a continuous function,
    and the range map knows nothing of gaps."""
    if not pieces:
        raise ValueError("registry file: function %s has no piece" % name)
    for pc in pieces:
        if pc.lo > pc.hi:
            raise ValueError("registry file: function %s has a piece with "
                             "lo %s > hi %s" % (name, pc.lo, pc.hi))
    pieces = sorted(pieces, key=lambda pc: pc.lo)
    for prev, pc in zip(pieces, pieces[1:]):
        if pc.lo != prev.hi:
            raise ValueError("registry file: function %s has a piece ending "
                             "at %s and the next starting at %s"
                             % (name, prev.hi, pc.lo))
        if prev.eval_exact(pc.lo) != pc.eval_exact(pc.lo):
            raise ValueError("registry file: function %s is not continuous "
                             "at %s" % (name, pc.lo))


_PLACEHOLDER = re.compile(r"\?([A-Za-z_][A-Za-z0-9_]*)")


def _text_schema(name: str, info: dict) -> LemmaSchema:
    tvars = tuple(info["vars"])
    for template in info["requires"] + info["positive"] + info["gives"]:
        for v in _PLACEHOLDER.findall(template):
            if v not in tvars:
                raise ValueError("registry file: schema %s uses undeclared "
                                 "placeholder ?%s" % (name, v))

    def build(bindings: dict, reg: Registry) -> SchemaData:
        from .parser import format_term, parse_term

        text = {v: "(" + format_term(bindings[v], NormedSet()) + ")"
                for v in tvars}
        names = sorted(set(s for v in tvars for s in bindings[v].symbols()))
        gens = NormedSet((s, XS(10 ** 6)) for s in names)

        def subst(template: str) -> NF:
            txt = _PLACEHOLDER.sub(lambda m: text[m.group(1)], template)
            return parse_term(txt, gens, reg, check_domains=False)

        return SchemaData(
            requires=[subst(t) for t in info["requires"]],
            gives=[subst(t) for t in info["gives"]],
            positive=[subst(t) for t in info["positive"]])

    return LemmaSchema(name, tvars, (), build, None, "user schema")
