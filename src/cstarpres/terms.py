"""Exact term algebra for the scaled-free unital *-algebra.

A term is kept as a normal form: a finite map from monomials to Gaussian
rational coefficients.  A monomial is a word whose letters are generator
atoms, adjoint atoms, or functional-calculus call atoms whose argument
is itself a normal form.  The empty word is the unit.

Normal forms are canonical: structural equality is equality of terms in
the free unital *-algebra over the generators, with each call atom a
letter determined by its symbol, parameters and argument.

The involution needs no registry: every call atom satisfies
f(a)* = f(a*).  Entire symbols (exp, sin, cos) have real power-series
coefficients; every other symbol is a real spectral function, and the
parser only builds it on an argument that is self-adjoint as a normal
form, where f(a*) = f(a).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Mapping

from .exact import XS, Coeff

GEN = "gen"
ADJ = "adj"
CALL = "call"

IDENT_OK = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_"


def valid_ident(name: str) -> bool:
    return (bool(name) and name[0] not in "0123456789"
            and all(c in IDENT_OK for c in name) and name != "i")


class Atom:
    """One letter of a monomial: Gen(s), GenAdj(s), or FCall(fn, arg, params)."""

    __slots__ = ("kind", "sym", "arg", "params", "_hash")

    def __init__(self, kind: str, sym: str, arg: "NF | None" = None,
                 params: tuple[XS, ...] = ()):
        self.kind = kind
        self.sym = sym
        self.arg = arg
        self.params = params
        self._hash = hash((kind, sym, arg, params))

    def __eq__(self, other):
        return (isinstance(other, Atom) and self.kind == other.kind
                and self.sym == other.sym and self.params == other.params
                and self.arg == other.arg)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if self.kind == GEN:
            return self.sym
        if self.kind == ADJ:
            return self.sym + "*"
        inner = ", ".join([repr(self.arg)] + [str(p) for p in self.params])
        return "%s(%s)" % (self.sym, inner)


def gen(sym: str) -> Atom:
    return Atom(GEN, sym)


def adj(sym: str) -> Atom:
    return Atom(ADJ, sym)


Monomial = tuple  # tuple[Atom, ...]

UNIT: Monomial = ()


class NF(Mapping):
    """Normal form: immutable mapping monomial -> nonzero Coeff.

    `_star` caches the adjoint, which is the NF itself when self-adjoint."""

    __slots__ = ("_t", "_hash", "_star")

    def __init__(self, terms: Mapping[Monomial, Coeff] | None = None):
        t = {}
        if terms:
            for m, c in terms.items():
                if not isinstance(c, Coeff):
                    c = Coeff(c)
                if not c.is_zero:
                    t[m] = c
        self._t = t
        self._hash = None
        self._star = None

    # Mapping interface
    def __getitem__(self, m: Monomial) -> Coeff:
        return self._t[m]

    def __iter__(self) -> Iterator[Monomial]:
        return iter(self._t)

    def __len__(self) -> int:
        return len(self._t)

    def __contains__(self, m) -> bool:
        return m in self._t

    def items(self):
        return self._t.items()

    def __eq__(self, other):
        if not isinstance(other, NF):
            return NotImplemented
        return self._t == other._t

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self._t.items()))
        return self._hash

    # algebra
    def __add__(self, other) -> "NF":
        other = nf_coerce(other)
        t = dict(self._t)
        for m, c in other._t.items():
            s = t.get(m, Coeff.ZERO) + c
            if s.is_zero:
                t.pop(m, None)
            else:
                t[m] = s
        return NF(t)

    __radd__ = __add__

    def __neg__(self) -> "NF":
        return NF({m: -c for m, c in self._t.items()})

    def __sub__(self, other) -> "NF":
        return self + (-nf_coerce(other))

    def __rsub__(self, other) -> "NF":
        return nf_coerce(other) - self

    def __mul__(self, other) -> "NF":
        if isinstance(other, (int, Fraction, Coeff)):
            c0 = other if isinstance(other, Coeff) else Coeff(other)
            return NF({m: c * c0 for m, c in self._t.items()})
        other = nf_coerce(other)
        t: dict[Monomial, Coeff] = {}
        for m1, c1 in self._t.items():
            for m2, c2 in other._t.items():
                m = m1 + m2
                c = c1 * c2
                s = t.get(m)
                t[m] = c if s is None else s + c
        return NF(t)

    def __rmul__(self, other) -> "NF":
        if isinstance(other, (int, Fraction, Coeff)):
            return self.__mul__(other)
        return nf_coerce(other).__mul__(self)

    @property
    def is_zero(self) -> bool:
        return not self._t

    def scalar_part(self) -> Coeff:
        return self._t.get(UNIT, Coeff.ZERO)

    def as_scalar(self) -> Coeff | None:
        """The coefficient c when self == c*1, else None."""
        if not self._t:
            return Coeff.ZERO
        if len(self._t) == 1 and UNIT in self._t:
            return self._t[UNIT]
        return None

    def symbols(self) -> set[str]:
        out: set[str] = set()
        for m in self._t:
            for a in m:
                if a.kind == CALL:
                    out |= a.arg.symbols()
                else:
                    out.add(a.sym)
        return out

    def __repr__(self):
        if not self._t:
            return "NF(0)"
        bits = ["%s*%r" % (c, list(m)) for m, c in self._t.items()]
        return "NF(%s)" % " + ".join(bits)


ZERO = NF()
ONE = NF({UNIT: Coeff.ONE})


def nf_coerce(v) -> NF:
    if isinstance(v, NF):
        return v
    if isinstance(v, (int, Fraction, Coeff)):
        c = v if isinstance(v, Coeff) else Coeff(v)
        return NF({UNIT: c})
    raise TypeError("cannot coerce %r to NF" % (v,))


def gen_nf(sym: str) -> NF:
    return NF({(gen(sym),): Coeff.ONE})


def adj_nf(sym: str) -> NF:
    return NF({(adj(sym),): Coeff.ONE})


def call_nf(fn: str, arg: NF, params: tuple[XS, ...] = ()) -> NF:
    return NF({(Atom(CALL, fn, arg, params),): Coeff.ONE})


# -- involution --------------------------------------------------------

def star_atom(a: Atom) -> Atom:
    if a.kind == GEN:
        return Atom(ADJ, a.sym)
    if a.kind == ADJ:
        return Atom(GEN, a.sym)
    # f(b)* = f(b*); the atom itself when b is self-adjoint
    arg = star(a.arg)
    return a if arg is a.arg else Atom(CALL, a.sym, arg, a.params)


def star_monomial(m: Monomial) -> Monomial:
    return tuple(star_atom(a) for a in reversed(m))


def star(t: NF) -> NF:
    s = t._star
    if s is None:
        # star_monomial is injective, so no two monomials merge
        s = NF({star_monomial(m): c.conj() for m, c in t.items()})
        if s == t:
            s = t
        t._star = s
        s._star = t
    return s


def is_selfadjoint(t: NF) -> bool:
    return star(t) is t


# -- substitution ------------------------------------------------------

def substitute(t: NF, sub: Mapping[str, NF]) -> NF:
    """Apply the unital *-homomorphism sending each generator s in `sub`
    to sub[s] (and s* to star(sub[s])), recursing through call atoms."""
    out = ZERO
    for m, c in t.items():
        piece = nf_coerce(c)
        for a in m:
            if a.kind == GEN and a.sym in sub:
                piece = piece * sub[a.sym]
            elif a.kind == ADJ and a.sym in sub:
                piece = piece * star(sub[a.sym])
            elif a.kind == CALL:
                new_arg = substitute(a.arg, sub)
                piece = piece * NF({(Atom(CALL, a.sym, new_arg, a.params),): Coeff.ONE})
            else:
                piece = piece * NF({(a,): Coeff.ONE})
        out = out + piece
    return out


# -- relation shapes ---------------------------------------------------

def solve_for(body: NF, sym: str) -> NF | None:
    """sym - body / c, where c is the coefficient of the linear monomial
    sym in body: the t with body = c (sym - t).  None when body has no
    such monomial."""
    c = body.get((gen(sym),))
    if c is None:
        return None
    return gen_nf(sym) - body * (Coeff.ONE / c)


def geq_zero_body(a: NF) -> NF:
    """a >= 0 becomes a - p((a + a*)/2)."""
    half = Coeff(Fraction(1, 2))
    re_a = (a + star(a)) * half
    return a - call_nf("p", re_a)


def geq_operands(body: NF) -> list[tuple[Coeff, NF]]:
    """Every (c, a) with body = c * geq_zero_body(a), at most one per
    p(...) monomial of body, in body order."""
    half = Coeff(Fraction(1, 2))
    out = []
    for m, c0 in body.items():
        if len(m) != 1 or m[0].kind != CALL or m[0].sym != "p":
            continue
        c = -c0
        a = body * (Coeff.ONE / c) + NF({m: Coeff.ONE})
        if (a + star(a)) * half == m[0].arg:
            out.append((c, a))
    return out


def match_geq_body(body: NF) -> NF | None:
    """Inverse of geq_zero_body: recover a from a - p((a + a*)/2), or None."""
    for c, a in geq_operands(body):
        if c == Coeff.ONE:
            return a
    return None


# -- normed sets -------------------------------------------------------

class NormedSet:
    """Ordered set of generator names with nonnegative norm caps."""

    def __init__(self, items: Iterable[tuple[str, XS]] = ()):
        self._order: list[str] = []
        self._norm: dict[str, XS] = {}
        for name, nv in items:
            self.add(name, nv)

    def add(self, name: str, nv: XS):
        if not valid_ident(name):
            raise ValueError("invalid generator name %r" % name)
        if name in self._norm:
            raise ValueError("duplicate generator %r" % name)
        if not isinstance(nv, XS):
            nv = XS(nv)
        if not nv.is_norm_value():
            raise ValueError("norm of %s must be rational or sqrt(rational)" % name)
        if nv.sign() < 0:
            raise ValueError("norm of %s must be nonnegative" % name)
        self._order.append(name)
        self._norm[name] = nv

    def names(self) -> list[str]:
        return list(self._order)

    def norm(self, name: str) -> XS:
        return self._norm[name]

    def __contains__(self, name: str) -> bool:
        return name in self._norm

    def __len__(self) -> int:
        return len(self._order)

    def __iter__(self):
        return iter(self._order)

    def __eq__(self, other):
        if not isinstance(other, NormedSet):
            return NotImplemented
        return self._norm == other._norm  # order-insensitive value equality

    def copy(self) -> "NormedSet":
        return NormedSet((n, self._norm[n]) for n in self._order)

    def without(self, name: str) -> "NormedSet":
        return NormedSet((n, self._norm[n]) for n in self._order if n != name)

    def items(self):
        return [(n, self._norm[n]) for n in self._order]


# -- monomial order ----------------------------------------------------

def _xs_key(x: XS):
    return (x.a, x.b, x.r)


def atom_key(a: Atom, sym_index: Mapping[str, int]):
    if a.kind == CALL:
        return (1, a.sym, tuple(_xs_key(p) for p in a.params), nf_key(a.arg, sym_index))
    # generators sort before everything else, by declaration order,
    # with Gen(s) just before GenAdj(s)
    idx = sym_index.get(a.sym, len(sym_index))
    return (0, "", (), ((idx, 0 if a.kind == GEN else 1, a.sym),))


def monomial_key(m: Monomial, sym_index: Mapping[str, int]):
    """Length-lexicographic order: shorter words first, then atomwise."""
    return (len(m), tuple(atom_key(a, sym_index) for a in m))


def nf_key(t: NF, sym_index: Mapping[str, int]):
    ks = sorted(
        ((monomial_key(m, sym_index), (c.re, c.im)) for m, c in t.items()))
    return tuple(ks)


def sorted_monomials(t: NF, gens: NormedSet) -> list[Monomial]:
    sym_index = {s: i for i, s in enumerate(gens.names())}
    return sorted(t, key=lambda m: monomial_key(m, sym_index))


# -- augmentation ------------------------------------------------------

def augmentation(t: NF, registry) -> Coeff | None:
    """Evaluate the character killing every generator.

    Call atoms evaluate through the registry's exact values; None means
    the value is undetermined (the function has no exact value there),
    which is distinct from zero.
    """
    total = Coeff.ZERO
    for m, c in t.items():
        val = c
        undetermined = False
        for a in m:
            if a.kind in (GEN, ADJ):
                val = Coeff.ZERO
                undetermined = False
                break
            sub = augmentation(a.arg, registry)
            if sub is None:
                undetermined = True
                continue
            fv = registry.exact_value(a.sym, sub, a.params)
            if fv is None:
                undetermined = True
                continue
            val = val * fv
            if val.is_zero:
                break
        else:
            if undetermined:
                return None
        total = total + val
    return total
