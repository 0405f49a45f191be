"""Term grammar: tokenizer, recursive-descent parser, canonical printer.

Grammar (whitespace-insensitive; juxtaposition is multiplication and a
centered dot between factors is accepted and ignored):

    expr    := ['-'] prod (('+' | '-') prod)*
    prod    := factor factor*
    factor  := primary ('*' | '^' nat)*          -- postfix adjoint / power
    primary := scalar | ident | ident '(' expr (',' scalar)* ')' | '(' expr ')'
    scalar  := rational | rational 'i' | 'sqrt' '(' rational ')'
    rational:= nat ['/' nat]

'*' is always the postfix adjoint; products are written by juxtaposition,
so "(x - x*)*(x - x*)" is star(x - x*) times (x - x*).  A sqrt(...) whose
body is a rational scalar is a number (it must be a perfect square when
used as a coefficient); otherwise sqrt is the functional-calculus symbol.
"""

from __future__ import annotations

from fractions import Fraction

from .exact import XS, Coeff
from .terms import (NF, Atom, CALL, NormedSet, nf_coerce, gen_nf, star,
                    is_selfadjoint, sorted_monomials, UNIT)


class ParseError(ValueError):
    pass


class TermError(ValueError):
    """A structurally invalid term (bad call argument, unknown symbol...)."""


# -- top-level splitting ------------------------------------------------

def split_top(text: str, op: str) -> list[str]:
    """Split on a top-level operator, paren-aware; '=' skips >=, <=."""
    out, depth, start, i = [], 0, 0, 0
    while i < len(text):
        c = text[i]
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
        elif depth == 0 and text.startswith(op, i):
            if op == "=" and i > 0 and text[i - 1] in "<>=":
                i += 1
                continue
            if op == "=" and text.startswith("==", i):
                i += 2
                continue
            out.append(text[start:i])
            start = i + len(op)
            i = start
            continue
        i += 1
    out.append(text[start:])
    return out


# -- tokenizer ----------------------------------------------------------

_PUNCT = {"+", "-", "(", ")", ",", "*", "^", "="}


def tokenize(text: str) -> list[tuple[str, object]]:
    toks: list[tuple[str, object]] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace() or c == "·":
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            num = int(text[i:j])
            den = 1
            if j < n and text[j] == "/" and j + 1 < n and text[j + 1].isdigit():
                k = j + 1
                while k < n and text[k].isdigit():
                    k += 1
                den = int(text[j + 1:k])
                j = k
            if den == 0:
                raise ParseError("division by zero in rational at %d" % i)
            toks.append(("rat", Fraction(num, den), i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("ident", text[i:j], i))
            i = j
            continue
        if c in _PUNCT:
            toks.append((c, c, i))
            i += 1
            continue
        raise ParseError("unexpected character %r at position %d" % (c, i))
    toks.append(("end", None, n))
    return toks


class _Stream:
    def __init__(self, toks):
        self.toks = toks
        self.pos = 0

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, kind):
        t = self.next()
        if t[0] != kind:
            raise ParseError("expected %r, got %r at position %d"
                             % (kind, t[1], t[2]))
        return t


# -- scalar parsing -------------------------------------------------------

def _parse_scalar_atom(st: _Stream) -> XS:
    neg = False
    if st.peek()[0] == "-":
        st.next()
        neg = True
    t = st.peek()
    if t[0] == "rat":
        st.next()
        val = XS(t[1])
    elif t[0] == "ident" and t[1] == "sqrt":
        st.next()
        st.expect("(")
        inner = st.expect("rat")[1]
        if st.peek()[0] == "/":  # pragma: no cover - lexer folds this
            raise ParseError("malformed rational under sqrt")
        st.expect(")")
        val = XS.sqrt_of(inner)
    else:
        raise ParseError("expected a scalar, got %r" % (t[1],))
    return -val if neg else val


def parse_scalar(text: str) -> XS:
    """An exact real scalar: rational or sqrt(rational), optional sign."""
    st = _Stream(tokenize(text))
    v = _parse_scalar_atom(st)
    st.expect("end")
    return v


def parse_normvalue(text: str) -> XS:
    v = parse_scalar(text)
    if not v.is_norm_value():
        raise ParseError("norm value must be rational or sqrt(rational): %r" % text)
    if v.sign() < 0:
        raise ParseError("norm value must be nonnegative: %r" % text)
    return v


# -- term parsing ----------------------------------------------------------

class _TermParser:
    def __init__(self, st: _Stream, gens: NormedSet, registry,
                 check_domains: bool = True):
        self.st = st
        self.gens = gens
        self.registry = registry
        self.check_domains = check_domains

    def expr(self) -> NF:
        neg = False
        if self.st.peek()[0] == "-":
            self.st.next()
            neg = True
        acc = self.prod()
        if neg:
            acc = -acc
        while self.st.peek()[0] in ("+", "-"):
            op = self.st.next()[0]
            rhs = self.prod()
            acc = acc + rhs if op == "+" else acc - rhs
        return acc

    def prod(self) -> NF:
        acc = self.factor()
        while self.st.peek()[0] in ("rat", "ident", "("):
            acc = acc * self.factor()
        return acc

    def factor(self) -> NF:
        acc = self.primary()
        while True:
            t = self.st.peek()
            if t[0] == "*":
                self.st.next()
                acc = star(acc)
            elif t[0] == "^":
                self.st.next()
                e = self.st.expect("rat")[1]
                if e.denominator != 1 or e < 0:
                    raise ParseError("exponent must be a natural number")
                out = nf_coerce(1)
                for _ in range(int(e)):
                    out = out * acc
                acc = out
            else:
                return acc

    def primary(self) -> NF:
        t = self.st.next()
        if t[0] == "rat":
            if self.st.peek()[:2] == ("ident", "i"):
                self.st.next()
                return nf_coerce(Coeff(0, t[1]))
            return nf_coerce(Coeff(t[1]))
        if t[0] == "(":
            inner = self.expr()
            self.st.expect(")")
            return inner
        if t[0] == "ident":
            name = t[1]
            if name == "i":
                raise ParseError("bare 'i' is not a term; write 1i")
            if self.st.peek()[0] == "(":
                return self.call(name)
            if name in self.gens:
                return gen_nf(name)
            raise TermError("unknown symbol %r" % name)
        raise ParseError("unexpected token %r at position %d" % (t[1], t[2]))

    def call(self, name: str) -> NF:
        self.st.expect("(")
        arg = self.expr()
        params: list[XS] = []
        while self.st.peek()[0] == ",":
            self.st.next()
            params.append(_parse_scalar_atom(self.st))
        self.st.expect(")")

        if name == "sqrt" and not params:
            sc = arg.as_scalar()
            if sc is not None:
                # a number: sqrt of a rational scalar
                if not sc.is_real or sc.re < 0:
                    raise TermError("sqrt of a negative or complex scalar")
                v = XS.sqrt_of(sc.re)
                if not v.is_rational:
                    raise TermError(
                        "sqrt(%s) is irrational and cannot be a coefficient" % sc.re)
                return nf_coerce(Coeff(v.as_fraction()))

        fn = self.registry.function(name)
        if fn is None:
            raise TermError("unknown function symbol %r" % name)
        if len(params) != fn.n_params:
            raise TermError("%s takes %d parameter(s), got %d"
                            % (name, fn.n_params, len(params)))
        fn.validate_params(tuple(params))
        if fn.domain != "entire":
            if not is_selfadjoint(arg):
                raise TermError(
                    "argument of %s must be self-adjoint as a normal form" % name)
        atom = Atom(CALL, name, arg, tuple(params))
        if self.check_domains:
            _check_call_domain(atom, fn, self.gens, self.registry)
        return NF({(atom,): Coeff.ONE})


def _check_call_domain(atom: Atom, fn, gens: NormedSet, registry):
    lo_req, hi_req = fn.domain_window(atom.params)
    if lo_req is None and hi_req is None:
        return
    from . import bounds  # deferred: bounds sits above terms, below parser users
    ctx = bounds.Context(gens, registry)
    ival = bounds.interval(atom.arg, ctx)
    if lo_req is not None:
        if ival.lo.cmp(lo_req) < 0:
            raise TermError(
                "argument of %s not within its domain: need spectrum >= %s, "
                "sound enclosure gives %s" % (atom.sym, lo_req, ival))
    if hi_req is not None:
        if ival.hi.cmp(hi_req) > 0:
            raise TermError(
                "argument of %s not within its domain: need spectrum <= %s, "
                "sound enclosure gives %s" % (atom.sym, hi_req, ival))


def parse_term(text: str, gens: NormedSet, registry,
               check_domains: bool = True) -> NF:
    st = _Stream(tokenize(text))
    p = _TermParser(st, gens, registry, check_domains)
    t = p.expr()
    st.expect("end")
    return t


# -- canonical printer -----------------------------------------------------

def format_fraction(q: Fraction) -> str:
    return str(q)


def format_scalar_xs(v: XS) -> str:
    if v.is_rational:
        return format_fraction(v.as_fraction())
    if v.a == 0:
        rad = v.b * v.b * v.r
        if v.b < 0:
            return "-sqrt(%s)" % format_fraction(rad)
        return "sqrt(%s)" % format_fraction(rad)
    raise ValueError("scalar %s is not printable in the grammar" % v)


def _format_atom(a: Atom, gens: NormedSet) -> str:
    if a.kind == "gen":
        return a.sym
    if a.kind == "adj":
        return a.sym + "*"
    inner = format_term(a.arg, gens)
    for p in a.params:
        inner += ", " + format_scalar_xs(p)
    return "%s(%s)" % (a.sym, inner)


def _format_coeff_mono(c: Coeff, mono_txt: str) -> tuple[int, str]:
    """Return (sign, body) where sign is +1/-1 and body omits the sign."""
    if c.is_real:
        sign = 1 if c.re > 0 else -1
        mag = abs(c.re)
        if mono_txt == "":
            return sign, format_fraction(mag)
        if mag == 1:
            return sign, mono_txt
        return sign, "%s %s" % (format_fraction(mag), mono_txt)
    if c.re == 0:
        sign = 1 if c.im > 0 else -1
        body = "%si" % format_fraction(abs(c.im))
        return sign, body if mono_txt == "" else "%s %s" % (body, mono_txt)
    # general complex coefficient: parenthesized, positive sign outside
    im_sign = "+" if c.im > 0 else "-"
    body = "(%s %s %si)" % (format_fraction(c.re), im_sign,
                            format_fraction(abs(c.im)))
    return 1, body if mono_txt == "" else "%s %s" % (body, mono_txt)


def format_term(t: NF, gens: NormedSet) -> str:
    if t.is_zero:
        return "0"
    pieces = []
    for m in sorted_monomials(t, gens):
        mono_txt = " ".join(_format_atom(a, gens) for a in m) if m != UNIT else ""
        pieces.append(_format_coeff_mono(t[m], mono_txt))
    sign, body = pieces[0]
    out = ("-" if sign < 0 else "") + body
    for sign, body in pieces[1:]:
        out += (" - " if sign < 0 else " + ") + body
    return out
