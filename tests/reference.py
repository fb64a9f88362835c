"""Reference routes built on Polynomial arithmetic.

The parser builds every polynomial of the text one operator at a time,
by recursive descent over a tokenizer of one match per token, and the
separating quotients are built the same way: the route ``specta._expr``
and ``specta.paths`` took before they worked on integer numerators.  The
tests check that the library gives the same Polynomials (variables, terms
and, for the parser, term order), node trees and errors.  Only the error
class is shared with ``specta._expr``.  ``coeffs_in`` splits
a Polynomial by powers of one variable, and ``truncated_factorial``
builds the Polynomial p_k of the separating quotients, for the tests' own
reference computations.

The isolation of a rational list and the critical sections of a stack
are kept on the route before they shared one Sturm chain: a square-free
part by a gcd with the derivative and a division, then a second remainder
sequence for that part's chain (``two_gcd_uisolate``), and the gcd G of
a stack's slice product prod and prod' as prod over the sections'
defining list (``division_critical``).  ``projection_phase`` and
``squarefree_part`` give the x-basis of a family and the square-free
part of one polynomial as Polynomials, for the tests that pin them.

``series_add``, ``series_mul``, ``series_div``, ``series_sqrt`` and
``series_abs`` are PuiseuxSeries arithmetic on Fraction coefficients,
the route before series were stored as integer numerators over one
denominator.  The ``poly_*`` functions are Polynomial's ``make``, ``+``,
``-``, ``*``, ``**``, ``evaluate``, ``substitute`` and
``univariate_coeffs`` on Fraction coefficients, the route before
Polynomials were stored as integer numerators over one denominator.
"""

import math
import operator
import re
from fractions import Fraction

from specta import arith, cad2d
from specta._expr import ExprError
from specta.arith import Polynomial, ZeroPolynomialError
from specta.cad2d import And, Atom, CadError, Not, Or
from specta.paths import (DEFAULT_TRUNCATION, IndeterminateDenominator, IndeterminateOrder,
                          NegativeLeadingSqrt, PathError, PuiseuxSeries, SAFunction, _cut,
                          _fraction_sqrt)


def coeffs_in(p, name):
    """Little-endian coefficient list of p with respect to one variable;
    the entries are Polynomials in the remaining variables."""
    i = p.variables.index(name)
    rest = p.variables[:i] + p.variables[i + 1:]
    out = [{} for _ in range(max((e[i] for e in p.terms), default=0) + 1)]
    for e, c in p.terms.items():
        out[e[i]][e[:i] + e[i + 1:]] = c
    return [Polynomial(rest, d) for d in out]


_TOKEN = re.compile(
    r"""(?P<ws>\s+)
      | (?P<num>\d+)
      | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<rel><=|>=|==|=|<|>)
      | (?P<op>[-+*/^(),])
      | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL,
)

_KEYWORDS = {"AND", "OR", "NOT"}


def _tokenize(text):
    out = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "ws":
            continue
        value = m.group()
        if kind == "name" and value.upper() in _KEYWORDS:
            kind, value = "kw", value.upper()
        elif kind == "rel" and value == "==":
            value = "="
        elif kind == "bad":
            raise ExprError(text, m.start(), f"unexpected character {value!r}")
        out.append((kind, value, m.start()))
    out.append(("end", "", len(text)))
    return out


class Parser:
    def __init__(self, text):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0

    def _peek(self):
        return self.toks[self.i]

    def _next(self):
        tok = self.toks[self.i]
        if tok[0] != "end":
            self.i += 1
        return tok

    def _error(self, pos, message):
        raise ExprError(self.text, pos, message)

    def _expect_op(self, op):
        tok = self._peek()
        if tok[0] != "op" or tok[1] != op:
            self._error(tok[2], f"expected {op!r}")
        self._next()

    def _expect_end(self):
        tok = self._peek()
        if tok[0] != "end":
            self._error(tok[2], "unexpected trailing input")

    def _base(self):
        tok = self._next()
        if tok[0] == "num":
            return Polynomial.const(Fraction(int(tok[1])), ())
        if tok[0] == "name":
            return Polynomial.var(tok[1], (tok[1],))
        if tok[0] == "op" and tok[1] == "(":
            p = self._poly()
            self._expect_op(")")
            return p
        self._error(tok[2], "expected a number, a variable or a parenthesis")

    def _factor(self):
        sign = 1
        tok = self._peek()
        while tok[0] == "op" and tok[1] in "+-":
            self._next()
            if tok[1] == "-":
                sign = -sign
            tok = self._peek()
        base = self._base()
        tok = self._peek()
        if tok[0] == "op" and tok[1] == "^":
            self._next()
            e = self._peek()
            if e[0] != "num":
                self._error(e[2], "expected an integer exponent")
            self._next()
            base = base ** int(e[1])
        return base if sign > 0 else -base

    def _term(self):
        out = self._factor()
        while True:
            tok = self._peek()
            if tok[0] == "op" and tok[1] in "*/":
                self._next()
                rhs = self._factor()
                out = self._divide(out, rhs, tok[2]) if tok[1] == "/" else out * rhs
            elif tok[0] in ("num", "name") or (tok[0] == "op" and tok[1] == "("):
                out = out * self._factor()
            else:
                return out

    def _divide(self, out, rhs, pos):
        if not rhs.is_constant() or rhs.constant_value() == 0:
            self._error(pos, "division only by a nonzero constant")
        return out * Polynomial.const(1 / rhs.constant_value(), ())

    def _poly(self):
        out = self._term()
        while True:
            tok = self._peek()
            if tok[0] == "op" and tok[1] in "+-":
                self._next()
                rhs = self._term()
                out = out + rhs if tok[1] == "+" else out - rhs
            else:
                return out

    def _atom(self):
        start = self._peek()[2]
        left = self._poly()
        tok = self._peek()
        if tok[0] != "rel":
            self._error(tok[2], "expected a comparison operator")
        self._next()
        right = self._poly()
        try:
            return Atom(left - right, tok[1])
        except CadError as exc:
            self._error(start, str(exc))

    def _unit(self):
        tok = self._peek()
        if tok[0] == "kw" and tok[1] == "NOT":
            self._next()
            return Not(self._unit())
        mark = self.i
        try:
            return self._atom()
        except ExprError as atom_err:
            self.i = mark
            if tok[0] == "op" and tok[1] == "(":
                try:
                    self._next()
                    f = self._or()
                    self._expect_op(")")
                    return f
                except ExprError as paren_err:
                    if paren_err.position >= atom_err.position:
                        raise
                    raise atom_err from None
            raise atom_err

    def _and(self):
        parts = [self._unit()]
        while self._peek()[:2] == ("kw", "AND"):
            self._next()
            parts.append(self._unit())
        return parts[0] if len(parts) == 1 else And(tuple(parts))

    def _or(self):
        parts = [self._and()]
        while self._peek()[:2] == ("kw", "OR"):
            self._next()
            parts.append(self._and())
        return parts[0] if len(parts) == 1 else Or(tuple(parts))


class FnParser(Parser):
    def _base(self):
        tok = self._peek()
        if tok[0] != "name" or tok[1] not in ("abs", "sqrt"):
            return super()._base()
        self._next()
        nxt = self._peek()
        if nxt[0] != "op" or nxt[1] != "(":
            self._error(tok[2], f"{tok[1]} needs a parenthesized argument")
        self._next()
        inner = self._poly()
        self._expect_op(")")
        return SAFunction(tok[1], (inner,))

    def _divide(self, out, rhs, pos):
        if not (isinstance(rhs, Polynomial) and rhs.is_constant()):
            return SAFunction("/", (out, rhs))
        if rhs.constant_value() == 0:
            self._error(pos, "division by the constant zero")
        return out * Polynomial.const(1 / rhs.constant_value(), ())


def _on_variables(p, variables, parser, start):
    """p over the given tuple; a zero p reads as the zero polynomial.  A
    variable outside the tuple that occurs is an error at its first token
    from token start on."""
    variables = tuple(variables)
    if p.is_zero():
        return Polynomial(variables, {})
    for v in tuple(p.variables):
        if v in variables:
            continue
        if p.degree_in(v) > 0:
            pos = next(t[2] for t in parser.toks[start:] if t[:2] == ("name", v))
            parser._error(pos, f"unexpected variable {v!r}")
        p = coeffs_in(p, v)[0]
    return p if p.variables == variables else p.embed(variables)


def parse_polynomial(text, variables=None):
    parser = Parser(text)
    p = parser._poly()
    parser._expect_end()
    return p if variables is None else _on_variables(p, variables, parser, 0)


def parse_polynomial_list(text, variables=None):
    parser = Parser(text)
    out = [(0, parser._poly())]
    while parser._peek()[:2] == ("op", ","):
        parser._next()
        out.append((parser.i, parser._poly()))
    parser._expect_end()
    if variables is None:
        return [p for _, p in out]
    return [_on_variables(p, variables, parser, start) for start, p in out]


def parse_formula(text):
    parser = Parser(text)
    f = parser._or()
    parser._expect_end()
    return f


def parse_function(text):
    parser = FnParser(text)
    node = parser._poly()
    parser._expect_end()
    return node


def truncated_factorial(k):
    """sum of n!*x^n for 2 <= n <= k."""
    coeffs = [Fraction(0)] * (max(k, 1) + 1)
    for n in range(2, k + 1):
        coeffs[n] = Fraction(math.factorial(n))
    return Polynomial.from_univariate("x", coeffs)


def appendix_separator(k):
    x = Polynomial.var("x", ("x", "y"))
    y = Polynomial.var("y", ("x", "y"))
    num = (y - truncated_factorial(k).embed(("x", "y"))) ** 2
    return SAFunction("/", (num, num + x ** (2 * k)))


def projection_phase(polys):
    """Univariate x-polynomials whose roots delineate the input family: the
    coprime square-free x-basis that ``cad2d._project`` builds beside the
    y-basis, from the x-only inputs and contents, the nonconstant leading
    y-coefficients, y-discriminants and pairwise y-resultants."""
    rows = [arith._rows(p)[0] for p in polys]
    return [arith._poly([q], ("x",)) for q in cad2d._project(*cad2d._prepare(rows))[1]]


def squarefree_part(p):
    """Product of the distinct irreducible factors of p in x and y (others
    raise ArithError), factors free of y included, normalized as by
    ``arith.poly_gcd``."""
    if p.is_zero():
        raise ZeroPolynomialError("square-free part of zero polynomial")
    return arith._poly(arith._bsquarefree(arith._rows(p)[0]))


def two_gcd_uisolate(p):
    """The roots of a rational list as ``arith.uisolate`` isolated them
    with a square-free part first: ``_usquarefree`` (one remainder
    sequence for the gcd with the derivative), then the Sturm chain of
    that part (a second one) to bisect on, from the same Cauchy bound and
    gap."""
    p = arith._trim(p)
    if len(p) == 1:
        return []
    sq = arith._uint_primitive(arith._usquarefree(p))
    bound = Fraction(1 - (-max(map(abs, sq[:-1])) // sq[-1]))
    return list(arith._bisect(sq, arith._usturm(sq), {}, bound, Fraction(1, sq[-1] ** 2 + 1)))


def division_critical(prod, sections, fences):
    """``cad2d.Stack.critical`` of a line whose slice product prod has the
    given sections and fences, with gcd(prod, prod') taken as the exact
    quotient of prod by the sections' defining list (over Q(alpha) a
    field division), counted and placed as ``cad2d._critical`` does."""
    prod = arith._trim(prod)
    if not sections or len(sections[0].coeffs) == len(prod):
        return ()
    chain = arith._usturm(arith._udivmod(prod, sections[0].coeffs)[0])
    n = arith.sturm_count(chain, None, None)
    if n != 1:
        return () if n == 0 else None
    lo, hi = 0, len(fences) - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if arith.sturm_count(chain, None, fences[mid]):
            hi = mid
        else:
            lo = mid
    return (lo,)


# -- series arithmetic on Fraction coefficients ----------------------------
#
# PuiseuxSeries arithmetic as it ran before series were stored as integer
# numerators over one denominator: every coefficient a Fraction, read from
# the ``coeffs`` view, and every result built by the public constructor.


def _fraction_lift(a, b):
    ram = math.lcm(a.ram, b.ram)
    return ram, *({n * (ram // s.ram): c for n, c in s.coeffs.items()} for s in (a, b))


def _trunc_min(a, b):
    return b if a is None else a if b is None else min(a, b)


def series_add(a, b):
    ram, ca, cb = _fraction_lift(a, b)
    out = dict(ca)
    for n, c in cb.items():
        out[n] = out.get(n, 0) + c
    return PuiseuxSeries(ram, out, _trunc_min(a.trunc, b.trunc))


def series_mul(a, b):
    trunc = None
    if a.trunc is not None or b.trunc is not None:
        ta = math.inf if a.trunc is None else a.trunc
        tb = math.inf if b.trunc is None else b.trunc
        bound = min(a.order_lower_bound() + tb, b.order_lower_bound() + ta, ta + tb)
        trunc = None if bound == math.inf else bound
    ram, ca, cb = _fraction_lift(a, b)
    if len(ca) == 1 or len(cb) == 1:
        ((m, c),), rest = (ca.items(), cb) if len(ca) == 1 else (cb.items(), ca)
        return PuiseuxSeries(ram, {m + n: v * c for n, v in sorted(rest.items())}, trunc)
    cut = math.inf if trunc is None else _cut(trunc, ram)
    ea, eb = sorted(ca), sorted(cb)
    ia, da = arith._over_common([ca[n] for n in ea])
    ib, db = arith._over_common([cb[n] for n in eb])
    out = {}
    for na, x in zip(ea, ia):
        if not eb or na + eb[0] >= cut:
            break
        for nb, y in zip(eb, ib):
            n = na + nb
            if n >= cut:
                break
            out[n] = out.get(n, 0) + x * y
    return PuiseuxSeries(ram, {n: Fraction(v, da * db) for n, v in out.items()}, trunc)


def series_div(num, den, cap=None):
    if den.vanishes_so_far():
        if den.exact:
            raise ZeroDivisionError("division by the zero series")
        raise IndeterminateDenominator(f"denominator vanishes up to truncation {den.trunc}")
    q = den.order()
    cap = DEFAULT_TRUNCATION if cap is None else Fraction(cap)
    tn = math.inf if num.trunc is None else num.trunc
    td = math.inf if den.trunc is None else den.trunc
    bound = min(num.order_lower_bound() + td - 2 * q, tn - q, cap)
    if num.vanishes_so_far():
        return PuiseuxSeries.zero(None if num.exact else bound)
    ram, a, b = _fraction_lift(num, den)
    ea, eb = sorted(a), sorted(b)
    ia, da = arith._over_common([a[n] for n in ea])
    ib, db = arith._over_common([b[n] for n in eb])
    remainder = dict(zip(ea, ia))
    d0, lead = eb[0], ib[0]
    rest = list(zip(eb[1:], ib[1:]))
    cut = _cut(bound, ram)
    out = {}
    scale = da
    exact = num.exact and den.exact
    while remainder:
        n = min(remainder)
        shift = n - d0
        if shift >= cut:
            exact = False
            break
        c = remainder.pop(n)
        scale *= lead
        out[shift] = Fraction(c * db, scale)
        remainder = {k: v * lead for k, v in remainder.items()}
        for nd, cd in rest:
            key = shift + nd
            val = remainder.get(key, 0) - c * cd
            if val == 0:
                remainder.pop(key, None)
            else:
                remainder[key] = val
    return PuiseuxSeries(ram, out, None if exact else bound)


def series_sqrt(s, cap=None):
    if s.vanishes_so_far():
        if s.exact:
            return PuiseuxSeries.zero()
        raise IndeterminateOrder(
            f"square root of a series that vanishes up to truncation {s.trunc}")
    q = s.order()
    c = s.leading_coefficient()
    if c < 0:
        raise NegativeLeadingSqrt(f"leading term {c}*t^{q} is negative")
    root = _fraction_sqrt(c)
    if root is None:
        raise PathError(f"leading coefficient {c} is not the square of a rational")
    if len(s.coeffs) == 1 and s.exact:
        return PuiseuxSeries.monomial(q / 2, root)
    cap = DEFAULT_TRUNCATION if cap is None else Fraction(cap)
    bound = cap if s.exact else min(s.trunc - q / 2, cap)
    n0 = min(s.coeffs)
    terms = [root]
    for i in range(1, (_cut(bound, 2 * s.ram) - n0 + 1) // 2):
        acc = s.coeffs.get(n0 + i, 0)
        for j in range(1, (i + 1) // 2):
            acc -= 2 * terms[j] * terms[i - j]
        if i % 2 == 0:
            acc -= terms[i // 2] ** 2
        terms.append(acc / (2 * root))
    return PuiseuxSeries(2 * s.ram, {n0 + 2 * i: r for i, r in enumerate(terms)}, bound)


def series_abs(s):
    if s.vanishes_so_far() or s.leading_coefficient() > 0:
        return s
    return PuiseuxSeries(s.ram, {n: -c for n, c in s.coeffs.items()}, s.trunc)


# -- Polynomial arithmetic on Fraction coefficients ------------------------
#
# Polynomial's operations as they ran before Polynomials were stored as
# integer numerators over one denominator: every coefficient a Fraction,
# read from the ``terms`` view, and every result built by the public
# constructor.


def poly_make(variables, terms):
    variables = tuple(variables)
    clean = {}
    for e, c in terms.items():
        c = Fraction(c)
        if c == 0:
            continue
        e = tuple(int(k) for k in e)
        if len(e) != len(variables):
            raise arith.ArithError("exponent length does not match variables")
        if any(k < 0 for k in e):
            raise arith.ArithError("negative exponent")
        clean[e] = clean.get(e, Fraction(0)) + c
    return Polynomial(variables, {e: c for e, c in clean.items() if c != 0})


def _poly_const(c, variables):
    c = Fraction(c)
    return Polynomial(variables, {(0,) * len(variables): c} if c else {})


def _poly_embed(p, variables):
    pos = [variables.index(v) for v in p.variables]
    terms = {}
    for e, c in p.terms.items():
        ne = [0] * len(variables)
        for i, k in zip(pos, e):
            ne[i] = k
        terms[tuple(ne)] = c
    return Polynomial(variables, terms)


def _poly_aligned(a, b):
    if isinstance(b, (int, Fraction)):
        b = _poly_const(b, a.variables)
    if a.variables == b.variables:
        return a, b
    merged = a.variables + tuple(v for v in b.variables if v not in a.variables)
    return _poly_embed(a, merged), _poly_embed(b, merged)


def poly_add(a, b):
    a, b = _poly_aligned(a, b)
    terms = dict(a.terms)
    for e, c in b.terms.items():
        terms[e] = terms.get(e, Fraction(0)) + c
    return Polynomial(a.variables, {e: c for e, c in terms.items() if c != 0})


def poly_neg(a):
    return Polynomial(a.variables, {e: -c for e, c in a.terms.items()})


def poly_sub(a, b):
    a, b = _poly_aligned(a, b)
    return poly_add(a, poly_neg(b))


def poly_mul(a, b):
    """The pair-by-pair Fraction product."""
    a, b = _poly_aligned(a, b)
    terms = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            terms[e] = terms.get(e, Fraction(0)) + c1 * c2
    return Polynomial(a.variables, {e: c for e, c in terms.items() if c != 0})


def poly_pow(a, n):
    if len(a.terms) == 1:
        ((e, c),) = a.terms.items()
        return Polynomial(a.variables, {tuple(k * n for k in e): c ** n})
    return arith.binary_power(a, n, _poly_const(1, a.variables), poly_mul)


def poly_evaluate(p, values, zero=Fraction(0), add=operator.add, mul=operator.mul):
    """Terms in order, each zero + c times the powers of its values, in
    the ring whose sum and product are add and mul."""
    rows = {}

    def power(name, k):
        row = rows.setdefault(name, [values[name]])
        while len(row) < k:
            row.append(mul(row[-1], row[0]))
        return row[k - 1]

    out = zero
    for e, c in p.terms.items():
        term = add(zero, c)
        for name, k in zip(p.variables, e):
            if k:
                term = mul(term, power(name, k))
        out = add(out, term)
    return out


def poly_substitute(p, assignment):
    remaining = tuple(v for v in p.variables if v not in assignment)
    values = {v: Polynomial.var(v, remaining) for v in remaining}
    values.update(assignment)
    return poly_evaluate(p, values, _poly_const(0, remaining), poly_add, poly_mul)


def poly_univariate_coeffs(p):
    live = {i for e in p.terms for i, k in enumerate(e) if k}
    if len(live) > 1:
        raise arith.ArithError("polynomial is not univariate")
    if not live:
        return [next(iter(p.terms.values()), Fraction(0))]
    (i,) = live
    out = [Fraction(0)] * (max(e[i] for e in p.terms) + 1)
    for e, c in p.terms.items():
        out[e[i]] = c
    return out
