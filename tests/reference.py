"""Reference routes built on Polynomial arithmetic.

The parser builds every polynomial of the text one operator at a time,
and the separating quotients are built the same way: the route
``specta._expr`` and ``specta.paths`` took before they worked on integer
numerators.  The tests check that the library gives the same
Polynomials (variables, terms and, for the parser, term order), node
trees and errors.  The grammar is a copy of the one in ``specta._expr``;
only the tokenizer and the error class are shared.  ``coeffs_in`` splits
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
"""

import math
from fractions import Fraction

from specta import arith, cad2d
from specta._expr import ExprError, _tokenize
from specta.arith import Polynomial, ZeroPolynomialError
from specta.cad2d import And, Atom, CadError, Not, Or
from specta.paths import SAFunction


def coeffs_in(p, name):
    """Little-endian coefficient list of p with respect to one variable;
    the entries are Polynomials in the remaining variables."""
    i = p.variables.index(name)
    rest = p.variables[:i] + p.variables[i + 1:]
    out = [{} for _ in range(max((e[i] for e in p.terms), default=0) + 1)]
    for e, c in p.terms.items():
        out[e[i]][e[:i] + e[i + 1:]] = c
    return [Polynomial(rest, d) for d in out]


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


def _on_variables(p, variables, text):
    """p over the given tuple; a zero p reads as the zero polynomial."""
    variables = tuple(variables)
    if p.is_zero():
        return Polynomial(variables, {})
    for v in tuple(p.variables):
        if v in variables:
            continue
        if p.degree_in(v) > 0:
            raise ExprError(text, 0, f"unexpected variable {v!r}")
        p = coeffs_in(p, v)[0]
    return p if p.variables == variables else p.embed(variables)


def parse_polynomial(text, variables=None):
    parser = Parser(text)
    p = parser._poly()
    parser._expect_end()
    return p if variables is None else _on_variables(p, variables, text)


def parse_polynomial_list(text, variables=None):
    parser = Parser(text)
    out = [parser._poly()]
    while parser._peek()[:2] == ("op", ","):
        parser._next()
        out.append(parser._poly())
    parser._expect_end()
    return out if variables is None else [_on_variables(p, variables, text) for p in out]


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
