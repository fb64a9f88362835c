"""Text notation for polynomials and sign-condition formulas.

Polynomial syntax: +, -, * and / (division only by a nonzero constant),
^ for powers, parentheses, and implicit multiplication, so ``2t^2 + 6t^3``
and ``3/4 x y`` mean what they look like.  Formula syntax combines
polynomial comparisons (<, <=, = or ==, >=, >) with AND, OR, NOT (case
insensitive) and parentheses.  All errors carry 1-based line and column
positions of the offending token.
"""

import re
from fractions import Fraction

from .arith import Polynomial
from .cad2d import And, Atom, CadError, Not, Or


class ExprError(ValueError):
    """Parse failure with line/column location."""

    def __init__(self, text, pos, message):
        self.position = pos
        self.line = text.count("\n", 0, pos) + 1
        self.column = pos - text.rfind("\n", 0, pos)
        super().__init__(f"line {self.line}, column {self.column}: {message}")


_TOKEN = re.compile(
    r"""(?P<ws>\s+)
      | (?P<num>\d+)
      | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<rel><=|>=|==|=|<|>)
      | (?P<op>[-+*/^(),])
    """,
    re.VERBOSE,
)

_KEYWORDS = {"AND", "OR", "NOT"}


def _tokenize(text):
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ExprError(text, pos, f"unexpected character {text[pos]!r}")
        pos = m.end()
        kind = m.lastgroup
        if kind == "ws":
            continue
        value = m.group()
        if kind == "name" and value.upper() in _KEYWORDS:
            out.append(("kw", value.upper(), m.start()))
        elif kind == "rel":
            out.append(("rel", "=" if value == "==" else value, m.start()))
        else:
            out.append((kind, value, m.start()))
    out.append(("end", "", len(text)))
    return out


class _Parser:
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

    # -- polynomials -------------------------------------------------------

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

    # -- formulas ----------------------------------------------------------

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
        while True:
            tok = self._peek()
            if tok[0] == "kw" and tok[1] == "AND":
                self._next()
                parts.append(self._unit())
            else:
                break
        return parts[0] if len(parts) == 1 else And(tuple(parts))

    def _or(self):
        parts = [self._and()]
        while True:
            tok = self._peek()
            if tok[0] == "kw" and tok[1] == "OR":
                self._next()
                parts.append(self._and())
            else:
                break
        return parts[0] if len(parts) == 1 else Or(tuple(parts))


def _on_variables(p: Polynomial, variables, text) -> Polynomial:
    variables = tuple(variables)
    for v in tuple(p.variables):
        if v in variables:
            continue
        if p.degree_in(v) > 0:
            raise ExprError(text, 0, f"unexpected variable {v!r}")
        p = p.coeffs_in(v)[0]
    return p if p.variables == variables else p.embed(variables)


def parse_polynomial(text: str, variables=None) -> Polynomial:
    """Polynomial from text; variables, when given, fixes the allowed tuple."""
    parser = _Parser(text)
    p = parser._poly()
    parser._expect_end()
    if variables is not None:
        p = _on_variables(p, variables, text)
    return p


def parse_polynomial_list(text: str, variables=None):
    """Comma separated polynomials, same conventions as parse_polynomial."""
    parser = _Parser(text)
    out = [parser._poly()]
    while parser._peek()[0] == "op" and parser._peek()[1] == ",":
        parser._next()
        out.append(parser._poly())
    parser._expect_end()
    if variables is not None:
        out = [_on_variables(p, variables, text) for p in out]
    return out


def parse_formula(text: str):
    """Formula from text: comparisons joined by AND, OR, NOT and parentheses."""
    parser = _Parser(text)
    f = parser._or()
    parser._expect_end()
    return f
