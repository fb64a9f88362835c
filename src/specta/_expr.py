"""Text notation for polynomials and sign-condition formulas.

Polynomial syntax: +, -, * and / (division only by a nonzero constant),
^ for powers, parentheses, and implicit multiplication, so ``2t^2 + 6t^3``
and ``3/4 x y`` mean what they look like.  Formula syntax combines
polynomial comparisons (<, <=, = or ==, >=, >) with AND, OR, NOT (case
insensitive) and parentheses.  All errors carry 1-based line and column
positions of the offending token.

The text's names, in first-appearance order, give every monomial one
exponent tuple.  A polynomial being parsed is {exponent tuple: int
numerator} over one positive int denominator, with the names occurring
in it in first-appearance order, and becomes a ``Polynomial`` over those
names (or over ``variables``, where names with exponent 0 drop out) once.
"""

import re
from fractions import Fraction
from math import gcd
from operator import add

from .arith import Polynomial, binary_power
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


def _merged(a, b):
    """The names of a followed by those of b not in a."""
    return a if a is b or not b else a + tuple(v for v in b if v not in a)


class _Sum:
    """A polynomial being parsed: {exponent tuple: nonzero int numerator}
    over the int den > 0, and the names that occur in it.  Each operation
    lists its terms in the order of the Polynomial operation it stands for."""

    __slots__ = ("terms", "den", "names")

    def __init__(self, terms, den, names):
        self.terms, self.den, self.names = terms, den, names

    def plus(self, other, sign):
        da, db = self.den, other.den
        den = da * db // gcd(da, db)
        terms = {e: c * (den // da) for e, c in self.terms.items()}
        for e, c in other.terms.items():
            terms[e] = terms.get(e, 0) + sign * (den // db) * c
        return _Sum({e: c for e, c in terms.items() if c}, den, _merged(self.names, other.names))

    def __mul__(self, other):
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return _Sum({e: c for e, c in out.items() if c}, self.den * other.den,
                    _merged(self.names, other.names))

    def __neg__(self):
        return _Sum({e: -c for e, c in self.terms.items()}, self.den, self.names)

    def power(self, n, zero):
        """self ** n; zero is the all-zero exponent tuple."""
        if len(self.terms) == 1:
            ((e, c),) = self.terms.items()
            return _Sum({tuple(k * n for k in e): c ** n}, self.den ** n, self.names)
        return binary_power(self, n, _Sum({zero: 1}, 1, self.names))

    def constant(self):
        """The value as a Fraction when no exponent is positive, else None."""
        one = len(self.terms) < 2 and not any(next(iter(self.terms), ()))
        return Fraction(sum(self.terms.values()), self.den) if one else None


class _Parser:
    def __init__(self, text):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0
        names = dict.fromkeys(tok[1] for tok in self.toks if tok[0] == "name")
        self.index = {v: i for i, v in enumerate(names)}
        self.zero = (0,) * len(names)
        self.units = {v: self.zero[:i] + (1,) + self.zero[i + 1:] for v, i in self.index.items()}

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

    def _number(self, q):
        """The constant q (an int or a Fraction) as a _Sum."""
        return _Sum({self.zero: q.numerator} if q else {}, q.denominator, ())

    def _settled(self, value, variables=None):
        """The Polynomial of a _Sum over its names, or over the variables
        tuple when one is given; any other value as it is."""
        if type(value) is not _Sum:
            return value
        variables = value.names if variables is None else tuple(variables)
        for v in value.names:
            if v not in variables and any(e[self.index[v]] for e in value.terms):
                raise ExprError(self.text, 0, f"unexpected variable {v!r}")
        pick = [self.index.get(v) for v in variables]
        terms = {tuple(0 if i is None else e[i] for i in pick): Fraction(c, value.den)
                 for e, c in value.terms.items()}
        return Polynomial(variables, terms)

    def _combine(self, op, a, b):
        """a op b for op one of + - * ^ (b an int for ^)."""
        if op == "^":
            return a.power(b, self.zero)
        return a * b if op == "*" else a.plus(b, 1 if op == "+" else -1)

    def _base(self):
        tok = self._next()
        if tok[0] == "num":
            return self._number(int(tok[1]))
        if tok[0] == "name":
            return _Sum({self.units[tok[1]]: 1}, 1, (tok[1],))
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
            base = self._combine("^", base, int(e[1]))
        return base if sign > 0 else -base

    def _term(self):
        out = self._factor()
        while True:
            tok = self._peek()
            if tok[0] == "op" and tok[1] in "*/":
                self._next()
                rhs = self._factor()
                out = (self._divide(out, rhs, tok[2]) if tok[1] == "/"
                       else self._combine("*", out, rhs))
            elif tok[0] in ("num", "name") or (tok[0] == "op" and tok[1] == "("):
                out = self._combine("*", out, self._factor())
            else:
                return out

    def _divide(self, out, rhs, pos):
        c = rhs.constant()
        if not c:
            self._error(pos, "division only by a nonzero constant")
        return self._combine("*", out, self._number(1 / c))

    def _poly(self):
        out = self._term()
        while True:
            tok = self._peek()
            if tok[0] == "op" and tok[1] in "+-":
                self._next()
                out = self._combine(tok[1], out, self._term())
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
            return Atom(self._settled(left.plus(right, -1)), tok[1])
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


def parse_polynomial(text: str, variables=None) -> Polynomial:
    """Polynomial from text; variables, when given, fixes the allowed tuple."""
    parser = _Parser(text)
    p = parser._poly()
    parser._expect_end()
    return parser._settled(p, variables)


def parse_polynomial_list(text: str, variables=None):
    """Comma separated polynomials, same conventions as parse_polynomial."""
    parser = _Parser(text)
    out = [parser._poly()]
    while parser._peek()[:2] == ("op", ","):
        parser._next()
        out.append(parser._poly())
    parser._expect_end()
    return [parser._settled(p, variables) for p in out]


def parse_formula(text: str):
    """Formula from text: comparisons joined by AND, OR, NOT and parentheses."""
    parser = _Parser(text)
    f = parser._or()
    parser._expect_end()
    return f
