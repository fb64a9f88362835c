"""Text notation for polynomials and sign-condition formulas.

Polynomial syntax: +, -, * and / (division only by a nonzero constant),
^ for powers, parentheses, and implicit multiplication, so ``2t^2 + 6t^3``
and ``3/4 x y`` mean what they look like.  Formula syntax combines
polynomial comparisons (<, <=, = or ==, >=, >) with AND, OR, NOT (case
insensitive) and parentheses.  All errors carry 1-based line and column
positions of the offending token.  Nesting deeper than ``MAX_DEPTH``
(parentheses, NOT, abs/sqrt calls, expression nodes) is an error too.

The text is split once into flat lists of token texts and kinds (token
positions are found for an error only); its names, in first-appearance
order, give every monomial one exponent tuple.  Precedence climbing in
one loop over those lists, with open parentheses on a stack, builds
[nums, den, names]: the integer numerators of ``arith.Polynomial``,
combined by its kernels (a sum adds in place), and the names met, in
order (a constant divisor adds none).  Each parsed polynomial becomes a
Polynomial over those names (or over ``variables``, where names with
exponent 0 drop out) once.
"""

import re
from functools import cached_property
from itertools import compress

from .arith import Polynomial, _merged, _nadd, _nmul, _npow, _picked
from .cad2d import And, Atom, CadError, Not, Or

MAX_DEPTH = 100  # levels of nesting a text may open
_TOO_DEEP = f"nesting deeper than {MAX_DEPTH} levels"


class ExprError(ValueError):
    """Parse failure with line/column location."""

    def __init__(self, text, pos, message):
        self.position = pos
        self.line = text.count("\n", 0, pos) + 1
        self.column = pos - text.rfind("\n", 0, pos)
        super().__init__(f"line {self.line}, column {self.column}: {message}")


_TOKEN = re.compile(r"[-+*/^(),]|[A-Za-z_][A-Za-z_0-9]*|\d+|[<>=]=?")
_BAD = re.compile(r"[^\s\dA-Za-z_<>=+\-*/^(),]")  # a character no token holds
# token kinds: "n" number, "v" name, AND, OR or NOT for a keyword, "r"
# relation, the character itself for an operator, "" for the end of the text
_KINDS = dict.fromkeys(("<=", ">=", "==", "=", "<", ">"), "r") | {c: c for c in "+-*/^(),"}
_NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_KEYWORDS = {"AND", "OR", "NOT"}
_FACTOR_NEXT = frozenset("*/nv(")  # kinds after a factor that continue a product


def _tokenize(text):
    """(toks, kinds): the token texts and kinds, closed by the end of the text."""
    bad = _BAD.search(text)
    if bad:
        raise ExprError(text, bad.start(), f"unexpected character {bad.group()!r}")
    toks = _TOKEN.findall(text)
    kinds = [_KINDS.get(t) or ("n" if t[0] not in _NAME_START else
                               k if (k := t.upper()) in _KEYWORDS else "v") for t in toks]
    return toks + [""], kinds + [""]


class _Parser:
    def __init__(self, text, node=None):
        """node: the type abs/sqrt and general division build; None for polynomials."""
        self.text, self.node, self.i = text, node, 0
        self.calls = ("abs", "sqrt") if node else ()
        self.toks, self.kinds = _tokenize(text)
        names = dict.fromkeys(compress(self.toks, map("v".__eq__, self.kinds)))
        for call in self.calls:
            names.pop(call, None)
        self.names = tuple(names)
        self.zero = zero = (0,) * len(names)
        self.leaves = {v: (zero[:j] + (1,) + zero[j + 1:], (v,)) for j, v in enumerate(names)}
        self.depths = {}  # id of a node built here -> the depth of its tree

    @cached_property
    def pos(self):
        """The start of each token, and the end of the text."""
        return [m.start() for m in _TOKEN.finditer(self.text)] + [len(self.text)]

    def _error(self, i, message):
        """Raise at token i."""
        raise ExprError(self.text, self.pos[i], message)

    def _expect_end(self):
        if self.kinds[self.i]:
            self._error(self.i, "unexpected trailing input")

    # -- polynomials -------------------------------------------------------

    def _sum(self, depth):
        """The polynomial (or expression node) from token self.i on, by
        precedence climbing; self.i ends at the first token after it.
        depth is the nesting around it."""
        toks, kinds, zero = self.toks, self.kinds, self.zero
        i = self.i
        frames = []  # per open parenthesis: the state around it and its call
        acc = term = None  # the running sum and product
        add = mul = 0  # tokens of the operators before the product and the factor
        while True:
            # a factor: its signs, then a number, a name or an opened level
            at, neg = i, False
            while kinds[i] == "+" or kinds[i] == "-":
                neg ^= kinds[i] == "-"
                i += 1
            k = kinds[i]
            if k == "n":
                c = int(toks[i])
                val = [{zero: c} if c else {}, 1, ()]
                i += 1
            elif k == "v" and toks[i] not in self.calls:
                unit, names = self.leaves[toks[i]]
                val = [{unit: 1}, 1, names]
                i += 1
            else:
                call = i if k == "v" else None
                if call is not None and kinds[i + 1] != "(":
                    self._error(i, f"{toks[i]} needs a parenthesized argument")
                if call is None and k != "(":
                    self._error(i, "expected a number, a variable or a parenthesis")
                if depth + len(frames) >= MAX_DEPTH:
                    self._error(i, _TOO_DEEP)
                frames.append((acc, add, term, mul, at, neg, call))
                acc = term = None
                i += 1 if call is None else 2
                continue
            while True:  # val is a complete base
                if kinds[i] == "^":
                    i += 1
                    if kinds[i] != "n":
                        self._error(i, "expected an integer exponent")
                    val = self._power(val, int(toks[i]), i)
                    i += 1
                if neg and type(val) is list:
                    val[0] = {e: -c for e, c in val[0].items()}
                elif neg:
                    val = self._built("-", (Polynomial.const(0, ()), val), at)
                term = val if term is None else self._apply(toks[mul], term, val, mul)
                k = kinds[i]
                if k in _FACTOR_NEXT:
                    mul = i
                    i += k == "*" or k == "/"
                    break
                acc = term if acc is None else self._apply(toks[add], acc, term, add)
                term = None
                if k == "+" or k == "-":
                    add = i
                    i += 1
                    break
                if not frames:
                    self.i = i
                    return acc
                if k != ")":
                    self._error(i, "expected ')'")
                i += 1
                val = acc
                acc, add, term, mul, at, neg, call = frames.pop()
                if call is not None:
                    val = self._built(toks[call], (self._settled(val),), call)

    def _apply(self, op, a, b, at):
        """a op b for op one of + - * / (implicit products pass the token
        that starts b); a sum adds b in place."""
        if op == "/":  # c: b's numerator when b is a constant
            one = type(b) is list and len(b[0]) < 2 and not any(next(iter(b[0]), ()))
            c = sum(b[0].values()) if one else None
            if c == 0 or self.node is None and c is None:
                self._error(at, "division by the constant zero" if self.node
                            else "division only by a nonzero constant")
            if c is None:
                return self._built("/", (self._settled(a), self._settled(b)), at)
            b = [{self.zero: b[1] if c > 0 else -b[1]}, abs(c), ()]
        if type(a) is not list or type(b) is not list:
            return self._built(op if op in "+-" else "*", (self._settled(a), self._settled(b)), at)
        if op not in "+-":
            return [_nmul(a[0], b[0]), a[1] * b[1], _merged(a[2], b[2])]
        a[1:] = _nadd(a[0], a[1], b[0], b[1], -1 if op == "-" else 1), _merged(a[2], b[2])
        return a

    def _power(self, a, n, at):
        if type(a) is list:
            return [_npow(a[0], n, self.zero), a[1] ** n, a[2]]
        if n == 0:
            return [{self.zero: 1}, 1, ()]
        out = a
        for _ in range(n - 1):
            out = self._built("*", (out, a), at)
        return out

    def _built(self, op, args, at):
        """The node op(args); a tree deeper than MAX_DEPTH is an error at token at."""
        depth = 1 + max(self.depths[id(f)] if type(f) is self.node else 0 for f in args)
        if depth > MAX_DEPTH:
            self._error(at, _TOO_DEEP)
        node = self.node(op, args)
        self.depths[id(node)] = depth
        return node

    def _settled(self, value, variables=None, start=0):
        """The Polynomial of a value over its names or the variables given (a
        name outside them that occurs is an error at its first token from
        token start on); a node as it is."""
        if type(value) is not list:
            return value
        nums, den, names = value
        variables = names if variables is None else tuple(variables)
        slot = self.names.index
        for v in names:
            if v not in variables and any(e[slot(v)] for e in nums):
                self._error(self.toks.index(v, start), f"unexpected variable {v!r}")
        if variables != self.names:
            nums = _picked(nums, [slot(v) if v in self.names else None for v in variables])
        return Polynomial._of(variables, nums, den)

    # -- formulas ----------------------------------------------------------

    def _atom(self, depth):
        start = self.i
        left = self._sum(depth)
        if self.kinds[self.i] != "r":
            self._error(self.i, "expected a comparison operator")
        rel = self.toks[self.i]
        self.i += 1
        diff = self._apply("-", left, self._sum(depth), start)
        try:
            return Atom(self._settled(diff), "=" if rel == "==" else rel)
        except CadError as exc:
            self._error(start, str(exc))

    def _unit(self, depth):
        mark = self.i
        if self.kinds[mark] == "NOT":
            if depth >= MAX_DEPTH:
                self._error(mark, _TOO_DEEP)
            self.i += 1
            return Not(self._unit(depth + 1))
        try:
            return self._atom(depth)
        except ExprError as atom_err:
            self.i = mark
            if self.kinds[mark] == "(":
                try:
                    if depth >= MAX_DEPTH:
                        self._error(mark, _TOO_DEEP)
                    self.i += 1
                    f = self._or(depth + 1)
                    if self.kinds[self.i] != ")":
                        self._error(self.i, "expected ')'")
                    self.i += 1
                    return f
                except ExprError as paren_err:
                    if paren_err.position >= atom_err.position:
                        raise
                    raise atom_err from None
            raise atom_err

    def _and(self, depth):
        parts = [self._unit(depth)]
        while self.kinds[self.i] == "AND":
            self.i += 1
            parts.append(self._unit(depth))
        return parts[0] if len(parts) == 1 else And(tuple(parts))

    def _or(self, depth):
        parts = [self._and(depth)]
        while self.kinds[self.i] == "OR":
            self.i += 1
            parts.append(self._and(depth))
        return parts[0] if len(parts) == 1 else Or(tuple(parts))


def parse_polynomial(text: str, variables=None) -> Polynomial:
    """Polynomial from text; variables, when given, fixes the allowed tuple."""
    parser = _Parser(text)
    p = parser._sum(0)
    parser._expect_end()
    return parser._settled(p, variables)


def parse_polynomial_list(text: str, variables=None):
    """Comma separated polynomials, same conventions as parse_polynomial."""
    parser = _Parser(text)
    items = [(0, parser._sum(0))]
    while parser.kinds[parser.i] == ",":
        parser.i += 1
        items.append((parser.i, parser._sum(0)))
    parser._expect_end()
    return [parser._settled(p, variables, start) for start, p in items]


def parse_formula(text: str):
    """Formula from text: comparisons joined by AND, OR, NOT and parentheses."""
    parser = _Parser(text)
    f = parser._or(0)
    parser._expect_end()
    return f
