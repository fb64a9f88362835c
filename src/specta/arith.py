"""Exact rational and polynomial arithmetic foundation.

Sparse multivariate polynomials over Q, as integer numerators over one
denominator (the kernels ``_nadd``, ``_nmul`` and ``_npow`` also serve
the parser of ``_expr``), and one univariate engine for little-endian
coefficient lists: division, gcd, square-free part, Sturm chains and
root counts on (a, b], root isolation and sign at a real algebraic
point.  That engine takes entries in Q or in Q(alpha) (field elements of
``_numfield``), so roots over both come back as the same
``AlgebraicNumber``.  A list with only rational entries runs on integer
numerators over one denominator: division, gcds, square-free parts,
Sturm chains and Horner values go through integer kernels (``_idivmod``,
``_iprs``, ``_ihorner``), and a Fraction is built only per output
coefficient that a caller reads.  Only a list that holds a field element
takes the Fraction and field arithmetic of its entries.  Resultants,
gcds and coprime square-free bases run on integer rows in two variables.
All operations are pure and exact; no floating point enters any
decision.

Values go into polynomials two ways only: ``Polynomial.evaluate`` is the
one multivariate evaluator (``eval_at``, ``substitute`` and, off the plane
normal form, the series evaluation of ``paths`` delegate to it), which
forms each power of a value once, as the power below it times the value;
``_ueval`` is the one univariate, Horner evaluator of coefficient lists;
``_usign`` is its sign-only form at a rational, which never builds the
value.

``_over_common`` (rationals as integer numerators over their least common
denominator) also serves ``_numfield``; ``binary_power`` is
the one power routine of Polynomial and PuiseuxSeries.
``AlgebraicNumber.refine`` is the one halving of a real root's interval,
the step of every loop that refines until a test holds;
``AlgebraicNumber.narrow`` takes a known number of halvings at once, by
certified jumps.

Conventions
-----------
* The zero polynomial is an input error for the public operations, never a
  silent zero.
* Univariate coefficient lists are little-endian: ``cs[i]`` multiplies ``x**i``.
* Algebra in two variables runs on integer rows: ``rows[j]`` is the
  trimmed integer list in u of the coefficient of v^j (``_rows``, ``_poly``
  convert).  One remainder sequence in v serves Q[u][v], the subresultant
  sequence of ``_subresultant_steps``.  ``_bres`` reads the resultant off
  its last step with one sign and one exact division, the Sylvester
  determinant with the rows of the first argument on top
  (``tests/test_arith.py`` keeps that route as a reference); ``_bgcd``
  takes the primitive part of its last nonzero element and the gcd of the
  contents in v (``_bcontent``) apart, so no factor free of v is lost.
* For inputs primitive in v, a nonzero discriminant in v proves square-free
  and a nonzero resultant in v proves coprime (Brown & Traub, JACM 1971).
* An ``AlgebraicNumber`` whose interval has width zero is an exact rational
  root; irrational roots always come with an open isolating interval whose
  endpoints are not roots of the defining polynomial.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from itertools import zip_longest
from math import floor, gcd, isfinite, lcm, log2
from operator import add, mul
from types import MappingProxyType


class ArithError(ValueError):
    pass


class ZeroPolynomialError(ArithError):
    """Raised when the zero polynomial reaches an operation that rejects it."""


# ---------------------------------------------------------------------------
# rational helpers


def simplest_between(a: Fraction, b: Fraction) -> Fraction:
    """Rational with the smallest denominator in the closed interval [a, b].

    The continued-fraction walk on integer numerators and denominators:
    while no integer lies in [a, b], both ends share their integer part
    f, which is set aside while the walk goes on in [1/(b - f), 1/(a - f)].
    """
    if a > b:
        raise ArithError("empty interval")
    if a == b:
        return a
    an, ad, bn, bd = a.numerator, a.denominator, b.numerator, b.denominator
    heads = []
    while True:
        f = an // ad
        if (f + 1) * bd <= bn:
            lo_int, hi_int = -(-an // ad), bn // bd
            p, q = 0 if lo_int <= 0 <= hi_int else lo_int if lo_int > 0 else hi_int, 1
            break
        if f * ad == an:
            p, q = an, ad
            break
        heads.append(f)
        an, ad, bn, bd = bd, bn - f * bd, ad, an - f * ad
    for f in reversed(heads):
        p, q = f * p + q, p
    return Fraction(p, q)


def _over_common(cs):
    """Integer numerators of a rational list over its least common
    denominator, and that denominator."""
    den = lcm(*(c.denominator for c in cs))
    return [c.numerator * (den // c.denominator) for c in cs], den


def binary_power(base, n: int, one, mul=mul):
    """base ** n for an int n >= 0 in any ring with unit one and product
    mul, by binary powering; the base is squared only while bits of n remain."""
    out = one
    while n:
        if n & 1:
            out = mul(out, base)
        n >>= 1
        if n:
            base = mul(base, base)
    return out


# ---------------------------------------------------------------------------
# multivariate polynomials
#
# The kernels below work on {exponent tuple: int numerator} maps with keys
# of one length (a caller keeps the denominators).  Polynomial's operators
# and the parser of ``_expr`` share them, so both list terms in one order.


def _merged(a, b):
    """The names of a followed by those of b not in a."""
    if a is b or not b:
        return a
    if not a:
        return b
    extra = tuple(v for v in b if v not in a)
    return a + extra if extra else a


def _picked(nums, pick):
    """nums re-keyed: entry k of a new key is old entry pick[k], 0 for None."""
    return {tuple([0 if j is None else e[j] for j in pick]): c for e, c in nums.items()}


def _nadd(nums, den, other, oden, sign=1) -> int:
    """Add sign*other/oden into nums/den in place and return the new
    denominator, lcm(den, oden).  The terms of other that nums lacks
    follow those of nums, in other's order; terms that cancel are dropped."""
    g = gcd(den, oden)
    ka, kb = oden // g, sign * (den // g)
    if ka != 1:
        for e in nums:
            nums[e] *= ka
    for e, c in other.items():
        v = nums.get(e, 0) + c * kb
        if v:
            nums[e] = v
        else:
            del nums[e]
    return den * ka


def _nmul(a, b) -> dict:
    """The product of two numerator maps, convolved in (a, b) term order and
    cancelled terms dropped.  A one-term factor shifts the other's terms in
    order; a square takes each pair of distinct terms once, in that order."""
    if len(b) == 1:
        ((f, d),) = b.items()
        return {tuple(map(add, e, f)): c * d for e, c in a.items()}
    if len(a) == 1:
        ((f, d),) = a.items()
        return {tuple(map(add, f, e)): d * c for e, c in b.items()}
    out = {}
    get = out.get
    items = list(b.items())
    for i, (e1, c1) in enumerate(a.items()):
        if a is b:
            e = tuple(map(add, e1, e1))
            out[e] = get(e, 0) + c1 * c1
            c1, i = 2 * c1, i + 1
        for e2, c2 in items[i:] if a is b else items:
            e = tuple(map(add, e1, e2))
            out[e] = get(e, 0) + c1 * c2
    return out if all(out.values()) else {e: c for e, c in out.items() if c}


def _npow(nums, n: int, zero) -> dict:
    """nums ** n for an int n >= 0; zero is the all-zero exponent tuple."""
    if len(nums) == 1:
        ((e, c),) = nums.items()
        return {tuple(k * n for k in e): c ** n}
    return binary_power(nums, n, {zero: 1}, _nmul)


@dataclass(frozen=True, init=False, eq=False)
class Polynomial:
    """Sparse multivariate polynomial over Q.

    ``variables`` is an ordered tuple of symbol names and ``nums`` maps
    exponent tuples (length == len(variables)) to nonzero int numerators
    over one int ``den`` > 0, in the normal form gcd(den, *nums.values())
    == 1 (den == 1 for zero).  ``terms`` is a read-only view of them as
    Fraction coefficients, built on first read.  Instances are immutable.
    The public constructor takes Fraction coefficients (prefer the
    classmethods); internal results go through ``_of``.
    """

    variables: tuple
    nums: dict
    den: int

    def __init__(self, variables, terms):
        terms = {e: Fraction(c) for e, c in terms.items()}
        den = lcm(*(c.denominator for c in terms.values()))
        self._set(tuple(variables), {e: c.numerator * (den // c.denominator)
                                     for e, c in terms.items() if c}, den)

    @classmethod
    def _of(cls, variables, nums, den) -> "Polynomial":
        p = object.__new__(cls)
        p._set(variables, nums, den)
        return p

    def _set(self, variables, nums, den):
        g = gcd(den, *nums.values()) if nums else den
        if g > 1:
            nums = {e: c // g for e, c in nums.items()}
        self.__dict__.update(variables=variables, nums=nums, den=den // g)

    @cached_property
    def terms(self):
        """Read-only {exponent tuple: Fraction coefficient}."""
        den = self.den
        return MappingProxyType({e: Fraction(c, den) for e, c in self.nums.items()})

    # -- constructors ------------------------------------------------------

    @staticmethod
    def make(variables, terms) -> "Polynomial":
        variables = tuple(variables)
        clean = {}
        for e, c in terms.items():
            if not (c := Fraction(c)):
                continue
            e = tuple(int(k) for k in e)
            if len(e) != len(variables):
                raise ArithError("exponent length does not match variables")
            if any(k < 0 for k in e):
                raise ArithError("negative exponent")
            clean[e] = clean.get(e, 0) + c
        return Polynomial(variables, clean)

    @staticmethod
    def const(c, variables=()) -> "Polynomial":
        variables, c = tuple(variables), Fraction(c)
        return Polynomial._of(variables, {(0,) * len(variables): c.numerator} if c else {},
                              c.denominator)

    @staticmethod
    def var(name, variables=None) -> "Polynomial":
        variables = (name,) if variables is None else tuple(variables)
        i = variables.index(name)
        return Polynomial._of(variables, {tuple(int(j == i) for j in range(len(variables))): 1}, 1)

    @staticmethod
    def from_univariate(name, coeffs) -> "Polynomial":
        return Polynomial.make((name,), {(i,): c for i, c in enumerate(coeffs)})

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.nums

    def is_constant(self) -> bool:
        return not any(map(any, self.nums))

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ArithError("not a constant polynomial")
        return Fraction(sum(self.nums.values()), self.den)

    def total_degree(self) -> int:
        if not self.nums:
            raise ZeroPolynomialError("degree of zero polynomial")
        return max(map(sum, self.nums))

    def degree_in(self, name) -> int:
        if not self.nums:
            raise ZeroPolynomialError("degree of zero polynomial")
        i = self.variables.index(name)
        return max(e[i] for e in self.nums)

    # -- arithmetic --------------------------------------------------------

    def _aligned(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.const(other, self.variables)
        if self.variables == other.variables:
            return self, other
        merged = _merged(self.variables, other.variables)
        return self.embed(merged), other.embed(merged)

    def embed(self, variables) -> "Polynomial":
        """self over a tuple of variables that holds its own."""
        variables = tuple(variables)
        pick = [None] * len(variables)
        for i, v in enumerate(self.variables):
            pick[variables.index(v)] = i
        return Polynomial._of(variables, _picked(self.nums, pick), self.den)

    def __add__(self, other):
        if not isinstance(other, _OPERANDS):
            return NotImplemented
        a, b = self._aligned(other)
        nums = dict(a.nums)
        return Polynomial._of(a.variables, nums, _nadd(nums, a.den, b.nums, b.den))

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._of(self.variables, {e: -c for e, c in self.nums.items()}, self.den)

    def __sub__(self, other):
        return self + (-other) if isinstance(other, _OPERANDS) else NotImplemented

    def __rsub__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return Polynomial.const(other, self.variables) - self

    def __mul__(self, other):
        if not isinstance(other, _OPERANDS):
            return NotImplemented
        a, b = self._aligned(other)
        return Polynomial._of(a.variables, _nmul(a.nums, b.nums), a.den * b.den)

    __rmul__ = __mul__

    def __pow__(self, n):
        n = int(n)
        if n < 0:
            raise ArithError("negative power")
        zero = (0,) * len(self.variables)
        return Polynomial._of(self.variables, _npow(self.nums, n, zero), self.den ** n)

    def __eq__(self, other):
        if not isinstance(other, _OPERANDS):
            return NotImplemented
        a, b = self._aligned(other)
        return a.den == b.den and a.nums == b.nums

    # -- evaluation and substitution --------------------------------------

    def evaluate(self, values, zero=Fraction(0)):
        """Value with values[name] put for every variable that occurs, in a
        ring that mixes with ints and Fractions (Fractions, Polynomials,
        PuiseuxSeries) and whose zero is zero: the sum, in term order, of
        zero + numerator times values[name] ** k in variable order, divided
        by den.  Each power of a value is formed once, as the one below it
        times the value."""
        rows = {}

        def power(name, k):
            row = rows.setdefault(name, [values[name]])
            while len(row) < k:
                row.append(row[-1] * row[0])
            return row[k - 1]

        out = zero
        for e, c in self.nums.items():
            term = zero + c
            for name, k in zip(self.variables, e):
                if k:
                    term = term * power(name, k)
            out = out + term
        return out if self.den == 1 else out * Fraction(1, self.den)

    def eval_at(self, assignment) -> Fraction:
        return self.evaluate({n: Fraction(v) for n, v in assignment.items()})

    def substitute(self, assignment) -> "Polynomial":
        """Substitute Polynomials (or rationals) for a subset of the variables."""
        remaining = tuple(v for v in self.variables if v not in assignment)
        values = {v: Polynomial.var(v, remaining) for v in remaining}
        values.update(assignment)
        return self.evaluate(values, Polynomial.const(0, remaining))

    def univariate_nums(self):
        """(numerators, den): the little-endian coefficient list as int
        numerators over den; at most one variable may occur."""
        live = [i for i, ks in enumerate(zip(*self.nums)) if any(ks)]
        if len(live) > 1:
            raise ArithError("polynomial is not univariate")
        if not live:
            return [sum(self.nums.values())], self.den
        (i,) = live
        out = [0] * (max(e[i] for e in self.nums) + 1)
        for e, c in self.nums.items():
            out[e[i]] = c
        return out, self.den

    def univariate_coeffs(self):
        """Fraction coefficient list; at most one variable may occur."""
        nums, den = self.univariate_nums()
        return [Fraction(c, den) for c in nums]

    # -- text --------------------------------------------------------------

    def to_text(self) -> str:
        if not self.nums:
            return "0"
        items = sorted(self.terms.items(), key=lambda ec: (sum(ec[0]), ec[0]), reverse=True)
        return signed_sum((c, [(name, k) for name, k in zip(self.variables, e) if k])
                          for e, c in items)

    def __str__(self):
        return self.to_text()

    def __repr__(self):
        return f"Polynomial({self.to_text()!r})"


# operands of Polynomial arithmetic; any other gets NotImplemented, so that
# a type built over Polynomials can take the reflected operation
_OPERANDS = (Polynomial, int, Fraction)


def signed_sum(terms) -> str:
    """The text c1*m1 + c2*m2 - ... of (nonzero coefficient, monomial)
    pairs, a monomial being a list of (name, nonzero exponent) pairs; a
    coefficient of magnitude 1 is left out before a nonconstant monomial
    and a fractional exponent is parenthesized."""
    text = ""
    for c, monomial in terms:
        factors = [] if abs(c) == 1 and monomial else [str(abs(c))]
        for name, k in monomial:
            if k == 1:
                factors.append(name)
            elif k.denominator == 1:
                factors.append(f"{name}^{k}")
            else:
                factors.append(f"{name}^({k})")
        body = "*".join(factors)
        if not text:
            text = "-" + body if c < 0 else body
        elif c < 0:
            text += " - " + body
        else:
            text += " + " + body
    return text


# ---------------------------------------------------------------------------
# univariate coefficient lists over Q or Q(alpha)
#
# One engine serves both coefficient domains.  Lists are little-endian and
# their entries are Fractions or FieldElements of one Q(alpha); rationals
# may mix in.  A list whose entries are all rational runs on integer
# numerators over one denominator (``_over_common``) through the integer
# kernels _ihorner, _idivmod and _iprs, and a Fraction is built only per
# output coefficient that a caller reads.  A list that holds a field
# element takes the field route of the same routine.  Only _rational,
# _sign, _inverse, _usign and the choice of route in uisolate look at an
# entry's type.
# A zero test or a sign of a field element is a sign computation at alpha,
# so the routines below make no zero test the algorithm does not need.


def _rational(*lists) -> bool:
    """Whether every entry of the lists is an int or a Fraction."""
    return all(isinstance(c, (int, Fraction)) for cs in lists for c in cs)


def _sign(x) -> int:
    """Sign of an entry: read off a rational, computed at alpha for a field element."""
    if isinstance(x, (int, Fraction)):
        n = x.numerator
        return (n > 0) - (n < 0)
    return x.sign()


def _inverse(c):
    return Fraction(1) / c if isinstance(c, (int, Fraction)) else c.inverse()


def _trim(cs):
    cs = list(cs)
    while cs and not _sign(cs[-1]):
        cs.pop()
    return cs


def _udeg(cs):
    return len(cs) - 1


def _ihorner(nums, n, d) -> int:
    """d^deg times the value at n/d of an integer list: the sum of
    nums[i] n^i d^(deg-i), by Horner on bare integers."""
    acc, dk = 0, 1
    for c in reversed(nums):
        acc = acc * n + c * dk
        dk *= d
    return acc


def _ueval(cs, x):
    """Horner value at x.  A rational list at a rational x is summed on
    integer numerators (``_ihorner``) into one Fraction.  For x the
    generator of Q(alpha) this is the element that a rational list
    represents."""
    if isinstance(x, (int, Fraction)) and _rational(cs):
        nums, den = _over_common(cs)
        return Fraction(_ihorner(nums, x.numerator, x.denominator),
                        den * x.denominator ** max(len(cs) - 1, 0))
    out = x * 0
    for c in reversed(cs):
        out = out * x + c
    return out


def _usign(cs, x) -> int:
    """Sign of a coefficient list at a rational x.

    Rational entries are summed by Horner on bare integers, with no gcd
    taken: num * d / dk is the value so far, dk > 0 collecting the powers
    of x's denominator d and the denominators of Fraction entries, so num
    carries the sign.  A list with a field element in it is handed to
    that element's ``list_sign_at``.
    """
    n, d = x.numerator, x.denominator
    num, dk = 0, 1
    for c in reversed(cs):
        if type(c) is int:
            num = num * n + c * dk
        elif isinstance(c, Fraction):
            cd = c.denominator
            num = num * n * cd + c.numerator * dk
            dk *= cd
        else:
            return c.list_sign_at(cs, x)
        dk *= d
    return (num > 0) - (num < 0)


def _uderiv(cs):
    return [c * i for i, c in enumerate(cs)][1:]


def _umul(a, b):
    if not a or not b:
        return []
    out = [None] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            t = x * y
            out[i + j] = t if out[i + j] is None else out[i + j] + t
    return out


def _iprimitive(cs):
    """An integer list divided by the gcd of its entries, a positive
    factor: no sign moves."""
    g = gcd(*cs)
    return [c // g for c in cs] if g > 1 else cs


def _idivmod(a, b):
    """(q, r, s) for trimmed integer lists a and b: s*a = q*b + r with
    deg r < deg b and s > 0.

    Each step cancels the top of r exactly; when b's leading coefficient
    does not divide that top, r and q are first scaled by the positive
    integer that makes it divide, and s records the product of the scales.
    """
    lead, n = b[-1], len(b) - 1
    q, r, s = [0] * max(0, len(a) - n), list(a), 1
    while len(r) > n:
        t = r.pop()
        d = len(r) - n
        k, m = divmod(t, lead)
        if m:
            g = gcd(t, lead)
            scale = abs(lead) // g
            r = [c * scale for c in r]
            q = [c * scale for c in q]
            s *= scale
            k = t // g if lead > 0 else -t // g
        q[d] = k
        for i in range(n):
            r[d + i] -= k * b[i]
        while r and not r[-1]:
            r.pop()
    return q, r, s


def _iprs(a, b):
    """The primitive remainder sequence of trimmed integer lists a and b
    (Collins; Brown & Traub, JACM 1971), with each remainder negated: a,
    b, then the remainder of the two lists before it, up to the last
    nonzero one, which is a gcd of a and b.  Each entry after b is a
    positive multiple of the negated remainder over Q, made primitive.
    """
    seq = [a, b]
    while seq[-1]:
        seq.append([-c for c in _iprimitive(_idivmod(seq[-2], seq[-1])[1])])
    return seq[:-1]


def _udivmod(a, b):
    """Exact quotient and remainder.  Rational lists are divided on
    integer numerators (``_idivmod``); a list over Q(alpha) takes one
    inverse of b's leading coefficient."""
    a, b = _trim(a), _trim(b)
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    if _rational(a, b):
        (na, da), (nb, db) = _over_common(a), _over_common(b)
        q, r, s = _idivmod(na, nb)
        return [Fraction(c * db, s * da) for c in q], [Fraction(c, s * da) for c in r]
    inv = _inverse(b[-1])
    n = len(b) - 1
    q = [inv * 0] * max(0, len(a) - n)  # zeros of the entry type
    r = a
    while len(r) > n:
        k = r[-1] * inv
        d = len(r) - 1 - n
        q[d] = k
        for i in range(n):
            r[d + i] = r[d + i] - b[i] * k
        r.pop()  # the top coefficient cancels exactly
        r = _trim(r)
    return q, r


def _umonic(cs):
    inv = _inverse(cs[-1])
    return [c * inv for c in cs]


def _ugcd(a, b, monic=True):
    """Monic gcd, or with monic=False the last remainder, a nonzero
    multiple of it that a sign test can read without an inverse; over Q
    the last list of the integer remainder sequence (``_iprs``)."""
    a, b = _trim(a), _trim(b)
    if _rational(a, b):
        g = _iprs(_over_common(a)[0], _over_common(b)[0])[-1]
        return [Fraction(c, g[-1]) for c in g] if monic else g
    while b:
        a, b = b, _udivmod(a, b)[1]
    return _umonic(a) if a and monic else a


def _ext_gcd(a, b):
    """(g, s) with s*a congruent to g modulo b, for rational lists: the
    remainder g and the cofactor s that Euclid's algorithm over Q ends on.

    The remainders run as primitive integer lists r with a rational scale
    c (the remainder over Q is c*r) and the cofactors as integer lists
    with a scale f of their own, so each step of Euclid over Q follows
    from one integer division (``_idivmod``) and three Fractions.
    """
    (r0, d0), (r1, d1) = _over_common(_trim(a)), _over_common(_trim(b))
    c0, c1 = Fraction(gcd(*r0), d0), Fraction(gcd(*r1), d1)
    r0, r1 = _iprimitive(r0), _iprimitive(r1)
    s0, s1, f0, f1 = [1], [], Fraction(1), Fraction(1)
    while r1:
        q, r, k = _idivmod(r0, r1)
        # k c0 r0 = (c0 / c1) q (c1 r1) + c0 r: the quotient over Q is
        # c0 q / (k c1), so the next cofactor is f0 s0 - v q s1 for
        # v = c0 f1 / (k c1)
        v = Fraction(c0.numerator * c1.denominator * f1.numerator,
                     c0.denominator * k * c1.numerator * f1.denominator)
        un, ud, vn, vd = f0.numerator, f0.denominator, v.numerator, v.denominator
        t = [x * un * vd - y * vn * ud for x, y in zip_longest(s0, _umul(q, s1), fillvalue=0)]
        while t and not t[-1]:
            t.pop()
        g = gcd(*t) or 1
        h = gcd(*r)
        r0, r1, c0, c1 = r1, _iprimitive(r), c1, Fraction(c0.numerator * h, c0.denominator * k)
        s0, s1, f0, f1 = s1, [c // g for c in t], f1, Fraction(g, ud * vd)
    return ([Fraction(c * c0.numerator, c0.denominator) for c in r0],
            [Fraction(c * f0.numerator, f0.denominator) for c in s0])


def _usquarefree(cs):
    """The list divided by its monic gcd with its derivative, so the
    quotient keeps the list's leading coefficient."""
    cs = _trim(cs)
    if len(cs) <= 2:
        return cs
    g = _ugcd(cs, _uderiv(cs))
    if _udeg(g) == 0:
        return cs
    q, r = _udivmod(cs, g)
    assert not r
    return q


def _usturm(p):
    """Sturm chain of a trimmed list of degree >= 1.

    chain[0] is p itself.  Each later entry is a positive multiple of the
    entry of the classical chain (p', then each remainder negated), not a
    normalised list: only signs are read from it (``_usign``,
    ``sturm_count``, ``refine_root_free``), and a positive factor moves
    none.  Over Q the entries are primitive integer lists (content 1), the
    integer remainder sequence ``_iprs``; over Q(alpha) each negated
    remainder is scaled by 1/|lead|.
    """
    if _rational(p):
        a = _over_common(p)[0]
        return [p] + _iprs(a, _iprimitive(_uderiv(a)))[1:]
    chain = [p, _uderiv(p)]
    while True:
        rem = _udivmod(chain[-2], chain[-1])[1]
        if not rem:
            return chain
        k = _inverse(rem[-1]) * -_sign(rem[-1])
        chain.append([c * k for c in rem])


def sturm_chain(cs):
    """Sturm chain of the square-free part of a list of degree >= 1."""
    return _usturm(_usquarefree(cs))


def _variations(chain, x, end):
    """(sign variations of chain at x, sign of chain[0] at x); x = None
    stands for the infinity on the side of end (+1 or -1)."""
    signs = [_sign(p[-1]) * end ** (len(p) - 1) if x is None else _usign(p, x)
             for p in chain]
    head = signs[0]
    signs = [s for s in signs if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b), head


def sturm_count(chain, a, b) -> int:
    """Number of distinct real roots of chain[0] in (a, b], for a <= b.

    Zeros are dropped from the sign sequences, so an endpoint may be a
    root: one at b is counted, one at a is not.  None stands for -inf as a
    and for +inf as b, read off the leading coefficients.
    """
    return _variations(chain, a, -1)[0] - _variations(chain, b, 1)[0]


def refine_root_free(chain, root):
    """Refine root in place until chain[0], nonzero at the root, has no root
    on the closed interval [root.lo, root.hi], or until root is rational.

    An endpoint is never a root of root.defining but may be one of chain[0].
    A refinement moves one end, so each end is signed once per memo (``_at``).
    """
    memo = {}
    while not root.is_rational:
        (vl, sl), (vh, _) = _at(chain, memo, root.lo), _at(chain, memo, root.hi)
        if sl and vl == vh:
            return
        root.refine()


def _uint_primitive(cs):
    """The integer list with content 1 and a positive leading coefficient
    that is a rational multiple of a rational list."""
    ints = _iprimitive(_over_common(cs)[0])
    return [-v for v in ints] if ints and ints[-1] < 0 else ints


def _at(chain, memo, x):
    """(variations, sign of chain[0]) of a Sturm chain at a rational x, as
    ``_variations`` gives them: signed once per point and memo, the dict
    that one isolation's ``_count_start`` and ``_bisect`` share."""
    got = memo.get(x)
    if got is None:
        got = memo[x] = _variations(chain, x, 1)
    return got


def _count_start(chain, memo) -> Fraction:
    """The least 2^k, k >= 0, with neither -2^k nor 2^k a root of chain[0]
    and the count of chain over (-2^k, 2^k) the total count: a bisection
    start from exact signs, each point signed once per memo (``_at``)."""
    total = sturm_count(chain, None, None)
    b = Fraction(1)
    while True:
        (vl, sl), (vr, sr) = _at(chain, memo, -b), _at(chain, memo, b)
        if sl and sr and vl - vr == total:
            return b
        b *= 2


# ---------------------------------------------------------------------------
# real algebraic numbers


class _Bracket:
    """A root's interval while ``AlgebraicNumber.narrow(k)`` runs.

    A point is an integer position x in [0, 2^k] that stands for
    lo + x (hi - lo) / 2^k, so the points of the level-t dyadic grid of
    (lo, hi) are the multiples of 2^(k - t).  The root lies strictly
    between the positions p and r, and the list's exact value is kept at
    both: over Q an integer of the value's sign, on one scale for every
    point, which the secant reads; over Q(alpha) the sign alone.  Every
    point at or below p has p's sign and every one at or above r has r's,
    so only a point inside (p, r) is ever signed.
    """

    __slots__ = ("k", "cs", "nums", "base", "w", "den", "p", "r", "vp", "vr", "sp",
                 "root", "floats")

    def __init__(self, number, k):
        lo, hi = number.lo, number.hi
        self.k, self.cs = k, number.coeffs
        self.nums = _over_common(self.cs)[0] if _rational(self.cs) else None
        # position x stands for (base + x w) / den
        self.base = lo.numerator * hi.denominator << k
        self.w = hi.numerator * lo.denominator - lo.numerator * hi.denominator
        self.den = lo.denominator * hi.denominator << k
        self.p, self.r, self.root, self.floats = 0, 1 << k, None, None
        if self.nums is not None:
            self.vp, self.vr = self.value(0), self.value(1 << k)
            self.sp = (self.vp > 0) - (self.vp < 0)
        else:
            if number._lo_sign is None:
                number._lo_sign = _usign(self.cs, lo)
            self.sp = self.vp = number._lo_sign
            self.vr = -self.sp

    def value(self, x):
        n = self.base + x * self.w
        if self.nums is not None:
            return _ihorner(self.nums, n, self.den)
        return _usign(self.cs, Fraction(n, self.den))

    def point(self, x) -> Fraction:
        return Fraction(self.base + x * self.w, self.den)

    def level(self) -> int:
        """The deepest level, up to k, whose dyadic cell holds [p, r]."""
        return self.k - (self.p ^ (self.r - 1)).bit_length()

    def sign(self, x) -> int:
        """The list's sign at x.  Signing a point inside (p, r) moves p or
        r to it, or makes it the root at a zero."""
        if x <= self.p:
            return self.sp
        if x >= self.r:
            return -self.sp
        v = self.value(x)
        s = (v > 0) - (v < 0)
        if s == self.sp:
            self.p, self.vp = x, v
        elif s:
            self.r, self.vr = x, v
        else:
            self.root = x
        return s

    def halve(self) -> int:
        """One plain halving: the sign at the midpoint of the level's cell
        that holds [p, r]."""
        e = self.k - self.level() - 1
        return self.sign((self.p >> e | 1) << e)

    def guess(self, t):
        """(t', num, den): the root guessed at position num/den, den > 0,
        to be jumped to at level t' <= t; t' is 0 when there is no guess.

        Over Q, the secant through the exact values at p and r.  Over
        Q(alpha), a Newton root of the entries as floats, with t' the
        deepest level whose cells are twice as wide as its error estimate.
        The estimate counts float rounding only, not the entries' error
        from being evaluated near alpha rather than at it; a guess it
        misjudges costs a halving, never a wrong cell, since exact signs
        decide every jump."""
        p, r, vp, vr = self.p, self.r, self.vp, self.vr
        if self.nums is not None:
            num, den = r * vp - p * vr, vp - vr
            return (t, num, den) if den > 0 else (t, -num, -den)
        if self.floats is None:
            try:
                self.floats = [float(c) if isinstance(c, (int, Fraction)) else c._guess()
                               for c in self.cs]
            except OverflowError:  # an entry beyond float range
                self.floats = ()
        try:
            x, err = _newton(self.floats, (self.base + p * self.w) / self.den,
                             (self.base + r * self.w) / self.den, self.sp)
        except OverflowError:  # the floats gave out
            return 0, 0, 1
        q = self.den >> self.k
        t = min(t, floor(log2(self.w) - log2(q) - log2(2 * err)))
        f = Fraction(x)
        return t, f.numerator * self.den - self.base * f.denominator, f.denominator * self.w


# the spacing of floats at 1, and the least positive float
_EPS, _TINY = 2.0 ** -52, 2.0 ** -1074


def _newton(cs, a, b, sa):
    """(x, err): a float x near the one root in (a, b) of a list of floats
    whose sign at a is sa, and err > 0 an estimate of the distance that
    counts the rounding of the floats and of Horner's rule alone, not any
    error the entries carry in.  Raises OverflowError when the floats
    give out.

    Newton steps from the midpoint, kept inside the bracket that the float
    signs narrow (rtsafe; Press et al., Numerical Recipes, sec. 9.4).
    """
    x = (a + b) / 2
    for _ in range(100):
        v = d = m = 0.0
        ax = abs(x)
        for c in reversed(cs):
            d = d * x + v
            v = v * x + c
            m = m * ax + abs(c)
        if not (isfinite(m) and isfinite(d)):
            raise OverflowError("no float guess")
        nx = x - v / d if d else a
        if not v or abs(nx - x) <= 4 * _EPS * ax:
            break
        if (v > 0) == (sa > 0):
            a = x
        else:
            b = x
        x = nx if a < nx < b else (a + b) / 2
    if not d:
        raise OverflowError("no float guess")
    err = 4 * (abs(v) + _EPS * len(cs) * m) / abs(d) + 4 * _EPS * ax + _TINY
    if not isfinite(err):
        raise OverflowError("no float guess")
    return x, err


class AlgebraicNumber:
    """A real root of a square-free univariate polynomial over Q or Q(alpha).

    ``defining`` is a Polynomial over Q or a trimmed coefficient list (see
    above); ``coeffs`` is its coefficient list, the given list itself, which
    no caller mutates, so the roots of one list and their copies share it.
    ``lo == hi`` encodes an exact rational root.  Otherwise exactly one
    real root of ``defining`` lies in the open interval (lo, hi) and
    neither endpoint is a root.  ``refine`` halves the interval in place,
    and ``narrow(k)`` leaves the state of k halvings by certified jumps:
    a jump into a cell of the dyadic grid is taken only when the exact
    signs at the cell's ends are opposite, and a miss falls back to one
    halving, so no guess shows in the state.  Everything else is
    read-only.
    """

    __slots__ = ("defining", "coeffs", "lo", "hi", "_lo_sign")

    def __init__(self, defining, lo, hi):
        self.defining = defining
        if isinstance(defining, Polynomial):
            self.coeffs = _trim(defining.univariate_coeffs())
        else:
            self.coeffs = defining
        self.lo = Fraction(lo)
        self.hi = Fraction(hi)
        if self.lo > self.hi:
            raise ArithError("inverted interval")
        self._lo_sign = None

    @property
    def is_rational(self) -> bool:
        lo, hi = self.lo, self.hi
        return lo.numerator == hi.numerator and lo.denominator == hi.denominator

    @property
    def value(self) -> Fraction:
        if not self.is_rational:
            raise ArithError("not an exact rational")
        return self.lo

    def refine(self):
        """Halve the interval, keeping the half with the root (or the exact
        root at the midpoint): the one step of the loops that refine until
        a test holds.  The list is signed at lo once per object: the root
        stays strictly inside (lo, hi), so that sign never changes."""
        if self.is_rational:
            return
        lo, hi = self.lo, self.hi
        # (lo + hi) / 2 as one Fraction
        mid = Fraction(lo.numerator * hi.denominator + hi.numerator * lo.denominator,
                       2 * lo.denominator * hi.denominator)
        v = _usign(self.coeffs, mid)
        if v == 0:
            self.lo = self.hi = mid
            return
        if self._lo_sign is None:
            self._lo_sign = _usign(self.coeffs, self.lo)
        if self._lo_sign * v < 0:
            self.hi = mid
        else:
            self.lo = mid

    def copy(self) -> "AlgebraicNumber":
        twin = object.__new__(AlgebraicNumber)
        twin.defining, twin.coeffs = self.defining, self.coeffs
        twin.lo, twin.hi, twin._lo_sign = self.lo, self.hi, self._lo_sign
        return twin

    def narrow(self, k):
        """Leave the state of k calls of ``refine``: the level-k dyadic cell
        of (lo, hi) that holds the root, or lo == hi at a dyadic root that
        the halving would have stopped on.

        It gets there by jumps (quadratic interval refinement: Abbott, ACM
        CCA 2014; Kerber & Sagraloff, ISSAC 2011).  A guess of the root
        picks a point of a deeper level's grid and the cell beside it on
        the root's side; the jump is taken only when the exact signs at
        both ends of that cell are nonzero and opposite, which certifies
        that the one root of (lo, hi) is inside, and a zero at either end
        is the root itself.  Otherwise one plain halving is taken and the
        next jump is half as deep.  Over Q the guess is the secant of the
        exact integer values at the ends, and the jump depth doubles after
        each one taken; over Q(alpha) it is a Newton iteration on floats of
        the entries (``_newton``), and the jump goes as deep as its error
        estimate allows.  A float decides only which cell is signed, so the
        state left is the same whatever the guesses; entries beyond float
        range leave no guess and halving alone.
        """
        if k <= 0 or self.is_rational:
            return
        b = _Bracket(self, k)
        jump = 2 if b.nums is not None else k
        while b.root is None and (level := b.level()) < k:
            t, num, den = b.guess(min(k, level + jump))
            if t > level:
                step = 1 << (k - t)
                g = (2 * num + den * step) // (2 * den * step) * step  # the nearest level-t point
                s = b.sign(g)
                if s and b.sign(g + step if s == b.sp else g - step) and b.level() >= t:
                    jump *= 2
                    continue
                jump = max(1, (t - level) // 2)
            if b.root is None:
                b.halve()
        x = b.root
        self.lo, self.hi = (b.point(b.p), b.point(b.r)) if x is None else (b.point(x),) * 2
        self._lo_sign = b.sp

    def approx(self, width=Fraction(1, 1 << 20)) -> Fraction:
        """The midpoint once the interval is at most width wide: each
        halving halves the width until the root is exact, so that takes
        ``narrow(k)`` for the least k with (hi - lo) / 2^k <= width, found
        on integers."""
        lo, hi = self.lo, self.hi
        x = (hi.numerator * lo.denominator - lo.numerator * hi.denominator) * width.denominator
        y = width.numerator * lo.denominator * hi.denominator
        k = max(0, x.bit_length() - y.bit_length())
        while x > y << k:
            k += 1
        self.narrow(k)
        lo, hi = self.lo, self.hi
        return Fraction(lo.numerator * hi.denominator + hi.numerator * lo.denominator,
                        2 * lo.denominator * hi.denominator)

    def __float__(self):
        return float(self.approx())

    def __repr__(self):
        if self.is_rational:
            return f"AlgebraicNumber({self.lo})"
        d = self.defining
        text = d.to_text() if isinstance(d, Polynomial) else d
        return f"AlgebraicNumber({text} in ({self.lo},{self.hi}))"


def real_compare(u, v) -> int:
    """Exact three-way comparison; each argument is a Fraction or AlgebraicNumber."""
    if isinstance(u, AlgebraicNumber) and u.is_rational:
        u = u.value
    if isinstance(v, AlgebraicNumber) and v.is_rational:
        v = v.value
    if isinstance(u, (int, Fraction)) and isinstance(v, (int, Fraction)):
        return _sign(Fraction(u) - Fraction(v))
    if isinstance(u, (int, Fraction)):
        return -real_compare(v, u)
    if isinstance(v, (int, Fraction)):
        c = Fraction(v)
        while True:
            if c <= u.lo:
                return 1
            if c >= u.hi:
                return -1
            if _usign(u.coeffs, c) == 0:
                return 0  # c is the unique root inside the isolating interval
            u.refine()
            if u.is_rational:
                return _sign(u.value - c)
    gchain = None  # the chain of gcd(u, v), built once the intervals first overlap
    while True:
        if u.is_rational or v.is_rational:
            return real_compare(u, v)
        if u.hi <= v.lo:
            return -1
        if v.hi <= u.lo:
            return 1
        if gchain is None:
            g = _ugcd(u.coeffs, v.coeffs)
            gchain = _usturm(g) if _udeg(g) >= 1 else []
        # a root of g in the overlap is a common root, hence both numbers
        if gchain and sturm_count(gchain, max(u.lo, v.lo), min(u.hi, v.hi)) >= 1:
            return 0
        u.refine()
        v.refine()


def rational_between(lo: AlgebraicNumber, hi: AlgebraicNumber) -> Fraction:
    """A rational strictly between two real algebraic numbers lo < hi.

    Both are refined while their intervals overlap, and also while they
    touch with an exact rational root on either side: a shared endpoint
    lies strictly between two open intervals, but is the root itself on a
    side whose interval has width zero.
    """
    while lo.hi > hi.lo or (lo.hi == hi.lo and (lo.is_rational or hi.is_rational)):
        lo.refine()
        hi.refine()
    if lo.hi == hi.lo:
        return lo.hi
    g = hi.lo - lo.hi
    return simplest_between(lo.hi + g / 4, hi.lo - g / 4)


class Roots(list):
    """The ordered roots of one ``uisolate`` and chain, the Sturm chain of
    the list they were counted on; chain[-1] is its gcd with the derivative."""

    __slots__ = ("chain",)

    def __init__(self, chain):
        super().__init__()
        self.chain = chain


def uisolate(p):
    """``Roots`` isolating every distinct real root of a coefficient list
    (Sturm counts and bisection, ``_bisect``).

    The list gets one Sturm chain, square-free or not: at points that are
    not roots it counts the distinct roots (Basu, Pollack & Roy, ch. 2).
    The list over the chain's last entry, its square-free part, defines
    the roots.  A rational list runs on integers with content 1, and
    bisection starts at the ceiling of the square-free part's Cauchy
    bound.  Rational roots are certified without factoring: below width
    1/(lead^2 + 1), the least spacing of rationals whose denominator
    divides that part's leading coefficient, the simplest rational inside
    is the only candidate.

    A list over Q(alpha) is made monic.  Bisection starts at
    ``_count_start``, so the roots' intervals follow from exact signs, not
    from alpha's box.  Below width 1/1024 the simplest rational inside is
    tried once; a rational root this misses stays in interval form.

    Bisection signs the chain once per point (``_at``).  Each root's
    interval is narrowed below its width by ``AlgebraicNumber.narrow``:
    jumps into a cell of the dyadic grid, guessed by a secant on exact
    integer values over Q or by Newton on floats of the entries over
    Q(alpha), each certified by nonzero opposite exact signs at the cell's
    ends.  A zero at an end is the root; a jump that fails to certify
    falls back to one plain halving, so the intervals are those that
    halving alone gives.
    """
    p = _trim(p)
    if not p:
        raise ZeroPolynomialError("cannot isolate roots of the zero polynomial")
    if len(p) == 1:
        return Roots([p])
    if _rational(p):
        a = _uint_primitive(p)
        chain = _usturm(a)
        sq = a if len(chain[-1]) == 1 else _uint_primitive(_idivmod(a, chain[-1])[0])
        # bisection from the ceiling of the Cauchy bound; sq[-1] > 0
        bound = Fraction(1 - (-max(map(abs, sq[:-1])) // sq[-1]))
        return _bisect(sq, chain, {}, bound, Fraction(1, sq[-1] ** 2 + 1))
    p = _umonic(p)
    chain, memo = _usturm(p), {}
    sq = p if _udeg(chain[-1]) == 0 else _udivmod(p, chain[-1])[0]
    return _bisect(sq, chain, memo, _count_start(chain, memo), Fraction(1, 1024))


def _bisect(sq, chain, memo, bound, gap):
    """The ``Roots`` of the square-free sq, all in (-bound, bound), neither
    end a root, by bisection on the counts of chain, a Sturm chain whose
    chain[0] has sq's real roots; each point's chain is signed once per
    memo (``_at``).  Each root is narrowed below gap by
    ``AlgebraicNumber.narrow``, whose jumps count only when exact signs of
    sq at both ends of the new cell are nonzero and opposite and which
    otherwise falls back to one plain halving; then the simplest rational
    inside is tried once."""
    roots = Roots(chain)

    def count(a, b):
        return _at(chain, memo, a)[0] - _at(chain, memo, b)[0]

    def finalize(a, b):
        # exactly one root in (a, b); endpoints are not roots.  Each
        # halving halves the width until the root is exact, so the width
        # is below gap after k halvings for the least k with
        # (b - a) / 2^k < gap
        r = AlgebraicNumber(sq, a, b)
        w = b - a
        x, y = w.numerator * gap.denominator, gap.numerator * w.denominator
        k = max(0, x.bit_length() - y.bit_length())
        while x >= y << k:
            k += 1
        r.narrow(k)
        cand = simplest_between(r.lo, r.hi)
        if r.lo < cand < r.hi and _usign(sq, cand) == 0:
            r = AlgebraicNumber(sq, cand, cand)
        roots.append(r)

    def split(a, b):
        n = count(a, b)
        if n == 0:
            return
        if n == 1:
            finalize(a, b)
            return
        m = (a + b) / 2
        if _at(chain, memo, m)[1]:
            split(a, m)
            split(m, b)
            return
        # the midpoint itself is a (rational) root: fence it off
        step = (b - a) / 8
        while True:
            l2, r2 = m - step, m + step
            if (a < l2 and r2 < b and _at(chain, memo, l2)[1] and _at(chain, memo, r2)[1]
                    and count(l2, r2) == 1):
                break
            step /= 2
        split(a, l2)
        roots.append(AlgebraicNumber(sq, m, m))
        split(r2, b)

    split(-bound, bound)
    roots.sort(key=lambda r: (r.lo, r.hi))
    return roots


def isolate_real_roots(p: Polynomial):
    """Ordered list of AlgebraicNumber isolating every distinct real root of
    a univariate polynomial over Q; rational roots come back exact (see
    ``uisolate``)."""
    if p.is_zero():
        raise ZeroPolynomialError("cannot isolate roots of the zero polynomial")
    return uisolate(p.univariate_coeffs())


def _vanishes_at(g, root) -> bool:
    """Whether a divisor g of an irrational root's defining list vanishes
    at the root: the roots of g are roots of that list, so neither end of
    the isolating interval is one, and a sign change over it certifies 0."""
    return _udeg(g) >= 1 and _usign(g, root.lo) * _usign(g, root.hi) < 0


def usign_at(q, root) -> int:
    """Exact sign of a coefficient list at a rational or an AlgebraicNumber:
    at an irrational root, the gcd with the defining list is the zero test
    and a nonzero sign is read once the interval holds no root of q."""
    q = _trim(q)
    if not q:
        return 0
    if isinstance(root, (int, Fraction)):
        return _usign(q, Fraction(root))
    if root.is_rational:
        return _usign(q, root.value)
    if len(q) == 1:
        return _sign(q[0])
    if _vanishes_at(_ugcd(q, root.coeffs, monic=False), root):
        return 0
    refine_root_free(sturm_chain(q), root)
    return _usign(q, (root.lo + root.hi) / 2)


def ulevel_signs(q, sections, fences):
    """Signs of a coefficient list at the 2K+1 levels of a line: level 2j
    at fences[j], level 2j+1 at sections[j], K ordered roots of one
    defining list (one ``uisolate``) interleaved by K+1 rationals.

    Every root of q must be a section, so a fence signs its whole level
    and no section is refined.  A section reads 0 when the fences beside
    it differ in sign, else their sign unless its zero test finds a root:
    an exact section is signed directly, an irrational one by
    ``_vanishes_at`` on the gcd of q with its defining list, taken once
    per line and only if a section between fences of one sign needs it;
    then every section is tested.  A test that finds no root between
    fences of different signs raises ArithError.
    """
    q = _trim(q)
    if len(q) <= 1:
        return [_sign(q[0]) if q else 0] * (2 * len(sections) + 1)
    signs = [_usign(q, e) for e in fences]
    need = any(a == b and not r.is_rational for r, a, b in zip(sections, signs, signs[1:]))
    g, out = None, [signs[0]]
    for r, a, b in zip(sections, signs, signs[1:]):
        if r.is_rational:
            zero = not _usign(q, r.value)
        elif need:
            g = g or _ugcd(q, r.coeffs, monic=False)  # never [] for q != 0
            zero = _vanishes_at(g, r)
        else:
            zero = a != b
        if a != b and not zero:
            raise ArithError("the list changes sign across a section it does not vanish on")
        out += [0 if zero else a, b]
    return out


def sign_at(p: Polynomial, a) -> int:
    """Exact sign of a univariate polynomial at a rational or an AlgebraicNumber."""
    if p.is_zero():
        raise ZeroPolynomialError("sign of zero polynomial")
    return usign_at(p.univariate_coeffs(), a)




# ---------------------------------------------------------------------------
# polynomials in two variables as integer rows
#
# A content, gcd, square-free part or quotient matters only up to a nonzero
# rational factor: the _b routines may return any such multiple, and
# _bnorm makes it canonical.


def _rows(p: Polynomial, v="y", u="x"):
    """(rows, den): den*p as rows in v of integer lists in u, den > 0 the
    least common denominator of p's coefficients.  A variable other than u
    and v that occurs raises ArithError."""
    rows = []
    for e, c in p.nums.items():
        exps = dict(zip(p.variables, e))
        i, j = exps.pop(u, 0), exps.pop(v, 0)
        if any(exps.values()):
            raise ArithError(f"a variable other than {u} and {v} occurs")
        rows += [[] for _ in range(j + 1 - len(rows))]
        rows[j] += [0] * (i + 1 - len(rows[j]))
        rows[j][i] = c
    return rows, p.den


def _poly(rows, variables=("x", "y"), den=1) -> Polynomial:
    """The Polynomial over (u, v), or over (u,) for one row, whose
    coefficient of u^i v^j is rows[j][i]/den, for integer rows."""
    return Polynomial._of(tuple(variables), {(i, j)[:len(variables)]: c
                                             for j, row in enumerate(rows)
                                             for i, c in enumerate(row) if c}, den)


def _iexact(a, b):
    """a / b for integer lists whose quotient is an integer list."""
    q, r, s = _idivmod(a, b)
    if r or s != 1:
        raise ArithError("inexact polynomial division")
    return q


def _ipow(a, n):
    return reduce(_umul, [a] * n, [1])


def _bkey(p):
    """Sort key of rows: their terms ((i, j), coefficient) in order."""
    return tuple(sorted(((i, j), c) for j, row in enumerate(p) for i, c in enumerate(row) if c))


def _bnorm(p):
    """The multiple of nonzero rows with content 1 whose leading term, by
    total degree, then degree in u, is positive."""
    *_, j = max((len(row) + j, len(row), j) for j, row in enumerate(p) if row)
    g = gcd(*(c for row in p for c in row)) * (-1 if p[j][-1] < 0 else 1)
    return [[c // g for c in row] for row in p]


def _pack(p, k):
    """Rows under u^i v^j -> t^(i + k j), k past their degree in u (Kronecker)."""
    return [c for row in p[:-1] for c in row + [0] * (k - len(row))] + p[-1]


def _bmul(a, b):
    k = max(map(len, a)) + max(map(len, b)) - 1
    cs = _umul(_pack(a, k), _pack(b, k))
    return [_trim(cs[i:i + k]) for i in range(0, len(cs), k)]


def _bquo(a, b):
    """A positive integer multiple of a / b for rows b dividing a: one
    ``_idivmod`` of their Kronecker images, which a's degree in u bounds."""
    k = max(map(len, a))
    q, r, _ = _idivmod(_pack(a, k), _pack(b, k))
    if r:
        raise ArithError("inexact polynomial division")
    return [_trim(q[i:i + k]) for i in range(0, len(q), k)]


def _bderiv(p):
    return [[c * j for c in row] for j, row in enumerate(p)][1:]


def _bcontent(p):
    """(c, q): c the gcd of the nonzero rows p with content 1 and a positive
    leading coefficient, q a positive multiple of p / c (p if c is 1)."""
    c = None
    for row in reversed(p):  # from the top: a constant gcd is 1 for good
        if row:
            c = _uint_primitive(row if c is None else _ugcd(c, row, monic=False))
            if len(c) == 1:
                return [1], p
    return c, _bquo(p, [c])


def _bprem(a, b):
    """Pseudo-remainder lc(b)^(deg a - deg b + 1) a mod b of rows, in v."""
    lb, n = b[-1], len(b) - 1
    r, steps = list(a), len(a) - n
    while len(r) > n:
        t = r.pop()
        d = len(r) - n
        r = [_umul(row, lb) for row in r]
        for i in range(n):
            tb = _umul(t, b[i])
            r[d + i] = _trim([x - y for x, y in zip_longest(r[d + i], tb, fillvalue=0)])
        steps -= 1
        while r and not r[-1]:
            r.pop()
    for _ in range(steps):
        r = [_umul(row, lb) for row in r]
    return r


def _subresultant_steps(a, b):
    """The subresultant remainder sequence of rows with len(a) >= len(b) >= 2
    (Brown & Traub).

    Yields (a, b, r, h) per step and goes on with (b, r) until r is zero
    or constant in v: r = prem(a, b) / (g h^d) for d = deg a - deg b, then g
    becomes lc(b) and h becomes g^d / h^(d-1), both divisions exact in Z[u].
    r is proportional to the subresultant of its degree, so the last
    nonzero b or r is the gcd of the inputs times a factor free of v.
    """
    g = h = [1]
    while True:
        r = _bprem(a, b)
        delta = len(a) - len(b)
        divisor = _umul(g, _ipow(h, delta))
        if divisor != [1]:
            r = [_iexact(row, divisor) for row in r]
        g = b[-1]
        if delta:
            h = _iexact(_ipow(g, delta), _ipow(h, delta - 1))
        yield a, b, r, h
        if len(r) <= 1:
            return
        a, b = b, r


def _bres(a, b):
    """Resultant in v of rows of degree >= 1 in v (Cohen, Alg. 3.3.7): the
    sign flips when inputs of odd degrees are swapped and at each step
    whose a and b have odd degrees; the value is r^n / h^(n-1) for the last
    step's constant r, n the degree of its b and h the scale it yields."""
    sign = 1
    if len(a) < len(b):
        a, b, sign = b, a, (-1) ** ((len(a) - 1) * (len(b) - 1))
    for a, b, r, h in _subresultant_steps(a, b):
        if not r:
            return []
        sign *= (-1) ** ((len(a) - 1) * (len(b) - 1))
    n = len(b) - 1
    return [sign * c for c in _iexact(_ipow(r[0], n), _ipow(h, n - 1))]


def _bdisc(p):
    """Discriminant in v of rows of degree n >= 1 in v: (-1)^(n(n-1)/2)
    res(p, dp/dv) / lc(p), and [1] for n = 1."""
    n = len(p) - 1
    if n == 1:
        return [1]
    sign = (-1) ** (n * (n - 1) // 2)
    return [sign * c for c in _iexact(_bres(p, _bderiv(p)), p[-1])]


def _bgcd(a, b):
    """Normalized gcd of nonzero rows: the gcd of the contents in v times
    the primitive part of the last nonzero element of the subresultant
    sequence of the primitive parts."""
    (ca, a), (cb, b) = _bcontent(a), _bcontent(b)
    g = [_uint_primitive(_ugcd(ca, cb, monic=False))]
    if len(b) > len(a):
        a, b = b, a
    if len(b) > 1:
        *_, (_, last, r, _) = _subresultant_steps(a, b)
        if not r:
            g = _bmul(g, _bcontent(last)[1])
    return _bnorm(g)


def _bsquarefree(p):
    """Normalized product of the distinct irreducible factors of nonzero
    rows: the square-free part of the content in v times prim / gcd(prim,
    d prim/dv) for prim the primitive part."""
    c, prim = _bcontent(p)
    if len(prim) > 1:
        prim = _bquo(prim, _bgcd(prim, _bderiv(prim)))
    return _bnorm(_bmul(prim, [_uint_primitive(_usquarefree(c))]))


def _bbasis(polys):
    """A square-free pairwise-coprime basis of nonzero rows, normalized and
    sorted by ``_bkey``.

    A work list starts from the ``_bsquarefree`` of each input.  An element
    p taken off it is tested once against each kept one: coprime to all, it
    is kept; sharing g with a kept q, g and q/g replace q, being coprime to
    every other kept element, and p/g goes back on the list.  Constants and
    elements already taken or kept drop out, so no pair is tested twice.
    """
    work, out, seen = [_bsquarefree(p) for p in polys], {}, set()
    while work:
        p = work.pop()
        key = _bkey(p)
        if p == [[1]] or key in seen:
            continue
        keep = [p]
        for k, q in out.items():
            g = _bgcd(p, q)
            if g != [[1]]:
                del out[k]
                work.append(_bnorm(_bquo(p, g)))
                keep = [g, _bnorm(_bquo(q, g))]
                break
        out.update((_bkey(f), f) for f in keep if f != [[1]])
        seen.update(out, [key])
    return sorted(out.values(), key=_bkey)


# ---------------------------------------------------------------------------
# the same on Polynomials in x and y: a third variable raises ArithError


def resultant(p: Polynomial, q: Polynomial, var) -> Polynomial:
    """Resultant of p and q with respect to ``var``, a Polynomial in the
    other of x and y; a third variable raises ArithError.

    Equals the determinant of the Sylvester matrix with the rows of p on
    top, including sign (``sylvester_resultant`` in tests/test_arith.py
    computes it that way).  Zero exactly when p and q share a common factor
    involving ``var``.  Both inputs must involve ``var``.
    """
    if p.is_zero() or q.is_zero():
        raise ZeroPolynomialError("resultant of zero polynomial")
    if p.degree_in(var) < 1 or q.degree_in(var) < 1:
        raise ArithError("resultant arguments must both involve the variable")
    u = "y" if var == "x" else "x"
    (a, da), (b, db) = _rows(p, var, u), _rows(q, var, u)
    scale = da ** (len(b) - 1) * db ** (len(a) - 1)
    return _poly([_bres(a, b)], (u,), scale)


def discriminant(p: Polynomial, var) -> Polynomial:
    """disc(p) = (-1)^(n(n-1)/2) resultant(p, dp/dvar) / lc(p) for p of
    degree n >= 1 in var, in x and y (a third variable raises ArithError)."""
    if p.is_zero():
        raise ZeroPolynomialError("discriminant of zero polynomial")
    n = p.degree_in(var)
    if n < 1:
        raise ArithError("discriminant needs positive degree in the variable")
    u = "y" if var == "x" else "x"
    a, den = _rows(p, var, u)
    return _poly([_bdisc(a)], (u,), den ** (2 * n - 2))


def poly_gcd(p: Polynomial, q: Polynomial) -> Polynomial:
    """Gcd of nonzero p and q in x and y (others raise ArithError), with
    content 1 and a positive leading term by total degree, then x-degree."""
    if p.is_zero() or q.is_zero():
        raise ZeroPolynomialError("gcd of zero polynomial")
    return _poly(_bgcd(_rows(p)[0], _rows(q)[0]))


def coprime_squarefree_basis(polys):
    """A square-free pairwise-coprime basis of nonzero Polynomials in x and
    y, normalized as by ``poly_gcd`` (``_bbasis``)."""
    if any(p.is_zero() for p in polys):
        raise ZeroPolynomialError("square-free part of zero polynomial")
    return [_poly(b) for b in _bbasis([_rows(p)[0] for p in polys])]
