"""Truncated Puiseux series and formal paths with exactness bookkeeping.

A series is stored as integer exponents over one ramification index e
and integer numerators over one positive denominator d: the map
{n: c} stands for the terms (c/d)*t^(n/e), kept with e and d minimal,
plus a truncation exponent T: the coefficients below T are exact,
everything at or above T is unknown.  A series flagged exact (T is None)
has no unknown tail at all.  That normal form is unique, so equality is
structural; ``coeffs`` is a read-only view of the terms as Fraction
coefficients, built on first read.  Ring operations lift both operands
to a common ramification once and work on integers: a sum
cross-multiplies the numerators by the quotients of the denominators'
lcm, a product convolves them over the product of the denominators
(reduced by one gcd), stopping at the integer cut ceil(T*e) instead of
forming every pair (a product with a one-term operand is a shifted,
scaled copy of the other operand), and long division puts its quotient
over one denominator.  Every operation propagates the sharpest
truncation it can certify, so a result is only ever as precise as its
inputs allow, and zero tests on truncated data are always reported as
"zero so far", never as exact.

On top of the series sit formal paths (tuples of series generated by
polynomials, rational functions, explicit coefficient lists, or the
rapidly growing series sum n!*t^n, which is not algebraic over the
rational functions) and semialgebraic expressions: a Polynomial, or an
``SAFunction`` node (a field operation, abs or sqrt) whose operands are
Polynomials or nodes, so a polynomial subtree is always a Polynomial and
``parse_function`` returns one for text without general division, abs
or sqrt.  Substituting a path into an expression yields the series of
values along the path; its constant term is the limit at the basepoint.
The higher-level routines certify strict positivity under perturbation,
extract compact-carrier data for a path sticking to its basepoint, build
polynomial tube tests around a path, and separate the n! path from
polynomially generated ones by a family of bounded quotients.

A path carries its working truncation (``FormalPath.default_trunc``), and
every routine here evaluates at it; to work at another truncation T,
build ``FormalPath(path.parts, T)``.  One evaluation forms each power of
a path coordinate once, and the polynomials of an expression share it;
the routines that evaluate several expressions along one path (the
separating search, positivity bounds, tube certificates) share the
path's series and those powers across them.
"""

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType

from .arith import ArithError, Polynomial, _nadd, _poly, _umul, binary_power, signed_sum
from ._expr import ExprError, _Parser, parse_polynomial, parse_polynomial_list


DEFAULT_TRUNCATION = Fraction(32)
CARRIER_SAMPLES = 24  # seeded unit-ball offsets compact_carrier tries

IN_IDEAL_UP_TO_T = "IN_IDEAL_UP_TO_T"
NOT_IN_IDEAL = "NOT_IN_IDEAL"
EXACTLY_IN_IDEAL = "EXACTLY_IN_IDEAL"


class PathError(ValueError):
    pass


class TruncationInsufficient(PathError):
    """The requested answer is not determined by the known coefficients."""


class IndeterminateDenominator(TruncationInsufficient):
    pass


class IndeterminateOrder(TruncationInsufficient):
    pass


class NegativeLeadingSqrt(PathError):
    pass


class UnboundedAlongPath(PathError):
    pass


class NotPositiveOnPath(PathError):
    pass


class NormalizationRequired(PathError):
    pass


class _Indeterminate:
    __slots__ = ()

    def __repr__(self):
        return "INDETERMINATE"


#: Order of a series that vanishes up to its truncation without being
#: known to vanish exactly.
INDETERMINATE = _Indeterminate()


# -- truncated Puiseux series ----------------------------------------------


def _cut(trunc: Fraction, ram: int) -> int:
    """Least n with n/ram >= trunc: the first integer exponent over ram
    that a truncation at trunc leaves unknown."""
    return -(-trunc.numerator * ram // trunc.denominator)


@dataclass(frozen=True, init=False)
class PuiseuxSeries:
    """Finitely many exact terms c*t^(n/ram) below a truncation exponent.

    ``nums`` maps int exponents n over ``ram`` to nonzero int numerators
    over one positive int ``den``, so the term at n is nums[n]/den;
    ``trunc`` is the Fraction exponent up to which the terms are exact, and
    ``trunc is None`` means the stored terms are the whole series.
    Exponents may be negative (the series lives in the fraction field).
    Every instance is normalised the same way: zero numerators and every
    n >= ceil(trunc*ram) are dropped, ``ram`` is reduced to the least
    index that carries the exponents and ``den`` to the least one that
    carries the coefficients (gcd(den, *nums.values()) == 1, and den == 1
    for no terms), so equality is structural.  ``coeffs`` is a read-only
    view {n: Fraction coefficient}, built on first read.  The public
    constructor takes that Fraction form and coerces its arguments;
    internal results go through ``_make``, which trusts int keys over
    ``ram``, int numerators over a positive int ``den`` and ``trunc`` a
    Fraction or None.
    """

    ram: int
    nums: dict
    den: int
    trunc: object

    def __init__(self, ram, coeffs, trunc=None):
        ram = int(ram)
        if ram < 1:
            raise PathError("ramification index must be a positive integer")
        trunc = None if trunc is None else Fraction(trunc)
        coeffs = {int(n): Fraction(c) for n, c in coeffs.items()}
        den = math.lcm(*(c.denominator for c in coeffs.values()))
        self._normalise(ram, {n: c.numerator * (den // c.denominator)
                              for n, c in coeffs.items()}, den, trunc)

    @classmethod
    def _make(cls, ram, nums, den, trunc) -> "PuiseuxSeries":
        s = object.__new__(cls)
        s._normalise(ram, nums, den, trunc)
        return s

    def _normalise(self, ram, nums, den, trunc):
        if trunc is None:
            kept = {n: c for n, c in nums.items() if c}
        else:
            cut = _cut(trunc, ram)
            kept = {n: c for n, c in nums.items() if c and n < cut}
        if not kept:
            ram = den = 1
        else:
            g = math.gcd(ram, *kept) if ram > 1 else 1
            if g > 1:
                kept = {n // g: c for n, c in kept.items()}
                ram //= g
            g = math.gcd(den, *kept.values()) if den > 1 else 1
            if g > 1:
                kept = {n: c // g for n, c in kept.items()}
                den //= g
        object.__setattr__(self, "ram", ram)
        object.__setattr__(self, "nums", kept)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "trunc", trunc)

    @cached_property
    def coeffs(self):
        """Read-only {exponent over ram: Fraction coefficient}."""
        den = self.den
        return MappingProxyType({n: Fraction(c, den) for n, c in self.nums.items()})

    @staticmethod
    def zero(trunc=None) -> "PuiseuxSeries":
        return PuiseuxSeries(1, {}, trunc)

    @staticmethod
    def constant(c) -> "PuiseuxSeries":
        c = Fraction(c)
        return PuiseuxSeries._make(1, {0: c.numerator}, c.denominator, None)

    @staticmethod
    def monomial(exponent, coeff=1) -> "PuiseuxSeries":
        e = Fraction(exponent)
        return PuiseuxSeries(e.denominator, {e.numerator: Fraction(coeff)})

    @staticmethod
    def from_polynomial(p: Polynomial) -> "PuiseuxSeries":
        try:
            nums, den = p.univariate_nums()
        except ArithError:
            raise PathError(f"{p.to_text()} is not univariate") from None
        return PuiseuxSeries._make(1, dict(enumerate(nums)), den, None)

    # -- structure ---------------------------------------------------------

    @property
    def exact(self) -> bool:
        return self.trunc is None

    def items(self):
        """Sorted (exponent, coefficient) pairs with Fraction exponents."""
        ram, den = self.ram, self.den
        return tuple((Fraction(n, ram), Fraction(c, den)) for n, c in sorted(self.nums.items()))

    def is_zero(self) -> bool:
        return self.exact and not self.nums

    def vanishes_so_far(self) -> bool:
        return not self.nums

    def order(self):
        """Least exponent with a nonzero coefficient.

        Returns math.inf for the exact zero series and INDETERMINATE when
        every known coefficient vanishes but the tail is unknown.
        """
        if self.nums:
            return Fraction(min(self.nums), self.ram)
        return math.inf if self.exact else INDETERMINATE

    def order_lower_bound(self):
        if self.nums:
            return Fraction(min(self.nums), self.ram)
        return math.inf if self.exact else self.trunc

    def leading_coefficient(self):
        if not self.nums:
            return None
        return Fraction(self.nums[min(self.nums)], self.den)

    def leading(self, what):
        """(order, coefficient) of the leading term, or (math.inf, 0) for
        the exact zero series.  Raises IndeterminateOrder, naming what was
        asked for, when every known coefficient vanishes but the tail is
        unknown."""
        if self.nums:
            n = min(self.nums)
            return Fraction(n, self.ram), Fraction(self.nums[n], self.den)
        if self.exact:
            return math.inf, Fraction(0)
        raise IndeterminateOrder(f"{what} not determined at truncation {self.trunc}")

    def knows(self, exponent) -> bool:
        return self.exact or Fraction(exponent) < self.trunc

    def coefficient(self, exponent) -> Fraction:
        e = Fraction(exponent)
        if not self.knows(e):
            raise IndeterminateOrder(
                f"coefficient of t^{e} lies beyond truncation {self.trunc}"
            )
        if self.ram % e.denominator == 0:
            n = e.numerator * (self.ram // e.denominator)
            return Fraction(self.nums.get(n, 0), self.den)
        return Fraction(0)

    # -- ring operations ---------------------------------------------------

    @staticmethod
    def _coerce(value):
        if isinstance(value, PuiseuxSeries):
            return value
        if isinstance(value, (int, Fraction)):
            return PuiseuxSeries.constant(value)
        return NotImplemented

    def _lift(self, other):
        """(ram, numerators of self, numerators of other) over lcm of the
        two rams."""
        ram = math.lcm(self.ram, other.ram)
        return ram, _lifted(self, ram), _lifted(other, ram)

    def __add__(self, other):
        other = PuiseuxSeries._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        ram, a, b = self._lift(other)
        out = dict(a)  # cross-multiplied by the quotients of the denominators' lcm
        return PuiseuxSeries._make(ram, out, _nadd(out, self.den, b, other.den),
                                   _trunc_min(self.trunc, other.trunc))

    __radd__ = __add__

    def __neg__(self):
        return PuiseuxSeries._make(
            self.ram, {n: -c for n, c in self.nums.items()}, self.den, self.trunc)

    def __sub__(self, other):
        other = PuiseuxSeries._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = PuiseuxSeries._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        trunc = None  # a product of exact series is exact
        if self.trunc is not None or other.trunc is not None:
            ta = math.inf if self.trunc is None else self.trunc
            tb = math.inf if other.trunc is None else other.trunc
            bound = min(self.order_lower_bound() + tb,
                        other.order_lower_bound() + ta,
                        ta + tb)
            trunc = None if bound == math.inf else bound
        ram, a, b = self._lift(other)
        den = self.den * other.den
        if len(a) == 1 or len(b) == 1:
            # a one-term operand c*t^m shifts the other's exponents by m
            # and scales its numerators by c; _make cuts at trunc
            ((m, c),), rest = (a.items(), b) if len(a) == 1 else (b.items(), a)
            return PuiseuxSeries._make(
                ram, {m + n: v * c for n, v in rest.items()}, den, trunc)
        cut = math.inf if trunc is None else _cut(trunc, ram)
        eb = sorted(b.items())
        out = {}
        for na, ca in sorted(a.items()):
            if not eb or na + eb[0][0] >= cut:
                break
            for nb, cb in eb:
                n = na + nb
                if n >= cut:
                    break
                out[n] = out.get(n, 0) + ca * cb
        return PuiseuxSeries._make(ram, out, den, trunc)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise PathError("series powers take non-negative integer exponents")
        return binary_power(self, n, PuiseuxSeries.constant(1))

    def compose_power(self, p: int) -> "PuiseuxSeries":
        """Substitute t -> t^p for a positive integer p."""
        if not isinstance(p, int) or p < 1:
            raise PathError("reparametrization exponent must be a positive integer")
        trunc = None if self.trunc is None else self.trunc * p
        return PuiseuxSeries._make(
            self.ram, {n * p: c for n, c in self.nums.items()}, self.den, trunc)

    def truncated(self, T) -> "PuiseuxSeries":
        T = Fraction(T)
        trunc = T if self.trunc is None else min(self.trunc, T)
        return PuiseuxSeries._make(self.ram, self.nums, self.den, trunc)

    # -- text --------------------------------------------------------------

    def to_text(self) -> str:
        text = signed_sum((c, [("t", e)] if e else []) for e, c in self.items())
        if not text and self.exact:
            text = "0"
        if self.trunc is not None:
            tail = f"O(t^{self.trunc})" if self.trunc.denominator == 1 else f"O(t^({self.trunc}))"
            text = tail if not text else f"{text} + {tail}"
        return text

    def __str__(self):
        return self.to_text()

    def __repr__(self):
        return f"PuiseuxSeries({self.to_text()!r})"


def _lifted(s: PuiseuxSeries, ram: int) -> dict:
    """The numerators of s keyed by integer exponents over ram, a
    multiple of s.ram."""
    k = ram // s.ram
    return s.nums if k == 1 else {n * k: c for n, c in s.nums.items()}


def _trunc_min(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def series_div(num: PuiseuxSeries, den: PuiseuxSeries, cap=None) -> PuiseuxSeries:
    """Quotient by long division in increasing exponents.

    The denominator must have a known leading term.  When the division of
    two exact series terminates it is reported exact; otherwise the result
    carries the sharpest truncation implied by the inputs, clipped at
    ``cap`` (default DEFAULT_TRUNCATION) to keep non-terminating
    expansions finite.
    """
    if den.vanishes_so_far():
        if den.exact:
            raise ZeroDivisionError("division by the zero series")
        raise IndeterminateDenominator(
            f"denominator vanishes up to truncation {den.trunc}"
        )
    q = den.order()
    cap = DEFAULT_TRUNCATION if cap is None else Fraction(cap)
    tn = math.inf if num.trunc is None else num.trunc
    td = math.inf if den.trunc is None else den.trunc
    bound = min(num.order_lower_bound() + td - 2 * q, tn - q, cap)
    if num.vanishes_so_far():
        if num.exact:
            return PuiseuxSeries.zero()
        return PuiseuxSeries.zero(bound)
    ram, a, b = num._lift(den)
    # num = A/da and den = B/db over integers; after the i-th quotient term
    # the remainder is kept as lead^i times the remainder of A by B, so the
    # i-th term of A/B is its popped entry over lead^(i+1)
    remainder = dict(a)
    (d0, lead), *rest = sorted(b.items())
    cut = _cut(bound, ram)
    terms = []
    exact = num.exact and den.exact
    while remainder:
        n = min(remainder)
        shift = n - d0
        if shift >= cut:
            exact = False
            break
        c = remainder.pop(n)
        terms.append((shift, c))
        if lead != 1:
            remainder = {k: v * lead for k, v in remainder.items()}
        for nd, cd in rest:
            key = shift + nd
            val = remainder.get(key, 0) - c * cd
            if val == 0:
                remainder.pop(key, None)
            else:
                remainder[key] = val
    # the quotient over one denominator: term i is c_i*db/(da*lead^(i+1)),
    # that is c_i*db*lead^(N-1-i) over da*lead^N for N terms
    out, power, db = {}, 1, den.den
    for shift, c in reversed(terms):
        out[shift] = c * db * power
        power *= lead
    scale = num.den * power
    if scale < 0:
        out, scale = {k: -v for k, v in out.items()}, -scale
    return PuiseuxSeries._make(ram, out, scale, None if exact else bound)


def _fraction_sqrt(c: Fraction):
    rn = math.isqrt(c.numerator)
    rd = math.isqrt(c.denominator)
    if rn * rn != c.numerator or rd * rd != c.denominator:
        return None
    return Fraction(rn, rd)


def series_sqrt(s: PuiseuxSeries, cap=None) -> PuiseuxSeries:
    """Square root with rational coefficients.

    Requires a positive leading coefficient that is the square of a
    rational (the coefficient recurrence then stays rational throughout);
    odd orders double the ramification.  The recurrence reads the
    coefficients as Fractions, from the ``coeffs`` view.
    """
    if s.vanishes_so_far():
        if s.exact:
            return PuiseuxSeries.zero()
        raise IndeterminateOrder(
            f"square root of a series that vanishes up to truncation {s.trunc}"
        )
    q = s.order()
    c = s.leading_coefficient()
    if c < 0:
        raise NegativeLeadingSqrt(f"leading term {c}*t^{q} is negative")
    root = _fraction_sqrt(c)
    if root is None:
        raise PathError(f"leading coefficient {c} is not the square of a rational")
    if len(s.nums) == 1 and s.exact:
        return PuiseuxSeries.monomial(q / 2, root)
    cap = DEFAULT_TRUNCATION if cap is None else Fraction(cap)
    bound = cap if s.exact else min(s.trunc - q / 2, cap)
    # s = t^(n0/ram) * sum s_i t^(i/ram) and r = t^(n0/(2 ram)) * sum r_i t^(i/ram)
    # with r*r = s: 2 r_0 r_i = s_i - sum_{0<j<i} r_j r_(i-j)
    n0, coeffs = min(s.nums), s.coeffs
    terms = [root]
    for i in range(1, (_cut(bound, 2 * s.ram) - n0 + 1) // 2):
        acc = coeffs.get(n0 + i, 0)
        for j in range(1, (i + 1) // 2):
            acc -= 2 * terms[j] * terms[i - j]
        if i % 2 == 0:
            acc -= terms[i // 2] ** 2
        terms.append(acc / (2 * root))
    return PuiseuxSeries(2 * s.ram, {n0 + 2 * i: r for i, r in enumerate(terms)}, bound)


def series_abs(s: PuiseuxSeries) -> PuiseuxSeries:
    """Absolute value for series ordered by their leading sign (t > 0
    infinitesimal); a series vanishing up to truncation is its own bound."""
    if s.vanishes_so_far():
        return s
    return -s if s.leading_coefficient() < 0 else s


# -- formal paths ----------------------------------------------------------


@dataclass(frozen=True)
class PathComponent:
    """One coordinate series of a formal path.

    tag "polynomial" carries an exact series, "ratio" a pair of exact
    series dividing to a power-series quotient, "factorial" the series
    sum n!*t^n for n >= 2, and "coeffs" an explicitly truncated series.
    ``power`` composes the generator with t -> t^power.
    """

    tag: str
    data: tuple = ()
    power: int = 1

    def __post_init__(self):
        if self.tag not in ("polynomial", "ratio", "factorial", "coeffs"):
            raise PathError(f"unknown path component tag {self.tag!r}")
        if not isinstance(self.power, int) or self.power < 1:
            raise PathError("component power must be a positive integer")
        for s in self.data:
            if s.nums and min(s.nums) < 0:
                raise PathError("path components must not have negative exponents")
            if self.tag in ("polynomial", "ratio") and s.ram != 1:
                raise PathError(f"{self.tag} components need integer exponents")
        if self.tag == "ratio":
            num, den = self.data
            if den.vanishes_so_far():
                raise PathError("ratio component with zero denominator")
            if not num.vanishes_so_far() and num.order() < den.order():
                raise PathError(
                    "ratio component is unbounded at t=0 "
                    f"(orders {num.order()} < {den.order()})"
                )

    def expand(self, T) -> PuiseuxSeries:
        T = Fraction(T)
        inner = T / self.power
        if self.tag == "polynomial":
            s = self.data[0]
        elif self.tag == "ratio":
            s = series_div(self.data[0], self.data[1], inner)
        elif self.tag == "factorial":
            s = PuiseuxSeries._make(1, {n: math.factorial(n)
                                        for n in range(2, _cut(inner, 1))}, 1, inner)
        else:
            s = self.data[0].truncated(inner)
        return s.compose_power(self.power) if self.power > 1 else s

    def scaled(self, p: int) -> "PathComponent":
        if self.tag == "factorial":
            return PathComponent(self.tag, self.data, self.power * p)
        data = tuple(s.compose_power(p) for s in self.data)
        return PathComponent(self.tag, data, 1)


def _component_text(part: PathComponent, T: Fraction) -> str:
    if part.tag == "factorial" and part.power == 1:
        return "factorial"
    if part.tag == "polynomial":
        return f"poly: {_poly_text_t(part.data[0])}"
    if part.tag == "ratio":
        num, den = part.data
        return f"ratio: ({_poly_text_t(num)})/({_poly_text_t(den)})"
    s = part.expand(T)
    body = " ".join(f"{n}:{c}" for n, c in sorted(s.coeffs.items()))
    return f"coeffs: {body} @e={s.ram}"


def _poly_text_t(s: PuiseuxSeries) -> str:
    return _poly_below(s, max(s.nums, default=-1) + 1).to_text()


def _poly_below(s: PuiseuxSeries, n: int, var="t") -> Polynomial:
    """The terms of an integer-exponent power series below t^n, as a
    polynomial in var."""
    coeffs = [Fraction(0)] * n
    for e, c in s.nums.items():
        if e < n:
            coeffs[e] = Fraction(c, s.den)
    return Polynomial.from_univariate(var, coeffs)


@dataclass(frozen=True)
class FormalPath:
    parts: tuple
    default_trunc: Fraction = DEFAULT_TRUNCATION

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))
        object.__setattr__(self, "default_trunc", Fraction(self.default_trunc))
        if not self.parts:
            raise PathError("a formal path needs at least one component")
        if self.default_trunc <= 0:
            raise PathError(f"truncation {self.default_trunc} is not positive")

    @property
    def dimension(self) -> int:
        return len(self.parts)

    def series(self):
        return tuple(part.expand(self.default_trunc) for part in self.parts)

    def reparametrize(self, p: int) -> "FormalPath":
        """Substitute t -> t^p in every component."""
        if not isinstance(p, int) or p < 1:
            raise PathError("reparametrization exponent must be a positive integer")
        if p == 1:
            return self
        return FormalPath(tuple(part.scaled(p) for part in self.parts),
                          self.default_trunc * p)

    @staticmethod
    def from_polynomials(polys, trunc=DEFAULT_TRUNCATION) -> "FormalPath":
        """Path with polynomial components, given as Polynomial values in
        one variable or as text like "t, 2t^2+6t^3"."""
        if isinstance(polys, str):
            polys = parse_polynomial_list(polys, ("t",))
        parts = [PathComponent("polynomial", (PuiseuxSeries.from_polynomial(p),))
                 for p in polys]
        return FormalPath(tuple(parts), trunc)

    @staticmethod
    def factorial_path(trunc=DEFAULT_TRUNCATION) -> "FormalPath":
        """The plane path (t, sum n!*t^n)."""
        return FormalPath(
            (
                PathComponent("polynomial", (PuiseuxSeries.monomial(1),)),
                PathComponent("factorial"),
            ),
            trunc,
        )


# -- path text format ------------------------------------------------------


def parse_path(text: str) -> FormalPath:
    """Parse the line format: a ``path m=<m> T=<T>`` header, then one
    component line each: ``poly: ...``, ``ratio: (p)/(q)``, ``factorial``
    or ``coeffs: n:c ... @e=<ram>``."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or not lines[0].startswith("path "):
        raise PathError("path text must start with a 'path m=<m> T=<T>' header")
    fields = {}
    for item in lines[0].split()[1:]:
        key, sep, value = item.partition("=")
        if not sep or key not in ("m", "T") or key in fields:
            raise PathError(f"bad item {item!r} in path header {lines[0]!r}")
        fields[key] = value
    try:
        m = int(fields["m"])
        T = Fraction(fields.get("T", DEFAULT_TRUNCATION))
    except (KeyError, ValueError, ZeroDivisionError) as exc:
        raise PathError(f"bad path header {lines[0]!r}") from exc
    body = lines[1:]
    if len(body) != m:
        raise PathError(f"header promises m={m} components, found {len(body)}")
    parts = []
    for ln in body:
        parts.append(_parse_component(ln, T))
    return FormalPath(tuple(parts), T)


def _parse_component(line: str, T: Fraction) -> PathComponent:
    if line == "factorial":
        return PathComponent("factorial")
    kind, sep, rest = line.partition(":")
    kind = kind.strip()
    rest = rest.strip()
    if not sep or kind not in ("poly", "ratio", "coeffs"):
        raise PathError(f"unrecognized path component {line!r}")
    if kind == "poly":
        p = parse_polynomial(rest, ("t",))
        return PathComponent("polynomial", (PuiseuxSeries.from_polynomial(p),))
    if kind == "ratio":
        return _parse_ratio(rest)
    terms = {}
    ram = None
    for item in rest.split():
        try:
            if item.startswith("@e="):
                repeated = ram is not None
                ram = int(item[3:])
            else:
                n, _, c = item.partition(":")
                n = int(n)
                repeated = n in terms
                terms[n] = Fraction(c)
        except (ValueError, ZeroDivisionError) as exc:
            raise PathError(f"bad coeffs item {item!r} in {line!r}") from exc
        if repeated:
            raise PathError(f"repeated coeffs item {item!r} in {line!r}")
    series = PuiseuxSeries(1 if ram is None else ram, terms, T)
    return PathComponent("coeffs", (series,))


def _parse_ratio(rest: str) -> PathComponent:
    depth = 0
    slashes = []
    for i, ch in enumerate(rest):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "/" and depth == 0:
            slashes.append(i)
    last_error = None
    for i in reversed(slashes):
        try:
            num = parse_polynomial(rest[:i], ("t",))
            den = parse_polynomial(rest[i + 1:], ("t",))
        except ExprError as exc:
            last_error = exc
            continue
        return PathComponent(
            "ratio",
            (PuiseuxSeries.from_polynomial(num), PuiseuxSeries.from_polynomial(den)),
        )
    if last_error is not None:
        raise PathError(f"cannot split ratio component {rest!r}: {last_error}")
    raise PathError(f"ratio component {rest!r} needs a top-level '/'")


def serialize_path(path: FormalPath) -> str:
    """The writer of the line format that ``parse_path`` reads: parsing
    the text gives back every component's series at the path's truncation,
    and a reparametrized factorial comes back as its coefficients."""
    T = path.default_trunc
    lines = [f"path m={path.dimension} T={T}"]
    for part in path.parts:
        lines.append(_component_text(part, T))
    return "\n".join(lines) + "\n"


# -- semialgebraic expression trees ----------------------------------------


def _occurring(f) -> set:
    """The variables that occur in an expression or a polynomial."""
    if isinstance(f, SAFunction):
        return f.variables()
    return {v for v, ks in zip(f.variables, zip(*f.nums)) if any(ks)}


def _value(f, env, cap, powers=None) -> PuiseuxSeries:
    """The series of an expression or a polynomial at the series in env.

    ``powers`` maps a coordinate name to the list [y, y^2, ...] of the
    powers of its series formed so far; every polynomial leaf of one
    evaluation extends and reads the same lists, so each power is formed
    once however many polynomials use it."""
    if powers is None:
        powers = {}
    if isinstance(f, SAFunction):
        return f.evaluate(env, cap, powers)
    plane = _dense(f, env)
    if plane is None:
        return f.evaluate(env, PuiseuxSeries.zero())
    return _by_rows(f, env, *plane, powers)


def _dense(p: Polynomial, env):
    """(light, dense) when exactly two coordinates occur in p and light is
    an exact c*t^e with e != 0 (the plane normal form), else None.

    The powers of that monomial have pairwise distinct orders, so a sum of
    terms a*light^i*dense^j with one j cannot cancel, and multiplying it
    by dense^j keeps the truncation the terms have one by one.  Elsewhere
    such a sum can cancel and report a sharper truncation.
    """
    names = _occurring(p)
    if len(names) != 2:
        return None
    a, b = sorted(names)
    for light, dense in ((a, b), (b, a)):
        s = env[light]
        if s.exact and len(s.nums) == 1 and 0 not in s.nums:
            return light, dense
    return None


def _by_rows(p: Polynomial, env, light, dense, powers) -> PuiseuxSeries:
    """p on the plane normal form of ``_dense`` as S_0 + sum_j S_j*y^j,
    y the dense series and j in the order the terms first name it.

    The row S_j = sum_i a_ij*c^i*t^(n*i/ram) of light = c*t^(n/ram) is one
    exact series (its exponents n*i are distinct) of integer numerators
    over p.den*d^top, d the denominator of c and top the highest power of
    light.  Each power of y is formed once, as the power below it times y,
    in the list ``powers[dense]`` that ``_value`` shares, and each row is
    multiplied by its power once.
    """
    s = env[light]
    ram, d, ((n, c),) = s.ram, s.den, s.nums.items()
    il, iy = p.variables.index(light), p.variables.index(dense)
    top = max(e[il] for e in p.nums)
    rows = {}
    for e, a in p.nums.items():
        i = e[il]
        rows.setdefault(e[iy], {})[n * i] = a * c ** i * d ** (top - i)
    den = p.den * d ** top
    out = PuiseuxSeries._make(ram, rows.pop(0), den, None) if 0 in rows else PuiseuxSeries.zero()
    ys = powers.setdefault(dense, [env[dense]])
    for j, row in rows.items():
        while len(ys) < j:
            ys.append(ys[-1] * ys[0])
        out = out + PuiseuxSeries._make(ram, row, den, None) * ys[j - 1]
    return out


@dataclass(frozen=True)
class SAFunction:
    """Expression node over path coordinates: ``op`` is one of + - * /
    with two operands or abs, sqrt with one, and each operand is a
    Polynomial or a node.  The operators only build nodes; a polynomial
    subtree stays a Polynomial, folded by Polynomial's own arithmetic."""

    op: str
    args: tuple

    def variables(self) -> set:
        return set().union(*map(_occurring, self.args))

    def evaluate(self, env, cap, powers=None) -> PuiseuxSeries:
        powers = {} if powers is None else powers
        vals = [_value(f, env, cap, powers) for f in self.args]
        if self.op == "abs":
            return series_abs(vals[0])
        if self.op == "sqrt":
            return series_sqrt(vals[0], cap)
        a, b = vals
        if self.op == "+":
            return a + b
        if self.op == "-":
            return a - b
        if self.op == "*":
            return a * b
        if b.is_zero():
            raise UnboundedAlongPath("denominator vanishes identically along the path")
        return series_div(a, b, cap)

    def __add__(self, other):
        return SAFunction("+", (self, _operand(other)))

    def __radd__(self, other):
        return SAFunction("+", (_operand(other), self))

    def __sub__(self, other):
        return SAFunction("-", (self, _operand(other)))

    def __rsub__(self, other):
        return SAFunction("-", (_operand(other), self))

    def __mul__(self, other):
        return SAFunction("*", (self, _operand(other)))

    def __rmul__(self, other):
        return SAFunction("*", (_operand(other), self))

    def __neg__(self):
        return SAFunction("-", (Polynomial.const(0, ()), self))

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise PathError("expression powers take non-negative integer exponents")
        if n == 0:
            return Polynomial.const(1, ())
        out = self
        for _ in range(n - 1):
            out = SAFunction("*", (out, self))
        return out


def _operand(f):
    """A node operand: rationals become constant Polynomials."""
    return Polynomial.const(f, ()) if isinstance(f, (int, Fraction)) else f


def parse_function(text: str):
    """An SAFunction, or a Polynomial when the text has no general
    division, abs or sqrt."""
    parser = _Parser(text, SAFunction)
    node = parser._sum(0)
    parser._expect_end()
    return parser._settled(node)


# -- evaluation along a path -----------------------------------------------

_SLOT_ALIASES = {"x": 1, "y": 2, "z": 3}


def _variable_slot(name: str, m: int) -> int:
    """Map a coordinate name to a 0-based path component index; accepts
    x/y/z and the numbered forms x1, x2, ..."""
    if name == "t":
        raise PathError("t is the series parameter, not a path coordinate")
    slot = _SLOT_ALIASES.get(name)
    if slot is None and len(name) > 1 and name[0] == "x" and name[1:].isdigit():
        slot = int(name[1:])
        if slot < 1:
            slot = None
    if slot is None:
        raise PathError(f"unknown coordinate {name!r} (use x, y, z or x1..x{m})")
    if slot > m:
        raise PathError(
            f"coordinate {name!r} needs component {slot} but the path has {m}"
        )
    return slot - 1


def slot_names(m: int):
    """Canonical coordinate names for an m-component path."""
    if m <= 3:
        return ("x", "y", "z")[:m]
    return tuple(f"x{i}" for i in range(1, m + 1))


def eval_on_path(f, alpha: FormalPath, shared=None) -> PuiseuxSeries:
    """Substitute the path components into the expression.

    When a denominator's order is not determined at the path's
    truncation, the truncation is doubled once before the error
    surfaces.  Callers that evaluate several expressions along one path
    pass the same dict as ``shared`` to each call; the path's series and
    the powers of its coordinates are then formed once per truncation.
    """
    shared = {} if shared is None else shared
    try:
        return _eval_once(f, alpha, shared)
    except IndeterminateDenominator:
        return _eval_once(f, FormalPath(alpha.parts, 2 * alpha.default_trunc), shared)


def _eval_once(f, alpha: FormalPath, shared) -> PuiseuxSeries:
    comps, powers = _expanded(alpha, shared)
    env = {}
    for name in _occurring(f):
        env[name] = comps[_variable_slot(name, alpha.dimension)]
    return _value(f, env, alpha.default_trunc, powers)


def _expanded(alpha: FormalPath, shared):
    """(component series, coordinate powers) of alpha at its truncation,
    kept in shared under that truncation."""
    got = shared.get(alpha.default_trunc)
    if got is None:
        got = shared[alpha.default_trunc] = (alpha.series(), {})
    return got


def constant_term(f, alpha: FormalPath, shared=None) -> Fraction:
    """Value of the expression at the basepoint: the t^0 coefficient of
    its series along the path (``shared`` as for ``eval_on_path``)."""
    return _value_at_zero(eval_on_path(f, alpha, shared))


def _value_at_zero(s: PuiseuxSeries) -> Fraction:
    """The t^0 coefficient of a series that is bounded at t = 0."""
    if s.nums and min(s.nums) < 0:
        raise UnboundedAlongPath(
            f"series along the path has negative order {s.order()}"
        )
    if not s.knows(0):
        raise IndeterminateOrder(
            f"constant term not determined at truncation {s.trunc}"
        )
    return s.coefficient(0)


# -- ideal membership ------------------------------------------------------


@dataclass(frozen=True)
class IdealVerdict:
    """Membership report for the vanishing ideals attached to a path:
    which="p_alpha" asks whether the whole series vanishes, which="m_star"
    only whether its value at the basepoint does."""

    status: str
    witness_order: object = None
    witness_coefficient: object = None
    truncation: object = None


def ideal_membership(f, alpha: FormalPath, which="m_star") -> IdealVerdict:
    if which not in ("m_star", "p_alpha"):
        raise PathError(f"unknown ideal selector {which!r}")
    s = eval_on_path(f, alpha)
    if which == "p_alpha":
        if s.nums:
            return IdealVerdict(NOT_IN_IDEAL, s.order(), s.leading_coefficient(), s.trunc)
        if s.exact:
            return IdealVerdict(EXACTLY_IN_IDEAL)
        return IdealVerdict(IN_IDEAL_UP_TO_T, truncation=s.trunc)
    value = _value_at_zero(s)
    if value != 0:
        return IdealVerdict(NOT_IN_IDEAL, Fraction(0), value, s.trunc)
    if s.exact:
        return IdealVerdict(EXACTLY_IN_IDEAL)
    return IdealVerdict(IN_IDEAL_UP_TO_T, truncation=s.trunc)


# -- certified positivity under perturbation -------------------------------


def positivity_bound(polys, alpha: FormalPath) -> int:
    """Smallest certified k such that every path within t^k of this one
    keeps all the polynomials strictly positive: one more than the
    largest vanishing order along the path."""
    worst = Fraction(0)
    shared = {}
    for p in polys:
        q, c = eval_on_path(p, alpha, shared).leading(f"order of {p}")
        if c == 0:
            raise NotPositiveOnPath(f"{p} vanishes identically along the path")
        if c < 0:
            raise NotPositiveOnPath(
                f"{p} has negative leading coefficient {c} along the path")
        worst = max(worst, q)
    return 1 + math.ceil(worst)


@dataclass(frozen=True)
class CarrierData:
    """Degree bound, polynomial truncation and unit-ball center whose
    swept tube stays inside the positivity region and pins the path to
    its basepoint."""

    k: int
    mu: tuple
    s0: tuple
    samples_checked: int


def compact_carrier(alpha: FormalPath, polys, g=None, seed=0) -> CarrierData:
    comps = alpha.series()
    for s in comps:
        if s.ram != 1:
            raise PathError("compact carrier data needs integer-exponent components")
    if g is not None:
        sg = eval_on_path(g, alpha)
        if sg.nums:
            raise PathError(
                f"equation {g} does not vanish along the path "
                f"(order {sg.order()})"
            )
        if not sg.exact:
            raise IndeterminateOrder(
                f"equation {g} vanishes along the path only up to "
                f"truncation {sg.trunc}"
            )
    k = positivity_bound(polys, alpha)
    for s in comps:
        if not s.knows(k + 1):
            raise IndeterminateOrder(
                f"coefficient at t^{k + 1} not determined at truncation {s.trunc}"
            )
    # with t^(k+1) known, each component minus its part below t^(k+1) has
    # order above k, so the squared distance to mu lies in (t)^(2k+2)
    mu = tuple(_poly_below(s, k + 1) for s in comps)
    s0 = tuple(s.coefficient(k + 1) for s in comps)
    checked = 0
    for offset in _ball_grid(alpha.dimension, seed):
        sample = [v + d for v, d in zip(s0, offset)]
        tube = FormalPath.from_polynomials(
            [base + Polynomial.from_univariate("t", [Fraction(0)] * (k + 1) + [sv])
             for base, sv in zip(mu, sample)])
        for p in polys:
            series = eval_on_path(p, tube)
            if series.vanishes_so_far() or series.leading_coefficient() <= 0:
                raise NotPositiveOnPath(
                    f"sampled tube path violates positivity of {p}"
                )
        checked += 1
    return CarrierData(k, mu, s0, checked)


def _ball_grid(m, seed):
    """Deterministic rational points of the closed unit ball: the center,
    the half-axes, and CARRIER_SAMPLES seeded random points with
    denominator 8."""
    yield tuple(Fraction(0) for _ in range(m))
    for i in range(m):
        for v in (Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2)):
            yield tuple(v if j == i else Fraction(0) for j in range(m))
    rng = random.Random(seed)
    made = 0
    while made < CARRIER_SAMPLES:
        point = tuple(Fraction(rng.randint(-8, 8), 8) for _ in range(m))
        if sum(v * v for v in point) <= 1:
            made += 1
            yield point


# -- polynomial tube tests -------------------------------------------------


@dataclass(frozen=True)
class Neighborhood:
    """Tube test around a path with first component t: ``inner`` is
    positive along a path iff it tracks the truncation gamma closer than
    x1^(ell+1), ``window`` iff the first coordinate stays below 1/k."""

    ell: int
    k: int
    gamma: tuple
    inner: Polynomial
    window: Polynomial

    def certificate(self, mu: FormalPath):
        """(member, inner leading coefficient, window leading coefficient)."""
        shared = {}
        leads = [eval_on_path(fn, mu, shared).leading("tube test sign")[1]
                 for fn in (self.inner, self.window)]
        member = leads[0] > 0 and leads[1] > 0
        return member, leads[0], leads[1]

    def contains(self, mu: FormalPath) -> bool:
        return self.certificate(mu)[0]


def neighborhood_element(alpha: FormalPath, ell: int, k: int) -> Neighborhood:
    """Polynomial tube data around a path normalized to first component t."""
    if not (isinstance(ell, int) and ell >= 1 and isinstance(k, int) and k >= 1):
        raise PathError("tube indices must be integers >= 1")
    comps = alpha.series()
    first = comps[0]
    if not (first.exact and first.items() == ((Fraction(1), Fraction(1)),)):
        raise NormalizationRequired(
            "first component must be exactly t; reparametrize first"
        )
    names = slot_names(alpha.dimension)
    x1 = Polynomial.var(names[0], (names[0],))
    gamma = [Polynomial.var("t", ("t",))]
    spread = Polynomial.const(0, ())
    for j in range(1, alpha.dimension):
        s = comps[j]
        if s.ram != 1:
            raise PathError("tube data needs integer-exponent components")
        if not s.knows(ell + 2):
            raise IndeterminateOrder(
                f"component {j + 1} not determined below t^{ell + 2}"
            )
        gamma.append(_poly_below(s, ell + 2))
        along = _poly_below(s, ell + 2, names[0])
        xj = Polynomial.var(names[j], (names[j],))
        spread = spread + (xj - along) ** 2
    inner = x1 ** (2 * ell + 2) - spread
    window = Polynomial.const(Fraction(1, k * k), ()) - x1 ** 2
    return Neighborhood(ell, k, tuple(gamma), inner, window)


# -- separating quotients --------------------------------------------------


def appendix_separator(k: int) -> SAFunction:
    """The bounded quotient (y - p_k(x))^2 / ((y - p_k(x))^2 + x^(2k))
    with p_k the degree-k truncation of sum n!*x^n; takes values in [0,1)
    and vanishes along the graph of p_k.  Built as int rows [p*p, -2p, [1]] in y."""
    if not isinstance(k, int) or k < 2:
        raise PathError("separating quotients are defined for integers k >= 2")
    p = [0, 0] + [math.factorial(n) for n in range(2, k + 1)]
    rows = [_umul(p, p), [-2 * c for c in p], [1]]
    num = _poly(rows)
    rows[0][2 * k] += 1  # + x^(2k): p*p has degree 2k
    return SAFunction("/", (num, _poly(rows)))


@dataclass(frozen=True)
class SeparationResult:
    k: int
    value: Fraction


def separate_from_algebraic(mu: FormalPath, k_max=12):
    """Least k whose separating quotient has a nonzero value at the
    basepoint along mu, or None when no k <= k_max resolves at this
    truncation.  The first component must be a pure power t^j.

    For plane paths (t, mu2) whose second component differs from
    sum n!*t^n at order w >= 2, the found k equals w; for j >= 2 a
    smaller k can already separate.
    """
    if not isinstance(k_max, int) or k_max < 2:
        raise PathError("separating quotients are defined for integers k >= 2,"
                        f" so k_max={k_max} leaves nothing to search")
    shared = {}
    first = _expanded(mu, shared)[0][0]
    j = first.order()
    if not (first.exact and len(first.nums) == 1
            and first.leading_coefficient() == 1
            and isinstance(j, Fraction) and j.denominator == 1 and j >= 1):
        raise NormalizationRequired(
            "first component must be t^j for an integer j >= 1"
        )
    for k in range(2, k_max + 1):
        value = constant_term(appendix_separator(k), mu, shared)
        if value != 0:
            return SeparationResult(k, value)
    return None
