"""Exact arithmetic in Q(alpha) for a real algebraic alpha.

The field is presented by a square-free defining polynomial together with
an isolating interval for alpha; the defining polynomial is never factored
up front.  When a computation runs into a nontrivial gcd with the defining
polynomial it splits the presentation instead (dynamic evaluation): alpha
is a root of exactly one factor, a sign change over the isolating interval
says which, and the field narrows itself to that factor.  Elements are
polynomial representatives; zero tests are always semantic, meaning they
ask about the value at alpha, never about the representative.

Polynomials in y with coefficients in Q(alpha), and their roots, need no
code of their own: the coefficient-list engine of ``arith`` (division,
gcd, Sturm chains, root isolation, sign at a root) takes field elements as
entries, and a root over Q(alpha) is an ``arith.AlgebraicNumber`` like a
root over Q.  cad2d lifts its stacks through the names ``ymul``,
``yisolate`` and ``ysign_at`` bound at the end of this module.
"""

from fractions import Fraction

from .arith import (
    AlgebraicNumber,
    _ext_gcd,
    _ival_add,
    _ival_mul,
    _sign,
    _trim,
    _udeg,
    _udivmod,
    _ueval,
    _uint_primitive,
    _umul,
    uisolate,
    usign_at,
)


class NumberField:
    """Q(alpha) for a real algebraic alpha, splitting itself on demand."""

    def __init__(self, alpha: AlgebraicNumber):
        self.alpha = alpha

    def defining_coeffs(self):
        return self.alpha.coeffs

    def degree(self) -> int:
        return _udeg(self.defining_coeffs())

    def reduce(self, coeffs):
        return _udivmod(coeffs, self.defining_coeffs())[1]

    def element(self, coeffs) -> "FieldElement":
        return FieldElement(self, tuple(self.reduce([Fraction(c) for c in coeffs])))

    def zero(self) -> "FieldElement":
        return FieldElement(self, ())

    def one(self) -> "FieldElement":
        return self.element([1])

    def generator(self) -> "FieldElement":
        return self.element([0, 1])

    def _root_of(self, g) -> bool:
        # g divides the defining polynomial, so interval endpoints are safe
        a = self.alpha
        if a.is_rational:
            return _ueval(g, a.value) == 0
        return _sign(_ueval(g, a.lo)) * _sign(_ueval(g, a.hi)) < 0

    def _shrink(self, new_coeffs):
        new_coeffs = _uint_primitive(_trim(new_coeffs))
        if _udeg(new_coeffs) == 1:
            v = -new_coeffs[0] / new_coeffs[1]
            self.alpha = AlgebraicNumber(new_coeffs, v, v)
        else:
            self.alpha = AlgebraicNumber(new_coeffs, self.alpha.lo, self.alpha.hi)

    def __repr__(self):
        return f"NumberField({self.alpha!r})"


class FieldElement:
    """Value in Q(alpha), held as a reduced polynomial representative."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: NumberField, coeffs):
        self.field = field
        self.coeffs = tuple(coeffs)

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.element([other])
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = list(self.coeffs), list(other.coeffs)
        n = max(len(a), len(b))
        a += [Fraction(0)] * (n - len(a))
        b += [Fraction(0)] * (n - len(b))
        return self.field.element([x + y for x, y in zip(a, b)])

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.field, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.field.element(_umul(list(self.coeffs), list(other.coeffs)))

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        out = self.field.one()
        for _ in range(n):
            out = out * self
        return out

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (self - other).sign() == 0

    def __hash__(self):
        raise TypeError("field elements are not hashable (semantic equality)")

    def sign(self) -> int:
        return usign_at(self.field.reduce(self.coeffs), self.field.alpha)

    def is_zero(self) -> bool:
        return self.sign() == 0

    def __bool__(self):
        return not self.is_zero()

    def inverse(self) -> "FieldElement":
        field = self.field
        a = field.alpha
        if a.is_rational:
            v = _ueval(field.reduce(self.coeffs), a.value)
            if v == 0:
                raise ZeroDivisionError("inverse of zero field element")
            return field.element([1 / v])
        while True:
            rep = field.reduce(self.coeffs)
            if not rep:
                raise ZeroDivisionError("inverse of zero field element")
            g, s = _ext_gcd(rep, field.defining_coeffs())
            if _udeg(g) == 0:
                return field.element([c / g[0] for c in s])
            if field._root_of(g):
                # the representative vanishes at alpha after all
                field._shrink(g)
                raise ZeroDivisionError("inverse of zero field element")
            cof, r = _udivmod(field.defining_coeffs(), g)
            assert not r
            field._shrink(cof)
            if field.alpha.is_rational:
                return self.inverse()

    def as_rational(self):
        """The exact Fraction value, or None when the value is irrational."""
        rep = self.field.reduce(self.coeffs)
        if not rep:
            return Fraction(0)
        if len(rep) == 1:
            return rep[0]
        if self.field.alpha.is_rational:
            return _ueval(rep, self.field.alpha.value)
        return None

    def interval(self):
        """Rational interval containing the value, from the current alpha interval."""
        rep = self.field.reduce(self.coeffs)
        if not rep:
            return (Fraction(0), Fraction(0))
        a = self.field.alpha
        if a.is_rational:
            v = _ueval(rep, a.value)
            return (v, v)
        out = (rep[-1], rep[-1])
        box = (a.lo, a.hi)
        for c in reversed(rep[:-1]):
            out = _ival_add(_ival_mul(out, box), (c, c))
        return out

    def approx(self, width=Fraction(1, 1 << 20)) -> Fraction:
        while True:
            lo, hi = self.interval()
            if hi - lo <= width:
                return (lo + hi) / 2
            self.field.alpha.refine()

    def __float__(self):
        return float(self.approx())

    def __repr__(self):
        return f"FieldElement({list(self.coeffs)})"


# the stack interface of cad2d: the shared engine, for lists over Q or Q(alpha)
ymul, yisolate, ysign_at = _umul, uisolate, usign_at
