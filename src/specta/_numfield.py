"""Exact arithmetic in Q(alpha) for a real algebraic alpha.

The field is presented by a square-free defining polynomial together with
an isolating interval for alpha; the defining polynomial is never factored
up front.  When a computation runs into a nontrivial gcd with the defining
polynomial it splits the presentation instead (dynamic evaluation): alpha
is a root of exactly one factor, a sign change over the isolating interval
says which, and the field narrows itself to that factor.  Elements are
polynomial representatives; zero tests are always semantic, meaning they
ask about the value at alpha, never about the representative.

A sign is certified by an interval first: the representative is evaluated
by interval Horner on alpha's isolating box, and an interval that excludes
0 proves the sign.  alpha is refined up to ``SIGN_REFINEMENTS`` times for
that; only when 0 stays inside (the value may be 0) does the exact
``usign_at`` run, so the exact path is the zero test.  No other code
reads alpha's box, so how far alpha was refined changes no result.  Sums,
differences and rational multiples cannot raise the degree, so they leave
their representatives unreduced; every read of a representative
(``sign``, ``inverse``) reduces it first, which also keeps elements built
before the field narrowed itself correct.  Products, reductions,
inverses, interval Horner and the Horner sign of a list over the field
at a rational (``FieldElement.list_sign_at``) run on integer numerators
over one positive denominator: every result is the exact rational one.
An element holds its representative in that integer form
(``FieldElement.nums`` over ``den``), so sums, products and a list
signed at many rationals never build a Fraction per coefficient; an
inverse comes from the integer extended gcd (``arith._ext_gcd``) of
that form with the defining list.

An element offers only what the engine calls: ``+``, ``-`` and ``*``
with elements and rationals on either side, ``inverse``, ``sign``,
``list_sign_at``, and semantic ``==`` and truth.

Polynomials in y with coefficients in Q(alpha), and their roots, need no
code of their own: the coefficient-list engine of ``arith`` (division,
gcd, Sturm chains, root isolation, signs at the levels of a line) takes
field elements as entries, and a root over Q(alpha) is an
``arith.AlgebraicNumber`` like a root over Q.  cad2d lifts its stacks
through the names ``ymul``, ``yisolate`` and ``ysign_at`` bound below.
"""

from fractions import Fraction
from math import gcd, lcm

from .arith import (
    AlgebraicNumber,
    _ext_gcd,
    _ihorner,
    _over_common,
    _sign,
    _trim,
    _udeg,
    _udivmod,
    _ueval,
    _uint_primitive,
    _umul,
    _usign,
    uisolate,
    ulevel_signs,
    usign_at,
)


# interval Horner refinements of alpha that FieldElement.sign tries before
# its exact zero test
SIGN_REFINEMENTS = 8


def _box_value(nums, alpha):
    """Interval Horner value of an integer representative on alpha's
    isolating box, as integer ends over a positive integer scale.

    With the box over a common denominator d, each step is the rational
    step scaled by a positive integer, which moves no end of an interval
    product, so dividing by the scale gives the interval of the rational
    loop and the signs of the ends can be read off.
    """
    lo, hi = alpha.lo, alpha.hi
    d = lcm(lo.denominator, hi.denominator)
    ln, hn = lo.numerator * (d // lo.denominator), hi.numerator * (d // hi.denominator)
    olo = ohi = nums[-1]
    dk = 1
    for c in reversed(nums[:-1]):
        dk *= d
        ps = (olo * ln, olo * hn, ohi * ln, ohi * hn)
        olo, ohi = min(ps) + c * dk, max(ps) + c * dk
    return olo, ohi, dk


class NumberField:
    """Q(alpha) for a real algebraic alpha, splitting itself on demand."""

    def __init__(self, alpha: AlgebraicNumber):
        self.alpha = alpha
        self._int_of = self._int_defining = None
        self._near_of = self._near_value = None

    def _near(self) -> Fraction:
        """A rational within 2^-64 of alpha, for the float guesses of
        ``FieldElement._guess`` only.  It is read off a narrowed copy of
        alpha, once per alpha object, so alpha's own box does not move."""
        a = self.alpha
        if self._near_of is not a:
            self._near_of = a
            self._near_value = a.value if a.is_rational else a.copy().approx(Fraction(1, 1 << 64))
        return self._near_value

    def _remainder(self, nums, den):
        """(r, den') with r/den' the remainder of nums/den modulo the
        defining list: r an integer list without trailing zeros, den' > 0.

        Integer pseudo-division: each step scales r (and den) by the
        defining list's leading numerator, so its top term cancels exactly.
        """
        m = self.alpha.coeffs
        if self._int_of is not m:
            self._int_of, self._int_defining = m, _over_common(m)[0]
        m = self._int_defining
        n, lead = len(m) - 1, m[-1]
        r = list(nums)
        while r and r[-1] == 0:
            r.pop()
        while len(r) > n:
            t = r.pop()
            d = len(r) - n
            if lead != 1:
                r = [c * lead for c in r]
                den *= lead
            for i in range(n):
                r[d + i] -= t * m[i]
            while r and r[-1] == 0:
                r.pop()
        if den < 0:
            r, den = [-c for c in r], -den
        return r, den

    def sign_of(self, nums, den) -> int:
        """Sign at alpha of the representative nums/den, den > 0.

        The interval Horner value on alpha's box certifies the sign when it
        excludes 0, after up to SIGN_REFINEMENTS refinements of alpha.
        Otherwise, or once alpha is rational, the exact ``usign_at``
        decides: it is the zero test.
        """
        nums, den = self._remainder(nums, den)
        if len(nums) <= 1:
            return _sign(nums[0]) if nums else 0
        a = self.alpha
        tries = SIGN_REFINEMENTS
        while not a.is_rational:
            lo, hi, _ = _box_value(nums, a)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            if not tries:
                break
            tries -= 1
            a.refine()
        return usign_at(nums, a)  # den > 0 moves no sign

    def element(self, coeffs) -> "FieldElement":
        nums, den = _over_common([Fraction(c) for c in coeffs])
        return FieldElement._of(self, *self._remainder(nums, den))

    def generator(self) -> "FieldElement":
        return self.element([0, 1])

    def _root_of(self, g) -> bool:
        # g divides the defining polynomial, so interval endpoints are safe
        a = self.alpha
        if a.is_rational:
            return _usign(g, a.value) == 0
        return _usign(g, a.lo) * _usign(g, a.hi) < 0

    def _shrink(self, new_coeffs):
        new_coeffs = _uint_primitive(_trim(new_coeffs))
        if _udeg(new_coeffs) == 1:
            v = Fraction(-new_coeffs[0], new_coeffs[1])
            self.alpha = AlgebraicNumber(new_coeffs, v, v)
        else:
            self.alpha = AlgebraicNumber(new_coeffs, self.alpha.lo, self.alpha.hi)

    def __repr__(self):
        return f"NumberField({self.alpha!r})"


class FieldElement:
    """Value in Q(alpha), held as a polynomial representative that
    products reduce and sums do not (see the module docstring).

    The representative is ``nums`` over ``den``: integer numerators over
    one positive denominator that share no factor with them, the pair
    ``arith._over_common`` gives for its coefficients.
    """

    __slots__ = ("field", "nums", "den")

    def __init__(self, field: NumberField, coeffs):
        self.field = field
        self.nums, self.den = _over_common(coeffs)

    @classmethod
    def _of(cls, field, nums, den):
        """The element nums/den, den > 0, with common factors divided out."""
        g = gcd(den, *nums)
        if g > 1:
            nums, den = [c // g for c in nums], den // g
        e = object.__new__(cls)
        e.field, e.nums, e.den = field, nums, den
        return e

    @property
    def coeffs(self):
        """The representative's coefficients as Fractions."""
        return tuple(Fraction(c, self.den) for c in self.nums)

    def __add__(self, other):
        if isinstance(other, FieldElement):
            b, db = other.nums, other.den
        elif isinstance(other, (int, Fraction)):
            b, db = [other.numerator], other.denominator
        else:
            return NotImplemented
        a, da = self.nums, self.den
        den = lcm(da, db)
        ka, kb = den // da, den // db
        if len(a) < len(b):
            a, ka, b, kb = b, kb, a, ka
        nums = [c * ka for c in a]
        for i, c in enumerate(b):
            nums[i] += c * kb
        return FieldElement._of(self.field, nums, den)

    __radd__ = __add__

    def __neg__(self):
        return FieldElement._of(self.field, [-c for c in self.nums], self.den)

    def __sub__(self, other):
        if isinstance(other, (FieldElement, int, Fraction)):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if isinstance(other, FieldElement):
            r, den = self.field._remainder(_umul(self.nums, other.nums), self.den * other.den)
            return FieldElement._of(self.field, r, den)
        if isinstance(other, (int, Fraction)):
            return FieldElement._of(self.field, [c * other.numerator for c in self.nums],
                                    self.den * other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, (FieldElement, int, Fraction)):
            return (self - other).sign() == 0
        return NotImplemented

    def __hash__(self):
        raise TypeError("field elements are not hashable (semantic equality)")

    def sign(self) -> int:
        """Sign of the value at alpha: certified by an interval on alpha's
        box, with the exact ``usign_at`` as the zero test (see
        ``NumberField.sign_of``)."""
        return self.field.sign_of(self.nums, self.den)

    def list_sign_at(self, cs, x) -> int:
        """Sign at a rational x of a coefficient list whose entries are
        rationals and elements of this element's field.

        Horner runs on integer numerators over one positive denominator,
        and the field signs the representative it ends with.
        """
        n, d = x.numerator, x.denominator
        acc, den = [], 1
        for c in reversed(cs):
            if isinstance(c, FieldElement):
                nums, e = c.nums, c.den
            else:
                nums, e = [c.numerator], c.denominator
            # acc/den * x + nums/e, over den * d * e
            k, m = n * e, den * d
            acc = [a * k for a in acc] + [0] * (len(nums) - len(acc))
            for j, v in enumerate(nums):
                acc[j] += v * m
            den *= d * e
        return self.field.sign_of(acc, den)

    def __bool__(self):
        return self.sign() != 0

    def _guess(self) -> float:
        """The representative's value at ``NumberField._near``, rounded once:
        a guess that decides only which cell ``AlgebraicNumber.narrow``
        signs, never a sign or an output, so it is no ``__float__`` and
        ``float()`` of an element stays a TypeError.  Raises OverflowError
        beyond float range."""
        x = self.field._near()
        n, d = x.numerator, x.denominator
        return _ihorner(self.nums, n, d) / (self.den * d ** max(len(self.nums) - 1, 0))

    def inverse(self) -> "FieldElement":
        """1/value, from the extended gcd of the integer representative
        with the defining list; a gcd of positive degree splits the field
        and the loop runs again in the narrowed field."""
        field = self.field
        while True:
            nums, den = field._remainder(self.nums, self.den)
            a = field.alpha
            if not nums or a.is_rational and not _usign(nums, a.value):
                raise ZeroDivisionError("inverse of zero field element")
            if a.is_rational:
                return field.element([den / _ueval(nums, a.value)])
            if len(nums) == 1:
                return FieldElement._of(field, [den if nums[0] > 0 else -den], abs(nums[0]))
            g, s = _ext_gcd(nums, a.coeffs)
            if _udeg(g) == 0:
                # s/g[0] inverts nums, so den*s/g[0] inverts nums/den; s is
                # reduced, its degree being below the defining list's
                k = den / g[0]
                return FieldElement(field, [c * k for c in s])
            if field._root_of(g):
                # the representative vanishes at alpha after all
                field._shrink(g)
                raise ZeroDivisionError("inverse of zero field element")
            cof, r = _udivmod(a.coeffs, g)
            assert not r
            field._shrink(cof)

    def __repr__(self):
        return f"FieldElement({list(self.coeffs)})"


# the stack interface of cad2d: the shared engine, for lists over Q or
# Q(alpha); ysign_at signs a list at all levels of a stack in one call
ymul, yisolate, ysign_at = _umul, uisolate, ulevel_signs
