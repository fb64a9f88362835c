"""Field-extension arithmetic: oracle values computed by hand.

sqrt(2) is the workhorse: its minimal polynomial is small enough that
inverses and products can be checked against closed forms (for instance
1/(1+sqrt(2)) = sqrt(2)-1).  The dynamic-splitting behavior is pinned by
starting from the reducible (t^2-2)(t^2-3) and watching the presentation
narrow to t^2-2 once an inverse forces the decision.

Polynomials over the field are coefficient lists of field elements, run
through the same univariate engine as rational lists.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from specta.arith import (
    AlgebraicNumber,
    Polynomial,
    _over_common,
    _trim,
    _udeg,
    _udivmod,
    _ueval,
    _umonic,
    _umul,
    _usign,
    _usquarefree,
    _usturm,
    isolate_real_roots,
    real_compare,
    uisolate,
    usign_at,
)
from specta import _numfield, arith
from specta._numfield import FieldElement, NumberField, _box_value


def interval(e):
    """Rational interval containing an element's value, from the current
    alpha interval: interval Horner of the reduced representative."""
    nums, den = e.field._remainder(e.nums, e.den)
    if not nums:
        return (Fraction(0), Fraction(0))
    a = e.field.alpha
    if a.is_rational:
        v = _ueval(nums, a.value) / den
        return (v, v)
    lo, hi, scale = _box_value(nums, a)
    return Fraction(lo, den * scale), Fraction(hi, den * scale)


def ypoly(field, coeffs):
    """Coefficient list in y from rationals and/or field elements."""
    return [c if isinstance(c, FieldElement) else field.element([c]) for c in coeffs]


def reduce_in(F, coeffs):
    """A rational list reduced modulo the defining list of the field F."""
    r, den = F._remainder(*_over_common(coeffs))
    return [Fraction(c, den) for c in r]


def reduced(e):
    """The representative of e reduced modulo the field's defining list."""
    return reduce_in(e.field, e.coeffs)


def sqrt2_field():
    p = Polynomial.from_univariate("x", [-2, 0, 1])
    return NumberField(AlgebraicNumber(p, 1, 2))


def test_generator_squares_to_two():
    F = sqrt2_field()
    a = F.generator()
    assert reduced(a * a) == [2]
    assert not (a * a - 2)


def test_difference_of_squares():
    F = sqrt2_field()
    a = F.generator()
    assert reduced((a + 1) * (a - 1)) == [1]


def test_inverse_of_one_plus_sqrt2():
    F = sqrt2_field()
    a = F.generator()
    inv = (a + 1).inverse()
    assert inv == a - 1


def reducible_field():
    """(t^2-2)(t^2-3) with the interval pinned on sqrt(2)."""
    p = Polynomial.from_univariate("x", [6, 0, -5, 0, 1])
    return NumberField(AlgebraicNumber(p, Fraction(13, 10), Fraction(29, 20)))


def test_sign_comparisons():
    F = sqrt2_field()
    a = F.generator()
    assert (a - 1).sign() == 1
    assert (a - Fraction(3, 2)).sign() == -1
    assert (a - Fraction(141421356, 100000000)).sign() == 1
    assert (7 * a - 10).sign() < 0  # 49*2 = 98 < 100


def test_division_round_trips():
    F = sqrt2_field()
    a = F.generator()
    e = (3 * a + 5) * (a - 7).inverse()
    assert e * (a - 7) == 3 * a + 5


def test_inverse_of_zero_raises():
    F = sqrt2_field()
    a = F.generator()
    with pytest.raises(ZeroDivisionError):
        (a * a - 2).inverse()


def test_elements_have_no_float():
    # the narrowing's float guess is private; no float of an element may
    # reach a decision or an output
    F = sqrt2_field()
    with pytest.raises(TypeError):
        float(F.generator() + 1)


def test_reducible_presentation_narrows_on_inverse():
    F = reducible_field()
    a = F.generator()
    assert _udeg(F.alpha.coeffs) == 4
    inv = (a * a - 3).inverse()  # value is 2-3 = -1
    assert _udeg(F.alpha.coeffs) == 2
    assert reduced(inv) == [-1]
    assert reduced(a * a) == [2]


def test_rational_presentation_fast_paths():
    p = Polynomial.from_univariate("x", [Fraction(-3, 2), 1])
    F = NumberField(AlgebraicNumber(p, Fraction(3, 2), Fraction(3, 2)))
    a = F.generator()
    assert reduced(a * a) == [Fraction(9, 4)]
    assert (a - 2).sign() == -1
    assert reduced(a.inverse()) == [Fraction(2, 3)]


def test_element_interval_contains_value():
    F = sqrt2_field()
    a = F.generator()
    e = a * a * a  # 2*sqrt(2) ~ 2.8284
    lo, hi = interval(e)
    while hi - lo > Fraction(1, 10 ** 8):
        F.alpha.refine()
        lo, hi = interval(e)
    assert 0 < lo and lo * lo < 8 < hi * hi


# ---------------------------------------------------------------------------
# signs: an interval on alpha's box, the exact path as the zero test


@pytest.fixture
def exact_calls(monkeypatch):
    """Representatives FieldElement.sign hands to the exact usign_at."""
    calls = []
    exact = _numfield.usign_at

    def counted(q, root):
        calls.append(list(q))
        return exact(q, root)

    monkeypatch.setattr(_numfield, "usign_at", counted)
    return calls


def test_interval_certifies_sign_without_exact_path(exact_calls):
    F = sqrt2_field()
    a = F.generator()
    assert (a - 1).sign() == 1
    assert (7 * a - 10).sign() == -1
    assert (a * a * a - 2).sign() == 1  # 2*sqrt(2) - 2
    assert exact_calls == []


def test_vanishing_representative_takes_exact_path(exact_calls):
    F = reducible_field()
    a = F.generator()
    e = a * a - 2  # representative t^2 - 2 is not zero, its value is
    assert reduce_in(F, e.coeffs)
    assert e.sign() == 0
    assert exact_calls == [reduce_in(F, e.coeffs)]
    assert _udeg(F.alpha.coeffs) == 4  # a sign never narrows the field


def test_sign_past_refinement_limit_takes_exact_path(exact_calls):
    # sqrt(2) - 1.41421356 ~ 2.4e-9 needs ~29 halvings of (1, 2)
    F = sqrt2_field()
    e = F.generator() - Fraction(141421356, 100000000)
    assert e.sign() == 1
    assert len(exact_calls) == 1


def negated_field():
    """sqrt(2) as the root of -2t^2 + 4: a defining list that is neither
    primitive nor led by a positive coefficient."""
    p = Polynomial.from_univariate("x", [4, 0, -2])
    return NumberField(AlgebraicNumber(p, 1, 2))


FIELDS = {"sqrt2": sqrt2_field, "reducible": reducible_field, "negated": negated_field}


small = st.integers(min_value=-4, max_value=4)
near_sqrt2 = st.fractions(min_value=Fraction(14142, 10000),
                          max_value=Fraction(14143, 10000), max_denominator=10 ** 9)
representatives = st.one_of(
    st.lists(small, min_size=1, max_size=4),
    # multiples of t^2 - 2 vanish at alpha
    st.tuples(small, small).map(lambda c: [-2 * c[0], -2 * c[1], c[0], c[1]]),
    # t - r with r within 1e-4 of sqrt(2)
    near_sqrt2.map(lambda r: [-r, 1]),
)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(FIELDS)), representatives)
def test_sign_agrees_with_exact_sign(name, rep):
    rep = [Fraction(c) for c in rep]
    expected = usign_at(rep, FIELDS[name]().alpha.copy())
    assert FIELDS[name]().element(rep).sign() == expected


# ---------------------------------------------------------------------------
# sums and rational multiples leave representatives unreduced


def _element_route(x, op, y):
    """x op y reduced on the spot, through field.element."""
    F = x.field
    if op == "*":
        return F.element([c * y for c in x.coeffs])
    a = list(x.coeffs)
    b = list(y.coeffs) if isinstance(y, FieldElement) else [y]
    a += [Fraction(0)] * (len(b) - len(a))
    b += [Fraction(0)] * (len(a) - len(b))
    sign = -1 if op == "-" else 1
    return F.element([u + sign * v for u, v in zip(a, b)])


rationals = st.fractions(min_value=-5, max_value=5, max_denominator=7)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(FIELDS)),
       st.lists(small, min_size=1, max_size=4), st.lists(small, min_size=1, max_size=4),
       rationals, st.booleans())
def test_unreduced_arithmetic_matches_element_route(name, xs, ys, r, narrow):
    F = FIELDS[name]()
    x = F.element(xs) * F.generator()  # degree up to 4: reduced by the product
    y = F.element(ys)
    if narrow and name == "reducible":
        (F.generator() * F.generator() - 3).inverse()  # narrows the field to t^2 - 2
        assert _udeg(F.alpha.coeffs) == 2
    cases = [(x + y, x, "+", y), (x - y, x, "-", y), (x + r, x, "+", r),
             (x - r, x, "-", r), (x * r, x, "*", r), (r * y, y, "*", r),
             (r + y, y, "+", r)]
    for got, u, op, v in cases:
        want = _element_route(u, op, v)
        assert reduce_in(F, got.coeffs) == reduce_in(F, want.coeffs)
        assert got.sign() == want.sign()


# ---------------------------------------------------------------------------
# integer kernels: the results of the rational routes


def _fraction_interval(rep, alpha):
    """Interval Horner on Fractions over alpha's box."""
    lo = hi = rep[-1]
    for c in reversed(rep[:-1]):
        ps = (lo * alpha.lo, lo * alpha.hi, hi * alpha.lo, hi * alpha.hi)
        lo, hi = min(ps) + c, max(ps) + c
    return lo, hi


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(FIELDS)),
       st.lists(rationals, min_size=1, max_size=7), st.lists(rationals, min_size=1, max_size=7))
def test_integer_field_arithmetic_matches_rational_route(name, xs, ys):
    F = FIELDS[name]()
    m = F.alpha.coeffs
    assert reduce_in(F, xs) == _udivmod(xs, m)[1]
    x, y = F.element(xs), F.element(ys)
    product = _umul(list(x.coeffs), list(y.coeffs))
    assert list((x * y).coeffs) == _udivmod(product, m)[1]
    assert FieldElement(F, product).sign() == (x * y).sign()
    for _ in range(3):
        rep = reduce_in(F, x.coeffs)
        want = _fraction_interval(rep, F.alpha) if rep else (0, 0)
        assert interval(x) == want
        F.alpha.refine()


entries = st.one_of(rationals, st.lists(small, min_size=1, max_size=4))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(FIELDS)), st.lists(entries, min_size=1, max_size=5),
       rationals)
def test_list_sign_matches_element_horner(name, raw, x):
    F = FIELDS[name]()
    cs = [F.element(e) if isinstance(e, list) else e for e in raw]
    if all(isinstance(c, Fraction) for c in cs):
        cs[0] = F.element([cs[0], 1])
    assert _usign(cs, x) == _ueval(cs, x).sign()


def test_list_signs_read_the_entries_integer_forms(monkeypatch):
    F = reducible_field()
    a = F.generator()
    cs = [a * a - 3, Fraction(1, 3), 2 * a + Fraction(1, 7), a * a * a - a]
    calls = []
    over_common = _numfield._over_common

    def counted(values):
        calls.append(values)
        return over_common(values)

    monkeypatch.setattr(_numfield, "_over_common", counted)
    xs = [Fraction(k, 7) for k in range(-10, 11)]
    signs = [_usign(cs, x) for x in xs]
    # the entries hold their integer forms: signing the list at any number
    # of rationals forms none (the defining list's is kept by the field)
    assert len(calls) <= 1
    monkeypatch.setattr(_numfield, "_over_common", over_common)
    assert signs == [_ueval(cs, x).sign() for x in xs]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(FIELDS)), representatives, st.booleans())
def test_inverse_is_the_reduced_inverse(name, rep, narrow):
    F = FIELDS[name]()
    if narrow and name == "reducible":
        (F.generator() * F.generator() - 3).inverse()
    x = F.element([Fraction(c) for c in rep]) * F.generator()
    if not x:
        with pytest.raises(ZeroDivisionError):
            x.inverse()
        return
    inv = x.inverse()
    assert list(inv.coeffs) == reduce_in(F, inv.coeffs)  # reduced, no trailing zero
    assert reduced(x * inv) == [1]


# ---------------------------------------------------------------------------
# polynomials over the field


def test_isolate_fourth_root_of_two():
    F = sqrt2_field()
    a = F.generator()
    roots = uisolate(ypoly(F, [-a, 0, 1]))
    assert len(roots) == 2
    approx = [float(r) for r in roots]
    assert abs(approx[0] + 2 ** 0.25) < 1e-5
    assert abs(approx[1] - 2 ** 0.25) < 1e-5


def test_isolate_finds_exact_rational_root():
    F = sqrt2_field()
    a = F.generator()
    # (y - 1/3)(y - sqrt2) = y^2 - (1/3 + sqrt2) y + sqrt2/3
    p = [a * Fraction(1, 3), -(a + Fraction(1, 3)), F.element([1])]
    roots = uisolate(p)
    assert len(roots) == 2
    assert roots[0].is_rational and roots[0].value == Fraction(1, 3)
    assert not roots[1].is_rational
    assert abs(float(roots[1]) - 2 ** 0.5) < 1e-5


def test_isolate_handles_repeated_factor():
    F = sqrt2_field()
    a = F.generator()
    # (y - a)^2 has a single distinct root at sqrt(2)
    p = [a * a, -2 * a, F.element([1])]
    roots = uisolate(p)
    assert len(roots) == 1
    assert abs(float(roots[0]) - 2 ** 0.5) < 1e-5


def test_isolate_with_algebraic_leading_coefficient():
    F = sqrt2_field()
    a = F.generator()
    # a*y - 1 has the single root 1/sqrt(2)
    roots = uisolate([-F.element([1]), a])
    assert len(roots) == 1
    assert abs(float(roots[0]) - 2 ** -0.5) < 1e-5


def test_sign_at_root():
    F = sqrt2_field()
    a = F.generator()
    roots = uisolate([(-a), F.element([0]), F.element([1])])  # y^2 = sqrt2
    r = roots[1]  # 2^(1/4)
    # y^4 - 2 vanishes there; y^2 - 2 is negative; y - 1 is positive
    q_vanishing = ypoly(F, [-2, 0, 0, 0, 1])
    assert usign_at(q_vanishing, r) == 0
    assert usign_at(ypoly(F, [-2, 0, 1]), r) == -1
    assert usign_at(ypoly(F, [-1, 1]), r) == 1
    assert usign_at(ypoly(F, [5]), r) == 1


def test_sign_at_rational_point():
    F = sqrt2_field()
    a = F.generator()
    p = [(-a), F.element([1])]  # y - sqrt2
    assert usign_at(p, Fraction(1)) == -1
    assert usign_at(p, Fraction(2)) == 1


def test_squarefree_collapses_repeated_root():
    F = sqrt2_field()
    a = F.generator()
    p = [a * a, -2 * a, F.element([1])]  # (y-a)^2
    sf = _usquarefree(p)
    assert len(_trim(sf)) == 2  # degree dropped to 1


def test_semantic_trim_drops_vanishing_lead():
    F = sqrt2_field()
    a = F.generator()
    # leading coefficient a^2 - 2 is semantically zero
    p = [F.element([1]), F.element([1]), a * a - 2]
    assert len(_trim(p)) == 2


def test_field_from_isolated_root():
    # third root of x^3 - 3 (the real one), then compute in Q(alpha)
    roots = isolate_real_roots(Polynomial.from_univariate("x", [-3, 0, 0, 1]))
    assert len(roots) == 1
    F = NumberField(roots[0].copy())
    a = F.generator()
    assert reduced(a * a * a) == [3]
    assert (a - 1).sign() == 1
    assert reduced((a * a + a + 1) * (a - 1)) == [2]  # a^3 - 1


# ---------------------------------------------------------------------------
# one engine for both coefficient domains


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=-6, max_value=6), min_size=2, max_size=6))
def test_isolation_agrees_over_q_and_q_sqrt2(coeffs):
    rational = _usquarefree([Fraction(c) for c in coeffs])
    if len(rational) < 2:
        return
    F = sqrt2_field()
    over_q = uisolate(rational)
    over_field = uisolate(ypoly(F, rational))
    assert len(over_q) == len(over_field)
    for a, b in zip(over_q, over_field):
        assert max(a.lo, b.lo) <= min(a.hi, b.hi)


# ---------------------------------------------------------------------------
# one Sturm chain per list over Q(alpha), bisection from counts only; the
# reference is the route before it: a square-free part by a gcd with the
# derivative and a division, the Sturm chain of its monic form, and a
# Cauchy bound read off the element intervals on alpha's box


def cubic_field():
    """The largest root of t^3 - 3t - 1, near 1.879."""
    p = Polynomial.from_univariate("x", [-1, -3, 0, 1])
    return NumberField(AlgebraicNumber(p, 1, 2))


def _ref_root_bound(cs):
    lead = abs(interval(cs[-1])[0])
    m = max([Fraction(0)] + [abs(v) for c in cs[:-1] for v in interval(c)])
    return 1 + m / lead


def _ref_uisolate(p):
    sq = _umonic(_usquarefree(_trim(p)))
    return arith._bisect(sq, _usturm(sq), {}, _ref_root_bound(sq), Fraction(1, 1024))


def _nested(u, v):
    """Whether copies of two roots, refined the wider first, come to lie
    one inside the other: each isolates one root of lists with the same
    roots, so nesting proves that they are the same root."""
    u, v = u.copy(), v.copy()
    for _ in range(80):
        if v.lo <= u.lo and u.hi <= v.hi or u.lo <= v.lo and v.hi <= u.hi:
            return True
        if u.hi <= v.lo or v.hi <= u.lo:
            return False
        (u if u.hi - u.lo > v.hi - v.lo else v).refine()
    return False


# a factor y - c or y^2 - c, c = r0 + r1*alpha, with a multiplicity
_factors = st.tuples(st.booleans(), small, small, st.integers(min_value=1, max_value=3))


def _drawn_list(F, factors, lead):
    a = F.generator()
    p = [F.element([lead])]
    for quadratic, r0, r1, k in factors:
        c = a * r1 + r0
        f = [-c, F.element([0]), F.element([1])] if quadratic else [-c, F.element([1])]
        for _ in range(k):
            p = _umul(p, f)
    return p


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["sqrt2", "cubic"]), st.lists(_factors, min_size=1, max_size=3),
       st.sampled_from([1, -2, Fraction(3, 5)]))
def test_one_chain_isolation_matches_the_two_gcd_route(name, factors, lead):
    F = {"sqrt2": sqrt2_field, "cubic": cubic_field}[name]()
    p = _drawn_list(F, factors, lead)
    mine, ref = uisolate(p), _ref_uisolate(p)
    assert len(mine) == len(ref)
    for u, v in zip(mine, ref):
        assert _nested(u, v)
        if u.is_rational:
            assert _usign(p, u.value) == 0
    if mine:  # the defining list is square-free
        sq = mine[0].coeffs
        assert _udeg(_trim(_udivmod(sq, _usquarefree(sq))[0])) == 0


def _admissible(b, p, roots):
    """Neither -b nor b is a root of p, and every root lies inside (-b, b)."""
    return (_usign(p, b) != 0 and _usign(p, -b) != 0
            and all(real_compare(r.copy(), b) < 0 < real_compare(r.copy(), -b) for r in roots))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["sqrt2", "cubic"]), st.lists(_factors, min_size=1, max_size=3),
       st.sampled_from([1, -2, Fraction(3, 5)]))
@example("sqrt2", [(False, 2, 0, 1), (True, 1, 0, 2)], 1)  # roots 2 and +-1 on the ends
def test_bisection_starts_at_the_least_admissible_power_of_two(name, factors, lead):
    F = {"sqrt2": sqrt2_field, "cubic": cubic_field}[name]()
    p = _umonic(_drawn_list(F, factors, lead))
    start = arith._count_start(_usturm(p), {})
    assert start.denominator == 1 and start.numerator & (start.numerator - 1) == 0
    roots = uisolate(p)
    assert _admissible(start, p, roots)
    assert start == 1 or not _admissible(start / 2, p, roots)


def test_isolation_does_not_read_alphas_box():
    # the same list, in fields whose alpha was refined 0 to 16 times
    # beforehand, gives the same root intervals
    seen = set()
    for k in range(17):
        F = cubic_field()
        for _ in range(k):
            F.alpha.refine()
        p = _drawn_list(F, [(True, 1, 1, 2), (False, -1, 1, 1), (False, 0, 3, 1)], -2)
        seen.add(tuple((r.lo, r.hi) for r in uisolate(p)))
    assert len(seen) == 1
