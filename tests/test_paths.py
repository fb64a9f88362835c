"""Series, path and expression-tree engine tests.

Reference series below (square roots, geometric expansions, the
separating-quotient values and the tube-test leading coefficients) were
computed independently with sympy and by hand order bookkeeping, then
frozen here as exact rationals.
"""

import math
import operator
import random
from fractions import Fraction as F
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from reference import truncated_factorial
from specta._expr import ExprError, parse_polynomial, parse_polynomial_list
from specta.arith import Polynomial, _over_common
from specta.paths import (
    DEFAULT_TRUNCATION,
    EXACTLY_IN_IDEAL,
    IN_IDEAL_UP_TO_T,
    INDETERMINATE,
    NOT_IN_IDEAL,
    CarrierData,
    FormalPath,
    IndeterminateDenominator,
    IndeterminateOrder,
    NegativeLeadingSqrt,
    NormalizationRequired,
    NotPositiveOnPath,
    PathComponent,
    PathError,
    PuiseuxSeries,
    SAFunction,
    UnboundedAlongPath,
    _cut,
    _value,
    appendix_separator,
    compact_carrier,
    constant_term,
    eval_on_path,
    ideal_membership,
    neighborhood_element,
    parse_function,
    parse_path,
    positivity_bound,
    separate_from_algebraic,
    serialize_path,
    series_abs,
    series_div,
    series_sqrt,
    slot_names,
)


def S(pairs, trunc=None):
    """The reference constructor: the series of (exponent, coefficient)
    pairs with rational exponents, repeated exponents summed."""
    pairs = [(F(e), F(c)) for e, c in pairs]
    nums, ram = _over_common([e for e, _ in pairs])
    terms = {}
    for n, (_, c) in zip(nums, pairs):
        terms[n] = terms.get(n, 0) + c
    return PuiseuxSeries(ram, terms, trunc)


def path(text, trunc=DEFAULT_TRUNCATION):
    return FormalPath.from_polynomials(text, trunc)


def _agree(a, b):
    """Equal below the common truncation (full equality when both exact)."""
    return not (a - b).coeffs


# -- reference route: Fraction exponents, every term through S -----------
#
# The engine works on integer exponents over a common ramification and
# stops products at the truncation.  These reach the same series another
# way: every pair product is formed, long division runs on Fraction-keyed
# remainders and square roots come from the binomial series.  The
# truncation bounds are the engine's own formulas.


def _ref_add(a, b):
    trunc = min((t for t in (a.trunc, b.trunc) if t is not None), default=None)
    return S(a.items() + b.items(), trunc)


def _ref_mul(a, b):
    ta = math.inf if a.trunc is None else a.trunc
    tb = math.inf if b.trunc is None else b.trunc
    bound = min(a.order_lower_bound() + tb, b.order_lower_bound() + ta, ta + tb)
    pairs = [(ea + eb, ca * cb) for ea, ca in a.items() for eb, cb in b.items()]
    return S(pairs, None if bound == math.inf else bound)


def _ref_div(num, den, cap=None):
    if den.vanishes_so_far():
        if den.exact:
            raise ZeroDivisionError("division by the zero series")
        raise IndeterminateDenominator("denominator vanishes")
    q = den.order()
    cap = DEFAULT_TRUNCATION if cap is None else F(cap)
    tn = math.inf if num.trunc is None else num.trunc
    td = math.inf if den.trunc is None else den.trunc
    bound = min(num.order_lower_bound() + td - 2 * q, tn - q, cap)
    if num.vanishes_so_far():
        return PuiseuxSeries.zero(None if num.exact else bound)
    (_, lead), *rest = den.items()
    remainder = dict(num.items())
    out = []
    exact = num.exact and den.exact
    while remainder:
        e = min(remainder)
        shift = e - q
        if shift >= bound:
            exact = False
            break
        c = remainder.pop(e) / lead
        out.append((shift, c))
        for ed, cd in rest:
            key = shift + ed
            val = remainder.get(key, F(0)) - c * cd
            if val == 0:
                remainder.pop(key, None)
            else:
                remainder[key] = val
    return S(out, None if exact else bound)


def _ref_sqrt(s, cap=None):
    if s.vanishes_so_far():
        if s.exact:
            return PuiseuxSeries.zero()
        raise IndeterminateOrder("vanishes up to truncation")
    q = s.order()
    c = s.leading_coefficient()
    if c < 0:
        raise NegativeLeadingSqrt("negative leading term")
    root = F(math.isqrt(c.numerator), math.isqrt(c.denominator))
    if root * root != c:
        raise PathError("leading coefficient is not a square")
    items = s.items()
    if len(items) == 1 and s.exact:
        return S([(q / 2, root)])
    cap = DEFAULT_TRUNCATION if cap is None else F(cap)
    bound = cap if s.exact else min(s.trunc - q / 2, cap)
    # s = c t^q (1 + u); the binomial series of (1 + u)^(1/2)
    u = S([(e - q, cc / c) for e, cc in items if e != q],
          None if s.exact else s.trunc - q)
    inner_bound = bound - q / 2
    acc = power = PuiseuxSeries.constant(1)
    coeff = F(1)
    step = u.order_lower_bound()
    i = 0
    while step * (i + 1) < inner_bound:
        i += 1
        coeff *= (F(1, 2) - (i - 1)) / i
        power = _ref_mul(power, u)
        trunc = inner_bound if power.trunc is None else min(power.trunc, inner_bound)
        power = S(power.items(), trunc)
        acc = _ref_add(acc, _ref_mul(PuiseuxSeries.constant(coeff), power))
    return S([(e + q / 2, root * cc) for e, cc in acc.items()], bound)


# -- series normalization and structure ------------------------------------


def test_series_normalization():
    s = PuiseuxSeries(2, {2: F(3), 4: F(0)}, None)
    assert s.ram == 1 and s.coeffs == {1: F(3)}
    t = PuiseuxSeries(1, {5: F(3)}, 4)
    assert t.vanishes_so_far() and t.trunc == F(4)
    assert PuiseuxSeries(3, {}, None).ram == 1


def test_series_from_terms_mixed_ramification():
    s = S([(F(1, 2), 1), (F(1, 3), 2)])
    assert s.ram == 6
    assert s.items() == ((F(1, 3), F(2)), (F(1, 2), F(1)))


def test_series_order_sentinels():
    assert S([(2, 3), (3, -1)]).order() == 2
    assert PuiseuxSeries.zero().order() == math.inf
    assert PuiseuxSeries.zero(8).order() is INDETERMINATE
    assert PuiseuxSeries.zero(8).order_lower_bound() == 8


def test_series_coefficient_and_knows():
    s = S([(2, 2), (3, 6)], 5)
    assert s.coefficient(2) == 2 and s.coefficient(4) == 0
    assert s.coefficient(F(5, 2)) == 0
    assert not s.knows(5)
    with pytest.raises(IndeterminateOrder):
        s.coefficient(6)


def test_series_addition_trims_to_truncation():
    exact = S([(0, 1), (1, 1), (6, 9)])
    bounded = PuiseuxSeries.zero(2)
    out = exact + bounded
    assert out.trunc == 2 and out.items() == ((F(0), F(1)), (F(1), F(1)))


def test_series_product_truncation():
    a = S([(1, 1)], 2)
    out = a * a
    assert out.items() == ((F(2), F(1)),) and out.trunc == 3
    assert (a * PuiseuxSeries.zero()).is_zero()


def test_series_pow_and_compose():
    s = S([(1, 2), (2, -1)])
    assert (s ** 3).coefficient(3) == 8
    assert (s ** 0) == PuiseuxSeries.constant(1)
    assert (PuiseuxSeries.zero(4) ** 0) == PuiseuxSeries.constant(1)
    scaled = S([(2, 2), (3, 6)], 4).compose_power(3)
    assert scaled.items() == ((F(6), F(2)), (F(9), F(6))) and scaled.trunc == 12


def test_series_text():
    assert S([(2, 2), (3, 6)], 32).to_text() == "2*t^2 + 6*t^3 + O(t^32)"
    assert S([(F(1, 2), 1)]).to_text() == "t^(1/2)"
    assert PuiseuxSeries.zero().to_text() == "0"
    assert PuiseuxSeries.zero(4).to_text() == "O(t^4)"
    assert S([(0, -1), (1, F(1, 2))]).to_text() == "-1 + 1/2*t"


# -- division and square root ----------------------------------------------


def test_division_terminating_is_exact():
    num = S([(1, 1), (2, 1)])
    den = S([(0, 1), (1, 1)])
    out = series_div(num, den)
    assert out.exact and out.items() == ((F(1), F(1)),)
    ratio = series_div(S([(8, 576)]), S([(8, 577)]))
    assert ratio.exact and ratio == PuiseuxSeries.constant(F(576, 577))


def test_division_geometric():
    out = series_div(PuiseuxSeries.constant(1), S([(0, 1), (1, -1)]), 6)
    assert out.items() == tuple((F(n), F(1)) for n in range(6))
    assert out.trunc == 6


def test_division_truncated_numerator():
    out = series_div(S([(1, 1)], 5), S([(0, 1), (1, -1)]), 32)
    assert out.trunc == 5
    assert out.items() == tuple((F(n), F(1)) for n in range(1, 5))


def test_division_errors():
    with pytest.raises(ZeroDivisionError):
        series_div(PuiseuxSeries.constant(1), PuiseuxSeries.zero())
    with pytest.raises(IndeterminateDenominator):
        series_div(PuiseuxSeries.constant(1), PuiseuxSeries.zero(4))


def test_division_zero_numerator():
    assert series_div(PuiseuxSeries.zero(), S([(0, 3)])).is_zero()
    nearly = series_div(PuiseuxSeries.zero(6), S([(2, 3)]))
    assert nearly.vanishes_so_far() and nearly.trunc == 4


def test_sqrt_reference_series():
    out = series_sqrt(S([(0, 1), (1, 1)]), 6)
    assert out.items() == (
        (F(0), F(1)), (F(1), F(1, 2)), (F(2), F(-1, 8)),
        (F(3), F(1, 16)), (F(4), F(-5, 128)), (F(5), F(7, 256)),
    )
    out2 = series_sqrt(S([(2, 9), (3, 4)]), 7)
    assert out2.items() == (
        (F(1), F(3)), (F(2), F(2, 3)), (F(3), F(-2, 27)),
        (F(4), F(4, 243)), (F(5), F(-10, 2187)), (F(6), F(28, 19683)),
    )


def test_sqrt_monomials_and_ramification():
    assert series_sqrt(S([(4, 9)])) == S([(2, 3)])
    half = series_sqrt(S([(3, 1)]))
    assert half.exact and half.items() == ((F(3, 2), F(1)),)


def test_sqrt_errors():
    with pytest.raises(NegativeLeadingSqrt):
        series_sqrt(S([(2, -1)]))
    with pytest.raises(PathError):
        series_sqrt(S([(0, 2)]))
    with pytest.raises(IndeterminateOrder):
        series_sqrt(PuiseuxSeries.zero(4))
    assert series_sqrt(PuiseuxSeries.zero()).is_zero()


@st.composite
def _series(draw):
    """Series over ram 1, 2, 3 or 6 with exponents down to -6/ram, a square
    leading coefficient half the time, exact or truncated at a fraction."""
    ram = draw(st.sampled_from([1, 2, 3, 6]))
    lo = draw(st.integers(-6, 4))
    coeffs = draw(st.dictionaries(
        st.integers(lo, lo + 12),
        st.fractions(min_value=-5, max_value=5, max_denominator=4), max_size=5))
    if coeffs and draw(st.booleans()):
        root = F(draw(st.integers(1, 4)), draw(st.integers(1, 3)))
        coeffs[min(coeffs)] = root * root
    trunc = draw(st.none() | st.builds(F, st.integers(-6, 30),
                                       st.sampled_from([1, 2, 3, 5])))
    return PuiseuxSeries(ram, coeffs, trunc)


def _outcome(fn, *args):
    try:
        out = fn(*args)
    except (PathError, ZeroDivisionError) as exc:
        return type(exc)
    return out.items(), out.trunc


@settings(max_examples=150, deadline=None)
@given(a=_series(), b=_series(),
       cap=st.builds(F, st.integers(1, 12), st.sampled_from([1, 2, 3])))
def test_integer_route_matches_fraction_reference(a, b, cap):
    one = PuiseuxSeries.constant(1)
    cases = [
        (operator.add, _ref_add, (a, b)),
        (operator.mul, _ref_mul, (a, b)),
        (lambda x: x ** 3, lambda x: _ref_mul(_ref_mul(one, x), _ref_mul(x, x)), (a,)),
        (series_div, _ref_div, (a, b, cap)),
        (series_div, _ref_div, (b, a, cap)),
        (series_sqrt, _ref_sqrt, (a, cap)),
    ]
    for engine, reference, args in cases:
        assert _outcome(engine, *args) == _outcome(reference, *args)


@st.composite
def _operand(draw, exact):
    """Series over ram 1 to 4 (so that products lift their operands) with
    exponents down to -4, coefficients over coprime denominators, and the
    zero series now and then; exact, or truncated at a fraction."""
    ram = draw(st.integers(1, 4))
    coeffs = draw(st.just({}) | st.dictionaries(
        st.integers(-4, 10),
        st.builds(F, st.integers(-9, 9), st.sampled_from([1, 2, 3, 5, 7, 11])),
        max_size=6))
    trunc = None if exact else draw(
        st.builds(F, st.integers(-4, 16), st.sampled_from([1, 2, 3])))
    return PuiseuxSeries(ram, coeffs, trunc)


@settings(max_examples=200, deadline=None)
@given(exact=_operand(True), a=_operand(False), b=_operand(False))
def test_product_matches_fraction_convolution(exact, a, b):
    # the engine convolves integer numerators over one denominator per
    # operand; _ref_mul forms every pair product as a Fraction
    for x, y in ((exact, a), (a, exact), (a, b), (exact, exact)):
        assert x * y == _ref_mul(x, y)


def _convolution_mul(a, b):
    """The product by the general loop of ``PuiseuxSeries.__mul__``, which
    took one-term operands too: integer numerators over one denominator
    per operand, every pair below the cut."""
    ta = math.inf if a.trunc is None else a.trunc
    tb = math.inf if b.trunc is None else b.trunc
    bound = min(a.order_lower_bound() + tb, b.order_lower_bound() + ta, ta + tb)
    trunc = None if bound == math.inf else bound
    ram, ca, cb = a._lift(b)
    cut = math.inf if trunc is None else _cut(trunc, ram)
    ea, eb = sorted(ca), sorted(cb)
    ia, da = _over_common([ca[n] for n in ea])
    ib, db = _over_common([cb[n] for n in eb])
    out = {}
    for na, x in zip(ea, ia):
        for nb, y in zip(eb, ib):
            if na + nb < cut:
                out[na + nb] = out.get(na + nb, 0) + x * y
    return PuiseuxSeries(ram, {n: F(v, da * db) for n, v in out.items()}, trunc)


@st.composite
def _monomial(draw):
    """c*t^(n/ram) for ram 1 to 3 and n down to -5, exact or truncated
    above or below its own exponent."""
    ram, n = draw(st.integers(1, 3)), draw(st.integers(-5, 6))
    c = F(draw(st.integers(-9, 9).filter(bool)), draw(st.sampled_from([1, 2, 7])))
    trunc = draw(st.none() | st.builds(F, st.integers(-6, 12), st.sampled_from([1, 2, 3])))
    return PuiseuxSeries(ram, {n: c}, trunc)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(m=_monomial(), exact=_operand(True), a=_operand(False))
def test_monomial_products_match_the_general_loop(m, exact, a):
    empty = (PuiseuxSeries.zero(), PuiseuxSeries.zero(F(3, 2)))
    for x in (exact, a, m) + empty:
        for got, want in ((m * x, _convolution_mul(m, x)), (x * m, _convolution_mul(x, m))):
            assert (got.items(), got.trunc, got.exact) == (want.items(), want.trunc, want.exact)
            assert got == _ref_mul(m, x)


@pytest.mark.parametrize("base, one", [
    (parse_polynomial("x - 2y/3 + 1/5", ("x", "y")), Polynomial.const(1, ("x", "y"))),
    (S([(F(1, 2), F(2, 3)), (1, -1), (F(4, 3), F(1, 7))]), PuiseuxSeries.constant(1)),
    (S([(-1, 3), (F(1, 4), F(-1, 2))], F(7, 2)), PuiseuxSeries.constant(1)),
    (PuiseuxSeries.zero(3), PuiseuxSeries.constant(1)),
])
def test_power_equals_repeated_product(base, one):
    for n in range(8):
        assert base ** n == reduce(operator.mul, [base] * n, one)


def test_division_cancelling_common_factor_is_exact():
    out = series_div(S([(2, 1), (3, 1)]), S([(1, 1), (2, 1)]))
    assert out.exact and out == S([(1, 1)])


def test_division_by_negative_fractional_order():
    den = S([(F(-1, 3), 1), (0, 1)])
    out = series_div(PuiseuxSeries.constant(1), den, 2)
    assert out.trunc == 2
    assert out.items() == tuple((F(j + 1, 3), F((-1) ** j)) for j in range(5))
    assert _agree(out * den, PuiseuxSeries.constant(1).truncated(2))


def _same_as_reference_division(num, den, cap):
    got, ref = series_div(num, den, cap), _ref_div(num, den, cap)
    assert (got.items(), got.trunc) == (ref.items(), ref.trunc)
    return got


def test_division_on_integers_with_a_non_unit_leading_coefficient():
    # the integer remainder is scaled by a power of the lead 3/7's numerator
    den = S([(F(1, 2), F(3, 7)), (1, F(-2, 5)), (F(5, 2), 4)])
    num = S([(F(1, 2), F(1, 3)), (F(3, 2), F(-5, 2)), (3, 7)], F(15, 2))
    out = _same_as_reference_division(num, den, 10)
    assert out.ram == 2 and out.trunc == 7 and not out.exact
    assert out.leading_coefficient() == F(7, 9)


def test_division_of_the_separator_on_the_factorial_path():
    alpha = FormalPath.factorial_path(64)
    comps = alpha.series()
    env = {"x": comps[0], "y": comps[1]}
    num, den = (_value(f, env, alpha.default_trunc) for f in appendix_separator(12).args)
    out = _same_as_reference_division(num, den, alpha.default_trunc)
    assert out.order() == 2 and len(out.coeffs) == 40


def test_fractional_truncation_cut_over_ramification_two():
    s = PuiseuxSeries(2, {0: 1, 1: 1, 2: 1, 3: 1}, F(4, 3))
    assert s.items() == ((F(0), F(1)), (F(1, 2), F(1)), (F(1), F(1)))
    square = S([(0, 1), (F(1, 2), 1)], F(4, 3)) * S([(0, 1), (F(1, 2), 1)])
    assert square.trunc == F(4, 3)
    assert square.items() == ((F(0), F(1)), (F(1, 2), F(2)), (F(1), F(1)))


def test_sqrt_of_truncated_odd_order():
    out = series_sqrt(S([(3, 1), (4, 1)], 6))
    assert out.trunc == F(9, 2)
    assert out.items() == ((F(3, 2), F(1)), (F(5, 2), F(1, 2)), (F(7, 2), F(-1, 8)))


def test_abs():
    assert series_abs(S([(3, -2), (5, 1)])) == S([(3, 2), (5, -1)])
    assert series_abs(S([(1, 5)])) == S([(1, 5)])
    z = PuiseuxSeries.zero(3)
    assert series_abs(z) == z


def test_order_additivity():
    rng = random.Random(11)
    for _ in range(60):
        a = S([(rng.randint(0, 5), rng.randint(1, 9)) for _ in range(3)],
              rng.choice([None, 9]))
        b = S([(rng.randint(0, 5), rng.randint(1, 9)) for _ in range(3)],
              rng.choice([None, 9]))
        oa, ob = a.order(), b.order()
        prod = (a * b).order()
        if isinstance(prod, F):
            assert prod == oa + ob


# -- formal paths ----------------------------------------------------------


def test_path_basics():
    alpha = path("t, 2t^2+6t^3")
    assert alpha.dimension == 2
    assert [part.tag for part in alpha.parts] == ["polynomial", "polynomial"]
    assert [s.coefficient(0) for s in alpha.series()] == [0, 0]
    assert alpha.series()[1] == S([(2, 2), (3, 6)])


def test_factorial_component_expansion():
    alpha = FormalPath.factorial_path(10)
    s = alpha.series()[1]
    assert s.trunc == 10
    assert s.items() == tuple((F(n), F(math.factorial(n))) for n in range(2, 10))


def test_reparametrize():
    alpha = FormalPath.factorial_path()
    rep = alpha.reparametrize(3)
    assert FormalPath(rep.parts, 20).series()[1].items() == (
        (F(6), F(2)), (F(9), F(6)), (F(12), F(24)), (F(15), F(120)), (F(18), F(720)),
    )
    assert FormalPath(rep.parts, 20).series()[0] == S([(3, 1)])
    assert alpha.reparametrize(1) is alpha


def test_component_validation():
    with pytest.raises(PathError):
        PathComponent("polynomial", (S([(-1, 1)]),))
    with pytest.raises(PathError):
        PathComponent("ratio", (S([(0, 1)]), S([(1, 1)])))
    with pytest.raises(PathError):
        PathComponent("mystery")
    with pytest.raises(PathError):
        PathComponent("polynomial", (S([(F(1, 2), 1)]),))


def test_path_text_round_trip():
    text = "\n".join([
        "path m=4 T=16",
        "poly: t^2 + t",
        "factorial",
        "ratio: (t)/(-t + 1)",
        "coeffs: 1:1 3:-2/3 @e=2",
    ]) + "\n"
    p = parse_path(text)
    assert serialize_path(p) == text
    assert p.series()[2].items() == tuple((F(n), F(1)) for n in range(1, 16))
    assert p.series()[3] == S([(F(1, 2), 1), (F(3, 2), F(-2, 3))], 16)


def test_parse_path_reads_zero_times_a_name_as_zero():
    zero = parse_path("path m=2 T=8\npoly: 0*x\nratio: (0 y + 1)/(1 + t)").series()
    assert zero[0].is_zero() and zero[0].exact
    assert zero[1] == parse_path("path m=1 T=8\nratio: 1/(1 + t)").series()[0]
    assert parse_polynomial("0*x", ("t",)) == Polynomial.const(0, ("t",))


def test_parse_path_errors():
    with pytest.raises(PathError):
        parse_path("poly: t")
    with pytest.raises(PathError):
        parse_path("path m=2 T=8\npoly: t")
    with pytest.raises(PathError):
        parse_path("path m=1 T=8\nspline: t")
    with pytest.raises(PathError):
        parse_path("path m=1 T=8\nratio: t + 1")
    with pytest.raises(PathError, match="coeffs item"):
        parse_path("path m=1 T=8\ncoeffs: 0 0 1")
    with pytest.raises(PathError, match="coeffs item"):
        parse_path("path m=1 T=8\ncoeffs: 2:1/0 @e=1")
    with pytest.raises(PathError, match="coeffs item"):
        parse_path("path m=1 T=8\ncoeffs: 2:1 @e=x")
    for header in ("path m=1 T=8 foo=bar", "path m=1 T=8 junk", "path m=1 m=1 T=8",
                   "path m=1 T=8 T=4", "path m=1 T=1/0"):
        with pytest.raises(PathError, match="path header"):
            parse_path(header + "\npoly: t")
    for T in ("0", "-2", "-1/2"):
        for body in ("poly: t", "factorial", "coeffs: 1:1 @e=2"):
            with pytest.raises(PathError, match=f"truncation {T} is not positive"):
                parse_path(f"path m=1 T={T}\n{body}")
    with pytest.raises(PathError, match="not positive"):
        FormalPath.factorial_path(0)
    for coeffs in ("1:1 1:5 @e=1", "1:1 @e=2 @e=3"):
        with pytest.raises(PathError, match="repeated coeffs item"):
            parse_path("path m=1 T=8\ncoeffs: " + coeffs)


def test_reparametrized_factorial_serializes_as_coefficients():
    rep = FormalPath.factorial_path(8).reparametrize(2)
    text = serialize_path(rep)
    assert "factorial" not in text
    assert parse_path(text).series()[1] == rep.series()[1]


# -- expression parsing ----------------------------------------------------


def test_parse_function_folds_polynomials():
    f = parse_function("(y - 2x^2)^2 / ((y - 2x^2)^2 + x^4)")
    assert f.op == "/" and all(isinstance(a, Polynomial) for a in f.args)
    assert f.args[0].total_degree() == 4


def test_parse_function_constant_division_stays_polynomial():
    f = parse_function("3/4 x - 1/2")
    assert isinstance(f, Polynomial)
    assert f == parse_polynomial("3/4 x - 1/2")


def test_parse_function_calls():
    f = parse_function("abs(x - y) + sqrt(x^2)")
    assert f.variables() == {"x", "y"}
    x = parse_polynomial("x")
    assert parse_function("2abs(x)") == \
        SAFunction("*", (Polynomial.const(2), SAFunction("abs", (x,))))
    h = parse_function("1/(1 + 1/(1 + x))")
    assert h.op == "/" and h.args[1].op == "+" and h.args[1].args[1].op == "/"
    q = SAFunction("/", (x, 1 + x))
    assert parse_function("(x/(1+x))^2") == SAFunction("*", (q, q))
    assert parse_function("(x/(1+x))^3") == \
        SAFunction("*", (SAFunction("*", (q, q)), q))


def test_parse_function_negates_and_zero_powers_nodes():
    a = SAFunction("abs", (parse_polynomial("x"),))
    neg = parse_function("-abs(x)")
    assert neg == SAFunction("-", (Polynomial.const(0), a))
    assert eval_on_path(neg, path("t, 0")) == S([(1, -1)])
    one = parse_function("abs(x)^0")
    assert isinstance(one, Polynomial) and one == 1
    assert eval_on_path(parse_function("y + abs(x)^0"), path("t, t^2")) == \
        S([(0, 1), (2, 1)])
    with pytest.raises(PathError, match="non-negative integer"):
        a ** -1


def test_polynomial_arithmetic_leaves_other_operands_to_them():
    p = parse_polynomial("x + 1")
    node = SAFunction("sqrt", (p,))
    for method in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__"):
        assert getattr(p, method)(node) is NotImplemented
    assert p + node == SAFunction("+", (p, node))
    assert p - node == SAFunction("-", (p, node))
    assert p * node == SAFunction("*", (p, node))
    with pytest.raises(TypeError):
        p + "x"


def test_node_operators_take_rational_operands():
    # rationals become constant Polynomials, so the node evaluates like the
    # parsed text
    a = parse_function("abs(x)")
    doubled, shifted = 2 * a, a + F(1, 2)
    assert doubled == parse_function("2*abs(x)")
    assert shifted == parse_function("abs(x) + 1/2")
    assert a - 1 == parse_function("abs(x) - 1")
    assert 1 - a == parse_function("1 - abs(x)")
    alpha = FormalPath.from_polynomials("t, t")
    assert eval_on_path(doubled, alpha) == S([(1, 2)])
    assert eval_on_path(shifted, alpha) == S([(0, F(1, 2)), (1, 1)])


def test_parse_function_errors():
    with pytest.raises(ExprError, match="division by the constant zero"):
        parse_function("x/0")
    with pytest.raises(ExprError, match="division only by a nonzero constant"):
        parse_polynomial("x/(1 + y)")
    with pytest.raises(ExprError) as err:
        parse_function("abs x")
    assert "parenthesized" in str(err.value)
    with pytest.raises(ExprError):
        parse_function("x +")
    with pytest.raises(ExprError):
        parse_function("x ^ y")


# -- evaluation along paths ------------------------------------------------


# The per-term loops that Polynomial.evaluate replaced, kept as references:
# the old Polynomial.substitute and the old evaluation of a polynomial at
# series, which expression nodes now run on their Polynomial operands.
def _ref_substitute(p, assignment):
    remaining = tuple(v for v in p.variables if v not in assignment)
    out = Polynomial.const(0, remaining)
    for e, c in p.terms.items():
        term = Polynomial.const(c, remaining)
        for name, k in zip(p.variables, e):
            if not k:
                continue
            if name in assignment:
                val = assignment[name]
                if isinstance(val, (int, F)):
                    val = Polynomial.const(val, remaining)
                term = term * val ** k
            else:
                term = term * Polynomial.var(name, remaining) ** k
        out = out + term
    return out


def _ref_series_evaluate(poly, env):
    total = PuiseuxSeries.zero()
    for exps, c in poly.terms.items():
        term = PuiseuxSeries.constant(c)
        for name, e in zip(poly.variables, exps):
            if e:
                term = term * env[name] ** e
        total = total + term
    return total


_SMALL_Q = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def _eval_poly(draw):
    """A polynomial in one to three of x, y, z, partial degree at most 3."""
    names = draw(st.lists(st.sampled_from("xyz"), min_size=1, max_size=3, unique=True))
    exps = st.tuples(*[st.integers(0, 3)] * len(names))
    return Polynomial.make(names, draw(st.dictionaries(exps, _SMALL_Q, max_size=6)))


@st.composite
def _eval_series(draw):
    """Exact or fractionally truncated series over ram 1, 2 or 3."""
    ram = draw(st.sampled_from([1, 2, 3]))
    coeffs = draw(st.dictionaries(st.integers(-2, 6), _SMALL_Q, max_size=4))
    trunc = draw(st.none() | st.builds(F, st.integers(-2, 12), st.sampled_from([1, 2, 3])))
    return PuiseuxSeries(ram, coeffs, trunc)


_POLY_VALUE = st.builds(lambda d: Polynomial.make(("s", "t"), d),
                        st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                                        _SMALL_Q, max_size=3))


@settings(max_examples=100, deadline=None)
@given(p=_eval_poly(), data=st.data())
def test_evaluate_matches_the_per_term_loops(p, data):
    names = p.variables
    qs = {n: data.draw(_SMALL_Q) for n in names}
    ref = _ref_substitute(p, qs)
    assert p.eval_at(qs) == p.evaluate(qs) == ref.constant_value()
    assert ref.variables == ()

    sub = data.draw(st.lists(st.sampled_from(names), min_size=1, unique=True))
    polys = {n: data.draw(_POLY_VALUE | _SMALL_Q) for n in sub}
    got, ref = p.substitute(polys), _ref_substitute(p, polys)
    assert (got.variables, got.terms) == (ref.variables, ref.terms)

    env = {n: data.draw(_eval_series()) for n in names}
    ref = _ref_series_evaluate(p, env)
    got = p.evaluate(env, PuiseuxSeries.zero())
    assert (got.items(), got.trunc) == (ref.items(), ref.trunc)
    got, ref = SAFunction("abs", (p,)).evaluate(env, None), series_abs(ref)
    assert (got.items(), got.trunc) == (ref.items(), ref.trunc)


@st.composite
def _plane_path(draw):
    """Series for x and y: one an exact c*t^(n/ram) with n != 0, the other
    from _eval_series."""
    ram = draw(st.integers(1, 3))
    n = draw(st.integers(-3, 3).filter(bool))
    c = draw(_SMALL_Q.filter(bool))
    light = draw(st.sampled_from("xy"))
    dense = "y" if light == "x" else "x"
    return {light: PuiseuxSeries(ram, {n: c}), dense: draw(_eval_series())}


@settings(max_examples=150, deadline=None)
@given(terms=st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                             _SMALL_Q, max_size=8),
       env=_plane_path())
def test_grouping_by_the_dense_coordinate_matches_the_per_term_loop(terms, env):
    # with the other coordinate an exact monomial, evaluating by rows of
    # the dense one keeps every coefficient and the truncation of the term
    # loop
    p = Polynomial.make(("x", "y"), terms)
    ref = _ref_series_evaluate(p, env)
    want = (ref.items(), ref.trunc)
    for got in (p.evaluate(env, PuiseuxSeries.zero()), _value(p, env, None)):
        assert (got.items(), got.trunc) == want


def test_grouping_is_refused_off_the_plane_normal_form():
    # by rows of y, x*y - x^2*y = (x - x^2)*y would read O(t^11); term by
    # term, as the reference, it reads O(t^3), and evaluation must keep that
    p = parse_polynomial("x*y - x^2*y", ("x", "y"))
    env = {"x": S([(0, 1)], 10), "y": S([(1, 1), (2, 1)], 3)}
    row = parse_polynomial("x - x^2", ("x",))
    by_row = _ref_series_evaluate(row, env) * env["y"]
    assert by_row.vanishes_so_far() and by_row.trunc == 11
    got, ref = _value(p, env, None), _ref_series_evaluate(p, env)
    assert got.vanishes_so_far() and got.trunc == 3
    assert (got.items(), got.trunc) == (ref.items(), ref.trunc)
    # an exact constant is a monomial of order 0, so x = 1 is refused too:
    # its row of y cancels to the exact zero, and the terms read O(t^3)
    env["x"] = PuiseuxSeries.constant(1)
    assert _ref_series_evaluate(row, env).is_zero()
    got, ref = _value(p, env, None), _ref_series_evaluate(p, env)
    assert (got.items(), got.trunc) == (ref.items(), ref.trunc)
    assert got.trunc == 3


def test_eval_multiplies_each_power_of_the_dense_coordinate_once(monkeypatch):
    # along (t, sum n! t^n) each of the separator's two polynomials is
    # S_0 + S_1*y + S_2*y^2 by rows of y: y^2, S_1*y and S_2*y^2 are its
    # products and two additions its sums.  Summed term by term, the same
    # evaluation forms 116 products and 136 sums
    count = {"mul": 0, "add": 0}
    mul, add = PuiseuxSeries.__mul__, PuiseuxSeries.__add__

    def counted(op, fn):
        def wrapper(self, other):
            count[op] += 1
            return fn(self, other)
        return wrapper

    monkeypatch.setattr(PuiseuxSeries, "__mul__", counted("mul", mul))
    monkeypatch.setattr(PuiseuxSeries, "__add__", counted("add", add))
    s = eval_on_path(appendix_separator(12), FormalPath.factorial_path(64))
    assert s.order() == 2
    assert count["mul"] <= 6 and count["add"] <= 4


def test_eval_polynomial_on_path():
    s = eval_on_path(parse_function("x^2"), path("t, t^3"))
    assert s.exact and s == S([(2, 1)])


@pytest.mark.parametrize("fn, comps, want", [
    ("abs(x) - y", "t, t^2", S([(1, 1), (2, -1)])),
    ("sqrt(x^2 + y^2) - x", "t, 0", PuiseuxSeries.zero()),
])
def test_eval_difference_and_square_root(fn, comps, want):
    s = eval_on_path(parse_function(fn), path(comps))
    assert s.exact and s == want


def test_eval_division_by_exact_zero_is_unbounded():
    with pytest.raises(UnboundedAlongPath):
        eval_on_path(parse_function("1/y"), path("t, 0"))


def test_eval_variable_slots():
    alpha = path("t, t^2, t^3")
    assert eval_on_path(parse_function("x1 + x2 + x3"), alpha) == \
        eval_on_path(parse_function("x + y + z"), alpha)
    with pytest.raises(PathError):
        eval_on_path(parse_function("x3"), path("t, t"))
    with pytest.raises(PathError):
        eval_on_path(parse_function("t"), path("t, t"))
    with pytest.raises(PathError):
        eval_on_path(parse_function("u + 1"), path("t, t"))


def test_eval_separator_exact_value():
    mu = path("t, 2t^2+6t^3")
    s = eval_on_path(appendix_separator(4), mu)
    assert s.exact and s == PuiseuxSeries.constant(F(576, 577))


def test_eval_separator_on_factorial_has_order_two():
    alpha = FormalPath.factorial_path()
    for k in (2, 5, 12):
        s = eval_on_path(appendix_separator(k), alpha)
        assert s.order() == 2


def test_eval_forms_each_power_from_the_one_below(monkeypatch):
    # the quotient has degree 24 in x, so a row of powers costs 23 products;
    # a binary power per exponent would form 340 products in all
    calls = 0
    mul = PuiseuxSeries.__mul__

    def counted(self, other):
        nonlocal calls
        calls += 1
        return mul(self, other)

    monkeypatch.setattr(PuiseuxSeries, "__mul__", counted)
    s = eval_on_path(appendix_separator(12), FormalPath.factorial_path(64))
    assert s.order() == 2
    assert calls <= 140


def test_eval_retry_doubles_truncation_once():
    alpha = FormalPath.factorial_path(F(3, 2))
    s = eval_on_path(parse_function("1/y"), alpha)
    assert s.order() == -2
    stuck = parse_path("path m=2 T=4\npoly: t\ncoeffs: @e=1")
    with pytest.raises(IndeterminateDenominator):
        eval_on_path(parse_function("1/y"), stuck)


def test_eval_homomorphism_laws():
    rng = random.Random(5)
    names = ("x", "y")

    def rand_poly():
        terms = {}
        for _ in range(rng.randint(1, 3)):
            e = (rng.randint(0, 2), rng.randint(0, 2))
            terms[e] = F(rng.randint(-4, 4))
        return Polynomial.make(names, terms)

    def rand_tree(depth):
        if depth == 0 or rng.random() < 0.4:
            return rand_poly()
        op = rng.choice(["add", "mul", "abs"])
        if op == "abs":
            return SAFunction("abs", (rand_tree(depth - 1),))
        a, b = rand_tree(depth - 1), rand_tree(depth - 1)
        return a + b if op == "add" else a * b

    paths = [
        path("t, t^2"),
        path("t, 1 - t"),
        FormalPath.factorial_path(12),
        parse_path("path m=2 T=10\npoly: t\nratio: (t)/(1 - t)"),
    ]
    for trial in range(200):
        f, g = rand_tree(2), rand_tree(2)
        alpha = paths[trial % len(paths)]
        lhs = eval_on_path(SAFunction("*", (f, g)), alpha)
        rhs = eval_on_path(f, alpha) * eval_on_path(g, alpha)
        assert _agree(lhs, rhs)
        lhs = eval_on_path(f + g, alpha)
        rhs = eval_on_path(f, alpha) + eval_on_path(g, alpha)
        assert _agree(lhs, rhs)


def test_constant_term_examples():
    assert constant_term(parse_function("x"), path("t, t")) == 0
    assert constant_term(parse_function("1/(1 + x^2)"), path("t, 0")) == 1
    assert constant_term(appendix_separator(4), path("t, 2t^2+6t^3")) == F(576, 577)


def test_constant_term_unbounded():
    with pytest.raises(UnboundedAlongPath):
        constant_term(parse_function("1/x"), path("t, t"))


def test_constant_term_beyond_the_truncation():
    # y/x^5 along (t, O(t^4)) is known only below t^-1
    stuck = parse_path("path m=2 T=4\npoly: t\ncoeffs: 5:1")
    with pytest.raises(IndeterminateOrder,
                       match="^constant term not determined at truncation -1$"):
        constant_term(parse_function("y/x^5"), stuck)


def test_bounded_quotients_have_nonnegative_order():
    targets = [path("t, 0"), path("t, t"), path("t, 2t^2"),
               FormalPath.factorial_path()]
    for k in (2, 3, 6):
        for alpha in targets:
            s = eval_on_path(appendix_separator(k), alpha)
            assert s.order_lower_bound() >= 0


# -- ideal membership ------------------------------------------------------


def test_membership_exact_cases():
    v = ideal_membership(parse_function("y - x^2"), path("t, t^2"), "p_alpha")
    assert v.status == EXACTLY_IN_IDEAL
    v = ideal_membership(parse_function("x"), path("t, t^3"), "m_star")
    assert v.status == EXACTLY_IN_IDEAL
    graph = path("t, 2t^2 + 6t^3 + 24t^4")
    v = ideal_membership(appendix_separator(4), graph, "p_alpha")
    assert v.status == EXACTLY_IN_IDEAL


def test_membership_witnesses():
    v = ideal_membership(appendix_separator(4), path("t, 2t^2+6t^3"), "m_star")
    assert v.status == NOT_IN_IDEAL
    assert v.witness_order == 0 and v.witness_coefficient == F(576, 577)
    w = ideal_membership(parse_function("y"), FormalPath.factorial_path(), "p_alpha")
    assert w.status == NOT_IN_IDEAL
    assert w.witness_order == 2 and w.witness_coefficient == 2


def test_membership_up_to_truncation():
    alpha = FormalPath.factorial_path()
    for k in range(2, 13):
        v = ideal_membership(appendix_separator(k), alpha, "m_star")
        assert v.status == IN_IDEAL_UP_TO_T and v.truncation is not None
    tracked = parse_path("path m=2 T=4\npoly: t\ncoeffs: 2:2 3:6 @e=1")
    v = ideal_membership(parse_function("y - 2x^2 - 6x^3"), tracked, "p_alpha")
    assert v.status == IN_IDEAL_UP_TO_T and v.truncation == 4
    with pytest.raises(PathError):
        ideal_membership(parse_function("x"), alpha, "q_alpha")


# -- positivity bounds and carrier data ------------------------------------


def test_leading_term_reader():
    assert S([(F(3, 2), -2), (2, 1)], 4).leading("lead") == (F(3, 2), -2)
    assert PuiseuxSeries.zero().leading("lead") == (math.inf, 0)
    with pytest.raises(IndeterminateOrder,
                       match="^lead not determined at truncation 5$"):
        PuiseuxSeries.zero(5).leading("lead")


def test_positivity_bound_values():
    assert positivity_bound([parse_polynomial("x")], path("t, 0")) == 2
    assert positivity_bound(parse_polynomial_list("x, y"), path("t, t^3")) == 4
    assert positivity_bound([parse_polynomial("1 + x^2")], path("t, t")) == 1
    ramified = FormalPath((PathComponent("coeffs", (S([(F(1, 2), 1)], 8),)),), 8)
    assert positivity_bound([parse_polynomial("x")], ramified) == 2


def test_positivity_bound_errors():
    with pytest.raises(NotPositiveOnPath):
        positivity_bound([parse_polynomial("y")], path("t, 0"))
    with pytest.raises(NotPositiveOnPath):
        positivity_bound([parse_polynomial("-x")], path("t, t"))
    dark = parse_path("path m=2 T=4\npoly: t\ncoeffs: @e=1")
    with pytest.raises(IndeterminateOrder):
        positivity_bound([parse_polynomial("y")], dark)


def test_positivity_certificate_random_perturbations():
    rng = random.Random(23)
    polys = parse_polynomial_list("x, y, x + y")
    alpha = path("t, t^3")
    k = positivity_bound(polys, alpha)
    shift = Polynomial.from_univariate("t", [F(0)] * k + [F(1)])
    base = [parse_polynomial("t"), parse_polynomial("t^3")]
    for _ in range(40):
        beta = [Polynomial.from_univariate("t", [F(rng.randint(-5, 5)) for _ in range(4)])
                for _ in range(2)]
        gamma = [b + shift * d for b, d in zip(base, beta)]
        for p in polys:
            subs = {n: gamma[0] if n == "x" else gamma[1] for n in p.variables}
            moved = PuiseuxSeries.from_polynomial(p.substitute(subs))
            assert moved.leading_coefficient() > 0


def test_carrier_exact_truncation():
    data = compact_carrier(path("t, t^2"), parse_polynomial_list("x, y"))
    assert data.k == 3
    assert [p.to_text() for p in data.mu] == ["t", "t^2"]
    assert data.s0 == (0, 0)
    assert data.samples_checked == 33


def test_carrier_with_tail_and_equation():
    data = compact_carrier(path("t, t + t^5"), parse_polynomial_list("x, y"))
    assert data.k == 2 and data.s0 == (0, 0)
    assert [p.to_text() for p in data.mu] == ["t", "t"]
    held = compact_carrier(path("t, t^2"), parse_polynomial_list("x, y"),
                           g=parse_polynomial("y - x^2"))
    assert held.k == 3
    with pytest.raises(PathError):
        compact_carrier(path("t, t^2"), [parse_polynomial("x")],
                        g=parse_polynomial("y - x"))
    with pytest.raises(NotPositiveOnPath):
        compact_carrier(path("t, 0"), [parse_polynomial("y")])


def test_carrier_nonzero_center():
    data = compact_carrier(path("t, t + 2t^3"), parse_polynomial_list("x, y"))
    assert data.k == 2 and data.s0 == (0, 2)
    assert [p.to_text() for p in data.mu] == ["t", "t"]


# -- tube tests ------------------------------------------------------------


def test_neighborhood_gamma_truncations():
    alpha = FormalPath.factorial_path()
    for ell, tail in ((2, "6*t^3 + 2*t^2"), (3, "24*t^4 + 6*t^3 + 2*t^2"),
                      (4, "120*t^5 + 24*t^4 + 6*t^3 + 2*t^2")):
        nb = neighborhood_element(alpha, ell, 2)
        assert nb.gamma[0].to_text() == "t"
        assert nb.gamma[1].to_text() == tail


def test_neighborhood_membership_of_the_path_itself():
    alpha = FormalPath.factorial_path()
    for ell in (2, 3, 4):
        nb = neighborhood_element(alpha, ell, 3)
        member, lead, window = nb.certificate(alpha)
        assert member and lead == 1 and window == F(1, 9)


def test_neighborhood_rejects_zero_path():
    nb = neighborhood_element(FormalPath.factorial_path(), 2, 3)
    member, lead, _ = nb.certificate(path("t, 0"))
    assert not member and lead == -4


def test_neighborhood_accepts_close_perturbations():
    alpha = FormalPath.factorial_path()
    for ell in (2, 3, 4):
        nb = neighborhood_element(alpha, ell, 2)
        for c in ("1", "-1", "5", "-7"):
            gamma_text = nb.gamma[1].to_text().replace("*", "")
            mu = path(f"t, {gamma_text} + {c} t^{ell + 2}")
            assert nb.contains(mu)


def test_tube_verdicts_need_known_terms():
    stuck = parse_path("path m=2 T=4\npoly: t\ncoeffs: 5:1")
    with pytest.raises(IndeterminateOrder,
                       match="^component 2 not determined below t\\^5$"):
        neighborhood_element(stuck, 3, 2)
    # along (t, O(t^2)) the inner test x^6 - (y - x^2)^2 is O(t^4)
    nb = neighborhood_element(path("t, t^2"), 2, 1)
    dark = parse_path("path m=2 T=2\npoly: t\ncoeffs: @e=1")
    with pytest.raises(IndeterminateOrder,
                       match="^tube test sign not determined at truncation 4$"):
        nb.certificate(dark)


def test_neighborhood_normalization_required():
    with pytest.raises(NormalizationRequired):
        neighborhood_element(path("t^2, t^3"), 2, 2)
    with pytest.raises(PathError):
        neighborhood_element(FormalPath.factorial_path(), 0, 2)


# -- separating quotients --------------------------------------------------


def test_truncated_factorial_polynomials():
    assert truncated_factorial(2).to_text() == "2*x^2"
    assert truncated_factorial(4).to_text() == "24*x^4 + 6*x^3 + 2*x^2"
    with pytest.raises(PathError):
        appendix_separator(1)


def test_separation_table():
    table = [
        ("t, 2t^2", 3, F(36, 37)),
        ("t, 2t^2+6t^3", 4, F(576, 577)),
        ("t, 2t^2+6t^3+24t^4", 5, F(14400, 14401)),
        ("t, 2t^2+6t^3+24t^4+120t^5", 6, F(518400, 518401)),
        ("t, 2t^2+6t^3+24t^4+120t^5+720t^6", 7, F(25401600, 25401601)),
    ]
    for text, k, value in table:
        result = separate_from_algebraic(path(text))
        assert (result.k, result.value) == (k, value)


def test_separation_reparametrized_first_component():
    result = separate_from_algebraic(path("t^2, 2t^4 + 6t^6"))
    assert result.k == 4 and result.value == F(576, 577)


def test_separation_out_of_range_returns_none():
    deep = "t, " + " + ".join(f"{math.factorial(n)}t^{n}" for n in range(2, 13))
    assert separate_from_algebraic(path(deep)) is None


def test_separation_needs_k_max_at_least_two():
    # no quotient exists below k = 2, so no search runs to blame the truncation
    for k_max in (1, 0, -3):
        with pytest.raises(PathError, match=f"k_max={k_max} leaves nothing"):
            separate_from_algebraic(path("t, 2t^2"), k_max=k_max)


def test_separation_requires_power_first_component():
    with pytest.raises(NormalizationRequired):
        separate_from_algebraic(path("t + t^2, t"))
    with pytest.raises(NormalizationRequired):
        separate_from_algebraic(path("2t, t"))


def test_slot_names():
    assert slot_names(2) == ("x", "y")
    assert slot_names(3) == ("x", "y", "z")
    assert slot_names(4) == ("x1", "x2", "x3", "x4")
