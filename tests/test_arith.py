"""Tests for the exact arithmetic layer.

Reference values were computed two independent ways before being frozen
here: through the Sylvester-determinant route of this package and through
sympy (resultant / discriminant / real_roots).  The randomized properties
re-run the sympy comparison on every test run.
"""

import math
import random
import sys
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
import sympy as sp
from hypothesis import example, given, settings, strategies as st

from specta.arith import (
    AlgebraicNumber,
    ArithError,
    Polynomial,
    ZeroPolynomialError,
    coprime_squarefree_basis,
    discriminant,
    isolate_real_roots,
    poly_gcd,
    real_compare,
    refine_root_free,
    resultant,
    sign_at,
    simplest_between,
    sturm_chain,
    sturm_count,
    uisolate,
    ulevel_signs,
    usign_at,
)
from specta import _numfield, arith, cad2d
from specta._expr import parse_formula
from specta.paths import PuiseuxSeries
import reference
from reference import coeffs_in, squarefree_part, two_gcd_uisolate
from test_numfield import cubic_field, sqrt2_field
from specta.arith import (
    _ext_gcd,
    _sign,
    _udivmod,
    _ueval,
    _ugcd,
    _umul,
    _usign,
    _usquarefree,
)

X = Polynomial.var("x")
XY = Polynomial.var("x", ("x", "y"))
YY = Polynomial.var("y", ("x", "y"))
SX, SY = sp.symbols("x y")


def to_sympy(p):
    out = 0
    for e, c in p.terms.items():
        term = sp.Rational(c.numerator, c.denominator)
        for name, k in zip(p.variables, e):
            term *= {"x": SX, "y": SY}[name] ** k
        out += term
    return sp.expand(out)


# ---------------------------------------------------------------------------
# root isolation


def test_isolate_cubic_integer_roots():
    p = (X - 1) * (X - 2) * (X - 3)
    roots = isolate_real_roots(p)
    assert [r.is_rational for r in roots] == [True, True, True]
    assert [r.value for r in roots] == [1, 2, 3]


def test_isolate_sqrt2_is_certified_irrational():
    roots = isolate_real_roots(X * X - 2)
    assert len(roots) == 2
    neg, pos = roots
    assert not pos.is_rational and not neg.is_rational
    assert pos.lo < Fraction(3, 2) and pos.lo > 1
    assert real_compare(pos, Fraction(141, 100)) == 1
    assert real_compare(pos, Fraction(142, 100)) == -1


def test_sign_at_sqrt2():
    sqrt2 = isolate_real_roots(X * X - 2)[1]
    assert sign_at(X ** 3 - 3, sqrt2) == -1
    assert sign_at(X ** 3 - 2, sqrt2) == 1
    assert sign_at(X ** 2 - 2, sqrt2) == 0


def test_rational_roots_with_awkward_denominators():
    p = (2 * X - 1) * (3 * X - 1)
    roots = isolate_real_roots(p)
    assert [r.value for r in roots] == [Fraction(1, 3), Fraction(1, 2)]

    # cube root of 1/7 must not be mistaken for a rational
    p = 7 * X ** 3 - 1
    (r,) = isolate_real_roots(p)
    assert not r.is_rational

    p = Polynomial.from_univariate("x", [Fraction(-1, 3), Fraction(1)])
    (r,) = isolate_real_roots(p)
    assert r.is_rational and r.value == Fraction(1, 3)

    # large denominator mixed with an irrational pair
    p = (1000003 * X - 1) * (X * X - 2)
    roots = isolate_real_roots(p)
    rationals = [r for r in roots if r.is_rational]
    assert len(rationals) == 1 and rationals[0].value == Fraction(1, 1000003)
    assert sum(1 for r in roots if not r.is_rational) == 2


def test_multiplicities_collapse_to_single_roots():
    p = (X - 1) ** 3 * (X + 2) ** 2
    roots = isolate_real_roots(p)
    assert [r.value for r in roots] == [-2, 1]


def test_zero_polynomial_rejected():
    zero = Polynomial.const(0, ("x",))
    with pytest.raises(ZeroPolynomialError):
        isolate_real_roots(zero)
    with pytest.raises(ZeroPolynomialError):
        sign_at(zero, Fraction(1))
    with pytest.raises(ZeroPolynomialError):
        resultant(zero, X, "x")
    with pytest.raises(ZeroPolynomialError):
        discriminant(zero, "x")


def test_no_real_roots():
    assert isolate_real_roots(X * X + 1) == []


def test_sturm_count_half_open_interval():
    F = Fraction
    chain = sturm_chain(((X - 1) * (X - 2) * (X - 3)).univariate_coeffs())
    assert sturm_count(chain, F(1), F(3)) == 2  # root at a left out, at b counted
    assert sturm_count(chain, F(0), F(1)) == 1  # root at b
    assert sturm_count(chain, F(3, 2), F(5, 2)) == 1  # root inside
    assert sturm_count(chain, F(2), F(2)) == 0
    assert sturm_count(chain, F(3), F(4)) == 0
    assert sturm_count(chain, None, None) == 3
    assert sturm_count(chain, None, F(1)) == 1
    assert sturm_count(chain, F(3), None) == 0
    # the chain is of the square-free part: a double root counts once
    chain = sturm_chain(((X - 1) ** 2 * (X + 1)).univariate_coeffs())
    assert sturm_count(chain, None, None) == 2
    assert sturm_count(chain, F(-1), F(1)) == 1
    # odd degree, negative lead: the infinities read off the lead's sign
    chain = sturm_chain((2 - X ** 3).univariate_coeffs())
    assert sturm_count(chain, None, F(1)) == 0
    assert sturm_count(chain, F(1), None) == 1


def test_refine_root_free_moves_an_endpoint_off_a_root():
    sqrt2 = AlgebraicNumber(X * X - 2, Fraction(9, 8), Fraction(3, 2))
    chain = sturm_chain((X - Fraction(9, 8)).univariate_coeffs())
    refine_root_free(chain, sqrt2)
    assert Fraction(9, 8) < sqrt2.lo < sqrt2.hi <= Fraction(3, 2)
    assert real_compare(sqrt2, Fraction(141, 100)) == 1
    sqrt2 = AlgebraicNumber(X * X - 2, Fraction(1), Fraction(3, 2))
    chain = sturm_chain((X - Fraction(3, 2)).univariate_coeffs())
    refine_root_free(chain, sqrt2)  # the right endpoint is the root this time
    assert Fraction(1) <= sqrt2.lo < sqrt2.hi < Fraction(3, 2)
    one = AlgebraicNumber(X - 1, 1, 1)
    refine_root_free(chain, one)  # a rational root is left as it is
    assert one.is_rational and one.value == 1


def test_refine_root_free_signs_each_end_once(monkeypatch):
    # a refinement moves one end, and the end that stays keeps its signs
    calls = []
    variations = arith._variations

    def counted(chain, x, end):
        calls.append(x)
        return variations(chain, x, end)

    monkeypatch.setattr(arith, "_variations", counted)
    for q in (X * 70 - 99, X * X * 100 - 199, (X * 12 - 17) * (X * 29 - 41)):
        sqrt2 = AlgebraicNumber(X * X - 2, Fraction(1), Fraction(3, 2))
        chain = sturm_chain(q.univariate_coeffs())
        calls.clear()
        refine_root_free(chain, sqrt2)
        points = Counter(calls)
        assert len(points) > 4 and max(points.values()) == 1
        assert sturm_count(chain, sqrt2.lo, sqrt2.hi) == 0


def _reference_refine(coeffs, lo, hi, k):
    """k halvings of (lo, hi) by the loop that signs the list at lo on
    every step, as refine did before it kept that sign."""
    for _ in range(k):
        if lo == hi:
            break
        mid = (lo + hi) / 2
        v = _usign(coeffs, mid)
        if v == 0:
            lo = hi = mid
        elif _usign(coeffs, lo) * v < 0:
            hi = mid
        else:
            lo = mid
    return lo, hi


def test_refine_signs_the_lower_end_once(monkeypatch):
    calls = []
    usign = arith._usign

    def counted(cs, x):
        calls.append(x)
        return usign(cs, x)

    monkeypatch.setattr(arith, "_usign", counted)
    sqrt2 = AlgebraicNumber([Fraction(-2), 0, Fraction(1)], 1, 2)
    for _ in range(20):
        sqrt2.refine()
    # one sign per midpoint, and the sign at lo once: it never changes
    assert len(calls) <= 21
    assert (sqrt2.lo, sqrt2.hi) == _reference_refine(sqrt2.coeffs, Fraction(1), Fraction(2), 20)
    assert sqrt2.hi - sqrt2.lo == Fraction(1, 2 ** 20)


# integer factors c1*x - c0 (a rational root) and c2*x^2 - c0 (two roots,
# mostly irrational, or none)
planted_factors = st.one_of(
    st.tuples(st.integers(1, 5), st.integers(-9, 9)).map(lambda t: [-t[1], t[0]]),
    st.tuples(st.integers(1, 3), st.integers(-3, 12)).map(lambda t: [-t[1], 0, t[0]]),
)


@settings(max_examples=40, deadline=None)
@given(st.lists(planted_factors, min_size=1, max_size=4), st.integers(1, 24))
def test_refine_matches_reference_halving(factors, k):
    cs = [Fraction(1)]
    for f in factors:
        cs = _umul(cs, [Fraction(c) for c in f])
    for root in uisolate(cs):
        want = _reference_refine(root.coeffs, root.lo, root.hi, k)
        # a fresh copy signs lo itself; the root keeps the sign that
        # uisolate took while it narrowed the interval
        for r in (root.copy(), root):
            for _ in range(k):
                r.refine()
            assert (r.lo, r.hi) == want


def _planted(domain, factors):
    """The product of planted factors over Q, or over Q(alpha) with alpha
    added to each constant term, so that the roots are irrational over Q."""
    if domain == "Q":
        lists = [[Fraction(c) for c in f] for f in factors]
    else:
        field = {"sqrt2": sqrt2_field, "cubic": cubic_field}[domain]()
        a = field.generator()
        lists = [[a + f[0]] + [field.element([c]) for c in f[1:]] for f in factors]
    cs = [Fraction(1)]
    for f in lists:
        cs = _umul(cs, f)
    return cs


def _reference_approx(root, width):
    # the halving loop approx replaced: one Fraction width test per refine
    while not root.is_rational and root.hi - root.lo > width:
        root.refine()
    return (root.lo + root.hi) / 2


approx_widths = st.sampled_from([Fraction(1, 1 << 20), Fraction(1, 3), Fraction(5, 7),
                                 Fraction(1, 1000), Fraction(4), Fraction(3, 1 << 40)])


def _check_approx(cs, width):
    for root in uisolate(cs):
        ref = root.copy()
        assert root.approx(width) == _reference_approx(ref, width)
        assert (root.lo, root.hi) == (ref.lo, ref.hi)


@settings(max_examples=40, deadline=None)
@given(st.lists(planted_factors, min_size=1, max_size=4), approx_widths)
def test_approx_matches_the_halving_loop(factors, width):
    _check_approx(_planted("Q", factors), width)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["sqrt2", "cubic"]), st.lists(planted_factors, min_size=1, max_size=4),
       approx_widths)
def test_approx_matches_the_halving_loop_over_a_field(domain, factors, width):
    _check_approx(_planted(domain, factors), width)


def _check_narrow(root, ks):
    """narrow(k) leaves what k halvings of the reference loop leave."""
    for k in ks:
        got = root.copy()
        got.narrow(k)
        assert (got.lo, got.hi) == _reference_refine(root.coeffs, root.lo, root.hi, k), k


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["Q", "sqrt2", "cubic"]), st.lists(planted_factors, min_size=1, max_size=4),
       st.lists(st.integers(0, 70), min_size=1, max_size=3))
def test_narrow_matches_the_halving_reference(domain, factors, ks):
    for root in uisolate(_planted(domain, factors)):
        _check_narrow(root, ks)


def test_narrow_stops_on_a_planted_dyadic_root():
    # (2y - 1)(4y + 3)(y^2 - 2): 1/2 is a grid point of (0, 1) at level 1,
    # -3/4 one of (-1, 1/3) at level 4 (an interval that is not dyadic);
    # and over Q(sqrt2), (2y - 1)(y^2 - sqrt2) puts 1/2 at level 2 of (-1, 1)
    cs = _umul(_umul([Fraction(-1), Fraction(2)], [Fraction(3), Fraction(4)]),
               [Fraction(-2), 0, Fraction(1)])
    field = sqrt2_field()
    a = field.generator()
    over = _umul([field.element([-1]), field.element([2])], [-a, 0, field.element([1])])
    for coeffs, lo, hi, level in ((cs, 0, 1, 1), (cs, -1, Fraction(1, 3), 4), (over, -1, 1, 2)):
        root = AlgebraicNumber(coeffs, lo, hi)
        _check_narrow(root, range(8))
        root.narrow(level + 3)
        assert root.is_rational and _usign(coeffs, root.value) == 0
    # the secant over Q starts on 2^60 + 1 and goes on past 100 halvings
    big = _umul([Fraction(-1), Fraction(2 ** 60 + 1)], [Fraction(-2), 0, Fraction(1)])
    for root in uisolate(big):
        _check_narrow(root, (101, 130))


def test_narrow_beyond_float_range_halves():
    # entries past float range leave Q(alpha) without a float guess and
    # the narrowing halves; over Q the guess is exact and never a float
    field = sqrt2_field()
    a = field.generator()
    huge = 10 ** 400
    over = [c * huge for c in _umul([field.element([-1]), field.element([2])],
                                    [-a, 0, field.element([1])])]
    with pytest.raises(OverflowError):
        over[0]._guess()
    _check_narrow(AlgebraicNumber(over, 1, 2), (1, 9, 40))  # the root 2^(1/4)
    far = _umul([Fraction(-huge), Fraction(1)], [Fraction(-2), 0, Fraction(3)])
    for root in uisolate(far):
        _check_narrow(root, (5, 60))


@pytest.mark.parametrize("domain", ["Q", "sqrt2", "cubic"])
def test_isolation_signs_each_point_once(domain, monkeypatch):
    # _count_start and _bisect share one memo of the isolation chain's
    # signs per point (the field's zero tests sign chains of their own)
    calls, chains = [], []
    variations, bisect = arith._variations, arith._bisect

    def counted(chain, x, end):
        calls.append((chain, x))
        return variations(chain, x, end)

    def seen(sq, chain, *rest):
        chains.append(chain)
        return bisect(sq, chain, *rest)

    monkeypatch.setattr(arith, "_variations", counted)
    monkeypatch.setattr(arith, "_bisect", seen)
    for factors in ([[-1, 2], [3, 4], [-2, 0, 1]], [[-2, 0, 1], [-3, 0, 1], [-1, 1], [5, 3]],
                    [[0, 1], [-1, 0, 2], [-7, 5]]):
        calls.clear()
        assert uisolate(_planted(domain, factors))
        points = Counter(x for chain, x in calls if chain is chains[-1] and x is not None)
        assert len(points) > 4 and max(points.values()) == 1


# a rational factor with a multiplicity: x - c for c an integer or a
# dyadic, which bisection from an integer bound lands on as a midpoint,
# or an irreducible quadratic, with two real roots or none
_q_factors = st.tuples(
    st.one_of(st.builds(lambda c: [-Fraction(c), Fraction(1)], st.integers(-4, 4)),
              st.builds(lambda k, j: [-_dyadic(k, j), Fraction(1)],
                        st.integers(-15, 15), st.integers(1, 3)),
              st.sampled_from([[Fraction(c) for c in q]
                               for q in ([-2, 0, 1], [-3, 0, 1], [-1, -1, 1], [1, 0, 1],
                                         [1, 1, 1], [-5, 0, 4])])),
    st.integers(1, 3))


@settings(max_examples=60, deadline=None)
@given(st.lists(_q_factors, min_size=1, max_size=4),
       st.sampled_from([Fraction(1), Fraction(-2), Fraction(3, 5)]))
@example([([Fraction(0), Fraction(1)], 2), ([Fraction(-2), Fraction(0), Fraction(1)], 1),
          ([Fraction(-1, 2), Fraction(1)], 3)], Fraction(1))
@example([([Fraction(-3, 8), Fraction(1)], 1), ([Fraction(1), Fraction(0), Fraction(1)], 2)],
         Fraction(-2))
def test_one_chain_isolation_matches_the_two_gcd_route_over_q(factors, lead):
    # bisection on the chain of the list itself, square-free or not, and
    # on the chain of its square-free part meets the same counts at every
    # point that is not a root, so the intervals are equal, not only nested
    p = [lead]
    for f, k in factors:
        for _ in range(k):
            p = _umul(p, f)
    mine, ref = uisolate(p), two_gcd_uisolate(p)
    assert len(mine) == len(ref)
    for u, v in zip(mine, ref):
        assert (u.lo, u.hi, u.is_rational, u.coeffs) == (v.lo, v.hi, v.is_rational, v.coeffs)
    # the chain's last entry is the gcd of the list and its derivative
    assert arith._umonic(mine.chain[-1]) == _ugcd(p, arith._uderiv(p))


def _count_sequences(monkeypatch):
    """A Counter of the remainder sequences (``_iprs``) and square-free
    parts (``_usquarefree``) that arith runs from here on."""
    runs = Counter()
    for name in ("_iprs", "_usquarefree"):
        def counted(*args, _real=getattr(arith, name), _name=name):
            runs[_name] += 1
            return _real(*args)
        monkeypatch.setattr(arith, name, counted)
    return runs


@pytest.mark.parametrize("coeffs", [
    [-2, 0, 1], [0, 1], [6, -11, 6, -1],
    _umul(_umul([-1, 1], [-1, 1]), [-2, 0, 1]),
    _umul(_umul([1, 2], [1, 2]), _umul([1, 2], [Fraction(-1, 2), 0, 0, 1])),
])
def test_rational_isolation_runs_one_sequence(coeffs, monkeypatch):
    # the Sturm chain of the list is its one remainder sequence: a
    # square-free part by a gcd of its own ran the sequence twice
    runs = _count_sequences(monkeypatch)
    assert uisolate([Fraction(c) for c in coeffs])
    assert runs == {"_iprs": 1}


def test_rational_lines_of_a_decomposition_run_one_sequence(monkeypatch):
    # every rational line of a decomposition isolates on one remainder
    # sequence, the lines where the circle x^2 + y^2 = 1 is cut at x = +-1
    # into a squared slice among them
    runs, lines = _count_sequences(monkeypatch), []
    yisolate = _numfield.yisolate

    def lifted(p):
        runs.clear()
        roots = yisolate(p)
        if arith._rational(p) and len(arith._trim(p)) > 1:
            lines.append((dict(runs), arith._udeg(roots.chain[-1])))
        return roots

    monkeypatch.setattr(_numfield, "yisolate", lifted)
    cad2d.decompose(parse_formula("x^2+y^2 <= 4 AND (x^2+y^2-1)*(y-x) >= 0"))
    assert lines and all(got == {"_iprs": 1} for got, _ in lines)
    assert any(g > 0 for _, g in lines)


def test_equality_across_defining_polynomials():
    # sqrt(2) described by x^2-2 and by (x^2-2)(x^2-3) must compare equal
    small = isolate_real_roots(X * X - 2)[1]
    big = isolate_real_roots((X * X - 2) * (X * X - 3))
    assert len(big) == 4
    assert real_compare(big[2], small) == 0
    assert real_compare(big[3], small) == 1
    assert real_compare(big[1], small) == -1  # big[1] is -sqrt2
    assert real_compare(big[1], Fraction(0)) == -1


@settings(max_examples=40, deadline=None)
@given(st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=6),
                min_size=1, max_size=5, unique=True))
def test_planted_rational_roots_recovered(rationals):
    p = Polynomial.const(1, ("x",))
    for r in rationals:
        p = p * (X - Polynomial.const(r, ("x",)))
    p = p * (X * X + 1)  # a factor with no real roots
    roots = isolate_real_roots(p)
    assert len(roots) == len(rationals)
    assert all(r.is_rational for r in roots)
    assert sorted(r.value for r in roots) == sorted(Fraction(r) for r in rationals)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=-5, max_value=5), min_size=3, max_size=7))
def test_isolation_matches_sympy(coeffs):
    p = Polynomial.from_univariate("x", [Fraction(c) for c in coeffs])
    if p.is_zero() or p.is_constant():
        return
    roots = isolate_real_roots(p)
    sp_poly = sp.Poly(sum(sp.Integer(c) * SX ** i for i, c in enumerate(coeffs)), SX)
    expected = sorted(set(sp.real_roots(sp_poly)), key=lambda r: r.evalf(30))
    assert len(roots) == len(expected)
    for mine, ref in zip(roots, expected):
        if mine.is_rational:
            assert ref.is_rational
            assert sp.Rational(mine.value.numerator, mine.value.denominator) == ref
        else:
            assert not ref.is_rational
            rv = ref.evalf(40)
            assert sp.Rational(mine.lo.numerator, mine.lo.denominator) < rv
            assert rv < sp.Rational(mine.hi.numerator, mine.hi.denominator)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 30))
def test_sign_multiplicative_at_algebraic_point(seed):
    import random

    rng = random.Random(seed)
    sqrt2 = isolate_real_roots(X * X - 2)[1]
    p = Polynomial.from_univariate("x", [Fraction(rng.randint(-4, 4)) for _ in range(4)])
    q = Polynomial.from_univariate("x", [Fraction(rng.randint(-4, 4)) for _ in range(4)])
    if p.is_zero() or q.is_zero():
        return
    assert sign_at(p * q, sqrt2) == sign_at(p, sqrt2) * sign_at(q, sqrt2)


# ---------------------------------------------------------------------------
# resultants


# Reference route: the Sylvester determinant, which fixes the sign
# convention of ``resultant``.


def sylvester_matrix(p: Polynomial, q: Polynomial, var):
    """Sylvester matrix with the rows built from p on top.

    Entries are Polynomials in the remaining variables.  This matrix fixes
    the sign convention: ``resultant(p, q, var)`` equals its determinant.
    """
    pa, qa = p._aligned(q)
    pc = _ptrim(coeffs_in(pa, var))
    qc = _ptrim(coeffs_in(qa, var))
    m = len(pc) - 1
    n = len(qc) - 1
    rest = pc[0].variables
    zero = Polynomial.const(0, rest)
    rows = []
    prow = list(reversed(pc))
    qrow = list(reversed(qc))
    for i in range(n):
        rows.append([zero] * i + prow + [zero] * (n - 1 - i))
    for i in range(m):
        rows.append([zero] * i + qrow + [zero] * (m - 1 - i))
    return rows


def _ptrim(cs):
    cs = list(cs)
    while cs and cs[-1].is_zero():
        cs.pop()
    return cs


def _exact_div(a: Polynomial, b: Polynomial) -> Polynomial:
    """a / b for Polynomials in x alone (or constants), b dividing a."""
    q, r = _udivmod(a.univariate_coeffs(), b.univariate_coeffs())
    assert not r
    return Polynomial.from_univariate("x", q).embed(a.variables)


def _bareiss_det(rows):
    """Fraction-free determinant over a polynomial ring (Bareiss elimination)."""
    n = len(rows)
    if n == 0:
        return Polynomial.const(1)
    a = [list(r) for r in rows]
    vars0 = a[0][0].variables
    sign = 1
    prev = Polynomial.const(1, vars0)
    for k in range(n - 1):
        if a[k][k].is_zero():
            for i in range(k + 1, n):
                if not a[i][k].is_zero():
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return Polynomial.const(0, vars0)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = a[i][j] * a[k][k] - a[i][k] * a[k][j]
                a[i][j] = _exact_div(num, prev)
            a[i][k] = Polynomial.const(0, vars0)
        prev = a[k][k]
    det = a[n - 1][n - 1]
    return det if sign == 1 else -det


def sylvester_resultant(p: Polynomial, q: Polynomial, var) -> Polynomial:
    """Resultant as the determinant of ``sylvester_matrix`` (reference route)."""
    if p.is_zero() or q.is_zero():
        raise ZeroPolynomialError("resultant of zero polynomial")
    return _bareiss_det(sylvester_matrix(p, q, var))



def test_resultant_linear_pair_sign_convention():
    # rows of the first argument on top: res_y(y - x, y + x) = det [[1,-x],[1,x]]
    assert resultant(YY - XY, YY + XY, "y") == 2 * XY


def test_resultant_circle_and_axis():
    circ = XY ** 2 + YY ** 2 - 1
    assert resultant(circ, YY, "y") == XY ** 2 - 1
    assert resultant(circ, 2 * YY, "y") == 4 * XY ** 2 - 4


def test_discriminant_of_circle():
    circ = XY ** 2 + YY ** 2 - 1
    d = discriminant(circ, "y")
    assert d == -4 * XY ** 2 + 4
    assert squarefree_part(d) == XY ** 2 - 1 or squarefree_part(d) == -(XY ** 2 - 1)


def test_resultant_requires_the_variable():
    with pytest.raises(ArithError):
        resultant(XY + 1, YY, "y")
    # the algebra runs on rows in two variables: a third one is an error
    p = Polynomial.var("z", ("x", "y", "z")) * YY ** 2 + XY
    for call in (lambda: resultant(p, YY, "y"), lambda: discriminant(p, "y"),
                 lambda: poly_gcd(p, YY), lambda: squarefree_part(p)):
        with pytest.raises(ArithError, match="other than x and y"):
            call()


def test_resultant_zero_iff_common_factor():
    common = YY - XY
    p = common * (YY + 1)
    q = common * (XY * YY + 2)
    assert resultant(p, q, "y").is_zero()
    assert not resultant(YY - XY, YY + XY + 1, "y").is_zero()


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 30))
def test_resultant_routes_agree_with_sympy(seed):
    import random

    rng = random.Random(seed)

    def rand_poly():
        terms = {}
        for _ in range(rng.randint(2, 5)):
            e = (rng.randint(0, 2), rng.randint(1, 3))
            terms[e] = terms.get(e, 0) + Fraction(rng.randint(-5, 5))
        terms[(rng.randint(0, 2), 0)] = Fraction(rng.randint(-5, 5))
        return Polynomial.make(("x", "y"), terms)

    p, q = rand_poly(), rand_poly()
    if p.is_zero() or q.is_zero():
        return
    if p.degree_in("y") < 1 or q.degree_in("y") < 1:
        return
    mine = resultant(p, q, "y")
    via_matrix = sylvester_resultant(p, q, "y")
    # sympy's resultant drops the sign when both arguments share content
    # (e.g. a common factor of x), so the third-party reference is its
    # determinant of the Sylvester matrix, which is the documented contract
    rows = sylvester_matrix(p, q, "y")
    ref = sp.expand(sp.Matrix([[to_sympy(c) for c in row] for row in rows]).det())
    assert to_sympy(mine) == ref
    assert to_sympy(via_matrix) == ref
    sp_res = sp.expand(sp.resultant(to_sympy(p), to_sympy(q), SY))
    assert to_sympy(mine) in (sp_res, sp.expand(-sp_res))
    assert to_sympy(discriminant(p, "y")) == sp.expand(sp.discriminant(to_sympy(p), SY))

    # sparse pairs of y-degree up to 6: their sequences skip degrees, so the
    # scale h of a step is g^d / h^(d-1) with d >= 2
    def sparse_poly():
        dy = rng.randint(2, 6)
        terms = {(rng.randint(0, 2), rng.randint(0, dy - 1)): Fraction(rng.randint(-5, 5))
                 for _ in range(rng.randint(1, 3))}
        terms[(rng.randint(0, 2), dy)] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
        return Polynomial.make(("x", "y"), terms)

    p, q = sparse_poly(), sparse_poly()
    assert resultant(p, q, "y") == sylvester_resultant(p, q, "y")
    assert resultant(q, p, "y") == sylvester_resultant(q, p, "y")
    assert to_sympy(discriminant(p, "y")) == sp.expand(sp.discriminant(to_sympy(p), SY))


def _planted_gap_pair(b, s, t, c):
    # q = b s + c and p = q t + b: the sequence of (p, q) drops from
    # deg q to deg b >= 2, then ends on a constant remainder proportional to c
    q = b * s + c
    return q * t + b, q


@pytest.mark.parametrize("b, s, t, c", [
    (XY * YY ** 2 + 1, YY ** 2 + XY, YY + XY, XY + 2),
    (2 * YY ** 2 - XY, XY * YY ** 2 + YY, YY - 1, Polynomial.const(3, ("x", "y"))),
    (XY * YY ** 3 + YY - XY, (XY + 1) * YY ** 3 + 1, XY * YY + 1, XY),
    ((XY - 1) * YY ** 2 + XY * YY, YY ** 3 - XY, 2 * YY + XY, XY ** 2 + 1),
])
def test_resultant_after_a_degree_gap_matches_sylvester(b, s, t, c):
    p, q = _planted_gap_pair(b, s, t, c)
    steps = list(arith._subresultant_steps(arith._rows(p)[0], arith._rows(q)[0]))
    a_last, b_last, r_last, _ = steps[-1]
    assert len(r_last) == 1 and len(b_last) - 1 == b.degree_in("y") >= 2
    assert len(a_last) - len(b_last) >= 2
    assert resultant(p, q, "y") == sylvester_resultant(p, q, "y")
    assert resultant(q, p, "y") == sylvester_resultant(q, p, "y")
    assert to_sympy(discriminant(p, "y")) == sp.expand(sp.discriminant(to_sympy(p), SY))


# ---------------------------------------------------------------------------
# the integer rows of the two-variable algebra


@settings(max_examples=80, deadline=None)
@given(st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                       st.fractions(min_value=-9, max_value=9, max_denominator=12),
                       min_size=1, max_size=6),
       st.sampled_from(["xy", "x", "y", ""]),
       st.fractions(min_value=-3, max_value=3, max_denominator=16))
def test_rows_round_trip_and_slice_a_positive_multiple(terms, live, a):
    # the draws collapse to x-only, y-only and constant polynomials as well
    p = Polynomial.make(("x", "y"), {(i * ("x" in live), j * ("y" in live)): c
                                     for (i, j), c in terms.items()})
    if p.is_zero():
        return
    rows, den = arith._rows(p)
    assert den > 0 and all(type(c) is int for row in rows for c in row)
    assert arith._poly(rows) == den * p
    cut = cad2d._slice(rows, a)
    ref = [c.eval_at({"x": a}) for c in coeffs_in(p, "y")]
    assert all(type(c) is int for c in cut) and len(cut) == len(ref)
    assert [bool(c) for c in cut] == [bool(c) for c in ref]
    ratios = {Fraction(c) / r for c, r in zip(cut, ref) if r}
    assert len(ratios) <= 1 and all(k > 0 for k in ratios)


# ---------------------------------------------------------------------------
# gcd / square-free machinery


def test_bivariate_squarefree_and_basis():
    circ = XY ** 2 + YY ** 2 - 1
    f = circ ** 2 * (YY - XY)
    sf = squarefree_part(f)
    expect = circ * (XY - YY)
    assert sf == expect or sf == -expect

    basis = coprime_squarefree_basis([circ * (YY - XY), (YY - XY) * (YY + XY)])
    assert len(basis) == 3
    keys = {b.to_text() for b in basis}
    assert keys == {"x^2 + y^2 - 1", "x - y", "x + y"}

    # factors free of y are kept: the line x = 0, as a factor or on its own
    assert squarefree_part(XY * (YY - 1)) == XY * YY - XY
    assert squarefree_part(XY ** 2 * YY) == XY * YY
    assert [b.to_text() for b in coprime_squarefree_basis([XY * (YY - 1)])] == ["x*y - x"]
    basis = coprime_squarefree_basis([XY * (YY - 1), YY - 1])
    assert {b.to_text() for b in basis} == {"x", "y - 1"}


def test_gcd_of_planted_common_factor():
    a = (XY + YY) * (XY - 2)
    b = (XY + YY) * (YY + 3)
    g = poly_gcd(a, b)
    assert g == XY + YY


def _same_up_to_rational(mine, ref):
    ratio = sp.cancel(to_sympy(mine) / ref)
    return ratio.is_Rational and ratio != 0


def _planted_factor(rng):
    # pure-x one time in three, so x-contents (the line x = 0 of x*(y - 1),
    # say) must survive
    ydeg = 0 if rng.random() < 1 / 3 else rng.randint(1, 2)
    terms = {(rng.randint(0, 2), rng.randint(0, ydeg)): rng.randint(-3, 3)
             for _ in range(rng.randint(1, 3))}
    terms[(rng.randint(0, 1), ydeg)] = rng.choice((-2, -1, 1, 2))
    return Polynomial.make(("x", "y"), terms)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 30))
def test_gcd_and_squarefree_agree_with_sympy(seed):
    # planted common factor g
    rng = random.Random(seed)
    g, a, b = _planted_factor(rng), _planted_factor(rng), _planted_factor(rng)
    if g.is_zero() or a.is_zero() or b.is_zero():
        return
    assert _same_up_to_rational(poly_gcd(g * a, g * b),
                                sp.gcd(to_sympy(g * a), to_sympy(g * b)))
    f = g * g * a
    if not f.is_constant():
        assert _same_up_to_rational(squarefree_part(f), sp.sqf_part(to_sympy(f)))


def _basis_and_tested_pairs(polys):
    """coprime_squarefree_basis(polys) and the pairs its loop takes gcds of."""
    pairs = []
    gcd = arith._bgcd

    def spy(p, q):
        if sys._getframe(1).f_code is arith._bbasis.__code__:
            pairs.append(frozenset((arith._bkey(p), arith._bkey(q))))
        return gcd(p, q)

    with mock.patch.object(arith, "_bgcd", spy):
        return coprime_squarefree_basis(polys), pairs


def _basis_first_projection(xparts, yparts):
    """Reference route to the projection: the basis first, then a loop over
    its leading coefficients, discriminants and pairwise resultants."""
    basis, pairs = _basis_and_tested_pairs(yparts)
    assert len(pairs) == len(set(pairs))
    univ = list(xparts)
    for i, b in enumerate(basis):
        univ.append(coeffs_in(b, "y")[-1])
        if b.degree_in("y") >= 2:
            univ.append(discriminant(b, "y"))
        univ += [resultant(b, c, "y") for c in basis[i + 1:]]
    return basis, coprime_squarefree_basis(univ)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 30))
def test_planted_projection_matches_basis_first_route(seed):
    # families sharing g, one with g squared, plus duplicates and cross
    # products; factors are pure-x one time in three
    rng = random.Random(seed)
    g, a, b, c = (_planted_factor(rng) for _ in range(4))
    family = [g * a, g * b, g * g * c] + rng.sample([g * a, a * b, c, g], rng.randint(0, 2))
    rng.shuffle(family)
    xparts, yparts = cad2d._prepare([arith._rows(p)[0] for p in family])
    basis, proj = cad2d._project(xparts, yparts)
    basis, proj = [arith._poly(b) for b in basis], [arith._poly([q], ("x",)) for q in proj]
    yparts = [arith._poly(p) for p in yparts]
    ref_basis, ref_proj = _basis_first_projection([arith._poly([q], ("x",)) for q in xparts], yparts)
    assert [p.to_text() for p in basis] == [p.to_text() for p in ref_basis]
    assert [p.to_text() for p in proj] == [p.to_text() for p in ref_proj]
    for i, p in enumerate(basis):
        assert _same_up_to_rational(p, sp.sqf_part(to_sympy(p)))
        for q in basis[i + 1:]:
            assert sp.Poly(sp.gcd(to_sympy(p), to_sympy(q)), SX, SY).is_ground
    prod_y = sp.Mul(*(to_sympy(p) for p in yparts))
    prod_basis = Polynomial.const(1, ("x", "y"))
    for p in basis:
        prod_basis = prod_basis * p
    assert _same_up_to_rational(prod_basis, sp.sqf_part(prod_y))


def _ref_simplest_between(a, b):
    """The recursion on Fractions that simplest_between ran before its
    integer walk."""
    if a == b:
        return a
    fa = Fraction(math.floor(a))
    if fa + 1 <= b:
        lo_int, hi_int = math.ceil(a), math.floor(b)
        if lo_int <= 0 <= hi_int:
            return Fraction(0)
        return Fraction(lo_int if lo_int > 0 else hi_int)
    if fa == a:
        return a
    return fa + 1 / _ref_simplest_between(1 / (b - fa), 1 / (a - fa))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.fractions(min_value=-50, max_value=50, max_denominator=10 ** 6),
       st.fractions(min_value=0, max_value=3, max_denominator=2 ** 20))
def test_simplest_between_matches_the_fraction_recursion(a, width):
    assert simplest_between(a, a + width) == _ref_simplest_between(a, a + width)


def test_simplest_between_picks_minimal_denominator():
    assert simplest_between(Fraction(1, 5), Fraction(2, 5)) == Fraction(1, 3)
    assert simplest_between(Fraction(41, 20), Fraction(211, 100)) == Fraction(21, 10)
    assert simplest_between(Fraction(-2, 5), Fraction(-1, 5)) == Fraction(-1, 3)
    assert simplest_between(Fraction(-1, 3), Fraction(1, 4)) == 0
    assert simplest_between(Fraction(3), Fraction(3)) == 3


# ---------------------------------------------------------------------------
# rational lists are signed on bare integers, with the signs of Fraction
# arithmetic


def _fraction_horner(cs, x):
    out = Fraction(0)
    for c in reversed(cs):
        out = out * x + c
    return out


@settings(max_examples=60, deadline=None)
@given(st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=12), min_size=1,
                max_size=7),
       st.fractions(min_value=-5, max_value=5, max_denominator=9))
def test_integer_sign_matches_fraction_horner(cs, x):
    v = _fraction_horner(cs, x)
    assert _usign(cs, x) == (v > 0) - (v < 0)


def test_level_signs_take_one_gcd_and_no_chain(monkeypatch):
    roots = uisolate([Fraction(c) for c in (0, -3, 0, 1)])  # -sqrt3, 0, sqrt3
    fences = [Fraction(c) for c in (-2, -1, 1, 2)]
    defining = roots[0].coeffs
    calls = {"gcd": 0, "chain": 0}
    gcd_, chain_ = arith._ugcd, arith.sturm_chain

    def counted_gcd(a, b, **kw):
        calls["gcd"] += b == defining
        return gcd_(a, b, **kw)

    def counted_chain(cs):
        calls["chain"] += 1
        return chain_(cs)

    monkeypatch.setattr(arith, "_ugcd", counted_gcd)
    monkeypatch.setattr(arith, "sturm_chain", counted_chain)
    assert [r.is_rational for r in roots] == [False, True, False]
    # (list, levels, gcds): a section between fences of one sign takes the
    # line's one gcd, a sign change across a section takes none
    cases = [((-3, 0, 1), [1, 0, -1, -1, -1, 0, 1], 0),
             ((9, 0, -6, 0, 1), [1, 0, 1, 1, 1, 0, 1], 1),
             ((1, 0, 1), [1] * 7, 1),
             ((0, 1), [-1, -1, -1, 0, 1, 1, 1], 1),
             ((-5,), [-1] * 7, 0)]
    for q, want, gcds in cases:
        q = [Fraction(c) for c in q]
        before = dict(calls)
        assert ulevel_signs(q, roots, fences) == want
        assert calls["gcd"] - before["gcd"] == gcds
        assert calls["chain"] == before["chain"]
        assert want[1::2] == [usign_at(q, r.copy()) for r in roots]


def test_level_signs_reject_a_root_off_the_sections():
    roots = uisolate([Fraction(c) for c in (6, 0, -5, 0, 1)])  # -+sqrt3, -+sqrt2
    fences = [Fraction(-2), Fraction(-8, 5), Fraction(0), Fraction(8, 5), Fraction(2)]
    # 3/2 lies between sqrt2 and sqrt3: the fences around sqrt2 differ in
    # sign, and the gcd, which -sqrt3 needs, says sqrt2 is no root
    q = _umul([Fraction(c) for c in (9, 0, -6, 0, 1)], [Fraction(-3, 2), Fraction(1)])
    with pytest.raises(ArithError):
        ulevel_signs(q, roots, fences)
    # an exact section is signed directly: 1/2 between fences -1 and 1
    with pytest.raises(ArithError):
        ulevel_signs([Fraction(-1, 2), Fraction(1)],
                     uisolate([Fraction(c) for c in (0, -3, 0, 1)]),
                     [Fraction(c) for c in (-2, -1, 1, 2)])


def test_list_signs_follow_the_defining_list():
    # a gcd with sqrt2's defining list must not answer for sqrt3, whose
    # wide isolating interval (1, 2) also holds sqrt2
    sqrt2 = AlgebraicNumber([Fraction(-2), 0, Fraction(1)], 1, 2)
    sqrt3 = AlgebraicNumber([Fraction(-3), 0, Fraction(1)], 1, 2)
    q = [Fraction(-2), 0, Fraction(1)]
    assert usign_at(q, sqrt2) == 0
    assert usign_at(q, sqrt3) == 1
    assert ulevel_signs(q, [sqrt2], [Fraction(0), Fraction(2)]) == [-1, 0, 1]


# ---------------------------------------------------------------------------
# rational lists run on integer numerators; the reference routes below are
# the Fraction loops they ran on before, kept here to check them against


def _ref_trim(cs):
    cs = [Fraction(c) for c in cs]
    while cs and not cs[-1]:
        cs.pop()
    return cs


def _ref_divmod(a, b):
    """Quotient and remainder by Fraction long division."""
    a, b = _ref_trim(a), _ref_trim(b)
    inv = 1 / b[-1]
    n = len(b) - 1
    q = [Fraction(0)] * max(0, len(a) - n)
    r = a
    while len(r) > n:
        k = r[-1] * inv
        d = len(r) - 1 - n
        q[d] = k
        for i in range(n):
            r[d + i] = r[d + i] - b[i] * k
        r.pop()
        r = _ref_trim(r)
    return q, r


def _ref_gcd(a, b):
    """Monic gcd by Euclid over Q."""
    a, b = _ref_trim(a), _ref_trim(b)
    while b:
        a, b = b, _ref_divmod(a, b)[1]
    return [c / a[-1] for c in a] if a else []


def _ref_sub(a, b):
    n = max(len(a), len(b))
    a = list(a) + [Fraction(0)] * (n - len(a))
    b = list(b) + [Fraction(0)] * (n - len(b))
    return _ref_trim([x - y for x, y in zip(a, b)])


def _ref_ext_gcd(a, b):
    r0, r1 = _ref_trim(a), _ref_trim(b)
    s0, s1 = [Fraction(1)], []
    while r1:
        q, r = _ref_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _ref_sub(s0, _umul(q, s1))
    return r0, s0


def _ref_squarefree(cs):
    cs = _ref_trim(cs)
    if len(cs) <= 2:
        return cs
    g = _ref_gcd(cs, [c * i for i, c in enumerate(cs)][1:])
    if len(g) == 1:
        return cs
    q, r = _ref_divmod(cs, g)
    assert not r
    return q


def _ref_sturm(p):
    """Sturm chain with each negated remainder scaled by 1/|lead|."""
    chain = [p, [c * i for i, c in enumerate(p)][1:]]
    while True:
        rem = _ref_divmod(chain[-2], chain[-1])[1]
        if not rem:
            return chain
        k = -1 / abs(rem[-1])
        chain.append([c * k for c in rem])


def _dyadic(k, j):
    return Fraction(k, 2 ** j)


# factors of the drawn lists: a rational root on a dyadic point (k/2^j),
# c2*x^2 + c0 (an irrational pair or none), and x^m + c (degree gaps)
_factor = st.one_of(
    st.builds(lambda k, j: [-_dyadic(k, j), Fraction(1)],
              st.integers(-12, 12), st.integers(0, 3)),
    st.builds(lambda c2, c0: [Fraction(c0), 0, Fraction(c2)],
              st.integers(1, 4), st.integers(-7, 7)),
    st.builds(lambda m, c: [Fraction(c)] + [0] * (m - 1) + [Fraction(1)],
              st.integers(2, 4), st.integers(-3, 3)),
)
# a scale with a large denominator and either sign
_scale = st.builds(lambda n, d: Fraction(n, d), st.integers(-10 ** 6, 10 ** 6).filter(bool),
                   st.integers(1, 10 ** 9))


@st.composite
def _rational_lists(draw, min_factors=1):
    """A nonzero rational list: a product of factors, some repeated, times
    a scale."""
    cs = [draw(_scale)]
    for f in draw(st.lists(_factor, min_size=min_factors, max_size=3)):
        for _ in range(draw(st.integers(1, 3))):
            cs = _umul(cs, f)
    return cs


@st.composite
def _rational_pairs(draw):
    """Two rational lists that share a drawn factor half of the time."""
    a, b = draw(_rational_lists(0)), draw(_rational_lists())
    if draw(st.booleans()):
        shared = draw(_rational_lists())
        a, b = _umul(a, shared), _umul(b, shared)
    return a, b


def _positive_multiple(mine, ref):
    return (len(mine) == len(ref) and _sign(mine[-1]) == _sign(ref[-1])
            and all(m * ref[-1] == r * mine[-1] for m, r in zip(mine, ref)))


_ends = st.one_of(st.none(), st.builds(_dyadic, st.integers(-40, 40), st.integers(0, 3)))


@settings(derandomize=True, max_examples=120, deadline=None)
@given(_rational_pairs(), st.builds(_dyadic, st.integers(-40, 40), st.integers(0, 4)),
       st.lists(st.tuples(_ends, _ends), min_size=1, max_size=4))
def test_integer_routes_match_the_fraction_reference(pair, x, ends):
    a, b = pair
    assert _udivmod(a, b) == _ref_divmod(a, b)
    assert _udivmod(b, a) == _ref_divmod(b, a)
    assert _ugcd(a, b) == _ref_gcd(a, b)
    assert _ext_gcd(a, b) == _ref_ext_gcd(a, b)
    assert _ext_gcd(b, a) == _ref_ext_gcd(b, a)
    for p in (a, b):
        assert _ueval(p, x) == _fraction_horner(p, x)
        sq = _usquarefree(p)
        assert sq == _ref_squarefree(p) and sq[-1] == _ref_trim(p)[-1]
        if len(sq) < 2:
            continue
        chain, ref = sturm_chain(p), _ref_sturm(_ref_squarefree(p))
        assert chain[0] == ref[0] and len(chain) == len(ref)
        assert all(_positive_multiple(c, r) for c, r in zip(chain[1:], ref[1:]))
        for lo, hi in ends:
            if lo is not None and hi is not None and lo > hi:
                lo, hi = hi, lo
            assert sturm_count(chain, lo, hi) == sturm_count(ref, lo, hi)


def test_rational_sturm_chains_hold_primitive_integers():
    # the entries after chain[0] are integer lists with content 1, so no
    # Fraction loop runs behind the chain of a rational list
    for p in ([Fraction(-2, 3), 0, Fraction(5, 7)],
              _umul([Fraction(1, 9), Fraction(-3, 4), 0, Fraction(2)],
                    [Fraction(1), Fraction(-1, 2)]),
              [Fraction(c) for c in (6, -11, 6, -1)] + [Fraction(0)]):
        chain = sturm_chain(p)
        assert len(chain) >= 2
        for entry in chain[1:]:
            assert all(type(c) is int for c in entry)
            assert math.gcd(*entry) == 1


# ---------------------------------------------------------------------------
# Polynomials hold integer numerators over one denominator, with the terms
# and the term order of the Fraction-coefficient operations of
# reference.poly_*


_MUL_Q = st.fractions(min_value=-5, max_value=5, max_denominator=12)
_EXPONENTS = st.tuples(*[st.integers(0, 3)] * 3)


@st.composite
def _mul_operand(draw, max_terms=6):
    """A polynomial in one to three of x, y, z, in drawn order, with
    rational coefficients; it can be zero."""
    names = draw(st.lists(st.sampled_from("xyz"), min_size=1, max_size=3, unique=True))
    exps = st.tuples(*[st.integers(0, 3)] * len(names))
    return Polynomial.make(names, draw(st.dictionaries(exps, _MUL_Q, max_size=max_terms)))


def _same_terms(got, want):
    """Equal variables, terms, term order and text, and got in the normal
    form: nonzero int numerators over a positive den prime to them, den 1
    for the zero polynomial."""
    assert got.variables == want.variables
    assert tuple(got.terms.items()) == tuple(want.terms.items())
    assert all(type(c) is Fraction for c in got.terms.values())
    assert got.to_text() == want.to_text()
    assert type(got.den) is int and got.den > 0 and math.gcd(got.den, *got.nums.values()) == 1
    assert all(type(c) is int and c and len(e) == len(got.variables)
               for e, c in got.nums.items())


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_mul_operand(), _mul_operand(), _MUL_Q)
def test_integer_product_matches_the_fraction_reference(p, q, c):
    zero = Polynomial.const(0, q.variables)
    # (p + q)(p - q) cancels its cross terms; p and q may lie on different
    # variable tuples, and each may be zero
    for a, b in ((p, q), (q, p), (p + q, p - q), (p, zero), (zero, p), (p, p)):
        _same_terms(a * b, reference.poly_mul(a, b))
    _same_terms(p * c, reference.poly_mul(p, c))
    _same_terms(c * p, reference.poly_mul(p, c))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_mul_operand(), _mul_operand(), _mul_operand(max_terms=1), _MUL_Q, st.integers(0, 4),
       st.dictionaries(_EXPONENTS, _MUL_Q | st.integers(-3, 3), max_size=6))
def test_integer_polynomials_match_the_fraction_reference(p, q, m, c, n, raw):
    # sums that cancel to zero, the zero polynomial over other variables,
    # one-term operands, and coefficients over denominators that share
    # factors with the numerators (the drawn fractions over 1..12)
    zero = Polynomial.const(0, q.variables)
    for a, b in ((p, q), (q, p), (p, -p), (p + q, p - q), (p, zero), (zero, q), (m, p), (p, m),
                 (p - p, q), (m, m)):
        _same_terms(a + b, reference.poly_add(a, b))
        _same_terms(a - b, reference.poly_sub(a, b))
        _same_terms(a * b, reference.poly_mul(a, b))
    for a in (p, m, zero, p - p, p + q):
        _same_terms(-a, reference.poly_neg(a))
        _same_terms(a ** n, reference.poly_pow(a, n))
        _same_terms(a + c, reference.poly_add(a, c))
        _same_terms(c - a, reference.poly_sub(Polynomial.const(c, a.variables), a))
    _same_terms(Polynomial.make("xyz", raw), reference.poly_make("xyz", raw))
    point = {v: Fraction(2 * i - 3, i + 2) for i, v in enumerate("xyz")}
    assert p.evaluate(point) == reference.poly_evaluate(p, point)
    assert p.eval_at(point) == reference.poly_evaluate(p, point)
    series = {v: PuiseuxSeries(1 + i, {1: Fraction(1, 2 + i), 2 + i: -1}, Fraction(3))
              for i, v in enumerate("xyz")}
    assert p.evaluate(series, PuiseuxSeries.zero()) == \
        reference.poly_evaluate(p, series, PuiseuxSeries.zero())
    assignment = {p.variables[0]: q}
    _same_terms(p.substitute(assignment), reference.poly_substitute(p, assignment))
    for a in (p, m, zero, q.substitute({v: c for v in q.variables[1:]})):
        try:
            want = reference.poly_univariate_coeffs(a)
        except ArithError:
            with pytest.raises(ArithError):
                a.univariate_coeffs()
        else:
            assert a.univariate_coeffs() == want


def test_terms_view_is_read_only():
    p = Polynomial.make(("x",), {(1,): Fraction(1, 2), (0,): 3})
    assert (p.nums, p.den) == ({(1,): 1, (0,): 6}, 2)
    with pytest.raises(TypeError):
        p.terms[(2,)] = Fraction(1)
    assert p.terms is p.terms and dict(p.terms) == {(1,): Fraction(1, 2), (0,): Fraction(3)}


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_mul_operand(max_terms=1), st.integers(0, 6))
def test_one_term_power_matches_binary_powering(m, n):
    _same_terms(m ** n, arith.binary_power(m, n, Polynomial.const(1, m.variables)))


def test_roots_and_copies_share_one_defining_list():
    roots = uisolate([Fraction(c) for c in (0, -3, 0, 1)])  # -sqrt3, 0, sqrt3
    assert all(r.coeffs is roots[0].coeffs for r in roots)
    root = roots[2]
    twin = root.copy()
    assert twin.coeffs is root.coeffs and (twin.lo, twin.hi) == (root.lo, root.hi)
    width = root.hi - root.lo
    twin.refine()
    assert twin.hi - twin.lo == width / 2 and root.hi - root.lo == width
