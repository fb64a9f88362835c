"""Decomposition engine tests against hand-computed oracle values.

Cell counts, kept-cell ids and fingerprints for the golden formulas below
were derived by hand (stack-by-stack root isolation and limit tracking)
before the engine existed, then frozen here.
"""

import hashlib
import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

import by_id
import corpus
from reference import division_critical, projection_phase
from specta import _numfield, arith, cad2d, topology
from specta._expr import parse_formula, parse_polynomial
from specta.arith import (
    AlgebraicNumber,
    Polynomial,
    isolate_real_roots,
    rational_between,
    real_compare,
    sturm_chain,
    sturm_count,
)
from specta.cad2d import And, Atom, CadError, Not, Or, UnboundedInput

DISK = "x^2 + y^2 < 1"
DISK_PT = "x^2 + y^2 < 1 OR (x = 1 AND y = 0)"
FAR_PT = "x^2 + y^2 < 1 OR (x = 2 AND y = 0)"
ANNULUS = "4x^2 + 4y^2 > 1 AND x^2 + y^2 < 1"
WHISKER = "x^2 + y^2 <= 1 OR (y = 0 AND x - 1 >= 0 AND x - 2 <= 0)"
ARC = "x y - 1 = 0 AND 2x >= 1 AND x <= 2"
STRIP = "x^2 + y^2 < 1 AND 2x^2 <= 1"
SEGMENT = "x = 0 AND y >= 0 AND y <= 1"
EMPTY = "x^2 + y^2 < 0"

GOLDEN = [DISK, DISK_PT, FAR_PT, ANNULUS, WHISKER, ARC, STRIP, SEGMENT, EMPTY]


@lru_cache(maxsize=None)
def _dec(text):
    return cad2d.decompose(parse_formula(text))


def _m_cells(dec):
    return {c for c in dec.complex.cells if dec.complex.in_m(c)}


def _approx(sample):
    """A sample point's coordinates as rationals within 2^-20 of it."""
    return tuple(v if isinstance(v, Fraction) else v.approx() for v in (sample.x, sample.y))


# ---------------------------------------------------------------------------
# formulas and point membership


def test_atom_validation():
    x = Polynomial.var("x", ("x", "y"))
    with pytest.raises(CadError):
        Atom(x, "!=")
    with pytest.raises(CadError):
        Atom(x - x, "<")
    with pytest.raises(CadError):
        Atom("x", "<")


def test_parse_formula_is_exported_at_package_root():
    import specta

    dec = cad2d.decompose(specta.parse_formula("x^2 + y^2 <= 1"))
    assert dec.cell_count() == 13
    assert len(dec.complex.cells) == 5


def test_rejects_foreign_variables():
    with pytest.raises(CadError, match="only x and y"):
        cad2d.decompose(parse_formula("z > 0"))
    with pytest.raises(CadError, match="only x and y"):
        cad2d.contains_point(parse_formula("t^2 < 1"), (0, 0))


def test_contains_point_basics():
    disk = parse_formula(DISK)
    assert cad2d.contains_point(disk, (0, 0))
    assert not cad2d.contains_point(disk, (1, 0))
    parab = parse_formula("y - x^2 >= 0")
    assert cad2d.contains_point(parab, (Fraction(1, 2), Fraction(1, 4)))


def test_eval_formula_empty_connectives():
    assert cad2d.eval_formula(And(()), lambda p: 0)
    assert not cad2d.eval_formula(Or(()), lambda p: 0)


# ---------------------------------------------------------------------------
# projection


def _p(text):
    return parse_polynomial(text, variables=("x", "y"))


def test_projection_circle_gives_discriminant_roots():
    out = projection_phase([_p("x^2 + y^2 - 1")])
    assert [q.to_text() for q in out] == ["x^2 - 1"]


def test_projection_of_horizontal_line_is_empty():
    assert projection_phase([_p("y")]) == []


def test_projection_crossing_lines_gives_resultant():
    out = projection_phase([_p("y - x"), _p("y + x")])
    assert [q.to_text() for q in out] == ["x"]


def test_projection_splits_content():
    # x(y - 1): vertical line content x plus the horizontal line y = 1
    out = projection_phase([_p("x y - x")])
    assert [q.to_text() for q in out] == ["x"]


def test_projection_rejects_zero():
    with pytest.raises(CadError):
        projection_phase([Polynomial.const(0, ("x", "y"))])


# ---------------------------------------------------------------------------
# golden corpus: frozen decompositions


def test_disk_decomposition():
    dec = _dec(DISK)
    assert dec.shear is None
    assert dec.cell_count() == 13
    assert len(dec._stacks) == 5
    assert sorted(dec.complex.cells) == ["c1_1", "c2_1", "c2_2", "c2_3", "c3_1"]
    assert _m_cells(dec) == {"c2_2"}
    assert dec.complex.closure_of("c2_2") == {"c1_1", "c2_1", "c2_3", "c3_1"}
    fp = topology.spectral_fingerprint(dec.complex)
    assert (fp.data.dim, fp.data.compact, fp.data.locally_compact) == (2, False, True)
    assert (fp.data.euler, fp.data.components, fp.data.eta_count) == (1, 1, 0)
    assert [b.dimension for b in fp.data.bricks] == [2]


def test_disk_plus_boundary_point():
    dec = _dec(DISK_PT)
    assert dec.cell_count() == 19
    assert len(dec.complex.cells) == 7
    assert dec.ambient_cells["c3_1"] == (0, True)
    assert _approx(dec.samples["c3_1"]) == (1, 0)
    rho0, rho1, mlc = by_id.rho_sequence(dec.complex)
    assert rho1 == {"c3_1"}
    fp = topology.spectral_fingerprint(dec.complex)
    assert fp.data.euler == 2 and fp.data.components == 1
    assert not fp.data.locally_compact
    hand = topology.spectral_fingerprint(corpus.open_disk_plus_boundary_point())
    assert fp == hand


def test_disk_plus_far_point():
    dec = _dec(FAR_PT)
    assert dec.cell_count() == 25
    assert len(dec.complex.cells) == 8
    fp = topology.spectral_fingerprint(dec.complex)
    assert fp.data.components == 2 and fp.data.euler == 2


def test_annulus_decomposition():
    dec = _dec(ANNULUS)
    assert dec.cell_count() == 41
    assert len(dec._stacks) == 9
    assert len(_m_cells(dec)) == 8
    assert len(dec.complex.cells) == 24
    fp = topology.spectral_fingerprint(dec.complex)
    assert (fp.data.euler, fp.data.components) == (0, 1)
    assert fp.data.locally_compact and not fp.data.compact
    _, rho1, _ = topology.rho_sequence(dec.complex)
    assert rho1 == set()


def test_whisker_decomposition():
    dec = _dec(WHISKER)
    assert dec.cell_count() == 25
    kept = dec.complex
    assert len(kept.cells) == 9 and len(_m_cells(dec)) == 9
    fp = topology.spectral_fingerprint(kept)
    assert fp.data.compact and fp.data.euler == 1
    assert fp.data.eta_count == 1
    assert by_id.eta_set(kept) == {"c5_1"}
    assert _approx(dec.samples["c5_1"]) == (2, 0)
    assert [b.dimension for b in fp.data.bricks] == [2, 1]
    assert fp.data.bricks[1].eta_count == 2
    hand = topology.spectral_fingerprint(corpus.disk_with_whisker())
    assert fp == hand


def test_sheared_hyperbola_arc():
    dec = _dec(ARC)
    assert dec.shear == Fraction(1, 2)
    assert len(dec.complex.cells) == 3
    fp = topology.spectral_fingerprint(dec.complex)
    assert (fp.data.dim, fp.data.euler, fp.data.compact) == (1, 1, True)
    assert fp.data.eta_count == 2


def test_strip_with_irrational_stacks():
    dec = _dec(STRIP)
    assert dec.cell_count() == 33
    assert len(dec.complex.cells) == 9
    assert not dec._xroots[1].is_rational  # cut at x = -1/sqrt(2)
    fp = topology.spectral_fingerprint(dec.complex)
    assert (fp.data.dim, fp.data.euler, fp.data.components) == (2, -1, 1)
    assert fp.data.locally_compact
    _, rho1, _ = topology.rho_sequence(dec.complex)
    assert rho1 == set()


# formulas whose projection has irrational x-roots: their root lines are
# lifted over Q(alpha)
TWO_ELLIPSES = "x^2+2y^2<=2 OR 2x^2+y^2<=2"
LEMNISCATE_DISK = "(x^2+y^2)^2-2(x^2-y^2)<=0 AND x^2+y^2<=1"


def _exact_samples_agree(text):
    """Every exactly rational sample carries the flag contains_point gives."""
    dec = _dec(text)
    f = parse_formula(text)
    checked = 0
    for cid, sp in dec.samples.items():
        x, y = (v if isinstance(v, Fraction) else v.value if v.is_rational else None
                for v in (sp.x, sp.y))
        if x is not None and y is not None:
            px = x if dec.shear is None else x + dec.shear * y
            assert cad2d.contains_point(f, (px, y)) == dec.ambient_cells[cid][1], cid
            checked += 1
    assert checked > 0


@pytest.mark.parametrize("text, ambient, kept, euler", [
    (TWO_ELLIPSES, 69, 45, 1),
    (LEMNISCATE_DISK, 85, 21, 1),
])
def test_irrational_stack_formulas(text, ambient, kept, euler):
    dec = _dec(text)
    assert sum(1 for r in dec._xroots if not r.is_rational) == 4
    assert (dec.cell_count(), len(dec.complex.cells)) == (ambient, kept)
    fp = topology.spectral_fingerprint(dec.complex)
    assert (fp.data.euler, fp.data.components, fp.data.compact) == (euler, 1, True)
    _exact_samples_agree(text)


def test_leading_coefficient_without_real_roots():
    # the leading y-coefficient x^2 + 1 joins the projection, but it has
    # no real root: it adds no stack and needs no shear
    text = "(x^2+1)*y^2 <= 1 AND x^2 <= 1"
    dec = _dec(text)
    assert [str(q) for q in projection_phase(
        [parse_polynomial("(x^2+1)*y^2 - 1"), parse_polynomial("x^2 - 1")])] == \
        ["x^2 - 1", "x^2 + 1"]
    assert dec.shear is None
    assert (dec.cell_count(), len(dec.complex.cells)) == (25, 9)
    _exact_samples_agree(text)


SHIFTED_ANNULUS = "(x-1)^2+(y-1/2)^2 >= 1 AND (x-1)^2+(y-1/2)^2 <= 9"


@pytest.mark.parametrize("text, kept, euler", [
    # two root intervals touched at an exact rational root, and that root
    # was taken as the rational between them
    (SHIFTED_ANNULUS, 24, 0),
    ("x^4 + y^4 - 3x^2 y + y^2 <= 1/2 AND x^2 + y^2 <= 9", 5, 1),
])
def test_fence_never_lands_on_a_rational_root(text, kept, euler):
    dec = _dec(text)
    assert (dec.cell_count(), len(dec.complex.cells)) == (41, kept)
    assert topology.spectral_fingerprint(dec.complex).data.euler == euler
    _exact_samples_agree(text)


# ---------------------------------------------------------------------------
# certified adjacency


def _isolating_limit_assignment(Q, rstack, sstack, side, bound_root):
    """Reference route for cad2d._limit_assignment: isolate every real root
    of Q(x, separator), take x* between alpha and the nearest one on the
    sector's side (or the neighbouring x-root bound_root), then isolate the
    branches of Q(x*, y) and place each one against every separator."""
    K = len(sstack.sections)
    k = len(rstack.sections)
    if K == 0:
        return []
    alpha = rstack.x
    seps = cad2d._fences(rstack.sections)
    cands = []
    for e in seps:
        h = Q.substitute({"y": e})
        if not h.is_constant():
            cands.extend(r for r in isolate_real_roots(h)
                         if real_compare(r, alpha) == side)
    if bound_root is not None:
        cands.append(bound_root)
    if not cands:
        xstar = alpha.lo - 1 if side < 0 else alpha.hi + 1
    else:
        best = cands[0]
        for c in cands[1:]:
            if real_compare(c, best) * side < 0:
                best = c
        xstar = rational_between(best, alpha) if side < 0 else rational_between(alpha, best)
    croots = isolate_real_roots(Q.substitute({"x": xstar}))
    assert len(croots) == K
    ms = []
    for r in croots:
        below = 0
        for e in seps:
            c = real_compare(r, e)
            assert c != 0
            if c > 0:
                below += 1
        assert 1 <= below <= k
        assert not ms or below >= ms[-1]
        ms.append(below)
    return ms


@pytest.mark.parametrize("text", GOLDEN + [TWO_ELLIPSES, LEMNISCATE_DISK, SHIFTED_ANNULUS])
def test_limit_assignment_matches_isolating_reference(text):
    dec = _dec(text)
    xroots, stacks = dec._xroots, dec._stacks
    lines = 0
    for ri in range(len(xroots)):
        rstack = stacks[2 * ri + 1]
        for side in (-1, 1):
            sstack = stacks[2 * ri + 1 + side]
            bound = ri + side
            bound = xroots[bound] if 0 <= bound < len(xroots) else None
            got = cad2d._limit_assignment(dec._curve, rstack, sstack, side)
            assert got == _isolating_limit_assignment(
                arith._poly(dec._curve), rstack, sstack, side, bound), (ri, side)
            lines += bool(got)
    assert lines > 0 or text == EMPTY


def _closure_walk_complex(dec):
    """Reference assembly of the complex from a decomposition's stacks:
    faces inside every stack, faces from both sectors beside every root line
    with each limit box bounded by the limits mlo/mhi of the sections around
    it, then the closure of the satisfied cells walked by hand."""
    stacks = dec._stacks
    faces = []
    for st in stacks:
        K = len(st.sections)
        for t in range(K + 1):
            big = f"c{st.index}_{2 * t}"
            if t >= 1:
                faces.append((f"c{st.index}_{2 * t - 1}", big))
            if t < K:
                faces.append((f"c{st.index}_{2 * t + 1}", big))
    for ri in range(len(dec._xroots)):
        rstack = stacks[2 * ri + 1]
        k = len(rstack.sections)
        for side in (-1, 1):
            sstack = stacks[2 * ri + 1 + side]
            ms = cad2d._limit_assignment(dec._curve, rstack, sstack, side)
            K = len(sstack.sections)
            for j in range(1, K + 1):
                faces.append((f"c{rstack.index}_{2 * ms[j - 1] - 1}",
                              f"c{sstack.index}_{2 * j - 1}"))
            for t in range(K + 1):
                mlo = ms[t - 1] if t >= 1 else None
                mhi = ms[t] if t < K else None
                big = f"c{sstack.index}_{2 * t}"
                for m in range((mlo if mlo is not None else 1),
                               (mhi if mhi is not None else k) + 1):
                    faces.append((f"c{rstack.index}_{2 * m - 1}", big))
                for tt in range((mlo if mlo is not None else 0),
                                (mhi - 1 if mhi is not None else k) + 1):
                    faces.append((f"c{rstack.index}_{2 * tt}", big))
    downward = {}
    for s, b in faces:
        downward.setdefault(b, set()).add(s)
    closed = {cid for cid, (_, sat) in dec.ambient_cells.items() if sat}
    todo = list(closed)
    while todo:
        c = todo.pop()
        for s in downward.get(c, ()):
            if s not in closed:
                closed.add(s)
                todo.append(s)
    cells = {cid: v for cid, v in dec.ambient_cells.items() if cid in closed}
    fpairs = [(s, b) for s, b in faces if s in closed and b in closed]
    return topology.CellComplex(2, True, cells, fpairs)


@pytest.mark.parametrize("text", GOLDEN + [TWO_ELLIPSES, LEMNISCATE_DISK, SHIFTED_ANNULUS])
def test_complex_matches_closure_walk_reference(text):
    dec = _dec(text)
    ref = _closure_walk_complex(dec)
    assert dec.complex == ref
    assert list(dec.complex.cells) == list(ref.cells)
    for c in ref.cells:
        assert dec.complex.star_of(c) == ref.star_of(c)


@pytest.mark.parametrize("text", [DISK, ANNULUS, STRIP, TWO_ELLIPSES, SHIFTED_ANNULUS])
def test_limit_assignment_runs_on_inner_sectors_only(text, monkeypatch):
    seen = []
    real = cad2d._sector_limits

    def counted(Q, rstack, sstack, side):
        seen.append(sstack.index)
        return real(Q, rstack, sstack, side)

    monkeypatch.setattr(cad2d, "_sector_limits", counted)
    dec = cad2d.decompose(parse_formula(text))
    n = len(dec._xroots)
    assert n >= 2 and len(seen) == 2 * n - 2
    assert 0 not in seen and 2 * n not in seen


def _check_counted_limits(dec, kinds):
    """On every root line whose critical sections the stack places, the
    count rule of _sector_limits gives _limit_assignment's answer for both
    inner sectors beside it; kinds counts the lines by (rational x, number
    of critical sections, 2 standing for two or more)."""
    stacks, n = dec._stacks, len(dec._xroots)
    for ri in range(n):
        rstack = stacks[2 * ri + 1]
        crit = rstack.critical
        kinds[rstack.x.is_rational, 2 if crit is None else len(crit)] += 1
        if crit is None:
            continue
        for side in (-1, 1):
            sstack = stacks[2 * ri + 1 + side]
            if 0 < sstack.index < 2 * n:
                assert (cad2d._sector_limits(dec._curve, rstack, sstack, side)
                        == cad2d._limit_assignment(dec._curve, rstack, sstack, side)), (ri, side)


def test_counted_limits_match_limit_assignment():
    # fresh decompositions: _limit_assignment refines the x-roots in place
    kinds = Counter()
    for text in list(PINNED_TEXT) + list(PINNED_DEGENERATE):
        _check_counted_limits(cad2d.decompose(parse_formula(text)), kinds)
    assert set(kinds) == {(r, c) for r in (True, False) for c in (0, 1, 2)}, kinds


def _forged(sections, critical):
    # a stack whose sections are only counted: the count rule reads
    # nothing but their number and the critical indices
    return cad2d.Stack(1, Fraction(0), Fraction(0), [None] * sections,
                       [Fraction(k) for k in range(sections + 1)], critical)


@pytest.mark.parametrize("m, critical, K, want", [
    (3, (), 3, [1, 2, 3]),
    (3, (1,), 2, [1, 3]),
    (3, (1,), 5, [1, 2, 2, 2, 3]),
    (1, (0,), 0, []),
    (0, (), 0, []),
])
def test_counted_limits_fill_the_sections_in_order(m, critical, K, want):
    assert cad2d._sector_limits(None, _forged(m, critical), _forged(K, ()), 1) == want


@pytest.mark.parametrize("m, critical, K", [(3, (), 2), (3, (), 4), (0, (), 1), (3, (0,), 1)])
def test_counted_limits_that_do_not_add_up_raise(m, critical, K):
    with pytest.raises(CadError, match="adjacency certification failed"):
        cad2d._sector_limits(None, _forged(m, critical), _forged(K, ()), 1)


def _root_free_between(h, xstar, alpha):
    """No root of h on the closed segment from xstar to alpha."""
    roots = isolate_real_roots(Polynomial.from_univariate("x", h))
    lo, hi = (xstar, alpha) if real_compare(xstar, alpha) < 0 else (alpha, xstar)
    return all(real_compare(r, lo) < 0 or real_compare(r, hi) > 0 for r in roots)


def test_approach_halts_when_the_near_endpoint_is_a_root():
    # sqrt(2) isolated as (9/8, 3/2) on the left of the sector: the near
    # endpoint 9/8 is the root of h, so halving toward it alone never ends
    X = Polynomial.var("x")
    h = [Fraction(-9, 8), Fraction(1)]
    sqrt2 = AlgebraicNumber(X * X - 2, Fraction(9, 8), Fraction(3, 2))
    xstar = cad2d._approach(h, sturm_chain(h), sqrt2, Fraction(1), -1)
    assert Fraction(9, 8) < xstar and real_compare(xstar, sqrt2) < 0
    assert _root_free_between(h, xstar, sqrt2)
    sqrt2 = AlgebraicNumber(X * X - 2, Fraction(1), Fraction(3, 2))
    h = [Fraction(-3, 2), Fraction(1)]
    xstar = cad2d._approach(h, sturm_chain(h), sqrt2, Fraction(2), 1)
    assert real_compare(xstar, sqrt2) > 0 and xstar < Fraction(3, 2)
    assert _root_free_between(h, xstar, sqrt2)


@pytest.mark.parametrize("side, start, want", [(-1, 0, Fraction(3, 4)),
                                               (1, 2, Fraction(5, 4))])
def test_approach_to_a_rational_root_line(side, start, want):
    # h = (x - 1/2)(x - 3/2) has a root on each side of alpha = 1; the
    # halvings land on those roots before the segment turns root free
    h = [Fraction(3, 4), Fraction(-2), Fraction(1)]
    one = AlgebraicNumber(Polynomial.var("x") - 1, 1, 1)
    xstar = cad2d._approach(h, sturm_chain(h), one, Fraction(start), side)
    assert xstar == want
    assert _root_free_between(h, xstar, one)
    assert sturm_count(sturm_chain(h), min(xstar, 1), max(xstar, 1)) == 0


def test_vertical_segment():
    dec = _dec(SEGMENT)
    assert dec.cell_count() == 15
    assert sorted(dec.complex.cells) == ["c1_1", "c1_2", "c1_3"]
    fp = topology.spectral_fingerprint(dec.complex)
    assert (fp.data.dim, fp.data.euler, fp.data.compact) == (1, 1, True)
    assert fp.data.eta_count == 2


def test_empty_set():
    dec = _dec(EMPTY)
    assert dec.cell_count() == 5
    assert len(dec.complex.cells) == 0


# ---------------------------------------------------------------------------
# unbounded inputs


@pytest.mark.parametrize("text", [
    "x + y > 0",
    "NOT (x^2 + y^2 < 1)",
    "0 < 1",
    "y = 0",
    "x = 0",
    "x^2 + y^2 > 1",
])
def test_unbounded_inputs_rejected(text):
    with pytest.raises(UnboundedInput):
        cad2d.decompose(parse_formula(text))


def test_unbounded_message_names_a_cell():
    with pytest.raises(UnboundedInput, match="c0_2"):
        cad2d.decompose(parse_formula("x + y > 0"))


# ---------------------------------------------------------------------------
# located membership against direct evaluation


def _battery(text, n, seed):
    dec = _dec(text)
    f = parse_formula(text)
    rng = random.Random(seed)
    hits = {}
    for _ in range(n):
        pt = (Fraction(rng.randrange(-40, 41), 16),
              Fraction(rng.randrange(-40, 41), 16))
        cid = cad2d.locate(dec, pt)
        direct = cad2d.contains_point(f, pt)
        assert direct == dec.ambient_cells[cid][1], (text, pt, cid)
        hits.setdefault(cid, []).append(pt)
    return hits


@pytest.mark.parametrize("text", GOLDEN)
def test_membership_consistency(text):
    _battery(text, 120, seed=sum(map(ord, text)))


# the monomials of total degree <= 2, as (x, y) exponents
_QUADRATIC = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
_quadratics = st.lists(st.integers(-3, 3), min_size=6, max_size=6).filter(any).map(
    lambda cs: Polynomial.make(("x", "y"), dict(zip(_QUADRATIC, cs))))
_rels = st.sampled_from(["<", "<=", "=", ">=", ">"])
_atoms = st.builds(Atom, _quadratics, _rels)
# lines a + b*x + c*y with c != 0; an atom with such a line squared, or two
# atoms sharing one, split the y-basis (arith._bbasis, _bsquarefree, _bgcd,
# _bquo), which no benchmark formula does
_linears = st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3).filter(bool)).map(
    lambda cs: Polynomial.make(("x", "y"), dict(zip(_QUADRATIC, cs))))
_squared = st.builds(lambda f, g, rel: Atom(f * f * g, rel), _linears, _quadratics, _rels)
_shared = st.builds(lambda f, g, h, r, s, conn: conn((Atom(f * g, r), Atom(f * h, s))),
                    _linears, _linears, _quadratics, _rels, _rels, st.sampled_from([And, Or]))
_clauses = st.one_of(
    _atoms,
    st.builds(Not, _atoms),
    st.builds(lambda a, b: And((a, b)), _atoms, _atoms),
    st.builds(lambda a, b: Or((a, b)), _atoms, _atoms),
    _squared,
    _shared,
)
_RADIUS_TWO = Atom(parse_polynomial("x^2+y^2-4", ("x", "y")), "<=")


@settings(max_examples=20, deadline=None)
@given(_clauses)
def test_random_quadratic_formulas_decompose_and_locate(clause):
    # at most two atoms of total degree <= 2 with coefficients in [-3, 3],
    # inside the disk of radius 2: decompose must return, and every cell
    # with an exactly rational sample must carry the flag contains_point
    # gives there, and be the cell locate names
    f = And((_RADIUS_TWO, clause))
    dec = cad2d.decompose(f)
    for cid, sp in dec.samples.items():
        x, y = (v if isinstance(v, Fraction) else v.value if v.is_rational else None
                for v in (sp.x, sp.y))
        if x is None or y is None:
            continue
        point = (x if dec.shear is None else x + dec.shear * y, y)
        assert cad2d.contains_point(f, point) == dec.ambient_cells[cid][1], (f, cid)
        assert cad2d.locate(dec, point) == cid, (f, cid)


@settings(max_examples=20, deadline=None)
@given(_clauses)
def test_counted_limits_match_limit_assignment_on_drawn_formulas(clause):
    _check_counted_limits(cad2d.decompose(And((_RADIUS_TWO, clause))), Counter())


def test_sign_vectors_constant_per_cell():
    for text in (DISK_PT, ANNULUS, WHISKER):
        f = parse_formula(text)
        polys = [a.poly for a in cad2d.formula_atoms(f)]
        hits = _battery(text, 150, seed=5)
        checked = 0
        for cid, pts in hits.items():
            if len(pts) < 3:
                continue
            vectors = set()
            for px, py in pts[:3]:
                v = tuple((lambda t: (t > 0) - (t < 0))(
                    p.eval_at({"x": px, "y": py})) for p in polys)
                vectors.add(v)
            assert len(vectors) == 1, (text, cid, vectors)
            checked += 1
        assert checked > 0


def test_locate_hits_sections_and_vertices():
    dec = _dec(DISK)
    assert cad2d.locate(dec, (1, 0)) == "c3_1"
    assert cad2d.locate(dec, (-1, 0)) == "c1_1"
    assert cad2d.locate(dec, (0, 1)) == "c2_3"
    assert cad2d.locate(dec, (0, -1)) == "c2_1"
    assert cad2d.locate(dec, (0, 0)) == "c2_2"
    assert cad2d.locate(dec, (5, 5)) == "c4_0"


@pytest.mark.parametrize("text, points", [
    # x-roots at -+sqrt(2/3) and -+1, -+sqrt(2)
    ("x^2+2y^2<=2 OR 2x^2+y^2<=2",
     [(-Fraction(816496580927726, 10**15), 0), (Fraction(8164965809, 10**10), 1),
      (Fraction(-1414213562, 10**9), 0), (Fraction(14142135624, 10**10), 0)]),
    # the root line x = 1 carries the sections y = -+sqrt(2)
    ("x^2+y^2<=3 AND x<=1",
     [(1, Fraction(1414213562, 10**9)), (1, Fraction(-14142135624, 10**10)),
      (Fraction(17320508, 10**7), 0)]),
])
def test_locate_leaves_the_decomposition_text_alone(text, points):
    # locate used to narrow the decomposition's own root intervals, which
    # moved the samples decomposition_text prints
    dec = cad2d.decompose(parse_formula(text))
    before = cad2d.decomposition_text(dec)
    for point in points:
        cad2d.locate(dec, point)
    assert cad2d.decomposition_text(dec) == before


def test_locate_respects_shear_frame():
    dec = _dec(ARC)
    assert dec.ambient_cells[cad2d.locate(dec, (1, 1))][1]
    assert dec.ambient_cells[cad2d.locate(dec, (2, Fraction(1, 2)))][1]
    assert dec.ambient_cells[cad2d.locate(dec, (Fraction(1, 2), 2))][1]
    assert not dec.ambient_cells[cad2d.locate(dec, (1, 2))][1]
    assert not dec.ambient_cells[cad2d.locate(dec, (3, Fraction(1, 3)))][1]


# ---------------------------------------------------------------------------
# structural invariants of the output complexes


@pytest.mark.parametrize("text", [t for t in GOLDEN if t != EMPTY])
def test_closure_transitive_and_dimension_decreasing(text):
    K = _dec(text).complex
    for c in K.cells:
        for f in K.closure_of(c):
            assert K.dim(f) < K.dim(c)
            assert K.closure_of(f) <= K.closure_of(c)


@pytest.mark.parametrize("text", [DISK, WHISKER, ANNULUS, ARC])
def test_serialization_round_trip(text):
    K = _dec(text).complex
    blob = topology.serialize_complex(K)
    assert topology.parse_complex(blob) == K


def test_determinism():
    a = cad2d.decompose(parse_formula(ANNULUS))
    b = cad2d.decompose(parse_formula(ANNULUS))
    assert cad2d.decomposition_text(a) == cad2d.decomposition_text(b)


def test_exactly_rational_samples_print_as_fractions():
    text = cad2d.decomposition_text(_dec(ANNULUS))
    assert "# sample c3_3 x=-1/2 y=0\n" in text
    assert "# sample c1_1 x=-1 y=0\n" in text
    assert "# sample c4_1 x=0 y=-1\n" in text
    assert "# sample c3_1 x=-1/2 y=~-0.866025328636\n" in text


def test_decomposition_text_annotations():
    text = cad2d.decomposition_text(_dec(ARC))
    assert text.startswith("complex ambient=2 bounded=1\n")
    assert "# shear lambda=1/2" in text
    assert "# sample c" in text
    assert cad2d.decomposition_text(_dec(DISK)).count("# sample") == 5


# sha256 of decomposition_text, samples and shear included; any change to
# cell ids, faces, flags or sample coordinates moves one of these
# the fence formulas of the cad-algebraic benchmark: lifting over Q(alpha)
QUARTIC_FENCE = "x^4 + y^4 - 3x^2 y + y^2 <= 1/2 AND x^2 + y^2 <= 9"
THREE_ELLIPSE_FENCE = ("((x-1)^2+7/4(y+1/4)^2<=2 OR 5/2(x-1)^2+3(y+1/4)^2<=3/2)"
                       " AND NOT 2(x-1/4)^2+3(y-3/4)^2<=2")

PINNED_TEXT = {
    QUARTIC_FENCE: "cb2e9c798699d66ec9bf1a54a90d0ca082358a239b075f80e9547e2dd386344e",
    THREE_ELLIPSE_FENCE: "7c0c8ece4aba5db9f94bad93b32547993bf0824ad3800c07b171f0e37b77bb4d",
    TWO_ELLIPSES: "503d504e2a70720f3244108a60213de97e0753507d25e129dd025b7369a377ef",
    LEMNISCATE_DISK: "8a4bed70df9a00ba5f60f7576a2af8f8c1ea9cdf492f2121577b756136513764",
    SHIFTED_ANNULUS: "84051806be6940a57e8754e284eb5c08812fd0fe75f0a7c3f5e0ec3651b41870",
    DISK: "6d867b58dfec7a8727c06050287fe2ec3918b22a21a3b05c0bfffd4d1ea50dae",
    DISK_PT: "52fb88240e614790eb6341a6a5f5a295432c89ec60a09d0bae1520e3574febb7",
    FAR_PT: "4f9321275e10094f099db90e39434810a3314b3f65519b93cd53e83ff4028cd1",
    ANNULUS: "7db3b610c3257980715193fdf7b2cc9d74f6fb211e4dd590cad2be31f26999c1",
    WHISKER: "cc06cdba9b5f4583e1803d61800550571b682ca8704cd3f10326425763b2ad6c",
    ARC: "81de7361321850786991e4d714eea708a95ce1e7472cc642677a2e9ae4d00626",
    STRIP: "edb0692d4b5e43aa5dc08ca5004d7fbc9cb8ec9997fd514b56f35df06f0bc916",
    SEGMENT: "e32b36e9c6196fc62475e5cd77acfa3e9f0ed67097b3f162aecd61717f3c4aac",
    EMPTY: "dd9c4e6fca4580a9bb664e2afe56165f5041f8641cefe189e18a19264bcd4679",
}


def test_decomposition_text_is_pinned():
    got = {text: hashlib.sha256(cad2d.decomposition_text(_dec(text)).encode()).hexdigest()
           for text in PINNED_TEXT}
    assert got == PINNED_TEXT


def _isolating_locate(dec, point):
    """Reference route of locate: in a sector, isolate the roots of the
    curve cut at the query x and place py among them."""
    px, py = Fraction(point[0]), Fraction(point[1])
    if dec.shear is not None:
        px = px - dec.shear * py
    st = dec._stacks[cad2d._level(dec._xroots, px)]
    if st.index % 2 == 1:
        return f"c{st.index}_{cad2d._level(st.sections, py)}"
    if dec._curve is None:
        return f"c{st.index}_0"
    heights = arith.uisolate(cad2d._slice(dec._curve, px))
    assert len(heights) == len(st.sections)
    return f"c{st.index}_{cad2d._level(heights, py)}"


# half-integers, plus the legs of the Pythagorean points on the circles of
# radius 1 and 1/2, so the rational heights of the atoms at these x put
# query points exactly on a curve inside a sector
_GRID_X = sorted({Fraction(k, 2) for k in range(-7, 8)}
                 | {s * Fraction(n, d) for s in (1, -1)
                    for n, d in ((3, 5), (4, 5), (3, 10), (2, 5))})


@pytest.mark.parametrize("text", list(PINNED_TEXT))
def test_locate_matches_isolating_reference(text):
    dec = _dec(text)
    atoms = [a.poly for a in cad2d.formula_atoms(parse_formula(text))]
    on_curve = 0
    for px in _GRID_X:
        heights = {Fraction(k, 2) for k in range(-7, 8)}
        for p in atoms:
            cut = p.substitute({"x": px})
            if not cut.is_constant():
                heights.update(r.value for r in isolate_real_roots(cut) if r.is_rational)
        for py in sorted(heights):
            cid = cad2d.locate(dec, (px, py))
            assert cid == _isolating_locate(dec, (px, py)), (px, py)
            stack, level = map(int, cid[1:].split("_"))
            on_curve += stack % 2 == 0 and level % 2 == 1
    assert on_curve > 0 or text == EMPTY


# decomposition_text prints neither the y-basis nor the projection, so a
# change to the remainder sequences under them is pinned here: sha256 of
# repr((basis texts, projection texts)); X_CONTENT has an atom with
# x-content, which is split off before the basis is formed
X_CONTENT = "x*(y-1) <= 0 AND x^2+y^2 <= 4"
PINNED_PROJECTION = {
    QUARTIC_FENCE: "887be50206e19359c354f766debda85a34d8ac9e703b8a5773efb32648089cce",
    THREE_ELLIPSE_FENCE: "cf3e40de16f5563a6f0b30f9f77dcbfa7c498a2327d55f5e6b362261ac62c89e",
    TWO_ELLIPSES: "faa6950a9aa468a34a220c04c7030acd80f608d9a3a491e3ac66265290b3fdcf",
    LEMNISCATE_DISK: "ff9f33af85b201df0bd7b08f7729ef73ca8cd42153864d1f9e6e37a8c6aa97ff",
    SHIFTED_ANNULUS: "3bc19e24175a90a692e1a27b7e3880fa2549fd66b51bc822ba1ff8a02b312593",
    DISK: "52f4b789ef37156fd3af0b62db9736653e599dc28a9c866c1e2e10582ef6f56b",
    DISK_PT: "c8eb1d89995040d8424ba274920d3433e9121896b99e40a59c3489aa14609eb9",
    FAR_PT: "91fda16ef05281652c73b0e6a31c97eb358407c82acc41b8e211efd42f078924",
    ANNULUS: "80ceb8c9f555155426b4457022d8485aa17a188a84a36520f20859ffb629f1f7",
    WHISKER: "38c963dd909894929d43543c2ec89a9eaf99b18ab28a8f387913940625490fe9",
    ARC: "cd6ad74f58fe6de2f2af3f6e88ad486f82aea33b54cead39e20d7941940848ee",
    STRIP: "d196b3b24184373e6806b48d8945ff1fe3ac68283bb52bedf2434e1a1adcb307",
    SEGMENT: "a9e8ff7b53387139cae657a9c62efdc70a64a08efabd93629fbbdffac9d18caf",
    EMPTY: "ec1b7939325d5ab2c674f5a9c7c913a9c75032aee0843c23569bed151ed24deb",
    X_CONTENT: "47dbae34e015ddc674ae1b874d33ca7e8792ed53d74fd935396d62f7bd2071e6",
}


def test_projection_is_pinned():
    got = {}
    for text in PINNED_PROJECTION:
        dec = _dec(text)
        blob = repr(([p.to_text() for p in dec.basis], [p.to_text() for p in dec.projection]))
        got[text] = hashlib.sha256(blob.encode()).hexdigest()
    assert got == PINNED_PROJECTION
    assert ([p.to_text() for p in _dec(X_CONTENT).projection]
            == ["x^2 - 4", "x^2 - 3", "x"])


# atoms that share factors, repeat one or carry a square, so the y-basis
# splits and square-frees its inputs (the benchmark formulas never do); the
# last two shear.  sha256 of repr((basis texts, projection texts,
# decomposition_text))
PINNED_DEGENERATE = {
    "(y-x)^2*(x^2+y^2-1) <= 0 AND x^2+y^2 <= 4":
        "f6e8656eb2fab50466903092b0359f779d9db6b000135ee28499c04719659856",
    "(y-x)*(y+x) >= 0 AND (y-x)*(x^2+y^2-1) <= 0 AND x^2+y^2 <= 4":
        "745efdbeb99962ab624c707261f0a76e147aa7ed97869dbbf114ce3913c14056",
    "(y^2-x^3)*(y-x) >= 0 AND (y^2-x^3)*(y+x) <= 0 AND x^2+y^2 <= 1":
        "48a53e8b6349d4612c9cbcd1f9b6f05ac1c74e39945c745ad3d6ca2843507988",
    "(x^2+y^2-1)^2*(y-1/2) >= 0 AND x^2+y^2 <= 9":
        "079e1d0a6e5e2ab899d5b5f73d5eea5492c5f112d8e40182d0a553d94f937a98",
    "(y^2-x^2-x^3)*(y-x) > 0 AND (y^2-x^2-x^3)*(x*y-1/4) <= 0 AND x^2+y^2 <= 4":
        "2ce6ebe7262d9705a0ca10c8e2b7659ce11229b24cf345993b4679abf14a97e6",
    "(x*y-1)*(x*y+1) <= 0 AND x^2+y^2 <= 9 AND NOT (x*y-1)^2 = 0":
        "a5bc9061633901601254db258cb5c0a433163f097909ebd2157f23b21bbb9f43",
}


def test_degenerate_projection_is_pinned():
    got = {}
    for text in PINNED_DEGENERATE:
        dec = _dec(text)
        blob = repr(([p.to_text() for p in dec.basis], [p.to_text() for p in dec.projection],
                     cad2d.decomposition_text(dec)))
        got[text] = hashlib.sha256(blob.encode()).hexdigest()
    assert got == PINNED_DEGENERATE
    assert [_dec(t).shear for t in PINNED_DEGENERATE][-2:] == [Fraction(1, 2)] * 2


def _sequences(monkeypatch, text):
    runs = []
    steps = arith._subresultant_steps

    def counted(a, b):
        runs.append((a, b))
        return steps(a, b)

    monkeypatch.setattr(arith, "_subresultant_steps", counted)
    dec = cad2d.decompose(parse_formula(text))
    monkeypatch.setattr(arith, "_subresultant_steps", steps)
    return dec, len(runs)


def test_projection_runs_one_sequence_per_value(monkeypatch):
    # a discriminant or resultant that is nonzero is the square-free or
    # coprimality test itself, so with no split a decompose runs one
    # sequence per basis pair and per basis element of y-degree 2 or more
    # (forming the basis by gcds first ran twice as many)
    assert _sequences(monkeypatch, THREE_ELLIPSE_FENCE)[1] == 6
    assert _sequences(monkeypatch, "x^2+y^2<=4 AND x^2+y^2>=1")[1] == 3
    for text in PINNED_PROJECTION:
        dec, runs = _sequences(monkeypatch, text)
        n = len(dec.basis)
        assert runs == n * (n - 1) // 2 + sum(b.degree_in("y") >= 2 for b in dec.basis)


def test_quartic_signs_are_certified_by_intervals(monkeypatch):
    # an exact sign at an irrational alpha recomputes a gcd, a square-free
    # part and a Sturm chain; interval Horner on alpha's box settles almost
    # every sign of the quartic fence (reduce-every-sign code sent 546)
    exact_calls = []
    exact = _numfield.usign_at

    def counted(q, root):
        if len(q) > 1:
            exact_calls.append(q)
        return exact(q, root)

    monkeypatch.setattr(_numfield, "usign_at", counted)
    cad2d.decompose(parse_formula(QUARTIC_FENCE))
    assert len(exact_calls) <= 10


def test_subdivision_preserves_cad_fingerprint():
    K = _dec(WHISKER).complex
    sd = topology.barycentric_subdivision(K)
    assert topology.spectral_fingerprint(sd) == topology.spectral_fingerprint(K)


def test_samples_live_in_their_stack():
    dec = _dec(ANNULUS)
    for cid, sp in dec.samples.items():
        x, y = _approx(sp)
        # even stacks carry rational x, odd stacks sit on projection roots
        si = int(cid[1:].split("_")[0])
        if si % 2 == 0:
            assert isinstance(sp.x, Fraction)


# ---------------------------------------------------------------------------
# each atom signed once per line, and output that reads exact signs only

# the seeded templates of the cad-algebraic benchmark, moved by (1/2, -1)
ALGEBRAIC_TEMPLATES = [t.replace("X", "(x-1/2)").replace("Y", "(y+1)") for t in (
    "X^2+2Y^2<=2 OR 2X^2+Y^2<=2",
    "2X^2+3Y^2<=3 OR 3X^2+Y^2<=2",
    "X^2+2Y^2<=3 AND NOT 2(X-1/2)^2+Y^2<=1",
    "2X^2+Y^2<=5 AND NOT X^2+3(Y-1/2)^2<=1",
    "X^2+Y^2<=2 AND Y-X^3+X>=0",
    "(X^2+Y^2)^2-2(X^2-Y^2)<=0 AND X^2+Y^2<=1",
)]

# the two slow formulas of the adversarial corpus
SLOW_FORMULAS = [
    "x^2+y^2 <= 4 AND (((x-1)^2+y^2-1)*(y^2-x^2-x^3) > 0 AND x*y-1/4 > 0)",
    "x^2+y^2 <= 1 AND ((x^2-y^3)^2 = 0 OR NOT (x^2+(y-1)^2-1/2)*((x+1)^2+(y-1/2)^2-3/4) >= 0"
    " OR y-x^3+x >= 0)",
]


class _RefListSigns:
    """The per-cell route the line table replaced: a list signed at one
    height at a time, the gcd with the last defining list and a Sturm
    chain kept, a section refined until the list has no root on it."""

    def __init__(self, q):
        self.q = arith._trim(q)
        self.chain = self.defining = self.g = None

    def at(self, root):
        q = self.q
        if not q:
            return 0
        if isinstance(root, Fraction):
            return arith._usign(q, root)
        if root.is_rational:
            return arith._usign(q, root.value)
        if len(q) == 1:
            return arith._sign(q[0])
        if self.defining is not root.defining:
            self.defining, self.g = root.defining, arith._ugcd(q, root.coeffs)
        if arith._udeg(self.g) >= 1:
            if arith._usign(self.g, root.lo) * arith._usign(self.g, root.hi) < 0:
                return 0
        if self.chain is None:
            self.chain = sturm_chain(q)
        arith.refine_root_free(self.chain, root)
        return arith._usign(q, (root.lo + root.hi) / 2)


def _working(formula, dec):
    """The formula in the frame of the decomposition, as decompose signs it."""
    if dec.shear is None:
        return formula
    return cad2d.map_polys(formula, lambda p: cad2d._shear_poly(p, dec.shear))


def _check_level_signs(formula, dec):
    """Each stack's sign table equals the per-cell reference on every cell,
    and the satisfied flags follow from it; sections are signed as copies,
    so the decomposition's own roots are left as they are."""
    working = _working(formula, dec)
    rows = {id(a.poly): arith._rows(a.poly)[0] for a in cad2d.formula_atoms(working)}
    for st in dec._stacks:
        table = {i: _numfield.ysign_at(cad2d._slice(r, st.at), st.sections, st.fences)
                 for i, r in rows.items()}
        refs = {i: _RefListSigns(cad2d._slice(r, st.at)) for i, r in rows.items()}
        for lv in range(2 * len(st.sections) + 1):
            at = st.fences[lv // 2] if lv % 2 == 0 else st.sections[lv // 2].copy()
            ref = {i: r.at(at) for i, r in refs.items()}
            assert {i: row[lv] for i, row in table.items()} == ref, (st.index, lv)
            sat = cad2d.eval_formula(working, lambda p: ref[id(p)])
            assert dec.ambient_cells[f"c{st.index}_{lv}"][1] == sat


@pytest.mark.parametrize("text", list(PINNED_TEXT) + list(PINNED_DEGENERATE))
def test_level_signs_match_the_per_cell_reference(text):
    _check_level_signs(parse_formula(text), _dec(text))


@settings(max_examples=20, deadline=None)
@given(_clauses)
def test_level_signs_match_the_per_cell_reference_on_drawn_formulas(clause):
    f = And((_RADIUS_TWO, clause))
    _check_level_signs(f, cad2d.decompose(f))


def _text_after(monkeypatch, text, k, refinements):
    """decomposition_text with each field's alpha refined k times before
    its stack is lifted, and signs tried on SIGN_REFINEMENTS = refinements
    boxes before the exact zero test."""
    field = _numfield.NumberField

    class Refined(field):
        def __init__(self, alpha):
            for _ in range(k):
                alpha.refine()
            super().__init__(alpha)

    with monkeypatch.context() as m:
        m.setattr(_numfield, "NumberField", Refined)
        m.setattr(_numfield, "SIGN_REFINEMENTS", refinements)
        return cad2d.decomposition_text(cad2d.decompose(parse_formula(text)))


@pytest.mark.parametrize("text", list(PINNED_TEXT) + list(PINNED_DEGENERATE)
                         + ALGEBRAIC_TEMPLATES)
def test_output_does_not_depend_on_alphas_refinement(text, monkeypatch):
    # how far alpha was refined before and during a lift changes no sign,
    # so it must change no byte of the output either
    rng = random.Random(sum(map(ord, text)))
    want = cad2d.decomposition_text(_dec(text))
    for k, refinements in ((rng.randrange(17), 0), (16, 30), (rng.randrange(17), 8)):
        assert _text_after(monkeypatch, text, k, refinements) == want, (k, refinements)


# direction 1(a)'s dyadic batch: lines through dyadic points, circles
# centred at dyadic points (irrational x-roots where the squared radius is
# no square) and rational roots on the ends of bisection intervals
DYADIC_BATCH = [
    "(x-1/2)^2+(y+3/4)^2 <= 2 AND 8*y-4*x+3 >= 0",
    "(x+1/4)^2+(y-1/8)^2 <= 3 AND y+x-1/2 <= 0 AND x^2+y^2 <= 4",
    "(x-1)^2+y^2 <= 1 AND (x+1)^2+y^2 >= 1/4 AND x^2+y^2 <= 4",
    "x^2+y^2 <= 1 AND 2*y-x >= 0",
    "(x-1/2)^2+(y-1/2)^2 <= 1/2 AND (x+1/2)^2+(y+1/2)^2 <= 2",
    "(4*x-1)*(8*y+3) >= 0 AND x^2+y^2 <= 2",
    "(x-3/4)^2+(y+1/2)^2 <= 5/4 AND (x+1/8)^2+y^2 >= 1/2 AND x^2+y^2 <= 4",
]


def _halvings(self, k):
    for _ in range(k):
        self.refine()


def test_narrowing_leaves_the_dyadic_batch_text_unchanged(monkeypatch):
    # narrow must leave exactly what k halvings leave, so no printed byte
    # moves; the batch narrows over Q and Q(alpha) and stops on exact roots
    seen = Counter()
    narrow = arith.AlgebraicNumber.narrow

    def counted(self, k):
        if not self.is_rational:
            narrow(self, k)
            seen["Q" if arith._rational(self.coeffs) else "Q(alpha)", self.is_rational] += 1

    def text(t):
        return cad2d.decomposition_text(cad2d.decompose(parse_formula(t)))

    with monkeypatch.context() as m:
        m.setattr(arith.AlgebraicNumber, "narrow", counted)
        got = [text(t) for t in DYADIC_BATCH]
    with monkeypatch.context() as m:
        m.setattr(arith.AlgebraicNumber, "narrow", _halvings)
        want = [text(t) for t in DYADIC_BATCH]
    assert got == want
    assert all(seen[d, e] for d in ("Q", "Q(alpha)") for e in (False, True)), seen


def test_first_slow_formula():
    # 13 s at the parent of the one-chain lift, under 5 s since
    dec = _dec(SLOW_FORMULAS[0])
    assert (dec.cell_count(), len(dec.complex.cells), dec.shear) == (613, 152, Fraction(1, 2))
    head = cad2d.decomposition_text(dec).split("# sample", 1)[0]
    assert (hashlib.sha256(head.encode()).hexdigest()
            == "b1582500a5fa9f0da481f6ddc8d86885809a2c2dd9cdd049f2afc21305399dc0")


def check_critical_against_division(dec, kinds):
    """Every stack's critical sections, read off the last entry of the
    chain that isolated its sections, are those that gcd(prod, prod')
    gives as prod over the sections' defining list, prod the cut of the
    curve along the line (a nonzero multiple of the slice product); kinds
    counts the stacks by (rational line, number of critical sections, 2
    standing for two or more)."""
    for st in dec._stacks:
        prod = [Fraction(1)] if dec._curve is None else cad2d._slice(dec._curve, st.at)
        assert st.critical == division_critical(prod, st.sections, st.fences), st.index
        crit = st.critical
        kinds[isinstance(st.at, Fraction), 2 if crit is None else len(crit)] += 1


def test_critical_sections_match_the_division_reference():
    # the first slow formula is the cached decomposition of
    # test_first_slow_formula; tests/slow_profile.py checks both
    kinds = Counter()
    for text in list(PINNED_TEXT) + list(PINNED_DEGENERATE) + SLOW_FORMULAS[:1]:
        check_critical_against_division(_dec(text), kinds)
    assert set(kinds) == {(r, c) for r in (True, False) for c in (0, 1, 2)}, kinds


def test_failed_sign_certification_is_a_cad_error(monkeypatch):
    # a root of an atom's slice off the sections, which ulevel_signs
    # reports as an ArithError, fails the decomposition with its stack
    def off_section(q, sections, fences):
        raise arith.ArithError("the list changes sign across a section it does not vanish on")

    monkeypatch.setattr(_numfield, "ysign_at", off_section)
    with pytest.raises(CadError, match="stack 0"):
        cad2d.decompose(parse_formula(DISK))
