"""Sign-invariant cylindrical decomposition of the plane.

A boolean combination of polynomial sign conditions in x and y is turned
into a finite regular cell complex: the x-axis is cut at the real roots of
a projected polynomial family, and over each resulting sector or root the
curves defined by the family slice the vertical line into points, arcs and
bands.  Every cell carries an exact sample point and a definite truth
value of the input formula, the satisfied cells become the marked part M
of the complex, and cell adjacency is certified by exact root counting
rather than floating point tracking: from the count of critical sections
on a root line where it has at most one, else by moving toward the line
until Sturm counts certify where each branch ends.

The projection runs on integer rows: each atom is read once into rows
in y of integer lists in x (arith._rows), and the y-basis and the
projection come out of one pass (_project) of arith's two-variable
routines on them: each discriminant and resultant the projection needs
also tests the basis.  Polynomials remain only at the edges: parsing, the
shear, contains_point and the basis and projection a Decomposition shows.

A stack is one vertical line: x is substituted into the basis, giving
polynomials in y over Q at a rational x (every sector sample and every
rational root line) and over Q(alpha) on an irrational root line, where
x = alpha enters as the generator of a NumberField.  Both kinds go
through the same coefficient-list engine of arith, and their sections are
AlgebraicNumbers either way.  Every cut of a polynomial along a line, be it
a vertical stack, a horizontal separator in adjacency certification or the
cut of locate, goes through _slice, which gives a positive multiple of
the cut: no sign or root moves.  An atom is signed once per stack at
all levels (ysign_at): its roots are sections, so fences sign the open
levels and a section needs at most a gcd zero test, never a refinement.

A cell is (stack, level), named c<stack>_<level>.  Cells of the outer
stacks 0 and 2n and the outer levels 0 and 2K of a stack are unbounded:
they get an ambient entry and a sample but stay out of the complex.  Faces
follow from level arithmetic: a section bounds the levels beside it, and
across a root line a bounded sector level meets a run of root-line levels
read off the limit assignment.  That assignment needs no approach when
the line has at most one critical section, a root of gcd(Q, Q_y) for Q
the product of the basis: one branch from each side ends at every other
section, and the rest at the critical one (_sector_limits).  Each stack
counts its critical sections on that gcd, the last entry of the one Sturm
chain that isolated the sections of its slice product; only a line with
two or more runs _limit_assignment.  The complex is the restriction of the
bounded cells to the closure of the satisfied ones.

The described set must be bounded; decompose raises UnboundedInput as
soon as a satisfied cell stretches to infinity.  Vertical asymptotes are
removed up front by an x -> x + lambda*y shear whenever some leading
y-coefficient of the projected family has a real root; the shear value is
recorded on the result and sample points then live in the sheared frame.
"""

from dataclasses import dataclass, field as _dcfield
from fractions import Fraction
from functools import cmp_to_key
from itertools import zip_longest

from . import _numfield as nf
from .arith import (
    AlgebraicNumber,
    ArithError,
    Polynomial,
    _bbasis,
    _bcontent,
    _bdisc,
    _bkey,
    _bmul,
    _bnorm,
    _bres,
    _ihorner,
    _poly,
    _rows,
    _trim,
    _udeg,
    _usign,
    _usturm,
    isolate_real_roots,
    rational_between,
    real_compare,
    refine_root_free,
    sturm_chain,
    sturm_count,
)
from .topology import CellComplex, restrict, serialize_complex


class CadError(ValueError):
    """Invalid formula, or a decomposition invariant failed to certify."""


class UnboundedInput(CadError):
    """The satisfied set is unbounded and has no bounded cell model."""


XY = ("x", "y")
_REL_SIGNS = {"<": {-1}, "<=": {-1, 0}, "=": {0}, ">=": {0, 1}, ">": {1}}


# ---------------------------------------------------------------------------
# formulas


@dataclass(frozen=True)
class Atom:
    """Sign condition poly rel 0 with rel one of <, <=, =, >=, >."""

    poly: Polynomial
    rel: str

    def __post_init__(self):
        if self.rel not in _REL_SIGNS:
            raise CadError(f"unknown relation {self.rel!r}")
        if not isinstance(self.poly, Polynomial) or self.poly.is_zero():
            raise CadError("atom needs a nonzero polynomial")


@dataclass(frozen=True)
class And:
    parts: tuple

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))


@dataclass(frozen=True)
class Or:
    parts: tuple

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))


@dataclass(frozen=True)
class Not:
    part: object


def formula_atoms(f):
    """Every Atom of the formula, left to right."""
    if isinstance(f, Atom):
        yield f
    elif isinstance(f, (And, Or)):
        for p in f.parts:
            yield from formula_atoms(p)
    elif isinstance(f, Not):
        yield from formula_atoms(f.part)
    else:
        raise CadError(f"not a formula: {f!r}")


def map_polys(f, fn):
    """Rebuild the formula with fn applied to each atom polynomial."""
    if isinstance(f, Atom):
        return Atom(fn(f.poly), f.rel)
    if isinstance(f, And):
        return And(tuple(map_polys(p, fn) for p in f.parts))
    if isinstance(f, Or):
        return Or(tuple(map_polys(p, fn) for p in f.parts))
    if isinstance(f, Not):
        return Not(map_polys(f.part, fn))
    raise CadError(f"not a formula: {f!r}")


def eval_formula(f, sign_of) -> bool:
    """Truth value given the sign of every atom polynomial.

    An empty And is true and an empty Or is false.
    """
    if isinstance(f, Atom):
        return sign_of(f.poly) in _REL_SIGNS[f.rel]
    if isinstance(f, And):
        return all(eval_formula(p, sign_of) for p in f.parts)
    if isinstance(f, Or):
        return any(eval_formula(p, sign_of) for p in f.parts)
    if isinstance(f, Not):
        return not eval_formula(f.part, sign_of)
    raise CadError(f"not a formula: {f!r}")


def _check_variables(f):
    for a in formula_atoms(f):
        for v in a.poly.variables:
            if v not in XY and a.poly.degree_in(v) > 0:
                raise CadError(
                    f"formula mentions variable {v!r}; only x and y are allowed")


def contains_point(formula, point) -> bool:
    """Exact membership of a rational point in the set the formula describes."""
    _check_variables(formula)
    px, py = Fraction(point[0]), Fraction(point[1])

    def sgn(p):
        v = p.eval_at({"x": px, "y": py})
        return (v > 0) - (v < 0)

    return eval_formula(formula, sgn)


# ---------------------------------------------------------------------------
# projection


def _prepare(polys):
    """The x-parts (x-only inputs, y-contents) and normalized y-primitive
    parts of a list of rows."""
    xparts, yparts = [], []
    for p in polys:
        if not p:
            raise CadError("the zero polynomial has no sign-invariant cells")
        cont, prim = _bcontent(p)
        if len(cont) > 1:
            xparts.append(cont)
        if len(prim) > 1:
            yparts.append(_bnorm(prim))
    return xparts, yparts


def _project(xparts, yparts):
    """(y-basis, projection) from one work list of the y-parts.

    An element is kept once its discriminant and its resultants with the
    kept elements are nonzero: it is then square-free and coprime to them.
    A zero value sends it, or it and that kept element, through _bbasis
    and the pieces back on the list.  Each value is computed once, under
    the keys of its elements; the x-basis comes from the x-parts, the
    leading coefficients and the values of the basis.  The basis is rows,
    the projection integer lists in x.
    """
    kept, vals, work = {}, {}, list(yparts)

    def value(fn, *ps):
        k = frozenset(map(_bkey, ps))
        if k not in vals:
            vals[k] = fn(*ps)
        return vals[k]

    while work:
        p = work.pop()
        key = _bkey(p)
        if key in kept:
            continue
        if not value(_bdisc, p):
            work += _bbasis([p])
            continue
        for k, q in kept.items():
            if not value(_bres, p, q):
                del kept[k]
                work += _bbasis([p, q])
                break
        else:
            kept[key] = p
    basis = sorted(kept.values(), key=_bkey)
    univ = xparts + [b[-1] for b in basis]
    univ += [v for k, v in vals.items() if k <= kept.keys()]
    return basis, [b[0] for b in _bbasis([[u] for u in univ])]


# ---------------------------------------------------------------------------
# shear


def _needs_shear(yparts) -> bool:
    # the leading coefficient of a y-part is the product of those of its
    # basis factors, so it has the same real roots, which one Sturm chain counts
    return any(len(b[-1]) > 1 and sturm_count(_usturm(b[-1]), None, None) for b in yparts)


def _top_form_value(p: Polynomial, lam: Fraction) -> Fraction:
    d = p.total_degree()
    top = Polynomial(p.variables, {e: c for e, c in p.terms.items() if sum(e) == d})
    return top.evaluate({"x": lam, "y": Fraction(1)})


def _shear_candidates():
    for den in range(2, 1000):
        yield Fraction(1, den)
        yield Fraction(-1, den)


def _choose_shear(polys) -> Fraction:
    # any direction avoiding the top form of every input works; each top
    # form kills at most its degree many candidates, so the search ends
    polys = [p for p in polys if not p.is_constant()]
    for lam in _shear_candidates():
        if all(_top_form_value(p, lam) != 0 for p in polys):
            return lam
    raise CadError("no shear direction found")  # pragma: no cover


def _shear_poly(p: Polynomial, lam: Fraction) -> Polynomial:
    x = Polynomial.var("x", XY)
    y = Polynomial.var("y", XY)
    return p.substitute({"x": x + Polynomial.const(lam, XY) * y})


# ---------------------------------------------------------------------------
# stacks


@dataclass
class Stack:
    """One vertical slice of the decomposition.

    Even indices are open sectors with a rational x sample, odd indices sit
    on a projection root.  at is the value substituted for x: the rational
    x itself, or the generator of Q(x) on an irrational root line, so the
    curves on the slice are polynomials in y over Q or over Q(x).
    sections are the curve heights on the slice, in increasing order;
    level 2j+1 is section j, even levels are the open intervals in between;
    levels 0 and 2K, and every level of the outer stacks, are unbounded.
    fences are rational heights, one inside each even level: its sample
    height, and on a root line a separator for adjacency certification.
    critical holds the indices of the critical sections, the roots of
    gcd(Q, Q_y) on the line for Q the product of the basis, a gcd read off
    the last entry of the Sturm chain that isolated the sections: () or
    one index, or None when there are two or more, which are not placed.
    """

    index: int
    x: object
    at: object
    sections: list
    fences: list
    critical: tuple = ()
    _cuts: tuple = _dcfield(default=(None, None), repr=False)

    def fence_cuts(self, Q):
        """(cut, Sturm chain) of the curve's rows Q along each fence height
        where the cut, a list in x sliced off Q's rows turned to rows in x,
        is not constant; both sectors beside a root line read the same ones."""
        if self._cuts[0] is not Q:
            cols = [_trim(c) for c in zip_longest(*Q, fillvalue=0)]
            cuts = [_trim(_slice(cols, e)) for e in self.fences]
            self._cuts = Q, [(h, sturm_chain(h)) for h in cuts if _udeg(h) >= 1]
        return self._cuts[1]


def _slice(rows, at):
    """A positive multiple of the coefficient list of rows on the line where
    the variable of their lists is at: at a rational n/d, one ``_ihorner``
    per row over the one scale d^D, D the longest row's degree (integers);
    at the generator of Q(x), each row reduced once modulo x's defining
    list (``NumberField.element``), the unique reduced representative of
    the row's value."""
    if isinstance(at, Fraction):
        top = max(map(len, rows))
        n, d = at.numerator, at.denominator
        return [_ihorner(r, n, d) * d ** (top - len(r)) for r in rows]
    return [at.field.element(r) for r in rows]


def _fences(roots):
    """Rational values strictly interleaving an ordered list of roots.

    Returns len(roots)+1 values; for an empty list just [0].
    """
    if not roots:
        return [Fraction(0)]
    return ([roots[0].lo - 1]
            + [rational_between(a, b) for a, b in zip(roots, roots[1:])]
            + [roots[-1].hi + 1])


def _build_stack(index, xval, basis) -> Stack:
    if isinstance(xval, Fraction):
        at = xval
    elif xval.is_rational:
        at = xval.value
    else:
        at = nf.NumberField(xval.copy()).generator()
    prod = [Fraction(1)]
    for b in basis:
        prod = nf.ymul(prod, _slice(b, at))
    sections = nf.yisolate(prod)
    fences = _fences(sections)
    return Stack(index, xval, at, sections, fences, _critical(sections, fences))


def _critical(sections, fences):
    """Stack.critical of a line from its sections, the ``Roots`` of its
    slice product prod, and its fences.

    The last entry of the Sturm chain that isolated the sections is the
    gcd G of prod and prod', up to a nonzero factor, so the critical
    sections are the real roots of G and there are none when G is a
    constant.  One Sturm chain of G counts them; a single one is placed
    among the fences by bisection on the counts below them.
    """
    if not sections or _udeg(sections.chain[-1]) == 0:
        return ()
    chain = _usturm(sections.chain[-1])
    n = sturm_count(chain, None, None)
    if n != 1:
        return () if n == 0 else None
    lo, hi = 0, len(fences) - 1  # the root lies above fences[lo], not above fences[hi]
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if sturm_count(chain, None, fences[mid]):
            hi = mid
        else:
            lo = mid
    return (lo,)


# ---------------------------------------------------------------------------
# certified adjacency


def _approach(h, chain, alpha, xstar, side):
    """Halve the rational xstar toward alpha until the coefficient list h,
    whose Sturm chain is given, has no root on the closed segment from
    xstar to alpha's interval.

    side is the side of alpha that xstar lies on, and h(alpha) must not
    vanish.  alpha is first refined until its own closed interval is root
    free: its endpoint on xstar's side may be a rational root of h, and no
    halving toward a root ever certifies.
    """
    refine_root_free(chain, alpha)
    near = alpha.hi if side > 0 else alpha.lo
    while True:
        a, b = min(xstar, near), max(xstar, near)
        if _usign(h, a) and not sturm_count(chain, a, b):
            return xstar
        xstar = (xstar + near) / 2


def _sector_limits(Q, rstack, sstack, side):
    """For each section of the sector, the root-stack point it converges to,
    as 1-based section indices of the root stack, from the counts of the
    root line's critical sections where it has at most one.

    Q is square-free and no branch escapes vertically, so at a section
    where Q_y != 0 exactly one branch arrives from each side (implicit
    function theorem), and the limits of the sector's branches are
    monotone: they fill the other sections in order from the bottom and
    from the top, and every remaining branch tends to the one critical
    section, if any (Arnon, Collins & McCallum, SIAM J. Comput. 13, 1984).
    A line with two or more critical sections goes to _limit_assignment.
    A count that does not add up raises CadError.
    """
    crit = rstack.critical
    if crit is None:
        return _limit_assignment(Q, rstack, sstack, side)
    K, m = len(sstack.sections), len(rstack.sections)
    extra = K - m + len(crit)  # the branches tending to the critical section
    if extra < 0 or (extra and not crit):
        raise CadError(
            f"adjacency certification failed: {K} curve branches beside the "
            f"root line x={rstack.x} with {m} sections, {len(crit)} of them critical")
    if not crit:
        return list(range(1, m + 1))
    c = crit[0] + 1
    return list(range(1, c)) + [c] * extra + list(range(c + 1, m + 1))


def _limit_assignment(Q, rstack, sstack, side):
    """For each section of the sector, the root-stack point it converges to:
    the fallback of _sector_limits on a line with two or more critical
    sections, where counts alone do not say how many branches reach each.

    side is -1 when the sector lies left of the root line alpha, +1 when
    right.  The root stack's fences are the separator heights e that split
    its points into boxes; Q(alpha, e) != 0 as no fence is a curve height.
    Starting at the sector's own sample, x* is moved toward alpha until a
    Sturm count certifies, for every e, that Q(x, e) has no root between
    x* and alpha: no curve crosses a separator there, so box membership at
    x* equals the limit assignment.  One Sturm chain of Q(x*, y) counts the
    branches in each box (a, b] of consecutive separators (no branch lies
    on one), and the branches fill the boxes in order.  Returns 1-based
    box indices, one per section.
    """
    K = len(sstack.sections)
    if K == 0:
        return []
    seps = rstack.fences
    xstar = sstack.x
    for h, chain in rstack.fence_cuts(Q):
        xstar = _approach(h, chain, rstack.x, xstar, side)
    chain = sturm_chain(_trim(_slice(Q, xstar)))
    total = sturm_count(chain, None, None)
    counts = [sturm_count(chain, a, b) for a, b in zip(seps, seps[1:])]
    if total != K or sum(counts) != K:
        raise CadError(
            f"adjacency certification failed: {total} curve branches at "
            f"x={xstar}, {sum(counts)} of them between the outer separators, "
            f"expected {K}")
    return [m for m, n in enumerate(counts, start=1) for _ in range(n)]


# ---------------------------------------------------------------------------
# decomposition


@dataclass(frozen=True)
class SamplePoint:
    """Exact witness; y lives on the vertical line of the substituted x."""

    x: object
    y: object


@dataclass
class Decomposition:
    """Result of decompose.

    complex holds the satisfied cells and their closure; ambient_cells maps
    every cell id of the full decomposition to (dim, satisfied) and samples
    gives each one an exact witness point.  When shear is set, all samples
    and cells live in the frame x' = x - shear*y (the input was rewritten
    as formula(x + shear*y, y)); locate performs the change of frame.
    """

    complex: CellComplex
    samples: dict
    shear: object
    basis: list
    projection: list
    ambient_cells: dict
    _stacks: list
    _xroots: list
    _curve: object

    def cell_count(self) -> int:
        return len(self.ambient_cells)


def decompose(formula) -> Decomposition:
    """Cell complex of the bounded set described by the formula.

    Raises UnboundedInput when some satisfied cell is unbounded, and
    CadError on malformed formulas or a failed sign or adjacency
    certification.
    """
    _check_variables(formula)
    working = formula
    atom_polys = [a.poly for a in formula_atoms(working)]
    lam = None
    atom_rows = [_rows(p)[0] for p in atom_polys]
    xparts, yparts = _prepare(atom_rows)
    if _needs_shear(yparts):
        lam = _choose_shear(atom_polys)
        working = map_polys(working, lambda p: _shear_poly(p, lam))
        atom_polys = [a.poly for a in formula_atoms(working)]
        atom_rows = [_rows(p)[0] for p in atom_polys]
        xparts, yparts = _prepare(atom_rows)
        if _needs_shear(yparts):  # pragma: no cover
            raise CadError("shear failed to remove leading coefficient roots")
    basis, proj = _project(xparts, yparts)
    proj = [_poly([q], ("x",)) for q in proj]

    xroots = []
    for q in proj:
        xroots.extend(isolate_real_roots(q))
    xroots.sort(key=cmp_to_key(real_compare))
    sector_xs = _fences(xroots)

    stacks = []
    for i in range(2 * len(xroots) + 1):
        xval = sector_xs[i // 2] if i % 2 == 0 else xroots[i // 2]
        stacks.append(_build_stack(i, xval, basis))

    smax = 2 * len(xroots)
    ambient, samples, bounded, faces = {}, {}, {}, []
    for st in stacks:
        K = len(st.sections)
        on_root = st.index % 2 == 1
        inner = 0 < st.index < smax
        try:  # each atom is signed once per stack, at all levels
            signs = {id(p): nf.ysign_at(_slice(rows, st.at), st.sections, st.fences)
                     for p, rows in zip(atom_polys, atom_rows)}
        except ArithError as e:
            raise CadError(f"sign certification failed on stack {st.index}: {e}") from e
        for lv in range(2 * K + 1):
            cid = f"c{st.index}_{lv}"
            if lv % 2 == 1:
                yval = st.sections[lv // 2]
                dim = 0 if on_root else 1
                if inner:
                    faces.extend((cid, f"c{st.index}_{b}")
                                 for b in (lv - 1, lv + 1) if 0 < b < 2 * K)
            else:
                yval = st.fences[lv // 2]
                dim = 1 if on_root else 2
            sat = eval_formula(working, lambda p: signs[id(p)][lv])
            outer = not inner or lv in (0, 2 * K)
            if sat and outer:
                raise UnboundedInput(
                    f"the satisfied set is unbounded (cell {cid})")
            ambient[cid] = (dim, sat)
            samples[cid] = SamplePoint(st.x, yval)
            if not outer:
                bounded[cid] = (dim, sat)

    Q = None
    for b in basis:
        Q = b if Q is None else _bmul(Q, b)
    for st in stacks[2:smax:2]:
        for rs in (stacks[st.index - 1], stacks[st.index + 1]):
            ms = _sector_limits(Q, rs, st, st.index - rs.index)
            # section j of the sector tends to root-line level lim[j]; a band
            # meets every level from the limit below it to the one above it
            lim = [0] + [2 * m - 1 for m in ms] + [2 * len(rs.sections)]
            for lv in range(1, 2 * len(ms)):
                faces.extend((f"c{rs.index}_{r}", f"c{st.index}_{lv}")
                             for r in range(lim[(lv + 1) // 2], lim[lv // 2 + 1] + 1))
    complex_ = restrict(CellComplex(2, True, bounded, faces),
                        [cid for cid, (_, sat) in bounded.items() if sat])
    return Decomposition(
        complex=complex_,
        samples=samples,
        shear=lam,
        basis=[_poly(b) for b in basis],
        projection=proj,
        ambient_cells=ambient,
        _stacks=stacks,
        _xroots=xroots,
        _curve=Q,
    )


def _level(roots, v) -> int:
    """Place v among ordered roots: 2j+1 on roots[j], 2j just below it,
    2*len(roots) above all of them.  Irrational roots are compared as
    copies: real_compare narrows its arguments in place, and the roots are
    the decomposition's own samples, which decomposition_text prints."""
    for j, r in enumerate(roots):
        c = real_compare(v, r.copy() if isinstance(r, AlgebraicNumber) else r)
        if c == 0:
            return 2 * j + 1
        if c < 0:
            return 2 * j
    return 2 * len(roots)


def locate(dec: Decomposition, point) -> str:
    """Ambient cell id containing a rational point of the original plane."""
    px, py = Fraction(point[0]), Fraction(point[1])
    if dec.shear is not None:
        px = px - dec.shear * py
    st = dec._stacks[_level(dec._xroots, px)]
    if st.index % 2 == 1:
        # on a root line the stack sections are the curve heights themselves
        return f"c{st.index}_{_level(st.sections, py)}"
    # no branches cross in a sector: with k branches of the curve cut at the
    # query x at or below py (one Sturm chain), py is on branch k or above it
    if dec._curve is None:
        return f"c{st.index}_0"
    cut = _trim(_slice(dec._curve, px))
    chain = sturm_chain(cut)
    if sturm_count(chain, None, None) != len(st.sections):  # pragma: no cover
        raise CadError("curve family is not delineable over a sector")
    k = sturm_count(chain, None, py)
    return f"c{st.index}_{2 * k - 1 if _usign(cut, py) == 0 else 2 * k}"


def _fmt_coord(v) -> str:
    if isinstance(v, Fraction):
        return str(v)
    if v.is_rational:
        return str(v.value)
    return f"~{float(v):.12g}"


def decomposition_text(dec: Decomposition) -> str:
    """Serialized kept complex plus sample and shear annotations."""
    lines = [serialize_complex(dec.complex).rstrip("\n")]
    if dec.shear is not None:
        lines.append(f"# shear lambda={dec.shear}")
    for cid in dec.complex.ids:
        sp = dec.samples[cid]
        lines.append(f"# sample {cid} x={_fmt_coord(sp.x)} y={_fmt_coord(sp.y)}")
    return "\n".join(lines) + "\n"
