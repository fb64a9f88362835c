"""Seeded formula families for the two ``decompose`` workloads.

``cad-algebraic`` uses families whose projection has irrational x-roots,
so stacks are lifted over Q(alpha); ``cad-rational`` uses families whose
x-roots are all rational, so every stack is over the rationals.

A cycle draws each family's templates in turn, each moved by a nonzero
translation by halves: the draw's slot sets the shift sizes and the seed
their signs.  A translation keeps the cell structure and the
rationality of every x-root, so draws differ in their coefficients but not
in their shape: that keeps the cost of a cycle steady from seed to seed.

References, none of them from the decomposition code path:

* every kept cell whose sample point is exactly rational must carry the
  ``inM`` flag that ``cad2d.contains_point`` (sign evaluation only)
  gives at that point;
* Euler characteristic and component count, read off the written file
  by ``ops.euler_and_components``, must equal the values known for the
  family's shape (barycentric subdivision preserves both);
* the fixed rungs also have hand-counted cell totals.
"""

from dataclasses import dataclass
from fractions import Fraction
import os
import re

from ops import Op, Verdict, euler_and_components, q, read_complex


@dataclass(frozen=True)
class Family:
    name: str
    templates: tuple      # formulas in X, Y (translated) or x, y (fixed)
    euler: object = None  # None: no shape reference, samples only
    components: object = None
    ambient: object = None  # hand-counted decomposition size (fixed rungs)
    kept: object = None
    draws: int = 0          # seeded draws per cycle; 0 for a fixed formula


# -- cad-algebraic -------------------------------------------------------

QUARTIC_FENCE = Family(
    # the spurious "1 curve branches at x=-3, expected 2" failure
    "quartic-fence",
    ("x^4 + y^4 - 3x^2 y + y^2 <= 1/2 AND x^2 + y^2 <= 9",))

THREE_ELLIPSE_FENCE = Family(
    # a 3-ellipse draw that fails the same way at x=-1/2
    "three-ellipse",
    ("((x-1)^2+7/4(y+1/4)^2<=2 OR 5/2(x-1)^2+3(y+1/4)^2<=3/2)"
     " AND NOT 2(x-1/4)^2+3(y-3/4)^2<=2",))

TWO_ELLIPSES = Family(
    "two-ellipses", ("x^2+2y^2<=2 OR 2x^2+y^2<=2",),
    euler=1, components=1, ambient=69, kept=45)

ALGEBRAIC_FAMILIES = (
    Family("ellipse-union",
           ("X^2+2Y^2<=2 OR 2X^2+Y^2<=2",
            "2X^2+3Y^2<=3 OR 3X^2+Y^2<=2"), euler=1, components=1, draws=2),
    Family("ellipse-difference",
           ("X^2+2Y^2<=3 AND NOT 2(X-1/2)^2+Y^2<=1",
            "2X^2+Y^2<=5 AND NOT X^2+3(Y-1/2)^2<=1"), euler=0, components=1, draws=6),
    Family("cubic-disk",
           # one template: most ops of a run are these draws, so the median
           # and upper percentiles fall inside one cost cluster
           ("X^2+Y^2<=2 AND Y-X^3+X>=0",), euler=1, components=1, draws=16),
    Family("lemniscate-disk",
           # two lobes meeting at the origin, cut by the disk
           ("(X^2+Y^2)^2-2(X^2-Y^2)<=0 AND X^2+Y^2<=1",), euler=1, components=1,
           draws=2),
)

# -- cad-rational ----------------------------------------------------------

DISK = Family("disk", ("x^2+y^2<=1",), euler=1, components=1, ambient=13, kept=5)
ANNULUS = Family("annulus", ("x^2+y^2<=4 AND x^2+y^2>=1",),
                 euler=0, components=1, ambient=41, kept=24)
WHISKER = Family("whisker",
                 ("x^2 + y^2 <= 1 OR (y = 0 AND x - 1 >= 0 AND x - 2 <= 0)",),
                 euler=1, components=1, kept=9)

RATIONAL_FAMILIES = (
    Family("polygon",
           ("X>=0 AND Y>=0 AND X+Y<=2",
            "X>=-1 AND X<=2 AND Y>=-1 AND Y<=1 AND X-Y<=2",
            "Y>=0 AND 2X-Y>=-2 AND 2X+Y<=2"), euler=1, components=1, draws=1),
    Family("box-holes",
           # two open disks removed; centres share a coordinate, so the
           # circles' resultant has no irrational real root
           ("X>=-4 AND X<=4 AND Y>=-2 AND Y<=2 AND (X+2)^2+Y^2>=1"
            " AND (X-2)^2+Y^2>=1",
            "X>=-3 AND X<=3 AND Y>=-3 AND Y<=3 AND X^2+(Y+3/2)^2>=1"
            " AND X^2+(Y-3/2)^2>=1"), euler=-1, components=1, draws=1),
    Family("annuli",
           # six of the twelve ops and the slowest after box-holes, so the
           # median and the tail percentile fall inside this family for any
           # number of cycles from 2 to 10
           ("X^2+Y^2>=1 AND X^2+Y^2<=4",
            "X^2+Y^2>=4 AND X^2+Y^2<=9"), euler=0, components=1, draws=6),
    Family("circle-line",
           # chords through Pythagorean points (3,4), (-4,3), (5,0), (0,-5)
           ("X^2+Y^2<=25 AND X+7Y<=25",
            "X^2+Y^2<=25 AND X-Y<=5"), euler=1, components=1, draws=1),
)


def _shift(var, c):
    return f"({var}-{q(c)})" if c > 0 else f"({var}+{q(-c)})"


def translate(template: str, a, b) -> str:
    return template.replace("X", _shift("x", a)).replace("Y", _shift("y", b))


SHIFT_SIZES = (Fraction(1, 2), Fraction(1))


def draws(family: Family, rng, cycle: int):
    """The family's seeded draws for one cycle.  Templates are taken in
    turn, continuing from cycle to cycle, so every run has the same mix.
    Each draw is moved by a nonzero translation by halves (an unmoved
    template is cheaper than any moved one): the draw's place in the cycle
    sets the size of each shift, and the seed its signs.  The sizes change
    the cost, the signs hardly, so each slot of a cycle costs about the
    same under every seed."""
    first = cycle * family.draws
    out = []
    for k in range(family.draws):
        a = SHIFT_SIZES[k % 2] * rng.choice((-1, 1))
        b = SHIFT_SIZES[k // 2 % 2] * rng.choice((-1, 1))
        out.append(translate(family.templates[(first + k) % len(family.templates)], a, b))
    return out


_SUMMARY = re.compile(r"^total cells: (\d+) \(decomposition: (\d+)\)$", re.M)


def decompose_op(family: Family, formula: str, work: str, tag: str,
                 simplicialize=False) -> Op:
    src, out = os.path.join(work, f"{tag}.formula"), os.path.join(work, f"{tag}.complex")
    argv = ["decompose", src, "-o", out]
    if simplicialize:
        argv.append("--simplicialize")

    def check(rc, stdout, files):
        if rc != 0:
            return Verdict(False, f"exit {rc} on a bounded formula: {formula}")
        m = _SUMMARY.search(stdout)
        if m is None:
            return Verdict(False, "no summary line")
        total, ambient = int(m.group(1)), int(m.group(2))
        cf = read_complex(files[out])
        if len(cf.cells) != total:
            return Verdict(False, f"summary says {total} cells, file has {len(cf.cells)}")
        for d in range(3):
            want = sum(1 for dim, _ in cf.cells.values() if dim == d)
            if f"cells dim {d}: {want}\n" not in stdout:
                return Verdict(False, f"dimension {d} count disagrees with the file")
        if family.ambient is not None and ambient != family.ambient:
            return Verdict(False, f"{ambient} ambient cells, expected {family.ambient}")
        if family.kept is not None and not simplicialize and total != family.kept:
            return Verdict(False, f"{total} kept cells, expected {family.kept}")
        chi, comps = euler_and_components(cf)
        if family.euler is not None and chi != family.euler:
            return Verdict(False, f"Euler characteristic {chi}, expected {family.euler}")
        if family.components is not None and comps != family.components:
            return Verdict(False, f"{comps} components, expected {family.components}")
        if not simplicialize:
            bad = _sample_mismatch(formula, cf)
            if bad:
                return Verdict(False, bad)
        return Verdict(True, cells=ambient)

    return Op(family.name, argv, {src: formula + "\n"}, (out,), check)


def _sample_mismatch(formula_text: str, cf) -> str:
    # imported here: run.py puts the checkout's specta on sys.path at run time
    from specta._expr import parse_formula
    from specta.cad2d import contains_point

    formula = parse_formula(formula_text)
    checked = 0
    for cid, (xs, ys) in cf.samples.items():
        if xs.startswith("~") or ys.startswith("~"):
            continue
        y = Fraction(ys)
        x = Fraction(xs) + (cf.shear * y if cf.shear is not None else 0)
        if contains_point(formula, (x, y)) != cf.cells[cid][1]:
            return f"cell {cid}: inM flag disagrees with contains_point at ({x}, {y})"
        checked += 1
    if checked == 0:
        return "no exactly rational sample to check"
    return ""


def algebraic_cycle(rng, cycle: int, work: str):
    ops = []
    for family in (QUARTIC_FENCE, THREE_ELLIPSE_FENCE, TWO_ELLIPSES):
        ops.append(decompose_op(family, family.templates[0], work,
                                f"c{cycle}-{family.name}"))
    for family in ALGEBRAIC_FAMILIES:
        for k, formula in enumerate(draws(family, rng, cycle)):
            ops.append(decompose_op(family, formula, work, f"c{cycle}-{family.name}-{k}"))
    return ops


def rational_cycle(rng, cycle: int, work: str):
    """Every other op of a cycle writes simplicialized output.  The pattern
    is the same in every cycle, so a run's mix does not depend on how many
    cycles fit in it."""
    formulas = []
    for family in (DISK, ANNULUS, WHISKER) + RATIONAL_FAMILIES:
        if family.draws == 0:
            formulas.append((family, family.templates[0]))
        else:
            formulas += [(family, f) for f in draws(family, rng, cycle)]
    return [decompose_op(family, formula, work, f"c{cycle}-{i}-{family.name}",
                         simplicialize=i % 2 == 1)
            for i, (family, formula) in enumerate(formulas)]
