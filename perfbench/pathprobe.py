"""Seeded ``specta path`` probes with analytic answers.

Paths are the factorial path (t, sum_{n>=2} n! t^n) and polynomial or
ratio paths (t, p(t)) and (t, a(t)/b(t)) at truncations 16 to 64.  Every
expected answer is worked out here, with a small power-series routine of
its own or in closed form:

* member: the appendix separator of order k vanishes at the basepoint of
  the factorial path up to the truncation (IN_IDEAL_UP_TO_T); y - p(x)
  lies exactly in the ideal of (t, p(t)), and y - p(x) + c x^j does not,
  with witness order j and coefficient c;
* separate: on (t, sum_{2<=n<w} n! t^n) the least separating index is w
  with value (w!)^2 / ((w!)^2 + 1);
* eval: the series of a polynomial in x, y along the path, term by term;
* bound: one more than the largest order of positive polynomials;
* neighborhood: a path lies in its own tube (inner leading coefficient 1,
  window 1/k^2); a perturbation c t^j with j <= ell leaves it, with inner
  leading coefficient -c^2.
"""

from fractions import Fraction
from math import ceil, factorial
import os

from ops import Op, Verdict, q

# A cycle's ops, with everything that sets their cost fixed: truncation,
# order k, index w, degrees and monomial supports.  The seed draws the
# coefficients only, so a cycle costs about the same under every seed.
FACTORIAL_MEMBERS = ((16, 8), (32, 12), (64, 12))   # (T, k)
SEPARATE_W = (6, 9)
# (T, numerator degree, denominator degree, monomials of the function)
RATIO_EVALS = (
    (24, 3, 2, ((1, 0), (0, 1))),
    (32, 3, 2, ((1, 1), (2, 0))),
    (32, 2, 2, ((0, 2), (1, 0))),
    (32, 3, 1, ((1, 1), (0, 1))),
    (48, 2, 1, ((2, 0), (0, 1))),
)
POLY_EVAL = (32, 4, ((1, 1), (0, 2), (3, 0)))       # (T, degree, monomials)
BOUND_POLYS = (((2, 0), (0, 1)), ((1, 1),), ((3, 0), (0, 2)))
PROBE_T = 32            # bound, tube and ideal ops on one polynomial path
PROBE_LOWEST, PROBE_DEGREE = 2, 5
TUBE_ELL, TUBE_K, TUBE_J = 3, 3, 2
WITNESS_ORDER = 4


# -- text ------------------------------------------------------------------


def _signed_sum(terms) -> str:
    """'3*t^2 - t^5' from [(3, 't^2'), (-1, 't^5')]; '' is the monomial 1."""
    out = ""
    for c, mono in terms:
        mag = abs(Fraction(c))
        body = q(mag) if not mono else (mono if mag == 1 else f"{q(mag)}*{mono}")
        if not out:
            out = ("-" if c < 0 else "") + body
        else:
            out += (" - " if c < 0 else " + ") + body
    return out or "0"


def poly_text(coeffs, var) -> str:
    """sum coeffs[n] var^n."""
    return _signed_sum((c, "" if n == 0 else (var if n == 1 else f"{var}^{n}"))
                       for n, c in enumerate(coeffs) if c)


def bivariate_text(terms) -> str:
    """terms: {(i, j): c} for c x^i y^j."""
    return _signed_sum(
        (c, "*".join(v if e == 1 else f"{v}^{e}" for v, e in (("x", i), ("y", j)) if e))
        for (i, j), c in sorted(terms.items()))


def factorial_partial(lo, hi):
    """Coefficients of sum n! t^n over lo <= n < hi."""
    return [Fraction(factorial(n)) if lo <= n else Fraction(0) for n in range(hi)]


def separator_text(k: int) -> str:
    p = poly_text(factorial_partial(2, k + 1), "x")
    return f"(y - ({p}))^2 / ((y - ({p}))^2 + x^{2 * k})"


# -- reference series ------------------------------------------------------


def series_mul(a, b, n):
    out = [Fraction(0)] * n
    for i, x in enumerate(a[:n]):
        if x:
            for j, y in enumerate(b[:n - i]):
                out[i + j] += x * y
    return out


def series_div(a, b, n):
    """a / b to n terms; b[0] != 0."""
    a = list(a[:n]) + [Fraction(0)] * (n - len(a[:n]))
    out = []
    for i in range(n):
        c = a[i] - sum(out[j] * b[i - j] for j in range(max(0, i - len(b) + 1), i))
        out.append(c / b[0])
    return out


def poly_quotient(a, b):
    """a / b as coefficients when b divides a exactly, else None."""
    a = list(a)
    while len(b) > 1 and b[-1] == 0:
        b = b[:-1]
    out = [Fraction(0)] * max(1, len(a) - len(b) + 1)
    for i in range(len(a) - len(b), -1, -1):
        c = a[i + len(b) - 1] / b[-1]
        out[i] = c
        for j, bj in enumerate(b):
            a[i + j] -= c * bj
    return out if not any(a) else None


def eval_series(terms, x, y, n):
    """sum c x^i y^j to n terms for series x, y."""
    total = [Fraction(0)] * n
    for (i, j), c in terms.items():
        s = [Fraction(1)] + [Fraction(0)] * (n - 1)
        for _ in range(i):
            s = series_mul(s, x, n)
        for _ in range(j):
            s = series_mul(s, y, n)
        total = [u + c * v for u, v in zip(total, s)]
    return total


def parse_series(stdout):
    """(exact, trunc or None, {exponent: coefficient}) from records output."""
    lines = stdout.splitlines()
    head = dict(p.split("=", 1) for p in lines[0].split()[1:])
    terms = {}
    for line in lines[1:]:
        kv = dict(p.split("=", 1) for p in line.split()[1:])
        terms[Fraction(kv["e"])] = Fraction(kv["c"])
    trunc = None if head["trunc"] == "-" else Fraction(head["trunc"])
    return head["exact"] == "1", trunc, terms


# -- draws -----------------------------------------------------------------


def draw_poly(rng, lowest, degree):
    """Integer polynomial with terms of every degree from ``lowest`` to
    ``degree``, none below, and a positive lowest coefficient."""
    coeffs = [0] * lowest + [rng.randint(1, 4)]
    coeffs += [rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]) for _ in range(degree - lowest)]
    return [Fraction(c) for c in coeffs]


def draw_bivariate(rng, support, positive=False):
    """{(i, j): c} on the given monomials, with seeded nonzero c."""
    return {mono: Fraction(rng.randint(1, 5) if positive
                           else rng.choice([-3, -2, -1, 1, 2, 3]))
            for mono in support}


def path_file(T, second):
    return f"path m=2 T={T}\npoly: t\n{second}\n"


# -- ops -------------------------------------------------------------------


def _records(stdout):
    return dict(p.split("=", 1) for p in stdout.split()[1:])


def member_factorial_op(work, tag, T, k) -> Op:
    src = os.path.join(work, f"{tag}.path")
    argv = ["path", src, "member", "--fn", separator_text(k), "--format", "records"]

    def check(rc, stdout, files):
        if rc != 0:
            return Verdict(False, f"exit {rc}")
        status = _records(stdout).get("status")
        return Verdict(status == "IN_IDEAL_UP_TO_T", f"k={k} T={T}: {status}")

    return Op("member-factorial", argv, {src: path_file(T, "factorial")}, (), check)


def separate_op(work, tag, w) -> Op:
    src = os.path.join(work, f"{tag}.path")
    mu = "t, " + poly_text(factorial_partial(2, w), "t")
    argv = ["path", src, "separate", "--mu", mu, "--kmax", "12", "--format", "records"]
    square = factorial(w) ** 2
    want = {"k": str(w), "value": q(Fraction(square, square + 1))}

    def check(rc, stdout, files):
        if rc != 0:
            return Verdict(False, f"exit {rc}")
        got = _records(stdout)
        return Verdict(got == want, f"w={w}: {got} != {want}")

    return Op("separate", argv, {src: path_file(32, "factorial")}, (), check)


def eval_op(work, tag, T, p_or_ratio, terms) -> Op:
    """p_or_ratio: coefficient list p, or (a, b) for the ratio a/b."""
    src = os.path.join(work, f"{tag}.path")
    if isinstance(p_or_ratio, tuple):
        a, b = p_or_ratio
        second = f"ratio: ({poly_text(a, 't')})/({poly_text(b, 't')})"
        slot = "eval-ratio"
    else:
        second = f"poly: {poly_text(p_or_ratio, 't')}"
        slot = "eval-poly"
    argv = ["path", src, "eval", "--fn", bivariate_text(terms), "--format", "records"]

    # along a ratio path the series is truncated, unless the function ignores
    # y or the ratio is a polynomial
    quotient = poly_quotient(a, b) if slot == "eval-ratio" else p_or_ratio
    truncated = quotient is None and any(j for _, j in terms)

    def check(rc, stdout, files):
        if rc != 0:
            return Verdict(False, f"exit {rc}")
        exact, trunc, got = parse_series(stdout)
        if exact == truncated or (truncated and trunc < T):
            return Verdict(False, f"{slot}: exact={exact} trunc={trunc} at T={T}")
        if truncated:
            n = ceil(trunc)
            y = series_div(a, b, n)
        else:
            y = quotient or [Fraction(0)]
            n = 1 + max(i + j * (len(y) - 1) for i, j in terms)
        want = eval_series(terms, [Fraction(0), Fraction(1)], y, n)
        want = {Fraction(e): c for e, c in enumerate(want) if c}
        return Verdict(got == want, f"series differs from the reference ({slot})")

    return Op(slot, argv, {src: path_file(T, second)}, (), check)


def bound_op(work, tag, T, p, polys) -> Op:
    src = os.path.join(work, f"{tag}.path")
    w = next(n for n, c in enumerate(p) if c)
    want = 1 + max(min(i + j * w for i, j in terms) for terms in polys)
    argv = ["path", src, "bound", "--polys",
            ", ".join(bivariate_text(t) for t in polys), "--format", "records"]

    def check(rc, stdout, files):
        if rc != 0:
            return Verdict(False, f"exit {rc}")
        got = _records(stdout).get("k")
        return Verdict(got == str(want), f"bound {got}, expected {want}")

    return Op("bound", argv, {src: path_file(T, f"poly: {poly_text(p, 't')}")}, (), check)


def neighborhood_op(work, tag, T, p, ell, k, perturb=None) -> Op:
    """perturb: (c, j) adds c t^j, j <= ell, to the probed path."""
    src = os.path.join(work, f"{tag}.path")
    argv = ["path", src, "neighborhood", "--ell", str(ell), "--k", str(k),
            "--format", "records"]
    want = {"ell": str(ell), "k": str(k), "member": "1", "inner": "1",
            "window": q(Fraction(1, k * k))}
    if perturb is not None:
        c, j = perturb
        mu = list(p) + [Fraction(0)] * max(0, j + 1 - len(p))
        mu[j] += c
        argv += ["--mu", "t, " + poly_text(mu, "t")]
        want.update(member="0", inner=q(-c * c))

    def check(rc, stdout, files):
        if rc != 0:
            return Verdict(False, f"exit {rc}")
        got = _records(stdout.splitlines()[0])
        return Verdict(got == want, f"{got} != {want}")

    slot = "neighborhood" if perturb is None else "neighborhood-out"
    return Op(slot, argv, {src: path_file(T, f"poly: {poly_text(p, 't')}")}, (), check)


def member_poly_op(work, tag, T, p, witness=None) -> Op:
    """witness: (c, j) adds c x^j to y - p(x), which then leaves the ideal."""
    src = os.path.join(work, f"{tag}.path")
    fn = f"y - ({poly_text(p, 'x')})"
    want = {"status": "EXACTLY_IN_IDEAL"}
    if witness is not None:
        c, j = witness
        fn += f" + {q(c)}*x^{j}" if c > 0 else f" - {q(-c)}*x^{j}"
        want = {"status": "NOT_IN_IDEAL", "order": str(j), "coefficient": q(c)}
    argv = ["path", src, "member", "--fn", fn, "--ideal", "p_alpha", "--format", "records"]

    def check(rc, stdout, files):
        if rc != 0:
            return Verdict(False, f"exit {rc}")
        got = _records(stdout)
        got.pop("truncation", None)
        return Verdict(got == want, f"{got} != {want}")

    slot = "member-poly" if witness is None else "member-poly-out"
    return Op(slot, argv, {src: path_file(T, f"poly: {poly_text(p, 't')}")}, (), check)


def paths_cycle(rng, cycle: int, work: str):
    tag = f"c{cycle}"
    ops = [member_factorial_op(work, f"{tag}-member-{T}", T, k)
           for T, k in FACTORIAL_MEMBERS]
    ops += [separate_op(work, f"{tag}-separate-{i}", w) for i, w in enumerate(SEPARATE_W)]
    T, degree, support = POLY_EVAL
    ops.append(eval_op(work, f"{tag}-eval-poly", T, draw_poly(rng, 0, degree),
                       draw_bivariate(rng, support)))
    for i, (T, num, den, support) in enumerate(RATIO_EVALS):
        b = draw_poly(rng, 0, den)
        b[0] = Fraction(rng.choice([-2, -1, 1, 2]))
        ops.append(eval_op(work, f"{tag}-eval-ratio-{i}", T,
                           (draw_poly(rng, 0, num), b), draw_bivariate(rng, support)))
    p = draw_poly(rng, PROBE_LOWEST, PROBE_DEGREE)
    polys = [draw_bivariate(rng, support, positive=True) for support in BOUND_POLYS]
    ops.append(bound_op(work, f"{tag}-bound", PROBE_T, p, polys))
    ops.append(neighborhood_op(work, f"{tag}-tube", PROBE_T, p, TUBE_ELL, TUBE_K))
    c = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
    ops.append(neighborhood_op(work, f"{tag}-tube-out", PROBE_T, p, TUBE_ELL, TUBE_K,
                               perturb=(c, TUBE_J)))
    ops.append(member_poly_op(work, f"{tag}-ideal", PROBE_T, p))
    ops.append(member_poly_op(work, f"{tag}-ideal-out", PROBE_T, p,
                              witness=(c, WITNESS_ORDER)))
    return ops
