"""Triangulated grid complexes with invariants known from their construction.

The generator writes the complex file text itself and never calls specta,
so the expected Euler characteristic, component count, compactness, eta
count and brick count below are an independent reference for ``specta
analyze`` and ``specta compare``.

Construction: an n x m grid of unit squares, each cut into two triangles
along its diagonal.  On top of that:

* holes: interior squares whose open part (two triangles and the
  diagonal) is left out; hole squares are two apart, so each hole lowers
  the Euler characteristic by exactly one and M stays connected;
* a flag pattern for the outer boundary: ``closed`` (all of it in M),
  ``open`` (no boundary cell in M) or ``half-open`` (the bottom side,
  corners included, not in M);
* whiskers: paths of edges hanging off a top-side vertex, with the free
  end either in M (a dangling endpoint, counted by eta) or not;
* isolated points in M.
"""

from dataclasses import dataclass
import os
import random
import re

from ops import Op, Verdict

PATTERNS = ("closed", "open", "half-open")


@dataclass(frozen=True)
class GridSpec:
    n: int
    m: int
    pattern: str
    holes: tuple        # ((i, j), ...) squares, 1 <= i <= n-2, 1 <= j <= m-2
    whiskers: tuple     # ((column, length, end_in_m), ...) on the top side
    points: int


@dataclass(frozen=True)
class Expected:
    cells: int
    euler: int
    components: int
    compact: bool
    eta: int
    bricks: int


def draw_spec(rng: random.Random, n: int, m: int, pattern=None, holes=None,
              whiskers=None, points=None) -> GridSpec:
    """A seeded grid with holes, whiskers, points and a flag pattern.

    A feature given is kept: ``holes`` is a count, ``whiskers`` a tuple of
    (length, end_in_m), ``points`` a count; the seed then places holes and
    whiskers only.  A feature left out is drawn as well."""
    if pattern is None:
        pattern = rng.choice(PATTERNS)
    squares = [(i, j) for i in range(1, n - 1, 2) for j in range(1, m - 1, 2)]
    if holes is None:
        holes = rng.randint(0, min(4, len(squares)))
    hole_squares = tuple(sorted(rng.sample(squares, holes)))
    if whiskers is None:
        whiskers = tuple((rng.randint(1, 3), rng.random() < 0.5)
                         for _ in range(rng.randint(0, min(3, n + 1))))
    columns = rng.sample(range(n + 1), len(whiskers))
    placed = tuple(sorted((c, length, end_in_m)
                          for c, (length, end_in_m) in zip(columns, whiskers)))
    if points is None:
        points = rng.randint(0, 3)
    return GridSpec(n, m, pattern, hole_squares, placed, points)


def expected(spec: GridSpec) -> Expected:
    """Invariants of M read off the construction, not off the cells."""
    n, m = spec.n, spec.m
    grid_cells = (n + 1) * (m + 1) + n * (m + 1) + (n + 1) * m + 3 * n * m
    cells = (grid_cells - 3 * len(spec.holes)
             + sum(2 * length for _, length, _ in spec.whiskers) + spec.points)
    # a triangulated square has chi = 1, and so has its interior; the
    # half-open square misses n + 1 vertices but only n edges of it
    euler = 0 if spec.pattern == "half-open" else 1
    euler -= len(spec.holes)
    euler -= sum(1 for _, _, end_in_m in spec.whiskers if not end_in_m)
    euler += spec.points
    components = 1 + spec.points
    if spec.pattern == "open":
        # the attaching vertex is not in M, so each whisker is cut off
        components += len(spec.whiskers)
    compact = spec.pattern == "closed" and all(e for _, _, e in spec.whiskers)
    eta = sum(1 for _, _, end_in_m in spec.whiskers if end_in_m)
    bricks = 1 + bool(spec.whiskers) + bool(spec.points)
    return Expected(cells, euler, components, compact, eta, bricks)


def build(spec: GridSpec):
    """(cells, faces): cells is a list of (id, dim, in_m), faces lists
    (small, big) pairs of codimension one."""
    n, m = spec.n, spec.m
    holes = set(spec.holes)

    def boundary_vertex(i, j):
        if spec.pattern == "open":
            return i in (0, n) or j in (0, m)
        return spec.pattern == "half-open" and j == 0

    def boundary_hedge(j):
        if spec.pattern == "open":
            return j in (0, m)
        return spec.pattern == "half-open" and j == 0

    def boundary_vedge(i):
        return spec.pattern == "open" and i in (0, n)

    cells = []
    faces = []
    for i in range(n + 1):
        for j in range(m + 1):
            cells.append((f"v{i}_{j}", 0, not boundary_vertex(i, j)))
    for i in range(n):
        for j in range(m + 1):
            cells.append((f"h{i}_{j}", 1, not boundary_hedge(j)))
            faces += [(f"v{i}_{j}", f"h{i}_{j}"), (f"v{i + 1}_{j}", f"h{i}_{j}")]
    for i in range(n + 1):
        for j in range(m):
            cells.append((f"u{i}_{j}", 1, not boundary_vedge(i)))
            faces += [(f"v{i}_{j}", f"u{i}_{j}"), (f"v{i}_{j + 1}", f"u{i}_{j}")]
    for i in range(n):
        for j in range(m):
            if (i, j) in holes:
                continue
            cells += [(f"d{i}_{j}", 1, True), (f"a{i}_{j}", 2, True),
                      (f"b{i}_{j}", 2, True)]
            faces += [(f"v{i}_{j}", f"d{i}_{j}"), (f"v{i + 1}_{j + 1}", f"d{i}_{j}"),
                      (f"h{i}_{j}", f"a{i}_{j}"), (f"u{i + 1}_{j}", f"a{i}_{j}"),
                      (f"d{i}_{j}", f"a{i}_{j}"), (f"u{i}_{j}", f"b{i}_{j}"),
                      (f"h{i}_{j + 1}", f"b{i}_{j}"), (f"d{i}_{j}", f"b{i}_{j}")]
    for k, (col, length, end_in_m) in enumerate(spec.whiskers):
        prev = f"v{col}_{m}"
        for s in range(1, length + 1):
            vid, eid = f"w{k}_{s}", f"e{k}_{s}"
            cells += [(vid, 0, end_in_m or s < length), (eid, 1, True)]
            faces += [(prev, eid), (vid, eid)]
            prev = vid
    for k in range(spec.points):
        cells.append((f"p{k}", 0, True))
    return cells, faces


def complex_text(cells, faces) -> str:
    lines = ["complex ambient=2 bounded=1"]
    lines += [f"cell {cid} dim={dim} inM={int(in_m)}" for cid, dim, in_m in cells]
    lines += [f"face {s} {b}" for s, b in faces]
    return "\n".join(lines) + "\n"


def relabel(cells, faces, rng: random.Random):
    """The same complex under fresh seeded ids and a shuffled record order."""
    fresh = rng.sample(range(10 * len(cells) + 10), len(cells))
    name = {cid: f"k{fresh[i]}" for i, (cid, _, _) in enumerate(cells)}
    new_cells = [(name[cid], dim, in_m) for cid, dim, in_m in cells]
    new_faces = [(name[s], name[b]) for s, b in faces]
    rng.shuffle(new_cells)
    rng.shuffle(new_faces)
    return new_cells, new_faces


def with_extra_point(cells, faces):
    """One more isolated point: every comparison channel must rule it out."""
    return cells + [("pextra", 0, True)], list(faces)


# -- ops -------------------------------------------------------------------

# One cycle: (grid side, pattern, holes, whiskers, points, ops on that grid).
# Sides 5, 10 and 16 give about 180, 650 and 1 650 cells.  Everything that
# sets an op's cost is fixed here, and the seed only places holes and
# whiskers, so a cycle costs about the same under every seed.  M is compact
# on the closed grids, so S(N)~S*(M) is CONSISTENT on their relabel
# compares and RULED_OUT on the others.  Seven of the 16 ops analyse open
# 10 x 10 grids of one make, ranks 6 to 12 by cost, so the median falls
# inside one kind of op and not between two.
OPEN_10 = (10, "open", 2, ((1, True),), 1)
PLAN = (
    (5, "closed", 1, ((2, True),), 1, ("analyze", "compare-relabel", "compare-point")),
    (10, "closed", 2, ((2, True), (1, True)), 0, ("analyze", "compare-relabel")),
    (10, "half-open", 3, ((3, False), (1, True)), 2, ("analyze", "compare-relabel")),
    OPEN_10 + (("analyze", "compare-relabel"),),
) + (OPEN_10 + (("analyze",),),) * 6 + (
    (16, "half-open", 4, ((2, True), (3, False)), 1, ("analyze",)),
)


def _records(stdout):
    """{record key: fields}; fingerprint records are keyed by section."""
    out = {}
    for line in stdout.splitlines():
        head, *rest = line.split()
        fields = dict(p.split("=", 1) for p in rest if "=" in p)
        out[f"{head} {fields['section']}" if head == "fingerprint" else head] = fields
    return out


def analyze_op(work, tag, spec: GridSpec, text: str) -> Op:
    src = os.path.join(work, f"{tag}.complex")
    want = expected(spec)
    exp = (want.cells, want.euler, want.components, int(want.compact), want.eta,
           want.bricks)

    def check(rc, stdout, files):
        if rc != 0:
            return Verdict(False, f"exit {rc}")
        rec = _records(stdout)
        fp = rec["fingerprint M"]
        got = (int(rec["analyze"]["cells"]), int(fp["euler"]), int(fp["components"]),
               int(fp["compact"]), int(fp["eta"]), int(fp["bricks"]))
        ok = (got == exp and rec["eta"]["count"] == str(want.eta)
              and rec["compact"]["value"] == str(int(want.compact)))
        return Verdict(ok, f"{spec}: got {got}, expected {exp}", cells=want.cells)

    return Op("analyze", ["analyze", src, "--format", "records"], {src: text}, (), check)


_VERDICT = re.compile(r"^compare channel=(\S+) verdict=(\S+)", re.M)


def compare_op(work, tag, text_a, text_b, verdicts, cells, slot) -> Op:
    """verdicts: expected channel -> verdict."""
    a, b = os.path.join(work, f"{tag}-a.complex"), os.path.join(work, f"{tag}-b.complex")

    def check(rc, stdout, files):
        if rc != 0:
            return Verdict(False, f"exit {rc}")
        got = dict(_VERDICT.findall(stdout))
        return Verdict(got == verdicts, f"{got} != {verdicts}", cells=cells)

    return Op(slot, ["compare", a, b, "--format", "records"],
              {a: text_a, b: text_b}, (), check)


def complex_cycle(rng, cycle: int, work: str):
    ops = []
    for g, (side, pattern, holes, whiskers, points, kinds) in enumerate(PLAN):
        spec = draw_spec(rng, side, side, pattern, holes, whiskers, points)
        cells, faces = build(spec)
        text = complex_text(cells, faces)
        tag = f"c{cycle}-{g}"
        compact = expected(spec).compact
        same = {"S": "CONSISTENT", "S*": "CONSISTENT", "beta*": "CONSISTENT",
                # S(N)~S*(M) also needs the first complex to be compact
                "S(N)~S*(M)": "CONSISTENT" if compact else "RULED_OUT"}
        if "analyze" in kinds:
            ops.append(analyze_op(work, tag, spec, text))
        if "compare-relabel" in kinds:
            ops.append(compare_op(work, f"{tag}-relabel", text,
                                  complex_text(*relabel(cells, faces, rng)), same,
                                  2 * len(cells), "compare-relabel"))
        if "compare-point" in kinds:
            ops.append(compare_op(work, f"{tag}-point", text,
                                  complex_text(*with_extra_point(cells, faces)),
                                  dict.fromkeys(same, "RULED_OUT"), 2 * len(cells) + 1,
                                  "compare-point"))
    return ops
