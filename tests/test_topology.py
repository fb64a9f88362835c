"""Tests for the cell-complex engine: bricks, rho, eta, core, fingerprints.

Frozen expectations for the standard shapes were derived by hand (Euler
counts, component counts, dangling endpoints, locally compact parts) and
are asserted exactly.  The corpus battery then checks the structural
invariants on a seeded family of random simplicial complexes.
"""

import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import by_id
import corpus
import specta
from specta.topology import (
    BrickRecord,
    CellComplex,
    FingerprintData,
    NotInM,
    RegularityViolation,
    TopologyError,
    _components,
    _joined_count,
    barycentric_subdivision,
    bricks,
    compare_spectral_types,
    core,
    eta_set,
    fingerprint_data,
    is_compact,
    local_dimension,
    parse_complex,
    restrict,
    rho_sequence,
    serialize_complex,
    spectral_fingerprint,
)

CORPUS = corpus.full_corpus()


# ---------------------------------------------------------------------------
# construction and text format


def test_parse_requires_header():
    with pytest.raises(TopologyError):
        parse_complex("cell v dim=0 inM=1\n")


def test_parse_rejects_unknown_face_ids():
    with pytest.raises(TopologyError):
        parse_complex("complex ambient=1 bounded=1\ncell v dim=0 inM=1\nface v w\n")


def test_parse_rejects_duplicate_cell():
    text = ("complex ambient=1 bounded=1\n"
            "cell v dim=0 inM=1\ncell v dim=0 inM=0\n")
    with pytest.raises(TopologyError):
        parse_complex(text)


def test_parse_rejects_dim_above_ambient():
    with pytest.raises(TopologyError):
        parse_complex("complex ambient=1 bounded=1\ncell f dim=2 inM=1\n")


INTERVAL_TEXT = """\
complex ambient=1 bounded=1
cell a dim=0 inM=1
cell b dim=0 inM=1
cell e dim=1 inM=1
face a e
face b e
"""


def test_parse_skips_comment_lines():
    text = ("complex ambient=1 bounded=1\n"
            "# annotation, ignored\n"
            "cell v dim=0 inM=1\n")
    K = parse_complex(text)
    assert K.m_cells() == {"v"}
    # a trailing comment, and key=value fields in the other order, read as
    # the canonical record
    for good, variant in [("face a e", "face a e  # the interval"),
                          ("cell a dim=0 inM=1", "cell a inM=1 dim=0"),
                          ("complex ambient=1 bounded=1", "complex bounded=1 ambient=1")]:
        assert serialize_complex(parse_complex(INTERVAL_TEXT.replace(good, variant))) \
            == INTERVAL_TEXT


# (line of INTERVAL_TEXT, its malformed replacement)
MALFORMED_FIELDS = [
    ("complex ambient=1 bounded=1", "complex ambient=1 bounded=yes"),
    ("complex ambient=1 bounded=1", "complex ambient=1 bounded=2"),
    ("complex ambient=1 bounded=1", "complex ambient=1"),
    ("complex ambient=1 bounded=1", "complex ambient=1 bounded=1 closed=1"),
    ("complex ambient=1 bounded=1", "complex ambient=1 bounded=1 bounded=0"),
    ("cell a dim=0 inM=1", "cell a dim=0 inM=true"),
    ("cell a dim=0 inM=1", "cell a dim=0 inM="),
    ("cell a dim=0 inM=1", "cell a dim=0 inm=1"),
    ("cell a dim=0 inM=1", "cell a dim=0 inM=1 colour=red"),
    ("cell a dim=0 inM=1", "cell a dim=0 inM=1 junk"),
    ("face a e", "face a e b"),
    ("face a e", "face a"),
]


@pytest.mark.parametrize("extra, message", [
    ("vertex a dim=0", "unknown record 'vertex'"),
    ("complex ambient=1 bounded=1", "duplicate complex header"),
])
def test_parse_rejects_unknown_records_and_a_second_header(extra, message):
    with pytest.raises(TopologyError) as info:
        parse_complex(INTERVAL_TEXT + extra + "\n")
    assert str(info.value) == message


@pytest.mark.parametrize("good, bad", MALFORMED_FIELDS)
def test_parse_rejects_unknown_fields_and_flag_values(good, bad):
    # a flag read as 0 whenever it is not "1" would turn a typo into a
    # different set, and flip compactness with it
    text = INTERVAL_TEXT.replace(good, bad)
    lineno = text.splitlines().index(bad) + 1
    with pytest.raises(TopologyError) as info:
        parse_complex(text)
    assert type(info.value) is TopologyError
    assert str(info.value) == f"malformed line {lineno}: {bad!r}"


def test_loop_edge_rejected():
    # a 1-cell glued to a single 0-cell is not a regular interval
    with pytest.raises(RegularityViolation):
        CellComplex(1, True, {"v": (0, True), "e": (1, True)}, [("v", "e")])


def test_face_pairs_must_decrease_dimension():
    with pytest.raises(TopologyError):
        CellComplex(1, True, {"v": (0, True), "w": (0, True)}, [("v", "w")])
    # a cell is not a face of itself: the same check refuses (v, v)
    with pytest.raises(TopologyError) as info:
        parse_complex("complex ambient=1 bounded=1\ncell v dim=0 inM=1\nface v v\n")
    assert type(info.value) is TopologyError
    assert str(info.value) == "face pair ('v', 'v') does not decrease dimension"


# (records after the header, ambient dimension, error text): several
# faults in one text, so the first in record order must be the one named
BUILDER_FAULTS = [
    (["cell a dim=0 inM=1", "cell a dim=0 inM=1", "cell b dim=-1 inM=1"], 1,
     "duplicate cell id 'a'"),
    (["cell b dim=-1 inM=1", "cell a dim=0 inM=1", "cell a dim=0 inM=1"], 1,
     "negative dimension for cell 'b'"),
    (["cell a dim=0 inM=1", "cell f dim=2 inM=1", "cell a dim=0 inM=1"], 1,
     "cell 'f' has dimension 2 above ambient 1"),
    (["cell v dim=0 inM=1", "cell w dim=0 inM=1", "face v w", "face v zz"], 1,
     "face pair ('v', 'w') does not decrease dimension"),
    (["cell v dim=0 inM=1", "cell w dim=0 inM=1", "face zz w", "face v w"], 1,
     "face pair ('zz', 'w') references unknown cell"),
    (["cell v dim=0 inM=1", "cell e dim=1 inM=1", "face v e"], 2,
     "1-cell 'e' has 1 distinct endpoints, need 2"),
    (["cell v dim=0 inM=1", "cell v dim=0 inM=1"], 0,
     "ambient dimension must be positive"),
]


@pytest.mark.parametrize("records, ambient, message", BUILDER_FAULTS)
def test_parser_and_constructor_raise_the_first_fault_in_record_order(records, ambient, message):
    # parse_complex hands typed tables to the builder that the public
    # constructor also ends in; both name the fault a record-by-record
    # check meets first
    text = "\n".join([f"complex ambient={ambient} bounded=1"] + records) + "\n"
    with pytest.raises(TopologyError) as parsed:
        parse_complex(text)
    cells = [r.split() for r in records if r.startswith("cell")]
    faces = [r.split()[1:] for r in records if r.startswith("face")]
    with pytest.raises(TopologyError) as built:
        CellComplex(str(ambient), 1, [(f[1], f[2][4:], f[3] == "inM=1") for f in cells], faces)
    assert str(parsed.value) == str(built.value) == message
    assert type(parsed.value) is type(built.value)


def test_round_trip_is_byte_identical():
    for K in CORPUS:
        text = serialize_complex(K)
        K2 = parse_complex(text)
        assert K2 == K
        assert serialize_complex(K2) == text


# -- line parser reference ------------------------------------------------------
# parse_complex as it was before well-formed face and cell records took a
# direct branch: every line through the one general branch.


def _reference_fields(parts, key, flag):
    first, second = sorted(parts)
    if not first.startswith(key + "=") or second not in (flag + "=0", flag + "=1"):
        raise ValueError("unknown, missing or repeated field, or a flag not 0 or 1")
    return int(first[len(key) + 1:]), second[-1] == "1"


def _reference_parse_complex(text):
    header = None
    cells = []
    faces = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        kind = parts[0]
        if kind not in ("face", "cell", "complex"):
            raise TopologyError(f"unknown record {kind!r}")
        if kind == "complex" and header is not None:
            raise TopologyError("duplicate complex header")
        try:
            if kind == "face":
                _, small, big = parts
                faces.append((small, big))
            elif kind == "cell":
                cells.append((parts[1], *_reference_fields(parts[2:], "dim", "inM")))
            else:
                header = _reference_fields(parts[1:], "ambient", "bounded")
        except (IndexError, ValueError) as exc:
            raise TopologyError(f"malformed line {lineno}: {raw!r}") from exc
    if header is None:
        raise TopologyError("missing complex header")
    return CellComplex(*header, cells, faces)


def _parse_outcome(parse, text):
    """The parsed tables, or the type and text of the error raised."""
    try:
        K = parse(text)
    except TopologyError as exc:
        return type(exc), str(exc)
    return (K.ambient_dim, K.bounded, K.ids, K.dims, K.flags, K._closure, K._star)


# (first word of the record, function of the line's fields -> mutated line)
PARSE_MUTATIONS = [
    ("cell", lambda f: f"cell {f[1]} {f[3]} {f[2]}"),                # reversed fields
    ("complex", lambda f: f"complex {f[2]} {f[1]}"),
    ("cell", lambda f: f"cell {f[1]} dim=+{f[2][4:]} {f[3]}"),
    ("cell", lambda f: f"cell {f[1]} dim=² {f[3]}"),
    ("cell", lambda f: f"cell {f[1]} {f[2]} inM=2"),
    ("face", lambda f: f"face {f[1]} {f[2]}  # comment"),
    ("cell", lambda f: "\t".join(f)),
    ("face", lambda f: "\tface\t" + "\t".join(f[1:])),
    ("face", lambda f: f"face {f[1]} {f[2]} {f[1]}"),
    ("cell", lambda f: f"cell {f[1]} {f[2]}"),
]


def test_parse_matches_reference_line_parser():
    texts = [serialize_complex(K) for K in CORPUS] + [INTERVAL_TEXT]
    accepted = rejected = 0
    for text in texts:
        assert _parse_outcome(parse_complex, text) == _parse_outcome(
            _reference_parse_complex, text)
        lines = text.splitlines()
        for kind, mutate in PARSE_MUTATIONS:
            at = next(i for i, ln in enumerate(lines) if ln.startswith(kind + " "))
            mutated = "\n".join(lines[:at] + [mutate(lines[at].split())]
                                + lines[at + 1:]) + "\n"
            outcome = _parse_outcome(parse_complex, mutated)
            assert outcome == _parse_outcome(_reference_parse_complex, mutated), mutated
            if isinstance(outcome[0], type):
                rejected += 1
            else:
                accepted += 1
    # both outcomes occur: reversed fields, dim=+1, comments and tabs read
    # as the record; dim=², inM=2 and a wrong field count are malformed
    assert accepted == 6 * len(texts) and rejected == 4 * len(texts)


def test_serialize_orders_numeric_ids_naturally():
    cells = {f"v{i}": (0, True) for i in (2, 10, 1)}
    K = CellComplex(1, True, cells, [])
    text = serialize_complex(K)
    lines = [ln for ln in text.splitlines() if ln.startswith("cell")]
    assert [ln.split()[1] for ln in lines] == ["v1", "v2", "v10"]


_TIED_IDS = """\
from specta.topology import CellComplex, restrict, serialize_complex
K = CellComplex(1, True, {c: (0, True) for c in ("p1", "p01", "p001", "q1", "q01")}, [])
print(serialize_complex(restrict(K, K.m_cells())), end="")
"""


def test_id_order_is_total_across_hash_seeds():
    # p1, p01 and p001 read as the same number; a restriction inserts its
    # cells in set order, so only a total id order keeps the output fixed
    pkg_parent = os.path.dirname(os.path.dirname(os.path.abspath(specta.__file__)))
    outs = set()
    for hash_seed in ("1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=pkg_parent)
        proc = subprocess.run([sys.executable, "-c", _TIED_IDS],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outs.add(proc.stdout)
    assert len(outs) == 1
    cells = [ln.split()[1] for ln in outs.pop().splitlines() if ln.startswith("cell")]
    assert cells == ["p001", "p01", "p1", "q01", "q1"]


SUPERSCRIPT_TEXT = """\
complex ambient=1 bounded=1
cell v0 dim=0 inM=1
cell 1² dim=0 inM=1
cell e dim=1 inM=1
face v0 e
face 1² e
"""


def test_ids_with_non_decimal_digits_sort_as_text():
    # '²' is a digit to str.isdigit but not a decimal one, so int() refuses
    # it: only the decimal runs of an id are read as numbers
    K = parse_complex(SUPERSCRIPT_TEXT)
    text = serialize_complex(K)
    assert [ln.split()[1] for ln in text.splitlines() if ln.startswith("cell")] \
        == ["1²", "e", "v0"]
    assert parse_complex(text) == K
    sub = barycentric_subdivision(K)
    assert sorted(sub.ids) == sorted(["1²", "e", "v0", "1²|e", "v0|e"])
    assert spectral_fingerprint(sub) == spectral_fingerprint(K)


# ---------------------------------------------------------------------------
# local dimension and bricks on the standard shapes


def test_local_dimension_whisker():
    K = corpus.disk_with_whisker()
    assert local_dimension(K, "p1") == 2
    assert local_dimension(K, "p2") == 1
    assert local_dimension(K, "whisk") == 1
    assert local_dimension(K, "dU") == 2


def test_local_dimension_requires_membership():
    K = corpus.open_interval()
    with pytest.raises(NotInM):
        local_dimension(K, "v0")
    with pytest.raises(TopologyError):
        local_dimension(K, "nope")
    # a given M is checked as a set of cell ids before cid is looked up in it
    with pytest.raises(TopologyError, match=r"unknown cells: \['zz'\]"):
        local_dimension(K, "e", {"zz"})
    with pytest.raises(NotInM):
        local_dimension(K, "v0", ["e"])
    assert local_dimension(K, "v0", ["v0", "e"]) == 1


def test_whisker_bricks():
    K = corpus.disk_with_whisker()
    bs = by_id.bricks(K)
    assert [b.dimension for b in bs] == [2, 1]
    assert bs[0].cells == frozenset(
        {"pm1", "p1", "arcU", "arcL", "diam", "dU", "dL"})
    # the attachment point p1 belongs to the closure of the whisker too
    assert bs[1].cells == frozenset({"p1", "p2", "whisk"})


def test_pure_complex_has_single_brick():
    for make in (corpus.closed_disk, corpus.circle, corpus.sphere_shell,
                  corpus.annulus_ring, corpus.theta_graph):
        K = make()
        bs = by_id.bricks(K)
        assert len(bs) == 1
        assert bs[0].cells == frozenset(K.m_cells())


def test_bricks_of_empty_complex_raise():
    K = CellComplex(1, True, {"v": (0, False)}, [])
    with pytest.raises(TopologyError):
        bricks(K)


# ---------------------------------------------------------------------------
# rho sequence, eta, core


def test_rho_open_disk_plus_boundary_point():
    K = corpus.open_disk_plus_boundary_point()
    rho0, rho1, m_lc = by_id.rho_sequence(K)
    assert rho0 == {"a", "e1", "e2"}
    assert rho1 == {"b"}
    assert m_lc == {"f"}


def test_rho_empty_for_locally_compact_shapes():
    for make in (corpus.closed_interval, corpus.open_interval,
                  corpus.half_open_interval, corpus.closed_disk,
                  corpus.open_disk, corpus.disk_with_whisker):
        _, rho1, _ = rho_sequence(make())
        assert rho1 == set()


def test_eta_interval_endpoints():
    assert by_id.eta_set(corpus.closed_interval()) == {"v0", "v1"}
    assert by_id.eta_set(corpus.open_interval()) == set()
    assert by_id.eta_set(corpus.half_open_interval()) == {"v1"}


def test_eta_whisker_tip_only():
    K = corpus.disk_with_whisker()
    # p1 touches the 2-dimensional part, so only the free tip counts
    assert by_id.eta_set(K) == {"p2"}


def test_eta_ignores_branch_points():
    assert eta_set(corpus.theta_graph()) == set()


def test_compactness():
    assert is_compact(corpus.closed_interval())
    assert not is_compact(corpus.open_interval())
    assert not is_compact(corpus.half_open_interval())
    assert is_compact(corpus.circle())
    assert is_compact(corpus.disk_with_whisker())
    assert not is_compact(corpus.open_disk_plus_boundary_point())
    unbounded = INTERVAL_TEXT.replace("bounded=1", "bounded=0")
    assert not is_compact(parse_complex(unbounded))


def test_compactness_of_subset():
    K = corpus.disk_with_whisker()
    assert by_id.is_compact(K, {"p1", "p2", "whisk"})
    assert not by_id.is_compact(K, {"whisk"})
    with pytest.raises(NotInM):
        by_id.is_compact(corpus.open_interval(), {"v0"})


def _unbounded(K):
    return parse_complex(serialize_complex(K).replace("bounded=1", "bounded=0"))


def test_index_kernels_reject_what_is_not_a_cell_index():
    closed = corpus.closed_interval()
    for K in (closed, _unbounded(closed)):
        for kernel in (bricks, rho_sequence, eta_set, is_compact):
            # a negative index would read another cell's tables
            for bad in ({-1}, {len(K.ids)}, {"v0"}):
                with pytest.raises(TopologyError):
                    kernel(K, bad)
    # the subset is checked before the header's bounded flag is read
    K = _unbounded(corpus.open_interval())
    with pytest.raises(NotInM):
        by_id.is_compact(K, {"v0"})
    assert by_id.is_compact(K, {"e"}) is False


def test_fingerprint_data_rejects_cells_outside_m():
    # compact is read off rho0, so only the per-brick is_compact sees the cell
    K = corpus.open_interval()
    for M in ({"v0"}, {"v0", "e"}):
        with pytest.raises(NotInM):
            fingerprint_data(K, M)


def test_core_of_closed_interval_is_open_interval():
    K = corpus.closed_interval()
    C = core(K)
    assert C.m_cells() == {"e"}
    assert {c for c in C.cells} == {"v0", "v1", "e"}


def test_core_of_disk_plus_point_is_open_disk():
    K = corpus.open_disk_plus_boundary_point()
    C = core(K)
    assert C.m_cells() == {"f"}
    assert fingerprint_data(C) == fingerprint_data(corpus.open_disk())


# ---------------------------------------------------------------------------
# fingerprints on the standard shapes


def test_closed_interval_fingerprint():
    d = fingerprint_data(corpus.closed_interval())
    assert (d.dim, d.compact, d.locally_compact) == (1, True, True)
    assert (d.euler, d.components, d.eta_count) == (1, 1, 2)
    assert len(d.bricks) == 1
    b = d.bricks[0]
    assert (b.dimension, b.components, b.euler, b.compact) == (1, 1, 1, True)


def test_open_interval_fingerprint():
    d = fingerprint_data(corpus.open_interval())
    assert (d.dim, d.compact, d.locally_compact) == (1, False, True)
    assert (d.euler, d.components, d.eta_count) == (-1, 1, 0)


def test_euler_characteristics():
    assert fingerprint_data(corpus.circle()).euler == 0
    assert fingerprint_data(corpus.closed_disk()).euler == 1
    assert fingerprint_data(corpus.sphere_shell()).euler == 2
    assert fingerprint_data(corpus.theta_graph()).euler == -1
    assert fingerprint_data(corpus.annulus_ring()).euler == 0
    assert fingerprint_data(corpus.disk_with_whisker()).euler == 1


def test_component_counts():
    assert fingerprint_data(corpus.disconnected_union()).components == 2
    assert fingerprint_data(corpus.circle()).components == 1
    # the boundary vertex meets the open 2-cell only across a dimension gap
    # of 2, so counting over codimension-one faces alone would report 2
    assert fingerprint_data(corpus.open_disk_plus_boundary_point()).components == 1


def test_empty_m_fingerprint():
    K = CellComplex(1, True, {"v": (0, False)}, [])
    d = fingerprint_data(K)
    assert d.dim == -1 and d.euler == 0 and d.components == 0


def test_removing_endpoints_matches_open_interval():
    f_closed = spectral_fingerprint(corpus.closed_interval())
    f_open = spectral_fingerprint(corpus.open_interval())
    assert f_closed.minus_eta == f_open.data
    assert f_closed.core == f_open.core


# ---------------------------------------------------------------------------
# comparison verdicts


def test_closed_vs_open_interval_verdicts():
    r = compare_spectral_types(corpus.closed_interval(), corpus.open_interval())
    assert r.as_dict() == {"S": "RULED_OUT", "S*": "CONSISTENT",
                           "S(N)~S*(M)": "CONSISTENT", "beta*": "CONSISTENT"}


def test_half_open_vs_open_interval_verdicts():
    r = compare_spectral_types(corpus.half_open_interval(),
                               corpus.open_interval())
    assert r.as_dict() == {"S": "RULED_OUT", "S*": "CONSISTENT",
                           "S(N)~S*(M)": "RULED_OUT", "beta*": "CONSISTENT"}
    assert r.evidence == {"S": ["M.euler", "M.eta_count", "M.bricks"], "S*": [],
                          "S(N)~S*(M)": ["N non-compact"], "beta*": []}


def test_half_open_vs_closed_interval_verdicts():
    r = compare_spectral_types(corpus.half_open_interval(),
                               corpus.closed_interval())
    assert r.s == "RULED_OUT"
    assert r.s_star == "CONSISTENT"
    assert r.s_vs_s_star == "RULED_OUT"


def test_identical_complexes_fully_consistent():
    r = compare_spectral_types(corpus.closed_disk(), corpus.closed_disk())
    assert set(r.as_dict().values()) == {"CONSISTENT"}


def test_circle_vs_disk_ruled_out_everywhere():
    r = compare_spectral_types(corpus.circle(), corpus.closed_disk())
    assert set(r.as_dict().values()) == {"RULED_OUT"}


# ---------------------------------------------------------------------------
# corpus battery


def _all_flagged(K):
    """The ambient complex: same carrier, every cell inM."""
    return restrict(K, K.carrier())


def _restrict_by_faces(K, m_cells):
    """Reference restriction: cells plus face pairs through the validating constructor."""
    m_cells = {str(c) for c in m_cells}
    keep = set(m_cells)
    for c in m_cells:
        keep |= K.closure_of(c)
    cells = {cid: (K.dim(cid), cid in m_cells) for cid in keep}
    faces = [(s, b) for b in keep for s in K.closure_of(b) if s in keep]
    return CellComplex(K.ambient_dim, K.bounded, cells, faces)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_sliced_restrict_matches_rebuilt_complex(data):
    K = data.draw(st.sampled_from(corpus.handcrafted()))
    subset = data.draw(st.sets(st.sampled_from(sorted(K.m_cells()))))
    sliced = restrict(K, subset)
    rebuilt = _restrict_by_faces(K, subset)
    assert sliced == rebuilt
    # __eq__ compares closures only; the stars are checked here
    for c in rebuilt.cells:
        assert sliced.star_of(c) == rebuilt.star_of(c)
    # a flagged set over K answers as its restriction does
    assert by_id.rho_sequence(K, subset) == by_id.rho_sequence(sliced)
    if subset:
        assert by_id.bricks(K, subset) == by_id.bricks(sliced)
    assert by_id.eta_set(K, subset) == by_id.eta_set(sliced)
    for c in subset:
        assert local_dimension(K, c, subset) == local_dimension(sliced, c)
    assert fingerprint_data(K, subset) == fingerprint_data(sliced)
    assert fingerprint_data(K, subset) == _reference_fingerprint_data(sliced)


# -- restrict-based reference fingerprint -------------------------------------
# The fingerprint as it was computed before flagged sets: a new restricted
# complex per set and per brick, and components by union-find over closures.


class _UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb

    def count(self):
        return len({self.find(x) for x in self.parent})


def _reference_component_count(K, cells):
    uf = _UnionFind(cells)
    for c in cells:
        for f in K.closure_of(c):
            if f in cells:
                uf.union(c, f)
    return uf.count()


def _reference_eta_set(K):
    carrier = K.carrier()
    out = set()
    for cid in carrier:
        if K.dim(cid) != 0 or not K.in_m(cid):
            continue
        star = [c for c in K.star_of(cid) if c in carrier]
        if any(K.dim(c) >= 2 for c in star):
            continue
        if len([c for c in star if K.in_m(c) and K.dim(c) == 1]) == 1:
            out.add(cid)
    return out


def _reference_fingerprint_data(K):
    M = K.m_cells()
    if not M:
        return FingerprintData(dim=-1, compact=True, locally_compact=True,
                               euler=0, components=0, eta_count=0, bricks=())
    _, rho1, _ = rho_sequence(K)
    records = []
    for b in by_id.bricks(K):
        records.append(BrickRecord(
            dimension=b.dimension,
            components=_reference_component_count(K, b.cells),
            euler=sum((-1) ** K.dim(c) for c in b.cells),
            compact=by_id.is_compact(K, b.cells),
            eta_count=len(_reference_eta_set(restrict(K, b.cells))),
        ))
    return FingerprintData(
        dim=max(K.dim(c) for c in M),
        compact=is_compact(K),
        locally_compact=not rho1,
        euler=sum((-1) ** K.dim(c) for c in M),
        components=_reference_component_count(K, M),
        eta_count=len(_reference_eta_set(K)),
        bricks=tuple(records),
    )


def _reference_spectral_fingerprint(K):
    """(data, minus_eta, core) through restricted complexes."""
    minus_eta = restrict(K, K.m_cells() - _reference_eta_set(K))
    _, _, m_lc = by_id.rho_sequence(K)
    sub = restrict(K, m_lc)
    core_ = restrict(sub, m_lc - _reference_eta_set(sub))
    return tuple(map(_reference_fingerprint_data, (K, minus_eta, core_)))


def _check_against_restrict_reference(K, rng):
    fp = spectral_fingerprint(K)
    assert (fp.data, fp.minus_eta, fp.core) == _reference_spectral_fingerprint(K)
    # the sets the fingerprint carries are those of M, as cell indices
    assert fp.rho == rho_sequence(K) and by_id.named(K, fp.eta) == _reference_eta_set(K)
    assert fp.bricks == (bricks(K) if K.m_cells() else [])
    for _ in range(3):
        M = sorted(K.m_cells())
        subset = set(rng.sample(M, rng.randint(0, len(M))))
        sub = restrict(K, subset)
        assert by_id.eta_set(K, subset) == _reference_eta_set(sub)
        assert fingerprint_data(K, subset) == _reference_fingerprint_data(sub)
        cells = set(rng.sample(sorted(K.cells), rng.randint(0, len(K.cells))))
        # _components takes cell indices; the reference takes ids
        ix = {K._index[c] for c in cells}
        assert len(_components(K, ix)) == _reference_component_count(K, cells)


def test_fingerprint_matches_restrict_reference():
    rng = random.Random(5)
    for K in CORPUS:
        _check_against_restrict_reference(K, rng)


def test_fingerprint_matches_restrict_reference_on_subdivisions():
    # 2-dimensional complexes with hundreds of cells
    rng = random.Random(6)
    for K in CORPUS:
        _check_against_restrict_reference(barycentric_subdivision(K), rng)


def _check_joined_components(K, S):
    """Components of S joined from its bricks', each against the reference; returns S's."""
    found = bricks(K, S)
    parts = [_components(K, b.cells) for b in found]
    for b, brick_parts in zip(found, parts):
        # the parts of a brick partition it, one per component
        assert set().union(*brick_parts) == b.cells
        assert sum(map(len, brick_parts)) == len(b.cells)
        assert len(brick_parts) == _reference_component_count(K, K._names(b.cells))
    count = _joined_count(found, parts)
    assert count == _reference_component_count(K, K._names(S))
    return count


@pytest.mark.parametrize("make, cells, count", [
    # a vertex of an open 2-cell: one brick, joined across the gap
    (corpus.closed_disk, {"f", "a"}, 1),
    (corpus.open_disk_plus_boundary_point, {"f", "b"}, 1),
    # the disk's brick and the whisker's share only p1, a face of dU across
    # a dimension gap of 2; with p2 instead they do not meet
    (corpus.disk_with_whisker, {"dU", "p1", "whisk"}, 1),
    (corpus.disk_with_whisker, {"dU", "p2", "whisk"}, 2),
    (corpus.disk_with_whisker, {"dU", "dL", "pm1", "whisk", "p2"}, 2),
    (corpus.sphere_shell, {"c0_1_2", "c0", "c0_3", "c3", "c1_3"}, 1),
    (corpus.sphere_shell, {"c0_1_2", "c3"}, 2),
])
def test_components_join_across_a_dimension_gap_of_two(make, cells, count):
    K = make()
    S = {K._index[c] for c in cells}
    assert _check_joined_components(K, S) == count


def test_components_joined_from_bricks_match_reference():
    rng = random.Random(8)
    several = 0
    for K in CORPUS + [barycentric_subdivision(K) for K in CORPUS[:20]]:
        for _ in range(4):
            S = set(rng.sample(range(len(K.ids)), rng.randint(1, len(K.ids))))
            _check_joined_components(K, S)
            several += len(bricks(K, S)) > 1
    assert several > 50


def test_restrict_keeps_parent_cell_order():
    # a path of 40 vertices, inserted back to front: no set of these ids
    # iterates in that order under any hash seed worth worrying about
    n = 40
    cells = {f"v{i}": (0, False) for i in reversed(range(n))}
    cells.update({f"e{i}": (1, True) for i in reversed(range(n - 1))})
    faces = [(f"v{i + d}", f"e{i}") for i in range(n - 1) for d in (0, 1)]
    K = CellComplex(1, True, cells, faces)
    kept = {f"e{i}" for i in range(0, n - 1, 3)}
    sub = restrict(K, sorted(kept))
    assert list(sub.cells) == sub.ids == [c for c in K.ids if c in sub.cells]
    # the tables follow that order too: entry i of each belongs to sub.ids[i]
    assert len(sub._closure) == len(sub._star) == len(sub.ids)
    for i, c in enumerate(sub.ids):
        assert {sub.ids[f] for f in sub._closure[i]} == K.closure_of(c)
        assert {sub.ids[b] for b in sub._star[i]} == K.star_of(c) & sub.cells.keys()
    assert sub.m_cells() == kept


def test_corpus_brick_axioms_hold():
    # bricks() verifies purity, covering, density and ordering internally
    for K in CORPUS:
        bs = bricks(K)
        dims = [b.dimension for b in bs]
        assert dims == sorted(dims, reverse=True)
        assert len(set(dims)) == len(dims)


def test_corpus_brick_closure_identity():
    """Bricks of the ambient complex are the closures of the bricks of M."""
    for K in CORPUS:
        X = _all_flagged(K)
        bs_m = by_id.bricks(K)
        bs_x = by_id.bricks(X)
        assert [b.dimension for b in bs_x] == [b.dimension for b in bs_m]
        for bm, bx in zip(bs_m, bs_x):
            closure = set()
            for c in bm.cells:
                closure.add(c)
                closure |= K.closure_of(c)
            assert bx.cells == frozenset(closure)


def test_corpus_locally_compact_part_is_maximal():
    """Adding back any removed cell breaks local compactness again."""
    checked = 0
    for K in CORPUS:
        _, rho1, m_lc = by_id.rho_sequence(K)
        for z in sorted(rho1)[:3]:
            sub = restrict(K, m_lc | {z})
            _, sub_rho1, _ = by_id.rho_sequence(sub)
            assert sub_rho1, f"re-adding {z!r} should break local compactness"
            checked += 1
    assert checked > 0


def test_corpus_graphs_are_locally_compact():
    # dimension <= 1 never produces a nonempty rho1
    import random
    rng = random.Random(7)
    for _ in range(25):
        K = corpus.random_graph_complex(rng)
        _, rho1, _ = rho_sequence(K)
        assert rho1 == set()


def test_corpus_compact_implies_locally_compact():
    for K in CORPUS:
        if is_compact(K):
            _, rho1, _ = rho_sequence(K)
            assert rho1 == set()


def test_corpus_compact_high_dimensional_part_implies_locally_compact():
    # if the set of cells of local dimension >= 2 is compact, rho1 is empty
    checked = 0
    for K in CORPUS:
        high = {c for c in K.m_cells() if local_dimension(K, c) >= 2}
        if high and by_id.is_compact(K, high):
            _, rho1, _ = rho_sequence(K)
            assert rho1 == set()
            checked += 1
    assert checked > 0


def test_corpus_eta_inside_locally_compact_part():
    for K in CORPUS:
        _, _, m_lc = rho_sequence(K)
        assert eta_set(K) <= m_lc


def test_corpus_core_idempotent():
    for K in CORPUS:
        C = core(K)
        assert core(C) == C


def test_corpus_fingerprint_stable_under_self_restriction():
    for K in CORPUS:
        M = K.m_cells()
        if M:
            assert fingerprint_data(restrict(K, M)) == fingerprint_data(K)


def test_corpus_comparison_symmetry():
    pairs = list(zip(CORPUS[::7], CORPUS[3::7]))
    for A, B in pairs:
        r1 = compare_spectral_types(A, B)
        r2 = compare_spectral_types(B, A)
        assert r1.s == r2.s
        assert r1.s_star == r2.s_star
        assert r1.beta_star == r2.beta_star


def test_verdicts_are_read_off_their_evidence():
    # reference verdicts: equal fingerprints, equal M-eta records, N compact
    for A, B in zip(CORPUS, CORPUS[1:] + CORPUS[:1]):
        f1, f2 = spectral_fingerprint(A), spectral_fingerprint(B)
        r = compare_spectral_types(A, B)
        want = {"S": f1 == f2, "S*": f1.minus_eta == f2.minus_eta,
                "S(N)~S*(M)": f1.data.compact and f1.minus_eta == f2.minus_eta,
                "beta*": f1.core == f2.core}
        for channel, verdict in r.as_dict().items():
            assert verdict == ("CONSISTENT" if want[channel] else "RULED_OUT")
            assert (verdict == "RULED_OUT") == bool(r.evidence[channel])
        assert ("N non-compact" in r.evidence["S(N)~S*(M)"]) == (not f1.data.compact)


def test_corpus_self_comparison_reads_consistent_on_every_channel():
    # S(M) and S*(M) are isomorphic exactly when M is compact, so a complex
    # compared with itself is consistent everywhere except on the mixed
    # channel of a non-compact M
    compact = 0
    for K in CORPUS:
        r = compare_spectral_types(K, K)
        assert r.s == r.s_star == r.beta_star == "CONSISTENT"
        assert spectral_fingerprint(K).data.compact == is_compact(K)
        assert (r.s_vs_s_star == "CONSISTENT") == is_compact(K)
        compact += is_compact(K)
    assert 0 < compact < len(CORPUS)


def test_corpus_verdict_implications():
    # full match implies bounded-ring match; the mixed verdict implies it too
    for A, B in zip(CORPUS[::5], CORPUS[2::5]):
        r = compare_spectral_types(A, B)
        if r.s == "CONSISTENT":
            assert r.s_star == "CONSISTENT"
        if r.s_vs_s_star == "CONSISTENT":
            assert r.s_star == "CONSISTENT"


# ---------------------------------------------------------------------------
# barycentric subdivision


def test_subdivision_restores_regularity_and_validates():
    for K in CORPUS[:20]:
        S = barycentric_subdivision(K)
        assert isinstance(S, CellComplex)


def test_subdivision_preserves_fingerprints():
    for K in CORPUS:
        if len(K.cells) > 40:
            continue
        S = barycentric_subdivision(K)
        assert spectral_fingerprint(S) == spectral_fingerprint(K)


def test_subdivision_of_interval_counts():
    S = barycentric_subdivision(corpus.closed_interval())
    zero = [c for c in S.cells if S.dim(c) == 0]
    one = [c for c in S.cells if S.dim(c) == 1]
    assert len(zero) == 3 and len(one) == 2
