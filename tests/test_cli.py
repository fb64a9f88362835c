"""Command line behavior: reports, exit codes, determinism.

Human-format lines asserted verbatim here are part of the scriptable
surface; change them deliberately or not at all.
"""

import collections
import hashlib
import os
import random
import subprocess
import sys

import pytest

import corpus
from test_cad2d import GOLDEN
from test_topology import MALFORMED_FIELDS
import specta
from specta import cad2d, cli, paths, topology
from specta._expr import ExprError, parse_formula
from specta.arith import ArithError
from specta.cli import main

INTERVAL = """\
complex ambient=1 bounded=1
cell a dim=0 inM=1
cell b dim=0 inM=1
cell e dim=1 inM=1
face a e
face b e
"""

OPEN_INTERVAL = INTERVAL.replace("cell a dim=0 inM=1", "cell a dim=0 inM=0") \
                        .replace("cell b dim=0 inM=1", "cell b dim=0 inM=0")
HALF_OPEN = INTERVAL.replace("cell a dim=0 inM=1", "cell a dim=0 inM=0")

FACTORIAL_PATH = "path m=2 T=32\npoly: t\nfactorial\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "disk.formula").write_text("x^2 + y^2 <= 1\n")
    (tmp_path / "interval.complex").write_text(INTERVAL)
    (tmp_path / "open.complex").write_text(OPEN_INTERVAL)
    (tmp_path / "half.complex").write_text(HALF_OPEN)
    (tmp_path / "factorial.path").write_text(FACTORIAL_PATH)
    return tmp_path


# -- decompose -------------------------------------------------------------


def test_decompose_writes_complex_and_summary(workdir, capsys):
    out_file = workdir / "disk.complex"
    code, out, _ = run(capsys, "decompose", str(workdir / "disk.formula"),
                       "-o", str(out_file))
    assert code == 0
    assert out.splitlines()[:4] == [
        "cells dim 0: 2",
        "cells dim 1: 2",
        "cells dim 2: 1",
        "total cells: 5 (decomposition: 13)",
    ]
    K = topology.parse_complex(out_file.read_text())
    assert len(K.cells) == 5 and topology.is_compact(K)


def test_decompose_stdout_when_no_output_file(workdir, capsys):
    code, out, _ = run(capsys, "decompose", str(workdir / "disk.formula"))
    assert code == 0
    K = topology.parse_complex(out)
    assert len(K.cells) == 5


def test_decompose_records_summary(workdir, capsys):
    code, out, _ = run(capsys, "decompose", str(workdir / "disk.formula"),
                       "-o", str(workdir / "d.complex"), "--format", "records")
    assert code == 0
    assert out.splitlines() == [
        "summary dim=0 count=2",
        "summary dim=1 count=2",
        "summary dim=2 count=1",
        "summary total=5 ambient=13",
    ]


def test_decompose_empty_formula(workdir, capsys):
    src = workdir / "empty.formula"
    src.write_text("   \n")
    code, out, _ = run(capsys, "decompose", str(src), "-o",
                       str(workdir / "e.complex"))
    assert code == 0
    assert "total cells: 0" in out
    K = topology.parse_complex((workdir / "e.complex").read_text())
    assert not K.cells


def test_decompose_malformed_formula(workdir, capsys):
    src = workdir / "bad.formula"
    src.write_text("x^+1 <= 0\n")
    code, _, err = run(capsys, "decompose", str(src), "-o",
                       str(workdir / "b.complex"))
    assert code == 1
    assert "parse error" in err and "column" in err


def test_decompose_unbounded_is_exit_2(workdir, capsys):
    src = workdir / "half.formula"
    src.write_text("y >= 0\n")
    code, _, err = run(capsys, "decompose", str(src))
    assert code == 2 and "unbounded" in err


def test_decompose_simplicialize(workdir, capsys):
    out_file = workdir / "disk_sub.complex"
    code, _, _ = run(capsys, "decompose", str(workdir / "disk.formula"),
                     "-o", str(out_file), "--simplicialize")
    assert code == 0
    K = topology.parse_complex(out_file.read_text())
    dec = cad2d.decompose(parse_formula("x^2 + y^2 <= 1"))
    expected = topology.barycentric_subdivision(dec.complex)
    assert len(K.cells) == len(expected.cells)
    assert topology.spectral_fingerprint(K) == topology.spectral_fingerprint(dec.complex)


def test_round_trip_matches_in_memory_on_corpus(workdir, capsys):
    for i, formula in enumerate(GOLDEN):
        src = workdir / f"f{i}.formula"
        src.write_text(formula + "\n")
        out_file = workdir / f"f{i}.complex"
        code, _, _ = run(capsys, "decompose", str(src), "-o", str(out_file))
        assert code == 0
        reparsed = topology.parse_complex(out_file.read_text())
        direct = cad2d.decompose(parse_formula(formula)).complex
        assert topology.serialize_complex(reparsed) == topology.serialize_complex(direct)
        assert topology.spectral_fingerprint(reparsed) == \
            topology.spectral_fingerprint(direct)


# -- analyze ---------------------------------------------------------------


def test_analyze_interval_report(workdir, capsys):
    code, out, _ = run(capsys, "analyze", str(workdir / "interval.complex"))
    assert code == 0
    assert out.splitlines() == [
        "cells: 3 (3 in M)",
        "bricks: 1",
        "  brick 1: dim 1, 3 cells",
        "rho0: 0 cells",
        "rho1: 0 cells",
        "M_lc: 3 cells",
        "eta: 2 cells: a b",
        "compact: yes",
        "locally compact: yes",
        "components: 1",
        "euler: 1",
        "fingerprint M: dim=1 compact=1 lc=1 euler=1 components=1 eta=2 bricks=1",
        "fingerprint M-eta: dim=1 compact=0 lc=1 euler=-1 components=1 eta=0 bricks=1",
        "fingerprint core: dim=1 compact=0 lc=1 euler=-1 components=1 eta=0 bricks=1",
    ]


def test_analyze_records(workdir, capsys):
    code, out, _ = run(capsys, "analyze", str(workdir / "open.complex"),
                       "--format", "records")
    assert code == 0
    lines = out.splitlines()
    assert "analyze cells=3 inM=1" in lines
    assert "rho0 count=2" in lines
    assert "mlc count=1" in lines
    assert "eta count=0 ids=" in lines
    assert "compact value=0" in lines
    # a closed interval in a complex flagged unbounded is not compact
    unbounded = workdir / "unbounded.complex"
    unbounded.write_text(INTERVAL.replace("bounded=1", "bounded=0"))
    code, out, _ = run(capsys, "analyze", str(unbounded), "--format", "records")
    assert code == 0 and "compact value=0" in out.splitlines()


def test_analyze_ids_with_non_decimal_digits(workdir, capsys):
    # '²' is a digit but not a decimal one: the id sorts as text
    src = workdir / "superscript.complex"
    src.write_text(INTERVAL.replace("cell b", "cell 1²").replace("face b", "face 1²"))
    code, out, err = run(capsys, "analyze", str(src), "--format", "records")
    assert (code, err) == (0, "")
    assert "eta count=2 ids=1²,a" in out.splitlines()


def test_analyze_irregular_is_exit_2(workdir, capsys):
    bad = workdir / "loop.complex"
    bad.write_text("complex ambient=1 bounded=1\n"
                   "cell a dim=0 inM=1\ncell e dim=1 inM=1\nface a e\n")
    code, _, err = run(capsys, "analyze", str(bad))
    assert code == 2 and "error" in err


def test_analyze_malformed_is_exit_1(workdir, capsys):
    bad = workdir / "junk.complex"
    bad.write_text("cell a dim=0 inM=1\n")
    code, _, _ = run(capsys, "analyze", str(bad))
    assert code == 1
    code, _, _ = run(capsys, "analyze", str(workdir / "missing.complex"))
    assert code == 1
    for extra, message in (("vertex a dim=0", "unknown record 'vertex'"),
                           ("complex ambient=1 bounded=1", "duplicate complex header"),
                           ("face e e", "face pair ('e', 'e') does not decrease dimension")):
        bad.write_text(INTERVAL + extra + "\n")
        assert run(capsys, "analyze", str(bad)) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("good, bad", MALFORMED_FIELDS)
def test_analyze_unknown_fields_and_flag_values_are_exit_1(workdir, capsys, good, bad):
    src = workdir / "bad.complex"
    text = INTERVAL.replace(good, bad)
    src.write_text(text)
    lineno = text.splitlines().index(bad) + 1
    code, out, err = run(capsys, "analyze", str(src))
    assert (code, out, err) == (1, "", f"error: malformed line {lineno}: {bad!r}\n")


def test_analyze_fingerprints_each_set_once(workdir, capsys, monkeypatch):
    # M, M minus eta and the core are flagged sets of the parsed complex:
    # no sub-complex is built, a set equal to one already fingerprinted
    # takes no pass of its own, and the report prints the sets the
    # fingerprint computed instead of working them out again
    src = workdir / "each.complex"
    passes = collections.Counter()
    for K in corpus.full_corpus():
        m_cells = frozenset(K.m_cells())
        minus_eta = m_cells - K._names(topology.eta_set(K))
        sets = {m_cells, minus_eta, frozenset(topology.core(K).m_cells())}
        distinct = len(sets)
        passes[distinct] += 1
        # one component traversal per brick of each distinct set, none for
        # the set itself: its components are joined from the bricks'
        traversals = sum(len(topology.bricks(K, {K._index[c] for c in S}))
                         for S in sets if S)
        src.write_text(topology.serialize_complex(K))
        calls = collections.Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        with monkeypatch.context() as patch:
            for name in ("restrict", "rho_sequence", "bricks", "spectral_fingerprint",
                         "_components"):
                wrapper = counted(name, getattr(topology, name))
                patch.setattr(topology, name, wrapper)
                if hasattr(cli, name):
                    patch.setattr(cli, name, wrapper)
            for fmt in ("human", "records"):
                calls.clear()
                code, _, _ = run(capsys, "analyze", str(src), "--format", fmt)
                assert code == 0
                assert calls == {"rho_sequence": distinct, "bricks": distinct,
                                 "spectral_fingerprint": 1, "_components": traversals}
    # the corpus holds every case: the disk with whisker has two sets (its
    # core set is M minus eta), and some complexes have one or three
    assert set(passes) == {1, 2, 3}
    K = corpus.disk_with_whisker()
    assert topology.eta_set(K) and len(topology.bricks(K)) > 1
    assert topology.core(K).m_cells() == K.m_cells() - K._names(topology.eta_set(K))


def _shuffled_records(text, rng):
    """text with its cell and face records in a random order, header first."""
    head, *records = text.splitlines()
    rng.shuffle(records)
    return "\n".join([head] + records) + "\n"


def _renamed(text, rng):
    """text with every cell id replaced by a fresh one, in a random pairing."""
    head, *records = [line.split() for line in text.splitlines()]
    ids = [r[1] for r in records if r[0] == "cell"]
    fresh = [f"r{i}" for i in range(len(ids))]
    rng.shuffle(fresh)
    new = dict(zip(ids, fresh))
    lines = [" ".join(head)]
    for kind, *rest in records:
        if kind == "cell":
            rest[0] = new[rest[0]]
        else:
            rest = [new[c] for c in rest]
        lines.append(" ".join([kind] + rest))
    return "\n".join(lines) + "\n"


def test_answers_do_not_depend_on_record_order_or_ids(tmp_path, capsys):
    # cells are numbered in file order: the answers must not see that order
    rng = random.Random(12)
    complexes = corpus.full_corpus()
    complexes += [topology.barycentric_subdivision(K) for K in complexes]
    texts = [topology.serialize_complex(K) for K in complexes]
    shuffled = [_shuffled_records(text, rng) for text in texts]
    files = {name: tmp_path / f"{name}.complex" for name in ("a", "b", "next_a", "next_b")}
    for i, (text, mixed) in enumerate(zip(texts, shuffled)):
        K = topology.parse_complex(text)
        assert topology.parse_complex(mixed) == K
        fp = topology.spectral_fingerprint(K)
        assert topology.spectral_fingerprint(topology.parse_complex(mixed)) == fp
        renamed = topology.parse_complex(_renamed(text, rng))
        assert topology.spectral_fingerprint(renamed) == fp
        j = (i + 1) % len(texts)
        for name, body in (("a", text), ("b", mixed),
                           ("next_a", texts[j]), ("next_b", shuffled[j])):
            files[name].write_text(body)
        for fmt in ("human", "records"):
            want = run(capsys, "analyze", str(files["a"]), "--format", fmt)
            assert want[0] == 0
            assert run(capsys, "analyze", str(files["b"]), "--format", fmt) == want
            want = run(capsys, "compare", str(files["a"]), str(files["next_a"]),
                       "--format", fmt)
            assert want[0] == 0
            assert run(capsys, "compare", str(files["b"]), str(files["next_b"]),
                       "--format", fmt) == want


def _grid_text(n, m, hole, whisker):
    """A closed triangulated n x m grid, all of it in M, written without specta.

    Each unit square is cut along its diagonal into two triangles; the
    square hole (its two triangles and diagonal) is left out, a path of
    whisker edges hangs off the corner (n, m), and one isolated point is
    added.
    """
    lines = ["complex ambient=2 bounded=1"]

    def cell(cid, dim, *faces):
        lines.append(f"cell {cid} dim={dim} inM=1")
        lines.extend(f"face {f} {cid}" for f in faces)

    for i in range(n + 1):
        for j in range(m + 1):
            cell(f"v{i}_{j}", 0)
            if i < n:
                cell(f"h{i}_{j}", 1, f"v{i}_{j}", f"v{i + 1}_{j}")
            if j < m:
                cell(f"u{i}_{j}", 1, f"v{i}_{j}", f"v{i}_{j + 1}")
            if i < n and j < m and (i, j) != hole:
                cell(f"d{i}_{j}", 1, f"v{i}_{j}", f"v{i + 1}_{j + 1}")
                cell(f"ta{i}_{j}", 2, f"h{i}_{j}", f"u{i + 1}_{j}", f"d{i}_{j}")
                cell(f"tb{i}_{j}", 2, f"u{i}_{j}", f"h{i}_{j + 1}", f"d{i}_{j}")
    end = f"v{n}_{m}"
    for k in range(1, whisker + 1):
        cell(f"w{k}", 0)
        cell(f"we{k}", 1, end, f"w{k}")
        end = f"w{k}"
    cell("p", 0)
    return "\n".join(lines) + "\n"


def test_analyze_and_compare_a_grid_of_ten_thousand_cells(tmp_path, capsys):
    n = m = 40
    whisker = 3
    text = _grid_text(n, m, hole=(20, 20), whisker=whisker)
    # read off the construction: vertices, edges (horizontal, vertical,
    # diagonal) and triangles of the grid, less the hole's three open cells
    cells = ((n + 1) * (m + 1) + n * (m + 1) + (n + 1) * m + 3 * n * m - 3
             + 2 * whisker + 1)
    assert text.count("\ncell ") == cells and cells > 9_700
    # the closed disk has Euler characteristic 1, the hole takes one away,
    # the whisker adds as many vertices as edges, and the point adds one;
    # the disk with its whisker and the point are the two components, the
    # whisker's tip is the one dangling endpoint, and the bricks have
    # dimensions 2 (the disk), 1 (the whisker) and 0 (the point)
    whole = "dim=2 compact=1 lc=1 euler=1 components=2 eta=1 bricks=3"
    # without its tip the whisker is a half-open arc: not compact
    less_tip = "dim=2 compact=0 lc=1 euler=0 components=2 eta=0 bricks=3"
    src = tmp_path / "grid.complex"
    src.write_text(text)
    code, out, _ = run(capsys, "analyze", str(src), "--format", "records")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == f"analyze cells={cells} inM={cells}"
    assert lines[1:4] == ["brick index=1 dim=2 cells={}".format(cells - 2 * whisker - 1),
                          f"brick index=2 dim=1 cells={2 * whisker + 1}",
                          "brick index=3 dim=0 cells=1"]
    assert lines[4:] == [
        "rho0 count=0", "rho1 count=0", f"mlc count={cells}",
        f"eta count=1 ids=w{whisker}", "compact value=1", "lc value=1",
        f"fingerprint section=M {whole}",
        f"fingerprint section=M-eta {less_tip}",
        f"fingerprint section=core {less_tip}",
    ]
    # relabelled, and its records in another order: every channel consistent
    rng = random.Random(30)
    other = tmp_path / "relabelled.complex"
    other.write_text(_shuffled_records(_renamed(text, rng), rng))
    code, out, _ = run(capsys, "compare", str(src), str(other), "--format", "records")
    assert code == 0
    assert out.splitlines() == [f"compare channel={channel} verdict=CONSISTENT evidence="
                                for channel in ("S", "S*", "S(N)~S*(M)", "beta*")]


_HINT = "; hint: raise --truncation or SPECTA_TRUNCATION"


@pytest.mark.parametrize("exc, code, prefix, suffix", [
    (ExprError("m", 0, "m"), 1, "parse error: line 1, column 1: m", ""),
    (cad2d.UnboundedInput("m"), 2, "error: m", ""),
    (cad2d.CadError("m"), 2, "error: m", ""),
    (topology.RegularityViolation("m"), 2, "error: m", ""),
    (topology.NotInM("m"), 2, "error: m", ""),
    (topology.TopologyError("m"), 1, "error: m", ""),
    (paths.NormalizationRequired("m"), 2, "error: m", ""),
    (paths.NotPositiveOnPath("m"), 2, "error: m", ""),
    (paths.UnboundedAlongPath("m"), 2, "error: m", ""),
    (paths.NegativeLeadingSqrt("m"), 2, "error: m", ""),
    (paths.TruncationInsufficient("m"), 3, "error: m", _HINT),
    (paths.IndeterminateOrder("m"), 3, "error: m", _HINT),
    (paths.PathError("m"), 1, "error: m", ""),
    (ArithError("m"), 1, "error: m", ""),
    (OSError("m"), 1, "error: m", ""),
    (ValueError("m"), 1, "error: m", ""),
], ids=lambda v: type(v).__name__ if isinstance(v, Exception) else None)
def test_exit_code_and_message_per_error_class(workdir, capsys, monkeypatch,
                                               exc, code, prefix, suffix):
    def fail(args):
        raise exc

    monkeypatch.setattr(cli, "_cmd_analyze", fail)
    got, out, err = run(capsys, "analyze", str(workdir / "interval.complex"))
    assert (got, out, err) == (code, "", prefix + suffix + "\n")


def test_analyze_empty_complex(workdir, capsys):
    empty = workdir / "none.complex"
    empty.write_text("complex ambient=2 bounded=1\n")
    code, out, _ = run(capsys, "analyze", str(empty))
    assert code == 0
    empty_fp = "dim=-1 compact=1 lc=1 euler=0 components=0 eta=0 bricks=0"
    assert out.splitlines() == [
        "cells: 0 (0 in M)",
        "bricks: 0",
        "rho0: 0 cells",
        "rho1: 0 cells",
        "M_lc: 0 cells",
        "eta: none",
        "compact: yes",
        "locally compact: yes",
        "components: 0",
        "euler: 0",
        f"fingerprint M: {empty_fp}",
        f"fingerprint M-eta: {empty_fp}",
        f"fingerprint core: {empty_fp}",
    ]
    code, out, _ = run(capsys, "analyze", str(empty), "--format", "records")
    assert code == 0
    assert out.splitlines() == [
        "analyze cells=0 inM=0",
        "rho0 count=0",
        "rho1 count=0",
        "mlc count=0",
        "eta count=0 ids=",
        "compact value=1",
        "lc value=1",
        f"fingerprint section=M {empty_fp}",
        f"fingerprint section=M-eta {empty_fp}",
        f"fingerprint section=core {empty_fp}",
    ]


# -- compare ---------------------------------------------------------------


def test_compare_half_open_vs_open(workdir, capsys):
    code, out, _ = run(capsys, "compare", str(workdir / "half.complex"),
                       str(workdir / "open.complex"))
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["channel", "verdict", "evidence"]
    table = {ln.split()[0]: ln.split()[1] for ln in lines[1:]}
    assert table == {"S": "RULED_OUT", "S*": "CONSISTENT",
                     "S(N)~S*(M)": "RULED_OUT", "beta*": "CONSISTENT"}
    svs_row = next(ln for ln in lines if ln.startswith("S(N)~S*(M)"))
    assert "N non-compact" in svs_row


def test_compare_closed_vs_open_records(workdir, capsys):
    code, out, _ = run(capsys, "compare", str(workdir / "interval.complex"),
                       str(workdir / "open.complex"), "--format", "records")
    assert code == 0
    lines = out.splitlines()
    s_line = next(ln for ln in lines if ln.startswith("compare channel=S "))
    assert "verdict=RULED_OUT" in s_line and "M.compact" in s_line
    assert any(ln.startswith("compare channel=beta*") for ln in lines)


def test_compare_identical(workdir, capsys):
    code, out, _ = run(capsys, "compare", str(workdir / "interval.complex"),
                       str(workdir / "interval.complex"))
    assert code == 0
    assert out.count("CONSISTENT") == 4 and "RULED_OUT" not in out


# sha256 of the reports over the whole corpus, one complex (or consecutive
# pair) after another, each report headed by its index
PINNED_REPORTS = {
    "analyze": "cbf3d0736bfbb01a4651457f909da6f6604e9d20062072c8ec542e79ec2897bd",
    "analyze --format records": "73b671c0bb420382fbe5d75c9c57ec40b3915fb316cb46b9e5bd90837cf20329",
    "compare": "064c3bc1f83b988813a2c61ee08a29ed58d9b8b024c941ee1f2c7a92dc9e12a3",
    "compare --format records": "1dc4b4afad9b6e1efd9663cc90580f9b9f42625adb3c3a1944906ca7aaae13dc",
}


def test_analyze_text_is_pinned(tmp_path, capsys):
    files = []
    for i, K in enumerate(corpus.full_corpus()):
        files.append(tmp_path / f"k{i}.complex")
        files[-1].write_text(topology.serialize_complex(K))
    jobs = {
        "analyze": [["analyze", str(f)] for f in files],
        "analyze --format records": [["analyze", str(f), "--format", "records"]
                                     for f in files],
        "compare": [["compare", str(a), str(b)] for a, b in zip(files, files[1:])],
        "compare --format records": [["compare", str(a), str(b), "--format", "records"]
                                     for a, b in zip(files, files[1:])],
    }
    got = {}
    for mode, argvs in jobs.items():
        digest = hashlib.sha256()
        for i, argv in enumerate(argvs):
            code, out, _ = run(capsys, *argv)
            assert code == 0
            digest.update(f"{i}\n{out}".encode())
        got[mode] = digest.hexdigest()
    assert got == PINNED_REPORTS


# -- path ------------------------------------------------------------------


def test_path_order(workdir, capsys):
    code, out, _ = run(capsys, "path", str(workdir / "factorial.path"),
                       "order", "--component", "2")
    assert code == 0 and out == "order: 2\n"
    zero = workdir / "flat.path"
    zero.write_text("path m=2 T=8\npoly: t\npoly: 0\n")
    code, out, _ = run(capsys, "path", str(zero), "order", "--component", "2")
    assert code == 0 and out == "order: infinity\n"
    code, _, err = run(capsys, "path", str(workdir / "factorial.path"),
                       "order", "--component", "5")
    assert code == 1 and "1..2" in err


def test_path_order_indeterminate_is_exit_3(workdir, capsys):
    # with the one hint main prints for every exit 3
    short = workdir / "short.path"
    for T, second in (("4", "coeffs: @e=1"), ("2", "factorial")):
        short.write_text(f"path m=2 T={T}\npoly: t\n{second}\n")
        code, out, err = run(capsys, "path", str(short), "order", "--component", "2")
        assert (code, out) == (3, "")
        assert err == f"error: order not determined below t^{T}" + _HINT + "\n"


def test_path_non_positive_truncations_exit_1(workdir, capsys, monkeypatch):
    good = workdir / "factorial.path"
    for T in ("0", "-2"):
        bad = workdir / f"t{T}.path"
        bad.write_text(f"path m=2 T={T}\npoly: t\nfactorial\n")
        for argv in (["order", "--component", "2"], ["eval", "--fn", "y"]):
            code, out, err = run(capsys, "path", str(bad), *argv)
            assert (code, out) == (1, "")
            assert err == f"error: truncation {T} is not positive\n"
        code, out, err = run(capsys, "path", str(good), "eval", "--fn", "y",
                             "--truncation", T)
        assert (code, out, err) == (1, "", f"error: truncation {T} is not positive\n")
    monkeypatch.setenv("SPECTA_TRUNCATION", "0")
    code, out, err = run(capsys, "path", str(good), "member", "--fn", "y")
    assert (code, out, err) == (1, "", "error: truncation 0 is not positive\n")


def test_path_eval(workdir, capsys):
    poly = workdir / "p.path"
    poly.write_text("path m=2 T=32\npoly: t\npoly: t^3\n")
    code, out, _ = run(capsys, "path", str(poly), "eval", "--fn", "x^2")
    assert code == 0 and out == "value: t^2\n"
    code, out, _ = run(capsys, "path", str(poly), "eval", "--fn", "x^2",
                       "--format", "records")
    assert out == "series exact=1 trunc=-\nterm e=2 c=1\n"


def test_path_zero_times_a_name_is_the_zero_component(workdir, capsys):
    # "poly: 0*x" used to exit 1 with "degree of zero polynomial"
    src = workdir / "zero.path"
    for line in ("0*x", "0", "x^0 - 1"):
        src.write_text(f"path m=2 T=8\npoly: {line}\npoly: t\n")
        code, out, err = run(capsys, "path", str(src), "eval", "--fn", "x + y")
        assert (code, out, err) == (0, "value: t\n", "")


def test_path_eval_truncation_flag_and_env(workdir, capsys, monkeypatch):
    args = ("path", str(workdir / "factorial.path"), "eval", "--fn", "y")
    code, out, _ = run(capsys, *args, "--truncation", "5")
    assert code == 0 and out.endswith("O(t^5)\n")
    monkeypatch.setenv("SPECTA_TRUNCATION", "6")
    code, out, _ = run(capsys, *args)
    assert out.endswith("O(t^6)\n")
    code, out, _ = run(capsys, *args, "--truncation", "5")
    assert out.endswith("O(t^5)\n")


def test_path_member(workdir, capsys):
    f_4 = "(y - 2x^2 - 6x^3 - 24x^4)^2 / ((y - 2x^2 - 6x^3 - 24x^4)^2 + x^8)"
    code, out, _ = run(capsys, "path", str(workdir / "factorial.path"),
                       "member", "--fn", f_4, "--ideal", "m_star")
    assert code == 0
    assert out.splitlines()[0] == "status: IN_IDEAL_UP_TO_T"
    assert out.splitlines()[1].startswith("checked below: t^")

    mu = workdir / "mu.path"
    mu.write_text("path m=2 T=32\npoly: t\npoly: 2t^2 + 6t^3\n")
    code, out, _ = run(capsys, "path", str(mu), "member", "--fn", f_4)
    assert code == 0
    assert out.splitlines() == [
        "status: NOT_IN_IDEAL",
        "witness order: 0",
        "witness coefficient: 576/577",
    ]

    graph = workdir / "graph.path"
    graph.write_text("path m=2 T=32\npoly: t\npoly: t^2\n")
    code, out, _ = run(capsys, "path", str(graph), "member",
                       "--fn", "y - x^2", "--ideal", "p_alpha")
    assert code == 0 and out.splitlines()[0] == "status: EXACTLY_IN_IDEAL"


def test_path_bound(workdir, capsys):
    code, out, _ = run(capsys, "path", str(workdir / "factorial.path"),
                       "bound", "--polys", "x, y")
    assert code == 0 and out == "k: 3\n"
    code, _, err = run(capsys, "path", str(workdir / "factorial.path"),
                       "bound", "--polys=0 - y")
    assert code == 2 and "negative leading coefficient" in err


def test_path_carrier(workdir, capsys):
    code, out, _ = run(capsys, "path", str(workdir / "factorial.path"),
                       "carrier", "--polys", "x, y")
    assert code == 0
    assert out.splitlines() == [
        "k: 3",
        "mu 1: t",
        "mu 2: 6*t^3 + 2*t^2",
        "s0: 0, 24",
        "samples checked: 33",
    ]
    code, out, _ = run(capsys, "path", str(workdir / "factorial.path"),
                       "carrier", "--polys", "x, y", "--seed", "7",
                       "--format", "records")
    assert code == 0 and out.splitlines()[0] == "carrier k=3 samples=33"

    graph = workdir / "graph.path"
    graph.write_text("path m=2 T=32\npoly: t\npoly: t^2\n")
    code, _, _ = run(capsys, "path", str(graph), "carrier",
                     "--polys", "x, y", "--g", "y - x^2")
    assert code == 0
    code, _, err = run(capsys, "path", str(graph), "carrier",
                       "--polys", "x, y", "--g", "y - x")
    assert code == 1 and "vanish" in err


def test_path_neighborhood(workdir, capsys):
    code, out, _ = run(capsys, "path", str(workdir / "factorial.path"),
                       "neighborhood", "--ell", "2", "--k", "3")
    assert code == 0
    assert out.splitlines() == [
        "gamma 1: t",
        "gamma 2: 6*t^3 + 2*t^2",
        "member: yes",
        "inner leading coefficient: 1",
        "window leading coefficient: 1/9",
    ]
    code, out, _ = run(capsys, "path", str(workdir / "factorial.path"),
                       "neighborhood", "--ell", "2", "--k", "3",
                       "--mu", "t, 0", "--format", "records")
    assert code == 0
    assert out.splitlines()[0] == "neighborhood ell=2 k=3 member=0 inner=-4 window=1/9"


def test_path_separate(workdir, capsys):
    code, out, _ = run(capsys, "path", str(workdir / "factorial.path"),
                       "separate", "--mu", "t, 2t^2+6t^3", "--kmax", "12")
    assert code == 0 and out == "k: 4\nvalue: 576/577\n"
    code, out, _ = run(capsys, "path", str(workdir / "factorial.path"),
                       "separate", "--mu", "t, 2t^2+6t^3", "--format", "records")
    assert out == "separate k=4 value=576/577\n"
    code, out, _ = run(capsys, "path", str(workdir / "factorial.path"),
                       "separate")
    assert code == 0 and out == "no k <= 12 separates at this truncation\n"
    # the search starts at k = 2: a smaller bound is a usage error, not a
    # truncation that separates nothing
    for kmax in ("1", "0"):
        code, out, err = run(capsys, "path", str(workdir / "factorial.path"),
                             "separate", "--mu", "t, 2t^2", "--kmax", kmax)
        assert (code, out) == (1, "")
        assert err == ("error: separating quotients are defined for integers"
                       f" k >= 2, so k_max={kmax} leaves nothing to search\n")


# every path action in both formats on a fixed set of path files; the
# digest covers each run's argv tail, exit code, stdout and stderr
PIN_PATHS = {
    "factorial": FACTORIAL_PATH,
    "poly": "path m=2 T=32\npoly: t\npoly: 2t^2 + 6t^3\n",
    "ratio": "path m=2 T=16\npoly: t\nratio: (t^2 + t^3)/(1 - t)\n",
    "coeffs": "path m=2 T=8\npoly: t\ncoeffs: 2:1 3:2 5:-1/3 @e=2\n",
    "three": "path m=3 T=24\npoly: t\nfactorial\npoly: t^2 - t^3\n",
}
PIN_ACTIONS = [
    ["order", "--component", "1"],
    ["order", "--component", "2"],
    ["order", "--component", "3", "--truncation", "6"],
    ["eval", "--fn", "x^2 + y"],
    ["eval", "--fn", "abs(y - x) / (x + 1)"],
    ["eval", "--fn", "sqrt(x^2 + y^2) - x", "--truncation", "12"],
    ["eval", "--fn", "y / x^2"],
    ["member", "--fn", "y - 2x^2"],
    ["member", "--fn", "y - x^2 - 2x^3", "--ideal", "p_alpha"],
    ["bound", "--polys", "x, y"],
    ["bound", "--polys", "x + y, y - x^3"],
    ["bound", "--polys", "x, y - x"],
    ["carrier", "--polys", "x, y"],
    ["carrier", "--polys", "x, y", "--seed", "5", "--truncation", "16"],
    ["carrier", "--polys", "x, y", "--g", "y - x^2"],
    ["neighborhood", "--ell", "2", "--k", "3"],
    ["neighborhood", "--ell", "1", "--k", "2", "--mu", "t, 2t^2"],
    ["separate", "--kmax", "6"],
    ["separate", "--mu", "t, 2t^2+6t^3", "--kmax", "6", "--truncation", "10"],
]
PINNED_PATH_REPORTS = {
    "factorial human": "28159f45250fda84ce5bb7f0d84c52195d9ec32f60595ea0f2d254a265ad78df",
    "factorial records": "cd3e83c775348bf31d1cf2abe07bd9971c9c87f8cff68577495eb235fac62fb6",
    "poly human": "ea8cfd90473e971a6ccfcebf71e8e9837d8b70ebc6333424ea770baa687f9e57",
    "poly records": "8081851836cabfa3ff51a74dd7cd482f242dc724ceb5bd199ad4dcacc13fb371",
    "ratio human": "044d9c1f32472a0c7bcf663b3007c7de9d125cec24261bfb7c2b8453970c51ce",
    "ratio records": "4662d09cc93e6a666aca33ee5c7557d525aab2c9c52bb1649eca507116984b38",
    "coeffs human": "d0f37b892eaa39defd2cfe59b22c54aa2487cc159aa4741238f5173957018e4b",
    "coeffs records": "430c95cefebd42398bb8ea117180cc408988be97e77b9083ac526acfd4bc1b0c",
    "three human": "9fd170f7773346dff4b216e9a6eda2b62b6cd119d71093782535451af8760866",
    "three records": "cdb3faad295f01ec9a7d8a00bc88184ed49ce3a25f788862cee156ef155940eb",
}


def test_path_text_is_pinned(tmp_path, capsys):
    got = {}
    for name, text in PIN_PATHS.items():
        src = tmp_path / f"{name}.path"
        src.write_text(text)
        for fmt in ("human", "records"):
            digest = hashlib.sha256()
            for argv in PIN_ACTIONS:
                code, out, err = run(capsys, "path", str(src), *argv, "--format", fmt)
                digest.update(f"{argv}\n{code}\n{out}\n{err}\n".encode())
            got[f"{name} {fmt}"] = digest.hexdigest()
    assert got == PINNED_PATH_REPORTS


# expression shapes the function parser folds into polynomials or keeps as
# nodes, run through every action on the PIN_PATHS files and on a path whose
# second component vanishes up to its truncation, where verdicts exit 3
PIN_FN_PATHS = dict(PIN_PATHS, stuck="path m=2 T=4\npoly: t\ncoeffs: 5:1\n")
PIN_FN_ACTIONS = [
    ["order", "--component", "2"],
    ["eval", "--fn", "-abs(x - y)"],
    ["eval", "--fn", "abs(x)^0 + y"],
    ["eval", "--fn", "(x/(1 + x))^3"],
    ["eval", "--fn", "1/(1 + 1/(1 + x)) - 3/4 y"],
    ["eval", "--fn", "2sqrt(x^2 + y^2) - sqrt(4x^2)", "--truncation", "10"],
    ["eval", "--fn", "1/y"],
    ["member", "--fn", "abs(y) - y"],
    ["member", "--fn", "sqrt(y^2)/x - y/x", "--ideal", "p_alpha"],
    ["member", "--fn", "y/x^5"],
    ["bound", "--polys", "y, x + y"],
    ["carrier", "--polys", "x, x + y"],
    ["neighborhood", "--ell", "3", "--k", "2"],
    ["separate", "--mu", "t, 2t^2", "--kmax", "4"],
]
PINNED_PATH_FUNCTIONS = "d6734e29a697e4d8e4f39e41106acf5cca9bf3240910936d3064bd8cafa610a0"


def test_path_functions_are_pinned(tmp_path, capsys):
    digest = hashlib.sha256()
    codes = collections.Counter()
    for name, text in PIN_FN_PATHS.items():
        src = tmp_path / f"{name}.path"
        src.write_text(text)
        for fmt in ("human", "records"):
            for argv in PIN_FN_ACTIONS:
                code, out, err = run(capsys, "path", str(src), *argv, "--format", fmt)
                codes[code] += 1
                digest.update(f"{name} {fmt} {argv}\n{code}\n{out}\n{err}\n".encode())
    assert codes[3] > 0 and codes[0] > codes[3]
    assert digest.hexdigest() == PINNED_PATH_FUNCTIONS


def test_path_carrier_short_truncation_is_exit_3(workdir, capsys):
    # at T=2 the input used to be blamed (exit 1, "low-order tail")
    for T in (2, 3):
        src = workdir / f"short{T}.path"
        src.write_text(f"path m=2 T={T}\ncoeffs: 1:1\ncoeffs: 1:1\n")
        code, out, err = run(capsys, "path", str(src), "carrier", "--polys", "x")
        assert (code, out) == (3, "")
        assert err.startswith(
            f"error: coefficient at t^3 not determined at truncation {T}; hint:")


def test_path_carrier_equation_vanishing_up_to_truncation_is_exit_3(workdir, capsys):
    # the t^9 term that puts (t, t^2 + t^9) off y = x^2 lies beyond T=8,
    # so g vanishes only so far and is not known to hold on the path
    src = workdir / "tail.path"
    src.write_text("path m=2 T=8\npoly: t\ncoeffs: 2:1 9:1\n")
    code, out, err = run(capsys, "path", str(src), "carrier", "--polys", "x, y",
                         "--g", "y - x^2", "--truncation", "12")
    assert (code, out) == (3, "")
    assert err.startswith("error: equation -x^2 + y vanishes along the path only"
                          " up to truncation 8; hint:")


def test_path_normalization_violation_is_exit_2(workdir, capsys):
    skew = workdir / "skew.path"
    skew.write_text("path m=2 T=32\npoly: t + t^2\npoly: t\n")
    code, _, err = run(capsys, "path", str(skew), "separate")
    assert code == 2 and "t^j" in err


def test_path_file_errors(workdir, capsys):
    bad = workdir / "bad.path"
    bad.write_text("poly: t\n")
    code, _, _ = run(capsys, "path", str(bad), "order")
    assert code == 1
    code, _, err = run(capsys, "path", str(workdir / "factorial.path"),
                       "eval", "--fn", "x +")
    assert code == 1 and "parse error" in err


def test_path_malformed_input_exits_with_a_code(workdir, capsys, monkeypatch):
    # each used to be read silently or to raise out of main
    zero = workdir / "zero.path"
    zero.write_text("path m=2 T=8\npoly: t\npoly: 0\n")
    junk = workdir / "junk.path"
    junk.write_text("path m=2 T=8 junk\npoly: t\npoly: 0\n")
    code, out, err = run(capsys, "path", str(junk), "order")
    assert (code, out) == (1, "") and "path header" in err
    infinite = workdir / "infinite.path"
    infinite.write_text("path m=2 T=1/0\npoly: t\npoly: 0\n")
    code, out, err = run(capsys, "path", str(infinite), "order")
    assert (code, out) == (1, "") and err.startswith("error: bad path header")
    code, out, err = run(capsys, "path", str(zero), "order", "--truncation", "1/0")
    assert (code, out) == (1, "") and "usage:" in err
    code, out, err = run(capsys, "path", str(zero), "eval", "--fn", "1/y")
    assert (code, out) == (2, "") and "vanishes identically" in err
    monkeypatch.setenv("SPECTA_TRUNCATION", "1/0")
    code, out, err = run(capsys, "path", str(zero), "order")
    assert (code, out) == (1, "") and err.startswith("error: truncation '1/0'")


def test_flags_a_subcommand_does_not_read_are_usage_errors(workdir, capsys):
    # --format is everywhere, --truncation on path actions, --seed on carrier
    assert run(capsys, "analyze", str(workdir / "interval.complex"),
               "--seed", "1")[0] == 1
    assert run(capsys, "decompose", str(workdir / "disk.formula"),
               "--truncation", "5")[0] == 1
    assert run(capsys, "path", str(workdir / "factorial.path"), "eval",
               "--fn", "y", "--seed", "1")[0] == 1


def test_usage_errors(capsys):
    assert main([]) == 1
    capsys.readouterr()
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main(["frobnicate"]) == 1
    capsys.readouterr()
    assert main(["path"]) == 1
    capsys.readouterr()


# -- cross-process determinism ---------------------------------------------


def _run_cli(tmp_path, hash_seed, *argv):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    env.pop("SPECTA_TRUNCATION", None)
    # the child runs in tmp_path, where a relative PYTHONPATH entry no
    # longer resolves: hand it the directory this specta was imported from
    pkg_parent = os.path.dirname(os.path.dirname(os.path.abspath(specta.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (pkg_parent, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "specta.cli", *argv],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_reports_are_byte_deterministic(tmp_path):
    (tmp_path / "annulus.formula").write_text(
        "4x^2 + 4y^2 > 1 AND x^2 + y^2 < 1\n")
    (tmp_path / "interval.complex").write_text(INTERVAL)
    (tmp_path / "open.complex").write_text(OPEN_INTERVAL)

    first = _run_cli(tmp_path, 1, "decompose", "annulus.formula", "-o", "a1.complex")
    second = _run_cli(tmp_path, 2, "decompose", "annulus.formula", "-o", "a2.complex")
    assert first.replace("a1.complex", "X") == second.replace("a2.complex", "X")
    assert (tmp_path / "a1.complex").read_text() == (tmp_path / "a2.complex").read_text()

    _run_cli(tmp_path, 1, "decompose", "annulus.formula", "-o", "s1.complex",
             "--simplicialize")
    _run_cli(tmp_path, 2, "decompose", "annulus.formula", "-o", "s2.complex",
             "--simplicialize")
    assert (tmp_path / "s1.complex").read_text() == (tmp_path / "s2.complex").read_text()

    first = _run_cli(tmp_path, 1, "analyze", "a1.complex")
    second = _run_cli(tmp_path, 2, "analyze", "a1.complex")
    assert first == second

    first = _run_cli(tmp_path, 1, "compare", "interval.complex", "open.complex")
    second = _run_cli(tmp_path, 2, "compare", "interval.complex", "open.complex")
    assert first == second
