"""Tests of the benchmark's own code: generators, references, tracing.

Run from the checkout root:  python3 -m pytest -q perfbench
"""

import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from math import factorial

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
for path in (HERE, SRC):
    if path not in sys.path:
        sys.path.insert(0, path)

import pytest  # noqa: E402

import cad  # noqa: E402
import complexes  # noqa: E402
import pathprobe  # noqa: E402
import run  # noqa: E402
from ops import Verdict, euler_and_components, read_complex  # noqa: E402
from tracing import Tracer  # noqa: E402

import specta.cli  # noqa: E402
from specta import topology  # noqa: E402
from specta._expr import parse_polynomial  # noqa: E402
from specta.paths import (  # noqa: E402
    FormalPath, appendix_separator, eval_on_path, parse_function)


def _cycle(workload, seed, cycle=0):
    rng = random.Random(f"{workload}:{seed}:{cycle}")
    return [(op.slot, op.argv, op.inputs) for op in run.WORKLOADS[workload](rng, cycle, "w")]


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_generators_are_deterministic_per_seed(workload):
    assert _cycle(workload, 7) == _cycle(workload, 7)
    assert _cycle(workload, 7, cycle=1) == _cycle(workload, 7, cycle=1)
    assert _cycle(workload, 7) != _cycle(workload, 8)


@pytest.mark.parametrize("workload", ["complex-analyze", "paths-probe"])
def test_seed_changes_no_cost_setting_parameter(workload):
    """Grid sizes and path truncations, hence line counts and headers of the
    input files, are the same under every seed."""
    def shape(seed):
        return [(slot, [(text.count("\n"), text.splitlines()[0]) for text in inputs.values()])
                for slot, _, inputs in _cycle(workload, seed)]

    assert shape(1) == shape(2) == shape(3)


def test_speed_gauge_scales_by_the_nearest_samples():
    gauge = run.SpeedGauge()
    gauge.at = [0.0, 1.0, 2.0, 8.0, 9.0, 10.0]
    gauge.cpu = [run.GAUGE_REFERENCE_S] * 3 + [2 * run.GAUGE_REFERENCE_S] * 3
    assert gauge.factor(0.5) == pytest.approx(1.0)
    assert gauge.factor(9.5) == pytest.approx(0.5)


def test_translation_keeps_rational_roots_rational():
    formula = cad.translate("X^2+Y^2>=1 AND X^2+Y^2<=4", Fraction(1, 2), Fraction(-1))
    assert formula == "(x-1/2)^2+(y+1)^2>=1 AND (x-1/2)^2+(y+1)^2<=4"


# -- complex generator -----------------------------------------------------


@pytest.mark.parametrize("seed", range(12))
def test_grid_construction_counts(seed):
    rng = random.Random(seed)
    spec = complexes.draw_spec(rng, rng.randint(4, 7), rng.randint(4, 7))
    cells, faces = complexes.build(spec)
    want = complexes.expected(spec)
    assert len(cells) == want.cells == len({cid for cid, _, _ in cells})
    assert sum((-1) ** dim for _, dim, in_m in cells if in_m) == want.euler


@pytest.mark.parametrize("seed", range(8))
def test_grid_invariants_match_specta(seed):
    rng = random.Random(100 + seed)
    spec = complexes.draw_spec(rng, rng.randint(4, 6), rng.randint(4, 6))
    K = topology.parse_complex(complexes.complex_text(*complexes.build(spec)))
    fp = topology.spectral_fingerprint(K).data
    want = complexes.expected(spec)
    assert (fp.euler, fp.components, fp.compact, fp.eta_count, len(fp.bricks)) == \
        (want.euler, want.components, want.compact, want.eta, want.bricks)


def test_relabel_is_consistent_and_extra_point_is_ruled_out():
    rng = random.Random(3)
    spec = complexes.GridSpec(5, 4, "closed", ((1, 1),), ((2, 1, True),), 1)
    cells, faces = complexes.build(spec)
    K = topology.parse_complex(complexes.complex_text(cells, faces))
    same = topology.parse_complex(complexes.complex_text(*complexes.relabel(cells, faces, rng)))
    other = topology.parse_complex(
        complexes.complex_text(*complexes.with_extra_point(cells, faces)))
    assert set(topology.compare_spectral_types(K, same).as_dict().values()) == {"CONSISTENT"}
    assert set(topology.compare_spectral_types(K, other).as_dict().values()) == {"RULED_OUT"}


def test_independent_euler_and_components():
    text = ("complex ambient=1 bounded=1\ncell a dim=0 inM=1\ncell b dim=0 inM=0\n"
            "cell e dim=1 inM=1\ncell p dim=0 inM=1\nface a e\nface b e\n"
            "# sample a x=0 y=~1.5\n# shear lambda=1/2\n")
    cf = read_complex(text)
    assert euler_and_components(cf) == (1, 2)
    assert cf.samples == {"a": ("0", "~1.5")} and cf.shear == Fraction(1, 2)


# -- paths references --------------------------------------------------------


def test_separation_value_in_closed_form():
    op = pathprobe.separate_op("w", "t", 4)
    assert op.argv[4] == "t, 2*t^2 + 6*t^3"
    assert op.check(0, "separate k=4 value=576/577\n", {}).ok
    assert not op.check(0, "separate k=4 value=575/576\n", {}).ok
    square = factorial(7) ** 2
    assert pathprobe.separate_op("w", "t", 7).check(
        0, f"separate k=7 value={square}/{square + 1}\n", {}).ok


@pytest.mark.parametrize("k", [2, 5, 12])
def test_separator_text_is_the_appendix_separator(k):
    alpha = FormalPath.factorial_path(16)
    mine = eval_on_path(parse_function(pathprobe.separator_text(k)), alpha)
    assert mine == eval_on_path(appendix_separator(k), alpha)


def test_factorial_membership_reference():
    op = pathprobe.member_factorial_op("w", "t", 32, 6)
    assert op.check(0, "member status=IN_IDEAL_UP_TO_T truncation=22\n", {}).ok
    assert not op.check(0, "member status=NOT_IN_IDEAL\n", {}).ok


def test_reference_series():
    n = 6
    geometric = pathprobe.series_div([Fraction(1)], [Fraction(1), Fraction(-1)], n)
    assert geometric == [1] * n
    x = [Fraction(0), Fraction(1)]
    y = [Fraction(0), Fraction(0), Fraction(3)]
    # x^2 + 2 x y at (t, 3t^2) = t^2 + 6 t^3
    assert pathprobe.eval_series({(2, 0): 1, (1, 1): 2}, x, y, n) == [0, 0, 1, 6, 0, 0]


def test_exact_polynomial_quotient():
    F = Fraction
    assert pathprobe.poly_quotient([F(2), F(-1), F(-4), F(3)], [F(2), F(3)]) == [1, -2, 1]
    assert pathprobe.poly_quotient([F(3), F(2)], [F(2)]) == [F(3, 2), 1]
    assert pathprobe.poly_quotient([F(1), F(1)], [F(1), F(-1)]) is None


def test_poly_text_parses_back():
    coeffs = [Fraction(0), Fraction(3), Fraction(-1), Fraction(0), Fraction(1, 2)]
    p = parse_polynomial(pathprobe.poly_text(coeffs, "t"), ("t",))
    assert [p.eval_at({"t": Fraction(v)}) for v in (1, 2)] == \
        [sum(c * v ** i for i, c in enumerate(coeffs)) for v in (1, 2)]


# -- tracing -----------------------------------------------------------------


def _tracer_with(spans):
    """A tracer holding hand-made spans: (name index, parent, op, start, end)."""
    t = Tracer()
    for ix, parent, op, start, end in spans:
        t.name_ix.append(ix)
        t.parent.append(parent)
        t.op_ix.append(op)
        t.start.append(start)
        t.end.append(end)
    return t


def test_self_time_arithmetic():
    t = _tracer_with([
        (0, -1, 0, 0.0, 10.0),   # root
        (1, 0, 0, 1.0, 4.0),     # child
        (2, 1, 0, 2.0, 3.0),     # grandchild
        (1, 0, 0, 5.0, 9.0),     # second child
        (0, -1, 1, 20.0, 21.0),  # root of the next op
    ])
    assert list(t.self_times()) == [3.0, 2.0, 1.0, 4.0, 1.0]
    assert t.op_self_sums() == t.op_walls() == {0: 10.0, 1: 1.0}
    totals = t.totals()
    assert totals[t.names[0]] == (2, 4.0)
    assert totals[t.names[1]] == (2, 6.0)


def _traced(argv):
    tracer = Tracer()
    tracer.op = 0
    original = specta.cli.main
    tracer.install()
    try:
        with redirect_stdout(io.StringIO()) as out:
            rc = specta.cli.main(argv)
    finally:
        tracer.uninstall()
    assert specta.cli.main is original
    return tracer, rc, out.getvalue()


def test_traced_op_self_times_sum_to_its_wall(tmp_path):
    formula = tmp_path / "f.formula"
    formula.write_text("x^2+y^2<=1\n")
    argv = ["decompose", str(formula)]
    with redirect_stdout(io.StringIO()) as plain:
        assert specta.cli.main(argv) == 0
    tracer, rc, out = _traced(argv)
    assert (rc, out) == (0, plain.getvalue())
    assert not tracer.missing
    wall = tracer.op_walls()[0]
    assert tracer.op_self_sums()[0] == pytest.approx(wall, rel=1e-9, abs=1e-12)
    totals = tracer.totals()
    assert totals["cli.main"][0] == 1 and totals["cad2d.decompose"][0] == 1
    assert totals["cad2d.stack_lift"][0] == 5           # 2 roots, 3 sectors
    assert tracer.counters["cad2d.cells"] == 13
    assert tracer.counters["cad2d.root_lines.rational"] == 2


def test_series_mul_counts_products_and_kept_terms(tmp_path):
    path = tmp_path / "p.path"
    path.write_text("path m=2 T=8\npoly: t\nfactorial\n")
    tracer, rc, _ = _traced(["path", str(path), "eval", "--fn", "y^2"])
    assert rc == 0
    c = tracer.counters
    assert 0 < c["paths.series_mul.kept"] < c["paths.series_mul.products"]


# -- run.py ------------------------------------------------------------------


def test_tail_keeps_ten_samples_beyond():
    lat = list(range(1, 101))
    assert run.tail(lat) == (90, 90.0, 10)
    assert run.tail([5, 1, 3]) == (1, 100 / 3, 2)


def test_refuses_to_run_without_sources(tmp_path):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                           "--workload", "paths-probe", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_metrics_are_the_ones_benchmark_json_names():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    results = [run.OpResult("0:0:x", "x", 0.5, 0.6, 1.0, 0, Verdict(True), None, "")]
    gauge = run.SpeedGauge()
    gauge.sample()
    e2e, _, _ = run.end_to_end(results, 0.05, gauge)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        {name: unit for name, (_, unit) in e2e.items()}
    layer = run.per_layer(_tracer_with([(0, -1, 0, 0.0, 1.0)]), results, 1.0)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(name, unit) for name, (_, unit) in layer.items()]
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)
