"""Acceptance gate: eight criteria, one test each, with runtime caps.

Each test prints one ``criterion N: PASS (...)`` line (visible under -s);
the per-test PASSED/FAILED line of ``pytest -v`` is the gate record.
Numeric expectations are exact rational values; no tolerances anywhere.
"""

import math
import random
import time
from fractions import Fraction as F
from functools import lru_cache

import by_id
import corpus
from test_cad2d import ANNULUS, DISK, DISK_PT, WHISKER, _battery

from specta import cad2d, topology
from specta._expr import parse_formula, parse_polynomial
from specta.arith import Polynomial
from specta.paths import (
    IN_IDEAL_UP_TO_T,
    FormalPath,
    PuiseuxSeries,
    appendix_separator,
    ideal_membership,
    neighborhood_element,
    positivity_bound,
    separate_from_algebraic,
)
from specta.topology import (
    CONSISTENT,
    RULED_OUT,
    barycentric_subdivision,
    bricks,
    compare_spectral_types,
    eta_set,
    local_dimension,
    restrict,
    rho_sequence,
    spectral_fingerprint,
)


@lru_cache(maxsize=1)
def _corpus():
    out = corpus.full_corpus()
    assert len(out) >= 50
    return out


def _done(n, t0, limit=None):
    dt = time.perf_counter() - t0
    if limit is not None:
        assert dt < limit, f"criterion {n} took {dt:.2f}s, cap {limit}s"
    print(f"criterion {n}: PASS ({dt:.2f}s)")


def test_criterion_1_interval_trio():
    t0 = time.perf_counter()
    closed = corpus.closed_interval()
    half = corpus.half_open_interval()
    opened = corpus.open_interval()
    trio = [spectral_fingerprint(K).minus_eta for K in (closed, half, opened)]
    assert trio[0] == trio[1] == trio[2]
    fc = spectral_fingerprint(closed).data
    fo = spectral_fingerprint(opened).data
    assert fc.compact and not fo.compact
    _done(1, t0, limit=1.0)


def test_criterion_2_mixed_ring_verdict():
    t0 = time.perf_counter()
    report = compare_spectral_types(corpus.half_open_interval(),
                                    corpus.open_interval())
    assert report.s_vs_s_star == RULED_OUT
    assert report.s_star == CONSISTENT
    _done(2, t0, limit=1.0)


def test_criterion_3_brick_axiom_suite():
    t0 = time.perf_counter()
    violations = 0
    for K in _corpus():
        bs = by_id.bricks(K)  # purity/covering/density/ordering checked internally
        dims = [b.dimension for b in bs]
        if dims != sorted(dims, reverse=True) or len(set(dims)) != len(dims):
            violations += 1
        X = restrict(K, K.carrier())
        for bm, bx in zip(bs, by_id.bricks(X)):
            closure = set()
            for c in bm.cells:
                closure.add(c)
                closure |= K.closure_of(c)
            if bx.cells != frozenset(closure):
                violations += 1
        if spectral_fingerprint(barycentric_subdivision(K)) != \
                spectral_fingerprint(K):
            violations += 1
    assert violations == 0
    _done(3, t0, limit=30.0)


def test_criterion_4_locally_compact_part_suite():
    t0 = time.perf_counter()
    violations = 0
    readded = 0
    for K in _corpus():
        _, rho1, m_lc = by_id.rho_sequence(K)
        if m_lc:
            sub = restrict(K, m_lc)
            if rho_sequence(sub)[1]:
                violations += 1
        for z in sorted(rho1):
            again = restrict(K, m_lc | {z})
            if not rho_sequence(again)[1]:
                violations += 1
            readded += 1
        if max((K.dim(c) for c in K.m_cells()), default=0) <= 1 and rho1:
            violations += 1
        high = {c for c in K.m_cells() if local_dimension(K, c) >= 2}
        if high and by_id.is_compact(K, high) and rho1:
            violations += 1
    assert readded > 0
    assert violations == 0
    _done(4, t0)


def _positivity_instances():
    """20 path/polynomial pairs; coordinates stay among the polynomials so
    an order-(k-1) bump flips a sign whenever a coordinate attains the
    worst order (product instances can survive the bump: their leading
    term sits strictly below the perturbation)."""
    rng = random.Random(424)
    instances = []
    while len(instances) < 20:
        m = rng.choice([2, 3])
        orders = [rng.randint(1, 4) for _ in range(m)]
        leads = [rng.randint(1, 3) for _ in range(m)]
        comps = []
        for q, lead in zip(orders, leads):
            coeffs = [F(0)] * q + [F(lead)]
            if rng.random() < 0.5:
                coeffs.append(F(rng.randint(-3, 3)))
            comps.append(Polynomial.from_univariate("t", coeffs))
        names = ("x", "y", "z")[:m]
        polys = [Polynomial.var(n, names) for n in names]
        extra = rng.choice(["sum", "product", "shifted"])
        if extra == "sum":
            polys.append(polys[0] + polys[-1])
        elif extra == "product":
            polys.append(polys[0] * polys[-1])
        else:
            polys.append(Polynomial.const(1, names) + polys[0])
        alpha = FormalPath.from_polynomials(comps)
        instances.append((names, comps, polys, alpha, orders, leads))
    return instances


def test_criterion_5_positivity_certificate():
    t0 = time.perf_counter()
    rng = random.Random(77)
    failures_at_k = 0
    failures_below = 0
    for names, comps, polys, alpha, orders, leads in _positivity_instances():
        k = positivity_bound(polys, alpha)
        assert k >= 1 + max(orders)
        for _ in range(100):
            betas = [
                Polynomial.from_univariate(
                    "t", [F(rng.randint(-5, 5)) for _ in range(4)])
                for _ in comps
            ]
            shift = Polynomial.from_univariate("t", [F(0)] * k + [F(1)])
            gamma = [c + shift * b for c, b in zip(comps, betas)]
            for p in polys:
                subs = {n: gamma[names.index(n)] for n in p.variables}
                s = PuiseuxSeries.from_polynomial(p.substitute(subs))
                if s.vanishes_so_far() or s.leading_coefficient() <= 0:
                    failures_at_k += 1

        worst = orders.index(max(orders))
        bump = [Polynomial.from_univariate("t", [F(0)])] * len(comps)
        bump[worst] = Polynomial.from_univariate(
            "t", [F(0)] * (k - 1) + [F(-(leads[worst] + 1))])
        gamma = [c + b for c, b in zip(comps, bump)]
        for p in polys:
            subs = {n: gamma[names.index(n)] for n in p.variables}
            s = PuiseuxSeries.from_polynomial(p.substitute(subs))
            if s.vanishes_so_far() or s.leading_coefficient() <= 0:
                failures_below += 1
    assert failures_at_k == 0
    assert failures_below >= 1
    _done(5, t0, limit=10.0)


def test_criterion_6_separating_quotients():
    t0 = time.perf_counter()
    alpha = FormalPath.factorial_path(F(32))
    for k in range(2, 13):
        verdict = ideal_membership(appendix_separator(k), alpha, "m_star")
        assert verdict.status == IN_IDEAL_UP_TO_T

    result = separate_from_algebraic(
        FormalPath.from_polynomials("t, 2t^2 + 6t^3"))
    assert result.k == 4 and result.value == F(576, 577)

    variants = [
        "t, 2t^2",
        "t, 2t^2 + 6t^3",
        "t, 2t^2 + 6t^3 + 24t^4",
        "t, 2t^2 + 6t^3 + 24t^4 + 120t^5",
        "t, 2t^2 + 6t^3 + 24t^4 + 120t^5 + 720t^6",
    ]
    for text in variants:
        found = separate_from_algebraic(FormalPath.from_polynomials(text))
        assert found is not None and found.k <= 7
        assert found.value > 0
    _done(6, t0, limit=5.0)


def test_criterion_7_tube_membership():
    t0 = time.perf_counter()
    alpha = FormalPath.factorial_path()
    for ell in (2, 3, 4):
        nb = neighborhood_element(alpha, ell, 3)
        member, lead, window = nb.certificate(alpha)
        assert member and lead == 1 and window == F(1, 9)

        gamma_text = nb.gamma[1].to_text().replace("*", "")
        for c, shift in (("1", 2), ("-1", 2), ("7", 2), ("-2", 3), ("1/3", 4)):
            mu = FormalPath.from_polynomials(
                f"t, {gamma_text} + {c} t^{ell + shift}")
            assert nb.contains(mu)

    nb = neighborhood_element(alpha, 2, 3)
    member, lead, _ = nb.certificate(FormalPath.from_polynomials("t, 0"))
    assert not member
    assert lead == F(-4)
    _done(7, t0)


def test_criterion_8_cad_soundness():
    t0 = time.perf_counter()
    expected = {
        DISK: dict(cells=5, brick_dims=[2], euler=1, components=1,
                   eta=0, rho0=4, rho1=0, compact=False, lc=True),
        DISK_PT: dict(cells=7, brick_dims=[2], euler=2, components=1,
                      eta=0, rho0=3, rho1=1, compact=False, lc=False),
        ANNULUS: dict(cells=24, brick_dims=[2], euler=0, components=1,
                      eta=0, rho0=16, rho1=0, compact=False, lc=True),
        WHISKER: dict(cells=9, brick_dims=[2, 1], euler=1, components=1,
                      eta=1, rho0=0, rho1=0, compact=True, lc=True),
    }
    for text, want in expected.items():
        dec = cad2d.decompose(parse_formula(text))
        K = dec.complex
        assert len(K.cells) == want["cells"]
        assert [b.dimension for b in bricks(K)] == want["brick_dims"]
        rho0, rho1, _ = rho_sequence(K)
        assert (len(rho0), len(rho1)) == (want["rho0"], want["rho1"])
        assert len(eta_set(K)) == want["eta"]
        fp = spectral_fingerprint(K).data
        assert fp.euler == want["euler"]
        assert fp.components == want["components"]
        assert fp.compact == want["compact"]
        assert fp.locally_compact == want["lc"]
        _battery(text, 500, seed=sum(map(ord, text)))
    _done(8, t0, limit=60.0)
