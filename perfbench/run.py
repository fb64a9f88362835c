"""specta benchmark: closed-loop CLI workloads with checked answers.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload cad-algebraic --seed 1 --seconds 20 --trace 0

One process, one closed-loop client, no threads.  Each op is one
``specta.cli.main(argv)`` call on inputs drawn from ``--seed``; ops come in
cycles of family slots, and as many whole cycles run as fit in
``--seconds`` (at least one).  Every answer is checked against a reference that does not
come from the code path under test; an op fails if it raises, exits
non-zero, or answers wrongly.  A failing op does not stop the run.

Op times are CPU seconds of this process and its waited-for children,
not wall time: specta is single-threaded and CPU-bound, so on an idle
core the two agree, while on a shared host wall time mostly measures the
other tenants (a fixed loop reads 61-166 ms wall at a steady 60-70 ms of
CPU on the 2-vCPU host this was written on).  CPU time still moves with
the host's speed, by about 20% within a minute there, so each op's CPU
time is scaled by a speed factor read off a fixed pure-Python load timed
between ops, every quarter second (see ``SpeedGauge``).  Raw CPU and wall
figures are printed on the report lines too.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every op
twice, untraced and then traced, and reports per-layer metrics from the
boundary spans of the traced call (see tracing.py) plus the tracing
overhead.  The last line of stdout is one JSON object; the lines before it
are the same figures for people, with the failures listed.
"""

import argparse
import contextlib
from dataclasses import dataclass
from fractions import Fraction
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import cad  # noqa: E402
import complexes  # noqa: E402
import pathprobe  # noqa: E402
from ops import Verdict  # noqa: E402
from tracing import REPORTED_COUNTERS, Tracer  # noqa: E402

WORKLOADS = {
    "cad-algebraic": cad.algebraic_cycle,
    "cad-rational": cad.rational_cycle,
    "complex-analyze": complexes.complex_cycle,
    "paths-probe": pathprobe.paths_cycle,
}

SETUP_REPEATS = 15
SETUP_CODE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
              "t = time.process_time(); import specta.cli; "
              "print(repr(time.process_time() - t))")
TAIL_BEYOND = 10
GAUGE_PERIOD = 0.25         # wall seconds between host-speed samples
GAUGE_NEAREST = 3           # samples, nearest in time, that scale one op
GAUGE_REFERENCE_S = 0.009   # CPU seconds of one gauge_load on a quiet host
OUT_DIR = ".perfbench"
WORK_DIR = os.path.join(OUT_DIR, "work")


class SetupFailed(RuntimeError):
    pass


def cpu_seconds() -> float:
    """CPU time of this process, all threads, and of its waited-for children."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def gauge_load():
    """Fixed work of the kinds specta does, none of it in specta: rational
    and big-integer arithmetic, dict and list churn, sorting.  About 10 ms."""
    s = Fraction(0)
    for i in range(1, 300):
        s += Fraction(1, i * i + 1)
    x, y = 3 ** 3000, 7 ** 1500
    acc = 0
    for i in range(60):
        acc += x * (y + i) // (y - i)
    d, out = {}, []
    for i in range(4000):
        d[(i, i % 7)] = [i]
        out.append(d.get((i - 1, (i - 1) % 7)))
    pairs = sorted((i * 7919 % 100003, str(i)) for i in range(6000))
    return s, acc, len(out), len(pairs)


class SpeedGauge:
    """The host's speed next to each op.

    On a shared host the CPU time of the same work drifts with what the
    neighbours run (memory bandwidth, cache, sibling hyperthreads).  A
    fixed load timed close to an op drifts along with it, so an op's CPU
    time times ``GAUGE_REFERENCE_S / load time`` reads about the same at
    any moment; on the host this was written on, scaling cut the
    seed-to-seed spread of ``ops_per_s`` to a third or less.  An op is
    scaled by the median of the GAUGE_NEAREST samples nearest to its
    midpoint."""

    def __init__(self):
        self.at, self.cpu = [], []
        gauge_load()  # warm-up, not kept

    def sample(self):
        start = cpu_seconds()
        gauge_load()
        self.cpu.append(cpu_seconds() - start)
        self.at.append(time.perf_counter())

    def maybe_sample(self):
        if not self.at or time.perf_counter() - self.at[-1] >= GAUGE_PERIOD:
            self.sample()

    def factor(self, at) -> float:
        nearest = sorted(range(len(self.at)), key=lambda i: abs(self.at[i] - at))
        return GAUGE_REFERENCE_S / statistics.median(
            self.cpu[i] for i in nearest[:GAUGE_NEAREST])


def measure_setup(src: str) -> float:
    """Median CPU time to import specta.cli in a fresh interpreter, each
    import scaled like an op (see SpeedGauge)."""
    gauge = SpeedGauge()
    times = []
    for _ in range(SETUP_REPEATS):
        gauge.sample()
        proc = subprocess.run([sys.executable, "-E", "-s", "-c", SETUP_CODE, src],
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise SetupFailed(proc.stderr.strip().splitlines()[-1:] or "import failed")
        times.append((float(proc.stdout), time.perf_counter()))
    gauge.sample()
    return statistics.median(cpu * gauge.factor(at) for cpu, at in times)


def load_cli(src: str):
    sys.path.insert(0, src)
    import specta.cli

    if not os.path.abspath(specta.cli.__file__).startswith(os.path.abspath(src)):
        raise SetupFailed(f"specta imported from {specta.cli.__file__}, not {src}")
    return specta.cli


def call(cli, argv):
    """(exit code or None if it raised, stdout, stderr, CPU seconds, wall
    seconds).

    ``cli.main`` is looked up at call time, so an installed tracer sees it."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start, cpu_start = time.perf_counter(), cpu_seconds()
        try:
            rc = cli.main(argv)
        except Exception:  # a crashing op is a failed op; the run goes on
            rc = None
            err.write(traceback.format_exc())
        cpu, wall = cpu_seconds() - cpu_start, time.perf_counter() - start
    return rc, out.getvalue(), err.getvalue(), cpu, wall


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def digest(rc, stdout, files) -> str:
    h = hashlib.sha256(f"{rc}\n".encode())
    h.update(stdout.encode())
    for path in sorted(files):
        h.update(f"\0{os.path.basename(path)}\0{files[path]}".encode())
    return h.hexdigest()


@dataclass(frozen=True)
class OpResult:
    op_id: str         # cycle:index:slot
    slot: str
    seconds: float     # CPU time of the timed call alone
    wall: float        # its wall time
    at: float          # perf_counter at its midpoint
    rc: object         # exit code, None if the call raised
    verdict: Verdict
    failure: object    # None, "error" (raised or non-zero exit) or "wrong"
    digest: str        # sha256 of exit code, stdout and written files


def run_op(cli, op, index, op_id, tracer=None):
    """Write inputs, time the call, check the answer, clean up."""
    for path, text in op.inputs.items():
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    start = time.perf_counter()
    rc, stdout, stderr, seconds, wall = call(cli, op.argv)
    files = {p: _read(p) for p in op.outputs if os.path.exists(p)}
    traced = None
    if tracer is not None:
        for p in op.outputs:
            if os.path.exists(p):
                os.remove(p)
        tracer.op = index
        tracer.install()
        try:
            traced = call(cli, op.argv)
        finally:
            tracer.uninstall()
        traced_files = {p: _read(p) for p in op.outputs if os.path.exists(p)}
    for path in list(op.inputs) + list(op.outputs):
        if os.path.exists(path):
            os.remove(path)

    failure = None
    try:
        verdict = op.check(rc, stdout, files)
    except Exception:  # unreadable output is a wrong answer
        verdict = Verdict(False, traceback.format_exc(limit=2))
    if rc != 0:
        failure = "error"
        verdict = Verdict(False, f"{verdict.detail} | {stderr.strip()[-300:]}")
    elif not verdict.ok:
        failure = "wrong"
    elif traced is not None and (traced[0], traced[1], traced_files) != (rc, stdout, files):
        failure = "wrong"
        verdict = Verdict(False, "traced call answered differently")
    return OpResult(op_id, op.slot, seconds, wall, start + wall / 2, rc, verdict, failure,
                    digest(rc, stdout, files))


def run_workload(cli, workload, seed, seconds, gauge, tracer=None):
    """Whole cycles, as many as fit in ``seconds`` going by the mean cycle
    so far, and at least one; returns (results, cycles).  ``gauge`` is
    sampled between ops, and once more at the end.

    Whole cycles keep the mix of families the same in every run, and
    stopping before a cycle that would overrun keeps the cycle count from
    flipping between runs when a cycle takes about half of ``seconds``."""
    make_cycle = WORKLOADS[workload]
    results = []
    start = time.perf_counter()
    cycle = 0
    while cycle == 0 or (time.perf_counter() - start) * (cycle + 1) / cycle <= seconds:
        rng = random.Random(f"{workload}:{seed}:{cycle}")
        for op in make_cycle(rng, cycle, WORK_DIR):
            gauge.maybe_sample()
            index = len(results)
            results.append(run_op(cli, op, index, f"{cycle}:{index}:{op.slot}", tracer))
        cycle += 1
    gauge.sample()
    return results, cycle


# -- metrics ---------------------------------------------------------------


def tail(latencies):
    """(value, percentile, samples beyond): the highest percentile that
    still has TAIL_BEYOND samples above it (nearest rank)."""
    ordered = sorted(latencies)
    n = len(ordered)
    rank = max(n - TAIL_BEYOND, 1)
    return ordered[rank - 1], 100.0 * rank / n, n - rank


def end_to_end(results, setup_s, gauge):
    factors = [gauge.factor(r.at) for r in results]
    lat = [r.seconds * f for r, f in zip(results, factors)]
    ok = [r.failure is None for r in results]
    busy = sum(lat)
    tail_s, pct, beyond = tail(lat)
    metrics = {
        "ops_per_s": (sum(ok) / busy, "1/s"),
        "op_p50_ms": (1000 * statistics.median(lat), "ms"),
        "op_tail_ms": (1000 * tail_s, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    cells = sum(r.verdict.cells for r in results if r.failure is None)
    notes = {
        "op_tail_ms": f"p{pct:.1f}, {beyond} of {len(lat)} samples beyond",
        "setup_s": f"median CPU time of {SETUP_REPEATS} fresh imports of specta.cli, scaled",
    }
    extra = [
        f"cells_per_s {cells / busy:.6g} cells/s ({cells} cells in {busy:.3f} s of ops)",
        "host speed factor: median {:.4g}, range {:.4g}-{:.4g} ({} samples)".format(
            statistics.median(factors), min(factors), max(factors), len(gauge.cpu)),
    ]
    for clock, raw in (("raw CPU", [r.seconds for r in results]),
                       ("wall", [r.wall for r in results])):
        extra.append("{}: ops_per_s {:.6g} 1/s, op_p50_ms {:.6g} ms, op_tail_ms {:.6g} ms"
                     .format(clock, sum(ok) / sum(raw), 1000 * statistics.median(raw),
                             1000 * tail(raw)[0]))
    extra += [
        "fail_ratio {:.6g} ({} failed of {} attempted)".format(
            (len(results) - sum(ok)) / len(results), len(results) - sum(ok), len(results)),
    ]
    return metrics, notes, extra


def per_layer(tracer, results, untraced_seconds):
    n = len(results)
    metrics = {}
    for name, (calls, self_s) in tracer.totals().items():
        metrics[f"{name}.calls"] = (calls / n, "count/op")
        metrics[f"{name}.self_s"] = (self_s / n, "s/op")
    c = tracer.counters
    for key in REPORTED_COUNTERS:
        metrics[key] = (c[key] / n, "count/op")
    evals = metrics["paths.eval_on_path.calls"][0] * n
    metrics["paths.eval_on_path.retries"] = ((c["paths.eval_once"] - evals) / n, "count/op")
    products = c["paths.series_mul.products"]
    metrics["paths.series_mul.kept_ratio"] = (
        c["paths.series_mul.kept"] / products if products else 0.0, "ratio")
    traced = sum(tracer.op_walls().values())
    metrics["trace.overhead_ratio"] = (traced / untraced_seconds, "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--digests", default=None,
                        help="write {op id: sha256 of exit code, stdout and files} here")
    args = parser.parse_args(argv)

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "specta", "cli.py")):
        print(f"error: no specta sources under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    try:
        setup_s = None if args.trace else measure_setup(src)
        cli = load_cli(src)
    except (SetupFailed, subprocess.SubprocessError, ValueError) as exc:
        print(f"error: cannot import specta.cli: {exc}", file=sys.stderr)
        return 2

    tracer = Tracer() if args.trace else None
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    os.makedirs(WORK_DIR)
    try:
        gauge = SpeedGauge()
        results, cycles = run_workload(cli, args.workload, args.seed,
                                       args.seconds, gauge, tracer)
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)

    failed = [r for r in results if r.failure is not None]
    wrong = [r for r in failed if r.failure == "wrong"]
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g}"
          f" trace {args.trace}: {len(results)} ops in {cycles} cycles"
          f" (nproc {os.cpu_count()}, {platform.machine()},"
          f" Python {platform.python_version()})")
    for r in failed:
        print(f"failed {r.op_id} ({r.failure}): {r.verdict.detail}")
    slots = {}
    for r in results:
        slots.setdefault(r.slot, []).append(r.seconds)
    for slot, secs in slots.items():
        print(f"slot {slot}: {len(secs)} ops, median {1000 * statistics.median(secs):.1f} ms")
    if tracer is None:
        metrics, notes, extra = end_to_end(results, setup_s, gauge)
        for line in extra:
            print(line)
    else:
        metrics = per_layer(tracer, results, sum(r.wall for r in results))
        notes = {}
        if tracer.missing:
            print("boundaries not found (reported as 0): " + ", ".join(tracer.missing))
        spans = os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.tsv")
        tracer.write(spans)
        print(f"spans written to {spans}")
    for name, (value, unit) in metrics.items():
        note = f" ({notes[name]})" if name in notes else ""
        print(f"{name} {value:.6g} {unit}{note}")
    if args.digests:
        with open(args.digests, "w", encoding="utf-8") as fh:
            json.dump({r.op_id: r.digest for r in results}, fh, indent=0, sort_keys=True)
    print(json.dumps({
        "correct": not wrong,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
