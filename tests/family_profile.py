"""Replay a benchmark workload's ops in-process and size its op families.

    PYTHONPATH=src python tests/family_profile.py WORKLOAD [SEED] [CYCLES]

Not collected by pytest (its name does not start with ``test_``).  The
script draws CYCLES cycles (default 5) of WORKLOAD's ops from the
generators of ``perfbench/run.py``, seeded as that harness seeds them
(SEED defaults to 1), writes each op's input files into a temporary
directory, and calls ``specta.cli.main`` on each op in this process,
timed in process CPU time.  It reads perfbench's modules and writes
nothing under ``perfbench/`` (bytecode caching is off while it imports
them).  It prints one line per slot (the op family): the number of ops,
the CPU ms per op, the slot's share of all op CPU and the share of the
slot's op CPU spent inside the CLI's parse entry points (``PARSERS``,
timed in process CPU time around the names ``specta.cli`` calls), then
the same figures over all slots.  Each op's own ``check`` runs on its
answer; the script exits 1 if any check fails, naming the op.

CPU time on a shared host moves with the neighbours, so compare two
trees by alternating runs of this script on each.
"""

from collections import defaultdict
import os
import shutil
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.join(os.path.dirname(HERE), "perfbench")
# the parse entry points whose CPU time is reported, as specta.cli binds them
PARSERS = ("parse_path", "parse_function", "parse_polynomial", "parse_polynomial_list",
           "parse_formula", "parse_complex")


def _timed(fn, spent):
    """fn, adding the process CPU time of each call to spent[0]."""
    def wrapper(*args, **kwargs):
        start = time.process_time()
        try:
            return fn(*args, **kwargs)
        finally:
            spent[0] += time.process_time() - start
    return wrapper


def main(argv) -> int:
    if not 1 <= len(argv) <= 3:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    workload = argv[0]
    seed = int(argv[1]) if len(argv) > 1 else 1
    cycles = int(argv[2]) if len(argv) > 2 else 5
    sys.dont_write_bytecode = True
    sys.path.insert(0, PERFBENCH)
    import random
    import run
    import specta.cli as cli

    if workload not in run.WORKLOADS:
        print(f"unknown workload {workload!r}; one of {sorted(run.WORKLOADS)}", file=sys.stderr)
        return 2
    make_cycle = run.WORKLOADS[workload]
    cpu = defaultdict(float)
    parse = defaultdict(float)
    count = defaultdict(int)
    failed = []
    spent = [0.0]
    originals = {name: getattr(cli, name) for name in PARSERS}
    for name, fn in originals.items():
        setattr(cli, name, _timed(fn, spent))
    work = tempfile.mkdtemp(prefix="family-profile-")
    try:
        for cycle in range(cycles):
            rng = random.Random(f"{workload}:{seed}:{cycle}")
            for index, op in enumerate(make_cycle(rng, cycle, work)):
                for path, text in op.inputs.items():
                    with open(path, "w", encoding="utf-8") as fh:
                        fh.write(text)
                spent[0] = 0.0
                rc, stdout, stderr, seconds, _ = run.call(cli, op.argv)
                parse[op.slot] += spent[0]
                files = {p: run._read(p) for p in op.outputs if os.path.exists(p)}
                for path in list(op.inputs) + list(op.outputs):
                    if os.path.exists(path):
                        os.remove(path)
                try:
                    verdict = op.check(rc, stdout, files)
                    ok, detail = verdict.ok, verdict.detail
                except Exception as exc:  # an unreadable answer fails its check
                    ok, detail = False, f"{type(exc).__name__}: {exc}"
                if not ok:
                    failed.append(f"{cycle}:{index}:{op.slot}: {detail} {stderr.strip()[-200:]}")
                cpu[op.slot] += seconds
                count[op.slot] += 1
    finally:
        for name, fn in originals.items():
            setattr(cli, name, fn)
        shutil.rmtree(work, ignore_errors=True)
    total = sum(cpu.values())
    ops = sum(count.values())
    print(f"{workload} seed {seed}: {ops} ops in {cycles} cycles, {1000 * total:.1f} ms CPU")
    for slot in sorted(cpu, key=cpu.get, reverse=True):
        print(f"slot {slot}: {count[slot]} ops, {1000 * cpu[slot] / count[slot]:.3f} ms/op,"
              f" {100 * cpu[slot] / total:.1f}% of CPU,"
              f" parse {100 * parse[slot] / cpu[slot]:.1f}%")
    print(f"all slots: {1000 * total / ops:.3f} ms/op,"
          f" parse {100 * sum(parse.values()) / total:.1f}%")
    for line in failed:
        print(f"FAILED {line}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
