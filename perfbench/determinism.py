"""Byte-determinism check across PYTHONHASHSEED values.

Run from the root of a source checkout:

    python3 perfbench/determinism.py --seed 1 --seconds 10

For each workload, runs run.py twice with the same seed, once under each
of two PYTHONHASHSEED values, and compares the per-op digests (exit code,
stdout and written files) of the ops both runs completed.  Exits non-zero
if any digest differs or no op was compared.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
HASH_SEEDS = ("0", "4242")


def digests(workload, seed, seconds, hash_seed):
    path = os.path.join(".perfbench", f"digests-{workload}-{seed}-{hash_seed}.json")
    os.makedirs(".perfbench", exist_ok=True)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
         "--digests", path],
        env=dict(os.environ, PYTHONHASHSEED=hash_seed),
        capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: run.py failed: {proc.stderr.strip()}")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    sys.path.insert(0, HERE)
    from run import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", nargs="*", default=sorted(WORKLOADS),
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    args = parser.parse_args(argv)

    bad = False
    for workload in args.workload:
        a, b = (digests(workload, args.seed, args.seconds, h) for h in HASH_SEEDS)
        common = sorted(set(a) & set(b))
        differ = [op for op in common if a[op] != b[op]]
        print(f"{workload} seed {args.seed}: {len(common)} ops compared under "
              f"PYTHONHASHSEED={' and '.join(HASH_SEEDS)}, {len(differ)} differ")
        for op in differ:
            print(f"  differs: {op}")
        bad = bad or bool(differ) or not common
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
