"""Compare two digest files written by ``perfbench/run.py --digests``.

    python tests/digest_diff.py A.json B.json

Each file maps op ids to the sha256 of an op's exit code, stdout and
files.  Two runs of one workload and seed draw the same ops in the same
order, but a faster tree fits more of them in its run, so only the op ids
present in both files are compared.  The script prints the number of
shared and of differing op ids, the same two counts per slot (the last
field of an op id), then each differing id, and exits 1 if any shared op
differs or no op is shared.
"""

import json
import sys
from collections import Counter


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    old, new = (json.load(open(path, encoding="utf-8")) for path in argv)
    shared = sorted(old.keys() & new.keys())
    differ = [op for op in shared if old[op] != new[op]]
    print(f"shared {len(shared)} differ {len(differ)}")
    per_slot = Counter(op.rsplit(":", 1)[-1] for op in shared)
    differ_slot = Counter(op.rsplit(":", 1)[-1] for op in differ)
    for slot in sorted(per_slot):
        print(f"slot {slot}: shared {per_slot[slot]} differ {differ_slot[slot]}")
    for op in differ:
        print(f"differs: {op}")
    return 1 if differ or not shared else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
