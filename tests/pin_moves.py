"""Compare decomposition_text of the pinned formulas between two source trees.

    PYTHONPATH=src python tests/pin_moves.py OLD_SRC [NEW_SRC]

OLD_SRC and NEW_SRC are ``src`` directories (NEW_SRC defaults to the
``src`` beside this file).  The formulas are ``PINNED_TEXT``,
``PINNED_DEGENERATE``, ``ALGEBRAIC_TEMPLATES`` and ``SLOW_FORMULAS`` of
``tests/test_cad2d.py``.  The script checks what a change that moves
root intervals but no cell may move:

* every line above the first ``# sample`` line is identical;
* every moved ``~`` coordinate is within 2^-20 of the old one;
* every moved exact y on a root line (a fence) lies strictly between the
  same two sections of the old decomposition.

It prints each moved fence, the counts (moved texts, samples and ``~``
coordinates, the largest ``~`` move) and the sha256 of each new text,
and exits 1 if a check fails.
"""

import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

# run in a child process on one source tree: texts, or the side of each
# given fence relative to the sections around it
CHILD = r"""
import json, sys
from fractions import Fraction
from specta import cad2d
from specta._expr import parse_formula
from specta.arith import real_compare
job = json.load(sys.stdin)
out = {}
for text in job["formulas"]:
    dec = cad2d.decompose(parse_formula(text))
    out[text] = cad2d.decomposition_text(dec)
    for stack, level, fence in job.get("fences", {}).get(text, []):
        secs = dec._stacks[stack].sections
        f = Fraction(fence)
        below = level == 0 or real_compare(f, secs[level // 2 - 1].copy()) > 0
        above = level == 2 * len(secs) or real_compare(f, secs[level // 2].copy()) < 0
        out[f"{text}|{stack}|{level}"] = below and above
json.dump(out, sys.stdout)
"""


def run(src, job):
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", CHILD], input=json.dumps(job), env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def split(text):
    """(lines above the first sample line, {cell id: (x text, y text)})."""
    rows = {}
    for line in text.splitlines():
        if line.startswith("# sample "):
            cid, x, y = line.split()[2:]
            rows[cid] = (x[2:], y[2:])
    return text.split("# sample", 1)[0], rows


def main(old_src, new_src):
    sys.path.insert(0, HERE)
    import test_cad2d
    formulas = list(test_cad2d.PINNED_TEXT) + list(test_cad2d.PINNED_DEGENERATE)
    formulas += test_cad2d.ALGEBRAIC_TEMPLATES + test_cad2d.SLOW_FORMULAS
    old, new = run(old_src, {"formulas": formulas}), run(new_src, {"formulas": formulas})
    bad, fences, counts = [], {}, dict(texts=0, moved_texts=0, samples=0, approx=0, max_move=0.0, fences=0)
    limit = 2.0 ** -20
    for text in formulas:
        counts["texts"] += 1
        counts["moved_texts"] += old[text] != new[text]
        (ohead, orows), (nhead, nrows) = split(old[text]), split(new[text])
        if ohead != nhead or orows.keys() != nrows.keys():
            bad.append(f"cells moved: {text}")
            continue
        for cid in orows:
            stack, level = map(int, cid[1:].split("_"))
            for axis, ov, nv in zip("xy", orows[cid], nrows[cid]):
                if ov == nv:
                    continue
                counts["samples"] += 1
                if ov.startswith("~") and nv.startswith("~"):
                    move = abs(float(ov[1:]) - float(nv[1:]))
                    counts["approx"] += 1
                    counts["max_move"] = max(counts["max_move"], move)
                    if move >= limit:
                        bad.append(f"{text} {cid}: {ov} -> {nv}")
                elif axis == "y" and stack % 2 == 1 and level % 2 == 0:
                    counts["fences"] += 1
                    fences.setdefault(text, []).append((stack, level, nv))
                    print(f"fence {text} {cid}: {ov} -> {nv}")
                else:
                    bad.append(f"{text} {cid}: {ov} -> {nv}")
    sides = run(old_src, {"formulas": list(fences), "fences": fences}) if fences else {}
    for text, rows in fences.items():
        for stack, level, nv in rows:
            if not sides[f"{text}|{stack}|{level}"]:
                bad.append(f"{text} c{stack}_{level}: fence {nv} not between the old sections")
    print(json.dumps(counts))
    for text in formulas:
        print(hashlib.sha256(new[text].encode()).hexdigest(), text)
    for line in bad:
        print("FAIL", line)
    return 1 if bad else 0


if __name__ == "__main__":
    args = sys.argv[1:]
    sys.exit(main(os.path.abspath(args[0]),
                  os.path.abspath(args[1] if len(args) > 1 else os.path.join(HERE, "..", "src"))))
