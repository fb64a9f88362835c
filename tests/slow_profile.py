"""Decompose the slow formulas of the CAD corpus, each under a CPU deadline.

    PYTHONPATH=src python tests/slow_profile.py [SECONDS]

Not collected by pytest (its name does not start with ``test_``), so the
slow formulas stay out of Tier-1 but keep a budget of their own.  Each
formula of ``SLOW_FORMULAS`` in ``tests/test_cad2d.py`` is decomposed and
printed with ``decomposition_text`` under a deadline of SECONDS of process
CPU time (default 10), set by a profiling timer.  The script checks the
sha256 prefix of the full text, then prints per formula the CPU seconds,
the (inner sector, root line) pairs whose limits the critical-section
counts gave and the pairs that fell back to ``_limit_assignment``, and
the interval narrowings (``AlgebraicNumber.narrow``) that took only
certified jumps and those that fell back to one or more plain halvings;
the script counts these by wrapping ``narrow`` and ``_Bracket.halve``.
It also checks every stack's critical sections against the division
reference (``check_critical_against_division`` in ``tests/test_cad2d.py``).
It exits 1 on any miss: a passed deadline, an error, a wrong digest or
critical sections that differ from the reference.
"""

from collections import Counter
import hashlib
import os
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))

# sha256 prefixes of decomposition_text, samples and shear included
WANT = ("cdc4fbe930238322", "376f85a82769e081")


class Deadline(Exception):
    pass


def _expire(signum, frame):
    raise Deadline


def pairs(dec):
    """(counted, fallback): inner sector and root line pairs, split by
    whether the root line places its critical sections."""
    stacks, n = dec._stacks, len(dec._xroots)
    counted = fallback = 0
    for st in stacks[2:2 * n:2]:
        for rs in (stacks[st.index - 1], stacks[st.index + 1]):
            if rs.critical is None:
                fallback += 1
            else:
                counted += 1
    return counted, fallback


def count_narrowings(arith):
    """Wrap ``narrow`` and ``_Bracket.halve``; the returned dict counts
    the narrowings that moved an interval as "jumps" when they took no
    plain halving and as "halved" when they took one or more."""
    counts = {"jumps": 0, "halved": 0}
    narrow, halve = arith.AlgebraicNumber.narrow, arith._Bracket.halve
    halvings = [0]

    def counted_halve(bracket):
        halvings[0] += 1
        return halve(bracket)

    def counted_narrow(number, k):
        if k > 0 and not number.is_rational:
            before = halvings[0]
            narrow(number, k)
            counts["halved" if halvings[0] > before else "jumps"] += 1
        else:
            narrow(number, k)

    arith.AlgebraicNumber.narrow, arith._Bracket.halve = counted_narrow, counted_halve
    return counts


def main(argv) -> int:
    seconds = float(argv[0]) if argv else 10.0
    sys.path.insert(0, HERE)
    from test_cad2d import SLOW_FORMULAS, check_critical_against_division
    from specta import arith, cad2d
    from specta._expr import parse_formula

    narrowings = count_narrowings(arith)

    signal.signal(signal.SIGPROF, _expire)
    misses = 0
    for text, want in zip(SLOW_FORMULAS, WANT):
        narrowings.update(jumps=0, halved=0)
        start = time.process_time()
        signal.setitimer(signal.ITIMER_PROF, seconds)
        try:
            dec = cad2d.decompose(parse_formula(text))
            digest = hashlib.sha256(cad2d.decomposition_text(dec).encode()).hexdigest()
        except Deadline:
            digest = f"deadline of {seconds:g} s CPU passed"
        except Exception as exc:  # a miss like any other, reported by name
            digest = f"{type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
        cpu = time.process_time() - start
        ok = digest.startswith(want)
        if ok:
            try:
                check_critical_against_division(dec, Counter())
            except AssertionError as exc:
                ok, digest = False, f"critical sections differ from the reference on stack {exc}"
        misses += not ok
        counted, fallback = pairs(dec) if ok else (0, 0)
        print(f"{'ok' if ok else 'MISS'} {cpu:.2f}s counted={counted} fallback={fallback}"
              f" narrow_jumps={narrowings['jumps']} narrow_halved={narrowings['halved']}"
              f" {digest[:16] if ok else digest} {text}")
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
