"""What one benchmark operation is, plus helpers shared by the workloads.

An op is one ``specta.cli.main(argv)`` call.  Its input files are written
before the call, and the call alone is timed.  After the call, ``check``
compares the exit code, stdout and written files against a reference that
does not come from the code path under test.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable


@dataclass(frozen=True)
class Verdict:
    ok: bool
    detail: str = ""
    cells: int = 0          # ambient cells produced, or input cells analysed


@dataclass(frozen=True)
class Op:
    slot: str          # family name, for reports
    argv: list
    inputs: dict       # path -> text written before the call
    outputs: tuple     # paths the call writes
    check: Callable    # (exit code, stdout, {path: text}) -> Verdict


def q(value) -> str:
    """A rational as specta's parsers read it."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


@dataclass(frozen=True)
class ComplexFile:
    """A complex file read without specta: cells, faces and sample lines."""

    cells: dict      # id -> (dim, in_m)
    faces: list      # (small, big)
    samples: dict    # id -> (x text, y text)
    shear: object    # Fraction or None


def read_complex(text: str) -> ComplexFile:
    cells, faces, samples, shear = {}, [], {}, None
    for line in text.splitlines():
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "cell":
            kv = dict(p.split("=", 1) for p in parts[2:])
            cells[parts[1]] = (int(kv["dim"]), kv["inM"] == "1")
        elif parts[0] == "face":
            faces.append((parts[1], parts[2]))
        elif parts[:2] == ["#", "sample"]:
            samples[parts[2]] = (parts[3][2:], parts[4][2:])
        elif parts[:2] == ["#", "shear"]:
            shear = Fraction(parts[2].split("=", 1)[1])
    return ComplexFile(cells, faces, samples, shear)


def euler_and_components(cf: ComplexFile):
    """Euler characteristic and component count of the inM cells, with two
    inM cells joined when one lies in the closure of the other."""
    m = {cid for cid, (_, in_m) in cf.cells.items() if in_m}
    euler = sum((-1) ** cf.cells[cid][0] for cid in m)
    parent = {cid: cid for cid in m}

    def find(c):
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    for small, big in cf.faces:
        if small in m and big in m:
            parent[find(small)] = find(big)
    return euler, len({find(c) for c in m})
