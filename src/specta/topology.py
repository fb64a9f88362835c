"""Combinatorial engine on finite regular cell complexes.

A CellComplex represents a closed pair X = Cl(M): every cell carries a flag
``inM``; the complex as a whole stands for the closure of the flagged part.
On top of that the module computes local dimensions, the brick
decomposition into pure-dimensional closed pieces, the locally compact
part M_lc (with the two-step removal rho0, rho1), the finite set of
dangling endpoints eta(M), compactness, the core M_lc minus eta(M_lc), and
a spectral fingerprint whose components are homeomorphism invariants of
the flagged set.  Fingerprint comparison reports necessary-condition
verdicts for the four flavors of equivalence studied by the classification
theorems; it never claims a positive isomorphism.

Complexes must be regular: no loops (every 1-cell has two distinct
endpoints) and closures are unions of cells.  Inputs violating this raise
RegularityViolation.  Cells are the integers 0..n-1 in the order given
(file order when parsed), with ``ids``, ``dims`` and ``flags`` (inM) in
flat lists and each strict closure and star a tuple of indices.  String
ids stay at the edges: the text format, the accessors, and the id sets
that ``local_dimension``, ``restrict`` and ``fingerprint_data`` take.
Bricks, rho, eta, compactness and a Fingerprint's sets are index sets.
All of them take the flagged set M (the inM cells by default) and ignore
the cells outside Cl(M), so they answer on (K, S) as on ``restrict(K, S)``.

Closure rule: faces decrease dimension, so a vertex has an empty closure
and a 1-cell's closure is its direct faces; the constructor unions the
closures of direct faces only from dimension 2 up.  Component rule: a cell
meets the cells of its closure.  If c lies in Cl(c') and both are in S,
both lie in the brick of the local dimension of c', so a fingerprint
traverses each brick once and counts the components of S by joining the
brick components that share a cell.

Text format (one record per line, '#' starts a comment):

    complex ambient=<m> bounded=<0|1>
    cell <id> dim=<d> inM=<0|1>
    face <id_small> <id_big>

``face a b`` puts cell ``a`` in the closure of cell ``b``; any generating
set is accepted.  Records may come in any order, and a record's key=value
fields in either order, each exactly once.  Ids are whitespace-free tokens
without '#'; their decimal digit runs sort numerically.  Serialization emits
the strict closure relation in canonical id order, so parse -> serialize is
byte-identical on canonical files.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields
from functools import cached_property


class TopologyError(ValueError):
    pass


class NotInM(TopologyError):
    """Operation requires a cell flagged inM."""


class RegularityViolation(TopologyError):
    """The complex is not a regular cell complex (or an axiom check failed)."""


_DIGIT_RUNS = re.compile(r"(\d+)")


def _id_key(cid: str):
    """Numeric-aware sort key so s2 < s10 and plain numbers order naturally.

    The odd tokens of the split are the decimal digit runs; any other digit
    character, such as a superscript, sorts as text.  The id itself breaks
    ties such as s1, s01, so the order is total.
    """
    return (tuple((0, int(tok)) if i & 1 else (1, tok)
                  for i, tok in enumerate(_DIGIT_RUNS.split(cid)) if tok != ""), cid)


class CellComplex:
    """Finite regular cell complex with an inM flag per cell.

    cells: mapping id -> (dim, inM).  faces: iterable of (small, big) pairs
    meaning small lies in the closure of big; any generating set works, the
    strict transitive closure is computed here.  The constructor validates
    the structural invariants and raises TopologyError subclasses.
    """

    def __init__(self, ambient_dim: int, bounded: bool, cells, faces):
        if isinstance(cells, dict):
            cells = ((cid, dim, in_m) for cid, (dim, in_m) in cells.items())
        ids, dims, flags = [], [], []
        for cid, dim, in_m in cells:
            ids.append(str(cid))
            dims.append(int(dim))
            flags.append(bool(in_m))
        smalls, bigs = [], []
        for small, big in faces:
            smalls.append(str(small))
            bigs.append(str(big))
        self._build(int(ambient_dim), bool(bounded), ids, dims, flags, smalls, bigs)

    @classmethod
    def _from_tables(cls, ambient_dim, bounded, ids, dims, flags, smalls, bigs):
        """The complex of typed tables: str ids, int dims, bool flags, and
        the face pairs (smalls[i], bigs[i]) as str ids; no coercion."""
        K = cls.__new__(cls)
        K._build(ambient_dim, bounded, ids, dims, flags, smalls, bigs)
        return K

    def _build(self, ambient_dim, bounded, ids, dims, flags, smalls, bigs):
        """Validate typed tables record by record, then compute closures
        and stars."""
        if ambient_dim < 1:
            raise TopologyError("ambient dimension must be positive")
        self.ambient_dim, self.bounded = ambient_dim, bounded
        index = {}
        for cid, dim in zip(ids, dims):
            if cid in index:
                raise TopologyError(f"duplicate cell id {cid!r}")
            if dim < 0:
                raise TopologyError(f"negative dimension for cell {cid!r}")
            if dim > ambient_dim:
                raise TopologyError(
                    f"cell {cid!r} has dimension {dim} above ambient {ambient_dim}")
            index[cid] = len(index)
        direct = [[] for _ in dims]
        for small, big in zip(smalls, bigs):
            s, b = index.get(small), index.get(big)
            if s is None or b is None:
                raise TopologyError(f"face pair ({small!r}, {big!r}) references unknown cell")
            if dims[s] >= dims[b]:
                raise TopologyError(
                    f"face pair ({small!r}, {big!r}) does not decrease dimension")
            direct[b].append(s)
        closure = [()] * len(dims)
        star = [[] for _ in dims]
        for c in sorted(range(len(dims)), key=dims.__getitem__):
            # faces decrease dimension, so a vertex has none and a 1-cell's
            # closure is its direct faces, its endpoints: unions start at 2
            acc = set(direct[c])
            if dims[c] > 1:
                acc.update(*map(closure.__getitem__, direct[c]))
            elif dims[c] == 1 and len(acc) != 2:
                raise RegularityViolation(
                    f"1-cell {ids[c]!r} has {len(acc)} distinct endpoints, need 2")
            closure[c] = tuple(acc)
            for s in acc:
                star[s].append(c)
        self.ids, self.dims, self.flags, self._index = ids, dims, flags, index
        self._closure, self._star = closure, list(map(tuple, star))

    # -- basic accessors ---------------------------------------------------

    @cached_property
    def cells(self):
        """Mapping id -> (dim, inM) in cell order, built on first use."""
        return dict(zip(self.ids, zip(self.dims, self.flags)))

    def dim(self, cid) -> int:
        return self.dims[self._index[cid]]

    def in_m(self, cid) -> bool:
        return self.flags[self._index[cid]]

    def closure_of(self, cid):
        """Strictly smaller cells in the closure of cid."""
        return self._names(self._closure[self._index[cid]])

    def star_of(self, cid):
        """Cells strictly containing cid in their closure."""
        return self._names(self._star[self._index[cid]])

    def m_cells(self):
        return self._names(self._m())

    def carrier(self):
        """Cl(M): the inM cells with all their faces."""
        return self._names(self._carrier(self._m()))

    # -- internals ---------------------------------------------------------

    def _names(self, cells):
        return set(map(self.ids.__getitem__, cells))

    def _m(self):
        return {c for c, in_m in enumerate(self.flags) if in_m}

    @cached_property
    def _all(self):
        """Every cell index, to check caller-given index sets against."""
        return frozenset(range(len(self.ids)))

    @cached_property
    def _odd(self):
        """The cells of odd dimension, for Euler characteristics."""
        return frozenset(c for c, d in enumerate(self.dims) if d & 1)

    def _carrier(self, cells):
        """The indices in cells with all their faces."""
        return set(cells).union(*map(self._closure.__getitem__, cells))

    def __eq__(self, other):
        if not isinstance(other, CellComplex):
            return NotImplemented
        # the text holds the header, every cell and the whole closure relation
        return serialize_complex(self) == serialize_complex(other)

    def __repr__(self):
        return (f"CellComplex(ambient={self.ambient_dim}, cells={len(self.ids)}, "
                f"inM={sum(self.flags)}, bounded={self.bounded})")


# ---------------------------------------------------------------------------
# text format


def _fields(parts, key, flag):
    """(int, bool) of a record's fields key=<int> and flag=<0|1>, in either order."""
    first, second = sorted(parts)  # exactly two fields, key sorting first
    if not first.startswith(key + "=") or second not in (flag + "=0", flag + "=1"):
        raise ValueError("unknown, missing or repeated field, or a flag not 0 or 1")
    return int(first[len(key) + 1:]), second[-1] == "1"


def parse_complex(text: str) -> CellComplex:
    header = None
    ids, dims, flags, smalls, bigs = [], [], [], [], []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = (raw[:raw.index("#")] if "#" in raw else raw).split()
        # the two well-formed record shapes of almost every line, directly;
        # anything else takes the general branch below
        if len(parts) == 3 and parts[0] == "face":
            smalls.append(parts[1])
            bigs.append(parts[2])
            continue
        if (len(parts) == 4 and parts[0] == "cell" and parts[2][:4] == "dim="
                and parts[2][4:].isdecimal() and parts[3] in ("inM=0", "inM=1")):
            ids.append(parts[1])
            dims.append(int(parts[2][4:]))
            flags.append(parts[3][4] == "1")
            continue
        if not parts:
            continue
        kind = parts[0]
        if kind not in ("face", "cell", "complex"):
            raise TopologyError(f"unknown record {kind!r}")
        if kind == "complex" and header is not None:
            raise TopologyError("duplicate complex header")
        try:
            if kind == "face":
                _, small, big = parts  # exactly two ids, else ValueError
                smalls.append(small)
                bigs.append(big)
            elif kind == "cell":
                dim, in_m = _fields(parts[2:], "dim", "inM")
                ids.append(parts[1])
                dims.append(dim)
                flags.append(in_m)
            else:
                header = _fields(parts[1:], "ambient", "bounded")
        except (IndexError, ValueError) as exc:
            raise TopologyError(f"malformed line {lineno}: {raw!r}") from exc
    if header is None:
        raise TopologyError("missing complex header")
    return CellComplex._from_tables(*header, ids, dims, flags, smalls, bigs)


def _id_order(K: CellComplex):
    """Cell indices in canonical id order, and each index's rank in it."""
    order = sorted(range(len(K.ids)), key=lambda c: _id_key(K.ids[c]))
    return order, sorted(range(len(order)), key=order.__getitem__)


def serialize_complex(K: CellComplex) -> str:
    ids = K.ids
    order, rank = _id_order(K)
    lines = [f"complex ambient={K.ambient_dim} bounded={1 if K.bounded else 0}"]
    lines.extend(f"cell {ids[c]} dim={K.dims[c]} inM={int(K.flags[c])}" for c in order)
    # face pairs in (small, big) id order: smalls in order, each star by rank
    lines.extend(f"face {ids[s]} {ids[b]}"
                 for s in order for b in sorted(K._star[s], key=rank.__getitem__))
    return "\n".join(lines) + "\n"


def _flagged(K: CellComplex, M):
    """The cell ids M, checked, as a set of indices; K's inM cells when M is None."""
    if M is None:
        return K._m()
    M = {str(c) for c in M}
    unknown = M - K._index.keys()
    if unknown:
        raise TopologyError(f"unknown cells: {sorted(unknown)}")
    return {K._index[c] for c in M}


def _indices(K: CellComplex, S):
    """The cell indices S as a set, checked; K's inM cells when S is None."""
    if S is None:
        return K._m()
    S = S if isinstance(S, (set, frozenset)) else set(S)
    if not S <= K._all:
        raise TopologyError(f"cells must be indices 0..{len(K.ids) - 1}")
    return S


def restrict(K: CellComplex, m_cells) -> CellComplex:
    """Sub complex on Cl(m_cells) with exactly m_cells flagged inM.

    m_cells must be existing cell ids; their faces are pulled in with
    inM = false unless they are in m_cells themselves.  The kept cells keep
    their parent's order, whatever the order of m_cells.  The parent's
    validated tables are renumbered, each star cut down to the kept set, and
    nothing is checked again: a closed subcomplex of a regular complex is
    regular.
    """
    S = _flagged(K, m_cells)
    keep = sorted(K._carrier(S))
    new = dict(zip(keep, range(len(keep))))
    sub = CellComplex.__new__(CellComplex)
    sub.ambient_dim, sub.bounded = K.ambient_dim, K.bounded
    sub.ids = [K.ids[c] for c in keep]
    sub.dims = [K.dims[c] for c in keep]
    sub.flags = [c in S for c in keep]
    sub._index = dict(zip(sub.ids, range(len(keep))))
    sub._closure = [tuple(map(new.__getitem__, K._closure[c])) for c in keep]
    sub._star = [tuple(new[b] for b in K._star[c] if b in new) for c in keep]
    return sub


# ---------------------------------------------------------------------------
# local dimension and bricks


@dataclass(frozen=True)
class Brick:
    dimension: int
    cells: frozenset  # cell indices


def local_dimension(K: CellComplex, cid, M=None) -> int:
    """Largest dimension of a cell of M whose closure contains cid (or cid itself).

    M is the flagged set of cell ids (K's inM cells by default), checked as
    ``restrict`` checks it, and must contain cid.
    """
    c = K._index.get(str(cid))
    if c is None:
        raise TopologyError(f"unknown cell {cid!r}")
    inside = K.flags.__getitem__ if M is None else _flagged(K, M).__contains__
    if not inside(c):
        raise NotInM(f"cell {cid!r} is not in M")
    return max([K.dims[b] for b in K._star[c] if inside(b)], default=K.dims[c])


def bricks(K: CellComplex, M=None):
    """Brick decomposition of the index set M: closures in M of the local-dimension strata.

    Returned in strictly decreasing dimension order.  The Lemma axioms
    (purity, covering, combinatorial density of B_i minus the others,
    decreasing dimensions) are verified before returning.
    """
    S = _indices(K, M)
    if not S:
        raise TopologyError("brick decomposition of an empty complex")
    dims, closure = K.dims, K._closure
    # local dimensions in one sweep down: the first cell of S above a face is a
    # highest one, and a cell reached from above had its faces reached with it
    ldim, strata = {}, {}
    for c in sorted(S, key=dims.__getitem__, reverse=True):
        if c not in ldim:
            ldim[c] = dims[c]
            for f in closure[c]:
                ldim.setdefault(f, dims[c])
        strata.setdefault(ldim[c], []).append(c)
    out = [Brick(d, frozenset(K._carrier(strata[d]) & S))
           for d in sorted(strata, reverse=True)]
    # axiom (ii): union is M
    if set().union(*(b.cells for b in out)) != S:
        raise RegularityViolation("bricks do not cover M")
    # axioms (i) purity and (iii) combinatorial density of B_i minus the other
    # bricks: B_i lies in the closure of its top cells, and of its private part
    for b in out:
        tops = {c for c in b.cells if dims[c] == b.dimension}
        private = b.cells.difference(*(b2.cells for b2 in out if b2 is not b))
        for spine, axiom in ((tops, "purity"), (private, "density")):
            bad = b.cells - K._carrier(spine)
            if bad:
                raise RegularityViolation(f"brick of dim {b.dimension} fails {axiom}"
                                          f" at cell {K.ids[min(bad)]!r}")
    # axiom (iv) holds by construction (strictly decreasing values)
    return out


# ---------------------------------------------------------------------------
# locally compact part, eta, compactness, core


def rho_sequence(K: CellComplex, M=None):
    """(rho0, rho1, M_lc) of the index set M (K's inM cells by default).

    rho0 is the non-flagged part of Cl(M); rho1 the cells of M sitting in
    the closure of a rho0 cell; M_lc the rest of M.  A self-check confirms
    that rho1 of M_lc, flagged alone, is empty.
    """
    S = _indices(K, M)
    rho0 = K._carrier(S) - S
    rho1 = K._carrier(rho0) & S
    m_lc = S - rho1
    if not K._carrier(K._carrier(m_lc) - m_lc).isdisjoint(m_lc):
        raise RegularityViolation(
            "locally compact part failed its compact-neighborhood self-check")
    return rho0, rho1, m_lc


def eta_set(K: CellComplex, M=None):
    """0-cells of the index set M whose star within M is one 1-cell and nothing higher.

    These are the dangling endpoints: points with a punctured-interval
    neighborhood in M (K's inM cells by default).  A higher cell of Cl(M)
    touching a point lies in the closure of a higher cell of M touching it,
    so looking at the star within M suffices.  The result is always finite.
    """
    S = _indices(K, M)
    dims, star = K.dims, K._star
    return {c for c in S
            if dims[c] == 0 and [dims[s] for s in star[c] if s in S] == [1]}


def is_compact(K: CellComplex, subset=None) -> bool:
    """True iff the flagged set (or the given inM subset, as indices) is closed and bounded.

    Closedness is combinatorial: every face of a considered cell must be
    inM (and inside the subset when one is given).  Boundedness comes from
    the header flag; for subsets of an unbounded complex this is
    conservative (a bounded subset of an unbounded complex reports false).
    The subset is checked first, whatever the header says.
    """
    subset = _indices(K, subset)
    outside = [c for c in subset if not K.flags[c]]
    if outside:
        raise NotInM(f"subset cell {K.ids[min(outside)]!r} is not in M")
    # every subset cell is inM, so a face inside the subset is inM as well
    return K.bounded and K._carrier(subset) <= subset


def core(K: CellComplex) -> CellComplex:
    """Complex restricted to M_lc with the eta points of M_lc demoted.

    Idempotent whenever the result has empty eta.
    """
    m_lc = rho_sequence(K)[2]
    return restrict(K, K._names(m_lc - eta_set(K, m_lc)))


# ---------------------------------------------------------------------------
# fingerprints


@dataclass(frozen=True)
class BrickRecord:
    dimension: int
    components: int
    euler: int
    compact: bool
    eta_count: int


@dataclass(frozen=True)
class FingerprintData:
    dim: int
    compact: bool
    locally_compact: bool
    euler: int
    components: int
    eta_count: int
    bricks: tuple


@dataclass(frozen=True)
class Fingerprint:
    """Homeomorphism invariants of M, of M minus eta, and of the core.

    rho, bricks and eta are the rho sets, bricks and eta(M) that the pass
    over M computed, as sets of cell indices of the complex, kept for reports;
    == and repr ignore them.
    """

    data: FingerprintData
    minus_eta: FingerprintData
    core: FingerprintData
    rho: tuple = field(compare=False, repr=False)
    bricks: list = field(compare=False, repr=False)
    eta: set = field(compare=False, repr=False)


def _components(K: CellComplex, cells):
    """Components of a set of cell indices, as sets; a cell meets the cells of its closure.

    One traversal over faces and cofaces inside cells, a front at a time: a
    boundary vertex meets an open 2-cell across a dimension gap of 2, which
    the codimension-one graph alone would miss.
    """
    todo = set(cells)
    out = []
    while todo:
        part = front = {todo.pop()}
        while front:
            front = K._carrier(front).union(*map(K._star.__getitem__, front)) & todo
            todo -= front
            part |= front
        out.append(part)
    return out


def _joined_count(found, parts) -> int:
    """Components of the union S of the bricks found; parts holds each brick's components.

    If c lies in Cl(c') and both are in S, both lie in the brick of the
    local dimension of c', so every meeting of two cells of S happens inside
    one brick: the components of S are the brick components joined along
    the cells that two bricks share.
    """
    seen, shared = set(), set()
    for b in found:
        shared |= seen & b.cells
        seen |= b.cells
    owner, parent = {}, {}

    def root(i):
        while i in parent:
            i = parent[i]
        return i

    count = 0
    for i, part in enumerate(p for brick_parts in parts for p in brick_parts):
        count += 1
        for c in part & shared:
            a, b = root(owner.setdefault(c, i)), root(i)
            if a != b:
                parent[a] = b
                count -= 1
    return count


def _euler(K: CellComplex, cells) -> int:
    return len(cells) - 2 * len(K._odd & cells)


def _fingerprint(K: CellComplex, S):
    """FingerprintData of the index set S, with the rho sets, bricks and eta it used."""
    rho = rho_sequence(K, S)
    eta = eta_set(K, S)
    if not S:
        return FingerprintData(dim=-1, compact=True, locally_compact=True, euler=0,
                               components=0, eta_count=0, bricks=()), rho, [], eta
    found = bricks(K, S)
    parts = [_components(K, b.cells) for b in found]
    records = tuple(BrickRecord(
        dimension=b.dimension,
        components=len(brick_parts),
        euler=_euler(K, b.cells),
        compact=is_compact(K, b.cells),
        eta_count=len(eta_set(K, b.cells)),
    ) for b, brick_parts in zip(found, parts))
    data = FingerprintData(
        dim=max(map(K.dims.__getitem__, S)),
        compact=K.bounded and not rho[0],  # is_compact(K, S) for S inside M
        locally_compact=not rho[1],
        euler=_euler(K, S),
        components=_joined_count(found, parts),
        eta_count=len(eta),
        bricks=records,
    )
    return data, rho, found, eta


def fingerprint_data(K: CellComplex, M=None) -> FingerprintData:
    """Invariants of the flagged set M, a set of inM cell ids (all of them by default)."""
    return _fingerprint(K, _flagged(K, M))[0]


def spectral_fingerprint(K: CellComplex) -> Fingerprint:
    """Fingerprints of M, of M minus eta(M) and of the core, as cell sets of K.

    The core set is M_lc minus eta(M_lc), with M_lc from the pass over M.
    Each distinct set is fingerprinted once: M minus eta is M when eta(M)
    is empty, and the core set is M minus eta(M) when rho1 is empty (then
    M_lc = M); the core set is M only when both hold.  Each pass reads
    compact off its rho0: bounded, and Cl(S) - S empty.
    """
    M = K._m()
    data, rho, found, eta = _fingerprint(K, M)
    rest = M - eta
    minus_eta = _fingerprint(K, rest)[0] if eta else data
    core_set = rho[2] - eta_set(K, rho[2]) if rho[1] else rest
    core_data = minus_eta if core_set == rest else _fingerprint(K, core_set)[0]
    return Fingerprint(data=data, minus_eta=minus_eta, core=core_data,
                       rho=rho, bricks=found, eta=eta)


RULED_OUT = "RULED_OUT"
CONSISTENT = "CONSISTENT"


@dataclass(frozen=True)
class ComparisonReport:
    """Necessary-condition verdicts; CONSISTENT never asserts an isomorphism.

    s            -- could the full function rings be isomorphic
    s_star       -- could the bounded-function rings be isomorphic
    s_vs_s_star  -- could S(first) be isomorphic to S*(second)
    beta_star    -- could the beta* remainders be homeomorphic
    evidence     -- per channel, named as in as_dict, what rules it out: the
                    differing FingerprintData fields tagged M, M-eta or core,
                    and "N non-compact"; == and repr ignore it
    """

    s: str
    s_star: str
    s_vs_s_star: str
    beta_star: str
    evidence: dict = field(default_factory=dict, compare=False, repr=False)

    def as_dict(self):
        return {"S": self.s, "S*": self.s_star,
                "S(N)~S*(M)": self.s_vs_s_star, "beta*": self.beta_star}


def compare_spectral_types(K1: CellComplex, K2: CellComplex) -> ComparisonReport:
    """Compare fingerprints of two complexes under the four equivalence flavors.

    The s_vs_s_star verdict reads the first argument as N and the second
    as M: it needs N compact on top of the eta-removed fingerprints
    matching.  All other verdicts are symmetric.
    """
    return compare_fingerprints(spectral_fingerprint(K1), spectral_fingerprint(K2))


def _differences(tag, a: FingerprintData, b: FingerprintData):
    return [f"{tag}.{fld.name}" for fld in fields(FingerprintData)
            if getattr(a, fld.name) != getattr(b, fld.name)]


def compare_fingerprints(f1: Fingerprint, f2: Fingerprint) -> ComparisonReport:
    """compare_spectral_types on fingerprints already computed; f1 is N.

    A verdict is RULED_OUT exactly when its evidence is non-empty.
    """
    minus = _differences("M-eta", f1.minus_eta, f2.minus_eta)
    core = _differences("core", f1.core, f2.core)
    evidence = {
        "S": _differences("M", f1.data, f2.data) + minus + core,
        "S*": minus,
        "S(N)~S*(M)": ([] if f1.data.compact else ["N non-compact"]) + minus,
        "beta*": core,
    }
    s, s_star, s_vs, beta = (RULED_OUT if ev else CONSISTENT for ev in evidence.values())
    return ComparisonReport(s=s, s_star=s_star, s_vs_s_star=s_vs, beta_star=beta,
                            evidence=evidence)


# ---------------------------------------------------------------------------
# barycentric subdivision


def barycentric_subdivision(K: CellComplex) -> CellComplex:
    """Order complex of the face poset; a simplicial refinement.

    New cells are chains c0 < c1 < ... < ck in the closure order; the open
    simplex of a chain lies inside the open cell ck, so it inherits ck's
    inM flag.  Faces are the proper nonempty subchains.
    """
    order, rank = _id_order(K)
    # chains in depth-first preorder, each extended by its top's star in id order
    up = [sorted(s, key=rank.__getitem__, reverse=True) for s in K._star]
    chains, stack = [], [(c,) for c in reversed(order)]
    while stack:
        chain = stack.pop()
        chains.append(chain)
        stack.extend(chain + (nxt,) for nxt in up[chain[-1]])
    name = {chain: "|".join(map(K.ids.__getitem__, chain)) for chain in chains}
    cells = {name[chain]: (len(chain) - 1, K.flags[chain[-1]]) for chain in chains}
    faces = [(name[chain[:drop] + chain[drop + 1:]], name[chain])
             for chain in chains if len(chain) > 1 for drop in range(len(chain))]
    return CellComplex(K.ambient_dim, K.bounded, cells, faces)
