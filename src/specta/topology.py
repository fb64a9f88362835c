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
RegularityViolation.  Local dimension, bricks, rho, eta, compactness and
the fingerprint data take the flagged set M as an optional argument, a
set of cell ids that defaults to the inM cells.  They work on the carrier
Cl(M) inside the complex's own closure and star tables and ignore the
cells outside it, so their answer on (K, S) is their answer on
``restrict(K, S)``.

Text format (one record per line, '#' starts a comment):

    complex ambient=<m> bounded=<0|1>
    cell <id> dim=<d> inM=<0|1>
    face <id_small> <id_big>

``face a b`` declares that cell ``a`` lies in the closure of cell ``b``.
Any generating set is accepted; serialization always emits the full strict
closure relation in canonical id order, so parse -> serialize is
byte-identical on canonical files.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field


class TopologyError(ValueError):
    pass


class NotInM(TopologyError):
    """Operation requires a cell flagged inM."""


class RegularityViolation(TopologyError):
    """The complex is not a regular cell complex (or an axiom check failed)."""


def _id_key(cid: str):
    """Numeric-aware sort key so s2 < s10 and plain numbers order naturally.

    The id itself breaks ties such as s1, s01, so the order is total.
    """
    return (tuple((0, int(tok)) if tok.isdigit() else (1, tok)
                  for tok in re.split(r"(\d+)", cid) if tok != ""), cid)


class CellComplex:
    """Finite regular cell complex with an inM flag per cell.

    cells: mapping id -> (dim, inM).  faces: iterable of (small, big) pairs
    meaning small lies in the closure of big; any generating set works, the
    strict transitive closure is computed here.  The constructor validates
    the structural invariants and raises TopologyError subclasses.
    """

    def __init__(self, ambient_dim: int, bounded: bool, cells, faces):
        if int(ambient_dim) < 1:
            raise TopologyError("ambient dimension must be positive")
        self.ambient_dim = int(ambient_dim)
        self.bounded = bool(bounded)
        if isinstance(cells, dict):
            items = cells.items()
        else:
            items = [(c[0], (c[1], c[2])) for c in cells]
        self.cells = {}
        for cid, (dim, in_m) in items:
            cid = str(cid)
            if cid in self.cells:
                raise TopologyError(f"duplicate cell id {cid!r}")
            dim = int(dim)
            if dim < 0:
                raise TopologyError(f"negative dimension for cell {cid!r}")
            if dim > self.ambient_dim:
                raise TopologyError(
                    f"cell {cid!r} has dimension {dim} above ambient {self.ambient_dim}")
            self.cells[cid] = (dim, bool(in_m))
        direct = {cid: set() for cid in self.cells}
        for small, big in faces:
            small, big = str(small), str(big)
            if small not in self.cells or big not in self.cells:
                raise TopologyError(f"face pair ({small!r}, {big!r}) references unknown cell")
            if small == big:
                raise TopologyError(f"reflexive face pair on {small!r}")
            if self.dim(small) >= self.dim(big):
                raise TopologyError(
                    f"face pair ({small!r}, {big!r}) does not decrease dimension")
            direct[big].add(small)
        self._closure = {}
        for cid in sorted(self.cells, key=self.dim):
            acc = self._closure[cid] = set()
            for f in direct[cid]:
                acc.add(f)
                acc |= self._closure[f]
            # faces decrease dimension, so a 1-cell's closure is its endpoints
            if self.dim(cid) == 1 and len(acc) != 2:
                raise RegularityViolation(
                    f"1-cell {cid!r} has {len(acc)} distinct endpoints, need 2")
        self._star = {cid: set() for cid in self.cells}
        for big, smalls in self._closure.items():
            for s in smalls:
                self._star[s].add(big)

    # -- basic accessors ---------------------------------------------------

    def dim(self, cid) -> int:
        return self.cells[cid][0]

    def in_m(self, cid) -> bool:
        return self.cells[cid][1]

    def closure_of(self, cid):
        """Strictly smaller cells in the closure of cid."""
        return self._closure[cid]

    def star_of(self, cid):
        """Cells strictly containing cid in their closure."""
        return self._star[cid]

    def m_cells(self):
        return {cid for cid in self.cells if self.in_m(cid)}

    def carrier(self, M=None):
        """Cl(M): the cells of M (the inM cells by default) with all their faces."""
        M = self.m_cells() if M is None else M
        out = set(M)
        for cid in M:
            out |= self._closure[cid]
        return out

    # -- internals ---------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, CellComplex):
            return NotImplemented
        return (self.ambient_dim == other.ambient_dim
                and self.bounded == other.bounded
                and self.cells == other.cells
                and self._closure == other._closure)

    def __repr__(self):
        m = sum(1 for c in self.cells if self.in_m(c))
        return (f"CellComplex(ambient={self.ambient_dim}, cells={len(self.cells)}, "
                f"inM={m}, bounded={self.bounded})")


# ---------------------------------------------------------------------------
# text format


def _fields(parts, *keys):
    """The key=value fields of a record: exactly keys, the last one a 0/1 flag."""
    kv = dict(p.split("=", 1) for p in parts)
    if len(kv) != len(parts) or kv.keys() != set(keys):
        raise ValueError("unknown, missing or repeated field")
    if kv[keys[-1]] not in ("0", "1"):
        raise ValueError("flag is neither 0 nor 1")
    return kv


def parse_complex(text: str) -> CellComplex:
    header = None
    cells = []
    faces = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        try:
            if kind == "complex":
                if header is not None:
                    raise TopologyError("duplicate complex header")
                kv = _fields(parts[1:], "ambient", "bounded")
                header = (int(kv["ambient"]), kv["bounded"] == "1")
            elif kind == "cell":
                cid = parts[1]
                kv = _fields(parts[2:], "dim", "inM")
                cells.append((cid, int(kv["dim"]), kv["inM"] == "1"))
            elif kind == "face":
                faces.append((parts[1], parts[2]))
            else:
                raise TopologyError(f"unknown record {kind!r}")
        except (KeyError, IndexError, ValueError) as exc:
            if isinstance(exc, TopologyError):
                raise
            raise TopologyError(f"malformed line {lineno}: {raw!r}") from exc
    if header is None:
        raise TopologyError("missing complex header")
    return CellComplex(header[0], header[1], cells, faces)


def serialize_complex(K: CellComplex) -> str:
    lines = [f"complex ambient={K.ambient_dim} bounded={1 if K.bounded else 0}"]
    for cid in sorted(K.cells, key=_id_key):
        dim, in_m = K.cells[cid]
        lines.append(f"cell {cid} dim={dim} inM={1 if in_m else 0}")
    pairs = []
    for big in K.cells:
        for small in K.closure_of(big):
            pairs.append((small, big))
    pairs.sort(key=lambda p: (_id_key(p[0]), _id_key(p[1])))
    for small, big in pairs:
        lines.append(f"face {small} {big}")
    return "\n".join(lines) + "\n"


def _flagged(K: CellComplex, M):
    """M as a set of existing cell ids; K's inM cells when M is None."""
    if M is None:
        return K.m_cells()
    M = {str(c) for c in M}
    unknown = M - K.cells.keys()
    if unknown:
        raise TopologyError(f"unknown cells: {sorted(unknown)}")
    return M


def restrict(K: CellComplex, m_cells) -> CellComplex:
    """Sub complex on Cl(m_cells) with exactly m_cells flagged inM.

    m_cells must be existing cell ids; their faces are pulled in with
    inM = false unless they are in m_cells themselves.  The kept cells come
    in their parent's order, whatever the order of m_cells.  The restriction
    shares its parent's validated closure tables: a kept cell's closure lies
    inside the kept set and is taken as is, and its star is cut down to the
    kept set.  Nothing is checked again: every kept 1-cell keeps both of its
    endpoints, so the restriction of a regular complex is regular.
    """
    m_cells = _flagged(K, m_cells)
    keep = K.carrier(m_cells)
    sub = CellComplex.__new__(CellComplex)
    sub.ambient_dim, sub.bounded = K.ambient_dim, K.bounded
    sub.cells = {cid: (K.dim(cid), cid in m_cells) for cid in K.cells if cid in keep}
    sub._closure = {cid: K._closure[cid] for cid in sub.cells}
    sub._star = {cid: K._star[cid] & keep for cid in sub.cells}
    return sub


# ---------------------------------------------------------------------------
# local dimension and bricks


@dataclass(frozen=True)
class Brick:
    dimension: int
    cells: frozenset
    index: int


def local_dimension(K: CellComplex, cid, M=None) -> int:
    """Largest dimension of a cell of M whose closure contains cid (or cid itself).

    M is the flagged set (K's inM cells by default) and must contain cid.
    """
    cid = str(cid)
    if cid not in K.cells:
        raise TopologyError(f"unknown cell {cid!r}")
    inside = K.in_m if M is None else M.__contains__
    if not inside(cid):
        raise NotInM(f"cell {cid!r} is not in M")
    higher = [K.dim(big) for big in K.star_of(cid) if inside(big)]
    return max(higher, default=K.dim(cid))


def bricks(K: CellComplex, M=None):
    """Brick decomposition of M: closures in M of the local-dimension strata.

    Returned in strictly decreasing dimension order.  The Lemma axioms
    (purity, covering, combinatorial density of B_i minus the others,
    decreasing dimensions) are verified before returning.
    """
    M = _flagged(K, M)
    if not M:
        raise TopologyError("brick decomposition of an empty complex")
    ldim = {c: local_dimension(K, c, M) for c in M}
    values = sorted(set(ldim.values()), reverse=True)
    out = []
    for i, d in enumerate(values):
        stratum = {c for c in M if ldim[c] == d}
        closure_in_m = set(stratum)
        for c in stratum:
            closure_in_m |= K.closure_of(c) & M
        out.append(Brick(dimension=d, cells=frozenset(closure_in_m), index=i))

    # axiom (i): purity
    for b in out:
        tops = {c for c in b.cells if K.dim(c) == b.dimension}
        for c in b.cells - tops:
            if not K.star_of(c) & tops:
                raise RegularityViolation(
                    f"brick of dim {b.dimension} is not pure at cell {c!r}")
    # axiom (ii): union is M
    if set().union(*(b.cells for b in out)) != M:
        raise RegularityViolation("bricks do not cover M")
    # axiom (iii): combinatorial density of B_i minus the other bricks
    for b in out:
        private = b.cells.difference(*(b2.cells for b2 in out if b2 is not b))
        for c in b.cells - private:
            if not K.star_of(c) & private:
                raise RegularityViolation(
                    f"brick of dim {b.dimension}: cell {c!r} not in closure of the "
                    "private part")
    # axiom (iv) holds by construction (strictly decreasing values)
    return out


# ---------------------------------------------------------------------------
# locally compact part, eta, compactness, core


def rho_sequence(K: CellComplex, M=None):
    """(rho0, rho1, M_lc) of the flagged set M (K's inM cells by default).

    rho0 is the non-flagged part of Cl(M); rho1 the cells of M sitting in
    the closure of a rho0 cell; M_lc the rest of M.  A self-check confirms
    that rho1 of M_lc, flagged alone, is empty.
    """
    M = _flagged(K, M)
    rho0 = K.carrier(M) - M
    rho1 = {c for c in M if K.star_of(c) & rho0}
    m_lc = M - rho1
    lc_rho0 = K.carrier(m_lc) - m_lc
    if any(K.star_of(c) & lc_rho0 for c in m_lc):
        raise RegularityViolation(
            "locally compact part failed its compact-neighborhood self-check")
    return rho0, rho1, m_lc


def eta_set(K: CellComplex, M=None):
    """0-cells of M whose star within M is one 1-cell, with no higher cell touching.

    These are the dangling endpoints: points with a punctured-interval
    neighborhood in M (K's inM cells by default).  A higher cell of Cl(M)
    touching a point lies in the closure of a higher cell of M touching it,
    so looking at the star within M suffices.  The result is always finite.
    """
    M = _flagged(K, M)
    return {c for c in M
            if K.dim(c) == 0 and [K.dim(s) for s in K.star_of(c) & M] == [1]}


def is_compact(K: CellComplex, subset=None) -> bool:
    """True iff the flagged set (or the given inM subset) is closed and bounded.

    Closedness is combinatorial: every face of a considered cell must be
    inM (and inside the subset when one is given).  Boundedness comes from
    the header flag; for subsets of an unbounded complex this is
    conservative (a bounded subset of an unbounded complex reports false).
    """
    if not K.bounded:
        return False
    subset = _flagged(K, subset)
    for c in subset:
        if not K.in_m(c):
            raise NotInM(f"subset cell {c!r} is not in M")
    # every subset cell is inM, so a face inside the subset is inM as well
    return all(K.closure_of(c) <= subset for c in subset)


def core(K: CellComplex) -> CellComplex:
    """Complex restricted to M_lc with the eta points of M_lc demoted.

    Idempotent whenever the result has empty eta.
    """
    m_lc = rho_sequence(K)[2]
    return restrict(K, m_lc - eta_set(K, m_lc))


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
    over M computed, kept for reports; == and repr ignore them.
    """

    data: FingerprintData
    minus_eta: FingerprintData
    core: FingerprintData
    rho: tuple = field(compare=False, repr=False)
    bricks: list = field(compare=False, repr=False)
    eta: set = field(compare=False, repr=False)


def _component_count(K: CellComplex, cells) -> int:
    """Components of cells, where a cell meets the cells of its closure.

    One traversal over faces and cofaces inside cells: a boundary vertex
    meets an open 2-cell across a dimension gap of 2, which the
    codimension-one graph alone would miss.
    """
    todo = set(cells)
    count = 0
    while todo:
        count += 1
        stack = [todo.pop()]
        while stack:
            c = stack.pop()
            near = (K._closure[c] | K._star[c]) & todo
            todo -= near
            stack.extend(near)
    return count


def _euler(K: CellComplex, cells) -> int:
    return sum((-1) ** K.dim(c) for c in cells)


def _fingerprint(K: CellComplex, S):
    """FingerprintData of the flagged set S, with the rho sets, bricks and eta it used."""
    rho = rho_sequence(K, S)
    eta = eta_set(K, S)
    if not S:
        return FingerprintData(dim=-1, compact=True, locally_compact=True, euler=0,
                               components=0, eta_count=0, bricks=()), rho, [], eta
    found = bricks(K, S)
    records = tuple(BrickRecord(
        dimension=b.dimension,
        components=_component_count(K, b.cells),
        euler=_euler(K, b.cells),
        compact=is_compact(K, b.cells),
        eta_count=len(eta_set(K, b.cells)),
    ) for b in found)
    data = FingerprintData(
        dim=max(K.dim(c) for c in S),
        compact=is_compact(K, S),
        locally_compact=not rho[1],
        euler=_euler(K, S),
        components=_component_count(K, S),
        eta_count=len(eta),
        bricks=records,
    )
    return data, rho, found, eta


def fingerprint_data(K: CellComplex, M=None) -> FingerprintData:
    """Invariants of the flagged set M, a set of inM cells (all of them by default)."""
    return _fingerprint(K, _flagged(K, M))[0]


def spectral_fingerprint(K: CellComplex) -> Fingerprint:
    """Fingerprints of M, of M minus eta(M) and of the core, as cell sets of K.

    The core set is M_lc minus eta(M_lc), with M_lc from the pass over M.
    """
    M = K.m_cells()
    data, rho, found, eta = _fingerprint(K, M)
    m_lc = rho[2]
    return Fingerprint(data=data, minus_eta=_fingerprint(K, M - eta)[0],
                       core=_fingerprint(K, m_lc - eta_set(K, m_lc))[0],
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
    """

    s: str
    s_star: str
    s_vs_s_star: str
    beta_star: str

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


def compare_fingerprints(f1: Fingerprint, f2: Fingerprint) -> ComparisonReport:
    """compare_spectral_types on fingerprints already computed; f1 is N."""
    s = CONSISTENT if f1 == f2 else RULED_OUT
    s_star = CONSISTENT if f1.minus_eta == f2.minus_eta else RULED_OUT
    if f1.data.compact and f1.minus_eta == f2.minus_eta:
        s_vs = CONSISTENT
    else:
        s_vs = RULED_OUT
    beta = CONSISTENT if f1.core == f2.core else RULED_OUT
    return ComparisonReport(s=s, s_star=s_star, s_vs_s_star=s_vs, beta_star=beta)


# ---------------------------------------------------------------------------
# barycentric subdivision


def barycentric_subdivision(K: CellComplex) -> CellComplex:
    """Order complex of the face poset; a simplicial refinement.

    New cells are chains c0 < c1 < ... < ck in the closure order; the open
    simplex of a chain lies inside the open cell ck, so it inherits ck's
    inM flag.  Faces are the proper nonempty subchains.
    """
    ids = sorted(K.cells, key=_id_key)
    chains = []

    def grow(chain):
        chains.append(chain)
        for nxt in sorted(K.star_of(chain[-1]), key=_id_key):
            grow(chain + (nxt,))

    for cid in ids:
        grow((cid,))

    def name(chain):
        return "|".join(chain)

    cells = {}
    for chain in chains:
        top = chain[-1]
        cells[name(chain)] = (len(chain) - 1, K.in_m(top))
    faces = []
    for chain in chains:
        if len(chain) == 1:
            continue
        for drop in range(len(chain)):
            sub = chain[:drop] + chain[drop + 1:]
            faces.append((name(sub), name(chain)))
    return CellComplex(K.ambient_dim, K.bounded, cells, faces)
