"""Command line front end.

Four subcommands: ``decompose`` turns a formula file into a cell complex
file plus a per-dimension summary, ``analyze`` reports the topological
invariants of a complex file, ``compare`` prints the four-channel verdict
table for two complexes, and ``path`` dispatches the series toolkit
(order, eval, member, bound, carrier, neighborhood, separate) on a path
file.

Exit codes: 0 success, 1 usage or parse failure, 2 precondition violation
(unbounded input, irregular complex, path not positive or not normalized),
3 insufficient truncation.  Reports are byte-deterministic for a fixed
input, flag set and seed.  The SPECTA_TRUNCATION environment variable
supplies the default working truncation; --truncation beats it.
"""

import argparse
import os
import sys
from fractions import Fraction

from ._expr import ExprError, parse_formula, parse_polynomial, parse_polynomial_list
from .cad2d import CadError, decompose, decomposition_text
from .paths import (
    DEFAULT_TRUNCATION,
    EXACTLY_IN_IDEAL,
    INDETERMINATE,
    FormalPath,
    IndeterminateOrder,
    NegativeLeadingSqrt,
    NormalizationRequired,
    NotPositiveOnPath,
    TruncationInsufficient,
    UnboundedAlongPath,
    compact_carrier,
    eval_on_path,
    ideal_membership,
    neighborhood_element,
    parse_function,
    parse_path,
    positivity_bound,
    separate_from_algebraic,
)
from .topology import (
    CellComplex,
    FingerprintData,
    NotInM,
    RegularityViolation,
    _id_key,
    barycentric_subdivision,
    compare_fingerprints,
    parse_complex,
    serialize_complex,
    spectral_fingerprint,
)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _emit(lines):
    sys.stdout.write("\n".join(lines) + "\n")


def _err(message):
    sys.stderr.write(message + "\n")


def truncation(text) -> Fraction:
    """A truncation exponent, from --truncation or SPECTA_TRUNCATION; any
    text that is not a fraction, 1/0 too, is a ValueError."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"truncation {text!r} is not a fraction") from exc


def _effective_truncation(args):
    """--truncation flag, else SPECTA_TRUNCATION, else None (keep defaults)."""
    if args.truncation is not None:
        return args.truncation
    env = os.environ.get("SPECTA_TRUNCATION")
    if env:
        return truncation(env)
    return None


# -- decompose -------------------------------------------------------------


def _cmd_decompose(args):
    text = _read(args.formula)
    if not text.strip():
        K = CellComplex(2, True, {}, [])
        out_text = serialize_complex(K)
        ambient = 0
    else:
        dec = decompose(parse_formula(text))
        K = dec.complex
        ambient = dec.cell_count()
        out_text = decomposition_text(dec)
        if args.simplicialize:
            K = barycentric_subdivision(K)
            out_text = serialize_complex(K)
    counts = {d: 0 for d in range(K.ambient_dim + 1)}
    for d in K.dims:
        counts[d] += 1
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(out_text)
        if args.format == "records":
            lines = [f"summary dim={d} count={counts[d]}" for d in sorted(counts)]
            lines.append(f"summary total={len(K.ids)} ambient={ambient}")
        else:
            lines = [f"cells dim {d}: {counts[d]}" for d in sorted(counts)]
            lines.append(f"total cells: {len(K.ids)}"
                         f" (decomposition: {ambient})")
            lines.append(f"wrote {args.output}")
        _emit(lines)
    else:
        sys.stdout.write(out_text)
    return 0


# -- analyze ---------------------------------------------------------------


def _fp_line(head, d: FingerprintData):
    """One fingerprint line; head is "section=TAG" (records) or "TAG:" (text)."""
    return (f"fingerprint {head} dim={d.dim} compact={int(d.compact)}"
            f" lc={int(d.locally_compact)} euler={d.euler}"
            f" components={d.components} eta={d.eta_count} bricks={len(d.bricks)}")


def _cmd_analyze(args):
    K = parse_complex(_read(args.complex))
    records = args.format == "records"
    fp = spectral_fingerprint(K)
    in_m = sum(K.flags)
    rho0, rho1, mlc = fp.rho
    eta = sorted([K.ids[c] for c in fp.eta], key=_id_key)
    lines = []
    if records:
        lines.append(f"analyze cells={len(K.ids)} inM={in_m}")
        for i, b in enumerate(fp.bricks, start=1):
            lines.append(f"brick index={i} dim={b.dimension} cells={len(b.cells)}")
        lines.append(f"rho0 count={len(rho0)}")
        lines.append(f"rho1 count={len(rho1)}")
        lines.append(f"mlc count={len(mlc)}")
        lines.append("eta count={} ids={}".format(len(eta), ",".join(eta)))
        lines.append(f"compact value={int(fp.data.compact)}")
        lines.append(f"lc value={int(fp.data.locally_compact)}")
        for tag, d in (("M", fp.data), ("M-eta", fp.minus_eta), ("core", fp.core)):
            lines.append(_fp_line(f"section={tag}", d))
    else:
        lines.append(f"cells: {len(K.ids)} ({in_m} in M)")
        lines.append(f"bricks: {len(fp.bricks)}")
        for i, b in enumerate(fp.bricks, start=1):
            lines.append(f"  brick {i}: dim {b.dimension}, {len(b.cells)} cells")
        lines.append(f"rho0: {len(rho0)} cells")
        lines.append(f"rho1: {len(rho1)} cells")
        lines.append(f"M_lc: {len(mlc)} cells")
        lines.append("eta: none" if not eta else
                     "eta: {} cells: {}".format(len(eta), " ".join(eta)))
        lines.append(f"compact: {'yes' if fp.data.compact else 'no'}")
        lines.append(f"locally compact: {'yes' if fp.data.locally_compact else 'no'}")
        lines.append(f"components: {fp.data.components}")
        lines.append(f"euler: {fp.data.euler}")
        for tag, d in (("M", fp.data), ("M-eta", fp.minus_eta), ("core", fp.core)):
            lines.append(_fp_line(f"{tag}:", d))
    _emit(lines)
    return 0


# -- compare ---------------------------------------------------------------


def _cmd_compare(args):
    K1 = parse_complex(_read(args.first))
    K2 = parse_complex(_read(args.second))
    report = compare_fingerprints(spectral_fingerprint(K1), spectral_fingerprint(K2))
    rows = [(channel, verdict, report.evidence[channel])
            for channel, verdict in report.as_dict().items()]
    lines = []
    if args.format == "records":
        for channel, verdict, evidence in rows:
            lines.append("compare channel={} verdict={} evidence={}".format(
                channel, verdict, ",".join(evidence)))
    else:
        lines.append(f"{'channel':<12} {'verdict':<11} evidence")
        for channel, verdict, evidence in rows:
            detail = "; ".join(evidence) if evidence else "-"
            lines.append(f"{channel:<12} {verdict:<11} {detail}")
    _emit(lines)
    return 0


# -- path ------------------------------------------------------------------


def _series_lines(s, records):
    if records:
        trunc = "-" if s.exact else str(s.trunc)
        lines = [f"series exact={int(s.exact)} trunc={trunc}"]
        lines.extend(f"term e={e} c={c}" for e, c in s.items())
        return lines
    return [f"value: {s.to_text()}"]


def _load_mu(args, T):
    if getattr(args, "mu", None):
        return FormalPath.from_polynomials(args.mu, T or DEFAULT_TRUNCATION)
    return None


def _cmd_path(args):
    alpha = parse_path(_read(args.path_file))
    T = _effective_truncation(args)
    if T is not None:
        alpha = FormalPath(alpha.parts, T)
    records = args.format == "records"

    if args.action == "order":
        if not 1 <= args.component <= alpha.dimension:
            _err(f"error: component must be in 1..{alpha.dimension}")
            return 1
        s = alpha.series()[args.component - 1]
        w = s.order()
        if w is INDETERMINATE:
            raise IndeterminateOrder(f"order not determined below t^{s.trunc}")
        text = "infinity" if w == float("inf") else str(w)
        _emit([f"order component={args.component} value={text}" if records
               else f"order: {text}"])
        return 0

    if args.action == "eval":
        s = eval_on_path(parse_function(args.fn), alpha)
        _emit(_series_lines(s, records))
        return 0

    if args.action == "member":
        verdict = ideal_membership(parse_function(args.fn), alpha, args.ideal)
        if records:
            bits = [f"member status={verdict.status}"]
            if verdict.truncation is not None:
                bits[0] += f" truncation={verdict.truncation}"
            if verdict.witness_order is not None:
                bits[0] += (f" order={verdict.witness_order}"
                            f" coefficient={verdict.witness_coefficient}")
            _emit(bits)
        else:
            lines = [f"status: {verdict.status}"]
            if verdict.truncation is not None:
                lines.append(f"checked below: t^{verdict.truncation}")
            if verdict.witness_order is not None:
                lines.append(f"witness order: {verdict.witness_order}")
                lines.append(f"witness coefficient: {verdict.witness_coefficient}")
            _emit(lines)
        return 0

    if args.action == "bound":
        polys = parse_polynomial_list(args.polys)
        k = positivity_bound(polys, alpha)
        _emit([f"bound k={k}" if records else f"k: {k}"])
        return 0

    if args.action == "carrier":
        polys = parse_polynomial_list(args.polys)
        g = parse_polynomial(args.g) if args.g else None
        data = compact_carrier(alpha, polys, g=g, seed=args.seed)
        if records:
            lines = [f"carrier k={data.k} samples={data.samples_checked}"]
            for i, p in enumerate(data.mu, start=1):
                lines.append(f"mu i={i} text={p.to_text()}")
            lines.append("s0 values={}".format(",".join(str(v) for v in data.s0)))
        else:
            lines = [f"k: {data.k}"]
            for i, p in enumerate(data.mu, start=1):
                lines.append(f"mu {i}: {p.to_text()}")
            lines.append("s0: {}".format(", ".join(str(v) for v in data.s0)))
            lines.append(f"samples checked: {data.samples_checked}")
        _emit(lines)
        return 0

    if args.action == "neighborhood":
        nb = neighborhood_element(alpha, args.ell, args.k)
        mu = _load_mu(args, T) or alpha
        member, inner_lead, window_lead = nb.certificate(mu)
        if records:
            lines = [f"neighborhood ell={nb.ell} k={nb.k} member={int(member)}"
                     f" inner={inner_lead} window={window_lead}"]
            for i, p in enumerate(nb.gamma, start=1):
                lines.append(f"gamma i={i} text={p.to_text()}")
        else:
            lines = [f"gamma {i}: {p.to_text()}" for i, p in enumerate(nb.gamma, start=1)]
            lines.append(f"member: {'yes' if member else 'no'}")
            lines.append(f"inner leading coefficient: {inner_lead}")
            lines.append(f"window leading coefficient: {window_lead}")
        _emit(lines)
        return 0

    if args.action == "separate":
        mu = _load_mu(args, T) or alpha
        result = separate_from_algebraic(mu, k_max=args.kmax)
        if result is None:
            _emit([f"separate found=0 kmax={args.kmax}" if records
                   else f"no k <= {args.kmax} separates at this truncation"])
            return 0
        _emit([f"separate k={result.k} value={result.value}" if records
               else f"k: {result.k}\nvalue: {result.value}"])
        return 0

    raise AssertionError(f"unhandled action {args.action!r}")


# -- parser ----------------------------------------------------------------


def _format_flag(p):
    p.add_argument("--format", choices=("human", "records"), default="human",
                   help="report style (default human)")


def _path_flags(a):
    _format_flag(a)
    a.add_argument("--truncation", type=truncation, default=None, metavar="T",
                   help="working truncation exponent, e.g. 32 or 3/2")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="specta",
        description="Exact cell decomposition, spectral-type invariants and "
                    "formal path analysis for planar semialgebraic sets.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("decompose", help="decompose a formula file into a cell complex")
    p.add_argument("formula", help="file holding one boolean combination of "
                                   "polynomial sign conditions in x, y")
    p.add_argument("-o", "--output", default=None,
                   help="complex file to write (default: print to stdout)")
    p.add_argument("--simplicialize", action="store_true",
                   help="barycentrically subdivide before writing")
    _format_flag(p)

    p = sub.add_parser("analyze", help="report invariants of a complex file")
    p.add_argument("complex", help="cell complex file")
    _format_flag(p)

    p = sub.add_parser("compare", help="compare the spectral types of two complexes")
    p.add_argument("first")
    p.add_argument("second")
    _format_flag(p)

    p = sub.add_parser("path", help="run a series-toolkit action on a path file")
    p.add_argument("path_file", help="formal path file")
    actions = p.add_subparsers(dest="action", required=True)

    a = actions.add_parser("order", help="order of one component series")
    a.add_argument("--component", type=int, default=1, metavar="J",
                   help="1-based component index (default 1)")
    _path_flags(a)

    a = actions.add_parser("eval", help="evaluate a function along the path")
    a.add_argument("--fn", required=True, help="expression in the path coordinates")
    _path_flags(a)

    a = actions.add_parser("member", help="test membership in a path ideal")
    a.add_argument("--fn", required=True)
    a.add_argument("--ideal", choices=("p_alpha", "m_star"), default="m_star")
    _path_flags(a)

    a = actions.add_parser("bound", help="positivity order bound for polynomials")
    a.add_argument("--polys", required=True, help="comma-separated polynomials")
    _path_flags(a)

    a = actions.add_parser("carrier", help="compact carrier data for positive polynomials")
    a.add_argument("--polys", required=True)
    a.add_argument("--g", default=None, help="polynomial that must vanish on the path")
    a.add_argument("--seed", type=int, default=0,
                   help="seed for the sampled positivity checks (default 0)")
    _path_flags(a)

    a = actions.add_parser("neighborhood", help="polynomial tube membership test")
    a.add_argument("--ell", type=int, required=True)
    a.add_argument("--k", type=int, required=True)
    a.add_argument("--mu", default=None,
                   help="comma-separated polynomial path to test (default: the path itself)")
    _path_flags(a)

    a = actions.add_parser("separate", help="least separating index against the "
                                            "rapidly growing model path")
    a.add_argument("--mu", default=None)
    a.add_argument("--kmax", type=int, default=12)
    _path_flags(a)

    return parser


# exit code of an error class, first matching row wins; any other
# OSError or ValueError is a usage or parse failure and exits 1
_EXIT_CODES = (
    (2, (CadError, RegularityViolation, NotInM, NormalizationRequired,
         NotPositiveOnPath, UnboundedAlongPath, NegativeLeadingSqrt)),
    (3, TruncationInsufficient),
)


_parser = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        # built on the first call, not at import, and kept for later calls
        _parser = _build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if (exc.code or 0) == 0 else 1
    try:
        # looked up per call, so a rebound _cmd_* function takes effect
        return globals()[f"_cmd_{args.subcommand}"](args)
    except (OSError, ValueError) as exc:
        code = next((c for c, kinds in _EXIT_CODES if isinstance(exc, kinds)), 1)
        if isinstance(exc, ExprError):
            _err(f"parse error: {exc}")
        elif code == 3:
            _err(f"error: {exc}; hint: raise --truncation or SPECTA_TRUNCATION")
        else:
            _err(f"error: {exc}")
        return code


if __name__ == "__main__":
    sys.exit(main())
