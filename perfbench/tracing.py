"""Boundary spans around specta's layers, installed from outside the program.

``Tracer.install`` replaces each target function with a wrapper that
records one span per call: name, start, end, parent span and op id.  The
name is replaced wherever it is bound, so both internal calls (module
globals of the defining module) and ``from ... import`` copies (for
example ``specta.cad2d.isolate_real_roots`` or
``specta.cli.spectral_fingerprint``) are seen.  ``uninstall`` puts the
original objects back, so untraced ops run the unmodified program.

Spans live in flat arrays while the run lasts and are written once at the
end.  A span's self time is its duration minus the time its child spans
cover; per op, the self times of all spans add up to the op's root span.
"""

from array import array
from time import perf_counter
import sys

# (module, attribute path, boundary name).  Module names are relative to
# the ``specta`` package; the boundary name is what the metrics report.
TARGETS = (
    ("cli", "main", "cli.main"),
    ("_expr", "parse_formula", "expr.parse_formula"),
    ("cad2d", "decompose", "cad2d.decompose"),
    ("cad2d", "decomposition_text", "cad2d.decomposition_text"),
    ("cad2d", "_build_stack", "cad2d.stack_lift"),
    ("cad2d", "_limit_assignment", "cad2d.adjacency"),
    ("_numfield", "yisolate", "numfield.yisolate"),
    ("_numfield", "ymul", "numfield.ymul"),
    ("_numfield", "ysign_at", "numfield.ysign_at"),
    ("arith", "isolate_real_roots", "arith.isolate_real_roots"),
    ("arith", "real_compare", "arith.real_compare"),
    ("arith", "resultant", "arith.resultant"),
    ("arith", "discriminant", "arith.discriminant"),
    ("arith", "coprime_squarefree_basis", "arith.coprime_squarefree_basis"),
    ("topology", "parse_complex", "topology.parse_complex"),
    ("topology", "serialize_complex", "topology.serialize_complex"),
    ("topology", "barycentric_subdivision", "topology.barycentric_subdivision"),
    ("topology", "spectral_fingerprint", "topology.spectral_fingerprint"),
    ("topology", "compare_spectral_types", "topology.compare_spectral_types"),
    ("topology", "bricks", "topology.bricks"),
    ("topology", "rho_sequence", "topology.rho_sequence"),
    ("topology", "eta_set", "topology.eta_set"),
    ("paths", "eval_on_path", "paths.eval_on_path"),
    ("paths", "ideal_membership", "paths.ideal_membership"),
    ("paths", "separate_from_algebraic", "paths.separate_from_algebraic"),
    ("paths", "positivity_bound", "paths.positivity_bound"),
    ("paths", "neighborhood_element", "paths.neighborhood_element"),
    ("paths", "parse_path", "paths.parse_path"),
    ("paths", "PuiseuxSeries.__mul__", "paths.series_mul"),
)

# Counters without spans: (module, attribute, counter name).
COUNTED = (
    # eval_on_path calls _eval_once again, at doubled truncation, when a
    # denominator's order is undetermined; the extra calls are the retries
    ("paths", "_eval_once", "paths.eval_once"),
)

# Counters reported per op as they are ...
REPORTED_COUNTERS = (
    "cad2d.errors", "cad2d.cells", "cad2d.root_lines.rational",
    "cad2d.root_lines.irrational", "numfield.yisolate.sections",
    "arith.isolate_real_roots.roots",
)
# ... and counters that feed a derived metric (retries, kept ratio).
COUNTERS = REPORTED_COUNTERS + (
    "paths.eval_once", "paths.series_mul.products", "paths.series_mul.kept",
)


class Tracer:
    def __init__(self):
        self.names = [name for _, _, name in TARGETS]
        self.missing = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.op = -1
        self._stack = [-1]
        self.name_ix = array("i")
        self.parent = array("l")
        self.op_ix = array("l")
        self.start = array("d")
        self.end = array("d")
        self._patches = []   # (owner, attribute, original)

    # -- recording ---------------------------------------------------------

    def _span(self, fn, ix, after=None):
        tracer = self

        def traced(*args, **kwargs):
            sid = len(tracer.start)
            tracer.name_ix.append(ix)
            tracer.parent.append(tracer._stack[-1])
            tracer.op_ix.append(tracer.op)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            tracer._stack.append(sid)
            tracer.start[sid] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.end[sid] = perf_counter()
                tracer._stack.pop()
                if after is not None:
                    after(tracer, args, None, exc)
                raise
            tracer.end[sid] = perf_counter()
            tracer._stack.pop()
            if after is not None:
                after(tracer, args, out, None)
            return out

        traced.__wrapped__ = fn
        return traced

    def _count(self, fn, counter):
        counters = self.counters

        def counted(*args, **kwargs):
            counters[counter] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- installing --------------------------------------------------------

    def _modules(self):
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == "specta" or name.startswith("specta."))]

    def _replace_everywhere(self, original, wrapper):
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def install(self):
        if self._patches:
            return
        for mod_name, path, name in TARGETS:
            owner = sys.modules.get(f"specta.{mod_name}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                if name not in self.missing:
                    self.missing.append(name)
                continue
            wrapper = self._span(original, self.names.index(name), _AFTER.get(name))
            if outer:
                # a method: replace it, and its aliases, on the class
                for key, value in list(vars(owner).items()):
                    if value is original:
                        self._patches.append((owner, key, original))
                        setattr(owner, key, wrapper)
            else:
                self._replace_everywhere(original, wrapper)
        for mod_name, attr, counter in COUNTED:
            module = sys.modules.get(f"specta.{mod_name}")
            original = getattr(module, attr, None) if module is not None else None
            if original is None:
                if counter not in self.missing:
                    self.missing.append(counter)
                continue
            self._replace_everywhere(original, self._count(original, counter))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- reading -----------------------------------------------------------

    def self_times(self):
        """Per span: duration minus the durations of its direct children."""
        own = array("d", (e - s for s, e in zip(self.start, self.end)))
        for sid, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= self.end[sid] - self.start[sid]
        return own

    def totals(self):
        """{boundary: (calls, self seconds)} over every recorded span."""
        calls = [0] * len(self.names)
        secs = [0.0] * len(self.names)
        for ix, own in zip(self.name_ix, self.self_times()):
            calls[ix] += 1
            secs[ix] += own
        return {name: (calls[i], secs[i]) for i, name in enumerate(self.names)}

    def op_walls(self):
        """{op id: duration of its root spans}: the traced wall time."""
        out = {}
        for sid, p in enumerate(self.parent):
            if p < 0:
                op = self.op_ix[sid]
                out[op] = out.get(op, 0.0) + self.end[sid] - self.start[sid]
        return out

    def op_self_sums(self):
        out = {}
        for op, own in zip(self.op_ix, self.self_times()):
            out[op] = out.get(op, 0.0) + own
        return out

    def write(self, path):
        """One line per span: id, op, name, parent id, start and end seconds."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\top\tname\tparent\tstart\tend\n")
            for sid in range(len(self.start)):
                fh.write(f"{sid}\t{self.op_ix[sid]}\t{self.names[self.name_ix[sid]]}"
                         f"\t{self.parent[sid]}\t{self.start[sid]:.9f}"
                         f"\t{self.end[sid]:.9f}\n")


# -- counters read at the boundary -------------------------------------------


def _after_decompose(tracer, args, dec, exc):
    if exc is not None:
        # matched by name, so that this module needs no specta import
        if type(exc).__name__ in ("CadError", "UnboundedInput"):
            tracer.counters["cad2d.errors"] += 1
        return
    tracer.counters["cad2d.cells"] += len(getattr(dec, "ambient_cells", ()))
    # the projection's x-roots; a private field, read only to count them
    for root in getattr(dec, "_xroots", ()):
        key = "rational" if root.is_rational else "irrational"
        tracer.counters[f"cad2d.root_lines.{key}"] += 1


def _after_yisolate(tracer, args, roots, exc):
    if exc is None:
        tracer.counters["numfield.yisolate.sections"] += len(roots)


def _after_isolate(tracer, args, roots, exc):
    if exc is None:
        tracer.counters["arith.isolate_real_roots.roots"] += len(roots)


def _after_series_mul(tracer, args, out, exc):
    if exc is not None or out is NotImplemented:
        return
    a, b = args
    nb = len(b.coeffs) if hasattr(b, "coeffs") else 1
    tracer.counters["paths.series_mul.products"] += len(a.coeffs) * nb
    tracer.counters["paths.series_mul.kept"] += len(out.coeffs)


_AFTER = {
    "cad2d.decompose": _after_decompose,
    "numfield.yisolate": _after_yisolate,
    "arith.isolate_real_roots": _after_isolate,
    "paths.series_mul": _after_series_mul,
}
