"""Per-layer tracing of qcflop, installed from outside the package.

A layer is a module.  The tracer replaces module-level functions and class
methods with timing wrappers at run time, so nothing under ``src/`` changes.
Aliases such as ``CycNumber.__rmul__ = __mul__`` share one wrapper, and every
module attribute that names an original function is rebound, so calls that
go through module globals or re-exports are seen too.

* Public module-level functions of the L2-L4 layers (cli, suites, canonical,
  batyrev, flopcheck, cohomology, weyl) become spans: name, start, end,
  parent span, pass id.  The cli and suites layers are few calls, so their
  private functions are spans as well.
* Every other wrapped callable (the algebra kernels of L0/L1, class methods
  and private helpers) is aggregated into a count, an inclusive time and a
  self time with a stack, because there are hundreds of thousands of them.

A span's self time is its duration minus the part its child spans cover and
minus the aggregated calls made beneath it; an aggregated call's self time is
its duration minus its direct children.  A layer's ``self_s`` sums both over
its callables, so the layers together account for the traced wall time.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
import types
from dataclasses import dataclass

clock = time.perf_counter

# module -> layer; config, report and serialize are the CLI's own helpers
LAYERS = {
    "qcflop.cli": "cli",
    "qcflop.config": "cli",
    "qcflop.report": "cli",
    "qcflop.serialize": "cli",
    "qcflop.suites": "suites",
    "qcflop.canonical": "canonical",
    "qcflop.batyrev": "batyrev",
    "qcflop.flopcheck": "flopcheck",
    "qcflop.cohomology": "cohomology",
    "qcflop.weyl": "weyl",
    "qcflop.algebra.ratfunc": "algebra.ratfunc",
    "qcflop.algebra.poly": "algebra.poly",
    "qcflop.algebra.equivariant": "algebra.equivariant",
    "qcflop.algebra.fracseries": "algebra.fracseries",
    "qcflop.algebra.cyclotomic": "algebra.cyclotomic",
}
SPAN_LAYERS = ("cli", "suites", "canonical", "batyrev", "flopcheck", "cohomology", "weyl")


def site_name(fn_name: str) -> str:
    """``__mul__`` -> ``mul``, ``_emit`` -> ``emit``."""
    return fn_name.strip("_") or fn_name


@dataclass(slots=True)
class Site:
    """Totals of one wrapped callable; aliases share one site."""
    layer: str
    name: str
    is_span: bool = False
    calls: int = 0
    incl_s: float = 0.0  # outermost activations only, so recursion is not counted twice
    self_s: float = 0.0
    depth: int = 0


@dataclass(slots=True)
class Span:
    id: int
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    pass_id: int = 0
    inner_s: float = 0.0  # aggregated calls beneath this span, less the spans inside them


def span_self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of each span: its duration, minus the part of that interval
    its child spans cover, minus its aggregated inner time."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for start, end in sorted(children.get(s.id, ())):
            start, end = max(start, reach), min(end, s.end)
            if end > start:
                covered += end - start
                reach = end
        out[s.id] = (s.end - s.start) - covered - s.inner_s
    return out


class Tracer:
    """Wrappers, their totals and the recorded spans of one traced pass."""

    def __init__(self, pass_id: int = 0):
        self.pass_id = pass_id
        self.sites: dict[tuple[str, str], Site] = {}
        self.spans: list[Span] = []
        self.gcd_max_degree = -1
        self.gcd_nontrivial = 0
        self.max_coeff_bits = 0
        # one frame per active wrapped call:
        # [time of direct children, own span or None, span time nested below through aggregated frames]
        self._stack: list[list] = [[0.0, None, 0.0]]
        self._spans_open: list[Span] = []

    # -- wrappers -------------------------------------------------------------

    def _site(self, layer: str, name: str, is_span: bool) -> Site:
        key = (layer, name)
        if key not in self.sites:
            self.sites[key] = Site(layer, name, is_span)
        return self.sites[key]

    def aggregate(self, layer: str, name: str, fn):
        site = self._site(layer, name, False)
        stack = self._stack

        def wrapper(*args, **kwargs):
            frame = [0.0, None, 0.0]
            stack.append(frame)
            site.calls += 1
            site.depth += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                site.self_s += dur - frame[0]
                site.depth -= 1
                if not site.depth:
                    site.incl_s += dur
                parent = stack[-1]
                parent[0] += dur
                if parent[1] is not None:
                    parent[1].inner_s += dur - frame[2]
                else:
                    parent[2] += frame[2]

        return _named_like(wrapper, fn)

    def span(self, layer: str, name: str, fn):
        site = self._site(layer, name, True)
        stack, spans, open_, full = self._stack, self.spans, self._spans_open, f"{layer}.{name}"

        def wrapper(*args, **kwargs):
            sp = Span(len(spans), full, 0.0, parent=open_[-1].id if open_ else None,
                      pass_id=self.pass_id)
            spans.append(sp)
            open_.append(sp)
            frame = [0.0, sp, 0.0]
            stack.append(frame)
            site.calls += 1
            site.depth += 1
            sp.start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                sp.end = clock()
                dur = sp.end - sp.start
                stack.pop()
                open_.pop()
                site.self_s += dur - frame[0]
                site.depth -= 1
                if not site.depth:
                    site.incl_s += dur
                parent = stack[-1]
                parent[0] += dur
                if parent[1] is None:
                    parent[2] += dur

        return _named_like(wrapper, fn)

    def _ratfunc_init(self, fn):
        """Only reducing constructions count as reductions; the rest pass straight through."""
        reduce_site = self.aggregate("algebra.ratfunc", "reduce", fn)

        def __init__(self_, field, root_order, num, den, reduce=True):
            if reduce:
                return reduce_site(self_, field, root_order, num, den)
            return fn(self_, field, root_order, num, den, False)

        return _named_like(__init__, fn)

    def _poly_gcd(self, fn):
        timed = self.aggregate("algebra.poly", "gcd", fn)

        def gcd(a, b):
            self.note_bits(a, b)
            self.gcd_max_degree = max(self.gcd_max_degree, a.degree, b.degree)
            g = timed(a, b)
            if g.degree >= 1:
                self.gcd_nontrivial += 1
            return g

        return _named_like(gcd, fn)

    def _poly_divmod(self, fn):
        timed = self.aggregate("algebra.poly", "divmod", fn)

        def divmod(a, b):
            quo, rem = timed(a, b)
            self.note_bits(quo, rem)
            return quo, rem

        return _named_like(divmod, fn)

    def note_bits(self, *polys) -> None:
        """Track the largest numerator or denominator bit length among the
        rational components of the polynomials' coefficients.  It is noted on
        gcd inputs and on every quotient and remainder, where Euclid's
        coefficient growth shows.  This is tracing overhead: it falls in the
        caller's time, so remainders noted inside a gcd count toward it."""
        best = self.max_coeff_bits
        for p in polys:
            for c in p.coeffs:
                for x in c.coeffs:
                    best = max(best, x.numerator.bit_length(), x.denominator.bit_length())
        self.max_coeff_bits = best

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every function and method defined in the traced modules, then
        rebind every qcflop module attribute that still names an original."""
        replaced: dict[int, object] = {}
        for modname, layer in LAYERS.items():
            mod = importlib.import_module(modname)
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj.__module__ == modname:
                    as_span = layer in SPAN_LAYERS and (
                        layer in ("cli", "suites") or not attr.startswith("_"))
                    kind = self.span if as_span else self.aggregate
                    replaced[id(obj)] = kind(layer, site_name(attr), obj)
                elif inspect.isclass(obj) and obj.__module__ == modname:
                    self._wrap_class(obj, layer)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("qcflop"):
                for attr, obj in list(vars(mod).items()):
                    if isinstance(obj, types.FunctionType) and id(obj) in replaced:
                        setattr(mod, attr, replaced[id(obj)])

    def _wrap_class(self, cls, layer: str) -> None:
        special = {
            ("RatFunc", "__init__"): self._ratfunc_init,
            ("Poly", "gcd"): self._poly_gcd,
            ("Poly", "divmod"): self._poly_divmod,
        }
        done: dict[int, object] = {}
        for attr, obj in list(vars(cls).items()):
            if isinstance(obj, (classmethod, staticmethod)):
                fn, rewrap = obj.__func__, type(obj)
            elif isinstance(obj, types.FunctionType):
                fn, rewrap = obj, None
            else:
                continue
            if id(fn) not in done:
                make = special.get((cls.__name__, fn.__name__))
                done[id(fn)] = make(fn) if make else self.aggregate(
                    layer, f"{cls.__name__}.{site_name(fn.__name__)}", fn)
            setattr(cls, attr, rewrap(done[id(fn)]) if rewrap else done[id(fn)])

    # -- results --------------------------------------------------------------

    def site(self, layer: str, name: str) -> Site:
        return self.sites.get((layer, name)) or Site(layer, name)

    def layer_self_times(self) -> dict[str, float]:
        """Self seconds per layer: span self times from the span tree for span
        sites, stack self times for aggregated sites."""
        out = dict.fromkeys(LAYERS.values(), 0.0)
        layer_of = {f"{s.layer}.{s.name}": s.layer for s in self.sites.values() if s.is_span}
        selfs = span_self_times(self.spans)
        for span in self.spans:
            out[layer_of[span.name]] += selfs[span.id]
        for s in self.sites.values():
            if not s.is_span:
                out[s.layer] += s.self_s
        return out


def _named_like(wrapper, fn):
    wrapper.__name__ = fn.__name__
    wrapper.__qualname__ = fn.__qualname__
    wrapper.__wrapped__ = fn
    return wrapper


# -- the per-layer metrics of a traced pass --------------------------------------

CANONICAL_STAGES = ("build_spectrum", "canonical_basis", "du_of_eps", "eps_pairing", "delta_i",
                    "term_log_delta", "power_sums", "term_c_minus_one", "connection_form",
                    "r1_offdiagonal", "r1_diagonal", "genus_one_form", "r_matrix_recursion")
BATYREV_STAGES = ("verify_eigen_relations", "eigenvalue_product_identity",
                  "spectrum_structure_match", "semisimplicity_certificate", "matrices_commute_at")
FLOPCHECK_STAGES = ("delta_g_polynomial", "delta_g_direct", "evaluate_g_polynomial",
                    "reciprocal_antisymmetry", "genus1_npoint_invariance")
SUITES = ("appendix", "batyrev", "flop", "cohomology", "quantization", "genus_one_table")


def _site_metrics() -> dict[str, tuple[str, str, str]]:
    """Metric name -> (site layer, site name, statistic "calls" or "s")."""
    out = {f"cli.{name}.s": ("cli", name, "s") for name in ("load_config", "run_suite", "emit")}
    out.update({f"suites.{name}_suite.s": ("suites", f"{name}_suite", "s") for name in SUITES})
    for layer, stages, stats in (("canonical", CANONICAL_STAGES, ("calls", "s")),
                                 ("batyrev", BATYREV_STAGES, ("calls", "s")),
                                 ("flopcheck", FLOPCHECK_STAGES, ("s",))):
        out.update({f"{layer}.{name}.{stat}": (layer, name, stat)
                    for name in stages for stat in stats})
    for metric, site in (("algebra.ratfunc.reduce", ("algebra.ratfunc", "reduce")),
                         ("algebra.poly.gcd", ("algebra.poly", "gcd")),
                         ("algebra.equivariant.mul", ("algebra.equivariant", "EquivScalar.mul")),
                         ("algebra.fracseries.mul", ("algebra.fracseries", "FracSeries.mul")),
                         ("algebra.cyclotomic.mul", ("algebra.cyclotomic", "CycNumber.mul")),
                         ("algebra.cyclotomic.add", ("algebra.cyclotomic", "CycNumber.add")),
                         ("algebra.cyclotomic.inverse", ("algebra.cyclotomic", "CycNumber.inverse"))):
        out.update({f"{metric}.{stat}": (*site, stat) for stat in ("calls", "s")})
    out["algebra.poly.divmod.calls"] = ("algebra.poly", "divmod", "calls")
    out["algebra.poly.mul.s"] = ("algebra.poly", "Poly.mul", "s")
    return out


SITE_METRICS = _site_metrics()
SELF_LAYERS = tuple(dict.fromkeys(LAYERS.values()))


def per_layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of one traced pass as name -> (value, unit)."""
    out: dict[str, tuple[float, str]] = {}
    for metric, (layer, name, stat) in SITE_METRICS.items():
        site = tracer.site(layer, name)
        out[metric] = (site.calls, "count") if stat == "calls" else (site.incl_s, "s")
    gcd_calls = tracer.site("algebra.poly", "gcd").calls
    out["algebra.poly.gcd.max_degree"] = (max(tracer.gcd_max_degree, 0), "degree")
    out["algebra.poly.gcd.nontrivial_ratio"] = (
        tracer.gcd_nontrivial / gcd_calls if gcd_calls else 0.0, "ratio")
    out["algebra.poly.max_coeff_bits"] = (tracer.max_coeff_bits, "bits")
    selfs = tracer.layer_self_times()
    for layer in SELF_LAYERS:
        out[f"{layer}.self_s"] = (selfs[layer], "s")
    out["trace.wall_s"] = (wall_s, "s")
    out["trace.uncovered_s"] = (wall_s - sum(selfs.values()), "s")
    out["trace.spans"] = (len(tracer.spans), "count")
    return out
