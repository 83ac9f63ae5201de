"""Spans and counters around the public entry points of adele_forge.

``Tracer.install()`` replaces every public function and method of the
traced modules with a wrapper that records a span (name, parent, start,
end) in flat in-memory arrays.  Nothing is written until the pass ends.
``FieldElement`` operators get a counting wrapper instead of a span: a
pass makes millions of them and a span would cost more than the operator.

Self time of a span is its duration minus the time its child spans cover.
Scalar operators run inside whichever span called them, so their time is
part of that span's self time.
"""

import functools
import importlib
import inspect
import json
import sys
from array import array
from time import perf_counter_ns

PKG = "adele_forge"

# module -> layer name used in the metric names
LAYERS = {
    "cli": "cli",
    "pairing": "pairing",
    "surface": "surface",
    "milnor": "milnor",
    "adelic": "adelic",
    "curves": "curves",
    "linalg": "linalg",
    "series": "series",
    "fields": "fields",
    "_kernels": "kernels",
}

# Constructors and arithmetic dunders count as entry points (PlaneCurve()
# checks irreducibility, for one); the other dunders (__eq__, __hash__,
# __repr__, __bool__) are bookkeeping and stay untraced.
ENTRY_DUNDERS = ("__init__",)
ARITHMETIC = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
    "__rmul__", "__truediv__", "__rtruediv__", "__floordiv__", "__mod__",
    "__divmod__", "__pow__",
)

# Scalar classes: FieldSpec hands out elements and FieldElement is counted.
SCALAR_CLASSES = ("FieldSpec", "FieldElement")
SCALAR_OPS = ARITHMETIC + ("inverse",)

KERNEL_FUNCTIONS = (
    "poly_add", "poly_sub", "poly_neg", "poly_scale", "poly_mul",
    "poly_divmod", "poly_mod", "poly_gcd", "poly_invmod", "poly_powmod",
    "poly_eval", "mat_rref",
)

# Polynomial-level work in the fields layer: every traced method of these.
POLY_CLASSES = ("Polynomial", "RationalFunction")

PLACE_CONSTRUCTORS = ("finite", "infinity", "origin", "affine_orbit", "rational_point")


class Tracer:
    def __init__(self):
        self.names = []  # span name per name id
        self.layer_of = []  # layer per name id
        self._ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack = [-1]
        self.scalar_ops = [0, 0]  # [k == 1, k > 1]
        self.series_prec_max = 0
        self.place_degree_max = 0
        self.stabilization_doublings = 0
        self._restore = []

    # ------------------------------------------------------------------
    # recording

    def _name_id(self, name, layer):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.layer_of.append(layer)
        return nid

    def span(self, fn, name, layer, observe=None):
        """Wrap ``fn`` so each call records one span."""
        nid = self._name_id(name, layer)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(i)
            starts.append(perf_counter_ns())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter_ns()
                stack.pop()
            if observe is not None:
                observe(args, out)
            return out

        return traced

    def run_span(self, name, layer, fn, *args):
        """Call ``fn(*args)`` inside a root span (one benchmark operation)."""
        return self.span(fn, name, layer)(*args)

    def _count_scalar(self, fn):
        tally = self.scalar_ops

        @functools.wraps(fn)
        def counted(self_, *args):
            tally[self_.spec.k > 1] += 1
            return fn(self_, *args)

        return counted

    # observers: read a property of a result at a layer boundary

    def _observe_series(self, args, out):
        prec = getattr(out, "prec", None)
        if isinstance(prec, int) and prec > self.series_prec_max:
            self.series_prec_max = prec

    def _observe_place(self, args, out):
        degree = out.residue_degree
        if degree > self.place_degree_max:
            self.place_degree_max = degree

    def _observe_cohomology(self, args, out):
        # m starts at 2 * (genus + 1) and doubles until h1 repeats
        m, start = out.bound, 2 * (args[0].genus + 1)
        while m > start:
            m //= 2
            self.stabilization_doublings += 1

    # ------------------------------------------------------------------
    # patching

    def _replace(self, owner, attr, new):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        """Patch the traced modules of adele_forge (importing them first)."""
        wrapped = {}  # id(original function) -> wrapper
        for modname, layer in LAYERS.items():
            mod = importlib.import_module("%s.%s" % (PKG, modname))
            if modname == "_kernels":
                for fname in KERNEL_FUNCTIONS:
                    fn = getattr(mod, fname)
                    wrapped[id(fn)] = self.span(fn, "kernels." + fname, layer)
                continue
            for name, value in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(value) and value.__module__ == mod.__name__:
                    observe = self._observe_cohomology if name == "cohomology_dims" else None
                    wrapped[id(value)] = self.span(value, "%s.%s" % (layer, name), layer, observe)
                elif inspect.isclass(value) and value.__module__ == mod.__name__:
                    self._patch_class(value, layer)
        # A name bound by ``from ... import`` lives in the importing module's
        # namespace too: rebind it there, in every module of the package.
        # The kernel backends themselves stay as they are, so that a kernel
        # calling another (poly_gcd -> poly_mod) is one call, as it is in the
        # compiled backend.
        backends = PKG + "._kernels."
        modules = [
            m for n, m in sys.modules.items()
            if (n == PKG or n.startswith(PKG + ".")) and not n.startswith(backends)
        ]
        for mod in modules:
            for name, value in list(vars(mod).items()):
                new = wrapped.get(id(value))
                if new is not None:
                    self._replace(mod, name, new)

    def _patch_class(self, cls, layer):
        if cls.__name__ in SCALAR_CLASSES:
            if cls.__name__ == "FieldElement":
                for attr in SCALAR_OPS:
                    if attr in cls.__dict__:
                        self._replace(cls, attr, self._count_scalar(cls.__dict__[attr]))
            return
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in ARITHMETIC + ENTRY_DUNDERS:
                continue
            name = "%s.%s.%s" % (layer, cls.__name__, attr)
            observe = None
            if layer == "series":
                observe = self._observe_series
            elif cls.__name__ == "Place" and attr in PLACE_CONSTRUCTORS:
                observe = self._observe_place
            if isinstance(raw, (classmethod, staticmethod)):
                fn = raw.__func__
                if inspect.isgeneratorfunction(fn):
                    continue
                self._replace(cls, attr, type(raw)(self.span(fn, name, layer, observe)))
            elif inspect.isfunction(raw) and not inspect.isgeneratorfunction(raw):
                self._replace(cls, attr, self.span(raw, name, layer, observe))

    def uninstall(self):
        while self._restore:
            owner, attr, old = self._restore.pop()
            setattr(owner, attr, old)

    # ------------------------------------------------------------------
    # results

    def self_times(self):
        """Per span self time in ns, and whether it runs under factorization."""
        n = len(self.span_name)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        dur = [ends[i] - starts[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += dur[i]
        factor_id = self._ids.get("fields.factor_polynomial", -2)
        in_factor = bytearray(n)
        for i in range(n):
            p = parents[i]
            if names[i] == factor_id or (p >= 0 and in_factor[p]):
                in_factor[i] = 1
        return [dur[i] - child[i] for i in range(n)], in_factor

    def layer_metrics(self):
        """The per-layer metrics of one traced pass (self times in s)."""
        self_ns, in_factor = self.self_times()
        layer_ns = {}
        calls = {}
        factor_ns = 0
        names, layer_of = self.span_name, self.layer_of
        for i, nid in enumerate(names):
            layer = layer_of[nid]
            layer_ns[layer] = layer_ns.get(layer, 0) + self_ns[i]
            calls[nid] = calls.get(nid, 0) + 1
            if in_factor[i] and layer == "fields":
                factor_ns += self_ns[i]

        def count(*span_names):
            return sum(calls.get(self._ids.get(s, -2), 0) for s in span_names)

        def count_prefix(prefix):
            return sum(c for nid, c in calls.items() if self.names[nid].startswith(prefix))

        out = {"%s.self_s" % layer: layer_ns.get(layer, 0) / 1e9
               for layer in sorted(set(LAYERS.values()) | {"selfcheck"})}
        out.update({
            "fields.scalar_ops": self.scalar_ops[0] + self.scalar_ops[1],
            "fields.scalar_ops_ext": self.scalar_ops[1],
            "fields.poly_ops": sum(count_prefix("fields.%s." % c) for c in POLY_CLASSES),
            "fields.factor.calls": count("fields.factor_polynomial"),
            "fields.factor.self_s": factor_ns / 1e9,
            "series.mul.calls": count("series.LaurentSeries.__mul__"),
            "series.inverse.calls": count("series.LaurentSeries.inverse"),
            "series.prec_max": self.series_prec_max,
            "kernels.poly_mul.calls": count("kernels.poly_mul"),
            "kernels.poly_divmod.calls": count("kernels.poly_divmod", "kernels.poly_mod"),
            "kernels.poly_gcd.calls": count("kernels.poly_gcd"),
            "kernels.mat_rref.calls": count("kernels.mat_rref"),
            "curves.expand_at.calls": count("curves.expand_at"),
            "curves.places_enumerated": count(*("curves.Place." + c for c in PLACE_CONSTRUCTORS)),
            "curves.place_degree_max": self.place_degree_max,
            "adelic.cohomology_dims.calls": count("adelic.cohomology_dims"),
            "adelic.stabilization_doublings": self.stabilization_doublings,
            "linalg.calls": count_prefix("linalg."),
            "milnor.tame_symbol.calls": count("milnor.tame_symbol"),
            "surface.intersection_points.calls": count("surface.curve_intersection_points"),
            "surface.fulton_multiplicity.calls": count("surface.fulton_multiplicity"),
            "pairing.miller_function.calls": count("pairing.miller_function"),
        })
        return out

    def write(self, stem):
        """Write the spans: ``stem.json`` (names, layout) and ``stem.bin``."""
        header = {
            "names": self.names,
            "layers": self.layer_of,
            "spans": len(self.span_name),
            "layout": "int32 name[n], int32 parent[n], int64 start_ns[n], int64 end_ns[n]",
        }
        with open(stem + ".json", "w") as handle:
            json.dump(header, handle)
        with open(stem + ".bin", "wb") as handle:
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(handle)
