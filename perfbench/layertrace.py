"""Per-layer spans and counters for orbitforge, attached from outside.

`LayerTrace.install()` wraps the public functions of every orbitforge layer
and the methods of its algorithmic classes.  Modules import each other with
``from .linalg import ...``, so a wrapped function is rebound under every
name in every ``orbitforge.*`` namespace that holds the same object; methods
are wrapped on their class.  Spans form one stack: a span's self time is its
duration minus the spans it encloses, so the self times of all spans add up
to the time spent inside the outermost ones.

The stack is shared by all threads.  That is exact while at most one thread
runs orbitforge code at a time, as `verify` does with its default single
worker (the benchmark clears ``ORBITFORGE_THREADS``).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = ("rings", "linalg", "partitions", "algebra", "orbits", "centralizer",
          "slices", "enveloping", "modular", "cli")

# Methods spanned on each class.  Other classes are plain data carriers
# (matrices, partitions, dataclasses); their methods count as the caller's
# own time.  "*" means every public method.
SPANNED_METHODS = {
    "SparseMatrix": ("__matmul__",),
    "VectorSpan": ("*",),
    "ClassicalAlgebra": ("*", "__init__"),
    "UAlgebra": ("*",),
    "WSetup": ("*", "__init__"),
    "CentralizerBasis": ("*",),
}
# Scalar coercion runs inside every elimination step; it is counted, not
# timed, so that the count costs little.
COUNTED_METHODS = {"Ring": ("coerce",)}

ALIASES = {
    "SparseMatrix.__matmul__": "matmul",
    "ClassicalAlgebra.__init__": "build",
    "WSetup.__init__": "wsetup",
    "VectorSpan.add": "span_add",
    "smith_normal_form": "snf",
}


class LayerTrace:
    def __init__(self):
        self.stats = {}        # span name -> [calls, self seconds]
        self.counts = {}       # counter name -> number
        self.stack = []        # per open span: seconds covered by its children
        self._straightened = {}  # UAlgebra instance -> distinct words seen
        self._restore = []     # (namespace, attribute, original) per rebinding
        self._counted_names = set()
        self._span_cost = self._count_cost = float("inf")
        self._observers = {
            "linalg.rank_kernel": self._cells("linalg.rank_kernel.cells"),
            "linalg.snf": self._cells("linalg.snf.cells"),
            "linalg.span_add": self._span_add,
            "enveloping.straighten": self._straighten,
            "modular.build_induced_module": self._module,
            "cli.run_verify": self._report,
        }

    # -- wrappers --------------------------------------------------------------

    def _span(self, name, fn):
        stat = self.stats.setdefault(name, [0, 0.0])
        stack = self.stack
        clock = time.perf_counter
        observe = self._observers.get(name)

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stat[0] += 1
                stat[1] += dt - stack.pop()
                if stack:
                    stack[-1] += dt
            if observe is not None:
                observe(args, result)
            return result

        return spanned

    def _counted(self, name, fn):
        counts = self.counts
        counts.setdefault(name, 0)
        self._counted_names.add(name)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- observers -------------------------------------------------------------

    def _cells(self, counter):
        self.counts[counter] = 0

        def observe(args, result):
            self.counts[counter] += args[0].nrows * args[0].ncols
        return observe

    def _span_add(self, args, grew):
        self.counts["linalg.span_add.grew"] = self.counts.get("linalg.span_add.grew", 0) + bool(grew)

    def _straighten(self, args, result):
        self._straightened.setdefault(args[0], set()).add(args[1])

    def _module(self, args, module):
        self.counts["modular.module_dim.max"] = max(self.counts.get("modular.module_dim.max", 0), module.dim)

    def _report(self, args, report):
        self.counts["cli.cases"] = self.counts.get("cli.cases", 0) + sum(
            s["cases"] for s in report["suites"].values())

    # -- installation ----------------------------------------------------------

    def install(self):
        """Wrap every layer of the imported orbitforge package.  Calls and
        self times add up over any number of install/uninstall rounds."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        rebind = {}   # id(original) -> (original, wrapper)
        for layer in LAYERS:
            mod = importlib.import_module(f"orbitforge.{layer}")
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(layer, obj)
                elif callable(obj):
                    rebind[id(obj)] = (obj, self._span(self._name(layer, name), obj))
        for modname, mod in list(sys.modules.items()):
            if modname != "orbitforge" and not modname.startswith("orbitforge."):
                continue
            for name, obj in list(vars(mod).items()):
                hit = rebind.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._rebind(mod, name, hit[1])

    def uninstall(self):
        """Put back every original that install() replaced."""
        for namespace, attr, original in reversed(self._restore):
            setattr(namespace, attr, original)
        self._restore = []

    def _rebind(self, namespace, attr, value):
        self._restore.append((namespace, attr, vars(namespace)[attr]))
        setattr(namespace, attr, value)

    @staticmethod
    def _name(layer, qualname):
        return f"{layer}.{ALIASES.get(qualname, qualname.rsplit('.', 1)[-1])}"

    def _wrap_class(self, layer, cls):
        spanned = SPANNED_METHODS.get(cls.__name__, ())
        counted = COUNTED_METHODS.get(cls.__name__, ())
        for attr, value in list(vars(cls).items()):
            public = not attr.startswith("_") and "*" in spanned
            if attr not in spanned and attr not in counted and not public:
                continue
            kind = type(value) if isinstance(value, (staticmethod, classmethod)) else None
            fn = value.__func__ if kind else value
            if not inspect.isfunction(fn):
                continue   # properties and plain attributes
            qual = f"{cls.__name__}.{attr}"
            wrapped = (self._counted(f"{layer}.{attr}.calls", fn) if attr in counted
                       else self._span(self._name(layer, qual), fn))
            self._rebind(cls, attr, kind(wrapped) if kind else wrapped)

    # -- results ---------------------------------------------------------------

    def metrics(self) -> dict:
        """Flat {metric: value}: calls and self seconds per span, the
        counters, per-layer self-time totals and the derived ratios."""
        out = dict(self.counts)
        for name, (calls, self_s) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(s for n, (_, s) in self.stats.items() if n.startswith(layer + "."))
        adds = out.get("linalg.span_add.calls", 0)
        out["linalg.span_add.useful_ratio"] = out.pop("linalg.span_add.grew", 0) / adds if adds else 0.0
        calls = out.get("enveloping.straighten.calls", 0)
        distinct = sum(len(words) for words in self._straightened.values())
        out["enveloping.straighten.reuse_ratio"] = 1 - distinct / calls if calls else 0.0
        return out

    def self_total(self) -> float:
        return sum(s for _, s in self.stats.values())

    def calibrate(self):
        """Time one span and one count: a wrapped no-op's time minus the
        bare no-op's, the least over batches and over every call of this
        method, so that slow moments of the machine drop out.  Calling it a
        few times spread over a run finds the machine's fast moments."""
        probe = LayerTrace()
        bare = _per_call(_noop)
        self._span_cost = min(self._span_cost, max(0.0, _per_call(probe._span("probe", _noop)) - bare))
        self._count_cost = min(self._count_cost, max(0.0, _per_call(probe._counted("probe", _noop)) - bare))

    def wrapper_seconds(self) -> float:
        """The time the wrappers add by calibrate()'s costs: spans entered
        times the cost of one span plus counted calls times the cost of one
        count.  It leaves out the observers and the cache misses the
        wrappers cause, so it is a lower bound on the tracing overhead."""
        spans = sum(calls for calls, _ in self.stats.values())
        counted = sum(self.counts[name] for name in self._counted_names)
        return spans * self._span_cost + counted * self._count_cost


def _noop(*args, **kwargs):
    return None


def _per_call(fn, calls=20000, batches=5) -> float:
    clock = time.perf_counter
    best = float("inf")
    for _ in range(batches):
        t0 = clock()
        for _ in range(calls):
            fn(None, None)
        best = min(best, clock() - t0)
    return best / calls
