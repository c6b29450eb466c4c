"""Outside-in tracing of the twistlab layers, from the benchmark's own code.

`Tracer.install` replaces the public functions and methods of the six
layer modules (gf, curve, autmap, twistcoh, twists, cli) with wrappers,
through the module and class attributes the library itself looks them up
by, so calls made inside the library pass through the wrappers too.  The
library source is not touched.

Each wrapped call records a span: name, start, end and the span that was
open when it began.  Spans stay in memory in flat arrays and are written
out once, when the pass ends.  A span's self time is its duration minus
the durations of its child spans; since every span opened during the
traced pass descends from one root span, the self times of all spans add
up to the root's duration exactly.

Field arithmetic runs millions of times per pass, so the `FieldElem`
arithmetic methods (and a few other tiny, very hot methods) are only
counted: their time stays in the span of whoever called them.
"""

import importlib
import inspect
import json
import time
from array import array

PACKAGE = "twistlab"
LAYERS = ("gf", "curve", "autmap", "twistcoh", "twists", "cli")
ROOT = "harness"

# (module, class, method) -> counter name.  Counted, never timed.
COUNTED = {
    ("gf", "FieldElem", "__add__"): "gf.add",
    ("gf", "FieldElem", "__radd__"): "gf.add",
    ("gf", "FieldElem", "__sub__"): "gf.add",
    ("gf", "FieldElem", "__rsub__"): "gf.add",
    ("gf", "FieldElem", "__neg__"): "gf.add",
    ("gf", "FieldElem", "__mul__"): "gf.mul",
    ("gf", "FieldElem", "__rmul__"): "gf.mul",
    ("gf", "FieldElem", "__truediv__"): "gf.div",
    ("gf", "FieldElem", "__rtruediv__"): "gf.div",
    ("gf", "FieldElem", "__pow__"): "gf.pow",
    ("gf", "FieldElem", "inv"): "gf.inv",
    ("gf", "FieldCtx", "__init__"): "gf.fields_created",
    ("curve", "WeierstrassCurve", "contains"): "curve.contains",
    ("autmap", "CurveIsomorphism", "apply"): "autmap.apply",
    ("autmap", "CurveIsomorphism", "param_key"): "autmap.param_key",
}

# Classes whose remaining public methods are accessors too small to time.
UNTRACED_CLASSES = {("gf", "FieldElem"), ("gf", "FieldCtx")}

_AUT = "autmap.automorphism_group"
_FIND = "autmap.find_isomorphisms"
_MIN_DEGREE = "autmap.minimal_isomorphism_degree"


def self_times(parent, start, end):
    """Per-span self time: duration minus the durations of direct children."""
    covered = [0.0] * len(parent)
    for i, p in enumerate(parent):
        if p >= 0:
            covered[p] += end[i] - start[i]
    return [end[i] - start[i] - covered[i] for i in range(len(parent))]


class Tracer:
    """Span and counter recorder for one traced pass in one process."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.parent = array("q")
        self.name = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counts = {}
        self._stack = [-1]
        self._patches = []
        self._aut_seen = set()
        self.aut_repeats = 0
        self.find_hits = 0

    # -- recording ---------------------------------------------------------

    def _name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open_span(self, name):
        """Open a span by hand (the harness root); returns its id."""
        sid = len(self.start)
        self.parent.append(self._stack[-1])
        self.name.append(self._name_id(name))
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def close_span(self, sid):
        self.end[sid] = time.perf_counter()
        if self._stack.pop() != sid:
            raise RuntimeError("spans closed out of order")

    def _span_wrapper(self, fn, name, observe=None):
        nid = self._name_id(name)
        stack = self._stack
        parent, names, start, end = self.parent, self.name, self.start, self.end
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(start)
            parent.append(stack[-1])
            names.append(nid)
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def _count_wrapper(self, fn, name):
        cell = self.counts.setdefault(name, [0])

        def counted(*args):
            cell[0] += 1
            return fn(*args)

        return counted

    def _observe_aut(self, args, result):
        curve = args[0]
        if curve in self._aut_seen:
            self.aut_repeats += 1
        else:
            self._aut_seen.add(curve)

    def _observe_find(self, args, result):
        if result:
            self.find_hits += 1

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every public function and method of the layer modules."""
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        observers = {_AUT: self._observe_aut, _FIND: self._observe_find}
        replaced = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_"):
                    continue
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not inspect.isgeneratorfunction(obj)):
                    name = f"{layer}.{attr}"
                    replaced[id(obj)] = self._span_wrapper(obj, name, observers.get(name))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._install_class(layer, obj)
        # rebind every module-level reference, re-exports included
        for mod in [importlib.import_module(PACKAGE), *modules.values()]:
            for attr, obj in list(vars(mod).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None:
                    self._patch(mod, attr, wrapper)

    def _install_class(self, layer, cls):
        for attr, obj in list(vars(cls).items()):
            if not inspect.isfunction(obj):
                continue
            counter = COUNTED.get((layer, cls.__name__, attr))
            if counter is not None:
                self._patch(cls, attr, self._count_wrapper(obj, counter))
            elif (layer, cls.__name__) in UNTRACED_CLASSES:
                continue
            elif attr == "__init__":
                self._patch(cls, attr, self._span_wrapper(obj, f"{layer}.{cls.__name__}"))
            elif not attr.startswith("_"):
                self._patch(cls, attr, self._span_wrapper(obj, f"{layer}.{attr}"))

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def problems(self):
        """What is wrong with the recorded spans: an empty list when every
        span closed, after it opened, and only the first span is a root."""
        out = []
        unclosed = sum(1 for s, e in zip(self.start, self.end) if e < s)
        if unclosed:
            out.append(f"{unclosed} spans never closed or closed before they opened")
        roots = [i for i, p in enumerate(self.parent) if p < 0]
        if roots != [0]:
            out.append(f"expected one root span at index 0, found roots at {roots[:5]}")
        return out

    def metrics(self):
        """Per-layer metrics of everything recorded so far.

        Every installed name reports `calls` and `self_s` (zero when it
        never ran); each layer reports its total `self_s`; the root span
        reports `harness.self_s` and `trace.wall_s`.
        """
        selfs = self_times(self.parent, self.start, self.end)
        calls = {name: 0 for name in self.names}
        own = {name: 0.0 for name in self.names}
        min_degree_ids = {self._name_ids.get(_MIN_DEGREE)}
        find_id = self._name_ids.get(_FIND)
        degrees_tried = 0
        wall = 0.0
        for i, nid in enumerate(self.name):
            name = self.names[nid]
            calls[name] += 1
            own[name] += selfs[i]
            if name == ROOT and self.parent[i] < 0:
                wall += self.end[i] - self.start[i]
            if nid == find_id and self.parent[i] >= 0 and self.name[self.parent[i]] in min_degree_ids:
                degrees_tried += 1
        out = {}
        for name in self.names:
            if name == ROOT:
                continue
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = own[name]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                v for k, v in own.items() if k.startswith(layer + ".")
            )
        for name, cell in self.counts.items():
            key = name if name == "gf.fields_created" else f"{name}.calls"
            out[key] = cell[0]
        aut_calls = calls.get(_AUT, 0)
        find_calls = calls.get(_FIND, 0)
        out[f"{_AUT}.repeat_ratio"] = self.aut_repeats / aut_calls if aut_calls else 0.0
        out[f"{_FIND}.hit_ratio"] = self.find_hits / find_calls if find_calls else 0.0
        out[f"{_MIN_DEGREE}.degrees_tried"] = degrees_tried
        out[f"{ROOT}.self_s"] = own.get(ROOT, 0.0)
        out["trace.wall_s"] = wall
        out["trace.spans"] = len(self.name)
        return out

    def dump(self, path):
        """Write names, spans (parent, name, start, end) and counters as JSON."""
        with open(path, "w") as fh:
            json.dump({
                "names": self.names,
                "parent": self.parent.tolist(),
                "name": self.name.tolist(),
                "start": self.start.tolist(),
                "end": self.end.tolist(),
                "counts": {k: v[0] for k, v in self.counts.items()},
            }, fh)
