"""Per-layer spans recorded from outside the package.

`Tracer.install` wraps the public functions and methods of each smallrank
module in place and rebinds every module namespace that imported one of
them, so calls made through ``from .exactlattice import mat_inv`` are seen
too.  `Tracer.uninstall` puts every original object back.

Each call of a wrapped function is one span: (name, start, end, parent,
request).  Spans live in flat arrays in memory and are written once by
`write`; self time is a span's duration minus the time its child spans
cover.  A `SmallRankError` that leaves a span whose parent belongs to
another layer (or that leaves the package) counts as one error of the
span's layer.
"""

import importlib
import inspect
import json
import os
import sys
from array import array
from time import perf_counter

PACKAGE = "smallrank"
LAYERS = (
    "cli",
    "quadforms",
    "quadrings",
    "cubes",
    "cubicrings",
    "quarticrings",
    "padic",
    "exactlattice",
)


class Tracer:
    def __init__(self):
        self.names = []
        self.layer_of = []
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.stack = []
        self.request_id = -1
        self.errors = {layer: 0 for layer in LAYERS}
        self._patches = []

    # ---------------------------------------------------------- wrapping

    def _wrap(self, span_name, layer, fn, error_type):
        nid = len(self.names)
        self.names.append(span_name)
        self.layer_of.append(layer)
        tracer = self
        stack, starts, ends = self.stack, self.start, self.end
        names, parents, requests, layer_of = self.name, self.parent, self.request, self.layer_of

        def traced(*args, **kwargs):
            idx = len(starts)
            parent = stack[-1] if stack else -1
            names.append(nid)
            parents.append(parent)
            requests.append(tracer.request_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            except error_type:
                if parent < 0 or layer_of[names[parent]] != layer:
                    tracer.errors[layer] += 1
                raise
            finally:
                ends[idx] = perf_counter()
                stack.pop()

        traced.__name__ = getattr(fn, "__name__", span_name)
        traced.__qualname__ = getattr(fn, "__qualname__", span_name)
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every public function and method of the layer modules."""
        error_type = importlib.import_module(PACKAGE + ".errors").SmallRankError
        wrapped = {}  # id(original function) -> (original, wrapper)
        modules = [importlib.import_module("%s.%s" % (PACKAGE, m)) for m in LAYERS]
        for layer, mod in zip(LAYERS, modules):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    if not attr.startswith("_"):
                        w = self._wrap("%s.%s" % (layer, attr), layer, obj, error_type)
                        wrapped[id(obj)] = (obj, w)
                elif (
                    inspect.isclass(obj)
                    and obj.__module__ == mod.__name__
                    and not issubclass(obj, BaseException)
                ):
                    self._wrap_class(layer, obj, error_type)
        # rebind every name bound to a wrapped function, in every module of
        # the package, so imported aliases are traced as well
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, attr, hit[1])

    def _wrap_class(self, layer, cls, error_type):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            span_name = "%s.%s" % (layer, cls.__name__)
            if attr != "__init__":
                span_name += "." + attr
            if inspect.isfunction(obj):
                self._set(cls, attr, self._wrap(span_name, layer, obj, error_type))
            elif isinstance(obj, (classmethod, staticmethod)):
                inner = self._wrap(span_name, layer, obj.__func__, error_type)
                self._set(cls, attr, type(obj)(inner))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ---------------------------------------------------------- analysis

    def summary(self):
        """Per-name and per-layer call counts and self times.

        Returns (by_name, by_layer, child_counts) where by_name maps a span
        name to [calls, self_s], by_layer maps a layer to [calls, self_s],
        and child_counts maps (parent name, child name) to a call count.
        """
        n = len(self.start)
        starts, ends, names, parents = self.start, self.end, self.name, self.parent
        covered = array("d", bytes(8 * n))
        for i in range(n):
            p = parents[i]
            if p >= 0:
                covered[p] += ends[i] - starts[i]
        by_name = {}
        child_counts = {}
        for i in range(n):
            nm = self.names[names[i]]
            row = by_name.get(nm)
            if row is None:
                row = by_name[nm] = [0, 0.0]
            row[0] += 1
            row[1] += ends[i] - starts[i] - covered[i]
            p = parents[i]
            if p >= 0:
                key = (self.names[names[p]], nm)
                child_counts[key] = child_counts.get(key, 0) + 1
        by_layer = {layer: [0, 0.0] for layer in LAYERS}
        for nm, (calls, self_s) in by_name.items():
            row = by_layer[nm.split(".", 1)[0]]
            row[0] += calls
            row[1] += self_s
        return by_name, by_layer, child_counts

    def write(self, path):
        """Write the spans once: a JSON header then the raw arrays."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        header = {
            "names": self.names,
            "spans": len(self.start),
            "arrays": ["start:d", "end:d", "name:i", "parent:i", "request:i"],
        }
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.start, self.end, self.name, self.parent, self.request):
                arr.tofile(fh)
