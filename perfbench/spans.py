"""Span tracing of the rodhom layers from outside the package.

`Tracer.install` replaces every public function of the traced modules, every
public method of their classes, every alias of such a function that another
module bound with `from ... import`, and the `splu` boundary that `fem`
calls, by a wrapper that records one span (name, start, end, parent) per
call. `uninstall` puts the originals back. Spans stay in memory; `summary`
derives per-name call counts, total time and self time (duration minus the
part covered by direct child spans), and `write` dumps the raw spans.
"""

import functools
import gzip
import hashlib
import inspect
import json
import time

import scipy.sparse.linalg as spla

LAYERS = ("material", "geometry", "fem", "homogenize", "fiber", "transform",
          "pipeline")


class _TracedLU:
    """SuperLU stand-in whose `solve` records a `fem.lu_solve` span."""

    __slots__ = ("_lu", "_solve")

    def __init__(self, lu, solve):
        self._lu = lu
        self._solve = solve

    def solve(self, *args, **kwargs):
        return self._solve(self._lu, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    def __init__(self, package):
        self.modules = {name: getattr(package, name) for name in LAYERS}
        self.spans = []          # [name, start, end, parent index or -1]
        self.factors = []        # (L+U nonzeros, matrix digest) per splu call
        self._stack = [-1]
        self._saved = []         # (owner, attribute, original) to restore

    # -- recording -------------------------------------------------------

    def _wrap(self, fn, name):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), 0.0, stack[-1]])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
        return traced

    def _wrap_splu(self, splu):
        solve = self._wrap(lambda lu, *a, **k: lu.solve(*a, **k), "fem.lu_solve")
        factor = self._wrap(splu, "fem.splu")

        @functools.wraps(splu)
        def traced_splu(A, *args, **kwargs):
            lu = factor(A, *args, **kwargs)
            digest = hashlib.blake2b(digest_size=16)
            for part in (A.data, A.indices, A.indptr):
                digest.update(part.tobytes())
            self.factors.append((int(lu.L.nnz + lu.U.nnz), digest.hexdigest()))
            return _TracedLU(lu, solve)
        return traced_splu

    # -- patching ---------------------------------------------------------

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        wrapped = {}   # id(original function) -> wrapper
        for layer, mod in self.modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = self._wrap(obj, "%s.%s" % (layer, attr))
                    self._set(mod, attr, wrapped[id(obj)])
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_class(obj, "%s.%s" % (layer, attr))
        # names bound by `from ... import` into another traced module
        for mod in self.modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._set(mod, attr, wrapped[id(obj)])
        self._set(spla, "splu", self._wrap_splu(spla.splu))

    def _wrap_class(self, cls, prefix):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = "%s.%s" % (prefix, attr)
            if inspect.isfunction(obj):
                self._set(cls, attr, self._wrap(obj, name))
            elif isinstance(obj, staticmethod):
                self._set(cls, attr, staticmethod(self._wrap(obj.__func__, name)))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def summary(self):
        """{span name: {"count", "total_s", "self_s"}} over all spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for (name, start, end, _), covered in zip(self.spans, child):
            row = out.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - covered
        return out

    def write(self, path):
        with gzip.open(path, "wt") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh)
