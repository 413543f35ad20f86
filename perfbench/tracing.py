"""In-memory span tracing of the postedprice modules, installed from outside.

The tracer replaces public functions with timing wrappers on every module
attribute that refers to them.  `from .x import f` copies the name into the
importing module, so wrapping `x.f` alone would miss calls made through the
copy; `install` therefore rebinds every attribute, in every package module,
that holds the original function object.  The distributions' `cdf` and
`pdf` methods are wrapped on their classes.  Nothing under `src/` changes,
and `uninstall` puts every original back.

Spans are kept in flat arrays (name, start, end, parent, operation id) and
written out once at the end.  Calls nest strictly on one thread, so a span's
self time is its duration minus the summed durations of its children.
"""

from __future__ import annotations

import functools
import inspect
from array import array
from time import perf_counter

import numpy as np

MODULES = ("cli", "distributions", "reduction", "optimizer", "schemes",
           "oracle", "core")
DIST_CLASSES = ("Uniform", "Beta", "TruncatedExponential")
DIST_METHODS = ("cdf", "pdf")


class Tracer:
    """Records one span per wrapped call; `op` tags spans with an operation id."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.opid = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.op = -1
        self._restore: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn):
        """A wrapper of `fn` that records a span called `name` per call."""
        nid = self._name_id(name)
        stack, names, parents, opids = self._stack, self.name, self.parent, self.opid
        starts, ends = self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            opids.append(self.op)
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()

        return traced

    def install(self, package) -> None:
        """Wrap the public functions of every module and the cdf/pdf methods."""
        modules = [getattr(package, m) for m in MODULES]
        holders = [package] + modules
        for module in modules:
            short = module.__name__.rsplit(".", 1)[-1]
            for attr in module.__all__:
                fn = getattr(module, attr)
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                traced = self.wrap(f"{short}.{attr}", fn)
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            self._restore.append((holder, key, fn))
                            setattr(holder, key, traced)
        for cls_name in DIST_CLASSES:
            cls = getattr(package.distributions, cls_name)
            for method in DIST_METHODS:
                fn = vars(cls)[method]
                self._restore.append((cls, method, fn))
                setattr(cls, method, self.wrap(f"distributions.{method}", fn))

    def uninstall(self) -> None:
        for holder, key, fn in reversed(self._restore):
            setattr(holder, key, fn)
        self._restore.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total time and self time, in seconds."""
        n = len(self.start)
        if not n:
            return {}
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        name = np.frombuffer(self.name, dtype=np.int32)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        own = dur - child
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        self_s = np.bincount(name, weights=own, minlength=k)
        return {self.names[i]: {"calls": int(calls[i]), "time_s": float(total[i]),
                                "self_s": float(self_s[i])} for i in range(k)}

    def save(self, path) -> None:
        np.savez_compressed(
            path, names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.opid, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float))
