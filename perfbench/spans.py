"""Span recorder for the traced run, built from the benchmark's own files.

``Tracer.install`` wraps every public function defined in each given module
and patches the wrapper in wherever a module holds that function, including
names another module imported (``pathreg.sampling.build_gram`` as seen from
``pathreg.cli``, ``pathreg.verify.eval_kernel``, ``pathreg.specfun.matern_radial``
as reached through ``pathreg.kernels.specfun``).  Nothing in the program
changes; ``uninstall`` puts the original functions back.

Spans stay in memory as ``(name, start, end, parent, op)`` rows, ``parent``
being the index of the enclosing span or -1, until the run ends.  Counters
are recorded at the same call boundaries by per-function hooks, which see the
arguments and the return value.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import time
from collections import Counter

from stats import self_time


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counters: Counter = Counter()
        self.op = -1
        self.originals: dict[str, object] = {}
        self._stack: list[int] = []
        self._patches: list = []

    def _open(self) -> tuple[int, float]:
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx, time.perf_counter()

    def _close(self, idx: int, name: str, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[idx] = (name, start, end, parent, self.op)

    def wrap(self, name: str, fn, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx, start = self._open()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.counters[f"{name}.raised"] += 1
                raise
            finally:
                self._close(idx, name, start)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def install(self, modules, hooks=None, extra_namespaces=()) -> None:
        """Wrap the public functions of ``modules``; span names are
        ``<last module name component>.<function>``."""
        hooks = hooks or {}
        wrapped = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    name = f"{layer}.{attr}"
                    self.originals[name] = obj
                    wrapped[obj] = self.wrap(name, obj, hooks.get(name))
        unknown = set(hooks) - set(self.originals)
        if unknown:
            raise KeyError(f"hooks name functions that were not wrapped: {sorted(unknown)}")
        for ns in (*modules, *extra_namespaces):
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patches.append((ns, attr, obj))
                    setattr(ns, attr, wrapped[obj])

    def uninstall(self) -> None:
        for ns, attr, obj in reversed(self._patches):
            setattr(ns, attr, obj)
        self._patches.clear()

    def write(self, path: str) -> None:
        """Spans as gzipped tab-separated rows: index, name, start, end,
        parent index, op id."""
        with gzip.open(path, "wt", compresslevel=3) as fh:
            fh.write("index\tname\tstart\tend\tparent\top\n")
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start!r}\t{end!r}\t{parent}\t{op}\n")


class SpanIndex:
    """Queries over a finished span list."""

    def __init__(self, spans):
        self.spans = spans
        self.children: dict[int, list[int]] = {}
        for i, (_name, _s, _e, parent, _op) in enumerate(spans):
            self.children.setdefault(parent, []).append(i)

    def _has_ancestor_in(self, idx: int, names) -> bool:
        parent = self.spans[idx][3]
        while parent != -1:
            if self.spans[parent][0] in names:
                return True
            parent = self.spans[parent][3]
        return False

    def outermost(self, *names: str) -> list[int]:
        """Spans named in ``names`` that are not nested in another of them,
        so recursion and wrapper-within-wrapper calls count once."""
        names = set(names)
        return [
            i
            for i, s in enumerate(self.spans)
            if s[0] in names and not self._has_ancestor_in(i, names)
        ]

    def total(self, *names: str) -> float:
        return sum((self.spans[i][2] - self.spans[i][1] for i in self.outermost(*names)), 0.0)

    def self_total(self, name: str, exclude_children=None) -> float:
        """Summed self time of the outermost ``name`` spans.  With
        ``exclude_children``, only direct children of those names count as
        covering the parent."""
        out = 0.0
        for i in self.outermost(name):
            _n, start, end, _p, _op = self.spans[i]
            kids = [
                (self.spans[c][1], self.spans[c][2])
                for c in self.children.get(i, [])
                if exclude_children is None or self.spans[c][0] in exclude_children
            ]
            out += self_time(start, end, kids)
        return out
