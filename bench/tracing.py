"""Span recording for the traced run, installed from outside the package.

``Tracer.install`` replaces every public function attribute of the
traced cumsub modules with a wrapper that records one span per call:
name, parent span, start and end (``perf_counter_ns``).  A function is
wrapped in every module that holds it, because callers look it up in
their own module's namespace (``cumsub.analysis.build_outcome_table``
is what ``convergence_point`` calls).  Spans live in compact arrays in
memory and are written out once, when the run ends.

Span names are ``<defining module>.<function>``.  For a few names a note
function keeps a small JSON value per span (heaps tabulated, cells,
export format, ...) taken from the call's arguments or result.  A
function that a later version no longer has is simply never seen.
"""

from __future__ import annotations

import functools
import json
import time
import types
from array import array
from typing import Sequence

TRACED_MODULES = ("core", "analysis", "closed_form", "truncated", "multipile", "cli")


class Tracer:
    def __init__(self, notes: dict) -> None:
        self._note_fns = notes
        self.names: list[str] = []
        self.notes: dict[int, object] = {}
        self._name = array("i")
        self._parent = array("i")
        self._start = array("q")
        self._end = array("q")
        self._stack = [-1]
        self._ids: dict[str, int] = {}
        self._saved: list[tuple[types.ModuleType, str, object]] = []

    def install(self, modules) -> None:
        ids = self._ids
        for module in modules:
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not isinstance(value, types.FunctionType):
                    continue
                home = value.__module__
                if not home.startswith("cumsub."):
                    continue
                span = home.rsplit(".", 1)[1] + "." + value.__name__
                if span not in ids:
                    ids[span] = len(self.names)
                    self.names.append(span)
                self._saved.append((module, attr, value))
                setattr(module, attr, self._wrap(value, ids[span], self._note_fns.get(span)))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    def _wrap(self, fn, name_id: int, note):
        names, parents, starts, ends = self._name, self._parent, self._start, self._end
        stack = self._stack
        notes = self.notes
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            start = clock()
            starts.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if note is not None:
                try:
                    notes[idx] = note(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    pass
            return result

        return traced

    def save(self, path: str) -> None:
        """Write ``path``.json (names, notes) and ``path``.bin (the span arrays)."""
        meta = {
            "names": self.names,
            "count": len(self._name),
            "notes": {str(k): v for k, v in self.notes.items()},
        }
        with open(path + ".json", "w", encoding="utf-8") as fh:
            json.dump(meta, fh)
        with open(path + ".bin", "wb") as fh:
            for arr in (self._name, self._parent, self._start, self._end):
                arr.tofile(fh)


class Spans:
    """Spans read back from ``Tracer.save``, with per-span self time."""

    def __init__(self, path: str) -> None:
        with open(path + ".json", encoding="utf-8") as fh:
            meta = json.load(fh)
        n = meta["count"]
        self.names: list[str] = meta["names"]
        self.notes = {int(k): v for k, v in meta["notes"].items()}
        self.name, self.parent = array("i"), array("i")
        start, end = array("q"), array("q")
        with open(path + ".bin", "rb") as fh:
            for arr in (self.name, self.parent, start, end):
                arr.fromfile(fh, n)
        self.duration = array("q", (e - s for s, e in zip(start, end)))
        del start, end
        covered = array("q", bytes(8 * n))
        for i, p in enumerate(self.parent):
            if p >= 0:
                covered[p] += self.duration[i]
        # Self time: the span minus the time its direct children cover.
        # Spans of one thread nest, so direct children never overlap.
        self.self_time = array("q", (d - c for d, c in zip(self.duration, covered)))
        self._by_name = {name: array("i") for name in self.names}
        for i, k in enumerate(self.name):
            self._by_name[self.names[k]].append(i)

    def indices(self, span: str) -> Sequence[int]:
        """Indices of the spans with this name, in call order."""
        return self._by_name.get(span, array("i"))

    def module_indices(self, module: str) -> list[int]:
        prefix = module + "."
        return [i for name, idx in self._by_name.items() if name.startswith(prefix) for i in idx]
