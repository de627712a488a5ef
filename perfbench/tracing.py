"""Spans around the library's public functions, recorded from outside it.

``Tracer.install`` replaces each traced function by a wrapper in every
``friezes`` module namespace that bound the function object by name
(``friezes.search`` imports ``forward_values``, ``verify_pattern`` and
``pattern_from_columns``; ``friezes.bounds`` and ``friezes.search`` both
import ``type_profile``), so calls made inside the library are seen too.
``uninstall`` puts the original objects back.

A span is ``(name, start, end, parent)`` with ``parent`` the index of the
enclosing span or -1.  Spans stay in memory until ``dump``.  Work done in
pool worker processes is not seen: the workers' copies of the wrappers
record into their own memory.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import defaultdict

# (module, function) pairs; the span name is "<layer>.<function>".
TRACED = (
    ("catalog", "type_profile"),
    ("mesh", "forward_values"),
    ("mesh", "verify_pattern"),
    ("mesh", "detect_period"),
    ("mesh", "pattern_from_columns"),
    ("bounds", "a_vector"),
    ("bounds", "interval_certificate"),
    ("bounds", "check_pattern_against_bounds"),
    ("bounds", "bounds_report"),
    ("search", "enumerate_friezes"),
    ("formats", "parse_frieze"),
    ("formats", "emit_frieze"),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[int] = []
        self._patches: list = []  # (namespace, attribute, original)

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def install(self) -> None:
        namespaces = [m for k, m in sys.modules.items() if k == "friezes" or k.startswith("friezes.")]
        for module, attr in TRACED:
            original = getattr(sys.modules[f"friezes.{module}"], attr)
            wrapper = self._wrap(f"{module}.{attr}", original)
            for ns in namespaces:
                if getattr(ns, attr, None) is original:
                    setattr(ns, attr, wrapper)
                    self._patches.append((ns, attr, original))

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._patches):
            setattr(ns, attr, original)
        self._patches.clear()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around the block; free when not installed."""
        if not self.installed:
            yield
            return
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans[idx] = (name, start, time.perf_counter(), parent)
            self._stack.pop()

    def totals(self, first: int = 0) -> dict[str, list]:
        """``name -> [calls, self seconds, total seconds]`` over spans from
        index ``first``.

        Self time is a span's duration minus its direct children's; on one
        thread children nest inside their parent and do not overlap.
        """
        spans = self.spans[first:]
        child_time = defaultdict(float)
        for name, start, end, parent in spans:
            if parent >= first:
                child_time[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for idx, (name, start, end, _) in enumerate(spans, start=first):
            entry = out[name]
            entry[0] += 1
            entry[1] += (end - start) - child_time[idx]
            entry[2] += end - start
        return dict(out)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")
