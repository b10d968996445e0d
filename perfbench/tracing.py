"""In-memory spans recorded around calls into the package's public functions.

Spans live in the benchmark's own files, never inside ``src/``: a traced
call is the same public function, reached through ``Tracer.wrap``.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Collects (name, start, end, parent) spans and per-name counts."""

    def __init__(self):
        self.spans = []  # (name, start_s, end_s, parent_index or None)
        self.counts = defaultdict(float)
        self._stack = []

    @contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent)

    def wrap(self, fn, name, counter=None, size=len):
        """``fn`` with a span named ``name`` around every call.

        With ``counter``, ``size(result)`` of every call is added to that
        count, e.g. the points a curve or a sweep returned.
        """

        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if counter is not None:
                self.count(counter, size(result))
            return result

        return traced

    def count(self, name, value):
        self.counts[name] += value

    def totals(self):
        """Summed duration per span name, seconds."""
        out = defaultdict(float)
        for name, start, end, _ in self.spans:
            out[name] += end - start
        return dict(out)

    def calls(self):
        """Number of spans per span name."""
        out = defaultdict(int)
        for name, _, _, _ in self.spans:
            out[name] += 1
        return dict(out)

    def top_level_s(self):
        """Time covered by spans that have no parent span."""
        return sum(end - start for _, start, end, parent in self.spans if parent is None)


@contextmanager
def patched(module, **attrs):
    """Temporarily replace attributes of ``module`` (restored on exit)."""
    saved = {name: getattr(module, name) for name in attrs}
    for name, value in attrs.items():
        setattr(module, name, value)
    try:
        yield
    finally:
        for name, value in saved.items():
            setattr(module, name, value)
