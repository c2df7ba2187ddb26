"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's side of each layer boundary: the
recorder replaces a module or class attribute with a wrapper for the length
of a ``with`` block and restores the original on exit. Per-example calls are
counted, not spanned, and each count is attributed to the innermost open span
of the calling thread, so ratios are measured where the work happens.
"""

from __future__ import annotations

import gzip
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

_now = time.perf_counter


class SpanRecorder:
    """Spans as ``[name, start, end, parent_index, run_id, thread]`` rows."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()  # (run id, enclosing span, counted name) -> calls
        self.run_id = ""
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        parent = stack[-1] if stack else -1
        row = [name, _now(), None, parent, self.run_id, threading.get_ident()]
        with self._lock:
            idx = len(self.spans)
            self.spans.append(row)
        stack.append(idx)
        try:
            yield
        finally:
            row[2] = _now()
            stack.pop()

    def _spanned(self, name: str, fn):
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def _counted(self, name: str, fn):
        counts, spans, lock = self.counts, self.spans, self._lock

        def wrapper(*args, **kwargs):
            stack = self._stack()
            key = (self.run_id, spans[stack[-1]][0] if stack else "", name)
            with lock:
                counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self, spanned, counted=()):
        """Wrap ``(owner, attribute, span_name)`` targets for the block.

        ``spanned`` entries record a span per call; ``counted`` entries only
        bump a counter. Every original attribute is restored on exit.
        """
        saved = []
        try:
            for owner, attr, name in spanned:
                saved.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, self._spanned(name, getattr(owner, attr)))
            for owner, attr, name in counted:
                saved.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, self._counted(name, getattr(owner, attr)))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # ---- analysis -------------------------------------------------------

    def self_times(self) -> list[float]:
        """Duration of each span minus the time its direct children cover.

        Children run on the parent's thread and nest strictly inside it, so
        their durations add up without overlap.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _run, _tid in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [row[2] - row[1] - child[i] for i, row in enumerate(self.spans)]

    def totals(self, run_id: str) -> tuple[dict, dict]:
        """(total duration, total self time) per span name within one run."""
        total: dict = defaultdict(float)
        self_total: dict = defaultdict(float)
        for row, st in zip(self.spans, self.self_times()):
            if row[4] == run_id:
                total[row[0]] += row[2] - row[1]
                self_total[row[0]] += st
        return total, self_total

    def durations(self, name: str, run_id: str | None = None) -> list[float]:
        """Per-call durations of ``name``, in one run or in all of them."""
        return [
            row[2] - row[1]
            for row in self.spans
            if row[0] == name and (run_id is None or row[4] == run_id)
        ]

    def write(self, path) -> None:
        """Dump all spans as gzip CSV: name,start,end,parent,run,thread."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name,start,end,parent,run,thread\n")
            for name, start, end, parent, run, tid in self.spans:
                fh.write(f"{name},{start:.9f},{end:.9f},{parent},{run},{tid}\n")
