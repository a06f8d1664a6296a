"""In-memory span recorder: nested, thread-aware timing of named stages.

A span is one timed stage: a name, start and end on the ``perf_counter``
clock, the span that caused it, the thread it ran on, and free-form
``attrs`` (counts measured at the same boundary).  The recorder's ``tags``
(workload, run id) are written with every span.  Spans stay in memory until
``write_jsonl``.

The module depends on nothing but the standard library, so the same
recorder can time stages from inside a program (``with rec.span(...)``) or
wrap a program's functions from outside (``rec.wrap``).

Threads: each thread keeps its own stack of open spans.  A span opened on a
thread with no open span is adopted by the root span (the outermost span
open on any thread), so the stages a thread pool runs on behalf of one call
nest under that call.
"""
from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

__all__ = ["Span", "SpanRecorder"]


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    thread: int
    start: float
    end: float = float("nan")
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    def __init__(self, **tags):
        self.tags = tags
        self.spans: list[Span] = []
        # next() on a count and list.append are single C calls, so worker
        # threads can open spans without a lock under the interpreter lock.
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root: Span | None = None

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack()
        parent = stack[-1] if stack else self._root
        s = Span(
            next(self._ids), name, parent.id if parent else None,
            threading.get_ident(), time.perf_counter(), attrs=attrs,
        )
        if parent is None:
            self._root = s
        self.spans.append(s)
        stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            stack.pop()
            if self._root is s:
                self._root = None

    def wrap(self, name: str, fn, attrs=None):
        """``fn`` timed as span ``name``.

        ``attrs(args, kwargs, result)`` may return counts to store on the
        span; it runs after ``fn`` returns, inside the span.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
                if attrs is not None:
                    s.attrs.update(attrs(args, kwargs, result))
                return result

        return wrapper

    # -- analysis -------------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the part of it that child spans cover.

        Children on several threads may overlap; the covered part is the
        length of the union of their intervals, so it never exceeds the span.
        """
        kids = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                kids[s.parent].append(s)
        return {
            s.id: s.duration - _union_length(s.start, s.end, kids.get(s.id, ()))
            for s in self.spans
        }

    def trees(self) -> dict[int, list[Span]]:
        """Root span id -> every span under it, the root included."""
        root_of: dict[int, int] = {}
        out = defaultdict(list)
        for s in self.spans:  # parents are appended before their children
            root = s.id if s.parent is None else root_of[s.parent]
            root_of[s.id] = root
            out[root].append(s)
        return dict(out)

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({**self.tags, **asdict(s)}) + "\n")


def _union_length(lo: float, hi: float, spans) -> float:
    covered, reach = 0.0, lo
    for start, end in sorted((max(c.start, lo), min(c.end, hi)) for c in spans):
        if end <= reach:
            continue
        covered += end - max(start, reach)
        reach = end
    return covered
