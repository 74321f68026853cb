"""In-memory span recorder for the traced benchmark run.

A :class:`Tracer` replaces attributes (module functions or class
methods) with timing wrappers, *at the name the caller looks up*: the
server calls ``from_wire`` through ``repro.service.server``'s globals,
so that is the attribute replaced.  Nothing under ``src/`` changes, and
an untraced run never builds a tracer, so it runs the program exactly
as shipped.

Spans are ``(seq, name, start, end, extra)`` tuples kept in a list and
written out once, at shutdown.  ``seq`` is the request sequence number
that the root wrapper (the HTTP handler entry point) assigns; a span
opened by any thread while request ``seq`` is being handled carries it.
That attribution is exact for the benchmark's load, which is closed-loop
with one client and one connection, so at most one request is in flight
per process.  Clocks are ``time.perf_counter`` (``CLOCK_MONOTONIC`` on
Linux, shared by every process on the host), so the load generator can
line server spans up against its own request windows.
"""

from __future__ import annotations

import functools
import gc
import json
import threading
import time
from typing import Callable, Optional

__all__ = ["Tracer"]


class Tracer:
    def __init__(self, role: str):
        self.role = role
        self.spans: list[tuple] = []
        self.seq = 0
        #: Sequence number of the request being handled (0 = none).
        self.current = 0
        self._active = threading.local()
        self._gc_start: Optional[float] = None
        self._undo: list[tuple] = []

    def wrap(
        self,
        owner,
        attr: str,
        name: str,
        *,
        root: bool = False,
        extra: Optional[Callable] = None,
    ) -> None:
        """Time every call of ``owner.attr`` as span ``name``.

        ``root`` marks the request entry point: it opens a new sequence
        number.  ``extra(args, result)`` returns a dict of counts stored
        on the span, computed after the clock stops.  A call nested in
        an already-open span of the same name is not recorded twice.
        """
        inner = getattr(owner, attr)
        tracer = self
        clock = time.perf_counter

        @functools.wraps(inner)
        def wrapper(*args, **kwargs):
            active = tracer._active.__dict__
            if active.get(name):
                return inner(*args, **kwargs)
            if root:
                tracer.seq += 1
                tracer.current = tracer.seq
            seq = tracer.current
            active[name] = True
            start = clock()
            try:
                result = inner(*args, **kwargs)
            finally:
                end = clock()
                active[name] = False
            tracer.spans.append(
                (seq, name, start, end, extra(args, result) if extra else None)
            )
            return result

        self._undo.append((owner, attr, inner))
        setattr(owner, attr, wrapper)

    def unwrap(self) -> None:
        """Put every wrapped attribute back, last wrapped first."""
        while self._undo:
            owner, attr, inner = self._undo.pop()
            setattr(owner, attr, inner)

    def watch_gc(self) -> None:
        """Record every garbage-collector pass as a ``gc`` span."""
        gc.callbacks.append(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self.spans.append(
                (self.current, "gc", self._gc_start, time.perf_counter(), None)
            )
            self._gc_start = None

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"role": self.role, "spans": self.spans}, handle)


def load_spans(path: str) -> tuple[str, list]:
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)
    return doc["role"], [tuple(span) for span in doc["spans"]]
