"""In-memory span tracer that measures library layers from outside.

A :class:`Tracer` replaces named functions on library modules or classes
with timing wrappers, so the library itself carries no tracing code.  Each
wrapped call records one :class:`Span` (name, start, end, parent, thread
and optional work counts).  Parents come from a per-thread stack, so calls
made on a worker pool nest correctly within their own thread.  Spans stay
in memory until the caller writes them out; :meth:`Tracer.restore` puts
every original function back.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from typing import Any, Callable


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    thread: int
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """Owns the wrappers it installs and the spans they record."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple[Any, str, Any]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, span: Span) -> None:
        with self._lock:
            self.spans.append(span)

    def _wrapper(
        self,
        fn: Callable,
        name: str,
        attrs: Callable[..., dict[str, Any]] | None,
    ) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            with self._lock:
                sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = time.perf_counter_ns()
                stack.pop()
                self._record(
                    Span(sid, name, start, end, parent, threading.get_ident(),
                         {"error": type(exc).__name__})
                )
                raise
            end = time.perf_counter_ns()
            stack.pop()
            # Work counts are taken after the clock stops, so they cost the
            # span nothing.
            extra = attrs(result, *args, **kwargs) if attrs is not None else {}
            self._record(Span(sid, name, start, end, parent, threading.get_ident(), extra))
            return result

        return traced

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        attrs: Callable[..., dict[str, Any]] | None = None,
    ) -> None:
        """Replace ``owner.attr`` with a wrapper recording spans named ``name``.

        ``owner`` is a module or class that defines ``attr`` itself; callers
        that look the name up at call time then reach the wrapper.  ``attrs``
        receives ``(result, *args, **kwargs)`` and returns the span's counts.
        """
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrapper(original, name, attrs))

    def restore(self) -> None:
        """Put back every wrapped function, last wrapped first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def take(self) -> list[Span]:
        """Hand over the spans recorded so far and start a fresh list."""
        with self._lock:
            spans, self.spans = self.spans, []
        return spans

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def self_times(spans: list[Span]) -> dict[int, int]:
    """Each span's duration minus the part of it its children cover (ns)."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start_ns, s.end_ns))
    out = {}
    for s in spans:
        covered = 0
        reach = s.start_ns
        for a, b in sorted(children[s.id]):
            a, b = max(a, reach), min(b, s.end_ns)
            if b > a:
                covered += b - a
                reach = b
        out[s.id] = s.duration_ns - covered
    return out


def spans_to_json(spans: list[Span]) -> list[dict[str, Any]]:
    return [asdict(s) for s in spans]
