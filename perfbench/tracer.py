"""Spans recorded from outside the program, around its public calls.

A :class:`Tracer` keeps finished spans in memory.  :class:`Patcher`
swaps a public function or method for a wrapper that records one span
per call and restores the original afterwards; the program itself
carries no tracing code.

Parent links follow a ``contextvars`` stack, so they hold within one
thread and within one asyncio task.  Work handed to another thread
(the service's worker pool, the cluster scatter threads) starts with an
empty stack; while exactly one operation is open, such a span is
parented to the innermost span open on the operation's own stack, which
is where the caller is waiting.  With several operations in flight the
link cannot be recovered and the span stays an orphan; layer totals per
operation are still exact.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import threading
import time

_STACK: contextvars.ContextVar[tuple] = contextvars.ContextVar(
    "perfbench_span_stack", default=()
)


class Span:
    """One timed call: name, interval, parent, and the operation it served."""

    __slots__ = ("name", "start", "end", "span_id", "parent", "op", "attrs")

    def __init__(self, name: str, start: float, span_id: int,
                 parent: "int | None", op: "int | None"):
        self.name = name
        self.start = start
        self.end = start
        self.span_id = span_id
        self.parent = parent
        self.op = op
        self.attrs: dict = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Span {self.name} {self.duration * 1e3:.3f}ms "
                f"id={self.span_id} parent={self.parent} op={self.op}>")


def union_length(
    intervals: "list[tuple[float, float]]",
    low: float = float("-inf"),
    high: float = float("inf"),
) -> float:
    """Length of the union of ``intervals`` clipped to ``[low, high]``.

    Overlapping intervals (concurrent scatter calls) count once.
    """
    clipped = sorted(
        (max(a, low), min(b, high)) for a, b in intervals
        if min(b, high) > max(a, low)
    )
    total = 0.0
    current_start = current_end = None
    for a, b in clipped:
        if current_end is None or a > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = a, b
        else:
            current_end = max(current_end, b)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_time(span: Span, children: "list[Span]") -> float:
    """The span's duration minus the part of it its children cover."""
    covered = union_length(
        [(c.start, c.end) for c in children], span.start, span.end
    )
    return span.duration - covered


class Tracer:
    """In-memory span recorder."""

    def __init__(self) -> None:
        self.clock = time.perf_counter
        self.enabled = False
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._open_ops = 0
        # While exactly one operation is open: its root span, and the
        # innermost span open on its stack (where orphans attach).
        self._op_root: "Span | None" = None
        self._op_top: "Span | None" = None

    # -- operations --------------------------------------------------- #

    def begin_op(self, op: int) -> "tuple[Span, contextvars.Token]":
        """Open the root span of one benchmark operation."""
        span = Span("op", self.clock(), next(self._ids), None, op)
        with self._lock:
            self._open_ops += 1
            single = self._open_ops == 1
            self._op_root = self._op_top = span if single else None
        return span, _STACK.set((span,))

    def end_op(self, handle: "tuple[Span, contextvars.Token]") -> Span:
        span, token = handle
        span.end = self.clock()
        _STACK.reset(token)
        with self._lock:
            self._open_ops -= 1
            self._op_root = self._op_top = None
            self.spans.append(span)
        return span

    # -- spans ----------------------------------------------------------- #

    def _open(self, name: str) -> "tuple[Span, contextvars.Token]":
        stack = _STACK.get()
        parent = stack[-1] if stack else self._op_top
        span = Span(
            name,
            self.clock(),
            next(self._ids),
            parent.span_id if parent is not None else None,
            parent.op if parent is not None else None,
        )
        if stack and stack[0] is self._op_root:
            self._op_top = span
        return span, _STACK.set(stack + (span,))

    def _close(self, span: Span, token: contextvars.Token) -> None:
        span.end = self.clock()
        stack = _STACK.get()
        _STACK.reset(token)
        if stack[0] is self._op_root:
            self._op_top = stack[-2] if len(stack) > 1 else None
        with self._lock:
            self.spans.append(span)

    def span(self, name: str) -> "_SpanContext":
        """``with tracer.span(name):`` records one span when enabled."""
        return _SpanContext(self, name)

    def wrap(self, name: str, fn, *, exclusive: "str | None" = None,
             on_call=None, on_result=None):
        """A wrapper of ``fn`` recording a span named ``name`` per call.

        ``exclusive`` names a group: a call made while a span of the same
        group is open on this stack is passed through unrecorded, so a
        backend that delegates to an inner backend counts once.
        ``on_call(args)`` runs before a recorded call and
        ``on_result(span, args, result)`` after it, both outside the span.
        """
        tracer = self

        def enter(args: tuple) -> "tuple[Span, contextvars.Token] | None":
            if not tracer.enabled:
                return None
            if exclusive is not None and any(
                s.attrs.get("group") == exclusive for s in _STACK.get()
            ):
                return None
            if on_call is not None:
                on_call(args)
            opened = tracer._open(name)
            if exclusive is not None:
                opened[0].attrs["group"] = exclusive
            return opened

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                opened = enter(args)
                if opened is None:
                    return await fn(*args, **kwargs)
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    tracer._close(*opened)
                if on_result is not None:
                    on_result(opened[0], args, result)
                return result

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            opened = enter(args)
            if opened is None:
                return fn(*args, **kwargs)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(*opened)
            if on_result is not None:
                on_result(opened[0], args, result)
            return result

        return wrapper

    # -- analysis -------------------------------------------------------- #

    def take(self) -> "list[Span]":
        """Remove and return every finished span."""
        with self._lock:
            spans, self.spans = self.spans, []
        return spans


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str):
        self._tracer = tracer
        self._name = name
        self._opened = None

    def __enter__(self) -> "Span | None":
        if self._tracer.enabled:
            self._opened = self._tracer._open(self._name)
            return self._opened[0]
        return None

    def __exit__(self, *exc_info: object) -> None:
        if self._opened is not None:
            self._tracer._close(*self._opened)
            self._opened = None


class Patcher:
    """Swap attributes for tracing wrappers; :meth:`restore` undoes it."""

    def __init__(self, tracer: Tracer):
        self._tracer = tracer
        self._saved: list[tuple[object, str, object]] = []

    def patch(self, owner: object, attr: str, name: str, **options) -> None:
        """Wrap ``owner.attr`` (a module function, method, classmethod or
        staticmethod) so each call records a span called ``name``."""
        raw = (owner.__dict__[attr] if isinstance(owner, type)
               else getattr(owner, attr))
        if isinstance(raw, classmethod):
            replacement: object = classmethod(
                self._tracer.wrap(name, raw.__func__, **options))
        elif isinstance(raw, staticmethod):
            replacement = staticmethod(
                self._tracer.wrap(name, raw.__func__, **options))
        else:
            replacement = self._tracer.wrap(name, raw, **options)
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        """Put every original back, last patch first."""
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)


def children_index(spans: "list[Span]") -> "dict[int, list[Span]]":
    """Parent span id -> its child spans."""
    index: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            index.setdefault(span.parent, []).append(span)
    return index

