"""Outside-in span tracer for the benchmark's traced run.

The tracer never touches the program's source: it replaces a name
where the program looks it up (a module global, a class attribute or
a dict entry) with a wrapper that records a span, and puts the
original back on :meth:`Tracer.restore`.

Spans nest through a context variable, so each thread and each
asyncio task has its own parent chain.  A finished span adds its
duration to its parent's child time; the layer is credited with its
*self time*: the span's duration minus the part its child spans
cover.  Only per-layer totals are kept, not individual spans: the
simulation calls some layers hundreds of thousands of times.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import time
from collections import defaultdict

_MISSING = object()


class _Span:
    __slots__ = ("child",)

    def __init__(self) -> None:
        self.child = 0.0


class Tracer:
    """Per-layer self time, call counts and free-form counters."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.calls: defaultdict[str, int] = defaultdict(int)
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._current: contextvars.ContextVar[_Span | None] = (
            contextvars.ContextVar("perfbench_span", default=None)
        )
        # (owner, key, original-or-_MISSING, is_mapping) per patch.
        self._patches: list[tuple[object, str, object, bool]] = []

    # -- spans ---------------------------------------------------------

    def enter(self) -> tuple[_Span, contextvars.Token, float]:
        span = _Span()
        token = self._current.set(span)
        return span, token, self.clock()

    def exit(self, layer: str, frame: tuple[_Span, contextvars.Token, float]) -> None:
        span, token, start = frame
        duration = self.clock() - start
        self._current.reset(token)
        parent = self._current.get()
        if parent is not None:
            parent.child += duration
        self.self_s[layer] += duration - span.child
        self.total_s[layer] += duration
        self.calls[layer] += 1

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    def reset(self) -> None:
        self.self_s.clear()
        self.total_s.clear()
        self.calls.clear()
        self.counts.clear()

    def snapshot(self) -> dict:
        """Plain-dict copy of the totals (JSON-ready)."""
        return {
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
        }

    def merge(self, snapshot: dict) -> None:
        """Add totals recorded elsewhere (a worker process)."""
        for field in ("self_s", "total_s", "calls", "counts"):
            target = getattr(self, field)
            for key, value in snapshot.get(field, {}).items():
                target[key] += value

    # -- wrappers ------------------------------------------------------

    def wrap(self, layer: str, fn):
        """A wrapper recording one ``layer`` span per call.

        Coroutine functions get a span around the whole ``await``;
        generator functions get one span per item, so only the time
        spent producing items counts, not the consumer's.
        """
        tracer = self
        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def traced_coroutine(*args, **kwargs):
                frame = tracer.enter()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    tracer.exit(layer, frame)

            return traced_coroutine
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                tracer.count(layer + ".passes")
                iterator = fn(*args, **kwargs)
                while True:
                    frame = tracer.enter()
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        tracer.exit(layer, frame)
                    yield item

            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer.enter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit(layer, frame)

        return traced

    def patch(self, owner, name: str, replacement) -> None:
        """Set ``owner.name`` (or ``owner[name]`` for a dict) and
        remember what was there."""
        if isinstance(owner, dict):
            self._patches.append((owner, name, owner.get(name, _MISSING), True))
            owner[name] = replacement
            return
        # Only the owner's own attribute is saved: a method inherited
        # from a base class is restored by deleting the override.
        original = vars(owner).get(name, _MISSING)
        self._patches.append((owner, name, original, False))
        setattr(owner, name, replacement)

    def install(self, owner, name: str, layer: str) -> None:
        """Wrap ``owner.name`` in a ``layer`` span."""
        current = owner[name] if isinstance(owner, dict) else getattr(owner, name)
        wrapped = self.wrap(layer, current)
        raw = vars(owner).get(name) if not isinstance(owner, dict) else None
        if isinstance(raw, staticmethod):
            wrapped = staticmethod(wrapped)
        self.patch(owner, name, wrapped)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, name, original, is_mapping = self._patches.pop()
            if is_mapping:
                if original is _MISSING:
                    owner.pop(name, None)  # type: ignore[attr-defined]
                else:
                    owner[name] = original  # type: ignore[index]
            elif original is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, original)


def self_times(spans: list[tuple[str, float, float, str | None]]) -> dict[str, float]:
    """Self time per name for explicit ``(name, start, end, parent)``
    spans, where ``parent`` names the enclosing span (ids are names).

    The reference the tracer's incremental bookkeeping is tested
    against: a span's self time is its duration minus the union of the
    intervals its direct children cover.
    """
    children: defaultdict[str, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    result: defaultdict[str, float] = defaultdict(float)
    for name, start, end, _parent in spans:
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children[name]):
            child_start = max(child_start, cursor)
            child_end = min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        result[name] += (end - start) - covered
    return dict(result)
