"""In-memory span tracing around calls into the program's layers.

The traced run patches the module attributes through which one layer
calls another (``repro.api.make_schedule``, ``repro.nn.functional.
conv2d_forward``, ...) with wrappers that record a span per call: its
name, start, end, parent span and operation id.  Nothing inside
``src/`` changes; the wrappers are removed when the run ends and the
spans are written out once, after timing.
"""
from __future__ import annotations

import contextvars
import functools
import inspect
import json
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index into the span list, -1 for a root
    op: Any = None       # operation id of the load generator
    tag: str | None = None


class Tracer:
    """Records spans; parents follow the caller's context.

    The open-span stack lives in a :class:`contextvars.ContextVar`, so
    it follows threads and asyncio tasks: two requests interleaved on
    one event loop keep separate parents.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: contextvars.ContextVar[tuple[int, ...]] = (
            contextvars.ContextVar(f"spans{id(self)}", default=())
        )
        self._op: contextvars.ContextVar[Any] = contextvars.ContextVar(
            f"op{id(self)}", default=None
        )
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording -------------------------------------------------------

    def set_op(self, op: Any) -> None:
        """Operation id stamped on spans opened from now on (this context)."""
        self._op.set(op)

    def _open(self, name: str, tag: str | None) -> tuple[int, Any]:
        stack = self._stack.get()
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0,
                               stack[-1] if stack else -1,
                               self._op.get(), tag))
        return index, self._stack.set(stack + (index,))

    def _close(self, index: int, token) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.reset(token)

    def wrap(self, fn: Callable, name: str,
             tag: Callable[..., str | None] | None = None) -> Callable:
        """``fn`` recording one span named ``name`` per call.

        ``tag(*args, **kwargs)`` may label the span (an objective, a
        network) for per-label breakdowns.
        """
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                index, token = self._open(
                    name, tag(*args, **kwargs) if tag else None)
                try:
                    return await fn(*args, **kwargs)
                finally:
                    self._close(index, token)
            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index, token = self._open(
                name, tag(*args, **kwargs) if tag else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index, token)
        return traced

    # -- patching --------------------------------------------------------

    def patch(self, owner: Any, attr: str, name: str,
              tag: Callable[..., str | None] | None = None) -> None:
        """Replace ``owner.attr`` (function, method or classmethod)."""
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, classmethod):
            wrapped: Any = classmethod(self.wrap(raw.__func__, name, tag))
        else:
            wrapped = self.wrap(raw, name, tag)
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, raw))

    def patch_callers(self, fn: Callable, name: str,
                      prefixes: Iterable[str],
                      tag: Callable[..., str | None] | None = None) -> int:
        """Wrap ``fn`` wherever a loaded module under ``prefixes`` holds it.

        Callers that did ``from x import fn`` keep their own reference,
        so each caller module is patched; callee-internal references
        (modules outside ``prefixes``) stay untraced.  Returns the
        number of modules patched.
        """
        wrapped = self.wrap(fn, name, tag)
        count = 0
        for mod_name, module in sorted(sys.modules.items()):
            if module is None or not mod_name.startswith(tuple(prefixes)):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapped)
                    self._patches.append((module, attr, fn))
                    count += 1
        return count

    def unpatch_all(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- output ----------------------------------------------------------

    def write(self, path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start,
                    "end": s.end, "parent": s.parent, "op": s.op,
                    "tag": s.tag,
                }) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part its child spans cover."""
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children.setdefault(s.parent, []).append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(i, ()), key=lambda k: spans[k].start):
            lo = max(spans[c].start, cursor)
            hi = min(spans[c].end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((s.end - s.start) - covered)
    return out


def _nested_in_same(spans: list[Span], i: int) -> bool:
    name = spans[i].name
    p = spans[i].parent
    while p >= 0:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False


class SpanSummary:
    """Per-name totals over one span list (self times computed once)."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        self.self_s = self_times(spans)

    def _outer(self, name: str):
        for i, s in enumerate(self.spans):
            if s.name == name and not _nested_in_same(self.spans, i):
                yield s

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def busy_s(self, name: str) -> float:
        """Wall time inside ``name`` (outermost calls, children included)."""
        return sum(s.end - s.start for s in self._outer(name))

    def self_s_total(self, name: str) -> float:
        """Time inside ``name`` not covered by any traced child span."""
        return sum(t for s, t in zip(self.spans, self.self_s)
                   if s.name == name)

    def durations(self, name: str, keep=None) -> list[float]:
        """Outermost call durations, those whose tag passes ``keep``."""
        return [s.end - s.start for s in self._outer(name)
                if keep is None or keep(s.tag)]
