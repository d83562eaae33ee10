"""In-memory span tracer for the perf ledger.

The benchmark measures every layer from outside: :meth:`Tracer.wrap`
replaces a public method on an *instance* (or, where the object is
created inside the code under test, on its *class*) with a thin wrapper
that records one span per call.  Nothing under ``src/`` is edited, and
:meth:`Tracer.uninstall` puts every original back.

A span is ``[id, parent, name, op, wall_start, wall_end, cpu_s]``: the
parent is the span that was open when this one started, ``op`` is the
benchmark operation it belongs to (the identifier every span of one op
shares), wall times are seconds since the tracer was created, and
``cpu_s`` is the CPU time of the single benchmark thread spent inside.
Spans stay in a list until the run ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

__all__ = ["Tracer", "IDLE", "SPAN_FIELDS"]

SPAN_FIELDS = ("id", "parent", "name", "op", "wall_start", "wall_end", "cpu_s")

_ID, _PARENT, _NAME, _OP, _W0, _W1, _CPU = range(7)


class Tracer:
    """Records nested spans; recording is on only inside :meth:`op`."""

    def __init__(self) -> None:
        self.spans: List[List[Any]] = []
        self._stack: List[int] = []
        self._op = -1
        self._recording = False
        self._epoch = time.perf_counter()
        self._undo: List[Callable[[], None]] = []

    # -- recording -----------------------------------------------------
    def _open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(
            [sid, parent, name, self._op,
             time.perf_counter() - self._epoch, 0.0, time.process_time()]
        )
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        span = self.spans[sid]
        span[_CPU] = time.process_time() - span[_CPU]
        span[_W1] = time.perf_counter() - self._epoch
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record the enclosed block as a span (no-op outside an op)."""
        if not self._recording:
            yield
            return
        sid = self._open(name)
        try:
            yield
        finally:
            self._close(sid)

    @contextmanager
    def op(self, index: int, name: str = "run.op") -> Iterator[None]:
        """Root span of benchmark operation ``index``."""
        self._op, self._recording = index, True
        sid = self._open(name)
        try:
            yield
        finally:
            self._close(sid)
            self._recording = False

    # -- outside-in instrumentation ------------------------------------
    def wrap(self, owner: Any, attr: str, name: str) -> None:
        """Record a span named ``name`` around every ``owner.attr`` call.

        ``owner`` is an instance (the wrapper shadows the method as an
        instance attribute) or a class (for objects the code under test
        constructs itself).
        """
        on_class = isinstance(owner, type)
        original = owner.__dict__[attr] if on_class else getattr(owner, attr)

        def traced(*args: Any, **kwargs: Any) -> Any:
            if not self._recording:
                return original(*args, **kwargs)
            sid = self._open(name)
            try:
                return original(*args, **kwargs)
            finally:
                self._close(sid)

        setattr(owner, attr, traced)
        if on_class:
            self._undo.append(lambda: setattr(owner, attr, original))
        else:
            self._undo.append(lambda: delattr(owner, attr))

    def uninstall(self) -> None:
        """Restore every method :meth:`wrap` replaced."""
        while self._undo:
            self._undo.pop()()

    # -- analysis ------------------------------------------------------
    def op_totals(self) -> Dict[int, Dict[str, float]]:
        """Per op: CPU seconds by span name, plus ``<name>.self`` times.

        A span's self time is its duration minus the part its direct
        children cover, so for every op the root span's total equals
        the sum of all self times beneath (and including) it.
        """
        child_cpu = [0.0] * len(self.spans)
        for span in self.spans:
            if span[_PARENT] >= 0:
                child_cpu[span[_PARENT]] += span[_CPU]
        totals: Dict[int, Dict[str, float]] = {}
        for span in self.spans:
            per_op = totals.setdefault(span[_OP], {})
            per_op[span[_NAME]] = per_op.get(span[_NAME], 0.0) + span[_CPU]
            key = span[_NAME] + ".self"
            per_op[key] = per_op.get(key, 0.0) + span[_CPU] - child_cpu[span[_ID]]
        return totals

    def durations(self, name: str, op: Optional[int] = None) -> List[float]:
        """CPU seconds of the spans called ``name`` (of one op), in call order."""
        return [
            s[_CPU]
            for s in self.spans
            if s[_NAME] == name and (op is None or s[_OP] == op)
        ]

    def dump(self) -> Tuple[Tuple[str, ...], List[List[Any]]]:
        """Fields and spans for the span file (microsecond / nanosecond digits)."""
        return SPAN_FIELDS, [
            s[:_W0] + [round(s[_W0], 6), round(s[_W1], 6), round(s[_CPU], 9)]
            for s in self.spans
        ]


#: A tracer no op is ever started on: its ``span`` is a no-op, so code
#: written against a tracer runs untraced with it.
IDLE = Tracer()
