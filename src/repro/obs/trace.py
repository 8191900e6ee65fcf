"""Span tracer: nested timing contexts aggregated into a per-stage time tree.

``with tracer.span("forward"):`` opens a stage; spans nest, and every
(parent-path, name) pair aggregates into one :class:`SpanNode` — re-entering
``epoch/forward`` a thousand times yields a single node with ``count=1000``
and the summed wall-clock.  This is exactly the per-stage cost breakdown the
paper's efficiency argument is built on (where does a training step spend its
time: hash lookup, candidate sampling, batched softmax, sparse update?).

Timing uses ``time.perf_counter`` by default; the tree *structure* and visit
counts are deterministic for a fixed workload even though durations vary run
to run.  Tests inject ``SpanTracer(clock=...)`` (e.g. a
:class:`repro.utils.ManualClock`) to make durations deterministic too.

The stack of *open* spans is per-thread (``threading.local``): spans opened
from a daemon thread (a ``MicroBatcher`` flush) nest under that thread's own
spans, never under whatever the main thread happens to have open.  The aggregated tree is shared — all threads
fold their timings into the same nodes (child creation is atomic via
``dict.setdefault``; concurrent ``count``/``total`` updates on the *same*
node may lose an increment under free-threading, an accepted tolerance for
an aggregate profile).
"""

from __future__ import annotations

import threading
import time
from typing import Callable

__all__ = ["SpanNode", "SpanTracer"]


class SpanNode:
    """One aggregated stage in the span tree."""

    __slots__ = ("name", "count", "total", "children")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.children: dict[str, SpanNode] = {}

    def child(self, name: str) -> "SpanNode":
        node = self.children.get(name)
        if node is None:
            # setdefault is atomic in CPython: two threads racing to create
            # the same child both end up holding the one that won.
            node = self.children.setdefault(name, SpanNode(name))
        return node

    @property
    def self_time(self) -> float:
        """Time spent in this span but not in any child span."""
        return self.total - sum(c.total for c in self.children.values())

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else float("nan")

    def walk(self, path: str = ""):
        """Yield ``(path, node)`` depth-first in insertion order."""
        here = f"{path}/{self.name}" if path else self.name
        yield here, self
        for child in self.children.values():
            yield from child.walk(here)

    def __repr__(self) -> str:
        return (f"SpanNode({self.name!r}, count={self.count}, "
                f"total={self.total:.4f}s, children={len(self.children)})")


class _Span:
    """Active timing context; hand-rolled for low enter/exit overhead."""

    __slots__ = ("_tracer", "_node", "_start")

    def __init__(self, tracer: "SpanTracer", node: SpanNode) -> None:
        self._tracer = tracer
        self._node = node

    def __enter__(self) -> "_Span":
        self._tracer._thread_stack().append(self._node)
        self._start = self._tracer._clock()
        return self

    def __exit__(self, *exc) -> None:
        elapsed = self._tracer._clock() - self._start
        node = self._node
        node.count += 1
        node.total += elapsed
        stack = self._tracer._thread_stack()
        if stack and stack[-1] is node:
            stack.pop()
        else:  # unbalanced exit (generator abandoned mid-span): resync
            while stack and stack[-1] is not node:
                stack.pop()
            if stack:
                stack.pop()


class SpanTracer:
    """Aggregating tracer: per-thread stacks of open spans over one shared
    tree of totals.  Each thread's spans nest under that thread's own open
    spans (threads start at the root), so concurrent instrumentation from
    daemon threads cannot mis-nest under the main thread's stages."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self.root = SpanNode("root")
        self._local = threading.local()

    def _thread_stack(self) -> list[SpanNode]:
        """This thread's open-span stack, rooted at the *current* root.

        Comparing the cached root identity handles :meth:`reset`: a thread
        whose local stack predates the reset starts fresh from the new root.
        """
        local = self._local
        if getattr(local, "root", None) is not self.root:
            local.root = self.root
            local.stack = [self.root]
        return local.stack

    def span(self, name: str) -> _Span:
        """Open a (nested) span; use as ``with tracer.span("forward"):``."""
        return _Span(self, self._thread_stack()[-1].child(name))

    @property
    def depth(self) -> int:
        """Number of spans the calling thread currently has open."""
        return len(self._thread_stack()) - 1

    def flatten(self) -> list[dict]:
        """Every aggregated span as a flat dict list (root excluded)."""
        out = []
        for path, node in self.root.walk():
            if node is self.root:
                continue
            out.append({"path": path.split("/", 1)[1], "name": node.name,
                        "count": node.count, "total": node.total,
                        "mean": node.mean, "self_time": node.self_time})
        return out

    def total(self, path: str) -> float:
        """Summed seconds for a ``/``-separated path, 0.0 if never entered."""
        node = self.root
        for part in path.split("/"):
            node = node.children.get(part)
            if node is None:
                return 0.0
        return node.total

    def reset(self) -> None:
        if len(self._thread_stack()) > 1:
            raise RuntimeError("cannot reset tracer while spans are open")
        self.root = SpanNode("root")
        self._local = threading.local()

    def render(self, float_fmt: str = "{:>9.4f}") -> str:
        """Indented plain-text view of the aggregated time tree."""
        lines = [f"{'span':<40} {'count':>8} {'total s':>9} {'self s':>9}"]
        for path, node in self.root.walk():
            if node is self.root:
                continue
            depth = path.count("/") - 1
            label = "  " * depth + node.name
            lines.append(f"{label:<40} {node.count:>8} "
                         f"{float_fmt.format(node.total)} "
                         f"{float_fmt.format(node.self_time)}")
        return "\n".join(lines)
