"""Span tracer: the per-stage time tree that every closing span folds into.

``with obs.span("forward"):`` opens a stage; spans nest, and every
(parent-path, name) pair aggregates into one :class:`SpanNode` — re-entering
``epoch/forward`` a thousand times yields a single node with ``count=1000``
and the summed wall-clock.  This is exactly the per-stage cost breakdown the
paper's efficiency argument is built on (where does a training step spend its
time: hash lookup, candidate sampling, batched softmax, sparse update?).

:class:`SpanTracer` holds only the tree.  The open spans live on the trace
context (:mod:`repro.obs.context`): a span's node is the child of its
innermost open span's node (the root when none is open), fixed when the span
opens, and its time is read on the session's ``TraceStore.clock`` —
``time.perf_counter`` by default; tests inject a
:class:`repro.utils.ManualClock` there to make durations deterministic.  The
tree *structure* and visit counts are deterministic for a fixed workload even
though durations vary run to run.

Each thread starts with no open span, so a thread's spans hang off the root,
never off another thread's open span.  The tree is shared — all threads fold
their timings into the same nodes (child creation is atomic via
``dict.setdefault``; concurrent ``count``/``total`` updates on the *same*
node may lose an increment under free-threading, an accepted tolerance for
an aggregate profile).
"""

from __future__ import annotations

from repro.obs import context

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


class SpanTracer:
    """The aggregated time tree of one telemetry session."""

    def __init__(self) -> None:
        self.root = SpanNode("root")

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
        if context.current() is not None:
            raise RuntimeError("cannot reset tracer while spans are open")
        self.root = SpanNode("root")

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
