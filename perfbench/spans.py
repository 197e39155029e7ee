"""In-memory spans around calls into the package, their checks and totals.

A span is a dict with `id`, `name`, `parent` (id or None), `start`, `end`
(perf_counter seconds) and free-form `attrs`.  Spans stay in memory until the
traced pass ends; the caller writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import time


class Tracer:
    """Records nested spans; `span` is a context manager."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._stack[-1] if self._stack else None,
                  "start": time.perf_counter(), "end": None, "attrs": attrs}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()


def no_span(name: str, **attrs):
    """Stand-in for `Tracer.span` on untraced passes."""
    return contextlib.nullcontext()


@contextlib.contextmanager
def wrapped(module, layers: dict, span):
    """Within the block, each function `module` resolves by name runs in a span.

    `layers` maps "<module>.<function>" span names to None or to a callable
    that takes the call's arguments and returns the span's attrs.  The
    module's own names are restored when the block ends.
    """
    saved = {}

    def wrap(fn, name, attrs):
        @functools.wraps(fn)
        def call(*args, **kwargs):
            with span(name, **(attrs(*args, **kwargs) if attrs else {})):
                return fn(*args, **kwargs)
        return call

    for name, attrs in layers.items():
        attr = name.rsplit(".", 1)[1]
        saved[attr] = getattr(module, attr)
        setattr(module, attr, wrap(saved[attr], name, attrs))
    try:
        yield
    finally:
        for attr, fn in saved.items():
            setattr(module, attr, fn)


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_times(spans: list[dict]) -> dict:
    """Span id -> duration minus the time its (sequential) children cover."""
    covered = {s["id"]: 0.0 for s in spans}
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += duration(s)
    return {s["id"]: duration(s) - covered[s["id"]] for s in spans}


def validate(spans: list[dict]) -> list[str]:
    """Problems found: unclosed spans, children outside their parent, or a
    negative self time.  An empty list means the span tree is sound."""
    problems = []
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        if s["end"] is None or s["end"] < s["start"]:
            problems.append(f"span {s['id']} {s['name']} is not closed")
            continue
        parent = by_id.get(s["parent"]) if s["parent"] is not None else None
        if s["parent"] is not None and parent is None:
            problems.append(f"span {s['id']} {s['name']} has unknown parent")
        elif parent is not None and not (parent["start"] <= s["start"]
                                         and s["end"] <= parent["end"]):
            problems.append(f"span {s['id']} {s['name']} lies outside "
                            f"its parent {parent['name']}")
    if not problems:
        problems += [f"span {i} has negative self time {t:.3e} s"
                     for i, t in self_times(spans).items() if t < 0.0]
    return problems


def total(spans: list[dict], name: str, **where) -> float:
    """Summed duration of the spans called `name` whose attrs match `where`."""
    return sum(duration(s) for s in spans if s["name"] == name
               and all(s["attrs"].get(k) == v for k, v in where.items()))


def count(spans: list[dict], name: str) -> int:
    return sum(1 for s in spans if s["name"] == name)


def attr_sum(spans: list[dict], name: str, attr: str) -> float:
    return sum(s["attrs"][attr] for s in spans if s["name"] == name)
