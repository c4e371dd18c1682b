"""In-memory spans recorded around calls into each layer.

One :class:`Tracer` per replayed workload.  Spans are
``{id, name, workload, start, end, parent}`` dictionaries kept in a list
and written out when the benchmark ends; the layer of a span is the
part of its name before the first dot (``containers.absorb`` belongs to
``repro.containers``).  A span's *self time* is its duration minus the
part of that interval its child spans cover.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator


class Tracer:
    """Records nested spans on one thread; spans close in LIFO order."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[dict[str, Any]] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[dict[str, Any]]:
        """``with tracer.span("io.load"): ...``"""
        record = {
            "id": len(self.spans),
            "name": name,
            "workload": self.workload,
            "parent": self._open[-1] if self._open else None,
            "start": 0.0,
            "end": 0.0,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` with every call recorded as a span called ``name``.

        Used to put a span around a method the runtime calls on an
        object the benchmark owns (``container.partitions`` inside
        ``run_reducers``), so nested layers separate without any code
        inside ``src/``.
        """

        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return fn(*args, **kwargs)

        return traced


def layer_of(name: str) -> str:
    """``"containers.absorb"`` -> ``"containers"``."""
    return name.split(".", 1)[0]


def _covered(start: float, end: float,
             intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    clipped = sorted(
        (max(s, start), min(e, end)) for s, e in intervals
        if min(e, end) > max(s, start)
    )
    total = 0.0
    cursor = start
    for s, e in clipped:
        if e <= cursor:
            continue
        total += e - max(s, cursor)
        cursor = e
    return total


def self_times(spans: list[dict[str, Any]]) -> dict[int, float]:
    """Self time per span id: duration minus what its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"])
            )
    return {
        span["id"]: (span["end"] - span["start"]) - _covered(
            span["start"], span["end"], children.get(span["id"], [])
        )
        for span in spans
    }


def self_time_by_name(spans: list[dict[str, Any]]) -> dict[str, float]:
    """Summed self time per span name."""
    per_span = self_times(spans)
    out: dict[str, float] = {}
    for span in spans:
        out[span["name"]] = out.get(span["name"], 0.0) + per_span[span["id"]]
    return out


def self_time_by_layer(spans: list[dict[str, Any]]) -> dict[str, float]:
    """Summed self time per layer, root spans left out."""
    per_span = self_times(spans)
    out: dict[str, float] = {}
    for span in spans:
        if span["parent"] is None:
            continue
        layer = layer_of(span["name"])
        out[layer] = out.get(layer, 0.0) + per_span[span["id"]]
    return out


def root_coverage(spans: list[dict[str, Any]]) -> float:
    """Share of the root spans' time that their child spans cover — the
    sum of leaf spans over the root when leaves tile it, and still right
    when a span has both children and time of its own."""
    per_span = self_times(spans)
    roots = [s for s in spans if s["parent"] is None]
    root_s = sum(s["end"] - s["start"] for s in roots)
    own_s = sum(per_span[s["id"]] for s in roots)
    return 1.0 - own_s / root_s if root_s > 0 else 0.0
