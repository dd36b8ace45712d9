"""In-memory spans around the benchmark's calls into each randcs module.

A span has a name, a start and end on ``time.perf_counter``, the id of the
span that caused it, and free-form attributes (work counts, the origin of
the measurement).  A layer's self time is its span's duration minus the
part covered by its child spans.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from statistics import median


class NullTracer:
    """Stands in for :class:`Tracer` on the untraced path; records nothing."""

    def span(self, name: str, parent: int | None = None, **attrs):
        return nullcontext()


class Tracer:
    def __init__(self, origin: str = "workload"):
        self.origin = origin
        self.spans: list[dict] = []

    @contextmanager
    def span(self, name: str, parent: int | None = None, **attrs):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": parent,
            "origin": self.origin,
            "start": time.perf_counter(),
            "end": None,
            **attrs,
        }
        self.spans.append(record)
        try:
            yield record["id"]
        finally:
            record["end"] = time.perf_counter()

    def self_times(self) -> dict[int, float]:
        """Self time of every finished span, by id."""
        own = {s["id"]: s["end"] - s["start"] for s in self.spans}
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def median_self(self, name: str) -> float | None:
        own = self.self_times()
        values = [own[s["id"]] for s in self.named(name)]
        return median(values) if values else None
