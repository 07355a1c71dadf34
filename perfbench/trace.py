"""In-memory spans around calls into the package's public functions.

A span records its name, start, end, parent span and the run it belongs to.
The tracer only wraps callables handed to it; nothing inside the package is
instrumented.  With tracing off, ``wrap`` returns the callable unchanged and
``span`` records nothing, so untraced runs pay no per-call cost.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: str

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, enabled: bool, run_id: str):
        self.enabled = enabled
        self.run_id = run_id
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = Span(sid, name, time.perf_counter(), float("nan"), parent, self.run_id)
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            rec.end = time.perf_counter()

    def wrap(self, name: str, fn):
        if not self.enabled:
            return fn

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def totals(self, name: str) -> tuple[float, int]:
        """Inclusive seconds and call count of every span called ``name``."""
        hits = [s for s in self.spans if s.name == name]
        return sum(s.seconds for s in hits), len(hits)

    def self_seconds(self) -> dict[str, float]:
        """Self time per layer: span duration minus the time its children cover.

        Children of one span never overlap (calls are sequential), so the
        covered time is the sum of the children's durations.
        """
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.seconds
        out: dict[str, float] = {}
        for s in self.spans:
            out[s.layer] = out.get(s.layer, 0.0) + s.seconds - child[s.id]
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([asdict(s) for s in self.spans]))
