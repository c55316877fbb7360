"""In-memory spans around calls into the library, for the traced pass.

A span records its name, start and end (``time.perf_counter``, which is
CLOCK_MONOTONIC on Linux and so comparable across processes), its parent
span and the pass it belongs to.  Spans stay in memory until the
benchmark writes them out at the end.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    pass_id: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; ``pass_id`` tags the spans opened after it is set."""

    def __init__(self, pass_id: str = ""):
        self.pass_id = pass_id
        self.spans: list[Span | None] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(None)
        self._open.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[sid] = Span(sid, name, start, end, parent, self.pass_id)

    def closed(self) -> list[Span]:
        return [s for s in self.spans if s is not None]


class NullTracer:
    """The untraced pass: every span is the same do-nothing context."""

    _NOTHING = contextlib.nullcontext()

    def span(self, name: str):
        return self._NOTHING


NULL = NullTracer()


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it covered by its children."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = s.duration - covered
    return out


def totals(spans: list[Span]) -> dict[tuple[str, str], tuple[float, int]]:
    """(summed self time, call count) per (pass id, span name)."""
    own = self_times(spans)
    out: dict[tuple[str, str], tuple[float, int]] = {}
    for s in spans:
        busy, calls = out.get((s.pass_id, s.name), (0.0, 0))
        out[(s.pass_id, s.name)] = (busy + own[s.id], calls + 1)
    return out


def to_records(spans: list[Span]) -> list[dict]:
    return [asdict(s) for s in spans]

