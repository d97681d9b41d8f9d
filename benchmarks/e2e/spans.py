"""In-memory spans for the traced replay, and their self-time arithmetic.

The benchmark records spans around its own calls into each layer's
public functions; nothing inside ``src/`` is instrumented.  A span is
(name, request id, parent, start, end).  A layer's *self* time is its
span's duration minus the part of that interval its child spans cover,
so the self times of one request's spans add up to the in-process time
of its top-level spans.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Callable, Dict, Iterator, List, Optional


@dataclass
class Span:
    name: str
    request: str
    parent: Optional[int]
    start: float
    end: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans of a single-threaded replay."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str, request: Optional[str] = None) -> Iterator[Span]:
        """Time the body as span ``name``; nests under the open span and
        inherits its request id when ``request`` is omitted."""
        parent = self._open[-1] if self._open else None
        if request is None:
            request = self.spans[parent].request
        span = Span(name, request, parent, time.perf_counter())
        self._open.append(len(self.spans))
        self.spans.append(span)
        try:
            yield span
        finally:
            self._open.pop()
            span.end = time.perf_counter()

    def wrap(self, name: str, func: Callable) -> Callable:
        """``func`` timed as a child span of whatever span is open."""
        @functools.wraps(func)
        def traced(*args, **kwargs):
            with self.span(name):
                return func(*args, **kwargs)
        return traced

    def write(self, path: str) -> None:
        """One JSON object per span, times relative to the first span."""
        epoch = self.spans[0].start if self.spans else 0.0
        with open(path, "w") as handle:
            for span in self.spans:
                record = asdict(span)
                record["start"] -= epoch
                record["end"] -= epoch
                handle.write(json.dumps(record) + "\n")


def self_times(spans: List[Span]) -> List[float]:
    """Per span: its duration minus the union of its children's
    intervals, clipped to the span."""
    children: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    result = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for child in sorted(children[index], key=lambda c: c.start):
            lo = max(child.start, reach)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append(span.seconds - covered)
    return result


def by_request(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """``{request: {layer: summed self seconds}}``, plus the request's
    in-process total (its top-level spans) under ``""``."""
    table: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for span, own in zip(spans, self_times(spans)):
        table[span.request][span.name] += own
        if span.parent is None:
            table[span.request][""] += span.seconds
    return {request: dict(layers) for request, layers in table.items()}
