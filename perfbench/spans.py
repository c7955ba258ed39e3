"""Outside-in span tracing for the benchmark.

A traced call is recorded by replacing a module attribute with a wrapper, so
every caller that looks the function up through that attribute is traced:
``hjhom.cell.solve_cell_many`` covers ``sweep_hbar`` (a global lookup inside
``cell``) and ``pipeline`` (``cell.solve_cell_many``), while
``hjhom.pipeline.compute_I`` covers pipeline's by-name import. Spans are kept
in memory and reduced to self times when the run ends.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    run_id: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Single-threaded span recorder; the benchmark never passes ``jobs``."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self.counts: dict = defaultdict(float)
        self._stack: list = []

    def wrap(self, module, attr: str, name: str,
             count: Optional[Callable] = None) -> bool:
        """Trace calls made through ``module.attr`` as spans called ``name``.

        ``count(args, kwargs, result)`` may return counters to add under the
        span's name. Returns False when the module has no such function.
        """
        fn = getattr(module, attr, None)
        if not callable(fn):
            return False

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[sid] = Span(sid, name, start, end, parent, self.run_id)
            if count is not None:
                for key, val in count(args, kwargs, result).items():
                    self.counts[f"{name}.{key}"] += val
            return result

        setattr(module, attr, traced)
        return True

    def self_times(self) -> dict:
        """Span id -> duration minus the time its child spans cover."""
        out = {s.sid: s.duration for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.duration
        return out

    def name_of(self, sid: Optional[int]) -> Optional[str]:
        return None if sid is None else self.spans[sid].name

    def as_records(self) -> list:
        return [{"id": s.sid, "name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "run_id": s.run_id} for s in self.spans]
