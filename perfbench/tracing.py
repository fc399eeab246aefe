"""In-memory span tracing by wrapping module attributes.

A Tracer replaces named functions on imported modules with timing
wrappers, keeps every span in memory and restores the originals on
uninstall.  Spans carry their parent, so a layer's self time is its
duration minus the durations of its child spans.  Every traced call
runs on the job's own thread, so one span stack is enough.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import time
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    job: object
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Target:
    """One function to wrap: module.attr, recorded as span `name` of
    `layer`; count(args, kwargs, result) -> dict adds counters."""

    module: str
    attr: str
    layer: str
    name: str
    count: object = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._stack: list[int] = []
        self._patched: list = []
        self.job = None

    def _span(self, fn, args, kwargs, name, layer, count=None):
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        result = None
        done = False
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            done = True
            return result
        finally:
            end = time.perf_counter()
            self._stack.pop()
            counts = count(args, kwargs, result) if done and count else {}
            self.spans.append(Span(sid, name, layer, start, end, parent, self.job, counts))

    def wrap(self, fn, name: str, layer: str, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._span(fn, args, kwargs, name, layer, count)

        return traced

    def run_job(self, job, fn, *args, **kwargs):
        """Call fn as job `job` under a root span of layer 'bench'."""
        self.job = job
        try:
            return self._span(fn, args, kwargs, "job", "bench")
        finally:
            self.job = None

    def install(self, targets):
        for t in targets:
            mod = importlib.import_module(t.module)
            orig = getattr(mod, t.attr)
            setattr(mod, t.attr, self.wrap(orig, t.name, t.layer, t.count))
            self._patched.append((mod, t.attr, orig))

    def uninstall(self) -> bool:
        """Restore every wrapped attribute; True when all are originals."""
        restored = []
        while self._patched:
            mod, attr, orig = self._patched.pop()
            setattr(mod, attr, orig)
            restored.append((mod, attr, orig))
        return all(getattr(mod, attr) is orig for mod, attr, orig in restored)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s), default=str) + "\n")


def self_times(spans) -> dict:
    """{span id: duration minus the durations of its direct children}."""
    child_time: dict = {}
    for s in spans:
        child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration
    return {s.id: s.duration - child_time.get(s.id, 0.0) for s in spans}


def outermost(spans, layer: str):
    """Spans of `layer` whose ancestors are all outside that layer, so
    their durations add up without double counting nested calls."""
    by_id = {s.id: s for s in spans}
    out = []
    for s in spans:
        if s.layer != layer:
            continue
        p = by_id.get(s.parent)
        while p is not None and p.layer != layer:
            p = by_id.get(p.parent)
        if p is None:
            out.append(s)
    return out
