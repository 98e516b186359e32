"""Span tracer for the traced benchmark run.

Wrappers are installed from this file only, at the attribute the caller
actually looks up (for example ``avloc.pipeline.score_proposals``, not the
copy in ``avloc.inference``), and removed again after each traced unit, so
untraced units run the program's own functions. Spans are kept in memory
as parallel columns and written out once, at the end of the run.

A span records its name, start, end, parent span and the traced unit
(one train() call, one inference pass, one set-up round) it belongs to;
every span of a run shares the run id. Self time is a span's duration
minus the time its child spans cover; the part of a unit's wall time that
no span covers is reported as ``(uncovered)``.
"""

from __future__ import annotations

import contextlib
import gzip
import json
import time
from array import array
from collections import defaultdict
from pathlib import Path

# Nearest ancestor spans that define the denominators of per-clip counts.
CONTEXTS = ("train.clip_losses", "pipeline.predict_clip")


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self._name_context: list[int] = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.unit = array("i")
        self.context = array("i")  # index into CONTEXTS, -1 for none
        self.out_bytes = array("q")  # op spans: bytes of the output array
        self.tracked = array("b")  # op spans: 1 if the output recorded a graph
        self.counters: dict[str, float] = defaultdict(float)
        self.unit_wall: list[float] = []
        self._stack: list[int] = []
        self._targets: list[tuple[object, str, object]] = []
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- targets ---------------------------------------------------------

    def add_target(self, owner, attr: str, span: str, on_result=None) -> None:
        """Wrap `owner.attr` as span `span` while a unit is traced.

        `on_result(tracer, span_index, args, result)` runs after the span closes.
        """
        name_id = self._intern(span)
        self._register(owner, attr, lambda original: self._span_wrapper(
            original, name_id, on_result))

    def add_counter(self, owner, attr: str, counter: str) -> None:
        """Count calls of `owner.attr` without a span (for helpers too hot for spans)."""
        def factory(original):
            def counting(*args, **kwargs):
                self.counters[counter] += 1
                return original(*args, **kwargs)
            return counting
        self._register(owner, attr, factory)

    def _register(self, owner, attr: str, factory) -> None:
        if hasattr(owner, attr):
            self._targets.append((owner, attr, factory))
        else:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")

    def _span_wrapper(self, original, name_id: int, on_result):
        def wrapper(*args, **kwargs):
            idx = self._open(name_id)
            try:
                result = original(*args, **kwargs)
            finally:
                self.end[idx] = time.perf_counter()
                self._stack.pop()
            if on_result is not None:
                on_result(self, idx, args, result)
            return result
        return wrapper

    def _intern(self, span: str) -> int:
        if span not in self.name_ids:
            self.name_ids[span] = len(self.names)
            self.names.append(span)
            self._name_context.append(CONTEXTS.index(span) if span in CONTEXTS else -1)
        return self.name_ids[span]

    def _open(self, name_id: int) -> int:
        idx = len(self.name)
        parent = self._stack[-1] if self._stack else -1
        ctx = self._name_context[name_id]
        if ctx < 0 and parent >= 0:
            ctx = self.context[parent]
        self.name.append(name_id)
        self.parent.append(parent)
        self.unit.append(len(self.unit_wall))
        self.context.append(ctx)
        self.out_bytes.append(0)
        self.tracked.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    # -- traced units ----------------------------------------------------

    @contextlib.contextmanager
    def traced(self):
        """Install the wrappers and record the unit's wall time for the body."""
        for owner, attr, factory in self._targets:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, factory(original))
        t0 = time.perf_counter()
        try:
            yield self
        finally:
            self.unit_wall.append(time.perf_counter() - t0)
            for owner, attr, original in reversed(self._saved):
                setattr(owner, attr, original)
            self._saved.clear()

    # -- summaries -------------------------------------------------------

    def self_times(self) -> dict[str, list[float]]:
        """Per span name: [calls, total inclusive seconds, total self seconds]."""
        child = [0.0] * len(self.name)
        for i in range(len(self.name)):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        table: dict[str, list[float]] = {}
        for i in range(len(self.name)):
            row = table.setdefault(self.names[self.name[i]], [0, 0.0, 0.0])
            dur = self.end[i] - self.start[i]
            row[0] += 1
            row[1] += dur
            row[2] += dur - child[i]
        return table

    def accounting(self, table: dict[str, list[float]]) -> dict:
        """Self time per span name, from `self_times`, plus the wall time no span covers."""
        top = sum(self.end[i] - self.start[i] for i in range(len(self.name)) if self.parent[i] < 0)
        wall = sum(self.unit_wall)
        rows = {name: row[2] for name, row in table.items()}
        rows["(uncovered)"] = wall - top
        return {"wall_s": wall, "self_s": rows, "sum_s": sum(rows.values())}

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "run_id": self.run_id,
            **header,
            "names": self.names,
            "columns": ["name", "start", "end", "parent", "unit"],
            "spans": {
                "name": self.name.tolist(),
                "start": self.start.tolist(),
                "end": self.end.tolist(),
                "parent": self.parent.tolist(),
                "unit": self.unit.tolist(),
            },
            "unit_wall_s": self.unit_wall,
            "counters": dict(self.counters),
            "missing_targets": self.missing,
        }
        with gzip.open(path, "wt") as fh:
            json.dump(payload, fh)

