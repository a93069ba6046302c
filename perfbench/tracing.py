"""In-memory span recorder for the benchmark's traced replay.

A span is recorded around each call the replay makes into a ddwave layer:
name, start, end, parent span and frame id. Spans stay in memory until the
replay ends; ``write_jsonl`` then writes them out. Self time is a span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict

_NULL = contextlib.nullcontext()


class NullTracer:
    """Records nothing; the replay runs with it to measure the untraced wall time."""

    def span(self, name: str):
        return _NULL

    def frame_span(self, frame: int):
        return _NULL


class Tracer:
    def __init__(self):
        # [name, start, end, parent index or None, frame id or None]
        self.spans: list[list] = []
        self._open: list[int] = []
        self.frame: int | None = None

    @contextlib.contextmanager
    def span(self, name: str):
        rec = [name, 0.0, None, self._open[-1] if self._open else None, self.frame]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._open.pop()

    @contextlib.contextmanager
    def frame_span(self, frame: int):
        self.frame = frame
        try:
            with self.span("experiments.frame"):
                yield
        finally:
            self.frame = None

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, frame) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "frame": frame}) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            out[parent] -= end - start
    return out


def nesting_problems(spans: list[list]) -> list[str]:
    """Violations of: closed spans, children inside their parent and in its frame,
    siblings that do not overlap, and non-negative self times."""
    problems = [f"span {i} ({name}) not closed or ends before it starts"
                for i, (name, start, end, _, _) in enumerate(spans)
                if end is None or end < start]
    if problems:
        return problems
    last_child_end: dict = {}
    for i, (name, start, end, parent, frame) in enumerate(spans):
        if parent is None:
            continue
        p_name, p_start, p_end, _, p_frame = spans[parent]
        if parent >= i or start < p_start or end > p_end:
            problems.append(f"span {i} ({name}) lies outside its parent {parent} ({p_name})")
        if frame != p_frame:
            problems.append(f"span {i} ({name}) has frame {frame}, its parent {p_frame}")
        if start < last_child_end.get(parent, start):
            problems.append(f"span {i} ({name}) overlaps an earlier sibling")
        last_child_end[parent] = end
    problems += [f"span {i} ({spans[i][0]}) has negative self time {t:.3g} s"
                 for i, t in enumerate(self_times(spans)) if t < 0]
    return problems


def self_time_by_name(spans: list[list]) -> tuple[dict, dict]:
    """Total self time (s) and call count per span name."""
    total: dict = defaultdict(float)
    count: dict = defaultdict(int)
    for (name, *_), t in zip(spans, self_times(spans)):
        total[name] += t
        count[name] += 1
    return dict(total), dict(count)
