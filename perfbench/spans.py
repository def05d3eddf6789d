"""In-memory spans for the traced run.

One span per stage call: name, start, end, parent, and the id of the
statement it belongs to.  Spans are recorded from perfbench's own files,
around the calls into each layer; nothing is written until the run ends.
"""

from __future__ import annotations

import json
import time

perf_counter = time.perf_counter


class _Open:
    __slots__ = ("recorder", "index")

    def __init__(self, recorder, index):
        self.recorder = recorder
        self.index = index

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        recorder = self.recorder
        recorder.spans[self.index][2] = perf_counter()
        recorder._stack.pop()


class Recorder:
    def __init__(self):
        #: [name, start, end, parent index or None, statement id]
        self.spans = []
        self._stack = []
        self.statement = None

    def span(self, name: str) -> _Open:
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, parent, self.statement])
        self._stack.append(index)
        self.spans[index][1] = perf_counter()
        return _Open(self, index)

    def add(self, name: str, start: float, end: float, parent, statement):
        """A span timed elsewhere (the selector loop's round trips)."""
        self.spans.append([name, start, end, parent, statement])
        return len(self.spans) - 1

    def durations(self, name: str):
        return [end - start for n, start, end, __, __ in self.spans
                if n == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def self_times(self) -> dict:
        """Per span name: duration minus what its child spans cover."""
        covered = [0.0] * len(self.spans)
        for __, start, end, parent, __ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        totals = {}
        for (name, start, end, __, __), inside in zip(self.spans, covered):
            totals[name] = totals.get(name, 0.0) + (end - start) - inside
        return totals

    def coverage(self, root: str) -> float:
        """Share of the ``root`` spans' time that their children cover."""
        roots = {i for i, span in enumerate(self.spans) if span[0] == root}
        whole = sum(self.spans[i][2] - self.spans[i][1] for i in roots)
        inside = sum(end - start for __, start, end, parent, __ in self.spans
                     if parent in roots)
        return inside / whole if whole else 0.0

    def dump(self, path: str, extra: dict) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        document = dict(extra)
        document["self_time_s"] = self.self_times()
        document["spans"] = [
            {"name": name, "start_s": start - origin, "end_s": end - origin,
             "parent": parent, "statement": statement}
            for name, start, end, parent, statement in self.spans
        ]
        with open(path, "w") as handle:
            json.dump(document, handle)
