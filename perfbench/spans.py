"""In-memory spans recorded around the benchmark's calls into the program.

A span is ``(run id, name, start, end, parent)``: the run id is shared by
every span of one pass, ``parent`` is the index of the enclosing span
(``-1`` for the pass root).  Spans stay in memory while the pass runs and
are written out once, when the benchmark ends.  A span's *self time* is its
duration minus the part of it that its child spans cover.
"""

import gzip
import json
from collections import defaultdict
from time import perf_counter


class Tracer:
    """Spans of one pass.  ``open``/``close`` nest like a call stack."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self._stack = []

    def open(self, name):
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(perf_counter())
        return index

    def close(self):
        end = perf_counter()
        self.ends[self._stack.pop()] = end

    def duration(self, index):
        return self.ends[index] - self.starts[index]

    def self_times(self):
        """Per span, its duration minus the union of its children's intervals."""
        children = defaultdict(list)
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                children[parent].append((self.starts[index], self.ends[index]))
        result = []
        for index in range(len(self.names)):
            covered = 0.0
            reach = self.starts[index]
            for start, end in sorted(children.get(index, ())):
                start = max(start, reach)
                if end > start:
                    covered += end - start
                    reach = end
            result.append(self.duration(index) - covered)
        return result

    def totals(self):
        """``{span name: (summed self time, call count)}``."""
        seconds = defaultdict(float)
        calls = defaultdict(int)
        for name, own in zip(self.names, self.self_times()):
            seconds[name] += own
            calls[name] += 1
        return {name: (seconds[name], calls[name]) for name in seconds}

    def records(self):
        return [
            [self.run_id, name, start, end, parent]
            for name, start, end, parent in zip(self.names, self.starts, self.ends, self.parents)
        ]


def dump(path, header, tracers):
    """Write every pass's spans as one gzip-compressed JSON document."""
    document = dict(header)
    document["fields"] = ["run_id", "name", "start", "end", "parent"]
    document["spans"] = [record for tracer in tracers for record in tracer.records()]
    with gzip.open(path, "wt", compresslevel=1) as handle:
        json.dump(document, handle)
