"""In-memory span tracer that wraps embreg's public functions from outside.

A span records its id, name, start, end, parent span id and cell id. Spans
are kept in a list while the workload runs and written out when it ends.
Wrappers are installed on the name a caller looks up, so a function imported
into another module (``experiments.train_and_evaluate``) is wrapped in that
module, and a method is wrapped on its class. Parents are tracked per thread.
A span opened in a thread with no open span of its own (a pool thread) takes
the outermost open span of the process as its parent, so the time a runner
waits on its pool is covered by the cells it waits for.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import Counter, defaultdict

#: Index of each field in a span tuple.
SID, NAME, START, END, PARENT, CELL = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._count_lock = threading.Lock()
        self._patches: list[tuple] = []
        self._root = 0

    def count(self, key: str, n: float = 1) -> None:
        with self._count_lock:
            self.counts[key] += n

    def wrap(self, owner, attr: str, name, *, after=None, opens_cell=False) -> None:
        """Replace ``owner.attr`` with a wrapper that records one span per call.

        ``name`` is a span name, or a function of the call's arguments that
        returns one. ``after(args, result)`` runs once the call has returned,
        to record counts. A span that ``opens_cell`` gives its own id as the
        cell id of every span nested in it.
        """
        original = getattr(owner, attr)
        local, ids, spans = self._local, self._ids, self.spans
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            sid = next(ids)
            parent = stack[-1] if stack else tracer._root
            is_root = parent == 0
            if is_root:
                tracer._root = sid
            outer_cell = local.__dict__.get("cell", 0)
            cell = sid if opens_cell else outer_cell
            local.cell = cell
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                local.cell = outer_cell
                if is_root:
                    tracer._root = 0
                label = name(*args, **kwargs) if callable(name) else name
                spans.append((sid, label, start, end, parent, cell))
            if after is not None:
                after(args, result)
            return result

        self._install(owner, attr, original, wrapper)

    def wrap_count(self, owner, attr: str, after) -> None:
        """Replace ``owner.attr`` with a wrapper that only records counts.

        For calls too small and frequent to be worth a span of their own,
        such as cache lookups.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            after(args, result)
            return result

        self._install(owner, attr, original, wrapper)

    def _install(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


def union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by a set of possibly overlapping intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover.

    Child intervals are clipped to the parent's, so a child that outlives its
    parent (it cannot in one thread, but clocks are read separately) never
    makes a self time negative.
    """
    by_id = {s[SID]: s for s in spans}
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        parent = by_id.get(s[PARENT])
        if parent is not None:
            children[s[PARENT]].append(
                (max(s[START], parent[START]), min(s[END], parent[END]))
            )
    return {
        sid: (s[END] - s[START]) - union_length([c for c in children[sid] if c[1] > c[0]])
        for sid, s in by_id.items()
    }


def totals_by_name(spans: list[tuple]) -> dict[str, tuple[int, float, float]]:
    """Per span name: (calls, total duration, total self time)."""
    selfs = self_times(spans)
    out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
    for s in spans:
        entry = out[s[NAME]]
        entry[0] += 1
        entry[1] += s[END] - s[START]
        entry[2] += selfs[s[SID]]
    return {name: tuple(v) for name, v in out.items()}
