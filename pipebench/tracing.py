"""Spans recorded from the benchmark side of each public library call.

A span is ``[name, start, end, parent, query]``: ``parent`` is the index
of the enclosing span (-1 for a root) and ``query`` the id of the query
it belongs to (``"setup"`` during set-up).  Spans stay in memory until
the run ends; :func:`layer_times` turns them into busy and self times.
"""

from __future__ import annotations

import json
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter

_NULL = nullcontext()


class NullTracer:
    """Tracer used for end-to-end runs: every span is a no-op."""

    def span(self, name: str):
        return _NULL


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.query: str | int | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.query]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        try:
            yield
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for name, start, end, parent, query in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end,
                         "parent": parent, "query": query}
                    )
                    + "\n"
                )


def layer_times(spans: list[list], n_queries: int) -> tuple[dict[str, float], float]:
    """Busy seconds per span name and the mean self time of ``query`` spans.

    Busy time of a name is the summed duration of its spans: per traced
    query for spans recorded inside queries, per set-up for spans
    recorded during set-up.  A ``query`` span's self time is its duration
    minus what its direct children cover (glue and file I/O).
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    busy: dict[str, float] = {}
    query_self = 0.0
    for i, (name, start, end, _, query) in enumerate(spans):
        if name == "query":
            query_self += end - start - child_time[i]
            continue
        share = (end - start) if query == "setup" else (end - start) / n_queries
        busy[name] = busy.get(name, 0.0) + share
    return busy, query_self / n_queries
