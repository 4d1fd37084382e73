"""In-memory span recorder for the traced benchmark run.

A span is ``[name, start, end, parent, op]``: ``start`` and ``end`` are
``perf_counter`` seconds, ``parent`` is the index of the enclosing span in
``Tracer.spans`` (None at the root) and ``op`` the id of the op it belongs to
(None for set-up and end-of-run work).  Spans stay in memory until the run
ends, when the benchmark writes them out with its results.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from time import perf_counter

_NO_SPAN = nullcontext()


class NullTracer:
    """Records nothing; the untraced run uses it so both runs share one code path."""

    def span(self, name):
        return _NO_SPAN

    def op(self):
        return nullcontext(None)


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []
        self._op_id = None
        self._next_op = 0

    @contextmanager
    def span(self, name):
        record = [name, perf_counter(), None, self._open[-1] if self._open else None,
                  self._op_id]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._open.pop()

    @contextmanager
    def op(self):
        """Root span ``op`` of a new op; yields its id."""
        with self._root("op", self._next_op) as op_id:
            self._next_op += 1
            yield op_id

    def probe(self, op_id):
        """Root span ``probe`` for the layer probes made after op ``op_id``."""
        return self._root("probe", op_id)

    @contextmanager
    def _root(self, name, op_id):
        self._op_id = op_id
        try:
            with self.span(name):
                yield op_id
        finally:
            self._op_id = None

    def durations(self, name) -> list:
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def as_dicts(self) -> list:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "op": o}
            for n, s, e, p, o in self.spans
        ]


NULL_TRACER = NullTracer()
