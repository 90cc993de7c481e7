"""In-memory span tracer that wraps a module's functions from outside.

The benchmark traces the program without editing it: :meth:`Tracer.patched`
replaces names in a module namespace with timing wrappers for the
duration of a ``with`` block and restores them afterwards.  Each call
becomes a :class:`Span`; spans stay in memory until :func:`write_spans`.
"""

from __future__ import annotations

import csv
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    """One timed call: name, start and end (seconds), parent and record key."""

    id: int
    parent: int | None
    name: str
    start: float
    end: float = float("nan")
    key: str = ""
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Target:
    """A function to wrap: ``module.attr`` recorded as span ``name``.

    ``on_result(span, result)`` may copy counts out of the return value
    into ``span.info``.  ``job_key(args)`` marks the call that starts a
    new record key (a sweep job); ``starts_step`` marks the call that
    begins each time step inside a job.
    """

    module: object
    attr: str
    name: str
    on_result: object = None
    job_key: object = None
    starts_step: bool = False


class Tracer:
    """Collects spans from one thread; nesting follows the call stack."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._job = ""
        self._step = -1

    def _key(self) -> str:
        return f"{self._job}/t{self._step}" if self._step >= 0 else self._job

    @contextmanager
    def span(self, name: str):
        """Record the enclosed block as a span and yield it."""
        parent = self._stack[-1].id if self._stack else None
        sp = Span(id=len(self.spans), parent=parent, name=name,
                  start=self.clock(), key=self._key())
        self.spans.append(sp)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = self.clock()
            self._stack.pop()

    def wrap(self, fn, target: Target):
        """Return ``fn`` wrapped so that each call records a span."""

        def traced(*args, **kwargs):
            if target.job_key is not None:
                self._job, self._step = target.job_key(args), -1
            if target.starts_step:
                self._step += 1
            with self.span(target.name) as sp:
                result = fn(*args, **kwargs)
                if target.on_result is not None:
                    target.on_result(sp, result)
            return result

        return traced

    @contextmanager
    def patched(self, targets):
        """Install wrappers for ``targets`` and restore the originals on exit."""
        originals = []
        try:
            for target in targets:
                fn = getattr(target.module, target.attr)
                originals.append((target.module, target.attr, fn))
                setattr(target.module, target.attr, self.wrap(fn, target))
            yield self
        finally:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)


def self_times(spans) -> dict[int, float]:
    """Self time of every span: its duration minus its children's durations."""
    out = {sp.id: sp.duration for sp in spans}
    for sp in spans:
        if sp.parent is not None:
            out[sp.parent] -= sp.duration
    return out


def descendants(spans, root_id: int) -> list[Span]:
    """The span ``root_id`` and every span below it."""
    ids = {root_id}
    out = []
    for sp in spans:  # parents are always recorded before their children
        if sp.id == root_id or sp.parent in ids:
            ids.add(sp.id)
            out.append(sp)
    return out


def write_spans(path, spans) -> None:
    """Write spans as CSV: id, parent, name, start, end, key."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", "parent", "name", "start_s", "end_s", "key"])
        for sp in spans:
            parent = "" if sp.parent is None else sp.parent
            writer.writerow([sp.id, parent, sp.name, repr(sp.start), repr(sp.end), sp.key])
