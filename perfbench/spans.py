"""Span recorder for the benchmark's traced runs (stdlib only).

The benchmark times the program's layers from outside: it replaces
public methods with thin wrappers that record one span per call.  Each
span keeps its name, start and end (``time.perf_counter_ns``, which is
``CLOCK_MONOTONIC`` on Linux and so comparable across processes), the
span that was open on the same thread when it started (its parent), the
process and thread, and the request id the thread is serving.

Wrappers are installed before ``ServingPool`` forks, so the serving
worker inherits them.  A forked child starts with an empty span list and
writes its spans to ``<directory>/spans-<pid>.jsonl`` when it exits,
through a ``multiprocessing.util.Finalize`` (``atexit`` hooks do not run
in forked children).  This recorder deliberately does not use
``repro.obs``: a change to the program's own instruments cannot change
how the benchmark measures.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import threading
import time
from multiprocessing import util
from pathlib import Path

# One span: (id, parent, name, start_ns, end_ns, pid, tid, rid).
ID, PARENT, NAME, START, END, PID, TID, RID = range(8)


class SpanRecorder:
    """Records spans around wrapped callables; see the module docstring."""

    def __init__(self, directory):
        self.directory = Path(directory)
        self._patches: list[tuple[object, str, object]] = []
        self._reset()
        util.register_after_fork(self, SpanRecorder._after_fork)

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _after_fork(self) -> None:
        # Runs in a child started by multiprocessing: spans recorded by
        # the parent before the fork belong to the parent.
        self._reset()
        util.Finalize(None, self.flush, exitpriority=100)

    # -- recording ---------------------------------------------------------
    @property
    def request_id(self):
        return getattr(self._local, "rid", None)

    @request_id.setter
    def request_id(self, rid) -> None:
        self._local.rid = rid

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> list:
        stack = self._stack()
        span = [
            next(self._ids),
            stack[-1][ID] if stack else None,
            name,
            time.perf_counter_ns(),
            0,
            self.pid,
            threading.get_ident(),
            self.request_id,
        ]
        stack.append(span)
        return span

    def close(self, span: list) -> None:
        span[END] = time.perf_counter_ns()
        self._stack().pop()
        self.spans.append(tuple(span))

    # -- wrapping public callables -------------------------------------------
    def wrap(self, owner, attribute: str, name: str) -> None:
        """Replace ``owner.attribute`` with a span-recording wrapper.

        Static methods stay static; generator functions get one span per
        ``next()`` (the time spent producing an item).
        """
        raw = inspect.getattr_static(owner, attribute)
        original = getattr(owner, attribute)
        recorder = self
        if inspect.isgeneratorfunction(original):

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                iterator = original(*args, **kwargs)
                while True:
                    span = recorder.open(name)
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        recorder.close(span)
                    yield item

        else:

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                span = recorder.open(name)
                try:
                    return original(*args, **kwargs)
                finally:
                    recorder.close(span)

        replacement = staticmethod(wrapper) if isinstance(raw, staticmethod) else wrapper
        self.patch(owner, attribute, replacement)

    def patch(self, owner, attribute: str, replacement) -> None:
        """Set ``owner.attribute``; :meth:`unwrap_all` puts it back."""
        self._patches.append((owner, attribute, inspect.getattr_static(owner, attribute)))
        setattr(owner, attribute, replacement)

    def unwrap_all(self) -> None:
        """Restore every wrapped attribute (newest first)."""
        while self._patches:
            owner, attribute, raw = self._patches.pop()
            setattr(owner, attribute, raw)

    # -- output ----------------------------------------------------------------
    def flush(self) -> None:
        """Write this process's spans next to the other processes' files."""
        if not self.spans:
            return
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.directory / f"spans-{self.pid}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
        self.spans = []

    def collect(self) -> list[tuple]:
        """This process's spans plus every flushed child's spans."""
        spans = list(self.spans)
        for path in sorted(self.directory.glob("spans-*.jsonl")):
            with open(path, encoding="utf-8") as handle:
                spans.extend(tuple(json.loads(line)) for line in handle)
        return spans


def self_times(spans) -> dict[tuple, float]:
    """Self time (ns) of every span: its duration minus its children's.

    Children run on the parent's thread, so they never overlap; each is
    clipped to the parent's interval.
    """
    by_key = {(span[PID], span[ID]): span for span in spans}
    covered: dict[tuple, int] = {}
    for span in spans:
        if span[PARENT] is None:
            continue
        parent = by_key.get((span[PID], span[PARENT]))
        if parent is None:
            continue
        overlap = min(span[END], parent[END]) - max(span[START], parent[START])
        key = (parent[PID], parent[ID])
        covered[key] = covered.get(key, 0) + max(0, overlap)
    return {
        key: span[END] - span[START] - covered.get(key, 0)
        for key, span in by_key.items()
    }
