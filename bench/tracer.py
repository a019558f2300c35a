"""Span tracer for the benchmark's traced run.

The tracer wraps functions in place (module attributes and class
methods), so the program under test needs no hooks of its own.  Each
call becomes one span: id, parent id, name, task id, start, end and an
optional work count (for example grid steps).  Spans go into a
per-thread int64 buffer, so concurrent threads never share a
read-modify-write, and every thread keeps its own span stack.  Work
submitted to a patched ThreadPoolExecutor inherits the submitting
thread's innermost span as its parent.

Self time attributes every instant of wall time exactly once: at each
instant the running threads share it equally, and inside a thread it
goes to the innermost open span.  A thread counts as waiting, not
running, while spans it fanned out to other threads are open.  Self
times are therefore non-negative and sum to the union of the top-level
spans, which is the traced wall time.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
import types
from array import array
from typing import Callable, Iterable, Optional

import numpy as np

NO_PARENT = -1
FIELDS = ("id", "parent", "name", "task", "start", "end", "work")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.task = NO_PARENT
        self._name_ids: dict[str, int] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._buffers: list[array] = []
        self._buffers_lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self._t0 = time.perf_counter_ns()

    # ------------------------------------------------------------ recording

    def _thread_state(self) -> tuple[list[int], array]:
        loc = self._local
        try:
            return loc.stack, loc.buf
        except AttributeError:
            loc.stack, loc.buf = [], array("q")
            with self._buffers_lock:
                self._buffers.append(loc.buf)
            return loc.stack, loc.buf

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn: Callable, name: str,
             work: Optional[Callable[[object], int]] = None) -> Callable:
        """Traced version of fn; work(result) gives the span's work count."""
        nid = self._name_id(name)
        next_id, clock, state, tracer = self._ids.__next__, time.perf_counter_ns, \
            self._thread_state, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, buf = state()
            sid = next_id()
            parent = stack[-1] if stack else NO_PARENT
            stack.append(sid)
            start = clock()
            count = 0
            try:
                result = fn(*args, **kwargs)
                if work is not None:
                    count = work(result)
                return result
            finally:
                end = clock()
                stack.pop()
                buf.extend((sid, parent, nid, tracer.task, start, end, count))

        return traced

    def adopt(self, fn: Callable) -> Callable:
        """fn run in another thread, parented on the caller's open span."""
        stack, _ = self._thread_state()
        parent = stack[-1] if stack else NO_PARENT

        def run(*args, **kwargs):
            worker_stack, _ = self._thread_state()
            worker_stack.append(parent)
            try:
                return fn(*args, **kwargs)
            finally:
                worker_stack.pop()

        return run

    def executor_class(self, base: type) -> type:
        tracer = self

        class TracedExecutor(base):
            def submit(self, fn, /, *args, **kwargs):
                return super().submit(tracer.adopt(fn), *args, **kwargs)

        return TracedExecutor

    # -------------------------------------------------------------- patching

    def patch(self, owner: object, attr: str, new: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def rebind(self, namespaces: Iterable[types.ModuleType],
               replacements: dict) -> None:
        """Replace every binding of an original object in the namespaces.

        Catches names bound with `from ... import`, which a patch of the
        defining module alone would miss.  replacements is keyed by id().
        """
        for mod in namespaces:
            for attr, value in list(vars(mod).items()):
                new = replacements.get(id(value))
                if new is not None and new[0] is value:
                    self.patch(mod, attr, new[1])

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------- analysis

    def spans(self) -> dict[str, np.ndarray]:
        """All closed spans as columns, ordered by id, times in ns from start."""
        with self._buffers_lock:
            parts = [np.frombuffer(b, dtype=np.int64).reshape(-1, len(FIELDS))
                     for b in self._buffers]
        rows = np.concatenate([np.empty((0, len(FIELDS)), np.int64), *parts])
        thread = np.concatenate([np.empty(0, np.int64)]
                                + [np.full(len(p), k) for k, p in enumerate(parts)])
        order = np.argsort(rows[:, 0], kind="stable")
        out = {f: rows[order, i] for i, f in enumerate(FIELDS)}
        out["thread"] = thread[order]
        out["start"] = out["start"] - self._t0
        out["end"] = out["end"] - self._t0
        return out


def _cover_count(starts: np.ndarray, ends: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Number of intervals [s, e) containing each x."""
    return (np.searchsorted(np.sort(starts), x, side="right")
            - np.searchsorted(np.sort(ends), x, side="right"))


def parent_index(spans: dict[str, np.ndarray]) -> np.ndarray:
    """Row of each span's parent, or -1."""
    ids, parent = spans["id"], spans["parent"]
    if len(ids) == 0:
        return np.empty(0, dtype=np.int64)
    pos = np.minimum(np.searchsorted(ids, parent), len(ids) - 1)
    return np.where(ids[pos] == parent, pos, -1)


def self_times(spans: dict[str, np.ndarray]) -> np.ndarray:
    """Self time (ns) of every span, as described in the module docstring."""
    n = len(spans["id"])
    if n == 0:
        return np.zeros(0)
    start = spans["start"].astype(float)
    end = spans["end"].astype(float)
    thread = spans["thread"]
    ppos = parent_index(spans)
    has_parent = ppos >= 0
    parent_thread = np.where(has_parent, thread[np.maximum(ppos, 0)], -1)
    cross = has_parent & (parent_thread != thread)
    top = ~has_parent | cross

    bounds = np.unique(np.concatenate([start[top], end[top]]))
    mids = 0.5 * (bounds[:-1] + bounds[1:])
    threads = np.unique(thread)
    running = np.empty((len(threads), len(mids)), dtype=bool)
    for k, j in enumerate(threads):
        mine = top & (thread == j)
        waits = cross & (parent_thread == j)
        running[k] = ((_cover_count(start[mine], end[mine], mids) > 0)
                      & (_cover_count(start[waits], end[waits], mids) == 0))
    n_running = running.sum(axis=0)
    share = np.where(n_running > 0, 1.0 / np.maximum(n_running, 1), 0.0)
    seg = np.diff(bounds)

    inclusive = np.empty(n)
    for k, j in enumerate(threads):
        cum = np.concatenate([[0.0], np.cumsum(running[k] * share * seg)])
        rows = thread == j
        inclusive[rows] = (np.interp(end[rows], bounds, cum)
                           - np.interp(start[rows], bounds, cum))
    same_thread_child = has_parent & ~cross
    children = np.bincount(ppos[same_thread_child],
                           weights=inclusive[same_thread_child], minlength=n)
    # Nested intervals make this exact up to float rounding (< 1 ns).
    return np.maximum(inclusive - children, 0.0)
