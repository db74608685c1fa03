"""Span recorder and the wrappers the traced run installs around each layer.

Everything here lives in the benchmark, not in ``src/``: the traced run times
calls *into* each layer's public surface (a delegating communicator, wrapped
pipeline stages, patched class methods, a training callback) and never
changes what the program computes.  Untraced runs install none of it.

A span is ``(id, parent, name, start_ns, end_ns, op, rank, attrs)``; times
come from ``time.perf_counter_ns`` (CLOCK_MONOTONIC on Linux, so spans taken
in forked rank processes line up with the parent's).  Spans nest per thread:
the parent of a span is the innermost span open on the same thread.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import time
from collections import defaultdict
from collections.abc import Callable, Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any

from repro.parallel.comm import Communicator
from repro.train.callbacks import Callback

__all__ = [
    "Span", "Recorder", "TimedComm", "TimedStage", "TraceCallback",
    "Patches", "timed", "chrome_trace", "layer_summary", "interval_union_ns",
]


@dataclass
class Span:
    id: int
    parent: int
    name: str
    start_ns: int
    end_ns: int
    op: int
    rank: int
    attrs: dict = field(default_factory=dict)
    tid: int = 0  # OS thread id: one trace lane per recording thread

    @property
    def ms(self) -> float:
        return (self.end_ns - self.start_ns) / 1e6


def _thread_rank() -> int:
    """SPMD thread ranks are named ``spmd-rank-N``; anything else is rank 0."""
    name = threading.current_thread().name
    if name.startswith("spmd-rank-"):
        return int(name.rsplit("-", 1)[1])
    return 0


class Recorder:
    """In-memory span and counter store for one traced run.

    ``op`` is the id of the operation the (single, closed-loop) client is
    running; every span and count is stamped with it.  Forked rank
    processes record into their copy and hand ``spans``/``counts`` back
    through their SPMD return value (see :meth:`take`).
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: list[tuple[str, float, int, int]] = []
        self.op = -1
        self._ids = itertools.count(1)
        self._tls = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def _open_names(self) -> list[str]:
        names = getattr(self._tls, "names", None)
        if names is None:
            names = self._tls.names = []
        return names

    def set_rank(self, rank: int) -> None:
        """Pin this thread's rank (forked rank processes run on MainThread)."""
        self._tls.rank = rank

    def rank(self) -> int:
        rank = getattr(self._tls, "rank", None)
        return _thread_rank() if rank is None else rank

    def is_open(self, name: str) -> bool:
        return name in self._open_names()

    def _new_id(self) -> int:
        # pid-qualified so ids from forked ranks never collide
        return os.getpid() * 10_000_000 + next(self._ids)

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[dict]:
        """Record one span around the ``with`` body; the body may add attrs."""
        stack, names = self._stack(), self._open_names()
        sid = self._new_id()
        parent = stack[-1] if stack else 0
        stack.append(sid)
        names.append(name)
        start = time.perf_counter_ns()
        try:
            yield attrs
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            names.pop()
            self.spans.append(Span(sid, parent, name, start, end, self.op,
                                   self.rank(), attrs, threading.get_native_id()))

    def add_span(self, name: str, start_ns: int, end_ns: int, **attrs: Any) -> None:
        """Record a span measured elsewhere (e.g. launch latency)."""
        stack = self._stack()
        self.spans.append(Span(self._new_id(), stack[-1] if stack else 0, name,
                               start_ns, end_ns, self.op, self.rank(), attrs,
                               threading.get_native_id()))

    def count(self, name: str, value: float) -> None:
        self.counts.append((name, float(value), self.op, self.rank()))

    def take(self) -> tuple[list[Span], list[tuple[str, float, int, int]]]:
        """Hand back (and forget) everything recorded so far."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], []
        return spans, counts

    def absorb(self, spans: Sequence[Span], counts: Sequence[tuple]) -> None:
        self.spans.extend(spans)
        self.counts.extend(counts)


def timed(rec: Recorder, name: str, fn: Callable, after: Callable | None = None) -> Callable:
    """Wrap ``fn`` in a span named ``name``; re-entrant calls (a derived
    variable fetching its inputs, ``fit`` calling ``partial_fit``) are not
    double counted.  ``after(result, args, attrs)`` may add attrs."""

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if rec.is_open(name):
            return fn(*args, **kwargs)
        with rec.span(name) as attrs:
            out = fn(*args, **kwargs)
            if after is not None:
                after(out, args, attrs)
        return out

    return wrapper


class Patches:
    """Class-attribute patches, undone in reverse order by :meth:`undo`."""

    def __init__(self) -> None:
        self._undo: list[Callable[[], None]] = []

    def wrap_method(self, cls: type, attr: str, rec: Recorder, name: str,
                    after: Callable | None = None) -> None:
        had_own = attr in cls.__dict__
        own = cls.__dict__.get(attr)
        raw = _class_attr(cls, attr)
        if isinstance(raw, classmethod):
            new: Any = classmethod(timed(rec, name, raw.__func__, after))
        else:
            new = timed(rec, name, raw, after)
        setattr(cls, attr, new)

        def undo() -> None:
            if had_own:
                setattr(cls, attr, own)
            else:
                delattr(cls, attr)

        self._undo.append(undo)

    def undo(self) -> None:
        while self._undo:
            self._undo.pop()()


def _class_attr(cls: type, attr: str) -> Any:
    """The raw class attribute (a classmethod object stays one), searching
    the MRO."""
    for klass in cls.__mro__:
        if attr in klass.__dict__:
            return klass.__dict__[attr]
    raise AttributeError(f"{cls.__name__} has no attribute {attr!r}")


class TimedComm(Communicator):
    """A :class:`Communicator` that forwards every call to ``inner`` and
    records a ``parallel.<op>`` span with its wall time and the virtual
    (LogGP) time the inner clock advanced during the call."""

    def __init__(self, inner: Communicator, rec: Recorder) -> None:
        self._inner = inner
        self._rec = rec

    @property
    def rank(self) -> int:
        return self._inner.rank

    @property
    def size(self) -> int:
        return self._inner.size

    @property
    def clock(self):
        return self._inner.clock

    def _call(self, method: str, *args: Any, **kwargs: Any) -> Any:
        clock = self._inner.clock
        v0 = clock.t
        with self._rec.span(f"parallel.{method}") as attrs:
            out = getattr(self._inner, method)(*args, **kwargs)
            attrs["virtual_s"] = clock.t - v0
        return out

    def barrier(self) -> None:
        return self._call("barrier")

    def bcast(self, obj: Any, root: int = 0) -> Any:
        return self._call("bcast", obj, root=root)

    def scatter(self, chunks, root: int = 0) -> Any:
        return self._call("scatter", chunks, root=root)

    def gather(self, obj: Any, root: int = 0):
        return self._call("gather", obj, root=root)

    def allgather(self, obj: Any):
        return self._call("allgather", obj)

    def reduce(self, obj: Any, op: str = "sum", root: int = 0) -> Any:
        return self._call("reduce", obj, op=op, root=root)

    def allreduce(self, obj: Any, op: str = "sum") -> Any:
        return self._call("allreduce", obj, op=op)

    def alltoall(self, chunks):
        return self._call("alltoall", chunks)

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        return self._call("send", obj, dest, tag=tag)

    def recv(self, source: int, tag: int = 0) -> Any:
        return self._call("recv", source, tag=tag)

    def maybe_fail(self, **context: Any) -> None:
        return self._inner.maybe_fail(**context)

    def record_stats(self) -> None:
        """Count this rank's CommStats (collectives, bytes) for the op."""
        stats = self._inner.clock.stats
        self._rec.count("parallel.collectives", stats.collectives)
        self._rec.count("parallel.bytes_sent", stats.bytes_sent)


#: default pipeline stage name -> per-layer metric stem
STAGE_METRICS = {
    "cube-index": "sampling.cube_index",
    "phase1-summarize": "sampling.phase1",
    "cube-select": "sampling.select",
    "point-sample": "sampling.point_sample",
    "gather": "sampling.gather",
}


class TimedStage:
    """A pipeline stage wrapped in a ``sampling.<stage>`` span."""

    def __init__(self, stage: Any, rec: Recorder) -> None:
        self.stage = stage
        self.name = stage.name
        self._rec = rec
        self._span = STAGE_METRICS[stage.name]

    def run(self, ctx: Any) -> None:
        with self._rec.span(self._span):
            self.stage.run(ctx)


def _timed_batches(rec: Recorder, batches: Iterator) -> Iterator:
    """Yield from a feed's batch iterator, timing each wait as feed_wait."""
    it = iter(batches)
    while True:
        with rec.span("train.feed_wait"):
            try:
                item = next(it)
            except StopIteration:
                return
        yield item


class TraceCallback(Callback):
    """Times a :class:`~repro.train.loop.TrainLoop`'s step phases.

    At fit start it wraps the loop's instance attributes (forward, gradient
    sync, optimizer, eval) and its feed's batch iterator.  Backward is timed
    by the class patch on ``Tensor.backward`` the traced run installs.
    """

    def __init__(self, rec: Recorder) -> None:
        self.rec = rec

    def on_fit_start(self, loop) -> None:
        rec = self.rec
        loop._forward = timed(rec, "train.forward", loop._forward)
        loop.evaluate = timed(rec, "train.eval", loop.evaluate)
        opt = loop.optimizer

        def count_step(_out, _args, _attrs) -> None:
            rec.count("train.steps", 1)

        opt.step = timed(rec, "train.optimizer", opt.step, after=count_step)
        opt.zero_grad = timed(rec, "train.optimizer", opt.zero_grad)
        if loop.ddp is not None:
            loop.ddp.sync_gradients = timed(rec, "train.sync", loop.ddp.sync_gradients)
        feed = loop._feed
        inner = feed.train_batches
        feed.train_batches = lambda epoch: _timed_batches(rec, inner(epoch))


# ---- reporting -------------------------------------------------------------


def interval_union_ns(intervals: Sequence[tuple[int, int]]) -> int:
    """Total length covered by a set of [start, end) intervals."""
    total, cur_s, cur_e = 0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def chrome_trace(spans: Sequence[Span], meta: dict) -> dict:
    """Chrome Trace Event Format document (opens in Perfetto/chrome://tracing).

    One complete ("X") event per span: ``pid`` is the rank, ``tid`` the
    recording thread; ``args`` carries id, parent, op, rank and the start
    and end so the hierarchy survives any viewer.
    """
    t0 = min((s.start_ns for s in spans), default=0)
    events = []
    for s in spans:
        events.append({
            "name": s.name,
            "cat": s.name.split(".", 1)[0],
            "ph": "X",
            "ts": (s.start_ns - t0) / 1e3,
            "dur": (s.end_ns - s.start_ns) / 1e3,
            "pid": s.rank,
            "tid": s.tid,
            "args": {"id": s.id, "parent": s.parent, "op": s.op, "rank": s.rank,
                     "start_us": (s.start_ns - t0) / 1e3,
                     "end_us": (s.end_ns - t0) / 1e3, **s.attrs},
        })
    ranks = sorted({s.rank for s in spans})
    for r in ranks:
        events.append({"name": "process_name", "ph": "M", "pid": r, "tid": r,
                       "args": {"name": f"rank {r}"}})
    return {"traceEvents": events, "displayTimeUnit": "ms", "otherData": meta}


def layer_summary(spans: Sequence[Span]) -> dict[str, dict]:
    """Per span name: count, total and self time (ms), and per-call p50.

    Self time is a span's duration minus the part of it covered by its
    child spans.
    """
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent:
            children[s.parent].append(s)
    out: dict[str, dict] = {}
    per_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        per_name[s.name].append(s)
    for name, group in sorted(per_name.items()):
        total = sum(s.end_ns - s.start_ns for s in group)
        self_ns = 0
        for s in group:
            kids = [(max(c.start_ns, s.start_ns), min(c.end_ns, s.end_ns))
                    for c in children.get(s.id, ())]
            self_ns += (s.end_ns - s.start_ns) - interval_union_ns(
                [k for k in kids if k[1] > k[0]])
        durs = sorted(s.end_ns - s.start_ns for s in group)
        out[name] = {
            "count": len(group),
            "total_ms": total / 1e6,
            "self_ms": self_ns / 1e6,
            "p50_ms": durs[len(durs) // 2] / 1e6,
        }
    return out
