"""Spans around the calls the benchmark makes into each layer.

Nothing inside ``src/`` is instrumented.  For the traced pass,
:func:`instrument` rebinds the public functions each layer exposes, at
the place their callers look them up (the scheduler module's imported
names, the ``Network`` and ``ResultCache`` methods, the scheduler's
executor factory), to wrappers that record a span per call, and restores
the originals on exit.  Spans carry an id and their parent's id; a span
started on an executor thread takes the submitting span as its parent.

A span's *self time* is its duration minus the part of it that its
child spans cover.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

import repro.sched.scheduler as scheduler_module
from repro.exec import KernelExecutor
from repro.nn.network import Network
from repro.sched import Scheduler
from repro.sched.cache import ResultCache


@dataclass
class Span:
    name: str
    start: float
    end: float
    tid: int
    id: int
    parent: int | None
    args: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Keeps spans in memory until the benchmark writes them out."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def span(self, name: str, parent: int | None = None, **args):
        """Record one span; the body may add entries to the yielded args."""
        stack = self._stack()
        with self._lock:
            span_id = next(self._ids)
        if parent is None:
            parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield args
        finally:
            end = time.perf_counter()
            stack.pop()
            span = Span(
                name, start, end, threading.get_ident(), span_id, parent, args
            )
            with self._lock:
                self.spans.append(span)

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the union of its children's extents."""
        children: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        result = {}
        for span in self.spans:
            covered, reach = 0.0, span.start
            kids = sorted(children.get(span.id, []), key=lambda s: s.start)
            for kid in kids:
                lo, hi = max(kid.start, reach), min(kid.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            result[span.id] = span.duration - covered
        return result


def _rows(x) -> int:
    x = np.asarray(x)
    return int(x.shape[0]) if x.ndim > 1 else 1


def _domain_kind(domain) -> str:
    return "powerset" if domain.disjuncts > 1 else domain.base


class _TracedExecutor(KernelExecutor):
    """Delegates to a real executor, timing each call where it runs."""

    def __init__(self, inner: KernelExecutor, recorder: Recorder) -> None:
        self.inner = inner
        self.recorder = recorder
        self.name = inner.name
        self.workers = inner.workers

    def submit(self, fn, /, *args, **kwargs):
        recorder = self.recorder
        parent = recorder.current()
        submitted = time.perf_counter()

        @functools.wraps(fn)
        def call(*call_args, **call_kwargs):
            wait = time.perf_counter() - submitted
            with recorder.span("exec.call", parent=parent, wait_s=wait):
                return fn(*call_args, **call_kwargs)

        return self.inner.submit(call, *args, **kwargs)

    def wait_any(self, futures):
        return self.inner.wait_any(futures)

    def shutdown(self, cancel_pending: bool = False) -> None:
        self.inner.shutdown(cancel_pending=cancel_pending)


def _wrap(recorder: Recorder, name: str, fn, before=None, after=None):
    """``fn`` inside a span; ``before``/``after`` fill the span's args."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with recorder.span(name) as span_args:
            if before is not None:
                before(span_args, args, kwargs)
            result = fn(*args, **kwargs)
            if after is not None:
                after(span_args, args, result)
            return result

    return wrapper


def _probes(recorder: Recorder, delta: float) -> list[tuple[object, str, object]]:
    """``(owner, attribute, replacement)`` for every probed call site."""
    s = scheduler_module

    def forward_rows(span_args, args, kwargs):
        span_args["rows"] = _rows(args[1])

    def backward_rows(span_args, args, kwargs):
        span_args["rows"] = _rows(args[2])

    def pgd_after(span_args, args, result):
        span_args["rows"] = len(args[1])
        span_args["falsified"] = int(np.sum(np.asarray(result[1]) <= delta))

    def analyze_before(span_args, args, kwargs):
        span_args["rows"] = len(args[1])
        span_args["domain"] = _domain_kind(args[3])

    def analyze_after(span_args, args, result):
        span_args["verified"] = sum(1 for r in result if r.verified)

    def checkpointed_after(span_args, args, result):
        analyze_after(span_args, args, result[0])

    def hit_after(span_args, args, result):
        span_args["hit"] = result is not None

    def make_executor(*args, **kwargs):
        executor, owned = original_make_executor(*args, **kwargs)
        return _TracedExecutor(executor, recorder), owned

    original_make_executor = s.make_executor
    return [
        (Network, "forward", _wrap(recorder, "nn.forward", Network.forward, forward_rows)),
        (Network, "forward_cached", _wrap(
            recorder, "nn.forward", Network.forward_cached, forward_rows)),
        (Network, "backward_input", _wrap(
            recorder, "nn.backward", Network.backward_input, backward_rows)),
        (s, "pgd_minimize_batch", _wrap(
            recorder, "attack.pgd", s.pgd_minimize_batch, after=pgd_after)),
        (s, "analyze_batch_multi", _wrap(
            recorder, "abstract.analyze", s.analyze_batch_multi,
            analyze_before, analyze_after)),
        (s, "analyze_batch_checkpointed", _wrap(
            recorder, "abstract.analyze", s.analyze_batch_checkpointed,
            analyze_before, checkpointed_after)),
        (s, "choose_domains", _wrap(recorder, "core.policy", s.choose_domains)),
        (s, "refine_unverified", _wrap(recorder, "core.refine", s.refine_unverified)),
        (s, "first_falsified", _wrap(recorder, "core.first_falsified", s.first_falsified)),
        (Scheduler, "run", _wrap(recorder, "sched.run", Scheduler.run)),
        (ResultCache, "get", _wrap(
            recorder, "sched.cache.get", ResultCache.get, after=hit_after)),
        (ResultCache, "put", _wrap(recorder, "sched.cache.put", ResultCache.put)),
        (ResultCache, "get_prefix", _wrap(
            recorder, "sched.prefix.get", ResultCache.get_prefix, after=hit_after)),
        (ResultCache, "put_prefix", _wrap(
            recorder, "sched.prefix.put", ResultCache.put_prefix)),
        (s, "make_executor", make_executor),
    ]


@contextmanager
def instrument(recorder: Recorder, delta: float):
    """Probe every layer for the duration of the ``with`` body.

    ``delta`` is the verifier's δ: PGD rows whose minimum reaches it
    count as falsifying rows.
    """
    probes = _probes(recorder, delta)
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in probes]
    try:
        for owner, attr, replacement in probes:
            setattr(owner, attr, replacement)
        yield recorder
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


def chrome_trace(recorder: Recorder, counters: dict) -> dict:
    """The spans as the Chrome trace-event payload ``repro stats`` reads."""
    origin = min((span.start for span in recorder.spans), default=0.0)
    events = []
    for span in sorted(recorder.spans, key=lambda s: s.start):
        args = {"id": span.id, "parent": span.parent}
        args.update(span.args)
        events.append({
            "name": span.name,
            "cat": span.name.split(".", 1)[0],
            "ph": "X",
            "ts": int((span.start - origin) * 1e6),
            "dur": int(span.duration * 1e6),
            "pid": 0,
            "tid": span.tid,
            "args": args,
        })
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"tool": "perfbench", "metrics": {"counters": counters}},
    }
