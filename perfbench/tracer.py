"""In-memory span tracer used by the benchmark's traced runs.

Library functions are wrapped at the attribute each caller resolves (a
module global or a class attribute).  Every call opens a span (name, start,
end, parent); closing it adds its duration to the enclosing span's child
time, so a span's self time is its duration minus what its children cover.
Named counters are bumped by per-wrapper hooks.  Nothing is written out
until the benchmark reads the totals at the end.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from statistics import median


class _Frame:
    __slots__ = ("name", "start", "child", "parent", "lock")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.child = 0.0
        self.parent = parent
        self.lock = None


class Tracer:
    """Spans and counters for one benchmark process.

    ``leaf=True`` on a wrapper is for functions that are called millions
    of times and call nothing traced, such as family scoring: their spans
    are added to totals and to the enclosing span's child time but are not
    stored one by one; their hooks take ``(args, kwargs)`` and run inside
    the span.  A worker thread's outermost span takes the main
    thread's innermost open span as parent, which is exact while a single
    worker runs at a time.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.active = False
        self.spans: list[tuple[str, float, float, str | None]] = []
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counters = defaultdict(float)
        self.absent: list[str] = []
        self.leaf_residual = 0.0
        self._local = threading.local()
        self._main_stack: list[_Frame] = []
        self._main_ident = threading.main_thread().ident
        self._cross_lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _stack(self) -> list[_Frame]:
        if threading.get_ident() == self._main_ident:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> _Frame:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif stack is not self._main_stack and self._main_stack:
            parent = self._main_stack[-1]
            parent.lock = self._cross_lock
        else:
            parent = None
        frame = _Frame(name, self.clock(), parent)
        stack.append(frame)
        return frame

    def close(self, frame: _Frame) -> float:
        end = self.clock()
        stack = self._stack()
        stack.pop()
        duration = end - frame.start
        self.calls[frame.name] += 1
        self.total[frame.name] += duration
        self.self_time[frame.name] += duration - frame.child
        parent = frame.parent
        if parent is not None:
            if parent.lock is not None:
                with parent.lock:
                    parent.child += duration
            else:
                parent.child += duration
        self.spans.append((frame.name, frame.start, end,
                           parent.name if parent is not None else None))
        return duration

    @contextmanager
    def span(self, name: str):
        if not self.active:
            yield
            return
        frame = self.open(name)
        try:
            yield
        finally:
            self.close(frame)

    def count(self, name: str, amount: float = 1.0) -> None:
        if self.active:
            self.counters[name] += amount

    # -- wrapping ------------------------------------------------------------

    def wrap(self, module: str, attr: str, name: str, hook=None,
             leaf: bool = False) -> bool:
        """Replace ``module.attr`` (dotted, e.g. ``Class.method``) by a
        tracing wrapper.  ``hook(args, kwargs, result, seconds)`` runs after
        each successful traced call (``hook(args, kwargs)`` for a leaf).  A target that no longer exists is
        recorded in ``absent`` and left alone."""
        try:
            owner = importlib.import_module(module)
            *path, field = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, field)
        except (ImportError, AttributeError):
            self.absent.append(f"{module}:{attr}")
            return False
        traced = (self._leaf_wrapper if leaf else self._wrapper)(
            original, name, hook)

        # keep the raw class attribute so restore() puts back exactly it
        raw = owner.__dict__[field] if field in getattr(owner, "__dict__", {}) \
            else original
        self._patches.append((owner, field, raw))
        setattr(owner, field, traced)
        return True

    def _wrapper(self, original, name, hook):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            frame = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                seconds = tracer.close(frame)
            if hook is not None:
                hook(args, kwargs, result, seconds)
            return result
        return traced

    def _leaf_wrapper(self, original, name, hook):
        tracer, clock, stack_of = self, self.clock, self._stack
        calls, total, own = self.calls, self.total, self.self_time

        # The hook and the bookkeeping run inside the span, and the
        # calibrated residual (what the wrapper costs outside its clock
        # reads) is added to it, so the tracer's per-call cost is charged
        # to the leaf and not to its caller's self time.
        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            start = clock()
            try:
                result = original(*args, **kwargs)
                if hook is not None:
                    hook(args, kwargs)
                return result
            finally:
                calls[name] += 1
                stack = stack_of()
                seconds = clock() - start + tracer.leaf_residual
                total[name] += seconds
                own[name] += seconds
                if stack:
                    stack[-1].child += seconds
        return traced

    def calibrate_leaf(self) -> float:
        """Set ``leaf_residual`` to the per-call time a leaf wrapper costs
        its caller outside the wrapper's own clock reads, net of the plain
        call it replaces: the median over five rounds of 100,000 no-op
        calls timed wrapped and unwrapped.  Run before tracing starts."""
        calls = 100_000
        probe = Tracer(self.clock)
        probe.active = True

        def noop(*args):
            return None

        wrapped = probe._leaf_wrapper(noop, "noop", None)
        frame = probe.open("calibrate")
        samples = []
        for _ in range(5):
            probe.total.clear()
            start = self.clock()
            for i in range(calls):
                wrapped(i)
            middle = self.clock()
            for i in range(calls):
                noop(i)
            end = self.clock()
            samples.append((middle - start - probe.total["noop"]
                            - (end - middle)) / calls)
        probe.close(frame)
        self.leaf_residual = max(0.0, median(samples))
        return self.leaf_residual

    def restore(self) -> None:
        while self._patches:
            owner, field, raw = self._patches.pop()
            setattr(owner, field, raw)

    # -- results -------------------------------------------------------------

    def self_by_layer(self, layer_of) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for name, seconds in self.self_time.items():
            out[layer_of(name)] += seconds
        return out
