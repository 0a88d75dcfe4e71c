"""Span tracing by wrapping module attributes from outside the program.

A `Tracer` replaces named attributes (``trapnode.detector.eval_grid``,
``trapnode.trainer.WindowStack.__init__``, ...) with wrappers that record a
span (name, start, end, parent) per call while the tracer is active, and
optionally feed a hook that turns the call's arguments and result into
counts. A module that imported a function by name holds its own binding, so
one span name is usually installed at several sites. A site that no longer
exists is recorded as absent instead of failing, and a hook that no longer
fits its call is recorded instead of failing the call. Spans stay in memory
and are written out when the run ends.

Calls made from worker threads whose own stack is empty are parented to the
span open on the main thread, so a thread pool's tasks count as children of
the call that dispatched them.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from collections import defaultdict


def _resolve(target: str):
    """(owner, attribute) for a dotted path, or None when it is gone."""
    parts = target.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:-1]:
            owner = getattr(owner, name, None)
            if owner is None:
                return None
        if not hasattr(owner, parts[-1]):
            return None
        return owner, parts[-1]
    return None


class Tracer:
    def __init__(self):
        self.active = False
        self.spans: list = []          # [name, start, end, parent index]
        self.counts: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []    # dotted targets that no longer exist
        self.hook_errors: dict[str, str] = {}  # target -> first hook failure
        self._patched: list = []
        self._lock = threading.Lock()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_span(self) -> str | None:
        """Name of the innermost open span of the calling thread."""
        stack = self._stack()
        return self.spans[stack[-1]][0] if stack else None

    def add(self, key: str, value: float) -> None:
        with self._lock:
            self.counts[key] += value

    def wrap(self, target: str, span: str | None, hook=None) -> bool:
        """Install a wrapper at `target`.

        `span` names the recorded span; None records no span, so the call's
        time stays with its caller's self time. `hook(tracer, args, result)`
        runs after each successful traced call.
        """
        found = _resolve(target)
        if found is None:
            self.absent.append(target)
            return False
        owner, attr = found
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            if span is None:
                result = original(*args, **kwargs)
            else:
                stack = tracer._stack()
                if stack:
                    parent = stack[-1]
                else:
                    main = tracer._main_stack
                    parent = main[-1] if main else None
                record = [span, 0.0, 0.0, parent]
                with tracer._lock:
                    index = len(tracer.spans)
                    tracer.spans.append(record)
                stack.append(index)
                record[1] = time.perf_counter()
                try:
                    result = original(*args, **kwargs)
                finally:
                    record[2] = time.perf_counter()
                    stack.pop()
            if hook is not None:
                # A changed signature must not fail the traced call itself.
                try:
                    hook(tracer, args, result)
                except Exception as exc:
                    tracer.hook_errors.setdefault(target, repr(exc))
            return result

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))
        return True

    def unwrap_all(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def span_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds.

        Self time is a span's duration minus the part of it covered by the
        union of its children's intervals (children may overlap when they
        ran on several threads).
        """
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for name, start, end, parent in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        totals: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for index, (name, start, end, _) in enumerate(self.spans):
            covered = 0.0
            reach = start
            for c_start, c_end in sorted(children.get(index, ())):
                c_start, c_end = max(c_start, reach), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            entry = totals[name]
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += (end - start) - covered
        return dict(totals)

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh)
