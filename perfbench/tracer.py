"""Span tracer that wraps a program's functions from outside.

Each wrapped call opens a span on the calling thread's own stack.  A
span's *self time* is the thread-CPU time (``time.thread_time``) it
spent minus the part its child spans took, so a thread parked on an
event (a lockstep member waiting for its scheduler) is not charged for
the wait.  Self times of every thread are summed per metric name; the
process CPU time not covered by any span is what the caller reports as
``other``.

Wall spans measure waits (a pool future, a pooled batch) with
``time.perf_counter`` and stay out of the CPU accounting.

Nothing here imports the program: the caller says what to wrap.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict
from typing import Callable


class Tracer:
    """Per-thread span stacks; merged self time, wall time and counts."""

    def __init__(self, clock: Callable[[], float] = time.thread_time,
                 wall_clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.wall_clock = wall_clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[dict] = []
        self._patches: list[tuple[object, str, object]] = []
        #: Spans of this scope are open on some thread (any thread).
        self._scope_depth: dict[str, int] = defaultdict(int)

    # -- per-thread state ---------------------------------------------

    def _state(self) -> dict:
        st = getattr(self._local, "st", None)
        if st is None:
            st = {"stack": [], "self": defaultdict(float), "incl": defaultdict(float),
                  "wall": defaultdict(float), "count": defaultdict(int),
                  "incl_depth": defaultdict(int)}
            self._local.st = st
            with self._lock:
                self._threads.append(st)
        return st

    def totals(self) -> dict[str, dict]:
        """``self``/``incl`` (thread-CPU s), ``wall`` (s) and ``count``
        per metric name, summed over every thread."""
        out: dict[str, dict] = {k: defaultdict(float) for k in ("self", "incl", "wall")}
        out["count"] = defaultdict(int)
        with self._lock:
            threads = list(self._threads)
        for st in threads:
            for kind, acc in out.items():
                for k, v in st[kind].items():
                    acc[k] += v
        return {kind: dict(acc) for kind, acc in out.items()}

    def count(self, name: str, n: int) -> None:
        self._state()["count"][name] += int(n)

    # -- wrappers -----------------------------------------------------

    def cpu_span(self, name: str, fn: Callable, *, scope: str | None = None,
                 inclusive: str | None = None, unless_scope: str | None = None,
                 on_call: Callable | None = None) -> Callable:
        """Wrap ``fn`` so its thread-CPU self time accrues to ``name``.

        ``scope`` marks the span as open process-wide (on any thread).  ``inclusive`` also adds
        the outermost such span's whole duration to that metric,
        skipped while ``unless_scope`` is open.  ``on_call(tracer,
        args, kwargs)`` runs before the call to record counts.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = self._state()
            if on_call is not None:
                on_call(self, args, kwargs)
            incl = inclusive is not None and not (
                unless_scope is not None and self._scope_depth[unless_scope] > 0
            ) and st["incl_depth"][inclusive] == 0
            if incl:
                st["incl_depth"][inclusive] += 1
            if scope is not None:
                with self._lock:
                    self._scope_depth[scope] += 1
            stack = st["stack"]
            frame = [0.0]
            stack.append(frame)
            t0 = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = self.clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                st["self"][name] += dt - frame[0]
                if scope is not None:
                    with self._lock:
                        self._scope_depth[scope] -= 1
                if incl:
                    st["incl_depth"][inclusive] -= 1
                    st["incl"][inclusive] += dt

        return wrapper

    def wall_span(self, name: str, fn: Callable) -> Callable:
        """Wrap ``fn`` so its wall duration accrues to ``name``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = self._state()
            t0 = self.wall_clock()
            try:
                return fn(*args, **kwargs)
            finally:
                st["wall"][name] += self.wall_clock() - t0

        return wrapper

    # -- patching -----------------------------------------------------

    def patch(self, owner: object, attr: str, wrapper_of: Callable[[Callable], Callable],
              *, everywhere: str | None = None) -> None:
        """Replace ``owner.attr`` by ``wrapper_of(original)``.

        With ``everywhere`` set to a module-name prefix, every loaded
        module under it that bound the same function object by name
        (``from m import f``) is patched too.
        """
        original = getattr(owner, attr)
        wrapped = wrapper_of(original)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapped)
        if everywhere is None or isinstance(owner, type):
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or mod is owner or not (
                mod_name == everywhere or mod_name.startswith(everywhere + ".")
            ):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapped)

    def unpatch(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
