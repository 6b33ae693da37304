"""Outside-in layer timing for the traced benchmark run.

The program's own telemetry sink stays off.  Instead, :class:`Tracer`
replaces public functions and methods of each layer with timing
wrappers, from the benchmark's process, and restores them on
:meth:`Tracer.close`.  Spans nest on one stack, so every span knows its
nearest traced ancestor: a layer's self time is its inclusive time
minus the time of the traced spans it called, and the time no
top-level span covers is the unattributed share of the run.

Kernel primitives are timed by :class:`TimingBackend`, a
:class:`~repro.fastpath.backend.KernelBackend` that the workloads pass
through the public ``backend=`` argument.  It subclasses the default
backend, so the values it returns are the default backend's.
"""

from __future__ import annotations

import gc
import sys
import time
from collections import defaultdict

from repro.fastpath.backend import FusedBackend

_perf = time.perf_counter


class _Span:
    """Running totals of one named span."""

    __slots__ = ("acc", "parents")

    def __init__(self) -> None:
        #: [inclusive seconds, calls]
        self.acc = [0.0, 0]
        #: Seconds spent under each traced parent span, by parent name.
        self.parents: dict[str, float] = defaultdict(float)


class Tracer:
    """Inclusive time, calls, and per-parent time of named spans."""

    def __init__(self) -> None:
        self.spans: dict[str, _Span] = {}
        #: [seconds in spans no traced span encloses]
        self._top = [0.0]
        self.gc_s = 0.0
        self.gc_gen2 = 0
        #: Sum over ``ResidentState.depart`` calls of the cohort rows
        #: the draw ran over.
        self.depart_cohorts = 0
        self._stack: list[str] = []
        self._patches: list[tuple] = []
        self._gc_start = 0.0

    # -- spans ----------------------------------------------------------

    def span(self, name: str, fn, on_enter=None):
        """Wrap ``fn`` so every call is a span called ``name``."""
        record = self.spans.setdefault(name, _Span())
        acc, parents = record.acc, record.parents
        stack, top = self._stack, self._top

        # Lean on purpose: the service workload crosses three wrappers
        # per op, so every statement here shows in the overhead ratio.
        def traced(*args, **kwargs):
            if on_enter is not None:
                on_enter(args)
            stack.append(name)
            start = _perf()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = _perf() - start
                stack.pop()
                acc[0] += elapsed
                acc[1] += 1
                if stack:
                    parents[stack[-1]] += elapsed
                else:
                    top[0] += elapsed

        traced.__wrapped__ = fn
        return traced

    def patch_attr(self, owner, attr: str, name: str, on_enter=None) -> None:
        """Trace ``owner.attr`` (a class method or module function)."""
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.span(name, original, on_enter))

    def patch_function(self, module, attr: str, name: str) -> None:
        """Trace a module-level function in every loaded module that
        holds a reference to it, so ``from x import f`` callers and
        same-module callers both see the wrapper."""
        original = getattr(module, attr)
        wrapper = self.span(name, original)
        for mod in list(sys.modules.values()):
            namespace = getattr(mod, "__dict__", None)
            if not namespace:
                continue
            for key, value in list(namespace.items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    # -- readings -------------------------------------------------------

    @property
    def top(self) -> float:
        return self._top[0]

    def total(self, name: str) -> float:
        record = self.spans.get(name)
        return record.acc[0] if record is not None else 0.0

    def calls(self, name: str) -> int:
        record = self.spans.get(name)
        return record.acc[1] if record is not None else 0

    def under(self, child: str, *parents: str) -> float:
        """Seconds ``child`` ran directly under any of ``parents``."""
        record = self.spans.get(child)
        if record is None:
            return 0.0
        return sum(record.parents.get(p, 0.0) for p in parents)

    def self_time(self, name: str) -> float:
        """Inclusive time minus the traced spans called directly."""
        children = sum(
            r.parents.get(name, 0.0) for r in self.spans.values()
        )
        return self.total(name) - children

    # -- garbage collector ----------------------------------------------

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = _perf()
        else:
            self.gc_s += _perf() - self._gc_start
            if info.get("generation") == 2:
                self.gc_gen2 += 1

    def watch_gc(self) -> None:
        gc.callbacks.append(self._on_gc)

    def untraced(self, fn, *args):
        """Run ``fn`` with everything it records discarded (set-up
        work between timed windows)."""
        saved = {
            name: (list(r.acc), dict(r.parents))
            for name, r in self.spans.items()
        }
        counters = (self._top[0], self.gc_s, self.gc_gen2, self.depart_cohorts)
        try:
            return fn(*args)
        finally:
            for name, (acc, parents) in saved.items():
                record = self.spans[name]
                record.acc[:] = acc
                record.parents.clear()
                record.parents.update(parents)
            self._top[0], self.gc_s, self.gc_gen2, self.depart_cohorts = (
                counters
            )

    # -- teardown -------------------------------------------------------

    def close(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)


class TimingBackend(FusedBackend):
    """The default kernel backend, with its primitives timed."""

    def __init__(self, tracer: Tracer) -> None:
        span = tracer.span
        fused = FusedBackend
        for attr, name in (
            ("grouped_accept_with_priorities", "backend.grouped_accept"),
            ("priority_commit_accept", "backend.priority_commit"),
            ("sort_accepts_by_position", "backend.sort_accepts"),
            ("scatter_counts", "backend.scatter"),
            ("scatter_weights", "backend.scatter"),
        ):
            bound = getattr(fused, attr).__get__(self, type(self))
            setattr(self, attr, span(name, bound))


def install(tracer: Tracer) -> TimingBackend:
    """Wrap every traced layer; returns the backend to pass as
    ``backend=``.  Lazily imported modules are imported first so the
    wrappers reach every reference."""
    import repro
    import repro.core.heavy as heavy
    from repro.dynamic.state import ResidentState
    from repro.fastpath.roundstate import RoundState
    from repro.service.admission import GapSloController
    from repro.service.events import EventQueue
    from repro.service.server import AllocatorService

    tracer.patch_function(repro, "allocate", "api.allocate")
    tracer.patch_function(repro, "run_dynamic", "dynamic.run")
    tracer.patch_function(heavy, "run_threshold_protocol", "core.protocol")
    for attr in ("sample_contacts", "group_and_accept", "commit_and_revoke"):
        tracer.patch_attr(RoundState, attr, f"fastpath.{attr}")

    def count_cohorts(args) -> None:
        tracer.depart_cohorts += len(args[0].cohorts)

    tracer.patch_attr(
        ResidentState, "depart", "dynamic.depart", on_enter=count_cohorts
    )
    tracer.patch_attr(ResidentState, "add_cohort", "dynamic.add_cohort")
    tracer.patch_attr(AllocatorService, "place", "service.submit")
    tracer.patch_attr(AllocatorService, "release", "service.submit")
    tracer.patch_attr(AllocatorService, "flush", "service.flush")
    tracer.patch_attr(EventQueue, "push", "service.queue.push")
    tracer.patch_attr(GapSloController, "decide", "service.admission.decide")
    tracer.watch_gc()
    return TimingBackend(tracer)
