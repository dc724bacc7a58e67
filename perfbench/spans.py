"""In-memory span recorder for the traced benchmark run.

The recorder wraps layer entry points from outside the simulator: each
wrapped call appends one span (layer name, parent span, start, end) to
flat arrays, so a span costs a few appends and two clock reads. A
layer's self time is the duration of its spans minus the time covered
by their child spans; parent links come from a stack of open spans.

This module imports nothing from ``repro`` at import time: the timed
benchmark process must pay for ``import repro`` inside its own clock.
"""

from __future__ import annotations

import functools
import time
from array import array
from contextlib import contextmanager

#: (module, class or None, attribute, span name) of every entry point
#: the traced run wraps. A class of None patches a module function.
#: Names are layers; several entry points may share one layer.
ENTRY_POINTS = (
    ("repro.workloads.synthetic", "SequentialWorkload", "traces",
     "workloads"),
    ("repro.workloads.synthetic", "RandomWorkload", "traces", "workloads"),
    ("repro.workloads.synthetic", "StreamingAgentWorkload", "traces",
     "workloads"),
    ("repro.workloads.gap.suite", "GapWorkload", "__init__", "workloads"),
    ("repro.workloads.gap.suite", "GapWorkload", "traces", "workloads"),
    ("repro.cpu.system", "CpuSystem", "__init__", "cpu.system.setup"),
    ("repro.cpu.system", "CpuSystem", "run", "cpu.system"),
    ("repro.cpu.core", "IntervalCore", "advance", "cpu.core"),
    ("repro.cpu.hierarchy", "CacheHierarchy", "access", "cpu.hierarchy"),
    ("repro.cpu.hierarchy", "CacheHierarchy", "access_fast",
     "cpu.hierarchy"),
    ("repro.cpu.hierarchy", "CacheHierarchy", "fill_prefetched",
     "cpu.hierarchy.fill"),
    ("repro.dram.controller", "MemoryController", "enqueue",
     "dram.controller"),
    ("repro.dram.controller", "MemoryController", "run_until",
     "dram.controller"),
    ("repro.dram.controller", "MemoryController", "run_until_next_read",
     "dram.controller"),
    ("repro.dram.controller", "MemoryController", "drain",
     "dram.controller"),
    ("repro.dram.controller", "MemoryController", "finalize",
     "dram.controller"),
    # Multi-channel routing: folded into the controller layer's self
    # time, kept out of its call count.
    ("repro.dram.system", "MemorySystem", "enqueue", "dram.system"),
    ("repro.core.interfaces", "CompositeMemory", "run_until",
     "dram.system"),
    ("repro.core.interfaces", "CompositeMemory", "run_until_next_read",
     "dram.system"),
    ("repro.core.interfaces", "CompositeMemory", "drain", "dram.system"),
    ("repro.core.interfaces", "CompositeMemory", "finalize", "dram.system"),
    ("repro.reliability.guard", "ReliabilityGuard", "tick",
     "reliability.guard"),
    ("repro.reliability.guard", "ReliabilityGuard", "attach",
     "reliability.guard.edge"),
    ("repro.reliability.guard", "ReliabilityGuard", "finish",
     "reliability.guard.edge"),
    ("repro.cpu.system", "SimulationResult", "bandwidth_stack",
     "stacks.bandwidth"),
    ("repro.cpu.system", "SimulationResult", "latency_stack",
     "stacks.latency"),
    ("repro.cpu.system", "SimulationResult",
     "per_requester_bandwidth_stacks", "stacks.requester"),
    ("repro.cpu.system", "SimulationResult",
     "per_requester_latency_stacks", "stacks.requester"),
    ("repro.service.service", "ExecutionService", "run", "service"),
    ("repro.service.executors", None, "execute_job", "service.job"),
)

#: Span name -> the per-layer ``self_s`` metric its self time adds to.
LAYER_OF = {
    "workloads": "workloads",
    "cpu.system.setup": "cpu.system.setup",
    "cpu.system": "cpu.system",
    "cpu.core": "cpu.core",
    "cpu.hierarchy": "cpu.hierarchy",
    "cpu.hierarchy.fill": "cpu.hierarchy",
    "dram.controller": "dram.controller",
    "dram.system": "dram.controller",
    "reliability.guard": "reliability.guard",
    "reliability.guard.edge": "reliability.guard",
    "stacks.bandwidth": "stacks.bandwidth",
    "stacks.latency": "stacks.latency",
    "stacks.requester": "stacks.requester",
    "service": "service",
    "service.job": "service.job",
}

#: Span names whose call counts are reported, by metric.
CALL_COUNTS = {
    "cpu.core": "cpu.core.advance_calls",
    "dram.controller": "dram.controller.calls",
    "reliability.guard": "reliability.guard.ticks",
}


class SpanRecorder:
    """Records nested spans around patched entry points."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._patched: list[tuple[object, str, object]] = []
        self.name_of = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def reset(self) -> None:
        """Drop every recorded span, in place (the installed wrappers
        hold the arrays)."""
        if len(self._stack) != 1:
            raise RuntimeError("reset with spans still open")
        for column in (self.name_of, self.parent, self.start, self.end):
            del column[:]

    # ------------------------------------------------------------------
    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        """`fn` wrapped so that each call records one span."""
        name_id = self._name_id(name)
        name_of, parent, start, end = (
            self.name_of, self.parent, self.start, self.end
        )
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            i = len(start)
            name_of.append(name_id)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return span

    def install(self) -> None:
        """Patch every entry point in :data:`ENTRY_POINTS`."""
        import importlib

        if self._patched:
            raise RuntimeError("span recorder already installed")
        for module_name, class_name, attr, name in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            owner = module if class_name is None else getattr(
                module, class_name
            )
            original = owner.__dict__[attr]
            setattr(owner, attr, self.wrap(name, original))
            self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every patched entry point."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    @contextmanager
    def suspended(self):
        """Run the block with every entry point unpatched."""
        self.uninstall()
        try:
            yield
        finally:
            self.install()

    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """Per span name: ``self_s`` and ``calls``; plus ``roots_s``, the
        summed duration of spans without a parent, and ``min_self_s``."""
        if len(self._stack) != 1:
            raise RuntimeError("summary taken with spans still open")
        n = len(self.start)
        durations = [self.end[i] - self.start[i] for i in range(n)]
        child_time = [0.0] * n
        parent = self.parent
        roots_s = 0.0
        for i in range(n):
            p = parent[i]
            if p < 0:
                roots_s += durations[i]
            else:
                child_time[p] += durations[i]
        per_name = {
            name: {"self_s": 0.0, "calls": 0}
            for name in self.names
        }
        name_of = self.name_of
        names = self.names
        min_self = 0.0
        for i in range(n):
            entry = per_name[names[name_of[i]]]
            own = durations[i] - child_time[i]
            if own < min_self:
                min_self = own
            entry["self_s"] += own
            entry["calls"] += 1
        return {
            "spans": per_name,
            "roots_s": roots_s,
            "min_self_s": min_self,
        }

