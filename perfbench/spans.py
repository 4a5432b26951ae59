"""In-memory span recorder and the wrappers that place spans on layers.

A span is one call into a layer's public method.  Every span keeps its
self time: its duration minus the time its child spans cover.  Totals
are kept per span name in memory; only the coarse spans (boots,
workload phases, merges) are also kept one by one, with their start,
end and parent, so a run can show its timeline.  Nothing is written
until the run ends.

The wrappers replace class or module attributes, so they must be
installed after the modules are imported and before any system is
built: hot paths bind methods to locals or attributes when a machine
is constructed (the MBM snooper keeps ``mbm.capture``), and a wrapper
installed later would be bypassed without notice.

``Bus.peek`` is counted, not timed: the audits call it millions of
times and a timer around each call would swamp what it measures.
"""

from __future__ import annotations

import functools
import time
from typing import Callable, Dict, List, Optional

#: Span names whose instances are kept one by one (the rest are only
#: totalled).  Matched by prefix.
COARSE_PREFIXES = (
    "core.hypernel.boot",
    "workloads.",
    "tools.runner",
    "analysis.merge",
)


class Recorder:
    """Per-name call counts, self and inclusive seconds, plus counters."""

    def __init__(self) -> None:
        #: name -> [calls, self seconds, inclusive seconds]
        self.totals: Dict[str, List[float]] = {}
        #: child seconds of each open span, innermost last
        self.stack: List[List[float]] = []
        #: coarse spans: (name, start, end, parent index or None)
        self.spans: List[tuple] = []
        self.open_coarse: List[int] = []
        self.peeks = 0
        #: ``Bus.peek`` calls made inside ``Hypersec.audit``
        self.audit_peeks = 0
        self.origin = time.perf_counter()

    def calls(self, name: str) -> int:
        entry = self.totals.get(name)
        return int(entry[0]) if entry else 0

    def self_s(self, name: str) -> float:
        entry = self.totals.get(name)
        return entry[1] if entry else 0.0

    def inclusive_s(self, name: str) -> float:
        entry = self.totals.get(name)
        return entry[2] if entry else 0.0

    def timed(self, name: str, fn: Callable,
              name_of: Optional[Callable] = None) -> Callable:
        """Wrap ``fn`` in a span called ``name`` (or ``name_of(*args)``)."""
        perf = time.perf_counter
        stack = self.stack
        totals = self.totals
        fixed_coarse = name_of is None and name.startswith(COARSE_PREFIXES)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name_of is None:
                label, coarse = name, fixed_coarse
            else:
                label = name_of(*args, **kwargs)
                coarse = label.startswith(COARSE_PREFIXES)
            if coarse:
                index = self._open(label)
            children = [0.0]
            stack.append(children)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                entry = totals.get(label)
                if entry is None:
                    entry = totals[label] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += duration - children[0]
                entry[2] += duration
                if coarse:
                    self._close(index)

        return wrapper

    def _open(self, label: str) -> int:
        parent = self.open_coarse[-1] if self.open_coarse else None
        self.spans.append((label, time.perf_counter() - self.origin, None,
                           parent))
        self.open_coarse.append(len(self.spans) - 1)
        return self.open_coarse[-1]

    def _close(self, index: int) -> None:
        self.open_coarse.pop()
        label, begin, _, parent = self.spans[index]
        self.spans[index] = (label, begin, time.perf_counter() - self.origin,
                             parent)

    def counted_peek(self, fn: Callable) -> Callable:
        """Count calls of ``Bus.peek`` without timing them."""
        def peek(bus, paddr):
            self.peeks += 1
            return fn(bus, paddr)

        return peek

    def audit_span(self, fn: Callable) -> Callable:
        """Span around ``Hypersec.audit`` that also counts its peeks."""
        timed = self.timed("core.audit", fn)

        @functools.wraps(fn)
        def audit(*args, **kwargs):
            before = self.peeks
            try:
                return timed(*args, **kwargs)
            finally:
                self.audit_peeks += self.peeks - before

        return audit


def _wrap(recorder: Recorder, owner, attrs, name: str,
          name_of: Optional[Callable] = None) -> None:
    for attr in attrs:
        setattr(owner, attr,
                recorder.timed(name, getattr(owner, attr), name_of))


def metric_slug(text: str) -> str:
    """``fork+execv`` -> ``fork_execv``: a span name usable as a metric."""
    return "".join(ch if ch.isalnum() else "_" for ch in text)


def install_layer_spans(recorder: Recorder) -> None:
    """Wrap the public entry points of every layer (traced runs only).

    Boots, ``run_cells`` and the fuzz hooks are wrapped by the caller in
    every run, traced or not, because the end-to-end metrics need them.
    """
    from repro.analysis import figures, monitoring, tables
    from repro.arch.mmu import MMU
    from repro.core.hypersec import Hypersec
    from repro.core.mbm.mbm import MemoryBusMonitor
    from repro.hw.bus import MemoryBus
    from repro.hw.cache import CacheHierarchy
    from repro.hypervisor.kvm import KvmHypervisor
    from repro.kernel.syscalls import SyscallLayer
    from repro.kernel.vmm import UserVmm
    from repro.security.fuzz import machine
    from repro.tools.macroops import MacroOpEngine
    from repro.workloads.apps import ApplicationWorkload
    from repro.workloads.lmbench import LmbenchSuite

    MemoryBus.peek = recorder.counted_peek(MemoryBus.peek)
    Hypersec.audit = recorder.audit_span(Hypersec.audit)
    _wrap(recorder, Hypersec, ["handle_hvc"], "core.hypersec.hvc")
    _wrap(recorder, Hypersec, ["protect"], "core.hypersec.protect")
    _wrap(recorder, machine, ["apply_op"], "security.fuzz.apply_op")
    _wrap(recorder, machine, ["differential_audit"],
          "security.fuzz.differential")
    _wrap(recorder, MacroOpEngine, ["run_repeated"], "tools.macroops")
    _wrap(recorder, KvmHypervisor,
          ["map_ipa", "prepopulate", "handle_stage2_fault", "handle_hvc",
           "handle_trapped_msr"], "hypervisor")
    public_syscalls = [
        attr for attr, value in vars(SyscallLayer).items()
        if callable(value) and not attr.startswith("_")
    ]
    _wrap(recorder, SyscallLayer, public_syscalls, "kernel")
    _wrap(recorder, UserVmm, ["user_touch"], "kernel")
    _wrap(recorder, MMU, ["translate", "stage2_translate"], "arch.mmu")
    _wrap(recorder, CacheHierarchy, ["read", "write", "touch_block"],
          "hw.cache")
    _wrap(recorder, MemoryBus,
          ["read", "write", "write_block", "fill_line", "writeback_line"],
          "hw.bus")
    _wrap(recorder, MemoryBusMonitor,
          ["capture", "capture_block", "note_writeback", "flush_events"],
          "core.mbm")
    for module, merge in ((tables, "merge_table1"), (figures, "merge_figure6"),
                          (monitoring, "merge_table2")):
        _wrap(recorder, module, [merge], "analysis.merge")
    _wrap(recorder, LmbenchSuite, ["run_op"], "",
          name_of=lambda suite, op, *a, **k:
          f"workloads.lmbench.{metric_slug(op)}")
    _wrap(recorder, ApplicationWorkload, ["run"], "",
          name_of=lambda app, *a, **k: f"workloads.apps.{app.name}")
