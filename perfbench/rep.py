"""One repetition of a perfbench workload, in a fresh process.

``perfbench/run.py`` starts this file once per repetition, so set-up
time and peak RSS belong to one repetition and nothing (the fuzz boot
snapshot, macro-op memory, imported state) carries over between them.
It prints one JSON object as its last line of standard output:
timings, the exact simulated counts, the correctness verdict and, with
``--trace 1``, the per-layer host times.

Run it from the repository root with ``PYTHONPATH=src``::

    PYTHONPATH=src python3 perfbench/rep.py --workload table1 --seed 1 --trace 0
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from typing import Dict, List  # noqa: E402

import spans  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent

#: Examples per fuzz repetition: at about 0.6 s each, five or six
#: repetitions fit in one 40-second run.
FUZZ_EXAMPLES = 10

#: Layers whose spans must record calls on each workload in a traced
#: run; a zero there means a wrapper was bypassed or the workload no
#: longer exercises the layer it was chosen for.
EXERCISED = {
    "table1": ["core.audit", "core.hypersec.hvc", "core.hypersec.protect",
               "tools.macroops", "tools.runner", "analysis.merge",
               "hypervisor", "kernel", "arch.mmu", "hw.cache", "hw.bus",
               "core.hypernel.boot"],
    "apps": ["core.audit", "core.hypersec.hvc", "core.hypersec.protect",
             "tools.runner", "analysis.merge", "hypervisor", "kernel",
             "arch.mmu", "hw.cache", "hw.bus", "core.mbm",
             "core.hypernel.boot"],
    "fuzz": ["core.audit", "core.hypersec.hvc", "core.hypersec.protect",
             "security.fuzz.apply_op", "security.fuzz.differential",
             "state.restore", "core.hypernel.boot"],
}


def flat_counts(metrics: dict, accesses: int) -> Dict[str, float]:
    """A RunMetrics dict as one flat, additive ``name -> count`` map."""
    out: Dict[str, float] = {"sim_cycles": metrics["sim_cycles"],
                             "accesses": accesses}
    for component, counters in metrics["components"].items():
        for key, value in counters.items():
            out[f"{component}.{key}"] = value
    for key, value in metrics["attribution"].items():
        out[f"attribution.{key}"] = value
    for key in ("events_detected", "events_lost"):
        out[f"gauge.{key}"] = metrics["gauges"].get(key, 0.0)
    return out


def add_counts(total: Dict[str, float], counts: Dict[str, float],
               sign: int = 1) -> None:
    for key, value in counts.items():
        total[key] = total.get(key, 0) + sign * value


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def sim_layers(c: Dict[str, float], fuzz_stats: Dict[str, int],
               paper_gap_pp: float) -> Dict[str, float]:
    """The simulated per-layer metrics, from summed counters."""
    get = lambda key: c.get(key, 0)  # noqa: E731
    ops = fuzz_stats.get("ops", 0)
    denied = sum(value for key, value in fuzz_stats.items()
                 if key.endswith(".denied"))
    return {
        "sim.cycles": get("sim_cycles"),
        "sim.accesses": get("accesses"),
        "arch.tlb.hit_ratio": _share(get("tlb.hits"),
                                     get("tlb.hits") + get("tlb.misses")),
        "arch.mmu.stage1_desc_fetches": get("mmu.stage1_desc_fetches"),
        "arch.mmu.stage2_desc_fetches": get("mmu.stage2_desc_fetches"),
        "hw.l1.hit_ratio": _share(get("l1.hits"),
                                  get("l1.hits") + get("l1.misses")),
        "hw.l2.hit_ratio": _share(get("l2.hits"),
                                  get("l2.hits") + get("l2.misses")),
        "hw.dram.row_hit_ratio": _share(
            get("dram.row_hits"), get("dram.row_hits") + get("dram.row_misses")),
        "hw.cache.uncached_writes": get("cache_hierarchy.uncached_writes"),
        "core.hypersec.hypercalls": get("cpu.hvc"),
        "core.hypersec.trapped_msr": get("cpu.trapped_msr"),
        "kernel.syscalls": get("syscalls.total"),
        "core.mbm.events_detected": get("gauge.events_detected"),
        "core.mbm.events_lost": get("gauge.events_lost"),
        "core.mbm.bitmap_cache_hit_ratio": _share(
            get("mbm_bitmap_cache.hits"),
            get("mbm_bitmap_cache.hits") + get("mbm_bitmap_cache.misses")),
        "core.mbm.decision_hit_ratio": _share(get("mbm_decision.hits"),
                                              get("mbm_decision.checked")),
        "core.mbm.capture_ratio": _share(get("mbm_snooper.captured"),
                                         get("mbm_snooper.observed")),
        "tools.macroops.replay_ratio": _share(
            get("macroops.hits"), get("macroops.hits") + get("macroops.misses")),
        "obs.residual_share": _share(get("attribution.residual"),
                                     get("sim_cycles")),
        "security.fuzz.ops": ops,
        "security.fuzz.denied_share": _share(denied, ops),
        "security.fuzz.differential_gates": fuzz_stats.get(
            "differential_gates", 0),
        "analysis.paper_gap_pp": paper_gap_pp,
    }


class Rep:
    """State of one repetition: hooks, captured payloads, verdicts."""

    def __init__(self, workload: str, traced: bool):
        self.workload = workload
        self.traced = traced
        self.recorder = spans.Recorder()
        #: (cell label, payload) for every cell the artifact runners ran
        self.cells: List[tuple] = []
        self.errors: List[str] = []
        self.counts: Dict[str, float] = {}
        self.fuzz_stats: Dict[str, int] = {}
        self.paper_gap_pp = 0.0
        #: fuzz examples whose counters reached ``self.counts``
        self.gates = 0
        self.attempted = 0
        self.failed = 0

    # ------------------------------------------------------------------
    # Hooks present in every run: boots, cell payloads, fuzz gates
    # ------------------------------------------------------------------
    def install_hooks(self) -> None:
        if self.traced:
            spans.install_layer_spans(self.recorder)
        if self.workload == "fuzz":
            self._hook_fuzz()
        else:
            self._hook_cells()

    def _hook_cells(self) -> None:
        from repro.analysis import figures, monitoring, tables

        recorder = self.recorder
        for module in (tables, figures, monitoring):
            module.cell_system = recorder.timed("core.hypernel.boot",
                                                module.cell_system)
            runner = recorder.timed("tools.runner", module.run_cells)

            def run_cells(cells, _runner=runner, **kwargs):
                payloads = _runner(cells, **kwargs)
                self.cells.extend(
                    (cell.label(), payload)
                    for cell, payload in zip(cells, payloads))
                return payloads

            module.run_cells = run_cells

    def _hook_fuzz(self) -> None:
        from repro import state
        from repro.obs import collect_metrics
        from repro.security.fuzz import machine
        from repro.tools.perf import count_accesses

        recorder = self.recorder
        self.boot_snapshot = machine.boot_snapshot
        self.restore = state.restore_from_snapshot
        machine.boot_snapshot = recorder.timed("core.hypernel.boot",
                                               machine.boot_snapshot)
        restore = recorder.timed("state.restore", state.restore_from_snapshot)
        state.restore_from_snapshot = restore
        machine.restore_from_snapshot = restore
        gate = machine.differential_audit

        def differential_audit(system):
            add_counts(self.counts, flat_counts(
                collect_metrics(system).to_dict(), count_accesses(system)))
            self.gates += 1
            return gate(system)

        machine.differential_audit = differential_audit

    # ------------------------------------------------------------------
    # Workloads: each returns the artifact text ("" for fuzz)
    # ------------------------------------------------------------------
    def run_table1(self) -> str:
        from repro.analysis import paper, run_table1

        result = run_table1()
        averages = {s: result.average_overhead(s)
                    for s in ("kvm-guest", "hypernel")}
        self.paper_gap_pp = sum(
            abs(averages[s] - paper.LMBENCH_AVG_OVERHEAD[s])
            for s in averages) / len(averages)
        if not 0.0 < averages["hypernel"] < averages["kvm-guest"]:
            self.errors.append(f"table1 averages out of order: {averages}")
        for op in ("fork+exit", "fork+execv"):
            row = result.rows[op]
            if not row["native"] < row["hypernel"] < row["kvm-guest"]:
                self.errors.append(f"table1 {op} row out of order: {row}")
        return result.format()

    def run_apps(self) -> str:
        from repro.analysis import paper, run_figure6, run_table2

        figure = run_figure6()
        table = run_table2()
        averages = {s: figure.average_overhead(s)
                    for s in ("kvm-guest", "hypernel")}
        gaps = [abs(averages[s] - paper.APP_AVG_OVERHEAD[s]) for s in averages]
        gaps.append(abs(table.mean_ratio_percent() - paper.TABLE2_MEAN_RATIO))
        self.paper_gap_pp = sum(gaps) / len(gaps)
        if not 0.0 < averages["hypernel"] < averages["kvm-guest"]:
            self.errors.append(f"figure6 averages out of order: {averages}")
        for app, row in table.counts.items():
            if not row["word"] < row["page"]:
                self.errors.append(f"table2 {app}: word >= page: {row}")
        return figure.format() + "\n" + table.format()

    def run_fuzz(self, seed: int) -> str:
        from repro.security.fuzz import machine

        try:
            self.fuzz_stats = machine.run_fuzz(
                "section", seed=seed, max_examples=FUZZ_EXAMPLES)
        except machine.FuzzViolation as exc:
            self.fuzz_stats = dict(machine.FUZZ_STATS)
            self.errors.append(f"FuzzViolation: {exc}")
        return ""

    # ------------------------------------------------------------------
    def check_cells(self, reference: dict, text: str) -> Dict[str, dict]:
        """Per-cell checks; returns the values the reference records."""
        from repro.obs.metrics import RunMetrics

        observed = {
            label: {"sim_cycles": payload["sim_cycles"],
                    "accesses": payload["accesses"]}
            for label, payload in self.cells
        }
        record = {"cells": observed,
                  "text_sha256": hashlib.sha256(text.encode()).hexdigest()}
        self.attempted = len(self.cells)
        if self.errors or record["text_sha256"] != reference.get(
                "text_sha256"):
            if not self.errors:
                self.errors.append("artifact text differs from reference")
            self.failed = self.attempted
            return record
        for label, payload in self.cells:
            metrics = RunMetrics.from_dict(payload["metrics"])
            if not metrics.clean:
                self.errors.append(f"{label}: RunMetrics not clean: "
                                   f"{[c.name for c in metrics.failures]}")
                self.failed += 1
            elif observed[label] != reference.get("cells", {}).get(label):
                self.errors.append(f"{label}: {observed[label]} differs from "
                                   f"reference")
                self.failed += 1
        return record

    def check_fuzz(self) -> None:
        examples = self.fuzz_stats.get("examples", 0)
        gates = self.fuzz_stats.get("differential_gates", 0)
        self.attempted = max(examples, 1)
        if self.errors:
            self.failed = self.attempted
        elif gates != examples:
            self.errors.append(
                f"differential_gates {gates} != examples {examples}")
            self.failed = self.attempted - min(gates, examples)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(EXERCISED))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import repro
    if args.workload == "fuzz":
        import hypothesis.stateful  # noqa: F401  (imported by run_fuzz)
        import repro.security.fuzz.machine  # noqa: F401
    else:
        import repro.analysis  # noqa: F401
    import_s = time.perf_counter() - START

    rep = Rep(args.workload, bool(args.trace))
    rep.install_hooks()
    reference = json.loads((HERE / "reference.json").read_text()).get(
        args.workload, {})

    start = time.perf_counter()
    if args.workload == "table1":
        text = rep.run_table1()
    elif args.workload == "apps":
        text = rep.run_apps()
    else:
        text = rep.run_fuzz(args.seed)
    wall_s = time.perf_counter() - start

    recorder = rep.recorder
    boot_s = recorder.inclusive_s("core.hypernel.boot")
    record: dict = {}
    if args.workload == "fuzz":
        rep.check_fuzz()
        if rep.gates:
            # Counters at each gate include the boot snapshot's; take
            # them out once per example.
            from repro.obs import collect_metrics
            from repro.tools.perf import count_accesses

            system = rep.restore(rep.boot_snapshot("section"))
            base = flat_counts(collect_metrics(system).to_dict(),
                               count_accesses(system))
            for _ in range(rep.gates):
                add_counts(rep.counts, base, sign=-1)
        record = {"fuzz_stats": rep.fuzz_stats}
    else:
        record = rep.check_cells(reference, text)
        for label, payload in rep.cells:
            add_counts(rep.counts, flat_counts(payload["metrics"],
                                               payload["accesses"]))

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": bool(args.trace),
        "import_s": import_s,
        "setup_s": import_s + boot_s,
        "wall_s": wall_s,
        "boot_s": boot_s,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": rep.attempted,
        "failed": rep.failed,
        "errors": rep.errors,
        "record": record,
        "sim": sim_layers(rep.counts, rep.fuzz_stats, rep.paper_gap_pp),
        "env": {"nproc": os.cpu_count(),
                "python": platform.python_version(),
                "repro": repro.__version__,
                "repro_path": repro.__file__},
    }
    if args.trace:
        result["layers"] = layer_metrics(recorder)
        result["unexercised"] = [
            name for name in EXERCISED[args.workload]
            if recorder.calls(name) == 0
        ]
        result["spans"] = recorder.spans
    print(json.dumps(result))
    return 0


def layer_metrics(recorder: spans.Recorder) -> Dict[str, float]:
    """Per-layer host metrics from the recorder's span totals."""
    out = {
        "core.audit.s": recorder.self_s("core.audit"),
        "core.audit.calls": recorder.calls("core.audit"),
        "core.audit.words_peeked": recorder.audit_peeks,
        "security.fuzz.apply_op_s": recorder.self_s("security.fuzz.apply_op"),
        "security.fuzz.differential_s": recorder.self_s(
            "security.fuzz.differential"),
        "state.restore_s": recorder.self_s("state.restore"),
        "state.restore_calls": recorder.calls("state.restore"),
        "core.hypersec.hvc_s": recorder.self_s("core.hypersec.hvc"),
        "core.hypersec.hvc_calls": recorder.calls("core.hypersec.hvc"),
        "core.hypersec.protect_s": recorder.self_s("core.hypersec.protect"),
        "tools.macroops.s": recorder.self_s("tools.macroops"),
        "tools.macroops.calls": recorder.calls("tools.macroops"),
        "tools.runner.s": recorder.self_s("tools.runner"),
        "analysis.merge_s": recorder.self_s("analysis.merge"),
        "core.hypernel.boot_s": recorder.inclusive_s("core.hypernel.boot"),
    }
    for layer in ("hypervisor", "kernel", "arch.mmu", "hw.cache", "core.mbm"):
        out[f"{layer}.s"] = recorder.self_s(layer)
        out[f"{layer}.calls"] = recorder.calls(layer)
    out["hw.bus.s"] = recorder.self_s("hw.bus")
    from repro.workloads.apps import default_applications
    from repro.workloads.lmbench import LMBENCH_OPS

    for op in LMBENCH_OPS:
        name = f"workloads.lmbench.{spans.metric_slug(op)}"
        out[f"{name}.s"] = recorder.inclusive_s(name)
    for app in default_applications(0.25):
        name = f"workloads.apps.{app.name}"
        out[f"{name}.s"] = recorder.inclusive_s(name)
    return out


if __name__ == "__main__":
    sys.exit(main())
