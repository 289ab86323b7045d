"""Shared pieces of the benchmark: the phase record, statistics, the
environment fingerprint and the mapping from traces to metric names."""

from __future__ import annotations

import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Mapping

import numpy as np

MIB = float(1 << 20)
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: the CPUs the process may run on; each stretch runs on one of them
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


@dataclass
class Stretch:
    """One stretch of a measured phase: a fresh set-up, then one fixed
    unit of the workload's work (a solve, a pass, a round of jobs)."""

    latencies: List[float]           # seconds per timed op
    ops: int                         # ops the unit completed
    seconds: float                   # wall time the unit took

    @property
    def rate(self) -> float:
        return self.ops / self.seconds if self.seconds > 0 else 0.0


@dataclass
class Phase:
    """What one measured phase of a workload produced."""

    stretches: List[Stretch]
    setup_times: List[float]         # seconds, one set-up per stretch
    attempted: int
    failed: int                      # refused or incorrect ops
    #: exact counts over the workload's canonical unit of work
    counts: Dict[str, float] = field(default_factory=dict)
    #: workload-specific measurements (node_mem_mb, serial_iter_ms, ...)
    extra: Dict[str, float] = field(default_factory=dict)
    #: gate failures, one line each
    errors: List[str] = field(default_factory=list)

    def best_rate(self) -> float:
        """Throughput of the least disturbed stretch."""
        return max(st.rate for st in self.stretches)

    def best_percentile_ms(self, q: float) -> float:
        """Percentile ``q`` of op latency in the least disturbed stretch."""
        return min(percentile_ms(st.latencies, q)
                   for st in self.stretches if st.latencies)


def on_cpu(k: int) -> None:
    """Move the calling thread, and every thread it starts from now on,
    to the ``k``-th of the process's CPUs, taken in turn.

    Python runs one thread at a time, and so does the cooperative
    scheduler, so a second CPU adds no speed; spread over two, every
    hand-off between threads wakes a thread on the other CPU, and how
    long that takes is up to the hypervisor and swings with other
    tenants' load.  The speed of each CPU also swings on its own, so
    successive stretches take the CPUs in turn."""
    if CPUS:
        os.sched_setaffinity(0, {CPUS[k % len(CPUS)]})


def stretches(seconds: float, unit: Callable[[], Stretch]) -> List[Stretch]:
    """Run ``unit`` until ``seconds`` have passed: always once, and again
    while another one, as long as the last, still fits.  Each one runs
    on one CPU, the next on the next."""
    out: List[Stretch] = []
    t0 = time.perf_counter()
    last = 0.0
    while not out or time.perf_counter() - t0 + last <= seconds:
        on_cpu(len(out))
        t1 = time.perf_counter()
        out.append(unit())
        last = time.perf_counter() - t1
    return out


def timed(fn: Callable[[], Any], into: List[float]) -> None:
    """Call ``fn`` and append its wall time to ``into``."""
    t0 = time.perf_counter()
    fn()
    into.append(time.perf_counter() - t0)


def percentile_ms(latencies: Iterable[float], q: float) -> float:
    vals = list(latencies)
    return float(np.percentile(vals, q)) * 1000.0 if vals else 0.0


def peak_rss_mb() -> float:
    # ru_maxrss is KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_sha(root: str = ROOT) -> str:
    """The checked-out commit, read from ``.git`` without running git;
    ``unknown`` outside a git checkout."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def fingerprint(workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus": CPUS,
        "platform": sys.platform,
        "git_sha": git_sha(),
    }


# ------------------------------------------------------------ counters
def _total(d: Any) -> int:
    return sum(d.values()) if isinstance(d, Mapping) else int(d or 0)


def snapshot_counts(snap: Mapping[str, Mapping[str, Any]]) -> Dict[str, float]:
    """The raw counters the per-layer metrics are built from, out of one
    ``Runtime.metrics().snapshot()`` dict."""
    p2p, coll = snap["p2p"], snap["collectives"]
    rma, sched = snap["rma"], snap["sched"]
    sto, lb = snap["storage"], snap["loadbalance"]
    return {
        "p2p.messages": p2p["messages"],
        "p2p.elided_bytes": p2p["elided_bytes"],
        "p2p.comparisons": p2p["comparisons"],
        "p2p.delivered": p2p["delivered"],
        "coll.episodes": _total(coll["episodes"]),
        "coll.clones": coll["clones"],
        "icoll.episodes": _total(coll["icoll_episodes"]),
        "icoll.cells": coll["icoll_cells"],
        "icoll.steals": coll["icoll_steals"],
        "sched.decisions": sched["decisions"],
        "sched.parks": sched["parks"],
        "sched.notify_wakes": sched["notify_wakes"],
        "sched.context_switches": sched["context_switches"],
        "rma.bytes": rma["bytes"],
        "rma.zero_copy_bytes": rma["zero_copy_bytes"],
        "rma.staged_bytes": rma["staged_bytes"],
        "rma.chunk_lock_waits": rma["chunk_lock_waits"],
        "storage.commits": sto["commits"],
        "storage.spills": sto["spills"],
        "storage.faults": sto["faults"],
        "storage.written_bytes": sto["written_bytes"],
        "storage.read_bytes": sto["read_bytes"],
        "scheduler.chunks_stolen": lb["chunks_stolen"],
        "scheduler.busy_s": lb["busy_s"],
        "scheduler.idle_s": lb["idle_s"],
    }


def add_counts(a: Dict[str, float], b: Mapping[str, float], sign: int = 1) -> Dict[str, float]:
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + sign * v
    return out


def runtime_counts(rt) -> Dict[str, float]:
    return snapshot_counts(rt.metrics().snapshot())


def peak_node_bytes(rt) -> int:
    """High-water live bytes of the busiest node of a runtime: the sum
    of its arenas' peaks on that node."""
    mem = rt.memory
    return max(
        (sum(a.peak_live_bytes for a in mem.arenas_on_node(n))
         for n in range(rt.machine.n_nodes)),
        default=0,
    )


# ------------------------------------------------------------- metrics
#: per-layer time metrics: metric name -> span names whose self time it sums
TIME_METRICS = {
    "apps.mesh_update_s": ("apps.mesh_update",),
    "apps.matmul_s": ("apps.matmul",),
    "apps.eulermhd_s": ("apps.eulermhd",),
    "apps.gadget_s": ("apps.gadget",),
    "apps.tachyon_s": ("apps.tachyon",),
    "memsim.access_run_s": ("memsim.access_run",),
    "memsim.run_timing_s": ("memsim.run_timing",),
    "runtime.construct_s": ("runtime.construct",),
    "runtime.run_s": ("runtime.run",),
    "runtime.finalize_s": ("runtime.finalize",),
    "p2p.send_s": ("p2p.send", "p2p.sendrecv"),
    "p2p.recv_wait_s": ("p2p.recv_wait",),
    "coll.allreduce_s": ("coll.allreduce",),
    "coll.barrier_s": ("coll.barrier",),
    "coll.allgather_s": ("coll.allgather",),
    "icoll.issue_s": ("icoll.issue",),
    "icoll.wait_s": ("icoll.wait",),
    "rma.put_s": ("rma.put",),
    "rma.get_s": ("rma.get",),
    "rma.accumulate_s": ("rma.accumulate",),
    "rma.fence_s": ("rma.fence",),
    "hls.attach_s": ("hls.attach",),
    "hls.single_s": ("hls.single",),
    "hls.barrier_s": ("hls.barrier",),
    "service.submit_s": ("service.submit",),
}

#: per-layer counts copied straight from the canonical-unit counters
COUNT_METRICS = (
    "memsim.access_run_calls", "memsim.accesses",
    "p2p.messages", "p2p.elided_bytes",
    "coll.episodes", "coll.clones",
    "icoll.episodes", "icoll.cells", "icoll.steals",
    "sched.decisions", "sched.parks", "sched.notify_wakes",
    "sched.context_switches",
    "rma.staged_bytes", "rma.chunk_lock_waits",
    "storage.commits", "storage.spills", "storage.faults",
    "storage.written_bytes", "storage.read_bytes",
    "memory.peak_node_bytes",
    "scheduler.chunks_stolen",
    "service.rejected",
)

#: workload measurements reported as they are (0 where not measured)
EXTRA_METRICS = {
    "service.queue_wait_ms_p50": "ms",
    "service.queue_wait_ms_p99": "ms",
    "service.job_run_ms_p50": "ms",
    "bench.generator_late_ms_p99": "ms",
    "bench.serial_iter_ms": "ms",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(untraced: Phase, traced: Phase, tracer) -> Dict[str, Dict[str, Any]]:
    """Every per-layer metric, from the traced phase's spans and counts;
    the untraced phase only feeds the tracing-overhead ratio."""
    totals, op_self, op_total = tracer.self_times()
    n_ops = max(1, tracer.n_ops())
    c = traced.counts
    out: Dict[str, Dict[str, Any]] = {}
    for name, spans in TIME_METRICS.items():
        out[name] = {"value": sum(totals.get(s, 0.0) for s in spans) / n_ops,
                     "unit": "s"}
    # one restore ends a run: reported whole, not per op
    out["storage.restore_s"] = {"value": totals.get("storage.restore", 0.0),
                                "unit": "s"}
    for name in COUNT_METRICS:
        out[name] = {"value": c.get(name, 0), "unit": "count"}
    out["p2p.comparisons_per_delivery"] = {
        "value": _ratio(c.get("p2p.comparisons", 0), c.get("p2p.delivered", 0)),
        "unit": "ratio"}
    out["rma.zero_copy_fraction"] = {
        "value": _ratio(c.get("rma.zero_copy_bytes", 0), c.get("rma.bytes", 0)),
        "unit": "ratio"}
    busy = c.get("scheduler.busy_s", 0.0)
    out["scheduler.busy_fraction"] = {
        "value": _ratio(busy, busy + c.get("scheduler.idle_s", 0.0)),
        "unit": "ratio"}
    for name, unit in EXTRA_METRICS.items():
        out[name] = {"value": traced.extra.get(name, 0.0), "unit": unit}
    # the tail moves with the host too much to bear a bound: reported
    # here, from the untraced half, without one
    out["tail.op_ms_p90"] = {"value": untraced.best_percentile_ms(90),
                             "unit": "ms"}
    out["bench.trace_overhead_ratio"] = {
        "value": _ratio(untraced.best_rate(), traced.best_rate()),
        "unit": "ratio"}
    out["bench.unattributed_share"] = {
        "value": _ratio(op_self, op_total), "unit": "ratio"}
    return out


def end_to_end(phase: Phase) -> Dict[str, Dict[str, Any]]:
    return {
        "setup_s": {"value": statistics.median(phase.setup_times), "unit": "s"},
        "ops_per_s": {"value": phase.best_rate(), "unit": "1/s"},
        "op_ms_p50": {"value": phase.best_percentile_ms(50), "unit": "ms"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        "node_mem_mb": {"value": phase.extra["node_mem_mb"], "unit": "MB"},
    }
