"""The HLS runtime benchmark: one command, four workloads.

    python3 perfbench/run.py --workload solver_loop --seed 1 --seconds 15 --trace 0

Workloads (see each module's docstring and ``BENCHMARK.json``):

* ``paper_tables``  -- the paper's Tables I-IV and Figure 3 drivers;
* ``solver_loop``   -- distributed CG, latency-bound small collectives;
* ``window_epochs`` -- fenced RMA epochs on memory and storage windows;
* ``job_stream``    -- short jobs through the in-process job service.

A run repeats one fixed unit of the workload's work (a solve, a pass, a round of jobs, a
block of epochs), each on a fresh set-up and on one CPU, until its
time is up.  The host is shared, and other tenants' load only ever
slows a stretch down, so ``ops_per_s``, ``op_ms_p50`` and the per-layer
``tail.op_ms_p90`` are taken per stretch and reported for the least
disturbed one;
``setup_s`` is the median of the run's set-ups.

``--trace 0`` measures with nothing instrumented and reports the
end-to-end metrics.  ``--trace 1`` measures half the time untraced and
half with the span tracer installed (``tracer.py``), and reports the
per-layer metrics; the best-stretch throughput ratio of the halves is
``bench.trace_overhead_ratio``.  Per-layer times are task-seconds of
self time per op; counts are exact totals over one canonical unit of
work (one pass, one solve, the epochs up to the first checkpoint, the
first jobs).

Every run checks its outputs.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the
environment fingerprint is printed on the line before it.  The exit
code is 0 only when every correctness gate held.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

def make_workload(name: str, seed: int):
    if name == "paper_tables":
        from paper_tables import PaperTables
        return PaperTables(seed)
    if name == "solver_loop":
        from solver_loop import SolverLoop
        return SolverLoop(seed)
    if name == "window_epochs":
        from window_epochs import WindowEpochs
        return WindowEpochs(seed, scratch=os.path.join(ROOT, ".bench_tmp"))
    if name == "job_stream":
        from job_stream import JobStream
        return JobStream(seed)
    raise SystemExit(f"unknown workload {name!r}")


WORKLOADS = ("paper_tables", "solver_loop", "window_epochs", "job_stream")


def run(workload, seconds: float, trace: bool):
    """Measure and check one workload; returns
    ``(correct, attempted, failed, metrics, errors)``."""
    from harness import end_to_end, per_layer
    from tracer import Tracer

    try:
        if not trace:
            phase = workload.measure(seconds)
            errors = phase.errors + workload.finish()
            metrics = end_to_end(phase)
            attempted, failed = phase.attempted, phase.failed
        else:
            untraced = workload.measure(seconds / 2)
            with Tracer() as tracer:
                traced = workload.measure(seconds / 2, tracer)
                errors = untraced.errors + traced.errors + workload.finish()
            metrics = per_layer(untraced, traced, tracer)
            attempted = untraced.attempted + traced.attempted
            failed = untraced.failed + traced.failed
    finally:
        workload.close()
    if errors and not failed:
        failed = 1
    if trace:
        metrics["bench.error_rate"] = {"value": failed / max(attempted, 1),
                                       "unit": "ratio"}
    return not errors, attempted, failed, metrics, errors


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from harness import fingerprint

    workload = make_workload(args.workload, args.seed)
    correct, attempted, failed, metrics, errors = run(
        workload, args.seconds, bool(args.trace))
    for err in errors:
        print(f"perfbench: FAILED GATE: {err}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name:34s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"env": fingerprint(args.workload, args.seed,
                                         args.seconds, bool(args.trace))}))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
