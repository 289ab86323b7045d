"""``job_stream``: short jobs through the in-process job service.

Small cooperative-scheduler jobs (``ring``, ``allreduce``,
``hls_table``, ``alloc_churn``; 8 tasks, hierarchical collectives,
both sharings) go to one ``JobManager(max_workers=2)`` from one
generator thread.  A stretch is one round on a fresh service, in two
parts:

* ``OPEN_JOBS`` jobs in an open loop at a fixed rate (independent
  users): each job is timed
  from when it was due, so a stall also charges the jobs queued behind
  it, and the generator's own lateness is reported;
* ``CLOSED_JOBS`` jobs from a closed saturation loop (a fixed number of
  clients, each submitting its next job when the previous one
  finished): the service's throughput.

Every round runs each job kind equally often, in an order drawn from
the seed.  Runtime construction and
finalize, admission and queueing sit on every job's critical path, so
this is the only workload that measures the service layer.  Every job
must complete with results bit-identical to the same job run alone,
which the set-up measures first.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Any, Dict, List, Tuple

import numpy as np

from harness import (
    MIB, Phase, Stretch, add_counts, percentile_ms, snapshot_counts,
    stretches, timed,
)
from tracer import now

APPS = ("ring", "allreduce", "hls_table", "alloc_churn")
SHARINGS = ("private", "shared")
PARAM_SEEDS = 2
TASKS = 8
FOOTPRINT = 1 << 20
#: admission capacity, in footprints: jobs past it wait in the queue
ADMIT = 4
#: open-loop arrival rate (jobs/s), well under the saturation rate
RATE = 40.0
#: jobs of a round's open loop: every job kind equally often
OPEN_JOBS = 64
#: outstanding jobs in the closed loop
CLIENTS = 4
#: jobs of a round's closed loop: every job kind equally often
CLOSED_JOBS = 256
#: the first jobs of a phase whose counters are reported exactly
COUNT_JOBS = 16


def _params(app: str, pseed: int) -> Dict[str, Any]:
    if app == "alloc_churn":
        return {"nbytes": 4096 * (pseed + 1), "iters": 4}
    return {"seed": pseed, "elems": 64}


class JobStream:
    name = "job_stream"

    def __init__(self, seed: int) -> None:
        self.kinds = [(a, s, p) for a in APPS for s in SHARINGS
                      for p in range(PARAM_SEEDS)]
        self.seed = seed
        self.phases = 0
        self.jm = None
        self.baseline: Dict[Tuple[str, str, int], Any] = {}
        self.op_id = 0
        #: id(spec) -> (op span, op id) of the job being traced
        self._op_ctx: Dict[int, Tuple[int, int]] = {}

    def _spec(self, kind):
        from repro.service import JobSpec

        app, sharing, pseed = kind
        return JobSpec(
            app=app, n_tasks=TASKS, backend="coop", sharing=sharing,
            algorithm="hierarchical", params=_params(app, pseed),
            footprint_bytes=FOOTPRINT, timeout=60.0,
        )

    # ------------------------------------------------------------- setup
    def setup(self) -> None:
        """A fresh service, and every job kind run alone on it."""
        from repro.service import JobManager

        self._teardown()
        self.jm = JobManager(capacity_bytes=ADMIT * FOOTPRINT,
                             queue_limit=256, max_workers=2)
        for kind in self.kinds:
            job = self.jm.wait(self.jm.submit(self._spec(kind)), timeout=60.0)
            if job.state != "completed":
                raise RuntimeError(f"solo {kind} job failed: {job.error!r}")
            self.baseline[kind] = job.results

    def _teardown(self) -> None:
        if self.jm is not None:
            self.jm.shutdown(timeout=60.0)
            self.jm = None

    def close(self) -> None:
        self._teardown()

    # ----------------------------------------------------------- measure
    def _submit(self, kind, due: float, tracer, ops: list) -> None:
        from repro.service import AdmissionError, QueueFullError

        spec = self._spec(kind)
        # (op span, op id): the parent context of the job's spans
        op = (tracer.new_id() if tracer is not None else None, self.op_id)
        self.op_id += 1
        if tracer is not None:
            self._op_ctx[id(spec)] = op
            tracer.inherit(op)
        try:
            job = self.jm.submit(spec)
        except (AdmissionError, QueueFullError):
            job = None
        finally:
            if tracer is not None:
                tracer.inherit(None)
        ops.append((kind, due, job, op))

    def measure(self, seconds: float, tracer=None) -> Phase:
        """Rounds until ``seconds`` have passed, each one a stretch on a
        fresh service."""
        setup_times: List[float] = []
        rounds: List[tuple] = []
        phase = self.phases
        self.phases += 1

        def unit() -> Stretch:
            self._teardown()
            timed(self.setup, setup_times)
            # each round draws its own order, so a round's jobs do not
            # depend on how many rounds ran before it
            rng = np.random.default_rng([self.seed, phase, len(rounds)])
            rounds.append(self._round(rng, tracer))
            _open, closed, _late, start_closed = rounds[-1]
            lat = [job.finished_at - due for _k, due, job, _op in _open
                   if job is not None and job.state == "completed"]
            done = [job.finished_at - start_closed
                    for _k, _due, job, _op in closed
                    if job is not None and job.state == "completed"]
            return Stretch(lat, len(done), max(done, default=0.0))

        runs = stretches(seconds, unit)
        return self._phase(runs, setup_times, rounds, tracer)

    def _mix(self, rng, n: int) -> list:
        """``n`` jobs, every kind equally often, in a seeded order."""
        kinds = self.kinds * (n // len(self.kinds))
        return [kinds[i] for i in rng.permutation(len(kinds))]

    def _round(self, rng, tracer) -> tuple:
        """``OPEN_JOBS`` jobs at ``RATE``, then ``CLOSED_JOBS`` jobs from
        ``CLIENTS`` closed-loop clients, on the current service."""
        jm = self.jm
        open_mix, closed_mix = self._mix(rng, OPEN_JOBS), self._mix(rng, CLOSED_JOBS)
        self._op_ctx.clear()
        if tracer is not None:
            def on_start(job):
                tracer.inherit(self._op_ctx.get(id(job.spec)))
            jm.on_start = on_start
        try:
            # open loop: job i is due at start + i / rate
            open_ops: List[tuple] = []
            late: List[float] = []
            start = now()
            for i in range(OPEN_JOBS):
                due = start + i / RATE
                wait = due - now()
                if wait > 0:
                    time.sleep(wait)
                late.append(now() - due)
                self._submit(open_mix[i], due, tracer, open_ops)
            jm.drain(timeout=120.0)

            # closed loop: CLIENTS jobs outstanding until all are sent
            closed_ops: List[tuple] = []
            start_closed = now()
            inflight: deque = deque()
            while True:
                while len(inflight) < CLIENTS and len(closed_ops) < CLOSED_JOBS:
                    self._submit(closed_mix[len(closed_ops)], now(),
                                 tracer, closed_ops)
                    inflight.append(closed_ops[-1][2])
                if not inflight:
                    break
                job = inflight.popleft()
                if job is not None:
                    jm.wait(job, timeout=120.0)
            jm.drain(timeout=120.0)
        finally:
            jm.on_start = None
        return open_ops, closed_ops, late, start_closed

    def _phase(self, runs, setup_times, rounds, tracer) -> Phase:
        failed, errors = 0, []
        attempted = rejected = 0
        waits: List[float] = []
        jobs_run: List[float] = []
        late: List[float] = []
        node_bytes = 0
        counts: Dict[str, float] = {}
        for r, (open_ops, closed_ops, round_late, _start) in enumerate(rounds):
            late.extend(round_late)
            attempted += len(open_ops) + len(closed_ops)
            for n, (kind, due, job, op) in enumerate(open_ops + closed_ops):
                if job is None:
                    rejected += 1
                    failed += 1
                    continue
                if job.state != "completed":
                    failed += 1
                    errors.append(f"job {job.id} {kind}: {job.state} {job.error!r}")
                    continue
                if job.results != self.baseline[kind]:
                    failed += 1
                    errors.append(f"job {job.id} {kind}: results differ from "
                                  "the same job run alone")
                waits.append(job.started_at - job.submitted_at)
                jobs_run.append(job.run_s)
                per_node = job.metrics["memory"]["per_node"].values()
                node_bytes = max(node_bytes, max(per_node, default=0))
                if r == 0 and n < COUNT_JOBS:
                    counts = add_counts(counts, snapshot_counts(job.metrics))
                if tracer is not None:
                    sid, op_id = op
                    tracer.add(sid, "op", due, job.finished_at, None, op_id)
                    tracer.add(tracer.new_id(), "service.queue",
                               job.submitted_at, job.started_at, sid, op_id)
        counts["memory.peak_node_bytes"] = node_bytes
        counts["service.rejected"] = rejected
        return Phase(
            stretches=runs, setup_times=setup_times, attempted=attempted,
            failed=failed, counts=counts,
            extra={
                "node_mem_mb": node_bytes / MIB,
                "service.queue_wait_ms_p50": percentile_ms(waits, 50),
                "service.queue_wait_ms_p99": percentile_ms(waits, 99),
                "service.job_run_ms_p50": percentile_ms(jobs_run, 50),
                "bench.generator_late_ms_p99": percentile_ms(late, 99),
            },
            errors=errors,
        )

    def finish(self) -> List[str]:
        return []
