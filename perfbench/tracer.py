"""In-memory span tracer that times calls into each layer of the runtime.

Nothing under ``src/`` is instrumented.  While a :class:`Tracer` is
installed it replaces public methods of the layer classes
(``Runtime``, ``Comm``, ``Request``, ``Win``, ``HLSProgram``,
``CacheHierarchy``, ``JobManager``, ...) with thin wrappers that record
one span per call: ``(span id, name, start, end, parent id, op id)``.
Uninstalling restores the original attributes, so the untraced phase of
a run executes exactly the shipped code.

Parent links: a span's parent is the innermost open span on the same
thread.  A thread with no open span takes the context it inherited:
``Runtime.run`` hands the caller's span to every task thread it
launches, and the job service's ``on_start`` hook hands a job's op span
to its worker thread.

Self time of a span is its duration minus the union of the intervals
its children cover, clipped to the span.  Spans are kept in memory and
analysed when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

now = time.monotonic          # the clock the job service stamps jobs with

#: (span id, name, start, end, parent id, op id)
Span = Tuple[int, str, float, float, Optional[int], Optional[int]]
Context = Tuple[Optional[int], Optional[int]]      # (parent span, op id)


def _union_length(intervals: List[Tuple[float, float]]) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _wait_name(requests) -> str:
    """A wait is charged to the layer that issued the request."""
    from repro.runtime.icoll import CollectiveRequest

    if any(isinstance(r, CollectiveRequest) for r in requests):
        return "icoll.wait"
    return "p2p.recv_wait"


class Tracer:
    """Span recorder plus the method patches that feed it."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._count_lock = threading.Lock()
        self.counts: Dict[str, int] = defaultdict(int)
        #: runtimes constructed while ``collect_runtimes`` is set
        self.runtimes: List[Any] = []
        self.collect_runtimes = False
        self._undo: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------ spans
    def new_id(self) -> int:
        return next(self._ids)

    def _stack(self) -> List[Context]:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def inherit(self, ctx: Optional[Context]) -> None:
        """Set the (parent span, op id) context of the calling thread."""
        self._local.inherited = ctx

    def context(self) -> Context:
        """(parent span, op id) a span opened now on this thread gets."""
        st = self._stack()
        if st:
            return st[-1]
        inh = getattr(self._local, "inherited", None)
        return inh if inh is not None else (None, None)

    def open(self, name: str, ctx: Optional[Context] = None) -> list:
        parent, op = self.context() if ctx is None else ctx
        sid = next(self._ids)
        self._stack().append((sid, op))
        return [sid, name, now(), parent, op]

    def close(self, rec: list) -> None:
        end = now()
        self._stack().pop()
        self.spans.append((rec[0], rec[1], rec[2], end, rec[3], rec[4]))

    def add(self, sid: int, name: str, start: float, end: float,
            parent: Optional[int], op: Optional[int]) -> None:
        """Record a span whose interval was measured elsewhere (a job's
        submit-to-finish time, stamped by the job service)."""
        self.spans.append((sid, name, start, end, parent, op))

    @contextlib.contextmanager
    def span(self, name: str, op: Optional[int] = None):
        """A span around a block; with ``op`` it is that op's root."""
        parent, inherited = self.context()
        rec = self.open(name, (parent, inherited if op is None else op))
        try:
            yield rec
        finally:
            self.close(rec)

    def count(self, name: str, n: int = 1) -> None:
        with self._count_lock:
            self.counts[name] += n

    # ---------------------------------------------------------- patches
    def _traced(self, fn: Callable, name: Union[str, Callable[..., str]],
                before: Optional[Callable[..., None]] = None) -> Callable:
        """``fn`` wrapped in a span; ``name`` may be computed from the
        call's arguments."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            rec = tracer.open(name if isinstance(name, str) else name(*args))
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(rec)

        return traced

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrap(self, owner: Any, attr: str, name, before=None) -> None:
        self._set(owner, attr, self._traced(owner.__dict__[attr], name, before))

    def install(self) -> "Tracer":
        from repro import scheduler
        from repro.apps import gadget, tachyon
        from repro.hls.program import HLSHandle, HLSProgram
        from repro.memsim import CacheHierarchy, TimingModel
        from repro.runtime.communicator import Comm
        from repro.runtime.request import Request
        from repro.runtime.rma import Win
        from repro.runtime.runtime import Runtime
        from repro.service.manager import JobManager

        tracer = self

        # runtime: construct / run / finalize; run hands its span to
        # every task thread it launches
        self.wrap(Runtime, "__init__", "runtime.construct",
                  before=self._collect_runtime)
        run = Runtime.__dict__["run"]

        @functools.wraps(run)
        def traced_run(rt, main, *args, **kwargs):
            rec = tracer.open("runtime.run")
            ctx = (rec[0], rec[4])

            def task_main(task_ctx, *a, **k):
                tracer.inherit(ctx)
                try:
                    return main(task_ctx, *a, **k)
                finally:
                    tracer.inherit(None)

            try:
                return run(rt, task_main, *args, **kwargs)
            finally:
                tracer.close(rec)

        self._set(Runtime, "run", traced_run)
        self.wrap(Runtime, "finalize", "runtime.finalize")
        self.wrap(Runtime, "restore_storage", "storage.restore")

        # point-to-point
        self.wrap(Comm, "send", "p2p.send")
        self.wrap(Comm, "recv", "p2p.recv_wait")
        self.wrap(Comm, "sendrecv", "p2p.sendrecv")

        # blocking collectives
        for attr in ("allreduce", "barrier", "allgather"):
            self.wrap(Comm, attr, f"coll.{attr}")
        for attr in ("bcast", "gather", "scatter", "reduce", "scan",
                     "alltoall", "reduce_scatter"):
            self.wrap(Comm, attr, "coll.other")

        # nonblocking collectives: issue here, wait on the request
        for attr in ("ibarrier", "ibcast", "ireduce", "iallreduce",
                     "igather", "iallgather", "ialltoall",
                     "ineighbor_exchange"):
            self.wrap(Comm, attr, "icoll.issue")
        self.wrap(Request, "wait", lambda req, *a: _wait_name([req]))
        for attr in ("waitall", "waitany"):
            fn = Request.__dict__[attr].__func__
            self._set(Request, attr, staticmethod(
                self._traced(fn, lambda reqs, *a: _wait_name(reqs))))

        # one-sided
        for attr in ("put", "get", "accumulate", "fence"):
            self.wrap(Win, attr, f"rma.{attr}")
        self.wrap(Win, "fence_end", "rma.fence")
        for attr in ("fetch_and_op", "compare_and_swap"):
            self.wrap(Win, attr, "rma.atomic")

        # HLS directives
        self.wrap(HLSProgram, "attach", "hls.attach")
        self.wrap(HLSHandle, "single_enter", "hls.single")
        self.wrap(HLSHandle, "single_done", "hls.single")
        self.wrap(HLSHandle, "barrier", "hls.barrier")

        # self-scheduling: the apps import dynamic_for by name
        dyn = self._traced(scheduler.__dict__["dynamic_for"],
                           "scheduler.dynamic_for")
        for mod in (scheduler, gadget, tachyon):
            self._set(mod, "dynamic_for", dyn)

        # cache simulator
        self.wrap(CacheHierarchy, "access_run", "memsim.access_run",
                  before=self._count_access_run)
        self.wrap(TimingModel, "run_timing", "memsim.run_timing")

        # job service
        self.wrap(JobManager, "submit", "service.submit")
        return self

    def _collect_runtime(self, rt, *args, **kwargs) -> None:
        if self.collect_runtimes:
            self.runtimes.append(rt)

    def _count_access_run(self, hier, pu, lines, *args, **kwargs) -> None:
        self.count("memsim.access_run_calls")
        self.count("memsim.accesses", len(lines))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # --------------------------------------------------------- analysis
    def self_times(self) -> Tuple[Dict[str, float], float, float]:
        """Per-name total self time, plus the summed self time and
        duration of the op root spans (named ``op``)."""
        by_id = {s[0]: s for s in self.spans}
        children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
        for sid, _name, start, end, parent, _op in self.spans:
            if parent is not None and parent in by_id:
                children[parent].append((start, end))
        totals: Dict[str, float] = defaultdict(float)
        op_self = op_total = 0.0
        for sid, name, start, end, _parent, _op in self.spans:
            kids = [
                (max(lo, start), min(hi, end))
                for lo, hi in children.get(sid, ())
                if hi > start and lo < end
            ]
            own = (end - start) - _union_length(kids)
            totals[name] += own
            if name == "op":
                op_self += own
                op_total += end - start
        return dict(totals), op_self, op_total

    def n_ops(self) -> int:
        return sum(1 for s in self.spans if s[1] == "op")


def maybe_op(tracer: Optional[Tracer], op_id: int):
    """The root span of one op, or nothing on untraced runs."""
    return tracer.span("op", op_id) if tracer is not None else contextlib.nullcontext()


def maybe_span(tracer: Optional[Tracer], name: str):
    """``tracer.span(name)``, or nothing on untraced runs."""
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


__all__ = ["Tracer", "maybe_op", "maybe_span", "now"]
