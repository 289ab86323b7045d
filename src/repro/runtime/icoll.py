"""Nonblocking collectives: a dataflow cell engine with chunk pipelining.

Every ``Comm.i*`` collective deposits its contribution into a shared
per-communicator :class:`IcollState` and returns a
:class:`CollectiveRequest` immediately.  When the last rank has
deposited, the episode is compiled into a DAG of *cells* -- one bounded
unit of data movement each (copy one chunk along one tree edge, fold one
rank's chunk into a running partial, deliver one result).  Cells then
execute inside whichever rank happens to be testing or waiting on its
request: ``test()`` drains ready cells and returns, ``wait()`` parks
event-driven between bursts, and a rank that is busy computing has its
cells *stolen* by the ranks that are waiting -- so the collective makes
progress exactly while the application overlaps it with computation.

Three algorithms, selected per call, per runtime default, or by the
measured-trajectory tuner (``Runtime(algorithm="auto")``, see
:mod:`repro.runtime.autotune`):

* ``flat`` -- direct source->destination cells, whole payloads;
* ``hierarchical`` -- cells follow the topology tree of
  :func:`repro.machine.treemap.collective_levels`, store-and-forward
  (each tree hop moves the whole payload);
* ``pipelined`` -- the hierarchical tree with large contiguous numpy
  payloads split into chunks, so chunk *k+1* streams into level *L*
  while chunk *k* drains level *L+1* (Zhou et al., arXiv:2007.06892).

Reductions chunk only for the elementwise builtin ops (fold order per
element is then identical to the blocking engines' ascending-rank fold,
so results stay bit-identical); any other op, and any payload too small
to chunk, folds in one fused cell owned by the last depositor.

Waiting is targeted: a rank parked in ``wait()`` sleeps on its own
condition and is signalled only when a cell it owns becomes ready, a
ready cell's owner is outside the engine (a parked rank steals it), its
own output completes, the episode fails, or the job aborts.

Time is modeled, not measured: when ``Runtime.icoll_link_time_per_mib``
is nonzero every cell sleeps (virtually, under ``backend="coop"``) in
proportion to the bytes it moves, and cells sharing a sending port
serialise -- the single-port model that makes store-and-forward vs
pipelined measurable and deterministic in ``BENCH_collectives.json``.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.machine.treemap import TreeLevel
from repro.metrics.collectives import CollectiveMetrics
from repro.runtime.abort import note_abort, subscribe_abort
from repro.runtime.errors import (
    AbortError,
    CountMismatchError,
    DeadlockError,
    MPIError,
)
from repro.runtime.message import Status
from repro.runtime.ops import MAX, MIN, PROD, SUM, Op
from repro.runtime.payload import clone_would_copy, payload_nbytes
from repro.runtime.request import Request

#: default chunk size for the pipelined algorithm
DEFAULT_CHUNK_BYTES = 64 << 10

#: builtin ops safe to fold chunk-by-chunk: elementwise, argument-
#: non-mutating and dtype-preserving for same-dtype inputs.  A custom op
#: may opt in by setting ``op.elementwise = True`` and honouring the
#: same contract.
_ELEMENTWISE_OPS = (SUM, PROD, MAX, MIN)

#: cap on one condition wait (see collectives._ABORT_TICK)
_ABORT_TICK = 1.0

# cell states
_WAITING, _READY, _RUNNING, _DONE = 0, 1, 2, 3

_KINDS = (
    "ibarrier", "ibcast", "ireduce", "iallreduce", "igather",
    "iallgather", "ialltoall", "ineighbor_exchange",
)


def _is_elementwise(op: Op) -> bool:
    return op in _ELEMENTWISE_OPS or bool(getattr(op, "elementwise", False))


def _chunk_slices(arr: np.ndarray, chunk_bytes: int) -> List[slice]:
    """Slices of the flattened array, each about ``chunk_bytes`` big."""
    per = max(1, chunk_bytes // max(1, arr.itemsize))
    return [slice(i, min(i + per, arr.size)) for i in range(0, arr.size, per)]


class _Cell:
    """One bounded unit of collective data movement."""

    __slots__ = ("fn", "owner", "ndeps", "dependents", "state", "gates",
                 "link_s")

    def __init__(self, fn: Callable[[], None], owner: int) -> None:
        self.fn = fn
        #: preferred executor (its data moves); others may steal when
        #: the owner is not currently engaged in the engine
        self.owner = owner
        self.ndeps = 0
        self.dependents: List[int] = []
        self.state = _WAITING
        #: ranks whose request must not complete before this cell runs
        #: (the rank receiving its output, and the rank whose live
        #: buffer the cell reads -- send-buffer safety)
        self.gates: Tuple[int, ...] = ()
        #: modeled link occupancy of this cell (seconds)
        self.link_s = 0.0


class _Episode:
    """One in-flight nonblocking collective on one communicator."""

    __slots__ = (
        "seq", "kind", "root", "op", "req_algorithm", "req_chunk",
        "algorithm", "chunk_bytes", "contrib", "arrived", "n_arrived",
        "planned", "cells", "ready", "results", "gates_left", "collected",
        "failed",
    )

    def __init__(
        self, size: int, seq: int, kind: str, root: int, op: Optional[Op],
        req_algorithm: Optional[str], req_chunk: Optional[int],
    ) -> None:
        self.seq = seq
        self.kind = kind
        self.root = root
        self.op = op
        # the creating rank's requested algorithm/chunk (None = let the
        # runtime's selector decide at plan time, when payload sizes
        # are known); ranks must agree on explicit overrides
        self.req_algorithm = req_algorithm
        self.req_chunk = req_chunk
        self.algorithm = "?"
        self.chunk_bytes = 0
        self.contrib: List[Any] = [None] * size
        self.arrived = [False] * size
        self.n_arrived = 0
        self.planned = False
        self.cells: List[_Cell] = []
        self.ready: List[int] = []
        self.results: List[Any] = [None] * size
        self.gates_left = [0] * size
        self.collected = [False] * size
        #: exception that poisoned the episode (peer crash mid-cell)
        self.failed: Optional[BaseException] = None


class _PlanBuilder:
    """Adds cells to an episode, wiring dependencies, completion gates
    and single-port serialisation (cells sharing a ``port`` run in plan
    order -- one send at a time per sender, like a NIC)."""

    def __init__(self, ep: _Episode, link_s_per_byte: float) -> None:
        self.ep = ep
        self.link = link_s_per_byte
        self._last_port: Dict[Any, int] = {}

    def add(
        self,
        fn: Callable[[], None],
        *,
        owner: int,
        deps: Sequence[int] = (),
        port: Any = None,
        gates: Sequence[int] = (),
        nbytes: int = 0,
    ) -> int:
        ep = self.ep
        idx = len(ep.cells)
        cell = _Cell(fn, owner)
        dep_set = set(deps)
        if port is not None:
            prev = self._last_port.get(port)
            if prev is not None:
                dep_set.add(prev)
            self._last_port[port] = idx
        for d in dep_set:
            ep.cells[d].dependents.append(idx)
        cell.ndeps = len(dep_set)
        cell.gates = tuple(set(gates))
        for r in cell.gates:
            ep.gates_left[r] += 1
        cell.link_s = self.link * nbytes
        ep.cells.append(cell)
        if cell.ndeps == 0:
            cell.state = _READY
            ep.ready.append(idx)
        return idx


class IcollState:
    """Shared nonblocking-collective engine of one communicator.

    Constructor mirrors
    :class:`~repro.runtime.collectives.HierarchicalCollectiveState`;
    extras: ``sleep`` (the runtime's task sleep, used for the modeled
    link time), ``link_time`` (callable returning seconds per MiB per
    cell) and ``selector`` (callable ``(kind, nbytes, size) ->
    (algorithm, chunk_bytes)`` consulted when a call does not pin the
    algorithm explicitly).

    Wake rules: a rank parked in ``wait()`` is signalled only when a
    cell it owns becomes ready, when a ready cell's owner is outside the
    engine (one parked rank is woken to steal it -- at plan time, or
    when the owner leaves test/wait with ready cells still queued), when
    its own completion gates reach zero, when the episode fails, and on
    abort.  ``waitany`` parkers wait on the engine lock and are woken by
    plans, cell completions and failures."""

    def __init__(
        self,
        size: int,
        abort_flag: threading.Event,
        *,
        timeout: float = 30.0,
        clone: Callable[[Any], Any] = lambda x: x,
        metrics: Optional[CollectiveMetrics] = None,
        levels: Optional[Sequence[TreeLevel]] = None,
        group: Optional[Tuple[int, ...]] = None,
        share: Optional[Callable[[int, int], bool]] = None,
        faults: Optional[Any] = None,
        make_cond: Optional[Callable[[], Any]] = None,
        clock: Optional[Callable[[], float]] = None,
        sleep: Optional[Callable[[float], None]] = None,
        link_time: Optional[Callable[[], float]] = None,
        selector: Optional[Callable[..., Tuple[str, int]]] = None,
        owner: Optional[Any] = None,
    ) -> None:
        if size < 1:
            raise ValueError("communicator size must be >= 1")
        self.size = size
        self._abort = abort_flag
        self._timeout = timeout
        self._clone = clone
        self.metrics = metrics if metrics is not None else CollectiveMetrics()
        self.faults = faults
        self._make_cond = make_cond if make_cond is not None else threading.Condition
        import time as _time

        self._clock = clock if clock is not None else _time.monotonic
        self._sleep = sleep
        self._link_time = link_time
        self._selector = selector
        #: the runtime this state answers to (waitany park-owner check)
        self.owner = owner
        if levels is None:
            levels = [TreeLevel("comm", (tuple(range(size)),))]
        self.levels = list(levels)
        self.group = group if group is not None else tuple(range(size))
        if len(self.group) != size:
            raise MPIError(
                f"group of {len(self.group)} ranks for size-{size} state"
            )
        self._share = share
        #: the engine lock; ``waitany`` parkers (park_for_progress) wait
        #: on it, ranks inside ``wait()`` park on their own condition
        self._cond = self._make_cond()
        self._episodes: Dict[int, _Episode] = {}
        #: bumped on every arrival and cell completion: the waitany park
        #: token and the progress measure for deadline extension
        self._progress_count = 0
        #: ranks currently inside test/wait of this engine (their ready
        #: cells are left for them; a non-engaged owner's cells may be
        #: stolen so an owner busy computing never stalls the DAG)
        self._engaged = [0] * size
        #: per-rank wake conditions and signal counters: a signal bumps
        #: the counter under the engine lock, then notifies; a waiter
        #: parks only while its counter still reads what it saw under
        #: the engine lock, so no signal is ever lost
        self._rank_cond = [self._make_cond() for _ in range(size)]
        self._signals = [0] * size
        #: ranks parked in ``wait()`` and not yet signalled, in park
        #: order (a dict used as an ordered set)
        self._parked: Dict[int, None] = {}
        #: ``waitany`` parkers currently waiting on ``self._cond``; with
        #: none, cell completions skip the notify and a rank leaving the
        #: engine skips its stranded-cell scan
        self._progress_parkers = 0
        subscribe_abort(abort_flag, self._wake_all)

    # ------------------------------------------------------------------ wakes
    def _signal(self, rank: int) -> None:
        """Wake ``rank`` if it is parked in ``wait()`` and not yet
        signalled.  Under ``self._cond``."""
        if rank not in self._parked:
            return
        del self._parked[rank]
        self._signals[rank] += 1
        cond = self._rank_cond[rank]
        with cond:
            cond.notify()

    def _kick_progress(self) -> None:
        """Wake the ``waitany`` parkers.  Under ``self._cond``."""
        if self._progress_parkers:
            self._cond.notify_all()

    def _wake_all(self) -> None:
        """Release every parked waiter (abort, failure, injected
        spurious wakeups)."""
        with self._cond:
            for r in list(self._parked):
                self._signal(r)
            self._cond.notify_all()

    def _wake_stealer(self) -> None:
        """Wake the longest-parked rank to steal a ready cell whose
        owner is outside the engine.  Under ``self._cond``."""
        if self._parked:
            self._signal(next(iter(self._parked)))

    def _announce_ready(self, ep: _Episode, idx: int) -> None:
        """A cell became ready: signal its owner if parked, or a
        stealer if the owner is outside the engine (an engaged owner
        that is running rescans before it parks).  Under
        ``self._cond``."""
        cell = ep.cells[idx]
        if cell.owner in self._parked:
            self._signal(cell.owner)
        elif self._engaged[cell.owner] == 0:
            self._wake_stealer()

    def _enter(self, rank: int) -> None:
        with self._cond:
            self._engaged[rank] += 1

    def _leave(self, rank: int) -> None:
        """Leave test/wait.  Cells that became ready for ``rank`` while
        it was inside but busy were announced to no one; hand them to a
        parked rank now."""
        with self._cond:
            self._engaged[rank] -= 1
            if self._engaged[rank] or not (
                self._parked or self._progress_parkers
            ):
                return
            for ep in self._episodes.values():
                if not ep.planned or ep.failed is not None:
                    continue
                for idx in ep.ready:
                    if ep.cells[idx].owner == rank:
                        self._wake_stealer()
                        self._kick_progress()
                        return

    # ------------------------------------------------------------------ utils

    def _do_clone(self, obj: Any) -> Any:
        new = self._clone(obj)
        if new is not obj:
            self.metrics.note_clone()
        return new

    def _link_s_per_byte(self) -> float:
        if self._link_time is None:
            return 0.0
        return float(self._link_time()) / float(1 << 20)

    def _may_share(self, src: int, dst: int) -> bool:
        return self._share is not None and self._share(
            self.group[src], self.group[dst]
        )

    def _deliver_ref(self, ep: _Episode, obj: Any, dst: int) -> None:
        """Prefill a zero-copy by-reference delivery at plan time."""
        if clone_would_copy(obj):
            self.metrics.note_elision()
        ep.results[dst] = obj

    # ------------------------------------------------------------------ start
    def start(
        self,
        seq: int,
        kind: str,
        rank: int,
        payload: Any,
        *,
        root: int = 0,
        op: Optional[Op] = None,
        algorithm: Optional[str] = None,
        chunk_bytes: Optional[int] = None,
    ) -> "CollectiveRequest":
        """Deposit rank's contribution to collective ``seq``; returns
        the request handle.  The last depositor compiles the plan;
        earlier arrivals wake no one."""
        if kind not in _KINDS:
            raise MPIError(f"unknown nonblocking collective {kind!r}")
        if not 0 <= root < self.size:
            raise MPIError(
                f"root {root} outside communicator of size {self.size}"
            )
        if algorithm is not None and algorithm not in (
            "flat", "hierarchical", "pipelined"
        ):
            raise MPIError(f"unknown icoll algorithm {algorithm!r}")
        self._validate_payload(kind, payload)
        if self.faults is not None:
            # per-rank episode-entry site (the chaos harness's handle on
            # the icoll path; executors hit it again per cell)
            self.faults.hit("coll.ichunk", rank, wake=self._wake_all)
        with self._cond:
            ep = self._episodes.get(seq)
            if ep is None:
                ep = _Episode(
                    self.size, seq, kind, root, op, algorithm, chunk_bytes
                )
                self._episodes[seq] = ep
            else:
                if ep.kind != kind:
                    raise MPIError(
                        f"collective mismatch on icoll #{seq}: {ep.kind} "
                        f"already in flight, rank {rank} called {kind}"
                    )
                if ep.root != root:
                    raise MPIError(
                        f"root mismatch on {kind} #{seq}: "
                        f"{ep.root} vs {root}"
                    )
            if ep.arrived[rank]:
                raise MPIError(
                    f"rank {rank} deposited twice into {kind} #{seq}"
                )
            ep.contrib[rank] = payload
            ep.arrived[rank] = True
            ep.n_arrived += 1
            self._progress_count += 1
            if ep.n_arrived == self.size:
                try:
                    self._build_plan(ep, rank)
                    ep.planned = True
                except BaseException as exc:
                    ep.failed = exc
                    self._wake_all()
                    raise
                for idx in ep.ready:
                    self._announce_ready(ep, idx)
                for r in range(self.size):
                    if ep.gates_left[r] == 0:
                        self._signal(r)
                self._kick_progress()
        return CollectiveRequest(self, ep, rank)

    def _validate_payload(self, kind: str, payload: Any) -> None:
        if kind == "ialltoall":
            if not isinstance(payload, (list, tuple)) or len(payload) != self.size:
                raise CountMismatchError(
                    f"ialltoall needs exactly {self.size} items"
                )
        elif kind == "ineighbor_exchange":
            if not isinstance(payload, dict):
                raise MPIError(
                    "ineighbor_exchange takes a {neighbor_rank: payload} dict"
                )
            for dst in payload:
                if not 0 <= dst < self.size:
                    raise MPIError(
                        f"neighbor {dst} outside communicator of size "
                        f"{self.size}"
                    )

    # ------------------------------------------------------------------- plan
    def _resolve_algorithm(self, ep: _Episode) -> None:
        algo, cb = ep.req_algorithm, ep.req_chunk
        if algo is None:
            nbytes = max(
                (payload_nbytes(c) for c in ep.contrib if c is not None),
                default=0,
            )
            if self._selector is not None:
                algo, sel_cb = self._selector(ep.kind, nbytes, self.size)
                if cb is None:
                    cb = sel_cb
            else:
                algo = "pipelined"
        if cb is None:
            cb = DEFAULT_CHUNK_BYTES if algo == "pipelined" else 0
        ep.algorithm = algo
        ep.chunk_bytes = int(cb) if algo == "pipelined" else 0

    def _build_plan(self, ep: _Episode, planner: int) -> None:
        self._resolve_algorithm(ep)
        b = _PlanBuilder(ep, self._link_s_per_byte())
        if ep.kind == "ibarrier":
            pass
        elif ep.kind == "ibcast":
            self._plan_bcast(ep, b)
        elif ep.kind in ("ireduce", "iallreduce"):
            self._plan_reduce(
                ep, b, planner, deliver_all=ep.kind == "iallreduce"
            )
        elif ep.kind == "igather":
            self._plan_gather(ep, b, all_ranks=False)
        elif ep.kind == "iallgather":
            self._plan_gather(ep, b, all_ranks=True)
        elif ep.kind == "ialltoall":
            self._plan_alltoall(ep, b)
        elif ep.kind == "ineighbor_exchange":
            self._plan_neighbor(ep, b)
        self.metrics.note_icoll_episode(ep.algorithm)

    # ----------------------------------------------------------- bcast tree
    def _bcast_parents(self, root: int) -> Dict[int, int]:
        """The forwarding tree: each non-root rank receives from the
        representative of its innermost group that is not itself; group
        representatives receive from the enclosing scope's rep."""
        parent: Dict[int, int] = {}
        for level in reversed(self.levels):        # outermost -> innermost
            for members in level.groups:
                rep = root if root in members else min(members)
                for r in members:
                    if r != rep:
                        parent[r] = rep
        return parent

    def _plan_bcast(self, ep: _Episode, b: _PlanBuilder) -> None:
        root = ep.root
        src_obj = ep.contrib[root]
        ep.results[root] = src_obj
        copy_dsts: List[int] = []
        for d in range(self.size):
            if d == root:
                continue
            if self._may_share(root, d):
                self._deliver_ref(ep, src_obj, d)
            else:
                copy_dsts.append(d)
        if not copy_dsts:
            return
        use_tree = ep.algorithm in ("hierarchical", "pipelined")
        parents = self._bcast_parents(root) if use_tree else {}
        copy_set = set(copy_dsts)
        chunkable = (
            isinstance(src_obj, np.ndarray)
            and src_obj.flags.c_contiguous
            and src_obj.size > 0
            and ep.chunk_bytes > 0
            and src_obj.nbytes > ep.chunk_bytes
        )
        cell_of: Dict[Tuple[int, int], int] = {}   # (dst, chunk) -> cell
        if chunkable:
            slices = _chunk_slices(src_obj, ep.chunk_bytes)
            for d in copy_dsts:
                ep.results[d] = np.empty_like(src_obj)
            # parents must be visited before children so their cells
            # exist for the dependency edges; sort by tree depth
            def depth(d: int) -> int:
                n, p = 0, d
                while p != root:
                    p = parents.get(p, root)
                    n += 1
                return n

            for d in sorted(copy_dsts, key=depth):
                p = parents.get(d, root)
                src_arr = ep.results[p] if p in copy_set else src_obj
                gate_src = p if p in copy_set else root
                dst_arr = ep.results[d]
                for c, sl in enumerate(slices):

                    def fn(src=src_arr, dst=dst_arr, sl=sl, d=d, c=c):
                        dst.reshape(-1)[sl] = src.reshape(-1)[sl]
                        if c == 0:
                            self.metrics.note_clone()

                    deps = []
                    if (p, c) in cell_of:
                        deps.append(cell_of[(p, c)])
                    nb = (sl.stop - sl.start) * src_obj.itemsize
                    cell_of[(d, c)] = b.add(
                        fn, owner=d, deps=deps, port=("tx", p),
                        gates=(d, gate_src), nbytes=nb,
                    )
            return
        # store-and-forward: one whole-payload clone per destination,
        # sourced from the parent's already-delivered copy on the tree
        def depth2(d: int) -> int:
            n, p = 0, d
            while p != root:
                p = parents.get(p, root)
                n += 1
            return n

        nbytes = payload_nbytes(src_obj)
        for d in sorted(copy_dsts, key=depth2):
            p = parents.get(d, root)
            gate_src = p if p in copy_set else root

            def fn(d=d, p=p):
                src = ep.results[p] if p in copy_set else src_obj
                ep.results[d] = self._do_clone(src)

            deps = [cell_of[(p, 0)]] if (p, 0) in cell_of else []
            cell_of[(d, 0)] = b.add(
                fn, owner=d, deps=deps, port=("tx", p),
                gates=(d, gate_src), nbytes=nbytes,
            )

    # -------------------------------------------------------------- reduce
    def _plan_reduce(
        self, ep: _Episode, b: _PlanBuilder, planner: int, *,
        deliver_all: bool,
    ) -> None:
        op = ep.op
        # the rank whose result slot owns the fold output outright; the
        # root for ireduce, rank 0 for iallreduce
        owner = ep.root if not deliver_all else 0
        c0 = ep.contrib[0]
        chunkable = (
            self.size > 1
            and ep.chunk_bytes > 0
            and _is_elementwise(op)
            and all(
                isinstance(c, np.ndarray)
                and c.flags.c_contiguous
                and c.dtype == c0.dtype
                and c.shape == c0.shape
                for c in ep.contrib
            )
            and isinstance(c0, np.ndarray)
            and c0.size > 0
            and c0.nbytes > ep.chunk_bytes
        )
        if chunkable:
            slices = _chunk_slices(c0, ep.chunk_bytes)
            out = np.empty_like(c0)
            partials: List[Any] = [None] * len(slices)
            last_fold: List[int] = [0] * len(slices)
            for c, sl in enumerate(slices):
                prev = None
                for r in range(1, self.size):
                    last = r == self.size - 1

                    def fn(r=r, c=c, sl=sl, last=last):
                        a = (
                            partials[c]
                            if r > 1
                            else ep.contrib[0].reshape(-1)[sl]
                        )
                        v = op(a, ep.contrib[r].reshape(-1)[sl])
                        if last:
                            out.reshape(-1)[sl] = v
                            partials[c] = None
                        else:
                            partials[c] = v

                    # gate the contributing rank (its buffer is read),
                    # rank 0 on the first fold (its buffer is read too)
                    # and the result owner on the final fold (its output
                    # is not materialised until every chunk lands)
                    gates = [r]
                    if r == 1:
                        gates.append(0)
                    if last:
                        gates.append(owner)
                    nb = (sl.stop - sl.start) * c0.itemsize
                    prev = b.add(
                        fn, owner=r, deps=() if prev is None else (prev,),
                        port=("rx", r), gates=gates, nbytes=nb,
                    )
                last_fold[c] = prev
            ep.results[owner] = out
            if not deliver_all:
                return
            self._plan_reduce_delivery(ep, b, owner, out, slices, last_fold)
            return
        self._plan_fused_reduce(ep, b, planner, owner, deliver_all=deliver_all)

    def _plan_reduce_delivery(
        self,
        ep: _Episode,
        b: _PlanBuilder,
        owner: int,
        out: np.ndarray,
        slices: List[slice],
        last_fold: List[int],
    ) -> None:
        """Fan the chunk-folded result out to every rank but ``owner``."""
        for d in range(self.size):
            if d == owner:
                continue
            if self._may_share(owner, d):

                def fn_ref(d=d):
                    self._deliver_ref(ep, ep.results[owner], d)

                # gate the owner too: its completion would null the
                # results slot this cell reads (see _take)
                b.add(
                    fn_ref, owner=d, deps=tuple(last_fold),
                    gates=(d, owner), nbytes=0,
                )
                continue
            ep.results[d] = np.empty_like(out)
            for c, sl in enumerate(slices):

                def fn(d=d, sl=sl, c=c):
                    ep.results[d].reshape(-1)[sl] = out.reshape(-1)[sl]
                    if c == 0:
                        self.metrics.note_clone()

                nb = (sl.stop - sl.start) * out.itemsize
                b.add(
                    fn, owner=d, deps=(last_fold[c],), port=("rx", d),
                    gates=(d, owner), nbytes=nb,
                )

    def _plan_fused_reduce(
        self, ep: _Episode, b: _PlanBuilder, planner: int, owner: int, *,
        deliver_all: bool,
    ) -> None:
        """One cell folds every contribution: clone ``contrib[0]``, then
        fold a clone of each ``contrib[r]`` in ascending rank order --
        exactly the blocking engines' discipline and order, so results
        stay bit-identical -- and hand the result by reference to the
        ranks sharing the owner's address space.  It belongs to the
        last depositor (the planner, which is running already), gates
        every rank (it reads every buffer) and occupies the link for
        the n fold steps it replaces.

        Copy deliveries stay cells of their own, run by their
        destinations.  They clone a private snapshot of the result, not
        the owner's object, so the owner (and the ranks holding it by
        reference) complete as soon as the fold lands instead of
        waiting for every copy to read their buffer."""
        op = ep.op
        nbytes = payload_nbytes(ep.contrib[0])
        refs: List[int] = []
        copies: List[int] = []
        if deliver_all:
            for d in range(self.size):
                if d != owner:
                    (refs if self._may_share(owner, d) else copies).append(d)
        snapshot: List[Any] = [None]

        def fold():
            acc = self._do_clone(ep.contrib[0])
            for r in range(1, self.size):
                acc = op(acc, self._do_clone(ep.contrib[r]))
            ep.results[owner] = acc
            for d in refs:
                self._deliver_ref(ep, acc, d)
            if copies:
                snapshot[0] = self._do_clone(acc)

        folded = b.add(
            fold, owner=planner, port=("rx", owner),
            gates=range(self.size), nbytes=nbytes * self.size,
        )
        for d in copies:

            def copy(d=d):
                ep.results[d] = self._do_clone(snapshot[0])

            b.add(
                copy, owner=d, deps=(folded,), port=("rx", d),
                gates=(d,), nbytes=nbytes,
            )

    # ---------------------------------------------------- gather-family
    def _plan_gather(
        self, ep: _Episode, b: _PlanBuilder, *, all_ranks: bool
    ) -> None:
        dsts = range(self.size) if all_ranks else (ep.root,)
        for d in dsts:
            out: List[Any] = [None] * self.size
            ep.results[d] = out
            for src in range(self.size):
                obj = ep.contrib[src]
                if self._may_share(src, d):
                    if clone_would_copy(obj):
                        self.metrics.note_elision()
                    out[src] = obj
                    continue

                def fn(out=out, src=src):
                    out[src] = self._do_clone(ep.contrib[src])

                b.add(
                    fn, owner=d, port=("rx", d), gates=(src, d),
                    nbytes=payload_nbytes(obj),
                )

    def _plan_alltoall(self, ep: _Episode, b: _PlanBuilder) -> None:
        for d in range(self.size):
            out: List[Any] = [None] * self.size
            ep.results[d] = out
            for src in range(self.size):
                obj = ep.contrib[src][d]
                if self._may_share(src, d):
                    if clone_would_copy(obj):
                        self.metrics.note_elision()
                    out[src] = obj
                    continue

                def fn(out=out, src=src, d=d):
                    out[src] = self._do_clone(ep.contrib[src][d])

                b.add(
                    fn, owner=d, port=("rx", d), gates=(src, d),
                    nbytes=payload_nbytes(obj),
                )

    def _plan_neighbor(self, ep: _Episode, b: _PlanBuilder) -> None:
        for d in range(self.size):
            ep.results[d] = {}
        for src in range(self.size):
            for d, obj in ep.contrib[src].items():
                if self._may_share(src, d):
                    if clone_would_copy(obj):
                        self.metrics.note_elision()
                    ep.results[d][src] = obj
                    continue

                def fn(src=src, d=d):
                    ep.results[d][src] = self._do_clone(ep.contrib[src][d])

                b.add(
                    fn, owner=d, port=("rx", d), gates=(src, d),
                    nbytes=payload_nbytes(obj),
                )

    # -------------------------------------------------------------- execute
    def _scan_claim(
        self, rank: int, ep_first: _Episode, *, take: bool
    ) -> Optional[Tuple[_Episode, int]]:
        """Find a runnable cell: rank's own first (preferring the
        episode it is asking about), else steal one whose owner is not
        engaged in the engine right now.  Under ``self._cond``."""
        episodes = [ep_first] + [
            e for e in self._episodes.values() if e is not ep_first
        ]
        best: Optional[Tuple[_Episode, int]] = None
        for ep in episodes:
            if not ep.planned or ep.failed is not None:
                continue
            for idx in ep.ready:
                owner = ep.cells[idx].owner
                if owner == rank:
                    best = (ep, idx)
                    break
                if best is None and self._engaged[owner] == 0:
                    best = (ep, idx)
            if best is not None and best[0].cells[best[1]].owner == rank:
                break
        if best is not None and take:
            ep, idx = best
            ep.ready.remove(idx)
            ep.cells[idx].state = _RUNNING
        return best

    def _execute(self, rank: int, ep: _Episode, idx: int) -> None:
        cell = ep.cells[idx]
        try:
            if self.faults is not None:
                self.faults.hit("coll.ichunk", rank, wake=self._wake_all)
            if cell.link_s > 0.0 and self._sleep is not None:
                self._sleep(cell.link_s)
            cell.fn()
        except BaseException as exc:
            with self._cond:
                if ep.failed is None:
                    ep.failed = exc
                self._progress_count += 1
                self._wake_all()
            raise
        with self._cond:
            cell.state = _DONE
            self.metrics.note_icoll_cell(stolen=cell.owner != rank)
            for r in cell.gates:
                ep.gates_left[r] -= 1
                if ep.gates_left[r] == 0:
                    self._signal(r)
            for d in cell.dependents:
                dep = ep.cells[d]
                dep.ndeps -= 1
                if dep.ndeps == 0:
                    dep.state = _READY
                    ep.ready.append(d)
                    self._announce_ready(ep, d)
            self._progress_count += 1
            self._kick_progress()

    def _progress(self, rank: int, ep: _Episode) -> bool:
        """Drain every currently-claimable cell; True if any ran."""
        ran = False
        while True:
            with self._cond:
                got = self._scan_claim(rank, ep, take=True)
            if got is None:
                return ran
            ran = True
            self._execute(rank, got[0], got[1])

    # ------------------------------------------------------------ completion
    def _complete_for(self, ep: _Episode, rank: int) -> bool:
        return ep.planned and ep.gates_left[rank] == 0

    def _take(self, ep: _Episode, rank: int) -> Any:
        res = ep.results[rank]
        ep.results[rank] = None
        ep.collected[rank] = True
        if all(ep.collected):
            self._episodes.pop(ep.seq, None)
        return res

    def _raise_failed(self, ep: _Episode) -> None:
        raise AbortError(
            f"nonblocking collective {ep.kind} #{ep.seq} aborted by peer "
            f"failure: {ep.failed!r}"
        ) from ep.failed

    def test_complete(
        self, rank: int, ep: _Episode
    ) -> Optional[Tuple[Any, Status]]:
        """One nonblocking progress burst (the ``Request.test`` hook):
        runs ready cells, then reports completion."""
        self._enter(rank)
        try:
            self._progress(rank, ep)
            with self._cond:
                if ep.failed is not None:
                    self._raise_failed(ep)
                if self._complete_for(ep, rank):
                    return self._take(ep, rank), Status()
                return None
        finally:
            self._leave(rank)

    def wait_complete(self, rank: int, ep: _Episode) -> Tuple[Any, Status]:
        """Blocking completion: alternate progress bursts with parks on
        the rank's own condition (see the wake rules on the class).
        Arrivals wake no one, so the park is capped at ``_ABORT_TICK``
        and the deadline extends on any engine progress (arrivals or
        cells anywhere) seen after it: only a genuinely stalled
        collective raises DeadlockError."""
        with self._cond:
            self._engaged[rank] += 1
            deadline = self._clock() + self._timeout
            seen = self._progress_count
        cond = self._rank_cond[rank]
        try:
            while True:
                ran = self._progress(rank, ep)
                with self._cond:
                    if ep.failed is not None:
                        self._raise_failed(ep)
                    if self._complete_for(ep, rank):
                        return self._take(ep, rank), Status()
                    if self._abort.is_set():
                        note_abort(self._abort)
                        raise AbortError(
                            f"job aborted during {ep.kind} #{ep.seq}"
                        )
                    now = self._clock()
                    if ran or self._progress_count != seen:
                        seen = self._progress_count
                        deadline = now + self._timeout
                    elif now >= deadline:
                        raise DeadlockError(
                            f"nonblocking collective {ep.kind} #{ep.seq} "
                            f"stalled with {ep.n_arrived}/{self.size} "
                            f"arrived -- collective mismatch?"
                        )
                    if self._scan_claim(rank, ep, take=False) is not None:
                        continue
                    token = self._signals[rank]
                    self._parked[rank] = None
                timeout = min(deadline - now, _ABORT_TICK)
                with cond:
                    if self._signals[rank] == token:
                        cond.wait(timeout=timeout)
                with self._cond:
                    self._parked.pop(rank, None)
        finally:
            self._leave(rank)

    # ----------------------------------------------------------- waitany glue
    def progress_token(self) -> int:
        with self._cond:
            return self._progress_count

    def park_for_progress(self, token: int, timeout: float) -> None:
        """Park until engine progress, an abort, or ``timeout`` -- the
        same contract as ``Mailbox.park_for_activity``."""
        with self._cond:
            if self._abort.is_set():
                note_abort(self._abort)
                raise AbortError("job aborted")
            if self._progress_count != token:
                return
            self._progress_parkers += 1
            try:
                self._cond.wait(timeout=timeout)
            finally:
                self._progress_parkers -= 1


class CollectiveRequest(Request):
    """Request handle of a nonblocking collective.

    ``test()`` runs ready cells of the episode (and steals idle peers')
    before reporting completion, so a compute/test loop drives the
    collective forward; ``wait()`` parks event-driven between bursts.
    Completion means this rank's output is materialised AND every cell
    reading this rank's contribution has run (send-buffer safety)."""

    def __init__(self, state: IcollState, ep: _Episode, rank: int) -> None:
        super().__init__(
            kind=ep.kind,
            try_complete=lambda: state.test_complete(rank, ep),
            block_complete=lambda: state.wait_complete(rank, ep),
            sleep=state._sleep,
            park=state.park_for_progress,
            park_token=state.progress_token,
            park_owner=state.owner,
        )
        self.state = state
        self.episode = ep
        self.rank = rank


__all__ = [
    "CollectiveRequest",
    "IcollState",
    "DEFAULT_CHUNK_BYTES",
]
