"""Wake discipline of the nonblocking collective engine.

A waiting rank parks on its own condition and is signalled only when
something it can act on happens: a cell it owns becomes ready, a ready
cell's owner is outside the engine (so someone must steal it), its own
output completes, the episode fails, or the job aborts.  These tests pin
that contract from four sides:

* cost -- a scalar ``iallreduce().wait()`` parks no more often than the
  blocking ``allreduce`` (plus one park per rank of slack), and plans
  at most ``size`` cells;
* liveness -- cells of an owner that is computing, or that has just
  left the engine, are stolen promptly (well under the engine's 1 s
  safety tick);
* release -- abort and peer failure release parked ranks promptly on
  both backends, and a ``waitall`` whose only progress is another
  rank's cell completes without leaning on the park cap;
* modeled time -- the virtual-clock makespans of unchunked reductions
  (the inputs of ``Runtime(algorithm="auto")``) are unchanged.

``REPRO_SHARING=shared`` reruns the sharing-agnostic cases with the
zero-copy delivery path.
"""

import os
import threading
import time

import numpy as np
import pytest

from benchmarks.test_icollectives_scaling import PAYLOAD_BYTES, _modeled_time
from repro.machine import core2_cluster
from repro.runtime import AbortError, IcollState, Request, Runtime, SUM

SHARING = os.environ.get("REPRO_SHARING", "private")

#: a prompt wake: far below the engine's 1 s safety tick
PROMPT_S = 0.2

#: release bound after an abort or a failed cell
RELEASE_S = 0.5


def _runtime(backend, n, **kw):
    kw.setdefault("sharing", SHARING)
    return Runtime(core2_cluster(max(1, n // 8)), n_tasks=n, timeout=20.0,
                   backend=backend, **kw)


# --------------------------------------------------------------------- cost
def _parks_and_cells(blocking, ops=100):
    n = 32
    rt = Runtime(core2_cluster(4), n_tasks=n, timeout=60.0, backend="coop",
                 sharing="shared", algorithm="hierarchical")

    def main(ctx):
        c = ctx.comm_world
        acc = 0.0
        for i in range(ops):
            x = float(ctx.rank + i)
            acc += c.allreduce(x, SUM) if blocking else c.iallreduce(x, SUM).wait()
        return acc

    res = rt.run(main)
    assert len(set(res)) == 1
    data = rt.metrics().data
    return data["sched"]["parks"], data["collectives"]["icoll_cells"], res[0]


def test_iallreduce_wait_parks_like_blocking_allreduce():
    """The thundering-herd regression: every deposit and every cell used
    to wake every waiter, costing ~10x the blocking engine's parks."""
    ops, size = 100, 32
    icoll_parks, icoll_cells, icoll_sum = _parks_and_cells(False, ops)
    block_parks, _, block_sum = _parks_and_cells(True, ops)
    assert icoll_sum == block_sum
    assert icoll_parks <= block_parks + size, (icoll_parks, block_parks)
    assert icoll_cells / ops <= size, icoll_cells


# ----------------------------------------------------------------- liveness
def test_busy_owner_cells_are_stolen_promptly():
    """Rank 0 deposits last -- it owns the fused fold cell -- then
    computes for a second without entering the engine.  A parked rank
    must be woken to steal the fold, so the others finish long before
    rank 0 comes back."""
    n = 4
    rt = _runtime("threads", n)
    stamps = {}

    def main(ctx):
        c = ctx.comm_world
        c.barrier()
        if ctx.rank == 0:
            time.sleep(0.1)                  # let the others park first
            req = c.iallreduce(1.0, SUM)
            stamps["deposit"] = time.monotonic()
            time.sleep(1.0)                  # busy: not in test/wait
            return req.wait()
        out = c.iallreduce(1.0, SUM).wait()
        stamps[ctx.rank] = time.monotonic()
        return out

    assert rt.run(main) == [float(n)] * n
    lag = max(stamps[r] for r in range(1, n)) - stamps["deposit"]
    assert lag < PROMPT_S, lag
    assert rt.metrics().data["collectives"]["icoll_steals"] > 0


def test_owner_leaving_the_engine_hands_its_cells_to_a_parked_rank():
    """An owner that leaves the engine while still owning ready cells
    (they became ready while it was inside on another episode, so no
    one was told) must wake one parked rank on its way out."""
    st = IcollState(2, threading.Event(), timeout=10.0)
    got = {}

    def rank1():
        got["value"] = st.start(0, "iallreduce", 1, 2.0, op=SUM).wait()
        got["at"] = time.monotonic()

    t = threading.Thread(target=rank1)
    st._enter(0)                  # rank 0 is busy inside the engine
    t.start()
    time.sleep(0.1)               # rank 1 deposits first and parks
    req0 = st.start(0, "iallreduce", 0, 1.0, op=SUM)   # rank 0 plans
    time.sleep(0.1)
    assert "value" not in got     # the fold is rank 0's: no steal yet
    left = time.monotonic()
    st._leave(0)
    t.join(timeout=5.0)
    assert not t.is_alive()
    assert got["value"] == 3.0
    assert got["at"] - left < PROMPT_S, got["at"] - left
    assert req0.wait() == 3.0
    assert st.metrics.icoll_steals > 0


# ------------------------------------------------------------------ release
@pytest.mark.parametrize("backend", ["threads", "coop"])
def test_abort_releases_parked_waiters(backend):
    """Ranks parked on their own condition are released by the abort
    signal itself, not by the engine's 1 s safety tick.  Under coop the
    bound is on the virtual clock, where a tick-bound release would show
    as a full second."""
    n = 4
    rt = _runtime(backend, n)
    stamps = {}

    def main(ctx):
        c = ctx.comm_world
        c.barrier()
        if ctx.rank == 0:
            ctx.sleep(0.1)                   # the others park first
            stamps["abort"] = rt.now()
            rt.signal_abort()
            return "aborter"
        try:
            c.iallreduce(1.0, SUM).wait()
        except AbortError:
            stamps[ctx.rank] = rt.now()
            return "released"
        return "completed"

    assert rt.run(main) == ["aborter"] + ["released"] * (n - 1)
    lag = max(stamps[r] for r in range(1, n)) - stamps["abort"]
    assert lag < RELEASE_S, lag


@pytest.mark.parametrize("backend", ["threads", "coop"])
def test_failed_cell_releases_parked_waiters(backend):
    """A cell that raises poisons its episode; every parked rank must
    get the failure promptly even though the executing rank swallows
    the exception and never aborts the job."""
    n = 4
    rt = _runtime(backend, n)
    stamps = {}

    def bad_op(a, b):
        raise ValueError("op exploded")

    def main(ctx):
        c = ctx.comm_world
        c.barrier()
        if ctx.rank == 0:
            ctx.sleep(0.1)                   # deposit last: own the fold
        req = c.iallreduce(1.0, bad_op)
        try:
            req.wait()
        except ValueError:                   # this rank ran the fold
            stamps["failed"] = rt.now()
            ctx.sleep(1.0)                   # stay alive, no abort
            return "executor"
        except AbortError:
            stamps[ctx.rank] = rt.now()
            return "released"
        return "completed"

    res = rt.run(main)
    assert sorted(res) == ["executor"] + ["released"] * (n - 1)
    lag = max(v for k, v in stamps.items() if k != "failed") - stamps["failed"]
    assert lag < RELEASE_S, lag


@pytest.mark.parametrize("backend", ["threads", "coop"])
def test_waitall_progress_from_another_ranks_cell(backend):
    """Every rank sits in ``waitall`` (parked for engine progress, never
    engaged in ``wait``); the non-root ranks' requests complete only
    when the root's gather cells have read their buffers.  Completion
    must follow the cells, not the 1 s waitany park cap."""
    n = 8
    rt = _runtime(backend, n, sharing="private")

    def main(ctx):
        c = ctx.comm_world
        c.barrier()
        t0 = rt.now()
        if ctx.rank == 0:
            ctx.sleep(0.05)                  # the others park first
        payload = np.full(4, float(ctx.rank))
        out = Request.waitall([c.igather(payload, root=0)])[0]
        return rt.now() - t0, out

    res = rt.run(main)
    root_out = res[0][1]
    assert [float(a[0]) for a in root_out] == [float(r) for r in range(n)]
    assert all(out is None for _, out in res[1:])
    assert max(e for e, _ in res) < RELEASE_S


# ------------------------------------------------------------ modeled time
#: virtual-clock makespans of unchunked reductions on the private-sharing
#: coop runtime with the link time on (1 MiB payload, 1 s per MiB): the
#: fold occupies n link-times, iallreduce adds one delivery hop
PINNED_MAKESPANS = {
    ("iallreduce", "flat", 8): 9.0,
    ("iallreduce", "hierarchical", 8): 9.0,
    ("iallreduce", "flat", 32): 33.0,
    ("iallreduce", "hierarchical", 32): 33.0,
    ("ireduce", "flat", 8): 8.0,
    ("ireduce", "hierarchical", 8): 8.0,
    ("ireduce", "flat", 32): 32.0,
    ("ireduce", "hierarchical", 32): 32.0,
}


@pytest.mark.parametrize("kind,algorithm,n_tasks", sorted(PINNED_MAKESPANS))
def test_unchunked_reduce_modeled_time_is_pinned(kind, algorithm, n_tasks):
    t, _ = _modeled_time(kind, n_tasks, PAYLOAD_BYTES, algorithm, 0)
    assert t == pytest.approx(PINNED_MAKESPANS[(kind, algorithm, n_tasks)],
                              rel=1e-9)
