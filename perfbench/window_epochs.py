"""``window_epochs``: fenced RMA epochs on an in-memory window, with a
checkpoint epoch on a storage window every ``CHECKPOINT_EVERY`` epochs.

8 tasks on one ``core2_cluster`` node under the cooperative scheduler.
A stretch is one ``Runtime.run`` of ``EPOCHS`` epochs on a fresh
runtime and store, the windows created once per stretch.  Each op is
one epoch that writes
(``put`` to the next rank, ``accumulate`` to the one after) and reads
(``get`` from a third rank) an in-memory window, then fences it.  The
three accesses touch three disjoint regions of their targets, rotated
per epoch, so an epoch never reads what it writes.

A checkpoint epoch also runs the same accesses on a storage window and
on a second in-memory window that mirrors it.  The node's residency cap
leaves room for half the storage window, so the checkpoint's fence
commits and chunks spill and fault.  Checkpoints are one epoch in
``CHECKPOINT_EVERY``, not every epoch, because a commit's cost is the
host filesystem's: measured every epoch, its run-to-run drift swamped
everything else the workload times.

The mirror's and the storage window's reads must be bit-identical, and
at the end a fresh runtime reopens the last stretch's store with
``restore_storage``:
its contents must equal the mirror's and its epoch the number of
checkpoints.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from typing import List

import numpy as np

from harness import (
    MIB, Phase, Stretch, add_counts, peak_node_bytes, runtime_counts,
    stretches, timed,
)
from tracer import maybe_op

TASKS = 8
#: every this many epochs, one is a checkpoint epoch
CHECKPOINT_EVERY = 25
#: epochs in one stretch: one ``Runtime.run`` on a fresh set-up
EPOCHS = 10 * CHECKPOINT_EVERY


class WindowEpochs:
    name = "window_epochs"

    def __init__(self, seed: int, *, scratch: str, count: int = 1536,
                 epochs: int = EPOCHS) -> None:
        self.seed = seed
        self.epochs = epochs
        self.scratch = scratch
        #: elements per rank segment, stored as one chunk
        self.count = count
        self.region = count // 3
        self.rt = self.store = self.tmp = None
        self.saved: List[np.ndarray] = []
        self.epoch = 0                       # checkpoints committed
        self.op_id = 0

    # ------------------------------------------------------------- setup
    def setup(self) -> None:
        from repro.machine import core2_cluster
        from repro.runtime import Runtime
        from repro.storage import ChunkStore

        self._teardown()
        os.makedirs(self.scratch, exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix="window-", dir=self.scratch)
        self.rt = Runtime(
            core2_cluster(1), n_tasks=TASKS, timeout=60.0, backend="coop",
            algorithm="hierarchical",
        )
        self.store = ChunkStore.create(os.path.join(self.tmp, "store"))
        window_bytes = TASKS * self.count * 8
        # both in-memory windows fit; the storage window gets half its size
        self.rt.memory.cap_node(0, 2 * window_bytes + window_bytes // 2)
        self.saved = [np.zeros(self.count) for _ in range(TASKS)]
        self.epoch = 0

    def _teardown(self) -> None:
        if self.rt is not None:
            self.rt.finalize()
            self.rt = self.store = None
        if self.tmp is not None:
            shutil.rmtree(self.tmp, ignore_errors=True)
            self.tmp = None

    def close(self) -> None:
        self._teardown()
        try:
            os.rmdir(self.scratch)
        except OSError:
            pass

    # ----------------------------------------------------------- measure
    def measure(self, seconds: float, tracer=None) -> Phase:
        """Blocks of ``EPOCHS`` epochs until ``seconds`` have passed, each
        block one ``Runtime.run`` on a fresh set-up (one stretch)."""
        setup_times: List[float] = []
        errors: List[str] = []
        attempted = failed = 0
        counts: dict = {}
        peak = 0

        def unit() -> Stretch:
            nonlocal attempted, failed, counts, peak
            self._teardown()
            timed(self.setup, setup_times)
            lat, seconds_, bad, unit_counts = self._block(tracer)
            attempted += len(lat)
            if bad:
                failed += bad
                errors.append(f"{bad} checkpoints read different data from "
                              "the storage window and its in-memory mirror")
            if not counts:
                counts = unit_counts
            peak = max(peak, peak_node_bytes(self.rt))
            return Stretch(lat, len(lat), seconds_)

        runs = stretches(seconds, unit)
        counts["memory.peak_node_bytes"] = peak
        return Phase(
            stretches=runs, setup_times=setup_times, attempted=attempted,
            failed=failed, counts=counts, extra={"node_mem_mb": peak / MIB},
            errors=errors,
        )

    def _block(self, tracer):
        """One ``Runtime.run`` of ``EPOCHS`` epochs; returns rank 0's
        epoch latencies, the seconds from its first epoch's start to its
        last one's end, the checkpoints whose reads differed, and the
        counters of the epochs up to the first checkpoint."""
        from repro.runtime import SUM, Win

        rt, count, region, store = self.rt, self.count, self.region, self.store
        saved, first_op = self.saved, self.op_id
        base = self.seed % 89
        lat: List[float] = []
        span = [0.0, 0.0]                    # rank 0: first start, last end
        before = runtime_counts(rt)
        unit: dict = {}                      # counters after the first checkpoint

        def main(ctx):
            comm = ctx.comm_world
            rank, n = ctx.rank, comm.size
            mem = Win.allocate(comm, count, chunk_elems=count)
            mirror = Win.allocate(comm, count, chunk_elems=count)
            mirror.local()[:] = saved[rank]
            sto = Win.allocate_storage(comm, count, store=store, name="win",
                                       chunk_elems=count)
            wins = (mem, mirror, sto)
            for win in wins:
                win.fence()
            idx = np.arange(region)
            bad = set()
            for e in range(self.epochs):
                checkpoint = e % CHECKPOINT_EVERY == CHECKPOINT_EVERY - 1
                # a checkpoint's data follows the checkpoint count, so
                # each one writes the store differently
                step = e // CHECKPOINT_EVERY if checkpoint else e
                with maybe_op(tracer if rank == 0 else None, first_op + e):
                    t1 = time.perf_counter()
                    vals = ((idx * (step + 1) + rank + base) % 97).astype(np.float64)
                    w_put = (step % 3) * region
                    w_acc = ((step + 1) % 3) * region
                    r_get = ((step + 2) % 3) * region
                    reads = []
                    for win in wins if checkpoint else wins[:1]:
                        win.put(vals, (rank + 1) % n, w_put)
                        win.accumulate(vals, (rank + 2) % n, SUM, w_acc)
                        reads.append(win.get((rank + 3) % n, region, r_get))
                        win.fence()
                    if rank == 0:
                        t2 = time.perf_counter()
                        lat.append(t2 - t1)
                        span[0] = span[0] or t1
                        span[1] = t2
                if checkpoint and reads[1].tobytes() != reads[2].tobytes():
                    bad.add(e)
                if rank == 0 and e == CHECKPOINT_EVERY - 1:
                    unit.update(runtime_counts(rt))
            for win in wins:
                win.fence_end()
            saved[rank] = mirror.local().copy()
            for win in wins:
                win.free()
            return bad

        bad = len(set().union(*rt.run(main)))
        self.epoch += self.epochs // CHECKPOINT_EVERY
        self.op_id += self.epochs
        return lat, span[1] - span[0], bad, add_counts(unit, before, -1)

    def finish(self) -> List[str]:
        """Restore the store in a fresh runtime and compare it with its
        in-memory mirror."""
        from repro.machine import core2_cluster
        from repro.runtime import Runtime, Win

        rt = Runtime(core2_cluster(1), n_tasks=TASKS, timeout=60.0,
                     backend="coop", algorithm="hierarchical")
        try:
            store = rt.restore_storage(os.path.join(self.tmp, "store"))
            count = self.count

            def main(ctx):
                win = Win.allocate_storage(ctx.comm_world, count, store=store,
                                           name="win", chunk_elems=count)
                win.fence()
                data = win.get(ctx.rank)
                win.fence_end()
                win.free()
                return data

            restored = rt.run(main)
        finally:
            rt.finalize()
        errors = []
        if store.epoch != self.epoch:
            errors.append(f"restored store is at epoch {store.epoch}, "
                          f"expected {self.epoch}")
        if any(a.tobytes() != b.tobytes() for a, b in zip(restored, self.saved)):
            errors.append("restored storage window differs from its "
                          "in-memory mirror")
        return errors
