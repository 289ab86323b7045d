"""``solver_loop``: a distributed conjugate-gradient solve to a fixed
tolerance, the latency-bound small-collective path.

32 tasks on ``core2_cluster(4)`` under the cooperative scheduler with
``sharing="shared"`` and the hierarchical collectives, named explicitly
(``"auto"`` would replay a trajectory file and make results depend on
repository state).  The operator is a 1-D variable-coefficient
diffusion matrix plus a shift; its face coefficients sit in one
node-scope HLS table that one task per node fills at set-up.  Every iteration
(one op) has three communication steps:

* an ``ineighbor_exchange`` halo overlapped with the interior matvec;
* one blocking scalar ``allreduce`` (p.q);
* one scalar ``iallreduce().wait()`` (r.r).

A run repeats the same seeded solve, each on a fresh set-up (one
stretch); every solve must converge, take
the same number of iterations and produce a bit-identical solution,
within tolerance of a plain single-threaded numpy CG on the same
problem.
"""

from __future__ import annotations

import time
from typing import List, Optional

import numpy as np

from harness import (
    MIB, Phase, Stretch, add_counts, peak_node_bytes, runtime_counts,
    stretches, timed,
)
from tracer import maybe_op

TOL = 1e-8
SIGMA = 0.2
MAX_ITERS = 1000


class SolverLoop:
    name = "solver_loop"

    def __init__(self, seed: int, *, tasks: int = 32, nodes: int = 4,
                 rows: int = 16) -> None:
        self.tasks, self.nodes, self.rows = tasks, nodes, rows
        n = tasks * rows
        rng = np.random.default_rng(seed)
        #: conductivity of face i, between unknowns i-1 and i
        self.coef = 1.0 + rng.random(n + 1)
        self.b = rng.standard_normal(n)
        self._diag = self.coef[:-1] + self.coef[1:] + SIGMA
        self.rt = self.prog = None
        self.ref_x: Optional[np.ndarray] = None
        self.ref_iters: Optional[int] = None
        self.serial_x, self.serial_iter_ms = self._serial_cg()
        self.op_id = 0

    # ------------------------------------------------------------ serial
    def matvec(self, p: np.ndarray) -> np.ndarray:
        """The global operator applied to ``p``."""
        off = self.coef[1:-1]
        q = self._diag * p
        q[1:] -= off * p[:-1]
        q[:-1] -= off * p[1:]
        return q

    def _serial_cg(self):
        """Plain numpy CG on the global problem: the reference solution
        and the single-threaded per-iteration time."""
        b, matvec = self.b, self.matvec
        x = np.zeros_like(b)
        r = b.copy()
        p = r.copy()
        rr = float(r @ r)
        stop = TOL * np.sqrt(float(b @ b))
        its = 0
        t0 = time.perf_counter()
        while np.sqrt(rr) > stop and its < MAX_ITERS:
            q = matvec(p)
            alpha = rr / float(p @ q)
            x += alpha * p
            r -= alpha * q
            rr_new = float(r @ r)
            p = r + (rr_new / rr) * p
            rr = rr_new
            its += 1
        per_iter_ms = (time.perf_counter() - t0) / max(1, its) * 1000.0
        return x, per_iter_ms

    # ------------------------------------------------------------- setup
    def setup(self) -> None:
        from repro.hls import HLSProgram
        from repro.machine import core2_cluster
        from repro.runtime import Runtime

        self._teardown()
        self.rt = Runtime(
            core2_cluster(self.nodes), n_tasks=self.tasks, timeout=60.0,
            backend="coop", sharing="shared", algorithm="hierarchical",
        )
        self.prog = HLSProgram(self.rt)
        self.prog.declare("coef", shape=self.coef.shape, dtype=np.float64,
                          scope="node")
        coef, prog = self.coef, self.prog

        def load(ctx):
            # one task per node fills the shared table
            h = prog.attach(ctx)

            def fill():
                h["coef"][:] = coef

            h.single("coef", fill)

        self.rt.run(load)

    def _teardown(self) -> None:
        if self.rt is not None:
            self.prog.close()
            self.rt.finalize()
            self.rt = self.prog = None

    def close(self) -> None:
        self._teardown()

    # ------------------------------------------------------------- solve
    def _solve(self, tracer, lat: List[float]):
        from repro.runtime import SUM

        b_glob, m = self.b, self.rows
        prog = self.prog
        first_op = self.op_id

        def main(ctx):
            table = prog.attach(ctx)["coef"]
            comm = ctx.comm_world
            rank, size = ctx.rank, ctx.size
            lo = rank * m
            cl = table[lo:lo + m]            # face to the left of row i
            cr = table[lo + 1:lo + m + 1]    # face to the right of row i
            diag = cl + cr + SIGMA
            left = rank - 1 if rank > 0 else None
            right = rank + 1 if rank < size - 1 else None
            b = b_glob[lo:lo + m].copy()
            x = np.zeros(m)
            r = b.copy()
            p = r.copy()
            rr = comm.allreduce(float(r @ r), SUM)
            stop = TOL * np.sqrt(comm.allreduce(float(b @ b), SUM))
            its = 0
            while np.sqrt(rr) > stop and its < MAX_ITERS:
                with maybe_op(tracer if rank == 0 else None, first_op + its):
                    t0 = time.perf_counter()
                    sends = {}
                    if left is not None:
                        sends[left] = p[:1].copy()
                    if right is not None:
                        sends[right] = p[-1:].copy()
                    req = comm.ineighbor_exchange(sends)
                    q = diag * p                      # interior matvec
                    q[1:] -= cl[1:] * p[:-1]
                    q[:-1] -= cr[:-1] * p[1:]
                    halo = req.wait()
                    if left is not None:
                        q[0] -= cl[0] * halo[left][0]
                    if right is not None:
                        q[-1] -= cr[-1] * halo[right][0]
                    alpha = rr / comm.allreduce(float(p @ q), SUM)
                    x += alpha * p
                    r -= alpha * q
                    rr_new = float(comm.iallreduce(
                        np.array([float(r @ r)]), SUM).wait()[0])
                    p = r + (rr_new / rr) * p
                    rr = rr_new
                    its += 1
                    if rank == 0:
                        lat.append(time.perf_counter() - t0)
            return its, x

        res = self.rt.run(main)
        self.op_id += res[0][0]
        return res[0][0], np.concatenate([x for _its, x in res]), \
            {its for its, _x in res}

    def _check(self, its: int, x: np.ndarray, all_its) -> List[str]:
        errs = []
        if len(all_its) != 1 or its >= MAX_ITERS:
            errs.append(f"solve did not converge together: iterations {sorted(all_its)}")
        resid = np.linalg.norm(self.b - self.matvec(x)) / np.linalg.norm(self.b)
        if resid > 10 * TOL:
            errs.append(f"true residual {resid:.3e} above {10 * TOL:.0e}")
        dev = np.linalg.norm(x - self.serial_x) / np.linalg.norm(self.serial_x)
        if dev > 1e-6:
            errs.append(f"solution deviates {dev:.3e} from the serial CG")
        if self.ref_x is None:
            self.ref_x, self.ref_iters = x, its
        elif its != self.ref_iters or x.tobytes() != self.ref_x.tobytes():
            errs.append(f"solve not bit-identical to the first "
                        f"({its} vs {self.ref_iters} iterations)")
        return errs

    # ----------------------------------------------------------- measure
    def measure(self, seconds: float, tracer=None) -> Phase:
        """Solves until ``seconds`` have passed, each one a stretch on a
        fresh set-up."""
        setup_times: List[float] = []
        errors: List[str] = []
        attempted = failed = 0
        counts: dict = {}
        peak = 0

        def unit() -> Stretch:
            nonlocal attempted, failed, counts, peak
            self._teardown()
            timed(self.setup, setup_times)
            lat: List[float] = []
            before = runtime_counts(self.rt) if not counts else None
            t0 = time.perf_counter()
            its, x, all_its = self._solve(tracer, lat)
            elapsed = time.perf_counter() - t0
            if before is not None:
                counts = add_counts(runtime_counts(self.rt), before, -1)
            errs = self._check(its, x, all_its)
            attempted += len(lat)
            if errs:
                failed += len(lat)
                errors.extend(errs)
            peak = max(peak, peak_node_bytes(self.rt))
            return Stretch(lat, len(lat), elapsed)

        runs = stretches(seconds, unit)
        counts["memory.peak_node_bytes"] = peak
        return Phase(
            stretches=runs, setup_times=setup_times, attempted=attempted,
            failed=failed, counts=counts,
            extra={"node_mem_mb": peak / MIB,
                   "bench.serial_iter_ms": self.serial_iter_ms},
            errors=errors,
        )

    def finish(self) -> List[str]:
        return []
