"""``paper_tables``: the paper's own evaluation at smoke size.

One pass runs, through the ``repro.apps`` drivers and their own
threads backend:

* Table I mesh update (small, with table update) for the ``none``,
  ``node`` and ``numa`` variants;
* Figure 3 matmul (update version, in-cache size) for ``seq``,
  ``none``, ``node`` and ``numa``;
* Tables II-IV (EulerMHD, Gadget, Tachyon) at 8 nodes in the HLS, MPC
  and Open MPI variants, plus one HLS Tachyon run whose rows are
  self-scheduled (``schedule="guided"``).

Each driver run is one op, after a fresh set-up.  A run repeats the
pass; its figures are those of one pass made of each driver run's
fastest time, because other tenants of the host only ever slow an op
down and a pass is too long for a run to hold many.  Its 17 ops differ
in length by two orders of magnitude, so percentiles are taken over
that one pass.  The cache simulator does most of the work
and the communication layers little, so this workload is the control
for comm-layer changes, and the only one that measures ``memsim`` and
the paper's memory per node.  Gates: Table I's ``numa`` beats ``node``
under update and ``none`` stays below 0.6 efficiency; Table II's HLS
saving is 7 x 128 MB per node within 1%; each application's checksum
is identical across its variants.
"""

from __future__ import annotations

import gc
import time
from typing import Any, Dict, List, Tuple

import numpy as np

from harness import (
    Phase, Stretch, add_counts, peak_node_bytes, runtime_counts, stretches,
    timed,
)
from tracer import maybe_op, maybe_span

NODES = 8
#: sampled table reads per task-step of the Table I driver
READ_CAP = 128
VARIANTS = (("hls", "mpc", True), ("mpc", "mpc", False),
            ("openmpi", "openmpi", False))


class PaperTables:
    name = "paper_tables"

    def __init__(self, seed: int, *, nodes: int = NODES,
                 read_cap: int = READ_CAP) -> None:
        from repro.apps import (
            EulerMHDConfig, GadgetConfig, MatmulConfig, MeshUpdateConfig,
            TachyonConfig, run_eulermhd, run_gadget, run_matmul,
            run_mesh_update, run_tachyon,
        )

        self.nodes = nodes
        s = [int(v) for v in np.random.default_rng(seed).integers(1 << 30, size=5)]
        plan: List[Tuple[str, str, Any, Any]] = []
        for v in ("none", "node", "numa"):
            plan.append(("mesh_update", v, run_mesh_update, MeshUpdateConfig(
                size="small", update=True, variant=v, read_cap=read_cap,
                steps=1, warmup_steps=1, seed=s[0])))
        for v in ("seq", "none", "node", "numa"):
            plan.append(("matmul", v, run_matmul, MatmulConfig(
                n=24, update=True, variant=v, tasks=16, seed=s[1])))
        for i, (app, fn, cfg) in enumerate((
            ("eulermhd", run_eulermhd, EulerMHDConfig),
            ("gadget", run_gadget, GadgetConfig),
            ("tachyon", run_tachyon, TachyonConfig),
        )):
            for label, runtime, hls in VARIANTS:
                plan.append((app, label, fn, cfg(
                    n_nodes=nodes, runtime=runtime, hls=hls, seed=s[2 + i])))
        plan.append(("tachyon", "hls_guided", run_tachyon, TachyonConfig(
            n_nodes=nodes, runtime="mpc", hls=True, schedule="guided",
            seed=s[4])))
        self.plan = plan
        self.op_id = 0

    # ------------------------------------------------------------- setup
    def setup(self) -> None:
        """What every Tables II-IV op builds first: the 8-node runtime
        and the HLS program with its node-scope table."""
        from repro.apps.eulermhd import EOS_TABLE_BYTES
        from repro.hls import HLSProgram
        from repro.machine import core2_cluster
        from repro.runtime import Runtime

        rt = Runtime(core2_cluster(self.nodes), n_tasks=8 * self.nodes,
                     timeout=60.0)
        prog = HLSProgram(rt)
        prog.declare("eos_table", shape=(64, 64), dtype=np.float64,
                     scope="node", virtual_bytes=EOS_TABLE_BYTES)
        prog.close()
        rt.finalize()

    def close(self) -> None:
        pass

    # -------------------------------------------------------------- pass
    def _pass(self, tracer, lat: List[float],
              setup_times: List[float]) -> Dict[Tuple[str, str], Any]:
        results = {}
        for app, label, fn, cfg in self.plan:
            timed(self.setup, setup_times)
            # each driver is a program of its own: start it on a clean heap
            gc.collect()
            with maybe_op(tracer, self.op_id):
                t0 = time.perf_counter()
                with maybe_span(tracer, f"apps.{app}"):
                    results[(app, label)] = fn(cfg)
                lat.append(time.perf_counter() - t0)
            self.op_id += 1
        return results

    @staticmethod
    def _check(res) -> Tuple[int, List[str]]:
        """Gate the pass; returns (ops judged incorrect, messages)."""
        from repro.apps.eulermhd import EOS_TABLE_BYTES

        bad, errs = 0, []
        none, node, numa = (res[("mesh_update", v)].efficiency
                            for v in ("none", "node", "numa"))
        if not numa > node:
            bad += 2
            errs.append(f"Table I: numa efficiency {numa:.3f} not above "
                        f"node {node:.3f} under update")
        if not none < 0.6:
            bad += 1
            errs.append(f"Table I: none efficiency {none:.3f} not below 0.6")
        saved = (res[("eulermhd", "mpc")].mem.avg_bytes
                 - res[("eulermhd", "hls")].mem.avg_bytes)
        want = 7 * EOS_TABLE_BYTES
        if abs(saved - want) > 0.01 * want:
            bad += 2
            errs.append(f"Table II: HLS saves {saved / 2**20:.1f} MB per "
                        f"node, expected {want / 2**20:.0f} MB")
        for app in ("eulermhd", "gadget", "tachyon"):
            sums = {k[1]: r.checksum for k, r in res.items() if k[0] == app}
            if len(set(sums.values())) != 1:
                bad += len(sums)
                errs.append(f"{app}: checksums differ across variants {sums}")
        for v in ("seq", "none", "node", "numa"):
            if not res[("matmul", v)].perf > 0:
                bad += 1
                errs.append(f"Figure 3: {v} performance not positive")
        return bad, errs

    # ----------------------------------------------------------- measure
    def measure(self, seconds: float, tracer=None) -> Phase:
        """Passes until ``seconds`` have passed, with a fresh set-up
        before every driver run; the phase's one stretch is the pass made
        of each driver run's fastest time."""
        setup_times: List[float] = []
        errors: List[str] = []
        attempted = failed = 0
        counts: Dict[str, float] = {}
        node_mb: List[float] = []

        def unit() -> Stretch:
            nonlocal attempted, failed, counts
            lat: List[float] = []
            first = tracer is not None and not counts
            if first:
                tracer.collect_runtimes = True
            t0 = time.perf_counter()
            res = self._pass(tracer, lat, setup_times)
            elapsed = time.perf_counter() - t0
            if first:
                tracer.collect_runtimes = False
                for rt in tracer.runtimes:
                    counts = add_counts(counts, runtime_counts(rt))
                counts.update(tracer.counts)
                counts["memory.peak_node_bytes"] = max(
                    peak_node_bytes(rt) for rt in tracer.runtimes)
                tracer.runtimes.clear()
            bad, errs = self._check(res)
            attempted += len(lat)
            failed += bad
            errors.extend(errs)
            node_mb.extend(res[(app, "hls")].mem.avg_mb
                           for app in ("eulermhd", "gadget", "tachyon"))
            return Stretch(lat, len(lat), elapsed)

        runs = stretches(seconds, unit)
        # every driver run at its fastest over the passes
        best = [min(times) for times in zip(*(st.latencies for st in runs))]
        return Phase(
            stretches=[Stretch(best, len(best), sum(best))],
            setup_times=setup_times, attempted=attempted,
            failed=failed, counts=counts,
            extra={"node_mem_mb": float(np.mean(node_mb))}, errors=errors,
        )

    def finish(self) -> List[str]:
        return []
