"""Smoke tests of the benchmark itself, at tiny scale.

    PYTHONPATH=src python -m pytest perfbench -q

Each workload must emit every metric ``BENCHMARK.json`` names, with its
unit, in both modes; the traced mode must report its own overhead and
unattributed share; exact counters must repeat for a fixed seed; and a
run must leave the repository's files untouched.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import run as bench  # noqa: E402
from harness import COUNT_METRICS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)

SECONDS = 0.5


def tiny(name: str, seed: int = 3, scratch: str = ""):
    if name == "paper_tables":
        from paper_tables import PaperTables
        return PaperTables(seed, nodes=2, read_cap=128)
    if name == "solver_loop":
        from solver_loop import SolverLoop
        return SolverLoop(seed, tasks=8, nodes=1, rows=8)
    if name == "window_epochs":
        from window_epochs import WindowEpochs
        return WindowEpochs(seed, scratch=scratch, count=384, epochs=50)
    from job_stream import JobStream
    return JobStream(seed)


def _run(name, trace, tmp_path, seed=3):
    return bench.run(tiny(name, seed, str(tmp_path / "scratch")), SECONDS,
                     trace)


def _units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_spec_lists_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)
    assert SPEC["paths"] == ["perfbench"]


@pytest.mark.parametrize("name", bench.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True], ids=["e2e", "traced"])
def test_workload_emits_every_metric(name, trace, tmp_path):
    correct, attempted, failed, metrics, errors = _run(name, trace, tmp_path)
    assert correct and not errors, errors
    assert attempted >= 1 and failed == 0
    want = _units("per_layer" if trace else "end_to_end")
    assert {k: m["unit"] for k, m in metrics.items()} == want
    for k, m in metrics.items():
        assert isinstance(m["value"], (int, float)), k
    if trace:
        assert metrics["bench.trace_overhead_ratio"]["value"] > 0
        assert 0 <= metrics["bench.unattributed_share"]["value"] < 1
    else:
        for k in ("setup_s", "ops_per_s", "op_ms_p50", "node_mem_mb"):
            assert metrics[k]["value"] > 0, k
    assert not os.path.exists(tmp_path / "scratch")


@pytest.mark.parametrize("name", ["solver_loop", "window_epochs", "job_stream"])
def test_counts_repeat_for_a_seed(name, tmp_path):
    runs = [_run(name, True, tmp_path)[3] for _ in range(2)]
    for k in COUNT_METRICS:
        assert runs[0][k]["value"] == runs[1][k]["value"], k


def test_solver_matches_serial_reference():
    from solver_loop import SolverLoop

    w = SolverLoop(5, tasks=8, nodes=1, rows=8)
    w.setup()
    try:
        phase = w.measure(SECONDS)
    finally:
        w.close()
    assert not phase.errors and phase.attempted > 0
    assert phase.extra["bench.serial_iter_ms"] > 0


def test_run_leaves_repo_files_untouched(tmp_path):
    def digest():
        out = {}
        for path in sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json"))):
            with open(path, "rb") as fh:
                out[path] = hashlib.sha256(fh.read()).hexdigest()
        return out

    before = digest()
    for name in ("window_epochs", "job_stream"):
        _run(name, False, tmp_path)
    assert digest() == before


def test_cli_fails_without_the_program(tmp_path):
    """Only BENCHMARK.json and the benchmark's own files: no result,
    non-zero exit."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        SPEC["command"] + ["--workload", "solver_loop", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
