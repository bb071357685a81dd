"""Tests of the benchmark itself: tracer arithmetic, tiny runs, output checks.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

sys.path.insert(0, str(HERE))
import run  # noqa: E402

run._bootstrap()
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
#: Input sizes that run every workload in seconds.
TINY = workloads.Scale(
    n_worlds=16, pool_worlds=16, grid_points=6, walk_moves=4, walk_cap=4,
    min_sessions=1,
)


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(workloads, "FULL", TINY)


def _span(id, parent, layer, start, end, op=1):
    return tracer.Span(id, parent, op, layer, "m", start, end)


# -- self-time arithmetic ---------------------------------------------------------


def test_self_time_subtracts_children_at_every_depth():
    spans = [
        _span(1, None, "a", 0.0, 10.0),
        _span(2, 1, "b", 1.0, 4.0),
        _span(3, 2, "c", 2.0, 3.0),
        _span(4, 1, "c", 5.0, 9.0),
        _span(5, 4, "b", 6.0, 6.5),
    ]
    times = tracer.self_times(spans)
    assert times == pytest.approx({"a": 3.0, "b": 2.5, "c": 4.5})
    # Nested spans partition the root: self times add up to its duration.
    assert sum(times.values()) == pytest.approx(10.0)


def test_covered_takes_the_union_clipped_to_the_parent():
    assert tracer.covered(0.0, 10.0, [(1.0, 4.0), (3.0, 6.0)]) == pytest.approx(5.0)
    assert tracer.covered(2.0, 5.0, [(0.0, 3.0), (4.0, 8.0)]) == pytest.approx(2.0)
    assert tracer.covered(0.0, 1.0, []) == 0.0


def test_summary_reports_unattributed_wall_time_and_coverage():
    spans = [_span(1, None, "core.engine", 0.0, 3.0), _span(2, 1, "vg", 1.0, 2.0, op=1),
             _span(3, None, "vg", 3.5, 3.9, op=2)]
    summary = tracer.summarize(spans, wall_s=4.0)
    assert summary.self_s["core.engine"] == pytest.approx(2.0)
    assert summary.self_s["vg"] == pytest.approx(1.4)
    assert summary.calls["vg"] == 2
    assert summary.unattributed_s == pytest.approx(0.6)
    assert summary.coverage == pytest.approx(0.85)


class _Layer:
    def outer(self):
        return self.inner()

    def inner(self):
        return 7


def test_tracer_wraps_and_restores_methods(monkeypatch):
    monkeypatch.setattr(
        tracer, "BOUNDARIES",
        (("outer", f"{__name__}:_Layer", ("outer",)),
         ("inner", f"{__name__}:_Layer", ("inner",))),
    )
    original = _Layer.__dict__["outer"]
    recorder = tracer.Tracer()
    with recorder:
        assert _Layer().outer() == 7
        assert _Layer.__dict__["outer"] is not original
    assert _Layer.__dict__["outer"] is original
    outer, = [s for s in recorder.spans if s.layer == "outer"]
    inner, = [s for s in recorder.spans if s.layer == "inner"]
    assert inner.parent == outer.id and inner.op == outer.op
    assert outer.start <= inner.start <= inner.end <= outer.end


# -- end-to-end arithmetic ----------------------------------------------------------


class _FixedWorkload:
    """Three sessions of known walls and per-operation latencies."""

    scale = workloads.Scale(min_sessions=3)

    def __init__(self):
        self.walls = iter([1.0, 3.0, 2.0])

    def session(self):
        wall = next(self.walls)
        return 0.004, workloads.Session(
            wall_s=wall, latencies_s=[wall / 4, wall / 2], worlds=60, digests=[], failed=0,
        )

    def setup_only(self):
        return 0.002


def test_timings_are_operation_means_divided_by_the_host_slowdown(monkeypatch):
    monkeypatch.setattr(run, "probe", lambda: 2 * run.PROBE_REFERENCE_S)
    metrics, sessions, _ = run.measure_e2e(_FixedWorkload(), seconds=0)
    assert len(sessions) == 3
    # Raw: mean wall 2 s; operation means 0.5 and 1.0 s; median set-up 2 ms.
    assert metrics["session_s"] == pytest.approx(1.0)
    assert metrics["worlds_per_s"] == pytest.approx(60.0)
    assert metrics["op_p50_ms"] == pytest.approx(375.0)
    assert metrics["op_tail_ms"] == pytest.approx(250.0)  # two operations: p50
    assert metrics["setup_s"] == pytest.approx(0.001)


# -- tiny runs of every workload ----------------------------------------------------


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_reports_every_declared_metric(
    workload, trace, tiny, tmp_path, monkeypatch, capsys
):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    code = run.main([
        "--workload", workload, "--seed", "3", "--seconds", "0.01",
        "--trace", str(trace),
    ])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    if trace:
        assert result["metrics"]["trace.coverage"]["value"] > 0.5
        assert list(tmp_path.glob("spans-*.jsonl"))


def test_seed_fixes_the_inputs():
    make = workloads.make
    for name in WORKLOADS:
        a, b, c = make(name, 5, TINY), make(name, 5, TINY), make(name, 6, TINY)
        assert a.base_seed == b.base_seed != c.base_seed
    assert make("offline_sweep", 5, TINY).points == make("offline_sweep", 5, TINY).points
    assert make("interactive_walk", 5, TINY).path == make("interactive_walk", 5, TINY).path


# -- output checks ------------------------------------------------------------------


@pytest.mark.parametrize("workload", ["offline_sweep", "adaptive_sweep"])
def test_corrupted_reference_fails_the_run(workload, tiny, monkeypatch, capsys):
    cls = workloads.WORKLOADS[workload]
    honest = cls.reference
    monkeypatch.setattr(cls, "reference", lambda self: [b"corrupted"] + honest(self)[1:])
    code = run.main([
        "--workload", workload, "--seed", "1", "--seconds", "0.01",
        "--trace", "0",
    ])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert result["correct"] is False and result["failed"] >= 1


def test_run_without_the_program_exits_nonzero_silently(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "offline_sweep",
         "--seed", "1", "--seconds", "0.01", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode != 0
    assert done.stdout == ""
