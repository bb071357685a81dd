#!/usr/bin/env python3
"""Repo benchmark: one workload, one seed, one JSON result line.

Usage, from the repository root::

    python3 perfbench/run.py --workload offline_sweep --seed 1 --seconds 12 --trace 0

Workloads: ``offline_sweep``, ``interactive_walk``, ``adaptive_sweep``,
``pool_sweep`` (see ``perfbench/workloads.py`` and ``BENCHMARK.json``).
The run repeats sessions of the workload, each on a freshly opened client,
until ``--seconds`` have passed, then replays the seed's inputs under a
bitwise-equal reference configuration and checks every operation's output.

``--trace 0`` reports the end-to-end metrics in reference time: each
timing as measured, divided by the host's slowdown during the run. On a
shared 2-core VM a pure-Python loop runs up to 1.6x slower in stretches
of seconds to minutes, its CPU time rising as much as its wall time, so
the slowdown comes from the host and not from the program, and raw run
medians drifted by 30% within half an hour. A fixed probe of interpreter
and numpy work (:func:`probe`), timed after every session and set-up and
between the walk's moves, measures that slowdown as its mean time over
the run against :data:`PROBE_REFERENCE_S`; the human-readable lines print
the slowdown and the raw timings. Sessions repeat the same operations, so an
operation's latency is its mean over the sessions, and ``op_p50_ms`` and
``op_tail_ms`` are the median and the highest percentile with ten
operations beyond it.
``--trace 1`` alternates untraced and traced sessions and reports per-layer
self time and calls, the reuse counters of ``client.stats()``, the part of
wall time no layer accounts for, and the tracing overhead; the spans are
written to ``perfbench/out/``.

The last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``; the exit code is 0 only when every output matched.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

#: Samples beyond the reported tail percentile.
TAIL_SAMPLES = 10
#: Set-ups timed per run (session clients count; the rest open and close).
MIN_SETUPS = 21
#: Extra set-ups timed after each session, so set-ups span the whole run.
SETUPS_PER_SESSION = 2
#: Probes timed after each session and after each extra set-up; the walk,
#: whose sessions last seconds, also probes between moves (see
#: ``Workload.pause``), so probes sample the host as evenly over the run as
#: the timed work does.
PROBES_PER_STEP = 8
#: Rounds of the probe (about 2.5 ms in all on a 2-core VM).
PROBE_ROUNDS = 25
#: The probe's time on that VM when its host is quiet; a run whose probes
#: average this has a slowdown of 1 and reports timings as measured.
PROBE_REFERENCE_S = 0.0025


def probe() -> float:
    """Time a fixed mix of small dict/list/str work and numpy array work.

    The mix is the program's own (interpreter-bound SQL and storage code,
    numpy sampling), so a slower host slows it by about the same factor. It
    keeps under 100 KB live, so it adds nothing to the run's peak memory.
    """
    started = time.perf_counter()
    total = 0.0
    for i in range(PROBE_ROUNDS):
        table = {str(j): [j, j * 2.5, (j, "x")] for j in range(200)}
        for key, value in table.items():
            total += value[1] + len(key)
        column = np.arange(2000, dtype=float) * (i + 1)
        total += float(np.sort(column[::-1] % 7.0).cumsum()[-1])
    return time.perf_counter() - started


def declared_units(trace: bool) -> dict[str, str]:
    """Metric names and units as ``BENCHMARK.json`` declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _bootstrap() -> None:
    for path in (ROOT / "benchmarks", ROOT / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten of ``n`` samples beyond it."""
    if n <= TAIL_SAMPLES:
        return 50
    return max(50, math.floor(100 * (1 - TAIL_SAMPLES / n)))


def percentile(values: list[float], pct: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1]


def _run_sessions(workload: Any, seconds: float, step: Callable[[], None]) -> None:
    """Call ``step()`` until the time is up and the minimum sessions ran."""
    started = time.perf_counter()
    index = 0
    while index < workload.scale.min_sessions or time.perf_counter() - started < seconds:
        step()
        index += 1


def _check(workload: Any, sessions: list[Any]) -> tuple[int, int]:
    """``(attempted, failed)`` over sessions; mismatches count as failed."""
    attempted = failed = 0
    for session in sessions:
        attempted += workload.operations()
        failed += session.failed + workload.mismatches(session)
    return attempted, failed


def measure_e2e(workload: Any, seconds: float) -> tuple[dict[str, float], list[Any], str]:
    from workloads import hwm_kb

    setups: list[float] = []
    sessions: list[Any] = []
    probes: list[float] = []

    def pause() -> float:
        probes.append(probe())
        return probes[-1]

    def step() -> None:
        setup_s, session = workload.session()
        setups.append(setup_s)
        sessions.append(session)
        probes.extend(probe() for _ in range(PROBES_PER_STEP))
        for _ in range(SETUPS_PER_SESSION):
            setups.append(workload.setup_only())
            probes.extend(probe() for _ in range(PROBES_PER_STEP))

    workload.pause = pause
    try:
        _run_sessions(workload, seconds, step)
    finally:
        workload.pause = None
    peak_kb = hwm_kb() + max(s.children_rss_kb for s in sessions)
    while len(setups) < MIN_SETUPS:
        setups.append(workload.setup_only())
        probes.extend(probe() for _ in range(PROBES_PER_STEP))

    # Sessions repeat the same operations in the same order; each
    # operation's latency is its mean over the run's sessions.
    op_means = [statistics.fmean(column) for column in zip(*(s.latencies_s for s in sessions))]
    tail = tail_percentile(len(op_means))
    raw = {
        "setup_s": statistics.median(setups),
        "session_s": statistics.fmean(s.wall_s for s in sessions),
        "op_p50_ms": 1e3 * statistics.median(op_means),
        "op_tail_ms": 1e3 * percentile(op_means, tail),
    }
    slowdown = statistics.fmean(probes) / PROBE_REFERENCE_S
    metrics = {name: value / slowdown for name, value in raw.items()}
    metrics["worlds_per_s"] = sessions[0].worlds / metrics["session_s"]
    metrics["peak_rss_mb"] = peak_kb / 1024
    note = (
        f"{len(sessions)} sessions, {len(setups)} set-ups; op_tail_ms is p{tail} of "
        f"{len(op_means)} operations; host slowdown {slowdown:.4f} from {len(probes)} "
        f"probes; as measured: "
        + ", ".join(f"{name} {value:.6g}" for name, value in raw.items())
    )
    return metrics, sessions, note


def _ratio(hits: float, total: float) -> float:
    return hits / total if total else 0.0


def counter_metrics(stats: dict[str, Any]) -> dict[str, float]:
    """Reuse, cache and serve counters of one session's ``client.stats()``."""
    basis, memo, execution = stats["basis"], stats["week_memo"], stats["execution"]
    service = stats.get("service") or {}
    scheduler = stats.get("scheduler") or {}
    return {
        "core.storage.exact_hits": basis["exact_hits"],
        "core.storage.mapped_hits": basis["mapped_hits"],
        "core.storage.misses": basis["misses"],
        "core.engine.week_memo_hit_rate": _ratio(memo["hits"], memo["hits"] + memo["misses"]),
        "core.basis_store.resident_bytes": basis["resident_bytes"],
        "core.basis_store.evictions": basis["tier_evictions"],
        "sqldb.plan_cache_hit_rate": _ratio(
            execution["plan_cache_hits"],
            execution["plan_cache_hits"] + execution["plan_cache_misses"],
        ),
        "serve.service.shard_tasks": service.get("shard_tasks", 0),
        "serve.service.shard_retries": service.get("shard_retries", 0),
        "serve.service.transport_fallbacks": service.get("transport_fallbacks", 0),
        "serve.transport.bytes_shipped": service.get("bytes_shipped", 0),
        "serve.transport.bytes_zero_copy": service.get("bytes_zero_copy", 0),
        "core.rounds.worlds_spent": scheduler.get("worlds_spent", 0),
    }


def measure_traced(
    workload: Any, seconds: float, seed: int
) -> tuple[dict[str, float], list[Any], str]:
    """Alternate untraced and traced sessions of the same inputs."""
    from tracer import LAYERS, Tracer, method_calls, summarize

    tracer = Tracer()
    untraced: list[Any] = []
    traced: list[Any] = []
    rows: list[dict[str, float]] = []

    def step() -> None:
        for trace in (False, True):
            first = len(tracer.spans)
            hits = tracer.best_match_hits
            _, session = workload.session(tracer=tracer if trace else None)
            if not trace:
                untraced.append(session)
                continue
            traced.append(session)
            spans = tracer.spans[first:]
            summary = summarize(spans, session.wall_s)
            matches = method_calls(spans, "core.fingerprint", "best_match")
            row = {f"{layer}.self_s": summary.self_s[layer] for layer in LAYERS}
            row.update({f"{layer}.calls": summary.calls[layer] for layer in LAYERS})
            row["core.fingerprint.match_rate"] = _ratio(
                tracer.best_match_hits - hits, matches
            )
            row["vg.per_world_calls"] = method_calls(spans, "vg", "invoke")
            row["vg.batch_calls"] = method_calls(spans, "vg", "invoke_batch")
            row.update(counter_metrics(session.stats))
            row["trace.unattributed_s"] = summary.unattributed_s
            row["trace.coverage"] = summary.coverage
            rows.append(row)

    _run_sessions(workload, seconds, step)
    metrics = {name: statistics.fmean(row[name] for row in rows) for name in rows[0]}
    metrics["trace.overhead"] = statistics.median(
        t.wall_s / u.wall_s for t, u in zip(traced, untraced)
    )
    first_views = [x for s in untraced for x in s.first_views_s]
    metrics["core.online.first_view_p50_ms"] = (
        1e3 * statistics.median(first_views) if first_views else 0.0
    )
    path = OUT_DIR / f"spans-{workload.name}-seed{seed}.jsonl"
    tracer.write(path)
    note = (
        f"{len(traced)} traced + {len(untraced)} untraced sessions; "
        f"{len(tracer.spans)} spans written to {path}"
    )
    return metrics, traced + untraced, note


def _stop_resource_tracker() -> None:
    """Stop and reap multiprocessing's resource tracker, if one was started.

    The serve plane's shard transport starts it when a service is built;
    left alone it outlives this process, which the run must not do.
    """
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _bootstrap()
    try:
        import workloads
    except ImportError as error:
        print(f"error: cannot import the program under {ROOT}: {error}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} (known: {sorted(workloads.WORKLOADS)})")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    workload = workloads.make(args.workload, args.seed, workloads.FULL)
    try:
        if args.trace:
            metrics, sessions, note = measure_traced(workload, args.seconds, args.seed)
        else:
            metrics, sessions, note = measure_e2e(workload, args.seconds)
        attempted, failed = _check(workload, sessions)
    finally:
        _stop_resource_tracker()
    units = declared_units(bool(args.trace))
    if set(metrics) != set(units):
        print(f"error: measured metrics differ from BENCHMARK.json: "
              f"{sorted(set(metrics) ^ set(units))}", file=sys.stderr)
        return 2

    print(f"{args.workload} seed={args.seed}: {note}")
    for name in units:
        print(f"  {name:40s} {metrics[name]:14.6g} {units[name]}")
    print(f"  failed {failed} of {attempted} operations")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
