"""The four benchmark workloads, their seeded inputs and their output checks.

Every workload is one client in a closed loop on the public
:class:`repro.api.ProphetClient` API: the next call is issued only after the
previous one returns. A workload object is built from ``(seed, scale)``; the
seed draws the Monte Carlo ``base_seed``, the point order of the fixed-budget
sweeps and the walk path, and the program receives only those generated
inputs.

A *session* is one pass of the workload on a freshly opened client. The
output check replays the same inputs once under a configuration the repo
pins bitwise-equal (the ``loop`` sampling backend, or the inline
single-shard executor) and compares every operation's statistics digest.

The scenario text (``ADAPTIVE_DSL``, the 36-point Figure-2 grid) and the
statistics digest come from ``benchmarks/run_all.py``.
"""

from __future__ import annotations

import gc
import os
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

import run_all
from repro.api import ClientConfig, ProphetClient, SamplingConfig

#: Adaptive target half-width, the same for every seed: about 1.3x the worst
#: full-budget CI half-width of the grid at 200 worlds, so every point can
#: retire early and the worlds spent hardly vary between seeds.
ADAPTIVE_TARGET_CI = 230.0

#: The walk's repeating move pattern: slider names, or ``None`` for a move
#: that undoes the previous one (a fixed 1-in-8 minority). Purchase moves,
#: which need a new capacity basis, are three in four, so the median move
#: sits inside their latency mode rather than in the gap below it.
MOVE_CYCLE = (
    "purchase1", "purchase2", "purchase1", None,
    "purchase2", "purchase1", "feature", "purchase2",
)

#: ``explore_proactively`` budget after each walk move (the user's idle time).
PROACTIVE = 2

#: Process-pool workers on ``pool_sweep``, each with one shard.
POOL_WORKERS = 2

#: The purchase plane is cut into this many bands per purchase slider.
WALK_CELLS = 2

#: Legs of the walk: two rounds over the cells, each leg at its own pair of
#: cell and feature value, so legs never retrace each other's points. The
#: seed picks each leg's start; one round of four starts left the cost of a
#: session 25% apart between seeds, and more legs average that out.
WALK_LEGS = 8

GRID_DSL = run_all.ADAPTIVE_DSL

#: The interactive grid: both purchase axes at step 4 (14 x 14 x 4 points).
WALK_DSL = GRID_DSL.replace(
    "@purchase1 AS RANGE 0 TO 52 STEP BY 26", "@purchase1 AS RANGE 0 TO 52 STEP BY 4"
).replace(
    "@purchase2 AS RANGE 0 TO 52 STEP BY 26", "@purchase2 AS RANGE 0 TO 52 STEP BY 4"
)


@dataclass(frozen=True)
class Scale:
    """Input sizes; ``FULL`` is the benchmark (tests run smaller ones)."""

    n_worlds: int = 200
    pool_worlds: int = 400
    grid_points: Optional[int] = None  #: ``None``: the whole 36-point grid
    walk_moves: int = 8  #: per leg
    walk_cap: int = 16
    min_sessions: int = 3


FULL = Scale()


@dataclass
class Session:
    """What one pass of a workload observed."""

    wall_s: float
    latencies_s: list[float]  #: one per operation
    worlds: int  #: budgeted worlds resolved
    digests: list[bytes]  #: one per operation, compared with the reference
    failed: int  #: operations that raised or returned an error
    #: Latency of each move's first progressive view (interactive_walk).
    first_views_s: list[float] = field(default_factory=list)
    stats: dict[str, Any] = field(default_factory=dict)
    children_rss_kb: int = 0


statistics_digest = run_all._statistics_digest


def _children_hwm_kb() -> int:
    """Summed peak RSS of this process's live children (Linux ``/proc``)."""
    total = 0
    tasks = Path("/proc/self/task")
    if not tasks.is_dir():
        return 0
    for task in tasks.iterdir():
        try:
            pids = (task / "children").read_text().split()
        except OSError:
            continue
        for pid in pids:
            total += hwm_kb(Path("/proc") / pid / "status")
    return total


def hwm_kb(status: Path = Path("/proc/self/status")) -> int:
    """``VmHWM`` (peak resident set) of one process, in KiB; 0 if unknown."""
    try:
        for line in status.read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        pass
    return 0


class Workload:
    """One named workload: seeded inputs, a session, and its reference."""

    name = ""
    #: Called between two operations where the workload can pause (between
    #: the walk's moves; a sweep streams its points from one call). It
    #: returns the seconds it took, which the session's times leave out.
    pause: Optional[Callable[[], float]] = None

    def __init__(self, seed: int, scale: Scale = FULL) -> None:
        self.scale = scale
        self.rng = random.Random(f"{self.name}:{seed}")
        self.base_seed = self.rng.randrange(1, 2**31)
        self._reference: Optional[list[bytes]] = None

    # -- to override --------------------------------------------------------

    def open(self, backend: str = "batched") -> ProphetClient:
        """A client with its backend built (the timed set-up)."""
        raise NotImplementedError

    def run(self, client: ProphetClient) -> Session:
        raise NotImplementedError

    def reference_client(self) -> ProphetClient:
        raise NotImplementedError

    def operations(self) -> int:
        """Operations in one session."""
        raise NotImplementedError

    # -- shared -------------------------------------------------------------

    def session(self, tracer: Any = None) -> tuple[float, Session]:
        """Open a client, run one pass on it, close it; returns set-up time.

        ``tracer`` (a :class:`tracer.Tracer`) is installed around the pass
        only, so its spans cover exactly the pass's wall time.
        """
        started = time.perf_counter()
        client = self.open()
        setup_s = time.perf_counter() - started
        try:
            if tracer is None:
                result = self.run(client)
            else:
                with tracer:
                    result = self.run(client)
            result.stats = client.stats().to_dict()
            result.children_rss_kb = _children_hwm_kb()
        finally:
            client.close()
            # Free the closed client's reference cycles now, so neither the
            # next session's timing nor the peak RSS depends on when the
            # cyclic collector happens to run.
            gc.collect()
        return setup_s, result

    def setup_only(self) -> float:
        started = time.perf_counter()
        client = self.open()
        elapsed = time.perf_counter() - started
        client.close()
        gc.collect()
        return elapsed

    def reference(self) -> list[bytes]:
        """Per-operation digests of the replay (computed once)."""
        if self._reference is None:
            client = self.reference_client()
            try:
                self._reference = self.run(client).digests
            finally:
                client.close()
        return self._reference

    def mismatches(self, result: Session) -> int:
        """Operations whose output differs from the reference replay."""
        expected = self.reference()
        if len(expected) != len(result.digests):
            return max(len(expected), len(result.digests))
        return sum(a != b for a, b in zip(expected, result.digests))

    def _config(self, n_worlds: int, backend: str = "batched") -> ClientConfig:
        return ClientConfig(
            sampling=SamplingConfig(
                n_worlds=n_worlds, base_seed=self.base_seed, backend=backend
            )
        )


class _GridSweep(Workload):
    """A streaming sweep of the 36-point grid on one client.

    An operation is one grid point; its latency runs from the start of the
    sweep to the moment its result is streamed, which is when the user sees
    that point's answer. So on a sweep ``op_p50_ms`` is the time until half
    the grid is shown and ``op_tail_ms`` nearly the whole sweep: both follow
    ``session_s`` and differ from it only in how work is spread over the
    stream. The gap between consecutive results is no steadier measure: the
    seeded point order decides which points reuse a basis, and the median
    gap swings between the reuse modes (10 vs 15 ms on ``offline_sweep``),
    while the adaptive handle releases most results at once.
    """

    #: The seed draws the point order (else the grid's own order is kept).
    shuffle = True
    reuse = True

    def __init__(self, seed: int, scale: Scale = FULL) -> None:
        super().__init__(seed, scale)
        client = ProphetClient.open(GRID_DSL, "demo")
        self.points = [dict(p) for p in client.scenario.sweep_space.grid()]
        if self.shuffle:
            self.rng.shuffle(self.points)
        if scale.grid_points is not None:
            self.points = self.points[: scale.grid_points]
        self.n_worlds = self.worlds(scale)

    def worlds(self, scale: Scale) -> int:
        return scale.n_worlds

    def operations(self) -> int:
        return len(self.points)

    def digest(self, result: Any) -> bytes:
        return statistics_digest([result]) if result.ok else b""

    def succeeded(self, result: Any) -> bool:
        return result.ok

    def run(self, client: ProphetClient) -> Session:
        started = time.perf_counter()
        results, latencies = [], []
        for result in client.sweep(self.points, reuse=self.reuse):
            latencies.append(time.perf_counter() - started)
            results.append(result)
        return Session(
            wall_s=time.perf_counter() - started,
            latencies_s=latencies,
            worlds=len(self.points) * self.n_worlds,
            digests=[self.digest(r) for r in results],
            failed=sum(not self.succeeded(r) for r in results),
        )


class OfflineSweep(_GridSweep):
    """A cold client sweeps the grid at full budget, then runs ``optimize()``."""

    name = "offline_sweep"

    def open(self, backend: str = "batched") -> ProphetClient:
        config = self._config(self.n_worlds, backend)
        client = ProphetClient.open(GRID_DSL, "demo", config=config)
        client.backend_description()
        return client

    def reference_client(self) -> ProphetClient:
        return self.open(backend="loop")

    def operations(self) -> int:
        return len(self.points) + 1

    def run(self, client: ProphetClient) -> Session:
        started = time.perf_counter()
        session = super().run(client)
        try:
            best = repr(sorted(client.optimize().run().best_point().items()))
        except Exception:  # noqa: BLE001 -- counted as a failed operation
            best = ""
            session.failed += 1
        session.wall_s = time.perf_counter() - started
        session.digests.append(best.encode())
        return session


class AdaptiveSweep(_GridSweep):
    """The grid through ``with_adaptive``; retired points must meet the target.

    The adaptive handle streams results in submission order, so a shuffled
    order would make every latency depend on which point happens to come
    first; the grid's own order is kept and the seed draws ``base_seed``.

    The replay under the ``loop`` backend (bitwise-equal by the round
    protocol's contract) must reproduce every point's statistics and the
    worlds it spent.
    """

    name = "adaptive_sweep"
    shuffle = False

    def open(self, backend: str = "batched") -> ProphetClient:
        client = ProphetClient.open(
            GRID_DSL, "demo", config=self._config(self.n_worlds, backend)
        ).with_adaptive(target_ci=ADAPTIVE_TARGET_CI)
        client.backend_description()
        return client

    def reference_client(self) -> ProphetClient:
        return self.open(backend="loop")

    def digest(self, result: Any) -> bytes:
        if not result.ok:
            return b""
        return statistics_digest([result]) + f"|{result.worlds_spent}".encode()

    def succeeded(self, result: Any) -> bool:
        # A retired (converged) point must meet the target; the others spent
        # their whole budget and carry whatever CI it bought.
        met = not result.retired_early or result.max_ci <= ADAPTIVE_TARGET_CI
        return result.ok and met


class PoolSweep(_GridSweep):
    """The grid with reuse off on a 2-worker process pool, 2 shards."""

    name = "pool_sweep"
    reuse = False

    def worlds(self, scale: Scale) -> int:
        return scale.pool_worlds

    def open(self, backend: str = "batched") -> ProphetClient:
        client = ProphetClient.open(
            GRID_DSL, "demo", config=self._config(self.n_worlds, backend)
        ).with_serving(executor="process", workers=POOL_WORKERS, shards=POOL_WORKERS)
        client.backend_description()
        # The pool forks its workers on the first submitted task; start them
        # here so worker spawn is set-up, not sweep time.
        executor = client._service.executor
        for future in [executor.submit(os.getpid) for _ in range(POOL_WORKERS)]:
            future.result(timeout=60)
        return client

    def reference_client(self) -> ProphetClient:
        client = ProphetClient.open(
            GRID_DSL, "demo", config=self._config(self.n_worlds)
        ).with_serving(executor="inline", shards=1)
        client.backend_description()
        return client


class InteractiveWalk(Workload):
    """A seeded slider walk: progressive refresh per move, idle exploration.

    An operation is one slider move, timed over ``refresh_progressive()``;
    the small ``explore_proactively`` call after it stands for the user's
    idle time and counts in the session wall time only.
    """

    name = "interactive_walk"

    def __init__(self, seed: int, scale: Scale = FULL) -> None:
        super().__init__(seed, scale)
        client = ProphetClient.open(WALK_DSL, "demo")
        space = client.scenario.sweep_space
        self.axes = {name: list(space.parameter(name).values) for name in space.names}
        self.path = [
            point for leg in range(WALK_LEGS) for point in self._leg(leg)
        ]

    def operations(self) -> int:
        return len(self.path)

    def _leg(self, leg: int) -> list[dict[str, Any]]:
        """One leg of the walk along :data:`MOVE_CYCLE`.

        Leg ``leg`` starts in cell ``leg`` modulo the :data:`WALK_CELLS` x
        :data:`WALK_CELLS` partition of the purchase plane, at a feature value
        no other leg in that cell uses, so every walk covers the same
        regions; the seed picks the point inside the cell. Each step moves
        its slider one notch towards the far end of the slider, reversing at
        the end.
        """
        rng = self.rng
        features = self.axes["feature"]
        cells = WALK_CELLS * WALK_CELLS
        cell = leg % cells
        point = {"feature": features[(leg + leg // cells) % len(features)]}
        for name, band in (("purchase1", cell % WALK_CELLS), ("purchase2", cell // WALK_CELLS)):
            values = self.axes[name]
            lo = band * len(values) // WALK_CELLS
            hi = (band + 1) * len(values) // WALK_CELLS
            point[name] = rng.choice(values[lo:hi])
        # Drag each slider towards the far end from where the leg starts, so
        # a leg's steps never bounce back onto points it already visited.
        direction = {
            name: 1 if values.index(point[name]) < len(values) // 2 else -1
            for name, values in self.axes.items()
        }
        path, previous = [point], point
        while len(path) < self.scale.walk_moves:
            name = MOVE_CYCLE[(len(path) - 1) % len(MOVE_CYCLE)]
            if name is None:
                point, previous = previous, point
            else:
                values = self.axes[name]
                index = values.index(point[name])
                if not 0 <= index + direction[name] < len(values):
                    direction[name] = -direction[name]
                previous = point
                point = {**point, name: values[index + direction[name]]}
            path.append(point)
        return path

    def open(self, backend: str = "batched") -> ProphetClient:
        config = self._config(self.scale.n_worlds, backend)
        client = ProphetClient.open(WALK_DSL, "demo", config=config).with_basis_store(
            cap=self.scale.walk_cap
        )
        client.backend_description()
        return client

    def reference_client(self) -> ProphetClient:
        return self.open(backend="loop")

    def run(self, client: ProphetClient) -> Session:
        handle = client.interactive()
        latencies, first_views, digests = [], [], []
        failed = 0
        paused = 0.0
        started = time.perf_counter()
        for point in self.path:
            handle.set_sliders(point)
            move_started = time.perf_counter()
            try:
                views = handle.refresh_progressive()
            except Exception:  # noqa: BLE001 -- counted as a failed operation
                views = None
            # One latency per move, failed or not, so sessions line up.
            latencies.append(time.perf_counter() - move_started)
            if views is None:
                failed += 1
                digests.append(b"")
                continue
            first_views.append(views[0].elapsed_seconds)
            digests.append(statistics_digest(views))
            handle.explore_proactively(PROACTIVE)
            if self.pause is not None:
                paused += self.pause()
        wall = time.perf_counter() - started - paused
        return Session(
            wall_s=wall,
            latencies_s=latencies,
            worlds=len(self.path) * self.scale.n_worlds,
            digests=digests,
            failed=failed,
            first_views_s=first_views,
        )


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (OfflineSweep, InteractiveWalk, AdaptiveSweep, PoolSweep)
}


def make(name: str, seed: int, scale: Scale = FULL) -> Workload:
    return WORKLOADS[name](seed, scale)


