"""Shard executors: where shard sampling tasks actually run.

Two interchangeable backends behind one ``submit`` interface:

* :class:`ProcessExecutor` — a ``concurrent.futures.ProcessPoolExecutor``.
  Workers are long-lived, so each worker process builds its engine once
  (from an :class:`~repro.serve.worker.EngineSpec`) and amortizes it over
  every shard task it receives. The pool is *recyclable*: a crashed or
  hung worker is healed by :meth:`ProcessExecutor.recycle`, which tears
  down the pool (terminating stuck processes) and builds a fresh one in
  place — the executor object's identity, and everyone holding it, stays
  stable.
* :class:`InlineExecutor` — runs tasks synchronously in the calling
  process. The fallback for tests, debugging, single-core machines, and
  engines that cannot be described by a spec (closures are fine here
  because nothing is pickled).

Both return future-like objects exposing ``result(timeout=None)``, and
both shut down in bounded time: ``shutdown`` never waits forever on a
stuck worker, so ``EvaluationService.close()`` (and the ``ProphetClient``
context exit above it) always returns.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import Future, ProcessPoolExecutor
from typing import Any, Callable, Optional

from repro.errors import ServeError


class InlineFuture:
    """Already-resolved future: the task ran synchronously at submit.

    ``timeout`` is accepted for interface symmetry with real futures and
    ignored — the result is, by construction, already here.
    """

    __slots__ = ("_value", "_error")

    def __init__(self, value: Any = None, error: Optional[BaseException] = None) -> None:
        self._value = value
        self._error = error

    def result(self, timeout: Optional[float] = None) -> Any:
        if self._error is not None:
            raise self._error
        return self._value


class InlineExecutor:
    """Synchronous in-process executor (tests, debug, 1-core fallback)."""

    kind = "inline"

    def __init__(self) -> None:
        self.workers = 1
        self.tasks_run = 0

    def submit(self, fn: Callable[..., Any], *args: Any) -> InlineFuture:
        self.tasks_run += 1
        try:
            return InlineFuture(fn(*args))
        except Exception as error:  # surfaced on .result(), like a real future
            return InlineFuture(error=error)

    def shutdown(self, timeout: float = 5.0) -> None:  # interface symmetry
        pass


class ProcessExecutor:
    """Process-pool executor with long-lived workers and a recyclable pool.

    ``start_method`` defaults to ``fork`` where available (workers inherit
    the imported package instantly) and ``spawn`` elsewhere; either way the
    submitted task must be a module-level function with picklable arguments
    — see :mod:`repro.serve.worker`.
    """

    kind = "process"

    def __init__(self, workers: Optional[int] = None, start_method: Optional[str] = None) -> None:
        cpus = os.cpu_count() or 1
        self.workers = max(1, workers if workers is not None else cpus)
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else "spawn"
        self._mp_context = multiprocessing.get_context(start_method)
        self._pool: Optional[ProcessPoolExecutor] = self._new_pool()
        self.tasks_run = 0
        #: How many times the pool was rebuilt (self-healing observability).
        self.rebuilds = 0

    def _new_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.workers, mp_context=self._mp_context
        )

    def submit(self, fn: Callable[..., Any], *args: Any) -> Future:
        if self._pool is None:
            raise ServeError("executor is shut down; cannot submit new tasks")
        self.tasks_run += 1
        return self._pool.submit(fn, *args)

    def recycle(self, timeout: float = 1.0) -> None:
        """Heal the pool: tear it down (killing stuck workers), rebuild.

        The replacement pool lives behind the same executor object, so a
        service (and its dispatcher) holding this executor keeps working
        without re-plumbing. In-flight tasks of the old pool are lost —
        callers recycle only after collecting (or writing off) the round's
        futures, and shard purity makes re-submission bit-identical.
        """
        self._teardown(self._pool, timeout)
        self._pool = self._new_pool()
        self.rebuilds += 1

    def shutdown(self, timeout: float = 5.0) -> None:
        """Bounded shutdown: never blocks forever on a stuck worker.

        Cancels queued tasks, gives live workers ``timeout`` seconds total
        to drain, then terminates (and, as a last resort, kills) whatever
        is still running. Idempotent; ``submit`` after shutdown raises.
        """
        pool, self._pool = self._pool, None
        self._teardown(pool, timeout)

    @staticmethod
    def _teardown(pool: Optional[ProcessPoolExecutor], timeout: float) -> None:
        if pool is None:
            return
        # Snapshot the worker processes before shutdown clears its books.
        processes = list((getattr(pool, "_processes", None) or {}).values())
        # Never wait=True here: a worker hung inside a task would block the
        # join forever. cancel_futures drops everything still queued.
        pool.shutdown(wait=False, cancel_futures=True)
        # repro-lint: disable=DET001 -- teardown deadline for killing hung
        # workers; runs after all results are in, never affects them.
        deadline = time.monotonic() + max(0.0, timeout)
        for process in processes:
            # repro-lint: disable=DET001 -- teardown deadline (see above).
            process.join(max(0.0, deadline - time.monotonic()))
            if process.is_alive():
                process.terminate()
        for process in processes:
            if process.is_alive():
                process.join(1.0)
            if process.is_alive():
                process.kill()
                process.join(1.0)

    def __enter__(self) -> "ProcessExecutor":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.shutdown()


def create_executor(kind: str = "auto", workers: Optional[int] = None):
    """Build an executor: ``"process"``, ``"inline"``, or ``"auto"``.

    ``auto`` picks a process pool when more than one worker is requested
    (or available) and the inline executor otherwise.
    """
    if kind == "inline":
        return InlineExecutor()
    if kind == "process":
        return ProcessExecutor(workers)
    if kind == "auto":
        effective = workers if workers is not None else (os.cpu_count() or 1)
        if effective <= 1:
            return InlineExecutor()
        return ProcessExecutor(effective)
    raise ServeError(f"unknown executor kind {kind!r} (use process/inline/auto)")
