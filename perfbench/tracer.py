"""Outside-in span tracer for the benchmark.

The tracer wraps public methods of each ``repro`` layer from outside the
package: :meth:`Tracer.install` replaces the class attributes listed in
:data:`BOUNDARIES` with thin wrappers and :meth:`Tracer.uninstall` puts the
originals back, so nothing under ``src/`` is edited and an untraced run pays
nothing. Every wrapped call becomes one :class:`Span` (name, start, end,
parent, operation id); spans stay in memory until :meth:`Tracer.write`.

Self time of a span is its duration minus the part of that interval its
child spans cover (:func:`self_times`). Summed over every span, self time
equals the time spent inside the outermost wrapped calls, so
``wall - sum(self)`` is the time no named layer accounts for.

Executor calls are split by caller: an ``Executor.execute`` running under
``SamplingPlane.sample`` is ``sqldb.sample``, any other is ``sqldb.combine``
(landing, combine and aggregate SQL). The tracer assumes one thread, which
holds for every workload: process-pool workers run in other processes and
their time shows up as waiting inside ``serve.service``.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Optional

#: ``(layer, "module:Class", methods)``; an empty ``methods`` tuple means
#: every public method the class itself defines.
BOUNDARIES: tuple[tuple[str, str, tuple[str, ...]], ...] = (
    ("core.online", "repro.core.online:OnlineSession",
     ("refresh_progressive", "explore_proactively")),
    ("core.offline", "repro.core.offline:OfflineOptimizer", ("run",)),
    ("serve.scheduler", "repro.serve.scheduler:Scheduler",
     ("evaluate", "run_next", "advance_adaptive")),
    # The engine calls the service's shard sampler from inside
    # evaluate_point; wrapping it keeps dispatch, transport and waiting on
    # pool workers in serve.service instead of core.engine.
    ("serve.service", "repro.serve.service:EvaluationService",
     ("evaluate", "_sharded_sampler")),
    ("core.engine", "repro.core.engine:ProphetEngine", ("evaluate_point",)),
    ("core.rounds", "repro.core.engine:PointEvaluator", ("step",)),
    ("core.storage", "repro.core.storage:StorageManager",
     ("acquire", "store", "validated_entry")),
    ("core.fingerprint", "repro.core.fingerprint.registry:FingerprintRegistry",
     ("best_match", "fingerprint_of")),
    ("core.basis_store", "repro.core.basis_store:TieredBasisStore", ("get", "put")),
    ("core.sampling", "repro.core.sampling:SamplingPlane", ("sample",)),
    ("vg", "repro.vg.base:VGFunction",
     ("invoke", "invoke_batch", "invoke_components", "guarded_batch")),
    ("sqldb", "repro.sqldb.executor:Executor", ("execute",)),
    ("core.aggregator", "repro.core.aggregator:ResultAggregator",
     ("from_aggregate_result",)),
    ("core.querygen", "repro.core.querygen:QueryGenerator", ()),
)

#: Layer names as reported; ``sqldb`` is split by caller.
LAYERS: tuple[str, ...] = tuple(
    name
    for layer, _, _ in BOUNDARIES
    for name in (("sqldb.sample", "sqldb.combine") if layer == "sqldb" else (layer,))
)

_SAMPLING = "core.sampling"
_MATCH = ("core.fingerprint", "best_match")


class Span:
    """One wrapped call: ``[start, end)`` in ``time.perf_counter`` seconds."""

    __slots__ = ("id", "parent", "op", "layer", "method", "start", "end")

    def __init__(
        self,
        id: int,
        parent: Optional[int],
        op: int,
        layer: str,
        method: str,
        start: float,
        end: float = 0.0,
    ) -> None:
        self.id = id
        self.parent = parent
        self.op = op
        self.layer = layer
        self.method = method
        self.start = start
        self.end = end

    def as_list(self) -> list[Any]:
        return [self.id, self.parent, self.op, self.layer, self.method,
                self.start, self.end]


def _resolve(owner: str) -> type:
    module, _, name = owner.partition(":")
    return getattr(importlib.import_module(module), name)


def _public_methods(cls: type) -> tuple[str, ...]:
    return tuple(
        name
        for name, value in vars(cls).items()
        if not name.startswith("_") and inspect.isfunction(value)
    )


class Tracer:
    """Records a span around every call that crosses a named layer boundary."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: ``best_match`` calls that returned a mapping (match-rate numerator).
        self.best_match_hits = 0
        self._stack: list[Span] = []
        self._ids = itertools.count(1)
        self._ops = itertools.count(1)
        self._sampling_depth = 0
        self._saved: list[tuple[type, str, Any]] = []

    # -- installation ---------------------------------------------------------

    def install(self) -> "Tracer":
        """Wrap every boundary method in place (idempotent per tracer)."""
        if self._saved:
            return self
        for layer, owner, methods in BOUNDARIES:
            cls = _resolve(owner)
            for method in methods or _public_methods(cls):
                original = vars(cls)[method]
                self._saved.append((cls, method, original))
                setattr(cls, method, self._wrap(layer, method, original))
        return self

    def uninstall(self) -> None:
        """Restore the original methods."""
        for cls, method, original in reversed(self._saved):
            setattr(cls, method, original)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc: Any) -> None:
        self.uninstall()

    def _wrap(self, layer: str, method: str, original: Callable) -> Callable:
        tracer = self
        count_hits = (layer, method) == _MATCH
        is_sampling = layer == _SAMPLING

        def traced(*args: Any, **kwargs: Any) -> Any:
            name = layer
            if layer == "sqldb":
                name = "sqldb.sample" if tracer._sampling_depth else "sqldb.combine"
            stack = tracer._stack
            parent = stack[-1] if stack else None
            span = Span(
                next(tracer._ids),
                parent.id if parent is not None else None,
                parent.op if parent is not None else next(tracer._ops),
                name,
                method,
                0.0,
            )
            stack.append(span)
            if is_sampling:
                tracer._sampling_depth += 1
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if is_sampling:
                    tracer._sampling_depth -= 1
                tracer.spans.append(span)
            if count_hits and result is not None:
                tracer.best_match_hits += 1
            return result

        traced.__wrapped__ = original
        traced.__name__ = getattr(original, "__name__", method)
        traced.__doc__ = getattr(original, "__doc__", None)
        return traced

    # -- results ------------------------------------------------------------

    def write(self, path: Path) -> None:
        """Write every recorded span as one JSON list per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            handle.write(json.dumps(
                ["id", "parent", "op", "layer", "method", "start", "end"]
            ) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span.as_list()) + "\n")


def covered(start: float, end: float, intervals: Iterable[tuple[float, float]]) -> float:
    """Length of ``[start, end)`` covered by the union of ``intervals``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: Iterable[Span]) -> dict[str, float]:
    """Per-layer self time: span durations minus the part children cover."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        busy = span.end - span.start
        totals[span.layer] += busy - covered(span.start, span.end, children.get(span.id, ()))
    return dict(totals)


@dataclass(frozen=True)
class TraceSummary:
    """Per-layer self time and calls of one traced session, against its wall."""

    self_s: dict[str, float]
    calls: dict[str, int]
    wall_s: float

    @property
    def attributed_s(self) -> float:
        return sum(self.self_s.values())

    @property
    def unattributed_s(self) -> float:
        return self.wall_s - self.attributed_s

    @property
    def coverage(self) -> float:
        return self.attributed_s / self.wall_s if self.wall_s > 0 else 0.0


def summarize(spans: list[Span], wall_s: float) -> TraceSummary:
    """Self time and call count of every layer over ``spans``."""
    times = dict.fromkeys(LAYERS, 0.0)
    times.update(self_times(spans))
    calls = dict.fromkeys(LAYERS, 0)
    for span in spans:
        calls[span.layer] += 1
    return TraceSummary(self_s=times, calls=calls, wall_s=wall_s)


def method_calls(spans: Iterable[Span], layer: str, method: str) -> int:
    return sum(1 for span in spans if span.layer == layer and span.method == method)
