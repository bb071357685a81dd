"""Fuzzy Prophet — a probabilistic-database what-if engine.

A reproduction of *"Fuzzy Prophet: Parameter Exploration in Uncertain
Enterprise Scenarios"* (Kennedy, Lee, Loboz, Smyl, Nath — SIGMOD 2011):
construct business scenarios over stochastic black-box VG-Functions,
simulate them by Monte Carlo through a SQL substrate, and explore their
parameter spaces interactively (online mode) or by constrained optimization
(offline mode) — with *fingerprinting* detecting correlated
parameterizations so that already-computed sample distributions are remapped
instead of re-simulated.

The public surface is :mod:`repro.api` — one client, typed layered
configuration, three uniform handles, one stats report. Quickstart::

    from repro.api import ProphetClient
    from repro.models import FIGURE2_DSL

    client = ProphetClient.open(FIGURE2_DSL, "demo", name="risk_vs_cost")
    session = client.interactive()
    session.set_sliders({"purchase1": 8, "purchase2": 24, "feature": 12})
    view = session.refresh()
    print(view.statistics.expectation("overload"))

Backends — the sharded serve pool, the cross-run result cache, the tiered
basis store, the batched sampling plane — are pure configuration::

    client = (
        ProphetClient.open(FIGURE2_DSL, "demo")
        .with_serving(workers=4, shards=4)
        .with_cache(".repro-cache")
    )
    for result in client.sweep():      # streams as points complete
        print(result.point)
    print(client.stats().to_json())

The pre-1.1 flat spellings (``repro.OnlineSession``,
``repro.OfflineOptimizer``, ``repro.ProphetEngine``, ...) still resolve,
with a :class:`DeprecationWarning`, to their canonical homes under
``repro.core`` / ``repro.vg`` / ``repro.models``.
"""

import importlib
import warnings

from repro.api import (
    AdaptiveConfig,
    AdaptiveSweepHandle,
    CacheConfig,
    ClientConfig,
    InteractiveHandle,
    ObsConfig,
    OptimizeHandle,
    ProphetClient,
    ResilienceConfig,
    ReuseConfig,
    SamplingConfig,
    ServeConfig,
    StatsReport,
    StoreConfig,
    SweepHandle,
    SweepResult,
    TimingReport,
)
from repro.dsl import parse_scenario

__version__ = "1.1.0"

#: Legacy flat spellings -> canonical module. Kept importable for
#: back-compat; every access warns. Internal code (and the CLI, and the
#: examples) must use the canonical modules or :mod:`repro.api` — the CI
#: ``deprecations`` job runs the suite with the warning filter
#: ``error::DeprecationWarning:repro\..*`` so any DeprecationWarning
#: attributed to a ``repro.*`` caller fails the build.
_LEGACY_EXPORTS: dict[str, str] = {
    "Parameter": "repro.core",
    "ParameterSpace": "repro.core",
    "Scenario": "repro.core",
    "ProphetEngine": "repro.core",
    "ProphetConfig": "repro.core",
    "PointEvaluation": "repro.core",
    "OnlineSession": "repro.core",
    "GraphView": "repro.core",
    "OfflineOptimizer": "repro.core",
    "OptimizationResult": "repro.core",
    "AxisStatistics": "repro.core",
    "ConvergenceTracker": "repro.core",
    "RiskAnalyzer": "repro.core",
    "FingerprintSpec": "repro.core.fingerprint",
    "Fingerprint": "repro.core.fingerprint",
    "CorrelationPolicy": "repro.core.fingerprint",
    "compute_fingerprint": "repro.core.fingerprint",
    "correlate": "repro.core.fingerprint",
    "analyze_markov": "repro.core.fingerprint",
    "simulate_with_shortcuts": "repro.core.fingerprint",
    "VGFunction": "repro.vg",
    "VGLibrary": "repro.vg",
    "DemandModel": "repro.models",
    "CapacityModel": "repro.models",
    "FIGURE2_DSL": "repro.models",
    "build_demo_library": "repro.models",
    "build_risk_vs_cost": "repro.models",
    "build_growth_scenario": "repro.models",
    "build_maintenance_scenario": "repro.models",
}


def __getattr__(name: str):
    """Resolve a legacy flat spelling, with a deprecation warning.

    The warning is attributed to the *caller* (``stacklevel=2``), so the
    CI filter ``error::DeprecationWarning:repro`` flags internal callers
    while external code merely sees the notice.
    """
    home = _LEGACY_EXPORTS.get(name)
    if home is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    warnings.warn(
        f"repro.{name} is deprecated; import it from {home} "
        f"(or use the repro.api client surface)",
        DeprecationWarning,
        stacklevel=2,
    )
    return getattr(importlib.import_module(home), name)


def __dir__() -> list:
    return sorted(set(globals()) | set(_LEGACY_EXPORTS))


__all__ = [
    # the client surface (canonical: repro.api)
    "ProphetClient",
    "AdaptiveConfig",
    "AdaptiveSweepHandle",
    "ClientConfig",
    "SamplingConfig",
    "ReuseConfig",
    "StoreConfig",
    "ServeConfig",
    "ResilienceConfig",
    "CacheConfig",
    "ObsConfig",
    "InteractiveHandle",
    "SweepHandle",
    "SweepResult",
    "OptimizeHandle",
    "StatsReport",
    "TimingReport",
    # the DSL front door
    "parse_scenario",
    "__version__",
    # legacy flat spellings (deprecated; resolved lazily with a warning)
    *sorted(_LEGACY_EXPORTS),
]
