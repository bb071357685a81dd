"""Typed, layered client configuration.

One :class:`ClientConfig` replaces the constructor sprawl of the four
legacy entrypoints: eight frozen section dataclasses — sampling, reuse,
basis store, serving, resilience, result cache, adaptive sampling,
observability — compose into one validated object.
Every knob that used to live in the flat :class:`~repro.core.engine.
ProphetConfig` (or in ``EvaluationService``/CLI keyword arguments) has
exactly one home here, and :meth:`ClientConfig.engine_config` derives the
flat config back, so every existing constructor keeps working unchanged.

Round-trips: :meth:`ClientConfig.to_mapping` / :meth:`ClientConfig.
from_mapping` convert to and from plain nested mappings (config files,
service payloads). The portable form routes every leaf through
:mod:`repro.core.argcodec`'s tagged encoding, so a JSON hop preserves
concrete types exactly — bool vs int, tuples, non-finite floats —
``ClientConfig.from_mapping(cfg.to_mapping(portable=True)) == cfg`` always.

Validation happens at construction (the dataclasses are frozen): an
unknown sampling backend, a negative basis cap, or a bad executor kind
raises :class:`~repro.errors.ScenarioError` here, not deep in the engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Any, Mapping, Optional

from repro.core.argcodec import decode_value, encode_value
from repro.core.engine import ProphetConfig
from repro.core.sampling import SAMPLING_BACKENDS
from repro.errors import ScenarioError
from repro.obs.config import ObsConfig
from repro.serve.resilience import ResilienceConfig

#: Executor kinds the serving section accepts (see repro.serve.executors).
EXECUTOR_KINDS: tuple[str, ...] = ("auto", "process", "inline")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ScenarioError(message)


@dataclass(frozen=True)
class SamplingConfig:
    """The Monte Carlo sampling plane: worlds, seeds, backend, refinement."""

    n_worlds: int = 200
    base_seed: int = 42
    backend: str = "batched"
    refinement_first: int = 25
    refinement_growth: float = 2.0

    def __post_init__(self) -> None:
        _require(
            self.backend in SAMPLING_BACKENDS,
            f"unknown sampling backend {self.backend!r} "
            f"(known: {', '.join(SAMPLING_BACKENDS)})",
        )
        _require(self.n_worlds >= 1, f"n_worlds must be >= 1, got {self.n_worlds}")
        _require(
            self.refinement_first >= 1,
            f"refinement_first must be >= 1, got {self.refinement_first}",
        )
        _require(
            self.refinement_growth > 1.0,
            f"refinement_growth must be > 1, got {self.refinement_growth}",
        )


@dataclass(frozen=True)
class ReuseConfig:
    """Fingerprint-driven computation reuse (the paper's core mechanism)."""

    fingerprint_seeds: int = 8
    correlation_tolerance: float = 1e-6
    min_mapped_fraction: float = 0.05
    enable_stats_cache: bool = True

    def __post_init__(self) -> None:
        _require(
            self.fingerprint_seeds >= 1,
            f"fingerprint_seeds must be >= 1, got {self.fingerprint_seeds}",
        )
        _require(
            self.correlation_tolerance >= 0.0,
            f"correlation_tolerance must be >= 0, got {self.correlation_tolerance}",
        )
        _require(
            0.0 <= self.min_mapped_fraction <= 1.0,
            f"min_mapped_fraction must be in [0, 1], got {self.min_mapped_fraction}",
        )


@dataclass(frozen=True)
class StoreConfig:
    """The tiered basis store: memory-tier bounds and the disk spill tier."""

    basis_cap: Optional[int] = None
    basis_byte_cap: Optional[int] = None
    basis_dir: Optional[str] = None

    def __post_init__(self) -> None:
        _require(
            self.basis_cap is None or self.basis_cap >= 0,
            f"basis_cap must be >= 0 or None, got {self.basis_cap}",
        )
        _require(
            self.basis_byte_cap is None or self.basis_byte_cap >= 0,
            f"basis_byte_cap must be >= 0 or None, got {self.basis_byte_cap}",
        )


@dataclass(frozen=True)
class ServeConfig:
    """The sharded evaluation service: worker pool and shard geometry.

    All defaults mean "in-process, sequential" — a default-constructed
    section leaves :attr:`enabled` false and the client runs on a plain
    engine. Setting any knob (or an explicit executor kind) opts into the
    serve backend.
    """

    workers: Optional[int] = None
    shards: Optional[int] = None
    executor: str = "auto"
    min_shard_worlds: int = 8
    share_bases: bool = True

    def __post_init__(self) -> None:
        _require(
            self.executor in EXECUTOR_KINDS,
            f"unknown executor kind {self.executor!r} "
            f"(known: {', '.join(EXECUTOR_KINDS)})",
        )
        _require(
            self.workers is None or self.workers >= 1,
            f"workers must be >= 1 or None, got {self.workers}",
        )
        _require(
            self.shards is None or self.shards >= 1,
            f"shards must be >= 1 or None, got {self.shards}",
        )
        _require(
            self.min_shard_worlds >= 1,
            f"min_shard_worlds must be >= 1, got {self.min_shard_worlds}",
        )

    @property
    def enabled(self) -> bool:
        """Did the caller ask for the serve backend at all?"""
        return (
            self.workers is not None
            or self.shards is not None
            or self.executor != "auto"
        )


@dataclass(frozen=True)
class CacheConfig:
    """The persistent cross-run result cache."""

    dir: Optional[str] = None

    def __post_init__(self) -> None:
        _require(
            self.dir is None or (isinstance(self.dir, str) and bool(self.dir)),
            f"cache dir must be a non-empty path string or None, "
            f"got {self.dir!r}",
        )

    @property
    def enabled(self) -> bool:
        return self.dir is not None


@dataclass(frozen=True)
class AdaptiveConfig:
    """Adaptive anytime sampling: the round protocol's stopping rule.

    Setting ``target_ci`` turns adaptive sampling on: sweep points run in
    growing world-prefix rounds and retire once every output series'
    confidence half-width is at most ``target_ci``; the budget allocator
    reassigns their unspent worlds to unresolved points. Stopping is a pure
    function of accumulated statistics — never wall-clock — so adaptive
    runs are deterministic and shard-geometry independent.

    ``min_worlds`` / ``max_worlds`` / ``round_growth`` bound the round
    ladder (first round, fixed per-point budget, geometric growth). They
    absorb — and are the preferred spellings over — the flat
    ``refinement_first`` / ``refinement_growth`` knobs on
    :class:`SamplingConfig`, which they default to when left ``None``
    (``max_worlds`` defaults to ``n_worlds``).
    """

    target_ci: Optional[float] = None
    min_worlds: Optional[int] = None
    max_worlds: Optional[int] = None
    round_growth: Optional[float] = None

    def __post_init__(self) -> None:
        _require(
            self.target_ci is None or self.target_ci > 0.0,
            f"target_ci must be > 0 or None, got {self.target_ci}",
        )
        _require(
            self.min_worlds is None or self.min_worlds >= 1,
            f"min_worlds must be >= 1 or None, got {self.min_worlds}",
        )
        _require(
            self.max_worlds is None or self.max_worlds >= 1,
            f"max_worlds must be >= 1 or None, got {self.max_worlds}",
        )
        _require(
            self.round_growth is None or self.round_growth > 1.0,
            f"round_growth must be > 1 or None, got {self.round_growth}",
        )

    @property
    def enabled(self) -> bool:
        """Adaptive stopping is on exactly when a target is set."""
        return self.target_ci is not None


#: Section name -> section dataclass, in rendering order.
_SECTIONS: dict[str, type] = {
    "sampling": SamplingConfig,
    "reuse": ReuseConfig,
    "store": StoreConfig,
    "serve": ServeConfig,
    "resilience": ResilienceConfig,
    "cache": CacheConfig,
    "adaptive": AdaptiveConfig,
    "obs": ObsConfig,
}


@dataclass(frozen=True)
class ClientConfig:
    """The one configuration object behind a :class:`~repro.api.ProphetClient`.

    Composes the eight sections; backends — in-process engine vs sharded
    service, loop vs batched sampling, tiered store, fault-tolerance
    ladder, result cache — are pure configuration here, never separate
    constructor dialects. The resilience section is defined next to the
    machinery it configures (:mod:`repro.serve.resilience`) and composed
    here like any other.
    """

    sampling: SamplingConfig = field(default_factory=SamplingConfig)
    reuse: ReuseConfig = field(default_factory=ReuseConfig)
    store: StoreConfig = field(default_factory=StoreConfig)
    serve: ServeConfig = field(default_factory=ServeConfig)
    resilience: ResilienceConfig = field(default_factory=ResilienceConfig)
    cache: CacheConfig = field(default_factory=CacheConfig)
    adaptive: AdaptiveConfig = field(default_factory=AdaptiveConfig)
    obs: ObsConfig = field(default_factory=ObsConfig)

    def __post_init__(self) -> None:
        for name, section_type in _SECTIONS.items():
            value = getattr(self, name)
            _require(
                isinstance(value, section_type),
                f"config section {name!r} must be a {section_type.__name__}, "
                f"got {type(value).__name__}",
            )

    # -- the back-compat shim ----------------------------------------------

    def engine_config(self) -> ProphetConfig:
        """Derive the legacy flat :class:`ProphetConfig`.

        This is the compatibility contract: a client configured with the
        defaults drives engines that are bit-identical to ones built from a
        default ``ProphetConfig`` — every legacy constructor keeps working
        against the same semantics.
        """
        return ProphetConfig(
            n_worlds=self.sampling.n_worlds,
            base_seed=self.sampling.base_seed,
            fingerprint_seeds=self.reuse.fingerprint_seeds,
            correlation_tolerance=self.reuse.correlation_tolerance,
            min_mapped_fraction=self.reuse.min_mapped_fraction,
            refinement_first=self.sampling.refinement_first,
            refinement_growth=self.sampling.refinement_growth,
            enable_stats_cache=self.reuse.enable_stats_cache,
            basis_cap=self.store.basis_cap,
            basis_byte_cap=self.store.basis_byte_cap,
            basis_dir=self.store.basis_dir,
            sampling_backend=self.sampling.backend,
        )

    @classmethod
    def from_engine_config(
        cls,
        config: ProphetConfig,
        *,
        serve: Optional[ServeConfig] = None,
        resilience: Optional[ResilienceConfig] = None,
        cache: Optional[CacheConfig] = None,
    ) -> "ClientConfig":
        """Lift a legacy flat config into the layered form (lossless)."""
        return cls(
            sampling=SamplingConfig(
                n_worlds=config.n_worlds,
                base_seed=config.base_seed,
                backend=config.sampling_backend,
                refinement_first=config.refinement_first,
                refinement_growth=config.refinement_growth,
            ),
            reuse=ReuseConfig(
                fingerprint_seeds=config.fingerprint_seeds,
                correlation_tolerance=config.correlation_tolerance,
                min_mapped_fraction=config.min_mapped_fraction,
                enable_stats_cache=config.enable_stats_cache,
            ),
            store=StoreConfig(
                basis_cap=config.basis_cap,
                basis_byte_cap=config.basis_byte_cap,
                basis_dir=config.basis_dir,
            ),
            serve=serve or ServeConfig(),
            resilience=resilience or ResilienceConfig(),
            cache=cache or CacheConfig(),
        )

    # -- mapping round-trips ------------------------------------------------

    def to_mapping(self, *, portable: bool = False) -> dict[str, dict[str, Any]]:
        """Nested plain mapping of every knob, section by section.

        With ``portable=True`` every leaf is tagged through
        :func:`repro.core.argcodec.encode_value`, making the result safe to
        push through JSON and back without losing concrete types.
        """
        mapping: dict[str, dict[str, Any]] = {}
        for name in _SECTIONS:
            section = getattr(self, name)
            mapping[name] = {
                f.name: (
                    encode_value(getattr(section, f.name))
                    if portable
                    else getattr(section, f.name)
                )
                for f in fields(section)
            }
        return mapping

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Any]) -> "ClientConfig":
        """Rebuild a config from :meth:`to_mapping` output (either form).

        Unknown sections or keys raise :class:`ScenarioError` — a typo in a
        config file must not silently fall back to a default. Tagged leaves
        (the portable form) are detected per-value and decoded exactly.
        """
        unknown_sections = set(mapping) - set(_SECTIONS)
        _require(
            not unknown_sections,
            f"unknown config section(s): {sorted(unknown_sections)} "
            f"(known: {sorted(_SECTIONS)})",
        )
        kwargs: dict[str, Any] = {}
        for name, section_type in _SECTIONS.items():
            if name not in mapping:
                continue
            payload = mapping[name]
            _require(
                isinstance(payload, Mapping),
                f"config section {name!r} must be a mapping, "
                f"got {type(payload).__name__}",
            )
            known = {f.name for f in fields(section_type)}
            unknown = set(payload) - known
            _require(
                not unknown,
                f"unknown key(s) in config section {name!r}: "
                f"{sorted(unknown)} (known: {sorted(known)})",
            )
            kwargs[name] = section_type(
                **{key: _plain_value(value) for key, value in payload.items()}
            )
        return cls(**kwargs)

    # -- fluent section replacement -----------------------------------------

    def replace_section(self, name: str, **changes: Any) -> "ClientConfig":
        """A copy with one section's fields replaced (validated)."""
        _require(
            name in _SECTIONS,
            f"unknown config section {name!r} (known: {sorted(_SECTIONS)})",
        )
        return replace(self, **{name: replace(getattr(self, name), **changes)})

    def round_plan(self) -> "RoundPlan":
        """The adaptive section's round ladder, with sampling fallbacks.

        ``max_worlds`` defaults to the fixed budget ``sampling.n_worlds``;
        ``min_worlds`` / ``round_growth`` default to the legacy flat
        ``refinement_first`` / ``refinement_growth`` spellings they absorb.
        """
        from repro.core.rounds import RoundPlan

        n_worlds = (
            self.adaptive.max_worlds
            if self.adaptive.max_worlds is not None
            else self.sampling.n_worlds
        )
        first = (
            self.adaptive.min_worlds
            if self.adaptive.min_worlds is not None
            else min(self.sampling.refinement_first, n_worlds)
        )
        growth = (
            self.adaptive.round_growth
            if self.adaptive.round_growth is not None
            else self.sampling.refinement_growth
        )
        _require(
            first <= n_worlds,
            f"min_worlds ({first}) must not exceed max_worlds ({n_worlds})",
        )
        return RoundPlan(n_worlds=n_worlds, first=first, growth=growth)

    def wants_service(self) -> bool:
        """Does this config require the serve backend (vs a bare engine)?

        A non-default resilience section counts: deadlines, retry budgets,
        and rescue semantics only exist in the service's shard dispatcher,
        so asking for them is asking for the service. The obs section never
        counts — observability attaches to whichever backend the rest of
        the config selects.
        """
        return (
            self.serve.enabled
            or self.cache.enabled
            or self.resilience != ResilienceConfig()
        )


def _plain_value(value: Any) -> Any:
    """Decode one mapping leaf: tagged (portable) payloads pass through
    argcodec; plain values are used as-is."""
    if isinstance(value, Mapping) and "t" in value:
        return decode_value(dict(value))
    return value
