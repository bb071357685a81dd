"""Cross-shard basis reuse: coordinator snapshots served by shard tasks.

The serve layer ships a read-only snapshot of the coordinator's hot bases
with every shard task; a shard whose worlds are covered by a snapshot
basis (one the coordinator itself could not use, because it does not cover
the *full* requested slice) is served by fingerprint-mapped reuse instead
of fresh simulation. These tests pin down the three contracts:

* mapped shard hits actually happen — under the process executor too, and
  the counters prove it;
* inline and process executors make byte-identical decisions from the
  same snapshot;
* ``reuse=False`` restores the pure fresh-sampling fan-out.
"""

from __future__ import annotations

import pytest

from repro.core.engine import ProphetEngine
from repro.dsl import parse_scenario
from repro.models import build_demo_library
from repro.serve import EvaluationService, InlineExecutor
from serve_testutil import SERVE_DSL, assert_stats_identical

#: Two points that differ only in the demand model's argument, so the
#: second point's demand basis is mappable from the first's.
POINT_A = {"purchase1": 0, "purchase2": 26, "feature": 12}
POINT_B = {"purchase1": 0, "purchase2": 26, "feature": 36}


def _service(spec, executor, **kwargs):
    return EvaluationService(
        spec, executor=executor, shards=2, min_shard_worlds=1, **kwargs
    )


def _partial_then_full(service):
    """Evaluate A over a world prefix, then B over the full slice.

    The coordinator cannot reuse A's bases for B (they cover only the
    prefix, not the full slice), so its sampler fans out all 16 worlds —
    and the prefix-covering shard can be served from the snapshot.
    """
    service.evaluate(POINT_A, worlds=range(8))
    return service.evaluate(POINT_B, worlds=range(16))


class TestCrossShardReuse:
    def test_process_executor_reports_mapped_shard_hits(
        self, serve_spec, process_executor
    ):
        service = _service(serve_spec, process_executor)
        _partial_then_full(service)
        assert service.stats.shard_mapped_hits > 0
        assert service.stats.snapshots_shipped > 0
        assert service.stats.snapshot_bases_shipped > 0
        assert 0 < service.stats.shard_reuse_rate() < 1

    def test_inline_executor_reports_mapped_shard_hits(self, serve_spec):
        service = _service(serve_spec, InlineExecutor())
        _partial_then_full(service)
        assert service.stats.shard_mapped_hits > 0

    def test_inline_and_process_decisions_are_bit_identical(
        self, serve_spec, process_executor
    ):
        inline = _service(serve_spec, InlineExecutor())
        process = _service(serve_spec, process_executor)
        inline_eval = _partial_then_full(inline)
        process_eval = _partial_then_full(process)
        assert_stats_identical(inline_eval.statistics, process_eval.statistics)
        assert inline.stats.shard_mapped_hits == process.stats.shard_mapped_hits
        assert inline.stats.shard_fresh == process.stats.shard_fresh

    def test_mapped_shards_stay_within_mapping_tolerance(
        self, serve_spec, serve_config
    ):
        """Shard-mapped samples approximate fresh simulation the same way
        coordinator-mapped samples do (the correlation tolerance)."""
        service = _service(serve_spec, InlineExecutor())
        evaluation = _partial_then_full(service)

        reference_engine = ProphetEngine(
            parse_scenario(SERVE_DSL, name="serve_scenario"),
            build_demo_library(),
            serve_config,
        )
        reference = reference_engine.evaluate_point(
            POINT_B, worlds=range(16), reuse=False
        )
        for alias in reference.statistics.aliases():
            assert evaluation.statistics.expectation(alias) == pytest.approx(
                reference.statistics.expectation(alias), abs=1e-5
            )

    def test_reuse_false_disables_shard_reuse(self, serve_spec):
        service = _service(serve_spec, InlineExecutor())
        service.evaluate(POINT_A, worlds=range(8), reuse=False)
        service.evaluate(POINT_B, worlds=range(16), reuse=False)
        assert service.stats.shard_mapped_hits == 0
        assert service.stats.shard_exact_hits == 0
        assert service.stats.snapshots_shipped == 0

    def test_share_bases_off_restores_fresh_fanout(self, serve_spec):
        service = _service(serve_spec, InlineExecutor(), share_bases=False)
        shared = _service(serve_spec, InlineExecutor())
        off_eval = _partial_then_full(service)
        assert service.stats.shard_mapped_hits == 0
        assert service.stats.snapshots_shipped == 0
        # The fresh fan-out result differs from the shard-mapped one only
        # within the mapping tolerance.
        on_eval = _partial_then_full(shared)
        for alias in off_eval.statistics.aliases():
            assert on_eval.statistics.expectation(alias) == pytest.approx(
                off_eval.statistics.expectation(alias), abs=1e-5
            )

    def test_uniform_world_sweep_stays_bit_identical_to_sequential(
        self, serve_spec, sequential_engine
    ):
        """With every basis covering the full slice, the snapshot can never
        serve a shard the coordinator could not — full-worlds sweeps remain
        bit-identical to the sequential engine, shard reuse enabled."""
        points = [
            {"purchase1": 0, "purchase2": 0, "feature": 12},
            {"purchase1": 0, "purchase2": 26, "feature": 12},
            {"purchase1": 26, "purchase2": 26, "feature": 36},
        ]
        service = _service(serve_spec, InlineExecutor())
        for point in points:
            reference = sequential_engine.evaluate_point(point)
            evaluation = service.evaluate(point)
            assert_stats_identical(evaluation.statistics, reference.statistics)
        assert service.stats.shard_mapped_hits == 0
        assert service.stats.shard_exact_hits == 0

    def test_process_bytes_shipped_accounting(
        self, serve_spec, process_executor
    ):
        """On a process pool, ``bytes_shipped`` counts every pickled payload:
        8 bytes per world id out, the merged result matrices back, and each
        shipped snapshot once per shard task (no broadcast)."""
        service = _service(serve_spec, process_executor)
        merged, snapshots = [], []
        sampler, snapshot_for = service._sharded_sampler, service._snapshot_for

        def spy_sampler(output, batch):
            matrix = sampler(output, batch)
            merged.append(matrix)
            return matrix

        def spy_snapshot(output, batch):
            snapshot = snapshot_for(output, batch)
            snapshots.append(snapshot)
            return snapshot

        service._sharded_sampler = spy_sampler
        service._snapshot_for = spy_snapshot
        _partial_then_full(service)

        snapshot_bytes = sum(
            entry.samples.nbytes + 8 * len(entry.worlds) + 8 * len(entry.seeds)
            for snapshot in snapshots
            for entry in snapshot.entries
        ) + sum(
            matrix.nbytes
            for snapshot in snapshots
            if snapshot.entries
            for _, matrix in snapshot.fingerprints
        )
        assert snapshot_bytes > 0  # the snapshot term is exercised
        expected = (
            sum(8 * matrix.shape[0] + matrix.nbytes for matrix in merged)
            + snapshot_bytes * service.n_shards
        )
        assert service.stats.bytes_shipped == expected

        inline = _service(serve_spec, InlineExecutor())
        _partial_then_full(inline)
        assert inline.stats.bytes_shipped == 0  # nothing is pickled inline


class TestResultCacheInteraction:
    def test_shard_reused_evaluations_do_not_enter_result_cache(
        self, serve_spec, tmp_path
    ):
        """Shard-reuse approximations depend on shard geometry, which the
        result key omits — they must never be served cross-run as exact."""
        service = _service(
            serve_spec, InlineExecutor(), cache_dir=str(tmp_path / "cache")
        )
        service.evaluate(POINT_A, worlds=range(8))  # fresh: cached
        assert len(service.cache) == 1
        service.evaluate(POINT_B, worlds=range(16))  # shard-mapped: skipped
        assert service.stats.shard_mapped_hits > 0
        assert len(service.cache) == 1
        # A repeat of the shard-mapped point is served from the engine's
        # stats cache with no new shard counters — it must not slip into
        # the cross-run cache either (its statistics are still the
        # geometry-dependent approximation).
        service.evaluate(POINT_B, worlds=range(16))
        assert len(service.cache) == 1

    def test_adopted_warm_start_bases_never_ship_in_snapshots(
        self, serve_spec, tmp_path
    ):
        """A coordinator warm-started from a foreign spill dir validates
        adopted seeds per-acquire; snapshot stores would trust them
        blindly, so adopted entries must stay home."""
        service = _service(serve_spec, InlineExecutor())
        service.evaluate(POINT_A, worlds=range(8))
        tier = service.engine.storage.tier
        for key in tier.keys():
            tier._adopted.add(key)  # simulate a warm-start adoption
        service.evaluate(POINT_B, worlds=range(16))
        assert service.stats.shard_mapped_hits == 0
        assert service.stats.snapshot_bases_shipped == 0

    def test_shard_reused_bases_are_tainted_and_never_persisted(
        self, serve_spec, tmp_path
    ):
        from repro.core.persistence import save_bases

        service = _service(serve_spec, InlineExecutor())
        evaluation_a = service.evaluate(POINT_A, worlds=range(8))
        service.evaluate(POINT_B, worlds=range(16))
        assert service.stats.shard_mapped_hits > 0
        engine = service.engine
        tainted = [k for k in engine.storage.tier.keys()
                   if engine.storage.tier.is_tainted(k)]
        assert tainted  # the shard-merged demand basis is quarantined
        saved = save_bases(engine, tmp_path / "bases.npz")
        assert saved == len(list(engine.storage.entries()))
        assert saved < len(engine.storage)  # tainted entries stayed home

    def test_second_service_on_shared_engine_cannot_launder_taint(
        self, serve_spec, tmp_path
    ):
        """The cache-write latch is per-service, but taint lives in the
        shared engine tier — a fresh service over the same engine must not
        cache a point whose bases are geometry-dependent."""
        first = _service(serve_spec, InlineExecutor())
        _partial_then_full(first)  # taints POINT_B's demand basis
        assert first.stats.shard_mapped_hits > 0

        second = EvaluationService(
            engine=first.engine, cache_dir=str(tmp_path / "cache")
        )
        second.evaluate(POINT_B, worlds=range(16))  # stats-cache/exact serve
        assert second.stats.shard_mapped_hits == 0  # its own latch is unset
        assert len(second.cache) == 0  # taint gate blocked the write
        # An untainted point from the same engine still caches normally.
        second.evaluate(POINT_A, worlds=range(8))
        assert len(second.cache) == 1
