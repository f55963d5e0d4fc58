"""Concurrency/equivalence tests for the parallel batch-inference engine.

The contract under test: parallel ``infer_many``/``validate_many`` output
is identical to serial output on the same batch — same order, same rules,
same reports — for batch sizes on both sides of ``min_batch_for_parallel``,
with worker cache-stat deltas merged back into the parent service.

Process pools here use the real ``spawn`` start method (the production
configuration), so each pool creation re-imports the library in fresh
interpreters; tests share one module-scoped parallel service to keep the
suite fast.
"""

from __future__ import annotations

import random

import pytest

from repro.datalake.domains import DOMAIN_REGISTRY
from repro.index.store import open_index, save_index
from repro.service import ValidationService
from repro.service.parallel import ParallelExecutor, index_spec_for

THRESHOLD = 4


def _columns(names, seed0=100, n=40):
    return [
        DOMAIN_REGISTRY[name].sample_many(random.Random(seed0 + i), n)
        for i, name in enumerate(names)
    ]


@pytest.fixture(scope="module")
def parallel_service(small_index, small_config):
    """One pool for the whole module (spawn startup is the expensive bit)."""
    service = ValidationService(
        small_index,
        small_config,
        variant="fmdv",
        workers=2,
        min_batch_for_parallel=THRESHOLD,
        parallel_backend="auto",
    )
    yield service
    service.close()


@pytest.fixture()
def serial_service(small_index, small_config):
    return ValidationService(
        small_index, small_config, variant="fmdv", parallel_backend="serial"
    )


class TestBackendSelection:
    def test_auto_respects_threshold(self):
        ex = ParallelExecutor(workers=4, min_batch_for_parallel=8, backend="auto")
        assert not ex.should_parallelize(7)
        assert ex.should_parallelize(8)

    def test_serial_backend_never_parallelizes(self):
        ex = ParallelExecutor(workers=4, min_batch_for_parallel=1, backend="serial")
        assert not ex.should_parallelize(1000)

    def test_process_backend_ignores_threshold(self):
        ex = ParallelExecutor(workers=4, min_batch_for_parallel=64, backend="process")
        assert ex.should_parallelize(2)

    def test_single_worker_never_parallelizes(self):
        ex = ParallelExecutor(workers=1, min_batch_for_parallel=1, backend="process")
        assert not ex.should_parallelize(1000)

    def test_env_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        monkeypatch.setenv("REPRO_PARALLEL_BACKEND", "process")
        ex = ParallelExecutor()
        assert ex.workers == 3
        assert ex.backend == "process"

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ValueError):
            ParallelExecutor(workers=0)
        with pytest.raises(ValueError):
            ParallelExecutor(min_batch_for_parallel=0)
        with pytest.raises(ValueError):
            ParallelExecutor(backend="threads")


class TestIndexSpec:
    def test_in_memory_index_ships_entries(self, small_index):
        spec = index_spec_for(small_index)
        assert spec[0] == "entries"
        # plain values only: floats, ints, strings — spawn-picklable by
        # construction, no compiled regexes or handles anywhere.
        for key, (fpr_sum, coverage) in spec[1].items():
            assert isinstance(key, str)
            assert isinstance(fpr_sum, float) and isinstance(coverage, int)

    def test_disk_index_ships_path(self, small_index, tmp_path):
        out = tmp_path / "idx.v2"
        save_index(small_index, out, format="v2", n_shards=4)
        spec = index_spec_for(open_index(out))
        assert spec == ("path", str(out))


class TestParallelEquivalence:
    """Straddle the threshold: under it stays serial, over it fans out —
    and both produce exactly what a serial service produces."""

    NAMES = ["datetime_slash", "guid", "phone_us", "locale_lower",
             "status", "zip9", "currency_usd", "country2", "time_hms"]

    def test_below_threshold_stays_serial(self, parallel_service, serial_service):
        batch = _columns(self.NAMES[: THRESHOLD - 1])
        before = parallel_service.stats().parallel_batches
        results = parallel_service.infer_many(batch)
        assert parallel_service.stats().parallel_batches == before
        assert results == serial_service.infer_many(batch)

    def test_above_threshold_goes_parallel_and_matches(
        self, parallel_service, serial_service
    ):
        batch = _columns(self.NAMES, seed0=200)
        before = parallel_service.stats().parallel_batches
        results = parallel_service.infer_many(batch)
        assert parallel_service.stats().parallel_batches == before + 1
        serial = serial_service.infer_many(batch)
        assert results == serial  # order, rules, stats — all of it
        for got, want in zip(results, serial):
            if want.found:
                assert got.rule.pattern.key() == want.rule.pattern.key()
                assert got.rule.est_fpr == want.rule.est_fpr

    def test_duplicates_in_parallel_batch(self, parallel_service, serial_service):
        batch = _columns(self.NAMES[:6], seed0=300) * 2  # 12 columns, 6 unique
        before = parallel_service.stats()
        results = parallel_service.infer_many(batch)
        after = parallel_service.stats()
        assert after.parallel_batches == before.parallel_batches + 1
        assert results == serial_service.infer_many(batch)
        for i in range(6):
            assert results[i] is results[i + 6]  # dedup: one solve per column
        # repeats are accounted as hits, mirroring the serial path
        assert after.inferences - before.inferences == 12
        assert after.result_cache_hits - before.result_cache_hits == 6

    def test_worker_stat_deltas_merged(self, small_index, small_config):
        service = ValidationService(
            small_index, small_config, variant="fmdv",
            workers=2, min_batch_for_parallel=2, parallel_backend="auto",
        )
        with service:
            batch = _columns(self.NAMES[:6], seed0=400)
            service.infer_many(batch)
            stats = service.stats()
        assert stats.parallel_batches == 1
        assert stats.inferences == 6          # workers' lookups, merged back
        assert stats.space_cache_misses == 6  # Algorithm 1 ran once per column
        assert stats.result_cache_size == 6   # results warmed the local cache

    def test_parallel_results_warm_local_cache(self, parallel_service):
        batch = _columns(self.NAMES, seed0=500)
        first = parallel_service.infer_many(batch)
        before = parallel_service.stats()
        second = parallel_service.infer_many(batch)
        after = parallel_service.stats()
        assert second == first
        # identical repeat: answered entirely from the local result cache,
        # without another trip to the pool
        assert after.parallel_batches == before.parallel_batches
        assert after.result_cache_hits - before.result_cache_hits == len(batch)

    def test_workers_arg_forces_serial_for_one_call(self, parallel_service):
        batch = _columns(self.NAMES[:THRESHOLD + 1], seed0=600)
        before = parallel_service.stats().parallel_batches
        parallel_service.infer_many(batch, workers=1)
        assert parallel_service.stats().parallel_batches == before


class TestParallelValidate:
    def test_validate_many_parallel_matches_serial(
        self, parallel_service, serial_service, rng
    ):
        rule = serial_service.infer(
            DOMAIN_REGISTRY["datetime_slash"].sample_many(rng, 40)
        ).rule
        assert rule is not None
        columns = [
            DOMAIN_REGISTRY["datetime_slash"].sample_many(rng, 30) for _ in range(4)
        ] + [DOMAIN_REGISTRY["locale_lower"].sample_many(rng, 30) for _ in range(4)]
        before = parallel_service.stats().parallel_batches
        reports = parallel_service.validate_many(rule, columns)
        assert parallel_service.stats().parallel_batches == before + 1
        assert reports == serial_service.validate_many(rule, columns)
        assert [r.flagged for r in reports] == [False] * 4 + [True] * 4

    def test_validate_many_length_mismatch_still_raises(self, parallel_service, rng):
        rule = ValidationService(
            parallel_service.index, parallel_service.config, variant="fmdv",
            parallel_backend="serial",
        ).infer(DOMAIN_REGISTRY["guid"].sample_many(rng, 40)).rule
        with pytest.raises(ValueError):
            parallel_service.validate_many([rule, rule], [["x"]])


class TestDiskBackedParallel:
    def test_sharded_index_service_parallelizes_via_path(
        self, small_index, small_config, tmp_path
    ):
        """Workers re-open the v2 directory; no shard state is pickled."""
        out = tmp_path / "disk.v2"
        save_index(small_index, out, format="v2", n_shards=8)
        service = ValidationService.from_path(
            out, small_config, variant="fmdv",
            workers=2, min_batch_for_parallel=2, parallel_backend="auto",
        )
        with service:
            batch = _columns(["datetime_slash", "guid", "phone_us", "status"], seed0=700)
            results = service.infer_many(batch)
            assert service.stats().parallel_batches == 1
        serial = ValidationService(
            small_index, small_config, variant="fmdv", parallel_backend="serial"
        ).infer_many(batch)
        assert results == serial


class TestWeightedChunks:
    def test_covers_everything_exactly_once(self):
        from repro.service.parallel import weighted_chunks

        for n_items in (1, 5, 16, 33):
            for n_chunks in (1, 2, 7):
                weights = [(i * 37) % 11 + 1 for i in range(n_items)]
                bins = weighted_chunks(weights, n_chunks)
                flat = sorted(i for chunk in bins for i in chunk)
                assert flat == list(range(n_items))
                assert all(chunk == sorted(chunk) for chunk in bins)
                assert all(chunk for chunk in bins)

    def test_skewed_batch_does_not_straggle_one_worker(self):
        """One huge column plus many small ones: the huge column gets a bin
        of its own and the small ones spread over the other bins (the
        ROADMAP skew scenario contiguous chunking got wrong)."""
        from repro.service.parallel import weighted_chunks

        weights = [1000] + [10] * 9
        bins = weighted_chunks(weights, 4)
        loads = sorted(sum(weights[i] for i in chunk) for chunk in bins)
        assert loads[-1] == 1000          # the giant is alone in its bin
        assert max(loads[:-1]) <= 40      # small items balanced across the rest

    def test_deterministic(self):
        from repro.service.parallel import weighted_chunks

        weights = [5, 1, 5, 3, 3, 8, 1, 1]
        assert weighted_chunks(weights, 3) == weighted_chunks(list(weights), 3)

    def test_equal_weights_spread_round_robin(self):
        from repro.service.parallel import weighted_chunks

        bins = weighted_chunks([7] * 6, 3)
        assert sorted(len(chunk) for chunk in bins) == [2, 2, 2]

    def test_zero_weight_items_still_distributed(self):
        from repro.service.parallel import weighted_chunks

        bins = weighted_chunks([0] * 8, 4)
        assert sorted(len(chunk) for chunk in bins) == [2, 2, 2, 2]


class TestExecutorDedup:
    """Dedup happens inside the executor too (not only in the service), so
    direct ParallelExecutor users get one solve per distinct column."""

    def test_executor_infer_many_dedupes_by_digest(
        self, small_index, small_config
    ):
        from repro.service.parallel import ParallelExecutor, index_spec_for

        executor = ParallelExecutor(workers=2, backend="process")
        try:
            column = DOMAIN_REGISTRY["guid"].sample_many(random.Random(1), 30)
            other = DOMAIN_REGISTRY["status"].sample_many(random.Random(2), 30)
            shuffled = list(reversed(column))  # same multiset => same digest
            batch = [column, other, shuffled, column]
            results, delta = executor.infer_many(
                batch,
                None,
                index_spec=index_spec_for(small_index),
                config=small_config,
                default_variant="fmdv",
                generation="g",
            )
            assert len(results) == 4
            assert results[0] is results[3]     # exact repeat: same object
            assert results[0] is results[2]     # permutation: same digest
            assert results[0].rule is not None
            # 2 unique solves + 2 duplicates accounted as cache hits
            assert delta["inferences"] == 4
            assert delta["result_cache_hits"] == 2
            assert delta["space_cache_misses"] == 2
        finally:
            executor.close()
