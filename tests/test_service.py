"""Tests for the validation service layer (repro.service)."""

from __future__ import annotations

import random

import pytest

from repro.core.enumeration import EnumerationConfig
from repro.datalake.domains import DOMAIN_REGISTRY
from repro.index import build_index, save_index
from repro.service import (
    HypothesisSpaceCache,
    ServiceStats,
    ValidationService,
    column_digest,
)
from repro.service.service import VARIANTS
from repro.validate.fmdv import FMDV


def _column(name: str, seed: int, n: int = 40) -> list[str]:
    return DOMAIN_REGISTRY[name].sample_many(random.Random(seed), n)


class TestColumnDigest:
    def test_order_independent(self):
        values = ["a", "b", "b", "c"]
        shuffled = ["b", "c", "a", "b"]
        assert column_digest(values) == column_digest(shuffled)

    def test_multiplicity_sensitive(self):
        assert column_digest(["a", "b"]) != column_digest(["a", "b", "b"])

    def test_value_sensitive(self):
        assert column_digest(["a"]) != column_digest(["b"])

    def test_injective_framing(self):
        """Values may contain any byte; delimiter-style framing collided
        (['a','b','b'] vs ['a\\x001\\x01b']*2) before length prefixes."""
        assert column_digest(["a", "b", "b"]) != column_digest(
            ["a\x001\x01b", "a\x001\x01b"]
        )


class TestHypothesisSpaceCache:
    def test_hit_returns_same_object(self):
        cache = HypothesisSpaceCache()
        config = EnumerationConfig()
        values = ["1:23", "4:56", "7:89"]
        first = cache.get(values, 1.0, config)
        second = cache.get(list(reversed(values)), 1.0, config)
        assert second is first
        assert cache.hits == 1 and cache.misses == 1

    def test_min_coverage_part_of_key(self):
        cache = HypothesisSpaceCache()
        config = EnumerationConfig()
        values = ["1:23", "4:56"]
        cache.get(values, 1.0, config)
        cache.get(values, 0.9, config)
        assert cache.misses == 2

    def test_config_fingerprint_part_of_key(self):
        cache = HypothesisSpaceCache()
        values = ["1:23", "4:56"]
        cache.get(values, 1.0, EnumerationConfig())
        cache.get(values, 1.0, EnumerationConfig(max_const_options=3))
        assert cache.misses == 2

    def test_lru_eviction(self):
        cache = HypothesisSpaceCache(max_entries=2)
        config = EnumerationConfig()
        for i in range(4):
            cache.get([f"{i}:00"], 1.0, config)
        assert len(cache) == 2

    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ValueError):
            HypothesisSpaceCache(max_entries=0)

    def test_clear(self):
        cache = HypothesisSpaceCache()
        cache.get(["1:23"], 1.0, EnumerationConfig())
        cache.clear()
        assert len(cache) == 0 and cache.misses == 0


class TestServiceInference:
    def test_repeat_column_is_a_result_cache_hit(self, small_index, small_config):
        service = ValidationService(small_index, small_config, variant="fmdv")
        column = _column("datetime_slash", 10)
        first = service.infer(column)
        second = service.infer(column)
        assert second is first
        stats = service.stats()
        assert stats.inferences == 2
        assert stats.result_cache_hits == 1
        assert stats.result_hit_rate == pytest.approx(0.5)

    def test_permuted_column_shares_the_cache_entry(self, small_index, small_config):
        service = ValidationService(small_index, small_config, variant="fmdv")
        column = _column("guid", 11)
        shuffled = list(column)
        random.Random(0).shuffle(shuffled)
        assert service.infer(shuffled) is service.infer(column)

    def test_matches_uncached_solver(self, small_index, small_config):
        """The cached path must produce exactly what a bare solver produces."""
        for variant in ("fmdv", "fmdv-vh"):
            service = ValidationService(small_index, small_config, variant=variant)
            bare_solver = VARIANTS[variant](small_index, small_config)
            for name in ("datetime_slash", "locale_lower", "phone_us"):
                column = _column(name, 12)
                cached = service.infer(column)
                bare = bare_solver.infer(column)
                assert cached.found == bare.found
                if cached.found:
                    assert cached.rule.pattern == bare.rule.pattern
                    assert cached.rule.est_fpr == bare.rule.est_fpr

    def test_batch_equals_loop(self, small_index, small_config):
        columns = [
            _column("datetime_slash", 1),
            _column("locale_lower", 2),
            _column("datetime_slash", 1),  # duplicate: served from cache
        ]
        batch_service = ValidationService(small_index, small_config, variant="fmdv-vh")
        loop_service = ValidationService(small_index, small_config, variant="fmdv-vh")
        batch = batch_service.infer_many(columns)
        loop = [loop_service.infer(c) for c in columns]
        assert len(batch) == len(loop) == 3
        for a, b in zip(batch, loop):
            assert a.found == b.found
            if a.found:
                assert a.rule.pattern == b.rule.pattern
        assert batch_service.stats().result_cache_hits == 1

    NAMES = ["datetime_slash", "guid", "phone_us", "locale_lower",
             "status", "zip9", "currency_usd", "country2", "time_hms"]

    def test_batch_stats_account_every_column(self, small_index, small_config):
        service = ValidationService(small_index, small_config, variant="fmdv")
        service.infer_many([_column(name, 400 + i) for i, name in enumerate(self.NAMES[:6])])
        stats = service.stats()
        assert stats.inferences == 6
        assert stats.space_cache_misses == 6  # Algorithm 1 ran once per column
        assert stats.result_cache_size == 6

    def test_repeated_batch_is_answered_from_the_result_cache(
        self, small_index, small_config
    ):
        service = ValidationService(small_index, small_config, variant="fmdv")
        batch = [_column(name, 500 + i) for i, name in enumerate(self.NAMES)]
        first = service.infer_many(batch)
        before = service.stats()
        second = service.infer_many(batch)
        after = service.stats()
        assert all(a is b for a, b in zip(first, second))
        assert after.result_cache_hits - before.result_cache_hits == len(batch)
        assert after.space_cache_misses == before.space_cache_misses

    def test_path_opened_batch_matches_in_memory(
        self, small_index, small_config, tmp_path
    ):
        out = tmp_path / "disk.v2"
        save_index(small_index, out, format="v2", n_shards=8)
        batch = [_column(name, 700 + i) for i, name in enumerate(self.NAMES[:4])]
        on_disk = ValidationService.from_path(out, small_config, variant="fmdv")
        in_memory = ValidationService(small_index, small_config, variant="fmdv")
        assert on_disk.infer_many(batch) == in_memory.infer_many(batch)

    def test_vertical_segments_feed_the_space_cache(self, small_index, small_config, rng):
        """Near-duplicate composites share per-segment hypothesis spaces."""
        dt = DOMAIN_REGISTRY["datetime_slash"]
        loc = DOMAIN_REGISTRY["locale_lower"]
        service = ValidationService(small_index, small_config, variant="fmdv-v")
        first = [f"{dt.sample(rng)}|{loc.sample(rng)}" for _ in range(25)]
        service.infer(first)
        assert service.stats().space_cache_misses > 0

    def test_explicit_variant_overrides_default(self, small_index, small_config):
        service = ValidationService(small_index, small_config, variant="fmdv")
        column = _column("datetime_slash", 13)
        strict = service.infer(column)
        tolerant = service.infer(column, variant="fmdv-h")
        assert strict.variant == "fmdv"
        assert tolerant.variant == "fmdv-h"

    def test_result_cache_eviction(self, small_index, small_config):
        service = ValidationService(
            small_index, small_config, variant="fmdv", result_cache_size=1
        )
        a, b = _column("datetime_slash", 14), _column("locale_lower", 15)
        service.infer(a)
        service.infer(b)  # evicts a
        service.infer(a)
        assert service.stats().result_cache_hits == 0

    def test_clear_caches(self, small_index, small_config):
        service = ValidationService(small_index, small_config)
        service.infer(_column("datetime_slash", 16))
        service.clear_caches()
        stats = service.stats()
        assert stats.inferences == 0
        assert stats.space_cache_size == 0
        assert stats.result_cache_size == 0


class TestServiceValidation:
    def test_validate_many_single_rule_broadcast(self, small_index, small_config, rng):
        service = ValidationService(small_index, small_config, variant="fmdv")
        rule = service.infer(_column("datetime_slash", 17)).rule
        assert rule is not None
        columns = [
            DOMAIN_REGISTRY["datetime_slash"].sample_many(rng, 30),
            DOMAIN_REGISTRY["locale_lower"].sample_many(rng, 30),
        ]
        reports = service.validate_many(rule, columns)
        assert [r.flagged for r in reports] == [False, True]
        assert reports[0] == service.validate(rule, columns[0])

    def test_validate_many_aligned_rules(self, small_index, small_config, rng):
        service = ValidationService(small_index, small_config, variant="fmdv")
        rule_dt = service.infer(_column("datetime_slash", 18)).rule
        rule_loc = service.infer(_column("locale_lower", 19)).rule
        columns = [
            DOMAIN_REGISTRY["datetime_slash"].sample_many(rng, 30),
            DOMAIN_REGISTRY["locale_lower"].sample_many(rng, 30),
        ]
        reports = service.validate_many([rule_dt, rule_loc], columns)
        assert not any(r.flagged for r in reports)

    def test_validate_many_length_mismatch(self, small_index, small_config):
        service = ValidationService(small_index, small_config, variant="fmdv")
        rule = service.infer(_column("datetime_slash", 20)).rule
        with pytest.raises(ValueError):
            service.validate_many([rule, rule], [["1/2/2019 3:04:05"]])


class TestServiceStatsGuards:
    """Hit rates on a fresh service (0 lookups) must be 0.0 for BOTH caches
    — no ZeroDivisionError, consistently across result and space caches."""

    def test_fresh_service_hit_rates_are_zero(self, small_index, small_config):
        stats = ValidationService(small_index, small_config).stats()
        assert stats.inferences == 0
        assert stats.result_hit_rate == 0.0
        assert stats.space_hit_rate == 0.0

    def test_zeroed_stats_object_divides_safely(self):
        stats = ServiceStats(
            inferences=0,
            result_cache_hits=0,
            result_cache_size=0,
            space_cache_hits=0,
            space_cache_misses=0,
            space_cache_size=0,
        )
        assert stats.result_hit_rate == 0.0
        assert stats.space_hit_rate == 0.0

    def test_hit_rates_after_traffic(self, small_index, small_config):
        service = ValidationService(small_index, small_config, variant="fmdv")
        column = _column("datetime_slash", 21)
        service.infer(column)
        service.infer(column)
        stats = service.stats()
        assert stats.result_hit_rate == pytest.approx(0.5)
        assert 0.0 <= stats.space_hit_rate <= 1.0

    def test_clear_caches_resets_hit_rate_counters(self, small_index, small_config):
        service = ValidationService(small_index, small_config, variant="fmdv")
        column = _column("datetime_slash", 22)
        service.infer(column)
        service.infer(column)
        assert service.stats().result_hit_rate > 0.0
        service.clear_caches()
        stats = service.stats()
        assert stats.inferences == 0
        assert stats.result_cache_hits == 0
        assert stats.result_hit_rate == 0.0
        assert stats.space_cache_hits == stats.space_cache_misses == 0
        assert stats.space_hit_rate == 0.0


class TestCacheGenerations:
    """Rebuilding/replacing the index must invalidate service caches
    without a manual clear_caches() call."""

    def _save(self, columns, path, n_shards=4):
        index = build_index(
            columns, EnumerationConfig(min_coverage=0.1), corpus_name="gen-test"
        )
        save_index(index, path, format="v2", n_shards=n_shards)
        return index

    def test_rebuild_on_disk_invalidates_stale_entries(
        self, small_corpus_columns, small_config, tmp_path
    ):
        path = tmp_path / "watched.v2"
        self._save(small_corpus_columns, path)
        service = ValidationService.from_path(path, small_config, variant="fmdv")
        column = _column("datetime_slash", 30)
        first = service.infer(column)
        generation_before = service.stats().generation
        assert service.infer(column) is first  # sanity: cached while valid

        # Rebuild the index under the same path from a different corpus.
        self._save(small_corpus_columns[: len(small_corpus_columns) // 2], path)

        second = service.infer(column)
        stats = service.stats()
        assert stats.invalidations == 1
        assert stats.generation != generation_before
        # The stale cached result was NOT served...
        assert second is not first
        # ...the result cache re-missed (hit count stuck at the pre-rebuild 1)
        assert stats.result_cache_hits == 1
        # ...and the hypothesis space was recomputed under the new generation.
        assert stats.space_cache_misses >= 2

    def test_identical_rebuild_keeps_caches_warm(
        self, small_corpus_columns, small_config, tmp_path
    ):
        path = tmp_path / "stable.v2"
        self._save(small_corpus_columns, path)
        service = ValidationService.from_path(path, small_config, variant="fmdv")
        first = service.infer(_column("guid", 31))
        # Deterministic save: same corpus -> byte-identical index -> same
        # digest -> NOT an invalidation, caches stay hot.
        self._save(small_corpus_columns, path)
        assert service.infer(_column("guid", 31)) is first
        stats = service.stats()
        assert stats.invalidations == 0
        assert stats.result_cache_hits == 1

    def test_replaced_legacy_v1_file_is_watched_too(
        self, small_corpus_columns, small_config, tmp_path
    ):
        """Nothing in the repo writes v1 any more, but a served legacy file
        can still be swapped underneath the service by whoever owns it."""
        import gzip
        import json
        from dataclasses import asdict

        def write_legacy(index, path):
            payload = {
                "version": 1,
                "meta": asdict(index.meta),
                "entries": {k: [e.fpr_sum, e.coverage] for k, e in index.items()},
            }
            with gzip.open(path, "wt", encoding="utf-8") as handle:
                json.dump(payload, handle, sort_keys=True)

        path = tmp_path / "watched.idx.gz"
        index = build_index(
            small_corpus_columns, EnumerationConfig(min_coverage=0.1)
        )
        write_legacy(index, path)
        service = ValidationService.from_path(path, small_config, variant="fmdv")
        first = service.infer(_column("phone_us", 32))
        rebuilt = build_index(
            small_corpus_columns[: len(small_corpus_columns) // 2],
            EnumerationConfig(min_coverage=0.1),
        )
        write_legacy(rebuilt, path)
        second = service.infer(_column("phone_us", 32))
        assert second is not first
        assert service.stats().invalidations == 1

    def test_swap_index_invalidates_in_memory(
        self, small_index, small_corpus_columns, small_config
    ):
        service = ValidationService(small_index, small_config, variant="fmdv")
        column = _column("datetime_slash", 33)
        first = service.infer(column)
        other = build_index(
            small_corpus_columns[: len(small_corpus_columns) // 2],
            EnumerationConfig(min_coverage=0.1),
        )
        service.swap_index(other)
        assert service.index is other
        assert service.infer(column) is not first
        assert service.stats().invalidations == 1
        assert service.solver().index is other  # solvers rebuilt on the swap

    def test_swap_to_identical_index_keeps_generation(
        self, small_corpus_columns, small_config
    ):
        build = lambda: build_index(  # noqa: E731 - tiny local helper
            small_corpus_columns,
            EnumerationConfig(min_coverage=0.1),
            corpus_name="test-corpus",
        )
        service = ValidationService(build(), small_config, variant="fmdv")
        first = service.infer(_column("guid", 34))
        service.swap_index(build())
        assert service.infer(_column("guid", 34)) is first
        assert service.stats().invalidations == 0

    def test_stale_shard_read_retries_against_fresh_snapshot(
        self, small_corpus_columns, small_config, tmp_path
    ):
        """The race the stat check cannot see: a rebuild completes *after*
        the generation check but before a lazy shard read.  The solver's
        StaleIndexError must trigger one transparent retry on the fresh
        snapshot instead of caching an answer from a torn index."""
        path = tmp_path / "raced.v2"
        self._save(small_corpus_columns, path)
        service = ValidationService.from_path(path, small_config, variant="fmdv")
        # Rebuild in place, then simulate losing the race: the service
        # believes the disk is unchanged (stat signature refreshed without
        # a digest check), so its lazy index reads the NEW shard files
        # against the OLD manifest.
        self._save(small_corpus_columns[: len(small_corpus_columns) // 3], path)
        service._disk_signature = service._stat_signature()

        result = service.infer(_column("datetime_slash", 36))
        stats = service.stats()
        assert stats.invalidations == 1  # the retry re-checked and reloaded
        assert result == ValidationService.from_path(
            path, small_config, variant="fmdv"
        ).infer(_column("datetime_slash", 36))

    def test_stale_shard_without_recovery_propagates(
        self, small_corpus_columns, small_config, tmp_path
    ):
        """If the index cannot be freshened (shard gone, manifest intact),
        the caller gets StaleIndexError — never a silently wrong answer."""
        from repro.index import StaleIndexError

        path = tmp_path / "torn.v2"
        self._save(small_corpus_columns, path)
        service = ValidationService.from_path(path, small_config, variant="fmdv")
        for shard in path.glob("shard-*.json.gz"):
            shard.unlink()
        with pytest.raises(StaleIndexError):
            service.infer(_column("datetime_slash", 37))
        # and nothing poisoned the result cache
        assert service.stats().result_cache_size == 0

    def test_clear_caches_still_works_after_generations(
        self, small_corpus_columns, small_config, tmp_path
    ):
        path = tmp_path / "cleared.v2"
        self._save(small_corpus_columns, path)
        service = ValidationService.from_path(path, small_config, variant="fmdv")
        service.infer(_column("guid", 35))
        service.infer(_column("guid", 35))
        service.clear_caches()
        stats = service.stats()
        assert stats.inferences == 0
        assert stats.result_cache_size == 0
        assert stats.space_cache_size == 0
        assert stats.result_hit_rate == 0.0
        # generation machinery is untouched by an explicit clear
        assert stats.generation == service.generation
        assert service.infer(_column("guid", 35)).found in (True, False)


class TestVariantRegistry:
    def test_unknown_variant_rejected(self, small_index, small_config):
        with pytest.raises(ValueError):
            ValidationService(small_index, small_config, variant="nope")
        service = ValidationService(small_index, small_config)
        with pytest.raises(ValueError):
            service.infer(["1:23"], variant="nope")

    def test_aliases_resolve_to_canonical_solvers(self, small_index, small_config):
        service = ValidationService(small_index, small_config)
        assert service.solver("basic") is service.solver("fmdv")
        assert service.solver("vh") is service.solver("fmdv-vh")

    def test_all_variants_constructible(self, small_index, small_config):
        for name in VARIANTS:
            solver = ValidationService(small_index, small_config, variant=name).solver()
            assert isinstance(solver, FMDV)
            assert solver.space_cache is not None
