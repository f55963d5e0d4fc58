"""Tests for the offline index (repro.index)."""

from __future__ import annotations

import pytest

from repro.core.atoms import Atom
from repro.core.enumeration import EnumerationConfig
from repro.core.pattern import Pattern
from repro.index import (
    IndexBuilder,
    IndexEntry,
    PatternIndex,
    ShardedPatternIndex,
    build_index,
    open_index,
    save_index,
    shard_of,
)


def _col(value: str, n: int = 10) -> list[str]:
    return [value] * n


class TestBuilder:
    def test_empty_builder(self):
        index = IndexBuilder().build()
        assert len(index) == 0
        assert index.meta.columns_scanned == 0

    def test_add_column_counts(self):
        builder = IndexBuilder()
        added = builder.add_column(["1:23", "4:56"])
        assert added > 0
        assert builder.columns_scanned == 1

    def test_empty_column_ignored(self):
        builder = IndexBuilder()
        assert builder.add_column([]) == 0
        assert builder.columns_scanned == 0

    def test_coverage_counts_columns_not_values(self):
        builder = IndexBuilder()
        builder.add_column(["1:23"] * 50)
        builder.add_column(["4:56"] * 50)
        index = builder.build()
        entry = index.lookup(Pattern([Atom.digit(1), Atom.const(":"), Atom.digit(2)]))
        assert entry is not None
        assert entry.coverage == 2

    def test_fpr_aggregates_impurity(self):
        """Definition 3: FPR is the mean impurity over covering columns."""
        builder = IndexBuilder(EnumerationConfig(min_coverage=0.5))
        builder.add_column(["1:23"] * 10)            # pure
        builder.add_column(["4:56"] * 8 + ["x"] * 2)  # impure: 0.2
        index = builder.build()
        entry = index.lookup(Pattern([Atom.digit(1), Atom.const(":"), Atom.digit(2)]))
        assert entry.coverage == 2
        assert entry.fpr == pytest.approx(0.1)

    def test_example5_paper_numbers(self):
        """Example 5: 4800 pure + 200 columns at 1% → FPR = 0.04%."""
        entry = IndexEntry(fpr_sum=200 * 0.01, coverage=5000)
        assert entry.fpr == pytest.approx(0.0004)


class TestLookup:
    def test_lookup_missing(self, small_index):
        missing = Pattern([Atom.const("never-seen-anywhere-xyz")])
        assert small_index.lookup(missing) is None
        assert missing not in small_index

    def test_contains(self, small_index):
        p = Pattern.from_key("W2|C:-|W2")  # locale_lower: <lower>{2}-<lower>{2}
        assert p in small_index

    def test_lookup_key_equivalent(self, small_index):
        key = "W2|C:-|W2"
        entry_by_key = small_index.lookup_key(key)
        entry_by_pattern = small_index.lookup(Pattern.from_key(key))
        assert entry_by_key == entry_by_pattern


class TestPersistence:
    def test_load_rejects_bad_version(self, tmp_path):
        import gzip
        import json

        path = tmp_path / "bad.json.gz"
        with gzip.open(path, "wt") as fh:
            json.dump({"version": 999, "meta": {}, "entries": {}}, fh)
        with pytest.raises(ValueError):
            open_index(path)


class TestShardedPersistence:
    """Format v2: hash-partitioned shard files with a manifest."""

    def test_roundtrip_is_bit_identical(self, small_index, tmp_path):
        path = tmp_path / "idx.v2"
        save_index(small_index, path, format="v2", n_shards=8)
        loaded = open_index(path)
        assert isinstance(loaded, ShardedPatternIndex)
        assert len(loaded) == len(small_index)
        assert loaded.meta == small_index.meta
        for key, entry in small_index.items():
            # exact equality: fpr_sum round-trips bit-identically via JSON
            assert loaded.lookup_key(key) == entry

    def test_lazy_lookup_touches_one_shard(self, small_index, tmp_path):
        path = tmp_path / "idx.v2"
        save_index(small_index, path, format="v2", n_shards=8)
        loaded = open_index(path)
        assert loaded.loaded_shard_count == 0
        assert len(loaded) == len(small_index)  # manifest answers len()
        assert loaded.loaded_shard_count == 0
        key = small_index.keys()[0]
        assert loaded.lookup_key(key) is not None
        assert loaded.loaded_shard_count == 1

    def test_eager_load(self, small_index, tmp_path):
        path = tmp_path / "idx.v2"
        save_index(small_index, path, format="v2", n_shards=4)
        loaded = open_index(path, lazy=False)
        assert loaded.loaded_shard_count == 4

    def test_full_scan_forces_all_shards(self, small_index, tmp_path):
        path = tmp_path / "idx.v2"
        save_index(small_index, path, format="v2", n_shards=4)
        loaded = open_index(path)
        assert dict(loaded.items()) == dict(small_index.items())
        assert loaded.loaded_shard_count == 4

    def test_sharded_save_is_deterministic(self, small_index, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        save_index(small_index, a, format="v2", n_shards=8)
        save_index(small_index, b, format="v2", n_shards=8)
        files = sorted(p.name for p in a.iterdir())
        assert files == sorted(p.name for p in b.iterdir())
        for name in files:
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_resave_with_fewer_shards_removes_stale_files(self, small_index, tmp_path):
        path = tmp_path / "idx.v2"
        save_index(small_index, path, format="v2", n_shards=16)
        save_index(small_index, path, format="v2", n_shards=4)
        assert len(list(path.glob("shard-*.json.gz"))) == 4
        assert dict(open_index(path).items()) == dict(small_index.items())

    def test_shard_assignment_is_stable(self):
        assert shard_of("D1|C::|D2", 16) == shard_of("D1|C::|D2", 16)
        assert 0 <= shard_of("anything", 7) < 7

    def test_v1_upgrade_path(self, v1_index_path, tmp_path):
        """Load a legacy v1 file, re-save sharded, reload — nothing changes."""
        legacy = open_index(v1_index_path)
        v2 = tmp_path / "idx.v2"
        save_index(legacy, v2, format="v2", n_shards=8)
        reloaded = open_index(v2)
        assert len(reloaded) == 10
        assert dict(reloaded.items()) == dict(legacy.items())
        assert reloaded.meta == legacy.meta

    def test_bad_manifest_version_rejected(self, tmp_path):
        import json

        path = tmp_path / "idx.v2"
        path.mkdir()
        (path / "manifest.json").write_text(
            json.dumps({"version": 999, "meta": {}, "n_shards": 1,
                        "shards": [{"file": "shard-0000.json.gz", "entries": 0}],
                        "total_entries": 0})
        )
        with pytest.raises(ValueError):
            open_index(path)

    def test_directory_without_manifest_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            open_index(tmp_path)

    def test_invalid_shard_count_rejected(self, small_index, tmp_path):
        with pytest.raises(ValueError):
            save_index(small_index, tmp_path / "x", format="v2", n_shards=0)

    def test_stats_memoized(self, small_index, tmp_path):
        path = tmp_path / "idx.v2"
        save_index(small_index, path, format="v2", n_shards=4)
        loaded = open_index(path)
        first = loaded.stats()
        assert loaded.stats() is first  # computed once
        assert first.total_patterns == len(small_index)


class TestMergeCompatibility:
    """Merging indexes built with different knobs corrupts FPR statistics
    (Definition 3 averages impurities estimated under one configuration)."""

    def test_mismatched_tau_rejected(self):
        a = build_index([_col("1:23")], EnumerationConfig(tau=13))
        b = build_index([_col("4:56")], EnumerationConfig(tau=8))
        with pytest.raises(ValueError, match="tau"):
            a.merge(b)

    def test_mismatched_min_coverage_rejected(self):
        a = build_index([_col("1:23")], EnumerationConfig(min_coverage=0.1))
        b = build_index([_col("4:56")], EnumerationConfig(min_coverage=0.5))
        with pytest.raises(ValueError, match="min_coverage"):
            a.merge(b)

    def test_mismatched_secondary_knobs_rejected_via_fingerprint(self):
        a = build_index([_col("1:23")], EnumerationConfig(min_option_coverage=0.25))
        b = build_index([_col("4:56")], EnumerationConfig(min_option_coverage=0.5))
        with pytest.raises(ValueError, match="enumeration knobs"):
            a.merge(b)

    def test_fingerprint_recorded_and_survives_roundtrip(self, tmp_path):
        index = build_index([_col("1:23")])
        assert index.meta.fingerprint == EnumerationConfig().fingerprint()
        path = tmp_path / "idx"
        save_index(index, path)
        assert open_index(path).meta.fingerprint == index.meta.fingerprint

    def test_unstamped_legacy_index_still_merges(self):
        """v1 files written before the fingerprint existed load with an
        empty stamp; tau/min_coverage are still enforced."""
        from repro.index import IndexMeta

        a = build_index([_col("1:23")])
        legacy = PatternIndex(dict(a.items()), IndexMeta(columns_scanned=1))
        merged = a.merge(legacy)
        assert merged.meta.fingerprint == a.meta.fingerprint


class TestMerge:
    def test_merge_disjoint(self):
        a = build_index([_col("1:23")])
        b = build_index([_col("ab-cd")])
        merged = a.merge(b)
        assert len(merged) == len(a) + len(b) - _shared(a, b)
        assert merged.meta.columns_scanned == 2

    def test_merge_is_equivalent_to_single_build(self):
        cols = [_col("1:23"), _col("4:5"), _col("9:99") ]
        whole = build_index(cols)
        parts = build_index(cols[:1]).merge(build_index(cols[1:]))
        assert len(whole) == len(parts)
        for key, entry in whole.items():
            other = parts.lookup_key(key)
            assert other is not None
            assert other.coverage == entry.coverage
            assert other.fpr_sum == pytest.approx(entry.fpr_sum)


def _shared(a: PatternIndex, b: PatternIndex) -> int:
    return len(set(a.keys()) & set(b.keys()))


class TestStats:
    def test_stats_shapes(self, small_index):
        stats = small_index.stats()
        assert stats.total_patterns == len(small_index)
        assert sum(stats.by_token_length.values()) == len(small_index)
        assert sum(stats.by_column_frequency.values()) == len(small_index)

    def test_token_length_histogram_keys(self, small_index):
        stats = small_index.stats()
        assert all(k >= 1 for k in stats.by_token_length)

    def test_common_domains_sorted_and_thresholded(self, small_index):
        domains = small_index.common_domains(min_coverage=30, max_fpr=0.01)
        assert domains, "popular domains must exist in the test corpus"
        coverages = [e.coverage for _, e in domains]
        assert coverages == sorted(coverages, reverse=True)
        assert all(e.fpr <= 0.01 for _, e in domains)

    def test_head_patterns_counts(self):
        builder = IndexBuilder()
        for _ in range(120):
            builder.add_column(["7:35"] * 5)
        stats = builder.build().stats()
        assert stats.head_patterns() > 0


class TestEntry:
    def test_zero_coverage_fpr_is_one(self):
        assert IndexEntry(fpr_sum=0.0, coverage=0).fpr == 1.0
