"""Tests for the pluggable IndexStore API (repro.index.store).

Covers the format matrix the CI ``store-matrix`` job sweeps: property
round-trips across v2 -> v3 conversions (byte-stable re-saves, unicode
keys, empty shards), the read-only legacy v1 reader (against a committed
fixture: detect, open, stream, digest, upgrade; every write refused), the
mmap-backed v3 reader (no dict materialization, StaleIndexError on torn
reads, CRC on full loads), the bounded-memory shard merge (``merge_many``
equivalent to the in-memory ``merge``), and the store registry/facade.
"""

from __future__ import annotations

import random
import tracemalloc

import pytest

from repro.core.enumeration import EnumerationConfig
from repro.index import build_index
from repro.index.index import (
    IndexEntry,
    IndexMeta,
    PatternIndex,
    ShardedPatternIndex,
    StaleIndexError,
    index_digest,
    shard_of,
)
from repro.index.store import (
    FORMAT_ENV,
    IndexStore,
    MmapShardedPatternIndex,
    V1MonolithicStore,
    V2ShardedStore,
    V3BinaryStore,
    available_formats,
    default_format,
    detect_format,
    get_store,
    merge_many,
    open_index,
    register_store,
    save_index,
    store_digest,
)

_ALPHABETS = (
    "abcXYZ019._-",
    "|\\\"'{}[]:,",
    "äßçøñ",
    "日本語中文한국",
    "🙂🚀💾",
)


def _random_key(rng: random.Random) -> str:
    alphabet = rng.choice(_ALPHABETS) + "abc123"
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 24)))


def _random_index(rng: random.Random, n_entries: int) -> PatternIndex:
    entries = {}
    while len(entries) < n_entries:
        entries[_random_key(rng)] = IndexEntry(
            fpr_sum=rng.random() * rng.choice([1.0, 1e-6, 1e6]),
            coverage=rng.randint(1, 10_000),
        )
    meta = IndexMeta(
        columns_scanned=rng.randint(0, 10**6),
        values_scanned=rng.randint(0, 10**8),
        tau=rng.randint(1, 20),
        min_coverage=rng.choice([0.1, 0.25, 1.0]),
        corpus_name=_random_key(rng),
        fingerprint="tau=13;seed=1",
    )
    return PatternIndex(entries, meta)


# -- registry and facade -------------------------------------------------------


class TestRegistry:
    def test_builtin_formats_registered(self):
        assert available_formats() == ["v1", "v2", "v3"]

    def test_stores_satisfy_the_protocol(self):
        for name in available_formats():
            assert isinstance(get_store(name), IndexStore)

    def test_store_classes_expose_format_versions(self):
        assert V1MonolithicStore.format_version == 1
        assert V2ShardedStore.format_version == 2
        assert V3BinaryStore.format_version == 3

    def test_unknown_format_rejected_with_choices(self):
        with pytest.raises(ValueError, match="v3"):
            get_store("v99")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_store(V3BinaryStore())

    def test_non_store_rejected(self):
        with pytest.raises(TypeError):
            register_store(object())

    def test_detect_format(self, tmp_path):
        index = _random_index(random.Random(0), 20)
        save_index(index, tmp_path / "b", format="v2", n_shards=4)
        save_index(index, tmp_path / "c", format="v3", n_shards=4)
        assert detect_format(tmp_path / "b") == "v2"
        assert detect_format(tmp_path / "c") == "v3"

    def test_detect_format_errors(self, tmp_path):
        with pytest.raises(ValueError, match="no index"):
            detect_format(tmp_path / "missing")
        (tmp_path / "empty").mkdir()
        with pytest.raises(ValueError, match="manifest"):
            detect_format(tmp_path / "empty")

    def test_default_format_honors_env(self, monkeypatch):
        monkeypatch.delenv(FORMAT_ENV, raising=False)
        assert default_format() == "v2"
        monkeypatch.setenv(FORMAT_ENV, "v3")
        assert default_format() == "v3"
        monkeypatch.setenv(FORMAT_ENV, "bogus")
        assert default_format() == "v2"

    def test_save_index_uses_env_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv(FORMAT_ENV, "v3")
        index = _random_index(random.Random(1), 10)
        save_index(index, tmp_path / "idx")
        assert detect_format(tmp_path / "idx") == "v3"

    def test_store_digest_matches_index_digest(self, tmp_path):
        index = _random_index(random.Random(2), 15)
        for format, name in (("v2", "b"), ("v3", "c")):
            save_index(index, tmp_path / name, format=format, n_shards=2)
            assert store_digest(tmp_path / name) == index_digest(tmp_path / name)


# -- the format matrix: round trips under every store --------------------------


@pytest.mark.parametrize("format", ["v2", "v3"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_roundtrip_preserves_everything(tmp_path, format, seed):
    """The env-selected CI matrix: every format round-trips arbitrary
    entries (unicode keys, metacharacters) with identical lookups."""
    rng = random.Random(100 * seed + 7)
    index = _random_index(rng, rng.randint(1, 120))
    out = tmp_path / "idx"
    save_index(index, out, format=format, n_shards=8)
    reloaded = open_index(out)
    for key, entry in index.items():
        got = reloaded.lookup_key(key)
        assert got == entry
        assert got.fpr == entry.fpr
    for _ in range(20):
        absent = _random_key(rng)
        assert (reloaded.lookup_key(absent) is None) == (
            index.lookup_key(absent) is None
        )
    assert len(reloaded) == len(index)
    assert dict(reloaded.items()) == dict(index.items())
    assert reloaded.meta == index.meta
    assert reloaded.stats() == index.stats()


@pytest.mark.parametrize("seed", [3, 4, 5, 6])
def test_conversion_chain_v2_v3_is_lossless(tmp_path, seed):
    """The migration path: open each format, save as the next, and the
    final v3 index still matches the original bit for bit."""
    rng = random.Random(seed)
    original = _random_index(rng, rng.randint(1, 150))
    save_index(original, tmp_path / "v2", format="v2", n_shards=8)
    v2 = open_index(tmp_path / "v2")
    assert isinstance(v2, ShardedPatternIndex)
    save_index(v2, tmp_path / "v3", format="v3", n_shards=8)
    v3 = open_index(tmp_path / "v3")
    assert isinstance(v3, MmapShardedPatternIndex)
    assert dict(v3.items()) == dict(original.items())
    assert v3.meta == original.meta
    assert v3.stats() == original.stats()


@pytest.mark.parametrize("format", ["v2", "v3"])
def test_resave_is_byte_identical(tmp_path, format):
    """Determinism property for every store: the same index saved twice
    (and saved again after a reload) produces identical bytes, so content
    digests are faithful fingerprints."""
    index = _random_index(random.Random(40), 60)
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    save_index(index, a, format=format, n_shards=4)
    save_index(index, b, format=format, n_shards=4)
    save_index(open_index(a, lazy=False), c, format=format, n_shards=4)
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    assert names == sorted(p.name for p in c.iterdir())
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes()
        assert (a / name).read_bytes() == (c / name).read_bytes()
    assert store_digest(a) == store_digest(b) == store_digest(c)


def test_v3_with_empty_shards_and_empty_index(tmp_path):
    rng = random.Random(50)
    sparse = _random_index(rng, 3)
    save_index(sparse, tmp_path / "sparse", format="v3", n_shards=16)
    reloaded = open_index(tmp_path / "sparse", lazy=False)
    assert dict(reloaded.items()) == dict(sparse.items())
    occupied = {shard_of(k, 16) for k in sparse.keys()}
    assert len(occupied) <= 3

    empty = PatternIndex({}, IndexMeta())
    save_index(empty, tmp_path / "empty", format="v3", n_shards=4)
    reloaded = open_index(tmp_path / "empty")
    assert len(reloaded) == 0
    assert reloaded.lookup_key("anything") is None
    assert reloaded.items() == []


def test_cross_format_resave_removes_other_formats_shards(tmp_path):
    """Re-saving a directory index in another format must not leave the
    old format's shard files for backup tooling to trip over."""
    index = _random_index(random.Random(60), 40)
    out = tmp_path / "idx"
    save_index(index, out, format="v2", n_shards=8)
    save_index(index, out, format="v3", n_shards=4)
    assert list(out.glob("shard-*.json.gz")) == []
    assert len(list(out.glob("shard-*.bin"))) == 4
    assert dict(open_index(out).items()) == dict(index.items())


def test_iter_entries_streams_every_format(tmp_path):
    index = _random_index(random.Random(70), 80)
    expected = {key: (e.fpr_sum, e.coverage) for key, e in index.items()}
    for format, name in (("v2", "b"), ("v3", "c")):
        save_index(index, tmp_path / name, format=format, n_shards=8)
        store = get_store(format)
        streamed = {key: (fpr, cov) for key, fpr, cov in store.iter_entries(tmp_path / name)}
        assert streamed == expected, format


# -- the read-only legacy v1 file ----------------------------------------------


class TestLegacyV1:
    """v1 is read-only: the committed fixture (bytes from the last v1
    writer) must keep opening, streaming, digesting and upgrading, and
    every way of *writing* v1 must fail naming the live formats."""

    ENTRIES = {
        f"v1-key-{i:02d}": IndexEntry(fpr_sum=0.25 * (i + 1), coverage=100 + i)
        for i in range(10)
    }
    META = IndexMeta(
        columns_scanned=10, values_scanned=500, corpus_name="v1",
        fingerprint="tau=13;test",
    )

    def test_detect_format(self, v1_index_path):
        assert detect_format(v1_index_path) == "v1"

    def test_open_index_entries_and_meta(self, v1_index_path):
        index = open_index(v1_index_path)
        assert type(index) is PatternIndex
        assert dict(index.items()) == self.ENTRIES
        assert index.meta == self.META

    def test_iter_entries_streams_sorted(self, v1_index_path):
        streamed = list(get_store("v1").iter_entries(v1_index_path))
        assert streamed == [
            (key, e.fpr_sum, e.coverage) for key, e in sorted(self.ENTRIES.items())
        ]

    def test_store_digest_matches_index_digest(self, v1_index_path):
        assert store_digest(v1_index_path) == index_digest(v1_index_path)

    def test_upgrade_to_v3(self, v1_index_path, tmp_path):
        """The documented two-line upgrade."""
        save_index(open_index(v1_index_path), tmp_path / "up", format="v3")
        upgraded = open_index(tmp_path / "up")
        assert isinstance(upgraded, MmapShardedPatternIndex)
        assert dict(upgraded.items()) == self.ENTRIES
        assert upgraded.meta == self.META

    def test_explicit_v1_write_refused(self, tmp_path):
        index = PatternIndex(dict(self.ENTRIES), self.META)
        with pytest.raises(ValueError, match="v2 or v3"):
            save_index(index, tmp_path / "idx.gz", format="v1")
        assert not (tmp_path / "idx.gz").exists()

    def test_env_selected_v1_write_refused(self, tmp_path, monkeypatch):
        monkeypatch.setenv(FORMAT_ENV, "v1")
        index = PatternIndex(dict(self.ENTRIES), self.META)
        with pytest.raises(ValueError, match="v2 or v3"):
            save_index(index, tmp_path / "idx")
        assert not (tmp_path / "idx").exists()

    def test_merge_refused_with_upgrade_pointer(self, v1_index_path, tmp_path):
        with pytest.raises(ValueError, match="v2/v3"):
            merge_many([v1_index_path, v1_index_path], tmp_path / "out.gz")
        assert not (tmp_path / "out.gz").exists()


# -- the mmap-backed v3 reader -------------------------------------------------


class TestMmapIndex:
    @pytest.fixture()
    def saved(self, tmp_path):
        index = _random_index(random.Random(80), 200)
        out = tmp_path / "idx.v3"
        save_index(index, out, format="v3", n_shards=8)
        return index, out

    def test_cold_open_touches_no_shard(self, saved):
        index, out = saved
        loaded = open_index(out)
        assert loaded.mapped_shard_count == 0
        assert len(loaded) == len(index)  # manifest answers len()
        assert loaded.mapped_shard_count == 0

    def test_lookup_maps_one_shard_and_materializes_nothing(self, saved):
        index, out = saved
        loaded = open_index(out)
        key = sorted(index.keys())[0]
        assert loaded.lookup_key(key) == index.lookup_key(key)
        assert loaded.mapped_shard_count == 1
        # the mmap path never builds dict entries
        assert len(loaded._entries) == 0

    def test_whole_index_ops_materialize_once(self, saved):
        index, out = saved
        loaded = open_index(out)
        assert dict(loaded.items()) == dict(index.items())
        assert len(loaded._entries) == len(index)
        # after materialization lookups come from the dict
        key = sorted(index.keys())[-1]
        assert loaded.lookup_key(key) == index.lookup_key(key)

    def test_storage_format_and_source_path(self, saved):
        _, out = saved
        loaded = open_index(out)
        assert loaded.storage_format == "v3"
        assert loaded.source_path == out

    def test_content_digest_is_manifest_digest(self, saved):
        _, out = saved
        assert open_index(out).content_digest() == index_digest(out)


class TestV3StaleReads:
    """Torn v3 reads (in-place rebuild races) raise StaleIndexError."""

    def _saved(self, tmp_path, n_entries=120, n_shards=4, seed=90):
        index = _random_index(random.Random(seed), n_entries)
        out = tmp_path / "idx.v3"
        save_index(index, out, format="v3", n_shards=n_shards)
        return index, out

    def _key_in_shard(self, index, n_shards, shard):
        for key in index.keys():
            if shard_of(key, n_shards) == shard:
                return key
        pytest.skip("no key hashed to the probed shard")

    def test_missing_shard_file(self, tmp_path):
        index, out = self._saved(tmp_path)
        lazy = open_index(out)
        (out / "shard-0002.bin").unlink()
        with pytest.raises(StaleIndexError):
            lazy.lookup_key(self._key_in_shard(index, 4, 2))

    def test_truncated_shard_file(self, tmp_path):
        index, out = self._saved(tmp_path)
        lazy = open_index(out)
        shard = out / "shard-0001.bin"
        shard.write_bytes(shard.read_bytes()[:25])  # torn mid-write
        with pytest.raises(StaleIndexError):
            lazy.lookup_key(self._key_in_shard(index, 4, 1))

    def test_garbage_shard_file(self, tmp_path):
        index, out = self._saved(tmp_path)
        lazy = open_index(out)
        (out / "shard-0000.bin").write_bytes(b"{" + b"x" * 64)  # not v3 at all
        with pytest.raises(StaleIndexError):
            lazy.lookup_key(self._key_in_shard(index, 4, 0))

    def test_rebuilt_shard_with_old_manifest(self, tmp_path):
        old, out = self._saved(tmp_path, n_entries=120)
        lazy = open_index(out)  # holds the OLD manifest
        small = _random_index(random.Random(91), 3)
        save_index(small, out, format="v3", n_shards=4)
        with pytest.raises(StaleIndexError):
            lazy.lookup_key(self._key_in_shard(old, 4, 0))

    def test_crc_corruption_detected_on_materialization(self, tmp_path):
        """A flipped byte inside the key blob passes the structural map
        checks (no data pages are read at map time, by design) but the
        footer CRC catches it the moment the shard is fully read."""
        index, out = self._saved(tmp_path, n_shards=1)
        shard = out / "shard-0000.bin"
        raw = bytearray(shard.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        shard.write_bytes(bytes(raw))
        lazy = open_index(out)
        with pytest.raises(StaleIndexError, match="CRC"):
            lazy.items()

    def test_service_retry_after_v3_rebuild(self, tmp_path):
        """End to end: a service watching a v3 path notices an in-place
        rebuild and serves the fresh snapshot (generation bump)."""
        from repro.service import ValidationService

        columns = [["1:23"] * 10, ["ab-cd"] * 10]
        first = build_index(columns[:1], EnumerationConfig())
        out = tmp_path / "watched.v3"
        save_index(first, out, format="v3", n_shards=2)
        service = ValidationService.from_path(out)
        generation = service.stats().generation
        assert service.stats().index_format == "v3"

        rebuilt = build_index(columns, EnumerationConfig())
        save_index(rebuilt, out, format="v3", n_shards=2)
        service.infer(["4:56"] * 5)
        stats = service.stats()
        assert stats.generation != generation
        assert stats.invalidations == 1


# -- bounded-memory shard merge ------------------------------------------------


class TestMergeMany:
    def _pair(self, seed_a=200, seed_b=201, n=400):
        rng_a, rng_b = random.Random(seed_a), random.Random(seed_b)
        a = _random_index(rng_a, n)
        # Force key overlap so the merge actually sums aggregates.
        overlap = {
            key: IndexEntry(fpr_sum=rng_b.random(), coverage=rng_b.randint(1, 50))
            for key in list(a.keys())[: n // 4]
        }
        b = _random_index(rng_b, n)
        entries = dict(b.items())
        entries.update(overlap)
        b = PatternIndex(entries, a.meta)
        return a, b

    @pytest.mark.parametrize("format", ["v2", "v3"])
    def test_equivalent_to_in_memory_merge(self, tmp_path, format):
        a, b = self._pair()
        save_index(a, tmp_path / "a", format=format, n_shards=16)
        save_index(b, tmp_path / "b", format=format, n_shards=16)
        stats = merge_many([tmp_path / "a", tmp_path / "b"], tmp_path / "out")
        expected = a.merge(b)
        merged = open_index(tmp_path / "out")
        assert detect_format(tmp_path / "out") == format
        assert dict(merged.items()) == dict(expected.items())
        assert merged.meta == expected.meta
        assert stats.total_entries == len(expected)
        assert stats.entries_read == len(a) + len(b)

    @pytest.mark.parametrize("format", ["v2", "v3"])
    def test_merge_is_bounded_by_shard_not_index(self, tmp_path, format):
        """The acceptance criterion: merging two 16-shard directories
        keeps strictly fewer entries resident than materializing either
        side (asserted via the store's entry-residency counter)."""
        a, b = self._pair()
        save_index(a, tmp_path / "a", format=format, n_shards=16)
        save_index(b, tmp_path / "b", format=format, n_shards=16)
        stats = merge_many([tmp_path / "a", tmp_path / "b"], tmp_path / "out")
        assert stats.n_shards == 16
        assert stats.max_resident_entries < len(a)
        assert stats.max_resident_entries < len(b)
        # a merged shard holds ~1/16th of the union; allow generous slack
        assert stats.max_resident_entries <= stats.total_entries // 4

    def test_merge_peak_memory_below_full_materialization(self, tmp_path):
        """tracemalloc cross-check: the shard-by-shard merge allocates
        less at peak than loading one input eagerly."""
        a, b = self._pair(n=600)
        save_index(a, tmp_path / "a", format="v3", n_shards=16)
        save_index(b, tmp_path / "b", format="v3", n_shards=16)

        tracemalloc.start()
        open_index(tmp_path / "a", lazy=False).items()
        _, full_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()

        tracemalloc.start()
        merge_many([tmp_path / "a", tmp_path / "b"], tmp_path / "out")
        _, merge_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert merge_peak < full_peak

    def test_mismatched_shard_counts_rejected(self, tmp_path):
        a, b = self._pair(n=50)
        save_index(a, tmp_path / "a", format="v3", n_shards=8)
        save_index(b, tmp_path / "b", format="v3", n_shards=16)
        with pytest.raises(ValueError, match="n_shards"):
            merge_many([tmp_path / "a", tmp_path / "b"], tmp_path / "out")

    def test_mixed_formats_rejected(self, tmp_path):
        a, b = self._pair(n=50)
        save_index(a, tmp_path / "a", format="v2", n_shards=8)
        save_index(b, tmp_path / "b", format="v3", n_shards=8)
        with pytest.raises(ValueError, match="mixed"):
            merge_many([tmp_path / "a", tmp_path / "b"], tmp_path / "out")

    def test_output_must_not_overwrite_an_input(self, tmp_path):
        a, b = self._pair(n=50)
        save_index(a, tmp_path / "a", format="v3", n_shards=8)
        save_index(b, tmp_path / "b", format="v3", n_shards=8)
        with pytest.raises(ValueError, match="overwrite"):
            merge_many([tmp_path / "a", tmp_path / "b"], tmp_path / "a")

    def test_incompatible_knobs_rejected_shard_level(self, tmp_path):
        a = build_index([["1:23"] * 10], EnumerationConfig(tau=13))
        b = build_index([["4:56"] * 10], EnumerationConfig(tau=8))
        save_index(a, tmp_path / "a", format="v3", n_shards=4)
        save_index(b, tmp_path / "b", format="v3", n_shards=4)
        with pytest.raises(ValueError, match="tau"):
            merge_many([tmp_path / "a", tmp_path / "b"], tmp_path / "out")


class TestMergeErrorMessages:
    """`merge` names the mismatched knob instead of a generic error."""

    def test_fingerprint_mismatch_names_the_knob(self):
        a = build_index([["1:23"] * 10], EnumerationConfig(min_option_coverage=0.25))
        b = build_index([["4:56"] * 10], EnumerationConfig(min_option_coverage=0.5))
        with pytest.raises(ValueError, match="min_option_coverage"):
            a.merge(b)

    def test_fingerprint_mismatch_shows_both_values(self):
        a = build_index([["1:23"] * 10], EnumerationConfig(enumerate_alnum_runs=True))
        b = build_index([["4:56"] * 10], EnumerationConfig(enumerate_alnum_runs=False))
        with pytest.raises(ValueError, match="alnum_runs: 1 != 0"):
            a.merge(b)

    def test_non_standard_fingerprints_fall_back_to_raw(self):
        a = PatternIndex({}, IndexMeta(fingerprint="opaque-stamp-a"))
        b = PatternIndex({}, IndexMeta(fingerprint="opaque-stamp-b"))
        with pytest.raises(ValueError, match="opaque-stamp-a"):
            a.merge(b)

    def test_tau_still_named_first(self):
        a = PatternIndex({}, IndexMeta(tau=13))
        b = PatternIndex({}, IndexMeta(tau=8))
        with pytest.raises(ValueError, match="tau: ?|tau"):
            a.merge(b)
