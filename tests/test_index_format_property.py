"""Property-based round-trip tests for index format v2 (sharded layout).

Seeded-random generation (deterministic, no external dependency): arbitrary
entry sets — including unicode keys, keys containing the ``|``/``\\``
metacharacters of the canonical encoding, empty indexes and shard counts
that leave shards empty — must survive ``save_index`` →
``ShardedPatternIndex`` load with identical lookups, ``stats()`` and
byte-identical re-saves.
"""

from __future__ import annotations

import random

import pytest

from repro.index.index import (
    IndexEntry,
    IndexMeta,
    PatternIndex,
    ShardedPatternIndex,
    StaleIndexError,
    index_digest,
    shard_of,
)
from repro.index.store import open_index, save_index

#: Alphabets the key generator draws from: ASCII-ish pattern-key material,
#: encoding metacharacters, and unicode well outside latin-1.
_ALPHABETS = (
    "abcXYZ019._-",
    "|\\\"'{}[]:,",
    "äßçøñ",
    "日本語中文한국",
    "🙂🚀💾",
    "Ω≤≥∀∂",
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
        fingerprint=f"tau={rng.randint(1, 20)};seed",
    )
    return PatternIndex(entries, meta)


@pytest.mark.parametrize("n_shards", [1, 4, 16])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_roundtrip_preserves_lookups_and_stats(tmp_path, n_shards, seed):
    rng = random.Random(1000 * seed + n_shards)
    index = _random_index(rng, rng.randint(1, 120))
    out = tmp_path / "idx.v2"
    save_index(index, out, format="v2", n_shards=n_shards)

    reloaded = open_index(out)
    assert isinstance(reloaded, ShardedPatternIndex)

    # Lazy per-key lookups agree entry by entry...
    for key, entry in index.items():
        got = reloaded.lookup_key(key)
        assert got == entry
        assert got.fpr == entry.fpr
    # ...absent keys stay absent...
    for _ in range(20):
        absent = _random_key(rng)
        assert (reloaded.lookup_key(absent) is None) == (
            index.lookup_key(absent) is None
        )
    # ...and whole-index views are identical.
    assert len(reloaded) == len(index)
    assert dict(reloaded.items()) == dict(index.items())
    assert sorted(reloaded.keys()) == sorted(index.keys())
    assert reloaded.stats() == index.stats()
    assert reloaded.meta == index.meta
    assert reloaded.content_digest() == index_digest(out)


@pytest.mark.parametrize("seed", [10, 11])
def test_roundtrip_with_empty_shards(tmp_path, seed):
    """Fewer entries than shards: empty shard files load transparently."""
    rng = random.Random(seed)
    index = _random_index(rng, 3)
    out = tmp_path / "sparse.v2"
    save_index(index, out, format="v2", n_shards=16)
    reloaded = open_index(out, lazy=False)
    assert dict(reloaded.items()) == dict(index.items())
    assert reloaded.loaded_shard_count == 16
    occupied = {shard_of(k, 16) for k in index.keys()}
    assert len(occupied) <= 3  # the rest really were empty on disk


def test_roundtrip_empty_index(tmp_path):
    index = PatternIndex({}, IndexMeta())
    out = tmp_path / "empty.v2"
    save_index(index, out, format="v2", n_shards=4)
    reloaded = open_index(out)
    assert len(reloaded) == 0
    assert reloaded.items() == []
    assert reloaded.stats().total_patterns == 0
    assert reloaded.lookup_key("anything") is None


@pytest.mark.parametrize("seed", [20, 21, 22])
def test_resave_is_byte_identical_and_digest_stable(tmp_path, seed):
    """Determinism property: save → load → save reproduces every byte, so
    the manifest digest is a faithful content fingerprint."""
    rng = random.Random(seed)
    index = _random_index(rng, 40)
    a, b = tmp_path / "a.v2", tmp_path / "b.v2"
    save_index(index, a, format="v2", n_shards=4)
    save_index(open_index(a), b, format="v2", n_shards=4)
    files_a = sorted(p.name for p in a.iterdir())
    files_b = sorted(p.name for p in b.iterdir())
    assert files_a == files_b
    for name in files_a:
        assert (a / name).read_bytes() == (b / name).read_bytes()
    assert index_digest(a) == index_digest(b)


class TestStaleShardDetection:
    """A lazy reader racing an in-place rebuild must fail loudly
    (StaleIndexError), never silently serve a mixed snapshot."""

    def _key_in_shard(self, index, n_shards, shard):
        for key in index.keys():
            if shard_of(key, n_shards) == shard:
                return key
        pytest.skip("no key hashed to the probed shard")

    def test_missing_shard_file_raises_stale(self, tmp_path):
        index = _random_index(random.Random(40), 50)
        out = tmp_path / "idx.v2"
        save_index(index, out, format="v2", n_shards=4)
        lazy = open_index(out)
        (out / "shard-0002.json.gz").unlink()
        key = self._key_in_shard(index, 4, 2)
        with pytest.raises(StaleIndexError):
            lazy.lookup_key(key)

    def test_rewritten_shard_with_old_manifest_raises_stale(self, tmp_path):
        old = _random_index(random.Random(41), 60)
        out = tmp_path / "idx.v2"
        save_index(old, out, format="v2", n_shards=4)
        lazy = open_index(out)  # holds the OLD manifest
        # In-place rebuild with clearly different content (3 entries).
        save_index(_random_index(random.Random(42), 3), out, format="v2", n_shards=4)
        probe = 0  # old index: 60 entries over 4 shards -> every count differs
        key = self._key_in_shard(old, 4, probe)
        with pytest.raises(StaleIndexError):
            lazy.lookup_key(key)

    def test_truncated_shard_file_raises_stale(self, tmp_path):
        index = _random_index(random.Random(43), 50)
        out = tmp_path / "idx.v2"
        save_index(index, out, format="v2", n_shards=2)
        lazy = open_index(out)
        shard = out / "shard-0001.json.gz"
        shard.write_bytes(shard.read_bytes()[:10])  # torn mid-write
        key = self._key_in_shard(index, 2, 1)
        with pytest.raises(StaleIndexError):
            lazy.lookup_key(key)

    def test_stale_is_a_value_error(self):
        assert issubclass(StaleIndexError, ValueError)


def test_content_digest_tracks_content_not_layout(tmp_path):
    """Equal entries across different in-memory insertion orders share a
    content digest; changing one entry changes it."""
    rng = random.Random(30)
    base = _random_index(rng, 25)
    shuffled_keys = list(base.keys())
    rng.shuffle(shuffled_keys)
    permuted = PatternIndex(
        {k: base.lookup_key(k) for k in shuffled_keys}, base.meta
    )
    assert permuted.content_digest() == base.content_digest()

    k0 = shuffled_keys[0]
    changed_entries = dict(base.items())
    old = changed_entries[k0]
    changed_entries[k0] = IndexEntry(old.fpr_sum + 1.0, old.coverage)
    changed = PatternIndex(changed_entries, base.meta)
    assert changed.content_digest() != base.content_digest()
