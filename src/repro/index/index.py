"""The pattern index: pattern key → (FPR_T, Cov_T) with statistics.

Entries store the aggregate *sum* of per-column impurities rather than the
final average; this keeps indexes mergeable (the map-reduce style build the
paper runs on a SCOPE cluster corresponds to :meth:`PatternIndex.merge`).

Persistence lives in :mod:`repro.index.store` (``open_index`` /
``save_index``; formats in ``src/repro/index/FORMAT.md``).  This module
holds the in-memory :class:`PatternIndex`, the lazily-loaded **v2** reader
:class:`ShardedPatternIndex` (a directory of hash-partitioned gzip-JSON
shards plus a manifest; shards are assigned by CRC-32 of the pattern key,
PYTHONHASHSEED-independent, and a lookup touches only the one shard its
key hashes to) and the byte-deterministic write primitives every
directory-layout store shares.

Merging validates enumeration-knob compatibility: combining indexes built
with different ``tau``/``min_coverage`` (or, when recorded, different full
knob fingerprints) would silently corrupt the FPR statistics of
Definition 3, so :meth:`merge` refuses.
"""

from __future__ import annotations

import gzip
import hashlib
import io
import json
import zlib
from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterator

from repro.core.enumeration import EnumerationGuide
from repro.core.pattern import Pattern
from repro.durability import publish_bytes

_FORMAT_VERSION = 1
_SHARDED_FORMAT_VERSION = 2
_BINARY_FORMAT_VERSION = 3
_MANIFEST_NAME = "manifest.json"

#: Upper bound on v2 shard counts (callers can validate before building).
MAX_SHARDS = 4096


class StaleIndexError(ValueError):
    """A lazily-loaded shard no longer matches its manifest.

    Raised when a shard file is missing, unreadable or carries a different
    entry count than the manifest recorded — the signature of an in-place
    rebuild racing the reader.  Long-lived services catch this, re-check
    the on-disk generation and retry once against the fresh snapshot.
    """


def shard_of(key: str, n_shards: int) -> int:
    """Deterministic shard assignment for a pattern key (CRC-32 based)."""
    return zlib.crc32(key.encode("utf-8")) % n_shards


def index_digest(path: str | Path) -> str:
    """Content digest of an on-disk index without loading its entries.

    For a v2 directory this hashes ``manifest.json`` (the manifest pins the
    shard list, entry counts and meta, and shard files are byte-deterministic,
    so the manifest bytes change exactly when the index content changes).
    For a v1 file it hashes the gzip bytes directly (also deterministic:
    sorted JSON keys, zeroed mtime).

    This is what long-lived services use as their cache *generation* token:
    rebuilding an index under the same path yields a new digest, which
    invalidates every cache entry stamped with the old one.  See
    ``src/repro/index/FORMAT.md``.
    """
    path = Path(path)
    target = path / _MANIFEST_NAME if path.is_dir() else path
    return hashlib.blake2b(target.read_bytes(), digest_size=16).hexdigest()


@dataclass(frozen=True)
class IndexEntry:
    """Aggregated statistics of one pattern across the corpus."""

    fpr_sum: float  # sum of Imp_D(p) over columns with p in P(D)
    coverage: int   # Cov_T(p): number of columns with p in P(D)

    @property
    def fpr(self) -> float:
        """``FPR_T(p)`` of Definition 3 — the mean impurity."""
        return self.fpr_sum / self.coverage if self.coverage else 1.0


@dataclass(frozen=True)
class IndexMeta:
    """Provenance of an index: what was scanned and with which knobs.

    ``fingerprint`` is the full enumeration-knob stamp
    (:meth:`repro.core.enumeration.EnumerationConfig.fingerprint`); empty
    for indexes loaded from files that predate it.
    """

    columns_scanned: int = 0
    values_scanned: int = 0
    tau: int = 13
    min_coverage: float = 0.1
    corpus_name: str = ""
    fingerprint: str = ""


def _parse_fingerprint(fingerprint: str) -> dict[str, str] | None:
    """Parse the ``knob=value;knob=value`` stamp of
    :meth:`EnumerationConfig.fingerprint`; None when not in that shape."""
    knobs: dict[str, str] = {}
    for part in fingerprint.split(";"):
        name, eq, value = part.partition("=")
        if not eq or not name:
            return None
        knobs[name] = value
    return knobs or None


def check_merge_compatible(a: IndexMeta, b: IndexMeta) -> None:
    """Raise :class:`ValueError` when indexes under ``a``/``b`` cannot merge.

    Averaging impurities estimated under different enumeration knobs
    silently corrupts ``FPR_T`` (Definition 3), so tau, min_coverage and —
    when both sides are stamped — the full knob fingerprint must agree.
    The error names exactly which knob mismatched so a failed distributed
    build points at the misconfigured worker instead of a generic
    "incompatible indexes".
    """
    if a.tau != b.tau:
        raise ValueError(
            f"cannot merge indexes built with different tau: {a.tau} != {b.tau}"
        )
    if a.min_coverage != b.min_coverage:
        raise ValueError(
            f"cannot merge indexes built with different min_coverage: "
            f"{a.min_coverage} != {b.min_coverage}"
        )
    if a.fingerprint and b.fingerprint and a.fingerprint != b.fingerprint:
        knobs_a = _parse_fingerprint(a.fingerprint)
        knobs_b = _parse_fingerprint(b.fingerprint)
        if knobs_a is not None and knobs_b is not None:
            mismatched = sorted(
                name
                for name in knobs_a.keys() | knobs_b.keys()
                if knobs_a.get(name) != knobs_b.get(name)
            )
            detail = ", ".join(
                f"{name}: {knobs_a.get(name, '<absent>')} != "
                f"{knobs_b.get(name, '<absent>')}"
                for name in mismatched
            )
        else:  # non-standard stamp: fall back to the raw fingerprints
            detail = f"{a.fingerprint!r} != {b.fingerprint!r}"
        raise ValueError(
            f"cannot merge indexes built with different enumeration knobs ({detail})"
        )


def merged_meta(a: IndexMeta, b: IndexMeta) -> IndexMeta:
    """The meta of a merged index: counts add, identity fields keep the
    first non-empty value (both merge paths — in-memory and shard-level —
    must agree on this)."""
    return IndexMeta(
        columns_scanned=a.columns_scanned + b.columns_scanned,
        values_scanned=a.values_scanned + b.values_scanned,
        tau=a.tau,
        min_coverage=a.min_coverage,
        corpus_name=a.corpus_name or b.corpus_name,
        fingerprint=a.fingerprint or b.fingerprint,
    )


@dataclass(frozen=True)
class FeasibleSet:
    """The entries FMDV can ever keep under ``(m, r)`` (Equations 6–7).

    ``entries`` holds every index entry with coverage ≥ ``min_coverage``
    and FPR ≤ ``max_fpr``; ``guide`` is the prefix trie over their keys
    that query enumeration is steered by (see
    :mod:`repro.core.enumeration`, "Guided enumeration").  Built once per
    index object and ``(m, r)`` by :meth:`PatternIndex.feasible_set`;
    read-only.
    """

    min_coverage: int
    max_fpr: float
    entries: dict[str, IndexEntry]
    guide: EnumerationGuide


@dataclass(frozen=True)
class IndexStats:
    """Aggregate index statistics backing Figure 13.

    Attributes:
        by_token_length: histogram of pattern frequency keyed by the number
            of atoms in the pattern (Figure 13a).
        by_column_frequency: histogram keyed by coverage — how many patterns
            are contained in exactly ``k`` columns (Figure 13b).
    """

    total_patterns: int
    by_token_length: dict[int, int]
    by_column_frequency: dict[int, int]

    def head_patterns(self) -> int:
        """Patterns covering at least 100 columns ("head" domains, §5.3)."""
        return sum(c for cov, c in self.by_column_frequency.items() if cov >= 100)


class PatternIndex:
    """Immutable-after-build lookup table from pattern keys to statistics."""

    def __init__(self, entries: dict[str, IndexEntry], meta: IndexMeta):
        self._entries = entries
        self.meta = meta
        self._stats_cache: IndexStats | None = None
        self._digest_cache: str | None = None
        self._feasible_sets: dict[tuple[int, float], FeasibleSet] = {}

    # -- lookups -----------------------------------------------------------

    def lookup(self, pattern: Pattern) -> IndexEntry | None:
        """Statistics for ``pattern``, or None when unseen in the corpus."""
        return self.lookup_key(pattern.key())

    def lookup_key(self, key: str) -> IndexEntry | None:
        return self._entries.get(key)

    def __contains__(self, pattern: Pattern) -> bool:
        return self.lookup_key(pattern.key()) is not None

    def __len__(self) -> int:
        self._ensure_all()
        return len(self._entries)

    def keys(self) -> list[str]:
        self._ensure_all()
        return list(self._entries.keys())

    def items(self) -> list[tuple[str, IndexEntry]]:
        self._ensure_all()
        return list(self._entries.items())

    def iter_entries(self) -> Iterator[tuple[str, float, int]]:
        """Stream every ``(key, fpr_sum, coverage)`` of the index.

        Lazily-loaded subclasses may stream without materializing
        (the v3 reader does); here it walks :meth:`items`.
        """
        for key, entry in self.items():
            yield key, entry.fpr_sum, entry.coverage

    def _ensure_all(self) -> None:
        """Hook for lazily-loaded subclasses; eager indexes hold everything."""

    # -- the feasible-key set ----------------------------------------------

    def feasible_set(self, min_coverage: int, max_fpr: float) -> FeasibleSet:
        """The :class:`FeasibleSet` for ``(m, r)``, built on first use.

        One pass over :meth:`iter_entries`; a torn or rebuilt shard raises
        :class:`StaleIndexError` and nothing is memoized.  The set is
        memoized on this index object: an index is immutable, and a reload
        creates a new object, so a set never outlives its generation.  The
        guide token is (content digest, m, r).
        """
        key = (min_coverage, max_fpr)
        cached = self._feasible_sets.get(key)
        if cached is not None:
            return cached
        entries: dict[str, IndexEntry] = {}
        for pattern_key, fpr_sum, coverage in self.iter_entries():
            if coverage < min_coverage:
                continue
            entry = IndexEntry(fpr_sum=fpr_sum, coverage=coverage)
            if entry.fpr <= max_fpr:
                entries[pattern_key] = entry
        token = f"{self.content_digest()}/m={min_coverage}/r={max_fpr!r}"
        built = FeasibleSet(
            min_coverage, max_fpr, entries, EnumerationGuide(entries, token)
        )
        return self._feasible_sets.setdefault(key, built)

    def built_feasible_set(
        self, min_coverage: int, max_fpr: float
    ) -> FeasibleSet | None:
        """The memoized set for ``(m, r)`` if one was built, without building."""
        return self._feasible_sets.get((min_coverage, max_fpr))

    @property
    def storage_format(self) -> str:
        """Which on-disk layout backs this index: ``"memory"`` for plain
        in-process indexes, ``"v2"``/``"v3"`` for disk-backed subclasses.
        Surfaced by ``ServiceStats`` and ``/metrics`` so operators can see
        what a serving process is actually reading from."""
        return "memory"

    # -- identity -----------------------------------------------------------

    def content_digest(self) -> str:
        """Stable 128-bit digest of the index content (entries + meta).

        Two indexes with identical entries and meta share a digest,
        independent of insertion order and ``PYTHONHASHSEED``.  Services use
        it as the cache-generation token for in-memory indexes; disk-backed
        indexes override it with the (equivalent) manifest digest so lazy
        shards are not forced in.  Memoized — the index is immutable after
        build.
        """
        if self._digest_cache is None:
            self._ensure_all()
            h = hashlib.blake2b(digest_size=16)
            h.update(repr(sorted(asdict(self.meta).items())).encode("utf-8"))
            for key in sorted(self._entries):
                entry = self._entries[key]
                h.update(key.encode("utf-8", "surrogatepass"))
                h.update(b"\x00")
                h.update(f"{entry.fpr_sum!r}:{entry.coverage}".encode("ascii"))
                h.update(b"\x00")
            self._digest_cache = h.hexdigest()
        return self._digest_cache

    # -- analytics (Figure 13 and the §5.3 pattern analysis) ----------------

    def stats(self) -> IndexStats:
        """Aggregate histograms; computed once and memoized (the index is
        immutable after build, so the cache never goes stale)."""
        if self._stats_cache is None:
            by_length: Counter[int] = Counter()
            by_frequency: Counter[int] = Counter()
            for key, entry in self.items():
                by_length[_token_length_of_key(key)] += 1
                by_frequency[entry.coverage] += 1
            self._stats_cache = IndexStats(
                total_patterns=len(self._entries),
                by_token_length=dict(by_length),
                by_column_frequency=dict(by_frequency),
            )
        return self._stats_cache

    def common_domains(self, min_coverage: int = 100, max_fpr: float = 0.01) -> list[tuple[str, IndexEntry]]:
        """High-coverage, low-FPR patterns — the corpus's common data domains.

        This is the "head pattern" inspection of Section 5.3 that surfaces
        domains like those in Figure 3.
        """
        found = [
            (key, entry)
            for key, entry in self.items()
            if entry.coverage >= min_coverage and entry.fpr <= max_fpr
        ]
        found.sort(key=lambda item: (-item[1].coverage, item[1].fpr, item[0]))
        return found

    # -- merging ------------------------------------------------------------

    def merge(self, other: "PatternIndex") -> "PatternIndex":
        """Combine two partial indexes (distributed/offline build support).

        Raises :class:`ValueError` when the two indexes were built with
        incompatible enumeration knobs: averaging impurities estimated
        under different ``tau``/``min_coverage`` would silently corrupt
        ``FPR_T``.
        """
        self._check_merge_compatible(other)
        self._ensure_all()
        other._ensure_all()
        merged = dict(self._entries)
        for key, entry in other._entries.items():
            existing = merged.get(key)
            if existing is None:
                merged[key] = entry
            else:
                merged[key] = IndexEntry(
                    fpr_sum=existing.fpr_sum + entry.fpr_sum,
                    coverage=existing.coverage + entry.coverage,
                )
        return PatternIndex(merged, merged_meta(self.meta, other.meta))

    def _check_merge_compatible(self, other: "PatternIndex") -> None:
        check_merge_compatible(self.meta, other.meta)


class ShardedPatternIndex(PatternIndex):
    """A format-v2 index whose shards are loaded on demand.

    A key lookup hashes to its shard and loads only that file; whole-index
    operations (``len``/``keys``/``items``/``stats``/``merge``/``save_index``)
    transparently force the remaining shards in.  ``total_entries`` from
    the manifest answers ``len()`` without touching any shard.
    """

    def __init__(self, directory: Path, manifest: dict):
        meta_payload = dict(manifest["meta"])
        super().__init__({}, IndexMeta(**meta_payload))
        self._directory = directory
        self._n_shards: int = int(manifest["n_shards"])
        self._shard_files: list[str] = [s["file"] for s in manifest["shards"]]
        self._shard_entry_counts: list[int] = [int(s["entries"]) for s in manifest["shards"]]
        self._total_entries: int = int(manifest["total_entries"])
        self._loaded = [False] * self._n_shards
        # Digest of the manifest bytes at load time — the generation token
        # for this snapshot of the on-disk index (see index_digest()).
        self._digest_cache = index_digest(directory)

    @property
    def source_path(self) -> Path:
        """The v2 directory this index was loaded from (spawn-safe handle:
        worker processes re-open the path instead of pickling shard state)."""
        return self._directory

    @property
    def storage_format(self) -> str:
        return "v2"

    def content_digest(self) -> str:
        return self._digest_cache

    @classmethod
    def _load(cls, directory: Path, lazy: bool) -> "ShardedPatternIndex":
        manifest_path = directory / _MANIFEST_NAME
        if not manifest_path.is_file():
            raise ValueError(f"not a sharded index: {directory} has no {_MANIFEST_NAME}")
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        if manifest.get("version") != _SHARDED_FORMAT_VERSION:
            raise ValueError(f"unsupported index format: {manifest.get('version')!r}")
        if len(manifest["shards"]) != manifest["n_shards"]:
            raise ValueError("corrupt manifest: shard list does not match n_shards")
        index = cls(directory, manifest)
        if not lazy:
            index._ensure_all()
        return index

    @property
    def loaded_shard_count(self) -> int:
        """How many shard files have been read so far (observability)."""
        return sum(self._loaded)

    def lookup_key(self, key: str) -> IndexEntry | None:
        self._ensure_shard(shard_of(key, self._n_shards))
        return self._entries.get(key)

    def __len__(self) -> int:
        return self._total_entries

    def _ensure_shard(self, i: int) -> None:
        if self._loaded[i]:
            return
        path = self._directory / self._shard_files[i]
        try:
            with gzip.open(path, "rt", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, EOFError, zlib.error, json.JSONDecodeError) as exc:
            # Missing or torn shard: an in-place rebuild is racing us.
            raise StaleIndexError(
                f"shard file {path} unreadable (index rebuilt in place?): {exc}"
            ) from exc
        if payload.get("version") != _SHARDED_FORMAT_VERSION or payload.get("shard") != i:
            raise ValueError(f"corrupt shard file: {path}")
        if len(payload["entries"]) != self._shard_entry_counts[i]:
            # Readable but from a different snapshot than our manifest.
            raise StaleIndexError(
                f"shard file {path} has {len(payload['entries'])} entries, "
                f"manifest recorded {self._shard_entry_counts[i]} "
                "(index rebuilt in place?)"
            )
        for key, raw in payload["entries"].items():
            self._entries[key] = IndexEntry(fpr_sum=float(raw[0]), coverage=int(raw[1]))
        self._loaded[i] = True

    def _ensure_all(self) -> None:
        for i in range(self._n_shards):
            self._ensure_shard(i)


def _remove_stale_shards(directory: Path, expected: set[str]) -> None:
    """Remove shard files the new manifest will not reference.

    Re-saving with a smaller shard count — or in a different format — must
    not leave stale shards behind: the manifest would ignore them, but
    anything globbing the directory (backup/replication tooling) would read
    two indexes.  The glob covers every format's shard naming.
    """
    for stale in sorted(directory.glob("shard-*")):
        if stale.name not in expected:
            stale.unlink()


def _publish_manifest(directory: Path, manifest: dict) -> None:
    """Durably publish ``manifest.json`` after every shard file is in place.

    The manifest is the commit point of a directory-layout save: its bytes
    are fsync'd before the atomic rename and the directory is fsync'd after
    it, so a crash at any instant leaves either the previous manifest or the
    new one — never a torn file, and never a new manifest whose shards could
    be lost by a reordered flush (every shard write fsync'd before this).
    Shared by every directory-layout store so manifest bytes are
    format-independent in shape and deterministic.
    """
    data = json.dumps(manifest, sort_keys=True, indent=1).encode("utf-8")
    publish_bytes(directory / _MANIFEST_NAME, data)


def _write_gzip_json(path: Path, payload: dict) -> None:
    """Gzip JSON with sorted keys and zeroed mtime — byte-deterministic.

    Published durably (temp + fsync + rename) so the manifest publish that
    follows can assume every shard it references is on the device.
    """
    buffer = io.BytesIO()
    with gzip.GzipFile(fileobj=buffer, mode="wb", mtime=0) as gz:
        gz.write(json.dumps(payload, sort_keys=True).encode("utf-8"))
    publish_bytes(path, buffer.getvalue())


def _token_length_of_key(key: str) -> int:
    """Number of atoms in a canonical pattern key (cheap, no full parse)."""
    count = 1
    i = 0
    while i < len(key):
        if key[i] == "\\":
            i += 2
            continue
        if key[i] == "|":
            count += 1
        i += 1
    return count
