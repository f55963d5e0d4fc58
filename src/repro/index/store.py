"""Pluggable index persistence — the :class:`IndexStore` API.

The pattern index is the one artifact every serving path depends on.
All persistence goes through one runtime-checkable protocol and a
registry of backends:

* :class:`V1MonolithicStore` — the legacy single gzip-JSON file,
  **read-only**: it opens, streams and digests so old files upgrade with
  ``save_index(open_index(old), new, format="v3")``, but nothing writes it.
* :class:`V2ShardedStore` — hash-partitioned gzip-JSON shard directory.
* :class:`V3BinaryStore` — fixed-width binary shards (sorted key table +
  offset array + packed records + CRC footer) that
  :class:`MmapShardedPatternIndex` **mmaps** and binary-searches per
  lookup instead of materializing dicts.  Cold start touches only the
  manifest; a lookup touches only the pages the binary search walks.

Call sites use the facade instead of concrete classes::

    from repro.index.store import open_index, save_index, merge_many

    index = open_index("lake.idx")            # format auto-detected
    save_index(index, "lake.v3", format="v3") # or REPRO_INDEX_FORMAT
    merge_many(["a.v3", "b.v3", "c.v3"], "whole.v3")   # k-way, N inputs

``merge_many`` combines equal-shard directories shard by shard in
bounded memory with a k-way heap merge over the key-sorted per-shard
streams: at most one merged shard is resident at a time, never any full
index (the map-reduce regime the paper runs on a SCOPE cluster, without
the cluster).  The same module holds the offline builder's *run-spill*
codec (``write_run_file`` / ``iter_run_file``: v3-layout files with exact
fixed-point partials) and the streaming shard writer
``write_v3_shard_streaming`` — see ``src/repro/index/FORMAT.md`` for both
contracts.

Binary shard layout (format v3, little-endian throughout; the full byte
spec lives in ``src/repro/index/FORMAT.md``)::

    header   20 B   magic "AVI3" | version u16 | flags u16 |
                    shard_id u32 | n_entries u32 | key_blob_size u32
    offsets  4*(n+1) B   cumulative u32 offsets into the key blob
    keys     key_blob_size B   UTF-8 keys, sorted bytewise
    records  16*n B  (fpr_sum f64, coverage u64) aligned with keys
    footer    8 B   crc32 u32 of all preceding bytes | magic "AVI3"

Every section's position is computable from the header, so a reader
validates structure (magic, entry count vs. manifest, exact file size)
without reading the data sections; the CRC is verified only when a shard
is fully materialized, keeping cold starts free of full-file reads.  Torn
or mid-rebuild files raise :class:`StaleIndexError`, same contract as v2.
"""

from __future__ import annotations

import gzip
import heapq
import json
import mmap
import os
import struct
import threading
import zlib
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import (
    IO,
    Callable,
    Iterable,
    Iterator,
    Protocol,
    Sequence,
    runtime_checkable,
)

from repro.durability import (
    DurabilityError,
    cleanup_orphans,
    durable_replace,
    fsync_file,
    is_no_space,
    publish_bytes,
)
from repro.index.index import (
    MAX_SHARDS,
    IndexEntry,
    IndexMeta,
    PatternIndex,
    ShardedPatternIndex,
    StaleIndexError,
    _BINARY_FORMAT_VERSION,
    _FORMAT_VERSION,
    _MANIFEST_NAME,
    _SHARDED_FORMAT_VERSION,
    _publish_manifest,
    _remove_stale_shards,
    _write_gzip_json,
    check_merge_compatible,
    index_digest,
    merged_meta,
    shard_of,
)

#: Environment variable selecting the default ``save_index`` format.
FORMAT_ENV = "REPRO_INDEX_FORMAT"

#: One streamed index entry: ``(pattern key, fpr_sum, coverage)``.
Entry = tuple[str, float, int]


@dataclass(frozen=True)
class MergeStats:
    """What a shard-level merge did — and what it kept resident.

    ``max_resident_entries`` is the peak number of entries held in memory
    at any point of the merge; for sharded stores it is bounded by the
    largest *merged shard*, not by any input index (the bounded-memory
    guarantee tests assert against).
    """

    n_shards: int
    total_entries: int
    #: Entries streamed from every input via ``iter_entries``.
    entries_read: int
    max_resident_entries: int
    #: How many indexes were merged.
    n_inputs: int = 2


@runtime_checkable
class IndexStore(Protocol):
    """One on-disk index format: open, write, digest, stream.

    Implementations are stateless (all state lives on disk / in the
    returned index), so one registered instance serves every caller.
    Third-party formats register with :func:`register_store`.  A store
    that can combine its own files on disk additionally provides
    ``merge_many(paths, out) -> MergeStats`` (what :func:`merge_many`
    dispatches to); read-only and unshardable formats leave it out.
    """

    #: Registry name (``"v1"``/``"v2"``/``"v3"`` for the built-ins).
    name: str
    #: The ``version`` tag this store reads and writes.
    format_version: int

    def open(self, path: str | Path, lazy: bool = True) -> PatternIndex:
        """Load the index at ``path`` (lazily where the format allows)."""
        ...

    def write(self, index: PatternIndex, path: str | Path, *, n_shards: int = 16) -> None:
        """Persist ``index`` at ``path`` (``n_shards`` where it applies)."""
        ...

    def digest(self, path: str | Path) -> str:
        """Content digest of the on-disk index without loading entries —
        the cache-generation token of ``src/repro/index/FORMAT.md``."""
        ...

    def iter_entries(self, path: str | Path) -> Iterator[Entry]:
        """Stream ``(key, fpr_sum, coverage)`` without materializing the
        whole index (at most one shard resident for sharded formats)."""
        ...


# -- the registry and facade ---------------------------------------------------

_STORES: dict[str, IndexStore] = {}


def register_store(store: IndexStore, *, replace: bool = False) -> None:
    """Register an :class:`IndexStore` backend under ``store.name``."""
    if not isinstance(store, IndexStore):
        raise TypeError(f"{store!r} does not satisfy the IndexStore protocol")
    if not replace and store.name in _STORES:
        raise ValueError(f"index store {store.name!r} is already registered")
    _STORES[store.name] = store


def get_store(name: str) -> IndexStore:
    """The registered store for format ``name`` (e.g. ``"v3"``)."""
    try:
        return _STORES[name]
    except KeyError:
        raise ValueError(
            f"unknown index format {name!r}; choose from {available_formats()}"
        ) from None


def available_formats() -> list[str]:
    """Sorted names of every registered index store."""
    return sorted(_STORES)


def default_format() -> str:
    """The format ``save_index`` uses when none is requested:
    ``REPRO_INDEX_FORMAT`` when set (the CI store matrix pins it to v2 or
    v3; the read-only ``v1`` makes every write fail loudly), otherwise
    ``"v2"``."""
    env = os.environ.get(FORMAT_ENV, "").strip().lower()
    return env if env in _STORES else "v2"


def detect_format(path: str | Path) -> str:
    """Which registered format the on-disk index at ``path`` carries.

    A directory is identified by its manifest's ``version`` tag, a plain
    file by the version inside the gzip payload (read lazily: v1 is the
    only file layout, so the extension check never decompresses entries).
    """
    path = Path(path)
    if path.is_dir():
        manifest_path = path / _MANIFEST_NAME
        if not manifest_path.is_file():
            raise ValueError(f"not an index directory: {path} has no {_MANIFEST_NAME}")
        version = json.loads(manifest_path.read_text(encoding="utf-8")).get("version")
    else:
        if not path.is_file():
            raise ValueError(f"no index at {path}")
        with open(path, "rb") as handle:
            magic = handle.read(2)
        if magic != b"\x1f\x8b":  # the gzip magic every v1 file starts with
            raise ValueError(f"{path} is not an index file (not gzip)")
        version = _FORMAT_VERSION
    for store in _STORES.values():
        if store.format_version == version:
            return store.name
    raise ValueError(f"unsupported index format version {version!r} at {path}")


def _resolve_store(path: str | Path, store: IndexStore | str | None) -> IndexStore:
    if store is None:
        return get_store(detect_format(path))
    if isinstance(store, str):
        return get_store(store)
    return store


def open_index(
    path: str | Path,
    *,
    store: IndexStore | str | None = None,
    lazy: bool = True,
    prefetch: bool = False,
) -> PatternIndex:
    """Open an on-disk index through its store (auto-detected by default).

    This is the one loading entry point for services, workers, the CLI
    and the HTTP server.

    ``prefetch=True`` starts a background page-cache warmer on indexes
    that support it (format v3: a daemon thread walks every shard file
    with plain buffered reads after open, so later mmap lookups hit warm
    pages) — opening never blocks on it, and formats without a
    ``start_prefetch`` hook ignore the flag.
    """
    index = _resolve_store(path, store).open(path, lazy=lazy)
    if prefetch:
        starter = getattr(index, "start_prefetch", None)
        if starter is not None:
            starter()
    return index


def save_index(
    index: PatternIndex,
    path: str | Path,
    *,
    format: IndexStore | str | None = None,
    n_shards: int = 16,
) -> None:
    """Persist ``index`` at ``path`` in ``format`` (default:
    :func:`default_format`, i.e. ``REPRO_INDEX_FORMAT`` or v2)."""
    store = get_store(format) if isinstance(format, str) else format
    if store is None:
        store = get_store(default_format())
    store.write(index, path, n_shards=n_shards)


def store_digest(path: str | Path, *, store: IndexStore | str | None = None) -> str:
    """Content digest of the on-disk index at ``path`` via its store.

    This is what long-lived services stamp their cache generations with;
    it equals :func:`repro.index.index.index_digest` for the built-in
    formats but goes through the store so third-party backends can define
    their own cheap content token.
    """
    return _resolve_store(path, store).digest(path)


def merge_many(
    paths: Sequence[str | Path], out: str | Path, *, store: IndexStore | str | None = None
) -> MergeStats:
    """Merge N ≥ 2 same-format on-disk indexes into ``out`` via their store.

    Directory formats (v2/v3) with equal ``n_shards`` merge shard by shard
    with one k-way heap merge over the key-sorted per-shard entry streams:
    output shard ``i`` depends only on input shards ``i``, so at most one
    *merged shard* (plus one streamed shard per input for v2) is resident —
    never any full index, regardless of how many inputs there are.  Inputs
    built with incompatible enumeration knobs are rejected with an error
    naming the offending file, and so are formats whose store has no
    ``merge_many`` (the read-only v1 file: upgrade it first).
    """
    paths = [Path(p) for p in paths]
    if len(paths) < 2:
        raise ValueError("merge needs at least two input indexes")
    resolved = _resolve_store(paths[0], store)
    if store is None:
        for p in paths[1:]:
            format_p = detect_format(p)
            if format_p != resolved.name:
                raise ValueError(
                    f"cannot merge mixed index formats: {paths[0]} is "
                    f"{resolved.name}, {p} is {format_p}; convert one side "
                    "first (open_index + save_index)"
                )
    impl = getattr(resolved, "merge_many", None)
    if impl is None:
        raise ValueError(
            f"{resolved.name} indexes cannot be merged on disk; convert "
            "them to v2/v3 first (open_index + save_index)"
        )
    return impl(paths, out)


# -- v1: monolithic gzip-JSON file --------------------------------------------


class V1MonolithicStore:
    """The legacy single-file format: entirely eager and **read-only**.

    Kept so old files still open, stream, digest and upgrade
    (``save_index(open_index(old), new, format="v3")``); nothing writes or
    merges it any more.
    """

    name = "v1"
    format_version = _FORMAT_VERSION

    def _read_payload(self, path: Path) -> dict:
        if path.is_dir():
            raise ValueError(f"{path} is a directory, not a v1 index file")
        try:
            with gzip.open(path, "rt", encoding="utf-8") as handle:
                payload: dict = json.load(handle)
        except FileNotFoundError:
            raise
        except (OSError, EOFError, zlib.error, json.JSONDecodeError, UnicodeDecodeError) as exc:
            # A truncated or garbled gzip stream surfaces as EOFError /
            # BadGzipFile / zlib.error depending on where the cut falls;
            # readers get one typed error for all of them.
            raise ValueError(f"{path} is not a readable v1 index (torn file?): {exc}") from exc
        if payload.get("version") != self.format_version:
            raise ValueError(f"unsupported index format: {payload.get('version')!r}")
        return payload

    def open(self, path: str | Path, lazy: bool = True) -> PatternIndex:
        payload = self._read_payload(Path(path))
        entries = {
            key: IndexEntry(fpr_sum=float(raw[0]), coverage=int(raw[1]))
            for key, raw in payload["entries"].items()
        }
        return PatternIndex(entries, IndexMeta(**payload["meta"]))

    def write(self, index: PatternIndex, path: str | Path, *, n_shards: int = 16) -> None:
        raise ValueError(
            "index format v1 is read-only legacy; write v2 or v3 "
            "(save_index(..., format='v3'))"
        )

    def digest(self, path: str | Path) -> str:
        return index_digest(path)

    def iter_entries(self, path: str | Path) -> Iterator[Entry]:
        entries = self._read_payload(Path(path))["entries"]
        for key in sorted(entries):
            raw = entries[key]
            yield key, float(raw[0]), int(raw[1])


# -- shared machinery for directory-layout stores ------------------------------


class _DirectoryStoreBase:
    """Manifest handling, the one save path and the bounded-memory shard
    merge, shared by every directory-layout store.  Subclasses provide the
    shard codec (``_iter_shard`` / ``_write_shard`` / ``_shard_file_name``)."""

    name: str
    format_version: int

    def digest(self, path: str | Path) -> str:
        return index_digest(path)

    def _read_manifest(self, path: Path) -> dict:
        manifest_path = path / _MANIFEST_NAME
        if not manifest_path.is_file():
            raise ValueError(f"not a sharded index: {path} has no {_MANIFEST_NAME}")
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        if manifest.get("version") != self.format_version:
            raise ValueError(
                f"{path} is not a {self.name} index "
                f"(manifest version {manifest.get('version')!r})"
            )
        if len(manifest["shards"]) != manifest["n_shards"]:
            raise ValueError("corrupt manifest: shard list does not match n_shards")
        return manifest

    def iter_entries(self, path: str | Path) -> Iterator[Entry]:
        path = Path(path)
        manifest = self._read_manifest(path)
        for i in range(int(manifest["n_shards"])):
            yield from self._iter_shard(path, manifest, i)

    def write(self, index: PatternIndex, path: str | Path, *, n_shards: int = 16) -> None:
        """Persist ``index`` as a directory of hash-partitioned shards.

        Deterministic byte for byte: shard assignment is CRC-32 of the
        pattern key and every codec sorts its keys and stamps no time, so
        saving the same index twice yields identical files.
        """
        if not 1 <= n_shards <= MAX_SHARDS:
            raise ValueError(f"n_shards must be in [1, {MAX_SHARDS}]")
        directory = Path(path)
        directory.mkdir(parents=True, exist_ok=True)
        buckets: list[dict[str, tuple[float, int]]] = [{} for _ in range(n_shards)]
        for key, entry in index.items():
            buckets[shard_of(key, n_shards)][key] = (entry.fpr_sum, entry.coverage)
        self._commit(
            directory,
            index.meta,
            [self._write_shard(directory, i, bucket) for i, bucket in enumerate(buckets)],
        )

    def _commit(self, directory: Path, meta: IndexMeta, shard_rows: list[dict]) -> None:
        """Make freshly written shards the index at ``directory``.

        In-place-rebuild friendliness: shard files are overwritten first
        (by the caller), leftovers deleted second, the manifest published
        last (atomically).  Readers holding the old manifest detect a mixed
        snapshot via per-shard entry counts (``StaleIndexError``) instead
        of reading silent garbage.
        """
        _remove_stale_shards(directory, {row["file"] for row in shard_rows})
        _publish_manifest(
            directory,
            {
                "version": self.format_version,
                "meta": asdict(meta),
                "n_shards": len(shard_rows),
                "shards": shard_rows,
                "total_entries": sum(row["entries"] for row in shard_rows),
            },
        )

    def merge_many(self, paths: Sequence[str | Path], out: str | Path) -> MergeStats:
        """k-way merge, shard by shard: equal ``n_shards`` means equal hash
        partitioning, so shard ``i`` of the output depends only on shard
        ``i`` of each input.  The per-shard entry streams are already
        key-sorted (every format's ``_iter_shard`` contract), so a heap
        merge (:func:`heapq.merge`, stable in input order) aggregates equal
        keys as they pop — at most one *merged* shard is resident however
        many inputs there are.  Shards are written first and the manifest
        published atomically last, same crash contract as a plain save.
        Incompatible inputs are rejected with the offending file named.
        """
        paths = [Path(p) for p in paths]
        out = Path(out)
        if len(paths) < 2:
            raise ValueError("merge needs at least two input indexes")
        if out.resolve() in {p.resolve() for p in paths}:
            raise ValueError("merge output must not overwrite an input index")
        manifests = [self._read_manifest(p) for p in paths]
        n_shards = int(manifests[0]["n_shards"])
        for p, manifest in zip(paths[1:], manifests[1:]):
            if int(manifest["n_shards"]) != n_shards:
                raise ValueError(
                    f"cannot merge shard-by-shard: {paths[0]} has {n_shards} "
                    f"shards, {p} has {manifest['n_shards']}; re-save one "
                    "side with a matching n_shards"
                )
        metas = [IndexMeta(**dict(m["meta"])) for m in manifests]
        folded = metas[0]
        for p, meta in zip(paths[1:], metas[1:]):
            try:
                check_merge_compatible(folded, meta)
            except ValueError as exc:
                raise ValueError(f"{p}: {exc}") from None
            folded = merged_meta(folded, meta)

        out.mkdir(parents=True, exist_ok=True)
        shard_rows: list[dict] = []
        total_entries = 0
        entries_read = 0
        max_resident = 0
        for i in range(n_shards):
            streams = [
                self._iter_shard(p, manifest, i)
                for p, manifest in zip(paths, manifests)
            ]
            entries: dict[str, tuple[float, int]] = {}
            for key, fpr_sum, coverage in heapq.merge(
                *streams, key=lambda entry: entry[0]
            ):
                entries_read += 1
                existing = entries.get(key)
                if existing is None:
                    entries[key] = (fpr_sum, coverage)
                else:
                    entries[key] = (existing[0] + fpr_sum, existing[1] + coverage)
            max_resident = max(max_resident, len(entries))
            total_entries += len(entries)
            shard_rows.append(self._write_shard(out, i, entries))
        self._commit(out, folded, shard_rows)
        return MergeStats(
            n_shards=n_shards,
            total_entries=total_entries,
            entries_read=entries_read,
            max_resident_entries=max_resident,
            n_inputs=len(paths),
        )

    # subclasses: the shard codec ------------------------------------------

    def _shard_file_name(self, i: int) -> str:
        raise NotImplementedError

    def _iter_shard(self, path: Path, manifest: dict, i: int) -> Iterator[Entry]:
        raise NotImplementedError

    def _write_shard(self, path: Path, i: int, entries: dict[str, tuple[float, int]]) -> dict:
        """Write one shard file; returns its manifest row."""
        raise NotImplementedError


# -- v2: gzip-JSON shard directory --------------------------------------------


class V2ShardedStore(_DirectoryStoreBase):
    """Today's sharded layout, wrapped (lazy dict-materializing shards)."""

    name = "v2"
    format_version = _SHARDED_FORMAT_VERSION

    def open(self, path: str | Path, lazy: bool = True) -> PatternIndex:
        path = Path(path)
        # Sweep publish temporaries a crashed builder left behind (safe:
        # single-writer discipline, nothing references *.tmp once open).
        cleanup_orphans(path)
        self._read_manifest(path)  # fail with a precise error on v1/v3 input
        return ShardedPatternIndex._load(path, lazy=lazy)

    def _shard_file_name(self, i: int) -> str:
        return f"shard-{i:04d}.json.gz"

    def _iter_shard(self, path: Path, manifest: dict, i: int) -> Iterator[Entry]:
        shard_file = path / manifest["shards"][i]["file"]
        try:
            with gzip.open(shard_file, "rt", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, EOFError, zlib.error, json.JSONDecodeError) as exc:
            raise StaleIndexError(
                f"shard file {shard_file} unreadable (index rebuilt in place?): {exc}"
            ) from exc
        if len(payload["entries"]) != int(manifest["shards"][i]["entries"]):
            raise StaleIndexError(
                f"shard file {shard_file} has {len(payload['entries'])} entries, "
                f"manifest recorded {manifest['shards'][i]['entries']} "
                "(index rebuilt in place?)"
            )
        for key in sorted(payload["entries"]):
            raw = payload["entries"][key]
            yield key, float(raw[0]), int(raw[1])

    def _write_shard(self, path: Path, i: int, entries: dict[str, tuple[float, int]]) -> dict:
        name = self._shard_file_name(i)
        _write_gzip_json(
            path / name,
            {
                "version": self.format_version,
                "shard": i,
                "entries": {key: [fpr, cov] for key, (fpr, cov) in entries.items()},
            },
        )
        return {"file": name, "entries": len(entries)}


# -- v3: mmap-able binary shard directory -------------------------------------

_V3_MAGIC = b"AVI3"
_V3_HEADER = struct.Struct("<4sHHIII")  # magic, version, flags, shard, n, blob
_V3_OFFSET = struct.Struct("<I")
_V3_OFFSET_PAIR = struct.Struct("<II")
_V3_RECORD = struct.Struct("<dQ")       # fpr_sum f64, coverage u64
_V3_FOOTER = struct.Struct("<I4s")      # crc32 of preceding bytes, end magic


def _v3_shard_bytes(shard_id: int, entries: dict[str, tuple[float, int]]) -> bytes:
    """Serialize one shard: deterministic (sorted keys, no timestamps)."""
    encoded = sorted(
        (key.encode("utf-8", "surrogatepass"), key) for key in entries
    )
    blob = b"".join(raw for raw, _ in encoded)
    if len(blob) >= 2**32:
        raise ValueError(f"shard {shard_id} key blob exceeds the u32 offset space")
    buffer = bytearray()
    buffer += _V3_HEADER.pack(_V3_MAGIC, 3, 0, shard_id, len(encoded), len(blob))
    offset = 0
    for raw, _ in encoded:
        buffer += _V3_OFFSET.pack(offset)
        offset += len(raw)
    buffer += _V3_OFFSET.pack(offset)
    buffer += blob
    for _, key in encoded:
        fpr_sum, coverage = entries[key]
        buffer += _V3_RECORD.pack(fpr_sum, coverage)
    buffer += _V3_FOOTER.pack(zlib.crc32(bytes(buffer)), _V3_MAGIC)
    return bytes(buffer)


# -- run-spill files and streaming shard writes (the offline build path) -------

#: Header flag marking a v3-layout file as a *run-spill* file: a sorted
#: partial aggregate spilled by the streaming builder, with 32-byte
#: extended-precision records instead of the serving format's 16-byte ones.
V3_RUN_FLAG = 0x1

#: Run record: fpr_fixed u192 (lo, mid, hi u64) + coverage u64.  The fixed-
#: point fpr partial (2**-105 units, see ``repro.index.builder``) is kept
#: exact across spills so the k-way run merge is partition-independent and
#: the final index is byte-identical to a serial build.
_V3_RUN_RECORD = struct.Struct("<QQQQ")
_MASK64 = (1 << 64) - 1

#: One streamed run entry: ``(pattern key, fpr_fixed, coverage)``.
RunEntry = tuple[str, int, int]


def write_run_file(
    path: str | Path, run_id: int, fpr_fixed: dict[str, int], coverages: dict[str, int]
) -> int:
    """Spill one sorted partial run (v3 shard layout, ``V3_RUN_FLAG`` set).

    Keys are sorted bytewise like a serving shard; records carry the exact
    fixed-point fpr partial.  Returns the number of entries written.
    """
    encoded = sorted((key.encode("utf-8", "surrogatepass"), key) for key in fpr_fixed)
    blob = b"".join(raw for raw, _ in encoded)
    if len(blob) >= 2**32:
        raise ValueError(f"run {run_id} key blob exceeds the u32 offset space")
    buffer = bytearray()
    buffer += _V3_HEADER.pack(
        _V3_MAGIC, 3, V3_RUN_FLAG, run_id & 0xFFFFFFFF, len(encoded), len(blob)
    )
    offset = 0
    for raw, _ in encoded:
        buffer += _V3_OFFSET.pack(offset)
        offset += len(raw)
    buffer += _V3_OFFSET.pack(offset)
    buffer += blob
    for _, key in encoded:
        fixed = fpr_fixed[key]
        if fixed >> 192:
            raise ValueError(f"fpr accumulator overflow for pattern {key!r}")
        buffer += _V3_RUN_RECORD.pack(
            fixed & _MASK64, (fixed >> 64) & _MASK64, fixed >> 128, coverages[key]
        )
    buffer += _V3_FOOTER.pack(zlib.crc32(bytes(buffer)), _V3_MAGIC)
    publish_bytes(Path(path), bytes(buffer))
    return len(encoded)


def iter_run_file(path: str | Path) -> Iterator[RunEntry]:
    """Stream a run-spill file in key order, O(1) resident (mmap-backed)."""
    path = Path(path)
    with open(path, "rb") as handle:
        size = os.fstat(handle.fileno()).st_size
        if size < _V3_HEADER.size + _V3_FOOTER.size:
            # Checked before the mmap so a zero-byte or sub-header file
            # raises this, not "cannot mmap an empty file" / struct.error.
            raise ValueError(
                f"run file {path} is {size} bytes — shorter than a v3 run "
                "header (torn spill?)"
            )
        with mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ) as mm:
            magic, version, flags, _run_id, n_entries, blob_size = _V3_HEADER.unpack_from(
                mm, 0
            )
            if magic != _V3_MAGIC or version != 3 or not flags & V3_RUN_FLAG:
                raise ValueError(f"{path} is not a v3 run-spill file")
            offsets_at = _V3_HEADER.size
            keys_at = offsets_at + _V3_OFFSET.size * (n_entries + 1)
            records_at = keys_at + blob_size
            expected = records_at + _V3_RUN_RECORD.size * n_entries + _V3_FOOTER.size
            if size != expected:
                raise ValueError(
                    f"run file {path} is {size} bytes, header promises {expected} "
                    "(torn spill?)"
                )
            for i in range(n_entries):
                start, end = _V3_OFFSET_PAIR.unpack_from(
                    mm, offsets_at + _V3_OFFSET.size * i
                )
                key = mm[keys_at + start : keys_at + end].decode(
                    "utf-8", "surrogatepass"
                )
                lo, mid, hi, coverage = _V3_RUN_RECORD.unpack_from(
                    mm, records_at + _V3_RUN_RECORD.size * i
                )
                yield key, lo | (mid << 64) | (hi << 128), coverage


def verify_run_payload(data: bytes) -> tuple[int, int]:
    """Structurally verify one run file held in memory, before trusting it.

    Run files are a *wire-interchange* format in the distributed build
    (workers ship them to the coordinator over HTTP), so a downloaded body
    must be proven whole before it is merged: a torn TCP stream, a proxy
    truncation, or a worker dying mid-write must surface here, not as a
    corrupt final index.  Checks, in order: the v3 run header (magic,
    version, ``V3_RUN_FLAG``), the exact size the header promises, and the
    CRC-32 footer over every preceding byte.  Returns
    ``(n_entries, crc32)`` where ``crc32`` covers the *whole* payload
    (footer included) — the transfer-level checksum workers advertise in
    :class:`~repro.api.wire.ScanResponse`.  Raises :class:`ValueError`
    with a diagnosable message on any mismatch.
    """
    if len(data) < _V3_HEADER.size + _V3_FOOTER.size:
        raise ValueError(
            f"run payload is {len(data)} bytes — shorter than a v3 run header"
        )
    magic, version, flags, _run_id, n_entries, blob_size = _V3_HEADER.unpack_from(
        data, 0
    )
    if magic != _V3_MAGIC or version != 3 or not flags & V3_RUN_FLAG:
        raise ValueError("run payload is not a v3 run-spill file")
    records_at = (
        _V3_HEADER.size + _V3_OFFSET.size * (n_entries + 1) + blob_size
    )
    expected = records_at + _V3_RUN_RECORD.size * n_entries + _V3_FOOTER.size
    if len(data) != expected:
        raise ValueError(
            f"run payload is {len(data)} bytes, header promises {expected} "
            "(torn transfer?)"
        )
    stored_crc, end_magic = _V3_FOOTER.unpack_from(data, expected - _V3_FOOTER.size)
    if end_magic != _V3_MAGIC:
        raise ValueError("run payload end magic mismatch (torn transfer?)")
    if zlib.crc32(data[: expected - _V3_FOOTER.size]) != stored_crc:
        raise ValueError("run payload CRC-32 mismatch (corrupt transfer)")
    return n_entries, zlib.crc32(data)


class _Crc32Writer:
    """Tracks the running CRC-32 of everything written (footer support)."""

    __slots__ = ("_handle", "crc")

    def __init__(self, handle: IO[bytes]) -> None:
        self._handle = handle
        self.crc = 0

    def write(self, data: bytes) -> None:
        self.crc = zlib.crc32(data, self.crc)
        self._handle.write(data)


def _stream_v3_container(
    path: Path,
    shard_id: int,
    flags: int,
    source: Callable[[], Iterable[tuple]],
    n_entries: int,
    key_blob_size: int,
    record_for: Callable[[tuple], bytes],
) -> int:
    """Write one v3-layout file from a sorted re-iterable stream, O(1)
    resident.  ``source()`` must return a fresh iterator of tuples whose
    first element is the key bytes, in bytewise key order, each time it is
    called; it is walked three times (offset table, key blob, records —
    ``record_for`` packs the record section).  Returns the CRC-32.
    """
    if key_blob_size >= 2**32:
        raise ValueError(f"shard {shard_id} key blob exceeds the u32 offset space")
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb", buffering=1 << 18) as handle:
            writer = _Crc32Writer(handle)
            writer.write(
                _V3_HEADER.pack(_V3_MAGIC, 3, flags, shard_id, n_entries, key_blob_size)
            )
            offset = 0
            seen = 0
            for entry in source():
                writer.write(_V3_OFFSET.pack(offset))
                offset += len(entry[0])
                seen += 1
            if seen != n_entries or offset != key_blob_size:
                raise ValueError(
                    f"shard {shard_id} source yielded {seen} entries / {offset} key "
                    f"bytes, caller promised {n_entries} / {key_blob_size}"
                )
            writer.write(_V3_OFFSET.pack(offset))
            for entry in source():
                writer.write(entry[0])
            for entry in source():
                writer.write(record_for(entry))
            handle.write(_V3_FOOTER.pack(writer.crc, _V3_MAGIC))
            fsync_file(handle)
        durable_replace(tmp, path)
    except OSError as exc:
        try:
            tmp.unlink()
        except OSError:
            pass
        if is_no_space(exc):
            raise DurabilityError(
                exc.errno, f"out of disk space writing {path.name}"
            ) from exc
        raise
    except BaseException:
        try:
            tmp.unlink()
        except OSError:
            pass
        raise
    return writer.crc


def write_v3_shard_streaming(
    path: str | Path,
    shard_id: int,
    source: Callable[[], Iterable[tuple[bytes, float, int]]],
    n_entries: int,
    key_blob_size: int,
) -> int:
    """Write one serving-format v3 shard from a sorted stream, O(1) resident.

    ``source()`` yields ``(key_bytes, fpr_sum, coverage)``; the output is
    byte-identical to :func:`_v3_shard_bytes` over the same entries.
    Returns the shard's CRC-32 (the manifest row value).
    """
    return _stream_v3_container(
        Path(path), shard_id, 0, source, n_entries, key_blob_size,
        lambda entry: _V3_RECORD.pack(entry[1], entry[2]),
    )


def _pack_run_record(entry: tuple) -> bytes:
    _, fixed, coverage = entry
    if fixed >> 192:
        raise ValueError("fpr accumulator overflow")
    return _V3_RUN_RECORD.pack(
        fixed & _MASK64, (fixed >> 64) & _MASK64, fixed >> 128, coverage
    )


def write_run_file_streaming(
    path: str | Path,
    run_id: int,
    source: Callable[[], Iterable[tuple[bytes, int, int]]],
    n_entries: int,
    key_blob_size: int,
) -> int:
    """Write one run-spill file from a sorted stream (the consolidation
    step of the cascaded run merge).  ``source()`` yields ``(key_bytes,
    fpr_fixed, coverage)``; layout and exactness match
    :func:`write_run_file`.  Returns the CRC-32.
    """
    return _stream_v3_container(
        Path(path), run_id & 0xFFFFFFFF, V3_RUN_FLAG, source,
        n_entries, key_blob_size, _pack_run_record,
    )


class _V3ShardReader:
    """One mmapped binary shard: validated structurally at map time (no
    data-section reads), binary-searched per lookup."""

    __slots__ = (
        "path", "n_entries", "_file", "_mm", "_size",
        "_offsets_at", "_keys_at", "_records_at",
    )

    def __init__(self, path: Path, shard_id: int, expected_entries: int) -> None:
        self.path = path
        try:
            self._file = open(path, "rb")
        except OSError as exc:
            raise StaleIndexError(
                f"shard file {path} unreadable (index rebuilt in place?): {exc}"
            ) from exc
        try:
            self._size = os.fstat(self._file.fileno()).st_size
            if self._size < _V3_HEADER.size + _V3_FOOTER.size:
                raise StaleIndexError(
                    f"shard file {path} truncated below the v3 header "
                    "(index rebuilt in place?)"
                )
            self._mm = mmap.mmap(self._file.fileno(), 0, access=mmap.ACCESS_READ)
        except StaleIndexError:
            self._file.close()
            raise
        except (OSError, ValueError) as exc:
            self._file.close()
            raise StaleIndexError(
                f"shard file {path} unmappable (index rebuilt in place?): {exc}"
            ) from exc
        magic, version, _flags, found_shard, n_entries, blob_size = _V3_HEADER.unpack_from(
            self._mm, 0
        )
        if magic != _V3_MAGIC or version != 3:
            # A torn rewrite (e.g. racing a v2 re-save) leaves arbitrary
            # leading bytes; treat it as the rebuild race it is.
            self._close()
            raise StaleIndexError(
                f"shard file {path} carries no v3 header (index rebuilt in place?)"
            )
        if found_shard != shard_id:
            self._close()
            raise ValueError(f"corrupt shard file: {path} claims shard {found_shard}")
        if n_entries != expected_entries:
            self._close()
            raise StaleIndexError(
                f"shard file {path} has {n_entries} entries, manifest recorded "
                f"{expected_entries} (index rebuilt in place?)"
            )
        self.n_entries = n_entries
        self._offsets_at = _V3_HEADER.size
        self._keys_at = self._offsets_at + _V3_OFFSET.size * (n_entries + 1)
        self._records_at = self._keys_at + blob_size
        expected_size = self._records_at + _V3_RECORD.size * n_entries + _V3_FOOTER.size
        if self._size != expected_size:
            self._close()
            raise StaleIndexError(
                f"shard file {path} is {self._size} bytes, header promises "
                f"{expected_size} (index rebuilt in place?)"
            )
        if self._mm[self._size - 4:] != _V3_MAGIC:
            self._close()
            raise StaleIndexError(
                f"shard file {path} misses its end marker (torn write?)"
            )

    def _close(self) -> None:
        if getattr(self, "_mm", None) is not None:
            self._mm.close()
        self._file.close()

    def get(self, key: str) -> IndexEntry | None:
        """Binary search over the sorted key table; O(log n) page touches."""
        target = key.encode("utf-8", "surrogatepass")
        lo, hi = 0, self.n_entries
        while lo < hi:
            mid = (lo + hi) // 2
            start, end = _V3_OFFSET_PAIR.unpack_from(
                self._mm, self._offsets_at + _V3_OFFSET.size * mid
            )
            candidate = self._mm[self._keys_at + start : self._keys_at + end]
            if candidate == target:
                fpr_sum, coverage = _V3_RECORD.unpack_from(
                    self._mm, self._records_at + _V3_RECORD.size * mid
                )
                return IndexEntry(fpr_sum=fpr_sum, coverage=coverage)
            if candidate < target:
                lo = mid + 1
            else:
                hi = mid
        return None

    def iter_records(self) -> Iterator[Entry]:
        """Stream every entry in key-byte order (sequential page touches)."""
        for i in range(self.n_entries):
            start, end = _V3_OFFSET_PAIR.unpack_from(
                self._mm, self._offsets_at + _V3_OFFSET.size * i
            )
            key = self._mm[self._keys_at + start : self._keys_at + end].decode(
                "utf-8", "surrogatepass"
            )
            fpr_sum, coverage = _V3_RECORD.unpack_from(
                self._mm, self._records_at + _V3_RECORD.size * i
            )
            yield key, fpr_sum, coverage

    def verify_crc(self) -> None:
        """Full-file CRC check — deliberately *not* run at map time (it
        would read every page and defeat the mmap cold start); callers run
        it when they materialize or audit a shard."""
        stored, _ = _V3_FOOTER.unpack_from(self._mm, self._size - _V3_FOOTER.size)
        actual = zlib.crc32(self._mm[: self._size - _V3_FOOTER.size])
        if actual != stored:
            raise StaleIndexError(
                f"shard file {self.path} fails its CRC "
                f"(stored {stored:#010x}, computed {actual:#010x}; torn write?)"
            )


class MmapShardedPatternIndex(PatternIndex):
    """A format-v3 index served straight out of mmapped shard files.

    A key lookup hashes to its shard, maps that file on first touch
    (structural header validation only — no data pages are read) and
    binary-searches the sorted key table; nothing is materialized into
    Python dicts until a whole-index operation (``items``/``stats``/
    ``merge``/``save*``) forces everything in, CRC-checked per shard.
    """

    def __init__(self, directory: Path, manifest: dict) -> None:
        super().__init__({}, IndexMeta(**dict(manifest["meta"])))
        self._directory = directory
        self._n_shards: int = int(manifest["n_shards"])
        self._shard_files: list[str] = [s["file"] for s in manifest["shards"]]
        self._shard_entry_counts: list[int] = [
            int(s["entries"]) for s in manifest["shards"]
        ]
        self._total_entries: int = int(manifest["total_entries"])
        self._readers: list[_V3ShardReader | None] = [None] * self._n_shards
        self._materialized = False
        self._digest_cache = index_digest(directory)
        self._prefetch_thread: threading.Thread | None = None
        self._prefetched_shards = 0

    @classmethod
    def _load(cls, directory: Path, manifest: dict, lazy: bool) -> "MmapShardedPatternIndex":
        if manifest.get("version") != _BINARY_FORMAT_VERSION:
            raise ValueError(f"unsupported index format: {manifest.get('version')!r}")
        if len(manifest["shards"]) != manifest["n_shards"]:
            raise ValueError("corrupt manifest: shard list does not match n_shards")
        index = cls(directory, manifest)
        if not lazy:
            index._ensure_all()
        return index

    @property
    def source_path(self) -> Path:
        """The v3 directory backing this index (spawn-safe handle: worker
        processes re-open the path instead of pickling mmap state)."""
        return self._directory

    @property
    def storage_format(self) -> str:
        return "v3"

    @property
    def mapped_shard_count(self) -> int:
        """How many shard files are currently mmapped (observability)."""
        return sum(reader is not None for reader in self._readers)

    @property
    def prefetched_shard_count(self) -> int:
        """Shard files the background prefetcher has finished warming."""
        return self._prefetched_shards

    @property
    def prefetch_pending(self) -> bool:
        """Whether a :meth:`start_prefetch` warm-up is still running.

        Readiness probes (``/healthz``) answer 503 while this is true so
        fleet load balancers don't route traffic to a replica still
        faulting cold pages.  ``False`` both before any prefetch was
        requested (the caller opted into cold serving) and after the
        warmer finishes.
        """
        thread = self._prefetch_thread
        return thread is not None and thread.is_alive()

    def start_prefetch(self) -> threading.Thread:
        """Warm the OS page cache behind the shard files (opt-in, async).

        A daemon thread walks every shard file with plain buffered reads —
        the offset tables, key blobs and records all pass through the page
        cache, so later mmap binary searches fault onto warm pages.  It
        never touches the reader/mmap state lookups use, so the first
        lookup is served immediately, concurrently with the warm-up; a
        second call returns the already-running thread.  Best-effort: I/O
        errors are left for the foreground path to report.
        """
        if self._prefetch_thread is None:
            thread = threading.Thread(
                target=self._prefetch_all,
                name=f"avi3-prefetch-{self._directory.name}",
                daemon=True,
            )
            self._prefetch_thread = thread
            thread.start()
        return self._prefetch_thread

    def _prefetch_all(self) -> None:
        for name in self._shard_files:
            try:
                with open(self._directory / name, "rb") as handle:
                    while handle.read(1 << 20):
                        pass
            except OSError:
                # Racing a rebuild: lookups raise StaleIndexError anyway.
                # Not counted — prefetched_shard_count only reports shards
                # actually read through the page cache.
                continue
            self._prefetched_shards += 1

    def content_digest(self) -> str:
        return self._digest_cache

    def lookup_key(self, key: str) -> IndexEntry | None:
        if self._materialized:
            return self._entries.get(key)
        return self._reader(shard_of(key, self._n_shards)).get(key)

    def __len__(self) -> int:
        return self._total_entries

    def _reader(self, i: int) -> _V3ShardReader:
        reader = self._readers[i]
        if reader is None:
            reader = _V3ShardReader(
                self._directory / self._shard_files[i], i, self._shard_entry_counts[i]
            )
            self._readers[i] = reader
        return reader

    def _ensure_all(self) -> None:
        if self._materialized:
            return
        for i in range(self._n_shards):
            reader = self._reader(i)
            reader.verify_crc()
            for key, fpr_sum, coverage in reader.iter_records():
                self._entries[key] = IndexEntry(fpr_sum=fpr_sum, coverage=coverage)
        self._materialized = True
        # Lookups now come from the dict; holding n_shards open fds and
        # mappings for the index's lifetime would just leak address space.
        for i, reader in enumerate(self._readers):
            if reader is not None:
                reader._close()
            self._readers[i] = None


class V3BinaryStore(_DirectoryStoreBase):
    """Fixed-width binary shards, mmapped and binary-searched per lookup."""

    name = "v3"
    format_version = _BINARY_FORMAT_VERSION

    def open(self, path: str | Path, lazy: bool = True) -> PatternIndex:
        path = Path(path)
        # Same orphan sweep as v2: a crashed save leaves only *.tmp files.
        cleanup_orphans(path)
        manifest = self._read_manifest(path)
        return MmapShardedPatternIndex._load(path, manifest, lazy=lazy)

    def _shard_file_name(self, i: int) -> str:
        return f"shard-{i:04d}.bin"

    def _iter_shard(self, path: Path, manifest: dict, i: int) -> Iterator[Entry]:
        reader = _V3ShardReader(
            path / manifest["shards"][i]["file"],
            i,
            int(manifest["shards"][i]["entries"]),
        )
        try:
            reader.verify_crc()
            yield from reader.iter_records()
        finally:
            reader._close()

    def _write_shard(self, path: Path, i: int, entries: dict[str, tuple[float, int]]) -> dict:
        name = self._shard_file_name(i)
        payload = _v3_shard_bytes(i, entries)
        publish_bytes(path / name, payload)
        crc, _ = _V3_FOOTER.unpack_from(payload, len(payload) - _V3_FOOTER.size)
        return {"file": name, "entries": len(entries), "crc32": crc}


register_store(V1MonolithicStore())
register_store(V2ShardedStore())
register_store(V3BinaryStore())
