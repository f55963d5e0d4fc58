"""Offline index construction: one streaming pass over the corpus.

For each column ``D`` the builder enumerates the retained pattern space
``P(D)`` (Algorithm 1, bounded by τ and the coverage threshold) and folds
each pattern's local impurity ``Imp_D(p)`` into the global aggregates of
Definition 3.  The whole scan is a pure aggregation, so large corpora can
be split across workers and the partials combined — the same shape as the
paper's SCOPE map-reduce deployment.  There is one reference and one
pipeline:

* :func:`build_index` — the in-memory reference: scan every column into
  one :class:`IndexBuilder` and freeze it.  The property suite and the
  benchmarks compare every on-disk build against
  ``save_index(build_index(columns), ...)`` byte for byte.
* :func:`build_index_streaming` — the way an index reaches disk from
  columns (``auto-validate index`` always runs it): columns are scanned
  in-process or streamed through a spawn-safe pool in size-balanced
  windows, each scanner bounds its resident aggregate by **spilling
  sorted runs** (v3-layout files, see ``repro.index.store``) past a byte
  watermark, and the parent k-way heap-merges all runs straight into the
  final sharded index — the full pattern dict is never materialized
  anywhere.  The distributed build (``repro.dist``) is the same pipeline
  with remote scanners: it shares :class:`SpillingIndexBuilder` and
  :func:`merge_runs_to_index`.

Byte identity between the two is guaranteed by exact aggregation: the
per-column impurities are doubles that are always integer multiples of
``2**-105`` (they are computed as ``1.0 - match/n`` from a quotient in
``[0, 1]``, so the result is either a Sterbenz-exact difference or a
double in ``(0.5, 1]`` — both have at most 105 fractional bits).  The
builders therefore accumulate them as fixed-point integers, which makes
the sum independent of column order *and* of how columns were chunked
across workers or spilled across runs; the single rounding back to a
double happens once, when an entry is finalized.
"""

from __future__ import annotations

import concurrent.futures
import heapq
import multiprocessing
import struct
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro.core.enumeration import (
    EnumerationConfig,
    GroupResultCache,
    enumerate_column_patterns,
)
from repro.index.index import (
    MAX_SHARDS,
    IndexEntry,
    IndexMeta,
    PatternIndex,
    shard_of,
)
from repro.util import weighted_chunks

#: Fixed-point scale of the exact impurity accumulators (see module doc).
FPR_FIXED_BITS = 105
_FPR_ONE = 1 << FPR_FIXED_BITS

#: Approximate resident bytes one accumulator entry costs (dict slots for
#: two tables + key string + ints); the spill watermark is tracked against
#: this, so it is a *model* of residency, cross-checked by tracemalloc in
#: the test suite rather than claimed exact.
ENTRY_OVERHEAD_BYTES = 180

#: Default spill watermark for the streaming builder (per worker).
DEFAULT_SPILL_MB = 64.0

#: Most run files the k-way merge holds open at once — every active run
#: stream costs one file descriptor plus one mmap, and lake-scale builds
#: can spill thousands of runs (at least one per worker chunk).  Larger
#: sets consolidate in bounded batches first (exactness makes the extra
#: merge level free: fixed-point partials add associatively).
MERGE_FAN_IN = 64

#: Columns the parallel scan materializes per window (the parent never
#: holds more than this many columns, however large the corpus).
WINDOW_COLUMNS = 512


def impurity_to_fixed(impurity: float) -> int:
    """Exact fixed-point (2**-105 units) representation of an impurity."""
    num, den = impurity.as_integer_ratio()
    scaled, remainder = divmod(num << FPR_FIXED_BITS, den)
    if remainder:
        raise ValueError(
            f"impurity {impurity!r} is not a multiple of 2**-{FPR_FIXED_BITS}"
        )
    return scaled


def fixed_to_fpr_sum(fixed: int) -> float:
    """The correctly-rounded double for an exact fixed-point aggregate."""
    return fixed / _FPR_ONE


class IndexBuilder:
    """Accumulates per-pattern statistics column by column.

    Each builder owns a signature-sketch cache
    (:class:`repro.core.enumeration.GroupResultCache`): lakes repeat column
    shapes heavily, and columns sharing a (signature, distinct-multiset,
    threshold) group replay the already-enumerated drill-down instead of
    re-deriving it.  Enumeration is deterministic in exactly the cache-key
    inputs, so hits cannot change the built index.
    """

    def __init__(
        self,
        config: EnumerationConfig | None = None,
        corpus_name: str = "",
    ):
        self.config = config or EnumerationConfig()
        self.corpus_name = corpus_name
        self._fpr_fixed: dict[str, int] = {}
        self._coverages: dict[str, int] = {}
        self._columns_scanned = 0
        self._values_scanned = 0
        self._group_cache = GroupResultCache()
        self._resident_bytes = 0
        #: Peak modelled accumulator footprint observed (across spills).
        self.peak_resident_bytes = 0

    @property
    def sketch_hits(self) -> int:
        """Signature-sketch cache hits (groups replayed, not re-enumerated)."""
        return self._group_cache.hits

    @property
    def sketch_misses(self) -> int:
        """Signature-sketch cache misses (groups enumerated from scratch)."""
        return self._group_cache.misses

    def add_column(self, values: Sequence[str]) -> int:
        """Scan one data column; returns the number of patterns retained."""
        n = len(values)
        if n == 0:
            return 0
        stats = enumerate_column_patterns(
            values, self.config, group_cache=self._group_cache
        )
        fpr_fixed = self._fpr_fixed
        coverages = self._coverages
        resident = self._resident_bytes
        for ps in stats:
            key = ps.pattern.key()
            existing = fpr_fixed.get(key)
            if existing is None:
                fpr_fixed[key] = impurity_to_fixed(ps.impurity(n))
                coverages[key] = 1
                resident += ENTRY_OVERHEAD_BYTES + len(key)
            else:
                fpr_fixed[key] = existing + impurity_to_fixed(ps.impurity(n))
                coverages[key] += 1
        self._resident_bytes = resident
        self._columns_scanned += 1
        self._values_scanned += n
        if resident > self.peak_resident_bytes:
            self.peak_resident_bytes = resident
        return len(stats)

    def add_columns(self, columns: Iterable[Sequence[str]]) -> None:
        """Scan many columns (any iterable of value sequences)."""
        for values in columns:
            self.add_column(values)

    @property
    def columns_scanned(self) -> int:
        return self._columns_scanned

    @property
    def values_scanned(self) -> int:
        return self._values_scanned

    def _meta(self) -> IndexMeta:
        return IndexMeta(
            columns_scanned=self._columns_scanned,
            values_scanned=self._values_scanned,
            tau=self.config.tau,
            min_coverage=self.config.min_coverage,
            corpus_name=self.corpus_name,
            fingerprint=self.config.fingerprint(),
        )

    def build(self) -> PatternIndex:
        """Freeze the aggregates into a queryable :class:`PatternIndex`."""
        entries = {
            key: IndexEntry(
                fpr_sum=fixed_to_fpr_sum(fixed), coverage=self._coverages[key]
            )
            for key, fixed in self._fpr_fixed.items()
        }
        return PatternIndex(entries, self._meta())


class SpillingIndexBuilder(IndexBuilder):
    """An :class:`IndexBuilder` whose resident aggregate is bounded.

    Whenever the (modelled) byte footprint of the accumulator passes
    ``spill_bytes``, the current partial is written out as one sorted
    run-spill file (:func:`repro.index.store.write_run_file`) and the
    accumulator is cleared — peak residency is the watermark plus at most
    one column's worth of new entries.  Runs carry exact fixed-point
    partials, so merging them reproduces the serial build bit for bit.
    """

    def __init__(
        self,
        config: EnumerationConfig | None = None,
        corpus_name: str = "",
        *,
        run_dir: str | Path,
        spill_bytes: int = int(DEFAULT_SPILL_MB * (1 << 20)),
        run_prefix: str = "run",
    ):
        super().__init__(config, corpus_name)
        if spill_bytes <= 0:
            raise ValueError("spill_bytes must be positive")
        self.run_dir = Path(run_dir)
        self.spill_bytes = spill_bytes
        self.run_prefix = run_prefix
        self._run_paths: list[Path] = []
        #: Largest run spilled, in entries.
        self.max_run_entries = 0

    def add_column(self, values: Sequence[str]) -> int:
        retained = super().add_column(values)
        if self._resident_bytes >= self.spill_bytes:
            self.spill()
        return retained

    def spill(self) -> Path | None:
        """Write the current partial as a sorted run and clear it."""
        from repro.index.store import write_run_file

        if not self._fpr_fixed:
            return None
        path = self.run_dir / f"{self.run_prefix}-{len(self._run_paths):06d}.run"
        entries = write_run_file(
            path, len(self._run_paths), self._fpr_fixed, self._coverages
        )
        self.max_run_entries = max(self.max_run_entries, entries)
        self._fpr_fixed = {}
        self._coverages = {}
        self._resident_bytes = 0
        self._run_paths.append(path)
        return path

    def finish(self) -> list[Path]:
        """Spill whatever remains; returns every run written, in order."""
        self.spill()
        return list(self._run_paths)

    def build(self) -> PatternIndex:
        raise TypeError(
            "SpillingIndexBuilder streams to run files; call finish() and "
            "merge the runs (build_index_streaming does both)"
        )


def build_index(
    columns: Iterable[Sequence[str]],
    config: EnumerationConfig | None = None,
    corpus_name: str = "",
) -> PatternIndex:
    """One-shot convenience: scan ``columns`` and build the index."""
    builder = IndexBuilder(config=config, corpus_name=corpus_name)
    builder.add_columns(columns)
    return builder.build()


# -- the streaming bounded-memory pipeline -------------------------------------


@dataclass(frozen=True)
class BuildStats:
    """What a streaming build scanned, spilled and kept resident."""

    out: str
    format: str
    n_shards: int
    columns_scanned: int
    values_scanned: int
    total_entries: int
    #: Sorted run-spill files merged into the final index.
    n_runs: int
    #: The configured per-worker spill watermark, in bytes.
    spill_bytes: int
    #: Peak modelled accumulator footprint across all workers, in bytes —
    #: bounded by ``spill_bytes`` plus one column's worth of entries.
    peak_builder_bytes: int
    #: Largest single run, in entries (what the k-way merge streams from).
    max_run_entries: int
    #: Entries materialized at once while writing final shards (0 for v3,
    #: whose shards are written streaming; largest shard for v2).
    max_resident_entries: int
    #: Signature-sketch cache traffic summed over all scan workers: groups
    #: replayed from the cross-column cache vs enumerated from scratch.
    sketch_hits: int = 0
    sketch_misses: int = 0


def _scan_chunk_to_runs(
    columns: Iterable[Sequence[str]],
    config: EnumerationConfig | None,
    corpus_name: str,
    run_dir: Path,
    spill_bytes: int,
    chunk_id: int,
) -> tuple[list[Path], int, int, int, int, int, int]:
    """Scan one chunk (a pool task, or the whole corpus in-process), spill
    runs, report what happened."""
    builder = SpillingIndexBuilder(
        config,
        corpus_name,
        run_dir=run_dir,
        spill_bytes=spill_bytes,
        run_prefix=f"run-{chunk_id:06d}",
    )
    builder.add_columns(columns)
    return (
        builder.finish(),
        builder.columns_scanned,
        builder.values_scanned,
        builder.peak_resident_bytes,
        builder.max_run_entries,
        builder.sketch_hits,
        builder.sketch_misses,
    )


def _merge_run_streams(streams: list[Iterator]) -> Iterator[tuple[str, int, int]]:
    """k-way heap merge of sorted run streams, aggregating equal keys.

    Exact: the fixed-point partials add as integers, so the result is
    independent of run count and boundaries.
    """
    current_key: str | None = None
    fixed_total = 0
    coverage_total = 0
    for key, fixed, coverage in heapq.merge(*streams, key=lambda entry: entry[0]):
        if key == current_key:
            fixed_total += fixed
            coverage_total += coverage
        else:
            if current_key is not None:
                yield current_key, fixed_total, coverage_total
            current_key, fixed_total, coverage_total = key, fixed, coverage
    if current_key is not None:
        yield current_key, fixed_total, coverage_total


#: Spool record framing: key length u32, fpr_sum f64, coverage u64 (+ key).
_SPOOL_HEADER = struct.Struct("<IdQ")

#: Run-consolidation spool framing: key length u32, fpr_fixed as three
#: u64 limbs, coverage u64 (+ key) — exact, no rounding mid-cascade.
_RUN_SPOOL_HEADER = struct.Struct("<IQQQQ")
_MASK64 = (1 << 64) - 1


def _consolidate_runs(batch: list[Path], out_path: Path) -> None:
    """Merge a batch of run files into one run file, O(1) resident.

    The merged stream lands in a sequential spool first (the streaming
    run writer needs a re-iterable sorted source), then the consolidated
    run is written in the same exact fixed-point representation — the
    cascade never rounds, so byte identity of the final index survives
    any number of consolidation levels.
    """
    from repro.index.store import iter_run_file, write_run_file_streaming

    spool_path = out_path.with_suffix(".spool")
    n_entries = 0
    blob_size = 0
    with open(spool_path, "wb", buffering=1 << 18) as spool:
        for key, fixed, coverage in _merge_run_streams(
            [iter_run_file(p) for p in batch]
        ):
            key_bytes = key.encode("utf-8", "surrogatepass")
            spool.write(
                _RUN_SPOOL_HEADER.pack(
                    len(key_bytes),
                    fixed & _MASK64,
                    (fixed >> 64) & _MASK64,
                    fixed >> 128,
                    coverage,
                )
            )
            spool.write(key_bytes)
            n_entries += 1
            blob_size += len(key_bytes)

    def source() -> Iterator[tuple[bytes, int, int]]:
        with open(spool_path, "rb", buffering=1 << 18) as handle:
            while True:
                header = handle.read(_RUN_SPOOL_HEADER.size)
                if not header:
                    return
                key_len, lo, mid, hi, coverage = _RUN_SPOOL_HEADER.unpack(header)
                yield handle.read(key_len), lo | (mid << 64) | (hi << 128), coverage

    write_run_file_streaming(out_path, 0, source, n_entries, blob_size)
    spool_path.unlink()


class _ShardSpool:
    """Append-only spill of one output shard's finalized entries.

    The global k-way merge emits entries in key order; the subsequence
    routed to each shard is therefore sorted too, so the spool can be
    replayed as the sorted source of a streaming shard write.  Appends are
    buffered and flushed to disk, keeping the parent's residency at a few
    hundred KB per shard regardless of shard size.
    """

    def __init__(self, path: Path, flush_bytes: int):
        self.path = path
        self.flush_bytes = flush_bytes
        self.entries = 0
        self.key_blob_size = 0
        self._buffer = bytearray()

    def append(self, key_bytes: bytes, fpr_sum: float, coverage: int) -> None:
        self._buffer += _SPOOL_HEADER.pack(len(key_bytes), fpr_sum, coverage)
        self._buffer += key_bytes
        self.entries += 1
        self.key_blob_size += len(key_bytes)
        if len(self._buffer) >= self.flush_bytes:
            self.flush()

    def flush(self) -> None:
        if self._buffer:
            with open(self.path, "ab") as handle:
                handle.write(self._buffer)
            self._buffer.clear()

    def __iter__(self) -> Iterator[tuple[bytes, float, int]]:
        if self.entries == 0:
            return
        with open(self.path, "rb", buffering=1 << 18) as handle:
            while True:
                header = handle.read(_SPOOL_HEADER.size)
                if not header:
                    return
                key_len, fpr_sum, coverage = _SPOOL_HEADER.unpack(header)
                yield handle.read(key_len), fpr_sum, coverage


def _merge_runs_to_store(
    run_paths: list[Path],
    meta: IndexMeta,
    out: Path,
    format: str,
    n_shards: int,
    scratch_dir: Path,
    spill_bytes: int = int(DEFAULT_SPILL_MB * (1 << 20)),
) -> tuple[int, int]:
    """Combine all runs into the final sharded index at ``out``.

    One k-way pass partitions the merged stream into per-shard spools
    (hash partitioning, same :func:`shard_of` as every save path); each
    final shard is then written from its sorted spool — streaming for v3,
    one shard dict at a time for v2.  Returns ``(total_entries,
    max_resident_entries)``.
    """
    from repro.index.store import get_store, iter_run_file, write_v3_shard_streaming

    store = get_store(format)
    out.mkdir(parents=True, exist_ok=True)
    # Bound the merge's fan-in: each active run stream holds an fd + mmap,
    # so oversized run sets cascade into consolidated runs first.
    runs = list(run_paths)
    consolidated = 0
    while len(runs) > MERGE_FAN_IN:
        batch, runs = runs[:MERGE_FAN_IN], runs[MERGE_FAN_IN:]
        merged_run = scratch_dir / f"consolidated-{consolidated:06d}.run"
        consolidated += 1
        _consolidate_runs(batch, merged_run)
        for p in batch:
            p.unlink()
        runs.append(merged_run)
    # Spool write buffers scale with the configured watermark: the merge
    # phase must not out-spend the scan phase's residency budget.
    flush_bytes = max(1 << 14, min(1 << 18, spill_bytes // max(1, n_shards)))
    spools = [
        _ShardSpool(scratch_dir / f"spool-{i:04d}", flush_bytes)
        for i in range(n_shards)
    ]
    total_entries = 0
    for key, fixed, coverage in _merge_run_streams(
        [iter_run_file(p) for p in runs]
    ):
        key_bytes = key.encode("utf-8", "surrogatepass")
        spools[shard_of(key, n_shards)].append(
            key_bytes, fixed_to_fpr_sum(fixed), coverage
        )
        total_entries += 1

    shard_rows: list[dict] = []
    max_resident = 0
    for i, spool in enumerate(spools):
        spool.flush()
        if format == "v3":
            name = store._shard_file_name(i)
            crc = write_v3_shard_streaming(
                out / name, i, spool.__iter__, spool.entries, spool.key_blob_size
            )
            shard_rows.append({"file": name, "entries": spool.entries, "crc32": crc})
        else:
            entries = {
                key_bytes.decode("utf-8", "surrogatepass"): (fpr_sum, coverage)
                for key_bytes, fpr_sum, coverage in spool
            }
            max_resident = max(max_resident, len(entries))
            shard_rows.append(store._write_shard(out, i, entries))
        if spool.entries:
            spool.path.unlink()
    store._commit(out, meta, shard_rows)
    return total_entries, max_resident


def consolidate_run_files(run_paths: Sequence[str | Path], out_path: str | Path) -> None:
    """Merge many run-spill files into one, exactly (public wrapper).

    The distributed scan worker uses this to ship one consolidated run per
    window instead of one HTTP fetch per spill.  The cascade is the same
    exact fixed-point merge the streaming build uses internally, so any
    consolidation topology leaves the final index byte-identical.  Inputs
    are left in place.
    """
    _consolidate_runs([Path(p) for p in run_paths], Path(out_path))


def merge_runs_to_index(
    run_paths: Sequence[str | Path],
    meta: IndexMeta,
    out: str | Path,
    *,
    format: str | None = None,
    n_shards: int = 16,
    spill_mb: float = DEFAULT_SPILL_MB,
) -> tuple[int, int]:
    """k-way merge run-spill files into a final sharded index (public).

    The serving half of a distributed build: the coordinator downloads one
    consolidated run per window and folds them all here.  Because every
    run carries exact 2**-105 fixed-point partials, the output at ``out``
    is byte-identical to a serial :func:`build_index` +
    ``save_index`` over the same columns, regardless of how the corpus was
    windowed across workers.  ``meta`` must carry the *summed* column and
    value counts.  Returns ``(total_entries, max_resident_entries)``.

    Note: when more than :data:`MERGE_FAN_IN` runs are given, consumed
    batches are deleted as they cascade into consolidated runs — pass
    scratch copies, not originals you need to keep.
    """
    from repro.index.store import default_format, get_store

    format = format if format is not None else default_format()
    get_store(format)
    if format not in ("v2", "v3"):
        raise ValueError(
            f"run merges write directory formats (v2/v3), not {format!r}"
        )
    if not 1 <= n_shards <= MAX_SHARDS:
        raise ValueError(f"n_shards must be in [1, {MAX_SHARDS}]")
    spill_bytes = int(spill_mb * (1 << 20))
    if spill_bytes <= 0:
        raise ValueError("spill_mb must be positive")
    out = Path(out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(
        prefix=".avmerge-", dir=str(out.parent)
    ) as scratch:
        return _merge_runs_to_store(
            [Path(p) for p in run_paths],
            meta,
            out,
            format,
            n_shards,
            Path(scratch),
            spill_bytes,
        )


def _scan_columns_parallel(
    columns: Iterable[Sequence[str]],
    config: EnumerationConfig | None,
    corpus_name: str,
    run_dir: Path,
    spill_bytes: int,
    workers: int,
) -> tuple[list[Path], int, int, int, int, int, int]:
    """Stream columns through a spawn pool in size-balanced windows.

    The parent materializes at most one window of columns; each window is
    LPT-packed into per-worker chunks by value count
    (:func:`repro.util.weighted_chunks`) and gathered before the next
    window is read, so producer speed can never buffer the whole corpus
    into the pool's queue.
    """
    context = multiprocessing.get_context("spawn")
    run_paths: list[Path] = []
    columns_scanned = values_scanned = 0
    peak_builder = max_run = 0
    sketch_hits = sketch_misses = 0
    chunk_id = 0
    with concurrent.futures.ProcessPoolExecutor(
        max_workers=workers, mp_context=context
    ) as pool:
        window: list[list[str]] = []

        def flush_window() -> None:
            nonlocal chunk_id, columns_scanned, values_scanned, peak_builder
            nonlocal max_run, sketch_hits, sketch_misses
            if not window:
                return
            bins = weighted_chunks([len(c) for c in window], workers)
            futures = []
            for chunk in bins:
                futures.append(
                    pool.submit(
                        _scan_chunk_to_runs,
                        [window[i] for i in chunk],
                        config,
                        corpus_name,
                        run_dir,
                        spill_bytes,
                        chunk_id,
                    )
                )
                chunk_id += 1
            window.clear()
            for future in futures:
                runs, cols, vals, peak, largest, hits, misses = future.result()
                run_paths.extend(runs)
                columns_scanned += cols
                values_scanned += vals
                peak_builder = max(peak_builder, peak)
                max_run = max(max_run, largest)
                sketch_hits += hits
                sketch_misses += misses

        for values in columns:
            window.append(list(values))
            if len(window) >= WINDOW_COLUMNS:
                flush_window()
        flush_window()
    return (
        sorted(run_paths),
        columns_scanned,
        values_scanned,
        peak_builder,
        max_run,
        sketch_hits,
        sketch_misses,
    )


def build_index_streaming(
    columns: Iterable[Sequence[str]],
    out: str | Path,
    config: EnumerationConfig | None = None,
    corpus_name: str = "",
    *,
    workers: int = 1,
    spill_mb: float = DEFAULT_SPILL_MB,
    format: str | None = None,
    n_shards: int = 16,
) -> BuildStats:
    """Build a sharded on-disk index in bounded memory, optionally parallel.

    The pipeline of the module doc: scan (spilling sorted runs past the
    ``spill_mb`` watermark; in-process for ``workers=1``, across
    ``workers`` spawn processes otherwise) then k-way merge the runs
    directly into the final index directory at ``out``.  The output is
    byte-identical to ``save_index(build_index(columns), out, ...)`` over
    the same columns — asserted by the property suite — while peak
    residency stays bounded by the watermark instead of the corpus's
    pattern space.

    ``format`` must be a directory layout (``v2``/``v3``; default:
    :func:`repro.index.store.default_format`); the legacy v1 file is
    read-only.
    """
    from repro.index.store import default_format, get_store

    if workers < 1:
        raise ValueError("workers must be >= 1")
    if not 1 <= n_shards <= MAX_SHARDS:
        raise ValueError(f"n_shards must be in [1, {MAX_SHARDS}]")
    spill_bytes = int(spill_mb * (1 << 20))
    if spill_bytes <= 0:
        raise ValueError("spill_mb must be positive")
    format = format if format is not None else default_format()
    get_store(format)  # fail early on unknown names
    if format not in ("v2", "v3"):
        raise ValueError(
            f"streaming build writes directory formats (v2/v3), not {format!r}"
        )
    config = config or EnumerationConfig()
    out = Path(out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(
        prefix=".avruns-", dir=str(out.parent)
    ) as scratch:
        scratch_dir = Path(scratch)
        if workers == 1:
            scanned = _scan_chunk_to_runs(
                columns, config, corpus_name, scratch_dir, spill_bytes, 0
            )
        else:
            scanned = _scan_columns_parallel(
                columns, config, corpus_name, scratch_dir, spill_bytes, workers
            )
        (
            run_paths,
            columns_scanned,
            values_scanned,
            peak_builder,
            max_run,
            sketch_hits,
            sketch_misses,
        ) = scanned
        meta = IndexMeta(
            columns_scanned=columns_scanned,
            values_scanned=values_scanned,
            tau=config.tau,
            min_coverage=config.min_coverage,
            corpus_name=corpus_name,
            fingerprint=config.fingerprint(),
        )
        total_entries, max_resident = _merge_runs_to_store(
            run_paths, meta, out, format, n_shards, scratch_dir, spill_bytes
        )
    return BuildStats(
        out=str(out),
        format=format,
        n_shards=n_shards,
        columns_scanned=columns_scanned,
        values_scanned=values_scanned,
        total_entries=total_entries,
        n_runs=len(run_paths),
        spill_bytes=spill_bytes,
        peak_builder_bytes=peak_builder,
        max_run_entries=max_run,
        max_resident_entries=max_resident,
        sketch_hits=sketch_hits,
        sketch_misses=sketch_misses,
    )
