"""Parallel batch-inference engine for the validation service.

Algorithm 1 is CPU-bound and per-column independent, so a cold batch is
embarrassingly parallel (the regime FlashProfile / Auto-Detect style
profilers also exploit).  :class:`ParallelExecutor` fans ``infer_many`` /
``validate_many`` chunks across worker processes and reassembles results in
input order, merging each worker's cache-statistics delta back into the
parent service so ``ServiceStats`` keeps describing the whole batch.

Spawn safety is a hard requirement: workers are started with the ``spawn``
method (no inherited interpreter state), and the task payload pickles only

* plain column values (lists of strings),
* the configuration dataclasses (enumeration knobs / fingerprints), and
* for in-memory indexes, the raw ``{key: (fpr_sum, coverage)}`` entry map.

Compiled regexes, open shard file handles and lazy shard state are never
pickled — disk-backed indexes travel as their *path* and every worker
re-opens them locally (each worker then lazily loads only the shards its
chunk touches).

Backend selection is automatic: small batches stay on the serial in-process
path (process startup would dominate), large ones go to the pool.  The
threshold and worker count are configurable per service and overridable via
the ``REPRO_WORKERS`` / ``REPRO_PARALLEL_BACKEND`` environment variables
(the CI matrix forces ``process`` so the pool path is exercised there).
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing
import os
import threading
import weakref
from dataclasses import asdict
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from repro.config import AutoValidateConfig
from repro.index.index import IndexEntry, IndexMeta, PatternIndex
from repro.index.store import open_index
from repro.service.cache import column_digest

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (service imports us)
    from repro.validate.fmdv import InferenceResult
    from repro.validate.rule import ValidationReport, ValidationRule

BACKENDS = ("auto", "serial", "process")

#: Default batch size at which the process pool starts paying for itself.
DEFAULT_MIN_BATCH_FOR_PARALLEL = 8


def default_workers() -> int:
    """Worker count when the caller does not choose one.

    ``REPRO_WORKERS`` wins when set (CI pins it); otherwise every core.
    """
    env = os.environ.get("REPRO_WORKERS", "")
    if env.strip():
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return os.cpu_count() or 1


def default_backend() -> str:
    """Backend when the caller does not choose one (env-overridable)."""
    env = os.environ.get("REPRO_PARALLEL_BACKEND", "").strip().lower()
    return env if env in BACKENDS else "auto"


def weighted_chunks(weights: Sequence[int], n_chunks: int) -> list[list[int]]:
    """Partition item indices into at most ``n_chunks`` load-balanced bins.

    Greedy LPT (longest-processing-time) scheduling: items sorted by weight
    descending go to the currently lightest bin.  Per-column inference cost
    scales with the column's value count, so contiguous equal-*count*
    chunks let one huge column straggle a worker while its siblings idle —
    the ROADMAP's skewed-batch problem.  Deterministic: ties break toward
    the lower item index / lower bin id; each bin's indices come back
    sorted ascending and no bin is empty.
    """
    n_items = len(weights)
    n_chunks = max(1, min(n_chunks, n_items))
    order = sorted(range(n_items), key=lambda i: (-weights[i], i))
    loads = [0] * n_chunks
    fill = [0] * n_chunks  # tie-break: spread equal-weight items round-robin
    bins: list[list[int]] = [[] for _ in range(n_chunks)]
    for i in order:
        target = min(range(n_chunks), key=lambda b: (loads[b], fill[b], b))
        bins[target].append(i)
        loads[target] += weights[i]
        fill[target] += 1
    for chunk in bins:
        chunk.sort()
    return [chunk for chunk in bins if chunk]


# -- worker-side state --------------------------------------------------------

#: The per-process service built by :func:`_init_worker`.  Workers are
#: single-threaded, so a bare module global is safe.
_WORKER_SERVICE = None


def _index_from_spec(spec: tuple) -> PatternIndex:
    kind = spec[0]
    if kind == "path":
        return open_index(spec[1])
    if kind == "entries":
        _, raw_entries, raw_meta = spec
        entries = {
            key: IndexEntry(fpr_sum=fpr_sum, coverage=coverage)
            for key, (fpr_sum, coverage) in raw_entries.items()
        }
        return PatternIndex(entries, IndexMeta(**raw_meta))
    raise ValueError(f"unknown index spec {kind!r}")


def index_spec_for(index: PatternIndex, index_path: str | Path | None = None) -> tuple:
    """A picklable description of ``index`` for worker initializers.

    Disk-backed indexes (any store format: lazy v2 shards, mmap v3
    binaries) expose ``source_path`` and ship as that path — workers
    re-open them through the store registry and lazily load/map only the
    shards their chunk touches.  In-memory indexes ship as their plain
    entry map.  Neither form carries compiled regexes, open file handles
    or mmap state.
    """
    source_path = getattr(index, "source_path", None)
    if source_path is not None:
        return ("path", str(source_path))
    if index_path is not None:
        return ("path", str(index_path))
    return (
        "entries",
        {key: (entry.fpr_sum, entry.coverage) for key, entry in index.items()},
        asdict(index.meta),
    )


def _init_worker(index_spec: tuple, config: AutoValidateConfig, variant: str) -> None:
    global _WORKER_SERVICE
    # Local import: repro.service.service imports this module at load time.
    from repro.service.service import ValidationService

    if index_spec[0] == "path":
        # from_path gives workers the same generation watching / stale-shard
        # retry behavior as the parent service.
        _WORKER_SERVICE = ValidationService.from_path(
            index_spec[1], config, variant=variant, workers=1
        )
    else:
        _WORKER_SERVICE = ValidationService(
            _index_from_spec(index_spec), config, variant=variant, workers=1
        )


def _infer_chunk(
    columns: list[list[str]], variant: str | None
) -> tuple[list["InferenceResult"], dict[str, int]]:
    """Worker task: infer a chunk serially, report the cache-stat delta."""
    service = _WORKER_SERVICE
    before = service.stats()
    results = [service.infer(values, variant) for values in columns]
    after = service.stats()
    delta = {
        "inferences": after.inferences - before.inferences,
        "result_cache_hits": after.result_cache_hits - before.result_cache_hits,
        "space_cache_hits": after.space_cache_hits - before.space_cache_hits,
        "space_cache_misses": after.space_cache_misses - before.space_cache_misses,
    }
    return results, delta


def _validate_chunk(
    rules: list["ValidationRule"], columns: list[list[str]]
) -> list["ValidationReport"]:
    """Worker task: validate an aligned chunk of (rule, column) pairs."""
    return [rule.validate(values) for rule, values in zip(rules, columns)]


# -- the executor -------------------------------------------------------------


class ParallelExecutor:
    """Owns the process pool of one :class:`ValidationService`.

    The pool is created lazily on the first batch large enough to
    parallelize and kept alive across batches (spawn startup is the
    dominant cost).  It is stamped with the service's cache *generation*:
    when the underlying index is rebuilt the next batch transparently
    recreates the pool so workers never serve a stale index.
    """

    def __init__(
        self,
        workers: int | None = None,
        min_batch_for_parallel: int | None = None,
        backend: str | None = None,
        mp_start_method: str = "spawn",
    ) -> None:
        self.workers = workers if workers is not None else default_workers()
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        self.min_batch_for_parallel = (
            min_batch_for_parallel
            if min_batch_for_parallel is not None
            else DEFAULT_MIN_BATCH_FOR_PARALLEL
        )
        if self.min_batch_for_parallel < 1:
            raise ValueError("min_batch_for_parallel must be >= 1")
        backend = backend if backend is not None else default_backend()
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; choose from {BACKENDS}")
        self.backend = backend
        self.mp_start_method = mp_start_method
        self._pool: concurrent.futures.ProcessPoolExecutor | None = None  # guarded-by: _lock
        self._pool_key: tuple | None = None  # guarded-by: _lock
        self._finalizer: weakref.finalize | None = None  # guarded-by: _lock
        # Guards pool creation/retirement: concurrent batches (the asyncio
        # front end fans them onto threads) must never cancel each other's
        # in-flight futures or leak a freshly spawned pool.
        self._lock = threading.Lock()
        #: Batches actually dispatched to the pool (observability).
        self.parallel_batches = 0

    # -- policy --------------------------------------------------------------

    def should_parallelize(self, batch_size: int) -> bool:
        """Auto-selection: processes only when the batch amortizes them."""
        if self.workers < 2 or batch_size < 2:
            return False
        if self.backend == "serial":
            return False
        if self.backend == "process":
            return True
        return batch_size >= self.min_batch_for_parallel

    # -- pool lifecycle ------------------------------------------------------

    def _ensure_pool(
        self, index_spec: tuple, config: AutoValidateConfig, variant: str, generation: str
    ) -> concurrent.futures.ProcessPoolExecutor:
        key = (generation, variant, config)
        with self._lock:
            if self._pool is not None and self._pool_key == key:
                return self._pool
            stale_pool, stale_finalizer = self._pool, self._finalizer
            context = multiprocessing.get_context(self.mp_start_method)
            self._pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=context,
                initializer=_init_worker,
                initargs=(index_spec, config, variant),
            )
            self._pool_key = key
            # GC safety net: a dropped service must not leak worker processes.
            self._finalizer = weakref.finalize(
                self, ParallelExecutor._shutdown_pool, self._pool
            )
            pool = self._pool
        # Retire the superseded pool outside the lock WITHOUT cancelling:
        # another thread's batch may still be draining on it; its workers
        # exit once those futures finish.
        if stale_finalizer is not None:
            stale_finalizer.detach()
        if stale_pool is not None:
            stale_pool.shutdown(wait=False, cancel_futures=False)
        return pool

    @staticmethod
    def _shutdown_pool(pool: concurrent.futures.ProcessPoolExecutor) -> None:
        pool.shutdown(wait=False, cancel_futures=True)

    def close(self) -> None:
        """Shut the pool down (idempotent); the next batch recreates it.

        Waits for in-flight work instead of cancelling it, so a concurrent
        batch on another thread completes rather than erroring.
        """
        with self._lock:
            finalizer, pool = self._finalizer, self._pool
            self._finalizer = None
            self._pool = None
            self._pool_key = None
        if finalizer is not None:
            finalizer.detach()
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=False)

    # -- batch execution -----------------------------------------------------

    def infer_many(
        self,
        columns: Sequence[Sequence[str]],
        variant: str | None,
        *,
        index_spec: tuple,
        config: AutoValidateConfig,
        default_variant: str,
        generation: str,
        digests: Sequence[str] | None = None,
    ) -> tuple[list["InferenceResult"], dict[str, int]]:
        """Fan a batch across the pool; results come back in input order.

        Returns ``(results, merged_stats_delta)``.  The batch is deduped by
        column digest *before* chunking — a repeated column is solved in
        exactly one worker, never once per chunk (workers do not share
        caches) — and the unique columns are packed into load-balanced
        chunks by total value count (:func:`weighted_chunks`), so a skewed
        batch with one huge column cannot straggle a single worker.
        Duplicates resolve from the unique result and are accounted as
        cache hits in the delta, matching what the serial path would do.
        ``digests`` lets callers that already hashed the batch (the service
        keys its result cache by the same digest) skip a redundant pass
        over every value; when given it must align with ``columns``.
        """
        pool = self._ensure_pool(index_spec, config, default_variant, generation)
        batch = [list(v) for v in columns]
        if digests is None:
            digests = [column_digest(values) for values in batch]
        elif len(digests) != len(batch):
            raise ValueError(f"{len(digests)} digests for {len(batch)} columns")
        first_position: dict[str, int] = {}
        unique_positions: list[int] = []
        for i, digest in enumerate(digests):
            if digest not in first_position:
                first_position[digest] = len(unique_positions)
                unique_positions.append(i)
        unique = [batch[i] for i in unique_positions]

        bins = weighted_chunks([len(values) for values in unique], self.workers)
        futures = [
            pool.submit(_infer_chunk, [unique[i] for i in chunk], variant)
            for chunk in bins
        ]
        unique_results: list["InferenceResult | None"] = [None] * len(unique)
        merged = {
            "inferences": 0,
            "result_cache_hits": 0,
            "space_cache_hits": 0,
            "space_cache_misses": 0,
        }
        for chunk, future in zip(bins, futures):
            chunk_results, delta = future.result()
            for i, result in zip(chunk, chunk_results):
                unique_results[i] = result
            for name, value in delta.items():
                merged[name] += value
        n_duplicates = len(batch) - len(unique)
        merged["inferences"] += n_duplicates
        merged["result_cache_hits"] += n_duplicates
        results = [unique_results[first_position[d]] for d in digests]
        with self._lock:
            self.parallel_batches += 1
        return results, merged  # type: ignore[return-value]

    def validate_many(
        self,
        rules: Sequence["ValidationRule"],
        columns: Sequence[Sequence[str]],
        *,
        index_spec: tuple,
        config: AutoValidateConfig,
        default_variant: str,
        generation: str,
    ) -> list["ValidationReport"]:
        """Fan aligned (rule, column) pairs across the pool, in order.

        Chunks are load-balanced by value count (:func:`weighted_chunks`):
        regex evaluation cost is linear in the number of values, so a
        skewed batch is spread instead of pinning one worker.
        """
        pool = self._ensure_pool(index_spec, config, default_variant, generation)
        bins = weighted_chunks([len(v) for v in columns], self.workers)
        futures = [
            pool.submit(
                _validate_chunk,
                [rules[i] for i in chunk],
                [list(columns[i]) for i in chunk],
            )
            for chunk in bins
        ]
        reports: list["ValidationReport | None"] = [None] * len(columns)
        for chunk, future in zip(bins, futures):
            for i, report in zip(chunk, future.result()):
                reports[i] = report
        with self._lock:
            self.parallel_batches += 1
        return reports  # type: ignore[return-value]
