"""The validation service — the library's query-path front door.

Section 2.4's performance claim is that online inference is index-lookup
fast because no corpus scan happens at query time.  The remaining per-query
cost is Algorithm 1 over the *query* column; :class:`ValidationService`
amortizes that too.  It owns one index, one config and two caches:

* a shared :class:`~repro.service.cache.HypothesisSpaceCache` wired into
  every solver variant, so repeated and near-duplicate columns (and the
  per-segment sub-columns of the vertical DP) skip Algorithm 1, and
* an LRU of final :class:`InferenceResult` objects keyed by column digest
  and variant, so exact repeats are answered with a dict lookup.

Rule evaluation relies on the process-wide compiled-regex memoization of
:meth:`repro.core.pattern.Pattern.compiled`; ``validate_many`` over
thousands of columns sharing a handful of rules touches the regex
compiler a handful of times.

**Cache generations** keep those caches honest: every cache entry is
stamped with a generation token derived from the index content digest
(:meth:`repro.index.index.PatternIndex.content_digest`).  A service
opened with :meth:`from_path` watches the on-disk manifest: rebuilding the
index under the same path is detected on the next call, the index is
reloaded and stale cache entries are never served — no manual
:meth:`clear_caches` required.  :meth:`swap_index` does the same for
in-memory replacement.

Service methods are thread-safe (cache bookkeeping is lock-guarded;
solving runs outside the locks), which is what lets the HTTP server
(:class:`repro.server.ValidationHTTPServer`) run them on the default
thread pool.  Per-column inference is independent, so scaling out is
routing columns: N ``auto-validate serve`` processes behind
:class:`repro.dist.RoundRobinClient`, each with its own service.

The service object itself is cheap (solvers and caches are built lazily)
and one instance is intended to be long-lived and shared per process.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Sequence

from repro.api.registry import SOLVER_CLASSES as VARIANTS
from repro.config import DEFAULT_CONFIG, AutoValidateConfig
from repro.index.index import PatternIndex, StaleIndexError
from repro.index.store import open_index, store_digest
from repro.service.cache import HypothesisSpaceCache, column_digest
from repro.validate.fmdv import FMDV, InferenceResult
from repro.validate.rule import ValidationReport, ValidationRule


@dataclass(frozen=True)
class ServiceStats:
    """Counters describing how much work the caches absorbed."""

    inferences: int
    result_cache_hits: int
    result_cache_size: int
    space_cache_hits: int
    space_cache_misses: int
    space_cache_size: int
    #: Cache generation currently served (index content digest).
    generation: str = ""
    #: How many times an index rebuild/replacement invalidated the caches.
    invalidations: int = 0
    #: On-disk layout backing the served index ("memory", "v2", "v3").
    index_format: str = "memory"

    @property
    def result_hit_rate(self) -> float:
        """Result-cache hit rate; 0.0 on a fresh service (no lookups)."""
        return self.result_cache_hits / self.inferences if self.inferences else 0.0

    @property
    def space_hit_rate(self) -> float:
        """Hypothesis-space hit rate; 0.0 on a fresh service (no lookups),
        mirroring :attr:`result_hit_rate` so both caches divide safely."""
        lookups = self.space_cache_hits + self.space_cache_misses
        return self.space_cache_hits / lookups if lookups else 0.0


class ValidationService:
    """Batch-capable, cached inference over one index."""

    def __init__(
        self,
        index: PatternIndex,
        config: AutoValidateConfig = DEFAULT_CONFIG,
        variant: str = "fmdv-vh",
        space_cache_size: int = 1024,
        result_cache_size: int = 4096,
    ) -> None:
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}; choose from {sorted(VARIANTS)}")
        self.index = index
        self.config = config
        self.variant = VARIANTS[variant].variant
        self.space_cache = HypothesisSpaceCache(space_cache_size)
        self._solvers: dict[str, FMDV] = {}  # guarded-by: _lock
        self._results: OrderedDict[tuple[str, str, str], InferenceResult] = OrderedDict()  # guarded-by: _lock
        self._result_cache_size = result_cache_size
        self._inferences = 0  # guarded-by: _lock
        self._result_hits = 0  # guarded-by: _lock
        self._invalidations = 0  # guarded-by: _lock
        self._lock = threading.RLock()
        # Generation tracking: the token every cache entry is stamped with.
        self._index_path: Path | None = None
        self._prefetch = False
        self._disk_signature: tuple | None = None
        self._disk_digest: str | None = None
        self._generation = index.content_digest()
        self.space_cache.set_generation(self._generation)

    @classmethod
    def from_path(
        cls,
        index_path: str | Path,
        config: AutoValidateConfig = DEFAULT_CONFIG,
        *,
        prefetch: bool = False,
        **kwargs: Any,
    ) -> "ValidationService":
        """Open a service over a saved index (any registered store format:
        v1 file, v2 shard directory, or mmap-backed v3 binary directory).

        A path-opened service *watches* the path: when the index is rebuilt
        or replaced on disk, the next call notices (cheap stat, then digest
        check), reloads the index and bumps the cache generation so no
        stale cached answer is ever served.

        ``prefetch=True`` warms the page cache behind formats that support
        it (v3) on a background thread — first lookups are served
        immediately while the warm-up proceeds — and re-warms after every
        generation reload.
        """
        index_path = Path(index_path)
        service = cls(open_index(index_path, prefetch=prefetch), config, **kwargs)
        service._index_path = index_path
        service._prefetch = prefetch
        service._disk_signature = service._stat_signature()
        service._disk_digest = store_digest(index_path)
        return service

    # -- cache generations ---------------------------------------------------

    @property
    def generation(self) -> str:
        """The cache-generation token (index content digest) in effect."""
        return self._generation

    def _stat_signature(self) -> tuple | None:
        """Cheap change detector for the watched index path."""
        assert self._index_path is not None
        target = self._index_path
        if target.is_dir():
            target = target / "manifest.json"
        try:
            st = target.stat()
        except OSError:
            return None
        return (st.st_mtime_ns, st.st_size, st.st_ino)

    def _check_generation(self) -> None:
        """Reload the index and invalidate caches if the path changed.

        Called at the top of every query-path method.  The common case is
        one ``stat`` call; only a changed (mtime, size, inode) signature
        pays for a digest read, and only a changed digest pays for a
        reload.  A mid-rebuild disappearing path keeps serving the current
        snapshot.
        """
        if self._index_path is None:
            return
        with self._lock:
            signature = self._stat_signature()
            if signature is None or signature == self._disk_signature:
                return
            self._disk_signature = signature
            try:
                digest = store_digest(self._index_path)
            except (OSError, ValueError):
                return
            if digest == self._disk_digest:
                return  # e.g. touch/re-save of identical content
            try:
                reloaded = open_index(self._index_path, prefetch=self._prefetch)
            except (OSError, ValueError):
                return  # partially-written index: keep the current snapshot
            self._disk_digest = digest
            self.index = reloaded
            self._solvers.clear()  # solvers reference the old index object
            token = reloaded.content_digest()
            if token != self._generation:
                self._apply_new_generation(token)

    def _apply_new_generation(self, token: str) -> None:  # holds-lock: _lock
        """Switch to generation ``token``; stale cache entries go dead."""
        self._generation = token
        self.space_cache.set_generation(token)
        self._invalidations += 1

    def swap_index(self, index: PatternIndex) -> None:
        """Replace the served index in place (in-memory rebuild path).

        Stale hypothesis-space and result entries become unreachable
        immediately; counters and stats survive, ``invalidations`` ticks.
        Swapping in an index with identical content keeps the generation
        (the caches stay warm — they are still correct).
        """
        with self._lock:
            self.index = index
            self._index_path = None
            self._disk_signature = None
            self._disk_digest = None
            self._solvers.clear()  # solvers reference the old index object
            token = index.content_digest()
            if token != self._generation:
                self._apply_new_generation(token)

    def set_default_variant(self, variant: str) -> None:
        """Switch the default solver variant without touching any cache.

        The hot-config-reload path of ``POST /admin/config``: cached
        hypothesis spaces and results are keyed by (generation, digest,
        variant), so entries for other variants stay valid and warm — only
        which solver answers un-annotated requests changes.
        """
        if variant not in VARIANTS:
            raise ValueError(
                f"unknown variant {variant!r}; choose from {sorted(VARIANTS)}"
            )
        with self._lock:
            self.variant = VARIANTS[variant].variant

    # -- inference -----------------------------------------------------------

    def solver(self, variant: str | None = None) -> FMDV:
        """The (cached) solver instance for ``variant``, sharing this
        service's index, config and hypothesis-space cache."""
        name = variant or self.variant
        if name not in VARIANTS:
            raise ValueError(f"unknown variant {name!r}; choose from {sorted(VARIANTS)}")
        name = VARIANTS[name].variant
        with self._lock:
            solver = self._solvers.get(name)
            if solver is None:
                cls = VARIANTS[name]
                solver = cls(self.index, self.config, space_cache=self.space_cache)
                self._solvers[name] = solver
            return solver

    def infer(self, values: Sequence[str], variant: str | None = None) -> InferenceResult:
        """Infer a validation rule for one column, through both caches."""
        self._check_generation()
        solver = self.solver(variant)
        key = (self._generation, column_digest(values), solver.variant)
        return self._infer_with_key(values, key, solver)

    def _infer_with_key(
        self, values: Sequence[str], key: tuple[str, str, str], solver: FMDV
    ) -> InferenceResult:
        """Cache lookup + solve for a precomputed key (batch paths reuse the
        digests they already have instead of re-hashing every column)."""
        with self._lock:
            self._inferences += 1
            cached = self._results.get(key)
            if cached is not None:
                self._result_hits += 1
                self._results.move_to_end(key)
                return cached
        try:
            result = solver.infer(list(values))
        except StaleIndexError:
            # A lazy shard read lost the race against an in-place index
            # rebuild.  Force a full generation re-check (stat caching off)
            # and retry once against the fresh snapshot; if the rebuild is
            # still mid-flight the retry's error propagates to the caller
            # rather than caching an answer from a torn index.
            with self._lock:
                self._disk_signature = None
            self._check_generation()
            solver = self.solver(solver.variant)
            key = (self._generation, key[1], solver.variant)
            result = solver.infer(list(values))
        return self._store_result(key, result)

    def _store_result(self, key: tuple[str, str, str], result: InferenceResult) -> InferenceResult:
        """Insert-if-absent so concurrent solvers of the same column agree
        on one canonical result object."""
        with self._lock:
            existing = self._results.get(key)
            if existing is not None:
                return existing
            self._results[key] = result
            if len(self._results) > self._result_cache_size:
                self._results.popitem(last=False)
            return result

    def infer_many(
        self,
        columns: Iterable[Sequence[str]],
        variant: str | None = None,
    ) -> list[InferenceResult]:
        """Infer rules for a batch of columns, in input order.

        Each column is hashed once; what the result cache already knows is
        resolved in one pass, and the misses are solved in order through
        :meth:`infer`'s path, so a column repeated inside the batch is
        solved once and its repeats are result-cache hits.
        """
        self._check_generation()
        batch = [list(values) for values in columns]
        solver = self.solver(variant)
        keys = [
            (self._generation, column_digest(values), solver.variant)
            for values in batch
        ]
        resolved: list[InferenceResult | None] = [None] * len(batch)
        miss_positions: list[int] = []
        with self._lock:
            for i, key in enumerate(keys):
                cached = self._results.get(key)
                if cached is not None:
                    self._inferences += 1
                    self._result_hits += 1
                    self._results.move_to_end(key)
                    resolved[i] = cached
                else:
                    miss_positions.append(i)
        for i in miss_positions:
            resolved[i] = self._infer_with_key(batch[i], keys[i], solver)
        return resolved  # type: ignore[return-value]

    # -- validation ----------------------------------------------------------

    def validate(self, rule: ValidationRule, values: Sequence[str]) -> ValidationReport:
        """Validate one future column against one rule."""
        return rule.validate(values)

    def validate_many(
        self,
        rules: ValidationRule | Sequence[ValidationRule],
        columns: Sequence[Sequence[str]],
    ) -> list[ValidationReport]:
        """Validate a batch of columns.

        ``rules`` is either a single rule applied to every column or a
        sequence aligned with ``columns``.  Each distinct pattern's regex
        is compiled once (``Pattern.compiled`` memoizes process-wide), so
        a batch sharing a handful of rules touches the compiler a handful
        of times.
        """
        if isinstance(rules, ValidationRule):
            rules = [rules] * len(columns)
        else:
            rules = list(rules)
            if len(rules) != len(columns):
                raise ValueError(
                    f"{len(rules)} rules for {len(columns)} columns; "
                    "pass one rule per column or a single rule"
                )
        self._check_generation()
        return [rule.validate(values) for rule, values in zip(rules, columns)]

    # -- observability -------------------------------------------------------

    def stats(self) -> ServiceStats:
        with self._lock:
            return ServiceStats(
                inferences=self._inferences,
                result_cache_hits=self._result_hits,
                result_cache_size=len(self._results),
                space_cache_hits=self.space_cache.hits,
                space_cache_misses=self.space_cache.misses,
                space_cache_size=len(self.space_cache),
                generation=self._generation,
                invalidations=self._invalidations,
                index_format=self.index.storage_format,
            )

    def clear_caches(self) -> None:
        """Drop both caches and reset hit-rate counters.

        Generation handling makes this unnecessary after index rebuilds,
        but it remains the explicit way to reclaim memory / reset stats.
        """
        with self._lock:
            self.space_cache.clear()
            self._results.clear()
            self._inferences = 0
            self._result_hits = 0

    # -- lifecycle -----------------------------------------------------------

    # A context manager for callers that scope a service with ``with``; the
    # service holds no process, thread or handle that needs releasing.
    def __enter__(self) -> "ValidationService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass
