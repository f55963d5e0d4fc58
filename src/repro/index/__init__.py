"""Offline corpus index (Section 2.4).

The offline stage scans every column ``D`` of the corpus ``T`` once,
enumerates its retained pattern space ``P(D)`` and aggregates two summary
statistics per pattern: the corpus-level expected false positive rate
``FPR_T(p)`` (the average impurity over columns containing the pattern,
Definition 3) and the coverage ``Cov_T(p)`` (number of columns containing
the pattern).  The result is a lookup table orders of magnitude smaller than
the corpus, which makes online inference interactive.
"""

from repro.index.builder import (
    BuildStats,
    IndexBuilder,
    SpillingIndexBuilder,
    build_index,
    build_index_streaming,
)
from repro.index.index import (
    IndexEntry,
    IndexMeta,
    IndexStats,
    PatternIndex,
    ShardedPatternIndex,
    StaleIndexError,
    check_merge_compatible,
    index_digest,
    shard_of,
)
from repro.index.store import (
    IndexStore,
    MergeStats,
    MmapShardedPatternIndex,
    V1MonolithicStore,
    V2ShardedStore,
    V3BinaryStore,
    available_formats,
    default_format,
    detect_format,
    get_store,
    iter_run_file,
    merge_many,
    open_index,
    register_store,
    save_index,
    write_run_file,
)

__all__ = [
    "BuildStats",
    "IndexBuilder",
    "IndexEntry",
    "IndexMeta",
    "IndexStats",
    "IndexStore",
    "MergeStats",
    "MmapShardedPatternIndex",
    "PatternIndex",
    "ShardedPatternIndex",
    "SpillingIndexBuilder",
    "StaleIndexError",
    "V1MonolithicStore",
    "V2ShardedStore",
    "V3BinaryStore",
    "available_formats",
    "build_index",
    "build_index_streaming",
    "check_merge_compatible",
    "default_format",
    "detect_format",
    "get_store",
    "index_digest",
    "iter_run_file",
    "merge_many",
    "open_index",
    "register_store",
    "save_index",
    "shard_of",
    "write_run_file",
]
