"""Hypothesis-space caching for the validation service.

Algorithm 1 is the only expensive step of online inference (index lookups
are O(1) per candidate), and its output depends solely on the *multiset* of
column values plus the enumeration knobs.  Production feeds re-submit the
same or near-duplicate columns continuously — daily partitions of the same
pipeline, the per-segment sub-columns the vertical DP carves out of sibling
composites — so an LRU keyed by (value-multiset digest, min_coverage, knob
fingerprint) turns almost all of that work into a dict hit.

The digest is computed from the (value, count) pairs.  The vertical DP's
sub-columns arrive as :class:`~repro.core.tokenizer.TokenizedColumn`
objects that already carry their counts, so they are hashed without being
expanded into one string per row.

The multiset key means two permutations of the same column share one cache
entry.  That is *sound*, not just convenient: enumeration guarantees a
determinism contract (see ``repro.core.enumeration``) under which its
output — including pattern order — is a pure function of the value multiset
and the knob fingerprint, with every frequency tie broken by a total order.
Whichever permutation populates an entry, every other permutation would
have computed the identical list, so serving the cached space is exact.
"""

from __future__ import annotations

import hashlib
import threading
from collections import Counter, OrderedDict
from typing import Sequence

from repro.core.enumeration import EnumerationConfig, PatternStats, hypothesis_space
from repro.core.tokenizer import TokenizedColumn


def column_digest(values: Sequence[str]) -> str:
    """Stable 128-bit digest of a column's value multiset.

    Independent of value order and of ``PYTHONHASHSEED`` (BLAKE2b over the
    sorted (value, count) pairs).  A :class:`TokenizedColumn` contributes
    its counts directly, without being expanded into values.
    """
    counter = values.counts if isinstance(values, TokenizedColumn) else Counter(values)
    h = hashlib.blake2b(digest_size=16)
    for value, count in sorted(counter.items()):
        # length-prefixed encoding: values may contain any byte, so
        # delimiter-based framing would not be injective
        encoded = value.encode("utf-8", "surrogatepass")
        h.update(len(encoded).to_bytes(8, "big"))
        h.update(encoded)
        h.update(count.to_bytes(8, "big"))
    return h.hexdigest()


class HypothesisSpaceCache:
    """LRU cache over :func:`repro.core.enumeration.hypothesis_space`.

    Entries are the frozen :class:`PatternStats` lists Algorithm 1 emits;
    callers must treat them as read-only (every consumer in the library
    does).  A single cache instance is safely shared by all solver
    variants of one service: the key carries the enumeration fingerprint,
    so solvers configured differently never collide.

    The cache is thread-safe (the HTTP server runs lookups from a thread
    pool): bookkeeping happens under a lock, while Algorithm 1
    itself runs outside it so concurrent misses on *different* columns
    overlap.  Two simultaneous misses on the same column may both compute,
    but the first insert wins and both callers receive the same stored
    object — identity of hits is preserved.

    Keys additionally carry a ``generation`` token (set by the owning
    service from the index manifest digest).  Bumping the generation makes
    every older entry unreachable — stale hypothesis spaces are never
    served after an index rebuild and age out of the LRU naturally.
    """

    def __init__(self, max_entries: int = 1024) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self._data: OrderedDict[tuple[str, str, str, str], list[PatternStats]] = OrderedDict()  # guarded-by: _lock
        self.hits = 0  # guarded-by: _lock
        self.misses = 0  # guarded-by: _lock
        self.generation = ""  # guarded-by: _lock
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def set_generation(self, token: str) -> None:
        """Stamp subsequent entries with ``token``; older ones go stale."""
        with self._lock:
            self.generation = token

    def get(
        self,
        values: Sequence[str],
        min_coverage: float,
        config: EnumerationConfig,
    ) -> list[PatternStats]:
        """The hypothesis space of ``values``, computed at most once."""
        digest = column_digest(values)
        with self._lock:
            key = (self.generation, digest, repr(min_coverage), config.fingerprint())
            cached = self._data.get(key)
            if cached is not None:
                self.hits += 1
                self._data.move_to_end(key)
                return cached
            self.misses += 1
        stats = hypothesis_space(values, config, min_coverage)
        with self._lock:
            existing = self._data.get(key)
            if existing is not None:
                return existing
            self._data[key] = stats
            if len(self._data) > self.max_entries:
                self._data.popitem(last=False)
        return stats

    def clear(self) -> None:
        with self._lock:
            self._data.clear()
            self.hits = 0
            self.misses = 0
