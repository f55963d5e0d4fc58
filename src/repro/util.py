"""Small shared utilities."""

from __future__ import annotations

import hashlib
from typing import Callable, Mapping, Sequence, TypeVar

K = TypeVar("K")


def weighted_chunks(weights: Sequence[int], n_chunks: int) -> list[list[int]]:
    """Partition item indices into at most ``n_chunks`` load-balanced bins.

    Greedy LPT (longest-processing-time) scheduling: items sorted by weight
    descending go to the currently lightest bin.  Per-column work scales
    with the column's value count, so contiguous equal-*count* chunks let
    one huge column straggle a worker while its siblings idle.
    Deterministic: ties break toward the lower item index / lower bin id;
    each bin's indices come back sorted ascending and no bin is empty.
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


def most_common_stable(
    counts: Mapping[K, int],
    k: int | None = None,
    *,
    key: Callable[[K], object] | None = None,
) -> list[tuple[K, int]]:
    """``Counter.most_common`` with a *total* order on ties.

    ``Counter.most_common`` breaks equal counts by insertion order, so any
    consumer whose output must be independent of input permutation (pattern
    enumeration, index construction, byte-identical rebuilds) silently
    inherits order-dependence from it.  This wrapper imposes the total
    order (count desc, then item key asc): two permutations of the same
    multiset always yield the same ranking.  The determinism lint rule
    AV104 enforces its use in ``repro/core/`` and ``repro/index/``.

    ``key`` maps an item to its ascending tie-break key (default: the item
    itself, which must then be orderable).
    """
    tie = key if key is not None else (lambda item: item)
    ordered = sorted(counts.items(), key=lambda kv: (-kv[1], tie(kv[0])))
    return ordered if k is None else ordered[:k]


def stable_seed(*parts: object) -> int:
    """A process-independent 32-bit seed derived from the given parts.

    ``hash(str)`` is randomized per interpreter process (PYTHONHASHSEED),
    so seeding RNGs with tuple hashes silently breaks cross-run
    reproducibility; every seeded component in this library derives its
    seed here instead.
    """
    digest = hashlib.blake2s(
        "".join(repr(p) for p in parts).encode("utf-8"), digest_size=4
    ).digest()
    return int.from_bytes(digest, "big")
