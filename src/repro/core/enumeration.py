"""Algorithm 1 — enumerate the pattern spaces ``P(v)``, ``P(D)`` and ``H(C)``.

The paper's pattern generation works in two steps (Section 2.1, Algorithm 1):
coarse patterns first (token-class level), each checked for coverage, then a
drill-down into fine-grained atoms, again retaining only patterns that meet
the coverage threshold.  This module implements that procedure with three
engineering choices that keep a lake-scale corpus tractable:

* values are grouped by their coarse *signature* (token classes + symbol
  text); per-position generalization options are materialized once per group
  with a match-mask over the group's distinct values,
* the fine-grained cross product is enumerated depth-first with mask
  intersection, pruning any prefix whose coverage falls below the threshold,
* a per-column pattern budget bounds the output (the paper's τ token limit
  is applied as well: groups wider than ``tau`` tokens are skipped — they are
  recovered at query time by vertical cuts, Section 3).

One packed-bitset kernel implements the per-group enumeration: the whole
group is tokenized once into packed numpy arrays
(:func:`repro.core.tokenizer.group_token_arrays`), option supports come
from ``np.bincount`` over lengths/pooled text codes, and the DFS
intersects *packed bitsets* whose weighted popcounts are answered from a
precomputed 256-entry-per-byte partial-sum table — every DFS node costs
O(group_bytes), with no per-distinct-value Python loop.  The per-value
reference implementation it must reproduce bit for bit (order and counts,
under budget truncation too) lives in ``tests/enum_oracle.py``.

Guided enumeration
------------------

A query solver keeps a pattern only if the offline index lists it with
coverage ≥ m and FPR ≤ r (Equations 6–7), so it passes the kernel an
:class:`EnumerationGuide` — a prefix trie over the atom keys of exactly
those patterns — on :attr:`EnumerationConfig.guide`.  Both DFS bodies then
skip an option whose atom key is not a child of the current trie node and
emit a leaf only at a terminal node; option materialization,
:func:`_reduce_to_budget` and ``min_count`` pruning are unchanged.  The
guide is applied only when the column fits the **fallback bound**: the
sum, over the eligible groups of both granularities, of each group's
*unreduced* option cross product is at most ``max_patterns``.  Under that
bound no budget (the option reduction, the DFS stop, the column budget)
can fire, so the guided output is exactly the unguided output restricted
to the guide's keys, in the same order.  A column over the bound is
enumerated unguided, as if no guide had been given, and counted in
:attr:`EnumerationGuide.fallbacks`.  The offline build never passes a
guide.

Determinism contract
--------------------

Enumeration output is a pure function of the column's *value multiset* and
the :class:`EnumerationConfig` fingerprint — never of value order:

* every frequency ranking breaks ties with a total order (weight desc,
  then length/text asc — :func:`repro.util.most_common_stable`; lint rule
  AV104 enforces this in ``repro/core/``/``repro/index/``), so two
  permutations of the same column retain identical options;
* signature groups are visited in (weight desc, signature asc) order and
  the DFS visits options in their materialized order, so the emitted
  pattern list (order included) is permutation-invariant — which is what
  makes the service's multiset-digest-keyed hypothesis-space cache sound
  and rebuilt indexes byte-identical under row reordering.

Empty-value semantics
---------------------

Empty strings tokenize to no tokens and can never match a pattern.  They
are therefore excluded from the *hypothesis-space denominator*: retention
thresholds (``min_coverage``) apply to the non-empty value count, so a
single ``""`` no longer collapses ``H(C)`` to ∅ at ``min_coverage=1.0``.
They remain **non-matching evidence** everywhere a pattern is judged
against the whole column: ``Imp_D(p) = 1 - match_count/|D|`` (Definition 1)
keeps the full column size ``|D|`` as its denominator, and a column of only
empty values has an empty pattern space.  :func:`dominant_signature_share`
follows the same convention (the empty signature ``()`` is never dominant).

Coverage semantics otherwise follow the paper exactly: a pattern's *match
count* is the number of values in the whole column it matches.  Values
whose signature differs from the pattern's group are counted as
non-matching, which is what produces the "impure column" evidence of
Figure 6.
"""

from __future__ import annotations

import hashlib
import math
import threading
from collections import Counter, OrderedDict, defaultdict
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from repro.core.atoms import Atom
from repro.core.hierarchy import DEFAULT_HIERARCHY, GeneralizationHierarchy
from repro.core.pattern import Pattern
from repro.core.tokenizer import (
    CLS_ALNUM,
    CLS_DIGIT,
    CLS_SYMBOL,
    GroupTokenArrays,
    TokenizedColumn,
    alnum_signature,
    group_token_arrays,
    signature,
    tokenize,
)

#: Groups whose packed masks fit in this many bytes run the DFS on Python
#: ints (single ``&`` + table loop per node) instead of numpy arrays: for
#: small masks the fixed per-call cost of numpy ufuncs dwarfs the work.
#: Both DFS bodies compute identical results from identical option lists.
_INT_DFS_MAX_BYTES = 64

#: (8, 256) — entry ``[j, m]`` is bit ``j`` (packbits order: bit 0 is the
#: most significant) of byte value ``m``.  Shared by every group's
#: weighted-popcount table build.
_PACKBITS_BITS = (
    (np.arange(256, dtype=np.int64)[None, :] >> (7 - np.arange(8)[:, None])) & 1
)

#: Process-wide pool of Pattern objects keyed by their canonical key.
#: Column shapes repeat heavily across a corpus, so most DFS leaves emit a
#: pattern some earlier column already built; reusing the object replaces
#: a tuple + Pattern + hash construction with one dict probe, and makes
#: downstream dict lookups pointer-equal.  Patterns are immutable, so
#: sharing is safe; the cap merely stops unbounded growth in long-running
#: processes (overflow skips pooling, it never evicts hot entries).
_PATTERN_POOL: dict[str, Pattern] = {}
_PATTERN_POOL_MAX = 1 << 18


def active_kernel() -> str:
    """Name of the per-group enumeration kernel, for run provenance records."""
    return "vector"


@dataclass(frozen=True)
class PatternStats:
    """A pattern enumerated from a column, with its column-level match count."""

    pattern: Pattern
    match_count: int

    def impurity(self, column_size: int) -> float:
        """``Imp_D(p)`` of Definition 1 for a column of ``column_size`` values.

        ``column_size`` is the **full** column size including empty values:
        empties never match, so they are non-matching evidence here even
        though they are excluded from retention thresholds (see the module
        doc's empty-value semantics).
        """
        if column_size <= 0:
            raise ValueError("column_size must be positive")
        return 1.0 - self.match_count / column_size


class _TrieNode:
    """One node of an :class:`EnumerationGuide`: children by atom key."""

    __slots__ = ("children", "terminal")

    def __init__(self) -> None:
        self.children: dict[str, _TrieNode] = {}
        #: Whether the atom keys from the root to here spell a whole key.
        self.terminal = False


class EnumerationGuide:
    """A prefix trie over pattern keys that steers the DFS (module doc).

    Keys are canonical pattern keys split on ``|``; :meth:`Atom.key
    <repro.core.atoms.Atom.key>` escapes a literal ``|`` as ``\\p``, so the
    split recovers the atom keys exactly.  ``token`` names the key set
    (the solvers use the index digest, m and r): it is the guide's term in
    :meth:`EnumerationConfig.fingerprint`, and guides compare and hash by
    it.  The trie is immutable once built; only :attr:`fallbacks` counts.
    """

    __slots__ = ("token", "root", "n_keys", "_fallbacks", "_lock")

    def __init__(self, keys: Iterable[str], token: str) -> None:
        self.token = token
        self.root = _TrieNode()
        n_keys = 0
        for key in keys:
            node = self.root
            for atom_key in key.split("|"):
                child = node.children.get(atom_key)
                if child is None:
                    child = node.children[atom_key] = _TrieNode()
                node = child
            if not node.terminal:
                node.terminal = True
                n_keys += 1
        self.n_keys = n_keys
        self._fallbacks = 0
        self._lock = threading.Lock()

    @property
    def fallbacks(self) -> int:
        """Enumerations that exceeded the fallback bound and ran unguided."""
        return self._fallbacks

    def note_fallback(self) -> None:
        with self._lock:
            self._fallbacks += 1

    def __eq__(self, other: object) -> bool:
        return isinstance(other, EnumerationGuide) and other.token == self.token

    def __hash__(self) -> int:
        return hash(self.token)

    def __repr__(self) -> str:
        return f"EnumerationGuide(token={self.token!r}, keys={self.n_keys})"


@dataclass(frozen=True)
class EnumerationConfig:
    """Knobs of Algorithm 1.

    Attributes:
        tau: maximum token count for a value to participate in enumeration
            (the τ of Section 2.4; wider groups are skipped).
        min_coverage: minimum fraction of the column's *non-empty* values a
            retained pattern must match.  ``1.0`` gives the intersection
            semantics of ``H(C)`` (basic FMDV); ``1 - θ`` gives FMDV-H's
            union-with-tolerance (Equation 16); a small value such as
            ``0.1`` gives the ``P(D)`` enumeration used for offline
            indexing.
        min_option_coverage: minimum fraction *of a signature group* that a
            constant or fixed-length option must cover to enter the cross
            product.  This is what keeps indexing tractable without losing
            impurity evidence: minority *groups* (the "PM" values of
            Figure 6) are governed by ``min_coverage``, while rare
            per-position constants (one digit value out of ten) — which
            explode the cross product and carry no validation signal — are
            pruned here.  Queries with ``min_coverage=1.0`` are unaffected
            (an option covering all values passes any floor).
        max_patterns: per-column output budget.
        max_const_options: cap on distinct constant texts considered per
            token position (the most frequent win; ties break toward the
            lexicographically smaller text).
        max_length_options: cap on distinct fixed-length options per
            position (ties break toward the shorter length).
        hierarchy: the generalization hierarchy to drill down with.
        enumerate_alnum_runs: additionally enumerate at the merged
            alphanumeric-run granularity, where ``<alphanum>`` atoms span
            adjacent digit/letter runs.  This is what gives hex identifiers,
            GUIDs and similar mixed domains a stable structure (their fine
            token signatures differ row to row).
        guide: not a user knob.  Query solvers set it to the feasible-key
            trie of their index and (m, r) (module doc, "Guided
            enumeration"); ``None`` — the default, and what the offline
            build uses — enumerates the whole space.
    """

    tau: int = 13
    min_coverage: float = 0.1
    min_option_coverage: float = 0.25
    max_patterns: int = 4096
    max_const_options: int = 4
    max_length_options: int = 4
    hierarchy: GeneralizationHierarchy = field(default=DEFAULT_HIERARCHY)
    enumerate_alnum_runs: bool = True
    guide: EnumerationGuide | None = None

    def __post_init__(self) -> None:
        if self.tau < 1:
            raise ValueError("tau must be >= 1")
        if not 0.0 < self.min_coverage <= 1.0:
            raise ValueError("min_coverage must be in (0, 1]")
        if not 0.0 <= self.min_option_coverage <= 1.0:
            raise ValueError("min_option_coverage must be in [0, 1]")
        if self.max_patterns < 1:
            raise ValueError("max_patterns must be >= 1")
        if self.max_const_options < 0:
            raise ValueError("max_const_options must be >= 0")
        if self.max_length_options < 0:
            raise ValueError("max_length_options must be >= 0")

    def fingerprint(self) -> str:
        """Canonical string of every knob that shapes enumeration output.

        Two configs with equal fingerprints produce identical pattern
        spaces for any column.  Used as the compatibility stamp of index
        manifests (format v2) and as part of hypothesis-space cache keys.
        """
        h = self.hierarchy
        guide = () if self.guide is None else (f"guide={self.guide.token}",)
        return ";".join(
            (
                f"tau={self.tau}",
                f"min_coverage={self.min_coverage!r}",
                f"min_option_coverage={self.min_option_coverage!r}",
                f"max_patterns={self.max_patterns}",
                f"max_const_options={self.max_const_options}",
                f"max_length_options={self.max_length_options}",
                f"alnum_runs={int(self.enumerate_alnum_runs)}",
                f"case={int(h.use_case_classes)}",
                f"num={int(h.use_num)}",
                f"alnum_fixed={int(h.use_alnum_fixed)}",
                f"alnum_plus={int(h.use_alnum_plus)}",
                f"max_const_length={h.max_const_length}",
                *guide,
            )
        )


@dataclass
class _Option:
    """One candidate atom at one aligned position, with its match mask.

    ``mask`` is a packed-bit ``uint8`` array over the group's distinct
    values (:class:`_PackedWeights`); the budget reduction never looks
    inside it.
    """

    atom: Atom
    mask: np.ndarray


class GroupResultCache:
    """Cross-column memo of per-signature-group enumeration results.

    Data lakes repeat column *shapes* heavily: thousands of tables carry
    the same status/locale/GUID groups, differing only in unrelated sibling
    groups.  Keyed by ``(granularity, signature, distinct-multiset digest,
    min_count, budget)`` — with the enumeration-config fingerprint fixed
    per cache instance — a hit replays the exact drill-down result instead
    of re-deriving it.  Because enumeration is deterministic in precisely
    those inputs (see the module doc's determinism contract), a hit is
    byte-equivalent to recomputation; cached dicts are shared and must be
    treated as read-only (every consumer is).

    Not thread-safe: each offline build worker owns one instance.
    """

    def __init__(self, max_entries: int = 8192) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self._data: OrderedDict[tuple, dict[Pattern, int]] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._data)

    @staticmethod
    def group_digest(counter: dict[str, int]) -> str:
        """Stable digest of one group's distinct-value multiset."""
        h = hashlib.blake2b(digest_size=16)
        for value, count in sorted(counter.items()):
            encoded = value.encode("utf-8", "surrogatepass")
            h.update(len(encoded).to_bytes(8, "big"))
            h.update(encoded)
            h.update(count.to_bytes(8, "big"))
        return h.hexdigest()

    def lookup(self, key: tuple) -> dict[Pattern, int] | None:
        cached = self._data.get(key)
        if cached is None:
            self.misses += 1
            return None
        self.hits += 1
        self._data.move_to_end(key)
        return cached

    def store(self, key: tuple, produced: dict[Pattern, int]) -> None:
        self._data[key] = produced
        if len(self._data) > self.max_entries:
            self._data.popitem(last=False)


def enumerate_value_patterns(
    value: str, hierarchy: GeneralizationHierarchy = DEFAULT_HIERARCHY, max_patterns: int = 4096
) -> list[Pattern]:
    """The full pattern space ``P(v)`` of a single value (Section 2.1).

    Enumerates the cross product of per-token generalization chains, most
    general combinations first, up to ``max_patterns``.  The trivial ``.*``
    is excluded by construction (``<all>`` atoms are never emitted).
    """
    tokens = tokenize(value)
    if not tokens:
        return []
    chains = [list(reversed(hierarchy.generalizations(t))) for t in tokens]
    patterns: list[Pattern] = []

    def dfs(position: int, prefix: list[Atom]) -> None:
        if len(patterns) >= max_patterns:
            return
        if position == len(chains):
            patterns.append(Pattern(prefix))
            return
        for atom in chains[position]:
            prefix.append(atom)
            dfs(position + 1, prefix)
            prefix.pop()
            if len(patterns) >= max_patterns:
                return

    dfs(0, [])
    return patterns


def enumerate_column_patterns(
    values: Sequence[str],
    config: EnumerationConfig = EnumerationConfig(),
    *,
    group_cache: GroupResultCache | None = None,
) -> list[PatternStats]:
    """Enumerate retained patterns of a column per Algorithm 1.

    Returns deduplicated patterns with column-level match counts; patterns
    are retained only when they match at least ``min_coverage`` of the
    column's non-empty values and the column-wide budget ``max_patterns``
    allows.  Output — including list order — depends only on the value
    multiset, never on value order (see the module determinism contract).

    Two granularities are enumerated: merged alphanumeric runs first (the
    level at which ``<alphanum>`` atoms span digit/letter boundaries), then
    fine digit/letter runs.  A pattern emitted at both levels is counted
    once with the larger match count — the alnum-level group is always a
    superset of any fine group that can emit the same pattern, so taking
    the maximum is exact, never double-counting.

    ``group_cache`` optionally memoizes per-signature-group results across
    columns (the offline builder's signature-sketch cache); it must have
    been created for this exact ``config``.  Guided calls (a ``config``
    with a ``guide``, which the build never passes) do not use it.

    A :class:`~repro.core.tokenizer.TokenizedColumn` (the vertical DP's
    sub-columns) is read from its counts and lexer facts; the output is
    the same as for the plain list of its values.
    """
    if len(values) == 0:
        return []

    # One counting pass over the raw values; everything after works on the
    # distinct values with multiplicities.  Machine-generated columns repeat
    # values heavily, so tokenization and signatures — the per-value cost
    # that dominates the offline corpus scan — are computed once per
    # distinct value, not once per occurrence.  Empty values are excluded
    # here AND from the retention denominator ``n`` (they can never match a
    # pattern; see the module doc's empty-value semantics).
    value_counts: dict[str, int]
    if isinstance(values, TokenizedColumn):
        value_counts = {v: c for v, c in values.counts.items() if v}
    else:
        value_counts = Counter(v for v in values if v)
    n = sum(value_counts.values())
    if n == 0:
        return []
    min_count = max(1, math.ceil(config.min_coverage * n))

    groups: Iterable[tuple[str, bool, tuple[str, ...], dict[str, int]]]
    groups = _eligible_groups(values, value_counts, min_count, config)
    # A guided call materializes every group's options first: the fallback
    # bound (module doc) is decided per column, before any DFS runs.
    prepared: list[_PreparedGroup | None] | None = None
    node: _TrieNode | None = None
    if config.guide is not None:
        groups = list(groups)
        prepared = [
            _prepare_group(counter, min_count, config, merge_alnum)
            for _, merge_alnum, _, counter in groups
        ]
        if _fits_unreduced(prepared, config.max_patterns):
            node = config.guide.root
        else:
            config.guide.note_fallback()

    aggregated: dict[Pattern, int] = {}
    budget = config.max_patterns
    for i, (pass_tag, merge_alnum, sig, counter) in enumerate(groups):
        if budget <= 0:
            break
        if prepared is None:
            produced = _enumerate_group(
                counter,
                min_count,
                budget,
                config,
                merge_alnum=merge_alnum,
                group_cache=group_cache,
                cache_tag=(pass_tag, sig),
            )
        else:
            group = prepared[i]
            produced = {} if group is None else _dfs_group(group, min_count, budget, node)
        for pattern, count in produced.items():
            previous = aggregated.get(pattern)
            if previous is None:
                aggregated[pattern] = count
                budget -= 1
            elif count > previous:
                aggregated[pattern] = count

    return [
        PatternStats(pattern=p, match_count=c)
        for p, c in aggregated.items()
        if c >= min_count
    ]


def _eligible_groups(
    values: Sequence[str],
    value_counts: dict[str, int],
    min_count: int,
    config: EnumerationConfig,
) -> Iterator[tuple[str, bool, tuple[str, ...], dict[str, int]]]:
    """``(tag, merge_alnum, signature, distinct counts)`` of every group
    that can emit a pattern, in enumeration order: granularities in turn,
    groups by (weight desc, signature asc) within each."""
    for pass_tag, signature_fn, merge_alnum in _granularities(values, config):
        by_signature: dict[tuple[str, ...], dict[str, int]] = defaultdict(dict)
        for v, count in value_counts.items():
            by_signature[signature_fn(v)][v] = count
        groups = sorted(
            by_signature.items(), key=lambda item: (-sum(item[1].values()), item[0])
        )
        for sig, counter in groups:
            if sum(counter.values()) < min_count:
                continue  # no pattern from this group can reach the threshold
            if len(sig) > config.tau:
                continue  # wider than τ: recovered via vertical cuts at query time
            yield pass_tag, merge_alnum, sig, counter


def _fits_unreduced(prepared: list[_PreparedGroup | None], max_patterns: int) -> bool:
    """The fallback bound: whether the groups' unreduced option cross
    products sum to at most ``max_patterns``."""
    total = 0
    for group in prepared:
        if group is None:
            continue  # a position without options: the group emits nothing
        product = 1
        for options in group.options:
            product *= len(options)
            if total + product > max_patterns:
                return False
        total += product
    return True


def _granularities(
    values: Sequence[str], config: EnumerationConfig
) -> Iterator[tuple[str, Callable, bool]]:
    """``(tag, signature_fn, merge_alnum)`` per enumeration pass.

    Signatures come from the memoized lexer for plain strings, and from
    the ones a :class:`TokenizedColumn` carries (whose sub-values are seen
    once and would only churn the memo tables).  Either way the passes
    see the same signatures.
    """
    if not isinstance(values, TokenizedColumn):
        if config.enumerate_alnum_runs:
            yield ("alnum", alnum_signature, True)
        yield ("fine", signature, False)
        return
    if config.enumerate_alnum_runs:
        yield ("alnum", values.alnum_signatures.__getitem__, True)
    yield ("fine", values.signatures.__getitem__, False)


def hypothesis_space(
    values: Sequence[str],
    config: EnumerationConfig = EnumerationConfig(),
    min_coverage: float = 1.0,
) -> list[PatternStats]:
    """The hypothesis space over a query column.

    ``min_coverage=1.0`` yields ``H(C) = ∩_v P(v)`` over the column's
    non-empty values (basic FMDV, Section 2.1); ``min_coverage = 1 - θ``
    yields the tolerant space of FMDV-H (Equations 13 and 16).  Empty
    values do not shrink the space (they have no ``P(v)``), but they still
    count as non-matching evidence wherever the resulting patterns are
    scored against the full column.

    Only ``min_coverage`` is overridden; every other knob of ``config``
    (including ``min_option_coverage`` and ``enumerate_alnum_runs``) is
    preserved.
    """
    return enumerate_column_patterns(
        values, replace(config, min_coverage=min_coverage)
    )


def _enumerate_group(
    counter: dict[str, int],
    min_count: int,
    budget: int,
    config: EnumerationConfig,
    *,
    merge_alnum: bool = False,
    group_cache: GroupResultCache | None = None,
    cache_tag: tuple | None = None,
) -> dict[Pattern, int]:
    """Drill-down enumeration for one signature group (same token shape)."""
    if group_cache is None or cache_tag is None:
        return _enumerate_group_vector(counter, min_count, budget, config, merge_alnum)
    key = (*cache_tag, GroupResultCache.group_digest(counter), min_count, budget)
    cached = group_cache.lookup(key)
    if cached is not None:
        return cached
    produced = _enumerate_group_vector(counter, min_count, budget, config, merge_alnum)
    group_cache.store(key, produced)
    return produced


def _reduce_to_budget(options_per_position: list[list[_Option]], budget: int) -> None:
    """Shrink per-position option lists until their cross product fits.

    A depth-first enumeration that merely *stops* at the budget truncates
    asymmetrically — early positions get stuck at their most general option
    while late positions are explored fully, which silently removes exactly
    the specific patterns queries hypothesize.  Instead, the cross product
    is reduced *before* enumeration by repeatedly dropping the last option
    of the widest position (option lists are ordered most-supported first,
    with constants and rare fixed lengths at the tail), so whatever space
    remains is enumerated completely and uniformly.
    """
    product = 1
    for options in options_per_position:
        product *= len(options)
        if product > budget:
            break
    while product > budget:
        widest = max(options_per_position, key=len)
        if len(widest) <= 1:
            return  # nothing left to drop; DFS will stop at the budget
        widest.pop()
        product = 1
        for options in options_per_position:
            product *= len(options)


# -- the packed-bitset kernel ---------------------------------------------------


class _PackedWeights:
    """Packed-bit masks over one group plus O(bytes) weighted popcounts.

    Masks are ``uint8`` arrays from ``np.packbits`` (bit 7 of byte ``b`` is
    distinct value ``8b``).  The weighted popcount of any mask — the
    quantity every DFS node needs — is answered from a per-byte partial-sum
    table: ``table[b*256 + m]`` holds the summed weights of the values
    whose bits are set in byte value ``m`` at byte ``b``, so one fancy-index
    gather plus a sum replaces a per-value masked reduction.  Padding bits
    carry zero weight and are harmless in intersections.
    """

    __slots__ = ("n", "n_bytes", "table", "offsets", "full")

    def __init__(self, weights: np.ndarray) -> None:
        n = int(weights.shape[0])
        self.n = n
        self.n_bytes = (n + 7) // 8
        padded = np.zeros(self.n_bytes * 8, dtype=np.int64)
        padded[:n] = weights
        self.table = (padded.reshape(self.n_bytes, 8) @ _PACKBITS_BITS).ravel()
        self.offsets = np.arange(self.n_bytes, dtype=np.int64) * 256
        self.full = np.packbits(np.ones(n, dtype=bool))

    def pack(self, mask: np.ndarray) -> np.ndarray:
        return np.packbits(mask)

    def weight(self, packed: np.ndarray) -> int:
        return int(self.table[self.offsets + packed].sum())

    def byte_tables(self) -> list[list[int]]:
        """The per-byte partial-sum tables as plain Python lists.

        Ordered least-significant-int-byte first: masks become Python ints
        via big-endian ``int.from_bytes``, which puts packbits byte 0 at
        the *most* significant position, so the ``m & 255 … m >>= 8`` walk
        of the int-DFS weight loop visits packbits bytes in reverse.
        """
        return self.table.reshape(self.n_bytes, 256)[::-1].tolist()


def _enumerate_group_vector(
    counter: dict[str, int],
    min_count: int,
    budget: int,
    config: EnumerationConfig,
    merge_alnum: bool,
) -> dict[Pattern, int]:
    """The packed-bitset kernel: whole-group arrays, no per-value loops.

    Bit-for-bit equivalent to the per-value reference kernel in
    ``tests/enum_oracle.py``: options are materialized in the same order
    with the same deterministic tie-breaks, so the DFS emits the same
    patterns with the same counts even under budget truncation.
    """
    group = _prepare_group(counter, min_count, config, merge_alnum)
    if group is None:
        return {}
    return _dfs_group(group, min_count, budget, None)


@dataclass
class _PreparedGroup:
    """One group's packed weights and materialized, unreduced options."""

    packed: _PackedWeights
    total: int
    options: list[list[_Option]]


def _prepare_group(
    counter: dict[str, int],
    min_count: int,
    config: EnumerationConfig,
    merge_alnum: bool,
) -> _PreparedGroup | None:
    """Materialize a group's per-position options; None when a position
    has none (the group can emit nothing)."""
    distinct = list(counter.keys())
    group = group_token_arrays(distinct, merge_alnum=merge_alnum)
    weights = np.fromiter(counter.values(), dtype=np.int64, count=len(distinct))
    packed = _PackedWeights(weights)
    group_total = int(weights.sum())
    option_floor = max(
        min_count, math.ceil(config.min_option_coverage * group_total)
    )

    options_per_position: list[list[_Option]] = []
    for j in range(group.width):
        options = _position_options_vector(
            group, j, weights, packed, option_floor, config
        )
        if not options:
            return None
        options_per_position.append(options)
    return _PreparedGroup(packed, group_total, options_per_position)


def _dfs_group(
    group: _PreparedGroup,
    min_count: int,
    budget: int,
    guide: _TrieNode | None,
) -> dict[Pattern, int]:
    """Reduce a prepared group's options to ``budget`` and enumerate them,
    steered by the trie node ``guide`` when given (module doc)."""
    options_per_position = group.options
    packed = group.packed
    _reduce_to_budget(options_per_position, budget)

    results: dict[Pattern, int] = {}
    width = len(options_per_position)
    from_atoms_key = Pattern._from_atoms_key
    pool = _PATTERN_POOL
    pool_get = pool.get

    def emit(prefix: list[Atom], keys: list[str], weight: int) -> None:
        key = "|".join(keys)
        pattern = pool_get(key)
        if pattern is None:
            pattern = from_atoms_key(tuple(prefix), key)
            if len(pool) < _PATTERN_POOL_MAX:
                pool[key] = pattern
        results[pattern] = weight

    # Both DFS bodies below walk the identical option lists in identical
    # order and differ only in mask representation, so they emit the same
    # patterns with the same counts.  Each node passes its already-computed
    # coverage weight down, so leaves never recompute it, and pattern keys
    # are joined from the per-option atom keys carried alongside the
    # prefix (Pattern._from_atoms_key skips the per-leaf re-derivation).
    # ``node`` is the trie node of the prefix, or None when unguided: an
    # option whose atom key is not one of its children is skipped before
    # any mask work, and a leaf is emitted only at a terminal node.

    if packed.n_bytes <= _INT_DFS_MAX_BYTES:
        # Small masks: numpy's fixed per-call overhead exceeds the work, so
        # intersect Python ints and answer weighted popcounts from plain
        # per-byte list tables.
        tables = packed.byte_tables()
        int_options = [
            [
                (o.atom, o.atom.key(), int.from_bytes(o.mask.tobytes(), "big"))
                for o in opts
            ]
            for opts in options_per_position
        ]

        def dfs_int(
            position: int,
            mask: int,
            weight: int,
            prefix: list[Atom],
            keys: list[str],
            node: _TrieNode | None,
        ) -> None:
            if len(results) >= budget:
                return
            if position == width:
                if node is None or node.terminal:
                    emit(prefix, keys, weight)
                return
            children = None if node is None else node.children
            child = None
            for atom, atom_key, option_mask in int_options[position]:
                if children is not None:
                    child = children.get(atom_key)
                    if child is None:
                        continue
                new_mask = mask & option_mask
                w = 0
                m = new_mask
                i = 0
                while m:
                    w += tables[i][m & 255]
                    m >>= 8
                    i += 1
                if w < min_count:
                    continue
                prefix.append(atom)
                keys.append(atom_key)
                dfs_int(position + 1, new_mask, w, prefix, keys, child)
                prefix.pop()
                keys.pop()
                if len(results) >= budget:
                    return

        dfs_int(
            0, int.from_bytes(packed.full.tobytes(), "big"), group.total, [], [], guide
        )
        return results

    keyed_options = [
        [(o.atom, o.atom.key(), o.mask) for o in opts] for opts in options_per_position
    ]

    def dfs(
        position: int,
        mask: np.ndarray,
        weight: int,
        prefix: list[Atom],
        keys: list[str],
        node: _TrieNode | None,
    ) -> None:
        if len(results) >= budget:
            return
        if position == width:
            if node is None or node.terminal:
                emit(prefix, keys, weight)
            return
        children = None if node is None else node.children
        child = None
        for atom, atom_key, option_mask in keyed_options[position]:
            if children is not None:
                child = children.get(atom_key)
                if child is None:
                    continue
            new_mask = mask & option_mask
            w = packed.weight(new_mask)
            if w < min_count:
                continue
            prefix.append(atom)
            keys.append(atom_key)
            dfs(position + 1, new_mask, w, prefix, keys, child)
            prefix.pop()
            keys.pop()
            if len(results) >= budget:
                return

    dfs(0, packed.full, group.total, [], [], guide)
    return results


def _position_options_vector(
    group: GroupTokenArrays,
    j: int,
    weights: np.ndarray,
    packed: _PackedWeights,
    option_floor: int,
    config: EnumerationConfig,
) -> list[_Option]:
    """Vectorized options at one aligned position, in reference-kernel order."""
    cls_code = int(group.classes[j])
    hierarchy = config.hierarchy

    if cls_code == CLS_SYMBOL:
        return [_Option(Atom.const(group.token_text(0, j)), packed.full.copy())]

    lengths_j = group.lengths[:, j]
    options: list[_Option] = []

    if cls_code == CLS_ALNUM:
        options.append(_Option(Atom.alnum_plus(), packed.full.copy()))
        for length, w in _frequent_lengths(lengths_j, weights, config.max_length_options):
            if w >= option_floor:
                options.append(
                    _Option(Atom.alnum(length), packed.pack(lengths_j == length))
                )
        _append_const_options(
            group, j, weights, packed, option_floor, config, options
        )
        return options

    # Most general first: the cross-class and unbounded atoms.
    if hierarchy.use_alnum_plus:
        options.append(_Option(Atom.alnum_plus(), packed.full.copy()))
    if cls_code == CLS_DIGIT:
        if hierarchy.use_num:
            options.append(_Option(Atom.num(), packed.full.copy()))
        options.append(_Option(Atom.digit_plus(), packed.full.copy()))
    else:
        options.append(_Option(Atom.letter_plus(), packed.full.copy()))

    frequent = [
        (length, w)
        for length, w in _frequent_lengths(lengths_j, weights, config.max_length_options)
        if w >= option_floor
    ]
    case_flags = None
    if cls_code != CLS_DIGIT and hierarchy.use_case_classes and frequent:
        starts_j = group.starts[:, j]
        ends_j = starts_j + lengths_j
        # A letter run is isupper() iff it contains no lowercase character
        # (and vice versa): two prefix-sum gathers replace per-token
        # str.isupper()/str.islower() scans.
        case_flags = (
            (group.lower_cum[ends_j] - group.lower_cum[starts_j]) == 0,
            (group.upper_cum[ends_j] - group.upper_cum[starts_j]) == 0,
        )
    for length, _w in frequent:
        mask = lengths_j == length
        if hierarchy.use_alnum_fixed:
            options.append(_Option(Atom.alnum(length), packed.pack(mask)))
        if cls_code == CLS_DIGIT:
            options.append(_Option(Atom.digit(length), packed.pack(mask)))
        else:
            options.append(_Option(Atom.letter(length), packed.pack(mask)))
            if case_flags is not None:
                upper_mask = mask & case_flags[0]
                if int(weights[upper_mask].sum()) >= option_floor:
                    options.append(_Option(Atom.upper(length), packed.pack(upper_mask)))
                lower_mask = mask & case_flags[1]
                if int(weights[lower_mask].sum()) >= option_floor:
                    options.append(_Option(Atom.lower(length), packed.pack(lower_mask)))

    _append_const_options(group, j, weights, packed, option_floor, config, options)
    return options


def _frequent_lengths(
    lengths_j: np.ndarray, weights: np.ndarray, k: int
) -> list[tuple[int, int]]:
    """Top-``k`` token lengths by weight, ties toward the shorter length.

    Equivalent to ``most_common_stable(length_weights, k)`` over the
    per-value lengths, computed as one ``np.bincount`` over the position's lengths.
    """
    if k <= 0:
        return []
    by_length = np.bincount(lengths_j, weights=weights).astype(np.int64)
    present = np.flatnonzero(by_length)
    order = np.lexsort((present, -by_length[present]))
    return [
        (int(length), int(by_length[length])) for length in present[order][:k]
    ]


def _append_const_options(
    group: GroupTokenArrays,
    j: int,
    weights: np.ndarray,
    packed: _PackedWeights,
    option_floor: int,
    config: EnumerationConfig,
    options: list[_Option],
) -> None:
    """Append the position's constant options (reference-kernel order).

    Texts are pooled without a Python dict: the position's tokens land in a
    zero-padded ``(n, words*8)`` byte matrix (tokens here are ASCII
    alphanumeric runs, so one byte per character and no NUL collisions),
    viewed as big-endian ``uint64`` words whose tuple order equals the
    texts' lexicographic order (zero padding sorts shorter prefixes first,
    and distinct texts never differ only in padding).  One ``np.lexsort``
    plus adjacent-row dedup assigns each text a code in text-ascending
    order — exactly the (weight desc, text asc) ranking the determinism
    contract requires, via one ``np.bincount``.  This replaces the sort
    ``np.unique(..., axis=0)`` runs over void views, which dominated
    profiles on distinct-heavy groups.
    """
    k = config.max_const_options
    if k <= 0:
        return
    lengths_j = group.lengths[:, j]
    max_const_length = config.hierarchy.max_const_length
    if int(lengths_j.min()) > max_const_length:
        return  # no token can yield a constant atom
    starts_j = group.starts[:, j]
    n = lengths_j.shape[0]
    maxlen = int(lengths_j.max())
    n_words = (maxlen + 7) // 8
    span = np.arange(n_words * 8, dtype=np.int64)
    char_idx = starts_j[:, None] + span[None, :]
    valid = span[None, :] < lengths_j[:, None]
    matrix = np.where(
        valid, group.codes[np.minimum(char_idx, group.codes.size - 1)], 0
    ).astype(np.uint8)
    words = matrix.view(">u8").astype(np.uint64)
    order = np.lexsort(tuple(words[:, w] for w in range(n_words - 1, -1, -1)))
    sorted_words = words[order]
    new_text = np.empty(n, dtype=bool)
    new_text[0] = True
    np.any(sorted_words[1:] != sorted_words[:-1], axis=1, out=new_text[1:])
    text_of_rank = np.cumsum(new_text) - 1
    inverse = np.empty(n, dtype=np.int64)
    inverse[order] = text_of_rank
    n_texts = int(text_of_rank[-1]) + 1
    by_text = np.bincount(inverse, weights=weights, minlength=n_texts).astype(np.int64)
    top = np.lexsort((np.arange(n_texts), -by_text))[:k]
    representative = np.empty(n_texts, dtype=np.int64)
    representative[inverse] = np.arange(n)
    for code in top:
        w = int(by_text[code])
        i = int(representative[code])
        if w >= option_floor and int(lengths_j[i]) <= max_const_length:
            options.append(
                _Option(Atom.const(group.token_text(i, j)), packed.pack(inverse == code))
            )


def dominant_signature_share(values: Iterable[str]) -> float:
    """Share of non-empty values carrying the most common signature.

    A homogeneity probe used by the horizontal-cut variant to decide how
    much of the column the dominant coarse structure explains.  Empty
    values carry no structure: consistent with the hypothesis-space
    semantics, they are excluded from both the numerator and the
    denominator (``signature("") == ()`` is never the dominant signature),
    and a column of only empty values has share ``0.0``.
    """
    counts: Counter[tuple[str, ...]] = Counter()
    total = 0
    for v in values:
        if not v:
            continue
        counts[signature(v)] += 1
        total += 1
    if total == 0:
        return 0.0
    return max(counts.values()) / total
