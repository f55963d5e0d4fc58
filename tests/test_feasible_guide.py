"""Exactness oracle for guided enumeration and the feasible-key set.

A solver answers from the index's :class:`~repro.index.index.FeasibleSet`
for its ``(m, r)``: a ``key → IndexEntry`` table of the entries with
coverage ≥ m and FPR ≤ r, plus a prefix trie over their atom keys that
steers the one enumeration kernel.  The guide is exact by construction
(``repro.core.enumeration``, "Guided enumeration"); these tests hold it to
that against the unguided path:

* every enumeration a solver makes — whole columns and vertical-DP
  sub-columns — equals the unguided space restricted to the feasible keys,
  or, when the column exceeds the fallback bound, the unguided space
  itself (:class:`_OracleSpaces`);
* every answer (``InferenceResult.to_payload()``, ``TagResult``) equals
  the answer of a solver that enumerates unguided and looks every pattern
  up in the index (:func:`_lookup_candidates`), over every registry domain
  × {50, 400} values × 2 seeds × {``fmdv-vh``, ``fmdv``, ``fmdv-h``,
  ``AutoTagger``};
* the fallback, the numpy DFS body, the shared space cache and index
  generations each get a case of their own.

Saved indexes use the default store format, so ``REPRO_INDEX_FORMAT``
runs the set build over v2 and v3 alike.
"""

from __future__ import annotations

import random
import sys
import threading
from dataclasses import replace
from typing import Any, Sequence

import pytest

from repro.config import AutoValidateConfig
from repro.core import enumeration
from repro.core.enumeration import EnumerationConfig, PatternStats, hypothesis_space
from repro.datalake.domains import DOMAIN_REGISTRY
from repro.index.builder import build_index
from repro.index.index import FeasibleSet, PatternIndex
from repro.index.store import open_index, save_index
from repro.service import ValidationService
from repro.service.cache import HypothesisSpaceCache
from repro.validate.autotag import AutoTagger
from repro.validate.combined import FMDVCombined
from repro.validate.fmdv import FMDV, Candidate
from repro.validate.horizontal import FMDVHorizontal

CONFIG = AutoValidateConfig(fpr_target=0.1, min_column_coverage=3)
SOLVERS = {"fmdv-vh": FMDVCombined, "fmdv": FMDV, "fmdv-h": FMDVHorizontal}


@pytest.fixture(scope="module")
def lake_index() -> PatternIndex:
    """Six 40-value columns of every registry domain."""
    rng = random.Random(5)
    columns = [
        spec.sample_many(rng, 40)
        for spec in DOMAIN_REGISTRY.values()
        for _ in range(6)
    ]
    return build_index(columns, EnumerationConfig(min_coverage=0.1), corpus_name="guide")


def _columns(n_values: int, seed: int) -> list[tuple[str, list[str]]]:
    rng = random.Random(f"guide/{seed}/{n_values}")
    return [
        (name, spec.sample_many(rng, n_values))
        for name, spec in DOMAIN_REGISTRY.items()
    ]


def _feasible_of(solver: FMDV) -> FeasibleSet:
    return solver.index.feasible_set(
        solver.config.min_column_coverage, solver.config.fpr_target
    )


def _restricted(space: list[PatternStats], feasible: FeasibleSet) -> list[PatternStats]:
    return [ps for ps in space if ps.pattern.key() in feasible.entries]


def _lookup_candidates(
    self: FMDV, values: Sequence[str], min_coverage: float
) -> list[Candidate]:
    """``FMDV.feasible_candidates`` without the feasible set: the whole
    space enumerated unguided, every pattern looked up in the index."""
    space = hypothesis_space(values, self.config.enumeration, min_coverage)
    out = []
    for ps in space:
        if ps.pattern.is_trivial():
            continue
        entry = self.index.lookup(ps.pattern)
        if entry is None:
            continue
        if entry.coverage < self.config.min_column_coverage:
            continue
        if entry.fpr > self.config.fpr_target:
            continue
        out.append(Candidate(ps.pattern, entry.fpr, entry.coverage, ps.match_count / len(values)))
    return out


class _OracleSpaces:
    """A space provider that checks each guided enumeration against the
    unguided one before handing it to the solver."""

    def __init__(self, feasible: FeasibleSet) -> None:
        self.feasible = feasible
        self.calls = 0
        self.fallbacks = 0
        self.pruned = 0

    def get(
        self, values: Sequence[str], min_coverage: float, config: EnumerationConfig
    ) -> list[PatternStats]:
        guide = config.guide
        assert guide is self.feasible.guide
        before = guide.fallbacks
        guided = hypothesis_space(values, config, min_coverage)
        unguided = hypothesis_space(values, replace(config, guide=None), min_coverage)
        self.calls += 1
        if guide.fallbacks > before:
            self.fallbacks += 1
            assert guided == unguided
        else:
            assert guided == _restricted(unguided, self.feasible)
            self.pruned += len(unguided) - len(guided)
        return guided


def _run(
    index: PatternIndex,
    variant: str,
    columns: list[tuple[str, list[str]]],
    config: AutoValidateConfig = CONFIG,
    oracle: bool = False,
) -> tuple[list[Any], _OracleSpaces | None]:
    """Every column's answer from a fresh solver (a TagResult for
    ``autotag``, an InferenceResult payload otherwise)."""
    if variant == "autotag":
        tagger = AutoTagger(index, config)
        solver, answer = tagger._solver, tagger.tag
    else:
        solver = SOLVERS[variant](index, config)
        answer = lambda values: solver.infer(values).to_payload()  # noqa: E731
    spaces = None
    if oracle:
        spaces = _OracleSpaces(_feasible_of(solver))
        solver.space_cache = spaces
    return [(name, answer(values)) for name, values in columns], spaces


# ---------------------------------------------------------------------------
# the oracle sweep
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("variant", [*SOLVERS, "autotag"])
@pytest.mark.parametrize("n_values", [50, 400])
@pytest.mark.parametrize("seed", [1, 2])
def test_guided_answers_equal_unguided_lookups(
    lake_index, monkeypatch, variant, n_values, seed
):
    columns = _columns(n_values, seed)
    guided, spaces = _run(lake_index, variant, columns, oracle=True)
    assert spaces is not None and spaces.calls >= len(columns)
    assert spaces.pruned > 0  # the guide did cut something
    with monkeypatch.context() as patched:
        patched.setattr(FMDV, "feasible_candidates", _lookup_candidates)
        reference, _ = _run(lake_index, variant, columns)
    assert guided == reference
    found = [
        answer for _, answer in guided
        if (answer is not None if variant == "autotag" else answer["rule"] is not None)
    ]
    assert len(found) >= len(columns) // 4  # the sweep exercises real rules


def test_fallback_when_the_unreduced_space_exceeds_the_budget(lake_index, monkeypatch):
    """A small ``max_patterns``: ``_reduce_to_budget`` trims, the columns
    fall back to the unguided kernel, and the answers still agree."""
    config = CONFIG.with_overrides(
        enumeration=replace(CONFIG.enumeration, max_patterns=12)
    )
    trims = []
    reduce = enumeration._reduce_to_budget

    def counted(options_per_position, budget):
        before = sum(len(options) for options in options_per_position)
        reduce(options_per_position, budget)
        trims.append(before - sum(len(options) for options in options_per_position))

    monkeypatch.setattr(enumeration, "_reduce_to_budget", counted)
    columns = _columns(50, 3)
    for variant in ("fmdv-vh", "fmdv-h"):
        guided, spaces = _run(lake_index, variant, columns, config, oracle=True)
        assert spaces is not None
        assert spaces.fallbacks > 0
        assert spaces.fallbacks < spaces.calls  # small columns stay guided
        with monkeypatch.context() as patched:
            patched.setattr(FMDV, "feasible_candidates", _lookup_candidates)
            reference, _ = _run(lake_index, variant, columns, config)
        assert guided == reference
    assert any(trims)


def test_numpy_dfs_body_is_guided_exactly(monkeypatch):
    """More than 512 distinct values in one group: the numpy DFS body runs,
    and it prunes exactly what the int body would."""
    rng = random.Random(3)

    def column(four_digit_share: float) -> list[str]:
        return [
            f"AB-{rng.randrange(10_000):04d}" if rng.random() < four_digit_share
            else f"AB-{rng.randrange(100_000):05d}"
            for _ in range(700)
        ]

    # Half the corpus mixes 4-digit values in: every <digit>{5} pattern
    # carries impurity there, which keeps it out of the feasible set.
    index = build_index(
        [column(0.0) for _ in range(6)] + [column(0.5) for _ in range(6)],
        EnumerationConfig(min_coverage=0.1),
    )
    feasible = index.feasible_set(3, 0.1)
    config = replace(EnumerationConfig(), guide=feasible.guide)
    values = column(0.0)
    assert len(set(values)) > 8 * enumeration._INT_DFS_MAX_BYTES

    weight_calls = []
    weight = enumeration._PackedWeights.weight

    def counted(packed, mask):
        weight_calls.append(1)
        return weight(packed, mask)

    monkeypatch.setattr(enumeration._PackedWeights, "weight", counted)
    guided = hypothesis_space(values, config, 1.0)
    assert weight_calls  # the numpy body ran
    unguided = hypothesis_space(values, EnumerationConfig(), 1.0)
    restricted = _restricted(unguided, feasible)
    assert guided == restricted
    assert guided and len(restricted) < len(unguided)
    assert feasible.guide.fallbacks == 0


def test_escaped_pipe_constants_split_exactly():
    """``|`` inside a constant is escaped as ``\\p`` in keys, so splitting a
    key on ``|`` recovers its atom keys."""
    rng = random.Random(4)

    def column() -> list[str]:
        return [f"{rng.choice(['ab', 'cd', 'ef'])}|{rng.randrange(100):02d}" for _ in range(40)]

    index = build_index([column() for _ in range(6)], EnumerationConfig(min_coverage=0.1))
    feasible = index.feasible_set(3, 0.5)
    assert any("\\p" in key for key in feasible.entries)
    values = column()
    config = replace(EnumerationConfig(), guide=feasible.guide)
    guided = hypothesis_space(values, config, 1.0)
    assert guided == _restricted(hypothesis_space(values, EnumerationConfig(), 1.0), feasible)
    assert any("\\p" in ps.pattern.key() for ps in guided)


# ---------------------------------------------------------------------------
# the set itself
# ---------------------------------------------------------------------------


def test_set_holds_exactly_the_feasible_entries(lake_index, tmp_path):
    feasible = lake_index.feasible_set(3, 0.1)
    expected = {
        key: entry for key, entry in lake_index.items()
        if entry.coverage >= 3 and entry.fpr <= 0.1
    }
    assert feasible.entries == expected
    assert feasible.guide.n_keys == len(expected)
    assert lake_index.feasible_set(3, 0.1) is feasible  # memoized
    assert lake_index.feasible_set(3, 0.05) is not feasible

    path = tmp_path / "idx"
    save_index(lake_index, path, n_shards=4)
    opened = open_index(path)
    assert opened.feasible_set(3, 0.1).entries == expected
    # Streamed from an open index: nothing materialized, nothing left mapped.
    if opened.storage_format == "v3":
        assert opened.mapped_shard_count == 0
        assert opened._entries == {}


def test_query_path_makes_no_index_lookups(lake_index, tmp_path, monkeypatch):
    path = tmp_path / "idx"
    save_index(lake_index, path, n_shards=4)
    service = ValidationService.from_path(path, CONFIG, variant="fmdv-vh")
    feasible = service.warm()
    assert service.stats().feasible_keys == len(feasible.entries) > 0

    def refuse(self, key):
        raise AssertionError(f"query path looked up {key!r}")

    monkeypatch.setattr(type(service.index), "lookup_key", refuse)
    for _, values in _columns(50, 4)[:12]:
        service.infer(values)
    assert service.stats().inferences == 12


def test_autotagger_gets_a_set_of_its_own(lake_index):
    tagger = AutoTagger(lake_index, CONFIG, fnr_target=0.02)
    tagger.tag(_columns(50, 5)[0][1])
    tag_set = _feasible_of(tagger._solver)
    assert tag_set.max_fpr == 0.02
    assert tag_set is not lake_index.feasible_set(3, 0.1)
    assert tag_set.guide.token != lake_index.feasible_set(3, 0.1).guide.token


# ---------------------------------------------------------------------------
# caches and generations
# ---------------------------------------------------------------------------


class _UnguidedFMDV(FMDV):
    """FMDV answering from the feasible set but enumerating unguided."""

    def _feasible(self):
        feasible, _ = super()._feasible()
        return feasible, self.config.enumeration


def test_one_cache_serves_guided_and_unguided_without_collision(
    lake_index, small_index
):
    cache = HypothesisSpaceCache()
    guided = FMDV(lake_index, CONFIG, space_cache=cache)
    unguided = _UnguidedFMDV(lake_index, CONFIG, space_cache=cache)
    other = FMDV(small_index, CONFIG, space_cache=cache)  # same (m, r), other index
    columns = _columns(50, 6)[:10]
    for _, values in columns:
        answers = [s.infer(values).to_payload() for s in (guided, unguided, other)]
        assert answers[0] == answers[1]
        assert answers[2] == FMDV(small_index, CONFIG).infer(values).to_payload()
    assert len(cache) == 3 * len(columns)
    assert cache.misses == 3 * len(columns)

    values = columns[0][1]
    plain = CONFIG.enumeration
    with_guide = replace(plain, guide=lake_index.feasible_set(3, 0.1).guide)
    assert plain.fingerprint() != with_guide.fingerprint()
    assert cache.get(values, 1.0, plain) == hypothesis_space(values, plain, 1.0)
    assert cache.get(values, 1.0, with_guide) == hypothesis_space(values, with_guide, 1.0)
    assert cache.get(values, 1.0, plain) != cache.get(values, 1.0, with_guide)


def test_swap_index_serves_nothing_of_the_old_generation(lake_index, small_index):
    values = DOMAIN_REGISTRY["date_iso"].sample_many(random.Random(8), 50)
    service = ValidationService(lake_index, CONFIG, variant="fmdv")
    old = service.warm()
    before = service.infer(values)
    service.swap_index(small_index)
    after = service.infer(values)
    expected = FMDV(small_index, CONFIG).infer(values)
    assert after.to_payload() == expected.to_payload()
    assert before.to_payload() != after.to_payload()
    feasible, config = service.solver()._feasible()
    assert feasible is small_index.feasible_set(3, 0.1)
    assert config.guide is feasible.guide and config.guide != old.guide
    assert service.stats().feasible_keys == len(feasible.entries)


def test_on_disk_rebuild_serves_nothing_of_the_old_generation(
    lake_index, small_index, tmp_path
):
    path = tmp_path / "idx"
    save_index(lake_index, path, n_shards=4)
    values = DOMAIN_REGISTRY["date_iso"].sample_many(random.Random(9), 50)
    service = ValidationService.from_path(path, CONFIG, variant="fmdv-vh")
    old = service.warm()
    before = service.infer(values)
    save_index(small_index, path, n_shards=4)  # rebuilt in place
    after = service.infer(values)
    fresh = ValidationService.from_path(path, CONFIG, variant="fmdv-vh")
    assert after.to_payload() == fresh.infer(values).to_payload()
    assert before.to_payload() != after.to_payload()
    stats = service.stats()
    assert stats.invalidations == 1
    assert stats.feasible_keys == fresh.stats().feasible_keys
    feasible, config = service.solver()._feasible()
    assert config.guide is feasible.guide and config.guide != old.guide


def test_concurrent_builds_and_fallbacks_lose_nothing(small_corpus_columns):
    """Service threads share one index and one guide: racing first uses
    all get the one memoized set, and no fallback count is lost."""
    index = build_index(small_corpus_columns, EnumerationConfig(min_coverage=0.1))
    n_threads, n_counts = 8, 2000
    barrier = threading.Barrier(n_threads)
    sets: list[FeasibleSet] = []

    def worker() -> None:
        barrier.wait(timeout=30)
        feasible = index.feasible_set(15, 0.1)
        sets.append(feasible)
        for _ in range(n_counts):
            feasible.guide.note_fallback()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(sets) == n_threads
    assert all(feasible is sets[0] for feasible in sets)
    assert sets[0].guide.fallbacks == n_threads * n_counts
