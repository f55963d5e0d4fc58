"""The packed-bitset enumeration kernel and the determinism contract.

Three guarantees from the enumeration module doc, each load-bearing:

* **kernel identity** — the production kernel reproduces the per-value
  reference kernel of ``tests/enum_oracle.py`` (swapped in with
  ``monkeypatch``) bit for bit: identical pattern spaces, order included,
  for groups of every size (1–7, 8–512 and over 512 distinct values,
  where the DFS switches from Python ints to numpy masks), and
  byte-identical indexes through ``build_index_streaming``;
* **permutation invariance** — shuffling a column's values (or the corpus's
  columns) changes neither the pattern space nor the built index bytes,
  which is what makes the service's multiset-digest cache sound;
* **empty-value semantics** — ``""`` never collapses ``H(C)`` (it is
  excluded from retention denominators) but still counts as non-matching
  evidence for impurity.

Plus the builder's cross-column signature-sketch cache (hits replay
byte-equivalent results) and the packed-bitset edge cases.
"""

from __future__ import annotations

import random
import string

import pytest

from repro.core import enumeration
from repro.core.enumeration import (
    EnumerationConfig,
    GroupResultCache,
    active_kernel,
    dominant_signature_share,
    enumerate_column_patterns,
    hypothesis_space,
)
from repro.core.tokenizer import group_token_arrays
from repro.index.builder import IndexBuilder, build_index, build_index_streaming
from repro.index.store import save_index
from repro.service.service import ValidationService
from repro.validate.fmdv import FMDV
from repro.validate.hybrid import HybridValidator

from tests.enum_oracle import enumerate_group_oracle
from tests.test_streaming_build import (
    FAST,
    _assert_dirs_byte_identical,
    _random_columns,
)


def _space(values, config=None, **kw):
    cfg = config or EnumerationConfig(**kw)
    return [
        (str(ps.pattern), ps.match_count)
        for ps in enumerate_column_patterns(values, cfg)
    ]


def _oracle_space(values, config=None, **kw):
    """:func:`_space` with the per-value reference kernel swapped in."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(enumeration, "_enumerate_group_vector", enumerate_group_oracle)
        return _space(values, config, **kw)


def _group_sizes(monkeypatch) -> list[int]:
    """Record the distinct-value count of every group the kernel runs on."""
    sizes: list[int] = []
    kernel = enumeration._enumerate_group_vector

    def spy(counter, *args):
        sizes.append(len(counter))
        return kernel(counter, *args)

    monkeypatch.setattr(enumeration, "_enumerate_group_vector", spy)
    return sizes


# ---------------------------------------------------------------------------
# one kernel
# ---------------------------------------------------------------------------


class TestKernelSelection:
    """There is one kernel; the retired ``REPRO_ENUM_KERNEL`` is not read."""

    def test_default_is_vector(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENUM_KERNEL", raising=False)
        assert active_kernel() == "vector"

    @pytest.mark.parametrize("name", ["pure", "vector", " Vector ", "PURE"])
    def test_known_kernels_accepted(self, monkeypatch, name):
        """A leftover setting (benchmark harnesses still export one) is
        accepted and changes nothing."""
        values = ["ab-1", "cd-22", "EF-3"]
        monkeypatch.delenv("REPRO_ENUM_KERNEL", raising=False)
        unset = _space(values)
        monkeypatch.setenv("REPRO_ENUM_KERNEL", name)
        assert active_kernel() == "vector"
        assert _space(values) == unset


# ---------------------------------------------------------------------------
# kernel identity: production must reproduce the reference bit for bit
# ---------------------------------------------------------------------------


def _small_group_columns(rng: random.Random, n_distinct: int) -> list[list[str]]:
    """Columns whose every signature group has exactly ``n_distinct``
    distinct values, with skewed multiplicities."""
    letters = string.ascii_letters
    shapes = [
        lambda: f"{rng.randint(0, 99):02d}:{rng.randint(0, 999)}",
        lambda: "".join(rng.choice(letters) for _ in range(rng.randint(1, 4))),
        lambda: f"{rng.choice(['ID', 'id', 'Id'])}-{rng.randint(1, 10 ** rng.randint(1, 4))}",
        lambda: f"{rng.randint(1, 9)}{rng.choice('abcdef')}{rng.randint(0, 9)}",
    ]
    columns = []
    for make in shapes:
        distinct: set[str] = set()
        while len(distinct) < n_distinct:
            distinct.add(make())
        column = []
        for value in sorted(distinct):
            column.extend([value] * rng.choice([1, 1, 2, 5]))
        rng.shuffle(column)
        columns.append(column)
    return columns


class TestKernelIdentity:
    @pytest.mark.parametrize("seed", range(10))
    def test_pattern_spaces_identical(self, seed):
        """The full streaming-build column matrix (unicode, empties, dups,
        skew), swept at indexing and hypothesis-space coverages."""
        columns = _random_columns(random.Random(seed))
        for values in columns:
            for min_coverage in (0.1, 1.0):
                cfg = EnumerationConfig(
                    max_patterns=256, min_coverage=min_coverage
                )
                assert _space(values, cfg) == _oracle_space(values, cfg)

    def test_identical_under_exotic_hierarchies(self):
        """Knob corners: num/alnum-fixed on, case classes off, tiny option
        budgets — the option *order* must match under budget truncation."""
        from repro.core.hierarchy import GeneralizationHierarchy

        rng = random.Random(3)
        columns = _random_columns(rng)
        configs = [
            EnumerationConfig(
                max_patterns=16,
                max_const_options=1,
                max_length_options=1,
            ),
            EnumerationConfig(
                max_patterns=64,
                hierarchy=GeneralizationHierarchy(
                    use_case_classes=False,
                    use_num=True,
                    use_alnum_fixed=True,
                    use_alnum_plus=False,
                    max_const_length=2,
                ),
            ),
            EnumerationConfig(max_patterns=256, enumerate_alnum_runs=False),
        ]
        for values in columns:
            for cfg in configs:
                assert _space(values, cfg) == _oracle_space(values, cfg)

    @pytest.mark.parametrize("n_distinct", range(1, 8))
    def test_small_groups_identical(self, monkeypatch, n_distinct):
        """Groups of 1–7 distinct values, at every coverage and budget
        corner, including the single-value group."""
        rng = random.Random(n_distinct)
        columns = _small_group_columns(rng, n_distinct)
        configs = [
            EnumerationConfig(min_coverage=0.1, min_option_coverage=0.0),
            EnumerationConfig(min_coverage=1.0),
            EnumerationConfig(
                min_coverage=0.2, max_patterns=8, max_const_options=1,
                max_length_options=1,
            ),
        ]
        sizes = _group_sizes(monkeypatch)
        for values in columns:
            for cfg in configs:
                production = _space(values, cfg)
                assert production == _oracle_space(values, cfg)
                assert production
        assert n_distinct in sizes and max(sizes) <= n_distinct

    @pytest.mark.parametrize("n_shards", [1, 4])
    @pytest.mark.parametrize("format", ["v2", "v3"])
    def test_streamed_index_bytes_identical(
        self, tmp_path, monkeypatch, n_shards, format
    ):
        columns = _random_columns(random.Random(42))

        def build(path):
            build_index_streaming(
                columns, path, FAST, corpus_name="kernel-id",
                workers=1, spill_mb=0.005, format=format, n_shards=n_shards,
            )

        build(tmp_path / "vector")
        monkeypatch.setattr(
            enumeration, "_enumerate_group_vector", enumerate_group_oracle
        )
        build(tmp_path / "oracle")
        _assert_dirs_byte_identical(tmp_path / "oracle", tmp_path / "vector")


# ---------------------------------------------------------------------------
# permutation invariance
# ---------------------------------------------------------------------------


class TestPermutationInvariance:
    def test_issue_repro_tied_lengths(self):
        """The original bug: with ``max_length_options=1`` the tied lengths
        2 and 3 used to break by insertion order, so a rotation kept
        ``<alphanum>{2}`` vs ``<alphanum>{3}``."""
        base = ["ab-1", "cd-2", "efg-3", "hij-4"]
        rotated = base[1:] + base[:1]
        cfg = EnumerationConfig(max_length_options=1)
        assert _space(base, cfg) == _space(rotated, cfg)

    @pytest.mark.parametrize("kernel", ["pure", "vector"])
    @pytest.mark.parametrize("seed", range(6))
    def test_shuffled_values_same_space(self, kernel, seed):
        """Property: for random columns, any permutation yields the same
        pattern list — same patterns, same counts, same order — as the
        reference kernel (``pure``) or the production kernel (``vector``)
        computes for the unshuffled column."""
        reference_space = _oracle_space if kernel == "pure" else _space
        rng = random.Random(seed)
        for values in _random_columns(rng):
            reference = reference_space(values)
            for _ in range(3):
                shuffled = list(values)
                rng.shuffle(shuffled)
                assert _space(shuffled) == reference

    @pytest.mark.parametrize("format", ["v2", "v3"])
    def test_shuffled_corpus_identical_index_bytes(self, tmp_path, format):
        """Shuffle rows within every column: serial save and streamed build
        must emit byte-identical directories either way.  (Column *order*
        already cannot matter: fixed-point aggregation is commutative.)"""
        rng = random.Random(7)
        columns = _random_columns(rng)
        shuffled = []
        for values in columns:
            permuted = list(values)
            rng.shuffle(permuted)
            shuffled.append(permuted)

        for builder_name, build in (
            ("serial", lambda cols, path: save_index(
                build_index(cols, FAST, corpus_name="perm"),
                path, format=format, n_shards=4,
            )),
            ("streamed", lambda cols, path: build_index_streaming(
                cols, path, FAST, corpus_name="perm",
                workers=1, spill_mb=0.005, format=format, n_shards=4,
            )),
        ):
            original_path = tmp_path / f"{builder_name}-orig"
            shuffled_path = tmp_path / f"{builder_name}-shuf"
            build(columns, original_path)
            build(shuffled, shuffled_path)
            _assert_dirs_byte_identical(original_path, shuffled_path)

    def test_service_cache_serves_permutations_identically(
        self, small_index, small_config, rng
    ):
        """Two permutations of one column share a multiset digest; the
        cached space must be the one both would have computed."""
        from repro.datalake.domains import DOMAIN_REGISTRY

        values = DOMAIN_REGISTRY["datetime_slash"].sample_many(rng, 30)
        permuted = list(values)
        rng.shuffle(permuted)

        from repro.service.cache import HypothesisSpaceCache

        cache = HypothesisSpaceCache()
        first = FMDV(small_index, small_config, space_cache=cache).infer(values)
        misses_after_first = cache.misses
        assert misses_after_first > 0 and cache.hits == 0
        # A fresh solver sharing the cache must produce the identical rule
        # from the permuted column via cache *hits* — no new misses,
        # because the permutation shares the multiset digest and
        # enumeration is order-invariant.
        second = FMDV(small_index, small_config, space_cache=cache).infer(permuted)
        assert cache.hits >= 1
        assert cache.misses == misses_after_first
        assert first.found and second.found
        assert str(first.rule.pattern) == str(second.rule.pattern)
        # The full service path agrees across permutations too.
        service = ValidationService(small_index, small_config)
        assert str(service.infer(values).rule.pattern) == str(
            service.infer(permuted).rule.pattern
        )


# ---------------------------------------------------------------------------
# empty-value semantics
# ---------------------------------------------------------------------------


class TestEmptyValueSemantics:
    def test_hypothesis_space_survives_empty_value(self):
        """The original bug: one ``""`` made min_count unreachable and
        ``H(C)`` empty at min_coverage=1.0."""
        stats = hypothesis_space(["9:07", "8:30", "12:45", ""])
        assert stats
        # Retention counts are over non-empty values only.
        assert {ps.match_count for ps in stats} == {3}

    def test_space_equals_space_without_empties(self):
        values = ["a-1", "b-2", "c-3"]
        assert _space(values + ["", "", ""]) == _space(values)

    def test_all_empty_column_has_empty_space(self):
        assert enumerate_column_patterns(["", "", ""]) == []
        assert hypothesis_space(["", ""]) == []

    def test_impurity_still_counts_empties(self):
        """Definition 1 evidence: empties stay in the impurity denominator."""
        stats = hypothesis_space(["123", "456", ""])
        for ps in stats:
            assert ps.impurity(3) == pytest.approx(1.0 - 2 / 3)

    def test_index_coverage_counts_empty_carrying_columns(self):
        """A column that only differs by trailing empties contributes the
        same patterns (match counts excluded empties already)."""
        clean = build_index([["12", "34", "56"]], FAST)
        dirty = build_index([["12", "34", "56", ""]], FAST)
        assert {k for k, _ in clean.items()} == {k for k, _ in dirty.items()}

    def test_fmdv_infers_despite_empty_value(self, small_index, small_config, rng):
        from repro.datalake.domains import DOMAIN_REGISTRY

        values = DOMAIN_REGISTRY["datetime_slash"].sample_many(rng, 30) + [""]
        result = FMDV(small_index, small_config).infer(values)
        assert result.found, result.reason

    def test_hybrid_stays_on_pattern_path_despite_empty_value(
        self, small_index, small_corpus_columns, small_config, rng
    ):
        from repro.datalake.domains import DOMAIN_REGISTRY

        values = DOMAIN_REGISTRY["datetime_slash"].sample_many(rng, 30) + [""]
        result = HybridValidator(
            small_index, small_corpus_columns, small_config
        ).infer(values)
        assert result.found, result.reason
        assert result.kind == "pattern"

    def test_service_infers_despite_empty_value(
        self, small_index, small_config, rng
    ):
        from repro.datalake.domains import DOMAIN_REGISTRY

        values = DOMAIN_REGISTRY["datetime_slash"].sample_many(rng, 30) + [""]
        result = ValidationService(small_index, small_config).infer(values)
        assert result.found, result.reason

    def test_dominant_signature_share_ignores_empties(self):
        # "" used to count signature () toward (and sometimes as) the
        # dominant signature.
        assert dominant_signature_share(["a1", "b2", ""]) == 1.0
        assert dominant_signature_share(["", ""]) == 0.0
        assert dominant_signature_share([]) == 0.0
        assert dominant_signature_share(["a1", "a-1", "", ""]) == 0.5


# ---------------------------------------------------------------------------
# packed-bitset edges
# ---------------------------------------------------------------------------


class TestBitsetEdges:
    @pytest.mark.parametrize("n_distinct", [63, 64, 65, 200, 513, 600, 2000])
    def test_groups_wider_than_a_word(self, monkeypatch, n_distinct):
        """Distinct counts straddling the 64-bit word / 8-bit byte packing
        boundaries; weights exercise the partial-sum table.  Past 512
        distinct values (64 mask bytes) the DFS runs on numpy masks, whose
        every node asks ``_PackedWeights.weight``."""
        rng = random.Random(n_distinct)
        values = []
        for i in range(n_distinct):
            values.extend([f"X{i:03d}"] * rng.randint(1, 4))
        cfg = EnumerationConfig(min_coverage=0.01, max_const_options=8)
        weight_calls = []
        weight = enumeration._PackedWeights.weight

        def counted(packed, mask):
            weight_calls.append(packed.n_bytes)
            return weight(packed, mask)

        monkeypatch.setattr(enumeration._PackedWeights, "weight", counted)
        production = _space(values, cfg)
        assert production == _oracle_space(values, cfg)
        assert production  # the sweep actually enumerated something
        numpy_dfs = n_distinct > 8 * enumeration._INT_DFS_MAX_BYTES
        assert bool(weight_calls) == numpy_dfs

    @pytest.mark.parametrize(
        ("values", "why"),
        [
            ([], "no characters"),
            (["ab", ""], "empty value"),
            (["a1", "b"], "token count"),
            (["ab", "12"], "token classes"),
        ],
    )
    def test_group_token_arrays_rejects_a_non_signature_group(self, values, why):
        with pytest.raises(ValueError, match=f"signature group.*{why}"):
            group_token_arrays(values, merge_alnum=False)


# ---------------------------------------------------------------------------
# the builder's signature-sketch cache
# ---------------------------------------------------------------------------


class TestGroupResultCache:
    def test_repeated_shapes_hit(self):
        """Lakes repeat column shapes: the second identical column replays
        every group from the cache."""
        column = [f"{i:02d}:{i:02d}" for i in range(30)]
        builder = IndexBuilder(FAST)
        builder.add_column(column)
        misses = builder.sketch_misses
        assert misses > 0 and builder.sketch_hits == 0
        builder.add_column(list(reversed(column)))  # permutation still hits
        assert builder.sketch_hits == misses
        assert builder.sketch_misses == misses

    def test_cached_build_matches_uncached_enumeration(self):
        """A hit must be byte-equivalent to recomputation: the built index
        equals one from cache-free enumeration."""
        rng = random.Random(11)
        columns = _random_columns(rng)
        columns = columns + [list(reversed(c)) for c in columns]
        cached = build_index(columns, FAST, corpus_name="c")

        uncached_builder = IndexBuilder(FAST, corpus_name="c")
        uncached_builder._group_cache = GroupResultCache()  # fresh per column
        for values in columns:
            uncached_builder._group_cache = GroupResultCache()
            uncached_builder.add_column(values)
        uncached = uncached_builder.build()
        assert dict(cached.items()) == dict(uncached.items())

    def test_different_thresholds_do_not_collide(self):
        """min_count is part of the key: the same group at two coverages
        must not replay the wrong result."""
        values = ["ab-1", "cd-2", "efg-3", "hij-4"] * 4
        cache = GroupResultCache()
        strict = enumerate_column_patterns(
            values, EnumerationConfig(min_coverage=1.0), group_cache=cache
        )
        lax = enumerate_column_patterns(
            values, EnumerationConfig(min_coverage=0.1), group_cache=cache
        )
        assert len(lax) > len(strict)

    def test_eviction_bounds_entries(self):
        cache = GroupResultCache(max_entries=2)
        cfg = EnumerationConfig()
        for i in range(5):
            enumerate_column_patterns(
                [f"{i}{j}" for j in range(10)], cfg, group_cache=cache
            )
        assert len(cache) <= 2

    def test_streaming_stats_carry_sketch_counters(self, tmp_path):
        column = [f"{i:03d}" for i in range(20)]
        stats = build_index_streaming(
            [column, column, column], tmp_path / "idx", FAST,
            workers=1, format="v3", n_shards=1,
        )
        assert stats.sketch_misses > 0
        assert stats.sketch_hits >= stats.sketch_misses  # two replays
