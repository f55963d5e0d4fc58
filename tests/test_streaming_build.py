"""The streaming bounded-memory build pipeline and the k-way merge.

Property suite (seeded, deterministic): the spilled/streamed build —
serial or across a spawn pool — must be **byte-identical** to the
reference ``build_index`` → ``save_index`` pipeline for every shard
count, including unicode values, duplicate-heavy columns and empty
columns.  Exactness is what makes this possible: impurities accumulate as
fixed-point integers, so the aggregate is independent of column order,
chunking and run boundaries (see ``repro/index/builder.py``).

Also here: the spill watermark actually bounds residency (counter model
and tracemalloc), run-file round-trips, N-ary ``merge_many`` with
per-file error attribution, and the v3 background prefetch.
"""

from __future__ import annotations

import random
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core.enumeration import EnumerationConfig
from repro.index.builder import (
    ENTRY_OVERHEAD_BYTES,
    SpillingIndexBuilder,
    build_index,
    build_index_streaming,
    impurity_to_fixed,
)
from repro.index.index import IndexMeta, PatternIndex
from repro.index.store import (
    default_format,
    iter_run_file,
    merge_many,
    open_index,
    save_index,
    write_run_file,
)

#: A fast config (small pattern budget) keeps the property sweep quick.
FAST = EnumerationConfig(max_patterns=256)


def _build_format() -> str:
    """The directory format under test: honours REPRO_INDEX_FORMAT (the CI
    build-matrix pins v2/v3); anything else falls back to v2."""
    format = default_format()
    return format if format in ("v2", "v3") else "v2"


def _random_columns(rng: random.Random) -> list[list[str]]:
    """Columns exercising every shape the spill/merge path must preserve:
    duplicates, unicode, empty values, empty columns, skewed sizes."""
    columns: list[list[str]] = []
    for _ in range(rng.randint(5, 25)):
        kind = rng.randrange(5)
        n = rng.randint(1, 40)
        if kind == 0:  # time-like, heavy duplicates
            pool = [f"{rng.randint(0, 23)}:{rng.randint(0, 59):02d}" for _ in range(4)]
            columns.append([rng.choice(pool) for _ in range(n)])
        elif kind == 1:  # hex/GUID-ish
            columns.append([f"{rng.getrandbits(16):04x}-{rng.getrandbits(16):04x}"
                            for _ in range(n)])
        elif kind == 2:  # unicode + symbols
            pool = ["日本語-7", "héllo_9", "🙂:01", "Ω|x", ""]
            columns.append([rng.choice(pool) for _ in range(n)])
        elif kind == 3:  # one skewed giant column
            columns.append([f"ID{rng.randint(100, 999)}" for _ in range(n * 10)])
        else:  # empty column
            columns.append([])
    return columns


def _assert_dirs_byte_identical(a: Path, b: Path) -> None:
    files_a = sorted(p.name for p in a.iterdir())
    files_b = sorted(p.name for p in b.iterdir())
    assert files_a == files_b
    for name in files_a:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


class TestStreamedBuildByteIdentity:
    """The tentpole guarantee, swept over ≥20 seeded cases."""

    @pytest.mark.parametrize("n_shards", [1, 4, 16])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5, 6])
    def test_spilled_serial_stream_matches_reference(self, tmp_path, seed, n_shards):
        rng = random.Random(1000 * seed + n_shards)
        columns = _random_columns(rng)
        format = _build_format()

        reference = tmp_path / "reference"
        save_index(
            build_index(columns, FAST, corpus_name="prop"),
            reference, format=format, n_shards=n_shards,
        )
        streamed = tmp_path / "streamed"
        stats = build_index_streaming(
            columns, streamed, FAST, corpus_name="prop",
            workers=1, spill_mb=0.005, format=format, n_shards=n_shards,
        )
        _assert_dirs_byte_identical(reference, streamed)
        # The tiny watermark really forced multi-run merging (unless the
        # case degenerated to almost no patterns).
        assert stats.n_runs >= 1 or stats.total_entries == 0
        assert stats.format == format
        reloaded = open_index(streamed)
        assert len(reloaded) == stats.total_entries
        assert reloaded.meta.columns_scanned == stats.columns_scanned

    @pytest.mark.parametrize("seed", [7, 8])
    def test_spawn_pool_stream_matches_reference(self, tmp_path, seed, monkeypatch):
        """Two spawn workers, small windows: chunking must not leak into
        the output bytes (exact fixed-point aggregation)."""
        import repro.index.builder as builder_module

        monkeypatch.setattr(builder_module, "WINDOW_COLUMNS", 7)
        rng = random.Random(seed)
        columns = _random_columns(rng) * 2
        format = _build_format()
        reference = tmp_path / "reference"
        save_index(
            build_index(columns, FAST, corpus_name="prop"),
            reference, format=format, n_shards=4,
        )
        streamed = tmp_path / "streamed"
        build_index_streaming(
            columns, streamed, FAST, corpus_name="prop",
            workers=2, spill_mb=0.005, format=format, n_shards=4,
        )
        _assert_dirs_byte_identical(reference, streamed)

    def test_cascaded_consolidation_preserves_byte_identity(
        self, tmp_path, monkeypatch
    ):
        """More runs than the merge fan-in: runs consolidate in bounded
        batches (fd bound) and the output bytes must not change."""
        import repro.index.builder as builder_module

        monkeypatch.setattr(builder_module, "MERGE_FAN_IN", 3)
        rng = random.Random(21)
        columns = _random_columns(rng) * 3
        format = _build_format()
        reference = tmp_path / "reference"
        save_index(
            build_index(columns, FAST, corpus_name="prop"),
            reference, format=format, n_shards=4,
        )
        streamed = tmp_path / "streamed"
        stats = build_index_streaming(
            columns, streamed, FAST, corpus_name="prop",
            workers=1, spill_mb=0.003, format=format, n_shards=4,
        )
        assert stats.n_runs > 3, "fan-in never exceeded - cascade untested"
        _assert_dirs_byte_identical(reference, streamed)

    def test_empty_corpus_round_trips(self, tmp_path):
        out = tmp_path / "empty"
        stats = build_index_streaming([], out, FAST, format=_build_format(), n_shards=4)
        assert stats.total_entries == 0 and stats.n_runs == 0
        index = open_index(out)
        assert len(index) == 0
        assert index.lookup_key("anything") is None

    def test_v1_rejected(self, tmp_path):
        with pytest.raises(ValueError, match=r"v2/v3.*v1"):
            build_index_streaming([["1:23"]], tmp_path / "x", format="v1")

    @pytest.mark.parametrize("format", ["v2", "v3"])
    @pytest.mark.parametrize("workers", [0, 1, 2])
    def test_cli_matches_reference(self, cli_lake, tmp_path, format, workers):
        """``auto-validate index`` has one build path: at every worker
        count (tiny watermark, so several runs merge) the directory is
        file-for-file what ``save_index(build_index(columns))`` writes."""
        from repro.cli import main

        lake, references = cli_lake
        out = tmp_path / "cli"
        assert main([
            "index", "--corpus", str(lake), "--out", str(out),
            "--format", format, "--shards", "4",
            "--workers", str(workers), "--spill-mb", "0.05",
        ]) == 0
        _assert_dirs_byte_identical(references[format], out)


@pytest.fixture(scope="module")
def cli_lake(tmp_path_factory):
    """A small on-disk lake plus its in-memory reference build per format."""
    from repro.datalake import load_corpus
    from repro.datalake.generator import ENTERPRISE_PROFILE, generate_corpus
    from repro.datalake.io import save_corpus

    root = tmp_path_factory.mktemp("cli-lake")
    lake = root / "lake"
    save_corpus(generate_corpus(replace(ENTERPRISE_PROFILE, n_tables=6), seed=11), lake)
    corpus = load_corpus(lake)
    index = build_index(corpus.column_values(), corpus_name=corpus.name)
    references = {format: root / f"reference-{format}" for format in ("v2", "v3")}
    for format, path in references.items():
        save_index(index, path, format=format, n_shards=4)
    return lake, references


class TestSpillResidency:
    def _fat_columns(self, n_columns: int = 120, seed: int = 99) -> list[list[str]]:
        rng = random.Random(seed)
        return [
            [f"{rng.randint(10, 99)}-{rng.getrandbits(20):05x}" for _ in range(25)]
            for _ in range(n_columns)
        ]

    def test_counter_model_stays_under_watermark(self, tmp_path):
        """The modelled accumulator footprint never exceeds the watermark
        by more than one column's worth of new entries."""
        spill_bytes = 16 << 10
        builder = SpillingIndexBuilder(
            FAST, run_dir=tmp_path, spill_bytes=spill_bytes
        )
        worst_column = 0
        for values in self._fat_columns():
            retained = builder.add_column(values)
            worst_column = max(
                worst_column, retained * (ENTRY_OVERHEAD_BYTES + 64)
            )
        runs = builder.finish()
        assert len(runs) > 1, "watermark never tripped - test is vacuous"
        assert builder.peak_resident_bytes <= spill_bytes + worst_column

    def test_tracemalloc_streaming_stays_under_unbounded_build(self, tmp_path):
        """The streamed build's traced peak stays below the in-memory
        build's on the same corpus (which holds every pattern at once).

        A corpus no other test shares + cleared tokenizer caches make the
        first (full-build) measurement genuinely cold; the streamed build
        then runs with *warm* caches, which only biases against the claim
        being tested ever passing vacuously.
        """
        from repro.core import tokenizer

        columns = self._fat_columns(n_columns=160, seed=77)
        for cache in (tokenizer.tokenize, tokenizer.alnum_runs,
                      tokenizer.signature, tokenizer.alnum_signature):
            cache.cache_clear()
        tracemalloc.start()
        build_index(columns, FAST)
        _, full_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()

        tracemalloc.start()
        stats = build_index_streaming(
            columns, tmp_path / "streamed", FAST,
            workers=1, spill_mb=0.03, format=_build_format(), n_shards=4,
        )
        _, stream_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert stats.n_runs > 1
        assert stream_peak < full_peak

    def test_build_stats_report_the_bound(self, tmp_path):
        """Peak ≤ watermark + one column's contribution (a column is the
        atomic aggregation step; ≤ max_patterns new entries)."""
        stats = build_index_streaming(
            self._fat_columns(), tmp_path / "out", FAST,
            workers=1, spill_mb=0.1, format=_build_format(), n_shards=4,
        )
        assert stats.spill_bytes == int(0.1 * (1 << 20))
        one_column = FAST.max_patterns * (ENTRY_OVERHEAD_BYTES + 64)
        assert 0 < stats.peak_builder_bytes <= stats.spill_bytes + one_column
        assert stats.n_runs > 1
        assert stats.max_run_entries > 0


class TestRunFiles:
    def test_round_trip_unicode_and_huge_fixed(self, tmp_path):
        fpr_fixed = {
            "D2|:|D2": impurity_to_fixed(0.25),
            "日本|-|語": (1 << 160) + 12345,   # exercise all three u64 limbs
            "a|\\|b": 0,
            "🙂": impurity_to_fixed(0.1) * 10**6,
        }
        coverages = {key: i + 1 for i, key in enumerate(fpr_fixed)}
        path = tmp_path / "r.run"
        assert write_run_file(path, 7, fpr_fixed, coverages) == 4
        back = list(iter_run_file(path))
        assert [k for k, _, _ in back] == sorted(
            fpr_fixed, key=lambda k: k.encode("utf-8", "surrogatepass")
        )
        assert {k: (f, c) for k, f, c in back} == {
            k: (fpr_fixed[k], coverages[k]) for k in fpr_fixed
        }

    def test_runs_are_key_sorted_for_heap_merge(self, tmp_path):
        rng = random.Random(3)
        fpr_fixed = {f"k{rng.randint(0, 10**6)}": rng.getrandbits(80)
                     for _ in range(200)}
        coverages = {k: 1 for k in fpr_fixed}
        path = tmp_path / "r.run"
        write_run_file(path, 0, fpr_fixed, coverages)
        keys = [k for k, _, _ in iter_run_file(path)]
        assert keys == sorted(keys)

    def test_serving_reader_rejects_run_files(self, tmp_path):
        """A run file must never be mistaken for a serving shard."""
        from repro.index.store import _V3ShardReader

        path = tmp_path / "r.run"
        write_run_file(path, 0, {"a": 1}, {"a": 1})
        with pytest.raises(ValueError):
            _V3ShardReader(path, 0, 1)


def _indexes_for_merge(n: int, overlap: bool = True) -> list[PatternIndex]:
    indexes = []
    for i in range(n):
        columns = [[f"{i}:{j:02d}" for j in range(12)] for _ in range(3)]
        if overlap:
            columns.append(["7:35"] * 9 + ["PM"])  # shared pattern space
        indexes.append(build_index(columns, FAST, corpus_name=f"part-{i}"))
    return indexes


class TestMergeMany:
    @pytest.mark.parametrize("format", ["v2", "v3"])
    def test_three_way_equals_in_memory_fold(self, tmp_path, format):
        parts = _indexes_for_merge(3)
        paths = []
        for i, part in enumerate(parts):
            path = tmp_path / f"part-{i}"
            save_index(part, path, format=format, n_shards=4)
            paths.append(path)
        stats = merge_many(paths, tmp_path / "whole")
        expected = parts[0].merge(parts[1]).merge(parts[2])
        merged = open_index(tmp_path / "whole")
        assert stats.n_inputs == 3
        assert dict(merged.items()) == dict(expected.items())
        assert merged.meta == expected.meta
        # Bounded: the peak is one merged shard, not the union.
        assert stats.max_resident_entries <= stats.total_entries

    def test_incompatible_fingerprint_names_the_file(self, tmp_path):
        a = build_index([["1:23"] * 10], EnumerationConfig(max_patterns=256))
        b = build_index([["4:56"] * 10], EnumerationConfig(max_patterns=256))
        odd = build_index([["7:89"] * 10], EnumerationConfig(max_patterns=128))
        for name, index in (("a", a), ("b", b), ("odd-one", odd)):
            save_index(index, tmp_path / name, format="v3", n_shards=4)
        with pytest.raises(ValueError, match="odd-one"):
            merge_many(
                [tmp_path / "a", tmp_path / "b", tmp_path / "odd-one"],
                tmp_path / "whole",
            )

    def test_mismatched_shard_count_names_the_file(self, tmp_path):
        parts = _indexes_for_merge(3)
        save_index(parts[0], tmp_path / "a", format="v3", n_shards=4)
        save_index(parts[1], tmp_path / "b", format="v3", n_shards=4)
        save_index(parts[2], tmp_path / "c", format="v3", n_shards=8)
        with pytest.raises(ValueError, match="n_shards"):
            merge_many(
                [tmp_path / "a", tmp_path / "b", tmp_path / "c"], tmp_path / "whole"
            )

    def test_fewer_than_two_inputs_rejected(self, tmp_path):
        save_index(_indexes_for_merge(1)[0], tmp_path / "a", format="v3", n_shards=4)
        with pytest.raises(ValueError, match="two"):
            merge_many([tmp_path / "a"], tmp_path / "whole")

    def test_output_must_not_overwrite_any_input(self, tmp_path):
        parts = _indexes_for_merge(3)
        paths = []
        for i, part in enumerate(parts):
            path = tmp_path / f"part-{i}"
            save_index(part, path, format="v3", n_shards=4)
            paths.append(path)
        with pytest.raises(ValueError, match="overwrite"):
            merge_many(paths, paths[2])

    def test_cli_merge_three_positional_inputs(self, tmp_path, capsys):
        from repro.cli import main

        parts = _indexes_for_merge(3)
        paths = []
        for i, part in enumerate(parts):
            path = tmp_path / f"part-{i}"
            save_index(part, path, format="v3", n_shards=4)
            paths.append(str(path))
        assert main(["merge", *paths, "--out", str(tmp_path / "whole")]) == 0
        out = capsys.readouterr().out
        assert "merged" in out and "4 shards" in out
        expected = parts[0].merge(parts[1]).merge(parts[2])
        assert dict(open_index(tmp_path / "whole").items()) == dict(expected.items())

    def test_cli_merge_requires_two_inputs(self, tmp_path, capsys):
        from repro.cli import main

        save_index(_indexes_for_merge(1)[0], tmp_path / "a", format="v3", n_shards=4)
        code = main(["merge", str(tmp_path / "a"), "--out", str(tmp_path / "whole")])
        assert code == 2
        assert "two" in capsys.readouterr().err


class TestPrefetch:
    def _saved_v3(self, tmp_path) -> Path:
        index = build_index(
            [[f"{i}:{j:02d}" for j in range(15)] for i in range(8)], FAST
        )
        path = tmp_path / "idx.v3"
        save_index(index, path, format="v3", n_shards=4)
        return path

    def test_prefetch_walks_every_shard(self, tmp_path):
        index = open_index(self._saved_v3(tmp_path), prefetch=True)
        thread = index.start_prefetch()  # idempotent: same thread back
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert index.prefetched_shard_count == 4

    def test_prefetch_does_not_block_or_map_shards(self, tmp_path):
        from repro.index.store import get_store

        path = self._saved_v3(tmp_path)
        index = open_index(path, prefetch=True)
        # Lookups work immediately, and the prefetcher's buffered reads
        # never create mmap state (lookups map shards on demand only).
        keys = [key for key, _, _ in get_store("v3").iter_entries(path)]
        assert index.lookup_key(keys[0]) is not None
        index.start_prefetch().join(timeout=30)
        assert index.mapped_shard_count <= 1

    def test_prefetch_flag_is_noop_for_other_formats(self, tmp_path, v1_index_path):
        index = build_index([["1:23"] * 10], FAST)
        save_index(index, tmp_path / "idx.v2", format="v2", n_shards=4)
        assert len(open_index(tmp_path / "idx.v2", prefetch=True)) == len(index)
        assert len(open_index(v1_index_path, prefetch=True)) == 10

    def test_service_from_path_prefetch(self, tmp_path):
        from repro.service import ValidationService

        path = self._saved_v3(tmp_path)
        with ValidationService.from_path(path, prefetch=True) as service:
            assert service.index.start_prefetch().join(timeout=30) is None
            assert service.index.prefetched_shard_count == 4

    def test_serve_parser_accepts_prefetch(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["serve", "--index", "x", "--prefetch"]
        )
        assert args.prefetch is True


class TestParallelScanBalancing:
    def test_workers_one_accepts_a_generator(self, tmp_path):
        """workers=1 must stream, not materialize: a one-shot generator is
        consumed exactly once and never list()-ed up front."""
        columns = (c for c in [["1:23"] * 5, ["4:56"] * 5])
        stats = build_index_streaming(
            columns, tmp_path / "idx", FAST, workers=1,
            format=_build_format(), n_shards=2,
        )
        assert stats.columns_scanned == 2 and stats.total_entries > 0

    def test_skewed_batch_matches_reference(self, tmp_path):
        """One giant column among many small ones: LPT chunking must not
        change the result (and no worker gets the giant plus everything)."""
        rng = random.Random(5)
        columns = [[f"{rng.randint(0, 9)}:{rng.randint(0, 59):02d}"
                    for _ in range(8)] for _ in range(11)]
        columns.insert(3, [f"{i % 24}:{i % 60:02d}" for i in range(900)])
        format = _build_format()
        save_index(
            build_index(columns, FAST, corpus_name="skew"),
            tmp_path / "reference", format=format, n_shards=4,
        )
        build_index_streaming(
            columns, tmp_path / "streamed", FAST, corpus_name="skew",
            workers=2, format=format, n_shards=4,
        )
        _assert_dirs_byte_identical(tmp_path / "reference", tmp_path / "streamed")


class TestFixedPointExactness:
    def test_impurity_fixed_round_trip(self):
        for n in (1, 3, 7, 10, 20, 60, 997):
            for match in (0, 1, n // 2, n - 1, n):
                impurity = 1.0 - match / n
                fixed = impurity_to_fixed(impurity)
                assert fixed / (1 << 105) == impurity

    def test_sum_is_association_independent(self):
        rng = random.Random(11)
        impurities = [1.0 - rng.randint(0, 60) / 60 for _ in range(500)]
        fixed = [impurity_to_fixed(x) for x in impurities]
        total = sum(fixed)
        rng.shuffle(fixed)
        halves = sum(fixed[:137]) + sum(fixed[137:])
        assert halves == total

    def test_builder_meta_carries_fingerprint(self):
        index = build_index([["1:23"] * 5], FAST, corpus_name="m")
        assert index.meta.fingerprint == FAST.fingerprint()
        assert isinstance(index.meta, IndexMeta)
