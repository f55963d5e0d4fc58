"""Cross-module integration tests: full offline→online→validate flows."""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from repro import (
    AutoValidateConfig,
    FMDVCombined,
    build_index,
    open_index,
    save_index,
)
from repro.datalake import ENTERPRISE_PROFILE, generate_corpus, load_corpus, save_corpus
from repro.datalake.domains import DOMAIN_REGISTRY
from repro.eval import build_benchmark
from repro.index.builder import IndexBuilder
from repro.validate.fmdv import FMDV


@pytest.fixture(scope="module")
def lake():
    return generate_corpus(replace(ENTERPRISE_PROFILE, n_tables=60), seed=17)


@pytest.fixture(scope="module")
def lake_index(lake):
    return build_index(lake.column_values(), corpus_name=lake.name)


@pytest.fixture(scope="module")
def config():
    return AutoValidateConfig(fpr_target=0.1, min_column_coverage=8)


class TestDiskRoundtripFlow:
    def test_corpus_to_disk_to_index_to_rule(self, lake, config, tmp_path):
        """The full production flow: lake on disk → load → index → save →
        load → infer → validate."""
        save_corpus(lake, tmp_path / "lake")
        loaded = load_corpus(tmp_path / "lake")

        index = build_index(loaded.column_values(), corpus_name=loaded.name)
        save_index(index, tmp_path / "lake.idx")
        restored = open_index(tmp_path / "lake.idx")

        rng = random.Random(1)
        spec = DOMAIN_REGISTRY["datetime_slash"]
        result = FMDVCombined(restored, config).infer(spec.sample_many(rng, 40))
        assert result.found
        assert not result.rule.validate(spec.sample_many(rng, 200)).flagged

    def test_saved_index_produces_identical_rules(self, lake_index, config, tmp_path):
        save_index(lake_index, tmp_path / "i")
        restored = open_index(tmp_path / "i")
        rng = random.Random(2)
        for domain in ("locale_lower", "currency_usd", "guid"):
            train = DOMAIN_REGISTRY[domain].sample_many(rng, 30)
            a = FMDV(lake_index, config).infer(list(train))
            b = FMDV(restored, config).infer(list(train))
            assert a.found == b.found
            if a.found:
                assert a.rule.pattern == b.rule.pattern


class TestDistributedIndexing:
    def test_sharded_build_matches_monolithic(self, lake, config):
        """Map-reduce style: shard the corpus, build partial indexes, merge
        — inference must be unchanged (the paper's SCOPE deployment)."""
        columns = list(lake.column_values())
        whole = build_index(columns)

        shards = [columns[0::3], columns[1::3], columns[2::3]]
        merged = None
        for shard in shards:
            builder = IndexBuilder()
            builder.add_columns(shard)
            part = builder.build()
            merged = part if merged is None else merged.merge(part)

        assert len(merged) == len(whole)
        rng = random.Random(3)
        for domain in ("datetime_slash", "event_code"):
            train = DOMAIN_REGISTRY[domain].sample_many(rng, 30)
            a = FMDV(whole, config).infer(list(train))
            b = FMDV(merged, config).infer(list(train))
            assert a.found == b.found
            if a.found:
                assert a.rule.pattern == b.rule.pattern
                assert a.rule.est_fpr == pytest.approx(b.rule.est_fpr)


class TestBenchmarkFlow:
    def test_benchmark_cases_validate_their_own_future(self, lake, lake_index, config):
        """For clean machine columns the inferred rule must accept the same
        column's held-out values in the vast majority of cases — this is
        the precision property the paper's evaluation hinges on."""
        bench = build_benchmark(lake, 40, random.Random(5), max_values=400)
        solver = FMDVCombined(lake_index, config)
        checked = passed = 0
        for case in bench.pattern_subset().cases:
            if case.column.dirty_fraction > 0 or case.column.domain is None:
                continue
            result = solver.infer(list(case.train))
            if result.rule is None:
                continue
            checked += 1
            if not result.rule.validate(list(case.test)).flagged:
                passed += 1
        assert checked >= 10
        assert passed / checked >= 0.9

    def test_rules_flag_cross_domain_columns(self, lake, lake_index, config):
        """Schema-drift recall: rules must flag columns of other domains."""
        rng = random.Random(6)
        solver = FMDVCombined(lake_index, config)
        domains = ("datetime_slash", "currency_usd", "phone_us", "locale_lower")
        rules = {}
        for name in domains:
            result = solver.infer(DOMAIN_REGISTRY[name].sample_many(rng, 40))
            assert result.found, name
            rules[name] = result.rule
        flagged = total = 0
        for src in domains:
            for dst in domains:
                if src == dst:
                    continue
                total += 1
                other = DOMAIN_REGISTRY[dst].sample_many(rng, 60)
                flagged += rules[src].validate(other).flagged
        assert flagged == total  # these four domains are pairwise disjoint


class TestConcatenatedRules:
    def test_vertical_rule_pattern_is_well_formed(self, lake_index, config):
        """Composed vertical patterns must round-trip through keys and
        behave as a single regex."""
        rng = random.Random(8)
        dt = DOMAIN_REGISTRY["datetime_slash"]
        code = DOMAIN_REGISTRY["event_code"]
        train = [f"{dt.sample(rng)}|{code.sample(rng)}" for _ in range(30)]
        result = FMDVCombined(lake_index, config).infer(train)
        assert result.found
        from repro.core.pattern import Pattern

        restored = Pattern.from_key(result.rule.pattern.key())
        assert restored == result.rule.pattern
        assert all(restored.matches(v) for v in train)
