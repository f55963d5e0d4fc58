"""Tests for repro.config and repro.util."""

from __future__ import annotations

import pytest

from repro.config import DEFAULT_CONFIG, AutoValidateConfig
from repro.core.enumeration import EnumerationConfig
from repro.util import stable_seed, weighted_chunks


class TestAutoValidateConfig:
    def test_defaults_mirror_paper_symbols(self):
        assert DEFAULT_CONFIG.fpr_target == 0.1       # r
        assert DEFAULT_CONFIG.min_column_coverage == 100  # m
        assert DEFAULT_CONFIG.tau == 13               # τ
        assert DEFAULT_CONFIG.theta == 0.1            # θ
        assert DEFAULT_CONFIG.significance == 0.01    # Fisher level in §5.2

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"fpr_target": -0.1},
            {"fpr_target": 1.5},
            {"min_column_coverage": -1},
            {"theta": 1.0},
            {"significance": 0.0},
            {"drift_test": "bayes"},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            AutoValidateConfig(**kwargs)

    def test_tau_synchronized_with_enumeration(self):
        config = AutoValidateConfig(tau=8)
        assert config.enumeration.tau == 8

    def test_with_overrides(self):
        config = DEFAULT_CONFIG.with_overrides(fpr_target=0.02)
        assert config.fpr_target == 0.02
        assert config.theta == DEFAULT_CONFIG.theta

    def test_explicit_enumeration_tau_follows_config(self):
        config = AutoValidateConfig(tau=11, enumeration=EnumerationConfig(tau=13))
        assert config.enumeration.tau == 11


class TestStableSeed:
    def test_deterministic_within_process(self):
        assert stable_seed("a", 1) == stable_seed("a", 1)

    def test_varies_with_inputs(self):
        assert stable_seed("a", 1) != stable_seed("a", 2)
        assert stable_seed("a") != stable_seed("b")

    def test_32_bit_range(self):
        for parts in (("x",), ("y", 2), (3.5, "z")):
            assert 0 <= stable_seed(*parts) < 2**32

    def test_stable_across_processes(self, spawn_python):
        """The whole point: immune to PYTHONHASHSEED randomization."""
        code = "from repro.util import stable_seed; print(stable_seed('enterprise', 42))"
        outs = set()
        for seed in ("0", "1", "42"):
            proc = spawn_python(code, seed)
            assert proc.returncode == 0, proc.stderr
            outs.add(proc.stdout.strip())
        assert len(outs) == 1
        assert outs.pop() == str(stable_seed("enterprise", 42))


class TestWeightedChunks:
    def test_covers_everything_exactly_once(self):
        for n_items in (1, 5, 16, 33):
            for n_chunks in (1, 2, 7):
                weights = [(i * 37) % 11 + 1 for i in range(n_items)]
                bins = weighted_chunks(weights, n_chunks)
                flat = sorted(i for chunk in bins for i in chunk)
                assert flat == list(range(n_items))
                assert all(chunk == sorted(chunk) for chunk in bins)
                assert all(chunk for chunk in bins)

    def test_skewed_batch_does_not_straggle_one_worker(self):
        """One huge column plus many small ones: the huge column gets a bin
        of its own and the small ones spread over the other bins."""
        weights = [1000] + [10] * 9
        bins = weighted_chunks(weights, 4)
        loads = sorted(sum(weights[i] for i in chunk) for chunk in bins)
        assert loads[-1] == 1000          # the giant is alone in its bin
        assert max(loads[:-1]) <= 40      # small items balanced across the rest

    def test_deterministic(self):
        weights = [5, 1, 5, 3, 3, 8, 1, 1]
        assert weighted_chunks(weights, 3) == weighted_chunks(list(weights), 3)

    def test_equal_weights_spread_round_robin(self):
        bins = weighted_chunks([7] * 6, 3)
        assert sorted(len(chunk) for chunk in bins) == [2, 2, 2]

    def test_zero_weight_items_still_distributed(self):
        bins = weighted_chunks([0] * 8, 4)
        assert sorted(len(chunk) for chunk in bins) == [2, 2, 2, 2]


class TestCorpusGenerationStability:
    def test_corpus_stable_across_processes(self, spawn_python):
        """generate_corpus must produce identical data in fresh interpreters
        (regression test for the tuple-hash seeding bug)."""
        code = (
            "from dataclasses import replace;"
            "from repro.datalake import generate_corpus, ENTERPRISE_PROFILE;"
            "c = generate_corpus(replace(ENTERPRISE_PROFILE, n_tables=3), seed=5);"
            "print(hashlib.md5(repr([col.values for col in c.columns()]).encode()).hexdigest())"
        )
        code = "import hashlib;" + code
        digests = set()
        for hash_seed in ("0", "7"):
            proc = spawn_python(code, hash_seed)
            assert proc.returncode == 0, proc.stderr
            digests.add(proc.stdout.strip())
        assert len(digests) == 1
