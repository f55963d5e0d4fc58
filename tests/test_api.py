"""Tests for the versioned public facade: protocol + registry (repro.api)."""

from __future__ import annotations

import pytest

import repro
from repro.api import (
    Validator,
    available_validators,
    get_validator,
    register_validator,
    resolve_name,
    validator_summary,
)
from repro.api.registry import SOLVER_CLASSES
from repro.datalake.domains import DOMAIN_REGISTRY
from repro.service.service import VARIANTS
from repro.validate.fmdv import FMDV, InferenceResult
from repro.validate.result import InferenceResult as ResultInferenceResult

#: Every built-in the acceptance criteria names, plus the extensions.
BUILTIN_NAMES = (
    "fmdv",
    "fmdv-v",
    "fmdv-h",
    "fmdv-vh",
    "fmdv-combined",
    "cmdv",
    "fmdv-noindex",
    "hybrid",
    "dictionary",
    "numeric",
)
BASELINE_NAMES = (
    "tfdv",
    "deequ-cat",
    "deequ-fra",
    "grok",
    "pwheel",
    "ssis",
    "xsystem",
    "flashprofile",
    "sm-i",
    "sm-p",
)


def _make(name, small_index, small_config, small_corpus_columns):
    return get_validator(
        name,
        index=small_index,
        config=small_config,
        corpus_columns=small_corpus_columns[:20],
    )


class TestRegistry:
    @pytest.mark.parametrize("name", BUILTIN_NAMES + BASELINE_NAMES)
    def test_every_builtin_resolves_and_satisfies_protocol(
        self, name, small_index, small_config, small_corpus_columns
    ):
        v = _make(name, small_index, small_config, small_corpus_columns)
        assert isinstance(v, Validator)
        assert isinstance(v.name, str) and v.name
        assert isinstance(v.fingerprint(), str) and v.fingerprint()

    def test_aliases_resolve_to_canonical(self):
        assert resolve_name("vh") == "fmdv-vh"
        assert resolve_name("fmdv-combined") == "fmdv-vh"
        assert resolve_name("basic") == "fmdv"
        assert resolve_name("FMDV-VH") == "fmdv-vh"  # case-insensitive

    def test_unknown_name_lists_choices(self):
        with pytest.raises(ValueError, match="unknown validator"):
            get_validator("nope")

    def test_index_required_for_solvers(self):
        with pytest.raises(ValueError, match="requires index"):
            get_validator("fmdv-vh")

    def test_corpus_required_for_noindex(self, small_index):
        with pytest.raises(ValueError, match="requires corpus_columns"):
            get_validator("fmdv-noindex", index=small_index)

    def test_available_validators_sorted_and_complete(self):
        names = available_validators()
        assert names == sorted(names)
        for name in BUILTIN_NAMES + BASELINE_NAMES:
            assert resolve_name(name) in names

    def test_summaries_exist(self):
        for name in BUILTIN_NAMES + BASELINE_NAMES:
            assert validator_summary(name)

    def test_register_rejects_duplicates(self):
        with pytest.raises(ValueError, match="already registered"):
            register_validator("fmdv", lambda **kw: None)

    def test_failed_registration_commits_nothing(self):
        """An alias collision must not leave a half-registered validator."""
        from repro.api import registry

        with pytest.raises(ValueError, match="shadows"):
            register_validator(
                "test-atomic", lambda **kw: None, aliases=["ok-alias", "fmdv"]
            )
        assert "test-atomic" not in registry._REGISTRY
        assert "ok-alias" not in registry._ALIASES
        with pytest.raises(ValueError, match="unknown validator"):
            resolve_name("test-atomic")

    def test_register_and_resolve_custom_validator(
        self, small_index, small_config
    ):
        class EchoValidator:
            name = "echo"

            def infer(self, values):
                return InferenceResult(None, "echo", 0, "always abstains")

            def fingerprint(self):
                return "echo"

        register_validator(
            "test-echo", lambda **kw: EchoValidator(), summary="test double"
        )
        try:
            v = get_validator("test-echo")
            assert isinstance(v, Validator)
            assert not v.infer(["a"]).found
        finally:
            # registry is module-global state: replace-register a tombstone
            # is not supported, so tests clean up directly.
            from repro.api import registry

            registry._REGISTRY.pop("test-echo")

    def test_service_variants_table_is_the_registry_table(self):
        assert VARIANTS is SOLVER_CLASSES
        for name, cls in VARIANTS.items():
            assert issubclass(cls, FMDV)


class TestProtocolConformance:
    def test_inference_result_is_the_single_result_type(self):
        # repro.validate.fmdv re-exports the unified class, not a copy.
        assert InferenceResult is ResultInferenceResult
        assert repro.InferenceResult is ResultInferenceResult

    def test_solvers_infer_unified_result(self, small_index, small_config, rng):
        values = DOMAIN_REGISTRY["datetime_slash"].sample_many(rng, 40)
        for name in ("fmdv", "fmdv-vh", "cmdv"):
            v = get_validator(name, index=small_index, config=small_config)
            result = v.infer(values)
            assert isinstance(result, InferenceResult)
            assert result.found and result.kind == "pattern"

    def test_baselines_infer_unified_result(self, rng):
        values = DOMAIN_REGISTRY["status"].sample_many(rng, 60)
        for name in ("tfdv", "grok"):
            result = get_validator(name).infer(values)
            assert isinstance(result, InferenceResult)
            assert result.kind in ("baseline", "none")

    def test_baseline_rule_adapts_to_validation_report(self, rng):
        values = DOMAIN_REGISTRY["status"].sample_many(rng, 80)
        result = get_validator("tfdv").infer(values)
        assert result.found
        report = result.validate(values)
        assert not report.flagged
        assert report.n_test == len(values)

    def test_fingerprint_distinguishes_config_and_index(
        self, small_index, small_config
    ):
        a = get_validator("fmdv", index=small_index, config=small_config)
        b = get_validator(
            "fmdv",
            index=small_index,
            config=small_config.with_overrides(fpr_target=0.05),
        )
        c = get_validator("fmdv-vh", index=small_index, config=small_config)
        assert a.fingerprint() != b.fingerprint()  # config differs
        assert a.fingerprint() != c.fingerprint()  # variant differs
        fresh = get_validator("fmdv", index=small_index, config=small_config)
        assert a.fingerprint() == fresh.fingerprint()  # pure function
