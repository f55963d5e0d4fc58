"""Hybrid validation: patterns for machine data, dictionaries for NL data.

The paper's conclusion names "extending beyond machine-generated data to
consider natural-language-like data" as future work, and its related-work
section sketches the recipe: pattern-based validation where syntactic
structure exists, dictionary-based validation where a fixed vocabulary
does.  :class:`HybridValidator` composes the two:

1. try FMDV-VH (the paper's best variant);
2. if no feasible pattern exists — which is exactly what happens on the
   ~33% natural-language columns — fall back to corpus-expanded dictionary
   inference (:mod:`repro.validate.dictionary`).

The extension benchmark (``benchmarks/bench_extension_hybrid.py``) shows
the hybrid recovering recall on the full benchmark (NL cases included)
without giving up the pattern variants' precision.

``infer`` returns the unified
:class:`~repro.validate.result.InferenceResult` (the ``rule`` field holds
either a pattern or a dictionary rule; inspect ``.kind``).
"""

from __future__ import annotations

import hashlib
from typing import Sequence

from repro.config import DEFAULT_CONFIG, AutoValidateConfig
from repro.index.index import PatternIndex
from repro.validate.combined import FMDVCombined
from repro.validate.dictionary import DictionaryValidator
from repro.validate.result import InferenceResult


class HybridValidator:
    """FMDV-VH with a dictionary fallback for pattern-free columns."""

    variant = "hybrid"
    name = "hybrid"

    def __init__(
        self,
        index: PatternIndex,
        corpus_columns: Sequence[Sequence[str]] = (),
        config: AutoValidateConfig = DEFAULT_CONFIG,
    ):
        self._pattern_solver = FMDVCombined(index, config)
        self._dictionary = DictionaryValidator(corpus_columns, config)

    def fingerprint(self) -> str:
        """Stable identity: the composition of both underlying validators."""
        h = hashlib.blake2b(digest_size=16)
        h.update(b"hybrid|")
        h.update(self._pattern_solver.fingerprint().encode("utf-8"))
        h.update(self._dictionary.fingerprint().encode("utf-8"))
        return h.hexdigest()

    def infer(self, values: Sequence[str]) -> InferenceResult:
        pattern_result = self._pattern_solver.infer(list(values))
        if pattern_result.rule is not None:
            return InferenceResult(
                pattern_result.rule,
                self.variant,
                pattern_result.candidates_considered,
                "ok",
            )
        dictionary_rule = self._dictionary.infer_rule(values)
        if dictionary_rule is not None:
            return InferenceResult(
                dictionary_rule,
                self.variant,
                pattern_result.candidates_considered,
                f"pattern infeasible ({pattern_result.reason}); dictionary fallback",
            )
        return InferenceResult(
            None,
            self.variant,
            pattern_result.candidates_considered,
            f"pattern infeasible ({pattern_result.reason}); not categorical either",
        )
