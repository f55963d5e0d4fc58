"""Online inference: the FMDV family of optimization problems.

* :class:`~repro.validate.fmdv.FMDV` — the basic FPR-minimizing program of
  Section 2.3 (plus the CMDV alternative objective).
* :class:`~repro.validate.vertical.FMDVVertical` — FMDV-V with multi-sequence
  alignment and the dynamic program of Equation 11 (Section 3).
* :class:`~repro.validate.horizontal.FMDVHorizontal` — FMDV-H with the
  non-conforming tolerance θ (Section 4).
* :class:`~repro.validate.combined.FMDVCombined` — FMDV-VH, vertical and
  horizontal cuts together (the paper's best variant).
* :class:`~repro.validate.rule.ValidationRule` — the artifact every variant
  produces: a pattern plus the distributional drift test of Section 4.
* :mod:`~repro.validate.autotag` — the dual Auto-Tag formulation that ships
  in Azure Purview.
"""

from repro.validate.autotag import AutoTagger, TagResult
from repro.validate.combined import FMDVCombined
from repro.validate.dictionary import DictionaryRule, DictionaryValidator
from repro.validate.fmdv import CMDV, FMDV
from repro.validate.horizontal import FMDVHorizontal
from repro.validate.hybrid import HybridValidator
from repro.validate.numeric import NumericRule, NumericValidator
from repro.validate.result import (
    InferenceResult,
    RuleSerializationError,
    rule_from_payload,
    rule_to_payload,
)
from repro.validate.rule import ValidationReport, ValidationRule
from repro.validate.vertical import FMDVVertical

__all__ = [
    "AutoTagger",
    "CMDV",
    "DictionaryRule",
    "DictionaryValidator",
    "FMDV",
    "FMDVCombined",
    "FMDVHorizontal",
    "FMDVVertical",
    "HybridValidator",
    "InferenceResult",
    "NumericRule",
    "NumericValidator",
    "RuleSerializationError",
    "TagResult",
    "ValidationReport",
    "ValidationRule",
    "rule_from_payload",
    "rule_to_payload",
]
