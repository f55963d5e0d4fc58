"""Auto-Validate — unsupervised data validation from data-lake patterns.

A from-scratch reproduction of *Auto-Validate: Unsupervised Data Validation
Using Data-Domain Patterns Inferred from Data Lakes* (Song & He, SIGMOD
2021).  The library infers regex-like data-validation patterns for
string-valued columns by mining a corpus of related tables: the offline
stage indexes every pattern a corpus column can generalize into, together
with its corpus-level expected false-positive rate and coverage; the online
stage solves an FPR-minimizing optimization over the hypothesis patterns of
a query column in milliseconds.

Quickstart::

    from repro import AutoValidateConfig, FMDVCombined, build_index

    index = build_index(corpus_columns)          # offline, once
    validator = FMDVCombined(index)              # online, per query column
    result = validator.infer(train_values)
    if result.found:
        report = result.rule.validate(future_values)
        if report.flagged:
            print("data drift:", report.reason)
"""

from repro.api import (
    API_VERSION,
    BatchEnvelope,
    ErrorResponse,
    InferRequest,
    InferResponse,
    ValidateRequest,
    ValidateResponse,
    Validator,
    WireError,
    available_validators,
    get_validator,
    register_validator,
)
from repro.config import DEFAULT_CONFIG, AutoValidateConfig
from repro.core.atoms import Atom, AtomKind
from repro.core.enumeration import EnumerationConfig, PatternStats
from repro.core.hierarchy import GeneralizationHierarchy
from repro.core.pattern import Pattern
from repro.core.tokenizer import Token, token_count, tokenize
from repro.index.builder import (
    BuildStats,
    IndexBuilder,
    build_index,
    build_index_streaming,
)
from repro.index.index import PatternIndex, ShardedPatternIndex
from repro.index.store import (
    IndexStore,
    MmapShardedPatternIndex,
    merge_many,
    open_index,
    save_index,
)
from repro.service import HypothesisSpaceCache, ServiceStats, ValidationService
from repro.server import TenantRateLimiter, ValidationHTTPServer
from repro.validate.autotag import AutoTagger, TagResult
from repro.validate.combined import FMDVCombined
from repro.validate.dictionary import DictionaryValidator
from repro.validate.fmdv import CMDV, FMDV, NoIndexFMDV
from repro.validate.horizontal import FMDVHorizontal
from repro.validate.hybrid import HybridValidator
from repro.validate.numeric import NumericValidator
from repro.validate.result import InferenceResult
from repro.validate.rule import ValidationReport, ValidationRule
from repro.validate.vertical import FMDVVertical

__version__ = "1.3.0"

__all__ = [
    "API_VERSION",
    "Atom",
    "AtomKind",
    "BatchEnvelope",
    "ErrorResponse",
    "InferRequest",
    "InferResponse",
    "TenantRateLimiter",
    "ValidateRequest",
    "ValidateResponse",
    "Validator",
    "ValidationHTTPServer",
    "WireError",
    "available_validators",
    "get_validator",
    "register_validator",
    "AutoTagger",
    "AutoValidateConfig",
    "CMDV",
    "DEFAULT_CONFIG",
    "DictionaryValidator",
    "EnumerationConfig",
    "FMDV",
    "FMDVCombined",
    "FMDVHorizontal",
    "FMDVVertical",
    "HybridValidator",
    "HypothesisSpaceCache",
    "NumericValidator",
    "GeneralizationHierarchy",
    "IndexBuilder",
    "IndexStore",
    "InferenceResult",
    "MmapShardedPatternIndex",
    "NoIndexFMDV",
    "Pattern",
    "PatternIndex",
    "PatternStats",
    "ServiceStats",
    "ShardedPatternIndex",
    "TagResult",
    "Token",
    "ValidationReport",
    "ValidationRule",
    "ValidationService",
    "build_index",
    "build_index_streaming",
    "BuildStats",
    "merge_many",
    "open_index",
    "save_index",
    "token_count",
    "tokenize",
    "__version__",
]
