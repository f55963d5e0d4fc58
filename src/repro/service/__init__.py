"""Service layer: cached, batch-capable inference over an index.

This is the recommended entry point for serving validation traffic; see
:class:`ValidationService` (synchronous, thread-safe, digest-keyed
caches).  The CLI's ``infer`` and ``serve`` commands and the latency
benchmark (Figure 14) all run through it.  To go wider than one process,
run several ``auto-validate serve`` replicas behind
:class:`repro.dist.RoundRobinClient`.
"""

from repro.service.cache import HypothesisSpaceCache, column_digest
from repro.service.service import VARIANTS, ServiceStats, ValidationService

__all__ = [
    "HypothesisSpaceCache",
    "ServiceStats",
    "VARIANTS",
    "ValidationService",
    "column_digest",
]
