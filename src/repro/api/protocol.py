"""The public ``Validator`` protocol — one shape for every inference engine.

Before the facade existed the repo had four ``infer()`` shapes (the FMDV
family, the hybrid validator's own result type, the service layer, and the
baselines' separate ABC).  The protocol collapses them:

* ``name`` — the registry/display name of the validator,
* ``infer(values) -> InferenceResult`` — the unified result shape
  (:mod:`repro.validate.result`), whatever rule kind is produced,
* ``fingerprint() -> str`` — a stable identity covering the validator's
  configuration *and* the corpus evidence it answers from, so callers can
  key caches and audit which engine produced a rule.

The protocol is ``runtime_checkable``: ``isinstance(v, Validator)`` holds
for every built-in solver (``FMDV``/``CMDV``/``NoIndexFMDV``/
``FMDVCombined``/…), the hybrid/dictionary/numeric extensions, and all
baselines — asserted by ``tests/test_api.py``.
"""

from __future__ import annotations

from typing import Protocol, Sequence, runtime_checkable

from repro.validate.result import InferenceResult


@runtime_checkable
class Validator(Protocol):
    """Anything that can infer a validation rule from a training column."""

    @property
    def name(self) -> str:
        """Registry/display name of the validator."""
        ...

    def infer(self, values: Sequence[str]) -> InferenceResult:
        """Infer a rule from the training column (never raises on bad
        columns — abstention is expressed as ``result.found == False``)."""
        ...

    def fingerprint(self) -> str:
        """Stable identity of the validator's configuration + evidence."""
        ...
