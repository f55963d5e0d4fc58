"""Baseline methods compared against Auto-Validate in Figure 10.

Every baseline implements the tiny
:class:`~repro.baselines.base.BaselineValidator` contract —
``fit(train_values) -> rule | None`` where a rule answers
``flags(test_values) -> bool`` — so the evaluation runner can treat the
FMDV variants and all baselines uniformly.  Through the default
``infer``/``fingerprint`` implementations the baselines also satisfy the
public :class:`repro.api.Validator` protocol and are resolvable via
:func:`repro.api.get_validator`.

Reimplemented from the descriptions in the paper and the original systems'
public documentation (see DESIGN.md for the substitution notes):

* TFDV and Deequ — dictionary-based validation-rule suggestion,
* Potter's Wheel, SSIS, XSystem, FlashProfile — pattern *profilers*, whose
  narrow profiles are exactly the failure mode the paper demonstrates,
* Grok — curated common-type regexes (high precision, low recall),
* Schema-matching (instance- and pattern-based) — broaden the training
  sample with related corpus columns, then profile,
* FD-UB and AD-UB — recall upper bounds for functional-dependency and
  Auto-Detect style methods (computed in :mod:`repro.eval`).
"""

from repro.baselines.base import BaselineRule, BaselineValidator, FitContext
from repro.baselines.deequ import DeequCat, DeequFra
from repro.baselines.flashprofile import FlashProfile
from repro.baselines.grok import Grok
from repro.baselines.pwheel import PottersWheel
from repro.baselines.schema_matching import (
    SchemaMatchingInstance,
    SchemaMatchingPattern,
)
from repro.baselines.ssis import SSIS
from repro.baselines.tfdv import TFDV
from repro.baselines.xsystem import XSystem

__all__ = [
    "BaselineRule",
    "BaselineValidator",
    "DeequCat",
    "DeequFra",
    "FitContext",
    "FlashProfile",
    "Grok",
    "PottersWheel",
    "SSIS",
    "SchemaMatchingInstance",
    "SchemaMatchingPattern",
    "TFDV",
    "XSystem",
]
