"""The unified inference result — one shape for every validator kind.

Historically each inference engine returned its own result type: the FMDV
family returned ``InferenceResult`` (pattern rules only), the hybrid
validator its own pattern-*or*-dictionary result type, and the
dictionary/numeric extensions returned bare rules.  The public API facade
(:mod:`repro.api`) requires one serializable answer shape, so
:class:`InferenceResult` now carries *any* rule kind:

* ``pattern`` — :class:`~repro.validate.rule.ValidationRule`,
* ``dictionary`` — :class:`~repro.validate.dictionary.DictionaryRule`,
* ``numeric`` — :class:`~repro.validate.numeric.NumericRule`,
* ``baseline`` — a fitted :class:`~repro.baselines.base.BaselineRule`,
* ``none`` — the validator abstained (``rule is None``).

Wire serialization: :func:`rule_to_payload` / :func:`rule_from_payload`
round-trip the three serializable rule kinds through plain dicts tagged
with ``"kind"``; :meth:`InferenceResult.to_payload` /
:meth:`InferenceResult.from_payload` do the same for whole results.
Baseline rules are in-memory artifacts (they close over fitted state) and
are deliberately *not* wire-serializable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from repro.validate.rule import ValidationReport, ValidationRule, dumps_canonical


class RuleSerializationError(ValueError):
    """Raised when a rule kind cannot be put on (or read off) the wire."""


@dataclass(frozen=True)
class InferenceResult:
    """Outcome of rule inference on one query column.

    ``rule`` is ``None`` when the validator abstained; otherwise it is one
    of the rule kinds listed in the module docstring — every kind answers
    ``validate(values) -> ValidationReport`` and ``conforms(value)``-style
    membership where meaningful.
    """

    rule: Any | None
    variant: str
    candidates_considered: int = 0
    reason: str = ""

    @property
    def found(self) -> bool:
        return self.rule is not None

    @property
    def kind(self) -> str:
        """Which rule family was inferred: ``pattern`` / ``dictionary`` /
        ``numeric`` / ``baseline`` / ``none``."""
        if self.rule is None:
            return "none"
        if isinstance(self.rule, ValidationRule):
            return "pattern"
        kind = _serializable_kind(self.rule)
        if kind is not None:
            return kind
        if hasattr(self.rule, "flags"):
            return "baseline"
        return "unknown"

    def validate(self, values: Sequence[str]) -> ValidationReport:
        """Validate a future column against the inferred rule."""
        if self.rule is None:
            raise RuntimeError("no rule was inferred; check .found first")
        return self.rule.validate(list(values))

    # -- wire serialization --------------------------------------------------

    def to_payload(self) -> dict[str, Any]:
        """Plain-dict form (JSON-safe); raises on baseline rules."""
        return {
            "rule": None if self.rule is None else rule_to_payload(self.rule),
            "variant": self.variant,
            "candidates_considered": self.candidates_considered,
            "reason": self.reason,
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "InferenceResult":
        raw_rule = payload.get("rule")
        return cls(
            rule=None if raw_rule is None else rule_from_payload(raw_rule),
            variant=str(payload["variant"]),
            candidates_considered=int(payload.get("candidates_considered", 0)),
            reason=str(payload.get("reason", "")),
        )

    def to_json(self) -> str:
        """Deterministic JSON encoding (stable key order, compact)."""
        return dumps_canonical(self.to_payload())

    @classmethod
    def from_json(cls, text: str) -> "InferenceResult":
        return cls.from_payload(json.loads(text))


def _serializable_kind(rule: Any) -> str | None:
    """``dictionary``/``numeric`` for (subclasses of) those rule types.

    The imports are local because those modules import this one; isinstance
    (rather than class-name matching) keeps user subclasses serializable.
    """
    from repro.validate.dictionary import DictionaryRule
    from repro.validate.numeric import NumericRule

    if isinstance(rule, DictionaryRule):
        return "dictionary"
    if isinstance(rule, NumericRule):
        return "numeric"
    return None


def rule_to_payload(rule: Any) -> dict[str, Any]:
    """Serialize any wire-capable rule to a ``"kind"``-tagged dict."""
    if isinstance(rule, ValidationRule):
        return {"kind": "pattern", **rule.to_dict()}
    kind = _serializable_kind(rule)
    if kind is not None:
        return {"kind": kind, **rule.to_dict()}
    raise RuleSerializationError(
        f"rule of type {type(rule).__name__} is not wire-serializable"
    )


def rule_from_payload(payload: Mapping[str, Any]) -> Any:
    """Inverse of :func:`rule_to_payload`."""
    data = dict(payload)
    kind = data.pop("kind", "pattern")
    if kind == "pattern":
        return ValidationRule.from_dict(data)
    if kind == "dictionary":
        from repro.validate.dictionary import DictionaryRule

        return DictionaryRule.from_dict(data)
    if kind == "numeric":
        from repro.validate.numeric import NumericRule

        return NumericRule.from_dict(data)
    raise RuleSerializationError(f"unknown rule kind {kind!r}")
