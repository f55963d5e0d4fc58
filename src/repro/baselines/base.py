"""The minimal protocol shared by all validation methods under evaluation.

:class:`BaselineValidator` fits a :class:`BaselineRule` from training
values (the bare ``Validator`` name belongs to the public
:class:`repro.api.Validator` protocol).  Baselines also satisfy the public protocol: the default
:meth:`BaselineValidator.infer` wraps :meth:`~BaselineValidator.fit` in the
unified :class:`~repro.validate.result.InferenceResult`, and
:meth:`BaselineRule.validate` adapts the boolean ``flags`` answer to a
:class:`~repro.validate.rule.ValidationReport`.
"""

from __future__ import annotations

import abc
import hashlib
from collections import Counter
from typing import Callable, Sequence

from repro.validate.result import InferenceResult
from repro.validate.rule import ValidationReport


class FitContext:
    """Side information some methods may use at fit time.

    Only the schema-matching baselines need it (they broaden the training
    sample with related corpus columns); everything else ignores it.
    Expensive per-column statistics (distinct-value sets, dominant coarse
    signatures) are computed once here rather than per benchmark case.
    """

    def __init__(self, columns: Sequence[Sequence[str]]):
        self.corpus_columns: list[list[str]] = [list(c) for c in columns]
        self.column_sets: list[frozenset[str]] = [
            frozenset(c) for c in self.corpus_columns
        ]
        self.majority_signatures: list[tuple[str, ...] | None] = []
        self.plurality_signatures: list[tuple[str, ...] | None] = []
        for column in self.corpus_columns:
            counts = Counter(class_signature(v) for v in column if v)
            if not counts:
                self.majority_signatures.append(None)
                self.plurality_signatures.append(None)
                continue
            sig, count = counts.most_common(1)[0]
            self.plurality_signatures.append(sig)
            self.majority_signatures.append(
                sig if count * 2 > sum(counts.values()) else None
            )

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[str]]) -> "FitContext":
        return cls(columns)


def class_signature(value: str) -> tuple[str, ...]:
    """Token-class-only shape (symbols collapsed to 'S').

    This is the granularity at which the schema-matching-pattern baselines
    match columns: a vanilla "majority pattern" has no reason to keep the
    literal separator text, which is exactly why it conflates separate
    domains with the same class shape (dates vs. SSNs vs. version strings)
    — one of the failure modes that keeps SM-P below Auto-Validate.
    """
    from repro.core.tokenizer import signature

    return tuple(
        part if part in ("D", "L") else "S" for part in signature(value)
    )


class BaselineRule(abc.ABC):
    """A fitted validation rule: decides whether a future column alarms."""

    description: str = ""

    @abc.abstractmethod
    def flags(self, values: Sequence[str]) -> bool:
        """True when the rule raises an alarm on the given future column."""

    def validate(self, values: Sequence[str]) -> ValidationReport:
        """Adapter to the library-wide report shape: baselines only answer
        a boolean, so the report carries no p-value or fraction detail."""
        flagged = self.flags(list(values))
        return ValidationReport(
            flagged=flagged,
            p_value=None,
            train_bad_fraction=0.0,
            test_bad_fraction=0.0,
            n_test=len(values),
            reason=(
                f"baseline rule alarmed ({self.description})"
                if flagged
                else "baseline rule passed"
            ),
        )


class PredicateRule(BaselineRule):
    """Rule flavour used by most baselines: flag when any value is invalid.

    ``tolerance`` optionally allows a fraction of invalid values before the
    alarm fires (Deequ's fractional rules use this).
    """

    def __init__(
        self,
        is_valid: Callable[[str], bool],
        description: str = "",
        tolerance: float = 0.0,
    ):
        self._is_valid = is_valid
        self.description = description
        self.tolerance = tolerance

    def flags(self, values: Sequence[str]) -> bool:
        if not values:
            return False
        invalid = sum(1 for v in values if not self._is_valid(v))
        if self.tolerance <= 0.0:
            return invalid > 0
        return invalid / len(values) > self.tolerance


class BaselineValidator(abc.ABC):
    """A validation method: learns a rule from observed training values."""

    #: display name used in result tables (matches the paper's labels).
    name: str = "validator"

    #: optional side information handed to :meth:`fit` by :meth:`infer`
    #: (the registry sets this when corpus columns are supplied).
    fit_context: FitContext | None = None

    @abc.abstractmethod
    def fit(
        self, train_values: Sequence[str], context: FitContext | None = None
    ) -> BaselineRule | None:
        """Learn a rule; None means the method abstains on this column
        (an abstaining method never raises alarms — perfect precision,
        zero recall on the column)."""

    # -- repro.api.Validator protocol ----------------------------------------

    def infer(self, values: Sequence[str]) -> InferenceResult:
        """Protocol-shaped inference: ``fit`` wrapped in the unified result.

        A crashing baseline abstains (the evaluation-runner convention), so
        one misbehaving method can never take down a serving process.
        """
        try:
            rule = self.fit(list(values), self.fit_context)
        except Exception as exc:  # noqa: BLE001 - abstention is the contract
            return InferenceResult(None, self.name, 0, f"baseline crashed: {exc}")
        if rule is None:
            return InferenceResult(None, self.name, 0, "baseline abstained")
        return InferenceResult(rule, self.name, 1, "ok")

    def fingerprint(self) -> str:
        """Stable identity; baselines carry no index, so class + name."""
        h = hashlib.blake2b(digest_size=16)
        h.update(f"{type(self).__module__}.{type(self).__qualname__}".encode())
        h.update(self.name.encode("utf-8"))
        return h.hexdigest()
