"""FMDV — the FPR-minimizing data-validation program (Section 2.3).

Given a query column ``C`` and the offline index over the corpus ``T``::

    (FMDV)  min   FPR_T(h)   over h in H(C)
            s.t.  FPR_T(h) <= r
                  Cov_T(h) >= m

The hypothesis space ``H(C)`` is enumerated from the training values
(Algorithm 1 with full-coverage semantics) and no corpus scan happens at
query time (Section 2.4).  Only patterns the index lists with coverage ≥ m
and FPR ≤ r can ever be chosen, so a solver answers from the index's
:class:`~repro.index.index.FeasibleSet` for its ``(m, r)`` — a
``key → IndexEntry`` table built once per index object (on first use) —
and enumerates guided by that set's prefix trie: the query path makes no
index lookups, and enumerates only what can be feasible.  The guide is
exact by construction (see :mod:`repro.core.enumeration`, "Guided
enumeration").

The module also implements CMDV, the coverage-minimizing alternative the
paper explored and found less effective (kept for the ablation benchmark),
and exposes :class:`NoIndexFMDV`, which estimates ``FPR_T``/``Cov_T`` by
scanning the corpus on every query — the "FMDV (no-index)" reference point
of Figure 14.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Protocol, Sequence

from repro.config import DEFAULT_CONFIG, AutoValidateConfig
from repro.core.enumeration import (
    EnumerationConfig,
    enumerate_column_patterns,
    hypothesis_space,
)
from repro.core.pattern import Pattern
from repro.index.index import FeasibleSet, PatternIndex
from repro.validate.result import InferenceResult
from repro.validate.rule import ValidationRule

__all__ = [
    "CMDV",
    "Candidate",
    "FMDV",
    "InferenceResult",  # re-exported: the class moved to repro.validate.result
    "NoIndexFMDV",
    "SpaceProvider",
]


class SpaceProvider(Protocol):
    """Anything that can answer hypothesis-space queries for a column."""

    def get(
        self, values: Sequence[str], min_coverage: float, config: EnumerationConfig
    ) -> list: ...


@dataclass(frozen=True)
class Candidate:
    """A hypothesis pattern with its index-resolved statistics."""

    pattern: Pattern
    fpr: float
    coverage: int
    train_match_fraction: float


class FMDV:
    """The basic FPR-minimizing solver (no cuts)."""

    variant = "fmdv"
    #: strict rules: any non-conforming future value raises an alarm.
    strict_rules = True

    def __init__(
        self,
        index: PatternIndex,
        config: AutoValidateConfig = DEFAULT_CONFIG,
        space_cache: "SpaceProvider | None" = None,
    ):
        self.index = index
        self.config = config
        #: Optional hypothesis-space cache (duck-typed: anything with a
        #: ``get(values, min_coverage, config)`` method).  Wired in by
        #: :class:`repro.service.ValidationService` so repeated and
        #: near-duplicate columns — including the per-segment sub-columns
        #: of the vertical DP — skip Algorithm 1 entirely.
        self.space_cache = space_cache
        #: (feasible set, enumeration config carrying its guide), rebuilt
        #: whenever ``self.index`` answers with a different set.
        self._guided: tuple[FeasibleSet, EnumerationConfig] | None = None

    # -- public API ----------------------------------------------------------

    @property
    def name(self) -> str:
        """Public registry name (the :mod:`repro.api` Validator protocol)."""
        return self.variant

    def fingerprint(self) -> str:
        """Stable identity of this validator: variant + config + the exact
        index content it answers from.  Two validators with equal
        fingerprints produce equal rules for equal inputs."""
        h = hashlib.blake2b(digest_size=16)
        h.update(self.variant.encode("utf-8"))
        h.update(repr(self.config).encode("utf-8"))
        h.update(self.index.content_digest().encode("utf-8"))
        return h.hexdigest()

    def infer(self, values: Sequence[str]) -> InferenceResult:
        """Infer a validation rule from the training column ``values``."""
        if not values:
            return InferenceResult(None, self.variant, 0, "empty training column")
        candidates = self.feasible_candidates(values, min_coverage=1.0)
        if not candidates:
            return InferenceResult(
                None, self.variant, 0, "no feasible pattern in H(C) meets r and m"
            )
        best = min(candidates, key=self._objective)
        rule = self._make_rule(best, values)
        return InferenceResult(rule, self.variant, len(candidates), "ok")

    # -- shared machinery ------------------------------------------------------

    def feasible_candidates(
        self, values: Sequence[str], min_coverage: float
    ) -> list[Candidate]:
        """Enumerate ``H(C)`` (at the given coverage) and keep feasible ones.

        Feasibility is Equations 6-7: index FPR at most ``r`` and coverage at
        least ``m``.  Patterns absent from the index have no corpus evidence
        and are discarded (their coverage is effectively zero).  Both are
        answered by the feasible set's table, not by index lookups.
        """
        feasible, config = self._feasible()
        stats = self._hypothesis_space(values, min_coverage, config)
        table = feasible.entries
        n = len(values)
        out: list[Candidate] = []
        for ps in stats:
            if ps.pattern.is_trivial():
                continue
            entry = table.get(ps.pattern.key())
            if entry is None:
                continue
            out.append(
                Candidate(
                    pattern=ps.pattern,
                    fpr=entry.fpr,
                    coverage=entry.coverage,
                    train_match_fraction=ps.match_count / n,
                )
            )
        return out

    def _feasible(self) -> tuple[FeasibleSet, EnumerationConfig]:
        """This solver's feasible set and the enumeration config guided by it."""
        feasible = self.index.feasible_set(
            self.config.min_column_coverage, self.config.fpr_target
        )
        guided = self._guided
        if guided is None or guided[0] is not feasible:
            guided = (feasible, replace(self.config.enumeration, guide=feasible.guide))
            self._guided = guided
        return guided

    def _hypothesis_space(
        self, values: Sequence[str], min_coverage: float, config: EnumerationConfig
    ):
        """Enumerate ``H(C)``, through the shared cache when one is wired."""
        if self.space_cache is not None:
            return self.space_cache.get(values, min_coverage, config)
        return hypothesis_space(values, config, min_coverage)

    def _objective(self, candidate: Candidate) -> tuple:
        """FMDV picks the minimum-FPR candidate.

        FPRs are compared at ``config.fpr_resolution`` granularity (the
        estimate is a small-sample average; see the config docstring) and
        ties break toward the most *specific* pattern, then toward higher
        corpus coverage.  At indistinguishable estimated FPR the corpus
        offers no evidence that the more specific pattern would
        false-alarm, and specificity catches more quality issues — this is
        what makes the inferred patterns look like the paper's
        ``<letter>{3} <digit>{2} <digit>{4}`` rather than a chain of
        ``<alphanum>+``.  Over-narrow patterns are rejected by the FPR
        estimate itself (impure-column evidence, Figure 6), not here.
        """
        resolution = self.config.fpr_resolution
        bucket = round(candidate.fpr / resolution) if resolution > 0 else candidate.fpr
        return (
            bucket,
            -candidate.pattern.specificity(),
            -candidate.coverage,
            candidate.fpr,
            candidate.pattern.key(),
        )

    def _make_rule(self, best: Candidate, values: Sequence[str]) -> ValidationRule:
        theta_train = 1.0 - best.train_match_fraction
        return ValidationRule(
            pattern=best.pattern,
            theta_train=theta_train if not self.strict_rules else 0.0,
            train_size=len(values),
            strict=self.strict_rules,
            significance=self.config.significance,
            drift_test=self.config.drift_test,
            est_fpr=best.fpr,
            coverage=best.coverage,
            variant=self.variant,
        )


class CMDV(FMDV):
    """Coverage-minimizing alternative objective (Section 2.3).

    Minimizes ``Cov_T(h)`` subject to the same constraints.  The paper
    reports the conservative FMDV is more effective in practice; CMDV is
    implemented for the ablation benchmark.
    """

    variant = "cmdv"

    def _objective(self, candidate: Candidate) -> tuple:
        return (candidate.coverage, candidate.fpr, candidate.pattern.key())


class NoIndexFMDV(FMDV):
    """FMDV that re-scans the corpus per query — Figure 14's slow baseline.

    ``FPR_T`` and ``Cov_T`` are recomputed from raw corpus columns on every
    call to :meth:`infer`, exactly what the offline index exists to avoid.
    """

    variant = "fmdv-noindex"

    def __init__(
        self,
        corpus_columns: Sequence[Sequence[str]],
        config: AutoValidateConfig = DEFAULT_CONFIG,
    ):
        self._columns = [list(c) for c in corpus_columns]
        self._enum_config = self._indexing_config(config.enumeration)
        # Build a throwaway per-query "index" lazily; the parent class keeps
        # working against `self.index`, which we refresh inside infer().
        super().__init__(index=self._scan(), config=config)

    @staticmethod
    def _indexing_config(enumeration: EnumerationConfig) -> EnumerationConfig:
        return replace(enumeration, min_coverage=min(enumeration.min_coverage, 0.1))

    def _scan(self) -> PatternIndex:
        from repro.index.builder import build_index  # local import: avoid cycle

        return build_index(self._columns, self._enum_config)

    def infer(self, values: Sequence[str]) -> InferenceResult:
        self.index = self._scan()  # deliberate full re-scan per query
        return super().infer(values)
