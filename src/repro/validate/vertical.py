"""FMDV-V — vertical cuts over composite columns (Section 3).

Composite machine-generated columns concatenate several atomic domains
(Figure 8).  FMDV-V tokenizes and aligns all values (multi-sequence
alignment), then jointly picks a segmentation and per-segment patterns
minimizing the summed FPR::

    (FMDV-V)  min   Σ_i FPR_T(h_i)
              s.t.  Σ_i FPR_T(h_i) <= r
                    Cov_T(h_i) >= m  for every segment i

The minimum has optimal substructure (Equation 11) and is solved with a
bottom-up dynamic program over aligned token intervals; each interval's
"no-split" score is a basic FMDV solve on the corresponding sub-column.
Segment spans are capped at τ, which is what lets offline indexing skip
columns wider than τ tokens without losing quality.

Cost: each distinct value is tokenized once, and aligning d distinct values
to width w costs O(d·w) profile work plus O(d·w²) Needleman-Wunsch
(:mod:`repro.core.alignment`).  Every sub-column's hypothesis space is then
enumerated from the aligned token rows (:meth:`AlignedColumn.sub_column`),
so no sub-value is joined into a string per row or lexed again.  Columns
whose longest value already exceeds :data:`MAX_ALIGNED_WIDTH` tokens are
refused before any alignment work.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from repro.core.alignment import AlignedColumn, align_column
from repro.core.atoms import Atom
from repro.core.pattern import Pattern
from repro.core.tokenizer import TokenizedColumn, token_count
from repro.validate.fmdv import FMDV, Candidate, InferenceResult
from repro.validate.rule import ValidationRule

#: Alignment widths beyond this are refused outright; real machine-generated
#: columns stay well under it and the DP is quadratic in the width.
MAX_ALIGNED_WIDTH = 64

#: Sentinel coverage for separator segments (see _separator_candidate); it
#: only needs to exceed any plausible coverage constraint.
_SEPARATOR_COVERAGE = 2**31


@dataclass(frozen=True)
class SegmentSolution:
    """One segment of the optimal segmentation with its chosen pattern."""

    start: int
    end: int
    candidate: Candidate


class FMDVVertical(FMDV):
    """FMDV with vertical cuts (Equations 8-10)."""

    variant = "fmdv-v"
    strict_rules = True
    #: Sub-column coverage each segment pattern must reach; FMDV-V demands
    #: full coverage, FMDV-VH relaxes this to 1 - θ.
    segment_min_coverage = 1.0

    def infer(self, values: Sequence[str]) -> InferenceResult:
        if not values:
            return InferenceResult(None, self.variant, 0, "empty training column")
        # The aligned width is never below the longest value's token count,
        # so an over-wide column is refused without paying for alignment.
        longest = max(map(token_count, set(values)))
        if longest > MAX_ALIGNED_WIDTH:
            return InferenceResult(
                None,
                self.variant,
                0,
                f"aligned width at least {longest} exceeds {MAX_ALIGNED_WIDTH}",
            )
        aligned = align_column(values)
        if aligned.width == 0:
            return InferenceResult(None, self.variant, 0, "no tokens in column")
        if aligned.width > MAX_ALIGNED_WIDTH:
            return InferenceResult(
                None, self.variant, 0, f"aligned width {aligned.width} exceeds {MAX_ALIGNED_WIDTH}"
            )

        solution, considered = self._solve(aligned)
        if solution is None:
            return InferenceResult(
                None, self.variant, considered, "no feasible segmentation meets r and m"
            )
        total_fpr, segments = solution
        if total_fpr > self.config.fpr_target:
            return InferenceResult(
                None,
                self.variant,
                considered,
                f"best segmentation FPR {total_fpr:.4g} exceeds r={self.config.fpr_target}",
            )

        composed = Pattern.concat_all(seg.candidate.pattern for seg in segments)
        matched = composed.match_fraction(list(values))
        required = self._required_match_fraction()
        if matched < required:
            return InferenceResult(
                None,
                self.variant,
                considered,
                f"composed pattern matches {matched:.3f} < required {required:.3f} of training values",
            )

        rule = ValidationRule(
            pattern=composed,
            theta_train=0.0 if self.strict_rules else 1.0 - matched,
            train_size=len(values),
            strict=self.strict_rules,
            significance=self.config.significance,
            drift_test=self.config.drift_test,
            est_fpr=total_fpr,
            coverage=min(seg.candidate.coverage for seg in segments),
            variant=self.variant,
        )
        return InferenceResult(rule, self.variant, considered, "ok")

    def _required_match_fraction(self) -> float:
        """Fraction of training values the composed pattern must match."""
        return 1.0 if self.strict_rules else 1.0 - self.config.theta

    # -- dynamic program of Equation 11 -------------------------------------

    def _solve(
        self, aligned: AlignedColumn
    ) -> tuple[tuple[float, list[SegmentSolution]] | None, int]:
        """Bottom-up interval DP; returns (best solution, #candidates seen).

        The DP objective is the summed segment FPR plus a small
        per-segment penalty (``config.segment_penalty``): a split has to
        buy an actual FPR reduction, which prevents degenerate
        fragmentations whose tiny segments borrow zero-FPR evidence from
        unrelated short domains.  The penalty never enters the Equation 9
        constraint — the returned score is the raw FPR sum.
        """
        n = aligned.width
        tau = self.config.tau
        penalty = self.config.segment_penalty
        considered = 0

        # best[(s, e)] -> (penalized_cost, fpr_sum, segment_count, segments)
        Entry = tuple[float, float, int, list[SegmentSolution]]
        best: dict[tuple[int, int], Entry | None] = {}

        for length in range(1, n + 1):
            for s in range(0, n - length + 1):
                e = s + length - 1
                choice: Entry | None = None

                if length <= tau:
                    direct, seen = self._solve_segment(aligned, s, e)
                    considered += seen
                    if direct is not None:
                        choice = (
                            direct.fpr + penalty,
                            direct.fpr,
                            1,
                            [SegmentSolution(s, e, direct)],
                        )

                for t in range(s, e):
                    left = best[(s, t)]
                    right = best[(t + 1, e)]
                    if left is None or right is None:
                        continue
                    merged: Entry = (
                        left[0] + right[0],
                        left[1] + right[1],
                        left[2] + right[2],
                        left[3] + right[3],
                    )
                    if choice is None or (merged[0], merged[2]) < (choice[0], choice[2]):
                        choice = merged

                best[(s, e)] = choice

        top = best[(0, n - 1)]
        if top is None:
            return (None, considered)
        return ((top[1], top[3]), considered)

    def _solve_segment(
        self, aligned: AlignedColumn, start: int, end: int
    ) -> tuple[Candidate | None, int]:
        """Basic FMDV on the sub-column C[start, end] (no further splits)."""
        sub = aligned.sub_column(start, end)
        non_empty = len(sub) - sub.counts.get("", 0)
        if non_empty < self.segment_min_coverage * len(sub):
            return (None, 0)  # too many rows have no tokens in this span
        separator = self._separator_candidate(sub)
        if separator is not None:
            return (separator, 1)
        candidates = self.feasible_candidates(
            sub, min_coverage=self.segment_min_coverage
        )
        if not candidates:
            return (None, 0)
        return (min(candidates, key=self._objective), len(candidates))

    def _separator_candidate(self, sub: TokenizedColumn) -> Candidate | None:
        """Free constant for segments that are a uniform symbol run.

        Composite columns interleave atomic domains with ad-hoc separators
        ("|", " - ", …).  A separator is not a domain: no corpus column
        consists of bare separators, so the coverage constraint could never
        be met through the index.  It also cannot generalize (symbols are
        hierarchy leaves), so a uniform symbol segment is validated as the
        constant itself with zero FPR — there is nothing to over-fit.
        """
        text, count = Counter(sub.counts).most_common(1)[0]
        if not text or any(ch.isalnum() for ch in text):
            return None
        if count < self.segment_min_coverage * len(sub):
            return None
        return Candidate(
            pattern=Pattern([Atom.const(text)]),
            fpr=0.0,
            coverage=_SEPARATOR_COVERAGE,
            train_match_fraction=count / len(sub),
        )
