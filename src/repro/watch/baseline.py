"""Learned per-column pass-rate baselines (EWMA + robust MAD band).

A fixed pass/fail cutoff ("alert when the pass rate drops below 95%")
has to be hand-tuned per column: an ID column sits at 100% forever,
while a free-text column may hover around 80% with wide natural swings.
Following the auto-parameterized-threshold direction (Qin et al., arXiv
2412.05240), every watched column instead learns its *own* baseline from
its *own* history — no hand-set thresholds anywhere:

* the **level** is an exponentially weighted moving average whose
  smoothing factor auto-parameterizes from the sample count
  (``alpha = 2 / (min(n, window) + 1)`` — early observations move the
  level quickly, a mature baseline is stable);
* the **band** is a robust dispersion estimate: the median absolute
  deviation of the recent residuals, scaled by 1.4826 (the normal
  consistency constant) and multiplied by the standard robust z of 3.
  A small absolute floor keeps a constant-100% history from alerting on
  a 99.9% refresh;
* **hysteresis** prevents flapping: a regression must persist for
  ``hysteresis`` consecutive refreshes to trip, and a tripped column
  must recover into the band for ``hysteresis`` consecutive refreshes
  to re-arm.  While tripped, no further alerts are emitted.

Breaching observations are deliberately *not* folded into the level —
otherwise the baseline would chase an incident downward and declare it
healthy.  :meth:`ColumnBaseline.reset` re-arms a column after an
intentional upstream change is confirmed (``relearn``).

The full math, with worked examples, lives in ``src/repro/watch/DESIGN.md``.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Any, Mapping

#: Residual window: the MAD is computed over at most this many recent
#: in-band residuals (also caps the EWMA's effective alpha).
DEFAULT_WINDOW = 64
#: Observations before the band arms; earlier refreshes only learn.
DEFAULT_WARMUP = 5
#: Consecutive breaches to trip / consecutive recoveries to re-arm.
DEFAULT_HYSTERESIS = 2
#: Robust z multiplier (3-sigma equivalent under normality).
BAND_Z = 3.0
#: Normal consistency constant: sigma ~= 1.4826 * MAD.
MAD_SCALE = 1.4826
#: Absolute pass-rate floor of the band half-width, so a history pinned
#: at exactly 1.0 (MAD 0) tolerates sub-1% jitter without alerting.
BAND_FLOOR = 0.01


@dataclass(frozen=True)
class BaselineDecision:
    """What one observation meant, judged against the *prior* baseline."""

    regressed: bool      #: alert-worthy: breach streak just hit hysteresis
    recovered: bool      #: tripped column just re-armed
    in_band: bool        #: the observation sat inside the learned band
    warmed: bool         #: the band was armed when the observation arrived
    mean: float          #: baseline level the observation was judged against
    lower: float         #: lower band edge used for the judgement
    tripped: bool        #: post-observation trip state


class ColumnBaseline:
    """Rolling pass-rate baseline for one watched column (see module doc)."""

    def __init__(
        self,
        window: int = DEFAULT_WINDOW,
        warmup: int = DEFAULT_WARMUP,
        hysteresis: int = DEFAULT_HYSTERESIS,
    ):
        if window < 2:
            raise ValueError("window must be >= 2")
        if warmup < 1:
            raise ValueError("warmup must be >= 1")
        if hysteresis < 1:
            raise ValueError("hysteresis must be >= 1")
        self.window = window
        self.warmup = warmup
        self.hysteresis = hysteresis
        self.n = 0
        self.mean: float | None = None
        self.residuals: list[float] = []
        self.tripped = False
        self.breach_streak = 0
        self.recover_streak = 0

    # -- the learned band ----------------------------------------------------

    @property
    def warmed(self) -> bool:
        """Whether the band is armed (enough history to judge)."""
        return self.n >= self.warmup

    def band_halfwidth(self) -> float:
        """Robust band half-width: ``BAND_Z * max(1.4826*MAD, floor)``."""
        if not self.residuals:
            return BAND_Z * BAND_FLOOR
        mad = statistics.median(sorted(self.residuals))
        return BAND_Z * max(MAD_SCALE * mad, BAND_FLOOR)

    def lower_bound(self) -> float:
        """The pass rate below which an armed column is regressing."""
        mean = self.mean if self.mean is not None else 1.0
        return mean - self.band_halfwidth()

    # -- observation ---------------------------------------------------------

    def observe(self, pass_rate: float) -> BaselineDecision:
        """Fold one refresh's pass rate in; judge it against the prior band.

        Returns a :class:`BaselineDecision`; ``regressed`` is True exactly
        once per incident (the refresh whose breach streak reaches the
        hysteresis count), and ``recovered`` exactly once per re-arm.
        """
        mean = self.mean if self.mean is not None else pass_rate
        lower = mean - self.band_halfwidth()
        warmed = self.warmed
        breach = warmed and pass_rate < lower

        regressed = False
        recovered = False
        if breach:
            self.recover_streak = 0
            self.breach_streak += 1
            if not self.tripped and self.breach_streak >= self.hysteresis:
                self.tripped = True
                regressed = True
        else:
            self.breach_streak = 0
            if self.tripped:
                self.recover_streak += 1
                if self.recover_streak >= self.hysteresis:
                    self.tripped = False
                    self.recover_streak = 0
                    recovered = True
            # A breaching refresh must not drag the learned level down
            # (the baseline would chase the incident and self-heal the
            # alert); only in-band refreshes update the level.
            alpha = 2.0 / (min(self.n + 1, self.window) + 1.0)
            self.mean = pass_rate if self.mean is None else (
                (1.0 - alpha) * self.mean + alpha * pass_rate
            )
            self.residuals.append(abs(pass_rate - mean))
            if len(self.residuals) > self.window:
                del self.residuals[: len(self.residuals) - self.window]
        self.n += 1
        return BaselineDecision(
            regressed=regressed,
            recovered=recovered,
            in_band=not breach,
            warmed=warmed,
            mean=mean,
            lower=lower,
            tripped=self.tripped,
        )

    def copy(self) -> "ColumnBaseline":
        """An independent copy (a refresh stages its observation on one)."""
        twin = ColumnBaseline(self.window, self.warmup, self.hysteresis)
        twin.n = self.n
        twin.mean = self.mean
        twin.residuals = list(self.residuals)
        twin.tripped = self.tripped
        twin.breach_streak = self.breach_streak
        twin.recover_streak = self.recover_streak
        return twin

    def reset(self) -> None:
        """Forget everything and re-arm — the post-``relearn`` step."""
        self.n = 0
        self.mean = None
        self.residuals = []
        self.tripped = False
        self.breach_streak = 0
        self.recover_streak = 0

    # -- persistence ---------------------------------------------------------

    def to_payload(self) -> dict[str, Any]:
        return {
            "window": self.window,
            "warmup": self.warmup,
            "hysteresis": self.hysteresis,
            "n": self.n,
            "mean": self.mean,
            "residuals": list(self.residuals),
            "tripped": self.tripped,
            "breach_streak": self.breach_streak,
            "recover_streak": self.recover_streak,
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "ColumnBaseline":
        baseline = cls(
            window=int(payload.get("window", DEFAULT_WINDOW)),
            warmup=int(payload.get("warmup", DEFAULT_WARMUP)),
            hysteresis=int(payload.get("hysteresis", DEFAULT_HYSTERESIS)),
        )
        baseline.n = int(payload.get("n", 0))
        raw_mean = payload.get("mean")
        baseline.mean = None if raw_mean is None else float(raw_mean)
        baseline.residuals = [float(r) for r in payload.get("residuals", [])]
        baseline.tripped = bool(payload.get("tripped", False))
        baseline.breach_streak = int(payload.get("breach_streak", 0))
        baseline.recover_streak = int(payload.get("recover_streak", 0))
        return baseline

    def status_payload(self) -> dict[str, Any]:
        """The observable state `/v1/watch/status` reports per column."""
        return {
            "n_observations": self.n,
            "mean": self.mean,
            "lower_bound": self.lower_bound() if self.mean is not None else None,
            "warmed": self.warmed,
            "tripped": self.tripped,
            "breach_streak": self.breach_streak,
        }
