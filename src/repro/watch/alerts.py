"""Typed alerts and the bounded, persisted alert log.

Three alert kinds close the monitoring loop:

* ``rule_violation`` — a refresh failed its learned validation rule (the
  drift test of Section 4 rejected);
* ``baseline_regression`` — the per-column pass-rate baseline engine
  tripped (:mod:`repro.watch.baseline`); fired once per incident thanks
  to hysteresis;
* ``missed_refresh`` — a feed registered with a refresh interval went
  silent past its deadline (the scheduler's freshness check).

Alerts persist to ``<state_dir>/alerts.ndjson`` using the same
CRC-framed NDJSON lines as the time-series WAL (torn tails truncate on
reopen), and the in-memory view is bounded (newest ``max_alerts`` kept)
so a long-running service cannot leak.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

from repro.durability import append_crc_lines, recover_crc_lines
from repro.validate.rule import dumps_canonical

#: Valid ``Alert.kind`` values.
ALERT_KINDS = ("rule_violation", "baseline_regression", "missed_refresh")
#: Valid ``Alert.severity`` values.
SEVERITIES = ("warning", "critical")
#: Default in-memory bound of the alert log.
DEFAULT_MAX_ALERTS = 1000


@dataclass(frozen=True)
class Alert:
    """One quality incident on one watched column (or feed)."""

    ts: float
    tenant: str
    feed: str
    column: str          #: empty for feed-level alerts (missed_refresh)
    kind: str            #: one of :data:`ALERT_KINDS`
    severity: str        #: one of :data:`SEVERITIES`
    refresh_id: int
    message: str
    pass_rate: float | None = None
    baseline_mean: float | None = None
    baseline_lower: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ALERT_KINDS:
            raise ValueError(f"unknown alert kind {self.kind!r}")
        if self.severity not in SEVERITIES:
            raise ValueError(f"unknown alert severity {self.severity!r}")

    def to_payload(self) -> dict[str, Any]:
        return {
            "ts": self.ts,
            "tenant": self.tenant,
            "feed": self.feed,
            "column": self.column,
            "kind": self.kind,
            "severity": self.severity,
            "refresh_id": self.refresh_id,
            "message": self.message,
            "pass_rate": self.pass_rate,
            "baseline_mean": self.baseline_mean,
            "baseline_lower": self.baseline_lower,
        }

    def to_json(self) -> str:
        return dumps_canonical(self.to_payload())

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "Alert":
        def optional(name: str) -> float | None:
            value = payload.get(name)
            return None if value is None else float(value)

        return cls(
            ts=float(payload["ts"]),
            tenant=str(payload["tenant"]),
            feed=str(payload["feed"]),
            column=str(payload.get("column", "")),
            kind=str(payload["kind"]),
            severity=str(payload["severity"]),
            refresh_id=int(payload.get("refresh_id", 0)),
            message=str(payload.get("message", "")),
            pass_rate=optional("pass_rate"),
            baseline_mean=optional("baseline_mean"),
            baseline_lower=optional("baseline_lower"),
        )

    def describe(self) -> str:
        where = f"{self.tenant}/{self.feed}"
        if self.column:
            where += f".{self.column}"
        return f"[{self.severity}] {self.kind} {where}: {self.message}"


class AlertLog:
    """Bounded in-memory alert history backed by a CRC-framed NDJSON file."""

    def __init__(self, path: Path | str, max_alerts: int = DEFAULT_MAX_ALERTS):
        if max_alerts < 1:
            raise ValueError("max_alerts must be >= 1")
        self.path = Path(path)
        self.max_alerts = max_alerts
        # Torn tails truncate on reopen; only the newest max_alerts are
        # kept in memory (the file itself is the full audit trail).
        payloads = recover_crc_lines(self.path)
        self._alerts = [Alert.from_payload(p) for p in payloads[-max_alerts:]]

    def __len__(self) -> int:
        return len(self._alerts)

    def append(self, alerts: list[Alert]) -> None:
        if not alerts:
            return
        append_crc_lines(self.path, [a.to_payload() for a in alerts])
        self._alerts.extend(alerts)
        if len(self._alerts) > self.max_alerts:
            del self._alerts[: len(self._alerts) - self.max_alerts]

    def tail(self, limit: int = 0) -> list[Alert]:
        """The newest ``limit`` alerts (all retained ones when 0)."""
        if limit and limit < len(self._alerts):
            return list(self._alerts[-limit:])
        return list(self._alerts)
