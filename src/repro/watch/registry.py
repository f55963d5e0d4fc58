"""The registry of watched feeds: learned rules + baseline state, persisted.

A watched feed is registered once per tenant: rules are learned from a
training snapshot (by the service's learner, ``HybridValidator.infer`` in
production) and persisted as wire rule payloads
(:func:`repro.validate.result.rule_to_payload`), so later refreshes —
in another process, on another day — validate without the index or the
training data.  Each column also carries its learned
:class:`~repro.watch.baseline.ColumnBaseline` state.

Persistence is one canonical-JSON file, ``<state_dir>/registry.json``,
published atomically (temp + ``os.replace``) — a crash mid-save leaves
the previous registry intact, never a torn one.  The file is a
**checkpoint**: :class:`~repro.watch.service.WatchService` publishes it
on register / relearn / an overdue tick and just before the time-series
WAL seals, not per refresh.  Refreshes commit through the WAL, and the
service replays the live WAL over this checkpoint at open, so reading
the file alone gives the rules and registration fields but may lag the
refresh ids and baselines.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from repro.durability import cleanup_orphans, publish_bytes

from repro.validate.result import rule_from_payload
from repro.validate.rule import dumps_canonical
from repro.watch.baseline import ColumnBaseline

#: Version tag of the registry file; bump on breaking layout changes.
REGISTRY_VERSION = 1


@dataclass
class ColumnState:
    """One watched column: its learned rule (if any) and baseline."""

    kind: str                               #: "pattern"/"dictionary"/... or "none"
    rule_payload: dict[str, Any] | None     #: wire rule payload, None if unlearnable
    reason: str                             #: learn outcome detail
    baseline: ColumnBaseline = field(default_factory=ColumnBaseline)
    _rule: Any = field(default=None, repr=False, compare=False)

    @property
    def monitored(self) -> bool:
        return self.rule_payload is not None

    def rule(self) -> Any:
        """The reconstructed rule object (memoized per process)."""
        if self._rule is None and self.rule_payload is not None:
            self._rule = rule_from_payload(self.rule_payload)
        return self._rule

    def to_payload(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "rule": self.rule_payload,
            "reason": self.reason,
            "baseline": self.baseline.to_payload(),
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "ColumnState":
        raw_rule = payload.get("rule")
        return cls(
            kind=str(payload.get("kind", "none")),
            rule_payload=None if raw_rule is None else dict(raw_rule),
            reason=str(payload.get("reason", "")),
            baseline=ColumnBaseline.from_payload(payload.get("baseline", {})),
        )


@dataclass
class FeedState:
    """One watched feed of one tenant."""

    tenant: str
    feed: str
    interval_seconds: float | None          #: expected refresh cadence, None = ad hoc
    registered_ts: float
    refresh_id: int = 0
    last_refresh_ts: float | None = None
    overdue_alerted: bool = False           #: one missed_refresh alert per silence
    columns: dict[str, ColumnState] = field(default_factory=dict)

    @property
    def key(self) -> tuple[str, str]:
        return (self.tenant, self.feed)

    def monitored_columns(self) -> list[str]:
        return sorted(c for c, state in self.columns.items() if state.monitored)

    def to_payload(self) -> dict[str, Any]:
        return {
            "tenant": self.tenant,
            "feed": self.feed,
            "interval_seconds": self.interval_seconds,
            "registered_ts": self.registered_ts,
            "refresh_id": self.refresh_id,
            "last_refresh_ts": self.last_refresh_ts,
            "overdue_alerted": self.overdue_alerted,
            "columns": {
                name: state.to_payload()
                for name, state in sorted(self.columns.items())
            },
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "FeedState":
        raw_interval = payload.get("interval_seconds")
        raw_last = payload.get("last_refresh_ts")
        raw_columns = payload.get("columns", {})
        return cls(
            tenant=str(payload["tenant"]),
            feed=str(payload["feed"]),
            interval_seconds=None if raw_interval is None else float(raw_interval),
            registered_ts=float(payload.get("registered_ts", 0.0)),
            refresh_id=int(payload.get("refresh_id", 0)),
            last_refresh_ts=None if raw_last is None else float(raw_last),
            overdue_alerted=bool(payload.get("overdue_alerted", False)),
            columns={
                str(name): ColumnState.from_payload(raw)
                for name, raw in sorted(raw_columns.items())
            },
        )


class WatchRegistry:
    """All watched feeds, keyed ``(tenant, feed)``, with atomic persistence."""

    def __init__(self, path: Path | str):
        self.path = Path(path)
        self.feeds: dict[tuple[str, str], FeedState] = {}
        # A crash mid-save leaves registry.json.tmp behind; sweep it so the
        # directory holds only the last durably published registry.
        cleanup_orphans(self.path.parent, (self.path.name + ".tmp",))
        if self.path.exists():
            self._load()

    def _load(self) -> None:
        payload = json.loads(self.path.read_text(encoding="utf-8"))
        version = payload.get("v")
        if version != REGISTRY_VERSION:
            raise ValueError(
                f"unsupported registry version {version!r} in {self.path} "
                f"(expected {REGISTRY_VERSION})"
            )
        for raw in payload.get("feeds", []):
            state = FeedState.from_payload(raw)
            self.feeds[state.key] = state

    def save(self) -> None:
        """Publish the checkpoint: temp + fsync + ``os.replace`` + dir fsync.

        ENOSPC surfaces as :class:`repro.durability.DurabilityError` with
        the partial temp file removed.
        """
        payload = {
            "v": REGISTRY_VERSION,
            "feeds": [
                self.feeds[key].to_payload() for key in sorted(self.feeds)
            ],
        }
        publish_bytes(self.path, dumps_canonical(payload).encode("utf-8"))

    # -- views ---------------------------------------------------------------

    def get(self, tenant: str, feed: str) -> FeedState | None:
        return self.feeds.get((tenant, feed))

    def require(self, tenant: str, feed: str) -> FeedState:
        state = self.get(tenant, feed)
        if state is None:
            raise KeyError(f"feed {tenant!r}/{feed!r} is not registered")
        return state

    def put(self, state: FeedState) -> None:
        self.feeds[state.key] = state

    def sorted_feeds(self) -> list[FeedState]:
        return [self.feeds[key] for key in sorted(self.feeds)]

    def __len__(self) -> int:
        return len(self.feeds)
