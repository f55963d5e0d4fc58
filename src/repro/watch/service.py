"""``WatchService`` — the monitoring loop around the inference engine.

One service instance owns a state directory::

    <state_dir>/registry.json    # watched feeds: rules + baselines (atomic)
    <state_dir>/alerts.ndjson    # CRC-framed alert audit trail
    <state_dir>/ts/              # time-series segments + day summaries

and closes the paper's production loop (§1): **register** a feed once
(rules are learned from a training snapshot and persisted), **refresh**
it every time the feed lands (validation + time-series append + baseline
update + alerting), **tick** on a schedule (freshness checks for feeds
that went silent), and **report** at any time (JSON/Markdown/HTML via
:mod:`repro.watch.report`).

The clock is injectable — ``clock`` stamps observations and drives the
scheduler's overdue math, ``perf`` measures per-column validation
latency — so the whole loop is testable tick by tick with a fake clock
(``tests/test_watch.py``) and runs on wall time in production.

The service is **single-threaded by design**: the HTTP edge
(:mod:`repro.watch.server`) calls it from one asyncio event loop, and
the CLI from one process at a time.  State mutations persist before the
call returns, so a crash between calls never loses an acknowledged
refresh.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

from repro.validate.result import InferenceResult
from repro.watch.alerts import DEFAULT_MAX_ALERTS, Alert, AlertLog
from repro.watch.baseline import ColumnBaseline
from repro.watch.registry import ColumnState, FeedState, WatchRegistry
from repro.watch.timeseries import Observation, TimeSeriesStore

#: A learner maps a training column to an inference outcome — in
#: production this is ``HybridValidator.infer``; tests inject cheap fakes.
Learner = Callable[[Sequence[str]], InferenceResult]

#: A refresh is "missed" once this multiple of the interval has passed
#: without one (the slack absorbs ordinary pipeline jitter).
OVERDUE_GRACE = 1.5
#: Rule violations with at least this non-conforming fraction are critical.
CRITICAL_BAD_FRACTION = 0.5


def _severity(flagged: bool, bad_fraction: float) -> str:
    if not flagged:
        return "ok"
    return "critical" if bad_fraction >= CRITICAL_BAD_FRACTION else "warning"


class WatchService:
    """Continuous data-quality monitoring over a state directory."""

    def __init__(
        self,
        state_dir: Path | str,
        learner: Learner | None = None,
        clock: Callable[[], float] = time.time,
        perf: Callable[[], float] = time.perf_counter,
        max_alerts: int = DEFAULT_MAX_ALERTS,
        max_segment_bytes: int | None = None,
    ):
        self.state_dir = Path(state_dir)
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self.learner = learner
        self.clock = clock
        self.perf = perf
        self.registry = WatchRegistry(self.state_dir / "registry.json")
        self.alert_log = AlertLog(
            self.state_dir / "alerts.ndjson", max_alerts=max_alerts
        )
        ts_kwargs: dict[str, Any] = {}
        if max_segment_bytes is not None:
            ts_kwargs["max_segment_bytes"] = max_segment_bytes
        self.timeseries = TimeSeriesStore(self.state_dir / "ts", **ts_kwargs)
        self.refreshes_total = 0
        self.ticks_total = 0

    # -- registration --------------------------------------------------------

    def register(
        self,
        tenant: str,
        feed: str,
        columns: Mapping[str, Sequence[str]],
        interval_seconds: float | None = None,
    ) -> dict[str, str]:
        """Learn (or re-learn) rules for a feed's columns; persist them.

        Re-registering an existing feed is the confirmed-upstream-change
        path: every supplied column is re-learned and its baseline reset
        (re-armed).  Returns the per-column outcome summary (rule kind, or
        the abstention reason).
        """
        if self.learner is None:
            raise RuntimeError(
                "this WatchService has no learner (no index was supplied); "
                "registration needs one — refreshes and reports do not"
            )
        if not tenant or not feed:
            raise ValueError("tenant and feed must be non-empty")
        now = self.clock()
        state = self.registry.get(tenant, feed)
        if state is None:
            state = FeedState(
                tenant=tenant,
                feed=feed,
                interval_seconds=interval_seconds,
                registered_ts=now,
            )
        elif interval_seconds is not None:
            state.interval_seconds = interval_seconds
        outcomes: dict[str, str] = {}
        for column in sorted(columns):
            result = self.learner(list(columns[column]))
            if result.found:
                state.columns[column] = ColumnState(
                    kind=result.kind,
                    rule_payload=result.to_payload()["rule"],
                    reason="ok",
                    baseline=ColumnBaseline(),  # re-arm after (re)learn
                )
                outcomes[column] = result.kind
            else:
                state.columns[column] = ColumnState(
                    kind="none", rule_payload=None, reason=result.reason
                )
                outcomes[column] = f"unmonitored ({result.reason})"
        self.registry.put(state)
        self.registry.save()
        return outcomes

    def relearn(self, tenant: str, feed: str, column: str, values: Sequence[str]) -> str:
        """Re-learn one column after a confirmed upstream change."""
        self.registry.require(tenant, feed)  # KeyError -> 404 at the edge
        return self.register(tenant, feed, {column: values})[column]

    # -- refresh validation --------------------------------------------------

    def refresh(
        self,
        tenant: str,
        feed: str,
        columns: Mapping[str, Sequence[str]],
    ) -> dict[str, Any]:
        """Validate one refresh; append time-series; update baselines; alert.

        Returns the refresh outcome payload (what ``/v1/watch/refresh``
        answers): per-column results, severity counts, and the alerts this
        refresh emitted.
        """
        state = self.registry.require(tenant, feed)
        now = self.clock()
        state.refresh_id += 1
        state.last_refresh_ts = now
        state.overdue_alerted = False  # the feed is talking again
        refresh_id = state.refresh_id

        results: list[dict[str, Any]] = []
        observations: list[Observation] = []
        alerts: list[Alert] = []
        severity_counts = {"ok": 0, "warning": 0, "critical": 0}
        skipped: list[str] = []
        for column in sorted(columns):
            column_state = state.columns.get(column)
            if column_state is None or not column_state.monitored:
                skipped.append(column)
                continue
            values = list(columns[column])
            started = self.perf()
            report = column_state.rule().validate(values)
            latency_ms = (self.perf() - started) * 1000.0
            pass_rate = 1.0 - report.test_bad_fraction
            severity = _severity(report.flagged, report.test_bad_fraction)
            severity_counts[severity] += 1
            if report.flagged:
                alerts.append(
                    Alert(
                        ts=now,
                        tenant=tenant,
                        feed=feed,
                        column=column,
                        kind="rule_violation",
                        severity=severity,
                        refresh_id=refresh_id,
                        message=report.reason,
                        pass_rate=pass_rate,
                    )
                )
            decision = column_state.baseline.observe(pass_rate)
            if decision.regressed:
                alerts.append(
                    Alert(
                        ts=now,
                        tenant=tenant,
                        feed=feed,
                        column=column,
                        kind="baseline_regression",
                        severity="warning",
                        refresh_id=refresh_id,
                        message=(
                            f"pass rate {pass_rate:.4f} fell below the learned "
                            f"baseline band [{decision.lower:.4f}, 1] "
                            f"(mean {decision.mean:.4f}) for "
                            f"{column_state.baseline.hysteresis} consecutive "
                            "refreshes"
                        ),
                        pass_rate=pass_rate,
                        baseline_mean=decision.mean,
                        baseline_lower=decision.lower,
                    )
                )
            observations.append(
                Observation(
                    ts=now,
                    tenant=tenant,
                    feed=feed,
                    column=column,
                    refresh_id=refresh_id,
                    rule_kind=column_state.kind,
                    passed=not report.flagged,
                    pass_rate=pass_rate,
                    severity=severity,
                    latency_ms=latency_ms,
                )
            )
            results.append(
                {
                    "column": column,
                    "rule_kind": column_state.kind,
                    "passed": not report.flagged,
                    "pass_rate": pass_rate,
                    "severity": severity,
                    "reason": report.reason,
                    "latency_ms": latency_ms,
                    "baseline": column_state.baseline.status_payload(),
                }
            )
        self.timeseries.append(observations)
        self.alert_log.append(alerts)
        self.registry.save()
        self.refreshes_total += 1
        return {
            "tenant": tenant,
            "feed": feed,
            "refresh_id": refresh_id,
            "ts": now,
            "results": results,
            "columns_skipped": sorted(skipped),
            "severity_counts": severity_counts,
            "alerts": [a.to_payload() for a in alerts],
        }

    # -- the scheduler -------------------------------------------------------

    def tick(self) -> list[Alert]:
        """One scheduler pass: freshness checks for interval-bearing feeds.

        A feed with ``interval_seconds`` that has not refreshed within
        ``OVERDUE_GRACE`` intervals of its last activity gets one
        ``missed_refresh`` alert; it will not re-fire until the feed
        refreshes again (scheduler-level hysteresis).  Returns the alerts
        this tick emitted.
        """
        now = self.clock()
        self.ticks_total += 1
        alerts: list[Alert] = []
        dirty = False
        for state in self.registry.sorted_feeds():
            if state.interval_seconds is None or state.overdue_alerted:
                continue
            last_activity = (
                state.last_refresh_ts
                if state.last_refresh_ts is not None
                else state.registered_ts
            )
            deadline = last_activity + OVERDUE_GRACE * state.interval_seconds
            if now < deadline:
                continue
            state.overdue_alerted = True
            dirty = True
            overdue_for = now - last_activity
            alerts.append(
                Alert(
                    ts=now,
                    tenant=state.tenant,
                    feed=state.feed,
                    column="",
                    kind="missed_refresh",
                    severity="warning",
                    refresh_id=state.refresh_id,
                    message=(
                        f"no refresh for {overdue_for:.0f}s (expected every "
                        f"{state.interval_seconds:.0f}s)"
                    ),
                )
            )
        if alerts:
            self.alert_log.append(alerts)
        if dirty:
            self.registry.save()
        return alerts

    # -- observability -------------------------------------------------------

    def status(self) -> dict[str, Any]:
        """The full observable state (what ``/v1/watch/status`` answers)."""
        now = self.clock()
        feeds: list[dict[str, Any]] = []
        for state in self.registry.sorted_feeds():
            last_activity = (
                state.last_refresh_ts
                if state.last_refresh_ts is not None
                else state.registered_ts
            )
            overdue = (
                state.interval_seconds is not None
                and now >= last_activity + OVERDUE_GRACE * state.interval_seconds
            )
            feeds.append(
                {
                    "tenant": state.tenant,
                    "feed": state.feed,
                    "interval_seconds": state.interval_seconds,
                    "refresh_id": state.refresh_id,
                    "last_refresh_ts": state.last_refresh_ts,
                    "overdue": overdue,
                    "columns": {
                        name: {
                            "kind": column.kind,
                            "monitored": column.monitored,
                            "reason": column.reason,
                            "baseline": column.baseline.status_payload(),
                        }
                        for name, column in sorted(state.columns.items())
                    },
                }
            )
        return {
            "now": now,
            "n_feeds": len(self.registry),
            "n_alerts_retained": len(self.alert_log),
            "refreshes_total": self.refreshes_total,
            "ticks_total": self.ticks_total,
            "timeseries": {
                "segments": len(self.timeseries.segments()),
                "wal_records": self.timeseries.wal_record_count(),
                "summary_days": self.timeseries.summary_days(),
            },
            "feeds": feeds,
        }

    def alerts(self, limit: int = 0) -> list[Alert]:
        return self.alert_log.tail(limit)

    def report(self, format: str = "json") -> str:
        """Render the monitoring report (see :mod:`repro.watch.report`)."""
        from repro.watch.report import render_report

        return render_report(
            self.status(),
            [a.to_payload() for a in self.alerts(limit=50)],
            format=format,
        )
