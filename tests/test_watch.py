"""Tests for the continuous monitoring subsystem (``repro.watch``).

The whole loop runs against a **fake clock** — a mutable timestamp the
tests advance explicitly — so scheduler cadence, missed-refresh
detection, baseline warm-up, and hysteresis are all exercised tick by
tick without a single ``sleep``.  The learner is a cheap fake
(``DictionaryRule`` over a fixed vocabulary), so refresh pass rates are
exactly controllable: a refresh with ``k`` out-of-vocabulary values has
pass rate ``1 - k/n``.

Wire coverage follows the PR-3 conventions (``tests/test_wire.py``):
every new envelope gets a 30-seed property round-trip asserting object
equality *and* byte-identical re-serialization.
"""

from __future__ import annotations

import asyncio
import json
import random

import pytest

from repro import api
from repro.api.wire import (
    WatchAlertsResponse,
    WatchRefreshRequest,
    WatchRefreshResponse,
    WatchRegisterRequest,
    WatchRegisterResponse,
    WatchStatusResponse,
    WireError,
)
from repro.durability import format_crc_line, read_crc_lines, recover_crc_lines
from repro.validate.dictionary import DictionaryRule
from repro.validate.result import InferenceResult
from repro.watch import (
    BAND_FLOOR,
    BAND_Z,
    OVERDUE_GRACE,
    REPORT_FORMATS,
    Alert,
    AlertLog,
    ColumnBaseline,
    Observation,
    TimeSeriesStore,
    TornSummaryError,
    WatchHTTPServer,
    WatchRegistry,
    WatchService,
    read_day_summary,
    render_report,
    write_day_summary,
)
from repro.watch.registry import FeedState
from repro.watch.timeseries import DayStat, utc_day

N_SEEDS = 30

#: 2021-06-15 00:00:00 UTC — a fixed epoch for the fake clock.
T0 = 1623715200.0


# -- fakes ---------------------------------------------------------------------


class FakeClock:
    """A controllable time source: ``clock()`` returns ``now``."""

    def __init__(self, now: float = T0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def tick(self, seconds: float) -> float:
        self.now += seconds
        return self.now


VOCAB = frozenset({"alpha", "beta", "gamma", "delta"})


def fake_learner(values):
    """Learn a dictionary rule unless the column looks like free text."""
    distinct = frozenset(values)
    if len(distinct) > 10:
        return InferenceResult(
            rule=None, variant="test", candidates_considered=1,
            reason="no candidate under FPR target",
        )
    rule = DictionaryRule(
        vocabulary=VOCAB | distinct, theta_train=0.0, train_size=len(values)
    )
    return InferenceResult(rule=rule, variant="test", candidates_considered=1)


def good_refresh(n: int = 40) -> list[str]:
    return ["alpha", "beta", "gamma", "delta"][: max(1, min(4, n))] * (n // 4 or 1)


def bad_refresh(n: int = 40, bad: int = 40) -> list[str]:
    values = good_refresh(n)
    for i in range(min(bad, len(values))):
        values[i] = f"###corrupt-{i}###"
    return values


@pytest.fixture()
def clock() -> FakeClock:
    return FakeClock()


@pytest.fixture()
def service(tmp_path, clock) -> WatchService:
    return WatchService(
        tmp_path / "watch", learner=fake_learner, clock=clock, perf=clock
    )


def _register(service, interval=None):
    return service.register(
        "acme", "orders",
        {"status": good_refresh(), "note": [f"text-{i}" for i in range(40)]},
        interval_seconds=interval,
    )


# -- ColumnBaseline ------------------------------------------------------------


class TestColumnBaseline:
    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            ColumnBaseline(window=1)
        with pytest.raises(ValueError):
            ColumnBaseline(warmup=0)
        with pytest.raises(ValueError):
            ColumnBaseline(hysteresis=0)

    def test_warmup_gates_judgement(self):
        baseline = ColumnBaseline(warmup=5)
        # Even a catastrophic early refresh only learns, never judges.
        for pass_rate in (1.0, 1.0, 0.0, 1.0, 1.0):
            decision = baseline.observe(pass_rate)
            assert not decision.warmed
            assert not decision.regressed
            assert decision.in_band
        assert baseline.warmed

    def test_ewma_converges_to_the_level(self):
        baseline = ColumnBaseline()
        for _ in range(60):
            baseline.observe(0.9)
        assert baseline.mean == pytest.approx(0.9, abs=1e-9)

    def test_band_floor_tolerates_jitter_on_perfect_history(self):
        baseline = ColumnBaseline()
        for _ in range(20):
            baseline.observe(1.0)
        # MAD is 0, so the band half-width is the floored BAND_Z * BAND_FLOOR.
        assert baseline.band_halfwidth() == pytest.approx(BAND_Z * BAND_FLOOR)
        decision = baseline.observe(1.0 - BAND_FLOOR)  # sub-floor jitter
        assert decision.in_band and not decision.regressed

    def test_mad_band_widens_with_natural_variance(self):
        rng = random.Random(7)
        noisy = ColumnBaseline()
        for _ in range(60):
            noisy.observe(0.8 + rng.uniform(-0.1, 0.1))
        quiet = ColumnBaseline()
        for _ in range(60):
            quiet.observe(0.8)
        assert noisy.band_halfwidth() > quiet.band_halfwidth()
        # The noisy column tolerates a swing that would trip the quiet one.
        assert noisy.lower_bound() < quiet.lower_bound()

    def test_hysteresis_trips_once_per_incident(self):
        baseline = ColumnBaseline(hysteresis=2)
        for _ in range(10):
            baseline.observe(1.0)
        first = baseline.observe(0.5)
        assert not first.regressed          # breach 1 of 2: not yet
        second = baseline.observe(0.5)
        assert second.regressed             # breach 2 of 2: trip exactly here
        third = baseline.observe(0.5)
        assert not third.regressed          # already tripped: no flapping
        assert third.tripped

    def test_breaching_observations_do_not_drag_the_level(self):
        baseline = ColumnBaseline()
        for _ in range(20):
            baseline.observe(1.0)
        level_before = baseline.mean
        for _ in range(5):
            baseline.observe(0.0)
        assert baseline.mean == level_before

    def test_recovery_rearms_after_hysteresis_in_band(self):
        baseline = ColumnBaseline(hysteresis=2)
        for _ in range(10):
            baseline.observe(1.0)
        baseline.observe(0.5)
        assert baseline.observe(0.5).regressed
        back_one = baseline.observe(1.0)
        assert baseline.tripped and not back_one.recovered
        back_two = baseline.observe(1.0)
        assert back_two.recovered and not baseline.tripped
        # A fresh incident after recovery alerts again.
        baseline.observe(0.5)
        assert baseline.observe(0.5).regressed

    def test_reset_rearms(self):
        baseline = ColumnBaseline()
        for _ in range(10):
            baseline.observe(1.0)
        baseline.observe(0.0)
        baseline.observe(0.0)
        assert baseline.tripped
        baseline.reset()
        assert not baseline.tripped and baseline.n == 0 and baseline.mean is None

    @pytest.mark.parametrize("seed", range(N_SEEDS))
    def test_payload_round_trip(self, seed):
        rng = random.Random(seed)
        baseline = ColumnBaseline(
            window=rng.randint(2, 100),
            warmup=rng.randint(1, 10),
            hysteresis=rng.randint(1, 5),
        )
        for _ in range(rng.randint(0, 40)):
            baseline.observe(rng.uniform(0.0, 1.0))
        clone = ColumnBaseline.from_payload(
            json.loads(json.dumps(baseline.to_payload()))
        )
        assert clone.to_payload() == baseline.to_payload()
        # The clone behaves identically on the next observation.
        x = rng.uniform(0.0, 1.0)
        assert clone.observe(x) == baseline.observe(x)


# -- CRC-framed NDJSON + the time-series store ---------------------------------


def _frame(payload: dict) -> bytes:
    """One committed WAL line: the framed record plus its newline."""
    return format_crc_line(payload).encode("utf-8") + b"\n"


class TestCrcFraming:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "log.ndjson"
        payloads = [{"i": i, "s": f"v{i}"} for i in range(5)]
        path.write_bytes(b"".join(_frame(p) for p in payloads))
        records, valid = read_crc_lines(path)
        assert records == payloads
        assert valid == path.stat().st_size

    @pytest.mark.parametrize("damage", ["torn", "flipped", "garbage"])
    def test_torn_tail_is_truncated_on_reopen(self, tmp_path, damage):
        path = tmp_path / "log.ndjson"
        payloads = [{"i": i} for i in range(4)]
        data = b"".join(_frame(p) for p in payloads)
        if damage == "torn":        # crash mid-write: last line half-flushed
            data += _frame({"i": 4})[:-7]
        elif damage == "flipped":   # bit rot inside a framed line
            tail = bytearray(_frame({"i": 4}))
            tail[-3] ^= 0xFF
            data += bytes(tail)
        else:                       # stray bytes with no frame at all
            data += b"not a crc line\n"
        path.write_bytes(data)
        assert recover_crc_lines(path) == payloads
        # The truncation happened in place: a fresh read sees a clean file.
        records, valid = read_crc_lines(path)
        assert records == payloads and valid == path.stat().st_size


def _obs(ts, column="status", tenant="acme", feed="orders", **kw) -> Observation:
    fields = {
        "refresh_id": 1, "rule_kind": "dictionary", "passed": True,
        "pass_rate": 1.0, "severity": "ok", "latency_ms": 1.5,
    }
    fields.update(kw)
    return Observation(ts=ts, tenant=tenant, feed=feed, column=column, **fields)


class TestTimeSeriesStore:
    def test_append_read_tail(self, tmp_path):
        store = TimeSeriesStore(tmp_path / "ts")
        observations = [_obs(T0 + i) for i in range(10)]
        store.append(observations)
        assert store.records() == observations
        assert store.tail(3) == observations[-3:]
        assert store.wal_record_count() == 10

    def test_rotation_on_day_change_builds_summary(self, tmp_path):
        store = TimeSeriesStore(tmp_path / "ts")
        day_one = [_obs(T0 + i, pass_rate=0.9, passed=False, severity="warning")
                   for i in range(3)]
        day_two = [_obs(T0 + 86400.0 + i) for i in range(2)]
        store.append(day_one)
        store.append(day_two)  # first day-two record seals day one
        assert [s.name for s in store.segments()] == [
            f"seg-{utc_day(T0)}-000000.ndjson"
        ]
        assert store.summary_days() == [utc_day(T0)]
        assert store.records() == day_one + day_two
        stat = read_day_summary(store.summary_path(utc_day(T0)))["\x1f".join(
            ("acme", "orders", "status"))]
        assert stat.n_obs == 3 and stat.n_flagged == 3
        assert stat.min_pass_rate == pytest.approx(0.9)

    def test_rotation_on_size(self, tmp_path):
        store = TimeSeriesStore(tmp_path / "ts", max_segment_bytes=256)
        store.append([_obs(T0 + i) for i in range(20)])
        assert len(store.segments()) >= 2
        assert len(store.records()) == 20

    def test_torn_wal_recovers_on_reopen(self, tmp_path):
        store = TimeSeriesStore(tmp_path / "ts")
        observations = [_obs(T0 + i) for i in range(5)]
        store.append(observations)
        with open(store.wal_path, "ab") as handle:
            handle.write(b'0badc0de {"torn": tru')  # crash mid-append
        reopened = TimeSeriesStore(tmp_path / "ts")
        assert reopened.records() == observations
        # And the store keeps working after recovery.
        reopened.append([_obs(T0 + 99.0)])
        assert len(reopened.records()) == 6

    def test_summaries_merge_across_seals(self, tmp_path):
        store = TimeSeriesStore(tmp_path / "ts")
        store.append([_obs(T0, pass_rate=0.8)])
        store.seal()
        store.append([_obs(T0 + 60.0, pass_rate=0.6)])
        store.seal()
        key = "\x1f".join(("acme", "orders", "status"))
        stat = read_day_summary(store.summary_path(utc_day(T0)))[key]
        assert stat.n_obs == 2
        assert stat.pass_rate_sum == pytest.approx(1.4)
        assert stat.min_pass_rate == pytest.approx(0.6)


class TestDaySummaryFormat:
    @pytest.mark.parametrize("seed", range(N_SEEDS))
    def test_binary_round_trip(self, tmp_path, seed):
        rng = random.Random(seed)
        stats = {}
        for i in range(rng.randint(0, 8)):
            stats["\x1f".join((f"t{i}", f"f{rng.randint(0, 3)}", "cöl🙂"))] = DayStat(
                n_obs=rng.randint(1, 1000),
                n_passed=rng.randint(0, 1000),
                n_flagged=rng.randint(0, 1000),
                pass_rate_sum=rng.uniform(0, 1000),
                latency_ms_sum=rng.uniform(0, 1e6),
                min_pass_rate=rng.uniform(0, 1),
            )
        path = tmp_path / "day.avws"
        write_day_summary(path, stats)
        assert read_day_summary(path) == stats
        # Byte determinism: rewriting the same stats is byte-identical.
        first = path.read_bytes()
        write_day_summary(path, dict(reversed(list(stats.items()))))
        assert path.read_bytes() == first

    def test_corruption_raises_torn_summary(self, tmp_path):
        path = tmp_path / "day.avws"
        write_day_summary(path, {"a\x1fb\x1fc": DayStat(n_obs=3)})
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(TornSummaryError):
            read_day_summary(path)

    def test_truncation_raises_torn_summary(self, tmp_path):
        path = tmp_path / "day.avws"
        write_day_summary(path, {"a\x1fb\x1fc": DayStat(n_obs=3)})
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(TornSummaryError):
            read_day_summary(path)


# -- the alert log -------------------------------------------------------------


def _alert(ts=T0, **kw) -> Alert:
    fields = dict(
        ts=ts, tenant="acme", feed="orders", column="status",
        kind="rule_violation", severity="warning", refresh_id=1,
        message="drift", pass_rate=0.7,
    )
    fields.update(kw)
    return Alert(**fields)


class TestAlertLog:
    def test_validation(self):
        with pytest.raises(ValueError):
            _alert(kind="nonsense")
        with pytest.raises(ValueError):
            _alert(severity="fatal")

    def test_persistence_and_bound(self, tmp_path):
        log = AlertLog(tmp_path / "alerts.ndjson", max_alerts=3)
        log.append([_alert(ts=T0 + i, refresh_id=i) for i in range(5)])
        assert len(log) == 3
        assert [a.refresh_id for a in log.tail()] == [2, 3, 4]
        assert [a.refresh_id for a in log.tail(limit=2)] == [3, 4]
        reopened = AlertLog(tmp_path / "alerts.ndjson", max_alerts=3)
        assert reopened.tail() == log.tail()

    def test_torn_tail_recovered(self, tmp_path):
        log = AlertLog(tmp_path / "alerts.ndjson")
        log.append([_alert()])
        with open(tmp_path / "alerts.ndjson", "ab") as handle:
            handle.write(b"deadbeef {bro")
        reopened = AlertLog(tmp_path / "alerts.ndjson")
        assert reopened.tail() == [_alert()]

    @pytest.mark.parametrize("seed", range(N_SEEDS))
    def test_alert_payload_round_trip(self, seed):
        rng = random.Random(seed)
        alert = _alert(
            ts=rng.uniform(0, 2e9),
            kind=rng.choice(("rule_violation", "baseline_regression",
                             "missed_refresh")),
            severity=rng.choice(("warning", "critical")),
            refresh_id=rng.randint(0, 10**6),
            message=f"m{rng.random()}",
            pass_rate=rng.choice((None, rng.random())),
            baseline_mean=rng.choice((None, rng.random())),
            baseline_lower=rng.choice((None, rng.random())),
        )
        assert Alert.from_payload(json.loads(alert.to_json())) == alert


# -- the registry --------------------------------------------------------------


class TestWatchRegistry:
    def test_round_trip_through_disk(self, tmp_path, service):
        _register(service, interval=3600.0)
        service.refresh("acme", "orders", {"status": good_refresh()})
        reopened = WatchRegistry(tmp_path / "watch" / "registry.json")
        assert len(reopened) == 1
        state = reopened.require("acme", "orders")
        assert state.refresh_id == 1
        assert state.interval_seconds == 3600.0
        assert state.monitored_columns() == ["status"]
        assert state.columns["note"].monitored is False
        # The reconstructed rule still validates.
        report = state.columns["status"].rule().validate(good_refresh())
        assert not report.flagged
        # And the baseline state survived.
        assert state.columns["status"].baseline.n == 1

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "registry.json"
        path.write_text(json.dumps({"v": 999, "feeds": []}), encoding="utf-8")
        with pytest.raises(ValueError, match="unsupported registry version"):
            WatchRegistry(path)

    def test_require_unknown_feed(self, tmp_path):
        registry = WatchRegistry(tmp_path / "registry.json")
        with pytest.raises(KeyError, match="not registered"):
            registry.require("acme", "nope")

    def test_save_is_atomic_no_tmp_left_behind(self, tmp_path):
        registry = WatchRegistry(tmp_path / "registry.json")
        registry.put(FeedState(tenant="t", feed="f", interval_seconds=None,
                               registered_ts=T0))
        registry.save()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["registry.json"]


# -- the service: the whole loop on a fake clock -------------------------------


class TestWatchService:
    def test_register_outcomes(self, service):
        outcomes = _register(service)
        assert outcomes["status"] == "dictionary"
        assert outcomes["note"].startswith("unmonitored")

    def test_register_requires_learner(self, tmp_path, clock):
        bare = WatchService(tmp_path / "bare", learner=None, clock=clock)
        with pytest.raises(RuntimeError, match="no learner"):
            bare.register("acme", "orders", {"c": ["x"]})

    def test_register_rejects_empty_names(self, service):
        with pytest.raises(ValueError):
            service.register("", "orders", {})
        with pytest.raises(ValueError):
            service.register("acme", "", {})

    def test_refresh_unregistered_feed_raises_key_error(self, service):
        with pytest.raises(KeyError):
            service.refresh("acme", "nope", {})

    def test_clean_refresh(self, service, clock):
        _register(service)
        clock.tick(60.0)
        outcome = service.refresh(
            "acme", "orders",
            {"status": good_refresh(), "note": ["x"], "surprise": ["y"]},
        )
        assert outcome["refresh_id"] == 1
        assert outcome["ts"] == clock.now
        assert outcome["severity_counts"] == {"ok": 1, "warning": 0, "critical": 0}
        assert outcome["alerts"] == []
        # Unmonitored and never-registered columns are skipped, sorted.
        assert outcome["columns_skipped"] == ["note", "surprise"]
        (result,) = outcome["results"]
        assert result["column"] == "status"
        assert result["passed"] is True
        assert result["pass_rate"] == pytest.approx(1.0)
        assert result["baseline"]["n_observations"] == 1

    def test_corrupt_refresh_fires_critical_rule_violation(self, service, clock):
        _register(service)
        clock.tick(60.0)
        outcome = service.refresh("acme", "orders", {"status": bad_refresh()})
        assert outcome["severity_counts"]["critical"] == 1
        (alert,) = outcome["alerts"]
        assert alert["kind"] == "rule_violation"
        assert alert["severity"] == "critical"
        assert alert["refresh_id"] == 1
        # The alert is retained in the audit log.
        assert [a.kind for a in service.alerts()] == ["rule_violation"]

    def test_baseline_regression_respects_hysteresis(self, service, clock):
        _register(service)
        # Warm the baseline with clean refreshes.
        for _ in range(8):
            clock.tick(60.0)
            service.refresh("acme", "orders", {"status": good_refresh()})
        # A mild-but-real degradation: 10% bad (warning, not critical).
        kinds = []
        for _ in range(4):
            clock.tick(60.0)
            outcome = service.refresh(
                "acme", "orders", {"status": bad_refresh(bad=4)}
            )
            kinds.append([a["kind"] for a in outcome["alerts"]])
        regressions = [k for ks in kinds for k in ks if k == "baseline_regression"]
        assert len(regressions) == 1           # tripped once, no flapping
        assert "baseline_regression" in kinds[1]  # at breach 2 (hysteresis)

    def test_reregister_rearms_baseline(self, service, clock):
        _register(service)
        for _ in range(8):
            clock.tick(60.0)
            service.refresh("acme", "orders", {"status": good_refresh()})
        for _ in range(3):
            clock.tick(60.0)
            service.refresh("acme", "orders", {"status": bad_refresh(bad=4)})
        state = service.registry.require("acme", "orders")
        assert state.columns["status"].baseline.tripped
        # Confirmed upstream change: re-learn from the new distribution.
        service.register("acme", "orders", {"status": bad_refresh(bad=4)})
        baseline = service.registry.require("acme", "orders").columns[
            "status"].baseline
        assert not baseline.tripped and baseline.n == 0
        # The new rule accepts the new distribution: no alerts.
        clock.tick(60.0)
        outcome = service.refresh("acme", "orders", {"status": bad_refresh(bad=4)})
        assert outcome["alerts"] == []

    def test_tick_missed_refresh_once_per_silence(self, service, clock):
        _register(service, interval=600.0)
        clock.tick(60.0)
        service.refresh("acme", "orders", {"status": good_refresh()})
        # In the grace window: quiet.
        clock.tick(600.0)
        assert service.tick() == []
        # Past OVERDUE_GRACE * interval: exactly one missed_refresh.
        clock.tick(OVERDUE_GRACE * 600.0)
        (alert,) = service.tick()
        assert alert.kind == "missed_refresh"
        assert alert.tenant == "acme" and alert.feed == "orders"
        # Still silent: no re-fire (scheduler hysteresis).
        clock.tick(3600.0)
        assert service.tick() == []
        # A refresh re-arms the freshness alarm...
        service.refresh("acme", "orders", {"status": good_refresh()})
        clock.tick(OVERDUE_GRACE * 600.0 + 1.0)
        assert [a.kind for a in service.tick()] == ["missed_refresh"]

    def test_tick_ignores_ad_hoc_feeds(self, service, clock):
        _register(service)  # no interval: ad hoc
        clock.tick(10 * 86400.0)
        assert service.tick() == []

    def test_status_shape(self, service, clock):
        _register(service, interval=600.0)
        clock.tick(30.0)
        service.refresh("acme", "orders", {"status": good_refresh()})
        status = service.status()
        assert status["now"] == clock.now
        assert status["n_feeds"] == 1
        assert status["refreshes_total"] == 1
        (feed,) = status["feeds"]
        assert feed["overdue"] is False
        assert feed["refresh_id"] == 1
        assert feed["columns"]["status"]["monitored"] is True
        assert feed["columns"]["note"]["monitored"] is False
        clock.tick(OVERDUE_GRACE * 600.0 + 1.0)
        assert service.status()["feeds"][0]["overdue"] is True

    def test_restart_resumes_everything(self, tmp_path, clock):
        service = WatchService(
            tmp_path / "watch", learner=fake_learner, clock=clock, perf=clock
        )
        _register(service, interval=600.0)
        for _ in range(3):
            clock.tick(60.0)
            service.refresh("acme", "orders", {"status": good_refresh()})
        service.refresh("acme", "orders", {"status": bad_refresh()})
        # A new process over the same state dir — no learner needed.
        resumed = WatchService(tmp_path / "watch", clock=clock, perf=clock)
        assert len(resumed.registry) == 1
        assert [a.kind for a in resumed.alerts()] == ["rule_violation"]
        assert len(resumed.timeseries.records()) == 4
        outcome = resumed.refresh("acme", "orders", {"status": good_refresh()})
        assert outcome["refresh_id"] == 5  # the counter resumed, not restarted

    def test_report_formats(self, service, clock):
        _register(service, interval=600.0)
        clock.tick(60.0)
        service.refresh("acme", "orders", {"status": bad_refresh()})
        parsed = json.loads(service.report(format="json"))
        assert parsed["status"]["n_feeds"] == 1
        assert parsed["alerts"]
        markdown = service.report(format="md")
        assert "# Data-quality watch report" in markdown
        assert "acme/orders" in markdown and "rule_violation" in markdown
        html = service.report(format="html")
        assert html.lstrip().startswith("<!doctype html>" ) or "<html" in html
        assert "acme/orders" in html
        assert set(REPORT_FORMATS) == {"json", "md", "html"}
        with pytest.raises(ValueError, match="unknown report format"):
            render_report({}, [], format="pdf")


# -- the HTTP edge (in-process dispatch, no sockets) ---------------------------


def _dispatch(server, method, path, body=b""):
    return asyncio.run(
        server._dispatch(method, path, {}, body, ("127.0.0.1", 1))
    )


def _register_body(columns=None, interval=3600.0) -> bytes:
    return WatchRegisterRequest(
        tenant="acme", feed="orders",
        columns={name: tuple(values) for name, values in (
            columns or {"status": good_refresh()}).items()},
        interval_seconds=interval,
    ).to_json().encode("utf-8")


def _refresh_body(columns) -> bytes:
    return WatchRefreshRequest(
        tenant="acme", feed="orders",
        columns={name: tuple(values) for name, values in columns.items()},
    ).to_json().encode("utf-8")


class TestWatchHTTPServer:
    @pytest.fixture()
    def server(self, service) -> WatchHTTPServer:
        return WatchHTTPServer(service, port=0)

    def test_tick_seconds_validation(self, service):
        with pytest.raises(ValueError):
            WatchHTTPServer(service, port=0, tick_seconds=0)

    def test_health_and_metrics(self, server):
        status, payload, ctype = _dispatch(server, "GET", "/healthz")
        health = json.loads(payload)
        assert status == 200 and health["status"] == "ok"
        assert health["learner"] is True and health["n_feeds"] == 0
        status, payload, _ = _dispatch(server, "GET", "/metrics")
        metrics = json.loads(payload)
        assert status == 200 and metrics["refreshes_total"] == 0
        assert metrics["timeseries"]["wal_records"] == 0

    def test_register_refresh_loop(self, server, clock):
        status, payload, _ = _dispatch(
            server, "POST", "/v1/watch/register", _register_body()
        )
        assert status == 200
        response = WatchRegisterResponse.from_json(payload)
        assert response.outcomes == {"status": "dictionary"}

        clock.tick(60.0)
        status, payload, _ = _dispatch(
            server, "POST", "/v1/watch/refresh",
            _refresh_body({"status": bad_refresh()}),
        )
        assert status == 200
        refresh = WatchRefreshResponse.from_json(payload)
        assert refresh.refresh_id == 1
        assert refresh.severity_counts["critical"] == 1
        assert refresh.alerts[0]["kind"] == "rule_violation"

        status, payload, _ = _dispatch(server, "GET", "/v1/watch/alerts")
        assert status == 200
        alerts = WatchAlertsResponse.from_json(payload)
        assert [a["kind"] for a in alerts.alerts] == ["rule_violation"]

        status, payload, _ = _dispatch(server, "GET", "/v1/watch/status")
        assert status == 200
        assert WatchStatusResponse.from_json(payload).status["n_feeds"] == 1

    def test_report_content_types(self, server):
        _dispatch(server, "POST", "/v1/watch/register", _register_body())
        status, payload, ctype = _dispatch(server, "GET", "/v1/watch/report")
        assert status == 200 and ctype is None  # JSON: the framing default
        assert json.loads(payload)["status"]["n_feeds"] == 1
        status, payload, ctype = _dispatch(server, "GET", "/v1/watch/report.md")
        assert status == 200
        assert ctype == "text/markdown; charset=utf-8"
        assert "# Data-quality watch report" in payload
        status, payload, ctype = _dispatch(server, "GET", "/v1/watch/report.html")
        assert status == 200
        assert ctype == "text/html; charset=utf-8"

    def test_error_mapping(self, server, tmp_path, clock):
        # Unknown route.
        status, payload, _ = _dispatch(server, "GET", "/v1/watch/nope")
        assert status == 404 and json.loads(payload)["code"] == "not_found"
        # GET on a POST route / POST on a GET route.
        status, payload, _ = _dispatch(server, "GET", "/v1/watch/refresh")
        assert status == 405
        status, payload, _ = _dispatch(server, "POST", "/v1/watch/status")
        assert status == 405
        # Malformed envelope.
        status, payload, _ = _dispatch(
            server, "POST", "/v1/watch/refresh", b'{"v": 1, "type": "nope"}'
        )
        assert status == 400 and json.loads(payload)["code"] == "bad_request"
        # Unregistered feed: the registry KeyError becomes 404.
        status, payload, _ = _dispatch(
            server, "POST", "/v1/watch/refresh", _refresh_body({"c": ["x"]})
        )
        error = json.loads(payload)
        assert status == 404 and error["code"] == "not_found"
        assert "not registered" in error["message"]
        # Register without a learner: 409 conflict.
        bare = WatchHTTPServer(
            WatchService(tmp_path / "bare", clock=clock, perf=clock), port=0
        )
        status, payload, _ = _dispatch(
            bare, "POST", "/v1/watch/register", _register_body()
        )
        assert status == 409 and json.loads(payload)["code"] == "conflict"

    def test_background_ticker_uses_service_clock(self, service, clock):
        """The in-server scheduler drives WatchService.tick — prove the
        loop body fires missed_refresh through the fake clock."""
        server = WatchHTTPServer(service, port=0, tick_seconds=0.01)
        _dispatch(server, "POST", "/v1/watch/register", _register_body())

        async def run():
            await server.start()
            try:
                deadline = 200
                while service.ticks_total == 0 and deadline:
                    await asyncio.sleep(0.01)
                    deadline -= 1
            finally:
                await server.aclose()

        clock.tick(OVERDUE_GRACE * 3600.0 + 1.0)  # the feed is now overdue
        asyncio.run(run())
        assert service.ticks_total >= 1
        assert [a.kind for a in service.alerts()] == ["missed_refresh"]
        assert server._tick_task is None  # cancelled on aclose


# -- wire envelopes: 30-seed property round-trips ------------------------------

_ALPHABET = "abcpXYZ019 _-|\\\"'/.:$€éß中日韓🙂  "


def _text(rng: random.Random, max_len: int = 12) -> str:
    return "".join(
        rng.choice(_ALPHABET) for _ in range(rng.randint(1, max_len))
    )


def _columns(rng: random.Random) -> dict[str, tuple[str, ...]]:
    return {
        f"c{i}_{_text(rng, 4)}": tuple(
            _text(rng) for _ in range(rng.randint(0, 6))
        )
        for i in range(rng.randint(0, 4))
    }


def _alert_payload(rng: random.Random) -> dict:
    return _alert(
        ts=rng.uniform(0, 2e9),
        column=_text(rng),
        message=_text(rng, 40),
        refresh_id=rng.randint(0, 99),
        pass_rate=rng.choice((None, rng.random())),
    ).to_payload()


def _result_payload(rng: random.Random) -> dict:
    return {
        "column": _text(rng),
        "rule_kind": rng.choice(("pattern", "dictionary")),
        "passed": rng.random() < 0.5,
        "pass_rate": rng.random(),
        "severity": rng.choice(("ok", "warning", "critical")),
        "reason": _text(rng, 20),
        "latency_ms": rng.uniform(0, 100),
    }


def _round_trip(envelope):
    text = envelope.to_json()
    clone = type(envelope).from_json(text)
    assert clone == envelope
    assert clone.to_json() == text  # byte-identical re-serialization


class TestWatchWireRoundTrips:
    @pytest.mark.parametrize("seed", range(N_SEEDS))
    def test_register_request(self, seed):
        rng = random.Random(seed)
        _round_trip(WatchRegisterRequest(
            tenant=_text(rng), feed=_text(rng), columns=_columns(rng),
            interval_seconds=rng.choice((None, rng.uniform(1.0, 1e5))),
        ))

    @pytest.mark.parametrize("seed", range(N_SEEDS))
    def test_register_response(self, seed):
        rng = random.Random(seed)
        _round_trip(WatchRegisterResponse(
            tenant=_text(rng), feed=_text(rng),
            outcomes={
                _text(rng): rng.choice(("pattern", "dictionary",
                                        "unmonitored (no rule)"))
                for _ in range(rng.randint(0, 5))
            },
        ))

    @pytest.mark.parametrize("seed", range(N_SEEDS))
    def test_refresh_request(self, seed):
        rng = random.Random(seed)
        _round_trip(WatchRefreshRequest(
            tenant=_text(rng), feed=_text(rng), columns=_columns(rng)
        ))

    @pytest.mark.parametrize("seed", range(N_SEEDS))
    def test_refresh_response(self, seed):
        rng = random.Random(seed)
        _round_trip(WatchRefreshResponse(
            tenant=_text(rng), feed=_text(rng),
            refresh_id=rng.randint(0, 10**9), ts=rng.uniform(0, 2e9),
            results=tuple(
                _result_payload(rng) for _ in range(rng.randint(0, 4))
            ),
            columns_skipped=tuple(_text(rng) for _ in range(rng.randint(0, 3))),
            severity_counts={"ok": rng.randint(0, 9),
                             "warning": rng.randint(0, 9),
                             "critical": rng.randint(0, 9)},
            alerts=tuple(_alert_payload(rng) for _ in range(rng.randint(0, 3))),
        ))

    @pytest.mark.parametrize("seed", range(N_SEEDS))
    def test_status_response(self, seed):
        rng = random.Random(seed)
        _round_trip(WatchStatusResponse(status={
            "now": rng.uniform(0, 2e9),
            "n_feeds": rng.randint(0, 5),
            "feeds": [{"tenant": _text(rng), "refresh_id": rng.randint(0, 9)}
                      for _ in range(rng.randint(0, 3))],
        }))

    @pytest.mark.parametrize("seed", range(N_SEEDS))
    def test_alerts_response(self, seed):
        rng = random.Random(seed)
        _round_trip(WatchAlertsResponse(
            alerts=tuple(_alert_payload(rng) for _ in range(rng.randint(0, 6)))
        ))

    def test_malformed_payloads_rejected(self):
        with pytest.raises(WireError):
            WatchRegisterRequest.from_json(
                '{"v": 1, "type": "watch_register_request", "tenant": "t", '
                '"feed": "f", "columns": {"c": [1, 2]}}'
            )
        with pytest.raises(WireError):
            WatchRefreshResponse.from_json(
                '{"v": 1, "type": "watch_refresh_response", "tenant": "t", '
                '"feed": "f", "refresh_id": 1, "ts": "soon", "results": [], '
                '"columns_skipped": [], "severity_counts": {}, "alerts": []}'
            )
        with pytest.raises(WireError):
            WatchAlertsResponse.from_json(
                '{"v": 1, "type": "watch_alerts_response", "alerts": ["x"]}'
            )


# -- the repro.api surface -----------------------------------------------------


class TestApiSurface:
    def test_watch_types_reexported(self):
        assert api.WatchService is WatchService
        assert api.WatchHTTPServer is WatchHTTPServer
        assert api.ColumnBaseline is ColumnBaseline
        assert api.TimeSeriesStore is TimeSeriesStore
        assert api.Alert is Alert
        assert api.WatchRegisterRequest is WatchRegisterRequest

    def test_all_names_resolve(self):
        for name in api.__all__:
            assert getattr(api, name) is not None
        assert set(api.__all__) <= set(dir(api))


# -- the loop on the real engine (HybridValidator.infer as the learner) --------


@pytest.fixture()
def hybrid_learner(small_index, small_corpus_columns, small_config):
    from repro.validate.hybrid import HybridValidator

    return HybridValidator(small_index, small_corpus_columns, small_config).infer


class TestMonitorHistory:
    def test_history_is_trimmed(self, tmp_path, hybrid_learner, rng):
        from repro.datalake.domains import DOMAIN_REGISTRY

        service = WatchService(
            tmp_path / "watch", learner=hybrid_learner, max_alerts=3
        )
        spec = DOMAIN_REGISTRY["city"]
        service.register("acme", "geo", {"city": spec.sample_many(rng, 60)})
        # Every refresh is fully corrupted, so each one appends an alert.
        for _ in range(5):
            corrupted = [f"###{v}###" for v in spec.sample_many(rng, 30)]
            assert service.refresh("acme", "geo", {"city": corrupted})["alerts"]
        # The newest alerts are the ones retained.
        assert [a.refresh_id for a in service.alerts()] == [3, 4, 5]


class TestMonitorWire:
    @pytest.mark.parametrize("seed", range(N_SEEDS))
    def test_feed_report_round_trip(self, tmp_path, hybrid_learner, seed):
        """A real engine's refresh report, as the edge answers it, survives
        the wire byte for byte."""
        from repro.datalake.domains import DOMAIN_REGISTRY

        rng = random.Random(seed)
        server = WatchHTTPServer(
            WatchService(tmp_path / "watch", learner=hybrid_learner), port=0
        )
        spec = DOMAIN_REGISTRY["city"]
        _dispatch(
            server, "POST", "/v1/watch/register",
            _register_body({"city": spec.sample_many(rng, 60)}),
        )
        values = spec.sample_many(rng, 30)
        if rng.random() < 0.5:  # half the seeds validate a corrupted refresh
            values = [f"###{v}###" for v in values]
        status, payload, _ = _dispatch(
            server, "POST", "/v1/watch/refresh", _refresh_body({"city": values})
        )
        assert status == 200
        report = WatchRefreshResponse.from_json(payload)
        assert report.to_json() == payload
        assert bool(report.alerts) == (values[0].startswith("###"))
        for alert in report.alerts:
            assert Alert.from_payload(alert).to_payload() == alert
