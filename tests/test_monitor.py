"""The recurring-feed monitoring loop on the real inference engine.

``tests/test_watch.py`` drives ``WatchService`` with a fake learner so
pass rates are exactly controllable; this module runs the same loop —
learn once, check every refresh, relearn after a confirmed change — with
``HybridValidator.infer`` as the learner over the shared small index.
"""

from __future__ import annotations

import random

import pytest

from repro.datalake.domains import DOMAIN_REGISTRY
from repro.validate.hybrid import HybridValidator
from repro.watch import WatchService

TENANT, FEED = "acme", "events"


def _feed(rng: random.Random, n: int = 120) -> dict[str, list[str]]:
    return {
        "event_time": DOMAIN_REGISTRY["datetime_slash"].sample_many(rng, n),
        "market": DOMAIN_REGISTRY["locale_lower"].sample_many(rng, n),
        "city": DOMAIN_REGISTRY["city"].sample_many(rng, n),
        "blob": [f"⟦{rng.random()}⟧ mixed {i} ?" + "x" * (i % 9) for i in range(n)],
    }


@pytest.fixture()
def service(tmp_path, small_index, small_corpus_columns, small_config):
    validator = HybridValidator(small_index, small_corpus_columns, small_config)
    return WatchService(tmp_path / "watch", learner=validator.infer)


@pytest.fixture()
def monitor(service, rng):
    service.register(TENANT, FEED, _feed(rng))
    return service


def _state(service: WatchService):
    return service.registry.require(TENANT, FEED)


def _alerting(outcome: dict) -> list[str]:
    return [r["column"] for r in outcome["results"] if not r["passed"]]


class TestLearning:
    def test_learn_reports_rule_kinds(self, service, rng):
        outcomes = service.register(TENANT, FEED, _feed(rng))
        assert outcomes["event_time"] == "pattern"
        assert outcomes["city"] == "dictionary"
        assert outcomes["blob"].startswith("unmonitored")

    def test_monitored_columns(self, monitor):
        assert "event_time" in _state(monitor).monitored_columns()
        assert "blob" not in _state(monitor).monitored_columns()

    def test_rule_kind_lookup(self, monitor):
        assert _state(monitor).columns["event_time"].kind == "pattern"
        assert _state(monitor).columns["blob"].kind == "none"


class TestChecking:
    def test_clean_refresh_is_ok(self, monitor, rng):
        outcome = monitor.refresh(TENANT, FEED, _feed(rng))
        assert outcome["alerts"] == []
        assert len(outcome["results"]) == 3
        assert outcome["columns_skipped"] == ["blob"]
        assert outcome["severity_counts"] == {"ok": 3, "warning": 0, "critical": 0}

    def test_drifted_column_alerts(self, monitor, rng):
        feed = _feed(rng)
        feed["event_time"] = DOMAIN_REGISTRY["guid"].sample_many(rng, 120)
        outcome = monitor.refresh(TENANT, FEED, feed)
        assert _alerting(outcome) == ["event_time"]
        (alert,) = outcome["alerts"]
        assert (alert["column"], alert["kind"]) == ("event_time", "rule_violation")
        assert alert["message"]

    def test_history_accumulates(self, monitor, rng):
        feed = _feed(rng)
        feed["market"] = DOMAIN_REGISTRY["guid"].sample_many(rng, 120)
        monitor.refresh(TENANT, FEED, feed)
        monitor.refresh(TENANT, FEED, _feed(rng))
        monitor.refresh(TENANT, FEED, feed)
        violations = [a for a in monitor.alerts() if a.kind == "rule_violation"]
        assert [(a.column, a.refresh_id) for a in violations] == [
            ("market", 1), ("market", 3),
        ]

    def test_refresh_ids_increment(self, monitor, rng):
        first = monitor.refresh(TENANT, FEED, _feed(rng))
        second = monitor.refresh(TENANT, FEED, _feed(rng))
        assert (first["refresh_id"], second["refresh_id"]) == (1, 2)


class TestRelearning:
    def test_relearn_after_format_change(self, monitor, rng):
        """After a confirmed upstream change, relearning re-arms the column
        for the new format and stops the alerts."""
        new_format = DOMAIN_REGISTRY["datetime_iso"].sample_many(rng, 120)
        feed = _feed(rng)
        feed["event_time"] = new_format
        assert _alerting(monitor.refresh(TENANT, FEED, feed)) == ["event_time"]

        kind = monitor.relearn(TENANT, FEED, "event_time", new_format)
        assert kind == "pattern"
        feed["event_time"] = DOMAIN_REGISTRY["datetime_iso"].sample_many(rng, 120)
        assert monitor.refresh(TENANT, FEED, feed)["alerts"] == []

    def test_relearn_to_unlearnable_unmonitors(self, monitor, rng):
        outcome = monitor.relearn(
            TENANT, FEED, "event_time",
            [f"⟦{i}⟧ odd {'y' * (i % 7)}" for i in range(50)],
        )
        assert outcome.startswith("unmonitored")
        assert "event_time" not in _state(monitor).monitored_columns()
        refresh = monitor.refresh(TENANT, FEED, _feed(rng))
        assert "event_time" in refresh["columns_skipped"]
