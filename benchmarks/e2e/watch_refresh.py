"""``watch_refresh``: feed refresh -> alert durable and returned.

An in-process ``WatchService`` built the way ``auto-validate watch``
builds it (``HybridValidator.infer`` over the opened index as learner).
Feeds land on a synthetic clock, five minutes apart, so WAL rotation at
day boundaries happens at the same refreshes on every run.  Every tenth
round every feed arrives corrupted (30% sentinels) and must raise a
``rule_violation``; every other round re-delivers the registered
snapshot and must raise none.
"""

from __future__ import annotations

import shutil
import time
from typing import Any

from repro.datalake.drift import inject_invalid
from repro.faults import FaultyFS
from repro.index.store import open_index
from repro.validate.hybrid import HybridValidator
from repro.watch import WatchService
from repro.watch.alerts import Alert
from repro.watch.timeseries import Observation

from benchmarks.e2e import harness
from benchmarks.e2e.harness import Run
from benchmarks.e2e.inputs import column_stream, inference_config, rng_for
from benchmarks.e2e.serve import serving_index

TENANT = "bench"
EPOCH = 1_700_000_000.0
ROUND_SECONDS = 300.0
CORRUPT_EVERY = 10
CORRUPT_RATE = 0.3
#: Distinct corrupted payloads per feed, cycled over the corrupted rounds.
CORRUPT_VARIANTS = 4

Feed = dict[str, list[str]]


class _Clock:
    def __init__(self) -> None:
        self.now = EPOCH

    def __call__(self) -> float:
        return self.now


class _Watch:
    """The service under test plus the inputs of every round."""

    def __init__(self, ctx: Run):
        self.ctx = ctx
        self.lake, index = serving_index(ctx)
        config = inference_config(ctx.sizes)
        self.clock = _Clock()
        self.state_dir = ctx.workdir / "state"
        self.service = WatchService(
            self.state_dir,
            learner=HybridValidator(open_index(index), (), config).infer,
            clock=self.clock,
        )
        self.feeds: dict[str, Feed] = {}
        self.candidates = 0
        self.round_no = 0

    def register_feeds(self) -> None:
        """Register candidates, one domain after another, until every feed
        monitors ``watch_columns`` columns: a refresh then always validates
        the same number of columns, whatever the lake made learnable."""
        sizes = self.ctx.sizes
        stream = column_stream(rng_for(self.ctx.seed, "watch"), sizes.watch_values)
        budget = 4 * sizes.watch_feeds * sizes.watch_columns
        for feed_no in range(sizes.watch_feeds):
            name = f"feed-{feed_no}"
            monitored: Feed = {}
            while len(monitored) < sizes.watch_columns:
                if self.candidates >= budget:
                    raise RuntimeError(
                        f"{budget} candidate columns left {name} short of "
                        f"{sizes.watch_columns} monitored columns"
                    )
                label, values = next(stream)
                self.candidates += 1
                with self.ctx.span("watch.service.register"):
                    outcome = self.service.register(TENANT, name, {label: values})[label]
                if not outcome.startswith("unmonitored"):
                    monitored[label] = values
            self.feeds[name] = monitored
        rng = rng_for(self.ctx.seed, "watch-corruption")
        self.corrupted = {
            name: [
                {label: inject_invalid(values, rng, rate=CORRUPT_RATE)
                 for label, values in feed.items()}
                for _ in range(CORRUPT_VARIANTS)
            ]
            for name, feed in self.feeds.items()
        }

    @property
    def monitored(self) -> int:
        return sum(len(feed) for feed in self.feeds.values())

    def next_round(self) -> list[tuple[str, Feed, bool]]:
        """Advance the clock; (feed, payload, corrupted?) for every feed."""
        self.round_no += 1
        self.clock.now += ROUND_SECONDS
        corrupt = self.round_no % CORRUPT_EVERY == 0
        variant = (self.round_no // CORRUPT_EVERY) % CORRUPT_VARIANTS
        return [
            (name, self.corrupted[name][variant] if corrupt else feed, corrupt)
            for name, feed in self.feeds.items()
        ]

    def refresh(self, name: str, payload: Feed, corrupt: bool) -> dict[str, Any]:
        """One refresh, checked: corrupted -> alert, clean -> silence."""
        outcome = self.service.refresh(TENANT, name, payload)
        violations = sum(a["kind"] == "rule_violation" for a in outcome["alerts"])
        if corrupt:
            self.ctx.op(violations > 0, f"{name} round {self.round_no}: corruption not alerted")
        else:
            self.ctx.op(violations == 0, f"{name} round {self.round_no}: false rule_violation")
        return outcome


def run(ctx: Run) -> dict[str, float]:
    watch = _Watch(ctx)
    watch.register_feeds()
    ctx.setup_done()

    p50s: list[float] = []
    p95s: list[float] = []
    rates: list[float] = []
    started = time.perf_counter()
    while ctx.running(started, len(rates), ctx.sizes.min_blocks):
        latencies: list[float] = []
        block_started = time.perf_counter()
        for _ in range(ctx.sizes.watch_block_rounds):
            for name, payload, corrupt in watch.next_round():
                refresh_started = time.perf_counter()
                watch.refresh(name, payload, corrupt)
                latencies.append(time.perf_counter() - refresh_started)
        wall = time.perf_counter() - block_started
        p50s.append(harness.median(latencies))
        p95s.append(harness.percentile(latencies, 0.95))
        rates.append(len(latencies) / wall)

    blocks = len(rates)
    ctx.samples.update(
        latency_p50_ms=blocks, latency_tail_ms=blocks, throughput_per_s=blocks,
        rules_found_share=watch.candidates, peak_rss_mb=1,
    )
    ctx.info["blocks"] = blocks
    ctx.info["refreshes_per_block"] = ctx.sizes.watch_block_rounds * len(watch.feeds)
    return {
        "latency_p50_ms": harness.median(p50s) * 1000.0,
        "latency_tail_ms": harness.median(p95s) * 1000.0,
        "throughput_per_s": harness.median(rates),
        # The process hosting the WatchService is this one.
        "peak_rss_mb": harness.vm_hwm_mb(),
        "index_bytes_per_lake_byte": ctx.info["index_bytes"] / watch.lake.csv_bytes,
        "rules_found_share": watch.monitored / watch.candidates,
    }


class _StageReplay:
    """The work of ``WatchService.refresh``, layer by layer, against a
    second service opened on a copy of the registry."""

    def __init__(self, ctx: Run, watch: _Watch):
        self.tracer = ctx.tracer
        replay_dir = ctx.workdir / "state-replay"
        replay_dir.mkdir()
        shutil.copy(watch.state_dir / "registry.json", replay_dir / "registry.json")
        self.service = WatchService(replay_dir, clock=watch.clock)
        self.refresh_id = 0

    def refresh(self, name: str, payload: Feed) -> None:
        tracer, service = self.tracer, self.service
        now = service.clock()
        self.refresh_id += 1
        state = service.registry.require(TENANT, name)
        observations: list[Observation] = []
        alerts: list[Alert] = []
        for label in sorted(payload):
            column = state.columns[label]
            with tracer.span("validate.rule.validate"):
                report = column.rule().validate(payload[label])
            pass_rate = 1.0 - report.test_bad_fraction
            with tracer.span("watch.baseline.observe"):
                column.baseline.observe(pass_rate)
            severity = "warning" if report.flagged else "ok"
            observations.append(Observation(
                ts=now, tenant=TENANT, feed=name, column=label,
                refresh_id=self.refresh_id, rule_kind=column.kind,
                passed=not report.flagged, pass_rate=pass_rate,
                severity=severity, latency_ms=0.0,
            ))
            if report.flagged:
                alerts.append(Alert(
                    ts=now, tenant=TENANT, feed=name, column=label,
                    kind="rule_violation", severity=severity,
                    refresh_id=self.refresh_id, message=report.reason,
                    pass_rate=pass_rate,
                ))
        with tracer.span("watch.timeseries.append"):
            service.timeseries.append(observations)
        with tracer.span("watch.alerts.append"):
            service.alert_log.append(alerts)
        with tracer.span("watch.registry.save"):
            service.registry.save()


def trace(ctx: Run) -> dict[str, float]:
    tracer = ctx.tracer
    assert tracer is not None
    watch = _Watch(ctx)
    watch.register_feeds()
    ctx.setup_done()

    # Each refresh is replayed stage by stage right after it ran, so both
    # sides of the parts-over-whole ratio see the same machine and the
    # same WAL and registry sizes.
    replay = _StageReplay(ctx, watch)
    emitted = refreshes = 0
    for _ in range(ctx.sizes.watch_block_rounds):
        for name, payload, corrupt in watch.next_round():
            with tracer.span("watch.service.refresh"):
                outcome = watch.refresh(name, payload, corrupt)
            replay.refresh(name, payload)
            emitted += len(outcome["alerts"])
            refreshes += 1
    ts_dir = watch.state_dir / "ts"
    wal_bytes = harness.dir_bytes(ts_dir, "*.ndjson")
    seals = len(watch.service.timeseries.segments())
    registry_bytes = (watch.state_dir / "registry.json").stat().st_size

    # Filesystem traffic of a refresh, from the fault layer's passive log
    # (an empty plan injects nothing).  Its patched open/fsync cost time,
    # so these rounds are counted, not timed.
    counted = 0
    with FaultyFS(watch.state_dir) as fs:
        for name, payload, corrupt in watch.next_round():
            watch.refresh(name, payload, corrupt)
            counted += 1
    fsyncs = sum(event.op == "fsync" for event in fs.log)

    busy = tracer.busy
    validate = busy("validate.rule.validate")
    values = refreshes * ctx.sizes.watch_columns * ctx.sizes.watch_values
    stages = (
        validate + busy("watch.baseline.observe") + busy("watch.timeseries.append")
        + busy("watch.alerts.append") + busy("watch.registry.save")
    )
    return {
        "validate.rule.validate.busy_s": validate,
        "validate.rule.validate.values_per_s": values / validate,
        "watch.timeseries.append.busy_s": busy("watch.timeseries.append"),
        "watch.timeseries.wal_bytes": float(wal_bytes),
        "watch.timeseries.seals": float(seals),
        "watch.baseline.observe.busy_s": busy("watch.baseline.observe"),
        "watch.alerts.append.busy_s": busy("watch.alerts.append"),
        "watch.alerts.emitted": float(emitted),
        "watch.registry.save.busy_s": busy("watch.registry.save"),
        "watch.registry.bytes": float(registry_bytes),
        "durability.fs_ops_per_refresh": len(fs.log) / counted,
        "durability.fsyncs_per_refresh": fsyncs / counted,
        "watch.service.register.busy_s": busy("watch.service.register"),
        "watch.service.refresh.stage_sum_over_wall": stages / busy("watch.service.refresh"),
    }
