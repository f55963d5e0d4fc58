"""Tests for the fault-injection layer and the crash-point sweeps.

Two halves.  The first exercises the injection machinery itself
(FaultPlan addressing, FaultyFS interception + the lose-unfsynced crash
model, FaultyTransport) — including a meta-test proving the harness has
teeth: a deliberately fsync-free publish *fails* the sweep.  The second
half is the repo's crash-consistency contract, enforced: a crash-point
sweep per artifact family (v2 save, v3 save, run-file spill +
consolidation, merge_many, the watch WAL/day-summary path, the watch
registry, a watch refresh end to end), each asserting every possible
kill point leaves a reader recovering pre-state, post-state, or a typed
error — never silently serving corrupt data.
"""

from __future__ import annotations

import errno
import json
import os
from pathlib import Path

import pytest

from repro.durability import DurabilityError, append_crc_lines, publish_bytes
from repro.faults import (
    FaultPlan,
    FaultSpec,
    FaultyFS,
    FaultyTransport,
    SimulatedCrash,
    TransportFault,
    crash_point_sweep,
)
from repro.index.builder import merge_runs_to_index
from repro.index.index import IndexEntry, IndexMeta, PatternIndex
from repro.index.store import (
    iter_run_file,
    merge_many,
    open_index,
    save_index,
    write_run_file,
)
from repro.validate.dictionary import DictionaryRule
from repro.validate.result import InferenceResult
from repro.watch import WatchService
from repro.watch.registry import FeedState, WatchRegistry
from repro.watch.timeseries import (
    Observation,
    TimeSeriesStore,
    read_day_summary,
)

T0 = 1_720_000_000.0  # 2024-07-03, mid-day UTC

WATCH_VOCAB = ("alpha", "beta", "gamma", "delta")


def _dictionary_learner(values):
    rule = DictionaryRule(
        vocabulary=frozenset(WATCH_VOCAB), theta_train=0.0, train_size=len(values)
    )
    return InferenceResult(rule=rule, variant="test", candidates_considered=1)


def _feed(bad: int) -> dict[str, list[str]]:
    """One refresh payload: 40 values, the first ``bad`` of them junk."""
    values = list(WATCH_VOCAB) * 10
    for i in range(bad):
        values[i] = f"###bad-{i}###"
    return {"status": values}


class _Clock:
    def __init__(self, now: float):
        self.now = now

    def __call__(self) -> float:
        return self.now


def _watch(root: Path, clock: _Clock) -> WatchService:
    return WatchService(
        root / "watch", learner=_dictionary_learner, clock=clock, perf=lambda: 0.0
    )


def _watch_state(service: WatchService) -> tuple[list, list]:
    """What a restart must reproduce: status feeds + full feed payloads."""
    return (
        service.status()["feeds"],
        [state.to_payload() for state in service.registry.sorted_feeds()],
    )


def _index(tag: str, n: int = 10) -> PatternIndex:
    entries = {
        f"{tag}-key-{i:02d}": IndexEntry(fpr_sum=0.25 * (i + 1), coverage=100 + i)
        for i in range(n)
    }
    meta = IndexMeta(
        columns_scanned=n,
        values_scanned=n * 50,
        corpus_name=tag,
        fingerprint="tau=13;test",
    )
    return PatternIndex(entries, meta)


def _entries_of(index: PatternIndex) -> dict[str, tuple[float, int]]:
    return {key: (entry.fpr_sum, entry.coverage) for key, entry in index.items()}


# -- the injection machinery ---------------------------------------------------


class TestFaultPlan:
    def test_spec_validates_op_and_action(self):
        with pytest.raises(ValueError, match="unknown op"):
            FaultSpec("frobnicate", "*", "crash")
        with pytest.raises(ValueError, match="unknown action"):
            FaultSpec("write", "*", "explode")

    def test_spec_matches_basename_and_full_path(self):
        spec = FaultSpec("write", "*.tmp", "eio")
        assert spec.matches("write", "/a/b/manifest.json.tmp")
        assert not spec.matches("write", "/a/b/manifest.json")
        assert not spec.matches("fsync", "/a/b/manifest.json.tmp")

    def test_nth_occurrence_addressing(self):
        plan = FaultPlan(specs=(FaultSpec("write", "*", "eio", at=2),))
        actions = [plan.action_for(i, "write", "/r/f") for i in range(4)]
        assert actions == [None, None, "eio", None]

    def test_crash_at_fires_at_and_after_its_index(self):
        # >= semantics: if the exact op is skipped on the replay, the
        # next one still crashes instead of silently completing.
        plan = FaultPlan(crash_at=2)
        assert plan.action_for(1, "write", "/r/f") is None
        assert plan.action_for(2, "write", "/r/f") == "crash"
        assert plan.action_for(5, "fsync", "/r/f") == "crash"


class TestFaultyFS:
    def test_ops_outside_root_pass_through(self, tmp_path):
        root = tmp_path / "root"
        root.mkdir()
        outside = tmp_path / "outside.txt"
        with FaultyFS(root, FaultPlan(crash_at=0)) as fs:
            outside.write_text("untouched")
        assert outside.read_text() == "untouched"
        assert fs.ops == 0 and fs.log == []

    def test_crash_tears_the_write_and_goes_dead(self, tmp_path):
        target = tmp_path / "data.bin"
        fs = FaultyFS(
            tmp_path, FaultPlan(specs=(FaultSpec("write", "data.bin", "crash"),))
        )
        with fs:
            handle = open(target, "wb")
            with pytest.raises(SimulatedCrash):
                handle.write(b"0123456789")
            # Dead mode: cleanup code running after the "kill" cannot tidy
            # the wreckage a real SIGKILL would leave.
            with pytest.raises(SimulatedCrash):
                os.unlink(target)
        assert target.read_bytes() == b"01234"  # the torn prefix
        assert fs.crashed

    def test_eio_and_enospc_carry_their_errno(self, tmp_path):
        plan = FaultPlan(
            specs=(
                FaultSpec("write", "a.bin", "eio"),
                FaultSpec("write", "b.bin", "enospc"),
            )
        )
        with FaultyFS(tmp_path, plan):
            with open(tmp_path / "a.bin", "wb") as handle:
                with pytest.raises(OSError) as excinfo:
                    handle.write(b"xx")
            assert excinfo.value.errno == errno.EIO
            with open(tmp_path / "b.bin", "wb") as handle:
                with pytest.raises(OSError) as excinfo:
                    handle.write(b"xx")
            assert excinfo.value.errno == errno.ENOSPC

    def test_unfsynced_writes_are_lost_fsynced_ones_survive(self, tmp_path):
        fs = FaultyFS(tmp_path, FaultPlan(), lose_unfsynced=True)
        with fs:
            with open(tmp_path / "synced.bin", "wb") as handle:
                handle.write(b"durable")
                handle.flush()
                os.fsync(handle.fileno())
                handle.write(b"-lost")
            with open(tmp_path / "unsynced.bin", "wb") as handle:
                handle.write(b"all lost")
        fs.apply_crash_state()
        assert (tmp_path / "synced.bin").read_bytes() == b"durable"
        assert (tmp_path / "unsynced.bin").read_bytes() == b""

    def test_unfsynced_rename_rolls_back(self, tmp_path):
        final = tmp_path / "state.json"
        final.write_bytes(b"old")
        tmp = tmp_path / "state.json.tmp"
        fs = FaultyFS(tmp_path, FaultPlan(), lose_unfsynced=True)
        with fs:
            with open(tmp, "wb") as handle:
                handle.write(b"new")
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, final)  # no directory fsync: not committed
        fs.apply_crash_state()
        assert final.read_bytes() == b"old"
        assert tmp.read_bytes() == b"new"  # back as the orphan a crash leaves

    def test_publish_bytes_is_durable_under_the_model(self, tmp_path):
        final = tmp_path / "state.json"
        final.write_bytes(b"old")
        fs = FaultyFS(tmp_path, FaultPlan(), lose_unfsynced=True)
        with fs:
            publish_bytes(final, b"new")
        fs.apply_crash_state()
        assert final.read_bytes() == b"new"
        assert not list(tmp_path.glob("*.tmp"))

    def test_fault_log_records_every_op(self, tmp_path):
        fs = FaultyFS(tmp_path, FaultPlan())
        with fs:
            publish_bytes(tmp_path / "a.json", b"{}")
        ops = [event.op for event in fs.log]
        # open tmp, write, fsync file, replace, fsync dir.
        assert ops == ["open", "write", "fsync", "replace", "fsync"]
        assert all(event.action is None for event in fs.log)


class TestHarnessHasTeeth:
    """A publish that skips fsync must FAIL the sweep — this is the
    regression test for the harness itself, and the reason the durable
    publish discipline in repro.durability exists."""

    def test_fsync_free_publish_loses_committed_data(self):
        def setup(root: Path) -> None:
            (root / "state.json").write_text('{"gen": 0}')

        def workload(root: Path) -> None:
            # The classic broken publish: tmp + rename, no file fsync —
            # then an unrelated durable op commits the rename.
            tmp = root / "state.json.tmp"
            with open(tmp, "wb") as handle:
                handle.write(b'{"gen": 1}')
            os.replace(tmp, root / "state.json")
            publish_bytes(root / "other.json", b"{}")  # fsyncs the dir

        def check(root: Path) -> str:
            data = (root / "state.json").read_bytes()
            payload = json.loads(data)  # empty/torn file raises -> failure
            assert payload in ({"gen": 0}, {"gen": 1})
            return f"gen{payload['gen']}"

        report = crash_point_sweep(setup, workload, check)
        assert report.failures, (
            "the sweep accepted an fsync-free publish: " + report.summary()
        )

    def test_durable_publish_passes_the_same_sweep(self):
        def setup(root: Path) -> None:
            (root / "state.json").write_text('{"gen": 0}')

        def workload(root: Path) -> None:
            publish_bytes(root / "state.json", b'{"gen": 1}')
            publish_bytes(root / "other.json", b"{}")

        def check(root: Path) -> str:
            payload = json.loads((root / "state.json").read_bytes())
            assert payload in ({"gen": 0}, {"gen": 1})
            return f"gen{payload['gen']}"

        report = crash_point_sweep(setup, workload, check)
        assert not report.failures, report.summary()
        assert report.labels["gen0"]  # early kills surface the pre-state
        assert report.labels["gen1"]  # the post-completion kill keeps gen 1


class TestFaultyTransport:
    class _Inner:
        def __init__(self):
            self.calls: list[tuple[str, str]] = []

        def post(self, url: str, body: bytes) -> tuple[int, bytes]:
            self.calls.append(("post", url))
            return 200, b"0123456789"

        def get(self, url: str) -> tuple[int, bytes]:
            self.calls.append(("get", url))
            return 200, b"0123456789"

    def test_reset_timeout_and_503(self):
        inner = self._Inner()
        transport = FaultyTransport(
            inner,
            [
                TransportFault("post", "/v1/scan", "reset", at=0),
                TransportFault("get", "/runs/", "timeout", at=0),
                TransportFault("post", "/v1/scan", "error503", at=1),
            ],
        )
        with pytest.raises(ConnectionError):
            transport.post("http://w/v1/scan", b"{}")
        with pytest.raises(TimeoutError):
            transport.get("http://w/runs/7")
        status, body = transport.post("http://w/v1/scan", b"{}")
        assert status == 503 and b"unavailable" in body
        assert not inner.calls  # none of the three reached the wire
        status, body = transport.post("http://w/v1/scan", b"{}")
        assert (status, body) == (200, b"0123456789")

    def test_truncate_tears_the_body_not_the_status(self):
        transport = FaultyTransport(
            self._Inner(), [TransportFault("get", "", "truncate", at=0)]
        )
        status, body = transport.get("http://w/runs/1")
        assert status == 200 and body == b"01234"

    def test_latency_calls_sleep_then_passes_through(self):
        delays: list[float] = []
        transport = FaultyTransport(
            self._Inner(),
            [TransportFault("any", "", "latency", at=0, seconds=1.5)],
            sleep=delays.append,
        )
        assert transport.get("http://w/healthz")[0] == 200
        assert delays == [1.5]

    def test_request_log_is_deterministic(self):
        faults = [TransportFault("get", "", "reset", at=1)]
        for _ in range(2):
            transport = FaultyTransport(self._Inner(), faults)
            transport.get("http://w/a")
            with pytest.raises(ConnectionError):
                transport.get("http://w/b")
            assert [r[2] for r in transport.requests] == [None, "reset"]


# -- crash-point sweeps: the artifact-family contract --------------------------


def _reference(workload, tmp_path: Path, name: str) -> Path:
    """Run ``workload`` cleanly once, for expected-output comparison."""
    ref = tmp_path / name
    ref.mkdir()
    workload(ref)
    return ref


class TestCrashSweeps:
    @pytest.mark.parametrize("format", ["v2", "v3"])
    def test_index_save_sweep(self, format):
        index = _index("crash")
        expected = _entries_of(index)

        def setup(root: Path) -> None:
            pass

        def workload(root: Path) -> None:
            save_index(index, root / "idx", format=format, n_shards=2)

        def check(root: Path) -> str:
            target = root / "idx"
            if not (target / "manifest.json").is_file():
                # No committed manifest: there is no index yet, and trying
                # to open one must be a typed failure, not garbage.
                with pytest.raises((ValueError, FileNotFoundError)):
                    open_index(target, store=format, lazy=False)
                return "absent"
            got = open_index(target, store=format, lazy=False)
            assert _entries_of(got) == expected
            return "post"

        report = crash_point_sweep(setup, workload, check)
        assert not report.failures, report.summary()
        # Every mid-save kill leaves "no index yet"; only the
        # post-completion kill point surfaces the finished index.
        assert report.labels["absent"] == report.total_ops
        assert report.labels["post"] == 1

    def test_run_spill_and_consolidate_sweep(self, tmp_path):
        fpr_a = {"pat-a": 1 << 100, "pat-b": 7}
        cov_a = {"pat-a": 11, "pat-b": 13}
        fpr_b = {"pat-a": 1 << 90, "pat-c": 3}
        cov_b = {"pat-a": 17, "pat-c": 19}
        meta = IndexMeta(columns_scanned=2, values_scanned=60, fingerprint="t")

        def setup(root: Path) -> None:
            pass

        def workload(root: Path) -> None:
            write_run_file(root / "r0.run", 0, fpr_a, cov_a)
            write_run_file(root / "r1.run", 1, fpr_b, cov_b)
            merge_runs_to_index(
                [root / "r0.run", root / "r1.run"],
                meta,
                root / "idx",
                format="v3",
                n_shards=2,
            )

        ref = _reference(workload, tmp_path, "ref")
        expected = _entries_of(open_index(ref / "idx", lazy=False))

        def check(root: Path) -> str:
            for name in ("r0.run", "r1.run"):
                run = root / name
                if run.is_file():
                    # A visible run file must stream whole; torn is a
                    # typed ValueError, never silent short data.
                    try:
                        list(iter_run_file(run))
                    except ValueError:
                        return "typed-torn-run"
            if not (root / "idx" / "manifest.json").is_file():
                return "absent"
            got = open_index(root / "idx", store="v3", lazy=False)
            assert _entries_of(got) == expected
            return "post"

        report = crash_point_sweep(setup, workload, check)
        assert not report.failures, report.summary()
        # Durable run publishes: a visible run file is never torn.
        assert "typed-torn-run" not in report.labels

    def test_merge_many_sweep(self, tmp_path):
        a, b = _index("left", 8), _index("right", 8)

        def setup(root: Path) -> None:
            save_index(a, root / "a", format="v3", n_shards=2)
            save_index(b, root / "b", format="v3", n_shards=2)

        def workload(root: Path) -> None:
            merge_many([root / "a", root / "b"], root / "out", store="v3")

        ref = tmp_path / "ref"
        ref.mkdir()
        setup(ref)
        workload(ref)
        expected = _entries_of(open_index(ref / "out", lazy=False))
        entries_a, entries_b = _entries_of(a), _entries_of(b)

        def check(root: Path) -> str:
            # The inputs must survive every crash point untouched.
            assert _entries_of(open_index(root / "a", lazy=False)) == entries_a
            assert _entries_of(open_index(root / "b", lazy=False)) == entries_b
            if not (root / "out" / "manifest.json").is_file():
                return "absent"
            got = open_index(root / "out", store="v3", lazy=False)
            assert _entries_of(got) == expected
            return "post"

        report = crash_point_sweep(setup, workload, check)
        assert not report.failures, report.summary()

    def test_wal_and_day_summary_sweep(self):
        def _obs(ts: float, i: int) -> Observation:
            return Observation(
                ts=ts,
                tenant="acme",
                feed="orders",
                column=f"c{i}",
                refresh_id=i,
                rule_kind="dictionary",
                passed=True,
                pass_rate=1.0,
                severity="ok",
                latency_ms=1.0,
            )

        pre = [_obs(T0 + i, i) for i in range(3)]
        day_two = [_obs(T0 + 86_400.0 + i, 10 + i) for i in range(2)]
        full = pre + day_two

        def setup(root: Path) -> None:
            TimeSeriesStore(root / "ts").append(pre)

        def workload(root: Path) -> None:
            # The first day-two append seals day one: WAL rename + day
            # summary publish + fresh WAL, the full rotation machinery.
            store = TimeSeriesStore(root / "ts")
            store.append(day_two)

        def check(root: Path) -> str:
            store = TimeSeriesStore(root / "ts")  # recovery runs here
            records = store.records()
            # Whatever the kill point: an ordered prefix containing at
            # least the pre-crash state, every summary readable.
            assert records == full[: len(records)]
            assert len(records) >= len(pre)
            for day in store.summary_days():
                read_day_summary(store.summary_path(day))
            return f"n{len(records)}"

        report = crash_point_sweep(setup, workload, check)
        assert not report.failures, report.summary()
        assert report.labels[f"n{len(pre)}"]  # some kills surface pre-state

    def test_registry_publish_sweep(self):
        def _feed(feed: str) -> FeedState:
            return FeedState(
                tenant="acme", feed=feed, interval_seconds=None, registered_ts=T0
            )

        def setup(root: Path) -> None:
            registry = WatchRegistry(root / "registry.json")
            registry.put(_feed("alpha"))
            registry.save()

        def workload(root: Path) -> None:
            registry = WatchRegistry(root / "registry.json")
            registry.put(_feed("beta"))
            registry.save()

        def check(root: Path) -> str:
            registry = WatchRegistry(root / "registry.json")
            feeds = set(registry.feeds)
            assert feeds in (
                {("acme", "alpha")},
                {("acme", "alpha"), ("acme", "beta")},
            )
            # Reopening swept any orphaned publish temp.
            assert not list(root.glob("*.tmp"))
            return "pre" if len(feeds) == 1 else "post"

        report = crash_point_sweep(setup, workload, check)
        assert not report.failures, report.summary()
        assert report.labels["pre"]

    def test_watch_refresh_sweep(self, tmp_path):
        # k acknowledged refreshes, then one same-day refresh (a WAL
        # append) and one on the next UTC day (checkpoint publish, seal,
        # day summary, append).  Bad counts vary so the EWMA, the MAD
        # window and the hysteresis counters all move.
        k = 6
        bads = [0, 1, 0, 2, 0, 1, 4, 5]
        stamps = [T0 + 60.0 * i for i in range(k + 2)] + [T0 + 86_400.0]

        def setup(root: Path) -> None:
            clock = _Clock(T0)
            service = _watch(root, clock)
            service.register("acme", "orders", _feed(0))
            for i in range(1, k + 1):
                clock.now = stamps[i]
                service.refresh("acme", "orders", _feed(bads[i - 1]))

        def workload(root: Path) -> None:
            clock = _Clock(stamps[k])
            service = _watch(root, clock)
            for i in (k + 1, k + 2):
                clock.now = stamps[i]
                service.refresh("acme", "orders", _feed(bads[i - 1]))

        # The uninterrupted reference: one process, never reopened.
        clock = _Clock(T0)
        reference = _watch(tmp_path, clock)
        reference.register("acme", "orders", _feed(0))
        expected = {}
        for i in range(1, k + 3):
            clock.now = stamps[i]
            reference.refresh("acme", "orders", _feed(bads[i - 1]))
            if i >= k:
                expected[f"after-{i}"] = _watch_state(reference)

        def check(root: Path) -> str:
            reopened = _watch(root, _Clock(stamps[k + 2]))
            state = _watch_state(reopened)
            for label, reference_state in expected.items():
                if state == reference_state:
                    return label
            raise AssertionError(f"reopened state matches no reference: {state}")

        report = crash_point_sweep(setup, workload, check)
        assert not report.failures, report.summary()
        assert set(report.labels) <= set(expected)
        # No acknowledged refresh may be lost: the kill after the last op
        # must surface both workload refreshes.
        (last,) = [o for o in report.outcomes if o.op == "after-last-op"]
        assert last.label == f"after-{k + 2}"
        assert report.labels[f"after-{k}"] and report.labels[f"after-{k + 1}"]


class TestRefreshFilesystemOps:
    def test_clean_refresh_is_one_append(self, tmp_path):
        columns = {name: _feed(0)["status"] for name in ("a", "b", "c")}
        clock = _Clock(T0)
        service = _watch(tmp_path, clock)
        service.register("acme", "orders", columns)
        service.refresh("acme", "orders", columns)
        clock.now += 60.0
        with FaultyFS(tmp_path) as fs:
            service.refresh("acme", "orders", columns)
        # Three columns, one write + one fsync, and no registry publish.
        assert [(event.op, Path(event.path).name) for event in fs.log] == [
            ("open", "wal.ndjson"), ("write", "wal.ndjson"), ("fsync", "wal.ndjson"),
        ]


# -- typed ENOSPC + partial-output removal -------------------------------------


class TestNoSpaceHandling:
    def test_publish_maps_enospc_to_durability_error(self, tmp_path):
        target = tmp_path / "registry.json"
        target.write_bytes(b'{"v": 0}')
        plan = FaultPlan(specs=(FaultSpec("write", "*.tmp", "enospc"),))
        with FaultyFS(tmp_path, plan):
            with pytest.raises(DurabilityError):
                publish_bytes(target, b'{"v": 1}')
        assert target.read_bytes() == b'{"v": 0}'
        assert not list(tmp_path.glob("*.tmp"))  # partial output removed

    def test_wal_append_enospc_restores_length(self, tmp_path):
        wal = tmp_path / "wal.ndjson"
        append_crc_lines(wal, [{"i": 0}])
        base = wal.stat().st_size
        plan = FaultPlan(specs=(FaultSpec("fsync", "wal.ndjson", "enospc"),))
        with FaultyFS(tmp_path, plan):
            with pytest.raises(DurabilityError):
                append_crc_lines(wal, [{"i": 1}])
        assert wal.stat().st_size == base

    def test_failed_refresh_leaves_memory_where_disk_is(self, tmp_path):
        def run(root: Path, faulted: bool) -> WatchService:
            service = _watch(root, _Clock(T0))
            service.register("acme", "orders", _feed(0))
            for bad in (0, 1, 0, 2, 0, 0):
                service.refresh("acme", "orders", _feed(bad))
            if faulted:
                before = service.status()
                plan = FaultPlan(specs=(FaultSpec("fsync", "wal.ndjson", "enospc"),))
                with FaultyFS(root, plan):
                    with pytest.raises(DurabilityError):
                        service.refresh("acme", "orders", _feed(5))
                assert service.status() == before
            service.refresh("acme", "orders", _feed(5))  # the retry
            return service

        retried = run(tmp_path / "retried", faulted=True)
        clean = run(tmp_path / "clean", faulted=False)
        assert retried.status() == clean.status()
        assert _watch_state(retried) == _watch_state(clean)
        reopened = _watch(tmp_path / "retried", _Clock(T0))
        assert _watch_state(reopened) == _watch_state(clean)

    def test_run_file_enospc_leaves_no_partial(self, tmp_path):
        plan = FaultPlan(specs=(FaultSpec("write", "*.tmp", "enospc"),))
        with FaultyFS(tmp_path, plan):
            with pytest.raises(DurabilityError):
                write_run_file(tmp_path / "spill.run", 0, {"k": 1}, {"k": 2})
        assert list(tmp_path.iterdir()) == []


class TestOrphanCleanupOnOpen:
    @pytest.mark.parametrize("format", ["v2", "v3"])
    def test_store_open_sweeps_publish_temps(self, tmp_path, format):
        save_index(_index("x"), tmp_path / "idx", format=format, n_shards=2)
        stray = tmp_path / "idx" / "shard-0000.bin.tmp"
        stray.write_bytes(b"half a crashed publish")
        index = open_index(tmp_path / "idx", lazy=False)
        assert not stray.exists()
        assert len(_entries_of(index)) == 10
