"""Tests for the distributed build & serve subsystem (repro.dist).

Three layers, cheapest first: wire/verification units, coordinator runs
against in-process workers with fault-injecting transports (torn
downloads, timeouts, dead workers — all deterministic), and real
subprocess fleets (worker kill mid-window, SIGTERM graceful shutdown).
The load-bearing assertion everywhere: the distributed build's output
directory is **byte-identical** to the serial streaming build's.
"""

from __future__ import annotations

import asyncio
import json
import signal
import subprocess
import sys
import threading
import time
import urllib.request
import zlib
from pathlib import Path

import pytest

import repro
from repro.api.wire import ScanRequest, ScanResponse, WireError
from repro.core.enumeration import EnumerationConfig
from repro.core.hierarchy import GeneralizationHierarchy
from repro.dist import (
    BuildJournal,
    DeadlineExceededError,
    DistBuildError,
    DistCoordinator,
    JournalMismatchError,
    NoHealthyWorkersError,
    RoundRobinClient,
    RunVerificationError,
    ScanWorkerServer,
    config_from_wire,
    config_to_wire,
)
from repro.durability import recover_crc_lines
from repro.faults import FaultyTransport, TransportFault
from repro.index.builder import build_index_streaming
from repro.index.store import verify_run_payload, write_run_file
from repro.server.base import BaseHTTPServer


def _dirs_byte_identical(a: Path, b: Path) -> bool:
    names_a = sorted(p.name for p in a.iterdir())
    names_b = sorted(p.name for p in b.iterdir())
    if names_a != names_b:
        return False
    return all((a / n).read_bytes() == (b / n).read_bytes() for n in names_a)


@pytest.fixture(scope="module")
def dist_columns(small_corpus_columns) -> list[list[str]]:
    """A slice big enough to spread over several windows, small enough to
    scan three times (serial + two distributed builds) in test time."""
    return small_corpus_columns[:80]


@pytest.fixture(scope="module")
def serial_v3(dist_columns, tmp_path_factory) -> Path:
    """The serial streaming build every distributed build must match."""
    out = tmp_path_factory.mktemp("serial") / "index.v3"
    build_index_streaming(
        dist_columns, out, EnumerationConfig(), corpus_name="dist-test",
        format="v3", n_shards=8,
    )
    return out


# -- wire envelopes ------------------------------------------------------------


class TestScanEnvelopes:
    def test_scan_request_round_trip(self):
        config = EnumerationConfig(tau=9, min_coverage=0.5)
        request = ScanRequest(
            window_id=7,
            columns=(("a", "b"), ("c",)),
            config=config_to_wire(config),
            fingerprint=config.fingerprint(),
            spill_mb=2.5,
        )
        assert ScanRequest.from_json(request.to_json()) == request

    def test_scan_response_round_trip(self):
        response = ScanResponse(
            window_id=1, run_id="scan-000001-w000001", n_entries=10,
            run_bytes=512, crc32=12345, columns_scanned=3, values_scanned=90,
            sketch_hits=2, sketch_misses=1,
        )
        assert ScanResponse.from_json(response.to_json()) == response

    def test_config_codec_round_trips_fingerprint(self):
        config = EnumerationConfig(
            tau=8,
            min_coverage=0.3,
            max_patterns=128,
            enumerate_alnum_runs=False,
            hierarchy=GeneralizationHierarchy(use_num=True, max_const_length=9),
        )
        rebuilt = config_from_wire(config_to_wire(config))
        assert rebuilt.fingerprint() == config.fingerprint()
        # And the payload survives JSON + envelope validation unchanged.
        wired = ScanRequest(
            window_id=0, columns=(("x",),),
            config=config_to_wire(config), fingerprint=config.fingerprint(),
        )
        reparsed = ScanRequest.from_json(wired.to_json())
        assert config_from_wire(reparsed.config).fingerprint() == config.fingerprint()

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda p: p.pop("fingerprint"),
            lambda p: p.__setitem__("window_id", "three"),
            lambda p: p.__setitem__("columns", [["ok"], [1, 2]]),
            lambda p: p["config"].pop("tau"),
            lambda p: p["config"].__setitem__("tau", "thirteen"),
            lambda p: p["config"].pop("hierarchy"),
            lambda p: p["config"]["hierarchy"].pop("use_num"),
        ],
    )
    def test_malformed_scan_requests_rejected(self, mutate):
        config = EnumerationConfig()
        payload = json.loads(
            ScanRequest(
                window_id=3, columns=(("v",),),
                config=config_to_wire(config), fingerprint=config.fingerprint(),
            ).to_json()
        )
        mutate(payload)
        with pytest.raises(WireError):
            ScanRequest.from_json(json.dumps(payload))


# -- run payload verification --------------------------------------------------


class TestVerifyRunPayload:
    @pytest.fixture()
    def run_bytes(self, tmp_path) -> bytes:
        path = tmp_path / "sample.run"
        write_run_file(
            path, 0,
            {"<digit>+": 123456789, "<letter>+": 42},
            {"<digit>+": 3, "<letter>+": 1},
        )
        return path.read_bytes()

    def test_valid_payload_passes(self, run_bytes):
        n_entries, crc = verify_run_payload(run_bytes)
        assert n_entries == 2
        assert crc == zlib.crc32(run_bytes)

    def test_truncated_payload_fails_on_size(self, run_bytes):
        with pytest.raises(ValueError, match="torn transfer"):
            verify_run_payload(run_bytes[:-7])

    def test_flipped_byte_fails_crc(self, run_bytes):
        torn = bytearray(run_bytes)
        torn[len(torn) // 2] ^= 0xFF
        with pytest.raises(ValueError, match="CRC-32 mismatch"):
            verify_run_payload(bytes(torn))

    def test_non_run_payload_rejected(self):
        with pytest.raises(ValueError, match="not a v3 run-spill file"):
            verify_run_payload(b"\x00" * 64)
        with pytest.raises(ValueError, match="shorter than"):
            verify_run_payload(b"AVI3")


# -- in-process worker ---------------------------------------------------------


def _dispatch(server, method, path, body=b""):
    status, payload, _ = asyncio.run(
        server._dispatch(method, path, {}, body, ("127.0.0.1", 1))
    )
    return status, payload


class TestScanWorker:
    @pytest.fixture()
    def worker(self, tmp_path) -> ScanWorkerServer:
        return ScanWorkerServer(port=0, run_dir=tmp_path / "runs")

    def _scan_request(self, columns, config=None, **overrides) -> bytes:
        config = config or EnumerationConfig()
        fields = {
            "window_id": 5,
            "columns": tuple(tuple(c) for c in columns),
            "config": config_to_wire(config),
            "fingerprint": config.fingerprint(),
            "spill_mb": 0.05,
        }
        fields.update(overrides)
        return ScanRequest(**fields).to_json().encode("utf-8")

    def test_scan_then_fetch_round_trip(self, worker):
        status, payload = _dispatch(
            worker, "POST", "/v1/scan",
            self._scan_request([["a1", "b2", "c3"], ["2021-03-04"]]),
        )
        assert status == 200
        receipt = ScanResponse.from_json(payload)
        assert receipt.window_id == 5
        assert receipt.n_entries > 0
        status, data = _dispatch(worker, "GET", f"/v1/runs/{receipt.run_id}")
        assert status == 200 and isinstance(data, bytes)
        assert len(data) == receipt.run_bytes
        assert zlib.crc32(data) == receipt.crc32
        assert verify_run_payload(data)[0] == receipt.n_entries

    def test_empty_window_still_yields_a_valid_run(self, worker):
        status, payload = _dispatch(
            worker, "POST", "/v1/scan", self._scan_request([[], []])
        )
        assert status == 200
        receipt = ScanResponse.from_json(payload)
        assert receipt.n_entries == 0
        status, data = _dispatch(worker, "GET", f"/v1/runs/{receipt.run_id}")
        assert status == 200
        assert verify_run_payload(data)[0] == 0

    def test_config_mismatch_answers_409(self, worker):
        body = self._scan_request([["x"]], fingerprint="tau=999;bogus")
        status, payload = _dispatch(worker, "POST", "/v1/scan", body)
        assert status == 409
        assert json.loads(payload)["code"] == "config_mismatch"
        assert worker.windows_scanned == 0

    def test_unknown_run_answers_404(self, worker):
        status, payload = _dispatch(worker, "GET", "/v1/runs/nope")
        assert status == 404
        assert json.loads(payload)["code"] == "run_not_found"

    def test_health_and_metrics_routes(self, worker):
        status, payload = _dispatch(worker, "GET", "/healthz")
        assert status == 200 and json.loads(payload)["role"] == "scan-worker"
        status, payload = _dispatch(worker, "GET", "/livez")
        assert status == 200 and json.loads(payload)["status"] == "alive"
        status, payload = _dispatch(worker, "GET", "/metrics")
        assert status == 200 and "windows_scanned" in json.loads(payload)


# -- coordinator against in-process workers ------------------------------------


class InProcessTransport:
    """Coordinator transport that dispatches straight into worker objects —
    every retry/teardown scenario becomes deterministic and socket-free."""

    def __init__(self, servers: dict[str, ScanWorkerServer]):
        self.servers = servers
        self.dead: list[str] = []

    def _call(self, method: str, url: str, body: bytes):
        for base, server in self.servers.items():
            if url.startswith(base + "/"):
                if base in self.dead:
                    raise ConnectionError(f"{base} is dead")
                path = url[len(base):]
                status, payload, _ = asyncio.run(
                    server._dispatch(method, path, {}, body, ("127.0.0.1", 1))
                )
                if isinstance(payload, str):
                    return status, payload.encode("utf-8")
                return status, payload
        raise ConnectionError(f"no route to {url}")

    def post(self, url: str, body: bytes):
        return self._call("POST", url, body)

    def get(self, url: str):
        return self._call("GET", url, b"")


class TearingTransport(InProcessTransport):
    """Truncates the first ``tears`` run downloads (a torn TCP stream)."""

    def __init__(self, servers, tears: int):
        super().__init__(servers)
        self.tears = tears

    def get(self, url: str):
        status, data = super().get(url)
        if "/v1/runs/" in url and self.tears > 0 and status == 200:
            self.tears -= 1
            return status, data[: len(data) // 2]
        return status, data


class TimeoutOnceTransport(InProcessTransport):
    """Times out the first ``/v1/scan`` POST (a slow worker, once)."""

    def __init__(self, servers):
        super().__init__(servers)
        self.timeouts_injected = 0

    def post(self, url: str, body: bytes):
        if url.endswith("/v1/scan") and self.timeouts_injected == 0:
            self.timeouts_injected = 1
            raise TimeoutError("injected scan timeout")
        return super().post(url, body)


def _make_pool(tmp_path, n: int) -> dict[str, ScanWorkerServer]:
    return {
        f"http://worker-{i}.test:80": ScanWorkerServer(
            port=0, run_dir=tmp_path / f"w{i}"
        )
        for i in range(n)
    }


class TestDistCoordinator:
    def test_two_workers_byte_identical_to_serial(
        self, tmp_path, dist_columns, serial_v3
    ):
        servers = _make_pool(tmp_path, 2)
        coordinator = DistCoordinator(
            sorted(servers), corpus_name="dist-test",
            transport=InProcessTransport(servers), spill_mb=0.1,
        )
        out = tmp_path / "dist.v3"
        stats = coordinator.build(dist_columns, out, format="v3", n_shards=8)
        assert _dirs_byte_identical(serial_v3, out)
        assert stats.n_workers == 2
        assert stats.windows_reassigned == 0
        assert stats.columns_scanned == len(dist_columns)
        assert sum(w.windows_scanned for w in stats.workers) == stats.n_windows
        assert sum(w.windows_scanned > 0 for w in stats.workers) == 2
        assert stats.bytes_shipped > 0
        assert stats.total_entries > 0

    def test_torn_download_retries_once_then_succeeds(
        self, tmp_path, dist_columns, serial_v3
    ):
        servers = _make_pool(tmp_path, 2)
        transport = TearingTransport(servers, tears=1)
        events = []
        coordinator = DistCoordinator(
            sorted(servers), corpus_name="dist-test", transport=transport,
            on_event=lambda kind, **info: events.append(kind),
        )
        out = tmp_path / "dist.v3"
        stats = coordinator.build(dist_columns, out, format="v3", n_shards=8)
        assert _dirs_byte_identical(serial_v3, out)
        assert stats.download_retries == 1
        assert "download_retry" in events

    def test_torn_download_twice_surfaces_named_error(
        self, tmp_path, dist_columns
    ):
        servers = _make_pool(tmp_path, 1)
        transport = TearingTransport(servers, tears=10_000)  # every download
        coordinator = DistCoordinator(
            sorted(servers), corpus_name="dist-test", transport=transport
        )
        with pytest.raises(RunVerificationError, match="failed verification twice"):
            coordinator.build(dist_columns, tmp_path / "dist.v3", format="v3")

    def test_scan_timeout_backs_off_and_retries(
        self, tmp_path, dist_columns, serial_v3
    ):
        servers = _make_pool(tmp_path, 2)
        delays = []
        coordinator = DistCoordinator(
            sorted(servers), corpus_name="dist-test",
            transport=TimeoutOnceTransport(servers),
            sleep=delays.append, backoff=0.5, backoff_cap=8.0,
        )
        out = tmp_path / "dist.v3"
        stats = coordinator.build(dist_columns, out, format="v3", n_shards=8)
        assert _dirs_byte_identical(serial_v3, out)
        assert stats.windows_retried == 1
        assert delays == [0.5]  # first backoff step, capped schedule

    def test_dead_worker_mid_build_reassigns_windows(
        self, tmp_path, dist_columns, serial_v3
    ):
        servers = _make_pool(tmp_path, 2)
        transport = InProcessTransport(servers)
        urls = sorted(servers)
        events = []

        def on_event(kind, **info):
            events.append((kind, info))
            # Kill worker 1 the moment its first window completes: its
            # next dispatch dies mid-connection and must be reassigned.
            if kind == "window_done" and info["worker"] == urls[1]:
                if urls[1] not in transport.dead:
                    transport.dead.append(urls[1])

        coordinator = DistCoordinator(
            urls, corpus_name="dist-test", transport=transport,
            on_event=on_event, windows_per_worker=4,
        )
        out = tmp_path / "dist.v3"
        stats = coordinator.build(dist_columns, out, format="v3", n_shards=8)
        assert _dirs_byte_identical(serial_v3, out)
        assert stats.windows_reassigned >= 1
        assert [w.dead for w in stats.workers] == [False, True]
        assert ("reassign" in [kind for kind, _ in events])

    def test_all_workers_dead_raises_named_error(self, tmp_path, dist_columns):
        servers = _make_pool(tmp_path, 1)
        transport = InProcessTransport(servers)
        url = sorted(servers)[0]

        def kill_after_first(kind, **info):
            if kind == "window_done" and url not in transport.dead:
                transport.dead.append(url)

        coordinator = DistCoordinator(
            [url], corpus_name="dist-test", transport=transport,
            on_event=kill_after_first,
        )
        with pytest.raises(DistBuildError, match="no live workers"):
            coordinator.build(dist_columns, tmp_path / "dist.v3", format="v3")

    def test_no_healthy_workers_fails_before_shipping(self, tmp_path, dist_columns):
        transport = InProcessTransport({})  # every URL unroutable
        coordinator = DistCoordinator(
            ["http://nowhere-a.test:80", "http://nowhere-b.test:80"],
            transport=transport,
        )
        with pytest.raises(NoHealthyWorkersError):
            coordinator.build(dist_columns, tmp_path / "dist.v3", format="v3")

    def test_config_mismatch_fails_the_build(self, tmp_path, dist_columns):
        servers = _make_pool(tmp_path, 1)
        coordinator = DistCoordinator(
            sorted(servers), transport=InProcessTransport(servers),
            config=EnumerationConfig(),
        )
        # Corrupt the fingerprint after partitioning by lying about τ.
        coordinator.config = EnumerationConfig()
        original = coordinator._partition

        def tampered(columns, n_workers):
            windows = original(columns, n_workers)
            for window in windows:
                body = json.loads(window.request_body)
                body["fingerprint"] = "tau=999;tampered"
                window.request_body = json.dumps(body).encode()
            return windows

        coordinator._partition = tampered
        with pytest.raises(DistBuildError, match="config_mismatch"):
            coordinator.build(dist_columns, tmp_path / "dist.v3", format="v3")

    def test_v2_format_also_byte_identical(self, tmp_path, dist_columns):
        serial = tmp_path / "serial.v2"
        build_index_streaming(
            dist_columns, serial, EnumerationConfig(),
            corpus_name="dist-test", format="v2", n_shards=4,
        )
        servers = _make_pool(tmp_path, 2)
        coordinator = DistCoordinator(
            sorted(servers), corpus_name="dist-test",
            transport=InProcessTransport(servers),
        )
        out = tmp_path / "dist.v2"
        coordinator.build(dist_columns, out, format="v2", n_shards=4)
        assert _dirs_byte_identical(serial, out)


# -- subprocess fleet: worker kill + graceful shutdown -------------------------


def _worker_env() -> dict:
    package_root = str(Path(repro.__file__).resolve().parents[1])
    return {
        "PYTHONPATH": package_root,
        "PATH": "/usr/bin:/bin:" + sys.exec_prefix + "/bin",
        "PYTHONUNBUFFERED": "1",
    }


def _spawn_worker(*extra_args: str) -> tuple[subprocess.Popen, str]:
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "worker", "--port", "0", *extra_args],
        env=_worker_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    ready = process.stdout.readline().strip()
    assert "worker on http://" in ready, ready
    return process, ready.split()[2]


class TestSubprocessFleet:
    def test_worker_kill_mid_window_reassigns_and_stays_byte_identical(
        self, dist_columns, serial_v3, tmp_path
    ):
        processes, urls = [], []
        for _ in range(2):
            process, url = _spawn_worker()
            processes.append(process)
            urls.append(url)
        victim = urls[1]
        events = []
        try:
            def on_event(kind, **info):
                events.append(kind)
                # SIGKILL the victim as its second window is dispatched:
                # the in-flight POST dies mid-request — the hard variant
                # of "worker dies mid-scan".
                if (
                    kind == "dispatch"
                    and info["worker"] == victim
                    and processes[1].poll() is None
                    and events.count("dispatch") > 2
                ):
                    processes[1].kill()
                    processes[1].wait(timeout=10)

            coordinator = DistCoordinator(
                urls, corpus_name="dist-test", windows_per_worker=4,
                timeout=60.0, on_event=on_event,
            )
            out = tmp_path / "dist.v3"
            stats = coordinator.build(dist_columns, out, format="v3", n_shards=8)
            assert processes[1].poll() is not None  # the kill fired
            assert stats.windows_reassigned >= 1
            assert stats.workers[1].dead
            assert _dirs_byte_identical(serial_v3, out)
        finally:
            for process in processes:
                if process.poll() is None:
                    process.kill()
                process.wait(timeout=10)

    def test_sigterm_drains_and_exits_zero(self):
        process, url = _spawn_worker()
        try:
            with urllib.request.urlopen(url + "/healthz", timeout=10) as response:
                assert response.status == 200
            process.send_signal(signal.SIGTERM)
            _out, err = process.communicate(timeout=15)
            assert process.returncode == 0
            assert "shutdown complete" in err
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10)


# -- graceful drain (in-process) -----------------------------------------------


class SlowEchoServer(BaseHTTPServer):
    """Minimal edge whose handler takes long enough to observe a drain."""

    async def _handle(self, method, path, headers, body, peer):
        await asyncio.sleep(0.3)
        return '{"ok": true}'


class TestGracefulDrain:
    def test_shutdown_waits_for_inflight_requests(self):
        loop = asyncio.new_event_loop()
        thread = threading.Thread(target=loop.run_forever, daemon=True)
        thread.start()
        server = SlowEchoServer(port=0)
        try:
            asyncio.run_coroutine_threadsafe(server.start(), loop).result(timeout=10)
            url = f"http://127.0.0.1:{server.port}/anything"
            statuses = []

            def request():
                with urllib.request.urlopen(url, timeout=10) as response:
                    statuses.append(response.status)

            requester = threading.Thread(target=request)
            requester.start()
            deadline = time.monotonic() + 5.0
            while server.inflight == 0 and time.monotonic() < deadline:
                time.sleep(0.005)
            assert server.inflight == 1
            abandoned = asyncio.run_coroutine_threadsafe(
                server.shutdown(drain_seconds=5.0), loop
            ).result(timeout=10)
            requester.join(timeout=10)
            assert abandoned == 0  # the in-flight request finished
            assert statuses == [200]
            assert server.draining
        finally:
            asyncio.run_coroutine_threadsafe(server.aclose(), loop).result(timeout=10)
            loop.call_soon_threadsafe(loop.stop)
            thread.join(timeout=10)


# -- readiness/liveness split --------------------------------------------------


class TestReadinessSplit:
    @pytest.fixture()
    def server(self, small_index, small_config):
        from repro.server.http import ValidationHTTPServer
        from repro.service import ValidationService

        yield ValidationHTTPServer(ValidationService(small_index, small_config))

    def test_warming_index_answers_503_loading(self, server, monkeypatch):
        monkeypatch.setattr(
            server.service.index, "prefetch_pending", True,
            raising=False,
        )
        status, payload = _dispatch(server, "GET", "/healthz")
        assert status == 503
        assert json.loads(payload)["status"] == "loading"
        # Liveness is unaffected: the process is fine, just cold.
        status, payload = _dispatch(server, "GET", "/livez")
        assert status == 200
        assert json.loads(payload)["status"] == "alive"
        status, payload = _dispatch(server, "GET", "/metrics")
        assert status == 200
        assert json.loads(payload)["ready"] is False

    def test_warm_index_is_ready(self, server):
        status, payload = _dispatch(server, "GET", "/healthz")
        assert status == 200
        assert json.loads(payload)["status"] == "ok"
        status, payload = _dispatch(server, "GET", "/metrics")
        assert json.loads(payload)["ready"] is True

    def test_mmap_index_reports_prefetch_pending(self, tmp_path, small_index):
        from repro.index.store import open_index, save_index

        save_index(small_index, tmp_path / "idx.v3", format="v3")
        index = open_index(tmp_path / "idx.v3")
        assert index.prefetch_pending is False  # no prefetch requested
        thread = index.start_prefetch()
        thread.join(timeout=30)
        assert index.prefetch_pending is False  # finished
        assert index.prefetched_shard_count > 0


# -- round-robin client --------------------------------------------------------


class ScriptedReplicaTransport:
    """Replica stub: scripted health + canned infer/batch responses."""

    def __init__(self, replicas: dict[str, dict]):
        self.replicas = replicas
        self.calls: list[tuple[str, str]] = []
        #: (replica, the columns of one /v1/infer_batch POST)
        self.batches: list[tuple[str, list[tuple[str, ...]]]] = []

    def get(self, url: str):
        base, _, path = url.partition("/healthz")
        self.calls.append(("GET", url))
        spec = self.replicas[base]
        if spec.get("dead"):
            raise ConnectionError(f"{base} is dead")
        status = 503 if spec.get("loading") else 200
        return status, b'{"status": "ok"}'

    def post(self, url: str, body: bytes):
        self.calls.append(("POST", url))
        base = url.split("/v1/")[0]
        spec = self.replicas[base]
        if spec.get("dead"):
            raise ConnectionError(f"{base} is dead")
        from repro.api.wire import (
            BatchEnvelope,
            InferRequest,
            InferResponse,
        )
        from repro.validate.result import InferenceResult

        result = InferenceResult(
            rule=None, variant="fmdv", reason=f"answered by {base}"
        )
        if url.endswith("/v1/infer_batch"):
            request = BatchEnvelope.from_json(body)
            self.batches.append((base, [item.values for item in request.items]))
            response = BatchEnvelope(
                items=tuple(
                    InferResponse(result=InferenceResult(
                        rule=None, variant="fmdv",
                        reason=f"answered by {base}: {'|'.join(item.values)}",
                    ))
                    for item in request.items
                )
            )
            return 200, response.to_json().encode()
        InferRequest.from_json(body)
        return 200, InferResponse(result=result).to_json().encode()


class TestRoundRobinClient:
    def test_ready_excludes_loading_and_dead(self):
        transport = ScriptedReplicaTransport({
            "http://r0": {}, "http://r1": {"loading": True},
            "http://r2": {"dead": True},
        })
        client = RoundRobinClient(
            ["http://r0", "http://r1", "http://r2"], transport=transport
        )
        assert client.ready_replicas() == ["http://r0"]

    def test_infer_rotates_across_replicas(self):
        transport = ScriptedReplicaTransport({"http://r0": {}, "http://r1": {}})
        client = RoundRobinClient(["http://r0", "http://r1"], transport=transport)
        answered = [client.infer(["v"]).reason for _ in range(4)]
        assert answered == [
            "answered by http://r0", "answered by http://r1",
            "answered by http://r0", "answered by http://r1",
        ]

    def test_batch_fans_out_and_reassembles_in_order(self):
        transport = ScriptedReplicaTransport({"http://r0": {}, "http://r1": {}})
        client = RoundRobinClient(["http://r0", "http://r1"], transport=transport)
        results = client.infer_batch([["a"], ["b"], ["c"], ["d"], ["e"]])
        assert len(results) == 5
        posts = [url for method, url in transport.calls if method == "POST"]
        assert len(posts) == 2  # one sub-batch per replica

    def test_batch_dedupes_by_column_digest(self):
        """A repeated column, or a permutation of one, is POSTed once."""
        transport = ScriptedReplicaTransport({"http://r0": {}, "http://r1": {}})
        client = RoundRobinClient(["http://r0", "http://r1"], transport=transport)
        column, other = ["a", "b", "c"], ["x", "y"]
        results = client.infer_batch([column, other, column[::-1], column])
        posted = sorted(values for _, items in transport.batches for values in items)
        assert posted == [tuple(column), tuple(other)]
        assert results[0] is results[2] is results[3]
        assert results[1] is not results[0]

    def test_batch_duplicates_share_one_result(self):
        """Results come back in input order, every distinct column is
        solved once, and its repeats share that one result."""
        transport = ScriptedReplicaTransport({"http://r0": {}, "http://r1": {}})
        client = RoundRobinClient(["http://r0", "http://r1"], transport=transport)
        columns = [[f"v{i}"] * (i + 1) for i in range(6)]
        batch = columns * 2  # 12 columns, 6 distinct
        results = client.infer_batch(batch)
        assert len(results) == 12
        for values, result in zip(batch, results):
            assert result.reason.endswith(": " + "|".join(values))
        for i in range(6):
            assert results[i] is results[i + 6]
        assert sum(len(items) for _, items in transport.batches) == 6

    def test_batch_split_balances_value_counts(self):
        """One huge column gets a replica to itself; the small ones go to
        the other, instead of alternating by position."""
        transport = ScriptedReplicaTransport({"http://r0": {}, "http://r1": {}})
        client = RoundRobinClient(["http://r0", "http://r1"], transport=transport)
        big = [str(i) for i in range(100)]
        client.infer_batch([["a"], big, ["b"], ["c"]])
        sizes = sorted(sum(map(len, items)) for _, items in transport.batches)
        assert sizes == [3, 100]

    def test_failover_to_next_replica(self):
        transport = ScriptedReplicaTransport({
            "http://r0": {"dead": True}, "http://r1": {},
        })
        client = RoundRobinClient(["http://r0", "http://r1"], transport=transport)
        result = client.infer(["v"])
        assert result.reason == "answered by http://r1"
        assert client.failovers == 1

    def test_all_dead_raises(self):
        from repro.dist.client import AllReplicasFailedError

        transport = ScriptedReplicaTransport({
            "http://r0": {"dead": True}, "http://r1": {"dead": True},
        })
        client = RoundRobinClient(["http://r0", "http://r1"], transport=transport)
        with pytest.raises(AllReplicasFailedError):
            client.infer(["v"])


# -- build journal & resume ----------------------------------------------------


class _CoordinatorKilled(BaseException):
    """Stands in for a coordinator SIGKILL: unwinds the build with no
    cleanup that could write further state (receipts already committed)."""


class KillAfterTransport(InProcessTransport):
    """Raises on the N-th ``/v1/scan`` POST — the in-process equivalent of
    the coordinator dying mid-build (everything before it is journaled)."""

    def __init__(self, servers, kill_at: int):
        super().__init__(servers)
        self.kill_at = kill_at
        self.scans = 0

    def post(self, url: str, body: bytes):
        if url.endswith("/v1/scan"):
            if self.scans == self.kill_at:
                raise _CoordinatorKilled("coordinator killed mid-build")
            self.scans += 1
        return super().post(url, body)


class TestBuildJournalResume:
    def test_journaled_build_receipts_every_window(
        self, tmp_path, dist_columns, serial_v3
    ):
        servers = _make_pool(tmp_path, 2)
        journal_dir = tmp_path / "journal"
        coordinator = DistCoordinator(
            sorted(servers), corpus_name="dist-test",
            transport=InProcessTransport(servers), journal_dir=journal_dir,
        )
        out = tmp_path / "dist.v3"
        stats = coordinator.build(dist_columns, out, format="v3", n_shards=8)
        assert _dirs_byte_identical(serial_v3, out)
        assert stats.windows_reused == 0
        records = recover_crc_lines(journal_dir / "journal.ndjson")
        kinds = [record["kind"] for record in records]
        assert kinds[0] == "build_start"
        assert kinds[-1] == "build_done"
        assert kinds.count("window_done") == stats.n_windows
        assert records[0]["n_windows"] == stats.n_windows
        # Every receipt re-verifies against the run bytes on disk.
        journal = BuildJournal(journal_dir)
        assert sorted(journal.verified_windows(records)) == list(
            range(stats.n_windows)
        )

    def test_killed_coordinator_resumes_byte_identical(
        self, tmp_path, dist_columns, serial_v3
    ):
        servers = _make_pool(tmp_path, 1)
        journal_dir = tmp_path / "journal"
        coordinator = DistCoordinator(
            sorted(servers), corpus_name="dist-test",
            transport=KillAfterTransport(servers, kill_at=3),
            journal_dir=journal_dir, windows_per_worker=6,
        )
        with pytest.raises(_CoordinatorKilled):
            coordinator.build(
                dist_columns, tmp_path / "dead.v3", format="v3", n_shards=8
            )
        receipts = [
            record
            for record in recover_crc_lines(journal_dir / "journal.ndjson")
            if record["kind"] == "window_done"
        ]
        assert len(receipts) == 3
        assert not (tmp_path / "dead.v3").exists()

        # Resume with a *different* fleet (two fresh workers): the journal
        # header pins the partitioning, so the output must still be
        # byte-identical while only the unfinished windows re-scan.
        servers2 = _make_pool(tmp_path / "fleet2", 2)
        events = []
        resumed = DistCoordinator(
            sorted(servers2), corpus_name="dist-test",
            transport=InProcessTransport(servers2), journal_dir=journal_dir,
            on_event=lambda kind, **info: events.append(kind),
        )
        out = tmp_path / "resumed.v3"
        stats = resumed.build(
            dist_columns, out, format="v3", n_shards=8, resume=True
        )
        assert _dirs_byte_identical(serial_v3, out)
        assert stats.n_windows == 6
        assert stats.windows_reused == 3
        assert sum(w.windows_scanned for w in stats.workers) == 3
        assert events.count("window_reused") == 3
        final = recover_crc_lines(journal_dir / "journal.ndjson")
        assert final[-1]["kind"] == "build_done"

    def test_corrupt_checkpoint_rescans_only_that_window(
        self, tmp_path, dist_columns, serial_v3
    ):
        servers = _make_pool(tmp_path, 1)
        journal_dir = tmp_path / "journal"
        coordinator = DistCoordinator(
            sorted(servers), corpus_name="dist-test",
            transport=InProcessTransport(servers), journal_dir=journal_dir,
            windows_per_worker=4,
        )
        coordinator.build(
            dist_columns, tmp_path / "first.v3", format="v3", n_shards=8
        )
        victim = journal_dir / "window-000002.run"
        tampered = bytearray(victim.read_bytes())
        tampered[len(tampered) // 2] ^= 0xFF
        victim.write_bytes(bytes(tampered))

        resumed = DistCoordinator(
            sorted(servers), corpus_name="dist-test",
            transport=InProcessTransport(servers), journal_dir=journal_dir,
        )
        out = tmp_path / "resumed.v3"
        stats = resumed.build(
            dist_columns, out, format="v3", n_shards=8, resume=True
        )
        assert stats.n_windows == 4
        assert stats.windows_reused == 3  # the tampered receipt is distrusted
        assert _dirs_byte_identical(serial_v3, out)

    def test_resume_refuses_a_different_build(self, tmp_path, dist_columns):
        servers = _make_pool(tmp_path, 1)
        journal_dir = tmp_path / "journal"
        coordinator = DistCoordinator(
            sorted(servers), corpus_name="dist-test",
            transport=InProcessTransport(servers), journal_dir=journal_dir,
            windows_per_worker=2,
        )
        coordinator.build(
            dist_columns, tmp_path / "first.v3", format="v3", n_shards=8
        )

        def fresh() -> DistCoordinator:
            return DistCoordinator(
                sorted(servers), corpus_name="dist-test",
                transport=InProcessTransport(servers), journal_dir=journal_dir,
            )

        with pytest.raises(JournalMismatchError, match="corpus_digest"):
            fresh().build(
                dist_columns[:-1], tmp_path / "a.v3",
                format="v3", n_shards=8, resume=True,
            )
        with pytest.raises(JournalMismatchError, match="n_shards"):
            fresh().build(
                dist_columns, tmp_path / "b.v3",
                format="v3", n_shards=4, resume=True,
            )
        with pytest.raises(JournalMismatchError, match="format"):
            fresh().build(
                dist_columns, tmp_path / "c.v3",
                format="v2", n_shards=8, resume=True,
            )

    def test_resume_with_empty_journal_refuses(self, tmp_path, dist_columns):
        servers = _make_pool(tmp_path, 1)
        coordinator = DistCoordinator(
            sorted(servers), corpus_name="dist-test",
            transport=InProcessTransport(servers),
            journal_dir=tmp_path / "journal",
        )
        with pytest.raises(JournalMismatchError, match="nothing to resume"):
            coordinator.build(
                dist_columns, tmp_path / "dist.v3",
                format="v3", n_shards=8, resume=True,
            )

    def test_resume_without_journal_is_a_value_error(
        self, tmp_path, dist_columns
    ):
        servers = _make_pool(tmp_path, 1)
        coordinator = DistCoordinator(
            sorted(servers), corpus_name="dist-test",
            transport=InProcessTransport(servers),
        )
        with pytest.raises(ValueError, match="journal_dir"):
            coordinator.build(
                dist_columns, tmp_path / "dist.v3", format="v3", resume=True
            )


class TestFaultyTransportDistBuild:
    def test_build_survives_reset_and_torn_download(
        self, tmp_path, dist_columns, serial_v3
    ):
        servers = _make_pool(tmp_path, 2)
        transport = FaultyTransport(
            InProcessTransport(servers),
            faults=[
                TransportFault("post", "/v1/scan", "reset", at=0),
                TransportFault("get", "/v1/runs/", "truncate", at=0),
            ],
        )
        coordinator = DistCoordinator(
            sorted(servers), corpus_name="dist-test", transport=transport,
        )
        out = tmp_path / "dist.v3"
        stats = coordinator.build(dist_columns, out, format="v3", n_shards=8)
        assert _dirs_byte_identical(serial_v3, out)
        assert stats.windows_reassigned >= 1  # the reset worker died
        assert stats.download_retries >= 1  # the torn body re-fetched
        fired = [action for _m, _u, action in transport.requests if action]
        assert fired.count("reset") == 1
        assert fired.count("truncate") == 1


# -- client deadline & backoff -------------------------------------------------


class TestClientDeadlineBackoff:
    def _dead_pool(self) -> ScriptedReplicaTransport:
        return ScriptedReplicaTransport(
            {"http://r0": {"dead": True}, "http://r1": {"dead": True}}
        )

    def test_backoff_schedule_capped_exponential_with_jitter(self):
        client = RoundRobinClient(
            ["http://r0"], transport=self._dead_pool(),
            backoff=0.1, backoff_cap=0.4, jitter_seed=7,
        )
        for attempt in range(1, 7):
            raw = min(0.1 * 2.0 ** (attempt - 1), 0.4)
            delay = client._backoff_delay(attempt)
            assert raw / 2 <= delay <= raw  # full jitter in [raw/2, raw]

    def test_jitter_is_deterministic_under_a_seed(self):
        make = lambda: RoundRobinClient(
            ["http://r0"], transport=self._dead_pool(),
            backoff=0.05, backoff_cap=2.0, jitter_seed=123,
        )
        a, b = make(), make()
        assert [a._backoff_delay(i) for i in range(1, 8)] == [
            b._backoff_delay(i) for i in range(1, 8)
        ]

    def test_deadline_bounds_total_failover_time(self):
        now = [0.0]
        slept = []

        def sleep(seconds: float) -> None:
            slept.append(seconds)
            now[0] += seconds

        client = RoundRobinClient(
            ["http://r0", "http://r1"], transport=self._dead_pool(),
            deadline=0.2, max_rounds=50, backoff=0.05, backoff_cap=1.0,
            jitter_seed=1, sleep=sleep, clock=lambda: now[0],
        )
        with pytest.raises(DeadlineExceededError):
            client.infer(["v"])
        # The budget was respected: we never slept past the deadline.
        assert now[0] <= 0.2
        assert slept  # at least one backoff happened before giving up

    def test_deadline_error_is_an_all_replicas_failure(self):
        from repro.dist.client import AllReplicasFailedError

        assert issubclass(DeadlineExceededError, AllReplicasFailedError)

    def test_per_call_timeout_clamped_to_remaining_budget(self):
        seen: list[float | None] = []

        class RecordingTransport:
            def post(self, url, body, timeout=None):
                seen.append(timeout)
                raise ConnectionError("down")

            def get(self, url):
                return 200, b'{"status": "ok"}'

        now = [0.0]

        def sleep(seconds: float) -> None:
            now[0] += seconds

        client = RoundRobinClient(
            ["http://r0", "http://r1"], transport=RecordingTransport(),
            timeout=30.0, deadline=1.0, max_rounds=10,
            backoff=0.05, backoff_cap=1.0, jitter_seed=3,
            sleep=sleep, clock=lambda: now[0],
        )
        with pytest.raises(DeadlineExceededError):
            client.infer(["v"])
        assert seen
        assert all(t is not None and 0 < t <= 1.0 for t in seen)


# -- load shedding -------------------------------------------------------------


class TestLoadShedding:
    def _shed_worker(self, tmp_path) -> ScanWorkerServer:
        server = ScanWorkerServer(
            port=0, run_dir=tmp_path / "runs", max_inflight=1
        )
        server._inflight = 1  # simulate a request stuck in flight
        return server

    def test_sheds_non_probe_traffic_at_the_bound(self, tmp_path):
        server = self._shed_worker(tmp_path)
        status, payload, _ = asyncio.run(
            server._dispatch("GET", "/v1/runs/nope", {}, b"", ("127.0.0.1", 1))
        )
        assert status == 503
        assert "overloaded" in payload
        assert server.sheds_total == 1

    def test_probes_and_metrics_exempt_from_shedding(self, tmp_path):
        server = self._shed_worker(tmp_path)
        for path in ("/healthz", "/livez", "/metrics"):
            status, _payload, _ = asyncio.run(
                server._dispatch("GET", path, {}, b"", ("127.0.0.1", 1))
            )
            assert status == 200, path
        assert server.sheds_total == 0
        # And /metrics reports sheds once one happens.
        asyncio.run(
            server._dispatch("POST", "/v1/scan", {}, b"{}", ("127.0.0.1", 1))
        )
        status, metrics, _ = asyncio.run(
            server._dispatch("GET", "/metrics", {}, b"", ("127.0.0.1", 1))
        )
        assert status == 200
        assert json.loads(metrics)["sheds_total"] == 1

    def test_503_responses_carry_retry_after(self, tmp_path):
        server = ScanWorkerServer(port=0, run_dir=tmp_path / "runs")

        class Sink:
            def __init__(self):
                self.data = b""

            def write(self, chunk: bytes) -> None:
                self.data += chunk

        shed = Sink()
        server._write_response(shed, 503, '{"code": "overloaded"}', False)
        assert b"Retry-After: 1\r\n" in shed.data
        ok = Sink()
        server._write_response(ok, 200, '{"status": "ok"}', False)
        assert b"Retry-After" not in ok.data
