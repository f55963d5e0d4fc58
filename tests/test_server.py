"""Tests for the HTTP serving layer (repro.server) and the CLI serve command."""

from __future__ import annotations

import json
import random
import subprocess
import sys
import threading
import urllib.error
import urllib.request
from pathlib import Path

import pytest

import repro
from repro.api.wire import (
    BatchEnvelope,
    ErrorResponse,
    InferRequest,
    InferResponse,
    ValidateRequest,
    ValidateResponse,
)
from repro.datalake.domains import DOMAIN_REGISTRY
from repro.index.store import save_index
from repro.server.http import ValidationHTTPServer
from repro.server.ratelimit import TenantRateLimiter, TokenBucket
from repro.service import ValidationService
from repro.validate.rule import ValidationRule

import asyncio


# -- rate limiter unit tests ---------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 1000.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestTokenBucket:
    def test_burst_then_starvation(self):
        bucket = TokenBucket(rate=1.0, burst=3.0, now=0.0)
        assert [bucket.try_acquire(0.0) for _ in range(4)] == [
            True, True, True, False,
        ]

    def test_refill_restores_tokens(self):
        bucket = TokenBucket(rate=2.0, burst=2.0, now=0.0)
        assert bucket.try_acquire(0.0) and bucket.try_acquire(0.0)
        assert not bucket.try_acquire(0.0)
        assert bucket.try_acquire(1.0)  # 2 tokens/s refill

    def test_refill_caps_at_burst(self):
        bucket = TokenBucket(rate=100.0, burst=2.0, now=0.0)
        bucket.try_acquire(0.0)
        bucket.try_acquire(1000.0)
        assert bucket.tokens <= 2.0


class TestTenantRateLimiter:
    def test_tenants_are_isolated(self):
        clock = FakeClock()
        limiter = TenantRateLimiter(rate=1.0, burst=1.0, clock=clock)
        assert limiter.allow("a")
        assert not limiter.allow("a")
        assert limiter.allow("b")  # a's exhaustion does not starve b

    def test_zero_rate_disables_limiting(self):
        limiter = TenantRateLimiter(rate=0.0, burst=1.0)
        assert all(limiter.allow("t") for _ in range(100))

    def test_tenant_lru_bound(self):
        clock = FakeClock()
        limiter = TenantRateLimiter(rate=1.0, burst=1.0, max_tenants=3, clock=clock)
        for i in range(10):
            limiter.allow(f"tenant-{i}")
        assert limiter.tenants() == 3

    def test_sustained_rate(self):
        clock = FakeClock()
        limiter = TenantRateLimiter(rate=5.0, burst=1.0, clock=clock)
        admitted = 0
        for _ in range(50):
            if limiter.allow("t"):
                admitted += 1
            clock.advance(0.2)  # exactly the sustained rate
        assert admitted == 50


# -- in-process server harness -------------------------------------------------


class RunningServer:
    """The HTTP server on its own event-loop thread, bound to a free port."""

    def __init__(self, service: ValidationService, **server_kwargs):
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()
        self.server = asyncio.run_coroutine_threadsafe(
            self._start(service, server_kwargs), self.loop
        ).result(timeout=30)

    def _run(self) -> None:
        asyncio.set_event_loop(self.loop)
        self.loop.run_forever()

    async def _start(self, service, server_kwargs) -> ValidationHTTPServer:
        server = ValidationHTTPServer(
            service, port=0, **server_kwargs
        )
        await server.start()
        return server

    @property
    def base_url(self) -> str:
        return f"http://127.0.0.1:{self.server.port}"

    def close(self) -> None:
        asyncio.run_coroutine_threadsafe(self.server.aclose(), self.loop).result(
            timeout=30
        )
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=30)


def http(
    url: str, body: str | None = None, headers: dict | None = None
) -> tuple[int, dict]:
    """GET (body None) or POST; returns (status, parsed JSON body)."""
    request = urllib.request.Request(
        url,
        data=body.encode("utf-8") if body is not None else None,
        headers={"Content-Type": "application/json", **(headers or {})},
        method="POST" if body is not None else "GET",
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


@pytest.fixture(scope="module")
def served(small_index, small_config):
    service = ValidationService(small_index, small_config, variant="fmdv-vh")
    running = RunningServer(service)
    yield running
    running.close()


@pytest.fixture(scope="module")
def feed_values():
    rng = random.Random(7)
    return DOMAIN_REGISTRY["datetime_slash"].sample_many(rng, 40)


class TestRoutes:
    def test_healthz(self, served):
        status, payload = http(served.base_url + "/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["generation"]

    def test_infer_round_trip(self, served, feed_values, small_index, small_config):
        request = InferRequest(values=tuple(feed_values))
        status, payload = http(served.base_url + "/v1/infer", request.to_json())
        assert status == 200
        response = InferResponse.from_json(json.dumps(payload))
        assert response.result.found and response.result.kind == "pattern"
        assert response.generation == small_index.content_digest()
        # The served rule equals what an in-process solver infers.
        local = ValidationService(
            small_index, small_config, variant="fmdv-vh"
        ).infer(feed_values)
        assert response.result.rule == local.rule

    def test_served_rule_reconstructs_via_from_json(self, served, feed_values):
        request = InferRequest(values=tuple(feed_values))
        _, payload = http(served.base_url + "/v1/infer", request.to_json())
        rule_payload = payload["result"]["rule"]
        rule = ValidationRule.from_json(json.dumps(rule_payload))
        reparsed = InferResponse.from_json(json.dumps(payload)).result.rule
        assert rule == reparsed

    def test_infer_with_variant_override(self, served, feed_values):
        request = InferRequest(values=tuple(feed_values), variant="fmdv")
        status, payload = http(served.base_url + "/v1/infer", request.to_json())
        assert status == 200
        result = InferResponse.from_json(json.dumps(payload)).result
        assert result.variant == "fmdv"

    def test_validate_route(self, served, feed_values):
        _, infer_payload = http(
            served.base_url + "/v1/infer",
            InferRequest(values=tuple(feed_values)).to_json(),
        )
        rule = InferResponse.from_json(json.dumps(infer_payload)).result.rule
        clean = ValidateRequest(rule=rule, values=tuple(feed_values))
        status, payload = http(served.base_url + "/v1/validate", clean.to_json())
        assert status == 200
        assert not ValidateResponse.from_json(json.dumps(payload)).report.flagged

        drifted = ValidateRequest(rule=rule, values=("totally", "wrong") * 50)
        status, payload = http(served.base_url + "/v1/validate", drifted.to_json())
        assert status == 200
        assert ValidateResponse.from_json(json.dumps(payload)).report.flagged

    def test_infer_batch_preserves_order_and_variants(self, served, feed_values, rng):
        other = DOMAIN_REGISTRY["guid"].sample_many(rng, 30)
        batch = BatchEnvelope(
            items=(
                InferRequest(values=tuple(feed_values), variant="fmdv"),
                InferRequest(values=tuple(other)),
                InferRequest(values=tuple(feed_values)),
            )
        )
        status, payload = http(served.base_url + "/v1/infer_batch", batch.to_json())
        assert status == 200
        responses = BatchEnvelope.from_json(json.dumps(payload)).items
        assert len(responses) == 3
        assert responses[0].result.variant == "fmdv"
        assert responses[2].result.variant == "fmdv-vh"
        # items 0 and 2 are the same column under different variants; 0 vs
        # a direct /v1/infer of the same variant must agree exactly.
        _, single = http(
            served.base_url + "/v1/infer",
            InferRequest(values=tuple(feed_values), variant="fmdv").to_json(),
        )
        assert InferResponse.from_json(json.dumps(single)).result == responses[0].result

    def test_metrics_exposes_full_service_stats(self, served):
        status, payload = http(served.base_url + "/metrics")
        assert status == 200
        for key in (
            "inferences", "result_cache_hits", "result_cache_size",
            "result_hit_rate", "space_cache_hits", "space_cache_misses",
            "space_cache_size", "space_hit_rate", "generation",
            "invalidations", "requests_total",
            "rate_limited_total", "errors_total", "tenants",
        ):
            assert key in payload, key
        assert payload["inferences"] > 0
        assert payload["requests_total"] > 0


class TestErrors:
    def test_head_request_has_headers_but_no_body(self, served):
        """HEAD must not desync keep-alive framing: Content-Length matches
        GET, body is empty."""
        import http.client

        connection = http.client.HTTPConnection("127.0.0.1", served.server.port)
        try:
            connection.request("HEAD", "/healthz")
            response = connection.getresponse()
            assert response.status == 200
            assert int(response.headers["Content-Length"]) > 0
            assert response.read() == b""
            # the connection stays usable for the next request
            connection.request("GET", "/healthz")
            follow_up = connection.getresponse()
            assert follow_up.status == 200
            assert json.loads(follow_up.read())["status"] == "ok"
        finally:
            connection.close()

    def test_connection_close_is_case_insensitive(self, served):
        """'Connection: Close' (capitalized) must actually close the socket
        instead of leaving the client hanging on keep-alive."""
        import http.client

        connection = http.client.HTTPConnection("127.0.0.1", served.server.port)
        try:
            connection.request("GET", "/healthz", headers={"Connection": "Close"})
            response = connection.getresponse()
            assert response.status == 200
            assert response.headers["Connection"] == "close"
            response.read()
        finally:
            connection.close()

    def test_oversized_header_block_answers_400(self, served):
        """Many medium headers exceeding MAX_HEADER_BYTES in total are
        rejected, not accumulated without bound."""
        headers = {f"X-Filler-{i}": "x" * 60_000 for i in range(5)}
        status, payload = http(served.base_url + "/healthz", headers=headers)
        assert status == 400
        assert payload["code"] == "bad_request"

    def test_oversized_header_line_answers_400(self, served):
        """A header over the stream limit gets a 400 ErrorResponse, not a
        silent drop."""
        status, payload = http(
            served.base_url + "/healthz",
            headers={"X-Padding": "x" * (70 * 1024)},
        )
        assert status == 400
        assert payload["code"] == "bad_request"

    def test_unknown_route_404(self, served):
        status, payload = http(served.base_url + "/v2/nope")
        error = ErrorResponse.from_json(json.dumps(payload))
        assert (status, error.code) == (404, "not_found")

    def test_get_on_post_route_405(self, served):
        status, payload = http(served.base_url + "/v1/infer")
        assert status == 405
        assert payload["code"] == "method_not_allowed"

    def test_malformed_json_400(self, served):
        status, payload = http(served.base_url + "/v1/infer", "{nope")
        assert status == 400
        assert payload["code"] == "bad_request"

    def test_unknown_variant_400(self, served, feed_values):
        request = InferRequest(values=tuple(feed_values), variant="sorcery")
        status, payload = http(served.base_url + "/v1/infer", request.to_json())
        assert status == 400
        assert "sorcery" in payload["message"]

    def test_wrong_envelope_type_400(self, served):
        status, payload = http(
            served.base_url + "/v1/infer",
            ErrorResponse("x", "y", 400).to_json(),
        )
        assert status == 400
        assert payload["code"] == "bad_request"


class TestRateLimiting:
    @pytest.fixture()
    def limited(self, small_index, small_config):
        service = ValidationService(small_index, small_config)
        running = RunningServer(
            service,
            rate_limiter=TenantRateLimiter(rate=0.001, burst=2.0),
        )
        yield running
        running.close()

    def test_burst_exhaustion_answers_429(self, limited, feed_values):
        body = InferRequest(values=tuple(feed_values[:5])).to_json()
        url = limited.base_url + "/v1/infer"
        statuses = [http(url, body)[0] for _ in range(3)]
        assert statuses[:2] == [200, 200]
        assert statuses[2] == 429
        status, payload = http(url, body)
        error = ErrorResponse.from_json(json.dumps(payload))
        assert (status, error.code, error.status) == (429, "rate_limited", 429)

    def test_tenants_do_not_starve_each_other(self, limited, feed_values):
        body = InferRequest(values=tuple(feed_values[:5])).to_json()
        url = limited.base_url + "/v1/infer"
        for _ in range(3):
            http(url, body, headers={"X-Tenant": "noisy"})
        status, _ = http(url, body, headers={"X-Tenant": "quiet"})
        assert status == 200

    def test_batch_costs_one_token_per_item(self, limited, feed_values):
        """/v1/infer_batch must not bypass the limit: a 2-item batch spends
        the whole burst of 2, so the next 1-item batch is rate-limited."""
        item = {"v": 1, "type": "infer_request",
                "values": list(feed_values[:5]), "variant": None}
        pair = json.dumps({"v": 1, "type": "batch", "items": [item] * 2})
        single = json.dumps({"v": 1, "type": "batch", "items": [item]})
        url = limited.base_url + "/v1/infer_batch"
        assert http(url, pair, headers={"X-Tenant": "batcher"})[0] == 200
        status, payload = http(url, single, headers={"X-Tenant": "batcher"})
        assert status == 429
        assert payload["code"] == "rate_limited"

    def test_oversized_batch_rejected_with_actionable_error(self, limited, feed_values):
        """A batch bigger than the burst could never be admitted; it gets a
        distinct 413 telling the client to split, not an eternal 429."""
        item = {"v": 1, "type": "infer_request",
                "values": list(feed_values[:5]), "variant": None}
        body = json.dumps({"v": 1, "type": "batch", "items": [item] * 5})
        status, payload = http(
            limited.base_url + "/v1/infer_batch", body,
            headers={"X-Tenant": "fresh"},
        )
        assert status == 413
        assert payload["code"] == "batch_too_large"
        assert "split" in payload["message"]

    def test_healthz_and_metrics_never_limited(self, limited, feed_values):
        body = InferRequest(values=tuple(feed_values[:5])).to_json()
        for _ in range(4):
            http(limited.base_url + "/v1/infer", body)
        assert http(limited.base_url + "/healthz")[0] == 200
        status, payload = http(limited.base_url + "/metrics")
        assert status == 200
        assert payload["rate_limited_total"] >= 1


class TestChunkedBodies:
    """Transfer-Encoding: chunked requests (streaming clients)."""

    def _post_chunked(self, server, path, payload: bytes, chunk_size=7,
                      tail=b"0\r\n\r\n", extensions=False):
        """POST ``payload`` split into chunks over a raw socket."""
        import socket

        with socket.create_connection(("127.0.0.1", server.server.port), timeout=30) as sock:
            head = (
                f"POST {path} HTTP/1.1\r\n"
                "Host: localhost\r\nContent-Type: application/json\r\n"
                "Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n"
            ).encode()
            sock.sendall(head)
            for start in range(0, len(payload), chunk_size):
                chunk = payload[start:start + chunk_size]
                ext = b";x=1" if extensions else b""
                sock.sendall(f"{len(chunk):x}".encode() + ext + b"\r\n" + chunk + b"\r\n")
            sock.sendall(tail)
            raw = b""
            while True:
                data = sock.recv(65536)
                if not data:
                    break
                raw += data
        header_blob, _, body = raw.partition(b"\r\n\r\n")
        status = int(header_blob.split()[1])
        return status, json.loads(body)

    def test_chunked_infer_round_trip(self, served, feed_values):
        payload = InferRequest(values=tuple(feed_values)).to_json().encode()
        status, response = self._post_chunked(served, "/v1/infer", payload)
        assert status == 200
        result = InferResponse.from_json(json.dumps(response)).result
        assert result.found

    def test_chunk_extensions_ignored(self, served, feed_values):
        payload = InferRequest(values=tuple(feed_values[:5])).to_json().encode()
        status, _ = self._post_chunked(served, "/v1/infer", payload, extensions=True)
        assert status == 200

    def test_chunked_with_trailers(self, served, feed_values):
        payload = InferRequest(values=tuple(feed_values[:5])).to_json().encode()
        status, _ = self._post_chunked(
            served, "/v1/infer", payload,
            tail=b"0\r\nX-Checksum: abc\r\n\r\n",
        )
        assert status == 200

    def test_oversized_chunked_body_answers_413(self, served):
        """The bound is enforced on the declared size, before buffering."""
        import socket

        with socket.create_connection(("127.0.0.1", served.server.port), timeout=30) as sock:
            sock.sendall(
                b"POST /v1/infer HTTP/1.1\r\nHost: x\r\n"
                b"Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n"
            )
            # One chunk claiming 128 MiB: rejected without sending the data.
            sock.sendall(b"8000000\r\n")
            raw = b""
            while True:
                data = sock.recv(65536)
                if not data:
                    break
                raw += data
        assert b"413" in raw.split(b"\r\n", 1)[0]
        assert b"payload_too_large" in raw

    def test_malformed_chunk_size_answers_400(self, served):
        import socket

        with socket.create_connection(("127.0.0.1", served.server.port), timeout=30) as sock:
            sock.sendall(
                b"POST /v1/infer HTTP/1.1\r\nHost: x\r\n"
                b"Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n"
                b"zzz\r\n"
            )
            raw = b""
            while True:
                data = sock.recv(65536)
                if not data:
                    break
                raw += data
        assert b"400" in raw.split(b"\r\n", 1)[0]


class TestAdminConfig:
    """POST /admin/config: loopback-only hot reload, caches kept warm."""

    @pytest.fixture()
    def reloadable(self, small_index, small_config):
        service = ValidationService(small_index, small_config, variant="fmdv-vh")
        running = RunningServer(
            service, rate_limiter=TenantRateLimiter(rate=50.0, burst=100.0)
        )
        yield running, service
        running.close()

    def test_update_rate_and_burst(self, reloadable):
        running, _ = reloadable
        status, payload = http(
            running.base_url + "/admin/config",
            json.dumps({"v": 1, "type": "admin_config_request",
                        "rate": 5.0, "burst": 9.0}),
        )
        assert status == 200
        assert payload["type"] == "admin_config_response"
        assert (payload["rate"], payload["burst"]) == (5.0, 9.0)
        _, metrics = http(running.base_url + "/metrics")
        assert metrics["config"]["rate"] == 5.0
        assert metrics["config"]["burst"] == 9.0

    def test_update_variant_keeps_caches_warm(self, reloadable, feed_values):
        running, service = reloadable
        body = InferRequest(values=tuple(feed_values)).to_json()
        http(running.base_url + "/v1/infer", body)
        http(running.base_url + "/v1/infer", body)
        warm = service.stats()
        assert warm.result_cache_hits >= 1
        generation = warm.generation

        status, payload = http(
            running.base_url + "/admin/config",
            json.dumps({"v": 1, "type": "admin_config_request", "variant": "fmdv"}),
        )
        assert status == 200
        assert payload["variant"] == "fmdv"
        after = service.stats()
        # hot reload: same generation, nothing invalidated, cache intact
        assert after.generation == generation
        assert after.invalidations == 0
        assert after.result_cache_size == warm.result_cache_size
        # un-annotated requests now run the new default variant
        _, inferred = http(running.base_url + "/v1/infer", body)
        assert inferred["result"]["variant"] == "fmdv"

    def test_partial_update_keeps_other_fields(self, reloadable):
        running, _ = reloadable
        status, payload = http(
            running.base_url + "/admin/config",
            json.dumps({"v": 1, "type": "admin_config_request", "rate": 7.0}),
        )
        assert status == 200
        assert payload["rate"] == 7.0
        assert payload["burst"] == 100.0  # untouched
        assert payload["variant"] == "fmdv-vh"

    def test_empty_update_reports_active_config(self, reloadable):
        running, _ = reloadable
        status, payload = http(
            running.base_url + "/admin/config",
            json.dumps({"v": 1, "type": "admin_config_request"}),
        )
        assert status == 200
        assert payload["generation"]
        assert payload["index_format"] == "memory"

    def test_unknown_variant_rejected_atomically(self, reloadable):
        running, _ = reloadable
        status, payload = http(
            running.base_url + "/admin/config",
            json.dumps({"v": 1, "type": "admin_config_request",
                        "variant": "sorcery", "rate": 1.0}),
        )
        assert status == 400
        # the rate update must not have been applied either
        _, metrics = http(running.base_url + "/metrics")
        assert metrics["config"]["rate"] == 50.0

    def test_negative_rate_rejected_atomically(self, reloadable):
        running, _ = reloadable
        status, _ = http(
            running.base_url + "/admin/config",
            json.dumps({"v": 1, "type": "admin_config_request",
                        "variant": "fmdv", "rate": -3.0}),
        )
        assert status == 400
        _, metrics = http(running.base_url + "/metrics")
        assert metrics["config"]["variant"] == "fmdv-vh"  # not half-applied

    def test_admin_not_rate_limited(self, small_index, small_config):
        service = ValidationService(small_index, small_config)
        running = RunningServer(
            service, rate_limiter=TenantRateLimiter(rate=0.001, burst=1.0)
        )
        try:
            body = json.dumps({"v": 1, "type": "admin_config_request"})
            statuses = [
                http(running.base_url + "/admin/config", body)[0] for _ in range(5)
            ]
            assert statuses == [200] * 5
        finally:
            running.close()

    def test_loopback_guard_classifies_peers(self):
        from repro.server.http import _is_loopback

        assert _is_loopback(("127.0.0.1", 50000))
        assert _is_loopback(("127.8.8.8", 50000))
        assert _is_loopback(("::1", 50000, 0, 0))
        assert _is_loopback(("::ffff:127.0.0.1", 50000, 0, 0))
        assert not _is_loopback(("10.0.0.5", 50000))
        assert not _is_loopback(("::ffff:10.0.0.5", 50000, 0, 0))
        assert not _is_loopback(None)

    def test_non_loopback_peer_answers_403(self, small_index, small_config):
        """Dispatch with a routed peer address: 403 before any config is
        touched (exercised directly — tests cannot dial in from off-box)."""
        service = ValidationService(small_index, small_config)
        server = ValidationHTTPServer(service)
        body = json.dumps({"v": 1, "type": "admin_config_request", "rate": 1.0})
        status, payload, _ = asyncio.run(
            server._dispatch(
                "POST", "/admin/config", {}, body.encode(), ("10.1.2.3", 55555)
            )
        )
        assert status == 403
        assert json.loads(payload)["code"] == "forbidden"
        assert not server.rate_limiter.enabled  # nothing was applied

    def test_reconfigured_limits_apply_immediately(self, reloadable, feed_values):
        running, _ = reloadable
        http(
            running.base_url + "/admin/config",
            json.dumps({"v": 1, "type": "admin_config_request",
                        "rate": 0.001, "burst": 1.0}),
        )
        body = InferRequest(values=tuple(feed_values[:5])).to_json()
        url = running.base_url + "/v1/infer"
        first, _ = http(url, body, headers={"X-Tenant": "t"})
        second, _ = http(url, body, headers={"X-Tenant": "t"})
        assert (first, second) == (200, 429)


# -- the live `auto-validate serve` process (acceptance criterion) -------------


@pytest.fixture(scope="module")
def saved_index(small_index, tmp_path_factory):
    root = tmp_path_factory.mktemp("serve")
    path = root / "lake.idx"
    save_index(small_index, path, format="v2", n_shards=4)
    return path


class TestLiveServeProcess:
    def test_live_serve_answers_infer_with_reconstructable_rule(
        self, saved_index, feed_values, small_index, small_config
    ):
        package_root = str(Path(repro.__file__).resolve().parents[1])
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--index", str(saved_index), "--port", "0",
                "--min-coverage", "15", "--rate", "5", "--burst", "50",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env={
                "PYTHONPATH": package_root,
                "PATH": "/usr/bin:/bin:" + sys.exec_prefix + "/bin",
                "PYTHONUNBUFFERED": "1",
            },
        )
        try:
            ready = process.stdout.readline()
            assert "serving on http://" in ready, (
                f"server failed to boot: {ready!r}\n{process.stderr.read()}"
            )
            base_url = ready.split()[2]

            status, health = http(base_url + "/healthz")
            assert status == 200 and health["status"] == "ok"

            request = InferRequest(values=tuple(feed_values))
            status, payload = http(base_url + "/v1/infer", request.to_json())
            assert status == 200
            served_rule = ValidationRule.from_json(
                json.dumps(payload["result"]["rule"])
            )
            # The rule served over the wire reconstructs to exactly the rule
            # an in-process solver infers from the same index and config.
            local = ValidationService(
                small_index, small_config, variant="fmdv-vh"
            ).infer(feed_values)
            assert served_rule == local.rule
        finally:
            process.terminate()
            try:
                process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=15)
