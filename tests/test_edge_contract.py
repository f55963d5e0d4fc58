"""One edge contract for all three HTTP servers.

``ValidationHTTPServer`` (serve), ``WatchHTTPServer`` (watch) and
``ScanWorkerServer`` (worker) share routing, the 404/405 mapping,
``/livez`` and the base ``/metrics`` counters through
``repro.server.base``.  This module pins the bytes that layer puts on the
wire — envelopes, messages, probe bodies, key sets — for every edge at
once, so the three cannot drift apart again.  The golden key lists are
what each ``/metrics`` / ``/healthz`` answered before the edges were
folded; ``benchmarks/e2e`` reads them from outside.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.api.wire import ErrorResponse
from repro.dist.worker import ScanWorkerServer
from repro.server.http import ValidationHTTPServer
from repro.service import ValidationService
from repro.watch import WatchHTTPServer, WatchService

BASE_COUNTERS = {
    "requests_total", "errors_total", "inflight", "max_inflight", "sheds_total",
}

#: Per edge: one POST route, one GET route, and the golden key sets.
EDGES = {
    "serve": {
        "post_route": "/v1/infer",
        "get_route": "/healthz",
        "healthz": {"status", "generation", "index_format", "api_version"},
        "metrics": BASE_COUNTERS | {
            "inferences", "result_cache_hits", "result_cache_size",
            "result_hit_rate", "space_cache_hits", "space_cache_misses",
            "space_cache_size", "space_hit_rate", "generation",
            "invalidations", "index_format",
            "rate_limited_total", "ready", "tenants", "config",
        },
    },
    "watch": {
        "post_route": "/v1/watch/refresh",
        "get_route": "/v1/watch/status",
        "healthz": {"status", "n_feeds", "learner", "api_version"},
        "metrics": BASE_COUNTERS | {
            "n_feeds", "n_alerts_retained", "refreshes_total", "ticks_total",
            "tick_seconds", "timeseries",
        },
    },
    "worker": {
        "post_route": "/v1/scan",
        "get_route": "/v1/runs/scan-000001-w000000",
        "healthz": {
            "status", "role", "windows_scanned", "runs_held", "api_version",
        },
        "metrics": BASE_COUNTERS | {
            "windows_scanned", "columns_scanned", "values_scanned",
            "busy_seconds", "runs_held", "run_bytes_served",
        },
    },
}

LIVEZ_BODY = '{"api_version":"v1","status":"alive"}'


@pytest.fixture(params=sorted(EDGES))
def edge(request, tmp_path, small_index, small_config):
    """``(contract, server)`` for one of the three edges (not listening)."""
    name = request.param
    if name == "serve":
        yield EDGES[name], ValidationHTTPServer(
            ValidationService(small_index, small_config), port=0
        )
    elif name == "watch":
        yield EDGES[name], WatchHTTPServer(
            WatchService(tmp_path / "watch"), port=0
        )
    else:
        yield EDGES[name], ScanWorkerServer(port=0, run_dir=tmp_path / "runs")


def _dispatch(server, method, path, body=b""):
    return asyncio.run(
        server._dispatch(method, path, {}, body, ("127.0.0.1", 1))
    )


def _error(payload: str) -> ErrorResponse:
    return ErrorResponse.from_json(payload)


class TestEdgeContract:
    def test_unknown_path_is_404_not_found(self, edge):
        _contract, server = edge
        status, payload, content_type = _dispatch(server, "GET", "/v2/nope")
        assert (status, content_type) == (404, None)
        assert payload == ErrorResponse(
            "not_found", "no route /v2/nope", 404
        ).to_json()
        assert server.errors_total == 1

    def test_get_on_post_route_is_405(self, edge):
        contract, server = edge
        path = contract["post_route"]
        for method in ("GET", "HEAD", "PUT"):
            status, payload, _ = _dispatch(server, method, path)
            error = _error(payload)
            assert (status, error.code, error.status) == (
                405, "method_not_allowed", 405,
            )
            assert error.message == f"{path} requires POST"

    def test_post_on_get_route_is_405(self, edge):
        contract, server = edge
        for path in (contract["get_route"], "/livez", "/healthz", "/metrics"):
            status, payload, _ = _dispatch(server, "POST", path, b"{}")
            error = _error(payload)
            assert (status, error.code, error.status) == (
                405, "method_not_allowed", 405,
            )
            assert error.message == f"{path} requires GET"

    def test_livez_body_is_identical_everywhere(self, edge):
        _contract, server = edge
        for method in ("GET", "HEAD"):
            assert _dispatch(server, method, "/livez") == (200, LIVEZ_BODY, None)

    def test_healthz_and_metrics_key_sets(self, edge):
        contract, server = edge
        status, payload, content_type = _dispatch(server, "GET", "/healthz")
        assert (status, content_type) == (200, None)
        assert set(json.loads(payload)) == contract["healthz"]
        status, payload, content_type = _dispatch(server, "GET", "/metrics")
        assert (status, content_type) == (200, None)
        metrics = json.loads(payload)
        assert set(metrics) == contract["metrics"]
        # The base counters count this very request and the probe before it.
        assert metrics["requests_total"] == 2
        assert metrics["errors_total"] == 0
        assert metrics["inflight"] == 1
        assert metrics["max_inflight"] is None
        assert metrics["sheds_total"] == 0

    def test_head_livez_framing(self, edge):
        """HEAD answers GET's headers with no body, and the keep-alive
        connection stays framed for the request pipelined behind it."""
        _contract, server = edge

        async def exchange() -> bytes:
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(
                    b"HEAD /livez HTTP/1.1\r\nHost: x\r\n\r\n"
                    b"GET /livez HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
                )
                await writer.drain()
                data = await asyncio.wait_for(reader.read(), timeout=10)
                writer.close()
                await writer.wait_closed()
                return data
            finally:
                await server.aclose()

        head = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: application/json; charset=utf-8\r\n"
            f"Content-Length: {len(LIVEZ_BODY)}\r\n"
            "Connection: {}\r\n"
            "\r\n"
        )
        assert asyncio.run(exchange()).decode("latin-1") == (
            head.format("keep-alive") + head.format("close") + LIVEZ_BODY
        )
