"""The HTTP edge of the watch service: monitoring as a long-lived server.

Built on the shared :class:`repro.server.base.BaseHTTPServer` framing (the
same dependency-free asyncio plumbing behind the serving edge and the scan
worker), so the watch endpoints inherit keep-alive, chunked bodies, bounded
framing, the canonical error envelope, and graceful drain for free.

Routes (wire schema in ``src/repro/api/WIRE.md``):

==============================  ==============================================
``POST /v1/watch/register``       :class:`~repro.api.wire.WatchRegisterRequest`
                                  -> :class:`WatchRegisterResponse` — learn
                                  rules for a feed's columns from a training
                                  snapshot and start watching it
``POST /v1/watch/refresh``        :class:`WatchRefreshRequest` ->
                                  :class:`WatchRefreshResponse` — validate one
                                  refresh: per-column results, baseline
                                  updates, emitted alerts
``GET /v1/watch/status``          :class:`WatchStatusResponse` — full
                                  observable state (feeds, baselines, stores)
``GET /v1/watch/alerts``          :class:`WatchAlertsResponse` — newest
                                  retained alerts
``GET /v1/watch/report``          the JSON report (canonical encoding)
``GET /v1/watch/report.md``       the same report as ``text/markdown``
``GET /v1/watch/report.html``     the same report as ``text/html``
``GET /healthz``                  readiness (200 once the registry is open)
``GET /livez``                    liveness (200 whenever the loop answers)
``GET /metrics``                  service + server counters (JSON)
==============================  ==============================================

The report formats are addressed by *path suffix*, not a query parameter,
because the shared framing strips query strings before routing — and a
path-per-format keeps each representation independently cacheable.

Error mapping: an unregistered ``(tenant, feed)`` surfaces as the
registry's ``KeyError`` and maps to ``404 not_found``; malformed payloads
(``WireError``) and semantic rejections (``ValueError``, e.g. empty
tenant names) map to ``400``; a registration attempt on a server started
without a learner maps to ``409 conflict`` (the server cannot learn, but
refreshes and reports still work — restart with ``--index`` to register).

When ``tick_seconds`` is set, the server runs the service's scheduler
(:meth:`WatchService.tick`) on that cadence in a background asyncio task,
so ``missed_refresh`` alerts fire even when no client is talking to the
server.  The task starts with the listener and is cancelled on close.
"""

from __future__ import annotations

import asyncio
from typing import Any

from repro.api.wire import (
    WatchAlertsResponse,
    WatchRefreshRequest,
    WatchRefreshResponse,
    WatchRegisterRequest,
    WatchRegisterResponse,
    WatchStatusResponse,
)
from repro.server.base import (
    BaseHTTPServer,
    Response,
)
from repro.validate.rule import dumps_canonical
from repro.watch.service import WatchService

__all__ = [
    "MARKDOWN_CONTENT_TYPE",
    "HTML_CONTENT_TYPE",
    "WatchHTTPServer",
]

MARKDOWN_CONTENT_TYPE = "text/markdown; charset=utf-8"
HTML_CONTENT_TYPE = "text/html; charset=utf-8"


class WatchHTTPServer(BaseHTTPServer):
    """Serves one :class:`WatchService` over HTTP (see module doc)."""

    def __init__(
        self,
        service: WatchService,
        host: str = "127.0.0.1",
        port: int = 8080,
        tick_seconds: float | None = None,
        max_inflight: int | None = None,
    ):
        super().__init__(host, port, max_inflight=max_inflight)
        self.service = service
        if tick_seconds is not None and tick_seconds <= 0:
            raise ValueError("tick_seconds must be positive (or None)")
        self.tick_seconds = tick_seconds
        self._tick_task: asyncio.Task | None = None
        self._routes.update(
            {
                "/healthz": (self._handle_healthz, "GET"),
                "/v1/watch/register": (self._handle_register, "POST"),
                "/v1/watch/refresh": (self._handle_refresh, "POST"),
                "/v1/watch/status": (self._handle_status, "GET"),
                "/v1/watch/alerts": (self._handle_alerts, "GET"),
                "/v1/watch/report": (self._handle_report_json, "GET"),
                "/v1/watch/report.md": (self._handle_report_md, "GET"),
                "/v1/watch/report.html": (self._handle_report_html, "GET"),
            }
        )

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        await super().start()
        if self.tick_seconds is not None and self._tick_task is None:
            self._tick_task = asyncio.ensure_future(self._tick_forever())

    async def aclose(self) -> None:
        if self._tick_task is not None:
            self._tick_task.cancel()
            try:
                await self._tick_task
            except asyncio.CancelledError:
                pass
            self._tick_task = None
        await super().aclose()

    async def _tick_forever(self) -> None:
        """The in-server scheduler: freshness checks every ``tick_seconds``."""
        assert self.tick_seconds is not None
        while True:
            await asyncio.sleep(self.tick_seconds)
            try:
                self.service.tick()
            except Exception:  # noqa: BLE001 - the scheduler must not die
                # A failed tick (e.g. a transient disk error while saving
                # the registry) must not kill the schedule; the next tick
                # retries.
                pass

    # -- error mapping -------------------------------------------------------

    def _classify_error(self, exc: Exception) -> tuple[int, str, str]:
        if isinstance(exc, KeyError):
            # The registry's "feed ... is not registered" — the message is
            # the KeyError's arg, so strip repr quoting.
            return 404, "not_found", str(exc).strip("'\"")
        if isinstance(exc, RuntimeError):
            # register() without a learner: the request is well-formed but
            # this deployment cannot satisfy it.
            return 409, "conflict", str(exc)
        if isinstance(exc, ValueError):  # WireError included
            return 400, "bad_request", str(exc)
        return super()._classify_error(exc)

    # -- handlers ------------------------------------------------------------

    async def _handle_healthz(self, _body: bytes) -> str:
        return dumps_canonical(
            {
                "status": "ok",
                "n_feeds": len(self.service.registry),
                "learner": self.service.learner is not None,
                "api_version": "v1",
            }
        )

    def _metrics(self) -> dict[str, Any]:
        return {
            "n_feeds": len(self.service.registry),
            "n_alerts_retained": len(self.service.alert_log),
            "refreshes_total": self.service.refreshes_total,
            "ticks_total": self.service.ticks_total,
            "tick_seconds": self.tick_seconds,
            "timeseries": {
                "segments": len(self.service.timeseries.segments()),
                "wal_records": self.service.timeseries.wal_record_count(),
                "summary_days": self.service.timeseries.summary_days(),
            },
        }

    async def _handle_register(self, body: bytes) -> str:
        request = WatchRegisterRequest.from_json(body)
        outcomes = self.service.register(
            request.tenant,
            request.feed,
            request.columns,
            interval_seconds=request.interval_seconds,
        )
        return WatchRegisterResponse(
            tenant=request.tenant, feed=request.feed, outcomes=outcomes
        ).to_json()

    async def _handle_refresh(self, body: bytes) -> str:
        request = WatchRefreshRequest.from_json(body)
        outcome = self.service.refresh(
            request.tenant, request.feed, request.columns
        )
        return WatchRefreshResponse(
            tenant=outcome["tenant"],
            feed=outcome["feed"],
            refresh_id=outcome["refresh_id"],
            ts=outcome["ts"],
            results=tuple(outcome["results"]),
            columns_skipped=tuple(outcome["columns_skipped"]),
            severity_counts=outcome["severity_counts"],
            alerts=tuple(outcome["alerts"]),
        ).to_json()

    async def _handle_status(self, _body: bytes) -> str:
        return WatchStatusResponse(status=self.service.status()).to_json()

    async def _handle_alerts(self, _body: bytes) -> str:
        return WatchAlertsResponse(
            alerts=tuple(a.to_payload() for a in self.service.alerts(limit=200))
        ).to_json()

    async def _handle_report_json(self, _body: bytes) -> str:
        return self.service.report(format="json")

    async def _handle_report_md(self, _body: bytes) -> Response:
        return 200, self.service.report(format="md"), MARKDOWN_CONTENT_TYPE

    async def _handle_report_html(self, _body: bytes) -> Response:
        return 200, self.service.report(format="html"), HTML_CONTENT_TYPE
