"""A dependency-free asyncio HTTP server over a ``ValidationService``.

The paper's deployment story (§7) is validation served "at interactive
speed" inside production pipelines; this module is that serving edge.  It
is deliberately stdlib-only — the shared :mod:`repro.server.base` framing
over ``asyncio.start_server`` — so the repo's no-new-dependencies rule
holds all the way to a bootable server.

Routes (wire schema in ``src/repro/api/WIRE.md``):

=====================  ======================================================
``POST /v1/infer``        one :class:`~repro.api.wire.InferRequest` ->
                          :class:`~repro.api.wire.InferResponse`
``POST /v1/validate``     :class:`ValidateRequest` -> :class:`ValidateResponse`
``POST /v1/infer_batch``  :class:`BatchEnvelope` of ``InferRequest`` ->
                          ``BatchEnvelope`` of ``InferResponse`` (in order,
                          through the service's cached batch path)
``POST /admin/config``    :class:`AdminConfigRequest` ->
                          :class:`AdminConfigResponse` — hot config reload
                          (loopback peers only; see below)
``GET /healthz``          **readiness**: 200 once the index is warm, 503
                          with a ``"loading"`` payload while a ``--prefetch``
                          warm-up is still running
``GET /livez``            **liveness**: 200 whenever the event loop answers
``GET /metrics``          full ``ServiceStats`` + server counters + the
                          active serving config (JSON)
=====================  ======================================================

Liveness vs readiness: replicated serving fleets route traffic on
``/healthz`` and restart on ``/livez``.  A replica that just mmapped a
cold multi-GB v3 index is *alive* but would serve its first requests at
page-fault speed — while ``--prefetch`` is still warming the page cache,
``/healthz`` answers ``503 {"status": "loading", ...}`` so load balancers
keep routing around it, and flips to 200 the moment the warm-up finishes.
Deployments without prefetch are ready immediately.

Service calls run on the default thread pool (:func:`asyncio.to_thread`;
the service is thread-safe) behind a ``max_concurrency`` semaphore, so a
traffic spike cannot pile an unbounded number of CPU-bound inferences
onto the executor; a batch counts as one unit.  One server is one
process: to use more cores, run N servers on the same index behind
:class:`repro.dist.RoundRobinClient`.

Inference routes are guarded by a per-tenant token-bucket rate limiter
keyed on the ``X-Tenant`` header (:mod:`repro.server.ratelimit`); an
exhausted bucket answers ``429`` with a wire :class:`ErrorResponse`.
``/healthz``, ``/livez`` and ``/metrics`` are never rate-limited (probes
and scrapers must not be starved by tenant traffic).

``/admin/config`` changes rate/burst and the default variant on the
*running* server without a restart — and, crucially, without dropping the
index caches (cache entries are keyed by generation+variant, so entries
for other variants stay warm).  It is accepted only from loopback peers
(an operator on the box or a sidecar); everything else gets 403.  It is
never rate-limited: an operator must be able to *raise* a misconfigured
limit that is currently rejecting all traffic.

Connections are HTTP/1.1 keep-alive; bodies arrive with
``Content-Length`` or as ``Transfer-Encoding: chunked`` (framing and
bounds in :mod:`repro.server.base`).  ``SIGTERM``/``SIGINT`` drain
in-flight requests before the process exits 0
(:func:`repro.server.base.serve_with_graceful_shutdown`).
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Mapping, TypeVar

from repro.api.wire import (
    AdminConfigRequest,
    AdminConfigResponse,
    BatchEnvelope,
    ErrorResponse,
    InferRequest,
    InferResponse,
    ValidateRequest,
    ValidateResponse,
    WireError,
)
from repro.index.index import StaleIndexError
from repro.server.base import (
    MAX_BODY_BYTES,
    MAX_HEADER_BYTES,
    MAX_LINE_BYTES,
    BaseHTTPServer,
    Response,
    _HTTPError,
    _is_loopback,
)
from repro.server.ratelimit import TenantRateLimiter
from repro.service.service import ValidationService
from repro.validate.result import RuleSerializationError
from repro.validate.rule import dumps_canonical

__all__ = [
    "MAX_BODY_BYTES",
    "MAX_HEADER_BYTES",
    "MAX_LINE_BYTES",
    "ValidationHTTPServer",
]

T = TypeVar("T")


class ValidationHTTPServer(BaseHTTPServer):
    """Serves one :class:`ValidationService` over HTTP."""

    def __init__(
        self,
        service: ValidationService,
        host: str = "127.0.0.1",
        port: int = 8080,
        rate_limiter: TenantRateLimiter | None = None,
        max_inflight: int | None = None,
        max_concurrency: int = 32,
    ):
        if max_concurrency < 1:
            raise ValueError("max_concurrency must be >= 1")
        super().__init__(host, port, max_inflight=max_inflight)
        self.service = service
        self._semaphore = asyncio.Semaphore(max_concurrency)
        self.rate_limiter = rate_limiter or TenantRateLimiter(rate=0.0, burst=1.0)
        self.rate_limited_total = 0
        self._routes.update(
            {
                "/healthz": (self._handle_healthz, "GET"),
                "/v1/infer": (self._handle_infer, "POST"),
                "/v1/validate": (self._handle_validate, "POST"),
                "/v1/infer_batch": (self._handle_infer_batch, "POST"),
                "/admin/config": (self._handle_admin_config, "POST"),
            }
        )

    async def _call(self, fn: Callable[..., T], *args: Any) -> T:
        """Run one service call on a worker thread, under the bound."""
        async with self._semaphore:
            return await asyncio.to_thread(fn, *args)

    # -- admission -----------------------------------------------------------

    def _admit(
        self,
        method: str,
        path: str,
        headers: Mapping[str, str],
        body: Any,
        peer: tuple | None,
    ) -> Any:
        if path == "/admin/config":
            # Loopback-only and never rate-limited: the operator must
            # be able to fix a limiter that is rejecting everything.
            if not _is_loopback(peer):
                raise _HTTPError(
                    403, "forbidden", "/admin/config is loopback-only"
                )
        elif method == "POST":
            tenant = headers.get("x-tenant", "")
            # A batch costs one token per item, or /v1/infer_batch would
            # bypass the per-tenant limit entirely (10k inferences for
            # one token).  The envelope is parsed once, before the
            # limiter, and handed to the handler already decoded.
            cost = 1.0
            if path == "/v1/infer_batch":
                body = BatchEnvelope.from_json(body)
                cost = float(max(1, len(body.items)))
                if self.rate_limiter.enabled and cost > self.rate_limiter.burst:
                    # A bucket capped at `burst` can never admit this
                    # batch; a plain 429 would invite futile retries.
                    raise _HTTPError(
                        413,
                        "batch_too_large",
                        f"batch of {len(body.items)} items exceeds the "
                        f"per-tenant burst capacity "
                        f"({self.rate_limiter.burst:g}); split the batch",
                    )
            if not self.rate_limiter.allow(tenant, cost):
                self.rate_limited_total += 1
                raise _HTTPError(
                    429,
                    "rate_limited",
                    f"tenant {tenant!r} exceeded the request rate",
                )
        return body

    def _classify_error(self, exc: Exception) -> tuple[int, str, str]:
        if isinstance(exc, RuleSerializationError):
            return 400, "unserializable_rule", str(exc)
        if isinstance(exc, StaleIndexError):
            # A server-side fault (mid-rebuild torn index), not a client
            # error: 503 tells retry-aware clients to try again shortly.
            return 503, "index_unavailable", str(exc)
        if isinstance(exc, ValueError):
            # WireError, or e.g. unknown variant names surfaced by the
            # registry/service
            return 400, "bad_request", str(exc)
        return super()._classify_error(exc)

    # -- handlers ------------------------------------------------------------

    def _index_warming(self) -> bool:
        """Whether a background prefetch is still warming the served index.

        Only index objects that expose ``prefetch_pending`` (the mmap v3
        backend) can be "cold"; every other format is ready as soon as it
        is open.
        """
        return bool(
            getattr(self.service.index, "prefetch_pending", False)
        )

    async def _handle_healthz(self, _body: bytes) -> Response:
        stats = self.service.stats()
        # While the index is still warming the probe answers 503: fleet
        # probes must not route traffic here yet — but the replica is alive
        # (/livez says so), so supervisors must not restart it either.
        warming = self._index_warming()
        payload = dumps_canonical(
            {
                "status": "loading" if warming else "ok",
                "generation": stats.generation,
                "index_format": stats.index_format,
                "api_version": "v1",
            }
        )
        return (503, payload) if warming else payload

    def _metrics(self) -> dict[str, Any]:
        stats = self.service.stats()
        return {
            "inferences": stats.inferences,
            "result_cache_hits": stats.result_cache_hits,
            "result_cache_size": stats.result_cache_size,
            "result_hit_rate": stats.result_hit_rate,
            "space_cache_hits": stats.space_cache_hits,
            "space_cache_misses": stats.space_cache_misses,
            "space_cache_size": stats.space_cache_size,
            "space_hit_rate": stats.space_hit_rate,
            "generation": stats.generation,
            "invalidations": stats.invalidations,
            "index_format": stats.index_format,
            "rate_limited_total": self.rate_limited_total,
            "ready": not self._index_warming(),
            "tenants": self.rate_limiter.tenants(),
            # The *active* serving config — after any /admin/config
            # reloads — so operators can confirm what is enforced.
            "config": {
                "rate": self.rate_limiter.rate,
                "burst": self.rate_limiter.burst,
                "variant": self.service.variant,
            },
        }

    async def _handle_admin_config(self, body: bytes) -> str:
        request = AdminConfigRequest.from_json(body)
        # Fail before applying anything: a request must not half-apply
        # (e.g. switch the variant, then die on a negative rate).
        if request.rate is not None and request.rate < 0:
            raise ValueError("rate must be >= 0 (0 disables limiting)")
        if request.variant is not None:
            self.service.set_default_variant(request.variant)
        if request.rate is not None or request.burst is not None:
            self.rate_limiter.reconfigure(request.rate, request.burst)
        stats = self.service.stats()
        return AdminConfigResponse(
            rate=self.rate_limiter.rate,
            burst=self.rate_limiter.burst,
            variant=self.service.variant,
            generation=stats.generation,
            index_format=stats.index_format,
        ).to_json()

    async def _handle_infer(self, body: bytes) -> str:
        request = InferRequest.from_json(body)
        result = await self._call(
            self.service.infer, list(request.values), request.variant
        )
        return InferResponse(
            result=result, generation=self.service.stats().generation
        ).to_json()

    async def _handle_validate(self, body: bytes) -> str:
        request = ValidateRequest.from_json(body)
        report = await self._call(
            self.service.validate, request.rule, list(request.values)
        )
        return ValidateResponse(report=report).to_json()

    async def _handle_infer_batch(self, batch: BatchEnvelope) -> str:
        # The dispatcher already decoded the envelope (it needed the item
        # count to charge the rate limiter).
        for i, item in enumerate(batch.items):
            if not isinstance(item, InferRequest):
                raise WireError(
                    f"batch item {i} must be an infer_request, got "
                    f"{type(item).wire_type!r}"
                )
        # The batch path requires one variant per call; group positions by
        # requested variant so mixed batches still go through infer_many.
        by_variant: dict[str | None, list[int]] = {}
        for i, item in enumerate(batch.items):
            by_variant.setdefault(item.variant, []).append(i)
        results: list = [None] * len(batch.items)
        for variant, positions in by_variant.items():
            outcomes = await self._call(
                self.service.infer_many,
                [list(batch.items[i].values) for i in positions],
                variant,
            )
            for i, outcome in zip(positions, outcomes):
                results[i] = outcome
        generation = self.service.stats().generation
        return BatchEnvelope(
            items=tuple(
                InferResponse(result=result, generation=generation)
                for result in results
            )
        ).to_json()
