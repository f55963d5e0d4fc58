"""HTTP serving layer: the network edge over the validation service.

:class:`ValidationHTTPServer` (stdlib asyncio, no dependencies) serves the
``/v1`` wire API of :mod:`repro.api` from one
:class:`~repro.service.ValidationService` (service calls run on worker
threads under a ``max_concurrency`` bound), with per-tenant token-bucket
rate limiting (:mod:`repro.server.ratelimit`) and a ``/metrics`` endpoint
surfacing the full :class:`~repro.service.ServiceStats`.  The CLI front end
is ``auto-validate serve --index DIR --port N``; a fleet is N of those on
the same index behind :class:`repro.dist.RoundRobinClient`.
"""

from repro.server.base import BaseHTTPServer, serve_with_graceful_shutdown
from repro.server.http import MAX_BODY_BYTES, ValidationHTTPServer
from repro.server.ratelimit import TenantRateLimiter, TokenBucket

__all__ = [
    "MAX_BODY_BYTES",
    "BaseHTTPServer",
    "TenantRateLimiter",
    "TokenBucket",
    "ValidationHTTPServer",
    "serve_with_graceful_shutdown",
]
