"""Shared asyncio HTTP/1.1 plumbing for every server edge in the repo.

Three server binaries speak HTTP here — the serving edge
(:class:`repro.server.http.ValidationHTTPServer`), the watch service
(:class:`repro.watch.server.WatchHTTPServer`) and the distributed scan
worker (:class:`repro.dist.worker.ScanWorkerServer`).  All need the same
dependency-free request framing (request line, bounded headers,
Content-Length or chunked bodies), the same routing and canonical error
envelope mapping, and the same lifecycle; this module is that common
layer so the edges cannot drift apart on framing semantics.

:class:`BaseHTTPServer` owns:

* connection handling — HTTP/1.1 keep-alive, one request at a time per
  connection, bounded request line / header block / body;
* response writing — JSON (``str`` payloads) or binary (``bytes``
  payloads, ``application/octet-stream``: the run-fetch route ships raw
  run files), correct ``HEAD`` framing either way;
* error mapping — any exception unwinds into a wire
  :class:`~repro.api.wire.ErrorResponse` (subclasses extend
  :meth:`_classify_error` for their own exception families);
* **graceful shutdown** — :meth:`shutdown` stops accepting, lets
  in-flight requests drain (bounded by ``drain_seconds``), and flips
  responses to ``Connection: close`` so keep-alive clients let go;
* **routing** — one table, ``path -> (handler, method)`` (plus at most one
  prefix route), with the 404 / 405 mapping, ``/livez`` and a ``/metrics``
  that merges the five base counters with the subclass's
  :meth:`_metrics` dict.

Subclasses register their routes in ``__init__`` and keep only their
handlers, :meth:`_classify_error`, and — where requests must be vetted
after routing — the :meth:`_admit` hook.

:func:`serve_with_graceful_shutdown` is the CLI entry both the ``serve``
and ``worker`` commands run: it installs ``SIGTERM``/``SIGINT`` handlers
on the loop, serves until a signal (or cancellation) arrives, drains, and
returns — so a supervisor's TERM ends the process with exit code 0
instead of a mid-request stack trace.
"""

from __future__ import annotations

import asyncio
import signal
import sys
from typing import Any, Awaitable, Callable, Mapping, Union

from repro.api.wire import ErrorResponse, WireError
from repro.validate.rule import dumps_canonical

#: Upper bound on request bodies (64 MiB ~ a few million short values).
MAX_BODY_BYTES = 64 * 1024 * 1024
#: Upper bound on the request line + one header line.
MAX_LINE_BYTES = 64 * 1024
#: Upper bound on the total header block, so a client streaming endless
#: header lines cannot grow memory without bound.
MAX_HEADER_BYTES = 256 * 1024

_REASONS = {
    200: "OK",
    400: "Bad Request",
    403: "Forbidden",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    411: "Length Required",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

JSON_CONTENT_TYPE = "application/json; charset=utf-8"
BINARY_CONTENT_TYPE = "application/octet-stream"

#: What a route handler may return: a payload alone means 200; a
#: ``(status, payload)`` pair overrides the status; a
#: ``(status, payload, content_type)`` triple additionally overrides the
#: Content-Type (the watch report routes serve Markdown/HTML).  ``str``
#: payloads default to JSON; ``bytes`` payloads to
#: ``application/octet-stream``.
Response = Union[
    str,
    bytes,
    "tuple[int, Union[str, bytes]]",
    "tuple[int, Union[str, bytes], str]",
]

#: One routing-table entry: the coroutine that answers the request (handed
#: the body — or, for the prefix route, the path past the prefix) and the
#: method the route requires, ``"GET"`` (``HEAD`` rides along) or ``"POST"``.
Route = tuple[Callable[[Any], Awaitable[Response]], str]


def _is_loopback(peer: tuple | None) -> bool:
    """Whether a transport peername is a loopback address.

    Admin requests must originate on the box itself; a missing peername
    (no transport info) fails closed.
    """
    if not peer:
        return False
    host = str(peer[0])
    return (
        host == "::1"
        or host.startswith("127.")
        or host.startswith("::ffff:127.")
    )


class _HTTPError(Exception):
    """Internal: unwinds request handling into a wire ErrorResponse."""

    def __init__(self, status: int, code: str, message: str):
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message


#: Routes exempt from load shedding: probes and metrics must answer even
#: (especially) when the server is saturated, or the orchestrator would
#: kill a healthy-but-busy process and the operator would fly blind.
SHED_EXEMPT_PATHS = frozenset({"/healthz", "/livez", "/metrics"})

#: ``Retry-After`` value (seconds) sent with every 503 (load shed or
#: drain): long enough that a retrying client backs off a saturated edge,
#: short enough that capacity freed by one finished scan is found quickly.
RETRY_AFTER_SECONDS = 1


class BaseHTTPServer:
    """Dependency-free asyncio HTTP/1.1 server base (see module doc)."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8080,
        *,
        max_inflight: int | None = None,
    ):
        self.host = host
        self._requested_port = port
        self._server: asyncio.base_events.Server | None = None
        self.requests_total = 0
        self.errors_total = 0
        #: Load-shedding bound: with more than this many requests already
        #: in flight, new non-probe requests answer ``503 Retry-After``
        #: instead of queueing without bound.  ``None`` disables shedding.
        self.max_inflight = max_inflight
        self.sheds_total = 0
        self._inflight = 0
        self._draining = False
        #: Exact-path routes; subclasses ``update`` theirs in.
        self._routes: dict[str, Route] = {
            "/livez": (self._handle_livez, "GET"),
            "/metrics": (self._handle_metrics, "GET"),
        }
        #: At most one ``(prefix, route)``, for paths that carry an id (the
        #: worker's ``/v1/runs/<id>``); consulted when no exact path matches.
        self._prefix_route: tuple[str, Route] | None = None

    # -- lifecycle -----------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` after :meth:`start`)."""
        if self._server is None:
            return self._requested_port
        return self._server.sockets[0].getsockname()[1]

    @property
    def inflight(self) -> int:
        """Requests currently being handled (drain observability)."""
        return self._inflight

    @property
    def draining(self) -> bool:
        """Whether :meth:`shutdown` has begun (new connections rejected)."""
        return self._draining

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self.host,
            port=self._requested_port,
            limit=MAX_LINE_BYTES,
        )

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def aclose(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def shutdown(self, drain_seconds: float = 10.0) -> int:
        """Graceful stop: close the listener, drain in-flight requests.

        New connections are refused immediately; requests already being
        handled get up to ``drain_seconds`` to finish (responses switch to
        ``Connection: close`` so keep-alive clients disconnect).  Returns
        the number of requests still in flight when the drain window
        closed — 0 means every request completed.
        """
        self._draining = True
        await self.aclose()
        loop = asyncio.get_running_loop()
        deadline = loop.time() + drain_seconds
        while self._inflight and loop.time() < deadline:
            await asyncio.sleep(0.02)
        return self._inflight

    # -- connection handling -------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        peer = writer.get_extra_info("peername")
        try:
            while True:
                request = await self._read_request(reader)
                if request is None:
                    break
                method, path, headers, body = request
                status, payload, content_type = await self._dispatch(
                    method, path, headers, body, peer
                )
                keep_alive = (
                    headers.get("connection", "keep-alive").lower() != "close"
                    and not self._draining
                )
                self._write_response(
                    writer,
                    status,
                    payload,
                    keep_alive,
                    head_only=(method == "HEAD"),
                    content_type=content_type,
                )
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            pass  # client went away or overflowed a line: drop the connection
        except _HTTPError as exc:
            # Malformed framing: answer once, then close (we cannot trust
            # the stream position any more).
            try:
                self._write_response(
                    writer,
                    exc.status,
                    ErrorResponse(exc.code, exc.message, exc.status).to_json(),
                    keep_alive=False,
                )
                await writer.drain()
            except ConnectionError:
                pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, dict[str, str], bytes] | None:
        """One request off the stream; None on clean EOF between requests."""
        try:
            request_line = await reader.readline()
        except (asyncio.LimitOverrunError, ValueError) as exc:
            raise _HTTPError(400, "bad_request", f"oversized request line: {exc}")
        if not request_line:
            return None
        parts = request_line.decode("latin-1").strip().split()
        if len(parts) != 3:
            raise _HTTPError(400, "bad_request", "malformed request line")
        method, target, _version = parts

        headers: dict[str, str] = {}
        header_bytes = 0
        while True:
            try:
                line = await reader.readline()
            except (asyncio.LimitOverrunError, ValueError) as exc:
                raise _HTTPError(400, "bad_request", f"oversized header line: {exc}")
            if not line:
                raise _HTTPError(400, "bad_request", "truncated headers")
            header_bytes += len(line)
            if header_bytes > MAX_HEADER_BYTES:
                raise _HTTPError(400, "bad_request", "header block too large")
            text = line.decode("latin-1").strip()
            if not text:
                break
            name, _, value = text.partition(":")
            headers[name.strip().lower()] = value.strip()

        body = b""
        if "chunked" in headers.get("transfer-encoding", "").lower():
            body = await self._read_chunked_body(reader)
        elif "content-length" in headers:
            try:
                length = int(headers["content-length"])
            except ValueError:
                raise _HTTPError(400, "bad_request", "invalid Content-Length")
            if length < 0:
                raise _HTTPError(400, "bad_request", "invalid Content-Length")
            if length > MAX_BODY_BYTES:
                raise _HTTPError(413, "payload_too_large", "request body too large")
            body = await reader.readexactly(length)
        return method, target.split("?", 1)[0], headers, body

    async def _read_chunked_body(self, reader: asyncio.StreamReader) -> bytes:
        """Decode a ``Transfer-Encoding: chunked`` body (RFC 9112 §7.1).

        Clients streaming very large columns can't always know the total
        size up front; chunked framing lets them start sending anyway.
        The cumulative size is bounded by the same ``MAX_BODY_BYTES`` as
        Content-Length bodies — the bound is enforced *before* each chunk
        is read, so an attacker declaring a huge chunk never gets it
        buffered.  Chunks coalesce into one bytearray as they arrive:
        the bound must cover real memory, and a list of millions of tiny
        chunk objects would cost ~50x their payload in object headers.
        Chunk extensions are ignored; trailer headers are drained
        (bounded) and discarded.
        """
        body = bytearray()
        while True:
            try:
                size_line = await reader.readline()
            except (asyncio.LimitOverrunError, ValueError) as exc:
                raise _HTTPError(400, "bad_request", f"oversized chunk-size line: {exc}")
            if not size_line:
                raise _HTTPError(400, "bad_request", "truncated chunked body")
            size_text = size_line.decode("latin-1").strip().split(";", 1)[0]
            try:
                size = int(size_text, 16)
            except ValueError:
                raise _HTTPError(400, "bad_request", f"invalid chunk size {size_text!r}")
            if size < 0:
                raise _HTTPError(400, "bad_request", "invalid chunk size")
            if size == 0:
                break
            if len(body) + size > MAX_BODY_BYTES:
                raise _HTTPError(413, "payload_too_large", "chunked body too large")
            body += await reader.readexactly(size)
            if await reader.readexactly(2) != b"\r\n":
                raise _HTTPError(400, "bad_request", "malformed chunk terminator")
        trailer_bytes = 0
        while True:  # drain (and discard) any trailer section
            try:
                line = await reader.readline()
            except (asyncio.LimitOverrunError, ValueError) as exc:
                raise _HTTPError(400, "bad_request", f"oversized trailer line: {exc}")
            if not line:
                raise _HTTPError(400, "bad_request", "truncated chunked trailers")
            trailer_bytes += len(line)
            if trailer_bytes > MAX_HEADER_BYTES:
                raise _HTTPError(400, "bad_request", "trailer block too large")
            if line in (b"\r\n", b"\n"):
                break
        return bytes(body)

    def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: str | bytes,
        keep_alive: bool,
        head_only: bool = False,
        content_type: str | None = None,
    ) -> None:
        """Frame one response.  Unless ``content_type`` overrides it,
        ``str`` payloads are JSON; ``bytes`` payloads ship as
        ``application/octet-stream`` (the run-fetch route)."""
        if isinstance(payload, str):
            data = payload.encode("utf-8")
            content_type = content_type or JSON_CONTENT_TYPE
        else:
            data = payload
            content_type = content_type or BINARY_CONTENT_TYPE
        # Every 503 — load shed or drain — advertises when to come back,
        # so well-behaved clients back off instead of hammering the edge.
        retry_after = (
            f"Retry-After: {RETRY_AFTER_SECONDS}\r\n" if status == 503 else ""
        )
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(data)}\r\n"
            f"{retry_after}"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            "\r\n"
        )
        # HEAD: headers (with the GET-equivalent Content-Length) but no
        # body, or keep-alive clients would misframe the next response.
        writer.write(head.encode("latin-1") + (b"" if head_only else data))

    # -- dispatch ------------------------------------------------------------

    async def _dispatch(
        self,
        method: str,
        path: str,
        headers: Mapping[str, str],
        body: bytes,
        peer: tuple | None = None,
    ) -> tuple[int, str | bytes, str | None]:
        self.requests_total += 1
        if (
            self.max_inflight is not None
            and self._inflight >= self.max_inflight
            and path not in SHED_EXEMPT_PATHS
        ):
            # Load shed at the door: a bounded in-flight set keeps latency
            # and memory flat under overload; the client is told to retry.
            self.sheds_total += 1
            self.errors_total += 1
            return (
                503,
                ErrorResponse(
                    "overloaded",
                    f"server is at its in-flight bound ({self.max_inflight}); "
                    "retry later",
                    503,
                ).to_json(),
                None,
            )
        self._inflight += 1
        try:
            result = await self._handle(method, path, headers, body, peer)
            if isinstance(result, tuple):
                if len(result) == 3:
                    return result
                return result[0], result[1], None
            return 200, result, None
        except _HTTPError as exc:
            self.errors_total += 1
            return (
                exc.status,
                ErrorResponse(exc.code, exc.message, exc.status).to_json(),
                None,
            )
        except Exception as exc:  # noqa: BLE001 - the edge must not crash
            self.errors_total += 1
            status, code, message = self._classify_error(exc)
            return status, ErrorResponse(code, message, status).to_json(), None
        finally:
            self._inflight -= 1

    def _classify_error(self, exc: Exception) -> tuple[int, str, str]:
        """Map a handler exception to ``(status, code, message)``.

        Subclasses extend this for their own exception families and fall
        back to ``super()`` for the shared ones.
        """
        if isinstance(exc, WireError):
            return 400, "bad_request", str(exc)
        return 500, "internal", f"{type(exc).__name__}: {exc}"

    async def _handle(
        self,
        method: str,
        path: str,
        headers: Mapping[str, str],
        body: bytes,
        peer: tuple | None,
    ) -> Response:
        """Route one framed request: 404, 405, :meth:`_admit`, handler."""
        route = self._routes.get(path)
        arg: Any = body
        if route is None and self._prefix_route is not None:
            prefix, prefix_route = self._prefix_route
            if path.startswith(prefix):
                route, arg = prefix_route, path[len(prefix) :]
        if route is None:
            raise _HTTPError(404, "not_found", f"no route {path}")
        handler, required = route
        if method != required and not (required == "GET" and method == "HEAD"):
            raise _HTTPError(405, "method_not_allowed", f"{path} requires {required}")
        return await handler(self._admit(method, path, headers, arg, peer))

    def _admit(
        self,
        method: str,
        path: str,
        headers: Mapping[str, str],
        body: Any,
        peer: tuple | None,
    ) -> Any:
        """Admission hook, run on a routed request before its handler.

        Raises :class:`_HTTPError` to refuse the request; what it returns
        is handed to the handler in place of ``body`` (an edge that must
        decode the body to price it passes the decoded form on).
        """
        return body

    async def _handle_livez(self, _body: bytes) -> str:
        # Pure liveness: if the event loop got here, the process is alive.
        # Deliberately touches no service state (a wedged index reload
        # must not look like a dead process).
        return dumps_canonical({"status": "alive", "api_version": "v1"})

    async def _handle_metrics(self, _body: bytes) -> str:
        return dumps_canonical(
            {
                "requests_total": self.requests_total,
                "errors_total": self.errors_total,
                "inflight": self.inflight,
                "max_inflight": self.max_inflight,
                "sheds_total": self.sheds_total,
                **self._metrics(),
            }
        )

    def _metrics(self) -> dict[str, Any]:
        """The edge's own ``/metrics`` keys, merged over the base counters."""
        return {}


async def serve_with_graceful_shutdown(
    server: BaseHTTPServer,
    ready=None,
    drain_seconds: float = 10.0,
) -> int:
    """Serve until ``SIGTERM``/``SIGINT`` (or task cancellation), then drain.

    The signal flips a shutdown event instead of killing the loop: the
    listener closes, in-flight requests get ``drain_seconds`` to finish,
    and the coroutine returns 0 (clean drain) or the number of requests
    abandoned — the CLI's exit code stays 0 either way, because a TERM'd
    server that drained is a *successful* shutdown, not a crash.
    """
    await server.start()
    if ready is not None:
        ready(server)
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    installed: list[signal.Signals] = []
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(sig, stop.set)
            installed.append(sig)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass  # e.g. Windows event loops: fall back to KeyboardInterrupt
    serve_task = asyncio.ensure_future(server.serve_forever())
    stop_task = asyncio.ensure_future(stop.wait())
    try:
        await asyncio.wait(
            {serve_task, stop_task}, return_when=asyncio.FIRST_COMPLETED
        )
        if stop.is_set():
            inflight = server.inflight
            if inflight:
                print(
                    f"draining {inflight} in-flight request(s)...",
                    file=sys.stderr,
                    flush=True,
                )
            abandoned = await server.shutdown(drain_seconds=drain_seconds)
            print(
                "shutdown complete"
                + (f" ({abandoned} request(s) abandoned)" if abandoned else ""),
                file=sys.stderr,
                flush=True,
            )
            return abandoned
        return 0
    finally:
        for task in (serve_task, stop_task):
            task.cancel()
        await asyncio.gather(serve_task, stop_task, return_exceptions=True)
        for sig in installed:
            loop.remove_signal_handler(sig)
        await server.aclose()
