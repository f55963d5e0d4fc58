"""Round-robin client for a replicated read-only serving fleet.

A fleet is N ``auto-validate serve --index lake.v3 --prefetch --port P``
processes, each mmapping the same immutable v3 index (``--prefetch``
warming the page cache behind each, with ``/healthz`` answering 503
until it is done).  This client is the fan-out side: it round-robins
single ``infer`` calls, splits an ``infer_batch`` into one sub-batch per
configured replica URL and sends them in parallel, reassembling results
in order, and reports which replicas are ready (:meth:`ready_replicas`:
readiness, not liveness — a replica still warming is left out).

Failover is retry-on-the-next-replica: replicas are interchangeable by
construction (same index bytes, same config fingerprint), so any
replica's answer is *the* answer, and a dead replica costs one retry,
not an error.  Consecutive failovers back off exponentially (capped,
with deterministic seeded jitter so a thundering herd of clients
desynchronizes), and an optional per-request ``deadline`` bounds the
whole failover loop — a slow replica can cost at most its share of the
budget, never stall a caller indefinitely.  A request that every
replica fails raises :class:`AllReplicasFailedError`; a request that
runs out of budget raises :class:`DeadlineExceededError` (a subclass,
so existing failover handling catches both).
"""

from __future__ import annotations

import concurrent.futures
import inspect
import random
import threading
import time
from typing import Any, Sequence

from repro.api.wire import BatchEnvelope, InferRequest, InferResponse
from repro.dist.coordinator import HTTPTransport
from repro.service.cache import column_digest
from repro.util import weighted_chunks
from repro.validate.result import InferenceResult


class AllReplicasFailedError(RuntimeError):
    """Every replica in the pool failed one request."""


class DeadlineExceededError(AllReplicasFailedError):
    """The per-request deadline expired before any replica answered."""


class RoundRobinClient:
    """Fans inference over interchangeable read-only replicas."""

    def __init__(
        self,
        replica_urls: Sequence[str],
        *,
        timeout: float = 30.0,
        transport: Any = None,
        deadline: float | None = None,
        max_rounds: int = 1,
        backoff: float = 0.05,
        backoff_cap: float = 2.0,
        jitter_seed: int | None = None,
        sleep: Any = time.sleep,
        clock: Any = time.monotonic,
    ):
        if not replica_urls:
            raise ValueError("at least one replica URL is required")
        if deadline is not None and deadline <= 0:
            raise ValueError("deadline must be positive (or None)")
        if max_rounds < 1:
            raise ValueError("max_rounds must be at least 1")
        self.replica_urls = [url.rstrip("/") for url in replica_urls]
        self.timeout = timeout
        self.transport = transport if transport is not None else HTTPTransport(timeout)
        #: Wall-clock budget (seconds) for one request including every
        #: failover attempt and backoff sleep; ``None`` means unbounded.
        self.deadline = deadline
        #: How many passes over the rotation before giving up.
        self.max_rounds = max_rounds
        self.backoff = backoff
        self.backoff_cap = backoff_cap
        # Seeded jitter: deterministic under test, desynchronized across
        # real clients (each process seeds differently by default).
        self._jitter = random.Random(jitter_seed)
        self._sleep = sleep
        self._clock = clock
        # Custom transports (tests, fault injection) may not accept a
        # per-call timeout; detect once instead of failing per request.
        try:
            self._transport_takes_timeout = (
                "timeout" in inspect.signature(self.transport.post).parameters
            )
        except (TypeError, ValueError):  # pragma: no cover - exotic callables
            self._transport_takes_timeout = False
        self._next = 0
        self._lock = threading.Lock()
        self.requests_sent = 0
        self.failovers = 0
        self.backoff_seconds = 0.0

    def ready_replicas(self) -> list[str]:
        """The subset currently answering ``/healthz`` with 200.

        Warming replicas (503 ``"loading"``) are excluded — that is the
        whole point of the readiness split: traffic waits for the page
        cache, probes don't.
        """
        ready = []
        for url in self.replica_urls:
            try:
                status, _body = self.transport.get(url + "/healthz")
            except (TimeoutError, ConnectionError, OSError):
                continue
            if status == 200:
                ready.append(url)
        return ready

    def _rotation(self) -> list[str]:
        """Every replica, starting at the round-robin cursor."""
        with self._lock:
            start = self._next
            self._next = (self._next + 1) % len(self.replica_urls)
        n = len(self.replica_urls)
        return [self.replica_urls[(start + i) % n] for i in range(n)]

    def _backoff_delay(self, attempt: int) -> float:
        """Capped exponential backoff with jitter for failover ``attempt``.

        ``attempt`` 1 is the first failover.  Full jitter in
        ``[delay/2, delay]`` — enough spread to desynchronize a client
        herd, while keeping a floor so a dead replica is not hammered.
        """
        delay = min(self.backoff * (2.0 ** (attempt - 1)), self.backoff_cap)
        with self._lock:
            factor = 0.5 + 0.5 * self._jitter.random()
        return delay * factor

    def _post_once(self, url: str, body: bytes, remaining: float | None):
        if remaining is not None and self._transport_takes_timeout:
            return self.transport.post(
                url, body, timeout=max(0.001, min(self.timeout, remaining))
            )
        return self.transport.post(url, body)

    def _post_with_failover(self, path: str, body: bytes) -> bytes:
        last_error: Exception | None = None
        started = self._clock()
        deadline_at = None if self.deadline is None else started + self.deadline
        attempt = 0
        for round_no in range(self.max_rounds):
            for url in self._rotation():
                if attempt:
                    with self._lock:
                        self.failovers += 1
                    delay = self._backoff_delay(attempt)
                    if deadline_at is not None and (
                        self._clock() + delay >= deadline_at
                    ):
                        raise DeadlineExceededError(
                            f"deadline of {self.deadline:.3f}s expired after "
                            f"{attempt} attempt(s) on {path}: {last_error}"
                        )
                    self._sleep(delay)
                    self.backoff_seconds += delay
                attempt += 1
                remaining = (
                    None if deadline_at is None else deadline_at - self._clock()
                )
                if remaining is not None and remaining <= 0:
                    raise DeadlineExceededError(
                        f"deadline of {self.deadline:.3f}s expired after "
                        f"{attempt - 1} attempt(s) on {path}: {last_error}"
                    )
                try:
                    status, data = self._post_once(url + path, body, remaining)
                except (TimeoutError, ConnectionError, OSError) as exc:
                    last_error = exc
                    continue
                with self._lock:
                    self.requests_sent += 1
                if status == 200:
                    return data
                last_error = RuntimeError(
                    f"{url}{path} answered HTTP {status}: {data[:200]!r}"
                )
        raise AllReplicasFailedError(
            f"all {len(self.replica_urls)} replicas failed {path} "
            f"({attempt} attempt(s) over {self.max_rounds} round(s)): {last_error}"
        )

    def infer(
        self, values: Sequence[str], variant: str | None = None
    ) -> InferenceResult:
        """One rule inference, on whichever replica the cursor points at."""
        body = InferRequest(values=tuple(values), variant=variant).to_json()
        data = self._post_with_failover("/v1/infer", body.encode("utf-8"))
        return InferResponse.from_json(data).result

    def infer_batch(
        self, columns: Sequence[Sequence[str]], variant: str | None = None
    ) -> list[InferenceResult]:
        """Fan one batch across the fleet; results come back in input order.

        The batch is deduped by :func:`~repro.service.cache.column_digest`
        first: a column repeated in the batch (or a permutation of it) is
        solved once, on one replica, and every repeat shares its result.
        The distinct columns are then packed by value count into at most
        one sub-batch per configured replica URL, ready or not
        (:func:`~repro.util.weighted_chunks`), so one huge column cannot
        straggle a replica while the others idle.  Sub-batches fly
        concurrently, each starting at the next replica in the rotation
        and failing over independently, so one slow or dead replica delays
        only its share.
        """
        if not columns:
            return []
        slot_of: dict[str, int] = {}
        distinct: list[Sequence[str]] = []
        slots: list[int] = []
        for values in columns:
            digest = column_digest(values)
            if digest not in slot_of:
                slot_of[digest] = len(distinct)
                distinct.append(values)
            slots.append(slot_of[digest])
        answers: list[InferenceResult | None] = [None] * len(distinct)

        def send(chunk: list[int]) -> None:
            body = BatchEnvelope(
                items=tuple(
                    InferRequest(values=tuple(distinct[i]), variant=variant)
                    for i in chunk
                )
            ).to_json()
            data = self._post_with_failover("/v1/infer_batch", body.encode("utf-8"))
            batch = BatchEnvelope.from_json(data)
            if len(batch.items) != len(chunk):
                raise AllReplicasFailedError(
                    f"replica answered {len(batch.items)} results for "
                    f"{len(chunk)} columns"
                )
            for i, item in zip(chunk, batch.items):
                answers[i] = item.result

        chunks = weighted_chunks(
            [len(values) for values in distinct], len(self.replica_urls)
        )
        with concurrent.futures.ThreadPoolExecutor(max_workers=len(chunks)) as pool:
            for future in [pool.submit(send, chunk) for chunk in chunks]:
                future.result()
        unanswered = sum(answer is None for answer in answers)
        if unanswered:
            raise AllReplicasFailedError(
                f"{unanswered} of {len(distinct)} distinct columns got no result"
            )
        return [answers[slot] for slot in slots]  # type: ignore[misc]
