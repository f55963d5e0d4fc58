"""The coordinator: partitions, dispatches, verifies, merges.

One :meth:`DistCoordinator.build` call reproduces the paper's aggregation
job: LPT-partition the corpus into column windows, dispatch them to the
healthy scan-worker pool over HTTP, download and CRC-verify each window's
consolidated run file, and k-way merge every run into the final sharded
index — byte-identical to a serial :func:`repro.index.builder.build_index`
because run partials are exact 2**-105 fixed-point integers.

Robustness model (each mapped to a named outcome, never a silent skip):

* **slow worker / transient 5xx** — per-window timeout, then capped
  exponential-backoff retry on the *same* worker (``windows_retried``);
* **dead worker** — a connection failure (or retry exhaustion) marks the
  worker dead, returns its in-flight window to the queue for another
  worker (``windows_reassigned``), and shrinks the pool;
* **torn download** — a run whose size/CRC/structure doesn't match the
  worker's :class:`~repro.api.wire.ScanResponse` receipt is re-downloaded
  once, then surfaces as :class:`RunVerificationError` (corrupt data must
  never reach the merge);
* **no pool** — an empty health-probe sweep raises
  :class:`NoHealthyWorkersError` before any column is shipped;
* **stranded windows** — if every worker dies with windows unfinished the
  build fails with :class:`DistBuildError` naming the count.

The transport and the backoff sleep are injectable, so the failure paths
are tested deterministically (stub transports that tear bodies, stub
sleeps that record delays) as well as end-to-end against real worker
subprocesses.
"""

from __future__ import annotations

import contextlib
import tempfile
import threading
import time
import urllib.error
import urllib.request
import zlib
from collections import deque
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

from repro.api.wire import ErrorResponse, ScanRequest, ScanResponse
from repro.core.enumeration import EnumerationConfig
from repro.dist.codec import config_to_wire
from repro.dist.journal import JOURNAL_VERSION, BuildJournal, corpus_digest
from repro.index.builder import merge_runs_to_index
from repro.index.index import IndexMeta
from repro.index.store import verify_run_payload
from repro.util import weighted_chunks

#: Windows per healthy worker: enough slack for LPT rebalancing and for
#: reassignment to matter (a dead worker's windows spread over the rest),
#: small enough that per-window HTTP overhead stays negligible.
DEFAULT_WINDOWS_PER_WORKER = 4


class DistBuildError(RuntimeError):
    """A distributed build failed in a way retries cannot fix."""


class NoHealthyWorkersError(DistBuildError):
    """The health-probe sweep found no live worker to dispatch to."""


class RunVerificationError(DistBuildError):
    """A downloaded run failed size/CRC/structural verification twice."""


class JournalMismatchError(DistBuildError):
    """A resume journal was written by a different build (corpus, config,
    partitioning, or output shape changed); reusing its runs would merge
    the wrong data or break byte-identity with a serial build."""


class _WorkerDied(Exception):
    """Internal: this worker is gone; reassign its window."""


@dataclass
class WorkerStats:
    """Per-worker accounting of one distributed build."""

    url: str
    windows_scanned: int = 0
    columns_scanned: int = 0
    values_scanned: int = 0
    busy_seconds: float = 0.0
    bytes_sent: int = 0
    bytes_received: int = 0
    dead: bool = False

    @property
    def values_per_second(self) -> float:
        """Scan throughput attributed to this worker (0 when unused)."""
        return self.values_scanned / self.busy_seconds if self.busy_seconds else 0.0


@dataclass
class DistBuildStats:
    """The coordinator's report for one distributed build."""

    out: str
    format: str
    n_shards: int
    n_workers: int
    n_windows: int
    windows_dispatched: int = 0
    windows_reused: int = 0
    windows_retried: int = 0
    windows_reassigned: int = 0
    download_retries: int = 0
    columns_scanned: int = 0
    values_scanned: int = 0
    total_entries: int = 0
    bytes_shipped: int = 0
    wall_seconds: float = 0.0
    workers: list[WorkerStats] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        payload = asdict(self)
        for row, stats in zip(payload["workers"], self.workers):
            row["values_per_second"] = round(stats.values_per_second, 1)
        return payload


class HTTPTransport:
    """Blocking urllib transport with coordinator-friendly error classes.

    Returns ``(status, body)`` for anything the worker *answered* —
    including 4xx/5xx, which carry wire :class:`ErrorResponse` bodies the
    coordinator wants to read.  Network-level failures become
    :class:`TimeoutError` (slow worker: retry the same one) or
    :class:`ConnectionError` (dead worker: reassign), the two categories
    the retry policy distinguishes.
    """

    def __init__(self, timeout: float = 60.0):
        self.timeout = timeout

    def post(
        self, url: str, body: bytes, timeout: float | None = None
    ) -> tuple[int, bytes]:
        request = urllib.request.Request(
            url,
            data=body,
            headers={"Content-Type": "application/json; charset=utf-8"},
            method="POST",
        )
        return self._send(request, timeout)

    def get(self, url: str, timeout: float | None = None) -> tuple[int, bytes]:
        return self._send(urllib.request.Request(url, method="GET"), timeout)

    def _send(
        self, request: urllib.request.Request, timeout: float | None = None
    ) -> tuple[int, bytes]:
        effective = self.timeout if timeout is None else timeout
        try:
            with urllib.request.urlopen(request, timeout=effective) as response:
                return response.status, response.read()
        except urllib.error.HTTPError as exc:
            with exc:
                return exc.code, exc.read()
        except urllib.error.URLError as exc:
            if isinstance(exc.reason, TimeoutError):
                raise TimeoutError(f"{request.full_url}: {exc.reason}") from exc
            raise ConnectionError(f"{request.full_url}: {exc.reason}") from exc
        except TimeoutError:
            raise
        except OSError as exc:
            raise ConnectionError(f"{request.full_url}: {exc}") from exc


@dataclass
class _Window:
    """One unit of dispatchable work, pre-serialized once.

    Only the wire body is kept — it survives retries and reassignment
    verbatim, and holding the raw columns too would double the
    coordinator's resident footprint for nothing.
    """

    window_id: int
    n_columns: int
    request_body: bytes


class DistCoordinator:
    """Drives one worker pool through one distributed index build."""

    def __init__(
        self,
        worker_urls: Sequence[str],
        *,
        config: EnumerationConfig | None = None,
        corpus_name: str = "",
        timeout: float = 60.0,
        retries: int = 3,
        backoff: float = 0.5,
        backoff_cap: float = 8.0,
        windows_per_worker: int = DEFAULT_WINDOWS_PER_WORKER,
        spill_mb: float | None = None,
        journal_dir: str | Path | None = None,
        transport: Any = None,
        sleep: Callable[[float], None] = time.sleep,
        on_event: Callable[..., None] | None = None,
    ):
        if not worker_urls:
            raise ValueError("at least one worker URL is required")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        self.worker_urls = [url.rstrip("/") for url in worker_urls]
        self.config = config or EnumerationConfig()
        self.corpus_name = corpus_name
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.backoff_cap = backoff_cap
        self.windows_per_worker = windows_per_worker
        self.spill_mb = spill_mb
        #: Crash-safe resume state (run files + CRC-framed receipts) lives
        #: here when set; ``build(resume=True)`` replays it.
        self.journal = BuildJournal(journal_dir) if journal_dir is not None else None
        self.transport = transport if transport is not None else HTTPTransport(timeout)
        self._sleep = sleep
        self._on_event = on_event
        # Build-scoped state (reset per build()).
        self._cond = threading.Condition()
        self._pending: deque[_Window] = deque()
        self._inflight = 0
        self._results: dict[int, Path] = {}
        self._failure: BaseException | None = None

    # -- events --------------------------------------------------------------

    def _emit(self, kind: str, **info: Any) -> None:
        """Progress callback (CLI logging, and the kill-injection tests)."""
        if self._on_event is not None:
            self._on_event(kind, **info)

    # -- pool membership -----------------------------------------------------

    def probe_workers(self) -> list[str]:
        """Health-sweep the configured URLs; returns the live subset."""
        healthy = []
        for url in self.worker_urls:
            try:
                status, _body = self.transport.get(url + "/healthz")
            except (TimeoutError, ConnectionError, OSError):
                self._emit("probe_failed", worker=url)
                continue
            if status == 200:
                healthy.append(url)
            else:
                self._emit("probe_failed", worker=url, status=status)
        return healthy

    # -- the build -----------------------------------------------------------

    def build(
        self,
        columns: Iterable[Sequence[str]],
        out: str | Path,
        *,
        format: str | None = None,
        n_shards: int = 16,
        resume: bool = False,
    ) -> DistBuildStats:
        """Scan ``columns`` across the pool and merge into ``out``.

        Byte-identical to ``build_index_streaming(columns, out, ...)``
        over the same columns (asserted by the test suite); raises the
        named errors in the module doc when robustness runs out.

        With a journal configured, every finished window is durably
        checkpointed; ``resume=True`` replays the journal of a killed
        build, re-verifies its run files, and re-scans only the windows
        without committed receipts — the partitioning is pinned by the
        journal header so the resumed output stays byte-identical.
        """
        from repro.index.store import default_format

        if resume and self.journal is None:
            raise ValueError("resume=True requires a journal_dir")
        started = time.monotonic()
        format = format if format is not None else default_format()
        healthy = self.probe_workers()
        if not healthy:
            raise NoHealthyWorkersError(
                f"none of {len(self.worker_urls)} workers answered /healthz: "
                + ", ".join(self.worker_urls)
            )
        materialized = [list(column) for column in columns]
        if not materialized:
            raise ValueError("cannot build an index from zero columns")
        digest = corpus_digest(materialized) if self.journal is not None else ""
        reused: dict[int, dict[str, Any]] = {}
        if resume and self.journal is not None:
            records = self.journal.recover()
            header = self._check_header(records, digest, format, n_shards)
            n_windows = int(header["n_windows"])
            reused = self.journal.verified_windows(records)
        else:
            n_windows = max(
                1,
                min(len(materialized), len(healthy) * self.windows_per_worker),
            )
            if self.journal is not None:
                self.journal.reset()
                self.journal.write_header(
                    {
                        "fingerprint": self.config.fingerprint(),
                        "corpus_digest": digest,
                        "n_windows": n_windows,
                        "n_shards": n_shards,
                        "format": format,
                        "corpus_name": self.corpus_name,
                    }
                )
        windows = self._partition(materialized, n_windows)
        out = Path(out)
        out.parent.mkdir(parents=True, exist_ok=True)
        stats = DistBuildStats(
            out=str(out),
            format=format,
            n_shards=n_shards,
            n_workers=len(healthy),
            n_windows=len(windows),
            windows_reused=len(reused),
            workers=[WorkerStats(url=url) for url in healthy],
        )
        self._pending = deque(
            window for window in windows if window.window_id not in reused
        )
        self._inflight = 0
        self._results = {}
        if self.journal is not None:
            for window_id in reused:
                self._results[window_id] = self.journal.run_path(window_id)
        self._failure = None
        for window_id in sorted(reused):
            self._emit("window_reused", window_id=window_id)
        # With a journal the run files ARE the checkpoint: they live in
        # the journal directory and survive the build.  Without one they
        # are scratch, swept with the TemporaryDirectory.
        scratch_cm = (
            contextlib.nullcontext(str(self.journal.directory))
            if self.journal is not None
            else tempfile.TemporaryDirectory(prefix=".avdist-", dir=str(out.parent))
        )
        with scratch_cm as scratch:
            scratch_dir = Path(scratch)
            threads = [
                threading.Thread(
                    target=self._worker_loop,
                    args=(worker, stats, scratch_dir),
                    name=f"dist-{worker.url}",
                    daemon=True,
                )
                for worker in stats.workers
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            if self._failure is not None:
                raise self._failure
            if len(self._results) != len(windows):
                missing = len(windows) - len(self._results)
                raise DistBuildError(
                    f"{missing} window(s) unfinished and no live workers remain "
                    f"({sum(w.dead for w in stats.workers)} of "
                    f"{len(stats.workers)} workers died)"
                )
            meta = IndexMeta(
                columns_scanned=len(materialized),
                values_scanned=sum(len(column) for column in materialized),
                tau=self.config.tau,
                min_coverage=self.config.min_coverage,
                corpus_name=self.corpus_name,
                fingerprint=self.config.fingerprint(),
            )
            run_paths = [path for _wid, path in sorted(self._results.items())]
            total_entries, _max_resident = merge_runs_to_index(
                run_paths, meta, out, format=format, n_shards=n_shards
            )
        if self.journal is not None:
            self.journal.append(
                {"kind": "build_done", "total_entries": total_entries}
            )
        stats.columns_scanned = meta.columns_scanned
        stats.values_scanned = meta.values_scanned
        stats.total_entries = total_entries
        stats.bytes_shipped = sum(
            worker.bytes_sent + worker.bytes_received for worker in stats.workers
        )
        stats.wall_seconds = time.monotonic() - started
        return stats

    def _check_header(
        self,
        records: list[dict[str, Any]],
        digest: str,
        format: str,
        n_shards: int,
    ) -> dict[str, Any]:
        """The journal header, validated against *this* build's identity."""
        header = BuildJournal.header_of(records)
        if header is None:
            raise JournalMismatchError(
                "resume requested but the journal holds no build_start header "
                "(nothing to resume — run without --resume)"
            )
        expected = {
            "v": JOURNAL_VERSION,
            "fingerprint": self.config.fingerprint(),
            "corpus_digest": digest,
            "n_shards": n_shards,
            "format": format,
        }
        for key, want in expected.items():
            got = header.get(key)
            if got != want:
                raise JournalMismatchError(
                    f"journal {key} is {got!r} but this build needs {want!r}; "
                    "the journal belongs to a different build "
                    "(run without --resume to start over)"
                )
        return header

    def _partition(
        self, columns: list[list[str]], n_windows: int
    ) -> list[_Window]:
        """LPT-pack columns into windows and pre-serialize their requests."""
        bins = weighted_chunks([len(column) for column in columns], n_windows)
        config_payload = config_to_wire(self.config)
        fingerprint = self.config.fingerprint()
        windows = []
        for window_id, chunk in enumerate(bins):
            body = ScanRequest(
                window_id=window_id,
                columns=tuple(tuple(columns[i]) for i in chunk),
                config=config_payload,
                fingerprint=fingerprint,
                spill_mb=self.spill_mb,
            ).to_json().encode("utf-8")
            windows.append(
                _Window(
                    window_id=window_id, n_columns=len(chunk), request_body=body
                )
            )
        return windows

    # -- worker threads ------------------------------------------------------

    def _next_window(self) -> _Window | None:
        """Claim the next window, or wait while others are in flight.

        A thread must not exit just because the queue is momentarily
        empty: a dying sibling may return its window any moment, and an
        exited thread could strand it.  Exit only when every window is
        done (or the build already failed).
        """
        with self._cond:
            while True:
                if self._failure is not None:
                    return None
                if self._pending:
                    self._inflight += 1
                    return self._pending.popleft()
                if self._inflight == 0:
                    return None
                self._cond.wait(0.05)

    def _window_finished(self) -> None:
        with self._cond:
            self._inflight -= 1
            self._cond.notify_all()

    def _worker_loop(
        self, worker: WorkerStats, stats: DistBuildStats, scratch_dir: Path
    ) -> None:
        while True:
            window = self._next_window()
            if window is None:
                return
            try:
                response = self._scan_on(worker, window, stats)
                data = self._download_run(worker, response, stats)
            except _WorkerDied:
                worker.dead = True
                with self._cond:
                    self._pending.append(window)
                    stats.windows_reassigned += 1
                    self._inflight -= 1
                    self._cond.notify_all()
                self._emit(
                    "reassign", window_id=window.window_id, worker=worker.url
                )
                return
            except BaseException as exc:  # noqa: BLE001 - surface on the main thread
                with self._cond:
                    if self._failure is None:
                        self._failure = exc
                    self._inflight -= 1
                    self._cond.notify_all()
                return
            try:
                path = self._publish_window(window, response, data, scratch_dir)
            except BaseException as exc:  # noqa: BLE001 - surface on the main thread
                with self._cond:
                    if self._failure is None:
                        self._failure = exc
                    self._inflight -= 1
                    self._cond.notify_all()
                return
            with self._cond:
                self._results[window.window_id] = path
                worker.windows_scanned += 1
                worker.columns_scanned += response.columns_scanned
                worker.values_scanned += response.values_scanned
            self._window_finished()
            self._emit(
                "window_done",
                window_id=window.window_id,
                worker=worker.url,
                n_entries=response.n_entries,
                run_bytes=response.run_bytes,
            )

    def _publish_window(
        self,
        window: _Window,
        response: ScanResponse,
        data: bytes,
        scratch_dir: Path,
    ) -> Path:
        """Land one verified run on disk; durable + receipted when journaled.

        The receipt is appended only *after* the run bytes are durably
        published, so a coordinator killed between the two re-scans the
        window on resume (the receipt, not the file, is the commit point).
        """
        if self.journal is None:
            path = scratch_dir / f"window-{window.window_id:06d}.run"
            path.write_bytes(data)
            return path
        path = self.journal.publish_run(window.window_id, data)
        with self._cond:
            self.journal.append(
                {
                    "kind": "window_done",
                    "window_id": window.window_id,
                    "run_file": path.name,
                    "n_entries": response.n_entries,
                    "run_bytes": response.run_bytes,
                    "crc32": response.crc32,
                    "columns_scanned": response.columns_scanned,
                    "values_scanned": response.values_scanned,
                }
            )
        return path

    def _scan_on(
        self, worker: WorkerStats, window: _Window, stats: DistBuildStats
    ) -> ScanResponse:
        """POST one window to one worker, with timeout/5xx retry."""
        with self._cond:
            # Once per (worker, window) assignment: retries are counted
            # separately, reassignments show up as a second dispatch.
            stats.windows_dispatched += 1
        attempt = 0
        while True:
            scan_started = time.monotonic()
            try:
                with self._cond:
                    worker.bytes_sent += len(window.request_body)
                self._emit(
                    "dispatch", window_id=window.window_id, worker=worker.url
                )
                status, body = self.transport.post(
                    worker.url + "/v1/scan", window.request_body
                )
            except TimeoutError:
                status, body = None, b""
            except (ConnectionError, OSError) as exc:
                raise _WorkerDied(str(exc)) from exc
            finally:
                with self._cond:
                    worker.busy_seconds += time.monotonic() - scan_started
            if status == 200:
                with self._cond:
                    worker.bytes_received += len(body)
                return ScanResponse.from_json(body)
            if status is not None and status < 500:
                # 4xx: the request itself is wrong (config_mismatch,
                # malformed envelope) — retrying cannot help, and another
                # worker would answer the same.  Fail the build loudly.
                raise DistBuildError(
                    f"worker {worker.url} rejected window {window.window_id}: "
                    + self._error_detail(status, body)
                )
            # Timeout or 5xx: transient by assumption, up to `retries`
            # capped-backoff attempts on the same worker.
            if attempt >= self.retries:
                raise _WorkerDied(
                    f"worker {worker.url} failed window {window.window_id} "
                    f"{attempt + 1} time(s)"
                )
            delay = min(self.backoff * (2.0**attempt), self.backoff_cap)
            attempt += 1
            with self._cond:
                stats.windows_retried += 1
            self._emit(
                "retry",
                window_id=window.window_id,
                worker=worker.url,
                attempt=attempt,
                delay=delay,
            )
            self._sleep(delay)

    def _download_run(
        self, worker: WorkerStats, response: ScanResponse, stats: DistBuildStats
    ) -> bytes:
        """GET + verify one run; one re-download, then a named error."""
        url = f"{worker.url}/v1/runs/{response.run_id}"
        last_error = ""
        for attempt in (0, 1):
            try:
                status, data = self.transport.get(url)
            except (TimeoutError, ConnectionError, OSError) as exc:
                # The run lives only on that worker: network death here
                # means re-scanning the window elsewhere, not re-fetching.
                raise _WorkerDied(str(exc)) from exc
            with self._cond:
                worker.bytes_received += len(data)
            last_error = self._verify_download(response, status, data)
            if not last_error:
                return data
            if attempt == 0:
                with self._cond:
                    stats.download_retries += 1
                self._emit(
                    "download_retry",
                    window_id=response.window_id,
                    worker=worker.url,
                    error=last_error,
                )
        raise RunVerificationError(
            f"run {response.run_id} from {worker.url} failed verification "
            f"twice: {last_error}"
        )

    def _verify_download(
        self, response: ScanResponse, status: int, data: bytes
    ) -> str:
        """'' when the body matches the receipt; else the mismatch found."""
        if status != 200:
            return f"HTTP {status}: {self._error_detail(status, data)}"
        if len(data) != response.run_bytes:
            return (
                f"got {len(data)} bytes, receipt promised {response.run_bytes} "
                "(torn download?)"
            )
        if zlib.crc32(data) != response.crc32:
            return "CRC-32 mismatch vs the scan receipt (corrupt download)"
        try:
            n_entries, _crc = verify_run_payload(data)
        except ValueError as exc:
            return str(exc)
        if n_entries != response.n_entries:
            return (
                f"run holds {n_entries} entries, receipt promised "
                f"{response.n_entries}"
            )
        return ""

    @staticmethod
    def _error_detail(status: int, body: bytes) -> str:
        try:
            error = ErrorResponse.from_json(body)
            return f"{error.code}: {error.message}"
        except Exception:  # noqa: BLE001 - best-effort diagnostics
            return f"HTTP {status}"


def distributed_build(
    columns: Iterable[Sequence[str]],
    worker_urls: Sequence[str],
    out: str | Path,
    *,
    config: EnumerationConfig | None = None,
    corpus_name: str = "",
    format: str | None = None,
    n_shards: int = 16,
    resume: bool = False,
    **coordinator_kwargs: Any,
) -> DistBuildStats:
    """One-call distributed build (the ``dist-build`` CLI entry point)."""
    coordinator = DistCoordinator(
        worker_urls, config=config, corpus_name=corpus_name, **coordinator_kwargs
    )
    return coordinator.build(
        columns, out, format=format, n_shards=n_shards, resume=resume
    )
