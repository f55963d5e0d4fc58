"""The scan worker: one machine's share of a distributed index build.

``auto-validate worker`` boots a :class:`ScanWorkerServer` — the fleet
analogue of one extract-vertex in the paper's SCOPE job.  The coordinator
POSTs it column windows (:class:`~repro.api.wire.ScanRequest`); the
worker enumerates them through a local
:class:`~repro.index.builder.SpillingIndexBuilder` (bounded residency,
exact fixed-point partials), consolidates the spilled runs into **one**
run file per window, and publishes it under a run id.  The coordinator
then fetches the raw bytes with ``GET /v1/runs/<id>`` and CRC-verifies
them against the :class:`~repro.api.wire.ScanResponse` receipt.

Routes:

=======================  ===================================================
``POST /v1/scan``          ``ScanRequest`` -> ``ScanResponse`` (scan one
                           window, publish its consolidated run)
``GET /v1/runs/<id>``      raw run-file bytes (``application/octet-stream``)
``GET /healthz``           readiness: 200 with scan counters
``GET /livez``             liveness: 200 whenever the loop answers
``GET /metrics``           scan/transfer counters (JSON)
=======================  ===================================================

Config safety: the worker rebuilds the request's
:class:`~repro.core.enumeration.EnumerationConfig` from the wire knobs
and compares fingerprints before scanning — a coordinator/worker version
skew answers ``409 config_mismatch`` instead of poisoning the merged
index.  Scans run on a thread (``asyncio.to_thread``) so health probes
keep answering while a window enumerates.
"""

from __future__ import annotations

import asyncio
import time
from pathlib import Path
from typing import Any

from repro.api.wire import ScanRequest, ScanResponse
from repro.core.enumeration import EnumerationConfig
from repro.dist.codec import config_from_wire
from repro.durability import cleanup_orphans, durable_publish_file
from repro.index.builder import (
    DEFAULT_SPILL_MB,
    SpillingIndexBuilder,
    consolidate_run_files,
)
from repro.index.store import verify_run_payload, write_run_file
from repro.server.base import BaseHTTPServer, _HTTPError
from repro.validate.rule import dumps_canonical


class ScanWorkerServer(BaseHTTPServer):
    """Serves ``/v1/scan`` + ``/v1/runs/<id>`` for one worker process."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8080,
        *,
        run_dir: str | Path,
        spill_mb: float = DEFAULT_SPILL_MB,
        max_inflight: int | None = None,
    ):
        super().__init__(host, port, max_inflight=max_inflight)
        self.run_dir = Path(run_dir)
        self.run_dir.mkdir(parents=True, exist_ok=True)
        # A previous worker process that died mid-scan leaves publish
        # temporaries, spill scratch directories, and published-but-now-
        # unfetchable run files (the run-id map died with the process).
        # The coordinator re-dispatches those windows, so sweep them all.
        cleanup_orphans(self.run_dir, ("*.tmp", "*.scratch", "*.run"))
        self.spill_mb = spill_mb
        self._runs: dict[str, Path] = {}
        self._scan_seq = 0
        # Scan counters (the /metrics payload and ScanResponse receipts).
        self.windows_scanned = 0
        self.columns_scanned = 0
        self.values_scanned = 0
        self.busy_seconds = 0.0
        self.run_bytes_served = 0
        self._routes.update(
            {
                "/healthz": (self._handle_healthz, "GET"),
                "/v1/scan": (self._handle_scan, "POST"),
            }
        )
        self._prefix_route = ("/v1/runs/", (self._handle_run_fetch, "GET"))

    # -- handlers ------------------------------------------------------------

    async def _handle_scan(self, body: bytes) -> str:
        request = ScanRequest.from_json(body)
        config = config_from_wire(request.config)
        if config.fingerprint() != request.fingerprint:
            # Version skew: this worker would enumerate a different
            # pattern space than the coordinator planned around.  Refuse
            # before a single value is scanned.
            raise _HTTPError(
                409,
                "config_mismatch",
                f"worker config fingerprint {config.fingerprint()!r} != "
                f"coordinator fingerprint {request.fingerprint!r} "
                "(mismatched coordinator/worker versions?)",
            )
        self._scan_seq += 1
        run_id = f"scan-{self._scan_seq:06d}-w{request.window_id:06d}"
        started = time.monotonic()
        run_path, n_values, hits, misses = await asyncio.to_thread(
            self._scan_window, request, config, run_id
        )
        self.busy_seconds += time.monotonic() - started
        data = run_path.read_bytes()
        # Verify our own output before publishing it: a worker-side disk
        # fault must surface here as a 500, not as a coordinator-side CRC
        # failure that reads like a network problem.
        n_entries, crc = verify_run_payload(data)
        self._runs[run_id] = run_path
        self.windows_scanned += 1
        self.columns_scanned += len(request.columns)
        self.values_scanned += n_values
        return ScanResponse(
            window_id=request.window_id,
            run_id=run_id,
            n_entries=n_entries,
            run_bytes=len(data),
            crc32=crc,
            columns_scanned=len(request.columns),
            values_scanned=n_values,
            sketch_hits=hits,
            sketch_misses=misses,
        ).to_json()

    def _scan_window(
        self, request: ScanRequest, config: EnumerationConfig, run_id: str
    ) -> tuple[Path, int, int, int]:
        """Enumerate one window and consolidate its spills (worker thread)."""
        scratch = self.run_dir / f"{run_id}.scratch"
        scratch.mkdir(parents=True, exist_ok=True)
        spill_mb = request.spill_mb if request.spill_mb is not None else self.spill_mb
        builder = SpillingIndexBuilder(
            config,
            run_dir=scratch,
            spill_bytes=max(1, int(spill_mb * (1 << 20))),
        )
        for column in request.columns:
            builder.add_column(column)
        n_values = builder.values_scanned
        hits, misses = builder.sketch_hits, builder.sketch_misses
        runs = builder.finish()
        out = self.run_dir / f"{run_id}.run"
        if not runs:
            # A window of empty columns still owes the coordinator a
            # (valid, zero-entry) run: absence would read as a lost reply.
            write_run_file(out, 0, {}, {})
        elif len(runs) == 1:
            # fsync the spill before renaming it to its published name so
            # the rename can never outlive the data it points at.
            durable_publish_file(runs[0], out)
        else:
            consolidate_run_files(runs, out)
            for p in runs:
                p.unlink()
        try:
            scratch.rmdir()
        except OSError:
            pass  # non-empty scratch is a leak, not a failure
        return out, n_values, hits, misses

    async def _handle_run_fetch(self, run_id: str) -> bytes:
        path = self._runs.get(run_id)
        if path is None:
            raise _HTTPError(404, "run_not_found", f"no run {run_id!r} on this worker")
        try:
            data = path.read_bytes()
        except OSError as exc:
            raise _HTTPError(
                500, "run_unreadable", f"run {run_id!r} vanished: {exc}"
            ) from exc
        self.run_bytes_served += len(data)
        return data

    async def _handle_healthz(self, _body: bytes) -> str:
        return dumps_canonical(
            {
                "status": "ok",
                "role": "scan-worker",
                "windows_scanned": self.windows_scanned,
                "runs_held": len(self._runs),
                "api_version": "v1",
            }
        )

    def _metrics(self) -> dict[str, Any]:
        return {
            "windows_scanned": self.windows_scanned,
            "columns_scanned": self.columns_scanned,
            "values_scanned": self.values_scanned,
            "busy_seconds": self.busy_seconds,
            "runs_held": len(self._runs),
            "run_bytes_served": self.run_bytes_served,
        }
