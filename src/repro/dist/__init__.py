"""Distributed build & serve: the paper's SCOPE topology over HTTP.

The production Auto-Validate deployment (paper §7) scans the data lake as
a distributed job — many machines enumerate columns, one aggregation
folds their partial pattern statistics.  This package reproduces that
topology with the pieces the repo already has:

* **scan workers** (:mod:`repro.dist.worker`) — the ``auto-validate
  worker`` binary serves ``POST /v1/scan`` (one LPT-balanced column
  window in, one consolidated run-spill file out) and ``GET
  /v1/runs/<id>`` (the raw run bytes) on the shared asyncio HTTP stack;
* a **coordinator** (:mod:`repro.dist.coordinator`) — partitions the
  corpus into windows, dispatches them to the healthy worker pool with
  per-window timeout/retry/reassignment, CRC-verifies every downloaded
  run, and k-way merges the runs into final v2/v3 shards;
* a **round-robin client** (:mod:`repro.dist.client`) — fans
  ``infer_batch`` traffic across a replicated read-only serving fleet
  (N ``auto-validate serve --prefetch`` processes, every replica
  mmapping the same immutable v3 index).

The whole design leans on one invariant: run files carry *exact*
2**-105 fixed-point impurity partials, so integer addition makes the
final merge independent of how columns were windowed, which worker
scanned what, and in which order runs came back — the distributed build
is **byte-identical** to a serial :func:`repro.index.builder.build_index`
and the test suite asserts it, including under injected worker kills and
torn downloads.
"""

from repro.dist.client import (
    AllReplicasFailedError,
    DeadlineExceededError,
    RoundRobinClient,
)
from repro.dist.codec import config_from_wire, config_to_wire
from repro.dist.coordinator import (
    DistBuildError,
    DistBuildStats,
    DistCoordinator,
    HTTPTransport,
    JournalMismatchError,
    NoHealthyWorkersError,
    RunVerificationError,
    WorkerStats,
    distributed_build,
)
from repro.dist.journal import BuildJournal, corpus_digest
from repro.dist.worker import ScanWorkerServer

__all__ = [
    "AllReplicasFailedError",
    "BuildJournal",
    "DeadlineExceededError",
    "DistBuildError",
    "DistBuildStats",
    "DistCoordinator",
    "HTTPTransport",
    "JournalMismatchError",
    "NoHealthyWorkersError",
    "RoundRobinClient",
    "RunVerificationError",
    "ScanWorkerServer",
    "WorkerStats",
    "config_from_wire",
    "config_to_wire",
    "corpus_digest",
    "distributed_build",
]
