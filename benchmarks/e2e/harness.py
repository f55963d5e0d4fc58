"""Plumbing shared by the workloads: sizes, statistics, spans, child processes.

The harness drives the program from outside — CLI subprocesses, the HTTP
edge, public constructors — and the workload modules import only the
public names they call.
"""

from __future__ import annotations

import json
import math
import os
import select
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, Sequence

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
RESULTS_DIR = Path(__file__).resolve().parent / "results"
#: Work directories live inside the checkout (the driver forbids writes
#: outside it) and are removed when the run ends.
TMP_ROOT = ROOT / ".bench_tmp"

INDEX_FORMAT = "v3"
INDEX_SHARDS = 8
SPILL_MB = 4
VARIANT = "vh"
FPR_TARGET = 0.1
#: Every workload is one closed loop: a single client that sends its next
#: operation when the previous one has answered.  Two client threads against
#: the server on the 2-core reference box flip between two scheduling
#: regimes (warm p50 0.9 or 1.13 ms, same seed, same code).
CLIENTS = 1


def load_spec() -> dict[str, Any]:
    return json.loads(SPEC_PATH.read_text(encoding="utf-8"))


def child_env() -> dict[str, str]:
    """Environment of every subprocess: fixed hash seed, pinned kernel."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["PYTHONHASHSEED"] = "0"
    env["REPRO_ENUM_KERNEL"] = "vector"
    env["PYTHONUNBUFFERED"] = "1"
    return env


# -- sizes ---------------------------------------------------------------------


@dataclass(frozen=True)
class Sizes:
    """Every input size of the benchmark; ``--quick`` swaps the instance,
    never the set of workloads or metrics."""

    #: Tables of the generated enterprise lake that is indexed.
    lake_tables: int
    #: Coverage requirement m, scaled to the lake (benchmarks/conftest.py
    #: uses m=10 at 120-300 tables).
    min_coverage: int
    #: Values per query column (the training snapshot sent to /v1/infer).
    query_values: int
    #: Distinct columns whose results are pre-filled for ``serve_warm``.
    warm_columns: int
    #: Requests per ``serve_warm`` block.
    warm_block_requests: int
    #: ``GET /healthz`` probes of the traced ``serve_warm`` run.
    healthz_requests: int
    watch_feeds: int
    watch_columns: int
    watch_values: int
    #: Rounds per ``watch_refresh`` block (one refresh per feed per round).
    watch_block_rounds: int
    #: Tables of the throw-away lake whose build warms interpreter caches.
    warmup_tables: int
    #: Fewest timed repetitions whatever ``--seconds`` says.
    min_builds: int
    min_rounds: int
    min_blocks: int


#: The 3420 s cap on the driver's 92 runs leaves ~37 s per run including
#: set-up, so the lake is 60 tables (ISSUE.md sketched 90) and one run
#: measures for 15 s; m is scaled with the lake.
FULL = Sizes(
    lake_tables=60,
    min_coverage=5,
    query_values=50,
    warm_columns=64,
    warm_block_requests=1200,
    healthz_requests=1000,
    watch_feeds=8,
    watch_columns=8,
    watch_values=100,
    watch_block_rounds=50,
    warmup_tables=3,
    min_builds=3,
    min_rounds=2,
    min_blocks=3,
)

QUICK = Sizes(
    lake_tables=14,
    min_coverage=2,
    query_values=10,
    warm_columns=16,
    warm_block_requests=1000,
    healthz_requests=100,
    watch_feeds=2,
    watch_columns=4,
    watch_values=60,
    watch_block_rounds=100,
    warmup_tables=2,
    min_builds=2,
    min_rounds=2,
    min_blocks=2,
)


# -- statistics ----------------------------------------------------------------

median = statistics.median

#: A percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile; refuses a tail the sample cannot support."""
    n = len(samples)
    rank = math.ceil(q * n) - 1
    if n - 1 - rank < MIN_BEYOND:
        raise ValueError(
            f"p{q * 100:g} needs {MIN_BEYOND} samples beyond it; {n} samples "
            f"leave {n - 1 - rank}"
        )
    return sorted(samples)[rank]


# -- spans ---------------------------------------------------------------------


class Tracer:
    """In-memory spans around the calls into each layer (traced runs only).

    Spans are recorded here, in the benchmark's own files; the program is
    not instrumented.  One span covers one call (or one column's worth of
    calls for micro-operations such as index lookups, where a span per
    call would cost more than the call).
    """

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[dict[str, Any]] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        span_id = len(self.spans)
        record = {
            "id": span_id,
            "name": name,
            "workload": self.workload,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(span_id)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def busy(self, name: str) -> float:
        """Summed wall inside every span called ``name``."""
        return sum(self.durations(name))

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.spans}), encoding="utf-8")


def clear_tokenizer_caches() -> None:
    """Start a replay pass as cold as a fresh process: the tokenizer's
    process-wide memo tables would otherwise carry over from the pass before
    and make whichever pass runs second look cheaper."""
    from repro.core import tokenizer

    for memoized in (
        tokenizer.tokenize, tokenizer.signature,
        tokenizer.alnum_runs, tokenizer.alnum_signature,
    ):
        memoized.cache_clear()


# -- one run -------------------------------------------------------------------


@dataclass
class Run:
    """State of one (workload, seed, trace) run."""

    seed: int
    seconds: float
    sizes: Sizes
    workdir: Path
    #: Perf-counter reading at process start: set-up is everything between
    #: it and the first timed operation.
    t0: float
    tracer: Tracer | None = None
    setup_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    #: Sample count behind each reported number, and the sizes realised.
    samples: dict[str, int] = field(default_factory=dict)
    info: dict[str, Any] = field(default_factory=dict)

    def setup_done(self) -> None:
        self.setup_s = time.perf_counter() - self.t0

    def span(self, name: str):
        """A span in a traced run; nothing at all in an untraced one."""
        return self.tracer.span(name) if self.tracer else nullcontext()

    def running(self, started: float, done: int, at_least: int) -> bool:
        """Whether a time-bounded loop should start another repetition."""
        return done < at_least or time.perf_counter() - started < self.seconds

    def op(self, ok: bool, why: str = "") -> None:
        """Count one attempted operation; a failed check is a failed op."""
        self.attempted += 1
        if not ok:
            self.fail(why)

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(why)

    def check_rule(self, label: str, values: Sequence[str], result: Any) -> None:
        """One answered inference is one operation; a rule that flags the
        very column it was learned from is a wrong answer."""
        flags_itself = result.found and result.validate(values).flagged
        self.op(not flags_itself, f"{label}: rule flags its own training column")


# -- child processes -----------------------------------------------------------


def dir_bytes(path: Path, pattern: str = "*") -> int:
    return sum(p.stat().st_size for p in sorted(path.glob(pattern)) if p.is_file())


def run_cli_index(lake: Path, out: Path, log: Path) -> tuple[float, float, int]:
    """One ``auto-validate index`` subprocess: (wall s, peak RSS MB, exit code).

    Reaped with ``os.wait4`` so the peak RSS is this child's own.
    """
    command = [
        sys.executable, "-m", "repro.cli", "index",
        "--corpus", str(lake), "--out", str(out),
        "--format", INDEX_FORMAT, "--shards", str(INDEX_SHARDS),
        "--workers", "1", "--spill-mb", str(SPILL_MB),
    ]
    with log.open("ab") as sink:
        started = time.perf_counter()
        process = subprocess.Popen(
            command, stdout=sink, stderr=subprocess.STDOUT, env=child_env()
        )
        _, status, usage = os.wait4(process.pid, 0)
        wall = time.perf_counter() - started
    # Popen must not wait for (or warn about) a pid that is already reaped.
    process.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, process.returncode


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set of a live process, from ``/proc/PID/status``."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class ServerProcess:
    """``auto-validate serve`` on an ephemeral port; always reaped."""

    BOOT_TIMEOUT_S = 60.0

    def __init__(self, index: Path, min_coverage: int, log: Path):
        self._log = log.open("ab")
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--index", str(index), "--port", "0",
                "--min-coverage", str(min_coverage),
                "--fpr-target", str(FPR_TARGET), "--variant", VARIANT,
            ],
            stdout=subprocess.PIPE, stderr=self._log, text=True, env=child_env(),
        )
        try:
            ready, _, _ = select.select(
                [self.process.stdout], [], [], self.BOOT_TIMEOUT_S
            )
            line = self.process.stdout.readline() if ready else ""
            if "serving on http://" not in line:
                raise RuntimeError(f"server failed to boot: {line!r} (see {log})")
            self.url = line.split()[2]
        except BaseException:
            self.stop()
            raise

    @property
    def pid(self) -> int:
        return self.process.pid

    def metrics(self) -> dict[str, Any]:
        from repro.dist.coordinator import HTTPTransport

        status, body = HTTPTransport().get(self.url + "/metrics")
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
        return json.loads(body)

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb(self.pid)

    def stop(self) -> None:
        """terminate -> wait -> kill; never leaves the child behind."""
        try:
            if self.process.poll() is None:
                self.process.terminate()
                try:
                    self.process.wait(timeout=15)
                except subprocess.TimeoutExpired:
                    self.process.kill()
                    self.process.wait(timeout=15)
        finally:
            if self.process.stdout is not None:
                self.process.stdout.close()
            self._log.close()

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
