"""Figure 14 — per-query-column inference latency.

Paper reference: all FMDV variants answer in tens of milliseconds (82 ms
for the most expensive FMDV-VH) thanks to the offline index, while the
pattern profilers (PWheel, FlashProfile, XSystem) take 6-7 *seconds* per
column, and "FMDV (no-index)", which re-scans the corpus per query, is many
orders of magnitude slower still.

Substitution note (DESIGN.md): our reimplemented profilers are simplified
and therefore much faster than the authors' original binaries, so the
profiler-vs-FMDV gap is not reproducible in absolute terms.  The
architectural claim the figure makes — indexed inference is orders of
magnitude faster than scanning the corpus at query time — is reproduced
via the FMDV vs. FMDV (no-index) comparison, which shares every line of
code except the index.

Beyond the paper, the bench also measures the service layer's batch path
(:class:`repro.service.ValidationService`): a warm service answers
repeated columns from its caches without re-running Algorithm 1, which is
the amortized regime a multi-tenant deployment actually operates in.
"""

from __future__ import annotations

import gc
import random
import time

from benchmarks.conftest import BENCH_CONFIG, record_report
from repro.baselines import FlashProfile, PottersWheel, XSystem
from repro.eval.reporting import render_table
from repro.index import build_index, open_index, save_index
from repro.service import ValidationService
from repro.validate.combined import FMDVCombined
from repro.validate.fmdv import FMDV, NoIndexFMDV
from repro.validate.horizontal import FMDVHorizontal
from repro.validate.vertical import FMDVVertical


def _time_per_column(fn, columns) -> float:
    start = time.perf_counter()
    for values in columns:
        fn(values)
    return (time.perf_counter() - start) / len(columns) * 1000.0  # ms


def _http_warm_batch_ms(service, columns, repeats: int) -> float:
    """Time one warm /v1/infer_batch POST against an in-process HTTP server.

    The server runs on its own event-loop thread over the *same* (already
    warm) service, so the difference to the in-process warm row is exactly
    the wire layer's overhead: envelope encode/decode, TCP, event loop.
    """
    import asyncio
    import threading
    import urllib.request

    from repro.api.wire import BatchEnvelope, InferRequest
    from repro.server import ValidationHTTPServer

    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()

    async def _start():
        server = ValidationHTTPServer(service, port=0)
        await server.start()
        return server

    server = asyncio.run_coroutine_threadsafe(_start(), loop).result(timeout=60)
    try:
        body = BatchEnvelope(
            items=tuple(InferRequest(values=tuple(c)) for c in columns * repeats)
        ).to_json().encode("utf-8")
        url = f"http://127.0.0.1:{server.port}/v1/infer_batch"

        def post() -> None:
            request = urllib.request.Request(
                url, data=body,
                headers={"Content-Type": "application/json"}, method="POST",
            )
            with urllib.request.urlopen(request, timeout=120) as response:
                assert response.status == 200
                response.read()

        post()  # connection/codepath warmup, not timed
        start = time.perf_counter()
        post()
        elapsed = time.perf_counter() - start
        return elapsed / (repeats * len(columns)) * 1000.0
    finally:
        asyncio.run_coroutine_threadsafe(server.aclose(), loop).result(timeout=60)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=60)


def test_figure14_latency(benchmark, enterprise_benchmark, enterprise_index, enterprise_corpus):
    rng = random.Random(5)
    cases = rng.sample(list(enterprise_benchmark.cases), min(25, len(enterprise_benchmark.cases)))
    columns = [list(c.train) for c in cases]

    solvers = {
        "FMDV": FMDV(enterprise_index, BENCH_CONFIG),
        "FMDV-V": FMDVVertical(enterprise_index, BENCH_CONFIG),
        "FMDV-H": FMDVHorizontal(enterprise_index, BENCH_CONFIG),
        "FMDV-VH": FMDVCombined(enterprise_index, BENCH_CONFIG),
    }
    profilers = {
        "PWheel": PottersWheel(),
        "XSystem": XSystem(),
        "FlashProfile": FlashProfile(),
    }

    rows = []
    latencies = {}
    for name, solver in solvers.items():
        ms = _time_per_column(solver.infer, columns)
        latencies[name] = ms
        rows.append({"method": name, "ms/column": f"{ms:.1f}", "note": "indexed"})
    for name, profiler in profilers.items():
        ms = _time_per_column(profiler.fit, columns)
        latencies[name] = ms
        rows.append({"method": name, "ms/column": f"{ms:.1f}",
                     "note": "simplified reimplementation (see docstring)"})

    # ValidationService: the cached batch path.  Production feeds re-submit
    # the same columns continuously; a warm service answers repeats from the
    # result cache (dict lookup) instead of re-running Algorithm 1.
    service = ValidationService(enterprise_index, BENCH_CONFIG, variant="fmdv")
    gc.collect()  # deferred collections would be charged to the next section
    start = time.perf_counter()
    service.infer_many(columns)
    ms_cold = (time.perf_counter() - start) / len(columns) * 1000.0
    repeats = 4
    start = time.perf_counter()
    service.infer_many(columns * repeats)
    ms_warm = (time.perf_counter() - start) / (repeats * len(columns)) * 1000.0
    latencies["Service (cold batch)"] = ms_cold
    latencies["Service (warm batch)"] = ms_warm
    rows.append({"method": "Service (cold batch)", "ms/column": f"{ms_cold:.1f}",
                 "note": "ValidationService.infer_many, empty caches"})
    rows.append({"method": "Service (warm batch)", "ms/column": f"{ms_warm:.3f}",
                 "note": f"repeated columns x{repeats}, served from cache"})

    # HTTP serving overhead: the same warm workload pushed through the
    # stdlib asyncio server as one /v1/infer_batch request, so the bench
    # trajectory tracks what the wire layer (JSON envelopes + TCP + event
    # loop) costs on top of in-process infer_many.
    ms_http_warm = _http_warm_batch_ms(service, columns, repeats)
    latencies["HTTP /v1/infer_batch (warm)"] = ms_http_warm
    rows.append({"method": "HTTP /v1/infer_batch (warm)",
                 "ms/column": f"{ms_http_warm:.3f}",
                 "note": "stdlib asyncio server, same warm batch over the wire"})

    # FMDV (no-index): re-scans a corpus sample per query.  Even against a
    # small 300-column sample this is orders of magnitude slower, so only
    # 2 query columns are measured.
    corpus_sample = [c.values[:80] for c in list(enterprise_corpus.columns())[:300]]
    no_index = NoIndexFMDV(corpus_sample, BENCH_CONFIG)
    ms_noindex = _time_per_column(no_index.infer, columns[:2])
    latencies["FMDV (no-index)"] = ms_noindex
    rows.append(
        {"method": "FMDV (no-index)", "ms/column": f"{ms_noindex:.0f}",
         "note": "re-scans 300-column corpus sample per query"}
    )
    record_report("Figure 14: per-query-column latency", render_table(rows))

    # The timed kernel for pytest-benchmark: one indexed FMDV-VH inference.
    benchmark(lambda: solvers["FMDV-VH"].infer(columns[0]))

    # The architectural claim: the index accelerates by >= two orders of
    # magnitude over per-query corpus scanning.
    assert latencies["FMDV (no-index)"] / max(latencies["FMDV"], 1e-6) >= 100
    # Interactive inference: every indexed variant averages under 1 s.
    for name in solvers:
        assert latencies[name] < 1000.0
    # The service claim: on repeated columns the cached batch path is
    # measurably faster than per-call FMDV.infer.
    assert latencies["Service (warm batch)"] * 2 <= latencies["FMDV"]
    # The serving claim: the HTTP layer adds bounded overhead — a warm
    # wire batch still answers well inside interactive latency per column.
    assert latencies["HTTP /v1/infer_batch (warm)"] < 100.0


def _cold_start_probe(index_path, probe_key: str) -> dict:
    """Measure one cold start in a *fresh* interpreter: open the index,
    run one lookup, report peak RSS and per-phase latency.

    A subprocess is the only honest cold start — in-process measurements
    inherit the parent's page cache of Python allocations and previously
    imported modules.  RSS is the *delta* of ``VmRSS`` across
    open + first lookup (current resident set from ``/proc/self/status``;
    ``ru_maxrss`` is useless here — Linux carries the high-water mark
    across fork/exec, so a child forked from a fat parent reports the
    parent's peak).  The interpreter + import baseline cancels out of the
    delta, isolating what the index layout itself keeps resident.
    """
    import json as json_module
    import subprocess
    import sys
    from pathlib import Path

    import repro

    code = (
        "import json, time\n"
        "def vm_rss_kb():\n"
        "    try:\n"
        "        with open('/proc/self/status') as fh:\n"
        "            for line in fh:\n"
        "                if line.startswith('VmRSS:'):\n"
        "                    return int(line.split()[1])\n"
        "    except OSError:\n"
        "        pass\n"
        "    import resource  # non-Linux fallback: peak, not current\n"
        "    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "from repro.index.store import open_index\n"
        f"path, key = {str(index_path)!r}, {probe_key!r}\n"
        "rss_before = vm_rss_kb()\n"
        "start = time.perf_counter()\n"
        "index = open_index(path)\n"
        "opened = time.perf_counter()\n"
        "entry = index.lookup_key(key)\n"
        "looked_up = time.perf_counter()\n"
        "assert entry is not None, 'probe key missing from index'\n"
        "print(json.dumps({\n"
        "    'open_ms': (opened - start) * 1000.0,\n"
        "    'first_lookup_ms': (looked_up - opened) * 1000.0,\n"
        "    'rss_kb': vm_rss_kb() - rss_before,\n"
        "}))\n"
    )
    package_root = str(Path(repro.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=120,
        env={
            "PYTHONPATH": package_root,
            "PATH": "/usr/bin:/bin:" + sys.exec_prefix + "/bin",
        },
    )
    assert result.returncode == 0, f"cold-start probe failed: {result.stderr}"
    return json_module.loads(result.stdout)


def test_figure14_cold_start_v2_vs_v3(enterprise_corpus, tmp_path):
    """The v3 claim: an mmap binary index cold-starts with lower RSS and a
    faster first lookup than the gzip-JSON v2 layout on the same content.

    The corpus index is padded to lake scale (~120k patterns) so the
    layout cost dominates the interpreter baseline: a v2 first lookup
    gunzips and dict-materializes a whole shard, a v3 first lookup maps
    the shard (no data pages read) and binary-searches ~17 key probes.
    """
    import random as random_module

    from repro.index import IndexEntry, PatternIndex

    sample = [c.values[:60] for c in list(enterprise_corpus.columns())[:240]]
    real = build_index(sample)
    probe_key = min(real.keys())
    rng = random_module.Random(14)
    entries = dict(real.items())
    while len(entries) < 120_000:
        key = "|".join(
            f"D{rng.randint(1, 9)}" for _ in range(rng.randint(2, 10))
        ) + f"|C:pad{rng.randint(0, 10**9)}"
        entries[key] = IndexEntry(fpr_sum=rng.random(), coverage=rng.randint(1, 500))
    big = PatternIndex(entries, real.meta)

    save_index(big, tmp_path / "idx.v2", format="v2", n_shards=4)
    save_index(big, tmp_path / "idx.v3", format="v3", n_shards=4)
    v2 = _cold_start_probe(tmp_path / "idx.v2", probe_key)
    v3 = _cold_start_probe(tmp_path / "idx.v3", probe_key)

    rows = [
        {
            "layout": name,
            "open ms": f"{probe['open_ms']:.1f}",
            "first lookup ms": f"{probe['first_lookup_ms']:.2f}",
            "cold-start RSS MB": f"{probe['rss_kb'] / 1024:.1f}",
        }
        for name, probe in (("v2 gzip-JSON shards", v2), ("v3 mmap binary", v3))
    ]
    record_report(
        f"Figure 14 extension: cold start over {len(big)} patterns "
        "(fresh interpreter per row)",
        render_table(rows),
    )

    # The acceptance criteria: strictly less resident memory AND a faster
    # first lookup on identical content.
    assert v3["rss_kb"] < v2["rss_kb"], (v3, v2)
    assert v3["first_lookup_ms"] < v2["first_lookup_ms"], (v3, v2)


def test_figure14_v2_index_fidelity(enterprise_corpus, tmp_path):
    """Index format v2 end to end: partial indexes merged, sharded to disk
    and reloaded must carry bit-identical FPR_T/Cov_T statistics."""
    sample = [c.values[:60] for c in list(enterprise_corpus.columns())[:240]]
    whole = build_index(sample)
    merged = build_index(sample[0::2]).merge(build_index(sample[1::2]))

    out = tmp_path / "index.v2"
    save_index(merged, out, format="v2", n_shards=8)
    reloaded = open_index(out)

    # save -> shard -> reload is bit-identical to the in-memory build
    assert dict(reloaded.items()) == dict(merged.items())
    assert reloaded.meta == merged.meta
    # and the merged aggregates agree with the monolithic scan
    assert set(merged.keys()) == set(whole.keys())
    for key, entry in whole.items():
        other = merged.lookup_key(key)
        assert other.coverage == entry.coverage
        assert abs(other.fpr_sum - entry.fpr_sum) < 1e-9
