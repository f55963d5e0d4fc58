"""``serve_cold`` and ``serve_warm``: HTTP request bytes -> response bytes.

Both drive a real ``auto-validate serve`` subprocess through the shipped
``RoundRobinClient`` in a closed loop (a client sends its next request
only when the previous one has answered).

* ``serve_cold`` — 1 client; every request is a column the server has
  never seen, so each pays hypothesis-space enumeration, index lookups
  and the FMDV-VH solve.  Columns arrive in rounds of one per registry
  domain; whole rounds only, so a faster program answers more rounds of
  the same mix, never a different mix.
* ``serve_warm`` — 1 client; requests are drawn Zipf(1.1) over columns
  whose results were cached in set-up, so the work is framing, wire
  decode/encode, ``column_digest``, the cache probe and the client.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro.api.wire import InferRequest, InferResponse, WireError
from repro.core.enumeration import hypothesis_space
from repro.dist.client import AllReplicasFailedError, RoundRobinClient
from repro.dist.coordinator import HTTPTransport
from repro.index.store import open_index
from repro.service import ValidationService
from repro.service.cache import column_digest
from repro.validate.combined import FMDVCombined
from repro.validate.fmdv import FMDV
from repro.validate.result import InferenceResult

from benchmarks.e2e import harness
from benchmarks.e2e.harness import Run, ServerProcess, Tracer
from benchmarks.e2e.inputs import (
    Column,
    Lake,
    column_stream,
    domain_round,
    inference_config,
    rng_for,
    write_lake,
    zipf_weights,
)

#: What the client raises for a request that did not get a decodable 200.
REQUEST_ERRORS = (AllReplicasFailedError, WireError, OSError)


def serving_index(ctx: Run) -> tuple[Lake, Path]:
    """The shared fixture: a lake and its index, built the way a user
    builds one (the CLI, in its own process)."""
    lake = write_lake(ctx.seed, ctx.sizes.lake_tables, ctx.workdir / "lake")
    index = ctx.workdir / "idx"
    _, _, code = harness.run_cli_index(lake.path, index, ctx.workdir / "index.log")
    if code != 0:
        raise RuntimeError(f"serving-index build exited {code} (see index.log)")
    ctx.info["lake"] = lake.summary()
    ctx.info["index_bytes"] = harness.dir_bytes(index)
    return lake, index


def _index_ratio(ctx: Run, lake: Lake) -> float:
    return ctx.info["index_bytes"] / lake.csv_bytes


# -- serve_cold ------------------------------------------------------------------


def _cold_round(
    ctx: Run, client: RoundRobinClient, columns: list[Column]
) -> tuple[list[float], list[InferenceResult | None], float]:
    """Send one round serially: (latencies, results, round wall)."""
    latencies: list[float] = []
    results: list[InferenceResult | None] = []
    round_started = time.perf_counter()
    for label, values in columns:
        started = time.perf_counter()
        try:
            result = client.infer(values)
        except REQUEST_ERRORS as exc:
            ctx.op(False, f"{label}: {exc}")
            results.append(None)
            continue
        latencies.append(time.perf_counter() - started)
        results.append(result)
    return latencies, results, time.perf_counter() - round_started


def run_cold(ctx: Run) -> dict[str, float]:
    lake, index = serving_index(ctx)
    rng = rng_for(ctx.seed, "cold")
    with ServerProcess(index, ctx.sizes.min_coverage, ctx.workdir / "serve.log") as server:
        client = RoundRobinClient([server.url])
        ctx.setup_done()

        latencies: list[float] = []
        rates: list[float] = []
        found = answered = rounds = 0
        started = time.perf_counter()
        while ctx.running(started, rounds, ctx.sizes.min_rounds):
            columns = domain_round(rng, ctx.sizes.query_values, rounds)
            round_latencies, results, wall = _cold_round(ctx, client, columns)
            latencies.extend(round_latencies)
            rates.append(len(round_latencies) / wall)
            for (label, values), result in zip(columns, results):
                if result is not None:
                    ctx.check_rule(label, values, result)
                    found += result.found
                    answered += 1
            rounds += 1
        peak = server.peak_rss_mb()

    ctx.samples.update(
        latency_p50_ms=len(latencies), latency_tail_ms=len(latencies),
        throughput_per_s=rounds, rules_found_share=answered, peak_rss_mb=1,
    )
    ctx.info["rounds"] = rounds
    return {
        "latency_p50_ms": harness.median(latencies) * 1000.0,
        "latency_tail_ms": harness.percentile(latencies, 0.90) * 1000.0,
        "throughput_per_s": harness.median(rates),
        "peak_rss_mb": peak,
        "index_bytes_per_lake_byte": _index_ratio(ctx, lake),
        "rules_found_share": found / answered,
    }


class _TimedSpaces:
    """A ``space_cache`` for the solver that enumerates every space afresh
    inside a span, and remembers the keys the solver will look up."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.patterns = 0
        self.keys: list[str] = []

    def get(self, values, min_coverage, config):
        with self.tracer.span("core.enumeration.hypothesis_space"):
            space = hypothesis_space(values, config, min_coverage)
        self.patterns += len(space)
        self.keys.extend(
            ps.pattern.key() for ps in space if not ps.pattern.is_trivial()
        )
        return space


def _replay_edge(
    tracer: Tracer, exchanges: Iterable[tuple[Sequence[str], InferenceResult]]
) -> None:
    """The wire and digest work of each (request values, answer) exchange."""
    for values, answer in exchanges:
        body = InferRequest(values=tuple(values)).to_json().encode("utf-8")
        with tracer.span("api.wire.infer_request.decode"):
            InferRequest.from_json(body)
        with tracer.span("service.cache.column_digest"):
            column_digest(values)
        with tracer.span("api.wire.infer_response.encode"):
            InferResponse(result=answer).to_json()


EDGE_STAGES = (
    "api.wire.infer_request.decode",
    "api.wire.infer_response.encode",
    "service.cache.column_digest",
)


def _edge_metrics(tracer: Tracer) -> dict[str, float]:
    decode, encode, digest = (tracer.busy(stage) for stage in EDGE_STAGES)
    return {
        "api.wire.infer_request.decode_s": decode,
        "api.wire.infer_response.encode_s": encode,
        "service.cache.column_digest.busy_s": digest,
    }


def _metrics_delta(before: dict, after: dict) -> dict[str, float]:
    return {
        key: float(after[key] - before[key])
        for key in (
            "inferences", "result_cache_hits", "space_cache_hits",
            "space_cache_misses", "requests_total", "errors_total", "sheds_total",
        )
    }


def trace_cold(ctx: Run) -> dict[str, float]:
    tracer = ctx.tracer
    assert tracer is not None
    _, index = serving_index(ctx)
    config = inference_config(ctx.sizes)
    columns = domain_round(rng_for(ctx.seed, "cold"), ctx.sizes.query_values, 0)

    with ServerProcess(index, ctx.sizes.min_coverage, ctx.workdir / "serve.log") as server:
        client = RoundRobinClient([server.url])
        ctx.setup_done()
        before = server.metrics()
        with tracer.span("serve_cold.http_round"):
            _, http_results, _ = _cold_round(ctx, client, columns)
        delta = _metrics_delta(before, server.metrics())

    # The same requests against a fresh in-process service: what the
    # server does between reading the body and writing the response.
    harness.clear_tokenizer_caches()
    answers: list[InferenceResult] = []
    with ValidationService.from_path(index, config, variant=harness.VARIANT) as service:
        for _, values in columns:
            body = InferRequest(values=tuple(values)).to_json().encode("utf-8")
            with tracer.span("serve_cold.request"):
                request = InferRequest.from_json(body)
                with tracer.span("service.infer.cold"):
                    result = service.infer(request.values, request.variant)
                InferResponse(result=result, generation=service.generation).to_json()
            answers.append(result)
    for (label, values), over_http, in_process in zip(columns, http_results, answers):
        if over_http is not None:
            ctx.check_rule(label, values, over_http)
            if over_http.to_payload() != in_process.to_payload():
                ctx.fail(f"{label}: HTTP result differs from ValidationService.infer")

    # The solve alone, with its enumerations spanned from inside.
    harness.clear_tokenizer_caches()
    handle = open_index(index)
    spaces = _TimedSpaces(tracer)
    solver = FMDVCombined(handle, config, space_cache=spaces)
    for _, values in columns:
        with tracer.span("validate.vh.infer"):
            solver.infer(values)
    hits = 0
    with tracer.span("index.store.lookup_key"):
        for key in spaces.keys:
            hits += handle.lookup_key(key) is not None

    harness.clear_tokenizer_caches()
    basic = FMDV(open_index(index), config)
    for _, values in columns:
        with tracer.span("validate.fmdv.infer"):
            basic.infer(values)
    _replay_edge(tracer, ((values, answer) for (_, values), answer in zip(columns, answers)))

    busy = tracer.busy
    space_lookups = delta["space_cache_hits"] + delta["space_cache_misses"]
    return {
        **_edge_metrics(tracer),
        "core.enumeration.hypothesis_space.busy_s": busy("core.enumeration.hypothesis_space"),
        "core.enumeration.hypothesis_space.patterns": float(spaces.patterns),
        "index.store.lookup_key.busy_s": busy("index.store.lookup_key"),
        "index.store.lookup_key.lookups": float(len(spaces.keys)),
        "index.store.lookup_key.hit_ratio": hits / len(spaces.keys) if spaces.keys else 0.0,
        "validate.vh.infer.busy_s": busy("validate.vh.infer"),
        # The lookups happen inside the solve; the replay above prices them.
        "validate.vh.infer.self_s": (
            busy("validate.vh.infer") - busy("core.enumeration.hypothesis_space")
            - busy("index.store.lookup_key")
        ),
        "validate.fmdv.infer.busy_s": busy("validate.fmdv.infer"),
        "service.infer.cold.busy_s": busy("service.infer.cold"),
        "server.edge.cold_overhead_s": busy("serve_cold.http_round") - busy("serve_cold.request"),
        "service.space_cache.hit_ratio": (
            delta["space_cache_hits"] / space_lookups if space_lookups else 0.0
        ),
        "server.requests_total": delta["requests_total"],
        "server.errors_total": delta["errors_total"],
        "server.sheds_total": delta["sheds_total"],
        "serve_cold.stage_sum_over_wall": (
            sum(busy(stage) for stage in EDGE_STAGES) + busy("validate.vh.infer")
        ) / busy("serve_cold.request"),
    }


# -- serve_warm ------------------------------------------------------------------


def _warm_set_up(
    ctx: Run, server: ServerProcess
) -> tuple[list[Column], list[InferenceResult]]:
    """Fill the server's result cache: one cold inference per warm column."""
    stream = column_stream(rng_for(ctx.seed, "warm"), ctx.sizes.query_values)
    columns = [next(stream) for _ in range(ctx.sizes.warm_columns)]
    client = RoundRobinClient([server.url])
    expected = [client.infer(values) for _, values in columns]
    return columns, expected


def _warm_block(
    ctx: Run,
    client: RoundRobinClient,
    columns: list[Column],
    expected: list[InferenceResult],
    plan: list[int],
) -> tuple[list[float], float]:
    """One block of the closed loop: (latencies of answered requests, wall)."""
    latencies: list[float] = []
    answers: list[tuple[int, InferenceResult]] = []
    block_started = time.perf_counter()
    for position in plan:
        started = time.perf_counter()
        try:
            result = client.infer(columns[position][1])
        except REQUEST_ERRORS as exc:
            ctx.op(False, f"{columns[position][0]}: {exc}")
            continue
        latencies.append(time.perf_counter() - started)
        answers.append((position, result))
    wall = time.perf_counter() - block_started
    for position, result in answers:
        ctx.op(
            result.to_payload() == expected[position].to_payload(),
            f"{columns[position][0]}: warm answer differs from the cached one",
        )
    return latencies, wall


def _warm_plans(ctx: Run, n_columns: int) -> Iterator[list[int]]:
    """Seeded Zipf(1.1) draws over the warm columns, one block at a time.
    Rank follows registry order, so the popular columns are the same
    domains on every seed."""
    rng = rng_for(ctx.seed, "warm-plan")
    weights = zipf_weights(n_columns)
    while True:
        yield rng.choices(range(n_columns), weights=weights, k=ctx.sizes.warm_block_requests)


def run_warm(ctx: Run) -> dict[str, float]:
    lake, index = serving_index(ctx)
    with ServerProcess(index, ctx.sizes.min_coverage, ctx.workdir / "serve.log") as server:
        columns, expected = _warm_set_up(ctx, server)
        for (label, values), result in zip(columns, expected):
            ctx.check_rule(label, values, result)
        client = RoundRobinClient([server.url])
        plans = _warm_plans(ctx, len(columns))
        ctx.setup_done()

        p50s: list[float] = []
        p99s: list[float] = []
        rates: list[float] = []
        started = time.perf_counter()
        while ctx.running(started, len(rates), ctx.sizes.min_blocks):
            latencies, wall = _warm_block(ctx, client, columns, expected, next(plans))
            p50s.append(harness.median(latencies))
            p99s.append(harness.percentile(latencies, 0.99))
            rates.append(len(latencies) / wall)
        peak = server.peak_rss_mb()

    blocks = len(rates)
    ctx.samples.update(
        latency_p50_ms=blocks, latency_tail_ms=blocks, throughput_per_s=blocks,
        rules_found_share=len(columns), peak_rss_mb=1,
    )
    ctx.info["blocks"] = blocks
    ctx.info["requests_per_block"] = ctx.sizes.warm_block_requests
    return {
        "latency_p50_ms": harness.median(p50s) * 1000.0,
        "latency_tail_ms": harness.median(p99s) * 1000.0,
        "throughput_per_s": harness.median(rates),
        "peak_rss_mb": peak,
        "index_bytes_per_lake_byte": _index_ratio(ctx, lake),
        "rules_found_share": sum(r.found for r in expected) / len(expected),
    }


class _CannedTransport:
    """Answers every POST with one prepared body: what is left of
    ``RoundRobinClient.infer`` is its own encode/decode."""

    def __init__(self, body: bytes):
        self.body = body

    def post(self, url: str, body: bytes) -> tuple[int, bytes]:
        return 200, self.body


def trace_warm(ctx: Run) -> dict[str, float]:
    tracer = ctx.tracer
    assert tracer is not None
    _, index = serving_index(ctx)
    with ServerProcess(index, ctx.sizes.min_coverage, ctx.workdir / "serve.log") as server:
        columns, expected = _warm_set_up(ctx, server)
        client = RoundRobinClient([server.url])
        plan = next(_warm_plans(ctx, len(columns)))
        ctx.setup_done()
        before = server.metrics()
        with tracer.span("serve_warm.http_block"):
            http_latencies, _ = _warm_block(ctx, client, columns, expected, plan)
        delta = _metrics_delta(before, server.metrics())

        transport = HTTPTransport()
        for _ in range(ctx.sizes.healthz_requests):
            with tracer.span("server.base.healthz"):
                status, _ = transport.get(server.url + "/healthz")
            ctx.op(status == 200, f"/healthz answered {status}")
        probes = tracer.durations("server.base.healthz")

    # The same request sequence against an in-process service whose result
    # cache holds the same columns.
    sequence = [columns[position][1] for position in plan]
    _replay_edge(tracer, ((columns[position][1], expected[position]) for position in plan))
    with ValidationService.from_path(index, inference_config(ctx.sizes), variant=harness.VARIANT) as service:
        for _, values in columns:
            service.infer(values)
        for values in sequence:
            with tracer.span("service.infer.warm"):
                service.infer(values)

    canned = InferResponse(result=expected[0]).to_json().encode("utf-8")
    offline = RoundRobinClient(["http://canned"], transport=_CannedTransport(canned))
    for values in sequence:
        with tracer.span("dist.client.infer"):
            offline.infer(values)

    in_process = tracer.durations("service.infer.warm")
    return {
        **_edge_metrics(tracer),
        "service.infer.warm.busy_s": sum(in_process),
        "service.result_cache.hit_ratio": (
            delta["result_cache_hits"] / delta["inferences"] if delta["inferences"] else 0.0
        ),
        "server.edge.warm_overhead_ms": (
            harness.median(http_latencies) - harness.median(in_process)
        ) * 1000.0,
        "server.base.healthz.p50_ms": harness.median(probes) * 1000.0,
        "dist.client.infer.self_ms": harness.median(tracer.durations("dist.client.infer")) * 1000.0,
        "server.requests_total": delta["requests_total"],
        "server.errors_total": delta["errors_total"],
        "server.sheds_total": delta["sheds_total"],
    }
