"""``build_lake``: lake directory -> published index, the offline wall.

The timed operation is the real ``auto-validate index`` subprocess
(interpreter start included — the user pays it).  The traced run replays
the same build in-process stage by stage to attribute the wall.
"""

from __future__ import annotations

import shutil
import time
from pathlib import Path

from repro.core.enumeration import (
    EnumerationConfig,
    GroupResultCache,
    enumerate_column_patterns,
)
from repro.core.tokenizer import tokenize
from repro.datalake import load_corpus
from repro.index.builder import (
    SpillingIndexBuilder,
    build_index,
    build_index_streaming,
    merge_runs_to_index,
)
from repro.index.index import IndexMeta
from repro.index.store import open_index, save_index, store_digest
from repro.service import ValidationService

from benchmarks.e2e import harness
from benchmarks.e2e.harness import Run
from benchmarks.e2e.inputs import Lake, domain_round, inference_config, rng_for, write_lake


def _set_up(ctx: Run) -> Lake:
    lake = write_lake(ctx.seed, ctx.sizes.lake_tables, ctx.workdir / "lake")
    # One throw-away build of a tiny lake, so no timed build is the first
    # to compile bytecode or fault the interpreter and numpy in from disk.
    warmup = write_lake(ctx.seed, ctx.sizes.warmup_tables, ctx.workdir / "warmup-lake")
    _, _, code = harness.run_cli_index(
        warmup.path, ctx.workdir / "warmup-idx", ctx.workdir / "index.log"
    )
    if code != 0:
        raise RuntimeError(f"warm-up build exited {code} (see index.log)")
    ctx.info["lake"] = lake.summary()
    return lake


def probe_found_share(ctx: Run, index_dir: Path) -> float:
    """Share of one round of query columns the published index yields a
    rule for — the check that a faster build did not publish less."""
    config = inference_config(ctx.sizes)
    columns = domain_round(rng_for(ctx.seed, "probe"), ctx.sizes.query_values, 0)
    found = 0
    with ValidationService.from_path(index_dir, config, variant=harness.VARIANT) as service:
        for label, values in columns:
            result = service.infer(values)
            ctx.check_rule(label, values, result)
            found += result.found
    ctx.samples["rules_found_share"] = len(columns)
    return found / len(columns)


def run(ctx: Run) -> dict[str, float]:
    lake = _set_up(ctx)
    log = ctx.workdir / "index.log"
    ctx.setup_done()

    walls: list[float] = []
    peaks: list[float] = []
    digests: list[str] = []
    out = ctx.workdir / "idx-0"
    started = time.perf_counter()
    while ctx.running(started, len(walls), ctx.sizes.min_builds):
        previous, out = out, ctx.workdir / f"idx-{len(walls)}"
        wall, peak, code = harness.run_cli_index(lake.path, out, log)
        if code != 0:
            ctx.op(False, f"build {len(walls)} exited {code} (see index.log)")
            raise RuntimeError(ctx.errors[-1])
        digests.append(store_digest(out))
        ctx.op(digests[-1] == digests[0], f"build {len(walls)} digest differs from build 0")
        walls.append(wall)
        peaks.append(peak)
        if previous != out:
            shutil.rmtree(previous)

    index_bytes = harness.dir_bytes(out)
    found_share = probe_found_share(ctx, out)
    n = len(walls)
    for name in ("latency_p50_ms", "latency_tail_ms", "throughput_per_s", "peak_rss_mb"):
        ctx.samples[name] = n
    ctx.info["builds"] = n
    return {
        "latency_p50_ms": harness.median(walls) * 1000.0,
        # Too few builds fit a run for any percentile: the slowest one.
        "latency_tail_ms": max(walls) * 1000.0,
        "throughput_per_s": lake.n_values / harness.median(walls),
        "peak_rss_mb": harness.median(peaks),
        "index_bytes_per_lake_byte": index_bytes / lake.csv_bytes,
        "rules_found_share": found_share,
    }


def trace(ctx: Run) -> dict[str, float]:
    tracer = ctx.tracer
    assert tracer is not None
    lake = _set_up(ctx)
    ctx.setup_done()
    layout = {"format": harness.INDEX_FORMAT, "n_shards": harness.INDEX_SHARDS}

    with tracer.span("cli.index"):
        _, _, code = harness.run_cli_index(
            lake.path, ctx.workdir / "idx-cli", ctx.workdir / "index.log"
        )
    ctx.op(code == 0, f"build exited {code} (see index.log)")
    cli_digest = store_digest(ctx.workdir / "idx-cli")

    def whole_build(span: str, out: str, source: Path = lake.path):
        """What the subprocess does once its interpreter is up, as one piece."""
        harness.clear_tokenizer_caches()
        with tracer.span(span):
            with tracer.span(f"{span}/load_corpus"):
                corpus = load_corpus(source)
            build_index_streaming(
                corpus.column_values(), ctx.workdir / out, corpus_name=corpus.name,
                workers=1, spill_mb=harness.SPILL_MB, **layout,
            )
        return corpus

    # A build of the tiny lake first takes the one-off costs (lazy imports,
    # first use of numpy paths); they belong to start-up, not to a stage.
    # Then two whole builds bracket the staged one, so that drift of the
    # machine over the run falls on both sides of every ratio.
    whole_build("inprocess.warmup", "idx-warm", ctx.workdir / "warmup-lake")
    corpus = whole_build("inprocess.index", "idx-before")
    columns = [list(values) for values in corpus.column_values()]

    # The same build, stage by stage.
    harness.clear_tokenizer_caches()
    run_dir = ctx.workdir / "runs"
    run_dir.mkdir()
    builder = SpillingIndexBuilder(
        corpus_name=corpus.name, run_dir=run_dir,
        spill_bytes=harness.SPILL_MB << 20,
    )
    with tracer.span("index.builder.scan_spill"):
        builder.add_columns(columns)
        runs = builder.finish()
    run_bytes = sum(path.stat().st_size for path in runs)
    meta = IndexMeta(
        columns_scanned=builder.columns_scanned,
        values_scanned=builder.values_scanned,
        tau=builder.config.tau,
        min_coverage=builder.config.min_coverage,
        corpus_name=corpus.name,
        fingerprint=builder.config.fingerprint(),
    )
    with tracer.span("index.builder.merge_runs_to_index"):
        entries, _ = merge_runs_to_index(
            runs, meta, ctx.workdir / "idx-stages", spill_mb=harness.SPILL_MB, **layout
        )
    with tracer.span("index.store.open_index"):
        open_index(ctx.workdir / "idx-stages")
    whole_build("inprocess.index", "idx-after")
    ctx.op(
        store_digest(ctx.workdir / "idx-stages") == cli_digest,
        "staged build differs from the CLI build",
    )

    # Enumeration alone, as the scan calls it (one shared sketch cache).
    harness.clear_tokenizer_caches()
    group_cache = GroupResultCache()
    config = EnumerationConfig()
    patterns = 0
    with tracer.span("core.enumeration.enumerate_column_patterns"):
        for values in columns:
            patterns += len(
                enumerate_column_patterns(values, config, group_cache=group_cache)
            )
    distinct = sorted({value for values in columns for value in values})
    tokenize.cache_clear()
    with tracer.span("core.tokenizer.tokenize"):
        for value in distinct:
            tokenize(value)

    # The serial in-memory path: the byte-identity reference.
    harness.clear_tokenizer_caches()
    with tracer.span("index.builder.build_index"):
        index = build_index(columns, corpus_name=corpus.name)
    with tracer.span("index.store.save_index"):
        save_index(index, ctx.workdir / "idx-serial", **layout)
    ctx.op(
        store_digest(ctx.workdir / "idx-serial") == cli_digest,
        "save_index(build_index(...)) differs from the CLI build",
    )

    busy = tracer.busy
    whole = busy("inprocess.index") / 2
    load = busy("inprocess.index/load_corpus") / 2
    scan = busy("index.builder.scan_spill")
    enumeration = busy("core.enumeration.enumerate_column_patterns")
    sketch_lookups = builder.sketch_hits + builder.sketch_misses
    return {
        "datalake.io.load_corpus.busy_s": load,
        "datalake.io.load_corpus.values": float(lake.n_values),
        "core.tokenizer.tokenize.busy_s": busy("core.tokenizer.tokenize"),
        "core.enumeration.enumerate_column_patterns.busy_s": enumeration,
        "core.enumeration.enumerate_column_patterns.patterns": float(patterns),
        "core.enumeration.enumerate_column_patterns.values_per_s": lake.n_values / enumeration,
        "index.builder.scan_spill.busy_s": scan,
        "index.builder.scan_spill.self_s": scan - enumeration,
        "index.builder.scan_spill.runs": float(len(runs)),
        "index.builder.scan_spill.run_bytes": float(run_bytes),
        "index.builder.scan_spill.sketch_hit_ratio": (
            builder.sketch_hits / sketch_lookups if sketch_lookups else 0.0
        ),
        "index.builder.merge_runs_to_index.busy_s": busy("index.builder.merge_runs_to_index"),
        "index.builder.merge_runs_to_index.entries": float(entries),
        "index.builder.build_index.busy_s": busy("index.builder.build_index"),
        "index.store.save_index.busy_s": busy("index.store.save_index"),
        "index.store.open_index.busy_s": busy("index.store.open_index"),
        "index.store.index_bytes": float(harness.dir_bytes(ctx.workdir / "idx-cli")),
        "cli.index.startup_s": busy("cli.index") - whole,
        "index.builder.stage_sum_over_wall": (
            load + scan + busy("index.builder.merge_runs_to_index")
        ) / whole,
    }
