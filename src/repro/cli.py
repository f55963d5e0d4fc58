"""Command-line interface: index a lake, infer rules, validate feeds.

Installed as the ``auto-validate`` console script::

    auto-validate generate --profile enterprise --tables 100 --out lake/
    auto-validate index    --corpus lake/ --out lake.idx
    auto-validate index    --corpus lake/ --out lake.v3 --format v3 --shards 16
    auto-validate index    --corpus lake/ --out lake.v3 --format v3 \
                           --workers 8 --spill-mb 64
    auto-validate merge    --a part-a.v3 --b part-b.v3 --out whole.v3
    auto-validate merge    part-a.v3 part-b.v3 part-c.v3 --out whole.v3
    auto-validate infer    --index lake.idx --column feed.txt --rule rule.json
    auto-validate infer    --index lake.idx --column a.txt b.txt c.txt
    auto-validate validate --rule rule.json --column tomorrow.txt
    auto-validate tag      --index lake.idx --examples ex.txt --corpus lake/
    auto-validate watch    --state-dir watch/ --index lake.idx \
                           --tenant acme --feed orders --register train.json
    auto-validate watch    --state-dir watch/ --tenant acme --feed orders \
                           --once refresh.json
    auto-validate watch    --state-dir watch/ --serve --port 8082
    auto-validate watch    --state-dir watch/ --report md --out report.md

Column files are plain text, one value per line.  Rules round-trip as JSON
(:meth:`repro.validate.rule.ValidationRule.to_dict`).  Index layouts go
through the pluggable :class:`repro.index.store.IndexStore` registry:
``index`` writes the sharded v2 layout or, with ``--format v3``, the
mmap-able binary layout, and ``--index`` auto-detects either (and the
legacy read-only v1 file) on read.  ``merge`` combines N same-format
indexes shard by shard with a k-way heap merge in bounded memory (the
distributed-build reduce step).  ``index`` always builds with the
streaming pipeline: the scan (in-process, or ``--workers N`` processes)
spills sorted partial runs past the ``--spill-mb`` watermark and the
runs merge straight into the final shards, byte-identical to the
in-memory reference build without ever holding the full pattern dict.
Inference runs through
:class:`repro.service.ValidationService`, one column after another, so
repeated columns inside one ``infer`` batch are answered from cache.

Serving:

* ``serve --index lake.idx --port 8080`` boots the stdlib HTTP server
  (:mod:`repro.server`) over one :class:`ValidationService`:
  ``POST /v1/infer`` / ``/v1/validate`` / ``/v1/infer_batch`` speak the
  versioned wire envelopes of :mod:`repro.api` (schema:
  ``src/repro/api/WIRE.md``), ``GET /healthz`` / ``/metrics`` expose
  readiness and the full service stats, and ``--rate``/``--burst`` enforce
  per-tenant token-bucket limits keyed on the ``X-Tenant`` header.
* one ``serve`` process is one core's worth of inference.  To go wider,
  run N of them on the same index (``--prefetch`` gates ``/healthz``
  until a v3 index is warm) and spread traffic with
  :class:`repro.dist.RoundRobinClient`.
* long-lived services watch the ``--index`` path: rebuilding the index in
  place bumps the cache generation automatically — no restart needed.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

from repro.api.registry import SOLVER_CLASSES
from repro.config import AutoValidateConfig
from repro.datalake.generator import (
    ENTERPRISE_PROFILE,
    GOVERNMENT_PROFILE,
    generate_corpus,
)
from repro.datalake.io import load_corpus, save_corpus
from repro.index.builder import DEFAULT_SPILL_MB, build_index_streaming
from repro.index.index import MAX_SHARDS
from repro.index.store import (
    FORMAT_ENV,
    default_format,
    detect_format,
    merge_many,
    open_index,
)
from repro.service import ValidationService
from repro.server import (
    TenantRateLimiter,
    ValidationHTTPServer,
    serve_with_graceful_shutdown,
)
from repro.validate.autotag import AutoTagger
from repro.validate.rule import ValidationRule

#: Accepted --variant spellings: every FMDV-family registry name and alias.
_VARIANTS = tuple(sorted(SOLVER_CLASSES))
_PROFILES = {"enterprise": ENTERPRISE_PROFILE, "government": GOVERNMENT_PROFILE}
#: The formats a build can write (the legacy v1 file is read-only).
_BUILD_FORMATS = ("v2", "v3")


def _missing_input(args: argparse.Namespace) -> str | None:
    """The "... not found" line for the first path the command reads (its
    parser's ``reads``: argument -> what it names) that is not there."""
    for dest, what in getattr(args, "reads", {}).items():
        value = getattr(args, dest)
        for path in value if isinstance(value, list) else [value]:
            if path is not None and not Path(path).exists():
                return f"{what} not found: {path}"
    return None


def _read_column(path: str) -> list[str]:
    text = Path(path).read_text(encoding="utf-8")
    return [line for line in text.splitlines() if line != ""]


def _config(args: argparse.Namespace) -> AutoValidateConfig:
    return AutoValidateConfig(
        fpr_target=args.fpr_target,
        min_column_coverage=args.min_coverage,
        theta=args.theta,
        tau=args.tau,
    )


def _cmd_generate(args: argparse.Namespace) -> int:
    profile = replace(_PROFILES[args.profile], n_tables=args.tables)
    corpus = generate_corpus(profile, seed=args.seed)
    save_corpus(corpus, args.out)
    print(f"wrote {corpus.n_columns} columns in {len(corpus)} tables to {args.out}")
    return 0


def _index_layout(args: argparse.Namespace) -> tuple[str, int] | None:
    """Resolve (format, n_shards) from --format/--shards, or None on bad
    arguments."""
    if not 1 <= args.shards <= MAX_SHARDS:
        print(f"--shards must be in [1, {MAX_SHARDS}]", file=sys.stderr)
        return None
    format = args.format or default_format()
    if format not in _BUILD_FORMATS:
        print(f"{FORMAT_ENV}={format}: builds write v2 or v3 only (v1 is "
              "read-only legacy); pass --format", file=sys.stderr)
        return None
    return format, args.shards


def _cmd_index(args: argparse.Namespace) -> int:
    layout = _index_layout(args)
    if layout is None:
        return 2
    format, n_shards = layout
    if args.workers < 0:
        print("--workers must be >= 0 (0 and 1 scan in-process)", file=sys.stderr)
        return 2
    if args.spill_mb <= 0:
        print("--spill-mb must be positive", file=sys.stderr)
        return 2
    corpus = load_corpus(args.corpus)
    stats = build_index_streaming(
        corpus.column_values(),
        args.out,
        corpus_name=corpus.name,
        workers=max(1, args.workers),
        spill_mb=args.spill_mb,
        format=format,
        n_shards=n_shards,
    )
    print(
        f"indexed {stats.columns_scanned} columns -> "
        f"{stats.total_entries} patterns at {args.out} "
        f"[{n_shards} shards (format {format}), streamed: "
        f"workers={args.workers} n_runs={stats.n_runs} "
        f"peak_builder_bytes={stats.peak_builder_bytes} "
        f"spill_bytes={stats.spill_bytes}]"
    )
    return 0


def _cmd_merge(args: argparse.Namespace) -> int:
    paths = [p for p in (args.a, args.b) if p] + list(args.inputs)
    if len(paths) < 2:
        print("merge needs at least two input indexes (--a/--b and/or "
              "positional paths)", file=sys.stderr)
        return 2
    try:
        formats = [detect_format(p) for p in paths]
        first = formats[0]
        for path, format in zip(paths, formats):
            if format != first:
                print(f"cannot merge mixed formats: {paths[0]} is {first}, "
                      f"{path} is {format}", file=sys.stderr)
                return 2
        stats = merge_many(paths, args.out)
    except (OSError, ValueError) as exc:
        # A path that is not an index; OSError covers e.g. a truncated
        # gzip member discovered mid-read.
        print(str(exc), file=sys.stderr)
        return 1
    print(
        f"merged {' + '.join(str(p) for p in paths)} -> {args.out} "
        f"[format {first}]: {stats.total_entries} patterns in "
        f"{stats.n_shards} shards "
        f"(peak {stats.max_resident_entries} entries resident)"
    )
    return 0


def _cmd_infer(args: argparse.Namespace) -> int:
    if args.rule and len(args.column) > 1:
        print("--rule requires a single --column file", file=sys.stderr)
        return 2
    service = ValidationService.from_path(
        args.index, _config(args), variant=args.variant
    )
    results = service.infer_many(_read_column(path) for path in args.column)
    missing = 0
    for path, result in zip(args.column, results):
        if len(args.column) > 1:
            print(f"== {path}")
        if result.rule is None:
            missing += 1
            print(f"no feasible validation rule: {result.reason}", file=sys.stderr)
            continue
        print(f"pattern:  {result.rule.pattern.display()}")
        print(f"est. FPR: {result.rule.est_fpr:.6f}")
        print(f"coverage: {result.rule.coverage}")
        if args.rule:
            Path(args.rule).write_text(
                json.dumps(result.rule.to_dict(), indent=1), encoding="utf-8"
            )
            print(f"rule written to {args.rule}")
    return 1 if missing else 0


def _cmd_validate(args: argparse.Namespace) -> int:
    rule = ValidationRule.from_dict(
        json.loads(Path(args.rule).read_text(encoding="utf-8"))
    )
    values = _read_column(args.column)
    report = rule.validate(values)
    status = "ALERT" if report.flagged else "ok"
    print(f"{status}: {report.reason}")
    if args.show_bad and report.flagged:
        for value in rule.non_conforming(values)[: args.show_bad]:
            print(f"  non-conforming: {value!r}")
    return 2 if report.flagged else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    if args.rate < 0:
        print("--rate must be >= 0 (0 = unlimited)", file=sys.stderr)
        return 2
    if args.max_concurrency < 1:
        print("--max-concurrency must be >= 1", file=sys.stderr)
        return 2
    if args.max_inflight < 0:
        print("--max-inflight must be >= 0 (0 = unbounded)", file=sys.stderr)
        return 2
    service = ValidationService.from_path(
        args.index,
        _config(args),
        prefetch=args.prefetch,
        variant=args.variant,
    )
    service.warm()  # the feasible set is built before the readiness line
    limiter = TenantRateLimiter(rate=args.rate, burst=args.burst)

    async def _run() -> None:
        server = ValidationHTTPServer(
            service,
            host=args.host,
            port=args.port,
            rate_limiter=limiter,
            max_inflight=args.max_inflight or None,
            max_concurrency=args.max_concurrency,
        )

        def ready(bound: ValidationHTTPServer) -> None:
            # The readiness line: smoke tests and process supervisors wait
            # for it and parse the bound port (meaningful with --port 0).
            print(
                f"serving on http://{args.host}:{bound.port} "
                f"(index={args.index}, variant={args.variant})",
                flush=True,
            )

        # SIGTERM/SIGINT drain in-flight requests and exit 0: a TERM'd
        # server that finished its work is a successful shutdown.
        await serve_with_graceful_shutdown(server, ready)

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:  # pragma: no cover - non-signal-handler loops
        print("shutting down", file=sys.stderr)
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    # Imported lazily: the dist subsystem is not needed for local builds.
    from repro.dist import ScanWorkerServer

    if args.spill_mb <= 0:
        print("--spill-mb must be positive", file=sys.stderr)
        return 2
    if args.max_inflight < 0:
        print("--max-inflight must be >= 0 (0 = unbounded)", file=sys.stderr)
        return 2

    async def _run(run_dir: str) -> None:
        server = ScanWorkerServer(
            host=args.host,
            port=args.port,
            run_dir=run_dir,
            spill_mb=args.spill_mb,
            max_inflight=args.max_inflight or None,
        )

        def ready(bound: ScanWorkerServer) -> None:
            print(
                f"worker on http://{args.host}:{bound.port} "
                f"(run-dir={run_dir})",
                flush=True,
            )

        await serve_with_graceful_shutdown(server, ready)

    try:
        if args.run_dir:
            Path(args.run_dir).mkdir(parents=True, exist_ok=True)
            asyncio.run(_run(args.run_dir))
        else:
            with tempfile.TemporaryDirectory(prefix="av-worker-") as scratch:
                asyncio.run(_run(scratch))
    except KeyboardInterrupt:  # pragma: no cover - non-signal-handler loops
        print("shutting down", file=sys.stderr)
    return 0


def _cmd_dist_build(args: argparse.Namespace) -> int:
    from repro.dist import DistBuildError, distributed_build

    layout = _index_layout(args)
    if layout is None:
        return 2
    format, n_shards = layout
    if args.resume and not args.journal:
        print("--resume requires --journal DIR (the journal of the killed "
              "build)", file=sys.stderr)
        return 2
    corpus = load_corpus(args.corpus)

    def on_event(kind: str, **info: object) -> None:
        if args.verbose or kind in ("reassign", "probe_failed"):
            detail = " ".join(f"{k}={v}" for k, v in sorted(info.items()))
            print(f"[dist] {kind} {detail}", file=sys.stderr, flush=True)

    try:
        stats = distributed_build(
            corpus.column_values(),
            args.worker,
            args.out,
            corpus_name=corpus.name,
            format=format,
            n_shards=n_shards,
            timeout=args.timeout,
            retries=args.retries,
            windows_per_worker=args.windows_per_worker,
            spill_mb=args.spill_mb,
            journal_dir=args.journal,
            resume=args.resume,
            on_event=on_event,
        )
    except DistBuildError as exc:
        print(f"distributed build failed: {exc}", file=sys.stderr)
        return 1
    active = sum(w.windows_scanned > 0 for w in stats.workers)
    print(
        f"indexed {stats.columns_scanned} columns -> "
        f"{stats.total_entries} patterns at {args.out} "
        f"[{n_shards} shards (format {format}), distributed: "
        f"workers={active}/{stats.n_workers} windows={stats.n_windows} "
        f"reused={stats.windows_reused} "
        f"retried={stats.windows_retried} reassigned={stats.windows_reassigned} "
        f"bytes_shipped={stats.bytes_shipped} "
        f"wall={stats.wall_seconds:.2f}s]"
    )
    if args.stats:
        Path(args.stats).write_text(
            json.dumps(stats.to_dict(), indent=1), encoding="utf-8"
        )
        print(f"stats written to {args.stats}")
    return 0


def _cmd_tag(args: argparse.Namespace) -> int:
    index = open_index(args.index)
    examples = _read_column(args.examples)
    tagger = AutoTagger(index, _config(args), fnr_target=args.fnr_target)
    tag = tagger.tag(examples)
    if tag is None:
        print("no tag pattern found for the given examples", file=sys.stderr)
        return 1
    print(f"tag pattern: {tag.pattern.display()}")
    if args.corpus:
        corpus = load_corpus(args.corpus)
        names = tagger.find_matching_columns(
            tag, ((c.qualified_name, c.values) for c in corpus.columns())
        )
        print(f"matching columns ({len(names)}):")
        for name in names:
            print(f"  {name}")
    return 0


def _read_feed(path: str) -> dict[str, list[str]]:
    """A feed snapshot: JSON object of ``{"column": ["value", ...]}``."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(payload, dict) or any(
        not isinstance(values, list) for values in payload.values()
    ):
        raise SystemExit(f"{path} must be a JSON object of string arrays")
    return {
        str(column): [str(v) for v in values]
        for column, values in payload.items()
    }


def _cmd_watch(args: argparse.Namespace) -> int:
    # Imported lazily: the watch subsystem is not needed for one-shot paths.
    from repro.validate.hybrid import HybridValidator
    from repro.watch import REPORT_FORMATS, WatchHTTPServer, WatchService

    actions = [
        bool(args.register), bool(args.once), args.serve, bool(args.report)
    ]
    if sum(actions) != 1:
        print(
            "pass exactly one of --register / --once / --serve / --report",
            file=sys.stderr,
        )
        return 2

    learner = None
    if args.index:
        validator = HybridValidator(open_index(args.index), (), _config(args))
        learner = validator.infer
    service = WatchService(args.state_dir, learner=learner)

    if args.register:
        if not args.index:
            print("--register needs --index (rules are learned)", file=sys.stderr)
            return 2
        columns = _read_feed(args.register)
        outcomes = service.register(
            args.tenant, args.feed, columns, interval_seconds=args.interval
        )
        for column, outcome in sorted(outcomes.items()):
            print(f"{args.tenant}/{args.feed}.{column}: {outcome}")
        return 0

    if args.once:
        columns = _read_feed(args.once)
        outcome = service.refresh(args.tenant, args.feed, columns)
        counts = outcome["severity_counts"]
        print(
            f"refresh {outcome['refresh_id']}: "
            f"{counts['ok']} ok, {counts['warning']} warning, "
            f"{counts['critical']} critical"
            + (
                f", skipped: {', '.join(outcome['columns_skipped'])}"
                if outcome["columns_skipped"]
                else ""
            )
        )
        for alert in outcome["alerts"]:
            where = f"{alert['tenant']}/{alert['feed']}.{alert['column']}"
            print(f"ALERT [{alert['severity']}] {alert['kind']} {where}: "
                  f"{alert['message']}")
        return 2 if outcome["alerts"] else 0

    if args.report:
        if args.report not in REPORT_FORMATS:
            print(f"--report must be one of {REPORT_FORMATS}", file=sys.stderr)
            return 2
        text = service.report(format=args.report)
        if args.out:
            Path(args.out).write_text(text, encoding="utf-8")
            print(f"report written to {args.out}")
        else:
            print(text)
        return 0

    # --serve
    if args.tick_seconds <= 0:
        print("--tick-seconds must be positive", file=sys.stderr)
        return 2
    if args.max_inflight < 0:
        print("--max-inflight must be >= 0 (0 = unbounded)", file=sys.stderr)
        return 2

    async def _run() -> None:
        server = WatchHTTPServer(
            service,
            host=args.host,
            port=args.port,
            tick_seconds=args.tick_seconds,
            max_inflight=args.max_inflight or None,
        )

        def ready(bound: WatchHTTPServer) -> None:
            # The readiness line: smoke tests and supervisors wait for it
            # and parse the bound port (meaningful with --port 0).
            print(
                f"watching on http://{args.host}:{bound.port} "
                f"(state-dir={args.state_dir}, "
                f"learner={'yes' if learner else 'no'})",
                flush=True,
            )

        await serve_with_graceful_shutdown(server, ready)

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:  # pragma: no cover - non-signal-handler loops
        print("shutting down", file=sys.stderr)
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    # Imported lazily: the analysis framework is not needed for serving paths.
    from repro.analysis.cli import run_lint

    return run_lint(args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="auto-validate",
        description="Unsupervised data validation from data-lake patterns (SIGMOD'21).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--fpr-target", type=float, default=0.1, dest="fpr_target",
                       help="FPR budget r (default 0.1)")
        p.add_argument("--min-coverage", type=int, default=100, dest="min_coverage",
                       help="coverage requirement m in columns (default 100)")
        p.add_argument("--theta", type=float, default=0.1,
                       help="non-conforming tolerance θ (default 0.1)")
        p.add_argument("--tau", type=int, default=13,
                       help="token limit τ (default 13)")

    p = sub.add_parser("generate", help="generate a synthetic data lake")
    p.add_argument("--profile", choices=sorted(_PROFILES), default="enterprise")
    p.add_argument("--tables", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_generate)

    p = sub.add_parser("index", help="build the offline pattern index")
    p.add_argument("--corpus", required=True, help="directory of CSV tables")
    p.add_argument("--out", required=True, help="output index directory")
    p.add_argument("--shards", type=int, default=16,
                   help="shard count of the index directory (default 16)")
    p.add_argument("--format", choices=_BUILD_FORMATS, default=None,
                   help="index store format (v2 = gzip-JSON shards, v3 = "
                        f"mmap-able binary shards; default ${FORMAT_ENV} "
                        "or v2)")
    p.add_argument("--workers", type=int, default=0,
                   help="scan across N spawned worker processes (0 or 1 = "
                        "scan in-process; the output bytes are identical "
                        "either way)")
    p.add_argument("--spill-mb", type=float, default=DEFAULT_SPILL_MB,
                   dest="spill_mb",
                   help="per-scanner memory watermark in MiB past which "
                        f"sorted runs spill to disk (default {DEFAULT_SPILL_MB:g})")
    p.set_defaults(fn=_cmd_index, reads={"corpus": "corpus directory"})

    p = sub.add_parser("merge",
                       help="merge N same-format indexes shard-by-shard with "
                            "a k-way heap merge (bounded memory)")
    p.add_argument("inputs", nargs="*",
                   help="indexes to merge (two or more v2/v3 directories "
                        "with equal shard counts)")
    p.add_argument("--a", help="first index (legacy spelling of the first "
                               "positional input)")
    p.add_argument("--b", help="second index (legacy spelling)")
    p.add_argument("--out", required=True, help="output index path")
    p.set_defaults(fn=_cmd_merge, reads=dict.fromkeys(("inputs", "a", "b"), "index"))

    p = sub.add_parser("infer", help="infer validation rules for columns")
    p.add_argument("--index", required=True)
    p.add_argument("--column", required=True, nargs="+",
                   help="text file(s), one value per line; several files form a batch")
    p.add_argument("--variant", choices=sorted(_VARIANTS), default="vh")
    p.add_argument("--rule", help="write the rule as JSON here")
    add_config_args(p)
    p.set_defaults(fn=_cmd_infer, reads={"index": "index", "column": "column file"})

    p = sub.add_parser("validate", help="validate a column against a rule")
    p.add_argument("--rule", required=True, help="rule JSON from 'infer'")
    p.add_argument("--column", required=True)
    p.add_argument("--show-bad", type=int, default=5, dest="show_bad",
                   help="print up to N non-conforming values")
    p.set_defaults(
        fn=_cmd_validate, reads={"rule": "rule file", "column": "column file"}
    )

    p = sub.add_parser("serve", help="serve the /v1 validation API over HTTP")
    p.add_argument("--index", required=True,
                   help="saved index (any registered format: v2/v3 "
                        "directory, legacy v1 file)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8080,
                   help="listen port (0 picks a free one; see the readiness line)")
    p.add_argument("--variant", choices=sorted(_VARIANTS), default="vh")
    p.add_argument("--rate", type=float, default=0.0,
                   help="per-tenant sustained requests/second (0 = unlimited)")
    p.add_argument("--burst", type=float, default=20.0,
                   help="per-tenant burst capacity (token-bucket size)")
    p.add_argument("--max-concurrency", type=int, default=32, dest="max_concurrency",
                   help="max in-flight inference calls on the event loop")
    p.add_argument("--max-inflight", type=int, default=0, dest="max_inflight",
                   help="shed requests past this many in flight with 503 + "
                        "Retry-After instead of queueing (0 = unbounded; "
                        "health probes are exempt)")
    p.add_argument("--prefetch", action="store_true",
                   help="warm the page cache behind a v3 index on a "
                        "background thread after open (and after every "
                        "in-place rebuild); first lookups are not blocked")
    add_config_args(p)
    p.set_defaults(fn=_cmd_serve, reads={"index": "index"})

    p = sub.add_parser("worker", help="run a distributed scan worker")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8081,
                   help="listen port (0 picks a free one; see the readiness line)")
    p.add_argument("--run-dir", dest="run_dir", default=None,
                   help="where scanned run files live until fetched "
                        "(default: a temporary directory removed on exit)")
    p.add_argument("--spill-mb", type=float, default=DEFAULT_SPILL_MB,
                   dest="spill_mb",
                   help="per-scan memory watermark in MiB past which sorted "
                        f"runs spill (default {DEFAULT_SPILL_MB:g}; the "
                        "coordinator may override per window)")
    p.add_argument("--max-inflight", type=int, default=0, dest="max_inflight",
                   help="shed requests past this many in flight with 503 + "
                        "Retry-After (0 = unbounded; health probes exempt)")
    p.set_defaults(fn=_cmd_worker)

    p = sub.add_parser(
        "dist-build",
        help="build an index across remote scan workers (byte-identical "
             "to a serial build)",
    )
    p.add_argument("--corpus", required=True, help="directory of CSV tables")
    p.add_argument("--worker", action="append", required=True,
                   help="worker base URL, e.g. http://10.0.0.5:8081 "
                        "(repeat per worker)")
    p.add_argument("--out", required=True, help="output index directory")
    p.add_argument("--shards", type=int, default=16,
                   help="shard count for the final index (default 16)")
    p.add_argument("--format", choices=_BUILD_FORMATS, default=None,
                   help=f"index store format (default ${FORMAT_ENV} or v2)")
    p.add_argument("--windows-per-worker", type=int, default=4,
                   dest="windows_per_worker",
                   help="LPT windows per healthy worker (default 4; more "
                        "windows = finer rebalancing, more HTTP overhead)")
    p.add_argument("--timeout", type=float, default=120.0,
                   help="per-request timeout in seconds (default 120)")
    p.add_argument("--retries", type=int, default=3,
                   help="capped-backoff retries per window before the worker "
                        "is declared dead (default 3)")
    p.add_argument("--spill-mb", type=float, default=None, dest="spill_mb",
                   help="override the workers' spill watermark per window")
    p.add_argument("--journal", default=None,
                   help="directory for the crash-safe build journal: every "
                        "finished window is durably checkpointed there, so a "
                        "killed build can --resume instead of restarting")
    p.add_argument("--resume", action="store_true",
                   help="resume the killed build recorded in --journal: "
                        "verified windows are reused, only unfinished ones "
                        "re-scan, and the output is byte-identical")
    p.add_argument("--stats", default=None,
                   help="write the DistBuildStats report as JSON here")
    p.add_argument("--verbose", action="store_true",
                   help="log every dispatch/retry/window completion")
    p.set_defaults(fn=_cmd_dist_build, reads={"corpus": "corpus directory"})

    p = sub.add_parser(
        "watch",
        help="continuous data-quality monitoring: register feeds, validate "
             "refreshes, learn baselines, alert, report",
    )
    p.add_argument("--state-dir", required=True, dest="state_dir",
                   help="the watch state directory (registry, alert log, "
                        "time series); created if missing")
    p.add_argument("--index", default=None,
                   help="saved index to learn rules from (required for "
                        "--register; --once/--report/--serve replay "
                        "persisted rules without it)")
    p.add_argument("--tenant", default="default",
                   help="tenant namespace (default 'default')")
    p.add_argument("--feed", default="feed",
                   help="feed name within the tenant (default 'feed')")
    p.add_argument("--register", default=None, metavar="FEED_JSON",
                   help="learn rules from this training snapshot "
                        '({"column": ["value", ...]}) and start watching; '
                        "re-registering re-learns and re-arms baselines")
    p.add_argument("--interval", type=float, default=None,
                   help="expected refresh cadence in seconds (with "
                        "--register; missed refreshes alert via the "
                        "scheduler)")
    p.add_argument("--once", default=None, metavar="FEED_JSON",
                   help="validate one refresh snapshot now; exit 2 if any "
                        "alert fired")
    p.add_argument("--serve", action="store_true",
                   help="serve the /v1/watch API over HTTP until "
                        "SIGTERM/SIGINT (graceful drain)")
    p.add_argument("--report", default=None, choices=("json", "md", "html"),
                   help="render the monitoring report to stdout (or --out)")
    p.add_argument("--out", default=None,
                   help="write the --report output here instead of stdout")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8082,
                   help="listen port (0 picks a free one; see the readiness "
                        "line)")
    p.add_argument("--tick-seconds", type=float, default=5.0,
                   dest="tick_seconds",
                   help="scheduler cadence for freshness checks while "
                        "serving (default 5)")
    p.add_argument("--max-inflight", type=int, default=0, dest="max_inflight",
                   help="shed requests past this many in flight with 503 + "
                        "Retry-After (0 = unbounded; health probes exempt)")
    add_config_args(p)
    p.set_defaults(fn=_cmd_watch, reads={
        "index": "index", "register": "feed snapshot", "once": "feed snapshot",
    })

    p = sub.add_parser("tag", help="Auto-Tag: find columns matching examples")
    p.add_argument("--index", required=True)
    p.add_argument("--examples", required=True, help="text file of example values")
    p.add_argument("--corpus", help="optionally sweep this corpus for matches")
    p.add_argument("--fnr-target", type=float, default=0.05, dest="fnr_target")
    add_config_args(p)
    p.set_defaults(fn=_cmd_tag, reads={
        "index": "index", "examples": "examples file", "corpus": "corpus directory",
    })

    p = sub.add_parser(
        "lint", help="repro-lint: check determinism/spawn/lock/fixed-point invariants"
    )
    from repro.analysis.cli import add_lint_arguments

    add_lint_arguments(p)
    p.set_defaults(fn=_cmd_lint)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # A named input that is not there is a usage error for every command:
    # one line, exit 2, before anything runs or is written.
    missing = _missing_input(args)
    if missing:
        print(missing, file=sys.stderr)
        return 2
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
