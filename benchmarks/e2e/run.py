"""Run the benchmark: one workload, or (without ``--workload``) all four.

    python3 benchmarks/e2e/run.py --workload serve_cold --seed 11 --seconds 15 --trace 0
    PYTHONPATH=src python -m benchmarks.e2e.run --seed 11 --trace 1 --out A.json

One workload runs in this process and prints, as the last line of its
standard output, one JSON object ``{correct, attempted, failed,
metrics}``: every end-to-end metric of ``BENCHMARK.json`` with ``--trace
0``, every per-layer metric with ``--trace 1`` (a layer the workload never
calls reports 0: it was busy for no time).  Without ``--workload`` each
workload runs as a child process of its own, and ``--trace 1`` adds the
traced run after the untraced one.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parents[2]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"{ROOT}/src/repro not found: the benchmark measures the program in src/")
# The in-process parts use the same kernel the child processes are pinned to.
os.environ["REPRO_ENUM_KERNEL"] = "vector"
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from benchmarks.e2e import harness  # noqa: E402

#: ISSUE.md's per-workload metric names, printed beside the generic ones.
ALIASES = {
    "build_lake": {
        "latency_p50_ms": "build wall, median", "latency_tail_ms": "slowest build",
        "throughput_per_s": "build_values_per_s", "peak_rss_mb": "build_peak_rss_mb",
    },
    "serve_cold": {
        "latency_p50_ms": "infer_p50_ms", "latency_tail_ms": "infer_p90_ms",
        "throughput_per_s": "infer_per_s", "peak_rss_mb": "server_peak_rss_mb",
    },
    "serve_warm": {
        "latency_p50_ms": "infer_p50_ms", "latency_tail_ms": "infer_p99_ms",
        "throughput_per_s": "infer_per_s", "peak_rss_mb": "server_peak_rss_mb",
    },
    "watch_refresh": {
        "latency_p50_ms": "refresh_p50_ms", "latency_tail_ms": "refresh_p95_ms",
        "throughput_per_s": "refresh_per_s", "peak_rss_mb": "watch process VmHWM",
    },
}


def _entry_points(workload: str):
    """(untraced, traced) functions of a workload; imported on demand so a
    run pays only for the layers it drives."""
    if workload == "build_lake":
        from benchmarks.e2e import build_lake
        return build_lake.run, build_lake.trace
    if workload == "serve_cold":
        from benchmarks.e2e import serve
        return serve.run_cold, serve.trace_cold
    if workload == "serve_warm":
        from benchmarks.e2e import serve
        return serve.run_warm, serve.trace_warm
    from benchmarks.e2e import watch_refresh
    return watch_refresh.run, watch_refresh.trace


def _provenance(args: argparse.Namespace) -> dict[str, Any]:
    import numpy
    from repro.core.enumeration import active_kernel

    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {
        "git_commit": commit,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "enum_kernel": active_kernel(),
        "index_format": harness.INDEX_FORMAT,
        "index_shards": harness.INDEX_SHARDS,
        "variant": harness.VARIANT,
        "clients": harness.CLIENTS,
        "quick": args.quick,
    }


def run_one(args: argparse.Namespace) -> int:
    """Run one workload in this process; print the result line."""
    spec = harness.load_spec()
    traced = bool(args.trace)
    declared = spec["per_layer"] if traced else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    workdir = harness.TMP_ROOT / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    ctx = harness.Run(
        seed=args.seed,
        seconds=args.seconds,
        sizes=harness.QUICK if args.quick else harness.FULL,
        workdir=workdir,
        t0=_PROCESS_START,
        tracer=harness.Tracer(args.workload) if traced else None,
    )
    untraced, with_trace = _entry_points(args.workload)
    try:
        measured = (with_trace if traced else untraced)(ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            harness.TMP_ROOT.rmdir()
        except OSError:
            pass  # another run's work directory is still in it
    wall = time.perf_counter() - _PROCESS_START

    if traced:
        ctx.tracer.write(_results_dir(args) / f"trace-{args.workload}.json")
        # Every layer reports on every workload; untouched means idle.
        measured = {name: measured.get(name, 0.0) for name in units}
    else:
        measured["setup_s"] = ctx.setup_s
        ctx.samples["setup_s"] = 1
        if set(measured) != set(units):
            raise RuntimeError(f"metrics {sorted(set(measured) ^ set(units))} not as declared")

    correct = ctx.failed == 0 and ctx.attempted > 0
    aliases = {} if traced else ALIASES[args.workload]
    print(f"\n{args.workload}  seed={args.seed}  trace={int(traced)}  "
          f"set-up {ctx.setup_s:.2f} s  total {wall:.2f} s  "
          f"ops {ctx.attempted - ctx.failed}/{ctx.attempted} ok")
    for name in units:
        note = f"  n={ctx.samples[name]}" if name in ctx.samples else ""
        alias = f"  ({aliases[name]})" if name in aliases else ""
        print(f"  {name:<52} {measured[name]:>14.6g} {units[name]:<6}{note}{alias}")
    for error in ctx.errors:
        print(f"  FAILED: {error}")

    result = {
        "correct": correct,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "metrics": {n: {"value": measured[n], "unit": units[n]} for n in units},
    }
    if args.out:
        record = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": int(traced), **result,
            "ops_failed_share": ctx.failed / max(1, ctx.attempted),
            "samples": ctx.samples, "setup_s": ctx.setup_s, "wall_s": wall,
            "sizes": asdict(ctx.sizes), "info": ctx.info,
            "errors": ctx.errors, "provenance": _provenance(args),
        }
        _append_record(Path(args.out), record)
    print(json.dumps(result))
    return 0 if correct else 1


def _results_dir(args: argparse.Namespace) -> Path:
    """Spans are written beside the records."""
    return Path(args.out).parent if args.out else harness.RESULTS_DIR


def _append_record(path: Path, record: dict[str, Any]) -> None:
    document = {"runs": []}
    if path.exists():
        document = json.loads(path.read_text(encoding="utf-8"))
    document["runs"].append(record)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=1), encoding="utf-8")


def run_all(args: argparse.Namespace, workloads: list[str]) -> int:
    """Every workload (x ``--repeat`` seeds), each in a child process."""
    out = Path(args.out) if args.out else harness.RESULTS_DIR / "latest.json"
    if out.exists():
        out.unlink()
    status = 0
    for offset in range(args.repeat):
        for workload in workloads:
            for trace in ([0, 1] if args.trace else [0]):
                command = [
                    sys.executable, str(Path(__file__).resolve()),
                    "--workload", workload, "--seed", str(args.seed + offset),
                    "--seconds", str(args.seconds), "--trace", str(trace),
                    "--out", str(out),
                ] + (["--quick"] if args.quick else [])
                status |= subprocess.run(command, cwd=ROOT).returncode
    print(f"\nresults: {out}" + (f"; spans: {out.parent}/trace-*.json" if args.trace else ""))
    return status


def main(argv: list[str] | None = None) -> int:
    spec = harness.load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads, default=None,
                        help="one workload in this process (default: all four, as children)")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"measuring time of a run (default {spec['run_seconds']}; 1 with --quick)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced run, which reports the per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help="smoke-test sizes: same workloads and metrics, smaller inputs")
    parser.add_argument("--out", default=None,
                        help="append the full record of each run to this JSON file; "
                             "spans go beside it as trace-WORKLOAD.json")
    parser.add_argument("--repeat", type=int, default=1,
                        help="without --workload: seeds seed..seed+repeat-1")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 1.0 if args.quick else float(spec["run_seconds"])
    return run_all(args, workloads) if args.workload is None else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
