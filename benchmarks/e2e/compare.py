"""Judge result file B against result file A by the bounds of BENCHMARK.json.

    python -m benchmarks.e2e.compare A.json B.json

A and B are files written by ``benchmarks.e2e.run --out``: any number of
untraced runs per workload (``--repeat``).  One row per (metric,
workload): both medians, B/A with its base, each side's spread
(interquartile range over median) and a verdict —

* ``regressed``  B's median is worse than A's by more than the bound;
* ``unresolved`` not regressed, but a side's spread is wider than the
  bound, so the runs cannot tell "unchanged" from "moved";
* ``ok``         otherwise.

Exits non-zero on any regression or on a higher share of failed
operations.  A against A is the benchmark's own steadiness check; parent
against change is the no-regression check of a later PR.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from benchmarks.e2e.harness import load_spec  # noqa: E402


def _untraced(path: str) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {}
    for record in json.loads(Path(path).read_text(encoding="utf-8"))["runs"]:
        if not record["trace"]:
            runs.setdefault(record["workload"], []).append(record)
    return runs


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median (0 for a single run)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def _failed_share(records: list[dict]) -> float:
    return sum(r["failed"] for r in records) / max(1, sum(r["attempted"] for r in records))


def compare(path_a: str, path_b: str) -> int:
    spec = load_spec()
    a_runs, b_runs = _untraced(path_a), _untraced(path_b)
    regressions = 0
    print(f"{'metric':<28}{'workload':<15}{'A median':>12}{'n':>4}{'B median':>12}{'n':>4}"
          f"{'B/A':>8}  {'base A':<12}{'spread A':>9}{'spread B':>9}{'bound':>7}  verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        a_records, b_records = a_runs.get(workload, []), b_runs.get(workload, [])
        if not a_records or not b_records:
            print(f"{'-':<28}{workload:<15} missing from {'A' if not a_records else 'B'}")
            regressions += 1
            continue
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = [r["metrics"][name]["value"] for r in a_records]
            b = [r["metrics"][name]["value"] for r in b_records]
            base, other = statistics.median(a), statistics.median(b)
            base_label = f"{base:.5g} {metric['unit']}"
            worse_by = (other - base) / base
            if metric["better"] == "higher":
                worse_by = -worse_by
            if worse_by > bound:
                verdict = "regressed"
                regressions += 1
            elif max(spread(a), spread(b)) > bound:
                verdict = "unresolved"
            else:
                verdict = "ok"
            print(f"{name:<28}{workload:<15}{base:>12.5g}{len(a):>4}{other:>12.5g}{len(b):>4}"
                  f"{other / base:>8.3f}  {base_label:<12}"
                  f"{spread(a):>9.3f}{spread(b):>9.3f}{bound:>7.2f}  {verdict}")
        share_a, share_b = _failed_share(a_records), _failed_share(b_records)
        verdict = "regressed" if share_b > share_a else "ok"
        regressions += share_b > share_a
        print(f"{'ops_failed_share':<28}{workload:<15}{share_a:>12.5g}{len(a_records):>4}"
              f"{share_b:>12.5g}{len(b_records):>4}{'':>8}  {'':<12}{'':>9}{'':>9}{0:>7.2f}  {verdict}")
    print(f"\n{regressions} regression(s)")
    return 1 if regressions else 0


def main(argv: list[str] | None = None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if len(paths) != 2:
        print(__doc__)
        return 2
    return compare(*paths)


if __name__ == "__main__":
    sys.exit(main())
