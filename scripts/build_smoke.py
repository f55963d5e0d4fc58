#!/usr/bin/env python
"""Streaming index-build smoke test (CI `build-matrix`).

Exercises the CLI end to end on a ~50k-value generated lake:

1. `auto-validate generate` writes the corpus,
2. `auto-validate index --workers 2 --spill-mb 4` builds the index with
   the streaming bounded-memory pipeline (spawn pool + run spill + k-way
   merge),
3. the readiness line's reported `peak_builder_bytes` must respect the
   spill watermark (plus one column's worth of entries — the atomic
   aggregation step),
4. the streamed output must be byte-identical to the in-process
   reference `save_index(build_index(columns))` over the same corpus
   (a second CLI run would exercise the same pipeline twice),
5. the result must serve lookups through `open_index`.

The index format comes from REPRO_INDEX_FORMAT (the build-matrix sweeps
v2/v3; anything else falls back to v2 here).

Exit code 0 on success; any failure raises (non-zero exit).

Usage: python scripts/build_smoke.py [workdir]
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_SRC = str(Path(__file__).resolve().parents[1] / "src")
SPILL_MB = 4.0
TABLES = 90  # ~50k values at the enterprise profile's table sizes


def _cli(*args: str) -> str:
    result = subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        capture_output=True,
        text=True,
        timeout=900,
        env={**os.environ, "PYTHONPATH": REPO_SRC},
    )
    assert result.returncode == 0, (
        f"auto-validate {' '.join(args[:1])} failed "
        f"(rc {result.returncode}): {result.stderr}"
    )
    return result.stdout


def main(workdir: str | None = None) -> None:
    from repro.datalake.io import load_corpus
    from repro.index.builder import build_index
    from repro.index.store import default_format, open_index, save_index

    format = default_format()
    if format not in ("v2", "v3"):
        format = "v2"

    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        root = Path(tmp)
        lake = root / "lake"
        _cli("generate", "--profile", "enterprise", "--tables", str(TABLES),
             "--seed", "9", "--out", str(lake))

        streamed = root / "streamed.idx"
        out = _cli(
            "index", "--corpus", str(lake), "--out", str(streamed),
            "--format", format, "--shards", "8",
            "--workers", "2", "--spill-mb", str(SPILL_MB),
        )
        print(out, end="")
        match = re.search(
            r"n_runs=(\d+) peak_builder_bytes=(\d+) spill_bytes=(\d+)", out
        )
        assert match, f"streamed build did not report its residency: {out!r}"
        n_runs, peak, spill = (int(g) for g in match.groups())
        assert spill == int(SPILL_MB * (1 << 20)), (spill, SPILL_MB)
        one_column_slack = 4096 * 256  # max_patterns * generous entry cost
        assert peak <= spill + one_column_slack, (
            f"reported builder peak {peak} exceeds the {spill}-byte watermark "
            f"(+{one_column_slack} slack)"
        )
        assert n_runs > 1, "watermark never tripped at 4 MiB - corpus too small?"

        reference = root / "reference.idx"
        corpus = load_corpus(lake)
        save_index(
            build_index(corpus.column_values(), corpus_name=corpus.name),
            reference, format=format, n_shards=8,
        )
        files_a = sorted(p.name for p in reference.iterdir())
        files_b = sorted(p.name for p in streamed.iterdir())
        assert files_a == files_b, (files_a, files_b)
        for name in files_a:
            assert (reference / name).read_bytes() == (streamed / name).read_bytes(), (
                f"streamed shard {name} differs from the in-memory reference"
            )

        index = open_index(streamed)
        assert len(index) > 0
        probe = min(key for key, _ in index.items())
        assert index.lookup_key(probe) is not None
        print(
            f"build smoke OK: format {format}, {len(index)} patterns, "
            f"{n_runs} runs, builder peak {peak} <= watermark {spill} + slack"
        )


if __name__ == "__main__":
    sys.path.insert(0, REPO_SRC)
    main(sys.argv[1] if len(sys.argv) > 1 else None)
