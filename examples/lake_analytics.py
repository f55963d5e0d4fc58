"""Lake analytics: mining the offline index for common data domains.

Section 5.3's "pattern analysis": because the offline index enumerates
every pattern the corpus can generalize into, it doubles as a catalogue of
the lake's *common domains* — high-coverage, low-FPR patterns like those in
Figure 3 — plus the distribution statistics of Figure 13.  This example
builds an index with the streaming pipeline (two scan workers spilling
sorted runs that merge into mmap-able v3 shards — the SCOPE-style
map-reduce path), opens it and surfaces both, then uses a head domain to
auto-tag the columns carrying it.

Run:  python examples/lake_analytics.py
"""

from __future__ import annotations

import tempfile
from collections import Counter
from dataclasses import replace
from pathlib import Path

from repro import AutoValidateConfig, build_index_streaming, open_index
from repro.datalake import ENTERPRISE_PROFILE, generate_corpus
from repro.eval.reporting import render_histogram, render_table
from repro.validate.autotag import AutoTagger

SEED = 47


def main() -> None:
    lake = generate_corpus(replace(ENTERPRISE_PROFILE, n_tables=100), seed=SEED)
    with tempfile.TemporaryDirectory(prefix="lake-analytics-") as scratch:
        analyse(lake, Path(scratch) / "lake.v3")


def analyse(lake, index_dir: Path) -> None:
    build_index_streaming(
        lake.column_values(), index_dir, corpus_name="lake", workers=2, format="v3"
    )
    index = open_index(index_dir)
    print(f"indexed {index.meta.columns_scanned} columns -> {len(index)} patterns\n")

    # Figure 13(a): pattern frequency by token count.
    stats = index.stats()
    by_length = Counter(stats.by_token_length)
    print(render_histogram(dict(sorted(by_length.items())),
                           title="patterns by token count", bucket_label="tokens"))

    # Figure 3 / §5.3: the lake's common domains.
    head = index.common_domains(min_coverage=20, max_fpr=0.05)
    # De-duplicate near-equivalent generalizations: keep the most covered
    # pattern per token-length bucket for a readable digest.
    seen_lengths: set[int] = set()
    rows = []
    for key, entry in head:
        length = key.count("|") + 1
        if length in seen_lengths:
            continue
        seen_lengths.add(length)
        rows.append({
            "common domain pattern": key,
            "coverage": entry.coverage,
            "FPR": f"{entry.fpr:.4f}",
        })
        if len(rows) == 8:
            break
    print()
    print(render_table(rows, title="common domains discovered in the lake"))

    # Use the top narrow domain to tag its columns across the lake.
    config = AutoValidateConfig(fpr_target=0.1, min_column_coverage=10)
    tagger = AutoTagger(index, config, fnr_target=0.05)
    locale_columns = [c for c in lake.columns() if c.domain == "locale_lower"]
    examples = locale_columns[0].values[:10]
    tag = tagger.tag(examples)
    assert tag is not None
    tagged = tagger.find_matching_columns(
        tag, ((c.qualified_name, c.values) for c in lake.columns())
    )
    print(f"\ntag {tag.pattern.display()} -> {len(tagged)} columns "
          f"(of {len(locale_columns)} true locale columns)")

    assert head, "a lake must expose common domains"
    assert len(tagged) >= len(locale_columns) * 0.8
    print("\nlake analytics OK")


if __name__ == "__main__":
    main()
