"""Seed -> inputs.  The program only ever sees the files and values made here.

Two kinds of input, both functions of ``--seed`` alone:

* the **lake**: the enterprise profile's lake written as a CSV directory
  with ``save_corpus`` — what ``auto-validate index`` scans.  Its *shape*
  (tables, which domain each column holds, column lengths, the composite,
  mixed-format and dirty columns) is that of one fixed generated lake;
  every clean single-domain column, five in six, is re-sampled from its
  domain with the seed.  A lake generated wholly from the seed draws
  30 to 70 datetime columns out of ~400, and those carry half of all
  index entries: build time per value and index size then move 20%
  between seeds, which is the lake lottery, not the program;
* **query columns**: fresh samples of every domain of the generator's
  registry, one column per domain per *round*, in registry order.  The
  domain mix of a round never changes with the seed — only the values do
  — because cold inference cost spans three orders of magnitude across
  domains (``bool_str`` 0.3 ms, ``datetime_ampm`` 500 ms): columns drawn
  from a second generated lake made p90 and throughput swing 2x between
  seeds on the luck of one composite column.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterator

from repro import AutoValidateConfig
from repro.datalake import (
    DOMAIN_REGISTRY,
    ENTERPRISE_PROFILE,
    generate_corpus,
    save_corpus,
)

from benchmarks.e2e.harness import FPR_TARGET, Sizes, dir_bytes


@dataclass(frozen=True)
class Lake:
    path: Path
    n_tables: int
    n_columns: int
    n_values: int
    csv_bytes: int

    def summary(self) -> dict[str, int]:
        """The sizes realised, for a run's record."""
        return {
            "tables": self.n_tables, "columns": self.n_columns,
            "values": self.n_values, "csv_bytes": self.csv_bytes,
        }


#: Seed of the generated lake whose shape every benchmark lake shares.
SHAPE_SEED = 11


def write_lake(seed: int, n_tables: int, out: Path) -> Lake:
    corpus = generate_corpus(replace(ENTERPRISE_PROFILE, n_tables=n_tables), SHAPE_SEED)
    rng = rng_for(seed, "lake")
    for column in corpus.columns():
        if column.domain in DOMAIN_REGISTRY and not column.dirty_fraction:
            column.values = DOMAIN_REGISTRY[column.domain].sample_many(rng, len(column.values))
    save_corpus(corpus, out)
    return Lake(
        path=out,
        n_tables=n_tables,
        n_columns=corpus.n_columns,
        n_values=sum(len(column) for column in corpus.columns()),
        csv_bytes=dir_bytes(out, "*.csv"),
    )


def inference_config(sizes: Sizes) -> AutoValidateConfig:
    """What ``--fpr-target``/``--min-coverage`` make of the CLI's config."""
    return AutoValidateConfig(
        fpr_target=FPR_TARGET, min_column_coverage=sizes.min_coverage
    )


def rng_for(seed: int, purpose: str) -> random.Random:
    """An independent seeded stream per purpose, so adding a consumer never
    shifts the values another one draws."""
    return random.Random(f"{seed}/{purpose}")


Column = tuple[str, list[str]]


def domain_round(rng: random.Random, n_values: int, round_no: int) -> list[Column]:
    """One fresh column from every registry domain, in registry order."""
    return [
        (f"{name}#{round_no}", spec.sample_many(rng, n_values))
        for name, spec in DOMAIN_REGISTRY.items()
    ]


def column_stream(rng: random.Random, n_values: int) -> Iterator[Column]:
    """Rounds of :func:`domain_round`, flattened, without end."""
    round_no = 0
    while True:
        yield from domain_round(rng, n_values, round_no)
        round_no += 1


def zipf_weights(n: int, s: float = 1.1) -> list[float]:
    return [1.0 / (rank + 1) ** s for rank in range(n)]
