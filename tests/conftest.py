"""Shared fixtures: a small deterministic corpus and its offline index.

Session-scoped because index construction is the expensive step; tests
must treat these as read-only.
"""

from __future__ import annotations

import random
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import AutoValidateConfig, EnumerationConfig, build_index
from repro.datalake.domains import DOMAIN_REGISTRY


def _spawn_python(code: str, hash_seed: str) -> subprocess.CompletedProcess[str]:
    """Run ``code`` in a child interpreter under a controlled environment.

    The env is built from scratch (NOT inherited) so the child sees exactly
    the ``PYTHONHASHSEED`` under test — but module resolution must still be
    propagated explicitly: ``PYTHONPATH`` is derived from where the parent
    actually imported ``repro`` from, which works for both editable installs
    and plain ``PYTHONPATH=src`` runs.
    """
    package_root = str(Path(repro.__file__).resolve().parents[1])
    env = {
        "PYTHONHASHSEED": hash_seed,
        "PYTHONPATH": package_root,
        "PATH": "/usr/bin:/bin:" + sys.exec_prefix + "/bin",
    }
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )


@pytest.fixture(scope="session")
def spawn_python():
    """Shared helper for PYTHONHASHSEED-isolation tests: spawn_python(code,
    hash_seed) -> CompletedProcess."""
    return _spawn_python


def _mixed_hours_timestamp(rng: random.Random) -> str:
    return (
        f"{rng.randint(1, 12)}/{rng.randint(1, 28)}/{rng.randint(2018, 2020)} "
        f"{rng.randint(0, 23)}:{rng.randint(0, 59):02d}:{rng.randint(0, 59):02d}"
    )


@pytest.fixture(scope="session")
def small_corpus_columns() -> list[list[str]]:
    """~500 columns over a handful of domains, with impure format-mix
    columns included (the Figure 6 evidence)."""
    rng = random.Random(1234)
    columns: list[list[str]] = []
    for name in ("datetime_slash", "locale_lower", "guid", "status", "event_code",
                 "currency_usd", "phone_us", "zip9", "country2", "time_hms"):
        spec = DOMAIN_REGISTRY[name]
        for _ in range(35):
            columns.append(spec.sample_many(rng, 40))
    # impure columns: timestamps with an occasional AM/PM suffix.  Few
    # enough that the correct plain-timestamp pattern stays under the FPR
    # target, many enough to provide the Figure 6 impurity evidence.
    for _ in range(12):
        columns.append(
            [
                _mixed_hours_timestamp(rng)
                + rng.choice(["", "", "", "", "", "", " AM", " PM"])
                for _ in range(40)
            ]
        )
    # dirty columns: locale values with sentinels
    for _ in range(20):
        spec = DOMAIN_REGISTRY["locale_lower"]
        col = spec.sample_many(rng, 40)
        for i in range(0, 40, 13):
            col[i] = "-"
        columns.append(col)
    return columns


@pytest.fixture(scope="session")
def small_index(small_corpus_columns):
    return build_index(
        small_corpus_columns,
        EnumerationConfig(min_coverage=0.1),
        corpus_name="test-corpus",
    )


@pytest.fixture(scope="session")
def v1_index_path() -> Path:
    """The committed legacy v1 index: bytes from the last v1 *writer* (the
    format is read-only now).  Ten entries ``v1-key-NN -> (0.25*(N+1),
    100+N)``, meta ``corpus_name="v1"``.  Read-only: copy before mutating."""
    return Path(__file__).parent / "data" / "index-v1.json.gz"


@pytest.fixture(scope="session")
def small_config() -> AutoValidateConfig:
    """Coverage threshold scaled to the small test corpus."""
    return AutoValidateConfig(fpr_target=0.1, min_column_coverage=15)


@pytest.fixture()
def rng() -> random.Random:
    return random.Random(99)
