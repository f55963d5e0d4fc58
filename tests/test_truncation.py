"""Byte-level truncation sweeps for every on-disk reader.

The satellite contract of the crash-safety PR: for each artifact the
repo persists — v1/v2/v3 indexes, run-spill files, ``.avws`` day
summaries, ``registry.json``, the CRC-framed WAL — write a valid file,
then truncate it at (essentially) every byte offset and re-open it the
way production does.  Every cut must produce either

* a **typed** error (``ValueError`` or a subclass — ``StaleIndexError``,
  ``TornSummaryError``, ``json.JSONDecodeError`` — or
  ``FileNotFoundError``), or
* the **correct** data (only the WAL, whose recovery contract is "the
  longest intact prefix").

What is *never* acceptable: an untyped crash (``EOFError``,
``struct.error``, a bare mmap complaint) or silently served wrong data.
These sweeps are what forced the typed-error wrapping in the v1 gzip
reader and the pre-mmap size check in ``iter_run_file``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Callable

import pytest

from repro.durability import append_crc_lines, recover_crc_lines
from repro.index.index import IndexEntry, IndexMeta, PatternIndex
from repro.index.store import (
    iter_run_file,
    open_index,
    save_index,
    verify_run_payload,
    write_run_file,
)
from repro.watch.registry import FeedState, WatchRegistry
from repro.watch.timeseries import (
    DayStat,
    TornSummaryError,
    read_day_summary,
    write_day_summary,
)

#: The accepted error family: ValueError covers StaleIndexError,
#: TornSummaryError and json.JSONDecodeError; FileNotFoundError covers a
#: reader that treats a zero-length artifact as absent.
TYPED_ERRORS = (ValueError, FileNotFoundError)


def _index(tag: str, n: int = 10) -> PatternIndex:
    entries = {
        f"{tag}-key-{i:02d}": IndexEntry(fpr_sum=0.25 * (i + 1), coverage=100 + i)
        for i in range(n)
    }
    meta = IndexMeta(
        columns_scanned=n,
        values_scanned=n * 50,
        corpus_name=tag,
        fingerprint="tau=13;test",
    )
    return PatternIndex(entries, meta)


def _cut_points(size: int, stride: int) -> list[int]:
    """Every truncation length to try: a stride sweep plus the edges."""
    cuts = set(range(0, size, stride))
    cuts.update((0, 1, 2, size // 2, size - 2, size - 1))
    return sorted(cut for cut in cuts if 0 <= cut < size)


def _sweep_file(
    target: Path,
    reader: Callable[[], Any],
    *,
    allow_prefix_of: list[Any] | None = None,
) -> None:
    """Truncate ``target`` at every cut point; ``reader`` must raise a
    typed error or (``allow_prefix_of`` only) return an intact prefix."""
    original = target.read_bytes()
    expected = reader()  # the clean read defines "correct data"
    stride = max(1, len(original) // 512)
    failures: list[str] = []
    try:
        for cut in _cut_points(len(original), stride):
            target.write_bytes(original[:cut])
            try:
                got = reader()
            except TYPED_ERRORS:
                continue
            except BaseException as exc:  # noqa: BLE001 - the sweep is the assertion
                failures.append(
                    f"cut={cut}/{len(original)} of {target.name}: untyped "
                    f"{type(exc).__name__}: {exc}"
                )
                continue
            if allow_prefix_of is not None:
                if got == allow_prefix_of[: len(got)]:
                    continue
                failures.append(
                    f"cut={cut}/{len(original)} of {target.name}: recovered "
                    "records are not a prefix of the intact log"
                )
            elif got != expected:
                failures.append(
                    f"cut={cut}/{len(original)} of {target.name}: silently "
                    "served wrong data"
                )
            # got == expected with bytes missing can only mean the reader
            # never needed the truncated tail — fine for a lazy manifest,
            # and the eager readers below never hit it.
    finally:
        target.write_bytes(original)
    assert not failures, "\n".join(failures)


def _sweep_directory(directory: Path, reader: Callable[[], Any]) -> None:
    """Truncation-sweep each file of a directory-layout artifact in turn."""
    for member in sorted(p for p in directory.iterdir() if p.is_file()):
        _sweep_file(member, reader)


# -- index formats -------------------------------------------------------------


class TestIndexTruncation:
    def test_v1_file(self, tmp_path, v1_index_path):
        # v1 is read-only: sweep a copy of the committed legacy fixture.
        path = tmp_path / "index-v1.json.gz"
        path.write_bytes(v1_index_path.read_bytes())
        _sweep_file(path, lambda: dict(open_index(path).items()))

    @pytest.mark.parametrize("fmt", ["v2", "v3"])
    def test_sharded_directory(self, tmp_path, fmt):
        path = tmp_path / f"index-{fmt}"
        save_index(_index(fmt), path, format=fmt, n_shards=2)
        _sweep_directory(
            path, lambda: dict(open_index(path, lazy=False).items())
        )

    @pytest.mark.parametrize("fmt", ["v2", "v3"])
    def test_lazy_open_then_full_read(self, tmp_path, fmt):
        # The lazy path defers shard reads to first touch; the typed-error
        # contract must hold there too, not just at open().
        path = tmp_path / f"index-{fmt}"
        save_index(_index(fmt), path, format=fmt, n_shards=2)

        def read_via_lazy() -> dict:
            index = open_index(path, lazy=True)
            return dict(index.items())

        _sweep_directory(path, read_via_lazy)


# -- run-spill files -----------------------------------------------------------


def _run_payloads() -> tuple[dict[str, int], dict[str, int]]:
    fpr_fixed = {f"run-key-{i:02d}": (i + 1) << 62 for i in range(8)}
    coverages = {key: 40 + i for i, key in enumerate(sorted(fpr_fixed))}
    return fpr_fixed, coverages


class TestRunFileTruncation:
    def test_iter_run_file(self, tmp_path):
        path = tmp_path / "window-000001.run"
        fpr_fixed, coverages = _run_payloads()
        write_run_file(path, 1, fpr_fixed, coverages)
        _sweep_file(path, lambda: list(iter_run_file(path)))

    def test_verify_run_payload(self, tmp_path):
        path = tmp_path / "window-000002.run"
        fpr_fixed, coverages = _run_payloads()
        write_run_file(path, 2, fpr_fixed, coverages)
        data = path.read_bytes()
        for cut in _cut_points(len(data), 1):
            with pytest.raises(ValueError):
                verify_run_payload(data[:cut])


# -- watch artifacts -----------------------------------------------------------


class TestWatchTruncation:
    def test_day_summary(self, tmp_path):
        path = tmp_path / "day-20240703.avws"
        stats = {
            f"tenant/feed/col-{i}": DayStat(
                n_obs=5 + i,
                n_passed=4 + i,
                n_flagged=1,
                pass_rate_sum=4.0 + i,
                latency_ms_sum=12.5 * (i + 1),
                min_pass_rate=0.8,
            )
            for i in range(4)
        }
        write_day_summary(path, stats)
        _sweep_file(path, lambda: read_day_summary(path))

    def test_day_summary_error_type_is_torn_summary(self, tmp_path):
        path = tmp_path / "day-20240704.avws"
        write_day_summary(path, {"t/f/c": DayStat(n_obs=1, n_passed=1)})
        data = path.read_bytes()
        for cut in _cut_points(len(data), 1):
            path.write_bytes(data[:cut])
            with pytest.raises(TornSummaryError):
                read_day_summary(path)

    def test_registry_json(self, tmp_path):
        path = tmp_path / "registry.json"
        registry = WatchRegistry(path)
        for i in range(3):
            state = FeedState(
                tenant="acme",
                feed=f"feed-{i}",
                interval_seconds=3600.0,
                registered_ts=1_720_000_000.0 + i,
            )
            registry.feeds[state.key] = state
        registry.save()

        def read_registry() -> dict:
            loaded = WatchRegistry(path)
            return {key: f.to_payload() for key, f in loaded.feeds.items()}

        _sweep_file(path, read_registry)

    def test_wal_recovers_longest_intact_prefix(self, tmp_path):
        path = tmp_path / "wal.ndjson"
        records = [
            {"seq": i, "kind": "observation", "payload": f"row-{i}" * 3}
            for i in range(6)
        ]
        append_crc_lines(path, records)
        assert recover_crc_lines(path) == records
        _sweep_file(
            path,
            lambda: recover_crc_lines(path),
            allow_prefix_of=records,
        )
