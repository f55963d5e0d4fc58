"""Append-only time-series persistence for watch observations.

Every refresh of every watched column appends one :class:`Observation`
to an NDJSON write-ahead segment; sealed segments roll up into one
compact binary summary per UTC day.  The live WAL is also the watch
service's per-refresh commit point: one :meth:`TimeSeriesStore.append`
call holds one refresh's observations and costs one ``write`` + one
``fsync``, and :class:`~repro.watch.service.WatchService` rebuilds the
per-refresh state by replaying it over the registry checkpoint.  The
layout follows the v3-store discipline (``src/repro/index/FORMAT.md``):
CRC-protected bytes, crash-safe atomic publish, mmap-friendly
fixed-offset summaries.

Directory layout (under ``<state_dir>/ts/``)::

    wal.ndjson              # active segment, append-only
    seg-<day>-<seq>.ndjson  # sealed segments (immutable)
    day-<day>.avws          # binary per-day summary (atomic publish)

**NDJSON line format.**  Each record line is::

    <crc32:08x> <canonical-json>\\n

— the CRC-32 of the canonical JSON bytes, a space, the JSON itself.
A process killed mid-append leaves a torn tail: a line without the
trailing newline, with a mangled CRC, or with truncated JSON.  On
reopen the tail is detected by CRC mismatch and truncated away
(``repro.durability.read_crc_lines`` / ``recover_crc_lines``, the codec
the alert log and the dist build journal share); every record that
was fully written survives.  This mirrors the run-file discipline: a
crash never corrupts published data, it only loses the torn record.

**Rotation.**  The WAL seals when its UTC day changes or it exceeds
``max_segment_bytes``, decided once per ``append`` call, so one call's
records never straddle two segments.  Sealing renames the WAL to its
immutable segment name (atomic on POSIX) and folds the segment's records
into the day's binary summary, which is rewritten via temp-file +
``os.replace`` — readers never observe a half-written summary.

**Binary day summary (``.avws``).**  One fixed-size record per
``tenant␟feed␟column`` key (sorted bytewise, so equal inputs produce
identical bytes)::

    header   12 B  magic "AVWS" | u32 version (1) | u32 n_records
    offsets  4*(n+1) B  u32 key-blob offsets (prefix-sum form)
    keys     var   UTF-8 key blob, keys sorted bytewise
    records  48*n B  per key: u64 n_obs | u64 n_passed | u64 n_flagged |
                     f64 pass_rate_sum | f64 latency_ms_sum | f64 min_pass_rate
    footer   8 B   crc32 u32 of all preceding bytes | magic "AVWS"

The offset table and fixed-width records make the file binary-searchable
from an mmap without parsing; :func:`read_day_summary` verifies the CRC
on every read (summaries are small).
"""

from __future__ import annotations

import struct
import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Mapping

from repro import durability
from repro.durability import cleanup_orphans, publish_bytes

#: Seal the WAL past this size even mid-day (keeps recovery scans fast).
DEFAULT_MAX_SEGMENT_BYTES = 4 * 1024 * 1024

_SUMMARY_MAGIC = b"AVWS"
_SUMMARY_VERSION = 1
_SUMMARY_HEADER = struct.Struct("<4sII")      # magic, version, n_records
_SUMMARY_RECORD = struct.Struct("<QQQddd")    # n_obs, n_passed, n_flagged,
                                              # pass_sum, latency_sum, min_pass
_SUMMARY_FOOTER = struct.Struct("<I4s")       # crc32 of preceding bytes, magic
#: Key separator inside summary keys (U+001F unit separator: cannot occur
#: in tenant/feed/column names, which the wire layer validates as non-empty
#: printable strings).
KEY_SEP = "\x1f"


class TornSummaryError(ValueError):
    """A day summary failed structural or CRC validation."""


@dataclass(frozen=True)
class Observation:
    """One (refresh, column) outcome — the time-series record."""

    ts: float
    tenant: str
    feed: str
    column: str
    refresh_id: int
    rule_kind: str
    passed: bool
    pass_rate: float
    severity: str
    latency_ms: float

    def key(self) -> str:
        return KEY_SEP.join((self.tenant, self.feed, self.column))

    def to_payload(self) -> dict[str, Any]:
        return {
            "ts": self.ts,
            "tenant": self.tenant,
            "feed": self.feed,
            "column": self.column,
            "refresh_id": self.refresh_id,
            "rule_kind": self.rule_kind,
            "passed": self.passed,
            "pass_rate": self.pass_rate,
            "severity": self.severity,
            "latency_ms": self.latency_ms,
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "Observation":
        return cls(
            ts=float(payload["ts"]),
            tenant=str(payload["tenant"]),
            feed=str(payload["feed"]),
            column=str(payload["column"]),
            refresh_id=int(payload["refresh_id"]),
            rule_kind=str(payload.get("rule_kind", "")),
            passed=bool(payload["passed"]),
            pass_rate=float(payload["pass_rate"]),
            severity=str(payload.get("severity", "")),
            latency_ms=float(payload.get("latency_ms", 0.0)),
        )


# -- binary day summaries ----------------------------------------------------


@dataclass
class DayStat:
    """Aggregate of one key's observations within one UTC day."""

    n_obs: int = 0
    n_passed: int = 0
    n_flagged: int = 0
    pass_rate_sum: float = 0.0
    latency_ms_sum: float = 0.0
    min_pass_rate: float = 1.0

    def fold(self, observation: Observation) -> None:
        self.n_obs += 1
        self.n_passed += 1 if observation.passed else 0
        self.n_flagged += 0 if observation.passed else 1
        self.pass_rate_sum += observation.pass_rate
        self.latency_ms_sum += observation.latency_ms
        self.min_pass_rate = min(self.min_pass_rate, observation.pass_rate)

    def merge(self, other: "DayStat") -> None:
        self.n_obs += other.n_obs
        self.n_passed += other.n_passed
        self.n_flagged += other.n_flagged
        self.pass_rate_sum += other.pass_rate_sum
        self.latency_ms_sum += other.latency_ms_sum
        self.min_pass_rate = min(self.min_pass_rate, other.min_pass_rate)

    def to_payload(self) -> dict[str, Any]:
        return {
            "n_obs": self.n_obs,
            "n_passed": self.n_passed,
            "n_flagged": self.n_flagged,
            "pass_rate_sum": self.pass_rate_sum,
            "latency_ms_sum": self.latency_ms_sum,
            "min_pass_rate": self.min_pass_rate,
        }


def write_day_summary(path: Path, stats: Mapping[str, DayStat]) -> None:
    """Serialize ``stats`` to the binary ``.avws`` layout, atomically.

    Keys are sorted bytewise so equal inputs produce identical bytes; the
    file is published via temp + ``os.replace`` so readers never observe
    a half-written summary (a crash leaves the previous version intact).
    """
    keys = sorted(stats, key=lambda k: k.encode("utf-8"))
    key_blobs = [key.encode("utf-8") for key in keys]
    buffer = bytearray()
    buffer += _SUMMARY_HEADER.pack(_SUMMARY_MAGIC, _SUMMARY_VERSION, len(keys))
    offset = 0
    for blob in key_blobs:
        buffer += struct.pack("<I", offset)
        offset += len(blob)
    buffer += struct.pack("<I", offset)
    for blob in key_blobs:
        buffer += blob
    for key in keys:
        stat = stats[key]
        buffer += _SUMMARY_RECORD.pack(
            stat.n_obs,
            stat.n_passed,
            stat.n_flagged,
            stat.pass_rate_sum,
            stat.latency_ms_sum,
            stat.min_pass_rate,
        )
    buffer += _SUMMARY_FOOTER.pack(zlib.crc32(bytes(buffer)), _SUMMARY_MAGIC)
    publish_bytes(path, bytes(buffer))


def read_day_summary(path: Path) -> dict[str, DayStat]:
    """Read and CRC-verify one ``.avws`` summary."""
    data = path.read_bytes()
    if len(data) < _SUMMARY_HEADER.size + _SUMMARY_FOOTER.size:
        raise TornSummaryError(f"summary {path} is truncated")
    magic, version, n_records = _SUMMARY_HEADER.unpack_from(data, 0)
    if magic != _SUMMARY_MAGIC or version != _SUMMARY_VERSION:
        raise TornSummaryError(f"summary {path} has a bad header")
    stored_crc, end_magic = _SUMMARY_FOOTER.unpack_from(
        data, len(data) - _SUMMARY_FOOTER.size
    )
    if end_magic != _SUMMARY_MAGIC:
        raise TornSummaryError(f"summary {path} has a torn footer")
    if zlib.crc32(data[: len(data) - _SUMMARY_FOOTER.size]) != stored_crc:
        raise TornSummaryError(f"summary {path} fails its CRC")
    offsets_at = _SUMMARY_HEADER.size
    keys_at = offsets_at + 4 * (n_records + 1)
    offsets = struct.unpack_from(f"<{n_records + 1}I", data, offsets_at)
    records_at = keys_at + offsets[-1]
    expected = records_at + n_records * _SUMMARY_RECORD.size + _SUMMARY_FOOTER.size
    if expected != len(data):
        raise TornSummaryError(f"summary {path} has a bad record section")
    stats: dict[str, DayStat] = {}
    for i in range(n_records):
        key = data[keys_at + offsets[i] : keys_at + offsets[i + 1]].decode("utf-8")
        fields = _SUMMARY_RECORD.unpack_from(
            data, records_at + i * _SUMMARY_RECORD.size
        )
        stats[key] = DayStat(*fields)
    return stats


def utc_day(ts: float) -> str:
    """``YYYYMMDD`` of a POSIX timestamp in UTC."""
    parts = time.gmtime(ts)
    return f"{parts.tm_year:04d}{parts.tm_mon:02d}{parts.tm_mday:02d}"


# -- the store ---------------------------------------------------------------


class TimeSeriesStore:
    """Per-refresh observation log with rotation and daily summaries."""

    def __init__(
        self,
        root: Path | str,
        max_segment_bytes: int = DEFAULT_MAX_SEGMENT_BYTES,
    ):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.max_segment_bytes = max_segment_bytes
        self.wal_path = self.root / "wal.ndjson"
        # Crash recovery: sweep orphaned publish temporaries (a crashed
        # summary rewrite), drop any torn WAL tail, learn the day + seq.
        cleanup_orphans(self.root)
        self._wal_records = durability.recover_crc_lines(self.wal_path)
        self._wal_day = (
            utc_day(float(self._wal_records[0]["ts"])) if self._wal_records else None
        )
        # Recovery truncated the WAL to its valid prefix; from here on the
        # length is tracked in memory, advanced by each append.
        self._wal_bytes = self.wal_path.stat().st_size if self._wal_records else 0
        self._seq = self._next_seq()

    def _next_seq(self) -> int:
        sealed = sorted(p.name for p in self.root.glob("seg-*.ndjson"))
        if not sealed:
            return 0
        return max(int(name.rsplit("-", 1)[1].split(".")[0]) for name in sealed) + 1

    # -- writes --------------------------------------------------------------

    def seal_due(self, ts: float) -> bool:
        """Whether an append stamped ``ts`` must seal the WAL first."""
        return self._wal_day is not None and (
            utc_day(ts) != self._wal_day
            or self._wal_bytes >= self.max_segment_bytes
        )

    def append(self, observations: Iterable[Observation]) -> None:
        """Append observations in one ``write`` + ``fsync``.

        Rotation (day change of the first observation, or size) is
        decided once, before the write; the in-memory view advances only
        after the append is durable, so a failed append leaves it as it was.
        """
        observations = list(observations)
        if not observations:
            return
        ts = observations[0].ts
        if self.seal_due(ts):
            self.seal()
        payloads = [observation.to_payload() for observation in observations]
        self._wal_bytes += durability.append_crc_lines(self.wal_path, payloads)
        self._wal_records.extend(payloads)
        if self._wal_day is None:
            self._wal_day = utc_day(ts)

    def seal(self) -> Path | None:
        """Seal the active WAL into an immutable segment + day summary."""
        if self._wal_day is None or not self._wal_records:
            return None
        day = self._wal_day
        segment = self.root / f"seg-{day}-{self._seq:06d}.ndjson"
        self._seq += 1
        # The WAL's contents were fsync'd at append time; make the rename
        # itself durable so a crash cannot resurrect the sealed segment
        # under its WAL name and double-fold it into the summary.
        durability.durable_replace(self.wal_path, segment)
        stats: dict[str, DayStat] = {}
        summary_path = self.summary_path(day)
        if summary_path.exists():
            stats = read_day_summary(summary_path)
        for payload in self._wal_records:
            observation = Observation.from_payload(payload)
            stats.setdefault(observation.key(), DayStat()).fold(observation)
        write_day_summary(summary_path, stats)
        self._wal_records = []
        self._wal_bytes = 0
        self._wal_day = None
        return segment

    # -- reads ---------------------------------------------------------------

    def summary_path(self, day: str) -> Path:
        return self.root / f"day-{day}.avws"

    def summary_days(self) -> list[str]:
        return sorted(
            p.name[len("day-") : -len(".avws")]
            for p in self.root.glob("day-*.avws")
        )

    def segments(self) -> list[Path]:
        return sorted(self.root.glob("seg-*.ndjson"))

    def records(self) -> list[Observation]:
        """Every observation, sealed segments first, then the live WAL."""
        out: list[Observation] = []
        for segment in self.segments():
            payloads, _ = durability.read_crc_lines(segment)
            out.extend(Observation.from_payload(p) for p in payloads)
        out.extend(self.wal_records())
        return out

    def wal_records(self) -> list[Observation]:
        """The live WAL's observations, in append order (replay input)."""
        return [Observation.from_payload(p) for p in self._wal_records]

    def tail(self, limit: int) -> list[Observation]:
        """The newest ``limit`` observations (report rendering)."""
        records = self.records()
        return records[-limit:] if limit else records

    def wal_record_count(self) -> int:
        return len(self._wal_records)
