"""Durable publish primitives shared by the index, watch, and dist layers.

Every on-disk artifact in this repo is published with the same
discipline so a crash (power loss, SIGKILL, ENOSPC) at any instant
leaves either the old state or the new state — never a torn file that a
reader could silently serve:

1. write the payload to ``<final>.tmp`` in the destination directory;
2. flush and ``fsync`` the temp file handle (data reaches the device
   before the rename can be persisted);
3. ``os.replace`` the temp over the final name (atomic on POSIX);
4. ``fsync`` the parent directory (the rename itself is persisted).

``publish_bytes`` packages the whole sequence; ``durable_replace`` and
``fsync_file``/``fsync_dir`` expose the individual steps for callers
that stream their payload.  ENOSPC (and EDQUOT) during a publish is
mapped to the typed :class:`DurabilityError` after removing the partial
temp output, so callers never leave half-written garbage behind and can
distinguish "disk full" from logic errors.

``cleanup_orphans`` removes ``*.tmp`` leftovers from a crashed previous
publish when a store directory is (re)opened — safe under this repo's
single-writer discipline, where at most one builder mutates a store
directory at a time.

The CRC-framed NDJSON codec (one ``<crc32:08x> <canonical-json>`` line
per record, the trailing newline acting as the commit marker) lives
here too so both the watch WAL and the dist build journal share one
implementation.  ``recover_crc_lines`` truncates a torn tail in place,
which is how append-only logs recover the pre-crash state after a kill
mid-append.
"""

from __future__ import annotations

import errno
import json
import os
import zlib
from pathlib import Path
from typing import Any, BinaryIO, Iterable

__all__ = [
    "DurabilityError",
    "TMP_SUFFIX",
    "fsync_file",
    "fsync_dir",
    "durable_replace",
    "durable_publish_file",
    "publish_bytes",
    "cleanup_orphans",
    "is_no_space",
    "format_crc_line",
    "parse_crc_line",
    "read_crc_lines",
    "recover_crc_lines",
    "append_crc_lines",
]

#: Suffix for in-flight publish temporaries; ``cleanup_orphans`` sweeps it.
TMP_SUFFIX = ".tmp"

#: errno values that mean "the device is out of room", not "bad logic".
_NO_SPACE_ERRNOS = frozenset(
    {errno.ENOSPC} | ({errno.EDQUOT} if hasattr(errno, "EDQUOT") else set())
)


class DurabilityError(OSError):
    """A publish failed for lack of disk space; partial output was removed.

    Raised in place of a raw ``OSError(ENOSPC/EDQUOT)`` so callers can
    distinguish an environmental "disk full" (retryable after freeing
    space, nothing half-written left behind) from a logic error.
    """


def is_no_space(exc: OSError) -> bool:
    """Does this OSError mean the device is out of room (ENOSPC/EDQUOT)?"""
    return exc.errno in _NO_SPACE_ERRNOS


def fsync_file(handle: BinaryIO | Any) -> None:
    """Flush and fsync an open file handle (data reaches the device)."""
    handle.flush()
    os.fsync(handle.fileno())


def fsync_dir(path: Path) -> None:
    """fsync a directory so renames/creates inside it are persisted.

    Best-effort on platforms whose directories cannot be opened for
    sync (e.g. Windows); a failure to *open* the directory is ignored,
    a failed fsync on an open fd is not.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - non-POSIX directory semantics
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def durable_replace(tmp: Path, final: Path) -> None:
    """Atomically rename ``tmp`` over ``final`` and fsync the parent dir.

    The caller must already have fsync'd the source file's contents
    (via :func:`fsync_file` on the write handle) — otherwise the rename
    can be persisted before the data it points at.
    """
    os.replace(tmp, final)
    fsync_dir(final.parent)


def durable_publish_file(src: Path, final: Path) -> None:
    """Publish an already-written file: fsync its contents, then rename.

    For callers whose payload was streamed to ``src`` by other code
    (e.g. a consolidated run file) and who only now make it visible
    under its final name.
    """
    with open(src, "rb") as handle:
        os.fsync(handle.fileno())
    durable_replace(src, final)


def publish_bytes(path: Path, data: bytes) -> None:
    """Atomically and durably publish ``data`` at ``path``.

    Writes ``<path>.tmp``, fsyncs the handle, renames over ``path``,
    and fsyncs the parent directory.  On ENOSPC the partial temp file
    is removed and :class:`DurabilityError` is raised; other OSErrors
    propagate unchanged (after the same cleanup).
    """
    tmp = path.with_name(path.name + TMP_SUFFIX)
    try:
        with open(tmp, "wb") as handle:
            handle.write(data)
            fsync_file(handle)
        durable_replace(tmp, path)
    except OSError as exc:
        try:
            tmp.unlink()
        except OSError:
            pass
        if is_no_space(exc):
            raise DurabilityError(
                exc.errno, f"out of disk space publishing {path.name}"
            ) from exc
        raise


def cleanup_orphans(directory: Path, patterns: Iterable[str] = (f"*{TMP_SUFFIX}",)) -> list[Path]:
    """Remove leftover publish temporaries from a crashed prior writer.

    Returns the paths removed (sorted), for logging.  Only call this
    from the single writer that owns ``directory`` — sweeping another
    process's in-flight temp file would abort its publish.
    """
    if not directory.is_dir():
        return []
    removed: list[Path] = []
    for pattern in patterns:
        for orphan in sorted(directory.glob(pattern)):
            try:
                if orphan.is_dir():
                    _remove_tree(orphan)
                else:
                    orphan.unlink()
            except OSError:
                continue
            removed.append(orphan)
    return removed


def _remove_tree(root: Path) -> None:
    for child in sorted(root.iterdir()):
        if child.is_dir():
            _remove_tree(child)
        else:
            child.unlink()
    root.rmdir()


# ---------------------------------------------------------------------------
# CRC-framed NDJSON (append-only log codec)
# ---------------------------------------------------------------------------


def format_crc_line(record: dict[str, Any]) -> str:
    """Frame one record as ``<crc32:08x> <canonical-json>`` (no newline).

    The JSON is canonical (sorted keys, compact, raw unicode) so equal
    records frame to identical bytes — the same convention as
    ``repro.validate.rule.dumps_canonical``, inlined here to keep this
    module dependency-free.
    """
    payload = json.dumps(
        record, sort_keys=True, separators=(",", ":"), ensure_ascii=False
    )
    crc = zlib.crc32(payload.encode("utf-8")) & 0xFFFFFFFF
    return f"{crc:08x} {payload}"


def parse_crc_line(line: str) -> dict[str, Any] | None:
    """Decode one framed line; ``None`` if the frame or CRC is invalid."""
    if len(line) < 10 or line[8] != " ":
        return None
    crc_text, payload = line[:8], line[9:]
    try:
        expected = int(crc_text, 16)
    except ValueError:
        return None
    if zlib.crc32(payload.encode("utf-8")) & 0xFFFFFFFF != expected:
        return None
    try:
        record = json.loads(payload)
    except json.JSONDecodeError:
        return None
    if not isinstance(record, dict):
        return None
    return record


def read_crc_lines(path: Path) -> tuple[list[dict[str, Any]], int]:
    """Read a CRC-framed log, stopping at the first torn/invalid frame.

    Returns ``(records, valid_bytes)`` where ``valid_bytes`` is the
    byte offset of the end of the last intact, newline-terminated
    frame — everything past it is a torn tail from a crashed append.
    """
    records: list[dict[str, Any]] = []
    valid_bytes = 0
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return records, valid_bytes
    offset = 0
    for raw in data.split(b"\n"):
        end = offset + len(raw) + 1
        if end > len(data):
            break  # final fragment with no newline: uncommitted tail
        record = parse_crc_line(raw.decode("utf-8", errors="replace"))
        if record is None:
            break  # torn or corrupt frame: stop, do not resync past it
        records.append(record)
        valid_bytes = end
        offset = end
    return records, valid_bytes


def recover_crc_lines(path: Path) -> list[dict[str, Any]]:
    """Read a CRC-framed log and truncate any torn tail in place.

    The recovery path for append-only logs after a crash: the intact
    prefix is the recovered state; the torn tail (a partially flushed
    final append) is discarded so future appends start from a clean
    frame boundary.
    """
    records, valid_bytes = read_crc_lines(path)
    try:
        size = path.stat().st_size
    except FileNotFoundError:
        return records
    if valid_bytes < size:
        with open(path, "r+b") as handle:
            handle.truncate(valid_bytes)
            os.fsync(handle.fileno())
    return records


def append_crc_lines(path: Path, records: Iterable[dict[str, Any]]) -> int:
    """Append framed records and fsync; newline is the commit marker.

    Returns the number of bytes appended (0 when ``records`` is empty),
    so a caller can track the log's length without a ``stat``.

    On ENOSPC the partial append is truncated away (the log is restored
    to its pre-append length) and :class:`DurabilityError` is raised,
    so a reopened log never sees a half-written frame that happens to
    checksum.
    """
    lines = [format_crc_line(record) for record in records]
    if not lines:
        return 0
    blob = ("\n".join(lines) + "\n").encode("utf-8")
    with open(path, "ab") as handle:
        base = handle.tell()
        try:
            handle.write(blob)
            fsync_file(handle)
        except OSError as exc:
            if is_no_space(exc):
                try:
                    handle.truncate(base)
                except OSError:
                    pass
                raise DurabilityError(
                    exc.errno, f"out of disk space appending to {path.name}"
                ) from exc
            raise
    return len(blob)
