"""The durable write-ahead rating log.

A :class:`RatingLog` is an append-only sequence of rating **batches**,
exactly the units :meth:`~repro.engine.sharded_sweep.IncrementalSweep.update`
consumes: the writer appends each batch to the log *before* applying it
to the in-memory model, so after any crash the log holds a superset of
what the model absorbed, and recovery (load the last checkpoint
snapshot, replay the log tail — :mod:`repro.durability.manager`) can
rebuild the exact pre-crash state.

On-disk format — a directory of segment files::

    segment-<first_seq:016d>.wal
        8-byte segment magic  b"XMAPWAL1"
        frame*                one frame per appended batch

    frame = header + payload
        header  = <u64 seq> <u32 payload_length> <u32 crc>
        crc     = crc32( <u64 seq> <u32 payload_length> + payload )
        payload = UTF-8 JSON [[user, item, value, timestep], ...]

The CRC covers the header's seq/length fields too, so a corrupted
length cannot silently mis-frame the stream, and floats travel through
``repr`` (shortest round-trip), so a replayed value is **bit-identical**
to the appended one. Timesteps ride along, preserving
:class:`~repro.data.ratings.Rating` equality end to end.

Durability discipline:

* **Group commit** — every append is written (and flushed to the OS)
  immediately, but ``fsync`` runs once per *group_commit* appends (or
  on :meth:`sync`, or when ``sync=True`` is passed). ``durable_seq``
  tracks the watermark an fsync has covered; everything above it may
  vanish in a power loss, which recovery treats like any other torn
  tail.
* **Rotation** — a segment exceeding *segment_bytes* is fsynced and
  closed, and the next batch opens a new segment (directory entry
  fsynced, so the file name survives the crash too).
* **Repair** — opening a log scans every frame. The first invalid
  frame (bad magic, short header, bad CRC, non-contiguous sequence
  number, torn tail) ends the log: everything from it on is discarded
  by truncating the segment to the last valid record and deleting any
  later segments. A read-only open (``readonly=True``) reports the
  same diagnosis without touching the files — what ``repro log-info``
  uses.
* **Pruning** — :meth:`prune` deletes segments entirely at or below a
  checkpoint watermark; the checkpoint pointer itself lives with the
  snapshot manager, not in the log.

Every dangerous transition (frame write, fsync, rotation, truncation,
unlink) is bracketed by :func:`~repro.faults.plan.fault_point` hooks,
and when a fault plan is armed the frame write is split around a fault
point so a death there leaves a **genuinely torn frame** through the
normal code path.
"""

from __future__ import annotations

import json
import os
import struct
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple
from zlib import crc32

from repro.data.ratings import Rating
from repro.errors import DurabilityError
from repro.faults.plan import active_plan, fault_point
from repro.obs.metrics import get_registry

_M_APPENDS = get_registry().counter(
    "wal_appends_total", "batches appended to the write-ahead log"
)
_M_FSYNCS = get_registry().counter(
    "wal_fsyncs_total", "fsync barriers the group-commit discipline ran"
)
_M_FSYNC_SECONDS = get_registry().histogram(
    "wal_fsync_seconds", "wall seconds per WAL fsync barrier"
)

SEGMENT_MAGIC = b"XMAPWAL1"
_HEADER = struct.Struct("<QII")  # seq, payload length, crc
_CRC_PREFIX = struct.Struct("<QI")  # the header fields the crc covers
_SEGMENT_GLOB = "segment-*.wal"
#: Cap on a single frame's payload: a "length" beyond this is treated
#: as corruption even if the CRC were to collide.
MAX_PAYLOAD_BYTES = 1 << 30


def _segment_name(first_seq: int) -> str:
    return f"segment-{first_seq:016d}.wal"


def _fsync_dir(path: Path) -> None:
    """fsync a directory entry so created/deleted names survive a
    power loss (POSIX requires syncing the parent directory)."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _encode_batch(ratings: Iterable[Rating]) -> bytes:
    return json.dumps(
        [[r.user, r.item, r.value, r.timestep] for r in ratings],
        separators=(",", ":"),
        ensure_ascii=False,
    ).encode("utf-8")


def _decode_batch(payload: bytes) -> tuple[Rating, ...]:
    records = json.loads(payload.decode("utf-8"))
    return tuple(
        Rating(user, item, float(value), int(timestep))
        for user, item, value, timestep in records
    )


class LogRecord(NamedTuple):
    """One replayed batch: its sequence number and the ratings."""

    seq: int
    ratings: tuple[Rating, ...]


@dataclass(frozen=True)
class SegmentInfo:
    """Diagnosis of one scanned segment file."""

    path: Path
    first_seq: int          # from the file name
    last_seq: int           # last *valid* record (first_seq - 1 if none)
    n_records: int          # valid records
    size_bytes: int         # current file size
    valid_bytes: int        # prefix covered by valid records
    defect: str | None      # why the scan stopped early, or None

    @property
    def torn(self) -> bool:
        return self.defect is not None


@dataclass(frozen=True)
class LogInfo:
    """What :meth:`RatingLog.info` / ``repro log-info`` reports."""

    directory: Path
    segments: tuple[SegmentInfo, ...]
    last_seq: int
    durable_seq: int
    total_bytes: int
    n_records: int
    repairs: tuple[str, ...]


def _scan_segment(path: Path, first_seq: int) -> SegmentInfo:
    """Validate one segment's frames; never modifies the file."""
    data = path.read_bytes()
    size = len(data)
    if size < len(SEGMENT_MAGIC) or not data.startswith(SEGMENT_MAGIC):
        return SegmentInfo(
            path, first_seq, first_seq - 1, 0, size, 0, "bad or torn segment magic"
        )
    offset = len(SEGMENT_MAGIC)
    expected = first_seq
    n_records = 0
    defect = None
    while offset < size:
        if offset + _HEADER.size > size:
            defect = f"torn frame header at byte {offset}"
            break
        seq, length, crc = _HEADER.unpack_from(data, offset)
        if length > MAX_PAYLOAD_BYTES:
            defect = f"implausible frame length {length} at byte {offset}"
            break
        end = offset + _HEADER.size + length
        if end > size:
            defect = f"torn frame payload at byte {offset}"
            break
        payload = data[offset + _HEADER.size : end]
        if crc32(_CRC_PREFIX.pack(seq, length) + payload) != crc:
            defect = f"crc mismatch at byte {offset}"
            break
        if seq != expected:
            defect = (
                f"sequence gap at byte {offset} "
                f"(got {seq}, expected {expected})"
            )
            break
        offset = end
        expected = seq + 1
        n_records += 1
    return SegmentInfo(
        path,
        first_seq,
        expected - 1,
        n_records,
        size,
        offset if defect is None else offset,
        defect,
    )


def _list_segments(directory: Path) -> list[tuple[int, Path]]:
    found = []
    for path in directory.glob(_SEGMENT_GLOB):
        stem = path.name[len("segment-") : -len(".wal")]
        try:
            found.append((int(stem), path))
        except ValueError:
            raise DurabilityError(
                f"unrecognised file in log directory: {path.name}"
            ) from None
    found.sort()
    return found


class RatingLog:
    """Append-only, CRC-framed, segment-rotated rating batch log.

    Args:
        directory: the log directory (created unless *readonly*).
        segment_bytes: rotate to a new segment once the active one
            exceeds this size (checked before each append, so a
            segment holds at least one frame however large).
        group_commit: fsync once per this many appends. 1 fsyncs every
            batch (every acknowledged append is durable); larger
            values amortise the fsync across a commit group and let
            ``durable_seq`` lag ``last_seq`` until :meth:`sync`.
        fsync: disable fsync entirely (benchmark baseline / tests on
            throwaway data). ``durable_seq`` then never advances past
            the last explicit :meth:`sync`'s OS-flush, which is the
            honest statement of what such a log guarantees.
        readonly: diagnose and replay only — never repair, append, or
            create the directory.

    A read-write open **repairs** the log first: the tail past the
    first invalid frame is truncated (crash-safe: the truncation is
    fsynced) and later segments are deleted, so the surviving prefix
    is exactly the replayable history. The repair log is kept in
    :attr:`repairs` for the recovery report.
    """

    def __init__(
        self,
        directory,
        *,
        segment_bytes: int = 4 << 20,
        group_commit: int = 1,
        fsync: bool = True,
        readonly: bool = False,
    ) -> None:
        if segment_bytes < 1:
            raise DurabilityError(f"segment_bytes must be >= 1, got {segment_bytes}")
        if group_commit < 1:
            raise DurabilityError(f"group_commit must be >= 1, got {group_commit}")
        self.directory = Path(directory)
        self.segment_bytes = segment_bytes
        self.group_commit = group_commit
        self.fsync_enabled = fsync
        self.readonly = readonly
        self.repairs: tuple[str, ...] = ()
        self._file = None
        self._pending = 0
        if not readonly:
            self.directory.mkdir(parents=True, exist_ok=True)
        elif not self.directory.is_dir():
            raise DurabilityError(f"no log directory at {self.directory}")

        self._segments: list[SegmentInfo] = []
        names = _list_segments(self.directory)
        repairs: list[str] = []
        truncate_from: int | None = None
        for pos, (first_seq, path) in enumerate(names):
            if truncate_from is not None:
                repairs.append(
                    f"dropping segment {path.name}: follows a "
                    f"corrupt/torn record"
                )
                continue
            if pos and first_seq != self._segments[-1].last_seq + 1:
                repairs.append(
                    f"dropping segment {path.name}: sequence gap after "
                    f"{self._segments[-1].path.name}"
                )
                truncate_from = pos
                continue
            info = _scan_segment(path, first_seq)
            if info.torn:
                repairs.append(
                    f"truncating {path.name} to {info.valid_bytes} "
                    f"bytes ({info.n_records} records): {info.defect}"
                )
                truncate_from = pos + 1
            self._segments.append(info)

        if not readonly and (repairs or any(s.torn for s in self._segments)):
            self._repair(names, truncate_from)
        self.repairs = tuple(repairs)
        self.last_seq = self._segments[-1].last_seq if self._segments else 0
        # Post-repair, every surviving record is on disk; after a
        # read-write open the history below last_seq is durable.
        self.durable_seq = self.last_seq

    # ------------------------------------------------------------------
    # Repair / scanning
    # ------------------------------------------------------------------

    def _repair(self, names: list[tuple[int, Path]], truncate_from: int | None) -> None:
        """Make disk match the validated prefix: truncate the first
        torn segment to its valid bytes, delete everything after.

        A segment truncated below its 8-byte magic (a crash while the
        magic itself was being written) is rewritten as a valid empty
        segment rather than deleted: its *file name* pins the next
        sequence number, which must survive even when every record is
        torn away — otherwise a post-recovery writer would reissue
        already-checkpointed sequence numbers. Idempotent: a crash
        mid-repair leaves a state the next open repairs again.
        """
        keep = {info.path for info in self._segments}
        for _, path in names:
            if path not in keep:
                fault_point("wal.repair.unlink")
                path.unlink()
        for pos, info in enumerate(self._segments):
            if not info.torn:
                continue
            fault_point("wal.repair.truncate")
            with open(info.path, "r+b") as handle:
                if info.valid_bytes < len(SEGMENT_MAGIC):
                    handle.truncate(0)
                    handle.write(SEGMENT_MAGIC)
                else:
                    handle.truncate(info.valid_bytes)
                handle.flush()
                os.fsync(handle.fileno())
            self._segments[pos] = SegmentInfo(
                info.path,
                info.first_seq,
                info.last_seq,
                info.n_records,
                max(info.valid_bytes, len(SEGMENT_MAGIC)),
                max(info.valid_bytes, len(SEGMENT_MAGIC)),
                None,
            )
        fault_point("wal.repair.dirsync")
        _fsync_dir(self.directory)

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------

    def _require_writable(self) -> None:
        if self.readonly:
            raise DurabilityError("this log was opened readonly")

    def _active_file(self, frame_bytes: int):
        """The open handle for the active segment, rotating first when
        the segment is over budget."""
        if self._segments:
            active = self._segments[-1]
            if (
                self._file is not None
                and active.size_bytes + frame_bytes > self.segment_bytes
                and active.n_records > 0
            ):
                self.sync()
                fault_point("wal.rotate.close")
                self._file.close()
                self._file = None
        if self._file is None:
            if (
                not self._segments
                or self._segments[-1].size_bytes + frame_bytes > self.segment_bytes
                and self._segments[-1].n_records > 0
            ):
                first_seq = self.last_seq + 1
                path = self.directory / _segment_name(first_seq)
                fault_point("wal.rotate.create")
                self._file = open(path, "xb")
                self._file.write(SEGMENT_MAGIC)
                self._file.flush()
                fault_point("wal.rotate.dirsync")
                _fsync_dir(self.directory)
                fresh = SegmentInfo(
                    path,
                    first_seq,
                    first_seq - 1,
                    0,
                    len(SEGMENT_MAGIC),
                    len(SEGMENT_MAGIC),
                    None,
                )
                self._segments.append(fresh)
            else:
                self._file = open(self._segments[-1].path, "ab")
        return self._file

    def append(self, ratings: Iterable[Rating], sync: bool | None = None) -> int:
        """Append one batch; returns its sequence number.

        The frame reaches the OS before this returns (a crash of *this
        process* never loses an acknowledged append); it reaches the
        *disk* per the group-commit discipline, or immediately when
        ``sync=True``.
        """
        self._require_writable()
        payload = _encode_batch(ratings)
        seq = self.last_seq + 1
        crc = crc32(_CRC_PREFIX.pack(seq, len(payload)) + payload)
        frame = _HEADER.pack(seq, len(payload), crc) + payload
        handle = self._active_file(len(frame))
        fault_point("wal.append.write")
        if active_plan() is not None and len(frame) > 1:
            # Under an armed fault plan the frame lands in two flushed
            # halves with a fault point between them, so dying there
            # leaves a real torn frame for recovery to truncate.
            split = max(1, len(frame) // 2)
            handle.write(frame[:split])
            handle.flush()
            fault_point("wal.append.torn")
            handle.write(frame[split:])
        else:
            handle.write(frame)
        handle.flush()
        active = self._segments[-1]
        self._segments[-1] = SegmentInfo(
            active.path,
            active.first_seq,
            seq,
            active.n_records + 1,
            active.size_bytes + len(frame),
            active.valid_bytes + len(frame),
            None,
        )
        self.last_seq = seq
        self._pending += 1
        _M_APPENDS.inc()
        if sync or (sync is None and self._pending >= self.group_commit):
            self.sync()
        return seq

    def sync(self) -> int:
        """fsync the active segment; returns the durable watermark."""
        self._require_writable()
        if self._pending and self._file is not None:
            fault_point("wal.fsync")
            if self.fsync_enabled:
                started = time.perf_counter()
                os.fsync(self._file.fileno())
                _M_FSYNC_SECONDS.observe(time.perf_counter() - started)
                _M_FSYNCS.inc()
                self.durable_seq = self.last_seq
            self._pending = 0
        return self.durable_seq

    # ------------------------------------------------------------------
    # Replay / pruning / diagnosis
    # ------------------------------------------------------------------

    def replay(self, after_seq: int = 0) -> Iterator[LogRecord]:
        """Yield every valid record with ``seq > after_seq`` in order.

        Reads the scanned-valid prefix from disk, so it replays exactly
        the surviving history however the writer died. The active
        handle is flushed first so a writer can replay its own log.
        """
        if self._file is not None and self._pending:
            self._file.flush()
        for info in self._segments:
            if info.last_seq <= after_seq and info.n_records:
                continue
            data = info.path.read_bytes()[:info.valid_bytes]
            offset = len(SEGMENT_MAGIC)
            while offset < len(data):
                seq, length, _ = _HEADER.unpack_from(data, offset)
                payload = data[offset + _HEADER.size : offset + _HEADER.size + length]
                offset += _HEADER.size + length
                if seq > after_seq:
                    yield LogRecord(seq, _decode_batch(payload))

    def prune(self, upto_seq: int) -> int:
        """Delete whole segments whose records are all ``<= upto_seq``
        (the checkpoint watermark). The active segment survives even
        when fully covered — appends continue into it. Returns the
        number of segments deleted."""
        self._require_writable()
        deleted = 0
        while len(self._segments) > 1 and self._segments[0].last_seq <= upto_seq:
            info = self._segments.pop(0)
            fault_point("wal.prune.unlink")
            info.path.unlink()
            deleted += 1
        if deleted:
            fault_point("wal.prune.dirsync")
            _fsync_dir(self.directory)
        return deleted

    def reset_to(self, seq: int) -> None:
        """Discard every segment and restart numbering at ``seq + 1``.

        The recovery escape hatch for a log that *lost* records below
        an adopted checkpoint watermark (possible only with ``fsync``
        off, or a disk that dropped synced writes): those frames are
        already baked into the checkpoint, so the whole log is dead
        history — replace it with one empty segment whose name pins the
        next sequence number.
        """
        self._require_writable()
        if self._file is not None:
            self._file.close()
            self._file = None
        for info in self._segments:
            fault_point("wal.reset.unlink")
            info.path.unlink()
        path = self.directory / _segment_name(seq + 1)
        fault_point("wal.reset.create")
        with open(path, "xb") as handle:
            handle.write(SEGMENT_MAGIC)
            handle.flush()
            os.fsync(handle.fileno())
        _fsync_dir(self.directory)
        fresh = SegmentInfo(
            path, seq + 1, seq, 0, len(SEGMENT_MAGIC), len(SEGMENT_MAGIC), None
        )
        self._segments = [fresh]
        self.last_seq = seq
        self.durable_seq = seq
        self._pending = 0

    def info(self) -> LogInfo:
        return LogInfo(
            directory=self.directory,
            segments=tuple(self._segments),
            last_seq=self.last_seq,
            durable_seq=self.durable_seq,
            total_bytes=sum(s.size_bytes for s in self._segments),
            n_records=sum(s.n_records for s in self._segments),
            repairs=self.repairs,
        )

    @property
    def total_bytes(self) -> int:
        return sum(s.size_bytes for s in self._segments)

    def close(self) -> None:
        if self._file is not None:
            if self._pending:
                self.sync()
            self._file.close()
            self._file = None

    def __enter__(self) -> "RatingLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RatingLog({str(self.directory)!r}, "
            f"segments={len(self._segments)}, "
            f"last_seq={self.last_seq}, "
            f"durable_seq={self.durable_seq})"
        )
