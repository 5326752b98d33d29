"""Write-ahead spool: crash-durable storage for acked documents.

The fabric's zero-loss contract is *acked implies stored-or-replayed*:
once a shipper has read ``OK`` for a frame, no crash or restart of the
collection service may lose the documents it carried.  The spool is the
mechanism — every document is appended to an on-disk segment file and
fsynced *before* the ack goes out, and a restarting server replays the
segments back into its store before accepting traffic.

Format (one record, all integers big-endian)::

    +--------+--------+----------------------+
    | length | crc32  | payload (length B)   |
    |  u32   |  u32   |                      |
    +--------+--------+----------------------+

A record is valid only when its full payload is present *and* the CRC
matches.  Replay walks segments in sequence order and stops at the
first short or corrupt record — the *torn tail* a crash mid-write
leaves behind — truncating the segment back to the last valid record
so the file is clean for whoever appends next.  Because acks are sent
only after fsync, a torn record is by construction un-acked: dropping
it loses nothing the fabric promised to keep.

Writes are buffered and group-committed: :meth:`SpoolWriter.append`
stages records in the file's userspace buffer and :meth:`commit`
flushes + fsyncs once for the whole group — the ingest fabric commits
each shard's spool once per event-loop pass, not once per document.
After an I/O error, :meth:`SpoolWriter.abort` rolls the spool back to
its last :meth:`commit` — also across a segment rotation, which syncs
the old segment early — so records whose frames were refused never
replay.

Tamper evidence (optional): a writer given a deployment ``key``
HMAC-chains every record.  Each keyed segment opens with a marker
record (payload :data:`_MAGIC`), seeds its chain with
``HMAC(key, segment_basename)``, and stores each document as
``mac || body`` where ``mac = HMAC(key, previous_mac || body)`` — so a
forged body, a record spliced in from elsewhere, a reordering, or a
whole segment renamed into another spool all break the chain and
replay refuses with :class:`SpoolAuthenticationError`.  The CRC layer
underneath is unchanged: a torn tail (short or CRC-bad record) is
still the crash signature and still truncates silently, because a torn
record is by construction un-acked.  Spools written without a key stay
byte-identical to the legacy format and replay exactly as before.
"""

from __future__ import annotations

import hashlib
import hmac
import os
import struct
import zlib
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

_RECORD = struct.Struct(">II")  # payload length, crc32

#: default bytes per segment before the writer rotates to a fresh file
SEGMENT_BYTES = 8 * 1024 * 1024

#: first-record payload marking a segment as HMAC-chained
_MAGIC = b"healers-spool-hmac-v1"

#: bytes of HMAC-SHA256 digest prefixed to each keyed record's payload
_MAC_SIZE = 32


class SpoolAuthenticationError(RuntimeError):
    """A spool record failed (or demanded) HMAC verification."""


def _chain_seed(key: bytes, path: str) -> bytes:
    """The segment's chain seed: its basename keyed under ``key``, so a
    segment moved into another spool (or renumbered) cannot verify."""
    return hmac.new(key, os.path.basename(path).encode(),
                    hashlib.sha256).digest()


def _chain_next(key: bytes, previous: bytes, body: bytes) -> bytes:
    return hmac.new(key, previous + body, hashlib.sha256).digest()


def _segment_name(name: str, sequence: int) -> str:
    return f"{name}-{sequence:08d}.wal"


def _segment_sequence(filename: str, name: str) -> Optional[int]:
    prefix, suffix = f"{name}-", ".wal"
    if not (filename.startswith(prefix) and filename.endswith(suffix)):
        return None
    digits = filename[len(prefix):-len(suffix)]
    return int(digits) if digits.isdigit() else None


def list_segments(directory: str, name: str) -> List[str]:
    """Absolute segment paths for one spool, in append order."""
    try:
        entries = os.listdir(directory)
    except FileNotFoundError:
        return []
    numbered = sorted(
        (seq, filename) for filename in entries
        if (seq := _segment_sequence(filename, name)) is not None
    )
    return [os.path.join(directory, filename) for _, filename in numbered]


@dataclass
class ReplayResult:
    """What one spool replay recovered (and what it had to drop)."""

    records: int = 0
    bytes_recovered: int = 0
    segments: int = 0
    #: segments whose tail was torn and truncated back to the last
    #: valid record — (path, valid_offset, original_size)
    truncated: List[Tuple[str, int, int]] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.truncated is None:
            self.truncated = []


class SpoolWriter:
    """Append-only, group-committed segment writer for one spool."""

    def __init__(self, directory: str, name: str = "spool",
                 segment_bytes: int = SEGMENT_BYTES, fsync: bool = True,
                 key: Optional[bytes] = None):
        self.directory = directory
        self.name = name
        self.segment_bytes = segment_bytes
        self.fsync = fsync
        self.key = key
        self._mac = b""
        os.makedirs(directory, exist_ok=True)
        existing = list_segments(directory, name)
        if existing:
            last = os.path.basename(existing[-1])
            next_seq = (_segment_sequence(last, name) or 0) + 1
        else:
            next_seq = 0
        self._sequence = next_seq
        self._handle = None
        self._written = 0
        #: where the last :meth:`commit` left the spool — its open
        #: segment and that segment's length — and the segments opened
        #: since; :meth:`abort` rolls back to this point
        self._mark: Optional[Tuple[str, int]] = None
        self._opened: List[str] = []
        #: records staged since the last :meth:`commit`
        self.uncommitted = 0
        #: records durably committed over this writer's lifetime
        self.committed = 0
        #: fsync calls issued (the batching evidence)
        self.syncs = 0

    # ------------------------------------------------------------------

    def _open_segment(self):
        path = os.path.join(self.directory,
                            _segment_name(self.name, self._sequence))
        self._sequence += 1
        handle = open(path, "ab")
        self._opened.append(path)
        self._written = 0
        if self.key is not None:
            # keyed segments open with the marker record and seed the
            # chain from the segment's own name; the marker is not a
            # document, so it never counts toward uncommitted/committed
            self._mac = _chain_seed(self.key, path)
            record = _frame(_MAGIC)
            handle.write(record)
            self._written += len(record)
        return handle

    def append(self, payload: bytes) -> None:
        """Stage one record (durable only after :meth:`commit`)."""
        if self._handle is None or self._written >= self.segment_bytes:
            if self._handle is not None:
                # the full segment is synced now, but the rollback point
                # stays at the last commit()
                self._sync()
                handle, self._handle = self._handle, None
                handle.close()
            self._handle = self._open_segment()
        if self.key is not None:
            self._mac = _chain_next(self.key, self._mac, payload)
            payload = self._mac + payload
        record = _frame(payload)
        self._handle.write(record)
        self._written += len(record)
        self.uncommitted += 1

    def commit(self) -> int:
        """Flush + fsync everything staged; returns records made durable."""
        staged = self.uncommitted
        if staged and self._handle is not None:
            self._sync()
        self.committed += staged
        self.uncommitted = 0
        self._mark = (None if self._handle is None
                      else (self._handle.name, self._written))
        self._opened = []
        return staged

    def _sync(self) -> None:
        self._handle.flush()
        if self.fsync:
            os.fsync(self._handle.fileno())
        self.syncs += 1

    def abort(self) -> None:
        """Drop every record appended since the last commit, best effort.

        Segments opened since then are deleted and the segment that was
        open at the commit is truncated back to its committed length;
        the next :meth:`append` starts a fresh segment.
        """
        handle, self._handle = self._handle, None
        self.uncommitted = 0
        if handle is not None:
            try:
                handle.close()
            except OSError:
                pass
        for path in self._opened:
            try:
                os.unlink(path)
            except OSError:
                pass
        self._opened = []
        if self._mark is not None:
            try:
                os.truncate(*self._mark)
            except OSError:
                pass

    def close(self) -> None:
        if self._handle is not None:
            self.commit()
            self._handle.close()
            self._handle = None


def _frame(payload: bytes) -> bytes:
    return _RECORD.pack(len(payload), zlib.crc32(payload)) + payload


def _replay_segment(path: str, result: ReplayResult, truncate: bool,
                    key: Optional[bytes] = None) -> Iterator[bytes]:
    size = os.path.getsize(path)
    valid_end = 0
    index = 0
    mac = b""
    with open(path, "rb") as handle:
        while True:
            header = handle.read(_RECORD.size)
            if len(header) < _RECORD.size:
                break
            length, crc = _RECORD.unpack(header)
            payload = handle.read(length)
            if len(payload) < length or zlib.crc32(payload) != crc:
                # the torn tail: a crash mid-write, by construction
                # un-acked — CRC handles corruption-by-accident, the
                # MAC layer below handles corruption-by-intent
                break
            valid_end += _RECORD.size + length
            if index == 0:
                if key is None:
                    if payload == _MAGIC:
                        raise SpoolAuthenticationError(
                            f"{path} is HMAC-chained; pass the "
                            f"deployment key to replay it"
                        )
                elif payload != _MAGIC:
                    raise SpoolAuthenticationError(
                        f"{path}: a deployment key was given but the "
                        f"segment carries no authentication marker "
                        f"(legacy CRC-only spool?)"
                    )
                else:
                    mac = _chain_seed(key, path)
                    index += 1
                    continue
            if key is not None:
                if len(payload) < _MAC_SIZE + 1:
                    raise SpoolAuthenticationError(
                        f"{path}: record {index} is too short to carry "
                        f"an authentication tag"
                    )
                body = payload[_MAC_SIZE:]
                mac = _chain_next(key, mac, body)
                if not hmac.compare_digest(payload[:_MAC_SIZE], mac):
                    raise SpoolAuthenticationError(
                        f"{path}: record {index} failed HMAC chain "
                        f"verification (forged, spliced or reordered)"
                    )
                payload = body
            index += 1
            result.records += 1
            result.bytes_recovered += len(payload)
            yield payload
    if valid_end < size:
        result.truncated.append((path, valid_end, size))
        if truncate:
            with open(path, "r+b") as handle:
                handle.truncate(valid_end)


def replay(directory: str, name: str = "spool", truncate: bool = True,
           key: Optional[bytes] = None
           ) -> Tuple[List[bytes], ReplayResult]:
    """Recover every committed payload of one spool, oldest first.

    Torn tails are truncated in place (unless ``truncate=False``), so a
    writer opened afterwards appends to a clean spool.  With ``key``,
    every record must verify against the segment's HMAC chain;
    without, an authenticated spool is refused rather than silently
    replayed unverified.
    """
    result = ReplayResult()
    payloads: List[bytes] = []
    for path in list_segments(directory, name):
        result.segments += 1
        payloads.extend(_replay_segment(path, result, truncate, key))
    return payloads, result
