"""Fleet-scale async collection fabric.

A thread-per-connection server spends a thread and a blocking read loop
on every reporter; at fleet scale (every wrapped process shipping
documents, serving apps pushing thousands of requests/sec) that model
runs out of threads long before it runs out of CPU.  The fabric instead
has:

* an :class:`IngestServer` — one ``selectors`` event loop on one thread
  multiplexing every connection through a per-connection *frame state
  machine* (no blocking ``_read_exactly``); the loop parses each
  completed frame itself,
* *N shards* — documents are routed by their parsed application to a
  store partition, fleet aggregator and spool file, so one
  application's documents always live (and replay) in one shard,
* *credit-based backpressure* — each ack advertises the connection's
  remaining document credit (``OK <n> CREDIT <c>``); a well-behaved
  shipper paces itself, and one that overruns simply stops being read
  (TCP backpressure) instead of being dropped,
* a *write-ahead spool* (:mod:`repro.collection.spool`) — documents are
  fsynced to shard-owned segment files *before* the ack goes out (one
  group commit per shard per ``select`` pass), and a restarting server
  replays the spool, so *acked implies stored-or-replayed* holds across
  crashes.

Wire protocol v2 stays backward compatible: the legacy single
(length-prefixed) and ``HBAT`` batch frames are accepted verbatim, and
v2 acks still start with ``OK`` / ``OK <n>``.  Two frames are new:

* ``HBA2`` — a *sequenced* batch: magic, u16 shipper-id length, the
  shipper id, u64 sequence number, u32 count, then count
  length-prefixed documents.  Sequencing makes retries idempotent: a
  resend of an already-committed frame is acknowledged ``… DUP`` and
  not stored twice, so a shipper may retry through connection resets
  without ever duplicating or losing a document.
* ``HSTA`` — a stats query: the server answers with one
  length-prefixed JSON snapshot of the fleet rollup and its own
  counters.
"""

from __future__ import annotations

import json
import os
import selectors
import socket
import struct
import threading
import time
import zlib
from collections import deque
from typing import Dict, List, Optional, Set, Tuple

from repro.collection.fleet import FleetAggregator
from repro.collection.server import (
    BATCH_MAGIC,
    MAX_BATCH_DOCUMENTS,
    MAX_DOCUMENT_BYTES,
    CollectionStore,
    StoredDocument,
)
from repro.collection.spool import SpoolWriter, replay as spool_replay

#: v2 sequenced-batch frame magic
FABRIC_MAGIC = b"HBA2"
#: stats-query frame magic
STATS_MAGIC = b"HSTA"
#: documents one connection may have un-acked before reads pause
CREDIT_LIMIT = 64

_U32 = struct.Struct(">I")
_U16 = struct.Struct(">H")
_SEQ = struct.Struct(">QII")  # sequence, doc index, doc count


class CollectionProtocolError(Exception):
    """The server answered a frame with an ``ERR`` line."""


def shard_of(application: str, shards: int) -> int:
    """Stable application→shard routing (crc32, not ``hash()``)."""
    return zlib.crc32(application.encode("utf-8", "replace")) % shards


# ----------------------------------------------------------------------
# spool record envelope
# ----------------------------------------------------------------------

def encode_spool_record(shipper: str, seq: int, index: int, count: int,
                        xml: bytes) -> bytes:
    """Envelope one document for the write-ahead spool."""
    shipper_bytes = shipper.encode("utf-8")
    return (_U16.pack(len(shipper_bytes)) + shipper_bytes
            + _SEQ.pack(seq, index, count) + xml)


def decode_spool_record(payload: bytes) -> Tuple[str, int, int, int, bytes]:
    """(shipper, seq, index, count, xml) from one spool payload."""
    (shipper_len,) = _U16.unpack_from(payload, 0)
    offset = _U16.size + shipper_len
    shipper = payload[_U16.size:offset].decode("utf-8")
    seq, index, count = _SEQ.unpack_from(payload, offset)
    return shipper, seq, index, count, payload[offset + _SEQ.size:]


def replay_documents(spool_dir: str, shards: int,
                     key: Optional[bytes] = None):
    """Recover committed documents + dedup state from a spool directory.

    Returns ``(documents, last_seq, result_by_shard)`` where
    ``documents`` is ``[(shipper, seq, xml_bytes), …]`` in recovery
    order and ``last_seq`` maps shipper id → highest fully-committed
    sequence.  A sequenced frame is *fully* committed only when every
    one of its documents is in the spool: a crash between two shard
    fsyncs leaves a partial frame, which was never acked — its records
    are dropped and its sequence forgotten, so the shipper's resend
    stores the whole frame exactly once.

    With ``key`` the spool must verify against its HMAC chain: forged,
    spliced or reordered records raise
    :class:`~repro.collection.spool.SpoolAuthenticationError` instead
    of silently entering the store.
    """
    unsequenced: List[Tuple[str, int, bytes]] = []
    frames: Dict[Tuple[str, int], Dict[int, bytes]] = {}
    counts: Dict[Tuple[str, int], int] = {}
    order: List[Tuple[str, int]] = []
    results = []
    # a previous run may have spooled under a different shard count:
    # recover every shard-* spool present, not just 0..shards-1
    try:
        entries = os.listdir(spool_dir)
    except FileNotFoundError:
        entries = []
    present = {
        int(name.split("-")[1])
        for name in entries
        if name.startswith("shard-") and name.endswith(".wal")
        and name.split("-")[1].isdigit()
    }
    for shard in sorted(present | set(range(shards))):
        payloads, result = spool_replay(spool_dir, name=f"shard-{shard}",
                                        key=key)
        results.append(result)
        for payload in payloads:
            shipper, seq, index, count, xml = decode_spool_record(payload)
            if not shipper and seq == 0:
                unsequenced.append(("", 0, xml))
                continue
            frame_key = (shipper, seq)
            if frame_key not in frames:
                frames[frame_key] = {}
                counts[frame_key] = count
                order.append(frame_key)
            frames[frame_key][index] = xml
    documents = list(unsequenced)
    last_seq: Dict[str, int] = {}
    for frame_key in order:
        shipper, seq = frame_key
        docs = frames[frame_key]
        if len(docs) != counts[frame_key]:
            continue  # partial (never acked) — the shipper will resend
        last_seq[shipper] = max(last_seq.get(shipper, 0), seq)
        for index in sorted(docs):
            documents.append((shipper, seq, docs[index]))
    return documents, last_seq, results


# ----------------------------------------------------------------------
# the per-connection frame state machine
# ----------------------------------------------------------------------

class _Connection:
    """One multiplexed connection: buffers + incremental frame parser."""

    __slots__ = ("sock", "server", "inbuf", "out", "needed", "parser",
                 "inflight", "paused", "closing", "discard", "mid_frame",
                 "alive")

    def __init__(self, sock: socket.socket, server: "IngestServer"):
        self.sock = sock
        self.server = server
        self.inbuf = bytearray()
        self.out = bytearray()
        self.inflight = 0          # un-acked documents on this connection
        self.paused = False        # read interest withdrawn (backpressure)
        self.closing = False
        self.discard = 0           # payload bytes to swallow after an ERR
        self.mid_frame = False
        self.alive = True
        self.parser = self._frames()
        self.needed = self.parser.send(None)

    # -- inbound ---------------------------------------------------

    def feed(self, data: bytes) -> None:
        if self.discard:
            take = min(len(data), self.discard)
            self.discard -= take
            data = data[take:]
            if self.discard or not data:
                return
        self.inbuf += data
        while (self.parser is not None and not self.closing
               and len(self.inbuf) >= self.needed):
            chunk = bytes(self.inbuf[:self.needed])
            del self.inbuf[:self.needed]
            try:
                self.needed = self.parser.send(chunk)
            except StopIteration:
                self.parser = None

    def _take(self, count: int):
        """Parser-side: yield for exactly ``count`` bytes (0 → empty)."""
        if count == 0:
            return b""
        return (yield count)

    def _frames(self):
        server = self.server
        while True:
            self.mid_frame = False
            header = yield 4
            self.mid_frame = True
            if header == STATS_MAGIC:
                server._answer_stats(self)
                continue
            if header == BATCH_MAGIC or header == FABRIC_MAGIC:
                shipper, seq = "", 0
                if header == FABRIC_MAGIC:
                    (shipper_len,) = _U16.unpack((yield 2))
                    raw = yield from self._take(shipper_len)
                    shipper = raw.decode("utf-8", "replace")
                    (seq,) = struct.unpack(">Q", (yield 8))
                (count,) = _U32.unpack((yield 4))
                if count == 0:
                    self._protocol_error(b"ERR empty batch\n",
                                         "empty batch frame rejected")
                    return
                if count > MAX_BATCH_DOCUMENTS:
                    self._protocol_error(
                        b"ERR bad count\n",
                        f"malformed batch count {count} rejected")
                    return
                if count > server.max_batch_documents:
                    self._protocol_error(
                        b"ERR batch too large\n",
                        f"batch of {count} documents rejected")
                    return
                payloads = []
                for _ in range(count):
                    (length,) = _U32.unpack((yield 4))
                    if length > server.max_document_bytes:
                        self._protocol_error(
                            b"ERR too large\n",
                            f"document of {length} bytes rejected",
                            drain=length)
                        return
                    payloads.append((yield from self._take(length)))
                self.mid_frame = False
                server._dispatch_frame(self, payloads, shipper=shipper,
                                       seq=seq, batch=True)
            else:
                (length,) = _U32.unpack(header)
                if length > server.max_document_bytes:
                    self._protocol_error(
                        b"ERR too large\n",
                        f"document of {length} bytes rejected",
                        drain=length)
                    return
                payload = yield from self._take(length)
                self.mid_frame = False
                server._dispatch_frame(self, [payload], shipper="",
                                       seq=0, batch=False)

    def _protocol_error(self, ack: bytes, detail: str,
                        drain: int = 0) -> None:
        """Answer a framing error, swallow the declared payload, close.

        The error line goes out at the end of this ``select`` pass,
        after any earlier acks on the connection (a waiting client reads
        it at once, exactly like the legacy server); the declared
        payload is then discarded as it streams in, so a client
        mid-``sendall`` completes its write instead of seeing an RST.
        """
        self.server.errors.append(detail)
        self.mid_frame = False  # the frame's fate is decided
        self.discard = drain
        self.server._hold(_Reply(self, line=ack, close=True))


class _Reply:
    """One frame's answer, held until its ``select`` pass has committed.

    Replies go out in arrival order, so every connection's acks follow
    its frame order.  A reply has either a decided ``line`` or the
    parsed ``docs`` (``(shard, document)`` pairs) it lands once their
    spools have committed; a ``dup`` reply is a resend, and shares the
    docs of the original when that is staged in the same pass.  A
    ``stats`` reply is built when it is sent, so it counts every
    document acked before it.
    """

    __slots__ = ("conn", "count", "batch", "line", "close", "dup", "key",
                 "docs", "stats")

    def __init__(self, conn: _Connection, count: int = 0,
                 batch: bool = True, line: Optional[bytes] = None,
                 close: bool = False):
        self.conn = conn
        self.count = count
        self.batch = batch
        self.line = line
        self.close = close
        self.dup = False
        self.stats = False
        #: (shipper, seq) of a sequenced frame, recorded once it lands
        self.key: Optional[Tuple[str, int]] = None
        self.docs: List[Tuple[int, StoredDocument]] = []


class IngestServer:
    """Non-blocking sharded ingest fabric for profile documents.

    Serves a :class:`CollectionStore` query surface over the legacy wire
    frames plus sharding, credits, spooling and fleet aggregation.  One event-loop thread does all the work: it parses a
    completed frame, routes each document by its application to one of
    ``shards`` store partitions and stages it in that shard's spool.
    After each ``select`` pass every touched spool commits once; only
    then do the pass's documents land and its acks go out.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 shards: int = 4,
                 spool_dir: Optional[str] = None,
                 credit_limit: int = CREDIT_LIMIT,
                 max_document_bytes: int = MAX_DOCUMENT_BYTES,
                 max_batch_documents: int = MAX_BATCH_DOCUMENTS,
                 fsync: bool = True,
                 backlog: int = 512,
                 spool_key: Optional[bytes] = None):
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if credit_limit < 1:
            raise ValueError(
                f"credit limit must be >= 1, got {credit_limit}")
        self.shards = shards
        self.spool_dir = spool_dir
        self.credit_limit = credit_limit
        self.max_document_bytes = max_document_bytes
        self.max_batch_documents = max_batch_documents
        self.fsync = fsync
        self.spool_key = spool_key
        self.partitions = [CollectionStore() for _ in range(shards)]
        self.fleets = [FleetAggregator() for _ in range(shards)]
        self.store = ShardedStore(self)
        self.errors: List[str] = []
        self.replayed = 0
        self.duplicates = 0
        self.frames = 0
        self.connections_accepted = 0
        self._last_seq: Dict[str, int] = {}
        self._spools: List[Optional[SpoolWriter]] = [None] * shards
        #: the current select pass: replies awaiting its commit, its
        #: staged sequenced frames, and its dirty and failed spools
        self._replies: List[_Reply] = []
        self._staged: Dict[Tuple[str, int], _Reply] = {}
        self._dirty: Set[int] = set()
        self._failed: Dict[int, OSError] = {}
        self._connections: Dict[socket.socket, _Connection] = {}
        self._selector = selectors.DefaultSelector()
        self._stop = threading.Event()
        self._loop_thread: Optional[threading.Thread] = None
        self._socket = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._socket.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._socket.bind((host, port))
        self._socket.listen(backlog)
        self._socket.setblocking(False)
        self.address: Tuple[str, int] = self._socket.getsockname()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "IngestServer":
        """Replay the spool, open the shard spools and start the loop.

        A failed start (say, a keyed spool replayed without its key)
        releases the listening socket, the selector and any spool it
        opened before re-raising: ``__exit__`` never runs when
        ``__enter__`` raises, so nothing else would.
        """
        try:
            if self.spool_dir:
                self._replay_spool()
                for shard in range(self.shards):
                    self._spools[shard] = SpoolWriter(
                        self.spool_dir, name=f"shard-{shard}",
                        fsync=self.fsync, key=self.spool_key)
            self._selector.register(self._socket, selectors.EVENT_READ,
                                    None)
            loop = threading.Thread(
                target=self._loop, name="healers-ingest-loop", daemon=True)
            loop.start()
        except BaseException:
            self.stop()
            raise
        self._loop_thread = loop
        return self

    def _replay_spool(self) -> None:
        documents, last_seq, _ = replay_documents(self.spool_dir,
                                                  self.shards,
                                                  key=self.spool_key)
        self._last_seq = last_seq
        for _shipper, _seq, xml in documents:
            try:
                stored = CollectionStore._parse(
                    xml.decode("utf-8", "replace"))
            except Exception as exc:  # rotted spool entry: keep serving
                self.errors.append(f"spool replay parse failure: {exc}")
                continue
            shard = shard_of(stored.document.application, self.shards)
            self.partitions[shard].submit_parsed([stored])
            self.fleets[shard].ingest(stored.document)
            self.replayed += 1

    def stop(self) -> None:
        self._stop.set()
        if self._loop_thread is not None:
            self._loop_thread.join(timeout=10)
        for shard, spool in enumerate(self._spools):
            if spool is not None:
                try:
                    spool.close()
                except OSError as exc:
                    self.errors.append(
                        f"spool close failed on shard {shard}: {exc}")
                    spool.abort()
        for conn in list(self._connections.values()):
            try:
                conn.sock.close()
            except OSError:
                pass
        self._connections.clear()
        try:
            self._selector.close()
        except Exception:
            pass
        self._socket.close()

    def __enter__(self) -> "IngestServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def stats(self) -> Dict[str, int]:
        return {
            "connections": self.connections_accepted,
            "frames": self.frames,
            "documents": len(self.store),
            "duplicates": self.duplicates,
            "replayed": self.replayed,
            "errors": len(self.errors),
            "shards": self.shards,
        }

    def fleet(self) -> FleetAggregator:
        """The merged fleet rollup across every shard."""
        return FleetAggregator.merged(self.fleets)

    # ------------------------------------------------------------------
    # event loop
    # ------------------------------------------------------------------

    def _loop(self) -> None:
        while not self._stop.is_set():
            try:
                events = self._selector.select(timeout=0.05)
            except OSError:
                break
            for key, mask in events:
                conn = key.data
                if conn is None:
                    self._accept()
                    continue
                if mask & selectors.EVENT_READ:
                    self._readable(conn)
                if mask & selectors.EVENT_WRITE and conn.alive:
                    self._flush_out(conn)
            if self._replies:
                self._commit_pass()

    def _accept(self) -> None:
        while True:
            try:
                sock, _addr = self._socket.accept()
            except (BlockingIOError, OSError):
                return
            sock.setblocking(False)
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:
                pass
            conn = _Connection(sock, self)
            self._connections[sock] = conn
            self.connections_accepted += 1
            self._selector.register(sock, selectors.EVENT_READ, conn)

    def _readable(self, conn: _Connection) -> None:
        try:
            data = conn.sock.recv(262144)
        except BlockingIOError:
            return
        except OSError:
            self._close(conn)
            return
        if not data:
            if conn.inbuf or conn.mid_frame:
                self.errors.append("peer closed mid-message")
            self._close(conn)
            return
        try:
            conn.feed(data)
        except Exception as exc:  # a bad client must not kill the loop
            self.errors.append(str(exc))
            self._close(conn)
            return
        self._update_interest(conn)

    def _send(self, conn: _Connection, data: bytes) -> None:
        if not conn.alive:
            return
        conn.out += data
        self._flush_out(conn)

    def _flush_out(self, conn: _Connection) -> None:
        if conn.out:
            try:
                sent = conn.sock.send(bytes(conn.out))
                del conn.out[:sent]
            except BlockingIOError:
                pass
            except OSError:
                self._close(conn)
                return
        if conn.closing and not conn.out and not conn.discard:
            self._close(conn)
            return
        self._update_interest(conn)

    def _update_interest(self, conn: _Connection) -> None:
        if not conn.alive:
            return
        mask = 0
        if not conn.paused or conn.discard or conn.closing:
            mask |= selectors.EVENT_READ
        if conn.out:
            mask |= selectors.EVENT_WRITE
        try:
            self._selector.modify(conn.sock, mask or selectors.EVENT_READ,
                                  conn)
        except (KeyError, ValueError, OSError):
            pass

    def _close(self, conn: _Connection) -> None:
        if not conn.alive:
            return
        conn.alive = False
        try:
            self._selector.unregister(conn.sock)
        except (KeyError, ValueError, OSError):
            pass
        self._connections.pop(conn.sock, None)
        try:
            conn.sock.close()
        except OSError:
            pass

    # ------------------------------------------------------------------
    # frames: parse all, then spool; land and ack after the pass commits
    # ------------------------------------------------------------------

    def _hold(self, reply: _Reply) -> None:
        """Queue a reply for the end of the pass (its docs count as
        in flight until then)."""
        conn = reply.conn
        conn.inflight += reply.count
        if conn.inflight >= self.credit_limit:
            conn.paused = True
        self._replies.append(reply)

    def _dispatch_frame(self, conn: _Connection, payloads: List[bytes],
                        shipper: str, seq: int, batch: bool) -> None:
        """Parse a whole frame, route its documents, spool them.

        Parsing every document before spooling any keeps a batch
        atomic.  The sequence number is remembered only when the frame
        lands (:meth:`_land`), so a refused frame's resend is judged
        afresh.
        """
        self.frames += 1
        reply = _Reply(conn, len(payloads), batch)
        self._hold(reply)
        if shipper and seq:
            key = (shipper, seq)
            staged = self._staged.get(key)
            if staged is not None or seq <= self._last_seq.get(shipper, 0):
                # a resend: acked DUP once the original is durable
                reply.dup = True
                if staged is not None:
                    reply.docs = staged.docs
                return
            reply.key = key
        try:
            parsed = [CollectionStore._parse(payload.decode("utf-8"))
                      for payload in payloads]
        except Exception as exc:
            self.errors.append(f"malformed document: {exc}")
            reply.line = b"ERR malformed\n"
            return
        reply.docs = [(shard_of(stored.document.application, self.shards),
                       stored) for stored in parsed]
        if reply.key:
            self._staged[reply.key] = reply
        if self.spool_dir:
            self._spool(reply, payloads)

    def _spool(self, reply: _Reply, payloads: List[bytes]) -> None:
        """Stage a parsed frame's documents in their shards' spools.

        An append error fails every shard the frame touched, so no
        shard keeps part of a frame that is answered ``ERR spool``.
        """
        if any(shard in self._failed for shard, _ in reply.docs):
            return
        shipper, seq = reply.key or ("", 0)
        touched = set()
        try:
            for index, ((shard, _), payload) in enumerate(
                    zip(reply.docs, payloads)):
                touched.add(shard)
                self._spools[shard].append(encode_spool_record(
                    shipper, seq, index, len(payloads), payload))
        except OSError as exc:
            for shard in touched:
                self._failed.setdefault(shard, exc)
        self._dirty |= touched

    def _commit_pass(self) -> None:
        """Commit each dirty spool once, then land and answer the pass.

        A spool whose append or commit failed is rolled back to its last
        commit, and every frame with a document on it is answered
        ``ERR spool``: nothing of it is stored and its sequence number
        is not remembered, so a resend is stored normally.  A frame
        split over several spools keeps its records on those that did
        commit; replay drops such a partial frame only when it is
        sequenced.
        """
        failed = self._failed
        for shard in self._dirty:
            if shard not in failed:
                try:
                    self._spools[shard].commit()
                except OSError as exc:
                    failed[shard] = exc
        for shard, exc in failed.items():
            self.errors.append(f"spool failure on shard {shard}: {exc}")
            self._spools[shard].abort()
        replies = self._replies
        self._replies, self._staged = [], {}
        self._dirty, self._failed = set(), {}
        for reply in replies:
            line = reply.line
            if line is None:
                if failed and any(shard in failed
                                  for shard, _ in reply.docs):
                    line = b"ERR spool\n"
                elif reply.dup:
                    self.duplicates += 1
                else:
                    self._land(reply)
            self._release(reply, line)

    def _land(self, reply: _Reply) -> None:
        for shard, stored in reply.docs:
            self.partitions[shard].submit_parsed([stored])
            self.fleets[shard].ingest(stored.document)
        if reply.key:
            shipper, seq = reply.key
            if seq > self._last_seq.get(shipper, 0):
                self._last_seq[shipper] = seq

    def _release(self, reply: _Reply, line: Optional[bytes]) -> None:
        conn = reply.conn
        conn.inflight -= reply.count
        if conn.paused and conn.inflight < self.credit_limit:
            conn.paused = False
        if reply.stats:
            line = self._stats_line()
        elif line is None:
            credit = max(0, self.credit_limit - conn.inflight)
            if reply.dup:
                line = b"OK %d CREDIT %d DUP\n" % (reply.count, credit)
            elif reply.batch:
                line = b"OK %d CREDIT %d\n" % (reply.count, credit)
            else:
                line = b"OK CREDIT %d\n" % credit
        if reply.close:
            conn.closing = True
        self._send(conn, line)

    def _answer_stats(self, conn: _Connection) -> None:
        reply = _Reply(conn)
        reply.stats = True
        self._hold(reply)

    def _stats_line(self) -> bytes:
        snapshot = self.fleet().snapshot()
        snapshot["server"] = self.stats()
        snapshot["store_documents"] = len(self.store)
        payload = json.dumps(snapshot, sort_keys=True).encode("utf-8")
        return _U32.pack(len(payload)) + payload


class ShardedStore:
    """The fabric's store facade: one query surface over N partitions."""

    def __init__(self, server: IngestServer):
        self._server = server

    @property
    def partitions(self) -> List[CollectionStore]:
        return self._server.partitions

    def __len__(self) -> int:
        return sum(len(p) for p in self.partitions)

    @property
    def documents(self) -> List[StoredDocument]:
        merged: List[StoredDocument] = []
        for partition in self.partitions:
            with partition._lock:
                merged.extend(partition.documents)
        return merged

    def applications(self) -> List[str]:
        names = set()
        for partition in self.partitions:
            names.update(partition.applications())
        return sorted(names)

    def by_application(self, application: str) -> List[StoredDocument]:
        shard = shard_of(application, self._server.shards)
        return self.partitions[shard].by_application(application)

    def by_kind(self, kind: str) -> List[StoredDocument]:
        merged: List[StoredDocument] = []
        for partition in self.partitions:
            merged.extend(partition.by_kind(kind))
        return merged

    def aggregate_calls(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for partition in self.partitions:
            for name, calls in partition.aggregate_calls().items():
                totals[name] = totals.get(name, 0) + calls
        return totals


# ----------------------------------------------------------------------
# client side
# ----------------------------------------------------------------------

class FabricClient:
    """Persistent, credit-paced, exactly-once shipper connection.

    Ships sequenced ``HBA2`` frames over one connection, paces itself
    against the server's advertised credit, and retries through
    connection resets by resending un-acked frames — the server's
    sequence dedup makes the retry idempotent, so every shipped document
    lands exactly once however chaotic the network was.

    ``fault_hook`` is the chaos surface: a callable ``site -> bool``
    (see :meth:`repro.chaos.ChaosInjector.arm_fabric`) consulted before
    every send attempt for ``net-reset`` / ``net-slow`` faults.
    """

    _instances = 0

    def __init__(self, address: Tuple[str, int],
                 shipper: Optional[str] = None,
                 timeout: float = 5.0,
                 window: int = CREDIT_LIMIT,
                 retries: int = 16,
                 retry_backoff: float = 0.02,
                 fault_hook=None):
        FabricClient._instances += 1
        self.address = address
        self.shipper = shipper or (
            f"shipper-{os.getpid()}-{FabricClient._instances}")
        self.timeout = timeout
        self.window = max(1, window)
        self.retries = max(1, retries)
        self.retry_backoff = retry_backoff
        self.fault_hook = fault_hook
        self._seq = 0
        self._sock: Optional[socket.socket] = None
        self._rbuf = bytearray()
        #: (seq, frame_bytes, doc_count) awaiting acks, oldest first
        self._unacked: deque = deque()
        self.acked_documents = 0
        self.duplicate_acks = 0
        self.resets = 0
        self.last_credit: Optional[int] = None

    # -- connection management -------------------------------------

    def _ensure_connected(self) -> None:
        if self._sock is not None:
            return
        sock = socket.create_connection(self.address, timeout=self.timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass
        self._sock = sock
        self._rbuf.clear()
        # a fresh connection re-ships every un-acked frame; the server
        # dedups any that actually committed before the old one died
        for _seq, frame, _count in list(self._unacked):
            sock.sendall(frame)

    def _drop_connection(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None
            self._rbuf.clear()

    def _maybe_fault(self) -> None:
        hook = self.fault_hook
        if hook is None:
            return
        if hook("net-reset"):
            self.resets += 1
            self._drop_connection()
            raise ConnectionResetError("chaos: connection reset by peer")
        if hook("net-slow"):
            from repro.chaos.injector import SLOW_PEER_SECONDS
            time.sleep(SLOW_PEER_SECONDS)

    # -- frames ----------------------------------------------------

    def _build_frame(self, seq: int, payloads: List[bytes]) -> bytes:
        shipper_bytes = self.shipper.encode("utf-8")
        frame = bytearray(FABRIC_MAGIC)
        frame += _U16.pack(len(shipper_bytes))
        frame += shipper_bytes
        frame += struct.pack(">Q", seq)
        frame += _U32.pack(len(payloads))
        for payload in payloads:
            frame += _U32.pack(len(payload))
            frame += payload
        return bytes(frame)

    def _inflight_documents(self) -> int:
        return sum(count for _seq, _frame, count in self._unacked)

    def ship(self, documents: List[str], wait: bool = True) -> bool:
        """Ship one sequenced batch; True once acked (or queued un-waited).

        Blocks while the server's advertised credit is exhausted —
        pacing, not dropping, is the client half of backpressure.
        Raises :class:`CollectionProtocolError` on an ``ERR`` ack.
        """
        if not documents:
            return True
        payloads = [text.encode("utf-8") for text in documents]
        self._seq += 1
        seq = self._seq
        frame = self._build_frame(seq, payloads)
        queued = False
        attempts = 0
        while True:
            attempts += 1
            try:
                self._maybe_fault()
                self._ensure_connected()
                if not queued:
                    # credit pacing: drain acks until the new batch fits
                    while (self._unacked and
                           self._inflight_documents() + len(payloads)
                           > self.window):
                        self._read_ack()
                    self._sock.sendall(frame)
                    self._unacked.append((seq, frame, len(payloads)))
                    queued = True
                if wait:
                    while any(entry[0] == seq for entry in self._unacked):
                        self._read_ack()
                return True
            except CollectionProtocolError:
                raise
            except OSError:
                self._drop_connection()
                if attempts >= self.retries:
                    raise
                time.sleep(self.retry_backoff * min(attempts, 8))

    def flush(self) -> None:
        """Block until every shipped frame is acked."""
        attempts = 0
        while self._unacked:
            attempts += 1
            try:
                self._maybe_fault()
                self._ensure_connected()
                self._read_ack()
            except CollectionProtocolError:
                raise
            except OSError:
                self._drop_connection()
                if attempts >= self.retries:
                    raise
                time.sleep(self.retry_backoff * min(attempts, 8))

    def _read_line(self) -> bytes:
        while True:
            newline = self._rbuf.find(b"\n")
            if newline >= 0:
                line = bytes(self._rbuf[:newline])
                del self._rbuf[:newline + 1]
                return line
            data = self._sock.recv(4096)
            if not data:
                raise ConnectionError("server closed mid-ack")
            self._rbuf += data

    def _read_ack(self) -> None:
        line = self._read_line()
        tokens = line.split()
        if not self._unacked:
            raise CollectionProtocolError(f"unexpected ack: {line!r}")
        seq, _frame, count = self._unacked.popleft()
        if tokens and tokens[0] == b"OK":
            if b"CREDIT" in tokens:
                credit_at = tokens.index(b"CREDIT") + 1
                if credit_at < len(tokens):
                    self.last_credit = int(tokens[credit_at])
                    self.window = max(1, self.last_credit + count)
            if tokens[-1] == b"DUP":
                self.duplicate_acks += 1
            self.acked_documents += count
            return
        raise CollectionProtocolError(
            f"frame seq {seq} rejected: {line.decode('utf-8', 'replace')}")

    def close(self) -> None:
        try:
            if self._unacked and self._sock is not None:
                self.flush()
        finally:
            self._drop_connection()


def fetch_fleet_stats(address: Tuple[str, int],
                      timeout: float = 5.0) -> dict:
    """Query a live :class:`IngestServer` for its fleet snapshot."""
    with socket.create_connection(address, timeout=timeout) as sock:
        sock.sendall(STATS_MAGIC)
        header = _read_exactly(sock, 4)
        (length,) = _U32.unpack(header)
        payload = _read_exactly(sock, length)
    return json.loads(payload.decode("utf-8"))


def _read_exactly(sock: socket.socket, count: int) -> bytes:
    chunks = bytearray()
    while len(chunks) < count:
        data = sock.recv(count - len(chunks))
        if not data:
            raise ConnectionError("peer closed mid-message")
        chunks.extend(data)
    return bytes(chunks)
