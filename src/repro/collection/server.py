"""Central collection server for wrapper-emitted XML documents.

"Just before the application terminates, the collection code is called to
send the gathered information to a central server. … Such information is
then stored for later processing."

The server speaks a minimal length-prefixed protocol over TCP and files
every document into a :class:`CollectionStore`, extracting — as the
paper describes — which functions were wrapped and what kinds of
information were collected.  Two frame types share the wire:

* **single** — 4-byte big-endian length, then the UTF-8 XML document
  (the original one-document-per-connection form);
* **batch**  — the 4-byte magic ``HBAT``, a 4-byte document count, then
  that many length-prefixed documents.  One connection ships a whole
  fleet's worth of documents; the batch is validated atomically and
  acknowledged with ``OK <count>``.

Oversized or malformed frames are answered with an ``ERR`` protocol
response (after draining the declared payload, so well-behaved clients
read the error instead of a connection reset).  An in-process store is
also usable directly for tests and single-machine runs.
"""

from __future__ import annotations

import socket
import struct
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.profiling.xmllog import ProfileDocument

MAX_DOCUMENT_BYTES = 16 * 1024 * 1024
#: documents one batch frame may carry
MAX_BATCH_DOCUMENTS = 4096
#: the batch-frame magic; as a big-endian length it exceeds any
#: permitted document size, so pre-batch servers reject it cleanly
BATCH_MAGIC = b"HBAT"


@dataclass
class StoredDocument:
    """One received document plus the extracted index entries."""

    raw_xml: str
    document: ProfileDocument
    wrapped_functions: List[str]
    kinds: List[str]


@dataclass
class CollectionStore:
    """Store + incremental index of received profile documents.

    Every index (per-application, per-kind, per-function call totals) is
    maintained on :meth:`submit`, so the query methods are dictionary
    lookups instead of full rescans of the document list — at fleet
    scale the store holds documents from thousands of shippers and the
    aggregation endpoints are hit per ack, not per report.  The rescan
    implementations are kept (``_rescan_*``) as the reference the
    regression tests compare against.
    """

    documents: List[StoredDocument] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock)
    _by_application: Dict[str, List[StoredDocument]] = field(
        default_factory=dict)
    _by_kind: Dict[str, List[StoredDocument]] = field(default_factory=dict)
    _call_totals: Dict[str, int] = field(default_factory=dict)

    def submit(self, xml_text: str) -> StoredDocument:
        """Parse, index and keep one document (raises on malformed XML)."""
        stored = self._parse(xml_text)
        with self._lock:
            self._land(stored)
        return stored

    def submit_many(self, xml_texts: List[str]) -> List[StoredDocument]:
        """Atomically store a batch: all parse first, then all land."""
        parsed = [self._parse(text) for text in xml_texts]
        with self._lock:
            for stored in parsed:
                self._land(stored)
        return parsed

    def submit_parsed(self, parsed: List[StoredDocument]) -> None:
        """Land already-parsed documents (the fabric's shard commit path)."""
        with self._lock:
            for stored in parsed:
                self._land(stored)

    def _land(self, stored: StoredDocument) -> None:
        """Append one parsed document and update every index (locked)."""
        self.documents.append(stored)
        self._by_application.setdefault(
            stored.document.application, []).append(stored)
        for kind in stored.kinds:
            self._by_kind.setdefault(kind, []).append(stored)
        totals = self._call_totals
        for name, profile in stored.document.functions.items():
            totals[name] = totals.get(name, 0) + profile.calls

    @staticmethod
    def _parse(xml_text: str) -> StoredDocument:
        document = ProfileDocument.from_xml(xml_text)
        return StoredDocument(
            raw_xml=xml_text,
            document=document,
            wrapped_functions=sorted(document.functions),
            kinds=document.collected_kinds(),
        )

    def __len__(self) -> int:
        with self._lock:
            return len(self.documents)

    def by_application(self, application: str) -> List[StoredDocument]:
        with self._lock:
            return list(self._by_application.get(application, ()))

    def by_kind(self, kind: str) -> List[StoredDocument]:
        with self._lock:
            return list(self._by_kind.get(kind, ()))

    def applications(self) -> List[str]:
        with self._lock:
            return sorted(self._by_application)

    def aggregate_calls(self) -> Dict[str, int]:
        """Total call counts per function across every stored document."""
        with self._lock:
            return dict(self._call_totals)

    # ------------------------------------------------------------------
    # rescan reference paths (regression oracles for the indexes)
    # ------------------------------------------------------------------

    def _rescan_by_application(self, application: str) -> List[StoredDocument]:
        with self._lock:
            return [
                d for d in self.documents
                if d.document.application == application
            ]

    def _rescan_aggregate_calls(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        with self._lock:
            for stored in self.documents:
                for name, profile in stored.document.functions.items():
                    totals[name] = totals.get(name, 0) + profile.calls
        return totals


class CollectionServer:
    """Threaded TCP acceptor feeding a :class:`CollectionStore`.

    Each accepted connection is served on its own thread, so one slow or
    stalled client (the 5-second read timeout) never blocks the other
    reporters of a fleet; the store itself serialises index updates.
    The runtime serves with :class:`~repro.collection.fabric.IngestServer`;
    this server is the reference the fabric's differential tests and
    soak benchmark compare against.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 store: Optional[CollectionStore] = None,
                 backlog: int = 64,
                 max_document_bytes: int = MAX_DOCUMENT_BYTES,
                 max_batch_documents: int = MAX_BATCH_DOCUMENTS):
        self.store = store if store is not None else CollectionStore()
        self.max_document_bytes = max_document_bytes
        self.max_batch_documents = max_batch_documents
        self._socket = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._socket.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._socket.bind((host, port))
        self._socket.listen(backlog)
        self._socket.settimeout(0.2)
        self.address: Tuple[str, int] = self._socket.getsockname()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._handlers: List[threading.Thread] = []
        self.errors: List[str] = []

    # ------------------------------------------------------------------

    def start(self) -> "CollectionServer":
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5)
        for handler in self._handlers:
            handler.join(timeout=5)
        self._socket.close()

    def __enter__(self) -> "CollectionServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------

    def _serve(self) -> None:
        while not self._stop.is_set():
            try:
                connection, _ = self._socket.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            handler = threading.Thread(
                target=self._handle_connection, args=(connection,),
                daemon=True,
            )
            self._handlers = [t for t in self._handlers if t.is_alive()]
            self._handlers.append(handler)
            handler.start()

    def _handle_connection(self, connection: socket.socket) -> None:
        try:
            self._handle(connection)
        except Exception as exc:  # a bad client must not kill the server
            self.errors.append(str(exc))
        finally:
            connection.close()

    def _handle(self, connection: socket.socket) -> None:
        connection.settimeout(5)
        header = self._read_exactly(connection, 4)
        if header == BATCH_MAGIC:
            self._handle_batch(connection)
            return
        (length,) = struct.unpack(">I", header)
        if length > self.max_document_bytes:
            self._reject_oversized(connection, length)
        payload = self._read_exactly(connection, length)
        try:
            self.store.submit(payload.decode("utf-8"))
        except Exception as exc:
            connection.sendall(b"ERR malformed\n")
            raise ValueError(f"malformed document: {exc}") from exc
        connection.sendall(b"OK\n")

    def _handle_batch(self, connection: socket.socket) -> None:
        (count,) = struct.unpack(">I", self._read_exactly(connection, 4))
        if count == 0:
            # a zero-count frame is a client bug, not a no-op: answering
            # OK 0 would let a broken batcher believe it shipped
            connection.sendall(b"ERR empty batch\n")
            raise ValueError("empty batch frame rejected")
        if count > MAX_BATCH_DOCUMENTS:
            # beyond the protocol-wide cap no configuration accepts it:
            # the count field itself is malformed (a desynced client)
            connection.sendall(b"ERR bad count\n")
            raise ValueError(f"malformed batch count {count} rejected")
        if count > self.max_batch_documents:
            connection.sendall(b"ERR batch too large\n")
            raise ValueError(f"batch of {count} documents rejected")
        documents: List[str] = []
        for _ in range(count):
            header = self._read_exactly(connection, 4)
            (length,) = struct.unpack(">I", header)
            if length > self.max_document_bytes:
                self._reject_oversized(connection, length)
            payload = self._read_exactly(connection, length)
            documents.append(payload.decode("utf-8"))
        try:
            self.store.submit_many(documents)
        except Exception as exc:
            connection.sendall(b"ERR malformed\n")
            raise ValueError(f"malformed batch: {exc}") from exc
        connection.sendall(b"OK %d\n" % count)

    def _reject_oversized(self, connection: socket.socket,
                          length: int) -> None:
        """Answer an oversized frame with a protocol error, not a reset.

        The error line goes out immediately (a waiting client reads it
        at once); the declared payload is then drained and discarded so
        a client mid-``sendall`` completes its write too — closing with
        unread bytes in the receive buffer would turn into an RST on
        the client side instead of a readable protocol error.
        """
        connection.sendall(b"ERR too large\n")
        self._discard(connection, length)
        raise ValueError(f"document of {length} bytes rejected")

    @staticmethod
    def _discard(connection: socket.socket, count: int) -> None:
        remaining = count
        try:
            while remaining > 0:
                data = connection.recv(min(65536, remaining))
                if not data:
                    return
                remaining -= len(data)
        except OSError:
            return  # slow or vanished sender: reply with what we can

    @staticmethod
    def _read_exactly(connection: socket.socket, count: int) -> bytes:
        chunks = bytearray()
        while len(chunks) < count:
            data = connection.recv(count - len(chunks))
            if not data:
                raise ConnectionError("peer closed mid-message")
            chunks.extend(data)
        return bytes(chunks)


def submit_document(address: Tuple[str, int], xml_text: str,
                    timeout: float = 5.0) -> bool:
    """Client side: send one document; True on server acknowledgement."""
    payload = xml_text.encode("utf-8")
    with socket.create_connection(address, timeout=timeout) as connection:
        connection.sendall(struct.pack(">I", len(payload)))
        connection.sendall(payload)
        reply = connection.recv(16)
    return reply.startswith(b"OK")


def submit_documents(address: Tuple[str, int], xml_texts: List[str],
                     timeout: float = 5.0) -> bool:
    """Client side: ship a whole batch in one ``HBAT`` frame.

    True when the server acknowledged every document in the batch.
    """
    if not xml_texts:
        return True
    frame = bytearray(BATCH_MAGIC)
    frame += struct.pack(">I", len(xml_texts))
    for text in xml_texts:
        payload = text.encode("utf-8")
        frame += struct.pack(">I", len(payload))
        frame += payload
    with socket.create_connection(address, timeout=timeout) as connection:
        connection.sendall(bytes(frame))
        reply = connection.recv(32)
    return reply.startswith(b"OK %d" % len(xml_texts))
