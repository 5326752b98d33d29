"""The legacy collection server: the fabric's tests and soak benchmark
compare :class:`~repro.collection.fabric.IngestServer` against it.  Plus
the full rescans of a :class:`CollectionStore` its incremental indexes
must agree with."""

import socket
import struct
import threading
from typing import Dict, List, Optional, Tuple

from repro.collection.server import (
    BATCH_MAGIC, MAX_BATCH_DOCUMENTS, MAX_DOCUMENT_BYTES, CollectionStore,
    StoredDocument,
)


def rescan_by_application(store: CollectionStore,
                          application: str) -> List[StoredDocument]:
    """``store.by_application`` by a scan of every stored document."""
    with store._lock:
        return [
            d for d in store.documents
            if d.document.application == application
        ]


def rescan_aggregate_calls(store: CollectionStore) -> Dict[str, int]:
    """``store.aggregate_calls`` by a scan of every stored document."""
    totals: Dict[str, int] = {}
    with store._lock:
        for stored in store.documents:
            for name, profile in stored.document.functions.items():
                totals[name] = totals.get(name, 0) + profile.calls
    return totals


class CollectionServer:
    """Threaded TCP acceptor feeding a :class:`CollectionStore`.

    Each accepted connection is served on its own thread, so one slow or
    stalled client (the 5-second read timeout) never blocks the other
    reporters of a fleet; the store itself serialises index updates.
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
