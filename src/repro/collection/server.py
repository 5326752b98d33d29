"""Document store and legacy-frame clients for wrapper-emitted XML.

"Just before the application terminates, the collection code is called to
send the gathered information to a central server. … Such information is
then stored for later processing."

:class:`CollectionStore` files every document, extracting — as the
paper describes — which functions were wrapped and what kinds of
information were collected; the :class:`~repro.collection.fabric.IngestServer`
lands each shard's documents in one.  The clients here speak the two
length-prefixed frame types the fabric accepts verbatim:

* **single** — 4-byte big-endian length, then the UTF-8 XML document
  (the original one-document-per-connection form);
* **batch**  — the 4-byte magic ``HBAT``, a 4-byte document count, then
  that many length-prefixed documents, validated atomically and
  acknowledged with ``OK <count>``.

An in-process store is also usable directly for tests and single-machine
runs.
"""

from __future__ import annotations

import socket
import struct
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

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
    aggregation endpoints are hit per ack, not per report.  (The tests
    compare the indexes against full rescans of :attr:`documents`.)
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
