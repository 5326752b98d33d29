"""Tests for the batched collection protocol and oversize handling."""

import socket
import struct
import threading

import pytest

from repro.collection import (
    BATCH_MAGIC,
    CollectionStore,
    submit_document,
    submit_documents,
)
from repro.profiling import ProfileDocument
from repro.telemetry import CollectionSink
from repro.wrappers.state import WrapperState
from tests.oracles import (
    CollectionServer, rescan_aggregate_calls, rescan_by_application,
)


def _document_xml(application="app", calls=3):
    state = WrapperState()
    state.calls["strlen"] = calls
    state.exectime_ns["strlen"] = 100 * calls
    return ProfileDocument.from_state(state, application, "profiling").to_xml()


@pytest.fixture
def server():
    with CollectionServer() as srv:
        yield srv


@pytest.fixture
def small_server():
    """A server with a tiny document limit for boundary tests."""
    with CollectionServer(max_document_bytes=4096,
                          max_batch_documents=8) as srv:
        yield srv


class TestBatchProtocol:
    def test_round_trip(self, server):
        documents = [_document_xml(f"app{i}", calls=i + 1) for i in range(5)]
        assert submit_documents(server.address, documents)
        assert len(server.store) == 5
        assert server.store.applications() == [f"app{i}" for i in range(5)]

    def test_empty_batch_is_noop(self, server):
        assert submit_documents(server.address, [])
        assert len(server.store) == 0

    def test_single_and_batch_share_the_wire(self, server):
        assert submit_document(server.address, _document_xml("solo"))
        assert submit_documents(server.address, [_document_xml("fleet")])
        assert server.store.applications() == ["fleet", "solo"]

    def test_magic_is_oversized_as_a_length(self):
        # pre-batch servers parse HBAT as a length > any permitted
        # document, so they answer ERR instead of mis-framing
        (as_length,) = struct.unpack(">I", BATCH_MAGIC)
        assert as_length > 16 * 1024 * 1024

    def test_batch_count_limit(self, small_server):
        with socket.create_connection(small_server.address,
                                      timeout=2) as conn:
            conn.sendall(BATCH_MAGIC + struct.pack(">I", 9))
            assert conn.recv(64) == b"ERR batch too large\n"
        assert len(small_server.store) == 0

    def test_malformed_batch_is_atomic(self, server):
        good = _document_xml()
        ok = submit_documents(server.address, [good, "<not-a-profile/>",
                                               good])
        assert not ok
        assert len(server.store) == 0  # nothing landed


class TestOversizeBoundary:
    """Regression: oversized frames get a protocol error, not a reset."""

    def _send_single(self, address, payload: bytes) -> bytes:
        with socket.create_connection(address, timeout=2) as conn:
            conn.sendall(struct.pack(">I", len(payload)))
            conn.sendall(payload)
            return conn.recv(64)

    def test_exactly_max_accepted(self, small_server):
        xml = _document_xml()
        payload = xml.encode("utf-8")
        padding = small_server.max_document_bytes - len(payload)
        assert padding >= 0
        # XML comments pad the document to exactly the limit
        padded = (xml + "<!--" + "x" * (padding - 7) + "-->").encode("utf-8")
        assert len(padded) == small_server.max_document_bytes
        assert self._send_single(small_server.address, padded) == b"OK\n"
        assert len(small_server.store) == 1

    def test_one_past_max_gets_protocol_error(self, small_server):
        payload = b"x" * (small_server.max_document_bytes + 1)
        reply = self._send_single(small_server.address, payload)
        assert reply == b"ERR too large\n"
        assert len(small_server.store) == 0

    def test_error_readable_before_payload_sent(self, small_server):
        # a client that declares a huge length and then stalls still
        # reads the error — the server answers before draining
        with socket.create_connection(small_server.address,
                                      timeout=2) as conn:
            conn.sendall(struct.pack(">I", 1 << 30))
            assert conn.recv(64) == b"ERR too large\n"

    def test_oversized_document_inside_batch(self, small_server):
        with socket.create_connection(small_server.address,
                                      timeout=2) as conn:
            conn.sendall(BATCH_MAGIC + struct.pack(">I", 1))
            conn.sendall(struct.pack(">I", 1 << 29))
            assert conn.recv(64) == b"ERR too large\n"
        assert len(small_server.store) == 0


class TestConcurrentShipping:
    def test_hundred_documents_through_collection_sink(self, server):
        """Acceptance: >=100 concurrent documents, zero loss/reset."""
        sink = CollectionSink(server.address, batch_size=16,
                              flush_interval=0.01)
        threads_n, docs_per_thread = 10, 12  # 120 documents total

        def producer(worker):
            for i in range(docs_per_thread):
                sink.ship(_document_xml(f"w{worker}-{i}"))

        workers = [threading.Thread(target=producer, args=(w,))
                   for w in range(threads_n)]
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join()
        sink.close()
        total = threads_n * docs_per_thread
        assert sink.shipped == total
        assert sink.failed == 0
        assert len(server.store) == total
        assert not server.errors
        # batching: the fleet went out in far fewer frames
        assert sink.frames < total

    def test_store_submit_many_atomicity_under_threads(self):
        store = CollectionStore()
        good = [_document_xml(f"a{i}") for i in range(4)]
        bad = good[:2] + ["<garbage/>"]

        def submit_bad():
            with pytest.raises(Exception):
                store.submit_many(bad)

        workers = [threading.Thread(target=store.submit_many, args=(good,))
                   for _ in range(3)]
        workers.append(threading.Thread(target=submit_bad))
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join()
        assert len(store) == 12  # three good batches, bad one fully absent


class TestBatchCountBoundaries:
    """Boundary behaviour of the HBAT count field: 0, 1, MAX, MAX+1."""

    def _send_count(self, address, count: int) -> bytes:
        with socket.create_connection(address, timeout=2) as conn:
            conn.sendall(BATCH_MAGIC + struct.pack(">I", count))
            return conn.recv(64)

    @staticmethod
    def _await_error(server, needle, deadline=2.0):
        import time

        end = time.time() + deadline
        while time.time() < end:
            if any(needle in error for error in server.errors):
                return True
            time.sleep(0.01)
        return False

    def test_count_zero_is_rejected_explicitly(self, server):
        # a zero-count frame is a client bug: OK 0 would let a broken
        # batcher believe it shipped
        assert self._send_count(server.address, 0) == b"ERR empty batch\n"
        assert len(server.store) == 0
        assert self._await_error(server, "empty batch")

    def test_count_one_is_accepted(self, server):
        assert submit_documents(server.address, [_document_xml("one")])
        assert server.store.applications() == ["one"]

    def test_count_at_protocol_cap_is_not_bad(self, server):
        from repro.collection import MAX_BATCH_DOCUMENTS

        # MAX_BATCH_DOCUMENTS is within the protocol: the server starts
        # reading documents (and times nothing out here — we just check
        # it did NOT answer an immediate count error)
        with socket.create_connection(server.address, timeout=2) as conn:
            conn.sendall(BATCH_MAGIC
                         + struct.pack(">I", MAX_BATCH_DOCUMENTS))
            conn.settimeout(0.2)
            with pytest.raises(socket.timeout):
                conn.recv(64)  # waiting for documents, not erroring

    def test_count_past_protocol_cap_is_bad_count(self, server):
        from repro.collection import MAX_BATCH_DOCUMENTS

        reply = self._send_count(server.address, MAX_BATCH_DOCUMENTS + 1)
        assert reply == b"ERR bad count\n"
        assert len(server.store) == 0
        assert self._await_error(server, "malformed batch count")

    def test_configured_cap_still_batch_too_large(self, small_server):
        # between the configured max and the protocol cap the frame is
        # well-formed but refused: the distinct error is kept
        reply = self._send_count(small_server.address, 9)
        assert reply == b"ERR batch too large\n"


class TestStoreIndexes:
    """The incremental indexes agree with the rescan reference paths."""

    def _populated_store(self):
        store = CollectionStore()
        for i in range(12):
            store.submit(_document_xml(f"app{i % 4}", calls=i + 1))
        return store

    def test_by_application_matches_rescan(self):
        store = self._populated_store()
        for application in store.applications():
            assert (store.by_application(application)
                    == rescan_by_application(store, application))

    def test_aggregate_calls_matches_rescan(self):
        store = self._populated_store()
        assert store.aggregate_calls() == rescan_aggregate_calls(store)
        assert store.aggregate_calls()["strlen"] == sum(range(1, 13))

    def test_indexes_track_submit_many(self):
        store = CollectionStore()
        store.submit_many([_document_xml("a", calls=2),
                           _document_xml("b", calls=3),
                           _document_xml("a", calls=5)])
        assert [d.document.application
                for d in store.by_application("a")] == ["a", "a"]
        assert store.aggregate_calls() == rescan_aggregate_calls(store)

    def test_unknown_application_is_empty(self):
        store = self._populated_store()
        assert store.by_application("nope") == []
        assert rescan_by_application(store, "nope") == []
