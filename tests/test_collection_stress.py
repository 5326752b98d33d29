"""Stress and failure-injection tests for the collection server."""

import socket
import struct
import threading

import pytest

from repro.collection import submit_document
from repro.collection.server import CollectionStore
from repro.profiling import ProfileDocument
from repro.wrappers.state import WrapperState
from tests.oracles import CollectionServer


def make_document(app: str, calls: int) -> str:
    state = WrapperState()
    state.calls["strcpy"] = calls
    return ProfileDocument.from_state(state, app, "profiling").to_xml()


class TestConcurrentSubmission:
    def test_parallel_clients(self):
        with CollectionServer() as server:
            errors = []

            def client(index: int) -> None:
                try:
                    assert submit_document(
                        server.address, make_document(f"app{index}", index + 1)
                    )
                except Exception as exc:  # propagate to the main thread
                    errors.append(exc)

            threads = [threading.Thread(target=client, args=(i,))
                       for i in range(12)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert errors == []
        assert len(server.store) == 12
        # every document indexed under its own application
        assert len(server.store.applications()) == 12
        totals = server.store.aggregate_calls()
        assert totals["strcpy"] == sum(range(1, 13))


class TestStoreConcurrency:
    """The store must index N simultaneous submissions as exactly N docs."""

    def test_concurrent_direct_submission(self):
        store = CollectionStore()
        n = 32
        barrier = threading.Barrier(n)
        errors = []

        def submitter(index: int) -> None:
            try:
                barrier.wait(timeout=10)  # maximise interleaving
                store.submit(make_document(f"app{index}", index + 1))
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=submitter, args=(i,))
                   for i in range(n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert errors == []
        assert len(store) == n
        # index integrity: every application present exactly once, every
        # per-document call count intact (no lost or interleaved updates)
        assert store.applications() == sorted(
            {f"app{i}" for i in range(n)}
        )
        assert store.aggregate_calls()["strcpy"] == sum(range(1, n + 1))
        for i in range(n):
            docs = store.by_application(f"app{i}")
            assert len(docs) == 1
            assert docs[0].document.functions["strcpy"].calls == i + 1

    def test_concurrent_submission_with_readers(self):
        # writers race against index readers; readers must never see a
        # torn store (they may see any prefix of the submissions)
        store = CollectionStore()
        n = 16
        stop = threading.Event()
        errors = []

        def reader() -> None:
            try:
                while not stop.is_set():
                    count = len(store)
                    apps = store.applications()
                    totals = store.aggregate_calls()
                    assert len(apps) <= n
                    assert sum(totals.values()) <= sum(range(1, n + 1))
                    assert count <= n
            except Exception as exc:
                errors.append(exc)

        readers = [threading.Thread(target=reader) for _ in range(4)]
        for thread in readers:
            thread.start()
        writers = [
            threading.Thread(
                target=lambda i=i: store.submit(
                    make_document(f"app{i}", i + 1))
            )
            for i in range(n)
        ]
        for thread in writers:
            thread.start()
        for thread in writers:
            thread.join(timeout=30)
        stop.set()
        for thread in readers:
            thread.join(timeout=30)
        assert errors == []
        assert len(store) == n
        assert len(store.applications()) == n

    def test_server_many_parallel_clients(self):
        # the network path under the same contention: N real sockets
        n = 24
        with CollectionServer() as server:
            barrier = threading.Barrier(n)
            errors = []

            def client(index: int) -> None:
                try:
                    barrier.wait(timeout=10)
                    assert submit_document(
                        server.address,
                        make_document(f"app{index}", index + 1),
                        timeout=30,
                    )
                except Exception as exc:
                    errors.append(exc)

            threads = [threading.Thread(target=client, args=(i,))
                       for i in range(n)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        assert errors == []
        assert len(server.store) == n
        assert len(server.store.applications()) == n
        assert server.store.aggregate_calls()["strcpy"] == sum(
            range(1, n + 1)
        )


class TestProtocolAbuse:
    def test_truncated_header(self):
        with CollectionServer() as server:
            with socket.create_connection(server.address, timeout=2) as conn:
                conn.sendall(b"\x00\x00")  # half a length header
            # the server must survive and keep accepting
            assert submit_document(server.address, make_document("ok", 1))
        assert len(server.store) == 1
        assert server.errors  # the bad client was recorded

    def test_oversized_document_rejected(self):
        with CollectionServer() as server:
            with socket.create_connection(server.address, timeout=2) as conn:
                conn.sendall(struct.pack(">I", 1 << 30))
                reply = conn.recv(32)
            assert reply.startswith(b"ERR")
            assert submit_document(server.address, make_document("ok", 1))
        assert len(server.store) == 1

    def test_peer_disconnect_mid_payload(self):
        with CollectionServer() as server:
            with socket.create_connection(server.address, timeout=2) as conn:
                conn.sendall(struct.pack(">I", 1000))
                conn.sendall(b"only a little")
            assert submit_document(server.address, make_document("ok", 1))
        assert len(server.store) == 1

    def test_garbage_payload_rejected_cleanly(self):
        with CollectionServer() as server:
            payload = b"\xff\xfe not xml at all"
            with socket.create_connection(server.address, timeout=2) as conn:
                conn.sendall(struct.pack(">I", len(payload)))
                conn.sendall(payload)
                reply = conn.recv(32)
            assert reply.startswith(b"ERR")
        assert len(server.store) == 0


class TestServeCollectorCommand:
    def test_expect_mode_exits_after_n(self):
        import time

        from repro.cli.main import main

        # run the CLI server in a thread on an ephemeral port; find the
        # port by racing a client against it is flaky, so instead use the
        # library path the command wraps and assert the command's logic
        # via --expect with a pre-known port
        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
        sock.close()

        result = {}

        def serve():
            result["code"] = main(["serve-collector", "--port", str(port),
                                   "--expect", "2"])

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        deadline = time.time() + 10
        sent = 0
        while sent < 2 and time.time() < deadline:
            try:
                if submit_document(("127.0.0.1", port),
                                   make_document("cli", 1), timeout=1):
                    sent += 1
            except OSError:
                time.sleep(0.05)
        thread.join(timeout=10)
        assert sent == 2
        assert result.get("code") == 0
