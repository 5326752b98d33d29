"""The async ingest fabric: differential parity, credits, zero loss."""

import errno
import json
import random
import socket
import struct
import threading
import time

import pytest

from repro.chaos import ChaosInjector, ChaosPlan
from repro.collection import (
    BATCH_MAGIC,
    CollectionProtocolError,
    CollectionServer,
    FabricClient,
    FleetAggregator,
    IngestServer,
    SpoolAuthenticationError,
    SpoolWriter,
    fetch_fleet_stats,
    submit_document,
    submit_documents,
)
from repro.collection import spool as spool_module
from repro.collection.fabric import STATS_MAGIC
from repro.profiling import ProfileDocument
from repro.telemetry import CollectionSink, CollectionSinkClosed
from repro.wrappers.state import WrapperState


def _document_xml(application="app", function="strlen", calls=3):
    state = WrapperState()
    state.calls[function] = calls
    state.exectime_ns[function] = 100 * calls
    return ProfileDocument.from_state(state, application, "profiling").to_xml()


@pytest.fixture
def fabric(tmp_path):
    with IngestServer(shards=3, spool_dir=str(tmp_path / "spool")) as srv:
        yield srv


@pytest.fixture
def fabric_nospool():
    with IngestServer(shards=3) as srv:
        yield srv


# ----------------------------------------------------------------------
# differential parity with the legacy server
# ----------------------------------------------------------------------

def _send_frame(address, frame: bytes) -> bytes:
    """One frame on one fresh connection; the reply line (or b'')."""
    with socket.create_connection(address, timeout=5) as conn:
        conn.sendall(frame)
        try:
            return conn.recv(64)
        except OSError:
            return b""


def _single_frame(payload: bytes) -> bytes:
    return struct.pack(">I", len(payload)) + payload


def _batch_frame(payloads) -> bytes:
    frame = bytearray(BATCH_MAGIC + struct.pack(">I", len(payloads)))
    for payload in payloads:
        frame += struct.pack(">I", len(payload)) + payload
    return bytes(frame)


def _random_ops(seed, n=40):
    """A randomized mix of good, malformed and oversized frames."""
    rng = random.Random(seed)
    ops = []
    for i in range(n):
        roll = rng.random()
        app = f"app{rng.randrange(6)}"
        if roll < 0.35:
            ops.append(("single", _single_frame(
                _document_xml(app, calls=i + 1).encode())))
        elif roll < 0.70:
            docs = [_document_xml(f"{app}-{j}", calls=j + 1).encode()
                    for j in range(rng.randrange(1, 5))]
            ops.append(("batch", _batch_frame(docs)))
        elif roll < 0.80:
            ops.append(("malformed", _single_frame(b"<not-a-profile/>")))
        elif roll < 0.88:
            good = _document_xml(app).encode()
            ops.append(("malformed-batch",
                        _batch_frame([good, b"<garbage/>"])))
        elif roll < 0.94:
            ops.append(("oversized",
                        struct.pack(">I", (1 << 26) + rng.randrange(100))))
        elif roll < 0.97:
            ops.append(("empty-batch", BATCH_MAGIC + struct.pack(">I", 0)))
        else:
            ops.append(("bad-count",
                        BATCH_MAGIC + struct.pack(">I", 5000)))
    return ops


def _fleet_of(store) -> dict:
    aggregator = FleetAggregator()
    for stored in store.documents:
        aggregator.ingest(stored.document)
    return aggregator.snapshot()


class TestDifferentialParity:
    """The fabric is result-identical to the legacy reference server."""

    @pytest.mark.parametrize("seed", [7, 23, 41])
    def test_randomized_frame_mix(self, seed, tmp_path):
        ops = _random_ops(seed)
        with CollectionServer(max_document_bytes=1 << 20) as legacy, \
                IngestServer(shards=3, max_document_bytes=1 << 20,
                             spool_dir=str(tmp_path / "spool")) as fabric:
            for kind, frame in ops:
                legacy_reply = _send_frame(legacy.address, frame)
                fabric_reply = _send_frame(fabric.address, frame)
                # same verdict class on every frame (fabric acks carry
                # a CREDIT suffix, so compare up to the first token)
                assert (legacy_reply.split(b" ")[0].rstrip()
                        == fabric_reply.split(b" ")[0].rstrip()), kind
                if legacy_reply.startswith(b"ERR"):
                    assert fabric_reply.startswith(legacy_reply.rstrip()), \
                        kind

            # identical StoredDocument sets
            assert (sorted(d.raw_xml for d in legacy.store.documents)
                    == sorted(d.raw_xml for d in fabric.store.documents))
            # identical aggregation surfaces
            assert (legacy.store.applications()
                    == fabric.store.applications())
            assert (legacy.store.aggregate_calls()
                    == fabric.store.aggregate_calls())
            for application in legacy.store.applications():
                assert (
                    sorted(d.raw_xml for d in
                           legacy.store.by_application(application))
                    == sorted(d.raw_xml for d in
                              fabric.store.by_application(application)))
            # identical fleet rollups
            assert _fleet_of(legacy.store) == fabric.fleet().snapshot()

    def test_legacy_clients_work_unchanged(self, fabric_nospool):
        assert submit_document(fabric_nospool.address,
                               _document_xml("solo"))
        assert submit_documents(
            fabric_nospool.address,
            [_document_xml("fleet", calls=2), _document_xml("solo")])
        assert fabric_nospool.store.applications() == ["fleet", "solo"]
        assert len(fabric_nospool.store) == 3

    def test_malformed_batch_is_atomic(self, fabric_nospool):
        good = _document_xml()
        ok = submit_documents(fabric_nospool.address,
                              [good, "<not-a-profile/>", good])
        assert not ok
        assert len(fabric_nospool.store) == 0

    def test_multi_shard_batch_is_atomic(self, fabric_nospool):
        # applications spread across every shard plus one bad document:
        # the 2-phase commit must abort every shard's slice
        docs = [_document_xml(f"app{i}") for i in range(9)]
        ok = submit_documents(fabric_nospool.address,
                              docs + ["<garbage/>"])
        assert not ok
        assert len(fabric_nospool.store) == 0
        # and with the bad document removed the batch lands whole
        assert submit_documents(fabric_nospool.address, docs)
        assert len(fabric_nospool.store) == 9


# ----------------------------------------------------------------------
# credits and backpressure
# ----------------------------------------------------------------------

class TestCredits:
    def test_ack_advertises_credit(self, fabric_nospool):
        client = FabricClient(fabric_nospool.address, shipper="c1")
        client.ship([_document_xml("a")])
        assert client.last_credit == fabric_nospool.credit_limit
        client.close()

    def test_small_credit_window_still_lossless(self, tmp_path):
        with IngestServer(shards=2, credit_limit=4,
                          spool_dir=str(tmp_path / "spool")) as server:
            client = FabricClient(server.address, shipper="paced",
                                  window=4)
            for i in range(30):
                client.ship([_document_xml(f"app{i % 5}", calls=i + 1)],
                            wait=False)
            client.flush()
            client.close()
            assert client.acked_documents == 30
            assert len(server.store) == 30

    def test_sink_pace_mode_never_drops(self, fabric_nospool):
        sink = CollectionSink(fabric_nospool.address, batch_size=8,
                              flush_interval=0.01, pace=True,
                              max_pending=64)
        total = 200
        for i in range(total):
            sink.ship(_document_xml(f"w{i % 7}", calls=i + 1))
        summary = sink.close()
        assert sink.dropped == 0
        assert summary["dropped"] == 0
        assert summary["shipped"] == total
        assert len(fabric_nospool.store) == total

    def test_pace_mode_survives_mid_run_restart(self, tmp_path):
        spool = str(tmp_path / "spool")
        server = IngestServer(port=0, shards=2, spool_dir=spool).start()
        port = server.address[1]
        sink = CollectionSink(server.address, batch_size=4,
                              flush_interval=0.01, pace=True,
                              max_pending=32)
        for i in range(40):
            sink.ship(_document_xml(f"app{i % 3}", calls=i + 1))
            if i == 19:
                server.stop()  # mid-run outage...
                server = IngestServer(port=port, shards=2,
                                      spool_dir=spool).start()
        summary = sink.close()
        server.stop()
        assert summary["dropped"] == 0
        assert summary["shipped"] == 40
        # acked ⇒ stored-or-replayed: a fresh replay sees all 40
        final = IngestServer(shards=2, spool_dir=spool).start()
        try:
            assert len(final.store) == 40
        finally:
            final.stop()


# ----------------------------------------------------------------------
# pace-mode shutdown: close() must release a blocked producer
# ----------------------------------------------------------------------

class TestPaceShutdown:
    def test_close_releases_producer_blocked_at_watermark(self):
        # a transport that wedges: the worker grabs one frame and stalls
        # inside it, so the queue backs up to the watermark and the
        # producer blocks — the historical deadlock shape
        stall = threading.Event()

        def stalled_transport(address, documents, timeout):
            stall.wait(timeout=10)
            return True

        sink = CollectionSink(("127.0.0.1", 1), batch_size=4,
                              flush_interval=0.01, pace=True,
                              max_pending=8, transport=stalled_transport)
        errors = []

        def produce():
            try:
                for i in range(20):
                    sink.ship(_document_xml(f"p{i}"))
            except Exception as exc:  # noqa: BLE001 - recorded for assert
                errors.append(exc)

        producer = threading.Thread(target=produce, daemon=True)
        producer.start()
        deadline = time.time() + 5
        while time.time() < deadline and sink.pending() < sink.max_pending:
            time.sleep(0.005)
        assert sink.pending() >= sink.max_pending

        # close() while the producer is wedged: it must come back with
        # a clear error, never hang and never silently strand documents
        sink.close(timeout=0.2)
        producer.join(timeout=5)
        assert not producer.is_alive()
        assert errors, "blocked producer was not released by close()"
        assert isinstance(errors[0], CollectionSinkClosed)

        # a paced sink stays closed: no silent worker resurrection
        with pytest.raises(CollectionSinkClosed):
            sink.ship(_document_xml("late"))

        stall.set()  # unwedge the worker so its daemon thread can exit
        if sink._thread is not None:
            sink._thread.join(timeout=5)

    def test_close_after_clean_drain_still_refuses_late_ship(self):
        shipped = []

        def transport(address, documents, timeout):
            shipped.extend(documents)
            return True

        sink = CollectionSink(("127.0.0.1", 1), batch_size=4,
                              flush_interval=0.01, pace=True,
                              max_pending=8, transport=transport)
        for i in range(6):
            sink.ship(_document_xml(f"c{i}"))
        summary = sink.close()
        assert summary["shipped"] == 6
        assert summary["pending"] == 0
        with pytest.raises(CollectionSinkClosed):
            sink.ship(_document_xml("late"))
        # non-pace sinks keep the legacy lenient behavior
        lenient = CollectionSink(("127.0.0.1", 1), batch_size=4,
                                 transport=transport)
        lenient.close()
        lenient.ship(_document_xml("ok"))  # restarts the worker quietly
        lenient.close()


# ----------------------------------------------------------------------
# sequencing: dedup, resend, exactly-once
# ----------------------------------------------------------------------

class TestSequencing:
    def test_resent_frame_is_dedupped(self, fabric_nospool):
        client = FabricClient(fabric_nospool.address, shipper="dup")
        payload = _document_xml("a")
        client.ship([payload])
        # replay the exact same sequenced frame by hand
        frame = client._build_frame(1, [payload.encode()])
        client._sock.sendall(frame)
        client._unacked.append((1, frame, 1))
        client._read_ack()
        client.close()
        assert client.duplicate_acks == 1
        assert len(fabric_nospool.store) == 1
        assert fabric_nospool.duplicates == 1

    def test_reconnect_resends_unacked(self, fabric_nospool):
        client = FabricClient(fabric_nospool.address, shipper="rc")
        client.ship([_document_xml("a")])
        # tear the connection down with a frame un-acked on the wire
        client._drop_connection()
        client.ship([_document_xml("b")])
        client.close()
        assert sorted(fabric_nospool.store.applications()) == ["a", "b"]

    def test_chaos_resets_exactly_once(self, fabric):
        """net-reset/net-slow chaos: every document exactly once."""
        plan = ChaosPlan(seed=3, schedule={
            "net-reset": (0, 2, 5, 9, 13, 21),
            "net-slow": (1, 4, 11),
        })
        injector = ChaosInjector(plan)
        client = FabricClient(fabric.address, shipper="chaos",
                              retry_backoff=0.001)
        injector.arm_fabric(client)
        shipped = []
        for i in range(25):
            xml = _document_xml(f"app{i % 4}", calls=i + 1)
            client.ship([xml])
            shipped.append(xml)
        client.flush()
        client.close()
        assert injector.calls_seen("net-reset") > 0
        assert len(injector.event_log()) >= 6
        assert client.resets >= 1
        # exactly once: no loss, no duplication
        assert (sorted(d.raw_xml for d in fabric.store.documents)
                == sorted(shipped))


# ----------------------------------------------------------------------
# durability: restart replay
# ----------------------------------------------------------------------

class TestRestartReplay:
    def test_acked_documents_survive_restart(self, tmp_path):
        spool = str(tmp_path / "spool")
        shipped = [_document_xml(f"app{i}", calls=i + 1) for i in range(9)]
        with IngestServer(shards=3, spool_dir=spool) as server:
            client = FabricClient(server.address, shipper="s")
            for xml in shipped:
                client.ship([xml])
            client.close()
        with IngestServer(shards=3, spool_dir=spool) as reborn:
            assert reborn.replayed == 9
            assert (sorted(d.raw_xml for d in reborn.store.documents)
                    == sorted(shipped))
            # fleet aggregates are rebuilt too
            assert reborn.fleet().snapshot()["documents"] == 9
            # dedup state survives: resending seq <= 9 is a DUP
            client = FabricClient(reborn.address, shipper="s")
            client._seq = 9
            client.ship([shipped[0]])
            client.close()
            assert reborn.duplicates == 0  # seq 10 is fresh
            assert len(reborn.store) == 10

    def test_keyed_spool_survives_restart_and_refuses_unkeyed(
            self, tmp_path):
        spool = str(tmp_path / "spool")
        key = b"fleet-deployment-key"
        with IngestServer(shards=2, spool_dir=spool,
                          spool_key=key) as server:
            assert submit_documents(
                server.address,
                [_document_xml(f"app{i}") for i in range(6)])
        with IngestServer(shards=2, spool_dir=spool,
                          spool_key=key) as reborn:
            assert len(reborn.store) == 6
        # a restart without the deployment key must refuse the spool
        # rather than ingest records it cannot authenticate
        with pytest.raises(SpoolAuthenticationError):
            IngestServer(shards=2, spool_dir=spool).start()

    def test_restart_with_different_shard_count(self, tmp_path):
        spool = str(tmp_path / "spool")
        with IngestServer(shards=4, spool_dir=spool) as server:
            assert submit_documents(
                server.address,
                [_document_xml(f"app{i}") for i in range(8)])
        with IngestServer(shards=2, spool_dir=spool) as reborn:
            assert len(reborn.store) == 8
            for i in range(8):
                assert len(reborn.store.by_application(f"app{i}")) == 1


# ----------------------------------------------------------------------
# the stats frame and the sharded store facade
# ----------------------------------------------------------------------

class TestStatsAndStore:
    def test_stats_frame(self, fabric_nospool):
        submit_documents(fabric_nospool.address,
                         [_document_xml("a", calls=2),
                          _document_xml("b", calls=3)])
        snapshot = fetch_fleet_stats(fabric_nospool.address)
        assert snapshot["documents"] == 2
        assert snapshot["applications"] == 2
        assert snapshot["server"]["documents"] == 2
        assert snapshot["server"]["shards"] == 3
        (cell,) = snapshot["cells"].values()
        assert cell["calls"] == 5

    def test_sharded_store_queries(self, fabric_nospool):
        for i in range(12):
            submit_document(fabric_nospool.address,
                            _document_xml(f"app{i % 4}", calls=i + 1))
        store = fabric_nospool.store
        assert len(store) == 12
        assert store.applications() == [f"app{i}" for i in range(4)]
        assert len(store.by_application("app1")) == 3
        assert store.aggregate_calls() == {"strlen": sum(range(1, 13))}
        kinds = store.by_kind("call-counts")
        assert len(kinds) == 12

    def test_error_frames_keep_fabric_serving(self, fabric_nospool):
        _send_frame(fabric_nospool.address, BATCH_MAGIC + b"\x00" * 4)
        _send_frame(fabric_nospool.address, struct.pack(">I", 1 << 30))
        _send_frame(fabric_nospool.address,
                    _single_frame(b"<not-xml"))
        assert submit_document(fabric_nospool.address, _document_xml("ok"))
        assert len(fabric_nospool.store) == 1
        assert len(fabric_nospool.errors) == 3

    def test_rejected_frame_raises_protocol_error(self, fabric_nospool):
        client = FabricClient(fabric_nospool.address, shipper="bad")
        with pytest.raises(CollectionProtocolError):
            client.ship(["<not-a-profile/>"])
        client.close()

    def test_concurrent_shippers_on_one_fabric(self, fabric_nospool):
        threads_n, docs_per_thread = 8, 15

        def shipper(worker):
            client = FabricClient(fabric_nospool.address,
                                  shipper=f"w{worker}")
            for i in range(docs_per_thread):
                client.ship([_document_xml(f"w{worker}", calls=i + 1)],
                            wait=False)
            client.flush()
            client.close()

        workers = [threading.Thread(target=shipper, args=(w,))
                   for w in range(threads_n)]
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join()
        assert len(fabric_nospool.store) == threads_n * docs_per_thread
        assert not fabric_nospool.errors


# ----------------------------------------------------------------------
# one thread: parse all, then spool; acks only after the pass commits
# ----------------------------------------------------------------------

def _sequenced_frame(shipper: str, seq: int, payloads) -> bytes:
    return FabricClient(("127.0.0.1", 0), shipper=shipper)._build_frame(
        seq, payloads)


def _read_lines(conn, count):
    buffer = b""
    while buffer.count(b"\n") < count:
        data = conn.recv(4096)
        if not data:
            break
        buffer += data
    return buffer.splitlines()


class TestInlineFabric:
    @pytest.mark.parametrize("shards", [1, 4, 16])
    def test_fabric_starts_exactly_one_thread(self, shards):
        before = set(threading.enumerate())
        with IngestServer(shards=shards) as server:
            started = [thread for thread in threading.enumerate()
                       if thread not in before]
            assert len(started) == 1
            assert submit_document(server.address, _document_xml("one"))
            assert len(server.store) == 1

    def test_rejected_frame_sequence_is_not_remembered(self,
                                                       fabric_nospool):
        bad = _sequenced_frame("rs", 1, [b"<not xml"])
        assert _send_frame(fabric_nospool.address, bad) \
            == b"ERR malformed\n"
        # the same frame again is judged again, not acked DUP
        assert _send_frame(fabric_nospool.address, bad) \
            == b"ERR malformed\n"
        # and the corrected resend under the same sequence is stored
        good = _sequenced_frame("rs", 1, [_document_xml("rs").encode()])
        reply = _send_frame(fabric_nospool.address, good)
        assert reply.startswith(b"OK 1 ") and b"DUP" not in reply
        assert len(fabric_nospool.store) == 1
        assert fabric_nospool.duplicates == 0

    def test_dup_ack_waits_for_the_original_commit(self, tmp_path,
                                                   monkeypatch):
        commit = SpoolWriter.commit
        durable = []

        def slow_commit(writer):
            time.sleep(0.5)
            staged = commit(writer)
            if staged:
                durable.append(time.monotonic())
            return staged

        monkeypatch.setattr(SpoolWriter, "commit", slow_commit)
        frame = _sequenced_frame("slow", 1, [_document_xml("s").encode()])
        with IngestServer(shards=1,
                          spool_dir=str(tmp_path / "spool")) as server:
            with socket.create_connection(server.address, timeout=5) as a, \
                    socket.create_connection(server.address,
                                             timeout=5) as b:
                a.sendall(frame)
                time.sleep(0.1)  # the original is now being committed
                b.sendall(frame)
                (dup,) = _read_lines(b, 1)
                dup_at = time.monotonic()
                (first,) = _read_lines(a, 1)
            assert first.startswith(b"OK 1 ") and b"DUP" not in first
            assert dup.endswith(b"DUP")
            assert durable and durable[0] <= dup_at
            assert len(server.store) == 1

    def test_routes_by_parsed_application(self):
        # the XML escapes the name (a&lt;b), which hashes to another shard
        with IngestServer(shards=4) as server:
            assert submit_document(server.address, _document_xml("a<b"))
            assert submit_documents(server.address,
                                    [_document_xml("a<b", calls=2)])
            assert len(server.store.by_application("a<b")) == 2
            assert server.store.applications() == ["a<b"]

    def test_spool_error_answers_err_and_keeps_serving(self, tmp_path,
                                                       monkeypatch):
        def disk_full(writer):
            raise OSError(errno.ENOSPC, "No space left on device")

        spool = str(tmp_path / "spool")
        doc = _document_xml("full")
        server = IngestServer(shards=2, spool_dir=spool).start()
        try:
            monkeypatch.setattr(SpoolWriter, "commit", disk_full)
            client = FabricClient(server.address, shipper="full",
                                  timeout=2, retries=1)
            with pytest.raises(CollectionProtocolError, match="ERR spool"):
                client.ship([doc])
            assert len(server.store) == 0
            assert any("No space left" in error for error in server.errors)
            monkeypatch.undo()
            # the loop still serves, and the resend of the refused
            # sequence is stored, not acked DUP
            client._seq = 0
            client.ship([doc])
            client.close()
            assert client.duplicate_acks == 0
            assert len(server.store) == 1
            monkeypatch.setattr(SpoolWriter, "commit", disk_full)
        finally:
            server.stop()  # must not raise while the disk stays full
        monkeypatch.undo()
        # the refused copy was rolled back: only the stored one replays
        with IngestServer(shards=2, spool_dir=spool) as reborn:
            assert [d.raw_xml for d in reborn.store.documents] == [doc]

    def test_replies_keep_frame_order_within_a_pass(self, fabric_nospool):
        good = _document_xml("order").encode()
        frames = (_sequenced_frame("order", 1, [good])
                  + _sequenced_frame("order", 1, [good])
                  + _sequenced_frame("order", 2, [b"<garbage/>"])
                  + _sequenced_frame("order", 3, [good, good]))
        with socket.create_connection(fabric_nospool.address,
                                      timeout=5) as conn:
            conn.sendall(frames)
            lines = _read_lines(conn, 4)
        assert [line.split(b" ")[:2] for line in lines] == [
            [b"OK", b"1"], [b"OK", b"1"], [b"ERR", b"malformed"],
            [b"OK", b"2"]]
        assert lines[1].endswith(b"DUP")
        assert len(fabric_nospool.store) == 3

    def test_failed_rotation_keeps_acked_documents(self, tmp_path,
                                                   monkeypatch):
        def no_descriptors(*args, **kwargs):
            raise OSError(errno.EMFILE, "Too many open files")

        spool = str(tmp_path / "spool")
        acked = [_document_xml("rot", calls=n) for n in range(1, 4)]
        server = IngestServer(shards=1, spool_dir=spool).start()
        try:
            client = FabricClient(server.address, shipper="rot",
                                  timeout=2, retries=1)
            client.ship(acked)
            # the next append rotates, and opening the new segment fails
            server._spools[0].segment_bytes = 1
            monkeypatch.setattr(spool_module, "open", no_descriptors,
                                raising=False)
            with pytest.raises(CollectionProtocolError, match="ERR spool"):
                client.ship([_document_xml("rot", calls=9)])
            monkeypatch.undo()
            client.close()
        finally:
            server.stop()
        with IngestServer(shards=1, spool_dir=spool) as reborn:
            assert [d.raw_xml for d in reborn.store.documents] == acked

    def test_stats_reply_counts_the_frames_acked_before_it(self,
                                                           fabric_nospool):
        frame = _sequenced_frame("st", 1, [_document_xml("st").encode()])
        with socket.create_connection(fabric_nospool.address,
                                      timeout=5) as conn:
            conn.sendall(frame + STATS_MAGIC)
            buffer = b""
            while b"\n" not in buffer:
                buffer += conn.recv(4096)
            ack, _, rest = buffer.partition(b"\n")
            while len(rest) < 4:
                rest += conn.recv(4096)
            (length,) = struct.unpack(">I", rest[:4])
            payload = rest[4:]
            while len(payload) < length:
                payload += conn.recv(4096)
        assert ack.startswith(b"OK 1 ")
        snapshot = json.loads(payload.decode("utf-8"))
        assert snapshot["store_documents"] == 1
        assert snapshot["server"]["documents"] == 1
