"""Tests for the telemetry event model, bus, and sinks."""

import io
import json
import threading
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.profiling import ProfileDocument
from repro.telemetry import (
    CallEvent,
    CallLogEvent,
    CollectionSink,
    DocumentReady,
    DocumentShipped,
    ErrnoEvent,
    EventBus,
    ExectimeEvent,
    JsonlSink,
    MetricsSink,
    ProbeEvent,
    SecurityEvent,
    Sink,
    StateSink,
    ViolationEvent,
)
from repro.wrappers.state import WrapperState


class RecordingSink(Sink):
    """Keeps every batch it receives, in order."""

    def __init__(self):
        self.batches = []
        self.closed = False

    def handle_batch(self, events):
        self.batches.append(list(events))

    def close(self):
        self.closed = True

    def events(self):
        return [event for batch in self.batches for event in batch]


class TestEventModel:
    def test_to_dict_carries_kind_and_slots(self):
        event = ErrnoEvent("fopen", 2, scope="function")
        assert event.to_dict() == {
            "kind": "errno", "function": "fopen",
            "errno_value": 2, "scope": "function",
        }

    def test_repr_and_equality(self):
        a = CallEvent("strlen")
        b = CallEvent("strlen")
        assert a == b
        assert a != CallEvent("strcpy")
        assert a != ExectimeEvent("strlen", 1)
        assert "strlen" in repr(a)

    def test_all_kinds_distinct(self):
        kinds = {
            cls.kind
            for cls in (CallEvent, CallLogEvent, DocumentReady,
                        DocumentShipped, ErrnoEvent, ExectimeEvent,
                        ProbeEvent, SecurityEvent, ViolationEvent)
        }
        assert len(kinds) == 9


class TestEventBus:
    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            EventBus(capacity=0)

    def test_flush_on_full_never_drops(self):
        sink = RecordingSink()
        bus = EventBus(capacity=4, sinks=[sink])
        for i in range(10):
            bus.emit(CallEvent(f"f{i}"))
        # two full batches dispatched inline, two events still buffered
        assert [len(batch) for batch in sink.batches] == [4, 4]
        bus.flush()
        assert [len(batch) for batch in sink.batches] == [4, 4, 2]
        assert bus.emitted == 10
        assert bus.batches == 3
        assert [e.function for e in sink.events()] == [
            f"f{i}" for i in range(10)
        ]

    def test_flush_when_empty_is_idempotent(self):
        sink = RecordingSink()
        bus = EventBus(sinks=[sink])
        bus.flush()
        bus.flush()
        assert sink.batches == []
        assert bus.batches == 0

    def test_subscribe_unsubscribe(self):
        early, late = RecordingSink(), RecordingSink()
        bus = EventBus(sinks=[early])
        bus.emit(CallEvent("a"))
        bus.subscribe(late)
        bus.emit(CallEvent("b"))
        bus.flush()
        bus.unsubscribe(early)
        bus.emit(CallEvent("c"))
        bus.flush()
        assert [e.function for e in early.events()] == ["a", "b"]
        assert [e.function for e in late.events()] == ["a", "b", "c"]

    def test_emit_many(self):
        sink = RecordingSink()
        bus = EventBus(capacity=3, sinks=[sink])
        bus.emit_many([CallEvent(str(i)) for i in range(7)])
        assert bus.emitted == 7
        assert [len(b) for b in sink.batches] == [3, 3]

    def test_context_manager_closes_sinks(self):
        sink = RecordingSink()
        with EventBus(sinks=[sink]) as bus:
            bus.emit(CallEvent("x"))
        assert sink.closed
        assert len(sink.events()) == 1

    def test_busless_sink_is_null_device(self):
        bus = EventBus(capacity=2)
        for _ in range(5):
            bus.emit(CallEvent("x"))
        bus.flush()
        assert bus.emitted == 5  # accepted, nowhere to go, no error


class TestConcurrency:
    def test_no_events_lost_across_threads(self):
        """N emitter threads through a tiny buffer lose zero events."""
        sink = RecordingSink()
        bus = EventBus(capacity=7, sinks=[sink])
        threads_n, events_n = 8, 500
        barrier = threading.Barrier(threads_n)

        def emitter(worker):
            barrier.wait()
            for i in range(events_n):
                bus.emit(CallEvent(f"w{worker}"))

        workers = [threading.Thread(target=emitter, args=(w,))
                   for w in range(threads_n)]
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join()
        bus.flush()
        counts = Counter(e.function for e in sink.events())
        assert bus.emitted == threads_n * events_n
        assert counts == {f"w{w}": events_n for w in range(threads_n)}

    def test_concurrent_metrics_sink_totals(self):
        metrics = MetricsSink()
        bus = EventBus(capacity=16, sinks=[metrics])

        def emitter():
            for i in range(300):
                bus.emit(CallEvent("strlen"))
                bus.emit(ExectimeEvent("strlen", 100 + i))

        workers = [threading.Thread(target=emitter) for _ in range(4)]
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join()
        bus.flush()
        assert metrics.calls["strlen"] == 1200
        snap = metrics.snapshot()
        assert snap["exectime"]["strlen"]["samples"] == 1200


# ----------------------------------------------------------------------
# StateSink equivalence: the event replay must rebuild exactly the state
# the pre-bus generator hooks mutated in place, so the Fig. 5 XML is
# byte-identical.
# ----------------------------------------------------------------------

_FUNCTIONS = ("strcpy", "strlen", "malloc", "free", "toupper")

_ops = st.lists(
    st.one_of(
        st.tuples(st.just("call"), st.sampled_from(_FUNCTIONS)),
        st.tuples(st.just("exectime"), st.sampled_from(_FUNCTIONS),
                  st.integers(min_value=1, max_value=10**6)),
        st.tuples(st.just("errno"), st.sampled_from(_FUNCTIONS),
                  st.integers(min_value=0, max_value=34),
                  st.sampled_from(["global", "function"])),
        st.tuples(st.just("violation"), st.sampled_from(_FUNCTIONS),
                  st.sampled_from(["s", "size", "ptr"]),
                  st.sampled_from(["null_pointer", "buffer_capacity"]),
                  st.text(max_size=12)),
        st.tuples(st.just("security"), st.sampled_from(_FUNCTIONS),
                  st.text(max_size=12), st.booleans()),
    ),
    max_size=60,
)


def _apply_direct(state, op):
    """The pre-refactor hook mutations, verbatim."""
    kind = op[0]
    if kind == "call":
        state.calls[op[1]] += 1
    elif kind == "exectime":
        state.exectime_ns[op[1]] += op[2]
    elif kind == "errno":
        if op[3] == "function":
            state.func_errnos.setdefault(op[1], Counter())[op[2]] += 1
        else:
            state.global_errnos[op[2]] += 1
    elif kind == "violation":
        from repro.wrappers.state import ViolationRecord

        state.violations.append(ViolationRecord(
            function=op[1], param=op[2], check=op[3], detail=op[4]))
    elif kind == "security":
        from repro.wrappers.state import SecurityEvent as SecurityRecord

        state.security_events.append(SecurityRecord(
            function=op[1], reason=op[2], terminated=op[3]))


def _to_event(op):
    kind = op[0]
    if kind == "call":
        return CallEvent(op[1])
    if kind == "exectime":
        return ExectimeEvent(op[1], op[2])
    if kind == "errno":
        return ErrnoEvent(op[1], op[2], scope=op[3])
    if kind == "violation":
        return ViolationEvent(op[1], op[2], op[3], op[4])
    return SecurityEvent(op[1], op[2], op[3])


class TestStateSinkEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(ops=_ops)
    def test_rebuilt_state_renders_identical_xml(self, ops):
        direct = WrapperState()
        for op in ops:
            _apply_direct(direct, op)

        sink = StateSink()
        bus = EventBus(capacity=5, sinks=[sink])
        for op in ops:
            bus.emit(_to_event(op))
        bus.flush()

        reference = ProfileDocument.from_state(
            direct, "app", "profiling").to_xml()
        rebuilt = ProfileDocument.from_state(
            sink.state, "app", "profiling").to_xml()
        assert rebuilt == reference

    def test_from_events_convenience(self):
        events = [CallEvent("strlen"), ExectimeEvent("strlen", 500),
                  ErrnoEvent("strlen", 14)]
        document = ProfileDocument.from_events(events, "app", "profiling")
        assert document.functions["strlen"].calls == 1
        assert document.global_errnos[14] == 1

    def test_call_log_rebuilt_in_order(self):
        sink = StateSink()
        bus = EventBus(sinks=[sink])
        bus.emit(CallLogEvent("strlen", (1,)))
        bus.emit(CallLogEvent("malloc", (8,)))
        bus.flush()
        assert sink.state.call_log == [("strlen", (1,)),
                                       ("malloc", (8,))]


class TestJsonlSink:
    def test_one_json_object_per_event(self):
        stream = io.StringIO()
        sink = JsonlSink(stream)
        bus = EventBus(sinks=[sink])
        bus.emit(CallEvent("strlen"))
        bus.emit(ProbeEvent("strcpy", "dest", "NULL", "SEGFAULT",
                            failed=True))
        bus.close()
        lines = stream.getvalue().strip().splitlines()
        assert len(lines) == 2
        first, second = (json.loads(line) for line in lines)
        assert first == {"kind": "call", "function": "strlen"}
        assert second["kind"] == "probe"
        assert second["failed"] is True
        assert sink.written == 2

    def test_path_target_appends(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        for _ in range(2):
            sink = JsonlSink(path)
            bus = EventBus(sinks=[sink])
            bus.emit(CallEvent("free"))
            bus.close()
        with open(path, encoding="utf-8") as handle:
            assert len(handle.readlines()) == 2


class TestMetricsSink:
    def test_counters(self):
        metrics = MetricsSink()
        bus = EventBus(sinks=[metrics])
        bus.emit(CallEvent("strlen"))
        bus.emit(CallEvent("strlen"))
        bus.emit(ErrnoEvent("strlen", 14))
        bus.emit(ViolationEvent("strcpy", "src", "null_pointer", "NULL"))
        bus.emit(SecurityEvent("strcpy", "overflow", terminated=True))
        bus.emit(ProbeEvent("free", "ptr", "0x1", "SEGFAULT", failed=True))
        bus.emit(ProbeEvent("free", "ptr", "NULL", "OK", failed=False,
                            cached=True))
        bus.emit(DocumentShipped(documents=3, frame_bytes=99, ok=True,
                                 attempts=1))
        bus.emit(DocumentShipped(documents=2, frame_bytes=50, ok=False,
                                 attempts=3))
        bus.flush()
        assert metrics.calls["strlen"] == 2
        assert metrics.errnos[14] == 1
        assert metrics.violations["null_pointer"] == 1
        assert metrics.security_events["strcpy"] == 1
        assert metrics.probes == 2
        assert metrics.probe_failures == 1
        assert metrics.probe_cached == 1
        assert metrics.documents_shipped == 3
        assert metrics.ship_failures == 1

    def test_quantiles(self):
        metrics = MetricsSink()
        bus = EventBus(sinks=[metrics])
        for elapsed in range(1, 101):
            bus.emit(ExectimeEvent("strlen", elapsed * 10))
        bus.flush()
        p50, p99 = metrics.exectime_quantiles("strlen")
        assert 490 <= p50 <= 510
        assert 980 <= p99 <= 1000
        assert metrics.exectime_quantiles("unknown") == (0, 0)

    def test_reservoir_bounded(self):
        metrics = MetricsSink(reservoir_limit=10)
        bus = EventBus(sinks=[metrics])
        for _ in range(50):
            bus.emit(ExectimeEvent("strlen", 5))
        bus.flush()
        snap = metrics.snapshot()
        assert snap["exectime"]["strlen"]["samples"] == 10
        assert snap["exectime"]["strlen"]["total_ns"] == 250

    def test_describe_mentions_headline_numbers(self):
        metrics = MetricsSink()
        bus = EventBus(sinks=[metrics])
        bus.emit(CallEvent("strlen"))
        bus.emit(ExectimeEvent("strlen", 123))
        bus.flush()
        text = metrics.describe()
        assert "1 calls" in text
        assert "strlen" in text
        assert "p50" in text and "p99" in text

    def test_snapshot_is_json_serialisable(self):
        metrics = MetricsSink()
        bus = EventBus(sinks=[metrics])
        bus.emit(ErrnoEvent("fopen", 2))
        bus.flush()
        json.dumps(metrics.snapshot())


class TestCollectionSink:
    def test_batch_size_validated(self):
        with pytest.raises(ValueError):
            CollectionSink(("127.0.0.1", 1), batch_size=0)

    def test_ships_document_ready_events(self, collection_server):
        server = collection_server
        sink = CollectionSink(server.address, batch_size=8,
                              flush_interval=0.01)
        bus = EventBus(sinks=[sink])
        xml = ProfileDocument.from_events(
            [CallEvent("strlen")], "app", "profiling").to_xml()
        for _ in range(20):
            bus.emit(DocumentReady(application="app", xml=xml))
        bus.close()
        assert sink.shipped == 20
        assert sink.failed == 0
        assert sink.pending() == 0
        assert len(server.store) == 20
        # batching actually happened: far fewer frames than documents
        assert sink.frames < 20

    def test_retry_then_success(self, collection_server, monkeypatch):
        server = collection_server
        from repro.collection import server as server_module

        real = server_module.submit_documents
        calls = {"n": 0}

        def flaky(address, xml_texts, timeout=5.0):
            calls["n"] += 1
            if calls["n"] == 1:
                raise OSError("connection refused")
            return real(address, xml_texts, timeout=timeout)

        monkeypatch.setattr(server_module, "submit_documents", flaky)
        report = EventBus()
        shipped_events = RecordingSink()
        report.subscribe(shipped_events)
        sink = CollectionSink(server.address, retries=3,
                              retry_backoff=0.01, report_bus=report)
        sink.ship(ProfileDocument.from_events(
            [], "app", "profiling").to_xml())
        sink.close()
        report.flush()
        assert sink.shipped == 1
        assert calls["n"] == 2
        (event,) = shipped_events.events()
        assert event.kind == "document-shipped"
        assert event.ok and event.attempts == 2

    def test_all_retries_exhausted_counts_failure(self):
        # a port nothing listens on: every attempt raises
        sink = CollectionSink(("127.0.0.1", 1), retries=2,
                              retry_backoff=0.01, timeout=0.2)
        sink.ship("<not-even-xml/>")
        sink.close()
        assert sink.failed == 1
        assert sink.shipped == 0


@pytest.fixture
def collection_server():
    from repro.collection import IngestServer

    with IngestServer() as server:
        yield server
