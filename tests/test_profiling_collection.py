"""Tests for profile documents, reports (Fig. 5) and the collection server."""

import pytest

from repro.collection import CollectionStore, submit_document
from tests.oracles import CollectionServer
from repro.profiling import (
    ProfileDocument,
    render_call_frequency,
    render_containment,
    render_errno_distribution,
    render_full_report,
    render_time_shares,
)
from repro.wrappers.state import SecurityEvent, ViolationRecord, WrapperState


@pytest.fixture
def state():
    state = WrapperState()
    state.calls["strcpy"] = 10
    state.calls["strlen"] = 30
    state.exectime_ns["strcpy"] = 5_000_000
    state.exectime_ns["strlen"] = 1_000_000
    state.record_errno("malloc", 12)
    state.record_errno("malloc", 12)
    state.record_errno("fopen", 2)
    state.violations.append(
        ViolationRecord(function="strcpy", param="dest",
                        check="buffer_capacity", detail="too small")
    )
    state.security_events.append(
        SecurityEvent(function="strcpy", reason="overflow", terminated=True)
    )
    return state


@pytest.fixture
def document(state):
    return ProfileDocument.from_state(state, application="testapp",
                                      wrapper_type="profiling")


class TestProfileDocument:
    def test_totals(self, document):
        assert document.total_calls == 40
        assert document.total_exectime_ns == 6_000_000

    def test_call_frequencies_sorted(self, document):
        rows = document.call_frequencies()
        assert rows[0][0] == "strlen" and rows[0][1] == 30
        assert abs(rows[0][2] - 0.75) < 1e-9

    def test_time_shares_sorted(self, document):
        rows = document.time_shares()
        assert rows[0][0] == "strcpy"

    def test_errno_distribution_names(self, document):
        rows = document.errno_distribution()
        assert rows[0] == (12, "ENOMEM", 2)
        assert (2, "ENOENT", 1) in rows

    def test_collected_kinds(self, document):
        kinds = document.collected_kinds()
        assert "call-counts" in kinds
        assert "execution-time" in kinds
        assert "errno-distribution" in kinds
        assert "robustness-violations" in kinds
        assert "security-events" in kinds

    def test_errno_clamping(self):
        state = WrapperState()
        state.record_errno("f", 9999)
        state.record_errno("f", -3)
        from repro.runtime import Errno
        assert state.global_errnos[Errno.MAX_ERRNO] == 2

    def test_xml_roundtrip(self, document):
        xml = document.to_xml()
        parsed = ProfileDocument.from_xml(xml)
        assert parsed.application == "testapp"
        assert parsed.total_calls == document.total_calls
        assert parsed.functions["strcpy"].calls == 10
        assert parsed.global_errnos == document.global_errnos
        assert parsed.violations[0].check == "buffer_capacity"
        assert parsed.security_events[0].terminated

    def test_xml_is_self_describing(self, document):
        xml = document.to_xml()
        assert 'collected="' in xml
        assert "call-counts" in xml

    def test_reject_non_profile_xml(self):
        with pytest.raises(ValueError):
            ProfileDocument.from_xml("<other/>")

    def test_state_reset(self, state):
        state.reset()
        assert state.total_calls() == 0
        assert not state.violations
        assert not state.size_table


class TestReports:
    def test_call_frequency_report(self, document):
        text = render_call_frequency(document)
        assert "strlen" in text and "75.0%" in text and "#" in text

    def test_time_share_report(self, document):
        text = render_time_shares(document)
        assert "strcpy" in text and "ms" in text

    def test_errno_report(self, document):
        text = render_errno_distribution(document)
        assert "ENOMEM" in text

    def test_containment_report(self, document):
        text = render_containment(document)
        assert "strcpy" in text and "terminated" in text

    def test_full_report_sections(self, document):
        text = render_full_report(document)
        for fragment in ("Call frequency", "Execution time", "Error causes",
                         "testapp"):
            assert fragment in text

    def test_empty_document_reports_gracefully(self):
        empty = ProfileDocument.from_state(WrapperState(), "empty", "profiling")
        text = render_full_report(empty)
        assert "no calls recorded" in text
        assert "No violations" in text


class TestContainmentSnapshot:
    """Pin the exact containment section: grouped counts, per-record
    check tags, explicit truncation, and the terminated tally."""

    @pytest.fixture
    def hardened_document(self):
        state = WrapperState()
        for i in range(3):
            state.violations.append(ViolationRecord(
                function="strcpy", param="dest", check="buffer_capacity",
                detail=f"dest holds {8 + i} bytes"))
        state.violations.append(ViolationRecord(
            function="strlen", param="s", check="null_pointer",
            detail="s is NULL"))
        state.security_events.append(SecurityEvent(
            function="strcpy", reason="heap overflow blocked",
            terminated=True))
        state.security_events.append(SecurityEvent(
            function="gets", reason="unbounded read truncated",
            terminated=False))
        return ProfileDocument.from_state(state, "snapapp", "hardened")

    def test_snapshot(self, hardened_document):
        assert render_containment(hardened_document, limit=2) == (
            "Contained robustness violations (4)\n"
            "     3x strcpy [buffer_capacity]\n"
            "     1x strlen [null_pointer]\n"
            "  strcpy(dest) [buffer_capacity]: dest holds 8 bytes\n"
            "  strcpy(dest) [buffer_capacity]: dest holds 9 bytes\n"
            "  … and 2 more violations\n"
            "Security events (2, 1 terminated the program)\n"
            "  strcpy: heap overflow blocked [terminated]\n"
            "  gets: unbounded read truncated [blocked]"
        )

    def test_full_report_includes_containment(self, hardened_document):
        text = render_full_report(hardened_document)
        assert "3x strcpy [buffer_capacity]" in text
        assert "1 terminated the program" in text


class TestCollectionStore:
    def test_submit_and_index(self, document):
        store = CollectionStore()
        stored = store.submit(document.to_xml())
        assert len(store) == 1
        assert "strcpy" in stored.wrapped_functions
        assert "call-counts" in stored.kinds

    def test_queries(self, document):
        store = CollectionStore()
        store.submit(document.to_xml())
        other = ProfileDocument.from_state(WrapperState(), "other", "logging")
        store.submit(other.to_xml())
        assert store.applications() == ["other", "testapp"]
        assert len(store.by_application("testapp")) == 1
        assert len(store.by_kind("call-counts")) == 1

    def test_aggregate_calls(self, document):
        store = CollectionStore()
        store.submit(document.to_xml())
        store.submit(document.to_xml())
        assert store.aggregate_calls()["strcpy"] == 20

    def test_malformed_rejected(self):
        store = CollectionStore()
        with pytest.raises(Exception):
            store.submit("not xml at all <<<")
        assert len(store) == 0


class TestCollectionServer:
    def test_end_to_end_submission(self, document):
        with CollectionServer() as server:
            assert submit_document(server.address, document.to_xml())
            assert submit_document(server.address, document.to_xml())
        assert len(server.store) == 2
        assert server.store.aggregate_calls()["strlen"] == 60

    def test_malformed_document_rejected(self, document):
        with CollectionServer() as server:
            assert not submit_document(server.address, "garbage <<<")
            assert submit_document(server.address, document.to_xml())
        assert len(server.store) == 1
        assert server.errors
