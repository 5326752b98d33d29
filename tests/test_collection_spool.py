"""Write-ahead spool: format, group commit, and crash recovery."""

import errno
import os
import struct
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collection import (
    ReplayResult,
    SpoolAuthenticationError,
    SpoolWriter,
    replay,
)
from repro.collection.fabric import (
    decode_spool_record,
    encode_spool_record,
    replay_documents,
)
from repro.collection import spool as spool_module
from repro.collection.spool import _MAC_SIZE, list_segments


def _write(directory, payloads, name="spool", **kwargs):
    writer = SpoolWriter(directory, name=name, fsync=False, **kwargs)
    for payload in payloads:
        writer.append(payload)
    writer.commit()
    writer.close()
    return writer


class TestSpoolRoundTrip:
    def test_empty_directory_replays_nothing(self, tmp_path):
        payloads, result = replay(str(tmp_path))
        assert payloads == []
        assert result == ReplayResult()

    def test_round_trip_preserves_order_and_content(self, tmp_path):
        written = [b"alpha", b"", b"\x00\xff" * 100, b"omega"]
        _write(str(tmp_path), written)
        payloads, result = replay(str(tmp_path))
        assert payloads == written
        assert result.records == 4
        assert result.truncated == []

    def test_append_without_commit_is_not_durable_yet(self, tmp_path):
        writer = SpoolWriter(str(tmp_path), fsync=False)
        writer.append(b"staged")
        assert writer.uncommitted == 1
        assert writer.committed == 0
        assert writer.commit() == 1
        assert writer.committed == 1
        writer.close()

    def test_group_commit_batches_syncs(self, tmp_path):
        writer = SpoolWriter(str(tmp_path), fsync=False)
        for i in range(50):
            writer.append(b"doc%d" % i)
        writer.commit()
        writer.close()
        # one commit (plus the close) for 50 records, not one per record
        assert writer.syncs <= 2
        payloads, _ = replay(str(tmp_path))
        assert len(payloads) == 50

    def test_segment_rotation(self, tmp_path):
        _write(str(tmp_path), [b"x" * 100] * 10, segment_bytes=300)
        segments = list_segments(str(tmp_path), "spool")
        assert len(segments) > 1
        payloads, result = replay(str(tmp_path))
        assert payloads == [b"x" * 100] * 10
        assert result.segments == len(segments)

    def test_restart_appends_fresh_segment(self, tmp_path):
        _write(str(tmp_path), [b"first"])
        _write(str(tmp_path), [b"second"])
        assert len(list_segments(str(tmp_path), "spool")) == 2
        payloads, _ = replay(str(tmp_path))
        assert payloads == [b"first", b"second"]

    def test_spools_are_namespaced(self, tmp_path):
        _write(str(tmp_path), [b"a"], name="shard-0")
        _write(str(tmp_path), [b"b"], name="shard-1")
        assert replay(str(tmp_path), name="shard-0")[0] == [b"a"]
        assert replay(str(tmp_path), name="shard-1")[0] == [b"b"]


class TestAbort:
    def test_abort_drops_staged_records(self, tmp_path):
        writer = SpoolWriter(str(tmp_path), fsync=False)
        writer.append(b"kept")
        writer.commit()
        writer.append(b"dropped")
        writer.abort()
        writer.append(b"after")
        writer.commit()
        writer.close()
        assert replay(str(tmp_path))[0] == [b"kept", b"after"]

    def test_abort_before_any_commit_leaves_nothing(self, tmp_path):
        writer = SpoolWriter(str(tmp_path), fsync=False)
        writer.append(b"dropped")
        writer.abort()
        assert replay(str(tmp_path))[0] == []

    def test_abort_rolls_back_across_a_rotation(self, tmp_path):
        # the rotation syncs the staged records early; abort still
        # drops them, and deletes the segment opened after the commit
        writer = SpoolWriter(str(tmp_path), fsync=False, segment_bytes=300)
        writer.append(b"k" * 100)
        writer.commit()
        for _ in range(4):
            writer.append(b"d" * 100)
        assert len(list_segments(str(tmp_path), "spool")) == 2
        writer.abort()
        writer.append(b"after")
        writer.commit()
        writer.close()
        assert replay(str(tmp_path))[0] == [b"k" * 100, b"after"]

    def test_failed_rotation_keeps_committed_records(self, tmp_path,
                                                      monkeypatch):
        writer = SpoolWriter(str(tmp_path), fsync=False, segment_bytes=300)
        committed = [b"c" * 100] * 3
        for payload in committed:
            writer.append(payload)
        writer.commit()

        def no_descriptors(*args, **kwargs):
            raise OSError(errno.EMFILE, "Too many open files")

        monkeypatch.setattr(spool_module, "open", no_descriptors,
                            raising=False)
        with pytest.raises(OSError):
            writer.append(b"refused")
        writer.abort()
        monkeypatch.undo()
        writer.append(b"after")
        writer.commit()
        writer.close()
        assert replay(str(tmp_path))[0] == committed + [b"after"]


class TestTornTail:
    def test_truncated_payload_is_dropped_and_truncated(self, tmp_path):
        _write(str(tmp_path), [b"keep-me", b"torn-record"])
        (path,) = list_segments(str(tmp_path), "spool")
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate(size - 3)
        payloads, result = replay(str(tmp_path))
        assert payloads == [b"keep-me"]
        assert len(result.truncated) == 1
        # the torn bytes are gone: a second replay is clean
        payloads, result = replay(str(tmp_path))
        assert payloads == [b"keep-me"]
        assert result.truncated == []

    def test_corrupt_crc_stops_replay(self, tmp_path):
        _write(str(tmp_path), [b"good", b"evil", b"after"])
        (path,) = list_segments(str(tmp_path), "spool")
        with open(path, "r+b") as handle:
            # flip a byte inside the second record's payload
            handle.seek(8 + 4 + 8 + 1)
            byte = handle.read(1)
            handle.seek(-1, os.SEEK_CUR)
            handle.write(bytes([byte[0] ^ 0xFF]))
        payloads, result = replay(str(tmp_path))
        assert payloads == [b"good"]
        assert len(result.truncated) == 1

    def test_truncate_false_leaves_file_alone(self, tmp_path):
        _write(str(tmp_path), [b"keep", b"torn"])
        (path,) = list_segments(str(tmp_path), "spool")
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate(size - 1)
        replay(str(tmp_path), truncate=False)
        assert os.path.getsize(path) == size - 1


class TestCrashRecoveryProperty:
    """Kill the spool at a random byte offset; replay must recover
    exactly the committed prefix and truncate the torn tail."""

    @given(
        payloads=st.lists(st.binary(min_size=0, max_size=64),
                          min_size=1, max_size=20),
        cut=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_kill_at_random_offset(self, tmp_path_factory, payloads, cut):
        directory = str(tmp_path_factory.mktemp("spool"))
        _write(directory, payloads)
        (path,) = list_segments(directory, "spool")
        size = os.path.getsize(path)
        cut = min(cut, size)
        with open(path, "r+b") as handle:
            handle.truncate(cut)  # the crash: everything past cut lost

        recovered, result = replay(directory)

        # the recovered payloads are exactly a prefix of what was acked
        assert recovered == payloads[: len(recovered)]
        # whole-file survival iff the cut spared every byte
        if cut == size:
            assert recovered == payloads
            assert result.truncated == []
        else:
            assert len(recovered) < len(payloads)
        # the tail was truncated: the segment now ends on a record
        # boundary and a fresh writer + replay sees a clean spool
        recovered2, result2 = replay(directory)
        assert recovered2 == recovered
        assert result2.truncated == []

    @given(
        frames=st.lists(
            st.tuples(st.text(min_size=1, max_size=8),
                      st.integers(min_value=1, max_value=1 << 32),
                      st.lists(st.binary(min_size=1, max_size=32),
                               min_size=1, max_size=4)),
            min_size=1, max_size=8),
    )
    @settings(max_examples=40, deadline=None)
    def test_envelope_round_trip(self, frames, tmp_path_factory):
        directory = str(tmp_path_factory.mktemp("spool"))
        writer = SpoolWriter(directory, name="shard-0", fsync=False)
        expected = []
        for shipper, seq, docs in frames:
            for index, doc in enumerate(docs):
                writer.append(encode_spool_record(
                    shipper, seq, index, len(docs), doc))
                expected.append((shipper, seq, index, len(docs), doc))
        writer.commit()
        writer.close()
        payloads, _ = replay(directory, name="shard-0")
        assert [decode_spool_record(p) for p in payloads] == expected


KEY = b"deployment-key"


def _read_records(path):
    """Every framed payload of one segment, in order."""
    payloads = []
    with open(path, "rb") as handle:
        data = handle.read()
    offset = 0
    while offset + 8 <= len(data):
        length, _ = struct.unpack(">II", data[offset:offset + 8])
        payloads.append(data[offset + 8:offset + 8 + length])
        offset += 8 + length
    return payloads


def _rewrite_records(path, payloads):
    """Re-frame payloads with *valid* CRCs — the attacker's move."""
    with open(path, "wb") as handle:
        for payload in payloads:
            handle.write(struct.pack(">II", len(payload),
                                     zlib.crc32(payload)) + payload)


class TestTamperEvidence:
    """HMAC-chained spools: forged or spliced records must not replay."""

    def test_keyed_round_trip_with_rotation(self, tmp_path):
        written = [b"doc-%d" % i for i in range(10)]
        _write(str(tmp_path), written, key=KEY, segment_bytes=64)
        assert len(list_segments(str(tmp_path), "spool")) > 1
        payloads, result = replay(str(tmp_path), key=KEY)
        assert payloads == written
        assert result.records == 10  # marker records are not documents

    def test_forged_body_with_valid_crc_is_rejected(self, tmp_path):
        _write(str(tmp_path), [b"alpha", b"bravo", b"charlie"], key=KEY)
        (path,) = list_segments(str(tmp_path), "spool")
        records = _read_records(path)  # [marker, alpha, bravo, charlie]
        records[2] = records[2][:_MAC_SIZE] + b"BRAVO"
        _rewrite_records(path, records)
        with pytest.raises(SpoolAuthenticationError,
                           match="record 2.*HMAC"):
            replay(str(tmp_path), key=KEY)

    def test_spliced_reordered_records_are_rejected(self, tmp_path):
        _write(str(tmp_path), [b"alpha", b"bravo", b"charlie"], key=KEY)
        (path,) = list_segments(str(tmp_path), "spool")
        records = _read_records(path)
        records[1], records[2] = records[2], records[1]
        _rewrite_records(path, records)
        with pytest.raises(SpoolAuthenticationError, match="HMAC"):
            replay(str(tmp_path), key=KEY)

    def test_segment_renamed_into_another_spool_is_rejected(self, tmp_path):
        # the chain is seeded from the segment's own basename, so a
        # record set lifted wholesale from another spool cannot verify
        _write(str(tmp_path), [b"stolen"], key=KEY)
        (path,) = list_segments(str(tmp_path), "spool")
        renamed = os.path.join(str(tmp_path), "other-00000000.wal")
        os.rename(path, renamed)
        with pytest.raises(SpoolAuthenticationError, match="HMAC"):
            replay(str(tmp_path), name="other", key=KEY)

    def test_keyed_spool_refuses_unkeyed_replay(self, tmp_path):
        _write(str(tmp_path), [b"secret"], key=KEY)
        with pytest.raises(SpoolAuthenticationError,
                           match="pass the.*deployment key"):
            replay(str(tmp_path))

    def test_legacy_spool_refuses_keyed_replay(self, tmp_path):
        _write(str(tmp_path), [b"legacy"])
        with pytest.raises(SpoolAuthenticationError, match="no.*marker"):
            replay(str(tmp_path), key=KEY)

    def test_legacy_spool_replays_without_key(self, tmp_path):
        written = [b"one", b"two"]
        _write(str(tmp_path), written)
        payloads, result = replay(str(tmp_path))
        assert payloads == written
        assert result.records == 2

    def test_wrong_key_is_rejected(self, tmp_path):
        _write(str(tmp_path), [b"doc"], key=KEY)
        with pytest.raises(SpoolAuthenticationError, match="HMAC"):
            replay(str(tmp_path), key=b"not-the-key")

    def test_torn_keyed_tail_still_truncates(self, tmp_path):
        # a crash mid-write is not an attack: CRC-invalid tails keep
        # the legacy truncate semantics even under a key
        _write(str(tmp_path), [b"keep-a", b"keep-b", b"torn"], key=KEY)
        (path,) = list_segments(str(tmp_path), "spool")
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate(size - 3)
        payloads, result = replay(str(tmp_path), key=KEY)
        assert payloads == [b"keep-a", b"keep-b"]
        assert len(result.truncated) == 1
        # the spool is clean afterwards: append + replay keeps verifying
        writer = SpoolWriter(str(tmp_path), fsync=False, key=KEY)
        writer.append(b"after-crash")
        writer.commit()
        writer.close()
        payloads, _ = replay(str(tmp_path), key=KEY)
        assert payloads[-1] == b"after-crash"

    def test_replay_documents_threads_the_key(self, tmp_path):
        writer = SpoolWriter(str(tmp_path), name="shard-0", fsync=False,
                             key=KEY)
        for seq in range(1, 4):
            writer.append(encode_spool_record("s", seq, 0, 1,
                                              b"<doc %d/>" % seq))
        writer.commit()
        writer.close()
        documents, last_seq, _ = replay_documents(str(tmp_path), 1, key=KEY)
        assert [xml for _, _, xml in documents] == [b"<doc 1/>",
                                                    b"<doc 2/>",
                                                    b"<doc 3/>"]
        assert last_seq == {"s": 3}
        with pytest.raises(SpoolAuthenticationError):
            replay_documents(str(tmp_path), 1)


class TestReplayDocuments:
    """Fabric-level replay semantics over the spool envelopes."""

    def _spool_frame(self, writer, shipper, seq, docs,
                     skip_indexes=()):
        for index, doc in enumerate(docs):
            if index in skip_indexes:
                continue
            writer.append(encode_spool_record(
                shipper, seq, index, len(docs), doc))

    def test_partial_frame_is_dropped_and_seq_forgotten(self, tmp_path):
        writer = SpoolWriter(str(tmp_path), name="shard-0", fsync=False)
        self._spool_frame(writer, "s1", 1, [b"a", b"b"])
        # frame 2 lost one document to a crash between shard fsyncs:
        # it was never acked, so replay must forget it entirely
        self._spool_frame(writer, "s1", 2, [b"c", b"d"], skip_indexes=(1,))
        writer.commit()
        writer.close()
        documents, last_seq, _ = replay_documents(str(tmp_path), 1)
        assert [xml for _, _, xml in documents] == [b"a", b"b"]
        assert last_seq == {"s1": 1}  # a resend of seq 2 will store

    def test_resent_partial_dedups_by_index(self, tmp_path):
        writer = SpoolWriter(str(tmp_path), name="shard-0", fsync=False)
        self._spool_frame(writer, "s1", 5, [b"x", b"y"], skip_indexes=(1,))
        self._spool_frame(writer, "s1", 5, [b"x", b"y"])  # the resend
        writer.commit()
        writer.close()
        documents, last_seq, _ = replay_documents(str(tmp_path), 1)
        assert sorted(xml for _, _, xml in documents) == [b"x", b"y"]
        assert last_seq == {"s1": 5}

    def test_unsequenced_records_always_survive(self, tmp_path):
        writer = SpoolWriter(str(tmp_path), name="shard-0", fsync=False)
        self._spool_frame(writer, "", 0, [b"legacy-1"])
        self._spool_frame(writer, "", 0, [b"legacy-2"])
        writer.commit()
        writer.close()
        documents, last_seq, _ = replay_documents(str(tmp_path), 1)
        assert [xml for _, _, xml in documents] == [b"legacy-1",
                                                    b"legacy-2"]
        assert last_seq == {}
