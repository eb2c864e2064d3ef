"""Version edits, MANIFEST persistence, and the CURRENT pointer."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import CorruptionError
from repro.sim.storage import SimulatedStorage
from repro.util.keys import KIND_PUT, InternalKey
from repro.version import (
    FileMetadata,
    ManifestReader,
    ManifestWriter,
    VersionEdit,
    read_current,
    set_current,
)
from repro.version.manifest import GUARD_KEY, GUARD_NONE, GUARD_SENTINEL


def meta(number, lo=b"a", hi=b"z", size=100, entries=10):
    return FileMetadata(
        number=number,
        smallest=InternalKey(lo, 1, KIND_PUT),
        largest=InternalKey(hi, 2, KIND_PUT),
        file_size=size,
        num_entries=entries,
    )


class TestFileMetadata:
    def test_roundtrip(self):
        m = meta(7)
        decoded, offset = FileMetadata.decode(m.encode(), 0)
        assert (decoded.number, decoded.file_size, decoded.num_entries) == (7, 100, 10)
        assert decoded.smallest == m.smallest and decoded.largest == m.largest

    def test_sequence_bound_is_persisted_and_the_filter_is_not(self):
        from repro.bloom import BloomFilter
        from repro.util.keys import MAX_SEQUENCE

        assert meta(7).largest_seq == MAX_SEQUENCE  # built without one: unbounded
        m = meta(7)
        m.largest_seq, m.bloom = 41, BloomFilter.for_keys([b"a"] * 10)
        decoded, offset = FileMetadata.decode(m.encode(), 0)
        assert offset == len(m.encode())
        assert decoded.largest_seq == 41 and decoded.bloom is None
        assert decoded == m  # the filter is not part of a file's identity

    def test_overlaps(self):
        m = meta(1, b"c", b"f")
        assert m.overlaps(b"a", b"c")
        assert m.overlaps(b"d", b"e")
        assert m.overlaps(b"f", b"z")
        assert not m.overlaps(b"g", b"z")
        assert not m.overlaps(b"a", b"b")
        assert m.overlaps(None, None)

    def test_allowed_seeks_derived_from_size(self):
        small = meta(1, size=1000)
        big = meta(2, size=100 * 1024 * 1024)
        assert small.allowed_seeks == 100
        assert big.allowed_seeks > small.allowed_seeks


class TestVersionEdit:
    def test_roundtrip_full(self):
        edit = VersionEdit(last_sequence=99, next_file_number=12, log_number=4)
        edit.add_file(0, meta(1), GUARD_NONE)
        edit.add_file(2, meta(2), GUARD_SENTINEL)
        edit.add_file(3, meta(3), GUARD_KEY, b"guardkey")
        edit.delete_file(1, 5)
        edit.new_guards.append((2, b"g1"))
        edit.deleted_guards.append((3, b"g2"))
        decoded = VersionEdit.decode(edit.encode())
        assert decoded.last_sequence == 99
        assert decoded.next_file_number == 12
        assert decoded.log_number == 4
        assert [(l, m.number, mk, gk) for l, m, mk, gk in decoded.new_files] == [
            (0, 1, GUARD_NONE, b""),
            (2, 2, GUARD_SENTINEL, b""),
            (3, 3, GUARD_KEY, b"guardkey"),
        ]
        assert decoded.deleted_files == [(1, 5)]
        assert decoded.new_guards == [(2, b"g1")]
        assert decoded.deleted_guards == [(3, b"g2")]

    def test_empty_edit_roundtrip(self):
        assert VersionEdit.decode(VersionEdit().encode()).last_sequence is None

    def test_unknown_tag_rejected(self):
        with pytest.raises(CorruptionError):
            VersionEdit.decode(b"\xee")

    @given(
        st.lists(st.tuples(st.integers(0, 6), st.integers(1, 1000)), max_size=10),
        st.lists(st.tuples(st.integers(1, 6), st.binary(min_size=1, max_size=12)), max_size=6),
    )
    @settings(max_examples=30)
    def test_roundtrip_property(self, deletions, guards):
        edit = VersionEdit()
        edit.deleted_files = deletions
        edit.new_guards = guards
        decoded = VersionEdit.decode(edit.encode())
        assert decoded.deleted_files == deletions
        assert decoded.new_guards == guards


class TestManifestLog:
    def test_append_replay(self):
        storage = SimulatedStorage()
        acct = storage.foreground_account()
        writer = ManifestWriter(storage, "MANIFEST-1")
        e1 = VersionEdit(last_sequence=1)
        e1.add_file(0, meta(1), GUARD_NONE)
        e2 = VersionEdit(last_sequence=2)
        e2.delete_file(0, 1)
        writer.append(e1, acct)
        writer.append(e2, acct)
        edits = list(ManifestReader(storage, "MANIFEST-1").edits(acct))
        assert len(edits) == 2
        assert edits[0].new_files[0][1].number == 1
        assert edits[1].deleted_files == [(0, 1)]

    def test_current_pointer(self):
        storage = SimulatedStorage()
        acct = storage.foreground_account()
        assert read_current(storage, acct, "db/") is None
        storage.create("db/MANIFEST-7")
        set_current(storage, "db/MANIFEST-7", acct, "db/")
        assert read_current(storage, acct, "db/") == "db/MANIFEST-7"
        # Repointing replaces atomically.
        storage.create("db/MANIFEST-8")
        set_current(storage, "db/MANIFEST-8", acct, "db/")
        assert read_current(storage, acct, "db/") == "db/MANIFEST-8"

    def test_current_survives_crash(self):
        storage = SimulatedStorage()
        acct = storage.foreground_account()
        storage.create("db/MANIFEST-1")
        storage.sync("db/MANIFEST-1", acct)
        set_current(storage, "db/MANIFEST-1", acct, "db/")
        storage.crash()
        assert read_current(storage, acct, "db/") == "db/MANIFEST-1"
