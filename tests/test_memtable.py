"""Skip list and memtable semantics."""

import random
from operator import attrgetter

import pytest
from hypothesis import given, settings, strategies as st

from repro.memtable import Memtable, SkipList
from repro.util.keys import KIND_DELETE, KIND_PUT, InternalKey

_sort_key = attrgetter("sort_key")


class TestSkipList:
    def test_insert_get(self):
        sl = SkipList(seed=1)
        sl.insert(5, "five")
        sl.insert(1, "one")
        sl.insert(9, "nine")
        assert sl.get(5) == (True, "five")
        assert sl.get(2) == (False, None)
        assert len(sl) == 3

    def test_duplicate_rejected(self):
        sl = SkipList(seed=1)
        sl.insert(1, "a")
        with pytest.raises(ValueError):
            sl.insert(1, "b")

    def test_iteration_sorted(self):
        sl = SkipList(seed=2)
        values = random.Random(3).sample(range(10000), 500)
        for v in values:
            sl.insert(v, v)
        assert [k for k, _ in sl] == sorted(values)

    def test_seek_positions_at_ceiling(self):
        sl = SkipList(seed=1)
        for v in (10, 20, 30):
            sl.insert(v, v)
        assert next(sl.seek(15))[0] == 20
        assert next(sl.seek(20))[0] == 20
        assert list(sl.seek(31)) == []

    def test_first(self):
        sl = SkipList(seed=1)
        assert sl.first() is None
        sl.insert(7, "x")
        assert sl.first() == (7, "x")

    @given(st.sets(st.integers(min_value=0, max_value=10**6), max_size=300))
    @settings(max_examples=30)
    def test_matches_sorted_reference(self, values):
        sl = SkipList(seed=7)
        for v in values:
            sl.insert(v, str(v))
        assert [k for k, _ in sl] == sorted(values)
        for probe in list(values)[:20]:
            assert sl.get(probe) == (True, str(probe))

    def test_order_key_orders_internal_keys_as_lt_does(self):
        """With ``order_key=sort_key`` the list compares tuples in C; the
        order — equal user keys, differing sequence and kind included —
        must be exactly the one ``InternalKey.__lt__`` gives."""
        rng = random.Random(5)
        keys = {
            (b"k%02d" % rng.randrange(12), rng.randrange(1, 40), rng.randrange(3))
            for _ in range(600)
        }
        ikeys = [InternalKey(*fields) for fields in sorted(keys)]
        rng.shuffle(ikeys)
        by_lt, by_order_key = SkipList(seed=3), SkipList(seed=3, order_key=_sort_key)
        for ikey in ikeys:
            by_lt.insert(ikey, ikey.sequence)
            by_order_key.insert(ikey, ikey.sequence)
        assert list(by_order_key) == list(by_lt) == [(k, k.sequence) for k in sorted(ikeys)]
        for probe in ikeys[:50]:
            assert by_order_key.get(probe) == by_lt.get(probe) == (True, probe.sequence)
            assert next(by_order_key.seek(probe)) == next(by_lt.seek(probe))
        absent = InternalKey(b"k05", 99, KIND_PUT)  # newer than any version of k05
        assert by_order_key.get(absent) == (False, None)
        assert next(by_order_key.seek(absent)) == next(by_lt.seek(absent))
        with pytest.raises(ValueError):
            by_order_key.insert(ikeys[0], 0)


class TestMemtable:
    def test_put_get(self):
        mt = Memtable(seed=1)
        mt.put(1, b"k", b"v1")
        result = mt.get(b"k")
        assert (result.found, result.value) == (True, b"v1")

    def test_newest_version_wins(self):
        mt = Memtable(seed=1)
        mt.put(1, b"k", b"old")
        mt.put(5, b"k", b"new")
        assert mt.get(b"k").value == b"new"

    def test_snapshot_sees_old_version(self):
        mt = Memtable(seed=1)
        mt.put(1, b"k", b"old")
        mt.put(5, b"k", b"new")
        assert mt.get(b"k", snapshot=3).value == b"old"
        assert mt.get(b"k", snapshot=0).found is False

    def test_tombstone_reported(self):
        mt = Memtable(seed=1)
        mt.put(1, b"k", b"v")
        mt.delete(2, b"k")
        result = mt.get(b"k")
        assert result.found and result.is_deleted

    def test_iteration_order_and_max_sequence(self):
        mt = Memtable(seed=1)
        mt.put(3, b"b", b"1")
        mt.put(7, b"a", b"2")
        mt.delete(9, b"b")
        entries = list(mt)
        assert [(e[0].user_key, e[0].sequence) for e in entries] == [
            (b"a", 7),
            (b"b", 9),
            (b"b", 3),
        ]
        assert entries[1][0].kind == KIND_DELETE
        assert mt.max_sequence == 9

    def test_approximate_bytes_grows(self):
        mt = Memtable(seed=1)
        before = mt.approximate_bytes
        mt.put(1, b"key", b"x" * 100)
        assert mt.approximate_bytes > before + 100

    def test_seek_starts_at_user_key(self):
        mt = Memtable(seed=1)
        mt.put(1, b"apple", b"1")
        mt.put(2, b"banana", b"2")
        first = next(mt.seek(b"b"))
        assert first[0].user_key == b"banana"

    @given(
        st.lists(
            st.tuples(
                st.sampled_from([KIND_PUT, KIND_DELETE]),
                st.binary(min_size=1, max_size=4),
                st.binary(max_size=8),
            ),
            max_size=100,
        )
    )
    @settings(max_examples=30)
    def test_model_equivalence(self, ops):
        mt = Memtable(seed=5)
        model = {}
        for seq, (kind, key, value) in enumerate(ops, start=1):
            if kind == KIND_PUT:
                mt.put(seq, key, value)
                model[key] = value
            else:
                mt.delete(seq, key)
                model[key] = None
        for key, expected in model.items():
            result = mt.get(key)
            assert result.found
            if expected is None:
                assert result.is_deleted
            else:
                assert result.value == expected
