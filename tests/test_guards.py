"""Guard selection and the guarded-level structure (paper sections 3.1-3.3)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.guards import Guard, GuardedLevel, GuardPicker, trailing_set_bits
from repro.util.keys import KIND_PUT, InternalKey
from repro.version.files import FileMetadata


def meta(number, lo, hi, size=10):
    return FileMetadata(
        number=number,
        smallest=InternalKey(lo, 1, KIND_PUT),
        largest=InternalKey(hi, 1, KIND_PUT),
        file_size=size,
        num_entries=1,
    )


def numbers(guard):
    return [f.number for f in guard.files]


class TestTrailingBits:
    def test_values(self):
        assert trailing_set_bits(0b0) == 0
        assert trailing_set_bits(0b1) == 1
        assert trailing_set_bits(0b0111) == 3
        assert trailing_set_bits(0b1011) == 2
        assert trailing_set_bits(0xFFFFFFFF) == 32


class TestGuardPicker:
    def test_skip_list_property(self):
        """A guard at level i is a guard at every deeper level."""
        picker = GuardPicker(top_level_bits=8, bit_decrement=2, num_levels=7)
        for i in range(5000):
            level = picker.guard_level(b"key%06d" % i)
            if level is not None:
                # required bits decrease with depth, so qualifying for
                # `level` implies qualifying for level+1, +2, ...
                bits = picker.required_bits(level)
                for deeper in range(level + 1, 7):
                    assert picker.required_bits(deeper) <= bits

    def test_deeper_levels_have_more_guards(self):
        picker = GuardPicker(top_level_bits=10, bit_decrement=2, num_levels=7)
        counts = {lvl: 0 for lvl in range(1, 7)}
        n = 30000
        for i in range(n):
            level = picker.guard_level(b"user%08d" % i)
            if level is not None:
                for lvl in range(level, 7):
                    counts[lvl] += 1
        assert counts[1] < counts[3] < counts[5]
        # Expected density at level i is 2^-(required_bits).
        expected_l5 = n / 2 ** picker.required_bits(5)
        assert expected_l5 * 0.5 < counts[5] < expected_l5 * 2.0

    def test_required_bits_floor(self):
        picker = GuardPicker(top_level_bits=3, bit_decrement=2, num_levels=7)
        assert picker.required_bits(6) >= 1

    def test_deterministic(self):
        picker = GuardPicker(13, 2, 7)
        assert picker.guard_level(b"abc") == picker.guard_level(b"abc")

    def test_bad_params_rejected(self):
        with pytest.raises(ValueError):
            GuardPicker(0, 2, 7)


class TestGuardedLevel:
    def test_sentinel_covers_below_first_guard(self):
        lvl = GuardedLevel(1)
        lvl.add_guard(b"m")
        assert lvl.find_guard(b"a").is_sentinel
        assert lvl.find_guard(b"m").key == b"m"
        assert lvl.find_guard(b"z").key == b"m"

    def test_find_guard_between_keys(self):
        lvl = GuardedLevel(1)
        for key in (b"d", b"m", b"t"):
            lvl.add_guard(key)
        assert lvl.find_guard(b"f").key == b"d"
        assert lvl.find_guard(b"m").key == b"m"
        assert lvl.find_guard(b"s").key == b"m"
        assert lvl.find_guard(b"zz").key == b"t"

    def test_add_guard_idempotent(self):
        lvl = GuardedLevel(1)
        assert lvl.add_guard(b"g")
        assert not lvl.add_guard(b"g")
        assert len(lvl) == 1

    def test_guard_range(self):
        lvl = GuardedLevel(1)
        lvl.add_guard(b"d")
        lvl.add_guard(b"m")
        assert lvl.guard_range(lvl.sentinel) == (None, b"d")
        assert lvl.guard_range(lvl.find_guard(b"d")) == (b"d", b"m")
        assert lvl.guard_range(lvl.find_guard(b"m")) == (b"m", None)

    def test_guard_range_of_many_guards(self):
        lvl = GuardedLevel(1)
        keys = [b"g%03d" % i for i in range(200)]
        for key in reversed(keys):
            lvl.add_guard(key)
        for i, key in enumerate(keys):
            hi = keys[i + 1] if i + 1 < len(keys) else None
            assert lvl.guard_range(lvl.find_guard(key)) == (key, hi)

    def test_attach_goes_to_covering_guard(self):
        lvl = GuardedLevel(1)
        lvl.add_guard(b"m")
        lvl.attach(meta(1, b"a", b"c", size=7))
        lvl.attach(meta(2, b"n", b"p", size=5))
        lvl.attach(meta(3, b"n", b"q", size=3))
        assert numbers(lvl.sentinel) == [1]
        assert numbers(lvl.find_guard(b"m")) == [2, 3]
        assert lvl.sentinel.size_bytes == 7
        assert lvl.find_guard(b"m").size_bytes == 8
        assert (lvl.size_bytes, lvl.num_files, lvl.empty_guards) == (15, 3, 0)
        assert 2 in lvl and 9 not in lvl
        assert lvl.overfull_guards() == [lvl.find_guard(b"m")]
        lvl.check_invariants()

    def test_detach_locates_the_file_by_number(self):
        lvl = GuardedLevel(1)
        for key in (b"d", b"m"):
            lvl.add_guard(key)
        lvl.attach(meta(1, b"e", b"f", size=4))
        lvl.attach(meta(2, b"e", b"g", size=6))
        lvl.attach(meta(3, b"x", b"y", size=9))
        assert lvl.detach(1)
        assert not lvl.detach(1)
        assert not lvl.detach(42)
        assert numbers(lvl.find_guard(b"d")) == [2]
        assert (lvl.size_bytes, lvl.num_files, lvl.empty_guards) == (15, 2, 0)
        assert lvl.overfull_guards() == []
        assert lvl.detach(3)
        assert (lvl.size_bytes, lvl.num_files, lvl.empty_guards) == (6, 1, 1)
        lvl.check_invariants()

    def test_add_guard_splits_the_covering_guard(self):
        lvl = GuardedLevel(1)
        lvl.attach(meta(1, b"a", b"c", size=1))
        lvl.attach(meta(2, b"p", b"q", size=2))
        lvl.attach(meta(3, b"b", b"d", size=4))
        lvl.attach(meta(4, b"n", b"z", size=8))
        assert lvl.overfull_guards() == [lvl.sentinel]
        assert lvl.add_guard(b"m")
        # Files starting at or after the key move, age order preserved.
        assert numbers(lvl.sentinel) == [1, 3]
        assert numbers(lvl.find_guard(b"m")) == [2, 4]
        assert lvl.sentinel.size_bytes == 5
        assert lvl.find_guard(b"m").size_bytes == 10
        assert (lvl.size_bytes, lvl.num_files, lvl.empty_guards) == (15, 4, 0)
        assert lvl.overfull_guards() == [lvl.sentinel, lvl.find_guard(b"m")]
        # A guard nothing moves into starts out empty.
        assert lvl.add_guard(b"zz")
        assert lvl.empty_guards == 1
        lvl.check_invariants()

    def test_remove_guard_left_neighbour_absorbs_files(self):
        lvl = GuardedLevel(1)
        for key in (b"d", b"m", b"t"):
            lvl.add_guard(key)
        lvl.attach(meta(1, b"e", b"f", size=3))
        lvl.attach(meta(2, b"n", b"o", size=5))
        lvl.attach(meta(3, b"p", b"q", size=7))
        assert lvl.empty_guards == 1
        lvl.remove_guard(b"m")
        assert lvl.guard_keys == [b"d", b"t"]
        assert numbers(lvl.find_guard(b"d")) == [1, 2, 3]
        assert lvl.find_guard(b"d").size_bytes == 15
        assert (lvl.size_bytes, lvl.num_files, lvl.empty_guards) == (15, 3, 1)
        assert lvl.overfull_guards() == [lvl.find_guard(b"d")]
        lvl.remove_guard(b"t")  # an empty guard leaves the empty count too
        assert lvl.empty_guards == 0
        lvl.remove_guard(b"d")  # the sentinel is the last left neighbour
        assert numbers(lvl.sentinel) == [1, 2, 3]
        assert lvl.overfull_guards() == [lvl.sentinel]
        with pytest.raises(KeyError):
            lvl.remove_guard(b"d")
        lvl.check_invariants()

    def test_recovery_replay_order(self):
        """MANIFEST replay applies an edit's guards before its files and
        drops deleted files by number alone."""
        lvl = GuardedLevel(2, overfull_files=3)
        lvl.attach(meta(1, b"a", b"k"))
        lvl.attach(meta(2, b"b", b"c"))
        lvl.add_guard(b"g")  # file 1 straddles g until the edit drops it
        lvl.attach(meta(3, b"a", b"f"))
        lvl.attach(meta(4, b"g", b"gz"))
        assert lvl.detach(1)
        lvl.remove_guard(b"g")
        lvl.add_guard(b"h")
        lvl.attach(meta(5, b"h", b"i"))
        assert numbers(lvl.sentinel) == [2, 3, 4]
        assert numbers(lvl.find_guard(b"h")) == [5]
        assert lvl.overfull_guards() == [lvl.sentinel]
        lvl.check_invariants()

    def test_view_is_immutable_and_rebuilt_after_mutation(self):
        lvl = GuardedLevel(1)
        lvl.add_guard(b"m")
        lvl.attach(meta(1, b"a", b"b"))
        view = lvl.view()
        assert view is lvl.view()  # cached until something changes
        assert view.keys == (b"m",)
        assert [[f.number for f in files] for files in view.files] == [[1], []]
        lvl.attach(meta(2, b"n", b"o"))
        lvl.add_guard(b"x")
        lvl.detach(1)
        assert [[f.number for f in files] for files in view.files] == [[1], []]
        fresh = lvl.view()
        assert fresh.keys == (b"m", b"x")
        assert [[f.number for f in files] for files in fresh.files] == [[], [2], []]
        lvl.check_invariants()

    def test_misplaced_file_detected(self):
        lvl = GuardedLevel(1)
        lvl.add_guard(b"m")
        # Bypass the API: a file in the wrong guard.
        lvl.find_guard(b"m").files += (meta(1, b"a", b"b"),)
        with pytest.raises(AssertionError):
            lvl.check_invariants()

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda lvl: setattr(lvl, "_size_bytes", lvl._size_bytes + 1),
            lambda lvl: setattr(lvl.sentinel, "size_bytes", 0),
            lambda lvl: setattr(lvl, "empty_guards", 0),
            lambda lvl: lvl._overfull.clear(),
            lambda lvl: lvl._by_number.pop(1),
            lambda lvl: setattr(lvl, "_view", lvl._view._replace(keys=())),
        ],
    )
    def test_counter_drift_detected(self, corrupt):
        lvl = GuardedLevel(1)
        lvl.add_guard(b"m")
        lvl.attach(meta(1, b"a", b"b"))
        lvl.attach(meta(2, b"c", b"d"))
        lvl.view()
        lvl.check_invariants()
        corrupt(lvl)
        with pytest.raises(AssertionError):
            lvl.check_invariants()

    @given(st.sets(st.binary(min_size=1, max_size=6), min_size=1, max_size=30))
    @settings(max_examples=40)
    def test_find_guard_matches_reference(self, keys):
        lvl = GuardedLevel(1)
        for key in keys:
            lvl.add_guard(key)
        ordered = sorted(keys)
        for probe in list(keys) + [b"", b"\xff" * 7]:
            guard = lvl.find_guard(probe)
            expected = None
            for k in ordered:
                if k <= probe:
                    expected = k
            assert guard.key == expected

    def test_all_files_and_sizes(self):
        lvl = GuardedLevel(1)
        lvl.add_guard(b"m")
        lvl.attach(meta(1, b"a", b"b"))
        lvl.attach(meta(2, b"x", b"y"))
        assert sorted(f.number for f in lvl.all_files()) == [1, 2]
        assert lvl.size_bytes == 20

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_counters_survive_random_mutations(self, data):
        lvl = GuardedLevel(1, overfull_files=2)
        alphabet = st.binary(min_size=1, max_size=3)
        attached = []
        for number in range(data.draw(st.integers(1, 40))):
            action = data.draw(st.sampled_from(["attach", "detach", "add", "remove"]))
            if action == "attach":
                lo = data.draw(alphabet)
                hi = data.draw(alphabet)
                # Stay inside the covering guard, as compaction output does.
                bound = lvl.guard_range(lvl.find_guard(lo))[1]
                if hi < lo or (bound is not None and hi >= bound):
                    hi = lo
                lvl.attach(meta(number, lo, hi, size=number + 1))
                attached.append(number)
            elif action == "detach" and attached:
                assert lvl.detach(attached.pop(data.draw(st.integers(0, len(attached) - 1))))
            elif action == "add":
                key = data.draw(alphabet)
                # Straddlers are compacted away by the committing job.
                if not any(
                    f.smallest.user_key < key <= f.largest.user_key
                    for f in lvl.all_files()
                ):
                    lvl.add_guard(key)
            elif action == "remove" and len(lvl):
                lvl.remove_guard(data.draw(st.sampled_from(lvl.guard_keys)))
            lvl.view()
            lvl.check_invariants()
        assert sorted(f.number for f in lvl.all_files()) == sorted(attached)


class TestGuard:
    def test_properties(self):
        lvl = GuardedLevel(1)
        lvl.add_guard(b"k")
        g = lvl.find_guard(b"k")
        assert not g.is_sentinel and lvl.sentinel.is_sentinel
        assert Guard(None).is_sentinel
        lvl.attach(meta(1, b"k", b"l"))
        lvl.attach(meta(2, b"k", b"m"))
        assert g.num_files == 2
        assert g.size_bytes == 20
        assert g.num_entries == 2
        assert lvl.detach(1)
        assert numbers(g) == [2]
