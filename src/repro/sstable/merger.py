"""K-way merging of internal-key-ordered streams.

Used in three places: compaction (merge a guard's or level's sstables),
database iterators (merge memtable + per-level streams), and range queries.
Every merge in the program goes through :func:`merge_entries`, which keys
the heap on ``InternalKey.sort_key`` so comparisons are C tuple compares.
``compaction_iterator`` additionally collapses shadowed versions and
garbage-collects tombstones at the bottom level — the only place a delete
may be forgotten without resurrecting older versions.

An entry is opaque here beyond ``entry[0]`` (its key): both iterators pass
a surviving entry on as the tuple object it arrived as, so the encoded
record a compaction's input scan attached reaches the builder untouched.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from typing import Callable, Iterable, Iterator, Optional, Sequence

from repro.sim.storage import IoAccount
from repro.sim.cpu import CpuCosts
from repro.sstable.format import Entry
from repro.util.keys import KIND_DELETE, InternalKey


def _entry_sort_key(entry: Entry) -> tuple:
    return entry[0].sort_key


def merge_entries(
    iterators: Iterable[Iterator[Entry]], reverse: bool = False
) -> Iterator[Entry]:
    """Merge ordered entry streams (all descending when ``reverse``).

    Internal keys are globally unique (every write gets a fresh sequence
    number) so ties cannot occur.
    """
    return heapq.merge(*iterators, key=_entry_sort_key, reverse=reverse)


def merging_iterator(
    iterators: Iterable[Iterator[Entry]],
    *,
    cpu: Optional[CpuCosts] = None,
    account: Optional[IoAccount] = None,
    reverse: bool = False,
) -> Iterator[Entry]:
    """Merge ordered entry streams (all descending when ``reverse``) into
    one ordered stream.

    When ``cpu``/``account`` are given, each step charges the
    merging-iterator CPU cost.
    """
    merged = merge_entries(iterators, reverse)
    if cpu is None or account is None:
        yield from merged
        return
    step = cpu.iterator_step
    for entry in merged:
        account.charge_cpu(cpu, "iterator_step", step)
        yield entry


def compaction_iterator(
    merged: Iterator[Entry],
    *,
    drop_tombstones: bool = False,
    snapshots: Sequence[int] = (),
    on_drop: Optional[Callable[[InternalKey, bytes], None]] = None,
) -> Iterator[Entry]:
    """Collapse a merged stream for writing to the next level.

    Without snapshots, only the newest version of each user key survives
    (older versions are shadowed and can never be observed).  With active
    ``snapshots`` (ascending sequence numbers), a version also survives
    when it is the newest one visible at some snapshot — LevelDB's
    compaction rule, which both engines inherit.

    Tombstones are retained unless ``drop_tombstones`` (bottom level) —
    dropping one higher up would resurrect versions buried below.  A
    tombstone kept alive only for a snapshot is never dropped.

    ``on_drop`` is invoked for every entry the collapse discards (value-log
    liveness accounting: a dropped pointer entry makes its log record
    dead).
    """
    boundaries = sorted(snapshots)
    prev_user_key: Optional[bytes] = None
    prev_kept_seq = 0
    for entry in merged:
        key = entry[0]
        if key.user_key != prev_user_key:
            prev_user_key = key.user_key
            prev_kept_seq = key.sequence
            if drop_tombstones and key.kind == KIND_DELETE:
                # Droppable only when no snapshot predates it: an older
                # snapshot forces an older PUT of this key to survive,
                # and dropping the tombstone would resurrect that PUT for
                # present-time readers.
                if not boundaries or boundaries[0] >= key.sequence:
                    if on_drop is not None:
                        on_drop(key, entry[1])
                    continue
            yield entry
            continue
        # An older version of the same user key: visible to a snapshot?
        if _visible_to_some_snapshot(boundaries, key.sequence, prev_kept_seq):
            prev_kept_seq = key.sequence
            yield entry
        elif on_drop is not None:
            on_drop(key, entry[1])


def _visible_to_some_snapshot(boundaries: Sequence[int], seq: int, newer_seq: int) -> bool:
    """True if a snapshot s exists with seq <= s < newer_seq.

    At such a snapshot this version (not the newer one) is the visible
    one, so compaction must preserve it.
    """
    idx = bisect_left(boundaries, seq)
    return idx < len(boundaries) and boundaries[idx] < newer_seq
