"""The simulated file namespace all engines write through.

``SimulatedStorage`` is the single chokepoint between engines and the
"hardware": every byte appended, overwritten, or read passes through it, so
write amplification and space amplification are measured exactly, and every
transfer charges simulated time to an :class:`IoAccount` (the foreground
clock, or a background compaction job's accumulator).

Durability semantics mirror a POSIX file system closely enough for
crash-recovery testing: data is durable only up to the last ``sync`` of its
file; ``crash()`` truncates every file to its synced length and forgets
never-synced files.  Renames are modelled as atomic and durable (the
engines only rename the small CURRENT pointer, and real stores sync the
directory around that rename).

Beyond clean power loss, two failure dimensions are modelled:

* **Operation faults** — when a :class:`repro.sim.faults.FaultInjector`
  is attached (``storage.faults``), every ``append`` / ``write_at`` /
  ``read`` / ``sync`` / ``rename`` consults it first and may raise
  :class:`TransientIOError` / :class:`PersistentIOError`.  A faulted
  operation mutates nothing, except torn appends which write a prefix of
  the payload before raising.
* **Crash modes** — ``crash(mode=...)`` supports ``torn`` (a random
  prefix of each unsynced tail survives), ``garbage`` (random bytes past
  the synced length), and ``bitflip`` (one bit flips inside durable
  data), in addition to the default ``clean`` truncation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import StorageError
from repro.sim.cache import PAGE_SIZE, PageCache
from repro.sim.clock import SimClock
from repro.sim.cpu import CpuCosts
from repro.sim.device import DeviceModel
from repro.sim.faults import FaultInjector

#: Crash modes accepted by :meth:`SimulatedStorage.crash`.
CRASH_CLEAN = "clean"
CRASH_TORN = "torn"
CRASH_GARBAGE = "garbage"
CRASH_BITFLIP = "bitflip"
CRASH_MODES = (CRASH_CLEAN, CRASH_TORN, CRASH_GARBAGE, CRASH_BITFLIP)


class IoAccount:
    """A named sink for simulated seconds of device/CPU time.

    Foreground accounts advance the shared clock directly; background
    accounts (compaction jobs) accumulate seconds that the executor later
    lays out on a worker timeline.
    """

    __slots__ = ("name", "_clock", "seconds")

    def __init__(self, name: str, clock: Optional[SimClock] = None) -> None:
        self.name = name
        self._clock = clock
        self.seconds = 0.0

    def charge(self, seconds: float) -> None:
        self.seconds += seconds
        if self._clock is not None:
            self._clock.advance(seconds)

    def charge_cpu(self, cpu: CpuCosts, name: str, amount: float) -> None:
        """``CpuCosts.charge`` then :meth:`charge`, as one call.

        The read path charges CPU work several times per table it
        consults, so the three frames of that pair (``SimClock.advance``
        is the third) are worth folding.  The arithmetic and its order
        are theirs exactly — the golden pins compare the clock as a float
        — including the clock's refusal of a negative step.
        """
        accounting = cpu.accounting
        accounting[name] = accounting.get(name, 0.0) + amount
        seconds = amount / cpu.thread_scale
        self.seconds += seconds
        clock = self._clock
        if clock is not None:
            if seconds < 0:
                raise ValueError(f"cannot advance clock by {seconds}")
            clock._now += seconds

    @property
    def is_foreground(self) -> bool:
        return self._clock is not None


@dataclass
class StorageStats:
    """Cumulative IO accounting (bytes are device IO, not logical IO)."""

    bytes_written: int = 0
    bytes_read: int = 0
    write_ops: int = 0
    read_ops: int = 0
    sync_ops: int = 0
    written_by_account: Dict[str, int] = field(default_factory=dict)
    read_by_account: Dict[str, int] = field(default_factory=dict)
    #: Sync calls per account name — attributes fsync traffic to its
    #: source (WAL group commit vs sstable build vs MANIFEST append).
    syncs_by_account: Dict[str, int] = field(default_factory=dict)

    def note_write(self, account: str, nbytes: int) -> None:
        self.bytes_written += nbytes
        self.write_ops += 1
        self.written_by_account[account] = (
            self.written_by_account.get(account, 0) + nbytes
        )

    def note_read(self, account: str, nbytes: int) -> None:
        self.bytes_read += nbytes
        self.read_ops += 1
        self.read_by_account[account] = self.read_by_account.get(account, 0) + nbytes


class _SimFile:
    __slots__ = ("name", "file_id", "data", "synced_len", "charge_factor")

    def __init__(self, name: str, file_id: int, charge_factor: float = 1.0) -> None:
        self.name = name
        self.file_id = file_id
        #: The contents.  A file written by one ``append`` of a ``bytes``
        #: object (a finished sstable) keeps that very object — *sealed*:
        #: its bytes live once in host memory and ``read(view=True)``
        #: hands out views of it.  Anything that changes a sealed file
        #: first swaps in a ``bytearray`` copy (:meth:`mutable`), so a
        #: view taken earlier keeps reading the bytes it was taken of.
        self.data: bytes | bytearray = b""
        self.synced_len = 0
        #: Device-bytes per logical byte: < 1.0 models a compressed file
        #: (the simulation stores logical bytes; transfers and occupancy
        #: are charged at the compressed size).
        self.charge_factor = charge_factor

    def mutable(self) -> bytearray:
        """The contents as a ``bytearray`` that may be changed in place."""
        data = self.data
        if type(data) is not bytearray:
            data = self.data = bytearray(data)
        return data


class ReadPlan:
    """A fixed sequence of reads of one immutable file, planned once.

    Made by :meth:`SimulatedStorage.plan_reads`; charged, as often as the
    caller likes, by :meth:`SimulatedStorage.charge_reads`.  ``hits`` is
    how many pages each read covers (reads of no bytes left out) and
    ``total_hits`` their sum; ``pages`` is the page-cache key of every
    page covered, once each, in the order of its *last* touch — all the
    LRU order can show of a walk in which every access hits; ``end`` is
    the furthest byte any read reaches.
    """

    __slots__ = ("file_id", "spans", "pages", "hits", "total_hits", "end")

    def __init__(self, file_id: int, spans: Tuple[Tuple[int, int], ...]) -> None:
        per_read = [
            PageCache.page_keys(file_id, offset, length) for offset, length in spans
        ]
        walk = [key for keys in per_read for key in keys]
        self.file_id = file_id
        self.spans = spans
        self.pages = tuple(reversed(dict.fromkeys(reversed(walk))))
        self.hits = tuple(len(keys) for keys in per_read if keys)
        self.total_hits = len(walk)
        self.end = max((offset + length for offset, length in spans), default=0)


class SimulatedStorage:
    """An in-memory file namespace with device-time and durability modelling."""

    def __init__(
        self,
        clock: Optional[SimClock] = None,
        device: Optional[DeviceModel] = None,
        cache: Optional[PageCache] = None,
        cpu: Optional[CpuCosts] = None,
        faults: Optional[FaultInjector] = None,
    ) -> None:
        self.clock = clock if clock is not None else SimClock()
        self.device = device if device is not None else DeviceModel.ssd_raid0()
        self.cache = cache if cache is not None else PageCache(64 * 1024 * 1024)
        self.cpu = cpu if cpu is not None else CpuCosts()
        #: Optional fault injector; every data/durability operation asks it
        #: for permission first.  Assign None to stop injecting.
        self.faults = faults
        self.stats = StorageStats()
        self._files: Dict[str, _SimFile] = {}
        self._next_file_id = 1

    def set_fault_injector(self, faults: Optional[FaultInjector]) -> None:
        """Attach (or detach, with None) a fault injector."""
        self.faults = faults

    # ------------------------------------------------------------------
    # Accounts
    # ------------------------------------------------------------------
    def foreground_account(self, name: str = "foreground") -> IoAccount:
        """An account that advances the shared clock as it is charged."""
        return IoAccount(name, self.clock)

    def background_account(self, name: str) -> IoAccount:
        """An account that only accumulates seconds (for executor jobs)."""
        return IoAccount(name)

    # ------------------------------------------------------------------
    # Namespace operations
    # ------------------------------------------------------------------
    def create(self, name: str, charge_factor: float = 1.0) -> None:
        """Create an empty file; error if it already exists.

        ``charge_factor`` < 1.0 marks the file as compressed on the
        device: transfers and space are charged at the compressed size
        while contents stay byte-addressable.
        """
        if name in self._files:
            raise StorageError(f"file exists: {name}")
        if not 0.0 < charge_factor <= 1.0:
            raise StorageError(f"bad charge factor: {charge_factor}")
        self._files[name] = _SimFile(name, self._next_file_id, charge_factor)
        self._next_file_id += 1

    def exists(self, name: str) -> bool:
        return name in self._files

    def list_files(self, prefix: str = "") -> List[str]:
        return sorted(n for n in self._files if n.startswith(prefix))

    def size(self, name: str) -> int:
        return len(self._file(name).data)

    def total_live_bytes(self, prefix: str = "") -> int:
        """Bytes currently occupied on 'disk' (space amplification input)."""
        return sum(
            int(len(f.data) * f.charge_factor)
            for n, f in self._files.items()
            if n.startswith(prefix)
        )

    def delete(self, name: str, missing_ok: bool = False) -> None:
        f = self._files.pop(name, None)
        if f is None:
            if missing_ok:
                return
            raise StorageError(f"no such file: {name}")
        self.cache.drop_file(f.file_id)

    def rename(self, old: str, new: str) -> None:
        """Atomically rename ``old`` to ``new`` (replacing ``new``)."""
        if self.faults is not None:
            self.faults.check("rename", old)
        f = self._files.pop(old, None)
        if f is None:
            raise StorageError(f"no such file: {old}")
        replaced = self._files.pop(new, None)
        if replaced is not None:
            self.cache.drop_file(replaced.file_id)
        f.name = new
        self._files[new] = f

    # ------------------------------------------------------------------
    # Data operations
    # ------------------------------------------------------------------
    def append(self, name: str, data: bytes, account: IoAccount) -> None:
        """Append ``data``; charged as a sequential write.

        An injected fault normally leaves the file untouched; a fault
        with a ``torn_fraction`` first appends that prefix of the payload
        (charging device time and statistics for the bytes that landed),
        modelling a torn write.
        """
        f = self._file(name)
        if self.faults is not None:
            fault = self.faults.check("append", name)
            if fault is not None:  # torn append: a prefix survives
                torn = data[: int(len(data) * fault.torn_fraction)]
                if torn:
                    self._append_bytes(f, torn, account)
                raise fault.make_error()
        self._append_bytes(f, data, account)

    def _append_bytes(self, f: _SimFile, data: bytes, account: IoAccount) -> None:
        offset = len(f.data)
        if offset == 0 and type(data) is bytes:
            f.data = data  # sealed until something changes it
        else:
            f.mutable().extend(data)
        device_bytes = int(len(data) * f.charge_factor)
        account.charge(self.device.seq_write_time(device_bytes))
        self.stats.note_write(account.name, device_bytes)
        self.cache.populate_range(f.file_id, offset, len(data))

    def write_at(self, name: str, offset: int, data: bytes, account: IoAccount) -> None:
        """Overwrite in place (B+tree page writes); charged as random write."""
        f = self._file(name)
        if self.faults is not None:
            self.faults.check("write_at", name)
        contents = f.mutable()
        end = offset + len(data)
        if end > len(contents):
            contents.extend(b"\x00" * (end - len(contents)))
        contents[offset:end] = data
        account.charge(self.device.rand_write_time(len(data)))
        self.stats.note_write(account.name, len(data))
        self.cache.populate_range(f.file_id, offset, len(data))

    def read(
        self,
        name: str,
        offset: int,
        length: int,
        account: IoAccount,
        *,
        sequential: bool = False,
        cache_insert: bool = True,
        view: bool = False,
    ) -> Union[bytes, memoryview]:
        """Read bytes; device time is charged only for page-cache misses.

        With ``view`` a sealed file (one ``bytes`` append, never changed
        since) answers with a read-only ``memoryview`` into its own bytes
        instead of a copy; any other file, and every read without
        ``view``, answers with one ``bytes`` copy.  The charges are the
        same either way: how a file is held is invisible to the
        simulation.
        """
        f = self._file(name)
        self._charge_read(
            f, offset, length, account, sequential=sequential, cache_insert=cache_insert
        )
        data = f.data
        end = offset + length
        if type(data) is bytes:
            return memoryview(data)[offset:end] if view else data[offset:end]
        return bytes(memoryview(data)[offset:end])

    def charge_read(
        self,
        name: str,
        offset: int,
        length: int,
        account: IoAccount,
        *,
        sequential: bool = False,
        cache_insert: bool = True,
    ) -> None:
        """Charge exactly what :meth:`read` would, without returning bytes.

        Used by host-side memoization (the decoded-block cache): a caller
        that already holds the parsed contents must still pay the same
        simulated device time, page-cache accounting, and IO statistics
        the raw read would have, so every simulated metric is identical
        whether the memo hit or not.
        """
        self._charge_read(
            self._file(name),
            offset,
            length,
            account,
            sequential=sequential,
            cache_insert=cache_insert,
        )

    def _charge_read(
        self,
        f: _SimFile,
        offset: int,
        length: int,
        account: IoAccount,
        *,
        sequential: bool,
        cache_insert: bool,
    ) -> None:
        if offset < 0 or length < 0 or offset + length > len(f.data):
            raise StorageError(
                f"read out of bounds: {f.name}[{offset}:{offset + length}] "
                f"(size {len(f.data)})"
            )
        # The fault check sits on the shared charge path so that a
        # decoded-block-cache hit (charge_read) consults the injector at
        # the same operation index a raw read would — fault placement is
        # identical with host-side memoization on or off.
        if self.faults is not None:
            self.faults.check("read", f.name)
        hits, misses = self.cache.access_range(
            f.file_id, offset, length, insert=cache_insert
        )
        if misses:
            nbytes = int(misses * PAGE_SIZE * f.charge_factor)
            if sequential:
                account.charge(self.device.seq_read_time(nbytes))
            else:
                account.charge(self.device.rand_read_time(nbytes))
            self.stats.note_read(account.name, nbytes)
        if hits:
            account.charge_cpu(self.cpu, "block_decode", hits * self.cpu.block_decode)

    def plan_reads(self, name: str, spans: Sequence[Tuple[int, int]]) -> ReadPlan:
        """Plan the ``(offset, length)`` reads of ``name`` for :meth:`charge_reads`."""
        f = self._file(name)
        spans = tuple(spans)
        for offset, length in spans:
            if offset < 0 or length < 0:
                raise StorageError(f"bad read span: {name}[{offset}:{offset + length}]")
        return ReadPlan(f.file_id, spans)

    def charge_reads(self, name: str, plan: ReadPlan, account: IoAccount) -> None:
        """Charge every read of ``plan`` exactly as one :meth:`charge_read`
        each, in order, would — in one call.

        A reader evicted from an engine's table cache and opened again
        re-reads the same few tail pages of its file, and they are
        usually still in the page cache.  When *every* page of the plan
        is resident no read can miss, insert or evict, so all the
        separate calls would do is freshen those pages, count them as
        hits and charge each read's ``block_decode``: that is done here
        directly, leaving the same page order, counters and floats.
        Anything else — a page gone, a file replaced or shorter than
        planned, a fault injector that must see each read at its own
        operation index — takes the separate calls themselves.
        """
        f = self._file(name)
        if (
            self.faults is None
            and f.file_id == plan.file_id
            and plan.end <= len(f.data)
            and self.cache.touch_if_resident(plan.pages, plan.total_hits)
        ):
            cpu = self.cpu
            for hits in plan.hits:
                account.charge_cpu(cpu, "block_decode", hits * cpu.block_decode)
        else:
            for offset, length in plan.spans:
                self._charge_read(
                    f, offset, length, account, sequential=False, cache_insert=True
                )

    def sync(self, name: str, account: IoAccount) -> None:
        """Make all bytes of ``name`` durable."""
        f = self._file(name)
        if self.faults is not None:
            self.faults.check("sync", name)
        f.synced_len = len(f.data)
        self.stats.sync_ops += 1
        self.stats.syncs_by_account[account.name] = (
            self.stats.syncs_by_account.get(account.name, 0) + 1
        )
        account.charge(self.device.seq_request_latency)

    def synced_size(self, name: str) -> int:
        """Bytes of ``name`` known durable (the last synced length).

        Recovery code uses this as the acknowledged-data boundary: with
        synchronous writes, corruption *below* it means acknowledged data
        was damaged, while corruption at or past it is a normal torn tail.
        """
        return self._file(name).synced_len

    # ------------------------------------------------------------------
    # Crash simulation
    # ------------------------------------------------------------------
    def crash(self, mode: str = CRASH_CLEAN, seed: int = 0) -> None:
        """Simulate power loss; ``mode`` picks how messy the loss is.

        * ``clean`` — every file truncates exactly to its synced length
          and never-synced files vanish (the classic model).
        * ``torn`` — a random prefix of each unsynced tail survives, so
          recovery sees partially-written records.
        * ``garbage`` — the surviving unsynced tail bytes are replaced
          with random garbage (uninitialized sectors), so recovery sees
          data that fails checksums rather than merely stopping short.
        * ``bitflip`` — clean truncation, then one random bit flips
          inside the *synced* region of one file: latent media corruption
          that strict recovery must detect as acknowledged-data loss.

        ``seed`` makes the torn/garbage/bitflip randomness reproducible.
        """
        if mode not in CRASH_MODES:
            raise StorageError(f"unknown crash mode: {mode!r} (have {CRASH_MODES})")
        rng = random.Random(seed)
        doomed = [n for n, f in self._files.items() if f.synced_len == 0]
        for name in doomed:
            self.delete(name)
        for f in sorted(self._files.values(), key=lambda f: f.name):
            unsynced = len(f.data) - f.synced_len
            if unsynced <= 0:
                continue  # nothing past the synced length: a sealed file stays so
            contents = f.mutable()
            if mode == CRASH_CLEAN or mode == CRASH_BITFLIP:
                del contents[f.synced_len :]
                continue
            keep = rng.randrange(unsynced + 1)
            del contents[f.synced_len + keep :]
            if mode == CRASH_GARBAGE and keep:
                garbage = bytes(rng.getrandbits(8) for _ in range(keep))
                contents[f.synced_len :] = garbage
        if mode == CRASH_BITFLIP:
            victims = [f for f in self._files.values() if f.synced_len > 0]
            if victims:
                victim = rng.choice(sorted(victims, key=lambda f: f.name))
                bit = rng.randrange(victim.synced_len * 8)
                victim.mutable()[bit // 8] ^= 1 << (bit % 8)
        self.cache.clear()

    # ------------------------------------------------------------------
    def _file(self, name: str) -> _SimFile:
        f = self._files.get(name)
        if f is None:
            raise StorageError(f"no such file: {name}")
        return f
