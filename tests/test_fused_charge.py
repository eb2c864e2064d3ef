"""``SimulatedStorage.charge_reads`` is ``charge_read`` per span — on state.

A reader reopened from the decoded cache charges its footer, index and
filter reads as one ``charge_reads`` call.  The call may never be told
apart from the separate ``charge_read`` calls it replaces: not by the
page cache's LRU order or counters, not by the storage statistics, not
by a single bit of the floats added to the clock, the account and the
CPU accounting (float addition is not associative, and the golden pins
compare the clock), and not by which operation a fault lands on.

Two identical storages run the same seeded script — one issues each
planned sequence fused, the other span by span — and are compared after
every step with ``==``.  The page cache holds a fraction of the files'
pages, so a plan's pages are sometimes all resident, sometimes partly
evicted and sometimes gone.
"""

import random

import pytest

from repro.errors import StorageError, TransientIOError
from repro.sim.cache import PAGE_SIZE, PageCache
from repro.sim.cpu import CpuCosts
from repro.sim.faults import FaultInjector, FaultPlan
from repro.sim.storage import SimulatedStorage

FILES = 6
FILE_PAGES = 12
CACHE_PAGES = 14


def _storage(faults=None) -> SimulatedStorage:
    # A thread scale that does not divide evenly, so every charge is a
    # float whose additions would show a reordering.
    cpu = CpuCosts(thread_scale=3.0)
    storage = SimulatedStorage(cache=PageCache(CACHE_PAGES * PAGE_SIZE), cpu=cpu)
    acct = storage.background_account("load")
    for i in range(FILES):
        storage.create(f"f{i}")
        storage.append(f"f{i}", bytes(FILE_PAGES * PAGE_SIZE - 100 * i), acct)
    storage.faults = faults
    return storage


def _tail_spans(rng: random.Random, size: int):
    """Two or three reads near the end of a file, 1-4 pages each, laid
    out like a table's footer, index and filter (they may share pages)."""
    spans = [(size - 53, 53)]
    end = size - 53
    for _ in range(rng.randint(1, 2)):
        length = rng.randint(1, 3 * PAGE_SIZE + 200)
        spans.append((end - length, length))
        end -= length
    return spans


def _state(storage: SimulatedStorage, accounts):
    cache = storage.cache
    return (
        list(cache._pages),
        {file_id: sorted(pages) for file_id, pages in cache._file_pages.items()},
        cache.stats,
        storage.stats,
        storage.clock.now,
        [acct.seconds for acct in accounts],
        dict(storage.cpu.accounting),
        None if storage.faults is None else storage.faults.stats,
    )


def _residency(storage: SimulatedStorage, plan) -> str:
    resident = sum(key in storage.cache._pages for key in plan.pages)
    if resident == len(plan.pages):
        return "all"
    return "some" if resident else "none"


def _run_pair(seed: int, steps: int, fault_at=None):
    """Drive a fused and an unfused storage through one seeded script;
    returns how often the planned pages were all / partly / not resident."""
    rng = random.Random(seed)
    plans_rng = random.Random(seed + 1)

    def injector():
        if fault_at is None:
            return None
        return FaultInjector(FaultPlan.fail_nth(fault_at, op="read"))

    fused, unfused = _storage(injector()), _storage(injector())
    accounts = []
    for storage in (fused, unfused):
        accounts.append(
            [storage.foreground_account("user"), storage.background_account("bg")]
        )
    spans = {
        f"f{i}": _tail_spans(plans_rng, fused.size(f"f{i}")) for i in range(FILES)
    }
    plans = {name: fused.plan_reads(name, s) for name, s in spans.items()}
    seen = {"all": 0, "some": 0, "none": 0}
    for _ in range(steps):
        name = f"f{rng.randrange(FILES)}"
        which = rng.randrange(2)
        outcomes = []
        if rng.random() < 0.6:
            seen[_residency(fused, plans[name])] += 1
            for storage, accts, as_one in (
                (fused, accounts[0], True),
                (unfused, accounts[1], False),
            ):
                try:
                    if as_one:
                        storage.charge_reads(name, plans[name], accts[which])
                    else:
                        for offset, length in spans[name]:
                            storage.charge_read(name, offset, length, accts[which])
                    outcomes.append(None)
                except TransientIOError as exc:
                    outcomes.append(str(exc))
        else:
            # Other traffic: evicts, reorders, and (insert=False) misses
            # without inserting — exactly what runs between two reopens.
            offset = rng.randrange(0, (FILE_PAGES - 4) * PAGE_SIZE)
            length = rng.randint(1, 4 * PAGE_SIZE)
            insert = rng.random() < 0.8
            for storage, accts in ((fused, accounts[0]), (unfused, accounts[1])):
                try:
                    storage.read(
                        name, offset, length, accts[which], cache_insert=insert
                    )
                    outcomes.append(None)
                except TransientIOError as exc:
                    outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]
        assert _state(fused, accounts[0]) == _state(unfused, accounts[1])
    return seen


class TestFusedEqualsUnfused:
    @pytest.mark.parametrize("seed", range(8))
    def test_any_interleaving_leaves_identical_state(self, seed):
        seen = _run_pair(seed, steps=400)
        # The script must reach all three regimes to mean anything.
        assert min(seen.values()) > 0, seen

    @pytest.mark.parametrize("seed", range(3))
    def test_fault_on_each_read_of_a_sequence(self, seed):
        """A failing n-th read, for every n across several fused calls:
        the same exception text (it names the storage operation index)
        and the same state after — a fault may land on the first, second
        or third read of a sequence, whose earlier reads then stay
        charged."""
        for fault_at in range(24):
            _run_pair(seed, steps=40, fault_at=fault_at)

    def test_fault_lands_on_each_read_of_one_resident_sequence(self):
        """The pinned case: every page resident, the fault on read 1, 2, 3."""
        for n in range(3):
            states = []
            for as_one in (True, False):
                storage = _storage()
                acct = storage.foreground_account()
                size = storage.size("f0")
                spans = [(size - 53, 53), (size - 5000, 4947), (size - 9000, 4000)]
                plan = storage.plan_reads("f0", spans)
                storage.charge_reads("f0", plan, acct)  # now all resident
                assert _residency(storage, plan) == "all"
                storage.faults = FaultInjector(FaultPlan.fail_nth(n, op="read"))
                with pytest.raises(TransientIOError) as caught:
                    if as_one:
                        storage.charge_reads("f0", plan, acct)
                    else:
                        for offset, length in spans:
                            storage.charge_read("f0", offset, length, acct)
                assert f"storage op #{n}" in str(caught.value)
                states.append((str(caught.value), _state(storage, [acct])))
            assert states[0] == states[1]


class TestViewReadEqualsCopy:
    @pytest.mark.parametrize("fault_at", [None, 0, 7, 31])
    def test_view_read_copy_read_and_charge_leave_identical_state(self, fault_at):
        """``read(view=True)`` is charged as ``read`` and ``charge_read``
        are: three storages run one seeded script of reads, each its own
        way, and end every step in equal state — including which
        operation a fault lands on.  ``f0`` is not sealed (it took a
        second append), so it answers a view read with a copy."""
        rng = random.Random(fault_at or 0)
        sides = []
        for how in ("view", "copy", "charge"):
            storage = _storage()
            storage.append("f0", b"tail", storage.background_account("load"))
            if fault_at is not None:
                storage.faults = FaultInjector(FaultPlan.fail_nth(fault_at, op="read"))
            accounts = [
                storage.foreground_account("user"),
                storage.background_account("bg"),
            ]
            sides.append((how, storage, accounts))
        for _ in range(120):
            name = f"f{rng.randrange(FILES)}"
            size = sides[0][1].size(name)
            offset = rng.randrange(size)
            length = rng.randint(0, min(3 * PAGE_SIZE, size - offset))
            kwargs = {"sequential": rng.random() < 0.3, "cache_insert": rng.random() < 0.8}
            which = rng.randrange(2)
            outcomes, returned = [], []
            for how, storage, accts in sides:
                try:
                    if how == "charge":
                        storage.charge_read(name, offset, length, accts[which], **kwargs)
                    else:
                        data = storage.read(
                            name, offset, length, accts[which], view=how == "view", **kwargs
                        )
                        assert isinstance(data, memoryview) == (how == "view" and name != "f0")
                        returned.append(bytes(data))
                    outcomes.append(None)
                except TransientIOError as exc:
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1] == outcomes[2]
            assert len(set(returned)) <= 1
            states = [_state(storage, accts) for _, storage, accts in sides]
            assert states[0] == states[1] == states[2]


class TestPlanChecks:
    def test_changed_file_takes_the_separate_calls(self):
        """A plan outlives nothing: a shorter file fails its bounds check
        and a missing one its lookup, exactly as ``charge_read`` would;
        a file recreated under the name is charged by its own pages."""
        storage = _storage()
        acct = storage.foreground_account()
        size = storage.size("f1")
        plan = storage.plan_reads("f1", [(size - 53, 53), (size - 4096, 100)])
        storage.charge_reads("f1", plan, acct)
        storage._files["f1"].data = storage._files["f1"].data[: size - 10]
        with pytest.raises(StorageError, match="out of bounds"):
            storage.charge_reads("f1", plan, acct)
        storage.delete("f1")
        with pytest.raises(StorageError, match="no such file"):
            storage.charge_reads("f1", plan, acct)
        storage.create("f1")
        storage.append("f1", bytes(size), storage.background_account("load"))
        storage.cache.clear()
        before = storage.cache.stats.misses
        storage.charge_reads("f1", plan, acct)
        assert storage.cache.stats.misses == before + 2

    def test_negative_span_rejected(self):
        storage = _storage()
        with pytest.raises(StorageError):
            storage.plan_reads("f0", [(-1, 10)])
