"""Yahoo Cloud Serving Benchmark — core workloads A-F (Table 5.3).

Each workload is a mix of reads, updates, inserts, scans, and
read-modify-writes against a zipfian (or latest/uniform) request
distribution.  Loads A and E populate the store; workloads B-D and F run
over Load A's records, E over Load E's, exactly as Table 5.3 describes.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from typing import Dict, Optional

from repro.engines.base import KeyValueStore
from repro.sim.storage import SimulatedStorage
from repro.workloads.db_bench import BenchResult, PhaseMeter
from repro.workloads.distributions import (
    KeyCodec,
    LatestGenerator,
    ScrambledZipfianGenerator,
    UniformGenerator,
    value_bytes,
)


@dataclass
class YcsbWorkload:
    """Operation mix of one YCSB workload."""

    name: str
    description: str
    read: float = 0.0
    update: float = 0.0
    insert: float = 0.0
    scan: float = 0.0
    read_modify_write: float = 0.0
    request_distribution: str = "zipfian"  # zipfian | latest | uniform
    max_scan_length: int = 100

    def __post_init__(self) -> None:
        total = self.read + self.update + self.insert + self.scan + self.read_modify_write
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"workload {self.name} proportions sum to {total}")


#: The six core workloads, as described in the paper's Table 5.3.
YCSB_WORKLOADS: Dict[str, YcsbWorkload] = {
    "A": YcsbWorkload(
        "A", "Session store recording recent actions", read=0.5, update=0.5
    ),
    "B": YcsbWorkload(
        "B", "Photo tagging: browse and tag", read=0.95, update=0.05
    ),
    "C": YcsbWorkload("C", "User profile cache", read=1.0),
    "D": YcsbWorkload(
        "D",
        "User status updates (read latest)",
        read=0.95,
        insert=0.05,
        request_distribution="latest",
    ),
    "E": YcsbWorkload(
        "E", "Threaded conversations", scan=0.95, insert=0.05
    ),
    "F": YcsbWorkload(
        "F", "Database read-modify-write", read=0.5, read_modify_write=0.5
    ),
}


class YcsbRunner(PhaseMeter):
    """Loads and runs YCSB workloads against one store."""

    def __init__(
        self,
        db: KeyValueStore,
        storage: SimulatedStorage,
        *,
        record_count: int = 20000,
        value_size: int = 1024,
        seed: int = 0,
    ) -> None:
        self.db = db
        self.storage = storage
        self.record_count = record_count
        self.value_size = value_size
        self.codec = KeyCodec(16)
        self.seed = seed
        self._inserted = 0
        self._version = 0

    def _value(self, index: int) -> bytes:
        return value_bytes(index + self._version * (self.record_count + 1), self.value_size)

    # ------------------------------------------------------------------
    def load(self, name: str = "Load A", count: Optional[int] = None) -> BenchResult:
        """The 100%-insert load phase (Load A / Load E)."""
        n = count if count is not None else self.record_count
        order = list(range(n))
        random.Random(self.seed).shuffle(order)
        before = self._snapshot()
        for i in order:
            self.db.put(self.codec.encode(i), self._value(i))
        self._inserted = max(self._inserted, n)
        return self._result(name, n, before)

    # ------------------------------------------------------------------
    def run(self, workload: YcsbWorkload, operations: int) -> BenchResult:
        """Execute ``operations`` ops of ``workload``; returns the result."""
        if self._inserted == 0:
            raise RuntimeError("run a load phase before a YCSB workload")
        # crc32, not hash(): a str hash differs between processes.
        rng = random.Random(self.seed + zlib.crc32(workload.name.encode()) % 1000)
        chooser = self._make_chooser(workload)
        self._version += 1

        thresholds = [
            ("read", workload.read),
            ("update", workload.update),
            ("insert", workload.insert),
            ("scan", workload.scan),
            ("rmw", workload.read_modify_write),
        ]
        before = self._snapshot()
        for _ in range(operations):
            pick = rng.random()
            acc = 0.0
            op = "read"
            for op_name, proportion in thresholds:
                acc += proportion
                if pick < acc:
                    op = op_name
                    break
            if op == "read":
                self.db.get(self.codec.encode(self._choose(chooser)))
            elif op == "update":
                i = self._choose(chooser)
                self.db.put(self.codec.encode(i), self._value(i))
            elif op == "insert":
                i = self._inserted
                self._inserted += 1
                self.db.put(self.codec.encode(i), self._value(i))
                chooser.grow(self._inserted)
            elif op == "scan":
                start = self._choose(chooser)
                length = rng.randrange(1, workload.max_scan_length + 1)
                it = self.db.seek(self.codec.encode(start))
                for _ in range(length):
                    if not it.valid:
                        break
                    it.next()
                it.close()
            else:  # read-modify-write
                i = self._choose(chooser)
                key = self.codec.encode(i)
                self.db.get(key)
                self.db.put(key, self._value(i))
        return self._result(f"Workload {workload.name}", operations, before)

    # ------------------------------------------------------------------
    def _make_chooser(self, workload: YcsbWorkload):
        dist = workload.request_distribution
        if dist == "zipfian":
            return ScrambledZipfianGenerator(self._inserted, seed=self.seed + 11)
        if dist == "latest":
            return LatestGenerator(self._inserted, seed=self.seed + 12)
        if dist == "uniform":
            return UniformGenerator(self._inserted, seed=self.seed + 13)
        raise ValueError(f"unknown request distribution: {dist}")

    def _choose(self, chooser) -> int:
        index = chooser.next()
        if index >= self._inserted:
            index = index % self._inserted
        return index
