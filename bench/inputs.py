"""Seed -> inputs.  Everything a workload feeds the program, and every
answer it must get back, is generated here *before* timing and hashed
into ``inputs_sha256``.

Nothing in this module imports ``repro``: a change to the program's own
generators or hash functions must not be able to move the benchmark's
inputs.
"""

from __future__ import annotations

import hashlib
import random
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from bench.spec import SERVED_CLIENTS, VALUE_BYTES

Pair = Tuple[bytes, bytes]

#: Scan-workload op tags.
SCAN, INSERT = 0, 1
#: Served-workload op tags.
GET, PUT = 0, 1


def key_for(index: int) -> bytes:
    """16-byte key; present keys use even indexes, absent/late-inserted
    ones odd, so misses and inserts fall *between* stored keys (inside
    sstable key ranges, where only the bloom filter can reject them)."""
    return b"user%012d" % index


class _Values:
    """Distinct 1 KiB values cut from one seeded random blob."""

    _SPAN = 1 << 16

    def __init__(self, rng: random.Random) -> None:
        self._blob = rng.randbytes(self._SPAN + VALUE_BYTES)
        self._next = 0

    def make(self) -> bytes:
        j = self._next
        self._next = j + 1
        at = (j * 8191) % self._SPAN
        return j.to_bytes(8, "big") + self._blob[at : at + VALUE_BYTES - 8]


class _Zipf:
    """Gray et al. zipfian (YCSB constant 0.99) over ``[0, n)``, with the
    popular ranks scattered over the key space by a seeded permutation."""

    def __init__(self, n: int, rng: random.Random, theta: float = 0.99) -> None:
        self._n = n
        self._rng = rng
        self._theta = theta
        self._zetan = sum(1.0 / i ** theta for i in range(1, n + 1))
        zeta2 = 1.0 + 0.5 ** theta
        self._alpha = 1.0 / (1.0 - theta)
        self._eta = (1.0 - (2.0 / n) ** (1.0 - theta)) / (1.0 - zeta2 / self._zetan)
        self._perm = list(range(n))
        rng.shuffle(self._perm)

    def next(self) -> int:
        u = self._rng.random()
        uz = u * self._zetan
        if uz < 1.0:
            rank = 0
        elif uz < 1.0 + 0.5 ** self._theta:
            rank = 1
        else:
            rank = int(self._n * (self._eta * u - self._eta + 1.0) ** self._alpha)
        return self._perm[min(rank, self._n - 1)]


class _Hasher:
    def __init__(self, workload: str, seed: int) -> None:
        self._h = hashlib.sha256(f"{workload}:{seed}:".encode())

    def pairs(self, pairs) -> None:
        update = self._h.update
        for key, value in pairs:
            update(key)
            update(value if value is not None else b"\x00")

    def text(self, *parts) -> None:
        self._h.update(repr(parts).encode())

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def _live_bytes(model: Dict[bytes, bytes]) -> int:
    return sum(len(k) + len(v) for k, v in model.items())


def _load_ops(
    rng: random.Random, values: _Values, inserts: int, overwrites: int
) -> Tuple[List[Pair], Dict[bytes, bytes]]:
    """``inserts`` random-order inserts, then ``overwrites`` uniform
    overwrites; returns the op list and the resulting model."""
    order = list(range(inserts))
    rng.shuffle(order)
    ops = [(key_for(2 * i), values.make()) for i in order]
    ops.extend(
        (key_for(2 * rng.randrange(inserts)), values.make()) for _ in range(overwrites)
    )
    return ops, dict(ops)


@dataclass
class WriteHeavyInputs:
    ops: List[Pair]
    #: The model after every op, ascending: the final full scan must equal it.
    final: List[Pair]
    live_bytes: int
    sha256: str


def write_heavy(seed: int, sizes: Dict[str, int]) -> WriteHeavyInputs:
    rng = random.Random(seed)
    ops, model = _load_ops(rng, _Values(rng), sizes["inserts"], sizes["overwrites"])
    hasher = _Hasher("write_heavy", seed)
    hasher.pairs(ops)
    return WriteHeavyInputs(ops, sorted(model.items()), _live_bytes(model), hasher.hexdigest())


@dataclass
class ReadAgedInputs:
    load: List[Pair]
    #: (key, expected value or None for an absent key)
    warmup: List[Tuple[bytes, Optional[bytes]]]
    gets: List[Tuple[bytes, Optional[bytes]]]
    live_bytes: int
    sha256: str


def read_aged(seed: int, sizes: Dict[str, int]) -> ReadAgedInputs:
    rng = random.Random(seed)
    n = sizes["inserts"]
    load, model = _load_ops(rng, _Values(rng), n, sizes["overwrites"])

    def gets(count: int) -> List[Tuple[bytes, Optional[bytes]]]:
        out = []
        for _ in range(count):
            index = rng.randrange(n)
            if rng.random() < 0.10:
                out.append((key_for(2 * index + 1), None))
            else:
                key = key_for(2 * index)
                out.append((key, model[key]))
        return out

    warmup, timed = gets(sizes["warmup"]), gets(sizes["gets"])
    hasher = _Hasher("read_aged", seed)
    hasher.pairs(load)
    hasher.pairs(warmup)
    hasher.pairs(timed)
    return ReadAgedInputs(load, warmup, timed, _live_bytes(model), hasher.hexdigest())


@dataclass
class ScanInputs:
    load: List[Pair]
    #: ``(SCAN, start_key, steps, expected pairs)`` or ``(INSERT, key, value, None)``;
    #: a scan reads the entry it lands on plus ``steps`` ``next()`` calls.
    ops: List[tuple]
    live_bytes: int
    sha256: str


def scan_short(seed: int, sizes: Dict[str, int]) -> ScanInputs:
    rng = random.Random(seed)
    n = sizes["inserts"]
    values = _Values(rng)
    load, model = _load_ops(rng, values, n, 0)
    keys = sorted(model)
    zipf = _Zipf(n, rng)
    fresh = list(range(n))  # odd-index keys not inserted yet
    rng.shuffle(fresh)
    ops: List[tuple] = []
    for i in range(sizes["ops"]):
        if i % 20 == 0:
            # Exactly 5% inserts: one op in every twenty, at a seeded slot,
            # so the user bytes written do not vary with the seed.
            insert_at = i + rng.randrange(20)
        if i == insert_at and fresh:
            key, value = key_for(2 * fresh.pop() + 1), values.make()
            insort(keys, key)
            model[key] = value
            ops.append((INSERT, key, value, None))
        else:
            start = key_for(2 * zipf.next())
            steps = rng.randint(1, 50)
            at = bisect_left(keys, start)
            expected = [(k, model[k]) for k in keys[at : at + 1 + steps]]
            ops.append((SCAN, start, steps, expected))
    hasher = _Hasher("scan_short", seed)
    hasher.pairs(load)
    for op in ops:
        if op[0] == INSERT:
            hasher.pairs([(op[1], op[2])])
        else:
            hasher.text(op[1], op[2])
            hasher.pairs(op[3])
    return ScanInputs(load, ops, _live_bytes(model), hasher.hexdigest())


@dataclass
class ServedClient:
    """One closed-loop logical client.  It owns the keys whose index is
    congruent to its number, so no other client writes what it reads and
    every get has one right answer whatever the interleaving."""

    load: List[Pair] = field(default_factory=list)
    #: ``(GET, key, expected)`` or ``(PUT, key, value)``
    warmup: List[tuple] = field(default_factory=list)
    ops: List[tuple] = field(default_factory=list)


@dataclass
class ServedInputs:
    boundaries: List[bytes]
    clients: List[ServedClient]
    live_bytes: int
    #: Key+value bytes of every put: load, warm-up and timed ops.
    put_bytes: int
    sha256: str


def served_ycsb_a(seed: int, sizes: Dict[str, int]) -> ServedInputs:
    rng = random.Random(seed)
    values = _Values(rng)
    per_client = sizes["records"] // SERVED_CLIENTS
    records = per_client * SERVED_CLIENTS
    clients = [ServedClient() for _ in range(SERVED_CLIENTS)]
    model: Dict[bytes, bytes] = {}
    hasher = _Hasher("served_ycsb_a", seed)
    for c, client in enumerate(clients):
        order = list(range(per_client))
        rng.shuffle(order)
        client.load = [
            (key_for(2 * (j * SERVED_CLIENTS + c)), values.make()) for j in order
        ]
        model.update(client.load)
        zipf = _Zipf(per_client, rng)

        def stream(count: int) -> List[tuple]:
            out = []
            for _ in range(count):
                key = key_for(2 * (zipf.next() * SERVED_CLIENTS + c))
                if rng.random() < 0.5:
                    out.append((GET, key, model[key]))
                else:
                    value = values.make()
                    model[key] = value
                    out.append((PUT, key, value))
            return out

        client.warmup = stream(sizes["warmup"] // SERVED_CLIENTS)
        client.ops = stream(sizes["ops"] // SERVED_CLIENTS)
        hasher.pairs(client.load)
        for op in client.warmup + client.ops:
            hasher.text(op[0])
            hasher.pairs([(op[1], op[2])])
    return ServedInputs(
        boundaries=[key_for(records)],  # the middle of the even-index key space
        clients=clients,
        live_bytes=_live_bytes(model),
        put_bytes=sum(
            len(op[1]) + len(op[2])
            for c in clients
            for op in c.warmup + c.ops
            if op[0] == PUT
        )
        + sum(len(k) + len(v) for c in clients for k, v in c.load),
        sha256=hasher.hexdigest(),
    )


GENERATORS = {
    "write_heavy": write_heavy,
    "read_aged": read_aged,
    "scan_short": scan_short,
    "served_ycsb_a": served_ycsb_a,
}
