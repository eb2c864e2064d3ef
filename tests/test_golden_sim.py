"""Pin the simulated results of a seek-heavy workload across commits.

Same-seed determinism tests compare two runs of *one* checkout, so a
host-time optimization that moved a simulated byte or second in both
runs would pass them.  The constants below were recorded from the commit
before guard metadata became incremental (seek path rewrite); any change
to storage contents, MANIFEST bytes or the simulated clock of this
workload is a behaviour change and must be justified, not re-recorded
in passing.

``python tests/test_golden_sim.py`` prints the current values.
"""

from __future__ import annotations

import hashlib
import random

import pytest

import repro
from tests.conftest import LSM_ENGINES, make_store
from tests.test_backpressure import _digest, _manifest_bytes

#: engine -> (storage digest, MANIFEST sha256, env.clock.now)
GOLDEN = {
    "leveldb": (
        "31e0e9863d310428d49e939808b847b0e97f229fc1934d2c37551925be270fb2",
        "4bf144b50ec1678dc848725012dd4ac553a0707d3f2d862637a6f4c7bb89c76b",
        0.10389186806876957,
    ),
    "hyperleveldb": (
        "20e66984a86deae01782c836fd795ad4fd2cf99751297e006d4ee02ad3d86b7b",
        "88303e7acd9f657a03c53df93a6a2a045985d4a501944bd661d9a4c16e4352c8",
        0.06906792602198981,
    ),
    "rocksdb": (
        "7c760d69194257a6db969968d21645ad6af6e0624957e7ed9091e37e9526672c",
        "1ebe12e43169f57b55538fa7c5de95750aafc347f391ba8924b01b2a328e3fa3",
        0.09969962106864877,
    ),
    "pebblesdb": (
        "42e355e73d8466ac7ff67ae4d13e003ae1ce5fcfd456fbd74bfe20b96a83f45f",
        "d32835b4a2e14a4bb1549613bee467f7ff5dcc671966bb512a45280f14d46593",
        0.13147020148247546,
    ),
}


def run_workload(engine: str):
    """Seeded fill -> overwrite -> 300 x (seek + 20 nexts) -> reverse seeks."""
    env = repro.Environment(cache_bytes=1 << 20)
    db = make_store(engine, env)
    rng = random.Random(20170613)
    keys = [b"key%06d" % i for i in range(3000)]
    order = list(keys)
    rng.shuffle(order)
    for i, key in enumerate(order):
        db.put(key, (b"v%07d" % i) * 25)
    for i in range(1500):
        db.put(rng.choice(keys), (b"w%07d" % i) * 25)
    db.wait_idle()
    seen = 0
    for i in range(300):
        with db.seek(rng.choice(keys)) as it:
            for _ in range(20):
                if not it.valid:
                    break
                seen += len(it.key()) + len(it.value())
                it.next()
        if i % 20 == 19:
            # A write between scans resets the consecutive-seek run and
            # lets background work apply, as in YCSB-E.
            db.put(b"new%06d" % i, b"n" * 200)
    for _ in range(10):
        with db.seek_reverse(rng.choice(keys)) as it:
            for _ in range(50):
                if not it.valid:
                    break
                seen += len(it.key()) + len(it.value())
                it.next()
    db.wait_idle()
    db.check_invariants()
    result = (
        _digest(env),
        hashlib.sha256(_manifest_bytes(env)).hexdigest(),
        env.clock.now,
    )
    assert seen > 0
    db.close()
    return result


@pytest.mark.parametrize("engine", LSM_ENGINES)
def test_simulated_results_match_recorded_constants(engine):
    assert run_workload(engine) == GOLDEN[engine]


if __name__ == "__main__":
    for name in LSM_ENGINES:
        print(f'    "{name}": {run_workload(name)!r},')
