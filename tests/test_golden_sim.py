"""Pin the simulated results of a seek-heavy workload across commits.

Same-seed determinism tests compare two runs of *one* checkout, so a
host-time optimization that moved a simulated byte or second in both
runs would pass them.  The ``default`` constants below were recorded
from the commit before guard metadata became incremental (seek path
rewrite); the other scenarios from the commit before the two compaction
lifecycles became one runner.  Any change to storage contents, MANIFEST
bytes or the simulated clock of this workload is a behaviour change and
must be justified, not re-recorded in passing.

The scenarios cover what the default-options run cannot see:

* ``workers4`` — four background timelines, so guard-parallel claims
  and the conflict map decide what runs when;
* ``vlog`` — value separation with small segments and an eager GC ratio
  on mixed 16 B / 600 B values: compactions relocate pointers and rotate
  segments, and segment rotation draws from the same file-number
  allocator as sstable output (an sstable writer that takes its number
  at a different moment permutes file names without moving the clock);
* ``snapshot`` — a snapshot held across compactions (shadowed versions
  survive the collapse);
* ``fault`` — transient ``append:*.sst`` faults: retried attempts burn
  file numbers and delete their partial output;
* ``gets`` — the point-read path, which the others barely touch (30 gets
  in ``snapshot``): in place of the seeks, every 50th key is deleted and
  2,000 seeded gets follow, 10 % of them for absent keys and every tenth
  through a snapshot taken after the fill.  Each result is checked
  against a model; the clock pins what the table search charged
  (recorded from the commit before the engines' two searches became one).

``python tests/test_golden_sim.py`` prints the current values.
"""

from __future__ import annotations

import hashlib
import random

import pytest

import repro
from repro.sim.faults import FaultInjector, FaultPlan, FaultSpec
from tests.conftest import LSM_ENGINES, make_store
from tests.test_backpressure import _digest, _manifest_bytes

#: scenario -> option overrides handed to ``make_store``.
SCENARIOS = {
    "default": {},
    "workers4": {"background_workers": 4},
    "vlog": {
        "value_separation_bytes": 64,
        "vlog_segment_bytes": 8192,
        "vlog_gc_dead_ratio": 0.2,
    },
    "snapshot": {},
    "fault": {},
    "gets": {},
}

#: (scenario, engine) -> (storage digest, MANIFEST sha256, env.clock.now)
GOLDEN = {
    ("default", "leveldb"): (
        "31e0e9863d310428d49e939808b847b0e97f229fc1934d2c37551925be270fb2",
        "4bf144b50ec1678dc848725012dd4ac553a0707d3f2d862637a6f4c7bb89c76b",
        0.10389186806876957,
    ),
    ("default", "hyperleveldb"): (
        "20e66984a86deae01782c836fd795ad4fd2cf99751297e006d4ee02ad3d86b7b",
        "88303e7acd9f657a03c53df93a6a2a045985d4a501944bd661d9a4c16e4352c8",
        0.06906792602198981,
    ),
    ("default", "rocksdb"): (
        "7c760d69194257a6db969968d21645ad6af6e0624957e7ed9091e37e9526672c",
        "1ebe12e43169f57b55538fa7c5de95750aafc347f391ba8924b01b2a328e3fa3",
        0.09969962106864877,
    ),
    ("default", "pebblesdb"): (
        "42e355e73d8466ac7ff67ae4d13e003ae1ce5fcfd456fbd74bfe20b96a83f45f",
        "d32835b4a2e14a4bb1549613bee467f7ff5dcc671966bb512a45280f14d46593",
        0.13147020148247546,
    ),
    ("workers4", "leveldb"): (
        "3a2f9ef121b5c1a5eaedb1e76759198844024f95cd6d54f75d9548b6648126ee",
        "e2333c7cb70071e4576cc8fbc4c7f737427a227afe287279a5f1a2a1f8ed77d0",
        0.06531074209068063,
    ),
    ("workers4", "hyperleveldb"): (
        "201cda4b963d402193fc86027e4b46efef7eeb5186e9570299ae15a2be40596f",
        "c7298b00fbe76441d160170c1861179ba152e9defc95ee025e753161f8da06b6",
        0.06559174798650942,
    ),
    ("workers4", "rocksdb"): (
        "0ea638548d9296bc2baa799a1d5a6309e66d604df5b78199273fe19a3f6e3495",
        "63a3ec783a39080c18fe9f9f67c5c244a2fce2f32f55369768460e0450739689",
        0.05974456672277484,
    ),
    ("workers4", "pebblesdb"): (
        "99f0b9443b97337048cf0c55f45c88ed852e70f1cf53e9f5851cc95c9c722085",
        "3360c39008d020c6c217d589698fc8d82a8f2e2e1cc47c3ea0668cd15977bbdc",
        0.16995414174432147,
    ),
    ("vlog", "leveldb"): (
        "6a15cdd73c822affe0a76ffc501876a902fa928caf6c62e255139820d2edb5bd",
        "2db5ffd4a1e1bca7323884a7018b9b23a0a3731136ba05a715df79ff2cb237ca",
        0.09057539229583164,
    ),
    ("vlog", "hyperleveldb"): (
        "dabbd9a92ad8c1c63a948cfa2ef62658fe47d96d3a6cdb843c0b1a1370143d17",
        "defacae412e526c467d8213c51add99317f5678e6ed583056f65494cd65713fd",
        0.0835435026979175,
    ),
    ("vlog", "rocksdb"): (
        "ef4f5ccf64bd71e5ba11b93a138f44924cb18cac6c66e34f4a882080218796bf",
        "ea8f9b9c1af27e4f83d226e728a42fa7ac7fd7986b66b9b2d586e88be6aa26a4",
        0.08855036446193484,
    ),
    ("vlog", "pebblesdb"): (
        "5520d985e5ac1f85fc739a092cc48e2ec99477855482a8dd50e387f20cda1eee",
        "19afbbcfcde4de8b3d5a1a2268e23c1967f135df9715cdd6982def4e8fb99306",
        0.22964231482647277,
    ),
    ("snapshot", "leveldb"): (
        "95dd65007b94ae470b859c1f72f0befcc92b82a5c0956eb08dd9715236003090",
        "805f9a1f3197eb4818e4b8b428d4c7848d5437b2bb67961714e662b6a7c2e160",
        0.12071600873682967,
    ),
    ("snapshot", "hyperleveldb"): (
        "63ec9afcf697186eeea3856e86e95665f916a720a8f99c10789131ec6ead2eaf",
        "9e090450a546600f9ffe3fb3f2585b3af03e7a362e9b64ed4f901ee44ab42670",
        0.08786479309013084,
    ),
    ("snapshot", "rocksdb"): (
        "66643284f73b052576c6b342e0d26af628f92fb40d92645259518b894e9f3308",
        "cfbfc7fbd8d23bb9107f87d2a90259a729d96a9f068f3aeaeaa9a5c59e0b8043",
        0.1117706089294312,
    ),
    ("snapshot", "pebblesdb"): (
        "c9766a5e3f0011ae573af7d748a3a18e03f72f152e64d7b49cd7bc626aeafda1",
        "e10056faf19f8951634ad15e4ac7d322639d5f829eb9976ef3fcfc07f34e139a",
        0.14933524921925842,
    ),
    ("fault", "leveldb"): (
        "d11c96bd597ccc2a02ebfcbb5e65d44a97ae11bd1f06f371bbc8d0f90f785a19",
        "ed55a56e39a62d559d3d578c418b09208aed3db303d044ed19f9947eddff9563",
        0.11479047611540694,
    ),
    ("fault", "hyperleveldb"): (
        "fa60655e933cd753d24d23d309fa336e9cf4184495dc159e0b29dacae2687650",
        "90fd640456393b819be47df15b796cb9f10a7b2f09047c0c3fdd5ebdcd5545db",
        0.0817970818627158,
    ),
    ("fault", "rocksdb"): (
        "56d57f6502700c79727f5dd91c027e4a5d1874d8075b4045f5b1e9bf0c953762",
        "a8b2553ac390ab836dea6a1bbf192a4f82e38f6e05545bff53b568deae97ce96",
        0.11060817696532278,
    ),
    ("fault", "pebblesdb"): (
        "140cf989c397e6e94856369020474896216ec99e52cb78ab5df568b83f0437ff",
        "3822817482cfd0afdd6d593580d725e33502d494ff9c9dadb04302fce2555829",
        0.14247020148247888,
    ),
    ("gets", "leveldb"): (
        "a73d11cda84dcc92bd7f0bbacb4a8f379a3ca2ed6757d600451bd25683aaea6c",
        "805f9a1f3197eb4818e4b8b428d4c7848d5437b2bb67961714e662b6a7c2e160",
        0.16156309572414476,
    ),
    ("gets", "hyperleveldb"): (
        "150408b0a3a8860d68abce3dc27ce2b66fc2f07e6b389e854ce14337b1f0a83f",
        "9e090450a546600f9ffe3fb3f2585b3af03e7a362e9b64ed4f901ee44ab42670",
        0.13051669049407688,
    ),
    ("gets", "rocksdb"): (
        "66000a6875aba282e98c32274b8dfd8aea1a67cf5306b6be65488196ca7511be",
        "cfbfc7fbd8d23bb9107f87d2a90259a729d96a9f068f3aeaeaa9a5c59e0b8043",
        0.15299481883339153,
    ),
    ("gets", "pebblesdb"): (
        "188261ab4e11c2b7653a34b412c55cc0643005ac3d8cbbc455455f3cbef200d8",
        "6fb9cf14be05a77f7b70ae26090273b204de8fa1f64f991972699c830d86c07c",
        0.14156288828987262,
    ),
}


def _value(scenario: str, tag: bytes, i: int) -> bytes:
    if scenario == "vlog":
        # 16 B stays inline, 600 B goes to the value log.
        return (tag + b"%07d" % i) * (75 if i % 3 == 0 else 2)
    return (tag + b"%07d" % i) * 25


def _fault_plan() -> FaultPlan:
    """Transient sstable-append faults spread over flushes and compactions,
    one of them a burst that uses the whole retry budget."""
    return FaultPlan(
        [
            FaultSpec(op="append", name_pattern="db/*.sst", at_op=at, times=times)
            for at, times in ((7, 1), (20, 3), (61, 1), (140, 1), (333, 1))
        ]
    )


def _run_gets(db, rng, keys, first, latest, snap) -> int:
    """Delete every 50th key, then 2,000 gets, each checked against the
    model: ``latest`` now, ``first`` (the fill) through ``snap``."""
    for key in keys[::50]:
        db.delete(key)
        del latest[key]
    seen = 0
    for i in range(2000):
        key = rng.choice(keys)
        if rng.random() < 0.1:
            key += b"~"  # absent, but inside the key range of its tables
        if i % 10 == 9:
            got, want = db.get(key, snapshot=snap), first.get(key)
        else:
            got, want = db.get(key), latest.get(key)
        assert got == want, (i, key)
        seen += len(key) + len(got or b"")
    db.release_snapshot(snap)
    return seen


def _run_seeks(db, rng, keys) -> int:
    """300 x (seek + 20 nexts), a put every 20th, then 10 reverse seeks."""
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
    return seen


def run_workload(engine: str, scenario: str = "default"):
    """Seeded fill -> overwrite -> 300 x (seek + 20 nexts) -> reverse seeks
    (``gets``: fill -> overwrite -> deletes -> 2,000 gets)."""
    env = repro.Environment(cache_bytes=1 << 20)
    db = make_store(engine, env, **SCENARIOS[scenario])
    if scenario == "fault":
        env.storage.set_fault_injector(FaultInjector(_fault_plan()))
    rng = random.Random(20170613)
    keys = [b"key%06d" % i for i in range(3000)]
    order = list(keys)
    rng.shuffle(order)
    first = {key: _value(scenario, b"v", i) for i, key in enumerate(order)}
    for key in order:
        db.put(key, first[key])
    snap = db.get_snapshot() if scenario in ("snapshot", "gets") else None
    latest = dict(first)
    for i in range(1500):
        key = rng.choice(keys)
        latest[key] = _value(scenario, b"w", i)
        db.put(key, latest[key])
    db.wait_idle()
    if scenario == "gets":
        seen, snap = _run_gets(db, rng, keys, first, latest, snap), None
    else:
        seen = _run_seeks(db, rng, keys)
    if snap is not None:
        # Every key still reads its first-fill value through the snapshot.
        for i in range(0, len(order), 100):
            assert db.get(order[i], snapshot=snap) == _value(scenario, b"v", i)
        db.release_snapshot(snap)
    db.wait_idle()
    db.check_invariants()
    stats = db.stats()
    assert not stats.degraded
    if scenario == "vlog":
        # The pin is only worth something if GC actually ran.
        assert db.registry.value("vlog.gc_relocated") > 0
        assert db.registry.value("vlog.segments") > 1
    if scenario == "fault":
        assert stats.transient_fault_retries >= 7
        kinds = {
            rec["attrs"]["kind"]
            for rec in db.recorder.records()
            if rec.get("name") == "fault.retry"
        }
        assert kinds == {"flush", "compaction"}
    result = (
        _digest(env),
        hashlib.sha256(_manifest_bytes(env)).hexdigest(),
        env.clock.now,
    )
    assert seen > 0
    db.close()
    return result


@pytest.mark.parametrize("engine", LSM_ENGINES)
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_simulated_results_match_recorded_constants(scenario, engine):
    assert run_workload(engine, scenario) == GOLDEN[scenario, engine]


if __name__ == "__main__":
    for scenario_name in SCENARIOS:
        for name in LSM_ENGINES:
            print(
                f'    ("{scenario_name}", "{name}"): '
                f"{run_workload(name, scenario_name)!r},"
            )
