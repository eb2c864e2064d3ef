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
  (recorded from the commit before the engines' two searches became one);
* ``seekflush`` — the seek phase's puts are 2,000 B, so it flushes and
  each flush lets the picker act on the files the seeks exhausted: the
  only scenario where a leveled store's seek trigger fires (recorded from
  the commit before the compaction pickers became one);
* ``scans`` — long walks in place of the seeks: 40 x (seek + 500 nexts),
  one full ``scan()``, 10 x (reverse seek + 500 nexts) and one full
  ``scan_reverse()``, so a forward walk reads many later runs whole and
  a reverse walk descends through many (recorded from the commit before
  the engines' scan iterators became one walker).  The full scans are
  checked against the model.

All 24 pins were re-recorded when reads became the paper's (ISSUE 23), a
change that meant to move them.  Each edit alone, against the pins before
it (CHANGES.md has the table of all 24 clocks):

* resident filters and the sequence-bounded skip move seven pins, clock
  only and only down — ``gets`` (``pebblesdb`` -16.9 %, the rest -1.2 to
  -1.5 %) and three of ``snapshot`` (its 30 gets) — and leave the other
  17 identical to the last digit;
* ``largest_seq`` in the ``NEW_FILE`` record (one varint) moves every
  digest and MANIFEST hash;
* the two-span open — a table open reads, and a table-cache miss
  re-charges, footer and index, not the filter — is paid by compactions
  and iterators too.  With the layout unchanged it lowers a clock by 1.2
  to 1.5 % (``leveldb`` and ``rocksdb`` under ``default``, ``snapshot``,
  ``fault``).  But a store that picks its next compaction by what has
  finished (``hyperleveldb``, ``pebblesdb``, anything under ``workers4``)
  takes another trajectory from the first shifted instant, so those
  clocks land anywhere within about +-10 %: ``default``/``pebblesdb`` is
  +11.6 % at this seed and 0.91x to 1.17x over forty others.  Not all of
  that is scatter: over those forty seeds the ``pebblesdb`` fill ends
  4.6 % sooner, having run 6.7 % more and smaller compactions (write
  bytes -1.4 %), leaves 5.5 % more sstables (415 against 393), and the
  300 seeks that follow cost 5.8 % more — +2.3 % on the whole clock, 28
  seeds of 40 up.  Cheaper compaction buys FLSM more fragments; nothing
  was charged to a seek that was not charged before.

Deleting aggressive compaction (FLSM's seek tier became the guard rule
alone) moved two pins, both ``pebblesdb``, and only the two where the rule
had fired: ``workers4`` (13 aggressive jobs; clock -0.9 %) and
``snapshot`` (one job; digest and MANIFEST only, the clock is identical).
The other 26 are identical to the last digit.  The four ``scans`` pins
make 32.

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
    "seekflush": {},
    "scans": {},
}

#: (scenario, engine) -> (storage digest, MANIFEST sha256, env.clock.now)
GOLDEN = {
    ("default", "leveldb"): (
        "375e822d739792705bbf30ff91ca52fc7f54061dc76e8497c289a48583dea63c",
        "ced5198c8556626a1ab7dcfa34e69e61dfaf1d2dde76551d16861d99794c564e",
        0.10243542634632317,
    ),
    ("default", "hyperleveldb"): (
        "8fa547e790b633100477343729857aee193b4098693a8ffd646de7ace05e639a",
        "80ced43042d4035f4eeeb8145ff185a894d8f15c2b301c28b76e1e405a045bc8",
        0.07435968959213893,
    ),
    ("default", "rocksdb"): (
        "924754450322711d039c38b1f3f3d2e32747c03b1ed2a59473e26f79a1105df6",
        "7e58614b3e271e2d1031256911988cacc47bfc85432d71f3168f431fa0596a94",
        0.09835352731864855,
    ),
    ("default", "pebblesdb"): (
        "a720071ce8f28439370bf50234aca960aa01bf06b26da477d3bf316c8d73cb0f",
        "33f9f037f6a9a01594c44388fce88c9a2539a10eaeb4ae372c4ef3da038b2e1e",
        0.14678421417490398,
    ),
    ("workers4", "leveldb"): (
        "98f08979a4b7bc14c8204cc45aa4b21fd1d232e27c463d6ae7a9faf505356d62",
        "6d9616cf8aa36d9bab58de31b2993ffd98f662a8c7554590ea0200f173db5480",
        0.06692671481373094,
    ),
    ("workers4", "hyperleveldb"): (
        "9bf87d1b38f2065513185de187ee4d58de03598e826cf31443497dd1fbdcc428",
        "46e4ee9eef1e4fd648ad6898c9a2afa0e1da780cdd67ad1189d424d8794ad79e",
        0.06584432575512908,
    ),
    ("workers4", "rocksdb"): (
        "fb41df6eda677427514df340e8bffc3009418c7ca86778904e401a2629d263f8",
        "6e35dbb5dc03bfac9d33b80b215a0cb241b54ed8b7a612e0a9c7905ec7501123",
        0.06717576039750095,
    ),
    ("workers4", "pebblesdb"): (
        "5645e7b46882017f677ccacecc5dbc8b20ab656a1027b8396b860e2ffa17bd02",
        "e71261639413ccd4db36dee13be8311ba16b635039f2c7db6086ef14d6b3a6b8",
        0.17466188239373684,
    ),
    ("vlog", "leveldb"): (
        "4d113b046bfd8b5dfb77dca9e3cac4d84aaad4475bd762672380404b7e34f34d",
        "d2c5b341189e4e371df36fbf0833db6eb5c304351fb818e73a93d6ef1ecfa8eb",
        0.09181116948902814,
    ),
    ("vlog", "hyperleveldb"): (
        "b9b80d3647e727b8f1d50e523aad40f61566b16a6b61e02c4592952bec3dc0b3",
        "059aad885737f22d336459a5c33a8167c9e96fe04a7e6de60d3923c838ef8c4f",
        0.08350945289492537,
    ),
    ("vlog", "rocksdb"): (
        "4d49f96461a3769873abbe7e4d9bdf9b87bff7cffe8ad8dc0250b9b5621e4f5c",
        "b67e8bd4e16ad37223c895742022ce215f2884a9062b55b67d10342b33eb9e88",
        0.08849031465894276,
    ),
    ("vlog", "pebblesdb"): (
        "6eb82440d70a82a3d5359926dc798cd5ec0ffe4df231e636944f4ffb8be31cf6",
        "7149fd6b8af287f51fcdb2e06b8bbd54d9b74555b4f7a50a926837f2c0caf061",
        0.22734025707737968,
    ),
    ("snapshot", "leveldb"): (
        "dcd3f56f8b218c4bdc561ef1f81bf67ff4a085e2b0d64e8ffd64a6f824f15723",
        "24f50a2a59d6b2694d12c79857ef3c0d2e15f247b20c4195c5323575e907a235",
        0.11923092071786089,
    ),
    ("snapshot", "hyperleveldb"): (
        "bd42e00f5eaee038803823c96fecd187e55c28f275ce276763c97322c929999e",
        "06205aabe160d11c5a47a6639e43ba7e1377f25927803664f8191a14928ceaef",
        0.08996783107875038,
    ),
    ("snapshot", "rocksdb"): (
        "c0fbe5dc64ccb1995be9f9fae6a3fb26e538a962e20e7fd0682c7cb25a35075f",
        "bcc3b93c7afbc4228dad9ce7e5b25670dd4161f09f5958ec65457ab95d8080f6",
        0.11025160892943092,
    ),
    ("snapshot", "pebblesdb"): (
        "a8c7a6cef2a9cb68720a7a6f31ae8ca6f4a622bf73963aebf7641aafc4ee5957",
        "33b4ced9eaf216d373a0d63095ee484d46ac7ca729a7a6b89b2cfc3e2a0465da",
        0.1596383451112532,
    ),
    ("fault", "leveldb"): (
        "4bec84b1e72a4cc0ff9ab717f914b5afdc25bcd8c8ad45e7c654e0c74641a941",
        "29fcb048c387645d565ecd3005ad5492d0a3161b3bbe1717ff76052d9f3f1d11",
        0.11335596362490091,
    ),
    ("fault", "hyperleveldb"): (
        "b6a2ce88f617e55edc2ad45f15eeba6729c73056528771665813942686f3c3ac",
        "36ec0c2ba26b410f8a615e6606dacda8159590679d68278ab78d995bc23f83d4",
        0.08492571072064374,
    ),
    ("fault", "rocksdb"): (
        "13025328a618e0de7b6ff80fe15c36be2a7d274a45f70534b30d4a9894b461ed",
        "7a268e62be4cffa506041d3cf4771bc1e4269565f2767f683e760547b4307069",
        0.10928496029729956,
    ),
    ("fault", "pebblesdb"): (
        "8986f3d8f90362908d96b881b18b703b3859061255cf178ec39f860e5b46a6a9",
        "6a3264549aae2dc638968bf6eca5eebdf13c95ea6593bc1be93d6bf01d5f8f50",
        0.1577842141749074,
    ),
    ("gets", "leveldb"): (
        "b43c40a46f2ac8732f2fd832082874b1bb25b1fcba11be875a2a05a822d19c58",
        "24f50a2a59d6b2694d12c79857ef3c0d2e15f247b20c4195c5323575e907a235",
        0.15754014103850553,
    ),
    ("gets", "hyperleveldb"): (
        "66146eb5daecb1ddd248bf04f92d25bffc15e8c1cb0d2d1c9357ec11bdffef22",
        "06205aabe160d11c5a47a6639e43ba7e1377f25927803664f8191a14928ceaef",
        0.12957811806603284,
    ),
    ("gets", "rocksdb"): (
        "7e299adff9912a7870cdd136fcdb3540f60bd94528beb21e3eb056dd69161d19",
        "bcc3b93c7afbc4228dad9ce7e5b25670dd4161f09f5958ec65457ab95d8080f6",
        0.1490452542500537,
    ),
    ("gets", "pebblesdb"): (
        "e602c28d96c194b625517ff0ecba924260ddb708494a640ff0fd45ed499947a2",
        "a3b161868dd6a6decc9fc077423a386d5384dabcf4a9ee7dd2f1461e98d7fbfe",
        0.12115622376518882,
    ),
    ("seekflush", "leveldb"): (
        "ec9507af015207058190f6d9bb20497865bea71cf0e876a4dff436a88b4ee8fc",
        "96ce80a18d305ccd00874972cf9cc0d2b6e1e2e11e229565d3c61f2e0dc5246b",
        0.10403162312773725,
    ),
    ("seekflush", "hyperleveldb"): (
        "18cb9fbae899926beeb03d4d584e30a0e7f2be9369d25fd0f48dbaae9226b4d9",
        "e790cc0283eb6a3baf10f9239f10899a2de58bb54ba220dbf5531e9ce2bc8043",
        0.07928835304021953,
    ),
    ("seekflush", "rocksdb"): (
        "a8d931b002d777fb86db918fd43e8e63f2904ae31bae5a93b516c6b995474cb9",
        "1e4246b2adb0c1718e76f7757d3fac62104d525b749a093a3972d72d799832db",
        0.09859190326672802,
    ),
    ("seekflush", "pebblesdb"): (
        "7f62ac296880d51867d695cff30a63bca2d495054a2273909a4d411c86d67b7a",
        "1b4f69d0f937d4ce9b1cad7a08ab82dcd32deb9cab6358b1f522910cc8cc99a7",
        0.15103179637298478,
    ),
    ("scans", "leveldb"): (
        "470e39da9e2f2c6d3dca131c4dbd603624cda9bc34ee3d263f4534ad233dfb46",
        "ced5198c8556626a1ab7dcfa34e69e61dfaf1d2dde76551d16861d99794c564e",
        0.1316162721592607,
    ),
    ("scans", "hyperleveldb"): (
        "83b4605321558d4b69ff59557a065a2212a86993ab01e60cb799765c7f0a4153",
        "80ced43042d4035f4eeeb8145ff185a894d8f15c2b301c28b76e1e405a045bc8",
        0.11496673332173761,
    ),
    ("scans", "rocksdb"): (
        "8cac7e6fe04bb8ba804abca8ec7ee865b66baa4f839f89d853af3845cc46d5b5",
        "7e58614b3e271e2d1031256911988cacc47bfc85432d71f3168f431fa0596a94",
        0.13153793979824838,
    ),
    ("scans", "pebblesdb"): (
        "43d8a2fd5f714899eba1e848afbafc093405c72898ae0444f91c9518a2ebec04",
        "0180353526c5d1e58333b2b84474fd234f895cc21e12036098417106133f3746",
        0.30132213498798244,
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


def _run_seeks(db, rng, keys, put_bytes: int) -> int:
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
            db.put(b"new%06d" % i, b"n" * put_bytes)
    for _ in range(10):
        with db.seek_reverse(rng.choice(keys)) as it:
            for _ in range(50):
                if not it.valid:
                    break
                seen += len(it.key()) + len(it.value())
                it.next()
    return seen


def _run_scans(db, rng, keys, latest) -> int:
    """40 x (seek + 500 nexts), a full scan, 10 x (reverse seek + 500
    nexts), a full reverse scan; the full scans match the model."""
    seen = 0
    for seek, count in ((db.seek, 40), (db.seek_reverse, 10)):
        for _ in range(count):
            with seek(rng.choice(keys)) as it:
                for _ in range(500):
                    if not it.valid:
                        break
                    seen += len(it.key()) + len(it.value())
                    it.next()
    expected = sorted(latest.items())
    assert list(db.scan()) == expected
    assert list(db.scan_reverse(None)) == expected[::-1]
    return seen + len(expected)


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
    elif scenario == "scans":
        seen = _run_scans(db, rng, keys, latest)
    else:
        seen = _run_seeks(db, rng, keys, 2000 if scenario == "seekflush" else 200)
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
    if scenario == "seekflush":
        # The pin is only worth something if every engine's seek trigger fired.
        assert sum(
            db.registry.value("compaction.triggered", trigger=trigger)
            for trigger in ("seek", "seek_guard")
        ) >= 1
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
