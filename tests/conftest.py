"""Shared fixtures for the test suite."""

from __future__ import annotations

import dataclasses

import pytest

import repro
from repro.engines.options import StoreOptions
from repro.sstable import SSTableReader

#: Engines implementing the full LSM/FLSM machinery (WAL, recovery, ...).
LSM_ENGINES = ["leveldb", "hyperleveldb", "rocksdb", "pebblesdb"]
#: All public engines.
ALL_ENGINES = LSM_ENGINES + ["btree", "wiredtiger"]


def tiny_options(preset: str, **overrides) -> StoreOptions:
    """Small memtables/levels so compaction dynamics appear fast in tests."""
    base = StoreOptions.for_preset(preset)
    defaults = dict(
        memtable_bytes=4 * 1024,
        level1_max_bytes=16 * 1024,
        target_file_bytes=8 * 1024,
        top_level_bits=6,
        bit_decrement=1,
    )
    defaults.update(overrides)
    return dataclasses.replace(base, **defaults)


@pytest.fixture
def env() -> repro.Environment:
    return repro.Environment(cache_bytes=4 * 1024 * 1024)


@pytest.fixture(params=LSM_ENGINES)
def lsm_engine(request) -> str:
    return request.param


@pytest.fixture(params=ALL_ENGINES)
def any_engine(request) -> str:
    return request.param


def make_store(engine: str, env: repro.Environment, **option_overrides):
    options = None
    if engine in LSM_ENGINES:
        options = tiny_options(engine, **option_overrides)
    return repro.open_store(engine, env.storage, options=options, prefix="db/")


def check_sequence_bounds(db, env: repro.Environment) -> None:
    """``largest_seq`` of every live file, against a scan of the file."""
    acct = env.storage.foreground_account("test")
    for meta in db.live_files():
        reader = SSTableReader.open(env.storage, db._sst_name(meta.number), acct)
        assert meta.largest_seq == max(
            key.sequence for key, _ in reader.iter_all(acct)
        ), meta.number
