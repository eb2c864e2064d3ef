"""Key-value store engines.

``interface`` defines the store interface, ``base`` the machinery common
to every LSM-family engine (WAL, memtable rotation, background scheduling,
write stalls, the read path), ``background`` the retries and sticky error
every engine shares.  ``lsm`` is the leveled-LSM baseline
standing in for LevelDB / HyperLevelDB / RocksDB via configuration presets;
``btree`` is the B+tree store (the KyotoCabinet comparison of paper section
2.2); ``wiredtiger`` is the checkpoint+journal engine MongoDB defaults to.
The FLSM/PebblesDB engine lives in :mod:`repro.core`.
"""

from repro.engines.interface import DBIterator, KeyValueStore, Snapshot
from repro.obs.stats import StoreStats
from repro.engines.options import StoreOptions
from repro.engines.registry import ENGINES, create_store

__all__ = [
    "DBIterator",
    "KeyValueStore",
    "Snapshot",
    "StoreStats",
    "StoreOptions",
    "ENGINES",
    "create_store",
]
