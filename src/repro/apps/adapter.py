"""YCSB adapter: run the benchmark suite *through* a NoSQL application.

Figure 5.6 measures YCSB against HyperDex and MongoDB rather than the raw
key-value store; this adapter exposes the KeyValueStore interface the
YCSB runner drives, translating each operation into application calls
(documents with a single payload field, like YCSB's record format).
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple, Union

from repro.apps.hyperdex import HyperDexStore
from repro.apps.mongo import MongoStore
from repro.engines.base import DBIterator, KeyValueStore

_FIELD = "field0"


class YcsbAppAdapter(KeyValueStore):
    """Adapts a HyperDexStore or MongoStore to the KeyValueStore API."""

    def __init__(
        self,
        app: Union[HyperDexStore, MongoStore],
        namespace: str = "usertable",
    ) -> None:
        self.app = app
        self.namespace = namespace
        if isinstance(app, HyperDexStore):
            app.add_space(namespace, searchable_attributes=[])
            self._mode = "hyperdex"
            self._collection = None
        else:
            self._mode = "mongo"
            self._collection = app.collection(namespace)

    # ------------------------------------------------------------------
    def put(self, key: bytes, value: bytes) -> None:
        if self._mode == "hyperdex":
            self.app.put(self.namespace, key, {_FIELD: value})
        else:
            assert self._collection is not None
            self._collection.replace_one(key, {_FIELD: value})

    def get(self, key: bytes) -> Optional[bytes]:
        if self._mode == "hyperdex":
            doc = self.app.get(self.namespace, key)
        else:
            assert self._collection is not None
            doc = self._collection.find_one(key)
        if doc is None:
            return None
        value = doc.get(_FIELD)
        return value if isinstance(value, bytes) else None

    def delete(self, key: bytes) -> None:
        if self._mode == "hyperdex":
            self.app.delete(self.namespace, key)
        else:
            assert self._collection is not None
            self._collection.delete_one(key)

    def seek(self, key: bytes) -> DBIterator:
        if self._mode == "hyperdex":
            source = self.app.scan(self.namespace, key)
        else:
            assert self._collection is not None
            source = self._collection.scan(key)

        def gen() -> Iterator[Tuple[bytes, bytes]]:
            for doc_id, doc in source:
                value = doc.get(_FIELD)
                yield doc_id, value if isinstance(value, bytes) else b""

        return DBIterator(gen())

    # ------------------------------------------------------------------
    def stats_part(self):
        return self.app.kv.stats_part()

    def io_ledger(self):
        return self.app.kv.io_ledger()

    def enable_tracing(self, sink, component: str = "engine"):
        return self.app.kv.enable_tracing(sink, component)

    def close(self) -> None:
        self.app.kv.close()
