"""An in-memory B+tree with page-granular dirty tracking.

This is the data structure under both the KyotoCabinet-style store
(write-through pages, section 2.2's 61x-write-amplification baseline) and
the WiredTiger-style store (journal + checkpoint).  The tree itself is a
textbook B+tree over byte-string keys; what the stores add is *when* dirty
pages are written and how reads are charged.

Every node owns a page id; the store maps page ids to 4 KiB-aligned file
offsets.  Structure changes (splits, merges) mark the affected pages dirty
so the store can charge exactly the pages a real engine would write.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from typing import Iterator, List, Optional, Set, Tuple

from repro.util.keys import KIND_PUT
from repro.wal import LogReader, decode_batch

PAGE_SIZE = 4096
#: Per-entry overhead used when deciding whether a leaf page is full.
_ENTRY_OVERHEAD = 8


class _Node:
    __slots__ = ("page_id", "parent")

    def __init__(self, page_id: int) -> None:
        self.page_id = page_id
        self.parent: Optional["_Internal"] = None


class _Leaf(_Node):
    __slots__ = ("keys", "values", "next_leaf", "bytes_used")

    def __init__(self, page_id: int) -> None:
        super().__init__(page_id)
        self.keys: List[bytes] = []
        self.values: List[bytes] = []
        self.next_leaf: Optional["_Leaf"] = None
        self.bytes_used = 0


class _Internal(_Node):
    __slots__ = ("keys", "children")

    def __init__(self, page_id: int) -> None:
        super().__init__(page_id)
        self.keys: List[bytes] = []  # separator keys
        self.children: List[_Node] = []


class BPlusTree:
    """B+tree over bytes keys; tracks dirty and touched page ids."""

    def __init__(self, fanout: int = 128) -> None:
        self.fanout = fanout
        self._next_page = 0
        self.root: _Node = self._new_leaf()
        self._size = 0
        self.dirty_pages: Set[int] = set()

    def __len__(self) -> int:
        return self._size

    @property
    def page_count(self) -> int:
        return self._next_page

    # ------------------------------------------------------------------
    def _new_leaf(self) -> _Leaf:
        leaf = _Leaf(self._next_page)
        self._next_page += 1
        return leaf

    def _new_internal(self) -> _Internal:
        node = _Internal(self._next_page)
        self._next_page += 1
        return node

    # ------------------------------------------------------------------
    def _descend(self, key: bytes) -> Tuple[_Leaf, List[int]]:
        """Leaf for ``key`` plus the page ids touched on the way down."""
        path = []
        node = self.root
        while isinstance(node, _Internal):
            path.append(node.page_id)
            idx = bisect_right(node.keys, key)
            node = node.children[idx]
        path.append(node.page_id)
        return node, path  # type: ignore[return-value]

    # ------------------------------------------------------------------
    def get(self, key: bytes) -> Tuple[Optional[bytes], List[int]]:
        """Returns ``(value_or_None, touched_page_ids)``."""
        leaf, path = self._descend(key)
        idx = bisect_left(leaf.keys, key)
        if idx < len(leaf.keys) and leaf.keys[idx] == key:
            return leaf.values[idx], path
        return None, path

    def put(self, key: bytes, value: bytes) -> List[int]:
        """Insert/overwrite; returns touched page ids (dirty ones marked)."""
        leaf, path = self._descend(key)
        idx = bisect_left(leaf.keys, key)
        if idx < len(leaf.keys) and leaf.keys[idx] == key:
            leaf.bytes_used += len(value) - len(leaf.values[idx])
            leaf.values[idx] = value
        else:
            leaf.keys.insert(idx, key)
            leaf.values.insert(idx, value)
            leaf.bytes_used += len(key) + len(value) + _ENTRY_OVERHEAD
            self._size += 1
        self.dirty_pages.add(leaf.page_id)
        if leaf.bytes_used > PAGE_SIZE:
            self._split_leaf(leaf)
        return path

    def delete(self, key: bytes) -> Tuple[bool, List[int]]:
        """Remove ``key``; returns ``(removed, touched_page_ids)``.

        Underflowed leaves are left in place (lazy deletion, as most
        embedded B-tree engines do); empty pages are reclaimed only when a
        sibling split reuses them.
        """
        leaf, path = self._descend(key)
        idx = bisect_left(leaf.keys, key)
        if idx >= len(leaf.keys) or leaf.keys[idx] != key:
            return False, path
        leaf.bytes_used -= len(key) + len(leaf.values[idx]) + _ENTRY_OVERHEAD
        del leaf.keys[idx]
        del leaf.values[idx]
        self._size -= 1
        self.dirty_pages.add(leaf.page_id)
        return True, path

    # ------------------------------------------------------------------
    def _split_leaf(self, leaf: _Leaf) -> None:
        mid = len(leaf.keys) // 2
        right = self._new_leaf()
        right.keys = leaf.keys[mid:]
        right.values = leaf.values[mid:]
        right.bytes_used = sum(
            len(k) + len(v) + _ENTRY_OVERHEAD for k, v in zip(right.keys, right.values)
        )
        del leaf.keys[mid:]
        del leaf.values[mid:]
        leaf.bytes_used -= right.bytes_used
        right.next_leaf = leaf.next_leaf
        leaf.next_leaf = right
        self.dirty_pages.add(leaf.page_id)
        self.dirty_pages.add(right.page_id)
        self._insert_into_parent(leaf, right.keys[0], right)

    def _insert_into_parent(self, left: _Node, sep: bytes, right: _Node) -> None:
        parent = left.parent
        if parent is None:
            new_root = self._new_internal()
            new_root.keys = [sep]
            new_root.children = [left, right]
            left.parent = new_root
            right.parent = new_root
            self.root = new_root
            self.dirty_pages.add(new_root.page_id)
            return
        idx = bisect_right(parent.keys, sep)
        parent.keys.insert(idx, sep)
        parent.children.insert(idx + 1, right)
        right.parent = parent
        self.dirty_pages.add(parent.page_id)
        if len(parent.children) > self.fanout:
            self._split_internal(parent)

    def _split_internal(self, node: _Internal) -> None:
        mid = len(node.keys) // 2
        sep = node.keys[mid]
        right = self._new_internal()
        right.keys = node.keys[mid + 1 :]
        right.children = node.children[mid + 1 :]
        for child in right.children:
            child.parent = right
        del node.keys[mid:]
        del node.children[mid + 1 :]
        self.dirty_pages.add(node.page_id)
        self.dirty_pages.add(right.page_id)
        self._insert_into_parent(node, sep, right)

    # ------------------------------------------------------------------
    def first_leaf(self) -> _Leaf:
        node = self.root
        while isinstance(node, _Internal):
            node = node.children[0]
        return node  # type: ignore[return-value]

    def iterate_from(self, key: bytes) -> Iterator[Tuple[bytes, bytes, int]]:
        """Yield ``(key, value, leaf_page_id)`` for keys >= ``key``."""
        leaf, _ = self._descend(key)
        idx = bisect_left(leaf.keys, key)
        current: Optional[_Leaf] = leaf
        while current is not None:
            for i in range(idx, len(current.keys)):
                yield current.keys[i], current.values[i], current.page_id
            current = current.next_leaf
            idx = 0

    def take_dirty(self) -> Set[int]:
        dirty, self.dirty_pages = self.dirty_pages, set()
        return dirty

    def replay_journal(self, storage, name: str, account) -> None:
        """Apply every intact record of the journal ``name`` (one write
        batch each) and forget the pages that dirtied: the journal, not
        the page images, is what a store reopens from."""
        for record in LogReader(storage, name).records(account):
            for kind, key, value in decode_batch(record)[1]:
                if kind == KIND_PUT:
                    self.put(key, value)
                else:
                    self.delete(key)
        self.take_dirty()

    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Verify ordering and linkage."""
        prev = None
        count = 0
        leaf: Optional[_Leaf] = self.first_leaf()
        while leaf is not None:
            for key in leaf.keys:
                assert prev is None or key > prev, "B+tree keys out of order"
                prev = key
                count += 1
            leaf = leaf.next_leaf
        assert count == self._size, f"size mismatch: {count} != {self._size}"
