"""A probabilistic skip list (Pugh 1990).

This is both the memtable's index (as in LevelDB) and the conceptual
ancestor of FLSM's guards: guard keys are chosen exactly the way a skip
list promotes nodes, so a key that is a guard at level *i* is a guard at
every deeper level (paper section 3.1).

Keys are arbitrary comparable objects (the store uses
:class:`repro.util.keys.InternalKey`); duplicate keys are rejected —
the memtable never produces duplicates because every write carries a fresh
sequence number.  An ``order_key`` callable, when given, maps a key to the
value it is ordered by; it is applied once per key and the result kept in
the node, so a search compares those values directly (the memtable passes
``InternalKey.sort_key``: tuple compares in C, no ``__lt__`` frame per step).
"""

from __future__ import annotations

import random
from typing import Any, Callable, Iterator, List, Optional, Tuple

_MAX_HEIGHT = 12
_BRANCHING = 4
_BRANCH_BITS = _BRANCHING.bit_length()


class _Node:
    __slots__ = ("key", "order", "value", "forward")

    def __init__(self, key: Any, order: Any, value: Any, height: int) -> None:
        self.key = key
        self.order = order
        self.value = value
        self.forward: List[Optional["_Node"]] = [None] * height


class SkipList:
    """Sorted map with O(log n) expected insert and seek."""

    def __init__(
        self,
        seed: Optional[int] = None,
        order_key: Optional[Callable[[Any], Any]] = None,
    ) -> None:
        self._head = _Node(None, None, None, _MAX_HEIGHT)
        self._height = 1
        self._rng = random.Random(seed)
        self._size = 0
        self._order_key = order_key

    def __len__(self) -> int:
        return self._size

    # ------------------------------------------------------------------
    def _random_height(self) -> int:
        # ``randrange(_BRANCHING)`` as it draws — that many bits, again while
        # they make ``_BRANCHING`` or more — so the same stream and heights.
        bits = self._rng.getrandbits
        height = 1
        while height < _MAX_HEIGHT:
            draw = bits(_BRANCH_BITS)
            while draw >= _BRANCHING:
                draw = bits(_BRANCH_BITS)
            if draw:
                break
            height += 1
        return height

    def _order_of(self, key: Any) -> Any:
        return key if self._order_key is None else self._order_key(key)

    def _find_greater_or_equal(self, order: Any) -> Optional[_Node]:
        """The first node ordered at or after ``order`` (an ``_order_of`` value)."""
        node = self._head
        for level in range(self._height - 1, -1, -1):
            nxt = node.forward[level]
            while nxt is not None and nxt.order < order:
                node = nxt
                nxt = node.forward[level]
        return node.forward[0]

    # ------------------------------------------------------------------
    def insert(self, key: Any, value: Any) -> None:
        """Insert a new key; raises on duplicates."""
        # ``_order_of`` and the search (predecessors kept) in line: every put.
        order_key = self._order_key
        order = key if order_key is None else order_key(key)
        prev: List[_Node] = [self._head] * _MAX_HEIGHT
        node = self._head
        for level in range(self._height - 1, -1, -1):
            found = node.forward[level]
            while found is not None and found.order < order:
                node = found
                found = node.forward[level]
            prev[level] = node
        if found is not None and not (order < found.order):
            raise ValueError(f"duplicate skip list key: {key!r}")
        height = self._random_height()
        if height > self._height:
            self._height = height
        node = _Node(key, order, value, height)
        forward = node.forward
        for level in range(height):
            behind = prev[level].forward
            forward[level] = behind[level]
            behind[level] = node
        self._size += 1

    def get(self, key: Any) -> Tuple[bool, Any]:
        """Exact lookup; returns ``(found, value)``."""
        order = self._order_of(key)
        node = self._find_greater_or_equal(order)
        if node is not None and not (order < node.order):
            return True, node.value
        return False, None

    def seek(self, key: Any) -> Iterator[Tuple[Any, Any]]:
        """Iterate ``(key, value)`` pairs starting at the first key >= key."""
        node = self._find_greater_or_equal(self._order_of(key))
        while node is not None:
            yield node.key, node.value
            node = node.forward[0]

    def __iter__(self) -> Iterator[Tuple[Any, Any]]:
        node = self._head.forward[0]
        while node is not None:
            yield node.key, node.value
            node = node.forward[0]

    def first(self) -> Optional[Tuple[Any, Any]]:
        node = self._head.forward[0]
        return None if node is None else (node.key, node.value)
