"""Per-cause I/O attribution ledger.

Every device byte in the simulation is already tagged with the
:class:`~repro.sim.storage.IoAccount` that moved it —
:class:`~repro.sim.storage.StorageStats` keeps ``written_by_account`` /
``read_by_account`` / ``syncs_by_account`` maps that sum exactly to the
device totals by construction.  The ledger turns those raw account
names into a stable *cause* taxonomy so ``write_amplification``
decomposes into a table an operator (or a compaction auto-tuner) can
read:

========================  ====================================================
cause                     source
========================  ====================================================
``user``                  foreground puts/gets (logical user bytes)
``wal``                   write-ahead-log appends and group commits
``flush``                 memtable -> L0 sstable builds
``compaction``            legacy aggregate compaction account
``compaction.guard.L<n>`` FLSM guard compactions out of level *n*
``compaction.level.L<n>`` leveled compactions out of level *n*
``vlog.append``           foreground value-log appends (key–value separation)
``vlog.gc``               value-log GC: relocation reads + rewrites
``manifest``              MANIFEST appends and rotations
``shiplog``               durable commit shipping (``net/mp`` parent)
``recover``               crash-recovery replay reads
``backup`` / ``dump``     tooling passes
========================  ====================================================

Account names are ``<store prefix><cause>`` (for example
``shard0/compaction.guard.L2``); :meth:`IoLedger.from_storage` strips
the prefix, takes the last ``/``-separated component as the cause key,
and buckets anything unrecognised under ``other.<name>`` — so the
per-cause sums *always* equal the device totals, which
:meth:`verify_against` asserts.
"""

from __future__ import annotations

import json
from typing import Dict, Mapping, Optional

#: Cause keys recognised verbatim (anything else that is not a
#: ``compaction.*`` level bucket lands under ``other.<key>``).
_KNOWN_CAUSES = frozenset(
    {
        "user",
        "wal",
        "flush",
        "compaction",
        "manifest",
        "recover",
        "maintenance",
        "checkpoint",
        "repair",
        "shiplog",
        "backup",
        "dump",
        "vlog.gc",
    }
)


def classify_account(name: str, prefix: str = "") -> str:
    """Map one raw account name to its ledger cause.

    ``prefix`` is the store prefix (``db/``, ``shard0/`` ...); accounts
    from other stores sharing the storage keep their own shard prefix
    stripped too — the cause key is the final ``/``-separated component.
    """
    rest = name[len(prefix):] if prefix and name.startswith(prefix) else name
    key = rest.rsplit("/", 1)[-1]
    if key == "vlog":
        return "vlog.append"
    if key in _KNOWN_CAUSES:
        return key
    if key.startswith("compaction.guard.L") or key.startswith("compaction.level.L"):
        return key
    return f"other.{key}"


class IoLedger:
    """Per-cause write/read bytes and sync counts for one storage device.

    Immutable-ish value object: build via :meth:`from_storage`, combine
    shards via :meth:`merge`, render via :meth:`to_dict` /
    :meth:`to_text` / :meth:`to_json`.
    """

    __slots__ = ("write_bytes", "read_bytes", "syncs")

    def __init__(
        self,
        write_bytes: Optional[Dict[str, int]] = None,
        read_bytes: Optional[Dict[str, int]] = None,
        syncs: Optional[Dict[str, int]] = None,
    ) -> None:
        self.write_bytes: Dict[str, int] = dict(write_bytes or {})
        self.read_bytes: Dict[str, int] = dict(read_bytes or {})
        self.syncs: Dict[str, int] = dict(syncs or {})

    # ------------------------------------------------------------------
    @classmethod
    def from_storage(cls, storage, prefix: str = "") -> "IoLedger":
        """Build a ledger from a ``SimulatedStorage``'s account maps.

        With ``prefix=""`` every account on the device is included (the
        per-cause sums then equal the device totals exactly); a store
        prefix restricts the ledger to that store's traffic.
        """
        stats = storage.stats

        def bucket(source: Mapping[str, int]) -> Dict[str, int]:
            out: Dict[str, int] = {}
            for name, amount in source.items():
                if prefix and not name.startswith(prefix):
                    continue
                cause = classify_account(name, prefix)
                out[cause] = out.get(cause, 0) + amount
            return out

        return cls(
            write_bytes=bucket(stats.written_by_account),
            read_bytes=bucket(stats.read_by_account),
            syncs=bucket(stats.syncs_by_account),
        )

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "IoLedger":
        return cls(
            write_bytes=dict(payload.get("write_bytes", {})),  # type: ignore[arg-type]
            read_bytes=dict(payload.get("read_bytes", {})),  # type: ignore[arg-type]
            syncs=dict(payload.get("syncs", {})),  # type: ignore[arg-type]
        )

    # ------------------------------------------------------------------
    @property
    def total_write_bytes(self) -> int:
        return sum(self.write_bytes.values())

    @property
    def total_read_bytes(self) -> int:
        return sum(self.read_bytes.values())

    @property
    def total_syncs(self) -> int:
        return sum(self.syncs.values())

    def merge(self, other: "IoLedger") -> "IoLedger":
        """Sum two ledgers cause-by-cause (cluster aggregation)."""
        merged = IoLedger(self.write_bytes, self.read_bytes, self.syncs)
        for target, source in (
            (merged.write_bytes, other.write_bytes),
            (merged.read_bytes, other.read_bytes),
            (merged.syncs, other.syncs),
        ):
            for cause, amount in source.items():
                target[cause] = target.get(cause, 0) + amount
        return merged

    def verify_against(self, storage) -> None:
        """Assert the exactness invariant: per-cause sums == device totals."""
        stats = storage.stats
        if self.total_write_bytes != stats.bytes_written:
            raise AssertionError(
                f"ledger write bytes {self.total_write_bytes} != device "
                f"{stats.bytes_written}"
            )
        if self.total_read_bytes != stats.bytes_read:
            raise AssertionError(
                f"ledger read bytes {self.total_read_bytes} != device "
                f"{stats.bytes_read}"
            )
        if self.total_syncs != stats.sync_ops:
            raise AssertionError(
                f"ledger syncs {self.total_syncs} != device {stats.sync_ops}"
            )

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {
            "write_bytes": {k: self.write_bytes[k] for k in sorted(self.write_bytes)},
            "read_bytes": {k: self.read_bytes[k] for k in sorted(self.read_bytes)},
            "syncs": {k: self.syncs[k] for k in sorted(self.syncs)},
            "totals": {
                "write_bytes": self.total_write_bytes,
                "read_bytes": self.total_read_bytes,
                "syncs": self.total_syncs,
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def to_text(self) -> str:
        """Human-readable attribution table (repro-top, shell)."""
        causes = sorted(
            set(self.write_bytes) | set(self.read_bytes) | set(self.syncs)
        )
        total_w = self.total_write_bytes
        lines = [
            f"{'cause':<24} {'write':>12} {'w%':>6} {'read':>12} {'syncs':>7}"
        ]
        for cause in causes:
            w = self.write_bytes.get(cause, 0)
            share = (100.0 * w / total_w) if total_w else 0.0
            lines.append(
                f"{cause:<24} {w:>12} {share:>5.1f}% "
                f"{self.read_bytes.get(cause, 0):>12} {self.syncs.get(cause, 0):>7}"
            )
        lines.append(
            f"{'total':<24} {total_w:>12} {'100.0%' if total_w else '0.0%':>6} "
            f"{self.total_read_bytes:>12} {self.total_syncs:>7}"
        )
        return "\n".join(lines)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IoLedger):
            return NotImplemented
        return (
            self.write_bytes == other.write_bytes
            and self.read_bytes == other.read_bytes
            and self.syncs == other.syncs
        )
