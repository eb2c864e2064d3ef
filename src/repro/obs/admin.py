"""Admin sections: one function over one store's stats part or many.

A *part* is the plain-data read of one store's stats plane
(:meth:`repro.engines.base.KeyValueStore.stats_part`): ``registry`` (a
:class:`MetricsRegistry` with every derived value filled in),
``health`` (the ``repro.health`` line), ``ledger`` (an
:meth:`IoLedger.to_dict` payload) and ``windows`` (op name →
:class:`WindowedHistogram`).  The serving layer adds ``shard``,
``state`` and ``ops`` per shard.  Everything in a part pickles, which is
how process-mode workers hand theirs to the parent.

A store's own ``repro.metrics`` / ``repro.ledger`` / ``repro.windows``
properties are :func:`aggregate_admin` over its one part; the loopback
server and the process-mode parent call it over one part per shard — so
every surface answers with the same bytes for the same state.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from repro.obs.ledger import IoLedger
from repro.obs.metrics import MetricsRegistry
from repro.obs.windows import SUMMARY_PERCENTILES, WindowedHistogram

#: Sections the read-only ``Op.ADMIN`` wire op understands.
ADMIN_SECTIONS = ("metrics", "health", "ledger", "windows")


def compact_json(payload: object) -> str:
    """Deterministic JSON: sorted keys, no whitespace."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def aggregate_admin(
    section: str,
    parts: List[Dict[str, object]],
    parent_registry: Optional[MetricsRegistry] = None,
    parent_ledger: Optional[IoLedger] = None,
) -> Optional[str]:
    """Aggregate stats parts into one section's text; None if unknown.

    The process serving mode additionally merges the parent supervisor's
    registry and ship-log ledger when it has any.
    """
    if section in ("", "metrics"):
        merged = MetricsRegistry()
        for part in parts:
            registry = part.get("registry")
            if registry is not None:
                merged.merge(registry)
        if parent_registry is not None:
            merged.merge(parent_registry)
        return merged.to_text()
    if section == "health":
        rows = [
            {
                "shard": part["shard"],
                "state": part.get("state", "active"),
                "health": part.get("health", ""),
                "ops": part.get("ops", {}),
            }
            for part in sorted(parts, key=lambda p: p["shard"])
        ]
        totals: Dict[str, int] = {}
        for row in rows:
            for name, value in row["ops"].items():
                totals[name] = totals.get(name, 0) + value
        return compact_json({"shards": rows, "totals": totals})
    if section == "ledger":
        ledger = IoLedger()
        for part in parts:
            ledger = ledger.merge(IoLedger.from_dict(part.get("ledger") or {}))
        if parent_ledger is not None:
            ledger = ledger.merge(parent_ledger)
        return ledger.to_json()
    if section == "windows":
        combined: Dict[str, WindowedHistogram] = {}
        for part in parts:
            for op, wh in (part.get("windows") or {}).items():
                mine = combined.get(op)
                if mine is None:
                    mine = combined[op] = WindowedHistogram(
                        window_seconds=wh.window_seconds, lo=wh.lo, growth=wh.growth
                    )
                mine.merge(wh)
        series = {
            op: {
                name: [[i, v] for i, v in wh.percentile_series(q)]
                for name, q in SUMMARY_PERCENTILES
            }
            for op, wh in sorted(combined.items())
        }
        width = next(iter(combined.values())).window_seconds if combined else 0.5
        return compact_json({"window_seconds": width, "series": series})
    return None
