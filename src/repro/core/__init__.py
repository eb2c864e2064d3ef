"""The paper's contribution: FLSM guards and the PebblesDB engine.

* :mod:`repro.core.guards` — guard selection (MurmurHash LSB scheme, paper
  section 4.4), the per-level guard structure, and its invariants.
* :mod:`repro.core.pebbles` — the PebblesDB store: FLSM partition-append
  compaction (section 3.4) plus the section 4 optimizations (sstable bloom
  filters, seek-based compaction, parallel seeks).
"""

from repro.core.guards import Guard, GuardedLevel, GuardPicker
from repro.core.pebbles import PebblesDBStore

__all__ = ["Guard", "GuardedLevel", "GuardPicker", "PebblesDBStore"]
