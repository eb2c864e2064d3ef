"""Metadata persistence: the MANIFEST, version edits, and the store's files.

Engines describe every metadata change — sstables added/removed, sequence
number high-water mark, and (for FLSM) guards committed or deleted — as a
:class:`VersionEdit` appended to a MANIFEST log.  Recovery replays the
MANIFEST and then the write-ahead log; PebblesDB's only addition over
LevelDB is the guard metadata riding in the same edits (paper section
4.3.1), which is exactly how we persist it.

:mod:`repro.version.manifest` is the format (edits, the log, CURRENT);
:mod:`repro.version.lifecycle` is everything done with it — file names,
creation, the live MANIFEST's appends and rotation, and recovery — for
the store, ``repair_store``, ``create_backup`` and the value log alike.
"""

from repro.version.files import FileMetadata
from repro.version.manifest import (
    CURRENT_NAME,
    ManifestReader,
    ManifestWriter,
    VersionEdit,
    read_current,
    set_current,
)

__all__ = [
    "FileMetadata",
    "VersionEdit",
    "ManifestWriter",
    "ManifestReader",
    "CURRENT_NAME",
    "read_current",
    "set_current",
]
