"""Consistent store backups on the simulated device.

``create_backup`` copies the live version of a store — the files its
CURRENT MANIFEST references, the MANIFEST itself, and any live WALs — to
another prefix.  The store should be quiesced first (``wait_idle``);
the function verifies the metadata is complete and the referenced files
exist, so a torn backup is impossible to create silently.

``restore_backup`` copies a backup over a (possibly destroyed) store
prefix, after which the store opens through the normal recovery path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.errors import CorruptionError, ReproError
from repro.sim.storage import SimulatedStorage
from repro.version import read_current, set_current
from repro.version.lifecycle import (
    MANIFEST,
    SEGMENT,
    TABLE,
    WAL,
    file_name,
    numbered_files,
    replay_manifest,
)
from repro.version.manifest import CURRENT_NAME


@dataclass
class BackupReport:
    """What a backup/restore touched."""

    files_copied: int = 0
    bytes_copied: int = 0
    names: List[str] = field(default_factory=list)


def _copy_file(
    storage: SimulatedStorage, src: str, dst: str, report: BackupReport
) -> None:
    acct = storage.foreground_account("backup")
    storage.delete(dst, missing_ok=True)
    storage.create(dst)
    data = storage.read(src, 0, storage.size(src), acct, sequential=True)
    storage.append(dst, data, acct)
    storage.sync(dst, acct)
    report.files_copied += 1
    report.bytes_copied += len(data)
    report.names.append(dst)


def _live_files(storage: SimulatedStorage, prefix: str) -> List[str]:
    """The manifest plus every file the live version references."""
    acct = storage.foreground_account("backup")
    manifest = read_current(storage, acct, prefix)
    if manifest is None:
        raise ReproError(f"no CURRENT under {prefix!r}: nothing to back up")
    version = replay_manifest(storage, manifest, acct)
    names = [manifest]
    for number in sorted({number for _, number in version.tables}):
        name = file_name(prefix, number, TABLE)
        if not storage.exists(name):
            raise CorruptionError(f"live sstable missing, refusing to back up: {name}")
        names.append(name)
    # Every WAL, and every value-log segment the MANIFEST has not retired:
    # a surviving segment may hold records the live sstables point into.
    for number, name in numbered_files(storage, prefix, (WAL, SEGMENT)):
        if name.endswith(WAL) or number not in version.vlog_deleted:
            names.append(name)
    return names


def create_backup(
    storage: SimulatedStorage, src_prefix: str, dst_prefix: str
) -> BackupReport:
    """Copy the live store at ``src_prefix`` to ``dst_prefix``."""
    if src_prefix == dst_prefix:
        raise ReproError("backup destination must differ from the source")
    report = BackupReport()
    names = _live_files(storage, src_prefix)
    manifest_src = names[0]
    manifest_dst = dst_prefix + manifest_src[len(src_prefix):]
    for name in names:
        _copy_file(storage, name, dst_prefix + name[len(src_prefix):], report)
    acct = storage.foreground_account("backup")
    set_current(storage, manifest_dst, acct, dst_prefix)
    report.files_copied += 1  # CURRENT
    report.names.append(dst_prefix + CURRENT_NAME)
    return report


def restore_backup(
    storage: SimulatedStorage, backup_prefix: str, dst_prefix: str
) -> BackupReport:
    """Replace whatever is at ``dst_prefix`` with the backup's contents."""
    if backup_prefix == dst_prefix:
        raise ReproError("restore destination must differ from the backup")
    acct = storage.foreground_account("backup")
    if read_current(storage, acct, backup_prefix) is None:
        raise ReproError(f"{backup_prefix!r} does not contain a backup")
    # Clear the destination.
    for name in list(storage.list_files(dst_prefix)):
        storage.delete(name)
    report = BackupReport()
    manifest_dst = None
    for name in storage.list_files(backup_prefix):
        base = name[len(backup_prefix):]
        if base == CURRENT_NAME:
            continue
        _copy_file(storage, name, dst_prefix + base, report)
        if base.startswith(MANIFEST):
            manifest_dst = dst_prefix + base
    if manifest_dst is None:
        raise CorruptionError("backup contains no MANIFEST")
    set_current(storage, manifest_dst, acct, dst_prefix)
    report.files_copied += 1
    report.names.append(dst_prefix + CURRENT_NAME)
    return report
