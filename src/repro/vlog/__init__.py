"""Key–value separation: the garbage-collected value log."""

from repro.sstable.format import ValuePointer
from repro.vlog.log import (
    SegmentState,
    ValueLog,
    VlogCompactionContext,
    decode_record,
    encode_record,
)

__all__ = [
    "SegmentState",
    "ValueLog",
    "ValuePointer",
    "VlogCompactionContext",
    "decode_record",
    "encode_record",
]
