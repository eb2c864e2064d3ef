#!/usr/bin/env python
"""Check a dbbench ``--trace-out`` file: decodes, non-empty, spans present.

Usage: ``python scripts/check_trace.py trace.jsonl`` — exits non-zero
when the trace is empty or lacks a get/write/flush/table.search or any
compaction span.
"""

import json
import sys


def main(path: str) -> None:
    with open(path) as handle:
        spans = [json.loads(line) for line in handle]
    assert spans, f"{path} contains no spans"
    names = {s["name"] for s in spans}
    for required in ("get", "write", "flush", "table.search"):
        assert required in names, f"no {required!r} span in trace: {sorted(names)}"
    assert any("compaction" in n for n in names), sorted(names)
    print(f"{len(spans)} spans, {len(names)} distinct names")


if __name__ == "__main__":
    main(sys.argv[1])
