"""Interactive shell for a simulated key-value store.

::

    python -m repro.tools.shell --engine pebblesdb
    > put color blue
    > get color
    blue
    > scan a z
    > stats
    > layout
    > crash        # simulate power failure and recover
    > quit

Also usable non-interactively: pipe commands on stdin (tests do this).
"""

from __future__ import annotations

import argparse
import shlex
import sys
from typing import IO, List, Optional

import repro
from repro.engines.registry import ENGINES
from repro.obs.render import report

HELP = """\
commands:
  put <key> <value>      store a mapping
  get <key>              read the latest value
  del <key>              delete a key
  scan [start] [limit]   list pairs from start (default 20 rows)
  range <lo> <hi>        inclusive range query
  stats                  operational counters (IO, amplification, stalls)
  metrics                full metrics registry (Prometheus-style text)
  property [<name>]      read a store property; no argument lists names
  layout                 on-storage layout (levels/guards)
  compact                run compaction to a steady state
  flush                  flush the memtable
  crash                  simulate power failure, then recover the store
  time                   simulated clock
  help                   this text
  quit                   exit
"""


class StoreShell:
    """Parses and executes shell commands against one store."""

    def __init__(
        self,
        engine: str,
        out: IO[str] = sys.stdout,
        value_separation_bytes: Optional[int] = None,
    ) -> None:
        self.engine = engine
        self.env = repro.Environment()
        self.options = None
        if value_separation_bytes is not None:
            import dataclasses

            from repro.engines.options import StoreOptions

            self.options = dataclasses.replace(
                StoreOptions.for_preset(engine),
                value_separation_bytes=value_separation_bytes,
            )
        self.db = repro.open_store(
            engine, self.env.storage, options=self.options, prefix="db/"
        )
        self.out = out

    def _print(self, text: str = "") -> None:
        print(text, file=self.out)

    # ------------------------------------------------------------------
    def execute(self, line: str) -> bool:
        """Run one command; returns False when the shell should exit."""
        try:
            parts = shlex.split(line)
        except ValueError as exc:
            self._print(f"parse error: {exc}")
            return True
        if not parts:
            return True
        cmd, args = parts[0].lower(), parts[1:]
        try:
            return self._dispatch(cmd, args)
        except Exception as exc:  # surface, don't kill the shell
            self._print(f"error: {exc}")
            return True

    def _dispatch(self, cmd: str, args: List[str]) -> bool:
        if cmd in ("quit", "exit"):
            self.db.close()
            return False
        if cmd == "help":
            self._print(HELP)
        elif cmd == "put" and len(args) == 2:
            self.db.put(args[0].encode(), args[1].encode())
            self._print("ok")
        elif cmd == "get" and len(args) == 1:
            value = self.db.get(args[0].encode())
            self._print(value.decode(errors="replace") if value is not None else "(not found)")
        elif cmd == "del" and len(args) == 1:
            self.db.delete(args[0].encode())
            self._print("ok")
        elif cmd == "scan":
            start = args[0].encode() if args else b""
            limit = int(args[1]) if len(args) > 1 else 20
            shown = 0
            for key, value in self.db.scan(start):
                self._print(f"{key.decode(errors='replace')} -> "
                            f"{value.decode(errors='replace')}")
                shown += 1
                if shown >= limit:
                    self._print("...")
                    break
            if not shown:
                self._print("(empty)")
        elif cmd == "range" and len(args) == 2:
            for key, value in self.db.range_query(args[0].encode(), args[1].encode()):
                self._print(f"{key.decode(errors='replace')} -> "
                            f"{value.decode(errors='replace')}")
        elif cmd == "stats":
            self._print(report(self.db))
            self._print(f"sim-time={self.env.now:.3f}s")
        elif cmd == "metrics":
            text = self.db.get_property("repro.metrics")
            self._print(text if text else "(engine exposes no metrics)")
        elif cmd == "property":
            if not args:
                for name in self.db.property_names():
                    self._print(name)
            else:
                value = self.db.get_property(args[0])
                self._print(value if value is not None else "(no such property)")
        elif cmd == "layout":
            layout = getattr(self.db, "layout", None)
            self._print(layout() if layout else "(engine has no layout view)")
        elif cmd == "compact":
            self.db.compact_all()
            self._print("compacted")
        elif cmd == "flush":
            self.db.flush_memtable()
            self._print("flushed")
        elif cmd == "crash":
            self.env.storage.crash()
            self.db = repro.open_store(
                self.engine, self.env.storage, options=self.options, prefix="db/"
            )
            self._print("crashed and recovered")
        elif cmd == "time":
            self._print(f"{self.env.now:.6f} s")
        else:
            self._print(f"unknown command: {cmd!r} (try 'help')")
        return True


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-shell", description="Interactive simulated key-value store."
    )
    parser.add_argument("--engine", choices=ENGINES, default="pebblesdb")
    parser.add_argument(
        "--value-separation-bytes", type=int, default=None, metavar="N",
        help="store values >= N bytes in the value log (LSM engines)",
    )
    args = parser.parse_args(argv)
    shell = StoreShell(args.engine, value_separation_bytes=args.value_separation_bytes)
    interactive = sys.stdin.isatty()
    if interactive:
        print(f"repro shell ({args.engine}); 'help' for commands")
    for line in sys.stdin:
        if not shell.execute(line):
            return 0
        if interactive:
            print("> ", end="", flush=True)
    shell.db.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
