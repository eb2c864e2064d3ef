#!/usr/bin/env python
"""CLI smoke: ``repro-server``, ``repro-netbench --connect``, ``repro-top`` and
``repro-shell`` as separate processes.

1. starts ``repro-server --port 0 --shards 2 --serving-mode process`` and
   reads the port from its ``listening on`` line;
2. runs ``repro-netbench --connect 127.0.0.1:PORT --num 500`` (it self-checks
   op counts and values) and ``repro-top --connect 127.0.0.1:PORT`` (all four
   admin sections);
3. sends the server SIGINT and requires exit status 0;
4. pipes ``put a 1``, ``get a``, ``stats`` and ``quit`` into ``repro-shell``.

Every step must exit 0; the script exits 1 at the first that does not.

Usage: ``PYTHONPATH=src python scripts/server_smoke.py``
"""

import signal
import subprocess
import sys

TIMEOUT = 120


def tool(name, *args):
    return [sys.executable, "-m", f"repro.tools.{name}", *args]


def check(what, code, output):
    if code != 0:
        sys.exit(f"server-smoke: {what} exited {code}\n{output}")


def main():
    server = subprocess.Popen(
        tool("server", "--port", "0", "--shards", "2", "--serving-mode", "process"),
        stdout=subprocess.PIPE, text=True,
    )
    try:
        line = server.stdout.readline()
        if "listening on" not in line:
            sys.exit(f"server-smoke: no 'listening on' line from repro-server: {line!r}")
        address = "127.0.0.1:" + line.rsplit(":", 1)[1].strip()
        for args in (("netbench", "--connect", address, "--num", "500"),
                     ("top", "--connect", address)):
            done = subprocess.run(tool(*args), capture_output=True, text=True, timeout=TIMEOUT)
            check(f"repro-{args[0]}", done.returncode, done.stdout + done.stderr)
        for section in ("health", "ledger", "windows", "metrics"):
            if f"== {section} " not in done.stdout:
                sys.exit(f"server-smoke: repro-top printed no {section} section\n{done.stdout}")
        server.send_signal(signal.SIGINT)
        out, _ = server.communicate(timeout=TIMEOUT)
        check("repro-server after SIGINT", server.returncode, out)
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()
    done = subprocess.run(tool("shell"), input="put a 1\nget a\nstats\nquit\n",
                          capture_output=True, text=True, timeout=TIMEOUT)
    check("repro-shell", done.returncode, done.stdout + done.stderr)
    if "1" not in done.stdout.split():
        sys.exit(f"server-smoke: repro-shell did not read back 'a'\n{done.stdout}")
    print(f"server-smoke OK: repro-server on {address}, netbench, top, SIGINT exit 0, shell")


if __name__ == "__main__":
    main()
