#!/usr/bin/env python
"""Reachability: which functions of ``src/repro`` does anything run?

Runs four sets of commands — ``tier1`` (the test suite), ``bench`` (the
pinned benchmark's self-tests), ``benchmarks`` (the paper figures, with
``--benchmark-disable`` because pytest-benchmark pauses ``sys.settrace``
inside ``benchmark()``) and ``ci`` (the CI job's command lines that are not
pytest runs) — with a ``sitecustomize.py`` first on ``PYTHONPATH``.  It
records call events only (no line events) in every Python process that
starts, spawned workers and CLIs included, and each process writes the code
objects it entered when it exits.  The blind spot that stays: a process that
ends by SIGKILL or ``os._exit`` writes no record.

Every function ``ast`` finds in ``src/repro`` (module functions and methods;
a nested function counts as part of the one that defines it) is then
unreached, reached only by ``tier1``, or reached by a measured or CI run.
Prints lines per module for the first two, the allowlist with its reasons,
and every unreached function outside it; exits 1 if there is one.

Usage: ``python scripts/reach.py [SET ...]`` (default: all four sets; a
subset reports as unreached whatever only the other sets run).  Run it by
hand at each re-anchor; tier-1 traced takes about twice its untraced time.
"""

import ast
import collections
import glob
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETS = {
    "tier1": ["python -m pytest -q -p no:cacheprovider tests"],
    "bench": ["python -m pytest -q -p no:cacheprovider bench"],
    "benchmarks": ["python -m pytest -q -p no:cacheprovider benchmarks --benchmark-disable"],
    "ci": [  # .github/workflows/ci.yml, with {t} for $RUNNER_TEMP
        "python -m repro.tools.dbbench --engine pebblesdb --num 3000 --value-size 128"
        " --benchmarks fillrandom,readrandom"
        " --fault-plan 'transient:append:*.sst:at=2;transient:sync:db/*.log:at=10'",
        "python -m repro.tools.dbbench --engine pebblesdb --num 300 --value-size 16384"
        " --value-separation-bytes 512 --benchmarks fillrandom-large,readrandom",
        "python -m repro.tools.dbbench --engine pebblesdb --num 3000 --value-size 128"
        " --benchmarks fillrandom,readrandom,seekrandom,readseq"
        " --trace-out {t}/trace.jsonl --metrics-out {t}/metrics.prom",
        "for r in summary timeline stalls reads; do"
        " python -m repro.tools.trace {t}/trace.jsonl --report $r >/dev/null; done",
        "python -m repro.tools.netbench --serve loopback --shards 4 --num 2000"
        " --value-size 128 --trace-out {t}/trace_a.jsonl",
        "python -m repro.tools.netbench --serve tcp --shards 2 --num 3000"
        " --value-size 128 --concurrency 16 --json {t}/netbench.json",
        "python scripts/mp_smoke.py",
        "python scripts/obs_admin_smoke.py {t}/dumps",
        "python -m repro.tools.trace $(ls {t}/dumps/flight-supervisor-*.jsonl | head -1) --report dump",
        "python scripts/server_smoke.py",
        "python -m bench trace --smoke --workloads scan_short write_heavy read_aged",
    ],
}
#: Never run, kept on purpose.  A declaration (``@abstractmethod``, or a
#: body that is only a docstring, ``pass`` or ``raise NotImplementedError``)
#: has no statement to defend and is allowed without an entry.
ALLOWLIST = {
    "repro.engines.base.LSMStoreBase._search_span_attrs":
        "hook default (no attributes); FLSM overrides it, no run traces a leveled table search",
    "repro.workloads.distributions.UniformGenerator.grow":
        "KeyGenerator protocol: YCSB grows whichever chooser a workload with inserts uses",
    "repro.net.transport.StreamEndpoint.is_closed":
        "Endpoint protocol: read by the in-memory pump and FaultyEndpoint, never over TCP",
    "repro.net.mp._CommitShipper.arm":
        "kill-point hook: the worker it arms ends by os._exit, which writes no record",
}
RECORDER = """import atexit, os, sys, threading
_seen = set()
def _call(frame, event, arg):
    _seen.add(frame.f_code)
sys.settrace(_call)
threading.settrace(_call)
@atexit.register
def _dump():
    sys.settrace(None)
    with open(os.path.join(os.environ["REACH_OUT"], "%d.txt" % os.getpid()), "a") as f:
        f.writelines("%s:%d\\n" % (c.co_filename, c.co_firstlineno) for c in _seen)
"""


def functions():
    """(qualified name, path, first line, lines, abstract) for each function."""
    out = []
    for path in sorted(glob.glob(os.path.join(SRC, "repro", "**", "*.py"), recursive=True)):
        module = os.path.relpath(path, SRC)[:-3].replace(os.sep, ".").removesuffix(".__init__")
        stack = [(node, module) for node in ast.parse(open(path).read()).body]
        while stack:
            node, prefix = stack.pop()
            name = f"{prefix}.{getattr(node, 'name', '')}"
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                body = [ast.unparse(s) for s in node.body
                        if not (isinstance(s, ast.Expr) and isinstance(s.value, ast.Constant))]
                abstract = any("abstractmethod" in ast.unparse(d) for d in node.decorator_list) or (
                    body in ([], ["pass"]) or (len(body) == 1 and body[0].startswith("raise NotImplementedError")))
                out.append((name, path, first, node.end_lineno - first + 1, abstract))
            elif not isinstance(node, ast.Lambda):
                inner = name if isinstance(node, ast.ClassDef) else prefix
                stack.extend((child, inner) for child in ast.iter_child_nodes(node))
    return sorted(out, key=lambda f: (f[1], f[2]))


def record(name, tmp):
    out = os.path.join(tmp, name)
    os.makedirs(out)
    env = dict(os.environ, REACH_OUT=out, PYTHONPATH=os.pathsep.join([tmp, SRC]))
    for command in SETS[name]:
        done = subprocess.run(command.format(t=tmp), shell=True, cwd=ROOT, env=env,
                              stdout=subprocess.DEVNULL)
        print(f"[{name}] exit {done.returncode}: {command[:70]}", flush=True)
    seen = set()
    for path in glob.glob(os.path.join(out, "*.txt")):
        for line in open(path):
            filename, _, first = line.rstrip("\n").rpartition(":")
            seen.add((os.path.realpath(filename), int(first)))
    return seen


def main(names):
    with tempfile.TemporaryDirectory() as tmp:
        with open(os.path.join(tmp, "sitecustomize.py"), "w") as f:
            f.write(RECORDER)
        seen = {name: record(name, tmp) for name in names}
    per_module = collections.defaultdict(lambda: [0, 0])
    unreached, allowed = [], []
    for name, path, first, lines, abstract in functions():
        key = (os.path.realpath(path), first)
        sets = {s for s in names if key in seen[s]}
        module = os.path.relpath(path, ROOT)
        if not sets:
            per_module[module][0] += lines
            if abstract or name in ALLOWLIST:
                allowed.append((name, lines, ALLOWLIST.get(name, "declaration: abstract, or a body with no statement")))
            else:
                unreached.append((name, lines))
        elif sets == {"tier1"}:
            per_module[module][1] += lines
    print(f"\n{'module':<40} {'unreached':>9} {'tier1-only':>10}   (lines)")
    for module, (never, tier1) in sorted(per_module.items()):
        print(f"{module:<40} {never:>9} {tier1:>10}")
    print(f"{'total':<40} {sum(v[0] for v in per_module.values()):>9} "
          f"{sum(v[1] for v in per_module.values()):>10}")
    print(f"\nallowlisted, never run ({len(allowed)}):")
    for name, lines, reason in allowed:
        print(f"  {name} ({lines} lines): {reason}")
    print(f"\nunreached, not allowlisted ({len(unreached)}):")
    for name, lines in unreached:
        print(f"  {name} ({lines} lines)")
    print("\nblind spot: a process that ends by SIGKILL or os._exit writes no record")
    return 1 if unreached else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or list(SETS)))
