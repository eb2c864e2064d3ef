"""The repository's one pinned benchmark: four workloads, two clocks.

``python -m bench run|trace|compare`` (see ``bench/README.md``).  The
package measures ``repro`` strictly from outside: exact counts come from
public stats surfaces, host time from wrapper spans installed by
``bench.trace``; no engine file is touched.

The benchmark always measures the checkout it lives in, so the sibling
``src/`` directory is put first on ``sys.path`` — ahead of any installed
``repro`` — and worker processes spawned by the process serving mode
inherit that path.
"""

import os
import sys

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if not os.path.isdir(os.path.join(_SRC, "repro")):
    raise ImportError(f"bench measures the checkout it lives in, but {_SRC}/repro is missing")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
