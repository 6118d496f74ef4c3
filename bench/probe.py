"""Set-up probe: a fresh interpreter that gets one workload ready and exits.

    python3 bench/probe.py <workload> <seed>

Prints monotonic clock readings (comparable across processes) for the start
of this script, the end of `import modint`, and the moment the workload's
inputs and references, including the first `solve_c`, are ready.
"""

import time

START = time.monotonic()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import modint  # noqa: E402

IMPORTED = time.monotonic()

from workloads import WORKLOADS  # noqa: E402

wl = WORKLOADS[sys.argv[1]](int(sys.argv[2]))
wl.round()
wl.references(modint)
print(json.dumps({"start": START, "imported": IMPORTED, "ready": time.monotonic()}))
