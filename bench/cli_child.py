"""Traced CLI child: `modint.cli.main(argv)` with the layer wrappers installed.

    python3 bench/cli_child.py <modint arguments>

Standard output is the command's own. The span summary and the time spent in
`main` go to standard error as one line starting with workloads.SPANS_MARK.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import modint.cli  # noqa: E402

import spans  # noqa: E402
from workloads import SPANS_MARK  # noqa: E402

tracer = spans.Tracer()
spans.install_modint(tracer)
start = time.perf_counter()
try:
    code = modint.cli.main(sys.argv[1:])
finally:
    main_s = time.perf_counter() - start
    tracer.uninstall()
sys.stdout.flush()
print(SPANS_MARK + json.dumps({"summary": tracer.summary(), "main_s": main_s}), file=sys.stderr)
sys.exit(code)
