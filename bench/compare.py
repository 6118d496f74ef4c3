#!/usr/bin/env python3
"""Compare two result records written by suite.py.

    python3 bench/compare.py bench/results/parent.json bench/results/change.json

One row per (end-to-end metric, workload): both sides' medians and quartiles,
the pairs the change won (the i-th runs of each side in seed order; use the
same seeds on both sides), and a status by the rule in
`summary.compare` against the bound fixed in BENCHMARK.json. Exits 1 if any
row regressed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from summary import compare

ROOT = Path(__file__).resolve().parent.parent


def values(record: dict, workload: str, metric: str) -> list[float]:
    """The metric's values over the record's untraced runs of one workload, in seed order."""
    runs = sorted((r for r in record["runs"] if r["workload"] == workload and not r["trace"]),
                  key=lambda r: r["seed"])
    return [r["result"]["metrics"][metric]["value"] for r in runs]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent = json.loads(Path(args.parent).read_text())
    change = json.loads(Path(args.change).read_text())

    print(f"{'metric':12s} {'workload':15s} {'parent median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s} {'won':>7s} {'worse':>7s} {'bound':>6s}  status")
    regressed = False
    for w in spec["workloads"]:
        for m in spec["end_to_end"]:
            p, c = values(parent, w["name"], m["name"]), values(change, w["name"], m["name"])
            if not p or not c:
                continue
            row = compare(p, c, m["better"], m["bound"])
            regressed |= row["status"] == "regressed"
            fmt = "{1:.5g} [{0:.5g}, {2:.5g}]"
            print(f"{m['name']:12s} {w['name']:15s} {fmt.format(*row['parent']):>34s} "
                  f"{fmt.format(*row['change']):>34s} {row['won']:>3d}/{row['pairs']:<3d} "
                  f"{row['worse_share']:+7.3f} {m['bound']:6.2f}  {row['status']}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
