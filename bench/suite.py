#!/usr/bin/env python3
"""Run the benchmark over several seeds and write a result record.

    python3 bench/suite.py --seeds 1-10 --out bench/results/base.json
    python3 bench/suite.py --workloads grid-verdict --seeds 1-5 --trace 1

Each (seed, workload) pair is one `run.py` process; seeds are the outer loop
so that slow drifts of the machine spread over all workloads. The record holds
every run, every metric's sample count, quartiles and spread across runs,
the machine and library facts, the git commit and the seeds. A table of the
metrics is printed; a spread above a third of the metric's bound is flagged.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from run import SINGLE_THREAD_ENV
from summary import quartiles, spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
DETAIL = "detail: "


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi) + 1)) if hi else [int(lo)]
    return seeds


def machine_facts() -> dict:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level} {kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "processor": platform.processor() or platform.machine(),
        "caches": caches,
        "blas": blas,
        "blas_threads": SINGLE_THREAD_ENV,
    }


def versions() -> dict:
    import scipy

    return {"python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__}


def git_commit() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    elapsed = time.monotonic() - t0
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    detail = next(json.loads(ln[len(DETAIL):]) for ln in lines if ln.startswith(DETAIL))
    return {"workload": workload, "seed": seed, "trace": trace, "process_s": elapsed,
            "result": result, "detail": detail}


def aggregate(runs: list[dict], defs: dict) -> list[dict]:
    """One entry per (metric, workload) with values, quartiles and spread across runs."""
    rows = []
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        for name, d in defs.items():
            values = [r["result"]["metrics"][name]["value"] for r in mine]
            q1, med, q3 = quartiles(values)
            rows.append({"name": name, "unit": d["unit"], "workload": workload, "better": d["better"],
                         "bound": d.get("bound"), "n": len(values), "values": values,
                         "q1": q1, "median": med, "q3": q3, "spread": spread(values)})
        extras = {
            "fail_ratio": [r["detail"]["fail_ratio"] for r in mine],
            "ops_per_run": [r["detail"]["ops"] for r in mine],
            "lhs_abs_err_max": [r["detail"]["lhs_abs_err_max"] for r in mine],
            "op_s_tail": [r["detail"]["op_s_tail"]["value"] for r in mine],
        }
        for name, values in extras.items():
            if all(v is not None for v in values):
                q1, med, q3 = quartiles(values)
                rows.append({"name": name, "unit": "", "workload": workload, "n": len(values),
                             "values": values, "q1": q1, "median": med, "q3": q3,
                             "spread": spread(values)})
    return rows


def print_table(rows: list[dict]):
    print(f"{'metric':42s} {'workload':15s} {'n':>3s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>7s} {'bound':>6s}")
    for r in rows:
        bound = r.get("bound")
        flag = "  <- spread above bound/3" if bound and r["name"] != "setup_s" and r["spread"] > bound / 3 else ""
        print(f"{r['name']:42s} {r['workload']:15s} {r['n']:3d} {r['median']:12.6g} {r['q1']:12.6g} "
              f"{r['q3']:12.6g} {r['spread']:7.3f} {bound if bound else '':>6}{flag}")


def main(argv=None) -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    ap.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out", help="write the result record (JSON) here")
    args = ap.parse_args(argv)
    workloads = args.workloads.split(",")
    unknown = set(workloads) - set(names)
    if unknown:
        ap.error(f"unknown workloads {sorted(unknown)}")

    runs = []
    for seed in parse_seeds(args.seeds):
        for workload in workloads:
            run = run_once(workload, seed, args.seconds, args.trace)
            runs.append(run)
            res = run["result"]
            print(f"# {workload} seed {seed}: {res['attempted']} ops, {res['failed']} failed, "
                  f"{run['process_s']:.1f} s", file=sys.stderr, flush=True)
            for label, reason in run["detail"]["failures"]:
                print(f"#   FAILED {label}: {reason}", file=sys.stderr)

    defs = {m["name"]: m for m in SPEC["per_layer" if args.trace else "end_to_end"]}
    rows = aggregate(runs, defs)
    print_table(rows)
    record = {
        "machine": machine_facts(),
        **versions(),
        "git_commit": git_commit(),
        "seconds": args.seconds,
        "trace": args.trace,
        "seeds": parse_seeds(args.seeds),
        "metrics": rows,
        "runs": runs,
    }
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0 if all(r["result"]["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
