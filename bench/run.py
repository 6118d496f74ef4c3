#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload grid-verdict --seed 1 --seconds 25 --trace 0

Run from anywhere; the program under test is the `modint` package in `src/`
next to this directory, and nothing else is imported in its place. The run
first sets up several fresh interpreters to time set-up, then measures whole
rounds of the workload's op mix for about `--seconds` seconds, checking every
op's output. With `--trace 0` it reports the end-to-end metrics; with
`--trace 1` it measures half the time untraced and half traced and reports the
per-layer metrics. The last line of standard output is one JSON object with
the keys `correct`, `attempted`, `failed` and `metrics`; the line before it,
prefixed `detail: `, holds the metrics that do not apply to every workload.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "modint"

SETUP_PROBES = 5

# One BLAS thread for the benchmark process and its children. The loop has one
# client, and OpenBLAS's second thread spins: it doubles the CPU time without
# shortening any op here, and makes the runs more sensitive to other load.
SINGLE_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_s_p50": "s",
    "peak_rss_mb": "MB",
}

SPAN_METRICS = [  # self time per op of each traced layer boundary
    "sampling.estimate_criterion",
    "sampling.sample_measurements",
    "states.amplitude",
    "states.joint_density",
    "states.state_from_descriptor",
    "states.discretize",
    "grids.observable_stats",
    "criterion.evaluate_criterion",
    "criterion.robustness_threshold",
    "criterion.visibility_of_admixture",
    "spectral.brute_force_c",
    "spectral.solve_c",
    "dynamics.protocol_visibility",
    "dynamics.free_propagate",
    "dynamics.fit_fringe_visibility",
    "modvar.split",
]
COUNTER_METRICS = [  # counts per op
    "sampling.sample_measurements.calls",
    "sampling.proposals",
    "states.amplitude_points",
    "states.discretize.points",
    "grids.observable_stats.calls",
    "grids.fft_calls",
    "grids.fft_points",
    "spectral.solve_c.calls",
    "modvar.split.points",
]
CLI_LABELS = ["table1", "constant", "criterion", "robustness", "fringes", "sample", "propagate", "protocol"]


def per_layer_units() -> dict[str, str]:
    units = {f"{name}.self_s": "s/op" for name in SPAN_METRICS}
    units.update({name: "count/op" for name in COUNTER_METRICS})
    units["sampling.accept_ratio"] = "ratio"
    units["cli.interp_s"] = "s"
    units["cli.import_s"] = "s"
    units.update({f"cli.{label}.s": "s" for label in CLI_LABELS})
    units["cli.stderr_warnings"] = "count/op"
    units["trace.overhead_ratio"] = "ratio"
    return units


@dataclass
class PassResult:
    attempted: int = 0
    failed: int = 0
    wall: float = 0.0
    latencies: list = field(default_factory=list)
    lhs_errs: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    warnings: int = 0
    child_spans: list = field(default_factory=list)
    main_s: dict = field(default_factory=lambda: defaultdict(list))

    @property
    def ops_per_s(self) -> float:
        return (self.attempted - self.failed) / self.wall


def run_pass(wl, mi, refs, seconds: float, tracer=None) -> PassResult:
    """Whole rounds of the op mix, stopping at the round boundary nearest to `seconds`."""
    from workloads import CliResult

    res = PassResult()
    t0 = time.perf_counter()
    while True:
        r0 = time.perf_counter()
        for op in wl.round(traced=tracer is not None):
            if tracer is not None:
                tracer.op = res.attempted
            res.attempted += 1
            start = time.perf_counter()
            try:
                out = op.execute(mi, refs)
            except Exception as exc:  # a raising op is a failed op; the run goes on
                res.latencies.append(time.perf_counter() - start)
                res.failed += 1
                res.failures.append((op.label, repr(exc)))
                continue
            res.latencies.append(time.perf_counter() - start)
            check = op.check(out, refs)
            if check.lhs_err is not None:
                res.lhs_errs.append(check.lhs_err)
            if not check.ok:
                res.failed += 1
                res.failures.append((op.label, check.reason))
            if isinstance(out, CliResult):
                res.warnings += out.warnings
                if out.spans is not None:
                    res.child_spans.append(out.spans)
                    res.main_s[op.label].append(out.main_s)
        now = time.perf_counter()
        if now - t0 + (now - r0) / 2 > seconds:
            break
    res.wall = time.perf_counter() - t0
    return res


def probe_setup(workload: str, seed: int) -> dict:
    """Time one fresh interpreter from spawn to its first op being ready."""
    from workloads import child_env

    spawn = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), workload, str(seed)],
        capture_output=True, text=True, env=child_env(), cwd=ROOT, timeout=120, check=True,
    )
    t = json.loads(proc.stdout.splitlines()[-1])
    return {"setup": t["ready"] - spawn, "interp": t["start"] - spawn, "import": t["imported"] - t["start"]}


def layer_metrics(summaries, ops: int, probes, res: PassResult, overhead: float) -> dict:
    self_s, counters = defaultdict(float), defaultdict(float)
    for s in summaries:
        for k, v in s["self_s"].items():
            self_s[k] += v
        for k, v in s["counters"].items():
            counters[k] += v
    out = {f"{name}.self_s": self_s[name] / ops for name in SPAN_METRICS}
    out.update({name: counters[name] / ops for name in COUNTER_METRICS})
    out["sampling.accept_ratio"] = (
        counters["sampling.records"] / counters["sampling.proposals"] if counters["sampling.proposals"] else 0.0
    )
    out["cli.interp_s"] = statistics.median(p["interp"] for p in probes)
    out["cli.import_s"] = statistics.median(p["import"] for p in probes)
    for label in CLI_LABELS:
        times = res.main_s.get(label)
        out[f"cli.{label}.s"] = statistics.median(times) if times else 0.0
    out["cli.stderr_warnings"] = res.warnings / ops
    out["trace.overhead_ratio"] = overhead
    return out


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no modint sources at {PACKAGE}", file=sys.stderr)
        return 2
    os.environ.update(SINGLE_THREAD_ENV)
    sys.path.insert(0, str(PACKAGE.parent))
    import modint as mi

    if Path(mi.__file__).resolve().parent != PACKAGE.resolve():
        print(f"error: imported modint from {mi.__file__}, not {PACKAGE}", file=sys.stderr)
        return 2
    import numpy as np

    import spans
    from summary import tail_percentile
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    probes = [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    wl = WORKLOADS[args.workload](args.seed)
    refs = wl.references(mi)

    if not args.trace:
        res = run_pass(wl, mi, refs, args.seconds)
        passes = [res]
        metrics = {
            "setup_s": statistics.median(p["setup"] for p in probes),
            "ops_per_s": res.ops_per_s,
            "op_s_p50": statistics.median(res.latencies),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
            ).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    else:
        plain = run_pass(wl, mi, refs, args.seconds / 2)
        tracer = spans.Tracer()
        if wl.in_process:
            spans.install_modint(tracer)
        try:
            traced = run_pass(wl, mi, refs, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        passes = [plain, traced]
        summaries = [tracer.summary()] if wl.in_process else traced.child_spans
        overhead = traced.ops_per_s / plain.ops_per_s if plain.ops_per_s else 0.0
        metrics = layer_metrics(summaries, traced.attempted, probes, traced, overhead)
        units = per_layer_units()

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    lat = passes[0].latencies
    tail = tail_percentile(len(lat))
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "ops": len(lat),
        "wall_s": passes[0].wall,
        "fail_ratio": failed / attempted,
        "op_s_tail": {"percentile": tail, "value": float(np.percentile(lat, tail)) if tail else None},
        "lhs_abs_err_max": max(passes[0].lhs_errs) if passes[0].lhs_errs else None,
        "failures": [f for p in passes for f in p.failures],
    }
    for label, reason in detail["failures"]:
        print(f"FAILED {label}: {reason}")
    for name, value in metrics.items():
        print(f"{name:44s} {value:.6g} {units[name]}")
    print("detail: " + json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
