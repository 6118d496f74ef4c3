"""The benchmark's workloads: seeded op mixes, op execution and output checks.

Every workload is a closed loop with one client: one op runs at a time and the
next starts when it has finished. A round is one pass over the workload's op
mix, in an order drawn from the workload seed; runs are made of whole rounds so
that every run measures the same mix. See README.md in this directory for why
each workload exists and which layers it bypasses.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

LAMBDA = 1.0
LHS_TOL = 1e-4  # grid lhs against the closed form
EPS_TOL = 1e-3  # bisection threshold against the closed form
CI_MULT = 6.0  # sampled lhs within this many CI half-widths of the closed form
C_TOL = 1e-9  # CLI kummer c against solve_c in the benchmark process
VIS_TOL = 1e-9  # protocol visibility at zero stagger
NORM_TOL = 1e-6  # propagated norm

SPANS_MARK = "modint-bench-spans "
WARNING_LINE = re.compile(r"\b\w*Warning: ")


# ---------------------------------------------------------------------------
# closed-form references, independent of the code under test


def s1_closed(N: int) -> float:
    """Single-particle squeezing S1(N) = -(12/pi^2) sum_j (-1)^j (N-j)/(N j^2)."""
    return -(12.0 / math.pi**2) * sum((-1) ** j * (N - j) / (N * j * j) for j in range(1, N)) + 0.0


def s2_closed(N: int) -> float:
    """Two-particle squeezing S2(N) = (6/pi^2) sum_j (N-j)/(N j^2)."""
    return (6.0 / math.pi**2) * sum((N - j) / (N * j * j) for j in range(1, N))


def lhs_closed(N: int, epsilon: float = 0.0) -> float:
    """Momentum-axis criterion lhs of (1-eps) MPE_N + eps classical, ideal envelopes."""
    return (1.0 - (1.0 - epsilon) * s2_closed(N)) / 6.0


@dataclass
class Check:
    ok: bool
    reason: str = ""
    lhs_err: float | None = None  # |lhs - closed form| where a closed form applies


def _fail(reason: str) -> Check:
    return Check(False, reason)


def _mpe(N: int, envelope: dict, epsilon: float = 0.0) -> dict:
    d = {"kind": "admixture" if epsilon else "mpe", "N": N, "x0": 0.0, "N0": 1,
         "lambda": LAMBDA, "envelope": envelope}
    if epsilon:
        d["epsilon"] = epsilon
    return d


def _gauss(sigma: float) -> dict:
    return {"kind": "gaussian", "sigma_x": sigma}


# ---------------------------------------------------------------------------
# grid-verdict: descriptor -> state -> evaluate_criterion, plus bisection


@dataclass(frozen=True)
class GridOp:
    label: str
    N: int
    sigma: float = 8.0
    axis: str = "momentum"
    epsilon: float = 0.0

    def execute(self, mi, refs):
        state = mi.state_from_descriptor(_mpe(self.N, _gauss(self.sigma), self.epsilon))
        return mi.evaluate_criterion(state, mi.ModularScale(LAMBDA), axis=self.axis)

    def check(self, report, refs) -> Check:
        if self.axis == "position":
            if report.violated or not report.lhs > report.bound:
                return _fail(f"position axis must not violate: lhs={report.lhs}")
            return Check(True)
        err = abs(report.lhs - lhs_closed(self.N, self.epsilon))
        if not report.violated:
            return Check(False, f"momentum axis must violate: lhs={report.lhs}", err)
        if not err <= LHS_TOL:
            return Check(False, f"lhs {report.lhs} off the closed form by {err:.3g}", err)
        return Check(True, lhs_err=err)


@dataclass(frozen=True)
class BisectionOp:
    label: str
    N: int

    def execute(self, mi, refs):
        return mi.robustness_threshold(self.N, method="bisection")

    def check(self, eps, refs) -> Check:
        want = refs["eps_star"][self.N]
        if not abs(eps - want) <= EPS_TOL:
            return _fail(f"bisection eps*={eps} vs closed form {want}")
        return Check(True)


# ---------------------------------------------------------------------------
# sample-verdict: descriptor -> state -> sample both kinds -> estimate


@dataclass(frozen=True)
class SampleOp:
    label: str
    N: int
    envelope: dict
    n: int
    pos_seed: int
    mom_seed: int
    epsilon: float = 0.0

    def execute(self, mi, refs):
        state = mi.state_from_descriptor(_mpe(self.N, self.envelope, self.epsilon))
        pos = mi.sample_measurements(state, "position", self.n, self.pos_seed)
        mom = mi.sample_measurements(state, "momentum", self.n, self.mom_seed)
        return mi.estimate_criterion(pos, mom, mi.ModularScale(LAMBDA))

    def check(self, rep, refs) -> Check:
        err = abs(rep.lhs_hat - lhs_closed(self.N, self.epsilon))
        if rep.verdict != "violated":
            return _fail(f"verdict {rep.verdict}, lhs_hat={rep.lhs_hat}")
        if not err <= CI_MULT * rep.ci_halfwidth:
            return _fail(f"lhs_hat {rep.lhs_hat} off the closed form by {err:.3g} "
                         f"> {CI_MULT} x halfwidth {rep.ci_halfwidth:.3g}")
        return Check(True)


# ---------------------------------------------------------------------------
# cli-cold: one fresh interpreter per README command line


@dataclass
class CliResult:
    returncode: int
    stdout: str
    stderr: str
    spans: dict | None = None  # summary written by a traced child
    main_s: float | None = None  # the child's own time in modint.cli.main

    @property
    def warnings(self) -> int:
        return sum(1 for line in self.stderr.splitlines() if WARNING_LINE.search(line))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _csv_rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))[1:]


def _check_table1(out, refs) -> Check:
    rows = _csv_rows(out)
    if [int(r[0]) for r in rows] != [1, 2, 3, 4, 10, 100]:
        return _fail(f"table1 ranks {[r[0] for r in rows]}")
    for n, s1, s2 in rows:
        n = int(n)
        if abs(float(s1) - s1_closed(n)) > 0.005 + 1e-12 or abs(float(s2) - s2_closed(n)) > 0.005 + 1e-12:
            return _fail(f"table1 row N={n}: {s1}, {s2}")
    return Check(True)


def _check_constant(out, refs) -> Check:
    c = json.loads(out)["kummer"]["c"]
    if not abs(c - refs["c"]) <= C_TOL:
        return _fail(f"kummer c {c} vs {refs['c']}")
    return Check(True)


def _check_violated(out, refs) -> Check:
    d = json.loads(out)
    ok = d.get("violated") is True or d.get("verdict") == "violated"
    return Check(True) if ok else _fail(f"not violated: {out.strip()}")


def _check_robustness(out, refs) -> Check:
    d = json.loads(out)
    closed, bis = d["epsilon_star_closed_form"], d["epsilon_star_bisection"]
    if not abs(closed - refs["eps_star"][2]) <= 1e-12 or not abs(bis - closed) <= EPS_TOL:
        return _fail(f"robustness thresholds {closed}, {bis}")
    return Check(True)


def _check_fringes(out, refs) -> Check:
    dens = np.array([float(r[1]) for r in _csv_rows(out)])
    if len(dens) != 1024 or not np.all(np.isfinite(dens)) or np.any(dens < 0) or not dens.max() > 0:
        return _fail("fringe profile malformed")
    return Check(True)


def _check_propagate(out, refs) -> Check:
    rows = np.array([[float(v) for v in r] for r in _csv_rows(out)])
    if rows.shape != (16384, 4):
        return _fail(f"propagate output shape {rows.shape}")
    norm = float(rows[:, 3].sum() * (rows[1, 0] - rows[0, 0]))
    if not abs(norm - 1.0) <= NORM_TOL:
        return _fail(f"propagated norm {norm}")
    return Check(True)


def _check_protocol(out, refs) -> Check:
    rows = [(float(s), float(v)) for s, v in _csv_rows(out)]
    if len(rows) != 9 or rows[0][0] != 0.0 or not abs(rows[0][1] - 1.0) <= VIS_TOL:
        return _fail(f"protocol sweep {rows[:2]}")
    return Check(True)


# README section "Command line", verbatim
CLI_COMMANDS = [
    ("table1", "table1", _check_table1),
    ("constant", "constant --method all", _check_constant),
    ("criterion", "criterion --state mpe --N 2", _check_violated),
    ("robustness", "robustness --N 2 --bisection", _check_robustness),
    ("fringes", "fringes --state mpe --N 2", _check_fringes),
    ("sample", "sample --state mpe --n 100000 --seed 7", _check_violated),
    ("propagate", "propagate --state multislit --N 2 --sigma 0.1 --time 2.0", _check_propagate),
    ("protocol", "protocol --N 2 --sigma 8 --max-stagger 40", _check_protocol),
]


@dataclass(frozen=True)
class CliOp:
    label: str
    argv: tuple
    checker: object = field(compare=False)
    traced: bool = False

    def execute(self, mi, refs) -> CliResult:
        if self.traced:
            cmd = [sys.executable, str(HERE / "cli_child.py"), *self.argv]
        else:
            cmd = [sys.executable, "-m", "modint.cli", *self.argv]
        proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env(), cwd=ROOT,
                              timeout=150)
        res = CliResult(proc.returncode, proc.stdout, proc.stderr)
        if self.traced:
            lines = proc.stderr.splitlines()
            marked = [ln for ln in lines if ln.startswith(SPANS_MARK)]
            if marked:
                payload = json.loads(marked[-1][len(SPANS_MARK):])
                res.spans, res.main_s = payload["summary"], payload["main_s"]
                res.stderr = "\n".join(ln for ln in lines if not ln.startswith(SPANS_MARK))
        return res

    def check(self, res: CliResult, refs) -> Check:
        if res.returncode != 0:
            return _fail(f"exit {res.returncode}: {res.stderr.strip()[-300:]}")
        if self.traced and res.spans is None:
            return _fail("traced child wrote no spans")
        try:
            return self.checker(res.stdout, refs)
        except (ValueError, KeyError, IndexError) as exc:
            return _fail(f"unparsable output: {exc!r}")


# ---------------------------------------------------------------------------
# workloads


class Workload:
    name = ""
    in_process = True  # ops run in the benchmark process (False: in child processes)

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)

    def mix(self, traced: bool = False) -> list:
        raise NotImplementedError

    def round(self, traced: bool = False) -> list:
        """The op mix in a seeded order."""
        ops = self.mix(traced)
        return [ops[i] for i in self.rng.permutation(len(ops))]

    @staticmethod
    def references(mi) -> dict:
        """Reference values the checks compare against (also warms solve_c)."""
        return {
            "c": mi.solve_c().c,
            "eps_star": {n: mi.robustness_threshold(n) for n in (2, 3)},
        }


class GridVerdict(Workload):
    name = "grid-verdict"

    def mix(self, traced=False):
        ops = [
            GridOp(f"mpe N={n} sigma={s:g} {axis}", n, s, axis)
            for n in (2, 3, 5, 10) for s in (8.0, 16.0) for axis in ("momentum", "position")
        ]
        ops += [GridOp(f"admixture N=2 eps={e:g}", 2, 8.0, "momentum", e) for e in (0.3, 0.7)]
        ops += [BisectionOp(f"bisection N={n}", n) for n in (2, 3)]
        return ops


class SampleVerdict(Workload):
    name = "sample-verdict"

    def mix(self, traced=False):
        seeds = [int(s) for s in self.rng.integers(0, 2**31, size=8)]
        g8 = _gauss(8.0)
        return [
            SampleOp("mpe N=2 gaussian n=1e5", 2, g8, 100_000, seeds[0], seeds[1]),
            SampleOp("mpe N=5 gaussian n=1e5", 5, g8, 100_000, seeds[2], seeds[3]),
            SampleOp("admixture N=2 eps=0.5 n=1e5", 2, g8, 100_000, seeds[4], seeds[5], 0.5),
            SampleOp("mpe N=2 sinc n=2e4", 2, {"kind": "sinc", "d": 8.0}, 20_000, seeds[6], seeds[7]),
        ]


class CliCold(Workload):
    name = "cli-cold"
    in_process = False

    def mix(self, traced=False):
        return [CliOp(label, tuple(line.split()), checker, traced)
                for label, line, checker in CLI_COMMANDS]


WORKLOADS = {w.name: w for w in (SampleVerdict, GridVerdict, CliCold)}
