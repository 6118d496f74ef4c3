"""Command-line front end: reproduces the headline numbers and exports
plot-ready CSV/JSON. Canonical units (hbar = 1) throughout; headers state units."""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

import numpy as np

from . import criterion as crit
from . import dynamics, sampling, spectral, states
from .grids import GridSpec
from .modvar import H_PLANCK, ModularScale, squeezing_s1, squeezing_s2

TABLE1_RANKS = (1, 2, 3, 4, 10, 100)


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as a CliError, so it is one line, not a usage block.

    Subparsers are built with the parser's own class, so they inherit this."""

    def error(self, message):
        raise CliError(message)


def _csv_columns(header, *columns) -> str:
    """CSV text of a header row and whole columns of Python floats, each written as its repr.

    A float's repr needs no quoting, so the rows are one %-format per row: the
    bytes csv.writer would write, in about two thirds of its time.
    """
    buf = io.StringIO()
    csv.writer(buf).writerow(header)
    row = ",".join(["%r"] * len(columns)) + "\r\n"
    buf.write("".join(map(row.__mod__, zip(*columns))))
    return buf.getvalue()


def _write_output(text: str, output: str | None):
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands


def cmd_table1(args) -> str:
    rows = [(n, squeezing_s1(n), squeezing_s2(n)) for n in TABLE1_RANKS]
    if args.format == "json":
        return json.dumps(
            [{"N": n, "S1": round(s1, 2), "S2": round(s2, 2)} for n, s1, s2 in rows]
        ) + "\n"
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["N", "S1", "S2"])
    for n, s1, s2 in rows:
        w.writerow([n, f"{s1:.2f}", f"{s2:.2f}"])
    return buf.getvalue()


def cmd_constant(args) -> str:
    out = {}
    if args.method in ("kummer", "all"):
        rep = spectral.solve_c()
        out["kummer"] = {
            "c": rep.c,
            "spectrum_head": rep.mu_spectrum_head,
            "residual": rep.residual,
        }
    if args.method in ("perturbative", "all"):
        out["perturbative"] = {"c": spectral.perturbative_c()}
    if args.method in ("brute", "all"):
        rep = spectral.brute_force_c(
            periods=args.periods, points_per_period=args.points_per_period
        )
        out["brute"] = {
            "c": rep.c,
            "spectrum_head": rep.mu_spectrum_head,
            "residual": rep.residual,
        }
    return json.dumps(out, sort_keys=True, indent=2) + "\n"


def _state_descriptor(args) -> dict:
    # without --sigma the default width is built from --L or --lam, so they are checked first
    if args.state == "multislit":
        if not 0 < args.L < math.inf:
            raise CliError(f"--L: the slit separation must be positive and finite, got {args.L}")
    elif not 0 < args.lam < math.inf:
        raise CliError(f"--lam: the fringe period lambda must be positive and finite, got {args.lam}")
    d = {"kind": args.state, "N": args.N}
    if args.sigma is not None:
        d["envelope"] = {"kind": "gaussian", "sigma_x": args.sigma}
    if args.state == "multislit":
        d["L"] = args.L
    else:
        d.update({"x0": args.x0, "N0": args.N0, "lambda": args.lam})
    if args.state == "admixture":
        d["epsilon"] = args.epsilon
    return d


def _check_window(top: float, period: float, what: str):
    """Refuse a profile whose largest |coordinate| top the float grid cannot resolve.

    The rule estimate_criterion applies to records: sampling.resolves_period.
    """
    if not sampling.resolves_period(top, period):
        raise CliError(
            f"the profile window reaches |{what}| = {top:.3g}, where the float spacing "
            f"exceeds {sampling.RECORD_RESOLUTION:.3g} of the period {period:.3g}; "
            + ("narrow --periods" if what == "p" else "narrow --periods or bring --x0 nearer 0")
        )


def cmd_fringes(args) -> str:
    if not 2 <= args.grid_points <= states.MAX_GRID_POINTS:
        raise CliError(f"--grid-points must lie in [2, {states.MAX_GRID_POINTS}], got {args.grid_points}")
    if not 0 < args.periods < math.inf:
        raise CliError(f"--periods must be positive and finite, got {args.periods}")
    desc = _state_descriptor(args)
    state = states.state_from_descriptor(desc)
    half = args.periods / 2
    if isinstance(state, states.SuperposedState):
        if args.state == "multislit":
            # momentum-space fringe profile, period h/L
            per = H_PLANCK / args.L
            _check_window(half * per, per, "p")
            p = np.linspace(-half * per, half * per, args.grid_points)
            dens = states.momentum_density(state, p)
            header, axis = ["p [hbar=1]", "density"], p
        else:
            lo, hi = args.x0 - half * args.lam, args.x0 + half * args.lam
            _check_window(max(-lo, hi), args.lam, "x")
            x = np.linspace(lo, hi, args.grid_points)
            dens = states.position_density(state, x)
            header, axis = ["x [length]", "density"], x
    else:
        # relative-coordinate cut through the joint density at the envelope centers
        reach = half * args.lam
        _check_window(max(reach, abs(args.x0) + reach / 2), args.lam, "x")
        r = np.linspace(-reach, reach, args.grid_points)
        dens = states.joint_position_density(state, args.x0 + r / 2, -args.x0 - r / 2)
        header, axis = ["x1_minus_x2_offset [length]", "joint_density"], r
    return _csv_columns(header, axis.tolist(), dens.tolist())


def _two_particle_state(args):
    state = states.state_from_descriptor(_state_descriptor(args))
    if isinstance(state, states.SuperposedState):
        raise CliError(f"{args.command} expects a two-particle state, not --state {args.state}")
    return state


def cmd_criterion(args) -> str:
    state = _two_particle_state(args)
    scale = ModularScale(args.lam)
    report = crit.evaluate_criterion(state, scale, axis=args.axis)
    return report.to_json() + "\n"


def cmd_robustness(args) -> str:
    closed = crit.robustness_threshold(args.N, method="closed_form")
    out = {"N": args.N, "epsilon_star_closed_form": closed}
    if args.bisection:
        out["epsilon_star_bisection"] = crit.robustness_threshold(args.N, method="bisection")
    out["visibility_at_threshold"] = crit.visibility_of_admixture(closed, args.N)
    return json.dumps(out, sort_keys=True, indent=2) + "\n"


def cmd_sample(args) -> str:
    # the momentum records use seed + 1, so both seeds must fit in 64 bits
    if not 0 <= args.seed < (1 << 64) - 1:
        raise CliError(f"--seed must lie in [0, 2**64 - 1), got {args.seed}")
    state = _two_particle_state(args)
    scale = ModularScale(args.lam)
    pos = sampling.sample_measurements(state, "position", args.n, args.seed)
    mom = sampling.sample_measurements(state, "momentum", args.n, args.seed + 1)
    report = sampling.estimate_criterion(pos, mom, scale)
    return report.to_json() + "\n"


def cmd_propagate(args) -> str:
    # past the largest grid the package builds, refused before any array is allocated
    if args.grid_points > states.MAX_GRID_POINTS:
        raise CliError(f"--grid-points must be at most {states.MAX_GRID_POINTS}, got {args.grid_points}")
    desc = _state_descriptor(args)
    state = states.state_from_descriptor(desc)
    if not isinstance(state, states.SuperposedState):
        raise CliError("propagate expects a single-particle state")
    spec = GridSpec(points=args.grid_points, xmin=args.xmin, xmax=args.xmax)
    gs = states.discretize(state, spec)
    params = dynamics.PropagationParams(mass=args.mass, time=args.time)
    moved = dynamics.free_propagate(gs, params)
    psi = moved.psi.tolist()
    # abs(z) ** 2 of each Python complex: np.abs(psi) ** 2 differs from it in the last ulp
    return _csv_columns(
        ["x [length]", "re", "im", "density"],
        moved.spec.x.tolist(),
        [z.real for z in psi],
        [z.imag for z in psi],
        [abs(z) ** 2 for z in psi],
    )


def cmd_protocol(args) -> str:
    if args.steps < 1:
        raise CliError(f"--steps must be >= 1, got {args.steps}")
    env = states.GaussianEnvelope(sigma_x=args.sigma)
    staggers = np.linspace(0.0, args.max_stagger, args.steps).tolist()
    visibilities = []
    for s in staggers:
        spec = dynamics.ProtocolSpec(
            N=args.N,
            emission_times=tuple(n * s for n in range(args.N)),
            lam=args.lam,
            envelope=env,
            mass=args.mass,
        )
        visibilities.append(float(dynamics.protocol_visibility(spec, args.meeting_time)))
    return _csv_columns(["stagger [time]", "visibility"], staggers, visibilities)


# ---------------------------------------------------------------------------
# argument plumbing


def _add_state_options(p, two_particle_default="mpe"):
    p.add_argument("--state", default=two_particle_default,
                   choices=["multislit", "smp", "mpe", "classical", "admixture"])
    p.add_argument("--N", type=int, default=2)
    p.add_argument("--L", type=float, default=1.0, help="slit separation (multislit)")
    p.add_argument("--lam", type=float, default=1.0, help="fringe period lambda")
    p.add_argument("--sigma", type=float, default=None,
                   help="gaussian envelope width (default: 8*lam, or 0.1*L for multislit)")
    p.add_argument("--x0", type=float, default=0.0)
    p.add_argument("--N0", type=int, default=1)
    p.add_argument("--epsilon", type=float, default=0.0, help="classical admixture fraction")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="modint",
        description="Modular-variable interference and entanglement toolkit (hbar = 1)",
    )
    ap.add_argument("--config", help="key=value config file; flags override it")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table1", help="squeezing functions S1, S2 at the reference ranks")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("constant", help="criterion constant c")
    p.add_argument("--method", choices=["kummer", "brute", "perturbative", "all"], default="all")
    p.add_argument("--periods", type=int, default=32)
    p.add_argument("--points-per-period", type=int, default=128)
    p.set_defaults(func=cmd_constant)

    p = sub.add_parser("fringes", help="density profile CSV for a state")
    _add_state_options(p)
    p.add_argument("--grid-points", type=int, default=1024)
    p.add_argument("--periods", type=float, default=4.0, help="profile window in fringe periods")
    p.set_defaults(func=cmd_fringes)

    p = sub.add_parser("criterion", help="separability criterion report")
    _add_state_options(p)
    p.add_argument("--axis", choices=["momentum", "position"], default="momentum")
    p.set_defaults(func=cmd_criterion)

    p = sub.add_parser("robustness", help="classical-admixture threshold")
    p.add_argument("--N", type=int, default=2)
    p.add_argument("--bisection", action="store_true", help="also run the mixture bisection")
    p.set_defaults(func=cmd_robustness)

    p = sub.add_parser("sample", help="Monte Carlo measurement simulation + estimate")
    _add_state_options(p)
    p.add_argument("--n", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("propagate", help="free propagation of a single-particle state")
    _add_state_options(p, two_particle_default="multislit")
    p.add_argument("--mass", type=float, default=1.0)
    p.add_argument("--time", type=float, default=1.0)
    p.add_argument("--grid-points", type=int, default=16384)
    p.add_argument("--xmin", type=float, default=-128.0)
    p.add_argument("--xmax", type=float, default=128.0)
    p.set_defaults(func=cmd_propagate)

    p = sub.add_parser("protocol", help="staggered-emission visibility sweep CSV")
    p.add_argument("--N", type=int, default=2)
    p.add_argument("--lam", type=float, default=1.0)
    p.add_argument("--sigma", type=float, default=8.0)
    p.add_argument("--mass", type=float, default=1.0)
    p.add_argument("--meeting-time", type=float, default=60.0)
    p.add_argument("--max-stagger", type=float, default=40.0)
    p.add_argument("--steps", type=int, default=9)
    p.set_defaults(func=cmd_protocol)

    for sp in sub.choices.values():
        sp.add_argument("--output", help="write output to a file instead of stdout")
    ap.set_defaults(_subcommands=sub.choices)
    return ap


def _apply_config(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """Prepend config-file key=value pairs as flags (explicit flags win)."""
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    try:
        path = argv[i + 1]
    except IndexError:
        raise CliError("--config requires a file path") from None
    rest = argv[:i] + argv[i + 2 :]
    if not rest:
        raise CliError("config file requires a subcommand on the command line")
    subcommands = parser.get_default("_subcommands")
    subparser = subcommands.get(rest[0])
    if subparser is None:
        raise CliError(f"unknown subcommand {rest[0]!r}")
    known = {s: a for a in subparser._actions for s in a.option_strings}
    extra = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise CliError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = (s.strip() for s in line.split("=", 1))
            flag = f"--{key.replace('_', '-')}"
            action = known.get(flag)
            if action is None:
                raise CliError(f"{path}:{lineno}: unknown config key {key!r}")
            if action.nargs == 0:  # boolean switch
                if value.lower() in ("1", "true", "yes", "on"):
                    extra.append(flag)
                elif value.lower() not in ("0", "false", "no", "off"):
                    raise CliError(f"{path}:{lineno}: expected a boolean for {key!r}")
            else:
                extra += [flag, value]
    # config keys go right after the subcommand so later explicit flags override
    return [rest[0]] + extra + rest[1:]


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv = _apply_config(parser, argv)
        args = parser.parse_args(argv)
        text = args.func(args)
        _write_output(text, args.output)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
