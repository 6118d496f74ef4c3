"""Separability criterion: variance sum vs the additive uncertainty bound 2c."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .dynamics import fit_fringe_visibility
from .grids import _pair_stats, observable_stats
from .modvar import ModularScale, squeezing_s2
from .spectral import solve_c
from .states import (
    GaussianEnvelope,
    _check_gram_entries,
    admixture_state,
    default_grid,
    discretize,
    joint_position_density,
)

VERDICT_SLACK = 1e-9  # grid noise must not flip borderline verdicts
MARGINAL_BAND = 1e-6

_AXES = {
    "momentum": ("N_p_tot", "xbar_rel"),
    "position": ("N_x_tot", "pbar_rel"),
}


@dataclass
class CriterionReport:
    var_N_tot: float
    var_mod_rel: float
    lhs: float
    bound: float
    violated: bool
    marginal: bool
    axis: str
    c_value: float
    c_method: str
    grid_points: int  # the one grid that covers every component of the ensemble
    contained_mass: float  # smallest share of a component's mass on that grid

    def to_json(self) -> str:
        d = asdict(self)
        d["c"] = {"value": d.pop("c_value"), "method": d.pop("c_method")}
        return json.dumps(d, sort_keys=True)


def criterion_bound() -> float:
    """The separable floor 2c with the high-precision shooting value of c."""
    return 2.0 * solve_c().c


def _normalizer(scale: ModularScale, axis: str) -> float:
    # divides the modular variance so the criterion is dimensionless
    return scale.ell**2 if axis == "momentum" else scale.momentum_period**2


def _ensemble_stats(state, scale: ModularScale, axis: str, points_per_ell: int):
    """(var_N_tot, var_mod_rel, grid points, smallest contained mass) on the ensemble's grid."""
    if axis not in _AXES:
        raise ValueError(f"axis must be one of {sorted(_AXES)}, got {axis!r}")
    if not hasattr(state, "components"):
        raise TypeError(f"cannot evaluate the criterion on {type(state).__name__}")
    grid = default_grid(state, scale.ell, points_per_ell=points_per_ell)
    gs = discretize(state, grid)
    var_n, var_r = (observable_stats(gs, name, scale)[1] for name in _AXES[axis])
    return var_n, var_r, grid.points, gs.input_norm


def criterion_stats(state, scale: ModularScale, axis: str, points_per_ell: int = 256):
    """(var_N_tot, var_mod_rel) of an ensemble by the law of total variance.

    A pure pair state is the one-component ensemble of itself.
    """
    return _ensemble_stats(state, scale, axis, points_per_ell)[:2]


def evaluate_criterion(
    state, scale: ModularScale, axis: str = "momentum", points_per_ell: int = 256
) -> CriterionReport:
    """Variance-sum test: separable states satisfy lhs >= 2c."""
    var_n, var_r, grid_points, contained_mass = _ensemble_stats(state, scale, axis, points_per_ell)
    lhs = var_n + var_r / _normalizer(scale, axis)
    report = solve_c()
    bound = 2.0 * report.c
    return CriterionReport(
        var_N_tot=var_n,
        var_mod_rel=var_r,
        lhs=lhs,
        bound=bound,
        violated=lhs < bound - VERDICT_SLACK,
        marginal=abs(lhs - bound) < MARGINAL_BAND,
        axis=axis,
        c_value=report.c,
        c_method=report.method,
        grid_points=grid_points,
        contained_mass=contained_mass,
    )


# ---------------------------------------------------------------------------
# robustness against classically correlated admixtures


def robustness_threshold(N: int, method: str = "closed_form") -> float:
    """Largest classical admixture fraction that still violates the criterion.

    Closed form (ideal envelopes): eps* = (12 c - 1 + S2(N)) / S2(N).
    The bisection route evaluates the exact mixture on grids instead, at
    lambda = 1 with sigma_x = 6 lambda and 128 grid points per lambda, and
    returns the exact root of its lhs: every component's means vanish, so the
    law of total variance leaves the lhs linear in eps.
    """
    N = int(N)
    if N < 2:
        raise ValueError("robustness threshold requires N >= 2 (no violation to protect)")
    if method == "closed_form":
        c = solve_c().c
        s2 = squeezing_s2(N)
        eps = (12.0 * c - 1.0 + s2) / s2
        return float(min(max(eps, 0.0), 1.0))
    if method != "bisection":
        raise ValueError(f"unknown method {method!r}")

    scale = ModularScale(1.0)
    # the MPE component first, then the N classical ones, over the MPE's N packet pairs
    state = admixture_state(0.5, N, 1.0, GaussianEnvelope(sigma_x=6.0))
    gs = discretize(state, default_grid(state, scale.ell, points_per_ell=128))
    bound = criterion_bound()

    def lhs(eps: float) -> float:
        weights = [1.0 - eps] + [eps / N] * N
        var_n, var_r = (_pair_stats(gs, name, scale, weights)[1] for name in _AXES["momentum"])
        return var_n + var_r / scale.ell**2

    pure_lhs, classical_lhs = lhs(0.0), lhs(1.0)
    if pure_lhs >= bound:
        raise RuntimeError("pure state does not violate the criterion; nothing to bisect")
    if classical_lhs < bound:
        return 1.0
    eps = (bound - pure_lhs) / (classical_lhs - pure_lhs)
    miss = lhs(eps) - bound
    if abs(miss) > 1e-12:
        raise RuntimeError(f"the mixture lhs is not linear in eps: it misses 2c by {miss:.3g} at eps*")
    return eps


_VISIBILITY_ENVELOPE = GaussianEnvelope(sigma_x=50.0)


def check_visibility_rank(N: int):
    """Raise, before any O(N) work, where visibility_of_admixture would refuse rank N's comb."""
    _check_gram_entries(_VISIBILITY_ENVELOPE, int(N))


def visibility_of_admixture(epsilon: float, N: int) -> float:
    """Relative-coordinate fringe visibility of the admixed joint density.

    At lambda = 1 with sigma_x = 50 lambda, over one period of x1 - x2.
    """
    if not 0 <= epsilon <= 1:
        raise ValueError("epsilon must lie in [0, 1]")
    state = admixture_state(epsilon, int(N), lam=1.0, envelope=_VISIBILITY_ENVELOPE)
    delta = np.linspace(-0.5, 0.5, 801)
    dens = joint_position_density(state, delta / 2, -delta / 2)
    return fit_fringe_visibility(delta, dens, int(N), 1.0)
