"""Grid carriers and modular-variable operator machinery.

Single-particle states are complex amplitudes on a uniform periodic grid;
two-particle states are kept as sums of product terms so that variances
reduce to single-particle matrix elements.  Momentum-side observables are
exact lattice functions whenever the box length is an integer multiple of
the modular scale ell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .modvar import TWO_PI, ModularScale, integer_part, modular_part

DENSE_CAP = 2**11  # per-axis cap when materializing full 2-D arrays
GRAM_BLOCK = 4096  # grid columns per block in gram()

_POSITION_OBS = {"x", "xbar", "N_x"}
_MOMENTUM_OBS = {"p", "pbar", "N_p"}
_TWOPARTICLE_OBS = {"xbar_rel", "pbar_rel", "N_p_tot", "N_x_tot"}


class IncommensurateGridError(ValueError):
    """Box length is not an integer multiple of the modular scale."""


@dataclass(frozen=True)
class GridSpec:
    points: int
    xmin: float
    xmax: float

    def __post_init__(self):
        if self.points < 16 or self.points & (self.points - 1):
            raise ValueError(f"points must be a power of two >= 16, got {self.points}")
        if not self.xmax > self.xmin:
            raise ValueError("xmax must exceed xmin")

    @property
    def length(self) -> float:
        return self.xmax - self.xmin

    @property
    def dx(self) -> float:
        return self.length / self.points

    @property
    def x(self) -> np.ndarray:
        return self.xmin + self.dx * np.arange(self.points)

    @property
    def p(self) -> np.ndarray:
        """Momentum lattice of the periodic box (hbar = 1)."""
        return TWO_PI * np.fft.fftfreq(self.points, d=self.dx)

    def check_commensurate(self, scale: ModularScale) -> int:
        ratio = self.length / scale.ell
        if abs(ratio - round(ratio)) > 1e-9 * max(1.0, ratio):
            raise IncommensurateGridError(
                f"box length {self.length} is not an integer multiple of ell={scale.ell}"
            )
        return int(round(ratio))


def _normalized(psi: np.ndarray, dx: float) -> np.ndarray:
    nrm = math.sqrt(float(np.sum(np.abs(psi) ** 2)) * dx)
    if nrm == 0:
        raise ValueError("cannot normalize a zero state")
    return psi / nrm


@dataclass
class GridState:
    """Normalized single-particle amplitudes on a periodic grid."""

    spec: GridSpec
    psi: np.ndarray

    def __post_init__(self):
        self.psi = np.asarray(self.psi, dtype=complex)
        if self.psi.shape != (self.spec.points,):
            raise ValueError("amplitude array does not match the grid spec")
        self.psi = _normalized(self.psi, self.spec.dx)

    @property
    def norm(self) -> float:
        return float(np.sum(np.abs(self.psi) ** 2)) * self.spec.dx

    def position_density(self) -> np.ndarray:
        return np.abs(self.psi) ** 2

    def momentum_density(self) -> np.ndarray:
        """Density on spec.p, normalized to unit sum times dp."""
        ft = np.fft.fft(self.psi)
        w = np.abs(ft) ** 2
        dp = TWO_PI / self.spec.length
        return w / (np.sum(w) * dp)


def gram(A: np.ndarray, B: np.ndarray, dx: float, weight: np.ndarray | None = None) -> np.ndarray:
    """Matrix of <a_i|w|b_j> dx over the rows of A (K, n) and B (L, n).

    A stack of weights (W, n) gives the (W, K, L) matrices of all of them from
    one sweep. Summed over blocks of GRAM_BLOCK grid columns, each conjugated
    once, so the temporaries stay K x GRAM_BLOCK however long the grid is.
    """
    weights = [None] if weight is None else np.atleast_2d(weight)
    out = np.zeros((len(weights), A.shape[0], B.shape[0]), dtype=complex)
    for s in range(0, A.shape[1], GRAM_BLOCK):
        a, b = A[:, s : s + GRAM_BLOCK].conj(), B[:, s : s + GRAM_BLOCK].T
        for acc, w in zip(out, weights):
            acc += (a if w is None else a * w[s : s + GRAM_BLOCK]) @ b
    out *= dx
    return out if np.ndim(weight) == 2 else out[0]


@dataclass
class TwoParticleGridState:
    """Sum of product terms coefs[k] * a1[k](x1) a2[k](x2), globally normalized.

    The terms are one (K, n) array per particle.  Each particle's identity
    Gram <a_i|a_j> dx is computed once, here, and reused by the norm, the
    marginals and the observable statistics.
    """

    spec1: GridSpec
    spec2: GridSpec
    coefs: np.ndarray  # (K,)
    a1: np.ndarray  # (K, spec1.points)
    a2: np.ndarray  # (K, spec2.points)

    def __post_init__(self):
        self.coefs = np.asarray(self.coefs, dtype=complex)
        self.a1 = np.asarray(self.a1, dtype=complex)
        self.a2 = np.asarray(self.a2, dtype=complex)
        k = self.coefs.size
        if k == 0:
            raise ValueError("two-particle grid state needs at least one term")
        if (
            self.coefs.shape != (k,)
            or self.a1.shape != (k, self.spec1.points)
            or self.a2.shape != (k, self.spec2.points)
        ):
            raise ValueError("term arrays do not match the grid specs")
        self.g1 = gram(self.a1, self.a1, self.spec1.dx)
        self.g2 = gram(self.a2, self.a2, self.spec2.dx)
        self.input_norm = self.norm  # norm of the terms as given
        if not self.input_norm > 0:
            raise ValueError("product terms have zero norm on this grid")
        self.coefs = self.coefs / math.sqrt(self.input_norm)

    @property
    def n_terms(self) -> int:
        return self.coefs.size

    @property
    def terms(self):
        """(coef, a1_k, a2_k) per product term."""
        return list(zip(self.coefs, self.a1, self.a2))

    @property
    def norm(self) -> float:
        return float(np.real(np.conj(self.coefs) @ (self.g1 * self.g2) @ self.coefs))

    def dense(self) -> np.ndarray:
        """Materialize the full 2-D amplitude array (capped)."""
        if self.spec1.points > DENSE_CAP or self.spec2.points > DENSE_CAP:
            raise ValueError(
                f"dense export capped at {DENSE_CAP} points per axis; "
                "use the structured term representation instead"
            )
        return self.a1.T @ (self.coefs[:, None] * self.a2)

    def joint_density(self) -> np.ndarray:
        return np.abs(self.dense()) ** 2

    def marginal_density(self, particle: int) -> np.ndarray:
        """Reduced position density of particle 1 or 2 (partner traced out)."""
        if particle not in (1, 2):
            raise ValueError("particle must be 1 or 2")
        keep, g = (self.a1, self.g2) if particle == 1 else (self.a2, self.g1)
        w = np.conj(self.coefs)[:, None] * self.coefs[None, :] * g
        return np.real(np.einsum("ax,ax->x", keep.conj(), w @ keep))


# ---------------------------------------------------------------------------
# observable machinery


def observable_values(spec: GridSpec, name: str, scale: ModularScale) -> tuple[str, np.ndarray]:
    """Diagonal values of a single-particle observable: (domain, values)."""
    if name == "x":
        return "position", spec.x
    if name == "xbar":
        return "position", modular_part(spec.x, scale.ell)
    if name == "N_x":
        return "position", integer_part(spec.x, scale.ell)
    if name == "p":
        return "momentum", spec.p
    if name == "pbar":
        return "momentum", modular_part(spec.p, scale.momentum_period)
    if name == "N_p":
        return "momentum", integer_part(spec.p, scale.momentum_period)
    raise ValueError(f"unknown single-particle observable {name!r}")


def _require_commensurate(spec: GridSpec, name: str, scale: ModularScale):
    if name in ("p", "pbar", "N_p"):
        spec.check_commensurate(scale)


def apply_modular_operator(state: GridState, name: str, scale: ModularScale) -> GridState:
    """Apply a (position- or momentum-diagonal) observable; result re-normalized."""
    psi = apply_observable_raw(state.spec, state.psi, name, scale)
    return GridState(state.spec, psi)


def apply_observable_raw(
    spec: GridSpec, psi: np.ndarray, name: str, scale: ModularScale
) -> np.ndarray:
    _require_commensurate(spec, name, scale)
    domain, vals = observable_values(spec, name, scale)
    if domain == "position":
        return vals * psi
    return np.fft.ifft(vals * np.fft.fft(psi))


def _single_stats(state: GridState, name: str, scale: ModularScale) -> tuple[float, float]:
    _require_commensurate(state.spec, name, scale)
    domain, vals = observable_values(state.spec, name, scale)
    if domain == "position":
        w = np.abs(state.psi) ** 2
    else:
        w = np.abs(np.fft.fft(state.psi)) ** 2
    w = w / np.sum(w)
    mean = float(np.sum(vals * w))
    var = float(np.sum((vals - mean) ** 2 * w))
    return mean, var


_REL_TOT = {
    "xbar_rel": ("xbar", -1.0),
    "pbar_rel": ("pbar", -1.0),
    "N_p_tot": ("N_p", +1.0),
    "N_x_tot": ("N_x", +1.0),
}


def _moments(spec: GridSpec, arrs: np.ndarray, domain: str, vals: np.ndarray):
    """(<a|O|b>, <a|O^2|b>) over the rows of arrs for O diagonal in domain with vals."""
    dx = spec.dx
    if domain == "momentum":
        # Parseval: <a|ifft(v fft b)> dx = <fft a|v|fft b> dx / n
        arrs = np.fft.fft(arrs, axis=1)
        dx /= spec.points
    return gram(arrs, arrs, dx, np.stack([vals, vals**2]))


def _pair_stats(state: TwoParticleGridState, name: str, scale: ModularScale) -> tuple[float, float]:
    base, sign = _REL_TOT[name]
    c = state.coefs
    cc = np.conj(c)[:, None] * c[None, :]
    domain, v1 = observable_values(state.spec1, base, scale)
    v2 = v1 if state.spec2 == state.spec1 else observable_values(state.spec2, base, scale)[1]
    o1, o1sq = _moments(state.spec1, state.a1, domain, v1)
    o2, o2sq = _moments(state.spec2, state.a2, domain, v2)
    i1, i2 = state.g1, state.g2

    def ev(e1, e2):
        return float(np.real(np.sum(cc * e1 * e2)))

    mean = ev(o1, i2) + sign * ev(i1, o2)
    second = ev(o1sq, i2) + ev(i1, o2sq) + 2.0 * sign * ev(o1, o2)
    return mean, second - mean**2


def observable_stats(state, name: str, scale: ModularScale) -> tuple[float, float]:
    """(mean, variance) of an observable in a grid state."""
    if isinstance(state, GridState):
        if name not in _POSITION_OBS | _MOMENTUM_OBS:
            raise ValueError(f"observable {name!r} undefined for single-particle states")
        return _single_stats(state, name, scale)
    if isinstance(state, TwoParticleGridState):
        if name not in _TWOPARTICLE_OBS:
            raise ValueError(f"observable {name!r} undefined for two-particle states")
        base, _ = _REL_TOT[name]
        _require_commensurate(state.spec1, base, scale)
        _require_commensurate(state.spec2, base, scale)
        return _pair_stats(state, name, scale)
    raise TypeError(f"unsupported state type {type(state).__name__}")


def observable_variance(state, name: str, scale: ModularScale) -> float:
    return observable_stats(state, name, scale)[1]


def mixture_stats(weights, component_stats) -> tuple[float, float]:
    """Law of total variance: Var = sum w_i Var_i + Var_w(mean_i)."""
    w = np.asarray(weights, dtype=float)
    w = w / w.sum()
    means = np.array([m for m, _ in component_stats])
    variances = np.array([v for _, v in component_stats])
    mean = float(np.sum(w * means))
    var = float(np.sum(w * variances) + np.sum(w * (means - mean) ** 2))
    return mean, var


_COMMUTATOR_PAIRS = {("xbar", "N_p"), ("N_x", "pbar")}


def commutator_expectation(state: GridState, pair: tuple[str, str], scale: ModularScale) -> complex:
    """<[A, B]> evaluated as <AB> - <BA> by applying the grid operators."""
    if tuple(pair) not in _COMMUTATOR_PAIRS:
        raise ValueError(f"unsupported commutator pair {pair!r}")
    a, b = pair
    spec, psi = state.spec, state.psi
    spec.check_commensurate(scale)
    ab = apply_observable_raw(spec, apply_observable_raw(spec, psi, b, scale), a, scale)
    ba = apply_observable_raw(spec, apply_observable_raw(spec, psi, a, scale), b, scale)
    return (np.vdot(psi, ab) - np.vdot(psi, ba)) * spec.dx
