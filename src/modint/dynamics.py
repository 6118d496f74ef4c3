"""Free propagation, far-field momentum mapping, and the staggered-emission
visibility study for dissociation-style pair generation."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import GridSpec, GridState, TwoParticleGridState
from .modvar import H_PLANCK
from .states import MAX_GRAM_ENTRIES, Envelope, GaussianEnvelope, _check_gram_entries
from .modvar import fringe_function


@dataclass(frozen=True)
class PropagationParams:
    mass: float
    time: float

    def __post_init__(self):
        if not 0 < self.mass < math.inf:
            raise ValueError(f"mass must be positive and finite, got {self.mass}")
        if not 0 <= self.time < math.inf:
            raise ValueError(f"time must be nonnegative and finite, got {self.time}")


SUPPORT_TAIL = 1e-9  # weight a row may leave outside its momentum and position supports


def _weights(amps: np.ndarray) -> np.ndarray:
    w = np.abs(amps) ** 2
    return w / w.sum(axis=1, keepdims=True)


def _propagate_rows(spec: GridSpec, rows: np.ndarray, params: PropagationParams) -> np.ndarray:
    """Free evolution of each row of a (K, n) stack by one batched FFT, checked row by row."""
    ft = np.fft.fft(rows, axis=1)
    last = spec.points - 1
    order = np.argsort(np.abs(spec.p))
    cum = np.cumsum(_weights(ft)[:, order], axis=1)
    pmax = np.abs(spec.p[order[np.minimum(np.sum(cum < 1 - SUPPORT_TAIL, axis=1), last)]])
    if np.any(4 * pmax * spec.dx >= H_PLANCK):
        raise ValueError(
            f"aliasing check failed: grid spacing {spec.dx} does not resolve momenta "
            f"up to {pmax.max()}"
        )
    cum = np.cumsum(_weights(rows), axis=1)
    lo = spec.x[np.sum(cum < SUPPORT_TAIL / 2, axis=1)]
    hi = spec.x[np.minimum(np.sum(cum < 1 - SUPPORT_TAIL / 2, axis=1), last)]
    # p is a wavenumber (hbar = 1): the fastest packet travels pmax / m per unit time
    shift = pmax / params.mass * params.time
    if np.any((hi + shift > spec.xmax) | (lo - shift < spec.xmin)):
        raise ValueError(
            "aliasing check failed: propagated state would wrap around the periodic box"
        )
    phase = np.exp(-1j * spec.p**2 * params.time / (2 * params.mass))
    return np.fft.ifft(phase * ft, axis=1)


def free_propagate(state, params: PropagationParams):
    """Exact free evolution by the quadratic momentum-space phase."""
    if isinstance(state, GridState):
        return GridState(state.spec, _propagate_rows(state.spec, state.psi[None], params)[0])
    if isinstance(state, TwoParticleGridState):
        a1 = _propagate_rows(state.spec, state.a1, params)
        a2 = _propagate_rows(state.spec, state.a2, params)
        return TwoParticleGridState(state.spec, state.coefs, a1, a2)
    raise TypeError(f"cannot propagate {type(state).__name__}")


def far_field_map(x, mean_x: float, params: PropagationParams):
    """Identify late-time position with initial momentum: p = m (x - <x>) / t."""
    if params.time <= 0:
        raise ValueError("far-field map requires t > 0")
    return params.mass * (np.asarray(x, dtype=float) - mean_x) / params.time


def far_field_momentum_density(state: GridState, params: PropagationParams):
    """Push the position density through the far-field map: (p_values, density)."""
    dens = state.position_density()
    w = dens / (np.sum(dens) * state.spec.dx)
    mean_x = float(np.sum(state.spec.x * w) * state.spec.dx)
    p = far_field_map(state.spec.x, mean_x, params)
    jac = params.time / params.mass
    return p, dens * jac


# ---------------------------------------------------------------------------
# fringe visibility


def fit_fringe_visibility(r, density, N: int, lam: float) -> float:
    """Visibility from a least-squares fit of a*F_N(r/lam) + b.

    More robust against envelope curvature than a raw max/min read-off.
    Returns a*N / (a*N + 2*b), the contrast of the fitted pattern, in [0, 1].
    """
    r = np.asarray(r, dtype=float)
    density = np.asarray(density, dtype=float)
    basis = np.column_stack([fringe_function(N, r / lam), np.ones_like(r)])
    (a, b), *_ = np.linalg.lstsq(basis, density, rcond=None)
    if a <= 0:
        return 0.0
    b = max(b, 0.0)
    return float(min(1.0, a * N / (a * N + 2 * b)))


# ---------------------------------------------------------------------------
# staggered-emission protocol


@dataclass(frozen=True)
class ProtocolSpec:
    """Pair-emission protocol: component n dissociates at emission_times[n].

    Only mass / hbar enters the dispersion, so `mass` is in units with hbar = 1.
    """

    N: int
    emission_times: tuple
    lam: float
    envelope: Envelope
    mass: float

    def __post_init__(self):
        times = tuple(float(t) for t in self.emission_times)
        object.__setattr__(self, "emission_times", times)
        if self.N < 2:
            raise ValueError("the protocol requires N >= 2 (a single component has no fringes)")
        if len(times) != self.N:
            raise ValueError("emission_times length must equal N")
        if not all(map(math.isfinite, times)):
            raise ValueError(f"emission times must be finite, got {times}")
        if any(t2 < t1 for t1, t2 in zip(times, times[1:])):
            raise ValueError("emission times must be non-decreasing")
        if not self.lam > 0 or not self.mass > 0:
            raise ValueError("lam and mass must be positive")
        if not isinstance(self.envelope, GaussianEnvelope):
            raise TypeError("the dispersion model requires a gaussian envelope")
        # protocol_visibility holds N x N pair integrals of the components' packets
        _check_gram_entries(self.envelope, self.N)


def protocol_visibility(spec: ProtocolSpec, meeting_time: float) -> float:
    """Relative-coordinate fringe visibility of the assembled pair state.

    Each component n has dispersed for meeting_time - emission_times[n]; all
    components are arranged to meet at the origin on both sides at the meeting
    time, so only their dispersion stages differ.  Phases are referenced to the
    meeting point: the constant kinetic offsets p0^2 dwell / 2m are dropped.

    Component n is exp(i p_n x1 - i p_n x2) g_n(x1) g_n(x2), with the freely
    evolved gaussian g_n(x) ∝ exp(-x^2 / (4 sigma^2 s_n)), s_n = 1 + i
    dwell_n / (2 m sigma^2).  In rho_rel(r) = sum_mn int A_m conj(A_n)(x)
    B_m conj(B_n)(x - r) dx the plane waves cancel in x, leaving a gaussian
    integral: rho_rel(r) = Re sum_mn exp(i (p_m - p_n) r) C_mn exp(-beta_mn r^2 / 2).
    """
    if not spec.emission_times[-1] < meeting_time < math.inf:
        raise ValueError(
            f"meeting_time must be finite and lie after the last emission, got {meeting_time}"
        )
    sigma = spec.envelope.sigma_x
    per = H_PLANCK / spec.lam
    dwells = meeting_time - np.asarray(spec.emission_times)
    # only the differences p_m - p_n enter, so the comb's base integer is 1
    momenta = (1 + np.arange(spec.N)) * per
    s = 1.0 + 1j * dwells / (2 * spec.mass * sigma**2)

    # beta_mn = (1/s_m + 1/conj(s_n)) / (4 sigma^2) has Re > 0, so the
    # principal root is the gaussian integral's
    # extreme widths over- or underflow this algebra; refuse them, not a fit to NaN
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        beta = (1 / s[:, None] + 1 / s.conj()[None, :]) / (4 * sigma**2)
        coef = np.sqrt(np.pi / (2 * beta)) / (2 * np.pi * sigma**2 * s[:, None] * s.conj()[None, :])
        dp = momenta[:, None] - momenta[None, :]
        finite = np.isfinite(beta).all() and np.isfinite(coef).all()

        r = np.linspace(-1.5 * spec.lam, 1.5 * spec.lam, 601)
        rho, env = np.empty(r.size), np.empty(r.size)
        # blocks of r hold at most MAX_GRAM_ENTRIES terms; through N = 83 one block takes all r
        step = max(1, MAX_GRAM_ENTRIES // spec.N**2)
        for lo in range(0, r.size, step):
            rr = r[lo : lo + step, None, None]
            terms = coef * np.exp(1j * dp * rr - beta * rr**2 / 2)
            finite = finite and np.isfinite(terms).all()
            rho[lo : lo + step] = terms.sum(axis=(1, 2)).real
            env[lo : lo + step] = np.einsum("rnn->r", terms).real
    if not finite:
        raise ValueError(
            f"the fringe algebra is not finite at sigma_x = {sigma:g}, lambda = {spec.lam:g}: "
            "beta, the coefficients or the terms over- or underflow"
        )
    # divide out the incoherent envelope so identical component shapes yield
    # the ideal fringe profile exactly
    pattern = spec.N * rho / env
    return fit_fringe_visibility(r, pattern, spec.N, spec.lam)
