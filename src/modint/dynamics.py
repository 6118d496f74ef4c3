"""Free propagation, far-field momentum mapping, and the staggered-emission
visibility study for dissociation-style pair generation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import GridSpec, GridState, TwoParticleGridState
from .modvar import H_PLANCK
from .states import Envelope, GaussianEnvelope
from .modvar import fringe_function


@dataclass(frozen=True)
class PropagationParams:
    mass: float
    time: float
    hbar: float = 1.0

    def __post_init__(self):
        if not self.mass > 0:
            raise ValueError("mass must be positive")
        if self.time < 0:
            raise ValueError("time must be nonnegative")


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
    # p is a wavenumber: the fastest packet travels hbar * pmax / m per unit time
    shift = pmax / params.mass * params.time * params.hbar
    if np.any((hi + shift > spec.xmax) | (lo - shift < spec.xmin)):
        raise ValueError(
            "aliasing check failed: propagated state would wrap around the periodic box"
        )
    phase = np.exp(-1j * params.hbar * spec.p**2 * params.time / (2 * params.mass))
    return np.fft.ifft(phase * ft, axis=1)


def free_propagate(state, params: PropagationParams):
    """Exact free evolution by the quadratic momentum-space phase."""
    if isinstance(state, GridState):
        return GridState(state.spec, _propagate_rows(state.spec, state.psi[None], params)[0])
    if isinstance(state, TwoParticleGridState):
        a1 = _propagate_rows(state.spec1, state.a1, params)
        a2 = _propagate_rows(state.spec2, state.a2, params)
        return TwoParticleGridState(state.spec1, state.spec2, state.coefs, a1, a2)
    raise TypeError(f"cannot propagate {type(state).__name__}")


def far_field_map(x, mean_x: float, params: PropagationParams):
    """Identify late-time position with initial momentum: p = m (x - <x>) / t."""
    if params.time <= 0:
        raise ValueError("far-field map requires t > 0")
    return params.mass * (np.asarray(x, dtype=float) - mean_x) / (params.time * params.hbar)


def far_field_momentum_density(state: GridState, params: PropagationParams):
    """Push the position density through the far-field map: (p_values, density)."""
    dens = state.position_density()
    w = dens / (np.sum(dens) * state.spec.dx)
    mean_x = float(np.sum(state.spec.x * w) * state.spec.dx)
    p = far_field_map(state.spec.x, mean_x, params)
    jac = params.time * params.hbar / params.mass
    return p, dens * jac


# ---------------------------------------------------------------------------
# fringe visibility


def fit_fringe_visibility(r, density, N: int, lam: float, phase: float = 0.0) -> float:
    """Visibility from a least-squares fit of a*F_N((r - phase)/lam) + b.

    More robust against envelope curvature than a raw max/min read-off.
    Returns a*N / (a*N + 2*b), the contrast of the fitted pattern, in [0, 1].
    """
    r = np.asarray(r, dtype=float)
    density = np.asarray(density, dtype=float)
    basis = np.column_stack([fringe_function(N, (r - phase) / lam), np.ones_like(r)])
    (a, b), *_ = np.linalg.lstsq(basis, density, rcond=None)
    if a <= 0:
        return 0.0
    b = max(b, 0.0)
    return float(min(1.0, a * N / (a * N + 2 * b)))


# ---------------------------------------------------------------------------
# staggered-emission protocol


@dataclass(frozen=True)
class ProtocolSpec:
    """Pair-emission protocol: component n dissociates at emission_times[n]."""

    N: int
    emission_times: tuple
    lam: float
    envelope: Envelope
    mass: float
    base_integer: int = 1
    hbar: float = 1.0

    def __post_init__(self):
        times = tuple(float(t) for t in self.emission_times)
        object.__setattr__(self, "emission_times", times)
        if self.N < 2:
            raise ValueError("the protocol requires N >= 2 (a single component has no fringes)")
        if len(times) != self.N:
            raise ValueError("emission_times length must equal N")
        if any(t2 < t1 for t1, t2 in zip(times, times[1:])):
            raise ValueError("emission times must be non-decreasing")
        if not self.lam > 0 or not self.mass > 0:
            raise ValueError("lam and mass must be positive")
        if not isinstance(self.envelope, GaussianEnvelope):
            raise TypeError("the dispersion model requires a gaussian envelope")

    def to_json_dict(self) -> dict:
        return {
            "N": self.N,
            "emission_times": list(self.emission_times),
            "lambda": self.lam,
            "envelope": self.envelope.descriptor(),
            "mass": self.mass,
            "base_integer": self.base_integer,
            "hbar": self.hbar,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "ProtocolSpec":
        from .states import envelope_from_descriptor

        return cls(
            N=int(d["N"]),
            emission_times=tuple(d["emission_times"]),
            lam=float(d["lambda"]),
            envelope=envelope_from_descriptor(d["envelope"]),
            mass=float(d["mass"]),
            base_integer=int(d.get("base_integer", 1)),
            hbar=float(d.get("hbar", 1.0)),
        )


def protocol_visibility(spec: ProtocolSpec, meeting_time: float) -> float:
    """Relative-coordinate fringe visibility of the assembled pair state.

    Each component n has dispersed for meeting_time - emission_times[n]; all
    components are arranged to meet at the origin on both sides at the meeting
    time, so only their dispersion stages differ.  Phases are referenced to the
    meeting point: the constant kinetic offsets p0^2 dwell / 2m are dropped.

    Component n is exp(i p_n x1 - i p_n x2) g_n(x1) g_n(x2), with the freely
    evolved gaussian g_n(x) ∝ exp(-x^2 / (4 sigma^2 s_n)), s_n = 1 + i hbar
    dwell_n / (2 m sigma^2).  In rho_rel(r) = sum_mn int A_m conj(A_n)(x)
    B_m conj(B_n)(x - r) dx the plane waves cancel in x, leaving a gaussian
    integral: rho_rel(r) = Re sum_mn exp(i (p_m - p_n) r) C_mn exp(-beta_mn r^2 / 2).
    """
    if meeting_time <= spec.emission_times[-1]:
        raise ValueError("meeting_time must lie after the last emission")
    sigma = spec.envelope.sigma_x
    per = H_PLANCK / spec.lam
    dwells = meeting_time - np.asarray(spec.emission_times)
    momenta = (spec.base_integer + np.arange(spec.N)) * per
    s = 1.0 + 1j * spec.hbar * dwells / (2 * spec.mass * sigma**2)

    # beta_mn = (1/s_m + 1/conj(s_n)) / (4 sigma^2) has Re > 0, so the
    # principal root is the gaussian integral's
    beta = (1 / s[:, None] + 1 / s.conj()[None, :]) / (4 * sigma**2)
    coef = np.sqrt(np.pi / (2 * beta)) / (2 * np.pi * sigma**2 * s[:, None] * s.conj()[None, :])
    dp = momenta[:, None] - momenta[None, :]

    r = np.linspace(-1.5 * spec.lam, 1.5 * spec.lam, 601)
    rr = r[:, None, None]
    terms = coef * np.exp(1j * dp * rr - beta * rr**2 / 2)
    rho = terms.sum(axis=(1, 2)).real
    env = np.einsum("rnn->r", terms).real
    # divide out the incoherent envelope so identical component shapes yield
    # the ideal fringe profile exactly
    pattern = spec.N * rho / env
    return fit_fringe_visibility(r, pattern, spec.N, spec.lam)
