"""State builders: position combs, momentum combs, entangled pair states.

All amplitudes are renormalized numerically after construction, so the
1/sqrt(N) prefactor of the ideal (orthogonal-component) construction is
corrected for packet overlaps automatically.
"""

from __future__ import annotations

import cmath
import csv
import functools
import math
import operator
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .grids import GRAM_BLOCK, FactoredRows, GridSpec, GridState, TwoParticleGridState, gram
from .modvar import TWO_PI, H_PLANCK, modular_part


# ---------------------------------------------------------------------------
# envelopes


class Envelope:
    """Normalized wave-packet shape: integral of |phi|^2 equals 1."""

    kind = "abstract"

    def __call__(self, x):
        raise NotImplementedError

    def fourier(self, p):
        """Momentum amplitude, convention (1/sqrt(2 pi)) integral phi e^{-ipx} dx."""
        raise NotImplementedError

    @property
    def width(self) -> float:
        """Characteristic position width, used for grid sizing and warnings."""
        raise NotImplementedError

    def descriptor(self) -> dict:
        raise NotImplementedError


EXP_ZERO = -746.0  # below ln(2**-1075) ~ -745.13 the exp of every double rounds to +0.0


def _exp_skipping_zeros(u: np.ndarray) -> np.ndarray:
    """np.exp(u), bitwise, without evaluating exp where u <= EXP_ZERO.

    numpy's exp leaves its vector loop for arguments whose result underflows,
    and those results are exactly +0.0, so they are written as zeros instead.
    NaN stays among the evaluated arguments and gives NaN; -inf gives 0.
    """
    if not (u.size and np.fmin.reduce(u, axis=None) <= EXP_ZERO):
        return np.exp(u)
    flat = u.ravel()
    live = np.flatnonzero(~(flat <= EXP_ZERO))
    out = np.zeros(u.shape)
    out.reshape(-1)[live] = np.exp(flat[live])
    return out


def _check_width(name: str, value: float):
    # the amplitudes divide by the square, which must neither underflow nor overflow
    if not (value > 0 and 0 < value * value < math.inf):
        raise ValueError(f"{name} must be positive and finite, and so must its square: {value}")


@dataclass(frozen=True)
class GaussianEnvelope(Envelope):
    sigma_x: float
    kind = "gaussian"

    def __post_init__(self):
        _check_width("sigma_x", self.sigma_x)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        u = -(x**2) / (4 * self.sigma_x**2)
        return (2 * math.pi * self.sigma_x**2) ** -0.25 * _exp_skipping_zeros(u)

    def fourier(self, p):
        p = np.asarray(p, dtype=float)
        u = -(self.sigma_x**2) * p**2
        return (2 * self.sigma_x**2 / math.pi) ** 0.25 * _exp_skipping_zeros(u)

    @property
    def width(self):
        return self.sigma_x

    def descriptor(self):
        return {"kind": "gaussian", "sigma_x": self.sigma_x}


@dataclass(frozen=True)
class SincEnvelope(Envelope):
    """phi(x) = sinc(pi x / d) / sqrt(d): a flat momentum slit of width h/d."""

    d: float
    kind = "sinc"

    def __post_init__(self):
        _check_width("d", self.d)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return np.sinc(x / self.d) / math.sqrt(self.d)

    def fourier(self, p):
        p = np.asarray(p, dtype=float)
        return np.where(np.abs(p) <= math.pi / self.d, math.sqrt(self.d / TWO_PI), 0.0)

    @property
    def width(self):
        return self.d

    def descriptor(self):
        return {"kind": "sinc", "d": self.d}


SPLINE_PAD = 32  # zero samples on each side of a table; the prefilter ends are exact to z**32
SPLINE_POLE = math.sqrt(3.0) - 2.0  # z, the pole of the cubic B-spline interpolation prefilter
SPLINE_GRAM = np.array([2416.0, 1191.0, 120.0, 1.0]) / 5040  # int beta3(t) beta3(t - j) dt, j < 4


class TabulatedEnvelope(Envelope):
    """Cubic B-spline through samples on a uniform lattice, with its exact Fourier transform.

    phi(x) = sum_k c_k beta3((x - x_k) / dx) over the lattice extended by
    SPLINE_PAD zero samples on each side; the coefficients c make phi pass
    through every sample, and the norm of phi is exact. The transform is
    dx / sqrt(2 pi) sinc^4(p dx / 2 pi) e^{-i p x_0} sum_k c_k e^{-i p k dx},
    which vanishes at every nonzero multiple of 2 pi / dx.
    """

    kind = "tabulated"

    def __init__(self, x, values):
        x = np.asarray(x, dtype=float)
        values = np.asarray(values, dtype=complex)
        if x.ndim != 1 or x.shape != values.shape or x.size < 8:
            raise ValueError("need matching 1-D sample arrays of length >= 8")
        dx = (x[-1] - x[0]) / (x.size - 1)
        if not (0 < dx < math.inf and np.allclose(np.diff(x), dx, rtol=1e-9, atol=0)):
            raise ValueError("sample abscissae must be uniformly spaced and increasing")
        z = SPLINE_POLE
        c = np.concatenate([np.zeros(SPLINE_PAD), 6.0 * values, np.zeros(SPLINE_PAD)]).tolist()
        for k in range(1, len(c)):  # causal pass, started at the zero pad
            c[k] += z * c[k - 1]
        c[-1] *= z / (z * z - 1)  # anticausal start for zeros continuing past the pad
        for k in range(len(c) - 2, -1, -1):
            c[k] = z * (c[k + 1] - c[k])
        c = np.array(c)
        lags = [np.vdot(c[: c.size - j], c[j:]).real for j in range(4)]
        nrm2 = dx * (SPLINE_GRAM[0] * lags[0] + 2 * np.dot(SPLINE_GRAM[1:], lags[1:]))
        if not 0 < nrm2 < math.inf:
            raise ValueError("samples must have a finite, nonzero norm")
        nrm = math.sqrt(nrm2)
        self._x = x
        self._v = values / nrm
        # four more zero coefficients on each side keep every tap of __call__ in range
        self._c = np.concatenate([np.zeros(4), c / nrm, np.zeros(4)])
        self._dx = dx
        self._x_first = x[0] - (SPLINE_PAD + 4) * dx  # the knot of _c[0]

    def __call__(self, x):
        # lattice coordinate; below 1 and above size - 3 every tap is a zero coefficient
        t = (np.asarray(x, dtype=float) - self._x_first) / self._dx
        t = np.clip(t, 1.0, self._c.size - 3.0)
        j = np.fmax(np.floor(t), 1.0)  # a NaN takes dead taps, and its weights stay NaN
        f = t - j
        f2, f3 = f * f, f * f * f
        i = j.astype(np.intp)
        c = self._c
        return (
            (1 - f) ** 3 * c[i - 1]
            + (4 - 6 * f2 + 3 * f3) * c[i]
            + (1 + 3 * f + 3 * f2 - 3 * f3) * c[i + 1]
            + f3 * c[i + 2]
        ) / 6

    def fourier(self, p):
        p = np.asarray(p, dtype=float)
        w = np.exp(-1j * self._dx * p)
        s = np.zeros(p.shape, dtype=complex)
        for ck in self._c[::-1]:  # Horner's rule in w
            s *= w
            s += ck
        scale = self._dx / math.sqrt(TWO_PI) * np.sinc(self._dx * p / TWO_PI) ** 4
        return scale * np.exp(-1j * self._x_first * p) * s

    @property
    def width(self):
        w = np.abs(self._v) ** 2
        mean = np.trapezoid(self._x * w, self._x)
        var = np.trapezoid((self._x - mean) ** 2 * w, self._x)
        return math.sqrt(max(var, 0.0))

    def descriptor(self):
        return {
            "kind": "tabulated",
            "x": self._x.tolist(),
            "re": self._v.real.tolist(),
            "im": self._v.imag.tolist(),
        }


def envelope_from_descriptor(d: dict) -> Envelope:
    kind = d.get("kind")
    if kind == "gaussian":
        return GaussianEnvelope(sigma_x=float(d["sigma_x"]))
    if kind == "sinc":
        return SincEnvelope(d=float(d["d"]))
    if kind == "tabulated":
        v = np.asarray(d["re"], dtype=float) + 1j * np.asarray(d.get("im", np.zeros(len(d["re"]))))
        return TabulatedEnvelope(d["x"], v)
    raise ValueError(f"unknown envelope kind {kind!r}")


# ---------------------------------------------------------------------------
# packets and superpositions


@dataclass(frozen=True)
class WavePacket:
    """phi(x - x0) * exp(i p0 (x - phase_ref)), hbar = 1."""

    envelope: Envelope
    x0: float = 0.0
    p0: float = 0.0
    phase_ref: float = 0.0

    def position_amplitude(self, x):
        x = np.asarray(x, dtype=float)
        return self.envelope(x - self.x0) * np.exp(1j * self.p0 * (x - self.phase_ref))

    def momentum_amplitude(self, p):
        p = np.asarray(p, dtype=float)
        phase = np.exp(-1j * p * self.x0) * np.exp(1j * self.p0 * (self.x0 - self.phase_ref))
        return self.envelope.fourier(p - self.p0) * phase


def _plane_wave(wp: WavePacket, kind: str) -> tuple[float, float]:
    """(s, t) with the packet's amplitude = envelope factor * e^{i(s v + t)}."""
    if kind == "position":
        return wp.p0, -wp.p0 * wp.phase_ref
    return -wp.x0, wp.p0 * (wp.x0 - wp.phase_ref)


def envelope_values(packets, kind: str, v, memo=None) -> tuple[list, list[int]]:
    """Distinct envelope factors of the packets at v, and each packet's index into them.

    The factor is phi(x - x0) in position and phi_hat(p - p0) in momentum; the
    rest of a packet's amplitude is a plane wave of modulus 1. Packets sharing
    (envelope, x0) or (envelope, p0) share one evaluation, and calls given one
    `memo` dict at the same v share the factor objects themselves.
    """
    memo = {} if memo is None else memo
    values, index, seen = [], [], {}
    for wp in packets:
        key = (wp.envelope, wp.x0 if kind == "position" else wp.p0)
        if key not in seen:
            seen[key] = len(values)
            if key not in memo:
                env = wp.envelope if kind == "position" else wp.envelope.fourier
                memo[key] = env(v - key[1])
            values.append(memo[key])
        index.append(seen[key])
    return values, index


GRID_PAD = 8.0  # envelope widths default_grid covers beyond the outermost packets
QUADRATURE_PAD = 10.0  # the same for the overlap quadrature
QUADRATURE_MIN_POINTS = 4096
# Largest overlap quadrature, in the Gram's multiply-adds K^2 * points before the
# points are rounded up to a power of two: about a minute at the ~2e9 per second
# it reaches (MPE N=100 at sigma=8 does 1.3e9).
MAX_OVERLAP_WORK = 1e11


def _reach(packets, pad: float) -> tuple[float, float]:
    """Lowest x0 - pad * width and highest x0 + pad * width over the packets."""
    lo = min(wp.x0 - pad * wp.envelope.width for wp in packets)
    hi = max(wp.x0 + pad * wp.envelope.width for wp in packets)
    return lo, hi


def _quadrature_grid(packets) -> GridSpec:
    """The packets' overlap quadrature grid; raises when it is over MAX_OVERLAP_WORK."""
    lo, hi = _reach(packets, QUADRATURE_PAD)
    pmax = max(abs(wp.p0) for wp in packets) + max(1.0 / wp.envelope.width for wp in packets)
    # a float, which extreme widths make inf, so the budget is checked before int()
    size = max(8 * pmax * (hi - lo) / TWO_PI, QUADRATURE_MIN_POINTS)
    work = len(packets) ** 2 * size
    if not work <= MAX_OVERLAP_WORK:
        raise ValueError(
            f"the overlap quadrature of {len(packets)} packets on {size:.3g} points needs "
            f"{work:.3g} multiply-adds, over the budget of {MAX_OVERLAP_WORK:.3g}"
        )
    return GridSpec(points=1 << (int(size) - 1).bit_length(), xmin=lo, xmax=hi)


def _grid_rows(packets, grid: GridSpec, memo=None) -> FactoredRows:
    """The packets' position amplitudes on the grid as shared envelope factors and plane waves."""
    factors, index = envelope_values(packets, "position", grid.x, memo)
    return FactoredRows(grid, factors, index, [_plane_wave(wp, "position") for wp in packets])


def _amplitude_rows(packets, grid: GridSpec) -> np.ndarray:
    """(K, n) array of the packets' position amplitudes on the grid."""
    return _grid_rows(packets, grid).array


def _overlap_matrix(packets, grid: GridSpec) -> np.ndarray:
    """Quadrature Gram of the packets on grid, accumulated over sub-grids of GRAM_BLOCK points."""
    block = min(GRAM_BLOCK, grid.points)
    width = grid.dx * block
    out = 0.0
    for j in range(grid.points // block):
        sub = GridSpec(block, grid.xmin + j * width, grid.xmin + (j + 1) * width)
        amps = _amplitude_rows(packets, sub)
        out = out + gram(amps, amps, grid.dx)
    return out


class _PacketSum:
    """Normalized sum of coefficients times products of wave packets, one per particle.

    `terms` holds (a, wp_1, ..., wp_P) tuples and `particles` the P tuples of
    each particle's packets. The norm is the coefficients' quadratic form with
    the elementwise product of the particles' overlap Grams.
    """

    _packets_per_term = 1

    def __init__(self, terms, fringe_period: float | None = None):
        if not terms:
            raise ValueError("need at least one term")
        self.terms = [(complex(a), *packets) for a, *packets in terms]
        n = self._packets_per_term
        if any(len(t) != 1 + n for t in self.terms):
            raise ValueError(f"each term needs a coefficient and {n} packet(s)")
        coefs, *particles = zip(*self.terms)
        self.particles = tuple(particles)
        grids = [_quadrature_grid(p) for p in self.particles]  # every budget before any row
        amps = np.array(coefs)
        g = functools.reduce(operator.mul, map(_overlap_matrix, self.particles, grids))
        nrm2 = float(np.real(np.conj(amps) @ g @ amps))
        if nrm2 <= 0:
            raise ValueError("state has zero norm")
        self._scale = 1.0 / math.sqrt(nrm2)
        self.fringe_period = fringe_period

    @property
    def packets(self):
        return [wp for packets in self.particles for wp in packets]

    def _amplitude(self, kind, *vs):
        """Sum of the terms as envelope factors times one plane wave per wave-number tuple.

        Each distinct envelope factor is evaluated once, each distinct tuple of
        wave numbers gets one complex exponential (none when all are 0), and the
        constant phases t fold into the term's coefficient.
        """
        vs = [np.asarray(v, dtype=float) for v in vs]
        factors = [envelope_values(p, kind, v) for p, v in zip(self.particles, vs)]
        waves = {}
        out = 0.0j
        for k, (a, *packets) in enumerate(self.terms):
            s, t = zip(*(_plane_wave(wp, kind) for wp in packets))
            term = functools.reduce(operator.mul, (f[index[k]] for f, index in factors))
            if any(s):
                if s not in waves:
                    phase = sum((sj * vj for sj, vj in zip(s[1:], vs[1:])), s[0] * vs[0])
                    waves[s] = np.exp(1j * phase)
                term = term * waves[s]
            out = out + a * cmath.exp(1j * sum(t[1:], t[0])) * term
        return self._scale * out


class SuperposedState(_PacketSum):
    """Normalized superposition of single-particle wave packets."""

    def position_amplitude(self, x):
        return self._amplitude("position", x)

    def momentum_amplitude(self, p):
        return self._amplitude("momentum", p)


class TwoParticleState(_PacketSum):
    """Normalized sum of product packet pairs: a one-component ensemble of itself."""

    _packets_per_term = 2

    @property
    def components(self):
        return [(1.0, self)]

    @property
    def weights(self):
        return [1.0]

    def joint_position_amplitude(self, x1, x2):
        return self._amplitude("position", x1, x2)

    def joint_momentum_amplitude(self, p1, p2):
        return self._amplitude("momentum", p1, p2)


class MixtureState:
    """Ensemble of pure two-particle states with normalized weights."""

    def __init__(self, components):
        flat = []
        for w, st in components:
            if not hasattr(st, "components"):
                raise TypeError(f"cannot mix a {type(st).__name__}; expected a two-particle state")
            flat += [(float(w) * sw, sub) for sw, sub in st.components]
        components = flat
        if not components:
            raise ValueError("mixture needs at least one component")
        if any(w <= 0 for w, _ in components):
            raise ValueError("mixture weights must be positive")
        total = sum(w for w, _ in components)
        self.components = [(w / total, st) for w, st in components]

    @property
    def weights(self):
        return [w for w, _ in self.components]

    @property
    def packets(self):
        return [wp for _, st in self.components for wp in st.packets]


def mix(components) -> MixtureState:
    """Weighted ensemble of two-particle states; weights renormalized."""
    return MixtureState(components)


# ---------------------------------------------------------------------------
# builders


def _warn_at_caller(message: str):
    """Warn at the first frame outside this module: the line that called the builder."""
    frame, level = sys._getframe(1), 2
    while frame is not None and frame.f_code.co_filename == __file__:
        frame, level = frame.f_back, level + 1
    warnings.warn(message, stacklevel=level)


def build_multislit(N: int, L: float, envelope: Envelope) -> SuperposedState:
    """Rank-N position comb: equal-amplitude packets displaced by L."""
    N = int(N)
    if N < 1:
        raise ValueError("N must be >= 1")
    if not L > 0:
        raise ValueError("slit separation L must be positive")
    if envelope.width / L > 0.2:
        _warn_at_caller(
            f"envelope width {envelope.width} is not small against L={L}; "
            "components overlap appreciably"
        )
    amp = 1.0 / math.sqrt(N)
    terms = [(amp, WavePacket(envelope, x0=-n * L)) for n in range(N)]
    return SuperposedState(terms, fringe_period=H_PLANCK / L)


def _check_comb(N, x0, lam, envelope):
    """Validate a momentum comb; warn once per public builder call on overlap."""
    if int(N) < 1:
        raise ValueError("N must be >= 1")
    if not math.isfinite(x0):
        raise ValueError(f"x0 must be finite, got {x0}")
    if not (math.isfinite(lam) and lam > 0):
        raise ValueError(f"lambda must be positive and finite, got {lam}")
    if envelope.width / lam < 5:
        _warn_at_caller(
            f"envelope width {envelope.width} is not large against lambda={lam}; "
            "momentum components overlap appreciably"
        )


def _momentum_comb_packets(N, x0, N0, lam, envelope, sign=+1.0):
    xref = float(modular_part(x0, lam)) * (1 if sign > 0 else -1)
    per = H_PLANCK / lam
    return [
        WavePacket(envelope, x0=sign * x0, p0=sign * (N0 + n) * per, phase_ref=xref)
        for n in range(int(N))
    ]


def _pair_packets(N, x0, N0, lam, envelope):
    """The N counterpropagating packet pairs shared by the MPE and classical states."""
    return list(
        zip(
            _momentum_comb_packets(N, x0, N0, lam, envelope, sign=+1.0),
            _momentum_comb_packets(N, x0, N0, lam, envelope, sign=-1.0),
        )
    )


def _mpe(pairs, lam) -> TwoParticleState:
    amp = 1.0 / math.sqrt(len(pairs))
    return TwoParticleState([(amp, w1, w2) for w1, w2 in pairs], fringe_period=lam)


def _classical(pairs, lam) -> MixtureState:
    comps = [
        (1.0 / len(pairs), TwoParticleState([(1.0, w1, w2)], fringe_period=lam))
        for w1, w2 in pairs
    ]
    return MixtureState(comps)


def build_smp(N: int, x0: float, N0: int, lam: float, envelope: Envelope) -> SuperposedState:
    """Rank-N momentum comb: position-space fringes of period lambda."""
    _check_comb(N, x0, lam, envelope)
    packets = _momentum_comb_packets(N, x0, N0, lam, envelope)
    amp = 1.0 / math.sqrt(int(N))
    return SuperposedState([(amp, wp) for wp in packets], fringe_period=lam)


def build_mpe(N: int, x0: float, N0: int, lam: float, envelope: Envelope) -> TwoParticleState:
    """Rank-N entangled pair state: counterpropagating correlated packets."""
    _check_comb(N, x0, lam, envelope)
    return _mpe(_pair_packets(N, x0, N0, lam, envelope), lam)


def build_classical_correlated(
    N: int, x0: float, N0: int, lam: float, envelope: Envelope
) -> MixtureState:
    """Incoherent mixture of the N product components: correlated, fringe-free."""
    _check_comb(N, x0, lam, envelope)
    return _classical(_pair_packets(N, x0, N0, lam, envelope), lam)


def admixture_state(
    epsilon: float,
    N: int,
    lam: float = 1.0,
    envelope=None,
    x0: float = 0.0,
    N0: int = 1,
):
    """(1 - eps) * MPE + eps * classically correlated, as a pure-state ensemble."""
    if not 0 <= epsilon <= 1:
        raise ValueError("epsilon must lie in [0, 1]")
    envelope = envelope or GaussianEnvelope(sigma_x=6.0 * lam)
    _check_comb(N, x0, lam, envelope)
    pairs = _pair_packets(N, x0, N0, lam, envelope)
    pure = _mpe(pairs, lam)
    if epsilon == 0:
        return pure
    classical = _classical(pairs, lam)
    comps = [] if epsilon == 1 else [(1.0 - epsilon, pure)]
    comps += [(epsilon * w, st) for w, st in classical.components]
    return MixtureState(comps)


# ---------------------------------------------------------------------------
# densities


def position_density(state, x):
    if isinstance(state, SuperposedState):
        return np.abs(state.position_amplitude(x)) ** 2
    raise TypeError("position_density expects a single-particle state")


def momentum_density(state, p):
    if isinstance(state, SuperposedState):
        return np.abs(state.momentum_amplitude(p)) ** 2
    raise TypeError("momentum_density expects a single-particle state")


def _joint_density(state, kind, v1, v2):
    """Weighted sum of |amplitude|^2 over the ensemble; a pure state is one component."""
    if not hasattr(state, "components"):
        raise TypeError("joint densities expect a two-particle state or mixture")
    out = 0.0
    for w, st in state.components:
        out = out + w * np.abs(st._amplitude(kind, v1, v2)) ** 2
    return out


def joint_position_density(state, x1, x2):
    return _joint_density(state, "position", x1, x2)


def joint_momentum_density(state, p1, p2):
    return _joint_density(state, "momentum", p1, p2)


# ---------------------------------------------------------------------------
# discretization


MAX_GRID_POINTS = 2**22  # largest grid default_grid refines to for the packets' momenta


def _momentum_reach(packets) -> float:
    """Largest |p0| + 1/width over the packets: the grid's pi / dx must exceed it."""
    return max(abs(wp.p0) + 1.0 / wp.envelope.width for wp in packets)


def default_grid(state, ell: float, points_per_ell: int = 256) -> GridSpec:
    """Commensurate power-of-two grid covering the state's packets and their momenta.

    Takes the smallest power-of-two multiple of points_per_ell at which every
    packet's momentum reach lies below the lattice's end pi / dx; raises
    ValueError when that needs more than MAX_GRID_POINTS points.
    """
    if not hasattr(state, "packets"):
        raise TypeError(f"unsupported state type {type(state).__name__}")
    lo, hi = _reach(state.packets, GRID_PAD)
    periods = max(2, math.ceil((hi - lo) / ell))
    center = 0.5 * (lo + hi)
    half = periods * ell / 2
    reach = _momentum_reach(state.packets)
    n = 1 << (periods * points_per_ell - 1).bit_length()
    while True:
        grid = GridSpec(points=n, xmin=center - half, xmax=center + half)
        if reach < math.pi / grid.dx:
            return grid
        n *= 2
        if n > MAX_GRID_POINTS:
            raise ValueError(
                f"grid too coarse for the momenta: a packet reaches |p0| + 1/width = {reach:.6g}, "
                f"beyond pi/dx on the largest default grid of {MAX_GRID_POINTS} points"
            )


TAIL_TOL = 1e-8  # mass a grid may miss where its second-order error 10 dx^2 is smaller


def discretize(state, grid: GridSpec, grid2: GridSpec | None = None):
    """Sample a state onto one grid per particle; raises if a grid misses mass or is coarse."""
    if not isinstance(state, _PacketSum):
        raise TypeError(f"cannot discretize {type(state).__name__}")
    grids = (grid, grid2 or grid)[: len(state.particles)]
    for packets, g in zip(state.particles, grids):
        if state.fringe_period is not None and g.dx > state.fringe_period / 8:
            raise ValueError(
                f"grid spacing {g.dx} coarser than fringe period / 8 = {state.fringe_period / 8}"
            )
        # the grid's momentum lattice ends at pi / dx; a packet reaching it aliases
        reach = _momentum_reach(packets)
        if not reach < math.pi / g.dx:
            raise ValueError(
                f"grid too coarse for the momenta: a packet reaches |p0| + 1/width = {reach:.6g}, "
                f"at or above the lattice's end pi/dx = {math.pi / g.dx:.6g}"
            )
    # particles on one grid share the factor object of a common (envelope, x0)
    memos = {g: {} for g in grids}
    rows = [_grid_rows(packets, g, memos[g]) for packets, g in zip(state.particles, grids)]
    coefs = np.array([t[0] * state._scale for t in state.terms])
    if len(rows) == 1:
        out = GridState(grid, coefs @ rows[0].array)
    else:
        out = TwoParticleGridState(*grids, coefs, *rows)
    contained = out.input_norm  # the analytically normalized state's mass on the grids
    for g, r in zip(grids, rows):
        tol = max(TAIL_TOL, 10 * g.dx**2)
        if contained < 1 - tol:
            raise ValueError(f"grid too small: only {contained:.10f} of the state's mass is covered")
        # each packet has unit mass, so more on the grid means the grid points miss
        # its envelope's shape; the state's mass would not do here, because it also
        # carries the overlap quadrature's error (1.7 % for sinc envelopes). A row's
        # plane wave has modulus 1, so its mass is its envelope factor's.
        worst = max(np.vdot(f, f).real for f in r.factors) * g.dx
        if not worst <= 1 + tol:
            raise ValueError(
                f"grid too coarse for the envelope: a packet holds {worst:.10g} of its "
                f"unit mass on a grid of spacing {g.dx:.3g}"
            )
    return out


# ---------------------------------------------------------------------------
# import/export


def gridstate_to_csv(state, path):
    """CSV export: columns x, re, im (single particle) or x1, x2, re, im."""
    if isinstance(state, GridState):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["x", "re", "im"])
            for xv, a in zip(state.spec.x, state.psi):
                w.writerow([repr(float(xv)), repr(float(a.real)), repr(float(a.imag))])
        return
    if isinstance(state, TwoParticleGridState):
        dense = state.dense()
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["x1", "x2", "re", "im"])
            for i, x1 in enumerate(state.spec1.x):
                for j, x2 in enumerate(state.spec2.x):
                    w.writerow([repr(float(x1)), repr(float(x2)),
                                repr(float(dense[i, j].real)), repr(float(dense[i, j].imag))])
        return
    raise TypeError("expected a grid state")


def gridstate_from_csv(path) -> GridState:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, rows = rows[0], rows[1:]
    if header[:3] != ["x", "re", "im"]:
        raise ValueError("unsupported CSV layout; expected columns x, re, im")
    x = np.array([float(r[0]) for r in rows])
    psi = np.array([float(r[1]) + 1j * float(r[2]) for r in rows])
    dx = x[1] - x[0]
    spec = GridSpec(points=len(x), xmin=float(x[0]), xmax=float(x[0]) + dx * len(x))
    return GridState(spec, psi)


def state_from_descriptor(d: dict):
    """Build a state from the JSON descriptor used by the CLI."""
    kind = d.get("kind")
    env = envelope_from_descriptor(d.get("envelope", {"kind": "gaussian", "sigma_x": 3.0}))
    known = {"kind", "N", "L", "x0", "N0", "lambda", "envelope", "epsilon"}
    extra = set(d) - known
    if extra:
        raise ValueError(f"unknown descriptor keys: {sorted(extra)}")
    N = int(d.get("N", 2))
    if kind == "multislit":
        return build_multislit(N, float(d["L"]), env)
    x0 = float(d.get("x0", 0.0))
    N0 = int(d.get("N0", 1))
    lam = float(d.get("lambda", 1.0))
    if kind == "smp":
        return build_smp(N, x0, N0, lam, env)
    if kind == "mpe":
        return build_mpe(N, x0, N0, lam, env)
    if kind == "classical":
        return build_classical_correlated(N, x0, N0, lam, env)
    if kind == "admixture":
        return admixture_state(float(d.get("epsilon", 0.0)), N, lam, env, x0, N0)
    raise ValueError(f"unknown state kind {kind!r}")
