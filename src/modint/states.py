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

from .grids import GRAM_BLOCK, GridSpec, GridState, TwoParticleGridState, gram
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


@dataclass(frozen=True)
class GaussianEnvelope(Envelope):
    sigma_x: float
    kind = "gaussian"

    def __post_init__(self):
        if not self.sigma_x > 0:
            raise ValueError("sigma_x must be positive")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return (2 * math.pi * self.sigma_x**2) ** -0.25 * np.exp(-(x**2) / (4 * self.sigma_x**2))

    def fourier(self, p):
        p = np.asarray(p, dtype=float)
        return (2 * self.sigma_x**2 / math.pi) ** 0.25 * np.exp(-(self.sigma_x**2) * p**2)

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
        if not self.d > 0:
            raise ValueError("d must be positive")

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


class TabulatedEnvelope(Envelope):
    """Envelope interpolated from samples, renormalized numerically."""

    kind = "tabulated"

    def __init__(self, x, values):
        from scipy.interpolate import interp1d  # slow to import; only this envelope needs it

        x = np.asarray(x, dtype=float)
        values = np.asarray(values, dtype=complex)
        if x.ndim != 1 or x.shape != values.shape or x.size < 8:
            raise ValueError("need matching 1-D sample arrays of length >= 8")
        dx = np.diff(x)
        if np.any(dx <= 0):
            raise ValueError("sample abscissae must be strictly increasing")
        nrm = math.sqrt(float(np.trapezoid(np.abs(values) ** 2, x)))
        if nrm == 0:
            raise ValueError("cannot normalize zero samples")
        self._x = x
        self._v = values / nrm
        self._interp_re = interp1d(x, self._v.real, kind="cubic", bounds_error=False, fill_value=0.0)
        self._interp_im = interp1d(x, self._v.imag, kind="cubic", bounds_error=False, fill_value=0.0)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return self._interp_re(x) + 1j * self._interp_im(x)

    def fourier(self, p):
        p = np.asarray(p, dtype=float).ravel()
        # direct quadrature on the tabulated support, GRAM_BLOCK momenta at a time
        out = np.empty(p.size, dtype=complex)
        for s in range(0, p.size, GRAM_BLOCK):
            ph = np.exp(-1j * np.outer(p[s : s + GRAM_BLOCK], self._x))
            out[s : s + GRAM_BLOCK] = np.trapezoid(ph * self._v, self._x, axis=1)
        out /= math.sqrt(TWO_PI)
        return out if out.size > 1 else out[0]

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


def envelope_values(packets, kind: str, v) -> tuple[list, list[int]]:
    """Distinct envelope factors of the packets at v, and each packet's index into them.

    The factor is phi(x - x0) in position and phi_hat(p - p0) in momentum; the
    rest of a packet's amplitude is a plane wave of modulus 1. Packets sharing
    (envelope, x0) or (envelope, p0) share one evaluation.
    """
    values, index, seen = [], [], {}
    for wp in packets:
        key = (wp.envelope, wp.x0 if kind == "position" else wp.p0)
        if key not in seen:
            seen[key] = len(values)
            env = wp.envelope if kind == "position" else wp.envelope.fourier
            values.append(env(v - key[1]))
        index.append(seen[key])
    return values, index


GRID_PAD = 8.0  # envelope widths default_grid covers beyond the outermost packets
QUADRATURE_PAD = 10.0  # the same for the overlap quadrature
QUADRATURE_MIN_POINTS = 4096


def _reach(packets, pad: float) -> tuple[float, float]:
    """Lowest x0 - pad * width and highest x0 + pad * width over the packets."""
    lo = min(wp.x0 - pad * wp.envelope.width for wp in packets)
    hi = max(wp.x0 + pad * wp.envelope.width for wp in packets)
    return lo, hi


def _quadrature_grid(packets) -> GridSpec:
    lo, hi = _reach(packets, QUADRATURE_PAD)
    pmax = max(abs(wp.p0) for wp in packets) + max(1.0 / wp.envelope.width for wp in packets)
    n = max(QUADRATURE_MIN_POINTS, int(8 * pmax * (hi - lo) / TWO_PI))
    return GridSpec(points=1 << (n - 1).bit_length(), xmin=lo, xmax=hi)


WAVE_BLOCK = 256  # grid points per fine plane-wave factor in _amplitude_rows


def _amplitude_rows(packets, grid: GridSpec) -> np.ndarray:
    """(K, n) array of the packets' position amplitudes on the grid.

    Each row is a shared envelope factor times the packet's plane wave
    e^{i(s x + t)}; the wave on x = xmin + dx (j B + i) is the outer product of
    a coarse exponential over the blocks j and a fine one over i < B, so no
    packet pays a full-grid exponential.
    """
    factors, index = envelope_values(packets, "position", grid.x)
    b = min(WAVE_BLOCK, grid.points)
    fine = grid.dx * np.arange(b)
    starts = grid.xmin + grid.dx * b * np.arange(grid.points // b)
    out = np.empty((len(packets), grid.points), dtype=complex)
    for row, wp, k in zip(out, packets, index):
        s, t = _plane_wave(wp, "position")
        coarse = np.exp(1j * (s * starts + t))
        np.multiply(coarse[:, None], np.exp(1j * s * fine), out=row.reshape(-1, b))
        row *= factors[k]
    return out


def _overlap_matrix(packets) -> np.ndarray:
    """Quadrature Gram of the packets, accumulated over sub-grids of GRAM_BLOCK points."""
    grid = _quadrature_grid(packets)
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
        amps = np.array(coefs)
        g = functools.reduce(operator.mul, (_overlap_matrix(p) for p in self.particles))
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


def _check_comb(N, lam, envelope):
    """Validate a momentum comb; warn once per public builder call on overlap."""
    if int(N) < 1:
        raise ValueError("N must be >= 1")
    if not lam > 0:
        raise ValueError("lambda must be positive")
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
    _check_comb(N, lam, envelope)
    packets = _momentum_comb_packets(N, x0, N0, lam, envelope)
    amp = 1.0 / math.sqrt(int(N))
    return SuperposedState([(amp, wp) for wp in packets], fringe_period=lam)


def build_mpe(N: int, x0: float, N0: int, lam: float, envelope: Envelope) -> TwoParticleState:
    """Rank-N entangled pair state: counterpropagating correlated packets."""
    _check_comb(N, lam, envelope)
    return _mpe(_pair_packets(N, x0, N0, lam, envelope), lam)


def build_classical_correlated(
    N: int, x0: float, N0: int, lam: float, envelope: Envelope
) -> MixtureState:
    """Incoherent mixture of the N product components: correlated, fringe-free."""
    _check_comb(N, lam, envelope)
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
    _check_comb(N, lam, envelope)
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


def default_grid(state, ell: float, points_per_ell: int = 256) -> GridSpec:
    """Commensurate power-of-two grid covering the state's packets."""
    if not hasattr(state, "packets"):
        raise TypeError(f"unsupported state type {type(state).__name__}")
    lo, hi = _reach(state.packets, GRID_PAD)
    periods = max(2, math.ceil((hi - lo) / ell))
    center = 0.5 * (lo + hi)
    n = 1 << (periods * points_per_ell - 1).bit_length()
    half = periods * ell / 2
    return GridSpec(points=n, xmin=center - half, xmax=center + half)


TAIL_TOL = 1e-8  # mass a grid may miss where its second-order error 10 dx^2 is smaller


def discretize(state, grid: GridSpec, grid2: GridSpec | None = None):
    """Sample a state onto one grid per particle; raises if a grid misses mass or is coarse."""
    if not isinstance(state, _PacketSum):
        raise TypeError(f"cannot discretize {type(state).__name__}")
    grids = (grid, grid2 or grid)[: len(state.particles)]
    for g in grids:
        if state.fringe_period is not None and g.dx > state.fringe_period / 8:
            raise ValueError(
                f"grid spacing {g.dx} coarser than fringe period / 8 = {state.fringe_period / 8}"
            )
    rows = [_amplitude_rows(packets, g) for packets, g in zip(state.particles, grids)]
    coefs = np.array([t[0] * state._scale for t in state.terms])
    if len(rows) == 1:
        out = GridState(grid, coefs @ rows[0])
    else:
        out = TwoParticleGridState(*grids, coefs, *rows)
    contained = out.input_norm  # the analytically normalized state's mass on the grids
    if any(contained < 1 - max(TAIL_TOL, 10 * g.dx**2) for g in grids):
        raise ValueError(f"grid too small: only {contained:.10f} of the state's mass is covered")
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
