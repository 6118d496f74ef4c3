"""State builders: position combs, momentum combs, entangled pair states.

All amplitudes are renormalized after construction by the packets' overlap
Gram, in closed form for Gaussian and sinc envelopes and by quadrature for
others, so the 1/sqrt(N) prefactor of the ideal (orthogonal-component)
construction is corrected for packet overlaps automatically.
"""

from __future__ import annotations

import cmath
import functools
import math
import numbers
import operator
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .grids import (
    GRAM_BLOCK,
    FactoredRows,
    GridSpec,
    GridState,
    TwoParticleGridState,
    _check_norm,
    gram,
)
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
        return (2 * math.pi * self.sigma_x**2) ** -0.25 * np.exp(u)

    def fourier(self, p):
        p = np.asarray(p, dtype=float)
        u = -(self.sigma_x**2) * p**2
        return (2 * self.sigma_x**2 / math.pi) ** 0.25 * np.exp(u)

    @property
    def width(self):
        return self.sigma_x


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


def factor_key(wp: WavePacket, kind: str) -> tuple:
    """(envelope, x0) in position, (envelope, p0) in momentum: packets of one key share one factor."""
    return wp.envelope, wp.x0 if kind == "position" else wp.p0


def envelope_values(packets, kind: str, v, memo=None) -> tuple[list, list[int]]:
    """Distinct envelope factors of the packets at v, and each packet's index into them.

    The factor is phi(x - x0) in position and phi_hat(p - p0) in momentum; the
    rest of a packet's amplitude is a plane wave of modulus 1. Packets of one
    `factor_key` share one evaluation, and calls given one `memo` dict at the
    same v share the factor objects themselves.
    """
    memo = {} if memo is None else memo
    values, index, seen = [], [], {}
    for wp in packets:
        key = factor_key(wp, kind)
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
# Largest closed-form overlap Gram, in entries K^2 per particle: K = 2048 packets,
# 64 MiB of complex entries, a fraction of a second.
MAX_GRAM_ENTRIES = 2**22
OVERLAP_BLOCK = 256  # Gram rows per block of the closed forms


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
    keys = list(dict.fromkeys(factor_key(wp, "position") for wp in packets))  # in factors' order
    return FactoredRows(grid, factors, index, [_plane_wave(wp, "position") for wp in packets], keys)


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
        out = out + gram(amps, grid.dx)
    return out


def _packet_table(packets) -> np.ndarray:
    """(4, K) array of the packets' x0, p0, phase_ref and envelope width."""
    return np.array([(wp.x0, wp.p0, wp.phase_ref, wp.envelope.width) for wp in packets]).T


def _pairs(rows: np.ndarray, cols: np.ndarray):
    """(Ka, 1) and (1, Kb) views of each quantity of two packet tables."""
    return [(a[:, None], b[None, :]) for a, b in zip(rows, cols)]


def _gaussian_overlaps(rows, cols) -> np.ndarray:
    """<a|b> of Gaussian packets in closed form.

    sqrt(2 / (r + 1/r)) exp(-dx^2 / 4(sa^2 + sb^2) - dp^2 sa^2 sb^2 / (sa^2 + sb^2)
    + i(dp mu + p_a r_a - p_b r_b)) with r = sa / sb, dx = x_b - x_a, dp = p_b - p_a
    and mu = (x_a sb^2 + x_b sa^2) / (sa^2 + sb^2). Every width product is a ratio
    to hypot(sa, sb) before it is squared, so no width whose square is finite
    under- or overflows, and a packet's own overlap is exactly 1.
    """
    (xa, xb), (pa, pb), (ra, rb), (sa, sb) = _pairs(rows, cols)
    ratio = sa / sb
    s = np.hypot(sa, sb)
    dx, dp = xb - xa, pb - pa
    mu = xa + dx * (sa / s) ** 2
    # a decay that overflows to inf is an overlap that underflows to 0
    with np.errstate(over="ignore"):
        decay = (dx / (2 * s)) ** 2 + (dp * (sa * (sb / s))) ** 2
    phase = dp * mu + pa * ra - pb * rb
    return np.sqrt(2 / (ratio + 1 / ratio)) * np.exp(1j * phase - decay)


def _sinc_overlaps(rows, cols) -> np.ndarray:
    """<a|b> of sinc packets in closed form: the overlap of their momentum boxes.

    (sqrt(d_a d_b) / 2 pi) conj(e^{i p_a (x_a - r_a)}) e^{i p_b (x_b - r_b)} times
    the integral of e^{ip (x_a - x_b)} over the boxes' intersection [lo, hi],
    span e^{i (x_a - x_b)(lo + hi) / 2} sinc((x_a - x_b) span / 2 pi), and 0 where
    the boxes [p0 - pi/d, p0 + pi/d] are disjoint. The factor sqrt(d_a d_b) span / 2 pi
    is taken in ratios of the widths, so a packet's own overlap is exactly 1.
    """
    (xa, xb), (pa, pb), (ra, rb), (da, db) = _pairs(rows, cols)
    rho = np.sqrt(da / db)
    root = np.sqrt(da) * np.sqrt(db)
    # span * root / 2 pi: the smaller box when one holds the other, else the boxes' overlap
    w = np.minimum(np.minimum(rho, 1 / rho), (rho + 1 / rho) / 2 - np.abs(pb - pa) * root / TWO_PI)
    w = np.maximum(w, 0.0)
    lo = np.maximum(pa - math.pi / da, pb - math.pi / db)
    hi = np.minimum(pa + math.pi / da, pb + math.pi / db)
    delta = xa - xb
    phase = delta * (lo + hi) / 2 - pa * (xa - ra) + pb * (xb - rb)
    return w * np.sinc(delta * w / root) * np.exp(1j * phase)


# each envelope kind's closed form of <a|b> over two packet tables
_CLOSED_FORM_OVERLAPS = {GaussianEnvelope: _gaussian_overlaps, SincEnvelope: _sinc_overlaps}

# Envelopes whose factor in a basis is a positive function, and the packet-table
# row (p0 for position draws, x0 for momentum draws) zeroed so that the modulus
# of the closed-form overlap is beta_kl = int |psi_k||psi_l|.
_PAIR_OVERLAPS = {
    ("position", GaussianEnvelope): 1,
    ("momentum", GaussianEnvelope): 0,
    ("momentum", SincEnvelope): 0,
}


def _pair_overlaps(packets, kind: str):
    """A function of (lo, hi) returning rows lo:hi of beta_kl = int |psi_k||psi_l| over one
    particle's packets, or None when the packets have no closed form for it in this basis."""
    kinds = {type(wp.envelope) for wp in packets}
    env = kinds.pop() if len(kinds) == 1 else None
    if (kind, env) not in _PAIR_OVERLAPS:
        return None
    table = _packet_table(packets)
    table[_PAIR_OVERLAPS[kind, env]] = 0.0
    rows = _closed_form_rows(_CLOSED_FORM_OVERLAPS[env], table)
    return lambda lo, hi: np.abs(rows(lo, hi))


def _overlap_rows(packets):
    """A function of (lo, hi) returning rows lo:hi of the packets' overlap Gram, once its
    budget has been checked.

    Packets of one analytic envelope kind take the closed form, within
    MAX_GRAM_ENTRIES; others take the quadrature, within MAX_OVERLAP_WORK, which
    builds the whole Gram once.
    """
    kinds = {type(wp.envelope) for wp in packets}
    closed = _CLOSED_FORM_OVERLAPS.get(kinds.pop()) if len(kinds) == 1 else None
    if closed is None:
        grid = _quadrature_grid(packets)
        whole = functools.cache(lambda: _overlap_matrix(packets, grid))
        return lambda lo, hi: whole()[lo:hi]
    _check_gram_entries(packets[0].envelope, len(packets))
    return _closed_form_rows(closed, _packet_table(packets))


def _check_gram_entries(envelope, size: int):
    """Raise when `size` packets of this envelope have a closed-form overlap Gram over
    MAX_GRAM_ENTRIES: the builders check it before they build any packet."""
    entries = size**2
    if type(envelope) in _CLOSED_FORM_OVERLAPS and not entries <= MAX_GRAM_ENTRIES:
        raise ValueError(
            f"the overlap Gram of {size} packets has {entries:.3g} entries, "
            f"over the budget of {MAX_GRAM_ENTRIES:.3g}"
        )


def _closed_form_rows(closed, table):
    """A function of (lo, hi) returning rows lo:hi of a closed form over a packet table."""
    size = table.shape[1]

    def rows(lo, hi):
        # column blocks keep the closed form's temporaries at OVERLAP_BLOCK^2 entries
        out = np.empty((hi - lo, size), dtype=complex)
        for c in range(0, size, OVERLAP_BLOCK):
            out[:, c : c + OVERLAP_BLOCK] = closed(table[:, lo:hi], table[:, c : c + OVERLAP_BLOCK])
        return out

    return rows


def _product_rows(tables, size: int):
    """(lo, hi, rows lo:hi) of the elementwise product of size x size tables, by row blocks.

    `tables` are functions of (lo, hi) returning rows lo:hi of one table, so no
    more than OVERLAP_BLOCK rows of any table are held at a time.
    """
    for lo in range(0, size, OVERLAP_BLOCK):
        hi = min(lo + OVERLAP_BLOCK, size)
        yield lo, hi, functools.reduce(operator.mul, (t(lo, hi) for t in tables))


class _PacketSum:
    """Normalized sum of coefficients times products of wave packets, one per particle.

    `terms` holds (a, wp_1, ..., wp_P) tuples and `particles` the P tuples of
    each particle's packets. The norm is the coefficients' quadratic form with
    the elementwise product of the particles' overlap Grams (_overlap_rows),
    summed over row blocks of the Grams.
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
        grams = [_overlap_rows(p) for p in self.particles]  # every budget before any Gram
        amps = np.array(coefs)
        rows = _product_rows(grams, len(amps))
        with np.errstate(over="ignore", invalid="ignore"):
            nrm2 = float(np.real(sum(np.conj(amps[lo:hi]) @ g @ amps for lo, hi, g in rows)))
        _check_norm(nrm2, "state has zero norm")
        self._scale = 1.0 / math.sqrt(nrm2)
        self.fringe_period = fringe_period
        self._wave_plans = {}

    @property
    def packets(self):
        return [wp for packets in self.particles for wp in packets]

    def _waves(self, kind) -> _Waves:
        if kind not in self._wave_plans:
            self._wave_plans[kind] = _wave_plan(self.terms, kind, self.fringe_period)
        return self._wave_plans[kind]

    def _amplitude(self, kind, *vs, common=True):
        """Sum of the terms as envelope factors times plane waves relative to a reference term's.

        Each distinct envelope factor is evaluated once and the constant phases
        t fold into the terms' coefficients. On a lattice (`_Waves`) the relative
        waves are powers of one exponential w, built by successive products in
        the terms' order of power; otherwise each distinct relative tuple gets
        one complex exponential (none when it is 0). The reference term's
        own wave multiplies the sum once, when `common` is set and it is not 0:
        a density, invariant under a common phase, never evaluates it.
        """
        vs = [np.asarray(v, dtype=float) for v in vs]
        plan = self._waves(kind)
        factors = [envelope_values(p, kind, v) for p, v in zip(self.particles, vs)]
        if plan.lattice is not None:
            b, d = plan.lattice
            w = np.exp(1j * (b * _dot(d, vs)))
        waves, power, at = {}, None, 0  # w^at, None for w^0 = 1
        out = 0.0j
        for k, step in zip(plan.order, plan.steps):
            term = functools.reduce(operator.mul, (f[index[k]] for f, index in factors))
            wave = None
            if plan.lattice is not None:
                for _ in range(at, step):
                    power = w if power is None else power * w
                wave, at = power, step
            elif any(step):
                if step not in waves:
                    waves[step] = np.exp(1j * _dot(step, vs))
                wave = waves[step]
            if wave is not None:
                term = term * wave
            out = out + plan.coefs[k] * term
        if common and plan.common is not None:
            out = out * np.exp(1j * _dot(plan.common, vs))
        return self._scale * out


def _dot(s, vs):
    """sum_j s_j v_j over one wave-number tuple and the particles' coordinates."""
    return sum((sj * vj for sj, vj in zip(s[1:], vs[1:])), s[0] * vs[0])


@dataclass(frozen=True)
class _Waves:
    """A packet sum's plane waves in one basis, relative to a reference term's.

    The amplitude is e^{i s_ref.v} sum_k coefs[k] * envelope factors * e^{i (s_k - s_ref).v},
    with s_k the wave-number tuple of term k and coefs[k] = a_k e^{i t_k}.
    `common` is s_ref, or None when it is 0. The terms are taken in `order`.
    With `lattice` = (b, d), step j is the power n >= 0 of w = e^{i b d.v} that
    is term order[j]'s relative wave, and the steps do not decrease; otherwise
    it is the term's relative tuple s_k - s_ref.
    """

    common: tuple | None
    coefs: tuple
    order: tuple
    steps: tuple
    lattice: tuple | None


def _wave_plan(terms, kind: str, period: float | None) -> _Waves:
    waves, coefs = [], []
    for a, *packets in terms:
        s, t = zip(*(_plane_wave(wp, kind) for wp in packets))
        waves.append(s)
        coefs.append(a * cmath.exp(1j * sum(t[1:], t[0])))
    lattice = _lattice_powers(waves, period)
    if lattice is None:
        ref, order = 0, range(len(waves))
        steps = [tuple(sj - rj for sj, rj in zip(s, waves[ref])) for s in waves]
    else:
        b, d, powers = lattice
        ref = powers.index(0)
        order = sorted(range(len(waves)), key=powers.__getitem__)
        steps = [powers[k] for k in order]
        lattice = (b, d)
    common = waves[ref] if any(waves[ref]) else None
    return _Waves(common, tuple(coefs), tuple(order), tuple(steps), lattice)


def _lattice_powers(waves, period: float | None):
    """(b, d, n) with the wave-number tuples s_k = s_ref + n_k b d, or None.

    b = h / period. Each wave number must be an integer multiple of b exactly,
    round(s / b) * b == s bitwise, and the integer tuples' differences must be
    multiples n_k d of one integer tuple d. The n_k are shifted to start at 0,
    and the walk from w^0 to the highest power may visit at most twice as many
    powers as the terms use, which bounds its products and their rounding.
    None when any of this fails, or when every term has one tuple.
    """
    b = H_PLANCK / period if period else 0.0
    if not 0.0 < b < math.inf:
        return None
    ints = []
    for s in waves:
        row = []
        for sj in s:
            r = sj / b
            if not math.isfinite(r) or round(r) * b != sj:
                return None
            row.append(round(r))
        ints.append(row)
    rel = [[i - j for i, j in zip(row, ints[0])] for row in ints]
    first = next((r for r in rel if any(r)), None)
    if first is None:
        return None
    g = math.gcd(*first)
    d = [x // g for x in first]
    j = next(i for i, x in enumerate(d) if x)
    n = [r[j] // d[j] for r in rel]
    if any([nk * x for x in d] != r for nk, r in zip(n, rel)):
        return None
    lo = min(n)
    n = [nk - lo for nk in n]
    if max(n) + 1 > 2 * len(set(n)):
        return None
    return b, tuple(d), n


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


class MixtureState:
    """Ensemble of pure two-particle states with normalized weights."""

    def __init__(self, components):
        components = list(components)
        if not components:
            raise ValueError("mixture needs at least one component")
        for w, st in components:
            if not hasattr(st, "components"):
                raise TypeError(f"cannot mix a {type(st).__name__}; expected a two-particle state")
            if not 0 < float(w) < math.inf:
                raise ValueError("mixture weights must be positive and finite")
        # a nested ensemble's weights are products, and one that underflows to 0 is left out
        components = [(float(w) * sw, sub) for w, st in components for sw, sub in st.components]
        components = [(w, st) for w, st in components if w > 0]
        if not components:
            raise ValueError("every mixture weight underflows to 0")
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
    # its fringes, of period h/L, are in momentum: no position spacing to check
    return SuperposedState(terms)


COMB_WIDTH = 8.0  # default Gaussian width of a comb's packets, in fringe periods lambda


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
    _check_gram_entries(envelope, int(N))
    packets = _momentum_comb_packets(N, x0, N0, lam, envelope)
    amp = 1.0 / math.sqrt(int(N))
    return SuperposedState([(amp, wp) for wp in packets], fringe_period=lam)


def build_mpe(N: int, x0: float, N0: int, lam: float, envelope: Envelope) -> TwoParticleState:
    """Rank-N entangled pair state: counterpropagating correlated packets."""
    _check_comb(N, x0, lam, envelope)
    _check_gram_entries(envelope, int(N))
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
    """(1 - eps) * MPE + eps * classically correlated, as a pure-state ensemble.

    Without an envelope the packets are Gaussian of width COMB_WIDTH * lam, as
    in state_from_descriptor.
    """
    if not 0 <= epsilon <= 1:
        raise ValueError("epsilon must lie in [0, 1]")
    envelope = envelope or GaussianEnvelope(sigma_x=COMB_WIDTH * lam)
    _check_comb(N, x0, lam, envelope)
    _check_gram_entries(envelope, int(N))
    pairs = _pair_packets(N, x0, N0, lam, envelope)
    pure = _mpe(pairs, lam)
    if epsilon == 0:
        return pure
    comps = [] if epsilon == 1 else [(1.0 - epsilon, pure)]
    return MixtureState(comps + [(epsilon, _classical(pairs, lam))])


# ---------------------------------------------------------------------------
# densities


def position_density(state, x):
    if isinstance(state, SuperposedState):
        return np.abs(state._amplitude("position", x, common=False)) ** 2
    raise TypeError("position_density expects a single-particle state")


def momentum_density(state, p):
    if isinstance(state, SuperposedState):
        return np.abs(state._amplitude("momentum", p, common=False)) ** 2
    raise TypeError("momentum_density expects a single-particle state")


def _joint_density(state, kind, v1, v2):
    """Weighted sum of |amplitude|^2 over the ensemble; a pure state is one component.

    The amplitudes leave out their common plane wave, which has modulus 1.
    """
    if not hasattr(state, "components"):
        raise TypeError("joint densities expect a two-particle state or mixture")
    out = 0.0
    for w, st in state.components:
        out = out + w * np.abs(st._amplitude(kind, v1, v2, common=False)) ** 2
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

    Spans a power-of-two count of periods, so with n a power of two every
    partition edge falls on a grid point. Takes the smallest power-of-two
    multiple of points_per_ell at which every packet's momentum reach lies
    below the lattice's end pi / dx; raises ValueError, before any grid is
    returned, when that needs more than MAX_GRID_POINTS points, and when
    points_per_ell is not a positive integer.
    """
    if not hasattr(state, "packets"):
        raise TypeError(f"unsupported state type {type(state).__name__}")
    integral = isinstance(points_per_ell, numbers.Integral) and not isinstance(points_per_ell, bool)
    if not integral or points_per_ell < 1:
        raise ValueError(f"points_per_ell must be a positive integer, got {points_per_ell!r}")
    points_per_ell = int(points_per_ell)
    lo, hi = _reach(state.packets, GRID_PAD)
    periods = 1 << (max(2, math.ceil((hi - lo) / ell)) - 1).bit_length()
    center = 0.5 * (lo + hi)
    half = periods * ell / 2
    reach = _momentum_reach(state.packets)
    n = 1 << (periods * points_per_ell - 1).bit_length()
    if n > MAX_GRID_POINTS:
        raise ValueError(
            f"grid too large: {periods} periods at {points_per_ell} points per ell "
            f"take {n} points, more than MAX_GRID_POINTS = {MAX_GRID_POINTS}"
        )
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


def discretize(state, grid: GridSpec):
    """Sample a state onto the grid, both particles of a pair on the same one.

    An ensemble is one grid state: one coefficient row per component over the
    distinct packet pairs of all of them, whose rows are built once. Raises if
    the grid misses mass of a component or is coarse for the fringes, the
    momenta or an envelope.
    """
    parts = [st for _, st in state.components] if isinstance(state, MixtureState) else [state]
    if not all(isinstance(st, _PacketSum) for st in parts):
        raise TypeError(f"cannot discretize {type(state).__name__}")
    for st in parts:
        if st.fringe_period is not None and grid.dx > st.fringe_period / 8:
            raise ValueError(
                f"grid spacing {grid.dx} coarser than fringe period / 8 = {st.fringe_period / 8}"
            )
    # the grid's momentum lattice ends at pi / dx; a packet reaching it aliases
    reach = _momentum_reach(state.packets)
    if not reach < math.pi / grid.dx:
        raise ValueError(
            f"grid too coarse for the momenta: a packet reaches |p0| + 1/width = {reach:.6g}, "
            f"at or above the lattice's end pi/dx = {math.pi / grid.dx:.6g}"
        )
    columns = {}  # each distinct packet tuple's term, in order of first appearance
    coefs = []  # each component's (terms, coefficients)
    for st in parts:
        row = {}
        for a, *packets in st.terms:
            k = columns.setdefault(tuple(packets), len(columns))
            row[k] = row.get(k, 0) + a * st._scale
        coefs.append((np.array(list(row)), np.array(list(row.values()), dtype=complex)))
    factors = {}  # particles share the factor object of a common (envelope, x0)
    rows = [_grid_rows(packets, grid, factors) for packets in zip(*columns)]
    if len(rows) == 1:
        out = GridState(grid, coefs[0][1] @ rows[0].array)
    elif len(parts) == 1:
        out = TwoParticleGridState(grid, coefs[0][1], *rows)
    else:
        out = TwoParticleGridState(grid, coefs, *rows, state.weights)
    contained = out.input_norm  # the analytically normalized state's mass on the grid
    tol = max(TAIL_TOL, 10 * grid.dx**2)
    if contained < 1 - tol:
        raise ValueError(f"grid too small: only {contained:.10f} of the state's mass is covered")
    # each packet has unit mass, so more on the grid means the grid points miss
    # its envelope's shape. A row's plane wave has modulus 1, so its mass is its
    # envelope factor's; a ufunc reduction, not a BLAS dot, takes its sum.
    worst = max(np.einsum("i,i->", f.conj(), f).real for r in rows for f in r.factors) * grid.dx
    if not worst <= 1 + tol:
        raise ValueError(
            f"grid too coarse for the envelope: a packet holds {worst:.10g} of its "
            f"unit mass on a grid of spacing {grid.dx:.3g}"
        )
    return out


def state_from_descriptor(d: dict):
    """Build a state from the JSON descriptor used by the CLI.

    Without an "envelope" the packets are Gaussian, of width 8 lambda in a comb
    and L / 10 in a multislit, where the builders do not warn of overlap.
    """
    kind = d.get("kind")
    env = envelope_from_descriptor(d["envelope"]) if "envelope" in d else None
    known = {"kind", "N", "L", "x0", "N0", "lambda", "envelope", "epsilon"}
    extra = set(d) - known
    if extra:
        raise ValueError(f"unknown descriptor keys: {sorted(extra)}")
    N = int(d.get("N", 2))
    if kind == "multislit":
        L = float(d["L"])
        return build_multislit(N, L, env or GaussianEnvelope(sigma_x=0.1 * L))
    x0 = float(d.get("x0", 0.0))
    N0 = int(d.get("N0", 1))
    lam = float(d.get("lambda", 1.0))
    env = env or GaussianEnvelope(sigma_x=COMB_WIDTH * lam)
    if kind == "smp":
        return build_smp(N, x0, N0, lam, env)
    if kind == "mpe":
        return build_mpe(N, x0, N0, lam, env)
    if kind == "classical":
        return build_classical_correlated(N, x0, N0, lam, env)
    if kind == "admixture":
        return admixture_state(float(d.get("epsilon", 0.0)), N, lam, env, x0, N0)
    raise ValueError(f"unknown state kind {kind!r}")
