"""Grid carriers and modular-variable operator machinery.

Single-particle states are complex amplitudes on a uniform periodic grid;
two-particle states are kept as sums of product terms so that variances
reduce to single-particle matrix elements.  Momentum-side observables are
exact lattice functions whenever the box length is an integer multiple of
the modular scale ell; rows of one Gaussian factor take them from its
closed-form transform on a few columns about each row's momentum.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .modvar import TWO_PI, ModularScale, integer_part, modular_part

GRAM_BLOCK = 4096  # grid columns per block in gram()
LATTICE_ULPS = 4  # how far, in ulps, s L / 2 pi may sit from an integer for a lattice wave

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

    @functools.cached_property
    def x(self) -> np.ndarray:
        """The grid points, computed once per spec and read-only."""
        x = self.xmin + self.dx * np.arange(self.points)
        x.flags.writeable = False
        return x

    @functools.cached_property
    def p(self) -> np.ndarray:
        """Momentum lattice of the periodic box (hbar = 1), computed once per spec and read-only."""
        p = TWO_PI * np.fft.fftfreq(self.points, d=self.dx)
        p.flags.writeable = False
        return p

    def check_commensurate(self, scale: ModularScale) -> int:
        ratio = self.length / scale.ell
        if abs(ratio - round(ratio)) > 1e-9 * max(1.0, ratio):
            raise IncommensurateGridError(
                f"box length {self.length} is not an integer multiple of ell={scale.ell}"
            )
        return int(round(ratio))


def _check_norm(nrm2: float, zero: str):
    """Refuse a squared norm that is not positive and finite; `zero` is the message for 0.

    NaN and infinite amplitudes, and amplitudes whose squares overflow, give a
    norm of NaN or inf. Dividing by its root would make NaNs or a zero state.
    """
    if nrm2 <= 0:
        raise ValueError(zero)
    if not nrm2 < math.inf:
        raise ValueError(f"the squared norm is {nrm2}: an amplitude is NaN, infinite or too large")


@dataclass
class GridState:
    """Normalized single-particle amplitudes on a periodic grid."""

    spec: GridSpec
    psi: np.ndarray

    def __post_init__(self):
        self.psi = np.asarray(self.psi, dtype=complex)
        if self.psi.shape != (self.spec.points,):
            raise ValueError("amplitude array does not match the grid spec")
        with np.errstate(over="ignore", invalid="ignore"):
            self.input_norm = self.norm  # norm of the amplitudes as given
        _check_norm(self.input_norm, "cannot normalize a zero state")
        self.psi = self.psi / math.sqrt(self.input_norm)

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


def gram(A: np.ndarray, dx: float, weight: np.ndarray | None = None) -> np.ndarray:
    """Matrix of <a_i|w|a_j> dx over the rows of A (K, n).

    A stack of weights (W, n) gives the (W, K, K) matrices of all of them from
    one sweep. Summed over blocks of GRAM_BLOCK grid columns, each conjugated
    once, so the temporaries stay K x GRAM_BLOCK however long the grid is.
    """
    weights = [None] if weight is None else np.atleast_2d(weight)
    out = np.zeros((len(weights), A.shape[0], A.shape[0]), dtype=complex)
    for s in range(0, A.shape[1], GRAM_BLOCK):
        block = A[:, s : s + GRAM_BLOCK]
        a, b = block.conj(), block.T
        for acc, w in zip(out, weights):
            acc += (a if w is None else a * w[s : s + GRAM_BLOCK]) @ b
    out *= dx
    return out if np.ndim(weight) == 2 else out[0]


@dataclass(eq=False)
class FactoredRows:
    """K grid rows factors[index[k]](x) * e^{i(s_k x + t_k)}, kept as those parts.

    `array` materializes the (K, n) rows.
    """

    spec: GridSpec
    factors: list  # distinct envelope factors on spec.x
    index: list  # each row's factor
    waves: list  # each row's (s, t)
    keys: list | None = None  # each factor's (envelope, c), where known: it is envelope(x - c)

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.index), self.spec.points

    @functools.cached_property
    def array(self) -> np.ndarray:
        out = np.empty(self.shape, dtype=complex)
        for row, (s, t), k in zip(out, self.waves, self.index):
            np.multiply(self.factors[k], np.exp(1j * (s * self.spec.x + t)), out=row)
        return out

    @functools.cached_property
    def lattice(self) -> tuple[np.ndarray, np.ndarray] | None:
        """(m, phase) when row k is phase_k * factor(x_j) * e^{2 pi i m_k j / n}, else None.

        That holds when all K rows share one real factor and every s_k is
        2 pi m_k / L to rounding, with phase_k = e^{i(s_k xmin + t_k)}. Then the
        identity Gram comes from the factor's folded density, the position
        moments from one period on exact grids, and the momentum moments of a
        Gaussian factor from its closed-form transform (see window_moments).
        """
        if len(self.factors) != 1 or np.iscomplexobj(self.factors[0]):
            return None
        s, t = np.array(self.waves).T
        r = s * (self.spec.length / TWO_PI)
        m = np.rint(r)
        if np.any(np.abs(r - m) > LATTICE_ULPS * np.spacing(np.abs(r))):
            return None
        return m.astype(np.intp), np.exp(1j * (s * self.spec.xmin + t))


def _array(rows) -> np.ndarray:
    return rows.array if isinstance(rows, FactoredRows) else rows


def _lattice(rows):
    return rows.lattice if isinstance(rows, FactoredRows) else None


def lattice_gram(rows: FactoredRows, memo=None) -> np.ndarray:
    """gram(A, dx) of lattice rows from the factor's folded density.

    <a_i|a_j> dx = conj(ph_i) ph_j dx R[(m_i - m_j) mod n] with R the FFT of
    d = |factor|^2. Every lag is a multiple of G = gcd(n, m_k - m_0), and there
    R[G k] = FFT_{n/G}(fold(d))[k] with fold(d)[r] = sum_q d[r + q n / G]. For one
    row G = n and the fold is the plain sum. The spectra are kept in `memo` (see
    _cached).
    """
    factor = rows.factors[0]
    return _lag_gram(rows, lambda width: _fold(np.abs(factor) ** 2, width), memo, None)


def _fold(d: np.ndarray, width: int) -> np.ndarray:
    """fold(d)[r] = sum_q d[r + q width] over the last axis."""
    return d.reshape(*d.shape[:-1], -1, width).sum(axis=-2)


def _lag_gram(rows: FactoredRows, folded, memo, key) -> np.ndarray:
    """lattice_gram's Grams from folded(n / G), the weighted density folded on to n / G points."""
    m, phase = rows.lattice
    n = rows.spec.points
    g = int(np.gcd.reduce(np.append(m - m[0], n)))

    def spectra():
        fold = folded(n // g)
        return fold if g == n else np.fft.fft(fold, axis=-1)

    spectra = _cached(memo, rows.factors[0], ("fold", g, key), spectra)
    lags = (m[:, None] - m[None, :]) // g % (n // g)
    return spectra[..., lags] * (np.conj(phase)[:, None] * phase[None, :] * rows.spec.dx)


def _period_points(spec: GridSpec, scale: ModularScale) -> int | None:
    """P, the grid points per period ell, where the position values repeat every P points.

    That holds where the grid arithmetic is exact: dx is a power of two, xmin is
    an integer multiple of it, ell = P dx with P dividing n, and every x + ell / 2
    is a multiple of dx / 2 below 2^53 of them. Then every grid point and every
    split of it at ell is exact, so xbar at point j + P is xbar at j, bit for bit,
    and N_x there is N_x at j plus 1. None for any other grid.
    """
    dx = spec.dx
    start, period = spec.xmin / dx, scale.ell / dx
    if math.frexp(dx)[0] != 0.5 or start != math.floor(start) or period != math.floor(period):
        return None
    n, period = spec.points, int(period)
    if not 0 < period <= n or n % period or abs(start) + n + period >= 2.0**52:
        return None
    return period


def _period_tables(factor: np.ndarray, size: int) -> np.ndarray:
    """(3, size) D_k[r] = sum_q (q - c)^k |factor|^2[r + q size], c = blocks // 2 the middle block.

    Centring q on the middle block keeps the N_x moments' terms near the
    result's size on a grid centred near x = 0.
    """
    blocks = factor.size // size
    q = np.arange(blocks, dtype=float) - blocks // 2
    return np.stack([np.ones(blocks), q, q * q]) @ (np.abs(factor) ** 2).reshape(blocks, size)


def _position_values(spec: GridSpec, name: str, scale: ModularScale, size: int, memo=None):
    """A position observable's values on the grid's first `size` points, kept in memo under spec."""

    def values():
        if size == spec.points:
            return observable_values(spec, name, scale)[1]
        return (modular_part if name == "xbar" else integer_part)(spec.x[:size], scale.ell)

    return _cached(memo, spec, (name, scale, size), values)


def _period_moments(rows: FactoredRows, name: str, scale: ModularScale, period: int, memo=None):
    """_moments of xbar or N_x on lattice rows, from one period's values.

    With L = max(n / G, P) and s = L / P, xbar at r + q L is xbar at r < L and
    N_x there is N_x(r) + s q. So |factor|^2 v folded on to L points is
    xbar_L D_0, and N_L D_0 + s D_1 for N_x, with D_k from _period_tables
    (N_L taken at the middle block); the squares expand likewise. The L-point
    folds fold on to n / G points as in lattice_gram.
    """
    spec = rows.spec
    factor = rows.factors[0]

    def folded(width):
        size = max(width, period)
        d0, d1, d2 = _cached(memo, factor, ("period", size), lambda: _period_tables(factor, size))
        v = _position_values(spec, name, scale, size, memo)
        if name == "xbar":
            first, second = v * d0, v * v * d0
        else:
            s = size // period
            v = v + s * (spec.points // size // 2)
            first = v * d0 + s * d1
            second = v * v * d0 + 2 * s * v * d1 + s * s * d2
        return _fold(np.stack([first, second]), width)

    return _lag_gram(rows, folded, memo, (name, scale, spec))


def window_moments(rows: FactoredRows, name: str, scale: ModularScale) -> np.ndarray | None:
    """(2, K, K) moments of p, pbar or N_p on Gaussian lattice rows whose windows are apart: a diagonal.

    Row k's FFT at column m_k + c is ph_k (sqrt(2 pi) / dx) phi_hat(p_c) e^{i p_c (xmin - x0)}, p_c
    the lattice momentum of offset c: the transform of phi(x - x0) periodized over the box, which
    differs from the FFT of its box-cut samples by the tail beyond the box. So the box must hold
    8 sigma a side, as default_grid pads, where phi is e^-16 of its peak. By Parseval, entry k is
    |ph_k|^2 dp sum_c |phi_hat(p_c)|^2 w(m_k + c) for w in (v, v^2), with no complex factor; |ph_k|^2,
    1 to rounding, is kept as the identity Gram keeps it, so each moment carries its row's norm.
    |phi_hat|^2 is normal of deviation 1 / (2 sigma): the infinite lattice's offsets beyond +-h
    hold tail <= erfc(sqrt(2) sigma h dp) <= e^{-2 (sigma h dp)^2} of a row's norm, and h is the
    least making wmax e^{-2 (sigma h dp)^2} < 2^-53, wmax = max(vmax, vmax^2), so the window
    m_k + [-h, h] leaves out one unit roundoff of the norm at most. Off the diagonal,
    |phi_hat(p_i) phi_hat(p_j)| is |phi_hat|^2 at their midpoint times e^{-(sigma D dp)^2 / 2}, D the
    rows' distance on the lattice; rows more than 2h apart cyclically make that below
    e^{-2 (sigma h dp)^2}, so the entry is below one unit roundoff of the norm, and it is 0.
    Aliased images of window columns lie beyond the window, in the tail. Rows whose windows meet
    (two rows at one momentum; combs of sigma below about 1.5 lambda) or reach half the lattice,
    where images fall inside them, rows whose box cuts the tail, and rows of any other envelope
    take the row route (None) instead.
    """
    if _lattice(rows) is None or rows.keys is None:
        return None
    envelope, centre = rows.keys[0]
    spec = rows.spec
    margin = min(centre - spec.xmin, spec.xmax - centre)  # the box's hold on the factor
    if envelope.kind != "gaussian" or margin < 8 * envelope.width:
        return None
    n, dp = spec.points, TWO_PI / spec.length
    vmax = _momentum_bound(spec, name, scale)
    step = math.sqrt(2.0) * envelope.sigma_x * dp
    half = math.ceil(math.sqrt(math.log1p(max(vmax, vmax * vmax) * 2.0**53)) / step)
    m, phase = rows.lattice
    # the cyclic gaps sum to n, so gaps above 2h also keep one window below half the lattice
    if np.min(np.diff(np.sort(m), append=np.min(m) + n)) <= 2 * half:
        return None
    offsets = np.arange(-half, half + 1)
    power = dp * envelope.fourier(_lattice_momenta(spec, offsets & (n - 1))) ** 2
    power = (np.conj(phase) * phase).real[:, None] * power  # (K, 2h + 1)
    v = observable_values(spec, name, scale, (m[:, None] + offsets) & (n - 1))[1]
    out = np.zeros((2, m.size, m.size), dtype=complex)
    diagonal = np.arange(m.size)
    out[:, diagonal, diagonal] = np.sum(v * power, axis=1), np.sum(v * v * power, axis=1)
    return out


def _cached(memo: dict | None, owner, key, compute):
    """compute() of an envelope factor or a grid spec, kept in memo under the object and key.

    A memo is one grid state's own and lives as long as it. Rows that hold one
    factor object share the factor's folded spectra and period tables, both
    particles share the spec's position values, and none outlive the state.
    """
    if memo is None:
        return compute()
    entry = memo.get((id(owner), key))
    if entry is None:
        # the entry holds its owner, so no other object can take the owner's id
        entry = memo[id(owner), key] = (owner, compute())
    return entry[1]


def _identity_gram(rows, spec: GridSpec, memo=None) -> np.ndarray:
    if _lattice(rows) is not None:
        return lattice_gram(rows, memo=memo)
    return gram(_array(rows), spec.dx)


class TwoParticleGridState:
    """Ensemble of sums of product terms on one grid, each normalized on the grid by itself.

    `coefs` is a pure state's (K,) coefficients of the terms a1[k](x1) a2[k](x2),
    or an ensemble's coefficient rows, one (terms, values) pair per component over
    the K terms they share, mixed by `weights`. Each particle's terms are a (K, n)
    array or FactoredRows, which are materialized only when `a1` or `a2` is read.
    Coefficient products vanish between the blocks of terms that the rows join
    (see _blocks), so Grams and moments are taken per block: a pure state is one
    block, a classical ensemble one per packet pair. A block's identity Grams
    <a_i|a_j> dx are computed once, here, and reused by the norms, the marginals
    and the observable statistics. Lattice rows' folded spectra and period
    tables are kept in the state's own `memo` for its life, once per factor
    object for both particles; it keeps no transform of a factor.
    """

    def __init__(self, spec: GridSpec, coefs, a1, a2, weights=(1.0,)):
        self.spec = spec
        pure = not (len(coefs) and all(isinstance(r, tuple) for r in coefs))
        rows = [(np.arange(np.size(coefs)), coefs)] if pure else coefs
        rows = [(np.asarray(t, dtype=np.intp), np.asarray(c, dtype=complex)) for t, c in rows]
        self.rows1, self.rows2 = (
            r if isinstance(r, FactoredRows) else np.asarray(r, dtype=complex) for r in (a1, a2)
        )
        k = np.size(coefs) if pure else self.rows1.shape[0]
        if k == 0:
            raise ValueError("two-particle grid state needs at least one term")
        shape = (k, spec.points)
        if any(c.shape != t.shape for t, c in rows) or not self.rows1.shape == self.rows2.shape == shape:
            raise ValueError("term arrays do not match the grid spec")
        w = np.asarray(weights, dtype=float)
        if w.shape != (len(rows),) or not np.all(w > 0):
            raise ValueError("need one positive weight per coefficient row")
        self.weights = w / w.sum()
        # the lattice rows' folds and the grid's position values, see _cached
        self.memo = {}
        self.blocks = []
        norms = np.empty(len(rows))
        with np.errstate(over="ignore", invalid="ignore"):
            for terms, members in _blocks([t for t, _ in rows], k):
                members = [(r, np.searchsorted(terms, rows[r][0])) for r in members]
                both = (_take(self.rows1, terms), _take(self.rows2, terms))
                grams = tuple(_identity_gram(r, spec, self.memo) for r in both)
                g = grams[0] * grams[1]
                for r, s in members:
                    norms[r] = np.real(rows[r][1].conj() @ g[np.ix_(s, s)] @ rows[r][1])
                self.blocks.append(_Block(terms, members, both, grams))
        for nrm2 in norms:
            _check_norm(nrm2, "product terms have zero norm on this grid")
        self.input_norm = float(np.min(norms))  # of the terms as given; an ensemble's smallest
        self.coef_rows = [(t, c / math.sqrt(n)) for (t, c), n in zip(rows, norms)]
        self.coefs = self.coef_rows[0][1] if pure else self.coef_rows

    @property
    def a1(self) -> np.ndarray:  # (K, spec.points)
        return _array(self.rows1)

    @property
    def a2(self) -> np.ndarray:  # (K, spec.points)
        return _array(self.rows2)

    @property
    def g1(self) -> np.ndarray:  # (K, K) identity Gram, 0 between blocks
        return self._gram(0)

    @property
    def g2(self) -> np.ndarray:
        return self._gram(1)

    def _gram(self, particle: int) -> np.ndarray:
        out = np.zeros((self.rows1.shape[0],) * 2, dtype=complex)
        for block in self.blocks:
            out[np.ix_(block.terms, block.terms)] = block.grams[particle]
        return out

    @property
    def norm(self) -> float:
        """The components' norms, weighted."""
        return sum(
            float(np.real(np.sum(_coef_product(self, b, self.weights) * b.grams[0] * b.grams[1])))
            for b in self.blocks
        )

    def marginal_density(self, particle: int) -> np.ndarray:
        """Reduced position density of particle 1 or 2 (partner traced out)."""
        if particle not in (1, 2):
            raise ValueError("particle must be 1 or 2")
        out = 0.0
        for block in self.blocks:
            keep, g = _array(block.rows[particle - 1]), block.grams[2 - particle]
            w = _coef_product(self, block, self.weights) * g
            out = out + np.real(np.einsum("ax,ax->x", keep.conj(), w @ keep))
        return out


class _Block(NamedTuple):
    """Terms that coefficient rows join (see _blocks), with both particles' rows and Grams of them."""

    terms: np.ndarray
    members: list  # (row, the places of its terms in `terms`)
    rows: tuple
    grams: tuple


def _blocks(supports, k: int) -> list:
    """(terms, rows) of each block: rows that share a term fall in one, with their terms.

    So each coefficient row lies in one block, and its products vanish off it.
    """
    label = np.arange(k)  # each term's block, named by a term that is its own label
    for terms in supports:
        if len(terms) > 1:
            joined = np.arange(k)
            joined[label[terms]] = label[terms].min()
            label = joined[label]
    rows = {}
    for r, terms in enumerate(supports):
        rows.setdefault(label[terms[0]], []).append(r)
    return [(np.unique(np.concatenate([supports[r] for r in rs])), rs) for rs in rows.values()]


def _take(rows, terms: np.ndarray):
    """The rows of the given terms, as rows of the same kind: all of them as they are."""
    if len(terms) == rows.shape[0]:
        return rows
    if not isinstance(rows, FactoredRows):
        return rows[terms]
    used = list(dict.fromkeys(rows.index[k] for k in terms))
    return FactoredRows(
        rows.spec,
        [rows.factors[f] for f in used],
        [used.index(rows.index[k]) for k in terms],
        [rows.waves[k] for k in terms],
        rows.keys and [rows.keys[f] for f in used],
    )


def _coef_product(state: TwoParticleGridState, block: _Block, weights) -> np.ndarray:
    """sum_r w_r conj(c_r)[:, None] c_r[None, :] over the block's coefficient rows c_r.

    With normalized rows its quadratic forms are the components' weighted means (total variance).
    """
    out = np.zeros((len(block.terms),) * 2, dtype=complex)
    for r, s in block.members:
        c = state.coef_rows[r][1]
        out[np.ix_(s, s)] += weights[r] * np.conj(c)[:, None] * c[None, :]
    return out


# ---------------------------------------------------------------------------
# observable machinery


def _lattice_momenta(spec: GridSpec, cols: np.ndarray) -> np.ndarray:
    """spec.p[cols], bitwise, without the full lattice: fftfreq's signed index times 1/(n dx)."""
    n = spec.points
    k = np.where(cols < (n + 1) // 2, cols, cols - n)
    return TWO_PI * (k * (1.0 / (n * spec.dx)))


def observable_values(
    spec: GridSpec, name: str, scale: ModularScale, cols: np.ndarray | None = None
) -> tuple[str, np.ndarray]:
    """Diagonal values of a single-particle observable: (domain, values).

    Given lattice indices `cols`, a momentum observable's values at those
    momenta only, each bitwise equal to the full lattice's.
    """
    if name == "x":
        return "position", spec.x
    if name == "xbar":
        return "position", modular_part(spec.x, scale.ell)
    if name == "N_x":
        return "position", integer_part(spec.x, scale.ell)
    p = spec.p if cols is None else _lattice_momenta(spec, cols)
    if name == "p":
        return "momentum", p
    if name == "pbar":
        return "momentum", modular_part(p, scale.momentum_period)
    if name == "N_p":
        return "momentum", integer_part(p, scale.momentum_period)
    raise ValueError(f"unknown single-particle observable {name!r}")


def _momentum_bound(spec: GridSpec, name: str, scale: ModularScale) -> float:
    """An upper bound on |values| of a momentum observable over the whole lattice.

    pbar lies in [-P/2, P/2); p and N_p grow with p, so their largest magnitude
    is at one of the lattice ends k = -n/2 and n/2 - 1, and the bound is the
    full lattice's maximum.
    """
    if name == "pbar":
        return scale.momentum_period / 2
    n = spec.points
    ends = observable_values(spec, name, scale, np.array([n // 2, n // 2 - 1]))[1]
    return float(np.max(np.abs(ends)))


def _require_commensurate(spec: GridSpec, name: str, scale: ModularScale):
    if name in ("p", "pbar", "N_p"):
        spec.check_commensurate(scale)


def apply_observable_raw(
    spec: GridSpec, psi: np.ndarray, name: str, scale: ModularScale
) -> np.ndarray:
    _require_commensurate(spec, name, scale)
    domain, vals = observable_values(spec, name, scale)
    if domain == "position":
        return vals * psi
    return np.fft.ifft(vals * np.fft.fft(psi))


_REL_TOT = {
    "xbar_rel": ("xbar", -1.0),
    "pbar_rel": ("pbar", -1.0),
    "N_p_tot": ("N_p", +1.0),
    "N_x_tot": ("N_x", +1.0),
}


def _moments(spec: GridSpec, rows, name: str, scale: ModularScale, memo=None):
    """(<a|O|b>, <a|O^2|b>) over the rows for the diagonal observable O named.

    Gaussian lattice rows whose windows are apart take the momentum moments as
    a diagonal (see window_moments), and lattice rows take xbar and N_x from
    one period where the grid has one (see _period_moments), keeping their
    folds in memo; other rows, and lattice rows on a grid without a period,
    are swept in full.
    Full position values are kept in memo, so particles and components on one
    grid compute them once.
    """
    if name in _MOMENTUM_OBS:
        window = window_moments(rows, name, scale)
        if window is not None:
            return window
        # Parseval: <a|ifft(v fft b)> dx = <fft a|v|fft b> dx / n
        vals = observable_values(spec, name, scale)[1]
        return gram(np.fft.fft(_array(rows), axis=1), spec.dx / spec.points, np.stack([vals, vals**2]))
    period = _period_points(spec, scale) if _lattice(rows) is not None and name in ("xbar", "N_x") else None
    if period is not None:
        return _period_moments(rows, name, scale, period, memo)
    vals = _position_values(spec, name, scale, spec.points, memo)
    return gram(_array(rows), spec.dx, np.stack([vals, vals**2]))


def _single_stats(state: GridState, name: str, scale: ModularScale) -> tuple[float, float]:
    _require_commensurate(state.spec, name, scale)
    mean, second = _moments(state.spec, state.psi[None], name, scale)[:, 0, 0].real
    return float(mean), float(second - mean**2)


def _pair_stats(state: TwoParticleGridState, name: str, scale: ModularScale, weights):
    """(mean, variance) of a pair observable in the components mixed by weights that sum to 1."""
    base, sign = _REL_TOT[name]
    mean = second = 0.0
    for block in state.blocks:
        cc = _coef_product(state, block, weights)
        (o1, o1sq), (o2, o2sq) = (_moments(state.spec, r, base, scale, state.memo) for r in block.rows)
        i1, i2 = block.grams

        def ev(e1, e2):
            return float(np.real(np.sum(cc * e1 * e2)))

        mean += ev(o1, i2) + sign * ev(i1, o2)
        second += ev(o1sq, i2) + ev(i1, o2sq) + 2.0 * sign * ev(o1, o2)
    # a vanishing variance cancels to a rounding error of either sign; report it as 0
    return mean, max(second - mean**2, 0.0)


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
        _require_commensurate(state.spec, base, scale)
        return _pair_stats(state, name, scale, state.weights)
    raise TypeError(f"unsupported state type {type(state).__name__}")


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
