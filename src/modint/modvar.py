"""Closed-form modular-variable mathematics.

Conventions: hbar = 1, so the Planck constant is h = 2*pi. Splitting a
position at scale ell gives x = N_x * ell + xbar with xbar in the half-open
interval [-ell/2, ell/2); momenta split with period h/ell = 2*pi/ell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi
H_PLANCK = TWO_PI  # hbar = 1


@dataclass(frozen=True)
class ModularScale:
    """Partition length ell; the momentum partition period is h/ell."""

    ell: float

    def __post_init__(self):
        if not (math.isfinite(self.ell) and self.ell > 0):
            raise ValueError(f"ell must be positive and finite, got {self.ell}")

    @property
    def momentum_period(self) -> float:
        return H_PLANCK / self.ell

    def period(self, axis: str) -> float:
        if axis == "position":
            return self.ell
        if axis == "momentum":
            return self.momentum_period
        raise ValueError(f"axis must be 'position' or 'momentum', got {axis!r}")


@dataclass(frozen=True)
class ModularValue:
    integer_part: int
    modular_part: float

    def reconstruct(self, period: float) -> float:
        return self.integer_part * period + self.modular_part


# Values split at a time, which bounds the split's temporaries however many there are.
SPLIT_BLOCK = 1 << 14
# Veltkamp's constant 2**27 + 1: it splits a double into two halves of at most 26
# bits, so an integer k with |k| < SPLIT_REACH times either half is exact.
_VELTKAMP = 134217729.0
SPLIT_REACH = 2.0**26
# Periods whose halves and multiples neither overflow nor fall below the subnormal
# spacing, so that the products of the exact split hold every bit.
_EXACT_PERIODS = (2.0**-960, 2.0**960)


def _split(values, period, integer=True, modular=True):
    """(integer, modular) parts of values at period, as float arrays of their shape.

    A part not asked for is None, and no array is allocated for it. With
    t = fl(v + p/2) and k = floor(t/p), the modular part is
    fl(fl(t - k p) - p/2), bit for bit that of (v + p/2) % p - p/2, but
    in [-p/2, p/2) where that rounds up to p/2 (t just below 0, where
    fl(t + p) = p). floor(fl(t/p)) is never below k, since rounding keeps
    t/p >= k + 1 at the float k + 1, and while |k| < SPLIT_REACH it is at
    most k + 1. t - k p is formed as s - e with P = fl(k p), e = k p - P by
    Dekker's two-product (1971) and s = t - P, which is exact by Sterbenz
    except at k = -1, where s = fl(t + p) is what % rounds to as well. So
    r = fl(s - e) is the remainder, rounded once, and r < 0 means the
    quotient was one too large; r + p is then exact. A block with a
    non-finite value or |t/p| >= SPLIT_REACH, and every period outside
    _EXACT_PERIODS, takes the % expression and round((v - m)/p), with their
    values and warnings.
    """
    p = float(period)
    if not (math.isfinite(p) and p > 0):
        raise ValueError(f"period must be positive and finite, got {period}")
    values = np.asarray(values, dtype=float)
    flat = values.ravel()
    half = p / 2
    below = np.nextafter(half, -math.inf)
    reach = 0.0  # no block is split exactly
    if _EXACT_PERIODS[0] <= p <= _EXACT_PERIODS[1]:
        # |t| < reach is |t/p| < SPLIT_REACH, tested before the division can overflow
        reach = SPLIT_REACH * p
        big = _VELTKAMP * p
        p_hi = big - (big - p)
        p_lo = p - p_hi
    whole = np.empty(flat.size) if integer else None
    mod = np.empty(flat.size) if modular else None
    for lo in range(0, flat.size, SPLIT_BLOCK):
        v = flat[lo : lo + SPLIT_BLOCK]
        at = slice(lo, lo + v.size)
        t = v + half
        if not (-reach < t.min() and t.max() < reach):  # NaN fails too
            r = t % p - half
            if integer:
                whole[at] = np.round((v - r) / p)
        else:
            k = np.floor(t / p)
            prod = k * p
            err = (k * p_hi - prod) + k * p_lo
            s = t - prod
            r = s - err
            if r.min() < 0.0:
                off = np.flatnonzero(r < 0.0)
                k[off] -= 1.0
                r[off] += p
            if integer:
                whole[at] = k
            r -= half
        if modular:
            # r = p/2 only where fl(t + p) rounds up to p, at k = -1
            np.minimum(r, below, out=mod[at])
    return tuple(None if a is None else a.reshape(values.shape)[()] for a in (whole, mod))


def modular_part(values, period):
    """Symmetric remainder in [-period/2, period/2). Works on arrays."""
    return _split(values, period, integer=False)[1]


def integer_part(values, period):
    """Integer quotient of the symmetric split, as floats. Works on arrays."""
    return _split(values, period, modular=False)[0]


def modular_decompose(value: float, scale: ModularScale, axis: str = "position") -> ModularValue:
    """Split value into integer and modular parts at the scale's period."""
    if not math.isfinite(value):
        raise ValueError(f"value must be finite, got {value}")
    n, frac = _split(value, scale.period(axis))
    return ModularValue(integer_part=int(n), modular_part=float(frac))


def _check_rank(N: int) -> int:
    if N != int(N):
        raise ValueError(f"superposition rank N must be an integer, got {N}")
    N = int(N)
    if N < 1:
        raise ValueError(f"superposition rank N must be >= 1, got {N}")
    return N


def fringe_function(N: int, x) -> np.ndarray | float:
    """N-slit fringe intensity: period 1, mean 1, peak value N.

    F_N(x) = 1 + (2/N) * sum_{j=1}^{N-1} (N-j) cos(2 pi j x)
    """
    N = _check_rank(N)
    x = np.asarray(x, dtype=float)
    out = np.ones_like(x)
    for j in range(N - 1, 0, -1):
        out += (2.0 * (N - j) / N) * np.cos(TWO_PI * j * x)
    return out if out.ndim else float(out)


def squeezing_s1(N: int) -> float:
    """Single-particle modular-position squeezing function, in [0, 1)."""
    N = _check_rank(N)
    s = 0.0
    for j in range(N - 1, 0, -1):  # ascending magnitude: bounds round-off
        s += (-1) ** j * (N - j) / (N * j * j)
    return -(12.0 / math.pi**2) * s + 0.0  # + 0.0 avoids returning -0.0 at N = 1


def squeezing_s2(N: int) -> float:
    """Two-particle modular relative-position squeezing function, in [0, 1)."""
    N = _check_rank(N)
    s = 0.0
    for j in range(N - 1, 0, -1):
        s += (N - j) / (N * j * j)
    return (6.0 / math.pi**2) * s


def smp_modular_position_variance(N: int, scale: ModularScale) -> float:
    """Variance of xbar in the rank-N momentum-comb state: ell^2/12 (1 - S1)."""
    return scale.ell**2 / 12.0 * (1.0 - squeezing_s1(N))


def mpe_modular_relative_variance(N: int, scale: ModularScale) -> float:
    """Variance of xbar_1 - xbar_2 in the rank-N entangled state: ell^2/6 (1 - S2)."""
    return scale.ell**2 / 6.0 * (1.0 - squeezing_s2(N))


def smp_integer_momentum_variance(N: int) -> float:
    """Variance of the integer momentum in the rank-N momentum comb: (N^2-1)/12."""
    N = _check_rank(N)
    return (N * N - 1) / 12.0


def smp_commutator_expectation(N: int, scale: ModularScale) -> float:
    """|<[xbar, N_p]>| in the rank-N momentum comb (fringe phase zero).

    (ell/2pi) [1 - (1 + (-1)^(N+1)) / (2N)]; zero at N = 1, ell/2pi as N -> inf.
    """
    N = _check_rank(N)
    return scale.ell / TWO_PI * (1.0 - (1.0 + (-1.0) ** (N + 1)) / (2.0 * N))
