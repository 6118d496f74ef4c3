"""Criterion constant c: the smallest eigenvalue of N_p^2 + xbar^2/ell^2.

Three independent routes: a Kummer-function shooting solve of the boundary
problem, the second-order perturbative value 7/90, and a dense grid
diagonalization of one period, used as a numerical oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .grids import GridSpec, GridState
from .modvar import ModularScale, integer_part, modular_part


@dataclass
class EigenSolveReport:
    c: float
    mu_spectrum_head: list[float]
    method: str  # kummer_shoot | brute_force | perturbative
    residual: float
    ground_state: GridState | None = field(default=None, repr=False)


KUMMER_MAX_TERMS = 500  # power-series terms kummer_M sums before it gives up
KUMMER_TOL = 1e-12  # rounding error kummer_M accepts, absolute or relative to |M| > 1
BRUTE_MAX_POINTS_PER_PERIOD = 4096  # largest dense block brute_force_c diagonalizes
BRUTE_MAX_POINTS = 2**22  # largest full grid brute_force_c builds
SOLVE_TOL = 1e-12  # bracket width at which solve_c's bisection stops


def kummer_M(a, b: float, x: float):
    """Confluent hypergeometric function M(a, b; x) = sum (a)_k x^k / ((b)_k k!).

    Summed as its power series, elementwise over an array of `a`; a scalar `a`
    gives a Python float. For x < 0 Kummer's transformation
    M(a, b; x) = e^x M(b - a, b; -x) sums the series at -x instead. The sum
    stops once every term is at most 1e-17 of its total, and raises
    RuntimeError if that takes more than KUMMER_MAX_TERMS terms.

    Rounding leaves an error of about 2^-52 times the largest term. The result
    is trusted where that is at most KUMMER_TOL * max(1, |M|), i.e. to 1e-12
    absolute for |M| <= 1 and 1e-12 relative above; elsewhere (a well below 0
    with a large |a| x, where alternating terms dwarf the sum) it raises
    RuntimeError. `solve_c`'s range, a in [-12.4, 1.2] at x = pi/2, keeps the
    error under 1e-13.
    """
    if b <= 0 and b == int(b):
        raise ValueError(f"b must not be a nonpositive integer, got {b}")
    if x < 0:
        return math.exp(x) * kummer_M(b - a, b, -x)
    scalar = np.ndim(a) == 0
    a = float(a) if scalar else np.asarray(a, dtype=float)
    term = total = largest = 1.0 if scalar else np.ones_like(a)
    for k in range(KUMMER_MAX_TERMS):
        term = term * (a + k) * x / ((b + k) * (k + 1))
        total = total + term
        largest = max(largest, abs(term)) if scalar else np.maximum(largest, abs(term))
        small = abs(term) <= 1e-17 * abs(total)
        if small if scalar else small.all():  # np.all on a bool would cost µs per term
            break
    else:
        raise RuntimeError(f"Kummer series did not converge in {KUMMER_MAX_TERMS} terms")
    if not np.isfinite(total).all():
        raise RuntimeError(f"Kummer series overflowed at x = {x}")
    size = max(1.0, abs(total)) if scalar else np.maximum(1.0, abs(total))
    lost = largest * 2.0**-52 > KUMMER_TOL * size
    if lost if scalar else lost.any():
        raise RuntimeError(f"Kummer series lost its digits to cancellation at x = {x}")
    return total


def boundary_mismatch(mu, scale: ModularScale = ModularScale(1.0)):
    """Derivative of the even fiber eigenfunction at xbar = ell/2.

    The candidate eigenfunction is exp(-pi u^2) M(1/4 - pi mu/2, 1/2, 2 pi u^2)
    in the dimensionless variable u = xbar/ell; the derivative of M is
    taken analytically via M'(a,b,z) = (a/b) M(a+1, b+1, z). Roots in mu are
    the even-parity eigenvalues. Elementwise over an array of mu; a scalar mu
    gives a Python float.
    """
    mu = float(mu) if np.ndim(mu) == 0 else np.asarray(mu, dtype=float)
    if not np.isfinite(mu).all():
        raise ValueError("mu must be finite")
    a = 0.25 - math.pi * mu / 2.0
    z = math.pi / 2.0
    value = math.pi * math.exp(-math.pi / 4.0) * (
        4.0 * a * kummer_M(a + 1.0, 1.5, z) - kummer_M(a, 0.5, z)
    )
    return value / scale.ell


def _bisect(f, lo: float, hi: float, tolerance: float) -> float:
    """Root of f between lo and hi, where f changes sign.

    Bisection narrows the bracket to at most `tolerance`; a final secant step
    through its ends lands within it.
    """
    flo, fhi = f(lo), f(hi)
    while hi - lo > tolerance and flo != 0.0:
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if (fmid < 0) == (flo < 0):
            lo, flo = mid, fmid
        else:
            hi, fhi = mid, fmid
    return lo if flo == 0.0 else lo - flo * (hi - lo) / (fhi - flo)


@lru_cache(maxsize=1)
def _solve_c_cached() -> tuple[float, tuple[float, ...], float]:
    seed = perturbative_c()
    lo, hi = seed - 0.02, seed + 0.02
    if boundary_mismatch(lo) * boundary_mismatch(hi) >= 0:
        raise RuntimeError("root bracket failed near the perturbative seed")
    c = _bisect(boundary_mismatch, lo, hi, SOLVE_TOL)
    # enumerate the first few even-parity eigenvalues by scanning for sign changes
    head = [c]
    mu_grid = np.linspace(hi, 8.0, 1600)
    vals = boundary_mismatch(mu_grid)
    for i in np.flatnonzero((vals[:-1] == 0.0) | (vals[:-1] * vals[1:] < 0))[:3]:
        head.append(_bisect(boundary_mismatch, float(mu_grid[i]), float(mu_grid[i + 1]), SOLVE_TOL))
    return c, tuple(head), abs(boundary_mismatch(c))


def solve_c() -> EigenSolveReport:
    """Smallest eigenvalue via bracketed root finding on the shooting function, to SOLVE_TOL."""
    c, head, residual = _solve_c_cached()
    return EigenSolveReport(c=c, mu_spectrum_head=list(head), method="kummer_shoot", residual=residual)


def perturbative_c() -> float:
    """Second-order perturbative approximation: (1/12)(1 - 1/15) = 7/90."""
    return 7.0 / 90.0


def _modular_operator(spec: GridSpec, ell: float):
    """N_p^2 + xbar^2/ell^2 on a periodic grid, applied matrix-free (two FFTs)."""
    pot = (modular_part(spec.x, ell) / ell) ** 2
    npv2 = integer_part(spec.p, ModularScale(ell).momentum_period) ** 2
    return lambda psi: np.fft.ifft(npv2 * np.fft.fft(psi)) + pot * psi


def brute_force_c(periods: int = 32, points_per_period: int = 128) -> EigenSolveReport:
    """Oracle: smallest eigenvalue of N_p^2 + xbar^2/ell^2 on a periodic grid, at ell = 1.

    The grid spans `periods` periods of `m` points, m being points_per_period
    rounded up to a power of two. The operator commutes with translation by
    ell, so it splits into one block per modular momentum, and each block is
    the one-period problem with its integer momenta relabelled: every block
    has the spectrum of the first. `c`, the spectrum head (the three lowest
    eigenvalues) and the ground state come from one dense eigensolve of that
    m x m block, the kinetic term a real circulant and the potential
    xbar^2/ell^2 on the grid's first period.
    The ground state is the block's eigenvector repeated over all periods;
    `residual` is |A psi - c psi| for the full-grid operator A applied
    matrix-free, which checks the reduction at run time.

    `periods` must be a power of two, so the grid is one too. Raises
    ValueError, before anything is allocated, when m exceeds
    BRUTE_MAX_POINTS_PER_PERIOD (the block holds m^2 floats) or the grid
    exceeds BRUTE_MAX_POINTS.
    """
    if periods < 8 or points_per_period < 32:
        raise ValueError("need periods >= 8 and points_per_period >= 32")
    if periods & (periods - 1):
        raise ValueError(f"periods must be a power of two, got {periods}")
    m = 1 << (points_per_period - 1).bit_length()
    if m > BRUTE_MAX_POINTS_PER_PERIOD:
        raise ValueError(
            f"points_per_period rounds up to {m}, above the dense-block limit "
            f"BRUTE_MAX_POINTS_PER_PERIOD = {BRUTE_MAX_POINTS_PER_PERIOD}"
        )
    if periods * m > BRUTE_MAX_POINTS:
        raise ValueError(
            f"grid of {periods} x {m} points exceeds BRUTE_MAX_POINTS = {BRUTE_MAX_POINTS}"
        )
    spec = GridSpec(points=periods * m, xmin=-periods / 2, xmax=periods / 2)
    k = np.rint(np.fft.fftfreq(m, 1.0 / m))
    column = np.fft.ifft(k**2).real
    offsets = np.arange(m)
    block = column[(offsets[:, None] - offsets[None, :]) % m]
    block[offsets, offsets] += modular_part(spec.x[:m], 1.0) ** 2
    mu, vectors = np.linalg.eigh(block)
    c = float(mu[0])
    ground = np.tile(vectors[:, 0], periods) / math.sqrt(periods)
    residual = float(np.linalg.norm(_modular_operator(spec, 1.0)(ground) - c * ground))
    return EigenSolveReport(
        c=c,
        mu_spectrum_head=[float(v) for v in mu[:3]],
        method="brute_force",
        residual=residual,
        ground_state=GridState(spec, ground),
    )
