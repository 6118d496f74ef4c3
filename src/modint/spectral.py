"""Criterion constant c: the smallest eigenvalue of N_p^2 + xbar^2/ell^2.

Three independent routes: a Kummer-function shooting solve of the boundary
problem, the second-order perturbative value 7/90, and a matrix-free grid
diagonalization used as a numerical oracle.
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


def kummer_M(a: float, b: float, x: float) -> float:
    """Confluent hypergeometric function M(a, b; x) = sum (a)_k x^k / ((b)_k k!)."""
    if b <= 0 and b == int(b):
        raise ValueError(f"b must not be a nonpositive integer, got {b}")
    from scipy.special import hyp1f1  # slow to import; only processes that need c pay it

    return float(hyp1f1(a, b, x))


def boundary_mismatch(mu: float, scale: ModularScale = ModularScale(1.0)) -> float:
    """Derivative of the even fiber eigenfunction at xbar = ell/2.

    The candidate eigenfunction is exp(-pi u^2) M(1/4 - pi mu/2, 1/2, 2 pi u^2)
    in the dimensionless variable u = xbar/ell; the derivative of M is
    taken analytically via M'(a,b,z) = (a/b) M(a+1, b+1, z). Roots in mu are
    the even-parity eigenvalues.
    """
    if not math.isfinite(mu):
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


@lru_cache(maxsize=16)
def _solve_c_cached(tolerance: float) -> tuple[float, tuple[float, ...], float]:
    seed = perturbative_c()
    lo, hi = seed - 0.02, seed + 0.02
    if boundary_mismatch(lo) * boundary_mismatch(hi) >= 0:
        raise RuntimeError("root bracket failed near the perturbative seed")
    c = _bisect(boundary_mismatch, lo, hi, tolerance)
    # enumerate the first few even-parity eigenvalues by scanning for sign changes
    head = [c]
    mu_grid = np.linspace(hi, 8.0, 1600).tolist()
    vals = [boundary_mismatch(m) for m in mu_grid]
    for i in range(len(mu_grid) - 1):
        if vals[i] == 0.0 or vals[i] * vals[i + 1] < 0:
            head.append(_bisect(boundary_mismatch, mu_grid[i], mu_grid[i + 1], tolerance))
            if len(head) >= 4:
                break
    return c, tuple(head), abs(boundary_mismatch(c))


def solve_c(tolerance: float = 1e-12) -> EigenSolveReport:
    """Smallest eigenvalue via bracketed root finding on the shooting function."""
    if tolerance < 1e-13:
        raise ValueError("tolerance below root-finder resolution")
    c, head, residual = _solve_c_cached(float(tolerance))
    return EigenSolveReport(c=c, mu_spectrum_head=list(head), method="kummer_shoot", residual=residual)


def perturbative_c() -> float:
    """Second-order perturbative approximation: (1/12)(1 - 1/15) = 7/90."""
    return 7.0 / 90.0


def brute_force_c(
    periods: int = 32,
    points_per_period: int = 128,
    ell: float = 1.0,
    tol: float = 1e-11,
    max_iter: int = 100,
    seed: int = 0,
    n_eigenvalues: int = 3,
) -> EigenSolveReport:
    """Oracle: smallest eigenvalue of N_p^2 + xbar^2/ell^2 on a periodic grid.

    The operator is applied matrix-free (two FFTs per application); the ground
    eigenvalue comes from inverse power iteration with conjugate-gradient inner
    solves started from a random vector, which scans all modular-momentum
    fibers.  The spectrum head is computed inside the zero fiber with
    deflation, where the eigenvalues are nondegenerate.
    """
    if periods < 8 or points_per_period < 32:
        raise ValueError("need periods >= 8 and points_per_period >= 32")
    from scipy.sparse.linalg import LinearOperator, cg  # slow to import; only the oracle needs it

    scale = ModularScale(ell)
    n = periods * points_per_period
    n = 1 << (n - 1).bit_length()
    points_per_period = n // periods
    spec = GridSpec(points=n, xmin=-periods * ell / 2, xmax=periods * ell / 2)
    xbar = modular_part(spec.x, ell)
    npv = integer_part(spec.p, scale.momentum_period)
    pot = xbar**2 / ell**2

    def apply_a(psi):
        return np.fft.ifft(npv**2 * np.fft.fft(psi)) + pot * psi

    op = LinearOperator((n, n), matvec=apply_a, dtype=complex)
    # Fourier-diagonal preconditioner: kinetic term plus the mean potential
    pre_diag = 1.0 / (npv**2 + 1.0 / 12.0)
    pre = LinearOperator(
        (n, n), matvec=lambda v: np.fft.ifft(pre_diag * np.fft.fft(v)), dtype=complex
    )

    def inverse_power(v0):
        v = v0 / np.linalg.norm(v0)
        mu = float(np.real(np.vdot(v, apply_a(v))))
        for _ in range(max_iter):
            w, _ = cg(op, v, rtol=1e-12, maxiter=20000, M=pre)
            w = w / np.linalg.norm(w)
            mu_new = float(np.real(np.vdot(w, apply_a(w))))
            v = w
            if abs(mu_new - mu) < tol:
                mu = mu_new
                break
            mu = mu_new
        else:
            raise RuntimeError(f"inverse power iteration did not converge in {max_iter} steps")
        return mu, v

    rng = np.random.default_rng(seed)
    v0 = rng.normal(size=n) + 1j * rng.normal(size=n)
    mu0, ground = inverse_power(v0)
    residual = float(np.linalg.norm(apply_a(ground) - mu0 * ground))

    # Spectrum head from the zero modular-momentum fiber: the fiber problem
    # lives on a single period with periodic boundaries, so a dense Hermitian
    # eigensolve on points_per_period points is cheap and avoids the slow
    # power-iteration separation of nearly degenerate excited pairs.
    m = points_per_period
    k_int = np.rint(np.fft.fftfreq(m, 1.0 / m)).astype(int)
    f = np.fft.fft(np.eye(m), axis=0)
    kinetic = np.conj(f.T) @ (k_int[:, None] ** 2 * f) / m
    u = np.arange(m) / m - 0.5  # same xbar/ell sampling as the full grid
    fiber = kinetic + np.diag(u**2)
    mu_fiber = np.linalg.eigvalsh(fiber)
    head = list(mu_fiber[:n_eigenvalues])

    return EigenSolveReport(
        c=mu0,
        mu_spectrum_head=head,
        method="brute_force",
        residual=residual,
        ground_state=GridState(spec, ground),
    )
