import math
import warnings

import numpy as np
import pytest

from modint.dynamics import (
    PropagationParams,
    ProtocolSpec,
    far_field_map,
    far_field_momentum_density,
    fit_fringe_visibility,
    free_propagate,
    protocol_visibility,
)
from modint.grids import GridSpec, GridState, TwoParticleGridState
from modint.modvar import H_PLANCK, fringe_function
from modint.states import GaussianEnvelope, build_mpe, build_multislit, default_grid, discretize


def gaussian_grid(sigma=1.0, points=4096, half=64.0, p0=0.0):
    spec = GridSpec(points=points, xmin=-half, xmax=half)
    psi = np.exp(-spec.x**2 / (4 * sigma**2) + 1j * p0 * spec.x)
    return GridState(spec, psi)


class TestFreePropagation:
    def test_zero_time_is_identity(self):
        gs = gaussian_grid()
        out = free_propagate(gs, PropagationParams(mass=1.0, time=0.0))
        assert np.allclose(out.psi, gs.psi, atol=1e-14)

    def test_gaussian_spreading_law(self):
        sigma, t, mass = 1.0, 3.0, 1.0
        gs = gaussian_grid(sigma)
        out = free_propagate(gs, PropagationParams(mass=mass, time=t))
        dens = out.position_density()
        var = np.sum(out.spec.x**2 * dens) * out.spec.dx
        expected = sigma**2 * (1 + (t / (2 * mass * sigma**2)) ** 2)
        assert var == pytest.approx(expected, rel=1e-8)

    def test_momentum_density_invariant(self):
        gs = gaussian_grid(p0=2.0)
        before = gs.momentum_density()
        out = free_propagate(gs, PropagationParams(mass=2.0, time=5.0))
        assert np.allclose(out.momentum_density(), before, atol=1e-12)

    def test_composition(self):
        gs = gaussian_grid()
        a = free_propagate(
            free_propagate(gs, PropagationParams(1.0, 1.25)), PropagationParams(1.0, 0.75)
        )
        b = free_propagate(gs, PropagationParams(1.0, 2.0))
        assert np.max(np.abs(a.psi - b.psi)) < 1e-12

    def test_norm_drift_many_steps(self):
        gs = gaussian_grid()
        params = PropagationParams(mass=1.0, time=1e-3)
        for _ in range(1000):
            gs = free_propagate(gs, params)
        assert abs(gs.norm - 1.0) < 1e-12

    def test_wraparound_rejected(self):
        gs = gaussian_grid(sigma=1.0, half=16.0, points=1024, p0=3.0)
        with pytest.raises(ValueError, match="wrap"):
            free_propagate(gs, PropagationParams(mass=1.0, time=10.0))

    def test_undersampled_momentum_rejected(self):
        spec = GridSpec(points=256, xmin=-16.0, xmax=16.0)  # dx = 0.125
        psi = np.exp(-spec.x**2 + 1j * 12.0 * spec.x)
        with pytest.raises(ValueError, match="aliasing"):
            free_propagate(GridState(spec, psi), PropagationParams(1.0, 0.1))

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            PropagationParams(mass=0.0, time=1.0)
        with pytest.raises(ValueError):
            PropagationParams(mass=1.0, time=-1.0)


def _reference_propagate(spec, psi, params, tail=1e-9):
    """One row as propagated before the batched routine: its own supports, two FFTs."""
    w = np.abs(np.fft.fft(psi)) ** 2
    w /= w.sum()
    order = np.argsort(np.abs(spec.p))
    cum = np.cumsum(w[order])
    pmax = float(np.abs(spec.p[order[min(np.searchsorted(cum, 1 - tail), spec.points - 1)]]))
    assert not (pmax > 0 and spec.dx >= H_PLANCK / (4 * pmax))
    cum = np.cumsum(np.abs(psi) ** 2 / np.sum(np.abs(psi) ** 2))
    lo = spec.x[np.searchsorted(cum, tail / 2)]
    hi = spec.x[min(np.searchsorted(cum, 1 - tail / 2), spec.points - 1)]
    shift = pmax / params.mass * params.time
    assert spec.xmin <= lo - shift and hi + shift <= spec.xmax
    phase = np.exp(-1j * spec.p**2 * params.time / (2 * params.mass))
    return np.fft.ifft(phase * np.fft.fft(psi))


class TestPairPropagation:
    def test_matches_the_per_row_reference(self):
        st = build_mpe(3, x0=0.37, N0=1, lam=1.0, envelope=GaussianEnvelope(5.0))
        gs = discretize(st, GridSpec(points=4096, xmin=-64.0, xmax=64.0))
        params = PropagationParams(mass=1.0, time=0.5)
        moved = free_propagate(gs, params)
        for before, after in ((gs.a1, moved.a1), (gs.a2, moved.a2)):
            want = np.array([_reference_propagate(gs.spec, a, params) for a in before])
            assert np.max(np.abs(after - want)) <= 1e-12 * np.max(np.abs(want))

    def test_wraparound_checked_per_row(self):
        # the second row alone would wrap; summed with the first, it would sit far
        # below the support tail
        spec = GridSpec(points=1024, xmin=-16.0, xmax=16.0)
        rest = np.exp(-spec.x**2 / 4)
        rows = np.array([rest, 1e-6 * rest * np.exp(3j * spec.x)])
        gs = TwoParticleGridState(spec, np.ones(2), rows, np.array([rest, rest]))
        params = PropagationParams(mass=1.0, time=2.0)
        free_propagate(TwoParticleGridState(spec, [1.0], rows[:1], rows[:1]), params)
        with pytest.raises(ValueError, match="wrap"):
            free_propagate(gs, params)


class TestFarField:
    def test_map_is_affine(self):
        params = PropagationParams(mass=2.0, time=4.0)
        x = np.array([0.0, 1.0, 3.0])
        assert np.allclose(far_field_map(x, 1.0, params), 2.0 * (x - 1.0) / 4.0)

    def test_map_requires_positive_time(self):
        with pytest.raises(ValueError):
            far_field_map(np.array([1.0]), 0.0, PropagationParams(1.0, 0.0))

    def test_density_normalized_after_map(self):
        gs = gaussian_grid()
        params = PropagationParams(mass=1.0, time=8.0)
        out = free_propagate(gs, params)
        p, dens = far_field_momentum_density(out, params)
        assert np.trapezoid(dens, p) == pytest.approx(1.0, abs=1e-9)

    def test_gaussian_momentum_width_recovered(self):
        # far field of a spreading gaussian reproduces its momentum variance
        sigma = 0.5
        gs = gaussian_grid(sigma, points=8192, half=256.0)
        params = PropagationParams(mass=1.0, time=35.0)
        out = free_propagate(gs, params)
        p, dens = far_field_momentum_density(out, params)
        var = np.trapezoid(p**2 * dens, p)
        assert var == pytest.approx(1 / (4 * sigma**2), rel=1e-3)


class TestFringeVisibilityFit:
    def test_perfect_pattern(self):
        r = np.linspace(-1.5, 1.5, 601)
        for N in (2, 3, 5):
            assert fit_fringe_visibility(r, fringe_function(N, r), N, 1.0) == 1.0

    def test_flat_pattern(self):
        r = np.linspace(-1.5, 1.5, 601)
        assert fit_fringe_visibility(r, np.ones_like(r), 3, 1.0) == pytest.approx(0.0, abs=1e-9)

    def test_mixture_contrast(self):
        r = np.linspace(-1.5, 1.5, 601)
        N = 2
        for v in (0.25, 0.5, 0.75):
            # a*F_N + b with contrast v = aN/(aN + 2b)
            a = v
            b = N * (1 - v) / 2
            pattern = a * fringe_function(N, r) + b
            assert fit_fringe_visibility(r, pattern, N, 1.0) == pytest.approx(v, abs=1e-9)

    def test_result_clipped_to_unit_interval(self):
        r = np.linspace(-1.5, 1.5, 601)
        assert fit_fringe_visibility(r, -fringe_function(2, r), 2, 1.0) == 0.0


class TestFarFieldFringes:
    @pytest.mark.parametrize("N", [2, 3])
    def test_multislit_far_field_peak_positions(self, N):
        # grating of period L: far-field peaks at integer multiples of 2 pi / L
        L, sigma, t = 1.0, 0.05, 6.0
        st = build_multislit(N, L=L, envelope=GaussianEnvelope(sigma))
        spec = GridSpec(points=65536, xmin=-640.0, xmax=640.0)
        gs = discretize(st, spec)
        params = PropagationParams(mass=1.0, time=t)
        assert sigma * np.sqrt(1 + (t / (2 * sigma**2)) ** 2) > 50 * L
        out = free_propagate(gs, params)
        p, dens = far_field_momentum_density(out, params)
        per = 2 * np.pi / L
        for k in (-1, 1):
            window = np.abs(p - k * per) < 0.4 * per
            peak = p[window][np.argmax(dens[window])]
            assert abs(peak - k * per) < 0.02 * per


class TestProtocol:
    ENV = GaussianEnvelope(8.0)

    def make(self, N=3, stagger=0.0):
        return ProtocolSpec(
            N=N,
            emission_times=tuple(n * stagger for n in range(N)),
            lam=1.0,
            envelope=self.ENV,
            mass=1.0,
        )

    def test_zero_stagger_unity(self):
        assert protocol_visibility(self.make(), meeting_time=60.0) == pytest.approx(1.0, abs=1e-9)

    def test_strictly_decreasing_with_stagger(self):
        staggers = [0.0, 5.0, 10.0, 20.0, 40.0]
        vals = [
            protocol_visibility(self.make(stagger=s), meeting_time=60.0 + 2 * s)
            for s in staggers
        ]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert all(0.0 <= v <= 1.0 for v in vals)

    def test_meeting_before_emission_rejected(self):
        spec = self.make(stagger=10.0)
        with pytest.raises(ValueError):
            protocol_visibility(spec, meeting_time=15.0)

    def test_decreasing_times_rejected(self):
        with pytest.raises(ValueError):
            ProtocolSpec(
                N=2, emission_times=(1.0, 0.0), lam=1.0, envelope=self.ENV, mass=1.0
            )

    @pytest.mark.parametrize("sigma, lam", [(1e-100, 1.0), (8.0, 1e200)])
    def test_nonfinite_algebra_rejected(self, sigma, lam):
        # sigma^2 |s|^2 overflows in the coefficients; r^2 overflows in the terms
        spec = ProtocolSpec(
            N=2, emission_times=(0.0, 40.0), lam=lam, envelope=GaussianEnvelope(sigma), mass=1.0
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="not finite"):
                protocol_visibility(spec, meeting_time=140.0)

    @pytest.mark.parametrize("N", [0, 1])
    def test_rank_below_two_rejected(self, N):
        with pytest.raises(ValueError, match="N >= 2"):
            ProtocolSpec(N=N, emission_times=(0.0,) * N, lam=1.0, envelope=self.ENV, mass=1.0)


def _quadrature_protocol_visibility(spec, meeting_time, mass, hbar, first_integer):
    """Reference: the relative-coordinate density by brute-force quadrature.

    Every packet is sampled on a 4096-point x grid and particle 2's packets on
    the shifted grid x - r for each of the 601 r values. The packets disperse
    with the given mass and hbar, and the comb starts at first_integer.
    """
    sigma = spec.envelope.sigma_x
    per = H_PLANCK / spec.lam
    dwells = [meeting_time - t for t in spec.emission_times]
    momenta = [(first_integer + n) * per for n in range(spec.N)]

    def amplitude(x, p0, dwell):
        s = 1.0 + 1j * hbar * dwell / (2 * mass * sigma**2)
        env = (2 * math.pi * sigma**2) ** -0.25 / np.sqrt(s) * np.exp(-(x**2) / (4 * sigma**2 * s))
        return np.exp(1j * p0 * x) * env

    smax = max(
        sigma * math.sqrt(1 + (hbar * d / (2 * mass * sigma**2)) ** 2) for d in dwells
    )
    x = np.linspace(-8 * smax, 8 * smax, 4096)
    r = np.linspace(-1.5 * spec.lam, 1.5 * spec.lam, 601)
    amps1 = [amplitude(x, p, d) for p, d in zip(momenta, dwells)]
    xs = x[None, :] - r[:, None]
    amps2 = [amplitude(xs, -p, d) for p, d in zip(momenta, dwells)]
    dx = x[1] - x[0]
    rho = np.zeros_like(r)
    env = np.zeros_like(r)
    for m in range(spec.N):
        for n in range(spec.N):
            term = ((amps2[m] * np.conj(amps2[n])) @ (amps1[m] * np.conj(amps1[n]))).real * dx
            rho += term
            if m == n:
                env += term
    return fit_fringe_visibility(r, spec.N * rho / env, spec.N, spec.lam)


@pytest.mark.parametrize(
    "N, stagger, mass, hbar, first_integer, sigma",
    [
        (2, 0.0, 1.0, 1.0, 1, 8.0),
        (2, 10.0, 3.0, 1.0, 1, 8.0),
        (2, 40.0, 1.0, 1.0, 3, 4.0),
        (3, 10.0, 1.0, 0.5, 1, 8.0),
        (3, 40.0, 3.0, 2.0, 1, 8.0),
        (3, 40.0, 1.0, 1.0, 2, 16.0),
    ],
)
def test_closed_form_matches_quadrature(N, stagger, mass, hbar, first_integer, sigma):
    # the closed form, in units with hbar = 1 and its comb from 1, against a
    # quadrature at the given hbar and first integer: only mass / hbar enters,
    # and the first integer cancels in the momentum differences
    spec = ProtocolSpec(
        N=N,
        emission_times=tuple(n * stagger for n in range(N)),
        lam=1.0,
        envelope=GaussianEnvelope(sigma),
        mass=mass / hbar,
    )
    meeting_time = 60.0 + 2 * stagger
    reference = _quadrature_protocol_visibility(spec, meeting_time, mass, hbar, first_integer)
    assert abs(protocol_visibility(spec, meeting_time) - reference) <= 1e-9
