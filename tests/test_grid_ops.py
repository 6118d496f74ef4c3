import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from modint.dynamics import PropagationParams, free_propagate
from modint.grids import (
    GRAM_BLOCK,
    FactoredRows,
    GridSpec,
    GridState,
    IncommensurateGridError,
    TwoParticleGridState,
    _moments,
    _momentum_bound,
    _period_points,
    apply_observable_raw,
    commutator_expectation,
    gram,
    lattice_gram,
    observable_stats,
    observable_values,
    window_moments,
)
from modint import grids
from modint.modvar import (
    TWO_PI,
    ModularScale,
    mpe_modular_relative_variance,
    smp_commutator_expectation,
    smp_integer_momentum_variance,
    smp_modular_position_variance,
)
from modint.criterion import evaluate_criterion, robustness_threshold
from modint.states import (
    GaussianEnvelope,
    SincEnvelope,
    TabulatedEnvelope,
    TwoParticleState,
    WavePacket,
    _amplitude_rows,
    _overlap_matrix,
    _quadrature_grid,
    admixture_state,
    build_classical_correlated,
    build_mpe,
    build_multislit,
    build_smp,
    default_grid,
    discretize,
    mix,
)

SCALE = ModularScale(1.0)
WIDE = GaussianEnvelope(sigma_x=8.0)


def smp_grid(N, points_per_ell=256, **kw):
    st = build_smp(N, x0=kw.pop("x0", 0.0), N0=kw.pop("N0", 1), lam=1.0, envelope=WIDE)
    return discretize(st, default_grid(st, 1.0, points_per_ell=points_per_ell))


class TestGridSpec:
    def test_basic_properties(self):
        spec = GridSpec(points=64, xmin=-4.0, xmax=4.0)
        assert spec.dx == pytest.approx(0.125)
        assert len(spec.x) == 64
        assert spec.x[0] == pytest.approx(-4.0)
        # momentum grid is the FFT dual
        assert np.max(np.abs(spec.p)) == pytest.approx(np.pi / spec.dx, rel=1e-9)

    def test_points_are_built_once_and_read_only(self):
        spec = GridSpec(points=64, xmin=-4.0, xmax=4.0)
        assert spec.x is spec.x
        assert np.array_equal(spec.x, -4.0 + spec.dx * np.arange(64))
        with pytest.raises(ValueError):
            spec.x[0] = 0.0
        assert spec == GridSpec(points=64, xmin=-4.0, xmax=4.0)

    def test_momenta_are_built_once_and_read_only(self):
        spec = GridSpec(points=64, xmin=-4.0, xmax=4.0)
        assert spec.p is spec.p
        assert spec.p.tobytes() == (TWO_PI * np.fft.fftfreq(64, d=spec.dx)).tobytes()
        with pytest.raises(ValueError):
            spec.p[0] = 1.0
        assert spec == GridSpec(points=64, xmin=-4.0, xmax=4.0)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            GridSpec(points=100, xmin=0.0, xmax=1.0)  # not a power of two
        with pytest.raises(ValueError):
            GridSpec(points=8, xmin=0.0, xmax=1.0)  # too few points
        with pytest.raises(ValueError):
            GridSpec(points=64, xmin=1.0, xmax=1.0)

    def test_commensurate_check(self):
        spec = GridSpec(points=256, xmin=-4.0, xmax=4.0)
        assert spec.check_commensurate(ModularScale(1.0)) == 8
        with pytest.raises(IncommensurateGridError):
            spec.check_commensurate(ModularScale(0.3))

    @pytest.mark.parametrize("value", [math.nan, math.inf, 1e200], ids=["nan", "inf", "overflow"])
    def test_grid_state_refuses_a_norm_that_is_not_finite(self, value):
        spec = GridSpec(points=16, xmin=-1.0, xmax=1.0)
        psi = np.ones(16)
        psi[3] = value
        with pytest.raises(ValueError, match="squared norm is (nan|inf)"):
            GridState(spec, psi)
        with pytest.raises(ValueError, match="cannot normalize a zero state"):
            GridState(spec, np.zeros(16))

    def test_momentum_ops_require_commensurate_box(self):
        spec = GridSpec(points=256, xmin=-4.1, xmax=4.0)
        psi = np.exp(-spec.x**2)
        state = GridState(spec, psi)
        with pytest.raises(IncommensurateGridError):
            observable_stats(state, "N_p", SCALE)


class TestObservableValues:
    def test_position_diagonal(self):
        spec = GridSpec(points=256, xmin=-4.0, xmax=4.0)
        domain, xbar = observable_values(spec, "xbar", SCALE)
        assert domain == "position"
        assert np.all(xbar >= -0.5) and np.all(xbar < 0.5)
        _, nx = observable_values(spec, "N_x", SCALE)
        assert np.allclose(nx + xbar, spec.x, atol=1e-12)

    def test_momentum_diagonal(self):
        spec = GridSpec(points=256, xmin=-4.0, xmax=4.0)
        domain, npv = observable_values(spec, "N_p", SCALE)
        assert domain == "momentum"
        _, pbar = observable_values(spec, "pbar", SCALE)
        assert np.allclose(npv * SCALE.momentum_period + pbar, spec.p, atol=1e-9)

    def test_unknown_name(self):
        spec = GridSpec(points=64, xmin=-1.0, xmax=1.0)
        with pytest.raises(ValueError):
            observable_values(spec, "energy", SCALE)


class TestHermiticity:
    @pytest.mark.parametrize("name", ["x", "xbar", "N_x", "p", "pbar", "N_p"])
    def test_expectations_real(self, name):
        rng = np.random.default_rng(3)
        spec = GridSpec(points=512, xmin=-8.0, xmax=8.0)
        psi = rng.normal(size=512) + 1j * rng.normal(size=512)
        state = GridState(spec, psi)
        opsi = apply_observable_raw(spec, state.psi, name, SCALE)
        ev = np.vdot(state.psi, opsi) * spec.dx
        assert abs(ev.imag) < 1e-10 * max(1.0, abs(ev.real))


class TestClosedFormAgreement:
    @pytest.mark.parametrize("N", [1, 2, 3, 4, 6])
    def test_smp_modular_position_variance(self, N):
        gs = smp_grid(N)
        _, var = observable_stats(gs, "xbar", SCALE)
        ref = smp_modular_position_variance(N, SCALE)
        assert var == pytest.approx(ref, rel=2e-4)

    @pytest.mark.parametrize("N", [1, 2, 3, 4, 6])
    def test_smp_integer_momentum_variance(self, N):
        gs = smp_grid(N)
        _, var = observable_stats(gs, "N_p", SCALE)
        assert var == pytest.approx(smp_integer_momentum_variance(N), abs=1e-8)

    @pytest.mark.parametrize("N", [2, 3, 4])
    def test_mpe_relative_variance(self, N):
        st = build_mpe(N, x0=0.0, N0=1, lam=1.0, envelope=WIDE)
        # the modular kink converges O(dx^2): 512 points/period for 1e-4 rel
        gs = discretize(st, default_grid(st, 1.0, points_per_ell=512))
        _, var = observable_stats(gs, "xbar_rel", SCALE)
        assert var == pytest.approx(mpe_modular_relative_variance(N, SCALE), rel=1e-4)

    @pytest.mark.parametrize("N", [2, 3, 4])
    def test_mpe_total_momentum_sharp(self, N):
        st = build_mpe(N, x0=0.0, N0=1, lam=1.0, envelope=WIDE)
        gs = discretize(st, default_grid(st, 1.0))
        mean, var = observable_stats(gs, "N_p_tot", SCALE)
        # counterpropagating components: N_1 + N_2 is the same in every branch
        assert var == pytest.approx(0.0, abs=1e-8)
        assert mean == pytest.approx(0.0, abs=1e-8)

    @pytest.mark.parametrize("N", range(1, 7))
    def test_commutator_closed_form(self, N):
        gs = smp_grid(N, points_per_ell=512)
        val = commutator_expectation(gs, ("xbar", "N_p"), SCALE)
        ref = 1j * smp_commutator_expectation(N, SCALE)
        assert abs(val - ref) < 1e-5

    def test_commutator_rejects_unknown_pair(self):
        gs = smp_grid(2)
        with pytest.raises(ValueError):
            commutator_expectation(gs, ("x", "p"), SCALE)


class TestUncertaintyFloor:
    def test_random_states_respect_floor(self):
        from modint.spectral import solve_c

        c = solve_c().c
        rng = np.random.default_rng(11)
        spec = GridSpec(points=1024, xmin=-8.0, xmax=8.0)
        for _ in range(25):
            psi = rng.normal(size=1024) + 1j * rng.normal(size=1024)
            state = GridState(spec, psi)
            s = observable_stats(state, "N_p", SCALE)[1] + observable_stats(state, "xbar", SCALE)[1]
            assert s >= c - 1e-4

    def test_robertson_bound_on_smp(self):
        # Var(xbar) Var(N_p) >= |<[xbar, N_p]>|^2 / 4 on fringe states
        for N in range(1, 11):
            gs = smp_grid(N)
            vx = observable_stats(gs, "xbar", SCALE)[1]
            vn = observable_stats(gs, "N_p", SCALE)[1]
            comm = abs(commutator_expectation(gs, ("xbar", "N_p"), SCALE))
            assert vx * vn >= comm**2 / 4 - 1e-9


class TestPhaseAndMixture:
    def test_global_phase_invariance(self):
        gs = smp_grid(3)
        rotated = GridState(gs.spec, gs.psi * np.exp(1j * 0.77))
        for name in ("xbar", "N_p"):
            assert observable_stats(rotated, name, SCALE) == pytest.approx(
                observable_stats(gs, name, SCALE)
            )

    def test_two_particle_requires_pair_observable(self):
        st = build_mpe(2, x0=0.0, N0=1, lam=1.0, envelope=WIDE)
        gs = discretize(st, default_grid(st, 1.0))
        with pytest.raises(ValueError):
            observable_stats(gs, "xbar", SCALE)
        single = smp_grid(2)
        with pytest.raises(ValueError):
            observable_stats(single, "xbar_rel", SCALE)


# ---------------------------------------------------------------------------
# the product-term carrier and its Gram routine against per-term loops

_REL_TOT = {
    "xbar_rel": ("xbar", -1.0),
    "pbar_rel": ("pbar", -1.0),
    "N_p_tot": ("N_p", +1.0),
    "N_x_tot": ("N_x", +1.0),
}


def _loop_elements(spec, arrs, name, power):
    """<a|O^power|b> term by term: np.vdot against v**k * b or ifft(v**k * fft(b))."""
    domain, vals = observable_values(spec, name, SCALE)
    v = vals**power
    ops = [v * b if domain == "position" else np.fft.ifft(v * np.fft.fft(b)) for b in arrs]
    return np.array([[np.vdot(a, b) * spec.dx for b in ops] for a in arrs])


def _loop_pair_stats(gs, name):
    base, sign = _REL_TOT[name]
    c = gs.coefs
    cc = np.conj(c)[:, None] * c[None, :]
    e1 = [_loop_elements(gs.spec, gs.a1, base, k) for k in range(3)]
    e2 = [_loop_elements(gs.spec, gs.a2, base, k) for k in range(3)]

    def ev(m1, m2):
        return float(np.real(np.sum(cc * m1 * m2)))

    mean = ev(e1[1], e2[0]) + sign * ev(e1[0], e2[1])
    second = ev(e1[2], e2[0]) + ev(e1[0], e2[2]) + 2.0 * sign * ev(e1[1], e2[1])
    return mean, second - mean**2


def mpe_grid(N, envelope=WIDE, grid=None):
    st = build_mpe(N, x0=0.0, N0=1, lam=1.0, envelope=envelope)
    return discretize(st, grid or default_grid(st, 1.0))


class TestProductTermCore:
    def test_gram_matches_vdot_loop_across_blocks(self):
        rng = np.random.default_rng(5)
        n = GRAM_BLOCK + 1000  # one full block and a partial one
        A = rng.normal(size=(3, n)) + 1j * rng.normal(size=(3, n))
        w = rng.uniform(-1.0, 1.0, size=n)
        ref = np.array([[np.vdot(a, w * b) * 0.5 for b in A] for a in A])
        assert np.allclose(gram(A, 0.5, w), ref, rtol=1e-13, atol=0)
        ref = np.array([[np.vdot(a, b) * 0.5 for b in A] for a in A])
        assert np.allclose(gram(A, 0.5), ref, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("N", [2, 3, 5])
    @pytest.mark.parametrize("name", sorted(_REL_TOT))
    def test_observable_stats_match_per_term_loop(self, N, name):
        # both axes: N_p_tot/xbar_rel (momentum), N_x_tot/pbar_rel (position);
        # abs covers the moments that vanish up to rounding (Var N_p_tot ~ 1e-14)
        gs = mpe_grid(N)
        got = observable_stats(gs, name, SCALE)
        assert got == pytest.approx(_loop_pair_stats(gs, name), rel=1e-12, abs=1e-12)

    def test_identity_gram_kept_on_the_carrier(self):
        gs = mpe_grid(3)
        assert gs.coefs.size == 3
        assert np.allclose(gs.g1, _loop_elements(gs.spec, gs.a1, "x", 0), rtol=1e-13, atol=1e-15)
        assert np.allclose(gs.g2, _loop_elements(gs.spec, gs.a2, "x", 0), rtol=1e-13, atol=1e-15)
        assert gs.norm == pytest.approx(1.0, abs=1e-13)

    def test_free_propagate_keeps_norm_and_acts_per_term(self):
        gs = mpe_grid(2)
        params = PropagationParams(mass=1.0, time=0.5)
        moved = free_propagate(gs, params)
        assert isinstance(moved, TwoParticleGridState)
        assert moved.input_norm == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(moved.coefs, gs.coefs, rtol=1e-12, atol=0)
        for before, after in ((gs.a1, moved.a1), (gs.a2, moved.a2)):
            for a, b in zip(before, after):
                single = free_propagate(GridState(gs.spec, a), params)
                assert np.allclose(single.psi, GridState(gs.spec, b).psi, atol=1e-12)

    def test_rejects_mismatched_term_arrays(self):
        spec = GridSpec(points=16, xmin=-1.0, xmax=1.0)
        with pytest.raises(ValueError, match="match"):
            TwoParticleGridState(spec, np.ones(2), np.ones((2, 16)), np.ones((3, 16)))
        with pytest.raises(ValueError, match="at least one term"):
            TwoParticleGridState(spec, np.ones(0), np.ones((0, 16)), np.ones((0, 16)))

    # 1e200 squares to inf, and dividing by its root would leave a zero state
    @pytest.mark.parametrize("value", [math.nan, math.inf, 1e200], ids=["nan", "inf", "overflow"])
    def test_refuses_a_norm_that_is_not_finite(self, value):
        spec = GridSpec(points=16, xmin=-1.0, xmax=1.0)
        with pytest.raises(ValueError, match="squared norm is (nan|inf)"):
            TwoParticleGridState(spec, np.array([value, 1.0]), np.ones((2, 16)), np.ones((2, 16)))
        with pytest.raises(ValueError, match="product terms have zero norm on this grid"):
            TwoParticleGridState(spec, np.zeros(2), np.ones((2, 16)), np.ones((2, 16)))


# ---------------------------------------------------------------------------
# grid rows as shared envelope factors times plane waves


def _complex_tabulated():
    xs = np.linspace(-30.0, 30.0, 601)
    return TabulatedEnvelope(xs, GaussianEnvelope(4.0)(xs) * np.exp(0.3j * xs) * (1 + 0.05j * xs))


_ROW_CASES = {
    # a 16-point grid, negative xmin, incommensurate p0, phase_ref
    "16 points": (GridSpec(16, -3.0, 5.0), [WavePacket(GaussianEnvelope(1.0), 0.5, 2.7, 0.3)]),
    "64 points": (
        GridSpec(64, -20.0, -4.0),
        [WavePacket(GaussianEnvelope(3.0), -12.0, -1.9, -0.8), WavePacket(GaussianEnvelope(3.0), -12.0)],
    ),
    "blocks": (
        GridSpec(4096, -97.3, 101.1),
        [WavePacket(WIDE, 0.37, (1 + n) * 2 * np.pi + 0.123, 0.37) for n in range(3)]
        + [WavePacket(WIDE, -0.37, -(1 + n) * 2 * np.pi, -0.37) for n in range(3)],
    ),
    "sinc": (
        GridSpec(1024, -60.0, 40.0),
        [WavePacket(SincEnvelope(4.0), 1.5, 3.3, 0.4), WavePacket(SincEnvelope(4.0), -2.0, -5.1)],
    ),
    "complex tabulated": (
        GridSpec(512, -35.0, 35.0),
        [WavePacket(_complex_tabulated(), 0.0, 6.2, -1.1), WavePacket(_complex_tabulated(), 2.0, 0.0)],
    ),
}


class TestAmplitudeRows:
    @pytest.mark.parametrize("case", sorted(_ROW_CASES))
    def test_rows_match_packet_amplitudes(self, case):
        grid, packets = _ROW_CASES[case]
        want = np.array([wp.position_amplitude(grid.x) for wp in packets])
        got = _amplitude_rows(packets, grid)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_overlap_matrix_matches_the_full_quadrature(self):
        packets = [WavePacket(GaussianEnvelope(2.0), 0.3 * n, 20 * np.pi * n + 0.4, 0.1) for n in range(4)]
        grid = _quadrature_grid(packets)
        assert grid.points > GRAM_BLOCK  # more than one sub-grid
        amps = np.array([wp.position_amplitude(grid.x) for wp in packets])
        want = gram(amps, grid.dx)
        assert np.allclose(_overlap_matrix(packets, grid), want, rtol=0, atol=1e-12)

    def test_grid_verdict_needs_no_packet_amplitudes(self, monkeypatch):
        def fail(self, x):
            raise AssertionError("full-grid packet amplitude evaluated")

        monkeypatch.setattr(WavePacket, "position_amplitude", fail)
        state = build_mpe(2, x0=0.0, N0=1, lam=1.0, envelope=WIDE)
        assert evaluate_criterion(state, SCALE).violated

    def test_gram_weight_stack_matches_single_weights(self):
        rng = np.random.default_rng(7)
        n = GRAM_BLOCK + 300
        A = rng.normal(size=(3, n)) + 1j * rng.normal(size=(3, n))
        w = rng.uniform(-1.0, 1.0, size=(2, n))
        both = gram(A, 0.25, w)
        assert both.shape == (2, 3, 3)
        for got, wk in zip(both, w):
            assert np.array_equal(got, gram(A, 0.25, wk))


def _reference_moments(spec, arrs, name):
    """The per-particle moments as computed before the shared sweep: two Gram passes."""
    domain, vals = observable_values(spec, name, SCALE)
    dx = spec.dx
    if domain == "momentum":
        arrs = np.fft.fft(arrs, axis=1)
        dx /= spec.points
    return gram(arrs, dx, vals), gram(arrs, dx, vals**2)


def _reference_pair_stats(gs, name):
    base, sign = _REL_TOT[name]
    c = gs.coefs
    cc = np.conj(c)[:, None] * c[None, :]
    o1, o1sq = _reference_moments(gs.spec, gs.a1, base)
    o2, o2sq = _reference_moments(gs.spec, gs.a2, base)

    def ev(e1, e2):
        return float(np.real(np.sum(cc * e1 * e2)))

    mean = ev(o1, gs.g2) + sign * ev(gs.g1, o2)
    second = ev(o1sq, gs.g2) + ev(gs.g1, o2sq) + 2.0 * sign * ev(o1, o2)
    return mean, second - mean**2


def _wider_grid(grid):
    """Twice the box at the same spacing, so still aligned to the partition.

    The spacing is kept because the grid points on partition edges count wholly
    to the upper cell, which moves the mean of N_x by O(dx).
    """
    return GridSpec(2 * grid.points, grid.xmin - grid.length / 2, grid.xmax + grid.length / 2)


class TestWiderGrid:
    @pytest.mark.parametrize("name", sorted(_REL_TOT))
    def test_stats_on_a_wider_grid(self, name):
        st = build_mpe(3, x0=0.37, N0=1, lam=1.0, envelope=WIDE)
        grid = default_grid(st, 1.0)
        wide = _wider_grid(grid)
        gs = discretize(st, wide)
        assert gs.spec == wide and gs.a2.shape == (3, wide.points)
        got = observable_stats(gs, name, SCALE)
        assert got == pytest.approx(_reference_pair_stats(gs, name), rel=1e-12, abs=1e-12)
        # the same physics as on the default grid, up to the second-order grid error
        same = discretize(st, grid)
        assert got == pytest.approx(observable_stats(same, name, SCALE), rel=1e-4, abs=1e-4)


# ---------------------------------------------------------------------------
# lattice rows: one envelope factor shifted on the momentum lattice


def _row_route(gs):
    """The same state with its rows given as arrays, so every statistic takes the row route."""
    return TwoParticleGridState(gs.spec, gs.coefs, gs.a1, gs.a2, gs.weights)


def _materialized_discretize(st, grid):
    """discretize's pair state built from materialized rows, as before factored rows."""
    coefs = np.array([t[0] * st._scale for t in st.terms])
    rows = [_amplitude_rows(packets, grid) for packets in st.particles]
    return TwoParticleGridState(grid, coefs, *rows)


def _assert_routes_agree(gs, scale=SCALE):
    ref = _row_route(gs)
    for got, want in ((gs.g1, ref.g1), (gs.g2, ref.g2)):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    for name in sorted(_REL_TOT):
        got = observable_stats(gs, name, scale)
        assert got == pytest.approx(observable_stats(ref, name, scale), rel=1e-12, abs=1e-12)


def _count_transforms(monkeypatch) -> list:
    """A list that collects (name, length) of every np.fft.fft and np.fft.rfft call."""
    calls = []
    for name in ("fft", "rfft"):
        real = getattr(np.fft, name)

        def counted(a, *args, _name=name, _real=real, **kw):
            calls.append((_name, np.shape(a)[-1]))
            return _real(a, *args, **kw)

        monkeypatch.setattr(np.fft, name, counted)
    return calls


def _fold_gram(rows, weight):
    """gram(rows.array, dx, weight) of lattice rows from |factor|^2 weight folded on to n / G points.

    The lag form of lattice_gram with a weight stack: the full-value fold that
    the period route's moments are checked against.
    """
    m, phase = rows.lattice
    n = rows.spec.points
    g = int(np.gcd.reduce(np.append(m - m[0], n)))
    d = np.abs(rows.factors[0]) ** 2 * weight
    fold = d.reshape(len(weight), -1, n // g).sum(axis=1)
    spectra = fold if g == n else np.fft.fft(fold, axis=-1)
    lags = (m[:, None] - m[None, :]) // g % (n // g)
    return spectra[..., lags] * (np.conj(phase)[:, None] * phase[None, :] * rows.spec.dx)


def _window(rows, vmax):
    """(h, tail, cols) of Gaussian lattice rows' windows for weights below wmax = max(vmax, vmax^2).

    h is the least with (1 + wmax 2^53) e^{-2 (sigma h dp)^2} <= 1, tail = n / dx erfc(sqrt(2) sigma h dp)
    what the infinite lattice holds beyond it, and cols[k] row k's columns m_k + [-h, h] mod n.
    """
    spec, m = rows.spec, rows.lattice[0]
    wmax = max(vmax, vmax * vmax)
    step = np.sqrt(2.0) * rows.keys[0][0].sigma_x * TWO_PI / spec.length
    h = int(np.ceil(np.sqrt(np.log1p(wmax * 2.0**53)) / step))
    assert 2 * h < spec.points
    tail = spec.points / spec.dx * math.erfc(step * h)
    return h, tail, (m[:, None] + np.arange(-h, h + 1)) % spec.points


def _window_rows(rows, cols):
    """The closed form of the lattice rows' FFT on the given columns of each row.

    Row k at column u is ph_k (sqrt(2 pi) / dx) phi_hat(p) e^{ip(xmin - x0)}, p the lattice
    momentum of (u - m_k) mod n: the whole line's transform of phi(x - x0), sampled on the lattice.
    """
    spec = rows.spec
    (m, phase), (envelope, centre) = rows.lattice, rows.keys[0]
    p = spec.p[(cols - m[:, None]) % spec.points]
    out = envelope.fourier(p) * np.exp(1j * (spec.xmin - centre) * p)
    return out * phase[:, None] * (np.sqrt(TWO_PI) / spec.dx)


def _padded(rows, cols):
    """The window rows on the full lattice, 0 off each row's own window."""
    out = np.zeros(rows.shape, dtype=complex)
    np.put_along_axis(out, cols, _window_rows(rows, cols), axis=1)
    return out


def _window_reads(monkeypatch, rows, name, scale=SCALE):
    """(window_moments of the rows, the 2-D column arrays whose momentum values it read)."""
    reads, values = [], grids.observable_values

    def spy(spec, name, scale, cols=None):
        if cols is not None and cols.ndim == 2:
            reads.append(cols)
        return values(spec, name, scale, cols)

    with monkeypatch.context() as mp:
        mp.setattr(grids, "observable_values", spy)
        return window_moments(rows, name, scale), reads


def _assert_diagonal(moments):
    k = moments.shape[-1]
    assert np.array_equal(moments, moments * np.eye(k))


def _lattice_fft(rows):
    """The FFT of lattice rows, row k being ph_k F[(u - m_k) mod n] with F the factor's FFT.

    The same as the FFT of rows.array but for the rounding of the plane waves
    s x + t there (to about 1e-13 of the peak at x ~ 100 and s ~ 20).
    """
    m, phase = rows.lattice
    ft = np.fft.fft(rows.factors[0])
    return phase[:, None] * np.stack([np.roll(ft, shift) for shift in m])


def _box_images(rows):
    """Norm, in dx, of the factor's first images x -/+ L on the box: the tail the box cuts off."""
    spec = rows.spec
    envelope, centre = rows.keys[0]
    images = envelope(spec.x - centre - spec.length) + envelope(spec.x - centre + spec.length)
    return np.sqrt(np.sum(images**2) * spec.dx)


class TestLatticeRoute:
    @pytest.mark.parametrize("N", [2, 3, 5, 10])
    @pytest.mark.parametrize("x0", [0.0, 0.37])
    @pytest.mark.parametrize("N0", [1, 3])
    def test_routes_agree_on_every_admixture_component(self, N, x0, N0):
        # the admixture's components are the MPE state (K = N rows per particle)
        # and the N classical product pairs (K = 1): all take the lattice route
        st = admixture_state(0.4, N, 1.0, WIDE, x0, N0)
        for _, comp in st.components:
            gs = discretize(comp, default_grid(comp, 1.0))
            assert gs.rows1.lattice is not None and gs.rows2.lattice is not None
            _assert_routes_agree(gs)

    @pytest.mark.filterwarnings("ignore:envelope width")
    @given(
        kind=hst.sampled_from(["mpe", "classical", "admixture"]),
        N=hst.integers(1, 12),
        x0=hst.floats(-2.0, 2.0),
        N0=hst.integers(-4, 4),
        sigma=hst.floats(4.0, 16.0),
        pick=hst.integers(0, 12),
    )
    @settings(max_examples=25, deadline=None)
    def test_routes_agree_on_random_comb_states(self, kind, N, x0, N0, sigma, pick):
        # both axes' statistics and the identity Grams; of a mixture, the first
        # component and one drawn one
        envelope = GaussianEnvelope(sigma)
        if kind == "mpe":
            comps = [build_mpe(N, x0, N0, 1.0, envelope)]
        else:
            if kind == "classical":
                state = build_classical_correlated(N, x0, N0, 1.0, envelope)
            else:
                state = admixture_state(0.4, N, 1.0, envelope, x0, N0)
            comps = [comp for _, comp in state.components]
            comps = [comps[0], comps[pick % len(comps)]]
        for comp in comps:
            gs = discretize(comp, default_grid(comp, 1.0))
            assert gs.rows1.lattice is not None and gs.rows2.lattice is not None
            _assert_routes_agree(gs)

    def test_routes_agree_on_a_wider_grid(self):
        st = build_mpe(3, x0=0.37, N0=1, lam=1.0, envelope=WIDE)
        gs = discretize(st, _wider_grid(default_grid(st, 1.0)))
        assert gs.rows1.lattice is not None and gs.rows2.lattice is not None
        _assert_routes_agree(gs)

    def test_rows_materialize_bitwise(self):
        st = build_mpe(5, x0=0.37, N0=3, lam=1.0, envelope=WIDE)
        grid = default_grid(st, 1.0)
        gs = discretize(st, grid)
        assert isinstance(gs.rows1, FactoredRows)
        assert np.array_equal(gs.a1, _amplitude_rows(st.particles[0], grid))
        assert np.array_equal(gs.a2, _amplitude_rows(st.particles[1], grid))

    def test_position_rows_are_not_built(self):
        gs = mpe_grid(3)
        for name in sorted(_REL_TOT):
            observable_stats(gs, name, SCALE)
        assert "array" not in vars(gs.rows1) and "array" not in vars(gs.rows2)

    @pytest.mark.parametrize(
        "case",
        [
            "distinct x0",
            "lambda 0.7 on ell 1",
            "1e-9 off the lattice",
            "complex tabulated",
            "lambda 0.7 x0 0",
            "lambda 0.7 x0 0.37",
            "lambda 0.3 x0 0",
            "lambda 0.3 x0 0.37",
            "sinc",
            "box 4 sigma a side",
        ],
    )
    def test_other_rows_take_the_row_route_bitwise(self, case):
        # rows that are not lattice rows take the row route for every statistic;
        # lattice rows on a grid without a period take it for xbar and N_x, and
        # lattice rows of a sinc factor, or of a factor whose box cuts its tail,
        # take it for N_p and pbar
        scale, lattice, names, grid = SCALE, False, ("xbar", "N_x"), None
        if case == "distinct x0":
            coefs, x0s = [1.0, 0.5j, -0.7, 0.3], [0.0, 0.3, -0.6, 1.1]
            terms = [
                (c, WavePacket(WIDE, x, 2 * np.pi * (1 + n)), WavePacket(WIDE, -x, -2 * np.pi * (1 + n)))
                for n, (c, x) in enumerate(zip(coefs, x0s))
            ]
            st = TwoParticleState(terms, fringe_period=1.0)
        elif case == "lambda 0.7 on ell 1":
            st = build_mpe(3, 0.0, 1, 0.7, GaussianEnvelope(5.6))
        elif case == "1e-9 off the lattice":
            terms = [
                (1.0, WavePacket(WIDE, 0.0, 2 * np.pi * n + 1e-9), WavePacket(WIDE, 0.0, -2 * np.pi * n - 1e-9))
                for n in (1, 2, 3)
            ]
            st = TwoParticleState(terms, fringe_period=1.0)
        elif case == "complex tabulated":  # one shared factor, but a complex one
            st = build_mpe(2, 0.0, 1, 1.0, _wide_complex_tabulated())
        elif case == "sinc":  # 1/x^2 tails: only a coarse grid's 10 dx^2 excuses the lost mass
            st = build_mpe(2, 0.0, 1, 1.0, SincEnvelope(8.0))
            lattice, names, grid = True, ("N_p", "pbar"), default_grid(st, 1.0, points_per_ell=16)
        elif case == "box 4 sigma a side":  # holds all but 1.3e-4 of the mass, within 10 dx^2
            st = build_mpe(2, 0.0, 1, 1.0, WIDE)
            lattice, names, grid = True, ("N_p", "pbar"), GridSpec(16384, -32.0, 32.0)
        else:
            _, lam, _, x0 = case.split()
            lam, x0, lattice = float(lam), float(x0), True
            scale = ModularScale(lam)
            st = build_mpe(3, x0, 1, lam, GaussianEnvelope(8.0 * lam))
        grid = grid or default_grid(st, scale.ell)
        gs = discretize(st, grid)
        ref = _materialized_discretize(st, grid)
        if lattice:
            assert (_period_points(grid, scale) is None) == (names == ("xbar", "N_x"))
            for rows, arr in ((gs.rows1, ref.a1), (gs.rows2, ref.a2)):
                assert rows.lattice is not None
                for name in names:
                    assert np.array_equal(_moments(grid, rows, name, scale), _moments(grid, arr, name, scale))
            return
        assert gs.rows1.lattice is None and gs.rows2.lattice is None
        assert np.array_equal(gs.g1, ref.g1) and np.array_equal(gs.g2, ref.g2)
        assert np.array_equal(gs.coefs, ref.coefs)
        for name in sorted(_REL_TOT):
            assert observable_stats(gs, name, scale) == observable_stats(ref, name, scale)

    def test_routes_agree_where_the_momentum_rows_overlap(self):
        # sigma = 0.6 lambda: neighbouring packets share momenta, so the rows' phases
        # enter the off-diagonal momentum Gram entries
        with pytest.warns(UserWarning, match="envelope width"):
            st = build_mpe(3, x0=0.37, N0=1, lam=1.0, envelope=GaussianEnvelope(0.6))
        gs = discretize(st, default_grid(st, 1.0))
        assert gs.rows1.lattice is not None
        _assert_routes_agree(gs)

    @pytest.mark.parametrize("case", ["pairs sharing a packet", "sigma = lambda"])
    def test_meeting_windows_take_the_row_route(self, case):
        # rows whose windows meet are not diagonal: two pairs that share particle 1's
        # packet put two of its rows at one momentum (gap 0), and at sigma = lambda a
        # comb's neighbouring windows overlap. Their moments are the row route's
        if case == "sigma = lambda":
            with pytest.warns(UserWarning, match="envelope width"):
                st = build_mpe(3, 0.37, 1, 1.0, GaussianEnvelope(1.0))
            meeting = (0, 1)
        else:
            a, b, c = (WavePacket(WIDE, 0.0, TWO_PI * n) for n in (1, -1, -3))
            st = mix([
                (0.5, TwoParticleState([(1.0, a, b), (1.0, a, c)], fringe_period=1.0)),
                (0.5, TwoParticleState([(1.0, a, b)], fringe_period=1.0)),
            ])
            meeting = (0,)
        gs = discretize(st, default_grid(st, 1.0))
        ref = _row_route(gs)
        for particle, (rows, arr) in enumerate(((gs.rows1, ref.a1), (gs.rows2, ref.a2))):
            assert rows.lattice is not None
            for name in ("N_p", "pbar"):
                got = window_moments(rows, name, SCALE)
                assert (got is None) == (particle in meeting)
                if got is None:
                    want = _moments(gs.spec, arr, name, SCALE)
                    assert np.array_equal(_moments(gs.spec, rows, name, SCALE), want)
        _assert_routes_agree(gs)

    def test_lattice_identities_on_a_small_grid(self):
        spec = GridSpec(64, -4.0, 4.0)
        factor = np.exp(-2.0 * spec.x**2) * (1 + 0.2 * spec.x)
        w = np.stack([np.ones(64), spec.x, spec.x**2])
        for shifts in (
            ((0, 0.3), (47, -1.1), (-20, 2.0)),  # lags past n / 2, G = 1
            ((3, 0.0), (11, 0.5), (-5, 1.0)),  # G = 8: an 8-point fold
            ((0, 0.3),),  # one row: G = n, the fold is the sum
        ):
            waves = [(TWO_PI * m / spec.length, t) for m, t in shifts]
            rows = FactoredRows(spec, [factor], [0] * len(shifts), waves)
            assert rows.lattice is not None
            want = gram(rows.array, spec.dx, w)
            assert np.allclose(_fold_gram(rows, w), want, rtol=0, atol=1e-14)
            assert np.allclose(lattice_gram(rows), want[0], rtol=0, atol=1e-14)
            assert window_moments(rows, "N_p", SCALE) is None  # rows of no known envelope

    @pytest.mark.parametrize("N", [2, 10])
    @pytest.mark.parametrize("x0", [0.0, 0.37])
    @pytest.mark.parametrize("sigma", [4.0, 16.0])
    @pytest.mark.filterwarnings("ignore:envelope width")
    def test_window_tail_is_one_unit_roundoff(self, monkeypatch, N, x0, sigma):
        # row k's window is m_k + [-h, h] with the least h whose tail, weighted by the
        # lattice-wide bound, is one unit roundoff of the rows' norm n / dx; the
        # power off it, summed over the infinite lattice, is below that tail
        st = build_mpe(N, x0, 1, 1.0, GaussianEnvelope(sigma))
        gs = discretize(st, default_grid(st, 1.0))
        spec = gs.spec
        dp = TWO_PI / spec.length
        for name in ("N_p", "pbar"):
            vmax = _momentum_bound(spec, name, SCALE)
            wmax = max(vmax, vmax * vmax)
            for rows in (gs.rows1, gs.rows2):
                h, tail, cols = _window(rows, vmax)
                got, reads = _window_reads(monkeypatch, rows, name)
                assert len(reads) == 1 and np.array_equal(reads[0], cols)
                assert got.shape == (2, N, N) and cols.shape[1] <= 64  # a few dozen per row
                _assert_diagonal(got)
                assert 0 < wmax * tail <= 2.0**-53 * spec.points / spec.dx
                k = np.arange(h + 1, h + 1 + int(40 / (sigma * dp)))  # out to e^{-1600}
                beyond = np.sqrt(TWO_PI) / spec.dx * GaussianEnvelope(sigma).fourier(k * dp)
                assert 2 * np.sum(beyond**2) <= tail

    @pytest.mark.parametrize("N", [3, 10])
    @pytest.mark.parametrize("sigma", [8.0, 16.0])
    def test_window_rows_are_the_fft_where_the_box_holds_the_tail(self, N, sigma):
        # off centre the box is 16 sigma wide on each side of the factor: there the
        # closed form is the FFT of the lattice rows, ph_k F[(u - m_k) mod n], to
        # rounding on every column of a row's window, and off it within the tail bound
        st = build_mpe(N, 0.37, 1, 1.0, GaussianEnvelope(sigma))
        gs = discretize(st, default_grid(st, 1.0))
        for rows in (gs.rows1, gs.rows2):
            full = _lattice_fft(rows)
            _, tail, cols = _window(rows, _momentum_bound(gs.spec, "N_p", SCALE))
            got = _window_rows(rows, cols)
            assert np.max(np.abs(got - np.take_along_axis(full, cols, axis=1))) <= 1e-15 * np.max(np.abs(full))
            off = full.copy()
            np.put_along_axis(off, cols, 0.0, axis=1)
            assert np.all(np.sum(np.abs(off) ** 2, axis=1) <= tail)

    @pytest.mark.parametrize("N", [2, 5])
    def test_window_rows_differ_from_the_fft_by_the_box_tail(self, N):
        # centred, the box ends exactly 8 sigma from the factor, where it is e^-16 of
        # its peak. The FFT of the box-cut samples then differs from the closed form
        # (the whole line's transform) by the samples the box leaves out, at most
        # phi(d_hi) + (1/dx) sum_sides int_d^inf phi, about erfc(4) = 1.5e-8 of the peak
        st = build_mpe(N, 0.0, 1, 1.0, WIDE)
        gs = discretize(st, default_grid(st, 1.0))
        spec, sigma = gs.spec, WIDE.sigma_x
        for rows in (gs.rows1, gs.rows2):
            centre = rows.keys[0][1]
            lo, hi = centre - spec.xmin, spec.xmax - centre
            assert lo == hi == 8 * sigma
            integral = (TWO_PI * sigma**2) ** -0.25 * sigma * np.sqrt(np.pi)
            out = WIDE(hi) + integral / spec.dx * (math.erfc(lo / (2 * sigma)) + math.erfc(hi / (2 * sigma)))
            full = _lattice_fft(rows)
            _, _, cols = _window(rows, _momentum_bound(spec, "N_p", SCALE))
            peak = np.max(np.abs(full))
            diff = np.max(np.abs(_window_rows(rows, cols) - np.take_along_axis(full, cols, axis=1)))
            assert 1e-9 * peak < diff <= out + 1e-15 * peak
            assert out <= 1.6e-8 * peak

    @pytest.mark.parametrize("axis", ["momentum", "position"])
    def test_no_transform_of_a_shared_factor(self, monkeypatch, axis):
        st = build_mpe(5, 0.0, 1, 1.0, WIDE)
        grid = default_grid(st, 1.0)
        calls = _count_transforms(monkeypatch)
        gs = discretize(st, grid)
        assert gs.rows1.factors[0] is gs.rows2.factors[0]
        for name in {"momentum": ("N_p_tot", "xbar_rel"), "position": ("N_x_tot", "pbar_rel")}[axis]:
            observable_stats(gs, name, SCALE)
        # no n-point transform: the momentum rows are the envelope's closed form,
        # and the position side folds to n / G = 256 points
        assert not any(size == grid.points for _, size in calls)
        assert set(calls) <= {("fft", 256)}

    @pytest.mark.parametrize("x0", [0.0, 0.37])
    def test_window_moments_read_the_full_values_on_the_window(self, monkeypatch, x0):
        # the moments are a diagonal: each entry reads the full lattice's values on its
        # row's window columns, bit for bit, and is the Gram of the window rows placed
        # on the full lattice, whose supports do not meet, to rounding
        st = build_mpe(3, x0, 1, 1.0, WIDE)
        gs = discretize(st, default_grid(st, 1.0))
        spec = gs.spec
        values = grids.observable_values

        def full_lattice(spec, name, scale, cols=None):
            domain, vals = values(spec, name, scale)
            return domain, vals if cols is None else vals[cols]

        for rows in (gs.rows1, gs.rows2):
            for name in ("pbar", "N_p"):
                got = _moments(spec, rows, name, SCALE)
                _assert_diagonal(got)
                with monkeypatch.context() as mp:
                    mp.setattr(grids, "observable_values", full_lattice)
                    assert np.array_equal(window_moments(rows, name, SCALE), got)
                _, _, cols = _window(rows, _momentum_bound(spec, name, SCALE))
                padded, vals = _padded(rows, cols), values(spec, name, SCALE)[1]
                want = gram(padded, spec.dx / spec.points, np.stack([vals, vals**2]))
                # to rounding of the sums of |a|^2 |w|, as a mean that cancels to 0 needs
                size = gram(padded, spec.dx / spec.points, np.abs(np.stack([vals, vals**2]))).real
                assert np.all(np.abs(got - want) <= 1e-15 * size)

    @pytest.mark.parametrize("ell", [2.0, 4.0])
    @pytest.mark.parametrize("x0", [0.0, 0.37])
    def test_routes_agree_where_comb_momenta_sit_at_cell_centres(self, ell, x0):
        st = build_mpe(3, x0, 1, 1.0, WIDE)
        gs = discretize(st, default_grid(st, ell))
        _assert_routes_agree(gs, ModularScale(ell))

    @pytest.mark.parametrize("N, x0", [(2, 0.0), (3, 0.0), (3, 0.37), (5, 0.0)])
    def test_comb_momenta_on_cell_edges_agree_within_the_box_tail(self, N, x0):
        # at ell = lambda / 2 every other comb momentum sits on a cell edge of N_p and
        # pbar, and the edge column counts wholly to the upper cell, so the moments
        # feel the difference between the window rows and the FFT rows at first
        # order. That difference is at most the window's tail plus the box's cut
        # tail (the factor's images), and by Cauchy-Schwarz each moment and each
        # pair statistic agree with the row route within what that carries to them
        scale = ModularScale(0.5)
        st = build_mpe(N, x0, 1, 1.0, WIDE)
        gs = discretize(st, default_grid(st, scale.ell))
        ref = _row_route(gs)
        spec = gs.spec
        dxn = spec.dx / spec.points
        moments = {}
        for particle, (rows, arr) in enumerate(((gs.rows1, ref.a1), (gs.rows2, ref.a2))):
            full = np.fft.fft(arr, axis=1)
            for name in ("N_p", "pbar"):
                _, tail, cols = _window(rows, _momentum_bound(spec, name, scale))
                padded = _padded(rows, cols)
                # the window's tail, the box's, and the rounding of the rows' plane waves
                limit = np.sqrt(tail * dxn) + _box_images(rows) + 1e-12
                assert np.all(np.sqrt(np.sum(np.abs(padded - full) ** 2, axis=1) * dxn) <= limit)
                vals = observable_values(spec, name, scale)[1]
                got = _moments(spec, rows, name, scale)
                want = _moments(spec, arr, name, scale)
                err = []
                for k, w in enumerate((vals, vals**2)):
                    wc = np.sqrt(np.sum(np.abs(w * padded) ** 2, axis=1) * dxn)
                    wf = np.sqrt(np.sum(np.abs(w * full) ** 2, axis=1) * dxn)
                    err.append(limit * (wc[None, :] + wf[:, None]) + 1e-14 * np.max(np.abs(want[k])))
                    assert np.all(np.abs(got[k] - want[k]) <= err[k])
                moments[particle, name] = want, np.array(err)
        cc = np.abs(np.conj(ref.coefs)[:, None] * ref.coefs[None, :])
        g1, g2 = np.abs(ref.g1), np.abs(ref.g2)
        for stat in ("N_p_tot", "pbar_rel"):
            name = _REL_TOT[stat][0]
            (o1, o1sq), (d1, d1sq) = moments[0, name]
            (o2, o2sq), (d2, d2sq) = moments[1, name]
            mean, var = observable_stats(ref, stat, scale)
            dmean = np.sum(cc * (d1 * g2 + g1 * d2))
            dsecond = np.sum(cc * (d1sq * g2 + g1 * d2sq + 2 * (d1 * (np.abs(o2) + d2) + np.abs(o1) * d2)))
            dvar = dsecond + dmean * (2 * abs(mean) + dmean)
            got_mean, got_var = observable_stats(gs, stat, scale)
            assert abs(got_mean - mean) <= dmean + 1e-12 * max(1.0, abs(mean))
            assert abs(got_var - var) <= dvar + 1e-12 * max(1.0, var)
            assert dvar <= 1e-5 * max(1.0, var)  # a few 1e-6 here, from the e^-16 box edge

    @pytest.mark.parametrize(
        "spec", [GridSpec(16, -1.0, 1.0), GridSpec(32768, -64.0, 64.0), GridSpec(65536, -80.63, 47.37)]
    )
    def test_momentum_values_on_columns_are_the_full_lattices(self, spec):
        n = spec.points
        rng = np.random.default_rng(n)
        cols = np.unique(np.r_[0, n // 2 - 1, n // 2, n - 1, rng.integers(0, n, size=min(n, 999))])
        for name in ("p", "pbar", "N_p"):
            full = observable_values(spec, name, SCALE)[1]
            got = observable_values(spec, name, SCALE, cols)[1]
            assert got.tobytes() == full[cols].tobytes()
            bound = _momentum_bound(spec, name, SCALE)
            if name == "pbar":
                assert bound >= np.max(np.abs(full))
            else:  # the lattice ends hold the full lattice's maximum, bitwise
                assert bound == np.max(np.abs(full))


# ---------------------------------------------------------------------------
# lattice rows on exact grids: position moments from one period


def _full_fold_moments(spec, rows, name, scale=SCALE):
    """The position moments of lattice rows from the values on every grid point."""
    vals = observable_values(spec, name, scale)[1]
    return _fold_gram(rows, np.stack([vals, vals**2]))


def _assert_close(got, want, rel):
    assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


def _count_position_splits(monkeypatch, ell) -> list:
    """A list that collects the size of every array grids splits at the position period ell."""
    sizes = []
    for name in ("modular_part", "integer_part"):
        real = getattr(grids, name)

        def counted(values, period, _real=real):
            if period == ell:
                sizes.append(np.size(values))
            return _real(values, period)

        monkeypatch.setattr(grids, name, counted)
    return sizes


class TestPeriodRoute:
    @pytest.mark.parametrize("lam, x0", [(1.0, 0.0), (1.0, 0.37), (1.0, -1.3), (0.5, 0.2), (0.25, 0.0)])
    def test_exact_grids_have_a_period(self, lam, x0):
        st = build_mpe(3, x0, 1, lam, GaussianEnvelope(8.0 * lam))
        grid = default_grid(st, lam)
        assert _period_points(grid, ModularScale(lam)) == 256

    @pytest.mark.parametrize(
        "spec, ell",
        [
            (GridSpec(32768, -44.8, 44.8), 0.7),  # the lambda = 0.7 default grid: dx is not a power of two
            (GridSpec(64, -4.0, 4.0), 0.375),  # 3 points per ell do not divide n
            (GridSpec(64, -4.0, 4.0), 16.0),  # a period longer than the grid
            (GridSpec(64, -4.05, 3.95), 1.0),  # xmin is not a multiple of dx
            (GridSpec(64, 2.0**53, 2.0**53 + 8.0), 1.0),  # too far out for the split to be exact
        ],
    )
    def test_other_grids_have_none(self, spec, ell):
        assert _period_points(spec, ModularScale(ell)) is None

    @pytest.mark.parametrize("kind", ["mpe", "classical"])
    @pytest.mark.parametrize("N", [1, 2, 3, 5, 10])
    @pytest.mark.parametrize("x0, N0, sigma", [(0.0, 1, 8.0), (0.37, 3, 4.0), (-1.3, 1, 16.0)])
    @pytest.mark.filterwarnings("ignore:envelope width")
    def test_agrees_with_the_full_fold(self, kind, N, x0, N0, sigma):
        # the MPE state's N rows per particle (n / G = P) and every classical
        # component's one row (G = n)
        envelope = GaussianEnvelope(sigma)
        if kind == "mpe":
            comps = [build_mpe(N, x0, N0, 1.0, envelope)]
        else:
            comps = [c for _, c in build_classical_correlated(N, x0, N0, 1.0, envelope).components]
        for comp in comps[:3]:
            gs = discretize(comp, default_grid(comp, 1.0))
            assert _period_points(gs.spec, SCALE) == 256
            for rows in (gs.rows1, gs.rows2):
                assert rows.lattice is not None
                for name in ("xbar", "N_x"):
                    want = _full_fold_moments(gs.spec, rows, name)
                    _assert_close(_moments(gs.spec, rows, name, SCALE), want, 1e-13)

    @pytest.mark.parametrize("xmin", [-4.0, -3.0])
    @pytest.mark.parametrize("ell", [0.5, 2.0, 8.0])
    def test_agrees_on_a_small_exact_lattice(self, xmin, ell):
        # 64 points at dx = 1/8, P = 4, 16 or 64 points per ell; odd shifts give
        # n / G = 64 and 8, and one row n / G = 1, so n / G is above, below and at P
        spec = GridSpec(64, xmin, xmin + 8.0)
        scale = ModularScale(ell)
        assert _period_points(spec, scale) == int(ell * 8)
        factor = np.exp(-0.5 * (spec.x - 0.3) ** 2) * (1 + 0.2 * spec.x)
        for shifts in (((0, 0.3), (47, -1.1), (-21, 2.0)), ((3, 0.0), (11, 0.5), (-5, 1.0)), ((7, 0.3),)):
            waves = [(TWO_PI * m / spec.length, t) for m, t in shifts]
            rows = FactoredRows(spec, [factor], [0] * len(shifts), waves)
            assert rows.lattice is not None
            for name in ("xbar", "N_x"):
                want = _full_fold_moments(spec, rows, name, scale)
                _assert_close(_moments(spec, rows, name, scale), want, 1e-13)

    def test_ensembles_split_one_period(self, monkeypatch):
        # no position split is longer than one period, L = P = 256 points at the
        # default 256 per ell and the bisection's 128, and the components of one
        # call share their grid's values: one split of xbar per call
        sizes = _count_position_splits(monkeypatch, SCALE.ell)
        st = admixture_state(0.3, 2, 1.0, GaussianEnvelope(8.0))
        evaluate_criterion(st, SCALE)
        assert sizes == [256]
        sizes.clear()
        robustness_threshold(2, "bisection")
        assert sizes == [128]
        sizes.clear()
        evaluate_criterion(st, SCALE, axis="position")
        assert sizes == [256]


# ---------------------------------------------------------------------------
# one grid path for one- and two-particle states


_SINGLE_CASES = {
    "multislit": (lambda: build_multislit(3, 1.0, GaussianEnvelope(0.1)), GridSpec(8192, -32.0, 32.0)),
    "smp x0=0.37 N0=2": (lambda: build_smp(3, 0.37, 2, 1.0, WIDE), None),
    # the 1/x^2 tails: this grid holds 0.99976 of the exactly normalized sinc state
    "sinc": (lambda: build_multislit(3, 1.0, SincEnvelope(0.1)), GridSpec(2**15, -128.0, 128.0)),
    "complex tabulated": (lambda: build_smp(2, 0.0, 1, 1.0, _wide_complex_tabulated()), None),
}


def _wide_complex_tabulated():
    xs = np.linspace(-60.0, 60.0, 1201)  # sigma_x = 8: a comb of lambda = 1 does not overlap
    return TabulatedEnvelope(xs, WIDE(xs) * np.exp(0.3j * xs) * (1 + 0.05j * xs))


def _single_grid_state(case):
    make, grid = _SINGLE_CASES[case]
    st = make()
    grid = grid or default_grid(st, 1.0)
    return st, grid, discretize(st, grid)


def _two_pass_single_stats(state, name):
    """Single-particle (mean, variance) as computed before the shared Gram sweep."""
    domain, vals = observable_values(state.spec, name, SCALE)
    w = np.abs(state.psi if domain == "position" else np.fft.fft(state.psi)) ** 2
    w = w / np.sum(w)
    mean = float(np.sum(vals * w))
    return mean, float(np.sum((vals - mean) ** 2 * w))


class TestOneGridPath:
    @pytest.mark.parametrize("case", sorted(_SINGLE_CASES))
    def test_single_particle_discretize_matches_packet_sum(self, case):
        st, grid, gs = _single_grid_state(case)
        want = st._scale * sum(a * wp.position_amplitude(grid.x) for a, wp in st.terms)
        assert gs.input_norm == pytest.approx(np.sum(np.abs(want) ** 2) * grid.dx, rel=1e-12)
        want = GridState(grid, want).psi
        assert np.max(np.abs(gs.psi - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("case", sorted(_SINGLE_CASES))
    @pytest.mark.parametrize("name", ["x", "xbar", "N_x", "p", "pbar", "N_p"])
    def test_single_stats_match_the_two_pass_sums(self, case, name):
        _, _, gs = _single_grid_state(case)
        mean, var = observable_stats(gs, name, SCALE)
        ref_mean, ref_var = _two_pass_single_stats(gs, name)
        # a mean that vanishes by symmetry is compared on the observable's rms
        assert mean == pytest.approx(ref_mean, rel=1e-12, abs=1e-12 * np.sqrt(ref_var + ref_mean**2))
        assert var == pytest.approx(ref_var, rel=1e-12)
