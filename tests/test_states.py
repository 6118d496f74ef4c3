import json

import numpy as np
import pytest

from modint.grids import GRAM_BLOCK, GridSpec, TwoParticleGridState
from modint.modvar import H_PLANCK, fringe_function
from modint.states import (
    GaussianEnvelope,
    MixtureState,
    SincEnvelope,
    SuperposedState,
    TabulatedEnvelope,
    TwoParticleState,
    WavePacket,
    admixture_state,
    build_classical_correlated,
    build_mpe,
    build_multislit,
    build_smp,
    default_grid,
    discretize,
    envelope_from_descriptor,
    gridstate_from_csv,
    gridstate_to_csv,
    joint_momentum_density,
    joint_position_density,
    mix,
    momentum_density,
    position_density,
    state_from_descriptor,
)

WIDE = GaussianEnvelope(sigma_x=8.0)


def quad_norm(state, x):
    return np.trapezoid(position_density(state, x), x)


class TestEnvelopes:
    def test_gaussian_normalized(self):
        x = np.linspace(-40, 40, 20001)
        env = GaussianEnvelope(2.0)
        assert np.trapezoid(np.abs(env(x)) ** 2, x) == pytest.approx(1.0, abs=1e-10)

    def test_gaussian_fourier_pair(self):
        # numeric Fourier transform of the position profile matches .fourier
        env = GaussianEnvelope(1.3)
        x = np.linspace(-30, 30, 16384)
        p = np.array([-1.0, -0.2, 0.0, 0.7, 2.1])
        numeric = [
            np.trapezoid(env(x) * np.exp(-1j * pv * x), x) / np.sqrt(2 * np.pi)
            for pv in p
        ]
        assert np.allclose(numeric, env.fourier(p), atol=1e-8)

    def test_sinc_flat_momentum(self):
        env = SincEnvelope(d=2.0)
        p = np.linspace(-np.pi / 2.0 * 0.9, np.pi / 2.0 * 0.9, 101)
        ft = np.abs(env.fourier(p))
        assert np.allclose(ft, ft[0], atol=1e-12)  # flat inside the band
        assert abs(env.fourier(np.array([10.0]))[0]) == 0.0

    def test_tabulated_matches_gaussian(self):
        g = GaussianEnvelope(1.0)
        xs = np.linspace(-10, 10, 2001)
        tab = TabulatedEnvelope(xs, g(xs))
        x = np.linspace(-5, 5, 101)
        assert np.allclose(tab(x), g(x), atol=1e-8)
        p = np.linspace(-2, 2, 11)
        assert np.allclose(tab.fourier(p), g.fourier(p), atol=1e-6)

    def test_tabulated_fourier_blocks_equal_the_unblocked_quadrature(self):
        xs = np.linspace(-30.0, 30.0, 64)
        tab = TabulatedEnvelope(xs, GaussianEnvelope(4.0)(xs) * np.exp(0.3j * xs))
        p = np.linspace(-3.0, 3.0, 2 * GRAM_BLOCK + 7)
        idx = [0, GRAM_BLOCK - 1, GRAM_BLOCK, 2 * GRAM_BLOCK, p.size - 1]
        ph = np.exp(-1j * np.outer(p[idx], tab._x))
        want = np.trapezoid(ph * tab._v[None, :], tab._x, axis=1) / np.sqrt(2 * np.pi)
        assert np.array_equal(tab.fourier(p)[idx], want)
        assert tab.fourier(p[1]) == tab.fourier(p)[1]

    def test_descriptor_round_trip(self):
        for env in (GaussianEnvelope(2.5), SincEnvelope(1.25)):
            clone = envelope_from_descriptor(env.descriptor())
            x = np.linspace(-3, 3, 31)
            assert np.allclose(clone(x), env(x))

    def test_invalid_widths(self):
        with pytest.raises(ValueError):
            GaussianEnvelope(0.0)
        with pytest.raises(ValueError):
            SincEnvelope(-1.0)


class TestBuilders:
    def test_multislit_normalized(self):
        st = build_multislit(3, L=1.0, envelope=GaussianEnvelope(0.05))
        x = np.linspace(-8, 4, 40001)
        assert quad_norm(st, x) == pytest.approx(1.0, abs=1e-8)

    def test_multislit_overlapping_slits_still_normalized(self):
        # overlap is handled through the exact Gram matrix, not assumed away
        with pytest.warns(UserWarning):
            st = build_multislit(2, L=1.0, envelope=GaussianEnvelope(0.5))
        x = np.linspace(-12, 10, 40001)
        assert quad_norm(st, x) == pytest.approx(1.0, abs=1e-8)

    def test_multislit_momentum_fringes(self):
        st = build_multislit(3, L=2.0, envelope=GaussianEnvelope(0.1))
        per = H_PLANCK / 2.0
        p = np.linspace(-1.6 * per, 1.6 * per, 2001)
        dens = momentum_density(st, p)
        # peaks at integer multiples of the momentum period
        for k in (-1, 0, 1):
            window = np.abs(p - k * per) < 0.3 * per
            peak = p[window][np.argmax(dens[window])]
            assert abs(peak - k * per) < 0.02 * per

    def test_smp_position_fringes_match_closed_form(self):
        st = build_smp(4, x0=0.0, N0=1, lam=1.0, envelope=WIDE)
        x = np.linspace(-2, 2, 1601)
        dens = position_density(st, x)
        env = np.abs(WIDE(x)) ** 2
        assert np.allclose(dens, env * fringe_function(4, x), atol=1e-6)

    def test_smp_norm(self):
        st = build_smp(3, x0=0.4, N0=2, lam=1.0, envelope=WIDE)
        x = np.linspace(-80, 80, 160001)
        assert quad_norm(st, x) == pytest.approx(1.0, abs=1e-8)

    def test_mpe_norm_and_relative_fringes(self):
        st = build_mpe(2, x0=0.0, N0=1, lam=1.0, envelope=WIDE)
        r = np.linspace(-1.0, 1.0, 801)
        dens = joint_position_density(st, r / 2, -r / 2)
        envelope = (np.abs(WIDE(r / 2)) * np.abs(WIDE(-r / 2))) ** 2
        ref = fringe_function(2, r)
        # relative-coordinate cut follows the two-slit fringe profile
        assert np.allclose(dens / envelope / 2.0, ref / ref.max(), atol=1e-6)

    def test_mpe_marginal_fringe_free(self):
        st = build_mpe(3, x0=0.0, N0=1, lam=1.0, envelope=WIDE)
        grid = default_grid(st, 1.0)
        gs = discretize(st, grid)
        dens = gs.marginal_density(1)
        # single-particle marginal shows the envelope only, no lambda fringes
        x = grid.x
        core = np.abs(x) < 4.0
        envelope = np.abs(WIDE(x[core])) ** 2
        assert np.max(np.abs(dens[core] - envelope)) < 1e-3 * envelope.max()

    def test_classical_correlated_fringe_free(self):
        st = build_classical_correlated(3, x0=0.0, N0=1, lam=1.0, envelope=WIDE)
        r = np.linspace(-1.0, 1.0, 401)
        dens = joint_position_density(st, r / 2, -r / 2)
        assert np.max(dens) / np.min(dens) < 1.01  # flat: no interference

    @pytest.mark.parametrize(
        "build",
        [
            lambda env: build_mpe(2, 0.0, 1, 1.0, env),
            lambda env: build_smp(2, 0.0, 1, 1.0, env),
            lambda env: admixture_state(0.5, 2, 1.0, env),
            lambda env: state_from_descriptor(
                {"kind": "mpe", "N": 2, "envelope": env.descriptor()}
            ),
        ],
        ids=["build_mpe", "build_smp", "admixture_state", "state_from_descriptor"],
    )
    def test_overlap_warning_once_at_the_callers_line(self, build):
        with pytest.warns(UserWarning, match="envelope width") as record:
            build(GaussianEnvelope(3.0))
        assert len(record) == 1
        assert record[0].filename == __file__

    def test_invalid_builders(self):
        with pytest.raises(ValueError):
            build_multislit(0, L=1.0, envelope=WIDE)
        with pytest.raises(ValueError):
            build_smp(2, x0=0.0, N0=1, lam=-1.0, envelope=WIDE)


class TestMixtures:
    def test_weights_renormalized(self):
        a = build_mpe(2, 0.0, 1, 1.0, WIDE)
        b = build_classical_correlated(2, 0.0, 1, 1.0, WIDE)
        mx = mix([(2.0, a), (6.0, b)])
        # nested mixtures flatten: b's two equal-weight components split its share
        assert np.allclose(mx.weights, [0.25, 0.375, 0.375])

    def test_density_convexity(self):
        a = build_mpe(2, 0.0, 1, 1.0, WIDE)
        b = build_classical_correlated(2, 0.0, 1, 1.0, WIDE)
        mx = mix([(0.3, a), (0.7, b)])
        x1 = np.linspace(-1, 1, 41)
        da = joint_position_density(a, x1, -x1)
        db = joint_position_density(b, x1, -x1)
        dm = joint_position_density(mx, x1, -x1)
        assert np.allclose(dm, 0.3 * da + 0.7 * db, atol=1e-12)

    def test_invalid_weights(self):
        a = build_mpe(2, 0.0, 1, 1.0, WIDE)
        with pytest.raises(ValueError):
            mix([(-0.5, a), (1.5, a)])
        with pytest.raises(ValueError):
            mix([])


def _complex_tabulated():
    xs = np.linspace(-60.0, 60.0, 1201)
    return TabulatedEnvelope(xs, WIDE(xs) * np.exp(0.3j * xs) * (1 + 0.05j * xs))


def _hand_built():
    e1, e2 = GaussianEnvelope(1.5), GaussianEnvelope(2.0)
    return TwoParticleState(
        [
            (1.0, WavePacket(e1, x0=0.3, p0=2.0, phase_ref=0.7),
             WavePacket(e2, x0=-1.1, p0=-1.5, phase_ref=-0.2)),
            (0.5 - 0.8j, WavePacket(e2, x0=4.0, p0=-3.0, phase_ref=0.25),
             WavePacket(e2, x0=2.0, phase_ref=1.3)),
            (0.3j, WavePacket(e1), WavePacket(e1, x0=1.0)),
            (0.2, WavePacket(e2, x0=-2.0), WavePacket(e1, x0=0.5, p0=1.0)),
        ]
    )


DENSITY_CASES = {
    "mpe N=2": lambda: build_mpe(2, 0.0, 1, 1.0, WIDE),
    "mpe N=5": lambda: build_mpe(5, 0.0, 1, 1.0, WIDE),
    "mpe N=10": lambda: build_mpe(10, 0.0, 1, 1.0, WIDE),
    "mpe x0=0.37 N0=2": lambda: build_mpe(3, 0.37, 2, 1.0, WIDE),
    "mpe sinc": lambda: build_mpe(2, 0.0, 1, 1.0, SincEnvelope(8.0)),
    "mpe complex tabulated": lambda: build_mpe(2, 0.2, 1, 1.0, _complex_tabulated()),
    "hand-built": _hand_built,
    "admixture": lambda: admixture_state(0.4, 3, 1.0, WIDE),
}


def _per_packet_density(state, kind, v1, v2):
    """|scale * sum_k a_k psi_1k(v1) psi_2k(v2)|^2, every packet amplitude on its own."""
    if isinstance(state, MixtureState):
        return sum(w * _per_packet_density(st, kind, v1, v2) for w, st in state.components)

    def amp(wp, v):
        return wp.position_amplitude(v) if kind == "position" else wp.momentum_amplitude(v)

    total = sum(a * amp(wp1, v1) * amp(wp2, v2) for a, wp1, wp2 in state.terms)
    return np.abs(state._scale * total) ** 2


def _near_packets(state, kind, n, seed):
    """n points (v1, v2), each near the packet centres of a randomly chosen term."""
    rng = np.random.default_rng(seed)
    pure = [st for _, st in state.components] if isinstance(state, MixtureState) else [state]
    pairs = [(wp1, wp2) for st in pure for _, wp1, wp2 in st.terms]
    v1, v2 = np.empty(n), np.empty(n)
    for j, k in enumerate(rng.integers(len(pairs), size=n)):
        for v, wp in zip((v1, v2), pairs[k]):
            if kind == "position":
                center, width = wp.x0, wp.envelope.width
            else:
                center, width = wp.p0, 1.0 / wp.envelope.width
            v[j] = center + 2.0 * width * rng.standard_normal()
    return v1, v2


class TestJointDensities:
    @pytest.mark.parametrize("label", list(DENSITY_CASES))
    @pytest.mark.parametrize("kind", ["position", "momentum"])
    def test_density_matches_the_per_packet_sum(self, label, kind):
        state = DENSITY_CASES[label]()
        v1, v2 = _near_packets(state, kind, 400, seed=len(label))
        density = joint_position_density if kind == "position" else joint_momentum_density
        got = density(state, v1, v2)
        want = _per_packet_density(state, kind, v1, v2)
        assert want.max() > 0
        assert np.max(np.abs(got - want)) <= 1e-12 * want.max()


SINGLE_CASES = {
    "multislit N=3": lambda: build_multislit(3, 1.0, GaussianEnvelope(0.1)),
    "smp x0=0.37 N0=2": lambda: build_smp(3, 0.37, 2, 1.0, WIDE),
    "smp sinc": lambda: build_smp(2, 0.0, 1, 1.0, SincEnvelope(8.0)),
    "smp complex tabulated": lambda: build_smp(2, 0.2, 1, 1.0, _complex_tabulated()),
}


class TestSingleParticleAmplitudes:
    @pytest.mark.parametrize("label", list(SINGLE_CASES))
    @pytest.mark.parametrize("kind", ["position", "momentum"])
    def test_amplitude_matches_the_per_packet_sum(self, label, kind):
        state = SINGLE_CASES[label]()
        rng = np.random.default_rng(len(label))
        packets = [wp for _, wp in state.terms]
        v = np.empty(400)
        for j, k in enumerate(rng.integers(len(packets), size=v.size)):
            wp = packets[k]
            if kind == "position":
                center, width = wp.x0, wp.envelope.width
            else:
                center, width = wp.p0, 1.0 / wp.envelope.width
            v[j] = center + 2.0 * width * rng.standard_normal()
        if kind == "position":
            got = state.position_amplitude(v)
            want = state._scale * sum(a * wp.position_amplitude(v) for a, wp in state.terms)
        else:
            got = state.momentum_amplitude(v)
            want = state._scale * sum(a * wp.momentum_amplitude(v) for a, wp in state.terms)
        assert np.abs(want).max() > 0
        assert np.max(np.abs(got - want)) <= 1e-12 * np.abs(want).max()


class TestDiscretize:
    def test_grid_state_norm(self):
        st = build_smp(3, x0=0.0, N0=1, lam=1.0, envelope=WIDE)
        gs = discretize(st, default_grid(st, 1.0))
        assert np.sum(np.abs(gs.psi) ** 2) * gs.spec.dx == pytest.approx(1.0, abs=1e-12)

    def test_grid_too_small_raises(self):
        st = build_smp(2, x0=0.0, N0=1, lam=1.0, envelope=WIDE)
        tiny = GridSpec(points=256, xmin=-4.0, xmax=4.0)  # 8 sigma_x would need ~64
        with pytest.raises(ValueError, match="grid"):
            discretize(st, tiny)

    def test_two_particle_grid_too_small_raises(self):
        st = build_mpe(2, x0=0.0, N0=1, lam=1.0, envelope=WIDE)
        tiny = GridSpec(points=256, xmin=-4.0, xmax=4.0)
        with pytest.raises(ValueError, match="grid"):
            discretize(st, tiny)

    def test_coarse_grid_raises(self):
        st = build_smp(2, x0=0.0, N0=1, lam=1.0, envelope=WIDE)
        coarse = GridSpec(points=32, xmin=-64.0, xmax=64.0)  # dx = 4 > lambda/8
        with pytest.raises(ValueError, match="fringe"):
            discretize(st, coarse)

    def test_default_grid_commensurate(self):
        st = build_smp(2, x0=0.0, N0=1, lam=0.7, envelope=GaussianEnvelope(5.6))
        grid = default_grid(st, 0.7)
        grid.check_commensurate(__import__("modint").ModularScale(0.7))

    def test_two_particle_discretize_density(self):
        st = build_mpe(2, x0=0.0, N0=1, lam=1.0, envelope=WIDE)
        grid = default_grid(st, 1.0)
        gs = discretize(st, grid)
        assert isinstance(gs, TwoParticleGridState)
        # sampled joint density along the antidiagonal matches the analytic one
        # sampled joint density at a probe point matches the analytic one;
        # the grid is too large to materialize, so probe via the term structure
        idx = np.argmin(np.abs(grid.x - 0.25))
        jdx = np.argmin(np.abs(grid.x + 0.25))
        amp = sum(c * a1[idx] * a2[jdx] for c, a1, a2 in gs.terms)
        ana = joint_position_density(st, grid.x[idx], grid.x[jdx])
        assert abs(amp) ** 2 == pytest.approx(float(ana), rel=1e-6)


class TestSerialization:
    def test_csv_round_trip_1d(self, tmp_path):
        st = build_smp(2, x0=0.0, N0=1, lam=1.0, envelope=WIDE)
        gs = discretize(st, default_grid(st, 1.0))
        path = tmp_path / "state.csv"
        gridstate_to_csv(gs, path)
        back = gridstate_from_csv(path)
        assert np.allclose(back.psi, gs.psi, atol=1e-12)
        assert back.spec == gs.spec

    def test_descriptor_builds_all_kinds(self):
        base = {"N": 2, "x0": 0.0, "N0": 1, "lambda": 1.0,
                "envelope": {"kind": "gaussian", "sigma_x": 8.0}}
        assert isinstance(state_from_descriptor({"kind": "smp", **base}), SuperposedState)
        assert isinstance(state_from_descriptor({"kind": "mpe", **base}), TwoParticleState)
        assert isinstance(state_from_descriptor({"kind": "classical", **base}), MixtureState)
        st = state_from_descriptor({"kind": "admixture", "epsilon": 0.5, **base})
        assert isinstance(st, MixtureState)
        ms = state_from_descriptor(
            {"kind": "multislit", "N": 3, "L": 1.0,
             "envelope": {"kind": "gaussian", "sigma_x": 0.05}}
        )
        assert isinstance(ms, SuperposedState)

    def test_descriptor_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown"):
            state_from_descriptor({"kind": "smp", "N": 2, "bogus": 1})

    def test_descriptor_json_stable(self):
        d = {"kind": "smp", "N": 2}
        assert json.loads(json.dumps(d, sort_keys=True)) == d


class TestWavePacket:
    def test_momentum_amplitude_is_fourier_transform(self):
        wp = WavePacket(GaussianEnvelope(1.5), x0=0.7, p0=2.0)
        x = np.linspace(-40, 40, 32768)
        p = np.array([-1.0, 0.0, 1.5, 3.0])
        amp_x = wp.position_amplitude(x)
        numeric = [
            np.trapezoid(amp_x * np.exp(-1j * pv * x), x) / np.sqrt(2 * np.pi)
            for pv in p
        ]
        assert np.allclose(numeric, wp.momentum_amplitude(p), atol=1e-8)

    def test_terms_need_one_packet_per_particle(self):
        wp = WavePacket(WIDE)
        with pytest.raises(ValueError):
            SuperposedState([(1.0, wp, wp)])
        with pytest.raises(ValueError):
            TwoParticleState([(1.0, wp)])

    def test_unsupported_states_raise_type_error(self):
        single = SuperposedState([(1.0, WavePacket(WIDE))])
        with pytest.raises(TypeError, match="SuperposedState"):
            mix([(1.0, single)])
        with pytest.raises(TypeError, match="object"):
            default_grid(object(), 1.0)

    def test_superposition_norm_with_overlap(self):
        # two packets with nonzero overlap: Gram renormalization keeps norm 1
        a = WavePacket(GaussianEnvelope(1.0), x0=0.0)
        b = WavePacket(GaussianEnvelope(1.0), x0=0.8)
        st = SuperposedState([(1.0, a), (1.0, b)])
        x = np.linspace(-20, 20, 20001)
        assert quad_norm(st, x) == pytest.approx(1.0, abs=1e-8)
