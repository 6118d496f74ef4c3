import cmath
import json
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modint import states
from modint.criterion import evaluate_criterion
from modint.grids import GridSpec, TwoParticleGridState
from modint.modvar import H_PLANCK, ModularScale, fringe_function
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

    def test_descriptor_round_trip(self):
        for env, d in (
            (GaussianEnvelope(2.5), {"kind": "gaussian", "sigma_x": 2.5}),
            (SincEnvelope(1.25), {"kind": "sinc", "d": 1.25}),
        ):
            clone = envelope_from_descriptor(d)
            x = np.linspace(-3, 3, 31)
            assert np.allclose(clone(x), env(x))

    def test_invalid_widths(self):
        for width in (0.0, -1.0, float("inf"), float("nan")):
            with pytest.raises(ValueError, match="sigma_x must be positive and finite"):
                GaussianEnvelope(width)
            with pytest.raises(ValueError, match="d must be positive and finite"):
                SincEnvelope(width)


def _tabulated_64():
    xs = np.linspace(-30.0, 30.0, 64)
    return TabulatedEnvelope(xs, GaussianEnvelope(4.0)(xs))


def _tabulated_601c():
    xs = np.linspace(-30.0, 30.0, 601)
    return TabulatedEnvelope(xs, GaussianEnvelope(4.0)(xs) * np.exp(0.3j * xs) * (1 + 0.05j * xs))


TABLES = {"64": _tabulated_64, "601c": _tabulated_601c}


def _dense_axes(env):
    """Fine position and momentum lattices covering the spline's support and +-12 pi / dx."""
    dx = env._x[1] - env._x[0]
    x = np.linspace(env._x[0] - 40 * dx, env._x[-1] + 40 * dx, 200_001)
    p = np.linspace(-12 * np.pi / dx, 12 * np.pi / dx, 100_001)
    return x, p


@pytest.mark.parametrize("table", sorted(TABLES))
class TestTabulatedFourierPair:
    def test_parseval_on_both_sides(self, table):
        env = TABLES[table]()
        x, p = _dense_axes(env)
        assert np.trapezoid(np.abs(env(x)) ** 2, x) == pytest.approx(1.0, abs=1e-10)
        assert np.trapezoid(np.abs(env.fourier(p)) ** 2, p) == pytest.approx(1.0, abs=1e-10)

    def test_no_spectral_copy(self, table):
        env = TABLES[table]()
        dx = env._x[1] - env._x[0]
        assert abs(env.fourier(2 * np.pi / dx)) < 1e-6 * abs(env.fourier(0.0))
        assert env.fourier(np.zeros((2, 3))).shape == (2, 3)

    def test_overlap_by_position_equals_overlap_by_momentum(self, table):
        env = TABLES[table]()
        x, p = _dense_axes(env)
        a, b = WavePacket(env, 1.3, 0.4, -0.7), WavePacket(env, -2.1, -0.3, 0.5)
        by_x = np.trapezoid(np.conj(a.position_amplitude(x)) * b.position_amplitude(x), x)
        by_p = np.trapezoid(np.conj(a.momentum_amplitude(p)) * b.momentum_amplitude(p), p)
        assert abs(by_x) > 1e-3
        assert abs(by_x - by_p) < 1e-10

    def test_interpolates_the_normalized_samples(self, table):
        env = TABLES[table]()
        assert np.max(np.abs(env(env._x) - env._v)) < 1e-12

    def test_zero_beyond_the_padded_support_and_nan_through(self, table):
        env = TABLES[table]()
        dx = env._x[1] - env._x[0]
        reach = (states.SPLINE_PAD + 3) * dx  # the support ends 2 dx past the outer zero sample
        far = np.array([env._x[0] - reach, env._x[-1] + reach, -1e300, 1e300, -np.inf, np.inf])
        assert np.array_equal(env(far), np.zeros(far.size))
        out = env(np.array([np.nan, 0.0]))
        assert np.isnan(out[0]) and np.isfinite(out[1])

    def test_descriptor_round_trip(self, table):
        env = TABLES[table]()
        d = {"kind": "tabulated", "x": env._x.tolist(), "re": env._v.real.tolist(),
             "im": env._v.imag.tolist()}
        clone = envelope_from_descriptor(json.loads(json.dumps(d)))
        x = np.linspace(-35.0, 35.0, 701)
        assert np.max(np.abs(clone(x) - env(x))) < 1e-14
        p = np.linspace(-3.0, 3.0, 61)
        assert np.max(np.abs(clone.fourier(p) - env.fourier(p))) < 1e-14


def test_tabulated_rejects_nonuniform_abscissae():
    xs = np.linspace(-30.0, 30.0, 64)
    bent = xs + 1e-3 * xs**2
    for x in (bent, xs[::-1], np.concatenate([xs[:10], xs[11:], [31.0]])):
        with pytest.raises(ValueError, match="uniformly spaced and increasing"):
            TabulatedEnvelope(x, GaussianEnvelope(4.0)(x))
        d = {"kind": "tabulated", "x": x.tolist(), "re": GaussianEnvelope(4.0)(x).tolist()}
        with pytest.raises(ValueError, match="uniformly spaced and increasing"):
            envelope_from_descriptor(d)


GAUSSIAN_WIDTHS = [0.05, 1.0, 8.0, 16.0]
# exponents in the normal range, the subnormal band (-745.13, -708.4) and below
# -746, where exp is +0.0; the neighbours of -746 itself are included
EXPONENTS = np.concatenate(
    [
        -np.linspace(0.0, 708.0, 301),
        -np.linspace(708.4, 745.2, 301),
        [-745.13, -745.14, np.nextafter(-746.0, 0.0), -746.0, np.nextafter(-746.0, -np.inf)],
        -np.geomspace(746.0, 1e12, 41),
    ]
)


def _gaussian_by_formula(sigma, x, p):
    """The two Gaussian amplitudes written out with one np.exp over every argument."""
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    position = (2 * math.pi * sigma**2) ** -0.25 * np.exp(-(x**2) / (4 * sigma**2))
    momentum = (2 * sigma**2 / math.pi) ** 0.25 * np.exp(-(sigma**2) * p**2)
    return position, momentum


def _assert_gaussian_bitwise(sigma, x, p):
    env = GaussianEnvelope(sigma)
    with np.errstate(over="ignore"):  # huge arguments square to inf on both sides
        want_x, want_p = _gaussian_by_formula(sigma, x, p)
        got_x, got_p = env(x), env.fourier(p)
    for got, want in ((got_x, want_x), (got_p, want_p)):
        assert type(got) is type(want) and np.shape(got) == np.shape(want)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))


class TestGaussianValuesBitwise:
    """Every Gaussian value is the plain formula's, bit for bit, in the normal, subnormal and zero bands."""

    @pytest.mark.parametrize("sigma", GAUSSIAN_WIDTHS)
    def test_every_exponent_band(self, sigma):
        for sign in (1.0, -1.0):
            x = sign * 2 * sigma * np.sqrt(-EXPONENTS)
            p = sign * np.sqrt(-EXPONENTS) / sigma
            _assert_gaussian_bitwise(sigma, x, p)
            # only live arguments, and each one on its own
            _assert_gaussian_bitwise(sigma, x[:50], p[:50])
            for i in (0, 400, 602, 604, 605, 606, 640):
                _assert_gaussian_bitwise(sigma, x[i], p[i])

    @pytest.mark.parametrize("sigma", GAUSSIAN_WIDTHS)
    def test_nan_inf_and_shapes(self, sigma):
        special = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 1e300])
        x = np.concatenate([special, 2 * sigma * np.sqrt(-EXPONENTS[::37])])
        p = np.concatenate([special, np.sqrt(-EXPONENTS[::37]) / sigma])
        _assert_gaussian_bitwise(sigma, x, p)
        # 2-D arrays that hold NaN next to arguments below -746
        _assert_gaussian_bitwise(sigma, x[: 2 * (x.size // 2)].reshape(2, -1),
                                 p[: 2 * (p.size // 2)].reshape(-1, 2))
        for v in special:
            _assert_gaussian_bitwise(sigma, np.array(v), np.array(v))
            _assert_gaussian_bitwise(sigma, v, v)
        _assert_gaussian_bitwise(sigma, np.empty(0), np.empty((0, 3)))

    @given(
        st.sampled_from(GAUSSIAN_WIDTHS),
        st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=40),
    )
    @settings(max_examples=200, deadline=None)
    def test_property_any_float(self, sigma, values):
        v = np.array(values)
        _assert_gaussian_bitwise(sigma, v, v)
        with np.errstate(over="ignore"):
            _assert_gaussian_bitwise(sigma, 1e3 * v, 1e2 * v)


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
                {"kind": "mpe", "N": 2, "envelope": {"kind": "gaussian", "sigma_x": env.sigma_x}}
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

    @pytest.mark.parametrize("lam", [float("inf"), float("nan"), 0.0])
    def test_comb_builders_reject_nonfinite_lambda_before_warning(self, lam):
        # a UserWarning would fail the test first: pytest turns it into an error
        with pytest.raises(ValueError, match="lambda must be positive and finite"):
            build_mpe(2, 0.0, 1, lam, WIDE)

    def test_overlap_quadrature_over_budget_raises_before_any_row(self, monkeypatch):
        def no_rows(*args, **kwargs):
            raise AssertionError("built quadrature rows for a state over the budget")

        monkeypatch.setattr(states, "_amplitude_rows", no_rows)
        xs = np.linspace(-60.0, 60.0, 1201)
        table = TabulatedEnvelope(xs, WIDE(xs))  # no closed form: the quadrature normalizes it
        # 1000 packets on 1.28e6 points (2**21 once rounded): 1.28e12 multiply-adds
        with pytest.raises(ValueError, match=r"1000 packets on 1\.28e\+06 points.*budget of 1e\+11"):
            build_mpe(1000, 0.0, 1, 1.0, table)

    def test_gaussian_2000_packet_mpe_normalizes_in_closed_form(self, monkeypatch):
        def no_quadrature(*args, **kwargs):
            raise AssertionError("overlap quadrature used for Gaussian packets")

        monkeypatch.setattr(states, "_overlap_matrix", no_quadrature)
        # the packets are 2 pi apart in momentum, so each overlap is e^{-(2 pi sigma)^2 / 2} = 0
        assert build_mpe(2000, 0.0, 1, 1.0, WIDE)._scale == pytest.approx(1.0, abs=1e-12)

    def test_2000_packet_mpe_builds_in_bounded_memory(self):
        # both 2000 x 2000 Grams and their product held at once peaked at 170 MiB;
        # the norm's row blocks hold OVERLAP_BLOCK rows of each
        tracemalloc.start()
        try:
            build_mpe(2000, 0.0, 1, 1.0, WIDE)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48 * 2**20, peak

    def test_closed_form_gram_over_budget_raises_before_any_entry(self, monkeypatch):
        def no_entries(*args, **kwargs):
            raise AssertionError("computed Gram entries for a state over the budget")

        monkeypatch.setitem(states._CLOSED_FORM_OVERLAPS, GaussianEnvelope, no_entries)
        # 2049 packets: 4.2e6 entries per particle, over MAX_GRAM_ENTRIES = 2**22
        with pytest.raises(ValueError, match=r"overlap Gram of 2049 packets has 4\.2e\+06 entries"):
            build_mpe(2049, 0.0, 1, 1.0, WIDE)

    @pytest.mark.parametrize("x0", [float("inf"), float("-inf"), float("nan")])
    @pytest.mark.parametrize(
        "build",
        [
            lambda x0: build_smp(2, x0, 1, 1.0, WIDE),
            lambda x0: build_mpe(2, x0, 1, 1.0, WIDE),
            lambda x0: build_classical_correlated(2, x0, 1, 1.0, WIDE),
            lambda x0: admixture_state(0.5, 2, 1.0, WIDE, x0),
        ],
        ids=["smp", "mpe", "classical", "admixture"],
    )
    def test_comb_builders_reject_nonfinite_x0(self, build, x0):
        with pytest.raises(ValueError, match="x0 must be finite"):
            build(x0)


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
        for bad in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="positive and finite"):
                mix([(bad, a), (1.0, a)])

    def test_nested_weights_that_underflow_are_left_out(self):
        # 5e-324 is a weight the caller may give; its share of a nested ensemble is not
        a = build_mpe(2, 0.0, 1, 1.0, WIDE)
        b = build_classical_correlated(2, 0.0, 1, 1.0, WIDE)
        mx = mix([(1.0, a), (5e-324, b)])
        assert mx.weights == [1.0] and mx.components[0][1] is a
        assert admixture_state(5e-324, 2, 1.0, WIDE).weights == [1.0]
        with pytest.raises(ValueError, match="underflows"):
            mix([(5e-324, b)])


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
    # a fringe period whose lattice the wave numbers miss by 1e-9: no snapping
    "off the lattice by 1e-9": lambda: TwoParticleState(
        [
            (1.0, WavePacket(WIDE, p0=H_PLANCK), WavePacket(WIDE, p0=-H_PLANCK)),
            (0.6, WavePacket(WIDE, p0=2 * H_PLANCK + 1e-9), WavePacket(WIDE, p0=-2 * H_PLANCK)),
            (0.3j, WavePacket(WIDE, p0=3 * H_PLANCK), WavePacket(WIDE, p0=-3 * H_PLANCK)),
        ],
        fringe_period=1.0,
    ),
    "one term": lambda: TwoParticleState(
        [(0.7j, WavePacket(WIDE, x0=0.5, p0=3.0, phase_ref=0.2), WavePacket(WIDE, x0=-1.0, p0=-2.0))]
    ),
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

    @pytest.mark.parametrize("N0", [10**6, 10**9])
    def test_far_comb_matches_the_exact_per_packet_sum(self, N0):
        # a float p0 ~ 2 pi N0 times x ~ 16 rounds by ~1e-8 (N0 = 1e6) to 1e-5 (1e9)
        # radians; summing such packet waves put rho off by 4.4e-9 and 1.3e-7 of its
        # maximum on these points. The lattice waves round b (x1 - x2) once, and w^n
        # carries that n-fold: one coherent shift of the fringes by about an ulp of
        # x1 - x2, which near a peak of this comb moves rho by up to 1.2e-12 of max
        # rho (median 1.5e-13 over 40 point sets). 4e-12 sits above that floor.
        state = build_mpe(100, 0.0, N0, 1.0, WIDE)
        v1, v2 = _near_packets(state, "position", 200, seed=N0 % 97)
        got = joint_position_density(state, v1, v2)
        want = _exact_comb_density(state, N0, 1.0, v1, v2)
        assert np.max(np.abs(got - want)) <= 4e-12 * want.max()

    @pytest.mark.parametrize("N", [2, 5, 100])
    def test_comb_density_does_not_depend_on_n0(self, N):
        # the packets' wave numbers differ by n h / lambda whatever N0 is, so at
        # x0 = 0 the density is the same function of (x1, x2)
        near = build_mpe(N, 0.0, 1, 1.0, WIDE)
        v1, v2 = _near_packets(near, "position", 400, seed=N)
        want = joint_position_density(near, v1, v2)
        for N0 in (10**6, 10**9):
            got = joint_position_density(build_mpe(N, 0.0, N0, 1.0, WIDE), v1, v2)
            assert np.max(np.abs(got - want)) <= 1e-15 * want.max(), N0

    def test_comb_waves_lie_on_one_lattice_line(self):
        # position: p0 = +-(N0 + n) h / lambda, one exponential w = e^{i b (x1 - x2)} and
        # its powers; momentum: every term has the wave (-x0, x0), so none at all
        state = build_mpe(5, 0.37, 2, 1.0, WIDE)
        pos = state._waves("position")
        assert pos.lattice == (H_PLANCK, (1, -1))
        assert (pos.order, pos.steps) == ((0, 1, 2, 3, 4), (0, 1, 2, 3, 4))
        assert pos.common == (2 * H_PLANCK, -2 * H_PLANCK)
        mom = state._waves("momentum")
        assert mom.lattice is None
        assert mom.common == (-0.37, 0.37)
        assert not any(any(s) for s in mom.steps)

    @pytest.mark.parametrize("powers, lattice", [((0, 1, 3), True), ((0, 9), False)])
    def test_walk_visits_at_most_twice_the_powers_it_uses(self, powers, lattice):
        # w^0, w^1, w^3 walk through 4 powers for 3 terms; w^9 would take 9 products
        # for 2 terms, so those terms take one exponential each
        state = TwoParticleState(
            [(1.0, WavePacket(WIDE, p0=n * H_PLANCK), WavePacket(WIDE, p0=-n * H_PLANCK)) for n in powers],
            fringe_period=1.0,
        )
        waves = state._waves("position")
        assert (waves.lattice is not None) == lattice
        v1, v2 = _near_packets(state, "position", 400, seed=len(powers))
        want = _per_packet_density(state, "position", v1, v2)
        assert np.max(np.abs(joint_position_density(state, v1, v2) - want)) <= 1e-12 * want.max()

    @pytest.mark.parametrize("kind", ["position", "momentum"])
    def test_off_lattice_and_one_term_states_take_one_wave_per_relative_tuple(self, kind):
        # the hand-built state has no fringe period, and the other off-lattice state
        # misses its lattice: each relative tuple gets its own exponential; a
        # one-term state has no relative wave
        waves = _hand_built()._waves(kind)
        assert waves.lattice is None
        assert waves.steps[0] == (0.0, 0.0) and all(any(s) for s in waves.steps[1:])
        assert DENSITY_CASES["off the lattice by 1e-9"]()._waves(kind).lattice is None
        one = DENSITY_CASES["one term"]()._waves(kind)
        assert one.lattice is None and one.steps == ((0.0, 0.0),)
        assert one.common is not None

    @pytest.mark.parametrize("kind", ["position", "momentum"])
    def test_amplitude_keeps_the_common_wave(self, kind):
        state = build_mpe(3, 0.37, 2, 1.0, WIDE)
        v1, v2 = _near_packets(state, kind, 400, seed=5)
        got = state._amplitude(kind, v1, v2)
        want = state._scale * sum(
            a * getattr(wp1, f"{kind}_amplitude")(v1) * getattr(wp2, f"{kind}_amplitude")(v2)
            for a, wp1, wp2 in state.terms
        )
        assert np.max(np.abs(got - want)) <= 1e-12 * np.abs(want).max()


# 2 pi to 62 digits, so that a phase near 1e12 reduces exactly to double precision
TWO_PI_EXACT = Fraction("6.28318530717958647692528676655900576839433879875021164194988918")


def _exact_comb_density(state, N0, lam, x1, x2):
    """|scale sum_n a_n psi_1n(x1) psi_2n(x2)|^2 of an MPE at x0 = 0, packet by packet.

    Packet n carries e^{+-i (N0 + n) b x} with b = h / lam, whose phase is
    reduced modulo 2 pi in exact rationals before its exponential.
    """
    b = Fraction(H_PLANCK / lam)
    total = np.zeros(len(x1), dtype=complex)
    for n, (a, wp1, wp2) in enumerate(state.terms):
        amp = a * wp1.envelope(x1 - wp1.x0) * wp2.envelope(x2 - wp2.x0)
        for sign, x in ((1, x1), (-1, x2)):
            wave = (N0 + n) * b * sign
            amp = amp * np.array([cmath.exp(1j * float(wave * Fraction(u) % TWO_PI_EXACT)) for u in x])
        total += amp
    return np.abs(state._scale * total) ** 2


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

    def test_grid_coarser_than_the_envelope_raises(self):
        # one grid point on a packet of width 1e-6 carries |phi(0)|^2 dx ~ 1.6e3 of its mass
        with pytest.warns(UserWarning, match="overlap"):
            st = build_smp(2, x0=0.0, N0=1, lam=1.0, envelope=GaussianEnvelope(1e-6))
        with pytest.raises(ValueError, match="too coarse"):
            discretize(st, GridSpec(points=1024, xmin=-2.0, xmax=2.0))

    def test_coarse_grid_raises(self):
        st = build_smp(2, x0=0.0, N0=1, lam=1.0, envelope=WIDE)
        coarse = GridSpec(points=32, xmin=-64.0, xmax=64.0)  # dx = 4 > lambda/8
        with pytest.raises(ValueError, match="fringe"):
            discretize(st, coarse)

    def test_multislit_grid_needs_no_position_fringe_spacing(self):
        # the slits' fringes, of period h/L, are in momentum: dx = 0.0625 resolves
        # slits 100 apart although (h/L) / 8 = 0.00785
        st = build_multislit(2, 100.0, GaussianEnvelope(10.0))
        gs = discretize(st, GridSpec(points=16384, xmin=-512.0, xmax=512.0))
        assert gs.input_norm == pytest.approx(1.0, abs=1e-12)

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
        amp = sum(c * a1[idx] * a2[jdx] for c, a1, a2 in zip(gs.coefs, gs.a1, gs.a2))
        ana = joint_position_density(st, grid.x[idx], grid.x[jdx])
        assert abs(amp) ** 2 == pytest.approx(float(ana), rel=1e-6)

    def test_envelope_mass_check_takes_no_blas_dot(self, monkeypatch):
        # a threaded BLAS dot per n-point factor cost milliseconds at the default threads
        st = build_mpe(2, x0=0.0, N0=1, lam=1.0, envelope=WIDE)
        grid = default_grid(st, 1.0)

        def refuse(*args, **kwargs):
            raise AssertionError("np.vdot called")

        monkeypatch.setattr(np, "vdot", refuse)
        assert discretize(st, grid).input_norm == pytest.approx(1.0, abs=1e-12)

    def test_ensemble_is_one_grid_state_over_its_shared_pairs(self):
        # the admixture's N + 1 components hold the MPE's N packet pairs: one row each
        st = admixture_state(0.4, 3, 1.0, WIDE)
        gs = discretize(st, default_grid(st, 1.0))
        assert isinstance(gs, TwoParticleGridState)
        assert gs.rows1.shape == (3, gs.spec.points) and len(gs.coefs) == 4
        assert np.array_equal(gs.weights, st.weights)
        pure = discretize(st.components[0][1], gs.spec)
        assert np.array_equal(gs.coefs[0][0], [0, 1, 2]) and np.array_equal(gs.coefs[0][1], pure.coefs)
        # each classical component is one pair, normalized on the grid by itself
        for (terms, values), (_, part) in zip(gs.coefs[1:], st.components[1:]):
            alone = discretize(part, gs.spec)
            assert len(terms) == 1
            assert abs(values[0]) == pytest.approx(abs(alone.coefs[0]), rel=1e-14)
        # the MPE's row joins all three pairs into one block
        assert [list(b.terms) for b in gs.blocks] == [[0, 1, 2]]

    def test_classical_ensemble_takes_one_block_per_pair(self):
        # no row joins two pairs, so the Grams are 1 x 1 and the cost grows as N, not N^2
        st = build_classical_correlated(40, 0.0, 1, 1.0, WIDE)
        gs = discretize(st, default_grid(st, 1.0))
        assert [list(b.terms) for b in gs.blocks] == [[k] for k in range(40)]
        assert all(g.shape == (1, 1) for b in gs.blocks for g in b.grams)
        assert gs.input_norm == pytest.approx(1.0, abs=1e-12)

    def test_blocks_at_different_x0_keep_their_own_factors(self):
        # two combs at different x0 share no pair: two blocks, each on its own lattice factor
        st = mix([(0.5, build_mpe(2, 0.0, 1, 1.0, WIDE)), (0.5, build_mpe(3, 0.6, 1, 1.0, WIDE))])
        gs = discretize(st, default_grid(st, 1.0))
        assert [list(b.terms) for b in gs.blocks] == [[0, 1], [2, 3, 4]]
        for block in gs.blocks:
            for rows, full in zip(block.rows, (gs.rows1, gs.rows2)):
                assert rows.lattice is not None
                assert np.array_equal(rows.array, full.array[block.terms])
                for factor, key in zip(rows.factors, rows.keys, strict=True):
                    assert factor is full.factors[full.keys.index(key)]

    def test_ensemble_refuses_a_grid_that_misses_a_component(self):
        # the narrow grid of the centred pair misses most of the displaced one
        centred = build_mpe(2, x0=0.0, N0=1, lam=1.0, envelope=WIDE)
        shifted = build_mpe(2, x0=40.0, N0=1, lam=1.0, envelope=WIDE)
        grid = default_grid(centred, 1.0)
        assert discretize(centred, grid).input_norm == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(ValueError, match="grid too small"):
            discretize(mix([(0.5, centred), (0.5, shifted)]), grid)


class TestSerialization:
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

    @pytest.mark.parametrize(
        "d, sigma",
        [
            ({"kind": "mpe", "N": 2}, 8.0),
            ({"kind": "mpe", "N": 2, "lambda": 0.5}, 4.0),
            ({"kind": "smp", "N": 3, "lambda": 2.0}, 16.0),
            ({"kind": "admixture", "N": 2, "epsilon": 0.5}, 8.0),
            ({"kind": "multislit", "N": 3, "L": 2.0}, 0.2),
        ],
    )
    def test_descriptor_without_envelope_takes_the_family_width(self, d, sigma):
        # 8 lambda for combs and L / 10 for slits, as the CLI documents; the width
        # was 3.0 for any lambda or L, which warned at lambda = 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            state = state_from_descriptor(d)
        pure = state.components[0][1] if isinstance(state, MixtureState) else state
        assert {wp.envelope for wp in pure.packets} == {GaussianEnvelope(sigma)}

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

    # a NaN norm bound keeps the sampler from accepting any proposal, and a norm of
    # inf (1e200 squared) scales the amplitudes to 0: both are refused here
    @pytest.mark.parametrize("value", [math.nan, math.inf, 1e200], ids=["nan", "inf", "overflow"])
    def test_refuses_a_norm_that_is_not_finite(self, value):
        wp = WavePacket(WIDE)
        with pytest.raises(ValueError, match="squared norm is (nan|inf)"):
            TwoParticleState([(value, wp, wp)])
        with pytest.raises(ValueError, match="state has zero norm"):
            TwoParticleState([(0.0, wp, wp)])

    def test_superposition_norm_with_overlap(self):
        # two packets with nonzero overlap: Gram renormalization keeps norm 1
        a = WavePacket(GaussianEnvelope(1.0), x0=0.0)
        b = WavePacket(GaussianEnvelope(1.0), x0=0.8)
        st = SuperposedState([(1.0, a), (1.0, b)])
        x = np.linspace(-20, 20, 20001)
        assert quad_norm(st, x) == pytest.approx(1.0, abs=1e-8)


def _quadrature_gram(packets):
    return states._overlap_matrix(packets, states._quadrature_grid(packets))


def _closed_gram(packets):
    return states._overlap_rows(packets)(0, len(packets))


def _box_reference(a, b):
    """<a|b> of two sinc packets by a Gauss-Legendre rule on their momentum boxes' intersection."""
    lo = max(a.p0 - np.pi / a.envelope.d, b.p0 - np.pi / b.envelope.d)
    hi = min(a.p0 + np.pi / a.envelope.d, b.p0 + np.pi / b.envelope.d)
    if not lo < hi:
        return 0.0
    t, w = np.polynomial.legendre.leggauss(400)
    p = 0.5 * (hi - lo) * t + 0.5 * (hi + lo)
    return 0.5 * (hi - lo) * np.sum(w * np.conj(a.momentum_amplitude(p)) * b.momentum_amplitude(p))


_PACKET = st.tuples(
    st.floats(-20.0, 20.0), st.floats(-10.0, 10.0), st.floats(-5.0, 5.0), st.floats(0.5, 20.0)
)


class TestClosedFormGrams:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(_PACKET, min_size=1, max_size=4))
    def test_gaussian_gram_matches_the_quadrature(self, rows):
        packets = [WavePacket(GaussianEnvelope(s), x0, p0, r) for x0, p0, r, s in rows]
        assert np.max(np.abs(_closed_gram(packets) - _quadrature_gram(packets))) <= 1e-12

    @pytest.mark.parametrize("x0", [0.0, 0.37])
    @pytest.mark.parametrize("n", [2, 10, 100])
    def test_gaussian_mpe_gram_matches_the_quadrature(self, n, x0):
        for packets in build_mpe(n, x0, 1, 1.0, WIDE).particles:
            assert np.max(np.abs(_closed_gram(packets) - _quadrature_gram(packets))) <= 1e-12

    @pytest.mark.parametrize("width", [1e-150, 1e-100, 1.0, 1e100, 1e150])
    @pytest.mark.parametrize("envelope", [GaussianEnvelope, SincEnvelope])
    def test_a_packet_overlaps_itself_exactly(self, envelope, width):
        # RuntimeWarnings are errors here, so no width may under- or overflow
        packet = WavePacket(envelope(width), x0=0.37, p0=2 * np.pi * 3, phase_ref=0.37)
        assert _closed_gram([packet]).tolist() == [[1.0]]

    @settings(max_examples=40, deadline=None)
    @given(st.lists(_PACKET, min_size=1, max_size=4))
    def test_sinc_gram_matches_the_box_integrals(self, rows):
        packets = [WavePacket(SincEnvelope(d), x0, p0, r) for x0, p0, r, d in rows]
        want = np.array([[_box_reference(a, b) for b in packets] for a in packets])
        got = _closed_gram(packets)
        assert np.max(np.abs(got - want)) <= 1e-12
        assert np.all(np.diag(got) == 1.0)

    def test_sinc_states_are_normalized_exactly(self):
        # the quadrature stopped 10 widths out and read 0.98268 here
        assert build_multislit(3, 1.0, SincEnvelope(0.1))._scale == pytest.approx(1.0, abs=1e-15)

    def test_tabulated_and_mixed_kinds_take_the_quadrature(self, monkeypatch):
        calls = []
        monkeypatch.setattr(states, "_overlap_matrix", lambda p, g: calls.append(len(p)) or np.eye(len(p)))
        SuperposedState([(1.0, WavePacket(_tabulated_64())), (1.0, WavePacket(WIDE, x0=40.0))])
        build_smp(2, 0.0, 1, 1.0, SincEnvelope(8.0))
        assert calls == [2]

    def test_analytic_states_never_take_the_quadrature(self, monkeypatch):
        def no_quadrature(*args, **kwargs):
            raise AssertionError("overlap quadrature used for analytic envelopes")

        monkeypatch.setattr(states, "_overlap_matrix", no_quadrature)
        build_mpe(2, 0.0, 1, 1.0, SincEnvelope(8.0))
        for state in (build_mpe(3, 0.37, 2, 1.0, WIDE), admixture_state(0.5, 2, 1.0, WIDE)):
            assert evaluate_criterion(state, ModularScale(1.0)).lhs > 0
