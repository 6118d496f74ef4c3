import json
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modint.criterion import (
    _AXES,
    admixture_state,
    criterion_bound,
    criterion_stats,
    evaluate_criterion,
    robustness_threshold,
    visibility_of_admixture,
)
from modint.dynamics import PropagationParams, free_propagate
from modint.grids import GridSpec, TwoParticleGridState, observable_stats
from modint.modvar import ModularScale, squeezing_s2
from modint.spectral import solve_c
from modint.states import (
    GaussianEnvelope,
    MixtureState,
    TwoParticleState,
    WavePacket,
    build_classical_correlated,
    build_mpe,
    build_smp,
    default_grid,
    discretize,
    mix,
    state_from_descriptor,
)

warnings.filterwarnings("ignore", message="envelope width")

WIDE = GaussianEnvelope(sigma_x=8.0)
SCALE = ModularScale(1.0)


def random_product_state(rng):
    def packet():
        return WavePacket(
            GaussianEnvelope(rng.uniform(0.5, 4.0)),
            x0=rng.uniform(-2, 2),
            p0=rng.uniform(-3, 3) * 2 * np.pi,
        )

    return TwoParticleState([(1.0, packet(), packet())], fringe_period=1.0)


def _adversary(M, axis):
    """A separable product of two combs, and c_M: its exact lhs 2 c_M lies just above 2c.

    Restricted to combs sum_n a_n |n> with n = -M..M, the operator whose lowest
    eigenvalue is c becomes diag(n^2) + T, with T_nm = 1/12 at j = m - n = 0 and
    (-1)^j / (2 pi^2 j^2) otherwise. Each particle's amplitudes are its lowest
    eigenvector a: packets at p = 2 pi n on the momentum axis, at x = n on the
    position axis, with ell = 1.
    """
    n = np.arange(-M, M + 1)
    j = n[None, :] - n[:, None]
    off = (-1.0) ** j / (2 * np.pi**2 * np.where(j == 0, 1, j) ** 2)
    c_m, vecs = np.linalg.eigh(np.diag(n**2.0) + np.where(j == 0, 1 / 12, off))
    a = vecs[:, 0]
    if axis == "position":
        packets = [WavePacket(GaussianEnvelope(1 / 16), x0=float(k)) for k in n]
    else:
        packets = [WavePacket(GaussianEnvelope(8.0), p0=2 * np.pi * k) for k in n]
    terms = [
        (a[i] * a[k], packets[i], packets[k]) for i in range(n.size) for k in range(n.size)
    ]
    return TwoParticleState(terms), c_m[0]


class TestSeparableAdversaries:
    """Separable states whose exact lhs, 2 c_M, lies just above the bound 2c."""

    @pytest.mark.parametrize("M", [3, 5])
    def test_exact_lhs_lies_above_the_bound(self, M):
        _, c_m = _adversary(M, "momentum")
        assert 2 * c_m > 2 * solve_c().c

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 2: false certificate")
    @pytest.mark.parametrize("axis, M", [("position", 3), ("momentum", 5)])
    def test_is_not_read_as_violated(self, axis, M):
        # the grid reads lhs - 2c = -8.4e-4 (position, M = 3) and -4.8e-7 (momentum,
        # M = 5) where the exact values are +2.6e-6 and +3.0e-7
        state, _ = _adversary(M, axis)
        assert not evaluate_criterion(state, SCALE, axis=axis).violated


class TestBound:
    def test_bound_is_twice_c(self):
        assert criterion_bound() == pytest.approx(2 * solve_c().c, rel=1e-14)

    def test_bound_value(self):
        assert criterion_bound() == pytest.approx(0.156470, abs=2e-6)


class TestEvaluate:
    def test_mpe_violates_for_n_ge_2(self):
        for N in (2, 3, 5):
            st = build_mpe(N, 0.0, 1, 1.0, WIDE)
            rep = evaluate_criterion(st, SCALE)
            assert rep.violated
            assert rep.lhs == pytest.approx((1 - squeezing_s2(N)) / 6.0, rel=1e-3)

    @pytest.mark.parametrize("N, tol", [(10, 1e-4), (100, 5e-4)])
    def test_grid_s2_at_high_rank(self, N, tol):
        # 256 points per ell; the grid lhs sits O(dx^2) below (1 - S2)/6
        rep = evaluate_criterion(build_mpe(N, 0.0, 1, 1.0, WIDE), SCALE, points_per_ell=256)
        assert rep.lhs == pytest.approx((1 - squeezing_s2(N)) / 6.0, abs=tol)
        assert rep.violated

    def test_single_component_pair_does_not_violate(self):
        st = build_mpe(1, 0.0, 1, 1.0, WIDE)
        rep = evaluate_criterion(st, SCALE)
        assert not rep.violated
        assert rep.lhs == pytest.approx(1 / 6, rel=1e-3)

    def test_classical_ensemble_does_not_violate(self):
        st = build_classical_correlated(3, 0.0, 1, 1.0, WIDE)
        rep = evaluate_criterion(st, SCALE)
        assert not rep.violated

    def test_scale_invariance_of_verdict(self):
        # dimensionless lhs: changing lambda leaves the report unchanged
        reps = []
        for lam in (0.5, 2.0):
            st = build_mpe(2, 0.0, 1, lam, GaussianEnvelope(8.0 * lam))
            reps.append(evaluate_criterion(st, ModularScale(lam)))
        assert reps[0].lhs == pytest.approx(reps[1].lhs, rel=1e-9)
        assert reps[0].violated and reps[1].violated

    def test_position_axis_mirror(self):
        # the conjugate test: integer position plus modular relative momentum
        st = build_mpe(2, 0.0, 1, 1.0, WIDE)
        rep = evaluate_criterion(st, SCALE, axis="position")
        assert rep.axis == "position"
        assert rep.lhs >= 0

    def test_invalid_axis(self):
        st = build_mpe(2, 0.0, 1, 1.0, WIDE)
        with pytest.raises(ValueError):
            evaluate_criterion(st, SCALE, axis="sideways")

    def test_report_json_round_trip(self):
        st = build_mpe(2, 0.0, 1, 1.0, WIDE)
        rep = evaluate_criterion(st, SCALE)
        d = json.loads(rep.to_json())
        assert d["violated"] is True
        assert d["lhs"] == pytest.approx(rep.lhs)
        assert d["c"]["method"] == "kummer_shoot"

    def test_report_carries_grid_diagnostics(self):
        rep = evaluate_criterion(build_mpe(2, 0.0, 1, 1.0, WIDE), SCALE)
        assert rep.grid_points == 32768
        assert abs(1.0 - rep.contained_mass) < 1e-8
        d = json.loads(rep.to_json())
        assert d["grid_points"] == rep.grid_points
        assert d["contained_mass"] == rep.contained_mass

    def test_mixture_reports_its_one_grid_and_smallest_mass(self):
        # one grid covers both components; the masses differ only in their last digits
        shifted = build_mpe(2, 0.3, 1, 1.0, WIDE)
        rank5 = build_mpe(5, 0.0, 1, 1.0, WIDE)
        state = mix([(0.5, shifted), (0.5, rank5)])
        rep = evaluate_criterion(state, SCALE)
        grid = default_grid(state, 1.0)
        assert rep.grid_points == grid.points == 65536
        alone = min(discretize(st, grid).input_norm for st in (shifted, rank5))
        assert rep.contained_mass == pytest.approx(alone, rel=1e-14)

    def test_separable_states_never_violate(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            k = int(rng.integers(1, 4))
            if k == 1:
                st = random_product_state(rng)
            else:
                w = rng.dirichlet(np.ones(k))
                st = mix([(float(wi), random_product_state(rng)) for wi in w])
            assert not evaluate_criterion(st, SCALE).violated

    def test_aliased_packets_are_refused(self):
        # at 256 points per ell the lattice ends at pi / dx = 2 pi 128: N0 = 127 puts the
        # second packet there, where it aliases onto negative momenta (lhs read 16384.1)
        state = build_mpe(2, 0.0, 127, 1.0, WIDE)
        grid = default_grid(state, 1.0)
        with pytest.raises(ValueError, match="too coarse"):
            discretize(state, GridSpec(grid.points // 2, grid.xmin, grid.xmax))
        for n0, points in ((126, grid.points // 2), (127, grid.points)):
            # the default grid doubles its points per ell until pi / dx clears the comb
            rep = evaluate_criterion(build_mpe(2, 0.0, n0, 1.0, WIDE), SCALE)
            assert rep.grid_points == points
            assert rep.violated
            assert rep.lhs == pytest.approx((1 - squeezing_s2(2)) / 6.0, abs=1e-4)

    @pytest.mark.filterwarnings("ignore:envelope width")
    def test_default_grid_refuses_past_its_points_budget(self):
        # pi / dx must exceed |p0| + 1/width: 1e6 takes 2^20 points over the minimal two
        # periods, and 1e7 would take 2^23, past MAX_GRID_POINTS
        assert default_grid(build_mpe(2, 0.0, 1, 1.0, GaussianEnvelope(1e-6)), 1.0).points == 2**20
        with pytest.raises(ValueError, match="too coarse"):
            default_grid(build_mpe(2, 0.0, 1, 1.0, GaussianEnvelope(1e-7)), 1.0)

    @pytest.mark.parametrize("x0", [1e4, 1e5, 1e7])
    def test_default_grid_refuses_a_state_wider_than_its_points_budget(self, x0):
        # at 256 points per ell the first grid would take 2^23, 2^26 and 2^33 points;
        # default_grid builds no array, so asking allocates nothing
        with pytest.raises(ValueError, match="grid too large"):
            default_grid(build_mpe(2, x0, 1, 1.0, WIDE), 1.0)

    @pytest.mark.parametrize("points_per_ell", [-4, 0, 1.5, 256.0, True])
    @pytest.mark.parametrize(
        "call",
        [
            lambda st, p: default_grid(st, 1.0, points_per_ell=p),
            lambda st, p: evaluate_criterion(st, SCALE, points_per_ell=p),
            lambda st, p: criterion_stats(st, SCALE, "momentum", points_per_ell=p),
        ],
        ids=["default_grid", "evaluate_criterion", "criterion_stats"],
    )
    def test_points_per_ell_must_be_a_positive_integer(self, call, points_per_ell):
        # -4 once gave a verdict on a 1024-point grid, 1.5 an AttributeError and 0
        # "points must be a power of two >= 16, got 2"
        with pytest.raises(ValueError, match="points_per_ell must be a positive integer"):
            call(build_mpe(2, 0.0, 1, 1.0, WIDE), points_per_ell)

    def test_points_per_ell_takes_numpy_integers(self):
        st = build_mpe(2, 0.0, 1, 1.0, WIDE)
        assert default_grid(st, 1.0, points_per_ell=np.int64(128)) == default_grid(st, 1.0, 128)

    def test_off_centre_grids_converge_at_second_order(self):
        # a power-of-two count of periods puts every partition edge on a grid point,
        # so the lhs error falls fourfold per halving of dx (129 periods gave 2.92)
        state = build_mpe(2, 0.37, 1, 1.0, WIDE)
        periods = round(default_grid(state, 1.0).length)
        assert periods == 256
        lhs = [evaluate_criterion(state, SCALE, points_per_ell=p).lhs for p in (128, 256, 512)]
        assert (lhs[0] - lhs[1]) / (lhs[1] - lhs[2]) == pytest.approx(4.0, abs=0.05)

    def test_rejects_single_particle_state(self):
        from modint.states import build_smp

        st = build_smp(2, 0.0, 1, 1.0, WIDE)
        with pytest.raises(TypeError):
            evaluate_criterion(st, SCALE)


def _product_of_combs(n1, x1, n01, n2, x2, n02, envelope):
    """smp (x) smp as N1 N2 product terms: one envelope factor per particle."""
    combs = [build_smp(n, x, n0, 1.0, envelope) for n, x, n0 in ((n1, x1, n01), (n2, x2, n02))]
    terms = [(a * b, w1, w2) for a, w1 in combs[0].terms for b, w2 in combs[1].terms]
    return TwoParticleState(terms, fringe_period=1.0)


_COMB = (st.integers(1, 4), st.floats(-1.0, 1.0), st.integers(-3, 3))
_SMALL_COMB = (st.integers(1, 3), st.floats(-1.0, 1.0), st.integers(-3, 3))


class TestSeparable:
    @given(
        combs=st.lists(st.tuples(*_COMB, *_COMB), min_size=1, max_size=2),
        weight=st.floats(0.1, 0.9),
        sigma=st.floats(5.0, 10.0),
        axis=st.sampled_from(sorted(_AXES)),
    )
    @settings(max_examples=25, deadline=None)
    def test_products_of_combs_and_their_mixtures_never_violate(self, combs, weight, sigma, axis):
        parts = [_product_of_combs(*c, GaussianEnvelope(sigma)) for c in combs]
        state = parts[0] if len(parts) == 1 else mix([(weight, parts[0]), (1 - weight, parts[1])])
        assert evaluate_criterion(state, SCALE, axis=axis).lhs >= criterion_bound() - 1e-9
        for part in parts:
            gs = discretize(part, default_grid(part, 1.0))
            rows = TwoParticleGridState(gs.spec, gs.coefs, gs.a1, gs.a2)
            for name in _AXES[axis]:
                want = observable_stats(rows, name, SCALE)
                assert observable_stats(gs, name, SCALE) == pytest.approx(want, rel=1e-12, abs=1e-12)


def mixture_stats(weights, component_stats) -> tuple[float, float]:
    """Law of total variance: Var = sum w_i Var_i + Var_w(mean_i)."""
    w = np.asarray(weights, dtype=float)
    w = w / w.sum()
    means = np.array([m for m, _ in component_stats])
    variances = np.array([v for _, v in component_stats])
    mean = float(np.sum(w * means))
    var = float(np.sum(w * variances) + np.sum(w * (means - mean) ** 2))
    return mean, var


def _assert_total_variance(state, axis):
    """criterion_stats of the ensemble against its components, each discretized alone on its grid."""
    grid = default_grid(state, 1.0)
    parts = [discretize(part, grid) for _, part in state.components]
    # abs covers the variances that vanish up to rounding (Var N_p_tot of a comb ~ 1e-14)
    want = [mixture_stats(state.weights, [observable_stats(gs, name, SCALE) for gs in parts])[1]
            for name in _AXES[axis]]
    assert criterion_stats(state, SCALE, axis) == pytest.approx(want, rel=1e-12, abs=1e-12)


class TestTotalVariance:
    def test_mixture_stats_total_variance_law(self):
        # two point distributions: within-variance zero, between-variance full
        mean, var = mixture_stats([0.5, 0.5], [(1.0, 0.0), (-1.0, 0.0)])
        assert mean == pytest.approx(0.0)
        assert var == pytest.approx(1.0)
        mean, var = mixture_stats([0.25, 0.75], [(0.0, 2.0), (0.0, 4.0)])
        assert var == pytest.approx(3.5)

    @given(
        eps=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        N=st.integers(1, 5),
        axis=st.sampled_from(sorted(_AXES)),
    )
    # the classical weights eps / N underflow to 0 and leave the MPE alone
    @example(eps=5e-324, N=2, axis="momentum")
    @settings(max_examples=15, deadline=None)
    def test_admixtures(self, eps, N, axis):
        _assert_total_variance(admixture_state(eps, N, 1.0, WIDE), axis)

    @given(
        combs=st.lists(st.tuples(*_SMALL_COMB, *_SMALL_COMB), min_size=2, max_size=3),
        weights=st.lists(st.floats(0.1, 1.0), min_size=3, max_size=3),
        sigma=st.floats(5.0, 10.0),
        axis=st.sampled_from(sorted(_AXES)),
    )
    @settings(max_examples=10, deadline=None)
    def test_mixtures_of_products_of_combs(self, combs, weights, sigma, axis):
        # components at different x0 hold different factors: one block, and its lattice rows, each
        parts = [_product_of_combs(*c, GaussianEnvelope(sigma)) for c in combs]
        _assert_total_variance(mix(list(zip(weights, parts))), axis)

    def test_each_coefficient_row_is_normalized_by_itself(self):
        state = admixture_state(0.4, 3, 1.0, WIDE)
        gs = discretize(state, default_grid(state, 1.0))
        scales = [1.0, 3.0, 0.5, 2.0]
        rows = [(t, c * f) for (t, c), f in zip(gs.coefs, scales)]
        scaled = TwoParticleGridState(gs.spec, rows, gs.rows1, gs.rows2, gs.weights)
        assert scaled.input_norm == pytest.approx(0.25, rel=1e-12)
        for (t, got), (u, want) in zip(scaled.coefs, gs.coefs):
            assert np.array_equal(t, u) and np.allclose(got, want, rtol=1e-13, atol=0)
        for name in ("N_p_tot", "xbar_rel"):
            want = observable_stats(gs, name, SCALE)
            assert observable_stats(scaled, name, SCALE) == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_marginals_are_the_weighted_sum_of_the_components(self):
        product = _product_of_combs(2, 0.4, 1, 3, -0.2, 0, WIDE)
        state = mix([(0.3, build_mpe(3, 0.0, 1, 1.0, WIDE)), (0.7, product)])
        gs = discretize(state, default_grid(state, 1.0))
        for particle in (1, 2):
            want = sum(w * discretize(part, gs.spec).marginal_density(particle)
                       for w, part in state.components)
            got = gs.marginal_density(particle)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(want)

    def test_free_propagation_keeps_the_weights_and_unit_norms(self):
        state = admixture_state(0.4, 3, 1.0, WIDE)
        gs = discretize(state, default_grid(state, 1.0))
        params = PropagationParams(mass=1.0, time=0.5)
        moved = free_propagate(gs, params)
        assert np.array_equal(moved.weights, gs.weights)
        assert moved.input_norm == pytest.approx(1.0, abs=1e-12)
        assert moved.norm == pytest.approx(1.0, abs=1e-12)
        want = sum(w * free_propagate(discretize(part, gs.spec), params).marginal_density(1)
                   for w, part in state.components)
        assert np.max(np.abs(moved.marginal_density(1) - want)) <= 1e-12 * np.max(want)


class TestRobustness:
    def test_closed_form_threshold_n2(self):
        eps = robustness_threshold(2)
        assert 0.79 <= eps <= 0.80

    def test_bisection_matches_closed_form(self):
        for N in (2, 3):
            a = robustness_threshold(N, method="closed_form")
            b = robustness_threshold(N, method="bisection")
            assert b == pytest.approx(a, abs=1e-3)

    @pytest.mark.parametrize("N", [2, 3, 5, 10])
    def test_threshold_is_the_exact_root(self, N):
        # the admixture at eps*, evaluated afresh on the bisection's envelope and grids
        eps = robustness_threshold(N, method="bisection")
        state = admixture_state(eps, N, 1.0, GaussianEnvelope(6.0))
        var_n, var_r = criterion_stats(state, ModularScale(1.0), "momentum", points_per_ell=128)
        assert abs(var_n + var_r - criterion_bound()) <= 1e-12

    def test_threshold_increases_with_n(self):
        vals = [robustness_threshold(N) for N in range(2, 11)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_large_n_limit(self):
        # S2 -> 1: threshold approaches 12 c
        assert robustness_threshold(4000) == pytest.approx(12 * solve_c().c, abs=1e-3)

    def test_threshold_is_the_crossing_point(self):
        eps = robustness_threshold(2)
        below = evaluate_criterion(admixture_state(eps - 0.01, 2, envelope=WIDE), SCALE)
        above = evaluate_criterion(admixture_state(eps + 0.01, 2, envelope=WIDE), SCALE)
        assert below.violated
        assert not above.violated

    def test_requires_n_ge_2(self):
        with pytest.raises(ValueError):
            robustness_threshold(1)
        with pytest.raises(ValueError):
            robustness_threshold(2, method="guesswork")


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


class TestSharedFactors:
    def test_one_envelope_and_no_transform_for_an_admixture(self, monkeypatch):
        st = admixture_state(0.5, 3, 1.0, WIDE)
        points = default_grid(st.components[0][1], 1.0).points
        calls, sizes = _count_transforms(monkeypatch), []
        envelope = GaussianEnvelope.__call__
        monkeypatch.setattr(
            GaussianEnvelope, "__call__", lambda self, x: sizes.append(np.size(x)) or envelope(self, x)
        )
        shared = evaluate_criterion(st, SCALE)
        # the MPE and the three classical components share one factor on one grid,
        # and a second call shares nothing with the first; the momentum rows are the
        # envelope's closed form, so no n-point transform runs
        assert evaluate_criterion(st, SCALE).to_json() == shared.to_json()
        assert not any(size == points for _, size in calls)
        assert sizes.count(points) == 2

    def test_no_transform_for_the_bisection(self, monkeypatch):
        pure = build_mpe(3, 0.0, 1, 1.0, GaussianEnvelope(6.0))
        points = default_grid(pure, 1.0, points_per_ell=128).points
        calls = _count_transforms(monkeypatch)
        shared = robustness_threshold(3, "bisection")
        assert calls and not any(size == points for _, size in calls)


class TestVarianceFloor:
    # lhs of MPE sigma = 8 at x0 = 0 before variances were floored at 0, when
    # var_N_tot read -8.9e-16, -2.8e-14 and -1.1e-13
    @pytest.mark.parametrize(
        "N, lhs", [(2, 0.11600098850587601), (10, 0.03929357484270765), (30, 0.016737628124064208)]
    )
    def test_vanishing_variance_reads_zero(self, N, lhs):
        report = evaluate_criterion(build_mpe(N, 0.0, 1, 1.0, WIDE), SCALE)
        assert report.var_N_tot >= 0.0
        assert abs(report.lhs - lhs) <= 1e-12


class TestAdmixture:
    def test_epsilon_bounds(self):
        with pytest.raises(ValueError):
            admixture_state(-0.1, 2)
        with pytest.raises(ValueError):
            admixture_state(1.1, 2)

    @pytest.mark.parametrize("eps", [-0.5, 1.5])
    def test_descriptor_checks_epsilon(self, eps):
        d = {"kind": "admixture", "N": 2, "lambda": 1.0, "epsilon": eps,
             "envelope": {"kind": "gaussian", "sigma_x": 8.0}}
        with pytest.raises(ValueError, match="epsilon"):
            state_from_descriptor(d)

    def test_one_builder_for_both_paths(self):
        from modint import criterion, states

        assert criterion.admixture_state is states.admixture_state
        d = {"kind": "admixture", "N": 2, "lambda": 1.0, "epsilon": 0.25,
             "envelope": {"kind": "gaussian", "sigma_x": 8.0}}
        via_descriptor = state_from_descriptor(d)
        direct = admixture_state(0.25, 2, envelope=WIDE)
        assert via_descriptor.weights == pytest.approx(direct.weights)

    def test_one_default_width(self):
        direct = admixture_state(0.5, 2)
        via_descriptor = state_from_descriptor({"kind": "admixture", "N": 2, "epsilon": 0.5})
        assert direct.packets == via_descriptor.packets
        assert direct.weights == via_descriptor.weights
        assert {wp.envelope for wp in direct.packets} == {GaussianEnvelope(sigma_x=8.0)}

    def test_pure_limits(self):
        assert isinstance(admixture_state(0.0, 2, envelope=WIDE), TwoParticleState)
        full = admixture_state(1.0, 2, envelope=WIDE)
        assert isinstance(full, MixtureState)
        assert sum(full.weights) == pytest.approx(1.0)

    def test_lhs_linear_in_epsilon(self):
        # all component means vanish, so the mixture lhs is linear in epsilon
        from modint.criterion import criterion_stats

        def lhs(eps):
            vn, vr = criterion_stats(admixture_state(eps, 2, envelope=WIDE), SCALE, "momentum")
            return vn + vr

        l0, l5, l1 = lhs(0.0), lhs(0.5), lhs(1.0)
        assert l5 == pytest.approx(0.5 * (l0 + l1), rel=1e-9)


class TestVisibility:
    def test_pure_state_full_visibility(self):
        assert visibility_of_admixture(0.0, 2) == pytest.approx(1.0, abs=1e-6)

    def test_classical_ensemble_zero_visibility(self):
        assert visibility_of_admixture(1.0, 2) == pytest.approx(0.0, abs=1e-4)

    def test_threshold_visibility_21_percent(self):
        eps = robustness_threshold(2)
        assert visibility_of_admixture(eps, 2) == pytest.approx(0.21, abs=0.01)

    def test_n2_closed_form(self):
        # rank 2: admixture visibility is exactly 1 - epsilon
        for eps in (0.2, 0.5, 0.8):
            assert visibility_of_admixture(eps, 2) == pytest.approx(1 - eps, abs=1e-4)

    def test_monotone_in_epsilon(self):
        vals = [visibility_of_admixture(e, 3) for e in np.linspace(0, 1, 6)]
        assert all(b < a for a, b in zip(vals, vals[1:]))
