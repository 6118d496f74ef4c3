"""End-to-end acceptance checks for the package's headline results.

Each test prints a single PASS/FAIL line so the suite doubles as a checklist
when run with `pytest -s tests/test_acceptance.py`.
"""

import numpy as np
import pytest

from modint import (
    GaussianEnvelope,
    GridSpec,
    GridState,
    ModularScale,
    PropagationParams,
    ProtocolSpec,
    WavePacket,
    TwoParticleState,
    brute_force_c,
    build_mpe,
    build_multislit,
    commutator_expectation,
    default_grid,
    discretize,
    estimate_criterion,
    evaluate_criterion,
    far_field_momentum_density,
    free_propagate,
    mix,
    mpe_modular_relative_variance,
    observable_stats,
    perturbative_c,
    protocol_visibility,
    robustness_threshold,
    sample_measurements,
    smp_commutator_expectation,
    solve_c,
    squeezing_s1,
    squeezing_s2,
    visibility_of_admixture,
)
from modint.states import build_smp

SCALE = ModularScale(1.0)
WIDE = GaussianEnvelope(sigma_x=8.0)


def _report(number, label):
    """Context manager printing one PASS/FAIL line per acceptance criterion."""

    class _Ctx:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            status = "PASS" if exc_type is None else "FAIL"
            print(f"\nACCEPTANCE {number} ({label}): {status}")
            return False

    return _Ctx()


def test_01_squeezing_table():
    # printed reference values, rounded to two decimals
    expected = {
        1: (0.00, 0.00),
        2: (0.61, 0.30),
        3: (0.71, 0.46),
        4: (0.79, 0.55),
        10: (0.92, 0.76),
        100: (0.99, 0.96),
    }
    with _report(1, "squeezing table"):
        for n, (s1, s2) in expected.items():
            assert round(squeezing_s1(n), 2) == pytest.approx(s1, abs=1e-12)
            assert round(squeezing_s2(n), 2) == pytest.approx(s2, abs=1e-12)


def test_02_criterion_constant():
    with _report(2, "criterion constant"):
        kum = solve_c()
        assert kum.c == pytest.approx(0.078235, abs=1e-5)
        assert perturbative_c() == 7.0 / 90.0  # exact
        brute = brute_force_c(periods=64, points_per_period=256)
        assert brute.c == pytest.approx(kum.c, abs=2e-4)


def test_03_ordering_chain():
    with _report(3, "ordering 7/90 < c < 1/12"):
        c = solve_c().c
        assert 7.0 / 90.0 < c < 1.0 / 12.0


def test_04_mpe_violation_sweep():
    with _report(4, "entangled-pair violation sweep"):
        bound = 2.0 * solve_c().c
        for N in range(2, 51):
            lhs = (1.0 - squeezing_s2(N)) / 6.0
            assert lhs < bound
        # grid evaluation agrees with the closed form
        for N in (2, 3, 4):
            st = build_mpe(N, x0=0.0, N0=1, lam=1.0, envelope=WIDE)
            rep = evaluate_criterion(st, SCALE, points_per_ell=512)
            closed = (1.0 - squeezing_s2(N)) / 6.0
            assert rep.lhs == pytest.approx(closed, rel=1e-4)
            assert rep.violated


def _random_product_state(rng):
    def packet():
        return WavePacket(
            GaussianEnvelope(rng.uniform(0.5, 4.0)),
            x0=rng.uniform(-2, 2),
            p0=rng.uniform(-3, 3) * 2 * np.pi,
        )

    return TwoParticleState([(1.0, packet(), packet())], fringe_period=1.0)


def test_05_separable_states_never_violate():
    with _report(5, "separable sanity (200 states)"):
        rng = np.random.default_rng(2026)
        violations = 0
        for i in range(200):
            if i % 2 == 0:
                st = _random_product_state(rng)
            else:
                k = int(rng.integers(2, 5))
                w = rng.dirichlet(np.ones(k))
                st = mix([(float(wi), _random_product_state(rng)) for wi in w])
            if evaluate_criterion(st, SCALE).violated:
                violations += 1
        assert violations == 0


def test_06_robustness_threshold():
    with _report(6, "admixture robustness"):
        closed = robustness_threshold(2, method="closed_form")
        bisect = robustness_threshold(2, method="bisection")
        assert 0.79 <= closed <= 0.80
        assert 0.79 <= bisect <= 0.80
        assert visibility_of_admixture(closed, 2) == pytest.approx(0.21, abs=0.01)
        thresholds = [robustness_threshold(N) for N in range(2, 11)]
        assert all(b > a for a, b in zip(thresholds, thresholds[1:]))


def test_07_additive_uncertainty_floor():
    with _report(7, "additive uncertainty floor"):
        c = solve_c().c
        rng = np.random.default_rng(7)
        spec = GridSpec(points=1024, xmin=-8.0, xmax=8.0)
        for _ in range(100):
            psi = rng.normal(size=1024) + 1j * rng.normal(size=1024)
            state = GridState(spec, psi)
            s = observable_stats(state, "N_p", SCALE)[1] + observable_stats(state, "xbar", SCALE)[1]
            assert s >= c - 1e-4
        # the numerical ground state saturates the floor
        brute = brute_force_c(periods=128, points_per_period=512)
        gs = brute.ground_state
        s = observable_stats(gs, "N_p", SCALE)[1] + observable_stats(gs, "xbar", SCALE)[1]
        assert abs(s - c) < 1e-6


def test_08_commutator_closed_form():
    with _report(8, "commutator closed form"):
        for N in range(1, 7):
            st = build_smp(N, x0=0.0, N0=1, lam=1.0, envelope=WIDE)
            gs = discretize(st, default_grid(st, 1.0, points_per_ell=512))
            val = commutator_expectation(gs, ("xbar", "N_p"), SCALE)
            ref = 1j * smp_commutator_expectation(N, SCALE)
            assert abs(val - ref) < 1e-5
        assert smp_commutator_expectation(1, SCALE) == 0.0  # exact zero at N=1


def test_09_far_field_fringes():
    with _report(9, "far-field fringe positions"):
        L = 1.0
        sigma = 0.05
        params = PropagationParams(mass=1.0, time=6.0)
        spec = GridSpec(points=65536, xmin=-640.0, xmax=640.0)
        for N in (2, 3):
            st = build_multislit(N, L, GaussianEnvelope(sigma_x=sigma))
            gs = discretize(st, spec)
            moved = free_propagate(gs, params)
            # the wavepacket must be deep in the far field: sigma_x(t) > 50 L
            sigma_t = params.time / (2.0 * params.mass * sigma)
            assert sigma_t > 50 * L
            p, dens = far_field_momentum_density(moved, params)
            expected = 2.0 * np.pi / L  # fringe spacing h / L
            for target in (-expected, expected):
                sel = (p > target - 0.4 * expected) & (p < target + 0.4 * expected)
                peak = p[sel][np.argmax(dens[sel])]
                assert abs(peak - target) < 0.02 * expected


def test_10_sampling_pipeline():
    with _report(10, "sampling pipeline"):
        st = build_mpe(2, x0=0.0, N0=1, lam=1.0, envelope=WIDE)
        analytic = mpe_modular_relative_variance(2, SCALE)  # Var(N_p_tot) = 0 here

        covered = 0
        for rep_i in range(200):
            pos = sample_measurements(st, "position", 100_000, seed=2 * rep_i)
            mom = sample_measurements(st, "momentum", 100_000, seed=2 * rep_i + 1)
            rep = estimate_criterion(pos, mom, SCALE)
            assert rep.verdict == "violated"
            if rep.ci_low <= analytic <= rep.ci_high:
                covered += 1
        assert covered >= 0.93 * 200, covered

        # convergence: |lhs_hat - lhs| scales like n^{-1/2}
        sizes = (1_000, 10_000, 100_000)
        mean_err = []
        for n in sizes:
            errs = []
            for s in range(40):
                pos = sample_measurements(st, "position", n, seed=10_000 + 2 * s)
                mom = sample_measurements(st, "momentum", n, seed=10_001 + 2 * s)
                xm = np.mod(pos.records + 0.5, 1.0) - 0.5
                rel = xm[:, 0] - xm[:, 1]
                tot = np.rint(mom.records / SCALE.momentum_period).sum(axis=1)
                lhs_hat = np.var(tot, ddof=1) + np.var(rel, ddof=1)
                errs.append(abs(lhs_hat - analytic))
            mean_err.append(np.mean(errs))
        slope = np.polyfit(np.log(sizes), np.log(mean_err), 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.1)


def test_11_dispersion_study():
    with _report(11, "staggered-emission dispersion study"):
        env = GaussianEnvelope(sigma_x=8.0)

        def make(stagger):
            return ProtocolSpec(
                N=2,
                emission_times=(0.0, stagger),
                lam=1.0,
                envelope=env,
                mass=1.0,
            )

        # exact unity when the packets are emitted simultaneously
        assert protocol_visibility(make(0.0), meeting_time=60.0) == pytest.approx(
            1.0, abs=1e-9
        )
        # strict monotone loss of contrast with increasing stagger
        staggers = [0.0, 5.0, 10.0, 20.0, 40.0]
        vis = [protocol_visibility(make(s), meeting_time=60.0 + 2 * s) for s in staggers]
        assert all(b < a for a, b in zip(vis, vis[1:]))
        # documented plausible operating point: envelope 8 fringe periods wide,
        # stagger 20 time units, meeting 100 units after the second emission
        v = protocol_visibility(make(20.0), meeting_time=120.0)
        assert v >= 0.85
