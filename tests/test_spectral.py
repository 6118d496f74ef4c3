import math

import numpy as np
import pytest

from modint.cli import main
from modint.grids import observable_stats
from modint.modvar import ModularScale
from modint import spectral
from modint.spectral import (
    BRUTE_MAX_POINTS,
    BRUTE_MAX_POINTS_PER_PERIOD,
    KUMMER_MAX_TERMS,
    _modular_operator,
    boundary_mismatch,
    brute_force_c,
    kummer_M,
    perturbative_c,
    solve_c,
)


class TestKummerSeries:
    def test_exponential_special_case(self):
        # M(a, a; x) = e^x
        for x in (-3.0, -0.5, 0.0, 0.5, 3.0):
            assert kummer_M(1.0, 1.0, x) == pytest.approx(math.exp(x), rel=1e-14)

    def test_expm1_special_case(self):
        # M(1, 2; x) = (e^x - 1)/x
        for x in (0.25, 1.0, 2.5):
            assert kummer_M(1.0, 2.0, x) == pytest.approx(math.expm1(x) / x, rel=1e-13)

    def test_scipy_agreement(self):
        from scipy.special import hyp1f1

        for a, b, x in [(-0.3, 0.5, 1.57), (0.7, 1.5, 0.3), (1.25, 0.5, 2.0)]:
            assert kummer_M(a, b, x) == pytest.approx(float(hyp1f1(a, b, x)), rel=1e-12)

    def test_array_equals_scalar_calls(self):
        a = np.linspace(-12.3, 1.25, 37)
        for b, x in [(0.5, math.pi / 2), (1.5, math.pi / 2), (1.5, -2.0)]:
            got = kummer_M(a, b, x)
            assert isinstance(kummer_M(float(a[0]), b, x), float)
            assert np.array_equal(got, [kummer_M(float(v), b, x) for v in a])

    def test_head_scan_agrees_with_scipy(self):
        from scipy.special import hyp1f1

        mu = np.linspace(7 / 90 + 0.02, 8.0, 1600)
        a = 0.25 - math.pi * mu / 2.0
        z = math.pi / 2.0
        for aa in (a, a + 1.0):
            for b in (0.5, 1.5):
                assert np.max(np.abs(kummer_M(aa, b, z) - hyp1f1(aa, b, z))) < 1e-12

    def test_kummer_transformation_for_negative_argument(self):
        # M(1, 1; -3) = e^-3 M(0, 1; 3) = e^-3 exactly: the series at +3 stops at 1
        assert kummer_M(1.0, 1.0, -3.0) == math.exp(-3.0)

    def test_term_budget_raises(self):
        # e^600 needs about 600 terms before they start to fall
        with pytest.raises(RuntimeError, match=f"{KUMMER_MAX_TERMS} terms"):
            kummer_M(1.0, 1.0, 600.0)
        # e^1000 overflows: the terms reach inf, which is not convergence
        with pytest.raises(RuntimeError, match="overflowed"):
            kummer_M(1.0, 1.0, 1000.0)

    def test_cancellation_raises_or_matches_scipy(self):
        from scipy.special import hyp1f1

        # alternating terms near 2.5e6, 6.7e12 and 3e22 against results of
        # about 1, 1.6e4 and 2e4: rounding leaves too few digits
        for a, b, x in [(-50.0, 0.5, math.pi / 2), (-20.0, 0.5, 20.0), (-50.0, 0.5, 20.0)]:
            with pytest.raises(RuntimeError, match="cancellation"):
                kummer_M(a, b, x)
            with pytest.raises(RuntimeError, match="cancellation"):
                kummer_M(np.array([0.5, a]), b, x)
        # positive terms and a mild alternating case stay within the contract
        for a, b, x in [(2.5, 1.5, 30.0), (-3.0, 0.5, 2.0), (-12.3, 0.5, -math.pi / 2)]:
            want = float(hyp1f1(a, b, x))
            assert abs(kummer_M(a, b, x) - want) <= 1e-12 * max(1.0, abs(want))

    def test_rejects_nonpositive_integer_b(self):
        with pytest.raises(ValueError):
            kummer_M(0.5, 0.0, 1.0)
        with pytest.raises(ValueError):
            kummer_M(0.5, -2.0, 1.0)


class TestShootingSolve:
    def test_bracket_sign_change(self):
        assert boundary_mismatch(7 / 90 - 0.02) * boundary_mismatch(7 / 90 + 0.02) < 0

    def test_mismatch_array_equals_scalar_calls(self):
        mu = np.linspace(7 / 90 + 0.02, 8.0, 50)
        assert isinstance(boundary_mismatch(float(mu[0])), float)
        assert np.array_equal(boundary_mismatch(mu), [boundary_mismatch(float(m)) for m in mu])
        with pytest.raises(ValueError, match="finite"):
            boundary_mismatch(np.array([0.1, np.nan]))

    def test_root_value_and_residual(self):
        rep = solve_c()
        assert rep.method == "kummer_shoot"
        assert rep.c == pytest.approx(0.078235, abs=1e-5)
        assert rep.residual < 1e-10

    def test_ordering_chain(self):
        c = solve_c().c
        assert 7 / 90 < c < 1 / 12

    def test_scale_invariance(self):
        # the eigenvalue is dimensionless: mismatch roots do not move with ell
        mu = solve_c().c
        for ell in (0.5, 3.7):
            assert boundary_mismatch(mu, ModularScale(ell)) == pytest.approx(0.0, abs=1e-10)

    def test_spectrum_head_sorted_even_parity(self):
        head = solve_c().mu_spectrum_head
        assert head == sorted(head)
        assert len(head) >= 3
        # second even level sits just above the first kinetic quantum
        assert head[1] == pytest.approx(1.0999, abs=1e-3)


class TestPerturbative:
    def test_exact_fraction(self):
        assert perturbative_c() == 7.0 / 90.0

    def test_below_true_value(self):
        assert perturbative_c() < solve_c().c


class TestBruteForce:
    def test_agrees_with_shooting(self):
        rep = brute_force_c(periods=32, points_per_period=128)
        assert rep.method == "brute_force"
        assert rep.c == pytest.approx(solve_c().c, abs=2e-4)
        assert rep.residual < 1e-5

    def test_monotone_grid_refinement(self):
        # the sawtooth potential kink makes coarse grids overestimate; values
        # must decrease toward the continuum eigenvalue
        c16 = brute_force_c(periods=16, points_per_period=64).c
        c32 = brute_force_c(periods=32, points_per_period=128).c
        assert c32 < c16
        assert c32 > solve_c().c - 1e-6

    def test_head_contains_even_levels(self):
        rep = brute_force_c(periods=32, points_per_period=128)
        kum = solve_c().mu_spectrum_head
        # ground level appears in both; the fiber head also contains odd levels
        assert rep.mu_spectrum_head[0] == pytest.approx(rep.c, abs=1e-6)
        assert min(abs(m - kum[1]) for m in rep.mu_spectrum_head) < 1e-3

    def test_ground_state_saturates_uncertainty_sum(self):
        rep = brute_force_c(periods=32, points_per_period=128)
        scale = ModularScale(1.0)
        gs = rep.ground_state
        s = observable_stats(gs, "N_p", scale)[1] + observable_stats(gs, "xbar", scale)[1]
        # variance sum equals the grid eigenvalue up to the O(dx) boundary-point
        # artifact in <xbar> (the sawtooth's identification point)
        assert s == pytest.approx(rep.c, abs=2e-5)

    def test_matches_dense_full_grid_spectrum(self):
        # independent of the one-period reduction: the whole 8 x 32 grid's
        # operator as a dense matrix, one column per unit vector
        rep = brute_force_c(periods=8, points_per_period=32)
        spec = rep.ground_state.spec
        assert spec.points == 256
        full = _modular_operator(spec, 1.0)(np.eye(spec.points)).T
        mu = np.linalg.eigvalsh(full)
        # one copy of each level per modular momentum block
        assert np.max(np.abs(mu[:8] - rep.c)) < 1e-12
        assert np.max(np.abs(mu[8:16] - rep.mu_spectrum_head[1])) < 1e-12
        assert rep.residual < 1e-12

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            brute_force_c(periods=4)
        with pytest.raises(ValueError):
            brute_force_c(points_per_period=16)
        with pytest.raises(ValueError, match="power of two"):
            brute_force_c(periods=24)

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--periods", "24"], "power of two"),
            (["--points-per-period", str(BRUTE_MAX_POINTS_PER_PERIOD + 1)], "dense-block limit"),
        ],
    )
    def test_bad_grid_exits_2_from_cli(self, flags, message, capsys):
        assert main(["constant", "--method", "brute", *flags]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error:") and message in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "periods, points_per_period, limit",
        [
            (8, BRUTE_MAX_POINTS_PER_PERIOD + 1, "BRUTE_MAX_POINTS_PER_PERIOD"),
            (2 * BRUTE_MAX_POINTS // 32, 32, "BRUTE_MAX_POINTS ="),
        ],
    )
    def test_work_budget_raises_before_allocating(self, periods, points_per_period, limit, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("built the block past the work budget")

        # the block's momenta come first, the eigensolve last
        monkeypatch.setattr(np.fft, "fftfreq", no_work)
        monkeypatch.setattr(np.linalg, "eigh", no_work)
        with pytest.raises(ValueError, match=limit):
            brute_force_c(periods=periods, points_per_period=points_per_period)
