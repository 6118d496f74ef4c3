import math

import numpy as np
import pytest
import tracemalloc
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from modint.modvar import (
    H_PLANCK,
    ModularScale,
    fringe_function,
    integer_part,
    modular_decompose,
    modular_part,
    mpe_modular_relative_variance,
    smp_commutator_expectation,
    smp_integer_momentum_variance,
    smp_modular_position_variance,
    squeezing_s1,
    squeezing_s2,
)


class TestModularSplit:
    def test_half_open_interval(self):
        # boundary -ell/2 belongs to the interval, +ell/2 does not
        assert modular_part(0.5, 1.0) == pytest.approx(-0.5)
        assert modular_part(-0.5, 1.0) == pytest.approx(-0.5)
        assert modular_part(0.49999, 1.0) == pytest.approx(0.49999)

    def test_reconstruction_bulk(self):
        rng = np.random.default_rng(42)
        x = rng.uniform(-1e4, 1e4, size=1_000_000)
        ell = 0.7
        rebuilt = integer_part(x, ell) * ell + modular_part(x, ell)
        assert np.max(np.abs(rebuilt - x) / np.maximum(np.abs(x), 1.0)) < 1e-12

    def test_decompose_scale(self):
        scale = ModularScale(2.0)
        mv = modular_decompose(5.3, scale)
        assert mv.integer_part * 2.0 + mv.modular_part == pytest.approx(5.3)
        assert mv.reconstruct(scale.ell) == pytest.approx(5.3)
        assert -1.0 <= mv.modular_part < 1.0

    def test_momentum_axis_uses_conjugate_period(self):
        scale = ModularScale(2.0)
        mv = modular_decompose(1.5 * scale.momentum_period, scale, axis="momentum")
        assert mv.integer_part == 2  # 1.5 rounds down into [-1/2, 1/2)
        assert mv.modular_part == pytest.approx(-0.5 * scale.momentum_period)
        assert mv.reconstruct(scale.momentum_period) == pytest.approx(1.5 * scale.momentum_period)

    def test_momentum_period_value(self):
        assert ModularScale(4.0).momentum_period == pytest.approx(H_PLANCK / 4.0)

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            ModularScale(0.0)
        with pytest.raises(ValueError):
            ModularScale(-1.0)

    @given(
        st.floats(-1e6, 1e6, allow_nan=False),
        st.floats(0.01, 100.0, allow_nan=False),
    )
    @settings(max_examples=200)
    def test_property_range_and_periodicity(self, x, ell):
        frac = modular_part(x, ell)
        assert -ell / 2 <= frac < ell / 2
        assert modular_part(x + ell, ell) == pytest.approx(frac, abs=1e-9 * max(1, abs(x)))


def _remainder_split(values, period):
    """The split by numpy's float %, with the value below p/2 rounded up to p/2 mended."""
    values = np.asarray(values, dtype=float)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        frac = (values + period / 2) % period - period / 2
        whole = np.round((values - frac) / period)
    return whole, np.minimum(frac, np.nextafter(period / 2, -np.inf))


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def _stepped(values, ulps=6):
    """The values and their neighbours 1 to `ulps` floats either way."""
    out, up, down = [values], values, values
    for _ in range(ulps):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        out += [up, down]
    return np.concatenate(out)


SPLIT_PERIODS = [1.0, 2 * math.pi, 2 * math.pi / 3, 0.3, 1 / 3, 1e-3, 3.0]
SPECIAL_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 1e300, -1e300]


def _adversarial(period):
    """Cell edges j p - p/2 and centres j p, for k in {-2, ..., 1} and near +-2**26."""
    j = np.array([-2.0, -1.0, 0.0, 1.0, 2.0, 2**26 - 2, 2**26 - 1, 2**26, 1 - 2**26, -(2**26), -(2**26) - 1])
    return _stepped(np.concatenate([j * period - period / 2, j * period]))


class TestExactSplit:
    """The split agrees with numpy's % bit for bit, in [-p/2, p/2)."""

    @pytest.mark.parametrize("period", SPLIT_PERIODS)
    def test_matches_the_remainder_on_adversarial_values(self, period):
        values = np.concatenate([_adversarial(period), SPECIAL_VALUES])
        whole, frac = _remainder_split(values, period)
        assert _same_bits(modular_part(values, period), frac)
        # integer parts agree as values; the sign of a zero may differ
        assert np.array_equal(integer_part(values, period), whole)
        # the exact split, blocks of it and the % fallback of one with a non-finite value
        mixed = np.concatenate([values, [np.inf, -np.inf, np.nan]])
        with pytest.warns(RuntimeWarning):
            got = modular_part(mixed, period)
        assert np.array_equal(got, _remainder_split(mixed, period)[1], equal_nan=True)

    @pytest.mark.parametrize("period", SPLIT_PERIODS)
    def test_zero_d_and_pair_records(self, period):
        values = _adversarial(period)[:64]
        pairs = values.reshape(32, 2)
        whole, frac = _remainder_split(pairs, period)
        assert _same_bits(modular_part(pairs, period), frac)
        assert np.array_equal(integer_part(pairs, period), whole)
        for v in values[:8]:
            got = modular_part(float(v), period)
            assert isinstance(got, np.float64) and np.ndim(got) == 0
            assert _same_bits(got, _remainder_split(v, period)[1])
            assert integer_part(float(v), period) == _remainder_split(v, period)[0]

    @pytest.mark.parametrize("period", [3.0, 2 * math.pi, 0.7, 1e-3])
    def test_one_float_below_the_lower_edge_stays_inside(self, period):
        # t = x + p/2 is just below 0, and t % p + p rounds up to p: % gives p/2; a
        # split that took fl(t + p) = p for a quotient one too small read integer 0
        x = np.nextafter(-period / 2, -np.inf)
        below = np.nextafter(period / 2, -np.inf)
        assert (x + period / 2) % period - period / 2 == period / 2
        assert modular_part(x, period) == below
        assert integer_part(x, period) == -1.0
        mv = modular_decompose(x, ModularScale(period))
        assert (mv.integer_part, mv.modular_part) == (-1, below)
        assert modular_part(np.full((3, 2), x), period).max() == below

    @pytest.mark.parametrize("period", [0.0, -1.0, -0.0, math.inf, -math.inf, math.nan])
    def test_period_must_be_positive_and_finite(self, period):
        for split in (modular_part, integer_part):
            with pytest.raises(ValueError, match="period"):
                split(0.7, period)

    @given(
        st.floats(-1e300, 1e300),
        st.sampled_from(SPLIT_PERIODS) | st.floats(1e-6, 1e6),
        st.integers(-6, 6),
    )
    @settings(max_examples=300, deadline=None)
    def test_property_matches_the_remainder(self, x, period, step):
        # x, and x moved to the cell edge or centre nearest it, stepped by a few ulps
        j = math.floor(x / period) if abs(x / period) < 2**60 else 0
        values = np.array([x, j * period - period / 2, j * period, x])
        for _ in range(abs(step)):
            values[1:] = np.nextafter(values[1:], math.copysign(math.inf, step))
        whole, frac = _remainder_split(values, period)
        assert _same_bits(modular_part(values, period), frac)
        assert np.array_equal(integer_part(values, period), whole)
        assert np.all(frac >= -period / 2) and np.all(frac < period / 2)

    def test_memory_is_blocked(self):
        # 2**20 values: the result takes 8 MiB, and whole-array temporaries
        # would take several times that
        values = np.random.default_rng(0).normal(0.0, 50.0, 1 << 20)
        modular_part(values[:10], 1.0)
        tracemalloc.start()
        try:
            frac = modular_part(values, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < frac.nbytes + 4 * 2**20, peak


class TestFringeFunction:
    def test_single_slit_flat(self):
        x = np.linspace(-2, 2, 101)
        assert np.allclose(fringe_function(1, x), 1.0)

    def test_double_slit_cos_squared(self):
        x = np.linspace(-1, 1, 401)
        assert np.allclose(fringe_function(2, x), 2 * np.cos(np.pi * x) ** 2, atol=1e-12)

    @pytest.mark.parametrize("N", [1, 2, 3, 5, 10])
    def test_peak_mean_symmetry(self, N):
        x = np.linspace(-0.5, 0.5, 4096, endpoint=False)
        f = fringe_function(N, x)
        assert f.max() == pytest.approx(N, rel=1e-4)
        assert f.mean() == pytest.approx(1.0, abs=1e-12)  # unit mean over one period
        assert np.all(f >= -1e-12)
        assert np.allclose(fringe_function(N, x), fringe_function(N, -x), atol=1e-12)

    @pytest.mark.parametrize("N", [2, 3, 7])
    def test_periodicity(self, N):
        x = np.linspace(-0.3, 0.3, 100)
        assert np.allclose(fringe_function(N, x), fringe_function(N, x + 3.0), atol=1e-10)

    def test_dirichlet_closed_form(self):
        # F_N(x) = sin^2(N pi x) / (N sin^2(pi x)) away from integers
        x = np.linspace(0.01, 0.49, 50)
        for N in (2, 3, 4, 8):
            ref = np.sin(N * np.pi * x) ** 2 / (N * np.sin(np.pi * x) ** 2)
            assert np.allclose(fringe_function(N, x), ref, atol=1e-12)


class TestSqueezingFunctions:
    def test_edge_values(self):
        assert squeezing_s1(1) == 0.0
        assert squeezing_s2(1) == 0.0
        assert math.copysign(1.0, squeezing_s1(1)) == 1.0  # not -0.0

    def test_monotone_increasing(self):
        ranks = [1, 2, 3, 4, 5, 8, 16, 64, 256, 1024, 10000]
        s1 = [squeezing_s1(n) for n in ranks]
        s2 = [squeezing_s2(n) for n in ranks]
        assert all(b > a for a, b in zip(s1, s1[1:]))
        assert all(b > a for a, b in zip(s2, s2[1:]))
        assert s1[-1] < 1.0 and s2[-1] < 1.0

    def test_large_rank_limits(self):
        # both approach 1: partial sums of the alternating/even zeta series
        assert squeezing_s1(10000) == pytest.approx(1.0, abs=1e-3)
        assert squeezing_s2(10000) == pytest.approx(1.0, abs=2e-3)

    def test_invalid_rank(self):
        for bad in (0, -1, 1.5):
            with pytest.raises((ValueError, TypeError)):
                squeezing_s1(bad)

    def test_quadrature_oracle_s1(self):
        # Var(xbar) for density proportional to F_N(x) on one unit period
        x = np.linspace(-0.5, 0.5, 200_001)
        for N in (2, 3, 4, 10):
            f = fringe_function(N, x)
            var = np.trapezoid(x**2 * f, x) / np.trapezoid(f, x)
            assert var == pytest.approx((1 - squeezing_s1(N)) / 12.0, rel=1e-6)

    def test_quadrature_oracle_s2(self):
        # Var(xbar1 - xbar2) for joint density F_N(x1 - x2) on the unit square;
        # the difference of two modular parts lives on (-1, 1), unfolded
        n = 1500
        x = (np.arange(n) + 0.5) / n - 0.5
        x1, x2 = np.meshgrid(x, x, indexing="ij")
        for N in (2, 3):
            w = fringe_function(N, x1 - x2)
            d = x1 - x2  # already the modular parts on one period
            var = (d**2 * w).sum() / w.sum()  # mean is zero by symmetry
            assert var == pytest.approx((1 - squeezing_s2(N)) / 6.0, rel=1e-4)


class TestClosedFormMoments:
    def test_scaling_with_ell(self):
        a, b = ModularScale(1.0), ModularScale(3.0)
        assert smp_modular_position_variance(4, b) == pytest.approx(
            9 * smp_modular_position_variance(4, a)
        )
        assert mpe_modular_relative_variance(4, b) == pytest.approx(
            9 * mpe_modular_relative_variance(4, a)
        )

    def test_integer_momentum_variance(self):
        # uniform over N integers starting anywhere: (N^2 - 1)/12
        assert smp_integer_momentum_variance(1) == 0.0
        assert smp_integer_momentum_variance(2) == pytest.approx(0.25)
        assert smp_integer_momentum_variance(10) == pytest.approx(99 / 12)

    def test_commutator_vanishes_only_even_rank_survives(self):
        scale = ModularScale(1.0)
        assert smp_commutator_expectation(1, scale) == pytest.approx(0.0, abs=1e-15)
        # odd N: the fringe peaks at the interval edge too, costing 1/N
        assert smp_commutator_expectation(3, scale) == pytest.approx(
            (1 - 1 / 3) / (2 * math.pi)
        )
        # even N: the fringe vanishes at the edge, full boundary term
        assert smp_commutator_expectation(2, scale) == pytest.approx(1 / (2 * math.pi))

    def test_variance_against_quadrature(self):
        scale = ModularScale(2.5)
        x = np.linspace(-1.25, 1.25, 200_001)
        f = fringe_function(3, x / 2.5)
        var = np.trapezoid(x**2 * f, x) / np.trapezoid(f, x)
        assert smp_modular_position_variance(3, scale) == pytest.approx(var, rel=1e-6)
