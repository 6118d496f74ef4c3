"""Tests for seeded measurement sampling and the criterion estimator's interval."""

import json
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest

import modint
from modint import sampling
from modint import (
    EstimateReport,
    GaussianEnvelope,
    ModularScale,
    MixtureState,
    SincEnvelope,
    TwoParticleState,
    WavePacket,
    admixture_state,
    build_classical_correlated,
    build_mpe,
    estimate_criterion,
    joint_position_density,
    mix,
    mpe_modular_relative_variance,
    sample_measurements,
    sampleset_from_csv,
    sampleset_to_csv,
    solve_c,
)
from modint.modvar import integer_part, modular_part
from modint.sampling import (
    SampleSet,
    _envelope_cdf_table,
    _packet_samples,
)
from modint.states import TabulatedEnvelope


def _reference_sample_pure(state, kind, rng, n):
    """Rejection sampler that evaluates every packet amplitude, for g and for rho."""
    terms = [(state._scale * a, wp1, wp2) for a, wp1, wp2 in state.terms if a != 0]
    weights = np.array([abs(c) ** 2 for c, _, _ in terms])
    s_tot = float(weights.sum())
    q = weights / s_tot
    bound = len(terms) * s_tot

    def packet_amplitude(wp, v):
        return wp.position_amplitude(v) if kind == "position" else wp.momentum_amplitude(v)

    def packet_density(wp, v):
        return np.abs(packet_amplitude(wp, v)) ** 2

    def target_density(v1, v2):
        amp = sum(
            a * packet_amplitude(w1, v1) * packet_amplitude(w2, v2) for a, w1, w2 in state.terms
        )
        return np.abs(state._scale * amp) ** 2

    out = np.empty((0, 2))
    while len(out) < n:
        batch = max(2 * (n - len(out)), 1024)
        ks = rng.choice(len(terms), size=batch, p=q)
        v1 = np.empty(batch)
        v2 = np.empty(batch)
        for k, (_, wp1, wp2) in enumerate(terms):
            sel = ks == k
            m = int(sel.sum())
            if m:
                v1[sel] = _packet_samples(wp1, kind, rng, m)
                v2[sel] = _packet_samples(wp2, kind, rng, m)
        g = np.zeros(batch)
        for (c, wp1, wp2), qk in zip(terms, q):
            g += qk * packet_density(wp1, v1) * packet_density(wp2, v2)
        rho = target_density(v1, v2)
        keep = rng.random(batch) * bound * g < rho
        out = np.concatenate([out, np.column_stack([v1[keep], v2[keep]])])
    return out[:n]


def _reference_records(state, kind, n, seed):
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    if isinstance(state, TwoParticleState):
        return _reference_sample_pure(state, kind, rng, n)
    assert isinstance(state, MixtureState)
    counts = rng.multinomial(n, state.weights)
    parts = [
        _reference_sample_pure(st, kind, rng, m)
        for m, (_, st) in zip(counts, state.components)
        if m
    ]
    return rng.permutation(np.concatenate(parts))


BOOTSTRAP_RESAMPLES = 2000
BOOTSTRAP_BINS = 512


def _binned_bootstrap_var(values, rng, bins=BOOTSTRAP_BINS, resamples=BOOTSTRAP_RESAMPLES):
    """Bootstrap replicates of the sample variance, and the categories resampled.

    Data with at most `bins` distinct values (the integer N_tot) are resampled
    over those values, which is the exact nonparametric bootstrap. Other data
    fall into `bins` equal-width bins that keep their count, sum and sum of
    squares, so each bin resamples at its own mean and mean square.
    """
    n = len(values)
    lo, hi = float(np.min(values)), float(np.max(values))
    if hi == lo:
        return np.zeros(resamples), 0
    distinct = np.unique(values)
    if distinct.size <= bins:
        counts = np.bincount(np.searchsorted(distinct, values))
        m1, m2 = distinct, distinct**2
    else:
        idx = np.minimum(np.floor((values - lo) * (bins / (hi - lo))).astype(np.intp), bins - 1)
        counts = np.bincount(idx, minlength=bins)
        s1 = np.bincount(idx, weights=values, minlength=bins)
        s2 = np.bincount(idx, weights=values * values, minlength=bins)
        full = counts > 0
        counts = counts[full]
        m1, m2 = s1[full] / counts, s2[full] / counts
    draws = rng.multinomial(n, counts / n, size=resamples)
    return (draws @ m2 / n - (draws @ m1 / n) ** 2) * n / (n - 1), len(counts)


def _bca_interval(boot, stat, accel, level=0.95):
    """Bias-corrected and accelerated percentile interval of a bootstrap sample."""
    if np.ptp(boot) == 0:
        return float(boot[0]), float(boot[0])
    b = len(boot)
    prop = np.clip(np.mean(boot < stat), 1.0 / b, 1.0 - 1.0 / b)
    normal = NormalDist()
    z0 = normal.inv_cdf(float(prop))
    alpha = 0.5 * (1.0 - level)
    z = np.array([normal.inv_cdf(alpha), normal.inv_cdf(1.0 - alpha)])
    adj = np.array([normal.cdf(u) for u in z0 + (z0 + z) / (1.0 - accel * (z0 + z))])
    lo, hi = np.percentile(boot, 100.0 * adj)
    return float(lo), float(hi)


def _bca_reference(pos, mom, scale):
    """The BCa interval from 2000 binned multinomial resamples that the ABC interval replaced."""
    xm = modular_part(pos.records, scale.ell)
    rel = xm[:, 0] - xm[:, 1]
    npart = integer_part(mom.records, scale.momentum_period)
    tot = npart[:, 0] + npart[:, 1]
    var_rel, var_tot = np.var(rel, ddof=1), np.var(tot, ddof=1)
    infl = np.concatenate([((rel - rel.mean()) ** 2 - var_rel) / scale.ell**2,
                           (tot - tot.mean()) ** 2 - var_tot])
    accel = (infl**3).sum() / (6.0 * (infl @ infl) ** 1.5)
    master = np.uint64(pos.seed) ^ np.uint64(0x9E3779B97F4A7C15)
    rng = np.random.Generator(np.random.Philox(key=master))
    boot_rel, _ = _binned_bootstrap_var(rel, rng)
    boot_tot, _ = _binned_bootstrap_var(tot, rng)
    lhs = var_tot + var_rel / scale.ell**2
    return _bca_interval(boot_tot + boot_rel / scale.ell**2, lhs, accel)


def _abcnon_reference(sets, level=0.95):
    """Efron and Tibshirani's `abcnon` over independent sets, by central differences.

    `sets` holds (values, scale) pairs, and the statistic is the sum over sets
    of scale * n / (n - 1) * (sum p x^2 - (sum p x)^2), with an explicit weight
    vector p per set. It is quadratic in the weights, so the differences are
    exact for any step; the step 1 / n keeps them well above rounding.
    """
    ns = [len(x) for x, _ in sets]
    p0 = [np.full(n, 1.0 / n) for n in ns]

    def tt(ps):
        return sum(
            s * n / (n - 1) * (p @ (x * x) - (p @ x) ** 2) for (x, s), n, p in zip(sets, ns, ps)
        )

    t0 = tt(p0)
    ts, tdots = [], []
    for i, n in enumerate(ns):
        ep = 1.0 / n
        t1, t2 = np.empty(n), np.empty(n)
        for j in range(n):
            di = -p0[i].copy()
            di[j] += 1.0
            tp = tt([p + ep * di if k == i else p for k, p in enumerate(p0)])
            tm = tt([p - ep * di if k == i else p for k, p in enumerate(p0)])
            t1[j] = (tp - tm) / (2.0 * ep)
            t2[j] = (tp - 2.0 * t0 + tm) / ep**2
        ts.append(t1)
        tdots.append(t2)
    sighat = np.sqrt(sum((t @ t) / n**2 for t, n in zip(ts, ns)))
    a = sum((t**3).sum() / n**3 for t, n in zip(ts, ns)) / (6.0 * sighat**3)
    delta = [t / (n**2 * sighat) for t, n in zip(ts, ns)]
    ep = 1.0 / max(ns)
    cq = (tt([p + ep * d for p, d in zip(p0, delta)]) - 2.0 * t0
          + tt([p - ep * d for p, d in zip(p0, delta)])) / (2.0 * sighat * ep**2)
    bhat = sum(t2.sum() / (2.0 * n**2) for t2, n in zip(tdots, ns))
    normal = NormalDist()
    z0 = normal.inv_cdf(2.0 * normal.cdf(a) * normal.cdf(-(bhat / sighat - cq)))
    ends = []
    for alpha in (0.5 * (1.0 - level), 0.5 * (1.0 + level)):
        w = z0 + normal.inv_cdf(alpha)
        lam = w / (1.0 - a * w) ** 2
        ends.append(tt([p + lam * d for p, d in zip(p0, delta)]))
    return ends


@pytest.fixture(scope="module")
def mpe2():
    return build_mpe(2, 0.0, 1, 1.0, GaussianEnvelope(8.0))


class TestSampling:
    def test_seed_reproducibility(self, mpe2):
        a = sample_measurements(mpe2, "position", 500, seed=42)
        b = sample_measurements(mpe2, "position", 500, seed=42)
        assert np.array_equal(a.records, b.records)

    def test_different_seeds_differ(self, mpe2):
        a = sample_measurements(mpe2, "position", 500, seed=1)
        b = sample_measurements(mpe2, "position", 500, seed=2)
        assert not np.array_equal(a.records, b.records)

    def test_record_shape_and_kind(self, mpe2):
        s = sample_measurements(mpe2, "momentum", 123, seed=0)
        assert s.records.shape == (123, 2)
        assert s.kind == "momentum"
        assert s.n == 123

    def test_invalid_n(self, mpe2):
        with pytest.raises(ValueError):
            sample_measurements(mpe2, "position", 0, seed=0)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits(self, mpe2, seed):
        with pytest.raises(ValueError, match="seed"):
            sample_measurements(mpe2, "position", 10, seed)

    def test_invalid_kind(self, mpe2):
        with pytest.raises(ValueError):
            SampleSet(records=np.zeros((5, 2)), seed=0, kind="energy")

    def test_invalid_record_shape(self):
        with pytest.raises(ValueError):
            SampleSet(records=np.zeros((5, 3)), seed=0, kind="position")

    def test_position_moments_match_density(self, mpe2):
        # sample moments of x1 - x2 agree with the analytic modular variance
        s = sample_measurements(mpe2, "position", 200_000, seed=7)
        scale = ModularScale(ell=1.0)
        xm = np.mod(s.records + 0.5, 1.0) - 0.5
        var = np.var(xm[:, 0] - xm[:, 1], ddof=1)
        expected = mpe_modular_relative_variance(2, ModularScale(ell=1.0))
        assert var == pytest.approx(expected, rel=0.02)
        assert scale.ell == 1.0

    def test_momentum_samples_land_on_lattice(self, mpe2):
        # the two-packet-per-particle state only populates integer momenta
        s = sample_measurements(mpe2, "momentum", 50_000, seed=3)
        n = np.rint(s.records / (2 * np.pi))
        offsets = s.records - 2 * np.pi * n
        # narrow momentum packets: almost all mass within a small fraction of the period
        assert np.percentile(np.abs(offsets), 99) < 0.2 * 2 * np.pi

    def test_mixture_sampling(self):
        mpe = build_mpe(2, 0.0, 1, 1.0, GaussianEnvelope(8.0))
        cls = build_classical_correlated(2, 0.0, 1, 1.0, GaussianEnvelope(8.0))
        mixed = mix([(0.5, mpe), (0.5, cls)])
        s = sample_measurements(mixed, "position", 5000, seed=11)
        assert s.records.shape == (5000, 2)
        assert np.all(np.isfinite(s.records))

    @pytest.mark.parametrize(
        "label, state",
        [
            ("mpe N=2", build_mpe(2, 0.0, 1, 1.0, GaussianEnvelope(8.0))),
            ("mpe N=5", build_mpe(5, 0.0, 1, 1.0, GaussianEnvelope(8.0))),
            ("admixture eps=0.5", admixture_state(0.5, 2, 1.0, GaussianEnvelope(8.0))),
            ("mpe N=2 sinc", build_mpe(2, 0.0, 1, 1.0, SincEnvelope(8.0))),
        ],
    )
    @pytest.mark.parametrize("kind", ["position", "momentum"])
    def test_records_equal_the_reference_sampler(self, label, state, kind):
        # the proposal density from envelope moduli accepts exactly the same proposals
        for seed in (0, 3):
            got = sample_measurements(state, kind, 4000, seed=seed)
            want = _reference_records(state, kind, 4000, seed)
            assert np.array_equal(got.records, want), (label, kind, seed)

    @pytest.mark.parametrize("N", [2, 5])
    def test_acceptance_rate_is_one_over_n(self, N):
        st = build_mpe(N, 0.0, 1, 1.0, GaussianEnvelope(8.0))
        for kind in ("position", "momentum"):
            s = sample_measurements(st, kind, 20_000, seed=N)
            assert s.proposals >= s.n
            assert s.n / s.proposals == pytest.approx(1.0 / N, rel=0.2)

    def test_tabulated_momentum_table_memory(self):
        # the table evaluates the envelope's quadrature transform at 2**17 momenta;
        # a (2**17, 64) complex phase matrix alone would be 128 MiB, and blocks
        # of a fixed number of momenta would peak at 153 MiB for 601 samples
        xs = np.linspace(-30.0, 30.0, 64)
        small = TabulatedEnvelope(xs, GaussianEnvelope(4.0)(xs))
        xs = np.linspace(-30.0, 30.0, 601)  # the complex envelope of test_grid_ops
        large = TabulatedEnvelope(xs, GaussianEnvelope(4.0)(xs) * np.exp(0.3j * xs) * (1 + 0.05j * xs))
        for env in (small, large):
            tracemalloc.start()
            try:
                _envelope_cdf_table(env, "momentum")
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 64 * 2**20, env._x.size

    def test_tabulated_momentum_draws_stay_in_the_tables_band(self):
        # |phi_hat|^2 of a sigma = 4 gaussian table has std 1 / (2 sigma) and
        # no spectral copies beyond the table's Nyquist momentum pi / dx
        xs = np.linspace(-30.0, 30.0, 64)
        env = TabulatedEnvelope(xs, GaussianEnvelope(4.0)(xs))
        product = TwoParticleState([(1.0, WavePacket(env), WavePacket(env))])
        s = sample_measurements(product, "momentum", 20_000, seed=1)
        assert abs(np.std(s.records[:, 0]) - 0.125) < 0.005
        assert np.max(np.abs(s.records)) < np.pi / (xs[1] - xs[0])

    def test_proposal_budget_raises_before_the_first_draw(self, monkeypatch):
        # two nearly cancelling terms: K * S = 3.2e5, so 1e4 records would need
        # 3.2e9 proposals, far over MAX_PROPOSALS
        env = GaussianEnvelope(1.0)
        near = TwoParticleState(
            [
                (1.0, WavePacket(env, 0.0), WavePacket(env, 0.0)),
                (-1.0, WavePacket(env, 0.005), WavePacket(env, 0.005)),
            ],
            fringe_period=1.0,
        )
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"accepts 3\.12e-06 .* about 3\.2e\+09 proposals"):
            sample_measurements(near, "position", 10_000, seed=0)
        assert time.perf_counter() - start < 1.0

        def no_draws(*args, **kwargs):
            raise AssertionError("sampled before every component's budget was checked")

        monkeypatch.setattr(sampling, "_sample_pure", no_draws)
        mixed = mix([(0.5, build_mpe(2, 0.0, 1, 1.0, GaussianEnvelope(8.0))), (0.5, near)])
        with pytest.raises(ValueError, match="over the budget"):
            sample_measurements(mixed, "momentum", 10_000, seed=0)

    def test_mixture_proposals_sum_over_components(self):
        cls = build_classical_correlated(2, 0.0, 1, 1.0, GaussianEnvelope(8.0))
        s = sample_measurements(cls, "position", 5000, seed=4)
        # one-term components accept every proposal of their first batch, 2 per record
        assert s.proposals == 2 * s.n


class TestBlocks:
    """The sampler works in fixed blocks, in bounded memory."""

    MPE5 = build_mpe(5, 0.0, 1, 1.0, GaussianEnvelope(8.0))

    @pytest.mark.parametrize("kind", ["position", "momentum"])
    def test_sampler_memory(self, kind):
        # whole 2e5-proposal batches held every envelope factor at once: 35-38 MiB
        sample_measurements(self.MPE5, kind, 1000, seed=0)  # envelope caches
        tracemalloc.start()
        try:
            sample_measurements(self.MPE5, kind, 100_000, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, peak

    @pytest.mark.parametrize(
        "state",
        [MPE5, admixture_state(0.5, 2, 1.0, GaussianEnvelope(8.0))],
        ids=["mpe N=5", "admixture eps=0.5"],
    )
    def test_block_sizes_leave_records_and_reports_unchanged(self, state, monkeypatch):
        def run():
            pos = sample_measurements(state, "position", 20_000, seed=3)
            mom = sample_measurements(state, "momentum", 20_000, seed=4)
            return pos, mom, estimate_criterion(pos, mom, ModularScale(ell=1.0))

        default = run()
        monkeypatch.setattr(sampling, "PROPOSAL_BLOCK", 1000)
        small = run()
        for a, b in zip(default[:2], small[:2]):
            assert np.array_equal(a.records, b.records)
            assert a.proposals == b.proposals
        assert small[2] == default[2]

    def test_blocks_past_the_last_record_skip_their_densities(self, monkeypatch):
        # the admixture's product component accepts every proposal, so its first
        # batch of 2 m proposals fills all m records halfway through
        state = admixture_state(0.5, 2, 1.0, GaussianEnvelope(8.0))
        want = sample_measurements(state, "position", 100_000, seed=5)
        points = []

        def counting(st, v1, v2):
            points.append(v1.size)
            return joint_position_density(st, v1, v2)

        monkeypatch.setattr(sampling, "joint_position_density", counting)
        got = sample_measurements(state, "position", 100_000, seed=5)
        assert np.array_equal(got.records, want.records) and got.proposals == want.proposals
        assert sum(points) < 0.9 * got.proposals, (sum(points), got.proposals)


class TestEstimator:
    def test_mpe_estimate_violates(self, mpe2):
        pos = sample_measurements(mpe2, "position", 100_000, seed=5)
        mom = sample_measurements(mpe2, "momentum", 100_000, seed=6)
        rep = estimate_criterion(pos, mom, ModularScale(ell=1.0))
        analytic = mpe_modular_relative_variance(2, ModularScale(ell=1.0))
        assert rep.verdict == "violated"
        assert rep.ci_low < analytic < rep.ci_high
        assert rep.lhs_hat == pytest.approx(analytic, rel=0.05)
        assert rep.bound == pytest.approx(2 * solve_c().c, abs=1e-12)

    def test_classical_estimate_not_violated(self):
        cls = build_classical_correlated(2, 0.0, 1, 1.0, GaussianEnvelope(8.0))
        pos = sample_measurements(cls, "position", 50_000, seed=8)
        mom = sample_measurements(cls, "momentum", 50_000, seed=9)
        rep = estimate_criterion(pos, mom, ModularScale(ell=1.0))
        assert rep.verdict == "not_violated"

    def test_kind_mismatch(self, mpe2):
        pos = sample_measurements(mpe2, "position", 200, seed=0)
        with pytest.raises(ValueError, match="kind"):
            estimate_criterion(pos, pos, ModularScale(ell=1.0))

    def test_min_samples(self, mpe2):
        pos = sample_measurements(mpe2, "position", 50, seed=0)
        mom = sample_measurements(mpe2, "momentum", 50, seed=0)
        with pytest.raises(ValueError, match="at least"):
            estimate_criterion(pos, mom, ModularScale(ell=1.0))

    def test_ci_shrinks_with_n(self, mpe2):
        widths = []
        for n in (1000, 10_000, 100_000):
            pos = sample_measurements(mpe2, "position", n, seed=21)
            mom = sample_measurements(mpe2, "momentum", n, seed=22)
            widths.append(estimate_criterion(pos, mom, ModularScale(ell=1.0)).ci_halfwidth)
        assert widths[0] > widths[1] > widths[2]

    def test_records_too_large_to_bootstrap(self):
        # momenta near 1e100 have finite variances but overflowing influence moments
        rng = np.random.default_rng(0)
        pos = SampleSet(records=rng.normal(size=(500, 2)), seed=0, kind="position")
        mom = SampleSet(records=1e100 * rng.normal(size=(500, 2)), seed=1, kind="momentum")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="not finite"):
                estimate_criterion(pos, mom, ModularScale(ell=1.0))

    def test_report_json_fields(self, mpe2):
        pos = sample_measurements(mpe2, "position", 2000, seed=1)
        mom = sample_measurements(mpe2, "momentum", 2000, seed=2)
        rep = estimate_criterion(pos, mom, ModularScale(ell=1.0))
        d = json.loads(rep.to_json())
        assert d["n"] == 2000
        assert d["verdict"] in ("violated", "not_violated", "inconclusive")
        assert d["ci_low"] <= d["lhs_hat"] <= d["ci_high"]
        assert isinstance(rep, EstimateReport)

    def test_report_counts_every_record_and_the_bootstrap(self, mpe2):
        pos = sample_measurements(mpe2, "position", 3000, seed=1)
        mom = sample_measurements(mpe2, "momentum", 2000, seed=2)
        d = json.loads(estimate_criterion(pos, mom, ModularScale(ell=1.0)).to_json())
        assert d["n"] == 2000
        assert (d["n_position"], d["n_momentum"]) == (3000, 2000)
        assert d["interval"] == "abc"
        assert d["bootstrap_resamples"] == d["bootstrap_bins_rel"] == d["bootstrap_bins_tot"] == 0


class TestInterval:
    """The ABC interval against the BCa bootstrap it replaced and against `abcnon`."""

    @pytest.mark.parametrize(
        "state",
        [
            build_mpe(2, 0.0, 1, 1.0, GaussianEnvelope(8.0)),
            build_mpe(5, 0.0, 1, 1.0, GaussianEnvelope(8.0)),
            admixture_state(0.5, 2, 1.0, GaussianEnvelope(8.0)),
            build_mpe(2, 0.0, 1, 1.0, SincEnvelope(8.0)),
        ],
        ids=["mpe N=2", "mpe N=5", "admixture eps=0.5", "mpe N=2 sinc"],
    )
    @pytest.mark.parametrize("seed", [10, 20])
    def test_endpoints_agree_with_the_bca_bootstrap(self, state, seed):
        scale = ModularScale(ell=1.0)
        pos = sample_measurements(state, "position", 20_000, seed=seed)
        mom = sample_measurements(state, "momentum", 20_000, seed=seed + 1)
        rep = estimate_criterion(pos, mom, scale)
        lo, hi = _bca_reference(pos, mom, scale)
        width = hi - lo
        assert abs(rep.ci_low - lo) <= 0.15 * width and abs(rep.ci_high - hi) <= 0.15 * width

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_closed_form_matches_finite_difference_abcnon(self, seed):
        # skewed continuous data beside small integers, as x_rel beside N_tot
        rng = np.random.default_rng(seed)
        rel = rng.exponential(0.3, size=300) - 0.2
        tot = rng.poisson(1.5, size=300).astype(float)
        sets = [(rel, 1.0 / 0.7**2), (tot, 1.0)]
        lhs = np.var(tot, ddof=1) + np.var(rel, ddof=1) / 0.7**2
        got = sampling._abc_interval(lhs, sets)
        assert got == pytest.approx(_abcnon_reference(sets), rel=1e-9, abs=0)

    def test_reports_depend_on_the_records_alone(self, mpe2):
        pos = sample_measurements(mpe2, "position", 5000, seed=1)
        mom = sample_measurements(mpe2, "momentum", 5000, seed=2)
        other = SampleSet(records=pos.records.copy(), seed=99, kind="position")
        scale = ModularScale(ell=1.0)
        assert estimate_criterion(other, mom, scale) == estimate_criterion(pos, mom, scale)

    def test_skewed_records_get_finite_ordered_endpoints(self):
        # one x_rel of 50 among 100 standard normals puts negative weights on
        # the records along the ABC direction: the raw lower end is below 0
        ell = 1000.0  # no wrapping: x_rel is the records' first column
        scale = ModularScale(ell=ell)
        rel = np.random.default_rng(0).normal(size=100)
        rel[0] = 50.0
        outlier = estimate_criterion(
            SampleSet(records=np.column_stack([rel, np.zeros(100)]), seed=0, kind="position"),
            SampleSet(records=np.zeros((100, 2)), seed=0, kind="momentum"),
            scale,
        )
        # two N_tot of 1 among 100: a first momentum of one period is N_1 = 1
        tot = (np.random.default_rng(1).random(100) < 0.02).astype(float)
        assert tot.sum() == 2
        binary = estimate_criterion(
            SampleSet(records=np.zeros((100, 2)), seed=0, kind="position"),
            SampleSet(
                records=np.column_stack([tot * scale.momentum_period, np.zeros(100)]),
                seed=0,
                kind="momentum",
            ),
            scale,
        )
        assert outlier.clamped and not binary.clamped
        assert outlier.var_mod_rel_hat == pytest.approx(np.var(rel, ddof=1), rel=1e-12)
        assert binary.var_N_tot_hat == pytest.approx(np.var(tot, ddof=1), rel=1e-12)
        for rep in (outlier, binary):
            assert np.isfinite([rep.ci_low, rep.ci_high]).all()
            assert 0.0 <= rep.ci_low <= rep.lhs_hat <= rep.ci_high
        assert outlier.ci_low == 0.0
        assert json.loads(outlier.to_json())["clamped"] is True


class TestRoundTrip:
    def test_csv_round_trip(self, mpe2, tmp_path):
        s = sample_measurements(mpe2, "momentum", 300, seed=17)
        path = tmp_path / "samples.csv"
        sampleset_to_csv(s, path, descriptor_hash="abc123")
        back = sampleset_from_csv(path)
        assert back.kind == s.kind
        assert back.seed == s.seed
        assert back.proposals == s.proposals > 0
        np.testing.assert_array_equal(back.records, s.records)

    def test_sidecar_without_proposals(self, mpe2, tmp_path):
        path = tmp_path / "samples.csv"
        sampleset_to_csv(sample_measurements(mpe2, "position", 10, seed=1), path)
        meta = json.loads(Path(str(path) + ".json").read_text())
        del meta["proposals"]
        Path(str(path) + ".json").write_text(json.dumps(meta))
        assert sampleset_from_csv(path).proposals is None


def test_import_leaves_slow_scipy_submodules_unloaded():
    src = str(Path(modint.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys, modint, modint.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))); "
        "modint.solve_c(); "
        "modint.brute_force_c(periods=8, points_per_period=32); "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        check=True,
    )
    assert out.stdout.split() == ["[]", "[]"]


def test_runs_with_scipy_blocked():
    # scipy is a test dependency only: with its import made to fail, a tabulated
    # envelope, its sampler and the CLI still run
    src = str(Path(modint.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys; sys.modules['scipy'] = None; "
        "import numpy as np, modint; from modint import cli; "
        "from modint.states import TabulatedEnvelope; "
        "xs = np.linspace(-30.0, 30.0, 64); "
        "env = TabulatedEnvelope(xs, modint.GaussianEnvelope(4.0)(xs)); "
        "env(xs); env.fourier(xs); "
        "st = modint.TwoParticleState([(1.0, modint.WavePacket(env), modint.WavePacket(env))]); "
        "assert modint.sample_measurements(st, 'momentum', 1000, seed=0).records.shape == (1000, 2); "
        "assert cli.main(['constant', '--method', 'all']) == 0; "
        "assert cli.main(['criterion', '--state', 'mpe', '--N', '2']) == 0"
    )
    subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=path),
        check=True,
    )
