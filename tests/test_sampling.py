"""Tests for seeded measurement sampling and the bootstrap estimator."""

import json
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

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
    mix,
    mpe_modular_relative_variance,
    sample_measurements,
    sampleset_from_csv,
    sampleset_to_csv,
    solve_c,
)
from modint.sampling import (
    BOOTSTRAP_BINS,
    SampleSet,
    _binned_bootstrap_var,
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


class _OwnCounts:
    """Stands in for the generator: every 'resample' is the data's own counts."""

    def multinomial(self, n, pvals, size):
        return np.tile(np.rint(np.asarray(pvals) * n).astype(np.int64), (size, 1))


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
    """The sampler and the bootstrap work in fixed blocks, in bounded memory."""

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

    def test_bootstrap_memory(self):
        # one (2000, 512) draw matrix and its float copy took 15-16 MiB
        values = np.random.default_rng(0).normal(size=100_000)
        tracemalloc.start()
        try:
            _binned_bootstrap_var(values, np.random.default_rng(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20, peak

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
        monkeypatch.setattr(sampling, "BOOTSTRAP_BLOCK", 8)
        small = run()
        for a, b in zip(default[:2], small[:2]):
            assert np.array_equal(a.records, b.records)
            assert a.proposals == b.proposals
        # the interval's products go through BLAS, whose sums may split differently
        want, got = default[2], small[2]
        assert (got.ci_low, got.ci_high) == pytest.approx((want.ci_low, want.ci_high), rel=1e-14)
        assert got.lhs_hat == want.lhs_hat and got.verdict == want.verdict


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
        assert d["bootstrap_resamples"] == 2000
        assert 1 < d["bootstrap_bins_rel"] <= BOOTSTRAP_BINS
        assert d["bootstrap_bins_tot"] == 0  # N_tot is constant for this state


class TestBootstrap:
    def test_constant_data_need_no_draws(self):
        boot, cats = _binned_bootstrap_var(np.full(500, 3.0), np.random.default_rng(0))
        assert cats == 0
        assert boot.shape == (2000,) and not boot.any()

    def test_binary_data_resample_on_the_exact_lattice(self):
        n = 1000
        rng = np.random.default_rng(1)
        values = (rng.random(n) < 0.3).astype(float)
        boot, cats = _binned_bootstrap_var(values, rng)
        assert cats == 2
        k = np.arange(n // 2 + 1)
        lattice = k * (n - k) / (n * (n - 1))
        dist = np.abs(boot[:, None] - lattice[None, :]).min(axis=1)
        assert np.all(dist <= 1e-12 * lattice.max())

    def test_integer_data_use_their_distinct_values(self):
        values = np.random.default_rng(2).integers(-3, 4, size=5000).astype(float)
        boot, cats = _binned_bootstrap_var(values, _OwnCounts())
        assert cats == 7
        assert np.allclose(boot, np.var(values, ddof=1), rtol=1e-12, atol=0)

    def test_continuous_data_keep_the_sample_variance_at_their_own_counts(self):
        values = np.random.default_rng(3).normal(0.01, 0.25, size=20_000)
        boot, cats = _binned_bootstrap_var(values, _OwnCounts())
        assert cats <= BOOTSTRAP_BINS
        assert np.allclose(boot, np.var(values, ddof=1), rtol=1e-12, atol=0)


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
