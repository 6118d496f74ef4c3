"""Tests for seeded measurement sampling and the criterion estimator's interval."""

import hashlib
import json
import math
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
from hypothesis import assume, given, settings
from hypothesis import strategies as hst

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
from modint.states import TabulatedEnvelope, _pair_overlaps, joint_momentum_density


def _reference_beta(wa, wb, kind):
    """int |psi_a||psi_b| of two packets in closed form, or None where the sampler has none."""
    ea, eb = wa.envelope, wb.envelope
    if isinstance(ea, GaussianEnvelope) and isinstance(eb, GaussianEnvelope):
        sa, sb = ea.sigma_x, eb.sigma_x
        pre = math.sqrt(2 * sa * sb / (sa**2 + sb**2))
        if kind == "position":
            return pre * math.exp(-((wa.x0 - wb.x0) ** 2) / (4 * (sa**2 + sb**2)))
        return pre * math.exp(-((wa.p0 - wb.p0) ** 2) * sa**2 * sb**2 / (sa**2 + sb**2))
    if isinstance(ea, SincEnvelope) and isinstance(eb, SincEnvelope) and kind == "momentum":
        lo = max(wa.p0 - math.pi / ea.d, wb.p0 - math.pi / eb.d)
        hi = min(wa.p0 + math.pi / ea.d, wb.p0 + math.pi / eb.d)
        return max(hi - lo, 0.0) * math.sqrt(ea.d * eb.d) / (2 * math.pi)
    return None


def _reference_sample_pure(state, kind, rng, n):
    """Rejection sampler from the pair bound, with explicit loops over packets and pairs.

    Evaluates every packet amplitude, for the proposal and for rho. Each pair
    k < l is dropped where |c_k||c_l| beta1 beta2 is 0, and otherwise, or where no
    beta exists, split onto the diagonals, where it adds |c_k|^2 and |c_l|^2.
    Terms whose packets have the same envelope and centre (x0 in position, p0
    in momentum) on both particles are one proposal component with the sum of
    their weights; a proposal of one component draws no labels.
    """
    terms = [(state._scale * a, wp1, wp2) for a, wp1, wp2 in state.terms if a != 0]
    size = len(terms)
    mod = [abs(c) for c, _, _ in terms]
    weights = np.array([abs(c) ** 2 for c, _, _ in terms])
    mult = [1] * size
    for k in range(size):
        for l in range(k + 1, size):
            betas = [_reference_beta(terms[k][j], terms[l][j], kind) for j in (1, 2)]
            if None in betas or mod[k] * mod[l] * betas[0] * betas[1] > 0:
                mult[k] += 1
                mult[l] += 1
    mass = weights * np.array(mult)
    bound = float(mass.sum())
    q = mass / bound

    def same_density(wa, wb):
        centre = (wa.x0 == wb.x0) if kind == "position" else (wa.p0 == wb.p0)
        return wa.envelope == wb.envelope and centre

    comps, comp_q = [], []
    for (_, wp1, wp2), qk in zip(terms, q):
        for j, (u1, u2) in enumerate(comps):
            if same_density(u1, wp1) and same_density(u2, wp2):
                comp_q[j] += qk
                break
        else:
            comps.append((wp1, wp2))
            comp_q.append(0.0 + qk)

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
        batch = max(math.ceil(min(2.0, 1.1 * bound) * (n - len(out))), 1024)
        if len(comps) == 1:
            v1 = _packet_samples(comps[0][0], kind, rng, batch)
            v2 = _packet_samples(comps[0][1], kind, rng, batch)
        else:
            ks = rng.choice(len(comps), size=batch, p=comp_q)
            v1 = np.empty(batch)
            v2 = np.empty(batch)
            for k, (wp1, wp2) in enumerate(comps):
                sel = ks == k
                m = int(sel.sum())
                if m:
                    v1[sel] = _packet_samples(wp1, kind, rng, m)
                    v2[sel] = _packet_samples(wp2, kind, rng, m)
        g = np.zeros(batch)
        for (wp1, wp2), qk in zip(comps, comp_q):
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


def _overlapping(build, *args):
    """A comb whose packets overlap, built without the builder's overlap warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return build(*args)


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
            ("mpe N=2 sinc d=0.6", _overlapping(build_mpe, 2, 0.0, 1, 1.0, SincEnvelope(0.6))),
            ("mpe N=3 sigma=4", _overlapping(build_mpe, 3, 0.0, 1, 1.0, GaussianEnvelope(4.0))),
            ("swapped pair", TwoParticleState([
                (1.0, WavePacket(GaussianEnvelope(1.0), 5.0), WavePacket(GaussianEnvelope(1.0), -5.0)),
                (1.0, WavePacket(GaussianEnvelope(1.0), -5.0), WavePacket(GaussianEnvelope(1.0), 5.0)),
            ])),
        ],
    )
    @pytest.mark.parametrize("kind", ["position", "momentum"])
    def test_records_equal_the_reference_sampler(self, label, state, kind):
        # the proposal from envelope moduli and closed-form pair overlaps draws and
        # accepts exactly the same proposals as explicit loops over packets and pairs;
        # the sigma = 4 comb keeps its neighbouring momentum pairs and drops the outer one;
        # the swapped pair draws two position components and keeps their pair, with no
        # fringe table, so every proposal takes the full test
        for seed in (0, 3):
            got = sample_measurements(state, kind, 4000, seed=seed)
            want = _reference_records(state, kind, 4000, seed)
            assert np.array_equal(got.records, want), (label, kind, seed)

    @pytest.mark.parametrize("N", [2, 5])
    def test_acceptance_rate_is_one_over_n(self, N):
        # in position every packet of a particle shares x0, so every pair is kept
        # and 1 / M = 1 / (K S); in momentum the packets are 2 pi apart with width
        # 1/16, every pair drops, and M = S: only the 1.1 M batch goes unused
        st = build_mpe(N, 0.0, 1, 1.0, GaussianEnvelope(8.0))
        pos = sample_measurements(st, "position", 20_000, seed=N)
        assert pos.proposals >= pos.n
        assert pos.n / pos.proposals == pytest.approx(1.0 / N, rel=0.2)
        mom = sample_measurements(st, "momentum", 20_000, seed=N)
        assert mom.n / mom.proposals >= 0.85

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

    @pytest.mark.parametrize("N", [2, 5])
    def test_mpe_proposal_has_one_component_in_position_and_k_in_momentum(self, N):
        # the packets of a particle share x0 but not p0: in position the K terms
        # have one density and are drawn without labels
        st = build_mpe(N, 0.0, 1, 1.0, GaussianEnvelope(8.0))
        for kind, count in (("position", 1), ("momentum", N)):
            prop = sampling._proposal(st, kind)
            assert len(prop.comps) == count, kind
            assert prop.q.sum() == pytest.approx(1.0, rel=1e-15)
        # a classical component is one term: one component in both bases
        for _, part in build_classical_correlated(N, 0.0, 1, 1.0, GaussianEnvelope(8.0)).components:
            for kind in ("position", "momentum"):
                assert len(sampling._proposal(part, kind).comps) == 1

    @pytest.mark.parametrize(
        "N, digest",
        [
            (2, "b4798c7ce28a6bce3dbdd10e89b8ab0b340cabb6530a00b9c9e57535aae8d293"),
            (5, "fabdf662fe062ece7b6051daddb1c66e3e589a44a28f2a02c5cafe89713eb4a8"),
        ],
    )
    def test_mpe_momentum_records_equal_a_stored_draw(self, N, digest):
        # momentum terms keep their own components, so these records are bitwise
        # those drawn before terms of one density were merged into one component
        st = build_mpe(N, 0.0, 1, 1.0, GaussianEnvelope(8.0))
        s = sample_measurements(st, "momentum", 3000, seed=11)
        assert s.proposals == 3301
        assert hashlib.sha256(s.records.astype("<f8").tobytes()).hexdigest() == digest

    def test_mixture_proposals_sum_over_components(self):
        cls = build_classical_correlated(2, 0.0, 1, 1.0, GaussianEnvelope(8.0))
        s = sample_measurements(cls, "position", 5000, seed=4)
        # one-term components have M = 1 and accept every proposal of their first
        # batch, ceil(1.1 m) for m records; each component alone draws about 0.55 n
        assert s.n < s.proposals <= 1.1 * s.n + 2


def _gaussian_packets(spread):
    """Gaussian packets with x0 and p0 in [-spread, spread]."""
    return hst.builds(
        lambda x0, p0, ref, sigma: WavePacket(GaussianEnvelope(sigma), x0, p0, ref),
        hst.floats(-spread, spread), hst.floats(-spread, spread), hst.floats(-3.0, 3.0),
        hst.floats(0.3, 3.0),
    )


_SINC_PACKET = hst.builds(
    lambda x0, p0, ref, d: WavePacket(SincEnvelope(d), x0, p0, ref),
    hst.floats(-4.0, 4.0), hst.floats(-4.0, 4.0), hst.floats(-3.0, 3.0), hst.floats(0.3, 3.0),
)
_COEFFICIENT = hst.builds(complex, hst.floats(-1.0, 1.0), hst.floats(-1.0, 1.0)).filter(
    lambda c: abs(c) > 1e-3
)


def _pair_states(packet):
    return hst.lists(hst.tuples(_COEFFICIENT, packet, packet), min_size=1, max_size=4)


def _bound_holds(terms, kind, seed):
    try:
        state = TwoParticleState(terms)
    except ValueError:  # the coefficients cancel
        assume(False)
    rng = np.random.default_rng(seed)
    v = []
    for j in (1, 2):
        packets = [t[j] for t in terms]
        if kind == "position":
            centres = np.array([wp.x0 for wp in packets])
            reach = max(4 * wp.envelope.width for wp in packets)
        else:
            centres = np.array([wp.p0 for wp in packets])
            reach = max(4 / wp.envelope.width for wp in packets)
        inside = rng.uniform(centres.min() - reach, centres.max() + reach, size=256)
        # a pair's cross term is largest between its centres, where a dropped pair
        # would show
        between = [(centres + np.roll(centres, r)) / 2 for r in range(1, len(centres))]
        v.append(np.concatenate([inside, centres, *between]))
    density = joint_position_density if kind == "position" else joint_momentum_density
    v1, v2 = (u.ravel() for u in np.meshgrid(v[0], v[1]))
    rho = density(state, v1, v2)
    prop = sampling._proposal(state, kind)
    # as the sampler forms it
    pair_bound = prop.bound * sampling._proposal_density(prop.comps, prop.q, kind, v1, v2)
    # 1e-300 absorbs subnormal densities, whose relative rounding is coarse
    assert np.all(rho <= pair_bound * (1 + 1e-12) + 1e-300)


def _trapezoid_beta(wa, wb, kind):
    """int |psi_a||psi_b| by the trapezoid rule over the product's support."""
    if isinstance(wa.envelope, SincEnvelope):  # a constant on the boxes' intersection
        lo = max(wa.p0 - np.pi / wa.envelope.d, wb.p0 - np.pi / wb.envelope.d)
        hi = min(wa.p0 + np.pi / wa.envelope.d, wb.p0 + np.pi / wb.envelope.d)
        if not lo < hi:
            return 0.0
        inset = 1e-13 * (hi - lo)  # the box edges themselves may round outside
        v = np.linspace(lo + inset, hi - inset, 101)
    elif kind == "position":
        reach = 16 * max(wa.envelope.width, wb.envelope.width)
        v = np.linspace(min(wa.x0, wb.x0) - reach, max(wa.x0, wb.x0) + reach, 40001)
    else:
        reach = 16 / min(wa.envelope.width, wb.envelope.width)
        v = np.linspace(min(wa.p0, wb.p0) - reach, max(wa.p0, wb.p0) + reach, 40001)
    if kind == "position":
        f = np.abs(wa.position_amplitude(v)) * np.abs(wb.position_amplitude(v))
    else:
        f = np.abs(wa.momentum_amplitude(v)) * np.abs(wb.momentum_amplitude(v))
    return float(np.trapezoid(f, v))


class TestPairBound:
    """The proposal M g bounds rho pointwise, with pairs dropped only where their mass underflows."""

    # centres up to 80 apart, so that some pairs drop in either basis
    @settings(max_examples=60, deadline=None)
    @given(_pair_states(_gaussian_packets(40.0)), hst.sampled_from(["position", "momentum"]),
           hst.integers(0, 2**32))
    def test_gaussian_pair_bound_holds_pointwise(self, terms, kind, seed):
        _bound_holds(terms, kind, seed)

    @settings(max_examples=40, deadline=None)
    @given(_pair_states(_SINC_PACKET), hst.integers(0, 2**32))
    def test_sinc_pair_bound_holds_pointwise_in_momentum(self, terms, seed):
        _bound_holds(terms, "momentum", seed)

    @settings(max_examples=30, deadline=None)
    @given(hst.lists(_gaussian_packets(4.0), min_size=2, max_size=4),
           hst.sampled_from(["position", "momentum"]))
    def test_gaussian_betas_match_the_quadrature(self, packets, kind):
        rows = _pair_overlaps(packets, kind)
        want = [[_trapezoid_beta(a, b, kind) for b in packets] for a in packets]
        np.testing.assert_allclose(rows(0, len(packets)), want, rtol=0, atol=1e-10)

    @settings(max_examples=30, deadline=None)
    @given(hst.lists(_SINC_PACKET, min_size=2, max_size=4))
    def test_sinc_betas_match_the_quadrature_in_momentum(self, packets):
        rows = _pair_overlaps(packets, "momentum")
        want = [[_trapezoid_beta(a, b, "momentum") for b in packets] for a in packets]
        np.testing.assert_allclose(rows(0, len(packets)), want, rtol=0, atol=1e-10)

    @pytest.mark.parametrize(
        "env, kind, kept",
        [
            # every packet of a particle shares x0: beta = 1 and every pair is kept
            (GaussianEnvelope(8.0), "position", [3, 3, 3]),
            # 2 pi apart at momentum width 1/16: every pair's mass underflows
            (GaussianEnvelope(8.0), "momentum", [1, 1, 1]),
            # e^{-(2 pi sigma)^2 / 2} is 1e-137 for neighbours and 0.0 for the outer pair
            (GaussianEnvelope(4.0), "momentum", [2, 3, 2]),
            # disjoint momentum boxes
            (SincEnvelope(8.0), "momentum", [1, 1, 1]),
            # sinc packets have no beta in position: no counts, and every pair is kept
            (SincEnvelope(8.0), "position", None),
        ],
    )
    def test_pairs_drop_only_where_their_mass_underflows(self, env, kind, kept):
        # term k's weight counts itself and its kept pairs: M = sum |c_k|^2 n_k
        state = _overlapping(build_mpe, 3, 0.0, 1, 1.0, env)
        terms = [(state._scale * a, wp1, wp2) for a, wp1, wp2 in state.terms]
        n = sampling._pair_counts(terms, kind)
        if kept is None:
            assert n is None
            kept = [3, 3, 3]
        else:
            assert n.tolist() == kept
        weights = np.array([abs(c) ** 2 for c, _, _ in terms])
        assert sampling._proposal(state, kind).bound == pytest.approx(float(weights @ kept), rel=1e-12)

    def test_sinc_and_tabulated_have_no_pair_overlaps_in_position(self):
        xs = np.linspace(-30.0, 30.0, 64)
        for env in (SincEnvelope(2.0), TabulatedEnvelope(xs, GaussianEnvelope(4.0)(xs))):
            assert _pair_overlaps([WavePacket(env), WavePacket(env, 1.0)], "position") is None


def _squeeze(state, kind="position"):
    prop = sampling._proposal(state, kind)
    return prop.comps, prop.q, prop.squeeze


def _density_ratio(state, comps, q, theta):
    """theta = b (x1 - x2) as the sampler rounds it, and rho / g, at points along x1 - x2."""
    _, wp1, wp2 = comps[0]
    b = state._waves("position").lattice[0]
    s = (theta / b - (wp1.x0 - wp2.x0)) / 2
    x1, x2 = wp1.x0 + s, wp2.x0 - s
    g = sampling._proposal_density(comps, q, "position", x1, x2)
    return b * (x1 - x2), joint_position_density(state, x1, x2) / g


def _hand_built_comb():
    """Unequal complex coefficients at wave powers 0, 1 and 3 of one lattice."""
    env, w = GaussianEnvelope(8.0), 2 * np.pi
    return TwoParticleState(
        [
            (0.3, WavePacket(env, 0.1, 0.0), WavePacket(env, -0.1, 0.0)),
            (0.9 - 0.2j, WavePacket(env, 0.1, w), WavePacket(env, -0.1, -w)),
            (0.5j, WavePacket(env, 0.1, 3 * w), WavePacket(env, -0.1, -3 * w)),
        ],
        fringe_period=1.0,
    )


SQUEEZED = [
    *[(f"mpe N={N}", build_mpe(N, 0.0, 1, 1.0, GaussianEnvelope(8.0))) for N in (2, 3, 5, 10, 30)],
    ("mpe N=2 sinc", build_mpe(2, 0.0, 1, 1.0, SincEnvelope(8.0))),
    ("mpe N=3 x0=0.37 N0=2", build_mpe(3, 0.37, 2, 1.0, GaussianEnvelope(8.0))),
    ("hand-built", _hand_built_comb()),
]


class TestSqueeze:
    """The fringe-bin table rejects proposals before any density, and changes no record."""

    @pytest.mark.parametrize("label, state", SQUEEZED, ids=[label for label, _ in SQUEEZED])
    def test_table_bounds_the_density_ratio_on_a_finer_grid(self, label, state):
        # 64 points per bin: every bin's entry, and both neighbours' entries (an
        # index may be off by one), bound rho / g; interior fringe maxima need the
        # Bernstein slack
        comps, q, (_, d, _, h) = _squeeze(state)
        assert d == (1, -1)
        bins = h.size
        theta, ratio = _density_ratio(state, comps, q, 2 * np.pi * np.arange(64 * bins) / (64 * bins))
        at = np.floor(theta * bins / (2 * np.pi)).astype(int) % bins
        for shift in (-1, 0, 1):
            assert np.all(ratio <= h[(at + shift) % bins]), (label, shift)
        assert bins >= 256 * max(state._waves("position").steps)

    @pytest.mark.parametrize("label, state", SQUEEZED, ids=[label for label, _ in SQUEEZED])
    def test_entries_hold_the_edges_of_their_bin_and_both_neighbours(self, label, state):
        # before its constant slack, entry j is the largest of rho / g at the edges of
        # bins j - 1 to j + 1, so an index off by one does not lean on the slack
        comps, q, (_, _, _, h) = _squeeze(state)
        bins = h.size
        _, edge = _density_ratio(state, comps, q, 2 * np.pi * np.arange(bins) / bins)
        held = np.max([np.roll(edge, 1 - k) for k in range(4)], axis=0)
        slack = h - held
        assert np.ptp(slack) <= 1e-12 * h.max(), label
        assert 0 < slack.min() <= 0.013 * h.max(), label

    @pytest.mark.parametrize(
        "state, proposals, digest",
        [
            (build_mpe(2, 0.0, 1, 1.0, GaussianEnvelope(8.0)), 7024,
             "d13144af71a87e1961250326fe4df8b668ecb8fc70eadaf9bd8ccd157c3e6d3f"),
            (build_mpe(5, 0.0, 1, 1.0, GaussianEnvelope(8.0)), 15192,
             "30e9c9795de4db14d8198e4dd0a795bd67ef7c008856f3ad83e1e3397b0a9510"),
            (admixture_state(0.5, 2, 1.0, GaussianEnvelope(8.0)), 4990,
             "4b03988729e5e4da757984d3a05e5e9a4c40a84d5f64b6d027f01a38a440dbda"),
            (build_mpe(2, 0.0, 1, 1.0, SincEnvelope(8.0)), 6000,
             "c388d347946b9f6039136b65809fbafa6097b1b13a441f9febfac11fa6a34242"),
        ],
        ids=["mpe N=2", "mpe N=5", "admixture eps=0.5", "mpe N=2 sinc"],
    )
    def test_position_records_equal_a_stored_draw(self, state, proposals, digest):
        # the sampled-verdict states: records and proposal counts drawn before the squeeze
        s = sample_measurements(state, "position", 3000, seed=11)
        assert s.proposals == proposals
        assert hashlib.sha256(s.records.astype("<f8").tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("x0", [1e15, 1e17])
    def test_proposals_too_far_out_for_their_bin_take_the_full_test(self, x0, monkeypatch):
        # at |theta| J / 2 pi ~ 5e17 rounding moves the bin by hundreds, and at 5e19
        # the index overflows: such proposals skip the table
        state = build_mpe(2, x0, 1, 1.0, GaussianEnvelope(8.0))
        got = sample_measurements(state, "position", 2000, seed=1)
        monkeypatch.setattr(sampling, "_fringe_squeeze", lambda *args: None)
        want = sample_measurements(state, "position", 2000, seed=1)
        assert np.array_equal(got.records, want.records) and got.proposals == want.proposals

    def test_densities_are_evaluated_only_past_the_table(self, monkeypatch):
        # MPE N=5 accepts 1/5 of its proposals, and the table passes 0.22 of them
        # on to the densities
        state = build_mpe(5, 0.0, 1, 1.0, GaussianEnvelope(8.0))
        points = []

        def counting(st, v1, v2):
            points.append(v1.size)
            return joint_position_density(st, v1, v2)

        monkeypatch.setattr(sampling, "joint_position_density", counting)
        s = sample_measurements(state, "position", 20_000, seed=2)
        assert s.n < sum(points) < 0.3 * s.proposals, (sum(points), s.proposals)

    def test_only_lattice_proposals_of_one_component_get_a_table(self):
        mpe = build_mpe(3, 0.0, 1, 1.0, GaussianEnvelope(8.0))
        assert _squeeze(mpe, "position")[2] is not None
        assert _squeeze(mpe, "momentum")[2] is None  # K components
        for _, part in build_classical_correlated(3, 0.0, 1, 1.0, GaussianEnvelope(8.0)).components:
            assert _squeeze(part, "position")[2] is None  # one term, no lattice

    def test_table_memory_is_linear_in_its_bins(self):
        # MPE N=1000 has degree 999 and 2**18 bins; a K x J matrix of its waves
        # would be 2.6e8 complex values
        state = build_mpe(1000, 0.0, 1, 1.0, GaussianEnvelope(8.0))
        prop = sampling._proposal(state, "position")
        tracemalloc.start()
        try:
            h = sampling._fringe_squeeze(state, prop.comps, prop.q, "position")[3]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert h.size == 2**18
        assert peak < 128 * h.size, peak


class TestPairFree:
    """A proposal that keeps no pair accepts u < 1 - DENSITY_SLACK before any density."""

    def test_which_proposals_keep_no_pair(self):
        def sure(state, kind):
            prop = sampling._proposal(state, kind)
            assert prop.sure in (0.0, prop.bound * (1.0 - sampling.DENSITY_SLACK))
            return prop.sure > 0.0

        mpe = build_mpe(3, 0.0, 1, 1.0, GaussianEnvelope(8.0))
        assert sure(mpe, "momentum")
        assert not sure(mpe, "position")  # beta = 1: every pair kept
        sinc = build_mpe(3, 0.0, 1, 1.0, SincEnvelope(8.0))
        assert sure(sinc, "momentum")
        # neighbouring momentum pairs are kept at sigma = 4
        assert not sure(_overlapping(build_mpe, 3, 0.0, 1, 1.0, GaussianEnvelope(4.0)), "momentum")
        for _, part in build_classical_correlated(3, 0.0, 1, 1.0, GaussianEnvelope(8.0)).components:
            for kind in ("position", "momentum"):
                assert sure(part, kind), kind
        # one term without a closed-form beta keeps the full test
        xs = np.linspace(-30.0, 30.0, 64)
        env = TabulatedEnvelope(xs, GaussianEnvelope(4.0)(xs))
        product = TwoParticleState([(1.0, WavePacket(env), WavePacket(env))])
        assert not sure(product, "momentum")
        one_sinc = TwoParticleState([(1.0, WavePacket(SincEnvelope(8.0)), WavePacket(SincEnvelope(8.0)))])
        assert not sure(one_sinc, "position")

    @pytest.mark.parametrize(
        "state, proposals, digest",
        [
            (admixture_state(0.5, 2, 1.0, GaussianEnvelope(8.0)), 3667,
             "3e4bf090d4b5c1a3a9bb6acd2c6c87d8afde236a10deacb99d7abd5b127932b5"),
            (build_mpe(2, 0.0, 1, 1.0, SincEnvelope(8.0)), 3301,
             "d9641450d9ee56945f1f9a46b27ee9461d137e73a116be658573ac69f70e8da8"),
        ],
        ids=["admixture eps=0.5", "mpe N=2 sinc"],
    )
    def test_momentum_records_equal_a_stored_draw(self, state, proposals, digest):
        # the sampled-verdict states: records and proposal counts drawn with every
        # proposal's densities evaluated
        s = sample_measurements(state, "momentum", 3000, seed=11)
        assert s.proposals == proposals
        assert hashlib.sha256(s.records.astype("<f8").tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("N", [2, 5])
    def test_mpe_momentum_draws_evaluate_almost_no_density(self, N, monkeypatch):
        # every proposal's densities were evaluated before: 110001 points for 1e5 records
        state = build_mpe(N, 0.0, 1, 1.0, GaussianEnvelope(8.0))
        points = []

        def counting(st, v1, v2):
            points.append(v1.size)
            return joint_momentum_density(st, v1, v2)

        monkeypatch.setattr(sampling, "joint_momentum_density", counting)
        s = sample_measurements(state, "momentum", 100_000, seed=N)
        assert s.evaluated == sum(points) < 1e-3 * s.proposals, (s.evaluated, s.proposals)

    def test_an_overlapping_comb_evaluates_every_proposal(self):
        # sigma = 1: the momentum packets overlap and every pair is kept; the last
        # record falls in the last block, so every proposal took the full test
        state = _overlapping(build_mpe, 2, 0.0, 1, 1.0, GaussianEnvelope(1.0))
        assert sampling._proposal(state, "momentum").sure == 0.0
        s = sample_measurements(state, "momentum", 5000, seed=1)
        assert s.evaluated == s.proposals > 2 * s.n

    def test_the_full_test_decides_past_the_slack(self, monkeypatch):
        # with the slack at 1 every uniform takes the full test, which accepts the
        # same proposals
        state = admixture_state(0.5, 2, 1.0, GaussianEnvelope(8.0))
        want = sample_measurements(state, "momentum", 20_000, seed=7)
        monkeypatch.setattr(sampling, "DENSITY_SLACK", 1.0)
        got = sample_measurements(state, "momentum", 20_000, seed=7)
        assert np.array_equal(got.records, want.records) and got.proposals == want.proposals
        assert want.evaluated < 100 < got.evaluated

    def test_reports_carry_the_evaluated_counts_outside_equality(self, mpe2):
        pos = sample_measurements(mpe2, "position", 2000, seed=1)
        mom = sample_measurements(mpe2, "momentum", 2000, seed=2)
        rep = estimate_criterion(pos, mom, ModularScale(ell=1.0))
        assert (rep.evaluated_position, rep.evaluated_momentum) == (pos.evaluated, mom.evaluated)
        bare = [SampleSet(records=s.records, seed=s.seed, kind=s.kind) for s in (pos, mom)]
        other = estimate_criterion(*bare, ModularScale(ell=1.0))
        assert other.evaluated_position is None and other == rep


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
        # the classical state's two one-term components accept every proposal, so
        # each fills its m records 1 / 1.1 of the way through its batch of 1.1 m
        monkeypatch.setattr(sampling, "PROPOSAL_BLOCK", 1000)
        state = build_classical_correlated(2, 0.0, 1, 1.0, GaussianEnvelope(8.0))
        n = 100_000
        want = sample_measurements(state, "position", n, seed=5)
        points = []

        def counting(st, v1, v2):
            points.append(v1.size)
            return joint_position_density(st, v1, v2)

        monkeypatch.setattr(sampling, "joint_position_density", counting)
        got = sample_measurements(state, "position", n, seed=5)
        assert np.array_equal(got.records, want.records) and got.proposals == want.proposals
        # each component evaluates its densities up to the block that fills it
        assert sum(points) <= n + 2 * 1000 < 1.05 * n <= got.proposals, (sum(points), got.proposals)


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

    @pytest.mark.parametrize("kind", ["position", "momentum"])
    def test_records_too_coarse_for_the_period_raise(self, kind):
        # 2**-20 of the period: ell = 1 in position, P = 2 pi in momentum. At 1e12
        # the float spacing is 1.2e-4, over both; at 1e6 it is 1.2e-10, under both
        rng = np.random.default_rng(0)
        scale = ModularScale(ell=1.0)
        for offset, raises in ((1e12, True), (1e6, False)):
            records = {k: rng.normal(size=(500, 2)) for k in ("position", "momentum")}
            records[kind] += offset
            pos = SampleSet(records=records["position"], seed=0, kind="position")
            mom = SampleSet(records=records["momentum"], seed=1, kind="momentum")
            if raises:
                with pytest.raises(ValueError, match=f"{kind} records reach 1e\\+12"):
                    estimate_criterion(pos, mom, scale)
            else:
                assert estimate_criterion(pos, mom, scale).n == 500

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

    @pytest.mark.parametrize("n, ones", [(1000, range(485, 516)), (100, range(46, 55))])
    def test_interval_brackets_lhs_on_nearly_balanced_binary_records(self, n, ones):
        # the variance of binary records peaks at half ones, so the path
        # lhs + lam L - lam^2 Q turns before lam_hi: 499 of 1000 gave (0.24923, 0.24935)
        scale = ModularScale(ell=1.0)
        for k in ones:
            tot = np.zeros(n)
            tot[:k] = 1.0
            rep = estimate_criterion(
                SampleSet(records=np.zeros((n, 2)), seed=0, kind="position"),
                SampleSet(
                    records=np.column_stack([tot * scale.momentum_period, np.zeros(n)]),
                    seed=0,
                    kind="momentum",
                ),
                scale,
            )
            assert rep.var_N_tot_hat == pytest.approx(np.var(tot, ddof=1), rel=1e-12)
            assert rep.ci_low <= rep.lhs_hat <= rep.ci_high, k

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
        s = sample_measurements(mpe2, "position", 300, seed=17)
        sampleset_to_csv(s, path)
        assert sampleset_from_csv(path).evaluated == s.evaluated > 0

    def test_sidecar_without_proposals(self, mpe2, tmp_path):
        path = tmp_path / "samples.csv"
        sampleset_to_csv(sample_measurements(mpe2, "position", 10, seed=1), path)
        meta = json.loads(Path(str(path) + ".json").read_text())
        del meta["proposals"], meta["evaluated"]
        Path(str(path) + ".json").write_text(json.dumps(meta))
        back = sampleset_from_csv(path)
        assert back.proposals is None and back.evaluated is None


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
