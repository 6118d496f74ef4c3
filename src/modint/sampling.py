"""Seeded Monte Carlo measurement simulation and criterion estimation.

Randomness comes from numpy's Philox counter-based 64-bit generator, so a
given (state, seed, n) always reproduces the same records. The criterion's
interval is computed from the records alone and draws no random numbers.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass
from statistics import NormalDist

import numpy as np

from .modvar import ModularScale, integer_part, modular_part
from .criterion import criterion_bound
from .states import (
    GaussianEnvelope,
    MixtureState,
    SincEnvelope,
    TwoParticleState,
    envelope_values,
    joint_momentum_density,
    joint_position_density,
)

MIN_BOOTSTRAP_N = 100
# Largest expected proposal count of one draw: about a minute at the
# ~1.7e6 proposals/s the sampler reaches on MPE states.
MAX_PROPOSALS = 1e8
# Proposals whose densities and acceptance draws are evaluated at a time, which
# bounds the sampler's temporaries however large a batch is.
PROPOSAL_BLOCK = 1 << 14


@dataclass
class SampleSet:
    records: np.ndarray  # shape (n, 2)
    seed: int
    kind: str  # "position" | "momentum"
    proposals: int | None = None  # proposals drawn by the sampler, None if unknown

    def __post_init__(self):
        self.records = np.asarray(self.records, dtype=float)
        if self.records.ndim != 2 or self.records.shape[1] != 2:
            raise ValueError("records must have shape (n, 2)")
        if self.kind not in ("position", "momentum"):
            raise ValueError(f"kind must be 'position' or 'momentum', got {self.kind!r}")

    @property
    def n(self) -> int:
        return len(self.records)


@dataclass
class EstimateReport:
    var_mod_rel_hat: float
    var_N_tot_hat: float
    lhs_hat: float
    ci_low: float
    ci_high: float
    n: int
    bound: float
    verdict: str  # violated | not_violated | inconclusive
    clamped: bool = False
    n_position: int | None = None  # records used for Var(x_rel)
    n_momentum: int | None = None  # records used for Var(N_tot)
    # the interval draws no resamples; these keys stay in the JSON and read 0
    bootstrap_resamples: int = 0
    bootstrap_bins_rel: int = 0
    bootstrap_bins_tot: int = 0
    interval: str = "abc"  # nonparametric ABC (approximate bootstrap confidence)

    @property
    def ci_halfwidth(self) -> float:
        return 0.5 * (self.ci_high - self.ci_low)

    def to_json(self) -> str:
        return json.dumps(asdict(self) | {"ci_halfwidth": self.ci_halfwidth}, sort_keys=True)


# ---------------------------------------------------------------------------
# exact rejection sampling from the joint density

_CDF_TABLE_POINTS = 1 << 17


def _envelope_cdf_table(env, kind: str):
    """Fine inverse-CDF table for envelopes without an exact sampler."""
    cache = getattr(env, "_cdf_cache", None)
    if cache is None:
        cache = {}
        object.__setattr__(env, "_cdf_cache", cache)
    if kind in cache:
        return cache[kind]
    if kind == "position":
        half = 1000.0 * env.width  # generous range for slowly decaying tails
        xs = np.linspace(-half, half, _CDF_TABLE_POINTS)
        dens = np.abs(env(xs)) ** 2
    else:
        half = 50.0 / env.width
        xs = np.linspace(-half, half, _CDF_TABLE_POINTS)
        dens = np.abs(env.fourier(xs)) ** 2
    cdf = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) * np.diff(xs) / 2.0)])
    if not cdf[-1] > 0:
        raise ValueError("envelope density cannot be normalized")
    cache[kind] = (xs, cdf)
    return xs, cdf


def _centered_packet_samples(env, kind: str, rng, n: int) -> np.ndarray:
    """Draws from |envelope|^2 (position) or |fourier|^2 (momentum), centered at 0."""
    if isinstance(env, GaussianEnvelope):
        sd = env.sigma_x if kind == "position" else 0.5 / env.sigma_x
        return rng.normal(0.0, sd, size=n)
    if isinstance(env, SincEnvelope) and kind == "momentum":
        half = math.pi / env.d  # flat band
        return rng.uniform(-half, half, size=n)
    xs, cdf = _envelope_cdf_table(env, kind)
    return np.interp(rng.random(n) * cdf[-1], cdf, xs)


def _packet_samples(wp, kind: str, rng, n: int) -> np.ndarray:
    center = wp.x0 if kind == "position" else wp.p0
    return center + _centered_packet_samples(wp.envelope, kind, rng, n)


def _proposal_density(terms, q, kind: str, v1: np.ndarray, v2: np.ndarray) -> np.ndarray:
    """g = sum_k q_k |psi_1k(v1)|^2 |psi_2k(v2)|^2 for (c, wp1, wp2) terms."""
    f1, i1 = envelope_values([wp1 for _, wp1, _ in terms], kind, v1)
    f2, i2 = envelope_values([wp2 for _, _, wp2 in terms], kind, v2)
    # the plane-wave factors have modulus 1, so a packet's density is its envelope's
    d1 = [np.abs(f) ** 2 for f in f1]
    d2 = [np.abs(f) ** 2 for f in f2]
    g = np.zeros(len(v1))
    for qk, k1, k2 in zip(q, i1, i2):
        g += qk * d1[k1] * d2[k2]
    return g


def _proposal_mixture(state: TwoParticleState) -> tuple[list, np.ndarray, float]:
    """The nonzero (c, wp1, wp2) terms, their proposal weights q and the bound K * S.

    With c_k the normalized term amplitudes, Cauchy-Schwarz bounds the joint
    density by K * S * g, where S = sum |c_k|^2, K is the number of terms, and
    g = sum_k q_k |psi_1k|^2 |psi_2k|^2 with q_k = |c_k|^2 / S is the proposal
    density.
    """
    terms = [(state._scale * a, wp1, wp2) for a, wp1, wp2 in state.terms if a != 0]
    weights = np.array([abs(c) ** 2 for c, _, _ in terms])
    s_tot = float(weights.sum())
    return terms, weights / s_tot, len(terms) * s_tot


def _sample_pure(state: TwoParticleState, mix, kind: str, rng, n: int) -> tuple[np.ndarray, int]:
    """Rejection sampling with the incoherent product mixture as the proposal.

    `mix` is the state's `_proposal_mixture`; accepting with probability
    rho / (K S g) reproduces rho exactly. Returns the n records and the number
    of proposals drawn.
    """
    terms, q, bound = mix
    dens_fn = joint_position_density if kind == "position" else joint_momentum_density

    out = np.empty((n, 2))
    filled = proposals = 0
    while filled < n:
        batch = max(2 * (n - filled), 1024)
        proposals += batch
        ks = rng.choice(len(terms), size=batch, p=q)
        v1 = np.empty(batch)
        v2 = np.empty(batch)
        for k, (_, wp1, wp2) in enumerate(terms):
            sel = ks == k
            m = int(sel.sum())
            if m:
                v1[sel] = _packet_samples(wp1, kind, rng, m)
                v2[sel] = _packet_samples(wp2, kind, rng, m)
        # the blocks' uniforms are those of one random(batch) call; past the n-th
        # record the rest of them is drawn in one call, with no densities, so the
        # generator handed on to the next component is the same
        for lo in range(0, batch, PROPOSAL_BLOCK):
            if filled == n:
                rng.random(batch - lo)
                break
            b1, b2 = v1[lo : lo + PROPOSAL_BLOCK], v2[lo : lo + PROPOSAL_BLOCK]
            g = _proposal_density(terms, q, kind, b1, b2)
            rho = dens_fn(state, b1, b2)
            keep = np.flatnonzero(rng.random(b1.size) * bound * g < rho)[: n - filled]
            out[filled : filled + keep.size, 0] = b1[keep]
            out[filled : filled + keep.size, 1] = b2[keep]
            filled += keep.size
    return out, proposals


def sample_measurements(state, kind: str, n: int, seed: int) -> SampleSet:
    """Seeded draws of joint position or momentum measurement pairs.

    Raises ValueError before the first draw if any pure component would need
    more than MAX_PROPOSALS proposals.
    """
    if n < 1:
        raise ValueError("need n >= 1 samples")
    if kind not in ("position", "momentum"):
        raise ValueError(f"kind must be 'position' or 'momentum', got {kind!r}")
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    if not isinstance(state, (TwoParticleState, MixtureState)):
        raise TypeError(f"cannot sample from {type(state).__name__}")
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    # a pure state is a one-component ensemble; it draws no component counts
    pure = isinstance(state, TwoParticleState)
    counts = [n] if pure else rng.multinomial(n, state.weights)
    drawn = [(m, st, _proposal_mixture(st)) for m, (_, st) in zip(counts, state.components) if m]
    # the sampler accepts exactly 1 / (K S), so m records cost about m K S proposals
    for m, _, (_, _, bound) in drawn:
        if m * bound > MAX_PROPOSALS:
            raise ValueError(
                f"rejection sampling accepts {1.0 / bound:.3g} of its proposals here, so "
                f"{m} records need about {m * bound:.3g} proposals, over the budget of "
                f"{MAX_PROPOSALS:.3g}"
            )
    parts = [_sample_pure(st, mix, kind, rng, m) for m, st, mix in drawn]
    records = parts[0][0] if pure else rng.permutation(np.concatenate([r for r, _ in parts]))
    proposals = sum(p for _, p in parts)
    return SampleSet(records=records, seed=int(seed), kind=kind, proposals=proposals)


# ---------------------------------------------------------------------------
# estimation


def _abc_interval(lhs: float, sets) -> tuple[float, float]:
    """Two-sided 95 % nonparametric ABC interval of a sum of sample variances.

    `sets` holds independent (values, scale) record sets and `lhs` is
    sum_i scale_i * Var(values_i) with ddof 1. Along weights w on one set, with
    d = x - mean(x) and f = scale * n / (n - 1), that set's variance is
    f (sum w d^2 - (sum w d)^2). So its influence values t = f (d^2 - mean d^2)
    and their second derivatives -2 f d^2 are exact, and along
    delta_i = t_i / (n_i^2 sigma) the statistic is exactly lhs + lam L - lam^2 Q,
    which gives the curvature -Q / sigma and the endpoints without finite
    differences or resampling (DiCiccio & Efron 1992; Efron & Tibshirani 1993,
    ch. 22, `abcnon`).
    """
    var = skew = bias = tdd = tdsq = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for values, scale in sets:
            n = values.size
            f = scale * n / (n - 1)
            d = values - values.mean()
            dd = d * d
            t = f * (dd - dd.mean())
            var += float(t @ t) / n**2
            # t * t * t, not t**3: numpy's power takes libm's slow pow here
            skew += float((t * t * t).sum()) / n**3
            bias -= f * float(dd.sum()) / n**2
            # L and Q without the common 1 / sigma of delta; floats overflow to inf
            # on a product, but raise OverflowError on a power
            td = float(t @ d) / n**2
            tdd += f * float(t @ dd) / n**2
            tdsq += f * td * td
    if not np.isfinite([lhs, var, skew, bias, tdd, tdsq]).all():
        raise ValueError(
            f"the records' variance or influence values are not finite (lhs = {lhs:.3g}): "
            "the records are too large for the interval"
        )
    if var == 0.0:
        return lhs, lhs
    sigma = math.sqrt(var)
    accel = skew / var / sigma / 6.0  # var * sigma may underflow to 0
    lin, quad = tdd / sigma, tdsq / var
    normal = NormalDist()
    prob = 2.0 * normal.cdf(accel) * normal.cdf(-(bias + quad) / sigma)
    if not 0.0 < prob < 1.0:
        raise ValueError(f"the ABC bias correction is undefined: 2 Phi(a) Phi(-gamma) = {prob:.3g}")
    z0 = normal.inv_cdf(prob)
    ends = []
    for alpha in (0.025, 0.975):
        w = z0 + normal.inv_cdf(alpha)
        if not 1.0 - accel * w > 0.0:
            raise ValueError(f"the ABC interval is undefined: 1 - a w = {1.0 - accel * w:.3g}")
        lam = w / (1.0 - accel * w) ** 2
        ends.append(lhs + lam * lin - lam * lam * quad)
    if not np.isfinite(ends).all():
        raise ValueError(f"the ABC endpoints are not finite: {ends[0]:.3g}, {ends[1]:.3g}")
    return ends[0], ends[1]


def estimate_criterion(
    position_samples: SampleSet, momentum_samples: SampleSet, scale: ModularScale
) -> EstimateReport:
    """Plug-in variance estimators with a nonparametric ABC interval on the lhs.

    The interval is a function of the records alone; a lower end below 0 is
    raised to 0 and marked `clamped`.
    """
    if position_samples.kind != "position" or momentum_samples.kind != "momentum":
        raise ValueError("need one position-kind and one momentum-kind sample set")
    n = min(position_samples.n, momentum_samples.n)
    if n < MIN_BOOTSTRAP_N:
        raise ValueError(f"need at least {MIN_BOOTSTRAP_N} samples per kind for the interval")

    xm = modular_part(position_samples.records, scale.ell)
    rel = xm[:, 0] - xm[:, 1]
    npart = integer_part(momentum_samples.records, scale.momentum_period)
    tot = npart[:, 0] + npart[:, 1]

    with np.errstate(over="ignore", invalid="ignore"):
        var_rel = float(np.var(rel, ddof=1))
        var_tot = float(np.var(tot, ddof=1))
        lhs = var_tot + var_rel / scale.ell**2
    ci_low, ci_high = _abc_interval(lhs, [(rel, 1.0 / scale.ell**2), (tot, 1.0)])
    clamped = ci_low < 0.0
    ci_low = max(ci_low, 0.0)

    bound = criterion_bound()
    if ci_high < bound:
        verdict = "violated"
    elif ci_low > bound:
        verdict = "not_violated"
    else:
        verdict = "inconclusive"
    return EstimateReport(
        var_mod_rel_hat=var_rel,
        var_N_tot_hat=var_tot,
        lhs_hat=lhs,
        ci_low=float(ci_low),
        ci_high=float(ci_high),
        n=n,
        bound=bound,
        verdict=verdict,
        clamped=clamped,
        n_position=position_samples.n,
        n_momentum=momentum_samples.n,
    )


# ---------------------------------------------------------------------------
# import/export


def sampleset_to_csv(samples: SampleSet, path, descriptor_hash: str = ""):
    """CSV (index, v1, v2) plus a JSON sidecar with seed/kind metadata."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["index", "v1", "v2"])
        for i, (v1, v2) in enumerate(samples.records):
            w.writerow([i, repr(float(v1)), repr(float(v2))])
    with open(str(path) + ".json", "w") as fh:
        json.dump(
            {
                "seed": samples.seed,
                "kind": samples.kind,
                "state": descriptor_hash,
                "proposals": samples.proposals,
            },
            fh,
            sort_keys=True,
        )


def sampleset_from_csv(path) -> SampleSet:
    with open(str(path) + ".json") as fh:
        meta = json.load(fh)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    rec = np.array([[float(r[1]), float(r[2])] for r in rows])
    return SampleSet(
        records=rec, seed=int(meta["seed"]), kind=meta["kind"], proposals=meta.get("proposals")
    )
