"""Seeded Monte Carlo measurement simulation and criterion estimation.

Randomness comes from numpy's Philox counter-based 64-bit generator, so a
given (state, seed, n) always reproduces the same records. The criterion's
interval is computed from the records alone and draws no random numbers.
"""

from __future__ import annotations

import csv
import json
import math
from collections import namedtuple
from dataclasses import asdict, dataclass, field
from statistics import NormalDist

import numpy as np

from .modvar import ModularScale, integer_part, modular_part
from .criterion import criterion_bound
from .states import (
    GaussianEnvelope,
    MixtureState,
    SincEnvelope,
    TwoParticleState,
    _dot,
    _pair_overlaps,
    _product_rows,
    envelope_values,
    factor_key,
    joint_momentum_density,
    joint_position_density,
)

MIN_BOOTSTRAP_N = 100
# Largest expected proposal count of one draw: 14 to 25 s at the 4e6 to 7e6
# proposals/s the sampler reaches on MPE states of N <= 10 at sigma = 8 (one
# core of an Intel Xeon, one BLAS thread): 5e6 to 7e6 in position, 4e6 to
# 5.6e6 in momentum, where a record takes about 1.1 proposals against N.
MAX_PROPOSALS = 1e8
# Coarsest float spacing of the records, as a fraction of the period they are split
# by (ell in position, P = 2 pi / ell in momentum), that estimate_criterion accepts.
RECORD_RESOLUTION = 2.0**-20
# Proposals whose densities and acceptance draws are evaluated at a time, which
# bounds the sampler's temporaries however large a batch is.
PROPOSAL_BLOCK = 1 << 14
# Bins of theta mod 2 pi per degree of the fringe polynomial in the squeeze's table
# (`_fringe_squeeze`): its Bernstein slack is then at most pi / 256 of the peak.
SQUEEZE_BINS_PER_DEGREE = 256
# Share of rho that the rounding of rho and g, and of the squeeze's FFT, stays far
# below. The squeeze adds it to its table; where the proposal keeps no pair,
# rho = M g up to rounding, so u < 1 - DENSITY_SLACK accepts without either density
# (`_Proposal.sure`).
DENSITY_SLACK = 1e-9
# Largest |theta| J / 2 pi whose bin index is trusted: its rounding, about 2**-52 of
# it, then moves the index by at most 2**-11 of a bin.
SQUEEZE_REACH = 2.0**41


@dataclass
class SampleSet:
    records: np.ndarray  # shape (n, 2)
    seed: int
    kind: str  # "position" | "momentum"
    proposals: int | None = None  # proposals drawn by the sampler, None if unknown
    evaluated: int | None = None  # proposals whose densities were evaluated, None if unknown

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
    # SampleSet.proposals of each kind, None if unknown: how the records were drawn,
    # not what they say, so reports of equal records compare equal
    proposals_position: int | None = field(default=None, compare=False)
    proposals_momentum: int | None = field(default=None, compare=False)
    # SampleSet.evaluated of each kind, None if unknown
    evaluated_position: int | None = field(default=None, compare=False)
    evaluated_momentum: int | None = field(default=None, compare=False)
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


def _packet_samples(wp, kind: str, rng, n: int) -> np.ndarray:
    """Draws from the packet's density, its envelope factor's (`factor_key`): |envelope|^2
    about x0 in position, |fourier|^2 about p0 in momentum."""
    env, centre = factor_key(wp, kind)
    if isinstance(env, GaussianEnvelope):
        sd = env.sigma_x if kind == "position" else 0.5 / env.sigma_x
        return centre + rng.normal(0.0, sd, size=n)
    if isinstance(env, SincEnvelope) and kind == "momentum":
        half = math.pi / env.d  # flat band
        return centre + rng.uniform(-half, half, size=n)
    xs, cdf = _envelope_cdf_table(env, kind)
    return centre + np.interp(rng.random(n) * cdf[-1], cdf, xs)


def _proposal_density(comps, q, kind: str, v1: np.ndarray, v2: np.ndarray) -> np.ndarray:
    """g = sum_k q_k |psi_1k(v1)|^2 |psi_2k(v2)|^2 for (c, wp1, wp2) components."""
    f1, i1 = envelope_values([wp1 for _, wp1, _ in comps], kind, v1)
    f2, i2 = envelope_values([wp2 for _, _, wp2 in comps], kind, v2)
    # the plane-wave factors have modulus 1, so a packet's density is its envelope's
    d1 = [np.abs(f) ** 2 for f in f1]
    d2 = [np.abs(f) ** 2 for f in f2]
    g = np.zeros(len(v1))
    for qk, k1, k2 in zip(q, i1, i2):
        g += qk * d1[k1] * d2[k2]
    return g


def _pair_counts(terms, kind: str) -> np.ndarray | None:
    """n_k, one more than the number of kept pairs that hold term k, for (c, wp1, wp2)
    terms; None when a particle's packets have no closed-form beta, so every pair is kept.

    Pair (k, l) is dropped where |c_k||c_l| beta1_kl beta2_kl is 0.0, with beta_kl
    the pair's `_pair_overlaps`: its sup |psi_k||psi_l| underflows with beta.
    """
    overlaps = [_pair_overlaps([t[j] for t in terms], kind) for j in (1, 2)]
    if None in overlaps:
        return None
    size = len(terms)
    mod = np.array([abs(c) for c, _, _ in terms])
    n = np.ones(size, dtype=np.intp)
    for lo, hi, t in _product_rows(overlaps, size):
        upper = np.arange(lo, hi)[:, None] < np.arange(size)
        kept = upper & (mod[lo:hi, None] * mod * t > 0.0)
        n[lo:hi] += kept.sum(axis=1)
        n += kept.sum(axis=0)
    return n


# `_proposal`'s components (c, wp1, wp2) and their weights q, the bound M, the level
# u M < sure that accepts without densities, and `_fringe_squeeze`'s table or None
_Proposal = namedtuple("_Proposal", "comps q bound sure squeeze")


def _proposal(state: TwoParticleState, kind: str) -> _Proposal:
    """The mixture g, its bound M and its pre-density tests for one pure state and basis.

    With c_k the normalized term amplitudes, the joint density is bounded by
    B = sum_kl |c_k||c_l| |psi_1k||psi_1l| |psi_2k||psi_2l|. The pairs that
    `_pair_counts` keeps, and every pair of packets with no closed-form beta, are
    split onto the diagonal by 2xy <= x^2 + y^2. So B = M g with
    g = sum_k q_k |psi_1k|^2 |psi_2k|^2, q_k = |c_k|^2 n_k / M and
    M = sum_k |c_k|^2 n_k, at most K S, S = sum |c_k|^2, the Cauchy-Schwarz
    bound of the incoherent product mixture. Terms of one `factor_key` on both
    particles have one density |psi_1|^2 |psi_2|^2, so they are one component,
    drawn and evaluated once, with the sum of their q; the first term of each
    stands for it. Where both particles have a closed-form beta and every
    n_k = 1 the proposal keeps no pair: M g = sum_k |c_k|^2 |psi_1k|^2 |psi_2k|^2
    and rho - M g holds only the cross terms of dropped pairs, which the bound
    already takes as 0, so `sure` is M (1 - DENSITY_SLACK); elsewhere it is 0.
    """
    terms = [(state._scale * a, wp1, wp2) for a, wp1, wp2 in state.terms if a != 0]
    n = _pair_counts(terms, kind)
    mass = np.array([abs(c) ** 2 for c, _, _ in terms]) * (len(terms) if n is None else n)
    bound = float(mass.sum())
    merged = {}  # the first term of each component, and the component's weight
    for term, qk in zip(terms, mass / bound):
        merged.setdefault(tuple(factor_key(wp, kind) for wp in term[1:]), [term, 0.0])[1] += qk
    comps = [term for term, _ in merged.values()]
    q = np.array([qk for _, qk in merged.values()])
    sure = bound * (1.0 - DENSITY_SLACK) if n is not None and n.max() == 1 else 0.0
    return _Proposal(comps, q, bound, sure, _fringe_squeeze(state, comps, q, kind))


def _fringe_squeeze(state: TwoParticleState, comps, q, kind: str):
    """(b, d, J / 2 pi, h): a table h over J bins of theta mod 2 pi with h >= rho / g, or None.

    With one proposal component every term shares its envelope factors, and on
    a lattice plan (`_Waves`) the terms' relative waves are w^n_k with
    w = e^{i theta}, theta = b d.v. Then rho / g = P(theta) / q =
    scale^2 |sum_k coefs_k e^{i n_k theta}|^2 / q, a trigonometric polynomial of
    degree D = max n_k. One length-J FFT of the coefficients at their powers
    gives P at the bin edges 2 pi j / J, J a power of two >= 256 D. Bin j's
    entry is the largest edge value of bins j - 1 to j + 1, so an index off by
    one still bounds, plus D P^ pi / J for the half bin to the nearest edge
    (Bernstein: |P'| <= D max P <= D P^, with P^ = scale^2 (sum |coefs|)^2 / q)
    and DENSITY_SLACK P^ for the rounding of rho, g and the FFT. None for any other
    proposal.
    """
    plan = state._waves(kind)
    if len(comps) != 1 or plan.lattice is None:
        return None
    coefs = np.array([plan.coefs[k] for k in plan.order])
    degree = plan.steps[-1]
    bins = 1 << (SQUEEZE_BINS_PER_DEGREE * degree - 1).bit_length()
    spectrum = np.zeros(bins, dtype=complex)
    np.add.at(spectrum, np.array(plan.steps), coefs)
    top = state._scale**2 / q[0]
    edges = top * np.abs(np.fft.ifft(spectrum) * bins) ** 2
    peak = top * float(np.abs(coefs).sum()) ** 2
    ring = np.concatenate([edges[-1:], edges, edges[:2]])  # edges j - 1 to j + 2 of bin j
    h = np.maximum(np.maximum(ring[:-3], ring[1:-2]), np.maximum(ring[2:-1], ring[3:]))
    h += degree * peak * math.pi / bins + DENSITY_SLACK * peak
    b, d = plan.lattice
    return b, d, bins / (2.0 * math.pi), h


def _sample_pure(state: TwoParticleState, prop: _Proposal, kind: str, rng, n: int) -> tuple[np.ndarray, int, int]:
    """Rejection sampling with the mixture g of `_proposal` as the proposal.

    Accepting with probability rho / (M g) reproduces rho exactly. A batch draws
    min(2, 1.1 M) proposals per missing record: with M near 1 that most often
    fills the rest, and combs with M >= 2 keep 2 per record. A proposal with
    u M < `sure` is accepted before any density, as the full test u M g < rho
    would accept it too. Where `_fringe_squeeze` gives a table h >= rho / g, one
    with u M >= h at its bin is rejected before any density: the full test
    would reject it too. Only the rest evaluates g and rho, and records and
    proposals are those of the full test.
    Returns the n records, the number of proposals drawn and the number whose
    densities were evaluated.
    """
    dens_fn = joint_position_density if kind == "position" else joint_momentum_density

    out = np.empty((n, 2))
    filled = proposals = evaluated = 0
    while filled < n:
        batch = max(math.ceil(min(2.0, 1.1 * prop.bound) * (n - filled)), 1024)
        proposals += batch
        if len(prop.comps) == 1:
            _, wp1, wp2 = prop.comps[0]
            v1 = _packet_samples(wp1, kind, rng, batch)
            v2 = _packet_samples(wp2, kind, rng, batch)
        else:
            ks = rng.choice(len(prop.comps), size=batch, p=prop.q)
            # each component draws its samples in turn, v1 then v2, and they go to its
            # labels' indices in increasing order: those of a stable (radix) sort
            order = np.argsort(ks.astype(np.min_scalar_type(len(prop.comps) - 1)), kind="stable")
            counts = np.bincount(ks, minlength=len(prop.comps))
            draws = [
                (_packet_samples(wp1, kind, rng, m), _packet_samples(wp2, kind, rng, m))
                for (_, wp1, wp2), m in zip(prop.comps, counts)
                if m
            ]
            v1, v2 = np.empty(batch), np.empty(batch)
            for v, parts in zip((v1, v2), zip(*draws)):
                v[order] = np.concatenate(parts)
        # the blocks' uniforms are those of one random(batch) call; past the n-th
        # record the rest of them is drawn in one call, with no densities, so the
        # generator handed on to the next component is the same
        for lo in range(0, batch, PROPOSAL_BLOCK):
            if filled == n:
                rng.random(batch - lo)
                break
            b1, b2 = v1[lo : lo + PROPOSAL_BLOCK], v2[lo : lo + PROPOSAL_BLOCK]
            limit = rng.random(b1.size) * prop.bound
            accept = limit < prop.sure
            pending = ~accept
            if prop.squeeze is not None:
                b, d, per_bin, h = prop.squeeze
                # theta as the density computes it; far out its bin is not trusted
                t = b * _dot(d, (b1, b2)) * per_bin
                near = np.abs(t) < SQUEEZE_REACH
                # floor, & (J - 1) for the bin mod J: np.mod takes 17 times as long per value
                at = np.floor(t, out=np.zeros_like(t), where=near).astype(np.intp) & (h.size - 1)
                pending &= (limit < h[at]) | ~near
            pending = np.flatnonzero(pending)
            if pending.size:
                p1, p2 = b1[pending], b2[pending]
                g = _proposal_density(prop.comps, prop.q, kind, p1, p2)
                accept[pending] = limit[pending] * g < dens_fn(state, p1, p2)
                evaluated += pending.size
            keep = np.flatnonzero(accept)[: n - filled]
            out[filled : filled + keep.size, 0] = b1[keep]
            out[filled : filled + keep.size, 1] = b2[keep]
            filled += keep.size
    return out, proposals, evaluated


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
    drawn = [(m, st, _proposal(st, kind)) for m, (_, st) in zip(counts, state.components) if m]
    # the sampler accepts exactly 1 / M, so m records cost about m M proposals
    for m, _, prop in drawn:
        if m * prop.bound > MAX_PROPOSALS:
            raise ValueError(
                f"rejection sampling accepts {1.0 / prop.bound:.3g} of its proposals here, so "
                f"{m} records need about {m * prop.bound:.3g} proposals, over the budget of "
                f"{MAX_PROPOSALS:.3g}"
            )
    parts = [_sample_pure(st, prop, kind, rng, m) for m, st, prop in drawn]
    records = parts[0][0] if pure else rng.permutation(np.concatenate([r for r, _, _ in parts]))
    return SampleSet(
        records=records,
        seed=int(seed),
        kind=kind,
        proposals=sum(p for _, p, _ in parts),
        evaluated=sum(e for _, _, e in parts),
    )


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
    ch. 22, `abcnon`). The ends are the path's least value for lam between 0
    and lam_lo and its greatest between 0 and lam_hi, so they bracket lhs even
    where the path turns before lam_hi (nearly balanced binary records).
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

    def path(lam):
        return lhs + lam * lin - lam * lam * quad

    ends = []
    for alpha in (0.025, 0.975):
        w = z0 + normal.inv_cdf(alpha)
        if not 1.0 - accel * w > 0.0:
            raise ValueError(f"the ABC interval is undefined: 1 - a w = {1.0 - accel * w:.3g}")
        ends.append(w / (1.0 - accel * w) ** 2)
    lam_lo, lam_hi = ends
    # the path is concave (quad >= 0): its least value between 0 and lam_lo is at
    # an end, and its greatest between 0 and lam_hi is at its vertex, clipped there
    vertex = lin / (2.0 * quad) if quad > 0.0 else 0.0
    top = min(max(vertex, min(lam_hi, 0.0)), max(lam_hi, 0.0))
    low, high = min(path(lam_lo), lhs), max(path(top), path(lam_hi), lhs)
    if not np.isfinite([low, high]).all():
        raise ValueError(f"the ABC endpoints are not finite: {low:.3g}, {high:.3g}")
    return low, high


def estimate_criterion(
    position_samples: SampleSet, momentum_samples: SampleSet, scale: ModularScale
) -> EstimateReport:
    """Plug-in variance estimators with a nonparametric ABC interval on the lhs.

    The interval is a function of the records alone; a lower end below 0 is
    raised to 0 and marked `clamped`.

    Raises ValueError when the float spacing at the largest |record| of a kind
    exceeds RECORD_RESOLUTION of that kind's period (ell for positions, P for
    momenta). Far from the origin the records cannot resolve their position
    within a period: at |x| = 1e17 the spacing is 16, every modular part is 0,
    and Var(x_rel) would read 0, a false violation. Records whose statistics
    overflow are reported as not finite before this check.
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
    for samples, period, name in (
        (position_samples, scale.ell, "ell"),
        (momentum_samples, scale.momentum_period, "P"),
    ):
        top = float(max(samples.records.max(), -samples.records.min()))
        if np.spacing(top) > RECORD_RESOLUTION * period:
            raise ValueError(
                f"{samples.kind} records reach {top:.3g}, where the float spacing "
                f"{np.spacing(top):.3g} exceeds {RECORD_RESOLUTION:.3g} of the period "
                f"{name} = {period:.3g}: they cannot resolve their place within a period"
            )
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
        proposals_position=position_samples.proposals,
        proposals_momentum=momentum_samples.proposals,
        evaluated_position=position_samples.evaluated,
        evaluated_momentum=momentum_samples.evaluated,
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
                "evaluated": samples.evaluated,
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
        records=rec,
        seed=int(meta["seed"]),
        kind=meta["kind"],
        proposals=meta.get("proposals"),
        evaluated=meta.get("evaluated"),
    )
