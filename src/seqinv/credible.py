"""Credible sets and their frequentist coverage.

Two weight sequences control everything. The posterior spread weights
s_i = lambda_i/(1+g_i) give the law of the credible-ball radius statistic
U = sum_i s_i Z_i^2; the sampling weights t_i = lambda_i g_i/(1+g_i)^2 give
the law V = sum_i t_i Z_i^2 of the posterior mean around its expectation.
Coordinatewise t_i <= s_i always (exactly, in floating point), with gap
s_i - t_i = lambda_i/(1+g_i)^2; how far the two laws separate decides
whether credible sets are conservative, honest, or misleading.

All quantile/coverage conventions use lower Gaussian quantiles: z_gamma < 0
for gamma < 1/2, and a central credible interval is
[mean + z_{gamma/2} s_n, mean - z_{gamma/2} s_n].
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import ForwardSpec, PriorSpec, Truth, _frozen_array, \
    _spectral_blocks
from .posterior import Functional, _interval_terms
from .util import DegenerateInputError, DimensionMismatchError, \
    RegimeError, ndtr, ndtri, rng_for, stable_sums

_MC_CHUNK = 8192          # rows per keyed stream rng_for(seed, chunk)
_MC_BLOCK = 1 << 20       # normals drawn at once (8 MB), whatever the trunc

# Imhof inversion (see _WeightedChiSquare)
_IMHOF_NODES = 16         # Gauss-Legendre nodes per panel
_IMHOF_NEAR = 32          # nodes of the Gauss rule of a panel with |z| < 15
_IMHOF_PHASE = 1.0        # A(u) leaves its chord by at most this on a panel
_IMHOF_DECAY = 1.0        # log rho(u) grows by at most this on a panel
_IMHOF_TAIL = 1e-10       # bound on the CDF error of cutting the integral
_IMHOF_ROOT_RTOL = 1e-13  # relative tolerance of the quantile root search
_RADIUS_RESOLVED = 1e-3   # ball_radius refuses an error bound above this * r
_IMHOF_HEAD = 64          # largest weights whose tail search bounds the cut-off
_IMHOF_LADDER = 12        # doublings of that search per step
_SERIES_EDGE = 0.1        # coordinates with lam * u below this: power series
_SERIES_TERMS = 8         # truncation error <= _SERIES_EDGE^19 per coordinate
_BLOCK = 1 << 18          # coordinates x points evaluated per block

_GL_T, _GL_W = np.polynomial.legendre.leggauss(_IMHOF_NODES)
# node values -> Legendre coefficients a_k = (k+1/2) sum_m w_m P_k(t_m) f_m
_LEG_PROJECT = ((np.arange(_IMHOF_NODES) + 0.5)[:, None]
                * np.polynomial.legendre.legvander(_GL_T, _IMHOF_NODES - 1).T
                * _GL_W)
# int_{-1}^{1} P_k(t) exp(-i z t) dt = 2 (-i)^k j_k(z)
_LEG_MOMENT = 2.0 * (-1j) ** np.arange(_IMHOF_NODES)
# the same integral by the 32-node Gauss rule: sum_m W_m P_k(T_m) e^(-i z T_m).
# numpy's weights take P_32' at the nodes before its Newton step and are off
# by up to 6e-14 relative; W = 2 / ((1 - T^2) P_32'(T)^2)
# = 2 (1 - T^2) / (32 (P_31 - T P_32))^2 at its nodes T is within a few eps
_NEAR_T = np.polynomial.legendre.leggauss(_IMHOF_NEAR)[0]
_p31, _p32 = np.polynomial.legendre.legvander(_NEAR_T, _IMHOF_NEAR)[:, -2:].T
_NEAR_W = 2.0 * (1.0 - _NEAR_T) * (1.0 + _NEAR_T) \
    / (_IMHOF_NEAR * (_p31 - _NEAR_T * _p32)) ** 2
del _p31, _p32
_LEG_NEAR = _NEAR_W[:, None] * np.polynomial.legendre.legvander(
    _NEAR_T, _IMHOF_NODES - 1)


@dataclass(frozen=True)
class EigenWeights:
    """Spread weights s_w and sampling weights t_w at a fixed n."""

    s_w: np.ndarray
    t_w: np.ndarray

    def __post_init__(self):
        _frozen_array(self, "s_w", self.s_w)
        _frozen_array(self, "t_w", self.t_w)
        if self.s_w.shape != self.t_w.shape:
            raise DimensionMismatchError("weight arrays differ in length")
        if np.any(self.t_w < 0) or np.any(self.s_w < self.t_w):
            raise ValueError("need 0 <= t_w <= s_w coordinatewise")

    @property
    def trunc(self) -> int:
        return int(self.s_w.size)

    def noise_only(self) -> "EigenWeights":
        """Weights whose ball statistic is the posterior-mean sampling law."""
        return EigenWeights(s_w=self.t_w, t_w=self.t_w)


class CoverageReport(NamedTuple):
    coverage: float   # share of Monte Carlo draws inside the ball
    mc_stderr: float  # its binomial standard error
    exact: float      # the probability P the draws estimate
    abserr: float     # bound on the error of exact


class BvmDiagnostics(NamedTuple):
    s_n: float           # posterior sd of the functional
    t_n: float           # sampling sd of the plug-in posterior mean
    bias: float          # signed bias of the plug-in posterior mean
    ratio: float         # s_n / t_n
    sup_bias: float      # worst bias over the unit Sobolev-beta ball
    tv: float            # TV distance between N(0, s_n^2) and N(0, t_n^2)
    plugin_limit: float  # sum_i l_i^2 / kappa_i^2, the limit of n t_n^2


def credible_weights(prior: PriorSpec, fwd: ForwardSpec, n: float) -> EigenWeights:
    """Both weight sequences, from one pass over the spectral blocks."""
    if not (n > 0):
        raise ValueError("n must be positive")
    blocks = _spectral_blocks(prior, fwd, n)
    s = np.empty(prior.trunc)
    t = np.empty(prior.trunc)
    for b in blocks:
        s[b.sl] = b.s
        t[b.sl] = b.t
    return EigenWeights(s_w=s, t_w=t)


def _normal_blocks(seed, m: int, k: int):
    """The m x k standard normals of a Monte Carlo run, in row blocks.

    Chunk c (rows c*_MC_CHUNK onward) comes from the derived stream
    rng_for(seed, c), so the numbers do not depend on how chunks are
    scheduled. Each chunk is drawn in blocks of at most _MC_BLOCK elements
    (one row at least): row-major draws split by rows are the same numbers,
    so memory stays O(trunc) and results do not depend on the block size.
    """
    block_rows = max(1, _MC_BLOCK // k)
    for chunk_idx, start in enumerate(range(0, m, _MC_CHUNK)):
        rng = rng_for(seed, chunk_idx)
        left = min(_MC_CHUNK, m - start)
        while left:
            rows = min(block_rows, left)
            yield rng.standard_normal((rows, k))
            left -= rows


def _chi_bar_quantile_mc(weights: np.ndarray, prob: float, mc_samples: int,
                         seed) -> float:
    """Empirical `prob`-quantile of sum_i w_i Z_i^2.

    Each draw is a row sum (numpy's pairwise sum along the row), which,
    unlike a BLAS matrix-vector product, does not depend on the block height.
    """
    draws = np.empty(mc_samples)
    pos = 0
    for z in _normal_blocks(seed, mc_samples, weights.size):
        np.square(z, out=z)
        z *= weights
        draws[pos:pos + len(z)] = z.sum(axis=1)
        pos += len(z)
    return float(np.quantile(draws, prob))


class _ImhofSplit(NamedTuple):
    at: float            # the split point, at or past every point evaluated
    lam: np.ndarray      # coordinates summed directly, lam * at >= _SERIES_EDGE
    c: np.ndarray | None  # their c, if given
    sums: list           # sum mu^k, mu = lam * at, k = 1, ..., 2K + 1
    c_sums: list         # sum c mu^k, k = 0, ..., 2K, if c is given


def _imhof_split(lam: np.ndarray, at: float,
                 c: np.ndarray | None = None) -> _ImhofSplit:
    """Split the coordinate sums of the Imhof integrand at the point `at`.

    Coordinates with lam * at >= _SERIES_EDGE are kept to be summed
    directly; the others enter through power series in lam u (u <= at),
    formed as power sums of mu = lam * at times (u / at)^k so that no power
    of lam or of u alone is taken (those underflow and overflow). One loop
    of running products gives sum mu^k, k <= 2K + 1 (K = _SERIES_TERMS),
    and, for the noncentral terms (weights c, see _WeightedChiSquare),
    sum c mu^k, k <= 2K; no (2K + 1) x trunc table is formed.
    """
    mu = lam * at
    small = mu < _SERIES_EDGE
    sums, c_sums = [], []
    mu = mu[small]
    if mu.size:
        power = mu.copy()
        c_power = None if c is None else c[small]
        for k in range(2 * _SERIES_TERMS + 1):
            if k:
                power *= mu
            sums.append(float(power.sum()))
            if c is not None:
                if k:
                    c_power *= mu
                c_sums.append(float(c_power.sum()))
    direct = ~small
    return _ImhofSplit(at, lam[direct], None if c is None else c[direct],
                       sums, c_sums)


def _imhof_sums(split: _ImhofSplit, u: np.ndarray, edges: bool = False):
    """A and log rho at the points u (0 < u <= split.at); with edges, the
    falling part of A', log rho and the central beta instead:

        A = 1/2 sum [atan(v) + c u/(1+v^2)],  v = lam u,
        falling A' = 1/2 sum lam/(1+v^2) + the series part of
                     1/2 sum c (1-v^2)/(1+v^2)^2,
        log rho = 1/4 sum log(1+v^2) + 1/2 sum c v u/(1+v^2),
        beta = 1/2 sum v^2/(1+v^2).

    The direct coordinates are summed in column blocks of about
    _BLOCK / u.size. The series part holds the odd terms (-1)^m v^(2m+1) of
    atan v and v/(1+v^2), the even terms (-1)^(m+1) v^(2m) of log1p(v^2)
    and v^2/(1+v^2), and the terms (-1)^m c u v^(2m) of c u/(1+v^2),
    (-1)^m (2m+1) c v^(2m) of its derivative and (-1)^m c u v^(2m+1) of
    c v u/(1+v^2); all its v lie below _SERIES_EDGE < sqrt 3, where
    (1-v^2)/(1+v^2)^2 falls. The directly summed c terms of A' do not fall
    everywhere; _direct_swing bounds them. The c terms of log rho are summed
    at twice their size, as the central ones are, and halved with them.
    """
    at = split.at
    first, log_rho, beta = (np.zeros(u.size) for _ in range(3))  # A or A'
    step = max(1, _BLOCK // u.size)
    for lo in range(0, split.lam.size, step):
        blk = split.lam[lo:lo + step, None]
        v = blk * u
        v2 = v * v
        log_rho += np.log1p(v2).sum(axis=0)
        if edges:
            first += (blk / (1.0 + v2)).sum(axis=0)
            beta += (v2 / (1.0 + v2)).sum(axis=0)
        else:
            first += np.arctan(v).sum(axis=0)
        if split.c is not None:
            c_blk = split.c[lo:lo + step, None]
            if not edges:
                first += (c_blk * u / (1.0 + v2)).sum(axis=0)
            log_rho += 2.0 * (c_blk * v * u / (1.0 + v2)).sum(axis=0)
    t = u / at
    t_pow = [t ** k for k in range(len(split.sums) + 1)]
    for k, s_k in enumerate(split.sums, 1):
        m = k // 2
        if k % 2:
            sign = -1.0 if m % 2 else 1.0
            if edges:
                first += (sign * s_k / at) * t_pow[k - 1]
            else:
                first += (sign * s_k / k) * t_pow[k]
        else:
            sign = 1.0 if m % 2 else -1.0
            log_rho += (sign * s_k / m) * t_pow[k]
            if edges:
                beta += (sign * s_k) * t_pow[k]
    for k, s_k in enumerate(split.c_sums):
        sign = -1.0 if (k // 2) % 2 else 1.0
        if k % 2:
            log_rho += (2.0 * sign * s_k * at) * t_pow[k + 1]
        elif edges:
            first += (sign * (k + 1) * s_k) * t_pow[k]
        else:
            first += (sign * s_k * at) * t_pow[k + 1]
    if edges:
        return 0.5 * first, 0.25 * log_rho, 0.5 * beta
    return 0.5 * first, 0.25 * log_rho


def _direct_swing(split: _ImhofSplit, u: np.ndarray) -> np.ndarray:
    """Bound on the variation of 1/2 sum c (1-v^2)/(1+v^2)^2, v = lam u,
    over the directly summed coordinates, between consecutive points of
    0, u.

    Per coordinate, h(v) = (1-v^2)/(1+v^2)^2 falls to -1/8 at v = sqrt 3
    and rises to 0 after, so its range over [v_a, v_b] is |h(v_b) - h(v_a)|,
    or max(h(v_a), h(v_b)) + 1/8 if the interval holds sqrt 3.
    """
    u = np.concatenate(([0.0], u))
    swing = np.zeros(u.size - 1)
    step = max(1, _BLOCK // u.size)
    for lo in range(0, split.lam.size, step):
        v = split.lam[lo:lo + step, None] * u
        v2 = v * v
        h = (1.0 - v2) / ((1.0 + v2) * (1.0 + v2))
        turns = (v[:, :-1] < math.sqrt(3.0)) & (v[:, 1:] > math.sqrt(3.0))
        swing += (split.c[lo:lo + step, None] * np.where(
            turns, np.maximum(h[:, :-1], h[:, 1:]) + 0.125,
            np.abs(np.diff(h, axis=1)))).sum(axis=0)
    return 0.5 * swing


def _largest(lam: np.ndarray, c: np.ndarray | None):
    """The _IMHOF_HEAD largest lam and their c, taken in blocks of _BLOCK
    coordinates so that no index array as long as lam is formed."""
    top = np.arange(min(lam.size, _IMHOF_HEAD))
    floor = float(lam[top].min())   # the largest are these or lie above it
    for lo in range(top.size, lam.size, _BLOCK):
        idx = np.concatenate((top, lo + np.flatnonzero(
            lam[lo:lo + _BLOCK] > floor)))
        if idx.size > _IMHOF_HEAD:
            idx = idx[np.argpartition(lam[idx], -_IMHOF_HEAD)[-_IMHOF_HEAD:]]
            floor = float(lam[idx].min())
        top = idx
    return lam[top], None if c is None else c[top]


def _cutoff_bound(lam: np.ndarray, c: np.ndarray | None, u0: float) -> int:
    """The first j at which the tail bound exp(-log rho) / (pi beta) of the
    _IMHOF_HEAD largest lam (with their c) at u0 2^j is at most _IMHOF_TAIL.

    Dropping coordinates only lowers log rho and beta, so the whole law's
    bound is lower still there: its cut-off lies at or before that doubling.
    The doublings are evaluated _IMHOF_LADDER at a time.
    """
    head, c_head = _largest(lam, c)
    head = head[:, None]
    j = 0
    while True:
        u = u0 * 2.0 ** np.arange(j, j + _IMHOF_LADDER)
        v = head * u
        v2 = v * v
        log_rho = np.log1p(v2).sum(axis=0)
        if c_head is not None:
            log_rho += 2.0 * (c_head[:, None] * v * u / (1.0 + v2)).sum(axis=0)
        beta = 0.5 * (v2 / (1.0 + v2)).sum(axis=0)
        with np.errstate(over="ignore"):   # inf: beta is still tiny
            tail = np.exp(-0.25 * log_rho) / (math.pi * beta)
        done = np.flatnonzero(tail <= _IMHOF_TAIL)
        if done.size:
            return j + int(done[0])
        j += _IMHOF_LADDER


def _two_product(a: np.ndarray, b: np.ndarray):
    """a * b as p + e exactly, elementwise: Dekker's product with Veltkamp's
    split (Dekker, Numer. Math. 18, 1971); e = 0 where the split overflows."""
    p = a * b
    with np.errstate(over="ignore", invalid="ignore"):
        a_hi = a * 134217729.0   # 2^27 + 1
        a_hi -= a_hi - a
        b_hi = b * 134217729.0
        b_hi -= b_hi - b
        a_lo, b_lo = a - a_hi, b - b_hi
        e = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return p, np.where(np.isfinite(e), e, 0.0)


def _spherical_jn_orders(z: np.ndarray, z_lo=0.0) -> np.ndarray:
    """j_0(z), ..., j_15(z), the spherical Bessel functions, one row per
    element of z + z_lo, |z| >= 15.

    The recurrence j_(k+1) = (2k+1)/z j_k - j_(k-1) is run upward from
    j_0 = sin z / z and j_1 = (j_0 - cos z) / z; it is stable while
    k <= |z|, so it serves only the panels with |z| >= 15, and
    _WeightedChiSquare integrates the others by a Gauss rule. z_lo is the
    rounding error of z (_two_product): sin z and cos z take it in, so that
    a z whose last bits are worth more than a turn keeps its phase.
    """
    z = np.asarray(z, dtype=float)
    sin_hi, cos_hi, sin_lo, cos_lo = (np.sin(z), np.cos(z), np.sin(z_lo),
                                      np.cos(z_lo))
    j = np.empty((_IMHOF_NODES, z.size))
    j[0] = (sin_hi * cos_lo + cos_hi * sin_lo) / z
    j[1] = (j[0] - (cos_hi * cos_lo - sin_hi * sin_lo)) / z
    for k in range(1, _IMHOF_NODES - 1):
        j[k + 1] = (2 * k + 1) / z * j[k] - j[k - 1]
    return j.T


def _sine_integral(x: float) -> float:
    """Si(x) = int_0^x sin(t)/t dt.

    A power series for |x| <= 4; beyond, Si(x) = pi/2 + Im(e^(-ix) h) with
    h = e^(ix) E1(ix) from its continued fraction, by modified Lentz (as in
    Numerical Recipes' cisi); +-pi/2 once |x| > 2^53, where
    |Si(x) - pi/2| <= 1/|x| is below half an ulp of pi/2. nan gives nan.
    """
    ax = abs(x)
    if ax > 2.0 ** 53:
        return math.copysign(0.5 * math.pi, x)
    if not ax > 4.0:
        x2 = x * x
        term, total = x, x
        for n in range(1, 17):   # the terms past n = 16 are below 1e-18
            term *= -x2 / ((2 * n) * (2 * n + 1))
            total += term / (2 * n + 1)
        return total
    b = complex(1.0, ax)
    c, d = 1e300, 1.0 / b
    h = d
    for i in range(1, 100):   # at most about 50 steps, just above |x| = 4
        a = -float(i * i)
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        step = c * d
        h *= step
        if abs(step - 1.0) <= 2.0 ** -52:
            break
    si = 0.5 * math.pi + (complex(math.cos(ax), -math.sin(ax)) * h).imag
    return math.copysign(si, x)


def _gamma_log_cdf(a: float, y: float) -> tuple[float, float]:
    """log P(a, x) and its slope d log P / d log x at x = e^y, where
    P(a, x) = gamma(a, x) / Gamma(a) is the regularized lower incomplete
    gamma function.

    With w = x^a e^(-x) / Gamma(a + 1): below x = a + 1, P = w S by the
    series S = sum_k x^k / ((a+1)...(a+k)) (DLMF 8.7.1), and the slope is
    a / S; above, 1 - P = a w h by the continued fraction h of
    e^x x^(-a) Gamma(a, x) (DLMF 8.9.2, modified Lentz, as in Numerical
    Recipes' gcf), and the slope is a w / P. Both stop at a relative step
    of one ulp; near x = a, that takes O(sqrt(a)) terms.
    """
    x = math.exp(y)
    log_w = a * y - x - math.lgamma(a + 1.0)
    if x < a + 1.0:
        term = total = 1.0
        k = a
        while term > total * 2.0 ** -53:   # x / (k + 1) < 1 from k = a + 1 on
            k += 1.0
            term *= x / k
            total += term
        return log_w + math.log(total), a / total
    b = x + 1.0 - a
    c, d = 1e300, 1.0 / b
    h = d
    i = 0
    while True:
        i += 1
        an = -i * (i - a)
        b += 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        step = c * d
        h *= step
        if not abs(step - 1.0) > 2.0 ** -52:
            break
    w = math.exp(log_w)
    big_p = 1.0 - a * w * h
    return math.log(big_p), a * w / big_p


def _gamma_quantile(a: float, prob: float) -> float:
    """x with P(a, x) = prob, the Gamma(a, 1) quantile (0 < prob < 1).

    Newton on log P against y = log x (_gamma_log_cdf) from
    x = (prob Gamma(a + 1))^(1/a), where P(a, x) <= x^a / Gamma(a + 1) puts
    the start at or left of the root. log P is increasing and concave in y
    (its slope is 1 / int_0^1 s^(a-1) e^(x(1-s)) ds, falling in x), so the
    steps rise to the root without overshooting it, and they stop once one
    is below 1e-11, which Newton's quadratic convergence squares into the
    last bit; at most 100 steps.
    """
    log_p = math.log(prob)
    y = (log_p + math.lgamma(a + 1.0)) / a
    for _ in range(100):
        log_cdf, slope = _gamma_log_cdf(a, y)
        if not slope > 0.0:   # P(a, x) rounds to 1
            break
        step = (log_p - log_cdf) / slope
        y += step
        if abs(step) <= 1e-11:
            break
    return math.exp(y)


def _panel_cuts(edges: np.ndarray, pieces: np.ndarray) -> np.ndarray:
    """edges[i] to edges[i + 1] cut into pieces[i] equal panels: the cuts,
    last edge included, with np.linspace's arithmetic
    j * ((b - a) / k) + a, so the same bits as one linspace per edge."""
    start = np.repeat(edges[:-1], pieces)
    step = np.repeat(np.diff(edges) / pieces, pieces)
    j = np.arange(start.size) - np.repeat(np.cumsum(pieces) - pieces, pieces)
    return np.append(j * step + start, edges[-1])


class _WeightedChiSquare:
    """Law of Q = sum_j (sqrt(w_j) Z_j + b_j)^2 (w_j >= 0; b = 0 if not
    given) by Imhof's inversion.

    With lam = w / scale, c = b^2 / scale and x in those units, scale =
    max(w), or max(w, b^2) if b is given (Imhof, Biometrika 48, 1961; the
    coordinates with lam_j = 0 add the constant offset = sum c_j to Q, and
    DegenerateInputError is raised if no lam_j is positive)

        P(Q <= x) = 1/2 - (1/pi) int_0^inf sin(A(u) - x u/2) / (u rho(u)) du,

    and its derivative, the density, is
    f(x) = (1/(2 pi)) int_0^inf cos(A(u) - x u/2) / rho(u) du; A and log rho
    as in _imhof_sums, x less the offset. The integral is cut at U, the
    first of the doublings of sqrt(2)/sd (1/||lam||_2 if b = 0) where
    log rho(u) >= log rho(U) + beta(U) log(u/U) bounds the rest by
    exp(-log rho(U)) / (pi beta(U)) <= _IMHOF_TAIL; beta is the central
    part's, since the c part of log rho does not fall with u. The same
    search on the _IMHOF_HEAD largest weights alone (_cutoff_bound) stops at
    a doubling U* >= U, so the coordinates are split into series and direct
    sums once, at U* (_imhof_split), and one evaluation at every doubling
    through U* finds U and gives the sums at the panel edges. [0, U] is
    split into panels at those edges, each cut evenly until A leaves its
    chord (slope s) by at most _IMHOF_PHASE and log rho grows by at most
    _IMHOF_DECAY. The gap to the chord is at most width * (variation of A'
    on the panel) / 4: the fall of the falling part of A' (_imhof_sums) plus
    _direct_swing. On a panel the x-free factors exp(i(A(u) - s u))/rho(u)
    and that over u are then smooth; a second evaluation of the same split,
    at the cuts and the Gauss-Legendre nodes, tabulates each once as a
    Legendre series of degree 15, and the x-dependent factor
    exp(-i(x/2 - s)u) is integrated against that series (cdf_pdf), so a CDF
    and density value cost O(panels x nodes) however fast they oscillate.
    On the first panel [0, b] the 1/u pole of the CDF integrand is split off
    and integrated in closed form, as the sine integral Si((x/2 - s) b),
    computed in plain floats by its power series or the continued fraction
    of E1 (_sine_integral), within a few eps of 30-digit values.
    """

    def __init__(self, weights: np.ndarray, bias=None):
        w = np.asarray(weights, dtype=float)
        c_all = None
        if bias is None:
            self.scale = float(w.max())
            pos = w > 0
        else:
            # units in which no lam or c exceeds 1, so none overflows; a
            # weight that underflows joins the offset
            c_all = np.square(np.asarray(bias, dtype=float))
            self.scale = float(max(w.max(), c_all.max()))
            with np.errstate(invalid="ignore"):   # 0/0 if w = b = 0
                c_all /= self.scale
                pos = w / self.scale > 0
        if not pos.any():
            raise DegenerateInputError("no positive weight")
        lam = w[pos] / self.scale
        lam_sum = float(lam.sum())
        self.mean = lam_sum
        self.sd = math.sqrt(2.0 * float((lam * lam).sum()))
        self.k3 = 8.0 * float((lam * lam * lam).sum())   # third cumulant
        self.offset = 0.0
        c = None
        if c_all is not None:
            c = c_all[pos]
            self.offset = float(c_all[~pos].sum())
            del c_all   # trunc-long, like lam and c: freed before the split
            self.mean += float(c.sum()) + self.offset
            self.sd = math.sqrt(self.sd * self.sd
                                + 4.0 * float((lam * c).sum()))
            self.k3 += 24.0 * float((lam * lam * c).sum())
        u0 = math.sqrt(2.0) / self.sd
        ladder = u0 * 2.0 ** np.arange(_cutoff_bound(lam, c, u0) + 1)
        split = _imhof_split(lam, float(ladder[-1]), c)
        del lam, c   # the split keeps what it needs
        d_a, log_rho, beta = _imhof_sums(split, ladder, edges=True)
        with np.errstate(over="ignore"):   # inf: beta is still tiny
            tail = np.exp(-log_rho) / (math.pi * beta)
        done = np.flatnonzero(tail <= _IMHOF_TAIL)
        # U* itself if rounding puts the whole law's bound a hair above the
        # head's there
        stop = int(done[0]) + 1 if done.size else ladder.size
        self.tail = float(tail[stop - 1])
        edges = np.concatenate(([0.0], ladder[:stop]))
        # the falling part of A' at 0: 1/2 (sum lam + the series part's sum c)
        c_series = split.c_sums[0] if split.c_sums else 0.0
        d_a = np.concatenate(([0.5 * (lam_sum + c_series)], d_a[:stop]))
        log_rho = np.concatenate(([0.0], log_rho[:stop]))
        width = np.diff(edges)
        swing = d_a[:-1] - d_a[1:]
        if split.c is not None:
            swing += _direct_swing(split, ladder[:stop])
        pieces = np.ceil(np.maximum.reduce([
            np.ones_like(width),
            width * swing / (4.0 * _IMHOF_PHASE),
            np.diff(log_rho) / _IMHOF_DECAY])).astype(int)
        cuts = _panel_cuts(edges, pieces)
        # center + center_lo is the exact midpoint (Knuth's two-sum), and
        # the half-widths are exact (consecutive cuts lie within a factor
        # 2), so the panels tile [0, U] without gaps at any u
        ends = cuts[1:] + cuts[:-1]
        ends_b = ends - cuts[1:]
        self.center = 0.5 * ends
        self.center_lo = 0.5 * ((cuts[1:] - (ends - ends_b))
                                + (cuts[:-1] - ends_b))
        self.half = 0.5 * (cuts[1:] - cuts[:-1])
        nodes = self.center[:, None] + self.half[:, None] * _GL_T
        panels = self.center.size
        a, log_rho = _imhof_sums(split, np.concatenate((cuts[1:],
                                                        nodes.ravel())))
        a_cut = np.concatenate(([0.0], a[:panels]))
        self.slope = np.diff(a_cut) / (2.0 * self.half)
        phase = a[panels:].reshape(panels, -1) - self.slope[:, None] * nodes
        z = 1j * phase - log_rho[panels:].reshape(panels, -1)
        g = np.exp(z)
        f = g.copy()
        f[0] = np.expm1(z[0])
        f /= nodes
        half = self.half[:, None]
        coef = [v @ _LEG_PROJECT.T for v in (f, g)]
        # Filon moments half 2 (-i)^k a_k, and the series at the Gauss
        # rule's nodes times its weights and half
        self.moments, self.density_moments = (a_k * _LEG_MOMENT * half
                                              for a_k in coef)
        self.near, self.density_near = (a_k @ _LEG_NEAR.T * half
                                        for a_k in coef)
        self.abscissae = self.center[:, None] + half * _NEAR_T

    def cdf_pdf(self, x: float) -> tuple[float, float]:
        """P(Q <= x) and the density at x, in the units of lam; (1, 0) where
        x is so large that nu * half overflows (x = inf, say), and
        DegenerateInputError at x = nan.

        On a panel with center m and half-width h, nu = x/2 - offset/2 - s
        and z = nu h, the integral of the Legendre series p against
        e^(-i nu u) is h e^(-i nu m) int_{-1}^{1} p(t) e^(-i z t) dt. Where
        |z| < 15 the factor barely oscillates and the 32-node Gauss rule
        takes that integral (exact up to rounding, there, for a degree-15
        p): one complex exp per node. From |z| = 15 on, the Filon-type rule
        takes it exactly, with the spherical Bessel values j_0..j_15 of z
        from their upward recurrence (_spherical_jn_orders).
        """
        if math.isnan(x):
            raise DegenerateInputError("CDF argument is nan")
        nu = 0.5 * (x - self.offset) - self.slope
        with np.errstate(over="ignore"):
            z = nu * self.half
        if not np.isfinite(z).all():
            return float(x > 0.0), 0.0
        near = np.abs(z) < _IMHOF_NODES - 1
        wave = np.exp(-1j * (nu[near, None] * self.abscissae[near]))
        cdf_part = (self.near[near] * wave).sum()
        density_part = (self.density_near[near] * wave).sum()
        far = ~near
        if far.any():
            # nu u exactly at the panel's center and ends: the phase
            # survives where nu u is far past 2^53
            z_far, z_lo = _two_product(nu[far], self.half[far])
            phase, phase_lo = _two_product(nu[far], self.center[far])
            phase_lo += nu[far] * self.center_lo[far]
            j = _spherical_jn_orders(z_far, z_lo)
            turn = np.exp(-1j * phase) * np.exp(-1j * phase_lo)
            cdf_part += ((self.moments[far] * j).sum(axis=1) * turn).sum()
            density_part += ((self.density_moments[far] * j).sum(axis=1)
                             * turn).sum()
        integral = float(cdf_part.imag) - _sine_integral(2.0 * float(z[0]))
        return 0.5 - integral / math.pi, float(density_part.real) / (2.0 * math.pi)

    def quantile(self, prob: float) -> tuple[float, float]:
        """x with P(Q <= x) = prob, in the units of w, and its error bound.

        Safeguarded Newton on the CDF inside Cantelli's bracket [lo, hi].
        It starts from the shifted chi-square with the law's first three
        cumulants (Pearson, Biometrika 46, 1959; exact for one weight), at
        the Wilson-Hilferty approximation of its quantile, whose cube root
        is nearly normal, so that Newton does not start in the convex lower
        tail at small prob; where that approximation is not positive, from
        the normal approximation (util.ndtri, Wichura's AS 241). Where the
        start is at or below lo, it takes the shifted chi-square's exact
        quantile (_gamma_quantile), so that a law with one
        dominant weight does not start at x = 0, where its density is
        infinite and Newton cannot step. A step that leaves the bracket of
        the points seen so far goes to a bracket end not yet evaluated, or
        else bisects. It stops when the step is within the root tolerance;
        if F(lo) >= prob it returns lo, and if F(hi) <= prob it returns hi.
        The bound is the root tolerance plus the cut-off's CDF error over
        the density at the last point, capped by the farther end of [lo, hi].
        """
        m, sd = self.mean, self.sd
        # Cantelli's inequality puts the quantile inside [lo, hi]
        lo = max(0.0, m - sd * math.sqrt((1.0 - prob) / prob))
        hi = m + sd * math.sqrt(prob / (1.0 - prob))
        xtol = _IMHOF_ROOT_RTOL * hi
        a, b = lo, hi            # the root lies in [a, b]
        seen_a = seen_b = False  # whether F has been evaluated at a, at b
        z_p = ndtri(prob)
        x = m + sd * z_p
        if self.k3 > 0.0:
            # Q ~ m + g (G - shape), G ~ Gamma(shape, 1), has the law's
            # mean, variance and third cumulant; Wilson-Hilferty's cube
            # root of G is nearly normal
            g = self.k3 / (2.0 * sd * sd)
            shape = (sd / g) ** 2
            w = 1.0 - 1.0 / (9.0 * shape) + z_p / (3.0 * math.sqrt(shape))
            if w > 0.0:
                x = m + g * shape * (w * w * w - 1.0)
            if x <= lo:
                x = m + g * (_gamma_quantile(shape, prob) - shape)
        x = min(max(x, lo), hi)
        while True:
            cdf, density = self.cdf_pdf(x)
            if (x == lo and cdf >= prob) or (x == hi and cdf <= prob) \
                    or cdf == prob:
                break
            if cdf < prob:
                a, seen_a = x, True
            else:
                b, seen_b = x, True
            tol = xtol + _IMHOF_ROOT_RTOL * x
            step = (prob - cdf) / density if density > 0.0 \
                else math.copysign(math.inf, prob - cdf)
            new = x + step
            if not (abs(step) <= tol or a < new < b):
                # out of the bracket (or not a number): its end that way if
                # not yet seen, or else the midpoint
                end, seen = (b, seen_b) if step > 0.0 else (a, seen_a)
                new = 0.5 * (a + b) if seen else end
            x, step = new, new - x
            if abs(step) <= tol:
                break
        err = min(xtol + _IMHOF_ROOT_RTOL * x + self.tail / max(density, 1e-300),
                  max(x - lo, hi - x))   # finite where the density underflows
        return x * self.scale, err * self.scale


def ball_radius(w: EigenWeights, gamma: float, method: str = "imhof",
                mc_samples: int = 200_000, seed: int = 0,
                full_output: bool = False):
    """Radius r with P(sum_i s_i Z_i^2 <= r^2) = 1 - gamma.

    method "imhof" (default): exact inversion of the weighted chi-square law
    (Imhof 1961), a safeguarded Newton search on its CDF with the density
    from the same Filon tables; its error bound is near 1e-10 relative or
    below. mc_samples and seed are not used.
    method "monte-carlo": empirical quantile of mc_samples draws from seed.

    With full_output the result is (r, abserr): for "imhof", abserr bounds
    |r - exact r| by the root tolerance plus the integral's cut-off error
    over the density at the root (or Cantelli's bracket, if less); None for
    "monte-carlo". ValueError unless 0 < gamma < 1 and 1 - gamma rounds
    below 1 (gamma above 2^-54, about 5.6e-17): the radius at 1 - gamma = 1
    is inf. RegimeError where the "imhof" abserr exceeds 1e-3 r: the CDF's
    cut-off error (1e-10) is then not small beside gamma, and r no longer
    rises as gamma falls (for EigenWeights([1.0, 0.5], [0.5, 0.2]) that
    refuses gamma below about 1e-9).
    """
    if not (0.0 < 1.0 - gamma < 1.0):
        raise ValueError(f"gamma must lie in (0, 1) with 1 - gamma below 1 "
                         f"in floating point, got {gamma!r}")
    s = w.s_w
    abserr = None
    if not np.any(s > 0):
        warnings.warn("all-zero spread weights; radius degenerates to 0")
        r = 0.0
    elif method == "monte-carlo":
        if mc_samples < 10_000:
            raise ValueError("mc_samples must be at least 10_000")
        r = math.sqrt(_chi_bar_quantile_mc(s, 1.0 - gamma, int(mc_samples),
                                           seed))
    elif method == "imhof":
        r_sq, r_sq_err = _WeightedChiSquare(s).quantile(1.0 - gamma)
        r = math.sqrt(r_sq)
        # r - sqrt(r^2 - err), the larger side of the error, without cancelling
        lower = math.sqrt(max(r_sq - r_sq_err, 0.0))
        abserr = r_sq_err / (r + lower) if r > 0 else math.sqrt(r_sq_err)
        if not abserr <= _RADIUS_RESOLVED * r:
            raise RegimeError(
                f"the radius at gamma {gamma!r} is not resolved: its error "
                f"bound {abserr:.3g} exceeds {_RADIUS_RESOLVED:g} of r = {r:.6g}")
    else:
        raise ValueError(f"unknown method {method!r}")
    return (r, abserr) if full_output else r


def ball_coverage(w: EigenWeights, bias, r: float, mc_samples: int = 2000,
                  seed: int = 0) -> CoverageReport:
    """Coverage of the ball of radius r about the truth by mc_samples draws
    of the posterior mean, and the probability P they estimate.

    P = P(sum_i (sqrt(t_i) Z_i + b_i)^2 <= r^2) is the CDF of the noncentral
    weighted chi-square law at r^2, by Imhof's inversion
    (_WeightedChiSquare); its error bound is the integral's cut-off error.
    The number of draws inside the ball has the exact law
    Binomial(mc_samples, P), and is drawn as one binomial from rng_for(seed);
    coverage is that number over mc_samples, with its binomial standard
    error. `bias` is the coordinatewise posterior-mean bias at the truth of
    interest (see posterior.bias_coordinates).
    """
    if not r >= 0:
        raise ValueError("radius must be nonnegative")
    b = np.ascontiguousarray(bias, dtype=float).ravel()
    if b.size != w.trunc:
        raise DimensionMismatchError("bias length != weight length")
    m = int(mc_samples)
    if m < 1:
        raise ValueError("mc_samples must be positive")
    if not np.all(np.isfinite(b)):
        raise ValueError("bias must be finite")
    try:
        law = _WeightedChiSquare(w.t_w, b)
    except DegenerateInputError:   # no spread: the mean is truth + bias
        p, abserr = float(float(b @ b) <= r * r), 0.0
    else:
        p = min(max(law.cdf_pdf(r * r / law.scale)[0], 0.0), 1.0)
        abserr = law.tail
    p_hat = int(rng_for(seed).binomial(m, p)) / m
    return CoverageReport(p_hat, math.sqrt(p_hat * (1.0 - p_hat) / m), p,
                          abserr)


def interval_coverage(bias: float, s_n: float, t_n: float, gamma: float) -> float:
    """Exact frequentist coverage of the central credible interval.

    The posterior-mean functional is N(truth + bias, t_n^2); the interval has
    half-width -z_{gamma/2} s_n. Coverage is
    Phi((-z s_n - bias)/t_n) - Phi((z s_n - bias)/t_n) with z = z_{gamma/2} < 0.
    Raises ValueError for gamma outside (0, 1) or a nan bias, and
    DegenerateInputError unless s_n and t_n are positive.
    """
    if not (0.0 < gamma < 1.0):
        raise ValueError("gamma must lie in (0, 1)")
    if math.isnan(bias):
        raise ValueError("bias is nan")
    if not (s_n > 0) or not (t_n > 0):
        raise DegenerateInputError("s_n and t_n must be positive")
    z = ndtri(gamma / 2.0)
    hi = (-z * s_n - bias) / t_n
    lo = (z * s_n - bias) / t_n
    return ndtr(hi) - ndtr(lo)


def _tv_centered_normals(s: float, t: float) -> float:
    """TV distance between N(0, s^2) and N(0, t^2), in [0, 1].

    For sds lo < hi the densities cross at +-x*, and the distance is
    2 (Phi(x*/lo) - Phi(x*/hi)) = erfc(x*/(hi sqrt 2)) - erfc(x*/(lo sqrt 2)).
    Both arguments depend only on rho = lo/hi through
    x*/lo = sqrt(2 log(1/rho) / (1 - rho^2)) and x*/hi = rho x*/lo, so the
    result is scale-free; d = (hi - lo)/hi keeps rho -> 1 accurate. For
    d < 1/2 the two erfc values are close, and their difference is taken as
    the integral of (2/sqrt(pi)) e^(-x^2) between the two arguments, over a
    width of d x*/(lo sqrt 2) that is formed without cancellation, by the
    16-node Gauss-Legendre rule of the Imhof panels.
    """
    if s == t:
        return 0.0
    lo, hi = sorted((s, t))
    rho = lo / hi
    if rho == 0.0:
        return 1.0
    d = (hi - lo) / hi
    log_inv = -math.log1p(-d) if d < 0.5 else -math.log(rho)
    a = math.sqrt(2.0 * log_inv / (d * (2.0 - d)))
    if d >= 0.5:
        return math.erfc(rho * a / math.sqrt(2.0)) - math.erfc(a / math.sqrt(2.0))
    half, mid = a * d / math.sqrt(8.0), a * (2.0 - d) / math.sqrt(8.0)
    x = mid + half * _GL_T
    return half * float(_GL_W @ np.exp(-x * x)) * (2.0 / math.sqrt(math.pi))


def bvm_diagnostics(prior: PriorSpec, fwd: ForwardSpec, l: Functional,
                    truth: Truth, n: float, beta: float) -> BvmDiagnostics:
    """Spread-vs-sampling diagnostics for the functional's credible interval.

    s_n, t_n and bias are posterior.functional_interval's, from the same
    pass. ratio s_n/t_n -> 1 is the hallmark of correct uncertainty
    calibration; sup_bias = sqrt(sum_i l_i^2 i^(-2 beta) / (1+g_i)^2) is the
    exact worst bias over the unit Sobolev-beta ball (Cauchy-Schwarz is
    attained by the extremal truth); tv is the TV distance between the two
    centered Gaussian laws; plugin_limit = sum_i l_i^2 / kappa_i^2 is the
    limit of n t_n^2 as n grows.
    """
    if not (l.trunc == prior.trunc == truth.trunc):
        raise DimensionMismatchError("functional, prior, truth lengths differ")
    blocks = _spectral_blocks(prior, fwd, n)

    def terms():
        for b in blocks:
            lcoef = l.coeffs[b.sl]
            l_sq = lcoef ** 2
            yield _interval_terms(b, lcoef, l_sq, truth.coeffs[b.sl]) + (
                l_sq * b.i ** (-2.0 * beta) / (b.denom * b.denom),
                l_sq / b.kap ** 2)

    s_sq, t_sq, bias, sup_sq, plugin_limit = stable_sums(terms(),
                                                         prior.trunc)
    if s_sq == 0.0:
        raise DegenerateInputError("functional has zero posterior spread")
    s_n = math.sqrt(s_sq)
    t_n = math.sqrt(t_sq)
    return BvmDiagnostics(
        s_n=s_n, t_n=t_n, bias=-bias,
        ratio=s_n / t_n if t_n > 0 else math.inf,
        sup_bias=math.sqrt(sup_sq),
        tv=_tv_centered_normals(s_n, t_n) if t_n > 0 else 1.0,
        plugin_limit=plugin_limit)
