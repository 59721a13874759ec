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

from .model import ForwardSpec, PriorSpec, Truth, _spectral_blocks
from .posterior import Functional, _interval_terms
from .util import DegenerateInputError, DimensionMismatchError, ndtr, \
    ndtri, rng_for, stable_sums

_MC_CHUNK = 8192          # rows per keyed stream rng_for(seed, chunk)
_MC_BLOCK = 1 << 20       # normals drawn at once (8 MB), whatever the trunc

# Imhof inversion (see _WeightedChiSquare)
_IMHOF_NODES = 16         # Gauss-Legendre nodes per panel
_IMHOF_PHASE = 1.0        # A(u) leaves its chord by at most this on a panel
_IMHOF_DECAY = 1.0        # log rho(u) grows by at most this on a panel
_IMHOF_TAIL = 1e-10       # bound on the CDF error of cutting the integral
_IMHOF_ROOT_RTOL = 1e-13  # relative tolerance of the quantile root search
_IMHOF_LADDER = 12        # doublings of the tail search per pass
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


@dataclass(frozen=True)
class EigenWeights:
    """Spread weights s_w and sampling weights t_w at a fixed n."""

    s_w: np.ndarray
    t_w: np.ndarray

    def __post_init__(self):
        s = np.ascontiguousarray(self.s_w, dtype=float)
        t = np.ascontiguousarray(self.t_w, dtype=float)
        if s.shape != t.shape or s.ndim != 1:
            raise DimensionMismatchError("weight arrays must be 1-d, same length")
        if np.any(t < 0) or np.any(s < t):
            raise ValueError("need 0 <= t_w <= s_w coordinatewise")
        s.flags.writeable = False
        t.flags.writeable = False
        object.__setattr__(self, "s_w", s)
        object.__setattr__(self, "t_w", t)

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


class _ImhofTerms(NamedTuple):
    u: np.ndarray        # the points, u > 0
    blocks: list         # (lam, c or None) column blocks summed directly
    t: np.ndarray        # u / max(u)
    u_max: float
    sums: list           # sum mu^k, mu = lam * max(u), k = 1, ..., 2K + 1
    c_sums: list         # sum c mu^k, k = 0, ..., 2K, if c is given


def _imhof_terms(lam: np.ndarray, u: np.ndarray,
                 c: np.ndarray | None = None) -> _ImhofTerms:
    """Split the coordinate sums of the Imhof integrand at the points u.

    Coordinates with lam * max(u) >= _SERIES_EDGE are summed directly, in
    column blocks; the others enter through power series in lam u, formed as
    power sums of mu = lam * max(u) times (u / max(u))^k so that no power of
    lam or of u alone is taken (those underflow and overflow). One loop of
    products gives sum mu^k, k <= 2K + 1 (K = _SERIES_TERMS), and, for the
    noncentral terms (weights c, see _WeightedChiSquare), sum c mu^k,
    k <= 2K.
    """
    u_max = float(u.max())
    mu = lam * u_max
    small = mu < _SERIES_EDGE
    big = lam[~small]
    c_big = None if c is None else c[~small]
    step = max(1, _BLOCK // u.size)
    blocks = [(big[lo:lo + step, None],
               None if c is None else c_big[lo:lo + step, None])
              for lo in range(0, big.size, step)]
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
    return _ImhofTerms(u, blocks, u / u_max, u_max, sums, c_sums)


def _imhof_sums(terms: _ImhofTerms):
    """A, the part of A' that falls with u, log rho and the central beta:

        A = 1/2 sum [atan(v) + c u/(1+v^2)],  v = lam u,
        falling A' = 1/2 sum lam/(1+v^2) + the series part of
                     1/2 sum c (1-v^2)/(1+v^2)^2,
        log rho = 1/4 sum log(1+v^2) + 1/2 sum c v u/(1+v^2),
        beta = 1/2 sum v^2/(1+v^2).

    The series part holds the odd terms (-1)^m v^(2m+1) of atan v and
    v/(1+v^2), the even terms (-1)^(m+1) v^(2m) of log1p(v^2) and
    v^2/(1+v^2), and the terms (-1)^m c u v^(2m) of c u/(1+v^2),
    (-1)^m (2m+1) c v^(2m) of its derivative and (-1)^m c u v^(2m+1) of
    c v u/(1+v^2); all its v lie below _SERIES_EDGE < sqrt 3, where
    (1-v^2)/(1+v^2)^2 falls. The directly summed c terms of A' do not fall
    everywhere; _direct_swing bounds them. The c terms of log rho are summed
    at twice their size, as the central ones are, and halved with them.
    """
    u, t, u_max = terms.u, terms.t, terms.u_max
    a, d_a, log_rho, beta = (np.zeros(u.size) for _ in range(4))
    for blk, c_blk in terms.blocks:
        v = blk * u
        v2 = v * v
        a += np.arctan(v).sum(axis=0)
        d_a += (blk / (1.0 + v2)).sum(axis=0)
        log_rho += np.log1p(v2).sum(axis=0)
        beta += (v2 / (1.0 + v2)).sum(axis=0)
        if c_blk is not None:
            a += (c_blk * u / (1.0 + v2)).sum(axis=0)
            log_rho += 2.0 * (c_blk * v * u / (1.0 + v2)).sum(axis=0)
    t_pow = [t ** k for k in range(len(terms.sums) + 1)]
    for k, s_k in enumerate(terms.sums, 1):
        m = k // 2
        if k % 2:
            sign = -1.0 if m % 2 else 1.0
            a += (sign * s_k / k) * t_pow[k]
            d_a += (sign * s_k / u_max) * t_pow[k - 1]
        else:
            sign = 1.0 if m % 2 else -1.0
            log_rho += (sign * s_k / m) * t_pow[k]
            beta += (sign * s_k) * t_pow[k]
    for k, s_k in enumerate(terms.c_sums):
        sign = -1.0 if (k // 2) % 2 else 1.0
        if k % 2:
            log_rho += (2.0 * sign * s_k * u_max) * t_pow[k + 1]
        else:
            a += (sign * s_k * u_max) * t_pow[k + 1]
            d_a += (sign * (k + 1) * s_k) * t_pow[k]
    return 0.5 * a, 0.5 * d_a, 0.25 * log_rho, 0.5 * beta


def _direct_swing(terms: _ImhofTerms) -> np.ndarray:
    """Bound on the variation of 1/2 sum c (1-v^2)/(1+v^2)^2, v = lam u,
    over the directly summed coordinates, between consecutive points of
    0, terms.u.

    Per coordinate, h(v) = (1-v^2)/(1+v^2)^2 falls to -1/8 at v = sqrt 3
    and rises to 0 after, so its range over [v_a, v_b] is |h(v_b) - h(v_a)|,
    or max(h(v_a), h(v_b)) + 1/8 if the interval holds sqrt 3.
    """
    u = np.concatenate(([0.0], terms.u))
    swing = np.zeros(terms.u.size)
    for blk, c_blk in terms.blocks:
        v = blk * u
        v2 = v * v
        h = (1.0 - v2) / ((1.0 + v2) * (1.0 + v2))
        turns = (v[:, :-1] < math.sqrt(3.0)) & (v[:, 1:] > math.sqrt(3.0))
        swing += (c_blk * np.where(
            turns, np.maximum(h[:, :-1], h[:, 1:]) + 0.125,
            np.abs(np.diff(h, axis=1)))).sum(axis=0)
    return 0.5 * swing


def _spherical_jn_orders(z: float) -> list[float]:
    """j_0(z), ..., j_15(z), the spherical Bessel functions, for one z >= 0.

    From z = 15 on, the recurrence j_(k+1) = (2k+1)/z j_k - j_(k-1) is run
    upward from j_0 = sin z / z and j_1 = (j_0 - cos z) / z; it is stable
    while k <= z. Below that it is run downward (Miller's algorithm; Gautschi,
    SIAM Review 9, 1967) from zero above order 24 + 1.2 z, for g_k = j_k / z^k,
    g_(k-1) = (2k+1) g_k - z^2 g_(k+1), which neither overflows nor
    underflows at small z; the result is scaled to match whichever of j_0 and
    j_1 is larger.
    """
    if z >= _IMHOF_NODES - 1:
        j0 = math.sin(z) / z
        j = [j0, (j0 - math.cos(z)) / z]
        for k in range(1, _IMHOF_NODES - 1):
            j.append((2 * k + 1) / z * j[k] - j[k - 1])
        return j
    if z == 0.0:
        return [1.0] + [0.0] * (_IMHOF_NODES - 1)
    z2 = z * z
    g_next, g = 0.0, 1.0
    gs = []
    for k in range(int(24.0 + 1.2 * z), 0, -1):   # g = g_k -> g_(k-1)
        if k < _IMHOF_NODES:
            gs.append(g)
        g_next, g = g, (2 * k + 1) * g - z2 * g_next
    gs.append(g)
    gs.reverse()                                    # g_0, ..., g_15
    j0 = math.sin(z) / z
    if abs(gs[0]) >= abs(gs[1] * z):
        scale = j0 / gs[0]
    else:
        scale = (j0 - math.cos(z)) / (z * z * gs[1])
    j = []
    for g in gs:
        j.append(g * scale)
        scale *= z
    return j


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
    part's, since the c part of log rho does not fall with u. Each pass of
    that search adds _IMHOF_LADDER doublings and evaluates all of them, so
    the last pass also gives the sums at the panel edges, the doublings
    through U. [0, U] is split into panels at those edges, each cut evenly
    until A leaves its chord (slope s) by at most _IMHOF_PHASE and log rho
    grows by at most _IMHOF_DECAY. The gap to the chord is at most
    width * (variation of A' on the panel) / 4: the fall of the falling part
    of A' (_imhof_sums) plus _direct_swing. On a panel the x-free factors
    exp(i(A(u) - s u))/rho(u) and that over u are then smooth; a second
    evaluation, at the cuts and the Gauss-Legendre nodes, tabulates each
    once as a Legendre series, and the
    x-dependent factor exp(-i(x/2 - s)u) is integrated against each
    Legendre polynomial exactly (a Filon-type rule), so a CDF and density
    value cost O(panels x nodes) however fast they oscillate. On the first
    panel [0, b] the 1/u pole of the CDF integrand is split off and
    integrated in closed form, as the sine integral Si((x/2 - s) b).
    Both special functions are computed here, in plain floats: the
    spherical Bessel values j_0..j_15 of each panel from one sin/cos pair by
    their three-term recurrence (_spherical_jn_orders: upward from z = 15,
    Miller's downward form below), and Si by its power series or the
    continued fraction of E1 (_sine_integral); both are within a few eps of
    30-digit values, so a CDF evaluation loads no scipy.
    """

    def __init__(self, weights: np.ndarray, bias=None):
        w = np.asarray(weights, dtype=float)
        if bias is None:
            self.scale = float(w.max())
            pos = w > 0
        else:
            # units in which no lam or c exceeds 1, so none overflows; a
            # weight that underflows joins the offset
            b_sq = np.square(np.asarray(bias, dtype=float))
            self.scale = float(max(w.max(), b_sq.max()))
            with np.errstate(invalid="ignore"):   # 0/0 if w = b = 0
                c_all = b_sq / self.scale
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
        if bias is not None:
            c = c_all[pos]
            self.offset = float(c_all[~pos].sum())
            self.mean += float(c.sum()) + self.offset
            self.sd = math.sqrt(self.sd * self.sd
                                + 4.0 * float((lam * c).sum()))
            self.k3 += 24.0 * float((lam * lam * c).sum())
        u = math.sqrt(2.0) / self.sd
        size = 0
        while True:
            # every doubling so far, so that the edges' sums below share one
            # series/direct split; only the new ones can stop the search
            size += _IMHOF_LADDER
            ladder = u * 2.0 ** np.arange(size)
            terms = _imhof_terms(lam, ladder, c)
            _, d_a, log_rho, beta = _imhof_sums(terms)
            with np.errstate(over="ignore"):   # inf: beta is still tiny
                tail = np.exp(-log_rho) / (math.pi * beta)
            done = np.flatnonzero(tail[-_IMHOF_LADDER:] <= _IMHOF_TAIL)
            if done.size:
                break
        stop = size - _IMHOF_LADDER + done[0] + 1   # edges through the cut-off
        self.tail = float(tail[stop - 1])
        edges = np.concatenate(([0.0], ladder[:stop]))
        # the falling part of A' at 0: 1/2 (sum lam + the series part's sum c)
        c_series = terms.c_sums[0] if terms.c_sums else 0.0
        d_a = np.concatenate(([0.5 * (lam_sum + c_series)], d_a[:stop]))
        log_rho = np.concatenate(([0.0], log_rho[:stop]))
        width = np.diff(edges)
        swing = d_a[:-1] - d_a[1:]
        if c is not None:
            swing += _direct_swing(terms)[:stop]
        pieces = np.ceil(np.maximum.reduce([
            np.ones_like(width),
            width * swing / (4.0 * _IMHOF_PHASE),
            np.diff(log_rho) / _IMHOF_DECAY])).astype(int)
        cuts = _panel_cuts(edges, pieces)
        self.center = 0.5 * (cuts[1:] + cuts[:-1])
        self.half = 0.5 * (cuts[1:] - cuts[:-1])
        nodes = self.center[:, None] + self.half[:, None] * _GL_T
        panels = self.center.size
        a, _, log_rho, _ = _imhof_sums(_imhof_terms(
            lam, np.concatenate((cuts[1:], nodes.ravel())), c))
        a_cut = np.concatenate(([0.0], a[:panels]))
        self.slope = np.diff(a_cut) / (2.0 * self.half)
        phase = a[panels:].reshape(panels, -1) - self.slope[:, None] * nodes
        z = 1j * phase - log_rho[panels:].reshape(panels, -1)
        g = np.exp(z)
        f = g.copy()
        f[0] = np.expm1(z[0])
        f /= nodes
        self.moments, self.density_moments = (
            (v[:, None, :] * _LEG_PROJECT).sum(axis=2) * _LEG_MOMENT
            * self.half[:, None] for v in (f, g))

    def cdf_pdf(self, x: float) -> tuple[float, float]:
        """P(Q <= x) and the density at x, in the units of lam; (1, 0) where
        x is so large that nu * half overflows (x = inf, say), and
        DegenerateInputError at x = nan."""
        if math.isnan(x):
            raise DegenerateInputError("CDF argument is nan")
        nu = 0.5 * (x - self.offset) - self.slope
        with np.errstate(over="ignore"):
            z = nu * self.half
        if not np.isfinite(z).all():
            return float(x > 0.0), 0.0
        j = np.array([_spherical_jn_orders(abs(v)) for v in z.tolist()])
        j[:, 1::2] *= np.sign(z)[:, None]   # j_k(-z) = (-1)^k j_k(z)
        turn = np.exp(-1j * nu * self.center)
        panel = (self.moments * j).sum(axis=1) * turn
        integral = float(panel.imag.sum()) - _sine_integral(2.0 * float(z[0]))
        density = float(((self.density_moments * j).sum(axis=1)
                          * turn).real.sum())
        return 0.5 - integral / math.pi, density / (2.0 * math.pi)

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
        The bound adds the root tolerance to the cut-off's CDF error divided
        by the closed-form density at the last point evaluated.
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
        err = xtol + _IMHOF_ROOT_RTOL * x + self.tail / max(density, 1e-300)
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
    over the closed-form density at the root, and it is None for
    "monte-carlo". ValueError unless 0 < gamma < 1 and 1 - gamma rounds
    below 1 (gamma above about 1.1e-16): the radius at 1 - gamma = 1 is inf.
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
