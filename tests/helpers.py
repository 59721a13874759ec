"""Shared test oracles, independent of the library's formulas."""
import math
from typing import NamedTuple

import numpy as np
from scipy import stats

from seqinv.credible import _normal_blocks


def grid_posterior(n, lam, kappa, y):
    """Posterior mean/variance of one coordinate by direct grid integration.

    Normalizes exp(-mu^2/(2 lam) - n (y - kappa mu)^2 / 2) numerically. The
    grid scale comes from the elementary bound 1/v = 1/lam + n kappa^2, which
    pins sd between min(prior_sd, like_sd)/sqrt(2) and min(prior_sd, like_sd);
    the mode is located by bracket shrinking around the running argmax, so no
    closed-form posterior quantity is consumed.
    """

    def logf(mu):
        return -mu * mu / (2.0 * lam) - 0.5 * n * (y - kappa * mu) ** 2

    prior_sd = math.sqrt(lam)
    like_sd = 1.0 / (kappa * math.sqrt(n))
    sd_bound = min(prior_sd, like_sd)
    lo = min(-12.0 * prior_sd, y / kappa - 12.0 * like_sd)
    hi = max(12.0 * prior_sd, y / kappa + 12.0 * like_sd)
    for _ in range(60):
        xs = np.linspace(lo, hi, 4001)
        h = xs[1] - xs[0]
        if h <= 1e-3 * sd_bound:
            break
        k = int(np.argmax(logf(xs)))
        lo = xs[max(k - 1, 0)]
        hi = xs[min(k + 1, 4000)]
    mode = xs[int(np.argmax(logf(xs)))]
    grid = np.linspace(mode - 17.0 * sd_bound, mode + 17.0 * sd_bound, 20001)
    lg = logf(grid)
    w = np.exp(lg - lg.max())
    z = math.fsum(w)
    mean = math.fsum(w * grid) / z
    var = math.fsum(w * (grid - mean) ** 2) / z
    return mean, var


def replicate_loop_risk(bias, noise_sd, replicates, master_seed, cell):
    """Mean of ||bias + noise_sd Z_r||^2 over replicates r, by brute force.

    The Monte Carlo risk check as a replicate loop: replicate r draws its
    own standard normals from the stream (master_seed, cell, r), so the cost
    is replicates x trunc normals and one Generator per replicate.
    """
    vals = np.empty(replicates)
    err = np.empty(bias.size)
    for r in range(replicates):
        rng = np.random.default_rng(
            np.random.SeedSequence(master_seed, spawn_key=(cell, r)))
        rng.standard_normal(out=err)
        err *= noise_sd
        err += bias
        vals[r] = err @ err
    return float(vals.mean())


def direct_series_sum(q, t, u, v, big_n, trunc, scale=1.0):
    """sum_{i<=trunc} scale^2 i^(-2q-1-t) / (1 + N i^(-u))^v, term by term.

    The lemma series cut at trunc, each term formed on its own and summed
    with math.fsum a million terms at a time; it lies below the full series
    by the tail past trunc.
    """
    partials = []
    for start in range(1, trunc + 1, 1_000_000):
        i = np.arange(start, min(start + 1_000_000, trunc + 1), dtype=float)
        terms = np.exp(-(t + 2.0 * q + 1.0) * np.log(i)
                       - v * np.log1p(big_n * i ** -u))
        partials.append(math.fsum(terms))
    return scale * scale * math.fsum(partials)


def basis_e(i, x):
    """Unknown-side eigenfunctions sqrt(2) cos((i-1/2) pi x) of the
    integration operator, evaluated elementwise."""
    idx = np.asarray(i, dtype=float)
    return math.sqrt(2.0) * np.cos((idx - 0.5) * math.pi * np.asarray(x))


class FunctionalMarginal(NamedTuple):
    mean: float
    s_n_sq: float


def functional_marginal(summary, coeffs):
    """Posterior law N(sum l_i m_i, sum l_i^2 v_i) of the functional with
    coefficients l, read off a coordinatewise posterior summary (m, v)."""
    l = np.asarray(coeffs, dtype=float)
    return FunctionalMarginal(mean=math.fsum(l * summary.mean),
                              s_n_sq=math.fsum(l * l * summary.var))


def satterthwaite_radius(weights, gamma):
    """Moment-matched radius for sum_i w_i Z_i^2: sqrt of the (1 - gamma)
    quantile of c chi^2_d with c = m2/m1 and d = m1^2/m2, m_k = sum_i w_i^k.

    Exact for one weight or equal weights; otherwise a cross-check on the
    exact (Imhof) radius, not a reference for its digits.
    """
    w = np.asarray(weights, dtype=float)
    m1, m2 = math.fsum(w), math.fsum(w * w)
    return math.sqrt(m2 / m1 * stats.chi2.ppf(1.0 - gamma, m1 * m1 / m2))


def imhof_sums(lam, u, split, series_edge, series_terms, block):
    """A, A', log rho and beta of the Imhof integrand at the points
    0 < u <= split, all four from one loop.

    The central evaluator, written out on its own as the reference that
    credible._imhof_sums must match bit for bit: A = 1/2 sum atan(lam u),
    A' = 1/2 sum lam/(1+lam^2 u^2), log rho = 1/4 sum log(1+lam^2 u^2) and
    beta = 1/2 sum lam^2 u^2/(1+lam^2 u^2). Coordinates with
    lam * split >= series_edge are summed in column blocks of about
    block / u.size; the others through series_terms + 1 terms of the power
    series in lam u, as power sums of mu = lam * split times (u/split)^k.
    """
    u = np.asarray(u, dtype=float)
    split = float(split)
    mu = lam * split
    small = mu < series_edge
    out = np.zeros((4, u.size))
    big = lam[~small]
    step = max(1, block // u.size)
    for lo in range(0, big.size, step):
        blk = big[lo:lo + step, None]
        v = blk * u
        v2 = v * v
        out[0] += np.arctan(v).sum(axis=0)
        out[1] += (blk / (1.0 + v2)).sum(axis=0)
        out[2] += np.log1p(v2).sum(axis=0)
        out[3] += (v2 / (1.0 + v2)).sum(axis=0)
    mu = mu[small]
    if mu.size:
        t = u / split
        power = mu.copy()
        for k in range(1, 2 * series_terms + 2):
            s_k = float(power.sum())
            m = k // 2
            if k % 2:   # atan v and v/(1+v^2): (-1)^m v^(2m+1) terms
                sign = -1.0 if m % 2 else 1.0
                out[0] += (sign * s_k / k) * t ** k
                out[1] += (sign * s_k / split) * t ** (k - 1)
            else:       # log1p(v^2) and v^2/(1+v^2): (-1)^(m+1) v^(2m) terms
                sign = 1.0 if m % 2 else -1.0
                t_k = t ** k
                out[2] += (sign * s_k / m) * t_k
                out[3] += (sign * s_k) * t_k
            power *= mu
    return 0.5 * out[0], 0.5 * out[1], 0.25 * out[2], 0.5 * out[3]


def linspace_cuts(edges, pieces):
    """Cuts of the Imhof panels, one np.linspace per edge interval: each
    [edges[i], edges[i + 1]) in pieces[i] equal steps, then the last edge."""
    return np.concatenate(
        [np.linspace(a, b, k, endpoint=False)
         for a, b, k in zip(edges[:-1], edges[1:], pieces)] + [edges[-1:]])


def imhof_cutoff(lam, tail_tol, series_edge, series_terms, block):
    """Cut-off U of the central Imhof integral and its tail bound, by one
    imhof_sums pass per doubling.

    The tail search the credible-ball law used before it evaluated a ladder
    of doublings per pass: from u = 1/||lam||_2, double u until
    exp(-log rho(u)) / (pi beta(u)) <= tail_tol. Returns (U, tail).
    """
    u = math.sqrt(2.0) / math.sqrt(2.0 * float((lam * lam).sum()))
    while True:
        _, _, log_rho, beta = imhof_sums(lam, np.array([u]), u, series_edge,
                                         series_terms, block)
        tail = math.exp(-log_rho[0]) / (math.pi * beta[0])
        if tail <= tail_tol:
            return u, tail
        u *= 2.0


def mc_ball_coverage(w, bias, r, mc_samples, seed):
    """Share of mc_samples draws with ||sqrt(t) Z + bias||^2 <= r^2, and
    its binomial standard error, by brute force.

    The credible-ball coverage as a Monte Carlo run: the mc_samples x trunc
    normals come in row blocks from the keyed streams of
    credible._normal_blocks, so the cost is mc_samples x trunc normals.
    """
    sd = np.sqrt(w.t_w)
    r_sq = r * r
    hits = 0
    for z in _normal_blocks(seed, mc_samples, sd.size):
        z *= sd
        z += bias
        np.square(z, out=z)
        hits += int(np.count_nonzero(z.sum(axis=1) <= r_sq))
    p_hat = hits / mc_samples
    return p_hat, math.sqrt(p_hat * (1.0 - p_hat) / mc_samples)
