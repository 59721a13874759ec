"""Exact law of a weighted noncentral chi-square, by Imhof's inversion.

Q = sum_j (sqrt(lam_j) Z_j + b_j)^2 with Z_j iid standard normal. Imhof
(Biometrika 48, 1961) writes

    P(Q > x) = 1/2 + (1/pi) int_0^inf sin(theta(u)) / (u rho(u)) du,
    theta(u) = 1/2 sum_j [atan(lam_j u) + b_j^2 u / (1 + lam_j^2 u^2)] - x u / 2,
    log rho(u) = 1/4 sum_j log(1 + lam_j^2 u^2)
                 + 1/2 sum_j b_j^2 lam_j u^2 / (1 + lam_j^2 u^2).

This is the benchmark's independent reference for the credible-ball radius
and coverage, which seqinv computes by Monte Carlo. It shares no code with
the package.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, optimize

_TAIL_LOG_RHO = 40.0   # integrand bound e^-40 / u at the cut-off


class WeightedChi2:
    def __init__(self, lam, b=None):
        lam = np.asarray(lam, dtype=float)
        b2 = np.zeros_like(lam) if b is None else np.asarray(b, float) ** 2
        self.scale = float(lam.max())
        self.lam = lam / self.scale
        self.b2 = b2 / self.scale
        self.mean = float(np.sum(self.lam) + np.sum(self.b2))
        self.sd = math.sqrt(float(2.0 * np.sum(self.lam ** 2)
                                  + 4.0 * np.sum(self.lam * self.b2)))
        self.cut = self._cutoff()

    def _log_rho(self, u):
        lu2 = (self.lam * u) ** 2
        return 0.25 * float(np.sum(np.log1p(lu2))) \
            + 0.5 * float(np.sum(self.b2 * self.lam * u * u / (1.0 + lu2)))

    def _cutoff(self) -> float:
        u = 1.0
        while self._log_rho(u) < _TAIL_LOG_RHO:
            u *= 2.0
        return u

    def _integrand(self, u, x):
        if u == 0.0:
            return 0.5 * (self.mean - x)
        lu = self.lam * u
        lu2 = lu * lu
        theta = 0.5 * float(np.sum(np.arctan(lu) + self.b2 * u / (1.0 + lu2))) \
            - 0.5 * x * u
        return math.sin(theta) / (u * math.exp(self._log_rho(u)))

    def sf(self, x: float) -> float:
        """P(Q > x)."""
        xs = x / self.scale
        # split at the oscillation period of the -x u / 2 phase term
        period = 4.0 * math.pi / max(xs, 1e-300)
        knots = np.unique(np.concatenate([
            [0.0, self.cut],
            np.arange(1, 1 + min(2000, int(self.cut / period))) * period]))
        knots = knots[knots <= self.cut]
        total = 0.0
        for lo, hi in zip(knots[:-1], knots[1:]):
            val, _ = integrate.quad(self._integrand, lo, hi, args=(xs,),
                                    epsabs=1e-14, epsrel=1e-12, limit=200)
            total += val
        return 0.5 + total / math.pi

    def cdf(self, x: float) -> float:
        return 1.0 - self.sf(x)

    def quantile(self, prob: float) -> float:
        """x with P(Q <= x) = prob."""
        lo = 0.0
        hi = (self.mean + 10.0 * self.sd) * self.scale
        while self.cdf(hi) < prob:
            hi *= 2.0
        return optimize.brentq(lambda x: self.cdf(x) - prob, lo, hi,
                               xtol=1e-14 * hi, rtol=1e-13)

    def density(self, x: float) -> float:
        h = 1e-4 * self.sd * self.scale
        return (self.cdf(x + h) - self.cdf(x - h)) / (2.0 * h)
