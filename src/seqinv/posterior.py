"""Conjugate posterior and its exact risk series.

With independent coordinates everything factorizes: coordinate i of the
posterior is Gaussian with

    mean     m_i = n lambda_i kappa_i Y_i / (1 + n lambda_i kappa_i^2)
    variance v_i = lambda_i / (1 + n lambda_i kappa_i^2).

Writing g_i = n lambda_i kappa_i^2 (the per-coordinate gain), the frequentist
behaviour of the posterior at a fixed truth is governed by three series:

    squared bias   sum_i mu_i^2 / (1+g_i)^2
    variance       sum_i lambda_i g_i / (1+g_i)^2
    spread         sum_i lambda_i / (1+g_i)

and linear functionals sum_i l_i mu_i get the analogous scalar quantities.
The spectral terms come from one model._spectral_blocks pass per call and
are shared by every series, so per-term orderings between them (variance
term <= spread term, coordinatewise) hold exactly in floating point, not
just in the limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ForwardSpec, Observation, PriorSpec, SpectralTerms, Truth, \
    _frozen_array, _spectral_blocks
from .util import DimensionMismatchError, rng_for, stable_sums


@dataclass(frozen=True)
class PosteriorSummary:
    """Coordinatewise posterior mean and variance."""

    mean: np.ndarray
    var: np.ndarray

    def __post_init__(self):
        _frozen_array(self, "mean", self.mean)
        _frozen_array(self, "var", self.var)
        if self.mean.shape != self.var.shape:
            raise DimensionMismatchError("mean and var differ in length")
        if np.any(self.var < 0):
            raise ValueError("negative posterior variance")

    @property
    def trunc(self) -> int:
        return int(self.mean.size)


@dataclass(frozen=True)
class RiskDecomposition:
    """Deterministic decomposition of posterior risk at a fixed truth.

    estimator_risk = sq_bias + variance is the mean squared error of the
    posterior mean; posterior_risk adds the spread (the expected posterior
    second moment around the truth).
    """

    sq_bias: float
    variance: float
    spread: float

    @property
    def estimator_risk(self) -> float:
        return self.sq_bias + self.variance

    @property
    def posterior_risk(self) -> float:
        return self.sq_bias + self.variance + self.spread


@dataclass(frozen=True)
class Functional:
    """Linear functional mu -> sum_i coeffs_i mu_i.

    Its decay, |coeffs_i| ~ i^(-q-1/2), is the regime's q, not a property of
    the stored values. The sum defining the functional need not converge
    absolutely on the prior's support for its posterior law to make sense:
    square-summability of coeffs_i^2 lambda_i is all the formulas use, and
    that always holds for a stored finite sequence.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        _frozen_array(self, "coeffs", self.coeffs)

    @property
    def trunc(self) -> int:
        return int(self.coeffs.size)


def coordinate_posterior(prior: PriorSpec, fwd: ForwardSpec,
                         obs: Observation) -> PosteriorSummary:
    """Exact conjugate update, coordinate by coordinate."""
    if not (prior.trunc == fwd.trunc == obs.trunc):
        raise DimensionMismatchError("prior, forward, observation lengths differ")
    blocks = _spectral_blocks(prior, fwd, obs.n)
    mean = np.empty(prior.trunc)
    var = np.empty(prior.trunc)
    for b in blocks:
        mean[b.sl] = obs.n * b.lam * b.kap * obs.y[b.sl] / b.denom
        var[b.sl] = b.s
    return PosteriorSummary(mean=mean, var=var)


def bias_coordinates(prior: PriorSpec, fwd: ForwardSpec, truth: Truth,
                     n: float) -> np.ndarray:
    """Noiseless posterior-mean error, coordinate by coordinate: -mu_i/(1+g_i)."""
    if truth.trunc != prior.trunc:
        raise DimensionMismatchError("truth and prior truncation differ")
    blocks = _spectral_blocks(prior, fwd, n)
    out = np.empty(prior.trunc)
    for b in blocks:
        out[b.sl] = -truth.coeffs[b.sl] / b.denom
    return out


def _risk_terms(b: SpectralTerms, mu: np.ndarray) -> tuple:
    """One block's terms of (sq_bias, variance, spread) at truth block mu."""
    bias = mu / b.denom
    return bias * bias, b.t, b.s


def risk_decomposition(prior: PriorSpec, fwd: ForwardSpec, truth: Truth,
                       n: float) -> RiskDecomposition:
    """Evaluate the three exact series at a fixed truth.

    n = 0 is allowed and gives the prior quantities: sq_bias = ||mu||^2,
    variance = 0, spread = sum_i lambda_i.
    """
    if truth.trunc != prior.trunc:
        raise DimensionMismatchError("truth and prior truncation differ")
    blocks = _spectral_blocks(prior, fwd, n)
    return RiskDecomposition(*stable_sums(
        (_risk_terms(b, truth.coeffs[b.sl]) for b in blocks), prior.trunc))


def _interval_terms(b: SpectralTerms, lcoef: np.ndarray, l_sq: np.ndarray,
                    mu: np.ndarray) -> tuple:
    """One block's terms of (s_n^2, t_n^2, -bias) at l = lcoef, l^2 = l_sq."""
    return l_sq * b.s, l_sq * b.t, lcoef * mu / b.denom


def functional_interval(prior: PriorSpec, fwd: ForwardSpec, l: Functional,
                        truth: Truth, n: float) -> tuple[float, float, float]:
    """(s_n, t_n, bias) of the functional's credible interval, in one pass.

    s_n^2  =  sum_i l_i^2 s_i                  (posterior variance)
    t_n^2  =  sum_i l_i^2 t_i                  (sampling variance of the
                                                plug-in mean sum_i l_i m_i)
    bias   = -sum_i l_i mu_i / (1+g_i)          (signed, at the truth)

    Each t-term is the matching s-term with t_i = s_i g_i/(1+g_i) <= s_i,
    so t_n <= s_n holds exactly in floating point.
    """
    if not (l.trunc == prior.trunc == truth.trunc):
        raise DimensionMismatchError("functional, prior, truth lengths differ")
    blocks = _spectral_blocks(prior, fwd, n)

    def terms():
        for b in blocks:
            lcoef = l.coeffs[b.sl]
            yield _interval_terms(b, lcoef, lcoef ** 2, truth.coeffs[b.sl])

    s_sq, t_sq, bias = stable_sums(terms(), prior.trunc)
    return math.sqrt(s_sq), math.sqrt(t_sq), -bias


def posterior_draws(seed, summary: PosteriorSummary, k: int) -> np.ndarray:
    """k independent coefficient draws from the posterior, shape (k, trunc)."""
    if k < 1:
        raise ValueError("k must be positive")
    rng = rng_for(seed)
    z = rng.standard_normal((int(k), summary.trunc))
    return summary.mean + z * np.sqrt(summary.var)
