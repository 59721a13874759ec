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
from typing import NamedTuple

import numpy as np

from .model import ForwardSpec, Observation, PriorSpec, SpectralTerms, Truth, \
    _spectral_blocks
from .util import DimensionMismatchError, rng_for, stable_sum, stable_sums


@dataclass(frozen=True)
class PosteriorSummary:
    """Coordinatewise posterior mean and variance."""

    mean: np.ndarray
    var: np.ndarray
    n: float

    def __post_init__(self):
        m = np.ascontiguousarray(self.mean, dtype=float)
        v = np.ascontiguousarray(self.var, dtype=float)
        if m.shape != v.shape or m.ndim != 1:
            raise DimensionMismatchError("mean and var must be 1-d, same length")
        if np.any(v < 0):
            raise ValueError("negative posterior variance")
        m.flags.writeable = False
        v.flags.writeable = False
        object.__setattr__(self, "mean", m)
        object.__setattr__(self, "var", v)

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

    q declares the decay of the representer, |coeffs_i| ~ i^(-q-1/2) up to a
    slowly varying factor; sv_note optionally describes that factor (see
    rates.SlowlyVarying) or records a free-form bound. The sum defining the
    functional need not converge absolutely on the prior's support for the
    marginal below to make sense: square-summability of coeffs_i^2 lambda_i
    is all the formulas use, and that always holds for a stored finite
    sequence.
    """

    coeffs: np.ndarray
    q: float
    sv_note: object | None = None

    def __post_init__(self):
        a = np.ascontiguousarray(self.coeffs, dtype=float)
        if a.ndim != 1:
            raise DimensionMismatchError("coeffs must be one-dimensional")
        if not np.all(np.isfinite(a)):
            raise ValueError("coeffs contain non-finite entries")
        a.flags.writeable = False
        object.__setattr__(self, "coeffs", a)

    @property
    def trunc(self) -> int:
        return int(self.coeffs.size)


class FunctionalMarginal(NamedTuple):
    mean: float
    s_n_sq: float


class FunctionalAccuracy(NamedTuple):
    bias: float
    t_n_sq: float


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
    return PosteriorSummary(mean=mean, var=var, n=obs.n)


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


def functional_marginal(summary: PosteriorSummary, l: Functional) -> FunctionalMarginal:
    """Posterior law of the functional: N(sum l_i m_i, sum l_i^2 v_i)."""
    if l.trunc != summary.trunc:
        raise DimensionMismatchError("functional and posterior lengths differ")
    mean = stable_sum(l.coeffs * summary.mean)
    s_n_sq = stable_sum(l.coeffs ** 2 * summary.var)
    return FunctionalMarginal(mean=mean, s_n_sq=s_n_sq)


def functional_bias_var(prior: PriorSpec, fwd: ForwardSpec, truth: Truth,
                        l: Functional, n: float) -> FunctionalAccuracy:
    """Sampling bias and variance of the plug-in posterior-mean functional.

    bias   = -sum_i l_i mu_i / (1+g_i)          (signed)
    t_n^2  =  sum_i l_i^2 lambda_i g_i / (1+g_i)^2

    Each t-term is the matching spread term scaled by g/(1+g) <= 1, so the
    domination t_n^2 <= s_n^2 is exact per term.
    """
    if not (l.trunc == prior.trunc == truth.trunc):
        raise DimensionMismatchError("functional, prior, truth lengths differ")
    blocks = _spectral_blocks(prior, fwd, n)
    bias, t_n_sq = stable_sums(
        ((l.coeffs[b.sl] * truth.coeffs[b.sl] / b.denom,
          _functional_t_terms(b, l.coeffs[b.sl])) for b in blocks),
        prior.trunc)
    return FunctionalAccuracy(bias=-bias, t_n_sq=t_n_sq)


def _functional_t_terms(b: SpectralTerms, lcoef: np.ndarray) -> np.ndarray:
    """One block's terms of t_n^2, as (l^2 s) shrink."""
    return (lcoef ** 2 * b.s) * b.shrink


def posterior_draws(seed, summary: PosteriorSummary, k: int) -> np.ndarray:
    """k independent coefficient draws from the posterior, shape (k, trunc)."""
    if k < 1:
        raise ValueError("k must be positive")
    rng = rng_for(seed)
    z = rng.standard_normal((int(k), summary.trunc))
    return summary.mean + z * np.sqrt(summary.var)


def functional_sampling_sd(prior: PriorSpec, fwd: ForwardSpec, l: Functional,
                           n: float) -> float:
    """t_n alone, without needing a truth."""
    if l.trunc != prior.trunc:
        raise DimensionMismatchError("functional and prior lengths differ")
    blocks = _spectral_blocks(prior, fwd, n)
    (t_n_sq,) = stable_sums(((_functional_t_terms(b, l.coeffs[b.sl]),)
                             for b in blocks), prior.trunc)
    return math.sqrt(t_n_sq)
