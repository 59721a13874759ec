"""Concrete realization on [0, 1]: the integration operator.

(Kf)(x) = int_0^x f(s) ds has SVD kappa_i = 1/((i - 1/2) pi) with
unknown-side basis e_i(x) = sqrt(2) cos((i-1/2) pi x) and image-side basis
f_i(x) = sqrt(2) sin((i-1/2) pi x). Everything abstract upstream becomes a
picture here: curves on a grid, pointwise credible bands, and the replicate
panels of figure_demo, which takes plain values (harness.run_volterra_demo
reads them from an experiment config).

Bands are pointwise: at each grid point the band is the central credible
interval of the point-evaluation functional, not a simultaneous band.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .model import ForwardSpec, KappaKind, Observation, PriorSpec, \
    _frozen_array, generate_observation, make_truth
from .posterior import Functional, coordinate_posterior, posterior_draws
from .util import DimensionMismatchError, child_seed, ndtri, write_csv


def _check_unit_interval(x) -> np.ndarray:
    xs = np.asarray(x, dtype=float)
    if not np.all((xs >= 0.0) & (xs <= 1.0)):
        raise ValueError("grid points must lie in [0, 1]")
    return xs


def _e_matrix(stop: int, xs: np.ndarray, start: int = 0) -> np.ndarray:
    """Rows e_i(xs) for i = start+1, ..., stop."""
    i = np.arange(start + 1, stop + 1, dtype=float)
    return math.sqrt(2.0) * np.cos(np.outer(i - 0.5, xs) * math.pi)


_BLOCK_ELEMENTS = 1 << 20  # basis entries per block of the direct product


def _fold(c: np.ndarray, period: int) -> np.ndarray:
    """Sums of c[..., r] over the r in each residue class mod period."""
    trunc = c.shape[-1]
    full = trunc - trunc % period
    out = c[..., :full].reshape(c.shape[:-1] + (-1, period)).sum(axis=-2)
    out[..., :trunc - full] += c[..., full:]
    return out


def _cosine_sums(c: np.ndarray, xs: np.ndarray,
                 squared: bool = False) -> np.ndarray:
    """sum_i c_i e_i(x) on the grid xs, or sum_i c_i e_i(x)^2 when squared.

    c is (trunc,) or (rows, trunc), giving (grid,) or (rows, grid).
    On the uniform grid x_k = k/m, m = G - 1, cos((i - 1/2) pi x_k) depends
    on 2i - 1 only modulo 4m, and e_i^2 = 1 + cos((2i - 1) pi x) on 2i - 1
    modulo 2m. The coefficients are folded into those odd bins and one real
    FFT gives every grid value: O(trunc + G log G) time and memory. Any other
    grid takes _direct_sums.
    """
    m = xs.size - 1
    if m < 1 or not np.array_equal(xs, np.linspace(0.0, 1.0, xs.size)):
        return _direct_sums(c, xs, squared)
    period = m if squared else 2 * m
    bins = np.zeros(c.shape[:-1] + (2 * period,))
    bins[..., 1::2] = _fold(c, period)
    spectrum = np.fft.rfft(bins)[..., :m + 1].real
    if squared:
        return c.sum(axis=-1)[..., None] + spectrum
    return math.sqrt(2.0) * spectrum


def _direct_sums(c: np.ndarray, xs: np.ndarray, squared: bool) -> np.ndarray:
    """_cosine_sums on any grid: the product with the basis, built in blocks
    of coordinates so that memory stays O(block x grid)."""
    trunc = c.shape[-1]
    rows = max(1, _BLOCK_ELEMENTS // max(1, xs.size))
    out = np.zeros(c.shape[:-1] + xs.shape)
    for start in range(0, trunc, rows):
        stop = min(start + rows, trunc)
        mat = _e_matrix(stop, xs, start)
        if squared:
            mat *= mat
        out += c[..., start:stop] @ mat
    return out


def point_functional(x: float, trunc: int) -> Functional:
    """Point evaluation f -> f(x) through the cosine expansion.

    The representer coefficients sqrt(2) cos((i-1/2) pi x) do not decay:
    they are the regime's q = -1/2 with a bounded oscillating factor.
    ValueError for an x outside [0, 1] or nan.
    """
    xs = _check_unit_interval(np.asarray([x], dtype=float))
    coeffs = np.arange(0.5, int(trunc))  # i - 1/2 for i = 1..trunc
    coeffs *= math.pi
    coeffs *= xs[0]
    np.cos(coeffs, out=coeffs)
    coeffs *= math.sqrt(2.0)
    return Functional(coeffs=coeffs)


@dataclass(frozen=True)
class GridFunction:
    """A curve sampled on a strictly increasing grid, optionally with a band."""

    xs: np.ndarray
    values: np.ndarray
    band_lo: np.ndarray | None = None
    band_hi: np.ndarray | None = None

    def __post_init__(self):
        _frozen_array(self, "xs", _check_unit_interval(self.xs))
        if np.any(np.diff(self.xs) <= 0):
            raise ValueError("grid must be strictly increasing")
        _frozen_array(self, "values", self.values)
        if self.values.shape != self.xs.shape:
            raise DimensionMismatchError("values and grid lengths differ")
        if (self.band_lo is None) != (self.band_hi is None):
            raise ValueError("band_lo and band_hi must come together")
        if self.band_lo is not None:
            _frozen_array(self, "band_lo", self.band_lo)
            _frozen_array(self, "band_hi", self.band_hi)
            if self.band_lo.shape != self.xs.shape \
                    or self.band_hi.shape != self.xs.shape:
                raise DimensionMismatchError("band and grid lengths differ")
            if np.any(self.band_lo > self.band_hi):
                raise ValueError("band_lo must not exceed band_hi")


def synthesize(coeffs, xs) -> GridFunction:
    """Evaluate sum_i c_i e_i(x) on an increasing grid in [0, 1] (else
    ValueError); coeffs must be one-dimensional."""
    c = np.asarray(coeffs, dtype=float)
    if c.ndim != 1:
        raise DimensionMismatchError(
            f"coefficients must be one-dimensional, got shape {c.shape}")
    xs = np.asarray(xs, dtype=float)
    return GridFunction(xs=xs, values=_cosine_sums(c, xs))


_TAIL_REL_TOL = 1e-3


def credible_band(prior: PriorSpec, fwd: ForwardSpec, obs: Observation,
                  xs, gamma: float) -> GridFunction:
    """Posterior mean curve with a pointwise (1-gamma) credible band.

    At each x the posterior law of f(x) is N(sum m_i e_i(x), sum v_i e_i(x)^2);
    the band is mean -/+ z_{gamma/2} sd. A truncation check compares the
    dropped prior-variance tail against the retained band variance and warns
    when it is no longer negligible.
    """
    if fwd.kind is not KappaKind.VOLTERRA:
        raise ValueError("credible_band is defined for the integration operator")
    if not (0.0 < gamma < 1.0):
        raise ValueError("gamma must lie in (0, 1)")
    summary = coordinate_posterior(prior, fwd, obs)
    xs = np.asarray(xs, dtype=float)
    center, lo, hi = _band(prior, summary, xs, gamma)
    return GridFunction(xs=xs, values=center, band_lo=lo, band_hi=hi)


def _band(prior: PriorSpec, summary, xs: np.ndarray, gamma: float):
    """(center, lo, hi) of the pointwise band on the grid xs."""
    center = _cosine_sums(summary.mean, xs)
    # Every e_i vanishes at x = 1, where the folded sum cancels to rounding
    # noise whose square root is not negligible; the variance is 0 there.
    var_curve = np.maximum(_cosine_sums(summary.var, xs, squared=True), 0.0)
    var_curve[xs == 1.0] = 0.0
    # dropped coordinates contribute at most their prior variance, and the
    # basis is bounded by sqrt(2): tail <= 2 * tau^2 T^(-2 alpha) / (2 alpha).
    # Compare against the median band variance: the minimum over a grid
    # touching the endpoint is 0.
    tail = 2.0 * prior.tau ** 2 * prior.trunc ** (-2.0 * prior.alpha) \
        / (2.0 * prior.alpha)
    floor = float(np.median(var_curve))
    if floor > 0 and tail / floor > _TAIL_REL_TOL:
        warnings.warn(
            f"truncated prior-variance tail is {tail / floor:.2e} of the "
            f"band variance (tolerance {_TAIL_REL_TOL:.0e}); increase trunc "
            "for quantitative band widths")
    half = -ndtri(gamma / 2.0) * np.sqrt(var_curve)
    return center, center - half, center + half


def figure_demo(out_dir, *, n: float, alphas, replicates: int,
                master_seed: int, grid_points: int, draws: int, trunc: int,
                gamma: float, tau: float) -> list[Path]:
    """Replicate-by-prior panel data for the integration-operator showcase.

    One observation at n per replicate; each prior smoothness in `alphas`
    (scale tau, `trunc` coordinates) is applied to the same data. Writes one
    CSV per (replicate, alpha) panel into out_dir, with the truth curve, the
    posterior mean, the pointwise (1-gamma) band and `draws` posterior
    sample curves on `grid_points` uniform points of [0, 1], and returns the
    paths. harness.run_volterra_demo reads these values from a config.
    """
    xs = np.linspace(0.0, 1.0, grid_points)
    fwd = ForwardSpec.volterra(trunc)
    truth = make_truth("demo", trunc)
    truth_curve = _cosine_sums(truth.coeffs, xs)

    draw_cols = [f"draw_{k + 1}" for k in range(draws)]
    columns = ["panel", "x", "truth", "post_mean", "band_lo", "band_hi"] + draw_cols
    paths: list[Path] = []
    for rep in range(replicates):
        obs = generate_observation(child_seed(master_seed, rep), truth, fwd, n)
        for ai, alpha in enumerate(alphas):
            prior = PriorSpec(alpha=alpha, tau=tau, trunc=trunc)
            summary = coordinate_posterior(prior, fwd, obs)
            center, lo, hi = _band(prior, summary, xs, gamma)
            curves = _cosine_sums(posterior_draws(
                child_seed(master_seed, rep, ai + 1), summary, draws),
                xs) if draws else []  # (draws, grid)
            block = np.column_stack([xs, truth_curve, center, lo, hi, *curves])
            panel = f"r{rep + 1}_a{alpha:g}"
            path = Path(out_dir) / f"panel_{panel}.csv"
            write_csv(path, columns, block, lead=(panel,))
            paths.append(path)
    return paths
