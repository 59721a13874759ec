"""Problem definitions in sequence space.

A mildly ill-posed linear inverse problem is diagonalized by the SVD of the
forward operator: the unknown function is the coefficient sequence mu, the
operator acts by multiplication with singular values kappa_i ~ i^{-p}, and
the data are the noisy coefficients

    Y_i = kappa_i mu_i + Z_i / sqrt(n),   Z_i iid standard normal.

The prior puts independent N(0, lambda_i) mass on each coordinate with
lambda_i = tau^2 i^{-(1+2*alpha)}: alpha is the prior regularity, tau an
overall scale. Everything downstream (posterior, credible sets, rates)
consumes the two spec objects defined here plus a Truth and an Observation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

from .util import (
    DegenerateInputError,
    DimensionMismatchError,
    RegimeError,
    TruncationError,
    _CHUNK,
    rng_for,
    stable_sums,
)


class KappaKind(str, Enum):
    EXACT_POLYNOMIAL = "poly"
    VOLTERRA = "volterra"
    CUSTOM = "custom"


def _frozen_array(obj, name: str, values) -> None:
    """Set obj.name to a read-only view of values as a contiguous float
    array: DimensionMismatchError unless 1-d, ValueError unless finite.
    If values already is one, the value shares its buffer, and the caller's
    array stays writable; nothing is copied."""
    a = np.ascontiguousarray(values, dtype=float).view()
    if a.ndim != 1:
        raise DimensionMismatchError(f"{name} must be one-dimensional")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    a.flags.writeable = False
    object.__setattr__(obj, name, a)


@dataclass(frozen=True)
class PriorSpec:
    """Gaussian prior with polynomially decaying eigenvalues.

    Attributes:
        alpha: regularity exponent, > 0.
        tau: scale multiplier, > 0.
        trunc: number of retained coordinates, >= 1.
    """

    alpha: float
    tau: float
    trunc: int

    def __post_init__(self):
        if not (self.alpha > 0):
            raise ValueError("alpha must be positive")
        if not (self.tau > 0):
            raise ValueError("tau must be positive")
        if not math.isfinite(float(self.tau) * float(self.tau)):
            raise RegimeError(f"tau^2 overflows at tau={self.tau:g}")
        if int(self.trunc) < 1:
            raise ValueError("trunc must be a positive integer")
        object.__setattr__(self, "trunc", int(self.trunc))

    def indices(self) -> np.ndarray:
        return np.arange(1, self.trunc + 1, dtype=float)

    def eigenvalues(self) -> np.ndarray:
        """lambda_i = tau^2 * i^(-1-2*alpha), i = 1..trunc."""
        return self._eigenvalues_at(self.indices())

    def _eigenvalues_at(self, i: np.ndarray) -> np.ndarray:
        return self.tau ** 2 * i ** (-1.0 - 2.0 * self.alpha)


@dataclass(frozen=True)
class ForwardSpec:
    """Singular values of the forward map, decaying like i^(-p)."""

    p: float
    kind: KappaKind
    trunc: int
    custom_values: tuple = field(default=(), repr=False)

    def __post_init__(self):
        if self.p < 0:
            raise ValueError("p must be nonnegative")
        if int(self.trunc) < 1:
            raise ValueError("trunc must be a positive integer")
        object.__setattr__(self, "trunc", int(self.trunc))
        object.__setattr__(self, "kind", KappaKind(self.kind))
        if self.kind is KappaKind.CUSTOM:
            _frozen_array(self, "_custom", self.custom_values)
            if self._custom.size != self.trunc:
                raise DimensionMismatchError("custom kappa length != trunc")
            if not np.all(self._custom > 0):
                raise ValueError("custom kappa values must be positive")
            object.__setattr__(self, "custom_values",
                               tuple(float(v) for v in self._custom))
        elif self.custom_values:
            raise ValueError("custom_values only allowed for kind='custom'")

    @classmethod
    def polynomial(cls, p: float, trunc: int) -> "ForwardSpec":
        return cls(p=p, kind=KappaKind.EXACT_POLYNOMIAL, trunc=trunc)

    @classmethod
    def volterra(cls, trunc: int) -> "ForwardSpec":
        # kappa_i = 1/((i - 1/2) pi), the classical integration operator; p = 1.
        return cls(p=1.0, kind=KappaKind.VOLTERRA, trunc=trunc)

    @classmethod
    def custom(cls, values, p: float) -> "ForwardSpec":
        vals = tuple(float(v) for v in np.asarray(values, dtype=float))
        return cls(p=p, kind=KappaKind.CUSTOM, trunc=len(vals), custom_values=vals)

    def indices(self) -> np.ndarray:
        return np.arange(1, self.trunc + 1, dtype=float)

    def singular_values(self) -> np.ndarray:
        return self._singular_values_at(self.indices(), slice(None))

    def _singular_values_at(self, i: np.ndarray, sl: slice) -> np.ndarray:
        """kappa at the 1-based indices i, which are positions sl."""
        if self.kind is KappaKind.EXACT_POLYNOMIAL:
            return i ** (-self.p)
        if self.kind is KappaKind.VOLTERRA:
            return 1.0 / ((i - 0.5) * math.pi)
        return self._custom[sl]


@dataclass(frozen=True)
class Truth:
    """The true coefficient sequence mu, fixed and read-only. Its
    smoothness is the regime's beta, not a property of the stored values."""

    coeffs: np.ndarray

    def __post_init__(self):
        _frozen_array(self, "coeffs", self.coeffs)

    @property
    def trunc(self) -> int:
        return int(self.coeffs.size)


@dataclass(frozen=True)
class Observation:
    """Observed sequence at noise level 1/sqrt(n). n is real-valued."""

    n: float
    y: np.ndarray

    def __post_init__(self):
        if not (self.n > 0):
            raise ValueError("n must be positive")
        _frozen_array(self, "y", self.y)

    @property
    def trunc(self) -> int:
        return int(self.y.size)


def _index_blocks(size: int):
    """(slice, 1-based float indices) of each _CHUNK-aligned block of 0..size-1."""
    for lo in range(0, size, _CHUNK):
        hi = min(lo + _CHUNK, size)
        yield slice(lo, hi), np.arange(lo + 1, hi + 1, dtype=float)


def sobolev_norm(coeffs, s: float) -> float:
    """sqrt(sum_i coeffs_i^2 i^(2s)) over the stored range."""
    a = np.asarray(coeffs, dtype=float).ravel()
    if a.size == 0:
        return 0.0
    (sq,) = stable_sums(((a[sl] * a[sl] * i ** (2.0 * s),)
                         for sl, i in _index_blocks(a.size)), a.size)
    return math.sqrt(sq)


class SpectralTerms(NamedTuple):
    """The per-coordinate spectral terms of one block of coordinates.

    sl is the block's slice of the coordinate positions and i its 1-based
    indices. g = n lam kap^2 is the gain, denom = 1 + g, s = lam/denom the
    posterior spread and t = s * (g/denom) the sampling variance of the
    posterior mean. g/denom <= 1 exactly (IEEE division of x by y >= x
    cannot exceed 1), so t <= s holds term by term.
    """

    sl: slice
    i: np.ndarray
    lam: np.ndarray
    kap: np.ndarray
    g: np.ndarray
    denom: np.ndarray
    s: np.ndarray
    t: np.ndarray


def _spectral_blocks(prior: PriorSpec, fwd: ForwardSpec, n: float):
    """Iterator over the SpectralTerms of each _CHUNK-aligned block.

    Every spectral series and full-length array of the package is built
    from these blocks in one pass, so a consumer holds O(_CHUNK) temporaries
    rather than O(trunc) ones, and the blocks are util.stable_sum's chunks,
    so util.stable_sums over them matches stable_sum of the full arrays bit
    for bit. The arguments are checked here, before any block is formed: a
    truncation mismatch raises DimensionMismatchError and a non-finite or
    negative n ValueError. An infinite gain would turn g/(1+g) into nan, so
    a product that overflows at a finite n raises RegimeError from the
    block where it happens.
    """
    if prior.trunc != fwd.trunc:
        raise DimensionMismatchError("prior and forward truncation differ")
    if not (0.0 <= n < math.inf):
        raise ValueError("n must be finite and nonnegative")
    return _spectral_terms(prior, fwd, n)


def _spectral_terms(prior: PriorSpec, fwd: ForwardSpec, n: float):
    for sl, i in _index_blocks(prior.trunc):
        lam = prior._eigenvalues_at(i)
        kap = fwd._singular_values_at(i, sl)
        try:
            with np.errstate(over="raise"):
                g = n * lam * kap ** 2
        except FloatingPointError:
            raise RegimeError(
                f"gain n lambda_i kappa_i^2 overflows at n={n:g}") from None
        denom = 1.0 + g
        s = lam / denom
        yield SpectralTerms(sl, i, lam, kap, g, denom, s, s * (g / denom))


def gain(prior: PriorSpec, fwd: ForwardSpec, n: float) -> np.ndarray:
    """Per-coordinate signal-to-noise gain n * lambda_i * kappa_i^2.

    Raises as _spectral_blocks does: DimensionMismatchError, ValueError for
    a non-finite n, RegimeError when the product overflows.
    """
    blocks = _spectral_blocks(prior, fwd, n)
    out = np.empty(prior.trunc)
    for b in blocks:
        out[b.sl] = b.g
    return out


def generate_observation(seed, truth: Truth, fwd: ForwardSpec, n: float) -> Observation:
    """Draw Y = kappa * mu + Z/sqrt(n) reproducibly.

    Args:
        seed: integer master seed or a derived SeedSequence; the output is a
            pure function of (seed, truth, fwd, n).
        truth: coefficient sequence, length must match fwd.trunc.
        fwd: forward spec.
        n: inverse noise variance, > 0 (real-valued).
    """
    if truth.trunc != fwd.trunc:
        raise DimensionMismatchError("truth and forward truncation differ")
    if not (n > 0):
        raise ValueError("n must be positive")
    rng = rng_for(seed)
    z = rng.standard_normal(fwd.trunc)
    y = fwd.singular_values() * truth.coeffs + z / math.sqrt(n)
    return Observation(n=float(n), y=y)


def make_truth(kind: str, trunc: int, *, beta: float | None = None,
               eps: float | None = None) -> Truth:
    """Construct one of the stock truth sequences; Truth(coeffs) takes any
    other.

    kind "demo":   mu_i = i^(-3/2) sin(i); it reads neither beta nor eps.
        The default configs pair it with regime beta = 1, where membership is
        marginal (sum mu_i^2 i^2 grows like (log trunc)/2); that follows the
        source construction and the marginality is deliberate.
    kind "smooth": mu_i = i^(-1/2-beta-eps), a clean member of the beta-ball.
    """
    trunc = int(trunc)
    if trunc < 1:
        raise ValueError("trunc must be positive")
    i = np.arange(1, trunc + 1, dtype=float)
    if kind == "demo":
        if beta is not None or eps is not None:
            raise ValueError("demo truth reads neither beta nor eps")
        sin_i = np.sin(i)
        i **= -1.5  # in place: i is the result, one 8 * trunc byte array
        i *= sin_i
        return Truth(coeffs=i)
    if kind == "smooth":
        if beta is None or eps is None:
            raise ValueError("smooth truth needs beta and eps")
        if not (eps > 0):
            raise ValueError("eps must be positive")
        i **= -0.5 - beta - eps
        return Truth(coeffs=i)
    raise ValueError(f"unknown truth kind {kind!r}")


def extremal_truth_functional(l, beta: float, prior: PriorSpec,
                              fwd: ForwardSpec, n: float) -> Truth:
    """Unit-ball truth maximizing the posterior-mean bias of the functional l.

    The maximizer of |sum_i l_i mu_i / (1 + g_i)| over the beta-ball has
    coordinates proportional to i^(-2 beta) l_i / (1 + g_i); the result is
    normalized to unit Sobolev-beta norm.
    """
    lcoef = np.asarray(l, dtype=float).ravel()
    if lcoef.size != prior.trunc:
        raise DimensionMismatchError("functional length != trunc")
    if not np.any(lcoef != 0.0):
        raise DegenerateInputError("functional is identically zero")
    blocks = _spectral_blocks(prior, fwd, n)
    w = np.empty(prior.trunc)
    for b in blocks:
        w[b.sl] = b.i ** (-2.0 * beta) * lcoef[b.sl] / b.denom
    norm = sobolev_norm(w, beta)
    if norm == 0.0:
        raise DegenerateInputError("extremal direction vanished")
    w /= norm
    return Truth(coeffs=w)


def spike_truth_ball(prior: PriorSpec, fwd: ForwardSpec, n: float, beta: float,
                     target_bias_sq: float) -> Truth:
    """Single-coordinate truth whose squared posterior-mean bias hits a target.

    The spike sits at the critical index i_n = round((n tau^2)^(1/(1+2 alpha+2p)))
    (at 1 when beta >= 1 + 2 alpha + 2 p, where the first coordinate already
    is the hardest one), with magnitude solving mu^2/(1+g)^2 = target_bias_sq.
    """
    if not (target_bias_sq > 0):
        raise ValueError("target_bias_sq must be positive")
    if not (n > 0):
        raise ValueError("n must be positive")
    expo = 1.0 + 2.0 * prior.alpha + 2.0 * fwd.p
    if beta >= expo:
        idx = 1
    else:
        big_n = n * prior.tau ** 2
        if not math.isfinite(big_n):
            raise RegimeError(f"noise budget n tau^2 overflows at n={n:g}, "
                              f"tau={prior.tau:g}")
        idx = max(1, int(round(big_n ** (1.0 / expo))))
    if idx > prior.trunc:
        raise TruncationError(
            f"spike index {idx} beyond truncation {prior.trunc}",
            required_trunc=idx)
    g = next(b.g[idx - 1 - b.sl.start]
             for b in _spectral_blocks(prior, fwd, n) if b.sl.stop >= idx)
    coeffs = np.zeros(prior.trunc)
    coeffs[idx - 1] = math.sqrt(target_bias_sq) * (1.0 + g)
    return Truth(coeffs=coeffs)


MAX_TRUNC = 10_000_000  # largest truncation default_trunc will hand out
# default_trunc's floor and factor: the defaults of an auto trunc_policy too
TRUNC_FLOOR, TRUNC_FACTOR = 1000, 10.0


def default_trunc(n: float, alpha: float, p: float, tau: float = 1.0,
                  floor: int = TRUNC_FLOOR,
                  factor: float = TRUNC_FACTOR) -> int:
    """max(floor, ceil(factor * (n tau^2)^(1/(1+2 alpha+2p)))).

    Ten times the effective frequency keeps the truncated series tails
    negligible for the regimes used here; the floor keeps small-n runs honest.
    Raises TruncationError when the result exceeds MAX_TRUNC (required_trunc
    is the uncapped value) or is not finite (required_trunc is None).
    """
    if not (n > 0):
        raise ValueError("n must be positive")
    try:
        need = factor * (n * tau ** 2) ** (1.0 / (1.0 + 2.0 * alpha + 2.0 * p))
    except (OverflowError, ZeroDivisionError):
        need = math.inf
    if not math.isfinite(need):
        raise TruncationError(
            f"default truncation for n={n:g}, tau={tau:g}, alpha={alpha:g}, "
            f"p={p:g} is not finite", required_trunc=None)
    trunc = max(int(floor), int(math.ceil(need)))
    if trunc > MAX_TRUNC:
        raise TruncationError(
            f"default truncation exceeds the cap {MAX_TRUNC}: "
            f"{factor:g} (n tau^2)^(1/(1+2 alpha+2p)) = {need:.3e}, "
            f"floor {floor}", required_trunc=trunc)
    return trunc
