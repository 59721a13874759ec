"""Closed-form rates, tau scalings, and order checks for the key series.

Everything here lives on the idealized polynomial scale: prior eigenvalues
tau^2 i^(-1-2 alpha), singular values i^(-p), noise budget N = n tau^2, and
effective frequency rho = N^(1/(1+2 alpha+2p)). The workhorse bound is for

    sum_i xi_i^2 i^(-t) / (1 + N i^(-u))^v

with xi_i = c i^(-q-1/2): the sum is of exact order N^(-min((t+2q)/u, v)),
with a logarithmic factor on the boundary. It is evaluated exactly, as a
short head plus a binomial series of scaled Hurwitz zeta values for the
tail; a head too long to sum raises TruncationError before any term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .util import RegimeError, TruncationError

_EULER_GAMMA = float(np.euler_gamma)
_EVAL_CHUNK = 1 << 16      # terms per array of a head sum (0.5 MB each)
_HARMONIC_DIRECT = 64      # H_m is summed term by term up to this m
_ZETA_REL_TOL = 1e-16
_MAX_HEAD = 40_000_000  # longest series head summed term by term
# B_2k / (2k)! for k = 1..8, the Euler-Maclaurin corrections of _scaled_zeta
_EM_COEFS = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160,
             -691 / 1307674368000, 1 / 74724249600,
             -3617 / 10670622842880000)


@dataclass(frozen=True)
class SlowlyVarying:
    """S(x) = (log(x+1))^log_power; log_power = 0 is the unit factor."""

    log_power: float = 0.0

    def __call__(self, x):
        return np.log(np.asarray(x, dtype=float) + 1.0) ** self.log_power


@dataclass(frozen=True)
class SequenceFamily:
    """xi_i = scale * i^(-q-1/2)."""

    q: float
    scale: float = 1.0


@dataclass(frozen=True)
class RegimeParams:
    """Smoothness/scaling exponents defining an asymptotic regime.

    tau_exponent scales the prior multiplier with the noise level,
    tau = n^tau_exponent; the noise budget n tau^2 must grow, so
    1 + 2 tau_exponent > 0 is required.
    """

    alpha: float
    beta: float
    p: float
    q: float | None = None
    tau_exponent: float = 0.0

    def __post_init__(self):
        if not (self.alpha > 0):
            raise ValueError("alpha must be positive")
        if not (self.beta > 0):
            raise ValueError("beta must be positive")
        if self.p < 0:
            raise ValueError("p must be nonnegative")
        if self.q is not None and not (self.q > -self.beta):
            raise ValueError("q must exceed -beta")
        if not (1.0 + 2.0 * self.tau_exponent > 0):
            raise ValueError("need 1 + 2*tau_exponent > 0")

    @property
    def resolution_exponent(self) -> float:
        """1 + 2 alpha + 2 p, the exponent resolving the bias/variance balance."""
        return 1.0 + 2.0 * self.alpha + 2.0 * self.p

    def tau(self, n: float) -> float:
        try:
            return float(n) ** self.tau_exponent
        except OverflowError:
            raise RegimeError(f"tau = n^{self.tau_exponent:g} overflows at "
                              f"n={float(n):g}") from None

    def noise_budget(self, n: float) -> float:
        tau = self.tau(n)
        return float(n) * tau * tau

    def _require_budget(self, n: float) -> float:
        big_n = self.noise_budget(n)
        if not (big_n > 1.0):
            raise RegimeError("noise budget n*tau^2 must exceed 1")
        return big_n


class RateTerms(NamedTuple):
    term1: float  # bias-driven part
    term2: float  # variance-driven part


class FunctionalRateTerms(NamedTuple):
    term1: float
    term2: float
    gamma_n: float
    delta_n: float


class SeriesDiagnostics(NamedTuple):
    """How series_lemma_sum_auto reached its value."""

    head_terms: int         # terms summed one by one
    zeta_terms: int         # Hurwitz zeta terms of the tail expansion
    remainder_bound: float  # bound on |exact sum - value|


# --- full-sequence contraction ---------------------------------------------

def contraction_terms(rp: RegimeParams, n: float) -> RateTerms:
    """The two summands of the contraction rate at a given n."""
    big_n = rp._require_budget(n)
    u = rp.resolution_exponent
    term1 = big_n ** (-min(rp.beta / u, 1.0))
    term2 = rp.tau(n) * big_n ** (-rp.alpha / u)
    return RateTerms(term1, term2)


def contraction_rate(rp: RegimeParams, n: float) -> float:
    """epsilon_n = (n tau^2)^(-(beta/(1+2a+2p)) ^ 1) + tau (n tau^2)^(-a/(1+2a+2p))."""
    t1, t2 = contraction_terms(rp, n)
    return t1 + t2


def optimal_tau_exponent(rp: RegimeParams) -> float | None:
    """Scaling exponent minimizing the contraction rate.

    Returns (alpha - beta)/(1 + 2 beta + 2 p) while the truth's smoothness
    can still be matched (beta <= 1 + 2 alpha + 2 p); above that saturation
    point no scaling recovers the optimal rate and None is returned.
    """
    if rp.beta > rp.resolution_exponent:
        return None
    return (rp.alpha - rp.beta) / (1.0 + 2.0 * rp.beta + 2.0 * rp.p)


# --- linear functionals -----------------------------------------------------

def _harmonic(m: int) -> float:
    """H_m = sum_{i<=m} 1/i, m >= 1.

    Summed directly up to _HARMONIC_DIRECT; above, H_m = psi(m) + 1/m + gamma
    by DLMF 5.11.2, log m + gamma + 1/(2m) - sum_k B_2k / (2k m^2k), whose
    first omitted term (k = 4) is below 1/(240 m^8) < 2e-17. Both add the
    rounded terms exactly (fsum), so the result is within about 1.5 ulp.
    """
    if m <= _HARMONIC_DIRECT:
        return math.fsum([1.0 / i for i in range(1, m + 1)])
    inv_sq = 1.0 / (float(m) * m)
    return math.fsum([math.log(m), _EULER_GAMMA, 0.5 / m,
                      -inv_sq * (1 / 12 - inv_sq * (1 / 120 - inv_sq / 252))])


def _log_power_partial_harmonic(m: int, log_power: float) -> float:
    """sum_{i<=m} (log(i+1))^(2a) / i; the harmonic number H_m for a = 0.
    Summed term by term for a != 0, so m > _MAX_HEAD is a TruncationError."""
    if m < 1:
        return 0.0
    if log_power == 0.0:
        return _harmonic(m)
    if m > _MAX_HEAD:
        raise TruncationError(
            f"log-power harmonic sum needs {m} terms, above the cap "
            f"{_MAX_HEAD}", required_trunc=m)
    partials = []
    for start in range(1, m + 1, _EVAL_CHUNK):
        i = np.arange(start, min(start + _EVAL_CHUNK, m + 1), dtype=float)
        partials.append(float(np.sum(np.log(i + 1.0) ** (2.0 * log_power) / i)))
    return math.fsum(partials)


def _squared_corrections(rp: RegimeParams, rho: float,
                         sv: SlowlyVarying) -> tuple[float, float]:
    """(gamma^2, delta^2) at effective frequency rho: the trichotomy."""
    def correction(key: float, threshold: float) -> float:
        if key < threshold:
            return float(sv(rho)) ** 2
        if key == threshold:
            return _log_power_partial_harmonic(int(math.floor(rho)), sv.log_power)
        return 1.0

    return (correction(rp.beta + rp.q, rp.resolution_exponent),
            correction(rp.q, rp.p))


def slowly_varying_corrections(rp: RegimeParams, n: float,
                               sv: SlowlyVarying | None = None
                               ) -> tuple[float, float]:
    """(gamma_n, delta_n): slowly varying corrections to the functional rate.

    gamma_n^2 is S(rho_n)^2, sum_{i<=rho_n} S(i)^2/i, or 1 according to
    beta + q <, =, > 1 + 2 alpha + 2 p; delta_n^2 follows the same trichotomy
    with q against p.
    """
    if rp.q is None:
        raise RegimeError("functional corrections need q")
    big_n = rp._require_budget(n)
    rho = big_n ** (1.0 / rp.resolution_exponent)
    gamma_sq, delta_sq = _squared_corrections(rp, rho, sv or SlowlyVarying())
    return math.sqrt(gamma_sq), math.sqrt(delta_sq)


def _functional_terms(rp: RegimeParams, big_n: float, tau: float,
                      gamma_n: float, delta_n: float) -> tuple[float, float]:
    """The functional rate's two terms at budget big_n = n tau^2."""
    u = rp.resolution_exponent
    e1 = min((rp.beta + rp.q) / u, 1.0)
    e2 = min((0.5 + rp.alpha + rp.q) / u, 0.5)
    return big_n ** (-e1) * gamma_n, tau * big_n ** (-e2) * delta_n


def functional_rate_terms(rp: RegimeParams, n: float,
                          sv: SlowlyVarying | None = None) -> FunctionalRateTerms:
    if rp.q is None:
        raise RegimeError("functional rate needs q")
    big_n = rp._require_budget(n)
    gamma_n, delta_n = slowly_varying_corrections(rp, n, sv)
    return FunctionalRateTerms(
        *_functional_terms(rp, big_n, rp.tau(n), gamma_n, delta_n),
        gamma_n, delta_n)


def optimal_tau_functional(rp: RegimeParams) -> float:
    """Scaling exponent balancing the functional rate's two terms.

    Defined for q < p (smoother-than-critical representers need no scaling
    and the balance degenerates). With beta~ = min(beta, 1+2 alpha+2p - q),
    the exponent is (1/2 + alpha - beta~)/(2 beta~ + 2 p).
    """
    if rp.q is None:
        raise RegimeError("functional scaling needs q")
    if not (rp.q < rp.p):
        raise RegimeError("tau scaling for functionals requires q < p")
    beta_eff = min(rp.beta, rp.resolution_exponent - rp.q)
    return (0.5 + rp.alpha - beta_eff) / (2.0 * beta_eff + 2.0 * rp.p)


def functional_tau_balance_factor(rp: RegimeParams, n: float,
                                  sv: SlowlyVarying | None = None) -> float:
    """Multiplier c on tau = c * n^optimal_tau_functional equating both terms.

    The slowly varying pieces make the balancing constant implicit; this
    solves it numerically at the given n. Raises RegimeError when the two
    terms never cross over a wide bracket.
    """
    e_star = optimal_tau_functional(rp)
    sv = sv or SlowlyVarying()

    def gap(log_c: float) -> float:
        tau = math.exp(log_c) * float(n) ** e_star
        big_n = n * tau * tau
        if big_n <= 1.0:
            return math.inf
        gamma_sq, delta_sq = _squared_corrections(
            rp, big_n ** (1.0 / rp.resolution_exponent), sv)
        t1, t2 = _functional_terms(rp, big_n, tau, math.sqrt(gamma_sq),
                                   math.sqrt(delta_sq))
        return math.log(t1) - math.log(t2)

    lo, hi = -18.0, 18.0
    glo, ghi = gap(lo), gap(hi)
    if not (math.isfinite(ghi)) or glo == ghi or (glo > 0) == (ghi > 0):
        raise RegimeError("rate terms do not balance at this n")
    return math.exp(_bracketed_root(gap, lo, hi, glo, ghi, 1e-12))


def _bracketed_root(f, a: float, b: float, fa: float, fb: float,
                    xtol: float) -> float:
    """A root of f in [a, b], where fa = f(a) and fb = f(b) differ in sign,
    to within xtol.

    Each step takes the secant through the bracket ends (regula falsi) and
    keeps the part of the bracket where the sign changes; an end kept twice
    in a row has its value halved (the Illinois rule), so that both ends
    close in, superlinearly. The midpoint replaces the secant point where
    that is not strictly inside the bracket (an end value is infinite, or
    the two round to the same line) and after three steps that did not
    halve the bracket between them (a flat or strongly convex f), so the
    search takes at most four times bisection's steps. Stops at an exact
    zero or once the bracket is at most xtol wide, and returns its midpoint.
    """
    kept = 0          # +1 after a step that moved a, -1 after one that moved b
    halved = b - a    # the width at the last halving
    slow = 0          # steps since then
    while b - a > xtol:
        x = b - fb * (b - a) / (fb - fa)
        if slow == 3 or not a < x < b:
            x = 0.5 * (a + b)
        fx = f(x)
        if fx == 0.0:
            return x
        if (fx > 0.0) == (fa > 0.0):
            a, fa = x, fx
            if kept == 1:
                fb *= 0.5
            kept = 1
        else:
            b, fb = x, fx
            if kept == -1:
                fa *= 0.5
            kept = -1
        slow += 1
        if b - a <= 0.5 * halved:
            halved, slow = b - a, 0
    return 0.5 * (a + b)


# --- the lemma series --------------------------------------------------------

def _head_sum(q: float, t: float, u: float, v: float, N: float,
              stop: int) -> float:
    """sum_{i<=stop} i^(-2q-1-t) / (1 + N i^(-u))^v, chunked."""
    partials = []
    for start in range(1, stop + 1, _EVAL_CHUNK):
        i = np.arange(start, min(start + _EVAL_CHUNK, stop + 1), dtype=float)
        xi = i ** (-q - 0.5)
        terms = xi * xi * i ** (-t)
        if v != 0.0 and N != 0.0:
            terms = terms / (1.0 + N * i ** (-u)) ** v
        partials.append(float(terms.sum()))
    return math.fsum(partials)


def _scaled_zeta(s: float, a: float) -> float:
    """Z(s, a) = a^s zeta(s, a) = sum_{j>=0} (1 + j/a)^(-s), s > 1, a >= 1.

    Z lies in [1, 1 + a/(s-1)], so it is finite where zeta(s, a) underflows;
    Z(s, 1) is the Riemann zeta(s). The first M = max(0, ceil(2(s+16) - a))
    terms f_j are summed directly, each as exp(-s log1p(j/a)) in plain
    floats, and the rest is (b/a)^(-s) sum_j (1 + j/b)^(-s), b = a + M, by
    Euler-Maclaurin with eight Bernoulli corrections (DLMF 2.10.1; F.
    Johansson, Numer. Algorithms 69, 2015). (1 + x/b)^(-s) is completely
    monotone, so the error is below the first omitted correction, which
    b >= 2(s+16) holds under 1e-19 of the sum. The direct sum stops early
    at the first j with (a + j) f_j <= (s - 1) 2^-60: the terms after it add
    at most the integral of f from j on, (a + j) f_j / (s - 1), which is
    below 1e-18 of Z >= 1. So at large s only the few terms above that are
    summed, and nothing overflows near s = 1.
    """
    m = max(0, math.ceil(2.0 * (s + 16.0) - a))
    negligible = (s - 1.0) * 2.0 ** -60
    terms = []
    for j in range(m):
        term = math.exp(-s * math.log1p(j / a))
        terms.append(term)
        if (a + j) * term <= negligible:
            return math.fsum(terms)
    direct = math.fsum(terms)
    b = a + m
    tail, rise = b / (s - 1.0) + 0.5, s / b  # rise = (s)_(2k-1) / b^(2k-1)
    for k, coef in enumerate(_EM_COEFS, start=1):
        tail += coef * rise
        rise *= (s + 2.0 * k - 1.0) * (s + 2.0 * k) / (b * b)
    return direct + math.exp(-s * math.log1p(m / a)) * tail


def series_lemma_sum_auto(fam: SequenceFamily, t: float, u: float, v: float,
                          N: float, *, full_output: bool = False):
    """The full series sum_i xi_i^2 i^(-t) / (1 + N i^(-u))^v, exact to ~1e-16.

    Each term is c^2 i^(-s) (1 + N i^(-u))^(-v) with s = t + 2q + 1. The
    head i <= K is summed directly, K + 1 being the first index with
    x_i = N i^(-u) <= 1/(4 max(1, v)); TruncationError is raised before any
    term is summed when K would exceed 4e7. Past K the binomial series of
    (1 + x_i)^(-v) turns the tail into sum_k binom(-v, k) N^k zeta(s+ku, K+1)
    (Hurwitz zeta, DLMF 25.11.1), each term evaluated as
    (K+1)^(-s) binom(-v, k) x_(K+1)^k Z(s+ku, K+1) (see _scaled_zeta), so no
    factor overflows or underflows. Consecutive terms shrink by at most
    r = x_(K+1) max(1, (v+k)/(k+1)) <= 1/4, so |term_k| r/(1-r) bounds the
    remainder; the absolute terms add up to at most e^(1/2) times the tail,
    so the alternating signs cancel no digits. With full_output the result
    is (value, SeriesDiagnostics).
    """
    if not (u > 0):
        raise ValueError("u must be positive")
    if v < 0:
        raise ValueError("v must be nonnegative")
    if not (0.0 <= N < math.inf):
        raise ValueError("N must be finite and nonnegative")
    s_exp = t + 2.0 * fam.q
    if s_exp <= 0:
        raise TruncationError(
            "series tail is not summable (t + 2q <= 0)", required_trunc=None)
    s = s_exp + 1.0
    sc2 = fam.scale * fam.scale
    if v == 0.0 or N == 0.0:
        value, diag = sc2 * _scaled_zeta(s, 1.0), SeriesDiagnostics(0, 1, 0.0)
        return (value, diag) if full_output else value

    x_max = 0.25 / max(1.0, v)
    log_first = (math.log(N) - math.log(x_max)) / u
    if log_first > math.log(_MAX_HEAD + 1.0):
        needed = math.ceil(math.exp(log_first)) - 1 if log_first < 700 else None
        raise TruncationError(
            f"series head of about 1e{log_first / math.log(10.0):.1f} terms "
            f"exceeds cap {_MAX_HEAD}", required_trunc=needed)
    first = max(1, math.ceil(math.exp(log_first)))
    head = _head_sum(fam.q, t, u, v, N, first - 1)

    x0 = math.exp(math.log(N) - u * math.log(first))
    unit = first ** -s  # 0.0 only where the whole tail is below 1e-300
    coef = 1.0  # binom(-v, k) x0^k
    terms, total, k = [head], head, 0
    while True:
        term = unit * coef * _scaled_zeta(s + k * u, first)
        terms.append(term)
        total += term
        ratio = x0 * max(1.0, (v + k) / (k + 1.0))
        bound = abs(term) * ratio / (1.0 - ratio)
        k += 1
        if bound <= _ZETA_REL_TOL * total:
            break
        coef *= -x0 * (v + k - 1.0) / k
    value = sc2 * math.fsum(terms)
    diag = SeriesDiagnostics(first - 1, k, sc2 * bound)
    return (value, diag) if full_output else value


def series_order_exponent(q: float, t: float, u: float, v: float) -> float:
    """min((t+2q)/u, v): the decay order of the series in N."""
    return min((t + 2.0 * q) / u, v)


def series_limit_value(fam: SequenceFamily, t: float, u: float,
                       v: float) -> float:
    """lim_N N^v * sum: equals sum_i xi_i^2 i^(u v - t) on the v-branch.

    Only meaningful when (t + 2q)/u > v; the reduced series must itself be
    summable (t + 2q > u v).
    """
    return series_lemma_sum_auto(fam, t - u * v, u, 0.0, 0.0)
