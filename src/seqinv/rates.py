"""Closed-form rates, tau scalings, and order checks for the key series.

Everything here lives on the idealized polynomial scale: prior eigenvalues
tau^2 i^(-1-2 alpha), singular values i^(-p), noise budget N = n tau^2, and
effective frequency rho = N^(1/(1+2 alpha+2p)). The workhorse bound is for

    sum_i xi_i^2 i^(-t) / (1 + N i^(-u))^v

with xi_i = i^(-q-1/2) S(i) for a slowly varying S: the sum is of exact
order N^(-min((t+2q)/u, v)) (S == 1), with a logarithmic factor on the
boundary. For S == 1 the sum is evaluated exactly: a short head plus a
binomial series of Hurwitz zeta values for the tail. Otherwise truncated
evaluation is guarded by an integral tail bound, and an operation that would
return a visibly biased sum raises instead, naming the truncation that would
have sufficed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import special

from .util import RegimeError, TruncationError

_EULER_GAMMA = float(np.euler_gamma)
_EVAL_CHUNK = 1_000_000
_ZETA_REL_TOL = 1e-16
_TINY = float(np.finfo(float).tiny)


@dataclass(frozen=True)
class SlowlyVarying:
    """S(x) = (log(x+1))^log_power; log_power = 0 is the unit factor."""

    log_power: float = 0.0

    def __call__(self, x):
        return np.log(np.asarray(x, dtype=float) + 1.0) ** self.log_power

    @property
    def is_unit(self) -> bool:
        return self.log_power == 0.0


@dataclass(frozen=True)
class SequenceFamily:
    """xi_i = scale * i^(-q-1/2) * (log(i+1))^log_power."""

    q: float
    log_power: float = 0.0
    scale: float = 1.0

    def __call__(self, idx):
        i = np.asarray(idx, dtype=float)
        out = self.scale * i ** (-self.q - 0.5)
        if self.log_power != 0.0:
            out = out * np.log(i + 1.0) ** self.log_power
        return out


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

    def effective_frequency(self, n: float) -> float:
        return self.noise_budget(n) ** (1.0 / self.resolution_exponent)

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

    method: str             # "hurwitz" (exact) or "truncated" (tail-guarded)
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

def _log_power_partial_harmonic(m: int, log_power: float) -> float:
    """sum_{i<=m} (log(i+1))^(2a) / i, exactly for a = 0 via digamma."""
    if m < 1:
        return 0.0
    if log_power == 0.0:
        return float(special.digamma(m + 1.0)) + _EULER_GAMMA
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


def functional_rate_terms(rp: RegimeParams, n: float,
                          sv: SlowlyVarying | None = None) -> FunctionalRateTerms:
    if rp.q is None:
        raise RegimeError("functional rate needs q")
    big_n = rp._require_budget(n)
    u = rp.resolution_exponent
    gamma_n, delta_n = slowly_varying_corrections(rp, n, sv)
    e1 = min((rp.beta + rp.q) / u, 1.0)
    e2 = min((0.5 + rp.alpha + rp.q) / u, 0.5)
    term1 = big_n ** (-e1) * gamma_n
    term2 = rp.tau(n) * big_n ** (-e2) * delta_n
    return FunctionalRateTerms(term1, term2, gamma_n, delta_n)


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
    u = rp.resolution_exponent
    e1 = min((rp.beta + rp.q) / u, 1.0)
    e2 = min((0.5 + rp.alpha + rp.q) / u, 0.5)

    def gap(log_c: float) -> float:
        tau = math.exp(log_c) * float(n) ** e_star
        big_n = n * tau * tau
        if big_n <= 1.0:
            return math.inf
        gamma_sq, delta_sq = _squared_corrections(rp, big_n ** (1.0 / u), sv)
        t1 = big_n ** (-e1) * math.sqrt(gamma_sq)
        t2 = tau * big_n ** (-e2) * math.sqrt(delta_sq)
        return math.log(t1) - math.log(t2)

    lo, hi = -18.0, 18.0
    glo, ghi = gap(lo), gap(hi)
    if not (math.isfinite(ghi)) or glo == ghi or (glo > 0) == (ghi > 0):
        raise RegimeError("rate terms do not balance at this n")
    from scipy import optimize
    root = optimize.brentq(gap, lo, hi, xtol=1e-12)
    return math.exp(root)


# --- truncated series with tail guards -------------------------------------

def _resolve_tail(xi, tail_q, tail_log_power, tail_scale):
    if isinstance(xi, SequenceFamily):
        return xi.q, xi.log_power, xi.scale
    if tail_q is None:
        raise ValueError("tail_q is required unless xi is a SequenceFamily")
    return float(tail_q), float(tail_log_power or 0.0), float(tail_scale or 1.0)


def _xi_values(xi, i: np.ndarray) -> np.ndarray:
    if isinstance(xi, (SequenceFamily,)) or callable(xi):
        return np.asarray(xi(i), dtype=float)
    arr = np.asarray(xi, dtype=float)
    lo = int(i[0]) - 1
    hi = int(i[-1])
    if hi > arr.size:
        raise TruncationError("xi array shorter than requested truncation",
                              required_trunc=None)
    return arr[lo:hi]


def _tail_bound(q: float, lp: float, sc: float, t: float, trunc: int) -> float:
    """Integral bound on sum_{i>trunc} xi_i^2 i^(-t) (denominator dropped)."""
    s_exp = t + 2.0 * q
    log_t = math.log(trunc + 1.0)
    if lp > 0:
        # the x2 slack covers the growing log factor once log(T) >= 4 lp/s.
        if log_t < 4.0 * lp / s_exp:
            return math.inf
        slack = 2.0
    else:
        slack = 1.0
    return sc * sc * slack * log_t ** (2.0 * lp) * trunc ** (-s_exp) / s_exp


def _required_trunc(q: float, lp: float, sc: float, t: float,
                    budget: float) -> int:
    s_exp = t + 2.0 * q
    base = (sc * sc * 2.0 / (s_exp * budget)) ** (1.0 / s_exp)
    if lp > 0 and base > 1.0:
        base *= math.log(base + 1.0) ** (2.0 * lp / s_exp)
    return int(math.ceil(1.2 * max(base, 10.0)))


def _refuse_unreachable(fam: SequenceFamily, t: float, u: float, v: float,
                        N: float, max_trunc: int, rel_tail_tol: float) -> None:
    """Raise TruncationError when no truncation up to max_trunc can pass.

    fam is the series' envelope (xi itself for a SequenceFamily).
    series_lemma_sum needs the tail bound at its truncation to be at most
    rel_tail_tol of the head. Every term of the series is at most
    sc^2 L i^(-s-1) min(1, N^(-v) i^(uv)), s = t + 2q, with L the largest
    (log(i+1))^(2 log_power) on [1, max_trunc]. The sum of i^(-s-1) is at
    most zeta(s+1); that of i^e, e = uv - s - 1, over i <= T is at most
    (T+1)^(e+1)/(e+1) for e >= 0 and 1 + int_1^T x^e dx for e < 0. When the
    tail bound at max_trunc exceeds rel_tail_tol of that bound on every head,
    it does so at each smaller truncation too; required_trunc is then the
    first doubling of max_trunc whose tail bound would not.
    """
    q, lp, sc = fam.q, fam.log_power, fam.scale
    s_exp = t + 2.0 * q
    if not (s_exp > 0 and sc != 0.0 and rel_tail_tol > 0.0
            and max_trunc >= 1):
        return
    log_head = math.log(special.zeta(s_exp + 1.0))
    if v != 0.0 and N != 0.0:
        e = u * v - s_exp - 1.0
        if e >= 0.0:
            log_p = (e + 1.0) * math.log(max_trunc + 1.0) - math.log(e + 1.0)
        elif e == -1.0:
            log_p = math.log1p(math.log(max_trunc))
        else:
            log_p = math.log1p(math.expm1((e + 1.0) * math.log(max_trunc))
                               / (e + 1.0))
        log_head = min(log_head, log_p - v * math.log(N))
    log_head += 2.0 * math.log(abs(sc)) + max(
        2.0 * lp * math.log(math.log(k + 1.0)) for k in (1, max_trunc))
    log_budget = math.log(rel_tail_tol) + log_head

    def short(trunc: int) -> bool:
        tail = _tail_bound(q, lp, sc, t, trunc)
        return tail > 0.0 and math.log(tail) > log_budget

    if not short(max_trunc):
        return
    need = 2 * max_trunc
    while need < 2 ** 1000 and short(need):
        need *= 2
    raise TruncationError(
        f"no truncation up to the cap {max_trunc} bounds the series tail by "
        f"{rel_tail_tol:.0e} of the head",
        required_trunc=need if need < 2 ** 1000 else None)


def _check_series_args(u: float, v: float, N: float) -> None:
    if not (u > 0):
        raise ValueError("u must be positive")
    if v < 0:
        raise ValueError("v must be nonnegative")
    if not (0.0 <= N < math.inf):
        raise ValueError("N must be finite and nonnegative")


def _head_sum(xi, t: float, u: float, v: float, N: float, stop: int) -> float:
    """sum_{i<=stop} xi_i^2 i^(-t) / (1 + N i^(-u))^v, chunked."""
    partials = []
    for start in range(1, stop + 1, _EVAL_CHUNK):
        i = np.arange(start, min(start + _EVAL_CHUNK, stop + 1), dtype=float)
        vals = _xi_values(xi, i)
        terms = vals * vals * i ** (-t)
        if v != 0.0 and N != 0.0:
            terms = terms / (1.0 + N * i ** (-u)) ** v
        partials.append(float(terms.sum()))
    return math.fsum(partials)


def series_lemma_sum(xi, t: float, u: float, v: float, N: float, trunc: int, *,
                     tail_q: float | None = None,
                     tail_log_power: float | None = None,
                     tail_scale: float | None = None,
                     rel_tail_tol: float = 1e-6) -> float:
    """sum_{i<=trunc} xi_i^2 i^(-t) / (1 + N i^(-u))^v, tail-checked.

    xi is a SequenceFamily (decay read off directly), a callable on index
    arrays, or a plain array; for the latter two the envelope
    |xi_i| <= tail_scale * i^(-tail_q-1/2) (log(i+1))^tail_log_power must be
    declared, and it must bound every |xi_i|, not only the tail:
    series_lemma_sum_auto also bounds the head by it. Raises TruncationError
    when the analytic tail bound exceeds rel_tail_tol of the computed head,
    reporting a sufficient truncation.
    """
    _check_series_args(u, v, N)
    trunc = int(trunc)
    if trunc < 1:
        raise ValueError("trunc must be positive")
    q, lp, sc = _resolve_tail(xi, tail_q, tail_log_power, tail_scale)
    s_exp = t + 2.0 * q
    if s_exp <= 0:
        raise TruncationError(
            "series tail is not summable (t + 2q <= 0)", required_trunc=None)

    head = _head_sum(xi, t, u, v, N, trunc)
    tail = _tail_bound(q, lp, sc, t, trunc)
    if head == 0.0:
        if tail > 0.0:
            raise TruncationError(
                "zero head with nonzero tail bound", required_trunc=None)
        return 0.0
    if tail > rel_tail_tol * abs(head):
        needed = _required_trunc(q, lp, sc, t, rel_tail_tol * abs(head))
        raise TruncationError(
            f"trunc={trunc} leaves tail bound {tail:.3e} > "
            f"{rel_tail_tol:.0e} of head {head:.6e}",
            required_trunc=needed)
    return head


def _hurwitz_sum(fam: SequenceFamily, t: float, u: float, v: float, N: float,
                 max_trunc: int) -> tuple[float, SeriesDiagnostics] | None:
    """The whole series for log_power == 0, exact to about 1e-16.

    Each term is sc^2 i^(-s) (1 + N i^(-u))^(-v) with s = t + 2q + 1. The
    head i <= K is summed directly, K + 1 being the first index with
    x_i = N i^(-u) <= 1/(4 max(1, v)). Past K the binomial series of
    (1 + x_i)^(-v) turns the tail into sum_k binom(-v, k) N^k zeta(s+ku, K+1)
    (Hurwitz zeta, DLMF 25.11.1). Consecutive terms shrink by at most
    r = x_(K+1) max(1, (v+k)/(k+1)) <= 1/4, so |term_k| r/(1-r) bounds the
    remainder; the absolute terms add up to at most e^(1/2) times the tail,
    so the alternating signs cancel no digits. binom(-v, k) N^k is carried as
    a mantissa and a power of two, so no factor overflows. Returns None when
    a zeta value underflows (a huge N or q), leaving the sum to the guarded
    path.
    """
    s_exp = t + 2.0 * fam.q
    if s_exp <= 0:
        raise TruncationError(
            "series tail is not summable (t + 2q <= 0)", required_trunc=None)
    s = s_exp + 1.0
    sc2 = fam.scale * fam.scale
    if v == 0.0 or N == 0.0:
        return sc2 * float(special.zeta(s)), SeriesDiagnostics(
            "hurwitz", 0, 1, 0.0)

    x_max = 0.25 / max(1.0, v)
    log_first = (math.log(N) - math.log(x_max)) / u
    if log_first > math.log(max_trunc + 1.0):
        needed = math.ceil(math.exp(log_first)) - 1 if log_first < 700 else None
        raise TruncationError(
            f"series head of about 1e{log_first / math.log(10.0):.1f} terms "
            f"exceeds cap {max_trunc}", required_trunc=needed)
    first = max(1, math.ceil(math.exp(log_first)))
    head = _head_sum(SequenceFamily(q=fam.q), t, u, v, N, first - 1)

    x0 = math.exp(math.log(N) - u * math.log(first))
    n_mant, n_exp = math.frexp(N)
    coef, coef_exp = 1.0, 0  # binom(-v, k) N^k = coef * 2^coef_exp
    terms, total, k = [head], head, 0
    while True:
        z = float(special.zeta(s + k * u, first))
        if z < _TINY:
            return None
        z_mant, z_exp = math.frexp(z)
        term = math.ldexp(coef * z_mant, coef_exp + z_exp)
        terms.append(term)
        total += term
        ratio = x0 * max(1.0, (v + k) / (k + 1.0))
        bound = abs(term) * ratio / (1.0 - ratio)
        k += 1
        if bound <= _ZETA_REL_TOL * total:
            break
        coef, e = math.frexp(-coef * n_mant * (v + k - 1.0) / k)
        coef_exp += e + n_exp
    return sc2 * math.fsum(terms), SeriesDiagnostics(
        "hurwitz", first - 1, k, sc2 * bound)


def series_lemma_sum_auto(xi, t: float, u: float, v: float, N: float, *,
                          max_trunc: int = 40_000_000,
                          rel_tail_tol: float = 1e-6,
                          full_output: bool = False, **tail_kw):
    """The full series sum_i xi_i^2 i^(-t) / (1 + N i^(-u))^v.

    For a SequenceFamily with log_power == 0 the sum is exact (a head of
    O(N^(1/u)) terms plus a Hurwitz-zeta tail); TruncationError is raised at
    once when that head would exceed max_trunc. Otherwise series_lemma_sum
    runs with automatic truncation growth up to max_trunc, and its tail bound
    is rel_tail_tol of the value; a series whose envelope (see
    series_lemma_sum) shows that no truncation up to max_trunc can pass is
    refused before any term is summed. With full_output the result is
    (value, SeriesDiagnostics).
    """
    _check_series_args(u, v, N)
    if isinstance(xi, SequenceFamily) and xi.log_power == 0.0:
        exact = _hurwitz_sum(xi, t, u, v, N, max_trunc)
        if exact is not None:
            return exact if full_output else exact[0]
    q, lp, sc = _resolve_tail(xi, tail_kw.get("tail_q"),
                              tail_kw.get("tail_log_power"),
                              tail_kw.get("tail_scale"))
    _refuse_unreachable(SequenceFamily(q=q, log_power=lp, scale=sc), t, u, v,
                        N, max_trunc, rel_tail_tol)
    guess = 1000 if N <= 1.0 else 50.0 * math.exp(
        min(math.log(N) / u, math.log(max_trunc)))
    trunc = int(min(max_trunc, max(1000, math.ceil(guess))))
    for _ in range(8):
        try:
            value = series_lemma_sum(xi, t, u, v, N, trunc,
                                     rel_tail_tol=rel_tail_tol, **tail_kw)
            break
        except TruncationError as err:
            if err.required_trunc is None:
                raise
            nxt = max(2 * trunc, err.required_trunc)
            if nxt > max_trunc:
                raise TruncationError(
                    f"required truncation {nxt} exceeds cap {max_trunc}",
                    required_trunc=nxt) from err
            trunc = nxt
    else:
        raise TruncationError("tail tolerance not reached",
                              required_trunc=trunc)
    if not full_output:
        return value
    return value, SeriesDiagnostics("truncated", trunc, 0,
                                    _tail_bound(q, lp, sc, t, trunc))


def series_order_exponent(q: float, t: float, u: float, v: float) -> float:
    """min((t+2q)/u, v): the decay order of the series in N."""
    return min((t + 2.0 * q) / u, v)


def series_limit_value(xi, t: float, u: float, v: float, *,
                       max_trunc: int = 40_000_000,
                       rel_tail_tol: float = 1e-6, **tail_kw) -> float:
    """lim_N N^v * sum: equals sum_i xi_i^2 i^(u v - t) on the v-branch.

    Only meaningful when (t + 2q)/u > v; the reduced series must itself be
    summable (t + 2q > u v).
    """
    return series_lemma_sum_auto(xi, t - u * v, u, 0.0, 0.0,
                                 max_trunc=max_trunc,
                                 rel_tail_tol=rel_tail_tol, **tail_kw)
