import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from scipy import integrate, special

from helpers import direct_series_sum
from seqinv import rates
from seqinv.harness import DEFAULT_LEMMA_COMBOS
from seqinv.rates import (
    RegimeParams,
    SequenceFamily,
    SlowlyVarying,
    contraction_rate,
    contraction_terms,
    functional_rate_terms,
    functional_tau_balance_factor,
    optimal_tau_exponent,
    optimal_tau_functional,
    series_lemma_sum_auto,
    series_limit_value,
    series_order_exponent,
    slowly_varying_corrections,
)
from seqinv.util import RegimeError, TruncationError


def test_regime_params_validation():
    with pytest.raises(ValueError):
        RegimeParams(alpha=0.0, beta=1.0, p=1.0)
    with pytest.raises(ValueError):
        RegimeParams(alpha=1.0, beta=-1.0, p=1.0)
    with pytest.raises(ValueError):
        RegimeParams(alpha=1.0, beta=1.0, p=-0.1)
    with pytest.raises(ValueError):
        RegimeParams(alpha=1.0, beta=1.0, p=1.0, q=-1.0)
    with pytest.raises(ValueError):
        RegimeParams(alpha=1.0, beta=1.0, p=1.0, tau_exponent=-0.5)
    rp = RegimeParams(alpha=1.0, beta=2.0, p=0.5, tau_exponent=0.25)
    assert rp.resolution_exponent == 4.0
    assert rp.tau(16.0) == 2.0
    assert rp.noise_budget(16.0) == 64.0



def test_regime_tau_overflow_is_regime_error():
    rp = RegimeParams(alpha=1.0, beta=1.0, p=1.0, tau_exponent=2.0)
    assert rp.tau(1e100) == pytest.approx(1e200)
    with pytest.raises(RegimeError):
        rp.tau(1e300)


def test_contraction_rate_hand_value():
    # alpha = beta = p = 1, tau = 1: both terms are n^(-1/5), so the rate at
    # n = 1e5 is exactly 0.2.
    rp = RegimeParams(alpha=1.0, beta=1.0, p=1.0)
    t = contraction_terms(rp, 1e5)
    assert t.term1 == pytest.approx(0.1, rel=1e-12)
    assert t.term2 == pytest.approx(0.1, rel=1e-12)
    assert contraction_rate(rp, 1e5) == pytest.approx(0.2, rel=1e-12)


def test_contraction_saturation_branch():
    # beta above 1 + 2 alpha + 2 p: the bias exponent saturates at 1.
    rp = RegimeParams(alpha=1.0, beta=10.0, p=1.0)
    t = contraction_terms(rp, 1e6)
    assert t.term1 == pytest.approx(1e-6, rel=1e-12)


def test_contraction_budget_guard():
    rp = RegimeParams(alpha=1.0, beta=1.0, p=1.0)
    with pytest.raises(RegimeError):
        contraction_terms(rp, 1.0)
    with pytest.raises(RegimeError):
        contraction_terms(rp, 0.5)


def test_contraction_exponents():
    # Both terms are powers of n: their log-log slopes are the exponents,
    # -0.2 each here, with and without tau scaling.
    for rp in (RegimeParams(alpha=1.0, beta=1.0, p=1.0),
               RegimeParams(alpha=3.0, beta=1.0, p=1.0, tau_exponent=0.4)):
        lo, hi = contraction_terms(rp, 1e4), contraction_terms(rp, 1e8)
        for a, b in zip(lo, hi):
            assert math.log(b / a) / math.log(1e4) == pytest.approx(-0.2)


def test_optimal_tau_exponent_values():
    assert optimal_tau_exponent(RegimeParams(alpha=1.0, beta=2.0, p=1.0)) \
        == pytest.approx(-1.0 / 7.0)
    assert optimal_tau_exponent(RegimeParams(alpha=2.0, beta=2.0, p=1.0)) == 0.0
    assert optimal_tau_exponent(RegimeParams(alpha=1.0, beta=10.0, p=1.0)) is None


def test_optimal_tau_exponent_matches_bisection():
    # Independent check: locate the tau exponent equating the two rate terms
    # by bisection on their log gap, then compare with the closed form.
    rp = RegimeParams(alpha=2.0, beta=1.0, p=0.5)
    n = 1e6

    def gap(te):
        t = contraction_terms(replace(rp, tau_exponent=te), n)
        return math.log(t.term1) - math.log(t.term2)

    lo, hi = -0.49, 5.0
    assert gap(lo) * gap(hi) < 0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if gap(lo) * gap(mid) <= 0:
            hi = mid
        else:
            lo = mid
    assert optimal_tau_exponent(rp) == pytest.approx(0.25, abs=1e-12)
    assert 0.5 * (lo + hi) == pytest.approx(0.25, abs=1e-9)


def test_optimal_tau_balances_terms_exactly():
    # With the optimal scaling plugged in, both terms equal
    # (n)^(-beta/(1+2 beta+2p)) and the rate is twice either term.
    for alpha, beta, p in ((1.0, 2.0, 1.0), (2.0, 1.0, 0.5),
                           (0.5, 0.5, 1.0), (3.0, 1.0, 1.0)):
        rp = RegimeParams(alpha=alpha, beta=beta, p=p)
        te = optimal_tau_exponent(rp)
        t = contraction_terms(replace(rp, tau_exponent=te), 1e7)
        target = 1e7 ** (-beta / (1.0 + 2.0 * beta + 2.0 * p))
        assert t.term1 == pytest.approx(target, rel=1e-12)
        assert t.term2 == pytest.approx(target, rel=1e-12)
        rate = contraction_rate(replace(rp, tau_exponent=te), 1e7)
        assert rate / t.term1 == pytest.approx(2.0, rel=1e-12)


def test_functional_rate_supersmooth_representer():
    # q > p with beta + q below saturation: the variance term is exactly
    # n^(-1/2) and dominates, so rate * sqrt(n) decreases to 1.
    rp = RegimeParams(alpha=1.0, beta=2.0, p=1.0, q=2.0)
    vals = [sum(functional_rate_terms(rp, n)[:2]) * math.sqrt(n)
            for n in (1e4, 1e6, 1e8)]
    assert vals[0] > vals[1] > vals[2] > 1.0
    assert vals[0] < 1.1
    t = functional_rate_terms(rp, 1e8)
    assert t.term2 == pytest.approx(1e-4, rel=1e-12)
    assert t.gamma_n == 1.0 and t.delta_n == 1.0


def test_functional_rate_needs_q():
    rp = RegimeParams(alpha=1.0, beta=1.0, p=1.0)
    with pytest.raises(RegimeError):
        functional_rate_terms(rp, 1e4)
    with pytest.raises(RegimeError):
        slowly_varying_corrections(rp, 1e4)


def test_slowly_varying_trichotomy():
    sv = SlowlyVarying(log_power=1.0)
    n = 1e6
    # beta + q < u: correction is S(rho)^2.
    rp = RegimeParams(alpha=1.0, beta=1.0, p=1.0, q=0.5)
    gamma_n, _ = slowly_varying_corrections(rp, n, sv)
    rho = n ** 0.2
    assert gamma_n == pytest.approx(math.log(rho + 1.0), rel=1e-12)
    # beta + q > u: no correction.
    rp = RegimeParams(alpha=1.0, beta=4.0, p=1.0, q=2.0)
    gamma_n, _ = slowly_varying_corrections(rp, n, sv)
    assert gamma_n == 1.0


def test_boundary_harmonic_correction():
    # q = p puts delta on the boundary: delta^2 is the partial harmonic sum
    # up to floor(rho), checked against a direct summation.
    rp = RegimeParams(alpha=1.0, beta=1.0, p=1.0, q=1.0)
    n = 1e8
    _, delta_n = slowly_varying_corrections(rp, n)
    m = int(math.floor(n ** 0.2))
    direct = math.fsum(1.0 / i for i in range(1, m + 1))
    assert delta_n ** 2 == pytest.approx(direct, rel=1e-12)

    sv = SlowlyVarying(log_power=1.0)
    _, delta_log = slowly_varying_corrections(rp, n, sv)
    direct_log = math.fsum(math.log(i + 1.0) ** 2 / i for i in range(1, m + 1))
    assert delta_log ** 2 == pytest.approx(direct_log, rel=1e-10)


def test_log_power_harmonic_sum_is_capped(monkeypatch):
    # Beyond _MAX_HEAD terms the sum is refused before any term is summed
    # (here summing fails outright); at n = 1e60 it would take 1e12 terms.
    monkeypatch.setattr(rates, "_EVAL_CHUNK", None)
    m = rates._MAX_HEAD + 1
    with pytest.raises(TruncationError) as exc:
        rates._log_power_partial_harmonic(m, 1.0)
    assert exc.value.required_trunc == m
    rp = RegimeParams(alpha=1.0, beta=1.0, p=1.0, q=1.0)
    with pytest.raises(TruncationError) as exc:
        slowly_varying_corrections(rp, 1e60, SlowlyVarying(log_power=1.0))
    assert exc.value.required_trunc == math.floor(1e60 ** 0.2)
    # H_m itself has a closed form at any m
    assert rates._log_power_partial_harmonic(m, 0.0) > 0


def test_optimal_tau_functional_values():
    rp = RegimeParams(alpha=1.0, beta=1.0, p=1.0, q=0.5)
    assert optimal_tau_functional(rp) == pytest.approx(0.125)
    flat = RegimeParams(alpha=0.5, beta=1.0, p=1.0, q=0.5)
    assert optimal_tau_functional(flat) == pytest.approx(0.0)
    # Saturated smoothness: beta~ = 1 + 2 alpha + 2p - q.
    sat = RegimeParams(alpha=1.0, beta=20.0, p=1.0, q=0.5)
    assert optimal_tau_functional(sat) == pytest.approx((1.5 - 4.5) / 11.0)
    with pytest.raises(RegimeError):
        optimal_tau_functional(RegimeParams(alpha=1.0, beta=1.0, p=1.0, q=2.0))
    with pytest.raises(RegimeError):
        optimal_tau_functional(RegimeParams(alpha=1.0, beta=1.0, p=1.0))


def test_functional_tau_balance_factor():
    rp = RegimeParams(alpha=1.0, beta=1.0, p=1.0, q=0.0)
    # Without slowly varying factors the closed-form exponent already
    # balances the two terms, so the multiplier is 1.
    assert functional_tau_balance_factor(rp, 1e6) == pytest.approx(1.0,
                                                                   rel=1e-9)
    # Both terms pick up the same S(rho) here, so it cancels from the balance.
    assert functional_tau_balance_factor(
        rp, 1e6, SlowlyVarying(log_power=1.0)) == pytest.approx(1.0, rel=1e-9)

    # Saturated bias branch: only the variance term carries the log factor,
    # so the multiplier must shrink below 1 to compensate.
    sat = RegimeParams(alpha=1.0, beta=20.0, p=1.0, q=0.5)
    c = functional_tau_balance_factor(sat, 1e6, SlowlyVarying(log_power=1.0))
    assert c == pytest.approx(0.84354404, rel=1e-6)


def test_series_lemma_sum_plain_reduction():
    # v = 0 (or N = 0) reduces to sum xi_i^2 i^(-t); the sum past 1e5 terms
    # is below 1e5^(-4)/4 = 2.5e-21.
    fam = SequenceFamily(q=1.0)
    direct = direct_series_sum(1.0, 2.0, 2.0, 0.0, 0.0, 100_000)
    assert series_lemma_sum_auto(fam, 2.0, 2.0, 0.0, 123.0) == \
        pytest.approx(direct, rel=1e-15)
    assert series_lemma_sum_auto(fam, 2.0, 2.0, 2.0, 0.0) == \
        pytest.approx(direct, rel=1e-15)


def test_series_lemma_sum_validation():
    fam = SequenceFamily(q=1.0)
    with pytest.raises(ValueError):
        series_lemma_sum_auto(fam, 2.0, 0.0, 1.0, 10.0)
    with pytest.raises(ValueError):
        series_lemma_sum_auto(fam, 2.0, 2.0, -1.0, 10.0)
    with pytest.raises(ValueError):
        series_lemma_sum_auto(fam, 2.0, 2.0, 1.0, -10.0)
    with pytest.raises(TruncationError):
        series_lemma_sum_auto(SequenceFamily(q=-1.0), 2.0, 2.0, 1.0, 10.0)


def test_series_truncation_guard_reports_requirement(monkeypatch):
    # The head runs to K = ceil((4 max(1, v) N)^(1/u)) - 1 = 2828 terms here.
    # Under a cap of 1000 the refusal names K, and a cap of K sums it.
    fam = SequenceFamily(q=0.25)  # slow decay: t + 2q = 1.0
    full, diag = series_lemma_sum_auto(fam, 0.5, 2.0, 2.0, 1e6,
                                       full_output=True)
    assert diag.head_terms == 2828
    monkeypatch.setattr(rates, "_MAX_HEAD", 1000)
    with pytest.raises(TruncationError) as exc:
        series_lemma_sum_auto(fam, 0.5, 2.0, 2.0, 1e6)
    assert exc.value.required_trunc == 2828
    monkeypatch.setattr(rates, "_MAX_HEAD", 2828)
    assert series_lemma_sum_auto(fam, 0.5, 2.0, 2.0, 1e6) == full


def test_series_monotonicity():
    fam = SequenceFamily(q=1.0)
    vals = [series_lemma_sum_auto(fam, 1.0, 2.0, 2.0, N)
            for N in (1e2, 1e4, 1e6)]
    assert vals[0] > vals[1] > vals[2] > 0.0
    low = direct_series_sum(1.0, 1.0, 2.0, 2.0, 1e2, 50_000)
    assert vals[0] >= low


def test_series_order_exponent():
    assert series_order_exponent(1.0, 1.0, 2.5, 2.0) == pytest.approx(1.2)
    assert series_order_exponent(1.0, 2.0, 2.0, 1.0) == 1.0


def test_series_order_ratio_band():
    fam = SequenceFamily(q=1.0)
    order = series_order_exponent(1.0, 1.0, 2.5, 2.0)
    for N in (1e2, 1e4, 1e6, 1e8):
        val = series_lemma_sum_auto(fam, 1.0, 2.5, 2.0, N)
        assert 0.05 <= val * N ** order <= 20.0


def test_series_limit_value():
    # (t + 2q)/u = 2 > v = 1: N^v * sum converges to sum xi^2 i^(uv - t),
    # here zeta(3).
    fam = SequenceFamily(q=1.0)
    limit = series_limit_value(fam, 2.0, 2.0, 1.0)
    assert limit == special.zeta(3.0)
    val = series_lemma_sum_auto(fam, 2.0, 2.0, 1.0, 1e10)
    assert val * 1e10 == pytest.approx(limit, rel=1e-3)


def _series_reference(q, t, u, v, big_n, head_terms=20000):
    """Direct head plus the tail integral from head_terms + 1/2 (midpoint)."""
    s = t + 2.0 * q + 1.0

    def f(x):
        return np.exp(-s * np.log(x) - v * np.log1p(big_n * x ** (-u)))

    head = math.fsum(f(np.arange(1.0, head_terms + 1.0)))
    lo = math.log(head_terms + 0.5)
    tail, _ = integrate.quad(lambda y: f(math.exp(y)) * math.exp(y),
                             lo, lo + 80.0 / (t + 2.0 * q),
                             epsabs=0.0, epsrel=1e-12, limit=400)
    return head + tail


@pytest.mark.parametrize("big_n", [1e2, 1e6, 1e10, 1e12, 1e16, 1e20, 1e26,
                                   1e30])
def test_series_exact_matches_reference(big_n):
    # Every default combo, and {q 1, t 1, u 5, v 1}, whose head fits under
    # the cap; {q 1, t 2, u 4, v 1.5} at 1e26 and {q 1, t 1, u 5, v 1} at
    # 1e30 once failed on an underflowing zeta value.
    extra = {"q": 1.0, "t": 1.0, "u": 5.0, "v": 1.0}
    for combo in (*DEFAULT_LEMMA_COMBOS, extra):
        q, t, u, v = (combo[k] for k in ("q", "t", "u", "v"))
        if (4.0 * max(1.0, v) * big_n) ** (1.0 / u) >= rates._MAX_HEAD:
            continue
        val, diag = series_lemma_sum_auto(SequenceFamily(q=q), t, u, v, big_n,
                                          full_output=True)
        assert diag.remainder_bound <= 1e-15 * val
        assert val == pytest.approx(_series_reference(q, t, u, v, big_n),
                                    rel=1e-9)


@pytest.mark.parametrize("q", [100.0, 300.0, 1e9])
def test_series_huge_q_is_exact(q):
    # zeta(s, K+1) underflows for s = t + 2q + 1 in the hundreds; the scaled
    # zeta keeps the tail. Past i = 50 the terms are below 50^(-200). At
    # q = 1e9 the scaled zeta sums one term, not 4e9.
    val, diag = series_lemma_sum_auto(SequenceFamily(q=q), 1.0, 2.0, 1.0, 1e4,
                                      full_output=True)
    assert diag.head_terms == 200 and diag.zeta_terms >= 1
    assert val == pytest.approx(direct_series_sum(q, 1.0, 2.0, 1.0, 1e4, 50),
                                rel=1e-15)


@pytest.mark.parametrize("s", [1.0001, 1.5, 3.0, 41.0, 100.0, 150.0, 300.0,
                               603.0, 2000.0])
def test_scaled_zeta_matches_mpmath(s):
    # mpmath's zeta(s, a) loses about s log10(a) digits, so its precision is
    # raised by as much; past s log10(a) = 2700 it takes minutes (91 s at
    # s = 2000, a = 4e7), so those corners are left out. At a = 2(s + 16)
    # the Euler-Maclaurin part is the whole sum and needs all eight
    # corrections.
    for a in (1.0, 2.5, 20.0, 1000.0, 2.0 * (s + 16.0), 4.9e6, 4e7):
        if s * math.log10(a) > 2700.0:
            continue
        mpmath.mp.dps = 40 + math.ceil(s * math.log10(a))
        ref = mpmath.zeta(s, a) * mpmath.mpf(a) ** s
        assert abs(rates._scaled_zeta(s, a) - ref) <= 2e-15 * ref, (s, a)


def test_series_exact_zeta_reduction_and_scale():
    # v = 0 or N = 0 leaves scale^2 * zeta(t + 2q + 1); scale enters as c^2.
    for scale in (1.0, 3.0):
        fam = SequenceFamily(q=1.0, scale=scale)
        want = scale ** 2 * special.zeta(4.0)
        assert series_lemma_sum_auto(fam, 1.0, 2.0, 0.0, 1e6) == want
        assert series_lemma_sum_auto(fam, 1.0, 2.0, 1.5, 0.0) == want
    base = series_lemma_sum_auto(SequenceFamily(q=1.0), 1.0, 2.5, 2.0, 1e6)
    scaled = series_lemma_sum_auto(SequenceFamily(q=1.0, scale=0.3),
                                   1.0, 2.5, 2.0, 1e6)
    assert scaled == pytest.approx(0.09 * base, rel=1e-15)


def test_series_exact_agrees_with_truncated_sum():
    fam = SequenceFamily(q=1.0)
    exact = series_lemma_sum_auto(fam, 1.0, 2.0, 1.5, 1e4)
    truncated = direct_series_sum(1.0, 1.0, 2.0, 1.5, 1e4, 2_000_000)
    assert truncated < exact
    assert truncated == pytest.approx(exact, rel=1e-6)


def test_series_rejects_nonfinite_and_huge_n(monkeypatch):
    fam = SequenceFamily(q=1.0)
    for bad in (math.inf, math.nan, -1.0):
        with pytest.raises(ValueError):
            series_lemma_sum_auto(fam, 1.0, 2.0, 1.0, bad)

    # A head beyond the cap is refused before any term is evaluated.
    def no_head(*args):
        raise AssertionError("head evaluated")

    monkeypatch.setattr(rates, "_head_sum", no_head)
    with pytest.raises(TruncationError) as exc:
        series_lemma_sum_auto(fam, 1.0, 2.0, 1.0, 1e300)
    assert exc.value.required_trunc > 40_000_000
    with pytest.raises(TruncationError) as exc:
        series_lemma_sum_auto(fam, 1.0, 0.01, 1.0, 1e300)
    assert exc.value.required_trunc is None


def test_sequence_family_and_slowly_varying_values():
    # xi_i = scale * i^(-q-1/2): the series is scale^2 times the direct sum
    # of i^(-2q-1-t) / (1 + N i^(-u))^v, whose tail past 1e5 is below 1e-20.
    fam = SequenceFamily(q=1.5, scale=2.0)
    assert series_lemma_sum_auto(fam, 1.0, 2.0, 1.0, 10.0) == pytest.approx(
        direct_series_sum(1.5, 1.0, 2.0, 1.0, 10.0, 100_000, scale=2.0),
        rel=1e-14)
    np.testing.assert_allclose(SlowlyVarying()(np.array([10.0])), [1.0])
    np.testing.assert_allclose(SlowlyVarying(log_power=2.0)(np.array([10.0])),
                               [math.log(11.0) ** 2])
