import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize, stats

from helpers import direct_swing, imhof_cutoff, imhof_sums, \
    linspace_cuts, mc_ball_coverage, satterthwaite_radius
from seqinv import credible
from seqinv.credible import (
    BvmDiagnostics,
    EigenWeights,
    _tv_centered_normals,
    _WeightedChiSquare,
    ball_coverage,
    ball_radius,
    bvm_diagnostics,
    credible_weights,
    interval_coverage,
)
from seqinv.model import ForwardSpec, PriorSpec, make_truth
from seqinv.posterior import Functional, bias_coordinates
from seqinv.util import DegenerateInputError, DimensionMismatchError, \
    RegimeError, child_seed, ndtr, ndtri

EPS = 2.0 ** -52


def _weights(alpha=1.0, tau=1.0, p=1.0, trunc=500, n=1e4):
    prior = PriorSpec(alpha=alpha, tau=tau, trunc=trunc)
    fwd = ForwardSpec.polynomial(p=p, trunc=trunc)
    return credible_weights(prior, fwd, n)


def test_weights_hand_value():
    # lambda = kappa = n = 1: g = 1, s = 1/2, t = 1/4.
    prior = PriorSpec(alpha=1.0, tau=1.0, trunc=1)
    fwd = ForwardSpec.custom([1.0], p=1.0)
    w = credible_weights(prior, fwd, 1.0)
    assert w.s_w[0] == pytest.approx(0.5)
    assert w.t_w[0] == pytest.approx(0.25)


def test_weights_gap_identity():
    # s_i - t_i = lambda_i/(1+g_i)^2, and t <= s exactly coordinatewise.
    rng = np.random.default_rng(3)
    for _ in range(25):
        alpha = rng.uniform(0.2, 4.0)
        tau = 10.0 ** rng.uniform(-2, 2)
        p = rng.uniform(0.0, 2.5)
        n = 10.0 ** rng.uniform(0, 10)
        prior = PriorSpec(alpha=alpha, tau=tau, trunc=200)
        fwd = ForwardSpec.polynomial(p=p, trunc=200)
        w = credible_weights(prior, fwd, n)
        assert np.all(w.t_w <= w.s_w)
        g = n * prior.eigenvalues() * fwd.singular_values() ** 2
        gap = prior.eigenvalues() / (1.0 + g) ** 2
        # s - t cancels almost completely at large gain, so the float error
        # of the subtraction is a few ulp of s, not of the gap itself.
        tol = 8.0 * np.finfo(float).eps * w.s_w
        assert np.all(np.abs((w.s_w - w.t_w) - gap) <= tol)


def test_weights_validation_and_noise_only():
    with pytest.raises(ValueError):
        EigenWeights(s_w=[1.0], t_w=[2.0])
    with pytest.raises(DimensionMismatchError):
        EigenWeights(s_w=[1.0, 2.0], t_w=[1.0])
    with pytest.raises(ValueError):
        EigenWeights(s_w=[1.0], t_w=[-0.1])
    w = _weights(trunc=10)
    nw = w.noise_only()
    np.testing.assert_array_equal(nw.s_w, w.t_w)
    np.testing.assert_array_equal(nw.t_w, w.t_w)
    with pytest.raises(ValueError):
        credible_weights(PriorSpec(alpha=1.0, tau=1.0, trunc=5),
                         ForwardSpec.polynomial(p=1.0, trunc=5), 0.0)


def test_weights_at_gain_extremes():
    prior = PriorSpec(alpha=1.0, tau=1.0, trunc=5)
    fwd = ForwardSpec.polynomial(p=1.0, trunc=5)
    # The smallest positive n: 1 + g rounds to 1, so s_w is the prior.
    w = credible_weights(prior, fwd, 5e-324)
    np.testing.assert_array_equal(w.s_w, prior.eigenvalues())
    assert np.all(np.isfinite(w.t_w)) and np.all(w.t_w >= 0.0)
    # A gain that overflows at a finite n is refused; it used to give
    # t_w = inf/inf = nan and a radius of 0.
    huge = PriorSpec(alpha=1.0, tau=1e10, trunc=5)
    with pytest.raises(RegimeError):
        credible_weights(huge, fwd, 1e300)
    with pytest.raises(RegimeError):
        bvm_diagnostics(huge, fwd, Functional(coeffs=np.ones(5)),
                        make_truth("demo", 5), 1e300, 1.0)
    for n in (math.inf, math.nan):
        with pytest.raises(ValueError):
            credible_weights(prior, fwd, n)


def test_ball_radius_single_weight_chi_square():
    w = EigenWeights(s_w=[1.0], t_w=[0.5])
    r = ball_radius(w, gamma=0.05, method="monte-carlo", mc_samples=200_000,
                    seed=0)
    assert abs(r * r - 3.841459) <= 0.05

    # Satterthwaite on one weight is the exact scaled chi-square.
    r2 = satterthwaite_radius([2.0], gamma=0.05)
    assert r2 * r2 == pytest.approx(2.0 * 3.841459, rel=1e-6)


def test_ball_radius_equal_weights_chi_square():
    # Seven equal weights: moment matching recovers chi^2_7 exactly, and the
    # Monte Carlo quantile agrees to well under a percent.
    c = 5.0
    w = EigenWeights(s_w=np.full(7, c), t_w=np.zeros(7))
    exact = c * stats.chi2.ppf(0.95, 7)
    r_sat = satterthwaite_radius(w.s_w, gamma=0.05)
    assert r_sat * r_sat == pytest.approx(exact, rel=1e-12)
    r_mc = ball_radius(w, gamma=0.05, method="monte-carlo", mc_samples=200_000,
                       seed=1)
    assert r_mc * r_mc == pytest.approx(exact, rel=0.01)


def test_ball_radius_monotone_in_gamma_and_weights():
    w = _weights()
    mc = dict(method="monte-carlo", mc_samples=20_000, seed=5)
    radii = [ball_radius(w, gamma=g, **mc) for g in (0.01, 0.05, 0.2)]
    assert radii[0] > radii[1] > radii[2] > 0.0

    doubled = EigenWeights(s_w=2.0 * w.s_w, t_w=2.0 * w.t_w)
    r1 = ball_radius(w, gamma=0.05, **mc)
    r2 = ball_radius(doubled, gamma=0.05, **mc)
    assert r2 == pytest.approx(math.sqrt(2.0) * r1, rel=1e-12)


def test_ball_radius_validation():
    w = _weights(trunc=10)
    with pytest.raises(ValueError):
        ball_radius(w, gamma=1.0)
    # 1 - gamma rounds to 1: the quantile at probability 1 is infinite
    small = EigenWeights([1.0, 0.5], [0.5, 0.2])
    for gamma in (5.5e-17, 1e-17, 1e-300):
        with pytest.raises(ValueError, match="1 - gamma below 1"):
            ball_radius(small, gamma)
    # just above 2^-54 (about 5.55e-17) 1 - gamma rounds below 1, but the
    # CDF's cut-off error there is far above gamma: the radius is refused
    with pytest.raises(RegimeError, match="not resolved"):
        ball_radius(small, 6e-17)
    with pytest.raises(ValueError):
        ball_radius(w, gamma=0.05, method="monte-carlo", mc_samples=5000)
    with pytest.raises(ValueError):
        ball_radius(w, gamma=0.05, method="exact")
    zero = EigenWeights(s_w=np.zeros(3), t_w=np.zeros(3))
    with pytest.warns(UserWarning):
        assert ball_radius(zero, gamma=0.05) == 0.0


def test_ball_radius_abserr_is_finite_at_tiny_gamma():
    # Near the smallest gamma accepted the density at the root underflows,
    # and the cut-off error over it is no bound; Cantelli's bracket is. The
    # radius there is not resolved, and ball_radius refuses it.
    w = EigenWeights([1.0, 0.5], [0.5, 0.2])
    law = _WeightedChiSquare(w.s_w)
    mean, var = w.s_w.sum(), 2.0 * (w.s_w ** 2).sum()
    for gamma in (1e-15, 2e-16):
        r_sq, err = law.quantile(1.0 - gamma)
        assert math.isfinite(err) and 0.0 < err
        # r^2 lies below Cantelli's upper end, mean + sd sqrt(p / (1 - p))
        p = 1.0 - gamma
        hi = mean + math.sqrt(var * p / (1.0 - p))
        assert r_sq <= hi and err <= hi
        with pytest.raises(RegimeError, match="not resolved"):
            ball_radius(w, gamma, full_output=True)
    # at an ordinary gamma the density is far from underflow: no cap
    r, abserr = ball_radius(w, 0.05, full_output=True)
    assert abserr <= 1e-8 * r


def test_ball_radius_refuses_unresolved_gamma():
    # abserr / r is 1.7e-4 at gamma 1e-8 and 1.5e-3 at 1e-9 on this law;
    # below that r stopped rising (7.18 at 1e-12, 12.87 at 1e-14, 8.93 at
    # 1e-15). Every gamma from the first refused one down is refused, and
    # the accepted radii do not fall as gamma falls, within their bounds.
    w = EigenWeights([1.0, 0.5], [0.5, 0.2])
    gammas = np.geomspace(0.5, 1e-15, 46)
    results = []
    for gamma in gammas:
        try:
            results.append(ball_radius(w, gamma, full_output=True))
        except RegimeError:
            results.append(None)
    first = [res is None for res in results].index(True)
    assert all(res is None for res in results[first:])
    assert gammas[first - 1] >= 1e-9 and gammas[first] < 1e-8
    for (r1, e1), (r2, e2) in zip(results[:first], results[1:first]):
        assert r2 >= r1 - (e1 + e2)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(weights=st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=50),
       gammas=st.lists(st.floats(1e-12, 0.5), min_size=2, max_size=5))
def test_ball_radius_does_not_fall_as_gamma_falls(weights, gammas):
    w = EigenWeights(s_w=weights, t_w=np.zeros(len(weights)))
    accepted = []
    for gamma in sorted(gammas, reverse=True):
        try:
            accepted.append(ball_radius(w, gamma, full_output=True))
        except RegimeError:
            pass
    for (r1, e1), (r2, e2) in zip(accepted, accepted[1:]):
        assert r2 >= r1 - (e1 + e2)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(weights=st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=50),
       biased=st.booleans(), k=st.sampled_from([1e-8, 0.37, 3.0, 1e6]),
       data=st.data())
def test_imhof_law_scales_and_its_cdf_rises(weights, biased, k, data):
    # Scaling w, b^2 and r^2 together leaves P unchanged, the radius scales
    # as sqrt(k), and the CDF does not fall as x rises beyond its cut-off
    # error, with and without a bias.
    w = np.array(weights)
    bias = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=w.size,
                                       max_size=w.size))) if biased \
        else np.zeros(w.size)
    ew, scaled = EigenWeights(w, w), EigenWeights(k * w, k * w)
    r = ball_radius(ew, 0.05)
    assert ball_radius(scaled, 0.05) == pytest.approx(math.sqrt(k) * r,
                                                      rel=1e-12)
    p = ball_coverage(ew, bias, r, mc_samples=10).exact
    p_k = ball_coverage(scaled, math.sqrt(k) * bias, math.sqrt(k) * r,
                        mc_samples=10).exact
    assert abs(p_k - p) <= 1e-13
    law = _WeightedChiSquare(w, bias if biased else None)
    xs = np.linspace(0.0, law.mean + 6.0 * law.sd, 40)
    cdf = [law.cdf_pdf(x)[0] for x in xs]
    assert all(b >= a - 2.0 * credible._IMHOF_TAIL
               for a, b in zip(cdf, cdf[1:]))


def test_imhof_radius_chi_square_laws():
    # One weight and equal weights are scaled chi-squares.
    for weights, dof in (([2.0], 1), (np.full(7, 5.0), 7),
                         (np.full(60, 0.3), 60)):
        w = EigenWeights(s_w=weights, t_w=np.zeros(len(weights)))
        for gamma in (0.01, 0.05, 0.5, 0.99):
            exact = weights[0] * stats.chi2.ppf(1.0 - gamma, dof)
            r = ball_radius(w, gamma, method="imhof")
            assert r * r == pytest.approx(exact, rel=1e-8)


def test_imhof_radius_scales_with_weights():
    w = _weights(trunc=800, n=1e5)
    r, abserr = ball_radius(w, 0.05, method="imhof", full_output=True)
    assert 0.0 < abserr <= 1e-8 * r
    for c in (1e-150, 0.37, 3.0, 1e150):
        scaled = EigenWeights(s_w=c * w.s_w, t_w=c * w.t_w)
        assert ball_radius(scaled, 0.05, method="imhof") == pytest.approx(
            math.sqrt(c) * r, rel=1e-12)


def test_imhof_radius_matches_monte_carlo():
    # Six standard errors of the empirical quantile, sqrt(p q / m) / density.
    w = _weights(alpha=1.0, p=1.0, trunc=1000, n=1e5)
    m = 20_000
    r = ball_radius(w, 0.05, method="imhof")
    r_mc = ball_radius(w, 0.05, method="monte-carlo", mc_samples=m,
                       seed=child_seed(8, 6))
    law = _WeightedChiSquare(w.s_w)
    density = law.cdf_pdf(r * r / law.scale)[1] / law.scale
    se_sq = math.sqrt(0.95 * 0.05 / m) / density
    assert abs(r_mc * r_mc - r * r) <= 6.0 * se_sq


def _imhof_laws():
    """One weight, equal weights, the spread and noise laws of a trunc-1000
    cell, and a noise law with a single dominant weight."""
    cell = _weights(alpha=1.0, p=1.0, trunc=1000, n=1e5)
    dominant = _weights(alpha=10.0, p=2.0, n=1e4, trunc=500).t_w
    return {"one": np.array([2.0]), "equal": np.full(7, 5.0),
            "trunc-1000": cell.s_w, "trunc-1000-noise": cell.t_w,
            "dominant": dominant}


IMHOF_LAWS = _imhof_laws()


@pytest.mark.parametrize("weights", IMHOF_LAWS.values(), ids=IMHOF_LAWS.keys())
def test_imhof_density_matches_cdf_difference(weights):
    # The closed-form density against a central difference of the CDF at
    # quantiles from 0.01 to 0.99; for one weight and equal weights also
    # against the scaled chi-square density. The density's own cut-off error
    # is largest for a dominant weight, whose integrand decays like u^(-1/2).
    law = _WeightedChiSquare(weights)
    for prob in (0.01, 0.05, 0.5, 0.95, 0.99):
        x = law.quantile(prob)[0] / law.scale
        _, density = law.cdf_pdf(x)
        h = 1e-5 * min(x, law.sd)
        diff = (law.cdf_pdf(x + h)[0] - law.cdf_pdf(x - h)[0]) / (2.0 * h)
        assert density == pytest.approx(diff, rel=1e-7), prob
        if np.all(weights == weights[0]):
            ref = stats.chi2.pdf(x * law.scale / weights[0], weights.size) \
                * law.scale / weights[0]
            assert density == pytest.approx(ref, rel=1e-7), prob


@pytest.mark.parametrize("weights", IMHOF_LAWS.values(), ids=IMHOF_LAWS.keys())
def test_imhof_quantile_is_a_root(weights):
    # At the returned x, F(x) - p is within the density times the root
    # tolerance, plus the cut-off's CDF error. At gamma = 0.99 the lower
    # Cantelli end m - sd sqrt(99) is negative and is clamped at 0.
    law = _WeightedChiSquare(weights)
    assert law.mean - law.sd * math.sqrt(99.0) < 0.0
    for gamma in (0.01, 0.05, 0.5, 0.99):
        prob = 1.0 - gamma
        x = law.quantile(prob)[0] / law.scale
        cdf, density = law.cdf_pdf(x)
        hi = law.mean + law.sd * math.sqrt(prob / gamma)
        tol = credible._IMHOF_ROOT_RTOL * (hi + x)
        assert abs(cdf - prob) <= density * tol + law.tail, gamma


def test_imhof_quantile_returns_bracket_ends():
    # With the bracket moved off the root, F(lo) >= p gives lo and
    # F(hi) <= p gives hi, as before the Newton search.
    prob = 0.95
    above = _WeightedChiSquare(np.full(7, 5.0))
    above.mean *= 50.0
    lo = above.mean - above.sd * math.sqrt((1.0 - prob) / prob)
    assert above.cdf_pdf(lo)[0] >= prob
    assert above.quantile(prob)[0] == lo * above.scale
    below = _WeightedChiSquare(np.full(7, 5.0))
    below.mean *= 0.5
    below.sd *= 1e-3
    hi = below.mean + below.sd * math.sqrt(prob / (1.0 - prob))
    assert below.cdf_pdf(hi)[0] <= prob
    assert below.quantile(prob)[0] == hi * below.scale


def test_imhof_quantile_needs_few_cdf_evaluations(monkeypatch):
    # Newton from the normal approximation: at most six CDF and density
    # evaluations per radius of a trunc-1000 cell, spread and noise laws.
    calls = []
    cdf_pdf = _WeightedChiSquare.cdf_pdf
    monkeypatch.setattr(_WeightedChiSquare, "cdf_pdf",
                        lambda law, x: calls.append(x) or cdf_pdf(law, x))
    for n in (1e3, 1e5, 1e7):
        w = _weights(alpha=1.0, p=1.0, trunc=1000, n=n)
        for weights in (w.s_w, w.t_w):
            law = _WeightedChiSquare(weights)
            calls.clear()
            law.quantile(0.95)
            assert 1 <= len(calls) <= 6, n


def test_imhof_quantile_with_one_dominant_weight(monkeypatch):
    # One weight 1 beside fifty below 1e-3: at small p the normal start lies
    # below Cantelli's end, 0, where the density is infinite, so Newton
    # cannot step and a search from there bisects (11 to 14 CDF
    # evaluations). The three-cumulant start needs at most eight, and the
    # root is Brent's root of the same CDF within the returned error bound.
    rng = np.random.default_rng(16)
    law = _WeightedChiSquare(np.concatenate(([1.0],
                                             rng.uniform(0.0, 1e-3, 50))))
    calls = []
    cdf_pdf = _WeightedChiSquare.cdf_pdf
    monkeypatch.setattr(_WeightedChiSquare, "cdf_pdf",
                        lambda law, x: calls.append(x) or cdf_pdf(law, x))
    for prob in (0.001, 0.01, 0.05):
        calls.clear()
        x, err = law.quantile(prob)
        assert len(calls) <= 8, prob
        root = optimize.brentq(lambda y: cdf_pdf(law, y)[0] - prob, 0.0,
                               law.mean, xtol=1e-300, rtol=1e-15)
        assert abs(x - root * law.scale) <= err, prob


def test_imhof_quantile_at_small_prob(monkeypatch):
    # Newton from the normal start ran into the convex lower tail: 11 CDF
    # evaluations at p = 0.001 and 9 at p = 0.01 on the spread law of a
    # trunc-1000 cell. The Wilson-Hilferty start needs at most six, and the
    # root is Brent's root of the same CDF within the returned error bound.
    law = _WeightedChiSquare(_weights(alpha=1.0, p=1.0, trunc=1000,
                                      n=1e5).s_w)
    calls = []
    cdf_pdf = _WeightedChiSquare.cdf_pdf
    monkeypatch.setattr(_WeightedChiSquare, "cdf_pdf",
                        lambda law, x: calls.append(x) or cdf_pdf(law, x))
    for prob in (0.001, 0.01):
        calls.clear()
        x, err = law.quantile(prob)
        assert len(calls) <= 6, prob
        root = optimize.brentq(lambda y: cdf_pdf(law, y)[0] - prob, 0.0,
                               law.mean, xtol=1e-300, rtol=1e-15)
        assert abs(x - root * law.scale) <= err, prob


def _spherical_jn_mp(k, z):
    if z == 0.0:
        return 1.0 if k == 0 else 0.0
    z = mpmath.mpf(z)
    return float(mpmath.sqrt(mpmath.pi / (2 * z))
                 * mpmath.besselj(k + mpmath.mpf(0.5), z))


def test_spherical_jn_orders_against_mpmath():
    # The upward recurrence serves only |z| >= 15: the switch itself, both
    # signs, large z, and a z near 2^64 given with its rounding error
    # (_two_product), whose sin and cos must take that low part in; within
    # 8 eps absolute of 30-digit values.
    eps = np.finfo(float).eps
    zs = [15.0, 15.001, 1e4, -15.0, -1e4]
    with mpmath.workdps(30):
        got = credible._spherical_jn_orders(np.array(zs))
        assert got.shape == (len(zs), credible._IMHOF_NODES)
        for z, row in zip(zs, got):
            for k, value in enumerate(row):
                ref = (1 if z > 0 else -1) ** k * _spherical_jn_mp(k, abs(z))
                assert abs(value - ref) <= 8.0 * eps, (z, k)
    with mpmath.workdps(60):   # the product of two doubles, exactly
        z_hi, z_lo = credible._two_product(np.array([0.0125]),
                                           np.array([2.6e19 + 4096.0]))
        assert z_lo[0] != 0.0
        exact = mpmath.mpf(0.0125) * mpmath.mpf(2.6e19 + 4096.0)
        assert mpmath.mpf(z_hi[0]) + mpmath.mpf(z_lo[0]) == exact
        row = credible._spherical_jn_orders(z_hi, z_lo)[0]
        for k, value in enumerate(row):
            ref = float(mpmath.sqrt(mpmath.pi / (2 * exact))
                        * mpmath.besselj(k + mpmath.mpf(0.5), exact))
            assert abs(value - ref) <= 8.0 * eps / 1e17, k


def test_gauss_rule_against_mpmath():
    # Where |z| < 15 a panel is integrated by the 32-node Gauss rule: for
    # each Legendre polynomial P_k, k <= 15, the rule's
    # int_{-1}^{1} P_k(t) e^(-izt) dt lies within 8 eps of 2 (-i)^k j_k(z)
    # at 30 digits, on both sides of z = k and up to the switch at 15.
    eps = np.finfo(float).eps
    zs = [0.0, 1e-300, 1e-8, 7.5, 14.999, math.nextafter(15.0, 0.0)]
    zs += [k + d for k in range(1, 15) for d in (-1e-9, 1e-9)]
    with mpmath.workdps(30):
        for z in zs:
            wave = np.exp(-1j * z * credible._NEAR_T)
            got = wave @ credible._LEG_NEAR
            for k in range(credible._IMHOF_NODES):
                ref = 2.0 * (-1j) ** k * _spherical_jn_mp(k, z)
                assert abs(got[k] - ref) <= 8.0 * eps, (z, k)


def test_gauss_and_filon_panels_agree_at_the_switch():
    # On the first panel of a trunc-1000 law, at |z| = 15 +- 1e-9, the
    # Gauss rule and the Filon sum with 30-digit spherical Bessel values give
    # the same integral within a few eps of the panel's size, so a CDF or
    # density value does not step where a panel changes rule.
    eps = np.finfo(float).eps
    law = _WeightedChiSquare(IMHOF_LAWS["trunc-1000"])
    p = 0
    with mpmath.workdps(30):
        for z in (15.0 - 1e-9, 15.0 + 1e-9, -15.0 - 1e-9, -15.0 + 1e-9):
            nu = z / law.half[p]
            j = np.array([(1 if z > 0 else -1) ** k * _spherical_jn_mp(k, abs(z))
                          for k in range(credible._IMHOF_NODES)])
            turn = np.exp(-1j * nu * law.center[p])
            for moments, near in ((law.moments, law.near),
                                  (law.density_moments, law.density_near)):
                filon = (moments[p] * j).sum() * turn
                gauss = (near[p] * np.exp(-1j * nu * law.abscissae[p])).sum()
                assert abs(filon - gauss) <= 8.0 * eps * np.abs(near[p]).sum()


def test_sine_integral_against_mpmath():
    # Both sides of the series/continued-fraction switch at |x| = 4, large
    # arguments where the continued fraction must still stop, and the
    # limits: within 4 eps relative of 30-digit values.
    eps = np.finfo(float).eps
    xs = [4.0, math.nextafter(4.0, 0.0), math.nextafter(4.0, 5.0), 1e-10,
          1.0, 2.5, 10.0, 1e6, 1e15, 1e17, 1e300]
    assert credible._sine_integral(0.0) == 0.0
    with mpmath.workdps(30):
        for x in xs:
            for signed in (x, -x):
                ref = float(mpmath.si(signed))
                got = credible._sine_integral(signed)
                assert abs(got - ref) <= 4.0 * eps * abs(ref), signed
    assert credible._sine_integral(math.inf) == math.pi / 2.0
    assert credible._sine_integral(-math.inf) == -math.pi / 2.0
    assert math.isnan(credible._sine_integral(math.nan))


@pytest.mark.parametrize("weights", IMHOF_LAWS.values(), ids=IMHOF_LAWS.keys())
def test_panel_cuts_match_one_linspace_per_edge(weights, monkeypatch):
    # The vectorized panel cuts keep linspace's bits, so the tables do not
    # move; a noncentral law is cut the same way.
    bias = np.linspace(0.0, 1.0, weights.size)
    laws = [_WeightedChiSquare(weights), _WeightedChiSquare(weights, bias)]
    monkeypatch.setattr(credible, "_panel_cuts", linspace_cuts)
    for law, ref in zip(laws, (_WeightedChiSquare(weights),
                               _WeightedChiSquare(weights, bias))):
        np.testing.assert_array_equal(law.center, ref.center)
        np.testing.assert_array_equal(law.half, ref.half)


def test_imhof_sums_match_the_combined_loop():
    # The law's evaluator does the arithmetic of the combined loop, bit for
    # bit, at the split point and past it: one point, a few edges, and
    # enough points that the directly summed coordinates come in several
    # column blocks. The edges start at u = 0, and the swing of the direct
    # c terms matches its own loop on noncentral splits; a central split
    # has none.
    rng = np.random.default_rng(11)
    lams = [IMHOF_LAWS[name] for name in
            ("trunc-1000", "trunc-1000-noise", "dominant")]
    lams.append(rng.exponential(size=300))
    most_direct = 0
    for weights in lams:
        lam = weights[weights > 0] / weights.max()
        c = rng.uniform(0.0, 1.0, lam.size)
        for u in (np.array([0.7]), np.geomspace(0.05, 80.0, 12),
                  np.sort(rng.uniform(0.0, 3e3, 2000)) + 1e-3):
            edges = np.concatenate(([0.0], u))
            for at in (float(u.max()), 4.0 * float(u.max())):
                a, _, log_rho, _ = imhof_sums(
                    lam, u, at, credible._SERIES_EDGE, credible._SERIES_TERMS,
                    credible._BLOCK)
                split = credible._imhof_split(lam, at)
                got = credible._imhof_sums(split, u)
                for g, r in zip(got, (a, log_rho)):
                    np.testing.assert_array_equal(g, r)
                _, d_a, log_rho, beta = imhof_sums(
                    lam, edges, at, credible._SERIES_EDGE,
                    credible._SERIES_TERMS, credible._BLOCK)
                got = credible._imhof_sums(split, edges, edges=True)
                assert len(got) == 4
                for g, r in zip(got, (d_a, log_rho, beta, np.zeros(u.size))):
                    np.testing.assert_array_equal(g, r)
                split = credible._imhof_split(lam, at, c)
                swing = credible._imhof_sums(split, edges, edges=True)[3]
                np.testing.assert_array_equal(swing, direct_swing(
                    lam, c, u, at, credible._SERIES_EDGE, credible._BLOCK))
                assert np.any(swing > 0.0)
                most_direct = max(most_direct, split.lam.size
                                  // (credible._BLOCK // edges.size))
    assert most_direct >= 2   # direct coordinates in several column blocks


def test_imhof_law_takes_one_split_and_two_evaluations(monkeypatch):
    # The coordinates are split once, at the head's cut-off bound U*; one
    # evaluation at 0 and every doubling through U* finds the cut-off and
    # gives the panel edges, and one more gives the panel cuts and nodes.
    splits, evals = [], []
    split, sums = credible._imhof_split, credible._imhof_sums
    monkeypatch.setattr(credible, "_imhof_split",
                        lambda *args: splits.append(args) or split(*args))
    monkeypatch.setattr(credible, "_imhof_sums", lambda sp, u, edges=False:
                        evals.append((sp.at, u, edges, sums(sp, u, edges)))
                        or evals[-1][3])
    for name, doublings in (("trunc-1000", 6), ("one", 67), ("dominant", 43)):
        splits.clear()
        evals.clear()
        law = _WeightedChiSquare(IMHOF_LAWS[name])
        assert len(splits) == 1 and len(evals) == 2, name
        (at, ladder, edges, got), (at_nodes, nodes, node_edges, _) = evals
        u0 = math.sqrt(2.0) / law.sd
        np.testing.assert_array_equal(ladder, np.concatenate(
            ([0.0], u0 * 2.0 ** np.arange(doublings))))
        assert edges and not node_edges, name
        # falling A', log rho and beta at 0 and every doubling, and the
        # swing between them, which a central law does not have
        assert [g.size for g in got] == [doublings + 1] * 3 + [doublings]
        np.testing.assert_array_equal(got[3], np.zeros(doublings))
        assert at == at_nodes == splits[0][1] == ladder[-1], name
        assert law.center[-1] + law.half[-1] == pytest.approx(at, rel=1e-15)
        assert nodes.size == law.center.size * (credible._IMHOF_NODES + 1)


def test_cutoff_bound_lies_at_or_past_the_cutoff():
    # The head's bound U* never falls short of the whole law's cut-off U,
    # also where U* lies past it: a flat law of 2000 weights, whose 64
    # largest decay far more slowly than the whole, and weights in random
    # order, which the head is picked from in blocks.
    rng = np.random.default_rng(5)
    laws = list(IMHOF_LAWS.values()) + [np.full(2000, 0.5),
                                        rng.permutation(IMHOF_LAWS["trunc-1000"])]
    for weights in laws:
        law = _WeightedChiSquare(weights)
        lam = weights[weights > 0] / law.scale
        u0 = math.sqrt(2.0) / law.sd
        bound = credible._cutoff_bound(lam, None, u0)
        cut, _ = imhof_cutoff(lam, credible._IMHOF_TAIL, credible._SERIES_EDGE,
                              credible._SERIES_TERMS, credible._BLOCK)
        assert cut <= u0 * 2.0 ** bound
        head, _ = credible._largest(lam, None)
        np.testing.assert_array_equal(np.sort(head),
                                      np.sort(lam)[-credible._IMHOF_HEAD:])


def test_imhof_radius_extreme_weights_finite():
    # A single dominant noise weight (integral cut far out), and 1e5
    # coordinates with about 1e4 comparable weights.
    for alpha, p, n, trunc in ((10.0, 2.0, 1e4, 500),
                               (0.5, 0.0, 1e8, 100_000)):
        w = _weights(alpha=alpha, p=p, n=n, trunc=trunc)
        for ws in (w, w.noise_only()):
            r, abserr = ball_radius(ws, 0.05, method="imhof", full_output=True)
            assert math.isfinite(r) and r > 0.0
            assert math.isfinite(abserr) and abserr <= 1e-8 * r
            r_sat = satterthwaite_radius(ws.s_w, 0.05)
            assert r == pytest.approx(r_sat, rel=1e-3)


def test_ball_coverage_self_consistency():
    # Radius calibrated on the sampling law itself covers at 1 - gamma.
    w = _weights(trunc=500, n=1e4)
    noise = w.noise_only()
    r = ball_radius(noise, gamma=0.05, method="monte-carlo",
                    mc_samples=200_000, seed=child_seed(8, 2))
    report = ball_coverage(w, np.zeros(500), r, mc_samples=20_000,
                           seed=child_seed(8, 3))
    assert report.mc_stderr == pytest.approx(
        math.sqrt(report.coverage * (1.0 - report.coverage) / 20_000))
    assert abs(report.coverage - 0.95) <= 0.01


def test_ball_coverage_separation():
    # Bias norm far beyond radius + sampling spread forces coverage ~ 0.
    w = _weights(trunc=500, n=1e4)
    r = ball_radius(w, gamma=0.05, method="monte-carlo", mc_samples=20_000,
                    seed=child_seed(8, 4))
    total = r * r + float(w.t_w.sum())
    bias = np.zeros(500)
    bias[0] = math.sqrt(100.0 * total)
    report = ball_coverage(w, bias, r, mc_samples=20_000, seed=child_seed(8, 5))
    assert report.coverage <= 0.001


def test_monte_carlo_does_not_depend_on_block_size(monkeypatch):
    # 10000 draws span two keyed chunks; a tiny block budget splits every
    # chunk into many row blocks (and single rows) of the same streams.
    w = _weights(trunc=300, n=1e4)
    bias = np.full(300, 1e-3)
    mc = dict(method="monte-carlo", mc_samples=10_000, seed=child_seed(8, 7))
    r = ball_radius(w, 0.05, **mc)
    report = mc_ball_coverage(w, bias, 0.9 * r, 10_000, child_seed(8, 8))
    for budget in (1000, 1):
        monkeypatch.setattr(credible, "_MC_BLOCK", budget)
        assert ball_radius(w, 0.05, **mc) == r
        assert mc_ball_coverage(w, bias, 0.9 * r, 10_000,
                                child_seed(8, 8)) == report


def test_ball_coverage_memory_is_bounded():
    # 2000 x 2e4 normals at once would be 320 MB.
    w = _weights(trunc=20_000, n=1e4)
    tracemalloc.start()
    try:
        ball_coverage(w, np.zeros(20_000), 1.0, mc_samples=2000, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20


def _coverage_cell(trunc, n=1e4):
    """Weights, demo-truth bias and 0.95 radius of a ball cell whose
    coverage lies near 1/3."""
    prior = PriorSpec(alpha=1.5, tau=1.0, trunc=trunc)
    fwd = ForwardSpec.polynomial(p=1.0, trunc=trunc)
    w = credible_weights(prior, fwd, n)
    bias = bias_coordinates(prior, fwd, make_truth("demo", trunc), n)
    return w, bias, ball_radius(w, 0.05)


def test_noncentral_law_single_weight_closed_form():
    # (sqrt(w) Z + b)^2 <= x iff |Z + d| <= sqrt(x/w), d = b / sqrt(w); the
    # density is (phi(s - d) + phi(s + d)) / (2 sqrt(x w)), s = sqrt(x/w).
    # For one weight the density's integrand decays only like u^(-1/2), so
    # its cut-off error (up to 3e-9 here) is far above the CDF's.
    for w, b in ((2.0, 0.0), (2.0, 1.0), (0.5, 3.0), (1.0, 0.1), (3.0, -5.0)):
        law = _WeightedChiSquare(np.array([w]), np.array([b]))
        d = b / math.sqrt(w)
        for x in (0.05, 1.0, 4.0, 20.0, 80.0):
            s = math.sqrt(x / w)
            cdf, density = law.cdf_pdf(x / law.scale)
            assert cdf == pytest.approx(
                stats.norm.cdf(s - d) - stats.norm.cdf(-s - d), abs=1e-12)
            ref = (stats.norm.pdf(s - d) + stats.norm.pdf(s + d)) \
                / (2.0 * math.sqrt(x * w))
            assert density / law.scale == pytest.approx(ref, abs=1e-8)


@pytest.mark.parametrize("weights", IMHOF_LAWS.values(), ids=IMHOF_LAWS.keys())
def test_noncentral_law_zero_bias_is_central(weights):
    central = _WeightedChiSquare(weights)
    law = _WeightedChiSquare(weights, np.zeros(weights.size))
    assert (law.mean, law.sd, law.offset) == (central.mean, central.sd, 0.0)
    for prob in (0.05, 0.5, 0.95):
        x = central.quantile(prob)[0] / central.scale
        assert law.cdf_pdf(x) == pytest.approx(central.cdf_pdf(x),
                                               rel=1e-14, abs=1e-15)


def test_noncentral_law_zero_weights_shift_by_their_bias():
    # Coordinates with w_i = 0 add the constant sum b_i^2 to Q; one b_i^2
    # above every weight and every other b_i^2 also changes the units.
    w, bias, r = _coverage_cell(300)
    law = _WeightedChiSquare(w.t_w, bias)
    for extra in ([0.3, -0.2, 0.1], [3.0, 0.0, 0.0]):
        shifted = _WeightedChiSquare(np.concatenate((w.t_w, np.zeros(3))),
                                     np.concatenate((bias, extra)))
        shift = float(np.sum(np.square(extra)))
        assert shifted.offset * shifted.scale == pytest.approx(shift,
                                                               rel=1e-15)
        for x in (0.5, 1.0, 2.0):
            x *= r * r
            cdf, density = shifted.cdf_pdf((x + shift) / shifted.scale)
            ref_cdf, ref_density = law.cdf_pdf(x / law.scale)
            assert cdf == pytest.approx(ref_cdf, rel=1e-12, abs=1e-15)
            assert density / shifted.scale == pytest.approx(
                ref_density / law.scale, rel=1e-9)


def test_noncentral_series_branch_matches_direct_sums(monkeypatch):
    # The power series of the c terms against summing every coordinate
    # directly (no coordinate below a zero series edge).
    w, bias, r = _coverage_cell(1000)
    law = _WeightedChiSquare(w.t_w, bias)
    monkeypatch.setattr(credible, "_SERIES_EDGE", 0.0)
    direct = _WeightedChiSquare(w.t_w, bias)
    for x in (0.8, 1.0, 1.25):
        x *= r * r / law.scale
        assert law.cdf_pdf(x) == pytest.approx(direct.cdf_pdf(x), rel=1e-11)


def test_noncentral_panels_keep_the_phase_near_its_chord(monkeypatch):
    # A(u) is not concave once c > 0: a few weights with a large bias make
    # its c terms turn inside the integral. With the panels cut by the
    # phase bound alone (no decay bound), A leaves its chord by at most
    # _IMHOF_PHASE at 64 points of every panel.
    monkeypatch.setattr(credible, "_IMHOF_DECAY", math.inf)
    weights = np.array([1.0, 0.3, 0.05, 1e-3, 1e-6])
    bias = np.array([4.0, 0.5, 2.0, 0.3, 0.01])
    law = _WeightedChiSquare(weights, bias)
    lam, c = weights / law.scale, bias * bias / law.scale
    lo, hi = law.center - law.half, law.center + law.half
    split = credible._imhof_split(lam, hi[-1], c)
    for a, b, slope in zip(lo, hi, law.slope):
        u = np.linspace(a, b, 64)[1:]
        phase = credible._imhof_sums(split, u)[0]
        start = credible._imhof_sums(split, np.array([a]))[0][0] \
            if a > 0 else 0.0
        gap = phase - start - slope * (u - a)
        assert np.max(np.abs(gap)) <= credible._IMHOF_PHASE


def test_ball_coverage_matches_monte_carlo_oracle():
    # The exact P of a trunc-1000 cell against 20000 draws of the normal
    # block loop, within 6 standard errors.
    w, bias, r = _coverage_cell(1000)
    report = ball_coverage(w, bias, r, mc_samples=500, seed=3)
    assert 0.2 < report.exact < 0.5
    assert report.abserr <= credible._IMHOF_TAIL
    p_mc, _ = mc_ball_coverage(w, bias, r, 20_000, child_seed(8, 9))
    se = math.sqrt(report.exact * (1.0 - report.exact) / 20_000)
    assert abs(p_mc - report.exact) <= 6.0 * se


def test_ball_coverage_draw_is_binomial_at_the_exact_probability():
    # Each report is hits/m with hits ~ Binomial(m, P) from its own stream;
    # the mean over 200 streams lies within 6 standard errors of P.
    w, bias, r = _coverage_cell(300)
    m, seeds = 500, 200
    reports = [ball_coverage(w, bias, r, mc_samples=m, seed=child_seed(8, k))
               for k in range(seeds)]
    p = reports[0].exact
    assert {rep.exact for rep in reports} == {p}
    for rep in reports:
        assert rep.coverage * m == round(rep.coverage * m)
        assert rep.mc_stderr == pytest.approx(
            math.sqrt(rep.coverage * (1.0 - rep.coverage) / m), rel=1e-15)
    mean = math.fsum(rep.coverage for rep in reports) / seeds
    assert abs(mean - p) <= 6.0 * math.sqrt(p * (1.0 - p) / (m * seeds))
    assert ball_coverage(w, bias, r, mc_samples=m, seed=child_seed(8, 0)) \
        == reports[0]


@pytest.mark.parametrize("weights", IMHOF_LAWS.values(), ids=IMHOF_LAWS.keys())
def test_imhof_cutoff_matches_one_point_search(weights):
    # The tail search evaluates a ladder of doublings per pass; it stops at
    # the doubling that the one-point-per-doubling search stops at, so the
    # panels and the radius keep their bits.
    law = _WeightedChiSquare(weights)
    lam = weights[weights > 0] / law.scale
    cut, tail = imhof_cutoff(lam, credible._IMHOF_TAIL, credible._SERIES_EDGE,
                             credible._SERIES_TERMS, credible._BLOCK)
    assert law.center[-1] + law.half[-1] == pytest.approx(cut, rel=1e-15)
    assert law.tail == pytest.approx(tail, rel=1e-12)


def test_ball_coverage_without_sampling_spread():
    # Without sampling spread the posterior mean is the truth plus the
    # bias, inside the ball or not: with every t_i = 0, and at the smallest
    # positive n, where the one positive t_i is 5e-324 (c = b^2 / max(t)
    # used to overflow there, and the tail search never ended).
    prior = PriorSpec(alpha=1.0, tau=1.0, trunc=5)
    smallest = credible_weights(
        prior, ForwardSpec.polynomial(p=1.0, trunc=5), 5e-324)
    assert np.count_nonzero(smallest.t_w) == 1
    zero = EigenWeights(s_w=np.ones(5), t_w=np.zeros(5))
    bias = np.full(5, 0.5)
    for w in (zero, smallest):
        for r, p in ((1.2, 1.0), (1.1, 0.0)):
            report = ball_coverage(w, bias, r, mc_samples=50, seed=1)
            assert report == (p, 0.0, p, 0.0)
    assert ball_coverage(zero, np.zeros(5), 0.0, mc_samples=50) \
        == (1.0, 0.0, 1.0, 0.0)
    # a spread far below the bias: a normal of sd 2 sqrt(sum b^2 t) ~ 1e-150
    # about sum b^2 = 1.25
    tiny = EigenWeights(s_w=np.ones(5), t_w=np.full(5, 1e-300))
    for r, p in ((1.2, 1.0), (1.1, 0.0)):
        assert ball_coverage(tiny, bias, r, mc_samples=50, seed=1).exact \
            == pytest.approx(p, abs=1e-9)


def test_ball_coverage_at_a_radius_whose_square_overflows():
    # r * r = inf used to reach math.sin(inf) in the spherical Bessel values
    # (ValueError: math domain error); the CDF there is 1 and the density 0.
    w = EigenWeights([1.0, 0.5], [0.5, 0.2])
    assert ball_coverage(w, [0.1, 0.1], 1e100, 100).exact == 1.0
    for r in (1e160, math.inf):
        report = ball_coverage(w, [0.1, 0.1], r, 100)
        assert (report.coverage, report.exact) == (1.0, 1.0), r
    law = _WeightedChiSquare(w.t_w, [0.1, 0.1])
    assert law.cdf_pdf(math.inf) == (1.0, 0.0)
    assert law.cdf_pdf(1e308) == (1.0, 0.0)
    assert law.cdf_pdf(-math.inf) == (0.0, 0.0)
    with pytest.raises(DegenerateInputError):
        law.cdf_pdf(math.nan)


def test_ball_coverage_validation():
    w = _weights(trunc=10)
    for r in (-1.0, math.nan):
        with pytest.raises(ValueError):
            ball_coverage(w, np.zeros(10), r)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            ball_coverage(w, np.full(10, bad), 1.0)
    with pytest.raises(DimensionMismatchError):
        ball_coverage(w, np.zeros(9), 1.0)


def test_interval_coverage_values():
    # s = t, no bias: exactly the credible level.
    assert interval_coverage(0.0, 1.0, 1.0, 0.05) == pytest.approx(0.95,
                                                                   rel=1e-12)
    # Spread twice the sampling sd: 2 Phi(2 * 1.959964) - 1.
    assert interval_coverage(0.0, 2.0, 1.0, 0.05) == pytest.approx(0.999912,
                                                                   abs=1e-6)
    # Overwhelming bias kills coverage.
    assert interval_coverage(50.0, 1.0, 1.0, 0.05) <= 1e-100
    with pytest.raises(ValueError):
        interval_coverage(0.0, 1.0, 1.0, 0.0)
    with pytest.raises(ValueError, match="bias is nan"):
        interval_coverage(math.nan, 1.0, 1.0, 0.05)
    with pytest.raises(DegenerateInputError):
        interval_coverage(0.0, 0.0, 1.0, 0.05)


def test_interval_coverage_matches_ndtr_formula_bitwise():
    # Bit for bit the docstring's formula on util's normal law; scipy.stats
    # agrees within 8 ulps of each Phi(x) times its condition 1 + |x| phi/Phi
    # (the quantiles z may differ by a few ulps, which |x| phi carries).
    def scale(x):
        return stats.norm.cdf(x) + abs(x) * stats.norm.pdf(x)

    for bias in (-30.0, -1.0, 0.0, 1e-9, 0.7, 5.0):
        for s_n in (1e-6, 0.3, 1.0, 40.0):
            for t_n in (1e-6, 0.3, 1.0, 40.0):
                for gamma in (1e-10, 0.01, 0.05, 0.3, 0.99):
                    cov = interval_coverage(bias, s_n, t_n, gamma)
                    z = ndtri(gamma / 2.0)
                    hi, lo = (-z * s_n - bias) / t_n, (z * s_n - bias) / t_n
                    assert cov == ndtr(hi) - ndtr(lo)
                    z = stats.norm.ppf(gamma / 2.0)
                    hi, lo = (-z * s_n - bias) / t_n, (z * s_n - bias) / t_n
                    ref = stats.norm.cdf(hi) - stats.norm.cdf(lo)
                    assert abs(cov - ref) <= 8 * EPS * (scale(hi) + scale(lo))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(t=st.floats(1e-8, 1e6), mult=st.floats(1.0, 1e4),
       gamma=st.floats(0.001, 0.5))
def test_interval_conservative_when_spread_dominates(t, mult, gamma):
    s = t * mult
    cov = interval_coverage(0.0, s, t, gamma)
    assert cov >= 1.0 - gamma - 1e-12


def test_tv_matches_closed_form():
    # For sds lo < hi the densities cross at +-x*, and the TV distance is
    # 2 (Phi(x*/lo) - Phi(x*/hi)).
    for s, t in ((1.0, 0.5), (2.0, 1.9), (1.0, 0.999), (3.0, 0.1)):
        lo, hi = min(s, t), max(s, t)
        x_star = math.sqrt(2.0 * math.log(hi / lo)
                           * lo ** 2 * hi ** 2 / (hi ** 2 - lo ** 2))
        closed = 2.0 * (stats.norm.cdf(x_star / lo) - stats.norm.cdf(x_star / hi))
        assert _tv_centered_normals(s, t) == pytest.approx(closed, abs=1e-10)
    assert _tv_centered_normals(1.3, 1.3) == 0.0


@settings(max_examples=60, deadline=None, derandomize=True)
@given(s=st.floats(1e-3, 1e3), t=st.floats(1e-3, 1e3),
       k=st.integers(-200, 200))
def test_tv_scale_invariant(s, t, k):
    assert _tv_centered_normals(s * 10.0 ** k, t * 10.0 ** k) == pytest.approx(
        _tv_centered_normals(s, t), abs=1e-12)


def test_tv_extreme_scales():
    tv = _tv_centered_normals(1.0, 10.0)
    assert _tv_centered_normals(1e-200, 1e-199) == pytest.approx(tv, abs=1e-15)
    assert _tv_centered_normals(1e200, 1e199) == pytest.approx(tv, abs=1e-15)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(k=st.integers(-150, 150))
def test_tv_accurate_at_ratio_1e_minus_4(k):
    # Reference through the chi-square cdf: P(|X_lo| <= x*) - P(|X_hi| <= x*).
    lo, hi = 1e-4 * 10.0 ** k, 10.0 ** k
    rho = lo / hi
    x_lo_sq = 2.0 * math.log(1.0 / rho) / (1.0 - rho * rho)
    ref = stats.chi2.cdf(x_lo_sq, 1) - stats.chi2.cdf(rho * rho * x_lo_sq, 1)
    assert _tv_centered_normals(lo, hi) == pytest.approx(ref, abs=1e-12)
    assert _tv_centered_normals(hi, lo) == pytest.approx(ref, abs=1e-12)


def test_tv_relative_accuracy_against_mpmath():
    # As rho = lo/hi -> 1 the two erfc values agree in all but the last
    # log10(1/d) digits, d = 1 - rho; the distance keeps its relative digits.
    mpmath.mp.dps = 50
    for d in [*np.logspace(-15.0, math.log10(0.999), 60), 0.4999, 0.5, 0.5001]:
        for scale in (1e-200, 1.0, 1e200):
            lo, hi = scale * (1.0 - d), scale
            rho = mpmath.mpf(lo) / mpmath.mpf(hi)
            a = mpmath.sqrt(2 * mpmath.log(1 / rho) / (1 - rho * rho))
            ref = (mpmath.erfc(rho * a / mpmath.sqrt(2))
                   - mpmath.erfc(a / mpmath.sqrt(2)))
            got = _tv_centered_normals(lo, hi)
            assert abs(got - ref) <= 1e-14 * ref, (d, scale)


def test_bvm_diagnostics_basis_vector():
    trunc = 200
    prior = PriorSpec(alpha=1.0, tau=1.0, trunc=trunc)
    fwd = ForwardSpec.polynomial(p=1.0, trunc=trunc)
    n = 1e4
    e1 = np.zeros(trunc)
    e1[0] = 1.0
    truth = make_truth("demo", trunc)
    diag = bvm_diagnostics(prior, fwd, Functional(coeffs=e1),
                           truth, n, beta=1.0)
    g1 = n * 1.0 * 1.0
    assert diag.sup_bias == pytest.approx(1.0 / (1.0 + g1), rel=1e-12)
    assert diag.ratio >= 1.0
    assert 0.0 <= diag.tv <= 1.0
    # On the first coordinate: s_1 = 1/(1+g), t_1 = g/(1+g)^2, kappa_1 = 1.
    assert diag.s_n == pytest.approx(math.sqrt(1.0 / (1.0 + g1)), rel=1e-15)
    assert diag.t_n == pytest.approx(math.sqrt(g1) / (1.0 + g1), rel=1e-15)
    assert diag.bias == pytest.approx(-truth.coeffs[0] / (1.0 + g1),
                                      rel=1e-15)
    assert diag.ratio == diag.s_n / diag.t_n
    assert diag.plugin_limit == 1.0


def test_bvm_ratio_decreases_for_matched_decay():
    # q = p: the interval ratio s_n/t_n falls toward 1 as n grows.
    trunc = 3000
    prior = PriorSpec(alpha=1.0, tau=1.0, trunc=trunc)
    fwd = ForwardSpec.polynomial(p=1.0, trunc=trunc)
    i = np.arange(1.0, trunc + 1)
    l = Functional(coeffs=i ** -1.5)
    truth = make_truth("demo", trunc)
    ratios = [bvm_diagnostics(prior, fwd, l, truth, n, beta=1.0).ratio
              for n in (1e4, 1e6, 1e8)]
    assert ratios[0] > ratios[1] > ratios[2] > 1.0


def test_bvm_degenerate_functional():
    prior = PriorSpec(alpha=1.0, tau=1.0, trunc=10)
    fwd = ForwardSpec.polynomial(p=1.0, trunc=10)
    truth = make_truth("demo", 10)
    with pytest.raises(DegenerateInputError):
        bvm_diagnostics(prior, fwd, Functional(coeffs=np.zeros(10)),
                        truth, 1e4, beta=1.0)
    with pytest.raises(DimensionMismatchError):
        bvm_diagnostics(prior, fwd, Functional(coeffs=np.zeros(9)),
                        truth, 1e4, beta=1.0)
    with pytest.raises(DimensionMismatchError):
        bvm_diagnostics(prior, fwd, Functional(coeffs=np.ones(10)),
                        make_truth("demo", 9), 1e4, beta=1.0)


def test_ball_statistic_concentrates():
    # sdev(U)/E(U) for U = sum s_i Z_i^2 decreases as n grows: the radius
    # statistic concentrates, which is what makes fixed-radius balls honest.
    vals = []
    for n in (1e4, 1e6, 1e8):
        w = _weights(trunc=5000, n=n)
        mean = float(w.s_w.sum())
        sd = math.sqrt(2.0 * float((w.s_w ** 2).sum()))
        vals.append(sd / mean)
    assert vals[0] > vals[1] > vals[2]
