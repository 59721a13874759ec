import math

import numpy as np
import pytest

from seqinv.model import (
    MAX_TRUNC,
    ForwardSpec,
    KappaKind,
    Observation,
    PriorSpec,
    Truth,
    default_trunc,
    extremal_truth_functional,
    gain,
    generate_observation,
    make_truth,
    sobolev_norm,
    spike_truth_ball,
)
from seqinv.util import DegenerateInputError, DimensionMismatchError, \
    RegimeError, TruncationError


def test_prior_eigenvalue_decay_ratio():
    prior = PriorSpec(alpha=0.7, tau=1.3, trunc=400)
    lam = prior.eigenvalues()
    i = np.arange(1, 201)
    np.testing.assert_allclose(lam[i - 1] / lam[2 * i - 1],
                               2.0 ** (1.0 + 2 * 0.7), rtol=1e-12)
    assert lam[0] == pytest.approx(1.3 ** 2)


def test_prior_validation():
    with pytest.raises(ValueError):
        PriorSpec(alpha=0.0, tau=1.0, trunc=10)
    with pytest.raises(ValueError):
        PriorSpec(alpha=1.0, tau=-1.0, trunc=10)
    with pytest.raises(ValueError):
        PriorSpec(alpha=1.0, tau=1.0, trunc=0)


def test_tau_overflow_is_regime_error():
    # tau^2 beyond the float range used to raise a bare OverflowError from
    # eigenvalues(), and n tau^2 one from spike_truth_ball.
    with pytest.raises(RegimeError):
        PriorSpec(alpha=1.0, tau=1e200, trunc=5)
    prior = PriorSpec(alpha=1.0, tau=1e150, trunc=5)
    assert np.all(np.isfinite(prior.eigenvalues()))
    with pytest.raises(RegimeError):
        spike_truth_ball(prior, ForwardSpec.polynomial(p=1.0, trunc=5), 1e10,
                         beta=1.0, target_bias_sq=1.0)


def test_forward_polynomial_and_custom():
    fwd = ForwardSpec.polynomial(p=2.0, trunc=5)
    np.testing.assert_allclose(fwd.singular_values(),
                               np.arange(1.0, 6.0) ** -2.0)

    custom = ForwardSpec.custom([1.0, 0.3, 0.1], p=1.0)
    assert custom.trunc == 3
    np.testing.assert_allclose(custom.singular_values(), [1.0, 0.3, 0.1])
    with pytest.raises(ValueError):
        ForwardSpec.custom([1.0, -0.5], p=1.0)
    with pytest.raises(ValueError):
        ForwardSpec(p=1.0, kind=KappaKind.EXACT_POLYNOMIAL, trunc=2,
                    custom_values=(1.0, 2.0))


def test_forward_volterra_band():
    fwd = ForwardSpec.volterra(trunc=5000)
    kap = fwd.singular_values()
    assert kap[0] == pytest.approx(2.0 / math.pi, rel=1e-15)
    assert kap[1] == pytest.approx(2.0 / (3.0 * math.pi), rel=1e-15)
    ratio = kap * fwd.indices()
    # i * kappa_i = i / ((i - 1/2) pi) decreases from 2/pi toward 1/pi.
    assert ratio.max() == pytest.approx(2.0 / math.pi)
    assert np.all(ratio > 1.0 / math.pi)


def test_truth_and_observation_validation():
    with pytest.raises(ValueError):
        Truth(coeffs=[1.0, np.inf])
    with pytest.raises(DimensionMismatchError):
        Truth(coeffs=[[1.0], [2.0]])
    with pytest.raises(ValueError):
        Observation(n=0.0, y=[1.0])
    t = Truth(coeffs=[1.0, 2.0])
    with pytest.raises(ValueError):
        t.coeffs[0] = 5.0


def test_make_truth_demo_values():
    t = make_truth("demo", 3)
    i = np.array([1.0, 2.0, 3.0])
    np.testing.assert_allclose(t.coeffs, i ** -1.5 * np.sin(i), rtol=1e-15)
    # the demo pattern reads no smoothness parameter, so it takes none
    with pytest.raises(ValueError, match="reads neither beta nor eps"):
        make_truth("demo", 3, beta=2.0)


def test_make_truth_smooth_and_custom():
    t = make_truth("smooth", 10, beta=1.5, eps=0.01)
    assert t.coeffs[0] == 1.0
    np.testing.assert_allclose(t.coeffs[3], 4.0 ** (-0.5 - 1.5 - 0.01))
    # any other sequence is a Truth of its coefficients
    c = Truth(coeffs=[0.1, 0.2])
    np.testing.assert_allclose(c.coeffs, [0.1, 0.2])
    for kind in ("custom", "nope"):
        with pytest.raises(ValueError, match="unknown truth kind"):
            make_truth(kind, 3)


def test_sobolev_norm_values():
    assert sobolev_norm([0.0, 1.0], s=1.0) == pytest.approx(2.0)
    assert sobolev_norm([3.0], s=7.0) == 3.0
    rng = np.random.default_rng(2)
    a = rng.standard_normal(50)
    assert sobolev_norm(a, s=0.0) == pytest.approx(float(np.linalg.norm(a)),
                                                   rel=1e-12)
    a = make_truth("demo", 1000).coeffs
    i = np.arange(1, 1001, dtype=float)
    direct = math.sqrt(math.fsum(a * a * i ** 1.8))
    assert sobolev_norm(a, s=0.9) == pytest.approx(direct, rel=1e-12)


def test_sobolev_norm_demo_marginality():
    # The demo sequence sits exactly on the smoothness-1 boundary: the
    # squared norm at s = 1 keeps growing like (log trunc)/2 while any
    # s < 1 norm has already converged.
    n1 = sobolev_norm(make_truth("demo", 100_000).coeffs, s=0.5)
    n2 = sobolev_norm(make_truth("demo", 200_000).coeffs, s=0.5)
    assert abs(n2 / n1 - 1.0) < 1e-3

    m1 = sobolev_norm(make_truth("demo", 100_000).coeffs, s=1.0)
    m2 = sobolev_norm(make_truth("demo", 200_000).coeffs, s=1.0)
    assert 0.02 < m2 / m1 - 1.0 < 0.04


def test_gain_shape_and_mismatch():
    prior = PriorSpec(alpha=1.0, tau=2.0, trunc=4)
    fwd = ForwardSpec.polynomial(p=1.0, trunc=4)
    g = gain(prior, fwd, n=100.0)
    np.testing.assert_allclose(
        g, 100.0 * 4.0 * np.arange(1.0, 5.0) ** -3.0 * np.arange(1.0, 5.0) ** -2.0)
    with pytest.raises(DimensionMismatchError):
        gain(prior, ForwardSpec.polynomial(p=1.0, trunc=5), n=100.0)
    np.testing.assert_array_equal(gain(prior, fwd, n=0.0), np.zeros(4))


def test_generate_observation_deterministic_and_noiseless():
    truth = make_truth("demo", 200)
    fwd = ForwardSpec.polynomial(p=1.0, trunc=200)
    y1 = generate_observation(31, truth, fwd, n=50.0)
    y2 = generate_observation(31, truth, fwd, n=50.0)
    np.testing.assert_array_equal(y1.y, y2.y)
    assert y1.n == 50.0

    clean = generate_observation(31, truth, fwd, n=1e300)
    np.testing.assert_allclose(clean.y, fwd.singular_values() * truth.coeffs,
                               atol=1e-140)
    with pytest.raises(DimensionMismatchError):
        generate_observation(31, make_truth("demo", 100), fwd, n=50.0)


def test_generate_observation_first_coordinate_moments():
    # Y_1 = mu_1 + Z_1/2 at n = 4 with kappa_1 = 1: mean 0.3, variance 1/4.
    truth = Truth(coeffs=[0.3, -0.2])
    fwd = ForwardSpec.polynomial(p=1.0, trunc=2)
    m = 100_000
    y1 = np.empty(m)
    for s in range(m):
        y1[s] = generate_observation(s, truth, fwd, n=4.0).y[0]
    se_mean = 0.5 / math.sqrt(m)
    assert abs(y1.mean() - 0.3) <= 3.0 * se_mean
    se_var = 0.25 * math.sqrt(2.0 / (m - 1))
    assert abs(y1.var(ddof=1) - 0.25) <= 3.0 * se_var


def test_extremal_truth_functional():
    trunc = 400
    prior = PriorSpec(alpha=2.0, tau=1.0, trunc=trunc)
    fwd = ForwardSpec.volterra(trunc=trunc)
    n = 1e6
    lcoef = np.exp(-0.01 * np.arange(1, trunc + 1))
    ext = extremal_truth_functional(lcoef, 1.0, prior, fwd, n)
    assert sobolev_norm(ext.coeffs, 1.0) == pytest.approx(1.0, rel=1e-12)

    g = gain(prior, fwd, n)
    bias_ext = abs(float(np.sum(lcoef * ext.coeffs / (1.0 + g))))
    rng = np.random.default_rng(5)
    best = 0.0
    for _ in range(2000):
        mu = rng.standard_normal(trunc)
        mu /= sobolev_norm(mu, 1.0)
        best = max(best, abs(float(np.sum(lcoef * mu / (1.0 + g)))))
    assert bias_ext >= 0.5 * best

    e3 = np.zeros(trunc)
    e3[2] = 1.0
    spike = extremal_truth_functional(e3, 1.0, prior, fwd, n)
    assert spike.coeffs[2] == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert np.count_nonzero(spike.coeffs) == 1

    with pytest.raises(DegenerateInputError):
        extremal_truth_functional(np.zeros(trunc), 1.0, prior, fwd, n)
    with pytest.raises(DimensionMismatchError):
        extremal_truth_functional(np.ones(7), 1.0, prior, fwd, n)


def test_spike_truth_ball():
    prior = PriorSpec(alpha=1.0, tau=1.0, trunc=2000)
    fwd = ForwardSpec.polynomial(p=1.0, trunc=2000)
    truth = spike_truth_ball(prior, fwd, n=1e6, beta=1.0, target_bias_sq=0.03)
    nz = np.flatnonzero(truth.coeffs)
    assert list(nz) == [15]  # index 16: round(1e6^(1/5)) = round(15.85)

    g = gain(prior, fwd, 1e6)[15]
    bias_sq = (truth.coeffs[15] / (1.0 + g)) ** 2
    assert bias_sq == pytest.approx(0.03, rel=1e-10)

    first = spike_truth_ball(prior, fwd, n=1e6, beta=6.0, target_bias_sq=0.03)
    assert list(np.flatnonzero(first.coeffs)) == [0]

    with pytest.raises(TruncationError) as exc:
        spike_truth_ball(PriorSpec(alpha=1.0, tau=1.0, trunc=10),
                         ForwardSpec.polynomial(p=1.0, trunc=10),
                         n=1e6, beta=1.0, target_bias_sq=0.03)
    assert exc.value.required_trunc == 16

    with pytest.raises(ValueError):
        spike_truth_ball(prior, fwd, n=1e6, beta=1.0, target_bias_sq=0.0)


def test_spike_truth_ball_beyond_first_block():
    # i_n = sqrt(n tau^2) = 10_000 lies in the second block of 8192
    # coordinates; the spike's gain is the full gain array's, bit for bit.
    trunc, n = 20_000, 1e8
    prior = PriorSpec(alpha=0.5, tau=1.0, trunc=trunc)
    fwd = ForwardSpec.polynomial(p=0.0, trunc=trunc)
    truth = spike_truth_ball(prior, fwd, n, beta=1.0, target_bias_sq=0.03)
    assert list(np.flatnonzero(truth.coeffs)) == [9999]
    g = gain(prior, fwd, n)[9999]
    assert truth.coeffs[9999] == math.sqrt(0.03) * (1.0 + g)

    # kappa^2 overflows at coordinate 9000, in the spike's block.
    vals = np.ones(trunc)
    vals[8999] = 1e200
    with pytest.raises(RegimeError):
        spike_truth_ball(prior, ForwardSpec.custom(vals, p=0.0), n,
                         beta=1.0, target_bias_sq=0.03)


def test_default_trunc():
    assert default_trunc(10.0, alpha=1.0, p=1.0) == 1000
    assert default_trunc(1e12, alpha=1.0, p=1.0) == 2512
    assert default_trunc(1e12, alpha=1.0, p=1.0, factor=20.0) == 5024
    assert default_trunc(1e12, alpha=1.0, p=1.0, floor=5000) == 5000
    with pytest.raises(ValueError):
        default_trunc(0.0, alpha=1.0, p=1.0)


def test_default_trunc_cap():
    assert default_trunc(1e12, alpha=0.5, p=0.0) == 10_000_000
    with pytest.raises(TruncationError) as err:
        default_trunc(1e300, 0.01, 0.0)
    assert err.value.required_trunc > MAX_TRUNC
    with pytest.raises(TruncationError) as err:
        default_trunc(1e12, alpha=0.5, p=0.0, factor=10.5)
    assert err.value.required_trunc == 10_500_000
    # n tau^2 overflows: no finite truncation exists.
    with pytest.raises(TruncationError) as err:
        default_trunc(1e300, 0.5, 0.0, tau=1e10)
    assert err.value.required_trunc is None
    with pytest.raises(TruncationError) as err:
        default_trunc(1e10, 0.5, 0.0, tau=1e200)
    assert err.value.required_trunc is None
