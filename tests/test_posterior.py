import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqinv.model import (
    ForwardSpec,
    Observation,
    PriorSpec,
    Truth,
    generate_observation,
    make_truth,
)
from seqinv.posterior import (
    Functional,
    coordinate_posterior,
    bias_coordinates,
    functional_interval,
    posterior_draws,
    risk_decomposition,
)
from seqinv.credible import bvm_diagnostics
from seqinv.util import DimensionMismatchError, child_seed

from helpers import functional_marginal, grid_posterior


def _single_coordinate_problem(lam, kappa, n, y):
    # Wrap one coordinate as a full problem: alpha/tau chosen so the first
    # eigenvalue equals lam, kappa stored directly.
    prior = PriorSpec(alpha=1.0, tau=math.sqrt(lam), trunc=1)
    fwd = ForwardSpec.custom([kappa], p=1.0)
    return prior, fwd, Observation(n=n, y=[y])


def test_conjugate_update_hand_value():
    # lambda = kappa = 1, n = 3, y = 2: posterior N(3*2/4, 1/4).
    prior, fwd, obs = _single_coordinate_problem(1.0, 1.0, 3.0, 2.0)
    post = coordinate_posterior(prior, fwd, obs)
    assert post.mean[0] == pytest.approx(1.5)
    assert post.var[0] == pytest.approx(0.25)


def test_conjugate_update_matches_grid_oracle():
    rng = np.random.default_rng(12)
    for _ in range(10):
        lam = 10.0 ** rng.uniform(-3, 3)
        kappa = 10.0 ** rng.uniform(-3, 3)
        n = 10.0 ** rng.uniform(-3, 3)
        y = rng.normal(scale=2.0)
        prior, fwd, obs = _single_coordinate_problem(lam, kappa, n, y)
        post = coordinate_posterior(prior, fwd, obs)
        mean, var = grid_posterior(n, lam, kappa, y)
        assert abs(post.mean[0] - mean) <= 1e-9
        assert abs(post.var[0] - var) <= 1e-9


def test_shrinkage_bounds():
    prior = PriorSpec(alpha=1.5, tau=2.0, trunc=300)
    fwd = ForwardSpec.volterra(trunc=300)
    truth = make_truth("demo", 300)
    obs = generate_observation(3, truth, fwd, n=1e4)
    post = coordinate_posterior(prior, fwd, obs)
    kap = fwd.singular_values()
    lam = prior.eigenvalues()
    # |m| <= |Y|/kappa and v <= min(lambda, 1/(n kappa^2)), coordinatewise.
    assert np.all(np.abs(post.mean) <= np.abs(obs.y) / kap)
    assert np.all(post.var <= lam)
    assert np.all(post.var <= 1.0 / (obs.n * kap ** 2))


def test_degenerate_gain_limits():
    # kappa -> 0 returns the prior; huge gain pins the mean near y/kappa.
    prior, fwd, obs = _single_coordinate_problem(2.0, 1e-300, 1.0, 5.0)
    post = coordinate_posterior(prior, fwd, obs)
    assert post.mean[0] == pytest.approx(0.0, abs=1e-290)
    assert post.var[0] == pytest.approx(2.0)

    prior, fwd, obs = _single_coordinate_problem(2.0, 1.0, 1e300, 5.0)
    post = coordinate_posterior(prior, fwd, obs)
    assert post.mean[0] == pytest.approx(5.0, rel=1e-12)
    assert post.var[0] <= 1e-290


def test_risk_decomposition_n_zero_gives_prior():
    prior = PriorSpec(alpha=1.0, tau=1.0, trunc=100)
    fwd = ForwardSpec.polynomial(p=1.0, trunc=100)
    truth = make_truth("demo", 100)
    risk = risk_decomposition(prior, fwd, truth, n=0.0)
    assert risk.sq_bias == pytest.approx(float(truth.coeffs @ truth.coeffs),
                                         rel=1e-14)
    assert risk.variance == 0.0
    assert risk.spread == pytest.approx(float(prior.eigenvalues().sum()),
                                        rel=1e-12)
    assert risk.estimator_risk == risk.sq_bias
    assert risk.posterior_risk == pytest.approx(risk.sq_bias + risk.spread)


def test_risk_zero_truth():
    prior = PriorSpec(alpha=1.0, tau=1.0, trunc=50)
    fwd = ForwardSpec.polynomial(p=0.5, trunc=50)
    truth = Truth(coeffs=np.zeros(50))
    risk = risk_decomposition(prior, fwd, truth, n=100.0)
    assert risk.sq_bias == 0.0
    assert risk.variance > 0.0


def test_risk_matches_monte_carlo():
    prior = PriorSpec(alpha=1.0, tau=1.0, trunc=400)
    fwd = ForwardSpec.polynomial(p=1.0, trunc=400)
    truth = make_truth("demo", 400)
    n = 1e3
    risk = risk_decomposition(prior, fwd, truth, n=n)
    reps = 2000
    vals = np.empty(reps)
    for r in range(reps):
        obs = generate_observation(child_seed(77, r), truth, fwd, n)
        err = coordinate_posterior(prior, fwd, obs).mean - truth.coeffs
        vals[r] = err @ err
    se = vals.std(ddof=1) / math.sqrt(reps)
    assert abs(vals.mean() - risk.estimator_risk) <= 3.0 * se


def test_bias_coordinates_sign_and_mismatch():
    prior = PriorSpec(alpha=1.0, tau=1.0, trunc=10)
    fwd = ForwardSpec.polynomial(p=1.0, trunc=10)
    truth = make_truth("smooth", 10, beta=1.0, eps=0.1)
    b = bias_coordinates(prior, fwd, truth, n=10.0)
    assert np.all(b <= 0.0)
    g = 10.0 * prior.eigenvalues() * fwd.singular_values() ** 2
    np.testing.assert_allclose(b, -truth.coeffs / (1.0 + g), rtol=1e-15)
    with pytest.raises(DimensionMismatchError):
        bias_coordinates(prior, fwd, make_truth("demo", 9), n=10.0)


def test_functional_marginal_basis_vector():
    # The interval's s_n is the sd of the functional's posterior law: on a
    # basis vector, that of the coordinate.
    prior = PriorSpec(alpha=1.0, tau=1.0, trunc=20)
    fwd = ForwardSpec.polynomial(p=1.0, trunc=20)
    truth = make_truth("demo", 20)
    obs = generate_observation(4, truth, fwd, n=100.0)
    post = coordinate_posterior(prior, fwd, obs)
    e1 = np.zeros(20)
    e1[0] = 1.0
    marg = functional_marginal(post, e1)
    assert marg.mean == pytest.approx(post.mean[0])
    assert marg.s_n_sq == pytest.approx(post.var[0])
    s_n, _, _ = functional_interval(prior, fwd, Functional(coeffs=e1),
                                    truth, 100.0)
    assert s_n * s_n == pytest.approx(marg.s_n_sq, rel=1e-15)

    zero = Functional(coeffs=np.zeros(20))
    assert functional_marginal(post, zero.coeffs) == (0.0, 0.0)
    assert functional_interval(prior, fwd, zero, truth, 100.0) == (0.0, 0.0,
                                                                   0.0)


def test_functional_marginal_linearity():
    prior = PriorSpec(alpha=1.0, tau=1.0, trunc=30)
    fwd = ForwardSpec.polynomial(p=1.0, trunc=30)
    obs = generate_observation(5, make_truth("demo", 30), fwd, n=100.0)
    post = coordinate_posterior(prior, fwd, obs)
    rng = np.random.default_rng(6)
    l1 = rng.standard_normal(30)
    l2 = rng.standard_normal(30)
    a = functional_marginal(post, l1)
    b = functional_marginal(post, l2)
    c = functional_marginal(post, 2.0 * l1 - l2)
    assert c.mean == pytest.approx(2.0 * a.mean - b.mean, rel=1e-10, abs=1e-12)
    # The interval's bias is linear in the functional too.
    truth = make_truth("demo", 30)
    bias = [functional_interval(prior, fwd, Functional(coeffs=c),
                                truth, 100.0)[2] for c in (l1, l2, 2.0 * l1 - l2)]
    assert bias[2] == pytest.approx(2.0 * bias[0] - bias[1], rel=1e-10,
                                    abs=1e-12)


def test_functional_marginal_matches_draws():
    prior = PriorSpec(alpha=1.0, tau=1.0, trunc=50)
    fwd = ForwardSpec.polynomial(p=1.0, trunc=50)
    obs = generate_observation(7, make_truth("demo", 50), fwd, n=50.0)
    post = coordinate_posterior(prior, fwd, obs)
    lcoef = np.exp(-0.1 * np.arange(1, 51))
    marg = functional_marginal(post, lcoef)

    draws = posterior_draws(8, post, 100_000)
    vals = draws @ lcoef
    se_mean = math.sqrt(marg.s_n_sq / vals.size)
    assert abs(vals.mean() - marg.mean) <= 4.0 * se_mean
    se_var = marg.s_n_sq * math.sqrt(2.0 / (vals.size - 1))
    assert abs(vals.var(ddof=1) - marg.s_n_sq) <= 4.0 * se_var


def test_posterior_draws_reproducible_and_degenerate():
    prior = PriorSpec(alpha=1.0, tau=1.0, trunc=5)
    fwd = ForwardSpec.polynomial(p=1.0, trunc=5)
    obs = generate_observation(9, make_truth("demo", 5), fwd, n=10.0)
    post = coordinate_posterior(prior, fwd, obs)
    np.testing.assert_array_equal(posterior_draws(1, post, 3),
                                  posterior_draws(1, post, 3))
    from seqinv.posterior import PosteriorSummary
    flat = PosteriorSummary(mean=post.mean, var=np.zeros(5))
    np.testing.assert_array_equal(posterior_draws(1, flat, 4),
                                  np.broadcast_to(post.mean, (4, 5)))
    with pytest.raises(ValueError):
        posterior_draws(1, post, 0)


def test_functional_interval_zero_truth_and_sign():
    prior = PriorSpec(alpha=1.0, tau=1.0, trunc=40)
    fwd = ForwardSpec.polynomial(p=1.0, trunc=40)
    zero = Truth(coeffs=np.zeros(40))
    l = Functional(coeffs=np.ones(40))
    _, t_n, bias = functional_interval(prior, fwd, l, zero, 100.0)
    assert bias == 0.0
    assert t_n > 0.0

    pos = make_truth("smooth", 40, beta=1.0, eps=0.1)
    assert functional_interval(prior, fwd, l, pos, 100.0)[2] < 0.0
    with pytest.raises(DimensionMismatchError):
        functional_interval(prior, fwd, l, make_truth("demo", 39), 100.0)


def test_functional_interval_matches_bvm_diagnostics():
    # One set of sums serves both: the bvm row's s_n, t_n and bias are the
    # interval's, bit for bit.
    prior = PriorSpec(alpha=0.5, tau=2.0, trunc=60)
    fwd = ForwardSpec.volterra(trunc=60)
    truth = make_truth("demo", 60)
    l = Functional(coeffs=np.arange(1, 61, dtype=float) ** -1.5)
    diag = bvm_diagnostics(prior, fwd, l, truth, 1e4, beta=1.0)
    assert functional_interval(prior, fwd, l, truth, 1e4) == (
        diag.s_n, diag.t_n, diag.bias)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(alpha=st.floats(0.1, 5.0), tau=st.floats(0.01, 100.0),
       p=st.floats(0.0, 3.0), log_n=st.floats(-3.0, 12.0))
def test_variance_never_exceeds_spread(alpha, tau, p, log_n):
    # lambda g/(1+g)^2 <= lambda/(1+g) holds exactly in floating point
    # because the variance term is the spread term times g/(1+g) <= 1.
    trunc = 200
    n = 10.0 ** log_n
    prior = PriorSpec(alpha=alpha, tau=tau, trunc=trunc)
    fwd = ForwardSpec.polynomial(p=p, trunc=trunc)
    truth = Truth(coeffs=np.zeros(trunc))
    risk = risk_decomposition(prior, fwd, truth, n=n)
    assert risk.variance <= risk.spread

    l = Functional(coeffs=np.ones(trunc))
    s_n, t_n, _ = functional_interval(prior, fwd, l, truth, n)
    assert t_n <= s_n
