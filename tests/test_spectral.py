"""The blocked spectral pass against the full-array formulas it replaced.

Every public function built on model._spectral_blocks must give the bits of
the full-array expression it replaced, summed with stable_sum. The
references below write those expressions out over whole arrays, so a
block boundary (8192 coordinates) that changed a sum's association or an
element's rounding shows as a difference.
"""
import math
import tracemalloc

import numpy as np
import pytest

from seqinv import credible, harness, model, posterior, volterra
from seqinv.credible import bvm_diagnostics, credible_weights
from seqinv.harness import (
    ExperimentConfig,
    run_bvm,
    run_contraction,
    run_functional_coverage,
)
from seqinv.model import (
    ForwardSpec,
    PriorSpec,
    _spectral_blocks,
    extremal_truth_functional,
    gain,
    generate_observation,
    make_truth,
    sobolev_norm,
)
from seqinv.posterior import (
    Functional,
    bias_coordinates,
    coordinate_posterior,
    functional_interval,
    risk_decomposition,
)
from seqinv.rates import RegimeParams
from seqinv.util import (
    DimensionMismatchError,
    RegimeError,
    child_seed,
    ndtri,
    stable_sum,
)

TRUNCS = (1, 8191, 8192, 8193, 3 * 8192 + 5, 100_000)
N = 3e4
BETA = 1.3


def _forward(kind, trunc):
    if kind == "poly":
        return ForwardSpec.polynomial(1.5, trunc)
    if kind == "volterra":
        return ForwardSpec.volterra(trunc)
    i = np.arange(1, trunc + 1, dtype=float)
    return ForwardSpec.custom((1.0 + 0.5 * np.sin(i)) / i, p=1.0)


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


class Reference:
    """The full-array spectral terms, as the package computed them before."""

    def __init__(self, prior, fwd, n):
        i = np.arange(1, prior.trunc + 1, dtype=float)
        if fwd.kind is model.KappaKind.EXACT_POLYNOMIAL:
            kap = i ** (-fwd.p)
        elif fwd.kind is model.KappaKind.VOLTERRA:
            kap = 1.0 / ((i - 0.5) * math.pi)
        else:
            kap = np.asarray(fwd.custom_values, dtype=float)
        self.i = i
        self.lam = prior.tau ** 2 * i ** (-1.0 - 2.0 * prior.alpha)
        self.kap = kap
        self.g = n * self.lam * kap ** 2
        self.denom = 1.0 + self.g
        self.shrink = self.g / (1.0 + self.g)
        self.s = self.lam / (1.0 + self.g)
        self.t = self.s * self.shrink


@pytest.fixture(scope="module", params=["poly", "volterra", "custom"])
def kind(request):
    return request.param


@pytest.mark.parametrize("trunc", TRUNCS)
def test_blocked_pass_is_bit_identical(trunc, kind):
    prior = PriorSpec(alpha=0.8, tau=0.7, trunc=trunc)
    fwd = _forward(kind, trunc)
    ref = Reference(prior, fwd, N)
    truth = make_truth("demo", trunc)
    mu = truth.coeffs
    lcoef = ref.i ** -1.5 * np.cos(ref.i)
    l = Functional(coeffs=lcoef)
    l_sq = lcoef ** 2

    assert _bits(gain(prior, fwd, N)) == _bits(ref.g)

    w = credible_weights(prior, fwd, N)
    assert _bits(w.s_w) == _bits(ref.s)
    assert _bits(w.t_w) == _bits(ref.t)

    obs = generate_observation(5, truth, fwd, N)
    post = coordinate_posterior(prior, fwd, obs)
    assert _bits(post.mean) == _bits(N * ref.lam * ref.kap * obs.y / ref.denom)
    assert _bits(post.var) == _bits(ref.lam / ref.denom)

    assert _bits(bias_coordinates(prior, fwd, truth, N)) == \
        _bits(-mu / ref.denom)

    b = mu / ref.denom
    assert risk_decomposition(prior, fwd, truth, N) == \
        posterior.RiskDecomposition(stable_sum(b * b), stable_sum(ref.t),
                                    stable_sum(ref.s))

    s_n = math.sqrt(stable_sum(l_sq * ref.s))
    t_n = math.sqrt(stable_sum(l_sq * ref.t))
    bias = -stable_sum(lcoef * mu / ref.denom)
    assert functional_interval(prior, fwd, l, truth, N) == (s_n, t_n, bias)

    sup = math.sqrt(stable_sum(
        l_sq * ref.i ** (-2.0 * BETA) / (ref.denom * ref.denom)))
    assert bvm_diagnostics(prior, fwd, l, truth, N, BETA) == \
        credible.BvmDiagnostics(s_n, t_n, bias, s_n / t_n, sup,
                                credible._tv_centered_normals(s_n, t_n),
                                stable_sum(l_sq / ref.kap ** 2))

    ext = ref.i ** (-2.0 * BETA) * lcoef / (1.0 + ref.g)
    norm = math.sqrt(stable_sum(ext * ext * ref.i ** (2.0 * BETA)))
    assert sobolev_norm(ext, BETA) == norm
    assert _bits(extremal_truth_functional(lcoef, BETA, prior, fwd, N).coeffs) \
        == _bits(ext / norm)

    # The contraction cell's pass: the risk decomposition, and the Monte
    # Carlo check drawn as a normal and then a chi-square per coordinate,
    # block by block, from the cell's stream.
    rd, mc, se = harness._contraction_pass(prior, fwd, truth, N, 3, 11, 4)
    assert rd == risk_decomposition(prior, fwd, truth, N)
    rng = np.random.default_rng(child_seed(11, 4))
    z = np.empty(trunc)
    w = np.empty(trunc)
    for start in range(0, trunc, 8192):
        size = min(8192, trunc - start)
        z[start:start + size] = rng.standard_normal(size)
        w[start:start + size] = rng.chisquare(2, size)
    err = np.sqrt(ref.t / 3) * z - mu / ref.denom
    assert (mc, se) == (
        stable_sum(err * err) + stable_sum(ref.t * w) / 3,
        math.sqrt(2.0 * stable_sum(ref.t * (ref.t + 2.0 * b * b)) / 3))


def _cell_config(kind, trunc, truth_spec, functional_spec):
    return ExperimentConfig(
        kind=kind, regime=RegimeParams(alpha=0.8, beta=BETA, p=1.0),
        truth_spec=truth_spec, functional_spec=functional_spec,
        n_grid=(N,), replicates=1,
        trunc_policy={"mode": "fixed", "value": trunc},
        extras={"kappa_kind": "volterra"})


@pytest.mark.parametrize("trunc", [8191, 3 * 8192 + 5])
def test_interval_cells_are_bit_identical(trunc):
    # The bvm and coverage-functional rows, against the cell bodies that
    # took s_n and t_n from credible_weights beside bvm_diagnostics and the
    # functional's bias sum. Every column sums t_n^2 as sum l^2 t.
    spec = {"kind": "power", "q": 1.0}
    cfg = _cell_config("bvm", trunc, {"pattern": "demo"}, spec)
    prior = PriorSpec(alpha=0.8, tau=1.0, trunc=trunc)
    fwd = ForwardSpec.volterra(trunc)
    l = harness._functional_for(cfg, trunc)
    truth = make_truth("demo", trunc)
    ref = Reference(prior, fwd, N)
    l_sq = l.coeffs ** 2
    s_n = math.sqrt(stable_sum(l_sq * ref.s))
    t_n = math.sqrt(stable_sum(l_sq * ref.t))
    bias = -stable_sum(l.coeffs * truth.coeffs / ref.denom)
    cov = credible.interval_coverage(bias, s_n, t_n, cfg.gamma)
    sup = math.sqrt(stable_sum(
        l_sq * ref.i ** (-2.0 * BETA) / (ref.denom * ref.denom)))
    plugin = stable_sum(l_sq / ref.kap ** 2)
    row = run_bvm(cfg).rows[0]
    assert row[:12] == (N, trunc, s_n, t_n, s_n / t_n, sup, sup / t_n,
                        credible._tv_centered_normals(s_n, t_n), bias, cov,
                        N * t_n * t_n, plugin)
    cfg = _cell_config("coverage-functional", trunc, {"pattern": "demo"}, spec)
    row = run_functional_coverage(cfg).rows[0]
    assert row[7:9] == (-ndtri(cfg.gamma / 2.0) * s_n, cov)


def _late_overflow_forward(trunc):
    # kappa^2 overflows at coordinate 9000 only, in the second block.
    vals = 1.0 / np.arange(1, trunc + 1, dtype=float)
    vals[8999] = 1e200
    return ForwardSpec.custom(vals, p=1.0)


def test_late_block_overflow_is_regime_error():
    trunc = 3 * 8192
    prior = PriorSpec(alpha=1.0, tau=1.0, trunc=trunc)
    fwd = _late_overflow_forward(trunc)
    blocks = _spectral_blocks(prior, fwd, 1.0)
    first = next(blocks)
    assert first.sl == slice(0, 8192) and np.all(np.isfinite(first.g))
    with pytest.raises(RegimeError):
        next(blocks)
    truth = make_truth("demo", trunc)
    l = Functional(coeffs=np.ones(trunc))
    for call in (lambda: gain(prior, fwd, 1.0),
                 lambda: credible_weights(prior, fwd, 1.0),
                 lambda: risk_decomposition(prior, fwd, truth, 1.0),
                 lambda: functional_interval(prior, fwd, l, truth, 1.0),
                 lambda: bvm_diagnostics(prior, fwd, l, truth, 1.0, 1.0),
                 lambda: extremal_truth_functional(l.coeffs, 1.0, prior,
                                                   fwd, 1.0)):
        with pytest.raises(RegimeError):
            call()


def test_bad_arguments_raise_before_any_block(monkeypatch):
    def no_block(*args):
        raise AssertionError("a block was formed")

    monkeypatch.setattr(model, "_index_blocks", no_block)
    prior = PriorSpec(alpha=1.0, tau=1.0, trunc=5)
    fwd = ForwardSpec.polynomial(1.0, 5)
    with pytest.raises(DimensionMismatchError):
        _spectral_blocks(prior, ForwardSpec.polynomial(1.0, 6), 10.0)
    with pytest.raises(DimensionMismatchError):
        gain(prior, ForwardSpec.polynomial(1.0, 6), 10.0)
    for n in (math.inf, math.nan, -1.0):
        with pytest.raises(ValueError):
            _spectral_blocks(prior, fwd, n)
        with pytest.raises(ValueError):
            gain(prior, fwd, n)


@pytest.mark.parametrize("kind, truth, functional", [
    ("bvm", {"pattern": "demo"}, {"kind": "power", "q": 2.0}),
    ("coverage-functional", {"pattern": "extremal"},
     {"kind": "point", "x": 0.25}),
])
def test_interval_cell_memory_is_bounded(kind, truth, functional):
    # One cell at trunc 1e6 holds the functional and the truth (8 MB each)
    # plus block temporaries; the full-array cells peaked at 84 MB.
    cfg = _cell_config(kind, 1_000_000, truth, functional)
    runner = run_bvm if kind == "bvm" else run_functional_coverage
    tracemalloc.start()
    try:
        runner(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 40e6


@pytest.mark.parametrize("trunc", [1, 8193, 1_000_000])
def test_in_place_sequences_keep_their_bits(trunc):
    # The stock truths and functionals form their coefficients in place,
    # with the bits of the full-array expressions they replaced. At trunc
    # 1e6 the demo truth holds one 8 MB temporary (sin i) beside its result
    # and the others none; the expressions peaked at 24, 17, 24, 17 and
    # 24 MB.
    i = np.arange(1, trunc + 1, dtype=float)

    def functional(spec):
        cfg = _cell_config("bvm", trunc, {"pattern": "demo"}, spec)
        return harness._functional_for(cfg, trunc)

    cases = [
        (lambda: make_truth("demo", trunc), i ** -1.5 * np.sin(i), 2.25),
        (lambda: make_truth("smooth", trunc, beta=BETA, eps=0.01),
         i ** (-0.5 - BETA - 0.01), 1.25),
        (lambda: volterra.point_functional(0.3, trunc),
         math.sqrt(2.0) * np.cos((i - 0.5) * math.pi * 0.3), 1.25),
        (lambda: functional({"kind": "power", "q": 1.0, "scale": 3.0}),
         3.0 * i ** (-1.0 - 0.5), 1.25),
        (lambda: functional({"kind": "exp", "rate": 0.5}), np.exp(-0.5 * i),
         1.25),
    ]
    for build, ref, peak_ratio in cases:
        tracemalloc.start()
        try:
            coeffs = build().coeffs
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert _bits(coeffs) == _bits(ref)
        if trunc == 1_000_000:
            assert peak < peak_ratio * coeffs.nbytes


@pytest.mark.parametrize("kind, functional", [
    ("contraction", None),
    ("bvm", {"kind": "power", "q": 2.0}),
    ("coverage-functional", {"kind": "exp", "rate": 0.5}),
])
def test_one_spectral_pass_per_cell(kind, functional, monkeypatch):
    created = []
    real = model._spectral_blocks

    def counting(*args):
        created.append(args)
        return real(*args)

    for mod in (model, posterior, credible):
        monkeypatch.setattr(mod, "_spectral_blocks", counting)
    cfg = ExperimentConfig(
        kind=kind, regime=RegimeParams(alpha=1.0, beta=1.0, p=1.0),
        truth_spec={"pattern": "demo"}, functional_spec=functional,
        n_grid=(1e3, 1e5, 1e7), replicates=2,
        trunc_policy={"mode": "fixed", "value": 20_000})
    runner = {"contraction": run_contraction, "bvm": run_bvm,
              "coverage-functional": run_functional_coverage}[kind]
    assert len(runner(cfg).rows) == 3
    assert len(created) == 3
