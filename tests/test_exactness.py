"""The numerical primitives of the package against 50-digit mpmath.

Each check states its bound as a number of ulps (EPS = 2^-52, relative)
times a condition estimate: how much an error of one ulp in the inputs, or
in the intermediate the primitive rounds, moves the exact result. Where
scipy has the same function, it is held to the same bound as a
cross-check. The primitives replace scipy.special and scipy.optimize in the
package:

- util.ndtr and util.ndtri, the normal law (interval coverage, the quantile
  of credible intervals and of the Volterra bands);
- rates._scaled_zeta, the Hurwitz zeta values of the lemma series;
- rates._harmonic, the harmonic numbers of the functional rate's boundary;
- rates._bracketed_root, the root search of the tau balance;
- credible._gamma_quantile, the start of a ball radius search that
  Wilson-Hilferty would put below Cantelli's end.
"""
import math

import mpmath
import numpy as np
import pytest
from scipy import optimize, special

from seqinv import credible, rates
from seqinv.util import ndtr, ndtri

EPS = 2.0 ** -52
TINY = 2.0 ** -1074       # the smallest subnormal


@pytest.fixture(autouse=True)
def fifty_digits():
    with mpmath.workdps(50):
        yield


def _ndtr_bound(x: float):
    """2 ulps of Phi(x) + |x| phi(x): the argument x / sqrt(2) is rounded,
    and Phi's relative condition in x is |x| phi(x) / Phi(x); plus one
    smallest subnormal where Phi underflows."""
    ref = mpmath.ncdf(x)
    return ref, 2 * EPS * (ref + abs(x) * mpmath.npdf(x)) + TINY


NDTR_RANGES = {"central": np.linspace(-1.5, 1.5, 61),
               "lower": -np.geomspace(1.0, 38.4, 80),
               "upper": np.geomspace(1.0, 8.3, 40)}


@pytest.mark.parametrize("where", NDTR_RANGES)
def test_ndtr(where):
    for x in NDTR_RANGES[where].tolist() + [0.9999999999999999, -1.0]:
        ref, bound = _ndtr_bound(x)
        assert abs(ndtr(x) - ref) <= bound, x
        if ref >= 2.0 ** -1022:   # scipy flushes a subnormal Phi to 0
            assert abs(float(special.ndtr(x)) - ref) <= bound, x


NDTRI_RANGES = {"central": np.linspace(0.001, 0.999, 81),
                "lower": np.geomspace(1e-300, 1e-3, 60),
                "upper": 1.0 - np.geomspace(1e-16, 1e-3, 30)}


@pytest.mark.parametrize("where", NDTRI_RANGES)
def test_ndtri(where):
    # The input p is exact, and 1 - p and p - 1/2 are formed exactly, so
    # the bound is relative to z: 4 ulps of |z|.
    for p in NDTRI_RANGES[where].tolist() + [0.005, 0.025, 0.05, 0.1]:
        z = mpmath.findroot(lambda t: mpmath.ncdf(t) - p,
                            float(special.ndtri(p)))
        for got in (ndtri(p), float(special.ndtri(p))):
            assert abs(got - z) <= 4 * EPS * abs(z), (p, got)
    assert ndtri(0.5) == 0.0


def _zeta_case(s: float, a: float):
    """Z(s, a) = a^s zeta(s, a) and its condition |s dlog Z / ds|: each
    term exp(-s log1p(j/a)) carries a relative error of a few ulps of its
    exponent s log1p(j/a), and kappa is those exponents' mean over the
    terms' weights."""
    with mpmath.workdps(50 + math.ceil(s * math.log10(a))):
        zeta = mpmath.zeta(s, a)
        ref = zeta * mpmath.mpf(a) ** s
        kappa = s * abs(mpmath.zeta(s, a, 1) / zeta + mpmath.log(a))
        return +ref, +kappa


@pytest.mark.parametrize("a", [1.0, 41.0, 1001.0, 40_001.0])
def test_scaled_zeta(a):
    # At a = 1 it is the Riemann zeta(s) of the series' v = 0 case; at
    # a = K + 1 the tail of a series head of K terms. s runs on both sides
    # of s log a = 700, where an earlier version switched from scipy's
    # zeta(s, a) a^s to this sum. scipy is held to the bound at a = 1 only:
    # below that switch its product was off by up to 18 ulps (s = 101.2,
    # a = 1001, where zeta(s, a) is near 1e-303).
    # mpmath needs about s log10(a) more digits, so the large s are taken
    # at a = 1 only.
    ss = [1.0001, 1.5, 2.0, 3.0, 41.0]
    if a == 1.0:
        ss += [150.0, 603.0, 2000.0]
    else:
        ss += [f * 700.0 / math.log(a) for f in (0.9, 0.999, 1.001, 1.1)]
    for s in ss:
        ref, kappa = _zeta_case(s, a)
        bound = 2 * EPS * ref * (1 + kappa)
        assert abs(rates._scaled_zeta(s, a) - ref) <= bound, (s, a)
        if a == 1.0:
            assert abs(special.zeta(s) - ref) <= bound, s


@pytest.mark.parametrize("m", [1, 2, 7, 63, 64, 65, 100, 8193, 10 ** 7,
                               10 ** 15])
def test_harmonic(m):
    # Either way the result is an exactly rounded sum of terms each within
    # half an ulp of its own value (log m, gamma and the corrections
    # included): 2 ulps of H_m, condition 1.
    ref = mpmath.harmonic(m)
    assert abs(rates._harmonic(m) - ref) <= 2 * EPS * ref
    assert abs(float(special.digamma(m + 1.0)) + np.euler_gamma - ref) \
        <= 2 * EPS * ref


def _rounded(f):
    """f evaluated at 50 digits and rounded once, with a call count."""
    def g(x):
        g.calls += 1
        return float(f(mpmath.mpf(x)))
    g.calls = 0
    return g


ROOT_CASES = [   # f, bracket, exact root (formed at 50 digits)
    (lambda x: x ** 3 - 2, (0.0, 2.0), lambda: mpmath.cbrt(2)),
    (lambda x: mpmath.cos(x) - x, (0.0, 1.0),
     lambda: mpmath.findroot(lambda x: mpmath.cos(x) - x, 0.74)),
    (lambda x: mpmath.exp(x) - 5, (-3.0, 30.0), lambda: mpmath.log(5)),
    (lambda x: mpmath.atan(x - 1e-3), (-18.0, 18.0), lambda: mpmath.mpf(1e-3)),
    (lambda x: mpmath.inf if x < -1 else 0.5 - x, (-18.0, 18.0),
     lambda: mpmath.mpf(0.5)),
    (lambda x: (x - 0.3) ** 5, (-18.0, 18.0), lambda: mpmath.mpf(0.3)),
]


@pytest.mark.parametrize("case", range(len(ROOT_CASES)))
def test_bracketed_root(case):
    # The function is rounded once, so its sign is exact wherever it is
    # not 0: the returned midpoint lies within xtol / 2 of the root, plus
    # one ulp of the root for the midpoint's own rounding (condition 1).
    # It takes at most four times bisection's steps, plus the two ends.
    # brentq, the search it replaced, is held to the same bound (at the
    # five-fold root it needs more than its default 100 iterations).
    f, (a, b), root = ROOT_CASES[case]
    root = root()
    for xtol in (1e-12, 1e-6):
        g = _rounded(f)
        got = rates._bracketed_root(g, a, b, g(a), g(b), xtol)
        assert abs(got - root) <= xtol / 2 + EPS * abs(root), got
        assert g.calls <= 2 + 4 * math.ceil(math.log2((b - a) / xtol))
        ref = optimize.brentq(_rounded(f), a, b, xtol=xtol, maxiter=500)
        assert abs(ref - root) <= xtol / 2 + EPS * abs(root)


def _gamma_case(a: float, prob: float):
    """The Gamma(a, 1) quantile and the condition of the Newton search on
    log P against y = log x: rounding y costs |y| ulps of x, and log P is
    formed with an absolute error of a few ulps of 1 + a|y| + x +
    |lgamma(a + 1)|, which moves y by that over d log P / dy."""
    with mpmath.workdps(60):
        def log_p(t):
            return mpmath.log(mpmath.gammainc(a, 0, mpmath.exp(t),
                                              regularized=True))
        y = mpmath.findroot(lambda t: log_p(t) - mpmath.log(prob),
                            math.log(float(special.gammaincinv(a, prob))))
        x = mpmath.exp(y)
        slope = mpmath.diff(log_p, y)
        kappa = abs(y) + (1 + a * abs(y) + x + abs(mpmath.loggamma(a + 1))) \
            / slope
        return +x, +kappa


@pytest.mark.parametrize("a", [0.5, 0.75, 1.0, 2.5, 10.0, 100.0])
def test_gamma_quantile(a):
    for prob in (1e-100, 1e-12, 1e-3, 0.1, 0.5, 0.9, 0.999):
        ref, kappa = _gamma_case(a, prob)
        bound = 2 * EPS * ref * (1 + kappa)
        assert abs(credible._gamma_quantile(a, prob) - ref) <= bound, prob
        assert abs(float(special.gammaincinv(a, prob)) - ref) <= bound, prob
