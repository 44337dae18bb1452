"""Tests of the benchmark's reference computations (python3 -m pytest benchmarks).

The references judge the program, so they are checked here against
computations of a different kind: mpmath quadrature at 30 digits, direct
convolution, and direct sums over a sample.
"""

import math

import mpmath as mp
import numpy as np
import pytest

import refs

ALPHA, LAM = 9.0, 8.0
mp.mp.dps = 30


def _survival(x):
    return (1 + mp.mpf(x) / LAM) ** (-ALPHA)


def _cdf(x):
    return 1 - _survival(x)


@pytest.mark.parametrize("d", [1e-3, 0.03, 0.3, 1.0, 2.7, 6.0, 25.0])
def test_lomax_moments_match_quadrature(d):
    mu1 = mp.quad(_survival, [0, d])
    mu2 = 2 * mp.quad(lambda x: x * _survival(x), [0, d])
    nu1 = mp.quad(_survival, [d, mp.inf])
    nu2 = 2 * mp.quad(lambda x: (x - d) * _survival(x), [d, mp.inf])
    got = refs.lomax_moments(ALPHA, LAM, d)
    for key, want in [("mu1", mu1), ("mu2", mu2), ("nu1", nu1), ("nu2", nu2),
                      ("var", mu2 - mu1 ** 2), ("sbar", _survival(d))]:
        assert float(got[key]) == pytest.approx(float(want), rel=1e-12), key


def _phi_by_quadrature(weight):
    """phi_h(Z) = integral of z h'(P(Z > z)) dPhi(z); weight(z) is h'(P(Z > z))."""
    return mp.quad(lambda z: z * weight(z) * mp.npdf(z), [-mp.inf, 0, mp.inf])


@pytest.mark.parametrize("kind,param,weight", [
    ("gini", 0.5, lambda z: 1.5 - mp.ncdf(-z)),           # h(s) = 1.5 s - 0.5 s^2
    ("dualpower", 2.0, lambda z: 2 * mp.ncdf(z)),          # h(s) = 1 - (1 - s)^2
    ("dualpower", 3.0, lambda z: 3 * mp.ncdf(z) ** 2),
    ("wang", 0.5, lambda z: mp.exp(0.5 * z - 0.125)),      # h(s) = Phi(Phi^-1(s) + 0.5)
])
def test_phi_matches_quadrature(kind, param, weight):
    assert refs.phi(kind, param) == pytest.approx(float(_phi_by_quadrature(weight)), rel=1e-11)


def test_phi_quantile_measures():
    z = float(mp.sqrt(2) * mp.erfinv(2 * mp.mpf(0.9) - 1))
    assert refs.phi("var", 0.9) == pytest.approx(z, rel=1e-14)
    tail = mp.quad(lambda t: t * mp.npdf(t), [z, mp.inf]) / mp.mpf(0.1)
    assert refs.phi("es", 0.9) == pytest.approx(float(tail), rel=1e-12)


@pytest.mark.parametrize("n,want", [(10, 1.48506768838), (25, 2.68101897267),
                                    (100, 5.65568859629)])
def test_constant_roots_match_high_precision_values(n, want):
    # the 30-digit constant-rule optima at rho = 0.3, p = 0.75
    d = refs.clt_optimum(ALPHA, LAM, ("constant", 0.3), refs.phi("var", 0.75), n)
    assert d == pytest.approx(want, abs=2e-11)


@pytest.mark.parametrize("rule", [("stddev", 0.5), ("sharpe", 0.5), ("sharpe", 0.25)])
def test_clt_minimum_is_stationary(rule):
    phi = refs.phi("var", 0.95)
    d = refs.clt_optimum(ALPHA, LAM, rule, phi, 100)
    f = lambda t: float(refs.scaled_objective(ALPHA, LAM, rule, phi, t))
    step = 1e-4 * d
    assert f(d) <= min(f(d - step), f(d + step))
    grid = np.geomspace(0.5 * d, 2.0 * d, 2001)
    assert f(d) <= float(np.min(refs.scaled_objective(ALPHA, LAM, rule, phi, grid)))


def test_stop_loss_is_the_survival_level():
    d = refs.stop_loss_retention(ALPHA, LAM, 0.3)
    assert float(refs.lomax_survival(ALPHA, LAM, d)) == pytest.approx(1 / 1.3, rel=1e-14)


def test_plugin_moments_match_direct_sums():
    rng = np.random.default_rng(5)
    x = refs.lomax_quantile(2.6, 1.2, rng.random(500))
    plugin = refs.PlugIn(x)
    for d in (float(np.min(x)) * 1.0001, 0.1, 1.0, float(np.quantile(x, 0.99))):
        got = plugin.moments(d)
        capped, excess = np.minimum(x, d), np.maximum(x - d, 0.0)
        assert float(got["mu1"]) == pytest.approx(capped.mean(), rel=1e-12)
        assert float(got["var_capped"]) == pytest.approx(capped.var(), rel=1e-9)
        assert float(got["nu1"]) == pytest.approx(excess.mean(), rel=1e-12)
        assert float(got["var_ceded"]) == pytest.approx(excess.var(), rel=1e-9)


@pytest.mark.parametrize("d,p", [(0.5, 0.75), (0.5, 0.2), (3.0, 0.75)])
def test_lattice_single_claim_is_the_capped_quantile(d, p):
    want = min(refs.lomax_quantile(ALPHA, LAM, p), d)
    got = refs.capped_sum_quantile(ALPHA, LAM, 1, d, p, 2000)
    assert got == pytest.approx(want, rel=1e-6)


def _two_claim_cdf(s, d):
    """P(min(X1, d) + min(X2, d) <= s) by direct convolution."""
    atom = _survival(d)

    def capped_cdf(t):
        return 0 if t < 0 else (1 if t >= d else _cdf(t))

    dens = lambda y: ALPHA / LAM * (1 + y / LAM) ** (-ALPHA - 1)
    top = min(s, d)
    points = sorted({0, top} | ({s - d} if 0 < s - d < top else set()))
    total = mp.quad(lambda y: dens(y) * capped_cdf(s - y), points)
    return total + (atom * capped_cdf(s - d) if s >= d else 0)


@pytest.mark.parametrize("d,p", [(0.8, 0.75), (0.3, 0.5), (0.164, 0.75)])
def test_lattice_two_claims_match_direct_convolution(d, p):
    got = refs.capped_sum_quantile(ALPHA, LAM, 2, d, p, 2000)
    if _two_claim_cdf(2 * d - 1e-12, d) < p:   # the quantile sits on the atom 2d
        assert got == 2 * d
        return
    lo, hi = 0.0, 2 * d
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if _two_claim_cdf(mid, d) < p else (lo, mid)
    assert got == pytest.approx(0.5 * (lo + hi), rel=1e-6)


def test_exact_oracle_minimum_bounds_the_clt_optimum():
    rule = ("constant", 0.3)
    oracle = refs.ExactCostOracle(ALPHA, LAM, rule, 25, 0.75, 1e-4)
    d_clt = refs.clt_optimum(ALPHA, LAM, rule, refs.phi("var", 0.75), 25)
    assert oracle.lattice_change < 1e-4
    assert 0.0 <= oracle.excess(d_clt) < 1e-3
    assert oracle.cost(d_clt) == pytest.approx(oracle.cost(d_clt, 2 * oracle.cells), rel=1e-5)
    assert math.isfinite(oracle.min_cost)
