import math

import numpy as np
import pytest
from scipy import integrate, stats

import oracles
from ghsel import priors
from ghsel.baseline import Kernel
from ghsel.ghlik import Dataset, dim_psi
from ghsel.modelspace import Gamma
from ghsel.priors import (CoefficientPrior, RankDeficiencyError, map_prior,
                          product_prior_gaussian, robust_g_logpdf,
                          robust_g_support_bound)


def make_data(seed=0, n=40, p=3):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    t = rng.gamma(2.0, 1.0, n)
    delta = (rng.random(n) < 0.75).astype(float)
    return Dataset(t=t, delta=delta, X=X, names=())


def test_config_validation():
    with pytest.raises(ValueError):
        CoefficientPrior(g_e=0.0)


def common_log_prior(nu, theta0):
    """The MAP prior of a model without coefficients."""
    return map_prior(np.zeros((0, 0)), 0.0)(np.array([nu, theta0]))[0]


def test_common_prior_density_normalises(monkeypatch):
    # hyperparameters whose mass on nu lies well inside the integration range
    for name, value in (("NU_SHAPE", 0.5), ("NU_RATE", 2.0), ("THETA0_VAR", 4.0)):
        monkeypatch.setattr(priors, name, value)

    def dens_nu(nu):
        return math.exp(common_log_prior(nu, 0.0)
                        - stats.norm(0, 2.0).logpdf(0.0))

    total, _ = integrate.quad(dens_nu, -80, 15, limit=400, points=[0.0])
    assert total == pytest.approx(1.0, abs=1e-7)
    # matches Gamma(alpha, beta) density of exp(nu) with the Jacobian e^nu
    ref = oracles.map_prior_reference(Gamma.from_key("000"), make_data(),
                                      CoefficientPrior())
    assert common_log_prior(0.3, 1.2) == pytest.approx(ref([0.3, 1.2]), rel=1e-12)


def test_common_prior_derivatives():
    x = np.array([0.4, -1.1])
    fn = oracles.map_prior_reference(Gamma.from_key("000"), make_data(),
                                     CoefficientPrior())
    _, grad, hess = map_prior(np.zeros((0, 0)), 0.0)(x)
    assert np.allclose(grad, oracles.fd_grad(fn, x), rtol=1e-6, atol=1e-8)
    assert np.allclose(hess, oracles.fd_hess(fn, x), rtol=1e-4, atol=1e-6)


def test_product_prior_matches_multivariate_normal():
    data = make_data()
    g = Gamma.from_key("123")
    prior = CoefficientPrior(g_ct=2.0, g_ch=0.5)
    psi = np.array([0.2, -0.5, 0.3, -0.2, 0.1, 0.4])
    P, log_norm = product_prior_gaussian(g, data, prior)
    ref = oracles.map_prior_reference(g, data, prior)
    assert map_prior(P, log_norm)(psi)[0] == pytest.approx(
        ref(psi), rel=1e-10)


def test_product_prior_derivatives():
    data = make_data(seed=2)
    g = Gamma.from_key("312")
    prior = CoefficientPrior(g_ct=1.5, g_ch=0.8)
    psi = np.array([0.2, 0.7, 0.1, -0.4, 0.3, 0.2])
    fn = oracles.map_prior_reference(g, data, prior)
    _, grad, hess = map_prior(*product_prior_gaussian(g, data, prior))(psi)
    assert np.allclose(grad, oracles.fd_grad(fn, psi), rtol=1e-6, atol=1e-8)
    assert np.allclose(hess, oracles.fd_hess(fn, psi), rtol=1e-4, atol=1e-6)


def test_aft_product_prior_keeps_time_factor_only():
    data = make_data()
    aft = Gamma.from_key("404")
    prior = CoefficientPrior()
    psi = np.array([0.1, 0.3, 0.5, -0.1])
    P, log_norm = product_prior_gaussian(aft, data, prior)
    assert P.shape == (2, 2)
    ref = oracles.map_prior_reference(aft, data, prior)
    assert map_prior(P, log_norm)(psi)[0] == pytest.approx(
        ref(psi), rel=1e-10)


def test_lcm_prior_cov():
    data = make_data(seed=4)
    g = Gamma.from_key("220")
    psi = np.array([0.0, 1.0, 0.1, -0.2])
    J = oracles.observed_fisher(psi, g, data, Kernel.NORMAL)
    cov = oracles.lcm_prior_cov(g, data, 3.0, J)
    assert cov.shape == (2, 2)
    assert np.allclose(cov, cov.T)
    assert np.allclose(cov @ J[2:, 2:], 3.0 * data.n * np.eye(2), atol=1e-8)
    with pytest.raises(RankDeficiencyError):
        oracles.lcm_prior_cov(g, data, 1.0, -J)


def test_rank_deficiency_detected():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((10, 2))
    X[:, 1] = X[:, 0]  # collinear
    data = Dataset(t=rng.gamma(2, 1, 10), delta=np.ones(10), X=X, names=())
    with pytest.raises(RankDeficiencyError):
        product_prior_gaussian(Gamma.from_key("11"), data, CoefficientPrior())


@pytest.mark.parametrize("n,d", [(30, 1), (30, 4), (500, 2)])
def test_robust_g_density_normalises(n, d):
    bound = robust_g_support_bound(n, d)

    def dens(y):
        g = math.exp(y) - 1.0 / n
        return math.exp(robust_g_logpdf(g, n, d) + y)

    lo = math.log(bound + 1.0 / n) + 1e-13
    total, _ = integrate.quad(dens, lo, math.log(1e12), limit=400)
    # analytic tail of the (g + 1/n)^{-3/2} density beyond 1e12
    c = 0.5 * math.sqrt((1.0 + n) / (n * (d + 1.0)))
    tail = 2.0 * c / math.sqrt(1e12 + 1.0 / n)
    assert total + tail == pytest.approx(1.0, abs=1e-6)
    assert robust_g_logpdf(bound - 1e-9, n, d) == -math.inf

