import math

import numpy as np
import pytest
from scipy import integrate, stats

import oracles
from ghsel.baseline import Kernel
from ghsel.ghlik import Dataset, dim_psi
from ghsel.modelspace import Gamma
from ghsel.priors import (CoefficientPrior, CommonPrior, GMode, PriorKind,
                          RankDeficiencyError, grad_common_prior, gram,
                          grad_prior_psi, hess_common_prior, hess_prior_psi,
                          log_common_prior, log_prior_psi,
                          product_prior_grad, product_prior_hess,
                          product_prior_logpdf, robust_g_logpdf,
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
    with pytest.raises(ValueError):
        CommonPrior(K=-1.0)


def test_common_prior_density_normalises():
    cp = CommonPrior(alpha_nu=0.5, beta_nu=2.0, K=4.0)

    def dens_nu(nu):
        return math.exp(log_common_prior(nu, 0.0, cp)
                        - stats.norm(0, 2.0).logpdf(0.0))

    total, _ = integrate.quad(dens_nu, -80, 15, limit=400, points=[0.0])
    assert total == pytest.approx(1.0, abs=1e-7)
    # matches Gamma(alpha, beta) density of exp(nu) with the Jacobian e^nu
    nu = 0.3
    ref = stats.gamma(a=0.5, scale=1 / 2.0).logpdf(math.exp(nu)) + nu
    got = log_common_prior(nu, 1.2, cp) - stats.norm(0, 2.0).logpdf(1.2)
    assert got == pytest.approx(ref, rel=1e-12)


def test_common_prior_derivatives():
    cp = CommonPrior()
    x = np.array([0.4, -1.1])

    def fn(v):
        return log_common_prior(v[0], v[1], cp)

    assert np.allclose(grad_common_prior(*x, cp), oracles.fd_grad(fn, x),
                       rtol=1e-6, atol=1e-8)
    assert np.allclose(hess_common_prior(*x, cp), oracles.fd_hess(fn, x),
                       rtol=1e-4, atol=1e-6)


def test_product_prior_matches_multivariate_normal():
    data = make_data()
    g = Gamma.from_key("123")
    prior = CoefficientPrior(kind=PriorKind.PRODUCT, g_ct=2.0, g_ch=0.5)
    theta = np.array([0.3, -0.2])
    eta = np.array([0.1, 0.4])
    Gt = gram(data, (0, 2))
    Gh = gram(data, (1, 2))
    ref = (stats.multivariate_normal(np.zeros(2), 2.0 * data.n * np.linalg.inv(Gt))
           .logpdf(theta)
           + stats.multivariate_normal(np.zeros(2), 0.5 * data.n * np.linalg.inv(Gh))
           .logpdf(eta))
    assert product_prior_logpdf(theta, eta, g, data, prior) == pytest.approx(
        ref, rel=1e-10)


def test_product_prior_derivatives():
    data = make_data(seed=2)
    g = Gamma.from_key("312")
    prior = CoefficientPrior(kind=PriorKind.PRODUCT, g_ct=1.5, g_ch=0.8)
    cp = CommonPrior()
    psi = np.array([0.2, 0.7, 0.1, -0.4, 0.3, 0.2])

    def fn(x):
        return log_prior_psi(x, g, data, prior, cp)

    assert np.allclose(grad_prior_psi(psi, g, data, prior, cp),
                       oracles.fd_grad(fn, psi), rtol=1e-6, atol=1e-8)
    assert np.allclose(hess_prior_psi(psi, g, data, prior, cp),
                       oracles.fd_hess(fn, psi), rtol=1e-4, atol=1e-6)


def test_aft_product_prior_keeps_time_factor_only():
    data = make_data()
    aft = Gamma.from_key("404")
    prior = CoefficientPrior(kind=PriorKind.PRODUCT)
    theta = np.array([0.5, -0.1])
    val = product_prior_logpdf(theta, np.zeros(0), aft, data, prior)
    Gt = gram(data, (0, 2))
    ref = stats.multivariate_normal(
        np.zeros(2), data.n * np.linalg.inv(Gt)).logpdf(theta)
    assert val == pytest.approx(ref, rel=1e-10)


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
    prior = CoefficientPrior(kind=PriorKind.PRODUCT)
    with pytest.raises(RankDeficiencyError):
        product_prior_logpdf(np.zeros(2), np.zeros(0), Gamma.from_key("11"),
                             data, prior)


def test_joint_psi_prior_requires_product_kind():
    data = make_data()
    with pytest.raises(ValueError):
        log_prior_psi(np.zeros(3), Gamma.from_key("200"), data,
                      CoefficientPrior(kind=PriorKind.LCM), CommonPrior())


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


def test_gmode_enum_values():
    assert GMode("fixed") is GMode.FIXED
    assert GMode("robust") is GMode.ROBUST_HYPER
    assert PriorKind("lcm") is PriorKind.LCM
