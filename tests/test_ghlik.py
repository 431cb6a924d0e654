import numpy as np
import pytest

import oracles
from ghsel.baseline import Kernel
from ghsel.ghlik import (Dataset, DimensionError, dim_coef, dim_psi,
                         grad_loglik, hazard_level_columns, hess_loglik,
                         loglik, time_level_columns)
from ghsel.modelspace import Gamma

KERNELS = list(Kernel)


def make_data(seed=0, n=15, p=3):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    t = rng.gamma(2.0, 1.5, n)
    delta = (rng.random(n) < 0.7).astype(float)
    if delta.sum() == 0:
        delta[0] = 1.0
    return Dataset(t=t, delta=delta, X=X, names=())


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(t=[1.0, -1.0], delta=[1, 1], X=np.ones((2, 1)), names=())
    with pytest.raises(ValueError):
        Dataset(t=[1.0, 2.0], delta=[1, 2], X=np.ones((2, 1)), names=())
    with pytest.raises(DimensionError):
        Dataset(t=[1.0, 2.0], delta=[1.0], X=np.ones((2, 1)), names=())
    d = Dataset(t=[1.0, 2.0], delta=[1.0, 0.0], X=np.ones((2, 2)), names=())
    assert d.names == ("x1", "x2")
    assert d.n == 2 and d.p == 2 and d.n_events == 1
    assert np.allclose(d.log_t, np.log([1.0, 2.0]))


def test_column_roles_and_dimensions():
    g = Gamma.from_key("123")
    assert time_level_columns(g) == (0, 2)
    assert hazard_level_columns(g) == (1, 2)
    assert dim_coef(g) == 4 and dim_psi(g) == 6
    aft = Gamma.from_key("404")
    assert time_level_columns(aft) == (0, 2)
    assert hazard_level_columns(aft) == ()
    assert dim_coef(aft) == 2


def test_psi_pack_roundtrip():
    g = Gamma.from_key("123")
    vec = np.arange(6, dtype=float)
    psi = oracles.Psi.unpack(vec, g)
    assert psi.nu == 0.0 and psi.theta0 == 1.0
    assert np.allclose(psi.pack(), vec)
    with pytest.raises(DimensionError):
        oracles.Psi.unpack(np.zeros(4), g)


def test_dimension_errors():
    data = make_data()
    g = Gamma.from_key("120")
    with pytest.raises(DimensionError):
        loglik(np.zeros(3), g, data, Kernel.NORMAL)
    with pytest.raises(DimensionError):
        loglik(np.zeros(4), Gamma.from_key("12"), data, Kernel.NORMAL)


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("key", ["000", "200", "110", "123", "330", "404", "044"])
def test_loglik_matches_hazard_form_oracle(kernel, key):
    """The reparametrised likelihood equals the hazard-form likelihood written
    directly in (mu, sigma, alpha, beta)."""
    data = make_data(seed=3)
    g = Gamma.from_key(key)
    rng = np.random.default_rng(11)
    psi = rng.normal(0.0, 0.4, dim_psi(g))
    mu, sigma, alpha, beta = oracles.psi_to_natural(psi, g, data.p)
    ref = oracles.natural_loglik(mu, sigma, alpha, beta, data.t, data.delta,
                                 data.X, kernel)
    assert loglik(psi, g, data, kernel) == pytest.approx(ref, rel=1e-10)


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("key", ["000", "200", "123", "404"])
def test_gradient_and_hessian_match_finite_differences(kernel, key):
    data = make_data(seed=5)
    g = Gamma.from_key(key)
    rng = np.random.default_rng(7)
    psi = rng.normal(0.0, 0.3, dim_psi(g))

    def fn(x):
        return loglik(x, g, data, kernel)

    grad = grad_loglik(psi, g, data, kernel)
    fd_g = oracles.fd_grad(fn, psi)
    assert np.max(np.abs(grad - fd_g) / (1.0 + np.abs(fd_g))) < 1e-6

    hess = hess_loglik(psi, g, data, kernel)
    fd_h = oracles.fd_hess(fn, psi)
    assert np.max(np.abs(hess - fd_h) / (1.0 + np.abs(fd_h))) < 1e-5
    assert np.allclose(hess, hess.T)


def test_aft_reduction_identity():
    """The tied-effect path equals the generic likelihood evaluated at
    eta = exp(-nu) * theta with shared design, to near machine precision."""
    data = make_data(seed=9, p=4)
    rng = np.random.default_rng(21)
    aft = Gamma.from_key("4040")
    gh = Gamma.from_key("3030")
    for _ in range(20):
        psi_aft = rng.normal(0.0, 0.5, dim_psi(aft))
        nu = psi_aft[0]
        theta = psi_aft[2:]
        psi_gh = np.concatenate((psi_aft[:2], theta, np.exp(-nu) * theta))
        for kernel in KERNELS:
            la = loglik(psi_aft, aft, data, kernel)
            lg = loglik(psi_gh, gh, data, kernel)
            assert la == pytest.approx(lg, rel=1e-13, abs=1e-12)


def test_extreme_linear_predictor_is_finite():
    data = make_data(seed=1)
    g = Gamma.from_key("330")
    psi = np.array([0.0, 0.0, 50.0, -50.0, 30.0, -30.0])
    val = loglik(psi, g, data, Kernel.NORMAL)
    assert val == -np.inf or np.isfinite(val)
    grad = grad_loglik(psi * 0.01, g, data, Kernel.NORMAL)
    assert np.all(np.isfinite(grad))


def test_observed_fisher_is_negated_hessian():
    data = make_data()
    g = Gamma.from_key("210")
    psi = np.array([0.1, 0.5, 0.2, -0.3])
    assert np.allclose(oracles.observed_fisher(psi, g, data, Kernel.SECH),
                       -hess_loglik(psi, g, data, Kernel.SECH))
