import numpy as np
import pytest

import oracles
from ghsel.baseline import Kernel
from ghsel.ghlik import (LINPRED_CLAMP, Dataset, DimensionError, design, dim_coef,
                         dim_psi, evaluate, hazard_level_columns,
                         time_level_columns)
from ghsel.modelspace import Gamma, enumerate_models

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
    with pytest.raises(ValueError, match="duplicate covariate name 'a'"):
        Dataset(t=[1.0, 2.0], delta=[1, 1], X=np.ones((2, 3)), names=("a", "a", "b"))
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
        evaluate(design(g, data, Kernel.NORMAL), np.zeros(3))
    with pytest.raises(DimensionError):
        design(Gamma.from_key("12"), data, Kernel.NORMAL)


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
    assert evaluate(design(g, data, kernel), psi)[0] == pytest.approx(ref, rel=1e-10)


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("key", ["000", "200", "123", "404"])
def test_gradient_and_hessian_match_finite_differences(kernel, key):
    data = make_data(seed=5)
    g = Gamma.from_key(key)
    rng = np.random.default_rng(7)
    psi = rng.normal(0.0, 0.3, dim_psi(g))

    des = design(g, data, kernel)

    def fn(x):
        return evaluate(des, x)[0]

    grad = evaluate(des, psi)[1]
    fd_g = oracles.fd_grad(fn, psi)
    assert np.max(np.abs(grad - fd_g) / (1.0 + np.abs(fd_g))) < 1e-6

    hess = evaluate(des, psi)[2]
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
            la = evaluate(design(aft, data, kernel), psi_aft)[0]
            lg = evaluate(design(gh, data, kernel), psi_gh)[0]
            assert la == pytest.approx(lg, rel=1e-13, abs=1e-12)


def test_extreme_linear_predictor_is_finite():
    data = make_data(seed=1)
    g = Gamma.from_key("330")
    psi = np.array([0.0, 0.0, 50.0, -50.0, 30.0, -30.0])
    val = evaluate(design(g, data, Kernel.NORMAL), psi)[0]
    assert val == -np.inf or np.isfinite(val)
    grad = evaluate(design(g, data, Kernel.NORMAL), psi * 0.01)[1]
    assert np.all(np.isfinite(grad))


def test_observed_fisher_is_negated_hessian():
    data = make_data()
    g = Gamma.from_key("210")
    psi = np.array([0.1, 0.5, 0.2, -0.3])
    assert np.allclose(oracles.observed_fisher(psi, g, data, Kernel.SECH),
                       -evaluate(design(g, data, Kernel.SECH), psi)[2])


def _assert_pass_matches_reference(des, psi):
    got = evaluate(des, psi)
    ref = oracles.evaluate_reference(des, psi)
    assert got[0] == pytest.approx(ref[0], rel=1e-10)
    for x, r in zip(got[1:], ref[1:]):
        np.testing.assert_allclose(x, r, rtol=1e-10, atol=1e-10 * np.max(np.abs(r)))


@pytest.mark.parametrize("kernel", KERNELS)
def test_evaluate_matches_reference_pass_on_every_model(kernel):
    """The chain-rule pass gives the value, gradient and Hessian of the
    earlier pass (generic coordinates, hand-expanded Hessian blocks) for all
    71 models at p = 3, at three random points each."""
    data = make_data(seed=13, n=60)
    rng = np.random.default_rng(17)
    for g in enumerate_models(3):
        des = design(g, data, kernel)
        for _ in range(3):
            _assert_pass_matches_reference(des, rng.normal(0.0, 0.5, dim_psi(g)))


@pytest.mark.parametrize("kernel", KERNELS)
def test_evaluate_matches_reference_pass_where_lin_is_clipped(kernel):
    data = make_data(seed=13, n=60)
    des = design(Gamma.from_key("330"), data, kernel)
    psi = np.array([-6.0, 0.2, 1.5, -1.5, 0.5, 0.5])
    lin = np.exp(-psi[0]) * (des.Xt @ psi[2:4]) - des.Xh @ psi[4:]
    assert np.any(lin > LINPRED_CLAMP) and np.any(lin < -LINPRED_CLAMP)
    assert np.any(np.abs(lin) < LINPRED_CLAMP)
    _assert_pass_matches_reference(des, psi)
