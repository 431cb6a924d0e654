import warnings

import numpy as np
import pytest

import oracles
from ghsel import ghlik
from ghsel.baseline import Kernel
from ghsel.ghlik import LINPRED_CLAMP, Dataset, design, dim_psi, evaluate
from ghsel.modelspace import Gamma, enumerate_models
from ghsel.optimize import (MAX_ITER, FitRecord, FitStatus, default_init,
                            fit_map, fit_mle)
from ghsel.priors import CoefficientPrior, map_prior, product_prior_gaussian
from ghsel.simulate import SimConfig, simulate_dataset


def ph_data(seed=0, n=300):
    truth = Gamma.from_key("2200")
    cfg = SimConfig(n=n, p=4, truth=truth,
                    alpha=np.zeros(4), beta=np.array([1.0, -1.0, 0.0, 0.0]),
                    target_censoring=0.2, seed=seed)
    data, _ = simulate_dataset(cfg)
    return data


def test_default_init_moment_match():
    data = ph_data()
    g = Gamma.from_key("2000")
    psi0 = default_init(g, data)
    assert psi0.shape == (3,)
    lt = data.log_t[data.delta == 1.0]
    assert psi0[0] == pytest.approx(-np.log(np.std(lt)))
    assert psi0[1] == pytest.approx(np.mean(lt) / np.std(lt))
    assert psi0[2] == 0.0


def test_fit_mle_converges_and_zeroes_gradient():
    data = ph_data()
    g = Gamma.from_key("2200")
    fit = fit_mle(g, data, Kernel.NORMAL)
    assert fit.status is FitStatus.CONVERGED and fit.ok
    grad = evaluate(design(g, data, Kernel.NORMAL), fit.psi_opt)[1]
    assert np.max(np.abs(grad)) < 1e-5 * (1 + abs(fit.objective))
    # Fisher positive definite at the optimum
    np.linalg.cholesky(fit.fisher)
    # eta = -beta: truth beta = (1, -1) so eta approx (-1, 1)
    assert fit.psi_opt[2] == pytest.approx(-1.0, abs=0.25)
    assert fit.psi_opt[3] == pytest.approx(1.0, abs=0.25)


def test_fit_mle_recovers_scale():
    data = ph_data(seed=3, n=800)
    null = Gamma.from_key("0000")
    fit = fit_mle(null, data, Kernel.NORMAL)
    assert fit.ok
    sigma_hat = np.exp(-fit.psi_opt[0])
    mu_hat = fit.psi_opt[1] * sigma_hat
    # generated from a lognormal(1.55, 0.7) baseline; null fit absorbs the
    # covariate effects so only loose agreement is expected
    assert 0.3 < sigma_hat < 2.0
    assert 0.5 < mu_hat < 3.0


@pytest.mark.parametrize("kernel", list(Kernel))
def test_fit_mle_all_kernels(kernel):
    data = ph_data(seed=5, n=200)
    fit = fit_mle(Gamma.from_key("2000"), data, kernel)
    assert fit.ok


def test_fit_map_product_prior():
    data = ph_data(seed=7, n=250)
    g = Gamma.from_key("3200")
    prior = CoefficientPrior()
    fit = fit_map(g, data, Kernel.NORMAL, prior)
    assert fit.ok
    P, log_norm = product_prior_gaussian(g, data, prior)
    total_grad = (evaluate(design(g, data, Kernel.NORMAL), fit.psi_opt)[1]
                  + map_prior(P, log_norm)(fit.psi_opt)[1])
    assert np.max(np.abs(total_grad)) < 1e-5 * (1 + abs(fit.objective))
    # MAP objective includes the prior
    log_prior = oracles.map_prior_reference(g, data, prior)
    assert fit.objective == pytest.approx(
        evaluate(design(g, data, Kernel.NORMAL), fit.psi_opt)[0] + log_prior(fit.psi_opt),
        rel=1e-10)


def test_project_init_carries_shared_coefficients():
    data = ph_data()
    g_prev = Gamma.from_key("2200")
    psi_prev = np.array([0.5, 1.0, -0.9, 0.8])
    g_new = Gamma.from_key("2230")
    out = oracles.project_init(psi_prev, g_prev, g_new, data)
    assert out.shape == (dim_psi(g_new),)
    assert out[0] == 0.5 and out[1] == 1.0
    # new model: time-level cols (2,), hazard-level cols (0, 1, 2)
    assert out[2] == 0.0            # theta for col 2 (new)
    assert out[3] == -0.9           # eta col 0 carried
    assert out[4] == 0.8            # eta col 1 carried
    assert out[5] == 0.0            # eta col 2 (new)


def test_warm_start_agrees_with_cold_start():
    data = ph_data(seed=11, n=150)
    g = Gamma.from_key("2200")
    cold = fit_mle(g, data, Kernel.NORMAL)
    warm_init = oracles.project_init(cold.psi_opt, g, Gamma.from_key("2000"), data)
    warm = fit_mle(Gamma.from_key("2000"), data, Kernel.NORMAL, init=warm_init)
    cold2 = fit_mle(Gamma.from_key("2000"), data, Kernel.NORMAL)
    assert warm.ok and cold2.ok
    assert warm.objective == pytest.approx(cold2.objective, abs=1e-6)
    assert np.allclose(warm.psi_opt, cold2.psi_opt, atol=1e-4)


PRODUCT = CoefficientPrior()


def _objective(fitter, gamma, data, kernel):
    """The fitter's objective and gradient as plain functions of psi: the
    MAP objective's prior term is the SciPy reference, its gradient
    map_prior's."""
    des = design(gamma, data, kernel)
    if fitter == "mle":
        return (lambda x: evaluate(des, x)[0], lambda x: evaluate(des, x)[1])
    log_prior = oracles.map_prior_reference(gamma, data, PRODUCT)
    prior = map_prior(*product_prior_gaussian(gamma, data, PRODUCT))
    return (lambda x: evaluate(des, x)[0] + log_prior(x),
            lambda x: evaluate(des, x)[1] + prior(x)[1])


def _fit(fitter, gamma, data, kernel, init=None):
    if fitter == "mle":
        return fit_mle(gamma, data, kernel, init=init)
    return fit_map(gamma, data, kernel, PRODUCT, init=init)


@pytest.mark.parametrize("kernel", list(Kernel))
@pytest.mark.parametrize("fitter", ["mle", "map"])
@pytest.mark.parametrize("start", ["cold", "warm"])
def test_fit_matches_scipy_oracle(kernel, fitter, start):
    data = ph_data()
    gamma = Gamma.from_key("3200")
    init = None
    if start == "warm":
        prev = Gamma.from_key("2200")
        init = oracles.project_init(_fit(fitter, prev, data, kernel).psi_opt, prev, gamma, data)
    fit = _fit(fitter, gamma, data, kernel, init=init)
    assert fit.status is FitStatus.CONVERGED
    fn, grad = _objective(fitter, gamma, data, kernel)
    _, best = oracles.scipy_maximise(fn, grad, default_init(gamma, data))
    assert abs(fit.objective - best) <= 1e-8
    assert fit.objective == pytest.approx(fn(fit.psi_opt), abs=1e-10)


@pytest.mark.parametrize("fitter", ["mle", "map"])
@pytest.mark.parametrize("nu", [15.0, -15.0, -10.0])
@pytest.mark.parametrize("coef", [0.0, 8.0])
def test_wild_start_ends_in_a_record_without_warnings(fitter, nu, coef):
    data = ph_data()
    gamma = Gamma.from_key("3200")
    x0 = np.array([nu, 0.0, coef, -coef, coef])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = _fit(fitter, gamma, data, Kernel.NORMAL, init=x0)
    assert isinstance(fit, FitRecord)
    if nu > 0 or coef == 0.0:
        # far off but recoverable: the scale alone is wrong, or it is tiny
        assert fit.ok
        assert fit.objective == pytest.approx(
            _fit(fitter, gamma, data, Kernel.NORMAL).objective, abs=1e-8)


def test_t2_map_from_indefinite_start_converges():
    data = ph_data()
    gamma = Gamma.from_key("3200")
    x0 = np.array([-1.23, -0.6, -1.45, -4.66, -1.71])
    P, log_norm = product_prior_gaussian(gamma, data, PRODUCT)
    H0 = (evaluate(design(gamma, data, Kernel.STUDENT_T2), x0)[2]
          + map_prior(P, log_norm)(x0)[2])
    assert np.linalg.eigvalsh(-H0).min() < 0.0
    fit = fit_map(gamma, data, Kernel.STUDENT_T2, PRODUCT, init=x0)
    assert fit.status is FitStatus.CONVERGED
    assert fit.n_evals <= MAX_ITER // 10
    cold = fit_map(gamma, data, Kernel.STUDENT_T2, PRODUCT)
    assert fit.objective == pytest.approx(cold.objective, abs=1e-8)


def test_derivatives_where_the_linear_predictor_is_clipped():
    """Where the linear predictor is clipped at +-LINPRED_CLAMP the value is
    flat in it; the gradient and Hessian must be those of the value."""
    data = ph_data()
    des = design(Gamma.from_key("3200"), data, Kernel.NORMAL)
    x = np.array([-15.0, 0.0, 8.0, -8.0, 8.0])
    with np.errstate(over="ignore"):
        theta, eta = x[2:3], x[3:]
        lin = np.exp(-x[0]) * (data.X[:, des.t_cols] @ theta) - data.X[:, des.h_cols] @ eta
        assert np.all(np.abs(lin) > LINPRED_CLAMP)
        _, g, H = evaluate(des, x)
        value = lambda z: evaluate(des, z)[0]
        fd_g = oracles.fd_grad(value, x)
        fd_H = oracles.fd_hess(value, x)
        fd_Hg = np.array([oracles.fd_grad(lambda z: evaluate(des, z)[1][i], x)
                          for i in range(x.size)])
    assert np.allclose(g, fd_g, rtol=1e-6, atol=1e-9 * np.max(np.abs(fd_g)))
    assert np.allclose(H, fd_H, rtol=0.0, atol=1e-6 * np.max(np.abs(fd_H)))
    assert np.allclose(H, fd_Hg, rtol=1e-6, atol=1e-9 * np.max(np.abs(fd_Hg)))


TINY = Dataset(t=np.array([1.3, 2.1, 0.6, 3.5, 1.9]),
               delta=np.array([1.0, 1.0, 1.0, 0.0, 1.0]),
               X=np.array([[0.5, -1.2, 0.3], [-0.7, 0.4, 1.1], [1.4, 0.9, -0.8],
                           [-0.2, -0.6, 0.2], [0.1, 1.5, -1.4]]),
               names=("a", "b", "c"))


@pytest.mark.parametrize("key", ["333", "444", "121"])
def test_model_with_more_parameters_than_events_is_not_fitted(key):
    gamma = Gamma.from_key(key)
    assert dim_psi(gamma) > TINY.n_events == 4
    for fit in (fit_mle(gamma, TINY, Kernel.NORMAL),
                fit_map(gamma, TINY, Kernel.NORMAL, CoefficientPrior())):
        assert fit.status is FitStatus.TOO_FEW_EVENTS and not fit.ok
        assert fit.n_evals == 0 and fit.objective == -np.inf


def test_model_with_as_many_parameters_as_events_is_fitted():
    gamma = Gamma.from_key("300")
    assert dim_psi(gamma) == TINY.n_events
    fit = fit_mle(gamma, TINY, Kernel.NORMAL)
    assert fit.status is not FitStatus.TOO_FEW_EVENTS and fit.n_evals > 0


@pytest.mark.parametrize("fitter,kernel", [("mle", Kernel.NORMAL), ("map", Kernel.STUDENT_T2)])
def test_fits_take_the_path_of_the_reference_pass(fitter, kernel, monkeypatch):
    """Every model at p = 3 takes as many evaluations, ends with the same
    status and reaches the same objective as a fit through the earlier
    likelihood pass."""
    cfg = SimConfig(n=300, p=3, truth=Gamma.from_key("310"), alpha=np.array([0.5, 0.0, 0.0]),
                    beta=np.array([0.0, -0.5, 0.0]), target_censoring=0.25, seed=4)
    data, _ = simulate_dataset(cfg)
    models = list(enumerate_models(3))
    fits = [_fit(fitter, g, data, kernel) for g in models]
    monkeypatch.setattr(ghlik, "evaluate", oracles.evaluate_reference)
    for g, fit in zip(models, fits):
        ref = _fit(fitter, g, data, kernel)
        assert (fit.n_evals, fit.status) == (ref.n_evals, ref.status), g.key
        assert fit.objective == pytest.approx(ref.objective, rel=0.0, abs=1e-8)
