import dataclasses
import math

import numpy as np
import pytest
from scipy import stats

import oracles
from ghsel.baseline import Kernel
from ghsel.ghlik import Dataset, design, dim_coef, evaluate
from ghsel import marglik, optimize
from ghsel.marglik import (LOG_2PI, ILAFactor, MarglikMethod, ModelScorer,
                           ScorerConfig, ila_from_fit)
from ghsel.modelspace import Gamma, HazardClass, enumerate_models
from ghsel.optimize import fit_mle
from ghsel.priors import (NU_MEAN, NU_SD, THETA0_VAR, CoefficientPrior,
                          robust_g_support_bound)
from ghsel.sampler import ChainConfig, run_chain
from ghsel.simulate import (LogLocationScaleBaseline, SimConfig, protocol_truth,
                            simulate_dataset)


def small_data(seed=0, n=30, p=2):
    truth = Gamma((2,) + (0,) * (p - 1))
    beta = np.zeros(p)
    beta[0] = 1.0
    cfg = SimConfig(n=n, p=p, truth=truth, alpha=np.zeros(p), beta=beta,
                    target_censoring=0.2, seed=seed)
    data, _ = simulate_dataset(cfg)
    return data


ROBUST_G = MarglikMethod.ILA_ROBUST_G


def score(gamma, data, method=MarglikMethod.ILA, coef_prior=CoefficientPrior()):
    """A fresh scorer's record of one model under the normal kernel."""
    return ModelScorer(data, Kernel.NORMAL,
                       ScorerConfig(method, coef_prior)).score(gamma)


def ila_quadrature_reference(gamma, data, kernel, g_e, fit):
    """Numerical log marginal likelihood under the exact priors the
    integrated-Laplace route assumes: normal prior on nu, N(0,K) on theta0,
    curvature-matching Gaussian on the coefficients."""
    d = dim_coef(gamma)
    if d:
        cov = oracles.lcm_prior_cov(gamma, data, g_e, fit.fisher)
        coef_prior = stats.multivariate_normal(np.zeros(d), cov)
    nu_prior = stats.norm(NU_MEAN, NU_SD)
    t0_prior = stats.norm(0.0, math.sqrt(THETA0_VAR))
    des = design(gamma, data, kernel)

    def log_prior(rows):
        lp = nu_prior.logpdf(rows[:, 0]) + t0_prior.logpdf(rows[:, 1])
        if d:
            lp = lp + coef_prior.logpdf(rows[:, 2:])
        return lp

    return oracles.gauss_hermite_log_integral(lambda psi: evaluate(des, psi)[0],
                                              log_prior, fit.psi_opt)


def test_ila_exact_on_gaussian_loglik():
    """When the log-likelihood is exactly quadratic the closed form must agree
    with direct Gaussian integration to near machine precision."""
    rng = np.random.default_rng(42)
    n, g_e = 50, 2.0
    for trial in range(5):
        d = int(rng.integers(1, 4))
        k = 2 + d
        A = rng.standard_normal((k, k))
        J = A @ A.T + k * np.eye(k)
        psi_hat = rng.normal(0.0, 1.0, k)
        ell_hat = float(rng.normal())

        got = ila_from_fit(ell_hat, psi_hat, J, d, n, g_e)

        # independent Gaussian algebra: integrand exp(-x'Ax/2 + b'x + c)
        ng = n * g_e
        prior_prec = np.zeros((k, k))
        prior_prec[0, 0] = 1.0 / NU_SD ** 2
        prior_prec[1, 1] = 1.0 / THETA0_VAR
        prior_prec[2:, 2:] = J[2:, 2:] / ng
        Afull = J + prior_prec
        b = J @ psi_hat
        b[0] += NU_MEAN / NU_SD ** 2
        c = (ell_hat - 0.5 * psi_hat @ J @ psi_hat
             - 0.5 * NU_MEAN ** 2 / NU_SD ** 2)
        # prior normalising constants
        sign_d, logdet_pp = np.linalg.slogdet(J[2:, 2:] / ng)
        assert sign_d > 0
        log_norm = (-0.5 * (2 + d) * LOG_2PI + 0.5 * logdet_pp
                    - 0.5 * math.log(NU_SD ** 2)
                    - 0.5 * math.log(THETA0_VAR))
        sign, logdet_A = np.linalg.slogdet(Afull)
        assert sign > 0
        ref = (c + 0.5 * b @ np.linalg.solve(Afull, b)
               + 0.5 * k * LOG_2PI - 0.5 * logdet_A + log_norm)
        assert got == pytest.approx(ref, abs=1e-10)


@pytest.mark.parametrize("key", ["00", "20", "12"])
def test_ila_matches_quadrature(key):
    data = small_data()
    gamma = Gamma.from_key(key)
    rec = score(gamma, data)
    assert np.isfinite(rec.log_ml)
    ref = ila_quadrature_reference(gamma, data, Kernel.NORMAL, 1.0, rec.fit)
    assert abs(rec.log_ml - ref) <= 0.15


@pytest.mark.parametrize("key", ["00", "20", "12"])
def test_la_matches_quadrature(key):
    data = small_data(seed=1)
    gamma = Gamma.from_key(key)
    prior = CoefficientPrior()
    rec = score(gamma, data, MarglikMethod.LA, prior)
    assert np.isfinite(rec.log_ml)
    log_prior = oracles.map_prior_reference(gamma, data, prior)
    des = design(gamma, data, Kernel.NORMAL)
    # the LA score leaves out the model-independent log(2*pi)
    ref = oracles.gauss_hermite_log_integral(lambda psi: evaluate(des, psi)[0],
                                             log_prior, rec.fit.psi_opt)
    assert abs(rec.log_ml + LOG_2PI - ref) <= 0.15


def test_robust_g_null_equals_fixed_g():
    data = small_data(seed=3)
    null = Gamma.from_key("00")
    fixed = score(null, data)
    robust = score(null, data, ROBUST_G)
    assert robust.log_ml == fixed.log_ml


def test_robust_g_cutoff_stability(monkeypatch):
    data = small_data(seed=4)
    gamma = Gamma.from_key("22")
    assert marglik.ROBUST_G_CUTOFF == 1e6
    a = score(gamma, data, ROBUST_G)
    monkeypatch.setattr(marglik, "ROBUST_G_CUTOFF", 2e6)
    b = score(gamma, data, ROBUST_G)
    assert np.isfinite(a.log_ml)
    assert abs(a.log_ml - b.log_ml) < 1e-8


def test_robust_g_matches_direct_integration():
    from scipy import integrate
    from ghsel import priors as pr
    data = small_data(seed=5)
    gamma = Gamma.from_key("20")
    rec = score(gamma, data, ROBUST_G)
    fit = fit_mle(gamma, data, Kernel.NORMAL)
    d = dim_coef(gamma)
    n = data.n
    vals = []
    M = rec.log_ml

    def f(y):
        g = math.exp(y) - 1.0 / n
        lm = ila_from_fit(fit.objective, fit.psi_opt, fit.fisher, d, n, g)
        return math.exp(lm + pr.robust_g_logpdf(g, n, d) + y - M)

    lo = math.log(pr.robust_g_support_bound(n, d) + 1.0 / n) + 1e-12
    total, _ = integrate.quad(f, lo, math.log(1e10), limit=400)
    ref = M + math.log(total)
    assert rec.log_ml == pytest.approx(ref, abs=1e-6)


def test_failed_fit_maps_to_minus_inf(monkeypatch):
    """Every method's closed form raises LinAlgError on a fitted Fisher
    matrix that is not positive definite, and the scorer records -inf with
    the fit."""
    data = small_data()
    gamma = Gamma.from_key("20")
    assert all(np.isfinite(score(gamma, data, method).log_ml) for method in MarglikMethod)
    with pytest.raises(np.linalg.LinAlgError):
        ila_from_fit(0.0, np.zeros(3), -np.eye(3), 1, data.n, 1.0)
    for name in ("fit_mle", "fit_map"):
        def fit_indefinite(*args, real=getattr(optimize, name), **kwargs):
            return dataclasses.replace(real(*args, **kwargs), fisher=-np.eye(3))
        monkeypatch.setattr(optimize, name, fit_indefinite)
    for method in MarglikMethod:
        rec = score(gamma, data, method)
        assert rec.log_ml == -math.inf and rec.fit.ok, method


def test_scorer_cache_and_fingerprint():
    data = small_data(seed=6)
    cfg = ScorerConfig()
    scorer = ModelScorer(data, Kernel.NORMAL, cfg)
    g = Gamma.from_key("20")
    r1 = scorer.score(g)
    r2 = scorer.score(g)
    assert r1 is r2


def test_warm_start_does_not_change_scores():
    data = small_data(seed=8)
    cfg = ScorerConfig()
    warm = ModelScorer(data, Kernel.NORMAL, cfg)
    keys = ["00", "20", "22", "12", "33", "44"]
    warm_vals = [warm.score(Gamma.from_key(k)).log_ml for k in keys]
    cold_vals = [ModelScorer(data, Kernel.NORMAL, cfg).score(
        Gamma.from_key(k)).log_ml for k in keys]
    assert warm_vals == cold_vals


@pytest.mark.parametrize("method", list(MarglikMethod))
def test_score_does_not_depend_on_visit_order(method):
    """Scoring every model in enumeration order with one scorer gives exactly
    the scores of a fresh scorer per model, under every method.  The dataset
    (t2 kernel) is chosen because some of its models have several local
    maxima: under the product prior, a fit started from the previously
    scored model's optimum reaches other maxima, off by up to 33 log
    units."""
    p = 3
    truth, alpha, beta = protocol_truth(p, HazardClass.AFT, strict=False)
    data, _ = simulate_dataset(SimConfig(
        n=200, p=p, truth=truth, alpha=alpha, beta=beta,
        baseline=LogLocationScaleBaseline(kernel=Kernel.STUDENT_T2),
        target_censoring=0.25, seed=2))
    X = (data.X - data.X.mean(axis=0)) / data.X.std(axis=0)
    data = Dataset(t=data.t, delta=data.delta, X=X, names=data.names)
    cfg = ScorerConfig(method=method)
    shared = ModelScorer(data, Kernel.STUDENT_T2, cfg)
    for gamma in enumerate_models(p):
        in_order = shared.score(gamma).log_ml
        fresh = ModelScorer(data, Kernel.STUDENT_T2, cfg).score(gamma).log_ml
        assert in_order == fresh, gamma.key


@pytest.mark.parametrize("seed,key", [(5, "20"), (4, "22"), (8, "12"), (9, "33"),
                                      (6, "44"), (3, "00")])
def test_factorised_closed_form_matches_per_g_reference(seed, key):
    """The g-free factorisation evaluated at n*g equals the closed form
    recomputed from scratch at that g, over the whole robust-g range."""
    data = small_data(seed=seed)
    gamma = Gamma.from_key(key)
    fit = fit_mle(gamma, data, Kernel.NORMAL)
    assert fit.ok
    d, n = dim_coef(gamma), data.n
    factor = ILAFactor(fit.objective, fit.psi_opt, fit.fisher, d)
    bound = robust_g_support_bound(n, d) if d else 1e-3
    gs = np.concatenate((bound * (1.0 + np.array([1e-12, 1e-6, 1e-3])),
                         np.logspace(-2, 250, 40)))
    refs = []
    for g in gs:
        ref = oracles.ila_closed_form_at_g(fit.objective, fit.psi_opt, fit.fisher,
                                           d, n, g)
        refs.append(ref)
        assert factor.log_ml(n * g) == pytest.approx(ref, rel=1e-10)
        got = ila_from_fit(fit.objective, fit.psi_opt, fit.fisher, d, n, g)
        assert got == pytest.approx(ref, rel=1e-10)
    # one call over the array of n*g values gives the same closed form
    assert factor.log_ml(n * gs) == pytest.approx(refs, rel=1e-10)


def test_closed_form_raises_on_indefinite_blocks():
    indefinite_coef = -np.eye(3)
    # coefficient block positive definite, posterior precision of
    # (nu, theta0) not: negative leading entry, then negative determinant
    neg_lead = np.diag([-1.0, 1.0, 1.0])
    neg_det = np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    for J in (indefinite_coef, neg_lead, neg_det):
        for closed_form in (oracles.ila_closed_form_at_g, ila_from_fit):
            with pytest.raises(np.linalg.LinAlgError):
                closed_form(0.0, np.zeros(3), J, 1, 30, 1.0)
    for J in (neg_lead, neg_det):
        with pytest.raises(np.linalg.LinAlgError):
            ILAFactor(0.0, np.zeros(3), J, 1).log_ml(np.array([1.0, 30.0]))
    with pytest.raises(np.linalg.LinAlgError):
        ILAFactor(0.0, np.zeros(3), indefinite_coef, 1)


def test_method_alone_selects_the_score():
    """LA with the default coefficient prior scores with the product prior:
    a chain runs to the end with finite scores."""
    data = small_data(seed=7)
    scorer = ModelScorer(data, Kernel.NORMAL, ScorerConfig(method=MarglikMethod.LA))
    trace = run_chain(scorer, ChainConfig(iterations=300, burn_in=100, seed=1))
    assert trace.n_steps == 300
    assert all(math.isfinite(log_ml) for log_ml, _ in trace.visited.values())


def _nan_log_ml(self, ng):
    return np.full(np.shape(ng), math.nan)


def test_robust_g_quadrature_failure_gives_failed_record(monkeypatch):
    data = small_data(seed=4)
    gamma = Gamma.from_key("22")
    monkeypatch.setattr(marglik.ILAFactor, "log_ml", _nan_log_ml)
    rec = score(gamma, data, ROBUST_G)
    assert rec.log_ml == -math.inf
    assert rec.fit.ok


def test_robust_g_error_estimate_above_tolerance_gives_failed_record(monkeypatch):
    """With the Gauss weights zeroed the error estimate equals the value,
    far above ROBUST_G_RTOL of it."""
    data = small_data(seed=4)
    gamma = Gamma.from_key("22")
    assert np.isfinite(score(gamma, data, ROBUST_G).log_ml)
    monkeypatch.setattr(marglik, "_GK_GAUSS", np.zeros_like(marglik._GK_GAUSS))
    rec = score(gamma, data, ROBUST_G)
    assert rec.log_ml == -math.inf
    assert rec.fit.ok


def test_chain_survives_one_failed_robust_g_quadrature(monkeypatch):
    """A model whose quadrature fails scores -inf; the chain runs on."""
    data = small_data(seed=4)
    target = "22"
    real_score = ModelScorer.score

    def score_failing_target(self, gamma):
        if gamma.key != target:
            return real_score(self, gamma)
        with monkeypatch.context() as m:
            m.setattr(marglik.ILAFactor, "log_ml", _nan_log_ml)
            return real_score(self, gamma)

    monkeypatch.setattr(ModelScorer, "score", score_failing_target)
    cfg = ScorerConfig(method=ROBUST_G)
    trace = run_chain(ModelScorer(data, Kernel.NORMAL, cfg),
                      ChainConfig(iterations=400, burn_in=100, seed=3))
    assert trace.n_steps == 400
    assert trace.visited[target][0] == -math.inf
    assert all(math.isfinite(log_ml) for key, (log_ml, _) in trace.visited.items()
               if key != target)
    assert target not in {key for _, _, key in trace.samples}


_GK_MODELS = ("2000", "3000", "1100", "4400", "3100", "3300", "2222", "3210",
              "3310", "3330", "3331", "3333")


@pytest.mark.parametrize("n", [30, 500, 5000])
def test_robust_g_rule_matches_adaptive_quadrature(n):
    """The fixed Gauss-Kronrod rule agrees with SciPy's adaptive quadrature
    over the same range and tail, for models with 1 to 8 coefficients."""
    data, _ = simulate_dataset(SimConfig(
        n=n, p=4, truth=Gamma.from_key("3300"), alpha=np.array([1.0, 0.5, 0.0, 0.0]),
        beta=np.array([0.5, -1.0, 0.0, 0.0]), target_censoring=0.25, seed=1))
    X = (data.X - data.X.mean(axis=0)) / data.X.std(axis=0)
    data = Dataset(t=data.t, delta=data.delta, X=X, names=data.names)
    dims = set()
    for key in _GK_MODELS:
        gamma = Gamma.from_key(key)
        fit = fit_mle(gamma, data, Kernel.NORMAL)
        assert fit.ok, key
        dims.add(dim_coef(gamma))
        new = marglik._robust_g_log_ml(fit, dim_coef(gamma), data.n)
        ref = oracles.robust_g_quad_reference(gamma, data, Kernel.NORMAL, fit=fit).log_ml
        assert np.isfinite(ref)
        assert abs(new - ref) <= 1e-10, key
    assert dims == set(range(1, 9))
