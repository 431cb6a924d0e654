import math
import warnings

import numpy as np
import pytest
from scipy import stats

import oracles
from ghsel.baseline import Kernel
from ghsel.modelspace import Gamma, HazardClass
from ghsel.simulate import (LogLocationScaleBaseline, PGWBaseline, SimConfig,
                            _kernel_quantile_exp, apply_administrative_censoring,
                            baseline_from_dict, _baseline_dict, protocol_truth,
                            simulate_covariates, simulate_dataset,
                            simulate_gh_times)


def test_covariate_autocorrelation_structure():
    rng = np.random.default_rng(0)
    X = simulate_covariates(60_000, 4, 0.7, rng)
    C = np.corrcoef(X.T)
    for i in range(4):
        for j in range(4):
            assert C[i, j] == pytest.approx(0.7 ** abs(i - j), abs=0.02)
    assert np.allclose(X.std(axis=0), 1.0, atol=0.02)


def test_normal_quantile_exp_matches_mpmath():
    """log q from -700 to -1e-16, including points within 1e-12 of log(1/2)."""
    from scipy import special
    log_q = np.concatenate([-np.geomspace(1e-16, 700.0, 241),
                            -math.log(2.0) + np.geomspace(1e-12, 0.2, 9),
                            -math.log(2.0) - np.geomspace(1e-12, 0.2, 9)])
    ref = [oracles.mp_normal_quantile(x, special.ndtri_exp(x)) for x in log_q]
    got = _kernel_quantile_exp(log_q, Kernel.NORMAL)
    assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref))


@pytest.mark.parametrize("kernel", list(Kernel))
def test_kernel_quantile_exp_matches_quantile(kernel):
    from ghsel import baseline
    for q in (0.9, 0.5, 0.1, 1e-3, 1e-8):
        got = float(_kernel_quantile_exp(math.log(q), kernel))
        if q >= 1e-3:
            assert got == pytest.approx(baseline.quantile(q, kernel), rel=1e-9)
        else:
            # deep tail: invert via the CDF instead
            back = math.exp(baseline.log_F_neg(-got, kernel))
            assert back == pytest.approx(q, rel=1e-6)
    # extreme log-q must stay finite
    assert np.isfinite(_kernel_quantile_exp(-700.0, kernel))


def test_lls_baseline_cumhaz_inverse_roundtrip():
    b = LogLocationScaleBaseline(mu=1.2, sigma=0.5, kernel=Kernel.LOGISTIC)
    w = np.array([1e-6, 0.1, 1.0, 10.0, 300.0])
    t = b.inverse_cumhaz(w)
    assert np.allclose(b.cumhaz(t), w, rtol=1e-9)


def test_pgw_baseline_self_consistency():
    b = PGWBaseline(scale=1.3, s1=0.8, s2=2.5)
    t = np.linspace(0.05, 8.0, 200)
    # h0 = dH0/dt by finite differences
    h = 1e-6
    fd = (b.cumhaz(t + h) - b.cumhaz(t - h)) / (2 * h)
    assert np.allclose(b.hazard(t), fd, rtol=1e-6)
    w = b.cumhaz(t)
    assert np.allclose(b.inverse_cumhaz(w), t, rtol=1e-9)
    assert PGWBaseline(1.0, 1.0, 2.0).cumhaz(3.0) == pytest.approx(1.0)


def test_null_model_times_follow_baseline():
    rng = np.random.default_rng(3)
    n = 20_000
    X = np.zeros((n, 1))
    t = simulate_gh_times(X, np.zeros(1), np.zeros(1),
                          LogLocationScaleBaseline(1.55, 0.7, Kernel.NORMAL), rng)
    ks = stats.kstest(np.log(t), "norm", args=(1.55, 0.7))
    assert ks.pvalue > 0.01


def test_gh_times_have_unit_exponential_cumhaz():
    """H(T|x) must be Exp(1) whatever the covariate effects."""
    rng = np.random.default_rng(4)
    n = 20_000
    X = rng.standard_normal((n, 2))
    alpha = np.array([0.8, -0.3])
    beta = np.array([-0.5, 0.7])
    b = LogLocationScaleBaseline(1.0, 0.6, Kernel.LOGISTIC)
    t = simulate_gh_times(X, alpha, beta, b, rng)
    a = X @ alpha
    H = b.cumhaz(t * np.exp(a)) * np.exp(X @ beta - a)
    ks = stats.kstest(H, "expon")
    assert ks.pvalue > 0.01


def test_heavy_tailed_times_beyond_float_range_end_censored():
    """With the t2 kernel some simulated times exceed the float range: they
    come out infinite without an overflow warning and end censored at the
    administrative cut-off."""
    truth, alpha, beta = protocol_truth(5, HazardClass.GH, strict=False)
    baseline = LogLocationScaleBaseline(kernel=Kernel.STUDENT_T2)
    for seed in range(4):
        cfg = SimConfig(n=200, p=5, truth=truth, alpha=alpha, beta=beta,
                        baseline=baseline, target_censoring=0.25, seed=seed)
        rng = np.random.default_rng(seed)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            X = simulate_covariates(cfg.n, cfg.p, cfg.rho, rng)
            raw = simulate_gh_times(X, alpha, beta, baseline, rng)
            data, record = simulate_dataset(cfg)
        inf = np.isinf(raw)
        assert inf.any() and not np.isnan(raw).any()
        assert math.isfinite(record["c_admin"]) and np.all(np.isfinite(data.t))
        assert np.all(data.t[inf] == record["c_admin"])
        assert np.all(data.delta[inf] == 0.0)


def test_zero_censoring_ends_infinite_times_censored_at_last_finite_time():
    """With no censoring asked for, times beyond the float range end censored
    at the largest finite simulated time; every finite time is an event."""
    truth, alpha, beta = protocol_truth(5, HazardClass.GH, strict=False)
    baseline = LogLocationScaleBaseline(kernel=Kernel.STUDENT_T2)
    cfg = SimConfig(n=200, p=5, truth=truth, alpha=alpha, beta=beta,
                    baseline=baseline, target_censoring=0.0, seed=0)
    rng = np.random.default_rng(0)
    X = simulate_covariates(cfg.n, cfg.p, cfg.rho, rng)
    raw = simulate_gh_times(X, alpha, beta, baseline, rng)
    inf = np.isinf(raw)
    assert inf.any()
    data, record = simulate_dataset(cfg)
    assert record["c_admin"] == raw[~inf].max()
    assert np.all(data.t[inf] == record["c_admin"])
    assert np.all(data.delta[inf] == 0.0) and np.all(data.delta[~inf] == 1.0)
    assert np.array_equal(data.t[~inf], raw[~inf])


def test_administrative_censoring():
    times = np.arange(1.0, 101.0)
    t, delta, c = apply_administrative_censoring(times, 0.25)
    assert delta.mean() == pytest.approx(0.76, abs=0.011)
    assert np.all(t <= c)
    assert np.all(t[delta == 0.0] == c)
    t2, d2, c2 = apply_administrative_censoring(times, 0.0)
    assert np.all(d2 == 1.0) and c2 == math.inf


def test_simulate_dataset_deterministic():
    truth = Gamma.from_key("0202")
    cfg = SimConfig(n=100, p=4, truth=truth, alpha=np.zeros(4),
                    beta=np.array([0, 1.0, 0, -1.0]), target_censoring=0.3,
                    seed=9)
    d1, truth1 = simulate_dataset(cfg)
    d2, truth2 = simulate_dataset(cfg)
    assert np.array_equal(d1.t, d2.t)
    assert np.array_equal(d1.X, d2.X)
    assert truth1 == truth2
    assert truth1["gamma"] == "0202"
    assert d1.n_events == 70


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(n=10, p=2, truth=Gamma.from_key("20"), alpha=np.zeros(3),
                  beta=np.zeros(2))
    with pytest.raises(ValueError):
        SimConfig(n=10, p=2, truth=Gamma.from_key("20"), alpha=np.zeros(2),
                  beta=np.zeros(2), rho=1.0)
    with pytest.raises(ValueError):
        SimConfig(n=10, p=2, truth=Gamma.from_key("20"), alpha=np.zeros(2),
                  beta=np.zeros(2), target_censoring=1.0)


def test_baseline_dict_roundtrip():
    b = LogLocationScaleBaseline(1.1, 0.9, Kernel.SECH)
    assert baseline_from_dict(_baseline_dict(b)) == b
    g = PGWBaseline(2.0, 1.5, 3.0)
    assert baseline_from_dict(_baseline_dict(g)) == g


def test_protocol_truth():
    truth, alpha, beta = protocol_truth(10, HazardClass.PH)
    assert truth.key == "0202020200"
    active = [i for i, c in enumerate(truth.codes) if c]
    assert active == [1, 3, 5, 7]
    assert [beta[i] for i in active] == [1.0, -1.0, 0.25, -0.25]
    assert np.all(alpha == 0.0)

    t_gh, a_gh, b_gh = protocol_truth(10, HazardClass.GH)
    assert t_gh.key == "0303030300"
    assert [a_gh[i] for i in active] == [1.0, 0.25, -1.0, -0.25]
    assert [b_gh[i] for i in active] == [0.25, -1.0, -0.25, 1.0]

    t_aft, a_aft, b_aft = protocol_truth(10, HazardClass.AFT)
    assert t_aft.key == "0404040400"
    assert np.allclose(a_aft, b_aft)

    with pytest.raises(ValueError):
        protocol_truth(3, HazardClass.PH)
    small, sa, sb = protocol_truth(2, HazardClass.PH, strict=False)
    assert small.key == "22"
