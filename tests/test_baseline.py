import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

import oracles
from ghsel import baseline
from ghsel.baseline import Kernel

KERNELS = list(Kernel)


@pytest.mark.parametrize("spec,frozen", list(oracles.FROZEN.items()))
def test_frozen_reference_values(spec, frozen):
    name, kernel, arg = spec
    got = (baseline.quantile(arg, kernel) if name == "quantile"
           else oracles.kernel_terms(arg, kernel)[name])
    assert got == pytest.approx(frozen, rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("u", [-8.0, -3.0, -1.0, -0.3, 0.0, 0.3, 1.0, 3.0, 8.0, 20.0])
def test_log_f_matches_high_precision(kernel, u):
    assert oracles.kernel_terms(u, kernel)["log_f"] == pytest.approx(
        oracles.mp_log_f(u, kernel), rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("u", [-30.0, -8.0, -1.0, 0.0, 1.0, 8.0, 30.0])
def test_log_F_neg_matches_high_precision(kernel, u):
    assert oracles.kernel_terms(u, kernel)["log_F_neg"] == pytest.approx(
        oracles.mp_log_F_neg(u, kernel), rel=1e-11, abs=1e-14)


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("u", [-5.0, -2.0, -0.5, 0.0, 0.5, 2.0, 5.0])
def test_ratio_functions_match_high_precision(kernel, u):
    import mpmath as mp
    f = oracles.mp_f(u, kernel)
    Fneg = oracles.mp_F(-u, kernel)
    fp = mp.diff(lambda x: oracles.mp_f(x, kernel), u)
    fpp = mp.diff(lambda x: oracles.mp_f(x, kernel), u, 2)
    terms = oracles.kernel_terms(u, kernel)
    assert terms["ratio_f_over_Fneg"] == pytest.approx(
        float(f / Fneg), rel=1e-10)
    assert terms["ratio_fprime_over_f"] == pytest.approx(
        float(fp / f), rel=1e-10, abs=1e-12)
    assert terms["ratio_fsecond_over_f"] == pytest.approx(
        float(fpp / f), rel=1e-9, abs=1e-10)
    assert terms["ratio_fprime_over_Fneg"] == pytest.approx(
        float(fp / Fneg), rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("kernel", KERNELS)
def test_tail_stability(kernel):
    for u in (-300.0, -50.0, 50.0, 300.0):
        terms = oracles.kernel_terms(u, kernel)
        lf, lF = terms["log_f"], terms["log_F_neg"]
        assert np.isfinite(lf) and lf < 0.0
        assert np.isfinite(lF) and lF <= 0.0
    # log F(-u) non-increasing everywhere, strictly decreasing mid-range
    us = np.linspace(-300, 300, 601)
    vals = oracles.kernel_terms(us, kernel)["log_F_neg"]
    assert np.all(np.diff(vals) <= 0)
    mid_vals = oracles.kernel_terms(np.linspace(-8, 290, 300), kernel)["log_F_neg"]
    assert np.all(np.diff(mid_vals) < 0)


@pytest.mark.parametrize("kernel", KERNELS)
def test_quantile_roundtrip(kernel):
    for p in (1e-6, 0.01, 0.25, 0.5, 0.75, 0.99, 1 - 1e-6):
        q = baseline.quantile(p, kernel)
        # F(q) = 1 - F(-q)
        assert 1.0 - math.exp(oracles.kernel_terms(q, kernel)["log_F_neg"]) == pytest.approx(
            p, abs=1e-9)
    with pytest.raises(ValueError):
        baseline.quantile(0.0, kernel)
    with pytest.raises(ValueError):
        baseline.quantile(1.0, kernel)


@pytest.mark.parametrize("kernel", KERNELS)
def test_array_and_scalar_interfaces(kernel):
    """`newton_terms` gives five arrays of u's length; `quantile` and
    `quantile_exp` give an array for an array and a float for a scalar."""
    u = np.array([-1.0, 0.0, 2.0])
    for out in baseline.newton_terms(u, kernel):
        assert isinstance(out, np.ndarray) and out.shape == (3,)
    for fn, x in ((baseline.quantile, 0.3), (baseline.quantile_exp, -1.0)):
        out = fn(np.array([x, x]), kernel)
        assert isinstance(out, np.ndarray) and out.shape == (2,)
        assert isinstance(fn(x, kernel), float)


@settings(max_examples=120, deadline=None)
@given(u=st.floats(min_value=-40, max_value=40),
       ki=st.integers(min_value=0, max_value=3))
def test_ratio_product_identity(u, ki):
    kernel = KERNELS[ki]
    terms = oracles.kernel_terms(u, kernel)
    lhs = terms["ratio_fprime_over_Fneg"]
    rhs = terms["ratio_fprime_over_f"] * terms["ratio_f_over_Fneg"]
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-300)


@settings(max_examples=120, deadline=None)
@given(u=st.floats(min_value=-30, max_value=30),
       ki=st.integers(min_value=0, max_value=3))
def test_density_normalisation_consistency(u, ki):
    # d/du log F(-u) = -f(u)/F(-u)
    kernel = KERNELS[ki]
    h = 1e-5 * max(1.0, abs(u))
    lF = lambda x: oracles.kernel_terms(x, kernel)["log_F_neg"]
    fd = (lF(u + h) - lF(u - h)) / (2 * h)
    assert fd == pytest.approx(-oracles.kernel_terms(u, kernel)["ratio_f_over_Fneg"],
                               rel=2e-5, abs=1e-8)


# ---------------------------------------------------------------------------
# the normal kernel in NumPy against mpmath

_TINY = np.finfo(float).tiny


def _assert_rel(got, ref, rel):
    """Relative error within `rel` wherever the reference is a normal double;
    below the smallest normal double, agreement to within that."""
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    bad = np.abs(got - ref) > rel * np.abs(ref) + _TINY
    assert not bad.any(), list(zip(got[bad][:5], ref[bad][:5]))


def test_normal_log_F_neg_matches_mpmath_on_dense_grid():
    u = np.concatenate([np.linspace(-40.0, 40.0, 4001), [-50.0, 50.0, -300.0, 300.0]])
    ref = [float(oracles.mp_normal_log_sf(x)) for x in u]
    _assert_rel(oracles.kernel_terms(u, Kernel.NORMAL)["log_F_neg"], ref, 1e-13)


def test_normal_ratio_f_over_Fneg_matches_mpmath():
    import mpmath as mp
    u = np.linspace(-40.0, 300.0, 3401)
    ref = [float(mp.npdf(x) / mp.ncdf(-mp.mpf(x))) for x in u]
    _assert_rel(oracles.kernel_terms(u, Kernel.NORMAL)["ratio_f_over_Fneg"], ref, 1e-12)


# p from 1e-300 to 1 - 1e-16, and log q from -700 to -1e-16, each with points
# within 1e-12 of q = 1/2
_P_GRID = np.concatenate([np.geomspace(1e-300, 0.5, 121), 1.0 - np.geomspace(1e-16, 0.5, 61),
                          0.5 + np.geomspace(1e-12, 0.2, 13), 0.5 - np.geomspace(1e-12, 0.2, 13)])
_LOG_Q_GRID = np.concatenate([-np.geomspace(1e-16, 700.0, 241),
                              -math.log(2.0) + np.geomspace(1e-12, 0.2, 9),
                              -math.log(2.0) - np.geomspace(1e-12, 0.2, 9)])


def test_normal_quantile_matches_mpmath():
    import mpmath as mp
    ref = [oracles.mp_normal_quantile(mp.log(x), special.ndtri(x)) for x in _P_GRID]
    _assert_rel(baseline.quantile(_P_GRID, Kernel.NORMAL), ref, 1e-12)
    assert baseline.quantile(0.5, Kernel.NORMAL) == 0.0


@pytest.mark.parametrize("kernel", [Kernel.LOGISTIC, Kernel.SECH, Kernel.STUDENT_T2])
def test_closed_form_quantiles_match_mpmath(kernel):
    """`quantile` on the p grid and `quantile_exp` on the log q grid, without
    a warning; the normal kernel's are checked by Newton steps in mpmath."""
    import mpmath as mp
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _assert_rel(baseline.quantile(_P_GRID, kernel),
                    [oracles.mp_quantile(mp.log(x), kernel) for x in _P_GRID], 1e-12)
        _assert_rel(baseline.quantile_exp(_LOG_Q_GRID, kernel),
                    [oracles.mp_quantile(x, kernel) for x in _LOG_Q_GRID], 1e-12)
        assert baseline.quantile(0.5, kernel) == 0.0
        assert isinstance(baseline.quantile_exp(-1.0, kernel), float)
    with pytest.raises(ValueError):
        baseline.quantile_exp(0.0, kernel)


def test_logistic_log_F_neg_matches_mpmath_on_dense_grid():
    import mpmath as mp
    u = np.linspace(-800.0, 800.0, 16001)
    # -log(1 + e^u) through log1p: log of 1 + e^u loses e^u below the working precision
    ref = [-float(mp.log1p(mp.exp(x))) for x in u]
    _assert_rel(oracles.kernel_terms(u, Kernel.LOGISTIC)["log_F_neg"], ref, 1e-15)


def test_logistic_closed_forms_are_stable():
    u = np.array([-800.0, -40.0, -1.0, 0.0, 1e-8, 3.0, 40.0, 800.0])
    _assert_rel(oracles.kernel_terms(u, Kernel.LOGISTIC)["ratio_f_over_Fneg"], special.expit(u), 1e-15)
    p = np.array([1e-300, 1e-10, 0.2, 0.25, 0.5 - 1e-12, 0.5, 0.7, 1.0 - 1e-16])
    _assert_rel(baseline.quantile(p, Kernel.LOGISTIC), special.logit(p), 1e-14)


# beyond |u| = 1.2e77 the t2 kernel's (u^2 + 2)^2 overflows, and beyond
# 1.3e154 so does u^2, the normal kernel's too; pi u/2 beyond 1.1e308
_MAX = np.finfo(float).max
_FAR = np.array([1e100, 1e155, 1e200, 1e300, _MAX, -1e100, -1e155, -1e200, -1e300, -_MAX])


@pytest.mark.parametrize("kernel", KERNELS)
def test_newton_terms_match_the_single_functions(kernel):
    """One `newton_terms` call on a grid of |u| <= 800 (past the overflow of
    cosh), out to the float maximum and at +-inf raises no warning, and gives
    each term at a point exactly as a call at that point alone does, a float
    for a scalar u.  Every term is NaN at u = NaN and nowhere else.  The t2
    kernel's terms where its u^2 overflows, and its f''/f where (u^2 + 2)^2
    does, match mpmath."""
    u = np.concatenate((np.linspace(-800.0, 800.0, 16001), np.linspace(-40.0, 40.0, 8001),
                        [0.0, -0.0, 1e-300, -1e-300, 30.0, 37.5, 709.9, 710.5, -710.5],
                        _FAR, [np.inf, -np.inf, np.nan]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = baseline.newton_terms(u, kernel)
        # -800, 400, 800, +-0, +-1e-300, -710.5, 1e100, 1e300, -max, +-inf and NaN
        for i in (0, 12000, 16000, 24002, 24003, 24004, 24005, 24010, 24011, 24014, -4, -3, -2, -1):
            single = oracles.kernel_terms(u[i], kernel)
            for name, term in zip(oracles.TERMS, got):
                assert isinstance(single[name], float), name
                assert np.array_equal(single[name], term[i], equal_nan=True), (name, u[i])
    for name, term in zip(oracles.TERMS, got):
        assert np.array_equal(np.isnan(term), np.isnan(u)), name
    if kernel is Kernel.STUDENT_T2:
        import mpmath as mp
        with mp.workdps(1300):  # F(-u) cancels in 2 log10(u) digits
            ref = np.array([[float(mp.log(oracles.mp_f(x, kernel))),
                             float(mp.log(oracles.mp_F(-mp.mpf(x), kernel))),
                             float(oracles.mp_f(x, kernel) / oracles.mp_F(-mp.mpf(x), kernel)),
                             oracles.mp_dlogf(x, kernel), oracles.mp_d2f_over_f(x, kernel)]
                            for x in _FAR])
        # f''/f everywhere; the other terms where u^2 overflows, since at -1e100
        # the closed form's log F(-u) = log(1/2) + log1p(|u|/sqrt(u^2 + 2)) reads 0
        square_inf = np.abs(_FAR) > 1.4e154
        for j, (name, term) in enumerate(zip(oracles.TERMS, got)):
            at = slice(None) if name == "ratio_fsecond_over_f" else square_inf
            _assert_rel(term[-len(_FAR) - 3:-3][at], ref[at, j], 1e-12)
