import math

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
    fn_name, kernel, arg = spec
    got = getattr(baseline, fn_name)(arg, kernel)
    assert got == pytest.approx(frozen, rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("u", [-8.0, -3.0, -1.0, -0.3, 0.0, 0.3, 1.0, 3.0, 8.0, 20.0])
def test_log_f_matches_high_precision(kernel, u):
    assert baseline.log_f(u, kernel) == pytest.approx(
        oracles.mp_log_f(u, kernel), rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("u", [-30.0, -8.0, -1.0, 0.0, 1.0, 8.0, 30.0])
def test_log_F_neg_matches_high_precision(kernel, u):
    assert baseline.log_F_neg(u, kernel) == pytest.approx(
        oracles.mp_log_F_neg(u, kernel), rel=1e-11, abs=1e-14)


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("u", [-5.0, -2.0, -0.5, 0.0, 0.5, 2.0, 5.0])
def test_ratio_functions_match_high_precision(kernel, u):
    import mpmath as mp
    f = oracles.mp_f(u, kernel)
    Fneg = oracles.mp_F(-u, kernel)
    fp = mp.diff(lambda x: oracles.mp_f(x, kernel), u)
    fpp = mp.diff(lambda x: oracles.mp_f(x, kernel), u, 2)
    assert baseline.ratio_f_over_Fneg(u, kernel) == pytest.approx(
        float(f / Fneg), rel=1e-10)
    assert baseline.ratio_fprime_over_f(u, kernel) == pytest.approx(
        float(fp / f), rel=1e-10, abs=1e-12)
    assert baseline.ratio_fsecond_over_f(u, kernel) == pytest.approx(
        float(fpp / f), rel=1e-9, abs=1e-10)
    assert baseline.ratio_fprime_over_Fneg(u, kernel) == pytest.approx(
        float(fp / Fneg), rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("kernel", KERNELS)
def test_tail_stability(kernel):
    for u in (-300.0, -50.0, 50.0, 300.0):
        lf = baseline.log_f(u, kernel)
        lF = baseline.log_F_neg(u, kernel)
        assert np.isfinite(lf) and lf < 0.0
        assert np.isfinite(lF) and lF <= 0.0
    # log F(-u) non-increasing everywhere, strictly decreasing mid-range
    us = np.linspace(-300, 300, 601)
    vals = baseline.log_F_neg(us, kernel)
    assert np.all(np.diff(vals) <= 0)
    mid_vals = baseline.log_F_neg(np.linspace(-8, 290, 300), kernel)
    assert np.all(np.diff(mid_vals) < 0)


@pytest.mark.parametrize("kernel", KERNELS)
def test_quantile_roundtrip(kernel):
    for p in (1e-6, 0.01, 0.25, 0.5, 0.75, 0.99, 1 - 1e-6):
        q = baseline.quantile(p, kernel)
        # F(q) = 1 - F(-q)
        assert 1.0 - math.exp(baseline.log_F_neg(q, kernel)) == pytest.approx(
            p, abs=1e-9)
    with pytest.raises(ValueError):
        baseline.quantile(0.0, kernel)
    with pytest.raises(ValueError):
        baseline.quantile(1.0, kernel)


@pytest.mark.parametrize("kernel", KERNELS)
def test_array_and_scalar_interfaces(kernel):
    u = np.array([-1.0, 0.0, 2.0])
    out = baseline.log_f(u, kernel)
    assert isinstance(out, np.ndarray) and out.shape == (3,)
    scalar = baseline.log_f(0.5, kernel)
    assert isinstance(scalar, float)


@settings(max_examples=120, deadline=None)
@given(u=st.floats(min_value=-40, max_value=40),
       ki=st.integers(min_value=0, max_value=3))
def test_ratio_product_identity(u, ki):
    kernel = KERNELS[ki]
    lhs = baseline.ratio_fprime_over_Fneg(u, kernel)
    rhs = (baseline.ratio_fprime_over_f(u, kernel)
           * baseline.ratio_f_over_Fneg(u, kernel))
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-300)


@settings(max_examples=120, deadline=None)
@given(u=st.floats(min_value=-30, max_value=30),
       ki=st.integers(min_value=0, max_value=3))
def test_density_normalisation_consistency(u, ki):
    # d/du log F(-u) = -f(u)/F(-u)
    kernel = KERNELS[ki]
    h = 1e-5 * max(1.0, abs(u))
    fd = (baseline.log_F_neg(u + h, kernel) - baseline.log_F_neg(u - h, kernel)) / (2 * h)
    assert fd == pytest.approx(-baseline.ratio_f_over_Fneg(u, kernel),
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
    _assert_rel(baseline.log_F_neg(u, Kernel.NORMAL), ref, 1e-13)


def test_normal_ratio_f_over_Fneg_matches_mpmath():
    import mpmath as mp
    u = np.linspace(-40.0, 300.0, 3401)
    ref = [float(mp.npdf(x) / mp.ncdf(-mp.mpf(x))) for x in u]
    _assert_rel(baseline.ratio_f_over_Fneg(u, Kernel.NORMAL), ref, 1e-12)


def test_normal_quantile_matches_mpmath():
    """From p = 1e-300 to 1 - 1e-16, including points within 1e-12 of 1/2."""
    import mpmath as mp
    p = np.concatenate([np.geomspace(1e-300, 0.5, 121), 1.0 - np.geomspace(1e-16, 0.5, 61),
                        0.5 + np.geomspace(1e-12, 0.2, 13), 0.5 - np.geomspace(1e-12, 0.2, 13)])
    ref = [oracles.mp_normal_quantile(mp.log(x), special.ndtri(x)) for x in p]
    _assert_rel(baseline.quantile(p, Kernel.NORMAL), ref, 1e-12)
    assert baseline.quantile(0.5, Kernel.NORMAL) == 0.0


def test_logistic_log_F_neg_matches_mpmath_on_dense_grid():
    import mpmath as mp
    u = np.linspace(-800.0, 800.0, 16001)
    # -log(1 + e^u) through log1p: log of 1 + e^u loses e^u below the working precision
    ref = [-float(mp.log1p(mp.exp(x))) for x in u]
    _assert_rel(baseline.log_F_neg(u, Kernel.LOGISTIC), ref, 1e-15)


def test_logistic_closed_forms_are_stable():
    u = np.array([-800.0, -40.0, -1.0, 0.0, 1e-8, 3.0, 40.0, 800.0])
    _assert_rel(baseline.ratio_f_over_Fneg(u, Kernel.LOGISTIC), special.expit(u), 1e-15)
    p = np.array([1e-300, 1e-10, 0.2, 0.25, 0.5 - 1e-12, 0.5, 0.7, 1.0 - 1e-16])
    _assert_rel(baseline.quantile(p, Kernel.LOGISTIC), special.logit(p), 1e-14)


@pytest.mark.parametrize("kernel", KERNELS)
def test_newton_terms_match_the_single_functions(kernel):
    """One `newton_terms` call gives log f, log F(-u), f/F(-u), f'/f and f''/f
    exactly as the single functions give them, on a grid of |u| <= 800 (past
    the overflow of cosh), and a scalar u gives a float equal to its entry."""
    u = np.concatenate((np.linspace(-800.0, 800.0, 16001), np.linspace(-40.0, 40.0, 8001),
                        [0.0, -0.0, 1e-300, -1e-300, 30.0, 37.5, 709.9, 710.5, -710.5]))
    singles = (baseline.log_f, baseline.log_F_neg, baseline.ratio_f_over_Fneg,
               baseline.ratio_fprime_over_f, baseline.ratio_fsecond_over_f)
    for got, single in zip(baseline.newton_terms(u, kernel), singles):
        assert np.array_equal(single(u, kernel), got, equal_nan=True), single.__name__
        for i in (0, 12000, 16000, -9, -8, -7, -6, -1):  # -800, 400, 800, +-0, +-1e-300, -710.5
            scalar = single(u[i], kernel)
            assert isinstance(scalar, float), single.__name__
            assert np.array_equal(scalar, got[i], equal_nan=True), (single.__name__, u[i])
