"""Independent oracles used to validate the package.

Everything here is derived from first principles with generic tools (mpmath
arbitrary precision, SciPy distributions, finite differences, mode-centred
Gauss-Hermite quadrature) and deliberately shares no code with the package
internals.  The exceptions are the helpers over the packed coefficient vector
(`Psi`, `project_init`, `observed_fisher`, `lcm_prior_cov`), which reuse the
package's column bookkeeping, `write_trace_jsonl`, the reference for the
CLI's trace file, `robust_g_quad_reference`, the robust hyper-g score by
adaptive quadrature over the package's own fit and closed form, and
`kernel_terms` and `baseline_cumhaz`, which read the package's kernel terms
by name and give the simulation families' cumulative hazards: only tests
need them.  `evaluate_reference`, `propose_reference` and
`run_chain_reference` keep the package's earlier likelihood pass (generic
coordinates and hand-expanded Hessian blocks) and MH step (a proposal built
and its Hastings ratio computed on every step), over the package's kernels
and move distribution, as references for the per-observation and per-model
tables that replaced them, and `log_model_prior_reference` and
`valid_idx_reference` keep the model-space prior's general effect-count
weighting and the case analysis of the GH add/delete indices, as references
for their closed forms.
"""

from __future__ import annotations

import bisect
import itertools
import json
import math
from dataclasses import dataclass, field

import mpmath as mp
import numpy as np
from scipy import integrate
from scipy import optimize as sopt
from scipy import stats

from ghsel import baseline, marglik, optimize, priors
from ghsel.baseline import Kernel
from ghsel.ghlik import (LINPRED_CLAMP, DimensionError, dim_coef, dim_psi,
                         design, evaluate, hazard_level_columns, time_level_columns)
from ghsel.marglik import ILAFactor, MarglikRecord, ila_from_fit
from ghsel.modelspace import Gamma, HazardClass, classify, get_valid_idx, log_model_prior
from ghsel.sampler import _MOVE_ORDER, MoveKind, Proposal, move_distribution
from ghsel.simulate import PGWBaseline
from ghsel.priors import RankDeficiencyError

mp.mp.dps = 50


# ---------------------------------------------------------------------------
# high-precision kernel densities and CDFs

def mp_f(u, kernel: Kernel):
    u = mp.mpf(u)
    if kernel is Kernel.NORMAL:
        return mp.exp(-u * u / 2) / mp.sqrt(2 * mp.pi)
    if kernel is Kernel.LOGISTIC:
        return mp.exp(-u) / (1 + mp.exp(-u)) ** 2
    if kernel is Kernel.SECH:
        return 1 / (2 * mp.cosh(mp.pi * u / 2))
    if kernel is Kernel.STUDENT_T2:
        return (u * u + 2) ** mp.mpf("-1.5")
    raise ValueError(kernel)


def mp_F(u, kernel: Kernel):
    u = mp.mpf(u)
    if kernel is Kernel.NORMAL:
        return mp.ncdf(u)
    if kernel is Kernel.LOGISTIC:
        return 1 / (1 + mp.exp(-u))
    if kernel is Kernel.SECH:
        return (2 / mp.pi) * mp.atan(mp.exp(mp.pi * u / 2))
    if kernel is Kernel.STUDENT_T2:
        return (1 + u / mp.sqrt(u * u + 2)) / 2
    raise ValueError(kernel)


def mp_log_f(u, kernel):
    return float(mp.log(mp_f(u, kernel)))


def mp_log_F_neg(u, kernel):
    return float(mp.log(mp_F(-mp.mpf(u), kernel)))


def mp_quantile(log_q, kernel):
    """The logistic, sech or t2 quantile of q given log q (an mpf, or a double
    taken as exact), in closed form from q and 1 - q, each computed without
    cancellation; `mp_normal_quantile` gives the normal's."""
    log_q = mp.mpf(log_q)
    q, q1 = mp.exp(log_q), -mp.expm1(log_q)
    if kernel is Kernel.LOGISTIC:
        return float(log_q - mp.log(q1))
    if kernel is Kernel.SECH:  # (2/pi) log tan(pi q/2), with cos(pi q/2) = sin(pi (1 - q)/2)
        return float(2 / mp.pi * (mp.log(mp.sin(mp.pi * q / 2)) - mp.log(mp.sin(mp.pi * q1 / 2))))
    if kernel is Kernel.STUDENT_T2:
        return float((q - q1) / mp.sqrt(2 * q * q1))
    raise ValueError(kernel)


def mp_normal_log_sf(u):
    """log Phi(-u), in a form that keeps full precision on both sides."""
    u = mp.mpf(u)
    return mp.log(mp.ncdf(-u)) if u > 0 else mp.log1p(-mp.ncdf(u))


def mp_normal_quantile(log_q, start):
    """The normal quantile of q given log q (an mpf, or a double taken as
    exact), found in 50 digits by solving log Phi(-z) = log min(q, 1 - q);
    `start` (a double, from any rough inverse) only seeds the root finder."""
    log_q = mp.mpf(log_q)
    lower = log_q < -mp.log(2)
    target = log_q if lower else mp.log(-mp.expm1(log_q))
    if target == -mp.log(2):
        return 0.0
    z = mp.findroot(lambda z: mp.log(mp.ncdf(-z)) - target, mp.mpf(-start if lower else start))
    return float(-z if lower else z)


TERMS = ("log_f", "log_F_neg", "ratio_f_over_Fneg", "ratio_fprime_over_f", "ratio_fsecond_over_f")


def kernel_terms(u, kernel: Kernel) -> dict:
    """The kernel's five terms at u of any shape by name, from one
    `baseline.newton_terms` call, with f'/F(-u) as the product
    `ratio_fprime_over_f * ratio_f_over_Fneg`; each has u's shape, and is a
    float for a scalar u."""
    u = np.asarray(u, dtype=float)
    terms = dict(zip(TERMS, (t.reshape(u.shape) for t in baseline.newton_terms(u.reshape(-1), kernel))))
    # the normal f'/F(-u) = -u^2 overflows beyond |u| = 1.3e154, and is inf * 0 at -inf
    with np.errstate(over="ignore", invalid="ignore"):
        terms["ratio_fprime_over_Fneg"] = terms["ratio_fprime_over_f"] * terms["ratio_f_over_Fneg"]
    return {name: t if u.shape else float(t) for name, t in terms.items()}


def baseline_cumhaz(family, t):
    """H0(t) of a simulation baseline family from its formula: -log F(-z) at
    z = (log t - mu)/sigma for a log-location-scale family, and
    (1 + (t/scale)^s1)^(1/s2) - 1 = expm1(log1p((t/scale)^s1)/s2) for the
    power generalized Weibull, which keeps its digits for small t."""
    t = np.asarray(t, dtype=float)
    if isinstance(family, PGWBaseline):
        return np.expm1(np.log1p((t / family.scale) ** family.s1) / family.s2)
    return -kernel_terms((np.log(t) - family.mu) / family.sigma, family.kernel)["log_F_neg"]


def mp_dlogf(u, kernel):
    """f'(u)/f(u) by high-precision differentiation of log f."""
    return float(mp.diff(lambda x: mp.log(mp_f(x, kernel)), mp.mpf(u)))


def mp_d2f_over_f(u, kernel):
    return float(mp.diff(lambda x: mp_f(x, kernel), mp.mpf(u), 2) / mp_f(u, kernel))


# ---------------------------------------------------------------------------
# hazard-form log-likelihood in the natural parametrisation

def natural_loglik(mu, sigma, alpha, beta, t, delta, X, kernel: Kernel) -> float:
    """log L = sum_i delta_i log h(t_i|x_i) - sum_i H(t_i|x_i) for the hazard
    h(t|x) = h0(t e^{x'a}) e^{x'b} with a log-location-scale baseline,
    evaluated observation by observation in arbitrary precision."""
    mu, sigma = mp.mpf(mu), mp.mpf(sigma)
    total = mp.mpf(0)
    for i in range(len(t)):
        xa = mp.mpf(float(np.dot(X[i], alpha)))
        xb = mp.mpf(float(np.dot(X[i], beta)))
        ti = mp.mpf(float(t[i])) * mp.exp(xa)
        z = (mp.log(ti) - mu) / sigma
        S0 = mp_F(-z, kernel)
        H = -mp.log(S0) * mp.exp(xb - xa)
        if delta[i]:
            log_h0 = mp.log(mp_f(z, kernel)) - mp.log(sigma) - mp.log(ti) - mp.log(S0)
            total += log_h0 + xb
        total -= H
    return float(total)


def psi_to_natural(psi, gamma, p):
    """Map (nu, theta0, theta, eta) for a model to full-length (mu, sigma,
    alpha, beta) vectors."""
    from ghsel.ghlik import time_level_columns, hazard_level_columns
    from ghsel.modelspace import classify, HazardClass

    psi = np.asarray(psi, dtype=float)
    nu, theta0 = psi[0], psi[1]
    sigma = math.exp(-nu)
    mu = theta0 * sigma
    tc = time_level_columns(gamma)
    hc = hazard_level_columns(gamma)
    theta = psi[2:2 + len(tc)]
    eta = psi[2 + len(tc):]
    alpha = np.zeros(p)
    beta = np.zeros(p)
    for j, th in zip(tc, theta):
        alpha[j] = -sigma * th
    if classify(gamma) is HazardClass.AFT:
        beta = alpha.copy()
    else:
        for j, e in zip(hc, eta):
            beta[j] = -e
    return mu, sigma, alpha, beta


# ---------------------------------------------------------------------------
# the packed coefficient vector: named view, warm start, curvature

@dataclass(frozen=True)
class Psi:
    """Named view of a packed (nu, theta0, theta, eta) vector."""
    nu: float
    theta0: float
    theta: np.ndarray
    eta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "theta", np.asarray(self.theta, dtype=float).reshape(-1))
        object.__setattr__(self, "eta", np.asarray(self.eta, dtype=float).reshape(-1))

    def pack(self) -> np.ndarray:
        return np.concatenate(([self.nu, self.theta0], self.theta, self.eta))

    @classmethod
    def unpack(cls, vec, gamma) -> "Psi":
        vec = np.asarray(vec, dtype=float).reshape(-1)
        q = len(time_level_columns(gamma))
        d = dim_coef(gamma)
        if vec.shape[0] != 2 + d:
            raise DimensionError(f"psi has length {vec.shape[0]}, model {gamma.key} needs {2 + d}")
        return cls(float(vec[0]), float(vec[1]), vec[2:2 + q], vec[2 + q:])


def project_init(psi_prev, gamma_prev, gamma_new, data) -> np.ndarray:
    """Warm start: carry over coefficients of variables shared between two
    models (matched by column and level), zero elsewhere."""
    psi_prev = np.asarray(psi_prev, dtype=float).reshape(-1)
    out = np.zeros(dim_psi(gamma_new))
    out[:2] = psi_prev[:2]

    def level_map(g):
        tc = time_level_columns(g)
        hc = hazard_level_columns(g)
        pos = {("t", j): 2 + i for i, j in enumerate(tc)}
        pos.update({("h", j): 2 + len(tc) + i for i, j in enumerate(hc)})
        return pos

    prev_pos = level_map(gamma_prev)
    for key, idx_new in level_map(gamma_new).items():
        idx_prev = prev_pos.get(key)
        if idx_prev is not None and idx_prev < psi_prev.size:
            out[idx_new] = psi_prev[idx_prev]
    return out


def observed_fisher(psi, gamma, data, kernel: Kernel) -> np.ndarray:
    return -evaluate(design(gamma, data, kernel), psi)[2]


def lcm_prior_cov(gamma, data, g_e: float, fisher) -> np.ndarray:
    """Covariance of the curvature-matching prior: n*g_e times the inverse
    coefficient block of the observed Fisher.  Raises RankDeficiencyError if
    that block is not positive definite."""
    d = dim_coef(gamma)
    block = np.asarray(fisher, dtype=float)[2:, 2:]
    if block.shape != (d, d):
        raise ValueError(f"fisher block is {block.shape}, expected {(d, d)}")
    try:
        L = np.linalg.cholesky(block)
    except np.linalg.LinAlgError as exc:
        raise RankDeficiencyError("coefficient Fisher block is not positive definite") from exc
    inv = np.linalg.inv(L.T) @ np.linalg.inv(L)
    cov = data.n * g_e * inv
    return 0.5 * (cov + cov.T)


# ---------------------------------------------------------------------------
# the MAP fit's prior, from SciPy distributions

def map_prior_reference(gamma, data, coef_prior):
    """log prior density of packed psi = (nu, theta0, theta, eta) under the
    product prior, as a function of psi: Gamma(NU_SHAPE, NU_RATE) on exp(nu)
    with its Jacobian, N(0, THETA0_VAR) on theta0 (the constants of
    `ghsel.priors`), and N(0, g*n*G^{-1}) on each coefficient block with G
    the Gram matrix of its columns.  Tied (code-4) variables form the
    time-level block and have no hazard-level one.  The frozen distributions
    are built once here, not per call.  The density takes one psi (and
    returns a float) or a 2-d array of them, one per row (and returns an
    array)."""
    nu_prior = stats.gamma(priors.NU_SHAPE, scale=1.0 / priors.NU_RATE)
    t0_prior = stats.norm(0.0, math.sqrt(priors.THETA0_VAR))
    codes = gamma.codes
    time_cols = [j for j, c in enumerate(codes) if c in (1, 3, 4)]
    hazard_cols = [j for j, c in enumerate(codes) if c in (2, 3)]
    blocks, start = [], 2
    for cols, g in ((time_cols, coef_prior.g_ct), (hazard_cols, coef_prior.g_ch)):
        if cols:
            Xs = data.X[:, cols]
            cov = g * data.n * np.linalg.inv(Xs.T @ Xs)
            blocks.append((slice(start, start + len(cols)),
                           stats.multivariate_normal(np.zeros(len(cols)), cov)))
            start += len(cols)

    def log_prior(psi):
        psi = np.asarray(psi, dtype=float)
        rows = np.atleast_2d(psi)
        lp = (nu_prior.logpdf(np.exp(rows[:, 0])) + rows[:, 0]
              + t0_prior.logpdf(rows[:, 1]))
        for sl, dist in blocks:
            lp = lp + dist.logpdf(rows[:, sl])
        return float(lp[0]) if psi.ndim == 1 else lp

    return log_prior


# ---------------------------------------------------------------------------
# finite differences

def fd_grad(fn, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h * max(1.0, abs(x[i]))
        g[i] = (fn(x + e) - fn(x - e)) / (2 * e[i])
    return g


def fd_hess(fn, x, h=1e-4):
    x = np.asarray(x, dtype=float)
    k = x.size
    H = np.zeros((k, k))
    hs = h * np.maximum(1.0, np.abs(x))
    for i in range(k):
        for j in range(i, k):
            ei = np.zeros(k); ei[i] = hs[i]
            ej = np.zeros(k); ej[j] = hs[j]
            H[i, j] = H[j, i] = (
                fn(x + ei + ej) - fn(x + ei - ej)
                - fn(x - ei + ej) + fn(x - ei - ej)
            ) / (4 * hs[i] * hs[j])
    return H


# ---------------------------------------------------------------------------
# mode-centred tensor-product Gauss-Hermite quadrature

def gh_nodes_for_dim(k: int) -> int:
    """Node count per dimension keeping the tensor grid tractable."""
    return {1: 40, 2: 25, 3: 21}.get(k, 11)


def gauss_hermite_log_integral(log_lik, log_prior, x0, n_nodes=None):
    """log of the integral of exp(log_lik + log_prior) over R^k: locate the
    mode from x0, take the finite-difference curvature there, and integrate
    on the mode-centred, curvature-scaled tensor Gauss-Hermite grid.
    `log_lik` takes one point (where it is not finite the integrand is 0);
    `log_prior` takes an (m, k) array of points and returns their m values,
    so the grid's prior densities are evaluated as one array."""

    def log_f(x):
        ll = log_lik(x)
        return (ll if np.isfinite(ll) else -1e300) + log_prior(x[None, :])[0]

    x0 = np.asarray(x0, dtype=float)
    res = sopt.minimize(lambda x: -log_f(x), x0, method="BFGS",
                        options={"gtol": 1e-10, "maxiter": 2000})
    mode = res.x
    H = -fd_hess(log_f, mode, h=1e-4)
    L = np.linalg.cholesky(np.linalg.inv(H))
    k = mode.size
    if n_nodes is None:
        n_nodes = gh_nodes_for_dim(k)
    nodes, weights = np.polynomial.hermite_e.hermegauss(n_nodes)
    grids = np.meshgrid(*([nodes] * k), indexing="ij")
    Z = np.stack([g.ravel() for g in grids], axis=1)
    W = np.ones(Z.shape[0])
    for g in np.meshgrid(*([weights] * k), indexing="ij"):
        W *= g.ravel()
    pts = mode[None, :] + Z @ L.T
    ll = np.array([log_lik(pt) for pt in pts])
    vals = np.where(np.isfinite(ll), ll, -1e300) + log_prior(pts)
    # probabilists' Gauss-Hermite weights absorb exp(-z'z/2); add it back
    expo = vals + 0.5 * np.einsum("ij,ij->i", Z, Z)
    m = expo.max()
    return float(np.log(np.sum(W * np.exp(expo - m))) + m
                 + np.sum(np.log(np.diag(L))))


# ---------------------------------------------------------------------------
# reference maximiser

def scipy_maximise(fn, grad, x0):
    """(argmax, max) of a smooth objective by SciPy BFGS with its gradient,
    run to a gradient tolerance far below the package's."""
    res = sopt.minimize(lambda x: -fn(x), np.asarray(x0, dtype=float),
                        jac=lambda x: -grad(x), method="BFGS",
                        options={"gtol": 1e-10, "maxiter": 10000})
    return res.x, -res.fun


# ---------------------------------------------------------------------------
# the robust hyper-g score by adaptive quadrature

def robust_g_quad_reference(gamma, data, kernel, fit=None):
    """The robust hyper-g score as it was with SciPy's adaptive
    `quad` on y = log(g + 1/n): a 60-point scan for the peak, then `quad`
    with the peak as a break point, each node a scalar closed form, and the
    same analytic tail beyond `marglik.ROBUST_G_CUTOFF`."""
    if fit is None:
        fit = optimize.fit_mle(gamma, data, kernel)
    if not fit.ok:
        return MarglikRecord(-math.inf, fit)
    d = dim_coef(gamma)
    n = data.n
    if d == 0:
        # the closed form is g-free for the null model, so the integral is exact
        return MarglikRecord(ila_from_fit(fit.objective, fit.psi_opt, fit.fisher, 0, n,
                                          1.0), fit)

    def log_integrand(g: float) -> float:
        lp = priors.robust_g_logpdf(g, n, d)
        if lp == -math.inf:
            return -math.inf
        return factor.log_ml(n * g) + lp

    bound = priors.robust_g_support_bound(n, d)
    # integrate on y = log(g + 1/n); dg = e^y dy
    y_lo = math.log(bound + 1.0 / n) + 1e-12
    y_hi = math.log(marglik.ROBUST_G_CUTOFF + 1.0 / n)
    try:
        factor = ILAFactor(fit.objective, fit.psi_opt, fit.fisher, d)
        grid = np.linspace(y_lo, y_hi, 60)
        log_vals = np.array([log_integrand(math.exp(y) - 1.0 / n) + y for y in grid])
        M = float(np.max(log_vals))
        if not np.isfinite(M):
            return MarglikRecord(-math.inf, fit)

        def f(y):
            return math.exp(log_integrand(math.exp(y) - 1.0 / n) + y - M)

        y_peak = float(grid[int(np.argmax(log_vals))])
        val, err = integrate.quad(f, y_lo, y_hi, limit=200, epsabs=1e-12,
                                  epsrel=1e-10, points=[y_peak])
        if not np.isfinite(val) or val <= 0 or err > 1e-6 * max(val, 1e-300):
            return MarglikRecord(-math.inf, fit)
        # analytic tail beyond the cutoff: the closed form saturates in g, so
        # exp(log_ml(g)) ~ exp(m_sat) * (1 + n g)^{-d/2} with m_sat the g-free part
        g_big = 1e250
        m_sat = factor.log_ml(n * g_big) + 0.5 * d * math.log1p(n * g_big)
        c_r = math.sqrt((1.0 + n) / (n * (d + 1.0)))
        log_tail = (m_sat + math.log(c_r / (d + 1.0)) - 0.5 * d * math.log(n)
                    - 0.5 * (d + 1.0) * math.log(marglik.ROBUST_G_CUTOFF + 1.0 / n))
        total = M + math.log(val + math.exp(log_tail - M))
    except np.linalg.LinAlgError:
        return MarglikRecord(-math.inf, fit)
    return MarglikRecord(total, fit)


# ---------------------------------------------------------------------------
# integrated-Laplace closed form, evaluated afresh at each g

def ila_closed_form_at_g(ell_hat, psi_hat, J, d, n, g_e):
    """The integrated-Laplace closed form at one g, refactorising the coefficient block of J every time.  Raises
    numpy.linalg.LinAlgError if a required block is not positive definite."""
    J = np.asarray(J, dtype=float)
    psi_hat = np.asarray(psi_hat, dtype=float)
    nu_hat, t0_hat = psi_hat[0], psi_hat[1]
    coef, cross_nu, cross_t0 = J[2:, 2:], J[2:, 0], J[2:, 1]
    ng = n * g_e
    shrink = ng / (1.0 + ng)
    # partial information of (nu, theta0): J_ab minus shrink times the Schur
    # correction through the coefficient block
    j_nn, j_n0, j_00 = J[0, 0], J[0, 1], J[1, 1]
    if d > 0:
        L = np.linalg.cholesky(coef)
        y_nu = np.linalg.solve(L, cross_nu)
        y_t0 = np.linalg.solve(L, cross_t0)
        j_nn = j_nn - shrink * (y_nu @ y_nu)
        j_n0 = j_n0 - shrink * (y_nu @ y_t0)
        j_00 = j_00 - shrink * (y_t0 @ y_t0)
    var_nu = priors.NU_SD ** 2
    mu_nu = priors.NU_MEAN
    P = np.array([[j_nn + 1.0 / var_nu, j_n0], [j_n0, j_00 + 1.0 / priors.THETA0_VAR]])
    h = np.array([j_nn * nu_hat + j_n0 * t0_hat + mu_nu / var_nu,
                  j_n0 * nu_hat + j_00 * t0_hat])
    C = (-0.5 * mu_nu ** 2 / var_nu
         - 0.5 * (j_nn * nu_hat ** 2 + 2.0 * j_n0 * nu_hat * t0_hat
                  + j_00 * t0_hat ** 2))
    if d > 0:
        # exact completion of the square in the fitted coefficients
        w = 1.0 - shrink
        kappa_hat = psi_hat[2:]
        corr = w * np.array([kappa_hat @ cross_nu, kappa_hat @ cross_t0])
        h = h + corr
        C = (C - corr[0] * nu_hat - corr[1] * t0_hat
             - 0.5 * w * (kappa_hat @ coef @ kappa_hat))
    Lp = np.linalg.cholesky(P)
    z = np.linalg.solve(Lp, h)
    log_ml = (ell_hat - 0.5 * d * math.log1p(ng)
              - float(np.sum(np.log(np.diag(Lp)))) + 0.5 * float(z @ z) + C
              - 0.5 * math.log(priors.THETA0_VAR * var_nu))
    return log_ml


def write_trace_jsonl(path, trace):
    """The trace file as one json.dumps of each retained sample's record."""
    with open(path, "w", encoding="utf-8") as fh:
        for chain, it, key in trace.samples:
            log_ml, log_prior = trace.visited[key]
            fh.write(json.dumps({
                "iter": it, "gamma": key,
                "class": classify(Gamma.from_key(key)).value,
                "log_ml": log_ml, "log_prior": log_prior,
                "chain": chain}, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# the model-space rules as the package computed them before their closed
# forms: references for `log_model_prior` and the GH add/delete indices

def _class_of_codes(codes) -> HazardClass:
    nonzero = set(codes) - {0}
    if not nonzero:
        return HazardClass.NULL
    if len(nonzero) == 1:
        return {1: HazardClass.AH, 2: HazardClass.PH, 4: HazardClass.AFT}.get(
            nonzero.pop(), HazardClass.GH)
    return HazardClass.GH


def _log_binom_pmf(k: int, n: int, q: float) -> float:
    return (math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
            + k * math.log(q) + (n - k) * math.log1p(-q))


def _gh_effect_log_weight(n_active: int, omega: int, q: float) -> float:
    """Log of the inverse-probability effect-count factor of a GH model with
    |active| > 1: it divides out the Binomial(|active|, q) profile of omega
    (with the finite-count correction at omega == |active|) and is normalised
    against the number of models at each omega, so that the GH class mass on
    an active set equals each single-structure class's."""
    k = n_active

    def corrected(i: int) -> float:
        corr = (1.0 - 2.0 ** (1 - k)) if i == 0 else 1.0
        return _log_binom_pmf(i, k, q) + math.log(corr)

    def log_count(i: int) -> float:
        # models with i extra code-3 variables on a fixed active set of size k
        return math.log(math.comb(k, i) * 2 ** (k - i) - (2 if i == 0 else 0))

    terms = [log_count(i) - corrected(i) for i in range(k + 1)]
    m = max(terms)
    log_norm = math.log(sum(math.exp(v - m) for v in terms)) + m
    return -corrected(omega - k) - log_norm + math.log(3 ** k - 2)


def log_model_prior_reference(gamma: Gamma) -> float:
    """Unnormalised log model prior by the general weighting: Beta-Binomial(1,
    1) inclusion, the GH class split over its 3^k - 2 models, and the
    effect-count correction at q = 1/3 (where it is exactly uniform)."""
    beta_a = beta_b = 1.0
    n_act = gamma.n_active
    p0 = gamma.p - n_act
    out = (math.lgamma(beta_a + n_act) + math.lgamma(beta_b + p0)
           - math.lgamma(beta_a + n_act + beta_b + p0))
    if classify(gamma) is not HazardClass.GH:
        return out
    out -= math.log(3 ** n_act - 2)
    if n_act > 1:
        out += _gh_effect_log_weight(n_act, n_act + gamma.count(3), 1.0 / 3.0)
    return out


def valid_idx_reference(codes: tuple) -> tuple | None:
    """The GH add/delete indices of a code vector by case analysis, None for
    any other class."""
    if _class_of_codes(codes) is not HazardClass.GH:
        return None
    p1, p2, p3 = codes.count(1), codes.count(2), codes.count(3)
    if p3 == 1:
        rem_cls = _class_of_codes(tuple(c for c in codes if c != 3))
        if rem_cls in (HazardClass.AH, HazardClass.PH):
            return tuple(j for j, c in enumerate(codes) if c != 3)
    if p3 == 0 and p1 > 1 and p2 == 1:
        return tuple(j for j, c in enumerate(codes) if c != 2)
    if p3 == 0 and p2 > 1 and p1 == 1:
        return tuple(j for j, c in enumerate(codes) if c != 1)
    if p3 == 0 and p1 == 1 and p2 == 1:
        return tuple(j for j, c in enumerate(codes) if c == 0)
    return tuple(range(len(codes)))


# ---------------------------------------------------------------------------
# the likelihood pass and the proposal as the package computed them before
# their per-observation and per-model tables: references for the tables

def evaluate_reference(des, psi, order: int = 2):
    """The package's `ghlik.evaluate` before the per-observation chain rule:
    log-likelihood at psi with its gradient (order >= 1) and Hessian (order
    2), the Hessian assembled from hand-expanded weighted Gram blocks.

    One pass computes the linear predictors and the kernel functions once and
    shares them among all three.  Tied-effect models are evaluated in the
    generic coordinates with eta = exp(-nu) * theta and mapped back by the
    chain rule.
    """
    psi = np.asarray(psi, dtype=float).reshape(-1)
    if psi.shape[0] != des.dim:
        raise DimensionError(f"psi has length {psi.shape[0]}, model needs {des.dim}")
    data, kernel, q = des.data, des.kernel, des.q
    Xt = data.X[:, des.t_cols]
    Xh = Xt if des.aft else data.X[:, des.h_cols]
    delta, lt = data.delta, data.log_t
    nu, theta0, theta = float(psi[0]), float(psi[1]), psi[2:2 + q]
    e_nu, e_mnu = np.exp(nu), np.exp(-nu)
    eta = e_mnu * theta if des.aft else psi[2 + q:]
    a = Xt @ theta
    u = e_nu * lt - a - theta0
    lin_raw = e_mnu * a - Xh @ eta
    lin = np.clip(lin_raw, -LINPRED_CLAMP, LINPRED_CLAMP)
    v = np.exp(lin)
    lf, lF, r1_direct, rp, rs = baseline.newton_terms(u, kernel)
    vd = v - delta
    n_events = data.n_events
    val = (n_events * nu - float(delta @ lt) + float(delta @ lin)
           + float(delta @ lf) + float(lF @ vd))
    if not np.isfinite(val):
        val = -np.inf
    if order == 0:
        return val, None, None

    # f/F(-u) from the two logs the value needed; far in the right tail both
    # logs are large and nearly equal, so there the ratio is evaluated directly
    r1 = np.where(u > 30.0, r1_direct, np.exp(lf - lF))
    # where the clip is active lin is constant, so every term through lin
    # (delta_lin, lFv and r1v below) is zero there
    live = lin == lin_raw
    delta_lin = delta * live
    lFv = lF * v * live
    g_nu = (n_events - e_mnu * float(delta_lin @ a) + e_nu * float((delta * rp) @ lt)
            - e_nu * float((r1 * vd) @ lt) - e_mnu * float(lFv @ a))
    g_t0 = -float(delta @ rp) + float(r1 @ vd)
    g_theta = Xt.T @ (delta_lin * e_mnu - delta * rp + r1 * vd + lFv * e_mnu)
    g_eta = Xh.T @ (-delta_lin - lFv)
    g = np.concatenate(([g_nu, g_t0], g_theta, g_eta))
    if order == 1:
        return val, (_aft_jacobian(nu, theta).T @ g if des.aft else g), None

    D2 = rs - rp * rp
    E2 = rp * r1 + r1 * r1  # f'/F(-u) + (f/F(-u))^2
    r1v = r1 * v * live
    k = g.size
    H = np.empty((k, k))
    H[0, 0] = (e_mnu * float(delta_lin @ a) + e_nu ** 2 * float((delta * D2) @ (lt * lt))
               + e_nu * float((delta * rp) @ lt) - e_nu ** 2 * float((E2 * vd) @ (lt * lt))
               - e_nu * float((r1 * vd) @ lt) + e_mnu * float((lFv * (1.0 + a * e_mnu)) @ a)
               + 2.0 * float((r1v * a) @ lt))
    H[1, 1] = float(delta @ D2) - float(E2 @ vd)
    H[0, 1] = H[1, 0] = (-e_nu * float((delta * D2) @ lt) - e_mnu * float(r1v @ a)
                         + e_nu * float((E2 * vd) @ lt))
    t, h = slice(2, 2 + q), slice(2 + q, k)
    H[t, t] = Xt.T @ ((delta * D2 - E2 * vd + 2.0 * e_mnu * r1v
                       + e_mnu ** 2 * lFv)[:, None] * Xt)
    H[1, t] = H[t, 1] = Xt.T @ (delta * D2 + e_mnu * r1v - E2 * vd)
    H[0, t] = H[t, 0] = Xt.T @ (-delta_lin * e_mnu - e_nu * delta * D2 * lt - e_mnu * r1v * a
                                + e_nu * E2 * vd * lt - e_mnu * lFv * (a * e_mnu + 1.0)
                                - r1v * lt)
    H[h, h] = Xh.T @ (lFv[:, None] * Xh)
    H[1, h] = H[h, 1] = -(Xh.T @ r1v)
    H[0, h] = H[h, 0] = Xh.T @ (e_nu * r1v * lt + e_mnu * lFv * a)
    H[t, h] = Xt.T @ ((-r1v - e_mnu * lFv)[:, None] * Xh)
    H[h, t] = H[t, h].T
    if not des.aft:
        return val, g, H
    # tied effects: chain rule through eta = exp(-nu) * theta, plus the
    # second-derivative terms of eta
    J = _aft_jacobian(nu, theta)
    H = J.T @ H @ J
    H[0, 0] += float(g_eta @ (e_mnu * theta))
    H[0, 2:] -= e_mnu * g_eta
    H[2:, 0] -= e_mnu * g_eta
    return val, J.T @ g, H


def _aft_jacobian(nu, theta):
    """Jacobian of (nu, theta0, theta, eta(nu, theta)) w.r.t. (nu, theta0, theta)."""
    m = theta.size
    e_mnu = np.exp(-nu)
    J = np.zeros((2 + 2 * m, 2 + m))
    J[0, 0] = 1.0
    J[1, 1] = 1.0
    J[2:2 + m, 2:] = np.eye(m)
    J[2 + m:, 0] = -e_mnu * theta
    J[2 + m:, 2:] = e_mnu * np.eye(m)
    return J


@dataclass(frozen=True)
class _MoveTable:
    """`move_distribution` of one state as `propose` reads it: each move's
    probability, and the running sums over `_MOVE_ORDER` that the move draw
    is compared with, accumulated in the order `select_move` always used."""
    ad: float
    ad_gh: float
    swap: float
    change: float
    change_all: float
    cum: tuple
    last: MoveKind  # the last move with positive probability


_TABLES: dict = {}  # Gamma -> its _MoveTable; models are interned, so one per model


def _moves(gamma: Gamma) -> _MoveTable:
    table = _TABLES.get(gamma)
    if table is None:
        dist = move_distribution(gamma)
        probs = [dist.get(mk, 0.0) for mk in _MOVE_ORDER]
        table = _TABLES.setdefault(gamma, _MoveTable(
            *probs[1:], cum=tuple(itertools.accumulate(probs)),
            last=next(mk for mk in reversed(_MOVE_ORDER) if mk in dist)))
    return table


def select_move(gamma: Gamma, rng) -> MoveKind:
    table = _moves(gamma)
    i = bisect.bisect_right(table.cum, rng.random())
    return _MOVE_ORDER[i] if i < len(_MOVE_ORDER) else table.last


def _self_loop(gamma: Gamma, move: MoveKind) -> Proposal:
    return Proposal(gamma, -math.inf, move)


_OTHER_ROLES = {1: (2, 3), 2: (1, 3), 3: (1, 2)}  # CHANGE: the codes a role may become
_OTHER_STRUCTURES = {1: (2, 4), 2: (1, 4)}        # CHANGE_ALL from an AH or PH state


def propose_reference(gamma: Gamma, rng) -> Proposal:
    p = gamma.p
    cls = gamma.hazard_class
    here = _moves(gamma)
    move = select_move(gamma, rng)

    if move is MoveKind.A_NULL:
        j = int(rng.integers(p))
        v = int(rng.integers(1, 5))
        gp = gamma.replace(j, v)
        q_fwd = 1.0 / (4.0 * p)
        if gp.hazard_class is HazardClass.GH:
            q_rev = _moves(gp).ad_gh / len(get_valid_idx(gp))
        else:
            q_rev = _moves(gp).ad / p
        return Proposal(gp, math.log(q_rev) - math.log(q_fwd), move)

    if move is MoveKind.AD:
        j = int(rng.integers(p))
        if gamma.codes[j] > 0:
            gp = gamma.replace(j, 0)
        else:
            # the included variables of an AH, PH or AFT state share one code
            gp = gamma.replace(j, gamma.codes[gamma.active[0]])
        q_fwd = here.ad / p
        if gp.hazard_class is HazardClass.NULL:
            q_rev = 1.0 / (4.0 * p)
        else:
            q_rev = _moves(gp).ad / p
        return Proposal(gp, math.log(q_rev) - math.log(q_fwd), move)

    if move is MoveKind.AD_GH:
        valid = get_valid_idx(gamma)
        if not valid:
            # only possible in two-variable (1,2)-type states; treated as a
            # forced rejection so the kernel stays well-defined
            return _self_loop(gamma, move)
        j = int(valid[int(rng.integers(len(valid)))])
        if gamma.codes[j] > 0:
            gp = gamma.replace(j, 0)
            q_fwd = here.ad_gh / len(valid)
            if gp.hazard_class is HazardClass.NULL:
                q_rev = 1.0 / (4.0 * p)
            else:
                q_rev = _moves(gp).ad_gh / len(get_valid_idx(gp)) / 3.0
        else:
            gp = gamma.replace(j, int(rng.integers(1, 4)))
            q_fwd = here.ad_gh / len(valid) / 3.0
            q_rev = _moves(gp).ad_gh / len(get_valid_idx(gp))
        return Proposal(gp, math.log(q_rev) - math.log(q_fwd), move)

    if move is MoveKind.CHANGE:
        active = gamma.active
        j = int(active[int(rng.integers(len(active)))])
        choices = _OTHER_ROLES[gamma.codes[j]]
        gp = gamma.replace(j, choices[int(rng.integers(len(choices)))])
        q_fwd = here.change / len(active) / 2.0
        q_rev = _moves(gp).change / len(active) / 2.0
        return Proposal(gp, math.log(q_rev) - math.log(q_fwd), move)

    if move is MoveKind.SWAP:
        j1 = int(rng.integers(p))
        v1 = gamma.codes[j1]
        others = [j for j in range(p) if gamma.codes[j] != v1]
        assert others, "swap selected in a state where all codes are equal"
        j2 = int(others[int(rng.integers(len(others)))])
        v2 = gamma.codes[j2]
        if v1 + v2 != 3:
            new1, new2 = v2, v1
        elif v1 in (1, 2):
            new1, new2 = ((0, 3), (3, 0))[int(rng.integers(2))]
        else:
            new1, new2 = ((1, 2), (2, 1))[int(rng.integers(2))]
        gp = gamma.replace(j1, new1).replace(j2, new2)
        n_other_rev = p - gp.count(new1)
        q_fwd = here.swap / p / len(others)
        if v1 + v2 == 3:
            q_fwd /= 2.0
        q_rev = _moves(gp).swap / p / n_other_rev
        if new1 + new2 == 3:
            q_rev /= 2.0
        return Proposal(gp, math.log(q_rev) - math.log(q_fwd), move)

    # whole-model role change
    if cls is HazardClass.AFT:
        v = int(rng.integers(1, 4))
        gp = Gamma(tuple(v if c == 4 else 0 for c in gamma.codes))
        q_fwd = here.change_all / 3.0
        if gp.hazard_class is HazardClass.GH:
            q_rev = _moves(gp).change_all
        else:
            q_rev = _moves(gp).change_all / 2.0
    elif cls is HazardClass.GH:
        gp = Gamma(tuple(4 if c == 3 else c for c in gamma.codes))
        q_fwd = here.change_all
        q_rev = _moves(gp).change_all / 3.0
    else:
        choices = _OTHER_STRUCTURES[gamma.codes[gamma.active[0]]]
        v = choices[int(rng.integers(len(choices)))]
        gp = Gamma(tuple(v if c != 0 else 0 for c in gamma.codes))
        q_fwd = here.change_all / 2.0
        if gp.hazard_class is HazardClass.AFT:
            q_rev = _moves(gp).change_all / 3.0
        else:
            q_rev = _moves(gp).change_all / 2.0
    return Proposal(gp, math.log(q_rev) - math.log(q_fwd), MoveKind.CHANGE_ALL)


def _mh_step_reference(gamma, score, scorer, rng, trace):
    prop = propose_reference(gamma, rng)
    trace.propose_count[prop.move] = trace.propose_count.get(prop.move, 0) + 1
    if prop.log_hastings == -math.inf:
        return gamma, score
    key = prop.gamma.key
    if key in trace.visited:
        log_ml, log_prior = trace.visited[key]
    else:
        log_ml = scorer.score(prop.gamma).log_ml
        log_prior = log_model_prior(prop.gamma)
        trace.visited[key] = (log_ml, log_prior)
    new_score = log_ml + log_prior
    if new_score == -math.inf:
        return gamma, score
    log_acc = new_score - score + prop.log_hastings
    if log_acc >= 0.0 or math.log(rng.random()) < log_acc:
        trace.accept_count[prop.move] = trace.accept_count.get(prop.move, 0) + 1
        return prop.gamma, new_score
    return gamma, score


@dataclass
class ReferenceTrace:
    samples: list = field(default_factory=list)
    visited: dict = field(default_factory=dict)
    propose_count: dict = field(default_factory=dict)
    accept_count: dict = field(default_factory=dict)


def run_chain_reference(p: int, config, scorer) -> ReferenceTrace:
    """`sampler.run_chain` from the null model, with the step as it was
    before the path tables: `propose_reference`, and the per-move counts kept
    in dicts keyed by move."""
    trace = ReferenceTrace()
    for chain_idx, rng in enumerate(np.random.default_rng(config.seed).spawn(config.n_chains)):
        gamma = Gamma((0,) * p)
        log_ml = scorer.score(gamma).log_ml
        log_prior = log_model_prior(gamma)
        trace.visited[gamma.key] = (log_ml, log_prior)
        score = log_ml + log_prior
        for it in range(config.iterations):
            gamma, score = _mh_step_reference(gamma, score, scorer, rng, trace)
            if it >= config.burn_in and (it - config.burn_in) % config.thin == 0:
                trace.samples.append((chain_idx, it, gamma.key))
    return trace


# frozen high-precision reference values (computed with mpmath at 50 digits)
FROZEN = {
    ("log_F_neg", Kernel.NORMAL, 10.0): -53.23128515051247,
    ("ratio_f_over_Fneg", Kernel.NORMAL, 8.0): 8.121368112236113,
    ("ratio_fprime_over_Fneg", Kernel.NORMAL, 3.0): -9.84929596479131,
    ("log_F_neg", Kernel.LOGISTIC, -30.0): -9.357622968839737e-14,
    ("quantile", Kernel.SECH, 0.9): 1.1731183752263278,
    ("quantile", Kernel.STUDENT_T2, 0.75): 0.8164965809277260,
    ("ratio_fprime_over_Fneg", Kernel.LOGISTIC, 1.0): -0.33783471214704117,
    ("log_f", Kernel.STUDENT_T2, 0.0): -1.0397207708399180,
    ("log_f", Kernel.NORMAL, 0.0): -0.9189385332046728,
    ("log_F_neg", Kernel.NORMAL, 1.0): -1.8410216450092635,
}
