"""Independent oracles used to validate the package.

Everything here is derived from first principles with generic tools (mpmath
arbitrary precision, finite differences, mode-centred Gauss-Hermite
quadrature) and deliberately shares no code with the package internals.  The
exceptions are the helpers over the packed coefficient vector (`Psi`,
`project_init`, `observed_fisher`, `lcm_prior_cov`): only tests need them, and
they reuse the package's column bookkeeping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np
from scipy import optimize as sopt

from ghsel.baseline import Kernel
from ghsel.ghlik import (DimensionError, dim_coef, dim_psi, hazard_level_columns,
                         hess_loglik, time_level_columns)
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


def mp_quantile(p, kernel):
    return float(mp.findroot(lambda x: mp_F(x, kernel) - mp.mpf(p), mp.mpf(0)))


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
    return -hess_loglik(psi, gamma, data, kernel)


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


def gauss_hermite_log_integral(log_f, x0, n_nodes=None):
    """log of the integral of exp(log_f) over R^k: locate the mode from x0,
    take the finite-difference curvature there, and integrate on the
    mode-centred, curvature-scaled tensor Gauss-Hermite grid."""
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
    vals = np.array([log_f(pt) for pt in pts])
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
# integrated-Laplace closed form, evaluated afresh at each g

def ila_closed_form_at_g(ell_hat, psi_hat, J, d, n, g_e, cp):
    """(log_ml, P, h, C) of the integrated-Laplace closed form at one g,
    refactorising the coefficient block of J every time.  Raises
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
    var_nu = cp.nu_normal_sd ** 2
    mu_nu = cp.nu_normal_mean
    P = np.array([[j_nn + 1.0 / var_nu, j_n0], [j_n0, j_00 + 1.0 / cp.K]])
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
              - 0.5 * math.log(cp.K * var_nu))
    return log_ml, P, h, C


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
