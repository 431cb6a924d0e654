"""Approximate log marginal likelihoods per model.

Two approximations are provided.  The integrated-Laplace route expands the
log-likelihood (not the log-posterior) at the MLE and integrates the Gaussian
curvature-matching prior analytically, leaving a closed form in the fitted
Fisher blocks.  The closed form is factorised once per fitted model into a
g-free part (`ILAFactor`) and a scalar evaluation at n*g, so the
one-dimensional quadrature that extends it to the robust hyper-g prior on the
scale g costs a 2x2 closed form per node.  The plain Laplace route evaluates
the penalised objective at the MAP under the product prior.

All values are absolute log marginal likelihoods (prior normalising constants
included), so they are directly comparable to numerical quadrature.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from . import ghlik, optimize, priors
from .baseline import Kernel
from .ghlik import Dataset, dim_coef
from .modelspace import Gamma
from .optimize import FitRecord
from .priors import CoefficientPrior, CommonPrior, RankDeficiencyError

LOG_2PI = math.log(2.0 * math.pi)
ROBUST_G_CUTOFF = 1e6


class MarglikMethod(enum.Enum):
    ILA = "ILA"
    ILA_ROBUST_G = "ILA_RobustG"
    LA = "LA"


@dataclass(frozen=True)
class MarglikRecord:
    gamma_key: str
    log_ml: float
    method: MarglikMethod
    fit: FitRecord | None


def _failed(gamma: Gamma, method: MarglikMethod, fit: FitRecord | None) -> MarglikRecord:
    return MarglikRecord(gamma.key, -math.inf, method, fit)


# ---------------------------------------------------------------------------
# integrated-Laplace core

class ILAFactor:
    """The g-free part of the integrated-Laplace closed form for one fitted
    model.  The scale g enters only through ng = n*g as the shrinkage
    s = ng/(1+ng) of the Schur correction of the (nu, theta0) block through
    the coefficient block, and through the weight 1 - s of the exact
    completion of the fitted coefficients.  So one Cholesky factorisation of
    the coefficient block gives the three Schur products y_a . y_b, and with
    kappa_hat . cross_a and kappa_hat' J kappa_hat every g costs a 2x2
    closed form.  Raises numpy.linalg.LinAlgError if the coefficient block is
    not positive definite.
    """

    def __init__(self, ell_hat: float, psi_hat: np.ndarray, J: np.ndarray, d: int):
        top, coef, cross_nu, cross_t0 = ghlik.fisher_blocks(J)
        psi_hat = np.asarray(psi_hat, dtype=float)
        self.ell_hat, self.d = float(ell_hat), d
        self.nu_hat, self.t0_hat = float(psi_hat[0]), float(psi_hat[1])
        self.top = (float(top[0, 0]), float(top[0, 1]), float(top[1, 1]))
        self.schur = (0.0, 0.0, 0.0)
        self.kappa_cross, self.kappa_J = (0.0, 0.0), 0.0
        if d > 0:
            L = np.linalg.cholesky(coef)
            y_nu = np.linalg.solve(L, cross_nu)
            y_t0 = np.linalg.solve(L, cross_t0)
            self.schur = (float(y_nu @ y_nu), float(y_nu @ y_t0), float(y_t0 @ y_t0))
            kappa_hat = psi_hat[2:]
            self.kappa_cross = (float(kappa_hat @ cross_nu), float(kappa_hat @ cross_t0))
            self.kappa_J = float(kappa_hat @ (coef @ kappa_hat))

    def terms(self, ng: float, cp: CommonPrior):
        """(log_ml, (P11, P12, P22), (h1, h2), C) at ng = n*g: the posterior
        precision P and linear term h of (nu, theta0) and the constant C of
        the completed square.  Raises LinAlgError if P is not positive
        definite."""
        nu_hat, t0_hat = self.nu_hat, self.t0_hat
        shrink = ng / (1.0 + ng)
        (t_nn, t_n0, t_00), (s_nn, s_n0, s_00) = self.top, self.schur
        j_nn, j_n0, j_00 = t_nn - shrink * s_nn, t_n0 - shrink * s_n0, t_00 - shrink * s_00
        var_nu = cp.nu_normal_sd ** 2
        mu_nu = cp.nu_normal_mean
        # exact completion keeps O(1/(1+ng)) cross terms between the fitted
        # coefficients and (nu, theta0) that the large-g closed form omits
        w = 1.0 - shrink
        corr_nu, corr_t0 = w * self.kappa_cross[0], w * self.kappa_cross[1]
        p11, p12, p22 = j_nn + 1.0 / var_nu, j_n0, j_00 + 1.0 / cp.K
        h1 = j_nn * nu_hat + j_n0 * t0_hat + mu_nu / var_nu + corr_nu
        h2 = j_n0 * nu_hat + j_00 * t0_hat + corr_t0
        C = (-0.5 * mu_nu ** 2 / var_nu
             - 0.5 * (j_nn * nu_hat ** 2 + 2.0 * j_n0 * nu_hat * t0_hat
                      + j_00 * t0_hat ** 2)
             - corr_nu * nu_hat - corr_t0 * t0_hat - 0.5 * w * self.kappa_J)
        # 2x2 Cholesky P = L L' in closed form
        l21 = p12 / math.sqrt(p11) if p11 > 0.0 else math.nan
        l22_sq = p22 - l21 * l21
        if not l22_sq > 0.0:
            raise np.linalg.LinAlgError("posterior precision of (nu, theta0) "
                                        "is not positive definite")
        l11, l22 = math.sqrt(p11), math.sqrt(l22_sq)
        w1 = h1 / l11
        w2 = (h2 - l21 * w1) / l22
        log_ml = (self.ell_hat - 0.5 * self.d * math.log1p(ng) - math.log(l11 * l22)
                  + 0.5 * (w1 * w1 + w2 * w2) + C - 0.5 * math.log(cp.K * var_nu))
        return log_ml, (p11, p12, p22), (h1, h2), C

    def log_ml(self, ng: float, cp: CommonPrior) -> float:
        return self.terms(ng, cp)[0]


def ila_from_fit(ell_hat: float, psi_hat: np.ndarray, J: np.ndarray, d: int,
                 n: int, g_e: float, cp: CommonPrior):
    """Closed-form log marginal likelihood given a fitted model.

    Returns (log_ml, P, h, C).  Raises numpy.linalg.LinAlgError if a required
    block is not positive definite.
    """
    log_ml, (p11, p12, p22), h, C = ILAFactor(ell_hat, psi_hat, J, d).terms(n * g_e, cp)
    return log_ml, np.array([[p11, p12], [p12, p22]]), np.array(h), C


def ila_log_marglik(gamma: Gamma, data: Dataset, kernel: Kernel, g_e: float,
                    cp: CommonPrior, fit: FitRecord | None = None) -> MarglikRecord:
    if fit is None:
        fit = optimize.fit_mle(gamma, data, kernel)
    if not fit.ok:
        return _failed(gamma, MarglikMethod.ILA, fit)
    d = dim_coef(gamma)
    try:
        log_ml = ila_from_fit(fit.objective, fit.psi_opt, fit.fisher, d,
                              data.n, g_e, cp)[0]
    except np.linalg.LinAlgError:
        return _failed(gamma, MarglikMethod.ILA, fit)
    if not np.isfinite(log_ml):
        return _failed(gamma, MarglikMethod.ILA, fit)
    return MarglikRecord(gamma.key, log_ml, MarglikMethod.ILA, fit)


def ila_log_marglik_robust_g(gamma: Gamma, data: Dataset, kernel: Kernel,
                             cp: CommonPrior, fit: FitRecord | None = None,
                             cutoff: float = ROBUST_G_CUTOFF) -> MarglikRecord:
    """Marginal likelihood with the scale g integrated out under the robust
    hyper-g prior.  The model is fitted and its closed form factorised once;
    each quadrature node costs only the scalar evaluation at n*g.  A
    quadrature that does not reach its tolerance gives a failed record."""
    if fit is None:
        fit = optimize.fit_mle(gamma, data, kernel)
    if not fit.ok:
        return _failed(gamma, MarglikMethod.ILA_ROBUST_G, fit)
    d = dim_coef(gamma)
    n = data.n
    if d == 0:
        # the closed form is g-free for the null model, so the integral is exact
        base = ila_log_marglik(gamma, data, kernel, 1.0, cp, fit=fit)
        return MarglikRecord(gamma.key, base.log_ml, MarglikMethod.ILA_ROBUST_G, fit)

    def log_integrand(g: float) -> float:
        lp = priors.robust_g_logpdf(g, n, d)
        if lp == -math.inf:
            return -math.inf
        return factor.log_ml(n * g, cp) + lp

    bound = priors.robust_g_support_bound(n, d)
    # integrate on y = log(g + 1/n); dg = e^y dy
    y_lo = math.log(bound + 1.0 / n) + 1e-12
    y_hi = math.log(cutoff + 1.0 / n)
    try:
        factor = ILAFactor(fit.objective, fit.psi_opt, fit.fisher, d)
        grid = np.linspace(y_lo, y_hi, 60)
        log_vals = np.array([log_integrand(math.exp(y) - 1.0 / n) + y for y in grid])
        M = float(np.max(log_vals))
        if not np.isfinite(M):
            return _failed(gamma, MarglikMethod.ILA_ROBUST_G, fit)

        def f(y):
            return math.exp(log_integrand(math.exp(y) - 1.0 / n) + y - M)

        y_peak = float(grid[int(np.argmax(log_vals))])
        val, err = integrate.quad(f, y_lo, y_hi, limit=200, epsabs=1e-12,
                                  epsrel=1e-10, points=[y_peak])
        if not np.isfinite(val) or val <= 0 or err > 1e-6 * max(val, 1e-300):
            return _failed(gamma, MarglikMethod.ILA_ROBUST_G, fit)
        # analytic tail beyond the cutoff: the closed form saturates in g, so
        # exp(log_ml(g)) ~ exp(m_sat) * (1 + n g)^{-d/2} with m_sat the g-free part
        g_big = 1e250
        m_sat = factor.log_ml(n * g_big, cp) + 0.5 * d * math.log1p(n * g_big)
        c_r = math.sqrt((1.0 + n) / (n * (d + 1.0)))
        log_tail = (m_sat + math.log(c_r / (d + 1.0)) - 0.5 * d * math.log(n)
                    - 0.5 * (d + 1.0) * math.log(cutoff + 1.0 / n))
        total = M + math.log(val + math.exp(log_tail - M))
    except np.linalg.LinAlgError:
        return _failed(gamma, MarglikMethod.ILA_ROBUST_G, fit)
    return MarglikRecord(gamma.key, total, MarglikMethod.ILA_ROBUST_G, fit)


# ---------------------------------------------------------------------------
# plain Laplace under the product prior

def la_log_marglik(gamma: Gamma, data: Dataset, kernel: Kernel,
                   coef_prior: CoefficientPrior, cp: CommonPrior,
                   fit: FitRecord | None = None,
                   full_constant: bool = False) -> MarglikRecord:
    """Laplace evidence at the MAP of the penalised objective.

    The determinant is always of the full (2+d)-dimensional penalised
    curvature.  By default the 2*pi exponent is d/2; full_constant=True uses
    the standard (2+d)/2 exponent (the difference is a model-independent
    additive constant, so posterior ratios only move when comparing across
    the two conventions).
    """
    if fit is None:
        try:
            fit = optimize.fit_map(gamma, data, kernel, coef_prior, cp)
        except RankDeficiencyError:
            return _failed(gamma, MarglikMethod.LA, None)
    if not fit.ok:
        return _failed(gamma, MarglikMethod.LA, fit)
    d = dim_coef(gamma)
    try:
        L = np.linalg.cholesky(fit.fisher)
    except np.linalg.LinAlgError:
        return _failed(gamma, MarglikMethod.LA, fit)
    logdet = 2.0 * float(np.sum(np.log(np.diag(L))))
    expo = (2 + d) / 2.0 if full_constant else d / 2.0
    log_ml = fit.objective + expo * LOG_2PI - 0.5 * logdet
    if not np.isfinite(log_ml):
        return _failed(gamma, MarglikMethod.LA, fit)
    return MarglikRecord(gamma.key, log_ml, MarglikMethod.LA, fit)


# ---------------------------------------------------------------------------
# the scorer facade used by the sampler, memoised by model

class MarglikCache:
    """Memo of one scorer's records keyed by model.  A record is a pure
    function of (model, data, prior config), so a hit equals a rescore."""

    def __init__(self):
        self._store: dict = {}

    def get(self, key):
        return self._store.get(key)

    def put(self, key, record: MarglikRecord):
        self._store[key] = record


@dataclass(frozen=True)
class ScorerConfig:
    method: MarglikMethod = MarglikMethod.ILA
    coef_prior: CoefficientPrior = CoefficientPrior()
    common: CommonPrior = CommonPrior()


class ModelScorer:
    """Log marginal likelihoods of the models of one dataset under one prior
    config.  Every fit starts from `optimize.default_init`, so a model's
    score does not depend on which models were scored before it; records are
    memoised by model key."""

    def __init__(self, data: Dataset, kernel: Kernel, config: ScorerConfig):
        self.data = data
        self.kernel = kernel
        self.config = config
        self.cache = MarglikCache()

    def score(self, gamma: Gamma) -> MarglikRecord:
        hit = self.cache.get(gamma.key)
        if hit is not None:
            return hit
        cfg = self.config
        if cfg.method is MarglikMethod.ILA:
            rec = ila_log_marglik(gamma, self.data, self.kernel,
                                  cfg.coef_prior.g_e, cfg.common)
        elif cfg.method is MarglikMethod.ILA_ROBUST_G:
            rec = ila_log_marglik_robust_g(gamma, self.data, self.kernel, cfg.common)
        elif cfg.method is MarglikMethod.LA:
            rec = la_log_marglik(gamma, self.data, self.kernel, cfg.coef_prior,
                                 cfg.common)
        else:
            raise ValueError(f"unknown method {cfg.method}")
        self.cache.put(gamma.key, rec)
        return rec
