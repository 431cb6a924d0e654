"""Approximate log marginal likelihoods per model.

`ModelScorer.score` is the one way a model is scored: it fits the model once,
and `ScorerConfig.method` alone selects the closed form applied to that fit;
the coefficient prior's fields only give the scales the method reads.  The
integrated-Laplace route (ILA) expands the log-likelihood (not the
log-posterior) at the MLE and integrates the Gaussian curvature-matching prior
analytically, leaving a closed form in the fitted Fisher blocks.  The closed
form is factorised once per fitted model into a g-free part (`ILAFactor`) and
a 2x2 closed form at n*g, so the fixed Gauss-Kronrod rule that extends it to
the robust hyper-g prior on the scale g (ILA_RobustG) costs one evaluation of
that closed form over the array of its nodes.  The plain Laplace route (LA)
evaluates the penalised objective at the MAP under the product prior.

All values are log marginal likelihoods with the prior normalising constants
included; LA leaves out one model-independent log(2*pi) (see `_la_log_ml`).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import optimize, priors
from .baseline import Kernel
from .ghlik import Dataset, dim_coef
from .modelspace import Gamma
from .optimize import FitRecord
from .priors import NU_MEAN, NU_SD, THETA0_VAR, CoefficientPrior, RankDeficiencyError

LOG_2PI = math.log(2.0 * math.pi)
ROBUST_G_CUTOFF = 1e6
_NOT_PD = "posterior precision of (nu, theta0) is not positive definite"


class MarglikMethod(enum.Enum):
    ILA = "ILA"
    ILA_ROBUST_G = "ILA_RobustG"
    LA = "LA"


@dataclass(frozen=True)
class MarglikRecord:
    log_ml: float
    fit: FitRecord | None


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
        J = np.asarray(J, dtype=float)
        coef, cross_nu, cross_t0 = J[2:, 2:], J[2:, 0], J[2:, 1]
        psi_hat = np.asarray(psi_hat, dtype=float)
        self.ell_hat, self.d = float(ell_hat), d
        self.nu_hat, self.t0_hat = float(psi_hat[0]), float(psi_hat[1])
        self.top = (float(J[0, 0]), float(J[0, 1]), float(J[1, 1]))
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

    def log_ml(self, ng):
        """The closed form at ng = n*g, a float or an array of values with
        the result in its shape; a float takes its logarithms from `math`,
        so a fixed-g score does not depend on NumPy's rounding.  Completes
        the square in (nu, theta0) under the posterior precision P and
        linear term h.  Raises LinAlgError if P is not positive definite at
        any ng."""
        xp = np if np.ndim(ng) else math
        nu_hat, t0_hat = self.nu_hat, self.t0_hat
        shrink = ng / (1.0 + ng)
        (t_nn, t_n0, t_00), (s_nn, s_n0, s_00) = self.top, self.schur
        j_nn, j_n0, j_00 = t_nn - shrink * s_nn, t_n0 - shrink * s_n0, t_00 - shrink * s_00
        var_nu = NU_SD ** 2
        mu_nu = NU_MEAN
        # exact completion keeps O(1/(1+ng)) cross terms between the fitted
        # coefficients and (nu, theta0) that the large-g closed form omits
        w = 1.0 - shrink
        corr_nu, corr_t0 = w * self.kappa_cross[0], w * self.kappa_cross[1]
        p11, p12, p22 = j_nn + 1.0 / var_nu, j_n0, j_00 + 1.0 / THETA0_VAR
        h1 = j_nn * nu_hat + j_n0 * t0_hat + mu_nu / var_nu + corr_nu
        h2 = j_n0 * nu_hat + j_00 * t0_hat + corr_t0
        C = (-0.5 * mu_nu ** 2 / var_nu
             - 0.5 * (j_nn * nu_hat ** 2 + 2.0 * j_n0 * nu_hat * t0_hat
                      + j_00 * t0_hat ** 2)
             - corr_nu * nu_hat - corr_t0 * t0_hat - 0.5 * w * self.kappa_J)
        # 2x2 Cholesky P = L L' in closed form
        if not np.all(p11 > 0.0):
            raise np.linalg.LinAlgError(_NOT_PD)
        l11 = xp.sqrt(p11)
        l21 = p12 / l11
        l22_sq = p22 - l21 * l21
        if not np.all(l22_sq > 0.0):
            raise np.linalg.LinAlgError(_NOT_PD)
        l22 = xp.sqrt(l22_sq)
        w1 = h1 / l11
        w2 = (h2 - l21 * w1) / l22
        return (self.ell_hat - 0.5 * self.d * xp.log1p(ng) - xp.log(l11 * l22)
                + 0.5 * (w1 * w1 + w2 * w2) + C - 0.5 * math.log(THETA0_VAR * var_nu))


def ila_from_fit(ell_hat: float, psi_hat: np.ndarray, J: np.ndarray, d: int,
                 n: int, g_e: float) -> float:
    """Closed-form log marginal likelihood of a fitted model at a fixed g.
    Raises numpy.linalg.LinAlgError if a required block is not positive
    definite."""
    return ILAFactor(ell_hat, psi_hat, J, d).log_ml(n * g_e)


# Gauss-Kronrod G7/K15 on [-1, 1] (QUADPACK's qk15): the 15 Kronrod nodes in
# ascending order, their weights, and the weights of the 7 Gauss nodes, which
# are the Kronrod nodes of odd index.
_XK = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
       0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
       0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
       0.207784955007898467600689403773245)
_WK = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
       0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
       0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
       0.204432940075298892414161999234649, 0.209482141084727828012999174891714)
_WG = (0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
       0.381830050505118944950369775488975, 0.417959183673469387755102040816327)
_GK_NODES = np.array([-x for x in _XK] + [0.0] + list(reversed(_XK)))
_GK_KRONROD = np.array(_WK + tuple(reversed(_WK[:-1])))
_GK_GAUSS = np.array(_WG + tuple(reversed(_WG[:-1])))
_GK_PANELS = 16
ROBUST_G_RTOL = 1e-6  # largest error estimate of the quadrature, relative to its value


def _gauss_kronrod(log_f, lo: float, hi: float):
    """Composite G7/K15 rule for the integral of exp(log_f(y)) over
    [lo, hi] on _GK_PANELS equal panels.  `log_f` is evaluated once, on the
    array of all nodes.  Returns (M, val, err): the integral is
    exp(M) * val with M the largest log value at a node, and err is the sum
    over the panels of |K15 - G7|, on the scale of val."""
    edges = np.linspace(lo, hi, _GK_PANELS + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    y = 0.5 * (edges[1:] + edges[:-1])[:, None] + half[:, None] * _GK_NODES
    log_vals = log_f(y)
    M = float(np.max(log_vals))
    if not np.isfinite(M):
        return M, math.nan, math.nan
    f = np.exp(log_vals - M)
    kronrod = half * (f @ _GK_KRONROD)
    gauss = half * (f[:, 1::2] @ _GK_GAUSS)
    return M, float(np.sum(kronrod)), float(np.sum(np.abs(kronrod - gauss)))


def _robust_g_log_ml(fit: FitRecord, d: int, n: int) -> float:
    """Log marginal likelihood of a fitted model with d > 0 coefficients,
    with the scale g integrated out under the robust hyper-g prior.  The
    closed form is factorised once; the integral over y = log(g + 1/n) up to
    ROBUST_G_CUTOFF is a fixed Gauss-Kronrod rule whose nodes take one array
    evaluation of the closed form, and the rest is an analytic tail.  NaN if
    the quadrature's error estimate misses ROBUST_G_RTOL; raises
    numpy.linalg.LinAlgError as the closed form does."""

    def log_integrand(y):
        # dg = e^y dy
        g = np.exp(y) - 1.0 / n
        return factor.log_ml(n * g) + priors.robust_g_logpdf(g, n, d) + y

    factor = ILAFactor(fit.objective, fit.psi_opt, fit.fisher, d)
    y_lo = math.log(priors.robust_g_support_bound(n, d) + 1.0 / n) + 1e-12
    y_hi = math.log(ROBUST_G_CUTOFF + 1.0 / n)
    M, val, err = _gauss_kronrod(log_integrand, y_lo, y_hi)
    if not np.isfinite(val) or val <= 0 or err > ROBUST_G_RTOL * max(val, 1e-300):
        return math.nan
    # analytic tail beyond the cutoff: the closed form saturates in g, so
    # exp(log_ml(g)) ~ exp(m_sat) * (1 + n g)^{-d/2} with m_sat the g-free part
    g_big = 1e250
    m_sat = factor.log_ml(n * g_big) + 0.5 * d * math.log1p(n * g_big)
    c_r = math.sqrt((1.0 + n) / (n * (d + 1.0)))
    log_tail = (m_sat + math.log(c_r / (d + 1.0)) - 0.5 * d * math.log(n)
                - 0.5 * (d + 1.0) * math.log(ROBUST_G_CUTOFF + 1.0 / n))
    return M + math.log(val + math.exp(log_tail - M))


# ---------------------------------------------------------------------------
# plain Laplace under the product prior

def _la_log_ml(fit: FitRecord, d: int) -> float:
    """Laplace evidence at the MAP of the penalised objective.

    The determinant is of the full (2+d)-dimensional penalised curvature,
    but the 2*pi exponent is d/2, not the standard (2+d)/2: the value is the
    standard Laplace approximation minus log(2*pi), a model-independent
    constant that leaves every posterior ratio unchanged.  Raises
    numpy.linalg.LinAlgError if the curvature is not positive definite.
    """
    L = np.linalg.cholesky(fit.fisher)
    logdet = 2.0 * float(np.sum(np.log(np.diag(L))))
    return fit.objective + d / 2.0 * LOG_2PI - 0.5 * logdet


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
        """The model's record: one fit (the MAP under the product prior for
        LA, else the MLE) and the method's closed form applied to it.  A
        failed fit, a block that is not positive definite or a value that is
        not finite gives log_ml = -inf."""
        hit = self.cache.get(gamma.key)
        if hit is not None:
            return hit
        cfg, data, method = self.config, self.data, self.config.method
        d = dim_coef(gamma)
        try:
            if method is MarglikMethod.LA:
                fit = optimize.fit_map(gamma, data, self.kernel, cfg.coef_prior)
            else:
                fit = optimize.fit_mle(gamma, data, self.kernel)
        except RankDeficiencyError:
            fit = None
        log_ml = -math.inf
        if fit is not None and fit.ok:
            try:
                if method is MarglikMethod.LA:
                    log_ml = _la_log_ml(fit, d)
                elif method is MarglikMethod.ILA_ROBUST_G and d > 0:
                    log_ml = _robust_g_log_ml(fit, d, data.n)
                else:  # fixed g, or the null model, whose closed form is g-free
                    g_e = cfg.coef_prior.g_e if method is MarglikMethod.ILA else 1.0
                    log_ml = ila_from_fit(fit.objective, fit.psi_opt, fit.fisher, d,
                                          data.n, g_e)
            except np.linalg.LinAlgError:
                pass
        rec = MarglikRecord(log_ml if np.isfinite(log_ml) else -math.inf, fit)
        self.cache.put(gamma.key, rec)
        return rec
