"""Parameter priors: the common (nu, theta0) priors, the two coefficient
g-priors, and the robust hyper-g density on the curvature-matching scale g.

Two coefficient priors are supported; `marglik.ScorerConfig.method` alone
selects which one scores a model.  The curvature-matching prior places a
single Gaussian on the stacked coefficient vector with covariance n*g_e times
the inverse coefficient block of the observed Fisher information at the MLE;
it is integrated out analytically in `marglik`, so only its scale g has a
density here.  The product prior places independent Gaussians on the time-level and
hazard-level blocks with covariances built from the two Gram matrices; tied
(code-4) models keep only the time-level factor.  `product_prior_gaussian`
builds that Gaussian once per model, and `map_prior` gives the MAP fit's
whole prior (the common prior plus that Gaussian) with its gradient and
Hessian in one pass, its constant parts built once per fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ghlik import Dataset, dim_coef, hazard_level_columns, time_level_columns
from .modelspace import Gamma

LOG_2PI = math.log(2.0 * math.pi)
# The common priors, fixed by the method: Gamma(NU_SHAPE, NU_RATE) on exp(nu)
# in the MAP fit, N(NU_MEAN, NU_SD^2) on nu in the ILA score, and
# N(0, THETA0_VAR) on theta0 in both.
NU_SHAPE = NU_RATE = 0.01
THETA0_VAR = 1e6
NU_MEAN, NU_SD = 9.34, 41.15


class RankDeficiencyError(ValueError):
    """A Gram or Fisher block required to be positive definite is not."""


@dataclass(frozen=True)
class CoefficientPrior:
    g_e: float = 1.0
    g_ct: float = 1.0
    g_ch: float = 1.0

    def __post_init__(self):
        if not all(0 < g < math.inf for g in (self.g_e, self.g_ct, self.g_ch)):
            raise ValueError("g hyperparameters must be positive and finite")


# ---------------------------------------------------------------------------
# Gram matrices and Gaussian block helpers

def gram(data: Dataset, cols) -> np.ndarray:
    Xs = data.X[:, list(cols)]
    return Xs.T @ Xs


def _chol(mat: np.ndarray, label: str) -> np.ndarray:
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError as exc:
        raise RankDeficiencyError(f"{label} block is not positive definite") from exc


# ---------------------------------------------------------------------------
# product g-prior: independent Gaussians on the two coefficient blocks

def product_prior_gaussian(gamma: Gamma, data: Dataset,
                           prior: CoefficientPrior) -> tuple:
    """The product prior as one Gaussian over the stacked coefficients:
    (precision, log normalising constant).  Block k is N(0, g_k*n*G_k^{-1})
    with G_k the Gram matrix of its columns; one Cholesky of each Gram matrix
    checks it and gives its determinant.  A MAP fit builds this once."""
    blocks = ((time_level_columns(gamma), prior.g_ct, "time-level Gram"),
              (hazard_level_columns(gamma), prior.g_ch, "hazard-level Gram"))
    d = dim_coef(gamma)
    P = np.zeros((d, d))
    log_norm = 0.0
    i = 0
    for cols, g, label in blocks:
        m = len(cols)
        if not m:
            continue
        G = gram(data, cols)
        L = _chol(G, label)
        P[i:i + m, i:i + m] = G / (g * data.n)
        log_norm -= 0.5 * (m * LOG_2PI + m * math.log(g * data.n)
                           - 2.0 * float(np.sum(np.log(np.diag(L)))))
        i += m
    return P, log_norm


# ---------------------------------------------------------------------------
# the MAP fit's prior over packed psi = (nu, theta0, coefficients)

def map_prior(P: np.ndarray, log_norm: float):
    """The log prior density as a function of psi, returning (value, grad,
    hess): Gamma(NU_SHAPE, NU_RATE) on exp(nu), N(0, THETA0_VAR) on theta0,
    and the coefficients' Gaussian with precision P and log normalising
    constant log_norm, as `product_prior_gaussian` returns them.  Its
    constant terms and Hessian are built here, once."""
    a, b, K = NU_SHAPE, NU_RATE, THETA0_VAR
    a_log_b, lgamma_a = a * math.log(b), math.lgamma(a)
    lp_t0_const = -0.5 * (LOG_2PI + math.log(K))
    d = P.shape[0] + 2
    hess0 = np.zeros((d, d))
    hess0[1, 1] = -1.0 / K
    hess0[2:, 2:] = -P

    def evaluate(psi):
        nu, theta0, coef = float(psi[0]), float(psi[1]), psi[2:]
        b_e_nu = b * math.exp(nu)
        lp_nu = a_log_b + a * nu - b_e_nu - lgamma_a
        lp_t0 = lp_t0_const - 0.5 * theta0 * theta0 / K
        Pc = P @ coef
        value = (lp_nu + lp_t0) + log_norm - 0.5 * float(coef @ Pc)
        grad = np.concatenate(([a - b_e_nu, -theta0 / K], -Pc))
        hess = hess0.copy()
        hess[0, 0] = -b_e_nu
        return value, grad, hess

    return evaluate


# ---------------------------------------------------------------------------
# robust hyper-g prior on g

def robust_g_support_bound(n: int, d: int) -> float:
    return (1.0 + n) / (n * (d + 1.0)) - 1.0 / n


def robust_g_logpdf(g, n: int, d: int):
    """Log density at g, a float or an array; -inf at or below the support
    bound."""
    g = np.asarray(g, dtype=float)
    log_c = math.log(0.5) + 0.5 * math.log((1.0 + n) / (n * (d + 1.0)))
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.where(g > robust_g_support_bound(n, d),
                       log_c - 1.5 * np.log(g + 1.0 / n), -math.inf)
    return out if out.shape else float(out)
