"""Parameter priors: the common (nu, theta0) priors, the two coefficient
g-priors, and the robust hyper-g density on the curvature-matching scale g.

Two coefficient priors are supported.  The curvature-matching prior places a
single Gaussian on the stacked coefficient vector with covariance n*g_e times
the inverse coefficient block of the observed Fisher information at the MLE;
it is integrated out analytically in `marglik`, so only its scale g has a
density here.  The product prior places independent Gaussians on the time-level and
hazard-level blocks with covariances built from the two Gram matrices; tied
(code-4) models keep only the time-level factor.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .ghlik import Dataset, dim_coef, hazard_level_columns, time_level_columns
from .modelspace import Gamma

LOG_2PI = math.log(2.0 * math.pi)


class PriorKind(enum.Enum):
    LCM = "lcm"
    PRODUCT = "product"


class GMode(enum.Enum):
    FIXED = "fixed"
    ROBUST_HYPER = "robust"


class RankDeficiencyError(ValueError):
    """A Gram or Fisher block required to be positive definite is not."""


@dataclass(frozen=True)
class CoefficientPrior:
    kind: PriorKind = PriorKind.LCM
    g_e: float = 1.0
    g_ct: float = 1.0
    g_ch: float = 1.0
    g_mode: GMode = GMode.FIXED

    def __post_init__(self):
        if min(self.g_e, self.g_ct, self.g_ch) <= 0:
            raise ValueError("g hyperparameters must be positive")


@dataclass(frozen=True)
class CommonPrior:
    alpha_nu: float = 0.01
    beta_nu: float = 0.01
    K: float = 1e6
    nu_normal_mean: float = 9.34
    nu_normal_sd: float = 41.15

    def __post_init__(self):
        if min(self.alpha_nu, self.beta_nu, self.K, self.nu_normal_sd) <= 0:
            raise ValueError("common-prior hyperparameters must be positive")


# ---------------------------------------------------------------------------
# common-parameter prior: Gamma(alpha, beta) on exp(nu), N(0, K) on theta0

def log_common_prior(nu: float, theta0: float, cp: CommonPrior) -> float:
    a, b = cp.alpha_nu, cp.beta_nu
    lp_nu = a * math.log(b) + a * nu - b * math.exp(nu) - math.lgamma(a)
    lp_t0 = -0.5 * (LOG_2PI + math.log(cp.K)) - 0.5 * theta0 * theta0 / cp.K
    return lp_nu + lp_t0


def grad_common_prior(nu: float, theta0: float, cp: CommonPrior) -> np.ndarray:
    return np.array([cp.alpha_nu - cp.beta_nu * math.exp(nu), -theta0 / cp.K])


def hess_common_prior(nu: float, theta0: float, cp: CommonPrior) -> np.ndarray:
    return np.diag([-cp.beta_nu * math.exp(nu), -1.0 / cp.K])


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


def product_prior_logpdf(theta: np.ndarray, eta: np.ndarray, gamma: Gamma,
                         data: Dataset, prior: CoefficientPrior) -> float:
    coef = np.concatenate((np.asarray(theta, dtype=float).reshape(-1),
                           np.asarray(eta, dtype=float).reshape(-1)))
    P, log_norm = product_prior_gaussian(gamma, data, prior)
    return log_norm - 0.5 * float(coef @ (P @ coef))


def product_prior_grad(theta: np.ndarray, eta: np.ndarray, gamma: Gamma,
                       data: Dataset, prior: CoefficientPrior) -> np.ndarray:
    coef = np.concatenate((np.asarray(theta, dtype=float).reshape(-1),
                           np.asarray(eta, dtype=float).reshape(-1)))
    return -product_prior_gaussian(gamma, data, prior)[0] @ coef


def product_prior_hess(gamma: Gamma, data: Dataset, prior: CoefficientPrior) -> np.ndarray:
    return -product_prior_gaussian(gamma, data, prior)[0]


# ---------------------------------------------------------------------------
# full prior over packed psi = (nu, theta0, coefficients), used by the MAP fit

def log_prior_psi(psi, gamma: Gamma, data: Dataset, prior: CoefficientPrior,
                  cp: CommonPrior) -> float:
    psi = np.asarray(psi, dtype=float).reshape(-1)
    q = len(time_level_columns(gamma))
    if prior.kind is not PriorKind.PRODUCT:
        raise ValueError("joint psi prior is defined for the product prior only")
    return (log_common_prior(float(psi[0]), float(psi[1]), cp)
            + product_prior_logpdf(psi[2:2 + q], psi[2 + q:], gamma, data, prior))


def grad_prior_psi(psi, gamma: Gamma, data: Dataset, prior: CoefficientPrior,
                   cp: CommonPrior) -> np.ndarray:
    psi = np.asarray(psi, dtype=float).reshape(-1)
    P, _ = product_prior_gaussian(gamma, data, prior)
    return np.concatenate((grad_common_prior(float(psi[0]), float(psi[1]), cp),
                           -P @ psi[2:]))


def hess_prior_psi(psi, gamma: Gamma, data: Dataset, prior: CoefficientPrior,
                   cp: CommonPrior) -> np.ndarray:
    psi = np.asarray(psi, dtype=float).reshape(-1)
    d = psi.size - 2
    H = np.zeros((2 + d, 2 + d))
    H[:2, :2] = hess_common_prior(float(psi[0]), float(psi[1]), cp)
    H[2:, 2:] = product_prior_hess(gamma, data, prior)
    return H


# ---------------------------------------------------------------------------
# robust hyper-g prior on g

def robust_g_support_bound(n: int, d: int) -> float:
    return (1.0 + n) / (n * (d + 1.0)) - 1.0 / n


def robust_g_logpdf(g: float, n: int, d: int) -> float:
    if g <= robust_g_support_bound(n, d):
        return -math.inf
    return (math.log(0.5) + 0.5 * math.log((1.0 + n) / (n * (d + 1.0)))
            - 1.5 * math.log(g + 1.0 / n))
