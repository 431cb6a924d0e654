"""Reparametrised general-hazard log-likelihood with analytic derivatives.

The likelihood is evaluated in the coordinates Psi = (nu, theta0, theta, eta)
where exp(nu) = 1/sigma, theta0 = mu/sigma, theta = -alpha/sigma and
eta = -beta.  Tied-effect (code-4) models carry only theta; eta is the
deterministic function exp(-nu) * theta and derivatives are propagated by the
chain rule so that a single generic code path serves every hazard class.

A fit builds the model's `Design` once and calls `evaluate` for the value,
gradient and Hessian in one pass; `loglik`, `grad_loglik` and `hess_loglik`
are thin calls into the same pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import baseline
from .baseline import Kernel
from .modelspace import Gamma, HazardClass, classify

LINPRED_CLAMP = 500.0


class DimensionError(ValueError):
    pass


@dataclass(frozen=True)
class Dataset:
    t: np.ndarray
    delta: np.ndarray
    X: np.ndarray
    names: tuple
    log_t: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        t = np.ascontiguousarray(np.asarray(self.t, dtype=float))
        delta = np.ascontiguousarray(np.asarray(self.delta, dtype=float))
        X = np.ascontiguousarray(np.atleast_2d(np.asarray(self.X, dtype=float)))
        if t.ndim != 1 or delta.ndim != 1 or X.ndim != 2:
            raise DimensionError("t and delta must be vectors, X a matrix")
        n = t.shape[0]
        if n < 1 or delta.shape[0] != n or X.shape[0] != n:
            raise DimensionError(
                f"inconsistent sizes: len(t)={n}, len(delta)={delta.shape[0]}, rows(X)={X.shape[0]}"
            )
        if not np.all(np.isfinite(t)) or np.any(t <= 0):
            raise ValueError("all times must be positive and finite")
        if not np.all(np.isin(delta, (0.0, 1.0))):
            raise ValueError("delta entries must be 0 or 1")
        if not np.all(np.isfinite(X)):
            raise ValueError("covariates must be finite")
        names = tuple(self.names) if self.names else tuple(f"x{j+1}" for j in range(X.shape[1]))
        if len(names) != X.shape[1]:
            raise DimensionError("names must match the number of columns")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "log_t", np.log(t))

    @property
    def n(self) -> int:
        return self.t.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    @property
    def n_events(self) -> int:
        return int(self.delta.sum())


def time_level_columns(gamma: Gamma) -> tuple:
    if classify(gamma) is HazardClass.AFT:
        return tuple(j for j, c in enumerate(gamma.codes) if c == 4)
    return tuple(j for j, c in enumerate(gamma.codes) if c in (1, 3))


def hazard_level_columns(gamma: Gamma) -> tuple:
    if classify(gamma) is HazardClass.AFT:
        return ()
    return tuple(j for j, c in enumerate(gamma.codes) if c in (2, 3))


def dim_coef(gamma: Gamma) -> int:
    """Number of free coefficients d_gamma (tied-effect models count each
    variable once)."""
    return len(time_level_columns(gamma)) + len(hazard_level_columns(gamma))


def dim_psi(gamma: Gamma) -> int:
    return 2 + dim_coef(gamma)


@dataclass(frozen=True)
class Psi:
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
    def unpack(cls, vec: np.ndarray, gamma: Gamma) -> "Psi":
        vec = np.asarray(vec, dtype=float).reshape(-1)
        q = len(time_level_columns(gamma))
        d = dim_coef(gamma)
        if vec.shape[0] != 2 + d:
            raise DimensionError(f"psi has length {vec.shape[0]}, model {gamma.key} needs {2 + d}")
        return cls(float(vec[0]), float(vec[1]), vec[2:2 + q], vec[2 + q:])


@dataclass(frozen=True)
class Design:
    """One model's view of a dataset, built once per fit: contiguous copies of
    its time-level and hazard-level columns.  Tied-effect (AFT) models use
    their time-level columns at both levels."""
    data: Dataset
    kernel: Kernel
    aft: bool
    Xt: np.ndarray
    Xh: np.ndarray

    @property
    def q(self) -> int:
        return self.Xt.shape[1]

    @property
    def dim(self) -> int:
        return 2 + self.q + (0 if self.aft else self.Xh.shape[1])


def design(gamma: Gamma, data: Dataset, kernel: Kernel) -> Design:
    if gamma.p != data.p:
        raise DimensionError(f"model over {gamma.p} variables, data has {data.p}")
    aft = classify(gamma) is HazardClass.AFT
    Xt = np.ascontiguousarray(data.X[:, list(time_level_columns(gamma))])
    Xh = Xt if aft else np.ascontiguousarray(data.X[:, list(hazard_level_columns(gamma))])
    return Design(data, kernel, aft, Xt, Xh)


def evaluate(des: Design, psi, order: int = 2):
    """Log-likelihood at psi with its gradient (order >= 1) and Hessian
    (order 2): returns (value, grad, hess), None past the requested order.

    One pass computes the linear predictors and the kernel functions once and
    shares them among all three.  Tied-effect models are evaluated in the
    generic coordinates with eta = exp(-nu) * theta and mapped back by the
    chain rule.
    """
    psi = np.asarray(psi, dtype=float).reshape(-1)
    if psi.shape[0] != des.dim:
        raise DimensionError(f"psi has length {psi.shape[0]}, model needs {des.dim}")
    data, kernel, Xt, Xh, q = des.data, des.kernel, des.Xt, des.Xh, des.q
    delta, lt = data.delta, data.log_t
    nu, theta0, theta = float(psi[0]), float(psi[1]), psi[2:2 + q]
    e_nu, e_mnu = np.exp(nu), np.exp(-nu)
    eta = e_mnu * theta if des.aft else psi[2 + q:]
    a = Xt @ theta
    u = e_nu * lt - a - theta0
    lin = np.clip(e_mnu * a - Xh @ eta, -LINPRED_CLAMP, LINPRED_CLAMP)
    v = np.exp(lin)
    lF = baseline.log_F_neg(u, kernel)
    vd = v - delta
    val = (data.n_events * nu - float(delta @ lt) + float(delta @ lin)
           + float(delta @ baseline.log_f(u, kernel)) + float(lF @ vd))
    if not np.isfinite(val):
        val = -np.inf
    if order == 0:
        return val, None, None

    r1 = baseline.ratio_f_over_Fneg(u, kernel)
    rp = baseline.ratio_fprime_over_f(u, kernel)
    lFv = lF * v
    g_nu = (data.n_events - e_mnu * float(delta @ a) + e_nu * float((delta * rp) @ lt)
            - e_nu * float((r1 * vd) @ lt) - e_mnu * float(lFv @ a))
    g_t0 = -float(delta @ rp) + float(r1 @ vd)
    g_theta = Xt.T @ (delta * (e_mnu - rp) + r1 * vd + lFv * e_mnu)
    g_eta = Xh.T @ (-delta - lFv)
    g = np.concatenate(([g_nu, g_t0], g_theta, g_eta))
    if order == 1:
        return val, (_aft_jacobian(nu, theta).T @ g if des.aft else g), None

    rs = baseline.ratio_fsecond_over_f(u, kernel)
    D2 = rs - rp * rp
    E2 = rp * r1 + r1 * r1  # f'/F(-u) + (f/F(-u))^2
    r1v = r1 * v
    k = g.size
    H = np.empty((k, k))
    H[0, 0] = (e_mnu * float(delta @ a) + e_nu ** 2 * float((delta * D2) @ (lt * lt))
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
    H[0, t] = H[t, 0] = Xt.T @ (-delta * e_mnu - e_nu * delta * D2 * lt - e_mnu * r1v * a
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


def loglik(psi, gamma: Gamma, data: Dataset, kernel: Kernel) -> float:
    return evaluate(design(gamma, data, kernel), psi, 0)[0]


def grad_loglik(psi, gamma: Gamma, data: Dataset, kernel: Kernel) -> np.ndarray:
    return evaluate(design(gamma, data, kernel), psi, 1)[1]


def hess_loglik(psi, gamma: Gamma, data: Dataset, kernel: Kernel) -> np.ndarray:
    return evaluate(design(gamma, data, kernel), psi, 2)[2]


def observed_fisher(psi, gamma: Gamma, data: Dataset, kernel: Kernel) -> np.ndarray:
    return -hess_loglik(psi, gamma, data, kernel)


def fisher_blocks(J: np.ndarray):
    """Split an observed-Fisher matrix into the (nu, theta0) 2x2 block, the
    coefficient block, and the two cross vectors."""
    J = np.asarray(J, dtype=float)
    top = J[:2, :2]
    coef = J[2:, 2:]
    cross_nu = J[2:, 0]
    cross_t0 = J[2:, 1]
    return top, coef, cross_nu, cross_t0
