"""Reparametrised general-hazard log-likelihood with analytic derivatives.

The likelihood is evaluated in the coordinates Psi = (nu, theta0, theta, eta)
where exp(nu) = 1/sigma, theta0 = mu/sigma, theta = -alpha/sigma and
eta = -beta; tied-effect (code-4) models carry only theta, with
eta = exp(-nu) * theta.

Each observation's term depends on Psi only through two linear predictors,
u = exp(nu) log t - theta0 - Xt theta and lin = exp(-nu) Xt theta - Xh eta
(identically zero for tied-effect and null models).  Both are one product
of a small coefficient matrix with the design matrix Z, whose rows are
z = (log t, 1, x) over the model's columns.  A pass takes each term's first
and second derivatives in (u, lin) from one call of the kernel's terms
(`baseline.newton_terms`), and the chain rule maps them to Psi: the
gradients of u and lin are linear in z, so one product of the stacked
derivative rows with the table of column products Z_a Z_b (whose first
rows are Z) gives both the gradient's sums and the Hessian's, to which the
terms of the second derivatives of u and lin in nu are added.

`evaluate` is the one likelihood pass: a fit builds the model's `Design`
once and calls it for the value, gradient and Hessian together.
"""

from __future__ import annotations

import math
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
    n_events: int = field(init=False, repr=False)
    delta_log_t: float = field(init=False, repr=False)       # sum of log t over events
    event_log_t_mean: float = field(init=False, repr=False)  # mean and sd of log t over
    event_log_t_sd: float = field(init=False, repr=False)    # events (all, if under 2)

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
        if len(set(names)) < len(names):
            dup = next(name for name in names if names.count(name) > 1)
            raise ValueError(f"duplicate covariate name {dup!r}")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "names", names)
        log_t = np.log(t)
        event_log_t = log_t[delta == 1.0]
        if event_log_t.size < 2:
            event_log_t = log_t
        for name, value in (("log_t", log_t), ("n_events", int(delta.sum())),
                            ("delta_log_t", float(delta @ log_t)),
                            ("event_log_t_mean", float(np.mean(event_log_t))),
                            ("event_log_t_sd", float(np.std(event_log_t)))):
            object.__setattr__(self, name, value)

    @property
    def n(self) -> int:
        return self.t.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]


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
class Design:
    """One model's view of a dataset, built once per fit.

    `t_cols` and `h_cols` index the model's time-level and hazard-level
    columns (tied-effect models have no hazard-level ones and use their
    time-level columns at both levels).  The m rows of Z are log t, 1 and the
    union of those columns, and the rows of `pairs` the products Z_a Z_b,
    a <= b, Z's own rows first (Z_0 Z_1, Z_1 Z_1, Z_1 Z_j), so Z is `pairs[:m]`.
    Row i of `jac` holds the gradients of u and lin in Z's basis,
    [d u / d Psi_i | d lin / d Psi_i], without the entries that depend on
    Psi: exp(nu) at (0, 0), exp(-nu) at `theta_idx` and -exp(-nu) theta in
    row 0 at the time-level columns of the lin block.  `w_index` unpacks the
    weighted pair sums into [[S_uu, S_ul], [S_ul, S_ll]].
    """
    data: Dataset
    kernel: Kernel
    aft: bool
    t_cols: tuple
    h_cols: tuple
    has_lin: bool          # False for tied-effect and null models: lin = 0
    pairs: np.ndarray
    w_index: np.ndarray
    jac: np.ndarray
    t_pos: np.ndarray      # the rows of Z that are the time-level columns
    theta_idx: tuple       # the entries d lin / d theta of jac

    @property
    def q(self) -> int:
        return self.t_pos.size

    @property
    def dim(self) -> int:
        return self.jac.shape[0]


def design(gamma: Gamma, data: Dataset, kernel: Kernel) -> Design:
    if gamma.p != data.p:
        raise DimensionError(f"model over {gamma.p} variables, data has {data.p}")
    aft = classify(gamma) is HazardClass.AFT
    t_cols, h_cols = time_level_columns(gamma), hazard_level_columns(gamma)
    cols = sorted(set(t_cols) | set(h_cols))
    q, m = len(t_cols), 2 + len(cols)
    has_lin = bool(cols) and not aft
    z_rows = [(0, 1), *((1, j) for j in range(1, m))]
    a, b = np.array(z_rows + [(i, j) for i in range(m) for j in range(i, m)
                              if (i, j) not in z_rows]).T
    pairs = np.empty((a.size, data.n))
    pairs[0], pairs[1], pairs[2:m] = data.log_t, 1.0, data.X[:, cols].T
    np.multiply(pairs[a[m:]], pairs[b[m:]], out=pairs[m:])
    w_index = np.empty((m, m), dtype=np.intp)
    w_index[a, b] = w_index[b, a] = np.arange(a.size)
    if has_lin:  # the pair sums of rows uu, ul and ll
        k = a.size
        w_index = np.block([[w_index, w_index + k], [w_index + k, w_index + 2 * k]])
    t_pos = np.array([2 + cols.index(j) for j in t_cols], dtype=np.intp)
    theta_rows = np.arange(2, 2 + q)
    # d u / d Psi: exp(nu) log t on nu, -1 on theta0 and on each theta; and
    # d lin / d Psi: -exp(-nu) Xt theta on nu, exp(-nu) Xt on theta, -Xh on eta
    jac = np.zeros((2 + q + (0 if aft else len(h_cols)), 2 * m if has_lin else m))
    jac[1, 1] = -1.0
    jac[theta_rows, t_pos] = -1.0
    jac[range(2 + q, 2 + q + len(h_cols)), [m + 2 + cols.index(j) for j in h_cols]] = -1.0
    return Design(data, kernel, aft, t_cols, h_cols, has_lin, pairs, w_index, jac,
                  t_pos, (theta_rows, m + t_pos))


def evaluate(des: Design, psi):
    """Log-likelihood at psi with its gradient and Hessian: (value, grad,
    hess).

    One pass computes the linear predictors u and lin and the kernel's
    terms once.  Each observation's term
    delta (nu - log t + lin + log f(u)) + (exp(lin) - delta) log F(-u)
    is differentiated once and twice in (u, lin), and the chain rule through
    the design's tables gives the gradient and Hessian in Psi.  lin is
    clipped at +-LINPRED_CLAMP only where it reaches that far.
    """
    psi = np.asarray(psi, dtype=float).reshape(-1)
    if psi.shape[0] != des.dim:
        raise DimensionError(f"psi has length {psi.shape[0]}, model needs {des.dim}")
    data, q = des.data, des.q
    delta = data.delta
    nu, theta = float(psi[0]), psi[2:2 + q]
    e_nu, e_mnu = np.exp(nu), np.exp(-nu)
    k = 2 if des.has_lin else 1
    jac = des.jac.copy()
    jac[0, 0] = e_nu
    if des.has_lin:
        jac[des.theta_idx] = e_mnu
        jac[0, des.theta_idx[1]] = -e_mnu * theta
    # u and lin are linear in (theta0, theta, eta): their coefficients on Z's
    # rows are psi's products with the Jacobian, but for exp(nu) on log t
    coef = psi[1:] @ jac[1:]
    coef[0] = e_nu
    m = coef.size // k
    ul = coef.reshape(k, m) @ des.pairs[:m]
    u = ul[0]
    lf, lF, r1, rp, rs = baseline.newton_terms(u, des.kernel)
    val = data.n_events * nu - data.delta_log_t
    live = None
    if des.has_lin:
        lin = ul[1]
        if not (lin.max() <= LINPRED_CLAMP and lin.min() >= -LINPRED_CLAMP):
            live = np.abs(lin) <= LINPRED_CLAMP
            lin = np.clip(lin, -LINPRED_CLAMP, LINPRED_CLAMP)
        v = np.exp(lin)
        val = val + float(delta @ lin)
    else:
        v = 1.0
    vd = v - delta
    val = val + float(delta @ lf) + float(lF @ vd)
    if not math.isfinite(val):
        val = -np.inf

    # rows: the first derivatives in u and lin, then the second in (u, u),
    # (u, lin) and (lin, lin); where the clip is active lin is constant, so
    # every term through it is zero there
    D = np.empty((3 * k - 1, data.n))
    r1vd = r1 * vd
    np.multiply(delta, rp, out=D[0])
    D[0] -= r1vd
    d2 = D[k]
    np.multiply(rp, rp, out=d2)
    np.subtract(rs, d2, out=d2)
    d2 *= delta
    rp += r1  # rp is not needed after this row
    rp *= r1vd
    d2 -= rp
    if des.has_lin:
        np.multiply(lF, v, out=D[4])
        np.add(delta, D[4], out=D[1])
        np.multiply(r1, v, out=D[3])
        np.negative(D[3], out=D[3])
        if live is not None:
            D[1] *= live
            D[3:] *= live
    W = D @ des.pairs.T
    z = W[:k, :m]  # Z' l_u (and Z' l_lin)
    g = jac @ z.ravel()
    g[0] += data.n_events
    H = jac @ W[k:].ravel()[des.w_index] @ jac.T
    # the second derivatives of u and lin: exp(nu) log t in (nu, nu), and
    # exp(-nu) Xt theta in (nu, nu) and -exp(-nu) Xt in (nu, theta) for lin
    H[0, 0] += e_nu * z[0, 0]
    if des.has_lin:
        z_t = e_mnu * z[1, des.t_pos]
        H[0, 0] += float(theta @ z_t)
        H[0, 2:2 + q] -= z_t
        H[2:2 + q, 0] -= z_t
    return val, g, H
