"""Per-model fitting: maximum likelihood and maximum a posteriori estimates of
the reparametrised coefficients with analytic derivatives.

One damped Newton loop serves both fits.  Each iteration takes one pass over
the model's design for the value, gradient and exact Hessian; the step solves
the Newton system with Levenberg damping of the negated Hessian until its
Cholesky factorisation succeeds, the nu component is capped, and Armijo
backtracking guards the ascent.  The reported curvature at the optimum is the
exact Hessian there.  Failures are reported in the record's status and never
raised; callers map failed fits to an impossible model score.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import ghlik, priors
from .baseline import Kernel
from .ghlik import Dataset, dim_psi
from .modelspace import Gamma

GRAD_TOL = 1e-6
MAX_ITER = 500
NU_BOUNDARY = 20.0
NU_STEP_MAX = 1.0     # largest change of nu in one Newton step
DECREMENT_TOL = 1e-15  # Newton decrement, relative to 1 + |objective|
ARMIJO = 1e-4
MAX_BACKTRACK = 40


class FitStatus(enum.Enum):
    CONVERGED = "Converged"
    MAX_ITER = "MaxIter"
    BOUNDARY = "Boundary"
    SINGULAR_HESSIAN = "SingularHessian"


@dataclass(frozen=True)
class FitRecord:
    psi_opt: np.ndarray
    objective: float
    fisher: np.ndarray
    status: FitStatus
    n_evals: int

    @property
    def ok(self) -> bool:
        return self.status is FitStatus.CONVERGED


def default_init(gamma: Gamma, data: Dataset) -> np.ndarray:
    """Moment-matching start: null-model lognormal fit on uncensored times,
    zero coefficients."""
    lt = data.log_t[data.delta == 1.0]
    if lt.size < 2:
        lt = data.log_t
    m = float(np.mean(lt))
    s = float(np.std(lt))
    if not np.isfinite(s) or s < 1e-8:
        s = 1.0
    psi = np.zeros(dim_psi(gamma))
    psi[0] = -math.log(s)
    psi[1] = m / s
    return psi


def _ascent_step(g: np.ndarray, H: np.ndarray) -> np.ndarray | None:
    """Newton step for maximisation with Levenberg damping: solve
    (-H + lam I) step = g for the first lam of 0, 1e-10 s, 1e-9 s, ... (s the
    largest diagonal entry of -H) at which the Cholesky factorisation
    succeeds.  None if the derivatives are not finite or the damped system
    is numerically singular."""
    if not (np.all(np.isfinite(g)) and np.all(np.isfinite(H))):
        return None
    A = -H
    scale = max(1.0, float(np.max(np.abs(np.diag(A)))))
    lam = 0.0
    while lam < 1e20 * scale:
        damped = A + lam * np.eye(A.shape[0]) if lam else A
        try:
            np.linalg.cholesky(damped)
        except np.linalg.LinAlgError:
            if lam:
                lam *= 10.0
                continue
            # values up to minus the smallest eigenvalue cannot succeed
            shift = -float(np.linalg.eigvalsh(A)[0])
            lam = 1e-10 * scale
            while lam <= shift:
                lam *= 10.0
            continue
        try:
            return np.linalg.solve(damped, g)
        except np.linalg.LinAlgError:
            # rows of A many orders of magnitude apart (a clipped linear
            # predictor) can pass the factorisation and fail elimination
            return None
    return None


def _maximise(evaluate, x0: np.ndarray) -> FitRecord:
    """Maximise a smooth objective from x0 by damped Newton ascent.

    `evaluate(x)` returns (value, grad, hess).  The loop stops converged once
    the gradient is within GRAD_TOL and the Newton decrement is below what the
    objective can resolve; it stops unconverged when no step improves the
    objective or after MAX_ITER iterations.  Trial points can overflow the
    exponentials of the likelihood; they are evaluated with floating-point
    warnings off and rejected when not finite.
    """
    x = x0.copy()
    converged = False
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        f, g, H = evaluate(x)
        n_evals = 1
        for _ in range(MAX_ITER):
            step = _ascent_step(g, H) if np.isfinite(f) else None
            if step is None:
                break
            grad_ok = np.max(np.abs(g)) <= GRAD_TOL * (1.0 + abs(f))
            decrement = float(g @ step)
            if grad_ok and decrement <= DECREMENT_TOL * (1.0 + abs(f)):
                converged = True
                break
            if abs(step[0]) > NU_STEP_MAX:
                step *= NU_STEP_MAX / abs(step[0])
                decrement = float(g @ step)
            alpha, accepted = 1.0, None
            for _ in range(MAX_BACKTRACK):
                trial = evaluate(x + alpha * step)
                n_evals += 1
                if trial[0] >= f + ARMIJO * alpha * decrement:
                    accepted = trial
                    break
                if grad_ok:
                    break  # within tolerance and at the objective's resolution
                alpha *= 0.5
            if accepted is None:
                converged = grad_ok
                break
            x = x + alpha * step
            f, g, H = accepted

    fisher = -H
    if abs(x[0]) > NU_BOUNDARY:
        status = FitStatus.BOUNDARY
    elif not np.all(np.isfinite(fisher)):
        status = FitStatus.SINGULAR_HESSIAN
    elif converged:
        try:
            np.linalg.cholesky(fisher)
            status = FitStatus.CONVERGED
        except np.linalg.LinAlgError:
            status = FitStatus.SINGULAR_HESSIAN
    else:
        status = FitStatus.MAX_ITER
    return FitRecord(psi_opt=x, objective=float(f), fisher=fisher,
                     status=status, n_evals=n_evals)


def _start(gamma: Gamma, data: Dataset, init) -> np.ndarray:
    return (np.asarray(init, dtype=float).reshape(-1) if init is not None
            else default_init(gamma, data))


def fit_mle(gamma: Gamma, data: Dataset, kernel: Kernel,
            init: np.ndarray | None = None) -> FitRecord:
    des = ghlik.design(gamma, data, kernel)
    return _maximise(lambda x: ghlik.evaluate(des, x), _start(gamma, data, init))


def fit_map(gamma: Gamma, data: Dataset, kernel: Kernel,
            coef_prior: priors.CoefficientPrior, common: priors.CommonPrior,
            init: np.ndarray | None = None) -> FitRecord:
    """MAP fit under the product prior: the log-likelihood plus the common
    prior on (nu, theta0) and the product prior's Gaussian on the
    coefficients, whose Gram blocks are factorised once per fit.  Raises
    priors.RankDeficiencyError if a Gram block is singular."""
    if coef_prior.kind is not priors.PriorKind.PRODUCT:
        raise ValueError("joint psi prior is defined for the product prior only")
    des = ghlik.design(gamma, data, kernel)
    P, log_norm = priors.product_prior_gaussian(gamma, data, coef_prior)

    def evaluate(x):
        f, g, H = ghlik.evaluate(des, x)
        nu, theta0, coef = float(x[0]), float(x[1]), x[2:]
        Pc = P @ coef
        f += (priors.log_common_prior(nu, theta0, common) + log_norm
              - 0.5 * float(coef @ Pc))
        g[:2] += priors.grad_common_prior(nu, theta0, common)
        g[2:] -= Pc
        H[:2, :2] += priors.hess_common_prior(nu, theta0, common)
        H[2:, 2:] -= P
        return f, g, H

    return _maximise(evaluate, _start(gamma, data, init))
