"""Data generation: correlated covariates, event times from the general
hazard model by inverse transform, and administrative censoring.

The hazard is h(t|x) = h0(t*exp(x~'a)) * exp(x'b); solving H(t|x) = E with
E ~ Exp(1) gives t = H0^{-1}(E * exp(x~'a - x'b)) * exp(-x~'a).  Two baseline
families are supported for generation, each with a `log_time` method that
returns log H0^{-1}(w) from log w, so huge cumulative-hazard draws do not
overflow: log-location-scale, through the kernel quantile
`baseline.quantile_exp`, and the power generalized Weibull, in closed form.
Each family also writes its own record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .baseline import Kernel, quantile_exp
from .ghlik import Dataset
from .modelspace import Gamma, HazardClass

LOG_TIME_MAX = 700.0  # a simulated time whose log exceeds this is infinite


@dataclass(frozen=True)
class LogLocationScaleBaseline:
    mu: float = 1.55
    sigma: float = 0.7
    kernel: Kernel = Kernel.NORMAL

    def __post_init__(self):
        if not 0 < self.sigma < math.inf:
            raise ValueError("sigma must be positive and finite")
        if not math.isfinite(self.mu):
            raise ValueError("mu must be finite")

    def log_time(self, log_w: np.ndarray) -> np.ndarray:
        """log t with H0(t) = w, from log w clamped to [-745, 700]: t = exp(mu +
        sigma Finv(1 - e^-w)) = exp(mu - sigma Finv(e^-w)) by the kernel's
        symmetry, and log t is inf where it lies beyond the float range."""
        return self.mu - self.sigma * quantile_exp(-np.exp(np.clip(log_w, -745.0, 700.0)),
                                                   self.kernel)

    def record(self) -> dict:
        return {"family": "lls", "mu": self.mu, "sigma": self.sigma,
                "kernel": self.kernel.value}


@dataclass(frozen=True)
class PGWBaseline:
    """Power generalized Weibull with H0(t) = (1 + (t/scale)^s1)^(1/s2) - 1."""
    scale: float = 1.0
    s1: float = 1.0
    s2: float = 2.0

    def __post_init__(self):
        if min(self.scale, self.s1, self.s2) <= 0:
            raise ValueError("PGW parameters must be positive")

    def log_time(self, log_w: np.ndarray) -> np.ndarray:
        """log t with H0(t) = w, from log w clamped below at -700: (t/scale)^s1
        = expm1(y), y = s2 log(1 + w), and log expm1(y) = y + log(1 - e^-y)
        neither overflows for large w nor cancels for small w."""
        y = self.s2 * np.logaddexp(0.0, np.maximum(log_w, -700.0))
        return math.log(self.scale) + (y + np.log(-np.expm1(-y))) / self.s1

    def record(self) -> dict:
        return {"family": "pgw", "scale": self.scale, "s1": self.s1, "s2": self.s2}


@dataclass(frozen=True)
class SimConfig:
    n: int
    p: int
    truth: Gamma
    alpha: np.ndarray
    beta: np.ndarray
    baseline: object = field(default_factory=LogLocationScaleBaseline)
    rho: float = 0.7
    target_censoring: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.n < 1 or self.p < 1:
            raise ValueError("n and p must be >= 1")
        if not abs(self.rho) < 1.0:
            raise ValueError("|rho| must be < 1")
        if not 0.0 <= self.target_censoring < 1.0:
            raise ValueError("target_censoring must lie in [0, 1)")
        a = np.asarray(self.alpha, dtype=float).reshape(-1)
        b = np.asarray(self.beta, dtype=float).reshape(-1)
        if a.size != self.p or b.size != self.p:
            raise ValueError("alpha and beta must have length p")
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "beta", b)

    def record(self) -> dict:
        """The settings as the replicate report records them."""
        return {"n": self.n, "p": self.p, "truth": self.truth.key,
                "alpha": self.alpha.tolist(), "beta": self.beta.tolist(),
                "baseline": self.baseline.record(), "rho": self.rho,
                "censoring": self.target_censoring}


def simulate_covariates(n: int, p: int, rho: float,
                        rng: np.random.Generator) -> np.ndarray:
    """Rows i.i.d. N(0, Sigma) with Sigma_ij = rho^|i-j| via the sequential
    conditional construction."""
    Z = rng.standard_normal((n, p))
    X = np.empty((n, p))
    X[:, 0] = Z[:, 0]
    scale = math.sqrt(1.0 - rho * rho)
    for j in range(1, p):
        X[:, j] = rho * X[:, j - 1] + scale * Z[:, j]
    return X


def simulate_gh_times(X: np.ndarray, alpha: np.ndarray, beta: np.ndarray,
                      baseline_spec, rng: np.random.Generator) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    a = X @ np.asarray(alpha, dtype=float)
    b = X @ np.asarray(beta, dtype=float)
    E = rng.exponential(size=X.shape[0])
    # in log space: log w = log E + a - b, and log t = log H0^{-1}(w) - a
    log_t0 = baseline_spec.log_time(np.log(E) + a - b)
    # a heavy-tailed kernel can give times beyond the float range: they
    # are infinite, and administrative censoring cuts them at its cut-off
    inf = np.maximum(log_t0, log_t0 - a) > LOG_TIME_MAX
    times = np.exp(np.where(inf, 0.0, log_t0)) * np.exp(-a)
    times[inf] = np.inf
    return times


def apply_administrative_censoring(times: np.ndarray, target_rate: float):
    """Censor everything beyond the empirical (1 - rate) quantile of the
    simulated event times (one shared follow-up cut-off); deterministic.
    Follow-up never runs past the largest finite time, so infinite times end
    censored there."""
    times = np.asarray(times, dtype=float)
    c = float(np.quantile(times, 1.0 - target_rate)) if target_rate > 0.0 else math.inf
    finite = np.isfinite(times)
    if not finite.all():
        c = float(np.fmin(c, times[finite].max()))
    delta = (times <= c).astype(float)
    return np.minimum(times, c), delta, c


def simulate_dataset(cfg: SimConfig):
    """Full pipeline: covariates -> event times -> censoring -> Dataset plus
    a truth record for scoring."""
    rng = np.random.default_rng(cfg.seed)
    X = simulate_covariates(cfg.n, cfg.p, cfg.rho, rng)
    o = simulate_gh_times(X, cfg.alpha, cfg.beta, cfg.baseline, rng)
    t, delta, c = apply_administrative_censoring(o, cfg.target_censoring)
    data = Dataset(t=t, delta=delta, X=X, names=())
    truth = {
        "gamma": cfg.truth.key,
        "alpha": cfg.alpha.tolist(),
        "beta": cfg.beta.tolist(),
        "baseline": cfg.baseline.record(),
        "c_admin": c,
    }
    return data, truth


# ---------------------------------------------------------------------------
# study protocol: truth patterns used by the replication harness

_CLASS_COEFS = (1.0, -1.0, 0.25, -0.25)
_GH_ALPHA = (1.0, 0.25, -1.0, -0.25)
_GH_BETA = (0.25, -1.0, -0.25, 1.0)


def protocol_truth(p: int, cls: HazardClass, strict: bool = True):
    """Active positions at 0.2p, 0.4p, 0.6p, 0.8p (1-indexed) with the study's
    coefficient patterns; returns (truth model, alpha, beta).  With
    strict=False, small p keeps however many distinct positions survive the
    rounding and uses the leading coefficients."""
    positions = sorted({max(1, round(f * p)) - 1 for f in (0.2, 0.4, 0.6, 0.8)})
    if strict and len(positions) != 4:
        raise ValueError(f"p={p} too small for four distinct active positions")
    alpha = np.zeros(p)
    beta = np.zeros(p)
    codes = [0] * p
    if cls is HazardClass.PH:
        for pos, c in zip(positions, _CLASS_COEFS):
            beta[pos] = c
            codes[pos] = 2
    elif cls is HazardClass.AH:
        for pos, c in zip(positions, _CLASS_COEFS):
            alpha[pos] = c
            codes[pos] = 1
    elif cls is HazardClass.AFT:
        for pos, c in zip(positions, _CLASS_COEFS):
            alpha[pos] = c
            beta[pos] = c
            codes[pos] = 4
    elif cls is HazardClass.GH:
        for pos, ca, cb in zip(positions, _GH_ALPHA, _GH_BETA):
            alpha[pos] = ca
            beta[pos] = cb
            codes[pos] = 3
    else:
        raise ValueError("truth class must be AH, PH, AFT or GH")
    return Gamma(tuple(codes)), alpha, beta
