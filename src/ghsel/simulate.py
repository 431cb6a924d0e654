"""Data generation: correlated covariates, event times from the general
hazard model by inverse transform, and administrative censoring.

The hazard is h(t|x) = h0(t*exp(x~'a)) * exp(x'b); solving H(t|x) = E with
E ~ Exp(1) gives t = H0^{-1}(E * exp(x~'a - x'b)) * exp(-x~'a).  Two baseline
families are supported for generation: log-location-scale (the kernel
quantile evaluated from log q, so huge cumulative-hazard draws do not
overflow: in closed form for the logistic, sech and t2 kernels, and by the
Newton steps of `baseline._normal_quantile_exp` for the normal kernel) and
the power generalized Weibull, which has a closed-form inverse cumulative
hazard.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .baseline import Kernel, _normal_quantile_exp
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

    def inverse_cumhaz(self, w: np.ndarray) -> np.ndarray:
        # H0(t) = w  <=>  t = exp(mu + sigma * Finv(1 - e^{-w})); by kernel
        # symmetry Finv(1 - q) = -Finv(q) with log q = -w
        return np.exp(self.mu - self.sigma * _kernel_quantile_exp(-np.asarray(w), self.kernel))

    def cumhaz(self, t: np.ndarray) -> np.ndarray:
        from . import baseline
        z = (np.log(t) - self.mu) / self.sigma
        return -baseline.log_F_neg(z, self.kernel)


@dataclass(frozen=True)
class PGWBaseline:
    """Power generalized Weibull with H0(t) = (1 + (t/scale)^s1)^(1/s2) - 1."""
    scale: float = 1.0
    s1: float = 1.0
    s2: float = 2.0

    def __post_init__(self):
        if min(self.scale, self.s1, self.s2) <= 0:
            raise ValueError("PGW parameters must be positive")

    def cumhaz(self, t: np.ndarray) -> np.ndarray:
        return np.power(1.0 + np.power(np.asarray(t) / self.scale, self.s1),
                        1.0 / self.s2) - 1.0

    def hazard(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t)
        r = np.power(t / self.scale, self.s1)
        return (self.s1 / (self.s2 * self.scale) * np.power(t / self.scale, self.s1 - 1.0)
                * np.power(1.0 + r, 1.0 / self.s2 - 1.0))

    def inverse_cumhaz(self, w: np.ndarray) -> np.ndarray:
        return self.scale * np.power(np.power(1.0 + np.asarray(w), self.s2) - 1.0,
                                     1.0 / self.s1)


def _kernel_quantile_exp(log_q, kernel: Kernel):
    """Kernel quantile F^{-1}(q) evaluated from log q, stable for q near 0."""
    log_q = np.asarray(log_q, dtype=float)
    if kernel is Kernel.NORMAL:
        return _normal_quantile_exp(log_q)
    if kernel is Kernel.LOGISTIC:
        return log_q - np.log1p(-np.exp(log_q))
    if kernel is Kernel.SECH:
        q = np.exp(log_q)
        small = log_q < -25.0
        with np.errstate(divide="ignore"):
            direct = (2.0 / np.pi) * np.log(np.tan(0.5 * np.pi * np.where(small, 0.5, q)))
        series = (2.0 / np.pi) * (math.log(0.5 * np.pi) + log_q)
        return np.where(small, series, direct)
    if kernel is Kernel.STUDENT_T2:
        q = np.exp(log_q)
        small = log_q < -25.0
        safe_q = np.where(small, 0.5, q)
        direct = (2.0 * safe_q - 1.0) / np.sqrt(2.0 * safe_q * (1.0 - safe_q))
        series = -np.exp(-0.5 * log_q) / math.sqrt(2.0)
        return np.where(small, series, direct)
    raise ValueError(f"unknown kernel {kernel}")


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
    if isinstance(baseline_spec, LogLocationScaleBaseline):
        # work directly in log space: log w = log E + a - b
        log_w = np.log(E) + a - b
        log_t0 = (baseline_spec.mu
                  - baseline_spec.sigma * _kernel_quantile_exp(
                      _neg_w_from_log(log_w), baseline_spec.kernel))
        # a heavy-tailed kernel can give times beyond the float range: they
        # are infinite, and administrative censoring cuts them at its cut-off
        inf = np.maximum(log_t0, log_t0 - a) > LOG_TIME_MAX
        times = np.exp(np.where(inf, 0.0, log_t0)) * np.exp(-a)
        times[inf] = np.inf
        return times
    w = np.exp(np.clip(np.log(E) + a - b, -700.0, 700.0))
    return baseline_spec.inverse_cumhaz(w) * np.exp(-a)


def _neg_w_from_log(log_w):
    """log(e^{-w}) = -w given log w, with overflow clamps on both ends."""
    return -np.exp(np.clip(log_w, -745.0, 700.0))


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
        "baseline": _baseline_dict(cfg.baseline),
        "c_admin": c,
    }
    return data, truth


def _baseline_dict(spec) -> dict:
    if isinstance(spec, LogLocationScaleBaseline):
        return {"family": "lls", "mu": spec.mu, "sigma": spec.sigma,
                "kernel": spec.kernel.value}
    if isinstance(spec, PGWBaseline):
        return {"family": "pgw", "scale": spec.scale, "s1": spec.s1, "s2": spec.s2}
    raise ValueError(f"unknown baseline {spec!r}")


def baseline_from_dict(d: dict):
    if d["family"] == "lls":
        return LogLocationScaleBaseline(mu=d["mu"], sigma=d["sigma"],
                                        kernel=Kernel(d["kernel"]))
    if d["family"] == "pgw":
        return PGWBaseline(scale=d["scale"], s1=d["s1"], s2=d["s2"])
    raise ValueError(f"unknown baseline family {d['family']}")


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
