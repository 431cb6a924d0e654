"""Seeded survival data for the benchmark's `select` workloads.

The generator is written against the hazard form itself, not against
`ghsel.simulate`, so a change to the program's simulator cannot change these
workloads and their truth is known apart from the program:

    h(t|x) = h0(t * exp(x'alpha)) * exp(x'beta)
    H(t|x) = H0(t * exp(x'alpha)) * exp(x'beta - x'alpha)

with a lognormal baseline H0(s) = -log Phi(-(log s - mu) / sigma).  Event
times come from exact inversion of H(t|x) = E, E ~ Exp(1); censoring is
administrative, at one follow-up time that censors the requested share.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
from scipy import special

RHO = 0.5          # AR(1) correlation of neighbouring covariates
CENSORING = 0.25   # share of times censored at the follow-up time


@dataclass(frozen=True)
class Truth:
    """True role vector (codes as in ghsel: 0 out, 1 time-level, 2 hazard-level,
    3 both, 4 tied) with the coefficients behind it."""
    codes: str
    alpha: tuple
    beta: tuple
    mu: float = 1.55
    sigma: float = 0.7


def ar1_covariates(rng: np.random.Generator, n: int, p: int, rho: float) -> np.ndarray:
    """Rows i.i.d. N(0, S) with S_jk = rho^|j-k|."""
    Z = rng.standard_normal((n, p))
    X = np.empty((n, p))
    X[:, 0] = Z[:, 0]
    scale = math.sqrt(1.0 - rho * rho)
    for j in range(1, p):
        X[:, j] = rho * X[:, j - 1] + scale * Z[:, j]
    return X


def event_times(rng: np.random.Generator, X: np.ndarray, truth: Truth) -> np.ndarray:
    """Invert H(t|x) = E exactly: H0(s) = E exp(x'alpha - x'beta) at
    s = t exp(x'alpha), and log Phi(-z) = -w gives z = -ndtri_exp(-w)."""
    xa = X @ np.asarray(truth.alpha)
    xb = X @ np.asarray(truth.beta)
    w = rng.exponential(size=X.shape[0]) * np.exp(xa - xb)
    z = -special.ndtri_exp(-w)
    return np.exp(truth.mu + truth.sigma * z - xa)


def generate(seed, n: int, p: int, truth: Truth):
    """Return (time, status, X) drawn from `truth`, censored administratively.
    `seed` is anything `numpy.random.default_rng` accepts."""
    if len(truth.codes) != p:
        raise ValueError("truth codes must have length p")
    rng = np.random.default_rng(seed)
    X = ar1_covariates(rng, n, p, RHO)
    t = event_times(rng, X, truth)
    follow_up = float(np.quantile(t, 1.0 - CENSORING))
    status = (t <= follow_up).astype(int)
    return np.minimum(t, follow_up), status, X


def write_csv(path, time, status, X):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", "status", *[f"x{j + 1}" for j in range(X.shape[1])]])
        for ti, si, row in zip(time, status, X):
            writer.writerow([repr(float(ti)), int(si), *[repr(float(v)) for v in row]])
