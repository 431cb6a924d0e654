"""Posterior summaries over sampled or enumerated model traces.

Two model-probability estimators are provided: empirical visit frequencies,
and renormalisation of the unnormalised scores over the set of visited models.
The second depends only on the visited set and the cached scores, so it is
invariant to trace duplication and is the default reporting estimator.
`summary` gathers a run's figures into the one summary that `select` writes
and each replicate reads.
"""

from __future__ import annotations

import math

import numpy as np

from .ghlik import hazard_level_columns, time_level_columns
from .modelspace import Gamma, HazardClass, classify
from .sampler import ChainTrace


def summary(trace: ChainTrace, scorer, level: float) -> dict:
    """A run's posterior summary, as `select` writes it to summary.json.

    The figures are those of the renormalised estimator; `scorer` is the one
    the chain sampled under, whose fit of the top model gives its
    coefficients (a memoised score).  Variables are keyed by name, which a
    `Dataset` keeps distinct."""
    names = scorer.data.names
    renorm = probs_renormalized(trace)
    pip_any, pip_role = pip(renorm)
    top_key = top_model(renorm)
    top_gamma = Gamma.from_key(top_key)
    out = {
        "model_probs_frequency": probs_frequency(trace),
        "model_probs_renormalized": renorm,
        "hazard_probs": {cls.value: prob for cls, prob in hazard_posterior(renorm).items()},
        "pip_any": {name: float(v) for name, v in zip(names, pip_any)},
        "pip_by_role": {name: [float(v) for v in row] for name, row in zip(names, pip_role)},
        "hpm_set": [{"gamma": k, "prob": float(v)} for k, v in hpm_credible_set(renorm, level)],
        "hpm_level": level,
        "top_model": top_key,
        "top_model_class": classify(top_gamma).value,
        "acceptance_rate": trace.acceptance_rate(),
        "acceptance_by_move": {mk.value: trace.acceptance_rate(mk) for mk in trace.propose_count},
        "n_retained": len(trace.samples),
        "n_visited": len(trace.visited),
    }
    rec = scorer.score(top_gamma)
    if rec.fit is not None and rec.fit.ok:
        out["top_model_coefficients"] = _coefficients(top_gamma, rec.fit.psi_opt, names)
    return out


def _coefficients(gamma: Gamma, psi, names) -> dict:
    """Fitted coefficients of one model in both parametrisations."""
    nu, theta0 = float(psi[0]), float(psi[1])
    sigma = math.exp(-nu)
    tc, hc = time_level_columns(gamma), hazard_level_columns(gamma)
    theta, eta = psi[2:2 + len(tc)], psi[2 + len(tc):]
    alpha = {names[j]: -sigma * float(th) for j, th in zip(tc, theta)}
    if classify(gamma) is HazardClass.AFT:
        beta = dict(alpha)
    else:
        beta = {names[j]: -float(e) for j, e in zip(hc, eta)}
    return {
        "psi": {"nu": nu, "theta0": theta0,
                "theta": {names[j]: float(v) for j, v in zip(tc, theta)},
                "eta": {names[j]: float(v) for j, v in zip(hc, eta)}},
        "natural": {"mu": theta0 * sigma, "sigma": sigma, "alpha": alpha, "beta": beta},
    }


def probs_frequency(trace: ChainTrace) -> dict:
    keys = trace.keys
    if not keys:
        raise ValueError("empty trace")
    n = len(keys)
    out: dict = {}
    for k in keys:
        out[k] = out.get(k, 0) + 1
    return {k: c / n for k, c in sorted(out.items())}


def probs_renormalized(trace: ChainTrace) -> dict:
    visited = {k for _, _, k in trace.samples} | set(trace.visited)
    if not visited:
        raise ValueError("empty trace")
    scores = {}
    for k in visited:
        if k not in trace.visited:
            raise KeyError(f"no cached score for visited model {k}")
        log_ml, log_prior = trace.visited[k]
        scores[k] = log_ml + log_prior
    keys = sorted(scores)
    return dict(zip(keys, normalized([scores[k] for k in keys])))


def normalized(log_scores) -> np.ndarray:
    """Probabilities proportional to exp(score), in the order given (which
    fixes the rounding of their sum); an impossible score (-inf) gets 0.
    Raises ValueError if every score is impossible."""
    vals = np.array(log_scores, dtype=float)
    finite = np.isfinite(vals)
    if not finite.any():
        raise ValueError("all visited models have impossible scores")
    m = vals[finite].max()
    w = np.where(finite, np.exp(vals - m), 0.0)
    w /= w.sum()
    return w


def hazard_posterior(model_probs: dict) -> dict:
    out = {cls: 0.0 for cls in HazardClass}
    for key, prob in model_probs.items():
        out[classify(Gamma.from_key(key))] += prob
    return out


def pip(model_probs: dict):
    """Posterior inclusion probabilities: overall and decomposed by role code
    (columns are codes 1..4)."""
    p = len(next(iter(model_probs)))
    pip_any = np.zeros(p)
    pip_by_role = np.zeros((p, 4))
    for key, prob in model_probs.items():
        for j, ch in enumerate(key):
            c = int(ch)
            if c != 0:
                pip_any[j] += prob
                pip_by_role[j, c - 1] += prob
    return pip_any, pip_by_role


def hpm_credible_set(model_probs: dict, level: float) -> list:
    """Smallest prefix of probability-sorted models with cumulative mass at
    least `level`; ties broken by key order."""
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie in (0, 1)")
    ordered = sorted(model_probs.items(), key=lambda kv: (-kv[1], kv[0]))
    out = []
    acc = 0.0
    for key, prob in ordered:
        out.append((key, prob))
        acc += prob
        if acc >= level - 1e-15:
            break
    return out


def score_selection(selected: Gamma, truth: Gamma):
    """Inclusion-level sensitivity and specificity of a selected model."""
    if selected.p != truth.p:
        raise ValueError("selected and truth must have equal length")
    tp = sum(1 for s, t in zip(selected.codes, truth.codes) if s != 0 and t != 0)
    tn = sum(1 for s, t in zip(selected.codes, truth.codes) if s == 0 and t == 0)
    n_pos = sum(1 for t in truth.codes if t != 0)
    n_neg = truth.p - n_pos
    sens = tp / n_pos if n_pos else 1.0
    spec = tn / n_neg if n_neg else 1.0
    return sens, spec


def top_model(model_probs: dict) -> str:
    return max(model_probs.items(), key=lambda kv: (kv[1], kv[0]))[0]
