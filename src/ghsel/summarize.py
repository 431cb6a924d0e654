"""Posterior summaries over sampled or enumerated model traces.

Two model-probability estimators are provided: empirical visit frequencies,
and renormalisation of the unnormalised scores over the set of visited models.
The second depends only on the visited set and the cached scores, so it is
invariant to trace duplication and is the default reporting estimator.
"""

from __future__ import annotations

import numpy as np

from .modelspace import Gamma, HazardClass, classify
from .sampler import ChainTrace


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
    vals = np.array([scores[k] for k in keys])
    finite = np.isfinite(vals)
    if not finite.any():
        raise ValueError("all visited models have impossible scores")
    m = vals[finite].max()
    w = np.where(finite, np.exp(vals - m), 0.0)
    w /= w.sum()
    return dict(zip(keys, w))


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
