"""Correctness checks on the outputs of `ghsel select`, `enumerate` and
`replicate`.

Each check compares an output with a computation made apart from the program
(a likelihood written here from the hazard form, the exact posterior from
enumeration, the generator's truth) or with a property the method must have
(normalised probabilities, renormalised ratios equal to score differences).
A failed check raises `CheckFailed`.
"""

from __future__ import annotations

import math
import sys

import numpy as np
from scipy import special

SUM_TOL = 1e-9           # both probability tables sum to one
LOG_RATIO_TOL = 1e-8     # renormalised log-ratios equal score differences
STATIONARY_TOL = 1e-5    # nats the log-likelihood could still gain by a Newton step
RESTRICTED_TOL = 1e-6    # renormalised estimator vs exact posterior on the visited set
CLASS_POSTERIOR_MIN = 0.9  # mean posterior of the true hazard class over datasets
REPLICATE_CLASS_SHARE = 0.8  # replicates whose modal class is the true one
TV_BOUND = 0.1           # visit frequencies vs exact posterior, total variation
FREQ_Z_MAX = 6.0         # visit frequency vs exact posterior, in batch-means errors
FREQ_MIN_PROB = 0.005    # ... for models with at least this probability
FREQ_BATCHES = 20
TINY = sys.float_info.min  # smallest normal double


class CheckFailed(AssertionError):
    pass


def _require(cond, msg):
    if not cond:
        raise CheckFailed(msg)


def hazard_class(codes: str) -> str:
    """Hazard class of a role vector, as defined in the README."""
    used = set(codes) - {"0"}
    if not used:
        return "Null"
    for cls, code in (("AH", "1"), ("PH", "2"), ("AFT", "4")):
        if used == {code}:
            return cls
    return "GH"


def check_true_effects(summary: dict, truth_codes: str):
    """The chain reached the true model, the top model holds every true effect
    in its true role, and the true hazard class is the modal class.

    A variable outside the truth may join the top model.  When every variable
    is in the truth, as in the benchmark's GH design `3333`, this asks that
    the top model be the true model."""
    top = summary["top_model"]
    wrong = [f"x{j + 1}" for j, c in enumerate(truth_codes) if c != "0" and top[j] != c]
    _require(not wrong, f"top model {top} misses or mis-roles true effects {wrong} "
                        f"of {truth_codes}")
    _require(truth_codes in summary["model_probs_renormalized"],
             f"the chain never visited the true model {truth_codes}")
    probs = summary["hazard_probs"]
    cls = hazard_class(truth_codes)
    _require(probs[cls] == max(probs.values()),
             f"true class {cls} ({probs[cls]:.4f}) is not the modal class")


def check_class_posterior(summaries: list, truth_codes: str):
    """The true class's posterior averages at least CLASS_POSTERIOR_MIN over
    datasets; on a single dataset it can dip below."""
    cls = hazard_class(truth_codes)
    mean = float(np.mean([s["hazard_probs"][cls] for s in summaries]))
    _require(mean >= CLASS_POSTERIOR_MIN, f"posterior of the true class {cls} averages "
                                          f"{mean:.4f} < {CLASS_POSTERIOR_MIN}")


def check_normalised(summary: dict):
    for key in ("model_probs_frequency", "model_probs_renormalized"):
        probs = np.array(list(summary[key].values()), dtype=float)
        _require(probs.size > 0 and np.all(probs >= 0.0), f"{key} has negative entries")
        _require(abs(probs.sum() - 1.0) <= SUM_TOL, f"{key} sums to {probs.sum()!r}")


def check_renormalised_ratios(summary: dict, trace_records: list):
    """p_k / p_ref = exp((log_ml + log_prior)_k - (log_ml + log_prior)_ref)
    for every model in the trace, the reference being the top model."""
    probs = summary["model_probs_renormalized"]
    scores = {}
    for rec in trace_records:
        scores[rec["gamma"]] = rec["log_ml"] + rec["log_prior"]
    ref = summary["top_model"]
    _require(ref in scores, f"top model {ref} never appears in trace.jsonl")
    for key, score in scores.items():
        _require(key in probs, f"trace model {key} missing from model_probs_renormalized")
        diff = score - scores[ref]
        if probs[key] < TINY:
            # a subnormal or zero probability keeps too few bits for its log
            _require(probs[ref] * math.exp(diff) < 2.0 * TINY,
                     f"{key} has probability {probs[key]} at score gap {diff}")
            continue
        err = abs(math.log(probs[key]) - math.log(probs[ref]) - diff)
        _require(err <= LOG_RATIO_TOL * max(1.0, abs(diff)),
                 f"{key}: log probability ratio differs from score difference by {err:.3g}")


def standardise(X: np.ndarray) -> np.ndarray:
    """Covariates as `ghsel` analyses them: centred, unit variance."""
    sd = X.std(axis=0)
    sd[sd == 0.0] = 1.0
    return (X - X.mean(axis=0)) / sd


def hazard_loglik(mu, log_sigma, alpha, beta, time, status, X):
    """Log-likelihood of h(t|x) = h0(t e^{x'alpha}) e^{x'beta} with a
    lognormal baseline h0, written from the hazard form:
    sum(status * log h(t|x)) - H(t|x), H(t|x) = H0(t e^{x'alpha}) e^{x'beta - x'alpha}."""
    sigma = math.exp(log_sigma)
    xa, xb = X @ alpha, X @ beta
    log_s = np.log(time) + xa
    z = (log_s - mu) / sigma
    log_surv0 = special.log_ndtr(-z)
    log_h0 = -0.5 * z * z - 0.5 * math.log(2.0 * math.pi) - log_sigma - log_s - log_surv0
    return float(status @ (log_h0 + xb) + log_surv0 @ np.exp(xb - xa))


def newton_gain(summary: dict, time, status, X) -> float:
    """Log-likelihood gain of one Newton step from the reported top-model
    coefficients, with gradient and Hessian by central differences."""
    nat = summary["top_model_coefficients"]["natural"]
    names = [f"x{j + 1}" for j in range(X.shape[1])]
    col = {name: j for j, name in enumerate(names)}
    a_cols = [col[k] for k in nat["alpha"]]
    tied = summary["top_model_class"] == "AFT"
    b_cols = [] if tied else [col[k] for k in nat["beta"]]
    x0 = np.array([nat["mu"], math.log(nat["sigma"]),
                   *nat["alpha"].values(), *([] if tied else nat["beta"].values())])

    def f(x):
        alpha = np.zeros(X.shape[1])
        beta = np.zeros(X.shape[1])
        alpha[a_cols] = x[2:2 + len(a_cols)]
        beta[b_cols] = x[2 + len(a_cols):]
        if tied:
            beta[a_cols] = x[2:2 + len(a_cols)]
        return hazard_loglik(x[0], x[1], alpha, beta, time, status, X)

    k = x0.size
    h_g, h_h = 1e-5, 1e-4
    eye = np.eye(k)
    grad = np.array([(f(x0 + h_g * e) - f(x0 - h_g * e)) / (2 * h_g) for e in eye])
    hess = np.empty((k, k))
    for i in range(k):
        for j in range(i, k):
            ei, ej = h_h * eye[i], h_h * eye[j]
            hess[i, j] = hess[j, i] = (f(x0 + ei + ej) - f(x0 + ei - ej)
                                       - f(x0 - ei + ej) + f(x0 - ei - ej)) / (4 * h_h * h_h)
    try:
        L = np.linalg.cholesky(-hess)
    except np.linalg.LinAlgError:
        return math.inf  # not a maximum
    w = np.linalg.solve(L, grad)
    return 0.5 * float(w @ w)


def check_stationary(summary: dict, time, status, X_std):
    _require("top_model_coefficients" in summary, "no top_model_coefficients reported")
    gain = newton_gain(summary, time, status, X_std)
    _require(gain <= STATIONARY_TOL,
             f"top-model coefficients are not a likelihood maximum: a Newton step "
             f"gains {gain:.3g} nats")


def read_enumeration(rows: list) -> dict:
    """Exact posterior from the rows of `ghsel enumerate --out` (header first)."""
    header = rows[0]
    gi, pi = header.index("gamma"), header.index("posterior")
    return {row[gi]: float(row[pi]) for row in rows[1:]}


def total_variation(p: dict, q: dict) -> float:
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in set(p) | set(q))


def check_enumeration(summary: dict, exact: dict):
    tv = total_variation(summary["model_probs_frequency"], exact)
    _require(tv <= TV_BOUND, f"visit frequencies are {tv:.4f} in TV from the exact "
                             f"posterior (bound {TV_BOUND})")


def check_visit_frequencies(samples: list, exact: dict):
    """Each model's visit frequency is within FREQ_Z_MAX Monte Carlo errors of
    its exact posterior probability.

    The error is estimated by batch means over FREQ_BATCHES consecutive
    batches of the chain's samples, and is never taken below the error of
    independent draws.  Models below FREQ_MIN_PROB both in the chain and in
    the exact posterior are skipped: their rare visits come in clumps that
    batch means cannot resolve.  Unlike a bound on total variation, the test
    grows stricter with the chain's length and looser with its
    autocorrelation; a chain run without its Hastings term failed it on 3 of 8
    `aft-p4-chain` datasets (README.md)."""
    keys = sorted(set(exact) | set(samples))
    index = {k: i for i, k in enumerate(keys)}
    codes = np.array([index[g] for g in samples])
    n = codes.size // FREQ_BATCHES
    freq = np.bincount(codes, minlength=len(keys)) / codes.size
    batches = np.array([np.bincount(codes[b * n:(b + 1) * n], minlength=len(keys)) / n
                        for b in range(FREQ_BATCHES)])
    pi = np.array([exact.get(k, 0.0) for k in keys])
    se = np.maximum(batches.std(axis=0, ddof=1) / math.sqrt(FREQ_BATCHES),
                    np.sqrt(pi * (1.0 - pi) / codes.size))
    z = np.where(np.maximum(freq, pi) >= FREQ_MIN_PROB, np.abs(freq - pi) / se, 0.0)
    i = int(np.argmax(z))
    _require(z[i] <= FREQ_Z_MAX, f"model {keys[i]} visited with frequency {freq[i]:.4f} "
                                 f"against exact {pi[i]:.4f}: {z[i]:.1f} errors off")


def check_restricted(summary: dict, exact: dict):
    """The renormalised estimator equals the exact posterior restricted to
    the visited set."""
    renorm = summary["model_probs_renormalized"]
    missing = set(renorm) - set(exact)
    _require(not missing, f"visited models absent from enumeration: {sorted(missing)[:3]}")
    mass = sum(exact[k] for k in renorm)
    err, model = max((abs(renorm[k] - exact[k] / mass), k) for k in renorm)
    _require(err <= RESTRICTED_TOL, f"renormalised estimator is {err:.3g} from the exact "
                                    f"posterior on the visited set at model {model}")


def check_replicates(report: dict, reps: int, truth_class: str, strong: tuple):
    """Every replicate finds the strong effects; at least REPLICATE_CLASS_SHARE
    of them pick the true class, the share the repository's criterion 7 asks
    of a simulation study.  A weak effect misleads one replicate in about 60."""
    agg = report["aggregate"]
    _require(agg["reps_completed"] + agg["reps_failed"] == reps,
             f"{agg['reps_completed']} + {agg['reps_failed']} replicates reported, not {reps}")
    wrong = [r["seed"] for r in report["replicates"] if r["modal_class"] != truth_class]
    right = len(report["replicates"]) - len(wrong)
    _require(right >= REPLICATE_CLASS_SHARE * len(report["replicates"]),
             f"replicates {wrong}: modal class is not {truth_class}")
    for rep in report["replicates"]:
        missing = [j for j in strong if rep["top_model"][j] == "0"]
        _require(not missing, f"replicate {rep['seed']}: strong effects "
                              f"{[f'x{j + 1}' for j in missing]} not in top model "
                              f"{rep['top_model']}")


def check_same_replicate(parallel: dict, serial: dict):
    """A replicate's result does not depend on --workers."""
    match = [r for r in parallel["replicates"] if r["seed"] == serial["seed"]]
    _require(match == [serial], f"replicate {serial['seed']} differs between "
                                f"--workers runs")


def check_identical(first: bytes, again: bytes, what: str):
    _require(first == again, f"{what} differs between two runs with one seed")
