"""Each correctness check passes on a consistent output and fails on a
corrupted one.  Run with `python3 -m pytest bench/tests`."""

import copy
import math

import numpy as np
import pytest
from scipy import optimize

import checks
from datagen import Truth, generate

TRUTH = Truth("0220", (0.0, 0.0, 0.0, 0.0), (0.0, 1.0, -0.5, 0.0))


@pytest.fixture(scope="module")
def data():
    time, status, X = generate([7, 0], 400, 4, TRUTH)
    return time, status, checks.standardise(X)


@pytest.fixture(scope="module")
def summary(data):
    """A select-style summary whose top model is the truth, with coefficients
    maximising the benchmark's own likelihood."""
    time, status, X = data

    def nll(x):
        beta = np.array([0.0, x[2], x[3], 0.0])
        return -checks.hazard_loglik(x[0], x[1], np.zeros(4), beta, time, status, X)

    x = optimize.minimize(nll, np.zeros(4), method="BFGS", options={"gtol": 1e-10}).x
    scores = {"0220": 0.0, "0222": -3.0, "0200": -40.0, "2220": -737.0, "0000": -900.0}
    probs = {k: math.exp(s) for k, s in scores.items()}
    total = sum(probs.values())
    return {
        "top_model": "0220",
        "top_model_class": "PH",
        "hazard_probs": {"Null": 0.0, "AH": 0.0, "PH": 1.0, "AFT": 0.0, "GH": 0.0},
        "model_probs_renormalized": {k: v / total for k, v in probs.items()},
        "model_probs_frequency": {"0220": 0.75, "0222": 0.25},
        "top_model_coefficients": {"natural": {
            "mu": x[0], "sigma": math.exp(x[1]), "alpha": {},
            "beta": {"x2": x[2], "x3": x[3]}}},
        "_scores": scores,
    }


def _trace(summary):
    return [{"gamma": k, "log_ml": s, "log_prior": 0.0}
            for k, s in summary["_scores"].items()]


def test_consistent_output_passes(summary, data):
    checks.check_true_effects(summary, "0220")
    checks.check_true_effects(dict(summary, top_model="0222"), "0220")
    checks.check_normalised(summary)
    checks.check_renormalised_ratios(summary, _trace(summary))
    checks.check_stationary(summary, *data)


@pytest.mark.parametrize("top", ["0200", "0210", "0230"])
def test_wrong_top_model_fails(summary, top):
    with pytest.raises(checks.CheckFailed, match="misses or mis-roles"):
        checks.check_true_effects(dict(summary, top_model=top), "0220")


def test_unvisited_truth_or_weak_class_fails(summary):
    with pytest.raises(checks.CheckFailed, match="never visited"):
        checks.check_true_effects(dict(summary, top_model="0223"), "0223")
    weak = copy.deepcopy(summary)
    weak["hazard_probs"].update(PH=0.4, GH=0.6)
    with pytest.raises(checks.CheckFailed, match="not the modal class"):
        checks.check_true_effects(weak, "0220")
    weak["hazard_probs"].update(PH=0.8, GH=0.2)
    checks.check_true_effects(weak, "0220")
    checks.check_class_posterior([summary, weak], "0220")
    with pytest.raises(checks.CheckFailed, match="averages"):
        checks.check_class_posterior([weak, weak], "0220")


@pytest.mark.parametrize("delta", [1e-2, 1e-3])
def test_perturbed_coefficients_fail(summary, data, delta):
    bad = copy.deepcopy(summary)
    bad["top_model_coefficients"]["natural"]["beta"]["x3"] += delta
    with pytest.raises(checks.CheckFailed, match="not a likelihood maximum"):
        checks.check_stationary(bad, *data)


def test_non_normalised_table_fails(summary):
    for key in ("model_probs_frequency", "model_probs_renormalized"):
        bad = copy.deepcopy(summary)
        bad[key]["0220"] *= 1.001
        with pytest.raises(checks.CheckFailed, match="sums to"):
            checks.check_normalised(bad)


def test_renormalised_ratio_mismatch_fails(summary):
    records = _trace(summary)
    records[1]["log_ml"] += 1e-3
    with pytest.raises(checks.CheckFailed, match="log probability ratio"):
        checks.check_renormalised_ratios(summary, records)


def _exact():
    return {"4040": 0.6, "4440": 0.25, "4044": 0.1, "4000": 0.05}


def _chain(probs, n=50000, stay=0.5, seed=0):
    """A sticky chain whose stationary distribution is `probs`: each step
    keeps its state with probability `stay`, else redraws it from `probs`."""
    rng = np.random.default_rng(seed)
    keys = list(probs)
    draws = rng.choice(len(keys), size=n, p=list(probs.values()))
    moves = rng.random(n) > stay
    state, out = draws[0], []
    for draw, move in zip(draws, moves):
        state = draw if move else state
        out.append(keys[state])
    return out


def test_enumeration_match_passes():
    exact = _exact()
    visited = ("4040", "4440", "4044")
    mass = sum(exact[k] for k in visited)
    summary = {"model_probs_frequency": {"4040": 0.61, "4440": 0.24, "4044": 0.1, "4000": 0.05},
               "model_probs_renormalized": {k: exact[k] / mass for k in visited}}
    checks.check_enumeration(summary, exact)
    checks.check_restricted(summary, exact)
    checks.check_visit_frequencies(_chain(exact), exact)


def test_frequencies_far_from_enumeration_fail():
    exact = _exact()
    summary = {"model_probs_frequency": {"4040": 0.4, "4440": 0.45, "4044": 0.1, "4000": 0.05},
               "model_probs_renormalized": dict(exact)}
    with pytest.raises(checks.CheckFailed, match="in TV from the exact"):
        checks.check_enumeration(summary, exact)


def test_biased_chain_fails():
    """A bias of 0.02 on two models is far inside the TV bound, but 50000
    samples pin the frequency down well enough to see it."""
    exact = _exact()
    biased = dict(exact, **{"4040": 0.58, "4000": 0.07})
    samples = _chain(biased)
    summary = {"model_probs_frequency": {k: samples.count(k) / len(samples) for k in exact}}
    checks.check_enumeration(summary, exact)
    with pytest.raises(checks.CheckFailed, match="errors off"):
        checks.check_visit_frequencies(samples, exact)


def test_renormalised_off_exact_fails():
    exact = _exact()
    summary = {"model_probs_renormalized": {"4040": 0.7, "4440": 0.3}}
    with pytest.raises(checks.CheckFailed, match="at model 4"):
        checks.check_restricted(summary, exact)


def _report(n=5):
    reps = [{"seed": s, "top_model": "1110", "modal_class": "AH"} for s in range(0, 1000 * n, 1000)]
    return {"aggregate": {"reps_completed": n, "reps_failed": 0}, "replicates": reps}


def test_replicate_checks():
    report = _report()
    checks.check_replicates(report, 5, "AH", (0, 1))
    checks.check_same_replicate(report, dict(report["replicates"][1]))
    one_wrong = copy.deepcopy(report)
    one_wrong["replicates"][0]["modal_class"] = "GH"
    checks.check_replicates(one_wrong, 5, "AH", (0, 1))
    two_wrong = copy.deepcopy(one_wrong)
    two_wrong["replicates"][1]["modal_class"] = "PH"
    with pytest.raises(checks.CheckFailed, match="modal class"):
        checks.check_replicates(two_wrong, 5, "AH", (0, 1))
    missed = copy.deepcopy(report)
    missed["replicates"][1]["top_model"] = "1010"
    with pytest.raises(checks.CheckFailed, match="strong effects"):
        checks.check_replicates(missed, 5, "AH", (0, 1))
    with pytest.raises(checks.CheckFailed, match="replicates reported"):
        checks.check_replicates(report, 6, "AH", (0, 1))
    other = dict(report["replicates"][1], top_model="1100")
    with pytest.raises(checks.CheckFailed, match="differs between"):
        checks.check_same_replicate(report, other)


def test_identical_outputs():
    checks.check_identical(b"{}", b"{}", "summary.json")
    with pytest.raises(checks.CheckFailed, match="differs"):
        checks.check_identical(b"{}", b"{ }", "summary.json")
