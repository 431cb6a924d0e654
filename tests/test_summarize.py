import math

import numpy as np
import pytest

from ghsel.modelspace import Gamma, HazardClass
from ghsel.sampler import ChainTrace
from ghsel.summarize import (hazard_posterior, hpm_credible_set, pip,
                             probs_frequency, probs_renormalized,
                             score_selection, top_model)


def make_trace():
    t = ChainTrace()
    t.samples = [(0, i, k) for i, k in enumerate(
        ["20"] * 6 + ["22"] * 3 + ["00"] * 1)]
    t.visited = {"20": (-10.0, -1.0), "22": (-11.0, -1.5),
                 "00": (-15.0, -0.5), "12": (-20.0, -3.0)}
    return t


def test_probs_frequency():
    probs = probs_frequency(make_trace())
    assert probs == {"00": 0.1, "20": 0.6, "22": 0.3}
    with pytest.raises(ValueError):
        probs_frequency(ChainTrace())


def test_probs_renormalized():
    probs = probs_renormalized(make_trace())
    # includes the visited-but-unretained model "12"
    assert set(probs) == {"00", "20", "22", "12"}
    assert sum(probs.values()) == pytest.approx(1.0, abs=1e-12)
    scores = {"20": -11.0, "22": -12.5, "00": -15.5, "12": -23.0}
    m = max(scores.values())
    z = sum(math.exp(v - m) for v in scores.values())
    for k, s in scores.items():
        assert probs[k] == pytest.approx(math.exp(s - m) / z, rel=1e-12)


def test_renormalized_ignores_impossible_scores():
    t = make_trace()
    t.visited["12"] = (-math.inf, -3.0)
    probs = probs_renormalized(t)
    assert probs["12"] == 0.0
    assert sum(probs.values()) == pytest.approx(1.0)


def test_hazard_posterior():
    hz = hazard_posterior({"20": 0.5, "22": 0.2, "12": 0.2, "00": 0.1})
    assert hz[HazardClass.PH] == pytest.approx(0.7)
    assert hz[HazardClass.GH] == pytest.approx(0.2)
    assert hz[HazardClass.NULL] == pytest.approx(0.1)
    assert hz[HazardClass.AFT] == 0.0


def test_pip():
    pip_any, pip_role = pip({"20": 0.5, "32": 0.3, "00": 0.2})
    assert pip_any[0] == pytest.approx(0.8)
    assert pip_any[1] == pytest.approx(0.3)
    assert pip_role[0, 1] == pytest.approx(0.5)   # code 2 on variable 1
    assert pip_role[0, 2] == pytest.approx(0.3)   # code 3 on variable 1
    assert pip_role[1, 1] == pytest.approx(0.3)


def test_hpm_credible_set():
    probs = {"20": 0.5, "22": 0.3, "00": 0.15, "12": 0.05}
    hpm = hpm_credible_set(probs, 0.8)
    assert [k for k, _ in hpm] == ["20", "22"]
    hpm_all = hpm_credible_set(probs, 0.99)
    assert [k for k, _ in hpm_all] == ["20", "22", "00", "12"]
    with pytest.raises(ValueError):
        hpm_credible_set(probs, 1.0)


def test_hpm_exact_boundary():
    probs = {"20": 0.5, "22": 0.5}
    assert len(hpm_credible_set(probs, 0.5)) == 1


def test_score_selection():
    truth = Gamma.from_key("2200")
    assert score_selection(Gamma.from_key("2200"), truth) == (1.0, 1.0)
    assert score_selection(Gamma.from_key("2000"), truth) == (0.5, 1.0)
    assert score_selection(Gamma.from_key("2220"), truth) == (1.0, 0.5)
    assert score_selection(Gamma.from_key("2020"), truth) == (0.5, 0.5)
    # role mismatches still count as inclusion hits
    assert score_selection(Gamma.from_key("1300"), truth) == (1.0, 1.0)
    assert score_selection(Gamma.from_key("0000"), Gamma.from_key("0000")) == (1.0, 1.0)
    with pytest.raises(ValueError):
        score_selection(Gamma.from_key("20"), truth)


def test_top_model():
    assert top_model({"20": 0.5, "22": 0.3, "00": 0.2}) == "20"
