import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ghsel
import oracles
from ghsel.modelspace import (Gamma, HazardClass, InvalidGammaError, classify,
                              enumerate_models, get_valid_idx, log_model_prior)


def test_gamma_validation():
    assert Gamma((0, 1, 2)).key == "012"
    assert Gamma.from_key("404").codes == (4, 0, 4)
    with pytest.raises(InvalidGammaError):
        Gamma((4, 1))
    with pytest.raises(InvalidGammaError):
        Gamma((4, 2, 0))
    with pytest.raises(InvalidGammaError):
        Gamma((5,))
    with pytest.raises(InvalidGammaError):
        Gamma(())


def test_classify():
    assert classify(Gamma((0, 0))) is HazardClass.NULL
    assert classify(Gamma((1, 0, 1))) is HazardClass.AH
    assert classify(Gamma((2, 2, 0))) is HazardClass.PH
    assert classify(Gamma((4, 0, 4))) is HazardClass.AFT
    assert classify(Gamma((3, 0, 0))) is HazardClass.GH
    assert classify(Gamma((1, 2, 0))) is HazardClass.GH


@pytest.mark.parametrize("p,count", [(1, 5), (2, 19), (3, 71)])
def test_enumeration_counts(p, count):
    models = list(enumerate_models(p))
    assert len(models) == count
    assert len({g.key for g in models}) == count
    assert count == 4 ** p + 2 ** p - 1


def test_enumeration_cap():
    with pytest.raises(ValueError):
        list(enumerate_models(9))
    with pytest.raises(ValueError):
        list(enumerate_models(0))


def test_prior_equal_class_mass_per_size():
    """With default hyperparameters the four hazard classes carry equal total
    mass at each active-set size, and GH effect counts carry equal mass at
    each size."""
    p = 3
    models = list(enumerate_models(p))
    logw = {g.key: log_model_prior(g) for g in models}
    norm = math.log(sum(math.exp(v) for v in logw.values()))
    probs = {k: math.exp(v - norm) for k, v in logw.items()}
    for size in (1, 2, 3):
        mass = {cls: 0.0 for cls in HazardClass}
        for g in models:
            if g.n_active == size:
                mass[classify(g)] += probs[g.key]
        vals = [mass[c] for c in (HazardClass.AH, HazardClass.PH,
                                  HazardClass.AFT, HazardClass.GH)]
        for v in vals[1:]:
            assert v == pytest.approx(vals[0], abs=1e-13)
        # GH omega decomposition, only meaningful for size > 1
        if size > 1:
            omega_mass = {}
            for g in models:
                if g.n_active == size and classify(g) is HazardClass.GH:
                    effects = g.n_active + g.count(3)
                    omega_mass[effects] = omega_mass.get(effects, 0.0) + probs[g.key]
            vals = list(omega_mass.values())
            assert len(vals) == size + 1
            for v in vals[1:]:
                assert v == pytest.approx(vals[0], abs=1e-13)


def test_get_valid_idx():
    # lone 3 whose remainder is AH/PH: the 3 is not deletable
    assert get_valid_idx(Gamma((3, 1, 0))) == (1, 2)
    assert get_valid_idx(Gamma((2, 3, 0))) == (0, 2)
    # lone 3 over zeros: everything deletable (reverse goes via the null move)
    assert get_valid_idx(Gamma((3, 0, 0))) == (0, 1, 2)
    # no 3s: the lone distinguishing code is protected
    assert get_valid_idx(Gamma((1, 1, 2))) == (0, 1)
    assert get_valid_idx(Gamma((2, 2, 1))) == (0, 1)
    # one of each with a spare zero: only additions allowed
    assert get_valid_idx(Gamma((1, 2, 0))) == (2,)
    # one of each, no zeros: nothing valid
    assert get_valid_idx(Gamma((1, 2))) == ()
    # several 3s: everything valid
    assert get_valid_idx(Gamma((3, 3, 1))) == (0, 1, 2)
    with pytest.raises(InvalidGammaError):
        get_valid_idx(Gamma((2, 2, 0)))


def test_valid_idx_and_prior_match_their_references():
    """On every code vector with p <= 6, the add/delete rule gives the case
    analysis's indices and the closed-form prior the general weighting's
    value."""
    n_models = 0
    for codes in itertools.chain.from_iterable(
            itertools.product(range(5), repeat=p) for p in range(1, 7)):
        if 4 in codes and set(codes) & {1, 2, 3}:
            continue
        g = Gamma(codes)
        n_models += 1
        expected = oracles.valid_idx_reference(codes)
        if expected is None:
            assert g.hazard_class is not HazardClass.GH
        else:
            assert get_valid_idx(g) == expected
        assert abs(log_model_prior(g) - oracles.log_model_prior_reference(g)) <= 1e-14
    assert n_models == sum(4 ** p + 2 ** p - 1 for p in range(1, 7))


def test_replace_and_active():
    g = Gamma((0, 2, 0))
    assert g.replace(0, 3).key == "320"
    assert g.active == (1,)
    assert g.n_active == 1
    assert g.count(2) == 1
    assert g.replace(0, 3) is Gamma((3, 2, 0))
    # a model built before is interned, but a new code vector reached from it
    # is still validated
    aft = Gamma((4, 0, 0))
    assert Gamma((4, 0, 0)) is aft
    for _ in range(2):
        with pytest.raises(InvalidGammaError):
            Gamma((4, 0, 0)).replace(1, 2)
    with pytest.raises(IndexError):
        Gamma((0, 2, 0)).replace(3, 1)


_STATE_TABLES = """
import json, sys
from ghsel.modelspace import Gamma, HazardClass, get_valid_idx
from ghsel.sampler import _MOVE_ORDER, _paths
out = {}
for key in json.loads(sys.argv[1]):
    g = Gamma.from_key(key)
    cum, last, _ = _paths(g)
    out[key] = [g.hazard_class.value, list(cum), _MOVE_ORDER[last].value,
                list(get_valid_idx(g)) if g.hazard_class is HazardClass.GH else None]
print(json.dumps(out, sort_keys=True))
"""


def test_state_tables_do_not_depend_on_visit_order():
    """Each model's memoised class and move table, and its valid indices,
    built in a fresh process in enumeration order and in reverse order, are
    equal."""
    keys = [g.key for g in enumerate_models(3)]
    env = {**os.environ, "PYTHONPATH": str(Path(ghsel.__file__).parents[1])}
    runs = [json.loads(subprocess.run(
        [sys.executable, "-c", _STATE_TABLES, json.dumps(order)], env=env, check=True,
        capture_output=True, text=True).stdout) for order in (keys, keys[::-1])]
    assert len(runs[0]) == 71
    assert runs[0] == runs[1]
