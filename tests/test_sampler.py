import copy
import math

import numpy as np
import pytest

import oracles
import proposal_audit
from ghsel.baseline import Kernel
from ghsel.ghlik import Dataset
from ghsel.marglik import ModelScorer, ScorerConfig
from ghsel.modelspace import (Gamma, HazardClass, classify, enumerate_models,
                              log_model_prior)
from ghsel.sampler import (ChainConfig, ChainTrace, MoveKind, _BlockReader,
                           move_distribution, propose, run_chain, screening_init_gamma)


class ConstantScorer:
    """Forces a constant likelihood so the chain targets the model prior."""

    class Rec:
        log_ml = 0.0

    def __init__(self, data):
        self.data = data

    def score(self, gamma):
        return self.Rec()


def tiny_data():
    rng = np.random.default_rng(0)
    return Dataset(t=rng.gamma(2, 1, 20), delta=np.ones(20),
                   X=rng.standard_normal((20, 2)), names=())


def test_move_distributions_sum_to_one():
    for p in (1, 2, 3):
        for g in enumerate_models(p):
            dist = move_distribution(g)
            assert sum(dist.values()) == pytest.approx(1.0, abs=1e-15)
            for prob in dist.values():
                assert prob > 0.0


def test_move_table_rows():
    assert move_distribution(Gamma((0, 0))) == {MoveKind.A_NULL: 1.0}
    assert move_distribution(Gamma((2, 2, 0))) == {
        MoveKind.AD: 0.50, MoveKind.CHANGE: 0.25, MoveKind.CHANGE_ALL: 0.25}
    assert move_distribution(Gamma((4, 0, 4))) == {
        MoveKind.AD: 0.60, MoveKind.CHANGE_ALL: 0.40}
    assert move_distribution(Gamma((3, 3))) == {
        MoveKind.AD_GH: 0.50, MoveKind.CHANGE: 0.25, MoveKind.CHANGE_ALL: 0.25}
    assert move_distribution(Gamma((3, 0, 3))) == {
        MoveKind.AD_GH: 0.50, MoveKind.SWAP: 0.15, MoveKind.CHANGE: 0.15,
        MoveKind.CHANGE_ALL: 0.20}
    assert move_distribution(Gamma((1, 2, 0))) == {
        MoveKind.AD_GH: 0.50, MoveKind.SWAP: 0.25, MoveKind.CHANGE: 0.25}


@pytest.mark.parametrize("p", [1, 2, 3])
def test_exhaustive_proposal_audit(p):
    """Every proposal path's target and Hastings ratio match the independent
    enumeration, and the proposal graph is strongly connected."""
    adjacency = {}
    for g in enumerate_models(p):
        adjacency[g.key] = proposal_audit.audit_state(g)
    assert proposal_audit.strongly_connected(adjacency)


def test_forced_self_loop_state():
    """The two-variable one-of-each states have no valid guarded add/delete
    index; the move must come back as a forced rejection."""
    g = Gamma((1, 2))
    prop = proposal_audit.drive_propose(g, MoveKind.AD_GH, [])
    assert prop.gamma == g
    assert prop.log_hastings == -math.inf


def test_random_proposals_stay_valid():
    rng = np.random.default_rng(1)
    for g0 in [Gamma((0, 0, 0)), Gamma((3, 1, 0)), Gamma((4, 4, 0))]:
        g = g0
        for _ in range(2000):
            prop = propose(g, rng)
            assert prop.gamma.p == 3
            if prop.log_hastings > -math.inf:
                g = prop.gamma
    # chain wandered somewhere
    assert g.key != "000" or True


def test_prior_only_chain_matches_exact_prior():
    """With the likelihood forced constant the chain must target the
    normalised model prior (small version of the exactness check)."""
    data = tiny_data()
    cfg = ChainConfig(iterations=120_000, burn_in=5_000, thin=1, seed=2)
    trace = run_chain(ConstantScorer(data), cfg)
    counts = {}
    for k in trace.keys:
        counts[k] = counts.get(k, 0) + 1
    total = sum(counts.values())
    logw = {g.key: log_model_prior(g) for g in enumerate_models(2)}
    norm = math.log(sum(math.exp(v) for v in logw.values()))
    exact = {k: math.exp(v - norm) for k, v in logw.items()}
    tv = 0.5 * sum(abs(counts.get(k, 0) / total - q) for k, q in exact.items())
    assert tv <= 0.04


def test_chain_retention_and_determinism():
    data = tiny_data()
    cfg = ChainConfig(iterations=2000, burn_in=1000, thin=2, seed=5)
    t1 = run_chain(ConstantScorer(data), cfg)
    t2 = run_chain(ConstantScorer(data), cfg)
    assert len(t1.samples) == 500
    assert t1.samples == t2.samples
    t3 = run_chain(ConstantScorer(data),
                   ChainConfig(iterations=2000, burn_in=1000, thin=2, seed=6))
    assert t1.samples != t3.samples


def test_multichain_merges_samples():
    data = tiny_data()
    cfg = ChainConfig(iterations=400, burn_in=200, thin=2, n_chains=3, seed=0)
    t = run_chain(ConstantScorer(data), cfg)
    assert len(t.samples) == 3 * 100
    assert {c for c, _, _ in t.samples} == {0, 1, 2}


def test_chain_config_validation():
    with pytest.raises(ValueError):
        ChainConfig(iterations=10, burn_in=10)
    with pytest.raises(ValueError):
        ChainConfig(thin=0)


def test_acceptance_bookkeeping():
    data = tiny_data()
    cfg = ChainConfig(iterations=500, burn_in=100, thin=1, seed=1)
    t = run_chain(ConstantScorer(data), cfg)
    assert sum(t.propose_count.values()) == 500
    assert 0.0 < t.acceptance_rate() <= 1.0
    for mk, cnt in t.accept_count.items():
        assert cnt <= t.propose_count[mk]


def test_screening_init():
    data = tiny_data()
    scorer = ModelScorer(data, Kernel.NORMAL, ScorerConfig())
    cfg = ChainConfig(iterations=50, burn_in=10, thin=1, seed=0, screening_init=True)
    t = run_chain(scorer, cfg)
    assert screening_init_gamma(data, scorer).key in t.visited
    assert len(t.samples) == 40


class KeyScorer:
    """A fixed pseudo-random log marginal likelihood per model key, with
    every seventh model impossible (the null model never is)."""

    class Rec:
        def __init__(self, log_ml):
            self.log_ml = log_ml

    def __init__(self, data):
        self.data = data

    def score(self, gamma):
        code = int(gamma.key, 5)
        if code % 7 == 3:
            return self.Rec(-math.inf)
        return self.Rec(4.0 * math.sin(12.9898 * code) - 0.5 * gamma.n_active)


@pytest.mark.parametrize("p", [2, 3, 4])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("make_scorer", [ConstantScorer, KeyScorer], ids=["constant", "by-key"])
def test_chain_matches_reference_chain(p, seed, make_scorer):
    """The table-driven step retains, visits and counts exactly what the step
    that builds a proposal and its Hastings ratio each time does."""
    rng = np.random.default_rng(seed)
    data = Dataset(t=rng.gamma(2, 1, 10), delta=np.ones(10),
                   X=rng.standard_normal((10, p)), names=())
    cfg = ChainConfig(iterations=5000, burn_in=1000, thin=1, n_chains=2, seed=seed)
    scorer = make_scorer(data)
    got = run_chain(scorer, cfg)
    ref = oracles.run_chain_reference(p, cfg, scorer)
    assert got.samples == ref.samples
    assert got.visited == ref.visited
    assert got.propose_count == ref.propose_count
    assert got.accept_count == ref.accept_count


def _twins(rng):
    """Two generators in the same state as `rng`."""
    return copy.deepcopy(rng), copy.deepcopy(rng)


BOUNDS = (1, 2, 3, 4, 5, 7, 12, 2**31 + 1, 2**32 - 1, 2**32)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_block_reader_matches_the_generator(seed):
    """The chain's block reader returns what the generator's scalar calls
    return, draw for draw, over mixed random(), integers(k) and
    integers(lo, hi) calls on every spawned child (120 000 calls in all)."""
    ops = np.random.default_rng(100 + seed)
    for child in np.random.default_rng(seed).spawn(2):
        reference, wrapped = _twins(child)
        reader = _BlockReader(wrapped)
        kinds = ops.integers(3, size=20_000)
        ks = ops.choice(BOUNDS, size=kinds.size)
        los = ops.integers(-5, 5, size=kinds.size)
        widths = ops.integers(1, 9, size=kinds.size)
        for kind, k, lo, width in zip(kinds.tolist(), ks.tolist(), los.tolist(),
                                      widths.tolist()):
            if kind == 0:
                assert reader.random() == reference.random()
            elif kind == 1:
                assert reader.integers(k) == reference.integers(k)
            else:
                assert reader.integers(lo, lo + width) == reference.integers(lo, lo + width)


def test_block_reader_bound_of_one_takes_no_draw():
    reference, wrapped = _twins(np.random.default_rng(3))
    reader = _BlockReader(wrapped)
    assert reader.integers(1) == 0 and reader.integers(4, 5) == 4
    assert reader.integers(1) == reference.integers(1) == 0
    assert [reader.integers(5) for _ in range(9)] == [reference.integers(5) for _ in range(9)]
    assert reader.random() == reference.random()


def test_block_reader_bounds():
    """Ranges up to 2**32 values take NumPy's 32-bit path and are exact;
    wider ranges, which would take its 64-bit path, raise."""
    reference, wrapped = _twins(np.random.default_rng(4))
    reader = _BlockReader(wrapped)
    for k in (2**32 - 1, 2**32, 2**31 + 1, 2**31, 3):
        assert [reader.integers(k) for _ in range(50)] == \
            [reference.integers(k) for _ in range(50)]
    assert reader.integers(-2**31, 2**31) == reference.integers(-2**31, 2**31)
    for args in ((2**32 + 1,), (0, 2**33), (-2**32, 1)):
        with pytest.raises(ValueError):
            reader.integers(*args)
    with pytest.raises(ValueError):
        reader.integers(0)


def test_block_reader_starts_from_a_buffered_half_word():
    """A generator whose last 32-bit draw left the high half of its word
    buffered hands that half to the reader's first 32-bit draw."""
    rng = np.random.default_rng(5)
    rng.integers(10)
    assert rng.bit_generator.state["has_uint32"] == 1
    reference, wrapped = _twins(rng)
    reader = _BlockReader(wrapped)
    assert [reader.integers(10) for _ in range(5)] == [reference.integers(10) for _ in range(5)]
    assert reader.random() == reference.random()
