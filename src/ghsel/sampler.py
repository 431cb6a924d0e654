"""Metropolis-Hastings sampler over the model space.

The proposal kernel mixes six moves: an escape move from the null state, an
add/delete toggle within single-structure classes, a guarded add/delete for
two-structure states (which must not silently land in a single-structure
class), a two-index swap with a special (1,2) <-> (0,3)/(3,0) exchange, a
single-index role change, and a whole-model role change that crosses hazard
structures.  Forward and reverse proposal densities are tracked exactly so
the acceptance ratio is correct across structure boundaries.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .ghlik import Dataset
from .marglik import ModelScorer, ScorerConfig
from .baseline import Kernel
from .modelspace import (Gamma, HazardClass, ModelPriorConfig, classify,
                         get_valid_idx, log_model_prior)


class MoveKind(enum.Enum):
    A_NULL = "A_null"
    AD = "AD"
    AD_GH = "AD_GH"
    SWAP = "S"
    CHANGE = "C"
    CHANGE_ALL = "C_all"


_MOVE_ORDER = (MoveKind.A_NULL, MoveKind.AD, MoveKind.AD_GH, MoveKind.SWAP,
               MoveKind.CHANGE, MoveKind.CHANGE_ALL)


def move_distribution(gamma: Gamma) -> dict:
    """Move-selection probabilities for the current state's class/pattern row.

    The nonzero codes of a single-structure (AH, PH or AFT) state are all
    equal, so its class fixes its row.  Two-structure rows are keyed on {0,3}
    membership: within {0,3} the state is "all 3s" when no variable is
    excluded and "mixed" otherwise.
    """
    cls = classify(gamma)
    codes = gamma.codes
    if cls is HazardClass.NULL:
        return {MoveKind.A_NULL: 1.0}
    if cls in (HazardClass.AH, HazardClass.PH):
        return {MoveKind.AD: 0.50, MoveKind.CHANGE: 0.25,
                MoveKind.CHANGE_ALL: 0.25}
    if cls is HazardClass.AFT:
        return {MoveKind.AD: 0.60, MoveKind.CHANGE_ALL: 0.40}
    # two-structure class
    if all(c in (0, 3) for c in codes):
        if 0 not in codes:
            return {MoveKind.AD_GH: 0.50, MoveKind.CHANGE: 0.25,
                    MoveKind.CHANGE_ALL: 0.25}
        return {MoveKind.AD_GH: 0.50, MoveKind.SWAP: 0.15,
                MoveKind.CHANGE: 0.15, MoveKind.CHANGE_ALL: 0.20}
    return {MoveKind.AD_GH: 0.50, MoveKind.SWAP: 0.25, MoveKind.CHANGE: 0.25}


def move_prob(move: MoveKind, gamma: Gamma) -> float:
    return move_distribution(gamma).get(move, 0.0)


def select_move(gamma: Gamma, rng: np.random.Generator) -> MoveKind:
    dist = move_distribution(gamma)
    u = rng.random()
    acc = 0.0
    for mk in _MOVE_ORDER:
        acc += dist.get(mk, 0.0)
        if u < acc:
            return mk
    return next(mk for mk in reversed(_MOVE_ORDER) if mk in dist)


@dataclass(frozen=True)
class Proposal:
    gamma: Gamma
    log_hastings: float  # log q_rev - log q_fwd; -inf forces rejection
    move: MoveKind


def _self_loop(gamma: Gamma, move: MoveKind) -> Proposal:
    return Proposal(gamma, -math.inf, move)


def _class_add_code(cls: HazardClass) -> int:
    return {HazardClass.AH: 1, HazardClass.PH: 2, HazardClass.AFT: 4}[cls]


def propose(gamma: Gamma, rng: np.random.Generator) -> Proposal:
    p = gamma.p
    cls = classify(gamma)
    move = select_move(gamma, rng)

    if move is MoveKind.A_NULL:
        j = int(rng.integers(p))
        v = int(rng.integers(1, 5))
        gp = gamma.replace(j, v)
        q_fwd = 1.0 / (4.0 * p)
        if classify(gp) is HazardClass.GH:
            q_rev = move_prob(MoveKind.AD_GH, gp) / len(get_valid_idx(gp))
        else:
            q_rev = move_prob(MoveKind.AD, gp) / p
        return Proposal(gp, math.log(q_rev) - math.log(q_fwd), move)

    if move is MoveKind.AD:
        j = int(rng.integers(p))
        if gamma.codes[j] > 0:
            gp = gamma.replace(j, 0)
        else:
            gp = gamma.replace(j, _class_add_code(cls))
        q_fwd = move_prob(MoveKind.AD, gamma) / p
        if classify(gp) is HazardClass.NULL:
            q_rev = 1.0 / (4.0 * p)
        else:
            q_rev = move_prob(MoveKind.AD, gp) / p
        return Proposal(gp, math.log(q_rev) - math.log(q_fwd), move)

    if move is MoveKind.AD_GH:
        valid = get_valid_idx(gamma)
        if not valid:
            # only possible in two-variable (1,2)-type states; treated as a
            # forced rejection so the kernel stays well-defined
            return _self_loop(gamma, move)
        j = int(valid[int(rng.integers(len(valid)))])
        if gamma.codes[j] > 0:
            gp = gamma.replace(j, 0)
            q_fwd = move_prob(MoveKind.AD_GH, gamma) / len(valid)
            if classify(gp) is HazardClass.NULL:
                q_rev = 1.0 / (4.0 * p)
            else:
                q_rev = move_prob(MoveKind.AD_GH, gp) / len(get_valid_idx(gp)) / 3.0
        else:
            gp = gamma.replace(j, int(rng.integers(1, 4)))
            q_fwd = move_prob(MoveKind.AD_GH, gamma) / len(valid) / 3.0
            q_rev = move_prob(MoveKind.AD_GH, gp) / len(get_valid_idx(gp))
        return Proposal(gp, math.log(q_rev) - math.log(q_fwd), move)

    if move is MoveKind.CHANGE:
        active = gamma.active
        j = int(active[int(rng.integers(len(active)))])
        old = gamma.codes[j]
        choices = [c for c in (1, 2, 3) if c != old]
        gp = gamma.replace(j, choices[int(rng.integers(len(choices)))])
        q_fwd = move_prob(MoveKind.CHANGE, gamma) / len(active) / 2.0
        q_rev = move_prob(MoveKind.CHANGE, gp) / len(active) / 2.0
        return Proposal(gp, math.log(q_rev) - math.log(q_fwd), move)

    if move is MoveKind.SWAP:
        j1 = int(rng.integers(p))
        v1 = gamma.codes[j1]
        others = [j for j in range(p) if gamma.codes[j] != v1]
        assert others, "swap selected in a state where all codes are equal"
        j2 = int(others[int(rng.integers(len(others)))])
        v2 = gamma.codes[j2]
        if v1 + v2 != 3:
            new1, new2 = v2, v1
        elif v1 in (1, 2):
            new1, new2 = ((0, 3), (3, 0))[int(rng.integers(2))]
        else:
            new1, new2 = ((1, 2), (2, 1))[int(rng.integers(2))]
        gp = gamma.replace(j1, new1).replace(j2, new2)
        n_other_rev = sum(1 for c in gp.codes if c != new1)
        q_fwd = move_prob(MoveKind.SWAP, gamma) / p / len(others)
        if v1 + v2 == 3:
            q_fwd /= 2.0
        q_rev = move_prob(MoveKind.SWAP, gp) / p / n_other_rev
        if new1 + new2 == 3:
            q_rev /= 2.0
        return Proposal(gp, math.log(q_rev) - math.log(q_fwd), move)

    # whole-model role change
    if cls is HazardClass.AFT:
        v = int(rng.integers(1, 4))
        gp = Gamma(tuple(v if c == 4 else 0 for c in gamma.codes))
        q_fwd = move_prob(MoveKind.CHANGE_ALL, gamma) / 3.0
        if classify(gp) is HazardClass.GH:
            q_rev = move_prob(MoveKind.CHANGE_ALL, gp)
        else:
            q_rev = move_prob(MoveKind.CHANGE_ALL, gp) / 2.0
    elif cls is HazardClass.GH:
        gp = Gamma(tuple(4 if c == 3 else c for c in gamma.codes))
        q_fwd = move_prob(MoveKind.CHANGE_ALL, gamma)
        q_rev = move_prob(MoveKind.CHANGE_ALL, gp) / 3.0
    else:
        v_old = next(c for c in gamma.codes if c != 0)
        choices = [c for c in (1, 2, 4) if c != v_old]
        v = choices[int(rng.integers(len(choices)))]
        gp = Gamma(tuple(v if c != 0 else 0 for c in gamma.codes))
        q_fwd = move_prob(MoveKind.CHANGE_ALL, gamma) / 2.0
        if classify(gp) is HazardClass.AFT:
            q_rev = move_prob(MoveKind.CHANGE_ALL, gp) / 3.0
        else:
            q_rev = move_prob(MoveKind.CHANGE_ALL, gp) / 2.0
    return Proposal(gp, math.log(q_rev) - math.log(q_fwd), MoveKind.CHANGE_ALL)


# ---------------------------------------------------------------------------
# chain driver

@dataclass(frozen=True)
class ChainConfig:
    iterations: int = 20000
    burn_in: int = 10000
    thin: int = 2
    n_chains: int = 1
    seed: int = 0
    init_gamma: Gamma | None = None
    screening_init: bool = False

    def __post_init__(self):
        if not 0 <= self.burn_in < self.iterations:
            raise ValueError("burn_in must lie in [0, iterations)")
        if self.thin < 1 or self.n_chains < 1:
            raise ValueError("thin and n_chains must be >= 1")


@dataclass
class ChainTrace:
    samples: list = field(default_factory=list)   # (chain, iteration, gamma key)
    visited: dict = field(default_factory=dict)   # key -> (log_ml, log_prior)
    accept_count: dict = field(default_factory=dict)
    propose_count: dict = field(default_factory=dict)
    n_steps: int = 0

    @property
    def keys(self):
        return [k for _, _, k in self.samples]

    def acceptance_rate(self, move: MoveKind | None = None) -> float:
        if move is None:
            acc = sum(self.accept_count.values())
            tot = sum(self.propose_count.values())
        else:
            acc = self.accept_count.get(move, 0)
            tot = self.propose_count.get(move, 0)
        return acc / tot if tot else 0.0


def screening_init_gamma(data: Dataset, kernel: Kernel,
                         scorer: ModelScorer) -> Gamma:
    """Start from the proportional-hazards model on the top-k variables by
    single-variable marginal-likelihood gain over the null model, k=min(5,p)."""
    p = data.p
    null = Gamma((0,) * p)
    base = scorer.score(null).log_ml
    gains = []
    for j in range(p):
        g = null.replace(j, 2)
        gains.append((scorer.score(g).log_ml - base, j))
    gains.sort(reverse=True)
    k = min(5, p)
    chosen = [j for gain, j in gains[:k] if np.isfinite(gain) and gain > 0]
    if not chosen:
        return null
    codes = [0] * p
    for j in chosen:
        codes[j] = 2
    return Gamma(tuple(codes))


def mh_step(gamma: Gamma, score: float, scorer, prior_cfg: ModelPriorConfig,
            rng: np.random.Generator, trace: ChainTrace):
    """One accept/reject update.  `score` is log_ml + log_prior of the
    current state; returns the (possibly unchanged) state and its score."""
    prop = propose(gamma, rng)
    trace.propose_count[prop.move] = trace.propose_count.get(prop.move, 0) + 1
    if prop.log_hastings == -math.inf:
        return gamma, score
    key = prop.gamma.key
    if key in trace.visited:
        log_ml, log_prior = trace.visited[key]
    else:
        log_ml = scorer.score(prop.gamma).log_ml
        log_prior = log_model_prior(prop.gamma, prior_cfg)
        trace.visited[key] = (log_ml, log_prior)
    new_score = log_ml + log_prior
    if new_score == -math.inf:
        return gamma, score
    log_acc = new_score - score + prop.log_hastings
    if log_acc >= 0.0 or math.log(rng.random()) < log_acc:
        trace.accept_count[prop.move] = trace.accept_count.get(prop.move, 0) + 1
        return prop.gamma, new_score
    return gamma, score


def run_chain(data: Dataset, kernel: Kernel,
              config: ChainConfig = ChainConfig(),
              scorer_cfg: ScorerConfig = ScorerConfig(),
              prior_cfg: ModelPriorConfig = ModelPriorConfig(),
              scorer=None) -> ChainTrace:
    """Run one or more independent chains and merge their retained samples.

    `scorer` may be any object with a score(gamma) -> record method; tests use
    a constant scorer to target the model prior alone.
    """
    if scorer is None:
        scorer = ModelScorer(data, kernel, scorer_cfg)
    trace = ChainTrace()
    root = np.random.default_rng(config.seed)
    streams = root.spawn(config.n_chains)
    for chain_idx, rng in enumerate(streams):
        if config.init_gamma is not None:
            gamma = config.init_gamma
        elif config.screening_init:
            gamma = screening_init_gamma(data, kernel, scorer)
        else:
            gamma = Gamma((0,) * data.p)
        log_ml = scorer.score(gamma).log_ml
        log_prior = log_model_prior(gamma, prior_cfg)
        trace.visited[gamma.key] = (log_ml, log_prior)
        score = log_ml + log_prior
        if score == -math.inf:
            raise ValueError(f"initial model {gamma.key} has an impossible score")
        for it in range(config.iterations):
            gamma, score = mh_step(gamma, score, scorer, prior_cfg, rng, trace)
            trace.n_steps += 1
            if it >= config.burn_in and (it - config.burn_in) % config.thin == 0:
                trace.samples.append((chain_idx, it, gamma.key))
    return trace
