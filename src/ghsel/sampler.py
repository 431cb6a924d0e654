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

import bisect
import enum
import itertools
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


@dataclass(frozen=True)
class _MoveTable:
    """`move_distribution` of one state as `propose` reads it: each move's
    probability, and the running sums over `_MOVE_ORDER` that the move draw
    is compared with, accumulated in the order `select_move` always used."""
    ad: float
    ad_gh: float
    swap: float
    change: float
    change_all: float
    cum: tuple
    last: MoveKind  # the last move with positive probability


_TABLES: dict = {}  # Gamma -> its _MoveTable; models are interned, so one per model


def _moves(gamma: Gamma) -> _MoveTable:
    table = _TABLES.get(gamma)
    if table is None:
        dist = move_distribution(gamma)
        probs = [dist.get(mk, 0.0) for mk in _MOVE_ORDER]
        table = _TABLES.setdefault(gamma, _MoveTable(
            *probs[1:], cum=tuple(itertools.accumulate(probs)),
            last=next(mk for mk in reversed(_MOVE_ORDER) if mk in dist)))
    return table


def select_move(gamma: Gamma, rng: np.random.Generator) -> MoveKind:
    table = _moves(gamma)
    i = bisect.bisect_right(table.cum, rng.random())
    return _MOVE_ORDER[i] if i < len(_MOVE_ORDER) else table.last


@dataclass(frozen=True)
class Proposal:
    gamma: Gamma
    log_hastings: float  # log q_rev - log q_fwd; -inf forces rejection
    move: MoveKind


def _self_loop(gamma: Gamma, move: MoveKind) -> Proposal:
    return Proposal(gamma, -math.inf, move)


_OTHER_ROLES = {1: (2, 3), 2: (1, 3), 3: (1, 2)}  # CHANGE: the codes a role may become
_OTHER_STRUCTURES = {1: (2, 4), 2: (1, 4)}        # CHANGE_ALL from an AH or PH state


def propose(gamma: Gamma, rng: np.random.Generator) -> Proposal:
    p = gamma.p
    cls = gamma.hazard_class
    here = _moves(gamma)
    move = select_move(gamma, rng)

    if move is MoveKind.A_NULL:
        j = int(rng.integers(p))
        v = int(rng.integers(1, 5))
        gp = gamma.replace(j, v)
        q_fwd = 1.0 / (4.0 * p)
        if gp.hazard_class is HazardClass.GH:
            q_rev = _moves(gp).ad_gh / len(get_valid_idx(gp))
        else:
            q_rev = _moves(gp).ad / p
        return Proposal(gp, math.log(q_rev) - math.log(q_fwd), move)

    if move is MoveKind.AD:
        j = int(rng.integers(p))
        if gamma.codes[j] > 0:
            gp = gamma.replace(j, 0)
        else:
            # the included variables of an AH, PH or AFT state share one code
            gp = gamma.replace(j, gamma.codes[gamma.active[0]])
        q_fwd = here.ad / p
        if gp.hazard_class is HazardClass.NULL:
            q_rev = 1.0 / (4.0 * p)
        else:
            q_rev = _moves(gp).ad / p
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
            q_fwd = here.ad_gh / len(valid)
            if gp.hazard_class is HazardClass.NULL:
                q_rev = 1.0 / (4.0 * p)
            else:
                q_rev = _moves(gp).ad_gh / len(get_valid_idx(gp)) / 3.0
        else:
            gp = gamma.replace(j, int(rng.integers(1, 4)))
            q_fwd = here.ad_gh / len(valid) / 3.0
            q_rev = _moves(gp).ad_gh / len(get_valid_idx(gp))
        return Proposal(gp, math.log(q_rev) - math.log(q_fwd), move)

    if move is MoveKind.CHANGE:
        active = gamma.active
        j = int(active[int(rng.integers(len(active)))])
        choices = _OTHER_ROLES[gamma.codes[j]]
        gp = gamma.replace(j, choices[int(rng.integers(len(choices)))])
        q_fwd = here.change / len(active) / 2.0
        q_rev = _moves(gp).change / len(active) / 2.0
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
        n_other_rev = p - gp.count(new1)
        q_fwd = here.swap / p / len(others)
        if v1 + v2 == 3:
            q_fwd /= 2.0
        q_rev = _moves(gp).swap / p / n_other_rev
        if new1 + new2 == 3:
            q_rev /= 2.0
        return Proposal(gp, math.log(q_rev) - math.log(q_fwd), move)

    # whole-model role change
    if cls is HazardClass.AFT:
        v = int(rng.integers(1, 4))
        gp = Gamma(tuple(v if c == 4 else 0 for c in gamma.codes))
        q_fwd = here.change_all / 3.0
        if gp.hazard_class is HazardClass.GH:
            q_rev = _moves(gp).change_all
        else:
            q_rev = _moves(gp).change_all / 2.0
    elif cls is HazardClass.GH:
        gp = Gamma(tuple(4 if c == 3 else c for c in gamma.codes))
        q_fwd = here.change_all
        q_rev = _moves(gp).change_all / 3.0
    else:
        choices = _OTHER_STRUCTURES[gamma.codes[gamma.active[0]]]
        v = choices[int(rng.integers(len(choices)))]
        gp = Gamma(tuple(v if c != 0 else 0 for c in gamma.codes))
        q_fwd = here.change_all / 2.0
        if gp.hazard_class is HazardClass.AFT:
            q_rev = _moves(gp).change_all / 3.0
        else:
            q_rev = _moves(gp).change_all / 2.0
    return Proposal(gp, math.log(q_rev) - math.log(q_fwd), MoveKind.CHANGE_ALL)


# ---------------------------------------------------------------------------
# chain driver

class ImpossibleStartError(ValueError):
    """A chain's starting model has no finite score (its fit failed)."""


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
            raise ImpossibleStartError(f"initial model {gamma.key} has an impossible score")
        for it in range(config.iterations):
            gamma, score = mh_step(gamma, score, scorer, prior_cfg, rng, trace)
            trace.n_steps += 1
            if it >= config.burn_in and (it - config.burn_in) % config.thin == 0:
                trace.samples.append((chain_idx, it, gamma.key))
    return trace
