"""Metropolis-Hastings sampler over the model space.

The proposal kernel mixes six moves: an escape move from the null state, an
add/delete toggle within single-structure classes, a guarded add/delete for
two-structure states (which must not silently land in a single-structure
class), a two-index swap with a special (1,2) <-> (0,3)/(3,0) exchange, a
single-index role change, and a whole-model role change that crosses hazard
structures.  Forward and reverse proposal densities are tracked exactly so
the acceptance ratio is correct across structure boundaries.

A proposal is a pure function of the current model, the move and the integer
draws, so each model keeps a table of its proposal paths: the running sums of
its move probabilities, and one tree per move whose nodes hold the arguments
of the next draw and whose leaves hold the finished proposal with its log
Hastings ratio.  The move rules fill a path the first time a step draws it;
every later step makes the same draws and looks the proposal up.

A chain draws from NumPy's PCG64 stream of its spawned generator, read in
blocks of raw 64-bit words by `_BlockReader`, which returns exactly what the
generator's scalar `random()` and `integers()` calls would; so `--seed`
gives the same chains as drawing from the generator itself.
"""

from __future__ import annotations

import bisect
import enum
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .ghlik import Dataset
from .marglik import ModelScorer
from .modelspace import Gamma, HazardClass, classify, get_valid_idx, log_model_prior


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
class Proposal:
    gamma: Gamma
    log_hastings: float  # log q_rev - log q_fwd; -inf forces rejection
    move: MoveKind


_PATHS: dict = {}  # Gamma -> its proposal table; models are interned, so one per model


def _paths(gamma: Gamma) -> tuple:
    """One model's proposal table, built on its first proposal: the running
    sums over `_MOVE_ORDER` that the move draw is compared with, accumulated
    in that order; the index of the last move with positive probability; and
    a dict from a move's index to its path tree.  A node of a tree is a pair: the arguments of the
    step's next `rng.integers` call, and a dict from each value it has
    returned to the subtree below; a leaf is the proposal."""
    dist = move_distribution(gamma)
    return _PATHS.setdefault(gamma, (
        tuple(itertools.accumulate(dist.get(mk, 0.0) for mk in _MOVE_ORDER)),
        max(i for i, mk in enumerate(_MOVE_ORDER) if mk in dist), {}))


def propose(gamma: Gamma, rng: np.random.Generator) -> Proposal:
    """Draw a move and its integer draws, and return the proposal they name.

    The draws are those of the move rules, in their order and with their
    bounds: the path tree supplies the arguments of each draw, and its leaf
    the proposal.  A path not drawn before is filled by the move rules."""
    cum, last, trees = _PATHS.get(gamma) or _paths(gamma)
    i = bisect.bisect_right(cum, rng.random())
    if i == len(_MOVE_ORDER):
        i = last
    node = trees.get(i)
    drawn = []
    while node.__class__ is tuple:
        args, branches = node
        x = int(rng.integers(*args))
        drawn.append(x)
        node = branches.get(x)
    return node if node is not None else _fill(gamma, i, trees, drawn, rng)


class _Recorder:
    """The generator the move rules draw from while a path is filled: it
    returns the draws the step has already made, then draws from the step's
    own generator, and records the arguments and value of every draw."""

    def __init__(self, rng, drawn):
        self._rng, self._drawn, self.calls = rng, drawn, []

    def integers(self, *args):
        k = len(self.calls)
        x = self._drawn[k] if k < len(self._drawn) else int(self._rng.integers(*args))
        self.calls.append((args, x))
        return x


def _fill(gamma: Gamma, i: int, trees: dict, drawn: list, rng) -> Proposal:
    """Run the move rules along the path that begins with `drawn`, finish its
    draws from `rng`, and store the path in the model's trees."""
    rec = _Recorder(rng, drawn)
    prop = _move_rules(gamma, _MOVE_ORDER[i], rec)
    branches, key = trees, i
    for args, x in rec.calls:
        node = branches.get(key)
        if node is None:
            node = branches[key] = (args, {})
        branches, key = node[1], x
    branches[key] = prop
    return prop


def _prob(gamma: Gamma, move: MoveKind) -> float:
    return move_distribution(gamma).get(move, 0.0)


def _self_loop(gamma: Gamma, move: MoveKind) -> Proposal:
    return Proposal(gamma, -math.inf, move)


_OTHER_ROLES = {1: (2, 3), 2: (1, 3), 3: (1, 2)}  # CHANGE: the codes a role may become
_OTHER_STRUCTURES = {1: (2, 4), 2: (1, 4)}        # CHANGE_ALL from an AH or PH state


def _move_rules(gamma: Gamma, move: MoveKind, rng) -> Proposal:
    """The proposal of `move` from `gamma`, with the integer draws taken from
    `rng` in the order the rules need them."""
    p = gamma.p
    cls = gamma.hazard_class

    if move is MoveKind.A_NULL:
        j = int(rng.integers(p))
        v = int(rng.integers(1, 5))
        gp = gamma.replace(j, v)
        q_fwd = 1.0 / (4.0 * p)
        if gp.hazard_class is HazardClass.GH:
            q_rev = _prob(gp, MoveKind.AD_GH) / len(get_valid_idx(gp))
        else:
            q_rev = _prob(gp, MoveKind.AD) / p
        return Proposal(gp, math.log(q_rev) - math.log(q_fwd), move)

    if move is MoveKind.AD:
        j = int(rng.integers(p))
        if gamma.codes[j] > 0:
            gp = gamma.replace(j, 0)
        else:
            # the included variables of an AH, PH or AFT state share one code
            gp = gamma.replace(j, gamma.codes[gamma.active[0]])
        q_fwd = _prob(gamma, MoveKind.AD) / p
        if gp.hazard_class is HazardClass.NULL:
            q_rev = 1.0 / (4.0 * p)
        else:
            q_rev = _prob(gp, MoveKind.AD) / p
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
            q_fwd = _prob(gamma, MoveKind.AD_GH) / len(valid)
            if gp.hazard_class is HazardClass.NULL:
                q_rev = 1.0 / (4.0 * p)
            else:
                q_rev = _prob(gp, MoveKind.AD_GH) / len(get_valid_idx(gp)) / 3.0
        else:
            gp = gamma.replace(j, int(rng.integers(1, 4)))
            q_fwd = _prob(gamma, MoveKind.AD_GH) / len(valid) / 3.0
            q_rev = _prob(gp, MoveKind.AD_GH) / len(get_valid_idx(gp))
        return Proposal(gp, math.log(q_rev) - math.log(q_fwd), move)

    if move is MoveKind.CHANGE:
        active = gamma.active
        j = int(active[int(rng.integers(len(active)))])
        choices = _OTHER_ROLES[gamma.codes[j]]
        gp = gamma.replace(j, choices[int(rng.integers(len(choices)))])
        q_fwd = _prob(gamma, MoveKind.CHANGE) / len(active) / 2.0
        q_rev = _prob(gp, MoveKind.CHANGE) / len(active) / 2.0
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
        q_fwd = _prob(gamma, MoveKind.SWAP) / p / len(others)
        if v1 + v2 == 3:
            q_fwd /= 2.0
        q_rev = _prob(gp, MoveKind.SWAP) / p / n_other_rev
        if new1 + new2 == 3:
            q_rev /= 2.0
        return Proposal(gp, math.log(q_rev) - math.log(q_fwd), move)

    # whole-model role change
    if cls is HazardClass.AFT:
        v = int(rng.integers(1, 4))
        gp = Gamma(tuple(v if c == 4 else 0 for c in gamma.codes))
        q_fwd = _prob(gamma, MoveKind.CHANGE_ALL) / 3.0
        if gp.hazard_class is HazardClass.GH:
            q_rev = _prob(gp, MoveKind.CHANGE_ALL)
        else:
            q_rev = _prob(gp, MoveKind.CHANGE_ALL) / 2.0
    elif cls is HazardClass.GH:
        gp = Gamma(tuple(4 if c == 3 else c for c in gamma.codes))
        q_fwd = _prob(gamma, MoveKind.CHANGE_ALL)
        q_rev = _prob(gp, MoveKind.CHANGE_ALL) / 3.0
    else:
        choices = _OTHER_STRUCTURES[gamma.codes[gamma.active[0]]]
        v = choices[int(rng.integers(len(choices)))]
        gp = Gamma(tuple(v if c != 0 else 0 for c in gamma.codes))
        q_fwd = _prob(gamma, MoveKind.CHANGE_ALL) / 2.0
        if gp.hazard_class is HazardClass.AFT:
            q_rev = _prob(gp, MoveKind.CHANGE_ALL) / 3.0
        else:
            q_rev = _prob(gp, MoveKind.CHANGE_ALL) / 2.0
    return Proposal(gp, math.log(q_rev) - math.log(q_fwd), MoveKind.CHANGE_ALL)


# ---------------------------------------------------------------------------
# chain driver

_BLOCK = 1024  # raw words read from the bit generator at a time


class _BlockReader:
    """A PCG64 generator's scalar `random()` and `integers()` draws, read
    from its stream in blocks of raw 64-bit words.

    `random()` is NumPy's (w >> 11) * 2**-53.  `integers(k)` and
    `integers(lo, hi)` are NumPy's bounded draws on its 32-bit path: Lemire's
    multiply-and-reject on 32-bit draws, each word giving its low half first
    and keeping its high half for the next 32-bit draw, and no draw at all
    for a range of one value.  A range wider than 2**32 would take NumPy's
    64-bit path, which the chain never needs; it raises ValueError."""

    def __init__(self, rng: np.random.Generator):
        self._bits = rng.bit_generator
        state = self._bits.state
        self._half = state["uinteger"] if state["has_uint32"] else None
        self._words, self._i = None, _BLOCK

    def _refill(self) -> int:
        self._words, self._i = self._bits.random_raw(_BLOCK).tolist(), 1
        return self._words[0]

    def random(self) -> float:
        i = self._i
        if i < _BLOCK:
            self._i = i + 1
            return (self._words[i] >> 11) * 2.0 ** -53
        return (self._refill() >> 11) * 2.0 ** -53

    def _uint32(self) -> int:
        x = self._half
        if x is not None:
            self._half = None
            return x
        i = self._i
        if i < _BLOCK:
            self._i = i + 1
            w = self._words[i]
        else:
            w = self._refill()
        self._half = w >> 32
        return w & 0xFFFFFFFF

    def integers(self, lo: int, hi: int | None = None) -> int:
        if hi is None:
            lo, hi = 0, lo
        excl = hi - lo
        if excl <= 1:
            if excl < 1:
                raise ValueError("high <= low")
            return lo
        if excl >= 1 << 32:
            if excl > 1 << 32:
                raise ValueError("range wider than 2**32: NumPy's 64-bit path")
            return lo + self._uint32()
        m = self._uint32() * excl
        if m & 0xFFFFFFFF < excl:
            threshold = (1 << 32) % excl  # (2**32 - excl) % excl
            while m & 0xFFFFFFFF < threshold:
                m = self._uint32() * excl
        return lo + (m >> 32)


class ImpossibleStartError(ValueError):
    """A chain's starting model has no finite score (its fit failed)."""


@dataclass(frozen=True)
class ChainConfig:
    iterations: int = 20000
    burn_in: int = 10000
    thin: int = 2
    n_chains: int = 1
    seed: int = 0
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
    proposed: list = field(default_factory=lambda: [0] * len(_MOVE_ORDER))  # by move index
    accepted: list = field(default_factory=lambda: [0] * len(_MOVE_ORDER))
    n_steps: int = 0

    @property
    def keys(self):
        return [k for _, _, k in self.samples]

    @property
    def propose_count(self) -> dict:
        return {mk: n for mk, n in zip(_MOVE_ORDER, self.proposed) if n}

    def acceptance_rate(self, move: MoveKind | None = None) -> float:
        if move is None:
            acc = sum(self.accepted)
            tot = sum(self.proposed)
        else:
            i = _MOVE_ORDER.index(move)
            acc, tot = self.accepted[i], self.proposed[i]
        return acc / tot if tot else 0.0


def screening_init_gamma(data: Dataset, scorer: ModelScorer) -> Gamma:
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


def mh_step(gamma: Gamma, score: float, scorer, rng: np.random.Generator,
            trace: ChainTrace):
    """One accept/reject update.  `score` is log_ml + log_prior of the
    current state; returns the (possibly unchanged) state and its score."""
    prop = propose(gamma, rng)
    i = _MOVE_ORDER.index(prop.move)
    trace.proposed[i] += 1
    if prop.log_hastings == -math.inf:
        return gamma, score
    scores = trace.visited.get(prop.gamma.key)
    if scores is None:
        scores = trace.visited[prop.gamma.key] = (
            scorer.score(prop.gamma).log_ml, log_model_prior(prop.gamma))
    new_score = scores[0] + scores[1]
    if new_score == -math.inf:
        return gamma, score
    log_acc = new_score - score + prop.log_hastings
    if log_acc >= 0.0 or math.log(rng.random()) < log_acc:
        trace.accepted[i] += 1
        return prop.gamma, new_score
    return gamma, score


def run_chain(scorer, config: ChainConfig = ChainConfig()) -> ChainTrace:
    """Run one or more independent chains under `scorer` and merge their
    retained samples.

    `scorer` may be any object with the dataset it scores as `data` and a
    score(gamma) -> record method; tests use a constant scorer to target the
    model prior alone.
    """
    data = scorer.data
    trace = ChainTrace()
    root = np.random.default_rng(config.seed)
    streams = root.spawn(config.n_chains)
    for chain_idx, stream in enumerate(streams):
        rng = _BlockReader(stream)
        gamma = (screening_init_gamma(data, scorer) if config.screening_init
                 else Gamma((0,) * data.p))
        log_ml = scorer.score(gamma).log_ml
        log_prior = log_model_prior(gamma)
        trace.visited[gamma.key] = (log_ml, log_prior)
        score = log_ml + log_prior
        if score == -math.inf:
            raise ImpossibleStartError(f"initial model {gamma.key} has an impossible score")
        for it in range(config.iterations):
            # by keyword: the benchmark's tracer reads the trace as `trace`
            gamma, score = mh_step(gamma, score, scorer, rng, trace=trace)
            trace.n_steps += 1
            if it >= config.burn_in and (it - config.burn_in) % config.thin == 0:
                trace.samples.append((chain_idx, it, gamma.key))
    return trace
