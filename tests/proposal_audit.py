"""Independent enumeration of every proposal path of the model-space sampler.

Reimplements the move-selection table and per-move path densities from the
written rules (not from the sampler code) so the sampler's attached Hastings
ratios can be checked path by path, and builds the full proposal graph for
connectivity checks.
"""

from __future__ import annotations

import math

from ghsel.modelspace import (Gamma, HazardClass, classify, get_valid_idx)
from ghsel.sampler import MoveKind, move_distribution, propose


class FakeRng:
    """Queue-driven stand-in for numpy.random.Generator used to force the
    sampler through one specific proposal path."""

    def __init__(self, floats, ints):
        self.floats = list(floats)
        self.ints = list(ints)

    def random(self):
        return self.floats.pop(0)

    def integers(self, lo, hi=None):
        if hi is None:
            lo, hi = 0, lo
        v = self.ints.pop(0)
        assert lo <= v < hi, f"programmed draw {v} outside [{lo}, {hi})"
        return v

    @property
    def exhausted(self):
        return not self.floats and not self.ints


def move_u(gamma: Gamma, move: MoveKind) -> float:
    """A uniform draw that lands the move draw of `propose` on `move`."""
    from ghsel.sampler import _MOVE_ORDER
    dist = move_distribution(gamma)
    acc = 0.0
    for mk in _MOVE_ORDER:
        p = dist.get(mk, 0.0)
        if mk is move:
            assert p > 0.0
            return acc + 0.5 * p
        acc += p
    raise AssertionError(f"move {move} unavailable from {gamma.key}")


# ---------------------------------------------------------------------------
# independent path enumeration: (ints, target, q_fwd, reverse_path)

def _p(move, gamma):
    return move_distribution(gamma).get(move, 0.0)


def _reverse_delete_density(gamma_from: Gamma, gamma_to: Gamma, j: int) -> float:
    """Density of the unique path from gamma_from back to gamma_to that
    deletes index j (used as the reverse of an addition)."""
    cls = classify(gamma_from)
    if cls is HazardClass.GH:
        valid = get_valid_idx(gamma_from)
        if j not in valid:
            return 0.0
        return _p(MoveKind.AD_GH, gamma_from) / len(valid)
    return _p(MoveKind.AD, gamma_from) / gamma_from.p


def _reverse_add_density(gamma_from: Gamma, gamma_to: Gamma, j: int) -> float:
    """Density of the path from gamma_from that re-adds code gamma_to[j] at j."""
    if classify(gamma_from) is HazardClass.NULL:
        return 1.0 / (4.0 * gamma_from.p)
    if classify(gamma_from) is HazardClass.GH:
        valid = get_valid_idx(gamma_from)
        if j not in valid:
            return 0.0
        return _p(MoveKind.AD_GH, gamma_from) / len(valid) / 3.0
    return _p(MoveKind.AD, gamma_from) / gamma_from.p


def enumerate_paths(gamma: Gamma):
    """Yield (move, ints, target, q_fwd, q_rev) over every proposal path."""
    p = gamma.p
    cls = classify(gamma)
    dist = move_distribution(gamma)

    if MoveKind.A_NULL in dist:
        for j in range(p):
            for v in (1, 2, 3, 4):
                gp = gamma.replace(j, v)
                q_fwd = dist[MoveKind.A_NULL] / (4.0 * p)
                q_rev = _reverse_delete_density(gp, gamma, j)
                yield MoveKind.A_NULL, [j, v], gp, q_fwd, q_rev

    if MoveKind.AD in dist:
        add_code = {HazardClass.AH: 1, HazardClass.PH: 2, HazardClass.AFT: 4}[cls]
        for j in range(p):
            if gamma.codes[j] > 0:
                gp = gamma.replace(j, 0)
                q_rev = (1.0 / (4.0 * p) if classify(gp) is HazardClass.NULL
                         else _p(MoveKind.AD, gp) / p)
            else:
                gp = gamma.replace(j, add_code)
                q_rev = _p(MoveKind.AD, gp) / p
            yield MoveKind.AD, [j], gp, dist[MoveKind.AD] / p, q_rev

    if MoveKind.AD_GH in dist:
        valid = get_valid_idx(gamma)
        for idx, j in enumerate(valid):
            if gamma.codes[j] > 0:
                gp = gamma.replace(j, 0)
                q_fwd = dist[MoveKind.AD_GH] / len(valid)
                q_rev = (1.0 / (4.0 * p) if classify(gp) is HazardClass.NULL
                         else _reverse_add_density(gp, gamma, j))
                yield MoveKind.AD_GH, [idx], gp, q_fwd, q_rev
            else:
                for v in (1, 2, 3):
                    gp = gamma.replace(j, v)
                    q_fwd = dist[MoveKind.AD_GH] / len(valid) / 3.0
                    q_rev = _reverse_delete_density(gp, gamma, j)
                    yield MoveKind.AD_GH, [idx, v], gp, q_fwd, q_rev

    if MoveKind.CHANGE in dist:
        active = gamma.active
        for ai, j in enumerate(active):
            old = gamma.codes[j]
            choices = [c for c in (1, 2, 3) if c != old]
            for ci, v in enumerate(choices):
                gp = gamma.replace(j, v)
                q_fwd = dist[MoveKind.CHANGE] / len(active) / 2.0
                q_rev = _p(MoveKind.CHANGE, gp) / len(gp.active) / 2.0
                yield MoveKind.CHANGE, [ai, ci], gp, q_fwd, q_rev

    if MoveKind.SWAP in dist:
        for j1 in range(p):
            v1 = gamma.codes[j1]
            others = [j for j in range(p) if gamma.codes[j] != v1]
            for oi, j2 in enumerate(others):
                v2 = gamma.codes[j2]
                if v1 + v2 != 3:
                    variants = [([j1, oi], (v2, v1))]
                else:
                    pairs = [(0, 3), (3, 0)] if v1 in (1, 2) else [(1, 2), (2, 1)]
                    variants = [([j1, oi, b], pairs[b]) for b in (0, 1)]
                for ints, (n1, n2) in variants:
                    gp = gamma.replace(j1, n1).replace(j2, n2)
                    q_fwd = dist[MoveKind.SWAP] / p / len(others)
                    if v1 + v2 == 3:
                        q_fwd /= 2.0
                    n_other_rev = sum(1 for c in gp.codes if c != n1)
                    q_rev = _p(MoveKind.SWAP, gp) / p / n_other_rev
                    if n1 + n2 == 3:
                        q_rev /= 2.0
                    yield MoveKind.SWAP, ints, gp, q_fwd, q_rev

    if MoveKind.CHANGE_ALL in dist:
        if cls is HazardClass.AFT:
            for v in (1, 2, 3):
                gp = Gamma(tuple(v if c == 4 else 0 for c in gamma.codes))
                q_fwd = dist[MoveKind.CHANGE_ALL] / 3.0
                if classify(gp) is HazardClass.GH:
                    q_rev = _p(MoveKind.CHANGE_ALL, gp)
                else:
                    q_rev = _p(MoveKind.CHANGE_ALL, gp) / 2.0
                yield MoveKind.CHANGE_ALL, [v], gp, q_fwd, q_rev
        elif cls is HazardClass.GH:
            gp = Gamma(tuple(4 if c == 3 else c for c in gamma.codes))
            q_rev = _p(MoveKind.CHANGE_ALL, gp) / 3.0
            yield MoveKind.CHANGE_ALL, [], gp, dist[MoveKind.CHANGE_ALL], q_rev
        else:
            v_old = next(c for c in gamma.codes if c != 0)
            choices = [c for c in (1, 2, 4) if c != v_old]
            for ci, v in enumerate(choices):
                gp = Gamma(tuple(v if c != 0 else 0 for c in gamma.codes))
                q_fwd = dist[MoveKind.CHANGE_ALL] / 2.0
                if classify(gp) is HazardClass.AFT:
                    q_rev = _p(MoveKind.CHANGE_ALL, gp) / 3.0
                else:
                    q_rev = _p(MoveKind.CHANGE_ALL, gp) / 2.0
                yield MoveKind.CHANGE_ALL, [ci], gp, q_fwd, q_rev


def drive_propose(gamma: Gamma, move: MoveKind, ints):
    rng = FakeRng([move_u(gamma, move)], ints)
    prop = propose(gamma, rng)
    assert rng.exhausted, f"unconsumed draws for {gamma.key} {move} {ints}"
    return prop


def audit_state(gamma: Gamma):
    """Check every proposal path from one state; returns the set of reachable
    neighbour keys."""
    neighbours = set()
    for move, ints, target, q_fwd, q_rev in enumerate_paths(gamma):
        prop = drive_propose(gamma, move, ints)
        assert prop.gamma == target, (
            f"{gamma.key} {move} {ints}: sampler went to {prop.gamma.key}, "
            f"audit expects {target.key}")
        assert prop.move is move
        assert q_fwd > 0.0
        assert q_rev > 0.0, (
            f"{gamma.key} -> {target.key} via {move} has no reverse path")
        expected = math.log(q_rev) - math.log(q_fwd)
        assert abs(prop.log_hastings - expected) < 1e-12, (
            f"{gamma.key} -> {target.key} via {move}: hastings "
            f"{prop.log_hastings} vs audit {expected}")
        neighbours.add(target.key)
    return neighbours


def strongly_connected(adjacency: dict) -> bool:
    """Kosaraju-style check on the proposal graph."""
    keys = list(adjacency)

    def reach(adj, start):
        seen = {start}
        stack = [start]
        while stack:
            for nxt in adj[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return seen

    fwd = reach(adjacency, keys[0])
    rev_adj = {k: set() for k in keys}
    for k, outs in adjacency.items():
        for o in outs:
            rev_adj[o].add(k)
    bwd = reach(rev_adj, keys[0])
    return len(fwd) == len(keys) and len(bwd) == len(keys)
