"""Coordination-leader selection: local-search heuristic, exact search, bounds.

The objective of a leader set L is the summed saving of every non-leader
following its best leader:

    F(L) = sum over n not in L of max(W(n, m) for m in out(n) & L, default 0)

Maximizing F is NP-hard (minimum set cover embeds into it), so the
workhorse is an iterative flip heuristic that adds or removes whichever
node currently improves F.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Callable, Optional

from .coordination_graph import CoordinationGraph

EXACT_LIMIT = 20  # default node limit of the exhaustive search in `exact`
RULES = ("greedy", "random")  # the rules `cluster` picks its flips by


class SizeLimitError(ValueError):
    """Exact search refused: instance exceeds the node limit."""


@dataclass(frozen=True)
class LeaderSet:
    leaders: frozenset
    follower_of: dict = field(compare=False)
    objective: float = 0.0


def make_leader_set(g: CoordinationGraph, leaders) -> LeaderSet:
    """Assemble follower assignments for a leader set; ties pick the smallest id."""
    leaders = frozenset(leaders)
    follower_of = {}
    total = 0.0
    for n in g.nodes:
        if n in leaders:
            continue
        # out_edges is ordered heaviest-first with smallest-id ties, so the
        # first leader hit is the tie-broken argmax.
        for m, w in g.out_edges[n]:
            if m in leaders:
                follower_of[n] = m
                total += w
                break
    return LeaderSet(leaders=leaders, follower_of=follower_of, objective=total)


def _best_weight(g: CoordinationGraph, n, leaders, skip=None) -> float:
    """Max weight from n into leaders (optionally ignoring one leader)."""
    for m, w in g.out_edges[n]:
        if m in leaders and m != skip:
            return w
    return 0.0


def _gain(g: CoordinationGraph, leaders, best, n) -> float:
    """F(L +- {n}) - F(L), given best[i] = max(W(i, m) for m in out(i) & L) for n and in(n).

    Non-leader in-neighbors may gain or lose n as their best leader, and n
    itself starts or stops following its own best leader.
    """
    if n not in leaders:
        gain = 0.0
        for i, w_in in g.in_edges[n]:
            if i in leaders:
                continue
            cur = best[i]
            if w_in > cur:
                gain += w_in - cur
        return gain - best[n]
    loss = 0.0
    for i, w_in in g.in_edges[n]:
        if i in leaders:
            continue
        cur = best[i]
        if w_in >= cur:
            loss += _best_weight(g, i, leaders, skip=n) - cur
    return loss + best[n]


class _ClusterState:
    """Incremental bookkeeping for the flip heuristic.

    best[n] caches max(W(n, m) for m in out(n) & leaders) and delta[n] the
    gain of flipping n. A gain reads the node's own status and best, and for
    each non-leader in-neighbor i, best[i]; a leader m's gain also reads i's
    best without m. So a flip of n changes only the gains of n, in(n) and
    out(n), and for each non-leader i in in(n): all of out(i) if best[i]
    changed, else the leaders in out(i) holding best[i], the only ones for
    which i's best without them moves. Exactly those are recomputed.

    For the greedy rule, heap holds (-gain, str(node), position) for the
    positive gains, pushed when a gain changes; an entry whose gain is no
    longer its node's is stale and skipped when popped. For the random rule,
    ranked holds (str(node), position) of the positive gains in order.
    """

    def __init__(self, g: CoordinationGraph, rule: str = "greedy") -> None:
        self.g = g
        self.leaders: set = set()
        self.best: dict = {n: 0.0 for n in g.nodes}
        self.objective = 0.0
        self.delta: dict = {n: _gain(g, self.leaders, self.best, n) for n in g.nodes}
        self.positive: set = {n for n, d in self.delta.items() if d > 0}
        self.key: dict = {n: (str(n), k) for k, n in enumerate(g.nodes)}
        self.heap: Optional[list] = None
        self.ranked: Optional[list] = None
        if rule == "greedy":
            self.heap = [(-self.delta[n], *self.key[n]) for n in self.positive]
            heapq.heapify(self.heap)
        else:
            self.ranked = sorted(self.key[n] for n in self.positive)

    def pop_best(self):
        """The positive-gain node of largest gain, ties to the smallest str(id)."""
        while self.heap:
            gain, _, k = heapq.heappop(self.heap)
            n = self.g.nodes[k]
            if self.delta[n] == -gain:  # entries hold positive gains only
                return n
        return None

    def flip(self, n) -> float:
        gain = self.delta[n]
        g, best, leaders = self.g, self.best, self.leaders
        adding = n not in leaders
        (leaders.add if adding else leaders.discard)(n)
        touched = {n, *g.out_neighbors(n)}
        for i, w_in in g.in_edges[n]:
            touched.add(i)
            cur = best[i]
            if adding and w_in > cur:
                best[i] = w_in
            elif not adding and cur <= w_in:
                best[i] = _best_weight(g, i, leaders)
            if i in leaders:  # its best is read by its own gain only
                continue
            if best[i] != cur:
                touched.update(g.out_neighbors(i))
                continue
            for m, w in g.out_edges[i]:  # heaviest first
                if w < cur:
                    break
                if m in leaders:
                    touched.add(m)
        self.objective += gain
        for m in touched:
            d = _gain(g, leaders, best, m)
            if d > 0:
                if self.heap is not None and (d != self.delta[m] or m == n):
                    heapq.heappush(self.heap, (-d, *self.key[m]))  # n's own entry was popped
                elif self.ranked is not None and m not in self.positive:
                    bisect.insort(self.ranked, self.key[m])
                self.positive.add(m)
            elif m in self.positive:
                self.positive.discard(m)
                if self.ranked is not None:
                    del self.ranked[bisect.bisect_left(self.ranked, self.key[m])]
            self.delta[m] = d
        return gain


def cluster(
    g: CoordinationGraph,
    rule: str = "greedy",
    seed: int = 0,
    on_flip: Optional[Callable] = None,
) -> LeaderSet:
    """Iterative flip heuristic for the leader-selection objective.

    Starting from an empty leader set, repeatedly flips a node with a
    positive gain until none remains. `rule` picks the node: "greedy" takes
    the largest gain (ties to the smallest id), "random" samples uniformly
    from all positive-gain nodes with the given seed. The objective strictly
    increases every iteration, so termination is guaranteed.

    `on_flip(node, objective)` is invoked after every flip (used by tests to
    audit the incremental objective).
    """
    if rule not in RULES:
        raise ValueError(f"unknown selection rule {rule!r}")
    rng = random.Random(seed)
    state = _ClusterState(g, rule)
    while state.positive:
        if rule == "greedy":
            n = state.pop_best()
        else:
            n = g.nodes[rng.choice(state.ranked)[1]]
        state.flip(n)
        if on_flip is not None:
            on_flip(n, state.objective)
    return make_leader_set(g, state.leaders)


def exact(g: CoordinationGraph, limit: int = EXACT_LIMIT) -> LeaderSet:
    """Global maximizer of the objective by exhaustive subset enumeration.

    Ties break toward fewer leaders, then the lexicographically smallest
    leader tuple of str ids. Guarded by `limit` since the search is exponential.
    """
    n_nodes = len(g.nodes)
    if n_nodes > limit:
        raise SizeLimitError(f"{n_nodes} nodes exceeds exact-search limit {limit}")
    nodes = sorted(g.nodes, key=str)
    # Sets come by size, then in lexicographic order, and max keeps the first
    # of largest objective: the tie-broken one.
    subsets = (c for size in range(n_nodes + 1) for c in itertools.combinations(nodes, size))
    return max((make_leader_set(g, s) for s in subsets), key=lambda s: s.objective)


def upper_bound(g: CoordinationGraph) -> float:
    """math.fsum of every node's best outgoing saving; bounds any leader set's objective."""
    return math.fsum(g.out_edges[n][0][1] for n in g.nodes if g.out_edges[n])
