"""Shared fixtures: the default fuel model, hand-built networks, oracles."""

from __future__ import annotations

import bisect
import functools
import heapq
import math
import random

import numpy as np
import pytest

from platoonplan import (
    Assignment,
    FuelModel,
    Position,
    RoadNetwork,
    Route,
    cluster,
    common_subpaths,
    make_route,
    positions_coincide,
    route_length,
    sample,
)
from platoonplan.joint_optimization import _assemble
from platoonplan.leader_selection import _best_weight, make_leader_set
from platoonplan.planning import default_speed

KMH = 1.0 / 3.6


@pytest.fixture(scope="session")
def model():
    return FuelModel()


def quadrature_fuel(model, plan, steps_per_piece=400):
    """Independent oracle: Riemann sum of rate(v(t)) * v(t) over time.

    Deliberately integrates the consumption-rate-times-speed integrand on a
    fine time grid instead of multiplying rates by piece distances; the
    integrand is piecewise constant, so the sum is exact up to rounding.
    """
    total = 0.0
    for i, v in enumerate(plan.speeds):
        t0, t1 = plan.times[i], plan.times[i + 1]
        dt = (t1 - t0) / steps_per_piece
        follower = bool(plan.follower_flags[i])
        rate = model.follower_rate(v) if follower else model.solo_rate(v)
        for _ in range(steps_per_piece):
            total += rate * v * dt
    return total


def _reference_prune_pairs(assignments, routes, model):
    """Independent oracle for prune_pairs: the pairwise segment-end test.

    Collects every ordered pair that shares a fully traversed edge, then
    keeps it when the follower's constant catch-up speed to some shared
    segment's end, arriving with the leader's default plan, lies within the
    relaxed speed bounds. Quadratic in the trucks per edge.
    """
    ids = sorted(assignments)
    trucks_on_edge: dict = {}
    for n in ids:
        r = routes[n]
        lo = 0 if r.start_offset == 0.0 else 1
        hi = len(r.edges) - 1 if r.dest_offset == r.lengths[-1] else len(r.edges) - 2
        for i in range(lo, hi + 1):
            trucks_on_edge.setdefault(r.edges[i], []).append(n)

    candidates = set()
    for trucks in trucks_on_edge.values():
        for n in trucks:
            for m in trucks:
                if n != m:
                    candidates.add((n, m))

    v_lo = model.v_min * (1.0 - 1e-9) - 1e-9
    v_hi = model.v_max * (1.0 + 1e-9) + 1e-9
    speeds = {
        n: default_speed(
            model, route_length(routes[n]), assignments[n].t_deadline - assignments[n].t_start
        )
        for n in ids
    }

    kept = []
    for n, m in sorted(candidates):
        follower, leader = assignments[n], assignments[m]
        v_leader = speeds[m]
        for seg in common_subpaths(routes[n], routes[m]):
            d0 = routes[n].arc_at_edge_start(seg.a_start)
            alpha = leader.t_start + routes[m].arc_at_edge_start(seg.b_start) / v_leader
            # Catch-up speed evaluated at the segment end.
            denom = (alpha - follower.t_start) + seg.length_m / v_leader
            numer = d0 + seg.length_m
            if denom > 0 and v_lo <= numer / denom <= v_hi:
                kept.append((n, m))
                break
    return kept


def bisect_prune_pairs(assignments, routes, model):
    """Oracle for prune_pairs: the per-edge bisect index it replaced.

    Each edge keeps the sorted (time, id) at which leaders pass its end; a
    follower bisects the times for its reachable window
    [t_start + arc_end / v_hi, t_start + arc_end / v_lo].
    """
    v_lo = model.v_min * (1.0 - 1e-9) - 1e-9
    v_hi = model.v_max * (1.0 + 1e-9) + 1e-9

    visits = []
    passages: dict = {}
    for n, a in assignments.items():
        r = routes[n]
        v = default_speed(model, route_length(r), a.t_deadline - a.t_start)
        for i in r.shareable:
            arc_end = r.arc_at_edge_start(i + 1)
            visits.append((r.edges[i], n, a.t_start, arc_end))
            passages.setdefault(r.edges[i], []).append((a.t_start + arc_end / v, n))

    index = {}
    for e, entries in passages.items():
        entries.sort()
        index[e] = ([t for t, _ in entries], [m for _, m in entries])

    kept = set()
    for e, n, t0, arc_end in visits:
        times, leaders = index[e]
        first = bisect.bisect_left(times, t0 + arc_end / v_hi)
        last = bisect.bisect_right(times, t0 + arc_end / v_lo)
        for m in leaders[first:last]:
            if m != n:
                kept.add((n, m))
    return sorted(kept)


class _ReferenceClusterState:
    """The flip heuristic's bookkeeping as cluster had it before its narrow
    recompute: every flip recomputes the gains of the flipped node's whole
    two-hop neighbourhood, n, in(n), out(n) and out(in(n))."""

    def __init__(self, g):
        self.g = g
        self.leaders = set()
        self.best = {n: 0.0 for n in g.nodes}
        self.objective = 0.0
        self.delta = {n: self._compute_delta(n) for n in g.nodes}
        self.positive = {n for n, d in self.delta.items() if d > 0}

    def _compute_delta(self, n):
        g, leaders, best = self.g, self.leaders, self.best
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

    def flip(self, n):
        gain = self.delta[n]
        g = self.g
        if n in self.leaders:
            self.leaders.discard(n)
            for i, w_in in g.in_edges[n]:
                if self.best[i] <= w_in:
                    self.best[i] = _best_weight(g, i, self.leaders)
        else:
            self.leaders.add(n)
            for i, w_in in g.in_edges[n]:
                if w_in > self.best[i]:
                    self.best[i] = w_in
        self.objective += gain
        touched = {n, *g.out_neighbors(n)}
        for i in g.in_neighbors(n):
            touched.add(i)
            touched.update(g.out_neighbors(i))
        for m in touched:
            d = self._compute_delta(m)
            self.delta[m] = d
            if d > 0:
                self.positive.add(m)
            else:
                self.positive.discard(m)
        return gain


def _reference_cluster(g, rule="greedy", seed=0, on_flip=None):
    """Oracle for leader_selection.cluster: a full max/min scan over the
    positive gains for every greedy pick, and the two-hop recompute."""
    rng = random.Random(seed)
    state = _ReferenceClusterState(g)
    while state.positive:
        if rule == "greedy":
            best_gain = max(state.delta[x] for x in state.positive)
            n = min((x for x in state.positive if state.delta[x] == best_gain), key=str)
        else:
            n = rng.choice(sorted(state.positive, key=str))
        state.flip(n)
        if on_flip is not None:
            on_flip(n, state.objective)
    return make_leader_set(g, state.leaders)


def check_cluster_matches_reference(g, runs):
    """cluster gives _reference_cluster's flips, leader set, follower_of and
    objective bit for bit, for each (rule, seed) in runs."""
    for rule, seed in runs:
        got, want = [], []
        result = cluster(g, rule, seed, on_flip=lambda n, obj: got.append((n, obj)))
        expected = _reference_cluster(g, rule, seed, on_flip=lambda n, obj: want.append((n, obj)))
        assert got == want
        assert result.leaders == expected.leaders
        assert result.follower_of == expected.follower_of
        assert repr(result.objective) == repr(expected.objective)


def stage4_infeasibility(group, sol, model):
    """Largest relative excess of the solution over the group's G x <= h rows.

    Each row's excess is divided by 1 + |h|, so a feasible solution gives a
    value of at most 1e-9 even when rounding breaks a tight row slightly.
    """
    prob = _assemble(group, model)
    x = np.concatenate([sol.times[member] for member in group.members()])
    return float(np.max((prob.G @ x - prob.h) / (1.0 + np.abs(prob.h))))


def _time_in_domain(plan, t):
    """t inside plan's domain [t_start, t_arrival), moved there if it overruns by
    at most 1 µs, else None.

    A follower's merge or split time and its leader's departure or arrival
    denote the same instant but can differ in the last float bit.
    """
    lo, hi = plan.times[0], plan.times[-1]
    if lo <= t < hi:
        return t
    if lo - 1e-6 <= t < lo:
        return lo
    if hi <= t <= hi + 1e-6:
        return math.nextafter(hi, lo)
    return None


def sampled_coincidence(result, net):
    """Oracle for cli.check_follower_coincidence: the 1 s grid audit.

    Samples each follower and its leader once per second from the merge
    time on; it can miss a deviation that starts and ends between two grid
    seconds.
    """
    problems = []
    for truck, plan in result.stage4_plans.items():
        if plan.platoon_leader_id is None:
            continue
        leader_plan = result.stage4_plans[plan.platoon_leader_id]
        t_m, t_sp = plan.platoon_interval()
        t = t_m
        while t < t_sp:
            own = sample(plan, t).position
            t_lead = _time_in_domain(leader_plan, t)
            if t_lead is None:
                problems.append(f"{truck} at t={t:.1f}: leader is not on the road")
                break
            lead = sample(leader_plan, t_lead).position
            if not positions_coincide(net, own, lead, tol=1e-6):
                problems.append(
                    f"{truck} at t={t:.1f}: {own} vs leader {lead}"
                )
                break
            t += 1.0
    return problems


def reference_histogram(plans):
    """Oracle for evaluation.platoon_size_histogram: a per-truck piece scan.

    Each truck's own timeline is cut at its breakpoints and at the windows
    of its leader role and of its own leader; every piece adds the truck's
    own meters to the bucket of the platoon size at the piece's middle.
    Pieces of 1e-9 s or less are skipped.
    """
    followers_of: dict = {}
    for truck, plan in plans.items():
        if plan.platoon_leader_id is not None:
            window = plan.platoon_interval()
            if window is not None:
                followers_of.setdefault(plan.platoon_leader_id, []).append((truck, window))

    histogram: dict = {}

    def add(size, meters):
        if meters > 0:
            histogram[size] = histogram.get(size, 0.0) + float(meters)

    for truck, plan in plans.items():
        intervals = followers_of.get(truck, [])
        if plan.platoon_leader_id is None and not intervals:
            add(1, sum(v * (plan.times[i + 1] - plan.times[i]) for i, v in enumerate(plan.speeds)))
            continue
        cuts = set(plan.times)
        for _, (t_m, t_sp) in intervals:
            cuts.update((t_m, t_sp))
        own_window = plan.platoon_interval()
        leader_intervals = followers_of.get(
            plan.platoon_leader_id, []
        ) if plan.platoon_leader_id is not None else []
        for _, w in leader_intervals:
            cuts.update(w)
        grid = sorted(t for t in cuts if plan.times[0] <= t <= plan.times[-1])
        for t0, t1 in zip(grid, grid[1:]):
            if t1 - t0 <= 1e-9:
                continue
            mid = 0.5 * (t0 + t1)
            piece = 0
            while piece + 1 < len(plan.speeds) and plan.times[piece + 1] <= mid:
                piece += 1
            meters = plan.speeds[piece] * (t1 - t0)
            if own_window is not None and own_window[0] <= mid < own_window[1]:
                size = 1 + sum(1 for _, (a, b) in leader_intervals if a <= mid < b)
            else:
                size = 1 + sum(1 for _, (a, b) in intervals if a <= mid < b)
            add(size, meters)
    return histogram


def chain_network(segment_lengths, prefix="e"):
    """A one-way chain n0 -> n1 -> ... with the given edge lengths."""
    nodes = [f"n{i}" for i in range(len(segment_lengths) + 1)]
    edges = [
        (f"{prefix}{i}", f"n{i}", f"n{i + 1}", length)
        for i, length in enumerate(segment_lengths)
    ]
    return RoadNetwork(nodes, edges)


@functools.lru_cache(maxsize=1)
def reference_dijkstra(net, source):
    """Oracle for road_network routing: the heap Dijkstra that csgraph replaced.

    Node distances and predecessor (node, edge) pairs from a source node. A
    predecessor is set only on a strict improvement, so it is the first
    settled node whose relaxation reaches the final distance.
    """
    adjacency = {n: [] for n in net.nodes}
    for eid, (u, v, length) in net.edges.items():
        adjacency[u].append((eid, v, length))
    dist = {source: 0.0}
    pred = {}
    heap = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist.get(u, math.inf):
            continue
        for eid, v, length in adjacency[u]:
            nd = d + length
            if nd < dist.get(v, math.inf):
                dist[v] = nd
                pred[v] = (u, eid)
                heapq.heappush(heap, (nd, v))
    return dist, pred


def _reference_path_edges(net, source, target):
    dist, pred = reference_dijkstra(net, source)
    if target not in dist:
        return None
    edges = []
    node = target
    while node != source:
        node, eid = pred[node]
        edges.append(eid)
    edges.reverse()
    return edges


def reference_node_route(net, u, v):
    """Oracle for shortest_node_route on the heap Dijkstra."""
    if u == v:
        raise ValueError("start and destination nodes coincide")
    edges = _reference_path_edges(net, u, v)
    if edges is None:
        return None
    return make_route(net, edges, 0.0, net.edge_length(edges[-1]))


def reference_route(net, frm, to):
    """Oracle for shortest_route on the heap Dijkstra."""
    net.check_position(frm)
    net.check_position(to)
    best = None
    if frm.edge == to.edge and frm.offset <= to.offset:
        if to.offset > frm.offset:
            best = Route((frm.edge,), (net.edge_length(frm.edge),), frm.offset, to.offset)
        else:
            raise ValueError("start and destination positions coincide")
    middle = _reference_path_edges(net, net.edge_head(frm.edge), net.edge_tail(to.edge))
    if middle is not None:
        edges = (frm.edge, *middle, to.edge)
        candidate = Route(edges, tuple(net.edge_length(e) for e in edges), frm.offset, to.offset)
        if route_length(candidate) > 0 and (
            best is None or route_length(candidate) < route_length(best)
        ):
            best = candidate
    return best


@pytest.fixture(scope="session")
def worked_pair(model):
    """The hand-checked leader/follower pair used across modules.

    Leader drives 100 km in a 4500 s window (default speed 80 km/h). The
    follower approaches the shared corridor over 9.5 km, can ride along for
    up to 80 km, and exits over a 10 km tail with a 4477.5 s deadline.
    """
    nodes = ["L0", "F0", "J1", "J2", "LD", "FD"]
    shared_nodes = [f"S{i}" for i in range(1, 8)]
    nodes += shared_nodes
    chain = ["J1", *shared_nodes, "J2"]
    edges = [
        ("lead_in", "L0", "J1", 10_000.0),
        ("foll_in", "F0", "J1", 9_500.0),
        ("lead_out", "J2", "LD", 10_000.0),
        ("foll_out", "J2", "FD", 10_000.0),
    ]
    shared_edges = []
    for i in range(len(chain) - 1):
        eid = f"shared{i}"
        edges.append((eid, chain[i], chain[i + 1], 10_000.0))
        shared_edges.append(eid)
    net = RoadNetwork(nodes, edges)

    leader_route = make_route(net, ["lead_in", *shared_edges, "lead_out"], 0.0, 10_000.0)
    follower_route = make_route(net, ["foll_in", *shared_edges, "foll_out"], 0.0, 10_000.0)
    leader = Assignment(
        id="leader",
        start=Position("lead_in", 0.0),
        dest=Position("lead_out", 10_000.0),
        t_start=0.0,
        t_deadline=4500.0,
    )
    follower = Assignment(
        id="follower",
        start=Position("foll_in", 0.0),
        dest=Position("foll_out", 10_000.0),
        t_start=0.0,
        t_deadline=4477.5,
    )
    return net, leader, leader_route, follower, follower_route
