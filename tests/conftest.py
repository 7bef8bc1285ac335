"""Shared fixtures: the default fuel model, hand-built networks, oracles."""

from __future__ import annotations

import bisect
import functools
import heapq
import itertools
import math
import random
from dataclasses import dataclass, replace

import numpy as np
import pytest
from scipy.linalg import null_space
from scipy.optimize import nnls

from platoonplan import (
    Assignment,
    FuelModel,
    Position,
    RoadNetwork,
    Route,
    VehiclePlan,
    build_group,
    cluster,
    common_subpaths,
    default_plan,
    positions_coincide,
    route_length,
    sample,
)
from platoonplan.coordination_graph import WEIGHT_FLOOR, CoordinationGraph, prune_pairs
from platoonplan.evaluation import CHAIN_GAP_S
from platoonplan.joint_optimization import (
    EVENT_TOL,
    CoordinationGroup,
    InconsistentGroupError,
    _active_set,
    _assemble,
    _interior_points,
    _Problem,
    _reduce,
    _set_up,
)
from platoonplan.leader_selection import _best_weight, _gain, make_leader_set
from platoonplan.planning import Visits, adapted_plan, default_speed, pair_savings

KMH = 1.0 / 3.6


def make_route(net: RoadNetwork, edges, start_offset: float, dest_offset: float) -> Route:
    """Validate connectivity and offsets, then build a Route."""
    edges = tuple(edges)
    if not edges:
        raise ValueError("route needs at least one edge")
    for e in edges:
        if e not in net.edges:
            raise ValueError(f"route references unknown edge {e!r}")
    for a, b in zip(edges, edges[1:]):
        if net.edge_head(a) != net.edge_tail(b):
            raise ValueError(f"edges {a!r} -> {b!r} are not connected")
    lengths = tuple(net.edge_length(e) for e in edges)
    if not (0.0 <= start_offset <= lengths[0]):
        raise ValueError("start_offset outside first edge")
    if not (0.0 <= dest_offset <= lengths[-1]):
        raise ValueError("dest_offset outside last edge")
    r = Route(edges, lengths, float(start_offset), float(dest_offset))
    if route_length(r) <= 0:
        raise ValueError("route covers no distance")
    return r


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


def unpruned_build(assignments, routes, default_plans, model):
    """Reference for coordination_graph.build: every ordered pair is a
    candidate, with no pruning. Returns (graph, plan_of) as build does; its
    plan_of lets adapted_plan find the shared segments itself."""
    ids = sorted(assignments)
    pairs = [(n, m) for n in ids for m in ids if n != m]
    savings = savings_by_name(assignments, routes, default_plans, model, pairs)
    graph = CoordinationGraph(ids, {pair: w for pair, w in savings.items() if w > WEIGHT_FLOOR})

    def plan_of(follower, leader):
        if (follower, leader) not in graph.weight:
            raise KeyError((follower, leader))
        return adapted_plan(
            assignments[follower], routes[follower], leader, default_plans[leader], model
        )[0]

    return graph, plan_of


def prune_by_name(assignments, routes, model):
    """prune_pairs on the fleet's table, as sorted (follower, leader) names."""
    plans = {aid: default_plan(a, routes[aid], model) for aid, a in assignments.items()}
    fleet = Visits(assignments, routes, plans, model)
    return [(fleet.ids[f], fleet.ids[m]) for f, m in prune_pairs(fleet, model).tolist()]


def savings_by_name(assignments, routes, default_plans, model, pairs):
    """{(follower, leader): pair_savings' saving} over named pairs, 0.0 without a plan."""
    fleet = Visits(assignments, routes, default_plans, model)
    row = {aid: k for k, aid in enumerate(fleet.ids)}
    rows = np.array([(row[n], row[m]) for n, m in pairs], np.int64).reshape(-1, 2)
    return dict(zip(pairs, pair_savings(fleet, model, rows).tolist()))


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


def objective_value(g: CoordinationGraph, leaders) -> float:
    """Direct evaluation of F(L)."""
    return make_leader_set(g, leaders).objective


def delta_u(g: CoordinationGraph, leaders, n) -> float:
    """Objective change from flipping n's leader membership, by the heuristic's own gain."""
    leaders = set(leaders)
    best = {m: _best_weight(g, m, leaders) for m in (n, *g.in_neighbors(n))}
    return _gain(g, leaders, best, n)


@dataclass(frozen=True)
class SetCoverInstance:
    universe: frozenset
    family: tuple

    def __post_init__(self) -> None:
        union = frozenset().union(*self.family) if self.family else frozenset()
        if union != self.universe:
            raise ValueError("family does not cover the universe")


def reduce_set_cover(inst: SetCoverInstance):
    """Embed a set-cover instance into a coordination graph.

    One node per universe element, one per family subset, plus a sink node.
    Element nodes point at every subset covering them with weight 1; every
    subset node points at the sink with weight 0.5. The optimal objective of
    the graph equals |U| + 0.5 * (|F| - k*) where k* is the minimum cover
    size, which is how hardness transfers.

    Returns (graph, node_maps) with node_maps = {"elements", "subsets", "sink"}.
    """
    element_node = {u: f"u:{u}" for u in sorted(inst.universe, key=str)}
    subset_node = {i: f"s:{i}" for i in range(len(inst.family))}
    sink = "sink"
    nodes = list(element_node.values()) + list(subset_node.values()) + [sink]
    weights = {}
    for i, subset in enumerate(inst.family):
        for u in subset:
            weights[(element_node[u], subset_node[i])] = 1.0
        weights[(subset_node[i], sink)] = 0.5
    graph = CoordinationGraph(nodes, weights)
    return graph, {"elements": element_node, "subsets": subset_node, "sink": sink}


def min_set_cover_size(inst: SetCoverInstance) -> int:
    """Brute-force minimum number of subsets covering the universe."""
    if not inst.universe:
        return 0
    for k in range(1, len(inst.family) + 1):
        for combo in itertools.combinations(range(len(inst.family)), k):
            covered = frozenset().union(*(inst.family[i] for i in combo))
            if covered == inst.universe:
                return k
    raise ValueError("family does not cover the universe")


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


def group_objective(group: CoordinationGroup, model: FuelModel, times: dict) -> float:
    """Fuel in kg of the group under the given traversal times."""
    total = 0.0
    for member in group.members():
        for w, p, t in zip(group.distances[member], group.platoon_flags[member], times[member]):
            v = w / t
            rate = model.follower_rate(v) if p else model.solo_rate(v)
            total += rate * w
    return total


def _reference_snap(value, grid):
    for g in grid:
        if abs(value - g) <= EVENT_TOL:
            return g
    return value


def reference_build_group(leader, leader_plan, followers):
    """Oracle for joint_optimization.build_group: its earlier two-pass form,
    which snaps each follower's window against the events before it, appends
    the times more than EVENT_TOL from every event, then snaps the window
    again before the segments are built."""
    if len(leader_plan.speeds) != 1:
        raise InconsistentGroupError("leader must run a constant-speed default plan")
    v_leader = leader_plan.speeds[0]
    t0, t_arr = leader_plan.times[0], leader_plan.times[-1]

    events = [t0, t_arr]
    intervals = {}
    for a, plan in followers:
        if plan.platoon_leader_id != leader.id:
            raise InconsistentGroupError(
                f"follower {a.id} is adapted to {plan.platoon_leader_id!r}, not {leader.id!r}"
            )
        window = plan.platoon_interval()
        if window is None:
            raise InconsistentGroupError(f"follower {a.id} plan has no platoon episode")
        t_merge, t_split = (_reference_snap(t, events) for t in window)
        if t_merge < t0 - EVENT_TOL or t_split > t_arr + EVENT_TOL:
            raise InconsistentGroupError(
                f"follower {a.id} platoons outside the leader's journey"
            )
        k = plan.follower_flags.index(1)
        if abs(plan.speeds[k] - v_leader) > 1e-6 * v_leader:
            raise InconsistentGroupError(
                f"follower {a.id} platoon speed differs from the leader's"
            )
        for t in (t_merge, t_split):
            if all(abs(t - e) > EVENT_TOL for e in events):
                events.append(t)
        intervals[a.id] = (_reference_snap(t_merge, events), _reference_snap(t_split, events))
    events.sort()

    leader_w = tuple((events[i + 1] - events[i]) * v_leader for i in range(len(events) - 1))
    distances = {leader.id: leader_w}
    platoon_flags = {leader.id: tuple(0 for _ in leader_w)}
    initial_times = {leader.id: tuple(events[i + 1] - events[i] for i in range(len(events) - 1))}
    t_start = {leader.id: leader.t_start}
    t_deadline = {leader.id: leader.t_deadline}
    routes = {leader.id: leader_plan.route}
    merge_index = {}
    split_index = {}

    for a, plan in followers:
        t_merge, t_split = intervals[a.id]
        i_m = events.index(t_merge)
        i_sp = events.index(t_split) - 1
        if i_sp < i_m:
            raise InconsistentGroupError(f"follower {a.id} has an empty platoon window")
        w, p, tt = [], [], []
        if plan.follower_flags[0] == 0:
            w.append(plan.speeds[0] * (t_merge - a.t_start))
            p.append(0)
            tt.append(t_merge - a.t_start)
        w.extend(leader_w[i_m : i_sp + 1])
        p.extend(1 for _ in range(i_m, i_sp + 1))
        tt.extend(initial_times[leader.id][i_m : i_sp + 1])
        if plan.follower_flags[-1] == 0:
            dur = plan.times[-1] - t_split
            w.append(plan.speeds[-1] * dur)
            p.append(0)
            tt.append(dur)
        if any(x <= 0 for x in w):
            raise InconsistentGroupError(f"follower {a.id} produced a nonpositive segment")
        distances[a.id] = tuple(w)
        platoon_flags[a.id] = tuple(p)
        initial_times[a.id] = tuple(tt)
        t_start[a.id] = a.t_start
        t_deadline[a.id] = a.t_deadline
        routes[a.id] = plan.route
        merge_index[a.id] = i_m
        split_index[a.id] = i_sp

    return CoordinationGroup(
        leader_id=leader.id,
        follower_ids=tuple(a.id for a, _ in followers),
        distances=distances,
        platoon_flags=platoon_flags,
        initial_times=initial_times,
        t_start=t_start,
        t_deadline=t_deadline,
        merge_index=merge_index,
        split_index=split_index,
        routes=routes,
    )


def checked_build_group(leader, leader_plan, followers):
    """build_group's group, after checking that it equals the oracle's."""
    group = build_group(leader, leader_plan, followers)
    assert group == reference_build_group(leader, leader_plan, followers), leader.id
    return group


def stage4_infeasibility(group, sol, model):
    """Largest relative excess of the solution over the group's G x <= h rows.

    Each row's excess is divided by 1 + |h|, so a feasible solution gives a
    value of at most 1e-9 even when rounding breaks a tight row slightly.
    """
    prob = _assemble(group, model)
    x = np.concatenate([sol.times[member] for member in group.members()])
    return float(np.max((prob.G @ x - prob.h) / (1.0 + np.abs(prob.h))))


def reference_assemble(group, model):
    """Oracle for joint_optimization._assemble: the equality rows built one at
    a time from (+1 columns, -1 columns, right-hand side) tuples, the speed
    boxes from np.diag and np.eye, and the deadline rows by np.repeat."""
    members = group.members()
    sizes = [len(group.distances[member]) for member in members]
    ends = list(itertools.accumulate(sizes, initial=0))
    var_slices = {member: slice(lo, hi) for member, lo, hi in zip(members, ends, ends[1:])}
    n = ends[-1]

    def stacked(per_member):
        return np.concatenate([np.asarray(per_member[m], dtype=float) for m in members])

    w = stacked(group.distances)
    platoon = stacked(group.platoon_flags) == 1
    x0 = stacked(group.initial_times)
    c2 = np.where(platoon, model.ap, model.a0) * w * w
    constant = np.where(platoon, model.bp, model.b0) * w
    c0 = sum(float(np.sum(constant[sl])) for sl in var_slices.values())

    equalities = []
    lead = var_slices[group.leader_id].start
    for fid in group.follower_ids:
        f = var_slices[fid].start
        i_m, i_sp = group.merge_index[fid], group.split_index[fid]
        head = int(group.platoon_flags[fid][0] == 0)
        rhs = group.t_start[group.leader_id] - group.t_start[fid]
        if head or i_m:
            equalities.append((range(f, f + head), range(lead, lead + i_m), rhs))
        elif abs(rhs) > 1e-6:
            raise InconsistentGroupError(f"follower {fid} merges at the leader's start")
        equalities.extend(([f + head + j], [lead + i_m + j], 0.0) for j in range(i_sp - i_m + 1))
    A = np.zeros((len(equalities), n))
    for r, (plus, minus, _) in enumerate(equalities):
        A[r, plus] = 1.0
        A[r, minus] = -1.0
    b = np.array([rhs for _, _, rhs in equalities], dtype=float)

    deadline_rows = np.repeat(np.eye(len(members)), sizes, axis=1)
    G = np.vstack([np.diag(np.full(n, -1.0)), np.eye(n), deadline_rows])
    h = np.concatenate([
        -w / model.v_max,
        w / model.v_min,
        [group.t_deadline[m] - group.t_start[m] for m in members],
    ])
    return _Problem(x0=x0, c2=c2, c0=c0, A=A, b=b, G=G, h=h, var_slices=var_slices)


def check_assemble_matches_reference(group, model):
    """_assemble gives reference_assemble's arrays, shapes and constant bit for bit."""
    got, want = _assemble(group, model), reference_assemble(group, model)
    for name in ("x0", "c2", "A", "b", "G", "h"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and np.array_equal(a, b), (group.leader_id, name)
    assert repr(got.c0) == repr(want.c0) and got.var_slices == want.var_slices


def reference_set_up(group, model):
    """Parity oracle for joint_optimization._set_up: its earlier form, with
    the SVD null space of every equality row, platoon rows included, and
    every row of G kept, so each copied segment keeps its own box rows."""
    prob = _assemble(group, model)
    Z = null_space(prob.A) if prob.A.size else np.eye(prob.x0.size)
    return replace(prob, A=None, G=None), _reduce(prob, prob.x0, Z)


def reference_objective(group, model):
    """The objective solve reaches from reference_set_up's reduction: its own
    start LP, then _active_set, never worse than the pairwise plans."""
    prob, red = reference_set_up(group, model)
    f0 = prob.objective(prob.x0)
    if not red.dim:
        return f0
    start = _interior_points([red])[0]
    if isinstance(start, Exception):
        raise start
    y, _ = _active_set(prob, red, start[0])
    return min(prob.objective(red.x(y)), f0)


def copied_segments(group):
    """(follower variable, leader variable) for every platoon segment a
    follower copies, as indices into the stacked variables of _assemble."""
    f = len(group.distances[group.leader_id])
    for fid in group.follower_ids:
        i_m, i_sp = group.merge_index[fid], group.split_index[fid]
        head = int(group.platoon_flags[fid][0] == 0)
        yield from ((f + head + j, i_m + j) for j in range(i_sp - i_m + 1))
        f += len(group.distances[fid])


def check_set_up_matches_reference(group, model, objective):
    """_set_up against reference_set_up on one group: Z is orthonormal and
    spans null(A), both to 1e-12; a copied segment's row of Z is its leader
    segment's bit for bit, and of the two equal box rows only the leader's
    reaches red.Gy; the solved objective is within 1e-12 relative of the one
    reached from reference_set_up."""
    full = _assemble(group, model)
    _, red = _set_up(group, model)
    Z, n = red.Z, full.x0.size
    assert np.max(np.abs(Z.T @ Z - np.eye(red.dim)), initial=0.0) <= 1e-12
    assert np.max(np.abs(full.A @ Z), initial=0.0) <= 1e-12
    for j, i in copied_segments(group):
        assert Z[j].tobytes() == Z[i].tobytes(), (group.leader_id, j, i)
        for row in (j, n + j):  # lower and upper box row
            gy, hy = full.G[row] @ Z, full.h[row] - full.G[row] @ full.x0
            same = np.all(red.Gy == gy, axis=1) & (red.hy == hy)
            assert int(same.sum()) == 1, (group.leader_id, row)
    ref = reference_objective(group, model)
    assert abs(objective - ref) <= 1e-12 * abs(ref), group.leader_id


def reference_extract_plans(group, sol, model):
    """Oracle for joint_optimization.extract_plans: its earlier scalar loop,
    each speed W / T snapped by FuelModel.clamp_speed, or kept as it is where
    clamp_speed rejects it."""
    plans = {}
    for member in group.members():
        speeds = []
        for wi, ti in zip(group.distances[member], sol.times[member]):
            v = float(wi / ti)
            clamped = model.clamp_speed(v)
            speeds.append(v if clamped is None else clamped)
        plans[member] = VehiclePlan(
            route=group.routes[member],
            speeds=tuple(speeds),
            times=tuple(itertools.accumulate(sol.times[member], initial=group.t_start[member])),
            follower_flags=group.platoon_flags[member],
            platoon_leader_id=None if member == group.leader_id else group.leader_id,
        )
    return plans


def check_copies_exact(group, sol, plans):
    """Every follower's platoon-segment times and speeds equal the leader's
    copied ones exactly."""
    members = group.members()
    times = list(itertools.chain.from_iterable(sol.times[m] for m in members))
    speeds = list(itertools.chain.from_iterable(plans[m].speeds for m in members))
    for j, i in copied_segments(group):
        assert (times[j], speeds[j]) == (times[i], speeds[i]), (group.leader_id, j, i)


def dual_gap(group, model, times):
    """Certified relative optimality gap (F(x) - g) / F(x) of the times.

    g is a value of the Lagrangian dual with the speed boxes lo <= x <= hi
    kept as the domain (Boyd & Vandenberghe, Convex Optimization, ch. 5):
    with nu on A x = b, lam >= 0 on the deadline rows and
    r = A^T nu + G_dl^T lam,
    g = sum_j min over [lo_j, hi_j] of (c2_j / x + r_j x) + c0 - nu b - lam h_dl.
    Each term is minimized in closed form: at clip(sqrt(c2_j / r_j), lo_j,
    hi_j) when r_j > 0, else at hi_j. The multipliers come from one nnls on
    the stationarity equations c2 / x^2 = A^T nu + G_t^T kappa over the rows
    G_t tight at x (nu split into two nonnegative parts); the box rows'
    multipliers are then dropped, as the box is the domain. Any nu and
    lam >= 0 give a lower bound on the optimum, so the gap is at least the
    true one.
    """
    prob = _assemble(group, model)
    x = np.concatenate([times[member] for member in group.members()])
    n, m = x.size, prob.A.shape[0]
    tight = np.flatnonzero(prob.h - prob.G @ x <= 1e-9 * (1.0 + np.abs(prob.h)))
    coef = nnls(np.hstack([prob.A.T, -prob.A.T, prob.G[tight].T]), prob.c2 / (x * x))[0]
    nu = coef[:m] - coef[m : 2 * m]
    lam = np.zeros(prob.h.size)
    lam[tight] = coef[2 * m :]
    lo, hi, lam_dl = -prob.h[:n], prob.h[n : 2 * n], lam[2 * n :]
    r = prob.A.T @ nu + prob.G[2 * n :].T @ lam_dl
    pos = r > 0
    xs = np.where(pos, np.clip(np.sqrt(prob.c2 / np.where(pos, r, 1.0)), lo, hi), hi)
    g = float(np.sum(prob.c2 / xs + r * xs)) + prob.c0 - nu @ prob.b - lam_dl @ prob.h[2 * n :]
    f = prob.objective(x)
    return (f - g) / f


def _reference_independent(E, row):
    """row lies outside the row space of E, which has full row rank."""
    if E.shape[0] == 0:
        return True
    coef = np.linalg.lstsq(E.T, row, rcond=None)[0]
    return float(np.linalg.norm(row - E.T @ coef)) > 1e-9 * float(np.linalg.norm(row))


def reference_active_set(prob, red, y, max_rounds=200):
    """Parity oracle for joint_optimization._active_set: its earlier form,
    with the gradient and Hessian from their formulas, the KKT system by
    np.linalg.solve, every objective from y, and ties in the ratio test to
    np.argmin. Unlike _active_set it steps the working rows to zero slack
    (right-hand side s[work]), tests each blocking row for dependence on
    them by least squares, and stops at a dependent one, which can leave it
    short of the optimum. Where it ends stationary, _active_set takes the
    same rounds."""
    noise = 1e-12 * (1.0 + np.abs(red.hy))
    abs_G = np.abs(red.Gy)
    s = red.slack(y)
    f = prob.objective(red.x(y))
    work = []
    rounds = 0
    while rounds < max_rounds:
        rounds += 1
        x = red.x(y)
        gF = -prob.c2 / (x * x)
        g = red.Z.T @ gF
        E = red.Gy[work]
        K = np.zeros((red.dim + len(work),) * 2)
        K[: red.dim, : red.dim] = (red.Z * (2.0 * prob.c2 / (x * x * x))[:, None]).T @ red.Z
        K[: red.dim, red.dim :] = E.T
        K[red.dim :, : red.dim] = E
        try:
            sol = np.linalg.solve(K, np.concatenate([-g, s[work]]))
        except np.linalg.LinAlgError:
            break
        d, mu = sol[: red.dim], sol[red.dim :]
        ds = red.Gy @ d
        ds[work] = 0.0
        pos = ds > noise + 1e-14 * (abs_G @ np.abs(d))
        ratio = np.full(ds.shape, np.inf)
        ratio[pos] = np.maximum(s[pos], 0.0) / ds[pos]
        k = int(np.argmin(ratio))
        alpha = blocked = min(1.0, float(ratio[k]))
        f_new = prob.objective(red.x(y + alpha * d))
        slope = float(g @ d)
        tiny = float(np.max(np.abs(red.Z @ d))) <= 1e-9 * (1.0 + float(np.max(np.abs(x))))
        converged = tiny or -slope <= 1e-15 * (1.0 + abs(f))
        if not converged:
            while alpha > 1e-14 and f_new > f + 1e-4 * alpha * slope:
                alpha *= 0.5
                f_new = prob.objective(red.x(y + alpha * d))
            if alpha <= 1e-14 < blocked:
                break
        y, f = y + alpha * d, f_new
        s = red.slack(y)
        if alpha < blocked:
            continue
        if blocked < 1.0:
            if not _reference_independent(E, red.Gy[k]):
                break
            work.append(k)
        elif converged:
            mu_floor = -1e-9 * (1.0 + float(np.max(np.abs(gF))))
            if mu.size == 0 or float(np.min(mu)) >= mu_floor:
                break
            del work[int(np.argmin(mu))]
    return y, rounds


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


def reference_spontaneous_baseline(default_plans, model):
    """Oracle for evaluation.spontaneous_baseline: the per-plan scalar scan it replaced.

    Each plan's visits are collected per edge; the visits of an edge are
    sorted by (time, truck, meters, speed), and every visit within a minute
    of the previous one adds its follower saving, in that order.
    """
    by_edge: dict = {}
    for truck, plan in default_plans.items():
        v = plan.speeds[0]
        r = plan.route
        for i, eid in enumerate(r.edges):
            driven = r.lengths[i]
            if i == 0:
                driven -= r.start_offset
            if i == len(r.edges) - 1:
                driven -= r.lengths[i] - r.dest_offset
            if driven > 0:
                t = plan.times[0] + max(r.arc_at_edge_start(i), 0.0) / v
                by_edge.setdefault(eid, []).append((t, truck, driven, v))
    saving = 0.0
    for visits in by_edge.values():
        visits.sort()
        for (t_prev, *_), (t, _, driven, v) in zip(visits, visits[1:]):
            if t - t_prev <= CHAIN_GAP_S:
                saving += (model.solo_rate(v) - model.follower_rate(v)) * driven
    return saving


def plans_table(plans, model):
    """The fleet table of hand-built default plans, each truck's trip read off its plan."""
    assignments = {
        n: Assignment(
            n,
            Position(p.route.edges[0], p.route.start_offset),
            Position(p.route.edges[-1], p.route.dest_offset),
            p.times[0],
            p.times[-1],
        )
        for n, p in plans.items()
    }
    return Visits(assignments, {n: p.route for n, p in plans.items()}, plans, model)


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
