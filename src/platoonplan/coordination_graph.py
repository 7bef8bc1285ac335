"""Weighted directed graph of positive pairwise platooning fuel savings.

An edge (n, m) with weight w means truck n saves w kilograms by adapting
its plan to m's default plan. A sound pruning pass keeps the candidate
ordered pairs that could platoon; one array pass (`planning.pair_savings`)
gives every kept pair's saving. An edge's adapted plan is derived only when
a later stage asks for it.
"""

from __future__ import annotations

import bisect
import csv
import math
from collections.abc import Mapping

from .fuel_model import FuelModel
from .planning import Assignment, VehiclePlan, adapted_plan, default_speed, pair_savings
from .road_network import Route, common_subpaths, route_length

WEIGHT_FLOOR = 1e-12  # savings at or below this are float dust, not edges


class CoordinationGraph:
    """Nodes are assignment ids; weights are strictly positive kg savings."""

    def __init__(self, nodes, weights: dict) -> None:
        self.nodes = list(nodes)
        node_set = set(self.nodes)
        self.weight: dict = {}
        self.out_edges: dict = {n: [] for n in self.nodes}
        self.in_edges: dict = {n: [] for n in self.nodes}
        for (n, m), w in weights.items():
            if n == m:
                raise ValueError(f"self loop on {n!r}")
            if n not in node_set or m not in node_set:
                raise ValueError(f"edge ({n!r}, {m!r}) references unknown node")
            if not (0 < w < math.inf):
                raise ValueError(f"edge ({n!r}, {m!r}) has invalid weight {w}")
            self.weight[(n, m)] = float(w)
            self.out_edges[n].append((m, float(w)))
            self.in_edges[m].append((n, float(w)))
        # Heaviest-first out-adjacency makes best-leader scans early-exit.
        for n in self.nodes:
            self.out_edges[n].sort(key=lambda mw: (-mw[1], str(mw[0])))
            self.in_edges[n].sort(key=lambda mw: str(mw[0]))

    def out_neighbors(self, n) -> list:
        return [m for m, _ in self.out_edges[n]]

    def in_neighbors(self, n) -> list:
        return [m for m, _ in self.in_edges[n]]

    def num_edges(self) -> int:
        return len(self.weight)


def prune_pairs(
    assignments: dict[str, Assignment],
    routes: dict[str, Route],
    model: FuelModel,
) -> list[tuple[str, str]]:
    """Ordered pairs (follower, leader) that could conceivably platoon.

    A pair survives when both routes drive some edge end to end and the
    follower, leaving at its start time, can reach that edge's end at a
    constant speed within (slightly relaxed) speed bounds exactly when the
    leader's default plan passes it. The test is sound: the admissible-merge
    region is an arc interval ending at a shared segment's end, and every
    segment end is the end of a shared edge, so feasibility there is implied
    whenever any merge point exists.

    Each edge keeps the sorted times at which leaders pass its end; a
    follower bisects for the leaders inside its reachable time window, so
    only pairs that meet on some edge are ever looked at.
    """
    v_lo = model.v_min * (1.0 - 1e-9) - 1e-9
    v_hi = model.v_max * (1.0 + 1e-9) + 1e-9

    # (edge, follower id, start time, arc at the edge's end) per driven edge.
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


class AdaptedPlans(Mapping):
    """Read-only (follower, leader) -> adapted plan over a graph's edges.

    A plan is derived with `adapted_plan` on first access and kept; the
    pipeline reads one per chosen follower, not one per edge.
    """

    def __init__(self, graph, assignments, routes, default_plans, model) -> None:
        self._weight = graph.weight
        self._args = (assignments, routes, default_plans, model)
        self._plans: dict = {}

    def __getitem__(self, key) -> VehiclePlan:
        plan = self._plans.get(key)
        if plan is None:
            if key not in self._weight:
                raise KeyError(key)
            assignments, routes, default_plans, model = self._args
            f, leader = key
            plan, _ = adapted_plan(
                assignments[f],
                routes[f],
                leader,
                default_plans[leader],
                model,
                follower_default=default_plans[f],
                segments=common_subpaths(routes[f], routes[leader]),
            )
            self._plans[key] = plan
        return plan

    def __contains__(self, key) -> bool:
        return key in self._weight

    def __iter__(self):
        return iter(self._weight)

    def __len__(self) -> int:
        return len(self._weight)


def build(
    assignments: dict[str, Assignment],
    routes: dict[str, Route],
    default_plans: dict[str, VehiclePlan],
    model: FuelModel,
    prune: bool = True,
) -> tuple[CoordinationGraph, AdaptedPlans]:
    """Coordination graph of the candidate pairs' positive savings.

    Returns the graph plus the mapping (follower, leader) -> adapted plan
    over its edges, whose plans are derived on first access.
    """
    ids = sorted(assignments)
    if prune:
        pairs = prune_pairs(assignments, routes, model)
    else:
        pairs = [(n, m) for n in ids for m in ids if n != m]
    savings = pair_savings(assignments, routes, default_plans, model, pairs)
    weights = {pair: w for pair, w in savings.items() if w > WEIGHT_FLOOR}
    graph = CoordinationGraph(ids, weights)
    return graph, AdaptedPlans(graph, assignments, routes, default_plans, model)


def save_graph_csv(g: CoordinationGraph, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["src", "dst", "saving_kg"])
        for (n, m), w in sorted(g.weight.items()):
            writer.writerow([n, m, repr(w)])


def load_graph_csv(path: str) -> CoordinationGraph:
    weights = {}
    nodes = set()
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != ["src", "dst", "saving_kg"]:
            raise ValueError(f"{path}: expected header src,dst,saving_kg")
        for row in reader:
            n, m = row["src"], row["dst"]
            nodes.update((n, m))
            weights[(n, m)] = float(row["saving_kg"])
    return CoordinationGraph(sorted(nodes), weights)
