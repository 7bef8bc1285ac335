"""Weighted directed graph of positive pairwise platooning fuel savings.

An edge (n, m) with weight w means truck n saves w kilograms by adapting
its plan to m's default plan. A sound pruning pass keeps the candidate
ordered pairs that could platoon; one array pass (`planning.pair_savings`)
gives every kept pair's saving. An edge's adapted plan is derived only when
a later stage asks for it.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Mapping

import numpy as np

from .fuel_model import FuelModel
from .planning import Assignment, VehiclePlan, _ranges, adapted_plan, default_speed, pair_savings
from .road_network import Route, common_subpaths, route_length

WEIGHT_FLOOR = 1e-12  # savings at or below this are float dust, not edges
# prune_pairs expands the leaders inside its visits' windows about this many
# hits at a time, so it never holds all of them (288k on a 3200-truck grid
# fleet). Smaller blocks cost no measurable time there, and in the fleet-800
# benchmark they kept peak RSS 0.3-0.6 MiB lower than blocks of 2**15.
HIT_BLOCK = 2**12


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

    One row per visit, a truck driving a shareable edge: the time its
    default plan passes the edge's end and the follower's reachable window
    there, with the float operations of the scalar test. Each passage time
    becomes its exact rank among the distinct times (one np.unique), and
    each window bound the count of distinct times below it, or at most it
    (a searchsorted). So sorted int64 (edge, rank) keys compare as (edge,
    time) do, and one searchsorted per bound finds the leaders inside a
    window as bisect_left and bisect_right would. The hits are expanded a
    block of whole trucks at a time and deduplicated as int64 pair keys in
    sorted-id order.
    """
    speed = {
        n: default_speed(model, route_length(routes[n]), a.t_deadline - a.t_start)
        for n, a in assignments.items()
    }
    ids = sorted(assignments)
    rs = [routes[n] for n in ids]
    sizes = np.array([len(r.edges) for r in rs], dtype=np.int64)
    codes: dict = {}
    edge_code = np.array([codes.setdefault(e, len(codes)) for r in rs for e in r.edges], np.int64)
    # Arc at each edge's end, prefix[i + 1] - start_offset as Route has it.
    arc_end = np.array([x for r in rs for x in r.prefix[1:]]) - np.repeat(
        np.array([r.start_offset for r in rs]), sizes
    )
    lo = np.cumsum(sizes) - sizes + np.array([r.shareable.start for r in rs], dtype=np.int64)
    shared = np.array([len(r.shareable) for r in rs], dtype=np.int64)
    truck, at = _ranges(lo, shared)
    if not truck.size:
        return []

    t0, arc = np.array([assignments[n].t_start for n in ids])[truck], arc_end[at]
    v_lo = model.v_min * (1.0 - 1e-9) - 1e-9
    v_hi = model.v_max * (1.0 + 1e-9) + 1e-9
    passage = t0 + arc / np.array([speed[n] for n in ids])[truck]
    times, rank = np.unique(passage, return_inverse=True)
    edge = edge_code[at] * times.size
    key = edge + rank
    order = np.argsort(key)
    keys, leader = key[order], truck[order]
    first = np.searchsorted(keys, edge + np.searchsorted(times, t0 + arc / v_hi, "left"))
    count = np.searchsorted(keys, edge + np.searchsorted(times, t0 + arc / v_lo, "right")) - first

    # Blocks of whole trucks' visits, about HIT_BLOCK hits each: their keys
    # ascend from block to block, so the pairs come out sorted and unique.
    ends, last, names = np.cumsum(count), np.cumsum(shared), np.array(ids, dtype=object)
    pairs, b = [], 0
    while b < truck.size:
        stop = max(int(np.searchsorted(ends, ends[b] - count[b] + HIT_BLOCK, "right")), b + 1)
        stop = last[truck[stop - 1]]
        row, hit = _ranges(first[b:stop], count[b:stop])
        f, m = truck[b:stop][row], leader[hit]
        k, j = np.divmod(np.unique(f[f != m] * len(ids) + m[f != m]), len(ids))
        pairs += zip(names[k].tolist(), names[j].tolist())
        b = stop
    return pairs


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
