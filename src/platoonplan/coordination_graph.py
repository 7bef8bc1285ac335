"""Weighted directed graph of positive pairwise platooning fuel savings.

An edge (n, m) with weight w means truck n saves w kilograms by adapting
its plan to m's default plan. `build` flattens the fleet once into a
`planning.Visits` table; a sound pruning pass over it keeps the ordered
pairs, as rows of that table, that could platoon, and one array pass
(`planning.pair_savings`) gives every kept pair's saving. `build` returns
the graph with `plan_of`, which derives one edge's adapted plan when a later
stage asks for it: stage 3 asks once per chosen follower.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Callable

import numpy as np

from .fuel_model import FuelModel
from .planning import Assignment, VehiclePlan, Visits, _ranges, adapted_plan, pair_savings
from .road_network import Route, common_subpaths

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
            w = self.weight[(n, m)] = float(w)
            self.out_edges[n].append((m, w))
            self.in_edges[m].append((n, w))
        # Heaviest-first out-adjacency makes best-leader scans early-exit.
        # Ties and in-adjacency go by the neighbour's str, computed once.
        name = {n: str(n) for n in self.nodes}
        for n in self.nodes:
            self.out_edges[n].sort(key=lambda mw: (-mw[1], name[mw[0]]))
            self.in_edges[n].sort(key=lambda mw: name[mw[0]])

    def out_neighbors(self, n) -> list:
        return [m for m, _ in self.out_edges[n]]

    def in_neighbors(self, n) -> list:
        return [m for m, _ in self.in_edges[n]]

    def num_edges(self) -> int:
        return len(self.weight)


def prune_pairs(fleet: Visits, model: FuelModel) -> np.ndarray:
    """(follower, leader) truck rows of the pairs that could conceivably
    platoon, an int64 array of shape (pairs, 2) in sorted order.

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
    block of whole trucks at a time and deduplicated as int64 pair keys.
    """
    shared = fleet.hi - fleet.lo
    truck, at = _ranges(fleet.lo, shared)
    if not truck.size:
        return np.empty((0, 2), np.int64)

    t0, arc = fleet.t_start[truck], fleet.arc_end[at]
    v_lo = model.v_min * (1.0 - 1e-9) - 1e-9
    v_hi = model.v_max * (1.0 + 1e-9) + 1e-9
    passage = t0 + arc / fleet.v_default[truck]
    times, rank = np.unique(passage, return_inverse=True)
    edge = fleet.edge_code[at] * times.size
    key = edge + rank
    order = np.argsort(key)
    keys, leader = key[order], truck[order]
    first = np.searchsorted(keys, edge + np.searchsorted(times, t0 + arc / v_hi, "left"))
    count = np.searchsorted(keys, edge + np.searchsorted(times, t0 + arc / v_lo, "right")) - first

    # Blocks of whole trucks' visits, about HIT_BLOCK hits each: their keys
    # ascend from block to block, so the pairs come out sorted and unique.
    ends, last, n = np.cumsum(count), np.cumsum(shared), len(fleet.ids)
    pairs, b = [], 0
    while b < truck.size:
        stop = max(int(np.searchsorted(ends, ends[b] - count[b] + HIT_BLOCK, "right")), b + 1)
        stop = last[truck[stop - 1]]
        row, hit = _ranges(first[b:stop], count[b:stop])
        f, m = truck[b:stop][row], leader[hit]
        pairs.append(np.unique(f[f != m] * n + m[f != m]))
        b = stop
    return np.stack(np.divmod(np.concatenate(pairs), n), axis=1)


def build(
    assignments: dict[str, Assignment],
    routes: dict[str, Route],
    default_plans: dict[str, VehiclePlan],
    model: FuelModel,
) -> tuple[CoordinationGraph, Callable[[str, str], VehiclePlan]]:
    """Coordination graph of the pruned pairs' positive savings, and
    plan_of(follower, leader), which derives one edge's adapted plan and
    raises KeyError for a pair that is not an edge."""
    fleet = Visits(assignments, routes, default_plans, model)
    pairs = prune_pairs(fleet, model)
    savings = pair_savings(fleet, model, pairs)
    keep, ids = savings > WEIGHT_FLOOR, fleet.ids
    edges = zip(pairs[keep].tolist(), savings[keep].tolist())
    graph = CoordinationGraph(ids, {(ids[f], ids[m]): w for (f, m), w in edges})

    def plan_of(follower: str, leader: str) -> VehiclePlan:
        if (follower, leader) not in graph.weight:
            raise KeyError((follower, leader))
        plan, _ = adapted_plan(
            assignments[follower],
            routes[follower],
            leader,
            default_plans[leader],
            model,
            follower_default=default_plans[follower],
            segments=common_subpaths(routes[follower], routes[leader]),
        )
        return plan

    return graph, plan_of


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
            # A short row fills the missing cells with None; a long one files
            # its extra cells under the key None.
            if row["saving_kg"] is None or None in row:
                raise ValueError(f"{path}:{reader.line_num}: expected src,dst,saving_kg")
            n, m = row["src"], row["dst"]
            if (n, m) in weights:
                raise ValueError(f"{path}:{reader.line_num}: repeated pair ({n!r}, {m!r})")
            nodes.update((n, m))
            weights[(n, m)] = float(row["saving_kg"])
    return CoordinationGraph(sorted(nodes), weights)
