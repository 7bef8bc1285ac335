"""Reproducible random scenarios: synthetic grid networks and assignments.

Start/destination nodes are sampled with configurable weights (uniform by
default), start times uniformly inside a window, and deadlines set to the
arrival time of a default-speed trip, optionally padded with slack. All
randomness flows through one seeded PRNG, so a (config, seed) pair fully
determines the output.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Optional

from .fuel_model import FuelModel
from .planning import Assignment
from .road_network import Position, RoadNetwork, load_network, route_length, shortest_node_route


class ScenarioError(ValueError):
    """Invalid scenario, config, report or graph input, or exhausted sampling."""


def require_int(name: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):  # a JSON true is not a count
        raise ScenarioError(f"{name} must be an integer, not {value!r}")
    return value


def require_real(name: str, value):
    """value if it is a finite JSON number; true and "0.5" are not."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ScenarioError(f"{name} must be a finite number, not {value!r}")
    return value


@dataclass
class ScenarioConfig:
    rows: int = 20
    cols: int = 20
    edge_len_m: float = 10_000.0
    n_assignments: int = 100
    start_window_s: float = 7200.0
    seed: int = 0
    deadline_slack_s: float = 0.0
    node_weights: Optional[dict] = None
    network_file: Optional[str] = None

    def __post_init__(self) -> None:
        for name in ("rows", "cols", "n_assignments", "seed"):
            require_int(name, getattr(self, name))
        for name in ("edge_len_m", "start_window_s", "deadline_slack_s"):
            require_real(name, getattr(self, name))
        for node, w in (self.node_weights or {}).items():
            if isinstance(w, bool) or not isinstance(w, (int, float)) or not 0 <= w < math.inf:
                raise ScenarioError(f"node weight of {node} must be finite and >= 0, not {w!r}")
        if self.network_file is None and (self.rows < 2 or self.cols < 2):
            raise ScenarioError("grid needs rows >= 2 and cols >= 2")
        if self.n_assignments < 0:
            raise ScenarioError("assignment count must be nonnegative")
        if self.start_window_s < 0:
            raise ScenarioError("start window must be nonnegative")
        if self.deadline_slack_s < 0:
            raise ScenarioError("deadline slack must be nonnegative")

    @classmethod
    def from_json(cls, block: dict) -> "ScenarioConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(block) - known
        if unknown:
            raise ScenarioError(f"unknown scenario config keys: {sorted(unknown)}")
        return cls(**block)


def grid_network(rows: int, cols: int, edge_len: float) -> RoadNetwork:
    """Bidirectional lattice: every undirected adjacency is two directed edges."""
    if rows < 2 or cols < 2:
        raise ScenarioError("grid needs rows >= 2 and cols >= 2")
    nodes = [f"n{r}_{c}" for r in range(rows) for c in range(cols)]
    edges = []
    for r in range(rows):
        for c in range(cols):
            here = f"n{r}_{c}"
            for rr, cc in ((r, c + 1), (r + 1, c)):
                if rr < rows and cc < cols:
                    there = f"n{rr}_{cc}"
                    edges.append((f"{here}>{there}", here, there, edge_len))
                    edges.append((f"{there}>{here}", there, here, edge_len))
    return RoadNetwork(nodes, edges)


def generate(cfg: ScenarioConfig, model: FuelModel) -> tuple[RoadNetwork, list[Assignment], dict]:
    """Sample assignments on the configured network.

    Returns (network, assignments, routes) with one shortest route per
    assignment; node pairs that coincide or are unreachable are resampled,
    and sampling aborts after 100 * n fruitless draws.
    """
    if cfg.network_file is not None:
        net = load_network(cfg.network_file)
    else:
        net = grid_network(cfg.rows, cfg.cols, cfg.edge_len_m)

    nodes = sorted(net.nodes, key=str)
    if cfg.node_weights:
        unknown = set(cfg.node_weights) - set(map(str, nodes))
        if unknown:
            raise ScenarioError(f"weights reference unknown nodes: {sorted(unknown)[:5]}")
        weights = [float(cfg.node_weights.get(str(n), 0.0)) for n in nodes]
        if sum(weights) <= 0:
            raise ScenarioError("node weights sum to zero")
    else:
        weights = None

    rng = random.Random(cfg.seed)
    assignments = []
    routes = {}
    attempts = 0
    budget = max(1, 100 * cfg.n_assignments)
    while len(assignments) < cfg.n_assignments:
        if attempts >= budget:
            raise ScenarioError(
                f"gave up after {attempts} draws: too few reachable node pairs"
            )
        attempts += 1
        if weights is None:
            u, v = rng.choice(nodes), rng.choice(nodes)
        else:
            u, v = rng.choices(nodes, weights=weights, k=2)
        if u == v:
            continue
        route = shortest_node_route(net, u, v)
        if route is None:
            continue
        aid = f"a{len(assignments):04d}"
        t_start = rng.uniform(0.0, cfg.start_window_s)
        distance = route_length(route)
        t_deadline = t_start + distance / model.v_default + cfg.deadline_slack_s
        assignments.append(
            Assignment(
                id=aid,
                start=Position(route.edges[0], 0.0),
                dest=Position(route.edges[-1], route.lengths[-1]),
                t_start=t_start,
                t_deadline=t_deadline,
            )
        )
        routes[aid] = route
    return net, assignments, routes


def save_assignments(assignments: list[Assignment], path: str) -> None:
    doc = [
        {
            "id": a.id,
            "start": {"edge": a.start.edge, "offset_m": a.start.offset},
            "dest": {"edge": a.dest.edge, "offset_m": a.dest.offset},
            "t_start_s": a.t_start,
            "t_deadline_s": a.t_deadline,
        }
        for a in assignments
    ]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_assignments(path: str) -> list[Assignment]:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, list):
        raise ScenarioError(f"{path}: expected a JSON list of assignments")
    assignments = []
    for entry in doc:
        try:
            assignments.append(
                Assignment(
                    id=str(entry["id"]),
                    start=Position(entry["start"]["edge"], float(entry["start"]["offset_m"])),
                    dest=Position(entry["dest"]["edge"], float(entry["dest"]["offset_m"])),
                    t_start=float(entry["t_start_s"]),
                    t_deadline=float(entry["t_deadline_s"]),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ScenarioError(f"{path}: malformed assignment entry {entry!r}: {exc}") from exc
    ids = [a.id for a in assignments]
    if len(set(ids)) != len(ids):
        raise ScenarioError(f"{path}: duplicate assignment ids")
    return assignments
