"""Directed road graph, positions, shortest-path routing, shared subpaths.

Positions are (edge id, offset in meters along that edge). Routes are edge
sequences with a start offset on the first edge and a destination offset on
the last edge; the distance covered is

    D = sum(length(e_i) for i in range(N - 1)) + dest_offset - start_offset.

A route owns its geometry: the arc (distance from the route start) at which
each edge begins, the distance covered, and the range of edges it drives
end to end. Other modules ask the route instead of re-summing lengths.

Shortest paths take one scipy csgraph Dijkstra call per source, which gives
the distances only. Each path is rebuilt backwards from them by the tie rule
of a heap Dijkstra that pops the smallest (distance, node) and records a
predecessor only on a strict improvement: a node's predecessor is the first
node to settle whose relaxation reaches the node's final distance. Among
equally short paths, that picks the same one as the heap loop.

All operations are pure functions of immutable inputs.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import re
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra


class NetworkFormatError(ValueError):
    """Raised when a network file violates the schema or graph invariants.

    edge_id names the offending edge, when there is one.
    """

    def __init__(self, msg: str, edge_id=None) -> None:
        super().__init__(msg)
        self.edge_id = edge_id


@dataclass(frozen=True)
class Position:
    edge: str
    offset: float


@dataclass(frozen=True)
class SharedSegment:
    """A maximal run of edges two routes traverse identically and in order.

    Index ranges are inclusive and refer to edge positions within each route.
    """

    a_start: int
    a_end: int
    b_start: int
    b_end: int
    length_m: float


class RoadNetwork:
    """Directed graph with strictly positive edge lengths.

    At most one edge per ordered node pair; edge ids are unique. Every length
    exceeds 2**-52 of the summed lengths, so no distance absorbs one.
    """

    def __init__(self, nodes: Iterable, edges: Iterable[tuple]) -> None:
        """edges: iterable of (edge_id, from_node, to_node, length_m).

        Ids must be hashable, and node ids mutually ordered (all str, or all
        numbers): routing numbers the nodes in sorted order.
        """
        self.edges: dict = {}
        seen_pairs = set()
        try:
            self.nodes = set(nodes)
            for eid, u, v, length in edges:
                if eid in self.edges:
                    raise NetworkFormatError(f"duplicate edge id {eid!r}", eid)
                if u not in self.nodes:
                    raise NetworkFormatError(f"edge {eid!r} references unknown node {u!r}", eid)
                if v not in self.nodes:
                    raise NetworkFormatError(f"edge {eid!r} references unknown node {v!r}", eid)
                if not (0 < length < math.inf):
                    raise NetworkFormatError(f"edge {eid!r} has invalid length {length}", eid)
                if (u, v) in seen_pairs:
                    raise NetworkFormatError(
                        f"duplicate edge for node pair ({u!r}, {v!r})", eid
                    )
                seen_pairs.add((u, v))
                self.edges[eid] = (u, v, float(length))
            self.node_order = sorted(self.nodes)
        except TypeError as exc:
            raise NetworkFormatError(f"wrong type of id or length: {exc}") from exc

        # Routing structures, by node position in node_order: each node's
        # in-edges (tail, edge id, length) and the CSR length matrix for
        # csgraph, built row by row (a COO build costs more memory).
        self.index = {n: i for i, n in enumerate(self.node_order)}
        self.in_edges: list = [[] for _ in self.node_order]
        out: list = [[] for _ in self.node_order]
        for eid, (u, v, length) in self.edges.items():
            i, j = self.index[u], self.index[v]
            self.in_edges[j].append((i, eid, length))
            out[i].append((j, length))
        arcs = [arc for row in out for arc in row]
        self.csr = csr_matrix(
            (
                np.array([length for _, length in arcs], dtype=float),
                np.array([j for j, _ in arcs], dtype=np.int32),
                np.array(list(itertools.accumulate(map(len, out), initial=0)), dtype=np.int32),
            ),
            shape=(len(out), len(out)),
        )
        # fl(d + length) == d needs length <= ulp(d)/2 <= d * 2**-53, and no
        # distance reaches twice the summed lengths: above this ratio no
        # length is absorbed by rounding, so every edge of a shortest path
        # strictly increases the distance and the routes' tie rule holds.
        lengths = self.csr.data
        if lengths.size and lengths.min() * 2.0**52 <= lengths.sum():
            eid = min(self.edges, key=self.edge_length)
            raise NetworkFormatError(
                f"edge {eid!r} has length {self.edge_length(eid)}, at most 2**-52 of the"
                f" summed lengths {lengths.sum()}: rounding could absorb it",
                eid,
            )

    def edge_length(self, eid: str) -> float:
        return self.edges[eid][2]

    def edge_tail(self, eid: str):
        return self.edges[eid][0]

    def edge_head(self, eid: str):
        return self.edges[eid][1]

    def check_position(self, p: Position) -> None:
        if p.edge not in self.edges:
            raise ValueError(f"position references unknown edge {p.edge!r}")
        if not (0.0 <= p.offset <= self.edge_length(p.edge)):
            raise ValueError(
                f"offset {p.offset} outside [0, {self.edge_length(p.edge)}] on edge {p.edge!r}"
            )


@dataclass(frozen=True)
class Route:
    """Connected edge path with boundary offsets; lengths and their prefix sums are cached."""

    edges: tuple
    lengths: tuple
    start_offset: float
    dest_offset: float

    @functools.cached_property
    def prefix(self) -> tuple:
        """prefix[i] = summed length of the first i edges, added left to right."""
        return tuple(itertools.accumulate(self.lengths, initial=0.0))

    def arc_at_edge_start(self, i: int) -> float:
        """Distance from the route start to the start node of edge i (i <= len(edges))."""
        return self.prefix[i] - self.start_offset

    @property
    def shareable(self) -> range:
        """Indices of the edges driven end to end; empty if there are none.

        A partially driven first or last edge is excluded: two vehicles can
        only pair up on edges both drive end to end.
        """
        lo = 0 if self.start_offset == 0.0 else 1
        hi = len(self.edges) if self.dest_offset == self.lengths[-1] else len(self.edges) - 1
        return range(lo, hi)


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


def route_length(r: Route) -> float:
    """Distance covered by the route (arrival-condition bookkeeping)."""
    return r.prefix[-2] + r.dest_offset - r.start_offset


@functools.lru_cache(maxsize=1)
def _dijkstra(net: RoadNetwork, source) -> list:
    """Distance from a source node to each node in `net.node_order`; inf if unreachable.

    The last tree is kept, so consecutive queries from one source (routes
    grouped by exit node) cost one search. Networks hash by identity, so a
    tree never serves another network object; callers must not mutate the
    returned list.
    """
    return dijkstra(net.csr, indices=net.index[source]).tolist()


def _node_path_edges(net: RoadNetwork, source, target) -> Optional[list]:
    """Edge ids of the shortest path from source to target, or None if unreachable.

    The path is rebuilt backwards from the distances by the rule a heap
    Dijkstra implements: a node's predecessor is the first node to settle
    whose relaxation reaches the node's final distance. Among the in-edges
    u -> v with dist[u] + length == dist[v] (exact float equality), that is
    the u that settles first. Nodes settle in (dist[u], u) order, with ids
    compared in `net.node_order`, and every such u has dist[u] < dist[v]
    since no length is absorbed by rounding, so the walk stays finite.
    """
    dist = _dijkstra(net, source)
    v = net.index.get(target)
    if v is None or dist[v] == math.inf:
        return None
    s = net.index[source]
    edges = []
    while v != s:
        _, v, eid = min(
            (dist[u], u, eid)
            for u, eid, length in net.in_edges[v]
            if dist[u] + length == dist[v]
        )
        edges.append(eid)
    edges.reverse()
    return edges


def shortest_node_route(net: RoadNetwork, u, v) -> Optional[Route]:
    """Minimum-length route between two distinct nodes, or None if unreachable."""
    if u == v:
        raise ValueError("start and destination nodes coincide")
    edges = _node_path_edges(net, u, v)
    if edges is None:
        return None
    lengths = tuple(map(net.edge_length, edges))
    return Route(tuple(edges), lengths, 0.0, lengths[-1])


def shortest_route(net: RoadNetwork, frm: Position, to: Position) -> Optional[Route]:
    """Minimum-length route from one position to another, or None.

    The vehicle is already on frm.edge and can only move forward along it,
    so every returned route starts with frm.edge and ends with to.edge. A
    destination ahead on frm.edge is reached along it; other routes loop.
    """
    net.check_position(frm)
    net.check_position(to)
    if frm.edge == to.edge and frm.offset < to.offset:
        return Route((frm.edge,), (net.edge_length(frm.edge),), frm.offset, to.offset)
    if frm == to:
        raise ValueError("start and destination positions coincide")
    middle = _node_path_edges(net, net.edge_head(frm.edge), net.edge_tail(to.edge))
    if middle is None:
        return None
    edges = (frm.edge, *middle, to.edge)
    route = Route(edges, tuple(map(net.edge_length, edges)), frm.offset, to.offset)
    return route if route_length(route) > 0 else None


def common_subpaths(a: Route, b: Route) -> list[SharedSegment]:
    """All maximal runs of edges appearing contiguously and in order in both routes.

    Only edges both routes drive end to end (`Route.shareable`) count.
    Segments come in order of their start in `a`.
    """
    sa, sb = a.shareable, b.shareable
    positions_in_b: dict = {}
    for j in sb:
        positions_in_b.setdefault(b.edges[j], []).append(j)

    segments = []
    for i in sa:
        for j in positions_in_b.get(a.edges[i], ()):
            # Only start a run at a maximal left end.
            if i > sa.start and j > sb.start and a.edges[i - 1] == b.edges[j - 1]:
                continue
            k = 1
            while i + k < sa.stop and j + k < sb.stop and a.edges[i + k] == b.edges[j + k]:
                k += 1
            segments.append(SharedSegment(i, i + k - 1, j, j + k - 1, sum(a.lengths[i : i + k])))
    return segments


def positions_coincide(net: RoadNetwork, p: Position, q: Position, tol: float = 1e-6) -> bool:
    """Whether two positions denote the same road point within tol meters.

    An offset at an edge end and offset 0 of a following edge are the same
    physical point (the shared node), so boundary representations are
    normalized before comparing.
    """

    def canonical(pos: Position):
        length = net.edge_length(pos.edge)
        if pos.offset <= tol:
            return ("node", net.edge_tail(pos.edge))
        if pos.offset >= length - tol:
            return ("node", net.edge_head(pos.edge))
        return ("edge", pos.edge)

    ca, cb = canonical(p), canonical(q)
    if ca[0] == "node" or cb[0] == "node":
        return ca == cb
    return p.edge == q.edge and abs(p.offset - q.offset) <= tol


# ---------------------------------------------------------------------------
# Network file I/O: {"nodes": [{"id": ...}], "edges": [{"id", "from", "to", "length_m"}]}
# ---------------------------------------------------------------------------


def _edge_line(text: str, eid) -> Optional[int]:
    """Line of the first edge entry whose "id" is eid, or None if not found."""
    edges = re.search(r'"edges"\s*:', text)
    value = re.escape(json.dumps(eid, ensure_ascii=False))
    entry = re.compile(r'"id"\s*:\s*' + value + r"(?=\s*[,}])")
    found = entry.search(text, edges.end() if edges else 0)
    return text.count("\n", 0, found.start()) + 1 if found else None


def load_network(path: str) -> RoadNetwork:
    """Parse and validate a network JSON file.

    Errors carry the file path and, where derivable, the offending line.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise NetworkFormatError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from exc

    def fail(msg: str, eid=None) -> NetworkFormatError:
        ln = _edge_line(text, eid) if eid is not None else None
        loc = f"{path}:{ln}" if ln else path
        return NetworkFormatError(f"{loc}: {msg}")

    if not isinstance(doc, dict) or "nodes" not in doc or "edges" not in doc:
        raise fail("expected an object with 'nodes' and 'edges' arrays")
    for key in ("nodes", "edges"):
        if not isinstance(doc[key], list):
            raise fail(f"'{key}' must be an array, not {doc[key]!r}")
    nodes = []
    for entry in doc["nodes"]:
        if not isinstance(entry, dict) or "id" not in entry:
            raise fail(f"node entry {entry!r} lacks an 'id'")
        nodes.append(entry["id"])
    edge_tuples = []
    for entry in doc["edges"]:
        if not isinstance(entry, dict):
            raise fail(f"edge entry {entry!r} is not an object")
        missing = [k for k in ("id", "from", "to", "length_m") if k not in entry]
        if missing:
            raise fail(f"edge entry {entry.get('id', entry)!r} missing {missing}", entry.get("id"))
        length = entry["length_m"]
        # bool is an int subclass: a JSON true must not load as a 1 m edge.
        if isinstance(length, bool) or not isinstance(length, (int, float)) or not length > 0:
            raise fail(f"edge {entry['id']!r} has invalid length_m {length!r}", entry["id"])
        edge_tuples.append((entry["id"], entry["from"], entry["to"], float(length)))
    try:
        return RoadNetwork(nodes, edge_tuples)
    except NetworkFormatError as exc:
        raise fail(str(exc), exc.edge_id) from exc


def save_network(net: RoadNetwork, path: str) -> None:
    doc = {
        "nodes": [{"id": n} for n in sorted(net.nodes, key=str)],
        "edges": [
            {"id": eid, "from": u, "to": v, "length_m": length}
            for eid, (u, v, length) in sorted(net.edges.items(), key=lambda kv: str(kv[0]))
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
