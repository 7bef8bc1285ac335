"""Road graph: routing against enumeration oracles, shared-subpath detection."""

import itertools
import json
import math
import random

import pytest
from scipy.sparse.csgraph import dijkstra

from platoonplan import (
    NetworkFormatError,
    Position,
    RoadNetwork,
    Route,
    VehiclePlan,
    common_subpaths,
    load_network,
    positions_coincide,
    route_length,
    sample,
    shortest_node_route,
    shortest_route,
)
from platoonplan.road_network import distance_rows

from conftest import chain_network, make_route


def _enumerate_routes(net, frm, to):
    """Brute-force oracle: all simple-node-path routes between two positions."""
    results = []
    if frm.edge == to.edge and frm.offset < to.offset:
        results.append(make_route(net, [frm.edge], frm.offset, to.offset))
    start_node = net.edge_head(frm.edge)
    end_node = net.edge_tail(to.edge)

    def walk(node, visited, edges):
        if node == end_node:
            candidate = [frm.edge, *edges, to.edge]
            ok = all(
                net.edge_head(a) == net.edge_tail(b)
                for a, b in zip(candidate, candidate[1:])
            )
            if ok:
                r = Route(
                    tuple(candidate),
                    tuple(net.edge_length(e) for e in candidate),
                    frm.offset,
                    to.offset,
                )
                if route_length(r) > 0:
                    results.append(r)
        for eid, (tail, head, _) in net.edges.items():
            if tail == node and head not in visited:
                walk(head, visited | {head}, edges + [eid])

    walk(start_node, {start_node}, [])
    return results


def test_single_edge_identity():
    net = RoadNetwork(["A", "B"], [("AB", "A", "B", 5000.0)])
    r = shortest_route(net, Position("AB", 0.0), Position("AB", 5000.0))
    assert r.edges == ("AB",)
    assert route_length(r) == 5000.0


def test_diamond_prefers_short_arm():
    net = RoadNetwork(
        ["S", "A", "B", "T"],
        [
            ("SA", "S", "A", 3000.0),
            ("AT", "A", "T", 4000.0),
            ("SB", "S", "B", 5000.0),
            ("BT", "B", "T", 5000.0),
        ],
    )
    r = shortest_node_route(net, "S", "T")
    assert route_length(r) == 7000.0
    assert r.edges == ("SA", "AT")
    # Exhaustive check on the 4-node graph.
    frm = Position("SA", 0.0)
    to = Position("AT", 4000.0)
    best = min(route_length(c) for c in _enumerate_routes(net, frm, to))
    assert route_length(shortest_route(net, frm, to)) == best


def test_unreachable_returns_none():
    net = RoadNetwork(
        ["A", "B", "C", "D"],
        [("AB", "A", "B", 1000.0), ("CD", "C", "D", 1000.0)],
    )
    assert shortest_node_route(net, "A", "D") is None
    assert shortest_route(net, Position("AB", 0.0), Position("CD", 500.0)) is None


def test_route_length_examples():
    net = chain_network([5000.0, 4000.0])
    single = make_route(net, ["e0"], 0.0, 5000.0)
    assert route_length(single) == 5000.0
    two = make_route(net, ["e0", "e1"], 1000.0, 2000.0)
    assert route_length(two) == 5000.0 - 1000.0 + 2000.0
    boundary = make_route(net, ["e0", "e1"], 1500.0, 0.0)
    assert route_length(boundary) == 5000.0 - 1500.0


def test_route_length_additive_under_concatenation():
    rng = random.Random(5)
    for _ in range(20):
        lengths = [rng.uniform(100, 5000) for _ in range(6)]
        net = chain_network(lengths)
        k = rng.randint(1, 5)
        first = make_route(net, [f"e{i}" for i in range(k)], 0.0, lengths[k - 1])
        second = make_route(net, [f"e{i}" for i in range(k, 6)], 0.0, lengths[5])
        joined = make_route(net, [f"e{i}" for i in range(6)], 0.0, lengths[5])
        assert route_length(first) + route_length(second) == pytest.approx(
            route_length(joined), abs=1e-9
        )


def _route(edge_ids, lengths=None, start_offset=0.0, dest_offset=None):
    lengths = lengths or tuple(1000.0 for _ in edge_ids)
    if dest_offset is None:
        dest_offset = lengths[-1]
    return Route(tuple(edge_ids), tuple(lengths), start_offset, dest_offset)


def _brute_force_common_runs(a, b):
    """Oracle: all maximal contiguous index pairs matching in both routes."""
    runs = set()
    for i in range(len(a.edges)):
        for j in range(len(b.edges)):
            if a.edges[i] != b.edges[j]:
                continue
            if i > 0 and j > 0 and a.edges[i - 1] == b.edges[j - 1]:
                continue
            k = 0
            while (
                i + k < len(a.edges)
                and j + k < len(b.edges)
                and a.edges[i + k] == b.edges[j + k]
            ):
                k += 1
            runs.add((i, i + k - 1, j, j + k - 1))
    return runs


def test_common_subpaths_middle_overlap():
    a = _route(["e1", "e2", "e3"])
    b = _route(["e9", "e2", "e3", "e7"])
    segs = common_subpaths(a, b)
    assert len(segs) == 1
    seg = segs[0]
    assert (seg.a_start, seg.a_end, seg.b_start, seg.b_end) == (1, 2, 1, 2)
    assert seg.length_m == 2000.0


def test_common_subpaths_identity():
    a = _route(["e1", "e2", "e3"])
    segs = common_subpaths(a, a)
    assert len(segs) == 1
    assert (segs[0].a_start, segs[0].a_end) == (0, 2)
    assert segs[0].length_m == 3000.0


def test_common_subpaths_two_segments():
    a = _route(["e1", "e2", "e5", "e3", "e4"])
    b = _route(["e2", "e9", "e3", "e4"])
    segs = common_subpaths(a, b)
    got = {(s.a_start, s.a_end, s.b_start, s.b_end) for s in segs}
    assert got == _brute_force_common_runs(a, b)
    assert {(s.a_start, s.a_end) for s in segs} == {(1, 1), (3, 4)}


def test_common_subpaths_exclude_partial_boundary_edges():
    a = _route(["e1", "e2", "e3"], start_offset=100.0)  # e1 only partly driven
    b = _route(["e1", "e2", "e3"])
    segs = common_subpaths(a, b)
    assert len(segs) == 1
    assert (segs[0].a_start, segs[0].a_end) == (1, 2)
    c = _route(["e1", "e2", "e3"], dest_offset=10.0)  # e3 partial
    segs = common_subpaths(b, c)
    assert {(s.b_start, s.b_end) for s in segs} == {(0, 1)}


def test_common_subpaths_properties_random():
    """Disjoint in both routes, maximal, within-run order preserved."""
    rng = random.Random(13)
    alphabet = [f"e{i}" for i in range(12)]
    for _ in range(300):
        a_edges = rng.sample(alphabet, rng.randint(1, 8))
        b_edges = rng.sample(alphabet, rng.randint(1, 8))
        a, b = _route(a_edges), _route(b_edges)
        segs = common_subpaths(a, b)
        assert {(s.a_start, s.a_end, s.b_start, s.b_end) for s in segs} == (
            _brute_force_common_runs(a, b)
        )
        seen_a, seen_b = set(), set()
        for s in segs:
            idx_a = set(range(s.a_start, s.a_end + 1))
            idx_b = set(range(s.b_start, s.b_end + 1))
            assert not (idx_a & seen_a) and not (idx_b & seen_b)
            seen_a |= idx_a
            seen_b |= idx_b
            assert a.edges[s.a_start : s.a_end + 1] == b.edges[s.b_start : s.b_end + 1]
            # Maximality: extending one edge in either direction breaks the match.
            if s.a_start > 0 and s.b_start > 0:
                assert a.edges[s.a_start - 1] != b.edges[s.b_start - 1]
            if s.a_end + 1 < len(a.edges) and s.b_end + 1 < len(b.edges):
                assert a.edges[s.a_end + 1] != b.edges[s.b_end + 1]


def test_common_subpaths_respects_partial_edges_random():
    """With random boundary offsets, only end-to-end-driven edges match."""
    rng = random.Random(29)
    alphabet = [f"e{i}" for i in range(10)]
    for _ in range(300):
        a_edges = rng.sample(alphabet, rng.randint(1, 7))
        b_edges = rng.sample(alphabet, rng.randint(1, 7))
        lengths_a = tuple(rng.uniform(500, 3000) for _ in a_edges)
        lengths_b = tuple(rng.uniform(500, 3000) for _ in b_edges)
        a = Route(tuple(a_edges), lengths_a,
                  rng.choice([0.0, rng.uniform(1, lengths_a[0])]),
                  rng.choice([lengths_a[-1], rng.uniform(1, lengths_a[-1])]))
        b = Route(tuple(b_edges), lengths_b,
                  rng.choice([0.0, rng.uniform(1, lengths_b[0])]),
                  rng.choice([lengths_b[-1], rng.uniform(1, lengths_b[-1])]))

        # Oracle: mask out partially driven boundary edges, then enumerate
        # maximal runs over the surviving index windows.
        def window(route):
            lo = 0 if route.start_offset == 0.0 else 1
            hi = (len(route.edges) - 1
                  if route.dest_offset == route.lengths[-1]
                  else len(route.edges) - 2)
            return lo, hi

        a_lo, a_hi = window(a)
        b_lo, b_hi = window(b)
        expected = set()
        for i in range(a_lo, a_hi + 1):
            for j in range(b_lo, b_hi + 1):
                if a.edges[i] != b.edges[j]:
                    continue
                if i > a_lo and j > b_lo and a.edges[i - 1] == b.edges[j - 1]:
                    continue
                k = 0
                while (i + k <= a_hi and j + k <= b_hi
                       and a.edges[i + k] == b.edges[j + k]):
                    k += 1
                expected.add((i, i + k - 1, j, j + k - 1))
        got = {(s.a_start, s.a_end, s.b_start, s.b_end) for s in common_subpaths(a, b)}
        assert got == expected


def test_shortest_route_optimal_on_random_small_graphs():
    rng = random.Random(99)
    for trial in range(40):
        n = rng.randint(3, 8)
        nodes = [f"v{i}" for i in range(n)]
        edges = []
        for u, v in itertools.permutations(range(n), 2):
            if rng.random() < 0.35:
                edges.append((f"x{u}_{v}", nodes[u], nodes[v], rng.uniform(100, 9000)))
        if len(edges) < 2:
            continue
        net = RoadNetwork(nodes, edges)
        e_from, e_to = rng.sample(edges, 2)
        frm = Position(e_from[0], rng.uniform(0, e_from[3]))
        to = Position(e_to[0], rng.uniform(0, e_to[3]))
        got = shortest_route(net, frm, to)
        candidates = _enumerate_routes(net, frm, to)
        if got is None:
            assert not candidates
        else:
            assert route_length(got) == pytest.approx(
                min(route_length(c) for c in candidates), rel=1e-12
            )


def test_positions_coincide_at_node_boundary():
    net = chain_network([1000.0, 2000.0])
    end_of_first = Position("e0", 1000.0)
    start_of_second = Position("e1", 0.0)
    assert positions_coincide(net, end_of_first, start_of_second)
    assert positions_coincide(net, Position("e1", 500.0), Position("e1", 500.0 + 1e-7))
    assert not positions_coincide(net, Position("e1", 500.0), Position("e1", 502.0))
    assert not positions_coincide(net, end_of_first, Position("e1", 2000.0))


def test_network_loader_roundtrip(tmp_path):
    path = tmp_path / "net.json"
    doc = {
        "nodes": [{"id": "A"}, {"id": "B"}],
        "edges": [{"id": "AB", "from": "A", "to": "B", "length_m": 1234.5}],
    }
    path.write_text(json.dumps(doc))
    net = load_network(str(path))
    assert net.edge_length("AB") == 1234.5


def test_network_loader_rejects_bad_files(tmp_path):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{nope")
    with pytest.raises(NetworkFormatError) as err:
        load_network(str(bad_json))
    assert "bad.json:1" in str(err.value)

    missing_node = tmp_path / "missing.json"
    missing_node.write_text(
        json.dumps(
            {
                "nodes": [{"id": "A"}],
                "edges": [{"id": "AB", "from": "A", "to": "B", "length_m": 10}],
            }
        )
    )
    with pytest.raises(NetworkFormatError):
        load_network(str(missing_node))

    # The second edge (line 5) names an unknown node: the error points there.
    unknown_node = tmp_path / "badnet.json"
    unknown_node.write_text(
        "{\n"
        '  "nodes": [{"id": "A"}, {"id": "B"}],\n'
        '  "edges": [\n'
        '    {"id": "AB", "from": "A", "to": "B", "length_m": 10},\n'
        '    {"id": "BZ", "from": "B", "to": "Z", "length_m": 10}\n'
        "  ]\n"
        "}\n"
    )
    with pytest.raises(NetworkFormatError) as err:
        load_network(str(unknown_node))
    assert "badnet.json:5: edge 'BZ' references unknown node 'Z'" in str(err.value)

    bad_length = tmp_path / "len.json"
    bad_length.write_text(
        json.dumps(
            {
                "nodes": [{"id": "A"}, {"id": "B"}],
                "edges": [{"id": "AB", "from": "A", "to": "B", "length_m": -5}],
            }
        )
    )
    with pytest.raises(NetworkFormatError) as err:
        load_network(str(bad_length))
    assert "AB" in str(err.value)

    bool_length = tmp_path / "bool.json"
    bool_length.write_text(
        json.dumps(
            {
                "nodes": [{"id": "A"}, {"id": "B"}],
                "edges": [{"id": "AB", "from": "A", "to": "B", "length_m": True}],
            }
        )
    )
    with pytest.raises(NetworkFormatError) as err:
        load_network(str(bool_length))
    assert "edge 'AB' has invalid length_m True" in str(err.value)


def test_network_invariants_enforced():
    with pytest.raises(NetworkFormatError):
        RoadNetwork(["A", "B"], [("e", "A", "B", 10.0), ("e", "B", "A", 10.0)])
    with pytest.raises(NetworkFormatError):
        RoadNetwork(["A", "B"], [("e1", "A", "B", 10.0), ("e2", "A", "B", 10.0)])
    with pytest.raises(NetworkFormatError):
        RoadNetwork(["A"], [("e1", "A", "B", 10.0)])


def test_route_cache_never_crosses_networks_with_shared_node_names():
    """Same node names, different edges: each network gets its own tree."""

    def diamond(direct_m):
        return RoadNetwork(
            ["S", "A", "B", "C", "T"],
            [
                ("in", "S", "A", 1000.0),
                ("ab", "A", "B", direct_m),
                ("ac", "A", "C", 10.0),
                ("cb", "C", "B", 10.0),
                ("out", "B", "T", 1000.0),
            ],
        )

    short, detour = diamond(1.0), diamond(100.0)
    frm, to = Position("in", 0.0), Position("out", 1000.0)
    for _ in range(2):
        assert shortest_route(short, frm, to).edges == ("in", "ab", "out")
        assert shortest_route(detour, frm, to).edges == ("in", "ac", "cb", "out")


def test_batched_distance_rows_equal_lone_rows():
    """One csgraph call for a batch of sources gives each source's lone row bit for bit."""
    rng = random.Random(3)
    pairs = {(rng.randrange(30), rng.randrange(30)) for _ in range(120)}
    net = RoadNetwork(
        range(30),
        [(f"e{k}", u, v, rng.uniform(1.0, 1000.0)) for k, (u, v) in enumerate(pairs) if u != v],
    )
    sources = rng.sample(range(30), 12)
    batch = distance_rows(net, sources)
    assert batch.shape == (12, 30)
    for source, row in zip(sources, batch):
        assert row.tolist() == distance_rows(net, [source])[0].tolist()
        assert row.tolist() == dijkstra(net.csr, indices=net.index[source]).tolist()


def test_route_ties_break_to_the_first_settled_node():
    """Two equal paths S -> A -> T and S -> B -> T: the heap settles A first."""
    net = RoadNetwork(
        ["S", "A", "B", "T"],
        [("sb", "S", "B", 0.2), ("bt", "B", "T", 0.1),
         ("sa", "S", "A", 0.2), ("at", "A", "T", 0.1)],
    )
    assert shortest_node_route(net, "S", "T").edges == ("sa", "at")
    # 0.1 + 0.2 rounds one ulp above 0.15 + 0.15 == 0.3. A settles first,
    # but only B's relaxation reaches T's distance; a tolerant comparison
    # would pick A.
    net = RoadNetwork(
        ["S", "A", "B", "T"],
        [("sa", "S", "A", 0.1), ("at", "A", "T", 0.2),
         ("sb", "S", "B", 0.15), ("bt", "B", "T", 0.15)],
    )
    assert shortest_node_route(net, "S", "T").edges == ("sb", "bt")


def test_route_through_lengths_absorbed_by_rounding():
    """1e16 + 1.0 == 1e16, so z, y and x would all lie at one distance and
    the distances could no longer order a route through them: the network
    is rejected, naming one of its 1 m edges."""
    with pytest.raises(NetworkFormatError, match="rounding could absorb") as exc:
        RoadNetwork(
            ["S", "z", "y", "x"],
            [("sz", "S", "z", 1e16), ("zy", "z", "y", 1.0), ("yx", "y", "x", 1.0)],
        )
    assert exc.value.edge_id in ("zy", "yx")
    assert repr(exc.value.edge_id) in str(exc.value)


@pytest.mark.parametrize(
    "nodes, edges",
    [
        pytest.param([[1], "A"], [], id="unhashable-node"),
        pytest.param(["A", "B"], [(["e"], "A", "B", 1.0)], id="unhashable-edge"),
        pytest.param(["A", 1], [("e", "A", 1, 1.0)], id="int-among-str-nodes"),
    ],
)
def test_unroutable_ids_raise_network_format_error(nodes, edges):
    with pytest.raises(NetworkFormatError, match="wrong type of id"):
        RoadNetwork(nodes, edges)


def test_route_geometry_on_partial_chain_with_fractional_lengths():
    """Arcs, shareable edges and sampling at boundaries, departure and the end."""
    lengths = [1234.567, 2000.1, 777.7, 3100.33]
    net = chain_network(lengths)
    r = make_route(net, ["e0", "e1", "e2", "e3"], 400.25, 1500.3)
    for i in range(len(lengths) + 1):
        assert r.arc_at_edge_start(i) == pytest.approx(sum(lengths[:i]) - 400.25, abs=1e-9)
    assert r.arc_at_edge_start(len(r.edges)) == pytest.approx(
        route_length(r) + lengths[-1] - 1500.3, abs=1e-9
    )

    # Speed 16 m/s: t = arc / 16 is exact, so the plan reaches each arc exactly.
    plan = VehiclePlan(r, (16.0,), (0.0, route_length(r) / 16.0), (0,))
    assert sample(plan, 0.0).position == Position("e0", 400.25)
    for i in range(1, len(lengths)):
        at = sample(plan, r.arc_at_edge_start(i) / 16.0).position
        assert at.edge == f"e{i - 1}"
        assert at.offset == pytest.approx(lengths[i - 1], abs=1e-9)
        assert positions_coincide(net, at, Position(f"e{i}", 0.0))
        after = sample(plan, math.nextafter(r.arc_at_edge_start(i) / 16.0, math.inf)).position
        assert after.edge == f"e{i}" and 0.0 < after.offset < 1e-9
    end = sample(plan, math.nextafter(plan.times[-1], 0.0)).position
    assert end.edge == "e3" and end.offset == pytest.approx(1500.3, abs=1e-9)

    assert r.shareable == range(1, 3)  # partial first and last edges
    assert make_route(net, ["e0", "e1", "e2", "e3"], 0.0, lengths[-1]).shareable == range(4)
    assert make_route(net, ["e0", "e1"], 0.0, 5.0).shareable == range(1)
    assert make_route(net, ["e1", "e2"], 1.0, lengths[2]).shareable == range(1, 2)
    assert make_route(net, ["e1"], 0.0, lengths[1]).shareable == range(1)
    single = make_route(net, ["e1"], 10.5, 900.0)
    assert len(single.shareable) == 0
    assert common_subpaths(single, single) == []
