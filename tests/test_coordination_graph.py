"""Coordination graph: edge semantics, pruning soundness, plan cache."""

import math

import pytest

from platoonplan import Assignment, Position, build, default_plan, make_route, prune_pairs
from platoonplan.coordination_graph import CoordinationGraph, load_graph_csv, save_graph_csv
from platoonplan.planning import default_speed
from platoonplan.road_network import route_length
from platoonplan.scenario import ScenarioConfig, generate

from conftest import _reference_prune_pairs, bisect_prune_pairs, chain_network


def _defaults(model, assignments, routes):
    return {a.id: default_plan(a, routes[a.id], model) for a in assignments.values()}


def test_disjoint_routes_give_empty_graph(model):
    net = chain_network([10_000.0] * 6)
    r1 = make_route(net, ["e0", "e1", "e2"], 0.0, 10_000.0)
    r2 = make_route(net, ["e3", "e4", "e5"], 0.0, 10_000.0)
    window = 30_000.0 / model.v_default
    assignments = {
        "a": Assignment("a", Position("e0", 0.0), Position("e2", 10_000.0), 0.0, window),
        "b": Assignment("b", Position("e3", 0.0), Position("e5", 10_000.0), 0.0, window),
    }
    routes = {"a": r1, "b": r2}
    graph, cache = build(assignments, routes, _defaults(model, assignments, routes), model)
    assert graph.num_edges() == 0
    assert cache == {}


def test_worked_pair_produces_edge_with_known_weight(model, worked_pair):
    _, leader, leader_route, follower, follower_route = worked_pair
    assignments = {leader.id: leader, follower.id: follower}
    routes = {leader.id: leader_route, follower.id: follower_route}
    graph, cache = build(assignments, routes, _defaults(model, assignments, routes), model)
    assert ("follower", "leader") in graph.weight
    assert graph.weight[("follower", "leader")] == pytest.approx(2.98, abs=0.01)
    assert ("follower", "leader") in cache


def test_one_directional_edge_when_leader_finishes_first(model):
    """B ends before A starts, so only (B follows A) can exist."""
    net = chain_network([10_000.0] * 5)
    route = make_route(net, [f"e{i}" for i in range(5)], 0.0, 10_000.0)
    window = 50_000.0 / model.v_default
    a = Assignment("a", Position("e0", 0.0), Position("e4", 10_000.0), 5000.0, 5000.0 + window)
    b = Assignment("b", Position("e0", 0.0), Position("e4", 10_000.0), 0.0, window)
    assignments = {"a": a, "b": b}
    routes = {"a": route, "b": route}
    graph, _ = build(assignments, routes, _defaults(model, assignments, routes), model)
    # b arrives at 2250 s, long before a departs at 5000 s: no pairing at all.
    assert graph.num_edges() == 0
    pairs = prune_pairs(assignments, routes, model)
    assert ("a", "b") not in pairs and ("b", "a") not in pairs


def test_exactly_one_edge_when_reverse_is_infeasible(model):
    """B can chase down slow A, but A cannot dawdle below v_min to wait for B.

    A departs 300 s earlier at v_min. Catching up within the 40 km corridor
    needs the merge arc at about 26 km (feasible for B at v_max); the
    reverse direction would put the earliest merge beyond 46 km.
    """
    net = chain_network([20_000.0, 20_000.0])
    route = make_route(net, ["e0", "e1"], 0.0, 20_000.0)
    d = 40_000.0
    a = Assignment("a", Position("e0", 0.0), Position("e1", 20_000.0), 0.0, d / model.v_min)
    b = Assignment(
        "b", Position("e0", 0.0), Position("e1", 20_000.0), 300.0, 300.0 + d / model.v_default
    )
    assignments = {"a": a, "b": b}
    routes = {"a": route, "b": route}
    graph, cache = build(assignments, routes, _defaults(model, assignments, routes), model)
    assert set(graph.weight) == {("b", "a")}
    plan = cache[("b", "a")]
    assert plan.follower_flags == (0, 1)
    assert plan.speeds[0] == pytest.approx(model.v_max, rel=1e-9)


def test_identical_assignments_form_complete_digraph(model):
    net = chain_network([15_000.0, 15_000.0])
    route = make_route(net, ["e0", "e1"], 0.0, 15_000.0)
    window = 30_000.0 / model.v_default
    assignments = {
        f"t{i}": Assignment(
            f"t{i}", Position("e0", 0.0), Position("e1", 15_000.0), 100.0, 100.0 + window
        )
        for i in range(4)
    }
    routes = {aid: route for aid in assignments}
    graph, _ = build(assignments, routes, _defaults(model, assignments, routes), model)
    assert graph.num_edges() == 4 * 3
    weights = set(round(w, 12) for w in graph.weight.values())
    assert len(weights) == 1  # all equal by symmetry


def test_graph_invariants_rejected():
    with pytest.raises(ValueError):
        CoordinationGraph(["a"], {("a", "a"): 1.0})
    with pytest.raises(ValueError):
        CoordinationGraph(["a", "b"], {("a", "b"): 0.0})
    with pytest.raises(ValueError):
        CoordinationGraph(["a"], {("a", "b"): 1.0})


def test_adjacency_consistent_with_edge_map(model, worked_pair):
    _, leader, leader_route, follower, follower_route = worked_pair
    assignments = {leader.id: leader, follower.id: follower}
    routes = {leader.id: leader_route, follower.id: follower_route}
    graph, _ = build(assignments, routes, _defaults(model, assignments, routes), model)
    for (n, m), w in graph.weight.items():
        assert (m, w) in graph.out_edges[n]
        assert (n, w) in graph.in_edges[m]
    for n in graph.nodes:
        for m, w in graph.out_edges[n]:
            assert graph.weight[(n, m)] == w


def test_prune_is_sound_against_unpruned_build(model):
    """Graphs built with and without pruning are identical on random scenarios."""
    for seed, n in [(0, 28), (1, 28), (2, 28), (3, 50), (4, 50), (5, 28), (6, 28), (7, 50)]:
        weights = {
            f"n{r}_{c}": 1.0 if (r in (0, 4) and c in (0, 4)) else 0.1
            for r in range(5)
            for c in range(5)
        }
        cfg = ScenarioConfig(
            rows=5, cols=5, edge_len_m=7000.0, n_assignments=n, seed=seed,
            start_window_s=1200.0, node_weights=weights,
        )
        net, assignments, routes = generate(cfg, model)
        amap = {a.id: a for a in assignments}
        dplans = {a.id: default_plan(a, routes[a.id], model) for a in assignments}
        pruned, cache_p = build(amap, routes, dplans, model, prune=True)
        full, cache_f = build(amap, routes, dplans, model, prune=False)
        assert pruned.weight == full.weight
        assert set(cache_p) == set(cache_f)


@pytest.mark.parametrize("n", [200, pytest.param(800, marks=pytest.mark.slow)])
@pytest.mark.parametrize("slack_s", [0.0, 1800.0])
def test_prune_matches_reference_on_seeded_grids(model, n, slack_s):
    """The per-edge index keeps exactly the pairs of the pairwise segment-end test."""
    cfg = ScenarioConfig(n_assignments=n, seed=n + int(slack_s), deadline_slack_s=slack_s)
    _, assignments, routes = generate(cfg, model)
    amap = {a.id: a for a in assignments}
    pairs = prune_pairs(amap, routes, model)
    assert pairs == _reference_prune_pairs(amap, routes, model)
    assert pairs == sorted(set(pairs))


def _passage(model, a, route):
    """When a's default plan passes the end of the route's first edge."""
    v = default_speed(model, route_length(route), a.t_deadline - a.t_start)
    return a.t_start + route.arc_at_edge_start(1) / v


def _slow_leader(model, aid, route, at):
    """A truck at v_min on route whose default plan passes the first edge's end
    at exactly the float `at`."""
    length = route_length(route)
    t0 = at - route.arc_at_edge_start(1) / model.v_min
    for _ in range(8):
        a = Assignment(aid, Position(route.edges[0], 0.0), Position(route.edges[-1], length),
                       t0, t0 + length / model.v_min + 600.0)
        passes = _passage(model, a, route)
        if passes == at:
            return a
        t0 = math.nextafter(t0, math.inf if passes < at else -math.inf)
    raise AssertionError(f"no start time passes at {at!r}")


def test_prune_keeps_leaders_exactly_on_the_window_bounds(model):
    """Leaders passing at exactly t0 + arc_end / v_hi and t0 + arc_end / v_lo are
    kept, as bisect_left and bisect_right keep them; one ulp outside is not."""
    net = chain_network([10_000.0])
    route = make_route(net, ["e0"], 0.0, 10_000.0)
    follower = Assignment("f", Position("e0", 0.0), Position("e0", 10_000.0), 1000.0,
                          1000.0 + 10_000.0 / 22.0)
    v_lo = model.v_min * (1.0 - 1e-9) - 1e-9
    v_hi = model.v_max * (1.0 + 1e-9) + 1e-9
    early = follower.t_start + 10_000.0 / v_hi
    late = follower.t_start + 10_000.0 / v_lo
    leaders = [
        _slow_leader(model, "m_early", route, early),
        _slow_leader(model, "m_late", route, late),
        _slow_leader(model, "x_early", route, math.nextafter(early, -math.inf)),
        _slow_leader(model, "x_late", route, math.nextafter(late, math.inf)),
    ]
    assignments = {a.id: a for a in [follower, *leaders]}
    routes = {aid: route for aid in assignments}
    pairs = prune_pairs(assignments, routes, model)
    assert ("f", "m_early") in pairs and ("f", "m_late") in pairs
    assert ("f", "x_early") not in pairs and ("f", "x_late") not in pairs
    assert pairs == bisect_prune_pairs(assignments, routes, model)


def test_prune_without_shareable_edges_is_empty(model):
    assert prune_pairs({}, {}, model) == []
    net = chain_network([10_000.0, 10_000.0])
    # Each trip starts and ends inside an edge, so no edge is driven end to end.
    inside = make_route(net, ["e0"], 1000.0, 9000.0)
    partial = make_route(net, ["e0", "e1"], 5000.0, 5000.0)
    assignments = {
        aid: Assignment(aid, Position(r.edges[0], r.start_offset),
                        Position(r.edges[-1], r.dest_offset), 0.0, 2000.0)
        for aid, r in (("a", inside), ("b", inside), ("c", partial))
    }
    routes = {"a": inside, "b": inside, "c": partial}
    assert prune_pairs(assignments, routes, model) == []


def test_graph_csv_roundtrip(model, worked_pair, tmp_path):
    _, leader, leader_route, follower, follower_route = worked_pair
    assignments = {leader.id: leader, follower.id: follower}
    routes = {leader.id: leader_route, follower.id: follower_route}
    graph, _ = build(assignments, routes, _defaults(model, assignments, routes), model)
    path = tmp_path / "graph.csv"
    save_graph_csv(graph, str(path))
    loaded = load_graph_csv(str(path))
    assert loaded.weight == graph.weight
