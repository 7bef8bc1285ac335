"""Coordination graph: edge semantics, pruning soundness, plan cache."""

import pytest

from platoonplan import Assignment, Position, build, default_plan, make_route, prune_pairs
from platoonplan.coordination_graph import CoordinationGraph, load_graph_csv, save_graph_csv
from platoonplan.scenario import ScenarioConfig, generate

from conftest import _reference_prune_pairs, chain_network


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


@pytest.mark.parametrize("n", [200, 800])
@pytest.mark.parametrize("slack_s", [0.0, 1800.0])
def test_prune_matches_reference_on_seeded_grids(model, n, slack_s):
    """The per-edge index keeps exactly the pairs of the pairwise segment-end test."""
    cfg = ScenarioConfig(n_assignments=n, seed=n + int(slack_s), deadline_slack_s=slack_s)
    _, assignments, routes = generate(cfg, model)
    amap = {a.id: a for a in assignments}
    pairs = prune_pairs(amap, routes, model)
    assert pairs == _reference_prune_pairs(amap, routes, model)
    assert pairs == sorted(set(pairs))


def test_graph_csv_roundtrip(model, worked_pair, tmp_path):
    _, leader, leader_route, follower, follower_route = worked_pair
    assignments = {leader.id: leader, follower.id: follower}
    routes = {leader.id: leader_route, follower.id: follower_route}
    graph, _ = build(assignments, routes, _defaults(model, assignments, routes), model)
    path = tmp_path / "graph.csv"
    save_graph_csv(graph, str(path))
    loaded = load_graph_csv(str(path))
    assert loaded.weight == graph.weight
