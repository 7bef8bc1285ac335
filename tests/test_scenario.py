"""Scenario generation: determinism, deadline rule, grid topology."""

import math

import pytest

from platoonplan import default_plan, grid_network, route_length, shortest_node_route
from platoonplan.scenario import (
    ScenarioConfig,
    ScenarioError,
    generate,
    load_assignments,
    save_assignments,
)

from conftest import reference_node_route


def test_generation_is_deterministic(model, tmp_path):
    cfg = ScenarioConfig(rows=4, cols=4, edge_len_m=5000.0, n_assignments=12, seed=77)
    _, first, _ = generate(cfg, model)
    _, second, _ = generate(cfg, model)
    assert first == second
    p1, p2 = tmp_path / "a1.json", tmp_path / "a2.json"
    save_assignments(first, str(p1))
    save_assignments(second, str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    assert load_assignments(str(p1)) == first


def test_generation_changes_with_seed(model):
    cfg1 = ScenarioConfig(rows=4, cols=4, edge_len_m=5000.0, n_assignments=12, seed=1)
    cfg2 = ScenarioConfig(rows=4, cols=4, edge_len_m=5000.0, n_assignments=12, seed=2)
    _, a1, _ = generate(cfg1, model)
    _, a2, _ = generate(cfg2, model)
    assert a1 != a2


def test_weights_pin_endpoints_to_two_nodes(model):
    weights = {"n0_0": 1.0, "n2_2": 1.0}
    cfg = ScenarioConfig(
        rows=3, cols=3, edge_len_m=2000.0, n_assignments=10, seed=5, node_weights=weights
    )
    net, assignments, routes = generate(cfg, model)
    for a in assignments:
        r = routes[a.id]
        endpoints = {net.edge_tail(r.edges[0]), net.edge_head(r.edges[-1])}
        assert endpoints == {"n0_0", "n2_2"}


def test_deadline_follows_default_speed(model):
    cfg = ScenarioConfig(rows=5, cols=5, edge_len_m=10_000.0, n_assignments=20, seed=3)
    _, assignments, routes = generate(cfg, model)
    for a in assignments:
        d = route_length(routes[a.id])
        assert a.t_deadline - a.t_start == pytest.approx(d / model.v_default, abs=1e-9)
        if abs(d - 100_000.0) < 1e-6:
            assert a.t_deadline - a.t_start == pytest.approx(4500.0, abs=1e-9)
    # Every generated assignment admits a default plan.
    for a in assignments:
        plan = default_plan(a, routes[a.id], model)
        assert plan.times[-1] <= a.t_deadline + 1e-9


def test_deadline_slack_knob(model):
    cfg = ScenarioConfig(
        rows=4, cols=4, edge_len_m=5000.0, n_assignments=5, seed=9, deadline_slack_s=300.0
    )
    _, assignments, routes = generate(cfg, model)
    for a in assignments:
        d = route_length(routes[a.id])
        assert a.t_deadline - a.t_start == pytest.approx(d / model.v_default + 300.0, abs=1e-9)


def test_grid_network_counts():
    net = grid_network(2, 2, 1000.0)
    assert len(net.nodes) == 4
    assert len(net.edges) == 8
    net = grid_network(3, 3, 1000.0)
    assert len(net.nodes) == 9
    assert len(net.edges) == 24


def test_grid_corner_to_corner_is_manhattan():
    for n in (3, 4, 6):
        net = grid_network(n, n, 2500.0)
        r = shortest_node_route(net, "n0_0", f"n{n - 1}_{n - 1}")
        assert route_length(r) == pytest.approx(2 * (n - 1) * 2500.0)


def test_invalid_configs_rejected():
    with pytest.raises(ScenarioError):
        ScenarioConfig(rows=1, cols=5)
    with pytest.raises(ScenarioError):
        ScenarioConfig(n_assignments=-1)
    with pytest.raises(ScenarioError):
        ScenarioConfig.from_json({"rows": 4, "cols": 4, "bogus": 1})
    for bad in ({"rows": 4.0}, {"n_assignments": 5.5}, {"seed": True}, {"start_window_s": math.inf},
                {"deadline_slack_s": math.nan}, {"edge_len_m": -math.inf}):
        with pytest.raises(ScenarioError):
            ScenarioConfig(**bad)


def test_start_times_within_window(model):
    cfg = ScenarioConfig(rows=4, cols=4, edge_len_m=5000.0, n_assignments=40, seed=2,
                         start_window_s=7200.0)
    _, assignments, _ = generate(cfg, model)
    assert all(0.0 <= a.t_start <= 7200.0 for a in assignments)
    assert max(a.t_start for a in assignments) > 3600.0  # spread over the window


def test_unreachable_weights_error(model):
    with pytest.raises(ScenarioError):
        cfg = ScenarioConfig(rows=3, cols=3, n_assignments=3, node_weights={"nope": 1.0})
        generate(cfg, model)


@pytest.mark.slow
def test_generated_routes_equal_the_heap_dijkstra_on_criterion_6_seeds(model):
    """The criterion-6 fleets route exactly as the heap Dijkstra routes them."""
    for size_idx, size in enumerate([50, 200, 800]):
        for r in range(30):
            cfg = ScenarioConfig(n_assignments=size, seed=40_000 + 10_000 * size_idx + r)
            net, assignments, routes = generate(cfg, model)
            # Sorted by start node, so the oracle's one-tree cache serves each group.
            ends = sorted(
                (net.edge_tail(a.start.edge), net.edge_head(a.dest.edge), a.id)
                for a in assignments
            )
            for u, v, aid in ends:
                assert routes[aid] == reference_node_route(net, u, v)
