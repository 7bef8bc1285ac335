"""Spontaneous baseline, platoon-size histogram, run reports."""

import pytest

from platoonplan import (
    Assignment,
    Position,
    adapted_plan,
    default_plan,
    plan_fuel,
    route_length,
    spontaneous_baseline,
    platoon_size_histogram,
)
from platoonplan.cli import route_assignments
from platoonplan.evaluation import make_report, relative_saving
from platoonplan.planning import VehiclePlan, Visits
from platoonplan.scenario import ScenarioConfig, generate

from conftest import (
    chain_network,
    make_route,
    plans_table,
    reference_histogram,
    reference_spontaneous_baseline,
)

V80 = 80.0 / 3.6


def _plan_on_edge(net, truck, t_start, v, edge="e0"):
    length = net.edge_length(edge)
    route = make_route(net, [edge], 0.0, length)
    return VehiclePlan(route=route, speeds=(v,), times=(t_start, t_start + length / v),
                       follower_flags=(0,))


def _baseline(plans, model):
    """spontaneous_baseline on the plans' fleet table; the scalar oracle agrees."""
    saving = spontaneous_baseline(plans_table(plans, model), model)
    expected = reference_spontaneous_baseline(plans, model)
    assert saving == pytest.approx(expected, rel=1e-12, abs=0.0)
    return saving


def test_spontaneous_baseline_chain_grouping(model):
    net = chain_network([10_000.0])
    plans = {
        "a": _plan_on_edge(net, "a", 0.0, V80),
        "b": _plan_on_edge(net, "b", 30.0, V80),
        "c": _plan_on_edge(net, "c", 100.0, V80),
    }
    # Gaps 30 s and 70 s: {a, b} platoon, c stays alone.
    saving = _baseline(plans, model)
    expected = (model.solo_rate(V80) - model.follower_rate(V80)) * 10_000.0
    assert saving == pytest.approx(expected, rel=1e-12)


def test_spontaneous_baseline_single_truck(model):
    net = chain_network([10_000.0])
    assert _baseline({"a": _plan_on_edge(net, "a", 0.0, V80)}, model) == 0.0


def test_spontaneous_baseline_transitive_chain(model):
    net = chain_network([10_000.0])
    plans = {
        "a": _plan_on_edge(net, "a", 0.0, V80),
        "b": _plan_on_edge(net, "b", 50.0, V80),
        "c": _plan_on_edge(net, "c", 100.0, V80),
    }
    # Consecutive gaps of 50 s chain all three: two followers.
    saving = _baseline(plans, model)
    expected = 2 * (model.solo_rate(V80) - model.follower_rate(V80)) * 10_000.0
    assert saving == pytest.approx(expected, rel=1e-12)


def test_spontaneous_baseline_uses_arrival_per_edge(model):
    # Same edge entered ~127 s apart (beyond a minute): no platoon there.
    net = chain_network([5_000.0, 5_000.0])
    r_full = make_route(net, ["e0", "e1"], 0.0, 5_000.0)
    slow = VehiclePlan(route=r_full, speeds=(model.v_min,),
                       times=(0.0, 10_000.0 / model.v_min), follower_flags=(0,))
    fast_late = _plan_on_edge(net, "b", 385.0, model.v_max, edge="e1")
    # slow enters e1 at 5000/19.44 = 257 s; b enters e1 at 385 s: gap > 60 s.
    assert _baseline({"a": slow, "b": fast_late}, model) == 0.0
    fast_close = _plan_on_edge(net, "b", 300.0, model.v_max, edge="e1")
    assert _baseline({"a": slow, "b": fast_close}, model) > 0.0


@pytest.mark.parametrize(
    "n, seed, slack",
    [
        (200, 5, 0.0),
        pytest.param(800, 100, 0.0, marks=pytest.mark.slow),
        pytest.param(800, 101, 1800.0, marks=pytest.mark.slow),
    ],
)
def test_spontaneous_baseline_matches_the_scalar_scan_on_seeded_fleets(model, n, seed, slack):
    cfg = ScenarioConfig(n_assignments=n, seed=seed, deadline_slack_s=slack)
    net, assignments = generate(cfg, model)
    routes = route_assignments(net, assignments)
    amap = {a.id: a for a in assignments}
    plans = {aid: default_plan(a, routes[aid], model) for aid, a in amap.items()}
    saving = spontaneous_baseline(Visits(amap, routes, plans, model), model)
    assert saving > 0.0
    expected = reference_spontaneous_baseline(plans, model)
    assert saving == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_histogram_one_pair(model, worked_pair):
    _, leader, leader_route, follower, follower_route = worked_pair
    leader_plan = default_plan(leader, leader_route, model)
    plan, _ = adapted_plan(follower, follower_route, leader.id, leader_plan, model)
    hist = platoon_size_histogram({"leader": leader_plan, "follower": plan})
    assert hist[2] == pytest.approx(160_000.0, abs=1e-6)
    solo = (100_000.0 - 80_000.0) + (99_500.0 - 80_000.0)
    assert hist[1] == pytest.approx(solo, abs=1e-6)
    total = sum(hist.values())
    assert total == pytest.approx(
        route_length(leader_route) + route_length(follower_route), abs=1e-6
    )


def test_histogram_all_solo(model):
    net = chain_network([10_000.0])
    plans = {f"t{i}": _plan_on_edge(net, f"t{i}", 100.0 * i, V80) for i in range(3)}
    hist = platoon_size_histogram(plans)
    assert set(hist) == {1}
    assert hist[1] == pytest.approx(30_000.0)


def test_histogram_disjoint_follower_windows_never_stack(model, worked_pair):
    net, leader, leader_route, follower, follower_route = worked_pair
    leader_plan = default_plan(leader, leader_route, model)
    p1, _ = adapted_plan(follower, follower_route, leader.id, leader_plan, model)
    # Second follower merges only after the first has split: shrink its
    # platoon window by a late start and early deadline.
    second = Assignment("f2", follower.start, follower.dest, 0.0, 4300.0)
    p2, _ = adapted_plan(second, follower_route, leader.id, leader_plan, model)
    w1 = p1.platoon_interval()
    w2 = p2.platoon_interval()
    hist = platoon_size_histogram({"leader": leader_plan, "follower": p1, "f2": p2})
    if w1[0] < w2[1] and w2[0] < w1[1]:  # overlapping windows stack to 3
        assert 3 in hist
    else:
        assert 3 not in hist
    total = sum(hist.values())
    expected = route_length(leader_route) + 2 * route_length(follower_route)
    assert total == pytest.approx(expected, abs=1e-6)


def test_histogram_three_overlapping_windows():
    """A 25 m/s leader drives 30 km; followers ride along over [100, 700),
    [200, 500) and [300, 900) s, each after a 1 km approach at 20 m/s and
    before a 22 m/s tail to the route end."""
    net = chain_network([10_000.0] * 3)
    v = 25.0
    plans = {"lead": VehiclePlan(make_route(net, ["e0", "e1", "e2"], 0.0, 10_000.0), (v,),
                                 (0.0, 1200.0), (0,))}
    for name, (t_m, t_sp) in {"f1": (100.0, 700.0), "f2": (200.0, 500.0),
                              "f3": (300.0, 900.0)}.items():
        route = make_route(net, ["e0", "e1", "e2"], v * t_m - 1000.0, 10_000.0)
        plans[name] = VehiclePlan(
            route, (20.0, v, 22.0),
            (t_m - 50.0, t_m, t_sp, t_sp + (30_000.0 - v * t_sp) / 22.0),
            (0, 1, 0), platoon_leader_id="lead",
        )
    hist = platoon_size_histogram(plans)
    # Riders on board: 1 over [100, 200) and [700, 900), 2 over [200, 300)
    # and [500, 700), 3 over [300, 500); each stretch counts riders + 1 trucks.
    assert set(hist) == {1, 2, 3, 4}
    assert hist[2] == pytest.approx(2 * v * (100.0 + 200.0), rel=1e-12)
    assert hist[3] == pytest.approx(3 * v * (100.0 + 200.0), rel=1e-12)
    assert hist[4] == pytest.approx(4 * v * 200.0, rel=1e-12)
    assert hist[1] == pytest.approx(50_500.0, rel=1e-12)
    total = sum(route_length(p.route) for p in plans.values())
    assert total == 108_000.0
    assert sum(hist.values()) == pytest.approx(total, rel=1e-12)



def test_histogram_fully_platooned_fleet_has_no_solo_bucket():
    """Every meter is platooned: f1 rides the leader's whole 30 km journey,
    f2 joins it over [237, 841) s and drives nothing else. Bucket 1 would hold
    only the rounding left by total minus platooned meters."""
    net = chain_network([10_000.0] * 3)
    edges = ["e0", "e1", "e2"]
    speeds, times = (24.9, 24.2, 25.0), (0.0, 382.0, 741.0, 1213.016)
    route = make_route(net, edges, 0.0, 10_000.0)
    plans = {"lead": VehiclePlan(route, speeds, times, (0, 0, 0)),
             "f1": VehiclePlan(route, speeds, times, (1, 1, 1), platoon_leader_id="lead")}
    # f2 drives from 5,901.3 m (24.9 m/s * 237 s) to 20,699.6 m: 14,798.3 m.
    plans["f2"] = VehiclePlan(make_route(net, edges, 5_901.3, 699.6), speeds,
                              (237.0, 382.0, 741.0, 841.0), (1, 1, 1), platoon_leader_id="lead")
    hist = platoon_size_histogram(plans)
    assert hist.keys() == reference_histogram(plans).keys() == {2, 3}
    assert hist[3] == pytest.approx(3 * 14_798.3, rel=1e-12)
    assert hist[2] == pytest.approx(2 * (30_000.0 - 14_798.3), rel=1e-12)
    assert sum(hist.values()) == pytest.approx(60_000.0 + 14_798.3, rel=1e-12)

def test_report_all_isolated(model):
    net = chain_network([10_000.0] * 4)
    r1 = make_route(net, ["e0", "e1"], 0.0, 10_000.0)
    r2 = make_route(net, ["e2", "e3"], 0.0, 10_000.0)
    a1 = Assignment("a", Position("e0", 0.0), Position("e1", 10_000.0), 0.0,
                    20_000.0 / model.v_default)
    a2 = Assignment("b", Position("e2", 0.0), Position("e3", 10_000.0), 9000.0,
                    9000.0 + 20_000.0 / model.v_default)
    plans = {"a": default_plan(a1, r1, model), "b": default_plan(a2, r2, model)}
    report = make_report(
        Visits({"a": a1, "b": a2}, {"a": r1, "b": r2}, plans, model), dict(plans), dict(plans),
        model, upper_bound_kg=0.0, n_leaders=0,
    )
    assert report.saving_stage3 == 0.0
    assert report.saving_stage4 == 0.0
    assert report.saving_spontaneous == 0.0
    assert report.upper_bound_kg == 0.0
    assert set(report.histogram) == {1}


def test_report_worked_pair_stage3_saving(model, worked_pair):
    _, leader, leader_route, follower, follower_route = worked_pair
    leader_plan = default_plan(leader, leader_route, model)
    follower_default = default_plan(follower, follower_route, model)
    plan, saving = adapted_plan(follower, follower_route, leader.id, leader_plan, model)
    defaults = {"leader": leader_plan, "follower": follower_default}
    stage3 = {"leader": leader_plan, "follower": plan}
    fleet = Visits(
        {"leader": leader, "follower": follower},
        {"leader": leader_route, "follower": follower_route},
        defaults,
        model,
    )
    report = make_report(fleet, stage3, stage3, model, upper_bound_kg=saving, n_leaders=1)
    default_fuel = sum(plan_fuel(model, p) for p in defaults.values())
    assert report.saving_stage3 == pytest.approx(saving / default_fuel, rel=1e-9)
    assert report.saving_stage4 >= report.saving_stage3 - 1e-12
    assert 0.0 <= report.saving_stage3 < 1.0
    assert report.upper_bound_rel >= report.saving_stage3 - 1e-12


def test_relative_saving_guards_zero_default():
    assert relative_saving(0.0, 0.0) == 0.0
