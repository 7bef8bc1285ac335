"""Default and adapted plans: worked example, oracles, invariants."""

import math
import random

import numpy as np
import pytest

from platoonplan import (
    Assignment,
    InfeasibleDeadlineError,
    Position,
    adapted_plan,
    default_plan,
    plan_fuel,
    positions_coincide,
    route_length,
    sample,
    validate,
)
from platoonplan.cli import route_assignments
from platoonplan.planning import VehiclePlan
from platoonplan.road_network import RoadNetwork, common_subpaths
from platoonplan.scenario import ScenarioConfig, generate

from conftest import chain_network, make_route, quadrature_fuel, savings_by_name

V80 = 80.0 / 3.6


def _grid_argmin_solo_speed(model, v_cm, step=1e-4):
    """Oracle: scan [v_cm, v_max] for the cheapest solo rate."""
    best_v, best_rate = None, math.inf
    v = v_cm
    while v <= model.v_max + 1e-12:
        rate = model.solo_rate(v)
        if rate < best_rate - 1e-18:
            best_v, best_rate = v, rate
        v += step
    return best_v


def _assignment_on_chain(net, distance, t_start, t_deadline):
    route_edges = []
    total = 0.0
    i = 0
    while total < distance:
        route_edges.append(f"e{i}")
        total += net.edge_length(f"e{i}")
        i += 1
    from conftest import make_route

    r = make_route(net, route_edges, 0.0, net.edge_length(route_edges[-1]))
    a = Assignment(
        id="t0",
        start=Position(route_edges[0], 0.0),
        dest=Position(route_edges[-1], net.edge_length(route_edges[-1])),
        t_start=t_start,
        t_deadline=t_deadline,
    )
    return a, r


def test_default_plan_required_speed_above_minimum(model):
    net = chain_network([160_000.0])
    a, r = _assignment_on_chain(net, 160_000.0, 0.0, 7200.0)
    plan = default_plan(a, r, model)
    v_cm = 160_000.0 / 7200.0
    assert plan.speeds == (pytest.approx(v_cm, abs=1e-9),)
    assert plan.speeds[0] == pytest.approx(_grid_argmin_solo_speed(model, v_cm), abs=2e-4)
    assert plan.times == (0.0, pytest.approx(7200.0, abs=1e-6))


def test_default_plan_clamps_to_v_min(model):
    net = chain_network([100_000.0])
    a, r = _assignment_on_chain(net, 100_000.0, 0.0, 7200.0)
    plan = default_plan(a, r, model)
    assert plan.speeds[0] == pytest.approx(model.v_min, abs=1e-12)
    assert plan.times[-1] < a.t_deadline


def test_default_plan_infeasible_deadline(model):
    net = chain_network([100_000.0])
    a, r = _assignment_on_chain(net, 100_000.0, 0.0, 3000.0)
    with pytest.raises(InfeasibleDeadlineError):
        default_plan(a, r, model)


def test_default_plan_validates(model):
    net = chain_network([50_000.0, 50_000.0])
    a, r = _assignment_on_chain(net, 100_000.0, 120.0, 7200.0)
    plan = default_plan(a, r, model)
    assert validate(plan, a, model) == []


# ---------------------------------------------------------------------------
# Worked leader/follower pair
# ---------------------------------------------------------------------------


def test_adapted_plan_worked_example(model, worked_pair):
    _, leader, leader_route, follower, follower_route = worked_pair
    leader_plan = default_plan(leader, leader_route, model)
    assert leader_plan.speeds[0] == pytest.approx(V80, rel=1e-12)

    result = adapted_plan(follower, follower_route, leader.id, leader_plan, model)
    assert result is not None
    plan, saving = result

    # Hand timeline: the leader reaches the corridor entry (its km 10) at
    # t = 10000 / 22.2222 = 450 s. Merging right there requires
    # 9500 m / 450 s = 21.111 m/s, which is admissible, so the follower
    # platoons the full 80 km until t = 90000 / 22.2222 = 4050 s, then needs
    # 10 km / (4477.5 - 4050) s = 23.392 m/s to its deadline.
    t_merge = 10_000.0 / leader_plan.speeds[0]
    t_split = 90_000.0 / leader_plan.speeds[0]
    assert plan.speeds[0] == pytest.approx(9500.0 / t_merge, rel=1e-9)
    assert plan.speeds[0] == pytest.approx(21.111, abs=1e-3)
    assert plan.speeds[1] == leader_plan.speeds[0]
    assert plan.speeds[2] == pytest.approx(10_000.0 / (4477.5 - t_split), rel=1e-9)
    assert plan.speeds[2] == pytest.approx(23.392, abs=1e-3)
    assert plan.follower_flags == (0, 1, 0)
    assert plan.times == (
        0.0,
        pytest.approx(t_merge, abs=1e-9),
        pytest.approx(t_split, abs=1e-9),
        pytest.approx(4477.5, abs=1e-6),
    )

    follower_default = default_plan(follower, follower_route, model)
    oracle_saving = quadrature_fuel(model, follower_default) - quadrature_fuel(model, plan)
    assert saving == pytest.approx(oracle_saving, rel=1e-9)
    assert saving == pytest.approx(2.98, abs=0.01)
    assert validate(plan, follower, model) == []


def test_adapted_plan_no_overlap_returns_none(model):
    net = chain_network([10_000.0] * 6)
    from conftest import make_route

    r1 = make_route(net, ["e0", "e1", "e2"], 0.0, 10_000.0)
    r2 = make_route(net, ["e3", "e4", "e5"], 0.0, 10_000.0)
    a1 = Assignment("a", Position("e0", 0.0), Position("e2", 10_000.0), 0.0, 2000.0)
    a2 = Assignment("b", Position("e3", 0.0), Position("e5", 10_000.0), 0.0, 2000.0)
    leader_plan = default_plan(a2, r2, model)
    assert adapted_plan(a1, r1, "b", leader_plan, model) is None


def test_adapted_plan_identical_assignment_full_platoon(model):
    net = chain_network([20_000.0, 20_000.0])
    a, r = _assignment_on_chain(net, 40_000.0, 50.0, 50.0 + 40_000.0 / model.v_default)
    twin = Assignment("twin", a.start, a.dest, a.t_start, a.t_deadline)
    leader_plan = default_plan(a, r, model)
    result = adapted_plan(twin, r, a.id, leader_plan, model)
    assert result is not None
    plan, saving = result
    assert plan.follower_flags == (1,)
    assert plan.times == leader_plan.times
    v = leader_plan.speeds[0]
    closed_form = (model.solo_rate(v) - model.follower_rate(v)) * 40_000.0
    assert saving == pytest.approx(closed_form, rel=1e-12)


def test_adapted_plan_leader_unchanged(model, worked_pair):
    _, leader, leader_route, follower, follower_route = worked_pair
    leader_plan = default_plan(leader, leader_route, model)
    fuel_before = plan_fuel(model, leader_plan)
    snapshot = (leader_plan.speeds, leader_plan.times, leader_plan.follower_flags)
    for _ in range(3):
        adapted_plan(follower, follower_route, leader.id, leader_plan, model)
    assert (leader_plan.speeds, leader_plan.times, leader_plan.follower_flags) == snapshot
    assert plan_fuel(model, leader_plan) == fuel_before


def test_adapted_plan_merge_is_earliest_feasible(model):
    """Any earlier merge arc violates a speed bound or causality (fine grid)."""
    net = chain_network([10_000.0] * 12)
    from conftest import make_route

    leader_route = make_route(net, [f"e{i}" for i in range(12)], 0.0, 10_000.0)
    leader = Assignment(
        "L", Position("e0", 0.0), Position("e11", 10_000.0), 0.0,
        120_000.0 / model.v_default,
    )
    leader_plan = default_plan(leader, leader_route, model)
    v_l = leader_plan.speeds[0]
    alpha = 10_000.0 / v_l  # leader reaches the follower's start node
    follower_route = make_route(net, [f"e{i}" for i in range(1, 11)], 0.0, 10_000.0)

    # Early follower: departs before the leader arrives, so it crawls at
    # v_min until the leader catches up. Late follower: chases at v_max.
    cases = [(alpha - 150.0, model.v_min), (alpha + 200.0, model.v_max)]
    for t_start, expected_v1 in cases:
        follower = Assignment(
            "F", Position("e1", 0.0), Position("e10", 10_000.0), t_start,
            t_start + 100_000.0 / model.v_default,
        )
        plan, _ = adapted_plan(follower, follower_route, "L", leader_plan, model)
        assert plan.speeds[0] == pytest.approx(expected_v1, rel=1e-9)
        t_merge = plan.times[1]
        s_merge = (t_merge - alpha) * v_l
        assert s_merge > 1.0
        for frac in (0.0, 0.25, 0.5, 0.75, 0.999):
            s = frac * s_merge
            t_l = alpha + s / v_l
            if t_l <= follower.t_start:
                continue  # causality violated outright
            v_needed = s / (t_l - follower.t_start)
            assert v_needed < model.v_min - 1e-9 or v_needed > model.v_max + 1e-9


def test_sample_examples(model):
    net = chain_network([5000.0])
    a, r = _assignment_on_chain(net, 5000.0, 0.0, 5000.0 / 20.0)
    plan = VehiclePlan(route=r, speeds=(20.0,), times=(0.0, 250.0), follower_flags=(0,))
    s = sample(plan, 100.0)
    assert s.position == Position("e0", pytest.approx(2000.0))
    assert s.speed == 20.0 and s.follower is False
    with pytest.raises(ValueError):
        sample(plan, 250.0)
    with pytest.raises(ValueError):
        sample(plan, -1.0)


def test_sample_right_open_piece_convention(model):
    from conftest import make_route

    net = chain_network([10_000.0])
    plan = VehiclePlan(
        route=make_route(net, ["e0"], 0.0, 10_000.0),
        speeds=(20.0, 25.0),
        times=(0.0, 200.0, 440.0),
        follower_flags=(0, 1),
    )
    assert sample(plan, 199.999999).speed == 20.0
    assert sample(plan, 200.0).speed == 25.0
    assert sample(plan, 200.0).follower is True


def test_sample_multi_edge_against_integration_oracle(model):
    rng = random.Random(3)
    lengths = [rng.uniform(500, 4000) for _ in range(5)]
    net = chain_network(lengths)
    a, r = _assignment_on_chain(net, sum(lengths), 0.0, sum(lengths) / 19.5)
    speeds = (20.0, 22.0, 24.0)
    d = route_length(r)
    d1, d2 = 0.3 * d, 0.5 * d
    times = (0.0, d1 / 20.0, d1 / 20.0 + d2 / 22.0, d1 / 20.0 + d2 / 22.0 + 0.2 * d / 24.0)
    plan = VehiclePlan(route=r, speeds=speeds, times=times, follower_flags=(0, 1, 0))
    for frac in (0.1, 0.37, 0.62, 0.93):
        t = times[0] + frac * (times[-1] - times[0])
        # Oracle: integrate speed numerically, then locate the edge by scan.
        steps = 50_000
        dt = (t - times[0]) / steps
        traveled = 0.0
        for k in range(steps):
            tk = times[0] + (k + 0.5) * dt
            piece = max(i for i in range(len(speeds)) if times[i] <= tk)
            traveled += speeds[piece] * dt
        acc = 0.0
        for i, length in enumerate(lengths):
            if traveled <= acc + length:
                expected = Position(f"e{i}", traveled - acc)
                break
            acc += length
        got = sample(plan, t).position
        assert got.edge == expected.edge
        assert got.offset == pytest.approx(expected.offset, abs=0.5)


def test_validate_catches_violations(model):
    net = chain_network([10_000.0])
    a, r = _assignment_on_chain(net, 10_000.0, 0.0, 10_000.0 / model.v_min)
    good = default_plan(a, r, model)
    assert validate(good, a, model) == []

    too_fast = VehiclePlan(r, (model.v_max + 0.1,), (0.0, 10_000.0 / (model.v_max + 0.1)), (0,))
    assert any("speed" in p for p in validate(too_fast, a, model))
    nan_speed = VehiclePlan(r, (math.nan,), good.times, (0,))
    assert any("speed nan" in p for p in validate(nan_speed, a, model))
    for flag in (True, 1.0, np.int64(1)):  # equal to 1, but not the int 1
        odd_flag = VehiclePlan(r, good.speeds, good.times, (flag,))
        assert validate(odd_flag, a, model) == ["follower flags must be 0 or 1"], flag

    short = VehiclePlan(r, (model.v_default,), (0.0, (10_000.0 - 1.0) / model.v_default), (0,))
    assert any("distance" in p for p in validate(short, a, model))

    late = VehiclePlan(r, (model.v_min,), (0.0, 10_000.0 / model.v_min + 100.0), (0,))
    assert any("deadline" in p or "increasing" in p for p in validate(late, a, model))

    # Routes that do not run from the assignment's start to its destination.
    from conftest import make_route

    starts_late = default_plan(a, make_route(net, ["e0"], 500.0, 10_000.0), model)
    assert any("route starts" in p for p in validate(starts_late, a, model))
    ends_early = default_plan(a, make_route(net, ["e0"], 0.0, 9_000.0), model)
    assert any("route ends" in p for p in validate(ends_early, a, model))
    two = chain_network([10_000.0, 10_000.0])
    other_edge = default_plan(a, make_route(two, ["e1"], 0.0, 10_000.0), model)
    problems = validate(other_edge, a, model)
    assert any("route starts" in p for p in problems)
    assert any("route ends" in p for p in problems)


def test_adapted_plan_picks_best_of_two_shared_segments(model):
    """Routes sharing two disjoint stretches platoon once, on the better one."""
    from platoonplan import RoadNetwork
    from conftest import make_route

    # Leader: A -> B -> C -> D -> E -> F (every edge 20 km).
    # Follower: A -> B -> C -> (detour via X) -> D -> E -> F, so the shared
    # stretches are [AB, BC] (40 km) and [DE, EF] (40 km), but the follower
    # reaches the second one late after a 50 km detour.
    nodes = ["A", "B", "C", "D", "E", "F", "X"]
    edges = [
        ("AB", "A", "B", 20_000.0),
        ("BC", "B", "C", 20_000.0),
        ("CD", "C", "D", 20_000.0),
        ("DE", "D", "E", 20_000.0),
        ("EF", "E", "F", 20_000.0),
        ("CX", "C", "X", 25_000.0),
        ("XD", "X", "D", 25_000.0),
    ]
    net = RoadNetwork(nodes, edges)
    leader_route = make_route(net, ["AB", "BC", "CD", "DE", "EF"], 0.0, 20_000.0)
    follower_route = make_route(net, ["AB", "BC", "CX", "XD", "DE", "EF"], 0.0, 20_000.0)
    leader = Assignment("L", Position("AB", 0.0), Position("EF", 20_000.0), 0.0,
                        100_000.0 / model.v_default)
    follower = Assignment("F", Position("AB", 0.0), Position("EF", 20_000.0), 0.0,
                          130_000.0 / model.v_default)
    leader_plan = default_plan(leader, leader_route, model)
    segs = __import__("platoonplan").common_subpaths(follower_route, leader_plan.route)
    assert len(segs) == 2
    result = adapted_plan(follower, follower_route, "L", leader_plan, model)
    assert result is not None
    plan, saving = result
    # Exactly one platoon episode, starting at departure (first shared
    # stretch begins at the common start).
    assert sum(plan.follower_flags) >= 1
    t_m, t_sp = plan.platoon_interval()
    assert t_m == pytest.approx(0.0, abs=1e-9)
    assert t_sp == pytest.approx(40_000.0 / model.v_default, abs=1e-6)
    assert validate(plan, follower, model) == []


# ---------------------------------------------------------------------------
# Randomized invariants
# ---------------------------------------------------------------------------


def _random_pairs(model, seed, n=30, rows=6, cols=6, edge_len=8000.0):
    # Corner-heavy sampling concentrates traffic on a few corridors so that
    # platooning opportunities are common at desk scale.
    weights = {
        f"n{r}_{c}": 1.0 if (r in (0, rows - 1) and c in (0, cols - 1)) else 0.05
        for r in range(rows)
        for c in range(cols)
    }
    cfg = ScenarioConfig(
        rows=rows, cols=cols, edge_len_m=edge_len, n_assignments=n, seed=seed,
        start_window_s=900.0, node_weights=weights,
    )
    net, assignments = generate(cfg, model)
    routes = route_assignments(net, assignments)
    plans = {a.id: default_plan(a, routes[a.id], model) for a in assignments}
    return net, assignments, routes, plans


def test_adapted_plans_validate_and_coincide(model):
    checked = 0
    for seed in range(6):
        net, assignments, routes, dplans = _random_pairs(model, seed)
        for follower in assignments:
            for leader in assignments:
                if follower.id == leader.id:
                    continue
                result = adapted_plan(
                    follower, routes[follower.id], leader.id, dplans[leader.id], model,
                    follower_default=dplans[follower.id],
                )
                if result is None:
                    continue
                plan, saving = result
                checked += 1
                assert validate(plan, follower, model) == []
                assert plan.times[-1] <= follower.t_deadline + 1e-6
                assert saving == plan_fuel(model, dplans[follower.id]) - plan_fuel(model, plan)
                assert saving > 0
                t_m, t_sp = plan.platoon_interval()
                t = t_m
                while t < t_sp:
                    own = sample(plan, t).position
                    lead = sample(dplans[leader.id], t).position
                    assert positions_coincide(net, own, lead, tol=1e-6)
                    t += 1.0
    assert checked > 40


def test_pair_savings_on_a_route_that_drives_an_edge_twice(model):
    """A loop route drives edge ab twice, so a leader on ab-bc shares two
    segments with it, and ab matches two loop positions the other way.
    Shortest routes never repeat an edge; the kernel's join must handle it.
    The lengths make sums round: 5000.3 + 10000.1 + 9999.9 - 5000.3 is not
    10000.1 + 9999.9, so run lengths must be added as common_subpaths adds them."""
    net = RoadNetwork(
        ["S", "A", "B", "C", "T"],
        [
            ("s", "S", "A", 5_000.3),
            ("ab", "A", "B", 10_000.1),
            ("bc", "B", "C", 9_999.9),
            ("ca", "C", "A", 10_000.7),
            ("bt", "B", "T", 10_000.3),
        ],
    )
    loop = make_route(net, ["s", "ab", "bc", "ca", "ab", "bt"], 0.0, 10_000.3)
    short = make_route(net, ["ab", "bc"], 0.0, 9_999.9)
    assert len(common_subpaths(loop, short)) == 2
    assert len(common_subpaths(short, loop)) == 2
    routes = {"loop": loop, "short": short}
    second_visit = set()
    for t_short in (-600.0, 0.0, 200.0, 900.0, 1500.0, 1600.0, 1700.0, 2500.0):
        for slack in (0.0, 300.0):
            assignments = {
                "loop": Assignment(
                    "loop", Position("s", 0.0), Position("bt", 10_000.3),
                    0.0, route_length(loop) / V80 + slack,
                ),
                "short": Assignment(
                    "short", Position("ab", 0.0), Position("bc", 9_999.9),
                    t_short, t_short + route_length(short) / V80,
                ),
            }
            dplans = {k: default_plan(a, routes[k], model) for k, a in assignments.items()}
            # The loop reaches ab a second time here; first-visit merges come earlier.
            t_again = loop.arc_at_edge_start(4) / dplans["loop"].speeds[0]
            pairs = [("loop", "short"), ("short", "loop")]
            savings = savings_by_name(assignments, routes, dplans, model, pairs)
            for f, leader in pairs:
                result = adapted_plan(
                    assignments[f], routes[f], leader, dplans[leader], model,
                    follower_default=dplans[f],
                )
                if result is None:
                    assert savings[(f, leader)] == 0.0
                    continue
                assert repr(savings[(f, leader)]) == repr(result[1])
                if result[0].platoon_interval()[0] >= t_again - 1e-6:
                    second_visit.add(f)
    assert second_visit == {"loop", "short"}
