"""Property checks on small random networks with partial first and last edges."""

import contextlib
import copy
import csv
import functools
import io
import itertools
import json
import math
import os
import tempfile
from types import SimpleNamespace

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from platoonplan import (  # noqa: E402
    Assignment,
    FuelModel,
    NetworkFormatError,
    Position,
    RoadNetwork,
    adapted_plan,
    build,
    build_group,
    cli,
    cluster,
    default_plan,
    exact,
    extract_plans,
    plan_fuel,
    solve,
    spontaneous_baseline,
    validate,
)
from platoonplan.cli import RunConfig, check_follower_coincidence, run_pipeline  # noqa: E402
from platoonplan.coordination_graph import (  # noqa: E402
    CoordinationGraph,
    load_graph_csv,
    save_graph_csv,
)
from platoonplan.evaluation import RunReport  # noqa: E402
from platoonplan.joint_optimization import CoordinationGroup  # noqa: E402
from platoonplan.leader_selection import LeaderSet  # noqa: E402
from platoonplan.planning import VehiclePlan, Visits  # noqa: E402
from platoonplan.road_network import (  # noqa: E402
    Route,
    route_length,
    save_network,
    shortest_node_route,
    shortest_route,
)
from platoonplan.scenario import (  # noqa: E402
    ScenarioConfig,
    generate,
    grid_network,
    save_assignments,
)

from conftest import (  # noqa: E402
    SetCoverInstance,
    _leaders_doc,
    _plan_to_doc,
    _reference_prune_pairs,
    bisect_prune_pairs,
    check_cluster_matches_reference,
    check_copies_exact,
    check_set_up_is_dense_set_up,
    check_set_up_matches_reference,
    checked_build_group,
    dual_gap,
    prune_by_name,
    reduce_set_cover,
    reference_assemble,
    reference_exact,
    reference_extract_plans,
    reference_node_route,
    reference_route,
    reference_spontaneous_baseline,
    savings_by_name,
    stage4_infeasibility,
    unpruned_build,
)

EDGE_M = 20_000.0
NET = grid_network(2, 4, EDGE_M)
# NET's grid with non-integral edge lengths. A shared run of 20000.1, 20000.2
# and 20000.3 m sums to 60000.600000000006 left to right, as the array kernel
# adds, but to 60000.6 by a compensated sum such as Python 3.12's sum().
ODD_NET = RoadNetwork(
    NET.nodes,
    [(e, u, v, (20_000.1, 20_000.2, 20_000.3)[k % 3])
     for k, (e, (u, v, _)) in enumerate(sorted(NET.edges.items()))],
)
V_MAX = FuelModel().v_max


@st.composite
def fleets(draw, flat=False, net=NET):
    """A 2x4 grid and up to ten trucks whose trips start and end mid-edge.

    With flat, a window is the v_max travel time, which pins the truck and
    any leader segment it copies, or the 79.2 km/h travel time with no slack
    or with 1800 s of slack. Pinned members, and followers that catch a slow
    leader only at v_max, leave a group's feasible set without interior.
    """
    edges = sorted(net.edges)
    # On NET: offsets 0, 5000, 12500 and 20000 m.
    fractions = st.sampled_from([0.0, 0.25, 0.625, 1.0])
    trucks = draw(st.integers(min_value=2, max_value=10))
    assignments, routes = {}, {}
    for k in range(trucks):
        e, f = draw(st.sampled_from(edges)), draw(fractions)
        frm = Position(e, f * net.edge_length(e))
        e, f = draw(st.sampled_from(edges)), draw(fractions)
        to = Position(e, f * net.edge_length(e))
        try:
            route = shortest_route(net, frm, to)
        except ValueError:  # start and destination coincide
            continue
        if route is None:
            continue
        t_start = draw(st.sampled_from([0.0, 30.0, 90.0, 200.0]))
        aid = f"t{k}"
        length = route_length(route)
        if flat:
            window = draw(st.sampled_from([length / V_MAX, length / 22.0, length / 22.0 + 1800.0]))
        else:  # 79.2 km/h, inside the default bounds
            window = length / 22.0 + draw(st.sampled_from([0.0, 300.0]))
        assignments[aid] = Assignment(aid, frm, to, t_start, t_start + window)
        routes[aid] = route
    return assignments, routes


@settings(max_examples=100, deadline=None)
@given(fleets())
def test_pruned_build_equals_unpruned_build(model, fleet):
    assignments, routes = fleet
    dplans = {aid: default_plan(a, routes[aid], model) for aid, a in assignments.items()}
    pruned, plan_p = build(Visits(assignments, routes, dplans, model), model)
    full, plan_f = unpruned_build(assignments, routes, dplans, model)
    assert pruned.weight == full.weight
    assert all(plan_p(*e) == plan_f(*e) for e in full.weight)
    assert set(_reference_prune_pairs(assignments, routes, model)) <= set(
        prune_by_name(assignments, routes, model)
    )


@settings(max_examples=100, deadline=None)
@given(fleets())
def test_prune_pairs_equal_the_bisect_index(model, fleet):
    assignments, routes = fleet
    pruned = prune_by_name(assignments, routes, model)
    assert pruned == bisect_prune_pairs(assignments, routes, model)


@settings(max_examples=100, deadline=None)
@given(fleets(flat=True))
def test_prune_pairs_equal_the_bisect_index_flat(model, fleet):
    assignments, routes = fleet
    pruned = prune_by_name(assignments, routes, model)
    assert pruned == bisect_prune_pairs(assignments, routes, model)


def _check_pair_savings(model, fleet):
    assignments, routes = fleet
    dplans = {aid: default_plan(a, routes[aid], model) for aid, a in assignments.items()}
    pairs = list(itertools.permutations(sorted(assignments), 2))
    savings = savings_by_name(assignments, routes, dplans, model, pairs)
    for f, leader in pairs:
        result = adapted_plan(
            assignments[f], routes[f], leader, dplans[leader], model, follower_default=dplans[f]
        )
        if result is None:
            assert savings[(f, leader)] == 0.0
        else:
            assert repr(savings[(f, leader)]) == repr(result[1])


@settings(max_examples=100, deadline=None)
@given(fleets())
def test_pair_savings_equal_adapted_plan(model, fleet):
    """The array kernel gives adapted_plan's saving bit for bit, and no saving
    exactly where adapted_plan finds no plan."""
    _check_pair_savings(model, fleet)


@settings(max_examples=100, deadline=None)
@given(fleets(flat=True))
def test_pair_savings_equal_adapted_plan_flat(model, fleet):
    _check_pair_savings(model, fleet)


@settings(max_examples=100, deadline=None)
@given(fleets(net=ODD_NET))
def test_pair_savings_equal_adapted_plan_on_non_integral_edges(model, fleet):
    """common_subpaths adds a shared run's length left to right, as the array
    kernel does, so the savings agree bit for bit on every Python version."""
    _check_pair_savings(model, fleet)


@settings(max_examples=50, deadline=None)
@given(fleets())
def test_graph_csv_round_trips_bit_for_bit(model, fleet):
    """Every saving in the file is a plain float repr and reads back exactly."""
    assignments, routes = fleet
    dplans = {aid: default_plan(a, routes[aid], model) for aid, a in assignments.items()}
    graph, _ = build(Visits(assignments, routes, dplans, model), model)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "graph.csv")
        save_graph_csv(graph, path)
        with open(path, encoding="utf-8", newline="") as fh:
            cells = [row["saving_kg"] for row in csv.DictReader(fh)]
        loaded = load_graph_csv(path)
    assert cells == [repr(float(cell)) for cell in cells]
    assert {k: repr(w) for k, w in loaded.weight.items()} == {
        k: repr(w) for k, w in graph.weight.items()
    }
    assert all(type(w) is float for w in graph.weight.values())


def _fleet_groups(model, fleet, build_group=build_group):
    """The fleet's coordination groups under greedy leader selection, each
    built by build_group."""
    assignments, routes = fleet
    dplans = {aid: default_plan(a, routes[aid], model) for aid, a in assignments.items()}
    graph, plan_of = build(Visits(assignments, routes, dplans, model), model)
    followers_of: dict = {}
    for follower, leader in cluster(graph).follower_of.items():
        followers_of.setdefault(leader, []).append(follower)
    return [
        build_group(
            assignments[leader],
            dplans[leader],
            [(assignments[f], plan_of(f, leader)) for f in sorted(followers)],
        )
        for leader, followers in sorted(followers_of.items())
    ]


def _check_stage4(model, fleet):
    """Every group's solution is feasible, stationary, certified optimal to a
    dual gap of 1e-9 and no worse than the pairwise plans; _set_up's
    reduction passes check_set_up_matches_reference; its plans equal the
    scalar loop's, copy the leader's platoon times and speeds exactly,
    validate and pass the exact coincidence audit."""
    assignments, _ = fleet
    for group in _fleet_groups(model, fleet):
        sol = solve(group, model)
        start = reference_assemble(group, model)
        assert stage4_infeasibility(group, sol, model) <= 1e-9
        assert sol.objective <= start.objective(start.x0)
        assert sol.kkt_residual <= 1e-8
        assert dual_gap(group, model, sol.times) <= 1e-9
        check_set_up_matches_reference(group, model, sol.objective)
        plans = extract_plans(group, sol, model)
        assert plans == reference_extract_plans(group, sol, model)
        assert all(type(v) is float for plan in plans.values() for v in plan.speeds)
        check_copies_exact(group, sol, plans)
        for member, plan in plans.items():
            assert validate(plan, assignments[member], model) == []
        assert check_follower_coincidence(SimpleNamespace(stage4_plans=plans), NET) == []


@settings(max_examples=100, deadline=None)
@given(fleets())
def test_stage4_solutions_are_feasible_stationary_and_no_worse(model, fleet):
    _check_stage4(model, fleet)


@settings(max_examples=100, deadline=None)
@given(fleets(flat=True))
def test_stage4_flat_groups_are_feasible_stationary_and_no_worse(model, fleet):
    """Trucks pinned at v_max next to trucks with no slack or 1800 s of it."""
    _check_stage4(model, fleet)


@settings(max_examples=100, deadline=None)
@given(fleets())
def test_set_up_equals_the_dense_set_up(model, fleet):
    """_set_up, which builds its rows by index, gives the bytes of the
    earlier build over the dense A and G."""
    for group in _fleet_groups(model, fleet):
        check_set_up_is_dense_set_up(group, model)


@settings(max_examples=100, deadline=None)
@given(fleets(flat=True))
def test_set_up_equals_the_dense_set_up_flat(model, fleet):
    for group in _fleet_groups(model, fleet):
        check_set_up_is_dense_set_up(group, model)


@st.composite
def coordination_groups(draw):
    """A leader of 1-12 constant-speed segments and 1-8 followers, each with
    or without a head, platooning from leader segment i_m through i_sp, with
    or without a tail. A head ends when the leader reaches i_m, and a
    follower with no head starts there; speeds lie within the default
    bounds and deadlines have 0 or 300 s of slack. The fleets above seldom
    give a group that merges at its leader's start or has many rows."""
    model = FuelModel()
    times = st.floats(min_value=60.0, max_value=3000.0)
    speeds = st.floats(min_value=model.v_min, max_value=model.v_max)
    lead_t = tuple(draw(st.lists(times, min_size=1, max_size=12)))
    v_lead = draw(speeds)
    t0 = draw(st.sampled_from([0.0, 30.0, 90.0]))
    fids = tuple(f"f{k}" for k in range(draw(st.integers(min_value=1, max_value=8))))
    group = CoordinationGroup(
        leader_id="L", follower_ids=fids, distances={"L": tuple(t * v_lead for t in lead_t)},
        platoon_flags={"L": (0,) * len(lead_t)}, initial_times={"L": lead_t},
        t_start={"L": t0}, t_deadline={}, merge_index={}, split_index={},
        routes=dict.fromkeys(("L", *fids)),
    )
    for fid in fids:
        i_m = draw(st.integers(min_value=0, max_value=len(lead_t) - 1))
        i_sp = draw(st.integers(min_value=i_m, max_value=len(lead_t) - 1))
        head, tail = (draw(st.lists(times, max_size=1)) for _ in range(2))
        v_head, v_tail = draw(speeds), draw(speeds)
        group.initial_times[fid] = (*head, *lead_t[i_m : i_sp + 1], *tail)
        group.distances[fid] = (*(t * v_head for t in head),
                                *group.distances["L"][i_m : i_sp + 1],
                                *(t * v_tail for t in tail))
        group.platoon_flags[fid] = (0,) * len(head) + (1,) * (i_sp + 1 - i_m) + (0,) * len(tail)
        group.t_start[fid] = t0 + sum(lead_t[:i_m]) - sum(head)
        group.merge_index[fid], group.split_index[fid] = i_m, i_sp
    for member in group.members():
        group.t_deadline[member] = (group.t_start[member] + sum(group.initial_times[member])
                                    + draw(st.sampled_from([0.0, 300.0])))
    return group


@settings(max_examples=300, deadline=None)
@given(coordination_groups())
def test_set_up_equals_the_dense_set_up_on_drawn_groups(model, group):
    check_set_up_is_dense_set_up(group, model)


def _twin_trucks():
    """Two trucks on one trip: the follower splits at the leader's
    destination, which its plan reaches a rounding error off the leader's
    arrival, so the split is snapped onto the arrival."""
    frm, to = Position("n0_0>n0_1", 0.0), Position("n0_0>n1_0", 0.0)
    route = shortest_route(NET, frm, to)
    t_deadline = route_length(route) / 22.0
    return ({aid: Assignment(aid, frm, to, 0.0, t_deadline) for aid in ("t0", "t1")},
            {aid: route for aid in ("t0", "t1")})


@settings(max_examples=100, deadline=None)
@given(fleets())
@example(_twin_trucks())
def test_build_group_equals_the_two_pass_build(model, fleet):
    _fleet_groups(model, fleet, checked_build_group)


@settings(max_examples=100, deadline=None)
@given(fleets(flat=True))
def test_build_group_equals_the_two_pass_build_flat(model, fleet):
    _fleet_groups(model, fleet, checked_build_group)


def _pipeline(model, fleet):
    assignments, _ = fleet
    run = RunConfig(model=model, scenario=ScenarioConfig())
    return run_pipeline(NET, list(assignments.values()), run)


@settings(max_examples=50, deadline=None)
@given(fleets())
def test_stage_fuel_falls_from_default_to_stage3_to_stage4(model, fleet):
    report = _pipeline(model, fleet).report
    assert report.stage3_fuel_kg <= report.default_fuel_kg * (1.0 + 1e-12)
    assert report.stage4_fuel_kg <= report.stage3_fuel_kg * (1.0 + 1e-12)


def _check_report_round_trip(model, fleet):
    report = _pipeline(model, fleet).report
    assert RunReport.from_json(json.loads(report.to_json())) == report


@settings(max_examples=30, deadline=None)
@given(fleets())
def test_report_json_round_trips(model, fleet):
    _check_report_round_trip(model, fleet)


@settings(max_examples=30, deadline=None)
@given(fleets(flat=True))
def test_report_json_round_trips_flat(model, fleet):
    _check_report_round_trip(model, fleet)


def _check_spontaneous_baseline(model, fleet):
    assignments, routes = fleet
    dplans = {aid: default_plan(a, routes[aid], model) for aid, a in assignments.items()}
    saving = spontaneous_baseline(Visits(assignments, routes, dplans, model), model)
    expected = reference_spontaneous_baseline(dplans, model)
    assert saving == pytest.approx(expected, rel=1e-12, abs=0.0)


@settings(max_examples=100, deadline=None)
@given(fleets())
def test_spontaneous_baseline_equals_the_scalar_scan(model, fleet):
    _check_spontaneous_baseline(model, fleet)


@settings(max_examples=100, deadline=None)
@given(fleets(flat=True))
def test_spontaneous_baseline_equals_the_scalar_scan_flat(model, fleet):
    _check_spontaneous_baseline(model, fleet)


def _check_report_sums(model, result):
    """The report's fuel totals are exactly the math.fsum of the fleet table's
    default fuel and of each stage's plan_fuel."""
    routes = {n: p.route for n, p in result.default_plans.items()}
    fleet = Visits(result.assignments, routes, result.default_plans, model)
    report = result.report
    assert report.default_fuel_kg == math.fsum(fleet.fuel_default.tolist())
    for total, plans in ((report.stage3_fuel_kg, result.stage3_plans),
                         (report.stage4_fuel_kg, result.stage4_plans)):
        assert total == math.fsum(plan_fuel(model, p) for p in plans.values())


@settings(max_examples=50, deadline=None)
@given(fleets(), st.data())
def test_shuffled_assignments_give_bit_identical_spontaneous_fuel(model, fleet, data):
    """Every report figure is a correctly rounded sum, so the order of the
    assignment list reaches no byte of the plans, leaders or report."""
    given = list(fleet[0].values())
    shuffled = data.draw(st.permutations(given))
    run = RunConfig(model=model, scenario=ScenarioConfig())
    documents = []
    for trucks in (given, shuffled):
        result = run_pipeline(NET, trucks, run)
        _check_report_sums(model, result)
        plans = [_plan_to_doc(n, p) for n, p in sorted(result.stage4_plans.items())]
        documents.append((
            json.dumps(plans, sort_keys=True),
            json.dumps(_leaders_doc(result.leader_set), sort_keys=True),
            result.report.to_json(),
        ))
    assert documents[0] == documents[1]


# Finite floats, with the corners of float.__repr__ drawn on purpose.
WRITTEN_REALS = st.sampled_from([-0.0, 5e-324, 2.2250738585072014e-308, 1e300]) | st.floats(
    allow_nan=False, allow_infinity=False
)


@st.composite
def written_plans(draw):
    """Plans as the writer sees them: any text for truck, leader and edge ids
    (edges may also be the integers a network file can use), finite floats,
    0/1 flags, and empty lists."""
    plans = {}
    for truck in draw(st.lists(st.text(), unique=True, max_size=4)):
        k = draw(st.integers(0, 3))
        route = Route(
            edges=tuple(draw(st.lists(st.text() | st.integers(), max_size=3))),
            lengths=(),
            start_offset=draw(WRITTEN_REALS),
            dest_offset=draw(WRITTEN_REALS),
        )
        plans[truck] = VehiclePlan(
            route,
            speeds=tuple(draw(st.lists(WRITTEN_REALS, min_size=k, max_size=k))),
            times=tuple(draw(st.lists(WRITTEN_REALS, min_size=k + 1, max_size=k + 1))),
            follower_flags=tuple(draw(st.lists(st.sampled_from([0, 1]), min_size=k, max_size=k))),
            platoon_leader_id=draw(st.none() | st.text()),
        )
    return plans


@st.composite
def written_leader_sets(draw):
    ids = draw(st.lists(st.text(), unique=True, max_size=6))
    leaders = ids[: draw(st.integers(0, len(ids)))]
    follower_of = {
        f: draw(st.sampled_from(leaders)) for f in ids[len(leaders):] if draw(st.booleans())
    } if leaders else {}
    return LeaderSet(frozenset(leaders), follower_of, draw(WRITTEN_REALS))


@settings(max_examples=200, deadline=None)
@given(written_plans(), written_leader_sets())
@example({}, LeaderSet(frozenset(), {}, 0.0))
@example(
    {'t"\\\x00é ': VehiclePlan(
        Route(edges=("e\t1", 7), lengths=(), start_offset=-0.0, dest_offset=1e300),
        speeds=(5e-324,), times=(0.0, 1.5), follower_flags=(1,), platoon_leader_id="λ",
    )},
    LeaderSet(frozenset({"λ"}), {'t"\\\x00é ': "λ"}, 2.5),
)
def test_plans_and_leaders_files_are_the_json_dump_bytes(plans, leader_set):
    """plans.json and leaders.json are byte for byte what json.dump(indent=2,
    sort_keys=True) writes of the oracle documents, newline included."""
    result = SimpleNamespace(
        stage4_plans=plans, leader_set=leader_set, report=SimpleNamespace(to_json=lambda: "{}")
    )
    expected = {
        "plans.json": [_plan_to_doc(n, p) for n, p in sorted(plans.items())],
        "leaders.json": _leaders_doc(leader_set),
    }
    with tempfile.TemporaryDirectory() as out:
        cli._write_outputs(out, result, graph_csv=False)
        for name, doc in expected.items():
            with open(os.path.join(out, name), "rb") as fh:
                written = fh.read()
            assert written == (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("ascii")


def _check_block_starts(model, fleet):
    """A group solved from its block's shared start LP in run_pipeline reaches
    the objective of solve(group, model) alone, and both converge."""
    result = _pipeline(model, fleet)
    followers_of: dict = {}
    for f, leader in sorted(result.leader_set.follower_of.items()):
        followers_of.setdefault(leader, []).append(f)
    for entry in result.group_logs:
        leader = entry["leader"]
        group = build_group(
            result.assignments[leader],
            result.default_plans[leader],
            [(result.assignments[f], result.stage3_plans[f]) for f in followers_of[leader]],
        )
        alone = solve(group, model)
        assert not entry["fallback"] and entry["converged"] and alone.converged
        assert entry["objective_after_kg"] == pytest.approx(alone.objective, rel=1e-12, abs=0.0)


@settings(max_examples=50, deadline=None)
@given(fleets())
def test_block_started_solves_match_lone_solves(model, fleet):
    _check_block_starts(model, fleet)


@settings(max_examples=50, deadline=None)
@given(fleets(flat=True))
def test_block_started_flat_solves_match_lone_solves(model, fleet):
    _check_block_starts(model, fleet)


@st.composite
def tie_graphs(draw, max_nodes=14, weights=(0.5, 1.0, 1.5), str_order=False):
    """Up to max_nodes nodes with weights drawn from weights, so equal gains are
    common. With str_order the graph lists its nodes in str order, as the
    graphs of plan and load_graph_csv do ("v10" before "v2")."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    nodes = [f"v{k}" for k in range(n)]
    arcs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.sampled_from(weights)),
            max_size=50,
            unique_by=lambda arc: arc[:2],
        )
    )
    edges = {(nodes[u], nodes[v]): w for u, v, w in arcs if u != v}
    return CoordinationGraph(sorted(nodes) if str_order else nodes, edges)


@st.composite
def set_cover_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    family = draw(
        st.lists(st.frozensets(st.integers(0, n - 1), min_size=1), min_size=1, max_size=6)
    )
    graph, _ = reduce_set_cover(SetCoverInstance(frozenset().union(*family), tuple(family)))
    return graph


CLUSTER_RUNS = (("greedy", 0), ("random", 0), ("random", 1), ("random", 2))


# 0.1 + 0.2 and 0.3 nearly tie, and 0.5 + 1.0 and 1.5 tie exactly.
@settings(max_examples=100, deadline=None)
@given(tie_graphs(max_nodes=12, weights=(0.1, 0.2, 0.3, 0.5, 1.0, 1.5), str_order=True))
def test_exact_equals_the_bitmask_enumerator(g):
    """exact, which scores every subset by make_leader_set, picks the leaders
    and reports the objective bit for bit that the bitmask enumerator does."""
    got, want = exact(g), reference_exact(g)
    assert got.leaders == want.leaders
    assert got.follower_of == want.follower_of
    assert repr(got.objective) == repr(want.objective)


@settings(max_examples=200, deadline=None)
@given(tie_graphs())
def test_cluster_equals_the_two_hop_scan_on_tied_weights(g):
    """Same flips, objectives and leader sets as the full two-hop recompute with
    a max/min scan, under both rules."""
    check_cluster_matches_reference(g, CLUSTER_RUNS)


@settings(max_examples=100, deadline=None)
@given(set_cover_graphs())
def test_cluster_equals_the_two_hop_scan_on_set_cover_graphs(g):
    check_cluster_matches_reference(g, CLUSTER_RUNS)


# 0.1 + 0.2 and 0.3 nearly tie, 0.1 + 0.2 and 0.2 + 0.1 tie exactly, and a
# 1 m edge after a 1e16 m one would be absorbed: 1e16 + 1.0 == 1e16.
ROUTING_LENGTHS = [0.1, 0.2, 0.3, 0.5, 1.0, 1e16]


@st.composite
def digraphs(draw):
    """(nodes, edges) of up to six int or str nodes, self-loops allowed,
    unreachable nodes likely; only some networks may draw the 1e16 length."""
    n = draw(st.integers(min_value=2, max_value=6))
    lengths = ROUTING_LENGTHS if draw(st.booleans()) else ROUTING_LENGTHS[:-1]
    if draw(st.booleans()):
        ids = st.integers(min_value=-9, max_value=9)
    else:
        ids = st.text("stuvxyz", min_size=1, max_size=2)
    nodes = draw(st.lists(ids, min_size=n, max_size=n, unique=True))
    arcs = draw(
        st.lists(
            st.tuples(st.sampled_from(nodes), st.sampled_from(nodes),
                      st.sampled_from(lengths)),
            max_size=12,
            unique_by=lambda arc: arc[:2],
        )
    )
    return nodes, [(f"e{k}", u, v, length) for k, (u, v, length) in enumerate(arcs)]


def _outcome(route_fn, *args):
    try:
        return route_fn(*args)
    except ValueError as exc:  # start and destination coincide
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(digraphs())
def test_routes_equal_the_heap_dijkstra(graph):
    """Same routes as the heap loop, ties included, for every pair of offsets
    (0, half, end): a backward pair on one edge loops round, and an edge's end
    to the next edge's start covers no distance. A network that mixes 1e16
    with a length rounding could absorb is rejected, and no other is."""
    nodes, edges = graph
    lengths = {length for *_, length in edges}
    if 1e16 in lengths and min(lengths) <= 1.0:
        with pytest.raises(NetworkFormatError, match="rounding could absorb"):
            RoadNetwork(nodes, edges)
        return
    net = RoadNetwork(nodes, edges)
    for u, v in itertools.permutations(sorted(net.nodes), 2):
        assert shortest_node_route(net, u, v) == reference_node_route(net, u, v)
    for e, f in itertools.product(sorted(net.edges), repeat=2):
        for frm, to in itertools.product((0.0, 0.5, 1.0), repeat=2):
            frm = Position(e, frm * net.edge_length(e))
            to = Position(f, to * net.edge_length(f))
            assert _outcome(shortest_route, net, frm, to) == _outcome(reference_route, net, frm, to)


# Every key a config may hold, each at a valid value.
FULL_CONFIG = {
    "fuel": {"a0": 8.4159e-6, "b0": 4.8021e-5, "ap": 5.0495e-6, "bp": 8.5426e-5,
             "v_min_kmh": 70.0, "v_max_kmh": 90.0, "v_default_kmh": 80.0},
    "scenario": {"rows": 3, "cols": 3, "edge_len_m": 1000.0, "n_assignments": 3,
                 "start_window_s": 600.0, "seed": 1, "deadline_slack_s": 0.0,
                 "node_weights": {"n0_0": 1.0, "n2_2": 2.0}, "network_file": None},
    "solver": {"tol": 1e-8, "max_iter": 200},
    "selection": "greedy",
    "seed": 0,
    "exact_limit": 20,
}
DELETE = "(the key or item deleted)"
MUTANTS = (DELETE, None, True, "x", [], {}, -1, 0, 0.5, 10**400, 1e308)


@functools.lru_cache(maxsize=1)
def _valid_inputs() -> dict:
    """The parsed network.json and assignments.json of FULL_CONFIG's 3-truck
    fleet, and FULL_CONFIG itself."""
    net, assignments = generate(ScenarioConfig(**FULL_CONFIG["scenario"]), FuelModel())
    docs = {"config": FULL_CONFIG}
    with tempfile.TemporaryDirectory() as tmp:
        for name, save, subject in (("network", save_network, net),
                                    ("assignments", save_assignments, assignments)):
            save(subject, os.path.join(tmp, name))
            with open(os.path.join(tmp, name), encoding="utf-8") as fh:
                docs[name] = json.load(fh)
    return docs


def _json_paths(doc, path=()):
    """The path of doc and of every value inside it, as tuples of keys and indices."""
    yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _json_paths(value, (*path, key))


@st.composite
def input_mutations(draw):
    """(file, path, value): one key or item of a valid input deleted, or one
    value replaced."""
    docs = _valid_inputs()
    name = draw(st.sampled_from(sorted(docs)))
    path = draw(st.sampled_from(list(_json_paths(docs[name]))))
    return name, path, draw(st.sampled_from(MUTANTS if path else MUTANTS[1:]))


@settings(max_examples=200, deadline=None)
@given(input_mutations())
@example(("config", ("solver", "tol"), 10**400))
@example(("assignments", (0, "start", "offset_m"), 10**400))
@example(("network", ("edges", 0, "length_m"), 10**400))
def test_plan_on_a_mutated_input_exits_0_1_or_2(mutation):
    """plan on a valid 3-truck input with one mutation returns 0, 1 or 2 and
    raises nothing; an exit 2 logs input_error."""
    name, path, value = mutation
    docs = dict(_valid_inputs())
    if not path:
        docs[name] = value
    else:
        docs[name] = copy.deepcopy(docs[name])
        parent = functools.reduce(lambda doc, key: doc[key], path[:-1], docs[name])
        if value is DELETE:
            parent.pop(path[-1])
        else:
            parent[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["plan", "--out-dir", os.path.join(tmp, "out")]
        for flag, doc in docs.items():
            argv += [f"--{flag}", os.path.join(tmp, f"{flag}.json")]
            with open(argv[-1], "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    assert rc in (0, 1, 2)
    if rc == 2:
        assert "input_error" in [json.loads(line)["event"] for line in err.getvalue().splitlines()]
