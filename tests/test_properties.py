"""Property checks on small random networks with partial first and last edges."""

import csv
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
from platoonplan.joint_optimization import _assemble  # noqa: E402
from platoonplan.planning import Visits  # noqa: E402
from platoonplan.road_network import (  # noqa: E402
    route_length,
    shortest_node_route,
    shortest_route,
)
from platoonplan.scenario import ScenarioConfig, grid_network  # noqa: E402

from conftest import (  # noqa: E402
    SetCoverInstance,
    _reference_prune_pairs,
    bisect_prune_pairs,
    check_assemble_matches_reference,
    check_cluster_matches_reference,
    check_copies_exact,
    check_set_up_matches_reference,
    checked_build_group,
    dual_gap,
    prune_by_name,
    reduce_set_cover,
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
V_MAX = FuelModel().v_max


@st.composite
def fleets(draw, flat=False):
    """A 2x4 grid and up to ten trucks whose trips start and end mid-edge.

    With flat, a window is the v_max travel time, which pins the truck and
    any leader segment it copies, or the 79.2 km/h travel time with no slack
    or with 1800 s of slack. Pinned members, and followers that catch a slow
    leader only at v_max, leave a group's feasible set without interior.
    """
    edges = sorted(NET.edges)
    offsets = st.sampled_from([0.0, 5000.0, 12_500.0, EDGE_M])
    trucks = draw(st.integers(min_value=2, max_value=10))
    assignments, routes = {}, {}
    for k in range(trucks):
        frm = Position(draw(st.sampled_from(edges)), draw(offsets))
        to = Position(draw(st.sampled_from(edges)), draw(offsets))
        try:
            route = shortest_route(NET, frm, to)
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
        start = _assemble(group, model)
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
def test_assemble_equals_the_per_equality_build(model, fleet):
    for group in _fleet_groups(model, fleet):
        check_assemble_matches_reference(group, model)


@settings(max_examples=100, deadline=None)
@given(fleets(flat=True))
def test_assemble_equals_the_per_equality_build_flat(model, fleet):
    for group in _fleet_groups(model, fleet):
        check_assemble_matches_reference(group, model)


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
        plans = [cli._plan_to_doc(n, p) for n, p in sorted(result.stage4_plans.items())]
        documents.append((
            json.dumps(plans, sort_keys=True),
            json.dumps(cli._leaders_doc(result.leader_set), sort_keys=True),
            result.report.to_json(),
        ))
    assert documents[0] == documents[1]


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
def tie_graphs(draw):
    """Up to 14 nodes with weights from {0.5, 1, 1.5}, so equal gains are common."""
    n = draw(st.integers(min_value=1, max_value=14))
    nodes = [f"v{k}" for k in range(n)]
    arcs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                      st.sampled_from([0.5, 1.0, 1.5])),
            max_size=50,
            unique_by=lambda arc: arc[:2],
        )
    )
    return CoordinationGraph(nodes, {(nodes[u], nodes[v]): w for u, v, w in arcs if u != v})


@st.composite
def set_cover_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    family = draw(
        st.lists(st.frozensets(st.integers(0, n - 1), min_size=1), min_size=1, max_size=6)
    )
    graph, _ = reduce_set_cover(SetCoverInstance(frozenset().union(*family), tuple(family)))
    return graph


CLUSTER_RUNS = (("greedy", 0), ("random", 0), ("random", 1), ("random", 2))


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
