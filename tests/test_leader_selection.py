"""Leader selection: flip gains, heuristic vs exact vs bound, set-cover embedding."""

import itertools
import random
import time

import pytest

from platoonplan import SizeLimitError, cluster, exact, upper_bound
from platoonplan.coordination_graph import CoordinationGraph

from conftest import (
    SetCoverInstance,
    check_cluster_matches_reference,
    delta_u,
    min_set_cover_size,
    objective_value,
    reduce_set_cover,
)


def _graph(edges):
    nodes = sorted({n for e in edges for n in e[:2]}, key=str)
    return CoordinationGraph(nodes, {(n, m): w for n, m, w in edges})


TRIANGLE = [("1", "3", 2.0), ("2", "3", 3.0), ("3", "1", 1.0)]


def _brute_force_best(g):
    best_obj, best_sets = 0.0, [frozenset()]
    for r in range(len(g.nodes) + 1):
        for combo in itertools.combinations(g.nodes, r):
            val = objective_value(g, combo)
            if val > best_obj + 1e-15:
                best_obj, best_sets = val, [frozenset(combo)]
            elif abs(val - best_obj) <= 1e-15:
                best_sets.append(frozenset(combo))
    return best_obj, best_sets


def test_delta_u_examples():
    g = _graph(TRIANGLE)
    assert delta_u(g, set(), "3") == 5.0
    assert delta_u(g, {"3"}, "1") == -2.0
    lonely = CoordinationGraph(["a", "b", "iso"], {("a", "b"): 1.0})
    assert delta_u(lonely, set(), "iso") == 0.0
    assert delta_u(lonely, {"b"}, "iso") == 0.0


def test_delta_u_matches_objective_difference_on_random_graphs():
    rng = random.Random(17)
    for _ in range(60):
        n = rng.randint(2, 9)
        nodes = [f"v{i}" for i in range(n)]
        edges = {}
        for a, b in itertools.permutations(nodes, 2):
            if rng.random() < 0.35:
                edges[(a, b)] = rng.uniform(0.01, 1.0)
        g = CoordinationGraph(nodes, edges)
        leaders = {v for v in nodes if rng.random() < 0.4}
        for v in nodes:
            flipped = leaders - {v} if v in leaders else leaders | {v}
            expected = objective_value(g, flipped) - objective_value(g, leaders)
            assert delta_u(g, leaders, v) == pytest.approx(expected, abs=1e-12)


def test_cluster_triangle_matches_exhaustive_optimum():
    g = _graph(TRIANGLE)
    result = cluster(g, rule="greedy")
    assert result.leaders == frozenset({"3"})
    assert result.objective == 5.0
    assert result.follower_of == {"1": "3", "2": "3"}
    best_obj, _ = _brute_force_best(g)
    assert best_obj == 5.0


def test_cluster_empty_graph():
    g = CoordinationGraph([], {})
    result = cluster(g)
    assert result.leaders == frozenset()
    assert result.objective == 0.0


def test_cluster_single_edge():
    g = _graph([("a", "b", 2.5)])
    result = cluster(g, rule="greedy")
    assert result.leaders == frozenset({"b"})
    assert result.objective == 2.5


def test_cluster_objective_strictly_increases_and_matches_scratch():
    rng = random.Random(4)
    for trial in range(25):
        n = rng.randint(3, 12)
        nodes = [f"v{i}" for i in range(n)]
        edges = {}
        for a, b in itertools.permutations(nodes, 2):
            if rng.random() < 0.3:
                edges[(a, b)] = rng.uniform(0.01, 1.0)
        g = CoordinationGraph(nodes, edges)
        leaders = set()
        trace = []
        trace_nodes = []

        def audit(node, objective):
            leaders.symmetric_difference_update({node})
            trace.append((objective, objective_value(g, leaders)))
            trace_nodes.append((node, objective))

        rule = "greedy" if trial % 2 == 0 else "random"
        result = cluster(g, rule=rule, seed=trial, on_flip=audit)
        prev = 0.0
        for incremental, scratch in trace:
            assert incremental == pytest.approx(scratch, rel=1e-9, abs=1e-12)
            assert incremental > prev
            prev = incremental
        assert result.leaders == frozenset(leaders)
        # 1-flip local optimality at exit.
        for v in g.nodes:
            assert delta_u(g, result.leaders, v) <= 1e-12
        # Replaying the flips keeps every cached two-hop-invalidated gain in
        # agreement with the standalone evaluation.
        from platoonplan.leader_selection import _ClusterState

        state = _ClusterState(g)
        for node, _ in trace_nodes:
            state.flip(node)
            for v in g.nodes:
                assert state.delta[v] == pytest.approx(
                    delta_u(g, state.leaders, v), abs=1e-12
                )


def test_cluster_equals_the_two_hop_scan_on_a_tied_graph():
    """Many equal gains and thousands of stale heap entries: the same flips as
    the full two-hop recompute with a max/min scan, under both rules."""
    rng = random.Random(23)
    nodes = [f"v{i:03d}" for i in range(400)]
    edges = {}
    for n in nodes:
        for _ in range(8):
            m = nodes[rng.randrange(len(nodes))]
            if m != n:
                edges[(n, m)] = rng.choice([0.5, 1.0, 1.5])
    check_cluster_matches_reference(CoordinationGraph(nodes, edges), (("greedy", 0), ("random", 3)))


def test_exact_examples():
    g = _graph(TRIANGLE)
    result = exact(g)
    assert result.objective == 5.0 and result.leaders == frozenset({"3"})

    cycle = _graph([("a", "b", 1.0), ("b", "a", 1.0)])
    result = exact(cycle)
    assert result.objective == 1.0
    assert len(result.leaders) == 1

    empty = CoordinationGraph(["a", "b"], {})
    result = exact(empty)
    assert result.objective == 0.0 and result.leaders == frozenset()


def test_exact_respects_limit():
    nodes = [f"v{i}" for i in range(12)]
    g = CoordinationGraph(nodes, {(nodes[0], nodes[1]): 1.0})
    with pytest.raises(SizeLimitError):
        exact(g, limit=11)
    assert exact(g, limit=12).objective == 1.0


def test_exact_is_optimal_with_tie_break():
    rng = random.Random(31)
    for _ in range(20):
        n = rng.randint(2, 8)
        nodes = [f"v{i}" for i in range(n)]
        edges = {}
        for a, b in itertools.permutations(nodes, 2):
            if rng.random() < 0.4:
                edges[(a, b)] = rng.choice([0.5, 1.0, 1.5])  # ties likely
        g = CoordinationGraph(nodes, edges)
        result = exact(g)
        best_obj, best_sets = _brute_force_best(g)
        assert result.objective == pytest.approx(best_obj, abs=1e-12)
        fewest = min(len(s) for s in best_sets)
        candidates = sorted(
            (tuple(sorted(s, key=str)) for s in best_sets if len(s) == fewest)
        )
        assert tuple(sorted(result.leaders, key=str)) == candidates[0]


def test_upper_bound_examples():
    assert upper_bound(_graph(TRIANGLE)) == 6.0
    assert upper_bound(CoordinationGraph([], {})) == 0.0
    assert upper_bound(_graph([("a", "b", 0.7)])) == 0.7


def test_upper_bound_is_a_correctly_rounded_sum():
    """Added in node order, 1.0 would absorb each 1e-16 in turn."""
    g = _graph([("a", "x", 1.0), ("b", "y", 1e-16), ("c", "z", 1e-16)])
    assert upper_bound(g) == 1.0000000000000002


def test_oracle_sandwich_on_random_graphs():
    rng = random.Random(12)
    for _ in range(60):
        n = rng.randint(2, 12)
        nodes = [f"v{i}" for i in range(n)]
        edges = {}
        for a, b in itertools.permutations(nodes, 2):
            if rng.random() < 0.3:
                edges[(a, b)] = rng.uniform(1e-9, 1.0)
        g = CoordinationGraph(nodes, edges)
        opt = exact(g).objective
        assert cluster(g, "greedy").objective <= opt + 1e-12
        assert cluster(g, "random", seed=5).objective <= opt + 1e-12
        assert opt <= upper_bound(g) + 1e-12


def test_reduce_set_cover_small_instance():
    inst = SetCoverInstance(frozenset({1, 2}), (frozenset({1}), frozenset({1, 2})))
    graph, maps = reduce_set_cover(inst)
    assert len(graph.nodes) == 5
    # One edge per element-subset coverage plus one 0.5 edge per subset.
    assert graph.num_edges() == 3 + 2
    opt = exact(graph)
    assert opt.objective == pytest.approx(2.5, abs=1e-12)
    assert maps["subsets"][1] in opt.leaders and maps["sink"] in opt.leaders


def test_reduce_set_cover_singleton():
    inst = SetCoverInstance(frozenset({1}), (frozenset({1}),))
    graph, _ = reduce_set_cover(inst)
    assert exact(graph).objective == pytest.approx(1.0, abs=1e-12)


def test_reduce_set_cover_empty():
    inst = SetCoverInstance(frozenset(), ())
    graph, maps = reduce_set_cover(inst)
    assert graph.nodes == [maps["sink"]]
    assert graph.num_edges() == 0


def test_set_cover_identity_on_random_instances():
    """Optimal objective equals |U| + 0.5 (|F| - k*) with k* from brute force."""
    rng = random.Random(8)
    for _ in range(40):
        n_u = rng.randint(1, 6)
        universe = frozenset(range(n_u))
        n_f = rng.randint(1, 5)
        family = []
        for _ in range(n_f - 1):
            size = rng.randint(1, n_u)
            family.append(frozenset(rng.sample(sorted(universe), size)))
        covered = frozenset().union(*family) if family else frozenset()
        family.append(universe - covered if universe - covered else frozenset({rng.randrange(n_u)}))
        inst = SetCoverInstance(universe, tuple(family))
        k_star = min_set_cover_size(inst)
        graph, _ = reduce_set_cover(inst)
        expected = len(universe) + 0.5 * (len(family) - k_star)
        assert exact(graph).objective == pytest.approx(expected, abs=1e-12)


def test_invalid_set_cover_instance_rejected():
    with pytest.raises(ValueError):
        SetCoverInstance(frozenset({1, 2}), (frozenset({1}),))


def test_cluster_scales_to_two_thousand_nodes():
    """Greedy clustering on a 2000-node, degree-10 graph stays near real time."""
    rng = random.Random(42)
    n = 2000
    nodes = [f"v{i:05d}" for i in range(n)]
    edges = {}
    for i in range(n):
        for _ in range(10):
            j = rng.randrange(n)
            if j != i:
                edges[(nodes[i], nodes[j])] = rng.uniform(0.01, 1.0)
    g = CoordinationGraph(nodes, edges)
    started = time.perf_counter()
    result = cluster(g, rule="greedy")
    elapsed = time.perf_counter() - started
    assert result.objective > 0
    assert elapsed < 10.0
    assert result.objective == pytest.approx(objective_value(g, result.leaders), rel=1e-9)
