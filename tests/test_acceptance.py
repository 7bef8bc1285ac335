"""Acceptance criteria for the coordination pipeline.

Each test prints one PASS/FAIL line. Run with `pytest tests/test_acceptance.py -v -s`.

 1. Follower saving ratio: 15.9 % +- 0.05 pp at 80 km/h.
 2. Oracle sandwich on 200 random graphs (n <= 12): greedy <= exact <= bound,
    and the heuristic is 1-flip locally optimal.
 3. Set-cover identity on 100 random instances: exact objective of the
    reduced graph equals |U| + 0.5 (|F| - k*).
 4. Joint-optimization dominance on 100 random N=50 scenarios, with
    grid-search agreement within 0.1 % on every group with <= 3 free
    variables.
 5. Solo constant-speed optimality within 1e-6 m/s.
 6. Trend on a 20x20 grid of 10 km edges: mean stage-4 saving strictly
    increasing over N in {50, 200, 800} across >= 30 runs, positive at 800,
    above the spontaneous baseline at 800.
 7. Scale: greedy clustering on a 2000-node, degree-10 graph in < 10 s.
 8. Plan soundness: all emitted plans validate and every platoon interval
    coincides with its leader within 1e-6 m at every instant (exact audit).
"""

import itertools
import math
import random
import time

import numpy as np
import pytest
from scipy.linalg import null_space
from scipy.optimize import linprog

from platoonplan import (
    FuelModel,
    build_group,
    cluster,
    exact,
    solve,
    upper_bound,
)
from platoonplan.cli import (
    RunConfig,
    check_follower_coincidence,
    run_pipeline,
    validate_all,
)
from platoonplan.coordination_graph import CoordinationGraph
from platoonplan.joint_optimization import CoordinationGroup, _assemble, _reduce
from platoonplan.planning import validate
from platoonplan.scenario import ScenarioConfig, generate

from conftest import (
    SetCoverInstance,
    delta_u,
    min_set_cover_size,
    objective_value,
    reduce_set_cover,
)

MODEL = FuelModel()


def _criterion(number: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {number} {status}: {description}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


def test_criterion_1_follower_saving_ratio():
    v = 80.0 / 3.6
    ratio = 1.0 - MODEL.follower_rate(v) / MODEL.solo_rate(v)
    _criterion(
        1,
        "follower saving ratio at 80 km/h is 15.9 % +- 0.05 pp",
        abs(ratio - 0.159) <= 5e-4,
        f"ratio={100 * ratio:.4f}%",
    )


def _random_graph(rng, n, p=0.3):
    nodes = [f"v{i:02d}" for i in range(n)]
    edges = {}
    for a, b in itertools.permutations(nodes, 2):
        if rng.random() < p:
            edges[(a, b)] = rng.uniform(1e-12, 1.0)
    return CoordinationGraph(nodes, edges)


def test_criterion_2_oracle_sandwich():
    rng = random.Random(2024)
    ok = True
    for _ in range(200):
        g = _random_graph(rng, rng.randint(1, 12))
        greedy = cluster(g, rule="greedy")
        rand = cluster(g, rule="random", seed=1)
        opt = exact(g, limit=12)
        bound = upper_bound(g)
        ok &= greedy.objective <= opt.objective + 1e-12
        ok &= rand.objective <= opt.objective + 1e-12
        ok &= opt.objective <= bound + 1e-12
        ok &= all(delta_u(g, greedy.leaders, v) <= 1e-12 for v in g.nodes)
        ok &= all(delta_u(g, rand.leaders, v) <= 1e-12 for v in g.nodes)
        if not ok:
            break
    _criterion(2, "greedy <= exact <= upper bound and 1-flip local optimality on 200 graphs", ok)


def test_criterion_3_set_cover_identity():
    rng = random.Random(555)
    ok = True
    for _ in range(100):
        n_u = rng.randint(1, 8)
        universe = frozenset(range(n_u))
        n_f = rng.randint(1, 6)
        family = [
            frozenset(rng.sample(sorted(universe), rng.randint(1, n_u)))
            for _ in range(n_f - 1)
        ]
        missing = universe - (frozenset().union(*family) if family else frozenset())
        family.append(missing if missing else frozenset({rng.randrange(n_u)}))
        inst = SetCoverInstance(universe, tuple(family))
        graph, _ = reduce_set_cover(inst)
        k_star = min_set_cover_size(inst)
        expected = len(universe) + 0.5 * (len(family) - k_star)
        got = exact(graph, limit=len(graph.nodes)).objective
        if abs(got - expected) > 1e-12:
            ok = False
            break
    _criterion(3, "set-cover identity |U| + 0.5(|F| - k*) on 100 instances", ok)


def _grid_search_minimum(prob):
    """Dense feasible-grid minimum of the reduced problem (dim <= 3)."""
    Z = null_space(prob.A) if prob.A.size else np.eye(prob.x0.size)
    red = _reduce(prob, prob.x0, Z)
    if red.dim == 0:
        return prob.objective(prob.x0), 0
    points_per_dim = {1: 20_001, 2: 351, 3: 61}[red.dim]
    axes = []
    for d in range(red.dim):
        c = np.zeros(red.dim)
        c[d] = 1.0
        lo = linprog(c, A_ub=red.Gy, b_ub=red.hy, bounds=[(None, None)] * red.dim,
                     method="highs")
        hi = linprog(-c, A_ub=red.Gy, b_ub=red.hy, bounds=[(None, None)] * red.dim,
                     method="highs")
        if not (lo.success and hi.success):
            return None, red.dim
        axes.append(np.linspace(lo.x[d], hi.x[d], points_per_dim))
    mesh = np.meshgrid(*axes, indexing="ij")
    ys = np.stack([m.ravel() for m in mesh], axis=1)
    slack = red.hy[None, :] - ys @ red.Gy.T
    feasible = np.all(slack >= -1e-9, axis=1)
    if not np.any(feasible):
        return None, red.dim
    xs = prob.x0[None, :] + ys[feasible] @ red.Z.T
    vals = np.sum(prob.c2[None, :] / xs, axis=1) + prob.c0
    return float(np.min(vals)), red.dim


def test_criterion_4_joint_optimization_dominance():
    ok = True
    small_groups_checked = 0
    worst_gap = 0.0
    for seed in range(100):
        cfg = ScenarioConfig(
            rows=10, cols=10, edge_len_m=8000.0, n_assignments=50,
            seed=9000 + seed, start_window_s=7200.0,
        )
        net, assignments = generate(cfg, MODEL)
        run = RunConfig(model=MODEL, scenario=cfg)
        result = run_pipeline(net, assignments, run)
        rep = result.report
        ok &= rep.stage4_fuel_kg <= rep.stage3_fuel_kg + 1e-9
        ok &= rep.stage3_fuel_kg <= rep.default_fuel_kg + 1e-9
        # Upper bound dominates the realized stage-3 objective.
        ok &= rep.upper_bound_kg >= (rep.default_fuel_kg - rep.stage3_fuel_kg) - 1e-9
        # Grid-search agreement for every small group.
        groups_of = {}
        for f, l in result.leader_set.follower_of.items():
            groups_of.setdefault(l, []).append(f)
        amap = result.assignments
        for leader, members in sorted(groups_of.items()):
            group = build_group(
                amap[leader],
                result.default_plans[leader],
                [(amap[f], result.stage3_plans[f]) for f in sorted(members)],
            )
            prob = _assemble(group, MODEL)
            free = (
                null_space(prob.A).shape[1] if prob.A.size else prob.x0.size
            )
            if free > 3:
                continue
            sol = solve(group, MODEL)
            grid_min, _ = _grid_search_minimum(prob)
            if grid_min is None:
                continue
            small_groups_checked += 1
            ok &= sol.objective <= grid_min + 1e-9
            gap = (grid_min - sol.objective) / max(grid_min, 1e-12)
            worst_gap = max(worst_gap, gap)
            ok &= gap <= 1e-3
        if not ok:
            break
    _criterion(
        4,
        "stage-4 <= stage-3 <= default on 100 runs; grid agreement on small groups",
        ok,
        f"small groups checked={small_groups_checked}, worst gap={worst_gap:.2e}",
    )


def test_criterion_5_solo_constant_speed():
    d, window = 120_000.0, 6000.0  # required speed 20 m/s
    group = CoordinationGroup(
        leader_id="L",
        follower_ids=(),
        distances={"L": (d / 4, d / 4, d / 4, d / 4)},
        platoon_flags={"L": (0, 0, 0, 0)},
        initial_times={"L": tuple([d / 4 / MODEL.v_default] * 4)},
        t_start={"L": 0.0},
        t_deadline={"L": window},
        merge_index={},
        split_index={},
        routes={"L": None},
    )
    sol = solve(group, MODEL)
    v_expected = max(MODEL.v_min, d / window)
    worst = max(
        abs(w / t - v_expected)
        for w, t in zip(group.distances["L"], sol.times["L"])
    )
    _criterion(
        5,
        "follower-free leader with slack settles at max(v_min, D / window)",
        worst <= 1e-6,
        f"max |v - v*| = {worst:.2e} m/s",
    )


@pytest.mark.slow
def test_criterion_6_trend_reproduction():
    runs = 30
    sizes = [50, 200, 800]
    means = {}
    spont = {}
    beats_per_run = 0
    for size_idx, size in enumerate(sizes):
        savings = []
        baselines = []
        for r in range(runs):
            cfg = ScenarioConfig(
                rows=20, cols=20, edge_len_m=10_000.0, n_assignments=size,
                seed=40_000 + 10_000 * size_idx + r, start_window_s=7200.0,
            )
            net, assignments = generate(cfg, MODEL)
            run = RunConfig(model=MODEL, scenario=cfg)
            result = run_pipeline(net, assignments, run)
            savings.append(result.report.saving_stage4)
            baselines.append(result.report.saving_spontaneous)
        means[size] = sum(savings) / runs
        spont[size] = sum(baselines) / runs
        if size == 800:
            beats_per_run = sum(1 for s, b in zip(savings, baselines) if s >= b)
    increasing = means[50] < means[200] < means[800]
    positive = means[800] > 0.0
    beats_baseline = means[800] > spont[800]
    mostly_dominates = beats_per_run >= math.ceil(0.95 * runs)
    _criterion(
        6,
        "mean stage-4 saving strictly increasing over N, positive and above baseline at 800",
        increasing and positive and beats_baseline and mostly_dominates,
        f"means={{50: {means[50]:.4f}, 200: {means[200]:.4f}, 800: {means[800]:.4f}}}, "
        f"spontaneous@800={spont[800]:.4f}, runs beating baseline={beats_per_run}/{runs}",
    )


def test_criterion_7_clustering_scale():
    rng = random.Random(7777)
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
    consistent = result.objective == pytest.approx(
        objective_value(g, result.leaders), rel=1e-9
    )
    _criterion(
        7,
        "greedy clustering of 2000 nodes (avg out-degree 10) under 10 s",
        elapsed < 10.0 and consistent,
        f"elapsed={elapsed:.2f}s, objective={result.objective:.1f} kg",
    )


def test_criterion_8_plan_soundness():
    ok = True
    plans_checked = 0
    for seed, size in [(71, 40), (72, 40), (73, 120), (74, 120)]:
        cfg = ScenarioConfig(
            rows=12, cols=12, edge_len_m=9000.0, n_assignments=size,
            seed=seed, start_window_s=3600.0,
        )
        net, assignments = generate(cfg, MODEL)
        run = RunConfig(model=MODEL, scenario=cfg)
        result = run_pipeline(net, assignments, run)
        problems = validate_all(result, MODEL) + [
            msg
            for truck, plan in result.stage4_plans.items()
            for msg in validate(plan, result.assignments[truck], MODEL)
        ]
        coincidence = check_follower_coincidence(result, net)
        ok &= not problems and not coincidence and result.report.groups_fallback == 0
        plans_checked += len(result.stage4_plans)
        if not ok:
            break
    _criterion(
        8,
        "all emitted plans validate; platoon intervals coincide (exact audit)",
        ok,
        f"plans checked={plans_checked}",
    )
