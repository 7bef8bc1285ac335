"""Joint re-timing: group construction, solver optimality, plan extraction."""

import math

import numpy as np
import pytest

from platoonplan import (
    Assignment,
    InconsistentGroupError,
    Position,
    SolverSettings,
    adapted_plan,
    build_group,
    default_plan,
    extract_plans,
    plan_fuel,
    solve,
    validate,
)
from platoonplan.joint_optimization import (
    CoordinationGroup,
    _active_set,
    _assemble,
    _kkt_residual,
    _Problem,
    _reduce,
    start_points,
)

from conftest import (
    chain_network,
    check_assemble_matches_reference,
    check_copies_exact,
    check_set_up_matches_reference,
    checked_build_group,
    dual_gap,
    group_objective,
    make_route,
    reference_active_set,
    reference_extract_plans,
    stage4_infeasibility,
)


def _check_constraints(group, sol, model, tol=1e-6):
    """All speed-window, deadline and synchronization constraints at a solution."""
    for member in group.members():
        w = group.distances[member]
        t = sol.times[member]
        for wi, ti in zip(w, t):
            assert wi / ti <= model.v_max * (1 + 1e-9) + 1e-12
            assert wi / ti >= model.v_min * (1 - 1e-9) - 1e-12
        assert sum(t) <= group.t_deadline[member] - group.t_start[member] + tol
    lead_t = sol.times[group.leader_id]
    for fid in group.follower_ids:
        ft = sol.times[fid]
        i_m, i_sp = group.merge_index[fid], group.split_index[fid]
        has_head = group.platoon_flags[fid][0] == 0
        merge_time_f = group.t_start[fid] + (ft[0] if has_head else 0.0)
        merge_time_l = group.t_start[group.leader_id] + sum(lead_t[:i_m])
        assert merge_time_f == pytest.approx(merge_time_l, abs=tol)
        first = 1 if has_head else 0
        for j in range(i_sp - i_m + 1):
            assert ft[first + j] == pytest.approx(lead_t[i_m + j], abs=1e-9)


def _solo_group(model, distances, window, t_start=0.0):
    """Hand-built follower-free group with a given distance partition."""
    total = sum(distances)
    net = chain_network([total])
    route = make_route(net, ["e0"], 0.0, total)
    return CoordinationGroup(
        leader_id="L",
        follower_ids=(),
        distances={"L": tuple(distances)},
        platoon_flags={"L": tuple(0 for _ in distances)},
        initial_times={"L": tuple(d / model.v_default for d in distances)},
        t_start={"L": t_start},
        t_deadline={"L": t_start + window},
        merge_index={},
        split_index={},
        routes={"L": route},
    )


def _worked_group(model, worked_pair, leader_deadline=None):
    _, leader, leader_route, follower, follower_route = worked_pair
    if leader_deadline is not None:
        leader = Assignment(leader.id, leader.start, leader.dest, leader.t_start, leader_deadline)
    leader_plan = default_plan(leader, leader_route, model)
    plan, _ = adapted_plan(follower, follower_route, leader.id, leader_plan, model)
    return leader, leader_plan, build_group(leader, leader_plan, [(follower, plan)])


def test_build_group_solo_leader(model):
    net = chain_network([60_000.0])
    route = make_route(net, ["e0"], 0.0, 60_000.0)
    a = Assignment("L", Position("e0", 0.0), Position("e0", 60_000.0), 0.0,
                   60_000.0 / model.v_default)
    plan = default_plan(a, route, model)
    group = build_group(a, plan, [])
    assert group.distances["L"] == (pytest.approx(60_000.0),)
    assert group.platoon_flags["L"] == (0,)


def test_build_group_worked_example(model, worked_pair):
    _, _, group = _worked_group(model, worked_pair)
    lead_w = group.distances["leader"]
    assert lead_w == (
        pytest.approx(10_000.0, abs=1e-6),
        pytest.approx(80_000.0, abs=1e-6),
        pytest.approx(10_000.0, abs=1e-6),
    )
    fol_w = group.distances["follower"]
    assert fol_w == (
        pytest.approx(9_500.0, abs=1e-6),
        pytest.approx(80_000.0, abs=1e-6),
        pytest.approx(10_000.0, abs=1e-6),
    )
    assert group.platoon_flags["follower"] == (0, 1, 0)
    assert group.platoon_flags["leader"] == (0, 0, 0)
    assert group.merge_index["follower"] == 1
    assert group.split_index["follower"] == 1
    # Interior entries are exact copies of the leader's.
    assert fol_w[1] == lead_w[1]
    assert sum(lead_w) == pytest.approx(100_000.0, abs=1e-6)


def test_build_group_dedupes_shared_merge_event(model, worked_pair):
    net, leader, leader_route, follower, follower_route = worked_pair
    # Same 9.5 km approach, hence the same merge time, but a 4300 s deadline
    # forces this second follower to split mid-corridor.
    second = Assignment("f2", follower.start, follower.dest, 0.0, 4300.0)
    leader_plan = default_plan(leader, leader_route, model)
    p1, _ = adapted_plan(follower, follower_route, leader.id, leader_plan, model)
    p2, _ = adapted_plan(second, follower_route, leader.id, leader_plan, model)
    assert p1.platoon_interval()[0] == pytest.approx(p2.platoon_interval()[0], abs=1e-9)
    assert p2.platoon_interval()[1] < p1.platoon_interval()[1]
    group = build_group(leader, leader_plan, [(follower, p1), (second, p2)])
    assert len(group.distances["leader"]) == 4
    assert group.merge_index["follower"] == group.merge_index["f2"] == 1
    assert group.split_index["f2"] == 1
    assert group.split_index["follower"] == 2


def test_group_with_merge_at_leader_start_pins_head_segment(model):
    """A follower joining at the leader's first meter has its head time fixed.

    The merge-sync equality then involves no leader variables, so the head
    traversal time is pinned to the start-time difference; the solver must
    respect that while still re-timing everything else.
    """
    net = chain_network([10_000.0] * 6)
    leader_route = make_route(net, [f"e{i}" for i in range(1, 5)], 0.0, 10_000.0)
    follower_route = make_route(net, [f"e{i}" for i in range(0, 6)], 0.0, 10_000.0)
    leader = Assignment("L", Position("e1", 0.0), Position("e4", 10_000.0),
                        450.0, 450.0 + 40_000.0 / model.v_default)
    # Departs 450 s before the leader, 10 km upstream: the catch-up speed to
    # the leader's very start is exactly the default speed.
    follower = Assignment("F", Position("e0", 0.0), Position("e5", 10_000.0),
                          0.0, 60_000.0 / model.v_default + 120.0)
    leader_plan = default_plan(leader, leader_route, model)
    plan, _ = adapted_plan(follower, follower_route, "L", leader_plan, model)
    t_m, t_sp = plan.platoon_interval()
    assert t_m == pytest.approx(450.0, abs=1e-9)
    group = build_group(leader, leader_plan, [(follower, plan)])
    assert group.merge_index["F"] == 0
    sol = solve(group, model)
    assert sol.times["F"][0] == pytest.approx(450.0, abs=1e-9)
    assert sol.objective <= group_objective(group, model, group.initial_times) + 1e-12
    assert sol.kkt_residual <= 1e-8
    _check_constraints(group, sol, model)
    plans = extract_plans(group, sol, model)
    for member, a in (("L", leader), ("F", follower)):
        assert validate(plans[member], a, model) == []


def test_build_group_rejects_inconsistent_plans(model, worked_pair):
    _, leader, leader_route, follower, follower_route = worked_pair
    leader_plan = default_plan(leader, leader_route, model)
    plan, _ = adapted_plan(follower, follower_route, leader.id, leader_plan, model)
    wrong = plan.__class__(
        route=plan.route,
        speeds=plan.speeds,
        times=plan.times,
        follower_flags=plan.follower_flags,
        platoon_leader_id="someone_else",
    )
    with pytest.raises(InconsistentGroupError):
        build_group(leader, leader_plan, [(follower, wrong)])


def test_solve_singleton_feasible_set_returns_input(model):
    d = 100_000.0
    group = _solo_group(model, [d], window=d / model.v_max)
    group.initial_times["L"] = (d / model.v_max,)
    sol = solve(group, model)
    assert sol.times["L"] == (pytest.approx(d / model.v_max, abs=1e-9),)
    assert sol.kkt_residual <= 1e-8


def test_solve_solo_slack_deadline_gives_constant_speed(model):
    """Slack windows settle on constant speed max(v_min, D / window)."""
    cases = [
        (90_000.0, 4500.0),   # required 20 m/s, inside the window
        (90_000.0, 5100.0),   # required 17.6 m/s, clamped to v_min
    ]
    for d, window in cases:
        group = _solo_group(model, [d / 3, d / 3, d / 3], window=window)
        sol = solve(group, model)
        v_expected = max(model.v_min, d / window)
        for wi, ti in zip(group.distances["L"], sol.times["L"]):
            assert wi / ti == pytest.approx(v_expected, abs=1e-6)
        assert sol.kkt_residual <= 1e-8
        _check_constraints(group, sol, model)


def test_constant_speed_beats_two_segment_splits(model):
    """Grid oracle behind the solo case: any uneven split costs more fuel."""
    d, window = 90_000.0, 4500.0
    w1 = 30_000.0
    w2 = d - w1
    c = model.a0
    best = math.inf
    best_t1 = None
    for k in range(1, 2000):
        t1 = k / 2000.0 * window
        t2 = window - t1
        if not (w1 / model.v_max <= t1 <= w1 / model.v_min):
            continue
        if not (w2 / model.v_max <= t2 <= w2 / model.v_min):
            continue
        fuel = c * w1 * w1 / t1 + c * w2 * w2 / t2
        if fuel < best:
            best, best_t1 = fuel, t1
    even = c * w1 * w1 / (w1 / 20.0) + c * w2 * w2 / (w2 / 20.0)
    assert even <= best + 1e-9
    assert best_t1 / w1 == pytest.approx(1 / 20.0, rel=2e-3)


def test_solve_worked_group_beats_pairwise_and_matches_grid(model, worked_pair):
    leader, leader_plan, group = _worked_group(model, worked_pair, leader_deadline=4800.0)
    initial = group_objective(group, model, group.initial_times)
    sol = solve(group, model)
    assert sol.objective < initial - 1e-6
    assert sol.kkt_residual <= 1e-8
    _check_constraints(group, sol, model)

    # Brute force over the leader's three traversal times; the follower's
    # head and platoon times are pinned by synchronization and its tail is
    # cheapest as slow as deadline and speed window allow.
    wl = group.distances["leader"]
    wf = group.distances["follower"]
    window_l = 4800.0
    window_f = 4477.5
    steps = 46
    grids = [
        np.linspace(w / model.v_max, w / model.v_min, steps) for w in wl
    ]
    c2l = [model.a0 * w * w for w in wl]
    c2f = [model.a0 * wf[0] ** 2, model.ap * wf[1] ** 2, model.a0 * wf[2] ** 2]
    const = sum(model.b0 * w for w in (wl[0], wl[1], wl[2], wf[0], wf[2]))
    const += model.bp * wf[1]
    best = math.inf
    for t1 in grids[0]:
        for t2 in grids[1]:
            for t3 in grids[2]:
                if t1 + t2 + t3 > window_l:
                    continue
                tf1 = t1  # equal start times, merge sync
                tf2 = t2
                tail_budget = window_f - tf1 - tf2
                tf3 = min(wf[2] / model.v_min, tail_budget)
                if tf3 < wf[2] / model.v_max:
                    continue
                fuel = (
                    c2l[0] / t1 + c2l[1] / t2 + c2l[2] / t3
                    + c2f[0] / tf1 + c2f[1] / tf2 + c2f[2] / tf3
                )
                if fuel < best:
                    best = fuel
    grid_best = best + const
    assert sol.objective <= grid_best + 1e-9
    assert grid_best - sol.objective <= 1e-3 * grid_best


def test_extract_plans_identity_for_pinned_group(model):
    d = 100_000.0
    group = _solo_group(model, [d], window=d / model.v_max)
    group.initial_times["L"] = (d / model.v_max,)
    sol = solve(group, model)
    plans = extract_plans(group, sol, model)
    assert plans["L"].speeds == (pytest.approx(model.v_max, abs=1e-12),)
    assert plans["L"].times[-1] == pytest.approx(d / model.v_max, abs=1e-9)


def test_extract_plans_validate_and_match_objective(model, worked_pair):
    leader, leader_plan, group = _worked_group(model, worked_pair, leader_deadline=4800.0)
    sol = solve(group, model)
    plans = extract_plans(group, sol, model)
    total = sum(plan_fuel(model, p) for p in plans.values())
    assert total == pytest.approx(sol.objective, rel=1e-9)
    _, _, _, follower, follower_route = worked_pair
    leader_late = Assignment(leader.id, leader.start, leader.dest, leader.t_start, 4800.0)
    for member, assignment in (("leader", leader_late), ("follower", follower)):
        assert validate(plans[member], assignment, model) == []
    assert plans["follower"].platoon_leader_id == "leader"
    assert plans["leader"].platoon_leader_id is None


def test_objective_curvature_is_nonnegative_symbolically():
    """f(W/T) * W with affine nonneg-slope f is convex in T for T > 0."""
    import sympy

    a, b, W, T = sympy.symbols("a b W T", positive=True)
    fuel = (a * W / T + b) * W
    second = sympy.diff(fuel, T, 2)
    assert sympy.simplify(second - 2 * a * W**2 / T**3) == 0


def test_solver_runs_with_custom_settings(model, worked_pair):
    _, _, group = _worked_group(model, worked_pair, leader_deadline=4800.0)
    sol = solve(group, model, SolverSettings(tol=1e-6, max_iter=80))
    assert sol.converged
    assert sol.objective <= group_objective(group, model, group.initial_times)


def _solve_fleet_checked(model, monkeypatch, seed, deadline_slack_s=0.0):
    """Run the 800-truck fleet of this seed and deadline slack; every group's
    solution must be feasible to 1e-9, stationary, converged and certified
    optimal to a dual gap of 1e-9, from at most one LP; no group may fall
    back to its stage-3 plans, and every plan must validate. Returns
    {leader id: (group, solution)} of the groups solved.
    """
    from platoonplan import cli
    from platoonplan.scenario import ScenarioConfig, generate

    checked = {}

    def checked_solve(group, fuel, settings=None, start=None):
        sol = solve(group, fuel, settings, start=start)
        assert stage4_infeasibility(group, sol, fuel) <= 1e-9, group.leader_id
        assert sol.kkt_residual <= 1e-8, group.leader_id
        assert sol.converged, group.leader_id
        assert dual_gap(group, fuel, sol.times) <= 1e-9, group.leader_id
        assert sol.lp_calls <= 1, group.leader_id
        checked[group.leader_id] = group, sol
        return sol

    monkeypatch.setattr(cli, "solve", checked_solve)
    cfg = ScenarioConfig(n_assignments=800, seed=seed, deadline_slack_s=deadline_slack_s)
    run = cli.RunConfig(model=model, scenario=cfg)
    net, assignments = generate(run.scenario, model)
    result = cli.run_pipeline(net, assignments, run)
    # A group whose solve raised would keep its stage-3 plans and still validate.
    assert result.report.groups_fallback == 0
    assert len(checked) == len(result.group_logs)
    assert cli.validate_all(result, model) == []
    for truck, plan in result.stage4_plans.items():
        assert validate(plan, result.assignments[truck], model) == [], truck
    return checked


@pytest.mark.slow
def test_solve_stays_feasible_on_rank_deficient_faces(model, monkeypatch):
    """Near the optimum of this fleet's group a0588 (10 trucks, 87 variables)
    the nearly tight rows are linearly dependent and not all consistent.
    Every group's solution must still satisfy G x <= h and be stationary, and
    the stage-4 plans must validate: a box row broken by 5.5e-7 relative once
    gave a speed below v_min here.
    """
    assert "a0588" in _solve_fleet_checked(model, monkeypatch, seed=201)


@pytest.mark.slow
def test_solve_converges_on_every_group_from_an_empty_working_set(model, monkeypatch):
    """Seeding the working set with the nearly tight rows of the LP start, as
    the crossover after the barrier did, once stopped a group of this fleet
    on a wrong face (KKT residual 4e-3). From an empty working set every
    group must be feasible, stationary and converged.
    """
    assert len(_solve_fleet_checked(model, monkeypatch, seed=102)) > 100


@pytest.mark.slow
@pytest.mark.parametrize("seed", [101, 205])
def test_solve_flat_groups_of_a_slack_fleet_from_the_pairwise_plans(model, monkeypatch, seed):
    """With 1800 s of deadline slack, about 40 % of these fleets' groups (70
    of 173 for seed 101) have a feasible set without interior, mostly where a
    follower catches a leader at v_min only by driving at v_max. Each such
    group starts from its pairwise plans after one LP, with no rows converted
    into equalities, and must still be feasible, stationary and converged.
    In group a0149 of seed 205 the pairwise plans pin the leader's first
    segment between two opposite box rows; once one of them is working, the
    other's step is rounding noise of a 7e3 s step, and it must not stop the
    method at the start.
    """
    checked = _solve_fleet_checked(model, monkeypatch, seed=seed, deadline_slack_s=1800.0)
    assert len(checked) > 100


@pytest.mark.slow
def test_groups_optimal_at_their_pairwise_plans_get_no_lp_and_no_round(model, monkeypatch):
    """On the 800-truck fleet of seed 205 with 1800 s of deadline slack, most
    groups' pairwise plans already meet the KKT conditions, which for a convex
    program certify them optimal. Such a group must return its pairwise times
    bit for bit after 0 rounds and 0 LPs, with a dual gap of 1e-9; every other
    group passes _solve_fleet_checked's checks from the active set.
    """
    from platoonplan.joint_optimization import _set_up

    checked = _solve_fleet_checked(model, monkeypatch, seed=205, deadline_slack_s=1800.0)
    certified = 0
    for group, sol in checked.values():
        if _kkt_residual(*_set_up(group, model)) > SolverSettings().tol:
            assert sol.newton_steps >= 1, group.leader_id
            continue
        certified += 1
        assert sol.newton_steps == 0 and sol.lp_calls == 0, group.leader_id
        assert sol.times == group.initial_times, group.leader_id
        assert dual_gap(group, model, sol.times) <= 1e-9, group.leader_id
    assert certified >= 150


def test_groups_that_need_a_start_share_one_lp_across_certified_groups(model, monkeypatch):
    """Four solo groups whose deadline row is tight at the pairwise plans, so
    that y = 0 is not strictly interior. The middle two drive constant speed,
    which meets the KKT conditions: they are certified and get no LP. The
    outer two change speed, so they need a start; with LP_BLOCK 2 they still
    share one LP, as a block counts only groups that need one.
    """
    from platoonplan import joint_optimization

    calls = []
    linprog = joint_optimization.linprog

    def counted_linprog(*args, **kwargs):
        calls.append(args)
        return linprog(*args, **kwargs)

    monkeypatch.setattr(joint_optimization, "linprog", counted_linprog)
    monkeypatch.setattr(joint_optimization, "LP_BLOCK", 2)

    def group(*speeds):
        w = 30_000.0
        times = tuple(w / v for v in speeds)
        solo = _solo_group(model, [w] * len(speeds), window=sum(times))
        solo.initial_times["L"] = times
        return solo

    v = model.v_default
    groups = [group(1.05 * v, v, 0.95 * v), group(v, v, v), group(v, v, v), group(0.95 * v, v, v)]
    starts = list(start_points(groups, model))
    assert len(calls) == 1
    # A certified group's start is given at once; the other two wait for the LP.
    assert [g for g, _ in starts] == [groups[k] for k in (1, 2, 0, 3)]
    assert [start[3] for _, start in starts] == [0, 0, 1, 1]
    sols = [solve(g, model, start=start) for g, start in starts]
    assert [sol.newton_steps > 0 for sol in sols] == [False, False, True, True]
    assert all(sol.converged for sol in sols)
    assert sols[0].times == groups[1].initial_times


def test_solve_flat_group_from_a_degenerate_vertex(model):
    """A follower whose deadline is its v_max travel time pins its own
    segments and the two leader segments it copies; the leader keeps slack
    on its last segment. The feasible set is a segment of the leader's last
    traversal time, so it has no interior, and the pairwise plans (every
    truck at v_max) are a vertex where more rows are tight than there are
    free dimensions. The optimum drives the leader's last segment at the
    speed that meets its deadline exactly, 22 m/s.
    """
    from scipy.linalg import null_space

    lead_w, foll_w = (30_000.0, 40_000.0, 20_000.0), (30_000.0, 40_000.0, 15_000.0)
    v_last = 22.0
    route = make_route(chain_network([sum(lead_w)]), ["e0"], 0.0, sum(lead_w))
    group = CoordinationGroup(
        leader_id="L",
        follower_ids=("F",),
        distances={"L": lead_w, "F": foll_w},
        platoon_flags={"L": (0, 0, 0), "F": (1, 1, 0)},
        initial_times={m: tuple(wi / model.v_max for wi in w)
                       for m, w in (("L", lead_w), ("F", foll_w))},
        t_start={"L": 0.0, "F": 0.0},
        t_deadline={"L": 70_000.0 / model.v_max + 20_000.0 / v_last,
                    "F": sum(foll_w) / model.v_max},
        merge_index={"F": 0},
        split_index={"F": 1},
        routes={"L": route, "F": route},
    )
    prob = _assemble(group, model)
    red = _reduce(prob, prob.x0, null_space(prob.A))
    tight = red.slack(np.zeros(red.dim)) <= 1e-9 * (1.0 + np.abs(red.hy))
    assert red.dim == 4 and int(tight.sum()) > red.dim

    sol = solve(group, model)
    assert sol.lp_calls <= 1
    assert sol.converged
    assert sol.kkt_residual <= 1e-8
    def at_v_max(w):
        return tuple(pytest.approx(wi / model.v_max, rel=1e-12) for wi in w)

    assert sol.times["F"] == at_v_max(foll_w)
    assert sol.times["L"] == (*at_v_max(lead_w[:2]), pytest.approx(20_000.0 / v_last, rel=1e-9))
    _check_constraints(group, sol, model)


@pytest.mark.parametrize(
    "w, speeds, v_opt",
    [
        ((45_000.0, 60_000.0), (24.0, 21.0), 21.0),
        ((45_000.0, 60_000.0), (24.0, 23.0), 20.0),
        ((45_000.0, 70_000.0), (24.0, 24.5), 20.0),
    ],
)
def test_duplicate_rows_of_a_copied_segment_do_not_block_the_step(model, w, speeds, v_opt):
    """A follower platooning over the leader's whole journey, with the same
    start and deadline, copies every row of the leader: its box rows are the
    leader's and are stated once, and its deadline row equals the leader's.
    The optimum is constant speed v_opt on the shared deadline, reached by
    several Newton steps on its face; the twin of the working deadline row
    sees only rounding noise in its step and must not stop the method there.
    """
    window = sum(w) / v_opt
    start = tuple(wi / v for wi, v in zip(w, speeds))
    route = make_route(chain_network([sum(w)]), ["e0"], 0.0, sum(w))
    group = CoordinationGroup(
        leader_id="L",
        follower_ids=("F",),
        distances={"L": w, "F": w},
        platoon_flags={"L": (0, 0), "F": (1, 1)},
        initial_times={"L": start, "F": start},
        t_start={"L": 0.0, "F": 0.0},
        t_deadline={"L": window, "F": window},
        merge_index={"F": 0},
        split_index={"F": 1},
        routes={"L": route, "F": route},
    )
    sol = solve(group, model)
    assert sol.converged
    assert sol.kkt_residual <= 1e-8
    for member in group.members():
        for wi, ti in zip(w, sol.times[member]):
            assert ti == pytest.approx(wi / v_opt, rel=1e-9)
    _check_constraints(group, sol, model)


def test_crossover_step_stops_at_the_row_it_would_cross():
    """min 1/x on 50 <= x <= 120 from x = 100: the Newton step (to x = 150)
    would cross the upper bound, so the ratio test stops on it, the row joins
    the working set, and its positive multiplier ends the pass at x = 120.
    """
    prob = _Problem(
        x0=np.array([100.0]),
        c2=np.array([1.0]),
        c0=0.0,
        A=np.zeros((0, 1)),
        b=np.zeros(0),
        G=np.array([[-1.0], [1.0]]),
        h=np.array([-50.0, 120.0]),
        var_slices={},
    )
    red = _reduce(prob, prob.x0, np.eye(1))
    y, _ = _active_set(prob, red, np.zeros(1))
    x = red.x(y)
    assert x[0] == pytest.approx(120.0, rel=1e-12)
    assert x[0] <= 120.0


def _plane_problem(G, h, c2):
    """min sum c2_j / x_j subject to G x <= h from x = (10, 10), unreduced."""
    G = np.array(G, dtype=float)
    prob = _Problem(
        x0=np.array([10.0, 10.0]),
        c2=np.array(c2, dtype=float),
        c0=0.0,
        A=np.zeros((0, 2)),
        b=np.zeros(0),
        G=G,
        h=np.array(h, dtype=float),
        var_slices={},
    )
    return prob, _reduce(prob, prob.x0, np.eye(2))


def test_a_row_parallel_to_the_one_that_left_joins_after_the_basis_rebuild():
    """min 1/x1 + 6/x2 on the band 25 <= 2 x1 + x2 <= 31 below x1 + 2 x2 <= 31.

    The first step meets both upper rows at x1 = x2 = 31/3. The band's upper
    row has a negative multiplier there and leaves the working set, so the
    next step slides along x1 + 2 x2 = 31 and stops on the band's lower row,
    which is parallel to the row that left. It joins, leaves again with a
    negative multiplier, and the method ends at the optimum on
    x1 + 2 x2 = 31, x2 = sqrt(3) x1, inside the band.
    """
    prob, red = _plane_problem([[2, 1], [1, 2], [-2, -1]], [31, 31, -25], [1, 6])
    y, rounds = _active_set(prob, red, np.zeros(2))
    x1 = 31.0 / (1.0 + 2.0 * math.sqrt(3.0))
    assert red.x(y) == pytest.approx([x1, math.sqrt(3.0) * x1], rel=1e-9)
    assert rounds == reference_active_set(prob, red, np.zeros(2))[1] == 9


@pytest.mark.parametrize(
    "eps, ref_stationary",
    [(0.0, True), (1e-14, True), (1e-12, False), (1e-10, False), (1e-8, True)],
)
def test_a_blocking_row_joins_only_outside_the_span_of_the_working_rows(eps, ref_stationary):
    """min 1/x1 + 6/x2 below 2 x1 + x2 <= 31 and a row tilted eps from it,
    tight at (9, 13). The first row joins at x1 = x2 = 31/3; along it the
    step keeps that row tight, so the tilted row changes by eps times the
    step in x2. Where that is rounding noise (eps up to 1e-14) it does not
    block; else it blocks at (9, 13) and joins. Either way the method ends
    at the optimum on the tilted row, 2 x1 + (1 + eps) x2 = 31 + 13 eps with
    x2 = sqrt(12 / (1 + eps)) x1, which for eps = 0 is the first row.
    The reference stops at (9, 13), objective 0.5727 against 0.4816, when
    the tilted row blocks within 1e-9 of the span of the working row
    (eps 1e-12 and 1e-10); wherever it ends stationary it takes the same
    rounds.
    """
    prob, red = _plane_problem([[2, 1], [2, 1 + eps]], [31, 31 + 13 * eps], [1, 6])
    y, rounds = _active_set(prob, red, np.zeros(2))
    x1 = (31.0 + 13.0 * eps) / (2.0 + math.sqrt(12.0 * (1.0 + eps)))
    assert red.x(y) == pytest.approx([x1, math.sqrt(12.0 / (1.0 + eps)) * x1], rel=1e-9)
    assert _kkt_residual(prob, red, y) <= 1e-8
    y_ref, rounds_ref = reference_active_set(prob, red, np.zeros(2))
    assert (_kkt_residual(prob, red, y_ref) <= 1e-8) == ref_stationary
    if ref_stationary:
        assert rounds == rounds_ref


@pytest.mark.slow
@pytest.mark.parametrize("slack", [0.0, 1800.0])
def test_active_set_and_assembly_match_the_reference_on_an_800_truck_fleet(model, slack):
    """On the 800-truck fleet of seed 101 and its 1800 s slack twin,
    build_group equals the two-pass reference and _assemble the per-equality
    build, bit for bit; from every group's start _active_set takes as many
    rounds as the least-squares reference, reaches its objective to 1e-12
    relative, satisfies G x <= h to 1e-9 and is
    stationary to 1e-8. _set_up's reduction passes
    check_set_up_matches_reference; the solution is certified optimal to a
    dual gap of 1e-9, its plans equal the scalar loop's, its followers copy
    the leader's platoon times and speeds exactly, and at the pairwise plans
    the certified gap is at least the true one.
    """
    groups = _seeded_fleet_groups(model, n=800, seed=101, deadline_slack_s=slack)
    assert len(groups) > 150
    for group, start in start_points(groups, model):
        check_assemble_matches_reference(group, model)
        assert not isinstance(start, Exception), group.leader_id
        sol = solve(group, model, start=start)
        check_set_up_matches_reference(group, model, sol.objective)
        plans = extract_plans(group, sol, model)
        assert plans == reference_extract_plans(group, sol, model), group.leader_id
        check_copies_exact(group, sol, plans)
        assert dual_gap(group, model, sol.times) <= 1e-9, group.leader_id
        f_pairwise = group_objective(group, model, group.initial_times)
        true_gap = (f_pairwise - sol.objective) / f_pairwise
        assert dual_gap(group, model, group.initial_times) >= true_gap - 1e-15, group.leader_id
        prob, red, y0, _, _ = start
        if not red.dim:
            continue
        y, rounds = _active_set(prob, red, y0)
        y_ref, rounds_ref = reference_active_set(prob, red, y0)
        assert rounds == rounds_ref, group.leader_id
        f, f_ref = prob.objective(red.x(y)), prob.objective(red.x(y_ref))
        assert abs(f - f_ref) <= 1e-12 * abs(f_ref), group.leader_id
        full = _assemble(group, model)
        assert np.max((full.G @ red.x(y) - full.h) / (1.0 + np.abs(full.h))) <= 1e-9
        assert _kkt_residual(prob, red, y) <= 1e-8, group.leader_id


@pytest.mark.slow
def test_active_set_ends_optimal_on_every_group_of_a_slack_fleet(model):
    """On the 800-truck fleet of seed 105 with 1800 s of deadline slack, from
    every group's start _active_set ends stationary to 1e-8, certified
    optimal to a dual gap of 1e-9, satisfies G x <= h to 1e-9 and is no
    worse than the pairwise plans. In group a0647 a row within 1e-9 of the
    span of the working rows once blocked and stopped the method after 3
    rounds at 80.990 kg, KKT residual 3.8e-3, worse than the pairwise
    plans' 80.664 kg.
    """
    groups = _seeded_fleet_groups(model, n=800, seed=105, deadline_slack_s=1800.0)
    assert "a0647" in [group.leader_id for group in groups]
    for group, start in start_points(groups, model):
        assert not isinstance(start, Exception), group.leader_id
        prob, red, y0, _, _ = start
        if not red.dim:
            continue
        y, _ = _active_set(prob, red, y0)
        assert _kkt_residual(prob, red, y) <= 1e-8, group.leader_id
        times = {member: red.x(y)[prob.var_slices[member]] for member in group.members()}
        assert dual_gap(group, model, times) <= 1e-9, group.leader_id
        full = _assemble(group, model)
        assert np.max((full.G @ red.x(y) - full.h) / (1.0 + np.abs(full.h))) <= 1e-9
        f, f_pairwise = prob.objective(red.x(y)), prob.objective(prob.x0)
        assert f <= f_pairwise * (1.0 + 1e-12), group.leader_id


def test_a_failed_block_lp_stays_with_its_group():
    """Three reduced systems share one start LP. The middle one has a row with
    no freedom that asks 0 <= -1, which _reduce rejects in a real group; it
    makes the LP infeasible, while the margin column makes every other
    system's LP feasible (y <= -1 and -y <= -1 has margin -1). The block LP
    fails, so each system is solved alone: the outer two get the starts they
    get alone, and the middle one gets the lone LP's error.
    """
    from platoonplan.joint_optimization import InfeasibleGroupError, _interior_points, _Reduced

    def system(Gy, hy):
        Gy = np.array(Gy, dtype=float)
        d = Gy.shape[1]
        return _Reduced(base=np.zeros(d), Z=np.eye(d), Gy=Gy, hy=np.array(hy, dtype=float))

    box = system([[-1, 0], [1, 0], [0, -1], [0, 1]], [-1, 3, 0, 2])  # 1 <= y0 <= 3, 0 <= y1 <= 2
    broken = system([[1], [0]], [1, -1])
    flat = system([[1], [-1]], [-1, -1])
    alone = [_interior_points([red])[0] for red in (box, flat)]
    assert alone[0][0] == pytest.approx([2.0, 1.0]) and alone[0][1] == 1
    assert np.array_equal(alone[1][0], [0.0]) and alone[1][1] == 1

    first, middle, last = _interior_points([box, broken, flat])
    for got, want in zip((first, last), alone):
        assert np.array_equal(got[0], want[0]) and got[1] == want[1]
    assert isinstance(middle, InfeasibleGroupError)
    assert str(middle).startswith("interior search LP failed: ")
    assert str(_interior_points([broken])[0]) == str(middle)

    shared = _interior_points([box, flat])
    assert [lp for _, lp in shared] == [1, 1]
    assert shared[0][0] == pytest.approx([2.0, 1.0]) and np.array_equal(shared[1][0], [0.0])


def _seeded_fleet_groups(model, n=50, seed=7, deadline_slack_s=0.0):
    """The coordination groups of a generated fleet, as stage 4 builds them;
    each equals the one the two-pass reference_build_group builds."""
    from platoonplan import cli
    from platoonplan.scenario import ScenarioConfig, generate

    cfg = ScenarioConfig(n_assignments=n, seed=seed, deadline_slack_s=deadline_slack_s)
    run = cli.RunConfig(model=model, scenario=cfg)
    net, assignments = generate(run.scenario, model)
    result = cli.run_pipeline(net, assignments, run)
    followers_of = {}
    for f, leader in sorted(result.leader_set.follower_of.items()):
        followers_of.setdefault(leader, []).append(f)
    return [
        checked_build_group(
            result.assignments[leader],
            result.default_plans[leader],
            [(result.assignments[f], result.stage3_plans[f]) for f in fs],
        )
        for leader, fs in sorted(followers_of.items())
    ]


def test_assemble_matches_the_group_definition(model, worked_pair):
    """_assemble's rows say what the group's fields say, checked row by row.

    For random times x (members' segments concatenated in members() order):
    G x <= h holds exactly on the rows where w / x lies within [v_min, v_max]
    (lower rows, then upper rows) and where a truck's times fit between its
    start and deadline. A x = b holds for the pairwise times and for any x
    built from the synchronization rules: a follower's head ends when the
    leader reaches the merge segment, and its platoon times copy the leader's.
    """
    rng = np.random.default_rng(5)
    groups = [_worked_group(model, worked_pair)[2], *_seeded_fleet_groups(model)]
    assert len(groups) > 3
    all_held = set()
    for group in groups:
        members = group.members()
        prob = _assemble(group, model)
        ends = np.cumsum([0] + [len(group.distances[m]) for m in members])
        w = np.concatenate([group.distances[m] for m in members])
        window = [group.t_deadline[m] - group.t_start[m] for m in members]
        x0 = np.concatenate([group.initial_times[m] for m in members])
        assert np.array_equal(prob.x0, x0)

        for lo, hi in [(model.v_min, model.v_max), (0.98 * model.v_min, 1.02 * model.v_max),
                       (0.999 * model.v_max, model.v_max)] * 20:
            x = w / rng.uniform(lo, hi, w.size)
            speed = w / x
            expected = np.concatenate([
                speed <= model.v_max,
                speed >= model.v_min,
                [sum(x[a:b]) <= t for a, b, t in zip(ends, ends[1:], window)],
            ])
            held = prob.G @ x <= prob.h
            assert np.array_equal(held, expected), group.leader_id
            all_held.add(bool(held.all()))

        assert np.allclose(prob.A @ x0, prob.b, rtol=0.0, atol=1e-6)
        # Times that satisfy the synchronization rules by construction.
        x = rng.uniform(100.0, 1000.0, w.size)
        lead = x[: ends[1]]
        expected_rows = 0
        for k, fid in enumerate(group.follower_ids, start=1):
            i_m, i_sp = group.merge_index[fid], group.split_index[fid]
            head = int(group.platoon_flags[fid][0] == 0)
            f = ends[k]
            if head:
                x[f] = group.t_start[group.leader_id] + lead[:i_m].sum() - group.t_start[fid]
            x[f + head : f + head + i_sp - i_m + 1] = lead[i_m : i_sp + 1]
            expected_rows += int(bool(head or i_m)) + (i_sp - i_m + 1)
        assert prob.A.shape == (expected_rows, w.size)
        assert np.allclose(prob.A @ x, prob.b, rtol=0.0, atol=1e-6)
    assert all_held == {True, False}
