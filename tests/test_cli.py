"""Command-line pipeline: end-to-end runs, exit codes, determinism."""

import csv
import dataclasses
import json
import math
import random
from types import SimpleNamespace

import pytest

from platoonplan import FuelModel, Position, RoadNetwork, VehiclePlan, make_route, shortest_route
from platoonplan.cli import (
    RunConfig,
    check_follower_coincidence,
    main,
    route_assignments,
    run_montecarlo,
    run_pipeline,
    write_montecarlo_csv,
)
from platoonplan.evaluation import RunReport, platoon_size_histogram
from platoonplan.planning import Assignment
from platoonplan.road_network import _dijkstra
from platoonplan.scenario import ScenarioConfig, generate, grid_network

from conftest import chain_network, reference_histogram, sampled_coincidence


def _write_config(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def _write_scenario_config(path, **scenario):
    return _write_config(path, {"scenario": scenario})


def _generate(tmp_path, **scenario):
    cfg = _write_scenario_config(tmp_path / "config.json", **scenario)
    out = tmp_path / "gen"
    rc = main(["generate", "--config", cfg, "--out-dir", str(out)])
    assert rc == 0
    return cfg, out / "network.json", out / "assignments.json"


def test_generate_then_plan_end_to_end(tmp_path):
    weights = {
        f"n{r}_{c}": (1.0 if (r in (0, 5) and c in (0, 5)) else 0.05)
        for r in range(6)
        for c in range(6)
    }
    cfg, network, assignments = _generate(
        tmp_path, rows=6, cols=6, edge_len_m=8000.0, n_assignments=24, seed=4,
        start_window_s=900.0, node_weights=weights,
    )
    out = tmp_path / "run"
    rc = main(
        [
            "plan",
            "--network", str(network),
            "--assignments", str(assignments),
            "--config", cfg,
            "--out-dir", str(out),
            "--graph-csv",
            "--check",
        ]
    )
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["n_assignments"] == 24
    assert 0.0 <= report["saving_stage3"] <= report["saving_stage4"] < 1.0
    assert report["stage4_fuel_kg"] <= report["stage3_fuel_kg"] <= report["default_fuel_kg"]
    plans = json.loads((out / "plans.json").read_text())
    assert len(plans) == 24
    leaders = json.loads((out / "leaders.json").read_text())
    assert set(leaders["follower_of"].values()) <= set(leaders["leaders"])
    assert (out / "graph.csv").exists()
    # Stage-3 fuel drop equals the selected leader set's objective.
    stage3_drop = report["default_fuel_kg"] - report["stage3_fuel_kg"]
    assert stage3_drop == pytest.approx(leaders["objective_kg"], rel=1e-9, abs=1e-12)


def test_plan_rerun_reproduces_identical_outputs(tmp_path):
    cfg, network, assignments = _generate(
        tmp_path, rows=5, cols=5, edge_len_m=6000.0, n_assignments=16, seed=8,
        start_window_s=600.0,
    )
    outputs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        rc = main(
            ["plan", "--network", str(network), "--assignments", str(assignments),
             "--config", cfg, "--out-dir", str(out)]
        )
        assert rc == 0
        outputs.append(
            {f: (out / f).read_bytes() for f in ("plans.json", "leaders.json", "report.json")}
        )
    assert outputs[0] == outputs[1]


def test_plan_zero_assignments(tmp_path):
    cfg, network, assignments = _generate(
        tmp_path, rows=3, cols=3, edge_len_m=1000.0, n_assignments=0, seed=1
    )
    out = tmp_path / "empty"
    rc = main(
        ["plan", "--network", str(network), "--assignments", str(assignments),
         "--config", cfg, "--out-dir", str(out)]
    )
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["saving_stage4"] == 0.0
    assert json.loads((out / "plans.json").read_text()) == []


def test_malformed_network_exits_2(tmp_path):
    bad = tmp_path / "net.json"
    bad.write_text("{broken")
    assignments = tmp_path / "assignments.json"
    assignments.write_text("[]")
    rc = main(["plan", "--network", str(bad), "--assignments", str(assignments),
               "--out-dir", str(tmp_path / "x")])
    assert rc == 2


def test_missing_file_exits_2(tmp_path):
    rc = main(["plan", "--network", str(tmp_path / "nope.json"),
               "--assignments", str(tmp_path / "nada.json"),
               "--out-dir", str(tmp_path / "x")])
    assert rc == 2


@pytest.mark.parametrize(
    "edit",
    [
        lambda e: e["start"].update(edge="nowhere"),
        lambda e: e["dest"].update(offset_m=1500.0),
        lambda e: e.update(dest=dict(e["start"])),
        lambda e: e.update(t_start_s="soon"),
        lambda e: e.update(t_start_s=50.0, t_deadline_s=50.0),
        lambda e: e.update(t_deadline_s=math.inf),
        lambda e: e.update(t_start_s=-math.inf),
    ],
    ids=["unknown-edge", "offset-beyond-edge", "dest-at-start", "non-numeric-start",
         "deadline-at-start", "infinite-deadline", "minus-infinite-start"],
)
def test_bad_assignment_exits_2(tmp_path, edit):
    cfg, network, assignments = _generate(
        tmp_path, rows=3, cols=3, edge_len_m=1000.0, n_assignments=3, seed=1
    )
    doc = json.loads(assignments.read_text())
    edit(doc[0])
    assignments.write_text(json.dumps(doc))
    rc = main(["plan", "--network", str(network), "--assignments", str(assignments),
               "--config", cfg, "--out-dir", str(tmp_path / "x")])
    assert rc == 2


@pytest.mark.parametrize(
    "kind, content",
    [
        pytest.param("config", {"fuel": {"v_min_kmh": 100}}, id="config-v-min-above-default"),
        pytest.param("config", {"solver": {"tol": "x"}}, id="config-tol-not-a-number"),
        pytest.param("config", {"seed": "abc"}, id="config-seed-not-an-int"),
        pytest.param("config", {"selection": "best"}, id="config-unknown-selection"),
        pytest.param("config", {"fuel": {"v_max_kmh": math.inf}}, id="config-infinite-v-max"),
        # json parses an overflowing literal to inf without any constant.
        pytest.param("config", '{"fuel": {"v_max_kmh": 1e999}}', id="config-overflowing-v-max"),
        pytest.param("config", {"scenario": {"seed": True}}, id="config-bool-seed"),
        pytest.param(
            "config", {"scenario": {"deadline_slack_s": math.inf}}, id="config-infinite-slack"
        ),
        pytest.param("config", {"scenario": {"start_window_s": math.nan}}, id="config-nan-window"),
        pytest.param(
            "config", {"scenario": {"node_weights": {"n0_0": math.inf}}}, id="config-infinite-weight"
        ),
        pytest.param(
            "config",
            {"scenario": {"node_weights": {"n0_0": -1.0, "n2_2": 2.0}}},
            id="config-negative-weight",
        ),
        pytest.param(
            "config", {"scenario": {"node_weights": {"n0_0": "heavy"}}}, id="config-text-weight"
        ),
        pytest.param("config", {"seed": 2.7}, id="config-fractional-seed"),
        pytest.param("config", {"exact_limit": True}, id="config-bool-exact-limit"),
        pytest.param("config", {"solver": {"max_iter": 2.5}}, id="config-fractional-max-iter"),
        pytest.param("config", {"solver": {"max_iter": 0}}, id="config-zero-max-iter"),
        pytest.param("config", {"solver": {"tol": -1e-8}}, id="config-negative-tol"),
        pytest.param("config", {"solver": {"tol": math.inf}}, id="config-infinite-tol"),
        # JSON true is a Python int and "0.5" parses as a float: neither is a number here.
        pytest.param("config", {"solver": {"tol": True}}, id="config-bool-tol"),
        pytest.param("config", {"solver": {"tol": "0.5"}}, id="config-numeric-string-tol"),
        pytest.param("config", {"scenario": {"edge_len_m": True}}, id="config-bool-edge-length"),
        pytest.param("montecarlo", {"solver": {"tol": "x"}}, id="montecarlo-config"),
        pytest.param("graph", "src,dst,saving_kg\n1,2,x\n", id="graph-saving-not-a-number"),
        pytest.param("graph", "src,dst,saving_kg\n1,1,2.0\n", id="graph-self-loop"),
        pytest.param("graph", "src,dst,saving_kg\n1,2,inf\n", id="graph-infinite-saving"),
        pytest.param("report", {"n_assignments": 3}, id="report-missing-fields"),
        pytest.param("network", {"nodes": [{"id": [1]}], "edges": []}, id="network-list-node-id"),
        # Routing from A ties (10, 1) against (10, "B").
        pytest.param(
            "network",
            {
                "nodes": [{"id": n} for n in ("X", "A", "B", 1, "Y")],
                "edges": [
                    {"id": eid, "from": u, "to": v, "length_m": 10.0}
                    for eid, u, v in (("in", "X", "A"), ("a1", "A", 1), ("ab", "A", "B"),
                                      ("out", "B", "Y"))
                ],
            },
            id="network-int-among-str-node-ids",
        ),
        # JSON true is a Python int: it must not load as a 1 m edge.
        pytest.param(
            "network",
            {
                "nodes": [{"id": n} for n in ("X", "A", "B", "Y")],
                "edges": [
                    {"id": eid, "from": u, "to": v, "length_m": length}
                    for eid, u, v, length in (("in", "X", "A", 10.0), ("ab", "A", "B", True),
                                              ("out", "B", "Y", 10.0))
                ],
            },
            id="network-bool-length",
        ),
        # The infinite edge is off the assignment's route.
        pytest.param(
            "network",
            {
                "nodes": [{"id": n} for n in ("X", "A", "B", "Y", "Z")],
                "edges": [
                    {"id": eid, "from": u, "to": v, "length_m": length}
                    for eid, u, v, length in (("in", "X", "A", 10.0), ("ab", "A", "B", 10.0),
                                              ("out", "B", "Y", 10.0), ("bz", "B", "Z", math.inf))
                ],
            },
            id="network-infinite-length",
        ),
    ],
)
def test_bad_input_exits_2_with_input_error(tmp_path, capsys, kind, content):
    bad = tmp_path / "bad"
    bad.write_text(content if isinstance(content, str) else json.dumps(content))
    if kind == "config":
        _, network, assignments = _generate(
            tmp_path, rows=3, cols=3, edge_len_m=1000.0, n_assignments=3, seed=1
        )
        argv = ["plan", "--network", str(network), "--assignments", str(assignments),
                "--config", str(bad), "--out-dir", str(tmp_path / "x")]
    elif kind == "montecarlo":
        argv = ["montecarlo", "--config", str(bad), "--runs", "1", "--sizes", "2",
                "--out-dir", str(tmp_path / "x")]
    elif kind == "network":
        assignments = tmp_path / "assignments.json"
        assignments.write_text(json.dumps([{
            "id": "a0", "start": {"edge": "in", "offset_m": 0.0},
            "dest": {"edge": "out", "offset_m": 10.0}, "t_start_s": 0.0, "t_deadline_s": 100.0,
        }]))
        argv = ["plan", "--network", str(bad), "--assignments", str(assignments),
                "--out-dir", str(tmp_path / "x")]
    elif kind == "graph":
        argv = ["exact", "--graph-csv", str(bad), "--out", str(tmp_path / "leaders.json")]
    else:
        argv = ["report", "--report", str(bad), "--out-dir", str(tmp_path / "x")]
    capsys.readouterr()
    assert main(argv) == 2
    events = [json.loads(line)["event"] for line in capsys.readouterr().err.splitlines()]
    assert events == ["input_error"]


@pytest.mark.parametrize(
    "config, argv",
    [
        pytest.param(None, ["generate", "--size", "-5"], id="generate-negative-size"),
        pytest.param(None, ["montecarlo", "--sizes", "-5"], id="montecarlo-negative-size"),
        pytest.param(None, ["montecarlo", "--sizes", "a"], id="montecarlo-size-not-an-int"),
        pytest.param(None, ["montecarlo", "--sizes", "2,2.5"], id="montecarlo-fractional-size"),
        # Every size is checked before the first run.
        pytest.param(None, ["montecarlo", "--sizes", "2,-5"], id="montecarlo-second-size-negative"),
        pytest.param({"scenario": {"rows": 2.5}}, ["generate"], id="generate-fractional-rows"),
        pytest.param(
            {"scenario": {"n_assignments": 5.5}}, ["generate"], id="generate-fractional-count"
        ),
        # A file value that a flag replaces is still checked.
        pytest.param({"seed": "abc"}, ["plan", "--seed", "3"], id="plan-seed-flag-over-bad-file"),
        pytest.param(
            {"scenario": {"seed": "abc"}}, ["generate", "--seed", "3"], id="generate-seed-flag"
        ),
        pytest.param(
            None, ["montecarlo", "--sizes", "2", "--runs", "0"], id="montecarlo-zero-runs"
        ),
        pytest.param(
            None, ["montecarlo", "--sizes", "2", "--jobs", "-4"], id="montecarlo-negative-jobs"
        ),
    ],
)
def test_bad_flag_or_config_value_exits_2_with_input_error(tmp_path, capsys, config, argv):
    """Flags and PLATOON_* values get the checks of the config file, before any run."""
    argv = argv + ["--out-dir", str(tmp_path / "x")]
    if argv[0] == "montecarlo" and "--runs" not in argv:
        argv += ["--runs", "1"]
    if argv[0] == "plan":
        _, network, assignments = _generate(
            tmp_path, rows=3, cols=3, edge_len_m=1000.0, n_assignments=3, seed=1
        )
        argv += ["--network", str(network), "--assignments", str(assignments)]
    if config is not None:
        argv += ["--config", _write_config(tmp_path / "bad.json", config)]
    capsys.readouterr()
    assert main(argv) == 2
    events = [json.loads(line)["event"] for line in capsys.readouterr().err.splitlines()]
    assert events == ["input_error"]
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command", ["plan", "montecarlo"])
def test_bad_selection_from_env_exits_2_with_input_error(tmp_path, capsys, monkeypatch, command):
    """PLATOON_SELECTION is --selection's default, which argparse does not check."""
    if command == "plan":
        _, network, assignments = _generate(
            tmp_path, rows=3, cols=3, edge_len_m=1000.0, n_assignments=3, seed=1
        )
        argv = ["plan", "--network", str(network), "--assignments", str(assignments),
                "--out-dir", str(tmp_path / "x")]
    else:
        argv = ["montecarlo", "--runs", "1", "--sizes", "2", "--out-dir", str(tmp_path / "x")]
    monkeypatch.setenv("PLATOON_SELECTION", "best")
    capsys.readouterr()
    assert main(argv) == 2
    events = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    assert [e["event"] for e in events] == ["input_error"]
    assert "'best'" in events[0]["error"]


@pytest.mark.parametrize(
    "name, argv",
    [
        pytest.param("SEED", ["generate", "--size", "3"], id="seed-generate"),
        pytest.param("JOBS", ["montecarlo", "--runs", "1", "--sizes", "2"], id="jobs-montecarlo"),
    ],
)
def test_bad_integer_from_env_exits_2_with_input_error(tmp_path, capsys, monkeypatch, name, argv):
    """PLATOON_SEED and PLATOON_JOBS are read when the command runs, not as tracebacks."""
    monkeypatch.setenv(f"PLATOON_{name}", "abc")
    capsys.readouterr()
    assert main(argv + ["--out-dir", str(tmp_path / "x")]) == 2
    events = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    assert [e["event"] for e in events] == ["input_error"]
    assert f"PLATOON_{name}" in events[0]["error"]
    assert not (tmp_path / "x").exists()


def test_group_solved_events_carry_solver_telemetry(tmp_path, capsys):
    cfg, network, assignments = _generate(tmp_path, n_assignments=50, seed=7)
    capsys.readouterr()
    rc = main(["plan", "--network", str(network), "--assignments", str(assignments),
               "--config", cfg, "--out-dir", str(tmp_path / "run")])
    assert rc == 0
    events = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    solved = [e for e in events if e["event"] == "group_solved"]
    assert solved
    for e in solved:
        assert {"leader", "followers", "newton_steps", "converged", "objective_before_kg",
                "objective_after_kg", "kkt_residual"} <= set(e)
        assert isinstance(e["lp_calls"], int) and e["lp_calls"] >= 0
        assert isinstance(e["degeneracy_rounds"], int) and e["degeneracy_rounds"] >= 0
        assert e["lp_calls"] >= e["degeneracy_rounds"]
        assert e["solve_s"] > 0.0


def test_a_failing_group_keeps_its_stage3_plans(tmp_path, capsys, monkeypatch):
    """A group whose solve raises falls back to its stage-3 plans; the other
    groups are still re-timed and the run exits 0."""
    from platoonplan import cli, scenario
    from platoonplan.joint_optimization import InfeasibleGroupError, solve

    failed = []

    def failing_solve(group, model, settings=None, start=None):
        if not failed:  # the first group solved fails, in every run
            failed.append(group.leader_id)
        if group.leader_id == failed[0]:
            raise InfeasibleGroupError("injected failure")
        return solve(group, model, settings, start=start)

    monkeypatch.setattr(cli, "solve", failing_solve)
    cfg, network, assignments = _generate(tmp_path, n_assignments=50, seed=7)
    capsys.readouterr()
    rc = main(["plan", "--network", str(network), "--assignments", str(assignments),
               "--config", cfg, "--out-dir", str(tmp_path / "run")])
    assert rc == 0
    events = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    fallback = [e for e in events if e["event"] == "group_fallback"]
    assert [e["leader"] for e in fallback] == failed
    assert fallback[0]["fallback"] is True
    assert "injected failure" in fallback[0]["error"]
    solved = [e for e in events if e["event"] == "group_solved"]
    assert solved and failed[0] not in {e["leader"] for e in solved}
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    assert report["groups_fallback"] == 1

    result = cli.run_pipeline(
        cli.load_network(str(network)),
        scenario.load_assignments(str(assignments)),
        cli.load_config(cfg),
    )
    members = [failed[0], *(f for f, lead in result.leader_set.follower_of.items()
                            if lead == failed[0])]
    assert len(members) > 1
    for m in members:
        assert result.stage4_plans[m] == result.stage3_plans[m]
    assert result.report.groups_fallback == 1


def test_montecarlo_rows_count_fallback_groups(tmp_path, monkeypatch):
    """A run whose every solve raises keeps its stage-3 plans; its montecarlo
    row counts the fallback groups in a CSV column of its own."""
    from platoonplan import cli
    from platoonplan.joint_optimization import InfeasibleGroupError

    def failing_solve(group, model, settings=None, start=None):
        raise InfeasibleGroupError("injected failure")

    monkeypatch.setattr(cli, "solve", failing_solve)
    cfg = _write_scenario_config(tmp_path / "config.json")
    rows = run_montecarlo(cfg, sizes=[50], runs=1, base_seed=7, selection="greedy", jobs=1)
    assert len(rows) == 1 and rows[0]["groups_fallback"] > 0
    assert rows[0]["saving_stage4"] == pytest.approx(rows[0]["saving_stage3"], abs=1e-12)
    out = tmp_path / "mc.csv"
    write_montecarlo_csv(rows, [50], str(out))
    with open(out, newline="") as fh:
        parsed = list(csv.DictReader(fh))
    assert [int(r["groups_fallback"]) for r in parsed[:-1]] == [r["groups_fallback"] for r in rows]


def test_report_without_groups_fallback_still_loads(tmp_path):
    cfg, network, assignments = _generate(tmp_path, n_assignments=12, seed=2)
    out = tmp_path / "run"
    assert main(["plan", "--network", str(network), "--assignments", str(assignments),
                 "--config", cfg, "--out-dir", str(out)]) == 0
    doc = json.loads((out / "report.json").read_text())
    assert doc.pop("groups_fallback") == 0
    (out / "report.json").write_text(json.dumps(doc))
    assert main(["report", "--report", str(out / "report.json"),
                 "--out-dir", str(tmp_path / "rep")]) == 0


def test_infeasible_deadline_still_exits_1(tmp_path, capsys):
    cfg, network, assignments = _generate(
        tmp_path, rows=3, cols=3, edge_len_m=1000.0, n_assignments=3, seed=1
    )
    doc = json.loads(assignments.read_text())
    doc[0]["t_deadline_s"] = doc[0]["t_start_s"] + 1.0
    assignments.write_text(json.dumps(doc))
    capsys.readouterr()
    rc = main(["plan", "--network", str(network), "--assignments", str(assignments),
               "--config", cfg, "--out-dir", str(tmp_path / "x")])
    assert rc == 1
    events = [json.loads(line)["event"] for line in capsys.readouterr().err.splitlines()]
    assert events == ["run_error"]


def test_every_infeasible_assignment_is_listed(tmp_path, capsys):
    cfg, network, assignments = _generate(
        tmp_path, rows=3, cols=3, edge_len_m=1000.0, n_assignments=3, seed=1
    )
    doc = json.loads(assignments.read_text())
    for a in (doc[0], doc[2]):
        a["t_deadline_s"] = a["t_start_s"] + 1.0
    assignments.write_text(json.dumps(doc))
    capsys.readouterr()
    rc = main(["plan", "--network", str(network), "--assignments", str(assignments),
               "--config", cfg, "--out-dir", str(tmp_path / "x")])
    assert rc == 1
    events = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    assert [e["event"] for e in events] == ["run_error"]
    error = events[0]["error"]
    assert f"assignment {doc[0]['id']}:" in error and f"assignment {doc[2]['id']}:" in error
    assert f"assignment {doc[1]['id']}:" not in error


def test_a_group_whose_plans_fail_validate_keeps_its_stage3_plans(
    tmp_path, capsys, monkeypatch
):
    """A group whose extracted leader plan arrives a second after its deadline
    falls back like a group whose solve raises; the run exits 0."""
    from platoonplan import cli, scenario
    from platoonplan.joint_optimization import extract_plans

    broken = []

    def late_extract_plans(group, sol, model):
        plans = extract_plans(group, sol, model)
        if not broken:  # the first group extracted, in every run
            broken.append(group.leader_id)
        if group.leader_id == broken[0]:
            # The leader's last piece covers its meters one second slower.
            lead = plans[group.leader_id]
            t0, t1 = lead.times[-2:]
            v = lead.speeds[-1] * (t1 - t0) / (t1 + 1.0 - t0)
            plans[group.leader_id] = VehiclePlan(
                lead.route, (*lead.speeds[:-1], v), (*lead.times[:-1], t1 + 1.0),
                lead.follower_flags,
            )
        return plans

    monkeypatch.setattr(cli, "extract_plans", late_extract_plans)
    cfg, network, assignments = _generate(tmp_path, n_assignments=50, seed=7)
    capsys.readouterr()
    rc = main(["plan", "--network", str(network), "--assignments", str(assignments),
               "--config", cfg, "--out-dir", str(tmp_path / "run"), "--check"])
    assert rc == 0
    events = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    fallback = [e for e in events if e["event"] == "group_fallback"]
    assert [e["leader"] for e in fallback] == broken
    assert fallback[0]["error"].startswith(f"{broken[0]}: arrival")
    assert "misses deadline" in fallback[0]["error"]
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    assert report["groups_fallback"] == 1

    result = cli.run_pipeline(
        cli.load_network(str(network)),
        scenario.load_assignments(str(assignments)),
        cli.load_config(cfg),
    )
    members = [broken[0], *(f for f, lead in result.leader_set.follower_of.items()
                            if lead == broken[0])]
    for m in members:
        assert result.stage4_plans[m] == result.stage3_plans[m]
    assert result.report.groups_fallback == 1


def test_grouped_routing_matches_per_assignment_routes():
    net = grid_network(4, 4, 1000.0)
    edges = sorted(net.edges)
    rng = random.Random(7)
    assignments = [
        # Same edge, destination ahead of the start: a one-edge route.
        Assignment("same", Position(edges[0], 100.0), Position(edges[0], 900.0), 0.0, 100.0),
    ]
    while len(assignments) < 40:
        frm = Position(rng.choice(edges), rng.choice([0.0, 400.0]))
        to = Position(rng.choice(edges), rng.choice([600.0, 1000.0]))
        if frm.edge != to.edge:
            assignments.append(Assignment(f"a{len(assignments)}", frm, to, 0.0, 1e4))
    routes = route_assignments(net, assignments)
    assert list(routes) == [a.id for a in assignments]
    assert routes["same"].edges == (edges[0],)
    for a in assignments:
        _dijkstra.cache_clear()
        assert routes[a.id] == shortest_route(net, a.start, a.dest)


def test_coincidence_check_tolerates_one_ulp_before_leader_start():
    """A follower merging at the leader's departure may be one float bit early."""
    net = chain_network([10_000.0, 10_000.0, 10_000.0])
    v = 25.0
    t_merge = 10_000.0 / v
    t_leader = math.nextafter(t_merge, math.inf)
    leader = VehiclePlan(
        route=make_route(net, ["e1", "e2"], 0.0, 10_000.0),
        speeds=(v,),
        times=(t_leader, t_leader + 20_000.0 / v),
        follower_flags=(0,),
    )
    follower = VehiclePlan(
        route=make_route(net, ["e0", "e1", "e2"], 0.0, 10_000.0),
        speeds=(v, v),
        times=(0.0, t_merge, t_merge + 20_000.0 / v),
        follower_flags=(0, 1),
        platoon_leader_id="lead",
    )
    result = SimpleNamespace(stage4_plans={"lead": leader, "foll": follower})
    assert check_follower_coincidence(result, net) == []
    # A leader that departs a second late is reported, not raised.
    late = VehiclePlan(leader.route, leader.speeds, (t_merge + 1.0, t_merge + 801.0), (0,))
    result.stage4_plans["lead"] = late
    assert check_follower_coincidence(result, net) == [
        f"foll at t={t_merge:.1f}: leader is not on the road"
    ]


def _pair(leader, follower):
    return SimpleNamespace(stage4_plans={"lead": leader, "foll": follower})


def test_coincidence_check_flags_an_overrun_past_the_leader_arrival():
    """A leader that arrives 2 µs before its follower splits is reported at
    the merge time."""
    net = chain_network([10_000.0, 10_000.0])
    v = 25.0
    follower = VehiclePlan(
        make_route(net, ["e0", "e1"], 0.0, 10_000.0), (v, v, v), (0.0, 100.0, 400.0, 800.0),
        (0, 1, 0), platoon_leader_id="lead",
    )
    t_arrival = 400.0 - 2e-6
    leader = VehiclePlan(
        make_route(net, ["e0"], 0.0, 10_000.0), (10_000.0 / t_arrival,), (0.0, t_arrival), (0,)
    )
    assert check_follower_coincidence(_pair(leader, follower), net) == [
        "foll at t=100.0: leader is not on the road"
    ]


def test_coincidence_check_sees_a_sub_second_surge():
    """The follower gains 0.2 m and gives it back between two grid seconds."""
    net = chain_network([10_000.0, 10_000.0, 10_000.0])
    v = 25.0
    route = make_route(net, ["e0", "e1", "e2"], 0.0, 10_000.0)
    leader = VehiclePlan(route, (v,), (0.0, 1200.0), (0,))
    follower = VehiclePlan(
        route,
        (v, v + 1.0, v - 1.0, v),
        (0.0, 100.3, 100.5, 100.7, 1200.0),
        (1, 1, 1, 1),
        platoon_leader_id="lead",
    )
    assert sampled_coincidence(_pair(leader, follower), net) == []
    problems = check_follower_coincidence(_pair(leader, follower), net)
    assert len(problems) == 1 and problems[0].startswith("foll at t=100.4: ")


def test_coincidence_check_cuts_at_node_passages():
    """Leader and follower take different equal-length detours from A to B and
    rejoin for a last edge twice as long; the middle of their one speed piece
    is node B, where both are again at the same point."""
    nodes = ["A", "X", "Y", "B", "C"]
    edges = [("a1", "A", "X", 5000.0), ("a2", "X", "B", 5000.0),
             ("b1", "A", "Y", 5000.0), ("b2", "Y", "B", 5000.0), ("c", "B", "C", 10_000.0)]
    net = RoadNetwork(nodes, edges)
    v = 25.0
    leader = VehiclePlan(
        make_route(net, ["a1", "a2", "c"], 0.0, 10_000.0), (v,), (0.0, 800.0), (0,)
    )
    follower = VehiclePlan(
        make_route(net, ["b1", "b2", "c"], 0.0, 10_000.0), (v,), (0.0, 800.0), (1,),
        platoon_leader_id="lead",
    )
    problems = check_follower_coincidence(_pair(leader, follower), net)
    assert len(problems) == 1 and problems[0].startswith("foll at t=100.0: ")


def _shifted(plan, dt):
    return VehiclePlan(plan.route, plan.speeds, tuple(t + dt for t in plan.times),
                       plan.follower_flags, plan.platoon_leader_id)


def _sped_up(plan, factor):
    k = plan.follower_flags.index(1)
    speeds = (*plan.speeds[:k], plan.speeds[k] * factor, *plan.speeds[k + 1:])
    return VehiclePlan(plan.route, speeds, plan.times, plan.follower_flags,
                       plan.platoon_leader_id)


def _audit_fleet(cfg):
    """A planned fleet has no group fallen back and passes the exact audit,
    which on 15 of its followers flags two injected faults wherever the 1 s
    oracle does; the histogram sweep matches the per-truck piece scan."""
    model = FuelModel()
    net, assignments, routes = generate(cfg, model)
    result = run_pipeline(net, assignments, RunConfig(model=model, scenario=cfg), routes=routes)
    assert result.report.groups_fallback == 0
    assert check_follower_coincidence(result, net) == []
    for plans in (result.stage3_plans, result.stage4_plans):
        hist, ref = platoon_size_histogram(plans), reference_histogram(plans)
        assert hist.keys() == ref.keys()
        assert all(hist[k] == pytest.approx(ref[k], rel=1e-12) for k in ref)
    plans = result.stage4_plans
    followers = sorted(t for t, p in plans.items() if p.platoon_leader_id is not None)[:15]
    assert followers
    for truck in followers:
        plan = plans[truck]
        leader = plan.platoon_leader_id
        for faulty in (
            {truck: plan, leader: _shifted(plans[leader], 0.01)},  # leader 10 ms late
            {truck: _sped_up(plan, 1.0 + 1e-4), leader: plans[leader]},
        ):
            pair = SimpleNamespace(stage4_plans=faulty)
            exact = check_follower_coincidence(pair, net)
            assert len(exact) == 1
            assert len(sampled_coincidence(pair, net)) <= len(exact)


@pytest.mark.parametrize("seed,size", [(71, 40), (72, 40), (73, 120), (74, 120)])
def test_exact_audit_on_criterion_8_fleets(seed, size):
    _audit_fleet(ScenarioConfig(rows=12, cols=12, edge_len_m=9000.0, n_assignments=size,
                                seed=seed, start_window_s=3600.0))


@pytest.mark.slow
def test_exact_audit_on_the_one_ulp_fleet():
    """generate --size 800 --seed 40001: a follower merges one float bit before
    its leader departs."""
    _audit_fleet(ScenarioConfig(n_assignments=800, seed=40001))


def test_exact_subcommand_on_graph_dump(tmp_path):
    graph_csv = tmp_path / "graph.csv"
    graph_csv.write_text("src,dst,saving_kg\n1,3,2.0\n2,3,3.0\n3,1,1.0\n")
    out = tmp_path / "leaders.json"
    rc = main(["exact", "--graph-csv", str(graph_csv), "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["leaders"] == ["3"]
    assert doc["objective_kg"] == 5.0


def test_montecarlo_rows_and_means(tmp_path):
    cfg = _write_scenario_config(
        tmp_path / "config.json", rows=5, cols=5, edge_len_m=6000.0, start_window_s=900.0
    )
    rows = run_montecarlo(cfg, sizes=[10], runs=3, base_seed=123, selection="greedy", jobs=1)
    assert len(rows) == 3
    rows_again = run_montecarlo(cfg, sizes=[10], runs=3, base_seed=123, selection="greedy", jobs=1)
    metric_cols = ["size", "seed", "saving_stage3", "saving_stage4", "saving_spontaneous",
                   "upper_bound_rel"]
    strip = lambda rs: [{k: r[k] for k in metric_cols} for r in rs]
    assert strip(rows) == strip(rows_again)
    for r in rows:
        assert r["saving_stage4"] >= r["saving_stage3"] - 1e-12
        assert r["groups_fallback"] == 0

    out = tmp_path / "mc.csv"
    write_montecarlo_csv(rows, [10], str(out))
    with open(out, newline="") as fh:
        parsed = list(csv.DictReader(fh))
    assert len(parsed) == 4  # 3 runs + 1 mean row
    assert parsed[-1]["seed"] == "mean"


def test_montecarlo_cli_parallel_jobs(tmp_path):
    cfg = _write_scenario_config(
        tmp_path / "config.json", rows=4, cols=4, edge_len_m=5000.0, start_window_s=600.0
    )
    out = tmp_path / "mc"
    rc = main(["montecarlo", "--config", cfg, "--runs", "2", "--sizes", "6,8",
               "--seed", "5", "--jobs", "2", "--out-dir", str(out)])
    assert rc == 0
    with open(out / "montecarlo.csv", newline="") as fh:
        parsed = list(csv.DictReader(fh))
    data_rows = [r for r in parsed if r["seed"] != "mean"]
    assert len(data_rows) == 4
    assert {r["size"] for r in data_rows} == {"6", "8"}


def test_plan_random_selection_and_exact(tmp_path):
    cfg, network, assignments = _generate(
        tmp_path, rows=4, cols=4, edge_len_m=6000.0, n_assignments=10, seed=21,
        start_window_s=300.0,
    )
    out_r = tmp_path / "rand"
    assert main(["plan", "--network", str(network), "--assignments", str(assignments),
                 "--config", cfg, "--out-dir", str(out_r),
                 "--selection", "random", "--seed", "3"]) == 0
    out_e = tmp_path / "ex"
    assert main(["plan", "--network", str(network), "--assignments", str(assignments),
                 "--config", cfg, "--out-dir", str(out_e), "--exact",
                 "--exact-limit", "10"]) == 0
    rand_rep = json.loads((out_r / "report.json").read_text())
    exact_rep = json.loads((out_e / "report.json").read_text())
    # Exact selection never does worse than the heuristic at stage 3.
    assert exact_rep["saving_stage3"] >= rand_rep["saving_stage3"] - 1e-12


def test_report_subcommand(tmp_path):
    cfg, network, assignments = _generate(
        tmp_path, rows=5, cols=5, edge_len_m=6000.0, n_assignments=12, seed=2,
        start_window_s=600.0,
    )
    out = tmp_path / "run"
    assert main(["plan", "--network", str(network), "--assignments", str(assignments),
                 "--config", cfg, "--out-dir", str(out)]) == 0
    rep_dir = tmp_path / "rep"
    rc = main(["report", "--report", str(out / "report.json"), "--out-dir", str(rep_dir)])
    assert rc == 0
    with open(rep_dir / "metrics.csv", newline="") as fh:
        metrics = {row["metric"]: row["value"] for row in csv.DictReader(fh)}
    assert "saving_stage4" in metrics
    with open(rep_dir / "histogram.csv", newline="") as fh:
        hist_rows = list(csv.DictReader(fh))
    assert all(set(r) == {"size", "meters"} for r in hist_rows)


def test_report_writes_one_metrics_row_per_field(tmp_path):
    cfg, network, assignments = _generate(tmp_path, n_assignments=12, seed=2)
    out = tmp_path / "run"
    assert main(["plan", "--network", str(network), "--assignments", str(assignments),
                 "--config", cfg, "--out-dir", str(out)]) == 0
    rep_dir = tmp_path / "rep"
    assert main(["report", "--report", str(out / "report.json"), "--out-dir", str(rep_dir)]) == 0
    with open(rep_dir / "metrics.csv", newline="") as fh:
        metrics = [row["metric"] for row in csv.DictReader(fh)]
    doc = json.loads((out / "report.json").read_text())
    fields = [f.name for f in dataclasses.fields(RunReport) if f.name != "histogram"]
    assert metrics == fields
    assert set(metrics) == set(doc) - {"histogram"}


def test_env_var_overrides_seed(tmp_path, monkeypatch):
    cfg = _write_scenario_config(tmp_path / "config.json", rows=3, cols=3,
                                 edge_len_m=1000.0, n_assignments=4)
    monkeypatch.setenv("PLATOON_SEED", "99")
    out1 = tmp_path / "env"
    assert main(["generate", "--config", cfg, "--out-dir", str(out1)]) == 0
    monkeypatch.delenv("PLATOON_SEED")
    out2 = tmp_path / "flag"
    assert main(["generate", "--config", cfg, "--seed", "99", "--out-dir", str(out2)]) == 0
    assert (out1 / "assignments.json").read_bytes() == (out2 / "assignments.json").read_bytes()
