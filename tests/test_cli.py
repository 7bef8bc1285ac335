"""Command-line pipeline: end-to-end runs, exit codes, determinism."""

import csv
import dataclasses
import json
import math
import random
from types import SimpleNamespace
from typing import get_type_hints

import pytest

from platoonplan import FuelModel, Position, RoadNetwork, VehiclePlan, cli, shortest_route
from platoonplan.cli import (
    MONTECARLO_COLUMNS,
    RunConfig,
    check_follower_coincidence,
    load_config,
    main,
    route_assignments,
    run_montecarlo,
    run_pipeline,
    write_montecarlo_csv,
)
from platoonplan.coordination_graph import load_graph_csv
from platoonplan.evaluation import RunReport, platoon_size_histogram
from platoonplan.leader_selection import exact
from platoonplan.planning import Assignment, validate
from platoonplan.road_network import save_network, shortest_node_route
from platoonplan.scenario import ScenarioConfig, ScenarioError, generate, grid_network

from conftest import (
    _leaders_doc,
    _plan_to_doc,
    chain_network,
    make_route,
    reference_histogram,
    reference_route,
    sampled_coincidence,
)


# A well-typed report.json document; test_report_fields_of_the_right_types_load runs it.
REPORT = json.loads(
    RunReport(
        n_assignments=3, default_fuel_kg=30.0, stage3_fuel_kg=29.0, stage4_fuel_kg=28.5,
        spontaneous_fuel_kg=29.8, upper_bound_kg=2.0, saving_stage3=1 / 30,
        saving_stage4=0.05, saving_spontaneous=0.2 / 30, upper_bound_rel=2 / 30,
        n_leaders=1, n_followers=2, histogram={1: 100.0, 3: 5000.0}, groups_fallback=0,
    ).to_json()
)


# A 1 m edge beside a 1e16 m one, which rounding could absorb: the network is
# rejected, and the error names the 1 m edge's line.
ABSORBED_NETWORK = """{"nodes": [{"id": "X"}, {"id": "A"}, {"id": "B"}, {"id": "Y"}],
 "edges": [
  {"id": "in", "from": "X", "to": "A", "length_m": 10.0},
  {"id": "ab", "from": "A", "to": "B", "length_m": 1e16},
  {"id": "ba", "from": "B", "to": "A", "length_m": 1.0},
  {"id": "out", "from": "B", "to": "Y", "length_m": 10.0}
 ]}
"""


# Per test_bad_input_exits_2_with_input_error case id, the text its error must hold.
BAD_INPUT_ERRORS = {
    "network-absorbed-length": "{path}:5: edge 'ba'",
    "network-nodes-not-an-array": "{path}: 'nodes' must be an array, not 5",
    "network-edges-not-an-array": "{path}: 'edges' must be an array, not 5",
    "assignments-undecodable": "{path}:1: invalid JSON: Expecting value",
    "graph-row-lacks-a-column": "{path}:3: expected src,dst,saving_kg",
    "graph-row-extra-cell": "{path}:2: expected src,dst,saving_kg",
    "graph-repeated-pair": "{path}:3: repeated pair ('a', 'b')",
    "report-a-list": "the report must be a JSON object, not [1]",
    "report-histogram-a-list": "histogram must be a JSON object, not [1]",
    "report-histogram-size-x": "histogram size 'x' is not an integer",
    # An integer beyond float range is an input error, not an OverflowError.
    "network-huge-int-length": "{path}:1: edge 'ab' has invalid length_m 1000",
    "assignments-huge-int-start": "{path}: assignment entry 0: t_start_s must be a finite number",
    "config-huge-int-tol": "solver.tol must be a finite number, not 1000",
    "config-huge-int-weight": "node weight of n0_0 must be finite and >= 0, not 1000",
    "report-huge-int-fuel": "stage4_fuel_kg must be a finite number, not 1000",
}
HUGE_INT = 10**400


def _montecarlo_runs(cfg, size, seeds):
    base = load_config(cfg, scenario={"n_assignments": size})
    return [dataclasses.replace(base, seed=s, scenario=dataclasses.replace(base.scenario, seed=s))
            for s in seeds]


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


def _json_dump_bytes(doc) -> bytes:
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("ascii")


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
    assert (out / "plans.json").read_bytes() == b"[]\n" == _json_dump_bytes([])
    empty = {"leaders": [], "follower_of": {}, "objective_kg": 0.0}
    assert (out / "leaders.json").read_bytes() == _json_dump_bytes(empty)
    # Every field annotated float is a real, also for no trucks.
    reals = {k: v for k, v in report.items() if get_type_hints(RunReport)[k] is float}
    assert reals and all(type(v) is float for v in reals.values()), reals


def test_plan_with_integer_edge_ids_writes_the_json_dump_bytes(tmp_path, model):
    """A network file may name its edges by integers; plans.json writes them
    as json.dump does, beside the string truck ids."""
    net = RoadNetwork([0, 1, 2, 3], [(10, 0, 1, 10_000.0), (11, 1, 2, 10_000.0),
                                     (12, 2, 3, 10_000.0)])
    network, assignments = tmp_path / "network.json", tmp_path / "assignments.json"
    save_network(net, str(network))
    assignments.write_text(json.dumps([
        {"id": f"t{k}", "start": {"edge": 10, "offset_m": 0.0},
         "dest": {"edge": 12, "offset_m": 10_000.0},
         "t_start_s": 60.0 * k, "t_deadline_s": 60.0 * k + 30_000.0 / model.v_min}
        for k in range(3)
    ]))
    out = tmp_path / "run"
    assert main(["plan", "--network", str(network), "--assignments", str(assignments),
                 "--out-dir", str(out), "--check"]) == 0
    result = run_pipeline(cli.load_network(str(network)),
                          cli.scenario.load_assignments(str(assignments)), load_config(None))
    plans = [_plan_to_doc(n, p) for n, p in sorted(result.stage4_plans.items())]
    assert any(p["leader_id"] is not None for p in plans)
    assert (out / "plans.json").read_bytes() == _json_dump_bytes(plans)
    assert (out / "leaders.json").read_bytes() == _json_dump_bytes(_leaders_doc(result.leader_set))


def test_exact_out_is_the_json_dump_bytes(tmp_path):
    """exact --out escapes node ids as json.dump does: quotes, backslashes
    and non-ASCII letters."""
    graph_csv = tmp_path / "graph.csv"
    graph_csv.write_text(
        'src,dst,saving_kg\nZürich,"a ""b""",2.0\nx\\y,"a ""b""",3.0\n"a ""b""",Zürich,1.0\n',
        encoding="utf-8",
    )
    out = tmp_path / "leaders.json"
    assert main(["exact", "--graph-csv", str(graph_csv), "--out", str(out)]) == 0
    doc = _leaders_doc(exact(load_graph_csv(str(graph_csv))))
    assert doc["leaders"] == ['a "b"'] and len(doc["follower_of"]) == 2
    assert out.read_bytes() == _json_dump_bytes(doc)


@pytest.mark.parametrize("slack", [0.0, 1800.0])
@pytest.mark.parametrize("seed", [100, 101])
def test_shuffled_assignment_file_gives_byte_identical_outputs(tmp_path, seed, slack):
    """Every report figure is a correctly rounded sum: reordering the
    assignment file changes no byte of any output."""
    cfg, network, assignments = _generate(
        tmp_path, rows=20, cols=20, edge_len_m=10000.0, n_assignments=200, seed=seed,
        deadline_slack_s=slack,
    )
    doc = json.loads(assignments.read_text())
    random.Random(1).shuffle(doc)
    shuffled = tmp_path / "shuffled.json"
    shuffled.write_text(json.dumps(doc))
    outputs = []
    for name, path in (("given", assignments), ("shuffled", shuffled)):
        out = tmp_path / name
        rc = main(
            ["plan", "--network", str(network), "--assignments", str(path),
             "--config", cfg, "--out-dir", str(out), "--graph-csv"]
        )
        assert rc == 0
        outputs.append(
            {f: (out / f).read_bytes()
             for f in ("plans.json", "leaders.json", "report.json", "graph.csv")}
        )
    assert outputs[0] == outputs[1]


def test_malformed_network_exits_2(tmp_path):
    bad = tmp_path / "net.json"
    bad.write_text("{broken")
    assignments = tmp_path / "assignments.json"
    assignments.write_text("[]")
    rc = main(["plan", "--network", str(bad), "--assignments", str(assignments),
               "--out-dir", str(tmp_path / "x")])
    assert rc == 2


def test_missing_file_exits_2(tmp_path, capsys):
    """A path that is missing, a directory where a file is due or a file
    where a directory is due gets one input_error that names it, and no
    traceback."""
    _, network, assignments = _generate(
        tmp_path, rows=3, cols=3, edge_len_m=1000.0, n_assignments=3, seed=1
    )
    (tmp_path / "adir").mkdir()
    (tmp_path / "afile").write_text("x")
    for flag, name in [("--network", "nope.json"), ("--assignments", "nada.json"),
                       ("--network", "adir"), ("--assignments", "adir"), ("--out-dir", "afile")]:
        paths = {"--network": str(network), "--assignments": str(assignments),
                 "--out-dir": str(tmp_path / "x"), flag: str(tmp_path / name)}
        capsys.readouterr()
        assert main(["plan", *(part for item in paths.items() for part in item)]) == 2, flag
        events = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
        assert [e["event"] for e in events] == ["input_error"], (flag, name)
        assert str(tmp_path / name) in events[0]["error"], (flag, name)


@pytest.mark.parametrize(
    "edit, message",
    [
        pytest.param(lambda e: e["start"].update(edge="nowhere"), None, id="unknown-edge"),
        pytest.param(lambda e: e["dest"].update(offset_m=1500.0), None, id="offset-beyond-edge"),
        pytest.param(lambda e: e.update(dest=dict(e["start"])), None, id="dest-at-start"),
        pytest.param(lambda e: e.update(t_start_s="soon"), None, id="non-numeric-start"),
        pytest.param(
            lambda e: e.update(t_start_s=50.0, t_deadline_s=50.0), None, id="deadline-at-start"
        ),
        pytest.param(lambda e: e.update(t_deadline_s=math.inf), None, id="infinite-deadline"),
        pytest.param(lambda e: e.update(t_start_s=-math.inf), None, id="minus-infinite-start"),
        # A JSON true or a numeric string is not a number, and an id is a string or an int.
        pytest.param(
            lambda e: e.update(t_start_s=str(e["t_start_s"])), None, id="numeric-string-start"
        ),
        pytest.param(lambda e: e["start"].update(offset_m=True), None, id="bool-offset"),
        pytest.param(
            lambda e: e["start"].update(edge=[e["start"]["edge"]]), None, id="list-edge-id"
        ),
        pytest.param(lambda e: e.update(id=True), None, id="bool-id"),
        pytest.param(lambda e: e.update(id=[e["id"]]), None, id="list-id"),
        # An edit that returns an entry replaces the first one.
        pytest.param(
            lambda e: [1],
            "assignment entry 0: the entry must be a JSON object, not [1]",
            id="entry-not-an-object",
        ),
        pytest.param(
            lambda e: {k: v for k, v in e.items() if k != "dest"},
            "assignment entry 0: missing field dest",
            id="missing-dest",
        ),
        pytest.param(
            lambda e: {**e, "dest": {"edge": e["dest"]["edge"]}},
            "assignment entry 0: missing field dest.offset_m",
            id="missing-offset",
        ),
        pytest.param(
            lambda e: {**e, "start": "x"},
            "assignment entry 0: start must be a JSON object, not 'x'",
            id="start-not-an-object",
        ),
    ],
)
def test_bad_assignment_exits_2(tmp_path, capsys, edit, message):
    cfg, network, assignments = _generate(
        tmp_path, rows=3, cols=3, edge_len_m=1000.0, n_assignments=3, seed=1
    )
    doc = json.loads(assignments.read_text())
    doc[0] = edit(doc[0]) or doc[0]
    assignments.write_text(json.dumps(doc))
    capsys.readouterr()
    rc = main(["plan", "--network", str(network), "--assignments", str(assignments),
               "--config", cfg, "--out-dir", str(tmp_path / "x")])
    assert rc == 2
    events = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    assert [e["event"] for e in events] == ["input_error"]
    if message is not None:
        assert events[0]["error"] == f"{assignments}: {message}"


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
        pytest.param("config", {"solver": {"tol": HUGE_INT}}, id="config-huge-int-tol"),
        pytest.param(
            "config", {"scenario": {"node_weights": {"n0_0": HUGE_INT}}}, id="config-huge-int-weight"
        ),
        # JSON true is a Python int and "0.5" parses as a float: neither is a number here.
        pytest.param("config", {"solver": {"tol": True}}, id="config-bool-tol"),
        pytest.param("config", {"solver": {"tol": "0.5"}}, id="config-numeric-string-tol"),
        pytest.param("config", {"scenario": {"edge_len_m": True}}, id="config-bool-edge-length"),
        # FuelModel.from_config takes only JSON numbers: true and "95" are not.
        pytest.param("config", {"fuel": {"a0": True}}, id="config-bool-a0"),
        pytest.param("config", {"fuel": {"v_max_kmh": "95"}}, id="config-numeric-string-v-max"),
        pytest.param("config", {"fuel": {"a_0": 1e-5}}, id="config-unknown-fuel-key"),
        pytest.param("config", {"solver": {"max_iters": 5}}, id="config-unknown-solver-key"),
        pytest.param("montecarlo", {"solver": {"tol": "x"}}, id="montecarlo-config"),
        pytest.param("graph", "src,dst,saving_kg\n1,2,x\n", id="graph-saving-not-a-number"),
        pytest.param("graph", "src,dst,saving_kg\n1,1,2.0\n", id="graph-self-loop"),
        pytest.param("graph", "src,dst,saving_kg\n1,2,inf\n", id="graph-infinite-saving"),
        pytest.param("graph", "src,dst,saving_kg\n1,2,3.0\na,b\n", id="graph-row-lacks-a-column"),
        pytest.param("graph", "src,dst,saving_kg\na,b,1.0,extra\n", id="graph-row-extra-cell"),
        pytest.param("graph", "src,dst,saving_kg\na,b,1.0\na,b,2.0\n", id="graph-repeated-pair"),
        pytest.param("report", [1], id="report-a-list"),
        pytest.param("report", {**REPORT, "histogram": [1]}, id="report-histogram-a-list"),
        pytest.param("report", {**REPORT, "histogram": {"x": 5.0}}, id="report-histogram-size-x"),
        pytest.param("report", {"n_assignments": 3}, id="report-missing-fields"),
        pytest.param("report", {**REPORT, "saving_stage3": "x"}, id="report-text-saving"),
        pytest.param("report", {**REPORT, "n_leaders": True}, id="report-bool-count"),
        pytest.param("report", {**REPORT, "n_followers": 2.5}, id="report-fractional-count"),
        pytest.param("report", {**REPORT, "histogram": {"2": True}}, id="report-bool-histogram"),
        pytest.param("report", {**REPORT, "n_leaders": -4}, id="report-negative-count"),
        pytest.param("report", {**REPORT, "stage4_fuel_kg": -1.0}, id="report-negative-fuel"),
        pytest.param("report", {**REPORT, "stage4_fuel_kg": HUGE_INT}, id="report-huge-int-fuel"),
        pytest.param("report", {**REPORT, "saving_stage3": 7.5}, id="report-saving-above-one"),
        pytest.param(
            "report", {**REPORT, "upper_bound_rel": 1.5}, id="report-upper-bound-rel-above-one"
        ),
        pytest.param("report", {**REPORT, "histogram": {"0": 5.0}}, id="report-histogram-size-0"),
        pytest.param(
            "report", {**REPORT, "histogram": {"1": -5.0}}, id="report-negative-histogram-meters"
        ),
        pytest.param("network", {"nodes": [{"id": [1]}], "edges": []}, id="network-list-node-id"),
        pytest.param("network", {"nodes": 5, "edges": []}, id="network-nodes-not-an-array"),
        pytest.param("network", {"nodes": [], "edges": 5}, id="network-edges-not-an-array"),
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
        pytest.param(
            "network",
            {
                "nodes": [{"id": n} for n in ("X", "A", "B", "Y")],
                "edges": [
                    {"id": eid, "from": u, "to": v, "length_m": length}
                    for eid, u, v, length in (("in", "X", "A", 10.0), ("ab", "A", "B", HUGE_INT),
                                              ("out", "B", "Y", 10.0))
                ],
            },
            id="network-huge-int-length",
        ),
        pytest.param("network", ABSORBED_NETWORK, id="network-absorbed-length"),
        # The assignment's start and destination edges lie in two components.
        pytest.param(
            "network",
            {
                "nodes": [{"id": n} for n in ("X", "A", "B", "Y")],
                "edges": [
                    {"id": eid, "from": u, "to": v, "length_m": 10.0}
                    for eid, u, v in (("in", "X", "A"), ("out", "B", "Y"))
                ],
            },
            id="network-no-route",
        ),
        pytest.param("assignments", "[", id="assignments-undecodable"),
        pytest.param(
            "assignments",
            [{"id": "a0", "start": {"edge": "n0_0>n0_1", "offset_m": 0.0},
              "dest": {"edge": "n0_1>n0_2", "offset_m": 1000.0},
              "t_start_s": HUGE_INT, "t_deadline_s": 100.0}],
            id="assignments-huge-int-start",
        ),
    ],
)
def test_bad_input_exits_2_with_input_error(tmp_path, capsys, request, kind, content):
    """Where BAD_INPUT_ERRORS holds the case's id, the error says that text,
    with {path} the bad file."""
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
    elif kind == "assignments":
        _, network, _ = _generate(
            tmp_path, rows=3, cols=3, edge_len_m=1000.0, n_assignments=3, seed=1
        )
        argv = ["plan", "--network", str(network), "--assignments", str(bad),
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
    events = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    assert [e["event"] for e in events] == ["input_error"]
    message = BAD_INPUT_ERRORS.get(request.node.callspec.id)
    if message is not None:
        assert message.format(path=bad) in events[0]["error"]


# (test id, config file text that is JSON but not an object where one is
# due, the block that the error must name)
NOT_AN_OBJECT = [
    ("config-is-a-list", '[1, "a"]', "the config"),
    ("config-is-null", "null", "the config"),
    ("fuel-block-is-a-list", '{"fuel": [1]}', "fuel"),
    ("solver-block-is-a-string", '{"solver": "x"}', "solver"),
    ("scenario-block-is-a-list", '{"scenario": [1]}', "scenario"),
]

# (test id, config file text with a bad scenario value, the error it must
# give). Each node weight below is finite, but random.choices would refuse
# their total.
BAD_SCENARIO_KEYS = [
    ("network-file-not-a-string", '{"scenario": {"network_file": 5}}',
     "network_file must be a string or null, not 5"),
    ("node-weights-a-list", '{"scenario": {"node_weights": [1, 2]}}',
     "node_weights must be a JSON object, not [1, 2]"),
    ("node-weights-total-overflows",
     '{"scenario": {"rows": 3, "cols": 3, "node_weights": {"n0_0": 1e308, "n0_1": 1e308}}}',
     "node_weights must sum to a finite total > 0, not inf"),
]


@pytest.mark.parametrize(
    "config, argv",
    [
        pytest.param(None, ["generate", "--size", "-5"], id="generate-negative-size"),
        pytest.param(None, ["montecarlo", "--sizes", "-5"], id="montecarlo-negative-size"),
        pytest.param(None, ["montecarlo", "--sizes", "a"], id="montecarlo-size-not-an-int"),
        pytest.param(None, ["montecarlo", "--sizes", "2,2.5"], id="montecarlo-fractional-size"),
        # Every size is checked before the first run.
        pytest.param(None, ["montecarlo", "--sizes", "2,-5"], id="montecarlo-second-size-negative"),
        pytest.param(None, ["montecarlo", "--sizes", "2,3,2"], id="montecarlo-repeated-size"),
        pytest.param(None, ["montecarlo", "--sizes", ""], id="montecarlo-empty-sizes"),
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
        # Top-level keys are checked as the fuel, solver and scenario blocks' keys are.
        pytest.param(
            {"sede": 3, "selction": "random", "scenario": {"rows": 3, "cols": 3}},
            ["generate", "--size", "3"],
            id="generate-unknown-top-level-keys",
        ),
        pytest.param({"exact-limit": 5}, ["plan"], id="plan-unknown-top-level-key"),
        *(pytest.param(text, ["generate"], id=case) for case, text, _ in NOT_AN_OBJECT),
        *(pytest.param(text, ["generate"], id=case) for case, text, _ in BAD_SCENARIO_KEYS),
    ],
)
def test_bad_flag_or_config_value_exits_2_with_input_error(tmp_path, capsys, config, argv):
    """Flags and PLATOON_* values get the checks of the config file, before any run.

    A config given as a string is the file's text, and the error names the
    block that is not a JSON object or the bad scenario value.
    """
    argv = argv + ["--out-dir", str(tmp_path / "x")]
    if argv[0] == "montecarlo" and "--runs" not in argv:
        argv += ["--runs", "1"]
    if argv[0] == "plan":
        _, network, assignments = _generate(
            tmp_path, rows=3, cols=3, edge_len_m=1000.0, n_assignments=3, seed=1
        )
        argv += ["--network", str(network), "--assignments", str(assignments)]
    if isinstance(config, str):
        (tmp_path / "bad.json").write_text(config)
        argv += ["--config", str(tmp_path / "bad.json")]
    elif config is not None:
        argv += ["--config", _write_config(tmp_path / "bad.json", config)]
    capsys.readouterr()
    assert main(argv) == 2
    events = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    assert [e["event"] for e in events] == ["input_error"]
    if isinstance(config, str):
        expected = {text: f"{block} must be a JSON object" for _, text, block in NOT_AN_OBJECT}
        expected.update((text, message) for _, text, message in BAD_SCENARIO_KEYS)
        assert expected[config] in events[0]["error"]
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


def test_a_nan_solve_time_makes_its_group_fall_back(tmp_path, capsys, monkeypatch):
    """A solve that returns a NaN time gives a NaN speed and breakpoint,
    which validate reports: the group keeps its stage-3 plans and plans.json
    stays JSON."""
    from platoonplan.joint_optimization import solve

    failed = []

    def nan_solve(group, model, settings=None, start=None):
        sol = solve(group, model, settings, start=start)
        if not failed:  # the first group solved gets a NaN, in every run
            failed.append(group.leader_id)
        if group.leader_id != failed[0]:
            return sol
        times = {m: (math.nan, *t[1:]) for m, t in sol.times.items()}
        return dataclasses.replace(sol, times=times)

    monkeypatch.setattr(cli, "solve", nan_solve)
    cfg, network, assignments = _generate(tmp_path, n_assignments=50, seed=7)
    capsys.readouterr()
    out = tmp_path / "run"
    assert main(["plan", "--network", str(network), "--assignments", str(assignments),
                 "--config", cfg, "--out-dir", str(out)]) == 0
    events = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    fallback = [e for e in events if e["event"] == "group_fallback"]
    assert [e["leader"] for e in fallback] == failed
    assert "nan" in fallback[0]["error"]

    def no_constant(token):
        raise ValueError(f"{token} is not JSON")

    with open(out / "plans.json", encoding="utf-8") as fh:
        plans = json.load(fh, parse_constant=no_constant)
    assert all(isinstance(v, float) for p in plans for v in p["speeds_ms"])
    assert json.loads((out / "report.json").read_text())["groups_fallback"] == 1


def test_a_group_that_fails_to_build_keeps_its_stage3_plans(tmp_path, capsys, monkeypatch):
    """A group whose build_group raises falls back to its stage-3 plans; every
    other group is still built and solved, the group events stay in leader
    order, and the run exits 0."""
    from platoonplan import cli, scenario
    from platoonplan.fuel_model import plan_fuel
    from platoonplan.joint_optimization import InconsistentGroupError, build_group

    built, failed = [], []

    def failing_build_group(leader, leader_plan, followers):
        built.append(leader.id)
        if len(built) == 3:  # the third group built fails, in every run
            failed.append(leader.id)
        if leader.id in failed[:1]:
            raise InconsistentGroupError("injected failure")
        return build_group(leader, leader_plan, followers)

    monkeypatch.setattr(cli, "build_group", failing_build_group)
    cfg, network, assignments = _generate(tmp_path, n_assignments=50, seed=7)
    capsys.readouterr()
    rc = main(["plan", "--network", str(network), "--assignments", str(assignments),
               "--config", cfg, "--out-dir", str(tmp_path / "run")])
    assert rc == 0
    events = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    groups = [e for e in events if e["event"] in ("group_fallback", "group_solved")]
    fallback = [e for e in groups if e["event"] == "group_fallback"]
    assert [e["leader"] for e in fallback] == failed[:1]
    assert {"leader", "followers", "objective_before_kg", "error"} <= set(fallback[0])
    assert fallback[0]["fallback"] is True
    assert fallback[0]["error"] == "InconsistentGroupError: injected failure"
    assert len(groups) == len(set(built)) > 3
    assert [e["leader"] for e in groups] == sorted(set(built))
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    assert report["groups_fallback"] == 1

    result = cli.run_pipeline(
        cli.load_network(str(network)),
        scenario.load_assignments(str(assignments)),
        cli.load_config(cfg),
    )
    # The leader, then its followers in id order, as the group sums its fuel.
    members = [failed[0], *sorted(f for f, lead in result.leader_set.follower_of.items()
                                  if lead == failed[0])]
    assert len(members) > 1
    for m in members:
        assert result.stage4_plans[m] == result.stage3_plans[m]
    (entry,) = [e for e in result.group_logs if e["fallback"]]
    assert entry["leader"] == failed[0] and entry["followers"] == len(members) - 1
    assert entry["objective_before_kg"] == sum(
        plan_fuel(FuelModel(), result.stage3_plans[m]) for m in members
    )
    assert result.report.groups_fallback == 1


def test_each_chosen_plan_is_derived_once(monkeypatch):
    """Stage 3 derives the adapted plan of each chosen (follower, leader) pair
    exactly once, and stage 4 builds its groups from those plans."""
    from platoonplan import coordination_graph
    from platoonplan.planning import adapted_plan

    calls = []

    def counting_adapted_plan(follower, follower_route, leader_id, *args, **kwargs):
        calls.append((follower.id, leader_id))
        return adapted_plan(follower, follower_route, leader_id, *args, **kwargs)

    monkeypatch.setattr(coordination_graph, "adapted_plan", counting_adapted_plan)
    run = RunConfig(model=FuelModel(), scenario=ScenarioConfig(n_assignments=50, seed=7))
    net, assignments = generate(run.scenario, run.model)
    result = run_pipeline(net, assignments, run)
    assert len(calls) == len(result.leader_set.follower_of) > 0
    assert sorted(calls) == sorted(result.leader_set.follower_of.items())


def test_each_plan_is_validated_once(monkeypatch):
    """run_pipeline validates the plans of each solved group and validate_all
    the stage-3 plans, so a stage-4 plan is never validated twice."""
    from platoonplan import cli

    calls = []

    def counting_validate(plan, assignment, model):
        calls.append(assignment.id)
        return validate(plan, assignment, model)

    monkeypatch.setattr(cli, "validate", counting_validate)
    run = RunConfig(model=FuelModel(), scenario=ScenarioConfig(n_assignments=50, seed=7))
    net, assignments = generate(run.scenario, run.model)
    result = run_pipeline(net, assignments, run)
    assert cli.validate_all(result, run.model) == []
    assert result.report.groups_fallback == 0
    follower_of = result.leader_set.follower_of
    members = [*follower_of, *set(follower_of.values())]
    assert len(members) == sum(1 + entry["followers"] for entry in result.group_logs) > 0
    assert len(calls) == len(result.stage3_plans) + len(members)
    assert sorted(calls) == sorted([*result.stage3_plans, *members])


def test_montecarlo_rows_count_fallback_groups(tmp_path, monkeypatch):
    """A run whose every solve raises keeps its stage-3 plans; its montecarlo
    row counts the fallback groups in a CSV column of its own."""
    from platoonplan import cli
    from platoonplan.joint_optimization import InfeasibleGroupError

    def failing_solve(group, model, settings=None, start=None):
        raise InfeasibleGroupError("injected failure")

    monkeypatch.setattr(cli, "solve", failing_solve)
    cfg = _write_scenario_config(tmp_path / "config.json")
    rows = run_montecarlo(_montecarlo_runs(cfg, 50, [7]), jobs=1)
    assert len(rows) == 1 and rows[0]["groups_fallback"] > 0
    assert (rows[0]["size"], rows[0]["seed"]) == (50, 7)
    assert rows[0]["saving_stage4"] == pytest.approx(rows[0]["saving_stage3"], abs=1e-12)
    out = tmp_path / "mc.csv"
    write_montecarlo_csv(rows, [50], str(out))
    with open(out, newline="") as fh:
        parsed = list(csv.DictReader(fh))
    assert [int(r["groups_fallback"]) for r in parsed[:-1]] == [r["groups_fallback"] for r in rows]


def test_montecarlo_fails_a_run_whose_plans_plan_refuses(tmp_path, capsys, monkeypatch):
    """A run with a plan that fails validate is logged as montecarlo_failed
    and gives no row, as the same fleet makes `plan` exit 1 with plan_invalid."""
    def flag_one(plan, assignment, model):
        problems = validate(plan, assignment, model)
        return [*problems, "injected problem"] if assignment.id == "a0000" else problems

    monkeypatch.setattr(cli, "validate", flag_one)
    cfg, network, assignments = _generate(tmp_path, n_assignments=50, seed=7)
    capsys.readouterr()
    assert run_montecarlo(_montecarlo_runs(cfg, 50, [7]), jobs=1) == []
    events = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    assert [e["event"] for e in events] == ["montecarlo_failed"]
    assert "plan_invalid: stage3/a0000: injected problem" in events[0]["error"]
    assert main(["plan", "--network", str(network), "--assignments", str(assignments),
                 "--config", cfg, "--out-dir", str(tmp_path / "run")]) == 1
    events = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    assert {"event": "plan_invalid", "detail": "stage3/a0000: injected problem"} in events


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


def test_an_invalid_stage3_plan_exits_1_without_outputs(tmp_path, capsys, monkeypatch):
    """A stage-3 plan that fails validate is logged as plan_invalid, and no plans are written."""
    from platoonplan import cli

    cfg, network, assignments = _generate(
        tmp_path, rows=3, cols=3, edge_len_m=1000.0, n_assignments=3, seed=1
    )
    target = json.loads(assignments.read_text())[0]["id"]

    def failing_validate(plan, assignment, model):
        return ["injected"] if assignment.id == target else validate(plan, assignment, model)

    monkeypatch.setattr(cli, "validate", failing_validate)
    out = tmp_path / "run"
    capsys.readouterr()
    assert main(["plan", "--network", str(network), "--assignments", str(assignments),
                 "--config", cfg, "--out-dir", str(out)]) == 1
    events = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    assert events == [{"event": "plan_invalid", "detail": f"stage3/{target}: injected"}]
    assert not (out / "plans.json").exists()


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


@pytest.mark.parametrize(
    "start, dest, message",
    [
        pytest.param(Position("nope", 0.0), None, "unknown edge 'nope'", id="unknown-start-edge"),
        pytest.param(None, Position("n0_0>n0_1", 1500.0), "offset 1500.0 outside",
                     id="offset-beyond-edge"),
        pytest.param(None, Position("n0_0>n0_1", 100.0), "start and destination coincide",
                     id="dest-at-start"),
    ],
)
def test_run_pipeline_names_an_assignment_off_the_network(start, dest, message):
    """A library caller gets the ScenarioError that plan reports as an input error."""
    net = grid_network(3, 3, 1000.0)
    here = Position("n0_0>n0_1", 100.0)
    assignments = [
        Assignment("ok", here, Position("n0_1>n0_2", 500.0), 0.0, 1e4),
        Assignment("bad", start or here, dest or Position("n0_1>n1_1", 500.0), 0.0, 1e4),
    ]
    run = RunConfig(model=FuelModel(), scenario=ScenarioConfig())
    with pytest.raises(ScenarioError, match=f"^assignment bad: .*{message}"):
        run_pipeline(net, assignments, run)


def _routing_fleet():
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
    return net, assignments


def test_grouped_routing_matches_per_assignment_routes():
    net, assignments = _routing_fleet()
    routes = route_assignments(net, assignments)
    assert list(routes) == [a.id for a in assignments]
    assert routes["same"].edges == (sorted(net.edges)[0],)
    for a in assignments:
        # A lone call computes its own distance row.
        assert routes[a.id] == shortest_route(net, a.start, a.dest)
        assert routes[a.id] == reference_route(net, a.start, a.dest)


def test_routing_one_source_per_csgraph_call_matches_the_reference(monkeypatch):
    """With the block bound below one distance row, every exit node gets its
    own call, and the routes are still the heap Dijkstra's."""
    net, assignments = _routing_fleet()
    monkeypatch.setattr(cli, "TREE_BLOCK_BYTES", 1)
    calls, distance_rows = [], cli.road_network.distance_rows

    def counting_rows(net, sources):
        calls.append(len(sources))
        return distance_rows(net, sources)

    monkeypatch.setattr(cli.road_network, "distance_rows", counting_rows)
    routes = route_assignments(net, assignments)
    exits = {net.edge_head(a.start.edge) for a in assignments}
    assert calls == [1] * len(exits)
    for a in assignments:
        assert routes[a.id] == reference_route(net, a.start, a.dest)


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
    net, assignments = generate(cfg, model)
    result = run_pipeline(net, assignments, RunConfig(model=model, scenario=cfg))
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
    rows = run_montecarlo(_montecarlo_runs(cfg, 10, [123, 124, 125]), jobs=1)
    assert [(r["size"], r["seed"]) for r in rows] == [(10, 123), (10, 124), (10, 125)]
    rows_again = run_montecarlo(_montecarlo_runs(cfg, 10, [123, 124, 125]), jobs=1)
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


def test_montecarlo_mean_cells_are_correctly_rounded(tmp_path):
    """A mean cell is the fsum mean of its batch, so it does not depend on the
    Python version: ten runs of 0.1 average to 0.1 (the builtin sum gives
    0.09999999999999999 on 3.10 and 3.11, 0.1 on 3.12)."""
    rows = [{**dict.fromkeys(MONTECARLO_COLUMNS, 0), "size": 10, "seed": seed,
             "saving_stage3": 0.1} for seed in range(10)]
    out = tmp_path / "mc.csv"
    write_montecarlo_csv(rows, [10], str(out))
    with open(out, newline="") as fh:
        mean = list(csv.DictReader(fh))[-1]
    assert mean["seed"] == "mean" and mean["saving_stage3"] == "0.1"


def test_montecarlo_rows_equal_generate_then_plan_on_decimal_lengths(tmp_path):
    """montecarlo routes each generated fleet by position, as plan does.

    The generator's node-to-node route for one of these 20 trucks differs from
    the route plan finds for its positions, since summed decimal lengths round;
    the rows still equal the reports bit for bit.
    """
    rng = random.Random(5)
    roads = [(eid, u, v) for eid, (u, v, _) in grid_network(8, 8, 1.0).edges.items()]
    # grid_network lists each road's two directions one after the other.
    lengths = [rng.choice([9999.9, 10000.1, 10000.0, 9999.7, 10000.3]) for _ in roads[::2]]
    net = RoadNetwork({u for _, u, _ in roads}, [(*road, lengths[k // 2])
                                                  for k, road in enumerate(roads)])
    save_network(net, str(tmp_path / "network.json"))
    cfg, network, assignments = _generate(
        tmp_path, network_file=str(tmp_path / "network.json"), n_assignments=20, seed=0
    )
    _, fleet = generate(load_config(cfg).scenario, FuelModel())
    routes = route_assignments(net, fleet)
    node_routes = {
        a.id: shortest_node_route(net, net.edge_tail(a.start.edge), net.edge_head(a.dest.edge))
        for a in fleet
    }
    assert sum(routes[a.id] != node_routes[a.id] for a in fleet) == 1
    assert main(["montecarlo", "--config", cfg, "--runs", "1", "--sizes", "20", "--seed", "0",
                 "--out-dir", str(tmp_path / "mc")]) == 0
    with open(tmp_path / "mc" / "montecarlo.csv", newline="") as fh:
        row = next(csv.DictReader(fh))
    assert main(["plan", "--network", str(network), "--assignments", str(assignments),
                 "--seed", "0", "--out-dir", str(tmp_path / "plan")]) == 0
    report = json.loads((tmp_path / "plan" / "report.json").read_text())
    for key in ("saving_stage3", "saving_stage4", "saving_spontaneous"):
        assert float(row[key]) == report[key], key


def test_montecarlo_reads_the_config_once_per_size(tmp_path, monkeypatch, capsys):
    """Each size's checked RunConfig is reused by its runs, seeded as seed + 10000 * i + k."""
    from platoonplan import cli

    calls = []

    def counting_load_config(path, **overrides):
        calls.append(overrides["scenario"]["n_assignments"])
        return load_config(path, **overrides)

    monkeypatch.setattr(cli, "load_config", counting_load_config)
    cfg = _write_scenario_config(
        tmp_path / "config.json", rows=4, cols=4, edge_len_m=5000.0, start_window_s=600.0
    )
    capsys.readouterr()
    assert main(["montecarlo", "--config", cfg, "--runs", "3", "--sizes", "6,8", "--seed", "5",
                 "--jobs", "1", "--out-dir", str(tmp_path / "mc")]) == 0
    assert calls == [6, 8]
    logged = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    runs = [(e["size"], e["seed"]) for e in logged if e["event"] == "montecarlo_run"]
    assert runs == [(6, 5), (6, 6), (6, 7), (8, 10_005), (8, 10_006), (8, 10_007)]


@pytest.mark.parametrize(
    "flags, env, expected",
    [
        pytest.param([], {}, [("random", 5), ("random", 6)], id="file"),
        pytest.param(["--selection", "greedy", "--seed", "9"], {}, [("greedy", 9), ("greedy", 10)],
                     id="flags-over-file"),
        pytest.param([], {"PLATOON_SEED": "20", "PLATOON_SELECTION": "greedy"},
                     [("greedy", 20), ("greedy", 21)], id="env-over-file"),
    ],
)
def test_montecarlo_settings_come_from_flag_env_then_file(tmp_path, monkeypatch, flags, env,
                                                          expected):
    """A flag beats PLATOON_*, which beats the config file's selection and seed."""
    from platoonplan import cli

    recorded = []
    monkeypatch.setattr(cli, "run_montecarlo", lambda runs, jobs: recorded.extend(runs) or [])
    for name in ("PLATOON_SEED", "PLATOON_SELECTION"):
        monkeypatch.delenv(name, raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    cfg = _write_config(tmp_path / "config.json", {"selection": "random", "seed": 5})
    main(["montecarlo", "--config", cfg, "--runs", "2", "--sizes", "20", *flags,
          "--out-dir", str(tmp_path / "mc")])
    assert [(r.selection, r.seed) for r in recorded] == expected
    assert [r.scenario.seed for r in recorded] == [seed for _, seed in expected]


def test_montecarlo_starts_no_more_workers_than_runs(tmp_path, monkeypatch):
    """A pool starts all its workers at once: one run is planned in this
    process, and two runs get two workers however large jobs is."""
    from platoonplan import cli

    pools = []

    class SerialPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
    cfg = _write_scenario_config(
        tmp_path / "config.json", rows=4, cols=4, edge_len_m=5000.0, start_window_s=600.0
    )
    assert [r["seed"] for r in run_montecarlo(_montecarlo_runs(cfg, 6, [1]), jobs=64)] == [1]
    assert pools == []
    assert [r["seed"] for r in run_montecarlo(_montecarlo_runs(cfg, 6, [1, 2]), jobs=64)] == [1, 2]
    assert pools == [2]


@pytest.mark.parametrize(
    "sizes, runs, failing, kept",
    [
        pytest.param("6", 3, {1}, {6: [0, 2]}, id="one-run"),
        pytest.param("6,8", 2, {10_000, 10_001}, {6: [0, 1]}, id="every-run-of-a-size"),
    ],
)
def test_failed_montecarlo_runs_leave_the_other_rows(
    tmp_path, capsys, monkeypatch, sizes, runs, failing, kept
):
    """A run that raises is logged as montecarlo_failed and left out of the CSV
    and of its size's mean; a size with no run left gets no mean row."""
    from platoonplan import cli

    def failing_pipeline(net, assignments, run):
        if run.seed in failing:
            raise RuntimeError("injected failure")
        return run_pipeline(net, assignments, run)

    monkeypatch.setattr(cli, "run_pipeline", failing_pipeline)
    cfg = _write_scenario_config(
        tmp_path / "config.json", rows=4, cols=4, edge_len_m=5000.0, start_window_s=600.0
    )
    out = tmp_path / "mc"
    capsys.readouterr()
    assert main(["montecarlo", "--config", cfg, "--runs", str(runs), "--sizes", sizes,
                 "--seed", "0", "--jobs", "1", "--out-dir", str(out)]) == 0
    events = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    failed = [e for e in events if e["event"] == "montecarlo_failed"]
    assert sorted(e["seed"] for e in failed) == sorted(failing)
    assert all(e["error"] == "RuntimeError: injected failure" for e in failed)
    with open(out / "montecarlo.csv", newline="") as fh:
        parsed = list(csv.DictReader(fh))
    rows = [r for r in parsed if r["seed"] != "mean"]
    means = [r for r in parsed if r["seed"] == "mean"]
    assert [(int(r["size"]), int(r["seed"])) for r in rows] == [
        (size, seed) for size, seeds in kept.items() for seed in seeds
    ]
    assert [int(r["size"]) for r in means] == list(kept)
    for mean in means:
        batch = [r for r in rows if r["size"] == mean["size"]]
        for column in MONTECARLO_COLUMNS[2:]:
            values = [float(r[column]) for r in batch]
            assert float(mean[column]) == sum(values) / len(values)


def test_generate_on_a_saved_grid_matches_the_grid(tmp_path):
    """scenario.network_file loads the network: a saved grid samples the grid's assignments."""
    grid = tmp_path / "network.json"
    save_network(grid_network(4, 4, 5000.0), str(grid))
    for name, network in (("grid", {"rows": 4, "cols": 4, "edge_len_m": 5000.0}),
                          ("file", {"network_file": str(grid)})):
        cfg = _write_scenario_config(tmp_path / f"{name}-config.json", n_assignments=10, seed=3,
                                     **network)
        assert main(["generate", "--config", cfg, "--out-dir", str(tmp_path / name)]) == 0
    for f in ("network.json", "assignments.json"):
        assert (tmp_path / "grid" / f).read_bytes() == (tmp_path / "file" / f).read_bytes()


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


def test_report_fields_of_the_right_types_load(tmp_path):
    """The report-* input-error cases differ from REPORT only in the value they name."""
    path = tmp_path / "report.json"
    path.write_text(json.dumps(REPORT))
    assert main(["report", "--report", str(path), "--out-dir", str(tmp_path / "rep")]) == 0
    with open(tmp_path / "rep" / "histogram.csv", newline="") as fh:
        assert [(r["size"], r["meters"]) for r in csv.DictReader(fh)] == [
            ("1", "100.0"), ("3", "5000.0")
        ]


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
