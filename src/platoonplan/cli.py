"""Command-line orchestration of the four-stage coordination pipeline.

Stages: (1) shortest routes, (2) pairwise adapted plans collected into the
coordination graph, (3) leader selection, (4) joint speed-profile
optimization per coordination group. Subcommands:

    generate    sample a scenario, write network + assignment files
    plan        run the pipeline on a scenario, write plans and a report
    exact       optimal leader selection on a dumped coordination graph
    montecarlo  repeated runs over assignment counts, aggregate CSV
    report      expand a report JSON into metrics/histogram CSVs

Exit codes: 0 ok, 1 infeasible or diverged, 2 input error. Logs are one
JSON object per line on stderr. Selected flags fall back to PLATOON_*
environment variables before their built-in defaults.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from json.encoder import encode_basestring_ascii as _quote
from typing import Optional

from . import evaluation, road_network, scenario
from .coordination_graph import build, load_graph_csv, save_graph_csv
from .fuel_model import FuelModel, plan_fuel
from .joint_optimization import (
    GROUP_ERRORS,
    SolverSettings,
    build_group,
    extract_plans,
    solve,
    start_points,
)
from .leader_selection import EXACT_LIMIT, RULES, SizeLimitError, cluster, exact, upper_bound
from .planning import (
    Assignment,
    InfeasibleDeadlineError,
    VehiclePlan,
    Visits,
    default_plan,
    sample,
    validate,
)
from .road_network import (
    NetworkFormatError,
    RoadNetwork,
    load_network,
    positions_coincide,
    save_network,
)
from .scenario import ScenarioConfig, ScenarioError, require_int, require_object, require_real

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_INPUT = 2
# montecarlo.csv columns; all but size, seed and wallclock_s are RunReport fields.
MONTECARLO_COLUMNS = ("size", "seed", "saving_stage3", "saving_stage4", "saving_spontaneous",
                      "upper_bound_rel", "groups_fallback", "wallclock_s")
# route_assignments holds the distance rows of this many bytes of exit nodes
# at a time (8 per node and source): every exit node of a 20x20 grid in one
# csgraph call, but never a row per node of a large network. Rows become
# Python lists one at a time: on an 800-truck grid fleet tracemalloc puts
# routing's peak at 1.7 MiB so, and at 5.1 MiB with all rows converted at once.
TREE_BLOCK_BYTES = 2**21


def _log(event: str, **fields) -> None:
    print(json.dumps({"event": event, **fields}, sort_keys=True), file=sys.stderr)


def _env_int(name: str, given: Optional[int], fallback: Optional[int]) -> Optional[int]:
    """The flag's value if given, else PLATOON_<name> as an integer, else fallback.

    Read when the command runs, so a malformed value is one input error.
    """
    if given is not None:
        return given
    raw = os.environ.get(f"PLATOON_{name}")
    if raw is None:
        return fallback
    try:
        return int(raw)
    except ValueError:
        raise ScenarioError(f"PLATOON_{name} must be an integer, not {raw!r}") from None


@dataclass
class RunConfig:
    model: FuelModel
    scenario: ScenarioConfig
    selection: str = "greedy"
    seed: int = 0
    exact_selection: bool = False
    exact_limit: int = EXACT_LIMIT
    solver: SolverSettings = field(default_factory=SolverSettings)


def load_config(path: Optional[str], **overrides) -> RunConfig:
    """Parse a config file with the command line's values applied on top.

    An override of None is not given; a dict updates one config block key by
    key. The file is checked as it stands and again with the overrides, so a
    value a flag replaces is still checked. Any malformed or out-of-range
    value is a ScenarioError.
    """
    doc = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ScenarioError(f"cannot read config {path}: {exc}") from exc
    run = _run_config(doc, f"config {path}")
    given = {key: value for key, value in overrides.items() if value is not None}
    for key, value in given.items():
        if isinstance(value, dict):
            value = {**doc.get(key, {}), **{k: v for k, v in value.items() if v is not None}}
        doc[key] = value
    return _run_config(doc, f"config {path} with flag and PLATOON_* values") if given else run


def _run_config(doc: dict, source: str) -> RunConfig:
    try:
        doc = require_object("the config", doc)
        unknown = set(doc) - {"fuel", "scenario", "solver", "selection", "seed", "exact_limit"}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        solver_block = require_object("solver", doc.get("solver", {}))
        unknown = set(solver_block) - set(SolverSettings.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown solver config keys: {sorted(unknown)}")
        defaults = SolverSettings()
        run = RunConfig(
            model=FuelModel.from_config(require_object("fuel", doc.get("fuel", {}))),
            scenario=ScenarioConfig.from_json(require_object("scenario", doc.get("scenario", {}))),
            selection=doc.get("selection", "greedy"),
            seed=require_int("seed", doc.get("seed", 0)),
            exact_limit=require_int("exact_limit", doc.get("exact_limit", EXACT_LIMIT)),
            solver=SolverSettings(
                tol=float(require_real("solver.tol", solver_block.get("tol", defaults.tol))),
                max_iter=require_int("max_iter", solver_block.get("max_iter", defaults.max_iter)),
            ),
        )
    except (AttributeError, TypeError, ValueError) as exc:
        raise ScenarioError(f"invalid {source}: {exc}") from exc
    if run.selection not in RULES:
        raise ScenarioError(f"invalid {source}: unknown selection {run.selection!r}")
    return run


@dataclass
class PipelineResult:
    assignments: dict
    default_plans: dict
    stage3_plans: dict
    stage4_plans: dict
    leader_set: object
    graph: object
    report: evaluation.RunReport
    group_logs: list


def run_pipeline(net: RoadNetwork, assignments: list[Assignment], run: RunConfig) -> PipelineResult:
    """Stages 1-4 over prepared assignments; raises on infeasible inputs.

    One InfeasibleDeadlineError names every assignment whose deadline no
    admissible speed meets. A group whose build, solve or plan extraction
    fails, or whose extracted plans fail validate, keeps its stage-3 plans;
    its group_logs entry has fallback set and the error.
    """
    amap = {a.id: a for a in assignments}
    routes = route_assignments(net, assignments)

    default_plans, infeasible = {}, []
    for aid, a in amap.items():
        try:
            default_plans[aid] = default_plan(a, routes[aid], run.model)
        except InfeasibleDeadlineError as exc:
            infeasible.append(f"assignment {aid}: {exc}")
    if infeasible:
        raise InfeasibleDeadlineError("; ".join(infeasible))

    fleet = Visits(amap, routes, default_plans, run.model)
    graph, plan_of = build(fleet, run.model)

    if run.exact_selection:
        leader_set = exact(graph, limit=run.exact_limit)
    else:
        leader_set = cluster(graph, rule=run.selection, seed=run.seed)

    stage3_plans, groups_of = dict(default_plans), {}
    for follower, leader in leader_set.follower_of.items():
        stage3_plans[follower] = plan_of(follower, leader)
        groups_of.setdefault(leader, []).append(follower)

    # A group that fails to build, solve, extract or validate keeps its
    # stage-3 plans instead of sinking the fleet.
    stage4_plans, group_logs = dict(stage3_plans), []

    def log(leader, followers, **fields) -> None:
        before = sum(plan_fuel(run.model, stage3_plans[m]) for m in (leader, *followers))
        group_logs.append(
            {"leader": leader, "followers": len(followers), "objective_before_kg": before, **fields}
        )

    def groups():
        for leader, members in sorted(groups_of.items()):
            followers = sorted(members)
            try:
                group = build_group(
                    amap[leader],
                    default_plans[leader],
                    [(amap[f], stage3_plans[f]) for f in followers],
                )
            except GROUP_ERRORS as exc:
                log(leader, followers, fallback=True, error=f"{type(exc).__name__}: {exc}")
            else:
                yield group

    for group, start in start_points(groups(), run.model, run.solver):
        try:
            sol = solve(group, run.model, run.solver, start=start)
            plans = extract_plans(group, sol, run.model)
        except GROUP_ERRORS as exc:
            error = f"{type(exc).__name__}: {exc}"
        else:
            problems = (
                f"{m}: {msg}" for m, p in plans.items() for msg in validate(p, amap[m], run.model)
            )
            error = next(problems, None)
        if error is not None:
            log(group.leader_id, group.follower_ids, fallback=True, error=error)
            continue
        stage4_plans.update(plans)
        log(
            group.leader_id,
            group.follower_ids,
            fallback=False,
            newton_steps=sol.newton_steps,
            converged=sol.converged,
            objective_after_kg=sol.objective,
            kkt_residual=sol.kkt_residual,
            lp_calls=sol.lp_calls,
            degeneracy_rounds=sol.degeneracy_rounds,
            solve_s=sol.solve_s,
        )
    # start_points reads groups ahead and gives starts out of order.
    group_logs.sort(key=lambda e: e["leader"])

    report = evaluation.make_report(
        fleet,
        stage3_plans,
        stage4_plans,
        run.model,
        upper_bound_kg=upper_bound(graph),
        n_leaders=len(leader_set.leaders),
        groups_fallback=sum(entry["fallback"] for entry in group_logs),
    )
    return PipelineResult(
        assignments=amap,
        default_plans=default_plans,
        stage3_plans=stage3_plans,
        stage4_plans=stage4_plans,
        leader_set=leader_set,
        graph=graph,
        report=report,
        group_logs=group_logs,
    )


def route_assignments(net: RoadNetwork, assignments: list[Assignment]) -> dict:
    """Shortest route per assignment id, in assignment order.

    Assignments are routed grouped by the node where their start edge ends,
    so each such node's distances are computed once, in blocks of
    TREE_BLOCK_BYTES of exit nodes per csgraph call. A start or destination
    off the network, or a start at the destination, is a ScenarioError
    naming the assignment.
    """
    by_exit: dict = {}
    for a in assignments:
        try:
            net.check_position(a.start)
            net.check_position(a.dest)
        except ValueError as exc:
            raise ScenarioError(f"assignment {a.id}: {exc}") from exc
        if a.start == a.dest:
            raise ScenarioError(f"assignment {a.id}: start and destination coincide")
        by_exit.setdefault(net.edge_head(a.start.edge), []).append(a)
    exits, found = list(by_exit), {}
    per_call = max(1, TREE_BLOCK_BYTES // (8 * max(len(net.node_order), 1)))
    for b in range(0, len(exits), per_call):
        block = exits[b : b + per_call]
        for node, row in zip(block, road_network.distance_rows(net, block)):
            dist = row.tolist()
            for a in by_exit[node]:
                found[a.id] = road_network.shortest_route(net, a.start, a.dest, dist)
    for a in assignments:
        if found[a.id] is None:
            raise ScenarioError(f"assignment {a.id}: no route exists")
    return {a.id: found[a.id] for a in assignments}


def check_follower_coincidence(result: PipelineResult, net: RoadNetwork) -> list[str]:
    """Exact audit that every follower rides on its leader over its platoon window.

    The window is clipped to the leader's plan; a follower's merge or split
    and its leader's departure or arrival denote the same instant but can
    differ in the last float bit, so an overrun of up to 1 µs is allowed.
    The window is cut at both plans' breakpoints and node passages. Inside
    each piece both trucks drive one edge at one speed, so coinciding at the
    piece's start and middle is coinciding throughout.
    """
    problems = []
    for truck, plan in result.stage4_plans.items():
        if plan.platoon_leader_id is None:
            continue
        leader_plan = result.stage4_plans[plan.platoon_leader_id]
        t_m, t_sp = plan.platoon_interval()
        lo, hi = max(t_m, leader_plan.t_start), min(t_sp, leader_plan.t_arrival)
        if lo - t_m > 1e-6 or t_sp - hi > 1e-6:
            problems.append(f"{truck} at t={t_m:.1f}: leader is not on the road")
            continue
        cuts = {lo, hi}
        for p in (plan, leader_plan):
            cuts.update(p.times)
            cuts.update(
                p.time_at_arc(p.route.arc_at_edge_start(i)) for i in range(1, len(p.route.edges))
            )
        grid = sorted(t for t in cuts if lo <= t <= hi)
        probes = [
            t for t0, t1 in zip(grid, grid[1:]) if t1 - t0 > 1e-9 for t in (t0, 0.5 * (t0 + t1))
        ]
        for t in probes:
            own, lead = sample(plan, t).position, sample(leader_plan, t).position
            if not positions_coincide(net, own, lead, tol=1e-6):
                problems.append(f"{truck} at t={t:.1f}: {own} vs leader {lead}")
                break
    return problems


def validate_all(result: PipelineResult, model: FuelModel) -> list[str]:
    """Problems of the stage-3 plans; run_pipeline validated each stage-4 plan it took."""
    return [
        f"stage3/{truck}: {msg}"
        for truck, plan in result.stage3_plans.items()
        for msg in validate(plan, result.assignments[truck], model)
    ]


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _indented(tokens, pad: str) -> str:
    """Encoded items laid out at indentation pad as json.dump(indent=2) lays out a list."""
    body = f",\n{pad}  ".join(tokens)
    return f"[\n{pad}  {body}\n{pad}]" if body else "[]"


def _id_tokens(ids) -> list:
    """JSON tokens of ids: strings, or the other scalars a network file may name edges by."""
    try:
        return list(map(_quote, ids))
    except TypeError:
        return list(map(json.dumps, ids))


def _plan_json(truck: str, plan: VehiclePlan) -> str:
    route, leader = plan.route, plan.platoon_leader_id
    return (
        f'{{\n    "breakpoints_s": {_indented(map(float.__repr__, plan.times), "    ")},'
        f'\n    "follower_flags": {_indented(map(int.__repr__, plan.follower_flags), "    ")},'
        f'\n    "id": {_quote(truck)},'
        f'\n    "leader_id": {"null" if leader is None else _quote(leader)},'
        f'\n    "route": {{\n      "dest_offset_m": {float.__repr__(route.dest_offset)},'
        f'\n      "edges": {_indented(_id_tokens(route.edges), "      ")},'
        f'\n      "start_offset_m": {float.__repr__(route.start_offset)}\n    }},'
        f'\n    "speeds_ms": {_indented(map(float.__repr__, plan.speeds), "    ")}\n  }}'
    )


def _leaders_json(leader_set) -> str:
    doc = {"follower_of": leader_set.follower_of, "leaders": sorted(leader_set.leaders),
           "objective_kg": leader_set.objective}
    return json.dumps(doc, indent=2, sort_keys=True)


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        print(text, file=fh)


def _write_outputs(out_dir: str, result: PipelineResult, graph_csv: bool) -> None:
    """plans.json laid out byte for byte as json.dump(doc, fh, indent=2, sort_keys=True)
    lays out tests/conftest.py's _plan_to_doc, each plan formatted from its scalars'
    reprs: validate has passed it, so its floats are finite and its flags the ints 0
    and 1. The other files are written by json.dumps and csv."""
    os.makedirs(out_dir, exist_ok=True)
    plans = (_plan_json(truck, plan) for truck, plan in sorted(result.stage4_plans.items()))
    _write_text(os.path.join(out_dir, "plans.json"), _indented(plans, ""))
    _write_text(os.path.join(out_dir, "leaders.json"), _leaders_json(result.leader_set))
    _write_text(os.path.join(out_dir, "report.json"), result.report.to_json())
    if graph_csv:
        save_graph_csv(result.graph, os.path.join(out_dir, "graph.csv"))


def cmd_generate(args) -> int:
    seed = _env_int("SEED", args.seed, None)
    run = load_config(args.config, scenario={"seed": seed, "n_assignments": args.size})
    net, assignments = scenario.generate(run.scenario, run.model)
    os.makedirs(args.out_dir, exist_ok=True)
    save_network(net, os.path.join(args.out_dir, "network.json"))
    scenario.save_assignments(assignments, os.path.join(args.out_dir, "assignments.json"))
    _log(
        "generated",
        out_dir=args.out_dir,
        nodes=len(net.nodes),
        edges=len(net.edges),
        assignments=len(assignments),
        seed=run.scenario.seed,
    )
    return EXIT_OK


def cmd_plan(args) -> int:
    seed = _env_int("SEED", args.seed, None)
    run = load_config(
        args.config, selection=args.selection, seed=seed, exact_limit=args.exact_limit
    )
    run.exact_selection = args.exact

    net = load_network(args.network)
    assignments = scenario.load_assignments(args.assignments)
    result = run_pipeline(net, assignments, run)
    problems = validate_all(result, run.model)
    if args.check:
        problems.extend(check_follower_coincidence(result, net))
    if problems:
        for p in problems[:20]:
            _log("plan_invalid", detail=p)
        return EXIT_INFEASIBLE
    _write_outputs(args.out_dir, result, args.graph_csv)
    for entry in result.group_logs:
        _log("group_fallback" if entry["fallback"] else "group_solved", **entry)
    _log(
        "planned",
        out_dir=args.out_dir,
        assignments=len(assignments),
        leaders=len(result.leader_set.leaders),
        followers=len(result.leader_set.follower_of),
        saving_stage3=result.report.saving_stage3,
        saving_stage4=result.report.saving_stage4,
    )
    return EXIT_OK


def cmd_exact(args) -> int:
    try:
        graph = load_graph_csv(args.graph_csv)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"invalid graph CSV {args.graph_csv}: {exc}") from exc
    leader_set = exact(graph, limit=args.limit)
    _write_text(args.out, _leaders_json(leader_set))
    _log("exact_done", nodes=len(graph.nodes), objective_kg=leader_set.objective)
    return EXIT_OK


def _montecarlo_run(run: RunConfig) -> dict:
    """One seeded pipeline run; top-level so process pools can pickle it.

    Failures are reported as rows with an "error" key so a bad seed never
    aborts the whole batch.
    """
    size, seed = run.scenario.n_assignments, run.seed
    try:
        started = time.perf_counter()
        net, assignments = scenario.generate(run.scenario, run.model)
        result = run_pipeline(net, assignments, run)
        wallclock = time.perf_counter() - started
        if problems := validate_all(result, run.model):  # `plan` exits 1 on these plans
            raise ValueError(f"plan_invalid: {'; '.join(problems[:20])}")
    except Exception as exc:  # recorded, aggregation continues
        return {"size": size, "seed": seed, "error": f"{type(exc).__name__}: {exc}"}
    own = {"size": size, "seed": seed, "wallclock_s": wallclock}
    return {c: own[c] if c in own else getattr(result.report, c) for c in MONTECARLO_COLUMNS}


def run_montecarlo(runs: list[RunConfig], jobs: int) -> list[dict]:
    """Plan each run's generated fleet, in order, on up to jobs processes."""
    workers = min(jobs, len(runs))  # a pool starts all its workers at once
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_montecarlo_run, runs))
    else:
        results = [_montecarlo_run(run) for run in runs]
    for row in results:
        _log("montecarlo_failed" if "error" in row else "montecarlo_run", **row)
    return [row for row in results if "error" not in row]


def write_montecarlo_csv(rows: list[dict], sizes: list[int], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=MONTECARLO_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
        for size in sizes:
            batch = [r for r in rows if r["size"] == size]
            if not batch:
                continue
            mean_row = {"size": size, "seed": "mean"}
            for key in MONTECARLO_COLUMNS[2:]:
                mean_row[key] = math.fsum(r[key] for r in batch) / len(batch)
            writer.writerow(mean_row)


def cmd_montecarlo(args) -> int:
    try:
        sizes = [int(s) for s in args.sizes.split(",")]
    except ValueError as exc:
        raise ScenarioError(f"invalid --sizes {args.sizes!r}: {exc}") from exc
    if len(set(sizes)) < len(sizes):
        raise ScenarioError(f"invalid --sizes {args.sizes!r}: a size is repeated")
    seed, jobs = _env_int("SEED", args.seed, None), _env_int("JOBS", args.jobs, 1)
    if args.runs < 1 or jobs < 1:
        raise ScenarioError(f"--runs and --jobs must be at least 1, not {args.runs}, {jobs}")
    # A bad config, selection or size is an input error, not a failed row per run.
    runs = []
    for size_idx, size in enumerate(sizes):
        base = load_config(
            args.config, selection=args.selection, seed=seed, scenario={"n_assignments": size}
        )
        first = base.seed + 10_000 * size_idx
        for s in range(first, first + args.runs):
            runs.append(replace(base, seed=s, scenario=replace(base.scenario, seed=s)))
    rows = run_montecarlo(runs, jobs)
    os.makedirs(args.out_dir, exist_ok=True)
    out_path = os.path.join(args.out_dir, "montecarlo.csv")
    write_montecarlo_csv(rows, sizes, out_path)
    _log("montecarlo_done", rows=len(rows), csv=out_path)
    return EXIT_OK if rows else EXIT_INFEASIBLE


def cmd_report(args) -> int:
    try:
        with open(args.report, "r", encoding="utf-8") as fh:
            rep = evaluation.RunReport.from_json(json.load(fh))
    except (AttributeError, TypeError, ValueError) as exc:
        raise ScenarioError(f"invalid report {args.report}: {exc}") from exc
    os.makedirs(args.out_dir, exist_ok=True)
    evaluation.write_metrics_csv(rep, os.path.join(args.out_dir, "metrics.csv"))
    evaluation.write_histogram_csv(rep.histogram, os.path.join(args.out_dir, "histogram.csv"))
    _log("report_written", out_dir=args.out_dir)
    return EXIT_OK


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="platoonplan",
        description="Plan fuel-efficient truck platoons en route.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Flags that several subcommands take, each declared once on a parent parser.
    config, seed, selection, out_dir = (argparse.ArgumentParser(add_help=False) for _ in range(4))
    config.add_argument("--config", default=None)
    seed.add_argument("--seed", type=int, default=None)
    selection.add_argument("--selection", choices=RULES, default=os.getenv("PLATOON_SELECTION"))
    out_dir.add_argument("--out-dir", default=os.getenv("PLATOON_OUT_DIR", "out"))
    run_flags = [config, seed, selection, out_dir]

    p_gen = sub.add_parser(
        "generate", parents=[config, seed, out_dir], help="sample a scenario to files"
    )
    p_gen.add_argument("--size", type=int, default=None, help="assignment count override")
    p_gen.set_defaults(func=cmd_generate)

    p_plan = sub.add_parser("plan", parents=run_flags, help="run the four-stage pipeline")
    p_plan.add_argument("--network", required=True)
    p_plan.add_argument("--assignments", required=True)
    p_plan.add_argument("--exact", action="store_true", help="exact leader selection")
    p_plan.add_argument("--exact-limit", type=int, default=None)
    p_plan.add_argument("--graph-csv", action="store_true", help="dump graph.csv")
    p_plan.add_argument(
        "--check", action="store_true", help="exact audit that every follower rides on its leader"
    )
    p_plan.set_defaults(func=cmd_plan)

    p_exact = sub.add_parser("exact", help="exact leader selection on a graph dump")
    p_exact.add_argument("--graph-csv", required=True)
    p_exact.add_argument("--out", required=True)
    p_exact.add_argument("--limit", type=int, default=EXACT_LIMIT)
    p_exact.set_defaults(func=cmd_exact)

    p_mc = sub.add_parser("montecarlo", parents=run_flags, help="repeated seeded pipeline runs")
    p_mc.add_argument("--runs", type=int, default=10)
    p_mc.add_argument("--sizes", default="50,200,800")
    p_mc.add_argument("--jobs", type=int, default=None)
    p_mc.set_defaults(func=cmd_montecarlo)

    p_rep = sub.add_parser("report", parents=[out_dir], help="expand a report JSON into CSVs")
    p_rep.add_argument("--report", required=True)
    p_rep.set_defaults(func=cmd_report)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NetworkFormatError, ScenarioError, SizeLimitError, OSError) as exc:
        if isinstance(exc, OSError) and exc.filename is None:
            raise
        _log("input_error", error=str(exc))
        return EXIT_INPUT
    except (InfeasibleDeadlineError, ValueError) as exc:
        _log("run_error", error=str(exc))
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
