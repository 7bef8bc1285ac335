"""Fleet-planning benchmark for platoonplan.

    python3 perfbench/run.py --workload fleet-800 --seed 1 --seconds 25 --trace 0

Run from the repository root. Set-up imports the package from src/ and
writes each fleet's config, network and assignment files with an in-process
`platoonplan generate`. One request is an in-process `platoonplan plan` on
one fleet's files, without --check. Requests run closed loop: one client,
one request at a time, in this process, round-robin over the workload's
fleets, after one untimed warm-up request on a small fleet. Every fleet is
planned at least once; further requests start while the mean request still
fits in --seconds. Each request's outputs are checked after its timer stops
(perfbench/check.py).

--trace 0 prints the end-to-end metrics. A host-speed probe
(perfbench/calibrate.py) samples the host from set-up to the last request;
each request's time, and the set-up time, are scaled by the probes taken
while it ran, so that the host's drift does not read as a change of the
planner. --trace 1 plans the first fleet alternately traced and untraced
(at least two traced requests, whose work counts and savings must agree
exactly) and prints the per-layer metrics.
The last stdout line is the result object; the line before it holds the
provenance and per-request samples. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import calibrate
import check
import tracer as tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "work")

# Default fuel model of platoonplan, spelled out so the checks know it.
FUEL = {
    "a0": 8.4159e-6,
    "b0": 4.8021e-5,
    "ap": 5.0495e-6,
    "bp": 8.5426e-5,
    "v_min_kmh": 70.0,
    "v_max_kmh": 90.0,
    "v_default_kmh": 80.0,
}


@dataclass(frozen=True)
class Workload:
    size: int
    slack_s: float
    fleets: int  # one round of requests should take about 15-25 s


# 20x20 grid, 10 km edges, 7200 s start window; see README.md for why.
WORKLOADS = {
    "fleet-800": Workload(size=800, slack_s=0.0, fleets=8),
    "fleet-3200": Workload(size=3200, slack_s=0.0, fleets=1),
    "slack-800": Workload(size=800, slack_s=1800.0, fleets=6),
}
WARMUP_SIZE = 50

# Work counts and savings that two traced requests on one fleet must share.
DETERMINISTIC = (
    "coordination_graph.pairs_kept",
    "coordination_graph.edges",
    "planning.adapted_plan_calls",
    "road_network.common_subpaths_calls",
    "joint_optimization.groups",
    "joint_optimization.newton_steps",
    "joint_optimization.lp_calls",
    "joint_optimization.null_space_calls",
    "saving_stage3",
    "saving_stage4",
)


def _log(**fields) -> None:
    print(json.dumps(fields, sort_keys=True), file=sys.stderr, flush=True)


def _cli(cli, argv: list) -> tuple[int, str]:
    """One in-process CLI call; its JSON-lines log is captured, not printed."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, err.getvalue()


def declared_units(kind: str) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def generate_fleet(cli, wl: Workload, fleet_seed: int, fleet_dir: str, size=None) -> float:
    """Write one fleet's config, network and assignments; return seconds taken."""
    t0 = time.perf_counter()
    os.makedirs(fleet_dir, exist_ok=True)
    config = os.path.join(fleet_dir, "config.json")
    with open(config, "w", encoding="utf-8") as fh:
        json.dump({"fuel": FUEL, "scenario": {"deadline_slack_s": wl.slack_s}}, fh)
    rc, log = _cli(
        cli,
        ["generate", "--config", config, "--size", str(size or wl.size),
         "--seed", str(fleet_seed), "--out-dir", fleet_dir],
    )
    elapsed = time.perf_counter() - t0
    if rc != 0:
        raise RuntimeError(f"generate exited {rc}: {log.strip()[-500:]}")
    return elapsed


def plan_request(cli, fleet_dir: str, out_dir: str, probe=None) -> dict:
    """Time one plan request, then check its outputs outside the timer.

    With an active probe, the sample's probe_s is the median probe taken
    while the request ran.
    """
    shutil.rmtree(out_dir, ignore_errors=True)
    argv = ["plan", "--network", os.path.join(fleet_dir, "network.json"),
            "--assignments", os.path.join(fleet_dir, "assignments.json"),
            "--config", os.path.join(fleet_dir, "config.json"), "--out-dir", out_dir]
    gc.collect()  # every request starts without the garbage of the last one
    first_probe = len(probe.samples) if probe else 0
    t0 = time.perf_counter()
    try:
        rc, log = _cli(cli, argv)
        error = None
    except Exception as exc:  # a crashed request counts as failed
        rc, log, error = None, "", f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    sample = {"fleet": os.path.basename(fleet_dir), "plan_s": elapsed, "ok": False}
    if probe:
        sample["probe_s"] = probe.median(first_probe)
    if error is not None or rc != 0:
        sample["problems"] = [error or f"exit code {rc}: {log.strip()[-500:]}"]
        return sample
    problems, report = check.check_request(fleet_dir, out_dir, FUEL)
    sample.update(
        ok=not problems,
        problems=problems[:5],
        default_fuel_kg=report["default_fuel_kg"],
        stage3_fuel_kg=report["stage3_fuel_kg"],
        stage4_fuel_kg=report["stage4_fuel_kg"],
        saving_stage3=report["saving_stage3"],
        saving_stage4=report["saving_stage4"],
    )
    return sample


def provenance(seed: int) -> dict:
    commit = "unknown"
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
        if done.returncode == 0:
            commit = done.stdout.strip()
    import numpy
    import scipy
    import tomllib

    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        version = tomllib.load(fh)["project"]["version"]
    src_lines = 0
    for dirpath, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as fh:
                    src_lines += sum(1 for _ in fh)
    return {
        "commit": commit,
        "package_version": version,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "src_lines": src_lines,
    }


def _fits(done: int, started: float, seconds: float) -> bool:
    elapsed = time.perf_counter() - started
    return elapsed + elapsed / done <= seconds


def run_untraced(cli, fleet_dirs: list, out_dir: str, seconds: float, probe):
    samples = []
    started = time.perf_counter()
    while len(samples) < len(fleet_dirs) or _fits(len(samples), started, seconds):
        fleet_dir = fleet_dirs[len(samples) % len(fleet_dirs)]
        samples.append(plan_request(cli, fleet_dir, out_dir, probe))
    return samples


def run_traced(cli, tracer, fleet_dir: str, out_dir: str, seconds: float):
    """Alternate traced and untraced requests on one fleet: T, U, T, U, ..."""
    traced, untraced, layers = [], [], []
    started = time.perf_counter()
    while len(traced) < 2 or _fits(len(traced) + len(untraced), started, seconds):
        if len(traced) <= len(untraced):
            with tracer.attached("request"):
                sample = plan_request(cli, fleet_dir, out_dir)
            if sample["ok"]:
                tracer.require_calls("request")
            layers.append(layer_metrics(tracer, sample))
            traced.append(sample)
        else:
            untraced.append(plan_request(cli, fleet_dir, out_dir))
    return traced, untraced, layers


def layer_metrics(tracer, sample: dict) -> dict:
    """Per-layer values of one traced request."""
    st, c = tracer.stats, tracer.counts
    m = {
        "road_network.shortest_route_s": st["road_network.shortest_route"].seconds,
        "road_network.shortest_route_calls": st["road_network.shortest_route"].calls,
        "road_network.common_subpaths_s": st["road_network.common_subpaths"].seconds,
        "road_network.common_subpaths_calls": st["road_network.common_subpaths"].calls,
        "road_network.load_network_s": st["road_network.load_network"].seconds,
        "coordination_graph.build_s": st["coordination_graph.build"].seconds,
        "coordination_graph.prune_pairs_s": st["coordination_graph.prune_pairs"].seconds,
        "coordination_graph.pairs_kept": c["coordination_graph.pairs_kept"],
        "coordination_graph.edges": c["coordination_graph.edges"],
        "planning.default_plan_s": st["planning.default_plan"].seconds,
        "planning.adapted_plan_s": st["planning.adapted_plan"].seconds,
        "planning.adapted_plan_calls": st["planning.adapted_plan"].calls,
        "planning.validate_s": st["planning.validate"].seconds,
        "planning.validate_calls": st["planning.validate"].calls,
        "leader_selection.cluster_s": st["leader_selection.cluster"].seconds,
        "leader_selection.upper_bound_s": st["leader_selection.upper_bound"].seconds,
        "leader_selection.leaders": c["leader_selection.leaders"],
        "leader_selection.followers": c["leader_selection.followers"],
        "joint_optimization.solve_s": st["joint_optimization.solve"].seconds,
        "joint_optimization.solve_s_max": st["joint_optimization.solve"].max_s,
        "joint_optimization.build_group_s": st["joint_optimization.build_group"].seconds,
        "joint_optimization.extract_plans_s": st["joint_optimization.extract_plans"].seconds,
        "joint_optimization.groups": st["joint_optimization.solve"].calls,
        "joint_optimization.max_group_size": c["joint_optimization.max_group_size"],
        "joint_optimization.newton_steps": c["joint_optimization.newton_steps"],
        "joint_optimization.unconverged_groups": c["joint_optimization.unconverged_groups"],
        "joint_optimization.lp_calls": st["joint_optimization.lp"].calls,
        "joint_optimization.lp_s": st["joint_optimization.lp"].seconds,
        "joint_optimization.null_space_calls": st["joint_optimization.null_space"].calls,
        "joint_optimization.null_space_s": st["joint_optimization.null_space"].seconds,
        "evaluation.make_report_s": st["evaluation.make_report"].seconds,
        "evaluation.spontaneous_baseline_s": st["evaluation.spontaneous_baseline"].seconds,
        "evaluation.histogram_s": st["evaluation.histogram"].seconds,
        "fuel_model.plan_fuel_calls": st["fuel_model.plan_fuel"].calls,
        "scenario.load_assignments_s": st["scenario.load_assignments"].seconds,
        "cli.self_s": sample["plan_s"] - tracer.top_s,
    }
    m["coordination_graph.edge_yield"] = m["coordination_graph.edges"] / max(
        1, m["coordination_graph.pairs_kept"]
    )
    for key in ("saving_stage3", "saving_stage4"):
        m[key] = sample.get(key)
    return m


def _pooled_saving(samples: list, stage: str) -> float:
    """Fleet-weighted saving over the distinct fleets planned."""
    by_fleet = {s["fleet"]: s for s in samples if s["ok"]}
    if not by_fleet:
        return 0.0
    default = sum(s["default_fuel_kg"] for s in by_fleet.values())
    return 1.0 - sum(s[f"{stage}_fuel_kg"] for s in by_fleet.values()) / default


def _savings_agree(samples: list) -> bool:
    seen: dict = {}
    for s in samples:
        if s["ok"]:
            key = (s["saving_stage3"], s["saving_stage4"])
            if seen.setdefault(s["fleet"], key) != key:
                return False
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]

    if not os.path.isfile(os.path.join(SRC, "platoonplan", "cli.py")):
        print(f"no platoonplan sources under {SRC}", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    from platoonplan import cli

    import_s = time.perf_counter() - t0

    run_dir = os.path.join(WORK, f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}")
    out_dir = os.path.join(run_dir, "out")
    try:
        tracer = tracing.Tracer() if args.trace else None
        n_fleets = 1 if args.trace else wl.fleets
        probe = calibrate.Probe()
        # Untraced runs probe the host from the first set-up to the last request.
        with contextlib.nullcontext() if tracer else probe.active():
            fleet_dirs, gen_s = [], []
            for k in range(n_fleets):
                fleet_dir = os.path.join(run_dir, f"fleet{k}")
                if tracer:
                    with tracer.attached("setup"):
                        generate_fleet(cli, wl, args.seed * 100 + k, fleet_dir)
                    tracer.require_calls("setup")
                    gen_s.append(tracer.stats["scenario.generate"].seconds)
                else:
                    gen_s.append(generate_fleet(cli, wl, args.seed * 100 + k, fleet_dir))
                fleet_dirs.append(fleet_dir)
            setup_probe_s = None if tracer else probe.median(0)
            _log(event="setup_done", workload=args.workload, fleets=n_fleets, import_s=import_s,
                 generate_s=gen_s, probe_s=setup_probe_s)

            # Untimed warm-up on a small fleet, so lazy set-up is not timed.
            warm_dir = os.path.join(run_dir, "warmup")
            generate_fleet(cli, wl, args.seed * 100 + 99, warm_dir, size=WARMUP_SIZE)
            warmup = plan_request(cli, warm_dir, out_dir)

            if tracer:
                traced, untraced, layers = run_traced(
                    cli, tracer, fleet_dirs[0], out_dir, args.seconds
                )
                samples = traced + untraced
                deterministic = all(
                    layer[key] == layers[0][key] for layer in layers for key in DETERMINISTIC
                )
                metrics = {
                    key: statistics.median(layer[key] for layer in layers)
                    if key.endswith(("_s", "_s_max")) else layers[0][key]
                    for key in layers[0]
                    if not key.startswith("saving")
                }
                metrics["scenario.generate_s"] = statistics.median(gen_s)
                metrics["trace.overhead_ratio"] = statistics.median(
                    s["plan_s"] for s in traced
                ) / statistics.median(s["plan_s"] for s in untraced)
            else:
                samples = run_untraced(cli, fleet_dirs, out_dir, args.seconds, probe)
                deterministic = True
        deterministic = deterministic and _savings_agree(samples)

        # The warm-up request counts as attempted, not towards plan_s.
        attempted = len(samples) + 1
        failed = sum(1 for s in samples + [warmup] if not s["ok"])
        setup_wall_s = import_s + statistics.median(gen_s)
        if not tracer:
            metrics = {
                "plan_s": statistics.median(
                    s["plan_s"] * calibrate.NOMINAL_S / s["probe_s"] for s in samples
                ),
                "saving_stage4": _pooled_saving(samples, "stage4"),
                "saving_stage3": _pooled_saving(samples, "stage3"),
                "ok_ratio": (attempted - failed) / attempted,
                "setup_s": setup_wall_s * calibrate.NOMINAL_S / setup_probe_s,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
        units = declared_units("per_layer" if tracer else "end_to_end")
        if set(metrics) != set(units):
            raise RuntimeError(f"metrics differ from BENCHMARK.json: {set(metrics) ^ set(units)}")
        for problem in (p for s in samples + [warmup] for p in s.get("problems", [])):
            _log(event="request_failed", detail=problem)
        if not deterministic:
            _log(event="nondeterministic", detail="work counts or savings differ between requests")
        print(json.dumps({
            "provenance": provenance(args.seed),
            "workload": args.workload,
            "plan_wall_s": statistics.median(s["plan_s"] for s in samples),
            "setup_wall_s": setup_wall_s,
            "probes": len(probe.samples),
            "requests": [{k: v for k, v in s.items() if k != "problems"} for s in samples],
        }, sort_keys=True))
        print(json.dumps({
            "correct": failed == 0 and deterministic,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": value, "unit": units[name]}
                for name, value in metrics.items()
            },
        }))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
