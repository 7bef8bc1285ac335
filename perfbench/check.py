"""Output checks for one `platoonplan plan` request, independent of the package.

Everything is recomputed from the files the request read and wrote
(network.json, assignments.json, plans.json, report.json) with the fuel
model the benchmark itself wrote into config.json:

- one plan per assignment, no other;
- default and stage-4 fleet fuel recomputed from the plans match the report,
  and default >= stage-3 >= stage-4 fuel;
- every follower coincides with its leader over its platoon window.

The coincidence check is exact: inside the window both trajectories are
piecewise linear in time, so they coincide everywhere when they are at the
same road point at every breakpoint of either plan and cover the same edges
between consecutive breakpoints. Positions agree to POS_TOL_M.

A follower window may open up to TIME_TOL_S before the leader's plan starts
(or close after it ends); the leader is then taken at its start (or end).
This is the float-rounding case behind the known `plan --check` defect
described in perfbench/README.md.
"""

from __future__ import annotations

import bisect
import json
import os

POS_TOL_M = 1e-6
TIME_TOL_S = 1e-6
FUEL_REL_TOL = 1e-9


class Route:
    """A plan's route as arc positions of its edge boundaries."""

    def __init__(self, doc: dict, edges: dict) -> None:
        self.edges = list(doc["edges"])
        self.lengths = [edges[e][2] for e in self.edges]
        self.starts = []
        arc = -float(doc["start_offset_m"])
        for length in self.lengths:
            self.starts.append(arc)
            arc += length
        self.length = self.starts[-1] + float(doc["dest_offset_m"])

    def point(self, arc: float, edges: dict):
        """Canonical road point at an arc: a node id or (edge, offset)."""
        i = max(0, min(bisect.bisect_right(self.starts, arc) - 1, len(self.edges) - 1))
        eid = self.edges[i]
        offset = arc - self.starts[i]
        if abs(offset) <= POS_TOL_M:
            return ("node", edges[eid][0])
        if abs(offset - self.lengths[i]) <= POS_TOL_M:
            return ("node", edges[eid][1])
        return ("edge", eid, offset)

    def edges_between(self, a0: float, a1: float) -> list:
        """Edges whose interior overlaps the arc interval (a0, a1)."""
        return [
            eid
            for eid, s, length in zip(self.edges, self.starts, self.lengths)
            if s < a1 - POS_TOL_M and s + length > a0 + POS_TOL_M
        ]


def _same_point(p, q) -> bool:
    if p[0] != q[0] or p[1] != q[1]:
        return False
    return p[0] == "node" or abs(p[2] - q[2]) <= POS_TOL_M


def _arc(plan: dict, t: float) -> float:
    """Distance driven at time t; t must lie in the plan's time domain."""
    times, speeds = plan["breakpoints_s"], plan["speeds_ms"]
    k = max(0, min(bisect.bisect_right(times, t) - 1, len(speeds) - 1))
    done = sum(speeds[i] * (times[i + 1] - times[i]) for i in range(k))
    return done + speeds[k] * (t - times[k])


def _platoon_window(plan: dict):
    flags = plan["follower_flags"]
    if 1 not in flags:
        return None
    i = flags.index(1)
    j = i
    while j + 1 < len(flags) and flags[j + 1]:
        j += 1
    return plan["breakpoints_s"][i], plan["breakpoints_s"][j + 1]


def coincidence_problems(plans: dict, routes: dict, edges: dict) -> list:
    problems = []
    for truck, plan in plans.items():
        leader_id = plan["leader_id"]
        if leader_id is None:
            continue
        window = _platoon_window(plan)
        if window is None:
            continue
        lead = plans.get(leader_id)
        if lead is None:
            problems.append(f"{truck}: leader {leader_id} has no plan")
            continue
        t_m, t_sp = window
        l_times = lead["breakpoints_s"]
        if t_m < l_times[0] - TIME_TOL_S or t_sp > l_times[-1] + TIME_TOL_S:
            problems.append(f"{truck}: platoon window {window} outside leader plan")
            continue
        grid = sorted({t_m, t_sp, *(t for t in plan["breakpoints_s"] + l_times if t_m < t < t_sp)})
        own_route, lead_route = routes[truck], routes[leader_id]
        prev = None
        for t in grid:
            own_arc = _arc(plan, t)
            lead_arc = _arc(lead, min(max(t, l_times[0]), l_times[-1]))
            if not _same_point(own_route.point(own_arc, edges), lead_route.point(lead_arc, edges)):
                problems.append(f"{truck} at t={t!r}: not at leader {leader_id}'s position")
                break
            if prev is not None and (
                own_route.edges_between(prev[0], own_arc)
                != lead_route.edges_between(prev[1], lead_arc)
            ):
                problems.append(f"{truck} before t={t!r}: off leader {leader_id}'s edges")
                break
            prev = (own_arc, lead_arc)
    return problems


def _fuel(plan: dict, fuel: dict) -> float:
    total = 0.0
    times = plan["breakpoints_s"]
    for i, v in enumerate(plan["speeds_ms"]):
        a, b = (fuel["ap"], fuel["bp"]) if plan["follower_flags"][i] else (fuel["a0"], fuel["b0"])
        total += (a * v + b) * v * (times[i + 1] - times[i])
    return total


def _close(x: float, y: float) -> bool:
    return abs(x - y) <= FUEL_REL_TOL * max(abs(x), abs(y))


def check_request(fleet_dir: str, out_dir: str, fuel: dict) -> tuple[list, dict]:
    """Problems found in one request's outputs, and its report."""
    with open(os.path.join(fleet_dir, "network.json"), encoding="utf-8") as fh:
        edges = {e["id"]: (e["from"], e["to"], float(e["length_m"])) for e in json.load(fh)["edges"]}
    with open(os.path.join(fleet_dir, "assignments.json"), encoding="utf-8") as fh:
        assignments = {a["id"]: a for a in json.load(fh)}
    with open(os.path.join(out_dir, "plans.json"), encoding="utf-8") as fh:
        plans = {p["id"]: p for p in json.load(fh)}
    with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as fh:
        report = json.load(fh)

    if set(plans) != set(assignments):
        return [f"{len(plans)} plans for {len(assignments)} assignments"], report
    routes = {truck: Route(plan["route"], edges) for truck, plan in plans.items()}

    v_min, v_max = fuel["v_min_kmh"] / 3.6, fuel["v_max_kmh"] / 3.6
    default_fuel = stage4_fuel = 0.0
    for truck, a in assignments.items():
        distance = routes[truck].length
        v = max(v_min, distance / (a["t_deadline_s"] - a["t_start_s"]))
        if v > v_max * (1 + 1e-9):
            return [f"{truck}: no default speed meets the deadline"], report
        default_fuel += (fuel["a0"] * v + fuel["b0"]) * distance
        stage4_fuel += _fuel(plans[truck], fuel)

    problems = []
    if not _close(default_fuel, report["default_fuel_kg"]):
        problems.append(f"default fuel {default_fuel!r} != report {report['default_fuel_kg']!r}")
    if not _close(stage4_fuel, report["stage4_fuel_kg"]):
        problems.append(f"stage-4 fuel {stage4_fuel!r} != report {report['stage4_fuel_kg']!r}")
    stage3_fuel = report["stage3_fuel_kg"]
    slack = FUEL_REL_TOL * default_fuel
    if not (default_fuel + slack >= stage3_fuel and stage3_fuel + slack >= stage4_fuel):
        problems.append(
            f"fuel not monotone: default {default_fuel!r}, stage 3 {stage3_fuel!r}, "
            f"stage 4 {stage4_fuel!r}"
        )
    problems.extend(coincidence_problems(plans, routes, edges))
    return problems, report
