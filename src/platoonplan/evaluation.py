"""Baselines and run metrics: spontaneous platooning, savings, platoon sizes.

The spontaneous baseline estimates how much fuel would be saved if trucks
kept their default trajectories and platooned only with others that happen
to reach an edge within a minute of each other. Run reports aggregate the
fuel totals of each pipeline stage against that baseline and the
leader-selection upper bound.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .fuel_model import FuelModel, plan_fuel
from .planning import Visits

CHAIN_GAP_S = 60.0  # consecutive arrivals within this gap platoon spontaneously


def spontaneous_baseline(fleet: Visits, model: FuelModel) -> float:
    """Fuel saved (kg) by per-edge platoons of trucks arriving within 60 s chains.

    Read from the fleet table's edge rows. A constant-speed default plan
    reaches an edge at its start time plus the route's arc to the edge over
    the plan speed; partially driven first/last edges count with the meters
    actually driven, and an edge with none is skipped. The visits are
    sorted by (edge, time, truck row, meters, speed); maximal chains with
    consecutive gaps of at most one minute form platoons driving at their
    default speeds. The earliest truck of each chain leads (no saving), the
    rest pay follower rates over their driven meters. The terms are summed
    with math.fsum, so the total does not depend on the assignment order.
    Trajectories are not altered.
    """
    last = np.cumsum(fleet.rows) - 1
    first = last - fleet.rows + 1
    driven = fleet.length.copy()
    driven[first] -= fleet.start_offset
    driven[last] -= fleet.length[last] - fleet.dest_offset
    truck = np.repeat(np.arange(len(fleet.ids)), fleet.rows)
    v = fleet.v_default[truck]
    t = fleet.t_start[truck] + np.maximum(fleet.arc_start, 0.0) / v
    visits = np.flatnonzero(driven > 0)
    keys = (v[visits], driven[visits], truck[visits], t[visits], fleet.edge_code[visits])
    visits = visits[np.lexsort(keys)]
    edge, t = fleet.edge_code[visits], t[visits]
    # A visit within a minute of the previous one on its edge follows in its chain.
    link = visits[1:][(edge[1:] == edge[:-1]) & (t[1:] - t[:-1] <= CHAIN_GAP_S)]
    v = v[link]
    return math.fsum(((model.solo_rate(v) - model.follower_rate(v)) * driven[link]).tolist())


def platoon_size_histogram(plans: dict) -> dict:
    """Meters traveled per platoon size, summed over every platoon member.

    Computed from the plans actually driven: follower plans mark their
    platoon window and leader. One sweep over each leader's follower windows
    counts the followers on board; a stretch with c of them adds c + 1 times
    the leader's meters to bucket c + 1, since followers ride at the leader's
    speed. Stretches of 1e-9 s or less are skipped. Bucket 1 is every meter
    driven minus the platooned meters, left out below 1e-12 of the total.
    """
    windows_of: dict = {}
    for plan in plans.values():
        if plan.platoon_leader_id is not None:
            window = plan.platoon_interval()
            if window is not None:
                windows_of.setdefault(plan.platoon_leader_id, []).append(window)

    histogram: dict = {}
    platooned = 0.0
    for leader, windows in windows_of.items():
        leader_plan = plans[leader]
        cuts = sorted({t for window in windows for t in window})
        for t0, t1 in zip(cuts, cuts[1:]):
            on_board = sum(1 for a, b in windows if a <= t0 < b)
            if t1 - t0 <= 1e-9 or not on_board:
                continue
            meters = (on_board + 1) * (leader_plan.arc_at(t1) - leader_plan.arc_at(t0))
            histogram[on_board + 1] = histogram.get(on_board + 1, 0.0) + meters
            platooned += meters
    total = sum(plan.arcs[-1] for plan in plans.values())
    solo = total - platooned
    if solo > 1e-12 * total:  # a fully platooned fleet leaves only rounding here
        histogram[1] = solo
    return histogram


@dataclass
class RunReport:
    n_assignments: int
    default_fuel_kg: float
    stage3_fuel_kg: float
    stage4_fuel_kg: float
    spontaneous_fuel_kg: float
    upper_bound_kg: float
    saving_stage3: float
    saving_stage4: float
    saving_spontaneous: float
    upper_bound_rel: float
    n_leaders: int
    n_followers: int
    histogram: dict = field(default_factory=dict)
    groups_fallback: int = 0  # groups that kept their stage-3 plans

    def to_json(self) -> str:
        doc = dict(self.__dict__)
        doc["histogram"] = {str(k): v for k, v in sorted(self.histogram.items())}
        return json.dumps(doc, indent=2, sort_keys=True)


def relative_saving(fuel: float, default_fuel: float) -> float:
    if default_fuel <= 0:
        return 0.0
    return 1.0 - fuel / default_fuel


def make_report(
    fleet: Visits,
    stage3_plans: dict,
    stage4_plans: dict,
    model: FuelModel,
    upper_bound_kg: float,
    n_leaders: int,
    groups_fallback: int = 0,
) -> RunReport:
    """Assemble the per-run metrics from the fleet table and the stage outputs.

    The spontaneous figures are the table's default fuel and baseline, both
    summed with math.fsum, so they do not depend on the assignment order.
    """
    default_fuel = sum(plan_fuel(model, p) for p in fleet.default_plans.values())
    stage3_fuel = sum(plan_fuel(model, p) for p in stage3_plans.values())
    stage4_fuel = sum(plan_fuel(model, p) for p in stage4_plans.values())
    fleet_fuel = math.fsum(fleet.fuel_default.tolist())
    spont_fuel = fleet_fuel - spontaneous_baseline(fleet, model)
    n_followers = sum(1 for p in stage4_plans.values() if p.platoon_leader_id is not None)
    return RunReport(
        n_assignments=len(fleet.ids),
        default_fuel_kg=default_fuel,
        stage3_fuel_kg=stage3_fuel,
        stage4_fuel_kg=stage4_fuel,
        spontaneous_fuel_kg=spont_fuel,
        upper_bound_kg=upper_bound_kg,
        saving_stage3=relative_saving(stage3_fuel, default_fuel),
        saving_stage4=relative_saving(stage4_fuel, default_fuel),
        saving_spontaneous=relative_saving(spont_fuel, fleet_fuel),
        upper_bound_rel=(upper_bound_kg / default_fuel) if default_fuel > 0 else 0.0,
        n_leaders=n_leaders,
        n_followers=n_followers,
        histogram=platoon_size_histogram(stage4_plans),
        groups_fallback=groups_fallback,
    )


def write_metrics_csv(report: RunReport, path: str) -> None:
    """One (metric, value) row per report field but the histogram, in field order."""
    rows = [(f.name, getattr(report, f.name)) for f in fields(RunReport) if f.name != "histogram"]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["metric", "value"])
        writer.writerows(rows)


def write_histogram_csv(histogram: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["size", "meters"])
        for size in sorted(histogram):
            writer.writerow([size, repr(histogram[size])])
