"""Default plans, pairwise adapted plans, trajectory sampling, validation.

A vehicle plan is a route plus a piecewise-constant speed schedule. The
default plan drives the whole route at the cheapest feasible constant speed.
An adapted plan reshapes a follower's schedule into (catch-up, platoon
behind a leader, finish) so that the two trajectories coincide on a shared
stretch of road. Route geometry (arcs, shareable edges) comes from
`road_network.Route`, plan geometry (distance driven at a time, time at a
distance) from `VehiclePlan`, and the speed guard from `FuelModel.clamp_speed`.
`Visits` is a fleet's routes flattened into arrays, once per run, and
`pair_savings` and the report's spontaneous baseline read it; `pair_savings`
is the array form of `adapted_plan`'s saving, for many pairs at once, and
`adapted_plan` stays its reference.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .fuel_model import FuelModel, plan_fuel
from .road_network import Position, Route, SharedSegment, common_subpaths, route_length

# Arc positions in the closed-form merge/split search are resolved to this
# many meters; speeds use FuelModel.clamp_speed, so closed-form boundary
# solutions never fail validation.
ARC_TOL = 1e-9
DIST_TOL = 1e-6  # meters: distance conservation and route end positions
# pair_savings evaluates candidate pairs this many at a time, to bound the
# memory of its rows (one per shared edge of a pair) and their float
# temporaries. On the 57,868 pairs of a 3200-truck grid fleet, tracemalloc
# puts the kernel's peak at 7.5 MiB, against 11.6 MiB with blocks of 4,096
# and 62 MiB in one pass, for about 0.03 s more of its 0.2 s.
PAIR_BLOCK = 1024


class InfeasibleDeadlineError(ValueError):
    """No admissible constant speed reaches the destination by the deadline."""


@dataclass(frozen=True)
class Assignment:
    id: str
    start: Position
    dest: Position
    t_start: float
    t_deadline: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.t_start) and math.isfinite(self.t_deadline)):
            raise ValueError(f"assignment {self.id}: start time and deadline must be finite")
        if not self.t_deadline > self.t_start:
            raise ValueError(f"assignment {self.id}: deadline must exceed start time")


@dataclass(frozen=True)
class VehiclePlan:
    route: Route
    speeds: tuple
    times: tuple
    follower_flags: tuple
    platoon_leader_id: Optional[str] = None

    @property
    def t_start(self) -> float:
        return self.times[0]

    @property
    def t_arrival(self) -> float:
        return self.times[-1]

    @functools.cached_property
    def arcs(self) -> tuple:
        """arcs[k] = distance driven by breakpoint k, summed left to right."""
        pieces = (v * (t1 - t0) for v, t0, t1 in zip(self.speeds, self.times, self.times[1:]))
        return tuple(itertools.accumulate(pieces, initial=0.0))

    def _piece(self, keys: tuple, x: float) -> int:
        """Index of the speed piece whose span of keys (times or arcs) holds x."""
        return min(max(bisect.bisect_right(keys, x) - 1, 0), len(self.speeds) - 1)

    def locate(self, t: float) -> tuple[int, float]:
        """Speed piece and distance driven at time t; the end pieces extend past the plan."""
        k = self._piece(self.times, t)
        return k, self.arcs[k] + self.speeds[k] * (t - self.times[k])

    def arc_at(self, t: float) -> float:
        """Distance driven at time t (see locate)."""
        return self.locate(t)[1]

    def time_at_arc(self, s: float) -> float:
        """Time at which distance s has been driven; inverse of arc_at."""
        k = self._piece(self.arcs, s)
        return self.times[k] + (s - self.arcs[k]) / self.speeds[k]

    def platoon_interval(self) -> Optional[tuple[float, float]]:
        """[merge, split) time window of the single platoon episode, if any."""
        for i, flag in enumerate(self.follower_flags):
            if flag:
                j = i
                while j + 1 < len(self.follower_flags) and self.follower_flags[j + 1]:
                    j += 1
                return (self.times[i], self.times[j + 1])
        return None


@dataclass(frozen=True)
class TrajectorySample:
    position: Position
    speed: float
    follower: bool


def default_speed(model: FuelModel, distance: float, window: float) -> float:
    """Cheapest admissible constant speed for a trip of given length and window.

    The solo consumption rate is affine nondecreasing in speed, so the
    minimizer over [v_cm, v_max] is the slowest admissible speed
    v_cm = max(v_min, D / window); ties also resolve to the slowest.
    """
    v_cm = max(model.v_min, distance / window)
    v = model.clamp_speed(v_cm)
    if v is None:
        raise InfeasibleDeadlineError(
            f"required speed {v_cm:.3f} m/s exceeds v_max {model.v_max:.3f} m/s"
        )
    return v


def default_plan(a: Assignment, r: Route, model: FuelModel) -> VehiclePlan:
    """Constant-speed plan at the most fuel-efficient feasible speed."""
    d = route_length(r)
    v = default_speed(model, d, a.t_deadline - a.t_start)
    return VehiclePlan(
        route=r,
        speeds=(v,),
        times=(a.t_start, a.t_start + d / v),
        follower_flags=(0,),
    )


def _segment_candidate(
    d0: float,
    d_tail: float,
    seg_len: float,
    alpha: float,
    v_leader: float,
    t_start_f: float,
    t_deadline_f: float,
    v_cd_f: float,
    model: FuelModel,
):
    """Earliest-merge / latest-split platooning window on one shared segment.

    The leader passes arc position s of the segment at the affine time
    t_L(s) = alpha + s / v_leader. Both pre-merge speed bounds reduce to
    lower bounds on the merge arc, and the post-split deadline bound to an
    upper bound on the split arc, so the extreme feasible arcs are closed
    form. Returns (s_merge, s_split, v1, v3, t_merge, t_split, t_arrival)
    or None when no positive-length platoon episode fits.
    """
    v_min, v_max = model.v_min, model.v_max
    dt0 = alpha - t_start_f  # leader's head start at the segment start

    # v1(s) = (d0 + s) / (dt0 + s/vL) <= v_max
    slope_max = v_max / v_leader - 1.0
    if slope_max > 0:
        s_merge = (d0 - v_max * dt0) / slope_max
    elif d0 <= v_max * dt0:
        s_merge = 0.0
    else:
        return None
    # v1(s) >= v_min
    slope_min = 1.0 - v_min / v_leader
    if slope_min > 0:
        s_merge = max(s_merge, (v_min * dt0 - d0) / slope_min)
    elif d0 < v_min * dt0:
        return None
    s_merge = max(s_merge, 0.0)
    if s_merge > seg_len + ARC_TOL:
        return None
    s_merge = min(s_merge, seg_len)

    # Remaining distance d1(s) = (seg_len - s) + d_tail must fit the deadline
    # at <= v_max: upper bound on the split arc.
    dt_deadline = t_deadline_f - alpha
    slack = v_max * dt_deadline - (seg_len + d_tail)
    if slope_max > 0:
        s_split = min(seg_len, slack / slope_max)
    elif slack >= 0:
        s_split = seg_len
    else:
        return None
    if s_split < s_merge + ARC_TOL:
        return None

    t_merge = alpha + s_merge / v_leader
    t_split = alpha + s_split / v_leader

    pre_dist = d0 + s_merge
    if pre_dist > ARC_TOL:
        v1 = model.clamp_speed(pre_dist / (t_merge - t_start_f))
        if v1 is None:
            return None
    else:
        # Degenerate catch-up piece: follower starts exactly where and when
        # the leader passes.
        if abs(t_merge - t_start_f) > ARC_TOL:
            return None
        v1 = None

    tail_dist = (seg_len - s_split) + d_tail
    if tail_dist > ARC_TOL:
        v3 = model.clamp_speed(max(v_cd_f, tail_dist / (t_deadline_f - t_split)))
        if v3 is None:
            return None
        t_arrival = t_split + tail_dist / v3
    else:
        v3 = None
        t_arrival = t_split
    return s_merge, s_split, v1, v3, t_merge, t_split, t_arrival


def adapted_plan(
    follower: Assignment,
    follower_route: Route,
    leader_id: str,
    leader_plan: VehiclePlan,
    model: FuelModel,
    follower_default: Optional[VehiclePlan] = None,
    segments: Optional[list[SharedSegment]] = None,
) -> Optional[tuple[VehiclePlan, float]]:
    """Best fuel-saving plan of `follower` platooning behind a constant-speed leader.

    Platooning is stretched as far as each shared segment allows: merge at
    the earliest feasible arc, split at the latest arc from which the
    deadline is still reachable, then finish at least at default speed.
    Returns (plan, saving_kg) for the best shared segment, or None when no
    segment admits a positive saving (routes disjoint, or speed bounds and
    the deadline rule platooning out).
    """
    if len(leader_plan.speeds) != 1:
        raise ValueError("leader plan must be a constant-speed default plan")
    if follower_default is None:
        follower_default = default_plan(follower, follower_route, model)
    v_cd_f = follower_default.speeds[0]
    fuel_default = plan_fuel(model, follower_default)
    if segments is None:
        segments = common_subpaths(follower_route, leader_plan.route)
    if not segments:
        return None

    v_leader = leader_plan.speeds[0]
    t_leader_start = leader_plan.times[0]
    d_follower = route_length(follower_route)

    best = None
    best_saving = 0.0
    for seg in segments:
        d0 = follower_route.arc_at_edge_start(seg.a_start)
        d_tail = d_follower - (d0 + seg.length_m)
        alpha = t_leader_start + leader_plan.route.arc_at_edge_start(seg.b_start) / v_leader
        cand = _segment_candidate(
            d0,
            d_tail,
            seg.length_m,
            alpha,
            v_leader,
            follower.t_start,
            follower.t_deadline,
            v_cd_f,
            model,
        )
        if cand is None:
            continue
        s_merge, s_split, v1, v3, t_merge, t_split, t_arrival = cand
        fuel = model.follower_rate(v_leader) * (s_split - s_merge)
        if v1 is not None:
            fuel += model.solo_rate(v1) * (d0 + s_merge)
        if v3 is not None:
            fuel += model.solo_rate(v3) * ((seg.length_m - s_split) + d_tail)
        saving = fuel_default - fuel
        if saving > best_saving:
            best_saving = saving
            best = (v1, v3, t_merge, t_split, t_arrival)

    if best is None:
        return None
    v1, v3, t_merge, t_split, t_arrival = best
    speeds, times, flags = [], [follower.t_start], []
    if v1 is not None:
        speeds.append(v1)
        flags.append(0)
        times.append(t_merge)
    speeds.append(v_leader)
    flags.append(1)
    times.append(t_split)
    if v3 is not None:
        speeds.append(v3)
        flags.append(0)
        times.append(t_arrival)
    plan = VehiclePlan(
        route=follower_route,
        speeds=tuple(speeds),
        times=tuple(times),
        follower_flags=tuple(flags),
        platoon_leader_id=leader_id,
    )
    # Report the saving as the exact fuel difference of the two plans, which
    # can drift from the ranking estimate by float dust after speed clamping.
    saving = fuel_default - plan_fuel(model, plan)
    if saving <= 0:
        return None
    return plan, saving


def _ranges(starts: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(k, starts[k] + r) for r in range(counts[k]), for each k in turn."""
    owner = np.repeat(np.arange(len(counts)), counts)
    first = np.cumsum(counts) - counts
    return owner, starts[owner] + (np.arange(owner.size) - first[owner])


class Visits:
    """A fleet's routes and default plans as arrays; truck row k is ids[k], in sorted order.

    Edge rows hold the routes back to back: edge code, length, and the arc
    at the edge's start and end as `Route.prefix` has them. Truck k owns
    rows[k] edge rows, and its shareable edges are rows lo[k]:hi[k]. Truck
    rows hold the route's start and destination offsets, the start time,
    deadline, default-plan speed and fuel, and route length. The table
    keeps the three dicts it was built from.
    """

    def __init__(self, assignments: dict, routes: dict, default_plans: dict, model: FuelModel):
        self.assignments, self.routes, self.default_plans = assignments, routes, default_plans
        self.ids = sorted(assignments)
        rs = [routes[n] for n in self.ids]
        self.rows = sizes = np.array([len(r.edges) for r in rs], dtype=np.int64)
        codes: dict = {}
        code = [codes.setdefault(e, len(codes)) for r in rs for e in r.edges]
        self.edge_code, self.n_codes = np.array(code, np.int64), len(codes)
        self.length = np.array([x for r in rs for x in r.lengths])
        self.start_offset = np.array([r.start_offset for r in rs])
        self.dest_offset = np.array([r.dest_offset for r in rs])
        starts = np.repeat(self.start_offset, sizes)
        self.arc_start = np.array([x for r in rs for x in r.prefix[:-1]]) - starts
        self.arc_end = np.array([x for r in rs for x in r.prefix[1:]]) - starts
        self.lo = np.cumsum(sizes) - sizes + np.array([r.shareable.start for r in rs], np.int64)
        self.hi = self.lo + np.array([len(r.shareable) for r in rs], np.int64)
        self.t_start = np.array([assignments[n].t_start for n in self.ids])
        self.t_deadline = np.array([assignments[n].t_deadline for n in self.ids])
        self.v_default = np.array([default_plans[n].speeds[0] for n in self.ids])
        self.fuel_default = np.array([plan_fuel(model, default_plans[n]) for n in self.ids])
        self.d_route = np.array([route_length(r) for r in rs])


def pair_savings(fleet: Visits, model: FuelModel, pairs: np.ndarray) -> np.ndarray:
    """adapted_plan(...)[1] of each (follower, leader) row of pairs, 0.0 without a plan.

    The array form of `adapted_plan` for default-plan followers, without
    building plans. Each row is one maximal shared run of a pair, found as
    `common_subpaths` finds it and kept in its (pair, follower edge, leader
    edge) order; `_segment_candidate` becomes masks over the rows. A pair
    takes its first row of largest ranking saving, and its saving is summed
    piece by piece as `plan_fuel` sums the adapted plan. Every float
    operation is the scalar one, in the same order, so the savings are
    bit-identical.
    """
    lo, hi, edge_code, n_codes = fleet.lo, fleet.hi, fleet.edge_code, fleet.n_codes
    t_start, v_default, fuel_default = fleet.t_start, fleet.v_default, fleet.fuel_default

    # Sorted (truck, edge) keys of the shareable edges; equal keys keep
    # their edge order, so a route that drives an edge twice joins twice.
    owner, at = _ranges(lo, hi - lo)
    key = owner * n_codes + edge_code[at]
    order = np.argsort(key, kind="stable")
    keys, key_at = key[order], at[order]

    v_min, v_max = model.v_min, model.v_max
    savings = np.zeros(len(pairs))
    with np.errstate(divide="ignore", invalid="ignore"):
        for b in range(0, len(pairs), PAIR_BLOCK):
            f, l = pairs[b : b + PAIR_BLOCK, 0], pairs[b : b + PAIR_BLOCK, 1]
            # Rows (pair, i, j): every follower edge i matched to every
            # position j of the same edge in the leader's shareable range.
            p, i = _ranges(lo[f], hi[f] - lo[f])
            q = l[p] * n_codes + edge_code[i]
            first = np.searchsorted(keys, q, "left")
            row, hit = _ranges(first, np.searchsorted(keys, q, "right") - first)
            p, i, j = p[row], i[row], key_at[hit]
            # A run starts at a maximal left end (common_subpaths' test); it
            # grows one edge at a time, its length summed left to right.
            inner = (i > lo[f[p]]) & (j > lo[l[p]]) & (edge_code[i - 1] == edge_code[j - 1])
            p, i, j = p[~inner], i[~inner], j[~inner]
            if not p.size:
                continue
            seg_len = fleet.length[i]
            run, step = np.arange(p.size), 1
            while run.size:
                ik, jk = i[run] + step, j[run] + step
                go = (ik < hi[f[p[run]]]) & (jk < hi[l[p[run]]])
                run, ik, jk = run[go], ik[go], jk[go]
                go = edge_code[ik] == edge_code[jk]
                run, ik = run[go], ik[go]
                seg_len[run] += fleet.length[ik]
                step += 1

            # _segment_candidate, with each early `return None` as a mask.
            fp, lp = f[p], l[p]
            v_l, t0, t1 = v_default[lp], t_start[fp], fleet.t_deadline[fp]
            d0 = fleet.arc_start[i]
            d_tail = fleet.d_route[fp] - (d0 + seg_len)
            alpha = t_start[lp] + fleet.arc_start[j] / v_l
            dt0 = alpha - t0
            slope_max = v_max / v_l - 1.0
            up = slope_max > 0
            s_merge = np.where(up, (d0 - v_max * dt0) / slope_max, 0.0)
            ok = up | (d0 <= v_max * dt0)
            slope_min = 1.0 - v_min / v_l
            down = slope_min > 0
            s_merge = np.where(down, np.maximum(s_merge, (v_min * dt0 - d0) / slope_min), s_merge)
            ok &= down | ~(d0 < v_min * dt0)
            s_merge = np.maximum(s_merge, 0.0)
            ok &= ~(s_merge > seg_len + ARC_TOL)
            s_merge = np.minimum(s_merge, seg_len)
            slack = v_max * (t1 - alpha) - (seg_len + d_tail)
            s_split = np.where(up, np.minimum(seg_len, slack / slope_max), seg_len)
            ok &= up | (slack >= 0)
            ok &= ~(s_split < s_merge + ARC_TOL)
            t_merge = alpha + s_merge / v_l
            t_split = alpha + s_split / v_l
            pre_dist = d0 + s_merge
            has_v1 = pre_dist > ARC_TOL
            v1, fits = model.clamp_speeds(pre_dist / (t_merge - t0))
            ok &= np.where(has_v1, fits, ~(np.abs(t_merge - t0) > ARC_TOL))
            tail_dist = (seg_len - s_split) + d_tail
            has_v3 = tail_dist > ARC_TOL
            v3, fits = model.clamp_speeds(np.maximum(v_default[fp], tail_dist / (t1 - t_split)))
            ok &= ~has_v3 | fits
            t_arrival = np.where(has_v3, t_split + tail_dist / v3, t_split)

            # adapted_plan's ranking fuel; the first row of largest saving wins.
            fuel = model.follower_rate(v_l) * (s_split - s_merge)
            fuel = np.where(has_v1, fuel + model.solo_rate(v1) * pre_dist, fuel)
            fuel = np.where(has_v3, fuel + model.solo_rate(v3) * tail_dist, fuel)
            rank = np.where(ok, fuel_default[fp] - fuel, -np.inf)
            order = np.lexsort((-rank, p))
            ps = p[order]
            head = order[np.r_[True, ps[1:] != ps[:-1]]]
            h = head[rank[head] > 0]

            # plan_fuel of the chosen plan: (catch-up,) platoon(, finish).
            v_l, t0, tm, ts = v_l[h], t0[h], t_merge[h], t_split[h]
            w1, w3, h1, h3 = v1[h], v3[h], has_v1[h], has_v3[h]
            fuel = np.where(h1, model.solo_rate(w1) * (w1 * (tm - t0)), 0.0)
            fuel = fuel + model.follower_rate(v_l) * (v_l * (ts - np.where(h1, tm, t0)))
            fuel = np.where(h3, fuel + model.solo_rate(w3) * (w3 * (t_arrival[h] - ts)), fuel)
            saving = fuel_default[fp[h]] - fuel
            keep = (saving > 0) & model.clamp_speeds(v_l)[1]
            savings[b + p[h][keep]] = saving[keep]
    return savings


def sample(plan: VehiclePlan, t: float) -> TrajectorySample:
    """Position, speed and follower flag at time t in [t_start, t_arrival)."""
    if not (plan.times[0] <= t < plan.times[-1]):
        raise ValueError(f"time {t} outside plan domain [{plan.times[0]}, {plan.times[-1]})")
    k, traveled = plan.locate(t)
    route = plan.route
    # Last edge whose start arc lies strictly before the traveled distance
    # (so an edge boundary reads as the end of the earlier edge); the first
    # edge at departure.
    edges = range(len(route.edges))
    edge_idx = max(bisect.bisect_left(edges, traveled, key=route.arc_at_edge_start) - 1, 0)
    offset = traveled - route.arc_at_edge_start(edge_idx)
    return TrajectorySample(
        position=Position(route.edges[edge_idx], offset),
        speed=plan.speeds[k],
        follower=bool(plan.follower_flags[k]),
    )


def validate(plan: VehiclePlan, a: Assignment, model: FuelModel) -> list[str]:
    """All invariant violations of a plan against its assignment; empty if valid."""
    problems = []
    k = len(plan.speeds)
    if len(plan.times) != k + 1:
        problems.append(f"times has {len(plan.times)} entries, expected {k + 1}")
        return problems
    if len(plan.follower_flags) != k:
        problems.append("follower_flags length mismatch")
        return problems
    for t0, t1 in zip(plan.times, plan.times[1:]):
        if not t1 > t0:
            problems.append(f"times not strictly increasing at {t0} -> {t1}")
    for i, v in enumerate(plan.speeds):
        if model.clamp_speed(v) is None:
            problems.append(f"speed {v:.9f} of piece {i} outside bounds")
    dist = plan.arcs[-1]
    d = route_length(plan.route)
    if abs(dist - d) > DIST_TOL:
        problems.append(f"distance conservation off by {dist - d:.3e} m")
    if abs(plan.times[0] - a.t_start) > 1e-9:
        problems.append(f"plan starts at {plan.times[0]}, assignment at {a.t_start}")
    r = plan.route
    if r.edges[0] != a.start.edge or abs(r.start_offset - a.start.offset) > DIST_TOL:
        problems.append(f"route starts at {r.edges[0]}+{r.start_offset}, assignment at {a.start}")
    if r.edges[-1] != a.dest.edge or abs(r.dest_offset - a.dest.offset) > DIST_TOL:
        problems.append(f"route ends at {r.edges[-1]}+{r.dest_offset}, assignment at {a.dest}")
    if plan.times[-1] > a.t_deadline + 1e-6:
        problems.append(f"arrival {plan.times[-1]} misses deadline {a.t_deadline}")
    flags = plan.follower_flags
    ones = [i for i, f in enumerate(flags) if f]
    if ones and ones != list(range(ones[0], ones[-1] + 1)):
        problems.append("platoon episode is not contiguous")
    if any(f not in (0, 1) for f in flags):
        problems.append("follower flags must be 0 or 1")
    return problems
