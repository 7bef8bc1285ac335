"""Joint re-timing of a coordination leader and its followers.

The pairwise plans fix who platoons with whom and where each follower merges
and splits. This module re-optimizes *when*: per-segment traversal times are
the variables of a convex program

    minimize   sum over trucks, segments of f(W_i / T_i, p_i) * W_i
    subject to W_i / v_max <= T_i <= W_i / v_min          (speed window)
               sum of T_i per truck <= deadline slack     (arrival)
               follower reaches its merge point when the leader does
               follower and leader traversal times agree while platooning

With affine consumption each objective term is c2 / T + const with c2 >= 0,
so the problem is convex with linear constraints. The synchronization
equalities are eliminated through a null-space parameterization. A primal
active-set Newton method with an empty initial working set starts from the
pairwise plans, or from a max-margin LP point when only that is strictly
interior, and keeps every iterate feasible up to rounding by a ratio test.
A flat group, whose feasible set has no interior, needs no special path:
rows tight at the pairwise plans join the working set one at a time.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import null_space
from scipy.optimize import linprog, nnls

from .fuel_model import FuelModel
from .planning import Assignment, VehiclePlan

EVENT_TOL = 1e-9  # seconds; nearly simultaneous merge/split events collapse


class InconsistentGroupError(ValueError):
    """Follower plans do not fit the leader they were supposedly adapted to."""


class InfeasibleGroupError(ValueError):
    """The group's constraint system admits no feasible point."""


@dataclass
class SolverSettings:
    tol: float = 1e-8  # KKT residual at which a solution counts as converged
    max_iter: int = 200  # active-set rounds per group


@dataclass
class CoordinationGroup:
    """One leader, its followers, and their segment partitions.

    The leader's distances partition its route; each follower's interior
    entries are copies of the leader entries between its merge and split
    segment indices (inclusive).
    """

    leader_id: str
    follower_ids: tuple
    distances: dict
    platoon_flags: dict
    initial_times: dict
    t_start: dict
    t_deadline: dict
    merge_index: dict
    split_index: dict
    routes: dict
    leader_speed: float

    def members(self) -> list:
        return [self.leader_id, *self.follower_ids]


@dataclass
class TimingSolution:
    times: dict
    objective: float
    kkt_residual: float
    newton_steps: int = 0  # active-set rounds
    converged: bool = True
    lp_calls: int = 0
    degeneracy_rounds: int = 0
    solve_s: float = 0.0


def _snap(value: float, grid: list[float]) -> float:
    for g in grid:
        if abs(value - g) <= EVENT_TOL:
            return g
    return value


def build_group(
    leader: Assignment,
    leader_plan: VehiclePlan,
    followers: list[tuple[Assignment, VehiclePlan]],
) -> CoordinationGroup:
    """Partition the leader's timeline at every merge/split event.

    Event times of all followers are merged into one sorted grid (nearly
    simultaneous events are deduplicated); the leader's constant default
    speed converts time gaps into segment distances.
    """
    if len(leader_plan.speeds) != 1:
        raise InconsistentGroupError("leader must run a constant-speed default plan")
    v_leader = leader_plan.speeds[0]
    t0, t_arr = leader_plan.times[0], leader_plan.times[-1]

    events: list[float] = [t0, t_arr]
    intervals = {}
    for a, plan in followers:
        if plan.platoon_leader_id != leader.id:
            raise InconsistentGroupError(
                f"follower {a.id} is adapted to {plan.platoon_leader_id!r}, not {leader.id!r}"
            )
        window = plan.platoon_interval()
        if window is None:
            raise InconsistentGroupError(f"follower {a.id} plan has no platoon episode")
        t_merge, t_split = (_snap(t, events) for t in window)
        if t_merge < t0 - EVENT_TOL or t_split > t_arr + EVENT_TOL:
            raise InconsistentGroupError(
                f"follower {a.id} platoons outside the leader's journey"
            )
        k = plan.follower_flags.index(1)
        if abs(plan.speeds[k] - v_leader) > 1e-6 * v_leader:
            raise InconsistentGroupError(
                f"follower {a.id} platoon speed differs from the leader's"
            )
        for t in (t_merge, t_split):
            if all(abs(t - e) > EVENT_TOL for e in events):
                events.append(t)
        intervals[a.id] = (_snap(t_merge, events), _snap(t_split, events))
    events.sort()

    leader_w = tuple((events[i + 1] - events[i]) * v_leader for i in range(len(events) - 1))
    distances = {leader.id: leader_w}
    platoon_flags = {leader.id: tuple(0 for _ in leader_w)}
    initial_times = {leader.id: tuple(events[i + 1] - events[i] for i in range(len(events) - 1))}
    t_start = {leader.id: leader.t_start}
    t_deadline = {leader.id: leader.t_deadline}
    routes = {leader.id: leader_plan.route}
    merge_index = {}
    split_index = {}

    for a, plan in followers:
        t_merge, t_split = intervals[a.id]
        i_m = events.index(t_merge)
        i_sp = events.index(t_split) - 1
        if i_sp < i_m:
            raise InconsistentGroupError(f"follower {a.id} has an empty platoon window")
        w: list[float] = []
        p: list[int] = []
        tt: list[float] = []
        if plan.follower_flags[0] == 0:
            w.append(plan.speeds[0] * (t_merge - a.t_start))
            p.append(0)
            tt.append(t_merge - a.t_start)
        w.extend(leader_w[i_m : i_sp + 1])
        p.extend(1 for _ in range(i_m, i_sp + 1))
        tt.extend(initial_times[leader.id][i_m : i_sp + 1])
        if plan.follower_flags[-1] == 0:
            dur = plan.times[-1] - t_split
            w.append(plan.speeds[-1] * dur)
            p.append(0)
            tt.append(dur)
        if any(x <= 0 for x in w):
            raise InconsistentGroupError(f"follower {a.id} produced a nonpositive segment")
        distances[a.id] = tuple(w)
        platoon_flags[a.id] = tuple(p)
        initial_times[a.id] = tuple(tt)
        t_start[a.id] = a.t_start
        t_deadline[a.id] = a.t_deadline
        routes[a.id] = plan.route
        merge_index[a.id] = i_m
        split_index[a.id] = i_sp

    return CoordinationGroup(
        leader_id=leader.id,
        follower_ids=tuple(a.id for a, _ in followers),
        distances=distances,
        platoon_flags=platoon_flags,
        initial_times=initial_times,
        t_start=t_start,
        t_deadline=t_deadline,
        merge_index=merge_index,
        split_index=split_index,
        routes=routes,
        leader_speed=v_leader,
    )


def group_objective(group: CoordinationGroup, model: FuelModel, times: dict) -> float:
    """Fuel in kg of the group under the given traversal times."""
    total = 0.0
    for member in group.members():
        for w, p, t in zip(group.distances[member], group.platoon_flags[member], times[member]):
            v = w / t
            rate = model.follower_rate(v) if p else model.solo_rate(v)
            total += rate * w
    return total


# ---------------------------------------------------------------------------
# Matrix assembly
# ---------------------------------------------------------------------------


@dataclass
class _Problem:
    x0: np.ndarray
    c2: np.ndarray  # objective terms c2_j / x_j
    c0: float  # constant fuel part
    A: np.ndarray  # equality rows
    b: np.ndarray  # equality right-hand sides
    G: np.ndarray
    h: np.ndarray
    var_slices: dict

    def objective(self, x: np.ndarray) -> float:
        return float(np.sum(self.c2 / x)) + self.c0

    def grad(self, x: np.ndarray) -> np.ndarray:
        return -self.c2 / (x * x)

    def hess_diag(self, x: np.ndarray) -> np.ndarray:
        return 2.0 * self.c2 / (x * x * x)


def _assemble(group: CoordinationGroup, model: FuelModel) -> _Problem:
    """The program over all members' segment times, concatenated in members() order.

    G rows: speed boxes as -I and I, then one deadline indicator row per member.
    A rows per follower: merge synchronization unless trivial, then platoon pairs.
    """
    members = group.members()
    sizes = [len(group.distances[member]) for member in members]
    ends = list(itertools.accumulate(sizes, initial=0))
    var_slices = {member: slice(lo, hi) for member, lo, hi in zip(members, ends, ends[1:])}
    n = ends[-1]

    def stacked(per_member: dict) -> np.ndarray:
        return np.concatenate([np.asarray(per_member[m], dtype=float) for m in members])

    w = stacked(group.distances)
    platoon = stacked(group.platoon_flags) == 1
    x0 = stacked(group.initial_times)
    c2 = np.where(platoon, model.ap, model.a0) * w * w
    constant = np.where(platoon, model.bp, model.b0) * w
    c0 = sum(float(np.sum(constant[sl])) for sl in var_slices.values())

    # Equalities as (+1 columns, -1 columns, right-hand side).
    equalities = []
    lead = var_slices[group.leader_id].start
    for fid in group.follower_ids:
        f = var_slices[fid].start
        i_m, i_sp = group.merge_index[fid], group.split_index[fid]
        head = int(group.platoon_flags[fid][0] == 0)
        # Merge synchronization: follower start + head time equals the
        # leader's arrival at the merge segment, i.e.
        # T_head - sum(leader prefix) = t_start_leader - t_start_follower.
        rhs = group.t_start[group.leader_id] - group.t_start[fid]
        if head or i_m:
            equalities.append((range(f, f + head), range(lead, lead + i_m), rhs))
        elif abs(rhs) > 1e-6:
            raise InconsistentGroupError(
                f"follower {fid} merges at the leader's start but departs elsewhere in time"
            )
        # Equal traversal times while platooning.
        equalities.extend(([f + head + j], [lead + i_m + j], 0.0) for j in range(i_sp - i_m + 1))
    A = np.zeros((len(equalities), n))
    for r, (plus, minus, _) in enumerate(equalities):
        A[r, plus] = 1.0
        A[r, minus] = -1.0
    b = np.array([rhs for _, _, rhs in equalities], dtype=float)

    deadline_rows = np.repeat(np.eye(len(members)), sizes, axis=1)
    G = np.vstack([np.diag(np.full(n, -1.0)), np.eye(n), deadline_rows])
    h = np.concatenate([
        -w / model.v_max,
        w / model.v_min,
        [group.t_deadline[m] - group.t_start[m] for m in members],
    ])
    return _Problem(x0=x0, c2=c2, c0=c0, A=A, b=b, G=G, h=h, var_slices=var_slices)


# ---------------------------------------------------------------------------
# Reduced-space machinery: x = base + Z y with G x <= h
# ---------------------------------------------------------------------------

_ZERO_ROW = 1e-12
_INTERIOR_EPS = 1e-9
_ACT_TOL = 1e-3  # relative slack at which a row counts as active


@dataclass
class _Reduced:
    base: np.ndarray
    Z: np.ndarray
    Gy: np.ndarray
    hy: np.ndarray
    rows: np.ndarray  # indices into the original G/h

    @property
    def dim(self) -> int:
        return self.Z.shape[1]

    def x(self, y: np.ndarray) -> np.ndarray:
        return self.base + self.Z @ y

    def slack(self, y: np.ndarray) -> np.ndarray:
        return self.hy - self.Gy @ y


def _reduce(prob: _Problem, base: np.ndarray, Z: np.ndarray) -> _Reduced:
    """Project the inequality system onto the affine subspace base + range(Z).

    Rows insensitive to y must hold identically (they are runs of the
    equality structure); a violated constant row means the group is broken.
    """
    Gy_full = prob.G @ Z
    hy_full = prob.h - prob.G @ base
    constant = np.linalg.norm(Gy_full, axis=1) <= _ZERO_ROW
    broken = np.flatnonzero(constant & (hy_full < -1e-6))
    if broken.size:
        k = int(broken[0])
        raise InfeasibleGroupError(
            f"constraint row {k} violated by {-hy_full[k]:.3e} with no freedom left"
        )
    rows = np.flatnonzero(~constant)
    return _Reduced(base=base, Z=Z, Gy=Gy_full[rows], hy=hy_full[rows], rows=rows)


def _interior_point(red: _Reduced):
    """(y, LPs solved): the feasible start of the active-set method.

    y = 0, the pairwise plans, when it is strictly interior. Otherwise one LP
    maximizes the minimum row-normalized slack, and its optimum is the start
    if it is strictly interior. A flat feasible set, with no interior, starts
    from y = 0 as well: the pairwise plans are exactly feasible, while the LP
    optimum holds only to the LP solver's tolerance.
    """
    m, d = red.Gy.shape
    scale = 1.0 + np.abs(red.hy)
    if m == 0 or np.min(red.slack(np.zeros(d)) / scale) > _INTERIOR_EPS:
        return np.zeros(d), 0
    norms = np.linalg.norm(red.Gy, axis=1)
    a_ub = np.hstack([red.Gy, norms[:, None]])
    c = np.zeros(d + 1)
    c[-1] = -1.0
    bounds = [(None, None)] * d + [(None, 1e6)]
    res = linprog(c, A_ub=a_ub, b_ub=red.hy, bounds=bounds, method="highs")
    if not res.success:
        raise InfeasibleGroupError(f"interior search LP failed: {res.message}")
    y_star = res.x[:d]
    if np.min(red.slack(y_star) / scale) > _INTERIOR_EPS:
        return y_star, 1
    return np.zeros(d), 1


def _independent(E: np.ndarray, row: np.ndarray) -> bool:
    """row lies outside the row space of E, which has full row rank."""
    if E.shape[0] == 0:
        return True
    coef = np.linalg.lstsq(E.T, row, rcond=None)[0]
    return float(np.linalg.norm(row - E.T @ coef)) > 1e-9 * float(np.linalg.norm(row))


def _active_set(prob, red, y, max_rounds: int = 200):
    """Primal active-set Newton method from a feasible y; returns (y, rounds).

    The working set starts empty. Every round takes a Newton step of F on the
    working face, solving [[H, E^T], [E, 0]] [d; mu] = [-grad; s_W], cut short
    by a ratio test so that no other row is crossed and backtracked until F
    decreases enough (Armijo). A blocking row joins the set if it is
    independent, else the method stops; once converged on the face, the row
    with the most negative multiplier leaves, or the method stops (Nocedal &
    Wright, Numerical Optimization, section 16.5). Rows whose step ds is
    rounding noise never block: a truck copying a leader segment duplicates
    its box rows, and a duplicate of a working row would stop the step at 0.
    The bound grows with |Gy| |d|, the rounding of ds itself: a step from a
    flat group's pairwise plans can be 7e3 s long, and the row opposite a
    working row then computes ds of about 1e-12 instead of 0. Every iterate
    is feasible up to that rounding.
    """
    noise = 1e-12 * (1.0 + np.abs(red.hy))
    abs_G = np.abs(red.Gy)
    s = red.slack(y)
    f = prob.objective(red.x(y))
    work: list = []
    rounds = 0
    while rounds < max_rounds:
        rounds += 1
        x = red.x(y)
        gF = prob.grad(x)
        g = red.Z.T @ gF
        E = red.Gy[work]
        K = np.zeros((red.dim + len(work),) * 2)
        K[: red.dim, : red.dim] = (red.Z * prob.hess_diag(x)[:, None]).T @ red.Z
        K[: red.dim, red.dim :] = E.T
        K[red.dim :, : red.dim] = E
        try:
            sol = np.linalg.solve(K, np.concatenate([-g, s[work]]))
        except np.linalg.LinAlgError:
            break
        d, mu = sol[: red.dim], sol[red.dim :]
        # Longest step up to 1 that keeps every row outside the set satisfied.
        ds = red.Gy @ d
        ds[work] = 0.0
        pos = ds > noise + 1e-14 * (abs_G @ np.abs(d))
        ratio = np.full(ds.shape, np.inf)
        ratio[pos] = np.maximum(s[pos], 0.0) / ds[pos]
        k = int(np.argmin(ratio))
        alpha = blocked = min(1.0, float(ratio[k]))
        f_new = prob.objective(red.x(y + alpha * d))
        # Converged on the face: the step is tiny, or its predicted decrease
        # is below the rounding of F (flat directions leave d at noise level).
        slope = float(g @ d)
        tiny = float(np.max(np.abs(red.Z @ d))) <= 1e-9 * (1.0 + float(np.max(np.abs(x))))
        converged = tiny or -slope <= 1e-15 * (1.0 + abs(f))
        if not converged:  # Armijo
            while alpha > 1e-14 and f_new > f + 1e-4 * alpha * slope:
                alpha *= 0.5
                f_new = prob.objective(red.x(y + alpha * d))
            if alpha <= 1e-14 < blocked:
                break
        y, f = y + alpha * d, f_new
        s = red.slack(y)
        if alpha < blocked:  # backtracked short of the blocking row
            continue
        if blocked < 1.0:
            if not _independent(E, red.Gy[k]):
                break
            work.append(k)
        elif converged:  # stop, or free the row that blocks descent
            mu_floor = -1e-9 * (1.0 + float(np.max(np.abs(gF))))
            if mu.size == 0 or float(np.min(mu)) >= mu_floor:
                break
            del work[int(np.argmin(mu))]
    return y, rounds


def _kkt_residual(prob, red, y) -> float:
    """Distance of -grad F from the cone of active constraint normals.

    Measured in the reduced space (equalities are quotiented out), relative
    to the gradient scale; multipliers are constrained nonnegative.
    """
    if red.dim == 0:
        return 0.0
    x = red.x(y)
    gF = prob.grad(x)
    g_y = red.Z.T @ gF
    scale = 1.0 + float(np.max(np.abs(gF)))
    s = red.slack(y)
    act = np.where(s <= _ACT_TOL * (1.0 + np.abs(red.hy)))[0]
    if act.size == 0:
        return float(np.max(np.abs(g_y))) / scale
    M = red.Gy[act].T
    mu, _ = nnls(M, -g_y)
    return float(np.max(np.abs(g_y + M @ mu))) / scale


def solve(
    group: CoordinationGroup, model: FuelModel, settings: Optional[SolverSettings] = None
) -> TimingSolution:
    """Minimize the group's fuel subject to speed, deadline and sync constraints.

    The equalities are eliminated through null_space(A). From the start that
    _interior_point picks, _active_set runs at most settings.max_iter rounds;
    the returned point is never worse than the pairwise plans. converged
    means its KKT residual is at most max(settings.tol, 1e-10). lp_calls is
    0 or 1, and degeneracy_rounds stays 0.
    """
    t0 = time.perf_counter()
    if settings is None:
        settings = SolverSettings()
    prob = _assemble(group, model)

    if prob.A.size:
        residual = prob.A @ prob.x0 - prob.b
        if np.max(np.abs(residual)) > 1e-6:
            raise InconsistentGroupError(
                f"initial plans violate synchronization by {np.max(np.abs(residual)):.3e} s"
            )
        Z0 = null_space(prob.A)
    else:
        Z0 = np.eye(prob.x0.size)

    red = _reduce(prob, prob.x0, Z0)
    y = np.zeros(red.dim)
    rounds = lp_calls = 0
    if red.dim:
        y0, lp_calls = _interior_point(red)
        y, rounds = _active_set(prob, red, y0, settings.max_iter)
    # The initial point is feasible by construction; never return worse.
    if prob.objective(red.x(y)) > prob.objective(prob.x0):
        y = np.zeros(red.dim)
    x_best = red.x(y)
    kkt = _kkt_residual(prob, red, y)

    times = {
        member: tuple(float(t) for t in x_best[prob.var_slices[member]])
        for member in group.members()
    }
    return TimingSolution(
        times=times,
        objective=prob.objective(x_best),
        kkt_residual=kkt,
        newton_steps=rounds,
        converged=kkt <= max(settings.tol, 1e-10),
        lp_calls=lp_calls,
        solve_s=time.perf_counter() - t0,
    )


def extract_plans(
    group: CoordinationGroup, sol: TimingSolution, model: FuelModel
) -> dict:
    """Vehicle plans realizing the optimized traversal times.

    Segment speeds are W / T with breakpoints as prefix sums from each
    truck's start time; merge/split locations are untouched because the
    distance partition is fixed.
    """
    plans = {}
    for member in group.members():
        w = group.distances[member]
        times_rel = sol.times[member]
        speeds = []
        for wi, ti in zip(w, times_rel):
            v = float(wi / ti)
            # Snap rounding dust; a real violation is left for validate().
            clamped = model.clamp_speed(v)
            speeds.append(v if clamped is None else clamped)
        breakpoints = [group.t_start[member]]
        for ti in times_rel:
            breakpoints.append(breakpoints[-1] + ti)
        plans[member] = VehiclePlan(
            route=group.routes[member],
            speeds=tuple(speeds),
            times=tuple(breakpoints),
            follower_flags=group.platoon_flags[member],
            platoon_leader_id=None if member == group.leader_id else group.leader_id,
        )
    return plans
