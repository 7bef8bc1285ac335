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
equalities are eliminated: a platoon equality copies a leader segment's time,
so it goes by index, and the merge equalities through the null space of what
is left; a copied segment's speed window is its leader segment's and is
stated once. A group
whose pairwise plans meet the KKT conditions is optimal there, as the program
is convex, and keeps them. Any other group runs a primal active-set Newton
method with an empty initial working set, from the pairwise plans, or from a
max-margin LP point when only that is strictly interior (one LP serves a
block of groups that need one), and keeps every iterate feasible up to
rounding by a ratio test. A flat group, whose feasible set has no interior,
needs no special path: rows tight at the pairwise plans join the working set
one at a time.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Optional

import numpy as np
from scipy.linalg import null_space
from scipy.linalg.lapack import dgesv
from scipy.optimize import linprog, nnls
from scipy.sparse import block_diag

from .fuel_model import FuelModel
from .planning import Assignment, VehiclePlan

EVENT_TOL = 1e-9  # seconds; nearly simultaneous merge/split events collapse
LP_BLOCK = 64  # groups that need a start per LP; one LP for a whole fleet costs more


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


def build_group(
    leader: Assignment,
    leader_plan: VehiclePlan,
    followers: list[tuple[Assignment, VehiclePlan]],
) -> CoordinationGroup:
    """Partition the leader's timeline at every merge/split event.

    Each follower's merge time, then its split time, is snapped to the first
    event within EVENT_TOL, or becomes a new event; the leader's constant
    default speed converts the gaps between the sorted events into segment
    distances.
    """
    if len(leader_plan.speeds) != 1:
        raise InconsistentGroupError("leader must run a constant-speed default plan")
    v_leader = leader_plan.speeds[0]
    t0, t_arr = leader_plan.times[0], leader_plan.times[-1]

    events: list[float] = [t0, t_arr]
    windows = []  # each follower's snapped (merge, split) times
    for a, plan in followers:
        if plan.platoon_leader_id != leader.id:
            raise InconsistentGroupError(
                f"follower {a.id} is adapted to {plan.platoon_leader_id!r}, not {leader.id!r}"
            )
        window = plan.platoon_interval()
        if window is None:
            raise InconsistentGroupError(f"follower {a.id} plan has no platoon episode")
        if window[0] < t0 - EVENT_TOL or window[1] > t_arr + EVENT_TOL:
            raise InconsistentGroupError(
                f"follower {a.id} platoons outside the leader's journey"
            )
        k = plan.follower_flags.index(1)
        if abs(plan.speeds[k] - v_leader) > 1e-6 * v_leader:
            raise InconsistentGroupError(
                f"follower {a.id} platoon speed differs from the leader's"
            )
        snapped = []
        for t in window:
            t = next((e for e in events if abs(t - e) <= EVENT_TOL), t)
            if t not in events:
                events.append(t)
            snapped.append(t)
        windows.append(snapped)
    events.sort()

    leader_t = tuple(b - a for a, b in zip(events, events[1:]))
    leader_w = tuple(t * v_leader for t in leader_t)
    distances = {leader.id: leader_w}
    platoon_flags = {leader.id: (0,) * len(leader_w)}
    initial_times = {leader.id: leader_t}
    t_start = {leader.id: leader.t_start}
    t_deadline = {leader.id: leader.t_deadline}
    routes = {leader.id: leader_plan.route}
    merge_index = {}
    split_index = {}

    for (a, plan), (t_merge, t_split) in zip(followers, windows):
        i_m = events.index(t_merge)
        i_sp = events.index(t_split) - 1
        if i_sp < i_m:
            raise InconsistentGroupError(f"follower {a.id} has an empty platoon window")
        head = (t_merge - a.t_start,) if plan.follower_flags[0] == 0 else ()
        tail = (plan.times[-1] - t_split,) if plan.follower_flags[-1] == 0 else ()
        w = (*(plan.speeds[0] * t for t in head), *leader_w[i_m : i_sp + 1],
             *(plan.speeds[-1] * t for t in tail))
        if any(x <= 0 for x in w):
            raise InconsistentGroupError(f"follower {a.id} produced a nonpositive segment")
        distances[a.id] = w
        platoon_flags[a.id] = (0,) * len(head) + (1,) * (i_sp + 1 - i_m) + (0,) * len(tail)
        initial_times[a.id] = head + leader_t[i_m : i_sp + 1] + tail
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
    )


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
        return float((self.c2 / x).sum()) + self.c0


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
        return np.fromiter(itertools.chain.from_iterable(per_member[m] for m in members), float)

    w = stacked(group.distances)
    platoon = stacked(group.platoon_flags) == 1
    x0 = stacked(group.initial_times)
    c2 = np.where(platoon, model.ap, model.a0) * w * w
    constant = np.where(platoon, model.bp, model.b0) * w
    c0 = sum(float(constant[sl].sum()) for sl in var_slices.values())

    # Per follower: the merge row unless trivial, then one row per platoon
    # segment; the leader's variables come first.
    rows = len(group.follower_ids) + n  # bounds the merge and platoon rows
    A = np.zeros((rows, n))
    b = np.zeros(rows)
    r = 0
    for fid, f in zip(group.follower_ids, ends[1:]):
        i_m, i_sp = group.merge_index[fid], group.split_index[fid]
        head = int(group.platoon_flags[fid][0] == 0)
        # Merge synchronization: follower start + head time equals the
        # leader's arrival at the merge segment, i.e.
        # T_head - sum(leader prefix) = t_start_leader - t_start_follower.
        rhs = group.t_start[group.leader_id] - group.t_start[fid]
        if head or i_m:
            A[r, f : f + head] = 1.0
            A[r, :i_m] = -1.0
            b[r] = rhs
            r += 1
        elif abs(rhs) > 1e-6:
            raise InconsistentGroupError(
                f"follower {fid} merges at the leader's start but departs elsewhere in time"
            )
        # Equal traversal times while platooning.
        j = np.arange(i_sp - i_m + 1)
        A[r + j, f + head + j] = 1.0
        A[r + j, i_m + j] = -1.0
        r += j.size
    A, b = A[:r], b[:r]

    j = np.arange(n)
    G = np.zeros((2 * n + len(members), n))
    G[j, j] = -1.0
    G[n + j, j] = 1.0
    G[np.repeat(np.arange(2 * n, G.shape[0]), sizes), j] = 1.0
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

    @property
    def dim(self) -> int:
        return self.Z.shape[1]

    def x(self, y: np.ndarray) -> np.ndarray:
        # Row by row, so that equal rows of Z give equal times; a BLAS product
        # may round the rows of one matrix differently.
        return self.base + (self.Z * y).sum(axis=1)

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
    return _Reduced(base=base, Z=Z, Gy=Gy_full[rows], hy=hy_full[rows])


def _strictly_interior(red: _Reduced, y: np.ndarray) -> bool:
    return red.hy.size == 0 or bool(np.min(red.slack(y) / (1.0 + np.abs(red.hy))) > _INTERIOR_EPS)


def _interior_points(reds: list) -> list:
    """(y, LPs solved) per reduced system whose y = 0 is not strictly interior.

    The systems share one block-diagonal LP, each maximizing its minimum
    row-normalized slack in a margin column of its own; its slice of the
    optimum is its start if strictly interior, else y = 0, as the pairwise
    plans are exactly feasible and the LP optimum only to tolerance. If the LP
    fails, each system is solved alone, and one that fails alone gets an
    InfeasibleGroupError in place of its start.
    """
    blocks = [np.hstack([red.Gy, np.linalg.norm(red.Gy, axis=1)[:, None]]) for red in reds]
    ends = np.cumsum([0] + [blk.shape[1] for blk in blocks])
    c, bounds = np.zeros(ends[-1]), np.full((ends[-1], 2), [-np.inf, np.inf])
    c[ends[1:] - 1], bounds[ends[1:] - 1, 1] = -1.0, 1e6
    a_ub, b_ub = block_diag(blocks, format="csr"), np.concatenate([red.hy for red in reds])
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if res.success:
        return [
            (x[:-1] if _strictly_interior(red, x[:-1]) else np.zeros(red.dim), 1)
            for red, x in zip(reds, np.split(res.x, ends[1:-1]))  # x[-1] is the margin
        ]
    if len(reds) == 1:
        return [InfeasibleGroupError(f"interior search LP failed: {res.message}")]
    return [_interior_points([red])[0] for red in reds]


def _active_set(prob, red, y, max_rounds: int = 200):
    """Primal active-set Newton method from a feasible y; returns (y, rounds).

    The working set starts empty. Every round takes a Newton step of F that
    keeps the working rows tight, solving [[H, E^T], [E, 0]] [d; mu] =
    [-grad; 0] by LAPACK dgesv, cut short by a ratio test so that no other
    row is crossed and backtracked until F decreases enough (Armijo). Rows
    blocking at the same step to 1e-12, as at a degenerate vertex, go to the
    lowest index. A blocking row always joins the set; a row in the span of
    the working rows cannot block, as the step leaves it unchanged. Once
    converged on the face, the row with the most negative multiplier leaves,
    or the method stops (Nocedal & Wright, Numerical Optimization, section
    16.5); before that only a singular system or a failed Armijo search stops
    it. Rows whose step ds is rounding noise never block: the row opposite a
    working box row, or the twin of a working deadline row (two trucks with
    the same window and segments), would stop the step at 0. The bound grows
    with |Gy| |d|, the rounding of ds itself: a step from a flat group's
    pairwise plans can be 7e3 s long, and the row opposite a working row then
    computes ds of about 1e-12 instead of 0. Every iterate is feasible up to
    that rounding.
    """
    Z = red.Z
    Gy = red.Gy
    dim = red.dim
    Zt = np.ascontiguousarray(Z.T)
    noise = 1e-12 * (1.0 + np.abs(red.hy))
    abs_G = 1e-14 * np.abs(Gy)
    x = red.x(y)
    s = red.slack(y)
    f = prob.objective(x)
    work: list = []
    rounds = 0
    while rounds < max_rounds:
        rounds += 1
        r = 1.0 / x
        p = prob.c2 * r * r  # -grad F; the Hessian diagonal is 2 p / x
        H = (Zt * (2.0 * p * r)) @ Z
        rhs = Zt @ p
        nw = len(work)
        K = H
        if nw:
            E = Gy[work]
            K = np.zeros((dim + nw,) * 2)
            K[:dim, :dim] = H
            K[:dim, dim:] = E.T
            K[dim:, :dim] = E
            rhs = np.concatenate((rhs, np.zeros(nw)))
        sol, info = dgesv(K, rhs, overwrite_a=True)[2:]
        if info:
            break
        d, mu = sol[:dim], sol[dim:]
        dx = Z @ d
        ds = Gy @ d
        # Longest step up to 1 that keeps every row outside the set satisfied.
        ds[work] = 0.0
        pos = ds > noise + abs_G @ np.abs(d)
        ratio = np.divide(np.maximum(s, 0.0), ds, out=np.full(ds.shape, np.inf), where=pos)
        alpha = blocked = min(1.0, float(ratio.min()))
        k = int((ratio <= blocked * (1.0 + 1e-12)).argmax())
        x_new = x + alpha * dx
        f_new = prob.objective(x_new)
        # Converged on the face: the step is tiny, or its predicted decrease
        # is below the rounding of F (flat directions leave d at noise level).
        slope = -float(rhs[:dim] @ d)
        tiny = float(np.abs(dx).max()) <= 1e-9 * (1.0 + float(x.max()))
        converged = tiny or -slope <= 1e-15 * (1.0 + abs(f))
        if not converged:  # Armijo
            while alpha > 1e-14 and f_new > f + 1e-4 * alpha * slope:
                alpha *= 0.5
                x_new = x + alpha * dx
                f_new = prob.objective(x_new)
            if alpha <= 1e-14 < blocked:
                break
        y, x, f = y + alpha * d, x_new, f_new
        s = red.slack(y)
        if alpha < blocked:  # backtracked short of the blocking row
            continue
        if blocked < 1.0:
            work.append(k)
        elif converged:  # stop, or free the row that blocks descent
            mu_floor = -1e-9 * (1.0 + float(p.max()))  # p = |grad F|
            if mu.size == 0 or float(mu.min()) >= mu_floor:
                break
            del work[int(mu.argmin())]
    return y, rounds


def _kkt_residual(prob, red, y=None) -> float:
    """Distance of -grad F from the cone of active constraint normals.

    Measured in the reduced space (equalities are quotiented out), relative
    to the gradient scale; multipliers are constrained nonnegative. y = None
    is the pairwise plans, whose times and slacks are base and hy.
    """
    if red.dim == 0:
        return 0.0
    x, s = (red.base, red.hy) if y is None else (red.x(y), red.slack(y))
    gF = -prob.c2 / (x * x)
    g_y = red.Z.T @ gF
    scale = 1.0 + float(np.max(np.abs(gF)))
    act = np.where(s <= _ACT_TOL * (1.0 + np.abs(red.hy)))[0]
    if act.size == 0:
        return float(np.max(np.abs(g_y))) / scale
    M = red.Gy[act].T
    mu, _ = nnls(M, -g_y)
    return float(np.max(np.abs(g_y + M @ mu))) / scale


GROUP_ERRORS = (InconsistentGroupError, InfeasibleGroupError, np.linalg.LinAlgError)


def _set_up(group: CoordinationGroup, model: FuelModel):
    """(problem without the dense G and A, reduced system), for the active set.

    A platoon row only says that a follower's segment copies a leader segment,
    so it is eliminated by index: col maps each variable to its free variable
    (the leader's segments and each follower's head and tail), and the SVD
    sees only the merge rows. Weighting the free variables by D^-1/2, D their
    copy counts, keeps Z orthonormal; a copied segment's row of Z is its
    leader segment's row, so its box rows, exact duplicates, are dropped.
    """
    prob = _assemble(group, model)
    if prob.A.size:
        residual = prob.A @ prob.x0 - prob.b
        if np.max(np.abs(residual)) > 1e-6:
            raise InconsistentGroupError(
                f"initial plans violate synchronization by {np.max(np.abs(residual)):.3e} s"
            )
    n = prob.x0.size
    col = np.arange(n)
    for fid in group.follower_ids:
        f = prob.var_slices[fid].start + int(group.platoon_flags[fid][0] == 0)
        i_m, i_sp = group.merge_index[fid], group.split_index[fid]
        col[f : f + i_sp - i_m + 1] = np.arange(i_m, i_sp + 1)
    copied = col != np.arange(n)
    col = np.unique(col, return_inverse=True)[1]
    scale = 1.0 / np.sqrt(np.bincount(col))
    merge = prob.A[~prob.A[:, copied].any(axis=1)][:, ~copied]
    N = null_space(merge * scale) if merge.size else np.eye(scale.size)
    Z = (scale[:, None] * N)[col]
    kept = np.concatenate([~copied, ~copied, np.ones(prob.G.shape[0] - 2 * n, bool)])
    red = _reduce(replace(prob, G=prob.G[kept], h=prob.h[kept]), prob.x0, Z)
    return replace(prob, A=None, G=None), red


def start_points(
    groups: Iterable[CoordinationGroup], model: FuelModel,
    settings: Optional[SolverSettings] = None,
) -> Iterator[tuple]:
    """(group, start) per group; start is (problem, reduced system, y, LPs
    solved, KKT residual) for solve, or the error its solve raises.

    The residual is the one at the pairwise plans, y = 0, when it is at most
    max(settings.tol, 1e-10): the group is certified optimal there, as its
    program is convex, and solve has nothing to do. Otherwise it is None. A
    start is given as soon as it is known, except that the groups whose y = 0
    is not strictly interior are held, LP_BLOCK at a time, for the start LP
    they share; so the order is not that of groups.
    """
    tol = max((settings or SolverSettings()).tol, 1e-10)

    def lp_starts(held):
        for (group, prob, red), point in zip(held, _interior_points([h[2] for h in held])):
            yield group, point if isinstance(point, Exception) else (prob, red, *point, None)

    held: list = []  # (group, problem, reduced system) waiting for the start LP
    for group in groups:
        try:
            prob, red = _set_up(group, model)
        except GROUP_ERRORS as exc:
            yield group, exc
            continue
        kkt = _kkt_residual(prob, red)
        y = np.zeros(red.dim)
        certified = kkt <= tol
        if certified or _strictly_interior(red, y):
            yield group, (prob, red, y, 0, kkt if certified else None)
            continue
        held.append((group, prob, red))
        if len(held) == LP_BLOCK:
            yield from lp_starts(held)
            held = []
    if held:
        yield from lp_starts(held)


def solve(
    group: CoordinationGroup, model: FuelModel, settings: Optional[SolverSettings] = None,
    start=None,
) -> TimingSolution:
    """Minimize the group's fuel subject to speed, deadline and sync constraints.

    start is the group's start from start_points, computed here with the same
    settings when not given. A group certified optimal at its pairwise plans
    returns them with the start's KKT residual, 0 rounds and 0 LPs. Otherwise
    _active_set runs at most settings.max_iter rounds from the start; the
    returned point is never worse than the pairwise plans. converged means
    its KKT residual is at most max(settings.tol, 1e-10). lp_calls is 1 when
    the start needed a max-margin LP, which may be shared with the other
    groups given to start_points, else 0; degeneracy_rounds stays 0. solve_s
    is the time spent in this call, so it leaves out a start computed
    beforehand, the certificate included.
    """
    t0 = time.perf_counter()
    if settings is None:
        settings = SolverSettings()
    if start is None:
        _, start = next(start_points([group], model, settings))
    if isinstance(start, Exception):
        raise start
    prob, red, y, lp_calls, kkt = start
    rounds = 0
    if kkt is None:
        y, rounds = _active_set(prob, red, y, settings.max_iter)
        # The initial point is feasible by construction; never return worse.
        if prob.objective(red.x(y)) > prob.objective(prob.x0):
            y = np.zeros(red.dim)
        kkt = _kkt_residual(prob, red, y)
    x_best = red.x(y)

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
        speeds = []
        for w, t in zip(group.distances[member], sol.times[member]):
            v = float(w / t)
            snapped = model.clamp_speed(v)  # snaps rounding dust; validate() reports the rest
            speeds.append(v if snapped is None else snapped)
        plans[member] = VehiclePlan(
            route=group.routes[member],
            speeds=tuple(speeds),
            times=tuple(itertools.accumulate(sol.times[member], initial=group.t_start[member])),
            follower_flags=group.platoon_flags[member],
            platoon_leader_id=None if member == group.leader_id else group.leader_id,
        )
    return plans
