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
equalities are eliminated through a null-space parameterization; the
inequalities are handled by a logarithmic-barrier Newton method started from
a strictly interior point (found by a small LP), followed by a primal
active-set crossover whose ratio test keeps every iterate feasible.
Degenerate groups whose feasible set has an empty interior are reduced by
converting permanently tight rows into equalities; a fully pinned group
returns its initial point.
"""

from __future__ import annotations

import itertools
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
    tol: float = 1e-8
    max_iter: int = 200
    barrier_mu: float = 10.0


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
    newton_steps: int = 0
    converged: bool = True


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
    keep = []
    for k in range(Gy_full.shape[0]):
        if np.linalg.norm(Gy_full[k]) <= _ZERO_ROW:
            if hy_full[k] < -1e-6:
                raise InfeasibleGroupError(
                    f"constraint row {k} violated by {-hy_full[k]:.3e} with no freedom left"
                )
        else:
            keep.append(k)
    rows = np.array(keep, dtype=int)
    return _Reduced(base=base, Z=Z, Gy=Gy_full[rows], hy=hy_full[rows], rows=rows)


def _interior_point(red: _Reduced):
    """A strictly interior y, or (y_best, implicit_row_mask) when none exists.

    Maximizes the minimum row-normalized slack by LP. If the optimum is
    (numerically) zero the feasible region is flat against some rows; each
    candidate row gets its own slack maximized to separate rows that are
    genuinely pinned from rows that merely bind at the max-margin point, and
    the mean of all witness points is interior to every non-pinned row.
    """
    m, d = red.Gy.shape
    scale = 1.0 + np.abs(red.hy)
    if m == 0:
        return np.zeros(d), None
    slack0 = red.slack(np.zeros(d))
    if np.min(slack0 / scale) > _INTERIOR_EPS:
        return np.zeros(d), None

    norms = np.linalg.norm(red.Gy, axis=1)
    a_ub = np.hstack([red.Gy, norms[:, None]])
    c = np.zeros(d + 1)
    c[-1] = -1.0
    bounds = [(None, None)] * d + [(None, 1e6)]
    res = linprog(c, A_ub=a_ub, b_ub=red.hy, bounds=bounds, method="highs")
    if not res.success:
        raise InfeasibleGroupError(f"interior search LP failed: {res.message}")
    y_star = res.x[:d]
    slack = red.slack(y_star)
    if np.min(slack / scale) > _INTERIOR_EPS:
        return y_star, None

    candidates = np.where(slack / scale <= _INTERIOR_EPS)[0]
    witnesses = [y_star]
    implicit = np.zeros(m, dtype=bool)
    for k in candidates:
        res_k = linprog(
            red.Gy[k] / scale[k],
            A_ub=red.Gy,
            b_ub=red.hy,
            bounds=[(None, None)] * d,
            method="highs",
        )
        if not res_k.success:
            raise InfeasibleGroupError(f"per-row interior LP failed: {res_k.message}")
        best_slack = (red.hy[k] - red.Gy[k] @ res_k.x) / scale[k]
        if best_slack <= _INTERIOR_EPS:
            implicit[k] = True
        else:
            witnesses.append(res_k.x)
    y_bar = np.mean(witnesses, axis=0)
    return y_bar, implicit


def _newton_centering(prob, red, y, t, max_steps, rel_tol=1e-9):
    """Damped Newton on t * F + log barrier; returns (y, steps_used).

    Stops when half the squared Newton decrement is small relative to the
    centering objective, which keeps late barrier stages (huge t) from
    chasing decrements below the float64 noise floor. Path following only
    needs approximate centering; the crossover supplies precision.
    """
    steps = 0
    for _ in range(max_steps):
        x = red.x(y)
        s = red.slack(y)
        grad = t * (red.Z.T @ prob.grad(x)) + red.Gy.T @ (1.0 / s)
        d2 = t * prob.hess_diag(x)
        H = (red.Z * d2[:, None]).T @ red.Z + (red.Gy / s[:, None]).T @ (red.Gy / s[:, None])
        try:
            step = np.linalg.solve(H, -grad)
        except np.linalg.LinAlgError:
            H = H + 1e-12 * np.eye(H.shape[0]) * max(1.0, np.trace(H))
            step = np.linalg.lstsq(H, -grad, rcond=None)[0]
        decrement2 = float(-grad @ step)
        phi0 = t * prob.objective(x) - float(np.sum(np.log(s)))
        if decrement2 <= 0 or decrement2 / 2.0 <= rel_tol * (1.0 + abs(phi0)):
            break
        # Longest step keeping every slack positive.
        ds = red.Gy @ step
        pos = ds > 0
        alpha = 1.0
        if np.any(pos):
            alpha = min(1.0, 0.99 * float(np.min(s[pos] / ds[pos])))
        g_dot = float(grad @ step)
        while alpha > 1e-14:
            y_new = y + alpha * step
            s_new = red.slack(y_new)
            if np.all(s_new > 0):
                phi_new = t * prob.objective(red.x(y_new)) - float(np.sum(np.log(s_new)))
                if phi_new <= phi0 + 0.25 * alpha * g_dot:
                    break
            alpha *= 0.5
        else:
            break
        y = y + alpha * step
        steps += 1
    return y, steps


def _independent(E: np.ndarray, row: np.ndarray) -> bool:
    """row lies outside the row space of E, which has full row rank."""
    if E.shape[0] == 0:
        return True
    coef = np.linalg.lstsq(E.T, row, rcond=None)[0]
    return float(np.linalg.norm(row - E.T @ coef)) > 1e-9 * float(np.linalg.norm(row))


def _crossover(prob, red, y) -> np.ndarray:
    """Primal active-set pass from a feasible barrier iterate to its optimal face.

    The working set starts as the nearly tight rows, tightest first, each kept
    only if it raises the rank. Every round takes a Newton step of F on the
    working face, cut short by a ratio test so that no other row is crossed
    (Nocedal & Wright, Numerical Optimization, section 16.5). A blocking row
    joins the set if it is independent, else the pass stops; at a converged
    full step the row with the most negative multiplier leaves, or the pass
    stops. Every iterate is feasible; the lowest-objective one is returned.
    """
    scale = 1.0 + np.abs(red.hy)
    s = red.slack(y)
    work: list = []
    for k in np.argsort(s / scale):
        if s[k] > _ACT_TOL * scale[k]:
            break
        if _independent(red.Gy[work], red.Gy[k]):
            work.append(int(k))
    best_y, best_f = y, prob.objective(red.x(y))
    for _ in range(8):
        x = red.x(y)
        gF = prob.grad(x)
        E = red.Gy[work]
        H = (red.Z * prob.hess_diag(x)[:, None]).T @ red.Z
        K = np.block([[H, E.T], [E, np.zeros((len(work), len(work)))]])
        try:
            sol = np.linalg.solve(K, np.concatenate([-(red.Z.T @ gF), s[work]]))
        except np.linalg.LinAlgError:
            break
        d, mu = sol[: red.dim], sol[red.dim :]
        # Longest step up to 1 that keeps every row outside the set satisfied.
        ds = red.Gy @ d
        ds[work] = 0.0
        pos = ds > 0
        ratio = np.full(ds.shape, np.inf)
        ratio[pos] = np.maximum(s[pos], 0.0) / ds[pos]
        k = int(np.argmin(ratio))
        alpha = min(1.0, float(ratio[k]))
        y = y + alpha * d
        s = red.slack(y)
        f = prob.objective(red.x(y))
        if f <= best_f + 1e-14 * abs(best_f):  # a tie in rounding goes to the later iterate
            best_y, best_f = y, f
        if alpha < 1.0 - 1e-9:
            if not _independent(E, red.Gy[k]):
                break
            work.append(k)
        elif float(np.max(np.abs(red.Z @ d))) <= 1e-9 * (1.0 + float(np.max(np.abs(x)))):
            # Converged on this face: stop, or free the row that blocks descent.
            mu_floor = -1e-9 * (1.0 + float(np.max(np.abs(gF))))
            if mu.size == 0 or float(np.min(mu)) >= mu_floor:
                break
            del work[int(np.argmin(mu))]
    return best_y


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

    The pairwise plans provide a feasible start; the returned point is never
    worse than it. Barrier iterations run until the duality-gap estimate
    falls below tol * (1 + |objective|) or the Newton-step budget is spent,
    in which case the best feasible iterate is returned with converged=False.
    """
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

    base = prob.x0.copy()
    Z = Z0
    converged = True
    steps_total = 0
    x_found = prob.x0

    # Every degeneracy-elimination round removes at least one dimension.
    for _ in range(prob.x0.size + 2):
        red = _reduce(prob, base, Z)
        if red.dim == 0:
            x_found = base
            break
        y0, implicit = _interior_point(red)
        if implicit is None:
            # Barrier path following from the strictly interior start.
            y = y0
            m_rows = red.Gy.shape[0]
            f_init = prob.objective(red.x(y))
            t = max(1.0, m_rows / (0.1 * (1.0 + abs(f_init))))
            budget = settings.max_iter
            y_best = y
            gap_converged = False
            for _round in range(60):
                y, used = _newton_centering(
                    prob, red, y, t, max_steps=max(1, min(50, budget - steps_total))
                )
                steps_total += used
                gap = m_rows / t
                if gap <= settings.tol * (1.0 + abs(prob.objective(red.x(y)))):
                    gap_converged = True
                    y_best = _crossover(prob, red, y)
                    if _kkt_residual(prob, red, y_best) <= max(settings.tol, 1e-10):
                        break
                if steps_total >= budget or t > 1e60:
                    converged = gap_converged
                    break
                t *= settings.barrier_mu
            else:
                converged = gap_converged
            x_found = red.x(y_best)
            break
        # Degenerate feasible set: freeze the permanently tight rows as
        # equalities and retry in the smaller space.
        base = red.x(y0)
        x_found = base
        E = red.Gy[implicit]
        N = null_space(E)
        if N.size == 0:
            Z = np.zeros((prob.x0.size, 0))
        else:
            Z = red.Z @ N
    else:
        raise InfeasibleGroupError("degeneracy elimination did not terminate")

    # The initial point is feasible by construction; never return worse.
    x_best = x_found if prob.objective(x_found) <= prob.objective(prob.x0) else prob.x0

    # Stationarity is reported in the space that quotients out only the
    # explicit equalities; implicitly tight rows appear among the active
    # inequalities there, whose opposing normals span the pinned directions.
    if Z0.shape[1]:
        red0 = _reduce(prob, prob.x0, Z0)
        y_best = Z0.T @ (x_best - prob.x0)
        kkt = _kkt_residual(prob, red0, y_best)
    else:
        kkt = 0.0

    times = {
        member: tuple(float(t) for t in x_best[prob.var_slices[member]])
        for member in group.members()
    }
    return TimingSolution(
        times=times,
        objective=prob.objective(x_best),
        kkt_residual=kkt,
        newton_steps=steps_total,
        converged=converged,
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
