"""Per-layer tracing of platoonplan from outside the package.

The tracer swaps module attributes for timing wrappers while it is attached
and restores them on detach, so untraced requests run the original code.
Each entry of LAYERS names one public function (or scipy call) of a layer
and every module binding through which the pipeline looks it up; functions
imported with ``from x import y`` must be wrapped in the importing module.

Spans are aggregated per entry (calls, inclusive seconds, longest call)
instead of stored one by one: ``common_subpaths`` runs about 600k times per
request at N = 3200. Spans that start while no other traced span is open
are the request's direct children; their total gives the CLI's self time.

A binding that is missing, or an entry that records no call in the scope it
belongs to, stops the benchmark with TraceError, so a refactor that moves a
function cannot make its layer silently read 0.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional


class TraceError(RuntimeError):
    """The layer table no longer matches the package."""


def _observe_prune(result, counts: dict) -> None:
    counts["coordination_graph.pairs_kept"] += len(result)


def _observe_build(result, counts: dict) -> None:
    counts["coordination_graph.edges"] += result[0].num_edges()


def _observe_cluster(result, counts: dict) -> None:
    counts["leader_selection.leaders"] += len(result.leaders)
    counts["leader_selection.followers"] += len(result.follower_of)


def _observe_build_group(result, counts: dict) -> None:
    size = len(result.members())
    counts["joint_optimization.max_group_size"] = max(
        counts["joint_optimization.max_group_size"], size
    )


def _observe_solve(result, counts: dict) -> None:
    counts["joint_optimization.newton_steps"] += result.newton_steps
    counts["joint_optimization.unconverged_groups"] += 0 if result.converged else 1


@dataclass(frozen=True)
class Entry:
    """One traced function: metric stem, scope and the bindings to wrap."""

    stem: str
    bindings: tuple  # ("module", "attribute") pairs sharing one counter
    scope: str = "request"
    observe: Optional[Callable] = None


LAYERS = (
    Entry("road_network.shortest_route", (("platoonplan.road_network", "shortest_route"),)),
    Entry(
        "road_network.common_subpaths",
        (("platoonplan.coordination_graph", "common_subpaths"),),
    ),
    Entry("road_network.load_network", (("platoonplan.cli", "load_network"),)),
    Entry("coordination_graph.build", (("platoonplan.cli", "build"),), observe=_observe_build),
    Entry(
        "coordination_graph.prune_pairs",
        (("platoonplan.coordination_graph", "prune_pairs"),),
        observe=_observe_prune,
    ),
    Entry("planning.default_plan", (("platoonplan.cli", "default_plan"),)),
    Entry("planning.adapted_plan", (("platoonplan.coordination_graph", "adapted_plan"),)),
    Entry("planning.validate", (("platoonplan.cli", "validate"),)),
    Entry(
        "leader_selection.cluster", (("platoonplan.cli", "cluster"),), observe=_observe_cluster
    ),
    Entry("leader_selection.upper_bound", (("platoonplan.cli", "upper_bound"),)),
    Entry(
        "joint_optimization.build_group",
        (("platoonplan.cli", "build_group"),),
        observe=_observe_build_group,
    ),
    Entry("joint_optimization.solve", (("platoonplan.cli", "solve"),), observe=_observe_solve),
    Entry("joint_optimization.extract_plans", (("platoonplan.cli", "extract_plans"),)),
    Entry("joint_optimization.lp", (("platoonplan.joint_optimization", "linprog"),)),
    Entry("joint_optimization.null_space", (("platoonplan.joint_optimization", "null_space"),)),
    Entry("evaluation.make_report", (("platoonplan.evaluation", "make_report"),)),
    Entry(
        "evaluation.spontaneous_baseline",
        (("platoonplan.evaluation", "spontaneous_baseline"),),
    ),
    Entry("evaluation.histogram", (("platoonplan.evaluation", "platoon_size_histogram"),)),
    Entry(
        "fuel_model.plan_fuel",
        (
            ("platoonplan.cli", "plan_fuel"),
            ("platoonplan.evaluation", "plan_fuel"),
            ("platoonplan.planning", "plan_fuel"),
        ),
    ),
    Entry("scenario.load_assignments", (("platoonplan.scenario", "load_assignments"),)),
    Entry("scenario.generate", (("platoonplan.scenario", "generate"),), scope="setup"),
)

class _Stat:
    __slots__ = ("calls", "seconds", "max_s")

    def __init__(self) -> None:
        self.calls = 0
        self.seconds = 0.0
        self.max_s = 0.0


class Tracer:
    """Wraps the entries of one scope while attached; aggregates their spans."""

    def __init__(self) -> None:
        self._depth = 0
        self._resolved = []
        for entry in LAYERS:
            for module_name, attr in entry.bindings:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr, None)
                if not callable(fn):
                    raise TraceError(
                        f"{module_name}.{attr} is gone; update LAYERS in perfbench/tracer.py"
                    )
                self._resolved.append((entry, module, attr, fn))
        self.reset()

    def reset(self) -> None:
        self.stats = {entry.stem: _Stat() for entry in LAYERS}
        self.counts = Counter()  # filled by the entries' observers
        self.top_s = 0.0  # time inside spans opened while no other was open

    def _wrap(self, fn, stat: _Stat, observe):
        clock = time.perf_counter
        counts = self.counts

        def traced(*args, **kwargs):
            self._depth += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self._depth -= 1
                if self._depth == 0:
                    self.top_s += dt
                stat.calls += 1
                stat.seconds += dt
                if dt > stat.max_s:
                    stat.max_s = dt
            if observe is not None:
                observe(result, counts)
            return result

        return traced

    @contextmanager
    def attached(self, scope: str):
        """Trace the scope's entries from fresh statistics until the block ends."""
        self.reset()
        active = [r for r in self._resolved if r[0].scope == scope]
        for entry, module, attr, fn in active:
            setattr(module, attr, self._wrap(fn, self.stats[entry.stem], entry.observe))
        try:
            yield self
        finally:
            for _, module, attr, fn in active:
                setattr(module, attr, fn)

    def require_calls(self, scope: str) -> None:
        """After a successful traced block: every entry of the scope was called."""
        idle = [e.stem for e in LAYERS if e.scope == scope and self.stats[e.stem].calls == 0]
        if idle:
            raise TraceError(f"traced layers recorded no call in scope {scope!r}: {idle}")
