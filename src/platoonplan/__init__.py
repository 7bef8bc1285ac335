"""Fuel-efficient en-route truck platoon coordination."""

from .fuel_model import FuelModel, per_distance, plan_fuel
from .planning import (
    Assignment,
    InfeasibleDeadlineError,
    TrajectorySample,
    VehiclePlan,
    adapted_plan,
    default_plan,
    sample,
    validate,
)
from .road_network import (
    NetworkFormatError,
    Position,
    RoadNetwork,
    Route,
    SharedSegment,
    common_subpaths,
    load_network,
    positions_coincide,
    route_length,
    shortest_node_route,
    shortest_route,
)
from .coordination_graph import CoordinationGraph, build, prune_pairs
from .leader_selection import (
    LeaderSet,
    SizeLimitError,
    cluster,
    exact,
    upper_bound,
)
from .joint_optimization import (
    CoordinationGroup,
    InconsistentGroupError,
    InfeasibleGroupError,
    SolverSettings,
    TimingSolution,
    build_group,
    extract_plans,
    solve,
)
from .evaluation import (
    RunReport,
    make_report,
    platoon_size_histogram,
    spontaneous_baseline,
)
from .scenario import ScenarioConfig, ScenarioError, generate, grid_network

__all__ = [name for name in dir() if not name.startswith("_")]
