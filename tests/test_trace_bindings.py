"""The benchmark's per-layer tracer still finds and exercises every binding.

perfbench/tracer.py wraps package functions and the solver's scipy calls by
module attribute and stops a traced run when one is missing or never called.
This test runs the same check on a small fleet, so a refactor that removes
or stops calling a traced function fails here rather than in the benchmark.
"""

import os

from platoonplan import FuelModel, build, cli, default_plan, load_network
from platoonplan.planning import Visits
from platoonplan.scenario import load_assignments

from conftest import bisect_prune_pairs

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def test_every_traced_binding_is_called(tmp_path, monkeypatch):
    """Every binding records a call, and the per-layer counts of pruned pairs
    and graph edges are the pipeline's own."""
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracer as tracing

    tr = tracing.Tracer()
    fleet = tmp_path / "fleet"
    with tr.attached("setup"):
        assert cli.main(["generate", "--size", "200", "--seed", "1", "--out-dir", str(fleet)]) == 0
    tr.require_calls("setup")
    argv = [
        "plan",
        "--network", str(fleet / "network.json"),
        "--assignments", str(fleet / "assignments.json"),
        "--out-dir", str(tmp_path / "out"),
    ]
    with tr.attached("request"):
        assert cli.main(argv) == 0
    tr.require_calls("request")

    net = load_network(str(fleet / "network.json"))
    assignments = load_assignments(str(fleet / "assignments.json"))
    routes = cli.route_assignments(net, assignments)
    amap, model = {a.id: a for a in assignments}, FuelModel()
    plans = {aid: default_plan(a, routes[aid], model) for aid, a in amap.items()}
    graph, _ = build(Visits(amap, routes, plans, model), model)
    pairs = bisect_prune_pairs(amap, routes, model)
    assert tr.counts["coordination_graph.pairs_kept"] == len(pairs)
    assert tr.counts["coordination_graph.edges"] == graph.num_edges() > 0
