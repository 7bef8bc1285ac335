"""The benchmark's per-layer tracer still finds and exercises every binding.

perfbench/tracer.py wraps package functions and the solver's scipy calls by
module attribute and stops a traced run when one is missing or never called.
This test runs the same check on a small fleet, so a refactor that removes
or stops calling a traced function fails here rather than in the benchmark.
"""

import os

from platoonplan import cli

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def test_every_traced_binding_is_called(tmp_path, monkeypatch):
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
