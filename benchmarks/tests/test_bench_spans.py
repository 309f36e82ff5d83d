"""Span arithmetic and the install/restore of traced wrappers."""

import cvarscale.alsox
import cvarscale.cvar
import cvarscale.exact
import cvarscale.scaling
import harness
import layers
from spans import Span, Tracer, installed, module_attributes, self_times
from workloads import WORKLOADS, mixed_instance


def test_self_time_of_nested_spans():
    spans = [
        Span("root", 0.0, 10.0, None, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("a.inner", 2.0, 3.0, 1, 0),
        Span("b", 5.0, 9.0, 0, 0),
        Span("c", 8.0, 9.5, 0, 0),       # overlaps b: the union is counted once
        Span("other", 20.0, 21.0, None, 1),
    ]
    assert self_times(spans) == [10.0 - 3.0 - 4.5, 2.0, 1.0, 4.0, 1.5, 1.0]


def test_self_time_clips_children_to_the_parent():
    spans = [Span("p", 0.0, 2.0, None, None), Span("k", 1.5, 3.0, 0, None)]
    assert self_times(spans) == [1.5, 1.5]


def test_traced_run_restores_every_attribute():
    before = {(mod.__name__, attr): value for mod, attr, value in module_attributes("cvarscale")}
    workload = WORKLOADS["corpus-mixed"]
    instance = mixed_instance(0)
    tracer = Tracer(layers.OBSERVERS)
    cells = []
    with installed(tracer, list(layers.public_functions()), layers.PACKAGE) as patched:
        # solve_lp is reached through the modules that import it
        hosts = {mod.__name__ for mod, attr, _ in patched if attr == "solve_lp"}
        assert {"cvarscale.cvar", "cvarscale.alsox", "cvarscale.exact",
                "cvarscale.scaling"} <= hosts
        harness.run_panel(workload, instance, 0, cells, tracer)
    after = {(mod.__name__, attr): value for mod, attr, value in module_attributes("cvarscale")}
    assert before.keys() == after.keys()
    assert all(after[key] is value for key, value in before.items())
    assert all(c.ok for c in cells), [c.reason for c in cells]
    names = {s.name for s in tracer.spans}
    assert {"cvar.solve_cvar", "conic.simplex.solve_lp", "conic.ipm.solve_socp",
            "exact.brute_force_optimal"} <= names
    assert {s.cell for s in tracer.spans} == {c.cell for c in cells}
    lp = [s for s in tracer.spans if s.name == "conic.simplex.solve_lp"]
    assert all(s.parent is not None and "pivots" in s.attrs for s in lp)


def test_layer_metrics_count_the_traced_work():
    workload = WORKLOADS["corpus-mixed"]
    tracer = Tracer(layers.OBSERVERS)
    with installed(tracer, list(layers.public_functions()), layers.PACKAGE):
        phase = harness.timed_phase(workload, [[mixed_instance(0)]], 60.0, tracer, n_units=1)
    wall = sum(c.seconds for c in phase.cells)
    m = layers.layer_metrics(tracer.spans, cell_seconds=wall, untraced_seconds=wall)
    socp = [s for s in tracer.spans if s.name == "conic.ipm.solve_socp"]
    assert m["conic.ipm.calls"] == (len(socp), "count")
    assert m["conic.ipm.iterations"][0] == sum(s.attrs["iterations"] for s in socp)
    assert 0.0 <= m["conic.ipm.limit_iter_frac"][0] <= 1.0
    assert m["trace.overhead_frac"] == (0.0, "ratio")
    assert 0.9 < m["trace.coverage_frac"][0] <= 1.0
