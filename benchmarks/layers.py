"""Which package functions are traced, the counts read at their boundaries,
and the per-layer metrics computed from the spans.

The layers are package modules.  ``cli`` is left out: it only adds argument
parsing and JSON around the same entry points.
"""

from __future__ import annotations

import importlib
import inspect

import numpy as np

from spans import self_times

PACKAGE = "cvarscale"
LAYERS = ("model", "conic.simplex", "conic.ipm", "cvar", "scaling", "sca", "alsox", "exact",
          "bench")


def public_functions():
    """(function, "layer.name") for every public function defined in a layer module."""
    for layer in LAYERS:
        mod = importlib.import_module(f"{PACKAGE}.{layer}")
        for name, value in vars(mod).items():
            if not name.startswith("_") and inspect.isfunction(value) \
                    and value.__module__ == mod.__name__:
                yield value, f"{layer}.{name}"


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _tableau_mb(spec) -> float:
    """Size of the simplex tableau, computed from the spec shape as the solver builds it."""
    lb, ub = spec.lb, spec.ub
    fin_lb, fin_ub = np.isfinite(lb), np.isfinite(ub)
    nw = int(np.sum(np.where(fin_lb | fin_ub, 1, 2)))
    shift = np.where(fin_lb, lb, np.where(fin_ub, ub, 0.0))
    m = spec.A.shape[0] + int(np.sum(fin_lb & fin_ub))
    n_art = int(np.sum(spec.b - spec.A @ shift < 0))
    return (m + 2) * (nw + m + n_art + 1) * 8 / 2**20


def _observe_lp(args, kwargs, res):
    spec = _arg(args, kwargs, 0, "spec")
    return {"pivots": res.iterations, "status": res.status.value,
            "rows": spec.A.shape[0], "tableau_mb": _tableau_mb(spec)}


def _observe_socp(args, kwargs, res):
    spec = _arg(args, kwargs, 0, "spec")
    return {"iterations": res.iterations, "status": res.status.value, "cones": len(spec.cones)}


def _observe_trace(args, kwargs, trace):
    return {"iterations": trace.records[-1].k, "termination": trace.termination.value}


def _observe_bisection(args, kwargs, report):
    return {"steps": len(report.steps), "feasible": sum(s.feasible for s in report.steps),
            "rescued": sum(s.rescued for s in report.steps)}


def _observe_exact(args, kwargs, res):
    return {"subproblems": res.subproblems_solved}


OBSERVERS = {
    "conic.simplex.solve_lp": _observe_lp,
    "conic.ipm.solve_socp": _observe_socp,
    "scaling.scaling_heuristic": _observe_trace,
    "sca.sequential_convex": _observe_trace,
    "sca.hybrid_refine": _observe_trace,
    "alsox.alsox_sharp": _observe_bisection,
    "alsox.alsox_sharp_scaled": _observe_bisection,
    "exact.brute_force_optimal": _observe_exact,
}

UNITS = {"calls": "count", "iterations": "count", "pivots": "count", "subproblems": "count",
         "iter_limit": "count", "failed": "count", "cones_max": "count", "rows_max": "count",
         "tableau_mb_max": "MB", "s": "s"}


def _unit(name: str) -> str:
    last = name.rsplit(".", 1)[1]
    if last in UNITS:
        return UNITS[last]
    return "s" if last.endswith("_s") or last.startswith("s_per") else "ratio"


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def layer_metrics(spans, cell_seconds: float, untraced_seconds: float) -> dict:
    """name -> value for the per-layer metrics of the spans recorded inside cells."""
    selfs = self_times(spans)
    in_cells = [(s, t) for s, t in zip(spans, selfs) if s.cell is not None]

    def of(name):
        return [(s, t) for s, t in in_cells if s.name == name]

    def layer_self(layer):
        return sum(t for s, t in in_cells if s.name.rsplit(".", 1)[0] == layer)

    def fn_self(name):
        return sum(t for _, t in of(name))

    m: dict[str, float] = {}

    socp = [s.attrs for s, _ in of("conic.ipm.solve_socp") if "status" in s.attrs]
    iters = sum(a["iterations"] for a in socp)
    capped = [a for a in socp if a["status"] == "iteration-limit"]
    m["conic.ipm.calls"] = len(of("conic.ipm.solve_socp"))
    m["conic.ipm.iterations"] = iters
    m["conic.ipm.self_s"] = layer_self("conic.ipm")
    m["conic.ipm.s_per_iter"] = _ratio(m["conic.ipm.self_s"], iters)
    m["conic.ipm.cones_max"] = max((a["cones"] for a in socp), default=0)
    m["conic.ipm.iter_limit"] = len(capped)
    m["conic.ipm.iter_limit_frac"] = _ratio(len(capped), len(socp))
    m["conic.ipm.limit_iter_frac"] = _ratio(sum(a["iterations"] for a in capped), iters)

    lp_spans = of("conic.simplex.solve_lp")
    lp = [s.attrs for s, _ in lp_spans if "status" in s.attrs]
    pivots = sum(a["pivots"] for a in lp)
    m["conic.simplex.calls"] = len(lp_spans)
    m["conic.simplex.pivots"] = pivots
    m["conic.simplex.self_s"] = layer_self("conic.simplex")
    m["conic.simplex.s_per_pivot"] = _ratio(m["conic.simplex.self_s"], pivots)
    m["conic.simplex.rows_max"] = max((a["rows"] for a in lp), default=0)
    m["conic.simplex.tableau_mb_max"] = max((a["tableau_mb"] for a in lp), default=0.0)
    m["conic.simplex.failed"] = sum(a["status"] in ("iteration-limit", "numerical-error")
                                    for a in lp) + len(lp_spans) - len(lp)

    m["cvar.solve_scaled_cvar.calls"] = len(of("cvar.solve_scaled_cvar"))
    m["cvar.solve_scaled_cvar.self_s"] = fn_self("cvar.solve_scaled_cvar")
    m["cvar.build_scaled_cvar_lp.self_s"] = fn_self("cvar.build_scaled_cvar_lp")
    m["cvar.self_s"] = layer_self("cvar")

    bis = [s.attrs for s, _ in of("alsox.alsox_sharp") + of("alsox.alsox_sharp_scaled")
           if "steps" in s.attrs]
    steps = sum(a["steps"] for a in bis)
    m["alsox.lower_level.calls"] = len(of("alsox.lower_level"))
    m["alsox.lower_level.self_s"] = fn_self("alsox.lower_level")
    m["alsox.self_s"] = layer_self("alsox")
    m["alsox.feasible_frac"] = _ratio(sum(a["feasible"] for a in bis), steps)
    m["alsox.rescued_frac"] = _ratio(sum(a["rescued"] for a in bis), steps)

    heur = [s.attrs for s, _ in of("scaling.scaling_heuristic") if "termination" in s.attrs]
    m["scaling.scaling_heuristic.calls"] = len(of("scaling.scaling_heuristic"))
    m["scaling.iterations"] = sum(a["iterations"] for a in heur)
    m["scaling.self_s"] = layer_self("scaling")
    m["scaling.max_iter_frac"] = _ratio(sum(a["termination"] == "max-iter" for a in heur),
                                        len(heur))

    loops = [s.attrs for s, _ in of("sca.sequential_convex") + of("sca.hybrid_refine")
             if "termination" in s.attrs]
    m["sca.build_dc_subproblem.calls"] = len(of("sca.build_dc_subproblem"))
    m["sca.build_dc_subproblem.self_s"] = fn_self("sca.build_dc_subproblem")
    m["sca.point_feasible_in_subproblem.self_s"] = fn_self("sca.point_feasible_in_subproblem")
    m["sca.self_s"] = layer_self("sca")
    m["sca.max_iter_frac"] = _ratio(sum(a["termination"] == "max-iter" for a in loops),
                                    len(loops))

    m["exact.subproblems"] = sum(s.attrs.get("subproblems", 0)
                                 for s, _ in of("exact.brute_force_optimal"))
    m["exact.self_s"] = layer_self("exact")

    m["model.g_max_all.calls"] = len(of("model.g_max_all"))
    m["model.g_max_all.self_s"] = fn_self("model.g_max_all")
    m["model.chance_feasible.calls"] = len(of("model.chance_feasible"))
    m["model.chance_feasible.self_s"] = fn_self("model.chance_feasible")
    m["model.self_s"] = layer_self("model")

    m["bench.generate.s"] = sum(s.seconds for s in spans
                                if s.cell is None and s.parent is None
                                and s.name == "bench.generate")
    m["trace.overhead_frac"] = _ratio(cell_seconds - untraced_seconds, untraced_seconds)
    m["trace.coverage_frac"] = _ratio(sum(t for _, t in in_cells), cell_seconds)
    return {name: (float(v), _unit(name)) for name, v in m.items()}
