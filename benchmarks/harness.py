"""Set-up, the closed timed loop over method panels, and the end-to-end metrics.

One caller runs one cell (instance, method) at a time.  Package functions are
looked up on their modules at call time, so a traced run sees the wrappers.
"""

from __future__ import annotations

import itertools
import json
import statistics
import time
from dataclasses import dataclass

import numpy as np

from cvarscale import alsox, conic, cvar, exact, model, sca, scaling

from checks import CVAR_MARGIN, arrays_of, check_cell

METHODS = ("cvar", "alg1", "alg2", "alg3", "alsox", "alsox-scaled", "exact")
BASELINE = "cvar"
ORACLE = "exact"
FROM_CVAR = ("alg1", "alg2", "alg3")


@dataclass
class Cell:
    cell: int
    unit: int
    instance: str
    eps: float
    method: str
    seconds: float
    value: float = float("nan")
    x: np.ndarray | None = None
    reason: str | None = None        # None while the cell is sound
    improvement_pct: float | None = None

    @property
    def ok(self) -> bool:
        return self.reason is None


@dataclass
class Setup:
    units: list[list]
    generate_s: float
    roundtrip_s: float
    warmup_s: float

    @property
    def total_s(self) -> float:
        return self.generate_s + self.roundtrip_s + self.warmup_s


def _roundtrip(instance):
    text = json.dumps(model.instance_to_dict(instance))
    return model.instance_from_dict(json.loads(text))


def _warm_up() -> None:
    """One small solve per embedded solver."""
    lp = conic.LinearProgramSpec(c=[1.0, 2.0], A=[[-1.0, -1.0]], b=[-1.0],
                                 lb=[0.0, 0.0], ub=[np.inf, np.inf])
    socp = conic.SocpSpec(c=[1.0, 1.0], A=np.zeros((0, 2)), b=[],
                          cones=(conic.SocCone(F=np.eye(2), f=[0.0, 0.0], g=[0.0, 0.0], h=1.0),),
                          lb=[-2.0, -2.0], ub=[2.0, 2.0])
    for res in (conic.solve_lp(lp), conic.solve_socp(socp)):
        if not res.optimal:
            raise RuntimeError(f"warm-up solve ended with status {res.status.value}")


def set_up(workload, seed: int) -> Setup:
    t0 = time.perf_counter()
    raw = workload.make_units(seed)
    t1 = time.perf_counter()
    units = [[_roundtrip(inst) for inst in unit] for unit in raw]
    t2 = time.perf_counter()
    _warm_up()
    t3 = time.perf_counter()
    return Setup(units=units, generate_s=t1 - t0, roundtrip_s=t2 - t1, warmup_s=t3 - t2)


def _incumbent(trace):
    inc = trace.incumbent
    return inc.objective, inc.x


def _solve(method: str, instance, tol, start_x):
    """(value, x) of one method; mirrors the package's benchmark harness."""
    if method == "alg1":
        return _incumbent(scaling.scaling_heuristic(instance, start_x, tol))
    if method == "alg2":
        return _incumbent(sca.sequential_convex(instance, start_x, tol))
    if method == "alg3":
        return _incumbent(sca.hybrid_refine(instance, start_x, tol))
    if method == "alsox":
        rep = alsox.alsox_sharp(instance, tol=tol)
        return rep.objective, rep.x
    if method == "alsox-scaled":
        rep = alsox.alsox_sharp_scaled(instance, tol=tol)
        return rep.objective, rep.x
    if method == ORACLE:
        res = exact.brute_force_optimal(instance, tol=tol)
        return res.v_star, res.x_star
    raise ValueError(f"unknown method {method!r}")


def run_panel(workload, instance, unit: int, cells: list, tracer=None) -> None:
    """Run every method of the panel on one instance, then check every output."""
    tol = workload.tol
    panel = []
    for method in workload.methods:
        cell = Cell(cell=len(cells), unit=unit, instance=instance.name,
                    eps=float(instance.epsilon), method=method, seconds=0.0)
        cells.append(cell)
        panel.append(cell)
        if tracer is not None:
            tracer.cell = cell.cell
        t0 = time.process_time()
        try:
            if method == BASELINE:
                sol = cvar.solve_cvar(instance, tol)
                if not sol.optimal:
                    cell.reason = f"status: plain CVaR ended with {sol.status.value}"
                cell.value, cell.x = sol.objective, sol.x
            elif method in FROM_CVAR and not panel[0].ok:
                cell.reason = "no_start: the plain CVaR cell failed"
            else:
                cell.value, cell.x = _solve(method, instance, tol, panel[0].x)
        except Exception as exc:  # the loop records the failure and goes on
            cell.reason = f"{type(exc).__name__}: {exc}"
        cell.seconds = time.process_time() - t0
        if tracer is not None:
            tracer.cell = None
    _check_panel(workload, instance, panel)


def _check_panel(workload, instance, panel) -> None:
    arrays = arrays_of(instance)
    base = panel[0]
    oracle = next((c for c in panel if c.method == ORACLE and c.ok), None)
    for cell in panel:
        if not cell.ok:
            continue
        if not base.ok:
            cell.reason = "no_baseline: the plain CVaR cell failed"
            continue
        margin = CVAR_MARGIN
        if cell.method.startswith("alsox"):
            margin += workload.tol.delta_A
        v_star = None
        if workload.exact_check and oracle is not None and cell is not oracle:
            v_star = oracle.value
        cell.reason = check_cell(arrays, cell.x, float(cell.value), float(base.value),
                                 cvar_margin=margin, v_star=v_star,
                                 feas_tol=workload.tol.feas_tol)
        if cell.ok and cell.method not in (BASELINE, ORACLE) and abs(base.value) > 1e-12:
            cell.improvement_pct = (base.value - cell.value) / abs(base.value) * 100.0


@dataclass
class Phase:
    cells: list
    units: int
    seconds: float


def timed_phase(workload, units, seconds: float, tracer=None, n_units: int | None = None) -> Phase:
    """Closed loop over the pool's units, wrapping around when the pool runs out.

    With ``n_units`` unset the loop stops before a unit that is not expected
    to finish within ``seconds`` (always running at least one); otherwise it
    runs exactly the first ``n_units`` units.
    """
    cells: list[Cell] = []
    done = 0
    t_start = time.process_time()
    for k in itertools.count():
        elapsed = time.process_time() - t_start
        if n_units is None:
            if done and elapsed + elapsed / done > seconds:
                break
        elif done == n_units:
            break
        for instance in units[k % len(units)]:
            run_panel(workload, instance, k, cells, tracer)
        done += 1
    return Phase(cells=cells, units=done, seconds=time.process_time() - t_start)


def latency_p50(cells, method: str) -> tuple[float, int]:
    """Median over units of the method's mean cell time in the unit."""
    per_unit: dict[int, list[float]] = {}
    for c in cells:
        if c.method == method and c.ok:
            per_unit.setdefault(c.unit, []).append(c.seconds)
    means = [sum(v) / len(v) for v in per_unit.values()]
    return (statistics.median(means) if means else 0.0), len(means)


def end_to_end(workload, phase: Phase, setup_s: float, peak_rss_mb: float) -> dict:
    """name -> (value, unit, note) for the untraced phase."""
    by_instance: dict[tuple, bool] = {}
    for c in phase.cells:
        key = (c.unit, c.instance, c.eps)   # trend-mid units hold one name at two eps
        by_instance[key] = by_instance.get(key, True) and c.ok
    done = sum(by_instance.values())
    imps = [c.improvement_pct for c in phase.cells if c.improvement_pct is not None]
    out = {
        "setup_s": (setup_s, "s", "median of the set-ups in this run"),
        "instances_per_s": (done / phase.seconds, "1/s",
                            f"{done} of {len(by_instance)} instances in {phase.seconds:.2f} CPU s"),
    }
    for method in METHODS:
        p50, n = latency_p50(phase.cells, method)
        note = f"median of n={n} units" if method in workload.methods else "not run here"
        out[f"{method}.s_p50"] = (p50, "s", note)
    out["improvement_pct_mean"] = (float(np.mean(imps)) if imps else 0.0, "%",
                                   f"mean over n={len(imps)} cells")
    out["peak_rss_mb"] = (peak_rss_mb, "MB", "getrusage ru_maxrss, MiB")
    failed = sum(not c.ok for c in phase.cells)
    out["failed_frac"] = (failed / max(len(phase.cells), 1), "ratio",
                          f"{failed} of {len(phase.cells)} cells")
    return out
