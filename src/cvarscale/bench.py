"""Instance generators and the benchmark harness.

Two synthetic families are provided.  The portfolio family puts a single
"return at least one" row per scenario with coefficients uniform in
[0.8, 1.2], a box domain, an investment budget of a fifth of the dimension,
and integer costs; the covering family draws nonnegative demand rows with
positive offsets so row normalization applies.  Both are deterministic in a
64-bit seed via numpy's PCG64 generator.

The harness runs a set of methods over a set of instances, always solving the
plain CVaR approximation first as the baseline, and reports one row per
(instance, method) cell with the improvement percentage

    (baseline value - method value) / |baseline value| * 100.
"""

from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .alsox import alsox_sharp, alsox_sharp_scaled
from .cvar import solve_cvar
from .errors import ConfigError, CvarScaleError, DegenerateBaseline
from .exact import brute_force_optimal
from .model import CcpInstance, Domain, Scenario, Tolerances, violation_probability, chance_feasible
from .sca import hybrid_refine, sequential_convex
from .scaling import scaling_heuristic

__all__ = [
    "GeneratorConfig",
    "BenchRow",
    "generate_portfolio",
    "generate_covering",
    "generate",
    "improvement",
    "run_experiment",
    "write_report",
    "REPORT_HEADER",
    "METHODS",
]

REPORT_HEADER = "instance,eps,method,value,time_s,improvement_pct,feasible,violation_prob"

# row coefficients of both families, and the covering rows' offsets
_COEFF_RANGE = (0.8, 1.2)
_DEMAND_RANGE = (0.5, 1.5)


@dataclass(frozen=True)
class GeneratorConfig:
    family: str  # "portfolio" | "covering"
    n: int
    N: int
    J: int = 1
    epsilon: float = 0.100333
    seed: int = 0
    budget_fraction: float = 0.2      # portfolio: sum(x) <= fraction * n
    cost_range: tuple[int, int] = (1, 100)    # integer costs, inclusive

    def __post_init__(self):
        if self.family not in ("portfolio", "covering"):
            raise ConfigError(f"unknown family {self.family!r}")
        if min(self.n, self.N, self.J) < 1:
            raise ConfigError("n, N, J must all be >= 1")
        if not 0 < self.epsilon < 1:
            raise ConfigError("epsilon must lie in (0, 1)")


def generate_portfolio(config: GeneratorConfig) -> CcpInstance:
    """Single-row scenarios  1 - xi.x <= 0  with xi ~ U[0.8, 1.2]^n."""
    if config.family != "portfolio":
        raise ConfigError("config.family must be 'portfolio'")
    rng = np.random.default_rng(config.seed)
    xi = rng.uniform(*_COEFF_RANGE, size=(config.N, config.n))
    c = rng.integers(config.cost_range[0], config.cost_range[1] + 1, size=config.n)
    scenarios = tuple(
        Scenario(W=-xi[i][None, :], d=np.ones(1), p=1.0 / config.N) for i in range(config.N)
    )
    domain = Domain(
        lb=np.zeros(config.n),
        ub=np.ones(config.n),
        P=np.ones((1, config.n)),
        q=np.array([config.budget_fraction * config.n]),
    )
    name = f"portfolio-n{config.n}-N{config.N}-s{config.seed}"
    return CcpInstance(c=c.astype(float), scenarios=scenarios, epsilon=config.epsilon,
                       domain=domain, name=name)


def generate_covering(config: GeneratorConfig) -> CcpInstance:
    """J covering rows per scenario:  b - A.x <= 0  with A >= 0, b > 0."""
    if config.family != "covering":
        raise ConfigError("config.family must be 'covering'")
    rng = np.random.default_rng(config.seed)
    scenarios = []
    for _ in range(config.N):
        A = rng.uniform(*_COEFF_RANGE, size=(config.J, config.n))
        b = rng.uniform(*_DEMAND_RANGE, size=config.J)
        scenarios.append(Scenario(W=-A, d=b, p=1.0 / config.N))
    c = rng.integers(config.cost_range[0], config.cost_range[1] + 1, size=config.n)
    domain = Domain(lb=np.zeros(config.n), ub=np.ones(config.n))
    name = f"covering-n{config.n}-N{config.N}-J{config.J}-s{config.seed}"
    return CcpInstance(c=c.astype(float), scenarios=tuple(scenarios), epsilon=config.epsilon,
                       domain=domain, name=name)


def generate(config: GeneratorConfig) -> CcpInstance:
    if config.family == "portfolio":
        return generate_portfolio(config)
    return generate_covering(config)


def improvement(v_cvar: float, v_method: float) -> float:
    """Percentage improvement of a method value over the CVaR baseline."""
    if not np.isfinite(v_cvar) or abs(v_cvar) <= 1e-12:
        raise DegenerateBaseline(f"baseline value {v_cvar!r} cannot normalize improvements")
    return (v_cvar - v_method) / abs(v_cvar) * 100.0


@dataclass(frozen=True)
class BenchRow:
    instance: str
    eps: float
    method: str
    value: float
    time_s: float
    improvement_pct: float
    feasible: bool
    violation_prob: float
    error: str = ""


def _run_method(instance: CcpInstance, method: str, tol: Tolerances, cvar_solution):
    """Return (value, x) for one method; exceptions bubble to the harness."""
    if method == "cvar":
        if not cvar_solution.optimal:
            raise CvarScaleError("plain CVaR approximation is infeasible")
        return cvar_solution.objective, cvar_solution.x
    if method == "exact":
        res = brute_force_optimal(instance, tol=tol)
        return res.v_star, res.x_star
    if method == "alsox":
        rep = alsox_sharp(instance, tol=tol)
        return rep.objective, rep.x
    if method == "alsox-scaled":
        rep = alsox_sharp_scaled(instance, tol=tol)
        return rep.objective, rep.x
    if not cvar_solution.optimal:
        raise CvarScaleError("plain CVaR approximation is infeasible; no default start")
    x0 = cvar_solution.x
    if method == "alg1":
        trace = scaling_heuristic(instance, x0, tol)
    elif method == "alg2":
        trace = sequential_convex(instance, x0, tol)
    elif method == "alg3":
        trace = hybrid_refine(instance, x0, tol)
    else:
        raise ConfigError(f"unknown method {method!r}")
    inc = trace.incumbent
    return inc.objective, inc.x


METHODS = ("cvar", "alg1", "alg2", "alg3", "alsox", "alsox-scaled", "exact")


def run_experiment(
    instances,
    methods,
    tol: Tolerances | None = None,
) -> list[BenchRow]:
    """One row per instance x method; failures are recorded, never raised."""
    tol = tol or Tolerances()
    rows: list[BenchRow] = []
    for instance in instances:
        t0 = time.perf_counter()
        cvar_solution = solve_cvar(instance, tol)
        cvar_time = time.perf_counter() - t0
        baseline = cvar_solution.objective if cvar_solution.optimal else np.nan
        for method in methods:
            if method == "cvar":
                value, x, elapsed, err = baseline, cvar_solution.x, cvar_time, ""
                if not cvar_solution.optimal:
                    err = "infeasible"
            else:
                t0 = time.perf_counter()
                try:
                    value, x = _run_method(instance, method, tol, cvar_solution)
                    err = ""
                except CvarScaleError as exc:
                    value, x, err = np.nan, None, f"{type(exc).__name__}: {exc}"
                elapsed = time.perf_counter() - t0
            try:
                imp = improvement(baseline, value) if not np.isnan(value) else np.nan
            except DegenerateBaseline:
                imp = np.nan
            rows.append(
                BenchRow(
                    instance=instance.name,
                    eps=instance.epsilon,
                    method=method,
                    value=float(value),
                    time_s=float(elapsed),
                    improvement_pct=float(imp),
                    feasible=bool(x is not None and chance_feasible(instance, x, tol.feas_tol)),
                    violation_prob=(
                        float(violation_probability(instance, x, tol.feas_tol))
                        if x is not None
                        else np.nan
                    ),
                    error=err,
                )
            )
    return rows


def write_report(rows, path: str | Path | None = None) -> str:
    """Comma-separated report, one line per cell; returns the text."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(REPORT_HEADER.split(","))
    for r in rows:
        writer.writerow(
            [
                r.instance,
                f"{r.eps:.6f}",
                r.method,
                "" if np.isnan(r.value) else repr(float(r.value)),
                f"{r.time_s:.4f}",
                "" if np.isnan(r.improvement_pct) else f"{r.improvement_pct:.6f}",
                str(bool(r.feasible)).lower(),
                "" if np.isnan(r.violation_prob) else f"{r.violation_prob:.9f}",
            ]
        )
    text = buf.getvalue()
    if path is not None:
        Path(path).write_text(text)
    return text
