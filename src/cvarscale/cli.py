"""Command-line front end.

Subcommands: validate, solve, certify, sweep, generate, bench.  Exit codes:
0 on success / a feasible result, 1 when the requested problem is infeasible,
2 on input errors, 3 on solver failures.  ``bench`` records a failed cell in
its report with an empty value and writes the error to standard error.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import bench as bench_mod
from .alsox import alsox_sharp, alsox_sharp_scaled
from .cvar import solution_doc, solve_cvar, solve_scaled_cvar
from .errors import (
    ConfigError,
    CvarScaleError,
    DimensionMismatch,
    InfeasibleProblem,
    NoFeasibleIncumbent,
    ProbabilityError,
    RiskLevelError,
    ScalingOutOfRange,
    SolverFailure,
    ToleranceError,
    TooLarge,
)
from .exact import brute_force_optimal
from .model import (
    CcpInstance,
    ScalingVector,
    Tolerances,
    certificate_point,
    load_instance,
    save_instance,
    validate,
)
from .sca import hybrid_refine, sequential_convex
from .scaling import pin_alpha_mask, scaling_heuristic, scenario_cost_floors

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_INPUT = 2
EXIT_SOLVER = 3

_INPUT_ERRORS = (
    ConfigError,
    DimensionMismatch,
    ProbabilityError,
    RiskLevelError,
    ScalingOutOfRange,
    ToleranceError,
    TooLarge,
    FileNotFoundError,
    ValueError,
)


def _add_tolerance_flags(p: argparse.ArgumentParser, *names: str) -> None:
    """A flag per named ``Tolerances`` field (default: all), in field order;
    ``delta_A`` is ``--delta-a``.  ``_tolerances`` reads them back."""
    for f in fields(Tolerances):
        if not names or f.name in names:
            p.add_argument("--" + f.name.lower().replace("_", "-"), dest=f.name,
                           type=type(f.default), default=f.default)


def _tolerances(args) -> Tolerances:
    """Tolerances from the registered flags; the other fields keep defaults."""
    return Tolerances(**{f.name: getattr(args, f.name)
                         for f in fields(Tolerances) if hasattr(args, f.name)})


def _write(doc: dict, path: str | None) -> None:
    text = json.dumps(doc, indent=1)
    if path:
        Path(path).write_text(text)
    else:
        print(text)


def _load(path: str) -> CcpInstance:
    instance = load_instance(path)
    validate(instance)
    return instance


def cmd_validate(args) -> int:
    _load(args.instance)
    print(f"{args.instance}: ok")
    return EXIT_OK


def _initial_point(instance, args, tol) -> np.ndarray:
    if args.init_file:
        data = json.loads(Path(args.init_file).read_text())
        return np.asarray(data["x"] if isinstance(data, dict) else data, dtype=float)
    if args.init == "alsox":
        return alsox_sharp(instance, tol=tol).x
    sol = solve_cvar(instance, tol)
    if not sol.optimal:
        raise InfeasibleProblem(
            "plain CVaR start is infeasible; try --init alsox or --init-file"
        )
    return sol.x


def cmd_solve(args) -> int:
    instance = _load(args.instance)
    tol = _tolerances(args)
    doc: dict
    trace = None  # an object with save(path), for --trace-file

    if args.method == "cvar":
        sol = solve_cvar(instance, tol)
        if not sol.optimal:
            print("infeasible: the plain CVaR approximation has no feasible point",
                  file=sys.stderr)
            return EXIT_INFEASIBLE
        doc = sol.to_dict(instance, tol.feas_tol)
    elif args.method == "scaled":
        if not args.alpha_file:
            raise ConfigError("--method scaled requires --alpha-file")
        alpha = np.asarray(json.loads(Path(args.alpha_file).read_text()), dtype=float)
        sol = solve_scaled_cvar(instance, ScalingVector(alpha), tol)
        if not sol.optimal:
            print("infeasible at the supplied scaling factors", file=sys.stderr)
            return EXIT_INFEASIBLE
        doc = sol.to_dict(instance, tol.feas_tol)
    elif args.method == "exact":
        res = brute_force_optimal(instance, tol=tol)
        doc = solution_doc(res.v_star, res.x_star, [1.0] * instance.N, instance, tol.feas_tol)
        doc["satisfied_set"] = list(res.satisfied_set)
    elif args.method in ("alsox", "alsox-scaled"):
        run = alsox_sharp if args.method == "alsox" else alsox_sharp_scaled
        rep = run(instance, tol=tol)
        doc = solution_doc(rep.objective, rep.x, [1.0] * instance.N, instance, tol.feas_tol)
        doc["t_upper"] = rep.t_upper
        trace = rep
    else:  # alg1 / alg2 / alg3
        x0 = _initial_point(instance, args, tol)
        if args.method == "alg1":
            trace = scaling_heuristic(instance, x0, tol)
            if args.prune_eta:
                # pinning is judged against the unpinned run's incumbent, and
                # can keep the heuristic off its path to it: keep the better run
                floors = scenario_cost_floors(instance)
                fixed_mask = pin_alpha_mask(floors, trace.incumbent.objective, tol.feas_tol)
                pinned = scaling_heuristic(instance, x0, tol, fixed_mask=fixed_mask)
                if pinned.incumbent.objective <= trace.incumbent.objective:
                    trace = pinned
        elif args.method == "alg2":
            trace = sequential_convex(instance, x0, tol)
        else:
            trace = hybrid_refine(instance, x0, tol)
        inc = trace.incumbent
        # re-solving at the incumbent factors recovers the multiplier and
        # slacks and can only improve the value
        sol = solve_scaled_cvar(instance, ScalingVector(inc.alpha), tol)
        if sol.optimal and sol.objective <= inc.objective + 1e-9:
            doc = sol.to_dict(instance, tol.feas_tol)
        else:
            doc = solution_doc(inc.objective, inc.x, inc.alpha, instance, tol.feas_tol)

    if trace is not None and args.trace_file:
        trace.save(args.trace_file)
    _write(doc, args.output)
    return EXIT_OK


def cmd_certify(args) -> int:
    instance = _load(args.instance)
    point = certificate_point(instance, args.delta_bar)
    if point is None:
        print("no strict-feasibility certificate exists at this margin", file=sys.stderr)
        return EXIT_INFEASIBLE
    _write({"x": [float(v) for v in point], "delta_bar": args.delta_bar}, args.output)
    return EXIT_OK


def cmd_sweep(args) -> int:
    instance = _load(args.instance)
    tol = _tolerances(args)
    if not 1 <= args.scenario <= instance.N:
        raise ConfigError(f"--scenario must lie in 1..{instance.N}")
    grid = [float(v) for v in args.grid.split(",") if v.strip()]
    lines = ["alpha,objective"]
    for a in grid:
        alpha = np.ones(instance.N)
        alpha[args.scenario - 1] = a
        sol = solve_scaled_cvar(instance, ScalingVector(alpha), tol)
        value = "" if not sol.optimal else repr(float(sol.objective))
        lines.append(f"{a!r},{value}")
    text = "\n".join(lines) + "\n"
    if args.output:
        Path(args.output).write_text(text)
    else:
        print(text, end="")
    return EXIT_OK


def cmd_generate(args) -> int:
    config = bench_mod.GeneratorConfig(
        family=args.family,
        n=args.n,
        N=args.N,
        J=args.J,
        epsilon=args.eps,
        seed=args.seed,
        budget_fraction=args.budget_fraction,
    )
    instance = bench_mod.generate(config)
    validate(instance)
    save_instance(instance, args.out)
    print(f"wrote {args.out} ({instance.name})")
    return EXIT_OK


def cmd_bench(args) -> int:
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    for m in methods:
        if m not in bench_mod.METHODS:
            raise ConfigError(f"unknown method {m!r}; choose from {bench_mod.METHODS}")
    instances = []
    if args.instance:
        instances.append(_load(args.instance))
    else:
        seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
        eps_list = [float(e) for e in args.eps_list.split(",") if e.strip()]
        for eps in eps_list:
            for seed in seeds:
                config = bench_mod.GeneratorConfig(
                    family=args.family, n=args.n, N=args.N, J=args.J, epsilon=eps,
                    seed=seed, budget_fraction=args.budget_fraction,
                )
                instances.append(bench_mod.generate(config))
    tol = _tolerances(args)
    workers = min(args.jobs, len(instances))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_bench_cell, [(i, methods, tol) for i in instances]))
        rows = [row for chunk in chunks for row in chunk]
    else:
        rows = bench_mod.run_experiment(instances, methods, tol)
    for r in rows:
        if r.error:
            print(f"failed cell: instance {r.instance}, method {r.method}: {r.error}",
                  file=sys.stderr)
    text = bench_mod.write_report(rows, args.out)
    if not args.out:
        print(text, end="")
    else:
        print(f"wrote {args.out} ({len(rows)} rows)")
    return EXIT_OK


def _bench_cell(payload):
    instance, methods, tol = payload
    return bench_mod.run_experiment([instance], methods, tol)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cvarscale",
        description="Scenario-scaled CVaR approximations for chance-constrained programs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check an instance file")
    p.add_argument("instance")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("solve", help="solve an instance with one method")
    p.add_argument("instance")
    p.add_argument("--method", required=True,
                   choices=["cvar", "scaled", "alg1", "alg2", "alg3",
                            "alsox", "alsox-scaled", "exact"])
    p.add_argument("--alpha-file", help="JSON list of scaling factors (method=scaled)")
    p.add_argument("--init", choices=["cvar", "alsox"], default="cvar",
                   help="initial point source for alg1/alg2/alg3")
    p.add_argument("--init-file", help="JSON file with an explicit initial x")
    p.add_argument("--prune-eta", action="store_true",
                   help="alg1: rerun with the factors of scenarios whose cost floor exceeds "
                        "the incumbent pinned to one; keep the better run")
    p.add_argument("--output", "-o")
    p.add_argument("--trace-file")
    _add_tolerance_flags(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("certify", help="search for a strictly feasible point")
    p.add_argument("instance")
    p.add_argument("--delta-bar", type=float,
                   default=inspect.signature(certificate_point).parameters["delta_bar"].default)
    p.add_argument("--output", "-o")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("sweep", help="objective value along one scenario's factor")
    p.add_argument("instance")
    p.add_argument("--scenario", type=int, required=True, help="1-based scenario index")
    p.add_argument("--grid", required=True, help="comma-separated factors, e.g. 1,2,6,50")
    p.add_argument("--output", "-o")
    _add_tolerance_flags(p, "alpha_max")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("generate", help="write a synthetic instance file")
    p.add_argument("--family", choices=["portfolio", "covering"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--J", type=int, default=1)
    p.add_argument("--eps", type=float, default=0.100333)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget-fraction", type=float, default=0.2)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("bench", help="run methods over instances and report a CSV")
    p.add_argument("--instance", help="run on one instance file instead of generating")
    p.add_argument("--family", choices=["portfolio", "covering"], default="portfolio")
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--N", type=int, default=50)
    p.add_argument("--J", type=int, default=1)
    p.add_argument("--eps-list", default="0.100333")
    p.add_argument("--seeds", default="1")
    p.add_argument("--budget-fraction", type=float, default=0.2)
    p.add_argument("--methods", default="cvar,alg1")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out")
    _add_tolerance_flags(p)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _INPUT_ERRORS as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (InfeasibleProblem, NoFeasibleIncumbent) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (SolverFailure, CvarScaleError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
