"""The three workloads: instance pools made from a seed, and the method panels.

Every pool is built with the package's own generators.  ``--seed 0`` gives
the acceptance-suite corpus (seeds 0, 1, ...) and the criterion-7 seeds
(1, 2, ...); seed ``k`` shifts every generator seed by ``k * SEED_STRIDE``, so
two benchmark seeds never share an instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from cvarscale import Tolerances, bench, cvar

SEED_STRIDE = 1000

# Pool sizes, in units.  A run that gets through its pool starts it again.
# On 2 CPUs a corpus instance takes about 0.65 s, a lp-large pair 2 s and a
# trend-mid seed (both risk levels) 1.6 s.  The sizes are chosen so that a
# 30 s run holds 15-45 units: with one 15-19 s unit per run (N=400 and N=200)
# the figures followed the seed (see NOTES.md).
CORPUS_POOL = 200
LP_POOL = 40
TREND_POOL = 40
LP_PORTFOLIO_N = 200
LP_COVERING_N = 60
TREND_N = 50

TREND_EPSILONS = (0.100333, 0.300333)


@dataclass(frozen=True)
class Workload:
    name: str
    methods: tuple[str, ...]
    tol: Tolerances
    exact_check: bool                               # compare every value with exact v*
    make_units: Callable[[int], list[list]]         # seed -> units of instances


def mixed_instance(index: int, seed: int | None = None):
    """The acceptance-suite corpus generator: portfolio and covering alternate.

    The shape (family, n, N, J, eps) is drawn from ``index`` as in the
    acceptance suite; the scenario data and costs from ``seed`` (default
    ``index``, which reproduces the acceptance corpus).
    """
    fam = "portfolio" if index % 2 == 0 else "covering"
    r = np.random.default_rng(index ^ 0xABCD)
    cfg = bench.GeneratorConfig(
        family=fam,
        n=int(r.integers(2, 9)),
        N=int(r.integers(8, 13)),
        J=1 if fam == "portfolio" else int(r.integers(1, 4)),
        epsilon=float(r.choice([0.200333, 0.300333])),
        seed=index if seed is None else seed,
        budget_fraction=0.6,
        cost_range=(-5, 10) if fam == "covering" else (1, 100),
    )
    return bench.generate(cfg)


CORPUS_TOL = Tolerances(delta2=0.0, max_iter=10)
SHORT_TOL = Tolerances(max_iter=4)


def corpus_units(seed: int) -> list[list]:
    """Acceptance-corpus instances whose plain CVaR approximation is feasible.

    Every seed walks the acceptance corpus's sequence of shapes and re-draws
    only the data, so runs on different seeds time like-shaped instances.
    """
    units = []
    index = 0
    while len(units) < CORPUS_POOL:
        inst = mixed_instance(index, seed * SEED_STRIDE + index)
        index += 1
        if cvar.solve_cvar(inst, CORPUS_TOL).optimal:
            units.append([inst])
    return units


def lp_units(seed: int) -> list[list]:
    out = []
    for k in range(1, LP_POOL + 1):
        s = seed * SEED_STRIDE + k
        out.append([
            bench.generate(bench.GeneratorConfig(
                family="portfolio", n=20, N=LP_PORTFOLIO_N, epsilon=0.100333, seed=s)),
            bench.generate(bench.GeneratorConfig(
                family="covering", n=20, N=LP_COVERING_N, J=3, epsilon=0.100333, seed=s)),
        ])
    return out


def trend_units(seed: int) -> list[list]:
    return [
        [bench.generate(bench.GeneratorConfig(family="portfolio", n=20, N=TREND_N, epsilon=eps,
                                              seed=seed * SEED_STRIDE + k))
         for eps in TREND_EPSILONS]
        for k in range(1, TREND_POOL + 1)
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="corpus-mixed",
            methods=("cvar", "alg1", "alg2", "alg3", "alsox", "alsox-scaled", "exact"),
            tol=CORPUS_TOL,
            exact_check=True,
            make_units=corpus_units,
        ),
        Workload(
            name="lp-large",
            methods=("cvar", "alg1", "alsox"),
            tol=SHORT_TOL,
            exact_check=False,
            make_units=lp_units,
        ),
        Workload(
            name="trend-mid",
            methods=("cvar", "alg1", "alg2", "alg3", "alsox", "alsox-scaled"),
            tol=SHORT_TOL,
            exact_check=False,
            make_units=trend_units,
        ),
    )
}
