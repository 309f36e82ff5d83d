"""cvarscale benchmark: one workload, one process, one caller.

    python3 benchmarks/run.py --workload corpus-mixed --seed 0 --seconds 30 --trace 0

Run from the repository root.  The package is imported from ``src/`` of the
checkout this script sits in.  The run sets up the workload's instance pool
several times (reporting the median), then runs method panels in a closed
loop for about ``--seconds`` seconds, checking every output.  With
``--trace 1`` the same units are then replayed with every public function of
the package's layers wrapped in spans, and the per-layer metrics are
reported instead of the end-to-end ones.  The last line of standard output is
one JSON object; a full record is written to ``benchmarks/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

SETUP_REPEATS = 3
END_TO_END = ("setup_s", "instances_per_s", "cvar.s_p50", "peak_rss_mb")
# figures of the untraced run that a traced run reports with the layer metrics
UNTRACED_PER_LAYER = ("alg1.s_p50", "alg2.s_p50", "alg3.s_p50", "alsox.s_p50",
                      "alsox-scaled.s_p50", "exact.s_p50", "improvement_pct_mean", "failed_frac")
# a closed loop with one caller: one BLAS thread keeps the timings steady on
# a shared machine, and was faster than two on the 2-CPU development box
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0,
                   help="shifts every instance seed; 0 gives the acceptance-suite seeds")
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not args.seconds > 0:
        p.error("--seconds must be > 0")
    return args


def git_commit(root: Path) -> str:
    """HEAD of the checkout read from .git without starting a process."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "git_commit": git_commit(ROOT),
        "peak_rss_method": "resource.getrusage(RUSAGE_SELF).ru_maxrss (KiB on Linux) / 1024",
        "platform": platform.platform(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def traced_replay(workload, seed: int, units, phase, seconds: float):
    """Replay the untraced run's units with every layer's public functions wrapped."""
    import harness
    import layers
    from spans import Tracer, installed

    tracer = Tracer(layers.OBSERVERS)
    with installed(tracer, list(layers.public_functions()), layers.PACKAGE):
        harness.set_up(workload, seed)
        traced = harness.timed_phase(workload, units, seconds, tracer, n_units=phase.units)
    metrics = layers.layer_metrics(
        tracer.spans,
        cell_seconds=sum(c.seconds for c in traced.cells),
        untraced_seconds=sum(c.seconds for c in phase.cells),
    )
    return traced, tracer.spans, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cvarscale" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import cvarscale
    if Path(cvarscale.__file__).resolve().parent != SRC / "cvarscale":
        print(f"error: cvarscale imported from {cvarscale.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import harness
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    env = environment()

    setups = [harness.set_up(workload, args.seed) for _ in range(SETUP_REPEATS)]
    setup_runs = [s.total_s for s in setups]
    setup_s = statistics.median(setup_runs)
    last = setups[-1]
    del setups

    phase = harness.timed_phase(workload, last.units, args.seconds)
    e2e = harness.end_to_end(workload, phase, setup_s, peak_rss_mb())
    cells = list(phase.cells)
    record = {
        "workload": workload.name, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "env": env,
        "setup": {"runs_s": setup_runs, "median_s": setup_s,
                  "last": {"generate_s": last.generate_s, "roundtrip_s": last.roundtrip_s,
                           "warmup_s": last.warmup_s}},
        "end_to_end": {k: list(v) for k, v in e2e.items()},
    }
    if args.trace:
        traced, spans, metrics = traced_replay(workload, args.seed, last.units, phase,
                                               args.seconds)
        metrics.update({name: e2e[name][:2] for name in UNTRACED_PER_LAYER})
        cells += traced.cells
        record["per_layer"] = {k: list(v) for k, v in metrics.items()}
        record["spans"] = [[s.name, s.start, s.end, s.parent, s.cell, s.attrs] for s in spans]
    else:
        metrics = {name: e2e[name][:2] for name in END_TO_END}

    failures = [c for c in cells if not c.ok]
    record["cells"] = [[c.cell, c.unit, c.instance, c.eps, c.method, c.seconds,
                        None if c.value != c.value else float(c.value), c.improvement_pct,
                        c.reason] for c in cells]
    record["failures"] = [{"instance": c.instance, "eps": c.eps, "method": c.method,
                           "reason": c.reason} for c in failures]
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record))

    print(f"# workload {workload.name}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print(f"# env {json.dumps(env)}")
    print(f"# {phase.units} units, {len(phase.cells)} cells in {phase.seconds:.2f} CPU s; "
          f"record {out.relative_to(ROOT)}")
    for name, (value, unit, note) in e2e.items():
        print(f"{name:40s} {value:14.6g} {unit:6s} {note}")
    if args.trace:
        for name, (value, unit) in metrics.items():
            if name not in e2e:
                print(f"{name:40s} {value:14.6g} {unit}")
    for c in failures:
        print(f"FAILED {c.instance} eps={c.eps} {c.method}: {c.reason}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(cells),
        "failed": len(failures),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
