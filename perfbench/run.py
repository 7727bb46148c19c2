"""Benchmark driver for crossinglab.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the library is imported from
``src/``.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

* ``--trace 0`` measures the end-to-end metrics for ``--seconds``: ``op_s``
  (median wall time of one operation of the workload, repeated closed-loop),
  ``setup_s`` (median of SETUP_REPEATS set-ups, each in a fresh interpreter,
  made between the operations so that they sample the same stretch of time)
  and ``peak_rss_mb`` of this process.
* ``--trace 1`` first repeats the untraced measurement (it gives the named
  timings such as ``scatter_s.h1e-4`` and the tracing overhead), then makes
  one set-up plus one full round of operations with spans wrapped around the
  library's public functions, and reports the per-layer metrics of that
  round.  The spans are written to ``.perfbench/``.

Every library output is checked (see workloads.py); a failed check or a
CrossingLabError counts in ``failed`` and makes ``correct`` false.  Any other
exception aborts the run with a non-zero exit code and no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 9      # set-up is short and noisy; its median needs many probes
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = {"setup_s": "s", "op_s": "s", "peak_rss_mb": "MB"}

# Per-layer metrics of one traced round, plus the named timings of the
# untraced half of a traced run (zero where a workload does not run them).
PER_LAYER = {
    "potential.eval_points": "count",
    "potential.eval_s": "s",
    "potential.deriv_points": "count",
    "potential.phase_integral_calls": "count",
    "potential.phase_integral_s": "s",
    "potential.turning_points_calls": "count",
    "potential.turning_points_s": "s",
    "potential.find_crossings_s": "s",
    "propagator.fundamental_matrix_s": "s",
    "propagator.fundamental_matrix_self_s": "s",
    "propagator.steps_final": "count",
    "propagator.steps_built": "count",
    "propagator.useful_step_ratio": "ratio",
    "propagator.refinements": "count",
    "propagator.error_over_tol": "ratio",
    "propagator.peak_alloc_mb": "MB",
    "quadrature.adaptive_mesh_calls": "count",
    "quadrature.adaptive_mesh_s": "s",
    "quadrature.integrate_smooth_calls": "count",
    "quadrature.integrate_smooth_s": "s",
    "quadrature.linear_phase_integral_s": "s",
    "scattering.jost_basis_s": "s",
    "scattering.tail_eval_points": "count",
    "scattering.unitarity_defect": "ratio",
    "msa.grid_build_s": "s",
    "msa.grid_points": "count",
    "msa.solution_s": "s",
    "msa.apply_K_calls": "count",
    "msa.apply_K_s": "s",
    "msa.spline_builds": "count",
    "msa.spline_s": "s",
    "predictor.interference_factor_calls": "count",
    "predictor.interference_factor_s": "s",
    "predictor.predict_nonadiabatic_s": "s",
    "predictor.predict_mixed_s": "s",
    "transfer.predicted_scattering_s": "s",
    "transfer.crossing_transfer_adiabatic_s": "s",
    "harness.run_sweep_s": "s",
    "harness.parallel_efficiency": "ratio",
    "harness.failed_rows": "count",
    "potential.self_s": "s",
    "quadrature.self_s": "s",
    "propagator.self_s": "s",
    "scattering.self_s": "s",
    "msa.self_s": "s",
    "predictor.self_s": "s",
    "transfer.self_s": "s",
    "harness.self_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_s": "s",
    "trace.overhead_frac": "ratio",
    "scatter_s.h1e-2": "s",
    "scatter_s.h1e-3": "s",
    "scatter_s.h1e-4": "s",
    "scatter_s.lz": "s",
    "msa_connection_s": "s",
    "izeros_s": "s",
    "predictions_per_s": "1/s",
    "sweep_rows_per_s": "1/s",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def measure(workload, tally, seconds: float, probe=None):
    """Repeat the workload's operation closed-loop for ``seconds``.

    ``probe()``, when given, is called between operations, as often as keeps
    SETUP_REPEATS calls spread evenly over the run, and topped up at its end.
    """
    op_times: list[float] = []
    samples: dict[str, list[float]] = {}
    probes = 0
    start = time.perf_counter()
    while len(op_times) < workload.min_ops or time.perf_counter() - start < seconds:
        before = tally.elapsed
        for name, vals in workload.op(tally).items():
            samples.setdefault(name, []).extend(vals)
        op_times.append(tally.elapsed - before)
        due = SETUP_REPEATS * min(1.0, (time.perf_counter() - start) / seconds) if seconds else 0
        while probe is not None and probes < due:
            probe()
            probes += 1
    while probe is not None and probes < SETUP_REPEATS:
        probe()
        probes += 1
    return op_times, samples


def setup_once(name: str, seed: int) -> float:
    """Seconds of one set-up in a fresh interpreter."""
    out = subprocess.run([sys.executable, str(HERE / "probe.py"), name, str(seed)],
                         check=True, capture_output=True, text=True, timeout=120)
    return float(out.stdout.strip().splitlines()[-1])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(cls, args, refs, tally):
    workload = cls(args.seed)
    workload.use_references(refs)
    workload.setup()
    setup_times: list[float] = []
    op_times, _ = measure(workload, tally, args.seconds,
                          probe=lambda: setup_times.append(setup_once(args.workload, args.seed)))
    print("op_times " + json.dumps(op_times))
    print("setup_times " + json.dumps(setup_times))
    return {"setup_s": statistics.median(setup_times), "op_s": statistics.median(op_times),
            "peak_rss_mb": peak_rss_mb()}


def run_traced(cls, args, refs, tally):
    import layers
    from spans import Recorder

    workload = cls(args.seed)
    workload.use_references(refs)
    workload.setup()
    _, samples = measure(workload, tally, args.seconds)
    metrics = {name: 0.0 for name in PER_LAYER}
    metrics.update(workload.named(samples))
    baseline, extra = workload.untraced_round(tally, samples)
    metrics.update(extra)

    traced = cls(args.seed, traced=True)
    traced.use_references(refs)
    rec = Recorder()
    layers.install(rec)
    try:
        start = time.perf_counter()
        traced.setup(on_models=lambda models: layers.instrument_models(rec, models))
        before = tally.elapsed
        traced.traced_round(tally)
        round_s = tally.elapsed - before
        wall = time.perf_counter() - start
    finally:
        layers.uninstall(rec)
    metrics.update(layers.layer_metrics(rec.spans, wall))
    metrics["trace.overhead_frac"] = round_s / baseline - 1.0

    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"spans-{args.workload}-seed{args.seed}.json", "w") as fh:
        json.dump(rec.to_json(), fh)
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "crossinglab" / "__init__.py").is_file():
        print(f"no crossinglab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import scipy

    from workloads import WORKLOADS, Tally, load_references

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    env = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "nproc": os.cpu_count(), "threads": 1,
           "python": platform.python_version(), "numpy": numpy.__version__,
           "scipy": scipy.__version__}
    print("env " + json.dumps(env))
    refs = load_references()
    tally = Tally()
    cls = WORKLOADS[args.workload]
    if args.trace:
        metrics, units = run_traced(cls, args, refs, tally), PER_LAYER
    else:
        metrics, units = run_untraced(cls, args, refs, tally), END_TO_END
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} do not match the "
                           "declared names")
    for problem in tally.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"metric {name} {value!r} {units[name]}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
