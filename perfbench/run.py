"""dlgeom benchmark: one workload, one seed, one JSON line of metrics.

    python3 perfbench/run.py --workload offset-unit --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  With ``--trace 0`` the package runs untouched and the end-to-end
metrics are printed; their times are in reference seconds (see
``hostspeed.py``), and the raw wall-clock figures go to the result record.
With ``--trace 1`` one cycle of the workload runs untraced and then again
traced (every public layer function wrapped in an in-memory span, every spec
and profile closure counted), and the per-layer metrics are printed, in wall
seconds, including the tracing overhead.  Spans and a full result record
(environment, per-operation times and failures) go to ``.perfbench/`` in the
checkout.  The process pins itself to one CPU; ``cli`` children inherit it.

The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import os
import time

T_PROCESS = time.perf_counter()
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:  # pinned before numpy loads its BLAS
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

#: set-up is repeated this often per run and its median reported
SETUP_REPEATS = 15

END_TO_END = {
    "setup_s": "s",
    "samples_per_s": "1/s",
    "op_p50_s": "s",
    "peak_rss_mb": "MB",
    "passed_frac": "fraction",
}

_LAYER_TIMES = ("ruled.timelike_invariants", "ruled.darboux_frame",
                "ruled.arclength_reparametrize", "ruled.reconstruct_from_invariants",
                "mannheim.construct_offset", "numerics.integrate",
                "numerics.cumulative_integrate", "numerics.rk4_frame_step",
                "cli.main", "cli.load_surface_spec", "cli.load_profile")
_LAYER_CALLS = ("ruled.arclength_reparametrize", "numerics.integrate",
                "numerics.cumulative_integrate", "numerics.rk4_frame_step")
_LAYER_SELF = ("ruled.timelike_invariants", "ruled.darboux_frame", "mannheim.verify_offset")

PER_LAYER = {
    **{f"{name}.s": "s" for name in _LAYER_TIMES},
    **{f"{name}.self_s": "s" for name in _LAYER_SELF},
    **{f"{name}.calls": "count" for name in _LAYER_CALLS},
    **{f"curve.points.order{k}": "count" for k in range(tracing.MAX_ORDER + 1)},
    "curve.points.distinct_frac": "fraction",
    "cli.startup_s": "s",
    "cli.output_bytes": "bytes",
    wl.RESIDUAL_MAX: "1",
    wl.ROUNDTRIP_MAX: "1",
    "trace.untraced_op_p50_s": "s",
    "trace.overhead_s": "s",
}


class Run:
    """Outcomes of the operations of one benchmark run."""

    def __init__(self):
        self.labels: list[str] = []
        self.times: list[float] = []
        self.samples_ok = 0
        self.failures: list[str] = []
        self.incorrect = False
        self.residuals = {wl.RESIDUAL_MAX: 0.0, wl.ROUNDTRIP_MAX: 0.0}

    def run(self, op: wl.Op) -> float:
        seconds, failure, incorrect = wl.run_op(op)
        self.labels.append(op.label)
        self.times.append(seconds)
        if failure is None:
            self.samples_ok += op.samples
        else:
            self.failures.append(failure)
            self.incorrect |= incorrect
        if op.residual is not None:
            self.residuals[op.residual] = max(self.residuals[op.residual], op.worst)
        return seconds


def _import_fresh():
    """Import dlgeom from src/ as if for the first time in this process."""
    for name in [n for n in sys.modules if n == "dlgeom" or n.startswith("dlgeom.")]:
        del sys.modules[name]
    pkg = importlib.import_module("dlgeom")
    importlib.import_module("dlgeom.cli")
    if not Path(pkg.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"dlgeom was imported from {pkg.__file__}, not from {SRC}")
    return pkg


def _setup(workload: str, seed: int, workdir: Path, host: hostspeed.HostSpeed):
    """Import the package, generate cycle 0 and (cli) write its spec files.

    Returns the median set-up wall time (kernel samples taken out) and the
    host speed over the repeats, with the last repeat's context and cycle.
    """
    start = host.mark()
    times = []
    for _ in range(SETUP_REPEATS):
        mark = host.mark()
        t0 = time.perf_counter()
        pkg = _import_fresh()
        ctx = wl.Context(pkg, workdir, dict(os.environ, PYTHONPATH=str(SRC)))
        ops = wl.build_cycle(workload, seed, 0, ctx)
        times.append(time.perf_counter() - t0 - host.kernel_time(mark))
    return statistics.median(times), host.speed(start), ctx, ops


def _timed(args, ctx, ops, host: hostspeed.HostSpeed) -> tuple[Run, dict]:
    """Whole cycles, untraced, until another cycle would overrun the time."""
    run = Run()
    ref_times = []
    mark = host.mark()
    t0 = time.perf_counter()
    cycle = 0
    while True:
        for op in ops:
            op_mark = host.mark()
            seconds = run.run(op)
            ref_times.append((seconds - host.kernel_time(op_mark)) * host.speed(op_mark))
        cycle += 1
        elapsed = time.perf_counter() - t0
        if elapsed + 0.5 * elapsed / cycle > args.seconds:
            break
        ops = wl.build_cycle(args.workload, args.seed, cycle, ctx)
    elapsed -= host.kernel_time(mark)
    speed = host.speed(mark)
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    metrics = {
        "samples_per_s": run.samples_ok / (elapsed * speed),
        "raw.samples_per_s": run.samples_ok / elapsed,
        "timed.host_speed": speed,
        "op_p50_s": statistics.median(ref_times),
        "raw.op_p50_s": statistics.median(run.times),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "passed_frac": 1.0 - len(run.failures) / len(run.times),
    }
    return run, metrics


def _in_process_main(pkg, argv) -> float:
    """Wall time of dlgeom.cli.main for the argv of a CLI operation."""
    t0 = time.perf_counter()
    try:
        pkg.cli.main(argv)
    except Exception:  # the child run already counted this operation's failure
        pass
    return time.perf_counter() - t0


def _traced(args, ctx, ops, spans_path: Path) -> tuple[Run, dict]:
    """Cycle 0 untraced, then the same inputs again with spans and counters."""
    pkg = ctx.dlgeom
    run = Run()
    startup = []
    untraced = []
    for op in ops:
        untraced.append(run.run(op))
        if op.argv is not None:
            startup.append(untraced[-1] - _in_process_main(pkg, op.argv))

    tracer = tracing.Tracer()
    counter = tracing.PointCounter(pkg.dual.DualScalar)
    traced_ctx = wl.Context(pkg, ctx.workdir, ctx.child_env, counter)
    ops = wl.build_cycle(args.workload, args.seed, 0, traced_ctx)
    tracer.install({"cli.load_surface_spec": counter.spec,
                    "cli.load_profile": lambda loaded: (counter.profile(loaded[0]), loaded[1])})
    traced = []
    try:
        for i, op in enumerate(ops):
            tracer.op_id = i
            op.call = tracer.span("op", op.call)
            traced.append(run.run(op))
            if op.argv is not None:
                _in_process_main(pkg, op.argv)
    finally:
        tracer.uninstall()
    tracer.write(spans_path)

    totals = tracer.totals()
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0}
    metrics = {}
    for key in PER_LAYER:
        name, _, field = key.rpartition(".")
        if name in tracing.TRACED:
            metrics[key] = totals.get(name, zero)[field]
    metrics.update(counter.metrics())
    metrics.update(run.residuals)
    metrics["cli.startup_s"] = statistics.median(startup) if startup else 0.0
    metrics["cli.output_bytes"] = traced_ctx.output_bytes
    metrics["trace.untraced_op_p50_s"] = statistics.median(untraced)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    return run, metrics


def _environment(args, cpu: int) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30)
            sha = proc.stdout.strip() or None
        except OSError:
            pass
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "dlgeom" / "__init__.py").is_file():
        print(f"no dlgeom sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    cpu = hostspeed.pin_to_one_cpu()
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    try:
        if args.trace:
            with hostspeed.HostSpeed() as host:
                _, _, ctx, ops = _setup(args.workload, args.seed, workdir, host)
            run, metrics = _traced(args, ctx, ops, OUT_DIR / f"{stem}-spans.jsonl")
            units = PER_LAYER
        else:
            with hostspeed.HostSpeed() as host:
                setup_s, setup_speed, ctx, ops = _setup(args.workload, args.seed, workdir, host)
                run, metrics = _timed(args, ctx, ops, host)
            metrics.update({"setup_s": setup_s * setup_speed, "raw.setup_s": setup_s,
                            "setup.host_speed": setup_speed})
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for failure in run.failures:
        print(f"failed: {failure}", file=sys.stderr)
    env = _environment(args, cpu)
    result = {
        "correct": not run.incorrect,
        "attempted": len(run.times),
        "failed": len(run.failures),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    with open(OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"environment": env, "ops": list(zip(run.labels, run.times)),
                   "failures": run.failures,
                   "extra": {k: v for k, v in metrics.items() if k not in units},
                   "process_seconds": time.perf_counter() - T_PROCESS, **result}, fh, indent=1)
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
