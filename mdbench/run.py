#!/usr/bin/env python3
"""mdocc end-to-end benchmark.

    python3 mdbench/run.py --workload {cli_mdt,trend,eval_refine} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; it imports mdocc from ``src/``.
Set-up is repeated SETUP_REPS times and its median reported; then rounds of
the timed part run until ``--seconds`` of timed work is done, and the median
round is reported. Every round's outputs are checked (see ``check.py``).
With ``--trace 1`` rounds alternate untraced and traced, and the per-layer
metrics of the traced rounds are reported with the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment and the per-round figures.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

# BLAS threads are pinned before numpy loads; one thread was measured faster
# than OpenBLAS's default on the training loop and gives the same weights
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".mdbench_out")
SETUP_REPS = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=("cli_mdt", "trend", "eval_refine"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def environment():
    import importlib.util

    import numpy

    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "numpy": numpy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "python": sys.version.split()[0],
    }


def import_times():
    """Start-up cost of a fresh process up to a loaded mdocc, SETUP_REPS times.

    One in-process import cannot be repeated, and its time swings with the
    file cache, so the median of fresh interpreters stands in for it."""
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import mdocc.cli"], env=env, check=True)
        times.append(time.perf_counter() - t0)
    return times


def measure(wl, tracer, args, out, detail):
    """Set up SETUP_REPS times, then run rounds until --seconds of timed work
    is done. Returns (set-up times, untraced walls, traced walls, per-layer
    rows of the traced rounds, quality of the rounds)."""
    setup_times, walls, traced_walls, layer_rows = [], [], [], []
    quality = {}
    for i in range(SETUP_REPS):
        shutil.rmtree(os.path.join(out, f"setup{i - 1}"), ignore_errors=True)
        t0 = time.perf_counter()
        wl.setup(os.path.join(out, f"setup{i}"))
        setup_times.append(time.perf_counter() - t0)
    k = 0
    while not (sum(walls) + sum(traced_walls) >= args.seconds and (traced_walls or not args.trace)):
        traced = bool(args.trace) and k % 2 == 1
        tracer.reset()
        # every round writes into a fresh tree at the same path, so the paths
        # its files record match the first round's
        round_dir = os.path.join(out, "round")
        shutil.rmtree(round_dir, ignore_errors=True)
        rnd = wl.round(round_dir, traced)
        quality = rnd.quality
        detail.update(rnd.notes)
        if traced:
            traced_walls.append(rnd.wall_s)
            layer_rows.append(tracer.snapshot())
        else:
            walls.append(rnd.wall_s)
        k += 1
    return setup_times, walls, traced_walls, layer_rows, quality


def run(args):
    sys.path.insert(0, SRC)
    import check
    import layers
    import selftest
    from workloads import WORKLOADS, PipelineFailed

    import_s = [time.perf_counter() - T_START] + import_times()
    tracer = layers.Tracer()
    if args.trace:
        tracer.install()
    out = os.path.join(OUT, args.workload)
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    wl = WORKLOADS[args.workload](args.seed, tracer)
    correct = True
    detail = {"workload": args.workload, "seed": args.seed, "env": environment(), "import_s": import_s}
    setup_times, walls, traced_walls, layer_rows, quality = [], [], [], [], {}
    try:
        setup_times, walls, traced_walls, layer_rows, quality = measure(wl, tracer, args, out, detail)
    except (PipelineFailed, check.CheckFailed) as e:
        correct = False
        detail["error"] = f"{type(e).__name__}: {e}"
    finally:
        tracer.uninstall()
    checker_faults = selftest.failures()
    if checker_faults:
        correct = False
        detail["checker_faults"] = checker_faults
    detail.update(setup_s=setup_times, wall_s=walls, traced_wall_s=traced_walls)
    print(json.dumps(detail, sort_keys=True))
    metrics = {}
    if args.trace:
        for name in layers.METRICS if layer_rows else ():
            metrics[name] = {"value": statistics.median(row[name] for row in layer_rows),
                             "unit": layers.unit_of(name)}
        # mIoU swings by more than a quarter between seeds (measured on trend),
        # too much to bound, so it is reported here and not end to end
        for ds in ("a32", "b64"):
            if f"mdt_miou_{ds}" in quality:
                metrics[f"metrics.mdt_miou_{ds}"] = {"value": quality[f"mdt_miou_{ds}"], "unit": "ratio"}
        if walls and traced_walls:
            overhead = statistics.median(traced_walls) / statistics.median(walls) - 1.0
            metrics["trace.overhead_pct"] = {"value": 100.0 * overhead, "unit": "%"}
    else:
        if setup_times:
            start_s = statistics.median(import_s[1:])
            metrics["setup_s"] = {"value": start_s + statistics.median(setup_times), "unit": "s"}
        if walls:
            metrics["wall_s"] = {"value": statistics.median(walls), "unit": "s"}
        metrics["peak_rss_mb"] = {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                                  "unit": "MB"}
        for ds in ("a32", "b64"):
            if f"mdt_iou_{ds}" in quality:
                metrics[f"mdt_iou_{ds}"] = {"value": quality[f"mdt_iou_{ds}"], "unit": "ratio"}
    print(json.dumps({"correct": correct, "attempted": wl.attempted, "failed": wl.failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "mdocc", "__init__.py")):
        print(f"mdbench: no mdocc source tree under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
