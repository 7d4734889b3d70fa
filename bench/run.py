"""netmesh benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 bench/run.py --workload vessel-tree --seed 1 --seconds 30 --trace 0

Run from the root of a netmesh checkout; the program is imported from
``src/``.  The workload's inputs are generated from ``--seed`` under
``bench/work/``.  After one warm-up repetition the workload repeats for
``--seconds`` seconds; every repetition's outputs are checked.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
"""

from __future__ import annotations

import os

# one thread: pin the BLAS pools before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import json
import pathlib
import pickle
import resource
import shutil
import statistics
import sys
import time

import timing

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOAD_NAMES = ("vessel-tree", "root-growth", "foam-adapt")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def check_in_child(check, rep):
    """``check(rep)`` in a forked child, so that the memory the check takes
    never counts towards this process's peak resident set."""
    sys.stdout.flush()
    sys.stderr.flush()
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read)
        code = 0
        try:
            result = check(rep)
        except BaseException as error:  # report it to the parent, never return
            result, code = f"{type(error).__name__}: {error}", 1
        with os.fdopen(write, "wb") as sink:
            pickle.dump(result, sink)
        os._exit(code)
    os.close(write)
    with os.fdopen(read, "rb") as source:
        result = pickle.load(source)
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError(f"output check failed to run: {result}")
    return result


class Run:
    """Repeats one workload for a fixed time and gathers outcomes."""

    def __init__(self, workload, sampler):
        self.workload = workload
        self.sampler = sampler
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def repetition(self, tracer=None):
        """One timed repetition, traced when a tracer is given, then its checks."""
        gc.collect()
        self.sampler.forget_before(time.perf_counter() - 1.0)
        with tracer or contextlib.nullcontext():
            rep = self.workload.repetition(self.sampler)
        outcome = check_in_child(self.workload.check, rep)
        rep.data = None  # outputs are checked; do not hold grids across repetitions
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.problems += outcome.problems
        return rep


def end_to_end(run, seconds):
    run.repetition()  # warm-up: the first repetition in a process runs slow
    reps = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(reps) < 3:
        reps.append(run.repetition())
    wall = statistics.median([r.wall_s for r in reps])
    leaf_steps = reps[0].leaf_steps
    return {
        "wall_s": _metric(wall, "s"),
        "setup_s": _metric(statistics.median([r.setup_s for r in reps]), "s"),
        "leaf_steps_per_s": _metric(leaf_steps / wall, "1/s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }, len(reps)


def per_layer(run, seconds, spans_path):
    """Alternate untraced and traced repetitions; report the traced layers."""
    import tracing

    tracer = tracing.Tracer()
    run.repetition()
    plain, traced, layer_times, counts = [], [], [], None
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(traced) < 2:
        plain.append(run.repetition().wall_s)
        tracer.reset()
        rep = run.repetition(tracer)
        traced.append(rep.wall_s)
        layer_times.append({k: v * rep.speed for k, v in tracer.self_times().items()})
        rep_counts = tracer.layer_counts()
        if counts is None:
            counts = rep_counts
        elif rep_counts != counts:
            run.problems.append("per-layer counts differ between repetitions of one seed")
    tracer.write_spans(spans_path)

    metrics = {}
    for name in tracing.TIME_METRICS:
        metrics[name] = _metric(statistics.median([t[name] for t in layer_times]), "s")
    for name in tracing.COUNT_METRICS:
        metrics[name] = _metric(counts[name], "bytes" if name == "vtk_io.bytes" else "count")
    metrics["intersections.walks_per_leaf"] = _metric(
        counts["intersections.walks_per_leaf"], "calls/leaf"
    )
    metrics["trace.overhead_s"] = _metric(
        statistics.median(traced) - statistics.median(plain), "s"
    )
    return metrics, len(traced)


def main(argv=None):
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "netmesh" / "__init__.py").is_file():
        print(f"bench: no netmesh sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import netmesh

    if pathlib.Path(netmesh.__file__).resolve().parent != (src / "netmesh").resolve():
        print(f"bench: imported netmesh from {netmesh.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads

    work = BENCH / "work" / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    sampler = timing.SpeedSampler()
    run = Run(workloads.WORKLOADS[args.workload](args.seed, work), sampler)
    sampler.start()
    try:
        if args.trace:
            spans = BENCH / "work" / f"spans-{args.workload}-{args.seed}.jsonl"
            metrics, reps = per_layer(run, args.seconds, spans)
        else:
            metrics, reps = end_to_end(run, args.seconds)
    finally:
        sampler.stop()

    for problem in run.problems[:20]:
        print(f"bench: check failed: {problem}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {reps} measured repetitions, "
          f"{run.attempted} operations, {run.failed} failed")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print(
        json.dumps(
            {
                "correct": not run.problems,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
