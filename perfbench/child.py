"""One workload in its own process: set up, measure, check.

Started by ``run.py`` with BLAS pinned to one thread; not meant to be
run by hand. The last line of standard output is one JSON object for
the parent. With ``--setup-only`` the process stops once its inputs
are ready and reports its set-up time.
"""

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import meansfield  # noqa: E402  (the checkout's copy, from ROOT/src)

if Path(meansfield.__file__).resolve().parent != ROOT / "src" / "meansfield":
    sys.exit(f"imported meansfield from {meansfield.__file__}, "
             f"not from {ROOT / 'src'}")

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, reference_problems  # noqa: E402

# Share of the run given to the untraced passes of a traced run.
UNTRACED_SHARE = 0.4

# Host-speed calibration. Small shared virtual machines switch between
# fast and slow phases lasting seconds: on a 2-vCPU Xeon guest, within
# one minute a fixed eigh loop ran between 2000 and 3200 times a second,
# and the same seed's pass times moved by up to 30 % between runs. The steps of the passes
# are grouped in blocks of at least BLOCK_S seconds; a fixed kernel
# timed before and after each block gives the block's speed, and the
# block's times are rescaled to the speed at which the kernel takes
# CAL_REFERENCE_S (its time in this host's fast phase). The kernel mixes
# what the workloads spend their time on: LAPACK on small stacks, small
# numpy operations, interpreter work and 64-channel covariances.
BLOCK_S = 0.5
CAL_ROUNDS = 30
CAL_REFERENCE_S = 0.019
_CAL_RNG = np.random.default_rng(0)
_CAL_STACK = _CAL_RNG.standard_normal((16, 12, 12))
_CAL_STACK = _CAL_STACK @ _CAL_STACK.transpose(0, 2, 1) + 12 * np.eye(12)
_CAL_SIGNAL = _CAL_RNG.standard_normal((64, 128))


def calibrate(eigh=np.linalg.eigh, eigvalsh=np.linalg.eigvalsh):
    """Seconds the calibration kernel takes now. The default arguments
    keep the untraced LAPACK calls, so calibration stays out of the
    trace."""
    m = _CAL_STACK[0]
    t0 = time.perf_counter()
    for r in range(CAL_ROUNDS):
        eigh(_CAL_STACK)
        for _ in range(50):
            (m @ m + m.T).sum()
        sum(i * i % 7 for i in range(2000))
        if r % 5 == 0:
            eigvalsh(_CAL_SIGNAL @ _CAL_SIGNAL.T)
    return time.perf_counter() - t0


def blas_threads():
    """Thread count in effect for each loaded OpenBLAS library."""
    out = {}
    with open("/proc/self/maps", "r", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line.lower() and ".so" in line})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[os.path.basename(lib)] = fn()
                break
    return out


def host_record():
    cpu = "unknown"
    with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    import scipy.linalg  # noqa: F401  (loads scipy's own OpenBLAS)
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


class Pass:
    """One pass: its outcome and, per step, raw seconds and host-speed
    scale."""

    def __init__(self, n_steps):
        self.walls = []
        self.scales = [None] * n_steps
        self.outcome = None

    @property
    def raw_s(self):
        return sum(self.walls)

    @property
    def scaled_s(self):
        return sum(w * s for w, s in zip(self.walls, self.scales))

    def scaled_ops(self):
        return [x * self.scales[i] for i, x in self.outcome.ops]


def measure(workload, state, budget_s, min_passes, min_ops, on_pass=None):
    """Run passes until the next one would end after ``budget_s``, once
    at least ``min_passes`` passes and ``min_ops`` units of work are in.
    A run that cannot reach the minimum stops at three budgets. Steps
    are grouped in blocks of at least BLOCK_S seconds, calibrated before
    and after; ``on_pass`` sees each pass before its check runs."""
    passes, block = [], []
    start = block_start = time.perf_counter()
    cal = calibrate()

    def close_block():
        nonlocal cal, block_start
        cal_next = calibrate()
        for p, i in block:
            p.scales[i] = 2 * CAL_REFERENCE_S / (cal + cal_next)
        block.clear()
        cal, block_start = cal_next, time.perf_counter()

    while True:
        steps = workload.steps(state)
        p, values = Pass(len(steps)), []
        for i, step in enumerate(steps):
            t0 = time.perf_counter()
            values.append(step(values))
            p.walls.append(time.perf_counter() - t0)
            block.append((p, i))
            if time.perf_counter() - block_start >= BLOCK_S:
                close_block()
        if on_pass is not None:
            on_pass(p)
        p.outcome = workload.check(state, values)
        passes.append(p)
        elapsed = time.perf_counter() - start
        enough = (len(passes) >= min_passes
                  and sum(len(q.outcome.ops) for q in passes) >= min_ops)
        typical = statistics.median(q.raw_s for q in passes)
        if ((enough and elapsed + typical > budget_s)
                or (elapsed > 3 * budget_s and len(passes) >= min_passes)):
            if block:
                close_block()
            return passes


def check_passes(passes):
    """Gate failures of every pass, plus outputs that do not repeat the
    first pass exactly. A failing pass counts all its work as failed."""
    problems, failed = [], 0
    first = passes[0].outcome.signature
    for i, p in enumerate(passes):
        pass_problems = list(p.outcome.problems)
        if p.outcome.signature != first:
            pass_problems.append(f"pass {i} outputs differ from pass 0")
        if pass_problems:
            failed += p.outcome.attempted
            problems += [f"pass {i}: {x}" for x in pass_problems]
        else:
            failed += p.outcome.failed
    return problems, failed


def end_to_end(workload, passes):
    ops = [x for p in passes for x in p.scaled_ops()]
    walls = [p.scaled_s for p in passes]
    aucs = passes[0].outcome.aucs
    return {
        "pass_s": (statistics.median(walls), len(walls)),
        "op_p50_ms": (1e3 * statistics.median(ops), len(ops)),
        "op_tail_ms": (1e3 * float(np.percentile(ops, workload.tail_pct)),
                       len(ops)),
        "auc_mean": (float(np.mean(aucs)), len(aucs)),
    }


def traced_run(workload, state, seconds, layers, units):
    """Untraced passes, then traced passes; per-layer metrics are the
    per-pass medians of the traced passes. Work counts (every metric
    not in seconds) must repeat exactly from pass to pass."""
    untraced = measure(workload, state, UNTRACED_SHARE * seconds, 1, 0)
    tracer = Tracer()
    tracer.install()
    problems = [f"binding not wrapped: {b}"
                for b in tracer.unwrapped_bindings()]
    per_pass, covered, spans = [], [], []

    def on_pass(p):
        per_pass.append(tracer.layer_metrics())
        covered.append(tracer.top_level_s / p.raw_s)
        spans[:] = tracer.span_table()
        tracer.reset()

    try:
        tracer.reset()
        traced = measure(workload, state, (1 - UNTRACED_SHARE) * seconds,
                         2, 0, on_pass)
    finally:
        tracer.uninstall()

    metrics = {k: statistics.median(p[k] for p in per_pass)
               for k in per_pass[0]}
    for key in sorted(per_pass[0]):
        if units[key] != "s" and len({p[key] for p in per_pass}) > 1:
            problems.append(f"count {key} differs between traced passes: "
                            f"{[p[key] for p in per_pass]}")
    metrics["trace.overhead_ratio"] = (
        statistics.median(p.scaled_s for p in traced)
        / statistics.median(p.scaled_s for p in untraced))
    metrics["trace.unattributed_share"] = 1.0 - statistics.median(covered)
    problems += layer_problems(workload.name, metrics, layers)
    return untraced, traced, metrics, problems, spans


def layer_problems(workload_name, metrics, layers):
    """Metrics that read 0 where ``layers.json`` says their layer runs,
    or not 0 where it says they must be: a wrapper that missed a
    binding, or a renamed function, fails here instead of reading 0."""
    problems = []
    for name, spec in layers.items():
        value = metrics[name]
        if workload_name in spec["runs_on"] and not value > 0:
            problems.append(f"{name} is {value} on {workload_name}, where "
                            f"its layer runs")
        if workload_name in spec["zero_on"] and value != 0:
            problems.append(f"{name} is {value} on {workload_name}, where "
                            f"it must be 0")
    return problems


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() when the parent started us")
    parser.add_argument("--work-root", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    with open(HERE / "reference.json", "r", encoding="utf-8") as fh:
        expected = json.load(fh)[workload.name]
    with open(HERE / "layers.json", "r", encoding="utf-8") as fh:
        layers = json.load(fh)
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        units = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}

    with tempfile.TemporaryDirectory(dir=args.work_root) as work_dir:
        state = workload.setup(args.seed, work_dir)
        problems = [f"set-up: {p}" for p in reference_problems(
            workload.reference(work_dir), expected)]
        setup_s = time.monotonic() - args.spawned_at
        # rescaled like the passes, by a calibration right after set-up
        out = {"setup_s": setup_s * CAL_REFERENCE_S / calibrate(),
               "host": host_record()}
        if args.setup_only:
            out["problems"] = problems
            print(json.dumps(out))
            return 0
        if args.trace:
            untraced, traced, metrics, trace_problems, spans = traced_run(
                workload, state, args.seconds, layers, units)
            passes = untraced + traced
            problems += trace_problems
            out["metrics"] = {k: (v, len(traced)) for k, v in metrics.items()}
            out["spans"] = spans
        else:
            min_ops = math.ceil(10 / (1 - workload.tail_pct / 100))
            passes = measure(workload, state, args.seconds, 1, min_ops)
            out["metrics"] = end_to_end(workload, passes)

    # The reference comparison and the trace self-checks count as one
    # more unit of work, failed when any of them failed.
    pass_problems, failed = check_passes(passes)
    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["scale"] = statistics.median(s for p in passes for s in p.scales)
    out["raw_pass_s"] = statistics.median(p.raw_s for p in passes)
    out["attempted"] = 1 + sum(p.outcome.attempted for p in passes)
    out["failed"] = failed + (1 if problems else 0)
    out["problems"] = problems + pass_problems
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
