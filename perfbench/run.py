"""Benchmark of the meansfield library.

Run from the root of a checkout:

    python3 perfbench/run.py --workload field-d12 --seed 1 --seconds 20 --trace 0

``--workload all`` runs the four workloads one after the other. Each
workload runs in a child process with OpenBLAS and OpenMP pinned to one
thread. Without tracing, two more children only set up, so that
``setup_s`` is a median of three. With ``--trace 1`` the child times
untraced passes, installs the per-layer wrappers of ``tracer.py`` and
times traced passes, and the metrics are the per-layer ones.

The lines before the last describe the host and every metric with its
unit and sample count. The last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is
0 when every correctness check passed, 1 when one failed and 2 when the
benchmark could not run (for example, outside a checkout).
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("field-d12", "filter-c64", "cli-d12", "score-stream")
SETUP_REPEATS = 3
# Whole-command limit; a child gets what is left of it.
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def run_child(args, workload, work_root, deadline, setup_only=False):
    cmd = [sys.executable, str(HERE / "child.py"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-root", str(work_root)]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--spawned-at", repr(time.monotonic())]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left to run {workload}")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), timeout=timeout,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} child exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} child exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")
    return json.loads(lines[-1])


def run_workload(args, workload, spec, work_root, deadline):
    """Metrics ``{name: (value, unit, samples)}`` and the JSON fields."""
    setups = []
    if not args.trace:
        for _ in range(SETUP_REPEATS - 1):
            setups.append(run_child(args, workload, work_root, deadline,
                                    setup_only=True))
    main = run_child(args, workload, work_root, deadline)
    problems = [p for s in setups for p in s["problems"]] + main["problems"]
    failed = main["failed"] + sum(1 for s in setups if s["problems"])
    attempted = main["attempted"] + len(setups)

    raw = dict(main["metrics"])
    if not args.trace:
        times = [s["setup_s"] for s in setups] + [main["setup_s"]]
        raw["setup_s"] = (statistics.median(times), len(times))
        raw["peak_rss_mb"] = (main["peak_rss_mb"], 1)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    if set(raw) != set(units):
        raise BenchError(f"{workload} reported {sorted(raw)}, the benchmark "
                         f"declares {sorted(units)}")
    metrics = {k: (raw[k][0], units[k], raw[k][1]) for k in units}

    print(f"== {workload} seed {args.seed} trace {args.trace}")
    for child in setups + [main]:
        print("host " + json.dumps(child["host"], sort_keys=True))
    for name, (value, unit, n) in metrics.items():
        print(f"{workload:13s} {name:40s} {value:14.6g} {unit:6s} n={n}")
    print(f"{workload:13s} {'error_rate':40s} {failed / attempted:14.6g} "
          f"{'1':6s} n={attempted}")
    print(f"{workload:13s} {'host speed scale (median)':40s} "
          f"{main['scale']:14.6g}")
    print(f"{workload:13s} {'pass_s before rescaling':40s} "
          f"{main['raw_pass_s']:14.6g} s")
    for row in main.get("spans", [])[:25]:
        print("span {:40s} calls={:<8d} incl={:.4f}s self={:.4f}s".format(*row))
    for p in problems:
        print(f"CHECK FAILED {workload}: {p}")
    return metrics, attempted, failed, not problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Exit through SystemExit on SIGTERM, so that subprocess.run kills and
    # reaps the running child instead of leaving it behind.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + DEADLINE_S * (
        len(WORKLOADS) if args.workload == "all" else 1)

    if not (ROOT / "src" / "meansfield" / "__init__.py").is_file():
        print(f"no meansfield sources under {ROOT / 'src'}; run from the "
              "root of a checkout", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        spec = json.load(fh)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    metrics, attempted, failed, correct = {}, 0, 0, True
    try:
        for name in names:
            m, a, f, ok = run_workload(args, name, spec, work_root, deadline)
            prefix = "" if len(names) == 1 else name + "."
            metrics.update({prefix + k: v for k, v in m.items()})
            attempted, failed, correct = attempted + a, failed + f, correct and ok
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work_root, ignore_errors=True)

    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u, _) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
