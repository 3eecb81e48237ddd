"""dl-harmonics benchmark: one closed-loop client, one task at a time.

Run from the root of a checkout::

    python3 bench/run.py --workload pointwise --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload solve --seed 1 --seconds 20 --trace 1
    python3 bench/run.py --workload cli --seed 1 --seconds 1 --trace 0 --smoke

Each workload runs in fresh worker processes (``worker.py``) with BLAS and
OpenMP pinned to one thread.  With ``--trace 0`` the set-up is measured in
several processes before and after the one that runs the timed loop, and
the end-to-end metrics are printed, their times scaled by a probe of the
host's speed (see ``worker._timed_loop``); with ``--trace 1`` one worker
runs a fixed number of cycles, each untraced and traced, and prints the
per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout

import argparse
import json
import os
import statistics
import subprocess
import time

from metrics import END_TO_END, WORK_NAMES, WORKLOADS, layer_unit

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
# Set-up processes per run: before the timed loop (plus the loop's own
# worker) and after it; ``setup_s`` is the median of them.
SETUP_BEFORE, SETUP_AFTER = 3, 4
DEADLINE_S = 170.0  # a run must end within 180 s

THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}


class WorkerError(RuntimeError):
    pass


def _worker(args, mode: str, deadline: float) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1", **THREAD_PINS)
    cmd = [
        sys.executable, os.path.join(BENCH_DIR, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode,
    ] + (["--smoke"] if args.smoke else [])
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{mode} worker for {args.workload} ran past the deadline")
    if proc.returncode != 0:
        raise WorkerError(f"{mode} worker exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _line(name: str, value, unit: str, note: str = "") -> None:
    print(f"{name:<44} {value:>14.6g} {unit:<6} {note}".rstrip())


def _report_header(out: dict, args) -> None:
    m = out["machine"]
    print(f"# workload {args.workload}  seed {args.seed}  trace {args.trace}"
          f"{'  smoke' if args.smoke else ''}")
    print(f"# machine {m['arch']}  nproc {m['nproc']}  python {m['python']}  numpy {m['numpy']}")
    failed, attempted = out["failed"], out["attempted"]
    _line("failed_frac", failed / attempted, "ratio", f"({failed} of {attempted} tasks;"
          f" {out['unexpected_failures']} outside the known defects)")
    for reason in out["failure_reasons"]:
        print(f"#   failure: {reason}")
    print(f"digest {out['digest']}  ({out['digest_tasks']} tasks of cycle 0)")


def run_untraced(args, deadline: float) -> dict:
    setups = [_worker(args, "setup", deadline) for _ in range(SETUP_BEFORE)]
    out = _worker(args, "run", deadline)
    setups.append(out)
    setups += [_worker(args, "setup", deadline) for _ in range(SETUP_AFTER)]
    metrics = {
        "setup_s": statistics.median(o["setup_s"] for o in setups),
        "task_p50_ms": out["task_p50_ms"],
        "task_p90_ms": out["task_p90_ms"],
        "tasks_per_s": out["tasks_per_s"],
        "work_per_s": out["work_per_s"],
        "peak_rss_mib": out["peak_rss_mib"],
    }
    _report_header(out, args)
    n = f"n={out['tasks']} tasks, probe-scaled"
    notes = {
        "setup_s": f"median of {len(setups)} probe-scaled set-ups",
        "task_p50_ms": n,
        "task_p90_ms": f"{n}; {out['tasks_above_p90']} above it",
        "tasks_per_s": f"{n}; {out['cycles']} cycles",
        "work_per_s": f"{n}; {out['work_unit']} per second",
        "peak_rss_mib": "worker process",
    }
    for name, (unit, _) in END_TO_END.items():
        _line(name, metrics[name], unit, notes[name])
    _line(WORK_NAMES[args.workload], out["work_per_s"], "1/s", "(work_per_s on this workload)")
    wall = dict(out["wall"], setup_s=statistics.median(o["setup_wall_s"] for o in setups))
    for name, (unit, _) in END_TO_END.items():
        if name in wall:
            _line(f"{name} (wall clock, not scaled)", wall[name], unit)
    for kind, k in out["kinds"].items():
        print(f"#   class {kind:<40} n={k['n']:<6} p50={k['p50_ms']:.3f} ms")
    return {
        "correct": out["unexpected_failures"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {k: {"value": v, "unit": END_TO_END[k][0]} for k, v in metrics.items()},
    }


def run_traced(args, deadline: float) -> dict:
    out = _worker(args, "trace", deadline)
    _report_header(out, args)
    print(f"digest under tracing {out['digest_traced']}")
    print(f"spans written to {out['spans_file']}")
    layers = out["layers"]
    for name, value in layers.items():
        if value:
            _line(name, value, layer_unit(name)[0])
    return {
        "correct": out["unexpected_failures"] == 0 and out["digest"] == out["digest_traced"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {k: {"value": v, "unit": layer_unit(k)[0]} for k, v in layers.items()},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes; finishes in seconds")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "dl_harmonics", "__init__.py")):
        print(f"error: {ROOT} has no src/dl_harmonics; run the benchmark from a checkout",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        args.workload = name
        deadline = time.monotonic() + DEADLINE_S
        try:
            result = (run_traced if args.trace else run_untraced)(args, deadline)
        except WorkerError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
