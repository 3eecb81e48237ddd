"""Runs one workload in a fresh process and prints one JSON line.

Started by ``run.py``; not meant to be run by hand.  Modes:

* ``setup``: import ``dl_harmonics``, build the workload, warm up, report
  ``setup_s`` and exit;
* ``run``: the same set-up, then whole cycles of the task mix until
  ``--seconds`` have passed, with no tracer imported;
* ``trace``: the same set-up, then ``trace_cycles`` cycles, each run once
  untraced and once under the tracer.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import sys
import tempfile
from fractions import Fraction
from time import perf_counter

# Latencies are reported in milliseconds of a host on which ``_probe`` takes
# this long: about its time on the measuring machine when no other tenant
# slows it.  See ``_timed_loop``.
PROBE_NOMINAL_S = 0.25e-3
PROBE_EVERY_S = 0.02  # the probe's period during a call or the set-up


def _probe() -> float:
    """Time of a fixed piece of pure-Python exact arithmetic (about 0.25 ms)."""
    t0 = perf_counter()
    total, seen = Fraction(0), {}
    for i in range(1, 90):
        total += Fraction(i, i * i + 1)
        seen[i % 5] = (i, total)
    return perf_counter() - t0


class Sampler:
    """Runs ``_probe`` every ``PROBE_EVERY_S`` of wall time while on, from a
    SIGALRM handler between bytecodes, so that the scaling of a long call
    sees the host's speed during the call.  ``spent`` is the time the
    probes took, to be taken off the call's."""

    def __init__(self):
        self.probes: list[float] = []
        self.spent = 0.0
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame):
        t0 = perf_counter()
        self.probes.append(_probe())
        self.spent += perf_counter() - t0

    def start(self) -> None:
        self.probes, self.spent = [], 0.0
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def scaled(self, dt: float, ends: list[float]) -> tuple[float, float]:
        """(scaled, unscaled) time of a call that took ``dt`` with the
        sampler on, given probes taken next to it.

        A call that met probes is scaled by their mean, which weights the
        host's states as the call met them.  A shorter one is scaled by the
        fastest probe next to it: one slowed by an interrupt would make the
        call look faster than it was.
        """
        busy = dt - self.spent
        probe = statistics.fmean(self.probes) if self.probes else min(ends)
        return busy * PROBE_NOMINAL_S / probe, busy


SAMPLER = Sampler()
SAMPLER.start()
T_START = perf_counter()

from metrics import CLI_SUBCOMMANDS, MODULES, PER_LAYER


def _src_root() -> str:
    return os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _import_package() -> None:
    """Import ``dl_harmonics`` from this checkout's ``src/``, never elsewhere."""
    src = _src_root()
    sys.path.insert(0, src)
    import dl_harmonics

    if not os.path.abspath(dl_harmonics.__file__).startswith(src + os.sep):
        raise SystemExit(f"dl_harmonics imported from {dl_harmonics.__file__}, not {src}")


def _rng(seed: int, label) -> random.Random:
    return random.Random(f"{seed}:{label}")


def _run_task(task, tracer, task_id):
    """Time one task; returns (seconds, result or None, error or None)."""
    if tracer is not None:
        tracer.task = task_id
        tracer.active = True
    t0 = perf_counter()
    try:
        result = task.run()
        error = None
    except Exception as exc:  # a raising task is a failed task, not a crash
        result, error = None, f"{type(exc).__name__}: {exc}"
    dt = perf_counter() - t0
    if tracer is not None:
        tracer.active = False
    return dt, result, error


def _check(task, result, error):
    """(ok, work, outputs, reason) for one finished task."""
    if error is not None:
        return False, 0, [error], error
    try:
        ok, work, outputs = task.check(result)
    except Exception as exc:
        return False, 0, [], f"check raised {type(exc).__name__}: {exc}"
    return ok, (work if ok else 0), outputs, None if ok else "output check failed"


class Results:
    def __init__(self):
        self.latencies: list[float] = []  # every call
        self.by_kind: dict[str, list[float]] = {}
        self.failed = 0
        self.unexpected = 0  # failures outside the known defects
        self.reasons: list[str] = []  # the first few of those
        self.digest = hashlib.sha256()
        self.digest_tasks = 0
        self.cycles = 0

    def add(self, task, dt, ok, reason, outputs, digest: bool):
        self.latencies.append(dt)
        self.by_kind.setdefault(task.kind, []).append(dt)
        if not ok:
            self.failed += 1
            if not task.known_defect:
                self.unexpected += 1
                if len(self.reasons) < 5:
                    self.reasons.append(f"{task.kind}: {reason}")
        if digest:
            self.digest.update(json.dumps([task.kind, [str(x) for x in outputs]]).encode())
            self.digest.update(b"\n")
            self.digest_tasks += 1


def _percentile_ms(values, p):
    return 1e3 * statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def _summary(workload, res: Results) -> dict:
    """Failures, digest and per-class latencies of the tasks in ``res``."""
    return {
        "attempted": len(res.latencies),
        "failed": res.failed,
        "unexpected_failures": res.unexpected,
        "failure_reasons": res.reasons,
        "work_unit": workload.work_unit,
        "digest": res.digest.hexdigest(),
        "digest_tasks": res.digest_tasks,
        "kinds": {
            k: {"n": len(v), "p50_ms": 1e3 * statistics.median(v)}
            for k, v in sorted(res.by_kind.items())
        },
    }


def _end_to_end(latencies: list[float], works: list[int]) -> dict:
    """The timing metrics of a timed loop, given each task's latency and the
    work its checked output represents."""
    p90 = _percentile_ms(latencies, 90)
    return {
        "tasks": len(latencies),
        "task_p50_ms": _percentile_ms(latencies, 50),
        "task_p90_ms": p90,
        "tasks_above_p90": sum(1 for x in latencies if 1e3 * x > p90),
        "tasks_per_s": len(latencies) / sum(latencies),
        "work_per_s": sum(works) / sum(latencies),
    }


def _run_cycle(workload, seed: int, cycle: int, res: Results, tracer=None) -> float:
    """Run one cycle of the mix into ``res`` once; returns its task time."""
    busy = 0.0
    for i, task in enumerate(workload.cycle(_rng(seed, cycle), cycle)):
        dt, result, error = _run_task(task, tracer, f"{cycle}.{i}:{task.kind}")
        ok, _, outputs, reason = _check(task, result, error)
        res.add(task, dt, ok, reason, outputs, digest=cycle == 0)
        busy += dt
    res.cycles = cycle + 1
    return busy


def _timed_loop(workload, seed: int, seconds: float):
    """Whole cycles of the mix until ``seconds`` of wall time have passed.

    Every call's time is scaled to a fixed host speed: multiplied by
    ``PROBE_NOMINAL_S`` over the probe's time around or during the call
    (``Sampler.scaled``).  The shared host's speed changes by up to 2x, for
    a fraction of a second or for minutes, as other tenants load it; the
    probe slows with the call, so the scaled time follows the program and
    hardly the host.  Returns the results of every call, with its scaled
    time and its work.
    """
    res, scaled, works = Results(), [], []
    t_end = perf_counter() + seconds
    cycle = 0
    while cycle == 0 or perf_counter() < t_end:
        for task in workload.cycle(_rng(seed, cycle), cycle):
            before = _probe()
            SAMPLER.start()
            dt, result, error = _run_task(task, None, None)
            SAMPLER.stop()
            x, busy = SAMPLER.scaled(dt, [before, _probe()])
            ok, work, outputs, reason = _check(task, result, error)
            res.add(task, busy, ok, reason, outputs, digest=cycle == 0)
            scaled.append(x)
            works.append(work)
        cycle += 1
        res.cycles = cycle
    return res, scaled, works


def _layer_metrics(tracer, untraced_s: float, traced_s: float, overhead_s: float) -> dict:
    calls, self_s, counts, bits = {}, {}, {}, {}
    sub_total = dict.fromkeys(CLI_SUBCOMMANDS, 0.0)
    for (task, name), (c, tot, slf) in tracer.spans.items():
        calls[name] = calls.get(name, 0) + c
        self_s[name] = self_s.get(name, 0.0) + slf
        if name == "cli.main":
            sub_total[task.split(":")[1]] += tot  # task id "<cycle>.<i>:<subcommand>[:...]"
    for (task, name), v in tracer.counts.items():
        if name.endswith("_bits"):
            bits[name] = max(bits.get(name, 0), v)
        else:
            counts[name] = counts.get(name, 0) + v
    trials = counts.get("walks.estimate_f.trials", 0)
    special = {
        "walks.estimate_f.truncated_frac": counts.get("walks.estimate_f.truncated", 0) / trials if trials else 0.0,
        "walks.estimate_f.escaped_frac": counts.get("walks.estimate_f.escaped", 0) / trials if trials else 0.0,
        "trace.untraced_s": untraced_s,
        "trace.traced_s": traced_s,
        "trace.overhead_s": overhead_s,
        **{f"cli.main.{s}.total_s": v for s, v in sub_total.items()},
        **bits,
    }
    out = {}
    for name in PER_LAYER:
        stem, _, field = name.rpartition(".")
        if name in special:
            value = special[name]
        elif field == "calls":
            value = calls.get(stem, 0)
        elif field == "self_s" and stem in MODULES:
            value = sum(v for k, v in self_s.items() if k.startswith(stem + "."))
        elif field == "self_s":
            value = self_s.get(stem, 0.0)
        else:
            value = counts.get(name, 0)
        out[name] = value
    return out


def _trace(workload, name: str, seed: int, root: str) -> dict:
    """Each of ``trace_cycles`` cycles run twice in a row, untraced and traced.

    Running the two passes of a cycle back to back means host drift over
    the run hits both alike, and alternating which pass goes first cancels
    any advantage of the second; the overhead is the median over cycles of
    the traced minus the untraced task time of the cycle.  An untimed pass
    of cycle 0 goes first, because the first large exact solve in a process
    runs slower than the later ones.
    """
    import spans  # the timed runs never import the tracer

    untraced, traced, tracer = Results(), Results(), spans.Tracer()

    def traced_pass(cycle: int) -> float:
        tracer.install()
        try:
            return _run_cycle(workload, seed, cycle, traced, tracer)
        finally:
            tracer.uninstall()

    _run_cycle(workload, seed, 0, Results())
    diffs = []
    for cycle in range(workload.trace_cycles):
        if cycle % 2 == 0:
            plain = _run_cycle(workload, seed, cycle, untraced)
            diffs.append(traced_pass(cycle) - plain)
        else:
            with_tracer = traced_pass(cycle)
            diffs.append(with_tracer - _run_cycle(workload, seed, cycle, untraced))
    untraced_s, traced_s = sum(untraced.latencies), sum(traced.latencies)
    metrics = _layer_metrics(tracer, untraced_s, traced_s, statistics.median(diffs))

    out_dir = os.path.join(root, ".bench_build", "trace")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{name}-seed{seed}.json")
    with open(path, "w") as fh:
        json.dump({
            "workload": name, "seed": seed,
            "spans": [
                {"task": t, "name": n, "calls": c, "total_s": tot, "self_s": slf}
                for (t, n), (c, tot, slf) in sorted(tracer.spans.items())
            ],
            "counts": [{"task": t, "name": n, "value": v} for (t, n), v in sorted(tracer.counts.items())],
        }, fh)
    summary = _summary(workload, untraced)
    summary["digest_traced"] = traced.digest.hexdigest()
    summary["failed"] += traced.failed
    summary["attempted"] += len(traced.latencies)
    summary["unexpected_failures"] += traced.unexpected
    summary["failure_reasons"] += traced.reasons
    summary["layers"] = metrics
    summary["spans_file"] = os.path.relpath(path, root)
    return summary


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    root = os.path.dirname(_src_root())

    _import_package()
    import numpy
    import workloads

    tmpdir = None
    try:
        if args.workload == "cli":
            scratch = os.path.join(root, ".bench_build")
            os.makedirs(scratch, exist_ok=True)
            tmpdir = tempfile.mkdtemp(prefix="cli-", dir=scratch)
            workload = workloads.Cli(args.smoke, tmpdir)
        else:
            workload = workloads.CLASSES[args.workload](args.smoke)
        # The same warm-up tasks for every seed, so that ``setup_s`` measures
        # the same work in every run.
        for task in workload.warmup(_rng(0, "warmup")):
            task.run()
        setup = perf_counter() - T_START
        SAMPLER.stop()
        setup_s, setup_wall_s = SAMPLER.scaled(setup, [_probe()])

        out = {"mode": args.mode, "workload": args.workload, "seed": args.seed,
               "setup_s": setup_s, "setup_wall_s": setup_wall_s}
        if args.mode == "run":
            res, scaled, works = _timed_loop(workload, args.seed, args.seconds)
            out.update(_summary(workload, res), **_end_to_end(scaled, works), cycles=res.cycles)
            out["wall"] = _end_to_end(res.latencies, works)
        elif args.mode == "trace":
            out.update(_trace(workload, args.workload, args.seed, root))
        out["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        out["machine"] = {
            "arch": platform.machine(),
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        }
    finally:
        if tmpdir is not None:
            shutil.rmtree(tmpdir, ignore_errors=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
