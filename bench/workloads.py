"""Task generators and output oracles for the four benchmark workloads.

A workload object is built once per process (its long-lived objects count in
``setup_s``) and then hands out one *cycle* of tasks at a time.  Every cycle
has the same fixed task mix; only the inputs change, and they come from a
``random.Random`` seeded with ``(workload seed, cycle index)``, so a seed
always produces the same tasks.

A :class:`Task` has two halves:

* ``run`` is the timed call into ``dl_harmonics`` (the client's request);
* ``check`` is the oracle the benchmark applies to the result.  It returns
  ``(ok, work, outputs)``: whether the result is right, how many units of the
  workload's work it represents, and the exact outputs that go into the
  workload digest.

All library access goes through module attributes (``dct.hitting_table``),
never through names imported into this module, so the traced run sees every
call the benchmark makes.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import dl_harmonics as dh
from dl_harmonics import cli
from dl_harmonics import dirichlet as dct
from dl_harmonics import dl_graph as dg
from dl_harmonics import kernels as kn
from dl_harmonics import lamplighter as lp
from dl_harmonics import tree as tr
from dl_harmonics import walks as wk
from metrics import WORKLOADS

F = Fraction
HALF = F(1, 2)
ALPHAS = (F(1, 2), F(2, 3), F(1, 3), F(3, 5), F(2, 5))


@dataclass
class Task:
    kind: str  # task class, e.g. "combine" or "kernel-eval:malformed"
    run: Callable[[], Any]
    check: Callable[[Any], tuple[bool, int, list]]
    known_defect: bool = False  # fails today because of a documented defect


def first_of_each_kind(tasks: list[Task]) -> list[Task]:
    """One task per task class: the warm-up list."""
    seen: dict[str, Task] = {}
    for t in tasks:
        seen.setdefault(t.kind, t)
    return list(seen.values())


class Workload:
    """Builds its long-lived objects in ``__init__``; ``cycle`` returns round
    ``index`` of the fixed task mix; ``warmup`` the untimed warm-up tasks."""

    work_unit: str  # what ``work_per_s`` counts on this workload
    trace_cycles: int  # cycles in a traced run

    def cycle(self, rng: random.Random, index: int) -> list[Task]:
        raise NotImplementedError

    def warmup(self, rng: random.Random) -> list[Task]:
        return first_of_each_kind(self.cycle(rng, 0))


def _word_end(rng: random.Random, branch: int, lo: int, hi: int) -> dh.TreeEnd:
    return dh.TreeEnd.word(
        {j: rng.randrange(1, branch) for j in range(lo, hi + 1) if rng.random() < 0.4}
    )


def _positive(rng: random.Random) -> Fraction:
    return F(rng.randrange(1, 6), rng.randrange(1, 6))


def _branch(side: int, params: dh.DLParams) -> int:
    return params.q if side == 1 else params.r


def _dl_size(q: int, r: int, n: int) -> int:
    """Vertices of the stage-n truncation of DL(q, r)."""
    return sum(q ** (n + k) * r ** (n - k) for k in range(-n, n + 1))


# ---------------------------------------------------------------------------
# pointwise: exact closed forms checked vertex by vertex.


class Pointwise(Workload):
    """Mean-value checks of kernel combinations, stage-n kernel
    approximants with F-monotonicity, and lamplighter dictionary checks.

    Mix per cycle: 20 lamplighter tasks (fastest), 15 ``kernel_approx`` tasks,
    15 ``combine`` tasks (slowest), i.e. 40/30/30 %, so p50 falls inside the
    ``kernel_approx`` class and p90 inside the ``combine`` class.  Each
    ``combine`` task checks its own combination at 16-30 vertices of a ball,
    about 100-150 kernel evaluations per combination.
    """

    work_unit = "checks"
    trace_cycles = 8

    def __init__(self, smoke: bool):
        self.smoke = smoke
        graphs = {(2, 2): (5, 30), (2, 3): (4, 24), (3, 3): (4, 16)}
        self.graphs = []  # (params, ball, vertices per task, {alpha: op})
        for (q, r), (radius, chunk) in graphs.items():
            p = dh.DLParams(q, r)
            if smoke:
                radius, chunk = 2, 4
            ops = {a: dh.DLWalk(p, a) for a in ALPHAS}
            self.graphs.append((p, dg.ball(p, radius), chunk, ops))
        self.stage_ns = (4, 5) if smoke else (4, 5, 6, 7, 8)
        self.stages = {}
        for p in (dh.DLParams(2, 2), dh.DLParams(2, 3)):
            for kind in ("tree1", "tree2"):
                for a in ALPHAS:
                    self.stages[kind, p, a] = [
                        dct.TruncationStage(kind, n, p, a) for n in self.stage_ns
                    ]
        self.stage_keys = sorted(self.stages, key=str)
        self.tree_balls = {b: tr.ball(b, 2 if smoke else 3) for b in (2, 3)}
        self.lamp_params = {q: dh.DLParams(q, q) for q in (2, 3)}

    def cycle(self, rng: random.Random, index: int) -> list[Task]:
        n_lamp, n_approx, n_combine = (2, 2, 1) if self.smoke else (20, 15, 5)
        tasks = [self._lamp_task(rng) for _ in range(n_lamp)]
        tasks += [self._approx_task(rng) for _ in range(n_approx)]
        for graph in self.graphs:
            tasks += [self._combine_task(rng, *graph) for _ in range(n_combine)]
        rng.shuffle(tasks)
        return tasks

    @staticmethod
    def _combine_task(rng, p, ball, chunk, ops) -> Task:
        # One kernel per tree, at ends with three labels each, so that every
        # task evaluates kernels of the same shape.
        alpha = rng.choice(ALPHAS)
        terms = []
        for side in (1, 2):
            labels = rng.sample(range(-3, 4), 3)
            end = dh.TreeEnd.word({j: rng.randrange(1, _branch(side, p)) for j in labels})
            terms.append((_positive(rng), dh.KernelSpec(side, end, alpha, p)))
        h = kn.combine(terms, _positive(rng))
        op = ops[alpha]
        vertices = rng.sample(ball, chunk)

        def run():
            return [(wk.apply(op, h, v), h(v)) for v in vertices]

        def check(pairs):
            return all(a == b for a, b in pairs), len(pairs), [b for _, b in pairs]

        return Task("combine", run, check)

    def _approx_task(self, rng: random.Random) -> Task:
        kind, p, alpha = rng.choice(self.stage_keys)
        stages = self.stages[kind, p, alpha]
        up, branch = (alpha, p.q) if kind == "tree1" else (1 - alpha, p.r)
        end = _word_end(rng, branch, -2, 3)
        xs = rng.sample(self.tree_balls[branch], 2)

        def run():
            out = []
            for x in xs:
                approx = [dct.kernel_approx(s, x, end) for s in stages]
                c = tr.confluent_omega_end(x, end)
                fs = [dct.restricted_hitting(s.n, branch, up, x, c) for s in stages]
                out.append((approx, fs))
            return out

        def check(out):
            ok = all(
                all(k > 0 for k in approx) and all(a <= b for a, b in zip(fs, fs[1:]))
                for approx, fs in out
            )
            return ok, sum(len(a) for a, _ in out), [v for a, fs in out for v in a + fs]

        return Task("kernel_approx", run, check)

    def _lamp_task(self, rng: random.Random) -> Task:
        q = rng.choice((2, 3))
        params = self.lamp_params[q]
        cases = []
        for _ in range(6):
            eta = {n: rng.randrange(q) for n in range(-4, 5) if rng.random() < 0.5}
            a = lp.GroupElement.make(eta, rng.randrange(-3, 4), q)
            labels = tuple((n, rng.randrange(1, q)) for n in range(-4, 5) if rng.random() < 0.4)
            cases.append((a, labels))
        ws, sws = lp.GeneratorModel.WALK_SWITCH, lp.GeneratorModel.SWITCH_WALK_SWITCH

        def run():
            out = []
            for a, labels in cases:
                v = lp.encode(a)
                xi_p = lp.BoundaryConfig("+", labels)
                xi_m = lp.BoundaryConfig("-", labels)
                shifted = lp.BoundaryConfig("+", tuple((n + 1, val) for n, val in labels))
                kernels = (
                    kn.defect_kernel(ws, a, xi_p, q),
                    kn.defect_kernel(ws, a, xi_m, q),
                    kn.defect_kernel(sws, a, xi_p, q),
                )
                trees = (
                    kn.martin_kernel_tree(1, v.x1, lp.end_plus(xi_p), HALF, params),
                    kn.martin_kernel_tree(2, v.x2, lp.end_minus(xi_m), HALF, params),
                    kn.martin_kernel_tree(
                        1, dg.factor_map(v, params).x1, lp.end_plus(shifted), HALF, params
                    ),
                )
                out.append((
                    lp.decode(v, params) == a,
                    {lp.encode(b) for b in lp.cayley_neighbours(a, ws, q)}
                    == set(dg.dl_neighbours(v, params)),
                    {lp.encode(b) for b in lp.cayley_neighbours(a, sws, q)}
                    == set(dg.dls_neighbours(v, params)),
                    kernels == trees,
                    kernels,
                ))
            return out

        def check(out):
            ok = all(all(row[:4]) for row in out)
            return ok, len(out), [k for row in out for k in row[4]]

        return Task("lamplighter", run, check)


# ---------------------------------------------------------------------------
# solve: exact Dirichlet jobs on truncations of growing size.


# Solve jobs as (job, (q, r), n, chain kind, tasks per cycle, alphas), from
# fastest to slowest.  Each group of rows with about the same latency forms
# one band of the sorted latencies; the counts put p50 in the middle of the
# ~6 ms band and p90 in the middle of the DL(2,2) n = 2 table band.
SOLVE_SMALL = (
    # < 3 ms: 55 tasks
    ("build", (2, 2), 1, "dl", 4, ALPHAS),
    ("build", (2, 2), 2, "dl", 4, ALPHAS),
    ("build", (2, 3), 1, "dl", 4, ALPHAS),
    ("build", (3, 3), 1, "dl", 4, ALPHAS),
    ("build", (2, 3), 2, "tree1", 4, ALPHAS),
    ("build", (3, 2), 3, "tree2", 4, ALPHAS),
    ("table", (2, 2), 1, "dl", 5, ALPHAS),
    ("table", (2, 3), 1, "dl", 5, ALPHAS),
    ("table", (3, 3), 1, "dl", 5, ALPHAS),
    ("represent", (2, 2), 1, "dl", 8, ALPHAS),
    ("represent", (2, 3), 1, "dl", 8, ALPHAS),
    # ~6 ms, the p50 band: 21 tasks
    ("build", (3, 3), 2, "dl", 1, ALPHAS),
    ("product", (2, 2), 1, "dl", 8, ALPHAS),
    ("represent", (3, 3), 1, "dl", 6, ALPHAS),
    ("table", (2, 3), 2, "tree1", 3, ALPHAS),
    ("table", (3, 2), 2, "tree2", 3, ALPHAS),
    # 10-40 ms: 35 tasks
    ("product", (2, 3), 1, "dl", 8, ALPHAS),
    ("decompose", (2, 2), 1, "dl", 8, ALPHAS),
    ("decompose", (2, 3), 1, "dl", 9, ALPHAS),
    ("product", (3, 3), 1, "dl", 6, ALPHAS),
    ("decompose", (3, 3), 1, "dl", 4, ALPHAS),
)
SOLVE_BIG = (
    # ~45 ms, the p90 band: 12 tasks
    ("table", (2, 2), 2, "dl", 12, ALPHAS),
    # 50-400 ms: 6 tasks
    ("represent", (2, 2), 2, "dl", 2, ALPHAS),
    ("table", (2, 3), 3, "tree1", 1, ALPHAS),
    ("table", (3, 2), 3, "tree2", 1, ALPHAS),
    ("decompose", (2, 2), 2, "dl", 1, ALPHAS),
    ("product", (2, 2), 2, "dl", 1, ALPHAS),
)
# Seconds: the two largest systems that solve in seconds today, in every
# cycle: DL(2,2) n = 3 (320 unknowns, 128 boundary columns) and DL(3,3)
# n = 2 (243 unknowns, 162 boundary columns).
SOLVE_LARGE = (
    ("table", (2, 2), 3, "dl", 1, (F(1, 3),)),
    ("table", (3, 3), 2, "dl", 1, (F(2, 3),)),
)


class Solve(Workload):
    """Exact Dirichlet jobs: ``build_truncation``, ``hitting_table``,
    ``represent`` with generated boundary data, ``verify_product_formula``
    and ``decompose``, on chains from the 12-vertex DL(2,2) n = 1 to
    DL(2,2) n = 3 and DL(3,3) n = 2, plus tree chains.  131 tasks per cycle,
    two of them large: the DL(2,2) n = 3 and DL(3,3) n = 2 hitting tables.
    p50 falls among the small jobs and p90 among the medium ones, so a
    change that helps large systems but costs small ones splits the two.
    """

    work_unit = "entries"
    trace_cycles = 2

    def __init__(self, smoke: bool):
        self.smoke = smoke
        self.params = {qr: dh.DLParams(*qr) for qr in ((2, 2), (2, 3), (3, 2), (3, 3))}

    def _jobs(self, rng: random.Random, table, once: bool = False) -> list[Task]:
        makers = {"build": self._build, "table": self._table, "represent": self._represent,
                  "product": self._product, "decompose": self._decompose}
        tasks = []
        for job, qr, n, kind, count, alphas in table:
            count = 1 if once else count
            # Every alpha equally often, up to one, in a seeded order.
            picks = (list(alphas) * count)[:count]
            rng.shuffle(picks)
            for alpha in picks:
                tasks.append(makers[job](rng, self.params[qr], n, kind, alpha))
        return tasks

    def cycle(self, rng: random.Random, index: int) -> list[Task]:
        if self.smoke:
            tasks = self._jobs(rng, SOLVE_SMALL, once=True)
        else:
            tasks = self._jobs(rng, SOLVE_SMALL + SOLVE_BIG + SOLVE_LARGE)
        rng.shuffle(tasks)
        return tasks

    def warmup(self, rng: random.Random) -> list[Task]:
        return self._jobs(rng, SOLVE_SMALL, once=True)

    @staticmethod
    def _build(rng, params, n, kind, alpha) -> Task:
        def run():
            return dct.build_truncation(n, params, alpha, kind)

        def check(chain):
            q, r = params.q, params.r
            if kind == "dl":
                size = _dl_size(q, r, n)
                bsize = q ** (2 * n) + r ** (2 * n)
            else:
                b = q if kind == "tree1" else r
                size = sum(b ** (n + k) for k in range(-n, n + 1))
                bsize = 1 + b ** (2 * n)
            ok = len(chain.vertices) == size and len(chain.boundary) == bsize
            return ok, 0, [len(chain.vertices), len(chain.boundary), len(chain.interior)]

        return Task(f"build_truncation.{kind}({params.q},{params.r}).n{n}", run, check)

    @staticmethod
    def _table(rng, params, n, kind, alpha) -> Task:
        def run():
            # hitting_table verifies its own result exactly: Kronecker
            # boundary rows, unit row sums and a zero sparse residual.
            return dct.hitting_table(dct.build_truncation(n, params, alpha, kind))

        def check(table):
            rows = table.rows
            ok = all(sum(row) == 1 for row in rows)
            if kind != "dl":
                # Independent closed-form route on a tree chain.
                ok = ok and dct.closed_tree_table(table.chain).rows == rows
            return ok, len(rows) * len(table.chain.boundary), [x for row in rows for x in row]

        return Task(f"hitting_table.{kind}({params.q},{params.r}).n{n}", run, check)

    @staticmethod
    def _represent(rng, params, n, kind, alpha) -> Task:
        data_values = [F(rng.randrange(0, 20), rng.randrange(1, 8)) for _ in range(512)]

        def run():
            chain = dct.build_truncation(n, params, alpha, "dl")
            data = {y: data_values[i % len(data_values)] for i, y in enumerate(chain.boundary)}
            return chain, data, dct.represent(chain, data)

        def check(out):
            chain, data, values = out
            ok = all(values[y] == data[y] for y in chain.boundary)
            lo, hi = min(data.values()), max(data.values())
            ok = ok and all(lo <= v <= hi for v in values.values())  # maximum principle
            # The extension is computed from the full hitting table.
            work = len(values) * (len(chain.boundary) + 1)
            return ok, work, [values[v] for v in chain.vertices]

        return Task(f"represent.dl({params.q},{params.r}).n{n}", run, check)

    @staticmethod
    def _product(rng, params, n, kind, alpha) -> Task:
        def run():
            return dct.verify_product_formula(dct.build_truncation(n, params, alpha, "dl"))

        def check(report):
            return not report.discrepancies, report.checked, [report.checked]

        return Task(f"verify_product_formula.dl({params.q},{params.r}).n{n}", run, check)

    @staticmethod
    def _decompose(rng, params, n, kind, alpha) -> Task:
        terms = []
        for _ in range(2):
            side = rng.choice((1, 2))
            end = _word_end(rng, _branch(side, params), -n, n)
            terms.append((_positive(rng), dh.KernelSpec(side, end, alpha, params)))
        h = kn.combine(terms, _positive(rng))

        def run():
            # decompose raises unless the splitting reconstructs h exactly
            # on every vertex of the truncation.
            return dct.decompose(h, n, params, alpha)

        def check(dec):
            key = lambda kv: (kv[0].level, kv[0].labels)
            outputs = [v for part in (dec.h1, dec.h2) for _, v in sorted(part.items(), key=key)]
            return True, _dl_size(params.q, params.r, n), outputs

        return Task(f"decompose.dl({params.q},{params.r}).n{n}", run, check)


# ---------------------------------------------------------------------------
# sample: Monte-Carlo hitting estimates.


def _band_ok(res, f_upper: Fraction, f_exact: Fraction | None) -> bool:
    """Six-sigma band around the closed form; hits/trials is a lower bound,
    so unresolved runs only widen the band downwards."""
    t = res.trials
    p = res.hits / t
    f = float(f_upper)
    slack = 6 * math.sqrt(f * (1 - f) / t) + 1 / t
    if p > f + slack:
        return False
    if f_exact is None:
        return True
    unresolved = (res.escaped_runs + res.truncated_runs) / t
    return p >= float(f_exact) - slack - unresolved


def _two_steps_away(start, walk):
    """Draw ``walk()`` (two random steps from ``start``) until it moves."""
    y = walk()
    while y == start:
        y = walk()
    return y


class Sample(Workload):
    """``estimate_f`` on p1, p2, palpha and qalpha through the fast cursor
    path, at a drifted (2/3) and the driftless (1/2) alpha, plus
    ``conjugate(DLWalk, drift_kernel)`` estimates on the generic per-step
    ``transitions`` path.  Mix per cycle: 16 fast-path tasks (100 trials,
    horizon 300) and 4 generic-path tasks (15 trials, horizon 30).  The
    generic-path tasks and the driftless qalpha tasks are the slowest 30 %,
    so p90 falls inside that group.  Targets are two random steps from the
    start."""

    work_unit = "trials"
    trace_cycles = 10

    def __init__(self, smoke: bool):
        self.smoke = smoke
        self.trials, self.horizon = (20, 50) if smoke else (100, 300)
        self.conj_trials, self.conj_horizon = (3, 10) if smoke else (15, 30)
        self.fast = []  # (name, params, alpha, op)
        self.conj = []
        for p in (dh.DLParams(2, 2), dh.DLParams(2, 3)):
            for a in (F(2, 3), HALF):
                for name in ("p1", "p2", "palpha", "qalpha"):
                    self.fast.append((name, p, a, wk.operator_from_name(name, p, a)))
            for a in (F(2, 3), F(3, 5)):
                self.conj.append((p, wk.conjugate(dh.DLWalk(p, a), kn.drift_kernel(a))))

    def cycle(self, rng: random.Random, index: int) -> list[Task]:
        fast = self.fast[::3] if self.smoke else self.fast
        conj = self.conj[:1] if self.smoke else self.conj
        tasks = [self._fast_task(rng, *entry) for entry in fast]
        tasks += [self._conj_task(rng, p, op) for p, op in conj]
        rng.shuffle(tasks)
        return tasks

    def _fast_task(self, rng, name, params, alpha, op) -> Task:
        # Start at the root and aim at a vertex two random steps away, so
        # every target is at distance 2 and tasks of a class cost alike.
        if name in ("p1", "p2"):
            branch = params.q if name == "p1" else params.r
            x = tr.ROOT
            y = _two_steps_away(x, lambda: tr.random_vertex(branch, 2, rng))
        else:
            variant = "dls" if name == "qalpha" else "dl"
            x = dg.origin(params)
            y = _two_steps_away(x, lambda: dg.random_vertex(params, 2, rng, variant))
        seed = rng.randrange(2**32)
        trials, horizon = self.trials, self.horizon

        def run():
            return wk.estimate_f(op, x, y, trials, horizon, seed)

        def check(res):
            ok = res.hits + res.escaped_runs + res.truncated_runs == res.trials == trials
            if name in ("p1", "p2"):
                f = kn.tree_hitting_prob(x, y, op.up, op.branch)
                ok = ok and _band_ok(res, f, f)
            elif name == "palpha":
                # Hitting y in the product needs both projections to hit.
                f1 = kn.tree_hitting_prob(x.x1, y.x1, alpha, params.q)
                f2 = kn.tree_hitting_prob(x.x2, y.x2, 1 - alpha, params.r)
                ok = ok and _band_ok(res, min(f1, f2), None)
            return ok, res.trials, [res.hits, res.escaped_runs, res.truncated_runs]

        drift = "drift" if alpha != HALF else "driftless"
        return Task(f"estimate_f.{name}.{drift}", run, check)

    def _conj_task(self, rng, params, op) -> Task:
        x = dg.origin(params)
        y = _two_steps_away(x, lambda: dg.random_vertex(params, 2, rng))
        seed = rng.randrange(2**32)
        trials, horizon = self.conj_trials, self.conj_horizon

        def run():
            return wk.estimate_f(op, x, y, trials, horizon, seed)

        def check(res):
            ok = res.hits + res.escaped_runs + res.truncated_runs == res.trials == trials
            ok = ok and wk.is_stochastic_at(op, x)
            return ok, res.trials, [res.hits, res.escaped_runs, res.truncated_runs]

        return Task("estimate_f.conjugate", run, check)


# ---------------------------------------------------------------------------
# cli: one in-process ``cli.main(argv)`` call per task.


def _cli_call(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse reports usage errors this way
            code = exc.code
    return code, out.getvalue()


def _j(obj) -> str:
    return json.dumps(obj, sort_keys=True)


class Cli(Workload):
    """One ``cli.main(argv)`` call per task over all nine subcommands on
    small generated inputs, plus a malformed share whose documented result
    is exit 2.  Mix per cycle: 24 valid calls and 6 malformed ones, two of
    which hit known boundary defects and count as failures until fixed."""

    work_unit = "checks"
    trace_cycles = 16

    def __init__(self, smoke: bool, tmpdir: str):
        self.smoke = smoke
        self.tmpdir = tmpdir
        self.params = {qr: dh.DLParams(*qr) for qr in ((2, 2), (2, 3), (3, 3))}

    def cycle(self, rng: random.Random, index: int) -> list[Task]:
        makers = [
            (self._kernel_eval, 3), (self._harmonic_check, 3), (self._dirichlet_solve, 3),
            (self._decompose, 2), (self._simulate, 3), (self._estimate_f, 3),
            (self._cayley_check, 2), (self._defect, 3), (self._graph_export, 2),
            (self._malformed, 4), (self._known_defect_kernel_eval, 1),
            (self._known_defect_simulate, 1),
        ]
        # A maker gets the running number of its task over the run, so that
        # it can rotate through its variants and every class keeps a fixed
        # share of the mix.
        tasks = []
        for make, count in makers:
            count = 1 if self.smoke else count
            tasks += [make(rng, count * index + i) for i in range(count)]
        rng.shuffle(tasks)
        return tasks

    @staticmethod
    def _task(kind, argv, check, known_defect=False, out_path=None) -> Task:
        def run():
            return _cli_call(argv)

        def checked(result):
            code, out = result
            ok, work = check(code, out)
            outputs = [code, out]
            if out_path is not None:
                # The temp path differs between checkouts: digest the
                # written table instead of the path.
                with open(out_path) as fh:
                    outputs = [code, out.replace(out_path, "<out>"), fh.read()]
            return ok, work, outputs

        return Task(kind, run, checked, known_defect)

    def _kernel_eval(self, rng, i) -> Task:
        qr = rng.choice(sorted(self.params))
        params = self.params[qr]
        side = rng.choice((1, 2))
        branch = _branch(side, params)
        end = _word_end(rng, branch, -2, 3)
        x = tr.random_vertex(branch, rng.randrange(5), rng)
        alpha = rng.choice(ALPHAS)
        argv = ["kernel-eval", "--q", str(params.q), "--r", str(params.r), "--side", str(side),
                "--end", _j(tr.end_to_json(end)), "--at", _j(tr.vertex_to_json(x)), "--alpha", str(alpha)]

        def check(code, out):
            want = kn.martin_kernel_tree(side, x, end, alpha, params)
            return code == 0 and json.loads(out)["value"] == f"{want.numerator}/{want.denominator}", 2

        return self._task("kernel-eval", argv, check)

    def _spec(self, rng, params, alpha) -> dict:
        terms = []
        for _ in range(2):
            side = rng.choice((1, 2))
            end = _word_end(rng, _branch(side, params), -1, 1)
            c = _positive(rng)
            terms.append({"coeff": f"{c.numerator}/{c.denominator}", "side": side,
                          "end": tr.end_to_json(end)})
        return {"q": params.q, "r": params.r, "alpha": str(alpha), "constant": "1/2", "terms": terms}

    def _harmonic_check(self, rng, i) -> Task:
        params = self.params[rng.choice(sorted(self.params))]
        samples = 8
        argv = ["harmonic-check", "--spec", _j(self._spec(rng, params, rng.choice(ALPHAS))),
                "--samples", str(samples), "--radius", "3", "--seed", str(rng.randrange(1000))]

        def check(code, out):
            res = json.loads(out)
            return code == 0 and res["failures"] == 0 and res["checked"] == samples, 3

        return self._task("harmonic-check", argv, check)

    def _dirichlet_solve(self, rng, k) -> Task:
        # Every variant (plain, product check, --out) on every graph in turn.
        variant = k % 3
        q, r = sorted(self.params)[k // 3 % 3]
        alpha = rng.choice(ALPHAS)
        argv = ["dirichlet-solve", "--q", str(q), "--r", str(r), "--n", "1", "--alpha", str(alpha)]
        path = None
        if variant == 1:
            argv.append("--check-product")
        if variant == 2:
            path = os.path.join(self.tmpdir, "table.json")
            argv += ["--out", path]
        size = _dl_size(q, r, 1)
        bsize = q * q + r * r

        def check(code, out):
            res = json.loads(out)
            ok = code == 0 and res["size"] == size and res["boundary_size"] == bsize
            ok = ok and res["row_sums_one"] is True
            if "--check-product" in argv:
                ok = ok and res["product_discrepancies"] == 0 and res["product_checked"] == size * bsize
            if path is not None:
                with open(path) as fh:
                    table = json.load(fh)
                ok = ok and len(table["F"]) == size and all(len(row) == bsize for row in table["F"])
            return ok, 5

        return self._task("dirichlet-solve", argv, check, out_path=path)

    def _decompose(self, rng, k) -> Task:
        params = self.params[((2, 2), (2, 3))[k % 2]]
        argv = ["decompose", "--spec", _j(self._spec(rng, params, rng.choice(ALPHAS))), "--n", "1"]

        def check(code, out):
            res = json.loads(out)
            return code == 0 and res["reconstructed_exactly"] is True and len(res["h1"]) == 1 + params.q + params.q ** 2, 3

        return self._task("decompose", argv, check)

    def _simulate(self, rng, i) -> Task:
        params = self.params[rng.choice(sorted(self.params))]
        name = ("palpha", "p1", "p2", "qalpha")[rng.randrange(4)]
        steps = 12
        argv = ["simulate", "--q", str(params.q), "--r", str(params.r), "--operator", name,
                "--alpha", str(rng.choice(ALPHAS)), "--steps", str(steps),
                "--seed", str(rng.randrange(1000))]

        def check(code, out):
            lines = [json.loads(line) for line in out.splitlines()]
            if code != 0 or len(lines) != steps + 1:
                return False, 2
            if name in ("p1", "p2"):
                branch = params.q if name == "p1" else params.r
                path = [tr.vertex_from_json(o) for o in lines]
                near = lambda v: tr.neighbours(v, branch)
            else:
                path = [dg.vertex_from_json_pair(o) for o in lines]
                near = (lambda v: dg.dls_neighbours(v, params)) if name == "qalpha" else (
                    lambda v: dg.dl_neighbours(v, params))
            return all(b in near(a) for a, b in zip(path, path[1:])), 2 + steps

        return self._task("simulate", argv, check)

    def _estimate_f(self, rng, i) -> Task:
        params = self.params[rng.choice(sorted(self.params))]
        branch = params.q
        y = tr.ROOT
        while y == tr.ROOT:
            y = tr.random_vertex(branch, rng.randrange(1, 3), rng)
        trials = 40
        argv = ["estimate-f", "--q", str(params.q), "--r", str(params.r), "--operator", "p1",
                "--alpha", str(rng.choice((F(2, 3), HALF))), "--to", _j(tr.vertex_to_json(y)),
                "--trials", str(trials), "--horizon", "100", "--seed", str(rng.randrange(1000))]

        def check(code, out):
            res = json.loads(out)
            total = res["hits"] + res["escaped_runs"] + res["truncated_runs"]
            return code == 0 and total == res["trials"] == trials, 2

        return self._task("estimate-f", argv, check)

    def _cayley_check(self, rng, k) -> Task:
        q = (2, 3)[k % 2]
        support, pos = 1, 1
        argv = ["cayley-check", "--q", str(q), "--support", str(support), "--position-range", str(pos)]

        def check(code, out):
            res = json.loads(out)
            ok = code == 0 and res["elements"] == q ** (2 * support + 1) * (2 * pos + 1)
            ok = ok and res["bijective"] and res["walk_switch_matches_dl"]
            return ok and res["switch_walk_switch_matches_dls"], 5

        return self._task("cayley-check", argv, check)

    def _defect(self, rng, i) -> Task:
        q = rng.choice((2, 3))
        eta = {n: rng.randrange(q) for n in range(-3, 4) if rng.random() < 0.5}
        a = lp.GroupElement.make(eta, rng.randrange(-2, 3), q)
        side = rng.choice("+-")
        xi = lp.BoundaryConfig.make(side, {n: rng.randrange(1, q) for n in range(-3, 4) if rng.random() < 0.4})
        argv = ["defect", "--q", str(q), "--element", _j(lp.element_to_json(a)),
                "--boundary", _j(lp.config_to_json(xi))]

        def check(code, out):
            res = json.loads(out)
            if side == "+":
                want = {"defect_plus": lp.defect_plus(a, xi), "defect_oplus": lp.defect_oplus(a, xi)}
                kernels = {"kernel_walk_switch": "defect_plus",
                           "kernel_switch_walk_switch": "defect_oplus"}
            else:
                want = {"defect_minus": lp.defect_minus(a, xi)}
                kernels = {"kernel_walk_switch": "defect_minus"}
            ok = code == 0 and all(res[k] == v for k, v in want.items())
            ok = ok and all(F(res[k]) == F(q) ** want[d] for k, d in kernels.items())
            return ok, 1 + len(want) + len(kernels)

        return self._task("defect", argv, check)

    def _graph_export(self, rng, i) -> Task:
        params = self.params[rng.choice(sorted(self.params))]
        variant = rng.choice(("dl", "dls"))
        radius = 2 if variant == "dl" else 1
        fmt = ("json", "dot")[i % 2]
        argv = ["graph-export", "--q", str(params.q), "--r", str(params.r), "--radius", str(radius),
                "--variant", variant, "--format", fmt]

        def check(code, out):
            n = len(dg.ball(params, radius, variant))
            if fmt == "json":
                res = json.loads(out)
                ok = len(res["vertices"]) == n and len(res["adjacency"]) == n
                ok = ok and sum(map(len, res["adjacency"])) == 2 * len(res["edges"])
            else:
                ok = out.startswith("graph {") and out.count("[label=") == n
            return code == 0 and ok, 3

        return self._task("graph-export", argv, check)

    def _malformed(self, rng, i) -> Task:
        """Requests the CLI documents as usage errors (exit 2)."""
        bad_alpha = rng.choice(("3/2", "0", "1", "-1/3"))
        argv = [
            ["kernel-eval", "--end", '{"labels": []}', "--at", '{"level": 0}', "--alpha", bad_alpha],
            ["dirichlet-solve", "--n", str(rng.choice((0, -1)))],
            ["estimate-f", "--trials", "10"],  # --to is required
            ["defect", "--element", '{"k": 0}', "--boundary", '{"side": "%s"}' % rng.choice("x*0")],
        ][i % 4]

        def check(code, out):
            return code == 2 and out == "", 1

        return self._task(f"{argv[0]}:malformed", argv, check)

    def _known_defect_kernel_eval(self, rng, i) -> Task:
        """Out-of-range tree label: should exit 2, today prints "1/1"."""
        label = rng.randrange(2, 10)
        argv = ["kernel-eval", "--q", "2", "--end", '{"omega": true}',
                "--at", _j({"level": 1, "labels": [[1, label]]})]
        return self._task("kernel-eval:known-defect", argv,
                          lambda code, out: (code == 2, 1), known_defect=True)

    def _known_defect_simulate(self, rng, i) -> Task:
        """Start vertex outside the graph: should exit 2, today walks anyway."""
        label = rng.randrange(2, 10)
        start = {"x1": {"level": 1, "labels": [[1, label]]}, "x2": {"level": -1, "labels": []}}
        argv = ["simulate", "--q", "2", "--r", "2", "--start", _j(start), "--steps", "5"]
        return self._task("simulate:known-defect", argv,
                          lambda code, out: (code == 2, 1), known_defect=True)


CLASSES = dict(zip(WORKLOADS, (Pointwise, Solve, Sample, Cli)))
