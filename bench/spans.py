"""Span tracer that wraps ``dl_harmonics`` from outside the package.

:meth:`Tracer.install` replaces every public function of the traced modules,
and the methods listed in ``METHODS``, with a wrapper that records one span
per call; :meth:`Tracer.uninstall` puts the originals back.  Modules import each other's names (``from .tree import
confluent_omega``), so each wrapper is rebound in every ``dl_harmonics.*``
namespace that holds the original; otherwise calls made through those
imported names would go uncounted.

Spans are kept in memory, aggregated per ``(task id, span name)`` as
``[calls, inclusive seconds, self seconds]``.  Self time is inclusive time
minus the time covered by nested spans.  Spans are recorded only while
``active`` is true, so the benchmark's own oracle calls are not counted.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from time import perf_counter

from metrics import MODULES

# ``walks.transitions(op, v)`` only forwards to ``op.transitions``; the
# per-class methods below carry that span name instead.
SKIP = {"walks.transitions"}

METHODS = (
    ("tree", "TreeVertex", "__post_init__", "tree.vertex_validations"),
    ("walks", "DLWalk", "transitions", "walks.transitions"),
    ("walks", "TreeWalk", "transitions", "walks.transitions"),
    ("walks", "SiblingWalk", "transitions", "walks.transitions"),
    ("walks", "ConjugatedWalk", "transitions", "walks.transitions"),
    ("walks", "ProjectedWalk", "transitions", "walks.transitions"),
    ("kernels", "KernelSpec", "evaluate", "kernels.KernelSpec.evaluate"),
    ("kernels", "HarmonicFunction", "__call__", "kernels.HarmonicFunction.call"),
    ("dirichlet", "FiniteChain", "index", "dirichlet.FiniteChain.index"),
    ("dirichlet", "HittingTable", "value", "dirichlet.HittingTable.value"),
)


def _entry_bits(x) -> int:
    return max(x.numerator.bit_length(), x.denominator.bit_length())


def _observe_hitting_table(add, table) -> None:
    add("dirichlet.hitting_table.unknowns", len(table.chain.interior))
    add("dirichlet.hitting_table.boundary_cols", len(table.chain.boundary))
    bits = max((_entry_bits(x) for row in table.rows for x in row), default=0)
    add("dirichlet.hitting_table.max_entry_bits", bits, max)


def _observe_estimate_f(add, res) -> None:
    add("walks.estimate_f.trials", res.trials)
    add("walks.estimate_f.truncated", res.truncated_runs)
    add("walks.estimate_f.escaped", res.escaped_runs)


OBSERVERS = {
    "dirichlet.hitting_table": _observe_hitting_table,
    "walks.estimate_f": _observe_estimate_f,
}


class Tracer:
    def __init__(self):
        self.active = False
        self.task = None  # id of the task whose calls are being recorded
        self.spans: dict[tuple[str, str], list] = {}
        self.counts: dict[tuple[str, str], int] = {}
        self._child = []  # per open span: seconds covered by nested spans
        self._saved = []  # (owner, attribute, original) for uninstall

    def add(self, name: str, value: int, combine=lambda a, b: a + b) -> None:
        key = (self.task, name)
        self.counts[key] = combine(self.counts[key], value) if key in self.counts else value

    def wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self._child.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = self._child.pop()
                rec = self.spans.setdefault((self.task, name), [0, 0.0, 0.0])
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - child
                if self._child:
                    self._child[-1] += dt
            if observe is not None:
                # Observer time is charged to no span: it is added to the
                # enclosing span's nested time, which keeps it out of that
                # span's self time.
                t1 = perf_counter()
                observe(self.add, result)
                if self._child:
                    self._child[-1] += perf_counter() - t1
            return result

        return wrapper

    def _rebind(self, owner, attr, new) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        modules = {m: importlib.import_module(f"dl_harmonics.{m}") for m in MODULES}
        wrapped = {}
        for m, mod in modules.items():
            for attr, obj in vars(mod).items():
                name = f"{m}.{attr}"
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                    and name not in SKIP
                ):
                    wrapped[obj] = self.wrap(name, obj)
        namespaces = [importlib.import_module("dl_harmonics"), *modules.values()]
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._rebind(ns, attr, wrapped[obj])
        for m, cls_name, attr, name in METHODS:
            cls = getattr(modules[m], cls_name)
            obj = cls.__dict__[attr]
            if isinstance(obj, property):
                self._rebind(cls, attr, property(self.wrap(name, obj.fget)))
            else:
                self._rebind(cls, attr, self.wrap(name, obj))

    def uninstall(self) -> None:
        """Put every original back, so that the package runs untraced."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
